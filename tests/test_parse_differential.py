"""The parse differential: its comparison of two runs, on hand-made outcome
records, and the gate of its run on a few mutants."""

import itertools
import json
import sys

import pytest

from conftest import TOOLS, load_tool

differential = load_tool("parse_differential")


def records(*outcomes):
    """One record per (outcome, message) pair, the kinds alternating."""
    return [
        dict(seed=seed, kind=("problem", "mock")[seed % 2], outcome=outcome, message=message)
        for seed, (outcome, message) in enumerate(outcomes)
    ]


OUTCOMES = (
    ("ParseError", "FILE: line 3: unknown key 'bogus'"),
    ("ok", "0123456789abcdef"),
    ("ParseError", "FILE: missing key 'budget'"),
    ("InfeasibleBudget", "min_rate * n_frames exceeds the budget"),
)


def test_equal_runs_differ_nowhere():
    result = differential.compare(records(*OUTCOMES), records(*OUTCOMES))
    assert result["differ"] == []
    assert result["parent"] == result["change"] == {"InfeasibleBudget": 1, "ParseError": 2, "ok": 1}
    assert "0 of 4 mutants differ" in differential.format_comparison(result)


def test_a_changed_type_or_message_is_counted_and_shown():
    changed = list(OUTCOMES)
    changed[0] = ("ParseError", "FILE: line 5: non-finite number 'nan'")
    changed[2] = ("ok", "fedcba9876543210")
    result = differential.compare(records(*OUTCOMES), records(*changed))
    assert [a["seed"] for a, _ in result["differ"]] == [0, 2]
    assert result["change"] == {"InfeasibleBudget": 1, "ParseError": 1, "ok": 2}
    text = differential.format_comparison(result)
    assert "2 of 4 mutants differ" in text
    assert "seed 0 (problem):" in text
    assert "  parent ParseError: FILE: line 3: unknown key 'bogus'" in text
    assert "  change ParseError: FILE: line 5: non-finite number 'nan'" in text
    assert "  change ok: fedcba9876543210" in text


def test_examples_are_capped():
    bad = [("ParseError", f"FILE: line {k}: x") for k in range(9)]
    result = differential.compare(records(*bad), records(*[("ok", "0")] * 9))
    text = differential.format_comparison(result)
    assert "9 of 9 mutants differ" in text
    assert text.count("  parent ") == differential.EXAMPLES


@pytest.mark.parametrize(
    "before, after, name",
    [
        ("FILE: line 7: duplicate key 'order'", "FILE: line 4: x", "an earlier line"),
        ("FILE: line 4: x", "FILE: line 7: duplicate key 'order'", "a later line"),
        ("FILE: missing key 'budget'", "FILE: line 9: x", "a line where the parent named none"),
        ("FILE: line 9: x", "FILE: no frame line for (0,1)", "no line where the parent named one"),
        ("FILE: line 3: x", "FILE: line 3: y", "the same line with another message"),
        ("FILE: missing key 'a'", "FILE: missing key 'b'", "the same line with another message"),
    ],
)
def test_each_differing_record_is_counted_by_how_its_line_moved(before, after, name):
    parent = records(("ParseError", before), *OUTCOMES)
    result = differential.compare(parent, records(("ParseError", after), *OUTCOMES))
    assert result["moves"] == {move: int(move == name) for move in differential.MOVES}
    assert f"  1 name {name}\n" in differential.format_comparison(result)


def test_a_file_that_reads_names_no_line():
    parent = records(("ok", "0123"), ("ok", "4567"))
    change = records(("ParseError", "FILE: line 2: x"), ("ok", "89ab"))
    result = differential.compare(parent, change)
    assert result["moves"]["a line where the parent named none"] == 1
    assert result["moves"]["the same line with another message"] == 1


def test_runs_over_different_mutants_are_refused():
    with pytest.raises(ValueError, match="different mutants"):
        differential.compare(records(*OUTCOMES), records(*OUTCOMES)[:-1])


def test_mutants_the_change_appends_are_counted_apart():
    appended = [("DegenerateWeights", "FILE: all frame weights are zero")] * 2
    changed = list(OUTCOMES)
    changed[1] = ("ok", "fedcba9876543210")
    result = differential.compare(records(*OUTCOMES), records(*changed, *appended, ("ok", "0")))
    assert result["mutants"] == 4
    assert [a["seed"] for a, _ in result["differ"]] == [1]
    assert result["change"] == result["parent"]
    assert result["appended"] == {"DegenerateWeights": 2, "ok": 1}
    text = differential.format_comparison(result)
    assert "1 of 4 mutants differ\n" in text
    assert "3 mutants appended by the change: {'DegenerateWeights': 2, 'ok': 1}\n" in text
    assert "appended" not in differential.format_comparison(
        differential.compare(records(*OUTCOMES), records(*OUTCOMES))
    )


def test_run_fails_when_a_mutant_ends_outside_the_package_errors(
    tmp_path, monkeypatch, capsys
):
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "COUNT", 8)
    output = tmp_path / "records.json"
    argv = ["run", str(TOOLS.parent), "--output", str(output)]
    assert differential.main(argv) == 0
    assert capsys.readouterr().err == ""

    def broken_reader(path):
        raise KeyError("width")

    monkeypatch.setattr(lfalloc, "read_mock_config", broken_reader)
    assert differential.main(argv) == 1
    assert "4 of 8 mutants fail" in capsys.readouterr().err
    outcomes = [record["outcome"] for record in json.loads(output.read_text())]
    assert outcomes[1::2] == ["KeyError"] * 4


def test_run_prints_its_outcome_counts_most_first(tmp_path, monkeypatch, capsys):
    """The log of a run holds how many mutants end in each outcome, a
    failing run's included."""
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "ZERO_WEIGHTS_FROM", 6)
    monkeypatch.setattr(differential, "COUNT", 10)
    argv = ["run", str(TOOLS.parent), "--output", str(tmp_path / "records.json")]
    assert differential.main(argv) == 0
    assert capsys.readouterr().out == "6 ParseError, 4 DegenerateWeights\n"

    def broken_reader(path):
        raise KeyError("width")

    monkeypatch.setattr(lfalloc, "read_mock_config", broken_reader)
    assert differential.main(argv) == 1
    assert capsys.readouterr().out == "5 KeyError, 3 ParseError, 2 DegenerateWeights\n"


def test_run_fails_when_a_second_read_ends_otherwise(tmp_path, monkeypatch, capsys):
    """A reader that carries state from one read into the next: each mock
    config reads on its first read and fails on its second."""
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "COUNT", 8)
    reads = itertools.count()
    read_mock_config = lfalloc.read_mock_config

    def stateful_reader(path):
        if next(reads) % 2:
            raise lfalloc.ParseError("read before")
        return read_mock_config(path)

    monkeypatch.setattr(lfalloc, "read_mock_config", stateful_reader)
    output = tmp_path / "records.json"
    assert differential.main(["run", str(TOOLS.parent), "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert "seed 1: " in err and ", read again: ParseError: read before" in err
    assert err.endswith("4 of 8 mutants fail\n")
    # The records hold each mutant's first read.
    assert "read before" not in output.read_text()


def test_ok_digest_of_a_problem_covers_its_models(tmp_path, monkeypatch):
    """A reader whose models are not the file's, though the problem writes
    back the same file, changes the "ok" record of every problem that
    reads and of no mock config."""
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "COUNT", 30)
    output = tmp_path / "records.json"
    argv = ["run", str(TOOLS.parent), "--output", str(output)]
    assert differential.main(argv) == 0
    before = json.loads(output.read_text())
    read_problem_file = lfalloc.read_problem_file

    def other_models(path):
        problem = read_problem_file(path)
        models = {c: lfalloc.RDModelParams(m.alpha, m.beta, 0.5) for c, m in problem.models.items()}
        object.__setattr__(problem, "models", models)
        return problem

    monkeypatch.setattr(lfalloc, "read_problem_file", other_models)
    assert differential.main(argv) == 0
    after = json.loads(output.read_text())
    read = [r["seed"] for r in before if r["kind"] == "problem" and r["outcome"] == "ok"]
    assert read and [a["seed"] for a, b in zip(before, after) if a != b] == read


def test_ok_digest_covers_the_unified_weights(tmp_path, monkeypatch):
    """A WeightSet whose unified weights are not raw / peak, though every
    file writes back the same, changes the "ok" record of every problem
    and mock config that reads."""
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "COUNT", 50)
    output = tmp_path / "records.json"
    argv = ["run", str(TOOLS.parent), "--output", str(output)]
    assert differential.main(argv) == 0
    before = json.loads(output.read_text())
    halved = property(lambda weights: dict.fromkeys(weights.raw, 0.5))
    monkeypatch.setattr(lfalloc.WeightSet, "unified", halved)
    assert differential.main(argv) == 0
    after = json.loads(output.read_text())
    read = [r["seed"] for r in before if r["outcome"] == "ok"]
    kinds = {r["kind"] for r in before if r["outcome"] == "ok"}
    assert kinds == {"problem", "mock"}
    assert [a["seed"] for a, b in zip(before, after) if a != b] == read


def test_all_zero_weight_mutants_read_as_degenerate_weights_naming_the_file(
    tmp_path, monkeypatch
):
    """The mutants from ZERO_WEIGHTS_FROM on are sound files whose every
    weight is 0 or -0.0; the ones before them do not depend on where they
    start."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = [differential.mutant(seed) for seed in range(6)]
    monkeypatch.setattr(differential, "ZERO_WEIGHTS_FROM", 6)
    monkeypatch.setattr(differential, "COUNT", 18)
    assert [differential.mutant(seed) for seed in range(6)] == before
    weights = set()
    for seed in range(6, 18):
        kind, data = differential.mutant(seed)
        for line in data.decode().splitlines():
            if line.startswith("frame:"):
                fields = line.partition(":")[2].split(",")
                weights.add(fields[2] if kind == "problem" else fields[4])
    assert weights == {"0", "-0.0"}
    output = tmp_path / "records.json"
    assert differential.main(["run", str(TOOLS.parent), "--output", str(output)]) == 0
    zero = json.loads(output.read_text())[6:]
    assert {r["kind"] for r in zero} == {"problem", "mock"}
    assert {r["outcome"] for r in zero} == {"DegenerateWeights"}
    assert all(r["message"].startswith("FILE: ") for r in zero)


@pytest.mark.parametrize("error", ["ParseError", "DegenerateWeights", "InfeasibleBudget"])
def test_run_fails_when_an_input_error_names_no_file(error, tmp_path, monkeypatch, capsys):
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "COUNT", 8)

    def unnamed(path):
        raise getattr(lfalloc, error)("all frame weights are zero")

    monkeypatch.setattr(lfalloc, "read_mock_config", unnamed)
    output = tmp_path / "records.json"
    assert differential.main(["run", str(TOOLS.parent), "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert f"seed 1: {error} names no file: all frame weights are zero" in err
    assert err.endswith("4 of 8 mutants fail\n")


def test_run_fails_when_an_all_zero_weights_mutant_ends_otherwise(
    tmp_path, monkeypatch, capsys
):
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "ZERO_WEIGHTS_FROM", 2)
    monkeypatch.setattr(differential, "COUNT", 6)

    def infeasible(path):
        raise lfalloc.InfeasibleBudget(f"{path}: rate floor exceeds budget")

    monkeypatch.setattr(lfalloc, "read_problem_file", infeasible)
    monkeypatch.setattr(lfalloc, "read_mock_config", infeasible)
    output = tmp_path / "records.json"
    assert differential.main(["run", str(TOOLS.parent), "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert "seed 2: all weights zero, but InfeasibleBudget: FILE: rate floor exceeds budget" in err
    assert err.endswith("4 of 6 mutants fail\n")


def test_other_readers_end_ok_or_in_a_package_error_naming_the_file(tmp_path, monkeypatch):
    """600 mutants of the SSE, curve, samples, weight-map, allocation and
    trace formats, drawn from seed 0 on: the run's gate holds each to a
    value or an LfallocError whose message begins with the file's path,
    and each reader meets both a value and a ParseError."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "CSV_FROM", 0)
    monkeypatch.setattr(differential, "COUNT", 600)
    output = tmp_path / "records.json"
    assert differential.main(["run", str(TOOLS.parent), "--output", str(output)]) == 0
    outcomes = {(r["kind"], r["outcome"]) for r in json.loads(output.read_text())}
    assert outcomes == {(kind, o) for kind in differential.CSV_KINDS for o in ("ok", "ParseError")}
