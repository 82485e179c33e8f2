"""The parse differential: its comparison of two runs, on hand-made outcome
records, and the gate of its run on a few mutants."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "parse_differential.py"
SPEC = importlib.util.spec_from_file_location("parse_differential", PATH)
differential = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(differential)


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


def test_runs_over_different_mutants_are_refused():
    with pytest.raises(ValueError, match="different mutants"):
        differential.compare(records(*OUTCOMES), records(*OUTCOMES)[:-1])


def test_run_fails_when_a_mutant_ends_outside_the_package_errors(
    tmp_path, monkeypatch, capsys
):
    import lfalloc

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(differential, "COUNT", 8)
    output = tmp_path / "records.json"
    argv = ["run", str(PATH.parent.parent), "--output", str(output)]
    assert differential.main(argv) == 0
    assert capsys.readouterr().err == ""

    def broken_reader(path):
        raise KeyError("width")

    monkeypatch.setattr(lfalloc, "read_mock_config", broken_reader)
    assert differential.main(argv) == 1
    assert "4 of 8 mutants fail" in capsys.readouterr().err
    outcomes = [record["outcome"] for record in json.loads(output.read_text())]
    assert outcomes[1::2] == ["KeyError"] * 4
