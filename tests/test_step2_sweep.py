"""The step-2 sweep's comparison of two runs and its gate, on hand-made problem records."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "step2_sweep.py"
SPEC = importlib.util.spec_from_file_location("step2_sweep", PATH)
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)


def record(outcome="converged", p=100.0, kkt_residual=1e-12, iterations=4, rates="a", set="sweep"):
    if outcome == "DegenerateWeights":
        return dict(set=set, outcome=outcome, p=None, kkt_residual=None, iterations=None, rates=None)
    return dict(
        set=set, outcome=outcome, p=p, kkt_residual=kkt_residual, iterations=iterations, rates=rates
    )


def test_equal_runs_show_no_transition_or_rise():
    runs = [record(), record("NotConverged", 5.0, 3.0), record("DegenerateWeights")]
    summary = sweep.summarize(runs, runs)["sweep"]
    counts = dict(converged=1, NotConverged=1, DegenerateWeights=1)
    assert summary["parent"] == summary["change"] == counts
    assert summary["transitions"] == []
    assert summary["rises"] == []
    assert summary["identical_rates"] == 2
    text = sweep.format_summary(sweep.summarize(runs, runs))
    assert "sweep (3 problems)" in text
    assert "P rises by more than 1e-09 relative on 0 problems" in text
    assert "P moves from +0.0e+00 to +0.0e+00 relative" in text
    assert "mean step-2 iterations 4.000 -> 4.000 over the 1 problems both converge on" in text
    assert "identical rates on 2 problems" in text


def test_transitions_and_rises_largest_first():
    parent = [
        record("NotConverged", 200.0, 5.0),
        record(p=100.0),
        record(p=100.0),
        record("NotConverged", 50.0, 2.0),
        record(p=100.0),
        record("DegenerateWeights"),
    ]
    change = [
        record(p=150.0),
        record(p=100.0 * (1.0 + 1e-10), rates="b"),
        record("NotConverged", 101.0, 1e-3),
        record("NotConverged", 60.0, 2.0),
        record(p=99.0, iterations=7, rates="c"),
        record("DegenerateWeights"),
    ]
    summary = sweep.summarize(parent, change)["sweep"]
    assert summary["parent"] == dict(converged=3, NotConverged=2, DegenerateWeights=1)
    assert summary["change"] == dict(converged=3, NotConverged=2, DegenerateWeights=1)
    assert summary["transitions"] == [
        dict(parent="NotConverged", change="converged", count=1),
        dict(parent="converged", change="NotConverged", count=1),
    ]
    # A rise below 1e-9 relative is rounding; a fall is no rise.
    assert [(r["problem"], r["parent"], r["change"]) for r in summary["rises"]] == [
        (3, "NotConverged", "NotConverged"),
        (2, "converged", "NotConverged"),
    ]
    assert [r["rise"] for r in summary["rises"]] == pytest.approx([0.2, 0.01])
    # Problems 1 and 4 converge on both sides; only 0, 2 and 3 keep their rates.
    assert summary["converged_both"] == 2
    assert summary["mean_iterations"] == [4.0, 5.5]
    assert summary["identical_rates"] == 3
    text = sweep.format_summary(sweep.summarize(parent, change))
    assert "converged: 3 -> 3" in text
    assert "NotConverged -> converged: 1" in text
    assert "converged -> NotConverged: 1" in text
    assert "P rises by more than 1e-09 relative on 2 problems" in text
    assert "problem 3: P +2.000e-01 relative (NotConverged -> NotConverged)" in text
    assert "mean step-2 iterations 4.000 -> 5.500 over the 2 problems both converge on" in text


def test_largest_relative_fall_and_rise_of_p():
    # Rounding-level moves show their size though none counts as a rise.
    parent = [record(p=100.0), record(p=100.0), record(p=100.0), record("DegenerateWeights")]
    change = [
        record(p=100.0 * (1.0 - 4e-13)),
        record(p=100.0 * (1.0 + 3e-11)),
        record(p=100.0 * (1.0 - 1e-13)),
        record("DegenerateWeights"),
    ]
    summary = sweep.summarize(parent, change)["sweep"]
    assert summary["rises"] == []
    assert summary["p_moves"] == pytest.approx([-4e-13, 3e-11], rel=1e-3)
    assert "P moves from -4.0e-13 to +3.0e-11 relative" in sweep.format_summary({"sweep": summary})
    # A set whose P only falls has no rise.
    falls = sweep.summarize(parent[:1], change[:1])["sweep"]
    assert falls["p_moves"][1] == 0.0
    assert "to +0.0e+00 relative" in sweep.format_summary({"sweep": falls})


def test_each_set_is_summarized_on_its_own():
    parent = [record(), record(set="cone"), record(p=10.0, set="cone"), record("DegenerateWeights")]
    change = [record(), record(set="cone"), record(p=20.0, set="cone"), record("DegenerateWeights")]
    summary = sweep.summarize(parent, change)
    assert list(summary) == ["sweep", "cone"]
    assert summary["sweep"]["problems"] == 2
    assert summary["sweep"]["rises"] == []
    # Problem numbers count within their set.
    assert [(r["problem"], r["rise"]) for r in summary["cone"]["rises"]] == [(1, 1.0)]
    text = sweep.format_summary(summary)
    assert text.index("sweep (2 problems)") < text.index("cone (2 problems)")


def test_no_problem_converging_on_both_sides_prints_no_mean():
    runs = [record("NotConverged", 5.0, 3.0)]
    summary = sweep.summarize(runs, runs)
    assert summary["sweep"]["mean_iterations"] is None
    assert "mean step-2 iterations" not in sweep.format_summary(summary)


def test_runs_over_different_problems_are_refused():
    with pytest.raises(ValueError, match="different problems"):
        sweep.summarize([record()], [record(), record()])
    with pytest.raises(ValueError, match="different problems"):
        sweep.summarize([record()], [record(set="cone")])


@pytest.mark.parametrize(
    "sweep_failures, cone_failures, fails",
    [(0, 0, False), (8, 0, False), (9, 0, True), (0, 1, True), (8, 1, True)],
)
def test_run_fails_on_too_many_not_converged(
    tmp_path, monkeypatch, capsys, sweep_failures, cone_failures, fails
):
    """`run` writes its records, then exits 1 and prints the count of each
    set when more than 8 sweep problems, or any cone problem, end in
    NotConverged."""
    records = [record("NotConverged", 5.0, 3.0)] * sweep_failures + [record()] * 3
    records += [record("NotConverged", 5.0, 3.0, set="cone")] * cone_failures
    records += [record(set="cone")] * 2
    monkeypatch.setattr(sweep, "run_tree", lambda tree: records)
    output = tmp_path / "records.json"
    code = sweep.main(["run", str(tmp_path), "--output", str(output)])
    assert json.loads(output.read_text()) == records
    err = capsys.readouterr().err
    assert code == int(fails)
    counts = f"sweep {sweep_failures} (at most 8), cone {cone_failures} (at most 0)"
    assert err == (f"NotConverged per set: {counts}\n" if fails else "")
