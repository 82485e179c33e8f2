"""The step-2 sweep's comparison of two runs, on hand-made problem records."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "step2_sweep.py"
SPEC = importlib.util.spec_from_file_location("step2_sweep", PATH)
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)


def record(outcome="converged", p=100.0, kkt_residual=1e-12):
    if outcome == "DegenerateWeights":
        return dict(outcome=outcome, p=None, kkt_residual=None)
    return dict(outcome=outcome, p=p, kkt_residual=kkt_residual)


def test_equal_runs_show_no_transition_or_rise():
    runs = [record(), record("NotConverged", 5.0, 3.0), record("DegenerateWeights")]
    summary = sweep.summarize(runs, runs)
    counts = dict(converged=1, NotConverged=1, DegenerateWeights=1)
    assert summary["parent"] == summary["change"] == counts
    assert summary["transitions"] == []
    assert summary["rises"] == []
    assert "P rises by more than 1e-09 relative on 0 problems" in sweep.format_summary(summary)


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
        record(p=100.0 * (1.0 + 1e-10)),
        record("NotConverged", 101.0, 1e-3),
        record("NotConverged", 60.0, 2.0),
        record(p=99.0),
        record("DegenerateWeights"),
    ]
    summary = sweep.summarize(parent, change)
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
    text = sweep.format_summary(summary)
    assert "converged: 3 -> 3" in text
    assert "NotConverged -> converged: 1" in text
    assert "converged -> NotConverged: 1" in text
    assert "P rises by more than 1e-09 relative on 2 problems" in text
    assert "problem 3: P +2.000e-01 relative (NotConverged -> NotConverged)" in text


def test_runs_over_different_problems_are_refused():
    with pytest.raises(ValueError, match="different problems"):
        sweep.summarize([record()], [record(), record()])
