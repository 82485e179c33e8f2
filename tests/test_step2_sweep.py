"""The step-2 sweep's comparison of two runs and its gate, on hand-made problem records."""

import json
from dataclasses import replace

import pytest

from conftest import load_tool

sweep = load_tool("step2_sweep")


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
    mean = "mean step-2 iterations 4.000 -> 4.000 over the 1 problems both converge on with step 2"
    assert mean in text
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
        dict(parent="NotConverged", change="converged", problems=[0]),
        dict(parent="converged", change="NotConverged", problems=[2]),
    ]
    # A rise below 1e-9 relative is rounding; a fall is no rise.
    assert [(r["problem"], r["parent"], r["change"]) for r in summary["rises"]] == [
        (3, "NotConverged", "NotConverged"),
        (2, "converged", "NotConverged"),
    ]
    assert [r["rise"] for r in summary["rises"]] == pytest.approx([0.2, 0.01])
    # Problems 1 and 4 converge on both sides; only 0, 2 and 3 keep their rates.
    assert summary["stepped_both"] == 2
    assert summary["mean_iterations"] == [4.0, 5.5]
    assert summary["identical_rates"] == 3
    text = sweep.format_summary(sweep.summarize(parent, change))
    assert "converged: 3 -> 3" in text
    assert "NotConverged -> converged: 1 (problem 0)" in text
    assert "converged -> NotConverged: 1 (problem 2)" in text
    assert "P rises by more than 1e-09 relative on 2 problems" in text
    assert "problem 3: P +2.000e-01 relative (NotConverged -> NotConverged)" in text
    mean = "mean step-2 iterations 4.000 -> 5.500 over the 2 problems both converge on with step 2"
    assert mean in text


def test_transitions_name_their_first_problems():
    # Each transition names its problems in order, the first SHOWN_RISES
    # of them.
    parent = [record()] * 12 + [record("NotConverged", 5.0, 3.0)] * 2
    change = [record("NotConverged", 5.0, 3.0)] * 12 + [record()] * 2
    summary = sweep.summarize(parent, change)["sweep"]
    assert summary["transitions"] == [
        dict(parent="NotConverged", change="converged", problems=[12, 13]),
        dict(parent="converged", change="NotConverged", problems=list(range(12))),
    ]
    text = sweep.format_summary({"sweep": summary})
    assert "NotConverged -> converged: 2 (problems 12, 13)\n" in text
    assert "converged -> NotConverged: 12 (problems 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...)\n" in text


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


def test_mean_iterations_skip_problems_step_2_never_ran_on():
    """A problem handed to step 1 records no step-2 iterations; the mean
    is over the problems both converge on and both ran step 2 for."""
    parent = [record(iterations=2), record(iterations=None), record(iterations=6)]
    change = [record(iterations=4), record(iterations=9), record(iterations=None)]
    summary = sweep.summarize(parent, change)["sweep"]
    assert summary["stepped_both"] == 1
    assert summary["mean_iterations"] == [2.0, 4.0]
    text = sweep.format_summary({"sweep": summary})
    mean = "mean step-2 iterations 2.000 -> 4.000 over the 1 problems both converge on with step 2"
    assert mean in text
    none = sweep.summarize(parent[1:2], parent[1:2])["sweep"]
    assert none["stepped_both"] == 0 and none["mean_iterations"] is None
    assert "mean step-2 iterations" not in sweep.format_summary({"sweep": none})


def test_a_problem_step_2_never_ran_on_records_no_iterations():
    """At lambda 0, or where zero weights gate off every pair row,
    solve_step2 hands the problem to solve_step1: no step-2 iterations."""
    import lfalloc
    from test_allocator import coupled_square

    coupled = coupled_square()
    assert sweep.solve(lfalloc, coupled, "sweep")["iterations"] >= 1
    assert sweep.solve(lfalloc, replace(coupled, lam=0.0), "sweep")["iterations"] is None
    raw = dict.fromkeys(coupled.grid.coding_order, 0.0)
    raw[coupled.grid.coding_order[0]] = 1.0
    lone = replace(coupled, weights=lfalloc.unify_weights(raw))
    result = sweep.solve(lfalloc, lone, "sweep")
    assert (result["outcome"], result["iterations"]) == ("converged", None)


def test_no_problem_converging_on_both_sides_prints_no_mean():
    runs = [record("NotConverged", 5.0, 3.0)]
    summary = sweep.summarize(runs, runs)
    assert summary["sweep"]["mean_iterations"] is None
    assert "mean step-2 iterations" not in sweep.format_summary(summary)


def test_problems_differing_in_iterations_or_kkt_residual_are_counted():
    """Each set counts the problems whose step-2 iterations differ and
    those whose kkt_residual differs, whatever their outcome; a problem
    with neither on both sides differs in neither."""
    parent = [
        record(),
        record(iterations=5),
        record(kkt_residual=2e-12),
        record(iterations=6, kkt_residual=3e-12),
        record(iterations=None),
        record("DegenerateWeights"),
        record("NotConverged", 5.0, 3.0, iterations=100),
    ]
    change = [
        record(),
        record(iterations=4),
        record(kkt_residual=1e-12),
        record(iterations=7, kkt_residual=4e-12),
        record(iterations=None),
        record("DegenerateWeights"),
        record(iterations=9),
    ]
    summary = sweep.summarize(parent, change)["sweep"]
    assert summary["iterations_differ"] == 3
    assert summary["kkt_residual_differs"] == 3
    text = sweep.format_summary({"sweep": summary})
    assert "step-2 iterations differ on 3 problems, kkt_residual on 3\n" in text
    same = sweep.format_summary(sweep.summarize(parent, parent))
    assert "step-2 iterations differ on 0 problems, kkt_residual on 0\n" in same


@pytest.mark.parametrize("transition", [False, True])
def test_compare_fails_on_a_transition(tmp_path, capsys, transition):
    """`compare` exits 1 when some problem's outcome differs between the
    runs, and 0 when only rates and kkt_residual differ."""
    parent = [record(), record(set="cone")]
    change = [record(rates="b", kkt_residual=2e-12), record(set="cone")]
    if transition:
        change[1] = record("NotConverged", 5.0, 3.0, set="cone")
    paths = []
    for name, records in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(records))
    assert sweep.main(["compare", *map(str, paths)]) == int(transition)
    out, err = capsys.readouterr()
    assert "cone (1 problems)" in out
    assert err == ("outcomes differ between the two runs\n" if transition else "")


def test_runs_over_different_problems_are_refused():
    with pytest.raises(ValueError, match="different problems"):
        sweep.summarize([record()], [record(), record()])
    with pytest.raises(ValueError, match="different problems"):
        sweep.summarize([record()], [record(set="cone")])


@pytest.mark.parametrize(
    "sweep_failures, cone_failures, fails",
    [(0, 0, False), (2, 0, False), (3, 0, True), (0, 1, True), (2, 1, True)],
)
def test_run_fails_on_too_many_not_converged(
    tmp_path, monkeypatch, capsys, sweep_failures, cone_failures, fails
):
    """`run` writes its records and prints each set's outcome counts, then
    exits 1 and prints the NotConverged count of each set when more than 2
    sweep problems, or any cone problem, end in NotConverged."""
    records = [record("NotConverged", 5.0, 3.0)] * sweep_failures + [record()] * 3
    records += [record("NotConverged", 5.0, 3.0, set="cone")] * cone_failures
    records += [record(set="cone")] * 2
    monkeypatch.setattr(sweep, "run_tree", lambda tree: records)
    output = tmp_path / "records.json"
    code = sweep.main(["run", str(tmp_path), "--output", str(output)])
    assert json.loads(output.read_text()) == records
    out, err = capsys.readouterr()
    assert code == int(fails)
    assert out == (
        f"sweep: 3 converged / {sweep_failures} NotConverged / 0 DegenerateWeights\n"
        f"cone: 2 converged / {cone_failures} NotConverged / 0 DegenerateWeights\n"
    )
    counts = f"sweep {sweep_failures} (at most 2), cone {cone_failures} (at most 0)"
    assert err == (f"NotConverged per set: {counts}\n" if fails else "")
