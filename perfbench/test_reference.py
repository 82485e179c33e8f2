"""Checks on the benchmark's certified reference solver.

    PYTHONPATH=src python3 -m pytest perfbench/test_reference.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from lfalloc import (  # noqa: E402
    AllocationProblem,
    RDModelParams,
    build_cone_penalty,
    penalized_objective,
    solve_step1,
    solve_step2,
    spiral_order,
    unify_weights,
)


def solve(problem: AllocationProblem):
    lp = workloads.linear_problem(problem)
    pairs = reference.Pairs.of(lp)
    r_wf, _ = reference.water_fill(lp, np.zeros(len(lp.w)))
    system = reference.cone_system(lp, pairs, r_wf)
    return lp, system, r_wf, reference.solve_reference(lp, system, r_wf)


def as_vector(problem, rates):
    return np.array([rates[c] for c in problem.grid.coding_order])


@pytest.mark.parametrize("side", [5, 13, 17])
def test_matches_step1_at_zero_lambda(side):
    problem = workloads.make_problem(workloads.stream(7, side), side, 0.0)
    lp, system, _, ref = solve(problem)
    step1 = as_vector(problem, solve_step1(problem).rates)
    np.testing.assert_allclose(ref.rates, step1, rtol=1e-8)
    assert reference.penalized(lp, system, step1) == pytest.approx(ref.p, rel=1e-9)
    assert ref.certificate <= 1e-8


def test_certified_on_every_cone_problem():
    spec = workloads.WORKLOADS["cone"]
    for cls, (side, lam) in enumerate(spec.classes):
        for k in range(spec.problems_per_class):
            problem = workloads.make_problem(workloads.stream(0, 1, cls, k), side, lam)
            _, _, _, ref = solve(problem)
            assert 0.0 <= ref.certificate <= 1e-8, (side, lam, k)


def test_agrees_with_two_by_two_acceptance_fixture():
    # The coupled 2x2 problem that the step-2 lattice oracle certifies.
    grid = spiral_order(2, 2)
    pairs = ((4.46e7, -0.261), (1.96e8, -0.383), (6.93e7, -0.284), (1.0e8, -0.33))
    problem = AllocationProblem(
        grid=grid,
        weights=unify_weights({c: 1.0 for c in grid.coding_order}),
        models={c: RDModelParams(alpha=a, beta=b) for c, (a, b) in zip(grid.coding_order, pairs)},
        budget=4e6,
        lam=5.0,
        min_rate=1e4,
    )
    lp, system, _, ref = solve(problem)
    assert ref.certificate <= 1e-8
    step1 = solve_step1(problem)
    penalty = build_cone_penalty(problem, step1.rates)
    # The reference's linearized system is the library's, row for row.
    np.testing.assert_allclose(system.b, penalty.rhs, rtol=1e-9, atol=1e-9 * np.abs(penalty.rhs).max())
    assert penalized_objective(problem, penalty, ref.rates) == pytest.approx(ref.p, rel=1e-9)
    step2 = solve_step2(problem, step1.rates, penalty)
    assert penalized_objective(problem, penalty, step2.rates) == pytest.approx(ref.p, rel=1e-6)


def test_bound_lies_below_feasible_points():
    problem = workloads.make_problem(workloads.stream(3, 1), 9, 10.0)
    lp, system, r_wf, ref = solve(problem)
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = r_wf * rng.uniform(0.5, 1.5, len(r_wf))
        r = np.maximum(r * lp.budget / r.sum(), lp.min_rate)
        if r.sum() <= lp.budget:
            assert ref.bound <= reference.penalized(lp, system, r)
    assert ref.bound <= ref.p
