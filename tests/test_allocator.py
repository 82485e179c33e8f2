"""Projection, water-filling, cone penalty, and the two-step allocator."""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfalloc
from conftest import REFERENCE_PAIRS, load_tool
from lfalloc import (
    AllocationProblem,
    DegenerateWeights,
    DistortionSet,
    DomainError,
    FrameCoord,
    IncompleteInput,
    InfeasibleBudget,
    NotConverged,
    ParseError,
    RDModelParams,
    allocate,
    build_cone_penalty,
    cost,
    eval_model,
    evaluate_cost,
    penalized_objective,
    project_rates,
    proximity,
    read_allocation_file,
    read_problem_file,
    solve_step1,
    solve_step2,
    spiral_order,
    unify_weights,
    write_allocation_file,
    write_problem_file,
)
from lfalloc import allocator

sweep = load_tool("step2_sweep")


def line_problem(pairs, budget, lam=0.0, weights=None, min_rate=None):
    """Problem over a 1-row grid; frame index follows the u coordinate."""
    n = len(pairs)
    grid = spiral_order(n, 1)
    if weights is None:
        weights = {FrameCoord(u, 0): 1.0 for u in range(n)}
    models = {
        FrameCoord(u, 0): RDModelParams(alpha=a, beta=b)
        for u, (a, b) in enumerate(pairs)
    }
    return AllocationProblem(
        grid=grid,
        weights=unify_weights(weights),
        models=models,
        budget=budget,
        lam=lam,
        min_rate=min_rate,
    )


def square_problem(pairs, budget, lam, min_rate=None):
    """2x2 problem; models follow the coding order."""
    grid = spiral_order(2, 2)
    models = {c: RDModelParams(alpha=a, beta=b) for c, (a, b) in zip(grid.coding_order, pairs)}
    weights = unify_weights({c: 1.0 for c in grid.coding_order})
    return AllocationProblem(
        grid=grid, weights=weights, models=models, budget=budget, lam=lam, min_rate=min_rate
    )


def coupled_square():
    pairs = REFERENCE_PAIRS + ((1.0e8, -0.33),)
    return square_problem(pairs, budget=4e6, lam=5.0, min_rate=1e4)


def sparse_problem(width, height, budget, lam, min_rate, frames):
    """Spiral-order problem where only the frames given as
    {(u, v): (weight, alpha, beta)} carry weight; every other frame has
    weight 0 and the model (1e7, -0.3)."""
    grid = spiral_order(width, height)
    weights = dict.fromkeys(grid.coding_order, 0.0)
    models = dict.fromkeys(grid.coding_order, RDModelParams(alpha=1e7, beta=-0.3))
    for (u, v), (weight, alpha, beta) in frames.items():
        weights[FrameCoord(u, v)] = weight
        models[FrameCoord(u, v)] = RDModelParams(alpha=alpha, beta=beta)
    return AllocationProblem(
        grid=grid,
        weights=unify_weights(weights),
        models=models,
        budget=budget,
        lam=lam,
        min_rate=min_rate,
    )


def recipe_problem(rng, width, height, lam, min_rate=None):
    """Problem drawn from rng on the benchmark recipe: per frame alpha
    10^U(7.5, 8.5), beta U(-0.45, -0.22), raw weight U(0.2, 1), and 1e6
    bits of budget per frame."""
    grid = spiral_order(width, height)
    n = grid.n_frames
    alpha = 10.0 ** rng.uniform(7.5, 8.5, n)
    beta = rng.uniform(-0.45, -0.22, n)
    raw = rng.uniform(0.2, 1.0, n)
    return AllocationProblem(
        grid=grid,
        weights=unify_weights(dict(zip(grid.coding_order, raw.tolist()))),
        models={
            c: RDModelParams(alpha=a, beta=b)
            for c, a, b in zip(grid.coding_order, alpha.tolist(), beta.tolist())
        },
        budget=1e6 * n,
        lam=lam,
        min_rate=min_rate,
    )


def sweep_problem(index):
    """Problem index of the step-2 sweep (tools/step2_sweep.py)."""
    rng = np.random.default_rng(sweep.SEED)
    for _ in range(index):
        try:
            sweep.draw_problem(lfalloc, rng)
        except DegenerateWeights:
            pass
    return sweep.draw_problem(lfalloc, rng)


# The sweep problems whose step 2 stops at a zero residual that the dual
# certificate proves optimal, over coupled groups that zero weights split.
CERTIFIED_KINKS = (1696, 1971, 2150, 2727, 3474, 3661)


def unit_scaled(problem, sse=1.0, rate=1.0):
    """problem with SSE counted in units sse times smaller and rates in
    units rate times smaller: every alpha times sse * rate^-beta, and the
    budget and floor times rate."""
    coords, alpha, beta = problem.grid.coding_order, problem.alpha.tolist(), problem.beta.tolist()
    return replace(
        problem,
        models={c: RDModelParams(sse * a * rate**-b, b) for c, a, b in zip(coords, alpha, beta)},
        budget=problem.budget * rate,
        min_rate=problem.min_rate * rate,
    )


def wide_step1_problem(index):
    """Problem index of a lambda-0 recipe far wider than the benchmark's,
    drawn from default_rng(5) in this order: width and height from 1 to
    6; beta U(lo, -0.05) per frame, with lo one of -0.45, -1.5, -4 and
    -20; alpha 10^U(-2, 12); raw weight U(0, 1), zero with probability
    0.2; budget 1e6 n 10^U(-3, 3); floor U(1e-4, 0.9) x budget / n."""
    rng = np.random.default_rng(5)
    for _ in range(index + 1):
        width, height = (int(x) for x in rng.integers(1, 7, 2))
        n = width * height
        beta = rng.uniform(float(rng.choice([-0.45, -1.5, -4.0, -20.0])), -0.05, n)
        alpha = 10.0 ** rng.uniform(-2.0, 12.0, n)
        raw = rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) >= 0.2)
        budget = 1e6 * n * 10.0 ** rng.uniform(-3.0, 3.0)
        floor = rng.uniform(1e-4, 0.9) * budget / n
    grid = spiral_order(width, height)
    coords = grid.coding_order
    return AllocationProblem(
        grid=grid,
        weights=unify_weights(dict(zip(coords, raw.tolist()))),
        models={c: RDModelParams(a, b) for c, a, b in zip(coords, alpha.tolist(), beta.tolist())},
        budget=budget,
        min_rate=floor,
    )


def pair_residual(penalty, rates):
    """A r + b, row by row from the penalty's pair arrays."""
    left = penalty.coef_i * rates[penalty.col_i]
    return left + penalty.coef_j * rates[penalty.col_j] + penalty.rhs


def bisect_projection(values, budget, floor):
    """Reference projection via bisection on the common shift."""
    shifted = values - floor
    slack = budget - floor * values.size
    if slack <= 0.0:
        return np.full(values.size, floor)
    if np.maximum(shifted, 0.0).sum() <= slack:
        return np.maximum(shifted, 0.0) + floor
    lo, hi = 0.0, float(np.max(shifted))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(shifted - mid, 0.0).sum() > slack:
            lo = mid
        else:
            hi = mid
    return np.maximum(shifted - hi, 0.0) + floor


class TestAllocationProblem:
    """Validation and defaulting on the problem container."""

    def test_default_floor_scales_with_budget(self):
        problem = line_problem(REFERENCE_PAIRS, budget=3e6)
        assert problem.min_rate == pytest.approx(3e6 * 1e-3 / 3, rel=1e-12)

    def test_infeasible_floor(self):
        with pytest.raises(InfeasibleBudget):
            line_problem(REFERENCE_PAIRS, budget=3e6, min_rate=1.5e6)

    def test_missing_model(self):
        grid = spiral_order(2, 1)
        weights = unify_weights({c: 1.0 for c in grid.coding_order})
        models = {grid.coding_order[0]: RDModelParams(alpha=1e7, beta=-0.3)}
        with pytest.raises(IncompleteInput, match=r"models missing for frame \(0,0\)"):
            AllocationProblem(grid=grid, weights=weights, models=models, budget=1e6)

    def test_missing_weight(self):
        grid = spiral_order(2, 1)
        weights = unify_weights({grid.coding_order[0]: 1.0})
        models = {c: RDModelParams(alpha=1e7, beta=-0.3) for c in grid.coding_order}
        with pytest.raises(IncompleteInput, match=r"weights missing for frame \(0,0\)"):
            AllocationProblem(grid=grid, weights=weights, models=models, budget=1e6)

    def test_weight_off_the_grid(self):
        # Unified over every raw weight, the extra frame's weight would
        # rescale all four weights on the grid.
        grid = spiral_order(2, 2)
        raw = {c: 1.0 for c in grid.coding_order} | {FrameCoord(9, 9): 4.0}
        models = {c: RDModelParams(alpha=1e8, beta=-0.3) for c in grid.coding_order}
        with pytest.raises(IncompleteInput, match=r"^weights given for frame \(9,9\) off the grid$"):
            AllocationProblem(grid, unify_weights(raw), models, budget=4e6, lam=50.0)

    def test_tables_read_once(self):
        problem = line_problem(REFERENCE_PAIRS, budget=3e6)
        before = solve_step1(problem).rates
        for c in problem.grid.coding_order:
            problem.models[c] = RDModelParams(alpha=1.0, beta=-1.0)
            problem.weights.unified[c] = 0.5
        assert solve_step1(problem).rates == before

    def test_cost_reads_the_problems_own_weights(self):
        problem = line_problem(REFERENCE_PAIRS, budget=3e6, lam=10.0)
        before = allocate(problem)
        for c in problem.grid.coding_order:
            problem.weights.unified[c] = 0.5
        del problem.weights.unified[problem.grid.coding_order[-1]]
        after = allocate(problem)
        assert after.rates == before.rates
        assert after.objective == before.objective

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError):
            line_problem(REFERENCE_PAIRS, budget=0.0)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            line_problem(REFERENCE_PAIRS, budget=1e6, lam=-1.0)

    def test_nonpositive_floor(self):
        with pytest.raises(ValueError):
            line_problem(REFERENCE_PAIRS, budget=1e6, min_rate=-5.0)


class TestProjectRates:
    """Euclidean projection onto the budgeted box."""

    def test_feasible_point_kept(self):
        out = project_rates(np.array([2.0, 3.0, 4.0]), budget=10.0, min_rate=1.0)
        assert out.tolist() == [2.0, 3.0, 4.0]

    def test_floor_clipping_without_budget_pressure(self):
        out = project_rates(np.array([-5.0, 3.0]), budget=100.0, min_rate=1.0)
        assert out.tolist() == [1.0, 3.0]

    def test_tight_budget_returns_all_floor(self):
        out = project_rates(np.array([9.0, 9.0]), budget=2.0, min_rate=1.0)
        assert out.tolist() == [1.0, 1.0]

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            budget = 10.0
            floor = 0.05
            values = rng.uniform(-budget, 2.0 * budget, n)
            fast = project_rates(values, budget, floor)
            slow = bisect_projection(values, budget, floor)
            assert np.allclose(fast, slow, atol=1e-8 * budget)

    def test_closest_feasible_point(self):
        rng = np.random.default_rng(8)
        n, budget, floor = 6, 12.0, 0.25
        values = rng.uniform(-budget, 2.0 * budget, n)
        projected = project_rates(values, budget, floor)
        base = float(np.linalg.norm(values - projected))
        slack = budget - floor * n
        for _ in range(300):
            candidate = floor + rng.dirichlet(np.ones(n)) * slack * rng.uniform(0.0, 1.0)
            assert base <= float(np.linalg.norm(values - candidate)) + 1e-9

    def test_value_that_dwarfs_the_slack_takes_it_all(self):
        # Rounding leaves the sort rule no support here; the largest value
        # is always in it.
        out = project_rates(np.array([1e300, 1.0, 2.0]), 3e6, 1.0)
        assert out.tolist() == [3e6 - 2.0, 1.0, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(-5.0, 25.0, 8)
        once = project_rates(values, budget=20.0, min_rate=0.5)
        twice = project_rates(once, budget=20.0, min_rate=0.5)
        assert np.allclose(once, twice, rtol=1e-12, atol=0.0)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            values = rng.uniform(-50.0, 50.0, int(rng.integers(1, 9)))
            out = project_rates(values, budget=7.0, min_rate=0.1)
            assert float(out.min()) >= 0.1
            assert float(out.sum()) <= 7.0 * (1.0 + 1e-12)


class TestSolveStep1:
    """Water-filling over the separable weighted distortion."""

    def test_single_frame_takes_whole_budget(self):
        result = solve_step1(line_problem(REFERENCE_PAIRS[:1], budget=2e6))
        assert result.rates[FrameCoord(0, 0)] == pytest.approx(2e6, rel=1e-10)

    def test_identical_frames_split_evenly(self):
        result = solve_step1(line_problem((REFERENCE_PAIRS[0],) * 2, budget=2e6))
        for rate in result.rates.values():
            assert rate == pytest.approx(1e6, rel=1e-8)

    def test_budget_saturated(self):
        result = solve_step1(line_problem(REFERENCE_PAIRS, budget=3e6))
        assert result.budget_used == pytest.approx(3e6, rel=1e-9)

    def test_marginals_agree(self):
        problem = line_problem(REFERENCE_PAIRS, budget=3e6)
        result = solve_step1(problem)
        marginals = []
        for c in problem.grid.coding_order:
            m = problem.models[c]
            w = problem.weights.unified[c]
            r = result.rates[c]
            marginals.append(w * w * m.alpha * abs(m.beta) * r ** (m.beta - 1.0))
        spread = (max(marginals) - min(marginals)) / max(marginals)
        assert spread <= 2e-6
        assert result.kkt_residual < 1e-6

    def test_monotone_in_budget(self):
        lean = solve_step1(line_problem(REFERENCE_PAIRS, budget=3e6))
        rich = solve_step1(line_problem(REFERENCE_PAIRS, budget=6e6))
        for c in lean.rates:
            assert rich.rates[c] > lean.rates[c]

    def test_heavier_weight_earns_more_rate(self):
        pairs = (REFERENCE_PAIRS[0],) * 2
        weights = {FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 0.5}
        result = solve_step1(line_problem(pairs, budget=2e6, weights=weights))
        assert result.rates[FrameCoord(0, 0)] > result.rates[FrameCoord(1, 0)]

    def test_zero_weight_frame_pinned_to_floor(self):
        pairs = (REFERENCE_PAIRS[0],) * 2
        weights = {FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 0.0}
        problem = line_problem(pairs, budget=2e6, weights=weights, min_rate=1e3)
        result = solve_step1(problem)
        assert result.rates[FrameCoord(1, 0)] == 1e3

    def test_power_of_two_alpha_scaling_changes_nothing(self):
        base = line_problem(REFERENCE_PAIRS, budget=3e6)
        scaled = line_problem(
            tuple((4.0 * a, b) for a, b in REFERENCE_PAIRS), budget=3e6
        )
        assert solve_step1(base).rates == solve_step1(scaled).rates

    def test_general_alpha_scaling_is_stable(self):
        base = line_problem(REFERENCE_PAIRS, budget=3e6)
        scaled = line_problem(
            tuple((3.7 * a, b) for a, b in REFERENCE_PAIRS), budget=3e6
        )
        for c, rate in solve_step1(base).rates.items():
            assert solve_step1(scaled).rates[c] == pytest.approx(rate, rel=1e-9)

    def test_random_problems_satisfy_kkt(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 17))
            grid = spiral_order(n, 1)
            raw = {c: float(w) for c, w in zip(grid.coding_order, rng.uniform(0.05, 1.0, n))}
            models = {
                c: RDModelParams(
                    alpha=float(10.0 ** rng.uniform(6.0, 9.0)),
                    beta=float(rng.uniform(-0.6, -0.1)),
                )
                for c in grid.coding_order
            }
            problem = AllocationProblem(
                grid=grid,
                weights=unify_weights(raw),
                models=models,
                budget=n * float(10.0 ** rng.uniform(5.0, 6.3)),
            )
            result = solve_step1(problem)
            assert result.kkt_residual < 1e-6
            assert result.budget_used == pytest.approx(problem.budget, rel=1e-9)

    def test_recipe_budget_met_in_few_rate_evaluations(self):
        """17x17 problems of the benchmark recipe: alpha 10^U(7.5, 8.5), beta
        U(-0.45, -0.22), raw weight U(0.2, 1), 1e6 bits per frame. The
        Newton steps meet the budget to 1e-10 within 10 evaluations of the
        rates, and from below: no split spends more than rounding over it."""
        rng = np.random.default_rng(17)
        grid = spiral_order(17, 17)
        n = grid.n_frames
        for _ in range(12):
            alpha = 10.0 ** rng.uniform(7.5, 8.5, n)
            beta = rng.uniform(-0.45, -0.22, n)
            raw = rng.uniform(0.2, 1.0, n)
            problem = AllocationProblem(
                grid=grid,
                weights=unify_weights(dict(zip(grid.coding_order, raw.tolist()))),
                models={
                    c: RDModelParams(a, b)
                    for c, a, b in zip(grid.coding_order, alpha.tolist(), beta.tolist())
                },
                budget=1e6 * n,
            )
            result = solve_step1(problem)
            assert result.iterations <= 10
            assert abs(result.budget_used - problem.budget) < 1e-10 * problem.budget
            assert result.budget_used <= problem.budget * (1.0 + 1e-13)

    def test_a_newton_step_outside_the_bracket_gives_way_to_its_midpoint(self):
        """Draw 1847 of wide_step1_problem, a 3x3 grid whose floor holds
        0.875 of the even share. Its Newton steps on mu leave the bracket;
        taken as they are, step 1 stops at its 200-iteration cap 12% off
        the budget, with kkt_residual 0. The bracket's midpoint meets the
        budget in 6 iterations."""
        problem = wide_step1_problem(1847)
        assert problem.grid.n_frames == 9
        result = solve_step1(problem)
        assert abs(result.budget_used - problem.budget) < 1e-10 * problem.budget
        assert result.iterations <= 10


class TestConePenalty:
    """Linearized consistency system around an expansion point."""

    def test_adjacent_pair_rows(self):
        grid = spiral_order(2, 1)
        c0, c1 = grid.coding_order
        m0 = RDModelParams(alpha=4.46e7, beta=-0.261)
        m1 = RDModelParams(alpha=6.93e7, beta=-0.284)
        problem = AllocationProblem(
            grid=grid,
            weights=unify_weights({c0: 1.0, c1: 1.0}),
            models={c0: m0, c1: m1},
            budget=1.4e6,
            lam=5.0,
        )
        penalty = build_cone_penalty(problem, {c0: 8e5, c1: 6e5})
        assert len(penalty.rhs) == 2
        root2 = math.sqrt(2.0)
        slope0 = m0.alpha * m0.beta * 8e5 ** (m0.beta - 1.0)
        slope1 = m1.alpha * m1.beta * 6e5 ** (m1.beta - 1.0)
        icept0 = m0.alpha * (1.0 - m0.beta) * 8e5 ** m0.beta
        icept1 = m1.alpha * (1.0 - m1.beta) * 6e5 ** m1.beta
        assert (penalty.col_i[0], penalty.col_j[0]) == (0, 1)
        assert penalty.coef_i[0] == pytest.approx(root2 * slope0, rel=1e-14)
        assert penalty.coef_j[0] == pytest.approx(-root2 * slope1, rel=1e-14)
        assert penalty.rhs[0] == pytest.approx(root2 * (icept0 - icept1), rel=1e-14)
        assert (penalty.col_i[1], penalty.col_j[1]) == (1, 0)
        assert penalty.coef_i[1] == pytest.approx(root2 * slope1, rel=1e-14)
        assert penalty.coef_j[1] == pytest.approx(-root2 * slope0, rel=1e-14)

    def test_rows_follow_proximity_gating(self):
        problem = line_problem((REFERENCE_PAIRS[0],) * 5, budget=5e6)
        coords = problem.grid.coding_order
        penalty = build_cone_penalty(problem, {c: 1e6 for c in coords})
        expected = {
            (i, j)
            for i in range(5)
            for j in range(5)
            if i != j and proximity(coords[i], coords[j]) > 0.0
        }
        stored = list(zip(penalty.col_i.tolist(), penalty.col_j.tolist()))
        assert set(stored) == expected
        assert len(stored) == 14
        assert stored == sorted(stored)  # row-major pair order
        assert all(i != j for i, j in stored)

    def test_tangency_matches_model_gaps(self):
        rng = np.random.default_rng(2)
        grid = spiral_order(2, 3)
        coords = grid.coding_order
        weights = unify_weights(
            {c: float(w) for c, w in zip(coords, rng.uniform(0.3, 1.0, 6))}
        )
        models = {
            c: RDModelParams(
                alpha=float(10.0 ** rng.uniform(7.0, 8.5)),
                beta=float(rng.uniform(-0.4, -0.2)),
            )
            for c in coords
        }
        problem = AllocationProblem(
            grid=grid, weights=weights, models=models, budget=6e6, lam=5.0
        )
        rates = {c: float(r) for c, r in zip(coords, rng.uniform(5e5, 1.5e6, 6))}
        penalty = build_cone_penalty(problem, rates)
        residual = pair_residual(penalty, np.array([rates[c] for c in coords]))
        for value, i, j in zip(residual, penalty.col_i, penalty.col_j):
            ci, cj = coords[i], coords[j]
            scale = math.sqrt(proximity(ci, cj)) * min(
                weights.unified[ci], weights.unified[cj]
            )
            gap = eval_model(models[ci], rates[ci]) - eval_model(models[cj], rates[cj])
            assert value == pytest.approx(scale * gap, rel=1e-10, abs=1e-10)

    def test_squared_norm_recovers_consistency_at_tangency(self):
        problem = coupled_square()
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        vec = np.array([step1.rates[c] for c in problem.grid.coding_order])
        norm_sq = float(pair_residual(penalty, vec) @ pair_residual(penalty, vec))
        sse = {c: eval_model(problem.models[c], r) for c, r in step1.rates.items()}
        reference = cost(problem.grid, problem.weights, DistortionSet(sse), 0.0).discontinuity
        assert norm_sq == pytest.approx(reference, rel=1e-10)

    def test_keeps_a_read_only_copy_of_the_expansion_point(self):
        problem = coupled_square()
        rates = np.full(4, 1e6)
        penalty = build_cone_penalty(problem, rates)
        rates[0] = 2e6
        assert penalty.expansion.tolist() == [1e6] * 4
        assert penalty.n_frames == 4
        with pytest.raises(ValueError, match="read-only"):
            penalty.expansion[0] = 0.0

    def test_nonpositive_expansion_rate(self):
        problem = line_problem(REFERENCE_PAIRS[:2], budget=2e6)
        with pytest.raises(DomainError):
            build_cone_penalty(problem, {c: 0.0 for c in problem.grid.coding_order})


class TestSolveStep2:
    """Newton refinement of the linearized objective."""

    def test_zero_lambda_returns_warm_start(self):
        problem = line_problem(REFERENCE_PAIRS, budget=3e6, lam=0.0)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        result = solve_step2(problem, step1.rates, penalty)
        before = penalized_objective(problem, penalty, step1.rates)
        after = penalized_objective(problem, penalty, result.rates)
        assert after == pytest.approx(before, rel=1e-10)
        for c, rate in step1.rates.items():
            assert result.rates[c] == pytest.approx(rate, rel=1e-9)

    def test_identical_pair_stays_symmetric(self):
        problem = line_problem((REFERENCE_PAIRS[0],) * 2, budget=2e6, lam=5.0)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        result = solve_step2(problem, step1.rates, penalty)
        c0, c1 = problem.grid.coding_order
        assert result.rates[c0] == result.rates[c1]
        residual = pair_residual(
            penalty, np.array([result.rates[c] for c in problem.grid.coding_order])
        )
        assert float(np.linalg.norm(residual)) == 0.0

    def test_never_climbs_above_warm_start(self):
        problem = coupled_square()
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        result = solve_step2(problem, step1.rates, penalty)
        before = penalized_objective(problem, penalty, step1.rates)
        after = penalized_objective(problem, penalty, result.rates)
        assert after <= before * (1.0 + 1e-12)

    def test_reduces_linearized_objective_materially(self):
        problem = coupled_square()
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        result = solve_step2(problem, step1.rates, penalty)
        before = penalized_objective(problem, penalty, step1.rates)
        after = penalized_objective(problem, penalty, result.rates)
        assert after < 0.9 * before

    def test_result_feasible(self):
        problem = coupled_square()
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        result = solve_step2(problem, step1.rates, penalty)
        rates = np.array(list(result.rates.values()))
        assert float(rates.min()) >= problem.min_rate
        assert float(rates.sum()) <= problem.budget * (1.0 + 1e-10)
        assert result.kkt_residual >= 0.0
        assert result.iterations >= 1

    @pytest.mark.parametrize("index, shape", [(26, (1, 2)), (120, (1, 1))])
    def test_no_surviving_pair_row_returns_the_split(self, index, shape):
        # Step-2 sweep problems 26 (one zero weight, lambda about 3.4e3)
        # and 120 (one frame, lambda about 394) have no pair row past the
        # weight gate, so P is the weighted distortion and the step-1 split
        # is its minimum, returned as it is.
        problem = sweep_problem(index)
        assert (problem.grid.width, problem.grid.height) == shape
        split = solve_step1(problem)
        penalty = build_cone_penalty(problem, split.rates)
        assert not np.any(penalty.coef_i)
        assert solve_step2(problem, split.rates, penalty).rates == split.rates
        assert allocate(problem).rates == split.rates

    def test_leaves_a_zero_residual_start_that_is_not_optimal(self, monkeypatch):
        # The norm's kink, where every tangent takes one value, has a lower
        # P than the step-1 split from lambda 0.158 on, and the certificate
        # proves it optimal from lambda 0.399 on. In between, a start there
        # is the lower start but not optimal, so it gives way to the
        # penalty's expansion point, the split, with no step-1 solve, and
        # ends where the split start does.
        problem = replace(coupled_square(), lam=0.2)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        slopes, intercepts = penalty.slopes, penalty.intercepts
        level = (problem.budget + np.sum(intercepts / slopes)) / np.sum(1.0 / slopes)
        kink = (level - intercepts) / slopes
        residual = pair_residual(penalty, kink)
        assert float(np.linalg.norm(residual)) <= 1e-9 * np.abs(penalty.rhs).max()
        p_kink = penalized_objective(problem, penalty, kink)
        assert p_kink < penalized_objective(problem, penalty, step1.rates)
        from_step1 = solve_step2(problem, step1.rates, penalty)

        def no_step1(problem):
            raise AssertionError("step 2 solved step 1 again")

        monkeypatch.setattr(allocator, "solve_step1", no_step1)
        from_kink = solve_step2(problem, kink, penalty)
        assert penalized_objective(problem, penalty, from_kink.rates) < p_kink
        assert from_kink.rates == from_step1.rates
        assert from_kink.iterations == from_step1.iterations

    def test_start_is_the_lowest_certified_candidate(self, monkeypatch):
        # Zero weights split this mirror-symmetric 6x1 line into the coupled
        # groups {0, 1} and {4, 5} by u. The warm start is a zero residual
        # with the left group's tangent level 5% above the level both
        # groups share at the zero-residual point: its P is below the
        # split's, but the certificate does not prove it optimal. The zero-residual point, with one level for both groups,
        # is lower still and proved optimal, so step 2 starts there; with
        # every P tied it keeps the expansion point, the split.
        a, b = (0.8, 6e7, -0.3), (0.5, 1.5e8, -0.4)
        frames = {(0, 0): a, (1, 0): b, (4, 0): b, (5, 0): a}
        problem = sparse_problem(6, 1, 6e6, 100.0, 1e4, frames)
        split = np.array(list(solve_step1(problem).rates.values()))
        penalty = build_cone_penalty(problem, split)
        slopes, intercepts = penalty.slopes, penalty.intercepts
        u = np.array([c.u for c in problem.grid.coding_order])
        weighted = problem.w > 0.0
        left, right = weighted & (u < 3), weighted & (u > 3)

        def level(frames, spend):
            """The tangent level at which frames spend spend."""
            shares = np.sum(1.0 / slopes[frames])
            return (spend + np.sum(intercepts[frames] / slopes[frames])) / shares

        spend = problem.budget - problem.min_rate * np.count_nonzero(~weighted)
        kink = np.full(6, problem.min_rate)
        kink[weighted] = (level(weighted, spend) - intercepts[weighted]) / slopes[weighted]
        warm = np.full(6, problem.min_rate)
        warm[left] = (1.05 * level(weighted, spend) - intercepts[left]) / slopes[left]
        right_level = level(right, spend - warm[left].sum())
        warm[right] = (right_level - intercepts[right]) / slopes[right]
        assert np.linalg.norm(pair_residual(penalty, warm)) <= 1e-9 * np.abs(penalty.rhs).max()
        p_split, p_warm, p_kink = (
            penalized_objective(problem, penalty, r) for r in (split, warm, kink)
        )
        assert p_kink < p_warm < p_split

        # Started at the warm start alone, step 2 finds it uncertified.
        with monkeypatch.context() as alone:
            alone.setattr(allocator, "_zero_residual_point", lambda *args: None)
            with pytest.raises(NotConverged, match="uncertified zero residual after 1 "):
                solve_step2(problem, warm, replace(penalty, expansion=warm))
        result = solve_step2(problem, warm, penalty)
        assert result.iterations == 1
        assert list(result.rates.values()) == pytest.approx(kink, rel=1e-12)

        # With no iteration, the result is the start.
        monkeypatch.setattr(allocator, "STEP2_MAX_ITERATIONS", 0)
        with pytest.raises(NotConverged) as started:
            solve_step2(problem, warm, penalty)
        assert list(started.value.result.rates.values()) == pytest.approx(kink, rel=1e-12)
        evaluate = allocator._evaluate
        monkeypatch.setattr(
            allocator, "_evaluate", lambda *args: evaluate(*args)._replace(value=1.0)
        )
        with pytest.raises(NotConverged) as tied:
            solve_step2(problem, warm, penalty)
        assert list(tied.value.result.rates.values()) == pytest.approx(split, rel=1e-12)

    def test_iteration_cap_raises_with_best_iterate(self, monkeypatch):
        # With a small lambda the optimum is off the kink, so two Newton
        # iterations do not reach it.
        problem = replace(coupled_square(), lam=0.01)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        monkeypatch.setattr(allocator, "STEP2_MAX_ITERATIONS", 2)
        with pytest.raises(NotConverged, match="iteration cap") as err:
            solve_step2(problem, step1.rates, penalty)
        carried = err.value.result
        assert carried is not None
        before = penalized_objective(problem, penalty, step1.rates)
        after = penalized_objective(problem, penalty, carried.rates)
        assert after <= before * (1.0 + 1e-12)
        rates = np.array(list(carried.rates.values()))
        assert float(rates.min()) >= problem.min_rate
        assert float(rates.sum()) <= problem.budget * (1.0 + 1e-10)

    @pytest.mark.parametrize(
        "setting, value, converged",
        [("STEP2_TOL", -1.0, True), ("MIN_RATE_RATIO", 1.0, False)],
        ids=["no decrement stop", "no frame may fall"],
    )
    def test_line_search_stop_converges_by_kkt_tolerance(
        self, monkeypatch, caplog, setting, value, converged
    ):
        # A negative STEP2_TOL sends every step to the line search, which
        # runs until it finds no decrease, at the optimum. With
        # MIN_RATE_RATIO 1 no frame may fall, so no step on the face moves
        # and the line search finds no decrease at the split.
        problem = replace(coupled_square(), lam=0.01)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        monkeypatch.setattr(allocator, setting, value)
        with caplog.at_level("DEBUG", logger="lfalloc.allocator"):
            try:
                result = solve_step2(problem, step1.rates, penalty)
            except NotConverged as exc:
                assert not converged
                result = exc.result
        assert "stopped by line search" in caplog.text
        assert (result.kkt_residual <= allocator.KKT_TOLERANCE) == converged
        assert result.budget_used == pytest.approx(problem.budget, rel=1e-12)

    def test_singular_newton_system_raises_with_last_iterate(self, monkeypatch):
        # The third Newton system fails to solve: step 2 stops there and
        # carries the iterate two steps reach, as the iteration cap does.
        problem = replace(coupled_square(), lam=0.01)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        monkeypatch.setattr(allocator, "STEP2_MAX_ITERATIONS", 2)
        with pytest.raises(NotConverged, match="iteration cap") as capped:
            solve_step2(problem, step1.rates, penalty)
        monkeypatch.undo()
        solve, solves = np.linalg.solve, []

        def fails_third(a, b):
            solves.append(b)
            if len(solves) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", fails_third)
        with pytest.raises(NotConverged, match="singular Newton system after 3 ") as singular:
            solve_step2(problem, step1.rates, penalty)
        assert singular.value.result.rates == capped.value.result.rates
        assert singular.value.result.rates != step1.rates


    @staticmethod
    def floor_split_problem():
        """Step 1 gives all the slack to frame (1,0) and leaves the other two
        on the floor; the optimum gives all the slack to frame (2,0)."""
        return sparse_problem(3, 1, 3e6, 993042.6579482057, 847219.218527628, {
            (1, 0): (0.7189246880062344, 842747405.1611978, -0.2678738862200973),
            (2, 0): (0.2715732607633288, 673010472.2322755, -0.13642929569670664),
            (0, 0): (0.275897682424718, 262939049.34606063, -0.47982545959878986),
        })

    def test_floor_frame_that_should_rise_counts_in_kkt_residual(self, monkeypatch):
        # At the step-1 split one frame is free and the two on the floor have
        # marginals above mu: they should rise, so the point is not optimal.
        problem = self.floor_split_problem()
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        monkeypatch.setattr(allocator, "STEP2_MAX_ITERATIONS", 0)
        with pytest.raises(NotConverged) as err:
            solve_step2(problem, step1.rates, penalty)
        assert err.value.result.rates == step1.rates
        assert err.value.result.kkt_residual > 1.0

    def test_floor_release_reaches_the_face_optimum(self):
        # At the step-1 split frames (2,0) and (0,0) sit on the floor with
        # negative multipliers. The step that frees both lowers (0,0), so
        # only (2,0) is released, and it takes all the slack.
        problem = self.floor_split_problem()
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        result = solve_step2(problem, step1.rates, penalty)
        p = penalized_objective(problem, penalty, result.rates)

        # Every point of a 200-step lattice over the budget face.
        floor, steps = problem.min_rate, 200
        slack = problem.budget - 3 * floor
        lattice = [
            np.array([i, j, steps - i - j]) * (slack / steps) + floor
            for i in range(steps + 1)
            for j in range(steps + 1 - i)
        ]
        oracle = min(penalized_objective(problem, penalty, r) for r in lattice)
        assert p <= oracle * (1.0 + 1e-9)

    def test_floor_frames_the_wider_step_lowers_stay_down(self):
        # At the step-1 split three weighted frames sit on the floor with
        # negative multipliers, and the step that frees all three lowers
        # one of them. Releasing the two it raises reaches the optimum;
        # keeping all three on the floor ended in NotConverged after one
        # iteration with kkt_residual 71 and P 51% above it.
        problem = sparse_problem(3, 2, 6e6, 3650.4056912723413, 724496.6341378937, {
            (1, 1): (0.3467081513863962, 94760579.92000306, -0.3669558295045184),
            (0, 0): (0.9647625327354881, 175591024.47370562, -0.3752275887939407),
            (1, 0): (0.4260580265507228, 43592358.28665212, -0.3394195507316047),
            (2, 0): (0.5159391322785096, 34332725.817252815, -0.2597557781605802),
        })
        penalty = build_cone_penalty(problem, solve_step1(problem).rates)
        result = allocate(problem)
        assert result.kkt_residual <= 1e-9
        p = penalized_objective(problem, penalty, result.rates)

        # Every point of a 40-step lattice over the budget face of the four
        # weighted frames, the two zero-weight frames on the floor.
        floor, steps = problem.min_rate, 40
        weighted = problem.w > 0.0
        step = (problem.budget - problem.grid.n_frames * floor) / steps
        oracle = math.inf
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                for k in range(steps + 1 - i - j):
                    r = np.full(problem.grid.n_frames, floor)
                    r[weighted] += np.array([i, j, k, steps - i - j - k]) * step
                    oracle = min(oracle, penalized_objective(problem, penalty, r))
        assert p <= oracle * (1.0 + 1e-9)

    def test_majorizer_retry_converges(self):
        # Near the kink the Newton step is cut short. Without the majorizer
        # retry the line search stalls and step 2 ends in NotConverged after
        # 20 iterations.
        problem = sparse_problem(2, 5, 1e7, 8.390025061079646, 1000.0, {
            (0, 3): (0.5694415144504064, 15843608.402156865, -0.21386907407418987),
            (1, 1): (0.056597285421270745, 42167252.43228885, -0.4491927690819515),
            (0, 0): (0.29614801694906895, 6206724.511488373, -0.16711322211126095),
        })
        assert allocate(problem).kkt_residual <= 1e-9

    def test_under_budget_start_reaches_the_split_optimum(self):
        # A start that spends half the budget has its slack spread over the
        # weighted frames before the first Newton step. Spread, it has a
        # higher P than the split, so the penalty, still linearized at the
        # split, takes it as its expansion point for step 2 to begin there.
        problem = replace(coupled_square(), lam=0.01)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        half = 0.5 * penalty.expansion
        from_half = solve_step2(problem, half, replace(penalty, expansion=half))
        from_split = solve_step2(problem, step1.rates, penalty)
        assert penalized_objective(problem, penalty, from_half.rates) == pytest.approx(
            penalized_objective(problem, penalty, from_split.rates), rel=1e-12
        )

    @pytest.mark.parametrize("index, on_floor", [(1087, 12), (3384, 6)])
    def test_frames_within_rounding_of_the_floor_snap_onto_it(self, index, on_floor):
        # Step-2 sweep problems 1087 (4x6, lambda about 317) and 3384 (5x5,
        # lambda about 1.8): a step leaves weighted frames within
        # ACTIVE_BOUND above the floor. Snapped onto it they converge; left
        # there, step 2 ends in NotConverged with kkt_residual 17 and 1.9.
        problem = sweep_problem(index)
        result = allocate(problem)
        assert result.kkt_residual <= 1e-7
        rates = np.array(list(result.rates.values()))
        assert np.count_nonzero(rates[problem.w > 0.0] == problem.min_rate) == on_floor

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda: sparse_problem(1, 6, 6e6, 77.73353770658693, 459784.57194551517, {
                    (0, 2): (0.7779100301965141, 57990825.773164645, -0.4365892239536335),
                    (0, 5): (0.40506488507941585, 195475257.55220756, -0.31044671908474974),
                    (0, 0): (0.39353496168786456, 58113024.91724182, -0.4052887774185132),
                }),
                id="1x6",
            ),
            pytest.param(
                lambda: sparse_problem(6, 1, 6e6, 532.3903248286007, 27710.877957215864, {
                    (4, 0): (0.7772899433551292, 110850301.19326107, -0.3850019167679068),
                    (5, 0): (0.551972235647393, 43713517.06535419, -0.31442721641185556),
                    (1, 0): (0.685813251579918, 232052341.56657013, -0.43895184268883736),
                    (0, 0): (0.5205058964309114, 113388679.7122705, -0.439796531985802),
                }),
                id="6x1",
            ),
            *(
                pytest.param(functools.partial(sweep_problem, index), id=f"sweep-{index}")
                for index in CERTIFIED_KINKS
            ),
        ],
    )
    def test_certified_zero_residual_converges_by_kkt_tolerance(self, build):
        # Zero weights split the coupled frames of these 6-frame lines into
        # groups, each with its own null direction of A. Step 2 stops at a
        # zero residual whose least-squares dual certificate covers every
        # group and leaves a marginal mismatch of at most 9.9e-9 (sweep
        # problem 3474): below KKT_TOLERANCE, so the point is proved optimal
        # and converges. Step 2 keeps the spend of its start, the split.
        problem = build()
        result = allocate(problem)
        assert result.kkt_residual <= 1e-8
        split = solve_step1(problem).rates
        penalty = build_cone_penalty(problem, split)
        p = penalized_objective(problem, penalty, result.rates)
        assert p <= penalized_objective(problem, penalty, split)
        assert result.budget_used == pytest.approx(sum(split.values()), rel=1e-12)

    def test_newton_stop_with_unequal_marginals_is_not_converged(self):
        # Zero weights split the weighted frames into two coupled groups,
        # {0} and {3, 4} by u. allocate raises NotConverged by an uncertified
        # zero residual after 4 iterations: the last iterate's group
        # marginals still differ from the certificate's multiplier by 6.2e-6
        # relative, above KKT_TOLERANCE. That iterate spends the budget at
        # the optimum that a lattice plus Nelder-Mead search puts at
        # P = 1,127,168.87; a converged result must be there too.
        problem = sparse_problem(5, 1, 5e6, 701176.6042372836, 1000.0, {
            (3, 0): (0.9053794285336533, 19420444.4894804, -0.19956024645893455),
            (4, 0): (0.05676246705702981, 136341342.08788058, -0.1348650911994494),
            (0, 0): (0.20775064066398202, 2290655.597111679, -0.2576448279186422),
        })
        penalty = build_cone_penalty(problem, solve_step1(problem).rates)
        try:
            result = allocate(problem)
        except NotConverged as exc:
            result = exc.result
        p = penalized_objective(problem, penalty, result.rates)
        assert p == pytest.approx(1127168.87, rel=1e-6)
        assert result.budget_used == pytest.approx(problem.budget, rel=1e-12)

    @pytest.mark.parametrize(
        "build, stop, converged",
        [
            (lambda: replace(coupled_square(), lam=0.01), "Newton decrement", True),
            (coupled_square, "certified zero residual", True),
            (functools.partial(sweep_problem, 1323), "uncertified zero residual", False),
            (
                lambda: recipe_problem(np.random.default_rng([0, 1, 0, 0]), 3, 3, 10.0, 1e6),
                "floor spend",
                True,
            ),
        ],
        ids=["Newton decrement", "certified", "uncertified", "floor spend"],
    )
    def test_stop_is_logged_with_its_outcome(self, caplog, build, stop, converged):
        # Each stop that no monkeypatch forces, on a problem that reaches
        # it: step 2 logs why it stopped, and the stop converges or raises
        # NotConverged with the same name.
        problem = build()
        with caplog.at_level("DEBUG", logger="lfalloc.allocator"):
            if converged:
                assert allocate(problem).kkt_residual <= allocator.KKT_TOLERANCE
            else:
                with pytest.raises(NotConverged, match=f"stopped by {stop} after"):
                    allocate(problem)
        assert f"stopped by {stop}, kkt_residual" in caplog.text


class TestDissectedNewtonSystem:
    """Step 2's Newton system solved by one-level nested dissection, against
    one dense solve of the whole bordered matrix."""

    @pytest.mark.parametrize("width, height", [(9, 9), (12, 5), (5, 12)])
    def test_matches_the_dense_solve_at_the_split(self, width, height):
        # At the split, step 2's first iterate in allocate, every frame is
        # free. The reference holds the frames in coding order and takes
        # A^T A from a dense A.
        problem = recipe_problem(np.random.default_rng([width, height]), width, height, 10.0)
        n = problem.grid.n_frames
        r = np.array(list(solve_step1(problem).rates.values()))
        assert np.all(r > problem.min_rate)
        penalty = build_cone_penalty(problem, r)
        grad = problem.w**2 * problem.alpha * problem.beta * r ** (problem.beta - 1.0)
        curvature = grad * (problem.beta - 1.0) / r
        residual = pair_residual(penalty, r)
        norm = float(np.linalg.norm(residual))
        grad += problem.lam * penalty.apply_transpose(residual / norm)
        weight = norm / problem.lam
        a = np.zeros((penalty.col_i.size, n))
        pairs = np.arange(penalty.col_i.size)
        a[pairs, penalty.col_i] = penalty.coef_i
        a[pairs, penalty.col_j] = penalty.coef_j
        whole = np.ones((n + 1, n + 1))
        whole[:n, :n] = a.T @ a + np.diag(weight * curvature)
        whole[n, n] = 0.0
        expected = np.linalg.solve(whole, np.append(-weight * grad, 0.0))

        order, n_first, n_second = allocator._dissection_order(problem.grid)
        assert sorted(order) == list(range(n)) and n_first and n_second
        side = np.zeros(n, dtype=int)
        side[order[:n_first]], side[order[n_first : n_first + n_second]] = 1, 2
        assert not np.any(side[penalty.col_i] * side[penalty.col_j] == 2)
        row = np.argsort(order)
        kkt = allocator._bordered_gram(penalty, 1.0, row)
        kkt[row, row] += weight * curvature
        solve = allocator._dissected_solver(kkt, n_first, n_second)
        solution = solve(np.append(-weight * grad[order], 0.0))
        d = np.empty(n)
        d[order] = solution[:-1]
        assert np.max(np.abs(d - expected[:-1])) <= 1e-10 * np.max(np.abs(expected[:-1]))
        assert solution[-1] == pytest.approx(expected[-1], rel=1e-10)

    @pytest.mark.parametrize("width, height", [(2, 2), (3, 3), (6, 1), (3, 5)])
    def test_all_free_systems_take_the_block_solve(self, monkeypatch, width, height):
        # With every frame free, the Newton system goes through the block
        # solve, also where a side is empty: one on 3x3 and both on 2x2,
        # whose separator is the whole matrix. The first system, at the
        # split, matches one dense solve of the same bordered matrix in
        # coding order.
        problem = recipe_problem(np.random.default_rng([width, height]), width, height, 10.0)
        n = problem.grid.n_frames
        assert np.all(np.array(list(solve_step1(problem).rates.values())) > problem.min_rate)
        dissected, systems = allocator._dissected_solver, []

        def recorded(kkt, n_first, n_second):
            solve = dissected(kkt, n_first, n_second)

            def recorded_solve(rhs):
                systems.append((kkt.copy(), rhs, solve(rhs)))
                return systems[-1][-1]

            return recorded_solve

        monkeypatch.setattr(allocator, "_dissected_solver", recorded)
        assert allocate(problem).kkt_residual <= allocator.KKT_TOLERANCE
        assert systems
        kkt, rhs, solution = systems[0]
        rows = np.append(np.argsort(allocator._dissection_order(problem.grid)[0]), n)
        expected = np.linalg.solve(kkt[np.ix_(rows, rows)], rhs[rows])
        d = solution[rows[:-1]]
        assert np.max(np.abs(d - expected[:-1])) <= 1e-10 * np.max(np.abs(expected[:-1]))
        assert solution[-1] == pytest.approx(expected[-1], rel=1e-10)

    def test_a_floor_frame_takes_the_dense_solve_and_converges(self, monkeypatch):
        # A tiny alpha keeps the first frame of this 9x9 problem on the floor
        # at every iterate, so each Newton system is one dense solve over the
        # 80 free frames and the border.
        problem = recipe_problem(np.random.default_rng([9, 9, 0]), 9, 9, 10.0)
        first = problem.grid.coding_order[0]
        models = {**problem.models, first: RDModelParams(1e3, problem.models[first].beta)}
        problem = replace(problem, models=models)
        solve, sizes = np.linalg.solve, []

        def recorded(a, b):
            sizes.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        result = allocate(problem)
        assert result.kkt_residual <= allocator.KKT_TOLERANCE
        assert result.rates[first] == problem.min_rate
        assert sizes and set(sizes) == {81}


class TestSolveStep2RealisticScale:
    """Step 2 at the scale of real light fields: about 1e6 bits and 1e8 SSE
    per frame, on grids up to 17x17."""

    @pytest.mark.parametrize("side", [13, 17])
    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_converges_to_a_certified_optimum(self, side, lam):
        rng = np.random.default_rng([side, int(lam)])
        grid = spiral_order(side, side)
        coords = grid.coding_order
        n = len(coords)
        alpha = 10.0 ** rng.uniform(7.5, 8.5, n)
        beta = rng.uniform(-0.45, -0.22, n)
        raw = rng.uniform(0.2, 1.0, n)
        problem = AllocationProblem(
            grid=grid,
            weights=unify_weights({c: float(x) for c, x in zip(coords, raw)}),
            models={
                c: RDModelParams(alpha=float(a), beta=float(b))
                for c, a, b in zip(coords, alpha, beta)
            },
            budget=1e6 * n,
            lam=lam,
        )
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        result = solve_step2(problem, step1.rates, penalty)  # raises NotConverged on failure
        before = penalized_objective(problem, penalty, step1.rates)
        after = penalized_objective(problem, penalty, result.rates)
        assert after <= before
        assert result.kkt_residual <= 1e-6
        rates = np.array([result.rates[c] for c in coords])
        assert float(rates.min()) >= problem.min_rate
        assert float(rates.sum()) <= problem.budget * (1.0 + 1e-10)

        # The budget-face certificate of the step-2 lattice oracle: the
        # implied budget multiplier is nonnegative.
        w = np.array([problem.weights.unified[c] for c in coords])
        grad = w * w * alpha * beta * rates ** (beta - 1.0)
        residual = pair_residual(penalty, rates)
        grad += lam * penalty.apply_transpose(residual) / np.linalg.norm(residual)
        assert float(grad.sum()) <= 1e-6 * float(np.abs(grad).sum())


class TestUnits:
    """Step 2's answer does not depend on the units of SSE and rates: it
    holds A in units of a power of two, which divides exactly."""

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    @pytest.mark.parametrize(
        "build",
        [
            *(
                pytest.param(functools.partial(sweep_problem, index), id=f"sweep-{index}")
                for index in CERTIFIED_KINKS
            ),
            pytest.param(
                lambda: recipe_problem(np.random.default_rng([9, 9]), 9, 9, 10.0), id="9x9"
            ),
            pytest.param(functools.partial(sweep_problem, 1087), id="floor-frames"),
            pytest.param(
                lambda: recipe_problem(np.random.default_rng([13, 100]), 13, 13, 100.0),
                id="cone-13x13",
            ),
        ],
    )
    def test_sse_in_power_of_two_units_changes_no_bit(self, build, k):
        # Every alpha times 2^k scales each frame's SSE, the penalty and
        # the certificate's right side by 2^k exactly, and the Newton
        # systems not at all: the same outcome after the same step-2
        # iterations, at the same rates. The 9x9 problem keeps every frame
        # free, so its systems are solved by dissection; sweep problem 1087
        # ends with 12 weighted frames on the floor.
        problem = build()
        outcome, result = sweep.allocate(lfalloc, problem)
        twin_outcome, twin = sweep.allocate(lfalloc, unit_scaled(problem, sse=2.0**k))
        assert twin_outcome == outcome
        assert twin.iterations == result.iterations
        assert twin.rates == result.rates

    @pytest.mark.parametrize(
        "sse, rate",
        [(1e6, 1.0), (1e-6, 1.0), (1e12, 1.0), (1e-12, 1.0), (1.0, 1e6), (1.0, 1e-6)],
        ids=["sse-1e6", "sse-1e-6", "sse-1e12", "sse-1e-12", "rate-1e6", "rate-1e-6"],
    )
    @pytest.mark.parametrize("index", CERTIFIED_KINKS)
    def test_decimal_units_keep_the_outcome(self, index, sse, rate):
        # A decimal unit rounds every alpha, so the rates agree only to
        # rounding; the certified kink stays certified.
        problem = sweep_problem(index)
        outcome, result = sweep.allocate(lfalloc, problem)
        scaled_outcome, scaled = sweep.allocate(lfalloc, unit_scaled(problem, sse, rate))
        assert (scaled_outcome, outcome) == ("converged", "converged")
        expected = np.array(list(result.rates.values()))
        assert np.array(list(scaled.rates.values())) / rate == pytest.approx(expected, rel=1e-6)


class TestEvaluateCost:
    """Joint cost of the model SSE at given rates, evaluated over the whole grid at once."""

    def test_equals_per_frame_eval_model_exactly(self):
        rng = np.random.default_rng(17)
        grid = spiral_order(17, 17)
        coords = grid.coding_order
        models = {
            c: RDModelParams(alpha=10.0 ** rng.uniform(7.5, 8.5), beta=rng.uniform(-0.45, -0.22))
            for c in coords
        }
        problem = AllocationProblem(
            grid=grid,
            weights=unify_weights({c: 1.0 for c in coords}),
            models=models,
            budget=1e6 * len(coords),
            lam=0.0,
        )
        rates = rng.uniform(1e3, 5e6, len(coords))
        per_frame = {c: eval_model(models[c], float(r)) for c, r in zip(coords, rates)}
        expected = cost(grid, problem.weights, DistortionSet(per_frame), 0.0)
        assert evaluate_cost(problem, rates) == expected

    def test_non_positive_rate_is_domain_error(self):
        problem = coupled_square()
        with pytest.raises(DomainError):
            evaluate_cost(problem, np.array([1e6, 1e6, 0.0, 1e6]))

    def test_model_sse_that_overflows_is_a_range_error(self):
        """1e8 * (1e-110) ** -3 is past the float range: the SSE is
        already inf before the joint cost sums it, which raises no
        floating-point error there, and the cost still refuses it, with
        no overflow warning first."""
        problem = line_problem([(1e8, -3.0)], budget=1.0)
        with pytest.raises(ValueError, match="problem scale is outside floating-point range"):
            evaluate_cost(problem, np.array([1e-110]))


class TestAllocate:
    """The combined two-step entry point."""

    def test_zero_lambda_is_pure_water_filling(self):
        problem = line_problem(REFERENCE_PAIRS, budget=3e6, lam=0.0)
        combined = allocate(problem)
        direct = solve_step1(problem)
        assert combined.rates == direct.rates

    def test_identical_frames_stay_uniform_under_coupling(self):
        problem = line_problem((REFERENCE_PAIRS[0],) * 3, budget=3e6, lam=5.0)
        result = allocate(problem)
        rates = list(result.rates.values())
        assert rates[0] == rates[1] == rates[2]
        assert result.budget_used == pytest.approx(3e6, rel=1e-9)

    @pytest.mark.parametrize("scale", np.linspace(-1e-10, 1e-10, 41).tolist(), ids="{:+.1e}".format)
    def test_identical_frames_converge_from_every_warm_start_bit(self, scale):
        # Every warm start within step 1's budget tolerance of the split
        # reaches the same kink; the last bits of the start decide nothing.
        # The split is that kink, so no start has a lower P: the penalty,
        # still linearized at the split, takes the start as its expansion
        # point for step 2 to begin there.
        problem = line_problem((REFERENCE_PAIRS[0],) * 3, budget=3e6, lam=5.0)
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        start = (1.0 + scale) * penalty.expansion
        result = solve_step2(problem, start, replace(penalty, expansion=start))
        rates = list(result.rates.values())
        assert rates[0] == rates[1] == rates[2]
        assert result.budget_used == pytest.approx(problem.budget, rel=1e-12)

    def test_identical_frames_kink_is_certified_where_linearized(self):
        # The penalty linearized at the start itself puts the start at the
        # kink, where the certificate's right side is nothing but rounding;
        # every start within step 1's budget tolerance of the split must
        # still be proved optimal.
        problem = line_problem((REFERENCE_PAIRS[0],) * 3, budget=3e6, lam=5.0)
        split = np.array(list(solve_step1(problem).rates.values()))
        for scale in np.linspace(-1e-10, 1e-10, 41):
            start = (1.0 + scale) * split
            result = solve_step2(problem, start, build_cone_penalty(problem, start))
            assert result.kkt_residual <= allocator.KKT_TOLERANCE

    @pytest.mark.parametrize(
        "lam, floor_share", [(0.0, 1.0), (10.0, 1.0), (10.0, 1.0 - 1e-10)], ids=str
    )
    def test_floor_spend_allocates_the_one_feasible_point(self, lam, floor_share):
        # A floor at the even share of a 3x3 grid, or within ACTIVE_BOUND
        # below it, leaves no frame room to rise. At lambda > 0 step 2 used
        # to solve the 1x1 system [[0]] there and raise NotConverged
        # (singular Newton system, kkt_residual 37.9).
        rng = np.random.default_rng([0, 1, 0, 0])
        problem = recipe_problem(rng, 3, 3, lam, 1e6 * floor_share)
        result = allocate(problem)
        assert set(result.rates.values()) == {problem.min_rate}
        assert result.kkt_residual == 0.0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_feasible_start_reaches_the_cold_optimum(self, data):
        # Small grids on the benchmark recipe with a floor up to 0.9 of the
        # even share; the start spends any fraction of the budget above the
        # floor, shared out in any proportions.
        width, height = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n = width * height
        problem = recipe_problem(
            np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
            width,
            height,
            10.0 ** data.draw(st.floats(-1.0, 5.0)),
            1e6 * data.draw(st.floats(1e-3, 0.9)),
        )
        shares = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        spend = data.draw(st.floats(0.0, 1.0)) * (problem.budget - n * problem.min_rate)
        total = shares.sum()
        start = problem.min_rate + spend * (shares / total if total > 0.0 else shares)

        cold = allocate(problem)
        warm = allocate(problem, start)
        split = solve_step1(problem).rates
        penalty = build_cone_penalty(problem, split)
        p_warm = penalized_objective(problem, penalty, warm.rates)
        p_cold = penalized_objective(problem, penalty, cold.rates)
        assert p_warm == pytest.approx(p_cold, rel=1e-10)
        assert p_warm <= penalized_objective(problem, penalty, split) * (1.0 + 1e-12)

    def test_polish_does_not_worsen_linearized_objective(self):
        problem = coupled_square()
        result = allocate(problem)
        split = solve_step1(problem).rates
        penalty = build_cone_penalty(problem, split)
        before = penalized_objective(problem, penalty, split)
        after = penalized_objective(problem, penalty, result.rates)
        assert after <= before * (1.0 + 1e-12)

    def test_objective_is_model_cost(self):
        problem = coupled_square()
        result = allocate(problem)
        assert result.objective.total == pytest.approx(
            result.objective.weighted_distortion
            + problem.lam * math.sqrt(result.objective.discontinuity),
            rel=1e-12,
        )


class TestProblemIO:
    """Problem and allocation file round trips."""

    def test_problem_round_trip_fixed_point(self, tmp_path):
        problem = coupled_square()
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_problem_file(problem, first)
        write_problem_file(read_problem_file(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_numpy_scalars_round_trip(self, tmp_path):
        grid = spiral_order(2, 1)
        weights = unify_weights(dict(zip(grid.coding_order, np.array([1.0, 0.36]))))
        model = RDModelParams(np.float64(4.46e7), np.float64(-0.261))
        problem = AllocationProblem(
            grid=grid,
            weights=weights,
            models=dict.fromkeys(grid.coding_order, model),
            budget=np.float64(2e6),
            lam=np.float64(1.0),
            min_rate=np.float64(10.0),
        )
        path = tmp_path / "p.txt"
        write_problem_file(problem, path)
        back = read_problem_file(path)
        assert (back.budget, back.lam, back.min_rate) == (2e6, 1.0, 10.0)
        assert back.weights.raw == weights.raw
        assert back.alpha.tolist() == problem.alpha.tolist()
        assert back.beta.tolist() == problem.beta.tolist()

    def test_problem_defaults_floor_when_absent(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "width: 2\nheight: 1\nbudget: 2000000.0\nlambda: 0.0\n"
            "frame: 0,0,1.0,44600000.0,-0.261\n"
            "frame: 1,0,1.0,69300000.0,-0.284\n"
        )
        problem = read_problem_file(path)
        assert problem.min_rate == pytest.approx(2e6 * 1e-3 / 2, rel=1e-12)
        assert problem.grid.coding_order == spiral_order(2, 1).coding_order

    def test_problem_missing_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("width: 2\nheight: 1\nlambda: 0.0\nframe: 0,0,1,1e7,-0.3\n")
        with pytest.raises(ParseError):
            read_problem_file(path)

    def test_problem_missing_frame(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "width: 2\nheight: 1\nbudget: 1e6\nlambda: 0.0\nframe: 0,0,1,1e7,-0.3\n"
        )
        with pytest.raises(ParseError):
            read_problem_file(path)

    def test_problem_bad_frame_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("width: 1\nheight: 1\nbudget: 1e6\nlambda: 0\nframe: 0,0,1\n")
        with pytest.raises(ParseError):
            read_problem_file(path)

    def test_problem_infeasible_from_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "width: 2\nheight: 1\nbudget: 1.5\nlambda: 0.0\nmin_rate: 1.0\n"
            "frame: 0,0,1.0,1e7,-0.3\nframe: 1,0,1.0,1e7,-0.3\n"
        )
        with pytest.raises(InfeasibleBudget):
            read_problem_file(path)

    def test_problem_with_every_weight_zero(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "width: 2\nheight: 1\nbudget: 2e6\nlambda: 0.0\n"
            "frame: 0,0,0.0,1e7,-0.3\nframe: 1,0,0,1e7,-0.3\n"
        )
        # Named like every other input error: the file, then the defect.
        message = f"^{re.escape(str(path))}: all frame weights are zero$"
        with pytest.raises(DegenerateWeights, match=message):
            read_problem_file(path)

    def test_files_with_one_order_share_one_grid(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        write_problem_file(coupled_square(), first)
        problem = square_problem(REFERENCE_PAIRS[::-1] + ((1.0e8, -0.33),), 8e6, lam=50.0)
        write_problem_file(problem, second)
        a, b = read_problem_file(first), read_problem_file(second)
        assert a.grid is b.grid
        assert (a.lam, b.lam) == (5.0, 50.0)
        # The cone penalty's columns are the shared grid's read-only arrays.
        penalty = build_cone_penalty(b, solve_step1(b).rates)
        assert penalty.col_i is a.grid.coupled_pairs.i
        with pytest.raises(ValueError, match="read-only"):
            penalty.col_j[0] = 0

    def test_order_memo_keeps_its_bound(self, tmp_path):
        """More distinct orders than the memo holds: it stays at its bound,
        and an evicted grid read again allocates to the same bytes."""
        paths = []
        for n in range(1, allocator.ORDER_MEMO + 5):
            pairs = [REFERENCE_PAIRS[u % 3] for u in range(n)]
            paths.append(tmp_path / f"line{n}.txt")
            write_problem_file(line_problem(pairs, 1e6 * n, lam=5.0), paths[-1])

        def allocation(path):
            out = tmp_path / "out.csv"
            write_allocation_file(allocate(read_problem_file(path)), out)
            return out.read_bytes()

        first = allocation(paths[0])
        grid = read_problem_file(paths[0]).grid
        for path in paths[1:]:
            read_problem_file(path)
        for memo in (allocator._coding_order, allocator._order_grid):
            assert memo.cache_info().currsize == allocator.ORDER_MEMO
        assert read_problem_file(paths[0]).grid is not grid
        assert allocation(paths[0]) == first

    def test_allocation_round_trip(self, tmp_path):
        result = allocate(coupled_square())
        path = tmp_path / "alloc.csv"
        write_allocation_file(result, path)
        rates, diagnostics = read_allocation_file(path)
        assert rates == result.rates
        assert diagnostics["total"] == result.objective.total
        assert diagnostics["kkt_residual"] == result.kkt_residual
        assert diagnostics["budget_used"] == result.budget_used
        assert diagnostics["iterations"] == float(result.iterations)

    def test_allocation_bad_row(self, tmp_path):
        path = tmp_path / "alloc.csv"
        path.write_text("u,v,rate_bits\n0,0\n")
        with pytest.raises(ParseError):
            read_allocation_file(path)

    def test_allocation_empty(self, tmp_path):
        path = tmp_path / "alloc.csv"
        path.write_text("u,v,rate_bits\n")
        with pytest.raises(ParseError):
            read_allocation_file(path)


class TestReadModelTable:
    """The models of a read problem: a read-only table over its vectors."""

    FRAMES = {
        (0, 0): (1.0, 4.46e7, -0.261),
        (1, 0): (0.5, 1.96e8, -0.383),
        (2, 0): (0.25, 6.93e7, -0.284),
        (0, 1): (1.0, 1.0e8, -0.33),
        (1, 1): (0.75, 5e7, -0.3),
        (2, 1): (0.4, 8e7, -0.41),
    }
    ORDER = ((2, 1), (0, 0), (1, 1), (2, 0), (0, 1), (1, 0))

    @pytest.fixture
    def path(self, tmp_path):
        lines = ["width: 3", "height: 2", "budget: 6e6", "lambda: 5.0"]
        lines.append("order: " + ";".join(f"{u},{v}" for u, v in self.ORDER))
        lines += [f"frame: {u},{v},{w!r},{a!r},{b!r}" for (u, v), (w, a, b) in self.FRAMES.items()]
        path = tmp_path / "p.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_iterates_in_coding_order(self, path):
        models = read_problem_file(path).models
        assert list(models) == [FrameCoord(u, v) for u, v in self.ORDER]
        assert len(models) == len(self.ORDER)

    def test_items_are_the_file_models(self, path):
        models = read_problem_file(path).models
        expected = {FrameCoord(*c): RDModelParams(a, b) for c, (_, a, b) in self.FRAMES.items()}
        for coord, model in expected.items():
            assert models[coord] == models[tuple(coord)] == model
        assert models == expected

    @pytest.mark.parametrize("coord", [(3, 0), (0, 2), (-1, 0), (0, -1), (0, 0, 0), "uv", 7, (0.5, 0)])
    def test_off_grid_coordinate_raises_key_error(self, path, coord):
        models = read_problem_file(path).models
        with pytest.raises(KeyError):
            models[coord]
        assert coord not in models

    def test_item_assignment_raises(self, path):
        problem = read_problem_file(path)
        with pytest.raises(TypeError):
            problem.models[FrameCoord(0, 0)] = RDModelParams(1.0, -0.5)
        with pytest.raises(ValueError, match="read-only"):
            problem.alpha[0] = 1.0
        assert problem.models[FrameCoord(0, 0)] == RDModelParams(4.46e7, -0.261)

    def test_replaced_lambda_allocates_as_a_reread(self, path, tmp_path):
        replaced = replace(read_problem_file(path), lam=50.0)
        outputs = (tmp_path / "replaced.csv", tmp_path / "reread.csv")
        for problem, output in zip((replaced, read_problem_file(path, lam=50.0)), outputs):
            write_allocation_file(allocate(problem), output)
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_another_grid_looks_each_frame_up(self, path):
        problem = read_problem_file(path)
        moved = replace(problem, grid=spiral_order(3, 2))
        coords = moved.grid.coding_order
        assert moved.alpha.tolist() == [self.FRAMES[c][1] for c in coords]
        assert moved.beta.tolist() == [self.FRAMES[c][2] for c in coords]
