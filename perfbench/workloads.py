"""Seeded inputs for the benchmark workloads.

Every problem and mock follows one recipe: per frame alpha = 10**U(7.5, 8.5),
beta = U(-0.45, -0.22), raw weight U(0.2, 1), and a budget of 1e6 bits per
frame. Inputs are written through the library's own writers, so the
program under test only ever sees files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import LinearProblem
from lfalloc import (
    AllocationProblem,
    MockEncoderConfig,
    MockSetup,
    RDModelParams,
    spiral_order,
    unify_weights,
)

BITS_PER_FRAME = 1e6
LOOP_SIDE = 13
LOOP_GAMMA = 0.5  # reference coupling on: each frame's SSE depends on the previous one
LOOP_REF_NORM = 2e6
LOOP_MAX_ITERS = 40  # today's loops settle in 13-17 passes (a few cycle); the CLI default of 8 is too few


@dataclass(frozen=True)
class Workload:
    """Allocation problem classes timed in the window, plus the encode loop."""

    classes: tuple[tuple[int, float], ...]  # (grid side, lambda)
    problems_per_class: int
    loop_lam: float
    mocks: int


WORKLOADS = {
    # lambda = 0: parse, water-filling, cost evaluation and write; the pair
    # build and step 2 never run, in the timed calls or in the loop.
    "waterfill": Workload(classes=((17, 0.0),), problems_per_class=8, loop_lam=0.0, mocks=12),
    # lambda > 0: the O(n^2) pair build and step 2 do most of the work.
    "cone": Workload(
        classes=((13, 10.0), (13, 100.0), (17, 10.0), (17, 100.0)),
        problems_per_class=8,
        loop_lam=10.0,
        mocks=12,
    ),
}


def _frame_draws(rng: np.random.Generator, n: int):
    alpha = 10.0 ** rng.uniform(7.5, 8.5, n)
    beta = rng.uniform(-0.45, -0.22, n)
    raw = rng.uniform(0.2, 1.0, n)
    return alpha, beta, raw


def make_problem(rng: np.random.Generator, side: int, lam: float) -> AllocationProblem:
    grid = spiral_order(side, side)
    coords = grid.coding_order
    alpha, beta, raw = _frame_draws(rng, len(coords))
    return AllocationProblem(
        grid=grid,
        weights=unify_weights({c: float(w) for c, w in zip(coords, raw)}),
        models={
            c: RDModelParams(alpha=float(a), beta=float(b))
            for c, a, b in zip(coords, alpha, beta)
        },
        budget=BITS_PER_FRAME * len(coords),
        lam=lam,
    )


def make_mock(rng: np.random.Generator, side: int) -> MockSetup:
    grid = spiral_order(side, side)
    coords = grid.coding_order
    alpha, beta, raw = _frame_draws(rng, len(coords))
    config = MockEncoderConfig(
        frame_params={c: (float(a), float(b)) for c, a, b in zip(coords, alpha, beta)},
        dependency_gamma=LOOP_GAMMA,
        ref_norm=LOOP_REF_NORM,
    )
    return MockSetup(
        config=config,
        grid=grid,
        weights=unify_weights({c: float(w) for c, w in zip(coords, raw)}),
    )


def linear_problem(problem: AllocationProblem) -> LinearProblem:
    """The problem as arrays in coding order, for the reference solver."""
    coords = problem.grid.coding_order
    return LinearProblem(
        u=np.array([c.u for c in coords]),
        v=np.array([c.v for c in coords]),
        w=np.array([problem.weights.unified[c] for c in coords]),
        alpha=np.array([problem.models[c].alpha for c in coords]),
        beta=np.array([problem.models[c].beta for c in coords]),
        budget=problem.budget,
        lam=problem.lam,
        min_rate=problem.min_rate,
    )


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator per (seed, item), so adding items moves nothing else."""
    return np.random.default_rng([seed, *key])
