"""Two-step budgeted bit allocation across perspective frames.

Step one drops the consistency term and solves the separable problem

    minimize   sum_f w_f^2 * alpha_f * r_f**beta_f
    subject to sum_f r_f <= budget,  r_f >= min_rate

in closed form per frame via the common multiplier, with safeguarded
Newton steps on the multiplier to meet the budget (water-filling). Step
two linearizes each frame's distortion inside the consistency term around
an expansion point, the step-one rates in allocate, which turns the
penalty into the Euclidean norm of an affine map A r + b that keeps that
point, and minimizes the resulting convex objective with damped Newton
steps on the budget face sum_f r_f = budget, the norm modelled by its
quadratic majorizer. Every optimum lies on that face: raising each
weighted frame by t / |slope_f| (its tangent slope at the expansion
point) leaves A r + b unchanged and lowers the distortion. Step
two converges where Newton can no longer improve its iterate, or at a
zero residual that a dual certificate proves optimal, and in either case
only with kkt_residual at most KKT_TOLERANCE.

Both steps report kkt_residual with one unit-free meaning: the worst
relative mismatch between a frame's marginal (the objective's decrease
per extra bit) and the common budget multiplier, over the frames above
the floor and the weighted floor frames whose marginal exceeds the
multiplier. It is zero at an exact optimum.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import records
from .errors import DegenerateWeights, DomainError, InfeasibleBudget, NotConverged, ParseError
from .lightfield import FrameCoord, FrameGrid, WeightSet, spiral_order
from .metrics import CostBreakdown, joint_cost
from .rdmodel import RDModelParams, tangent_lines

log = logging.getLogger("lfalloc.allocator")

# Default rate floor as a fraction of budget per frame.
MIN_RATE_BUDGET_FRACTION = 1e-3

# Relative rounding error of a sum, taken over the magnitudes that cancel
# in it: of the objective, and of the consistency residual, whose norm
# below this fraction of the norm of its terms counts as exactly zero,
# where the penalty norm has its kink.
ROUNDING = 1e-14

# A rate within this relative distance of min_rate is on the floor; a
# step-2 start that spends less than this fraction below the budget is on
# the budget face as it is.
ACTIVE_BOUND = 1e-9

# A step-2 Newton step keeps every frame at or above this fraction of its
# current rate.
MIN_RATE_RATIO = 0.25

# Step 2 converges only where kkt_residual is at most this.
KKT_TOLERANCE = 1e-6

# Step 2's unit-free Newton stop: the predicted excess of P over its
# minimum at most this fraction of P.
STEP2_TOL = 1e-12

# Newton iterations step 2 runs before it raises NotConverged.
STEP2_MAX_ITERATIONS = 100


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    """One allocation instance over a frame grid.

    The weights and models are read once, at construction, into the
    coding-order vectors w (unified weights), alpha and beta that every
    solver step uses; changing the tables afterwards does not change the
    rates. models is a mapping from each frame to its RDModelParams: a
    dict, or a read-only table over coding-order alpha and beta vectors,
    whose vectors are taken whole. read_problem_file passes a table over
    the file's vectors, and the encode loop one over each pass's alpha,
    scaled for the references it anticipates, and beta.
    """

    grid: FrameGrid
    weights: WeightSet
    models: Mapping[FrameCoord, RDModelParams]
    budget: float
    lam: float = 0.0
    min_rate: float | None = None
    w: np.ndarray = field(init=False, repr=False)
    alpha: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.budget) or self.budget <= 0.0:
            raise ValueError("budget must be positive and finite")
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError("lambda must be nonnegative and finite")
        if isinstance(self.models, _ModelTable) and self.models.grid is self.grid:
            alpha, beta = self.models.alpha, self.models.beta
        else:
            models = self.grid.align(self.models, "models")
            alpha, beta = np.array([m.alpha for m in models]), np.array([m.beta for m in models])
        object.__setattr__(self, "w", np.array(self.grid.align(self.weights.unified, "weights")))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        n = self.grid.n_frames
        if self.min_rate is None:
            object.__setattr__(
                self, "min_rate", self.budget * MIN_RATE_BUDGET_FRACTION / n
            )
        if not math.isfinite(self.min_rate) or self.min_rate <= 0.0:
            raise ValueError("min_rate must be positive and finite")
        if self.min_rate * n > self.budget:
            raise InfeasibleBudget(
                f"rate floor {self.min_rate!r} x {n} frames exceeds budget {self.budget!r}"
            )


class _ModelTable(Mapping):
    """The models of a read problem: a read-only mapping over read-only
    alpha and beta vectors in the coding order of grid. It iterates in
    coding order, and its item for a frame on the grid is that frame's
    RDModelParams, built on look-up."""

    __slots__ = ("grid", "alpha", "beta")

    def __init__(self, grid: FrameGrid, alpha: np.ndarray, beta: np.ndarray):
        self.grid, self.alpha, self.beta = grid, alpha, beta

    def __getitem__(self, coord) -> RDModelParams:
        try:
            u, v = map(operator.index, coord)
        except (TypeError, ValueError):
            raise KeyError(coord) from None
        if not (0 <= u < self.grid.width and 0 <= v < self.grid.height):
            raise KeyError(coord)
        i = self.grid.lattice_index[u, v]
        return RDModelParams(float(self.alpha[i]), float(self.beta[i]))

    def __iter__(self):
        return iter(self.grid.coding_order)

    def __len__(self) -> int:
        return self.grid.n_frames


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Solver output: rates plus diagnostics."""

    rates: dict[FrameCoord, float]
    objective: CostBreakdown
    kkt_residual: float
    iterations: int
    budget_used: float


@dataclass(frozen=True, eq=False)
class ConePenalty:
    """Sparse affine system A r + b for the linearized consistency term.

    One row per ordered pair of coupled frames (FrameGrid.coupled_pairs,
    sorted by (i, j)); every row touches exactly the two columns of its
    pair. The arrays are aligned: row t of the system is
    coef_i[t] * r[col_i[t]] + coef_j[t] * r[col_j[t]] + rhs[t].
    expansion holds a read-only copy of the rates the system was
    linearized at, and slopes and intercepts each frame's tangent line
    there, all in coding order.
    """

    expansion: np.ndarray
    col_i: np.ndarray
    col_j: np.ndarray
    coef_i: np.ndarray
    coef_j: np.ndarray
    rhs: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.expansion.size

    def residual(self, rates: np.ndarray) -> np.ndarray:
        """A r + b for a rate vector in coding order."""
        return (
            self.coef_i * rates[self.col_i]
            + self.coef_j * rates[self.col_j]
            + self.rhs
        )

    def apply_transpose(self, values: np.ndarray) -> np.ndarray:
        """A^T y accumulated deterministically in row order."""
        n = self.n_frames
        return np.bincount(self.col_i, self.coef_i * values, n) + np.bincount(
            self.col_j, self.coef_j * values, n
        )


def _as_vector(problem: AllocationProblem, rates) -> np.ndarray:
    if isinstance(rates, dict):
        return np.array(problem.grid.align(rates, "rates"), dtype=float)
    return np.asarray(rates, dtype=float)


def evaluate_cost(problem: AllocationProblem, rates) -> CostBreakdown:
    """Joint cost of an allocation under the problem's models, weights
    (its w, read at construction) and lambda; a rate that is not positive
    raises DomainError."""
    vec = _as_vector(problem, rates)
    if np.any(vec <= 0.0):
        raise DomainError("rate must be positive")
    return joint_cost(problem.grid, problem.w, problem.alpha * vec ** problem.beta, problem.lam)


def _result(
    problem: AllocationProblem, r: np.ndarray, kkt_residual: float, iterations: int
) -> AllocationResult:
    """The AllocationResult of coding-order rates r: rates by frame, joint
    cost and spend."""
    return AllocationResult(
        rates=dict(zip(problem.grid.coding_order, r.tolist())),
        objective=evaluate_cost(problem, r),
        kkt_residual=kkt_residual,
        iterations=iterations,
        budget_used=float(r.sum()),
    )


def penalized_objective(problem: AllocationProblem, penalty: ConePenalty, rates) -> float:
    """Post-linearization objective: weighted model distortion plus
    lambda times the norm of the affine consistency residual."""
    w = problem.w
    vec = _as_vector(problem, rates)
    t_prime = float(np.sum(w * w * problem.alpha * vec ** problem.beta))
    res = penalty.residual(vec)
    return t_prime + problem.lam * float(np.linalg.norm(res))


def project_rates(rates: np.ndarray, budget: float, min_rate) -> np.ndarray:
    """Euclidean projection onto {r : r >= min_rate, sum(r) <= budget}.

    min_rate is one floor for every frame or an array of per-frame
    floors. Shift by the floor, clip negatives, and only if the clipped
    point still exceeds the remaining budget project onto the scaled
    simplex with the sort-based O(n log n) rule.
    """
    lower = np.asarray(min_rate, dtype=float)
    y = np.asarray(rates, dtype=float) - lower
    slack = budget - (float(lower) * y.size if lower.ndim == 0 else float(lower.sum()))
    if slack <= 0.0:
        return np.zeros(y.size) + lower
    clipped = np.maximum(y, 0.0)
    if float(clipped.sum()) <= slack:
        return clipped + lower
    u = np.sort(y, kind="stable")[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, y.size + 1)
    thresholds = (cumulative - slack) / counts
    support = np.nonzero(u - thresholds > 0.0)[0]
    if not support.size:
        # The largest shifted value is always in the support, but rounding
        # drops it when it dwarfs the slack; it alone then takes the slack.
        top = np.zeros(y.size)
        top[np.argmax(y)] = slack
        return top + lower
    theta = thresholds[support[-1]]
    return np.maximum(y - theta, 0.0) + lower


def solve_step1(problem: AllocationProblem) -> AllocationResult:
    """Water-filling solution of the weighted-distortion-only problem.

    Stationarity gives r_f(mu) = (w_f^2 alpha_f |beta_f| / mu)**(1/(1-beta_f))
    per positive-weight frame; safeguarded Newton steps on mu > 0 match the
    budget to within 1e-10 relative, from below when every beta_f is above
    -1. Zero-weight frames gain nothing from rate and are pinned to the
    floor. kkt_residual is the marginal mismatch at mu (see the module
    docstring).
    """
    w, alpha, beta = problem.w, problem.alpha, problem.beta
    n = problem.grid.n_frames
    floor = problem.min_rate
    budget = problem.budget
    positive = w > 0.0
    n_zero = int(np.count_nonzero(~positive))
    budget_positive = budget - floor * n_zero
    coeff = w[positive] ** 2 * alpha[positive] * np.abs(beta[positive])
    b_pos = beta[positive]
    inv_exp = 1.0 / (1.0 - b_pos)

    def rates_at(mu: float) -> np.ndarray:
        return np.maximum((coeff / mu) ** inv_exp, floor)

    def mu_for_rate(rate: float) -> np.ndarray:
        return coeff * rate ** (b_pos - 1.0)

    def midpoint(lo: float, hi: float) -> float:
        # Geometric, since the bracket can span many decades; lo is 0 where
        # its bound underflows.
        return math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi

    # At lo one frame alone would take the whole budget and at hi every
    # frame sits on the floor, so the budget is met in between. The first
    # mu, the mean marginal at the even split, lies inside and is exact
    # when all frames share one law.
    lo = 0.5 * float(np.max(mu_for_rate(budget_positive)))
    hi = 2.0 * float(np.max(mu_for_rate(floor)))
    mu = float(np.mean(mu_for_rate(budget_positive / coeff.size)))
    best = None
    iterations = 0
    for iterations in range(1, 201):
        r_pos = rates_at(mu)
        total = float(r_pos.sum()) + floor * n_zero
        gap = abs(total - budget) / budget
        if best is None or gap < best[0]:
            best = (gap, mu, r_pos)
        if gap < 1e-10:
            break
        if total > budget:
            lo = mu
        else:
            hi = mu
        # Newton in log mu on the budget equation written as (budget - floor
        # spend) / free spend = 1, where d(spend)/d(log mu) is -sum r_f /
        # (1 - beta_f) over the free frames. The left side is convex and
        # increasing in log mu while the free frames' spend-weighted mean
        # 1 / (1 - beta_f) is at least 1/2 (every beta_f above -1), so the
        # steps settle from below and the split does not overspend. The
        # product form keeps mu's power-of-two scaling exact; a step that
        # leaves the bracket gives way to its midpoint.
        free = r_pos > floor
        r_free = np.where(free, r_pos, 0.0)
        spend, slope = float(r_free.sum()), float(r_free @ inv_exp)
        room = budget - floor * (n - int(np.count_nonzero(free)))
        log_step = (total - budget) / slope * spend / room if slope else math.inf
        step = mu * math.exp(log_step) if log_step < math.log(hi / mu) else hi
        mu = step if lo < step < hi else midpoint(lo, hi)
    gap, mu, r_pos = best
    log.debug("step1: %d safeguarded Newton iterations, budget gap %.3e", iterations, gap)
    r = np.full(n, floor)
    r[positive] = r_pos
    marginal = mu_for_rate(r_pos)
    free = r_pos > floor
    kkt_residual = _marginal_mismatch(marginal, marginal, free, ~free, mu)
    return _result(problem, r, kkt_residual, iterations)


def build_cone_penalty(problem: AllocationProblem, expansion_rates) -> ConePenalty:
    """Linearize the consistency term around expansion_rates.

    For every ordered pair (f_i, f_j) of coupled frames, with proximity
    delta > 0, the row reads

        sqrt(delta) * min(w_i, w_j) * (D_i(r_i) - D_j(r_j))

    with each D replaced by its tangent at the expansion point, split into
    the two rate coefficients and a constant.
    """
    w = problem.w
    vec = np.array(_as_vector(problem, expansion_rates))
    vec.setflags(write=False)
    intercepts, slopes = tangent_lines(problem.alpha, problem.beta, vec)
    pairs = problem.grid.coupled_pairs
    i, j = pairs.i, pairs.j
    scale = np.sqrt(pairs.delta) * np.minimum(w[i], w[j])
    return ConePenalty(
        expansion=vec,
        col_i=i,
        col_j=j,
        coef_i=scale * slopes[i],
        coef_j=-scale * slopes[j],
        rhs=scale * (intercepts[i] - intercepts[j]),
        slopes=slopes,
        intercepts=intercepts,
    )


def _zero_residual_point(penalty: ConePenalty, weighted, budget: float, floor: float):
    """The budget-face point where every weighted frame's tangent takes one
    common value, so that A r + b = 0 (zero-weight frames have zero rows
    and sit at the floor). None when it would put a frame at or below the
    floor; then no feasible point has a zero residual."""
    slopes = penalty.slopes[weighted]
    intercepts = penalty.intercepts[weighted]
    spend = budget - floor * np.count_nonzero(~weighted)
    level = (spend + np.sum(intercepts / slopes)) / np.sum(1.0 / slopes)
    r = np.full(penalty.n_frames, floor)
    r[weighted] = (level - intercepts) / slopes
    return r if np.all(r[weighted] > floor) else None


def _bordered_gram(penalty: ConePenalty) -> np.ndarray:
    """The (n+1) x (n+1) matrix [[A^T A, 1], [1^T, 0]], A^T A accumulated
    from the pair arrays."""
    n = penalty.n_frames
    size = n + 1
    i, j = penalty.col_i, penalty.col_j
    cross = penalty.coef_i * penalty.coef_j
    flat = np.concatenate((i * (size + 1), j * (size + 1), i * size + j, j * size + i))
    values = np.concatenate((penalty.coef_i ** 2, penalty.coef_j ** 2, cross, cross))
    matrix = np.bincount(flat, values, size * size).reshape(size, size)
    matrix[:n, n] = matrix[n, :n] = 1.0
    return matrix


def _kink_certificate(penalty: ConePenalty, gram, grad_f, lam: float, weighted):
    """Optimality test at a point where A r + b = 0 and every weighted frame
    is above the floor.

    There the norm's subdifferential is {A^T u : |u| <= 1}, so the point
    is optimal when some u in the unit ball and multiplier mu >= 0 give
    grad_f + lam A^T u + mu = 0 on the weighted frames. mu is fixed by
    orthogonality to the null direction of A (1 / slope per frame) and u
    is the least-norm solution. Returns (|u|, mu, marginals) with the
    marginals -(grad_f + lam A^T u), or None when A has a larger null
    space and the least-norm solve does not apply.
    """
    null = 1.0 / penalty.slopes[weighted]
    mu = -float(null @ grad_f[weighted]) / float(null.sum())
    target = -(grad_f[weighted] + mu) / lam
    g = gram[np.ix_(weighted, weighted)]
    unit = null / np.linalg.norm(null)
    try:
        z_w = np.linalg.solve(g + (np.trace(g) / unit.size) * np.outer(unit, unit), target)
    except np.linalg.LinAlgError:
        return None
    if np.linalg.norm(g @ z_w - target) > 1e-8 * np.linalg.norm(target):
        return None
    z = np.zeros(penalty.n_frames)
    z[weighted] = z_w
    u = penalty.coef_i * z[penalty.col_i] + penalty.coef_j * z[penalty.col_j]
    marginal = -(grad_f + lam * penalty.apply_transpose(u))
    return float(np.linalg.norm(u)), mu, marginal


def _marginal_mismatch(marginal, grad_f, free, floored, mu: float) -> float:
    """Worst relative gap between mu and the marginals of free frames and of
    floor frames whose marginal exceeds mu (their multiplier is negative,
    so they should rise); where mu is not positive, relative to the
    largest distortion marginal among them."""
    counted = free | (floored & (marginal > mu))
    if not np.any(counted):
        return 0.0
    scale = mu if mu > 0.0 else float(np.max(np.abs(grad_f[counted])))
    return float(np.max(np.abs(marginal[counted] - mu))) / scale


def solve_step2(problem: AllocationProblem, warm_start, penalty: ConePenalty) -> AllocationResult:
    """Minimize the penalized objective P(r) = sum_f w_f^2 alpha_f r_f**beta_f
    + lambda |A r + b| on the budget face sum(r) = budget, r >= min_rate,
    by damped Newton steps.

    Where lambda is zero or zero weights gate off every pair row, P is the
    weighted distortion, and the result is solve_step1(problem), which
    minimizes it. Otherwise every optimum spends the whole budget (see the
    module docstring), so the warm start and the penalty's expansion point,
    each projected onto the feasible set, have any slack beyond
    ACTIVE_BOUND spread evenly over the weighted frames; step 2 begins at
    the one with the lower P (the expansion point on a tie), and each step
    keeps the spend. Each iteration solves one KKT system on the face with
    the Hessian diag(curvature) + (lambda / |y|) A^T A,
    curvature = w^2 alpha beta (beta-1) r^(beta-2) and y = A r + b, whose
    second term is that of the norm's quadratic majorizer at y: unlike the
    norm's own Hessian it keeps the curvature along y, so the step does
    not overshoot near the kink. The system is solved scaled by |y| / lambda,

        [[A^T A + (|y| / lambda) diag(curvature), 1], [1^T, 0]] [d; (|y| / lambda) nu]
            = [-(|y| / lambda) g; 0],

    in one bordered matrix built per call from the pair arrays, of which
    each iteration rewrites only the diagonal. Frames at min_rate stay
    fixed while their multiplier is nonnegative; zero-weight frames sit at
    the floor. The step is projected onto the feasible set with no frame
    cut below a quarter of its rate, and backtracked until the exact P
    falls enough (Armijo). The Newton stop is unit-free: half the squared
    decrement at most STEP2_TOL * P or below the rounding error of P, with
    kkt_residual at most KKT_TOLERANCE at the full step (at r if that step
    visibly raises P). The majorizer's decrement understates the excess of
    P, so with unequal marginals the line search runs from r instead.

    The norm has a kink where A r + b = 0, where Newton has no system.
    From every start the one budget-face point with a zero residual is
    tried first and taken when it beats the start and a dual certificate
    proves it optimal; there the certificate's marginal mismatch replaces
    the Newton test. A start at a zero residual that the certificate does
    not prove optimal gives way to the expansion point brought onto the
    face, and an iterate that reaches one stops.

    Every accepted step lowers P, so the result is never above P where
    step 2 starts: the lower start, or the expansion point it gave way to.
    kkt_residual is the marginal mismatch at the result (see the module
    docstring), or the certificate's at a certified zero residual, or 0
    where the floor spend is the budget and every frame sits on the floor,
    the one feasible point. The result converges when kkt_residual is at
    most KKT_TOLERANCE and step 2 stopped there, by the certificate, the
    decrement, or a line search that finds no decrease. The iteration cap
    STEP2_MAX_ITERATIONS, a singular Newton system and an uncertified zero
    residual raise NotConverged carrying the last iterate.
    """
    lam = problem.lam
    if lam == 0.0 or not np.any(penalty.coef_i):
        return solve_step1(problem)
    w, beta = problem.w, problem.beta
    budget = problem.budget
    floor = problem.min_rate
    n = problem.grid.n_frames
    w2a = w * w * problem.alpha
    weighted = w2a > 0.0
    abs_i, abs_j, abs_rhs = np.abs(penalty.coef_i), np.abs(penalty.coef_j), np.abs(penalty.rhs)
    # The bordered matrix stays accurate where the Hessian alone is nearly
    # singular: along A's null direction once lambda / |y| dwarfs the
    # distortion curvature. That direction (1 / slope) has entries of one
    # sign, so the budget row pins it.
    kkt = _bordered_gram(penalty)
    diagonal = np.arange(n)
    gram_diagonal = kkt[diagonal, diagonal]

    def distortion_derivatives(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grad = w2a * beta * vec ** (beta - 1.0)
        return grad, grad * (beta - 1.0) / vec

    def residual_scale(vec: np.ndarray) -> float:
        """Norm of the terms that cancel in A r + b."""
        terms = abs_i * vec[penalty.col_i] + abs_j * vec[penalty.col_j] + abs_rhs
        return float(np.linalg.norm(terms))

    def certified(vec: np.ndarray):
        if not np.all(vec[weighted] > floor):
            return None
        kkt[diagonal, diagonal] = gram_diagonal
        found = _kink_certificate(
            penalty, kkt[:n, :n], distortion_derivatives(vec)[0], lam, weighted
        )
        if found is None or found[0] > 1.0 or found[1] <= 0.0:
            return None
        return found

    def kkt_residual_at(vec: np.ndarray) -> float:
        """Marginal mismatch at vec with the budget multiplier taken as the
        mean marginal of the free frames."""
        grad_f, _ = distortion_derivatives(vec)
        marginal = -grad_f
        res = penalty.residual(vec)
        norm = float(np.linalg.norm(res))
        if norm > 0.0:
            marginal = marginal - lam * penalty.apply_transpose(res / norm)
        free = weighted & (vec > floor)
        mu = float(np.mean(marginal[free])) if np.any(free) else 0.0
        return _marginal_mismatch(marginal, grad_f, free, weighted & ~free, mu)

    def newton_direction(grad, weight, free):
        """The Newton step on the face over the free frames, and its budget
        multiplier, from step 2's one system: the bordered matrix, its
        diagonal set by the caller for weight = |y| / lambda, which a zero
        residual or a problem with no pair row never reaches."""
        d = np.zeros(n)
        rows = np.append(np.nonzero(free)[0], n)
        system = kkt if rows.size == n + 1 else kkt[np.ix_(rows, rows)]
        sol = np.linalg.solve(system, np.append(-weight * grad[free], 0.0))
        d[free] = sol[:-1]
        return d, float(sol[-1]) / weight

    def active_direction(grad, weight, free) -> np.ndarray:
        """Newton direction with the active set settled: the floor frames
        whose multiplier is negative are released together, less those the
        wider step lowers, until the step raises every one released."""
        d, nu = newton_direction(grad, weight, free)
        release = weighted & ~free & (grad + nu < 0.0)
        while np.any(release):
            wider, _ = newton_direction(grad, weight, free | release)
            if np.all(wider[release] > 0.0):
                return wider
            release &= wider > 0.0
        return d

    def projected(base: np.ndarray, move: np.ndarray) -> np.ndarray:
        """base + move projected onto the feasible set with every frame
        kept at or above a quarter of its rate: the power law's curvature
        grows as the rate falls, so its quadratic model is trusted only
        that far, and a frame pushed below the floor lands on it."""
        return project_rates(base + move, budget, np.maximum(floor, MIN_RATE_RATIO * base))

    def line_search(base: np.ndarray, base_value: float, grad, d):
        """Backtracking (Armijo) along the projected step; t = 0 when P
        cannot fall."""
        t = 1.0
        for _ in range(60):
            candidate = projected(base, t * d)
            value_c = penalized_objective(problem, penalty, candidate)
            decrease = base_value - value_c
            if decrease > 0.0 and decrease >= -1e-4 * float(grad @ (candidate - base)):
                return t, candidate, value_c
            t *= 0.5
        return 0.0, base, base_value

    def on_face(rates) -> tuple[np.ndarray, float]:
        """rates brought onto the budget face, and P there."""
        vec = project_rates(_as_vector(problem, rates), budget, floor)
        vec[~weighted] = floor
        slack = budget - float(vec.sum())
        if slack > budget * ACTIVE_BOUND:
            vec[weighted] += slack / np.count_nonzero(weighted)
        return vec, penalized_objective(problem, penalty, vec)

    r, value = expansion = on_face(penalty.expansion)
    other, other_value = on_face(warm_start)
    if other_value < value:
        r, value = other, other_value
    # Newton has no step at the kink, so a start there that the certificate
    # does not prove optimal gives way to the expansion point.
    norm = float(np.linalg.norm(penalty.residual(r)))
    if norm <= ROUNDING * residual_scale(r) and certified(r) is None:
        r, value = expansion
    kink = _zero_residual_point(penalty, weighted, budget, floor)
    kink_value = math.inf if kink is None else penalized_objective(problem, penalty, kink)
    if kink_value < value and certified(kink) is not None:
        r, value = kink, kink_value
    start_value = value

    stop = "iteration cap"
    iterations = 0
    for iterations in range(1, STEP2_MAX_ITERATIONS + 1):
        # A frame within rounding of the floor is on it.
        snap = (r > floor) & (r <= floor * (1.0 + ACTIVE_BOUND))
        if np.any(snap):
            r[snap] = floor
            value = penalized_objective(problem, penalty, r)
        free = weighted & (r > floor)
        if not np.any(free):
            # Every step keeps the spend, so the floor spend is the budget
            # to within ACTIVE_BOUND and r is the one feasible point: any
            # multiplier at or above the largest floor marginal holds every
            # frame there.
            kkt_residual = 0.0
            stop = "floor spend"
            break
        grad_f, curvature = distortion_derivatives(r)
        res = penalty.residual(r)
        norm = float(np.linalg.norm(res))
        scale = residual_scale(r)
        if norm <= ROUNDING * scale:
            found = certified(r)
            if found is None:
                stop = "uncertified zero residual"
                break
            _, mu, marginal = found
            kkt_residual = _marginal_mismatch(marginal, grad_f, free, weighted & ~free, mu)
            stop = "certified zero residual"
            break
        grad = grad_f + lam * penalty.apply_transpose(res / norm)
        weight = norm / lam
        kkt[diagonal, diagonal] = gram_diagonal + weight * curvature
        try:
            d = active_direction(grad, weight, free)
            # P cannot resolve changes below its rounding error, so neither
            # can the stop or the step that passes it.
            resolution = ROUNDING * (value + lam * scale)
            if -0.5 * float(grad @ d) <= STEP2_TOL * value + resolution:
                # A converged Newton step improves P by less than rounding
                # can show; it is kept unless P visibly rises or ends above
                # the start. The majorizer's decrement understates the excess
                # of P, so unequal marginals send r to the line search.
                candidate = projected(r, d)
                value_c = penalized_objective(problem, penalty, candidate)
                accepted = candidate if value_c <= min(value + resolution, start_value) else r
                kkt_residual = kkt_residual_at(accepted)
                if kkt_residual <= KKT_TOLERANCE:
                    r = accepted
                    stop = "Newton decrement"
                    break
            t, candidate, value_c = line_search(r, value, grad, d)
        except np.linalg.LinAlgError:
            stop = "singular Newton system"
            break
        if t == 0.0:
            stop = "line search"
            break
        r, value = candidate, value_c

    if stop not in ("certified zero residual", "floor spend", "Newton decrement"):
        kkt_residual = kkt_residual_at(r)
    settled = stop in ("certified zero residual", "floor spend", "Newton decrement", "line search")
    converged = settled and kkt_residual <= KKT_TOLERANCE
    log.debug(
        "step2: %d Newton iterations, stopped by %s, kkt_residual %.3e",
        iterations,
        stop,
        kkt_residual,
    )
    result = _result(problem, r, kkt_residual, iterations)
    if not converged:
        raise NotConverged(
            f"Newton method stopped by {stop} after {iterations} iterations "
            f"(kkt_residual {kkt_residual:.3e})",
            result=result,
        )
    return result


def allocate(problem: AllocationProblem, start=None) -> AllocationResult:
    """Full two-step allocation.

    With lambda zero the step-one answer is already optimal and is
    returned as is; otherwise step two refines it against the consistency
    penalty linearized at the step-one split, from start, a rate per frame
    (a dict, or a vector in coding order) such as an earlier answer to a
    nearby problem, or from the split when start is None or has the
    higher P, so the result is never above P at the split; start changes
    nothing at lambda zero. A problem whose scale overflows, divides by
    zero or makes an invalid value anywhere in the solve raises
    ValueError instead of warning and going on.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = solve_step1(problem)
            if problem.lam > 0.0:
                penalty = build_cone_penalty(problem, result.rates)
                result = solve_step2(problem, result.rates if start is None else start, penalty)
    except FloatingPointError as exc:
        raise ValueError(f"problem scale is outside floating-point range ({exc})") from exc
    return result


PROBLEM_FRAME_FIELDS = "u,v,weight,alpha,beta"


def write_problem_file(problem: AllocationProblem, path) -> None:
    """Serialize a problem as key-value lines plus one frame line per frame."""
    lines = [
        f"width: {problem.grid.width}",
        f"height: {problem.grid.height}",
        f"budget: {records.number(problem.budget)}",
        f"lambda: {records.number(problem.lam)}",
        f"min_rate: {records.number(problem.min_rate)}",
        "order: " + ";".join(f"{c.u},{c.v}" for c in problem.grid.coding_order),
    ]
    raw = problem.grid.align(problem.weights.raw, "weights")
    vectors = zip(problem.grid.coding_order, raw, problem.alpha.tolist(), problem.beta.tolist())
    lines.extend(
        f"frame: {c.u},{c.v}," + ",".join(map(records.number, values)) for c, *values in vectors
    )
    Path(path).write_text("\n".join(lines) + "\n")


def read_problem_file(path, **overrides) -> AllocationProblem:
    """Parse an allocation problem file.

    Required keys: width, height, budget, lambda, and one frame line per
    grid coordinate. Optional: min_rate and an explicit coding order
    (spiral by default). overrides maps budget, lam or min_rate to a
    value that replaces the file's; None keeps the file's. The problem is
    built once, so a floor that neither gives follows the budget in
    effect. The file's own values are checked as they are read, so an
    override the problem rejects raises its ValueError, which names the
    quantity and not the file; a problem rejected with no override names
    the file.

    The frame columns go into coding order whole, through the grid's
    lattice_index. The problem's models are a read-only table over its
    alpha and beta vectors: it iterates in coding order and builds a
    frame's RDModelParams when the frame is looked up.
    """
    values, (u, v, *frame) = records.key_values(
        path,
        _PROBLEM_KEYS,
        ("budget", "lambda"),
        _PROBLEM_FRAME,
        PROBLEM_FRAME_FIELDS,
        grid_keys={"order": _order_grid},
    )
    grid = values.get("order") or spiral_order(values["width"], values["height"])
    scalars = dict(budget=values["budget"], lam=values["lambda"], min_rate=values.get("min_rate"))
    scalars.update((key, value) for key, value in overrides.items() if value is not None)
    vectors = np.empty((len(frame), grid.n_frames))
    vectors[:, grid.lattice_index[u, v]] = frame
    vectors.setflags(write=False)
    raw, alpha, beta = vectors
    try:
        weights = WeightSet(raw=dict(zip(grid.coding_order, raw.tolist())))
        return AllocationProblem(
            grid=grid, weights=weights, models=_ModelTable(grid, alpha, beta), **scalars
        )
    except ValueError as exc:
        # The file's own values passed their converters; without an
        # override only the floor derived from its budget can fail here.
        if any(value is not None for value in overrides.values()):
            raise
        raise ParseError(f"{path}: {exc}") from exc
    except DegenerateWeights as exc:
        raise DegenerateWeights(f"{path}: {exc}") from exc


# The problem reader keeps the coding order of each `order:` text, and
# the grid of each (width, height, order) with its coupled pairs, for the
# last ORDER_MEMO used: the problems of one run share a few grids. A bad
# text or grid is not kept, so it raises on every read.
ORDER_MEMO = 16


@functools.lru_cache(maxsize=ORDER_MEMO)
def _coding_order(text: str) -> tuple[FrameCoord, ...]:
    return tuple(
        FrameCoord(*records.fields(entry, (records.integer,) * 2, "u,v"))
        for entry in text.split(";")
    )


_order_grid = functools.lru_cache(maxsize=ORDER_MEMO)(FrameGrid)


_PROBLEM_FRAME = (records.integer,) * 2 + (records.nonnegative, records.positive, records.negative)
_PROBLEM_KEYS = {
    "budget": records.positive,
    "lambda": records.nonnegative,
    "min_rate": records.positive,
    "order": _coding_order,
}


ALLOCATION_HEADER = "u,v,rate_bits"


def write_allocation_file(result: AllocationResult, path) -> None:
    """Rates CSV plus a commented diagnostics block."""
    lines = [ALLOCATION_HEADER]
    lines.extend(f"{c.u},{c.v},{records.number(r)}" for c, r in result.rates.items())
    lines.append("# diagnostics")
    objective = result.objective
    lines.append(f"# weighted_distortion {records.number(objective.weighted_distortion)}")
    lines.append(f"# discontinuity {records.number(objective.discontinuity)}")
    lines.append(f"# lambda {records.number(objective.lam)}")
    lines.append(f"# total {records.number(objective.total)}")
    lines.append(f"# kkt_residual {records.number(result.kkt_residual)}")
    lines.append(f"# iterations {result.iterations}")
    lines.append(f"# budget_used {records.number(result.budget_used)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_allocation_file(path) -> tuple[dict[FrameCoord, float], dict[str, float]]:
    """Parse rates and diagnostics back from an allocation file."""
    rates: dict[FrameCoord, float] = {}
    diagnostics: dict[str, float] = {}

    def record(line: str) -> None:
        if line[0] != "#":
            u, v, rate = records.fields(line, _RATE_FIELDS, ALLOCATION_HEADER)
            records.put(rates, FrameCoord(u, v), rate, "frame")
        elif line != "# diagnostics":
            name, value = records.fields(line[1:], (str, str), "# name value", sep=None)
            records.put_known(diagnostics, _DIAGNOSTICS, name, value)

    records.read(path, record, ALLOCATION_HEADER, comments=True)
    if not rates:
        raise ParseError(f"{path}: no rate rows")
    return rates, diagnostics


_RATE_FIELDS = (records.integer,) * 2 + (records.finite,)
# allocate writes a finite kkt_residual on every exit; the reader still
# accepts inf.
_DIAGNOSTICS = dict.fromkeys(
    ("weighted_distortion", "discontinuity", "lambda", "total", "iterations", "budget_used"),
    records.finite,
) | {"kkt_residual": records.finite_or_inf}
