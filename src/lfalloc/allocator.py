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
only with kkt_residual at most KKT_TOLERANCE. The certificate is one
least-squares solve over the free weighted frames, which covers every
coupled group at once; the floor frames' sign is then judged by
kkt_residual's rule, as at every other stop.

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
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import errors, records
from .errors import DegenerateWeights, DomainError, InfeasibleBudget, NotConverged, ParseError
from .lightfield import PROXIMITY_RADIUS, FrameCoord, FrameGrid, WeightSet, spiral_order
from .metrics import CostBreakdown, format_cost_breakdown, joint_cost
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

    def _residual_and_magnitudes(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A r + b and, row by row, |coef_i r_i| + |coef_j r_j| + |rhs|, the
        magnitudes of the terms that cancel in it, each term formed once."""
        left = self.coef_i * rates[self.col_i]
        right = self.coef_j * rates[self.col_j]
        return left + right + self.rhs, np.abs(left) + np.abs(right) + np.abs(self.rhs)

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
    raises DomainError, and an SSE past the float range reaches
    joint_cost as inf, which raises its range ValueError."""
    vec = _as_vector(problem, rates)
    if np.any(vec <= 0.0):
        raise DomainError("rate must be positive")
    with np.errstate(over="ignore"):
        sse = problem.alpha * vec ** problem.beta
    return joint_cost(problem.grid, problem.w, sse, problem.lam)


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


# A coding-order rate vector with the penalized objective P there, the
# residual y = A r + b, its norm and the norm of the terms that cancel in it.
_Point = namedtuple("_Point", "rates value residual norm scale")


def _evaluate(problem: AllocationProblem, penalty: ConePenalty, vec: np.ndarray) -> _Point:
    """The _Point of vec, with y and its terms' magnitudes from one pass
    over the pairs."""
    res, magnitudes = penalty._residual_and_magnitudes(vec)
    norm = float(np.linalg.norm(res))
    scale = float(np.linalg.norm(magnitudes))
    distortion = float(np.sum(problem.w * problem.w * problem.alpha * vec ** problem.beta))
    return _Point(vec, distortion + problem.lam * norm, res, norm, scale)


def penalized_objective(problem: AllocationProblem, penalty: ConePenalty, rates) -> float:
    """Post-linearization objective: weighted model distortion plus
    lambda times the norm of the affine consistency residual. It is
    step 2's own evaluation of a point, and does not raise where the
    residual's terms underflow; solve_step2 does."""
    return _evaluate(problem, penalty, _as_vector(problem, rates)).value


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


def _dissection_order(grid: FrameGrid) -> tuple[np.ndarray, int, int]:
    """The coding-order frames in one-level nested dissection order, with
    the sizes of its two sides: the frames on one side of the grid's
    middle PROXIMITY_RADIUS - 1 columns (rows, when the grid is taller
    than wide), then those on the other side, then that separator. No
    coupled pair spans more columns than the separator has, so no pair
    joins the two sides. A grid too narrow to split has an empty side."""
    index = grid.lattice_index
    if grid.height > grid.width:
        index = index.T
    band = PROXIMITY_RADIUS - 1
    middle = max(index.shape[0] - band, 0) // 2
    first, second = index[:middle].ravel(), index[middle + band :].ravel()
    order = np.concatenate((first, second, index[middle : middle + band].ravel()))
    return order, first.size, second.size


def _bordered_gram(penalty: ConePenalty, unit: float, row: np.ndarray) -> np.ndarray:
    """The (n+1) x (n+1) matrix [[A^T A, 1], [1^T, 0]] with A's coefficients
    in units of unit, step 2's power of two nearest the largest of them,
    so that the Gram block does not depend on the SSE unit; A^T A
    accumulated from the pair arrays, and frame f in row and column
    row[f]."""
    n = penalty.n_frames
    size = n + 1
    i, j = row[penalty.col_i], row[penalty.col_j]
    coef_i, coef_j = penalty.coef_i / unit, penalty.coef_j / unit
    cross = coef_i * coef_j
    flat = np.concatenate((i * (size + 1), j * (size + 1), i * size + j, j * size + i))
    values = np.concatenate((coef_i ** 2, coef_j ** 2, cross, cross))
    matrix = np.bincount(flat, values, size * size).reshape(size, size)
    matrix[:n, n] = matrix[n, :n] = 1.0
    return matrix


def _dissected_solver(kkt: np.ndarray, n_first: int, n_second: int):
    """The solver of the whole bordered system kkt, held in dissection
    order with sides of n_first and n_second frames, at kkt's diagonal of
    the moment: it solves each non-empty side block once, with the
    columns that couple the side to the separator and the border (copied
    here, once) and the side's part of the right side as extra right
    sides, then the Schur complement of the separator and the border, and
    then back-substitutes into the sides. A grid too narrow to split has
    an empty side, which is skipped; with both empty, the separator is
    the whole matrix. Its argument and result are in dissection order."""
    sides = [s for s in (slice(0, n_first), slice(n_first, n_first + n_second)) if s.start < s.stop]
    separator = slice(n_first + n_second, kkt.shape[0])
    side_columns = [
        np.column_stack((kkt[side, separator], np.empty(side.stop - side.start))) for side in sides
    ]

    def solve(rhs: np.ndarray) -> np.ndarray:
        solved = []
        for side, columns in zip(sides, side_columns):
            columns[:, -1] = rhs[side]
            solved.append(np.linalg.solve(kkt[side, side], columns))
        reduced = np.column_stack((kkt[separator, separator], rhs[separator]))
        for columns, x in zip(side_columns, solved):
            reduced -= columns[:, :-1].T @ x
        tail = np.linalg.solve(reduced[:, :-1], reduced[:, -1])
        return np.concatenate([x[:, -1] - x[:, :-1] @ tail for x in solved] + [tail])

    return solve


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
    ACTIVE_BOUND spread evenly over the weighted frames, and each step
    keeps the spend. Step 2 starts at the lowest P of three points on the
    face: the expansion point, the warm start and the zero-residual point
    (see the kink below). A later candidate replaces an earlier one only
    where its P is strictly lower, so a tie keeps the expansion point,
    and one at the kink only where the dual certificate proves it
    optimal. Each iteration solves a KKT system on the face, and
    solves it again for each round of floor frames it releases, with the
    Hessian diag(curvature) + (lambda / |y|) A^T A,
    curvature = w^2 alpha beta (beta-1) r^(beta-2) and y = A r + b, whose
    second term is that of the norm's quadratic majorizer at y: unlike the
    norm's own Hessian it keeps the curvature along y, so the step does
    not overshoot near the kink. The system is solved scaled by |y| / lambda,

        [[A^T A + (|y| / lambda) diag(curvature), 1], [1^T, 0]] [d; (|y| / lambda) nu]
            = [-(|y| / lambda) g; 0],

    in one bordered matrix built per call from the pair arrays; after
    that only each iteration's diagonal update writes it. The matrix is
    built in one-level nested dissection order: the frames on one side of
    the grid's middle two columns (rows, when the grid is taller than
    wide), those on the other side, then the two middle columns and the
    border. No pair joins the two sides, so while every frame is free
    each non-empty side block is solved once, with the columns that
    couple it to the separator and the border as extra right sides, then
    the small Schur complement of the separator and the border, and the
    sides are back-substituted; on a grid too narrow to split a side is
    empty, and with both empty the separator is the whole matrix. A
    system with some frame fixed, on the floor or of zero weight, takes
    one dense solve over the free frames in coding order instead.

    That matrix always holds A in units of the power of two nearest its
    largest coefficient, and the weight |y| / lambda is divided by that
    unit squared: |y| once by it before lambda divides it, and once
    through the curvature and gradient it scales. A power of two divides
    exactly, so every alpha times a power of two leaves each Newton
    system bit for bit as it was, and scales the right side of the
    certificate's least-squares system and its solution by that power
    exactly: the rates, iterations and outcome do not depend on the SSE
    unit. The squares of A's coefficients stay normal, and the weight
    overflows only where the system itself would, which allocate reports
    as a problem scale outside floating-point range.

    Frames at min_rate stay fixed while their multiplier is nonnegative;
    zero-weight frames sit at the floor. The step is projected onto the
    feasible set with no frame cut below a quarter of its rate, and
    backtracked until the exact P falls enough (Armijo). The Newton stop
    is unit-free: half the squared decrement at most STEP2_TOL * P or
    below the rounding error of P, with kkt_residual at most
    KKT_TOLERANCE at the full step (at r if that step ends above P at the
    start). The majorizer's decrement understates the excess of P, so
    with unequal marginals the line search runs from r instead.

    The norm has a kink where A r + b = 0, where Newton has no system.
    There its subdifferential is {A^T u : |u| <= 1}, so a point is optimal
    when some u in the unit ball and multiplier mu > 0 give every free
    frame the marginal -(grad_f + lambda A^T u) = mu. The dual certificate
    finds them by one dense least-squares solve over the free frames and
    the border, of its own copy of the bordered matrix with the Gram
    diagonal, with the right side [-grad_f / lambda, 0]: its solution
    [z; mu / lambda] gives u = A z and covers the null direction of every
    coupled group at once. The certificate proves the point optimal when
    |u| <= 1, mu > 0 and the marginal mismatch under u and mu, which
    judges the floor frames as kkt_residual does, is at most
    KKT_TOLERANCE. The zero-residual point is the one budget-face point
    where every weighted frame's tangent takes one value. A start or an
    iterate at the kink stops there, converged only where the certificate
    proves it optimal.

    Every accepted step lowers P, so the result is never above P at the
    start, which is at most P at the expansion point. kkt_residual is the
    marginal mismatch at the result (see the module docstring) unless its
    stop says otherwise. Step 2 stops in one of
    seven ways, and logs which at DEBUG:

        floor spend                converges: the floor spend is the
                                   budget, so every frame on the floor is
                                   the one feasible point; kkt_residual 0
        certified zero residual    converges; kkt_residual the
                                   certificate's mismatch
        Newton decrement           converges
        line search                converges: no decrease found
        iteration cap              raises, after STEP2_MAX_ITERATIONS
        singular Newton system     raises
        uncertified zero residual  raises

    A stop that converges does so only with kkt_residual at most
    KKT_TOLERANCE; every other result raises NotConverged carrying it.
    Each point step 2 visits is evaluated once: P, y, |y| and the norm of
    the terms that cancel in y come from one pass over the pair terms,
    the evaluation penalized_objective reads P from. Consistency terms
    whose squares underflow, where every point would read as the kink,
    raise FloatingPointError where step 2 tests a start candidate or an
    iterate for the kink.
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
    evaluate = functools.partial(_evaluate, problem, penalty)

    def on_face(rates) -> _Point:
        """rates brought onto the budget face, evaluated."""
        vec = project_rates(_as_vector(problem, rates), budget, floor)
        vec[~weighted] = floor
        slack = budget - float(vec.sum())
        if slack > budget * ACTIVE_BOUND:
            vec[weighted] += slack / np.count_nonzero(weighted)
        return evaluate(vec)

    expansion = on_face(penalty.expansion)
    # A is held in units of the power of two nearest its largest
    # coefficient, which divides exactly: the Newton systems stay bit for
    # bit the same when the SSE unit changes by a power of two, and A's
    # squares and |y| / lambda / unit^2 stay in range wherever the system
    # itself is.
    tiny = np.finfo(float).tiny
    largest = float(max(np.abs(penalty.coef_i).max(), np.abs(penalty.coef_j).max()))
    unit = 2.0 ** round(math.log2(largest))
    # The bordered matrix stays accurate where the Hessian alone is nearly
    # singular: along A's null direction once lambda / |y| dwarfs the
    # distortion curvature. That direction (1 / slope) has entries of one
    # sign, so the budget row pins it. The matrix is held in dissection
    # order. With every frame free, every frame is weighted and the grid is
    # one coupled group, so each side block, which meets the separator, is
    # nonsingular, and that direction lives in the Schur block alone.
    order, n_first, n_second = _dissection_order(problem.grid)
    # Each frame's row and column in the bordered matrix.
    row = np.argsort(order)
    kkt = _bordered_gram(penalty, unit, row)
    gram_diagonal = kkt[row, row]
    dissected = _dissected_solver(kkt, n_first, n_second)

    def distortion_derivatives(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grad = w2a * beta * vec ** (beta - 1.0)
        return grad, grad * (beta - 1.0) / vec

    def at_kink(point: _Point) -> bool:
        """Whether y is zero to within rounding of the terms that cancel in
        it. Where their squares underflow, every point would read as the
        kink, so that raises FloatingPointError."""
        if point.scale * point.scale < tiny:
            raise FloatingPointError("underflow encountered in the consistency residual")
        return point.norm <= ROUNDING * point.scale

    def bordered(free) -> np.ndarray:
        """The bordered matrix over the free frames, in coding order, and
        the border."""
        rows = np.append(row[free], n)
        return kkt[np.ix_(rows, rows)]

    def mismatch(vec: np.ndarray, grad_f, u, mu=None) -> float:
        """The marginal mismatch at vec with the norm's subgradient A^T u
        and the budget multiplier mu, by default the mean marginal of the
        free frames."""
        marginal = -(grad_f + lam * penalty.apply_transpose(u))
        free = weighted & (vec > floor)
        if mu is None:
            mu = float(np.mean(marginal[free])) if np.any(free) else 0.0
        return _marginal_mismatch(marginal, grad_f, free, weighted & ~free, mu)

    def kkt_residual_at(point: _Point) -> float:
        """The marginal mismatch at point under u = y / |y|."""
        u = point.residual / point.norm if point.norm > 0.0 else np.zeros(point.residual.size)
        return mismatch(point.rates, distortion_derivatives(point.rates)[0], u)

    def certified(vec: np.ndarray):
        """The marginal mismatch under the dual certificate at a zero
        residual vec, or None unless the certificate proves vec optimal."""
        grad_f = distortion_derivatives(vec)[0]
        free = weighted & (vec > floor)
        gram = bordered(free)
        np.fill_diagonal(gram, np.append(gram_diagonal[free], 0.0))
        target = np.append(-grad_f[free] / lam, 0.0)
        sol = np.linalg.lstsq(gram, target, rcond=None)[0]
        z = np.zeros(n)
        z[free] = sol[:-1] / unit / unit
        u = penalty.coef_i * z[penalty.col_i] + penalty.coef_j * z[penalty.col_j]
        mu = lam * float(sol[-1])
        kkt_residual = mismatch(vec, grad_f, u, mu)
        if np.linalg.norm(u) > 1.0 or mu <= 0.0 or kkt_residual > KKT_TOLERANCE:
            return None
        return kkt_residual

    def newton_direction(grad, weight, free):
        """The Newton step on the face over the free frames, and its budget
        multiplier, from step 2's one system: the bordered matrix, its
        diagonal set by the caller for the scale weight / unit, weight =
        |y| / lambda / unit, which a zero residual or a problem with no
        pair row never reaches; grad and the multiplier are in units of
        unit. With every frame free, the system is solved by dissection;
        with some frame fixed, by one dense solve over the free frames in
        coding order."""
        d = np.zeros(n)
        if free.all():
            sol = dissected(np.append(-weight * grad[order], 0.0))
            d[order] = sol[:-1]
        else:
            sol = np.linalg.solve(bordered(free), np.append(-weight * grad[free], 0.0))
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

    def line_search(base: _Point, grad, d):
        """Backtracking (Armijo) along the projected step, at t = 1, 1/2,
        ..., 2^-59; None when P cannot fall there."""
        for t in (0.5 ** k for k in range(60)):
            candidate = evaluate(projected(base.rates, t * d))
            decrease = base.value - candidate.value
            if decrease > 0.0 and decrease >= -1e-4 * float(grad @ (candidate.rates - base.rates)):
                return candidate
        return None

    def finish(point: _Point, iterations: int, stop: str, kkt_residual=None, settled=True):
        """The result at point, where step 2 stopped by stop; kkt_residual
        is the marginal mismatch there unless given. It raises
        NotConverged, carrying the result, unless the stop settled with
        kkt_residual at most KKT_TOLERANCE."""
        if kkt_residual is None:
            kkt_residual = kkt_residual_at(point)
        log.debug(
            "step2: %d Newton iterations, stopped by %s, kkt_residual %.3e",
            iterations,
            stop,
            kkt_residual,
        )
        result = _result(problem, point.rates, kkt_residual, iterations)
        if settled and kkt_residual <= KKT_TOLERANCE:
            return result
        raise NotConverged(
            f"Newton method stopped by {stop} after {iterations} iterations "
            f"(kkt_residual {kkt_residual:.3e})",
            result=result,
        )

    # The start is the lowest P of the expansion point, the warm start and
    # the zero-residual point, the expansion point on a tie. Newton has no
    # step at the kink, so a candidate there counts only where the
    # certificate proves it optimal.
    point = expansion
    kink = _zero_residual_point(penalty, weighted, budget, floor)
    for candidate in [on_face(warm_start)] + ([] if kink is None else [evaluate(kink)]):
        if candidate.value < point.value:
            if not at_kink(candidate) or certified(candidate.rates) is not None:
                point = candidate
    start_value = point.value

    iterations = 0
    for iterations in range(1, STEP2_MAX_ITERATIONS + 1):
        r = point.rates
        # A frame within rounding of the floor is on it.
        snap = (r > floor) & (r <= floor * (1.0 + ACTIVE_BOUND))
        if np.any(snap):
            r[snap] = floor
            point = evaluate(r)
        free = weighted & (r > floor)
        if not np.any(free):
            # Every step keeps the spend, so the floor spend is the budget
            # to within ACTIVE_BOUND and r is the one feasible point: any
            # multiplier at or above the largest floor marginal holds every
            # frame there.
            return finish(point, iterations, "floor spend", 0.0)
        grad_f, curvature = distortion_derivatives(r)
        if at_kink(point):
            kkt_residual = certified(r)
            if kkt_residual is None:
                return finish(point, iterations, "uncertified zero residual", settled=False)
            return finish(point, iterations, "certified zero residual", kkt_residual)
        grad = grad_f + lam * penalty.apply_transpose(point.residual / point.norm)
        # |y| / lambda / unit^2 is weight times a 1 / unit taken into the
        # curvature and grad it scales, so that weight stays finite wherever
        # their products do; as a numpy scalar it raises on overflow under
        # allocate's errstate.
        weight = np.float64(point.norm) / unit / lam
        kkt[row, row] = gram_diagonal + weight * (curvature / unit)
        try:
            d = active_direction(grad / unit, weight, free)
            # P cannot resolve changes below its rounding error, so neither
            # can the stop.
            resolution = ROUNDING * (point.value + lam * point.scale)
            if -0.5 * float(grad @ d) <= STEP2_TOL * point.value + resolution:
                # A converged Newton step improves P by less than rounding
                # can show; it is kept unless it ends above P at the start.
                # The majorizer's decrement understates the excess of P, so
                # unequal marginals send r to the line search.
                candidate = evaluate(projected(r, d))
                accepted = candidate if candidate.value <= start_value else point
                kkt_residual = kkt_residual_at(accepted)
                if kkt_residual <= KKT_TOLERANCE:
                    return finish(accepted, iterations, "Newton decrement", kkt_residual)
            candidate = line_search(point, grad, d)
        except np.linalg.LinAlgError:
            return finish(point, iterations, "singular Newton system", settled=False)
        if candidate is None:
            return finish(point, iterations, "line search")
        point = candidate
    return finish(point, iterations, "iteration cap", settled=False)


def allocate(problem: AllocationProblem, start=None) -> AllocationResult:
    """Full two-step allocation.

    With lambda zero the step-one answer is already optimal and is
    returned as is; otherwise step two refines it against the consistency
    penalty linearized at the step-one split, from start, a rate per frame
    (a dict, or a vector in coding order) such as an earlier answer to a
    nearby problem, or from the split when start is None or has the
    higher P, so the result is never above P at the split; start changes
    nothing at lambda zero. A problem whose scale overflows, in numpy or
    in a Python float, divides by zero or makes an invalid value anywhere
    in the solve, or underflows the consistency residual's terms, raises
    ValueError instead of warning and going on.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = solve_step1(problem)
            if problem.lam > 0.0:
                penalty = build_cone_penalty(problem, result.rates)
                result = solve_step2(problem, result.rates if start is None else start, penalty)
    except (FloatingPointError, OverflowError) as exc:
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
    records.write(path, lines)


def read_problem_file(path, **overrides) -> AllocationProblem:
    """Parse an allocation problem file.

    Required keys: width, height, budget, lambda, and one frame line per
    grid coordinate. Optional: min_rate and an explicit coding order
    (spiral by default). overrides maps budget, lam or min_rate to a
    value that replaces the file's; None keeps the file's. The problem is
    built once, so a floor that neither gives follows the budget in
    effect. The file's own values are checked as they are read, so an
    override the problem rejects raises its ValueError or InfeasibleBudget,
    which names the quantity and not the file; a problem rejected with no
    override names the file, in a ParseError or, for a floor over the
    budget, an InfeasibleBudget.

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
    # The file's own values passed their converters; without an override
    # only the floor derived from its budget, or its floor over its frames,
    # can fail here. With one, only its weights are the file's to name.
    overridden = any(value is not None for value in overrides.values())
    with errors.named(path, DegenerateWeights) if overridden else errors.named(path):
        weights = WeightSet(raw=dict(zip(grid.coding_order, raw.tolist())))
        return AllocationProblem(
            grid=grid, weights=weights, models=_ModelTable(grid, alpha, beta), **scalars
        )


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
    lines.extend(f"# {line}" for line in format_cost_breakdown(result.objective).splitlines())
    lines.append(f"# kkt_residual {records.number(result.kkt_residual)}")
    lines.append(f"# iterations {result.iterations}")
    lines.append(f"# budget_used {records.number(result.budget_used)}")
    records.write(path, lines)


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
