"""Certified reference solve of lfalloc's linearized allocation problem.

The allocator's step 2 minimizes the penalized objective

    P(r) = sum_f c_f * r_f**beta_f + lam * ||A r + b||,   c_f = w_f^2 * alpha_f,

over {r : r >= min_rate, sum(r) <= budget}, where A r + b is the
consistency term linearized at the water-filling split. This module
solves the same problem without any of the library's solvers:

- water_fill minimizes sum_f c_f r_f**beta_f + q_f r_f over the feasible
  set by bisection on the budget multiplier. With q = 0 it is step 1.
- The primal is solved by a log-barrier method on the second-order-cone
  form  min sum c r**beta + lam * t  s.t.  ||A r + b|| <= t.
- The dual of lam * ||A r + b|| = max_{||u|| <= 1} lam * u.(A r + b) turns
  the inner minimization into water_fill with q = lam * A^T u. For any u
  in the unit ball and any multiplier mu >= 0 the Lagrangian gives a
  rigorous lower bound on the optimum, so P(r) - bound certifies how far
  the reference is from the true optimum.

Only numpy is used; the coupling geometry (L1 proximity radius 3, pair
weight sqrt(delta) * min(w_i, w_j)) follows the model in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Frames at L1 grid distance >= PROXIMITY_RADIUS do not couple.
PROXIMITY_RADIUS = 3


@dataclass(frozen=True)
class LinearProblem:
    """Arrays of one allocation problem, frames in coding order."""

    u: np.ndarray  # grid column per frame
    v: np.ndarray  # grid row per frame
    w: np.ndarray  # unified weights
    alpha: np.ndarray
    beta: np.ndarray
    budget: float
    lam: float
    min_rate: float

    @property
    def c(self) -> np.ndarray:
        return self.w * self.w * self.alpha


@dataclass(frozen=True)
class Pairs:
    """Ordered coupled frame pairs and their gate sqrt(delta) * min(w_i, w_j)."""

    i: np.ndarray
    j: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, prob: LinearProblem) -> "Pairs":
        dist = np.abs(prob.u[:, None] - prob.u[None, :]) + np.abs(prob.v[:, None] - prob.v[None, :])
        delta = np.maximum(0, PROXIMITY_RADIUS - dist)
        np.fill_diagonal(delta, 0)
        i, j = np.nonzero(delta)  # row-major, the order build_cone_penalty uses
        scale = np.sqrt(delta[i, j]) * np.minimum(prob.w[i], prob.w[j])
        return cls(i=i, j=j, scale=scale)


@dataclass(frozen=True)
class ConeSystem:
    """A r + b as aligned arrays: row t is ai[t] r[i[t]] + aj[t] r[j[t]] + b[t]."""

    i: np.ndarray
    j: np.ndarray
    ai: np.ndarray
    aj: np.ndarray
    b: np.ndarray
    n: int

    def residual(self, r: np.ndarray) -> np.ndarray:
        return self.ai * r[self.i] + self.aj * r[self.j] + self.b

    def transpose(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.i, self.ai * y, self.n) + np.bincount(self.j, self.aj * y, self.n)

    def gram(self) -> np.ndarray:
        """Dense A^T A."""
        g = np.zeros((self.n, self.n))
        np.add.at(g, (self.i, self.i), self.ai * self.ai)
        np.add.at(g, (self.j, self.j), self.aj * self.aj)
        np.add.at(g, (self.i, self.j), self.ai * self.aj)
        np.add.at(g, (self.j, self.i), self.ai * self.aj)
        return g


def cone_system(prob: LinearProblem, pairs: Pairs, r0: np.ndarray) -> ConeSystem:
    """Tangent-line linearization of the pair gaps D_i - D_j around r0."""
    a, b = prob.alpha, prob.beta
    slope = a * b * r0 ** (b - 1.0)
    intercept = a * (1.0 - b) * r0 ** b
    s, i, j = pairs.scale, pairs.i, pairs.j
    return ConeSystem(
        i=i, j=j, ai=s * slope[i], aj=-s * slope[j], b=s * (intercept[i] - intercept[j]), n=len(r0)
    )


def distortion_sum(prob: LinearProblem, r: np.ndarray) -> float:
    return float(np.sum(prob.c * r ** prob.beta))


def penalized(prob: LinearProblem, system: ConeSystem, r: np.ndarray) -> float:
    """P(r): weighted model distortion plus lam times the linearized norm."""
    return distortion_sum(prob, r) + prob.lam * float(np.linalg.norm(system.residual(r)))


def true_cost(prob: LinearProblem, pairs: Pairs, r: np.ndarray) -> float:
    """T(r) with the nonlinear model distortions in the consistency term."""
    d = prob.alpha * r ** prob.beta
    gap = pairs.scale * (d[pairs.i] - d[pairs.j])
    return distortion_sum(prob, r) + prob.lam * math.sqrt(float(gap @ gap))


def _frame_minimizers(prob: LinearProblem, slope: np.ndarray) -> np.ndarray:
    """argmin over r >= min_rate of c r**beta + slope r, per frame; slope > 0."""
    with np.errstate(divide="ignore"):
        free = (prob.c * -prob.beta / slope) ** (1.0 / (1.0 - prob.beta))
    return np.maximum(free, prob.min_rate)


def water_fill(prob: LinearProblem, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize sum c r**beta + q.r over r >= min_rate, sum(r) <= budget.

    Returns the rates and the budget multiplier mu >= 0. The bisection on
    mu runs until the bracket stops shrinking in floating point.
    """
    floor_mu = max(0.0, -float(np.min(q)))

    def spend(mu: float) -> float:
        return float(np.sum(_frame_minimizers(prob, q + mu)))

    if floor_mu == 0.0 and np.all(q > 0.0) and spend(0.0) <= prob.budget:
        return _frame_minimizers(prob, q), 0.0
    # Above floor_mu every slope q_f + mu is positive; find hi with spend <= budget.
    step = max(float(np.max(np.abs(q))), float(np.max(prob.c * -prob.beta * prob.min_rate ** (prob.beta - 1.0))))
    lo, hi = floor_mu, floor_mu + step
    while spend(hi) > prob.budget:
        lo, hi = hi, floor_mu + 2.0 * (hi - floor_mu)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if spend(mid) > prob.budget:
            lo = mid
        else:
            hi = mid
    return _frame_minimizers(prob, q + hi), hi


def lower_bound(prob: LinearProblem, system: ConeSystem, u: np.ndarray) -> float:
    """Weak-duality bound on min P for a dual vector u, scaled into the unit ball.

    L(u, mu) = lam u.b - mu budget + sum_f min_{r >= min_rate} (c r**beta + (q_f + mu) r)
    with q = lam A^T u is a valid bound for every mu >= 0 with q + mu > 0;
    mu comes from water_fill, the closed-form per-frame minimizers make the
    sum exact.
    """
    norm = float(np.linalg.norm(u))
    if norm > 1.0:
        u = u / norm
    q = prob.lam * system.transpose(u)
    r, mu = water_fill(prob, q)
    return (
        prob.lam * float(u @ system.b)
        - mu * prob.budget
        + distortion_sum(prob, r)
        + float((q + mu) @ r)
    )


@dataclass(frozen=True)
class Reference:
    rates: np.ndarray
    p: float  # P at rates, an upper bound on the optimum
    bound: float  # certified lower bound on the optimum

    @property
    def certificate(self) -> float:
        """Relative duality gap (P - bound) / P."""
        return (self.p - self.bound) / self.p


def solve_reference(
    prob: LinearProblem, system: ConeSystem, start: np.ndarray, *, rel_gap: float = 1e-9
) -> Reference:
    """Barrier method until the certified relative gap is at most rel_gap.

    The cone form  min phi(x) + kappa t  s.t. ||y(x)|| <= t  gets the barrier
    -log(t^2 - ||y||^2); for a barrier weight s the best t is closed form,
    t = (1 + sqrt(1 + (s kappa)^2 ||y||^2)) / (s kappa), so Newton runs on x
    alone, where the Hessian stays well conditioned as t approaches ||y||.
    Units are scaled: x = r / s_r with s_r the mean per-frame budget, the
    objective divided by P(start), the residual by its norm at start. The
    central-path dual u = y / t feeds lower_bound after every outer step.
    """
    if prob.lam == 0.0:
        r, _ = water_fill(prob, np.zeros_like(start))
        bound = lower_bound(prob, system, np.zeros(len(system.b)))
        return Reference(rates=r, p=penalized(prob, system, r), bound=bound)
    n = len(start)
    s_r = prob.budget / n
    p0 = penalized(prob, system, start)
    y0 = float(np.linalg.norm(system.residual(start))) or 1.0
    beta = prob.beta
    c_hat = prob.c * s_r ** beta / p0
    scaled = ConeSystem(
        i=system.i, j=system.j, ai=system.ai * s_r / y0, aj=system.aj * s_r / y0, b=system.b / y0, n=n
    )
    gram = scaled.gram()
    kappa = prob.lam * y0 / p0
    m_hat = prob.min_rate / s_r
    b_cap = prob.budget / s_r

    def cone_t(rho: float, sk: float) -> float:
        return (1.0 + math.sqrt(1.0 + sk * sk * rho)) / sk

    def barrier(x: np.ndarray, s: float) -> float:
        slack = x - m_hat
        spare = b_cap - float(x.sum())
        if spare <= 0.0 or np.any(slack <= 0.0):
            return math.inf
        y = scaled.residual(x)
        sk = s * kappa
        t = cone_t(float(y @ y), sk)
        return (
            s * float(np.sum(c_hat * x ** beta))
            + sk * t
            - math.log(2.0 * t / sk)  # t^2 - ||y||^2 at the best t
            - float(np.sum(np.log(slack)))
            - math.log(spare)
        )

    x = m_hat + (start / s_r - m_hat) * (1.0 - 1e-3)
    best = None
    s = n + 2.0  # barrier weight; the central-path gap is about (n + 2) / s in scaled units
    for _ in range(40):
        for _ in range(100):
            y = scaled.residual(x)
            rho = float(y @ y)
            sk = s * kappa
            t = cone_t(rho, sk)
            d = 2.0 * t / sk
            g = scaled.transpose(y)
            slack = x - m_hat
            spare = b_cap - float(x.sum())
            grad = s * c_hat * beta * x ** (beta - 1.0) + (2.0 / d) * g - 1.0 / slack + 1.0 / spare
            hess = (2.0 / d) * gram - (4.0 / (d * (t * t + rho))) * np.outer(g, g) + 1.0 / (spare * spare)
            hess[np.diag_indices(n)] += s * c_hat * beta * (beta - 1.0) * x ** (beta - 2.0) + 1.0 / (slack * slack)
            step = np.linalg.solve(hess, -grad)
            decrement = -float(grad @ step)
            if decrement <= 1e-10:
                break
            value = barrier(x, s)
            size = 1.0
            while size >= 1e-12 and barrier(x + size * step, s) > value - 0.25 * size * decrement:
                size *= 0.5
            if size < 1e-12:
                break  # no descent left at this weight in floating point
            x = x + size * step
        r = x * s_r
        y = scaled.residual(x)
        t = cone_t(float(y @ y), s * kappa)
        candidate = Reference(
            rates=r,
            p=penalized(prob, system, r),
            bound=lower_bound(prob, system, y / t),
        )
        if best is None or candidate.certificate < best.certificate:
            best = candidate
        if best.certificate <= rel_gap:
            break
        s *= 8.0
    return best
