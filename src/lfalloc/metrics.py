"""Weighted distortion, view consistency, joint cost, and quality metrics.

Distortion is plain SSE per frame, scaled by the squared unified weight.
The discontinuity term couples nearby frames: every ordered pair closer
than the proximity radius contributes the squared, weight-gated gap
between the two frame SSEs. The joint cost adds lambda times the square
root of that sum to the weighted distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import records
from .errors import DomainError, InsufficientPoints, NoOverlap
from .lightfield import FrameCoord, FrameGrid, WeightSet

# Peak sample value for 8-bit content, used by the wPSNR conversion.
PEAK_SAMPLE_VALUE = 255.0


@dataclass(frozen=True, eq=False)
class DistortionSet:
    """Per-frame sums of squared errors."""

    sse: dict[FrameCoord, float]

    def __post_init__(self):
        if not all(0.0 <= v < math.inf for v in self.sse.values()):
            raise ValueError("SSE values must be nonnegative and finite")


@dataclass(frozen=True)
class CostBreakdown:
    """The joint cost and its two parts."""

    weighted_distortion: float
    discontinuity: float
    lam: float
    total: float


@dataclass(frozen=True)
class RDPoint:
    """One operating point of a rate-quality curve."""

    rate: float
    quality: float


def cost(
    grid: FrameGrid, weights: WeightSet, distortions: DistortionSet, lam: float
) -> CostBreakdown:
    """Joint cost: weighted distortion plus lam times sqrt(discontinuity).

    The discontinuity sums proximity-weighted squared SSE gaps over ordered
    frame pairs: each unordered pair is counted twice (once per direction)
    and a frame is never paired with itself. The smaller of the two unified
    weights gates every pair, so a frame nobody cares about cannot create
    discontinuity.
    """
    w = np.array(grid.align(weights.unified, "weights"))
    return joint_cost(grid, w, np.array(grid.align(distortions.sse, "SSE")), lam)


def joint_cost(grid: FrameGrid, w: np.ndarray, d: np.ndarray, lam: float) -> CostBreakdown:
    """cost() over coding-order vectors of unified weights w and SSE d. A
    lam that is negative or not finite, or a cost that is not finite (a
    sum that overflows, an SSE that is inf or nan), raises ValueError
    instead of giving a cost that is not a number."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("lambda must be nonnegative and finite")
    pairs = grid.coupled_pairs
    gate = np.minimum(w[pairs.i], w[pairs.j])
    with np.errstate(over="ignore", invalid="ignore"):
        wd = float(np.sum(w * w * d))
        disc = float(np.sum(pairs.delta * (gate * (d[pairs.i] - d[pairs.j])) ** 2))
    total = wd + lam * math.sqrt(disc)
    if not math.isfinite(total):
        raise ValueError("problem scale is outside floating-point range")
    return CostBreakdown(weighted_distortion=wd, discontinuity=disc, lam=lam, total=total)


def wpsnr(total_cost: float, pixel_count: int) -> float:
    """Quality in dB from the joint cost spread over all pixels.

    pixel_count is the total pixel count across every frame of the light
    field; one that does not convert to a float raises ValueError. A zero
    cost returns math.inf, the lossless sentinel, instead of raising.
    """
    if pixel_count <= 0:
        raise ValueError("pixel count must be positive")
    try:
        pixels = float(pixel_count)
    except OverflowError:
        raise ValueError("pixel count is outside floating-point range") from None
    if total_cost < 0.0:
        raise DomainError("total cost must be nonnegative")
    if total_cost == 0.0:
        return math.inf
    return 20.0 * math.log10(PEAK_SAMPLE_VALUE / math.sqrt(total_cost / pixels))


def bd_rate(anchor: list[RDPoint], test: list[RDPoint]) -> float:
    """Average rate difference of test over anchor, in percent.

    Classic form: fit log10(rate) as a cubic in quality for each curve,
    integrate both fits in closed form over the shared quality interval,
    and convert the mean log-rate gap back to a percentage. Each cubic is
    fitted in the curve's own scaled quality domain, its quality range
    mapped to [-1, 1], so curves whose qualities lie close together stay
    well conditioned. A percentage outside floating-point range raises
    DomainError.
    """
    curves = []
    for points in (anchor, test):
        if len(points) < 4:
            raise InsufficientPoints(f"need at least 4 points, got {len(points)}")
        if any(p.rate <= 0.0 for p in points):
            raise DomainError("rates must be positive")
        ordered = sorted(points, key=lambda p: p.quality)
        quality = np.array([p.quality for p in ordered])
        if len(np.unique(quality)) < 4:
            raise InsufficientPoints("need at least 4 distinct quality values")
        log_rate = np.log10([p.rate for p in ordered])
        curves.append((quality, log_rate))
    lo = max(quality[0] for quality, _ in curves)
    hi = min(quality[-1] for quality, _ in curves)
    if not hi > lo:
        raise NoOverlap("curves share no quality interval")
    # Imported here, so that `import lfalloc.cli` does not load it.
    from numpy.polynomial import Polynomial

    area_anchor, area_test = (Polynomial.fit(q, y, 3).integ() for q, y in curves)
    avg_gap = (
        (area_test(hi) - area_test(lo)) - (area_anchor(hi) - area_anchor(lo))
    ) / (hi - lo)
    try:
        percent = (10.0 ** float(avg_gap) - 1.0) * 100.0
    except OverflowError:
        percent = math.inf
    if not math.isfinite(percent):
        raise DomainError("rate difference is outside floating-point range")
    return percent


def format_cost_breakdown(breakdown: CostBreakdown) -> str:
    """Structured text form of a cost breakdown."""
    return (
        f"weighted_distortion {records.number(breakdown.weighted_distortion)}\n"
        f"discontinuity {records.number(breakdown.discontinuity)}\n"
        f"lambda {records.number(breakdown.lam)}\n"
        f"total {records.number(breakdown.total)}\n"
    )


CURVE_HEADER = "rate_bits,quality_db"
_CURVE_FIELDS = (records.finite, records.finite)


def write_curve_csv(points: list[RDPoint], path) -> None:
    lines = [CURVE_HEADER]
    lines.extend(f"{records.number(p.rate)},{records.number(p.quality)}" for p in points)
    records.write(path, lines)


def read_curve_csv(path) -> list[RDPoint]:
    def point(line: str) -> RDPoint:
        return RDPoint(*records.fields(line, _CURVE_FIELDS, CURVE_HEADER))

    return records.read(path, point, CURVE_HEADER)


SSE_HEADER = "u,v,sse"
_SSE_FIELDS = (records.integer,) * 2 + (records.nonnegative,)


def write_sse_csv(distortions: DistortionSet, path) -> None:
    lines = [SSE_HEADER]
    lines.extend(f"{c.u},{c.v},{records.number(v)}" for c, v in distortions.sse.items())
    records.write(path, lines)


def read_sse_csv(path) -> DistortionSet:
    sse: dict[FrameCoord, float] = {}

    def record(line: str) -> None:
        u, v, value = records.fields(line, _SSE_FIELDS, SSE_HEADER)
        records.put(sse, FrameCoord(u, v), value, "frame")

    records.read(path, record, SSE_HEADER)
    return DistortionSet(sse=sse)
