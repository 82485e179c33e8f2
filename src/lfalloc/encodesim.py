"""Iterative encode loop against a pluggable encoder adapter.

The loop mirrors a low-delay chain: frames are encoded in coding order
and each frame references the previously coded one. A frame is searched
and pair-fitted unless its quantizer holds. The search runs on the
adapter's monotone quantizer-rate response and finds the quantizer
nearest the frame's target rate, starting from a seed quantizer and
stepping outward in doubling steps until it brackets the target, then
bisecting; that quantizer is the committed encode. The per-frame
power-law model is then refit from two samples at the frame's current
reference, the committed encode and its neighbour on the far side of the
target, which the search has already measured; when those two rates are
equal, the pair reaches out to the first quantizer whose rate differs. A
searched frame costs 2 encoder calls when its seed quantizer is the
answer or next to it.

run_to_convergence is the loop's one entry point. One loop runs every
pass: allocate, encode, then test for a settled pass and for a cycle,
until no quantizer moves. The first pass, with no previous pass and so
no models, is not allocated: it drives each frame toward the uniform
budget share, which stands in for an encoder's default rate control, and
searches every frame, starting from the previous frame's quantizer.

One rule predicts the quantizer a frame will commit: the search's own
nearest-rate rule, run on rates predicted from one encode (qp, rate)
along the log-linear rate-quantizer slope of the frame's last fit
(_predicted_commit). Every decision on whether a frame keeps its
quantizer passes the rule a hold: the previous pass's quantizer for a
re-encoded frame's start, for the lambda-0 retarget test and for the
anticipated commit, and the start for the one-encode confirmation. A
prediction one step from the hold gives way to it when the target's
log2 rate lies within HOLD_BAND quantizer steps of the midpoint between
the two quantizers' predicted log2 rates. Without the band a target
that drifts a hair across that midpoint moves the frame one step, which
forces a re-encode of every later frame in coding order and can keep a
loop cycling. A pass still settles only when every frame commits its
previous quantizer, each by a real encode.

One rule commits every frame (_commit): a frame starts at a quantizer
and may be offered a model with its rate-qp slope.
An offered frame is encoded once at its start, and when the prediction
from that encode keeps the quantizer, the encode is committed: the
offered beta and slope carry over and alpha is rescaled to the encode.
Such a frame costs 1 encoder call, or none when it holds and its
reference did not change either. A frame with no offer, or one the
prediction does not confirm, is searched from its start and pair-fitted;
the one encode is the search's first probe, so a rejected offer costs
no extra call. Each re-encoded frame starts at the prediction made from
its previous pass, and is offered its previous model when that start
lies within CARRY_SPAN quantizers of its previous quantizer and the
model was fitted from a pair unless the quantizer holds. Beta is
carried only across a short move from a fresh pair fit: on a mock whose
log-log slope varies with rate, one carried across long moves, even
from a pair fit, costs rate at equal quality. A loop whose pass repeats
an earlier pass's quantizers, slopes and models is cycling, so it stops
there unconverged.

At lambda 0 the allocation is separable: a frame's target depends only
on its own model and the one budget multiplier, as in the frame-level
step of HM's R-lambda rate control (JCTVC-K0103). So once a frame above
the floor is committed at its real reference, it is retargeted to the
rate at which its measured model's marginal distortion equals the one
the allocation planned at its target. When that moves the predicted
quantizer, the frame is committed again by the same rule, starting at
the new prediction and offered the model just measured. At a fixed
point the measured model is the planned one, so the target is kept.
At lambda > 0 a frame's optimum also depends on its neighbours' models
through the consistency term, and no frame is retargeted.

Each frame's distortion depends on its reference, so moving one frame's
quantizer moves the models of the frames after it. Every pass estimates
per frame a reference elasticity: the change of the frame's log model
SSE per unit change of its reference's log SSE since the pass before.
Before a re-encode the loop anticipates the references the frames will
see: it predicts by the same rule the quantizer each frame will commit
at its allocated rate, and so the SSE of each reference, scales each
frame's alpha by the predicted change of its reference's SSE raised to
the elasticity, and allocates again, for a few rounds. That costs no
encodes. Where every frame holds its quantizer every scale is 1, so the
loop keeps its fixed points; it usually reaches one in fewer passes.

Encoding is deterministic in (coord, qp, ref_state), so
run_to_convergence encodes each such triple at most once per run: it
memoizes the adapter's encode_frame with functools.cache, and that memo,
private to the run, answers every repeat, whether it comes from a fit
reading the search's samples again or from a later pass that returns to
the same quantizers and references. The memo's cache_info() counts the
encodes (misses) and cache hits that the trace and the INFO log report.

mock_encode supplies a deterministic closed-form encoder for the whole
loop: rate halves every rate_qp_halving quantizer steps, and SSE follows
a hidden per-frame power law in rate, optionally curved in log-log
space, inflated by the reference frame's SSE when the dependency gain is
positive.

write_trace_csv writes the loop's IterationTrace; read_trace_csv reads
the file back as a ParsedTrace.
"""
from __future__ import annotations

import functools
import logging
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from . import errors, records
from .allocator import AllocationProblem, AllocationResult, _ModelTable, allocate
from .errors import EncodeFailed, InsufficientSamples, NotConverged, ParseError
from .lightfield import FrameCoord, FrameGrid, WeightSet, spiral_order
from .metrics import CostBreakdown, joint_cost, wpsnr
from .rdmodel import RDModelParams, RDSample, fit_power_model

log = logging.getLogger("lfalloc.encodesim")

QP_MIN = 0
QP_MAX = 51

# Re-allocations against reference-corrected models before each re-encode.
ANTICIPATION_ROUNDS = 4

# A reference whose log SSE moved by no more than this between two passes
# leaves the frame's reference elasticity as it was.
ELASTICITY_MIN_SHIFT = 1e-3

# Widest quantizer move, from a pair-fitted previous commit, that a frame
# may make on one encode with its beta and rate-qp slope carried over.
CARRY_SPAN = 3

# Half-width, in quantizer steps of log2 rate, of the band around the
# midpoint between a frame's held quantizer and a neighbour inside which
# the frame keeps the held one (_predicted_commit).
HOLD_BAND = 0.15


class EncoderAdapter(ABC):
    """Seam between the allocation loop and a real or simulated encoder.

    encode_frame must be deterministic in (coord, qp, ref_state), with
    rate non-increasing and SSE non-decreasing in qp at a fixed reference.
    ref_state must be hashable and advance_reference deterministic, so
    that a run_to_convergence run can encode each triple once; the
    default float state meets both. Trial compressions call encode_frame
    without advancing the reference, so they can never change the actual
    output.
    """

    def initial_reference(self) -> Any:
        return 0.0

    def advance_reference(self, ref_state: Any, rate: float, sse: float) -> Any:
        return sse

    @abstractmethod
    def encode_frame(self, coord: FrameCoord, qp: int, ref_state: Any) -> tuple[float, float]:
        """Encode one frame; returns (rate in bits, SSE)."""

    @property
    @abstractmethod
    def total_pixels(self) -> int:
        """Total pixel count across all frames, for wPSNR."""


@dataclass(frozen=True, eq=False)
class MockEncoderConfig:
    """Parameters of the deterministic mock encoder."""

    frame_params: dict[FrameCoord, tuple[float, float]]  # hidden (a, b) per frame
    qp_anchor: int = 30
    rate_anchor: float = 1e6
    dependency_gamma: float = 0.0
    ref_norm: float = 1e6
    rate_qp_halving: float = 6.0
    frame_pixels: int = 271_250
    curvature: float = 0.0

    def __post_init__(self):
        if not self.frame_params:
            raise ValueError("frame_params must not be empty")
        for coord, (a, b) in self.frame_params.items():
            if not (0.0 < a < math.inf and -math.inf < b < 0.0):
                raise ValueError(f"frame ({coord.u},{coord.v}) needs finite a > 0 and b < 0")
        if not (0.0 < self.rate_anchor < math.inf and 0.0 < self.ref_norm < math.inf):
            raise ValueError("rate_anchor and ref_norm must be positive and finite")
        if not 0.0 <= self.dependency_gamma < math.inf:
            raise ValueError("dependency_gamma must be nonnegative and finite")
        if not 0.0 < self.rate_qp_halving < math.inf:
            raise ValueError("rate_qp_halving must be positive and finite")
        if self.frame_pixels <= 0:
            raise ValueError("frame_pixels must be positive")
        if not 0.0 <= self.curvature < math.inf:
            raise ValueError("curvature must be nonnegative and finite")


def mock_encode(
    config: MockEncoderConfig, coord: FrameCoord, qp: int, ref_sse: float
) -> tuple[float, float]:
    """Closed-form stand-in for a real encoder.

    rate = rate_anchor * 2**(-(qp - qp_anchor) / rate_qp_halving)
    sse  = a * rate**b * exp(curvature * ln(rate / rate_anchor)**2)
             * (1 + gamma * ref_sse / ref_norm)

    A positive curvature makes the log-log slope of SSE against rate vary
    with rate; at zero the law is an exact power law. A rate or SSE that
    over- or underflows raises ValueError.
    """
    a, b = config.frame_params[coord]
    try:
        rate = config.rate_anchor * 2.0 ** (-(qp - config.qp_anchor) / config.rate_qp_halving)
        if 0.0 < rate < math.inf:
            bend = math.exp(config.curvature * math.log(rate / config.rate_anchor) ** 2)
            sse = a * rate ** b * bend * (1.0 + config.dependency_gamma * ref_sse / config.ref_norm)
            if 0.0 < sse < math.inf:
                return rate, sse
    except OverflowError:
        pass
    raise ValueError(
        f"mock encode of frame ({coord.u},{coord.v}) at qp {qp} is outside floating-point range"
    )


class MockEncoder(EncoderAdapter):
    """EncoderAdapter over mock_encode."""

    def __init__(self, config: MockEncoderConfig):
        self.config = config

    def encode_frame(self, coord: FrameCoord, qp: int, ref_state: Any) -> tuple[float, float]:
        if not QP_MIN <= qp <= QP_MAX:
            raise EncodeFailed(f"qp {qp} outside [{QP_MIN}, {QP_MAX}]")
        if coord not in self.config.frame_params:
            raise EncodeFailed(f"no mock parameters for frame ({coord.u},{coord.v})")
        return mock_encode(self.config, coord, qp, float(ref_state))

    @property
    def total_pixels(self) -> int:
        return self.config.frame_pixels * len(self.config.frame_params)


@dataclass(frozen=True, eq=False)
class IterationEntry:
    """Everything one pass over the sequence produced.

    qp_slopes holds each frame's slope of log2(rate) against qp through
    its two fit samples, carried over unchanged for a frame committed
    on one encode, whose model has sample_count 1. _predicted_commit reads
    it for the next pass's search seed, one-encode confirmation and
    anticipated commit. ref_elasticities holds each frame's reference
    elasticity, the change of its log model SSE per unit change of its
    reference's log SSE over the last two passes, clamped to [0, 1] (0 for
    the first frame and throughout the first pass); the next allocation
    uses it to anticipate the reference the frame will see. retargets maps
    each frame re-encoded toward a new target within the pass (lambda 0
    only) to that target rate. All three are kept in memory only and are
    not part of the trace file.
    """

    qps: dict[FrameCoord, int]
    rates: dict[FrameCoord, float]
    sses: dict[FrameCoord, float]
    models: dict[FrameCoord, RDModelParams]
    cost: CostBreakdown
    wpsnr_db: float
    qp_slopes: dict[FrameCoord, float]
    ref_elasticities: dict[FrameCoord, float]
    retargets: dict[FrameCoord, float]


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Ordered record of every pass plus the convergence flag.

    encodes counts the calls that reached the adapter's encode_frame and
    cache_hits the encodes answered from the run's memo (its cache_info()
    misses and hits); both are kept in memory only and are not part of
    the trace file.
    """

    grid: FrameGrid
    entries: list[IterationEntry]
    converged: bool
    encodes: int = 0
    cache_hits: int = 0


# An adapter's encode_frame, or the run's memo of it.
_Encode = Callable[[FrameCoord, int, Any], tuple[float, float]]


def trial_sweep(
    adapter: EncoderAdapter,
    coord: FrameCoord,
    center_qp: int,
    k: int,
    ref_state: Any,
) -> list[RDSample]:
    """Measure 2k+1 quantizer points around center_qp, clamped to the
    valid range, at the frame's current reference state."""
    if k < 1:
        raise ValueError("sweep half-width must be at least 1")
    lo = max(QP_MIN, center_qp - k)
    hi = min(QP_MAX, center_qp + k)
    samples = []
    for qp in range(lo, hi + 1):
        rate, sse = adapter.encode_frame(coord, qp, ref_state)
        samples.append(RDSample(qp=qp, rate=rate, sse=sse))
    return samples


def _qp_for_target(rate_at: Callable[[int], float], target_rate: float, start: int) -> int:
    """Quantizer choice on the monotone rate response rate_at(qp).

    Returns what a bisection over the whole range returns: QP_MIN when
    its rate is at most the target, else QP_MAX when its rate exceeds
    the target, else whichever of the smallest qp whose rate is at most
    the target and its lower neighbour lies nearer the target (ties to
    the lower, which favors quality). The search starts at `start` and
    steps outward in doubling steps until the target is bracketed (the
    unbounded search of Bentley and Yao, 1976), then bisects, so a start
    next to the answer costs two encodes instead of a full-range
    bisection.
    """
    # Bracket the answer: rate(lo) > target >= rate(hi).
    rate = rate_at(start)
    lo = hi = start
    rate_lo = rate_hi = rate
    step = 1
    if rate > target_rate:
        while rate_hi > target_rate:
            if hi == QP_MAX:
                return QP_MAX
            lo, rate_lo = hi, rate_hi
            hi = min(QP_MAX, hi + step)
            rate_hi = rate_at(hi)
            step *= 2
    else:
        while rate_lo <= target_rate:
            if lo == QP_MIN:
                return QP_MIN
            hi, rate_hi = lo, rate_lo
            lo = max(QP_MIN, lo - step)
            rate_lo = rate_at(lo)
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rate = rate_at(mid)
        if rate > target_rate:
            lo, rate_lo = mid, rate
        else:
            hi, rate_hi = mid, rate
    if abs(rate_lo - target_rate) <= abs(rate_hi - target_rate):
        return lo
    return hi


def _predicted_commit(
    qp: int, rate: float, slope: float, target_rate: float, hold: int | None = None
) -> int:
    """The quantizer _qp_for_target would commit at target_rate, predicted
    from one encode, held at hold through a near tie.

    The search runs on rates predicted from (qp, rate) along the log2
    rate-qp slope, starting at qp. Without a negative slope qp is kept.
    An answer one quantizer from hold gives way to hold when the target's
    log2 rate lies within HOLD_BAND quantizer steps (|slope| each) of the
    midpoint between the two quantizers' predicted log2 rates, so a target
    that drifts a hair across that midpoint does not move the frame.
    """
    if not slope < 0.0:
        return qp
    answer = _qp_for_target(lambda q: rate * 2.0 ** (slope * (q - qp)), target_rate, qp)
    if hold is not None and abs(answer - hold) == 1:
        midpoint = math.log2(rate) + slope * ((answer + hold) / 2 - qp)
        if abs(math.log2(target_rate) - midpoint) <= -slope * HOLD_BAND:
            return hold
    return answer


def _fit_samples(
    encode: _Encode, coord: FrameCoord, qp: int, target_rate: float, ref_state: Any
) -> list[RDSample]:
    """Samples a searched frame's model is fitted from, all at its current reference.

    The committed encode at qp and its neighbour on the far side of the
    target (the inner neighbour at either end of the range), which the
    quantizer search has measured. When the neighbour's rate equals the
    commit's, the pair widens: outward on that side to the first
    quantizer whose rate differs, then on the other side. A rate that is
    the same at every quantizer raises InsufficientSamples. A frame whose
    offer _commit confirms needs none of these: its one encode rescales
    the offered model's alpha.
    """
    rate, sse = encode(coord, qp, ref_state)
    step = 1 if rate > target_rate else -1
    for side in (step, -step):
        other = qp + side
        while QP_MIN <= other <= QP_MAX:
            other_rate, other_sse = encode(coord, other, ref_state)
            if other_rate != rate:
                pair = [RDSample(qp, rate, sse), RDSample(other, other_rate, other_sse)]
                return sorted(pair, key=lambda s: s.qp)
            other += side
    raise InsufficientSamples(f"frame ({coord.u},{coord.v}): rate {rate!r} at every quantizer")


class _Commit(NamedTuple):
    """A frame's committed encode, its model and its log2 rate-qp slope."""

    qp: int
    rate: float
    sse: float
    model: RDModelParams
    slope: float


def _commit(
    encode: _Encode,
    coord: FrameCoord,
    target_rate: float,
    start: int,
    ref_state: Any,
    offer: tuple[RDModelParams, float] | None,
) -> _Commit:
    """The frame's committed encode toward target_rate, from quantizer start.

    An offer is a model and its log2 rate-qp slope. With one, the frame is
    encoded once at start, and that encode is committed when the slope is
    negative and _predicted_commit from it, holding start through a near
    tie (HOLD_BAND), keeps start: the offered beta and slope carry over
    and alpha is rescaled to the encode. Otherwise, or with no offer, the
    quantizer nearest target_rate is searched from start (_qp_for_target),
    whose first probe is that one encode, and the model and slope are
    fitted from _fit_samples.
    """
    if offer is not None:
        model, slope = offer
        rate, sse = encode(coord, start, ref_state)
        if slope < 0.0 and _predicted_commit(start, rate, slope, target_rate, start) == start:
            return _Commit(start, rate, sse, replace(model, alpha=sse / rate ** model.beta), slope)
    qp = _qp_for_target(lambda q: encode(coord, q, ref_state)[0], target_rate, start)
    samples = _fit_samples(encode, coord, qp, target_rate, ref_state)
    low, high = samples
    slope = (math.log2(high.rate) - math.log2(low.rate)) / (high.qp - low.qp)
    committed = low if low.qp == qp else high
    return _Commit(qp, committed.rate, committed.sse, fit_power_model(samples), slope)


def _retarget(planned: RDModelParams, target_rate: float, measured: RDModelParams) -> float:
    """The rate at which measured's marginal distortion equals planned's at
    target_rate: alpha_m |beta_m| t**(beta_m - 1) = alpha_p |beta_p| target**(beta_p - 1).

    The frame's weight squared multiplies both sides and cancels. Computed
    from ratios, so a measured model equal to the planned one returns
    target_rate exactly; a rate outside floating-point range keeps it too.
    """
    exponent = 1.0 / (measured.beta - 1.0)
    price = (planned.alpha / measured.alpha) * (planned.beta / measured.beta)
    try:
        return target_rate ** ((planned.beta - 1.0) * exponent) * price ** exponent
    except ArithmeticError:
        return target_rate


def _reference_elasticities(
    grid: FrameGrid,
    previous: IterationEntry | None,
    models: dict[FrameCoord, RDModelParams],
    rates: dict[FrameCoord, float],
    sses: dict[FrameCoord, float],
) -> dict[FrameCoord, float]:
    """Each frame's reference elasticity after a pass that followed previous.

    For frame i > 0 in coding order: the change of log model SSE at the
    frame's new rate, from the previous model to the new one, over the
    change of log SSE of frame i-1, clamped to [0, 1]. It is re-estimated
    only when that reference's log SSE moved by more than
    ELASTICITY_MIN_SHIFT; otherwise the previous estimate is kept. The
    first frame reads 0, and so does every frame of the first pass.
    """
    order = grid.coding_order
    elasticities = dict.fromkeys(order, 0.0)
    if previous is None:
        return elasticities
    for ref, coord in zip(order, order[1:]):
        elasticity = previous.ref_elasticities[coord]
        ref_shift = math.log(sses[ref] / previous.sses[ref])
        if abs(ref_shift) > ELASTICITY_MIN_SHIFT:
            new, old = models[coord], previous.models[coord]
            log_rate = math.log(rates[coord])
            shift = math.log(new.alpha / old.alpha) + (new.beta - old.beta) * log_rate
            elasticity = min(1.0, max(0.0, shift / ref_shift))
        elasticities[coord] = elasticity
    return elasticities


def _encode_pass(
    adapter: EncoderAdapter,
    encode: _Encode,
    problem: AllocationProblem,
    targets: dict[FrameCoord, float],
    previous: IterationEntry | None,
    planned: Mapping[FrameCoord, RDModelParams] | None = None,
) -> IterationEntry:
    """One pass over problem's grid in coding order toward targets, a rate
    per frame (IncompleteInput names a frame it misses), scored at its w and lam.

    Every frame is committed by _commit, from a start quantizer and an
    optional offer of a model and its slope. The start is predicted by
    _predicted_commit from the previous pass, holding the previous pass's
    qp through a near tie (HOLD_BAND), or in the first pass
    (previous None) it is the previous frame's answer (the middle of the
    range for the first frame). The previous pass offers its model, as
    one of sample_count 1, and slope when the start moves at most
    CARRY_SPAN from its qp, from a pair fit unless the qp holds; the
    first pass offers nothing, so every frame is searched. Encoding is
    deterministic in (coord, qp, ref_state), so the search's measurement
    is the committed encode. With planned, the models the targets were
    allocated against, a frame whose target lies above problem.min_rate
    is then retargeted (_retarget) from the model just measured at its
    real reference; when _predicted_commit at the new target moves its
    quantizer, _commit runs again toward the new target from there,
    offered the measured model and slope. That prediction holds the
    previous pass's qp, not the commit's, so a frame whose first commit
    moved one step returns when its retarget lies within the band of
    that qp. The reference is the same, so the measured beta and slope
    carry exactly. Then the chain advances.
    After the pass, each frame's reference elasticity is estimated from
    the change since previous. Every encode goes through encode, and the
    adapter gives only the reference chain and total_pixels. A search's
    samples are read again by the fit, and a rejected offer's encode
    again by the search, so pass a memo of the adapter's encode_frame to
    encode each triple once. RDSample or RDModelParams checks every SSE.
    """
    grid = problem.grid
    ref = adapter.initial_reference()
    qp = (QP_MIN + QP_MAX) // 2
    qps, rates, sses, models, slopes, retargets = {}, {}, {}, {}, {}, {}
    for coord, target in zip(grid.coding_order, grid.align(targets, "targets")):
        with errors.named(f"frame ({coord.u},{coord.v})", EncodeFailed):
            offer = held = None
            if previous is not None:
                held = previous.qps[coord]
                model, slope = previous.models[coord], previous.qp_slopes[coord]
                qp = _predicted_commit(held, previous.rates[coord], slope, target, held)
                shift = abs(qp - held)
                if shift <= CARRY_SPAN and (not shift or model.sample_count == 2):
                    offer = replace(model, sample_count=1), slope
            commit = _commit(encode, coord, target, qp, ref, offer)
            # A floor frame is not where its marginal meets the budget multiplier.
            if planned is not None and target > problem.min_rate:
                retarget = _retarget(planned[coord], target, commit.model)
                qp = _predicted_commit(commit.qp, commit.rate, commit.slope, retarget, held)
                if qp != commit.qp:
                    retargets[coord] = retarget
                    offer = commit.model, commit.slope
                    commit = _commit(encode, coord, retarget, qp, ref, offer)
        qp = qps[coord] = commit.qp
        rates[coord] = commit.rate
        sses[coord] = commit.sse
        models[coord] = commit.model
        slopes[coord] = commit.slope
        ref = adapter.advance_reference(ref, commit.rate, commit.sse)
    breakdown = joint_cost(grid, problem.w, np.array(list(sses.values())), problem.lam)
    return IterationEntry(
        qps=qps,
        rates=rates,
        sses=sses,
        models=models,
        cost=breakdown,
        wpsnr_db=wpsnr(breakdown.total, adapter.total_pixels),
        qp_slopes=slopes,
        ref_elasticities=_reference_elasticities(grid, previous, models, rates, sses),
        retargets=retargets,
    )


def run_to_convergence(
    adapter: EncoderAdapter,
    grid: FrameGrid,
    weights: WeightSet,
    budget: float,
    lam: float,
    max_iters: int,
    *,
    min_rate: float | None = None,
) -> IterationTrace:
    """Alternate allocation and re-encoding until no quantizer moves.

    Budget, lambda and min_rate are checked by AllocationProblem's rules
    before the first encode. One loop runs every pass: the allocation,
    _encode_pass, the INFO line, the settle test and the _pass_state
    cycle record. The first pass, the one with no previous pass, is not
    allocated: it drives every frame toward the uniform share budget /
    n_frames and cannot settle. Each re-encode pass targets the
    allocation against the previous pass's models, corrected by
    _anticipated for the reference each frame is predicted to see; the
    first two passes are never corrected, since the first pass leaves
    every reference elasticity at 0. Each allocation is offered the one
    before it as allocate's start (the first, the uniform share), which
    moves its P only within step 2's tolerance. At lambda 0 the allocation is
    separable, so each frame above the floor is retargeted within the
    pass from the model measured at its real reference (_encode_pass);
    floor frames, zero-weight ones among them, and every frame at lambda
    > 0 keep their targets. The per-pass INFO line counts the pass's new
    encoder calls and cache hits (the growth of the memo's cache_info()
    misses and hits; see below) and, for
    a re-encode pass, the quantizers that moved, the frames committed on
    one encode, the frames retargeted and the targets outside the
    quantizer range (committed at QP_MAX above the target or at QP_MIN
    below it).
    Settled means the pass committed the previous pass's quantizer for
    every frame; under the adapter's determinism contract it then repeats
    the previous pass's encodes exactly. Hitting max_iters first, or a
    pass that repeats an earlier pass's _pass_state (its quantizers,
    slopes and models, so the loop cycles), leaves converged False; the
    trace is returned either way. An allocator that runs out of
    iterations contributes its best feasible iterate instead of aborting
    the loop. The adapter's encode_frame is memoized with functools.cache
    for the call, so it sees each (coord, qp, ref_state) at most once.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    # This problem scores each pass and holds the floor no frame under it is
    # retargeted from; _anticipated swaps each pass's models into it, so the
    # placeholder models only let it check the scalars up front.
    ones = np.ones(grid.n_frames)
    placeholder = _ModelTable(grid, ones, -ones)
    problem = AllocationProblem(grid, weights, placeholder, budget, lam, min_rate)
    encode = functools.cache(adapter.encode_frame)
    targets = dict.fromkeys(grid.coding_order, budget / grid.n_frames)
    entries, seen, converged = [], {}, False
    previous = planned = None
    info = encode.cache_info()
    for index in range(1, max_iters + 1):
        if previous is not None:
            allocation, models = _anticipated(problem, previous, targets)
            targets = allocation.rates
            # Only a lambda-0 allocation is separable, so only its frames are
            # retargeted from the models they were allocated against.
            planned = None if lam else models
        entry = _encode_pass(adapter, encode, problem, targets, previous, planned)
        entries.append(entry)
        before, info = info, encode.cache_info()
        text = "iteration %d: cost %.6g, %d encoder calls, %d cache hits"
        counts = [index, entry.cost.total, info.misses - before.misses, info.hits - before.hits]
        if previous is not None:
            text += (
                ", %d quantizers moved, %d committed on one encode, %d retargeted, "
                "%d targets outside the quantizer range"
            )
            counts += [
                sum(qp != previous.qps[coord] for coord, qp in entry.qps.items()),
                sum(model.sample_count == 1 for model in entry.models.values()),
                len(entry.retargets),
                _out_of_range(entry, targets | entry.retargets),
            ]
        log.info(text, *counts)
        if previous is not None and entry.qps == previous.qps:
            converged = True
            break
        state = _pass_state(grid, entry)
        if state in seen:
            message = "iteration %d repeats iteration %d: the loop cycles with period %d"
            log.warning(message, index, seen[state], index - seen[state])
            break
        seen[state] = index
        previous = entry
    log.info("encoder calls %d, cache hits %d", info.misses, info.hits)
    return IterationTrace(grid, entries, converged, encodes=info.misses, cache_hits=info.hits)


def _reference_scales(
    grid: FrameGrid, previous: IterationEntry, targets: dict[FrameCoord, float]
) -> np.ndarray:
    """Per frame in coding order, the factor on alpha for the reference it
    is predicted to see.

    Walks the coding order. A frame's factor is its reference's predicted
    SSE ratio raised to the frame's reference elasticity. The frame is
    predicted to commit _predicted_commit at its target, at its previous
    rate moved along its rate-qp slope, holding its previous qp through a
    near tie (HOLD_BAND) as the pass will, so its own SSE ratio is its
    factor times (rate ratio)**beta. A frame that holds its qp passes its
    factor on unchanged, so when every frame holds every factor is 1.
    """
    scales = np.empty(grid.n_frames)
    ref_ratio = 1.0
    for i, coord in enumerate(grid.coding_order):
        scale = scales[i] = ref_ratio ** previous.ref_elasticities[coord]
        qp, slope = previous.qps[coord], previous.qp_slopes[coord]
        shift = _predicted_commit(qp, previous.rates[coord], slope, targets[coord], qp) - qp
        rate_ratio = 2.0 ** (slope * shift)
        ref_ratio = scale * rate_ratio ** previous.models[coord].beta
    return scales


def _anticipated(
    problem: AllocationProblem, previous: IterationEntry, start=None
) -> tuple[AllocationResult, _ModelTable]:
    """Allocation against previous's models corrected for the references of
    the next pass, and the corrected models it was made against, which
    _encode_pass retargets from at lambda 0.

    Round 0 allocates against the models as they are, offered start (the
    targets of the pass that made previous) as allocate's start. Each of
    up to ANTICIPATION_ROUNDS more rounds scales each frame's alpha by
    _reference_scales at the last round's targets and allocates again,
    against a table over the scaled alpha vector and previous's beta,
    offered the last round's rates. It stops early when the scales repeat,
    so a state where every frame holds keeps the plain allocation. An
    allocator that runs out of iterations gives its best feasible iterate.
    Costs no encodes.
    """
    grid = problem.grid
    models = grid.align(previous.models, "models")
    alpha, beta = np.array([m.alpha for m in models]), np.array([m.beta for m in models])
    scales = np.ones(grid.n_frames)
    for round_ in range(ANTICIPATION_ROUNDS + 1):
        table = _ModelTable(grid, alpha * scales, beta)
        try:
            allocation = allocate(replace(problem, models=table), start)
        except NotConverged as exc:
            log.warning("allocator did not fully converge; using best iterate")
            allocation = exc.result
        start = allocation.rates
        if round_ == ANTICIPATION_ROUNDS:
            break
        update = _reference_scales(grid, previous, allocation.rates)
        if np.array_equal(update, scales):
            break
        scales = update
    return allocation, table


def _out_of_range(entry: IterationEntry, targets: dict[FrameCoord, float]) -> int:
    """Frames whose target no quantizer reaches: committed at QP_MAX above it
    or at QP_MIN below it."""
    return sum(
        (qp == QP_MAX and entry.rates[coord] > targets[coord])
        or (qp == QP_MIN and entry.rates[coord] < targets[coord])
        for coord, qp in entry.qps.items()
    )


def _pass_state(grid: FrameGrid, entry: IterationEntry) -> tuple:
    """Per frame, what the next pass reads of a pass apart from the
    reference elasticities: the qps, which fix the rates since encoding is
    deterministic, the slopes and the models. The elasticities are fitted
    over the last two passes, so in a cycle they repeat a pass after the
    rest; holding them here would run a cycling loop on for that pass."""
    tables = (entry.qps, entry.qp_slopes, entry.models)
    return tuple(zip(*(grid.align(table, "pass") for table in tables)))


@dataclass(frozen=True, eq=False)
class MockSetup:
    """A mock encoder configuration bound to its grid and weights."""

    config: MockEncoderConfig
    grid: FrameGrid
    weights: WeightSet


MOCK_FRAME_FIELDS = "u,v,a,b[,weight]"


def write_mock_config(setup: MockSetup, path) -> None:
    config = setup.config
    lines = [
        f"width: {setup.grid.width}",
        f"height: {setup.grid.height}",
        f"qp0: {config.qp_anchor}",
        f"rate0: {records.number(config.rate_anchor)}",
        f"gamma: {records.number(config.dependency_gamma)}",
        f"ref_norm: {records.number(config.ref_norm)}",
        f"rate_qp_halving: {records.number(config.rate_qp_halving)}",
        f"frame_pixels: {config.frame_pixels}",
        f"curvature: {records.number(config.curvature)}",
    ]
    params = setup.grid.align(config.frame_params, "mock parameters")
    raw = setup.grid.align(setup.weights.raw, "weights")
    for c, (a, b), weight in zip(setup.grid.coding_order, params, raw):
        lines.append(f"frame: {c.u},{c.v}," + ",".join(map(records.number, (a, b, weight))))
    records.write(path, lines)


def read_mock_config(path) -> MockSetup:
    """Parse a mock encoder configuration.

    Frame lines carry u,v,a,b and an optional raw weight (default 1), so
    one file fully describes a simulation's encoder, grid, and weights.
    An optional key left out keeps MockEncoderConfig's default.
    """
    values, (u, v, a, b, weight) = records.key_values(
        path, _MOCK_KEYS, (), _MOCK_FRAME, MOCK_FRAME_FIELDS, defaults=("1",)
    )
    width, height = values.pop("width"), values.pop("height")
    # Both tables keep the order of the frame lines.
    coords = list(map(FrameCoord, u.tolist(), v.tolist()))
    with errors.named(path):
        config = MockEncoderConfig(
            frame_params=dict(zip(coords, zip(a.tolist(), b.tolist()))),
            **{_MOCK_FIELDS.get(key, key): value for key, value in values.items()},
        )
        weights = WeightSet(raw=dict(zip(coords, weight.tolist())))
    return MockSetup(config=config, grid=spiral_order(width, height), weights=weights)


_MOCK_FRAME = (records.integer,) * 2 + (records.positive, records.negative, records.nonnegative)
_MOCK_KEYS = dict.fromkeys(("rate0", "ref_norm", "rate_qp_halving"), records.positive)
_MOCK_KEYS.update(gamma=records.nonnegative, curvature=records.nonnegative)
_MOCK_KEYS.update(qp0=records.integer, frame_pixels=records.positive_integer)
# Keys whose MockEncoderConfig field has another name; the rest share it.
_MOCK_FIELDS = {"qp0": "qp_anchor", "rate0": "rate_anchor", "gamma": "dependency_gamma"}


TRACE_HEADER = "iteration,u,v,qp,rate_bits,sse,alpha,beta"


@dataclass(frozen=True, eq=False)
class ParsedTraceIteration:
    """File-level form of one pass: raw rows plus the summary pair."""

    rows: list[tuple[int, int, int, float, float, float, float]]  # u,v,qp,rate,sse,alpha,beta
    total_cost: float
    wpsnr_db: float


@dataclass(frozen=True, eq=False)
class ParsedTrace:
    """A trace file as read_trace_csv reads it."""

    iterations: list[ParsedTraceIteration]
    converged: bool


def write_trace_csv(trace: IterationTrace, path) -> None:
    """The loop's trace as text: each pass's rows, one per frame in coding
    order, closed by a commented summary row, then the convergence flag."""
    grid = trace.grid
    lines = [TRACE_HEADER]
    for index, entry in enumerate(trace.entries, 1):
        tables = (entry.qps, entry.rates, entry.sses, entry.models)
        for c, qp, rate, sse, m in zip(grid.coding_order, *(grid.align(t, "pass") for t in tables)):
            values = rate, sse, m.alpha, m.beta
            lines.append(f"{index},{c.u},{c.v},{qp}," + ",".join(map(records.number, values)))
        lines.append(
            f"# iteration {index} total_cost {records.number(entry.cost.total)} "
            f"wpsnr {records.number(entry.wpsnr_db)}"
        )
    lines.append(f"# converged {str(trace.converged).lower()}")
    records.write(path, lines)


def read_trace_csv(path) -> ParsedTrace:
    """Parse a trace; a frame repeated within a pass is named at its second row."""
    iterations: list[ParsedTraceIteration] = []
    rows: dict[tuple[int, int], tuple[int, int, int, float, float, float, float]] = {}
    converged: bool | None = None

    def record(line: str) -> None:
        nonlocal rows, converged
        if converged is not None:
            raise ValueError("record after '# converged'")
        if line[0] != "#":
            index, *row = records.fields(line, _TRACE_FIELDS, TRACE_HEADER)
            if index != len(iterations) + 1:
                raise ValueError("out-of-order iteration")
            records.put(rows, tuple(row[:2]), tuple(row), "frame")
        elif line.startswith("# iteration "):
            _, index, cost_label, total_cost, wpsnr_label, wpsnr_db = records.fields(
                line[1:], _SUMMARY_FIELDS, "# iteration N total_cost C wpsnr Q", sep=None
            )
            if (cost_label, wpsnr_label) != ("total_cost", "wpsnr"):
                labels = f"{cost_label!r} and {wpsnr_label!r}"
                raise ValueError(f"expected labels 'total_cost' and 'wpsnr', got {labels}")
            if index != len(iterations) + 1:
                raise ValueError(f"iteration {index} is out of order")
            iterations.append(ParsedTraceIteration(list(rows.values()), total_cost, wpsnr_db))
            rows = {}
        elif line in ("# converged true", "# converged false"):
            converged = line == "# converged true"
        else:
            raise ValueError("bad comment row")

    records.read(path, record, TRACE_HEADER, comments=True)
    if rows or converged is None or not iterations:
        raise ParseError(f"{path}: truncated trace")
    return ParsedTrace(iterations=iterations, converged=converged)


_TRACE_FIELDS = (records.integer,) * 4 + (
    records.finite, records.nonnegative, records.finite, records.finite
)
_SUMMARY_FIELDS = (str, records.integer, str, records.finite, str, records.finite_or_inf)

