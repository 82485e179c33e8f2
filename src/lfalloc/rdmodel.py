"""Per-frame power-law rate-distortion models.

Each frame's SSE is modeled as alpha * rate**beta with alpha > 0 and
beta < 0, fitted by least squares in log-log space. tangent_lines
expands the model to first order around a rate, which is what the
allocator's cone penalty consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import records
from .errors import DomainError, InsufficientSamples, NonDecreasingRD


@dataclass(frozen=True)
class RDSample:
    """One trial measurement: quantizer, rate in bits, distortion as SSE."""

    qp: int
    rate: float
    sse: float

    def __post_init__(self):
        if not (0.0 < self.rate < math.inf and 0.0 < self.sse < math.inf):
            raise ValueError("rate and sse must be positive and finite for log fitting")


@dataclass(frozen=True)
class RDModelParams:
    """Fitted power-law parameters for one frame."""

    alpha: float
    beta: float
    r_squared: float = 1.0
    sample_count: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.beta >= 0.0:
            raise ValueError("beta must be negative")


def fit_power_model(samples: list[RDSample]) -> RDModelParams:
    """Fit alpha * rate**beta to samples by least squares on the logs.

    The slope of the log-log regression is beta and exp(intercept) is
    alpha; r_squared is reported in the log domain.
    """
    if len({s.rate for s in samples}) < 2:
        raise InsufficientSamples(
            f"need at least 2 distinct rates, got {len(samples)} samples"
        )
    x = np.log([s.rate for s in samples])
    y = np.log([s.sse for s in samples])
    xc = x - x.mean()
    yc = y - y.mean()
    ss_tot = float(yc @ yc)
    if ss_tot == 0.0:
        # Flat distortion over distinct rates: exponent would be zero.
        raise NonDecreasingRD("distortion does not decrease with rate")
    slope = float((xc @ yc) / (xc @ xc))
    if slope >= 0.0:
        raise NonDecreasingRD(f"fitted exponent {slope:.6g} is not negative")
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (intercept + slope * x)
    r_squared = 1.0 - float(residual @ residual) / ss_tot
    return RDModelParams(
        alpha=math.exp(intercept),
        beta=slope,
        r_squared=r_squared,
        sample_count=len(samples),
    )


def eval_model(params: RDModelParams, rate):
    """Model SSE at a rate; accepts a scalar or an ndarray of rates."""
    rates = np.asarray(rate, dtype=float)
    if np.any(rates <= 0.0):
        raise DomainError("rate must be positive")
    out = params.alpha * rates ** params.beta
    return float(out) if out.ndim == 0 else out


def tangent_lines(alpha, beta, expansion_point):
    """(intercept, slope) of the tangent to alpha * r**beta at expansion_point.

    intercept = alpha * (1 - beta) * r0**beta and
    slope = alpha * beta * r0**(beta - 1), so the tangent touches the
    model exactly at r0 and lies below it elsewhere (the model is convex).
    Works elementwise on numpy arrays, so one call linearizes every frame
    of a grid.
    """
    r0 = expansion_point
    if np.any(np.asarray(r0) <= 0.0):
        raise DomainError("expansion point must be positive")
    return alpha * (1.0 - beta) * r0 ** beta, alpha * beta * r0 ** (beta - 1.0)


SAMPLES_HEADER = "frame_index,qp,rate_bits,sse"
MODELS_HEADER = "frame_index,alpha,beta,r_squared"
_SAMPLE_FIELDS = (str, int, records.finite, records.finite)
_MODEL_FIELDS = (str, records.finite, records.finite, records.finite)


def write_samples_csv(samples: dict[str, list[RDSample]], path) -> None:
    lines = [SAMPLES_HEADER]
    for frame_id, frame_samples in samples.items():
        lines.extend(
            f"{frame_id},{s.qp},{records.number(s.rate)},{records.number(s.sse)}"
            for s in frame_samples
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_samples_csv(path) -> dict[str, list[RDSample]]:
    """Read rate-distortion samples grouped by frame identifier.

    Frame identifiers are kept as strings in first-appearance order.
    """
    samples: dict[str, list[RDSample]] = {}

    def record(line: str) -> None:
        frame_id, qp, rate, sse = records.fields(line, _SAMPLE_FIELDS, SAMPLES_HEADER)
        samples.setdefault(frame_id, []).append(RDSample(qp=qp, rate=rate, sse=sse))

    records.read(path, record, SAMPLES_HEADER)
    return samples


def write_models_csv(models: dict[str, RDModelParams], path) -> None:
    lines = [MODELS_HEADER]
    lines.extend(
        f"{frame_id}," + ",".join(map(records.number, (m.alpha, m.beta, m.r_squared)))
        for frame_id, m in models.items()
    )
    Path(path).write_text("\n".join(lines) + "\n")


def read_models_csv(path) -> dict[str, RDModelParams]:
    models: dict[str, RDModelParams] = {}

    def record(line: str) -> None:
        frame_id, alpha, beta, r_squared = records.fields(line, _MODEL_FIELDS, MODELS_HEADER)
        records.put(models, frame_id, RDModelParams(alpha, beta, r_squared), "frame")

    records.read(path, record, MODELS_HEADER)
    return models
