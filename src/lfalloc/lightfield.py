"""Perspective-frame grid geometry, frame weights, and scan ordering.

A light field is rendered as a rectangular grid of perspective frames
indexed by integer (u, v). Frames get scalar importance weights (reduced
from per-pixel weight maps), a unified rescaling so the largest weight is
exactly one, and a coding order, by default an outward spiral from the
grid center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping, NamedTuple

import numpy as np

from . import records
from .errors import DegenerateWeights, IncompleteInput

# Frames at L1 grid distance >= PROXIMITY_RADIUS do not interact.
PROXIMITY_RADIUS = 3

# Every grid displacement (du, dv) that couples two frames: the twelve
# nonzero offsets strictly inside the proximity radius.
COUPLING_OFFSETS = tuple(
    (du, dv)
    for du in range(1 - PROXIMITY_RADIUS, PROXIMITY_RADIUS)
    for dv in range(1 - PROXIMITY_RADIUS, PROXIMITY_RADIUS)
    if 0 < abs(du) + abs(dv) < PROXIMITY_RADIUS
)


class FrameCoord(NamedTuple):
    """Integer (u, v) position of a perspective frame on the camera grid.

    A (u, v) tuple with named fields: it hashes, compares and sorts as that
    tuple and is equal to it.
    """

    u: int
    v: int


@dataclass(frozen=True)
class FrameGrid:
    """A full u-v lattice of frames together with their coding order."""

    width: int
    height: int
    coding_order: tuple[FrameCoord, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        order = tuple(self.coding_order)
        object.__setattr__(self, "coding_order", order)
        # The count is checked first, so a huge width or height from a
        # file never builds a huge lattice. The lattice holds plain (u, v)
        # tuples, which a FrameCoord equals.
        if len(order) != self.width * self.height or set(order) != set(
            product(range(self.width), range(self.height))
        ):
            raise ValueError("coding_order must be a permutation of the grid")

    @property
    def n_frames(self) -> int:
        return self.width * self.height

    def align(self, table: Mapping[FrameCoord, object], what: str) -> list:
        """table's values in coding order, the layout of every per-frame
        vector. A frame of the grid that the table lacks, or a frame off
        the grid that it names, raises IncompleteInput naming that frame."""
        try:
            values = [table[c] for c in self.coding_order]
        except KeyError as exc:
            u, v = exc.args[0]
            raise IncompleteInput(f"{what} missing for frame ({u},{v})") from None
        if len(table) != len(values):
            on_grid = set(self.coding_order)
            u, v = next(c for c in table if c not in on_grid)
            raise IncompleteInput(f"{what} given for frame ({u},{v}) off the grid")
        return values

    @cached_property
    def lattice_index(self) -> np.ndarray:
        """The coding-order index of every frame, at [u, v]: where a
        frame's value sits in each per-frame vector. Built once per grid
        and read-only, since every holder of the grid shares it."""
        uu, vv = np.array(self.coding_order).T
        index = np.empty((self.width, self.height), dtype=np.intp)
        index[uu, vv] = np.arange(self.n_frames)
        index.setflags(write=False)
        return index

    @cached_property
    def coupled_pairs(self) -> CoupledPairs:
        """Every ordered pair of distinct frames with nonzero proximity.

        Built once per grid by one gather over COUPLING_OFFSETS from the
        lattice_index padded by PROXIMITY_RADIUS - 1, so the cost is
        linear in the frame count. Rows are sorted by (i, j), indices in
        coding order. The arrays are read-only, since every holder of the
        grid shares them.
        """
        n = self.n_frames
        pad = PROXIMITY_RADIUS - 1
        uu, vv = np.array(self.coding_order).T
        index = np.pad(self.lattice_index, pad, constant_values=-1)
        du, dv = np.array(COUPLING_OFFSETS).T
        j = index[uu + pad + du[:, None], vv + pad + dv[:, None]]
        i = np.broadcast_to(np.arange(n), j.shape)
        delta = np.broadcast_to(
            (PROXIMITY_RADIUS - np.abs(du) - np.abs(dv)).astype(float)[:, None], j.shape
        )
        inside = j >= 0
        i, j, delta = i[inside], j[inside], delta[inside]
        order = np.argsort(i * n + j)
        i, j, delta = i[order], j[order], delta[order]
        for array in (i, j, delta):
            array.setflags(write=False)
        return CoupledPairs(i=i, j=j, delta=delta)


@dataclass(frozen=True, eq=False)
class CoupledPairs:
    """Coupled frame pairs as aligned arrays: entry t links coding-order
    frames i[t] and j[t] with proximity delta[t] > 0. Both directions of
    every pair are present."""

    i: np.ndarray
    j: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Raw per-frame weights; unified is their rescaling to a unit maximum.

    raw holds each frame's weight; unified is derived from it on first
    use, each weight divided by the largest, so it covers the same frames
    and its largest value is exactly one. An empty raw raises
    DegenerateWeights, a weight that is negative or not finite ValueError,
    and an all-zero raw DegenerateWeights.
    """

    raw: dict[FrameCoord, float]

    def __post_init__(self):
        if not self.raw:
            raise DegenerateWeights("no frame weights given")
        if not all(0.0 <= w < math.inf for w in self.raw.values()):
            raise ValueError("raw weights must be nonnegative and finite")
        if max(self.raw.values()) <= 0.0:
            raise DegenerateWeights("all frame weights are zero")

    @cached_property
    def unified(self) -> dict[FrameCoord, float]:
        peak = max(self.raw.values())
        return {coord: w / peak for coord, w in self.raw.items()}


def frame_weight(weight_map) -> float:
    """Reduce a frame's per-pixel weight map, a non-empty 2-d array of
    finite nonnegative values, to its mean.

    A map whose sum overflows is averaged in units of its largest value,
    so the mean of finite values is finite.
    """
    weights = np.asarray(weight_map, dtype=float)
    if weights.ndim != 2 or weights.size == 0:
        raise ValueError("weight map must be a non-empty 2-d array")
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError("weight map must be finite and nonnegative")
    with np.errstate(over="ignore"):
        mean = float(np.mean(weights))
    if mean == math.inf:
        peak = float(np.max(weights))
        mean = peak * float(np.mean(weights / peak))
    return mean


def unify_weights(raw: dict[FrameCoord, float]) -> WeightSet:
    """The WeightSet of a copy of raw."""
    return WeightSet(raw=dict(raw))


def proximity(a: FrameCoord, b: FrameCoord) -> float:
    """Coupling strength between two frames; zero at L1 grid distance 3
    or more."""
    return float(max(0, PROXIMITY_RADIUS - abs(a.u - b.u) - abs(a.v - b.v)))


def spiral_order(width: int, height: int) -> FrameGrid:
    """Clockwise outward spiral from the central frame, rightward first.

    The walk starts at (width // 2, height // 2) and keeps circling with
    growing arm lengths; positions that fall outside the lattice are
    skipped, so non-square grids still get a full permutation.
    """
    # Not FrameGrid's check twice: two negative sides have a positive
    # product, which the walk below would never fill.
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    u, v = width // 2, height // 2
    coords = [FrameCoord(u, v)]
    total = width * height
    # Right, down, left, up: clockwise with v growing downward.
    directions = ((1, 0), (0, 1), (-1, 0), (0, -1))
    arm = 1
    heading = 0
    while len(coords) < total:
        for _ in range(2):
            du, dv = directions[heading % 4]
            for _ in range(arm):
                u += du
                v += dv
                if 0 <= u < width and 0 <= v < height:
                    coords.append(FrameCoord(u, v))
            heading += 1
        arm += 1
    return FrameGrid(width=width, height=height, coding_order=tuple(coords))


def grid_to_text(grid: FrameGrid) -> str:
    """Serialize a grid as one header line plus one coordinate per line."""
    lines = [f"{grid.width} {grid.height}"]
    lines.extend(f"{c.u},{c.v}" for c in grid.coding_order)
    return "\n".join(lines) + "\n"


def read_weight_map_csv(path) -> tuple[int, int, dict[FrameCoord, float]]:
    """Read raw frame weights: one CSV row per v, one value per u.

    Returns (width, height, weights); weights are raw, not yet unified.
    A row whose length differs from the first row's is named by its line.
    """
    rows: list[list[float]] = []

    def record(line: str) -> None:
        weights = [records.nonnegative(w) for w in line.split(",")]
        if rows and len(weights) != len(rows[0]):
            raise ValueError(f"expected {len(rows[0])} weights, got {len(weights)}")
        rows.append(weights)

    records.read(path, record)
    weights = {FrameCoord(u, v): w for v, row in enumerate(rows) for u, w in enumerate(row)}
    return len(rows[0]), len(rows), weights
