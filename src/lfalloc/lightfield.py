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
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import records
from .errors import DegenerateWeights, IncompleteInput, ParseError, WeightChannelAbsent

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
        # file never builds a huge lattice.
        if len(order) != self.width * self.height or set(order) != {
            FrameCoord(u, v) for u in range(self.width) for v in range(self.height)
        }:
            raise ValueError("coding_order must be a permutation of the grid")

    @property
    def n_frames(self) -> int:
        return self.width * self.height

    def align(self, table: Mapping[FrameCoord, object], what: str) -> list:
        """table's values in coding order, the layout of every per-frame
        vector; a frame the table lacks raises IncompleteInput naming it."""
        try:
            return [table[c] for c in self.coding_order]
        except KeyError as exc:
            u, v = exc.args[0]
            raise IncompleteInput(f"{what} missing for frame ({u},{v})") from None

    @cached_property
    def coupled_pairs(self) -> CoupledPairs:
        """Every ordered pair of distinct frames with nonzero proximity.

        Built once per grid by enumerating COUPLING_OFFSETS, so the cost is
        linear in the frame count. Rows are sorted by (i, j), indices in
        coding order.
        """
        coords = self.coding_order
        uu = np.array([c.u for c in coords])
        vv = np.array([c.v for c in coords])
        index = np.empty((self.width, self.height), dtype=int)
        index[uu, vv] = np.arange(len(coords))
        firsts, seconds, deltas = [], [], []
        for du, dv in COUPLING_OFFSETS:
            tu, tv = uu + du, vv + dv
            inside = (tu >= 0) & (tu < self.width) & (tv >= 0) & (tv < self.height)
            delta = float(PROXIMITY_RADIUS - abs(du) - abs(dv))
            firsts.append(np.nonzero(inside)[0])
            seconds.append(index[tu[inside], tv[inside]])
            deltas.append(np.full(np.count_nonzero(inside), delta))
        i, j, delta = (np.concatenate(parts) for parts in (firsts, seconds, deltas))
        order = np.lexsort((j, i))
        return CoupledPairs(i=i[order], j=j[order], delta=delta[order])


@dataclass(frozen=True, eq=False)
class CoupledPairs:
    """Coupled frame pairs as aligned arrays: entry t links coding-order
    frames i[t] and j[t] with proximity delta[t] > 0. Both directions of
    every pair are present."""

    i: np.ndarray
    j: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True, eq=False)
class PixelFrame:
    """One perspective frame: pixel samples plus an optional weight channel."""

    samples: np.ndarray
    weight_samples: np.ndarray | None = None

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 2 or samples.size == 0:
            raise ValueError("samples must be a non-empty 2-d array")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.weight_samples is not None:
            weights = np.array(self.weight_samples, dtype=float)
            if weights.shape != samples.shape:
                raise ValueError("weight channel shape must match samples")
            if np.any(weights < 0.0):
                raise ValueError("weight samples must be nonnegative")
            weights.setflags(write=False)
            object.__setattr__(self, "weight_samples", weights)

    @property
    def pixel_width(self) -> int:
        return self.samples.shape[1]

    @property
    def pixel_height(self) -> int:
        return self.samples.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Raw per-frame weights plus their rescaling to a unit maximum."""

    raw: dict[FrameCoord, float]
    unified: dict[FrameCoord, float]

    def __post_init__(self):
        if not self.unified:
            raise ValueError("weight set must not be empty")
        if self.raw.keys() != self.unified.keys():
            raise ValueError("raw and unified weights must cover the same frames")
        if max(self.unified.values()) != 1.0:
            raise ValueError("unified weights must have maximum exactly 1")


def frame_weight(frame: PixelFrame) -> float:
    """Reduce a frame's per-pixel weight channel to its mean."""
    if frame.weight_samples is None:
        raise WeightChannelAbsent("frame carries no weight channel")
    return float(np.mean(frame.weight_samples))


def unify_weights(raw: dict[FrameCoord, float]) -> WeightSet:
    """Rescale raw frame weights so the largest becomes exactly one."""
    if not raw:
        raise DegenerateWeights("no frame weights given")
    if not all(math.isfinite(w) and w >= 0.0 for w in raw.values()):
        raise ValueError("raw weights must be nonnegative and finite")
    peak = max(raw.values())
    if peak <= 0.0:
        raise DegenerateWeights("all frame weights are zero")
    unified = {coord: w / peak for coord, w in raw.items()}
    return WeightSet(raw=dict(raw), unified=unified)


def l1_distance(a: FrameCoord, b: FrameCoord) -> int:
    return abs(a.u - b.u) + abs(a.v - b.v)


def proximity(a: FrameCoord, b: FrameCoord) -> float:
    """Coupling strength between two frames; zero at distance 3 or more."""
    return float(max(0, PROXIMITY_RADIUS - l1_distance(a, b)))


def spiral_order(width: int, height: int) -> FrameGrid:
    """Clockwise outward spiral from the central frame, rightward first.

    The walk starts at (width // 2, height // 2) and keeps circling with
    growing arm lengths; positions that fall outside the lattice are
    skipped, so non-square grids still get a full permutation.
    """
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


def grid_from_text(text: str) -> FrameGrid:
    """Parse grid_to_text's form: a 'width height' line, then one u,v per line."""
    rows: list[list[int]] = []

    def record(line: str) -> None:
        spec, sep = ("u,v", ",") if rows else ("width height", None)
        rows.append(records.fields(line, (int, int), spec, sep))

    records.read("grid text", record, text=text)
    (width, height), *order = rows
    try:
        return FrameGrid(width, height, tuple(FrameCoord(u, v) for u, v in order))
    except ValueError as exc:
        raise ParseError(f"grid text: {exc}") from exc


def write_frame_grid(grid: FrameGrid, path) -> None:
    Path(path).write_text(grid_to_text(grid))


def read_frame_grid(path) -> FrameGrid:
    return grid_from_text(Path(path).read_text())


def read_weight_map_csv(path) -> tuple[int, int, dict[FrameCoord, float]]:
    """Read raw frame weights: one CSV row per v, one value per u.

    Returns (width, height, weights); weights are raw, not yet unified.
    """
    rows = records.read(path, lambda line: [records.nonnegative(w) for w in line.split(",")])
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError(f"{path}: ragged weight rows")
    weights = {FrameCoord(u, v): w for v, row in enumerate(rows) for u, w in enumerate(row)}
    return len(rows[0]), len(rows), weights


def _next_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = n if end < 0 else end + 1
        else:
            break
    if pos >= n:
        raise ParseError("truncated PGM header")
    start = pos
    while pos < n and data[pos : pos + 1] not in b" \t\r\n":
        pos += 1
    return data[start:pos], pos


def read_weight_pgm(path) -> PixelFrame:
    """Load a P2 or P5 grayscale map as a frame's weight channel.

    Gray levels are used as raw weights; unify_weights removes any
    dependence on the file's maxval scale.
    """
    data = Path(path).read_bytes()
    magic, pos = _next_pgm_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"{path}: not a PGM file (magic {magic!r})")
    fields = []
    for _ in range(3):
        token, pos = _next_pgm_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise ParseError(f"{path}: bad PGM header token {token!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ParseError(f"{path}: bad PGM dimensions or maxval")
    count = width * height
    if magic == b"P2":
        tokens = data[pos:].split()
        if len(tokens) != count:
            raise ParseError(f"{path}: expected {count} samples, got {len(tokens)}")
        try:
            values = np.array([int(t) for t in tokens], dtype=float)
        except ValueError as exc:
            raise ParseError(f"{path}: non-integer PGM sample") from exc
    else:
        raw = data[pos + 1 :]  # single whitespace byte separates header and raster
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        if len(raw) < need:
            raise ParseError(f"{path}: raster too short ({len(raw)} < {need} bytes)")
        values = np.frombuffer(raw[:need], dtype=dtype).astype(float)
    if np.any(values > maxval):
        raise ParseError(f"{path}: sample exceeds maxval")
    grid = values.reshape(height, width)
    return PixelFrame(samples=grid, weight_samples=grid)
