"""Text records: the line, field and key rules every text format shares.

A file is read as its non-blank lines, stripped. Lines that start with
'#' are comments and are skipped, except in the allocation file and the
trace, whose comments carry data. A format with a header must start with
exactly that line. A record splits into a fixed number of fields, each
converted on its own; numbers must be finite, except the documented
infinite diagnostics (an allocation's kkt_residual, a trace's wpsnr), and
each field's converter holds it to its documented domain (SSE and weights
not negative, budgets and model scales positive, exponents negative).
Each key or frame appears once. read() walks the lines and phrases every
defect of a record, bytes that are not UTF-8 included: a ParseError that
names the source and the first bad line.

Key-value files hold `key: value` lines with known keys and one
`frame: u,v,...` line per coordinate of their width x height grid. They
are read by a fast scan that sets the frame lines aside and converts them
a column at a time (columns); any defect it meets, a repeated frame
included, starts a strict re-read that converts each frame line as read()
reaches it, so the error is the one the first bad line gives. A frame
off the grid, or a key whose value must fit the grid, is judged once
every record reads, by one more strict re-read that knows the grid and
so names the first line off it.
Writers format every float field with number(), so a file reads back as
the values it was written from.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ParseError


def number(value) -> str:
    """A float field as written: the shortest text that reads back as the
    same float, for a Python float and a numpy scalar alike."""
    return repr(float(value))


def integer(text: str) -> int:
    """An integer field."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer {text.strip()!r}") from None


def finite(text: str) -> float:
    """A number field that must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number {text.strip()!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def nonnegative(text: str) -> float:
    """A number field that must be finite and not negative."""
    value = finite(text)
    if value < 0.0:
        raise ValueError(f"negative number {text.strip()!r}")
    return value


def positive(text: str) -> float:
    """A number field that must be finite and above zero."""
    value = finite(text)
    if not value > 0.0:
        raise ValueError(f"not a positive number {text.strip()!r}")
    return value


def negative(text: str) -> float:
    """A number field that must be finite and below zero."""
    value = finite(text)
    if not value < 0.0:
        raise ValueError(f"not a negative number {text.strip()!r}")
    return value


def positive_integer(text: str) -> int:
    """An integer field that must be at least 1."""
    value = integer(text)
    if value < 1:
        raise ValueError(f"not a positive integer {text.strip()!r}")
    return value


def finite_or_inf(text: str) -> float:
    """A number field that may also be the infinite diagnostic 'inf'."""
    return math.inf if text.strip() == "inf" else finite(text)


def fields(text: str, converters, spec: str, sep: str | None = ",", defaults=()) -> list:
    """Split a record into one field per converter and convert each; up to
    len(defaults) trailing fields may be left out and read as their default
    text. spec names the fields in the error message."""
    parts = text.split(sep)
    missing = len(converters) - len(parts)
    if missing:
        if not 0 < missing <= len(defaults):
            raise ValueError(f"expected '{spec}', got {text.strip()!r}")
        parts += defaults[len(defaults) - missing :]
    return [convert(part) for convert, part in zip(converters, parts)]


def read(source, record, header: str | None = None, *, comments: bool = False) -> list:
    """record(line) for every record line of the file source.

    Bytes that are not UTF-8, no record lines, a missing header, or a
    ValueError from record raise ParseError naming the source and line.
    """
    data = Path(source).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The text before the bad byte decodes; the byte lies on its last line.
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(f"{source}: line {lineno}: bytes that are not UTF-8") from None
    results = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or (line[0] == "#" and not comments):
            continue
        if header is not None:
            if line != header:
                raise ParseError(f"{source}: line {lineno}: expected header '{header}'")
            header = None
            continue
        try:
            results.append(record(line))
        except ValueError as exc:
            raise ParseError(f"{source}: line {lineno}: {exc}") from exc
    if header is not None or not results:
        raise ParseError(f"{source}: no records")
    return results


# The bulk form of a field converter: the type a column's texts are read
# as, and the test all of its values must pass (None: any value).
_BULK = {
    integer: (int, None),
    finite: (float, np.isfinite),
    nonnegative: (float, lambda values: np.isfinite(values) & (values >= 0.0)),
    positive: (float, lambda values: np.isfinite(values) & (values > 0.0)),
    negative: (float, lambda values: np.isfinite(values) & (values < 0.0)),
}


def columns(texts, converters, spec: str, defaults=()) -> list:
    """fields() over many comma-separated records: one sequence of values
    per converter.

    The records are split as one text and each column is converted and
    checked as a whole. On any defect the records are read again one at a
    time by fields(), which raises the first bad record's ValueError.
    """
    n = len(converters)
    missing = [n - 1 - text.count(",") for text in texts]
    try:
        if not all(0 <= m <= len(defaults) for m in missing):
            raise ValueError(spec)
        padded = [
            text + "," + ",".join(defaults[len(defaults) - m :]) if m else text
            for text, m in zip(texts, missing)
        ]
        flat = ",".join(padded).split(",") if padded else []
        values = []
        for index, convert in enumerate(converters):
            base, valid = _BULK.get(convert, (convert, None))
            column = list(map(base, flat[index::n]))
            if valid is not None and not np.all(valid(np.array(column))):
                raise ValueError(spec)
            values.append(column)
        return values
    except ValueError:
        return list(zip(*(fields(text, converters, spec, ",", defaults) for text in texts)))


def put(mapping: dict, key, value, kind: str) -> None:
    """Store a record under its key, which must not repeat."""
    if key in mapping:
        name = repr(key) if isinstance(key, str) else "(" + ",".join(map(str, key)) + ")"
        raise ValueError(f"duplicate {kind} {name}")
    mapping[key] = value


def put_known(mapping: dict, converters: dict, key: str, text: str) -> None:
    """Convert text with key's converter and store it once; an unknown key is an error."""
    if key not in converters:
        raise ValueError(f"unknown key {key!r}")
    put(mapping, key, converters[key](text), "key")


def key_values(
    path, keys: dict, required, frame, spec: str, defaults=(), grid_keys=None
) -> tuple[dict, dict]:
    """The values and frames of a `key: value` file.

    keys maps each known key besides width and height to its converter;
    the keys in required must be given. frames maps each (u, v) to the
    rest of its `frame:` line's fields (see fields), one frame line per
    coordinate of the width x height grid. grid_keys maps a key to a
    function of (width, height, value) that returns the value to keep and
    raises ValueError when the value does not fit the grid. A first scan
    converts the frame lines together (see columns); on any defect, a
    repeated frame included, a second scan converts each frame line as it
    is read, so the error names the first bad line. Once every record
    reads, a frame off the grid or a value that does not fit it starts a
    third scan that also checks each record against the grid, so the
    error names that line.
    """
    keys = {"width": positive_integer, "height": positive_integer, **keys}
    grid_keys = grid_keys or {}

    def scan(strict: bool, grid: tuple[int, int] | None = None) -> tuple[dict, dict]:
        values: dict = {}
        frames: dict = {}
        texts: list = []

        def record(line: str) -> None:
            key, sep, value = line.partition(":")
            if not sep:
                raise ValueError("expected 'key: value'")
            key = key.rstrip()
            if key != "frame":
                put_known(values, keys, key, value.strip())
                if grid and key in grid_keys:
                    grid_keys[key](*grid, values[key])
            elif strict:
                u, v, *rest = fields(value, frame, spec, ",", defaults)
                if grid and not (0 <= u < grid[0] and 0 <= v < grid[1]):
                    raise ValueError(f"frame ({u},{v}) outside the {grid[0]}x{grid[1]} grid")
                put(frames, (u, v), rest, "frame")
            else:
                texts.append(value)

        read(path, record)
        if not strict:
            u, v, *rest = columns(texts, frame, spec, defaults)
            frames = dict(zip(zip(u, v), zip(*rest)))
            if len(frames) < len(texts):
                raise ValueError("duplicate frame")
        return values, frames

    try:
        values, frames = scan(strict=False)
    except (ParseError, ValueError):
        values, frames = scan(strict=True)
    missing = [key for key in ("width", "height", *required) if key not in values]
    if missing:
        raise ParseError(f"{path}: missing key {missing[0]!r}")
    grid = width, height = values["width"], values["height"]
    try:
        if not all(0 <= u < width and 0 <= v < height for u, v in frames):
            raise ValueError("a frame off the grid")
        for key, fit in grid_keys.items():
            if key in values:
                values[key] = fit(width, height, values[key])
    except ValueError:
        scan(strict=True, grid=grid)  # raises at the first line that does not fit the grid
        raise
    if len(frames) < width * height:
        u, v = next((u, v) for v in range(height) for u in range(width) if (u, v) not in frames)
        raise ParseError(f"{path}: no frame line for ({u},{v})")
    return values, frames
