"""Text records: the line, field and key rules every text format shares.

A file is read as its non-blank lines, stripped. Lines that start with
'#' are comments and are skipped, except in the allocation file and the
trace, whose comments carry data. A format with a header must start with
exactly that line. A record splits into a fixed number of fields, each
converted on its own; numbers must be finite, except the documented
infinite diagnostics (an allocation's kkt_residual, a trace's wpsnr), and
each field's converter holds it to its documented domain (SSE and weights
not negative, budgets and model scales positive, exponents negative).
field() makes each converter from a base type and ordered checks, so each
domain is written once and serves the strict read and columns() alike.
Each key or frame appears once. read() walks the lines and phrases every
defect of a record, bytes that are not UTF-8 included: a ParseError that
names the source and the first bad line.

Key-value files hold `key: value` lines with known keys and one
`frame: u,v,...` line per coordinate of their width x height grid. They
are read in at most two scans. The first sets the frame lines aside,
reads on past a key line that does not convert, converts the frame
lines a column at a time (columns) and then checks the whole file, the
frames with array operations on their grid positions; it returns the
key values and the frame columns. Any defect, and any frame line that
leaves out defaulted fields, starts a strict re-read that judges each
record as read() reaches it: its fields, a repeat, and, with the width
and height the first scan read, a frame off the grid or a key whose
value must fit the grid. So the error is the one the first bad line
gives, and a missing key or frame is raised only when no line is bad.

columns() splits its records once, joined with a marker field between
records; where the markers fall shows that every record has its number
of fields, with no look at any one record. It reads each column by its
converter's own base and tests it, as a whole, by that converter's own
checks; it gives None on any defect, which it does not phrase.

Every file is written by write(): UTF-8, the encoding read() decodes,
with a '\\n' after each line on every platform, so a file the library
writes reads back. Writers format every float field with number(), so a
file reads back as the values it was written from.
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


def field(base, what: str, *checks):
    """A field converter: the text read as base, else "not {what}", then
    held to each (test, fault) check in order, else "{fault}". A test takes
    one value or a whole numpy column alike, so columns() reads a column
    by the converter's own base and checks."""

    def convert(text: str):
        try:
            value = base(text)
        except ValueError:
            raise ValueError(f"not {what} {text.strip()!r}") from None
        for test, fault in checks:
            if not test(value):
                raise ValueError(f"{fault} {text.strip()!r}")
        return value

    convert.base, convert.checks = base, checks
    return convert


# abs(v) < inf, not np.isfinite, which is slow on a single float.
_FINITE = (lambda v: abs(v) < math.inf, "non-finite number")

integer = field(int, "an integer")
positive_integer = field(int, "an integer", (lambda v: v >= 1, "not a positive integer"))
finite = field(float, "a number", _FINITE)
nonnegative = field(float, "a number", _FINITE, (lambda v: v >= 0.0, "negative number"))
positive = field(float, "a number", _FINITE, (lambda v: v > 0.0, "not a positive number"))
negative = field(float, "a number", _FINITE, (lambda v: v < 0.0, "not a negative number"))


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


def write(path, lines) -> None:
    """Write the text lines to path, each followed by '\\n', as UTF-8."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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


# The field _split() puts between two records; no line of a file holds one.
_MARK = "\n"


def _split(texts, n: int) -> list | None:
    """The fields of comma-separated records, each record's n fields
    followed by a _MARK field, or None unless there are records and every
    record has n fields.

    One split of the records joined by _MARK fields: every record has n
    fields exactly when no record holds a _MARK and the fields number
    n + 1 per record with a _MARK after every n. A total count of fields
    is not enough: a short record and a long one cancel out in it."""
    joined = f",{_MARK},".join(texts)
    flat = (joined + "," + _MARK).split(",")
    if (
        len(flat) != len(texts) * (n + 1)
        or joined.count(_MARK) != len(texts) - 1
        or flat[n :: n + 1].count(_MARK) != len(texts)
    ):
        return None
    return flat


def columns(texts, converters) -> list | None:
    """fields() over many comma-separated records: one array of values
    per converter, or None when there is no record, a record has another
    number of fields or a value fails its converter.

    The records are split as one text (see _split); each column is read
    by its converter's own base and tested, as a whole, by its own checks
    (see field).
    """
    n = len(converters)
    flat = _split(texts, n)
    if flat is None:
        return None
    values = []
    for index, convert in enumerate(converters):
        try:
            column = np.array(list(map(convert.base, flat[index :: n + 1])))
        except ValueError:
            return None
        if not all(test(column).all() for test, _ in convert.checks):
            return None
        values.append(column)
    return values


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
) -> tuple[dict, list]:
    """The values and frame columns of a `key: value` file.

    keys maps each known key besides width and height to its converter;
    the keys in required must be given. The file holds one `frame:` line
    per coordinate of the width x height grid, whose fields the
    converters in frame read (see fields). The frame columns hold those
    fields one array per converter, in the order of the lines. grid_keys
    maps a key to a function of (width, height, value) that returns the
    value to keep and raises ValueError when the value does not fit the
    grid. A first scan reads on past a key line that does not convert,
    so it reads width and height wherever they stand, converts the frame
    lines together (see columns) and then checks the whole file, the
    frames with array operations on their grid positions. Any defect,
    and any frame line that leaves out defaulted fields, starts a strict
    re-read that judges each record as it reaches it, against the grid
    of the width and height the first scan read, so the error names the
    first bad line; a missing key or frame, which has no line, is raised
    only when no line is bad.
    """
    keys = {"width": positive_integer, "height": positive_integer, **keys}
    grid_keys = grid_keys or {}
    first: dict = {}

    def scan(values: dict, strict: bool) -> tuple[dict, list]:
        frames: dict = {}
        texts: list = []
        bad_lines: list = []
        # The re-read judges each record against the grid the first scan read.
        grid_known = strict and "width" in first and "height" in first

        def record(line: str) -> None:
            key, sep, value = line.partition(":")
            key = key.rstrip()
            if key != "frame" or not sep:
                try:
                    if not sep:
                        raise ValueError("expected 'key: value'")
                    put_known(values, keys, key, value.strip())
                except ValueError:
                    if strict:
                        raise
                    # The first scan reads on, so the re-read knows the grid.
                    bad_lines.append(line)
                if grid_known and key in grid_keys:
                    grid_keys[key](first["width"], first["height"], values[key])
            elif strict:
                row = fields(value, frame, spec, ",", defaults)
                u, v = row[:2]
                if grid_known and not (0 <= u < first["width"] and 0 <= v < first["height"]):
                    size = f"{first['width']}x{first['height']}"
                    raise ValueError(f"frame ({u},{v}) outside the {size} grid")
                put(frames, (u, v), row, "frame")
            else:
                texts.append(value)

        read(path, record)
        if bad_lines:
            raise ValueError("a bad line")
        missing = [key for key in ("width", "height", *required) if key not in values]
        if missing:
            raise ParseError(f"{path}: missing key {missing[0]!r}")
        width, height = values["width"], values["height"]
        for key, fit in grid_keys.items():
            if key in values:
                values[key] = fit(width, height, values[key])
        if not strict:
            table = columns(texts, frame)
            if table is None or not _fills_grid(*table[:2], width, height):
                raise ValueError("frames that are bad or do not fill the grid")
            return values, table
        # The re-read keeps only frames on the grid, each once.
        if len(frames) < width * height:
            u, v = next((u, v) for v in range(height) for u in range(width) if (u, v) not in frames)
            raise ParseError(f"{path}: no frame line for ({u},{v})")
        return values, [np.array(column) for column in zip(*frames.values())]

    try:
        return scan(first, strict=False)
    except (ParseError, ValueError):
        return scan({}, strict=True)


def _fills_grid(u: np.ndarray, v: np.ndarray, width: int, height: int) -> bool:
    """Whether the frame positions (u, v) hold every coordinate of the
    width x height grid once. The count is checked first, so a huge width
    or height never builds a huge grid."""
    n = width * height
    if len(u) != n or not ((u >= 0) & (u < width) & (v >= 0) & (v < height)).all():
        return False
    seen = np.zeros(n, dtype=bool)
    seen[u * height + v] = True
    return bool(seen.all())
