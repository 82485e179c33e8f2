"""Text records: the line, field and key rules every text format shares.

A file is read as its non-blank lines, stripped. Lines that start with
'#' are comments and are skipped, except in the allocation file and the
trace, whose comments carry data. A format with a header must start with
exactly that line. A record splits into a fixed number of fields, each
converted on its own; numbers must be finite, except the documented
infinite diagnostics (an allocation's kkt_residual, a trace's wpsnr).
Each key or frame appears once. Key-value files hold `key: value` lines
with known keys and one `frame: u,v,...` line per coordinate of their
width x height grid. Every error is a ParseError that names the source
and, for a record, its line.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ParseError


def finite(text: str) -> float:
    """A number field that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
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


def read(source, record, header: str | None = None, *, comments: bool = False, text=None) -> list:
    """record(line) for every record line of source (or of text, when given).

    No record lines, a missing header, or a ValueError from record raise
    ParseError naming the source and line.
    """
    if text is None:
        text = Path(source).read_text()
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


def key_values(path, keys: dict, required, frame, spec: str, defaults=()) -> tuple[dict, dict]:
    """The values and frames of a `key: value` file.

    keys maps each known key besides width and height to its converter;
    the keys in required must be given. frames maps each (u, v) to the
    rest of its `frame:` line's fields (see fields), one frame line per
    coordinate of the width x height grid.
    """
    keys = {"width": int, "height": int, **keys}
    values: dict = {}
    frames: dict = {}

    def record(line: str) -> None:
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError("expected 'key: value'")
        if key.strip() == "frame":
            u, v, *rest = fields(value, frame, spec, ",", defaults)
            put(frames, (u, v), rest, "frame")
        else:
            put_known(values, keys, key.strip(), value.strip())

    read(path, record)
    missing = [key for key in ("width", "height", *required) if key not in values]
    if missing:
        raise ParseError(f"{path}: missing key {missing[0]!r}")
    width, height = values["width"], values["height"]
    if width < 1 or height < 1:
        raise ParseError(f"{path}: grid dimensions must be positive")
    for u, v in frames:
        if not (0 <= u < width and 0 <= v < height):
            raise ParseError(f"{path}: frame ({u},{v}) outside the {width}x{height} grid")
    if len(frames) < width * height:
        u, v = next((u, v) for v in range(height) for u in range(width) if (u, v) not in frames)
        raise ParseError(f"{path}: no frame line for ({u},{v})")
    return values, frames
