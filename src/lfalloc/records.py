"""Text records: the line, field and key rules every text format shares.

A file is read as its non-blank lines, stripped. Lines that start with
'#' are comments and are skipped, except in the allocation file and the
trace, whose comments carry data. A format with a header must start with
exactly that line. A record splits into a fixed number of fields, each
converted on its own; numbers must be finite, except the documented
infinite diagnostics (an allocation's kkt_residual, a trace's wpsnr), and
SSE and weights must not be negative.
Each key or frame appears once. Key-value files hold `key: value` lines
with known keys and one `frame: u,v,...` line per coordinate of their
width x height grid; their frame lines are converted a column at a time
(columns), under the same rules and with the same messages. Every error
is a ParseError that names the source and, for a record, its line.
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


def finite(text: str) -> float:
    """A number field that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def nonnegative(text: str) -> float:
    """A number field that must be finite and not negative."""
    value = finite(text)
    if value < 0.0:
        raise ValueError(f"negative number {text.strip()!r}")
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


def read_text(path) -> str:
    """The file's text; bytes that do not decode raise ParseError naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read(source, record, header: str | None = None, *, comments: bool = False) -> list:
    """record(line) for every record line of the file source.

    No record lines, a missing header, or a ValueError from record raise
    ParseError naming the source and line.
    """
    results = []
    for lineno, line in enumerate(read_text(source).splitlines(), 1):
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


class RecordError(ValueError):
    """The defect of one record among many; index is that record's."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# The bulk form of a field converter: the type a column's texts are read
# as, and the test all of its values must pass (None: any value).
_BULK = {
    int: (int, None),
    finite: (float, np.isfinite),
    nonnegative: (float, lambda values: np.isfinite(values) & (values >= 0.0)),
}


def _accepts(convert, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


def columns(texts, converters, spec: str, defaults=()) -> list[list]:
    """fields() over many comma-separated records at once: one list of
    values per converter.

    The records are split as one text, then each column is converted and
    checked as a whole. A defect raises RecordError at the first bad
    record, with the message fields() gives for it: the column that fails
    finds that record by its own converter, and fields() phrases it.
    """
    n = len(converters)
    missing = [n - 1 - text.count(",") for text in texts]
    bad = next((k for k, m in enumerate(missing) if not 0 <= m <= len(defaults)), len(texts))
    padded = [
        text + "," + ",".join(defaults[len(defaults) - m :]) if m else text
        for text, m in zip(texts[:bad], missing)
    ]
    flat = ",".join(padded).split(",") if padded else []
    values = []
    for index, convert in enumerate(converters):
        column = flat[index::n]
        base, valid = _BULK.get(convert, (convert, None))
        try:
            converted = list(map(base, column))
            sound = valid is None or bool(np.all(valid(np.array(converted))))
        except ValueError:
            converted, sound = [], False
        if not sound:
            bad = min(bad, next(k for k, text in enumerate(column) if not _accepts(convert, text)))
        values.append(converted)
    if bad < len(texts):
        try:
            fields(texts[bad], converters, spec, ",", defaults)
        except ValueError as exc:
            raise RecordError(str(exc), bad) from exc
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


def _frame_table(source, linenos, texts, frame, spec: str, defaults) -> dict:
    """The frames of frame-line texts: (u, v) -> the rest of the line's
    fields, converted by columns. The first bad or repeated line raises
    ParseError naming its line number, from linenos."""
    error = None
    try:
        u, v, *rest = columns(texts, frame, spec, defaults)
    except RecordError as exc:
        # The lines before the bad one are sound, and a repeat among them
        # comes first.
        error = exc
        u, v, *rest = columns(texts[: exc.index], frame, spec, defaults)
    keys = list(zip(u, v))
    table = dict(zip(keys, zip(*rest)))
    if len(table) < len(keys):
        table = {}
        for index, key in enumerate(keys):
            try:
                put(table, key, None, "frame")
            except ValueError as exc:
                error = RecordError(str(exc), index)
                break
    if error is not None:
        raise ParseError(f"{source}: line {linenos[error.index]}: {error}") from error
    return table


def key_values(path, keys: dict, required, frame, spec: str, defaults=()) -> tuple[dict, dict]:
    """The values and frames of a `key: value` file.

    keys maps each known key besides width and height to its converter;
    the keys in required must be given. frames maps each (u, v) to the
    rest of its `frame:` line's fields (see fields), one frame line per
    coordinate of the width x height grid. The frame lines are converted
    together (see columns); a key line's defect is raised after any on an
    earlier frame line, so the first bad line of the file is the one named.
    """
    keys = {"width": int, "height": int, **keys}
    values: dict = {}
    linenos, texts = [], []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        key, sep, value = line.partition(":")
        key = key.rstrip()
        if sep and key == "frame":
            linenos.append(lineno)
            texts.append(value)
            continue
        try:
            if not sep:
                raise ValueError("expected 'key: value'")
            put_known(values, keys, key, value.strip())
        except ValueError as exc:
            _frame_table(path, linenos, texts, frame, spec, defaults)
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    if not values and not texts:
        raise ParseError(f"{path}: no records")
    frames = _frame_table(path, linenos, texts, frame, spec, defaults)
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
