"""Parse differential: the outcome of two source trees' file readers on seeded mutants.

`run` writes COUNT seeded mutants of generated problem files and mock
configs, the two kinds alternating, and reads each with read_problem_file
or read_mock_config of TREE/src. It records the exception type and
message, with the file's path shown as FILE, or, for a file that reads,
"ok" and a digest of the file that TREE's writer writes back from it.
`run` exits 1 when any mutant ends in anything else than "ok" or one of
the package's own errors (LfallocError): a traceback, or a warning when
Python runs with `-W error`, as CI does. `compare` prints how many
records differ between two runs, with examples.

    python -W error tools/parse_differential.py run PARENT_TREE --output parent.json
    python tools/parse_differential.py run CHANGED_TREE --output change.json
    python tools/parse_differential.py compare parent.json change.json

The mutants depend only on the seed, never on either tree: each base file
is generated here as text (1x1 to 5x5 grids, keys and frame lines in
random order), then takes one to three seeded edits: a field made
non-finite, negative or not a number, a field dropped or added, a line
repeated, moved or deleted, an unknown key, a line without its colon, an
`order:` line that may hold a bad entry, a frame moved off the grid or
onto another frame, or a byte that is not UTF-8. Files with two or three
edits test that the first bad line is the one named.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

COUNT = 6000
EXAMPLES = 5
TOKENS = ("nan", "inf", "-inf", "-1", "-0.0", "1.5", "x", "", "1e400", "0", "7")


def _grid(rng: random.Random) -> tuple[int, int, list[tuple[int, int]]]:
    width, height = rng.randint(1, 5), rng.randint(1, 5)
    return width, height, [(u, v) for v in range(height) for u in range(width)]


def problem_lines(rng: random.Random) -> list[str]:
    """A sound problem file, as lines."""
    width, height, coords = _grid(rng)
    keys = [f"width: {width}", f"height: {height}"]
    keys.append(f"budget: {len(coords) * 1e6 * rng.uniform(0.5, 1.5)!r}")
    keys.append(f"lambda: {rng.choice((0.0, 10.0, 100.0))!r}")
    if rng.random() < 0.5:
        keys.append(f"min_rate: {rng.uniform(1e3, 1e5)!r}")
    if rng.random() < 0.5:
        order = rng.sample(coords, len(coords))
        keys.append("order: " + ";".join(f"{u},{v}" for u, v in order))
    frames = [
        f"frame: {u},{v},{rng.random()!r},{10 ** rng.uniform(7.5, 8.5)!r},"
        f"{rng.uniform(-0.45, -0.22)!r}"
        for u, v in rng.sample(coords, len(coords))
    ]
    return _shuffled(rng, keys, frames)


def mock_lines(rng: random.Random) -> list[str]:
    """A sound mock config, as lines; each optional key is present or not."""
    width, height, coords = _grid(rng)
    keys = [f"width: {width}", f"height: {height}"]
    optional = {
        "qp0": rng.randint(20, 40),
        "rate0": 1e6,
        "gamma": rng.uniform(0.0, 0.5),
        "ref_norm": 1e6,
        "rate_qp_halving": 6.0,
        "frame_pixels": 100_000,
        "curvature": rng.choice((0.0, 0.02)),
    }
    keys += [f"{key}: {value!r}" for key, value in optional.items() if rng.random() < 0.7]
    frames = []
    for u, v in rng.sample(coords, len(coords)):
        weight = f",{rng.random()!r}" if rng.random() < 0.7 else ""
        law = f"{3e7 * rng.uniform(0.5, 2)!r},{-rng.uniform(0.2, 0.4)!r}"
        frames.append(f"frame: {u},{v},{law}{weight}")
    return _shuffled(rng, keys, frames)


def _shuffled(rng: random.Random, keys: list[str], frames: list[str]) -> list[str]:
    """keys then frames, or, for one file in four, all lines in random order."""
    lines = keys + frames
    return rng.sample(lines, len(lines)) if rng.random() < 0.25 else lines


def _order_line(rng: random.Random) -> str:
    pairs = [f"{rng.randint(0, 4)},{rng.randint(0, 4)}" for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.7:
        pairs[rng.randrange(len(pairs))] = rng.choice(("0", "0,0,1", "0,x", "", "1.5,0"))
    return "order: " + ";".join(pairs)


def mutate(rng: random.Random, lines: list[str]) -> None:
    """Apply one seeded edit to lines, in place."""
    if not lines:
        lines.append("width: 1")
    k = rng.randrange(len(lines))
    line = lines[k]
    key, sep, value = line.partition(":")
    parts = value.split(",")
    edit = rng.randrange(12)
    if edit == 0:
        j = rng.randrange(len(parts))
        parts[j] = (" " if j == 0 else "") + rng.choice(TOKENS)
        lines[k] = key + sep + ",".join(parts)
    elif edit == 1:
        lines[k] = line.rpartition(",")[0] or key + sep
    elif edit == 2:
        lines[k] = line + "," + rng.choice(TOKENS[3:])
    elif edit == 3:
        lines.insert(rng.randint(0, len(lines)), line)
    elif edit == 4:
        del lines[k]
    elif edit == 5:
        del lines[k]
        lines.insert(rng.randint(0, len(lines)), line)
    elif edit == 6:
        unknown = rng.choice(("bogus: 1", "Width: 2", "frames: 0,0"))
        lines.insert(rng.randint(0, len(lines)), unknown)
    elif edit == 7:
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "# note", "  ")))
    elif edit == 8:
        lines.insert(rng.randint(0, len(lines)), _order_line(rng))
    elif edit == 9:
        lines[k] = line.replace(":", " ", 1)
    elif edit == 10 and key == "frame" and len(parts) >= 2:
        parts[:2] = rng.choice(((" 9", "0"), (" 0", "-1"), (" 0", "0"), (" 1", "0")))
        lines[k] = key + sep + ",".join(parts)
    else:
        lines[k] = line[: rng.randint(0, len(line))]


def mutant(seed: int) -> tuple[str, bytes]:
    """The kind ("problem" or "mock") and bytes of mutant seed."""
    rng = random.Random(seed)
    kind = ("problem", "mock")[seed % 2]
    lines = problem_lines(rng) if kind == "problem" else mock_lines(rng)
    for _ in range(rng.choice((1, 1, 2, 3))):
        mutate(rng, lines)
    data = ("\n".join(lines) + "\n").encode()
    if rng.random() < 0.01:
        at = rng.randint(0, len(data))
        data = data[:at] + b"\xff" + data[at:]
    return kind, data


def run_tree(tree: Path) -> tuple[list[dict], list[int]]:
    """One record per mutant, read with the lfalloc of tree, and the seeds
    whose outcome is neither "ok" nor an LfallocError."""
    sys.path.insert(0, str(tree / "src"))
    from lfalloc import (
        LfallocError,
        read_mock_config,
        read_problem_file,
        write_mock_config,
        write_problem_file,
    )

    readers = {
        "problem": (read_problem_file, write_problem_file),
        "mock": (read_mock_config, write_mock_config),
    }
    records, failures = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path, back = Path(tmp) / "input.txt", Path(tmp) / "back.txt"
        for seed in range(COUNT):
            kind, data = mutant(seed)
            path.write_bytes(data)
            read, write = readers[kind]
            try:
                write(read(path), back)
            except Exception as exc:  # every outcome is recorded, not raised
                outcome, message = type(exc).__name__, str(exc).replace(str(path), "FILE")
                if not isinstance(exc, LfallocError):
                    failures.append(seed)
            else:
                outcome, message = "ok", hashlib.sha256(back.read_bytes()).hexdigest()[:16]
            records.append(dict(seed=seed, kind=kind, outcome=outcome, message=message))
    return records, failures


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Outcome counts of each run and the pairs of records that differ."""
    if [(r["seed"], r["kind"]) for r in parent] != [(r["seed"], r["kind"]) for r in change]:
        raise ValueError("the two runs cover different mutants")

    def counts(records):
        return dict(sorted(Counter(r["outcome"] for r in records).items()))

    differ = [(a, b) for a, b in zip(parent, change) if a != b]
    return dict(mutants=len(parent), parent=counts(parent), change=counts(change), differ=differ)


def format_comparison(result: dict) -> str:
    """The comparison as text: the outcome counts, the number that differ
    and up to EXAMPLES of them."""
    lines = [f"parent: {result['parent']}", f"change: {result['change']}"]
    lines.append(f"{len(result['differ'])} of {result['mutants']} mutants differ")
    for a, b in result["differ"][:EXAMPLES]:
        lines.append(f"seed {a['seed']} ({a['kind']}):")
        lines.append(f"  parent {a['outcome']}: {a['message']}")
        lines.append(f"  change {b['outcome']}: {b['message']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="read the mutants with one source tree")
    p.add_argument("tree", type=Path, help="source tree whose src/lfalloc reads the files")
    p.add_argument("--output", required=True, type=Path, help="JSON file of outcome records")
    p = sub.add_parser("compare", help="compare the records of two trees")
    p.add_argument("parent", type=Path, help="records of the parent tree")
    p.add_argument("change", type=Path, help="records of the changed tree")
    args = parser.parse_args(argv)
    if args.command == "run":
        records, failures = run_tree(args.tree.resolve())
        args.output.write_text(json.dumps(records, indent=1) + "\n")
        for seed in failures[:EXAMPLES]:
            record = records[seed]
            print(f"seed {seed}: {record['outcome']}: {record['message']}", file=sys.stderr)
        if failures:
            print(f"{len(failures)} of {len(records)} mutants fail", file=sys.stderr)
        return 1 if failures else 0
    parent, change = (json.loads(path.read_text()) for path in (args.parent, args.change))
    result = compare(parent, change)
    print(format_comparison(result))
    return 1 if result["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
