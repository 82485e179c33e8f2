"""Parse differential: the outcome of two source trees' file readers on seeded mutants.

`run` writes COUNT seeded mutants of the eight input formats and reads
each with the reader of TREE/src for its kind: problem files and mock
configs in turn, then, from seed CSV_FROM on, each of CSV_KINDS in turn.
It records the exception type and message, with the file's path shown
as FILE, or, for a file that reads, "ok" and a digest. Where a writer
takes what the reader gives, the digest covers the file that TREE's
writer writes back from the value read, and what it does not write: a
problem's models items and unified weights (problem.w), and a mock's
unified weights, since the written file carries raw weights only. For
the weight map, allocation and trace, it covers the value's repr.
`run` reads every mutant twice in one process, prints how many end in
each outcome, most first, and exits 1 when any mutant ends in anything
else than "ok" or one of the package's own errors (LfallocError): a
traceback, or a warning when Python runs with `-W error`, as CI does. It
also exits 1 when the second read ends otherwise than the first, as it
would if a reader carried state from one read into the next, and when
the message of a package error does not begin with FILE.
`compare` prints how many records differ between two runs, how the line
each error names moved (MOVES), and examples; it exits 1 when any record
differs. A change run may append mutants after the parent's: those are
compared with nothing, and counted apart by outcome.

    python -W error tools/parse_differential.py run PARENT_TREE --output parent.json
    python tools/parse_differential.py run CHANGED_TREE --output change.json
    python tools/parse_differential.py compare parent.json change.json

The mutants depend only on the seed, never on either tree: each base file
is generated here as text (1x1 to 5x5 grids, keys and frame lines in
random order for the key-value formats), then takes one to three seeded
edits: a field made non-finite, negative or not a number, a field dropped
or added, a line repeated, moved or deleted, an unknown key, a line
without its colon, an `order:` line that may hold a bad entry, a frame
moved off the grid or onto another frame, or a byte that is not UTF-8.
A record of the CSV formats is edited as the value of a key-value line,
so its comma-separated fields are the fields edited. Files with two or
three edits test that the first bad line is the one named. The mutants
from seed ZERO_WEIGHTS_FROM up to CSV_FROM take no edit: they are sound
problem files and mock configs whose every weight is 0 or -0.0, and `run`
exits 1 when one does not end in DegenerateWeights.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

COUNT = 7240
ZERO_WEIGHTS_FROM = 6000
CSV_FROM = 6040
CSV_KINDS = ("sse", "curve", "samples", "weight_map", "allocation", "trace")
EXAMPLES = 5
# How the line an error names moved from the parent's record to the
# change's; "the same line" includes no line on either side.
MOVES = (
    "an earlier line",
    "a later line",
    "a line where the parent named none",
    "no line where the parent named one",
    "the same line with another message",
)
TOKENS = ("nan", "inf", "-inf", "-1", "-0.0", "1.5", "x", "", "1e400", "0", "7")


def _grid(rng: random.Random) -> tuple[int, int, list[tuple[int, int]]]:
    width, height = rng.randint(1, 5), rng.randint(1, 5)
    return width, height, [(u, v) for v in range(height) for u in range(width)]


def _weight(rng: random.Random, zero: bool) -> str:
    """A frame weight: uniform in [0, 1), or, when zero, 0 or -0.0."""
    return rng.choice(("0", "-0.0")) if zero else repr(rng.random())


def problem_lines(rng: random.Random, zero: bool = False) -> list[str]:
    """A sound problem file, as lines; with zero, every weight is zero."""
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
        f"frame: {u},{v},{_weight(rng, zero)},{10 ** rng.uniform(7.5, 8.5)!r},"
        f"{rng.uniform(-0.45, -0.22)!r}"
        for u, v in rng.sample(coords, len(coords))
    ]
    return _shuffled(rng, keys, frames)


def mock_lines(rng: random.Random, zero: bool = False) -> list[str]:
    """A sound mock config, as lines; each optional key is present or not.
    With zero, every frame line carries a weight, and every weight is zero."""
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
        weight = f",{_weight(rng, zero)}" if zero or rng.random() < 0.7 else ""
        law = f"{3e7 * rng.uniform(0.5, 2)!r},{-rng.uniform(0.2, 0.4)!r}"
        frames.append(f"frame: {u},{v},{law}{weight}")
    return _shuffled(rng, keys, frames)


def _shuffled(rng: random.Random, keys: list[str], frames: list[str]) -> list[str]:
    """keys then frames, or, for one file in four, all lines in random order."""
    lines = keys + frames
    return rng.sample(lines, len(lines)) if rng.random() < 0.25 else lines


def csv_lines(rng: random.Random, kind: str) -> list[str]:
    """A sound file of kind, one of CSV_KINDS, as lines."""
    width, height, coords = _grid(rng)
    frames = rng.sample(coords, len(coords))
    if kind == "sse":
        sse = [f"{u},{v},{rng.choice((0.0, 10 ** rng.uniform(2, 6)))!r}" for u, v in frames]
        return ["u,v,sse", *sse]
    if kind == "curve":
        points = [f"{1e5 * 2**k!r},{30 + 3 * k + rng.random()!r}" for k in range(rng.randint(1, 6))]
        return ["rate_bits,quality_db", *points]
    if kind == "samples":
        lines = ["frame_index,qp,rate_bits,sse"]
        for frame in rng.sample(("0", "1", "a", "été"), rng.randint(1, 3)):
            rates = [1e5 * 2**k * rng.uniform(0.8, 1.2) for k in range(rng.randint(1, 4))]
            lines += [f"{frame},{30 + k},{r!r},{4e7 * r**-0.3!r}" for k, r in enumerate(rates)]
        return lines
    if kind == "weight_map":
        rows = [",".join(_weight(rng, False) for _ in range(width)) for _ in range(height)]
        return rng.choice(([], ["# weights"])) + rows
    if kind == "allocation":
        rates = [f"{u},{v},{rng.uniform(5e5, 2e6)!r}" for u, v in frames]
        names = "weighted_distortion discontinuity lambda total kkt_residual iterations budget_used"
        diagnostics = [f"# {name} {rng.uniform(0, 1e6)!r}" for name in names.split()]
        return ["u,v,rate_bits", *rates, "# diagnostics", *diagnostics]
    lines = ["iteration,u,v,qp,rate_bits,sse,alpha,beta"]
    for k in range(1, rng.randint(2, 4)):
        for u, v in frames:
            law = 10 ** rng.uniform(7.5, 8.5), rng.uniform(-0.45, -0.22)
            values = rng.randint(20, 40), rng.uniform(5e5, 2e6), 1e4 * rng.random(), *law
            lines.append(f"{k},{u},{v}," + ",".join(map(repr, values)))
        cost, quality = rng.uniform(1e5, 1e7), rng.uniform(30, 45)
        lines.append(f"# iteration {k} total_cost {cost!r} wpsnr {quality!r}")
    return lines + [f"# converged {rng.choice(('true', 'false'))}"]


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
    """The kind and bytes of mutant seed: a problem file or mock config,
    from seed ZERO_WEIGHTS_FROM on a sound one with every weight zero, and
    from CSV_FROM on a file of each of CSV_KINDS in turn."""
    rng = random.Random(seed)
    if seed >= CSV_FROM:
        kind = CSV_KINDS[(seed - CSV_FROM) % len(CSV_KINDS)]
        # As ': record', a record's comma-separated fields are mutate's fields.
        lines = [": " + line for line in csv_lines(rng, kind)]
    else:
        kind = ("problem", "mock")[seed % 2]
        zero = seed >= ZERO_WEIGHTS_FROM
        lines = problem_lines(rng, zero) if kind == "problem" else mock_lines(rng, zero)
        if zero:
            return kind, ("\n".join(lines) + "\n").encode()
    for _ in range(rng.choice((1, 1, 2, 3))):
        mutate(rng, lines)
    if kind in CSV_KINDS:
        lines = [line.removeprefix(": ") for line in lines]
    data = ("\n".join(lines) + "\n").encode()
    if rng.random() < 0.01:
        at = rng.randint(0, len(data))
        data = data[:at] + b"\xff" + data[at:]
    return kind, data


def run_tree(tree: Path) -> tuple[list[dict], list[str]]:
    """One record per mutant, read with the lfalloc of tree, and a line for
    each mutant whose outcome is neither "ok" nor an LfallocError, is an
    LfallocError whose message does not begin with FILE, is not
    DegenerateWeights for an all-zero-weights mutant, or whose second
    read ends otherwise than its first."""
    sys.path.insert(0, str(tree / "src"))
    import lfalloc

    def text(value) -> bytes:
        return repr(value).encode()

    def written(write, unwritten=lambda value: b""):
        """The digest data of a value: the file write writes back from it to
        back, the loop's second temporary file, then unwritten(value)."""

        def data(value) -> bytes:
            write(value, back)
            return back.read_bytes() + unwritten(value)

        return data

    def unwritten_problem(problem) -> bytes:
        return text((list(problem.models.items()), problem.w.tolist()))

    def unwritten_mock(setup) -> bytes:
        return text(list(setup.weights.unified.items()))

    readers = {
        "problem": (
            lfalloc.read_problem_file, written(lfalloc.write_problem_file, unwritten_problem)
        ),
        "mock": (lfalloc.read_mock_config, written(lfalloc.write_mock_config, unwritten_mock)),
        "sse": (lfalloc.read_sse_csv, written(lfalloc.write_sse_csv)),
        "curve": (lfalloc.read_curve_csv, written(lfalloc.write_curve_csv)),
        "samples": (lfalloc.read_samples_csv, written(lfalloc.write_samples_csv)),
        "weight_map": (lfalloc.read_weight_map_csv, text),
        "allocation": (lfalloc.read_allocation_file, text),
        "trace": (lfalloc.read_trace_csv, text),
    }

    def outcome(read, digest) -> tuple[str, str, bool]:
        """(outcome, message, whether it is "ok" or an LfallocError)."""
        try:
            data = digest(read(path))
        except Exception as exc:  # every outcome is recorded, not raised
            message = str(exc).replace(str(path), "FILE")
            return type(exc).__name__, message, isinstance(exc, lfalloc.LfallocError)
        return "ok", hashlib.sha256(data).hexdigest()[:16], True

    records, failures = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path, back = Path(tmp) / "input.txt", Path(tmp) / "back.txt"
        for seed in range(COUNT):
            kind, data = mutant(seed)
            path.write_bytes(data)
            first, again = (outcome(*readers[kind]) for _ in range(2))
            records.append(dict(seed=seed, kind=kind, outcome=first[0], message=first[1]))
            if not first[2]:
                failures.append(f"seed {seed}: {first[0]}: {first[1]}")
            elif first[0] != "ok" and not first[1].startswith("FILE: "):
                failures.append(f"seed {seed}: {first[0]} names no file: {first[1]}")
            elif ZERO_WEIGHTS_FROM <= seed < CSV_FROM and first[0] != "DegenerateWeights":
                failures.append(f"seed {seed}: all weights zero, but {first[0]}: {first[1]}")
            elif again != first:
                failures.append(f"seed {seed}: {first[0]}, read again: {again[0]}: {again[1]}")
    return records, failures


def named_line(record: dict) -> int | None:
    """The line number a record's error names, or None."""
    match = record["outcome"] != "ok" and re.match(r"FILE: line (\d+): ", record["message"])
    return int(match[1]) if match else None


def move(parent: dict, change: dict) -> str:
    """The MOVES entry for a parent record and the change's differing record."""
    earlier, later, gained, lost, same = MOVES
    before, after = named_line(parent), named_line(change)
    if before == after:
        return same
    if before is None:
        return gained
    if after is None:
        return lost
    return earlier if after < before else later


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Outcome counts of each run over the parent's mutants, the pairs of
    records that differ, how many of those pairs moved their named line in
    each way of MOVES, and the outcome counts of the mutants the change
    appends after the parent's. Runs over any other mutants are refused."""
    shared = change[: len(parent)]
    if [(r["seed"], r["kind"]) for r in parent] != [(r["seed"], r["kind"]) for r in shared]:
        raise ValueError("the two runs cover different mutants")

    def counts(records):
        return dict(sorted(Counter(r["outcome"] for r in records).items()))

    differ = [(a, b) for a, b in zip(parent, shared) if a != b]
    moved = Counter(move(a, b) for a, b in differ)
    return dict(
        mutants=len(parent),
        parent=counts(parent),
        change=counts(shared),
        differ=differ,
        moves={name: moved[name] for name in MOVES},
        appended=counts(change[len(parent) :]),
    )


def format_comparison(result: dict) -> str:
    """The comparison as text: the outcome counts, the number that differ,
    how many name each kind of line, the mutants the change appends, if
    any, and up to EXAMPLES of those that differ."""
    lines = [f"parent: {result['parent']}", f"change: {result['change']}"]
    lines.append(f"{len(result['differ'])} of {result['mutants']} mutants differ")
    lines += [f"  {count} name {name}" for name, count in result["moves"].items()]
    if result["appended"]:
        total = sum(result["appended"].values())
        lines.append(f"{total} mutants appended by the change: {result['appended']}")
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
        args.output.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
        counts = Counter(r["outcome"] for r in records).most_common()
        print(", ".join(f"{count:,} {outcome}" for outcome, count in counts))
        for failure in failures[:EXAMPLES]:
            print(failure, file=sys.stderr)
        if failures:
            print(f"{len(failures)} of {len(records)} mutants fail", file=sys.stderr)
        return 1 if failures else 0
    parent, change = (
        json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)
    )
    result = compare(parent, change)
    print(format_comparison(result))
    return 1 if result["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
