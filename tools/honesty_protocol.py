"""Honesty protocol for encode-loop changes: BD-rate of a source tree against a parent.

The protocol runs 384 loops per source tree: 13x13 benchmark mocks
(perfbench/workloads.make_mock of stream(seed, 2, k)) for seeds 77-80 and
k 0-5, at lambda 0 and 10, curvature 0 and 0.02, and 0.5, 0.8, 1.1 and
1.4 Mbit per frame, each run by run_to_convergence for at most 40 passes.
The four budgets of one (seed, k, lambda, curvature) form a rate-quality
curve from the final passes' total rate and wPSNR, and two trees are
compared curve by curve with metrics.bd_rate. Each loop's record also
holds the sha256 of its trace as write_trace_csv writes it, and `compare`
counts the loops, matched by seed, k, lambda, curvature and budget, whose
traces differ.

    python tools/honesty_protocol.py run PARENT_TREE --output parent.json
    python tools/honesty_protocol.py run CHANGED_TREE --output change.json
    python tools/honesty_protocol.py compare parent.json change.json

`run` imports lfalloc from TREE/src, so each tree's loop is measured with
its own code; the mocks come from this checkout's perfbench. A single
curve moves by a few tenths of a percent from which fixed point a loop
lands on, so judge by the means, never by one curve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (77, 78, 79, 80)
MOCKS = 6
LAMBDAS = (0.0, 10.0)
CURVATURES = (0.0, 0.02)
BITS_PER_FRAME = (0.5e6, 0.8e6, 1.1e6, 1.4e6)
SIDE = 13
MAX_PASSES = 40


def trace_digest(write_trace_csv, trace, path: Path) -> str:
    """sha256 of the file write_trace_csv writes for trace at path."""
    write_trace_csv(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_tree(tree: Path, trace_path: Path) -> list[dict]:
    """One record per protocol loop, run with the lfalloc of tree; each
    loop's trace is written to trace_path to be digested."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    from lfalloc import MockEncoder, run_to_convergence, write_trace_csv
    from workloads import make_mock, stream

    records = []
    for seed in SEEDS:
        for k in range(MOCKS):
            setup = make_mock(stream(seed, 2, k), SIDE)
            for lam in LAMBDAS:
                for curvature in CURVATURES:
                    config = replace(setup.config, curvature=curvature)
                    for bits in BITS_PER_FRAME:
                        trace = run_to_convergence(
                            MockEncoder(config),
                            setup.grid,
                            setup.weights,
                            bits * setup.grid.n_frames,
                            lam,
                            MAX_PASSES,
                        )
                        last = trace.entries[-1]
                        records.append(
                            dict(
                                seed=seed,
                                k=k,
                                lam=lam,
                                curvature=curvature,
                                bits_per_frame=bits,
                                settled=trace.converged,
                                passes=len(trace.entries),
                                calls=trace.encodes,
                                rate=sum(last.rates.values()),
                                wpsnr_db=last.wpsnr_db,
                                trace=trace_digest(write_trace_csv, trace, trace_path),
                            )
                        )
    return records


def _curves(records: list[dict]) -> dict[tuple, list]:
    """Rate-quality points per (seed, k, lambda, curvature)."""
    from lfalloc import RDPoint

    curves = defaultdict(list)
    for r in records:
        curves[r["seed"], r["k"], r["lam"], r["curvature"]].append(
            RDPoint(r["rate"], r["wpsnr_db"])
        )
    return curves


def _traces(records: list[dict]) -> dict[tuple, str]:
    """Trace digest per (seed, k, lambda, curvature, budget)."""
    return {
        (r["seed"], r["k"], r["lam"], r["curvature"], r["bits_per_frame"]): r["trace"]
        for r in records
    }


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Mean BD-rate of change over parent per seed and per (lambda,
    curvature) set, settled loops, encoder calls and passes of each, and
    the loops whose traces differ."""
    from lfalloc import bd_rate

    anchors, tests = _curves(parent), _curves(change)
    parent_traces, change_traces = _traces(parent), _traces(change)
    if anchors.keys() != tests.keys() or parent_traces.keys() != change_traces.keys():
        raise ValueError("the two runs cover different curves")
    by_seed, by_set = defaultdict(list), defaultdict(list)
    for key in sorted(anchors):
        seed, _, lam, curvature = key
        value = bd_rate(anchors[key], tests[key])
        by_seed[seed].append(value)
        by_set[f"lambda {lam:g}, curvature {curvature:g}"].append(value)

    def totals(records):
        return dict(
            loops=len(records),
            settled=sum(r["settled"] for r in records),
            calls=sum(r["calls"] for r in records),
            passes=sum(r["passes"] for r in records),
        )

    return dict(
        bd_rate_by_seed={seed: statistics.fmean(v) for seed, v in by_seed.items()},
        bd_rate_by_set={name: statistics.fmean(v) for name, v in by_set.items()},
        parent=totals(parent),
        change=totals(change),
        traces_differing=sum(parent_traces[key] != change_traces[key] for key in parent_traces),
    )


def format_summary(summary: dict) -> str:
    """The summary as text, one figure a line."""
    by_seed, by_set = summary["bd_rate_by_seed"], summary["bd_rate_by_set"]
    lines = [f"seed {seed}: mean BD-rate {v:+.3f}%" for seed, v in by_seed.items()]
    lines += [f"{name}: mean BD-rate {v:+.3f}%" for name, v in by_set.items()]
    parent, change = summary["parent"], summary["change"]
    lines.append(f"settled {parent['settled']} -> {change['settled']} of {change['loops']} loops")
    lines.append(f"encoder calls {parent['calls']:,} -> {change['calls']:,}")
    lines.append(f"passes {parent['passes']:,} -> {change['passes']:,}")
    lines.append(f"traces differing {summary['traces_differing']} of {change['loops']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the protocol loops of one source tree")
    p.add_argument("tree", type=Path, help="source tree whose src/lfalloc is measured")
    p.add_argument("--output", required=True, type=Path, help="JSON file of loop records")
    p = sub.add_parser("compare", help="compare the records of two trees")
    p.add_argument("parent", type=Path, help="records of the parent tree")
    p.add_argument("change", type=Path, help="records of the changed tree")
    args = parser.parse_args(argv)
    if args.command == "run":
        with tempfile.TemporaryDirectory() as scratch:
            records = run_tree(args.tree.resolve(), Path(scratch) / "trace.csv")
        args.output.write_text(json.dumps(records, indent=1) + "\n")
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    parent, change = (json.loads(path.read_text()) for path in (args.parent, args.change))
    print(format_summary(summarize(parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
