"""Step-2 sweep: how a source tree's allocate ends on 4,000 random small problems.

The problems cover what the benchmark recipe never reaches: zero weights,
high rate floors and the kink of the penalty norm. They are drawn from
numpy.random.default_rng(1), in this order per problem:

- width, height = rng.integers(1, 7, 2), so grid sides 1-6;
- per frame in coding order, alpha = 10^U(7.5, 8.5), then beta =
  U(-0.45, -0.22);
- per frame, raw weight U(0.2, 1) x (U(0, 1) >= 0.3), so zero with
  probability 0.3;
- budget 1e6 bits per frame and floor U(1e-3, 0.9) x budget / n;
- lambda = 10^U(-1, 6).

    python tools/step2_sweep.py run PARENT_TREE --output parent.json
    python tools/step2_sweep.py run CHANGED_TREE --output change.json
    python tools/step2_sweep.py compare parent.json change.json

`run` imports lfalloc from TREE/src and turns every warning into an
error, so a numpy warning ends the run in a traceback. One record per
problem holds its outcome (converged, NotConverged or DegenerateWeights),
P at the result (None for DegenerateWeights), linearized at the step-1
split as the benchmark's p_ratio is, and the result's kkt_residual.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections import Counter
from pathlib import Path

PROBLEMS = 4000
SEED = 1
MAX_SIDE = 6
BITS_PER_FRAME = 1e6
OUTCOMES = ("converged", "NotConverged", "DegenerateWeights")
# P rises smaller than this, relative, count as rounding.
P_RISE = 1e-9
SHOWN_RISES = 10


def draw_problem(lfalloc, rng):
    """The next sweep problem from rng; raises DegenerateWeights, after
    the problem's last draw, where every weight is zero."""
    width, height = (int(x) for x in rng.integers(1, MAX_SIDE + 1, 2))
    n = width * height
    alpha = 10.0 ** rng.uniform(7.5, 8.5, n)
    beta = rng.uniform(-0.45, -0.22, n)
    raw = rng.uniform(0.2, 1.0, n) * (rng.uniform(0.0, 1.0, n) >= 0.3)
    budget = BITS_PER_FRAME * n
    floor = rng.uniform(1e-3, 0.9) * budget / n
    lam = 10.0 ** rng.uniform(-1.0, 6.0)
    grid = lfalloc.spiral_order(width, height)
    coords = grid.coding_order
    return lfalloc.AllocationProblem(
        grid=grid,
        weights=lfalloc.unify_weights(dict(zip(coords, raw.tolist()))),
        models={
            c: lfalloc.RDModelParams(alpha=a, beta=b)
            for c, a, b in zip(coords, alpha.tolist(), beta.tolist())
        },
        budget=budget,
        lam=lam,
        min_rate=floor,
    )


def run_tree(tree: Path) -> list[dict]:
    """One record per sweep problem, solved with the lfalloc of tree."""
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    import lfalloc

    rng = np.random.default_rng(SEED)
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(PROBLEMS):
            try:
                problem = draw_problem(lfalloc, rng)
            except lfalloc.DegenerateWeights:
                records.append(dict(outcome="DegenerateWeights", p=None, kkt_residual=None))
                continue
            try:
                result, outcome = lfalloc.allocate(problem), "converged"
            except lfalloc.NotConverged as exc:
                result, outcome = exc.result, "NotConverged"
            split = lfalloc.solve_step1(problem).rates
            penalty = lfalloc.build_cone_penalty(problem, split)
            p = lfalloc.penalized_objective(problem, penalty, result.rates)
            records.append(dict(outcome=outcome, p=p, kkt_residual=result.kkt_residual))
    return records


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Outcome counts of both runs, the outcome transitions, and the rises
    in P of change over parent above P_RISE, largest first."""
    if len(parent) != len(change):
        raise ValueError("the two runs cover different problems")
    transitions = Counter(
        (a["outcome"], b["outcome"]) for a, b in zip(parent, change) if a["outcome"] != b["outcome"]
    )
    rises = []
    for index, (a, b) in enumerate(zip(parent, change)):
        if a["p"] is not None and b["p"] is not None:
            rise = (b["p"] - a["p"]) / abs(a["p"])
            if rise > P_RISE:
                rises.append(dict(problem=index, rise=rise, parent=a["outcome"], change=b["outcome"]))
    rises.sort(key=lambda r: (-r["rise"], r["problem"]))

    def counts(records):
        tally = Counter(r["outcome"] for r in records)
        return {outcome: tally[outcome] for outcome in OUTCOMES}

    return dict(
        parent=counts(parent),
        change=counts(change),
        transitions=[dict(parent=a, change=b, count=c) for (a, b), c in sorted(transitions.items())],
        rises=rises,
    )


def format_summary(summary: dict) -> str:
    """The summary as text, one figure a line."""
    lines = [
        f"{outcome}: {summary['parent'][outcome]:,} -> {summary['change'][outcome]:,}"
        for outcome in OUTCOMES
    ]
    lines += [f"{t['parent']} -> {t['change']}: {t['count']:,}" for t in summary["transitions"]]
    rises = summary["rises"]
    lines.append(f"P rises by more than {P_RISE:g} relative on {len(rises):,} problems")
    lines += [
        f"problem {r['problem']}: P {r['rise']:+.3e} relative ({r['parent']} -> {r['change']})"
        for r in rises[:SHOWN_RISES]
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="solve the sweep problems with one source tree")
    p.add_argument("tree", type=Path, help="source tree whose src/lfalloc is measured")
    p.add_argument("--output", required=True, type=Path, help="JSON file of problem records")
    p = sub.add_parser("compare", help="compare the records of two trees")
    p.add_argument("parent", type=Path, help="records of the parent tree")
    p.add_argument("change", type=Path, help="records of the changed tree")
    args = parser.parse_args(argv)
    if args.command == "run":
        args.output.write_text(json.dumps(run_tree(args.tree.resolve()), indent=1) + "\n")
        return 0
    parent, change = (json.loads(path.read_text()) for path in (args.parent, args.change))
    print(format_summary(summarize(parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
