"""Step-2 sweep: how a source tree's allocate ends on 4,000 random small problems
and on the benchmark's 320 cone problems.

The "sweep" set covers what the benchmark recipe never reaches: zero
weights, high rate floors and the kink of the penalty norm. Its problems
are drawn from numpy.random.default_rng(1), in this order per problem:

- width, height = rng.integers(1, 7, 2), so grid sides 1-6;
- per frame in coding order, alpha = 10^U(7.5, 8.5), then beta =
  U(-0.45, -0.22);
- per frame, raw weight U(0.2, 1) x (U(0, 1) >= 0.3), so zero with
  probability 0.3;
- budget 1e6 bits per frame and floor U(1e-3, 0.9) x budget / n;
- lambda = 10^U(-1, 6).

The "cone" set is the benchmark's own recipe: the problems of
perfbench/workloads.make_problem for each class of the cone workload,
seeds 0-9 in the order perfbench/run.py draws them.

    python tools/step2_sweep.py run PARENT_TREE --output parent.json
    python tools/step2_sweep.py run CHANGED_TREE --output change.json
    python tools/step2_sweep.py compare parent.json change.json

Each problem is also allocated as two twins, with every alpha times
2^20 and times 2^-20: the same problem with SSE counted in other units,
which must end bit for bit as the problem does.

`run` imports lfalloc from TREE/src and turns every warning into an
error, so a numpy warning ends the run in a traceback; the cone problems
come from this checkout's perfbench. It writes the records and prints,
per set, the outcome counts, the largest kkt_residual among its
converged problems, with that problem's number, the same among the
converged problems whose rates sit at a zero residual of the split's
penalty, with how many do, and how many twins differ from their problem
in outcome, step-2 iterations or rates, and how many of those in
outcome. It exits 1 when more problems of a set end in NotConverged than
NOT_CONVERGED_LIMITS allows it (2 of the sweep, none of the cone set),
printing the NotConverged count of each set, or when any twin differs,
printing the twin counts of each set. One record per problem holds its
set, its outcome (converged, NotConverged or DegenerateWeights), P at
the result, linearized at the step-1 split as the benchmark's p_ratio
is, the result's kkt_residual and step-2 iterations, its rates, whether
they sit at a zero residual, and per twin what differs ("outcome",
"iterations or rates", or None); all but the set and outcome are None
for DegenerateWeights, and the iterations are None where step 2 never
ran: at lambda 0, or where the penalty at the split has no pair row, so
solve_step2 hands the problem to solve_step1. `compare` reports each set
on its own: outcomes and the transitions between them, rises of P above
P_RISE, the largest relative fall and rise of P (so a rounding-level
change shows its size), mean step-2 iterations, how many problems differ
in step-2 iterations and how many in kkt_residual, the largest
kkt_residual among the converged problems of each run, overall and at a
zero residual, the twin counts of each run, identical rates, and the
largest relative difference of any frame's rate between the two runs.
It names the first SHOWN_RISES problems of each transition, of the rises
and of the problems whose rates differ, largest difference first, and
exits 1 when any problem's outcome differs between the two runs.
Problems are numbered within their set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

PROBLEMS = 4000
SEED = 1
MAX_SIDE = 6
BITS_PER_FRAME = 1e6
OUTCOMES = ("converged", "NotConverged", "DegenerateWeights")
# P rises smaller than this, relative, count as rounding.
P_RISE = 1e-9
SHOWN_RISES = 10
CONE_SEEDS = range(10)
# The most problems of each set that may end in NotConverged.
NOT_CONVERGED_LIMITS = {"sweep": 2, "cone": 0}
# Each problem is also allocated with every alpha times these powers of
# two: SSE in other units, which must change nothing.
TWIN_SCALES = (2.0**20, 2.0**-20)


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


def allocate(lfalloc, problem):
    """The outcome of allocate on problem, with its result."""
    try:
        return "converged", lfalloc.allocate(problem)
    except lfalloc.NotConverged as exc:
        return "NotConverged", exc.result


def twin(lfalloc, problem, scale: float):
    """problem with every alpha times scale."""
    coords, alpha, beta = problem.grid.coding_order, problem.alpha.tolist(), problem.beta.tolist()
    models = {c: lfalloc.RDModelParams(scale * a, b) for c, a, b in zip(coords, alpha, beta)}
    return replace(problem, models=models)


def at_zero_residual(penalty, rates: np.ndarray) -> bool:
    """Whether coding-order rates sit at a zero residual of penalty: |A r +
    b| at most the allocator's ROUNDING times the norm of the terms that
    cancel in it, row by row |coef_i r_i| + |coef_j r_j| + |rhs|."""
    from lfalloc.allocator import ROUNDING

    left = penalty.coef_i * rates[penalty.col_i]
    right = penalty.coef_j * rates[penalty.col_j]
    terms = np.abs(left) + np.abs(right) + np.abs(penalty.rhs)
    return bool(np.linalg.norm(left + right + penalty.rhs) <= ROUNDING * np.linalg.norm(terms))


# The fields of a record that hold what allocate returned.
RESULT_FIELDS = ("p", "kkt_residual", "iterations", "rates", "at_zero_residual", "twins")


def solve(lfalloc, problem, name: str) -> dict:
    """The record of one problem of set name."""
    outcome, result = allocate(lfalloc, problem)
    split = lfalloc.solve_step1(problem).rates
    penalty = lfalloc.build_cone_penalty(problem, split)
    # solve_step2's own test for handing the problem to solve_step1.
    stepped = problem.lam > 0.0 and penalty.coef_i.any()
    rates = list(result.rates.values())
    twins = []
    for scale in TWIN_SCALES:
        twin_outcome, twin_result = allocate(lfalloc, twin(lfalloc, problem, scale))
        if twin_outcome != outcome:
            twins.append("outcome")
        elif twin_result.iterations != result.iterations or list(twin_result.rates.values()) != rates:
            twins.append("iterations or rates")
        else:
            twins.append(None)
    return dict(
        set=name,
        outcome=outcome,
        p=lfalloc.penalized_objective(problem, penalty, result.rates),
        kkt_residual=result.kkt_residual,
        iterations=result.iterations if stepped else None,
        rates=rates,
        at_zero_residual=bool(stepped and at_zero_residual(penalty, np.array(rates))),
        twins=twins,
    )


def run_tree(tree: Path) -> list[dict]:
    """One record per problem of both sets, solved with the lfalloc of tree."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import lfalloc
    from workloads import WORKLOADS, make_problem, stream

    rng = np.random.default_rng(SEED)
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(PROBLEMS):
            try:
                problem = draw_problem(lfalloc, rng)
            except lfalloc.DegenerateWeights:
                record = dict(set="sweep", outcome="DegenerateWeights")
                records.append(record | dict.fromkeys(RESULT_FIELDS))
                continue
            records.append(solve(lfalloc, problem, "sweep"))
        cone = WORKLOADS["cone"]
        for seed in CONE_SEEDS:
            for cls, (side, lam) in enumerate(cone.classes):
                for k in range(cone.problems_per_class):
                    problem = make_problem(stream(seed, 1, cls, k), side, lam)
                    records.append(solve(lfalloc, problem, "cone"))
    return records


def sets(records: list[dict]) -> list[str]:
    """The names of the sets of records, in the order the records give them."""
    return list(dict.fromkeys(r["set"] for r in records))


def tally(records: list[dict]) -> dict:
    """The count of each outcome among records, in the order of OUTCOMES."""
    counts = Counter(r["outcome"] for r in records)
    return {outcome: counts[outcome] for outcome in OUTCOMES}


def kkt_residual_peak(records: list[dict], zero_residual=False) -> tuple[float, int] | None:
    """The largest kkt_residual among the converged records, or among
    those at a zero residual when zero_residual, with the number of the
    first record that has it; None when there is none."""
    converged = (
        (r["kkt_residual"], index)
        for index, r in enumerate(records)
        if r["outcome"] == "converged" and (r["at_zero_residual"] or not zero_residual)
    )
    return max(converged, key=lambda peak: peak[0], default=None)


def zero_residual_peak(records: list[dict]) -> str:
    """As text, the kkt_residual_peak of the converged records at a zero
    residual, and how many there are."""
    count = sum(r["outcome"] == "converged" and r["at_zero_residual"] for r in records)
    return f"{format_peak(kkt_residual_peak(records, zero_residual=True))} over {count:,} problems"


def twin_counts(records: list[dict]) -> tuple[int, int, int]:
    """How many twins the records have, how many of them differ from their
    problem in outcome, step-2 iterations or rates, and how many in
    outcome."""
    twins = [t for r in records if r["twins"] is not None for t in r["twins"]]
    return len(twins), sum(t is not None for t in twins), twins.count("outcome")


def format_twins(counts: tuple[int, int, int]) -> str:
    """twin_counts as text."""
    total, differ, outcome = counts
    return f"{differ:,} of {total:,} ({outcome:,} in outcome)"


def format_peak(peak: tuple[float, int] | None) -> str:
    """A kkt_residual_peak as text."""
    return "none" if peak is None else f"{peak[0]:.2e} (problem {peak[1]})"


def gate(records: list[dict]) -> list[str]:
    """The failures of a run, as lines: the NotConverged count of each set
    when a set has more than NOT_CONVERGED_LIMITS allows it, and the
    twin_counts of each set when some twin differs from its problem."""
    failures = []
    counts = Counter(r["set"] for r in records if r["outcome"] == "NotConverged")
    if any(counts[name] > limit for name, limit in NOT_CONVERGED_LIMITS.items()):
        failures.append(
            "NotConverged per set: "
            + ", ".join(
                f"{name} {counts[name]} (at most {limit})"
                for name, limit in NOT_CONVERGED_LIMITS.items()
            )
        )
    twins = {name: twin_counts([r for r in records if r["set"] == name]) for name in sets(records)}
    if any(differ for _, differ, _ in twins.values()):
        failures.append(
            "twins that differ per set: "
            + ", ".join(f"{name} {format_twins(counts)}" for name, counts in twins.items())
        )
    return failures


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per set, in the order the records give them: the summary of
    summarize_set."""
    if [r["set"] for r in parent] != [r["set"] for r in change]:
        raise ValueError("the two runs cover different problems")
    return {
        name: summarize_set(
            [r for r in parent if r["set"] == name], [r for r in change if r["set"] == name]
        )
        for name in sets(parent)
    }


def summarize_set(parent: list[dict], change: list[dict]) -> dict:
    """Outcome counts of both runs, the outcome transitions with their
    problems in order, the rises in P of change over parent above P_RISE,
    largest first, the largest relative fall and rise of P (each 0 where P
    never moves that way), the mean step-2 iterations of each over the
    problems both converge on and both ran step 2 for, how many problems
    differ in step-2 iterations and how many in kkt_residual, the
    kkt_residual_peak of each, overall and at a zero residual (with how
    many converged there), the twin_counts of each, how many end at
    identical rates, the problems whose rates differ with the largest
    relative difference of any of their frames' rates, largest first, and
    the largest of those differences (0 where no rate differs)."""
    pairs = list(zip(parent, change))
    transitions: dict[tuple[str, str], list[int]] = {}
    rises = []
    fall = largest_rise = 0.0
    for index, (a, b) in enumerate(pairs):
        if a["outcome"] != b["outcome"]:
            transitions.setdefault((a["outcome"], b["outcome"]), []).append(index)
        if a["p"] is not None and b["p"] is not None:
            rise = (b["p"] - a["p"]) / abs(a["p"])
            fall, largest_rise = min(fall, rise), max(largest_rise, rise)
            if rise > P_RISE:
                rises.append(dict(problem=index, rise=rise, parent=a["outcome"], change=b["outcome"]))
    rises.sort(key=lambda r: (-r["rise"], r["problem"]))
    rate_differences = sorted(
        (
            dict(
                problem=index,
                difference=max(abs(y - x) / abs(x) for x, y in zip(a["rates"], b["rates"])),
            )
            for index, (a, b) in enumerate(pairs)
            if a["rates"] is not None and b["rates"] is not None and a["rates"] != b["rates"]
        ),
        key=lambda d: (-d["difference"], d["problem"]),
    )
    both = [
        (a, b)
        for a, b in pairs
        if a["outcome"] == b["outcome"] == "converged"
        and a["iterations"] is not None
        and b["iterations"] is not None
    ]
    return dict(
        problems=len(pairs),
        parent=tally(parent),
        change=tally(change),
        transitions=[
            dict(parent=a, change=b, problems=problems)
            for (a, b), problems in sorted(transitions.items())
        ],
        rises=rises,
        p_moves=[fall, largest_rise],
        stepped_both=len(both),
        mean_iterations=[
            statistics.fmean(a["iterations"] for a, _ in both),
            statistics.fmean(b["iterations"] for _, b in both),
        ]
        if both
        else None,
        iterations_differ=sum(a["iterations"] != b["iterations"] for a, b in pairs),
        kkt_residual_differs=sum(a["kkt_residual"] != b["kkt_residual"] for a, b in pairs),
        kkt_residual_peaks=[kkt_residual_peak(parent), kkt_residual_peak(change)],
        zero_residual_peaks=[zero_residual_peak(parent), zero_residual_peak(change)],
        twins=[twin_counts(parent), twin_counts(change)],
        identical_rates=sum(a["rates"] == b["rates"] for a, b in pairs if a["rates"] is not None),
        rate_differences=rate_differences,
        rate_difference=rate_differences[0]["difference"] if rate_differences else 0.0,
    )


def format_summary(summary: dict) -> str:
    """The summary as text: a heading per set, then one figure a line."""
    lines = []
    for name, figures in summary.items():
        lines.append(f"{name} ({figures['problems']:,} problems)")
        lines += ["  " + line for line in format_set(figures)]
    return "\n".join(lines)


def format_set(summary: dict) -> list[str]:
    """One set's summary as lines."""
    lines = [
        f"{outcome}: {summary['parent'][outcome]:,} -> {summary['change'][outcome]:,}"
        for outcome in OUTCOMES
    ]
    for t in summary["transitions"]:
        problems = t["problems"]
        shown = ", ".join(map(str, problems[:SHOWN_RISES]))
        more = ", ..." if len(problems) > SHOWN_RISES else ""
        plural = "s" if len(problems) > 1 else ""
        lines.append(
            f"{t['parent']} -> {t['change']}: {len(problems):,} (problem{plural} {shown}{more})"
        )
    rises = summary["rises"]
    lines.append(f"P rises by more than {P_RISE:g} relative on {len(rises):,} problems")
    lines += [
        f"problem {r['problem']}: P {r['rise']:+.3e} relative ({r['parent']} -> {r['change']})"
        for r in rises[:SHOWN_RISES]
    ]
    fall, rise = summary["p_moves"]
    lines.append(f"P moves from {fall:+.1e} to {rise:+.1e} relative")
    if summary["stepped_both"]:
        before, after = summary["mean_iterations"]
        lines.append(
            f"mean step-2 iterations {before:.3f} -> {after:.3f} over the"
            f" {summary['stepped_both']:,} problems both converge on with step 2"
        )
    lines.append(
        f"step-2 iterations differ on {summary['iterations_differ']:,} problems,"
        f" kkt_residual on {summary['kkt_residual_differs']:,}"
    )
    before, after = map(format_peak, summary["kkt_residual_peaks"])
    lines.append(f"largest converged kkt_residual {before} -> {after}")
    before, after = summary["zero_residual_peaks"]
    lines.append(f"largest converged kkt_residual at a zero residual {before} -> {after}")
    before, after = map(format_twins, summary["twins"])
    lines.append(f"twins that differ {before} -> {after}")
    lines.append(f"identical rates on {summary['identical_rates']:,} problems")
    lines += [
        f"problem {d['problem']}: rates differ by {d['difference']:.1e} relative"
        for d in summary["rate_differences"][:SHOWN_RISES]
    ]
    lines.append(f"largest relative rate difference {summary['rate_difference']:.1e}")
    return lines


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
        records = run_tree(args.tree.resolve())
        args.output.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
        for name in sets(records):
            members = [r for r in records if r["set"] == name]
            print(f"{name}: " + " / ".join(f"{c:,} {o}" for o, c in tally(members).items()))
            peak = format_peak(kkt_residual_peak(members))
            print(f"{name}: largest converged kkt_residual {peak}")
            peak = zero_residual_peak(members)
            print(f"{name}: largest converged kkt_residual at a zero residual {peak}")
            print(f"{name}: twins that differ {format_twins(twin_counts(members))}")
        failures = gate(records)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1 if failures else 0
    parent, change = (
        json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)
    )
    summary = summarize(parent, change)
    print(format_summary(summary))
    if any(figures["transitions"] for figures in summary.values()):
        print("outcomes differ between the two runs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
