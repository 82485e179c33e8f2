"""lfalloc benchmark: accuracy-gated allocation latency and encoder calls to convergence.

    python3 perfbench/run.py --workload {waterfill,cone} --seed N --seconds S --trace {0,1}

Run from the repository root. Inputs are generated from the seed and
written through the library's writers; the program is driven in-process
through `lfalloc.cli.main(argv)`:

- `simulate` once on each of the workload's mock configs (encoder calls,
  passes and quality to convergence are counts, so they are not timed;
  a loop still cycling at the iteration cap counts with what it spent);
- `allocate` round-robin over the workload's problem files for S seconds.

Every output is checked. An allocation is accurate when its penalized
objective P is within 1e-6 relative of a certified reference P*
(reference.py). An inaccurate allocation has delivered no answer within
the run, so it is charged the whole window as its latency: a faster but
wrong allocator never looks faster.

With --trace 0 the last stdout line is the JSON record of end-to-end
metrics; with --trace 1 it holds per-layer metrics from a separate traced
run, with spans written to .perfbench_work/spans-*.csv.gz. Single
process, BLAS held to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The program is built from the checkout's sources; without them the
# imports below fail and the run ends before printing a result.
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lfalloc  # noqa: E402
from lfalloc import allocator, cli, encodesim  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GATE = 1e-6  # relative excess of P over P* that still counts as accurate
CERTIFICATE = 1e-8  # largest relative duality gap accepted for a reference
FEASIBILITY = 1e-9  # budget and warm-start slack; step 1 meets the budget to 1e-10
SETUP_LAUNCHES = 3  # per batch; batches run at the start, middle and end of a run
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _trimmed_mean(values) -> float:
    """Interquartile mean, so a rare loop that cycles until the iteration
    cap moves the figure only once it stops being rare."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def time_setup(count: int) -> list[float]:
    """Wall times of fresh interpreters running `import lfalloc.cli`, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import lfalloc.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        times.append(time.perf_counter() - start)
    return times


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI call: exit code, seconds, captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue()


@dataclass
class Item:
    """One allocation problem with its reference data."""

    cls: int
    path: Path
    output: Path
    lp: reference.LinearProblem
    pairs: reference.Pairs
    system: reference.ConeSystem
    p_warm: float  # P at the benchmark's own water-filling split
    t_warm: float  # T there
    p_star: float = math.nan
    certificate: float = math.nan
    expected: bytes = b""
    p: float = math.nan
    t: float = math.nan
    valid: bool = False
    accurate: bool = False


def make_items(spec, seed: int, inputs: Path) -> list[Item]:
    items = []
    for cls, (side, lam) in enumerate(spec.classes):
        for k in range(spec.problems_per_class):
            problem = workloads.make_problem(workloads.stream(seed, 1, cls, k), side, lam)
            path = inputs / f"problem-{cls}-{k}.txt"
            allocator.write_problem_file(problem, path)
            lp = workloads.linear_problem(problem)
            pairs = reference.Pairs.of(lp)
            r_wf, _ = reference.water_fill(lp, np.zeros(len(lp.w)))
            system = reference.cone_system(lp, pairs, r_wf)
            items.append(
                Item(
                    cls=cls,
                    path=path,
                    output=inputs / f"allocation-{cls}-{k}.csv",
                    lp=lp,
                    pairs=pairs,
                    system=system,
                    p_warm=reference.penalized(lp, system, r_wf),
                    t_warm=reference.true_cost(lp, pairs, r_wf),
                )
            )
    return items


def attach_references(items: list[Item]) -> None:
    """P* per problem, cached by problem file and reference source."""
    cache = WORK / "reference"
    cache.mkdir(parents=True, exist_ok=True)
    solver = Path(reference.__file__).read_bytes()
    for item in items:
        key = hashlib.sha256(solver + item.path.read_bytes()).hexdigest()
        entry = cache / f"{key}.json"
        if entry.exists():
            record = json.loads(entry.read_text())
        else:
            r_wf, _ = reference.water_fill(item.lp, np.zeros(len(item.lp.w)))
            ref = reference.solve_reference(item.lp, item.system, r_wf)
            record = {"p": ref.p, "certificate": ref.certificate}
            entry.write_text(json.dumps(record))
        item.p_star = record["p"]
        item.certificate = record["certificate"]


def check_allocation(item: Item) -> str | None:
    """Output checks on an allocation file; returns the first failure."""
    try:
        rates, _ = allocator.read_allocation_file(item.output)
    except lfalloc.LfallocError as exc:
        return f"re-read failed: {exc}"
    coords = [lfalloc.FrameCoord(int(u), int(v)) for u, v in zip(item.lp.u, item.lp.v)]
    if set(rates) != set(coords):
        return "frames differ from the problem"
    r = np.array([rates[c] for c in coords])
    if not np.all(np.isfinite(r)) or np.any(r < item.lp.min_rate):
        return "rate below the floor"
    if r.sum() > item.lp.budget * (1.0 + FEASIBILITY):
        return "budget exceeded"
    item.p = reference.penalized(item.lp, item.system, r)
    item.t = reference.true_cost(item.lp, item.pairs, r)
    if item.p > item.p_warm * (1.0 + FEASIBILITY):
        return "P above its water-filling warm start"
    return None


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n


@dataclass
class Tally:
    """Operations attempted, a message per failed one, and accurate-gate misses.

    A failure is a non-zero exit or an output that fails its checks. An
    allocation that passes every check but misses the accuracy gate is
    counted apart, as inaccurate; a loop that cycles until the iteration
    cap shows in the loop figures instead.
    """

    attempted: int = 0
    inaccurate: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass
class LoopRun:
    converged: bool
    calls: int
    passes: int
    wpsnr: float
    budget_ratio: float
    qp_step: float
    ledger: tracing.EncoderLedger


def run_loop(spec, seed: int, inputs: Path, tally: Tally) -> list[LoopRun]:
    """simulate on each mock; the first one twice, to check determinism."""
    runs = []
    for k in range(spec.mocks):
        setup = workloads.make_mock(workloads.stream(seed, 2, k), workloads.LOOP_SIDE)
        config = inputs / f"mock-{k}.txt"
        encodesim.write_mock_config(setup, config)
        budget = workloads.BITS_PER_FRAME * setup.grid.n_frames
        output = inputs / f"trace-{k}.csv"
        argv = [
            "simulate", str(config), "--budget", repr(budget), "--lambda", repr(spec.loop_lam),
            "--max-iters", str(workloads.LOOP_MAX_ITERS), "--output", str(output),
        ]
        outcomes = []
        for _ in range(2 if k == 0 else 1):
            ledger = tracing.EncoderLedger()
            with ledger.installed():
                code, _, err = call_cli(argv)
            tally.attempted += 1
            outcomes.append((code, output.read_bytes() if code == 0 else b"", ledger.as_tuple()))
        if code != 0:
            tally.failures.append(f"simulate {config.name}: exit {code}: {err.strip()}")
            continue
        if len(set(outcomes)) != 1:
            tally.failures.append(f"simulate {config.name}: a repeated run wrote other bytes or counts")
            continue
        try:
            trace = encodesim.read_trace_csv(output)
        except lfalloc.LfallocError as exc:
            tally.failures.append(f"simulate {config.name}: trace re-read failed: {exc}")
            continue
        if any(len(it.rows) != setup.grid.n_frames for it in trace.iterations):
            tally.failures.append(f"simulate {config.name}: a pass misses frames")
            continue
        qps = [[row[2] for row in it.rows] for it in trace.iterations]
        steps = [abs(a - b) for prev, cur in zip(qps, qps[1:]) for a, b in zip(prev, cur)]
        runs.append(
            LoopRun(
                converged=trace.converged,
                calls=ledger.calls,
                passes=len(trace.iterations),
                wpsnr=trace.iterations[-1].wpsnr_db,
                budget_ratio=sum(row[3] for row in trace.iterations[-1].rows) / budget,
                qp_step=statistics.fmean(steps) if steps else 0.0,
                ledger=ledger,
            )
        )
    return runs


def prepare_allocations(items: list[Item], tally: Tally) -> None:
    """First call per problem: check the output and fix its expected bytes."""
    for item in items:
        code, _, err = call_cli(["allocate", str(item.path), "--output", str(item.output)])
        tally.attempted += 1
        if code != 0:
            tally.failures.append(f"allocate {item.path.name}: exit {code}: {err.strip()}")
            continue
        problem = check_allocation(item)
        if problem is not None:
            tally.failures.append(f"allocate {item.path.name}: {problem}")
            continue
        item.expected = item.output.read_bytes()
        item.valid = True
        item.accurate = item.p <= item.p_star * (1.0 + GATE)
        tally.inaccurate += not item.accurate


@dataclass
class Window:
    ops: list[tuple[int, float, bool]]  # (item index, seconds, delivered)
    length: float  # measured seconds

    def __add__(self, other: "Window") -> "Window":
        return Window(ops=self.ops + other.ops, length=self.length + other.length)

    def latency(self, seconds: float, delivered: bool, gated: bool) -> float:
        """A call that delivered no accurate answer is charged the whole
        window when gated: the longest wait the run can observe."""
        return seconds if delivered or not gated else self.length

    def best(self, items: list[Item], gated: bool) -> list[float]:
        """Per problem, the fastest of its calls (seconds)."""
        best = [math.inf] * len(items)
        for index, seconds, delivered in self.ops:
            best[index] = min(best[index], self.latency(seconds, delivered, gated))
        return best

    def best_ms(self, items: list[Item], gated: bool) -> float:
        """Geometric mean over problem classes of the class median of best times."""
        by_class: dict[int, list[float]] = {}
        for item, value in zip(items, self.best(items, gated)):
            by_class.setdefault(item.cls, []).append(value)
        return 1e3 * _geomean(statistics.median(v) for v in by_class.values())

    def calls_ms(self, items: list[Item]) -> tuple[float, float, float, int]:
        """Gated per-call p50 (geometric mean of class medians) and tail."""
        by_class: dict[int, list[float]] = {}
        for index, seconds, delivered in self.ops:
            by_class.setdefault(items[index].cls, []).append(self.latency(seconds, delivered, True))
        pooled = [v for values in by_class.values() for v in values]
        tail, pct = percentile_tail(pooled)
        p50 = _geomean(statistics.median(v) for v in by_class.values())
        return 1e3 * p50, 1e3 * tail, pct, len(pooled)


def timed_window(items: list[Item], seconds: float, tally: Tally, tracer=None) -> Window:
    """allocate round-robin over the problems for `seconds`, at least once each."""
    ops = []
    first = time.perf_counter()
    deadline = first + seconds
    k = 0
    while time.perf_counter() < deadline or len(ops) < len(items):
        index = k % len(items)
        item = items[index]
        if tracer is not None:
            tracer.op = k
        k += 1
        code, took, _ = call_cli(["allocate", str(item.path), "--output", str(item.output)])
        ok = code == 0 and item.valid and item.output.read_bytes() == item.expected
        tally.attempted += 1
        if not ok:
            tally.failures.append(f"allocate {item.path.name}: exit {code} or output differs from the first call")
        elif not item.accurate:
            tally.inaccurate += 1
        ops.append((index, took, ok and item.accurate))
    return Window(ops=ops, length=time.perf_counter() - first)


def end_to_end(
    setup_s: float, items: list[Item], loops: list[LoopRun], window: Window, tally: Tally
) -> tuple[dict, dict]:
    """Gated metrics for the JSON record, plus figures printed beside them."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "alloc_best_ms": (window.best_ms(items, gated=True), "ms"),
        "p_ratio": (_geomean(item.p / item.p_star for item in items), "ratio"),
        "t_ratio": (_geomean(item.t / item.t_warm for item in items), "ratio"),
        "encoder_calls": (_trimmed_mean(r.calls for r in loops), "count"),
        "passes": (_trimmed_mean(r.passes for r in loops), "count"),
        "final_wpsnr_db": (_trimmed_mean(r.wpsnr for r in loops), "dB"),
        "budget_ratio": (_trimmed_mean(r.budget_ratio for r in loops), "ratio"),
    }
    p50, tail, pct, n = window.calls_ms(items)
    delivered = sum(op[2] for op in window.ops)
    failed = len(tally.failures)
    calls_per_frame_pass = statistics.fmean(r.calls / r.passes for r in loops) / workloads.LOOP_SIDE**2
    extra = {
        "alloc_p50_ms": (p50, "ms", f"per call, {n} calls"),
        "alloc_tail_ms": (tail, "ms", f"p{pct:.1f} of {n} calls, {TAIL_BEYOND} beyond it"),
        "alloc_ok_per_s": (delivered / window.length, "1/s", f"{delivered} accurate of {len(window.ops)} calls"),
        "fail_share": (
            (failed + tally.inaccurate) / tally.attempted, "ratio",
            f"{failed} failed, {tally.inaccurate} inaccurate, {tally.attempted} attempted",
        ),
        "p_gap": (
            max(item.p / item.p_star for item in items) - 1.0, "ratio",
            f"worst (P - P*) / P*; {sum(not i.accurate for i in items)} of {len(items)} problems miss the gate",
        ),
        "calls_per_frame_pass": (calls_per_frame_pass, "count", "encoder calls per frame per pass"),
        "converged_share": (
            statistics.fmean(r.converged for r in loops), "ratio",
            f"loops settled within {workloads.LOOP_MAX_ITERS} passes; the rest cycle and count at the cap",
        ),
        "certificate": (max(item.certificate for item in items), "ratio", "worst reference duality gap"),
    }
    return metrics, extra


LOOP_SPANS = ("encodesim.read_mock_config", "encodesim.write_trace_csv", "encodesim.trial_sweep", "rdmodel.fit_power_model")
ALLOC_SPANS = (
    "allocator.read_problem_file", "allocator.write_allocation_file", "allocator.solve_step1",
    "allocator.build_cone_penalty", "allocator.solve_step2", "allocator.evaluate_cost",
    "allocator.predicted_distortions", "lightfield.unify_weights", "metrics.cost", "metrics.discontinuity",
)
ALLOC_COUNTS = (
    "allocator.solve_step1.iterations", "allocator.build_cone_penalty.rows",
    "allocator.solve_step2.iterations", "allocator.solve_step2.not_converged",
    "allocator.project_rates.calls", "allocator.evaluate_cost.calls", "lightfield.proximity.calls",
    "rdmodel.eval_model.calls", "rdmodel.linearize.calls",
)


def per_layer(tracer, alloc_counts: Counter, loop_counts: Counter, n_alloc: int, n_loop: int,
              loops: list[LoopRun], overhead_ms: float) -> dict:
    """Per-call layer figures: allocate-side per timed call, loop side per simulate run.

    Loop spans carry op -1; timed allocate calls carry their index.
    """
    own = tracer.self_times()
    self_s: Counter = Counter()
    span_s: Counter = Counter()
    for (name, start, end, _, op), mine in zip(tracer.spans, own):
        side = "loop" if op < 0 else "alloc"
        self_s[side, name] += mine
        span_s[side, name] += end - start
    metrics = {"allocator.allocate.s": (span_s["alloc", "allocator.allocate"] / n_alloc, "s")}
    for name in ALLOC_SPANS:
        metrics[f"{name}.self_s"] = (self_s["alloc", name] / n_alloc, "s")
    for name in ALLOC_COUNTS:
        metrics[name] = (alloc_counts[name] / n_alloc, "count")
    metrics["trace_overhead_ms"] = (overhead_ms, "ms")
    for name in LOOP_SPANS:
        metrics[f"loop.{name}.self_s"] = (self_s["loop", name] / n_loop, "s")
    total_calls = sum(r.ledger.calls for r in loops)
    metrics.update({
        "loop.rdmodel.fit_power_model.calls": (loop_counts["rdmodel.fit_power_model.calls"] / n_loop, "count"),
        "loop.encode_frame.trial": (statistics.fmean(r.ledger.trial for r in loops), "count"),
        "loop.encode_frame.search": (statistics.fmean(r.ledger.search for r in loops), "count"),
        "loop.encode_frame.committed": (statistics.fmean(r.ledger.committed for r in loops), "count"),
        "loop.encode_frame.repeat_share": (sum(r.ledger.repeats for r in loops) / total_calls, "ratio"),
        "loop.encode_frame.repeat_share_any_pass": (
            sum(r.ledger.repeats_any_pass for r in loops) / total_calls, "ratio"
        ),
        "loop.qp_step_mean": (statistics.fmean(r.qp_step for r in loops), "qp"),
        "loop.converged_share": (statistics.fmean(r.converged for r in loops), "ratio"),
        "loop.allocate.s": (span_s["loop", "allocator.allocate"] / n_loop, "s"),
        "loop.encodesim.run_iteration.calls": (loop_counts["encodesim.run_iteration.calls"] / n_loop, "count"),
        "loop.encodesim.run_to_convergence.s": (span_s["loop", "encodesim.run_to_convergence"] / n_loop, "s"),
    })
    return metrics


def run(args, inputs: Path) -> dict:
    spec = workloads.WORKLOADS[args.workload]
    setup_times = time_setup(SETUP_LAUNCHES)
    tally = Tally()
    items = make_items(spec, args.seed, inputs)
    attach_references(items)
    uncertified = [item.path.name for item in items if not item.certificate <= CERTIFICATE]
    for name in uncertified:
        print(f"ERROR reference for {name} not certified to {CERTIFICATE:g}", file=sys.stderr)

    # The timed window is split around the loop, so that each problem's
    # best time samples two stretches of the run; setup launches likewise.
    prepare_allocations(items, tally)
    first = timed_window(items, args.seconds / 2.0, tally)
    tracer = tracing.Tracer() if args.trace else None
    loop_counts: Counter = Counter()
    alloc_counts: Counter = Counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.counts = loop_counts
        loops = run_loop(spec, args.seed, inputs, tally)
    n_simulate = tally.attempted - len(items) - len(first.ops)
    setup_times += time_setup(SETUP_LAUNCHES)
    if tracer:
        with tracer.installed():
            tracer.counts = alloc_counts
            second = timed_window(items, args.seconds / 2.0, tally, tracer)
        # Untraced first half against traced second half.
        overhead_ms = second.best_ms(items, gated=False) - first.best_ms(items, gated=False)
        window = second
    else:
        window = first + timed_window(items, args.seconds / 2.0, tally)
    setup_s = statistics.median(setup_times + time_setup(SETUP_LAUNCHES))

    failed = len(tally.failures)
    for message in tally.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    correct = failed == 0 and not uncertified
    if not loops or not all(item.valid for item in items):
        return {"correct": False, "attempted": tally.attempted, "failed": failed, "metrics": {}}
    if tracer:
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.csv.gz")
        metrics = per_layer(tracer, alloc_counts, loop_counts, len(window.ops), n_simulate, loops, overhead_ms)
        extra = {"spans": (len(tracer.spans), "count", "written to .perfbench_work/; loop.* per simulate run")}
    else:
        metrics, extra = end_to_end(setup_s, items, loops, window, tally)
    mode = "traced" if tracer else "tracing off"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s window, {mode}: "
          f"{len(window.ops)} timed allocate calls over {len(items)} problems, {len(loops)} simulate runs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:<14.6g} {unit}")
    print("  also reported, not gated:")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:42s} {value:<14.6g} {unit:6s} {note}")
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(lfalloc.__file__).resolve().parent != (SRC / "lfalloc").resolve():
        print(f"error: lfalloc imported from {lfalloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    inputs = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True)
    try:
        record = run(args, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
