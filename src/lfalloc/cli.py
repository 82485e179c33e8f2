"""Command-line front end for the allocation pipeline.

Subcommands cover the full workflow: fit power-law models from rate
samples, solve a bit allocation from a problem file, simulate the
iterative encode loop against the mock encoder, score per-frame
distortions, compare rate-quality curves, and print scan orders.

Exit codes are fixed so harnesses can assert failures precisely:
0 success, 2 parse or input error, 3 model fit error, 4 infeasible
budget, 5 metric domain error. Output files use shortest round-trip
float formatting, so identical inputs produce identical bytes on one
numpy and BLAS build at one BLAS thread count (step 2's solves can round
differently per thread count: across one and two threads, small and
13x13 grids mostly keep their bytes and 17x17 grids do not); stdout
summaries round to 4 significant digits. Set LFALLOC_LOG (DEBUG, INFO,
WARNING, ...) to log solver progress to stderr.

main(argv) may be called many times in one process. The parser is built
once, on the first call, and each call runs the cmd_* function this
module holds under the subcommand's name at that time.

Importing this module imports everything `allocate` runs, numpy included,
so a process pays that cost at start-up. Only `simulate`, and `metrics`
on a trace, import the encode loop (encodesim); the other commands never
load it.
"""

from __future__ import annotations

import argparse
import functools
import io
import logging
import os
import sys

from . import allocator, errors, metrics, rdmodel, records
from .errors import (
    DegenerateWeights,
    DomainError,
    IncompleteInput,
    InfeasibleBudget,
    InsufficientPoints,
    InsufficientSamples,
    LfallocError,
    ModelOutOfRange,
    NoOverlap,
    NonDecreasingRD,
    NotConverged,
    ParseError,
)
from .lightfield import FrameCoord, grid_to_text, read_weight_map_csv, spiral_order, unify_weights

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_INFEASIBLE = 4
EXIT_METRIC = 5

_MODEL_ERRORS = (InsufficientSamples, ModelOutOfRange, NonDecreasingRD)
_METRIC_ERRORS = (DomainError, InsufficientPoints, NoOverlap)
# The exit code of an error, by the first entry it is an instance of;
# any other error exits EXIT_INPUT.
_EXIT_CODES = (
    (_MODEL_ERRORS, EXIT_MODEL),
    (InfeasibleBudget, EXIT_INFEASIBLE),
    (_METRIC_ERRORS, EXIT_METRIC),
)


def _configure_logging() -> None:
    level_name = os.environ.get("LFALLOC_LOG")
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _emit(text: str, output: str | None) -> None:
    """Print text; also write its lines to output when a path is given."""
    print(text)
    if output is not None:
        records.write(output, text.splitlines())


def cmd_fit(args: argparse.Namespace) -> int:
    samples = rdmodel.read_samples_csv(args.samples)
    models = {}
    for key, frame_samples in samples.items():
        with errors.named(f"{args.samples}: frame {key}", *_MODEL_ERRORS):
            models[key] = rdmodel.fit_power_model(frame_samples)
    rdmodel.write_models_csv(models, args.output)
    for key, fit in models.items():
        print(
            f"frame {key}: alpha {fit.alpha:.4g}, beta {fit.beta:.4g}, "
            f"r_squared {fit.r_squared:.4g} ({fit.sample_count} samples)"
        )
    print(f"wrote {len(models)} models to {args.output}")
    return EXIT_OK


def cmd_allocate(args: argparse.Namespace) -> int:
    problem = allocator.read_problem_file(
        args.problem, budget=args.budget, lam=args.lam, min_rate=args.min_rate
    )
    try:
        result = allocator.allocate(problem)
    except NotConverged as exc:
        print(f"warning: {exc}; writing best iterate", file=sys.stderr)
        result = exc.result
    allocator.write_allocation_file(result, args.output)
    print(
        f"allocated {len(result.rates)} frames: total_cost {result.objective.total:.4g}, "
        f"kkt_residual {result.kkt_residual:.4g}, iterations {result.iterations}, "
        f"budget_used {result.budget_used:.4g}"
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import encodesim

    setup = encodesim.read_mock_config(args.config)
    adapter = encodesim.MockEncoder(setup.config)
    trace = encodesim.run_to_convergence(
        adapter,
        setup.grid,
        setup.weights,
        args.budget,
        args.lam,
        args.max_iters,
        min_rate=args.min_rate,
    )
    encodesim.write_trace_csv(trace, args.output)
    for index, entry in enumerate(trace.entries, 1):
        print(
            f"iteration {index}: total_cost {entry.cost.total:.4g}, "
            f"wpsnr {entry.wpsnr_db:.4g} dB"
        )
    print(f"converged {str(trace.converged).lower()} after {len(trace.entries)} iterations")
    print(f"encoder calls {trace.encodes}, cache hits {trace.cache_hits}")
    print(f"wrote {args.output}")
    return EXIT_OK


def _load_distortions(path: str) -> metrics.DistortionSet:
    """Accept either a per-frame SSE table or a full trace (final pass used),
    told apart by the first record line."""
    first = records.read(path, str)[0]
    if first == metrics.SSE_HEADER:
        return metrics.read_sse_csv(path)
    from . import encodesim

    if first == encodesim.TRACE_HEADER:
        rows = encodesim.read_trace_csv(path).iterations[-1].rows
        return metrics.DistortionSet({FrameCoord(u, v): sse for u, v, _, _, sse, _, _ in rows})
    raise ParseError(
        f"{path}: expected header '{metrics.SSE_HEADER}' or '{encodesim.TRACE_HEADER}'"
    )


def cmd_metrics(args: argparse.Namespace) -> int:
    distortions = _load_distortions(args.input)
    width, height, raw = read_weight_map_csv(args.weights)
    grid = spiral_order(width, height)
    with errors.named(args.weights, DegenerateWeights):
        weights = unify_weights(raw)
    try:
        breakdown = metrics.cost(grid, weights, distortions, args.lam)
    except IncompleteInput as exc:
        raise IncompleteInput(
            f"{args.input}: {exc} of the {width}x{height} weight map {args.weights}"
        ) from exc
    quality = metrics.wpsnr(breakdown.total, args.pixels)
    report = metrics.format_cost_breakdown(breakdown) + f"wpsnr_db {records.number(quality)}\n"
    if args.output is not None:
        records.write(args.output, report.splitlines())
    print(f"weighted_distortion {breakdown.weighted_distortion:.4g}")
    print(f"discontinuity {breakdown.discontinuity:.4g}")
    print(f"lambda {breakdown.lam:.4g}")
    print(f"total {breakdown.total:.4g}")
    print(f"wpsnr {quality:.4g} dB")
    return EXIT_OK


def cmd_bdrate(args: argparse.Namespace) -> int:
    paths = args.anchor, args.test
    curves = [metrics.read_curve_csv(path) for path in paths]
    # Both files read before either curve is judged, each by bd_rate's own check.
    for path, points in zip(paths, curves):
        with errors.named(path, InsufficientPoints, DomainError):
            metrics._log_rate_curve(points)
    value = metrics.bd_rate(*curves)
    # Adding 0.0 turns a negative zero after rounding into zero.
    _emit(f"{round(value, 2) + 0.0:.2f}%", args.output)
    return EXIT_OK


def cmd_spiral(args: argparse.Namespace) -> int:
    grid = spiral_order(args.width, args.height)
    _emit(grid_to_text(grid).rstrip("\n"), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfalloc",
        description="Frame-level bit allocation for light-field pseudo-sequence coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit per-frame power-law models from rate samples")
    p.add_argument("samples", help="sample CSV (frame_index,qp,rate_bits,sse)")
    p.add_argument("--output", required=True, help="model CSV to write")

    p = sub.add_parser("allocate", help="solve a bit allocation from a problem file")
    p.add_argument("problem", help="problem file (grid, weights, models, budget)")
    p.add_argument("--budget", type=float, help="override the file's bit budget")
    p.add_argument("--lambda", dest="lam", type=float, help="override the file's lambda")
    p.add_argument("--min-rate", type=float, help="override the per-frame rate floor")
    p.add_argument("--output", required=True, help="allocation CSV to write")

    p = sub.add_parser("simulate", help="run the iterative encode loop on a mock encoder")
    p.add_argument("config", help="mock encoder configuration file")
    p.add_argument("--budget", type=float, required=True, help="total bit budget")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--max-iters", type=int, default=24)
    p.add_argument("--min-rate", type=float, help="per-frame rate floor")
    p.add_argument("--output", required=True, help="iteration trace CSV to write")

    p = sub.add_parser("metrics", help="score per-frame distortions against weights")
    p.add_argument("input", help="per-frame SSE CSV, or a trace CSV (final pass used)")
    p.add_argument("--weights", required=True, help="weight map CSV (one row per v)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument(
        "--pixels", type=int, required=True, help="total pixel count across frames"
    )
    p.add_argument("--output", help="report file to write")

    p = sub.add_parser("bdrate", help="average rate difference between two curves")
    p.add_argument("anchor", help="anchor curve CSV (rate_bits,quality_db)")
    p.add_argument("test", help="test curve CSV")
    p.add_argument("--output", help="file to write the percent line to")

    p = sub.add_parser("spiral", help="print the center-out scan order for a grid")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("--output", help="grid file to write")

    return parser


def main(argv=None) -> int:
    _configure_logging()
    # A character stdout's encoding cannot hold prints escaped, not as an
    # error; a stream that is not a TextIOWrapper holds text in memory.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except (LfallocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
