"""Command-line workflow: subcommands, exit codes, and output formats."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_PAIRS
from lfalloc import allocator, cli
from lfalloc import (
    AllocationProblem,
    AllocationResult,
    DistortionSet,
    FrameCoord,
    FrameGrid,
    MockEncoder,
    ParseError,
    RDModelParams,
    RDPoint,
    RDSample,
    allocate,
    build_cone_penalty,
    fit_power_model,
    penalized_objective,
    read_allocation_file,
    read_curve_csv,
    read_mock_config,
    read_problem_file,
    read_samples_csv,
    read_sse_csv,
    read_trace_csv,
    read_weight_map_csv,
    run_to_convergence,
    solve_step1,
    spiral_order,
    unify_weights,
    write_allocation_file,
    write_curve_csv,
    write_mock_config,
    write_models_csv,
    write_problem_file,
    write_samples_csv,
    write_sse_csv,
    write_trace_csv,
)
from lfalloc.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_METRIC,
    EXIT_MODEL,
    EXIT_OK,
    build_parser,
    main,
)
from lfalloc.encodesim import TRACE_HEADER
from lfalloc.lightfield import grid_to_text
from test_allocator import coupled_square, line_problem, sparse_problem, sweep_problem
from test_encodesim import seeded_mock, small_grid_setup
from test_metrics import close_quality_curve

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(cwd, *args, **env):
    """`python -W error *args` in cwd, with the package on the path and env
    added to the environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    command = [sys.executable, "-W", "error", *args]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)


def run_cli(cwd, *argv, **env):
    """`python -W error -m lfalloc.cli *argv` in cwd, as run_python."""
    return run_python(cwd, "-m", "lfalloc.cli", *argv, **env)


def write_reference_samples(path):
    samples = {
        str(i): [
            RDSample(qp=30 + k, rate=r, sse=a * r ** b)
            for k, r in enumerate((1e5, 2e5, 4e5, 8e5, 1.6e6))
        ]
        for i, (a, b) in enumerate(REFERENCE_PAIRS)
    }
    write_samples_csv(samples, path)
    return samples


class TestFitCommand:
    """lfalloc fit"""

    def test_recovers_models(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        models = tmp_path / "models.csv"
        fitted = {key: fit_power_model(s) for key, s in write_reference_samples(samples).items()}
        assert main(["fit", str(samples), "--output", str(models)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "frame 0: alpha 4.46e+07, beta -0.261, r_squared 1 (5 samples)" in out
        write_models_csv(fitted, tmp_path / "expected.csv")
        assert models.read_bytes() == (tmp_path / "expected.csv").read_bytes()
        for i, (alpha, beta) in enumerate(REFERENCE_PAIRS):
            assert fitted[str(i)].alpha == pytest.approx(alpha, rel=1e-6)
            assert fitted[str(i)].beta == pytest.approx(beta, rel=1e-6)

    def test_empty_samples_is_input_error(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("frame_index,qp,rate_bits,sse\n")
        code = main(["fit", str(samples), "--output", str(tmp_path / "m.csv")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_single_sample_is_model_error(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("frame_index,qp,rate_bits,sse\n0,30,1e5,1e6\n")
        code = main(["fit", str(samples), "--output", str(tmp_path / "m.csv")])
        assert code == EXIT_MODEL
        assert "frame 0" in capsys.readouterr().err

    def test_overflowing_alpha_is_model_error(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("frame_index,qp,rate_bits,sse\n0,30,1e300,1e-300\n0,31,2e300,1e-301\n")
        done = run_cli(tmp_path, "fit", "samples.csv", "--output", "m.csv")
        assert done.returncode == EXIT_MODEL
        assert done.stderr.startswith("error: samples.csv: frame 0: fitted alpha exp(")
        assert "Traceback" not in done.stderr and not (tmp_path / "m.csv").exists()

    def test_a_model_error_names_the_samples_file_and_the_frame(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        write_reference_samples(samples)
        with samples.open("a", encoding="utf-8") as lines:
            lines.write("7,30,1e5,1e6\n7,31,1e5,9e5\n")
        code = main(["fit", str(samples), "--output", str(tmp_path / "m.csv")])
        assert code == EXIT_MODEL
        message = "frame 7: need at least 2 distinct rates, got 2 samples"
        assert capsys.readouterr().err == f"error: {samples}: {message}\n"
        assert not (tmp_path / "m.csv").exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "m.csv")])
        assert code == EXIT_INPUT
        capsys.readouterr()


class TestAllocateCommand:
    """lfalloc allocate"""

    def problem_path(self, tmp_path):
        path = tmp_path / "problem.txt"
        write_problem_file(coupled_square(), path)
        return path

    def test_solves_and_writes(self, tmp_path, capsys):
        problem = self.problem_path(tmp_path)
        output = tmp_path / "alloc.csv"
        assert main(["allocate", str(problem), "--output", str(output)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "allocated 4 frames" in out
        rates, diagnostics = read_allocation_file(output)
        assert len(rates) == 4
        assert diagnostics["budget_used"] == pytest.approx(4e6, rel=1e-9)

    def test_budget_override(self, tmp_path, capsys):
        problem = self.problem_path(tmp_path)
        output = tmp_path / "alloc.csv"
        code = main(
            ["allocate", str(problem), "--budget", "8e6", "--output", str(output)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        _, diagnostics = read_allocation_file(output)
        assert diagnostics["budget_used"] == pytest.approx(8e6, rel=1e-9)

    def test_budget_override_moves_the_default_floor(self, tmp_path, capsys):
        problem = self.problem_path(tmp_path)
        floorless = tmp_path / "floorless.txt"
        lines = problem.read_text().splitlines(keepends=True)
        floorless.write_text("".join(ln for ln in lines if not ln.startswith("min_rate:")))
        output = tmp_path / "alloc.csv"
        argv = ["allocate", str(floorless), "--budget", "3e3", "--output", str(output)]
        assert main(argv) == EXIT_OK
        rates, diagnostics = read_allocation_file(output)
        assert diagnostics["budget_used"] == pytest.approx(3e3, rel=1e-9)
        assert min(rates.values()) >= 0.75
        # A floor given in the file or by --min-rate still wins.
        argv[1] = str(problem)
        assert main(argv) == EXIT_INFEASIBLE
        assert "rate floor 10000.0 x 4 frames exceeds budget 3000.0" in capsys.readouterr().err
        argv[1] = str(floorless)
        assert main(argv + ["--min-rate", "1e3"]) == EXIT_INFEASIBLE
        capsys.readouterr()

    def test_infeasible_floor_exit_code(self, tmp_path, capsys):
        problem = self.problem_path(tmp_path)
        code = main(
            [
                "allocate",
                str(problem),
                "--min-rate",
                "2e6",
                "--output",
                str(tmp_path / "alloc.csv"),
            ]
        )
        assert code == EXIT_INFEASIBLE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("budget", "nan"), ("lambda", "inf"), ("alpha", "inf"), ("weight", "nan")],
    )
    def test_non_finite_value_is_input_error(self, tmp_path, capsys, field, value):
        problem = self.problem_path(tmp_path)
        lines = problem.read_text().splitlines()
        frame = next(k for k, line in enumerate(lines) if line.startswith("frame:"))
        if field in ("budget", "lambda"):
            lines = [f"{field}: {value}" if ln.startswith(f"{field}:") else ln for ln in lines]
        else:
            parts = lines[frame].split(",")
            parts[{"weight": 2, "alpha": 3}[field]] = value
            lines[frame] = ",".join(parts)
        problem.write_text("\n".join(lines) + "\n")
        code = main(["allocate", str(problem), "--output", str(tmp_path / "a.csv")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, name",
        [
            ("--budget", "-1", "budget"),
            ("--budget", "nan", "budget"),
            ("--lambda", "-1", "lambda"),
            ("--min-rate", "0", "min_rate"),
        ],
    )
    def test_bad_override_is_input_error(self, tmp_path, capsys, option, value, name):
        # The file is sound, so the error names the quantity, not the file.
        problem = self.problem_path(tmp_path)
        output = tmp_path / "a.csv"
        argv = ["allocate", str(problem), option, value, "--output", str(output)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ") and str(problem) not in err
        assert not output.exists()

    def test_floor_derived_from_the_file_names_the_file(self, tmp_path, capsys):
        # The default floor of a subnormal budget underflows to 0; the
        # file's own floor over its one frame exceeds its budget.
        problem = tmp_path / "problem.txt"
        for keys, code, message in (
            ("budget: 5e-324", EXIT_INPUT, "min_rate must be positive and finite"),
            ("budget: 3\nmin_rate: 4", EXIT_INFEASIBLE,
             "rate floor 4.0 x 1 frames exceeds budget 3.0"),
        ):
            problem.write_text(f"width: 1\nheight: 1\n{keys}\nlambda: 0\nframe: 0,0,1,1e8,-0.3\n")
            assert main(["allocate", str(problem), "--output", str(tmp_path / "a.csv")]) == code
            assert capsys.readouterr().err == f"error: {problem}: {message}\n"

    @pytest.mark.parametrize("extra", ["repeat", "off_grid"])
    def test_extra_frame_line_is_input_error(self, tmp_path, capsys, extra):
        problem = self.problem_path(tmp_path)
        text = problem.read_text()
        frame = next(ln for ln in text.splitlines() if ln.startswith("frame: 1,1,"))
        if extra == "off_grid":
            frame = frame.replace("frame: 1,1,", "frame: 5,5,")
        problem.write_text(text + frame + "\n")
        code = main(["allocate", str(problem), "--output", str(tmp_path / "a.csv")])
        assert code == EXIT_INPUT
        assert ("duplicate frame (1,1)" if extra == "repeat" else "outside") in (
            capsys.readouterr().err
        )

    def test_not_converged_writes_the_best_iterate(self, tmp_path, capsys):
        """Step-2 sweep problem 1323, a 1x6 line with zero weights at lambda
        about 6.8e3, stops at the kink: allocate warns, writes the best
        iterate and exits 0."""
        problem = sweep_problem(1323)
        assert (problem.grid.width, problem.grid.height) == (1, 6)
        assert min(problem.weights.raw.values()) == 0.0
        assert problem.lam == pytest.approx(6.8e3, rel=0.01)
        path, output = tmp_path / "problem.txt", tmp_path / "alloc.csv"
        write_problem_file(problem, path)
        assert main(["allocate", str(path), "--output", str(output)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("warning: ") and "uncertified zero residual" in err, err
        assert err.endswith("; writing best iterate\n"), err
        rates, _ = read_allocation_file(output)
        assert len(rates) == 6 and sum(rates.values()) <= problem.budget

    def test_bad_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "problem.txt"
        bad.write_text("width: 2\n")
        code = main(["allocate", str(bad), "--output", str(tmp_path / "a.csv")])
        assert code == EXIT_INPUT
        capsys.readouterr()


class TestSimulateCommand:
    """lfalloc simulate"""

    def config_path(self, tmp_path, setup):
        path = tmp_path / "mock.txt"
        write_mock_config(setup, path)
        return path

    def test_decoupled_run_converges(self, tmp_path, capsys, decoupled_setup):
        config = self.config_path(tmp_path, decoupled_setup)
        trace_path = tmp_path / "trace.csv"
        code = main(
            ["simulate", str(config), "--budget", "2e7", "--output", str(trace_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "converged true after 3 iterations" in out
        parsed = read_trace_csv(trace_path)
        assert parsed.converged
        assert len(parsed.iterations) == 3

    def test_rerun_is_byte_identical(self, tmp_path, capsys, decoupled_setup):
        config = self.config_path(tmp_path, decoupled_setup)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", str(config), "--budget", "2e7", "--lambda", "5"]
        assert main(args + ["--output", str(a)]) == EXIT_OK
        first = capsys.readouterr().out.replace(str(a), "OUT")
        assert main(args + ["--output", str(b)]) == EXIT_OK
        second = capsys.readouterr().out.replace(str(b), "OUT")
        assert a.read_bytes() == b.read_bytes()
        assert first == second

    def test_single_iteration_reports_not_converged(self, tmp_path, capsys, decoupled_setup):
        config = self.config_path(tmp_path, decoupled_setup)
        code = main(
            [
                "simulate",
                str(config),
                "--budget",
                "2e7",
                "--max-iters",
                "1",
                "--output",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == EXIT_OK
        assert "converged false after 1 iterations" in capsys.readouterr().out

    def test_reports_encoder_calls(self, tmp_path, capsys, decoupled_setup):
        config = self.config_path(tmp_path, decoupled_setup)
        code = main(
            ["simulate", str(config), "--budget", "2e7", "--output", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_OK
        line = next(
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("encoder calls")
        )
        calls, hits = (int(part.split()[-1]) for part in line.split(","))
        assert calls > 0 and hits > 0

    def test_info_log_counts_each_pass(self, tmp_path, coupled_setup):
        config = self.config_path(tmp_path, coupled_setup)
        argv = ["simulate", str(config), "--budget", "2e7", "--lambda", "5"]
        done = run_cli(tmp_path, *argv, "--output", "t.csv", LFALLOC_LOG="INFO")
        assert done.returncode == EXIT_OK, done.stderr
        passes = int(re.search(r"after (\d+) iterations", done.stdout).group(1))
        totals = re.search(r"^encoder calls (\d+), cache hits (\d+)$", done.stdout, re.M)
        calls, hits = map(int, totals.groups())
        first = re.findall(
            r"iteration 1: cost \S+, (\d+) encoder calls, (\d+) cache hits$", done.stderr, re.M
        )
        re_encodes = re.findall(
            r"iteration (\d+): cost \S+, (\d+) encoder calls, (\d+) cache hits, "
            r"\d+ quantizers moved, \d+ committed on one encode, (\d+) retargeted",
            done.stderr,
        )
        assert passes > 2 and len(first) == 1
        assert [int(index) for index, _, _, _ in re_encodes] == list(range(2, passes + 1))
        assert int(first[0][0]) + sum(int(count) for _, count, _, _ in re_encodes) == calls
        assert int(first[0][1]) + sum(int(count) for _, _, count, _ in re_encodes) == hits
        assert hits > 0
        # Only a lambda-0 pass retargets.
        assert {retargeted for _, _, _, retargeted in re_encodes} == {"0"}

    @pytest.mark.parametrize(
        "option, value, name",
        [
            ("--budget", "nan", "budget"),
            ("--budget", "inf", "budget"),
            ("--lambda", "nan", "lambda"),
            ("--min-rate", "nan", "min_rate"),
            ("--min-rate", "-1", "min_rate"),
        ],
    )
    def test_bad_loop_scalar_is_input_error(self, tmp_path, capsys, option, value, name):
        # Rejected before the first encode, so a single pass cannot slip through.
        config = self.config_path(tmp_path, small_grid_setup())
        trace = tmp_path / "t.csv"
        argv = ["simulate", str(config), "--budget", "4e6", "--max-iters", "1"]
        assert main(argv + [option, value, "--output", str(trace)]) == EXIT_INPUT
        assert name in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("extra", ["repeat", "off_grid"])
    def test_extra_frame_line_is_input_error(self, tmp_path, capsys, extra):
        setup = small_grid_setup()
        config = self.config_path(tmp_path, setup)
        text = config.read_text()
        frame = next(ln for ln in text.splitlines() if ln.startswith("frame: 1,1,"))
        if extra == "off_grid":
            frame = frame.replace("frame: 1,1,", "frame: 5,5,")
        config.write_text(text + frame + "\n")
        code = main(
            ["simulate", str(config), "--budget", "4e6", "--output", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_INPUT
        assert ("duplicate frame (1,1)" if extra == "repeat" else "outside") in (
            capsys.readouterr().err
        )

    def test_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "mock.txt"
        bad.write_text("width: 1\n")
        code = main(
            ["simulate", str(bad), "--budget", "1e6", "--output", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_INPUT
        capsys.readouterr()


class TestMetricsCommand:
    """lfalloc metrics"""

    def test_adjacent_pair_report(self, tmp_path, capsys):
        sse_path = tmp_path / "sse.csv"
        write_sse_csv(
            DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 3.0}), sse_path
        )
        weights = tmp_path / "weights.csv"
        weights.write_text("1,1\n")
        report = tmp_path / "report.txt"
        code = main(
            [
                "metrics",
                str(sse_path),
                "--weights",
                str(weights),
                "--lambda",
                "5",
                "--pixels",
                "24",
                "--output",
                str(report),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "discontinuity 16" in out
        assert "total 24" in out
        assert "wpsnr 48.13 dB" in out
        text = report.read_text()
        assert "weighted_distortion 4.0\n" in text
        assert "total 24.0\n" in text
        assert "wpsnr_db" in text

    def test_trace_input_uses_final_pass(self, tmp_path, capsys, decoupled_setup):
        """A trace scores as the SSE table of its final pass."""
        setup = decoupled_setup
        trace = run_to_convergence(MockEncoder(setup.config), setup.grid, setup.weights, 2e7, 0, 8)
        assert trace.entries[0].sses != trace.entries[-1].sses
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_sse_csv(DistortionSet(trace.entries[-1].sses), tmp_path / "sse.csv")
        weights = tmp_path / "weights.csv"
        weights.write_text("\n".join(",".join(["1"] * 5) for _ in range(5)) + "\n")
        reports = []
        for name in ("trace.csv", "sse.csv"):
            argv = ["metrics", str(tmp_path / name), "--weights", str(weights)]
            argv += ["--lambda", "5", "--pixels", str(25 * 100_000)]
            assert main(argv + ["--output", str(tmp_path / "report.txt")]) == EXIT_OK
            reports.append((capsys.readouterr().out, (tmp_path / "report.txt").read_text()))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("lam, sse", [("nan", (1.0, 3.0)), ("inf", (2.0, 2.0))])
    def test_lambda_not_finite_is_input_error(self, tmp_path, capsys, lam, sse):
        """A lambda of nan, or of inf where every SSE gap is zero (inf x 0),
        exits 2 and writes no report rather than a cost that is not a number."""
        sse_path = tmp_path / "sse.csv"
        write_sse_csv(DistortionSet(dict(zip((FrameCoord(0, 0), FrameCoord(1, 0)), sse))), sse_path)
        weights = tmp_path / "weights.csv"
        weights.write_text("1,1\n")
        report = tmp_path / "report.txt"
        argv = ["metrics", str(sse_path), "--weights", str(weights), "--lambda", lam]
        assert main(argv + ["--pixels", "24", "--output", str(report)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: lambda must be nonnegative and finite\n"
        assert captured.out == "" and not report.exists()

    def test_unrecognized_header(self, tmp_path, capsys):
        bad = tmp_path / "input.csv"
        bad.write_text("rate_bits,quality_db\n1,2\n")
        weights = tmp_path / "weights.csv"
        weights.write_text("1\n")
        code = main(
            ["metrics", str(bad), "--weights", str(weights), "--pixels", "100"]
        )
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_missing_frame_is_input_error(self, tmp_path, capsys):
        sse_path = tmp_path / "sse.csv"
        write_sse_csv(DistortionSet({FrameCoord(0, 0): 1.0}), sse_path)
        weights = tmp_path / "weights.csv"
        weights.write_text("1,1\n")
        code = main(
            ["metrics", str(sse_path), "--weights", str(weights), "--pixels", "100"]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {sse_path}: SSE missing for frame (1,0) of the 2x1 weight map {weights}\n"
        )


class TestBdrateCommand:
    """lfalloc bdrate"""

    def curves(self, tmp_path, factor):
        anchor = [
            RDPoint(rate=1e5 * 2 ** i, quality=30.0 + 4 * i) for i in range(5)
        ]
        test = [RDPoint(rate=p.rate * factor, quality=p.quality) for p in anchor]
        a = tmp_path / "anchor.csv"
        t = tmp_path / "test.csv"
        write_curve_csv(anchor, a)
        write_curve_csv(test, t)
        return a, t

    def test_ten_percent(self, tmp_path, capsys):
        a, t = self.curves(tmp_path, 1.10)
        output = tmp_path / "bd.txt"
        assert main(["bdrate", str(a), str(t), "--output", str(output)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "10.00%"
        assert output.read_text() == "10.00%\n"

    def test_identical_curves(self, tmp_path, capsys):
        a, _ = self.curves(tmp_path, 1.10)
        assert main(["bdrate", str(a), str(a)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.00%"

    def test_negative_zero_normalized(self, tmp_path, capsys):
        a, t = self.curves(tmp_path, 1.0 - 1e-5)
        assert main(["bdrate", str(a), str(t)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.00%"

    @pytest.mark.parametrize("spacing", [1e-3, 1e-6])
    def test_close_qualities(self, tmp_path, capsys, spacing):
        anchor = close_quality_curve(spacing)
        a = tmp_path / "anchor.csv"
        t = tmp_path / "test.csv"
        write_curve_csv(anchor, a)
        write_curve_csv([RDPoint(rate=p.rate * 1.10, quality=p.quality) for p in anchor], t)
        assert main(["bdrate", str(a), str(t)]) == EXIT_OK
        assert capsys.readouterr().out == "10.00%\n"

    def test_three_points_is_metric_error(self, tmp_path, capsys):
        anchor = [RDPoint(rate=1e5 * 2 ** i, quality=30.0 + 4 * i) for i in range(3)]
        a = tmp_path / "anchor.csv"
        write_curve_csv(anchor, a)
        assert main(["bdrate", str(a), str(a)]) == EXIT_METRIC
        capsys.readouterr()

    @pytest.mark.parametrize("side", ["anchor", "test"])
    @pytest.mark.parametrize(
        "points, message",
        [
            ([(1e5, 30.0), (2e5, 34.0), (4e5, 38.0)], "need at least 4 points, got 3"),
            (
                [(1e5, 30.0), (2e5, 34.0), (3e5, 34.0), (4e5, 38.0)],
                "need at least 4 distinct quality values",
            ),
            ([(1e5, 30.0), (0.0, 34.0), (4e5, 38.0), (8e5, 42.0)], "rates must be positive"),
        ],
        ids=["three_points", "three_qualities", "zero_rate"],
    )
    def test_a_curve_fault_names_its_file(self, tmp_path, capsys, side, points, message):
        a, t = self.curves(tmp_path, 1.10)
        bad = a if side == "anchor" else t
        write_curve_csv([RDPoint(rate=r, quality=q) for r, q in points], bad)
        assert main(["bdrate", str(a), str(t)]) == EXIT_METRIC
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_overflowing_rate_difference_is_metric_error(self, tmp_path):
        anchor = [RDPoint(rate=float(i), quality=30.0 + i) for i in range(1, 5)]
        test = [RDPoint(rate=1e308 * (0.5 + 0.1 * i), quality=30.0 + i) for i in range(1, 5)]
        write_curve_csv(anchor, tmp_path / "anchor.csv")
        write_curve_csv(test, tmp_path / "test.csv")
        done = run_cli(tmp_path, "bdrate", "anchor.csv", "test.csv")
        assert done.returncode == EXIT_METRIC
        assert done.stderr == "error: rate difference is outside floating-point range\n"
        assert done.stdout == ""

    def test_disjoint_curves_is_metric_error(self, tmp_path, capsys):
        a, _ = self.curves(tmp_path, 1.10)
        far = [RDPoint(rate=1e5 * 2 ** i, quality=130.0 + 4 * i) for i in range(5)]
        f = tmp_path / "far.csv"
        write_curve_csv(far, f)
        assert main(["bdrate", str(a), str(f)]) == EXIT_METRIC
        capsys.readouterr()


class TestLogging:
    """LFALLOC_LOG, which logging.basicConfig reads once per process, so
    each case runs in its own."""

    def test_debug_logs_the_step2_stop(self, tmp_path):
        argv, _ = cli_inputs("allocate", tmp_path)
        done = run_cli(tmp_path, *argv, LFALLOC_LOG="DEBUG")
        assert done.returncode == EXIT_OK, done.stderr
        stop = r"^DEBUG lfalloc\.allocator: step2: \d+ Newton iterations, stopped by \w"
        assert re.search(stop, done.stderr, re.M)

    def test_an_unknown_level_name_logs_at_info(self, tmp_path):
        argv, _ = cli_inputs("simulate", tmp_path)
        done = run_cli(tmp_path, *argv, LFALLOC_LOG="chatty")
        assert done.returncode == EXIT_OK, done.stderr
        assert re.search(r"^INFO lfalloc\.encodesim: iteration 1: cost ", done.stderr, re.M)
        assert "DEBUG" not in done.stderr


class TestSpiralCommand:
    """lfalloc spiral"""

    def test_matches_library_order(self, tmp_path, capsys):
        output = tmp_path / "grid.txt"
        assert main(["spiral", "3", "3", "--output", str(output)]) == EXIT_OK
        out = capsys.readouterr().out
        expected = grid_to_text(spiral_order(3, 3))
        assert out == expected
        assert output.read_text() == expected

    def test_single_frame(self, capsys):
        assert main(["spiral", "1", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "1 1\n0,0\n"

    def test_bad_dimensions(self, capsys):
        assert main(["spiral", "0", "3"]) == EXIT_INPUT
        capsys.readouterr()


class TestMainInOneProcess:
    """main(argv) called many times in one process: one parser, and no
    value of one call carried into the next."""

    def test_calls_match_separate_processes(self, tmp_path, monkeypatch, capsys):
        write_problem_file(coupled_square(), tmp_path / "problem.txt")
        # Another problem on the same 2x2 grid, with other weights and
        # lambda, and one on a 3x1 grid.
        frames = {(0, 0): (1.0, 1e8, -0.3), (1, 1): (0.4, 5e7, -0.35), (0, 1): (0.7, 2e8, -0.4)}
        write_problem_file(sparse_problem(2, 2, 4e6, 50.0, 1e4, frames), tmp_path / "other.txt")
        write_problem_file(line_problem(REFERENCE_PAIRS, 3e6, lam=10.0), tmp_path / "line.txt")
        write_mock_config(small_grid_setup(gamma=0.2), tmp_path / "mock.txt")
        allocate = ["allocate", "problem.txt", "--output"]
        simulate = ["simulate", "mock.txt", "--budget", "4e6", "--max-iters", "3", "--output"]
        calls = [
            ["allocate", "problem.txt", "--budget", "8e6", "--output", "budget.csv"],
            ["allocate", "other.txt", "--output", "other.csv"],
            allocate + ["plain.csv"],
            ["allocate", "line.txt", "--output", "line.csv"],
            simulate + ["trace.csv"],
            None,  # an argv that argparse rejects
            ["allocate", "other.txt", "--output", "other_again.csv"],
            allocate + ["again.csv"],
        ]
        expected = {}
        for argv in filter(None, calls):
            done = run_cli(tmp_path, *argv)
            assert done.returncode == EXIT_OK, done.stderr
            expected[argv[-1]] = done.stdout, (tmp_path / argv[-1]).read_bytes()
            (tmp_path / argv[-1]).unlink()
        monkeypatch.chdir(tmp_path)
        for argv in calls:
            if argv is None:
                with pytest.raises(SystemExit) as info:
                    main(["allocate", "problem.txt", "--budget", "8e6"])
                assert info.value.code == 2
                capsys.readouterr()
                continue
            assert main(argv) == EXIT_OK
            out, data = expected[argv[-1]]
            assert capsys.readouterr().out == out
            assert (tmp_path / argv[-1]).read_bytes() == data, argv

    def test_a_bad_order_entry_fails_alike_on_every_read(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "problem.txt"
        write_problem_file(coupled_square(), path)
        lines = path.read_text().splitlines()
        line = next(k for k, text in enumerate(lines, 1) if text.startswith("order:"))
        lines[line - 1] = "order: 1,1;0,x;0,0;1,0"
        path.write_text("\n".join(lines) + "\n")
        expected = run_cli(tmp_path, "allocate", "problem.txt", "--output", "out.csv")
        assert expected.returncode == EXIT_INPUT
        assert expected.stderr.startswith(f"error: problem.txt: line {line}: ")
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main(["allocate", "problem.txt", "--output", "out.csv"]) == EXIT_INPUT
            assert capsys.readouterr().err == expected.stderr

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_patched_command_runs(self, monkeypatch, capsys):
        assert main(["spiral", "1", "1"]) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_spiral", lambda args: seen.append(args.width) or 7)
        assert main(["spiral", "3", "1"]) == 7
        assert seen == [3]
        capsys.readouterr()


# Imports lfalloc.cli, runs main on the argv given, if any, and prints its
# exit code and whether the encode loop was imported.
LOADS_LOOP = """\
import sys
import lfalloc.cli
assert {"numpy", "lfalloc.allocator"} <= sys.modules.keys()
code = lfalloc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, "lfalloc.encodesim" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, loads_loop",
    [
        (None, False),
        ("fit", False),
        ("allocate", False),
        ("spiral", False),
        ("metrics", False),
        ("bdrate", False),
        ("metrics-trace", True),
        ("simulate", True),
    ],
)
def test_only_simulate_and_a_trace_import_the_encode_loop(tmp_path, command, loads_loop):
    """A fresh `import lfalloc.cli` loads the allocator and numpy but not
    encodesim, which only `simulate` and `metrics` on a trace import."""
    if command is None:
        argv = []
    elif command == "spiral":
        argv = ["spiral", "3", "3"]
    else:
        argv = cli_inputs(command, tmp_path)[0]
    done = run_python(tmp_path, "-c", LOADS_LOOP, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} {loads_loop}"


def test_import_leaves_numpy_polynomial_unloaded(tmp_path):
    """bd_rate imports numpy.polynomial on its first call, so a process
    that never compares curves does not pay for it at start-up."""
    check = "import sys, lfalloc.cli; assert 'numpy.polynomial' not in sys.modules"
    done = run_python(tmp_path, "-c", check)
    assert done.returncode == 0, done.stderr


def cli_inputs(command, tmp):
    """argv for one subcommand, with inputs written by the library's writers,
    and the path of the input file that the record tests rewrite."""
    out = str(tmp / "out.txt")
    if command == "fit":
        path = tmp / "samples.csv"
        write_reference_samples(path)
        return ["fit", str(path), "--output", out], path
    if command == "allocate":
        path = tmp / "problem.txt"
        write_problem_file(coupled_square(), path)
        return ["allocate", str(path), "--output", out], path
    if command == "simulate":
        path = tmp / "mock.txt"
        write_mock_config(small_grid_setup(gamma=0.2), path)
        argv = ["simulate", str(path), "--budget", "4e6", "--max-iters", "3"]
        return argv + ["--output", out], path
    if command in ("metrics", "metrics-trace", "metrics-weights"):
        if command == "metrics":
            path = tmp / "sse.csv"
            sse = {c: 1e5 * (k + 1) for k, c in enumerate(spiral_order(2, 2).coding_order)}
            write_sse_csv(DistortionSet(sse), path)
        else:
            path = tmp / "trace.csv"
            write_trace_csv(one_pass_trace(), path)
        weights = tmp / "weights.csv"
        weights.write_text("1,0.5\n0.25,1\n")
        argv = ["metrics", str(path), "--weights", str(weights), "--lambda", "5"]
        argv += ["--pixels", "400", "--output", out]
        return argv, weights if command == "metrics-weights" else path
    assert command == "bdrate"
    anchor = [RDPoint(rate=1e5 * 2 ** i, quality=30.0 + 4 * i) for i in range(5)]
    path = tmp / "anchor.csv"
    other = tmp / "test.csv"
    write_curve_csv(anchor, path)
    write_curve_csv([RDPoint(p.rate * 1.1, p.quality) for p in anchor], other)
    return ["bdrate", str(path), str(other), "--output", out], path


def one_pass_trace():
    """The trace of a one-pass loop on a 2x2 mock: its rows are iteration 1
    of frames (1,1), (0,1), (0,0) and (1,0), in that order."""
    setup = small_grid_setup()
    return run_to_convergence(MockEncoder(setup.config), setup.grid, setup.weights, 4e6, 0.0, 1)


def replace_field(prefix, index, value):
    """Edit: field `index` (comma-separated) of the first line starting with prefix."""

    def edit(lines):
        k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        parts = lines[k].split(",")
        parts[index] = value
        lines[k] = ",".join(parts)

    return edit


def replace_every_field(prefix, index, value):
    """Edit: field `index` (comma-separated) of every line starting with prefix."""

    def edit(lines):
        for k, line in enumerate(lines):
            if line.startswith(prefix):
                parts = line.split(",")
                parts[index] = value
                lines[k] = ",".join(parts)

    return edit


def drop_last_field(prefix):
    """Edit: the first line starting with prefix loses its last comma-separated field."""

    def edit(lines):
        k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        lines[k] = lines[k].rpartition(",")[0]

    return edit


def drop_line(prefix):
    """Edit: the first line starting with prefix is deleted."""
    return lambda lines: lines.remove(next(line for line in lines if line.startswith(prefix)))


def both(*edits):
    """Edit: each of edits in turn."""

    def edit(lines):
        for each in edits:
            each(lines)

    return edit


def insert_lines(at, *records):
    """Edit: records inserted before line `at` (0 for the first)."""

    def edit(lines):
        lines[at:at] = records

    return edit


def repeat_line(prefix):
    return lambda lines: lines.append(next(line for line in lines if line.startswith(prefix)))


def set_line(prefix, text):
    """Edit: the first line starting with prefix becomes text."""

    def edit(lines):
        lines[next(k for k, line in enumerate(lines) if line.startswith(prefix))] = text

    return edit


# Non-finite, negative and contradictory inputs: (command, edit of the input's lines,
# whether the error names the edited line, or the start of the line it names
# instead). Each must exit 2 with the file named in the message.
RECORD_DEFECTS = {
    "sse_nan": ("metrics", replace_field("0,0,", 2, "nan"), True),
    "sse_inf": ("metrics", replace_field("0,0,", 2, "inf"), True),
    "trace_sse_nan": ("metrics-trace", replace_field("1,0,0,", 5, "nan"), True),
    "curve_rate_inf": ("bdrate", replace_field("400000.0,", 0, "inf"), True),
    "curve_quality_nan": ("bdrate", replace_field("400000.0,", 1, "nan"), True),
    "samples_rate_inf": ("fit", replace_field("1,32,", 2, "inf"), True),
    "problem_weight_nan": ("allocate", replace_field("frame: 1,1,", 2, "nan"), True),
    "mock_gamma_nan": ("simulate", set_line("gamma:", "gamma: nan"), True),
    "mock_law_inf": ("simulate", replace_field("frame: 1,1,", 2, "inf"), True),
    "repeated_budget": ("allocate", repeat_line("budget:"), True),
    "repeated_gamma": ("simulate", repeat_line("gamma:"), True),
    "unknown_key": ("allocate", set_line("budget:", "budgte: 1e6"), True),
    "repeated_order": ("allocate", repeat_line("order:"), True),
    "three_field_order_pair": ("allocate", set_line("order:", "order: 1,1;0,0,7;1,0;0,1"), True),
    "repeated_sse_row": ("metrics", repeat_line("1,1,"), True),
    "sse_row_off_grid": ("metrics", lambda lines: lines.append("5,5,1.0"), False),
    # A frame of the weight map's grid that the SSE table or trace lacks.
    "sse_row_missing": ("metrics", drop_line("0,0,"), False),
    "trace_row_missing": ("metrics-trace", drop_line("1,0,0,"), False),
    "weight_map_ragged_row": ("metrics-weights", drop_last_field("0.25,"), True),
    "sse_negative": ("metrics", replace_field("0,0,", 2, "-5"), True),
    "trace_sse_negative": ("metrics-trace", replace_field("1,0,0,", 5, "-5"), True),
    "weight_map_negative": ("metrics-weights", replace_field("0.25,", 0, "-1"), True),
    "problem_weight_negative": ("allocate", replace_field("frame: 1,1,", 2, "-1"), True),
    "mock_weight_negative": ("simulate", replace_field("frame: 1,1,", 4, "-1"), True),
    "problem_u_not_integer": ("allocate", replace_field("frame: 1,1,", 0, "frame: 1.5"), True),
    "problem_frame_missing_field": ("allocate", drop_last_field("frame: 1,1,"), True),
    "problem_alpha_inf": ("allocate", replace_field("frame: 1,1,", 3, "inf"), True),
    "repeated_problem_frame": ("allocate", repeat_line("frame: 1,1,"), True),
    "order_entry_not_integer": ("allocate", set_line("order:", "order: 1,1;0,0.5;1,0;0,1"), True),
    "mock_frame_six_fields": ("simulate", replace_field("frame: 1,1,", 4, "1.0,1"), True),
    "trace_summary_labels": (
        "metrics-trace",
        set_line("# iteration 1 ", "# iteration 1 budget 5.0 sse 40.0"),
        True,
    ),
    "trace_row_after_converged": ("metrics-trace", repeat_line("1,0,0,"), True),
    # A frame repeated within a pass is named at its second row: the pass's
    # last row, edited to repeat its first.
    "trace_frame_repeated_in_pass": ("metrics-trace", replace_field("1,1,0,", 2, "1"), True),
    # Weights that are all zero cannot be unified; the error names the file.
    "problem_weights_all_zero": ("allocate", replace_every_field("frame: ", 2, "0"), False),
    "mock_weights_all_zero": ("simulate", replace_every_field("frame: ", 4, "0"), False),
    "weight_map_all_zero": (
        "metrics-weights",
        both(replace_every_field("", 0, "0"), replace_every_field("", 1, "0")),
        False,
    ),
    # A defect inside one record of a problem or mock file names its line:
    # a value out of its field's domain, a frame off the grid, an order
    # that is not a permutation of the grid, and a byte that is not UTF-8
    # (written as the surrogate that stands for it).
    "problem_beta_positive": ("allocate", replace_field("frame: 1,1,", 4, "0.3"), True),
    "problem_frame_off_grid": ("allocate", replace_field("frame: 1,1,", 0, "frame: 2"), True),
    "order_not_a_permutation": ("allocate", set_line("order:", "order: 1,1;0,0;1,0;1,0"), True),
    "mock_byte_not_utf8": ("simulate", replace_field("frame: 1,1,", 2, "3e7\udcff"), True),
    # A frame line one field short and a later one one field long: their
    # field counts cancel in the file's total, and the first is named. Read
    # as one run of fields cut every five, the two lines would give sound
    # frames (1,1) and (0,1), with the long line's -1 as the beta of (1,1).
    # A mock frame line must be two fields short, as its last has a default.
    "problem_short_frame_before_long_frame": (
        "allocate",
        both(drop_last_field("frame: 1,1,"), set_line("frame: 0,1,", "frame: -1,0,1,1,5,-0.3")),
        True,
    ),
    "mock_frame_two_short_before_one_long": (
        "simulate",
        both(
            drop_last_field("frame: 1,1,"),
            drop_last_field("frame: 1,1,"),
            replace_field("frame: 0,1,", 4, "1.0,1.0"),
        ),
        True,
    ),
    # A defect against the grid is named like any other first bad line,
    # before a later line's defect.
    "problem_off_grid_before_alpha_nan": (
        "allocate",
        both(replace_field("frame: 1,1,", 0, "frame: 5"), replace_field("frame: 0,1,", 3, "nan")),
        True,
    ),
    "mock_off_grid_before_a_nan": (
        "simulate",
        both(replace_field("frame: 1,1,", 0, "frame: 5"), replace_field("frame: 0,1,", 2, "nan")),
        True,
    ),
    "order_not_a_permutation_before_repeated_key": (
        "allocate",
        both(set_line("order:", "order: 1,1;0,0;1,0;1,0"), repeat_line("budget:")),
        True,
    ),
    # ... also when a bad key line, or one with no ':', follows it before the
    # width or height line.
    "problem_off_grid_before_bad_key_before_width": (
        "allocate",
        insert_lines(0, "frame: 9,0,1.0,1e8,-0.3", "bogus: 1"),
        True,
    ),
    "problem_off_grid_before_bad_key_before_height": (
        "allocate",
        insert_lines(1, "frame: 9,0,1.0,1e8,-0.3", "bogus: 1"),
        True,
    ),
    "problem_off_grid_before_line_without_colon": (
        "allocate",
        insert_lines(0, "frame: 9,0,1.0,1e8,-0.3", "bogus"),
        True,
    ),
    "mock_off_grid_before_bad_key_before_width": (
        "simulate",
        insert_lines(0, "frame: 9,0,3e7,-0.28,1.0", "bogus: 1"),
        True,
    ),
    "mock_off_grid_before_bad_key_before_height": (
        "simulate",
        insert_lines(1, "frame: 9,0,3e7,-0.28,1.0", "gamma: nan"),
        True,
    ),
}


@pytest.mark.parametrize("defect", sorted(RECORD_DEFECTS))
def test_record_defect_is_input_error(tmp_path, capsys, defect):
    command, edit, names_line = RECORD_DEFECTS[defect]
    argv, path = cli_inputs(command, tmp_path)
    lines = path.read_text().splitlines()
    valid = list(lines)
    edit(lines)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    line = next(k for k, (a, b) in enumerate(zip(valid + [None], lines), 1) if a != b)
    if isinstance(names_line, str):
        line = next(k for k, text in enumerate(lines, 1) if text.startswith(names_line))
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    prefix = f"error: {path}: line {line}: " if names_line else f"error: {path}: "
    assert err.startswith(prefix), err
    # Every defect is phrased by the record reader, never in Python's words.
    assert "invalid literal" not in err and "could not convert" not in err, err


def non_finite_frame(lines, at):
    """The file's first frame line with its third field made infinite."""
    parts = next(line for line in lines if line.startswith("frame:")).split(",")
    parts[2] = "inf"
    return ",".join(parts)


def zero_fourth_field(lines, at):
    """The file's first frame line with its fourth field zero: a problem's
    alpha, which must be positive, or a mock's b, which must be negative."""
    parts = next(line for line in lines if line.startswith("frame:")).split(",")
    parts[3] = "0"
    return ",".join(parts)


def off_grid_frame(lines, at):
    """The file's first frame line moved off the grid."""
    return "frame: 9," + next(line for line in lines if line.startswith("frame:")).split(",", 1)[1]


# Line defects for files with two of them: (the line inserted before line
# `at` of a sound file, given its lines, and a part of the message it raises).
LINE_DEFECTS = {
    "non_finite_field": (non_finite_frame, "non-finite number 'inf'"),
    "missing_field": (lambda lines, at: "frame: 1,1", "expected '"),
    "unknown_key": (lambda lines, at: "bogus: 1", "unknown key 'bogus'"),
    "repeated_line": (lambda lines, at: lines[at - 1], "duplicate "),
    "bad_order_entry": (lambda lines, at: "order: 1,1;0", "expected 'u,v', got '0'"),
    "out_of_domain": (zero_fourth_field, "number '0'"),
    "off_grid_frame": (off_grid_frame, "frame (9,1) outside the 2x2 grid"),
}


@pytest.mark.parametrize(
    "kind, first, second",
    [("problem", a, b) for a, b in itertools.product(LINE_DEFECTS, repeat=2)]
    + [
        ("mock", a, b)
        for a, b in itertools.product(LINE_DEFECTS, repeat=2)
        if "bad_order_entry" not in (a, b)
    ],
)
def test_first_bad_line_is_named(tmp_path, kind, first, second):
    """Of two bad lines in a key-value file, at every pair of places among
    its keys and frames, the error names the earlier one; a repeated key
    or frame is bad at its second occurrence."""
    path = tmp_path / f"{kind}.txt"
    if kind == "problem":
        write_problem_file(coupled_square(), path)
        read = read_problem_file
    else:
        write_mock_config(small_grid_setup(gamma=0.2), path)
        read = read_mock_config
    sound = path.read_text().splitlines()
    (make_first, message), (make_second, _) = LINE_DEFECTS[first], LINE_DEFECTS[second]
    places = range(1, len(sound) + 1, 2)
    for i, j in itertools.combinations_with_replacement(places, 2):
        lines = list(sound)
        lines.insert(j, make_second(sound, j))
        lines.insert(i, make_first(sound, i))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}: line {i + 1}: "), (i, j, info.value)
        assert message in str(info.value), (i, j, info.value)


@pytest.mark.parametrize("later", ["alpha_nan", "lambda_missing"])
def test_frame_off_the_grid_is_named_before_a_later_defect(tmp_path, later):
    """A 2x1 problem file with a frame off the grid, then a non-finite
    alpha on the next line or a missing key, which has no line: the error
    names the frame's line."""
    keys = ["width: 2", "height: 1", "budget: 2e6"]
    if later == "alpha_nan":
        keys.append("lambda: 5")
    alpha = "nan" if later == "alpha_nan" else "1e8"
    path = tmp_path / "problem.txt"
    path.write_text("\n".join(keys + ["frame: 5,0,1,1e8,-0.3", f"frame: 1,0,1,{alpha},-0.3"]))
    with pytest.raises(ParseError) as info:
        read_problem_file(path)
    assert str(info.value) == f"{path}: line {len(keys) + 1}: frame (5,0) outside the 2x1 grid"


@pytest.mark.parametrize("command", ["metrics", "metrics-trace"])
@pytest.mark.parametrize("lead", ["\n", "# made by hand\n"])
def test_metrics_skips_lines_before_the_header(tmp_path, capsys, command, lead):
    """metrics tells an SSE CSV from a trace by its first line that is not
    blank or a comment, and leaves the rest to that format's reader: a
    trace's comments carry data, so one before its header is an error."""
    argv, path = cli_inputs(command, tmp_path)
    assert main(argv) == EXIT_OK
    report = Path(argv[argv.index("--output") + 1]).read_text()
    capsys.readouterr()
    path.write_text(lead + path.read_text())
    if command == "metrics-trace" and lead.startswith("#"):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 1: expected header '{TRACE_HEADER}'\n"
        return
    assert main(argv) == EXIT_OK
    assert Path(argv[argv.index("--output") + 1]).read_text() == report


@pytest.mark.parametrize(
    "command", ["fit", "allocate", "simulate", "bdrate", "metrics", "metrics-weights"]
)
def test_non_utf8_input_is_named(tmp_path, capsys, command):
    argv, path = cli_inputs(command, tmp_path)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err


def test_fit_under_an_ascii_locale_writes_a_non_ascii_frame_id(tmp_path):
    """Files are UTF-8 whatever the locale: under the C locale with UTF-8
    mode off, `fit` reads the frame id été and writes it back in UTF-8.
    The fitted frame's stdout line prints it in UTF-8 under
    PYTHONIOENCODING=utf-8, and escaped without it (an empty value is unset)."""
    rates = (1e5, 2e5, 4e5, 8e5)
    samples = {"été": [RDSample(30 + k, r, 4.46e7 * r**-0.261) for k, r in enumerate(rates)]}
    write_samples_csv(samples, tmp_path / "samples.csv")
    expected = tmp_path / "expected.csv"
    write_models_csv({"été": fit_power_model(samples["été"])}, expected)
    for io_encoding, frame in (("utf-8", "frame été: "), ("", "frame \\xe9t\\xe9: ")):
        locale = dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        locale["PYTHONIOENCODING"] = io_encoding
        done = run_cli(tmp_path, "fit", "samples.csv", "--output", "models.csv", **locale)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith(frame)
        written = (tmp_path / "models.csv").read_bytes()
        assert written.decode("utf-8").splitlines()[1].startswith("été,")
        assert written == expected.read_bytes()
        (tmp_path / "models.csv").unlink()


@pytest.mark.parametrize("command", ["fit", "allocate", "simulate", "metrics", "bdrate", "spiral"])
def test_written_files_name_their_encoding(tmp_path, command):
    """No command that writes a file falls back on the locale's encoding,
    which `-X warn_default_encoding` reports as an EncodingWarning."""
    if command == "spiral":
        argv = ["spiral", "3", "3", "--output", str(tmp_path / "out.txt")]
    else:
        argv = cli_inputs(command, tmp_path)[0]
    warn = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    done = run_python(tmp_path, *warn, "-m", "lfalloc.cli", *argv)
    assert done.returncode == EXIT_OK, done.stderr
    assert (tmp_path / "out.txt").exists()


def scaled_problem(
    rate_scale=1.0,
    sse_scale=1.0,
    min_rate=None,
    first_alpha=None,
    first_weight=None,
    lam=10.0,
    side=3,
):
    """A side x side problem at lambda lam with 1e6 bits per frame, in rate
    units scaled by rate_scale and SSE units scaled by sse_scale; first_alpha
    and first_weight replace the first frame's alpha and weight. The frame
    laws repeat every 9 frames of the coding order."""
    grid = spiral_order(side, side)
    models, weights = {}, {}
    for k, c in enumerate(grid.coding_order):
        beta = -(0.22 + 0.025 * (k % 9))
        alpha = 10 ** (7.5 + 0.1 * (k % 9)) * sse_scale * rate_scale ** -beta
        models[c] = RDModelParams(first_alpha if k == 0 and first_alpha else alpha, beta)
        weights[c] = first_weight if k == 0 and first_weight else 0.2 + 0.1 * (k % 9)
    return AllocationProblem(
        grid=grid,
        weights=unify_weights(weights),
        models=models,
        budget=1e6 * grid.n_frames * rate_scale,
        lam=lam,
        min_rate=min_rate,
    )


@pytest.mark.parametrize(
    "scale",
    [
        {"rate_scale": 1e250},
        {"rate_scale": 1e-250},
        {"sse_scale": 1e200},
        {"sse_scale": 1e-200},
        {"min_rate": 1e-308},
        {"first_alpha": 1e308},
        {"first_alpha": 1e-308},
        {"lam": 1e-305},
    ],
    ids=lambda scale: ",".join(f"{key}={value:g}" for key, value in scale.items()),
)
def test_extreme_scale_is_input_error(tmp_path, capsys, scale):
    """Finite inputs whose scale over- or underflows in the solver exit 2,
    without a traceback or a warning."""
    problem = tmp_path / "problem.txt"
    write_problem_file(scaled_problem(**scale), problem)
    assert main(["allocate", str(problem), "--output", str(tmp_path / "a.csv")]) == EXIT_INPUT
    assert "outside floating-point range" in capsys.readouterr().err


def test_a_penalty_unit_past_the_float_range_is_input_error(tmp_path, capsys, monkeypatch):
    """Step 2 holds A in units of the power of two nearest its largest
    coefficient; a coefficient above 2^1023.5 rounds that unit to 2^1024,
    past the largest float. With the penalty scaled there, on rates small
    enough that the squares of its terms stay finite, allocate exits 2,
    without a traceback."""
    build = allocator.build_cone_penalty

    def scaled_penalty(problem, rates):
        penalty = build(problem, rates)
        s = 1.5e308 / float(max(np.abs(penalty.coef_i).max(), np.abs(penalty.coef_j).max()))
        return replace(
            penalty, coef_i=s * penalty.coef_i, coef_j=s * penalty.coef_j, rhs=s * penalty.rhs
        )

    monkeypatch.setattr(allocator, "build_cone_penalty", scaled_penalty)
    problem = tmp_path / "problem.txt"
    write_problem_file(line_problem(REFERENCE_PAIRS, budget=3e-200, lam=1.0), problem)
    assert main(["allocate", str(problem), "--output", str(tmp_path / "a.csv")]) == EXIT_INPUT
    assert "outside floating-point range" in capsys.readouterr().err


def test_underflowing_consistency_terms_raise_in_step_2_only():
    """penalized_objective and step 2 share one evaluation of a point, but
    only step 2 raises where the consistency residual's terms underflow:
    P itself stays a finite number there."""
    problem = scaled_problem(sse_scale=1e-200)
    split = solve_step1(problem).rates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = penalized_objective(problem, build_cone_penalty(problem, split), split)
    assert math.isfinite(p) and p > 0.0
    with pytest.raises(ValueError, match="underflow encountered in the consistency residual"):
        allocate(problem)


def test_joint_cost_sum_overflow_is_input_error(tmp_path, capsys):
    """Weighted distortion and lambda * sqrt(discontinuity) each finite,
    their sum not (see test_metrics)."""
    sse = DistortionSet({FrameCoord(0, 0): 1e308, FrameCoord(1, 0): 0.0})
    write_sse_csv(sse, tmp_path / "sse.csv")
    (tmp_path / "weights.csv").write_text("1,1e-160\n")
    argv = ["metrics", str(tmp_path / "sse.csv"), "--weights", str(tmp_path / "weights.csv")]
    assert main(argv + ["--lambda", "5e159", "--pixels", "4"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "error: problem scale is outside floating-point range"
    )


@pytest.mark.parametrize(
    "scale",
    [
        {"sse_scale": 10 ** -152.5},
        {"sse_scale": 10 ** -153.75},
        {"sse_scale": 10 ** -157},
        {"first_weight": 1e-160},
        {"sse_scale": 10 ** -152.5, "lam": 10 ** -151.5},
        {"sse_scale": 10 ** -152.5, "lam": 1e-150},
        {"sse_scale": 10 ** -152.5, "side": 9},
        {"sse_scale": 10 ** -157, "side": 9},
        {"sse_scale": 1e100, "lam": 1e-290},
    ],
    ids=lambda scale: ",".join(f"{key}={value:g}" for key, value in scale.items()),
)
def test_harmless_underflow_allocates(tmp_path, capsys, scale):
    """A scale that leaves the consistency residual's terms in range is no
    input error, though the squares of step 2's pair coefficients or of a
    tiny weight would underflow, or |y| / lambda overflow at a tiny
    lambda: step 2 always builds its Gram matrix in units of the power of
    two nearest its largest coefficient, and scales its Newton system by
    |y| / lambda in those units, dividing |y| by the unit first. The
    problem, on a grid that step 2 solves whole (3x3) or in two halves
    (9x9), allocates without a warning, at the rates it has in SSE units
    of 1."""
    problem = tmp_path / "problem.txt"
    write_problem_file(scaled_problem(**scale), problem)
    assert main(["allocate", str(problem), "--output", str(tmp_path / "a.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    unit_sse = {key: value for key, value in scale.items() if key != "sse_scale"}
    expected = allocate(scaled_problem(**unit_sse)).rates
    rates, _ = read_allocation_file(tmp_path / "a.csv")
    assert rates == pytest.approx(expected, rel=1e-12)


def test_extreme_loop_budget_is_input_error(tmp_path, capsys):
    config = tmp_path / "mock.txt"
    write_mock_config(small_grid_setup(), config)
    argv = ["simulate", str(config), "--budget", "1e-300", "--max-iters", "3"]
    assert main(argv + ["--output", str(tmp_path / "t.csv")]) == EXIT_INPUT
    assert "outside floating-point range" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("rate_qp_halving", "0.001"), ("curvature", "1e308")])
def test_mock_encode_overflow_is_input_error(tmp_path, capsys, key, value):
    """A mock law whose rate or SSE leaves floating-point range at some
    quantizer exits 2, not with an OverflowError traceback."""
    config = tmp_path / "mock.txt"
    write_mock_config(small_grid_setup(), config)
    lines = config.read_text().splitlines()
    set_line(f"{key}:", f"{key}: {value}")(lines)
    config.write_text("\n".join(lines) + "\n")
    argv = ["simulate", str(config), "--budget", "4e6", "--max-iters", "3"]
    assert main(argv + ["--output", str(tmp_path / "t.csv")]) == EXIT_INPUT
    assert "outside floating-point range" in capsys.readouterr().err


def test_joint_cost_overflow_exits_without_a_warning(tmp_path):
    """A frame law whose SSE gaps overflow when squared exits 2 with the
    range message; no RuntimeWarning escapes."""
    setup = small_grid_setup(gamma=0.2)
    write_mock_config(setup, tmp_path / "mock.txt")
    lines = (tmp_path / "mock.txt").read_text().splitlines()
    replace_field("frame: 1,1,", 2, "1e308")(lines)
    (tmp_path / "mock.txt").write_text("\n".join(lines) + "\n")
    argv = ["simulate", "mock.txt", "--budget", "4e6", "--max-iters", "3", "--output", "t.csv"]
    done = run_cli(tmp_path, *argv)
    assert done.returncode == EXIT_INPUT, done.stderr
    assert done.stderr.startswith("error: problem scale is outside floating-point range")
    assert "Warning" not in done.stderr


@pytest.mark.parametrize("command", ["allocate", "simulate"])
def test_huge_lambda_exits_without_a_traceback(tmp_path, command):
    # The step-2 projection once lost its whole support to rounding here.
    setup = seeded_mock(5, 0)
    if command == "allocate":
        models = {c: RDModelParams(a, b) for c, (a, b) in setup.config.frame_params.items()}
        problem = AllocationProblem(setup.grid, setup.weights, models, 2.5e7, 10.0)
        write_problem_file(problem, tmp_path / "input.txt")
        argv = ["allocate", "input.txt"]
    else:
        write_mock_config(setup, tmp_path / "input.txt")
        argv = ["simulate", "input.txt", "--budget", "2.5e7"]
    done = run_cli(tmp_path, *argv, "--lambda", "1e300", "--output", "out.csv")
    assert done.returncode in (EXIT_OK, EXIT_INPUT), done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["metrics", "simulate"])
def test_pixel_count_past_the_float_range_is_input_error(tmp_path, capsys, command):
    argv, path = cli_inputs(command, tmp_path)
    pixels = str(10**400)
    if command == "metrics":
        argv += ["--pixels", pixels]
    else:
        path.write_text(path.read_text().replace("frame_pixels: 100000", f"frame_pixels: {pixels}"))
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: pixel count is outside floating-point range\n"


def test_library_readers_reject_defects(tmp_path):
    """Readers no subcommand calls follow the same record rules."""
    allocation = tmp_path / "allocation.csv"
    write_allocation_file(allocate(coupled_square()), allocation)
    text = allocation.read_text()
    allocation.write_text(text.replace("\n# diagnostics", "\n0,0,1.0\n# diagnostics"))
    with pytest.raises(ParseError, match=r"line 6: duplicate frame \(0,0\)"):
        read_allocation_file(allocation)
    # The header and the diagnostics block, with no rate row.
    allocation.write_text("".join(ln for ln in text.splitlines(True) if not ln[0].isdigit()))
    with pytest.raises(ParseError, match=r": no rate rows$"):
        read_allocation_file(allocation)
    weights = tmp_path / "weights.csv"
    weights.write_text("1,0.5\n0.25,nan\n")
    with pytest.raises(ParseError, match="line 2: non-finite"):
        read_weight_map_csv(weights)


def test_writers_round_trip(tmp_path):
    """Every writer's output reads back to equal values, inf diagnostics included."""
    samples = write_reference_samples(tmp_path / "samples.csv")
    assert read_samples_csv(tmp_path / "samples.csv") == samples

    problem = coupled_square()
    write_problem_file(problem, tmp_path / "problem.txt")
    again = read_problem_file(tmp_path / "problem.txt")
    assert again.grid == problem.grid and again.weights.raw == problem.weights.raw
    scalars = ("budget", "lam", "min_rate")
    assert [getattr(again, k) for k in scalars] == [getattr(problem, k) for k in scalars]
    assert {c: (m.alpha, m.beta) for c, m in again.models.items()} == {
        c: (m.alpha, m.beta) for c, m in problem.models.items()
    }

    solved = allocate(problem)
    result = AllocationResult(
        rates=solved.rates,
        objective=solved.objective,
        kkt_residual=math.inf,
        iterations=100,
        budget_used=solved.budget_used,
    )
    write_allocation_file(result, tmp_path / "allocation.csv")
    rates, diagnostics = read_allocation_file(tmp_path / "allocation.csv")
    assert rates == result.rates
    assert diagnostics == {
        "weighted_distortion": result.objective.weighted_distortion,
        "discontinuity": result.objective.discontinuity,
        "lambda": result.objective.lam,
        "total": result.objective.total,
        "kkt_residual": math.inf,
        "iterations": 100.0,
        "budget_used": result.budget_used,
    }

    setup = small_grid_setup(gamma=0.2)
    write_mock_config(setup, tmp_path / "mock.txt")
    mock = read_mock_config(tmp_path / "mock.txt")
    assert mock.grid == setup.grid and mock.weights.raw == setup.weights.raw
    assert vars(mock.config) == vars(setup.config)

    trace = one_pass_trace()
    [entry] = trace.entries
    rows = [
        (c.u, c.v, entry.qps[c], entry.rates[c], entry.sses[c], m.alpha, m.beta)
        for c, m in entry.models.items()
    ]
    write_trace_csv(trace, tmp_path / "trace.csv")
    parsed = read_trace_csv(tmp_path / "trace.csv")
    assert parsed.converged is False
    [iteration] = parsed.iterations
    assert (iteration.rows, iteration.total_cost, iteration.wpsnr_db) == (
        rows, entry.cost.total, entry.wpsnr_db
    )
    # wpsnr may be the lossless sentinel inf.
    text = (tmp_path / "trace.csv").read_text()
    (tmp_path / "trace.csv").write_text(re.sub(r"wpsnr \S+", "wpsnr inf", text))
    assert read_trace_csv(tmp_path / "trace.csv").iterations[0].wpsnr_db == math.inf

    points = [RDPoint(1e5 * 1.7 ** i, 30.0 + 3.1 * i) for i in range(5)]
    write_curve_csv(points, tmp_path / "curve.csv")
    assert read_curve_csv(tmp_path / "curve.csv") == points

    distortions = {FrameCoord(0, 0): 1.25, FrameCoord(1, 0): 3.5e6}
    write_sse_csv(DistortionSet(distortions), tmp_path / "sse.csv")
    assert read_sse_csv(tmp_path / "sse.csv").sse == distortions


def shuffle_lines(source: Path, target: Path, seed: int) -> None:
    """Write source's lines, key and frame lines alike, to target in a
    seeded random order."""
    lines = source.read_text().splitlines()
    random.Random(seed).shuffle(lines)
    target.write_text("\n".join(lines) + "\n")


def test_shuffled_problem_reads_as_written(tmp_path):
    """A 17x17 problem on a shuffled coding order reads the same from its
    lines in any order, and allocates to the same bytes."""
    setup = seeded_mock(17, 0)
    coords = list(setup.grid.coding_order)
    random.Random(1).shuffle(coords)
    grid = FrameGrid(17, 17, coords)
    models = {c: RDModelParams(a, b) for c, (a, b) in setup.config.frame_params.items()}
    problem = AllocationProblem(grid, setup.weights, models, 2.89e8, 10.0)
    written, shuffled = tmp_path / "written.txt", tmp_path / "shuffled.txt"
    write_problem_file(problem, written)
    shuffle_lines(written, shuffled, 2)
    assert shuffled.read_text() != written.read_text()
    expected, got = read_problem_file(written), read_problem_file(shuffled)
    for name in ("w", "alpha", "beta"):
        assert getattr(got, name).tolist() == getattr(expected, name).tolist()
    assert got.weights.raw == expected.weights.raw == setup.weights.raw
    assert list(got.models.items()) == list(expected.models.items())
    assert dict(got.models.items()) == models
    for read, name in ((expected, "expected.csv"), (got, "got.csv")):
        write_allocation_file(allocate(read), tmp_path / name)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_shuffled_mock_config_reads_as_written(tmp_path):
    setup = seeded_mock(13, 0)
    written, shuffled = tmp_path / "written.txt", tmp_path / "shuffled.txt"
    write_mock_config(setup, written)
    shuffle_lines(written, shuffled, 3)
    assert shuffled.read_text() != written.read_text()
    mock = read_mock_config(shuffled)
    assert mock.grid == setup.grid
    assert (mock.weights.raw, mock.weights.unified) == (setup.weights.raw, setup.weights.unified)
    assert vars(mock.config) == vars(setup.config)


FUZZ_COMMANDS = ("fit", "allocate", "simulate", "metrics", "bdrate")
FUZZ_VALUES = ("nan", "inf", "-1", "spam")


@st.composite
def mutated(draw, text):
    """text with up to three edits: a field replaced by a bad value, a line
    duplicated, dropped or moved off the grid, or the text truncated."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("field", "duplicate", "drop", "off_grid", "truncate")))
        if kind == "field":
            tokens = re.split(r"([,:;]\s*)", lines[k])
            tokens[2 * draw(st.integers(0, len(tokens) // 2))] = draw(st.sampled_from(FUZZ_VALUES))
            lines[k] = "".join(tokens)
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
        elif kind == "drop":
            del lines[k]
        elif kind == "off_grid":
            lines[k] = re.sub(r"^(frame: )?\d+,\d+,", r"\g<1>9,9,", lines[k])
        else:
            return "\n".join(lines)[: draw(st.integers(0, len(text)))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_any_input_exits_with_a_documented_code(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv, path = cli_inputs(command, Path(tmp))
        valid = path.read_text()
        text = data.draw(st.one_of(st.text(max_size=300), mutated(valid)), label="input")
        path.write_text(text)
        assert main(argv) in (EXIT_OK, EXIT_INPUT, EXIT_MODEL, EXIT_INFEASIBLE, EXIT_METRIC)
