"""Command-line workflow: subcommands, exit codes, and output formats."""

import pytest

from lfalloc import (
    DistortionSet,
    FrameCoord,
    RDPoint,
    RDSample,
    read_allocation_file,
    read_models_csv,
    read_trace_csv,
    spiral_order,
    write_curve_csv,
    write_mock_config,
    write_problem_file,
    write_samples_csv,
    write_sse_csv,
)
from lfalloc.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_METRIC,
    EXIT_MODEL,
    EXIT_OK,
    main,
)
from lfalloc.lightfield import grid_to_text
from test_allocator import coupled_square
from test_encodesim import small_grid_setup

REFERENCE_PAIRS = ((4.46e7, -0.261), (1.96e8, -0.383), (6.93e7, -0.284))


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
        write_reference_samples(samples)
        assert main(["fit", str(samples), "--output", str(models)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "frame 0: alpha 4.46e+07, beta -0.261, r_squared 1 (5 samples)" in out
        fitted = read_models_csv(models)
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

    def test_step1_only_equals_zero_lambda(self, tmp_path, capsys):
        problem = self.problem_path(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["allocate", str(problem), "--step1-only", "--output", str(a)]) == EXIT_OK
        assert main(["allocate", str(problem), "--lambda", "0", "--output", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

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
        config = tmp_path / "mock.txt"
        write_mock_config(decoupled_setup, config)
        trace_path = tmp_path / "trace.csv"
        assert (
            main(["simulate", str(config), "--budget", "2e7", "--output", str(trace_path)])
            == EXIT_OK
        )
        weights = tmp_path / "weights.csv"
        weights.write_text("\n".join(",".join(["1"] * 5) for _ in range(5)) + "\n")
        code = main(
            [
                "metrics",
                str(trace_path),
                "--weights",
                str(weights),
                "--pixels",
                str(25 * 100_000),
            ]
        )
        assert code == EXIT_OK
        assert "wpsnr" in capsys.readouterr().out

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
        capsys.readouterr()


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

    def test_three_points_is_metric_error(self, tmp_path, capsys):
        anchor = [RDPoint(rate=1e5 * 2 ** i, quality=30.0 + 4 * i) for i in range(3)]
        a = tmp_path / "anchor.csv"
        write_curve_csv(anchor, a)
        assert main(["bdrate", str(a), str(a)]) == EXIT_METRIC
        capsys.readouterr()

    def test_disjoint_curves_is_metric_error(self, tmp_path, capsys):
        a, _ = self.curves(tmp_path, 1.10)
        far = [RDPoint(rate=1e5 * 2 ** i, quality=130.0 + 4 * i) for i in range(5)]
        f = tmp_path / "far.csv"
        write_curve_csv(far, f)
        assert main(["bdrate", str(a), str(f)]) == EXIT_METRIC
        capsys.readouterr()


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
