"""Acceptance checks for the full pipeline, one numbered criterion per test.

Each test prints a single "[ k/10] label: PASS" line (run pytest with -s
to see them) and verifies the library against an independent oracle:
closed forms, exhaustive lattice searches, analytic gradients, or exact
hand-computed values.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import REFERENCE_PAIRS, make_coupled_setup, make_decoupled_setup
from lfalloc import (
    DistortionSet,
    FrameCoord,
    MockEncoder,
    RDPoint,
    RDSample,
    bd_rate,
    build_cone_penalty,
    cost,
    fit_power_model,
    penalized_objective,
    run_to_convergence,
    solve_step1,
    solve_step2,
    spiral_order,
    unify_weights,
    wpsnr,
    write_curve_csv,
    write_mock_config,
    write_problem_file,
    write_samples_csv,
    write_sse_csv,
)
from lfalloc.cli import main as cli_main
from test_allocator import coupled_square, line_problem


@contextmanager
def criterion(number: int, label: str):
    """Print one PASS or FAIL line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"[{number:2d}/10] {label}: FAIL", flush=True)
        raise
    print(f"[{number:2d}/10] {label}: PASS", flush=True)


def test_01_power_law_fit_recovery():
    with criterion(1, "power-law fit recovery"):
        start = time.monotonic()
        rates = [1e5 * 2 ** k for k in range(5)]
        for alpha, beta in REFERENCE_PAIRS:
            samples = [
                RDSample(qp=30 + k, rate=r, sse=alpha * r ** beta)
                for k, r in enumerate(rates)
            ]
            params = fit_power_model(samples)
            assert params.alpha == pytest.approx(alpha, rel=1e-6)
            assert params.beta == pytest.approx(beta, rel=1e-6)
            assert abs(params.r_squared - 1.0) <= 1e-9
            assert params.sample_count == 5
        assert time.monotonic() - start < 1.0

        noisy_rates = np.logspace(5.0, np.log10(3.2e6), 9)
        rng = np.random.default_rng(3)
        for alpha, beta in REFERENCE_PAIRS:
            noisy = [
                RDSample(
                    qp=20 + k,
                    rate=float(r),
                    sse=float(alpha * r ** beta * rng.lognormal(0.0, 0.05)),
                )
                for k, r in enumerate(noisy_rates)
            ]
            assert fit_power_model(noisy).r_squared >= 0.95


def test_02_step1_matches_lattice_search():
    with criterion(2, "step-1 lattice-search equivalence"):
        budget, floor = 3e6, 1e3
        problem = line_problem(REFERENCE_PAIRS, budget=budget, min_rate=floor)
        result = solve_step1(problem)

        # Exhaustive search over the budget face i + j + k = 3000 in
        # 1e3-bit steps, every frame at least one step (the floor). The
        # objective falls in every rate, so the face holds the optimum.
        start = time.monotonic()
        step = 1e3
        m = int(round(budget / step))
        values = np.arange(m + 1) * step
        with np.errstate(divide="ignore"):
            tables = [a * values ** b for a, b in REFERENCE_PAIRS]
        best_obj = np.inf
        best_idx = None
        for i in range(1, m - 1):
            top = m - i - 1  # j runs 1..top so that k = m - i - j >= 1
            if top < 1:
                break
            total = tables[0][i] + tables[1][1 : top + 1] + tables[2][m - i - 1 : 0 : -1]
            t = int(np.argmin(total))
            if total[t] < best_obj:
                best_obj = float(total[t])
                best_idx = (i, t + 1, m - i - (t + 1))
        assert time.monotonic() - start < 30.0

        for u in range(3):
            oracle_rate = best_idx[u] * step
            assert abs(result.rates[FrameCoord(u, 0)] - oracle_rate) <= 0.005 * oracle_rate
        assert result.objective.total == pytest.approx(best_obj, rel=1e-3)
        assert result.objective.total <= best_obj * (1.0 + 1e-9)


def test_03_step2_matches_lattice_search():
    with criterion(3, "step-2 lattice-search equivalence"):
        problem = coupled_square()
        step1 = solve_step1(problem)
        penalty = build_cone_penalty(problem, step1.rates)
        refined = solve_step2(problem, step1.rates, penalty)
        solver_obj = penalized_objective(problem, penalty, refined.rates)

        order = problem.grid.coding_order
        w = np.array([problem.weights.unified[c] for c in order])
        alpha = np.array([problem.models[c].alpha for c in order])
        beta = np.array([problem.models[c].beta for c in order])
        lam = problem.lam
        rows = tuple(
            zip(penalty.col_i, penalty.col_j, penalty.coef_i, penalty.coef_j, penalty.rhs)
        )
        assert len(rows) == 12  # all ordered pairs of a 2x2 grid are in reach

        # Exhaustive search of the same objective over the budget face
        # i + j + k + l = 400 in 1e4-bit steps, every frame at least one
        # step (the floor).
        start = time.monotonic()
        step = 1e4
        m = int(round(problem.budget / step))
        values = np.arange(m + 1) * step
        with np.errstate(divide="ignore"):
            dist = [w[f] ** 2 * alpha[f] * values ** beta[f] for f in range(4)]
        jj, kk = np.meshgrid(np.arange(1, m), np.arange(1, m), indexing="ij")
        base = m - jj - kk
        d1 = dist[1][jj]
        d2 = dist[2][kk]
        rate1 = jj * step
        rate2 = kk * step
        best_obj = np.inf
        best_idx = None
        for i in range(1, m - 2):
            ll = base - i
            mask = ll >= 1
            if not mask.any():
                continue
            l_idx = ll[mask]
            t_prime = dist[0][i] + d1[mask] + d2[mask] + dist[3][l_idx]
            rate = (i * step, rate1[mask], rate2[mask], l_idx * step)
            penalty_sq = np.zeros_like(t_prime)
            for fi, fj, coef_i, coef_j, rhs in rows:
                res = coef_i * rate[fi] + coef_j * rate[fj] + rhs
                penalty_sq += res * res
            g = t_prime + lam * np.sqrt(penalty_sq)
            t = int(np.argmin(g))
            if g[t] < best_obj:
                best_obj = float(g[t])
                best_idx = (i, int(jj[mask][t]), int(kk[mask][t]), int(l_idx[t]))
        coarse_obj = best_obj
        center = np.array(best_idx, dtype=float) * step
        assert solver_obj <= coarse_obj * (1.0 + 1e-6)

        # The optimum sits where the linearized distortions equalize, a
        # kink of the norm term, so refine the exhaustive scan twice
        # around the coarse argmin. Each window must keep its minimum
        # strictly interior and must contain the solver's answer, which
        # certifies the refinement covers the only candidate basin of
        # this convex objective.
        floor = problem.min_rate

        def face_best(grids):
            r0 = grids[0][:, None, None]
            r1 = grids[1][None, :, None]
            r2 = grids[2][None, None, :]
            r3 = problem.budget - (r0 + r1 + r2)
            valid = r3 >= floor
            r3 = np.where(valid, r3, floor)
            t_prime = (
                w[0] ** 2 * alpha[0] * r0 ** beta[0]
                + w[1] ** 2 * alpha[1] * r1 ** beta[1]
                + w[2] ** 2 * alpha[2] * r2 ** beta[2]
                + w[3] ** 2 * alpha[3] * r3 ** beta[3]
            )
            rate = (r0, r1, r2, r3)
            penalty_sq = np.zeros(t_prime.shape)
            for fi, fj, coef_i, coef_j, rhs in rows:
                res = coef_i * rate[fi] + coef_j * rate[fj] + rhs
                penalty_sq += res * res
            g = np.where(valid, t_prime + lam * np.sqrt(penalty_sq), np.inf)
            flat = int(np.argmin(g))
            i0, i1, i2 = np.unravel_index(flat, g.shape)
            point = np.array(
                [
                    grids[0][i0],
                    grids[1][i1],
                    grids[2][i2],
                    problem.budget - grids[0][i0] - grids[1][i1] - grids[2][i2],
                ]
            )
            return float(g[i0, i1, i2]), point, (int(i0), int(i1), int(i2))

        for window, fine in ((5.0 * step, 1e3), (3e3, 125.0)):
            assert all(
                abs(refined.rates[c] - center[f]) <= window - fine
                for f, c in enumerate(order)
            )
            grids = [
                np.arange(max(floor, center[f] - window), center[f] + window + fine / 2, fine)
                for f in range(3)
            ]
            best_obj, center, spot = face_best(grids)
            for f in range(3):
                assert 0 < spot[f] < grids[f].size - 1
            assert floor + fine <= center[3]
        assert best_obj <= coarse_obj
        assert time.monotonic() - start < 60.0

        assert solver_obj == pytest.approx(best_obj, rel=5e-3)
        assert solver_obj <= best_obj * (1.0 + 1e-6)

        # Certify the face with the exact gradient at the lattice argmin:
        # the sum of partials is negative, so the implied budget
        # multiplier is nonnegative and spending less cannot help.
        r_star = center
        grad = w * w * alpha * beta * r_star ** (beta - 1.0)
        residuals = [
            coef_i * r_star[fi] + coef_j * r_star[fj] + rhs
            for fi, fj, coef_i, coef_j, rhs in rows
        ]
        norm = float(np.linalg.norm(residuals))
        if norm > 0.0:
            for (fi, fj, coef_i, coef_j, _), value in zip(rows, residuals):
                grad[fi] += lam * value * coef_i / norm
                grad[fj] += lam * value * coef_j / norm
        assert float(grad.sum()) <= 1e-6 * float(np.abs(grad).sum())


def test_04_kkt_certificate_random_problems():
    with criterion(4, "KKT certificate on random problems"):
        rng = np.random.default_rng(0)
        start = time.monotonic()
        for _ in range(100):
            n = int(rng.integers(1, 17))
            pairs = [
                (10 ** rng.uniform(6.0, 9.0), rng.uniform(-0.6, -0.1))
                for _ in range(n)
            ]
            weights = {
                FrameCoord(u, 0): float(rng.uniform(0.05, 1.0)) for u in range(n)
            }
            budget = n * 10 ** rng.uniform(5.0, 6.3)
            result = solve_step1(line_problem(pairs, budget=budget, weights=weights))
            assert result.kkt_residual < 1e-6
            assert abs(result.budget_used - budget) <= 1e-9 * budget
        assert time.monotonic() - start < 5.0


def test_05_discontinuity_hand_values():
    with criterion(5, "discontinuity hand values"):
        grid = spiral_order(2, 1)
        weights = unify_weights({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 1.0})
        pair = DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 3.0})
        value = cost(grid, weights, pair, 0.0).discontinuity
        assert value == 16.0
        assert np.sqrt(value) == 4.0
        breakdown = cost(grid, weights, pair, lam=5.0)
        assert breakdown.weighted_distortion == 4.0
        assert breakdown.total == 24.0

        uniform = DistortionSet({FrameCoord(0, 0): 7.5, FrameCoord(1, 0): 7.5})
        assert cost(grid, weights, uniform, 0.0).discontinuity == 0.0

        shifted = DistortionSet({FrameCoord(0, 0): 11.0, FrameCoord(1, 0): 13.0})
        assert cost(grid, weights, shifted, 0.0).discontinuity == value


def test_06_wpsnr_anchor():
    with criterion(6, "wPSNR anchors"):
        for pixels in (24, 1_000_000, 2_441_250):
            assert wpsnr(float(pixels), pixels) == pytest.approx(48.1308, abs=1e-3)
        assert wpsnr(65025.0 * 4096.0, 4096) == 0.0


def test_07_bd_rate_calibration():
    with criterion(7, "BD-rate calibration"):
        anchor = [RDPoint(rate=1e5 * 2 ** k, quality=30.0 + 4.0 * k) for k in range(5)]
        assert abs(bd_rate(anchor, anchor)) <= 1e-9

        shifted = [RDPoint(rate=p.rate * 1.10, quality=p.quality) for p in anchor]
        assert bd_rate(anchor, shifted) == pytest.approx(10.0, abs=0.01)

        # Antisymmetry carries a quadratic error in percent space, so it
        # only holds tightly between curves a few percent apart.
        def power_curve(alpha, beta):
            rates = [2e5 * 2 ** (0.5 * k) for k in range(6)]
            return [
                RDPoint(rate=float(r), quality=wpsnr(alpha * r ** beta, 1_000_000))
                for r in rates
            ]

        curve_a = power_curve(4.46e7, -0.261)
        curve_b = power_curve(4.482e7, -0.2615)
        forward = bd_rate(curve_a, curve_b)
        backward = bd_rate(curve_b, curve_a)
        assert abs(forward) > 0.1  # the pair differs enough to be informative
        assert abs(forward + backward) <= 0.1


def test_08_iterative_convergence():
    with criterion(8, "iterative encode-loop convergence"):
        start = time.monotonic()
        coupled = make_coupled_setup()
        trace = run_to_convergence(
            MockEncoder(coupled.config),
            coupled.grid,
            coupled.weights,
            budget=2e7,
            lam=5.0,
            max_iters=8,
        )
        assert trace.converged
        assert len(trace.entries) <= 6

        decoupled = make_decoupled_setup()
        plain = run_to_convergence(
            MockEncoder(decoupled.config),
            decoupled.grid,
            decoupled.weights,
            budget=2e7,
            lam=0.0,
            max_iters=8,
        )
        assert plain.converged
        assert len(plain.entries) <= 3
        assert time.monotonic() - start < 60.0


def test_09_end_to_end_improvement():
    with criterion(9, "converged cost beats uniform baseline"):
        setup = make_coupled_setup()
        trace = run_to_convergence(
            MockEncoder(setup.config),
            setup.grid,
            setup.weights,
            budget=2e7,
            lam=5.0,
            max_iters=8,
        )
        assert trace.converged
        first, last = trace.entries[0], trace.entries[-1]
        assert last.cost.total < first.cost.total

        # Integer QPs leave the two passes at slightly different spend, so
        # demand an improvement far beyond what extra bits alone could buy:
        # a power law with exponent b gains at most about |b| times the
        # relative rate margin.
        rate_margin = max(
            0.0, sum(last.rates.values()) / sum(first.rates.values()) - 1.0
        )
        max_slope = max(abs(b) for _, b in setup.config.frame_params.values())
        improvement = (first.cost.total - last.cost.total) / first.cost.total
        assert improvement > 10.0 * max_slope * rate_margin + 0.01

        plain = run_to_convergence(
            MockEncoder(setup.config),
            setup.grid,
            setup.weights,
            budget=2e7,
            lam=0.0,
            max_iters=8,
        )
        smooth_c = cost(setup.grid, setup.weights, DistortionSet(last.sses), 0.0).discontinuity
        plain_c = cost(
            setup.grid, setup.weights, DistortionSet(plain.entries[-1].sses), 0.0
        ).discontinuity
        assert smooth_c <= plain_c


def test_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "CLI byte determinism"):
        samples_path = tmp_path / "samples.csv"
        write_samples_csv(
            {
                str(i): [
                    RDSample(qp=30 + k, rate=r, sse=a * r ** b)
                    for k, r in enumerate((1e5, 2e5, 4e5, 8e5, 1.6e6))
                ]
                for i, (a, b) in enumerate(REFERENCE_PAIRS)
            },
            samples_path,
        )
        problem_path = tmp_path / "problem.txt"
        write_problem_file(coupled_square(), problem_path)
        config_path = tmp_path / "mock.txt"
        write_mock_config(make_decoupled_setup(), config_path)
        sse_path = tmp_path / "sse.csv"
        write_sse_csv(
            DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 3.0}), sse_path
        )
        weights_path = tmp_path / "weights.csv"
        weights_path.write_text("1,1\n")
        anchor_path = tmp_path / "anchor.csv"
        test_path = tmp_path / "rival.csv"
        anchor = [RDPoint(rate=1e5 * 2 ** k, quality=30.0 + 4.0 * k) for k in range(5)]
        write_curve_csv(anchor, anchor_path)
        write_curve_csv(
            [RDPoint(rate=p.rate * 1.1, quality=p.quality) for p in anchor], test_path
        )

        cases = [
            ("fit", lambda out: ["fit", str(samples_path), "--output", out]),
            ("allocate", lambda out: ["allocate", str(problem_path), "--output", out]),
            (
                "simulate",
                lambda out: ["simulate", str(config_path), "--budget", "2e7", "--output", out],
            ),
            (
                "metrics",
                lambda out: [
                    "metrics",
                    str(sse_path),
                    "--weights",
                    str(weights_path),
                    "--lambda",
                    "5",
                    "--pixels",
                    "24",
                    "--output",
                    out,
                ],
            ),
            (
                "bdrate",
                lambda out: ["bdrate", str(anchor_path), str(test_path), "--output", out],
            ),
            ("spiral", lambda out: ["spiral", "5", "3", "--output", out]),
        ]
        for name, build in cases:
            first_path = tmp_path / f"{name}-first.out"
            second_path = tmp_path / f"{name}-second.out"
            assert cli_main(build(str(first_path))) == 0
            first_stdout = capsys.readouterr().out.replace(str(first_path), "OUT")
            assert cli_main(build(str(second_path))) == 0
            second_stdout = capsys.readouterr().out.replace(str(second_path), "OUT")
            assert first_path.read_bytes() == second_path.read_bytes(), name
            assert first_stdout == second_stdout, name
