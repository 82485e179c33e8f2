"""Distortion, view-consistency, joint-cost, quality, and curve metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfalloc import (
    CostBreakdown,
    DistortionSet,
    DomainError,
    FrameCoord,
    IncompleteInput,
    InsufficientPoints,
    NoOverlap,
    ParseError,
    RDPoint,
    bd_rate,
    cost,
    read_curve_csv,
    read_sse_csv,
    spiral_order,
    unify_weights,
    wpsnr,
    write_curve_csv,
    write_sse_csv,
)
from lfalloc.metrics import format_cost_breakdown


def loop_discontinuity(grid, weights, distortions):
    """Literal ordered-pair sum, written independently of the library."""
    total = 0.0
    for f in grid.coding_order:
        for g in grid.coding_order:
            if f == g:
                continue
            gate = max(0.0, 3.0 - (abs(f.u - g.u) + abs(f.v - g.v)))
            floor_w = min(weights.unified[f], weights.unified[g])
            diff = distortions.sse[f] - distortions.sse[g]
            total += gate * (floor_w * diff) ** 2
    return total


def pair_grid():
    """Two horizontally adjacent frames with unit weights."""
    grid = spiral_order(2, 1)
    weights = unify_weights({c: 1.0 for c in grid.coding_order})
    return grid, weights


def close_quality_curve(spacing):
    """Four points at 35 dB and every spacing above it, rates not
    geometric, so the fitted cubic is not a line."""
    rates = (2e5, 3e5, 5e5, 9e5)
    return [RDPoint(rate=r, quality=35.0 + k * spacing) for k, r in enumerate(rates)]


class TestWeightedDistortion:
    """Per-frame SSE that the weighted distortion is built from."""

    def test_negative_sse_rejected_by_set(self):
        with pytest.raises(ValueError):
            DistortionSet({FrameCoord(0, 0): -1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sse_rejected_by_set(self, value):
        with pytest.raises(ValueError):
            DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): value})


class TestDiscontinuity:
    """Proximity-gated squared SSE gaps over ordered pairs."""

    def test_adjacent_pair_hand_value(self):
        grid, weights = pair_grid()
        d = DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 3.0})
        # Distance 1 leaves a gate of 2 per direction; gap is 2.
        assert cost(grid, weights, d, 0.0).discontinuity == 16.0

    def test_uniform_distortion_is_zero(self):
        grid = spiral_order(3, 3)
        weights = unify_weights({c: 1.0 for c in grid.coding_order})
        d = DistortionSet({c: 123.0 for c in grid.coding_order})
        assert cost(grid, weights, d, 0.0).discontinuity == 0.0

    def test_lone_positive_weight_is_zero(self):
        grid, _ = pair_grid()
        weights = unify_weights({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 0.0})
        d = DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 9.0})
        assert cost(grid, weights, d, 0.0).discontinuity == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        grid = spiral_order(3, 4)
        raw = {c: float(w) for c, w in zip(grid.coding_order, rng.uniform(0.1, 1.0, 12))}
        weights = unify_weights(raw)
        d = DistortionSet(
            {c: float(v) for c, v in zip(grid.coding_order, rng.uniform(0.0, 1e6, 12))}
        )
        fast = cost(grid, weights, d, 0.0).discontinuity
        slow = loop_discontinuity(grid, weights, d)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_matches_dense_broadcast_at_17x17(self):
        rng = np.random.default_rng(17)
        grid = spiral_order(17, 17)
        coords = grid.coding_order
        raw = {c: float(w) for c, w in zip(coords, rng.uniform(0.2, 1.0, len(coords)))}
        weights = unify_weights(raw)
        sse = rng.uniform(1e6, 1e8, len(coords))
        d = DistortionSet({c: float(v) for c, v in zip(coords, sse)})
        w = np.array([weights.unified[c] for c in coords])
        uu = np.array([c.u for c in coords])
        vv = np.array([c.v for c in coords])
        dist = np.abs(uu[:, None] - uu[None, :]) + np.abs(vv[:, None] - vv[None, :])
        delta = np.maximum(0.0, 3.0 - dist)
        gate = np.minimum(w[:, None], w[None, :])
        dense = float(np.sum(delta * (gate * (sse[:, None] - sse[None, :])) ** 2))
        assert cost(grid, weights, d, 0.0).discontinuity == pytest.approx(dense, rel=1e-12)

    def test_shift_invariance_exact(self):
        grid, weights = pair_grid()
        base = DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 3.0})
        shifted = DistortionSet({FrameCoord(0, 0): 11.0, FrameCoord(1, 0): 13.0})
        disc = [cost(grid, weights, d, 0.0).discontinuity for d in (base, shifted)]
        assert disc[0] == disc[1]

    @settings(derandomize=True, max_examples=25)
    @given(offset=st.floats(min_value=0.0, max_value=1e4))
    def test_shift_invariance_property(self, offset):
        grid = spiral_order(2, 2)
        weights = unify_weights({c: 1.0 for c in grid.coding_order})
        values = {c: float(10 + 7 * i) for i, c in enumerate(grid.coding_order)}
        base = cost(grid, weights, DistortionSet(values), 0.0).discontinuity
        moved = cost(
            grid, weights, DistortionSet({c: v + offset for c, v in values.items()}), 0.0
        ).discontinuity
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-6)

    def test_transpose_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        grid = spiral_order(2, 3)
        raw = {c: float(w) for c, w in zip(grid.coding_order, rng.uniform(0.2, 1.0, 6))}
        sse = {c: float(v) for c, v in zip(grid.coding_order, rng.uniform(0.0, 1e5, 6))}
        flipped = spiral_order(3, 2)
        raw_t = {FrameCoord(c.v, c.u): raw[c] for c in grid.coding_order}
        sse_t = {FrameCoord(c.v, c.u): sse[c] for c in grid.coding_order}
        a = cost(grid, unify_weights(raw), DistortionSet(sse), 0.0).discontinuity
        b = cost(flipped, unify_weights(raw_t), DistortionSet(sse_t), 0.0).discontinuity
        assert a == pytest.approx(b, rel=1e-12)

    def test_missing_frame(self):
        grid, weights = pair_grid()
        with pytest.raises(IncompleteInput):
            cost(grid, weights, DistortionSet({FrameCoord(0, 0): 1.0}), 0.0).discontinuity


class TestCost:
    """Weighted distortion plus lambda times the consistency root."""

    def test_missing_frame_is_named(self):
        grid, weights = pair_grid()
        with pytest.raises(IncompleteInput, match=r"SSE missing for frame \(1,0\)"):
            cost(grid, weights, DistortionSet({FrameCoord(0, 0): 1.0}), 1.0)

    def test_hand_breakdown(self):
        grid, weights = pair_grid()
        d = DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 3.0})
        breakdown = cost(grid, weights, d, 5.0)
        assert breakdown.weighted_distortion == 4.0
        assert breakdown.discontinuity == 16.0
        assert breakdown.total == 24.0

    def test_zero_lambda_drops_consistency(self):
        grid, weights = pair_grid()
        d = DistortionSet({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 3.0})
        breakdown = cost(grid, weights, d, 0.0)
        assert breakdown.total == breakdown.weighted_distortion

    def test_total_identity(self):
        rng = np.random.default_rng(3)
        grid = spiral_order(3, 3)
        weights = unify_weights(
            {c: float(w) for c, w in zip(grid.coding_order, rng.uniform(0.1, 1.0, 9))}
        )
        d = DistortionSet(
            {c: float(v) for c, v in zip(grid.coding_order, rng.uniform(0.0, 1e6, 9))}
        )
        breakdown = cost(grid, weights, d, 2.5)
        expected = breakdown.weighted_distortion + 2.5 * math.sqrt(breakdown.discontinuity)
        assert breakdown.total == pytest.approx(expected, rel=1e-12)

    def test_sum_that_overflows_is_a_range_error(self):
        """Weighted distortion 1e308 and lambda * sqrt(discontinuity)
        5e159 * sqrt(4e296) = 1e308 are each finite; their sum is not."""
        grid = spiral_order(2, 1)
        weights = unify_weights({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): 1e-160})
        d = DistortionSet({FrameCoord(0, 0): 1e308, FrameCoord(1, 0): 0.0})
        assert cost(grid, weights, d, 0.0).total == 1e308
        assert cost(grid, weights, d, 1.0).discontinuity == pytest.approx(4e296)
        with pytest.raises(ValueError, match="problem scale is outside floating-point range"):
            cost(grid, weights, d, 5e159)

    def test_negative_lambda(self):
        grid, weights = pair_grid()
        d = DistortionSet({c: 1.0 for c in grid.coding_order})
        with pytest.raises(ValueError):
            cost(grid, weights, d, -1.0)


class TestWpsnr:
    """Cost-to-quality conversion over the total pixel count."""

    def test_unit_mean_square(self):
        assert wpsnr(100.0, 100) == pytest.approx(48.1308, abs=1e-3)
        assert wpsnr(100.0, 100) == pytest.approx(20.0 * math.log10(255.0), rel=1e-12)

    def test_peak_mean_square_is_zero(self):
        assert wpsnr(65025.0 * 64, 64) == 0.0

    def test_quadrupling_costs_six_db(self):
        drop = wpsnr(1000.0, 5000) - wpsnr(4000.0, 5000)
        assert drop == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)
        assert drop == pytest.approx(6.0206, abs=1e-4)

    def test_zero_cost_is_lossless(self):
        assert wpsnr(0.0, 10) == math.inf

    def test_negative_cost(self):
        with pytest.raises(DomainError):
            wpsnr(-1.0, 10)

    def test_bad_pixel_count(self):
        with pytest.raises(ValueError):
            wpsnr(1.0, 0)

    @settings(derandomize=True, max_examples=25)
    @given(
        base=st.floats(min_value=1e-3, max_value=1e9),
        factor=st.floats(min_value=1.001, max_value=1e3),
    )
    def test_strictly_decreasing(self, base, factor):
        assert wpsnr(base * factor, 1000) < wpsnr(base, 1000)


def power_law_curve(alpha, beta, rates, pixels=1_000_000):
    """Rate-quality points from an exact power-law distortion model."""
    return [
        RDPoint(rate=r, quality=wpsnr(alpha * r ** beta, pixels)) for r in rates
    ]


class TestBdRate:
    """Average rate difference between two fitted rate-quality curves."""

    QUALITIES = [30.0, 34.0, 38.0, 42.0, 46.0]

    def anchor(self):
        return [RDPoint(rate=1e5 * 2 ** i, quality=q) for i, q in enumerate(self.QUALITIES)]

    def test_identical_curves(self):
        points = self.anchor()
        assert abs(bd_rate(points, points)) <= 1e-12

    def test_ten_percent_heavier(self):
        anchor = self.anchor()
        test = [RDPoint(rate=p.rate * 1.10, quality=p.quality) for p in anchor]
        assert bd_rate(anchor, test) == pytest.approx(10.0, abs=1e-6)

    def test_ten_percent_lighter(self):
        anchor = self.anchor()
        test = [RDPoint(rate=p.rate * 0.90, quality=p.quality) for p in anchor]
        assert bd_rate(anchor, test) == pytest.approx(-10.0, abs=1e-6)

    @pytest.mark.parametrize("spacing", [1e-3, 1e-6])
    def test_close_qualities_stay_well_conditioned(self, spacing):
        """Each cubic is fitted in its curve's own scaled quality range, so
        qualities a hair apart near 35 dB keep the exact 10%."""
        anchor = close_quality_curve(spacing)
        test = [RDPoint(rate=p.rate * 1.10, quality=p.quality) for p in anchor]
        assert bd_rate(anchor, test) == pytest.approx(10.0, rel=1e-9)

    def test_exact_cubic_oracle(self):
        # Both curves have log10(rate) exactly cubic in quality, so the
        # average gap has the closed form integrated by hand here.
        def log_rate_anchor(q):
            return ((1e-5 * q - 1e-3) * q + 0.06) * q + 3.0

        gap = (5e-6, -4e-4, 0.01, 0.02)

        def log_rate_test(q):
            g = ((gap[0] * q + gap[1]) * q + gap[2]) * q + gap[3]
            return log_rate_anchor(q) + g

        def gap_antiderivative(q):
            return (((gap[0] / 4 * q + gap[1] / 3) * q + gap[2] / 2) * q + gap[3]) * q

        qualities = [30.0, 35.0, 40.0, 45.0, 50.0]
        anchor = [RDPoint(rate=10.0 ** log_rate_anchor(q), quality=q) for q in qualities]
        test = [RDPoint(rate=10.0 ** log_rate_test(q), quality=q) for q in qualities]
        lo, hi = qualities[0], qualities[-1]
        avg_gap = (gap_antiderivative(hi) - gap_antiderivative(lo)) / (hi - lo)
        expected = (10.0 ** avg_gap - 1.0) * 100.0
        assert bd_rate(anchor, test) == pytest.approx(expected, rel=1e-8)

    def test_antisymmetry_on_model_curves(self):
        # Percent antisymmetry carries a quadratic error term, so it only
        # holds to 0.1 between curves that sit within a few percent.
        rates = [2e5 * 2 ** (0.5 * i) for i in range(6)]
        a = power_law_curve(4.46e7, -0.261, rates)
        b = power_law_curve(4.482e7, -0.2615, rates)
        forward = bd_rate(a, b)
        backward = bd_rate(b, a)
        assert abs(forward) > 0.1
        assert abs(forward + backward) <= 0.1

    def test_point_order_does_not_matter(self):
        anchor = self.anchor()
        shuffled = list(reversed(anchor))
        test = [RDPoint(rate=p.rate * 1.05, quality=p.quality) for p in anchor]
        assert bd_rate(shuffled, test) == pytest.approx(bd_rate(anchor, test), rel=1e-12)

    def test_too_few_points(self):
        anchor = self.anchor()
        with pytest.raises(InsufficientPoints):
            bd_rate(anchor[:3], anchor)

    def test_duplicate_qualities(self):
        points = [
            RDPoint(rate=1e5, quality=30.0),
            RDPoint(rate=2e5, quality=30.0),
            RDPoint(rate=4e5, quality=38.0),
            RDPoint(rate=8e5, quality=42.0),
        ]
        with pytest.raises(InsufficientPoints):
            bd_rate(points, self.anchor())

    def test_disjoint_quality_ranges(self):
        anchor = self.anchor()
        far = [RDPoint(rate=p.rate, quality=p.quality + 100.0) for p in anchor]
        with pytest.raises(NoOverlap):
            bd_rate(anchor, far)

    def test_rate_difference_outside_float_range(self):
        """A percentage past the float range, and a log-rate gap of 600
        decades, whose 10 ** gap overflows before the percentage."""
        anchor = [RDPoint(rate=float(i), quality=30.0 + i) for i in range(1, 5)]
        huge = [RDPoint(rate=1e308 * (0.5 + 0.1 * i), quality=30.0 + i) for i in range(1, 5)]
        with pytest.raises(DomainError, match="outside floating-point range"):
            bd_rate(anchor, huge)
        tiny = [RDPoint(rate=1e-300 * i, quality=30.0 + i) for i in range(1, 5)]
        vast = [RDPoint(rate=1e300 * i, quality=30.0 + i) for i in range(1, 5)]
        with pytest.raises(DomainError, match="outside floating-point range"):
            bd_rate(tiny, vast)

    def test_nonpositive_rate(self):
        bad = self.anchor()
        bad[0] = RDPoint(rate=0.0, quality=bad[0].quality)
        with pytest.raises(DomainError):
            bd_rate(bad, self.anchor())


class TestMetricsIO:
    """CSV forms of curves, per-frame SSE tables, and cost reports."""

    def test_curve_round_trip_fixed_point(self, tmp_path):
        points = [RDPoint(rate=1e5 * 1.7 ** i, quality=30.0 + 3.1 * i) for i in range(5)]
        first = tmp_path / "curve1.csv"
        second = tmp_path / "curve2.csv"
        write_curve_csv(points, first)
        write_curve_csv(read_curve_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_curve_empty(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("rate_bits,quality_db\n")
        with pytest.raises(ParseError):
            read_curve_csv(path)

    def test_curve_bad_row(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("rate_bits,quality_db\n100,\n")
        with pytest.raises(ParseError):
            read_curve_csv(path)

    def test_sse_round_trip_fixed_point(self, tmp_path):
        d = DistortionSet({FrameCoord(0, 0): 1.25, FrameCoord(1, 0): 3.5e6})
        first = tmp_path / "sse1.csv"
        second = tmp_path / "sse2.csv"
        write_sse_csv(d, first)
        write_sse_csv(read_sse_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_sse_bad_field_count(self, tmp_path):
        path = tmp_path / "sse.csv"
        path.write_text("u,v,sse\n0,0\n")
        with pytest.raises(ParseError):
            read_sse_csv(path)

    def test_report_lines(self):
        breakdown = CostBreakdown(
            weighted_distortion=4.0, discontinuity=16.0, lam=5.0, total=24.0
        )
        text = format_cost_breakdown(breakdown)
        assert text == (
            "weighted_distortion 4.0\ndiscontinuity 16.0\nlambda 5.0\ntotal 24.0\n"
        )
