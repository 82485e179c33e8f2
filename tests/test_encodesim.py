"""Mock encoder, trial sweeps, quantizer search, and the encode loop."""

import inspect
import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfalloc import (
    AllocationProblem,
    DistortionSet,
    EncodeFailed,
    FrameCoord,
    IncompleteInput,
    InsufficientSamples,
    MockEncoder,
    MockEncoderConfig,
    MockSetup,
    NotConverged,
    ParseError,
    RDModelParams,
    RDSample,
    allocate,
    cost,
    eval_model,
    fit_power_model,
    mock_encode,
    read_mock_config,
    read_trace_csv,
    run_to_convergence,
    spiral_order,
    trial_sweep,
    unify_weights,
    write_mock_config,
    write_trace_csv,
)
from lfalloc import encodesim, metrics
from lfalloc.encodesim import (
    QP_MAX,
    QP_MIN,
    _commit,
    _encode_pass,
    _predicted_commit,
    _qp_for_target,
)


def single_frame_setup(a=3e7, b=-0.3, **kwargs):
    grid = spiral_order(1, 1)
    config = MockEncoderConfig(frame_params={FrameCoord(0, 0): (a, b)}, **kwargs)
    weights = unify_weights({FrameCoord(0, 0): 1.0})
    return MockSetup(config=config, grid=grid, weights=weights)


class CountingEncoder(MockEncoder):
    """MockEncoder that records every encode_frame call it receives."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = []

    def encode_frame(self, coord, qp, ref_state):
        self.calls.append((coord, qp, ref_state))
        return super().encode_frame(coord, qp, ref_state)


def uniform(grid, budget):
    """The first pass's targets: the uniform share of budget per frame."""
    return dict.fromkeys(grid.coding_order, budget / grid.n_frames)


def encode_pass(adapter, setup, targets, previous=None, planned=None):
    """One pass of the loop on setup at lambda 0 toward targets, each encode
    sent straight to adapter, against a problem whose budget is the sum of
    targets. Every test call of _encode_pass goes through here, or through
    patch_pass for a pass run_to_convergence makes."""
    models = dict.fromkeys(setup.grid.coding_order, RDModelParams(1.0, -1.0))
    problem = AllocationProblem(setup.grid, setup.weights, models, sum(targets.values()))
    return _encode_pass(adapter, adapter.encode_frame, problem, targets, previous, planned)


def patch_pass(monkeypatch, spy=None, **overrides):
    """Make run_to_convergence's passes show spy their arguments by name,
    then run _encode_pass with the arguments named in overrides replaced."""
    signature = inspect.signature(_encode_pass)

    def patched(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments.update(overrides)
        if spy is not None:
            spy(bound.arguments)
        return _encode_pass(*bound.args, **bound.kwargs)

    monkeypatch.setattr(encodesim, "_encode_pass", patched)


def first_pass(adapter, setup, budget):
    """The loop's first pass on setup at lambda 0, toward the uniform share."""
    return encode_pass(adapter, setup, uniform(setup.grid, budget))


def small_grid_setup(gamma=0.0):
    grid = spiral_order(2, 2)
    params = {
        c: (3e7 * (1.0 + 0.05 * i), -(0.28 + 0.004 * i))
        for i, c in enumerate(grid.coding_order)
    }
    config = MockEncoderConfig(
        frame_params=params, dependency_gamma=gamma, ref_norm=2e6, frame_pixels=100_000
    )
    weights = unify_weights({c: 1.0 for c in grid.coding_order})
    return MockSetup(config=config, grid=grid, weights=weights)


class TestMockEncoderConfig:
    """Validation on the mock parameters."""

    def test_empty_params(self):
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params={})

    def test_bad_frame_law(self):
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params={FrameCoord(0, 0): (0.0, -0.3)})
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params={FrameCoord(0, 0): (1e7, 0.1)})

    def test_bad_scalars(self):
        params = {FrameCoord(0, 0): (1e7, -0.3)}
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params=params, rate_anchor=0.0)
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params=params, dependency_gamma=-0.1)
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params=params, rate_qp_halving=0.0)
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params=params, frame_pixels=0)
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params=params, curvature=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("a", math.inf),
            ("b", math.nan),
            ("b", -math.inf),
            ("rate_anchor", math.inf),
            ("ref_norm", math.nan),
            ("dependency_gamma", math.nan),
            ("dependency_gamma", math.inf),
            ("rate_qp_halving", math.inf),
            ("curvature", math.nan),
            ("curvature", math.inf),
        ],
    )
    def test_non_finite_values(self, field, value):
        law = {"a": 1e7, "b": -0.3}
        scalars = {}
        if field in law:
            law[field] = value
        else:
            scalars[field] = value
        with pytest.raises(ValueError):
            MockEncoderConfig(frame_params={FrameCoord(0, 0): (law["a"], law["b"])}, **scalars)


class TestMockEncode:
    """Closed-form quantizer response."""

    def test_anchor_rate(self):
        setup = single_frame_setup()
        rate, _ = mock_encode(setup.config, FrameCoord(0, 0), 30, 0.0)
        assert rate == 1e6

    def test_rate_halves_per_halving_span(self):
        setup = single_frame_setup()
        rate, _ = mock_encode(setup.config, FrameCoord(0, 0), 36, 0.0)
        assert rate == 5e5
        rate, _ = mock_encode(setup.config, FrameCoord(0, 0), 24, 0.0)
        assert rate == 2e6

    def test_sse_follows_hidden_law(self):
        setup = single_frame_setup(a=5.0, b=-1.0, rate_anchor=1.0)
        _, sse = mock_encode(setup.config, FrameCoord(0, 0), 30, 0.0)
        assert sse == 5.0

    def test_reference_inflation(self):
        setup = single_frame_setup(
            a=5.0, b=-1.0, rate_anchor=1.0, dependency_gamma=2.0, ref_norm=4.0
        )
        _, sse = mock_encode(setup.config, FrameCoord(0, 0), 30, 2.0)
        assert sse == 10.0

    def test_curvature_bends_the_log_log_slope(self):
        curved = single_frame_setup(a=5.0, b=-0.3, curvature=0.02).config
        coord = FrameCoord(0, 0)
        assert mock_encode(curved, coord, 30, 0.0)[1] == 5.0 * 1e6 ** -0.3

        def slope(config, qp):
            (r0, d0), (r1, d1) = (mock_encode(config, coord, q, 0.0) for q in (qp, qp + 1))
            return math.log(d1 / d0) / math.log(r1 / r0)

        exact = single_frame_setup(a=5.0, b=-0.3).config
        assert slope(exact, 10) == pytest.approx(slope(exact, 40), rel=1e-9)
        assert slope(curved, 10) > slope(curved, 40) + 0.1

    def test_monotone_in_qp(self):
        setup = single_frame_setup()
        outputs = [
            mock_encode(setup.config, FrameCoord(0, 0), qp, 0.0) for qp in range(0, 52, 3)
        ]
        rates = [r for r, _ in outputs]
        sses = [s for _, s in outputs]
        assert rates == sorted(rates, reverse=True)
        assert sses == sorted(sses)


class TestMockEncoderAdapter:
    """Adapter guards around the closed form."""

    def test_qp_range_enforced(self):
        adapter = MockEncoder(single_frame_setup().config)
        with pytest.raises(EncodeFailed):
            adapter.encode_frame(FrameCoord(0, 0), -1, 0.0)
        with pytest.raises(EncodeFailed):
            adapter.encode_frame(FrameCoord(0, 0), 52, 0.0)

    def test_unknown_frame(self):
        adapter = MockEncoder(single_frame_setup().config)
        with pytest.raises(EncodeFailed):
            adapter.encode_frame(FrameCoord(5, 5), 30, 0.0)

    def test_total_pixels(self):
        setup = small_grid_setup()
        assert MockEncoder(setup.config).total_pixels == 4 * 100_000

    def test_refused_encode_names_its_frame(self):
        class Refusing(MockEncoder):
            def encode_frame(self, coord, qp, ref_state):
                if coord == (0, 2) and qp < 20:
                    raise EncodeFailed(f"qp {qp} refused")
                return super().encode_frame(coord, qp, ref_state)

        grid = spiral_order(3, 3)
        config = MockEncoderConfig(frame_params={c: (3e7, -0.3) for c in grid.coding_order})
        setup = MockSetup(config, grid, unify_weights(dict.fromkeys(grid.coding_order, 1.0)))
        with pytest.raises(EncodeFailed, match=r"^frame \(0,2\): qp 10 refused$") as info:
            encode_pass(Refusing(config), setup, uniform(grid, 9e7))
        assert str(info.value.__cause__) == "qp 10 refused"


class TestTrialSweep:
    """Quantizer sweeps around a working point."""

    def test_interior_window(self):
        adapter = MockEncoder(single_frame_setup().config)
        sweep = trial_sweep(adapter, FrameCoord(0, 0), 30, 2, 0.0)
        assert [s.qp for s in sweep] == [28, 29, 30, 31, 32]

    def test_clamped_at_low_end(self):
        adapter = MockEncoder(single_frame_setup().config)
        sweep = trial_sweep(adapter, FrameCoord(0, 0), 1, 2, 0.0)
        assert [s.qp for s in sweep] == [0, 1, 2, 3]

    def test_clamped_at_high_end(self):
        adapter = MockEncoder(single_frame_setup().config)
        sweep = trial_sweep(adapter, FrameCoord(0, 0), 51, 2, 0.0)
        assert [s.qp for s in sweep] == [49, 50, 51]

    def test_half_width_must_be_positive(self):
        adapter = MockEncoder(single_frame_setup().config)
        with pytest.raises(ValueError):
            trial_sweep(adapter, FrameCoord(0, 0), 30, 0, 0.0)

    def test_repeat_sweeps_identical(self):
        adapter = MockEncoder(single_frame_setup().config)
        first = trial_sweep(adapter, FrameCoord(0, 0), 30, 2, 0.0)
        second = trial_sweep(adapter, FrameCoord(0, 0), 30, 2, 0.0)
        assert first == second

    def test_fit_recovers_hidden_law(self):
        setup = single_frame_setup(a=3e7, b=-0.3)
        adapter = MockEncoder(setup.config)
        sweep = trial_sweep(adapter, FrameCoord(0, 0), 30, 2, 0.0)
        fit = fit_power_model(sweep)
        assert fit.alpha == pytest.approx(3e7, rel=1e-9)
        assert fit.beta == pytest.approx(-0.3, rel=1e-9)

    def test_fit_absorbs_reference_inflation_into_alpha(self):
        setup = single_frame_setup(a=3e7, b=-0.3, dependency_gamma=0.5, ref_norm=2e6)
        adapter = MockEncoder(setup.config)
        ref_sse = 1e6
        sweep = trial_sweep(adapter, FrameCoord(0, 0), 30, 2, ref_sse)
        fit = fit_power_model(sweep)
        assert fit.alpha == pytest.approx(3e7 * 1.25, rel=1e-9)
        assert fit.beta == pytest.approx(-0.3, rel=1e-9)
        for sample in sweep:
            assert eval_model(fit, sample.rate) == pytest.approx(sample.sse, rel=1e-9)


QPS = range(QP_MIN, QP_MAX + 1)


def scan_qp_for_target(rates, target):
    """The full-range bisection's answer, by brute force."""
    if rates[QP_MIN] <= target:
        return QP_MIN
    if rates[QP_MAX] > target:
        return QP_MAX
    lo = max(qp for qp in range(QP_MIN, QP_MAX + 1) if rates[qp] > target)
    return lo if abs(rates[lo] - target) <= abs(rates[lo + 1] - target) else lo + 1


@st.composite
def rate_tables(draw):
    """Non-increasing rates over the qp range, with plateaus, and a target
    that is often one of the rates (often the last one)."""
    top = draw(st.one_of(st.integers(1, 200), st.integers(1, 10**6)))
    drops = draw(
        st.lists(st.integers(0, 5), min_size=QP_MAX - QP_MIN, max_size=QP_MAX - QP_MIN)
    )
    rates = [float(top)]
    for drop in drops:
        rates.append(max(rates[-1] - drop, 0.0))
    target = draw(
        st.one_of(
            st.sampled_from(rates),
            st.just(rates[-1]),
            st.floats(-1.0, top + 10.0, allow_nan=False),
            st.sampled_from(rates).map(lambda r: r + 0.5),
        )
    )
    return rates, target


def rate_at(adapter):
    """The rate response of frame (0,0) at reference 0."""
    return lambda qp: adapter.encode_frame(FrameCoord(0, 0), qp, 0.0)[0]


class TestQpForTarget:
    """The seeded quantizer search every pass commits from."""

    def assert_answer(self, rates, target, expected):
        assert scan_qp_for_target(rates, target) == expected
        for start in (QP_MIN, expected, QP_MAX):
            found = _qp_for_target(rates.__getitem__, target, start)
            assert found == expected

    def test_exact_hit(self):
        rates = [1600.0 / 2 ** (qp / 6) for qp in range(QP_MAX + 1)]
        self.assert_answer(rates, rates[12], 12)

    def test_tie_prefers_lower_qp(self):
        rates = [800.0 - 10 * qp for qp in range(QP_MAX + 1)]
        self.assert_answer(rates, 795.0, 0)
        self.assert_answer(rates, 595.0, 20)

    def test_target_above_all_rates(self):
        rates = [1000.0 - 10 * qp for qp in range(QP_MAX + 1)]
        self.assert_answer(rates, 1e9, QP_MIN)

    def test_target_below_all_rates(self):
        rates = [1000.0 - 10 * qp for qp in range(QP_MAX + 1)]
        self.assert_answer(rates, 0.001, QP_MAX)

    @settings(max_examples=200, deadline=None)
    @given(rate_tables(), st.integers(QP_MIN, QP_MAX))
    def test_matches_full_range_scan(self, table, start):
        rates, target = table
        found = _qp_for_target(rates.__getitem__, target, start)
        assert found == scan_qp_for_target(rates, target)

    def test_start_at_the_answer_costs_two_encodes(self):
        setup = single_frame_setup()
        adapter = CountingEncoder(setup.config)
        qp = _qp_for_target(rate_at(adapter), 1.1e6, 29)
        assert qp == 29
        assert len(adapter.calls) == 2

    def test_any_start_costs_at_most_a_bisection_and_a_gallop(self):
        setup = single_frame_setup()
        for start in range(QP_MIN, QP_MAX + 1):
            adapter = CountingEncoder(setup.config)
            assert _qp_for_target(rate_at(adapter), 1.1e6, start) == 29
            assert len(adapter.calls) <= 12


class PlateauEncoder(MockEncoder):
    """MockEncoder whose rate stops falling at QP_MAX - 1."""

    def encode_frame(self, coord, qp, ref_state):
        rate, sse = super().encode_frame(coord, qp, ref_state)
        if qp == QP_MAX:
            rate = super().encode_frame(coord, qp - 1, ref_state)[0]
        return rate, sse


class FlatRateEncoder(MockEncoder):
    """MockEncoder whose rate is the same at every quantizer."""

    def encode_frame(self, coord, qp, ref_state):
        return 1e6, super().encode_frame(coord, qp, ref_state)[1]


class TestPairFit:
    """Each frame is fitted from its committed encode and one neighbour."""

    def test_re_encode_costs_at_most_two_calls_per_frame(self, coupled_setup):
        passes = []

        class PassCountingEncoder(MockEncoder):
            def initial_reference(self):
                passes.append([])
                return super().initial_reference()

            def encode_frame(self, coord, qp, ref_state):
                passes[-1].append(coord)
                return super().encode_frame(coord, qp, ref_state)

        trace = run_to_convergence(
            PassCountingEncoder(coupled_setup.config),
            coupled_setup.grid,
            coupled_setup.weights,
            2e7,
            5.0,
            8,
        )
        assert len(passes) == len(trace.entries) >= 3
        for calls in passes[1:]:
            assert max(Counter(calls).values(), default=0) <= 2
        assert sum(map(len, passes[1:])) > 0

    def test_plateau_widens_the_pair(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("trial sweep in the loop")

        monkeypatch.setattr(encodesim, "trial_sweep", no_sweep)
        setup = single_frame_setup()
        adapter = PlateauEncoder(setup.config)
        coord = FrameCoord(0, 0)
        entry = first_pass(adapter, setup, 1.0)
        assert entry.qps[coord] == QP_MAX
        ref = adapter.initial_reference()
        pair = [RDSample(qp, *adapter.encode_frame(coord, qp, ref)) for qp in (QP_MAX - 2, QP_MAX)]
        model = entry.models[coord]
        assert model == fit_power_model(pair)
        assert model.sample_count == 2
        assert model.beta < 0.0

    def test_flat_rate_response_is_insufficient(self):
        setup = single_frame_setup()
        with pytest.raises(InsufficientSamples):
            first_pass(FlatRateEncoder(setup.config), setup, 1.0)

    def test_strict_response_never_sweeps(self, monkeypatch, coupled_setup):
        def no_sweep(*args):
            raise AssertionError("trial sweep on a strictly falling rate response")

        monkeypatch.setattr(encodesim, "trial_sweep", no_sweep)
        for budget in (1.0, 2e7, 1e12):
            run_to_convergence(
                MockEncoder(coupled_setup.config),
                coupled_setup.grid,
                coupled_setup.weights,
                budget,
                5.0,
                3,
            )

    def test_fit_samples_are_measured_at_the_current_reference(self, coupled_setup):
        config = coupled_setup.config
        trace = run_to_convergence(
            MockEncoder(config), coupled_setup.grid, coupled_setup.weights, 2e7, 5.0, 8
        )
        assert len(trace.entries) >= 3
        for index, entry in enumerate(trace.entries):
            ref = 0.0
            for coord in coupled_setup.grid.coding_order:
                a, b = config.frame_params[coord]
                inflation = 1.0 + config.dependency_gamma * ref / config.ref_norm
                model = entry.models[coord]
                assert model.alpha == pytest.approx(a * inflation, rel=1e-9)
                assert model.beta == pytest.approx(b, rel=1e-9)
                one_encode = index > 0 and carried(trace.entries[index - 1], entry, coord)
                assert model.sample_count == (1 if one_encode else 2)
                ref = entry.sses[coord]


def carried(previous, entry, coord):
    """Whether the carry rule lets coord commit entry's qp on one encode
    after previous."""
    return carry_allowed(previous, coord, entry.qps[coord])


def carry_allowed(previous, coord, qp):
    """Whether the carry rule lets coord commit qp on one encode after
    previous: a move of at most CARRY_SPAN, from a pair fit unless the qp
    holds."""
    shift = abs(qp - previous.qps[coord])
    pair_fitted = previous.models[coord].sample_count == 2
    return shift <= encodesim.CARRY_SPAN and (shift == 0 or pair_fitted)


def planned_allocation(setup, budget, previous, min_rate=None):
    """The lambda-0 allocation run_to_convergence makes after previous, and
    the models it was planned against."""
    problem = AllocationProblem(
        grid=setup.grid,
        weights=setup.weights,
        models=previous.models,
        budget=budget,
        lam=0.0,
        min_rate=min_rate,
    )
    return encodesim._anticipated(problem, previous)


def first_commits(setup, budget, previous):
    """Per frame, the quantizer a lambda-0 pass after previous commits
    before any retarget, on a mock whose rate depends on the qp alone."""
    targets = planned_allocation(setup, budget, previous)[0].rates
    return {
        c: _predicted_commit(previous.qps[c], previous.rates[c], previous.qp_slopes[c], targets[c])
        for c in previous.qps
    }


def seeded_loop_totals():
    """Encoder calls per (side, lambda), passes and settled loops of the
    seeded 5x5 and 7x7 exact mocks at lambda 0 and 10."""
    calls, passes, settled = Counter(), 0, 0
    for side in (5, 7):
        for k in range(8):
            setup = seeded_mock(side, k)
            for lam in (0.0, 10.0):
                trace = run_to_convergence(
                    MockEncoder(setup.config),
                    setup.grid,
                    setup.weights,
                    1e6 * setup.grid.n_frames,
                    lam,
                    24,
                )
                calls[side, lam] += trace.encodes
                passes += len(trace.entries)
                settled += trace.converged
    return calls, passes, settled


class TestHeldFrames:
    """A frame whose quantizer holds, or moves by at most CARRY_SPAN from a
    pair fit, is encoded once and its alpha rescaled."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1.0, 1e7),
        st.floats(-16.0, -1e-9),
        st.integers(QP_MIN, QP_MAX),
        st.data(),
    )
    def test_predicted_commit_agrees_with_the_search(self, rate, slope, qp, data):
        # The rates predicted from (qp, rate) along the slope, computed as
        # _predicted_commit computes them, so midpoints tie exactly.
        rates = [rate * 2.0 ** (slope * (q - qp)) for q in range(QP_MAX + 1)]
        near = st.integers(max(QP_MIN, qp - 3), min(QP_MAX - 1, qp + 3))
        target = data.draw(
            st.one_of(
                near.map(rates.__getitem__),
                near.map(lambda q: (rates[q] + rates[q + 1]) / 2),
                near.map(lambda q: 0.75 * rates[q]),
                st.floats(0.0, 2.0 * rates[QP_MIN]),
            )
        )
        assert _predicted_commit(qp, rate, slope, target) == scan_qp_for_target(rates, target)

    def test_no_slope_never_holds(self, coupled_setup):
        # An offer is committed on one encode only with a negative slope;
        # with slope 0 the frame is searched and pair-fitted instead.
        adapter = MockEncoder(coupled_setup.config)
        entry = first_pass(adapter, coupled_setup, 2e7)
        coord = coupled_setup.grid.coding_order[0]
        qp, rate = entry.qps[coord], entry.rates[coord]
        model = replace(entry.models[coord], sample_count=1)
        assert _predicted_commit(qp, rate, 0.0, 2.0 * rate) == qp
        held = _commit(adapter.encode_frame, coord, rate, qp, 0.0, (model, entry.qp_slopes[coord]))
        assert (held.qp, held.model.sample_count) == (qp, 1)
        searched = _commit(adapter.encode_frame, coord, rate, qp, 0.0, (model, 0.0))
        assert (searched.qp, searched.model) == (qp, entry.models[coord])

    def test_held_frame_costs_at_most_one_call(self, coupled_setup):
        passes = []

        class PassCountingEncoder(MockEncoder):
            def initial_reference(self):
                passes.append([])
                return super().initial_reference()

            def encode_frame(self, coord, qp, ref_state):
                passes[-1].append((coord, qp, ref_state))
                return super().encode_frame(coord, qp, ref_state)

        grid = coupled_setup.grid
        trace = run_to_convergence(
            PassCountingEncoder(coupled_setup.config), grid, coupled_setup.weights, 2e7, 5.0, 8
        )
        assert len(passes) == len(trace.entries) >= 3
        seen = set(passes[0])
        held_with_new_encode = 0
        for previous, entry, calls in zip(trace.entries, trace.entries[1:], passes[1:]):
            per_frame = Counter(coord for coord, _, _ in calls)
            refs = [0.0] + [entry.sses[c] for c in grid.coding_order[:-1]]
            for coord, ref in zip(grid.coding_order, refs):
                qp = entry.qps[coord]
                if qp != previous.qps[coord]:
                    continue
                new = (coord, qp, ref) not in seen
                assert per_frame[coord] == new
                held_with_new_encode += new
            seen.update(calls)
        assert held_with_new_encode > 0

    def test_one_encode_exactly_when_the_carry_rule_allows(self):
        # On the exact mock a frame's rate depends on its qp alone, so the
        # rates predicted along the kept slope are the rates the search
        # measures: every prediction is confirmed, and a re-encoded frame
        # is first committed on one encode exactly when the carry rule
        # allows it. A retargeted frame (lambda 0 only) then moves on the
        # retarget's one encode to the quantizer nearest its new target,
        # keeping the sample count of its first commit.
        retargeted = 0
        for side in (5, 7):
            for k in range(8):
                setup = seeded_mock(side, k)
                budget = 1e6 * setup.grid.n_frames
                for lam in (0.0, 10.0):
                    trace = run_to_convergence(
                        MockEncoder(setup.config), setup.grid, setup.weights, budget, lam, 24
                    )
                    for previous, entry in zip(trace.entries, trace.entries[1:]):
                        assert lam == 0.0 or not entry.retargets
                        first = entry.qps if lam else first_commits(setup, budget, previous)
                        for coord, qp in entry.qps.items():
                            one_encode = entry.models[coord].sample_count == 1
                            allowed = carry_allowed(previous, coord, first[coord])
                            assert one_encode == allowed, (side, k, lam)
                            if coord in entry.retargets:
                                rates = (mock_encode(setup.config, coord, q, 0.0) for q in QPS)
                                table = [rate for rate, _ in rates]
                                assert qp == scan_qp_for_target(table, entry.retargets[coord])
                                retargeted += 1
                            else:
                                assert qp == first[coord]
        assert retargeted > 0

    def test_moved_on_one_encode_matches_the_pair_fit(self):
        # The exact mock's law at a fixed reference is a power law, so the
        # carried beta and the rescaled alpha are what a fresh pair fit at
        # the frame's current reference gives.
        checked = 0
        for k in range(4):
            setup = seeded_mock(7, k)
            adapter = MockEncoder(setup.config)
            for lam in (0.0, 10.0):
                trace = run_to_convergence(
                    adapter, setup.grid, setup.weights, 1e6 * setup.grid.n_frames, lam, 24
                )
                for previous, entry in zip(trace.entries, trace.entries[1:]):
                    ref = adapter.initial_reference()
                    for coord in setup.grid.coding_order:
                        model, qp = entry.models[coord], entry.qps[coord]
                        if model.sample_count == 1 and qp != previous.qps[coord]:
                            pair = (qp, qp + 1 if qp < QP_MAX else qp - 1)
                            fit = fit_power_model(
                                [RDSample(q, *adapter.encode_frame(coord, q, ref)) for q in pair]
                            )
                            assert model.alpha == pytest.approx(fit.alpha, rel=1e-9)
                            assert model.beta == pytest.approx(fit.beta, rel=1e-9)
                            checked += 1
                        ref = adapter.advance_reference(ref, entry.rates[coord], entry.sses[coord])
        assert checked > 0

    def test_a_carried_move_follows_a_pair_fit(self):
        # On a curved mock a carried beta is only locally right, so a move
        # on one encode starts from a fresh pair fit and spans at most
        # CARRY_SPAN quantizers. A retargeted frame (lambda 0 only) moves
        # on from the model measured at its current reference, so a carried
        # one keeps its carried beta and slope after the retarget.
        moved_on_one_encode = retargeted = 0
        for side in (5, 7):
            for k in range(8):
                setup = curved_mock(side, k)
                budget = 1e6 * setup.grid.n_frames
                for lam in (0.0, 10.0):
                    trace = run_to_convergence(
                        MockEncoder(setup.config), setup.grid, setup.weights, budget, lam, 24
                    )
                    for previous, entry in zip(trace.entries, trace.entries[1:]):
                        first = entry.qps if lam else first_commits(setup, budget, previous)
                        for coord, model in entry.models.items():
                            shift = abs(first[coord] - previous.qps[coord])
                            if model.sample_count == 1 and shift:
                                assert previous.models[coord].sample_count == 2
                                assert shift <= encodesim.CARRY_SPAN
                                moved_on_one_encode += 1
                            if model.sample_count == 1 and coord in entry.retargets:
                                kept = (previous.models[coord].beta, previous.qp_slopes[coord])
                                assert (model.beta, entry.qp_slopes[coord]) == kept
                                retargeted += 1
        assert moved_on_one_encode > 0 and retargeted > 0

    def test_carried_moves_save_encoder_calls(self, monkeypatch):
        # Measured: 6,411 calls against 6,808 with CARRY_SPAN 0 (held frames
        # only), 155 passes and 30 settled loops on both.
        calls, passes, settled = seeded_loop_totals()
        monkeypatch.setattr(encodesim, "CARRY_SPAN", 0)
        calls_held, passes_held, settled_held = seeded_loop_totals()
        assert calls_held.total() >= 1.05 * calls.total()
        assert (passes, settled) == (passes_held, settled_held)

    def test_held_qp_off_target_falls_back_to_the_search(self):
        # The second frame's rate doubles for every 5e5 of reference SSE, so
        # moving the first frame shifts it by about three quantizer steps at
        # the quantizer its allocation predicts.
        grid = spiral_order(2, 1)
        first, second = grid.coding_order
        config = MockEncoderConfig(frame_params={first: (3e7, -0.3), second: (3e7, -0.3)})
        weights = unify_weights({first: 1.0, second: 1.0})

        class ReferenceRateEncoder(MockEncoder):
            def encode_frame(self, coord, qp, ref_state):
                rate, sse = super().encode_frame(coord, qp, ref_state)
                return rate * 2.0 ** (ref_state / 5e5), sse

        adapter = ReferenceRateEncoder(config)
        setup = MockSetup(config, grid, weights)
        entry = first_pass(adapter, setup, 2e6)
        target = entry.rates[second]
        targets = {first: mock_encode(config, first, 42, 0.0)[0], second: target}
        held = entry.qps[second]
        assert _predicted_commit(held, entry.rates[second], entry.qp_slopes[second], target) == held
        moved = encode_pass(adapter, setup, targets, entry)
        ref = moved.sses[first]
        table = [adapter.encode_frame(second, qp, ref)[0] for qp in range(QP_MAX + 1)]
        qp = moved.qps[second]
        assert qp == scan_qp_for_target(table, target) != entry.qps[second]
        model = moved.models[second]
        assert model.sample_count == 2
        other = qp + 1 if table[qp] > target else qp - 1
        pair = [RDSample(q, *adapter.encode_frame(second, q, ref)) for q in sorted((qp, other))]
        assert model == fit_power_model(pair)


class TestRetarget:
    """At lambda 0, a frame re-measured at its real reference is retargeted
    to the rate where its measured marginal meets the planned one."""

    def test_retarget_equates_the_marginals(self):
        def marginal(model, rate):
            return model.alpha * -model.beta * rate ** (model.beta - 1.0)

        planned = RDModelParams(alpha=3e7, beta=-0.3)
        measured = RDModelParams(alpha=4.5e7, beta=-0.36)
        target = encodesim._retarget(planned, 1e6, measured)
        assert marginal(measured, target) == pytest.approx(marginal(planned, 1e6), rel=1e-12)
        assert encodesim._retarget(planned, 1e6, planned) == 1e6
        # A price outside floating-point range keeps the planned target.
        tiny, huge = RDModelParams(1e-300, -0.3), RDModelParams(1e300, -0.3)
        assert encodesim._retarget(tiny, 1e6, huge) == 1e6

    def test_retarget_meets_the_planned_price_on_the_true_model(self):
        # On the exact mock the measured model is the hidden law at the
        # frame's real reference, so the retarget and its quantizer follow
        # from the hidden (a, b) and the price planned by the allocation.
        checked = 0
        for k in range(4):
            setup = seeded_mock(7, k)
            config, budget = setup.config, 1e6 * setup.grid.n_frames
            trace = run_to_convergence(
                MockEncoder(config), setup.grid, setup.weights, budget, 0.0, 24
            )
            for previous, entry in zip(trace.entries, trace.entries[1:]):
                allocation, planned = planned_allocation(setup, budget, previous)
                ref = 0.0
                for coord in setup.grid.coding_order:
                    if coord in entry.retargets:
                        a, b = config.frame_params[coord]
                        alpha = a * (1.0 + config.dependency_gamma * ref / config.ref_norm)
                        p = planned[coord]
                        price = p.alpha * -p.beta * allocation.rates[coord] ** (p.beta - 1.0)
                        target = (alpha * -b / price) ** (1.0 / (1.0 - b))
                        assert entry.retargets[coord] == pytest.approx(target, rel=1e-9)
                        assert entry.qps[coord] == _qp_for_target(
                            lambda q: mock_encode(config, coord, q, ref)[0], target, QP_MIN
                        )
                        checked += 1
                    ref = entry.sses[coord]
        assert checked > 0

    def test_floor_and_zero_weight_frames_are_never_retargeted(self):
        setup = seeded_mock(7, 0)
        zero = set(setup.grid.coding_order[3::4])
        raw = {c: 0.0 if c in zero else w for c, w in setup.weights.raw.items()}
        setup = replace(setup, weights=unify_weights(raw))
        budget, floor = 1e6 * setup.grid.n_frames, 8e5
        trace = run_to_convergence(
            MockEncoder(setup.config), setup.grid, setup.weights, budget, 0.0, 24, min_rate=floor
        )
        retargeted, floored = set(), set()
        for previous, entry in zip(trace.entries, trace.entries[1:]):
            allocation, _ = planned_allocation(setup, budget, previous, floor)
            on_floor = {c for c, rate in allocation.rates.items() if rate == floor}
            assert zero <= on_floor
            assert not on_floor & entry.retargets.keys()
            retargeted |= entry.retargets.keys()
            floored |= on_floor - zero
        assert retargeted and floored

    def test_rejected_retarget_offer_falls_back_to_the_search(self):
        # The rate halves every 6 quantizers up to the bend and every 2
        # above it. The frame holds qp 26 on one encode, then is retargeted
        # to the rate of qp 36. Along the slope fitted below the bend that
        # rate lies at qp 48, and the prediction from the encode there
        # points back near qp 12, so the offer is not confirmed.
        bend, held, landing = 30, 26, 36
        grid = spiral_order(1, 1)
        (coord,) = grid.coding_order
        config = MockEncoderConfig(frame_params={coord: (3e7, -0.3)})
        weights = unify_weights({coord: 1.0})

        class BentRateEncoder(MockEncoder):
            def __init__(self, config):
                super().__init__(config)
                self.calls = set()

            def encode_frame(self, coord, qp, ref_state):
                self.calls.add((coord, qp, ref_state))
                return mock_encode(self.config, coord, qp + 2 * max(0, qp - bend), ref_state)

        table = [BentRateEncoder(config).encode_frame(coord, qp, 0.0)[0] for qp in QPS]
        setup = MockSetup(config, grid, weights)
        adapter = BentRateEncoder(config)
        first = encode_pass(adapter, setup, {coord: table[held]})
        measured = first.models[coord]
        retarget = table[landing]
        price = (retarget / table[held]) ** (measured.beta - 1.0)
        planned = replace(measured, alpha=measured.alpha * price)
        slope = first.qp_slopes[coord]
        start = _predicted_commit(held, table[held], slope, retarget)
        assert (first.qps[coord], start) == (held, 48)
        assert _predicted_commit(start, table[start], slope, retarget) < held

        adapter = BentRateEncoder(config)
        entry = encode_pass(adapter, setup, {coord: table[held]}, first, {coord: planned})
        assert entry.retargets[coord] == pytest.approx(retarget, rel=1e-9)
        qp = entry.qps[coord]
        assert qp == scan_qp_for_target(table, entry.retargets[coord]) == landing
        assert entry.models[coord].sample_count == 2
        # The offer's one encode is the search's first probe, so the pass
        # encodes the held qp and what the search alone encodes, no more.
        search = BentRateEncoder(config)
        _commit(search.encode_frame, coord, entry.retargets[coord], start, 0.0, None)
        assert (coord, start, 0.0) in search.calls
        assert adapter.calls == search.calls | {(coord, held, 0.0)}

    def test_retargets_save_passes_at_lambda_zero(self, monkeypatch):
        # Measured: 155 passes against 159 with every retarget dropped, all
        # at lambda 0, where calls are 2,828 against 2,930; the lambda-10
        # loops are the same either way.
        calls, passes, settled = seeded_loop_totals()
        patch_pass(monkeypatch, planned=None)
        calls_off, passes_off, settled_off = seeded_loop_totals()
        assert passes < passes_off
        assert sum(calls[key] for key in calls if key[1] == 0.0) < sum(
            calls_off[key] for key in calls_off if key[1] == 0.0
        )
        assert all(calls[key] == calls_off[key] for key in calls if key[1] > 0.0)
        assert settled >= settled_off


def curved_mock(side, k):
    """Seeded side x side mock on the benchmark recipe, with a log-log slope
    that varies with rate (curvature 0.02)."""
    return seeded_mock(side, k, 0.02)


def seeded_mock(side, k, curvature=0.0):
    """Seeded side x side mock on the benchmark recipe (gamma 0.5)."""
    return recipe_mock(np.random.default_rng([side, k]), side, curvature)


def benchmark_mock(seed, k):
    """Mock k of the benchmark's loop at seed, the 13x13 mock that
    perfbench/workloads.make_mock draws from stream(seed, 2, k)."""
    return recipe_mock(np.random.default_rng([seed, 2, k]), 13)


def recipe_mock(rng, side, curvature=0.0):
    """side x side mock drawn from rng on the benchmark recipe (gamma 0.5)."""
    grid = spiral_order(side, side)
    n = grid.n_frames
    alpha = 10.0 ** rng.uniform(7.5, 8.5, n)
    beta = rng.uniform(-0.45, -0.22, n)
    raw = rng.uniform(0.2, 1.0, n)
    config = MockEncoderConfig(
        frame_params={c: (float(a), float(b)) for c, a, b in zip(grid.coding_order, alpha, beta)},
        dependency_gamma=0.5,
        ref_norm=2e6,
        curvature=curvature,
    )
    weights = unify_weights({c: float(w) for c, w in zip(grid.coding_order, raw)})
    return MockSetup(config=config, grid=grid, weights=weights)


class TestCurvedMockSettling:
    """On a curved mock a carried beta is only locally right; loops must still settle."""

    def test_most_loops_settle(self):
        # Measured: 32 of 32 settle; 31 when only held frames are carried
        # (CARRY_SPAN 0), 27 when every re-encoded frame is pair-fitted, and
        # 22 when beta is carried across moves of any span from any model.
        settled = 0
        for side in (5, 7):
            for k in range(8):
                setup = curved_mock(side, k)
                for lam in (0.0, 10.0):
                    trace = run_to_convergence(
                        MockEncoder(setup.config),
                        setup.grid,
                        setup.weights,
                        1e6 * setup.grid.n_frames,
                        lam,
                        24,
                    )
                    settled += trace.converged
        assert settled >= 27


class TestReferenceAnticipation:
    """Allocations against models corrected for the reference each frame will see."""

    @staticmethod
    def run(setup, lam, max_iters=24, budget=None):
        budget = budget or 1e6 * setup.grid.n_frames
        adapter = MockEncoder(setup.config)
        return run_to_convergence(adapter, setup.grid, setup.weights, budget, lam, max_iters)

    @staticmethod
    def plain(setup, entry, lam, budget):
        """The allocation against entry's models, and its problem."""
        problem = AllocationProblem(
            grid=setup.grid, weights=setup.weights, models=entry.models, budget=budget, lam=lam
        )
        return problem, allocate(problem)

    def test_elasticity_follows_the_mock_dependency(self, coupled_setup):
        # On the exact mock a frame's SSE carries the factor
        # 1 + gamma * s / ref_norm for a reference SSE s, whose log-log slope
        # gamma * s / (ref_norm + gamma * s) lies between its values at the
        # reference's old and new SSE.
        trace = self.run(coupled_setup, 5.0, 8, 2e7)
        gamma, norm = coupled_setup.config.dependency_gamma, coupled_setup.config.ref_norm
        order = coupled_setup.grid.coding_order
        assert set(trace.entries[0].ref_elasticities.values()) == {0.0}
        estimated = 0
        for before, after in zip(trace.entries, trace.entries[1:]):
            assert after.ref_elasticities[order[0]] == 0.0
            for ref, coord in zip(order, order[1:]):
                elasticity = after.ref_elasticities[coord]
                old, new = before.sses[ref], after.sses[ref]
                if abs(math.log(new / old)) <= encodesim.ELASTICITY_MIN_SHIFT:
                    assert elasticity == before.ref_elasticities[coord]
                    continue
                lo, hi = sorted(gamma * s / (norm + gamma * s) for s in (old, new))
                assert lo - 1e-9 <= elasticity <= hi + 1e-9
                estimated += 1
        assert estimated >= len(order)

    def test_settled_state_keeps_the_plain_allocation(self, coupled_setup, monkeypatch):
        trace = self.run(coupled_setup, 5.0, 8, 2e7)
        assert trace.converged
        last = trace.entries[-1]
        assert min(list(last.ref_elasticities.values())[1:]) > 0.0
        problem, plain = self.plain(coupled_setup, last, 5.0, 2e7)
        assert all(
            _predicted_commit(last.qps[c], last.rates[c], last.qp_slopes[c], plain.rates[c])
            == last.qps[c]
            for c in coupled_setup.grid.coding_order
        )
        calls = []
        monkeypatch.setattr(
            encodesim, "allocate", lambda p, start=None: calls.append(p) or allocate(p, start)
        )
        anticipated, planned = encodesim._anticipated(problem, last)
        assert len(calls) == 1
        # Planned against the unscaled models: the same alpha and beta.
        assert calls[0].models is planned
        assert {c: (m.alpha, m.beta) for c, m in planned.items()} == {
            c: (m.alpha, m.beta) for c, m in last.models.items()
        }
        assert anticipated.rates == plain.rates

    def test_unsettled_state_moves_the_allocation(self, coupled_setup):
        trace = self.run(coupled_setup, 5.0, 2, 2e7)
        problem, plain = self.plain(coupled_setup, trace.entries[1], 5.0, 2e7)
        anticipated, _ = encodesim._anticipated(problem, trace.entries[1])
        assert anticipated.rates != plain.rates
        assert sum(anticipated.rates.values()) == pytest.approx(2e7, rel=1e-9)

    def test_first_two_passes_are_unchanged(self, monkeypatch):
        # The first pass has no elasticity estimate, so the second pass's
        # allocation is the plain one.
        setup = seeded_mock(7, 0)
        on = self.run(setup, 10.0)
        monkeypatch.setattr(encodesim, "ANTICIPATION_ROUNDS", 0)
        off = self.run(setup, 10.0)
        assert len(on.entries) > 2 and len(off.entries) > 2
        for a, b in zip(on.entries[:2], off.entries[:2]):
            assert (a.qps, a.rates, a.sses, a.models) == (b.qps, b.rates, b.sses, b.models)
        assert on.entries[2].qps != off.entries[2].qps

    def test_fewer_encoder_calls_to_convergence(self, monkeypatch):
        # Measured: 6,411 calls and 155 passes against 8,006 and 211 without
        # anticipation, and 30 loops settle against 29.
        calls, passes, settled = seeded_loop_totals()
        monkeypatch.setattr(encodesim, "ANTICIPATION_ROUNDS", 0)
        calls_off, passes_off, settled_off = seeded_loop_totals()
        assert all(calls[key] < calls_off[key] for key in calls_off)
        assert calls.total() <= 0.85 * calls_off.total()
        assert passes <= 0.8 * passes_off
        assert settled >= settled_off

    @pytest.mark.parametrize("seed, k", [(1, 10), (2, 8), (10, 2), (10, 6)])
    def test_benchmark_mocks_settle(self, seed, k):
        # These cycled with period 2-4 while the anticipated commit rounded
        # in log rate and the search picked the nearest linear rate.
        setup = benchmark_mock(seed, k)
        assert self.run(setup, 10.0, 40).converged

    def test_out_of_range_targets_are_logged(self, decoupled_setup, caplog):
        # Every frame's share of a tiny budget lies below its rate at QP_MAX.
        with caplog.at_level(logging.INFO, logger="lfalloc.encodesim"):
            trace = self.run(decoupled_setup, 0.0, 3, 1e3)
        assert all(qp == QP_MAX for qp in trace.entries[-1].qps.values())
        assert "25 targets outside the quantizer range" in caplog.text


class TestRunFirstIteration:
    """The first pass, toward the uniform budget share."""

    def test_single_frame_targets_whole_budget(self):
        setup = single_frame_setup()
        entry = first_pass(MockEncoder(setup.config), setup, 1e6)
        assert entry.qps[FrameCoord(0, 0)] == 30
        assert entry.rates[FrameCoord(0, 0)] == 1e6

    def test_uniform_budget_gives_uniform_qps(self):
        grid = spiral_order(3, 3)
        config = MockEncoderConfig(
            frame_params={c: (3e7, -0.3) for c in grid.coding_order}, frame_pixels=1000
        )
        weights = unify_weights({c: 1.0 for c in grid.coding_order})
        entry = first_pass(MockEncoder(config), MockSetup(config, grid, weights), 9e6)
        assert set(entry.qps.values()) == {30}

    def test_huge_budget_clamps_to_lowest_qp(self):
        setup = single_frame_setup()
        entry = first_pass(MockEncoder(setup.config), setup, 1e12)
        assert entry.qps[FrameCoord(0, 0)] == 0

    def test_tiny_budget_clamps_to_highest_qp(self):
        setup = single_frame_setup()
        entry = first_pass(MockEncoder(setup.config), setup, 1.0)
        assert entry.qps[FrameCoord(0, 0)] == 51

    def test_bad_budget(self):
        # run_to_convergence rejects it before the first encode.
        setup = single_frame_setup()
        adapter = CountingEncoder(setup.config)
        for budget in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="budget"):
                run_to_convergence(adapter, setup.grid, setup.weights, budget, 0.0, 3)
        assert adapter.calls == []

    def test_models_fitted_per_frame(self):
        setup = small_grid_setup(gamma=0.2)
        entry = first_pass(MockEncoder(setup.config), setup, 4e6)
        assert set(entry.models) == set(setup.grid.coding_order)
        assert math.isfinite(entry.cost.total)
        assert math.isfinite(entry.wpsnr_db)

    def test_realized_chain_matches_manual_walk(self):
        setup = small_grid_setup(gamma=0.5)
        entry = first_pass(MockEncoder(setup.config), setup, 4e6)
        ref = 0.0
        for coord in setup.grid.coding_order:
            rate, sse = mock_encode(setup.config, coord, entry.qps[coord], ref)
            assert entry.rates[coord] == rate
            assert entry.sses[coord] == sse
            ref = sse


class TestRunIteration:
    """Re-encode passes toward per-frame target rates."""

    def test_fixed_point_keeps_qps(self):
        setup = small_grid_setup(gamma=0.2)
        adapter = MockEncoder(setup.config)
        first = first_pass(adapter, setup, 4e6)
        second = encode_pass(adapter, setup, dict(first.rates), first)
        assert second.qps == first.qps
        assert second.rates == first.rates

    def test_fixed_point_keeps_qps_when_retargeted(self):
        # Planned against the models it measures, every frame's retarget is
        # its own target, so no frame moves.
        setup = small_grid_setup(gamma=0.2)
        adapter = MockEncoder(setup.config)
        first = first_pass(adapter, setup, 4e6)
        targets = dict(first.rates)
        second = encode_pass(adapter, setup, targets, first, first.models)
        assert (second.qps, second.rates, second.retargets) == (first.qps, first.rates, {})

    def test_doubled_rate_drops_qp_by_halving_span(self):
        setup = single_frame_setup()
        adapter = MockEncoder(setup.config)
        first = first_pass(adapter, setup, 1e6)
        assert first.qps[FrameCoord(0, 0)] == 30
        targets = {FrameCoord(0, 0): 2e6}
        second = encode_pass(adapter, setup, targets, first)
        assert abs(second.qps[FrameCoord(0, 0)] - 24) <= 1
        assert second.rates[FrameCoord(0, 0)] == 2e6

    def test_far_target_settles_within_three_passes(self):
        setup = single_frame_setup()
        adapter = MockEncoder(setup.config)
        coord = FrameCoord(0, 0)
        entry = first_pass(adapter, setup, 1e6)
        assert entry.qps[coord] == 30
        targets = {coord: mock_encode(setup.config, coord, 40, 0.0)[0]}
        for _ in range(3):
            previous = entry
            entry = encode_pass(adapter, setup, targets, entry)
            if entry.qps == previous.qps:
                break
        assert entry.qps == previous.qps == {coord: 40}

    def test_missing_allocation_entry(self):
        setup = small_grid_setup()
        adapter = MockEncoder(setup.config)
        first = first_pass(adapter, setup, 4e6)
        partial = dict(first.rates)
        partial.pop(setup.grid.coding_order[-1])
        u, v = setup.grid.coding_order[-1]
        with pytest.raises(IncompleteInput, match=rf"targets missing for frame \({u},{v}\)"):
            encode_pass(adapter, setup, partial, first)


class TestRunToConvergence:
    """The outer allocation and re-encode loop."""

    def test_decoupled_mock_settles_within_three_passes(self, decoupled_setup):
        adapter = MockEncoder(decoupled_setup.config)
        trace = run_to_convergence(
            adapter, decoupled_setup.grid, decoupled_setup.weights, 2e7, 0.0, 8
        )
        assert trace.converged
        assert len(trace.entries) <= 3

    def test_coupled_mock_converges(self, coupled_setup):
        adapter = MockEncoder(coupled_setup.config)
        trace = run_to_convergence(
            adapter, coupled_setup.grid, coupled_setup.weights, 2e7, 5.0, 8
        )
        assert trace.converged
        assert len(trace.entries) <= 6

    def test_iteration_cap_leaves_converged_false(self, coupled_setup):
        adapter = MockEncoder(coupled_setup.config)
        trace = run_to_convergence(
            adapter, coupled_setup.grid, coupled_setup.weights, 2e7, 5.0, 2
        )
        assert not trace.converged
        assert len(trace.entries) == 2

    def test_single_pass_cannot_converge(self, decoupled_setup):
        adapter = MockEncoder(decoupled_setup.config)
        trace = run_to_convergence(
            adapter, decoupled_setup.grid, decoupled_setup.weights, 2e7, 0.0, 1
        )
        assert not trace.converged
        assert len(trace.entries) == 1

    def test_zero_max_iters_rejected(self, decoupled_setup):
        adapter = MockEncoder(decoupled_setup.config)
        with pytest.raises(ValueError):
            run_to_convergence(
                adapter, decoupled_setup.grid, decoupled_setup.weights, 2e7, 0.0, 0
            )

    def test_re_encode_passes_never_repeat_an_encode(self, coupled_setup):
        passes = []

        class CountingEncoder(MockEncoder):
            def initial_reference(self):
                passes.append([])
                return super().initial_reference()

            def encode_frame(self, coord, qp, ref_state):
                passes[-1].append((coord, qp, ref_state))
                return super().encode_frame(coord, qp, ref_state)

        trace = run_to_convergence(
            CountingEncoder(coupled_setup.config),
            coupled_setup.grid,
            coupled_setup.weights,
            2e7,
            5.0,
            8,
        )
        assert len(passes) == len(trace.entries) >= 2
        for calls in passes[1:]:
            assert len(calls) == len(set(calls))

    def test_no_encode_repeats_within_a_run(self, coupled_setup):
        adapter = CountingEncoder(coupled_setup.config)
        trace = run_to_convergence(
            adapter, coupled_setup.grid, coupled_setup.weights, 2e7, 5.0, 8
        )
        assert len(trace.entries) >= 2
        assert len(adapter.calls) == len(set(adapter.calls)) == trace.encodes
        assert trace.cache_hits > 0

    def test_fresh_adapters_give_identical_counts_and_bytes(self, tmp_path, coupled_setup):
        def run(path):
            adapter = CountingEncoder(coupled_setup.config)
            trace = run_to_convergence(
                adapter, coupled_setup.grid, coupled_setup.weights, 2e7, 5.0, 8
            )
            write_trace_csv(trace, path)
            return adapter.calls, trace.encodes, trace.cache_hits, path.read_bytes()

        assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")

    def test_tuple_reference_states(self, coupled_setup):
        class TupleReferenceEncoder(MockEncoder):
            """Carries (frames coded so far, last SSE) as the reference."""

            def initial_reference(self):
                return (0, 0.0)

            def advance_reference(self, ref_state, rate, sse):
                return (ref_state[0] + 1, sse)

            def encode_frame(self, coord, qp, ref_state):
                return super().encode_frame(coord, qp, ref_state[1])

        def run(adapter):
            return run_to_convergence(
                adapter, coupled_setup.grid, coupled_setup.weights, 2e7, 5.0, 8
            )

        tupled = run(TupleReferenceEncoder(coupled_setup.config))
        plain = run(MockEncoder(coupled_setup.config))
        assert tupled.converged
        assert [e.qps for e in tupled.entries] == [e.qps for e in plain.entries]
        assert [e.sses for e in tupled.entries] == [e.sses for e in plain.entries]

    def test_cycling_loop_stops_unconverged(self, monkeypatch, caplog):
        # The first frame's SSE sets the second frame's fitted alpha through
        # the reference; this allocator gives the first frame the low rate
        # whenever that alpha is low, so the rates swing forever.
        grid = spiral_order(2, 1)
        first, second = grid.coding_order
        config = MockEncoderConfig(
            frame_params={first: (3e7, -0.3), second: (3e7, -0.3)},
            dependency_gamma=0.5,
            ref_norm=2e6,
        )
        weights = unify_weights({first: 1.0, second: 1.0})
        low, high = 4e5, 1.6e6
        sse_mid = mock_encode(config, first, 30, 0.0)[1] * 1.25 ** 0.3
        threshold = 3e7 * (1.0 + 0.5 * sse_mid / 2e6)

        def swinging_allocate(problem, start=None):
            a = problem.models[second].alpha
            rates = {first: low, second: high} if a < threshold else {first: high, second: low}
            return replace(allocate(problem, start), rates=rates)

        monkeypatch.setattr(encodesim, "allocate", swinging_allocate)
        with caplog.at_level(logging.WARNING, logger="lfalloc.encodesim"):
            trace = run_to_convergence(MockEncoder(config), grid, weights, 2e6, 0.0, 40)
        assert not trace.converged
        assert len(trace.entries) < 10
        last = trace.entries[-1]
        assert any(
            e.qps == last.qps and e.rates == last.rates and e.models == last.models
            for e in trace.entries[:-1]
        )
        assert "cycles with period 2" in caplog.text

    def test_cycle_stops_at_its_first_repeated_pass(self, monkeypatch):
        # A 2x2 mock on the benchmark recipe that cycles at lambda 100: pass
        # 11 repeats pass 5's quantizers, slopes and models, and no earlier
        # pass repeats any. The reference elasticities repeat a pass later,
        # so holding them in the state runs one more pass that encodes
        # nothing new.
        setup = recipe_mock(np.random.default_rng([10, 2, 10]), 2)

        def run():
            adapter = MockEncoder(setup.config)
            return run_to_convergence(adapter, setup.grid, setup.weights, 4e6, 100.0, 40)

        trace = run()
        states = [(e.qps, e.qp_slopes, e.models) for e in trace.entries]
        assert not trace.converged
        assert len(states) == 11 and states[-1] == states[4]
        assert all(state not in states[:k] for k, state in enumerate(states[:-1]))
        pass_state = encodesim._pass_state

        def with_elasticities(grid, entry):
            return pass_state(grid, entry), tuple(grid.align(entry.ref_elasticities, "pass"))

        monkeypatch.setattr(encodesim, "_pass_state", with_elasticities)
        longer = run()
        assert len(longer.entries) == 12 and longer.encodes == trace.encodes

    def test_each_allocation_starts_from_the_last(self, coupled_setup, monkeypatch):
        # Step 2 starts from the first pass's even share, then from the
        # rates the allocation before returned: the previous anticipation
        # round's, or the previous pass's allocation.
        starts, results = [], []

        def spying_allocate(problem, start=None):
            starts.append(start)
            results.append(allocate(problem, start))
            return results[-1]

        monkeypatch.setattr(encodesim, "allocate", spying_allocate)
        grid = coupled_setup.grid
        adapter = MockEncoder(coupled_setup.config)
        trace = run_to_convergence(adapter, grid, coupled_setup.weights, 2e7, 5.0, 6)
        assert len(results) > len(trace.entries) - 1
        assert starts[0] == dict.fromkeys(grid.coding_order, 2e7 / grid.n_frames)
        assert all(start is result.rates for start, result in zip(starts[1:], results))

    def test_allocator_that_stops_short_carries_its_best_iterate(
        self, decoupled_setup, monkeypatch, caplog
    ):
        carried, targets = [], []

        def stopping_allocate(problem, start=None):
            carried.append(allocate(problem, start))
            raise NotConverged("iteration cap", result=carried[-1])

        monkeypatch.setattr(encodesim, "allocate", stopping_allocate)
        patch_pass(monkeypatch, spy=lambda arguments: targets.append(arguments["targets"]))
        with caplog.at_level(logging.WARNING, logger="lfalloc.encodesim"):
            trace = run_to_convergence(
                MockEncoder(decoupled_setup.config),
                decoupled_setup.grid,
                decoupled_setup.weights,
                2e7,
                0.0,
                8,
            )
        assert trace.converged
        assert len(targets) == len(trace.entries) >= 2
        assert all(any(t is c.rates for c in carried) for t in targets[1:])
        assert "allocator did not fully converge" in caplog.text

    def test_deterministic_rerun(self, coupled_setup):
        def run():
            adapter = MockEncoder(coupled_setup.config)
            return run_to_convergence(
                adapter, coupled_setup.grid, coupled_setup.weights, 2e7, 5.0, 8
            )

        first, second = run(), run()
        assert first.converged == second.converged
        assert len(first.entries) == len(second.entries)
        for a, b in zip(first.entries, second.entries):
            assert a.qps == b.qps
            assert a.rates == b.rates
            assert a.sses == b.sses

    def test_converged_state_is_stable_one_more_pass(self, decoupled_setup):
        adapter = MockEncoder(decoupled_setup.config)
        trace = run_to_convergence(
            adapter, decoupled_setup.grid, decoupled_setup.weights, 2e7, 0.0, 8
        )
        assert trace.converged
        last = trace.entries[-1]
        problem = AllocationProblem(
            grid=decoupled_setup.grid,
            weights=decoupled_setup.weights,
            models=last.models,
            budget=2e7,
            lam=0.0,
        )
        targets = allocate(problem).rates
        extra = encode_pass(adapter, decoupled_setup, targets, last)
        for c in decoupled_setup.grid.coding_order:
            assert abs(extra.rates[c] - last.rates[c]) / last.rates[c] < 0.01


    @pytest.mark.parametrize("lam", [0.0, 10.0])
    def test_each_pass_costs_what_the_public_cost_gives(self, coupled_setup, lam):
        # A pass is scored from its SSE in coding order at the problem's
        # unified weight vector, which metrics.cost aligns from the table.
        for setup, budget in ((coupled_setup, 2e7), (seeded_mock(5, 3), 2.5e7)):
            adapter = MockEncoder(setup.config)
            trace = run_to_convergence(adapter, setup.grid, setup.weights, budget, lam, 12)
            assert len(trace.entries) >= 3
            for entry in trace.entries:
                expected = cost(setup.grid, setup.weights, DistortionSet(entry.sses), lam)
                assert entry.cost == expected


class BadSSEEncoder(MockEncoder):
    """MockEncoder whose SSE is bad for one frame at one quantizer."""

    def __init__(self, config, coord, qp, sse):
        super().__init__(config)
        self.at, self.sse = (coord, qp), sse

    def encode_frame(self, coord, qp, ref_state):
        rate, sse = super().encode_frame(coord, qp, ref_state)
        return rate, self.sse if (coord, qp) == self.at else sse


class TestBadAdapterSSE:
    """An SSE that is zero, negative or not a number stops the loop before
    the pass it lands in is scored."""

    def setup_two_frames(self):
        # The second frame's weight is 0.64, so the first pass's shares of
        # 1 Mbit move by about 2.5 quantizers in the second pass.
        grid = spiral_order(2, 1)
        config = MockEncoderConfig(frame_params={c: (3e7, -0.3) for c in grid.coding_order})
        first, second = grid.coding_order
        return MockSetup(config, grid, unify_weights({first: 1.0, second: 0.64}))

    def run(self, adapter, setup):
        return run_to_convergence(adapter, setup.grid, setup.weights, 2e6, 0.0, 8)

    def scored(self, monkeypatch):
        """The list of the passes run_to_convergence scores from now on."""
        scored = []

        def joint_cost(*args):
            scored.append(args)
            return metrics.joint_cost(*args)

        monkeypatch.setattr(encodesim, "joint_cost", joint_cost)
        return scored

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_sse_of_a_searched_frame(self, monkeypatch, bad):
        setup = self.setup_two_frames()
        coord = setup.grid.coding_order[0]
        qp = self.run(MockEncoder(setup.config), setup).entries[0].qps[coord]
        scored = self.scored(monkeypatch)
        with pytest.raises(ValueError, match="sse must be positive and finite"):
            self.run(BadSSEEncoder(setup.config, coord, qp, bad), setup)
        assert scored == []

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_sse_of_a_one_encode_commit(self, monkeypatch, bad):
        setup = self.setup_two_frames()
        first, second = self.run(MockEncoder(setup.config), setup).entries[:2]
        coord = setup.grid.coding_order[0]
        # The frame moves two or more quantizers on one encode, so its new
        # quantizer is none of the first pass's fit samples.
        assert second.models[coord].sample_count == 1
        assert abs(second.qps[coord] - first.qps[coord]) >= 2
        scored = self.scored(monkeypatch)
        with pytest.raises(ValueError, match="alpha"):
            self.run(BadSSEEncoder(setup.config, coord, second.qps[coord], bad), setup)
        assert len(scored) == 1

class TestMockConfigIO:
    """Mock configuration files."""

    def test_round_trip_fixed_point(self, tmp_path, coupled_setup):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_mock_config(coupled_setup, first)
        write_mock_config(read_mock_config(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "mock.txt"
        path.write_text("width: 1\nheight: 1\nframe: 0,0,3e7,-0.3\n")
        setup = read_mock_config(path)
        assert setup.config.qp_anchor == 30
        assert setup.config.rate_anchor == 1e6
        assert setup.config.dependency_gamma == 0.0
        assert setup.config.curvature == 0.0
        assert setup.weights.unified[FrameCoord(0, 0)] == 1.0

    def test_numpy_scalars_round_trip(self, tmp_path):
        grid = spiral_order(2, 1)
        config = MockEncoderConfig(
            frame_params={c: (np.float64(3e7), np.float64(-0.3)) for c in grid.coding_order},
            rate_anchor=np.float64(1e6),
            dependency_gamma=np.float64(0.5),
            curvature=np.float64(0.02),
        )
        weights = unify_weights(dict(zip(grid.coding_order, np.array([1.0, 0.36]))))
        path = tmp_path / "mock.txt"
        write_mock_config(MockSetup(config=config, grid=grid, weights=weights), path)
        back = read_mock_config(path)
        assert back.config.frame_params == config.frame_params
        assert (back.config.dependency_gamma, back.config.curvature) == (0.5, 0.02)
        assert back.weights.raw == weights.raw

    def test_negative_curvature(self, tmp_path):
        path = tmp_path / "mock.txt"
        path.write_text("width: 1\nheight: 1\ncurvature: -0.1\nframe: 0,0,3e7,-0.3\n")
        with pytest.raises(ParseError, match="line 3"):
            read_mock_config(path)

    def test_optional_weight_column(self, tmp_path):
        path = tmp_path / "mock.txt"
        path.write_text(
            "width: 2\nheight: 1\nframe: 0,0,3e7,-0.3,0.5\nframe: 1,0,3e7,-0.3,1.0\n"
        )
        setup = read_mock_config(path)
        assert setup.weights.unified[FrameCoord(0, 0)] == 0.5

    def test_missing_dimensions(self, tmp_path):
        path = tmp_path / "mock.txt"
        path.write_text("frame: 0,0,3e7,-0.3\n")
        with pytest.raises(ParseError):
            read_mock_config(path)

    def test_missing_frame(self, tmp_path):
        path = tmp_path / "mock.txt"
        path.write_text("width: 2\nheight: 1\nframe: 0,0,3e7,-0.3\n")
        with pytest.raises(ParseError):
            read_mock_config(path)

    def test_bad_law_becomes_parse_error(self, tmp_path):
        path = tmp_path / "mock.txt"
        path.write_text("width: 1\nheight: 1\nframe: 0,0,-1.0,-0.3\n")
        with pytest.raises(ParseError):
            read_mock_config(path)


class TestTraceIO:
    """Iteration trace CSV round trips."""

    def make_trace(self, decoupled_setup):
        adapter = MockEncoder(decoupled_setup.config)
        return run_to_convergence(
            adapter, decoupled_setup.grid, decoupled_setup.weights, 2e7, 0.0, 8
        )

    def test_parse_matches_in_memory_trace(self, tmp_path, decoupled_setup):
        trace = self.make_trace(decoupled_setup)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        parsed = read_trace_csv(path)
        assert parsed.converged == trace.converged
        assert len(parsed.iterations) == len(trace.entries) > 1
        order = decoupled_setup.grid.coding_order
        for iteration, entry in zip(parsed.iterations, trace.entries):
            models = [entry.models[c] for c in order]
            assert iteration.rows == [
                (c.u, c.v, entry.qps[c], entry.rates[c], entry.sses[c], m.alpha, m.beta)
                for c, m in zip(order, models)
            ]
            assert iteration.total_cost == entry.cost.total
            assert iteration.wpsnr_db == entry.wpsnr_db

    def test_last_iteration_distortions(self, tmp_path, decoupled_setup):
        from lfalloc.cli import _load_distortions

        trace = self.make_trace(decoupled_setup)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        distortions = _load_distortions(str(path))
        assert distortions.sse == trace.entries[-1].sses

    def test_truncated_trace(self, tmp_path, decoupled_setup):
        trace = self.make_trace(decoupled_setup)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            read_trace_csv(path)

    def test_bad_comment(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iteration,u,v,qp,rate_bits,sse,alpha,beta\n# spam\n")
        with pytest.raises(ParseError):
            read_trace_csv(path)

    def test_out_of_order_iteration(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "iteration,u,v,qp,rate_bits,sse,alpha,beta\n"
            "2,0,0,30,1e6,1e5,3e7,-0.3\n"
            "# iteration 2 total_cost 1.0 wpsnr 40.0\n"
            "# converged true\n"
        )
        with pytest.raises(ParseError):
            read_trace_csv(path)

    def test_out_of_order_summary(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "iteration,u,v,qp,rate_bits,sse,alpha,beta\n"
            "1,0,0,30,1e6,1e5,3e7,-0.3\n"
            "# iteration 2 total_cost 1.0 wpsnr 40.0\n"
            "# converged true\n"
        )
        with pytest.raises(ParseError, match=r"line 3: iteration 2 is out of order$"):
            read_trace_csv(path)
