"""Power-law model fitting, evaluation, tangent lines, and CSV forms."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfalloc import (
    DomainError,
    InsufficientSamples,
    NonDecreasingRD,
    ParseError,
    RDModelParams,
    RDSample,
    eval_model,
    fit_power_model,
    read_models_csv,
    read_samples_csv,
    tangent_lines,
    write_models_csv,
    write_samples_csv,
)

# Representative fitted pairs spanning the spread seen on real sequences.
REFERENCE_PAIRS = ((4.46e7, -0.261), (1.96e8, -0.383), (6.93e7, -0.284))

FIT_RATES = (1e5, 2e5, 4e5, 8e5, 1.6e6)


def exact_samples(alpha, beta, rates=FIT_RATES):
    return [
        RDSample(qp=30 + i, rate=r, sse=alpha * r ** beta)
        for i, r in enumerate(rates)
    ]


class TestValueTypes:
    """Validation on the sample and parameter containers."""

    def test_sample_requires_positive_rate(self):
        with pytest.raises(ValueError):
            RDSample(qp=30, rate=0.0, sse=1.0)

    def test_sample_requires_positive_sse(self):
        with pytest.raises(ValueError):
            RDSample(qp=30, rate=1.0, sse=-1.0)

    @pytest.mark.parametrize("rate, sse", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_sample_requires_finite_values(self, rate, sse):
        with pytest.raises(ValueError):
            RDSample(qp=30, rate=rate, sse=sse)

    def test_params_require_positive_alpha(self):
        with pytest.raises(ValueError):
            RDModelParams(alpha=0.0, beta=-0.3)

    def test_params_require_negative_beta(self):
        with pytest.raises(ValueError):
            RDModelParams(alpha=1.0, beta=0.0)


class TestFitPowerModel:
    """Log-log least squares recovery of alpha and beta."""

    @pytest.mark.parametrize("alpha,beta", REFERENCE_PAIRS)
    def test_exact_recovery(self, alpha, beta):
        fit = fit_power_model(exact_samples(alpha, beta))
        assert fit.alpha == pytest.approx(alpha, rel=1e-9)
        assert fit.beta == pytest.approx(beta, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.sample_count == 5

    def test_two_samples_interpolate_exactly(self):
        fit = fit_power_model(exact_samples(5e7, -0.3, rates=(1e5, 4e5)))
        assert fit.alpha == pytest.approx(5e7, rel=1e-9)
        assert fit.beta == pytest.approx(-0.3, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_single_sample(self):
        with pytest.raises(InsufficientSamples):
            fit_power_model([RDSample(qp=30, rate=1e5, sse=1e6)])

    def test_repeated_rate_counts_once(self):
        samples = [
            RDSample(qp=30, rate=1e5, sse=1e6),
            RDSample(qp=31, rate=1e5, sse=9e5),
        ]
        with pytest.raises(InsufficientSamples):
            fit_power_model(samples)

    def test_increasing_distortion(self):
        samples = [
            RDSample(qp=30, rate=1e5, sse=1e5),
            RDSample(qp=29, rate=2e5, sse=2e5),
            RDSample(qp=28, rate=4e5, sse=4e5),
        ]
        with pytest.raises(NonDecreasingRD):
            fit_power_model(samples)

    def test_flat_distortion(self):
        samples = [
            RDSample(qp=30, rate=1e5, sse=7e5),
            RDSample(qp=29, rate=2e5, sse=7e5),
        ]
        with pytest.raises(NonDecreasingRD):
            fit_power_model(samples)

    @settings(derandomize=True, max_examples=40)
    @given(
        alpha=st.floats(min_value=1e-3, max_value=1e9),
        beta=st.floats(min_value=-2.0, max_value=-0.01),
        base=st.floats(min_value=1e3, max_value=1e7),
    )
    def test_fit_inverts_generation(self, alpha, beta, base):
        rates = [base * 2.0 ** i for i in range(5)]
        fit = fit_power_model(exact_samples(alpha, beta, rates=rates))
        assert fit.alpha == pytest.approx(alpha, rel=1e-9)
        assert fit.beta == pytest.approx(beta, rel=1e-9, abs=1e-9)

    def test_noisy_fit_keeps_high_r_squared(self):
        rng = np.random.default_rng(3)
        alpha, beta = 4.46e7, -0.261
        rates = np.logspace(5, math.log10(3.2e6), 9)
        samples = [
            RDSample(qp=30, rate=float(r), sse=float(alpha * r ** beta * math.exp(e)))
            for r, e in zip(rates, rng.normal(0.0, 0.05, 9))
        ]
        fit = fit_power_model(samples)
        assert fit.r_squared >= 0.95
        assert fit.beta < 0.0


class TestEvalModel:
    """Model evaluation on scalars and arrays."""

    def test_inverse_law_point(self):
        assert eval_model(RDModelParams(alpha=2.0, beta=-1.0), 2.0) == 1.0

    def test_high_precision_oracle(self):
        # Same float inputs pushed through 50-digit decimal arithmetic.
        getcontext().prec = 50
        alpha, beta, rate = 4.46e7, -0.261, 1e6
        expected = Decimal(alpha) * (Decimal(beta) * Decimal(rate).ln()).exp()
        got = eval_model(RDModelParams(alpha=alpha, beta=beta), rate)
        assert got == pytest.approx(float(expected), rel=1e-12)
        assert 1.21e6 < got < 1.23e6

    def test_strictly_decreasing(self):
        params = RDModelParams(alpha=4.46e7, beta=-0.261)
        assert eval_model(params, 2e6) < eval_model(params, 1e6)

    def test_array_input(self):
        params = RDModelParams(alpha=2.0, beta=-1.0)
        out = eval_model(params, np.array([1.0, 2.0, 4.0]))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [2.0, 1.0, 0.5]

    def test_scalar_returns_float(self):
        assert isinstance(eval_model(RDModelParams(alpha=1.0, beta=-1.0), 3.0), float)

    def test_nonpositive_rate(self):
        params = RDModelParams(alpha=1.0, beta=-1.0)
        with pytest.raises(DomainError):
            eval_model(params, 0.0)
        with pytest.raises(DomainError):
            eval_model(params, np.array([1.0, -2.0]))


class TestLinearize:
    """Tangent expansion of the model around a rate."""

    def test_inverse_law_tangent(self):
        assert tangent_lines(1.0, -1.0, 1.0) == (2.0, -1.0)

    def test_touches_model_at_expansion_point(self):
        params = RDModelParams(alpha=6.93e7, beta=-0.284)
        r0 = 5e5
        intercept, slope = tangent_lines(params.alpha, params.beta, r0)
        assert intercept + slope * r0 == pytest.approx(eval_model(params, r0), rel=1e-12)

    @pytest.mark.parametrize("alpha,beta", REFERENCE_PAIRS)
    def test_slope_matches_central_difference(self, alpha, beta):
        params = RDModelParams(alpha=alpha, beta=beta)
        r0 = 8e5
        h = 1e-4 * r0
        fd = (eval_model(params, r0 + h) - eval_model(params, r0 - h)) / (2.0 * h)
        assert tangent_lines(alpha, beta, r0)[1] == pytest.approx(fd, rel=1e-5)

    def test_underestimates_away_from_tangency(self):
        params = RDModelParams(alpha=4.46e7, beta=-0.261)
        r0 = 8e5
        intercept, slope = tangent_lines(params.alpha, params.beta, r0)
        for rate in (0.5 * r0, 2.0 * r0):
            assert intercept + slope * rate < eval_model(params, rate)

    def test_nonpositive_expansion_point(self):
        with pytest.raises(DomainError):
            tangent_lines(1.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            tangent_lines(np.ones(2), -np.ones(2), np.array([1.0, -2.0]))


class TestModelIO:
    """Sample and model CSV round trips and their diagnostics."""

    def test_samples_round_trip(self, tmp_path):
        samples = {
            "0": exact_samples(4.46e7, -0.261),
            "1": exact_samples(1.96e8, -0.383, rates=(2e5, 6e5)),
        }
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        assert read_samples_csv(path) == samples

    def test_samples_write_read_write_fixed_point(self, tmp_path):
        samples = {"center": exact_samples(6.93e7, -0.284)}
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_samples_csv(samples, first)
        write_samples_csv(read_samples_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_samples_bad_field_count(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("frame_index,qp,rate_bits,sse\n0,30,100\n")
        with pytest.raises(ParseError) as err:
            read_samples_csv(path)
        assert "line 2" in str(err.value)

    def test_samples_bad_number(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("frame_index,qp,rate_bits,sse\n0,30,1e5,spam\n")
        with pytest.raises(ParseError):
            read_samples_csv(path)

    def test_samples_empty(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("frame_index,qp,rate_bits,sse\n")
        with pytest.raises(ParseError):
            read_samples_csv(path)

    def test_models_round_trip(self, tmp_path):
        models = {
            "0": RDModelParams(alpha=4.46e7, beta=-0.261, r_squared=0.977),
            "1": RDModelParams(alpha=1.96e8, beta=-0.383, r_squared=0.985),
        }
        path = tmp_path / "models.csv"
        write_models_csv(models, path)
        back = read_models_csv(path)
        assert back.keys() == models.keys()
        for key in models:
            assert back[key].alpha == models[key].alpha
            assert back[key].beta == models[key].beta
            assert back[key].r_squared == models[key].r_squared

    def test_models_reject_bad_parameters(self, tmp_path):
        path = tmp_path / "models.csv"
        path.write_text("frame_index,alpha,beta,r_squared\n0,0.0,-0.3,1.0\n")
        with pytest.raises(ParseError):
            read_models_csv(path)

    def test_models_empty(self, tmp_path):
        path = tmp_path / "models.csv"
        path.write_text("frame_index,alpha,beta,r_squared\n")
        with pytest.raises(ParseError):
            read_models_csv(path)
