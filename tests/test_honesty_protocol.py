"""The honesty protocol's summary of two runs, on hand-made loop records."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "honesty_protocol.py"
SPEC = importlib.util.spec_from_file_location("honesty_protocol", PATH)
protocol = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(protocol)


def records(rate_factor=1.0, settled=True, calls=100, passes=4):
    """Two seeds, two mocks, both sets at lambda 0; four budgets per curve,
    with wPSNR rising 3 dB per doubling of the rate."""
    out = []
    for seed in (77, 78):
        for k in (0, 1):
            for curvature in (0.0, 0.02):
                for i in range(4):
                    rate = 1e8 * (k + 1) * 2.0**i
                    out.append(
                        dict(
                            seed=seed,
                            k=k,
                            lam=0.0,
                            curvature=curvature,
                            bits_per_frame=rate / 169,
                            settled=settled,
                            passes=passes,
                            calls=calls,
                            rate=rate * rate_factor,
                            wpsnr_db=30.0 + 3.0 * i + 0.1 * seed,
                        )
                    )
    return out


def test_equal_runs_read_zero():
    summary = protocol.summarize(records(), records())
    assert summary["bd_rate_by_seed"] == {77: 0.0, 78: 0.0}
    assert summary["bd_rate_by_set"] == {
        "lambda 0, curvature 0": 0.0,
        "lambda 0, curvature 0.02": 0.0,
    }
    assert summary["parent"] == summary["change"] == dict(
        loops=32, settled=32, calls=3200, passes=128
    )


def test_means_per_seed_and_set_and_loop_totals():
    parent = records()
    change = records(rate_factor=0.99, calls=90, passes=3)
    for r in change[:4]:
        r["settled"] = False
    summary = protocol.summarize(parent, change)
    assert summary["bd_rate_by_seed"] == pytest.approx({77: -1.0, 78: -1.0}, rel=1e-9)
    assert list(summary["bd_rate_by_set"].values()) == pytest.approx([-1.0, -1.0], rel=1e-9)
    assert summary["change"] == dict(loops=32, settled=28, calls=2880, passes=96)
    text = protocol.format_summary(summary)
    assert "seed 77: mean BD-rate -1.000%" in text
    assert "settled 32 -> 28 of 32 loops" in text
    assert "encoder calls 3,200 -> 2,880" in text
    assert "passes 128 -> 96" in text


def test_runs_over_different_curves_are_refused():
    with pytest.raises(ValueError, match="different curves"):
        protocol.summarize(records(), records()[:-4])
