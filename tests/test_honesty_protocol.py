"""The honesty protocol's summary of two runs, on hand-made loop records,
and its trace digest."""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from lfalloc import MockEncoder, run_to_convergence, write_trace_csv
from test_encodesim import small_grid_setup

PATH = Path(__file__).resolve().parent.parent / "tools" / "honesty_protocol.py"
SPEC = importlib.util.spec_from_file_location("honesty_protocol", PATH)
protocol = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(protocol)


def records(rate_factor=1.0, settled=True, calls=100, passes=4, trace="t"):
    """Two seeds, two mocks, both sets at lambda 0; four budgets per curve,
    with wPSNR rising 3 dB per doubling of the rate; each loop's trace
    digest is trace followed by its index."""
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
                            trace=f"{trace}{len(out)}",
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
    assert summary["traces_differing"] == 0
    assert "traces differing 0 of 32" in protocol.format_summary(summary)


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


def test_traces_are_matched_by_loop():
    # Loops are matched by seed, k, lambda, curvature and budget, not by
    # their place in the file.
    parent, change = records(), records()[::-1]
    change[0]["trace"] = change[5]["trace"] = "other"
    summary = protocol.summarize(parent, change)
    assert summary["traces_differing"] == 2
    assert "traces differing 2 of 32" in protocol.format_summary(summary)
    change[0]["bits_per_frame"] *= 2
    with pytest.raises(ValueError, match="different curves"):
        protocol.summarize(parent, change)


def test_trace_digest_is_the_written_file(tmp_path):
    setup = small_grid_setup()
    trace = run_to_convergence(MockEncoder(setup.config), setup.grid, setup.weights, 4e6, 0.0, 1)
    written = tmp_path / "written.csv"
    write_trace_csv(trace, written)
    path = tmp_path / "trace.csv"
    digest = protocol.trace_digest(write_trace_csv, trace, path)
    assert digest == hashlib.sha256(written.read_bytes()).hexdigest()
    # One SSE a unit in the last place away is another trace.
    [entry] = trace.entries
    coord = setup.grid.coding_order[1]
    sses = entry.sses | {coord: entry.sses[coord] * (1 + 2**-52)}
    other = replace(trace, entries=[replace(entry, sses=sses)])
    assert protocol.trace_digest(write_trace_csv, other, path) != digest
