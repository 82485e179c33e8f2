"""The honesty protocol's summary of two runs, on hand-made loop records,
and its trace digest."""

import hashlib
import json
from dataclasses import replace

import pytest

from conftest import load_tool
from lfalloc import MockEncoder, run_to_convergence, write_trace_csv
from test_encodesim import small_grid_setup

protocol = load_tool("honesty_protocol")


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
    assert summary["bd_rate_over_sets"] == 0.0
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


def test_mean_over_the_sets_is_the_mean_of_the_set_means():
    # The change spends 2% less on the curvature-0 curves and 1% more on
    # the curved ones, so the sets read -2% and +1% and their mean -0.5%.
    parent, change = records(), records()
    for r in change:
        r["rate"] *= 0.98 if r["curvature"] == 0.0 else 1.01
    summary = protocol.summarize(parent, change)
    assert list(summary["bd_rate_by_set"].values()) == pytest.approx([-2.0, 1.0], rel=1e-9)
    assert summary["bd_rate_over_sets"] == pytest.approx(-0.5, rel=1e-9)
    assert "mean BD-rate over the sets -0.500%" in protocol.format_summary(summary)


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


def test_run_prints_its_loop_totals(tmp_path, monkeypatch, capsys):
    """`run` writes its records and logs the loops settled, encoder calls
    and passes; a loop that ends unsettled, one above UNSETTLED_LIMIT,
    fails the run and is counted on stderr."""
    loops = records(calls=1000, passes=4)
    loops[3]["settled"] = False
    monkeypatch.setattr(protocol, "run_tree", lambda tree, trace_path: loops)
    output = tmp_path / "records.json"
    assert protocol.UNSETTLED_LIMIT == 0
    assert protocol.main(["run", str(tmp_path), "--output", str(output)]) == 1
    assert json.loads(output.read_text()) == loops
    captured = capsys.readouterr()
    assert captured.out == "31 of 32 loops settled, 32,000 encoder calls, 128 passes\n"
    assert captured.err == "loops ended unsettled: 1 (at most 0)\n"


@pytest.mark.parametrize("unsettled, code", [(0, 0), (2, 0), (3, 1)])
def test_run_fails_above_the_unsettled_limit(tmp_path, monkeypatch, capsys, unsettled, code):
    loops = records()
    for r in loops[:unsettled]:
        r["settled"] = False
    monkeypatch.setattr(protocol, "run_tree", lambda tree, trace_path: loops)
    monkeypatch.setattr(protocol, "UNSETTLED_LIMIT", 2)
    output = tmp_path / "records.json"
    assert protocol.main(["run", str(tmp_path), "--output", str(output)]) == code
    assert output.exists()
    assert capsys.readouterr().err == ("loops ended unsettled: 3 (at most 2)\n" if code else "")


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
