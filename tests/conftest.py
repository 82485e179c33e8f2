"""Shared model pairs, builders for the mock-encoder scenarios and a
loader for the scripts under tools/, used across test files."""

import functools
import importlib.util
from pathlib import Path

import pytest

from lfalloc import FrameCoord, MockEncoderConfig, MockSetup, spiral_order, unify_weights

# Representative fitted (alpha, beta) pairs spanning the spread seen on real
# sequences.
REFERENCE_PAIRS = ((4.46e7, -0.261), (1.96e8, -0.383), (6.93e7, -0.284))

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@functools.cache
def load_tool(name: str):
    """The script tools/<name>.py as a module, loaded once per test run."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _grid_params(alpha_spread: float, beta_spread: float):
    """Mildly heterogeneous hidden (a, b) pairs over a 5x5 grid."""
    params = {}
    for u in range(5):
        for v in range(5):
            a = 3e7 * (1.0 + alpha_spread * (((u * 7 + v * 3) % 5) - 2) / 2.0)
            b = -(0.28 + beta_spread * (((u + 2 * v) % 4) - 1.5))
            params[FrameCoord(u, v)] = (a, b)
    return params


def make_coupled_setup() -> MockSetup:
    """5x5 mock with reference-frame coupling and center-weighted frames."""
    raw = {
        FrameCoord(u, v): 1.0 / (1.0 + 0.04 * (abs(u - 2) + abs(v - 2)))
        for u in range(5)
        for v in range(5)
    }
    config = MockEncoderConfig(
        frame_params=_grid_params(0.04, 0.003),
        qp_anchor=30,
        rate_anchor=1e6,
        dependency_gamma=0.2,
        ref_norm=2e6,
        frame_pixels=100_000,
    )
    return MockSetup(config=config, grid=spiral_order(5, 5), weights=unify_weights(raw))


def make_decoupled_setup() -> MockSetup:
    """5x5 mock with independent frames and flat weights."""
    raw = {FrameCoord(u, v): 1.0 for u in range(5) for v in range(5)}
    config = MockEncoderConfig(
        frame_params=_grid_params(0.06, 0.005),
        qp_anchor=30,
        rate_anchor=1e6,
        dependency_gamma=0.0,
        ref_norm=2e6,
        frame_pixels=100_000,
    )
    return MockSetup(config=config, grid=spiral_order(5, 5), weights=unify_weights(raw))


@pytest.fixture
def coupled_setup() -> MockSetup:
    return make_coupled_setup()


@pytest.fixture
def decoupled_setup() -> MockSetup:
    return make_decoupled_setup()
