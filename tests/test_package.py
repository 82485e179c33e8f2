"""The package's public names."""

import pytest

import lfalloc
from lfalloc import allocator, encodesim, metrics, rdmodel


def test_every_exported_name_resolves():
    assert len(set(lfalloc.__all__)) == len(lfalloc.__all__)
    for name in lfalloc.__all__:
        assert hasattr(lfalloc, name), name


@pytest.mark.parametrize(
    "module, name",
    [
        (rdmodel, "LinearizedRD"),
        (rdmodel, "linearize"),
        (allocator, "predicted_distortions"),
        (metrics, "weighted_distortion"),
        (encodesim, "run_first_iteration"),
        (encodesim, "run_iteration"),
    ],
)
def test_scalar_twins_are_gone(module, name):
    """Deleted names stay gone: the scalar twins and the standalone passes."""
    assert name not in lfalloc.__all__
    assert not hasattr(lfalloc, name)
    assert not hasattr(module, name)
