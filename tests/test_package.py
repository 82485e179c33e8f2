"""The package's public names."""

import re
from pathlib import Path

import pytest

import lfalloc
from lfalloc import allocator, encodesim, errors, lightfield, metrics, rdmodel

ROOT = Path(__file__).resolve().parent.parent

# Exported names that only tests call. The writers stay because they write
# the formats that `bdrate`, `fit` and `metrics` read, and the fuzz test
# draws its inputs from them.
TEST_ONLY_WRITERS = {"write_curve_csv", "write_samples_csv", "write_sse_csv"}


def test_every_exported_name_resolves():
    assert len(set(lfalloc.__all__)) == len(lfalloc.__all__)
    for name in lfalloc.__all__:
        assert hasattr(lfalloc, name), name


def test_every_exported_name_is_used_outside_tests():
    """Each exported name is referenced by the package's other modules, a
    demo or the benchmark, on a line other than its own def or class."""
    sources = [p for p in (ROOT / "src" / "lfalloc").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    text = "\n".join(path.read_text() for path in sources)
    unreached = [
        name
        for name in lfalloc.__all__
        if name not in TEST_ONLY_WRITERS
        and not re.search(rf"^(?!\s*(?:def|class) {name}\b).*\b{name}\b", text, re.M)
    ]
    assert unreached == []


@pytest.mark.parametrize(
    "module, name",
    [
        (rdmodel, "LinearizedRD"),
        (rdmodel, "linearize"),
        (allocator, "predicted_distortions"),
        (metrics, "weighted_distortion"),
        (encodesim, "run_first_iteration"),
        (encodesim, "run_iteration"),
        (metrics, "compute_sse"),
        (lightfield, "read_weight_pgm"),
        (lightfield, "read_frame_grid"),
        (lightfield, "write_frame_grid"),
        (rdmodel, "read_models_csv"),
        (lightfield, "PixelFrame"),
        (errors, "ShapeMismatch"),
        (errors, "WeightChannelAbsent"),
    ],
)
def test_scalar_twins_are_gone(module, name):
    """Deleted names stay gone: the scalar twins, the standalone passes, and
    the readers, pixel frame and errors that only tests reached."""
    assert name not in lfalloc.__all__
    assert not hasattr(lfalloc, name)
    assert not hasattr(module, name)
