"""The package's public names."""

import ast
import textwrap
import warnings
from pathlib import Path

import pytest

import lfalloc
from lfalloc import allocator, encodesim, errors, lightfield, metrics, rdmodel
from test_cli import run_python

ROOT = Path(__file__).resolve().parent.parent

# Exported names that only tests call. The writers stay because they write
# the formats that `bdrate`, `fit` and `metrics` read, and the fuzz test
# draws its inputs from them.
TEST_ONLY_WRITERS = {"write_curve_csv", "write_samples_csv", "write_sse_csv"}


def test_readme_quickstart_runs_without_warnings(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})
    rates, total = capsys.readouterr().out.splitlines()
    assert rates.startswith("{") and float(total) > 0.0


def test_every_exported_name_resolves():
    assert len(set(lfalloc.__all__)) == len(lfalloc.__all__)
    for name in lfalloc.__all__:
        assert hasattr(lfalloc, name), name


def test_dir_lists_every_exported_name():
    assert set(lfalloc.__all__) <= set(dir(lfalloc))


def run_fresh(code: str) -> None:
    """Run code in a fresh interpreter under `-W error`, with the package on
    the path; it fails by raising."""
    done = run_python(ROOT, "-c", textwrap.dedent(code))
    assert done.returncode == 0, done.stderr


def test_import_loads_no_submodule_and_each_name_is_its_modules_own():
    run_fresh(
        """
        import sys
        import lfalloc
        assert not [m for m in sys.modules if m.startswith("lfalloc.")]
        for name in lfalloc.__all__:
            value = getattr(lfalloc, name)
            assert value.__module__.startswith("lfalloc."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
        """
    )


def test_star_import_binds_every_exported_name():
    run_fresh(
        """
        import lfalloc
        names = {}
        exec("from lfalloc import *", names)
        del names["__builtins__"]
        assert sorted(names) == lfalloc.__all__, sorted(names)
        assert all(value is getattr(lfalloc, name) for name, value in names.items())
        """
    )


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lfalloc.no_such_name


def code_references(path: Path) -> set[str]:
    """Names that path's code uses: loaded names, imported names, and
    attributes of an lfalloc module. Prose, definitions and attributes of
    other objects do not count."""
    modules = {"lfalloc", *(p.stem for p in (ROOT / "src" / "lfalloc").glob("*.py"))}
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_outside_tests():
    """Each exported name is used by the code of the package's other
    modules, a demo or the benchmark."""
    sources = [p for p in (ROOT / "src" / "lfalloc").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(code_references, sources))
    unreached = [name for name in lfalloc.__all__ if name not in used | TEST_ONLY_WRITERS]
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
        (metrics, "discontinuity"),
        (allocator, "MAJORIZER_STEP"),
        (encodesim, "_one_encode"),
        (encodesim, "_carried_fit"),
        (encodesim, "_searched"),
        (encodesim, "_EncodeCache"),
        (encodesim, "_allocate"),
        (allocator, "ZERO_RESIDUAL"),
        (lightfield, "l1_distance"),
        (metrics, "_aligned"),
        (allocator, "_predicted_sse"),
        (encodesim, "trace_to_parsed"),
        (encodesim, "last_iteration_distortions"),
    ],
)
def test_scalar_twins_are_gone(module, name):
    """Deleted names stay gone: the scalar twins, the standalone passes, the
    readers, pixel frame, errors and metric that only tests reached,
    step 2's majorizer retry length, the loop's three commit helpers that
    one commit rule replaced, the loop's encode cache and allocate
    wrapper, replaced by a functools.cache memo and by anticipation, step
    2's second rounding tolerance, which ROUNDING replaced, the trace
    writer's conversion to the parsed form, which only tests passed it, and
    the helpers with one caller that were folded into it."""
    assert name not in lfalloc.__all__
    assert not hasattr(lfalloc, name)
    assert not hasattr(module, name)
