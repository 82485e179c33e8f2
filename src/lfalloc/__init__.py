"""Frame-level bit allocation for light-field pseudo-sequence coding.

A light field is captured as a grid of perspective frames that get
coded as a pseudo-temporal sequence. This package assigns each frame a
bit budget that minimizes confidence-weighted distortion plus a
view-consistency penalty: per-frame power-law rate-distortion models
are fitted from trial compressions, a water-filling step solves the
budgeted minimization in closed form, a damped Newton method on the
budget face refines it against the consistency cone penalty, and an
iterative loop alternates allocation with re-encoding until no
quantizer moves. Metrics (weighted PSNR, discontinuity, average rate difference
between curves) and a CLI round out the pipeline.

`import lfalloc` loads no submodule: each public name is imported from
its defining module the first time it is read, so a program that uses
only the allocator never loads the encode loop.
"""

import importlib

__version__ = "0.1.0"

# Each defining module and the public names it exports.
_EXPORTS = {
    "allocator": (
        "AllocationProblem", "AllocationResult", "ConePenalty", "allocate",
        "build_cone_penalty", "evaluate_cost", "penalized_objective", "project_rates",
        "read_allocation_file", "read_problem_file", "solve_step1", "solve_step2",
        "write_allocation_file", "write_problem_file",
    ),
    "encodesim": (
        "EncoderAdapter", "IterationEntry", "IterationTrace", "MockEncoder",
        "MockEncoderConfig", "MockSetup", "mock_encode", "read_mock_config",
        "read_trace_csv", "run_to_convergence", "trial_sweep", "write_mock_config",
        "write_trace_csv",
    ),
    "errors": (
        "DegenerateWeights", "DomainError", "EncodeFailed", "IncompleteInput",
        "InfeasibleBudget", "InsufficientPoints", "InsufficientSamples", "LfallocError",
        "ModelOutOfRange", "NoOverlap", "NonDecreasingRD", "NotConverged", "ParseError",
    ),
    "lightfield": (
        "FrameCoord", "FrameGrid", "WeightSet", "frame_weight", "proximity",
        "read_weight_map_csv", "spiral_order", "unify_weights",
    ),
    "metrics": (
        "CostBreakdown", "DistortionSet", "RDPoint", "bd_rate", "cost", "read_curve_csv",
        "read_sse_csv", "wpsnr", "write_curve_csv", "write_sse_csv",
    ),
    "rdmodel": (
        "RDModelParams", "RDSample", "eval_model", "fit_power_model", "read_samples_csv",
        "tangent_lines", "write_models_csv", "write_samples_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines a public name on its first read (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Every public name, read or not, so that dir() and help() list them."""
    return sorted({*globals(), *__all__})
