"""Instrumentation the benchmark wraps around the library from outside.

Tracer replaces each public function of the traced modules at every module
attribute that a caller resolves, so names bound with `from .x import y`
are covered too, and records one span per call in memory. EncoderLedger
counts encoder calls at the EncoderAdapter seam. Nothing in the library
is edited; both are undone on exit.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter
from contextlib import contextmanager

from lfalloc import allocator, cli, encodesim, lightfield, metrics, rdmodel
from lfalloc.errors import NotConverged

TRACED_MODULES = (cli, allocator, rdmodel, lightfield, metrics, encodesim)

# Hot leaf functions are counted, not spanned; their time stays in the caller.
COUNT_ONLY = {"lightfield.proximity", "rdmodel.eval_model", "rdmodel.linearize"}
# Called only through proximity; wrapping it would double that overhead.
UNTRACED = {"lightfield.l1_distance"}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _observe(name: str, result, counts: Counter) -> None:
    """Counters read off return values."""
    if name in ("allocator.solve_step1", "allocator.solve_step2"):
        counts[f"{name}.iterations"] += result.iterations
    elif name == "allocator.build_cone_penalty":
        counts[f"{name}.rows"] += len(result.rhs)


class Tracer:
    """Spans (name, start, end, parent, op) plus call counters, kept in memory.

    Set `op` before each operation; swap `counts` to keep counters apart.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn):
        name = _span_name(fn)
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[f"{name}.calls"] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = self.counts
            counts[f"{name}.calls"] += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NotConverged as exc:
                counts[f"{name}.not_converged"] += 1
                _observe(name, exc.result, counts)
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            _observe(name, result, counts)
            return result

        return traced

    @contextmanager
    def installed(self):
        wrapped = {}
        patched = []
        for module in TRACED_MODULES:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("lfalloc.") or _span_name(obj) in UNTRACED:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj)
                patched.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent},{op}\n")


class EncoderLedger:
    """Encoder calls of one simulate run, split by role.

    trial: inside trial_sweep. search: outside a sweep, before the frame's
    sweep (the first pass's quantizer search). committed: outside a sweep,
    after it. A repeat is a call whose (coord, qp, ref_state) already
    occurred in the same pass; passes start at initial_reference().
    repeats_any_pass also counts triples first seen in an earlier pass.
    """

    def __init__(self):
        self.trial = self.search = self.committed = self.repeats = self.repeats_any_pass = 0
        self._in_sweep = False
        self._swept = False
        self._seen: set = set()
        self._seen_any_pass: set = set()

    @property
    def calls(self) -> int:
        return self.trial + self.search + self.committed

    def as_tuple(self) -> tuple[int, ...]:
        return self.trial, self.search, self.committed, self.repeats, self.repeats_any_pass

    def _record(self, coord, qp, ref_state) -> None:
        key = (coord, qp, ref_state)
        self.repeats += key in self._seen
        self.repeats_any_pass += key in self._seen_any_pass
        self._seen.add(key)
        self._seen_any_pass.add(key)
        if self._in_sweep:
            self.trial += 1
            self._swept = True
        elif self._swept:
            self.committed += 1
        else:
            self.search += 1

    @contextmanager
    def installed(self):
        """Route `lfalloc simulate` through a counting MockEncoder subclass."""
        ledger = self
        mock_encoder = encodesim.MockEncoder
        trial_sweep = encodesim.trial_sweep

        class CountingEncoder(mock_encoder):
            def initial_reference(self):
                ledger._seen = set()
                ledger._swept = False
                return super().initial_reference()

            def advance_reference(self, ref_state, rate, sse):
                ledger._swept = False
                return super().advance_reference(ref_state, rate, sse)

            def encode_frame(self, coord, qp, ref_state):
                ledger._record(coord, qp, ref_state)
                return super().encode_frame(coord, qp, ref_state)

        @functools.wraps(trial_sweep)
        def sweep(*args, **kwargs):
            ledger._in_sweep = True
            try:
                return trial_sweep(*args, **kwargs)
            finally:
                ledger._in_sweep = False

        encodesim.MockEncoder = CountingEncoder
        encodesim.trial_sweep = sweep
        try:
            yield self
        finally:
            encodesim.MockEncoder = mock_encoder
            encodesim.trial_sweep = trial_sweep
