"""Span-recording wrappers installed around lmgvqe from outside the package.

Each ``from .x import y`` inside lmgvqe holds its own reference to ``y``, so
every binding is wrapped separately and all bindings of one function report
under one layer name.  A span is ``(layer, start, end, parent, op)`` with the
parent given as an index into the span list.  The gate functions run tens of
thousands of times per op, so they are counted but get no span of their own;
their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import Counter
from time import perf_counter

MEASURE = "simulator.measure_term"

# (module, attribute, layer) for every binding of a traced function,
# including the top-level lmgvqe names the benchmark calls
SPANNED = (
    ("quasispin", "build_blocks", "quasispin.build_blocks"),
    ("cli", "build_blocks", "quasispin.build_blocks"),
    ("", "build_blocks", "quasispin.build_blocks"),
    ("quasispin", "square_block", "quasispin.square_block"),
    ("cli", "square_block", "quasispin.square_block"),
    ("", "square_block", "quasispin.square_block"),
    ("pauli", "decompose", "pauli.decompose"),
    ("cli", "decompose", "pauli.decompose"),
    ("", "decompose", "pauli.decompose"),
    ("pauli", "multiply", "pauli.multiply"),
    ("estimator", "multiply", "pauli.multiply"),
    ("circuits", "run", "circuits.run"),
    ("estimator", "run", "circuits.run"),
    ("optimizer", "run", "circuits.run"),
    ("circuits", "fold_cnots", "circuits.fold_cnots"),
    ("estimator", "fold_cnots", "circuits.fold_cnots"),
    ("simulator", "measure_term", MEASURE),
    ("estimator", "measure_term", MEASURE),
    ("mitigation", "measure_term", MEASURE),
    ("mitigation", "calibrate", "mitigation.calibrate"),
    ("estimator", "calibrate", "mitigation.calibrate"),
    ("mitigation", "mitigate_counts", "mitigation.mitigate_counts"),
    ("estimator", "mitigate_counts", "mitigation.mitigate_counts"),
    ("mitigation", "cnot_extrapolate", "mitigation.cnot_extrapolate"),
    ("estimator", "cnot_extrapolate", "mitigation.cnot_extrapolate"),
    ("estimator", "estimate", "estimator.estimate"),
    ("optimizer", "estimate", "estimator.estimate"),
    ("", "estimate", "estimator.estimate"),
    ("optimizer", "minimize_variance", "optimizer.minimize_variance"),
    ("cli", "minimize_variance", "optimizer.minimize_variance"),
    ("optimizer", "discover_spectrum", "optimizer.discover_spectrum"),
    ("cli", "discover_spectrum", "optimizer.discover_spectrum"),
    ("", "discover_spectrum", "optimizer.discover_spectrum"),
    ("optimizer", "accidental_zero_check", "optimizer.accidental_zero_check"),
    ("analysis", "eigensolve", "analysis.eigensolve"),
    ("optimizer", "eigensolve", "analysis.eigensolve"),
    ("cli", "eigensolve", "analysis.eigensolve"),
    ("cli", "main", "cli.main"),
)

# counted per binding: "circuits" is circuits.run's own, "simulator" the
# noisy sampler's (which is only ever called inside measure_term)
GATES = tuple(
    (module, attr)
    for module in ("circuits", "simulator")
    for attr in ("apply_single_qubit", "apply_x", "apply_cnot")
)

# lru caches whose lookups ROADMAP item 3 removes
CACHES = (("estimator", "_term_arrays"), ("estimator", "_verify_square_pair"), ("pauli", "_dense"))


def _module(name: str):
    return importlib.import_module(f"lmgvqe.{name}" if name else "lmgvqe")


def cache_totals() -> tuple[int, int]:
    """(hits, misses) summed over CACHES; a cache that no longer exists adds 0."""
    hits = misses = 0
    for module, attr in CACHES:
        cached = getattr(_module(module), attr, None)
        if cached is not None and hasattr(cached, "cache_info"):
            info = cached.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
    return hits, misses


class Tracer:
    """Wraps every binding while active (``with tracer:``) and records spans.

    Set ``op`` before each op; spans recorded while it is negative belong
    to set-up and are left out of the per-op figures.
    """

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.layer_calls: Counter = Counter()  # includes set-up
        self.gates: Counter = Counter()  # binding module -> gate applications
        self.shots: Counter = Counter()  # measure_term binding module -> shots
        self.missing: list[str] = []  # bindings the package no longer has
        self.cache = (0, 0)  # (hits, misses) while active
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for module, attr, layer in SPANNED:
            self._patch(module, attr, lambda f, m=module, l=layer: self._spanned(f, l, m))
        for module, attr in GATES:
            self._patch(module, attr, lambda f, m=module: self._counted(f, m))
        self._cache_start = cache_totals()
        return self

    def __exit__(self, *exc):
        end = cache_totals()
        self.cache = (end[0] - self._cache_start[0], end[1] - self._cache_start[1])
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = _module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _spanned(self, original, layer: str, module: str):
        spans, stack, calls = self.spans, self._stack, self.layer_calls
        signature = inspect.signature(original) if layer == MEASURE else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if signature is not None:
                self.shots[module] += signature.bind(*args, **kwargs).arguments["shots"]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)

        return wrapper

    def _counted(self, original, module: str):
        gates = self.gates

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            gates[module] += 1
            return original(*args, **kwargs)

        return wrapper

    def layers(self) -> dict[str, list]:
        """layer -> [calls, inclusive seconds, self seconds] over op spans.

        Self time is the span minus its direct children; the program is
        single-threaded, so children never overlap one another.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for index, (layer, start, end, parent, op) in enumerate(self.spans):
            if op >= 0:
                entry = totals.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - child[index]
        return totals

    def write(self, out, label: str) -> None:
        for layer, start, end, parent, op in self.spans:
            out.write(f"{label},{layer},{start!r},{end!r},{parent},{op}\n")


def write_spans(path, tracers: dict) -> None:
    """All spans of the given tracers, as gzip CSV with a header row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("pass,layer,start_s,end_s,parent,op\n")
        for label, tracer in tracers.items():
            tracer.write(out, label)
