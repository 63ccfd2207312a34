"""Work counters and spans recorded from the benchmark side of each call.

Nothing under ``src/`` is changed.  :class:`EigenCounter` wraps numpy's
dense eigensolver entry points and is on in every run, traced or not: it
counts the Hermitian matrices handed to LAPACK (a stacked call counts each
matrix it holds) and the flops those calls cost, computed from the matrix
sizes.  :func:`instrument` is for the traced run only: it replaces each
layer's public functions, in every ``specflow`` module that bound them, with
wrappers that record one span per call into a :class:`Tracer`.
"""

from __future__ import annotations

import math
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

NO_PARENT = -1


def eig_flops(n: int, complex_entries: bool, vectors: bool) -> float:
    """Computed flop count of one dense Hermitian eigensolve of size ``n``.

    Householder tridiagonalisation dominates when only eigenvalues are
    wanted: 4/3 n^3 real flops, four times that in complex arithmetic.
    Eigenvectors roughly triple it.  These are textbook counts, not
    measurements.
    """
    flops = 4.0 / 3.0 * n**3
    if complex_entries:
        flops *= 4.0
    if vectors:
        flops *= 3.0
    return flops


class EigenCounter:
    """Counts matrices handed to ``numpy.linalg.eigvalsh``/``eigh``."""

    _ENTRY_POINTS = (("eigvalsh", False), ("eigh", True))

    def __init__(self):
        self.matrices = 0
        # (size, complex entries, eigenvectors) -> matrices; flops come from it.
        self.by_kind: dict[tuple[int, bool, bool], int] = {}
        self._originals = {}

    def install(self) -> None:
        for name, vectors in self._ENTRY_POINTS:
            original = getattr(np.linalg, name)
            self._originals[name] = original
            setattr(np.linalg, name, self._wrap(original, vectors))

    def _wrap(self, original, vectors: bool):
        def counted(a, *args, **kwargs):
            arr = a if isinstance(a, np.ndarray) else np.asarray(a)
            stacked = 1 if arr.ndim == 2 else math.prod(arr.shape[:-2])
            self.matrices += stacked
            kind = (arr.shape[-1], arr.dtype.kind == "c", vectors)
            self.by_kind[kind] = self.by_kind.get(kind, 0) + stacked
            return original(a, *args, **kwargs)

        counted.__wrapped__ = original
        return counted

    @property
    def flops(self) -> float:
        return sum(count * eig_flops(*kind) for kind, count in self.by_kind.items())

    def original(self, name: str):
        """The uncounted entry point, for the benchmark's own checks."""
        return self._originals.get(name, getattr(np.linalg, name))


class Tracer:
    """In-memory span store: name, start, end, parent span and item id.

    Spans nest strictly because the program is single-threaded, so a
    span's self time is its duration minus the durations of its direct
    children.  Columns are kept in compact arrays and turned into numpy
    arrays only when the run ends.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.current = NO_PARENT
        self.item_id = -1
        self.counts: Counter = Counter()
        # Nesting depth inside oracle / components spans, so that calls
        # below them can be attributed while they happen.
        self.in_oracle = 0
        self.in_components = 0
        self.live_cache_bytes = 0
        self.peak_cache_bytes = 0
        self._live_arrays: set[int] = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self.current)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records a span called ``name``."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if self.item_id < 0:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def track_cached(self, entries: np.ndarray) -> None:
        """Account for a matrix that a path cache now holds, until it dies."""
        key = id(entries)
        if key in self._live_arrays:
            return
        self._live_arrays.add(key)
        self.live_cache_bytes += entries.nbytes
        self.peak_cache_bytes = max(self.peak_cache_bytes, self.live_cache_bytes)
        weakref.finalize(entries, self._release, key, entries.nbytes)

    def _release(self, key: int, nbytes: int) -> None:
        self._live_arrays.discard(key)
        self.live_cache_bytes -= nbytes

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "item": np.frombuffer(self.item, dtype=np.int64).copy(),
        }

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time and call count."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        n = len(self.names)
        total = np.bincount(cols["name"], weights=dur, minlength=n)
        selfs = np.bincount(cols["name"], weights=self_time, minlength=n)
        calls = np.bincount(cols["name"], minlength=n)
        return (
            {name: float(total[i]) for i, name in enumerate(self.names)},
            {name: float(selfs[i]) for i, name in enumerate(self.names)},
            {name: int(calls[i]) for i, name in enumerate(self.names)},
        )

    def save(self, target) -> None:
        np.savez(target, names=np.array(self.names), **self.columns())


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded specflow module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "specflow" or modname.startswith("specflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# Public functions traced per layer, as (module, attribute, span name).
_FUNCTION_SPANS = (
    ("families", "baer_family", "families.build"),
    ("families", "circle_family", "families.build"),
    ("families", "random_family", "families.build"),
    ("families", "invertible_valued_family", "families.build"),
    ("gluing", "glue", "gluing.build"),
    ("components", "default_component_setup", "components.setup"),
    ("components", "build_distinct_paths", "components.build"),
    ("components", "certify_distinct_components", "components.certify"),
    ("config", "load_config_file", "config.load"),
    ("config", "validate_config", "config.validate"),
    ("config", "build_family_path", "config.build"),
    ("reporting", "flow_certificate_document", "reporting.document"),
    ("reporting", "component_report_document", "reporting.document"),
    ("reporting", "validate_document", "reporting.validate"),
    ("reporting", "dumps_document", "reporting.dumps"),
    ("cli", "main", "cli.main"),
    # The eigensolve boundary inside operators: the one place a spectrum is
    # computed, reached through the public ``SelfAdjointOperator.spectrum``.
    ("operators", "_solve_spectrum", "operators.eigensolve"),
)


def instrument(tracer: Tracer) -> None:
    """Install span-recording wrappers on every traced layer boundary."""
    import importlib

    mods = {
        name: importlib.import_module(f"specflow.{name}")
        for name in ("operators", "paths", "flow", "oracle", "families", "gluing",
                     "components", "config", "reporting", "cli")
    }
    for modname, attr, span_name in _FUNCTION_SPANS:
        original = getattr(mods[modname], attr)
        _replace_everywhere(original, tracer.span(span_name, original))

    _instrument_flow(tracer, mods["flow"])
    _instrument_oracle(tracer, mods["oracle"])
    _instrument_components_counts(tracer, mods["components"])
    _instrument_operators(tracer, mods["operators"])
    _instrument_paths(tracer, mods["paths"])


def _instrument_flow(tracer: Tracer, flow_mod) -> None:
    original = flow_mod.spectral_flow
    nid = tracer.name_id("flow.spectral_flow")

    def spectral_flow(path, options=None, init_samples=None, max_depth=None):
        if tracer.item_id < 0:
            return original(path, options, init_samples, max_depth)
        if tracer.in_components:
            tracer.counts["components.flow_calls"] += 1
        idx = tracer.open(nid)
        try:
            cert = original(path, options, init_samples, max_depth)
        finally:
            tracer.close(idx)
        segments = len(cert.witnesses)
        roots = cert.options.init_samples
        tracer.counts["flow.flows"] += 1
        tracer.counts["flow.segments"] += segments
        # Every bisection replaces one segment by two, so leaves = roots + bisections.
        tracer.counts["flow.bisections"] += segments - roots
        widest = 1.0 / roots
        depth = max(round(np.log2(widest / (w.t_upper - w.t_lower))) for w in cert.witnesses)
        tracer.counts["flow.max_depth"] = max(tracer.counts["flow.max_depth"], int(depth))
        return cert

    spectral_flow.__wrapped__ = original
    _replace_everywhere(original, spectral_flow)


def _instrument_oracle(tracer: Tracer, oracle_mod) -> None:
    original = oracle_mod.oracle_flow
    nid = tracer.name_id("oracle.oracle_flow")

    def oracle_flow(*args, **kwargs):
        if tracer.item_id < 0:
            return original(*args, **kwargs)
        if not tracer.in_oracle:
            tracer.counts["oracle.calls"] += 1
        tracer.in_oracle += 1
        idx = tracer.open(nid)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.in_oracle -= 1

    oracle_flow.__wrapped__ = original
    _replace_everywhere(original, oracle_flow)


def _instrument_components_counts(tracer: Tracer, comp_mod) -> None:
    # Wrap the already-traced entry points once more to mark "inside components".
    for attr in ("build_distinct_paths", "certify_distinct_components"):
        traced = getattr(comp_mod, attr)

        def marked(*args, _fn=traced, **kwargs):
            tracer.in_components += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                tracer.in_components -= 1

        marked.__wrapped__ = traced
        _replace_everywhere(traced, marked)


def _instrument_operators(tracer: Tracer, ops_mod) -> None:
    cls = ops_mod.SelfAdjointOperator
    original_init = cls.__init__
    nid = tracer.name_id("operators.ingest")

    def __init__(self, entries):
        if tracer.item_id < 0:
            return original_init(self, entries)
        idx = tracer.open(nid)
        try:
            original_init(self, entries)
        finally:
            tracer.close(idx)

    cls.__init__ = __init__


def _instrument_paths(tracer: Tracer, paths_mod) -> None:
    cls = paths_mod.OperatorPath
    original_init = cls.__init__
    original_at = cls.at
    eval_span = tracer.name_id("paths.eval")
    at_span = tracer.name_id("paths.at")

    def __init__(self, dim, evaluator, lipschitz=None):
        def traced_evaluator(t):
            if tracer.item_id < 0:
                return evaluator(t)
            idx = tracer.open(eval_span)
            try:
                return evaluator(t)
            finally:
                tracer.close(idx)

        original_init(self, dim, traced_evaluator, lipschitz)

    def at(self, t):
        if tracer.item_id < 0:
            return original_at(self, t)
        tracer.counts["paths.at_calls"] += 1
        if tracer.in_oracle:
            tracer.counts["oracle.evals"] += 1
        cached = len(self._cache)
        idx = tracer.open(at_span)
        try:
            op = original_at(self, t)
        finally:
            tracer.close(idx)
        if len(self._cache) == cached:
            tracer.counts["paths.cache_hits"] += 1
        else:
            tracer.track_cached(op.entries)
        return op

    cls.__init__ = __init__
    cls.at = at
    cls.__call__ = at
