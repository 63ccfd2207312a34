"""Operator paths over [0, 1] and the algebra on them.

A path is an immutable wrapper around one vectorized ``build`` that maps
an array of parameters to one stack: dense matrices ``(n, d, d)`` or
diagonal rows ``(n, d)``.  ``at(t)`` builds the operator at one parameter
and caches nothing.  ``spectra(ts)`` is the cached read: the path's one
cache maps each parameter to its sorted eigenvalue row, solved a stacked
chunk at a time, so partition refinement, which revisits segment
endpoints, reuses rows and no per-parameter object is built.  Paths that
only reparametrize others (``concat``, ``reverse``, ``reparametrize``,
``constant_path``, the end slices of a homotopy and sampled config paths)
read their rows from their parts' caches, so a row is solved once per
base path.  ``add`` and interior homotopy slices combine their parts'
stacks built at the same parameters; no path builds from another path's
``at``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import EndpointMismatch
from .operators import (
    SelfAdjointOperator,
    _common_kind,
    _ingest_diagonal,
    _ingest_stack,
    _spectrum_rows,
    stack_chunk,
)

__all__ = [
    "OperatorPath",
    "Homotopy",
    "matrix_path",
    "constant_path",
    "straight_segment",
    "concat",
    "add",
    "reverse",
    "affine_homotopy",
    "reparametrize",
    "ENDPOINT_RTOL",
]

# Relative tolerance for endpoint agreement in concat/affine_homotopy;
# loose enough that file round-trips never break composability.
ENDPOINT_RTOL = 1e-10


def _params(ts) -> list[float]:
    arr = np.asarray(ts, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"path parameters must be a 1-d sequence, got shape {arr.shape}")
    outside = ~((arr >= 0.0) & (arr <= 1.0))
    if outside.any():
        raise ValueError(f"path parameter {float(arr[outside][0])!r} outside [0, 1]")
    return arr.tolist()


class OperatorPath:
    """Continuous family ``t -> SelfAdjointOperator`` on [0, 1].

    ``build`` maps a 1-d float64 array of ``n`` distinct parameters to one
    array: ``n`` dense matrices ``(n, dim, dim)`` or ``n`` real diagonals
    ``(n, dim)``.  The path checks every array it builds: matrices pass the
    ingest of :class:`SelfAdjointOperator`, diagonals must be finite, and an
    error names the offending parameter.  The values at ``t`` must not
    depend on which other parameters share its batch, down to the last bit;
    a row is then a function of its matrix's values, whatever its batch,
    its dtype or the path that built it.  A function of one parameter goes
    through :func:`matrix_path`.

    :meth:`at` builds an operator and keeps nothing; :meth:`spectra` caches
    one read-only row of ``dim`` sorted eigenvalues per parameter, never a
    matrix, so a path holds ``8 * dim`` bytes per parameter it has solved.

    ``lipschitz`` is an optional bound L on the operator norm of the
    derivative; ``None`` means unknown.  Certification relies on it: a
    segment whose window margin does not exceed ``0.5 * L * step``
    (``step`` being the witness spacing) is rejected, and a margin above it
    proves the count constant between witnesses.  A bound that is too
    small makes certificates unsound.
    """

    __slots__ = ("_dim", "_build", "_lipschitz", "_cache")

    def __init__(
        self,
        dim: int,
        build: Callable[[np.ndarray], np.ndarray],
        lipschitz: float | None = None,
    ):
        if dim < 1:
            raise ValueError("path dimension must be at least 1")
        self._dim = int(dim)
        self._build = build
        self._lipschitz = None if lipschitz is None else float(lipschitz)
        self._cache: dict[float, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def lipschitz(self) -> float | None:
        return self._lipschitz

    def at(self, t: float) -> SelfAdjointOperator:
        """Build the operator at parameter ``t`` in [0, 1]: a batch of one, not cached."""
        return SelfAdjointOperator._checked(self._build_chunk(_params([t]))[0])

    def _build_chunk(self, chunk) -> np.ndarray:
        """One checked call of ``build``; ``chunk`` is not range-checked (composites' parts)."""
        return _checked_build(self._build(np.array(chunk, dtype=np.float64)), chunk, self._dim)

    def spectra(self, ts) -> np.ndarray:
        """Sorted eigenvalues ``(len(ts), dim)`` at every parameter in ``ts``.

        Row ``i`` is bit-for-bit ``self.at(ts[i]).spectrum``.  Rows
        come from the path's cache; missing ones are built and solved a
        stacked chunk at a time, and only the rows are kept.
        """
        rows = self._rows(_params(ts))
        return np.array(rows) if rows else np.empty((0, self._dim))

    def _rows(self, keys: list[float]) -> list[np.ndarray]:
        """The cached row at every parameter in ``keys``, filling misses first.

        ``keys`` are not range-checked: a sampled path's end intervals reach
        a rounding past 0 and 1.
        """
        cache = self._cache
        missing = list(dict.fromkeys(t for t in keys if t not in cache))
        if missing:
            self._solve(missing)
        return [cache[t] for t in keys]

    def _solve(self, ts: list[float]) -> None:
        """Cache the rows at ``ts``: build and solve a chunk at a time, keep only the rows."""
        step = stack_chunk(self._dim)
        for i in range(0, len(ts), step):
            chunk = ts[i : i + step]
            self._cache.update(zip(chunk, _spectrum_rows(self._build_chunk(chunk))))

    def __repr__(self) -> str:
        return f"OperatorPath(dim={self._dim})"


def _checked_build(built, chunk, d: int) -> np.ndarray:
    """The stack a build returned for the parameters in ``chunk``, ingested and shape-checked."""
    n = len(chunk)
    built = np.asarray(built)
    if built.shape[:1] == (n,) and built.ndim in (2, 3):
        built = (_ingest_stack if built.ndim == 3 else _ingest_diagonal)(built, chunk)
    if built.shape not in ((n, d, d), (n, d)):
        raise ValueError(
            f"path build returned shape {built.shape} for {n} parameters of dimension {d}"
        )
    return built


def _assemble(n: int, parts: list) -> np.ndarray:
    """One stack of ``n`` entries from ``(idx, stack)`` parts: ``stack[k]`` is entry ``idx[k]``.

    The parts take their common kind (:func:`operators._common_kind`) and
    their common dtype.
    """
    stacks = _common_kind(*(stack for _, stack in parts))
    out = np.empty((n, *stacks[0].shape[1:]), dtype=np.result_type(*stacks))
    for (idx, _), stack in zip(parts, stacks):
        out[idx] = stack
    return out


class _Reparametrized(OperatorPath):
    """A path whose value at each parameter is one of its parts' values.

    ``route(ts)`` lists ``(part, idx, us)`` triples: the path at ``ts[idx]``
    is ``part`` at ``us``.  A build assembles the parts' stacks; rows are
    the parts' cached rows, so a composite solves nothing its parts have
    solved and a cache hit is one lookup in its own dict.
    """

    __slots__ = ("_route",)

    def __init__(self, dim: int, route, lipschitz: float | None):
        def build(ts: np.ndarray) -> np.ndarray:
            parts = [(idx, part._build_chunk(us)) for part, idx, us in route(ts) if len(idx)]
            return _assemble(ts.size, parts)

        # Positional: bench/tracing.py wraps __init__(self, dim, build, lipschitz=None).
        super().__init__(dim, build, lipschitz)
        self._route = route

    def _solve(self, ts: list[float]) -> None:
        for part, idx, us in self._route(np.array(ts)):
            rows = part._rows(np.asarray(us, dtype=np.float64).tolist())
            for i, row in zip(idx, rows):
                self._cache[ts[i]] = row


def _matrix_stack(mats: list) -> np.ndarray:
    """One dense stack of the matrices a :func:`matrix_path` function returned."""
    stack = np.array(mats)
    if stack.ndim != 3:  # vectors would pass as diagonal rows
        shape = stack.shape[1:]
        raise ValueError(f"operator entries must be a square matrix, got shape {shape}")
    return stack


def matrix_path(
    dim: int,
    fn: Callable[[float], np.ndarray],
    lipschitz: float | None = None,
) -> OperatorPath:
    """Path from a function returning raw Hermitian matrices.

    ``fn`` is called once per parameter and its matrices are ingested as
    one stack; an ingest error names the parameter.
    """
    return OperatorPath(dim, lambda ts: _matrix_stack([fn(t) for t in ts.tolist()]), lipschitz)


def constant_path(op: SelfAdjointOperator) -> OperatorPath:
    """The path ``t -> op``: every parameter reads one cached row, solved once."""
    stack = op._stack
    point = OperatorPath(op.dim, lambda ts: np.broadcast_to(stack, (ts.size, *stack.shape[1:])))
    return _Reparametrized(op.dim, _whole(point, np.zeros_like), lipschitz=0.0)


def _blend(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The stack ``(1 - w) x + w y``, one entry per weight in ``w``.

    ``x`` and ``y`` are checked stacks of one kind, with one entry per
    weight or one for all of them; two diagonal stacks blend on their
    diagonals.
    """
    wd = w.reshape(w.shape + (1,) * (x.ndim - 1))
    return (1.0 - wd) * x + wd * y


class _Segment(OperatorPath):
    """The path ``t -> (1-t) a + t b``, keeping its endpoint stacks for :func:`_segment_rows`."""

    __slots__ = ("_ends",)

    def __init__(self, x: np.ndarray, y: np.ndarray, lipschitz: float):
        # Positional: bench/tracing.py wraps __init__(self, dim, build, lipschitz=None).
        super().__init__(x.shape[1], lambda ts: _blend(ts, x, y), lipschitz)
        self._ends = (x, y)


def straight_segment(a: SelfAdjointOperator, b: SelfAdjointOperator) -> OperatorPath:
    """Affine segment ``t -> (1-t) a + t b`` in the convex operator space.

    Diagonal endpoints give a segment of diagonal operators, mixed ones a
    dense segment.  The bound is the operator norm of ``b - a``.
    """
    if a.dim != b.dim:
        raise EndpointMismatch(f"segment endpoints have dims {a.dim} and {b.dim}")
    x, y = _common_kind(a._stack, b._stack)
    return _Segment(x, y, float(np.linalg.norm(b.entries - a.entries, 2)))


def _segment_rows(segments: list[_Segment], ts: list[float]) -> list[np.ndarray]:
    """The row of ``segments[k]`` at ``ts[k]`` for every ``k``: one stacked read.

    Cached rows are read as they are.  The misses are grouped by dimension
    and by the kind of their ends (one per segment), and each group is
    blended, ingested and solved a ``stack_chunk`` at a time.  A row so has
    the bits of ``segments[k].spectra([ts[k]])``: a diagonal row is never
    solved as dense, and a row depends on its matrix alone.  Every row is cached.
    """
    groups: dict[tuple, list[int]] = {}
    for k, (seg, t) in enumerate(zip(segments, ts)):
        if t not in seg._cache:
            groups.setdefault((seg.dim, seg._ends[0].ndim), []).append(k)
    for (dim, _), members in groups.items():
        step = stack_chunk(dim)
        for i in range(0, len(members), step):
            chunk = members[i : i + step]
            ws = [ts[k] for k in chunk]
            x, y = (np.concatenate(side) for side in zip(*(segments[k]._ends for k in chunk)))
            built = _checked_build(_blend(np.array(ws), x, y), ws, dim)
            for k, w, row in zip(chunk, ws, _spectrum_rows(built)):
                segments[k]._cache[w] = row
    return [seg._cache[t] for seg, t in zip(segments, ts)]


def _endpoint_gap(x: SelfAdjointOperator, y: SelfAdjointOperator) -> str | None:
    """Why ``y`` differs from ``x`` beyond ``ENDPOINT_RTOL``, or ``None`` if it agrees."""
    ex, ey = _common_kind(x._stack, y._stack)
    diff, scale = float(np.abs(ex - ey).max()), float(np.abs(ex).max())
    if diff > ENDPOINT_RTOL * scale:
        return f"max entry gap {diff:.3e} exceeds {ENDPOINT_RTOL:.0e} * {scale:.3e}"
    return None


def _composite_lipschitz(combine, a: OperatorPath, b: OperatorPath) -> float | None:
    """``combine`` of the two path bounds (concat, slices, add); unknown if either is unknown."""
    if a.lipschitz is None or b.lipschitz is None:
        return None
    return combine(a.lipschitz, b.lipschitz)


def concat(a: OperatorPath, b: OperatorPath) -> OperatorPath:
    """Concatenate ``a`` then ``b`` with midpoint reparametrization.

    Requires ``a(1) == b(0)`` up to ``ENDPOINT_RTOL`` relative to the
    junction norm.  The flow is reparametrization invariant, so the
    midpoint split is immaterial.
    """
    if a.dim != b.dim:
        raise EndpointMismatch(f"cannot concatenate paths of dims {a.dim} and {b.dim}")
    gap = _endpoint_gap(a.at(1.0), b.at(0.0))
    if gap is not None:
        raise EndpointMismatch(f"a(1) != b(0): {gap}")

    def route(ts: np.ndarray):
        first = ts <= 0.5
        return [
            (a, np.flatnonzero(first).tolist(), np.minimum(1.0, 2.0 * ts[first])),
            (b, np.flatnonzero(~first).tolist(), np.minimum(1.0, 2.0 * ts[~first] - 1.0)),
        ]

    return _Reparametrized(a.dim, route, _composite_lipschitz(lambda p, q: 2.0 * max(p, q), a, b))


def _whole(a: OperatorPath, warp: Callable[[np.ndarray], np.ndarray]):
    """The route reading every parameter ``t`` off ``a`` at ``warp(ts)``."""
    return lambda ts: [(a, range(ts.size), warp(ts))]


def reverse(a: OperatorPath) -> OperatorPath:
    """Time-reversed path ``t -> a(1-t)``."""
    return _Reparametrized(a.dim, _whole(a, lambda ts: 1.0 - ts), a.lipschitz)


def _pointwise(a: OperatorPath, b: OperatorPath, combine, lipschitz) -> OperatorPath:
    """The path ``t -> combine(x, y)``, ``x`` and ``y`` being ``a``'s and ``b``'s checked stacks.

    Both parts build at the same parameters and combine in their common
    kind (:func:`operators._common_kind`), so two diagonal stacks combine
    on their diagonals.
    """

    def build(ts: np.ndarray) -> np.ndarray:
        keys = ts.tolist()
        return combine(*_common_kind(a._build_chunk(keys), b._build_chunk(keys)))

    return OperatorPath(a.dim, build, lipschitz)


def add(a: OperatorPath, b: OperatorPath) -> OperatorPath:
    """Pointwise sum ``t -> a(t) + b(t)``, bounded by the sum of the two bounds.

    The bound is unknown when either part's is.  The sum of two diagonal
    paths is diagonal.
    """
    if a.dim != b.dim:
        raise EndpointMismatch(f"cannot add paths of dims {a.dim} and {b.dim}")
    return _pointwise(a, b, np.add, _composite_lipschitz(lambda p, q: p + q, a, b))


class Homotopy:
    """Straight-line homotopy ``H(s, t) = (1-s) a(t) + s b(t)`` on [0, 1]^2.

    ``a`` and ``b`` must have one dimension and share both endpoints (the
    homotopy fixes them in ``s``), which is what the convex parameter
    space guarantees exists; construction checks both and raises
    :class:`EndpointMismatch`.  Read it through :meth:`slice_at`.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: OperatorPath, b: OperatorPath):
        if a.dim != b.dim:
            raise EndpointMismatch(f"cannot blend paths of dims {a.dim} and {b.dim}")
        for t in (0.0, 1.0):
            gap = _endpoint_gap(a.at(t), b.at(t))
            if gap is not None:
                raise EndpointMismatch(f"paths disagree at t={t}: {gap}")
        self._a, self._b = a, b

    @property
    def dim(self) -> int:
        return self._a.dim

    def slice_at(self, s: float) -> OperatorPath:
        """The path ``t -> H(s, t)``: ``a`` at s=0, ``b`` at s=1, a blend between.

        The end slices read ``a``'s and ``b``'s rows.  An interior slice
        blends the two paths' stacks built at the same parameters, by the
        builder :func:`add` uses, so slices of two diagonal paths are
        diagonal.  The slice bound is the larger path bound, ``None`` when
        either is unknown.
        """
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"slice parameter {s!r} outside [0, 1]")
        a, b = self._a, self._b
        lip = _composite_lipschitz(max, a, b)
        if s in (0.0, 1.0):
            return _Reparametrized(a.dim, _whole(b if s else a, lambda ts: ts), lip)
        return _pointwise(a, b, lambda x, y: _blend(np.full(len(x), s), x, y), lip)


def affine_homotopy(a: OperatorPath, b: OperatorPath) -> Homotopy:
    """The straight-line :class:`Homotopy` from ``a`` to ``b``."""
    return Homotopy(a, b)


def reparametrize(
    a: OperatorPath,
    phi: Callable[[float], float],
    lipschitz: float | None = None,
) -> OperatorPath:
    """Precompose with a monotone bijection ``phi`` of [0, 1].

    ``phi`` must fix the endpoints and be finite wherever it is evaluated;
    a violation raises ``ValueError`` naming the parameter.  Values are
    clipped to [0, 1] to guard against rounding at the edges.  ``phi`` is
    opaque here, so a bound on the composite (``a.lipschitz`` times the
    slope bound of ``phi``) must be supplied by the caller if
    certification is to stay rigorous.
    """
    for t, expect in ((0.0, 0.0), (1.0, 1.0)):
        u = float(phi(t))
        if not abs(u - expect) <= 1e-12:
            raise ValueError(f"phi({t}) = {u!r}, expected {expect}")

    def warp(t: float) -> float:
        u = float(phi(t))
        if not np.isfinite(u):
            raise ValueError(f"phi({t!r}) = {u!r} is not finite")
        return min(1.0, max(0.0, u))

    return _Reparametrized(a.dim, _whole(a, lambda ts: [warp(t) for t in ts.tolist()]), lipschitz)
