"""Operator paths over [0, 1] and the algebra on them.

A path is an immutable wrapper around one vectorized ``build`` that maps
an array of parameters to one stack: dense matrices ``(n, d, d)`` or
diagonal rows ``(n, d)``.  ``at(t)`` builds the operator at one parameter
and caches nothing.  ``spectra(ts)`` is the cached read: the path's one
cache maps each parameter to its sorted eigenvalue row, solved a stacked
chunk at a time, so partition refinement, which revisits segment
endpoints, reuses rows and no per-parameter object is built.  Paths that
only reparametrize others (``concat``, ``reverse``, ``reparametrize``,
``constant_path`` and sampled config paths) read their rows from their
parts' caches, so a row is solved once per base path; the end slices of
a homotopy are its two paths themselves.  ``add`` and interior homotopy
slices combine their parts' stacks built at the same parameters; no path
builds from another path's ``at``.  A composite's only variation bound is
its gauge (:attr:`OperatorPath.gauge`), derived from its parts' gauges,
so a path that is steep in one place is steep there alone.
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
    _spectra,
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


Gauge = Callable[[np.ndarray], np.ndarray]


def _linear_gauge(bound: float | None) -> Gauge | None:
    """The gauge ``L t`` of a path with the Lipschitz bound ``L``, ``None`` if unknown."""
    return None if bound is None else lambda ts: bound * ts


def _checked_bound(lipschitz) -> float | None:
    """``lipschitz`` as a float: ``None`` or a finite number >= 0, else ``ValueError``."""
    if lipschitz is None:
        return None
    bound = float(lipschitz)
    if not 0.0 <= bound < np.inf:
        raise ValueError(f"lipschitz bound must be a finite number >= 0, got {bound!r}")
    return bound


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

    ``dim`` is an integer >= 1.  ``lipschitz`` is an optional bound L on
    the operator norm of the derivative, a finite number >= 0; ``None``
    means unknown.  It is sugar for the :attr:`gauge` ``L t`` and is read
    back as :attr:`lipschitz`; a family may then set a tighter gauge of its
    own, as ``random_family`` and ``invertible_valued_family`` do.  The
    composites of this module carry only the gauge they derive from their
    parts, so their ``lipschitz`` is ``None``.  A bound that is too small
    makes certificates unsound.
    """

    __slots__ = ("_dim", "_build", "_lipschitz", "_gauge", "_cache")

    def __init__(
        self,
        dim: int,
        build: Callable[[np.ndarray], np.ndarray],
        lipschitz: float | None = None,
    ):
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise ValueError(f"path dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError("path dimension must be at least 1")
        self._dim = int(dim)
        self._build = build
        self._lipschitz = _checked_bound(lipschitz)
        self._gauge = _linear_gauge(self._lipschitz)
        self._cache: dict[float, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def lipschitz(self) -> float | None:
        """The bound passed to the constructor; ``None`` if none was, and on every composite.

        It bounds every slope of the :attr:`gauge`, which may be tighter
        than ``L t``: the certifier reads the gauge alone.
        """
        return self._lipschitz

    @property
    def gauge(self) -> Gauge | None:
        """The variation gauge, or ``None`` when the path's variation is unknown.

        The gauge maps a 1-d float64 array of parameters to an array of
        values.  It is nondecreasing, and ``||A(s) - A(t)||_2 <= |g(s) -
        g(t)|`` for all ``s`` and ``t``.  Certification relies on it: by
        Weyl's inequality the ``k``-th eigenvalue moves at most the gauge
        step ``g(t_{j+1}) - g(t_j)`` over a witness interval, so if it
        reached the window edge inside, its distances to the edge at the
        two ends would sum to at most that step.  A segment is proved when
        every such sum exceeds its interval's step, and rejected otherwise.
        Without a gauge the check is sampled, not rigorous.  A path built
        with ``lipschitz=L`` has the gauge ``L t`` unless its family set a
        tighter one; a composite derives its gauge from its parts'.
        """
        return self._gauge

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
        for span, rows in _spectra(lambda s: self._build_chunk(ts[s]), len(ts), self._dim):
            self._cache.update(zip(ts[span], rows))

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
    solved and a cache hit is one lookup in its own dict.  ``gauge`` is
    the path's gauge, ``None`` when unknown.
    """

    __slots__ = ("_route",)

    def __init__(self, dim: int, route, gauge: Gauge | None):
        def build(ts: np.ndarray) -> np.ndarray:
            parts = [(idx, part._build_chunk(us)) for part, idx, us in route(ts) if len(idx)]
            return _assemble(ts.size, parts)

        super().__init__(dim, build)
        self._route = route
        self._gauge = gauge

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
    one stack; an ingest error names the parameter.  ``lipschitz`` is the
    bound of :class:`OperatorPath`.
    """
    return OperatorPath(dim, lambda ts: _matrix_stack([fn(t) for t in ts.tolist()]), lipschitz)


def constant_path(op: SelfAdjointOperator) -> OperatorPath:
    """The path ``t -> op``: every parameter reads one cached row, solved once."""
    stack = op._stack
    point = OperatorPath(op.dim, lambda ts: np.broadcast_to(stack, (ts.size, *stack.shape[1:])))
    return _Reparametrized(op.dim, _whole(point, np.zeros_like), np.zeros_like)


def _blend(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The stack ``(1 - w) x + w y``, one entry per weight in ``w``.

    ``x`` and ``y`` are checked stacks of one kind, with one entry per
    weight or one for all of them; two diagonal stacks blend on their
    diagonals.
    """
    wd = w.reshape(w.shape + (1,) * (x.ndim - 1))
    # One buffer: the bits of ``(1 - wd) * x + wd * y``, which casts a real x to y's dtype.
    out = ((1.0 - wd) * x).astype(np.result_type(x, y), copy=False)
    out += wd * y
    return out


def straight_segment(a: SelfAdjointOperator, b: SelfAdjointOperator) -> OperatorPath:
    """Affine segment ``t -> (1-t) a + t b`` in the convex operator space.

    Diagonal endpoints give a segment of diagonal operators, mixed ones a
    dense segment.  Its ``lipschitz`` is the operator norm of ``b - a``.
    """
    if a.dim != b.dim:
        raise EndpointMismatch(f"segment endpoints have dims {a.dim} and {b.dim}")
    x, y = _common_kind(a._stack, b._stack)
    # The norm of a diagonal difference is its largest magnitude.
    diff = (y - x)[0]
    lipschitz = float(np.abs(diff).max() if diff.ndim == 1 else np.linalg.norm(diff, 2))
    # Positional: bench/tracing.py wraps __init__(self, dim, build, lipschitz=None).
    return OperatorPath(a.dim, lambda ts: _blend(ts, x, y), lipschitz)


def _endpoint_gap(x: SelfAdjointOperator, y: SelfAdjointOperator) -> str | None:
    """Why ``y`` differs from ``x`` beyond ``ENDPOINT_RTOL``, or ``None`` if it agrees."""
    ex, ey = _common_kind(x._stack, y._stack)
    diff, scale = float(np.abs(ex - ey).max()), float(np.abs(ex).max())
    if diff > ENDPOINT_RTOL * scale:
        return f"max entry gap {diff:.3e} exceeds {ENDPOINT_RTOL:.0e} * {scale:.3e}"
    return None


def concat(a: OperatorPath, b: OperatorPath) -> OperatorPath:
    """Concatenate ``a`` then ``b`` with midpoint reparametrization.

    Requires ``a(1) == b(0)`` up to ``ENDPOINT_RTOL`` relative to the
    junction norm.  The flow is reparametrization invariant, so the
    midpoint split is immaterial.  The gauge is ``g_a(2t)`` on the first
    half and ``g_a(1) + g_b(2t - 1) - g_b(0)`` on the second, so each half
    keeps its part's local variation; it is unknown when either part's is.
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

    ga, gb = a.gauge, b.gauge
    if ga is None or gb is None:
        return _Reparametrized(a.dim, route, None)
    ga1, gb0 = float(ga(np.ones(1))[0]), float(gb(np.zeros(1))[0])

    def gauge(ts: np.ndarray) -> np.ndarray:
        (_, first, u), (_, second, v) = route(ts)
        out = np.empty(ts.shape)
        out[first] = ga(u)
        # g_b(v) - g_b(0) is never negative, so the gauge never steps down at the junction.
        out[second] = ga1 + (gb(v) - gb0)
        return out

    return _Reparametrized(a.dim, route, gauge)


def _whole(a: OperatorPath, warp: Callable[[np.ndarray], np.ndarray]):
    """The route reading every parameter ``t`` off ``a`` at ``warp(ts)``."""
    return lambda ts: [(a, range(ts.size), warp(ts))]


def reverse(a: OperatorPath) -> OperatorPath:
    """Time-reversed path ``t -> a(1-t)``, with the gauge ``-g_a(1 - t)``."""
    ga = a.gauge
    gauge = None if ga is None else lambda ts: -ga(1.0 - ts)
    return _Reparametrized(a.dim, _whole(a, lambda ts: 1.0 - ts), gauge)


def _pointwise(a: OperatorPath, b: OperatorPath, wa: float, wb: float) -> OperatorPath:
    """The path ``t -> wa a(t) + wb b(t)`` for weights ``wa, wb >= 0``.

    Both parts build at the same parameters and combine in their common
    kind (:func:`operators._common_kind`), so two diagonal stacks combine
    on their diagonals.  The gauge is ``wa g_a + wb g_b``, unknown when
    either part's is.
    """

    def build(ts: np.ndarray) -> np.ndarray:
        keys = ts.tolist()
        x, y = _common_kind(a._build_chunk(keys), b._build_chunk(keys))
        return wa * x + wb * y

    path = OperatorPath(a.dim, build)
    ga, gb = a.gauge, b.gauge
    path._gauge = None if ga is None or gb is None else lambda ts: wa * ga(ts) + wb * gb(ts)
    return path


def add(a: OperatorPath, b: OperatorPath) -> OperatorPath:
    """Pointwise sum ``t -> a(t) + b(t)`` with the gauge ``g_a + g_b``.

    The gauge is unknown when either part's is.  The sum of two diagonal
    paths is diagonal.
    """
    if a.dim != b.dim:
        raise EndpointMismatch(f"cannot add paths of dims {a.dim} and {b.dim}")
    return _pointwise(a, b, 1.0, 1.0)


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
        """The path ``t -> H(s, t)``: ``a`` itself at s=0, ``b`` itself at s=1, a blend between.

        An interior slice blends the two paths' stacks built at the same
        parameters, by the builder :func:`add` uses, so slices of two
        diagonal paths are diagonal; its gauge is ``(1 - s) g_a + s g_b``,
        unknown when either part's is.
        """
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"slice parameter {s!r} outside [0, 1]")
        if s in (0.0, 1.0):
            return self._b if s else self._a
        return _pointwise(self._a, self._b, 1.0 - s, s)


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
    clipped to [0, 1] to guard against rounding at the edges.  When ``a``
    has a gauge, the composite's gauge is ``g_a(phi(t))``, which needs no
    slope bound of ``phi`` but is a gauge only because ``phi`` is
    nondecreasing.  ``lipschitz``, a bound of the composite checked as
    :class:`OperatorPath` checks its own, gives it the gauge ``L t`` only
    when ``a`` has no gauge; it is not reported.
    """
    bound = _checked_bound(lipschitz)
    for t, expect in ((0.0, 0.0), (1.0, 1.0)):
        u = float(phi(t))
        if not abs(u - expect) <= 1e-12:
            raise ValueError(f"phi({t}) = {u!r}, expected {expect}")

    def warp(t: float) -> float:
        u = float(phi(t))
        if not np.isfinite(u):
            raise ValueError(f"phi({t!r}) = {u!r} is not finite")
        return min(1.0, max(0.0, u))

    def warps(ts: np.ndarray) -> list[float]:
        return [warp(t) for t in ts.tolist()]

    ga = a.gauge
    gauge = _linear_gauge(bound) if ga is None else lambda ts: ga(np.asarray(warps(ts)))
    return _Reparametrized(a.dim, _whole(a, warps), gauge)
