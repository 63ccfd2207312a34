"""Operator paths over [0, 1] and the algebra on them.

A path is an immutable wrapper around one vectorized ``build`` that maps
an array of parameters to one operator each.  ``at(t)`` is a batch of one and
``spectra(ts)`` a batch of many; both go through one per-path cache, so
partition refinement, which revisits segment endpoints, reuses cached
spectra.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import EndpointMismatch
from .operators import (
    SelfAdjointOperator,
    diagonal_operators,
    solve_spectra,
    stack_chunk,
    stacked_operators,
)

__all__ = [
    "OperatorPath",
    "Homotopy",
    "matrix_path",
    "constant_path",
    "straight_segment",
    "concat",
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

    ``build`` maps a 1-d float64 array of distinct parameters to one
    operator per parameter, usually through
    :func:`~specflow.operators.stacked_operators` or
    :func:`~specflow.operators.diagonal_operators`.  The operator at ``t``
    must not depend on which other parameters share its batch, down to the
    last bit.  A function of one parameter goes through :func:`matrix_path`.

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
        build: Callable[[np.ndarray], list[SelfAdjointOperator]],
        lipschitz: float | None = None,
    ):
        if dim < 1:
            raise ValueError("path dimension must be at least 1")
        self._dim = int(dim)
        self._build = build
        self._lipschitz = None if lipschitz is None else float(lipschitz)
        self._cache: dict[float, SelfAdjointOperator] = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def lipschitz(self) -> float | None:
        return self._lipschitz

    def at(self, t: float) -> SelfAdjointOperator:
        """Evaluate the path at parameter ``t`` in [0, 1]: a batch of one."""
        op = self._cache.get(float(t))
        return self._operators([t])[0] if op is None else op

    def _operators(self, ts) -> list[SelfAdjointOperator]:
        """Operators at every parameter in ``ts``; misses are built in batches."""
        keys = _params(ts)
        missing = list(dict.fromkeys(t for t in keys if t not in self._cache))
        if missing:
            self._evaluate(missing)
        return [self._cache[t] for t in keys]

    def spectra(self, ts) -> np.ndarray:
        """Sorted eigenvalues ``(len(ts), dim)`` at every parameter in ``ts``.

        Row ``i`` is bit-for-bit ``self.at(ts[i]).spectrum.values``; missing
        spectra are solved with stacked eigensolves.
        """
        ops = self._operators(ts)
        solve_spectra(ops)
        if not ops:
            return np.empty((0, self._dim))
        return np.stack([op.spectrum.values for op in ops])

    def _evaluate(self, ts: list[float]) -> None:
        """Build and cache the operators at ``ts``, enforcing the build contract."""
        step = stack_chunk(self._dim)
        for i in range(0, len(ts), step):
            chunk = ts[i : i + step]
            ops = self._build(np.array(chunk))
            if len(ops) != len(chunk):
                raise ValueError(
                    f"path build returned {len(ops)} operators for {len(chunk)} parameters"
                )
            for t, op in zip(chunk, ops):
                if op.dim != self._dim:
                    raise ValueError(
                        f"path build returned dimension {op.dim}, expected {self._dim}"
                    )
                self._cache[t] = op

    def __repr__(self) -> str:
        return f"OperatorPath(dim={self._dim})"


def matrix_path(
    dim: int,
    fn: Callable[[float], np.ndarray],
    lipschitz: float | None = None,
) -> OperatorPath:
    """Path from a function returning raw Hermitian matrices.

    ``fn`` is called once per parameter; an ingest error names that
    parameter.
    """

    def build(ts: np.ndarray) -> list[SelfAdjointOperator]:
        return [stacked_operators(np.asarray(fn(t))[None], [t])[0] for t in ts.tolist()]

    return OperatorPath(dim, build, lipschitz)


def constant_path(op: SelfAdjointOperator) -> OperatorPath:
    return OperatorPath(op.dim, lambda ts: [op] * len(ts), lipschitz=0.0)


def _blend(
    w: np.ndarray,
    xs: list[SelfAdjointOperator],
    ys: list[SelfAdjointOperator],
    ts: np.ndarray,
) -> list[SelfAdjointOperator]:
    """Operators ``(1 - w) x + w y`` at parameters ``ts``, one per weight in ``w``.

    ``xs`` and ``ys`` hold one operator per weight, or one for all of them.
    Diagonal operands give diagonal operators, blended entry by entry on
    the diagonals; any dense operand sends the whole stack through dense
    ingest.
    """
    if all(op._diag is not None for op in (*xs, *ys)):
        x, y = np.stack([op._diag for op in xs]), np.stack([op._diag for op in ys])
        wd = w[:, None]
        return diagonal_operators((1.0 - wd) * x + wd * y, ts)
    x, y = np.stack([op.entries for op in xs]), np.stack([op.entries for op in ys])
    wd = w[:, None, None]
    return stacked_operators((1.0 - wd) * x + wd * y, ts)


def straight_segment(a: SelfAdjointOperator, b: SelfAdjointOperator) -> OperatorPath:
    """Affine segment ``t -> (1-t) a + t b`` in the convex operator space.

    Diagonal endpoints give a segment of diagonal operators.
    """
    if a.dim != b.dim:
        raise EndpointMismatch(f"segment endpoints have dims {a.dim} and {b.dim}")
    lip = float(np.linalg.norm(b.entries - a.entries, 2))
    return OperatorPath(a.dim, lambda ts: _blend(ts, [a], [b], ts), lipschitz=lip)


def _endpoint_gap(x: SelfAdjointOperator, y: SelfAdjointOperator) -> str | None:
    """Why ``y`` differs from ``x`` beyond ``ENDPOINT_RTOL``, or ``None`` if it agrees."""
    if x._diag is not None and y._diag is not None:
        # Two diagonals differ only on the diagonal: the dense off-diagonal gap is 0.
        ex, ey = x._diag, y._diag
    else:
        ex, ey = x.entries, y.entries
    diff, scale = float(np.abs(ex - ey).max()), float(np.abs(ex).max())
    if diff > ENDPOINT_RTOL * scale:
        return f"max entry gap {diff:.3e} exceeds {ENDPOINT_RTOL:.0e} * {scale:.3e}"
    return None


def _composite_lipschitz(factor: float, a: OperatorPath, b: OperatorPath) -> float | None:
    """``factor * max`` of the two path bounds; unknown if either is unknown."""
    if a.lipschitz is None or b.lipschitz is None:
        return None
    return factor * max(a.lipschitz, b.lipschitz)


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

    def build(ts: np.ndarray) -> list[SelfAdjointOperator]:
        first = ts <= 0.5
        head = iter(a._operators(np.minimum(1.0, 2.0 * ts[first])))
        tail = iter(b._operators(np.minimum(1.0, 2.0 * ts[~first] - 1.0)))
        return [next(head) if f else next(tail) for f in first]

    return OperatorPath(a.dim, build, lipschitz=_composite_lipschitz(2.0, a, b))


def reverse(a: OperatorPath) -> OperatorPath:
    """Time-reversed path ``t -> a(1-t)``."""
    return OperatorPath(a.dim, lambda ts: a._operators(1.0 - ts), lipschitz=a.lipschitz)


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

        Interior slices of two diagonal paths are diagonal.  The slice bound
        is the larger path bound, ``None`` when either is unknown.
        """
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"slice parameter {s!r} outside [0, 1]")
        a, b = self._a, self._b

        def build(ts: np.ndarray) -> list[SelfAdjointOperator]:
            if s == 0.0:
                return a._operators(ts)
            if s == 1.0:
                return b._operators(ts)
            return _blend(np.full(ts.size, s), a._operators(ts), b._operators(ts), ts)

        return OperatorPath(a.dim, build, _composite_lipschitz(1.0, a, b))


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

    def build(ts: np.ndarray) -> list[SelfAdjointOperator]:
        return a._operators([warp(t) for t in ts.tolist()])

    return OperatorPath(a.dim, build, lipschitz=lipschitz)
