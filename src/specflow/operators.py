"""Finite self-adjoint operators and their spectra.

Operators are finite Hermitian matrices, stored either densely or, for a
diagonal operator, as its real diagonal.  Ingestion symmetrizes dense input
that is Hermitian up to rounding and rejects anything genuinely
non-self-adjoint, so downstream code can rely on exact Hermiticity and a
real spectrum.  A diagonal operator is its own eigendecomposition: its
spectrum is its sorted diagonal, and its dense entries are built only when
something reads them.  Paths never build operator objects to solve:
they check whole stacks (:func:`_ingest_stack`, :func:`_ingest_diagonal`)
and solve them with :func:`_spectrum_rows` or, a stream of stacks at a
time, :func:`_spectra`.  Every eigensolve goes through
:func:`_solve_spectrum`, which overlaps the LAPACK calls of large matrices
on solver threads when BLAS leaves CPUs idle.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import EigensolverError

__all__ = [
    "SelfAdjointOperator",
    "Spectrum",
    "spectral_scale",
    "HERMITICITY_RTOL",
    "DEFAULT_CLUSTER_TOL",
    "DEFAULT_MIN_MARGIN",
]

# Inputs with relative asymmetry above this are rejected instead of repaired.
HERMITICITY_RTOL = 1e-12
# Relative distance (to the spectral radius) below which an eigenvalue is
# considered to collide with a counting boundary.
DEFAULT_CLUSTER_TOL = 1e-9
# Relative floor for certified window margins.
DEFAULT_MIN_MARGIN = 1e-6


# Stacks handed to one vectorized numpy call hold at most this many bytes,
# so their temporaries stay small however many parameters a batch asks for.
STACK_BYTES = 1 << 18


# numpy holds the GIL through an eigvalsh call that returns at most this
# many eigenvalues, so such a call cannot overlap another.
GIL_HELD_EIGENVALUES = 500
# Matrices below this dimension are solved on the calling thread alone:
# their solves are too short to pay for a hand-off.
POOL_MIN_DIM = 32


def _solver_threads() -> int:
    """Solver threads: the usable CPUs over the threads each BLAS call takes, at least 1.

    BLAS threads are read as OpenBLAS reads them: ``OPENBLAS_NUM_THREADS``,
    then ``GOTO_NUM_THREADS``, then ``OMP_NUM_THREADS``, a value that is
    not a positive integer being skipped; without one, BLAS takes every
    CPU and there is no CPU left for a second solve.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return cpus // min(blas, cpus)
    return 1


_WORKERS = _solver_threads()
_POOL = None


def _pool():
    """The solver thread pool, created on first use with ``_WORKERS`` threads."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor  # not at import: startup stays lean

        _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="specflow-solver")
    return _POOL


def _forget_pool() -> None:
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads.
    os.register_at_fork(after_in_child=_forget_pool)


def _pooled(dim: int) -> bool:
    """Whether stacks of dimension ``dim`` take the pooled route of :func:`_solve_spectrum`."""
    return _WORKERS > 1 and dim >= POOL_MIN_DIM


def stack_chunk(dim: int) -> int:
    """Matrices of dimension ``dim`` per stacked call (at least 1).

    On the pooled route a call holds more than ``GIL_HELD_EIGENVALUES``
    eigenvalues, so it runs without the GIL.
    """
    chunk = max(1, STACK_BYTES // (16 * dim * dim))
    if _pooled(dim):
        chunk = max(chunk, GIL_HELD_EIGENVALUES // dim + 1)
    return chunk


def _at(ts, i: int) -> str:
    return "" if ts is None else f" at t={float(ts[i])!r}"


def _ingest_stack(stack, ts=None) -> np.ndarray:
    """Check and symmetrize a stack ``(n, d, d)`` of matrices.

    Each matrix must be finite and Hermitian up to ``HERMITICITY_RTOL``
    times its own largest entry; it is then symmetrized exactly, and the
    symmetrization must not overflow (entries near the float64 limit).  ``ts``
    (one parameter per matrix) only labels errors.
    """
    a = np.asarray(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"operator entries must be a square matrix, got shape {a.shape[1:]}")
    if a.shape[1] < 1:
        raise ValueError("operator dimension must be at least 1")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    adjoint = np.conj(np.swapaxes(a, -1, -2))
    finite = np.isfinite(a).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):
        scale = np.abs(a).max(axis=(-2, -1))
        asym = np.abs(a - adjoint).max(axis=(-2, -1))
    bad = ~finite | (asym > HERMITICITY_RTOL * scale)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            raise ValueError("operator entries must be finite" + _at(ts, i))
        raise ValueError(
            f"matrix is not self-adjoint: asymmetry {asym[i]:.3e} exceeds "
            f"{HERMITICITY_RTOL:.0e} * norm ({scale[i]:.3e})" + _at(ts, i)
        )
    # Complex entries that overflow also divide inf by 2 as inf * 0 = nan.
    with np.errstate(over="ignore", invalid="ignore"):
        h = a + adjoint
        del adjoint
        # In place, and the ufunc of ``/ 2``: `*= 0.5` flips signs of zero in complex entries.
        h /= 2
    overflow = ~np.isfinite(h).all(axis=(-2, -1))
    if overflow.any():
        i = int(np.argmax(overflow))
        raise ValueError(
            "operator entries overflow float64 when symmetrized as (A + A^H) / 2" + _at(ts, i)
        )
    h.setflags(write=False)
    return h


def _ingest_diagonal(rows, ts=None) -> np.ndarray:
    """Check diagonal rows ``(n, d)``: a read-only float64 copy, every entry finite.

    A real diagonal is Hermitian as it stands, so finiteness is the one
    ingest check; ``ts`` (one parameter per row) only labels errors.
    """
    rows = np.array(rows, dtype=np.float64)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError("operator entries must be finite" + _at(ts, int(np.argmin(finite))))
    rows.setflags(write=False)
    return rows


def _dense(stack: np.ndarray) -> np.ndarray:
    """A checked stack as matrices: diagonal rows ``(n, d)`` become ``(n, d, d)``."""
    if stack.ndim == 3:
        return stack
    n, d = stack.shape
    out = np.zeros((n, d, d))
    out[:, np.arange(d), np.arange(d)] = stack
    return out


def _common_kind(*stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Checked stacks of one kind: unchanged if all are diagonal or all dense, else all dense."""
    if len({stack.ndim for stack in stacks}) > 1:
        return tuple(_dense(stack) for stack in stacks)
    return stacks


def _dense_parts(stack: np.ndarray) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """The eigensolves of a checked dense stack: ``(real, parts)``.

    A matrix whose imaginary part is exactly zero is solved as real, the
    others as complex, one stacked eigensolve each, so a row depends on its
    matrix's values alone, never on the dtype of the stack that holds it.
    When the stack mixes the two, ``real`` masks the real matrices and the
    parts are they, then the others; else ``real`` is ``None`` and the one
    part is the whole stack.
    """
    if np.iscomplexobj(stack):
        real = ~stack.imag.any(axis=(-2, -1))
        if real.all():
            return None, [stack.real]
        if real.any():
            return real, [stack[real].real, stack[~real]]
    return None, [stack]


def _assemble_rows(real: np.ndarray | None, solved: Iterator[np.ndarray]) -> np.ndarray:
    """Sorted rows of a dense stack from the eigenvalues of its parts, read off ``solved``."""
    if real is None:
        return _sorted_rows(next(solved))
    real_rows, other_rows = next(solved), next(solved)
    rows = np.empty((real.size, real_rows.shape[1]))
    rows[real], rows[~real] = real_rows, other_rows
    return _sorted_rows(rows)


def _spectrum_rows(stack: np.ndarray) -> np.ndarray:
    """Sorted eigenvalue rows ``(n, d)`` of a checked stack, read-only.

    Diagonal rows ``(n, d)`` are their own spectra and are only sorted; a
    dense stack ``(n, d, d)`` is solved by its :func:`_dense_parts`.
    """
    if stack.ndim == 2:
        return _sorted_rows(stack)
    real, parts = _dense_parts(stack)
    return _assemble_rows(real, iter(_solve_spectrum(parts)))


def _spectra(stacks: Iterable[np.ndarray], dim: int) -> Iterator[np.ndarray]:
    """:func:`_spectrum_rows` of every checked stack of dimension ``dim`` in ``stacks``, in order.

    ``stacks`` is drawn lazily.  Off the pooled route (:func:`_pooled`) a
    stack's rows come before the next stack is drawn.  On it, the dense
    parts of every stack go through one :func:`_solve_spectrum` call, so
    later stacks are built while earlier ones solve, and the rows come
    once every stack is solved.
    """
    if not _pooled(dim):
        return map(_spectrum_rows, stacks)
    layout = []  # per stack: (its sorted diagonal rows, None) or (None, its real mask)

    def parts() -> Iterator[np.ndarray]:
        for stack in stacks:
            if stack.ndim == 2:
                layout.append((_sorted_rows(stack), None))
                continue
            real, split = _dense_parts(stack)
            layout.append((None, real))
            yield from split

    solved = iter(_solve_spectrum(parts()))
    return iter([_assemble_rows(real, solved) if rows is None else rows for rows, real in layout])


class SelfAdjointOperator:
    """A finite Hermitian matrix standing in for a Dirac operator.

    Entries Hermitian within rounding are symmetrized exactly on ingestion;
    an already-Hermitian matrix passes through bit-for-bit.  A diagonal
    operator (from :meth:`from_diagonal`, or a path whose build returns
    diagonal rows) stores only its diagonal and builds ``entries`` on first
    read.  Instances are immutable and cache their spectrum.
    """

    __slots__ = ("_entries", "_diag", "_spectrum")

    def __init__(self, entries):
        self._entries = _ingest_stack(np.asarray(entries)[None])[0]
        self._diag = None
        self._spectrum: np.ndarray | None = None

    @classmethod
    def _checked(cls, row: np.ndarray) -> "SelfAdjointOperator":
        # One entry of a checked stack: ingested entries (d, d), or a finite,
        # read-only diagonal (d,).
        op = cls.__new__(cls)
        op._entries, op._diag = (row, None) if row.ndim == 2 else (None, row)
        op._spectrum = None
        return op

    @classmethod
    def from_diagonal(cls, values) -> "SelfAdjointOperator":
        """Operator with the given real diagonal (eigenvalues as stated)."""
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("diagonal must be a non-empty 1-d sequence")
        return cls._checked(_ingest_diagonal(vals[None])[0])

    @property
    def _stack(self) -> np.ndarray:
        """The operator as a checked stack of one: ``(1, d, d)`` or a ``(1, d)`` diagonal."""
        return (self._entries if self._diag is None else self._diag)[None]

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, read-only (built once for a diagonal operator)."""
        if self._entries is None:
            entries = np.diag(self._diag)
            entries.setflags(write=False)
            self._entries = entries
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0] if self._diag is None else self._diag.size

    @property
    def spectrum(self) -> np.ndarray:
        """Sorted eigenvalues with multiplicity: one cached read-only row, as ``spectra`` gives."""
        if self._spectrum is None:
            self._spectrum = _spectrum_rows(self._stack)[0]
        return self._spectrum

    def __repr__(self) -> str:
        return f"SelfAdjointOperator(dim={self.dim})"


class Spectrum:
    """Nondecreasing real eigenvalues, kept as the type of ``GluingSpec.base``; elsewhere, rows."""

    __slots__ = ("_values",)

    def __init__(self, values):
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("spectrum must be a non-empty 1-d sequence")
        self._values = _sorted_rows(vals)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"Spectrum({np.array2string(self._values, precision=6)})"


def spectral_scale(values: np.ndarray) -> np.ndarray:
    """The unit of relative tolerances for each row of eigenvalues ``(..., d)``.

    It is the row's radius, its largest eigenvalue magnitude, or 1.0 for
    the zero spectrum.
    """
    radius = np.abs(values).max(axis=-1)
    return np.where(radius > 0, radius, 1.0)


def _zero_band(values: np.ndarray) -> np.ndarray:
    """Half-width of the band around 0 whose eigenvalues count as zero, per row ``(..., d)``.

    It is ``8 * d * eps * scale``: an eigensolver's backward error, so only
    an eigenvalue that rounding alone can put on the wrong side of 0 counts
    as zero, and a small eigenvalue next to a large one keeps its sign.
    """
    return 8 * values.shape[-1] * np.finfo(np.float64).eps * spectral_scale(values)


def _sorted_rows(values: np.ndarray) -> np.ndarray:
    vals = np.sort(values, axis=-1)
    if not np.all(np.isfinite(vals)):
        raise ValueError("spectrum values must be finite")
    vals.setflags(write=False)
    return vals


def _eigvalsh(entries: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack ``(n, d, d)`` of Hermitian matrices, one LAPACK call."""
    try:
        return np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:
        dim = entries.shape[-1]
        norm = float(np.abs(entries).max())
        raise EigensolverError(
            f"dense Hermitian eigensolver failed to converge: dim={dim}, "
            f"max|entry|={norm:.3e} ({exc})"
        ) from exc


def _solve_spectrum(stacks: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Eigenvalues of every dense Hermitian stack ``(n, d, d)`` in ``stacks``, in order.

    The one eigensolve boundary.  ``stacks`` is drawn on the calling
    thread, one stack at a time and in order, so each stack's build, its
    ingest and their errors happen there.  Off the pooled route
    (:func:`_pooled` of the first stack's dimension) each stack is solved
    before the next is drawn.  On it, each stack is handed to
    ``numpy.linalg.eigvalsh`` on a solver thread once drawn, and the next
    is drawn while it solves, with at most ``_WORKERS`` stacks alive.  A
    solver thread runs nothing but ``eigvalsh`` on a stack no one writes,
    and a matrix's eigenvalues depend on it alone, so both routes return
    the same bits.  Both raise the error the serial order meets first (an
    eigensolver error before a later stack's build error), and neither
    leaves a solve running.
    """
    stacks = iter(stacks)
    first = next(stacks, None)
    if first is None:
        return []
    if not _pooled(first.shape[-1]):
        return [_eigvalsh(first), *map(_eigvalsh, stacks)]
    from concurrent.futures import wait

    pool = _pool()
    pending = deque([pool.submit(_eigvalsh, first)])
    del first
    solved = []
    try:
        while True:
            if len(pending) >= _WORKERS:
                solved.append(pending.popleft().result())
            try:
                stack = next(stacks, None)
            except BaseException:
                # The stacks drawn before this one are solved first in serial order.
                for future in pending:
                    future.result()
                raise
            if stack is None:
                break
            pending.append(pool.submit(_eigvalsh, stack))
        solved.extend(future.result() for future in pending)
        return solved
    finally:
        wait(pending)
