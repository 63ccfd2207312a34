"""Finite self-adjoint operators and their spectra.

Operators are finite Hermitian matrices, stored either densely or, for a
diagonal operator, as its real diagonal.  Ingestion symmetrizes dense input
that is Hermitian up to rounding and rejects anything genuinely
non-self-adjoint, so downstream code can rely on exact Hermiticity and a
real spectrum.  A diagonal operator is its own eigendecomposition: its
spectrum is its sorted diagonal, and its dense entries are built only when
something reads them.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError

__all__ = [
    "SelfAdjointOperator",
    "stacked_operators",
    "diagonal_operators",
    "solve_spectra",
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


def stack_chunk(dim: int) -> int:
    """Matrices of dimension ``dim`` per stacked call (at least 1)."""
    return max(1, STACK_BYTES // (16 * dim * dim))


def _at(ts, i: int) -> str:
    return "" if ts is None else f" at t={float(ts[i])!r}"


def _ingest_stack(stack, ts=None) -> np.ndarray:
    """Check and symmetrize a stack ``(n, d, d)`` of matrices.

    Each matrix must be finite and Hermitian up to ``HERMITICITY_RTOL``
    times its own largest entry; it is then symmetrized exactly.  ``ts``
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
    h = (a + adjoint) / 2
    h.setflags(write=False)
    return h


def stacked_operators(matrices, ts) -> list["SelfAdjointOperator"]:
    """Operators from a stack ``(n, d, d)`` of matrices at parameters ``ts``.

    Every matrix passes the same ingest checks as
    :class:`SelfAdjointOperator`; an error names the parameter of the
    offending matrix.  Spectra stay unsolved until asked for.
    """
    return [SelfAdjointOperator._trusted(h) for h in _ingest_stack(matrices, ts)]


def diagonal_operators(eigenvalues, ts) -> list["SelfAdjointOperator"]:
    """Diagonal operators from eigenvalue rows ``(n, d)`` at parameters ``ts``.

    Each operator stores its row, read-only; the spectrum of a diagonal
    matrix is its sorted diagonal, so no eigensolver runs.  A real diagonal
    is Hermitian as it stands, so finiteness is the one ingest check; an
    error names the parameter of the offending row.
    """
    rows = np.array(eigenvalues, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ValueError("diagonal must be a non-empty 1-d sequence")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError("operator entries must be finite" + _at(ts, int(np.argmin(finite))))
    rows.setflags(write=False)
    spectra = _spectra(rows)
    return [SelfAdjointOperator._trusted(diag=r, spectrum=s) for r, s in zip(rows, spectra)]


class SelfAdjointOperator:
    """A finite Hermitian matrix standing in for a Dirac operator.

    Entries Hermitian within rounding are symmetrized exactly on ingestion;
    an already-Hermitian matrix passes through bit-for-bit.  A diagonal
    operator (from :func:`diagonal_operators`) stores only its diagonal and
    builds ``entries`` on first read.  Instances are immutable and cache
    their spectrum.
    """

    __slots__ = ("_entries", "_diag", "_spectrum")

    def __init__(self, entries):
        self._entries = _ingest_stack(np.asarray(entries)[None])[0]
        self._diag = None
        self._spectrum: Spectrum | None = None

    @classmethod
    def _trusted(cls, entries=None, diag=None, spectrum: "Spectrum | None" = None):
        # Either entries that already went through _ingest_stack, or a
        # finite, read-only diagonal row with its spectrum.
        op = cls.__new__(cls)
        op._entries = entries
        op._diag = diag
        op._spectrum = spectrum
        return op

    @classmethod
    def from_diagonal(cls, values) -> "SelfAdjointOperator":
        """Operator with the given real diagonal (eigenvalues as stated)."""
        return diagonal_operators(np.asarray(values, dtype=np.float64)[None], None)[0]

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
    def spectrum(self) -> "Spectrum":
        """Sorted eigenvalues with multiplicity (computed once, cached)."""
        if self._spectrum is None:
            solve_spectra((self,))
        return self._spectrum

    def __repr__(self) -> str:
        return f"SelfAdjointOperator(dim={self.dim})"


class Spectrum:
    """Nondecreasing real eigenvalue sequence of one operator."""

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

    @property
    def radius(self) -> float:
        """Largest eigenvalue magnitude."""
        return float(np.abs(self._values).max())

    @property
    def scale(self) -> float:
        """The unit of relative tolerances: see :func:`spectral_scale`."""
        return float(spectral_scale(self._values))

    @property
    def min_abs(self) -> float:
        """Distance of the spectrum to zero."""
        return float(np.abs(self._values).min())

    def __repr__(self) -> str:
        return f"Spectrum({np.array2string(self._values, precision=6)})"


def spectral_scale(values: np.ndarray) -> np.ndarray:
    """The unit of relative tolerances for each row of eigenvalues ``(..., d)``.

    It is the row's radius, its largest eigenvalue magnitude, or 1.0 for
    the zero spectrum.
    """
    radius = np.abs(values).max(axis=-1)
    return np.where(radius > 0, radius, 1.0)


def _sorted_rows(values: np.ndarray) -> np.ndarray:
    vals = np.sort(values, axis=-1)
    if not np.all(np.isfinite(vals)):
        raise ValueError("spectrum values must be finite")
    vals.setflags(write=False)
    return vals


def _spectra(values: np.ndarray) -> list[Spectrum]:
    """One :class:`Spectrum` per row of ``values`` ``(n, d)``."""
    out = []
    for row in _sorted_rows(values):
        spec = Spectrum.__new__(Spectrum)
        spec._values = row
        out.append(spec)
    return out


def _solve_spectrum(entries: np.ndarray) -> np.ndarray:
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


def solve_spectra(ops) -> None:
    """Compute every missing spectrum among ``ops`` with stacked eigensolves.

    Operators are grouped by dtype and dimension (a stack must share both)
    and solved in chunks of :func:`stack_chunk`; an operator listed twice
    is solved once.  Diagonal operators always carry their spectrum, so
    only dense ones are solved.
    """
    groups: dict[tuple, dict[int, SelfAdjointOperator]] = {}
    for op in ops:
        if op._spectrum is None:
            groups.setdefault((op._entries.dtype, op.dim), {})[id(op)] = op
    for (_, dim), group in groups.items():
        pending = list(group.values())
        step = stack_chunk(dim)
        for i in range(0, len(pending), step):
            chunk = pending[i : i + step]
            values = _solve_spectrum(np.stack([op._entries for op in chunk]))
            for op, spec in zip(chunk, _spectra(values)):
                op._spectrum = spec
