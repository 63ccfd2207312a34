"""Brute-force spectral-flow oracle.

Deliberately naive and fully independent of the certified engine: dense
eigendecomposition on a fine parameter grid, signed zero crossings
detected from negative-eigenvalue count differences between adjacent grid
cells, each crossing refined by bisection.  Multiplicity > 1 crossings
are handled by count differences, never by eigenvalue-curve pairing,
which is ambiguous at collisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryAmbiguity, ResolutionWarning
from .operators import spectral_scale
from .paths import OperatorPath

__all__ = ["CrossingRecord", "OracleResult", "oracle_flow"]

DEFAULT_GRID = 512
_MIN_GRID = 64
DEFAULT_ZERO_BAND = 1e-9
REFINE_WIDTH = 1e-10


@dataclass(frozen=True)
class CrossingRecord:
    """One detected zero crossing, bracketed to ``REFINE_WIDTH``."""

    t_lower: float
    t_upper: float
    direction: int
    refined_t: float


@dataclass(frozen=True)
class OracleResult:
    flow: int
    crossings: tuple[CrossingRecord, ...]
    grid: int


def _negative_counts(path: OperatorPath, ts) -> list[int]:
    return np.count_nonzero(path.spectra(ts) < 0.0, axis=1).tolist()


def _refine_cell(
    path: OperatorPath,
    lo: float,
    hi: float,
    n_lo: int,
    n_hi: int,
    out: list[CrossingRecord],
) -> None:
    if hi - lo <= REFINE_WIDTH:
        net = n_lo - n_hi  # upward crossings reduce the negative count
        direction = 1 if net > 0 else -1
        mid = 0.5 * (lo + hi)
        for _ in range(abs(net)):
            out.append(CrossingRecord(lo, hi, direction, mid))
        return
    mid = 0.5 * (lo + hi)
    (n_mid,) = _negative_counts(path, [mid])
    if n_mid != n_lo:
        _refine_cell(path, lo, mid, n_lo, n_mid, out)
    if n_mid != n_hi:
        _refine_cell(path, mid, hi, n_mid, n_hi, out)


def _grid_flow(path: OperatorPath, grid: int) -> OracleResult:
    """Signed crossing count on ``grid`` equal cells, each crossing bisected."""
    ts = np.linspace(0.0, 1.0, grid + 1)
    negs = _negative_counts(path, ts)
    records: list[CrossingRecord] = []
    for j in range(grid):
        if negs[j] != negs[j + 1]:
            _refine_cell(path, float(ts[j]), float(ts[j + 1]), negs[j], negs[j + 1], records)
    return OracleResult(flow=negs[0] - negs[-1], crossings=tuple(records), grid=grid)


def oracle_flow(path: OperatorPath, grid: int = DEFAULT_GRID) -> OracleResult:
    """Signed zero-crossing count of ``path`` on a fine grid.

    ``DEFAULT_ZERO_BAND`` (relative to the endpoint's spectral scale) guards
    the path endpoints: an eigenvalue that close to zero there makes the
    crossing count ill-defined.  The flow is endpoint data, the drop in the
    negative count from t=0 to t=1, which every grid reads alike; what the
    oracle checks independently is the list of crossings.  So the run is
    repeated on a doubled grid, and a different number of detected
    crossings raises :class:`ResolutionWarning` instead of being silently
    accepted.
    """
    if grid < _MIN_GRID:
        raise ValueError(f"oracle grid must be at least {_MIN_GRID}, got {grid!r}")
    for t in (0.0, 1.0):
        (row,) = path.spectra([t])
        band = DEFAULT_ZERO_BAND * float(spectral_scale(row))
        if float(np.abs(row).min()) < band:
            raise BoundaryAmbiguity(
                f"endpoint t={t} has an eigenvalue within {band:.3e} of 0; "
                "the signed crossing count is ill-defined there"
            )
    result = _grid_flow(path, grid)
    doubled = _grid_flow(path, 2 * grid)
    if len(doubled.crossings) != len(result.crossings):
        raise ResolutionWarning(
            f"oracle crossing count changed under grid doubling {grid} -> {2 * grid}: "
            f"{len(result.crossings)} -> {len(doubled.crossings)}; raise the grid"
        )
    return result
