"""Brute-force spectral-flow oracle.

Deliberately naive and fully independent of the certified engine: dense
eigendecomposition on a fine parameter grid, signed zero crossings
detected from negative-eigenvalue count differences between adjacent grid
cells, each crossing refined by bisection.  All cells that hold a crossing
are bisected together, left to right and one level at a time, with one
``spectra`` read of the level's midpoints: the same midpoints, and so the
same rows, as bisecting one cell after another.  Multiplicity > 1
crossings are handled by count differences, never by eigenvalue-curve
pairing, which is ambiguous at collisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryAmbiguity, ResolutionWarning
from .operators import DEFAULT_CLUSTER_TOL, spectral_scale
from .paths import OperatorPath

__all__ = ["CrossingRecord", "OracleResult", "oracle_flow"]

DEFAULT_GRID = 512
_MIN_GRID = 64
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


def _grid_flow(path: OperatorPath, grid: int) -> OracleResult:
    """Signed crossing count on ``grid`` equal cells, each crossing bisected.

    All cells that hold a crossing are bisected one level at a time, with
    one ``spectra`` read for the level's midpoints.  A cell emits its
    records once it is at most ``REFINE_WIDTH`` wide; on a non-dyadic grid
    cells get there at different levels, so the records are sorted by
    ``t_lower``.
    """
    ts = np.linspace(0.0, 1.0, grid + 1)
    negs = _negative_counts(path, ts)
    edges = ts.tolist()
    cells = [
        (edges[j], edges[j + 1], negs[j], negs[j + 1]) for j in range(grid) if negs[j] != negs[j + 1]
    ]
    records: list[CrossingRecord] = []
    while cells:
        wide = []
        for lo, hi, n_lo, n_hi in cells:
            if hi - lo > REFINE_WIDTH:
                wide.append((lo, hi, n_lo, n_hi))
                continue
            net = n_lo - n_hi  # upward crossings reduce the negative count
            records += [CrossingRecord(lo, hi, 1 if net > 0 else -1, 0.5 * (lo + hi))] * abs(net)
        mids = [0.5 * (lo + hi) for lo, hi, _, _ in wide]
        cells = []
        for (lo, hi, n_lo, n_hi), mid, n_mid in zip(wide, mids, _negative_counts(path, mids)):
            if n_mid != n_lo:
                cells.append((lo, mid, n_lo, n_mid))
            if n_mid != n_hi:
                cells.append((mid, hi, n_mid, n_hi))
    records.sort(key=lambda r: r.t_lower)
    return OracleResult(flow=negs[0] - negs[-1], crossings=tuple(records), grid=grid)


def oracle_flow(path: OperatorPath, grid: int = DEFAULT_GRID) -> OracleResult:
    """Signed zero-crossing count of ``path`` on a fine grid.

    ``operators.DEFAULT_CLUSTER_TOL`` (relative to the endpoint's spectral
    scale), the engine's own boundary-collision tolerance, guards the path
    endpoints: an eigenvalue that close to zero there makes the crossing
    count ill-defined.  The flow is endpoint data, the drop in the
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
        band = DEFAULT_CLUSTER_TOL * float(spectral_scale(row))
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
