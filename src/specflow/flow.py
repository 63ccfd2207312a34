"""Certified spectral flow for paths of self-adjoint operators.

The flow of a path is computed from a certified partition: on each
segment a symmetric window radius is chosen so that the eigenvalue count
inside the window is constant on a witness grid, and the flow is the
telescoping sum of upper-half counts at the partition points.  The result
is an integer independent of the partition (a tested property), so any
certified partition is as good as any other.

Refinement is batched and runs left to right.  Pending segments wait on a
stack in depth-first order.  Each round reads the witness grids of the
leftmost ones with one ``spectra`` call and decides them all with one
array kernel (:func:`_widest_gaps`, then :func:`_check_windows`, the one
acceptance rule, which :meth:`FlowCertificate.verify` also runs).  Until a
segment certifies, a round takes one segment, so a path that certifies
nothing solves what depth-first order solves.  After that a round takes
``max(1, 64 >> depth)`` segments, and a round that so far holds only
children of resolution-limited parents goes on taking them, up to 64, at
any depth.  A parent is resolution-limited when it failed on the
Lipschitz slack alone and its ends have as many negative eigenvalues, so
no net crossing lies inside and only finer witnesses are missing.  So the
depth cap stays where a crossing or another rejection sits, which is where
refinement can fail.  The schedule changes no leaf: a segment's decision
depends on its own ends alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .errors import BoundaryAmbiguity, CertificateBroken, DepthExceeded
from .operators import DEFAULT_CLUSTER_TOL, DEFAULT_MIN_MARGIN, _zero_band, spectral_scale
from .paths import OperatorPath

__all__ = [
    "FlowOptions",
    "SegmentWitness",
    "FlowCertificate",
    "spectral_flow",
]


@dataclass(frozen=True)
class FlowOptions:
    """Tunables for partition refinement and counting.

    ``init_samples`` is the number of equal segments the refinement starts
    from; ``witness_points`` the samples per segment on which window
    margins and count constancy are verified; tolerances are relative to
    the local spectral radius.
    """

    init_samples: int = 8
    max_depth: int = 20
    witness_points: int = 9
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    min_margin: float = DEFAULT_MIN_MARGIN

    def __post_init__(self):
        for name in ("init_samples", "max_depth", "witness_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.init_samples < 1:
            raise ValueError("init_samples must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.witness_points < 2:
            raise ValueError("witness_points must be at least 2")
        if not (self.cluster_tol > 0 and self.min_margin > 0):
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.cluster_tol) and math.isfinite(self.min_margin)):
            raise ValueError("tolerances must be finite")


@dataclass(frozen=True)
class SegmentWitness:
    """One certified segment of a partition.

    ``radius`` is the window half-width, ``margin`` the verified distance
    of +/-radius to every witnessed spectrum, and ``symmetric_count`` the
    constant eigenvalue count in [-radius, radius] on the witness grid.
    """

    t_lower: float
    t_upper: float
    radius: float
    margin: float
    grid: tuple[float, ...]
    symmetric_count: int


@dataclass(frozen=True)
class FlowCertificate:
    """A computed flow together with everything needed to re-check it.

    ``times`` are the partition points t_0 = 0 < ... < t_N = 1 and
    ``witnesses[i]`` certifies the segment [t_i, t_{i+1}] with its window
    radius.  ``counts[i]`` holds the pair (count at t_i, count at t_{i+1})
    of eigenvalues in [0, radius]; ``flow`` is their telescoping sum.
    ``options`` are the options the flow was computed with.
    """

    times: tuple[float, ...]
    witnesses: tuple[SegmentWitness, ...]
    counts: tuple[tuple[int, int], ...]
    flow: int
    options: FlowOptions = field(default_factory=FlowOptions, compare=False)

    @property
    def radii(self) -> tuple[float, ...]:
        """Window radius of each segment, read from its witness."""
        return tuple(w.radius for w in self.witnesses)

    def verify(self, path: OperatorPath) -> None:
        """Re-check the certificate against ``path``; raise CertificateBroken if it fails.

        The witnesses must tile [0, 1] in the order of ``times``, with one
        count pair each.  Every witness grid is then read with one
        ``spectra`` call, and segment by segment, from the left, the grid
        must be the ``options.witness_points``-point grid of its segment,
        the recorded window must pass the certifier's own rule
        (:func:`_check_windows`: margin floor, Lipschitz slack, witnessed
        margin, a constant count equal to ``symmetric_count`` and a constant
        count below the window), and the end counts recounted from the
        grid's first and last rows must match.  ``flow`` must telescope over
        them.  The error names the leftmost broken segment and its first
        reason.
        """
        opts = self.options
        times = self.times
        if not (
            len(times) == len(self.witnesses) + 1
            and times[0] == 0.0
            and times[-1] == 1.0
            and all(
                w.t_lower == a < b == w.t_upper
                for w, a, b in zip(self.witnesses, times, times[1:])
            )
        ):
            raise CertificateBroken("witnesses do not tile [0, 1] in the order of times")
        if len(self.counts) != len(self.witnesses):
            raise CertificateBroken(
                f"{len(self.counts)} count pairs recorded for {len(self.witnesses)} segments"
            )
        ts, spectra = _witness_spectra(
            path, [w.t_lower for w in self.witnesses], [w.t_upper for w in self.witnesses], opts
        )
        radius = np.array([w.radius for w in self.witnesses])
        counts, reasons, _ = _check_windows(
            path, ts, spectra, radius, np.array([w.margin for w in self.witnesses]), opts
        )
        total = 0
        for i, (w, grid, reason, (c_lo, c_hi)) in enumerate(
            zip(self.witnesses, ts.tolist(), reasons, self.counts)
        ):
            lo, hi = w.t_lower, w.t_upper
            if w.grid != tuple(grid):
                raise CertificateBroken(
                    f"segment [{lo!r}, {hi!r}]: witness grid is not the "
                    f"{opts.witness_points}-point grid of the segment"
                )
            if reason is not None:
                raise CertificateBroken(f"segment [{lo!r}, {hi!r}]: {reason}")
            if counts[i] != w.symmetric_count:
                raise CertificateBroken(f"symmetric count drifted at t={w.grid[0]}")
            ends = _upper_count(spectra[i, [0, -1]], radius[[i, i]], opts.cluster_tol)
            for t, recorded, recounted in zip((lo, hi), (c_lo, c_hi), ends):
                if recorded != recounted:
                    raise CertificateBroken(f"count at t={t} drifted")
            total += c_hi - c_lo
        if total != self.flow:
            raise CertificateBroken("flow does not telescope over the recorded counts")


# Once the refinement has certified a segment, it reads the leftmost
# ``max(1, _BATCH >> depth)`` pending segments with one ``spectra`` call,
# or up to ``_BATCH`` of them while they are children of resolution-limited
# parents.
_BATCH = 64

_ALL_ZERO = "all zero: every witnessed eigenvalue is 0, so no window radius exists"


def _widest_gaps(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window of each segment of ``spectra`` ``(S, W, dim)``: radius, margin and "no gap".

    The window is the midpoint and half-width of the widest gap in the
    segment's pooled magnitudes.  0 is always a level, so the radius stays
    positive.  Repeated levels only add empty gaps, and ``argmax`` takes
    the first widest one, so sorting gives the gap that the distinct levels
    would.  A segment whose widest gap is empty has no window.
    """
    s = len(spectra)
    pooled = np.sort(
        np.concatenate([np.zeros((s, 1)), np.abs(spectra).reshape(s, -1)], axis=1), axis=1
    )
    widths = np.diff(pooled, axis=1)
    k = np.argmax(widths, axis=1)
    rows = np.arange(s)
    width = widths[rows, k]
    return 0.5 * (pooled[rows, k] + pooled[rows, k + 1]), 0.5 * width, width == 0.0


def _check_windows(
    path: OperatorPath,
    ts: np.ndarray,
    spectra: np.ndarray,
    radius: np.ndarray,
    margin: np.ndarray,
    opts: FlowOptions,
) -> tuple[np.ndarray, list[str | None], np.ndarray]:
    """The segment acceptance rule: each segment's window count, and why it fails or ``None``.

    Segment ``i`` has the eigenvalues ``spectra[i]`` ``(W, dim)`` on the
    equally spaced witness grid ``ts[i]`` and the window
    [-radius[i], radius[i]] with ``margin[i]``.  The window is rejected, in
    this order, when the margin is below the floor (``min_margin`` times the
    largest witnessed magnitude), within the Lipschitz slack, or more than
    the distance of some witnessed magnitude to the radius, when the count
    in the window is not constant on the grid, or when the count below
    -radius is not: an eigenvalue that jumps across the whole window
    between two witnesses keeps the window count but changes the flow.  A
    rejection is a message that names the first failing reason and its
    numbers.  The third value is a mask of the segments that fail on the
    Lipschitz slack and on nothing else.

    When the path carries a gauge ``g`` (:attr:`OperatorPath.gauge`) the
    check is rigorous, not sampled: between a parameter and its nearest
    witness an eigenvalue moves at most half the gauge step of their
    interval (Weyl), so a margin above the slack ``0.5 * max_j (g(t_{j+1})
    - g(t_j))`` proves the count constant on the whole segment.  The
    message names the segment's local slope ``L``, its largest gauge step
    over the witness spacing ``step``.
    """
    mags = np.abs(spectra)
    floor = opts.min_margin * mags.max(axis=(1, 2))
    step = (ts[:, -1] - ts[:, 0]) / (ts.shape[1] - 1)
    gauge = path.gauge
    if gauge is None:
        slack = np.full(len(ts), -np.inf)
    else:
        slack = 0.5 * np.diff(gauge(ts.ravel()).reshape(ts.shape), axis=1).max(axis=1)
    # The certifier's own window always passes; the relative 1e-9 absorbs
    # the rounding of radius and margin.
    touched = np.abs(mags - radius[:, None, None]).min(axis=2) < (margin * (1 - 1e-9))[:, None]
    counts = np.count_nonzero(mags <= radius[:, None, None], axis=2)
    below = np.count_nonzero(spectra < -radius[:, None, None], axis=2)
    drift = counts != counts[:, :1]
    jump = below != below[:, :1]
    low = margin < floor
    slipped = margin <= slack
    witnessed = (touched | drift | jump).any(axis=1)
    failed = low | slipped | witnessed
    reasons: list[str | None] = [None] * len(ts)
    for i in np.flatnonzero(failed).tolist():
        r, m, t = float(radius[i]), float(margin[i]), ts[i]
        if low[i]:
            reasons[i] = f"margin floor: margin {m:.3e} is below the floor {floor[i]:.3e}"
        elif slipped[i]:
            # An eigenvalue could reach the boundary between witnesses.
            reasons[i] = (
                f"Lipschitz slack: margin {m:.3e} does not exceed 0.5 * L * step = "
                f"{slack[i]:.3e} with L = {2.0 * slack[i] / step[i]:.3e}, step = {step[i]:.3e}"
            )
        elif touched[i].any():
            j = int(np.argmax(touched[i]))
            reasons[i] = f"window margin violated at t={float(t[j])!r}"
        elif drift[i].any():
            j = int(np.argmax(drift[i]))
            reasons[i] = (
                f"count drift: the count in [-{r:.3e}, {r:.3e}] is {counts[i, 0]} "
                f"at t={float(t[0])!r} but {counts[i, j]} at t={float(t[j])!r}"
            )
        else:
            j = int(np.argmax(jump[i]))
            reasons[i] = (
                f"jump across the window: {below[i, 0]} eigenvalues below -{r:.3e} "
                f"at t={float(t[0])!r} but {below[i, j]} at t={float(t[j])!r}"
            )
    return counts[:, 0], reasons, slipped & ~(low | witnessed)


def _witness_spectra(path: OperatorPath, lo, hi, opts: FlowOptions) -> tuple[np.ndarray, np.ndarray]:
    """The witness grids ``(S, W)`` of the segments [lo[i], hi[i]] and their spectra ``(S, W, dim)``.

    Row ``i`` of the grids is bit for bit ``np.linspace(lo[i], hi[i], W)``;
    every grid is read with one ``spectra`` call.
    """
    ts = np.linspace(lo, hi, opts.witness_points, axis=1)
    return ts, path.spectra(ts.ravel()).reshape(*ts.shape, -1)


def _upper_count(rows: np.ndarray, radius: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Count the eigenvalues of each ``path.spectra`` row in [0, radius[i]], closed at 0.

    The lower endpoint is inclusive down to the zero band
    (:func:`operators._zero_band`), so a kernel eigenvalue sitting exactly
    at a partition point is counted the same way by both adjacent
    segments, whatever the rounding of its solve.  The upper endpoint is
    certified away from the spectrum; an eigenvalue within ``cluster_tol``
    times the row's scale of it means the certificate is stale, and
    :class:`BoundaryAmbiguity` names the first such row.
    """
    near_tol = cluster_tol * spectral_scale(rows)
    near = np.abs(rows - radius[:, None]).min(axis=1) < near_tol
    if near.any():
        i = int(np.argmax(near))
        raise BoundaryAmbiguity(
            f"eigenvalue within {near_tol[i]:.3e} of certified window radius {float(radius[i])!r}"
        )
    band = _zero_band(rows)[:, None]
    return np.count_nonzero((rows >= -band) & (rows <= radius[:, None]), axis=1)


def spectral_flow(
    path: OperatorPath,
    options: FlowOptions | None = None,
    init_samples: int | None = None,
    max_depth: int | None = None,
) -> FlowCertificate:
    """Compute the spectral flow of ``path`` with a full certificate.

    The partition starts from ``init_samples`` equal segments and is
    bisected wherever certification fails, up to ``max_depth``; beyond
    that :class:`DepthExceeded` names the leftmost such segment and its
    reason, the one depth-first refinement would name.  Segments are
    certified in batches of the leftmost pending ones: ``max(1, 64 >> depth)``
    of them, or up to 64 at any depth where only the witness spacing was
    too coarse (see the module docstring).  So a path that fails after
    certifying something may have solved rows to the right of the failure,
    while the certificate of a path that succeeds does not depend on the
    batches.  The two arguments override the fields of ``options`` of the
    same name.

    The flow is the net number of eigenvalues crossing zero upward,
    evaluated as the telescoping sum of counts in [0, radius_i] over the
    certified partition.  A zero eigenvalue exactly at a path endpoint is
    allowed and counted (the count interval is closed at 0).
    """
    opts = options or FlowOptions()
    if init_samples is not None:
        opts = replace(opts, init_samples=init_samples)
    if max_depth is not None:
        opts = replace(opts, max_depth=max_depth)
    edges = np.linspace(0.0, 1.0, opts.init_samples + 1).tolist()
    # Pending (lo, hi, depth, failure, limited) in depth-first order, the
    # leftmost last.  ``limited`` marks a child of a resolution-limited
    # parent.  A segment rejected at max_depth stays as a marker with its
    # DepthExceeded text; no batch reads past it, and it is raised once it is
    # the leftmost, so it names the segment depth-first order would.
    pending = [(lo, hi, 0, None, False) for lo, hi in zip(edges[:-1], edges[1:])][::-1]
    leaves: list[SegmentWitness] = []
    while pending:
        depth, failure = pending[-1][2:4]
        if failure is not None:
            raise DepthExceeded(failure)
        # One segment at a time until something certifies, so a path that
        # certifies nothing solves what depth-first order solves.  A round
        # that is a run of limited segments grows to _BATCH at any depth.
        size = max(1, _BATCH >> depth) if leaves else 1
        run = bool(leaves)
        batch = []
        while pending and pending[-1][3] is None:
            run = run and pending[-1][4]
            if len(batch) >= (_BATCH if run else size):
                break
            batch.append(pending.pop())
        bounds = np.array([seg[:2] for seg in batch])
        ts, spectra = _witness_spectra(path, bounds[:, 0], bounds[:, 1], opts)
        radius, margin, empty = _widest_gaps(spectra)
        counts, reasons, slack_only = _check_windows(path, ts, spectra, radius, margin, opts)
        grids = ts.tolist()
        for i in reversed(range(len(batch))):
            lo, hi, depth = batch[i][:3]
            reason = _ALL_ZERO if empty[i] else reasons[i]
            if reason is None:
                leaves.append(
                    SegmentWitness(
                        t_lower=lo,
                        t_upper=hi,
                        radius=float(radius[i]),
                        margin=float(margin[i]),
                        grid=tuple(grids[i]),
                        symmetric_count=int(counts[i]),
                    )
                )
            elif depth >= opts.max_depth:
                text = f"not certifiable at bisection depth {depth} ({reason})"
                pending.append((lo, hi, depth, f"segment [{lo:.9g}, {hi:.9g}] {text}", False))
            else:
                # Resolution-limited: only the witness spacing failed and the
                # ends have as many negative eigenvalues (rows are sorted).
                rows = spectra[i]
                limited = (
                    slack_only[i]
                    and not empty[i]
                    and np.searchsorted(rows[0], 0.0) == np.searchsorted(rows[-1], 0.0)
                )
                mid = 0.5 * (lo + hi)
                pending += [(mid, hi, depth + 1, None, limited), (lo, mid, depth + 1, None, limited)]
    leaves.sort(key=lambda w: w.t_lower)
    times = tuple([leaves[0].t_lower] + [w.t_upper for w in leaves])
    # Every partition point ends a witness grid, so these rows are cached.
    rows = path.spectra(times)
    radii = np.array([w.radius for w in leaves])
    ends = np.stack([rows[:-1], rows[1:]], axis=1).reshape(-1, rows.shape[1])
    pairs = _upper_count(ends, np.repeat(radii, 2), opts.cluster_tol).reshape(-1, 2)
    counts = tuple(map(tuple, pairs.tolist()))
    return FlowCertificate(
        times=times,
        witnesses=tuple(leaves),
        counts=counts,
        flow=sum(hi - lo for lo, hi in counts),
        options=opts,
    )
