"""Certified spectral flow for paths of self-adjoint operators.

The flow of a path is computed from a certified partition: on each
segment a symmetric window radius is chosen so that the eigenvalue count
inside the window is constant on a witness grid, and the flow is the
telescoping sum of upper-half counts at the partition points.  The result
is an integer independent of the partition (a tested property), so any
certified partition is as good as any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .errors import BoundaryAmbiguity, CertificateBroken, DepthExceeded
from .operators import DEFAULT_CLUSTER_TOL, DEFAULT_MIN_MARGIN, spectral_scale
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
        count pair each, and every witness grid must be the
        ``options.witness_points``-point grid of its segment.  Each
        segment's recorded window then passes the certifier's own check
        (:func:`_check_window`: margin floor, Lipschitz slack, witnessed
        margin, a constant count equal to ``symmetric_count`` and a constant
        count below the window), the end counts are recounted from the
        grid's first and last rows, and ``flow`` must telescope over them.
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
        total = 0
        for w, (c_lo, c_hi) in zip(self.witnesses, self.counts):
            lo, hi = w.t_lower, w.t_upper
            ts = np.linspace(lo, hi, opts.witness_points)
            if w.grid != tuple(ts.tolist()):
                raise CertificateBroken(
                    f"segment [{lo!r}, {hi!r}]: witness grid is not the "
                    f"{opts.witness_points}-point grid of the segment"
                )
            spectra = path.spectra(ts)
            count = _check_window(path, ts, spectra, w.radius, w.margin, opts)
            if isinstance(count, str):
                raise CertificateBroken(f"segment [{lo!r}, {hi!r}]: {count}")
            if count != w.symmetric_count:
                raise CertificateBroken(f"symmetric count drifted at t={w.grid[0]}")
            ends = [_upper_count(spectra[j], w.radius, opts.cluster_tol) for j in (0, -1)]
            for t, recorded, recounted in zip((lo, hi), (c_lo, c_hi), ends):
                if recorded != recounted:
                    raise CertificateBroken(f"count at t={t} drifted")
            total += c_hi - c_lo
        if total != self.flow:
            raise CertificateBroken("flow does not telescope over the recorded counts")


def _widest_gap(spectra: np.ndarray) -> tuple[float, float] | str:
    """Midpoint and half-width of the widest gap in the pooled magnitudes, or why none exists.

    0 is always a level, so the radius stays positive.  Repeated levels
    only add empty gaps, and ``argmax`` takes the first widest one, so
    sorting gives the gap that the distinct levels would.
    """
    pooled = np.sort(np.concatenate([[0.0], np.abs(spectra).ravel()]))
    widths = np.diff(pooled)
    k = int(np.argmax(widths))
    if widths[k] == 0.0:
        return "all zero: every witnessed eigenvalue is 0, so no window radius exists"
    return float(0.5 * (pooled[k] + pooled[k + 1])), float(0.5 * widths[k])


def _check_window(
    path: OperatorPath,
    ts: np.ndarray,
    spectra: np.ndarray,
    radius: float,
    margin: float,
    opts: FlowOptions,
) -> int | str:
    """The segment acceptance rule: the constant window count, or why it fails.

    ``spectra`` holds the eigenvalues on the equally spaced witness grid
    ``ts``.  The window [-radius, radius] is rejected, in this order, when
    ``margin`` is below the floor (``min_margin`` times the largest
    witnessed magnitude), within the Lipschitz slack, or more than the
    distance of some witnessed magnitude to the radius, when the count in
    the window is not constant on the grid, or when the count below
    -radius is not: an eigenvalue that jumps across the whole window
    between two witnesses keeps the window count but changes the flow.  A
    rejection is a message that names the reason and its numbers.

    When the path carries a Lipschitz bound L the check is rigorous, not
    sampled: eigenvalues move at most L*h/2 between a parameter and its
    nearest witness (Weyl), so a margin above that bound proves the count
    constant on the whole segment.
    """
    mags = np.abs(spectra)
    floor = opts.min_margin * float(mags.max())
    if margin < floor:
        return f"margin floor: margin {margin:.3e} is below the floor {floor:.3e}"
    if path.lipschitz is not None and path.lipschitz > 0:
        step = float(ts[-1] - ts[0]) / (len(ts) - 1)
        slack = 0.5 * path.lipschitz * step
        if margin <= slack:
            # An eigenvalue could reach the boundary between witnesses.
            return (
                f"Lipschitz slack: margin {margin:.3e} does not exceed "
                f"0.5 * L * step = {slack:.3e} with L = {path.lipschitz:.3e}, step = {step:.3e}"
            )
    # The certifier's own window always passes; the relative 1e-9 absorbs
    # the rounding of radius and margin.
    distance = np.abs(mags - radius)
    least = margin * (1 - 1e-9)
    if distance.min() < least:
        j = int(np.argmax(distance.min(axis=1) < least))
        return f"window margin violated at t={float(ts[j])!r}"
    counts = np.count_nonzero(mags <= radius, axis=1)
    drift = np.flatnonzero(counts != counts[0])
    if drift.size:
        j = int(drift[0])
        return (
            f"count drift: the count in [-{radius:.3e}, {radius:.3e}] is {counts[0]} "
            f"at t={float(ts[0])!r} but {counts[j]} at t={float(ts[j])!r}"
        )
    below = np.count_nonzero(spectra < -radius, axis=1)
    jump = np.flatnonzero(below != below[0])
    if jump.size:
        j = int(jump[0])
        return (
            f"jump across the window: {below[0]} eigenvalues below -{radius:.3e} "
            f"at t={float(ts[0])!r} but {below[j]} at t={float(ts[j])!r}"
        )
    return int(counts[0])


def _certify_segment(
    path: OperatorPath, lo: float, hi: float, opts: FlowOptions
) -> SegmentWitness | str:
    """Certify [lo, hi] as a single segment, or say why it cannot be.

    :func:`_widest_gap` chooses the window; :func:`_check_window`, which
    :meth:`FlowCertificate.verify` also runs, accepts it or names the reason.
    """
    ts = np.linspace(lo, hi, opts.witness_points)
    spectra = path.spectra(ts)
    window = _widest_gap(spectra)
    if isinstance(window, str):
        return window
    radius, margin = window
    count = _check_window(path, ts, spectra, radius, margin, opts)
    if isinstance(count, str):
        return count
    return SegmentWitness(
        t_lower=float(lo),
        t_upper=float(hi),
        radius=radius,
        margin=margin,
        grid=tuple(float(t) for t in ts),
        symmetric_count=count,
    )


def _refine(
    path: OperatorPath,
    lo: float,
    hi: float,
    depth: int,
    opts: FlowOptions,
    out: list[SegmentWitness],
) -> None:
    w = _certify_segment(path, lo, hi, opts)
    if isinstance(w, SegmentWitness):
        out.append(w)
        return
    if depth >= opts.max_depth:
        raise DepthExceeded(
            f"segment [{lo:.9g}, {hi:.9g}] not certifiable at bisection depth {depth} ({w})"
        )
    mid = 0.5 * (lo + hi)
    _refine(path, lo, mid, depth + 1, opts, out)
    _refine(path, mid, hi, depth + 1, opts, out)


def _upper_count(values: np.ndarray, radius: float, cluster_tol: float) -> int:
    """Count the eigenvalues of one ``path.spectra`` row in [0, radius], closed at 0.

    The lower endpoint is inclusive with a small tolerance so a kernel
    eigenvalue sitting exactly at a partition point is counted the same
    way by both adjacent segments.  The upper endpoint is certified away
    from the spectrum; a collision there means the certificate is stale.
    """
    zero_tol = cluster_tol * float(spectral_scale(values))
    if float(np.abs(values - radius).min()) < zero_tol:
        raise BoundaryAmbiguity(
            f"eigenvalue within {zero_tol:.3e} of certified window radius {radius!r}"
        )
    return int(np.count_nonzero((values >= -zero_tol) & (values <= radius)))


def spectral_flow(
    path: OperatorPath,
    options: FlowOptions | None = None,
    init_samples: int | None = None,
    max_depth: int | None = None,
) -> FlowCertificate:
    """Compute the spectral flow of ``path`` with a full certificate.

    The partition starts from ``init_samples`` equal segments and is
    bisected wherever certification fails, up to ``max_depth``; beyond
    that :class:`DepthExceeded` names the segment and the reason.  The two
    arguments override the fields of ``options`` of the same name.

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
    edges = np.linspace(0.0, 1.0, opts.init_samples + 1)
    witnesses: list[SegmentWitness] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        _refine(path, float(lo), float(hi), 0, opts, witnesses)
    times = tuple([witnesses[0].t_lower] + [w.t_upper for w in witnesses])
    # Every partition point ends a witness grid, so these rows are cached.
    rows = path.spectra(times)
    counts = tuple(
        tuple(_upper_count(row, w.radius, opts.cluster_tol) for row in rows[i : i + 2])
        for i, w in enumerate(witnesses)
    )
    return FlowCertificate(
        times=times,
        witnesses=tuple(witnesses),
        counts=counts,
        flow=sum(hi - lo for lo, hi in counts),
        options=opts,
    )
