"""Certified spectral flow for paths of self-adjoint operators.

The flow of a path is computed from a certified partition: on each
segment a symmetric window radius is chosen so that the eigenvalue count
inside the window is constant on a witness grid, and the flow is the
telescoping sum of upper-half counts at the partition points.  The result
is an integer independent of the partition (a tested property), so any
certified partition is as good as any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BoundaryAmbiguity, CertificateBroken, DepthExceeded
from .operators import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_MIN_MARGIN,
    SelfAdjointOperator,
    solve_spectra,
)
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
        if self.init_samples < 1:
            raise ValueError("init_samples must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.witness_points < 2:
            raise ValueError("witness_points must be at least 2")
        if not (self.cluster_tol > 0 and self.min_margin > 0):
            raise ValueError("tolerances must be positive")


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
        """Re-derive every certified quantity; raise CertificateBroken on drift."""
        total = 0
        for w, (c_lo, c_hi) in zip(self.witnesses, self.counts):
            ops = path._operators(w.grid)
            solve_spectra(ops)
            for t, op in zip(w.grid, ops):
                spec = op.spectrum
                if spec.min_distance(w.radius) < w.margin * (1 - 1e-9) or (
                    spec.min_distance(-w.radius) < w.margin * (1 - 1e-9)
                ):
                    raise CertificateBroken(f"window margin violated at t={t}")
                if spec.count_between(-w.radius, w.radius) != w.symmetric_count:
                    raise CertificateBroken(f"symmetric count drifted at t={t}")
            if _upper_count(path.at(w.t_lower), w.radius, self.options.cluster_tol) != c_lo:
                raise CertificateBroken(f"count at t={w.t_lower} drifted")
            if _upper_count(path.at(w.t_upper), w.radius, self.options.cluster_tol) != c_hi:
                raise CertificateBroken(f"count at t={w.t_upper} drifted")
            total += c_hi - c_lo
        if total != self.flow:
            raise CertificateBroken("flow does not telescope over the recorded counts")


def _certify_segment(
    path: OperatorPath, lo: float, hi: float, opts: FlowOptions
) -> SegmentWitness | str:
    """Certify [lo, hi] as a single segment, or say why it cannot be.

    The window radius is the midpoint of the widest gap in the pooled
    eigenvalue magnitudes over the witness grid (0 is always a level, so
    the radius stays positive).  The segment is rejected when every
    witnessed eigenvalue is zero, the margin is below the floor, the
    margin is within the Lipschitz slack, or the symmetric count is not
    constant on the grid; the rejection is returned as a message that
    names the reason and its numbers.

    When the path carries a Lipschitz bound L the certificate is rigorous,
    not sampled: eigenvalues move at most L*h/2 between a parameter and
    its nearest witness (Weyl), so a margin above that bound proves the
    count constant on the whole segment.
    """
    ts = np.linspace(lo, hi, opts.witness_points)
    spectra = path.spectra(ts)
    pooled = np.unique(np.concatenate([[0.0], np.abs(spectra).ravel()]))
    if pooled.size < 2:
        return "all zero: every witnessed eigenvalue is 0, so no window radius exists"
    widths = np.diff(pooled)
    k = int(np.argmax(widths))
    radius = float(0.5 * (pooled[k] + pooled[k + 1]))
    margin = float(0.5 * widths[k])
    floor = opts.min_margin * float(pooled[-1])
    if margin < floor:
        return f"margin floor: margin {margin:.3e} is below the floor {floor:.3e}"
    if path.lipschitz is not None and path.lipschitz > 0:
        step = (hi - lo) / (opts.witness_points - 1)
        slack = 0.5 * path.lipschitz * step
        if margin <= slack:
            # An eigenvalue could reach the boundary between witnesses.
            return (
                f"Lipschitz slack: margin {margin:.3e} does not exceed "
                f"0.5 * L * step = {slack:.3e} with L = {path.lipschitz:.3e}, step = {step:.3e}"
            )
    counts = np.count_nonzero((spectra >= -radius) & (spectra <= radius), axis=1)
    drift = np.flatnonzero(counts != counts[0])
    if drift.size:
        j = int(drift[0])
        return (
            f"count drift: the count in [-{radius:.3e}, {radius:.3e}] is {counts[0]} "
            f"at t={float(ts[0])!r} but {counts[j]} at t={float(ts[j])!r}"
        )
    return SegmentWitness(
        t_lower=float(lo),
        t_upper=float(hi),
        radius=radius,
        margin=margin,
        grid=tuple(float(t) for t in ts),
        symmetric_count=int(counts[0]),
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


def _upper_count(op: SelfAdjointOperator, radius: float, cluster_tol: float) -> int:
    """Count eigenvalues in [0, radius], closed at 0.

    The lower endpoint is inclusive with a small tolerance so a kernel
    eigenvalue sitting exactly at a partition point is counted the same
    way by both adjacent segments.  The upper endpoint is certified away
    from the spectrum; a collision there means the certificate is stale.
    """
    spec = op.spectrum
    zero_tol = cluster_tol * spec.scale
    if spec.min_distance(radius) < zero_tol:
        raise BoundaryAmbiguity(
            f"eigenvalue within {zero_tol:.3e} of certified window radius {radius!r}"
        )
    vals = spec.values
    return int(np.count_nonzero((vals >= -zero_tol) & (vals <= radius)))


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
    counts: list[tuple[int, int]] = []
    flow = 0
    for w in witnesses:
        c_lo = _upper_count(path.at(w.t_lower), w.radius, opts.cluster_tol)
        c_hi = _upper_count(path.at(w.t_upper), w.radius, opts.cluster_tol)
        counts.append((c_lo, c_hi))
        flow += c_hi - c_lo
    return FlowCertificate(
        times=tuple([witnesses[0].t_lower] + [w.t_upper for w in witnesses]),
        witnesses=tuple(witnesses),
        counts=tuple(counts),
        flow=flow,
        options=opts,
    )
