"""Certified spectral flow for paths of self-adjoint operators.

The flow of a path is computed from a certified partition: on each
segment a symmetric window radius is chosen so that the eigenvalue count
inside the window is constant on a witness grid, and the flow is the
telescoping sum of upper-half counts at the partition points.  The result
is an integer independent of the partition (a tested property), so any
certified partition is as good as any other.

Each segment carries its own window (Phillips, *Self-adjoint Fredholm
operators and spectral flow*, 1996).  A segment of the initial partition
is witnessed on the ``witness_points`` grid.  A rejected segment with
interior witnesses is replaced by its witness intervals, each witnessed
at its two ends alone: their rows are already solved, and by Weyl's
inequality one interval is proved once each eigenvalue's distances to the
window edge at its two ends sum to more than its gauge step (see
:func:`_check_windows`).  A rejected segment with no interior witness is
halved.  The depth counts halvings of the witness spacing, so a split at
the witnesses keeps it and a halving adds one.

Refinement runs in rounds, leftmost first.  The first round reads the
whole initial partition, and each later round the leftmost ``_ROUND``
pending segments, with one ``spectra`` call; a rejected segment's
children take its place.  While fewer segments are pending, a round reads
every child of every segment the last round rejected.  Every round is
decided by one array kernel (:func:`_widest_gaps`, then
:func:`_check_windows`, the one acceptance rule, which
:meth:`FlowCertificate.verify` also runs).  A segment's decision depends
on its own ends alone, so the order in which segments are read changes no
leaf.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
    from; ``witness_points`` the samples of each of those segments on which
    window margins and count constancy are verified (a refined segment is
    witnessed at its two ends); ``max_depth`` the number of times the
    witness spacing may be halved; tolerances are relative to the local
    spectral radius.
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
        count pair each.  The witness grids are read as written, with one
        ``spectra`` call per grid length, and segment by segment, from the
        left, the grid must rise strictly from ``t_lower`` to ``t_upper``
        (whatever schedule made it: ``init_samples`` and ``witness_points``
        are not read), the recorded window must pass the certifier's own rule
        (:func:`_check_windows`: margin floor, Lipschitz slack, witnessed
        margin, a constant count equal to ``symmetric_count`` and a constant
        count below the window), and the end counts recounted from the
        grid's first and last rows must match.  ``flow`` must telescope over
        them.  The error names the leftmost broken segment and its first
        reason.

        The Lipschitz slack passes when, on each witness interval, every
        eigenvalue's distances to the window edge at its two ends sum to
        more than the interval's gauge step plus its rounding allowance
        (the two end rows' zero bands and ``4 eps`` of the two gauge
        values' magnitudes, derived in :func:`_check_windows`).  It replaced
        the rule that the margin exceed half the largest gauge step; every
        distance is at least the margin, so a certificate made under that
        rule verifies unless it passed only within the allowance, and an
        older ``specflow``, which still requires the margin, may reject a
        certificate made now.

        ``specflow verify`` runs this check on a certificate read back from
        its version 2 document (:func:`reporting.flow_certificate_from_document`),
        once the document's ``path`` block names the path built from the
        config.
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
        radius = np.array([w.radius for w in self.witnesses])
        margin = np.array([w.margin for w in self.witnesses])
        grids = [np.array(w.grid, dtype=float) for w in self.witnesses]
        # Segment indices by grid length.  A grid that does not rise strictly
        # from t_lower to t_upper is not read, and that is its reason.
        groups: dict[int, list[int]] = {}
        for i, (w, g) in enumerate(zip(self.witnesses, grids)):
            if g.size > 1 and g[0] == w.t_lower and g[-1] == w.t_upper and (np.diff(g) > 0).all():
                groups.setdefault(g.size, []).append(i)
        bad_grid = "witness grid does not rise strictly from t_lower to t_upper"
        checked: list = [(bad_grid, None, None)] * len(self.witnesses)
        for idx in groups.values():
            ts = np.stack([grids[i] for i in idx])
            spectra = path.spectra(ts.ravel()).reshape(*ts.shape, -1)
            counts, failed, reason = _check_windows(path, ts, spectra, radius[idx], margin[idx], opts)
            for k, i in enumerate(idx):
                checked[i] = (reason(k) if failed[k] else None, int(counts[k]), spectra[k, [0, -1]])
        total = 0
        for i, (w, (reason, count, ends), (c_lo, c_hi)) in enumerate(
            zip(self.witnesses, checked, self.counts)
        ):
            lo, hi = w.t_lower, w.t_upper
            if reason is not None:
                raise CertificateBroken(f"segment [{lo!r}, {hi!r}]: {reason}")
            if count != w.symmetric_count:
                raise CertificateBroken(f"symmetric count drifted at t={w.grid[0]}")
            recounted = _upper_count(ends, radius[[i, i]], opts.cluster_tol)
            for t, recorded, end in zip((lo, hi), (c_lo, c_hi), recounted):
                if recorded != end:
                    raise CertificateBroken(f"count at t={t} drifted")
            total += c_hi - c_lo
        if total != self.flow:
            raise CertificateBroken("flow does not telescope over the recorded counts")


# A refinement round after the first reads at most this many pending
# segments, the leftmost.  Without a bound a path rejected everywhere would
# read rounds of 2**depth segments.
_ROUND = 64

_EPS = float(np.finfo(np.float64).eps)

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
) -> tuple[np.ndarray, np.ndarray, Callable[[int], str]]:
    """The segment acceptance rule: each segment's window count, and whether and why it fails.

    Segment ``i`` has the eigenvalues ``spectra[i]`` ``(W, dim)`` on the
    strictly rising witness grid ``ts[i]`` and the window
    [-radius[i], radius[i]] with ``margin[i]``.  The window is rejected, in
    this order, when the margin is below the floor (``min_margin`` times the
    largest witnessed magnitude), within the Lipschitz slack, or more than
    the distance of some witnessed magnitude to the radius, when the count
    in the window is not constant on the grid, or when the count below
    -radius is not: an eigenvalue that jumps across the whole window
    between two witnesses keeps the window count but changes the flow.  The
    second value is the mask of rejected segments.  The third formats the
    rejection of segment ``i``, a message that names its first failing
    reason and its numbers, on demand.

    When the path carries a gauge ``g`` (:attr:`OperatorPath.gauge`) the
    check is rigorous, not sampled.  The rows of ``spectra`` are sorted, and
    a segment passes the slack when, on every witness interval [t_j,
    t_{j+1}], every eigenvalue's distances to the window edge at the two
    ends sum to more than the gauge step ``dg = g(t_{j+1}) - g(t_j)`` plus
    the rounding allowance ``slack``:
    ``min_k (gap[j, k] + gap[j + 1, k]) > dg + slack`` with ``gap =
    ||lambda_k| - radius|``.  Proof, in exact arithmetic first: by Weyl's
    inequality the ``k``-th eigenvalue moves at most the gauge step over the
    interval, so if it reached +/-radius inside, its two distances would
    sum to at most the step (reverse triangle inequality).  Every distance
    is at least the witnessed margin, so a margin above half the largest
    step plus its allowance passes too (the witnessed-margin check keeps
    its own relative 1e-9 for the rounding of radius and margin).

    The allowance is ``b_j + b_{j+1} + 4 eps (|g(t_j)| + |g(t_{j+1})|)``,
    to first order in ``eps``.  ``b`` is each end row's zero band
    (:func:`operators._zero_band`, ``8 d eps`` times the row's scale), the
    engine's one rule for the error of a computed eigenvalue; forming a
    distance and the sum rounds off at most ``2 eps`` times the scale more,
    which the factor ``8 d`` is taken to cover, so each computed distance
    exceeds the exact one by at most its row's ``b``.  A
    gauge is a short expression in the parameter, and each computed value
    ``g(t)`` is taken to be within ``3.5 eps |g(t)|`` of the exact one; the
    difference of the two rounds off at most ``eps/2 (|g(t_j)| +
    |g(t_{j+1})|)`` more, so the computed ``dg`` is within ``4 eps
    (|g(t_j)| + |g(t_{j+1})|)`` of the exact step.  A computed sum above the
    computed step plus the allowance is therefore an exact sum above the
    exact step.  ``verify`` applies the same rule, through this function.

    The message names the leftmost failing interval, its eigenvalue with
    the smallest sum (counted from 0 at the lowest), its two distances, and
    the interval's local slope ``L``, its gauge step over its width, the
    witness spacing ``step``; the allowance is named only when the sum
    exceeds the step alone.  When the gauge rises by at least half the step
    between two adjacent float64 parameters of the interval
    (:func:`_steepest_float_step`), no witness can split that step, and the
    message ends with the rise and the two parameters.
    """
    mags = np.abs(spectra)
    gap = np.abs(mags - radius[:, None, None])
    floor = opts.min_margin * mags.max(axis=(1, 2))
    step = np.diff(ts, axis=1)
    # The certifier's own window always passes; the relative 1e-9 absorbs
    # the rounding of radius and margin.
    touched = gap.min(axis=2) < (margin * (1 - 1e-9))[:, None]
    counts = np.count_nonzero(mags <= radius[:, None, None], axis=2)
    below = np.count_nonzero(spectra < -radius[:, None, None], axis=2)
    drift = counts != counts[:, :1]
    jump = below != below[:, :1]
    low = margin < floor
    # ``short[i, j]``: on witness interval j of segment i an eigenvalue
    # could reach the window edge between the two witnesses.
    gauge = path.gauge
    if gauge is None:
        short = np.zeros((len(ts), ts.shape[1] - 1), dtype=bool)
    else:
        g = gauge(ts.ravel()).reshape(ts.shape)
        dg = np.diff(g, axis=1)
        # Each witness's rounding: its row's zero band and 4 eps of its |g|.
        err = _zero_band(spectra) + 4 * _EPS * np.abs(g)
        slack = err[:, :-1] + err[:, 1:]
        short = (gap[:, :-1] + gap[:, 1:]).min(axis=2) <= dg + slack
    slipped = short.any(axis=1)
    witnessed = (touched | drift | jump).any(axis=1)

    def reason(i: int) -> str:
        r, m, t = float(radius[i]), float(margin[i]), ts[i]
        if low[i]:
            return f"margin floor: margin {m:.3e} is below the floor {floor[i]:.3e}"
        if slipped[i]:
            j = int(np.argmax(short[i]))
            pair = gap[i, j] + gap[i, j + 1]
            k = int(np.argmin(pair))
            d = dg[i, j]
            allowance = f" plus its rounding allowance {slack[i, j]:.3e}" if pair[k] > d else ""
            why = (
                f"Lipschitz slack: on [{float(t[j])!r}, {float(t[j + 1])!r}] eigenvalue {k} is "
                f"{gap[i, j, k]:.3e} and {gap[i, j + 1, k]:.3e} from the window edge, a sum of "
                f"{pair[k]:.3e} that does not exceed the gauge step {d:.3e}{allowance} "
                f"(L = {d / step[i, j]:.3e} times the witness spacing {step[i, j]:.3e})"
            )
            a, b, rise = _steepest_float_step(gauge, float(t[j]), float(t[j + 1]))
            if rise >= 0.5 * d:
                why += (
                    f"; the gauge rises by {rise:.3e} between the adjacent floats {a!r} and "
                    f"{b!r}, so no witness can split that step"
                )
            return why
        if touched[i].any():
            j = int(np.argmax(touched[i]))
            return f"window margin violated at t={float(t[j])!r}"
        if drift[i].any():
            j = int(np.argmax(drift[i]))
            return (
                f"count drift: the count in [-{r:.3e}, {r:.3e}] is {counts[i, 0]} "
                f"at t={float(t[0])!r} but {counts[i, j]} at t={float(t[j])!r}"
            )
        j = int(np.argmax(jump[i]))
        return (
            f"jump across the window: {below[i, 0]} eigenvalues below -{r:.3e} "
            f"at t={float(t[0])!r} but {below[i, j]} at t={float(t[j])!r}"
        )

    return counts[:, 0], low | slipped | witnessed, reason


def _steepest_float_step(gauge, lo: float, hi: float) -> tuple[float, float, float]:
    """Adjacent float64 parameters in [lo, hi], ``0 <= lo < hi``, and the gauge's rise across them.

    The gauge alone is bisected, with no eigensolve: the bit patterns of
    nonnegative floats are ordered as the floats are, so halving the range
    of patterns ends at two adjacent floats after at most 64 gauge
    evaluations.  Each step keeps the half over which the gauge rises
    more.  A gauge never decreases, so a rise of at least half the whole
    rise between two adjacent floats lies in the half kept, and is found.
    """
    bits = (np.array([lo, hi]) + 0.0).view(np.int64).tolist()  # + 0.0 maps -0.0 to 0.0
    g = gauge(np.array([lo, hi], dtype=np.float64)).tolist()
    while bits[1] - bits[0] > 1:
        mid = (bits[0] + bits[1]) // 2
        t = np.array([mid], dtype=np.int64).view(np.float64)
        g_mid = float(gauge(t)[0])
        side = 1 if g_mid - g[0] >= g[1] - g_mid else 0
        bits[side], g[side] = mid, g_mid
    a, b = np.array(bits, dtype=np.int64).view(np.float64).tolist()
    return a, b, g[1] - g[0]


def _witness_spectra(path: OperatorPath, lo, hi, points: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``points``-point witness grids ``(S, W)`` of [lo[i], hi[i]] and their spectra ``(S, W, dim)``.

    Row ``i`` of the grids is bit for bit ``np.linspace(lo[i], hi[i], W)``,
    which for two points is ``(lo[i], hi[i])``; every grid is read with one
    ``spectra`` call.
    """
    ts = np.linspace(lo, hi, points, axis=1)
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

    The partition starts from ``init_samples`` equal segments.  A rejected
    segment is split at its witnesses, or halved once it has no interior
    witness, up to ``max_depth`` halvings; beyond that
    :class:`DepthExceeded` names the leftmost such segment and its reason,
    the one depth-first refinement would name, and the flow that endpoint
    inertia gives, ``neg(A(0)) - neg(A(1))`` counted outside the zero band.
    Each round after the first reads the leftmost 64 pending segments,
    which is every child of every segment the previous round rejected
    while there are no more.  So a path that fails may have refined some
    of [0, 1] right of the failure while its branch went deeper, at most
    64 segments per level of that branch; the certificate of a path that
    succeeds does not depend on the order.  The two arguments override
    the fields of ``options`` of the same name.

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
    # Pending segments (lo, hi, depth), left to right.  The first round reads
    # the whole initial partition and each later round the leftmost _ROUND
    # pending segments; a rejected segment's children take its place.  Once
    # a segment is rejected at max_depth, its DepthExceeded text is kept and
    # every segment right of it is dropped; a later one can only lie left of
    # it and overwrites the text, so the failure raised is the leftmost, the
    # one depth-first order would name.
    lo, hi = edges[:-1], edges[1:]
    depth = np.zeros(lo.size, dtype=int)
    take = lo.size
    points = opts.witness_points
    leaves: list[SegmentWitness] = []
    failure: str | None = None
    while lo.size:
        rest = [lo[take:], hi[take:], depth[take:]]
        lo, hi, depth = lo[:take], hi[:take], depth[:take]
        ts, spectra = _witness_spectra(path, lo, hi, points)
        radius, margin, empty = _widest_gaps(spectra)
        counts, failed, reason = _check_windows(path, ts, spectra, radius, margin, opts)
        failed |= empty
        ok = np.flatnonzero(~failed)
        leaves += map(
            SegmentWitness,
            lo[ok].tolist(),
            hi[ok].tolist(),
            radius[ok].tolist(),
            margin[ok].tolist(),
            map(tuple, ts[ok].tolist()),
            counts[ok].tolist(),
        )
        stuck = failed & (depth >= opts.max_depth)
        if stuck.any():
            i = int(np.argmax(stuck))
            why = _ALL_ZERO if empty[i] else reason(i)
            failure = (
                f"segment [{lo[i]:.9g}, {hi[i]:.9g}] not certifiable at bisection depth "
                f"{depth[i]} ({why})"
            )
            failed[i:] = False
            rest = [a[:0] for a in rest]
        rows = np.flatnonzero(failed)
        if points > 2:
            # Split at the witnesses: the spacing, and so the depth, stays.
            lo, hi, depth = ts[rows, :-1], ts[rows, 1:], np.repeat(depth[rows], points - 1)
        else:
            mid = 0.5 * (lo[rows] + hi[rows])
            lo, hi = np.stack([lo[rows], mid], axis=1), np.stack([mid, hi[rows]], axis=1)
            depth = np.repeat(depth[rows] + 1, 2)
        lo, hi, depth = (np.concatenate([a.ravel(), b]) for a, b in zip((lo, hi, depth), rest))
        # Later rounds read refined segments, witnessed at their two ends.
        points = 2
        take = _ROUND
    if failure is not None:
        ends = path.spectra([0.0, 1.0])
        neg = np.count_nonzero(ends < -_zero_band(ends)[:, None], axis=1)
        raise DepthExceeded(f"{failure}; endpoint inertia gives flow {int(neg[0] - neg[1])}")
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
