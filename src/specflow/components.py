"""Distinct path components of the invertible locus, in the convex model.

Builds paths from a common invertible basepoint with pairwise-distinct
flows by induction: at each step a generator supplies a path whose flow
exceeds every current pairwise flow difference; the step keeps either the
connector-plus-generator concatenation or, on a flow collision, the
connector alone (the collision itself guarantees the connector's flow is
fresh).  A separate certifier then checks, pair by pair, that the
straight segment between path endpoints must leave the invertible locus,
locating a singular operator on every segment in one lockstep bisection.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CertificateBroken, GeneratorFailure, InvalidSpec, SpectralFlowError
from .flow import FlowOptions, spectral_flow
from .gluing import GluingSpec, glue
from .families import BaerFamilySpec
from .operators import SelfAdjointOperator, spectral_scale
from .paths import (
    OperatorPath,
    _endpoint_gap,
    _segment_rows,
    concat,
    constant_path,
    straight_segment,
)

__all__ = [
    "LedgerEntry",
    "ComponentReport",
    "PairCertificate",
    "ComponentCertification",
    "build_distinct_paths",
    "certify_distinct_components",
    "default_component_setup",
]

# Relative size at or below which the smallest |eigenvalue| counts as singular.
SINGULARITY_RTOL = 1e-8
BISECTION_STEPS = 60


@dataclass(frozen=True)
class LedgerEntry:
    """Record of one induction step.

    ``branch`` is "candidate" when the concatenation was kept and
    "connector" when a flow collision forced the fallback; ``note``
    narrates the numeric collision argument.
    """

    step: int
    bound: int
    generator_flow: int
    connector_flow: int
    candidate_flow: int
    branch: str
    collision_with: int | None
    note: str


@dataclass(frozen=True)
class PairCertificate:
    """Certified non-connectability of two path endpoints.

    ``singular_t`` locates an operator on the straight endpoint segment
    whose smallest |eigenvalue| is at most ``SINGULARITY_RTOL`` times its
    spectral radius (the rule :class:`ComponentReport` applies to
    endpoints), witnessing that the segment leaves the invertible locus.
    """

    i: int
    j: int
    flow_i: int
    flow_j: int
    segment_flow: int
    singular_t: float
    min_abs_eigenvalue: float
    spectral_radius: float


@dataclass(frozen=True)
class ComponentCertification:
    pairs: tuple[PairCertificate, ...]
    verdict: str


def _singular(values: np.ndarray) -> bool:
    """Smallest |eigenvalue| at most ``SINGULARITY_RTOL`` times the row's scale."""
    return float(np.abs(values).min()) <= SINGULARITY_RTOL * float(spectral_scale(values))


@dataclass(frozen=True)
class ComponentReport:
    """Basepoint, paths with pairwise-distinct flows, and the step ledger."""

    basepoint: SelfAdjointOperator
    paths: tuple[OperatorPath, ...]
    flows: tuple[int, ...]
    ledger: tuple[LedgerEntry, ...]

    def __post_init__(self):
        if len(self.paths) != len(self.flows):
            raise ValueError("paths and flows must have equal length")
        if len(set(self.flows)) != len(self.flows):
            raise ValueError(f"flows must be pairwise distinct, got {self.flows}")
        if _singular(self.basepoint.spectrum):
            raise ValueError("basepoint must be invertible")
        for idx, p in enumerate(self.paths):
            if p.dim != self.basepoint.dim:
                raise ValueError(f"path {idx} has dim {p.dim}, basepoint {self.basepoint.dim}")
            gap = _endpoint_gap(self.basepoint, p.at(0.0))
            if gap is not None:
                raise ValueError(f"path {idx} does not start at the basepoint ({gap})")
            for t, row in zip((0.0, 1.0), p.spectra([0.0, 1.0])):
                if _singular(row):
                    raise ValueError(f"path {idx} endpoint t={t} is not invertible")


def build_distinct_paths(
    k: int,
    flow_generator: Callable[[int], OperatorPath],
    basepoint: SelfAdjointOperator,
    options: FlowOptions | None = None,
) -> ComponentReport:
    """Inductively build ``k`` basepoint paths with pairwise-distinct flows.

    ``flow_generator(bound)`` must return a path with invertible ends
    whose flow strictly exceeds ``bound`` (the current maximal pairwise
    flow difference); anything weaker raises :class:`GeneratorFailure`.
    The first path is the constant basepoint path with flow 0.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    opts = options or FlowOptions()
    paths: list[OperatorPath] = [constant_path(basepoint)]
    flows: list[int] = [spectral_flow(paths[0], opts).flow]
    ledger: list[LedgerEntry] = []
    while len(paths) < k:
        step = len(paths) + 1
        bound = max(abs(a - b) for a in flows for b in flows)
        fresh = flow_generator(bound)
        if fresh.dim != basepoint.dim:
            raise GeneratorFailure(
                f"generator returned dim {fresh.dim}, ambient dim is {basepoint.dim}"
            )
        fresh_flow = spectral_flow(fresh, opts).flow
        if fresh_flow <= bound:
            raise GeneratorFailure(
                f"generator flow {fresh_flow} does not exceed the required bound {bound}"
            )
        connector = straight_segment(basepoint, fresh.at(0.0))
        connector_flow = spectral_flow(connector, opts).flow
        candidate = concat(connector, fresh)
        candidate_flow = spectral_flow(candidate, opts).flow
        if candidate_flow != connector_flow + fresh_flow:
            raise CertificateBroken(
                f"flow additivity failed on concatenation: {candidate_flow} != "
                f"{connector_flow} + {fresh_flow}"
            )
        if candidate_flow not in flows:
            kept, kept_flow, branch, collision = candidate, candidate_flow, "candidate", None
            note = f"flow {candidate_flow} is new; kept the concatenated path"
        else:
            collision = flows.index(candidate_flow)
            if connector_flow in flows:
                other = flows.index(connector_flow)
                raise CertificateBroken(
                    f"connector flow {connector_flow} collides with path {other} while the "
                    f"concatenation collides with path {collision}: that would force "
                    f"{flows[collision]} - {flows[other]} = {fresh_flow} > {bound}, which "
                    f"is impossible for flows already within the bound"
                )
            kept, kept_flow, branch = connector, connector_flow, "connector"
            note = (
                f"concatenated flow {candidate_flow} collides with path {collision}; "
                f"kept the connector (flow {connector_flow}). Reusing an existing "
                f"flow f would force {candidate_flow} - f = {fresh_flow} > bound "
                f"{bound} >= all pairwise differences, a contradiction, so the "
                f"connector flow is necessarily new"
            )
        paths.append(kept)
        flows.append(kept_flow)
        ledger.append(
            LedgerEntry(
                step=step,
                bound=bound,
                generator_flow=fresh_flow,
                connector_flow=connector_flow,
                candidate_flow=candidate_flow,
                branch=branch,
                collision_with=collision,
                note=note,
            )
        )
    return ComponentReport(
        basepoint=basepoint,
        paths=tuple(paths),
        flows=tuple(flows),
        ledger=tuple(ledger),
    )


def _locate_singular(segments: list[OperatorPath]) -> list[tuple[float, np.ndarray] | None]:
    """Bisect every straight segment on its negative-eigenvalue count, in lockstep.

    Returns, per segment, t and the segment's read-only row at t, or
    ``None`` when the endpoint counts are equal and there is no crossing
    to bracket; they differ whenever the segment flow is nonzero.  Each
    segment keeps its own bracket and leaves the bisection once its
    midpoint is no longer strictly inside it; each level reads the
    midpoints of every segment still bisecting with one
    :func:`paths._segment_rows` call.  Rows at the endpoints and the final
    t are cached reads: the segment's flow solved the endpoints, and the
    bisection the points it revisits.
    """
    n = len(segments)
    if not n:
        return []

    def neg(idx: np.ndarray, ts: list[float]) -> np.ndarray:
        rows = _segment_rows([segments[k] for k in idx], ts)
        return np.count_nonzero(np.array(rows) < 0.0, axis=1)

    every = np.arange(n)
    n_lo, n_hi = neg(every, [0.0] * n), neg(every, [1.0] * n)
    crossing = np.flatnonzero(n_lo != n_hi)
    lo, hi = np.zeros(n), np.ones(n)
    live = crossing
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo[live] + hi[live])
        inside = (lo[live] < mid) & (mid < hi[live])  # adjacent floats keep their bracket
        live, mid = live[inside], mid[inside]
        if not live.size:
            break
        flipped = neg(live, mid.tolist()) != n_lo[live]
        hi[live[flipped]] = mid[flipped]
        lo[live[~flipped]] = mid[~flipped]
    ts = (0.5 * (lo[crossing] + hi[crossing])).tolist()
    rows = _segment_rows([segments[k] for k in crossing], ts)
    located: list[tuple[float, np.ndarray] | None] = [None] * n
    for k, t, row in zip(crossing.tolist(), ts, rows):
        located[k] = (t, row)
    return located


def certify_distinct_components(
    report: ComponentReport,
    options: FlowOptions | None = None,
) -> ComponentCertification:
    """Certify that report endpoints lie in distinct invertible components.

    For each pair the loop through both paths and the straight endpoint
    segment contracts affinely in the convex model, so its flow vanishes
    and the segment flow must equal the flow difference; since flows
    differ, the segment cannot stay invertible.  The certifier re-derives
    every segment flow, locates a singular operator on every segment in
    one lockstep bisection (:func:`_locate_singular`), and raises
    :class:`CertificateBroken` if a segment stays invertible even though
    the flows differ (a bug detector, not an expected outcome).  Errors
    are raised for the first failing pair in ``(i, j)`` order: the flows
    stop at the first pair whose flow fails, and the pairs before it are
    located and checked before that error is raised.
    """
    opts = options or FlowOptions()
    n = len(report.paths)
    ends = [p.at(1.0) for p in report.paths]
    segments: list[OperatorPath] = []
    checked: list[tuple[int, int, int]] = []
    failure: SpectralFlowError | None = None
    for i, j in combinations(range(n), 2):
        seg = straight_segment(ends[i], ends[j])
        try:
            seg_flow = spectral_flow(seg, opts).flow
        except SpectralFlowError as exc:
            failure = exc
            break
        expected = report.flows[j] - report.flows[i]
        if seg_flow != expected:
            failure = CertificateBroken(
                f"segment flow {seg_flow} between endpoints {i} and {j} does not "
                f"match the flow difference {expected}; contracting the loop "
                "would not close"
            )
            break
        segments.append(seg)
        checked.append((i, j, seg_flow))
    pairs: list[PairCertificate] = []
    for (i, j, seg_flow), located in zip(checked, _locate_singular(segments)):
        if located is None:
            raise CertificateBroken(
                "segment endpoints have equal negative counts; no crossing to locate"
            )
        t, row = located
        min_abs, radius = float(np.abs(row).min()), float(np.abs(row).max())
        if not _singular(row):
            raise CertificateBroken(
                f"no singular operator located on the endpoint segment of pair "
                f"({i}, {j}) although flows differ: min |eig| {min_abs:.3e} at "
                f"t={t!r} vs threshold {SINGULARITY_RTOL * spectral_scale(row):.3e}"
            )
        pairs.append(
            PairCertificate(
                i=i,
                j=j,
                flow_i=report.flows[i],
                flow_j=report.flows[j],
                segment_flow=seg_flow,
                singular_t=t,
                min_abs_eigenvalue=min_abs,
                spectral_radius=radius,
            )
        )
    if failure is not None:
        raise failure
    return ComponentCertification(
        pairs=tuple(pairs),
        verdict="distinct components certified in the convex model",
    )


def _slot_pool(n: int) -> tuple[float, ...]:
    """Alternating-sign invertible filler spectrum: 5, -5, 7, -7, ..."""
    return tuple((5.0 + 2.0 * (i // 2)) * (1.0 if i % 2 == 0 else -1.0) for i in range(n))


def default_component_setup(
    ambient_dim: int = 24,
    epsilon: float = 0.25,
    seed: int = 0,
) -> tuple[SelfAdjointOperator, Callable[[int], OperatorPath]]:
    """Basepoint and merge-backed flow generator in a fixed ambient dimension.

    The generator answers a bound B with a merged crossing path of
    multiplicity max(1, B) + 1, so its flow strictly exceeds B; the slots
    freed for the crossing block come off the front of the filler pool.
    """
    if ambient_dim < 8:
        raise InvalidSpec(f"ambient_dim must be at least 8, got {ambient_dim!r}")
    pool = _slot_pool(ambient_dim)
    basepoint = SelfAdjointOperator.from_diagonal(pool)

    def generator(bound: int) -> OperatorPath:
        m = max(1, bound)
        mult = m + 1
        if mult + 2 >= ambient_dim:
            raise InvalidSpec(
                f"needed multiplicity {mult} does not fit in ambient dimension "
                f"{ambient_dim}; raise ambient_dim"
            )
        static = pool[: ambient_dim - mult]
        spec = GluingSpec(
            base=static[2:],
            sphere_family=BaerFamilySpec(m=m, background=static[:2]),
            epsilon=epsilon,
            seed=seed * 1000003 + m,
        )
        return glue(spec).path

    return basepoint, generator
