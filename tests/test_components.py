"""Distinct-components induction and pairwise certification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rotated_report
from specflow import (
    CertificateBroken,
    ComponentReport,
    GeneratorFailure,
    SelfAdjointOperator,
    build_distinct_paths,
    certify_distinct_components,
    constant_path,
    default_component_setup,
    matrix_path,
    oracle_flow,
    spectral_flow,
    straight_segment,
)
from specflow import components
from specflow.cli import main
from specflow.operators import _zero_band, spectral_scale

BASEPOINT = SelfAdjointOperator.from_diagonal([5.0, 5.0, -5.0, 7.0])


def single_slot_generator(bound: int):
    """Adversarial fuel: slot 0 sweeps -1..1, everything else static.

    The connector from BASEPOINT drops slot 0 from 5 to -1 (flow -1), the
    generator path adds +1, so the concatenation always collides with the
    constant path's flow 0 and forces the fallback branch.
    """
    return matrix_path(4, lambda t: np.diag([2 * t - 1, 5.0, -5.0, 7.0]))


class TestBuildDistinctPaths:
    def test_k1_constant_path(self):
        report = build_distinct_paths(1, single_slot_generator, BASEPOINT)
        assert report.flows == (0,)
        assert report.ledger == ()
        assert np.array_equal(report.paths[0].at(0.7).entries, BASEPOINT.entries)

    def test_k3_distinct_flows_with_default_generator(self):
        basepoint, gen = default_component_setup(ambient_dim=16, epsilon=0.25, seed=0)
        report = build_distinct_paths(3, gen, basepoint)
        assert len(set(report.flows)) == 3
        for p, f in zip(report.paths, report.flows):
            assert oracle_flow(p).flow == f

    def test_adversarial_bound_violation(self):
        def lazy_generator(bound: int):
            return constant_path(BASEPOINT)  # flow 0, never exceeds the bound

        with pytest.raises(GeneratorFailure, match="does not exceed"):
            build_distinct_paths(2, lazy_generator, BASEPOINT)

    def test_fallback_branch_records_contradiction(self):
        report = build_distinct_paths(2, single_slot_generator, BASEPOINT)
        assert report.flows == (0, -1)
        entry = report.ledger[0]
        assert entry.branch == "connector"
        assert entry.collision_with == 0
        assert entry.candidate_flow == 0
        assert entry.generator_flow == 1
        assert entry.connector_flow == -1
        # the ledger narrates the impossibility of reusing an old flow
        assert "contradiction" in entry.note
        assert f"> bound {entry.bound}" in entry.note
        # and the recorded numbers satisfy the inequality that makes it work
        assert entry.generator_flow > entry.bound

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            build_distinct_paths(0, single_slot_generator, BASEPOINT)

    def test_k_must_be_an_integer(self):
        with pytest.raises(ValueError, match="k must be a positive integer, got 2.5"):
            build_distinct_paths(2.5, single_slot_generator, BASEPOINT)

    def test_generator_dim_mismatch(self):
        def wrong_dim(bound: int):
            return matrix_path(2, lambda t: np.diag([2 * t - 1, 5.0]))

        with pytest.raises(GeneratorFailure, match="dim"):
            build_distinct_paths(2, wrong_dim, BASEPOINT)


class TestComponentReportInvariants:
    def test_duplicate_flows_rejected(self):
        p = constant_path(BASEPOINT)
        with pytest.raises(ValueError, match="distinct"):
            ComponentReport(basepoint=BASEPOINT, paths=(p, p), flows=(0, 0), ledger=())

    def test_wrong_start_rejected(self):
        other = constant_path(SelfAdjointOperator.from_diagonal([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="basepoint"):
            ComponentReport(basepoint=BASEPOINT, paths=(other,), flows=(0,), ledger=())

    def test_zero_basepoint_rejected(self):
        # The zero operator has spectral radius 0; its singularity test
        # falls back to the unit scale and still rejects it.
        zero = SelfAdjointOperator(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="basepoint must be invertible"):
            ComponentReport(basepoint=zero, paths=(constant_path(zero),), flows=(0,), ledger=())

    def test_singular_endpoint_rejected(self):
        p = matrix_path(4, lambda t: np.diag([5.0 - 5.0 * t, 5.0, -5.0, 7.0]))
        with pytest.raises(ValueError, match="invertible"):
            ComponentReport(basepoint=BASEPOINT, paths=(p,), flows=(0,), ledger=())


class TestCertifyDistinctComponents:
    def test_flow_gap_forces_singular_segment(self):
        # flows 0 and 2: the straight segment between the endpoints must
        # cross a singular operator, located to machine precision
        climb = matrix_path(
            4, lambda t: np.diag([-5.0 + 10.0 * t, -5.0 + 10.0 * t, -5.0, 7.0])
        )
        base = SelfAdjointOperator.from_diagonal([-5.0, -5.0, -5.0, 7.0])
        report = ComponentReport(
            basepoint=base,
            paths=(constant_path(base), climb),
            flows=(0, 2),
            ledger=(),
        )
        cert = certify_distinct_components(report)
        assert len(cert.pairs) == 1
        pair = cert.pairs[0]
        assert pair.segment_flow == 2
        assert pair.min_abs_eigenvalue < 1e-8 * pair.spectral_radius
        assert 0.0 < pair.singular_t < 1.0

    def test_pairs_cover_unordered_pairs_only(self):
        basepoint, gen = default_component_setup(ambient_dim=16, epsilon=0.2, seed=1)
        report = build_distinct_paths(4, gen, basepoint)
        cert = certify_distinct_components(report)
        assert len(cert.pairs) == 6
        assert all(p.i < p.j for p in cert.pairs)
        assert cert.verdict == "distinct components certified in the convex model"

    def test_bug_detector_on_inconsistent_flows(self):
        # hand-built report lies about the flows: the straight segment
        # between equal endpoints stays invertible, which is impossible
        # for genuinely distinct flows
        report = ComponentReport(
            basepoint=BASEPOINT,
            paths=(constant_path(BASEPOINT), constant_path(BASEPOINT)),
            flows=(0, 5),
            ledger=(),
        )
        with pytest.raises(CertificateBroken):
            certify_distinct_components(report)


def _reference_locate(segment):
    """The per-pair bisection the lockstep one replaced: one single-point read per step."""

    def neg(t: float) -> int:
        return int(np.count_nonzero(segment.spectra([t]) < 0.0))

    lo, hi = 0.0, 1.0
    n_lo = neg(lo)
    assert n_lo != neg(hi)
    for _ in range(components.BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if neg(mid) != n_lo:
            hi = mid
        else:
            lo = mid
    t = 0.5 * (lo + hi)
    return t, segment.spectra([t])[0]


REPORT_KINDS = {
    "diagonal": ("diagonal",),
    "dense real": ("real",),
    "complex": ("complex",),
    "mixed diagonal/dense": ("diagonal", "real"),
    "mixed real/complex": ("real", "complex"),
}


class TestLockstepBisection:
    @settings(max_examples=30)
    @given(
        kind=st.sampled_from(sorted(REPORT_KINDS)),
        counts=st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True),
        spare=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    # Real and complex pairs bisect side by side in one stack; each row keeps its own bits.
    @example(kind="mixed real/complex", counts=[0, 1, 2, 3, 4], spare=0, seed=0)
    # Ends 0 and 2 are diagonal: their pair blends on diagonals, the others as matrices.
    @example(kind="mixed diagonal/dense", counts=[0, 1, 2, 3], spare=0, seed=0)
    def test_matches_per_pair_bisection(self, kind, counts, spare, seed):
        dim = max(2, *counts) + spare
        cycle = REPORT_KINDS[kind]
        kinds = [cycle[k % len(cycle)] for k in range(len(counts))]
        report = rotated_report(counts, kinds, dim, seed)
        cert = certify_distinct_components(report)
        ends = [p.at(1.0) for p in report.paths]
        expected = []
        for i in range(len(ends)):
            for j in range(i + 1, len(ends)):
                seg = straight_segment(ends[i], ends[j])
                # The engine is the oracle of the pair flow read from endpoint inertia.
                flow = spectral_flow(seg).flow
                t, row = _reference_locate(seg)
                expected.append(
                    (i, j, flow, t, float(np.abs(row).min()), float(np.abs(row).max()))
                )
        got = [
            (p.i, p.j, p.segment_flow, p.singular_t, p.min_abs_eigenvalue, p.spectral_radius)
            for p in cert.pairs
        ]
        assert got == expected

    def test_one_path_has_no_pairs(self):
        report = rotated_report((1,), ("real",), 3, 0)
        assert certify_distinct_components(report).pairs == ()
        ends, negs = _ends_and_negs(report)
        assert components._locate_singular(ends, [], negs) == []

    @pytest.mark.parametrize("kind", sorted(REPORT_KINDS))
    def test_every_pair_lands_on_a_singular_row(self, kind):
        # Any pair of ends with different negative counts, in either order.
        counts = (0, 1, 3, 4)
        cycle = REPORT_KINDS[kind]
        report = rotated_report(counts, [cycle[k % len(cycle)] for k in range(4)], 5, 1)
        ends, negs = _ends_and_negs(report)
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        located = components._locate_singular(ends, pairs, negs)
        assert len(located) == len(pairs)
        for t, row in located:
            assert 0.0 < t < 1.0
            assert components._singular(row)
            assert not row.flags.writeable

    def test_diagonal_pairs_solve_nothing(self, eigvalsh_counter):
        # Ends 0 and 2 are diagonal, 1 and 3 dense.
        report = rotated_report((0, 1, 2, 3), ("diagonal", "real") * 2, 4, 0)
        ends, negs = _ends_and_negs(report)
        every = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        dense = [pair for pair in every if pair != (0, 2)]
        solves = []
        for pairs in ([(0, 2)], dense, every):
            before = eigvalsh_counter.matrices
            components._locate_singular(ends, pairs, negs)
            solves.append(eigvalsh_counter.matrices - before)
        assert solves[0] == 0
        assert solves[2] == solves[1] > 0

    def test_k8_reads_one_stack_per_level_and_kind(self, monkeypatch, tmp_path, capsys):
        # One stacked read per bisection level and kind, plus the final t:
        # a bisection that read each pair on its own would read far more.
        kinds, weights = [], []
        spectra, blend = components._spectra, components._blend

        def counted_spectra(build, n, dim):
            read = set()
            kinds.append(read)

            def recorded(span):
                stack = build(span)
                read.add(stack.ndim)
                return stack

            return spectra(recorded, n, dim)

        def recorded_blend(w, x, y):
            weights.append(np.array(w))
            return blend(w, x, y)

        monkeypatch.setattr(components, "_spectra", counted_spectra)
        monkeypatch.setattr(components, "_blend", recorded_blend)
        assert main(["components", "--k", "8", "--out", str(tmp_path)]) == 0
        assert all(len(read) <= 1 for read in kinds)
        for ndim in (2, 3):
            assert sum(read == {ndim} for read in kinds) <= components.BISECTION_STEPS + 1
        w = np.concatenate(weights)
        assert w.size >= 28  # every pair's final t at least
        assert np.all((0.0 < w) & (w < 1.0))


def _ends_and_negs(report):
    ends = [p.at(1.0) for p in report.paths]
    return ends, [int(np.count_nonzero(end.spectrum < 0.0)) for end in ends]


class TestErrorOrder:
    """Errors come from the first failing pair in (i, j) order."""

    @staticmethod
    def _lying_report():
        # Pair (0, 1) is consistent; pairs (0, 2) and (1, 2) both lie about path 2's flow.
        honest = rotated_report((0, 1, 3), ("diagonal",) * 3, 4, 0)
        f0, f1, f2 = honest.flows
        return ComponentReport(
            basepoint=honest.basepoint, paths=honest.paths, flows=(f0, f1, f2 + 4), ledger=()
        )

    def test_first_lying_pair_is_named(self):
        with pytest.raises(CertificateBroken) as info:
            certify_distinct_components(self._lying_report())
        assert str(info.value) == (
            "segment flow -3 between endpoints 0 and 2 does not match the flow difference 1; "
            "contracting the loop would not close"
        )

    def test_earlier_pair_without_singular_point_comes_first(self, monkeypatch):
        # The inertia of every pair is checked before any bisection, so a
        # lying pair is named even after a pair without a singular point.
        located = []

        def invertible(ends, pairs, negs):
            located.append(pairs)
            return [(0.5, np.array([1.0, 2.0]))] * len(pairs)

        monkeypatch.setattr(components, "_locate_singular", invertible)
        with pytest.raises(CertificateBroken, match=r"^segment flow -3 between endpoints 0 and 2 "):
            certify_distinct_components(self._lying_report())
        assert located == []


class TestSingularityRule:
    """The report and the pair check share one singularity predicate."""

    EDGE = np.array([1e-8, 1.0])  # min |eig| exactly SINGULARITY_RTOL * radius

    def test_edge_basepoint_is_singular(self):
        edge = SelfAdjointOperator.from_diagonal(self.EDGE)
        with pytest.raises(ValueError, match="basepoint must be invertible"):
            ComponentReport(basepoint=edge, paths=(constant_path(edge),), flows=(0,), ledger=())

    def test_edge_point_certifies_a_pair(self, monkeypatch):
        base = SelfAdjointOperator.from_diagonal([-5.0, 7.0])
        climb = matrix_path(2, lambda t: np.diag([-5.0 + 10.0 * t, 7.0]))
        report = ComponentReport(
            basepoint=base, paths=(constant_path(base), climb), flows=(0, 1), ledger=()
        )
        monkeypatch.setattr(
            components,
            "_locate_singular",
            lambda ends, pairs, negs: [(0.5, self.EDGE)] * len(pairs),
        )
        (pair,) = certify_distinct_components(report).pairs
        assert (pair.singular_t, pair.min_abs_eigenvalue, pair.spectral_radius) == (0.5, 1e-8, 1.0)


class TestInertiaProof:
    """The pair flows are endpoint inertia; the report's invertibility rule makes it exact."""

    @pytest.mark.parametrize("dim", [1, 2, 8, 100, 10**3, 10**4, 10**5])
    def test_singularity_rule_is_above_the_zero_band(self, dim):
        # An endpoint the report accepts has every |eigenvalue| above
        # SINGULARITY_RTOL times its scale, so outside the eigensolver's
        # backward error: each eigenvalue's sign, and so the inertia, is exact.
        # Radius 0 is the zero row, whose scale is 1.
        rows = np.array([np.linspace(-r, r, dim) for r in (0.0, 1e-300, 1.0, 1e300)])
        assert np.all(_zero_band(rows) < components.SINGULARITY_RTOL * spectral_scale(rows))


class TestDefaultSetup:
    def test_deterministic(self):
        b1, g1 = default_component_setup(seed=3)
        b2, g2 = default_component_setup(seed=3)
        assert np.array_equal(b1.entries, b2.entries)
        p1, p2 = g1(2), g2(2)
        for t in (0.0, 0.5, 1.0):
            assert np.array_equal(p1.at(t).entries, p2.at(t).entries)

    def test_generator_beats_any_bound(self):
        basepoint, gen = default_component_setup(ambient_dim=24, seed=0)
        for bound in (0, 1, 4, 7):
            p = gen(bound)
            assert spectral_flow(p).flow > bound

    def test_ambient_dim_exhaustion_diagnosed(self):
        from specflow import InvalidSpec

        basepoint, gen = default_component_setup(ambient_dim=8, seed=0)
        with pytest.raises(InvalidSpec, match="raise ambient_dim to at least 11$"):
            gen(7)
