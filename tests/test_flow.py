"""Partition refinement and the certified spectral flow."""

from __future__ import annotations

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    brute_endpoint_flow,
    brute_window_count,
    dense_sum,
    diagonal_sum,
    knot_warp,
    mixed_concat,
    mixed_matrix_path,
    mixed_sum,
)
from specflow import (
    BaerFamilySpec,
    CertificateBroken,
    DepthExceeded,
    FlowCertificate,
    FlowOptions,
    GluingSpec,
    OperatorPath,
    SegmentWitness,
    SelfAdjointOperator,
    SpectralFlowError,
    Spectrum,
    affine_homotopy,
    baer_family,
    circle_family,
    concat,
    glue,
    invertible_valued_family,
    matrix_path,
    oracle_flow,
    random_family,
    reparametrize,
    reverse,
    spectral_flow,
    straight_segment,
)
from specflow import flow
from specflow.config import sampled_path
from specflow.flow import _ALL_ZERO, _check_windows, _widest_gaps, _witness_spectra
from specflow.operators import _zero_band
from specflow.reporting import dumps_document, flow_certificate_document


class TestRefinePartition:
    def test_constant_path_single_segment(self):
        p = matrix_path(2, lambda t: np.diag([-1.0, 1.0]))
        cert = spectral_flow(p, init_samples=1)
        assert cert.times == (0.0, 1.0)
        assert len(cert.radii) == 1
        assert 0.0 < cert.radii[0] < 1.0
        w = cert.witnesses[0]
        assert w.margin > 0
        assert w.symmetric_count == 0

    def test_crossing_family_init8_segments_verified_by_brute_force(self):
        p = matrix_path(3, lambda t: np.diag([2 * t - 1, 3.0, -3.0]))
        cert = spectral_flow(p, init_samples=8)
        assert cert.times[0] == 0.0 and cert.times[-1] == 1.0
        # per-segment constancy of the symmetric count on a fine grid
        for w in cert.witnesses:
            counts = {
                brute_window_count(p, float(t), w.radius)
                for t in np.linspace(w.t_lower, w.t_upper, 1000 // len(cert.witnesses) + 2)
            }
            assert counts == {w.symmetric_count}

    def test_spectrum_avoiding_window_stays_single_segment(self):
        # one eigenvalue dips to exactly 1 at t=3/4, the other sits at -3;
        # the certified radius must separate the curve from zero with a
        # genuine margin (so it lands strictly inside (0, 1))
        p = matrix_path(2, lambda t: np.diag([np.sin(2 * np.pi * t) + 2.0, -3.0]))
        cert = spectral_flow(p, init_samples=1)
        assert len(cert.witnesses) == 1
        w = cert.witnesses[0]
        assert 0.0 < w.radius < 1.0
        assert w.margin > 0
        assert w.symmetric_count == 0
        # brute force: no eigenvalue magnitude below the certified margin gap
        for t in np.linspace(0.0, 1.0, 1000):
            assert brute_window_count(p, float(t), w.radius) == 0

    def test_degenerate_path_depth_exceeded(self):
        p = matrix_path(1, lambda t: np.zeros((1, 1)))
        with pytest.raises(DepthExceeded, match=r"depth 6 \(all zero: every witnessed eigenvalue"):
            spectral_flow(p, init_samples=1, max_depth=6)

    def test_warp_between_adjacent_floats_fails_on_lipschitz_slack(self):
        # The knots are one ulp apart, so the warp jumps by a third of the
        # base path between two adjacent floats.  The gauge keeps that jump
        # in the one segment holding it, whose local slope L no witness
        # spacing reachable at depth 20 beats; the rest certifies.
        with pytest.raises(DepthExceeded) as info:
            spectral_flow(knot_warp(random_family(5, seed=0), [0.99, 0.9899999999999999]))
        assert str(info.value) == (
            "segment [0.989999995, 0.99000001] not certifiable at bisection depth 20 "
            "(Lipschitz slack: on [0.989999994635582, 0.9900000095367432] eigenvalue 3 is "
            "1.030e+00 and 7.314e-01 from the window edge, a sum of 1.761e+00 that does not "
            "exceed the gauge step 2.059e+00 (L = 1.382e+08 times the witness spacing "
            "1.490e-08); the gauge rises by 2.059e+00 between the adjacent floats "
            "0.9899999999999999 and 0.99, so no witness can split that step); endpoint "
            "inertia gives flow 0"
        )

    @pytest.mark.parametrize(
        "diag, options, reason",
        [
            # |eigenvalues| 0, 1, 2 leave gaps of 1, so the margin is 0.5,
            # below the floor 0.5 * 2.
            (lambda t: [1.0, 2.0], FlowOptions(min_margin=0.5), "margin floor: margin 5.000e-01"),
            # An eigenvalue sweeping [0, 64] past 1: at the two ends of a
            # segment [0, h] with 64 h > 1 the widest gap is (1, 64 h), and
            # the eigenvalue crosses its midpoint.
            (lambda t: [64.0 * t, 1.0], FlowOptions(), "count drift: the count in"),
        ],
    )
    def test_depth_exceeded_names_the_reason(self, diag, options, reason):
        p = matrix_path(2, lambda t: np.diag(diag(t)))
        with pytest.raises(DepthExceeded, match=re.escape(f"depth 1 ({reason}")):
            spectral_flow(p, options, init_samples=1, max_depth=1)

    def test_radius_certified_at_all_witnesses(self):
        p = random_family(6, seed=3)
        cert = spectral_flow(p)
        for w in cert.witnesses:
            for t in w.grid:
                vals = np.linalg.eigvalsh(p.at(t).entries)
                assert np.abs(np.abs(vals) - w.radius).min() >= w.margin * (1 - 1e-12)

    def test_overrides_recorded_in_options(self):
        p = random_family(4, seed=1)
        cert = spectral_flow(p, FlowOptions(witness_points=5), init_samples=3, max_depth=30)
        assert cert.options == FlowOptions(init_samples=3, max_depth=30, witness_points=5)
        assert cert.radii == tuple(w.radius for w in cert.witnesses)


class TestSpectralFlow:
    def test_constant_invertible_path_zero(self):
        p = matrix_path(2, lambda t: np.diag([2.0, -2.0]))
        assert spectral_flow(p).flow == 0

    def test_single_upward_crossing(self):
        p = matrix_path(3, lambda t: np.diag([2 * t - 1, 5.0, -5.0]))
        cert = spectral_flow(p)
        assert cert.flow == 1 == oracle_flow(p).flow
        cert.verify(p)

    def test_single_downward_crossing(self):
        p = matrix_path(3, lambda t: np.diag([1 - 2 * t, 5.0, -5.0]))
        assert spectral_flow(p).flow == -1 == oracle_flow(p).flow

    def test_baer_family_m3(self):
        p = baer_family(BaerFamilySpec(m=3))
        cert = spectral_flow(p)
        assert cert.flow == 4 == oracle_flow(p).flow
        cert.verify(p)

    def test_zero_eigenvalue_at_endpoint_allowed(self):
        # eigenvalue starts exactly at 0 and moves up: counted at t=0
        # (interval closed at 0), so the net flow is 0
        p = matrix_path(2, lambda t: np.diag([t, 5.0]))
        assert spectral_flow(p).flow == 0

    def test_zero_eigenvalue_leaving_downward(self):
        p = matrix_path(2, lambda t: np.diag([-t, 5.0]))
        assert spectral_flow(p).flow == -1

    def test_telescoping_recorded(self):
        p = random_family(5, seed=9)
        cert = spectral_flow(p)
        assert cert.flow == sum(hi - lo for lo, hi in cert.counts)
        assert len(cert.counts) == len(cert.radii) == len(cert.times) - 1

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=12))
    @settings(max_examples=100)
    def test_partition_independence(self, seed, dim):
        p = random_family(dim, seed)
        f1 = spectral_flow(p, init_samples=1).flow
        f2 = spectral_flow(p, init_samples=7).flow
        assert f1 == f2
        assert f1 == brute_endpoint_flow(p)

    def test_matches_oracle_on_random_families(self):
        for seed in range(25):
            p = random_family(2 + seed % 11, seed, invertible_ends=True)
            assert spectral_flow(p).flow == oracle_flow(p, grid=256).flow

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FlowOptions(init_samples=0)
        with pytest.raises(ValueError):
            FlowOptions(witness_points=1)
        with pytest.raises(ValueError):
            FlowOptions(cluster_tol=0.0)
        for name, value in [("init_samples", 2.5), ("max_depth", 20.0), ("witness_points", "9"), ("init_samples", True)]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
                FlowOptions(**{name: value})


class TestVerifyRejectsTampering:
    """``FlowCertificate.verify`` re-derives each recorded quantity from the path."""

    SEGMENT = 3

    @pytest.fixture
    def certified(self):
        path = random_family(6, seed=4)
        cert = spectral_flow(path)
        cert.verify(path)
        return path, cert

    def _with_witness(self, cert, **changes):
        witnesses = list(cert.witnesses)
        witnesses[self.SEGMENT] = dataclasses.replace(witnesses[self.SEGMENT], **changes)
        return dataclasses.replace(cert, witnesses=tuple(witnesses))

    def _broken(self, path, cert) -> str:
        with pytest.raises(CertificateBroken) as info:
            cert.verify(path)
        return str(info.value)

    def test_inflated_margin(self, certified):
        path, cert = certified
        w = cert.witnesses[self.SEGMENT]
        margin = 1.01 * w.margin
        # first witness whose spectrum comes closer than the claimed margin to +/-radius
        first = next(
            t
            for t in w.grid
            if np.abs(np.abs(np.linalg.eigvalsh(path.at(t).entries)) - w.radius).min()
            < margin * (1 - 1e-9)
        )
        message = self._broken(path, self._with_witness(cert, margin=margin))
        assert message == f"segment [{w.t_lower!r}, {w.t_upper!r}]: window margin violated at t={first}"

    def test_symmetric_count_off_by_one(self, certified):
        path, cert = certified
        w = cert.witnesses[self.SEGMENT]
        tampered = self._with_witness(cert, symmetric_count=w.symmetric_count + 1)
        assert self._broken(path, tampered) == f"symmetric count drifted at t={w.grid[0]}"

    @pytest.mark.parametrize("end", [0, 1])
    def test_count_pair_changed(self, certified, end):
        path, cert = certified
        counts = list(cert.counts)
        pair = list(counts[self.SEGMENT])
        pair[end] += 1
        counts[self.SEGMENT] = tuple(pair)
        tampered = dataclasses.replace(cert, counts=tuple(counts))
        w = cert.witnesses[self.SEGMENT]
        t = (w.t_lower, w.t_upper)[end]
        assert self._broken(path, tampered) == f"count at t={t} drifted"

    def test_leftmost_broken_segment_is_named(self, certified):
        # Segment 1 has a wrong count pair, segment 3 an inflated margin.  The
        # window rule runs for every segment at once, yet the error is segment
        # 1's: the leftmost broken segment, with its first reason.
        path, cert = certified
        counts = list(cert.counts)
        counts[1] = (counts[1][0] + 1, counts[1][1])
        w = cert.witnesses[self.SEGMENT]
        tampered = dataclasses.replace(
            self._with_witness(cert, margin=2 * w.margin), counts=tuple(counts)
        )
        assert self._broken(path, tampered) == f"count at t={cert.witnesses[1].t_lower} drifted"
        witnesses = list(tampered.witnesses)
        witnesses[1] = dataclasses.replace(witnesses[1], radius=0.5 * witnesses[1].radius)
        tampered = dataclasses.replace(tampered, witnesses=tuple(witnesses))
        assert self._broken(path, tampered).startswith(
            f"segment [{witnesses[1].t_lower!r}, {witnesses[1].t_upper!r}]: "
        )

    def test_flow_off_by_one(self, certified):
        path, cert = certified
        tampered = dataclasses.replace(cert, flow=cert.flow + 1)
        assert self._broken(path, tampered) == "flow does not telescope over the recorded counts"

    def test_other_path(self, certified):
        _, cert = certified
        self._broken(random_family(6, seed=5), cert)

    def test_middle_witness_dropped(self, certified):
        path, cert = certified
        k = len(cert.witnesses) // 2
        counts = cert.counts[:k] + cert.counts[k + 1 :]
        tampered = FlowCertificate(
            times=cert.times[: k + 1] + cert.times[k + 2 :],
            witnesses=cert.witnesses[:k] + cert.witnesses[k + 1 :],
            counts=counts,
            flow=sum(hi - lo for lo, hi in counts),
            options=cert.options,
        )
        assert self._broken(path, tampered) == "witnesses do not tile [0, 1] in the order of times"

    def test_times_reversed(self, certified):
        path, cert = certified
        tampered = dataclasses.replace(cert, times=cert.times[::-1])
        assert self._broken(path, tampered) == "witnesses do not tile [0, 1] in the order of times"

    def test_two_point_grid(self, certified):
        # Not tampering: verify reads a grid as written, and this segment's
        # window is proved at its two ends alone.
        path, cert = certified
        w = cert.witnesses[self.SEGMENT]
        self._with_witness(cert, grid=(w.t_lower, w.t_upper)).verify(path)

    @staticmethod
    def _bad_grid(w) -> str:
        return (
            f"segment [{w.t_lower!r}, {w.t_upper!r}]: witness grid does not rise strictly "
            "from t_lower to t_upper"
        )

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda g: (float(np.nextafter(g[0], 1.0)), *g[1:]),
            lambda g: (*g[:3], g[4], g[3], *g[5:]),
            lambda g: g[:1],
        ],
        ids=["off-t-lower", "two-witnesses-swapped", "one-point"],
    )
    def test_malformed_grid(self, certified, reshape):
        path, cert = certified
        w = cert.witnesses[self.SEGMENT]
        tampered = self._with_witness(cert, grid=reshape(w.grid))
        assert self._broken(path, tampered) == self._bad_grid(w)

    def test_bad_grid_left_of_a_window_failure_comes_first(self, certified):
        # Segment 1 has a one-point grid, segment 3 an inflated margin: the
        # grid is checked in the same leftmost-first order as every reason.
        path, cert = certified
        w = cert.witnesses[self.SEGMENT]
        inflated = self._with_witness(cert, margin=2 * w.margin)
        assert self._broken(path, inflated).startswith(
            f"segment [{w.t_lower!r}, {w.t_upper!r}]: window margin violated at t="
        )
        witnesses = list(inflated.witnesses)
        left = witnesses[1]
        witnesses[1] = dataclasses.replace(left, grid=(left.t_lower,))
        tampered = dataclasses.replace(inflated, witnesses=tuple(witnesses))
        assert self._broken(path, tampered) == self._bad_grid(left)

    def test_last_count_pair_dropped(self, certified):
        path, cert = certified
        counts = cert.counts[:-1]
        tampered = dataclasses.replace(cert, counts=counts, flow=sum(hi - lo for lo, hi in counts))
        # The last segment carries a crossing, so the forged flow is off by one.
        assert (tampered.flow, cert.flow) == (1, 2)
        n = len(cert.witnesses)
        assert self._broken(path, tampered) == f"{n - 1} count pairs recorded for {n} segments"


def _steep_warp():
    # The benchmark's slope-300 warp: a third of [0, 1] spent on [0.5, 0.5 + 1/900].
    a = random_family(5, seed=0)
    xs = np.array([0.0, 0.5, 0.5 + 1 / 900, 1.0])
    ys = np.linspace(0.0, 1.0, 4)
    return reparametrize(a, lambda t: float(np.interp(t, xs, ys)), lipschitz=a.lipschitz * 300)


class TestSplitAtTheWitnesses:
    """A rejected segment is replaced by its witness intervals, each certified from its two ends."""

    @pytest.fixture
    def certified(self):
        path = _steep_warp()
        cert = spectral_flow(path)
        cert.verify(path)
        return path, cert

    @staticmethod
    def _initial(cert):
        edges = np.linspace(0.0, 1.0, cert.options.init_samples + 1).tolist()
        first = set(zip(edges[:-1], edges[1:]))
        return [(w.t_lower, w.t_upper) in first for w in cert.witnesses]

    def test_refined_segments_tile_the_rejected_grids(self, certified):
        _, cert = certified
        initial = self._initial(cert)
        assert any(initial) and not all(initial)
        kept = {(w.t_lower, w.t_upper) for w, first in zip(cert.witnesses, initial) if first}
        edges = np.linspace(0.0, 1.0, 9).tolist()
        for lo, hi in zip(edges[:-1], edges[1:]):
            if (lo, hi) not in kept:
                # Every witness of a rejected initial segment is a partition point.
                assert set(np.linspace(lo, hi, 9).tolist()) <= set(cert.times)
        for w, first in zip(cert.witnesses, initial):
            if first:
                assert w.grid == tuple(np.linspace(w.t_lower, w.t_upper, 9).tolist())
            else:
                assert w.grid == (w.t_lower, w.t_upper)
                # A witness interval, 1/64 wide, halved k >= 0 times.
                k = math.log2(1 / 64 / (w.t_upper - w.t_lower))
                assert round(k) >= 0 and abs(k - round(k)) < 1e-6

    def test_an_initial_segment_cut_to_its_two_ends(self, certified):
        # verify reads any grid that rises from t_lower to t_upper as written.
        path, cert = certified
        i = self._initial(cert).index(True)
        w = cert.witnesses[i]
        witnesses = list(cert.witnesses)
        witnesses[i] = dataclasses.replace(w, grid=(w.t_lower, w.t_upper))
        dataclasses.replace(cert, witnesses=tuple(witnesses)).verify(path)

    def test_a_refined_segment_with_a_nine_point_grid(self, certified):
        # The new grid's witnesses come closer to the window edge than the
        # two ends did, so the segment records their closest approach as its
        # margin, as a run witnessing it on nine points would.
        path, cert = certified
        i = self._initial(cert).index(False)
        w = cert.witnesses[i]
        grid = tuple(np.linspace(w.t_lower, w.t_upper, 9).tolist())
        margin = float(np.abs(np.abs(path.spectra(grid)) - w.radius).min())
        assert margin < w.margin
        witnesses = list(cert.witnesses)
        witnesses[i] = dataclasses.replace(w, grid=grid, margin=margin)
        dataclasses.replace(cert, witnesses=tuple(witnesses)).verify(path)

    def test_two_refined_segments_merged_on_a_nonuniform_grid(self, certified):
        # The shape a run that coalesces segments records: segments 6 and 7
        # as one segment witnessed at their three partition points, with the
        # left window and the smaller margin.
        path, cert = certified
        k = 6
        a, b = cert.witnesses[k], cert.witnesses[k + 1]
        assert len(a.grid) == len(b.grid) == 2
        grid = (a.t_lower, a.t_upper, b.t_upper)
        assert grid[1] - grid[0] != grid[2] - grid[1]
        merged = dataclasses.replace(a, t_upper=b.t_upper, margin=min(a.margin, b.margin), grid=grid)
        counts = (cert.counts[k][0], cert.counts[k + 1][1])
        FlowCertificate(
            times=cert.times[: k + 1] + cert.times[k + 2 :],
            witnesses=cert.witnesses[:k] + (merged,) + cert.witnesses[k + 2 :],
            counts=cert.counts[:k] + (counts,) + cert.counts[k + 2 :],
            flow=cert.flow,
            options=cert.options,
        ).verify(path)

    def test_a_split_keeps_the_depth_and_a_halving_adds_one(self):
        # The witness intervals of the initial segments are 1/64 wide at
        # depth 0; the one failure allowed at depth 1 is 1/128 wide.  Its
        # eigenvalue runs from -1/128 to 0 and the window edge sits halfway,
        # so the two distances sum to exactly the gauge step.
        path = matrix_path(1, lambda t: [[t - 0.5]], lipschitz=1.0)
        with pytest.raises(DepthExceeded) as info:
            spectral_flow(path, max_depth=1)
        assert str(info.value) == (
            "segment [0.4921875, 0.5] not certifiable at bisection depth 1 (Lipschitz slack: "
            "on [0.4921875, 0.5] eigenvalue 0 is 3.906e-03 and 3.906e-03 from the window edge, "
            "a sum of 7.812e-03 that does not exceed the gauge step 7.812e-03 (L = 1.000e+00 "
            "times the witness spacing 7.812e-03)); endpoint inertia gives flow 1"
        )


class TestVerifyRejectsForgery:
    """A hand-made certificate for a path it does not hold on."""

    @staticmethod
    def _forged(witness_points: int):
        # Flow 0: 0.5 + 1.5t stays positive and -2 + 1.5t negative.  The one
        # forged window [-1, 1] has margin 0.5 at both witnesses t=0 and t=1,
        # yet both eigenvalues cross its edges in between: the distances of
        # each sum to 1.5, exactly the gauge step.
        path = matrix_path(3, lambda t: np.diag([0.5 + 1.5 * t, -2.0 + 1.5 * t, 5.0]), lipschitz=1.5)
        witness = SegmentWitness(0.0, 1.0, radius=1.0, margin=0.5, grid=(0.0, 1.0), symmetric_count=1)
        cert = FlowCertificate(
            times=(0.0, 1.0),
            witnesses=(witness,),
            counts=((1, 0),),
            flow=-1,
            options=FlowOptions(witness_points=witness_points),
        )
        return path, cert

    # verify reads the grid (0, 1) as written, whatever ``witness_points``
    # is; only the Lipschitz slack rejects it.
    @pytest.mark.parametrize("witness_points", [9, 2])
    def test_forged_flow_rejected(self, witness_points):
        path, cert = self._forged(witness_points)
        assert spectral_flow(path).flow == 0 == oracle_flow(path).flow
        with pytest.raises(CertificateBroken) as info:
            cert.verify(path)
        assert str(info.value) == (
            "segment [0.0, 1.0]: Lipschitz slack: on [0.0, 1.0] eigenvalue 0 is 1.000e+00 and "
            "5.000e-01 from the window edge, a sum of 1.500e+00 that does not exceed the gauge "
            "step 1.500e+00 (L = 1.500e+00 times the witness spacing 1.000e+00)"
        )


def _glued(seed: int):
    spec = GluingSpec(
        base=Spectrum([-7.0, -3.0, 3.0, 7.0]),
        sphere_family=BaerFamilySpec(m=1 + seed % 2),
        epsilon=0.4,
        seed=seed,
    )
    return glue(spec).path


def _squared(a):
    return reparametrize(a, lambda t: t * t, lipschitz=2.0 * a.lipschitz)


# One fresh path per call, so a second call has an empty cache.
VERIFIED_PATHS = {
    "random": lambda seed: random_family(2 + seed % 5, seed),
    "baer": lambda seed: baer_family(BaerFamilySpec(m=1 + seed % 3)),
    "circle": lambda seed: circle_family(3, seed % 7 - 3),
    "glue": _glued,
    "concat": lambda seed: concat(random_family(3, seed), reverse(random_family(3, seed))),
    "reverse": lambda seed: reverse(random_family(4, seed)),
    "reparametrize": lambda seed: _squared(random_family(4, seed)),
    "homotopy slice": lambda seed: affine_homotopy(
        random_family(4, seed), _squared(random_family(4, seed))
    ).slice_at((seed % 5) / 4),
}


class TestEveryCertificateVerifies:
    @given(
        st.sampled_from(sorted(VERIFIED_PATHS)),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=8),
    )
    @settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    def test_certificate_verifies_without_new_eigensolves(
        self, eigvalsh_counter, kind, seed, witness_points, init_samples
    ):
        path = VERIFIED_PATHS[kind](seed)
        cert = spectral_flow(path, FlowOptions(witness_points=witness_points, init_samples=init_samples))
        eigvalsh_counter.matrices = 0
        cert.verify(path)
        assert eigvalsh_counter.matrices == 0
        cert.verify(VERIFIED_PATHS[kind](seed))
        assert eigvalsh_counter.matrices <= len({t for w in cert.witnesses for t in w.grid})


def _tanh_jump():
    # The eigenvalue -2 tanh(1e6 (t - 0.44)) goes from 2 to -2 between two
    # witnesses, so every witnessed magnitude is 2 and the window count
    # stays constant while the flow is -1.
    return matrix_path(1, lambda t: [[-2.0 * np.tanh(1e6 * (t - 0.44))]])


class TestJumpAcrossTheWindow:
    def test_check_window_names_the_jump(self):
        path = _tanh_jump()
        ts, spectra = _witness_spectra(path, [0.375], [0.5], 9)
        radius, margin, empty = _widest_gaps(spectra)
        assert not empty[0]
        assert _reasons(_check_windows(path, ts, spectra, radius, margin, FlowOptions())) == [
            "jump across the window: 0 eigenvalues below -1.000e+00 at t=0.375 "
            "but 1 at t=0.453125"
        ]

    def test_path_is_not_certified(self):
        path = _tanh_jump()
        assert oracle_flow(path).flow == -1
        with pytest.raises(DepthExceeded, match=r"^segment \[0\.43999"):
            spectral_flow(path)

    def test_verify_rejects_the_flow_zero_certificate(self):
        # One segment whose nine witnesses all have |eigenvalue| 2: the
        # window [-1, 1] keeps count 0 while the eigenvalue jumps across it.
        grid = tuple(np.linspace(0.0, 1.0, 9).tolist())
        witness = SegmentWitness(0.0, 1.0, radius=1.0, margin=1.0, grid=grid, symmetric_count=0)
        cert = FlowCertificate(
            times=(0.0, 1.0),
            witnesses=(witness,),
            counts=((0, 0),),
            flow=0,
            options=FlowOptions(init_samples=1),
        )
        with pytest.raises(CertificateBroken) as info:
            cert.verify(_tanh_jump())
        assert str(info.value) == (
            "segment [0.0, 1.0]: jump across the window: 0 eigenvalues below -1.000e+00 "
            "at t=0.0 but 1 at t=0.5"
        )


class TestCollisionAtTheRadius:
    """An end eigenvalue within ``cluster_tol`` times its row's scale of the radius rejects."""

    def test_a_raised_cluster_tol_refines_to_the_depth_cap(self):
        # Near t=0 the Baer family has eigenvalues -7, -5, -1, -1, 5, 7: every
        # window there has radius 3, and 5 lies 2 from it, within 0.3 * 7.
        with pytest.raises(DepthExceeded) as info:
            spectral_flow(baer_family(BaerFamilySpec(m=1)), FlowOptions(cluster_tol=0.3))
        assert str(info.value) == (
            "segment [0, 1.49011612e-08] not certifiable at bisection depth 20 (eigenvalue at "
            "t=0.0 within 2.100e+00 of the window radius 3.0); endpoint inertia gives flow 2"
        )


def _reasons(result) -> list[str | None]:
    """The rejection message of each segment of a ``_check_windows`` result, ``None`` if accepted."""
    _, _, failed, reason = result
    return [reason(i) if bad else None for i, bad in enumerate(failed.tolist())]


class TestBatchKernel:
    """The window choice and the acceptance rule decide a batch of segments at once."""

    def test_each_segment_gets_its_first_failing_rule(self):
        # One kernel call over seven segments (three witnesses, two
        # eigenvalues each).  Segments 2-4 also fail a later rule, which
        # must not win.  In segment 2 the lowest eigenvalue sits 0.01 below
        # the window at both ends of the first witness interval, closer
        # than its gauge step 0.05 allows.  Segment 6 passes every other
        # rule, but its last row has 1.25 within cluster_tol 0.3 times the
        # row's scale 2 of the radius.
        path = matrix_path(2, lambda t: np.diag([-2.0, 3.0]), lipschitz=1.0)
        rows = {
            "ok": [[-2, 3], [-2, 3], [-2, 3]],
            "slack": [[-1.01, 3], [-1.01, 3], [0.5, 3]],
            "touch": [[-2, 3], [1.5, 3], [2, 3]],
            "count": [[-2, 3], [-2, 3], [0, 3]],
            "jump": [[-2, 3], [2, 3], [2, 3]],
            "collision": [[-2, 3], [-2, 3], [-2, 1.25]],
        }
        kinds = ("ok", "ok", "slack", "touch", "count", "jump", "collision")
        spectra = np.array([rows[k] for k in kinds], float)
        ts = np.tile([0.0, 0.05, 0.1], (7, 1))
        margin = np.array([1.0, 1e-9, 0.01, 1.0, 1.0, 1.0, 0.25])
        result = _check_windows(path, ts, spectra, np.ones(7), margin, FlowOptions(cluster_tol=0.3))
        assert result[0][0] == 0
        # End counts in [0, 1]: the slack and count segments end with 0.5 and 0 in it.
        assert result[1].tolist() == [[0, 0], [0, 0], [0, 1], [0, 0], [0, 1], [0, 0], [0, 0]]
        assert _reasons(result) == [
            None,
            "margin floor: margin 1.000e-09 is below the floor 3.000e-06",
            "Lipschitz slack: on [0.0, 0.05] eigenvalue 0 is 1.000e-02 and 1.000e-02 from the "
            "window edge, a sum of 2.000e-02 that does not exceed the gauge step 5.000e-02 "
            "(L = 1.000e+00 times the witness spacing 5.000e-02)",
            "window margin violated at t=0.05",
            "count drift: the count in [-1.000e+00, 1.000e+00] is 0 at t=0.0 but 1 at t=0.1",
            "jump across the window: 1 eigenvalues below -1.000e+00 at t=0.0 but 0 at t=0.05",
            "eigenvalue at t=0.1 within 6.000e-01 of the window radius 1.0",
        ]

    def test_widest_gaps_flags_an_all_zero_segment(self):
        spectra = np.array([[[0.0, 0.0], [0.0, 0.0]], [[-1.0, 3.0], [-1.0, 4.0]]])
        radius, margin, empty = _widest_gaps(spectra)
        assert empty.tolist() == [True, False]
        # Levels 0, 1, 3, 4: the widest gap is (1, 3).
        assert (radius[1], margin[1]) == (2.0, 1.0)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([None, 0.0, 3.0]),
        st.sampled_from([1e-6, 0.3]),
    )
    def test_a_batch_decides_each_segment_as_it_would_alone(self, seed, s, w, d, lip, floor):
        rng = np.random.default_rng(seed)
        # Few distinct values, so ties, empty gaps and all-zero segments are common.
        spectra = np.sort(rng.integers(-3, 4, (s, w, d)) * rng.choice([0.5, 1.0]), axis=2)
        ts = np.linspace(0.5 * rng.random(s), 0.5 + 0.5 * rng.random(s), w, axis=1)
        path = matrix_path(d, lambda t: np.eye(d), lipschitz=lip)
        opts = FlowOptions(min_margin=floor)
        radius, margin, empty = _widest_gaps(spectra)
        result = _check_windows(path, ts, spectra, radius, margin, opts)
        counts = result[0]
        reasons = _reasons(result)
        for i in range(s):
            one = slice(i, i + 1)
            alone = _widest_gaps(spectra[one])
            assert (alone[0][0], alone[1][0], alone[2][0]) == (radius[i], margin[i], empty[i])
            single = _check_windows(path, ts[one], spectra[one], alone[0], alone[1], opts)
            assert (single[0][0], _reasons(single)[0]) == (counts[i], reasons[i])
            # The widest gap between the distinct levels, 0 among them.
            levels = sorted({0.0, *np.abs(spectra[i]).ravel().tolist()})
            assert empty[i] == (len(levels) == 1)
            if len(levels) > 1:
                k = max(range(len(levels) - 1), key=lambda j: (levels[j + 1] - levels[j], -j))
                assert radius[i] == 0.5 * (levels[k] + levels[k + 1])
                assert margin[i] == 0.5 * (levels[k + 1] - levels[k])


def _hermitian(rng, dim: int, cplx: bool) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    if cplx:
        g = g + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _assert_counts_hold_between_witnesses(cert, solve):
    """On 33 points per witness interval of every certified segment, recount by ``solve``.

    ``solve`` maps a 1-d array of parameters to their eigenvalue rows,
    computed without the engine.  The count in the window must be the
    segment's ``symmetric_count`` and the count below it constant.
    """
    for w in cert.witnesses:
        grid = np.array(w.grid)
        ts = np.linspace(grid[:-1], grid[1:], 33, axis=1).ravel()
        vals = solve(ts)
        inside = np.count_nonzero(np.abs(vals) <= w.radius, axis=1)
        below = np.count_nonzero(vals < -w.radius, axis=1)
        assert set(inside.tolist()) == {w.symmetric_count}, (w.t_lower, w.t_upper)
        assert len(set(below.tolist())) == 1, (w.t_lower, w.t_upper)


class TestIntervalSlack:
    """A witness interval is proved once each eigenvalue's distances to the window edge
    at its two ends sum above its gauge step."""

    @staticmethod
    def _reason(rows, ts=(0.0, 0.25)):
        # One segment under the gauge t; its margin is its smallest distance,
        # so only the slack can reject it.
        spectra = np.array([rows], float)
        margin = np.array([np.abs(np.abs(spectra) - 1.0).min()])
        path = matrix_path(spectra.shape[2], lambda t: np.eye(spectra.shape[2]), lipschitz=1.0)
        result = _check_windows(path, np.array([ts]), spectra, np.ones(1), margin, FlowOptions())
        return _reasons(result)[0]

    def test_a_sum_equal_to_the_step_rejects(self):
        assert self._reason([[-0.875], [-0.875]]) == (
            "Lipschitz slack: on [0.0, 0.25] eigenvalue 0 is 1.250e-01 and 1.250e-01 from the "
            "window edge, a sum of 2.500e-01 that does not exceed the gauge step 2.500e-01 "
            "(L = 1.000e+00 times the witness spacing 2.500e-01)"
        )

    def test_a_sum_just_above_the_step_accepts(self):
        assert self._reason([[-0.875], [-0.875 + 2.0**-20]]) is None

    def test_a_sum_above_the_step_within_the_rounding_allowance_rejects(self):
        # The sum exceeds the step by 2**-50, less than the two rows' zero
        # bands (8 eps * 0.875 each) and 4 eps of the gauge values 0 and 0.25.
        eps = np.finfo(np.float64).eps
        allowance = 2 * 8 * eps * 0.875 + 4 * eps * 0.25
        assert 2.0**-50 < allowance
        assert self._reason([[-0.875], [-0.875 + 2.0**-50]]) == (
            "Lipschitz slack: on [0.0, 0.25] eigenvalue 0 is 1.250e-01 and 1.250e-01 from the "
            "window edge, a sum of 2.500e-01 that does not exceed the gauge step 2.500e-01 "
            f"plus its rounding allowance {allowance:.3e} "
            "(L = 1.000e+00 times the witness spacing 2.500e-01)"
        )

    def test_near_plus_r_at_one_end_and_minus_r_at_the_other(self):
        # 0.04 from +1 at t=0 and 0.04 from -1 at t=0.25: both distances
        # are read from the magnitudes, so the sum is 0.08, not 0.04 + 1.96.
        assert self._reason([[0.96], [-0.96]]).startswith(
            "Lipschitz slack: on [0.0, 0.25] eigenvalue 0 is 4.000e-02 and 4.000e-02"
        )

    def test_magnitudes_are_not_resorted(self):
        # The lowest eigenvalue goes from -1.05 to -0.95, across -1.  Paired
        # by the sorted magnitudes, (0, 0.95) and (1.05, 2), every sum would
        # be 1.05 and the interval would pass.
        rows = [[-1.05, 0.0], [-0.95, 2.0]]
        mags = np.sort(np.abs(np.array(rows)), axis=1)
        assert (np.abs(mags[0] - 1.0) + np.abs(mags[1] - 1.0)).min() > 0.25
        assert self._reason(rows).startswith(
            "Lipschitz slack: on [0.0, 0.25] eigenvalue 0 is 5.000e-02 and 5.000e-02 from the "
            "window edge, a sum of 1.000e-01"
        )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_a_margin_above_half_every_step_still_passes(self, seed, s, w, d, levels, u):
        # A margin above half the largest gauge step was the slack rule
        # before the sums; every window of the certifier's that it accepted
        # must still pass, so every certificate made under it still verifies.
        rng = np.random.default_rng(seed)
        if levels:
            spectra = np.sort(rng.integers(-3, 4, (s, w, d)) * 0.5, axis=2)
        else:
            spectra = np.sort(rng.standard_normal((s, w, d)), axis=2)
        radius, margin, _ = _widest_gaps(spectra)
        # Disjoint grids and a piecewise-linear gauge whose steps on segment
        # i are random shares of u * 2 * margin[i].
        ts = np.arange(s)[:, None] + np.linspace(0.0, 0.5, w)
        rises = np.ones((s, w))
        rises[:, 1:] = rng.random((s, w - 1)) * (u * 2.0 * margin)[:, None]
        values = np.cumsum(rises.ravel())
        gauged = SimpleNamespace(gauge=lambda t: np.interp(t, ts.ravel(), values))
        dg = np.diff(gauged.gauge(ts.ravel()).reshape(ts.shape), axis=1)
        opts = FlowOptions()
        with_gauge = _check_windows(gauged, ts, spectra, radius, margin, opts)
        without = _check_windows(SimpleNamespace(gauge=None), ts, spectra, radius, margin, opts)
        reasons, plain = _reasons(with_gauge), _reasons(without)
        for i in np.flatnonzero(margin > 0.5 * dg.max(axis=1)).tolist():
            assert reasons[i] == plain[i]
            assert with_gauge[2][i] == without[2][i]

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=6),
        st.booleans(),
    )
    def test_affine_paths_keep_their_counts_between_witnesses(self, seed, dim, cplx):
        rng = np.random.default_rng(seed)
        a, b = _hermitian(rng, dim, cplx), 2.0 * _hermitian(rng, dim, cplx)
        path = matrix_path(dim, lambda t: a + t * b, lipschitz=float(np.linalg.norm(b, 2)))
        cert = spectral_flow(path)
        _assert_counts_hold_between_witnesses(
            cert, lambda ts: np.linalg.eigvalsh(a + ts[:, None, None] * b)
        )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=4, max_value=6),
        st.integers(min_value=2, max_value=12),
        st.booleans(),
    )
    def test_sampled_paths_keep_their_counts_between_witnesses(self, seed, dim, n, cplx):
        # Up to ten kinks, where an eigenvalue can leave the window and come
        # back between two witnesses.
        rng = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
        mats = np.array([_hermitian(rng, dim, cplx) for _ in range(n)])
        cert = spectral_flow(sampled_path(list(zip(times.tolist(), mats))))

        def solve(ts):
            k = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, n - 2)
            w = ((ts - times[k]) / (times[k + 1] - times[k]))[:, None, None]
            return np.linalg.eigvalsh((1.0 - w) * mats[k] + w * mats[k + 1])

        _assert_counts_hold_between_witnesses(cert, solve)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=5.0, max_value=40.0),
    )
    def test_oscillating_paths_keep_their_counts_between_witnesses(self, seed, dim, omega):
        # A + sin(omega t) B with the gauge omega ||B||_2 t: its eigenvalues
        # turn back, so a rule that accepted too much would let one leave
        # the window and return between two witnesses.
        rng = np.random.default_rng(seed)
        a, b = _hermitian(rng, dim, False), _hermitian(rng, dim, False)
        bound = omega * float(np.linalg.norm(b, 2))
        cert = spectral_flow(matrix_path(dim, lambda t: a + np.sin(omega * t) * b, lipschitz=bound))
        _assert_counts_hold_between_witnesses(
            cert, lambda ts: np.linalg.eigvalsh(a + np.sin(omega * ts)[:, None, None] * b)
        )

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_verify_rejects_a_radius_moved_onto_a_gauge_step(self, k):
        # On the initial segment [0, 0.125] the eigenvalue t - 0.5 runs from
        # -0.5 to -0.375 in steps of 1/64, the gauge step of each witness
        # interval.  A radius between its values at the ends of interval k
        # makes their distances sum to exactly that step.
        path = matrix_path(2, lambda t: np.diag([t - 0.5, 3.0]), lipschitz=1.0)
        cert = spectral_flow(path)
        w = cert.witnesses[0]
        assert (w.t_lower, w.t_upper, len(w.grid)) == (0.0, 0.125, 9)
        moved = dataclasses.replace(w, radius=0.5 - (2 * k + 1) / 128, margin=1 / 128)
        forged = dataclasses.replace(cert, witnesses=(moved, *cert.witnesses[1:]))
        with pytest.raises(CertificateBroken) as info:
            forged.verify(path)
        assert str(info.value) == (
            f"segment [0.0, 0.125]: Lipschitz slack: on [{k / 64!r}, {(k + 1) / 64!r}] eigenvalue 0 "
            "is 7.812e-03 and 7.812e-03 from the window edge, a sum of 1.562e-02 that does not "
            "exceed the gauge step 1.562e-02 (L = 1.000e+00 times the witness spacing 1.562e-02)"
        )


def _random_sampled(seed: int, complex_knots: tuple[bool, ...]):
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 4
    knots = []
    for t, cplx in zip(np.linspace(0.0, 1.0, len(complex_knots)).tolist(), complex_knots):
        g = rng.standard_normal((dim, dim))
        if cplx:
            g = g + 1j * rng.standard_normal((dim, dim))
        knots.append((t, (g + g.conj().T) / 2))
    return sampled_path(knots)


def _bumped_slice(seed: int, s: float):
    a = random_family(2 + seed % 6, seed, invertible_ends=True)
    bump = np.diag(np.linspace(-0.5, 0.5, a.dim))
    bumped = matrix_path(
        a.dim, lambda t: a.at(t).entries + np.sin(np.pi * t) * bump, a.lipschitz + 0.5 * np.pi
    )
    return affine_homotopy(a, bumped).slice_at(s)


def _resolvable_warp(seed: int):
    # Interior knots at least 1/80 apart, so the slope stays below 80.
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.05, 1.0, 2 + seed % 3)
    xs = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    xs[-1] = 1.0
    ys = np.linspace(0.0, 1.0, xs.size)
    slope = float(np.max(np.diff(ys) / np.diff(xs)))
    a = random_family(2 + seed % 5, seed)
    return reparametrize(a, lambda t: float(np.interp(t, xs, ys)), lipschitz=a.lipschitz * slope)


def _concat_segment(seed: int):
    a = random_family(3, seed)
    return concat(a, straight_segment(a.at(1.0), invertible_valued_family(3, seed).at(0.0)))


INERTIA_PATHS = {
    "random": lambda seed: random_family(2 + seed % 11, seed),
    "invertible-valued": lambda seed: invertible_valued_family(2 + seed % 7, seed),
    "baer": lambda seed: baer_family(BaerFamilySpec(m=1 + seed % 5)),
    "circle": lambda seed: circle_family(4, seed % 9 - 4),
    "glue": _glued,
    "sampled real": lambda seed: _random_sampled(seed, (False, False, False)),
    "sampled complex": lambda seed: _random_sampled(seed, (True, True, True)),
    "sampled mixed": lambda seed: _random_sampled(seed, (False, False, True, False)),
    "concat": _concat_segment,
    "reverse": lambda seed: reverse(random_family(2 + seed % 6, seed)),
    "interior slice": lambda seed: _bumped_slice(seed, 0.3),
    "end slice": lambda seed: _bumped_slice(seed, 1.0),
    "warp": _resolvable_warp,
    "add dense": dense_sum,
    "add diagonal": diagonal_sum,
    "add mixed": mixed_sum,
    "concat mixed": mixed_concat,
}


class TestEndpointInertia:
    """In finite dimensions the flow is endpoint data: ``neg(A(0)) - neg(A(1))``."""

    @given(st.sampled_from(sorted(INERTIA_PATHS)), st.integers(min_value=0, max_value=10_000))
    def test_flow_is_the_drop_in_negative_count(self, kind, seed):
        path = INERTIA_PATHS[kind](seed)
        cert = spectral_flow(path)
        ends = path.spectra([0.0, 1.0])
        neg = np.count_nonzero(ends < -_zero_band(ends)[:, None], axis=1)
        assert cert.flow == int(neg[0] - neg[1])


class TestZeroBand:
    """An end eigenvalue counts as zero only within the eigensolver's rounding of 0."""

    @pytest.mark.parametrize("bg", [1e9, 1e10, 1e12])
    def test_small_end_eigenvalue_beside_large_ones_keeps_its_sign(self, bg):
        # At t=0 the eigenvalue -1 is 1e-9 to 1e-12 of the scale: negative, not zero.
        path = matrix_path(3, lambda t: np.diag([2 * t - 1, bg, -bg]), lipschitz=2.0)
        cert = spectral_flow(path)
        assert cert.flow == 1
        cert.verify(path)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP direction 13")
    @pytest.mark.parametrize("bg", [1e15, 1e16])
    def test_end_eigenvalue_inside_a_wide_zero_band_keeps_its_sign(self, bg):
        # The zero band at this scale is wider than the exactly stored end
        # eigenvalue -1, which then counts as zero and the flow reads 0.
        # The flow is 1; a named error would also do, a wrong flow not.
        path = matrix_path(3, lambda t: np.diag([2 * t - 1, bg, -bg]), lipschitz=2.0)
        try:
            flow = spectral_flow(path).flow
        except SpectralFlowError:
            return
        assert flow == 1

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_exact_zero_at_a_rotated_end_is_counted(self, dim):
        # One eigenvalue goes from -1 to exactly 0; rotated, the solve
        # puts it a rounding below 0, where it still counts as zero.
        rng = np.random.default_rng(2)
        u = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        rest = rng.uniform(1.0, 3.0, dim - 1) * rng.choice([-1.0, 1.0], dim - 1)
        a, b = (SelfAdjointOperator((u * np.r_[v, rest]) @ u.T) for v in (-1.0, 0.0))
        path = straight_segment(a, b)
        end = path.spectra([1.0])[0]
        assert 0.0 > end[np.argmin(np.abs(end))] > -_zero_band(end)
        cert = spectral_flow(path)
        assert cert.flow == 1
        cert.verify(path)


def _outcome(refine, path, opts: FlowOptions) -> str:
    """The certificate document ``refine(path, opts)`` gives, or its ``DepthExceeded`` text."""
    try:
        return dumps_document(flow_certificate_document(refine(path, opts)))
    except DepthExceeded as exc:
        return f"DepthExceeded: {exc}"


def _depth_first(path, opts: FlowOptions) -> FlowCertificate:
    """Reference refinement: one segment at a time, depth first, left to right.

    Each segment is read with the engine's own kernels.  The first segment
    rejected at ``max_depth``, the leftmost one, raises.
    """
    edges = np.linspace(0.0, 1.0, opts.init_samples + 1).tolist()
    todo = [(lo, hi, 0, opts.witness_points) for lo, hi in zip(edges[:-1], edges[1:])][::-1]
    leaves, pairs = [], []
    while todo:
        lo, hi, depth, points = todo.pop()
        ts, spectra = _witness_spectra(path, [lo], [hi], points)
        radius, margin, empty = _widest_gaps(spectra)
        counts, end_counts, failed, reason = _check_windows(path, ts, spectra, radius, margin, opts)
        grid = ts[0].tolist()
        if not (failed[0] or empty[0]):
            leaves.append(
                SegmentWitness(lo, hi, float(radius[0]), float(margin[0]), tuple(grid), int(counts[0]))
            )
            pairs.append(tuple(end_counts[0].tolist()))
        elif depth >= opts.max_depth:
            ends = path.spectra([0.0, 1.0])
            neg = np.count_nonzero(ends < -_zero_band(ends)[:, None], axis=1)
            raise DepthExceeded(
                f"segment [{lo:.9g}, {hi:.9g}] not certifiable at bisection depth {depth} "
                f"({_ALL_ZERO if empty[0] else reason(0)}); endpoint inertia gives flow "
                f"{int(neg[0] - neg[1])}"
            )
        elif points > 2:
            todo += [(a, b, depth, 2) for a, b in zip(grid[:-1], grid[1:])][::-1]
        else:
            mid = 0.5 * (lo + hi)
            todo += [(mid, hi, depth + 1, 2), (lo, mid, depth + 1, 2)]
    times = (0.0, *(w.t_upper for w in leaves))
    flow = sum(b - a for a, b in pairs)
    return FlowCertificate(times, tuple(leaves), tuple(pairs), flow, opts)


SCHEDULE_PATHS = {
    **INERTIA_PATHS,
    "matrix path mixed": mixed_matrix_path,
    # Paths that fail at depth 20: crossings that no margin resolves.
    "zero at a dyadic point": lambda seed: matrix_path(
        2, lambda t: np.diag([t - 0.5, 1.0 + seed % 5]), lipschitz=1.0
    ),
    "tanh with a bound": lambda seed: matrix_path(
        1, lambda t: [[-2.0 * np.tanh(1e3 * (t - 0.44))]], lipschitz=2e3
    ),
    "tanh without a bound": lambda seed: _tanh_jump(),
    # The gauge jumps between two adjacent floats: fails at depth 20.
    "warp between adjacent floats": lambda seed: knot_warp(
        random_family(5, 0), [0.99, 0.9899999999999999]
    ),
    # Rejected everywhere, so rounds of up to 64 segments fill.
    "zero path": lambda seed: matrix_path(1, lambda t: np.zeros((1, 1))),
    "constant with a loose bound": lambda seed: matrix_path(
        1, lambda t: [[1.0 + seed % 5]], lipschitz=1e9
    ),
}


class TestScheduleParity:
    """Refinement in rounds decides what depth-first refinement decides.

    :func:`_depth_first` reads one segment at a time.  The certificate
    bytes, or the ``DepthExceeded`` text, must not change, and a path that
    certifies must solve the same parameters.
    """

    @given(
        st.sampled_from(sorted(SCHEDULE_PATHS)),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([2, 4, 20]),
        st.integers(min_value=2, max_value=9),
    )
    def test_batched_matches_depth_first(self, kind, seed, init_samples, max_depth, witness_points):
        opts = FlowOptions(
            init_samples=init_samples, max_depth=max_depth, witness_points=witness_points
        )
        engine, reference = SCHEDULE_PATHS[kind](seed), SCHEDULE_PATHS[kind](seed)
        outcome = _outcome(spectral_flow, engine, opts)
        assert outcome == _outcome(_depth_first, reference, opts)
        if not outcome.startswith("DepthExceeded"):
            assert set(engine._cache) == set(reference._cache)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: invertible_valued_family(12, 0),
            lambda: random_family(5, 2),
            lambda: mixed_matrix_path(1),
            lambda: knot_warp(random_family(5, 0), [0.5, 0.501]),
        ],
        ids=["invertible", "random", "mixed", "warp"],
    )
    def test_a_certifying_flow_reads_rows_once_per_round(self, make, monkeypatch):
        # The end counts come from the round that accepts a segment, so no
        # row is read after the last round.
        path = make()
        rounds, reads = [], []
        witness_spectra, spectra = flow._witness_spectra, OperatorPath.spectra

        def round_(*args):
            rounds.append(None)
            return witness_spectra(*args)

        def read(self, ts):
            reads.append(None)
            return spectra(self, ts)

        monkeypatch.setattr(flow, "_witness_spectra", round_)
        monkeypatch.setattr(OperatorPath, "spectra", read)
        spectral_flow(path)
        assert len(reads) == len(rounds) > 0

    def test_a_round_after_the_first_reads_at_most_64_segments(self, monkeypatch):
        sizes = []
        original = flow._witness_spectra

        def record(path, lo, hi, points):
            sizes.append(len(lo))
            return original(path, lo, hi, points)

        monkeypatch.setattr(flow, "_witness_spectra", record)
        with pytest.raises(DepthExceeded, match=r"\[0, 1.1920929e-09\] .* depth 20 \(all zero"):
            spectral_flow(matrix_path(1, lambda t: np.zeros((1, 1))), init_samples=100)
        assert sizes[0] == 100 and max(sizes[1:]) == 64
        assert len(sizes) == 22
