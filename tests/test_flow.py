"""Partition refinement and the certified spectral flow."""

from __future__ import annotations

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    brute_endpoint_flow,
    brute_window_count,
    dense_sum,
    diagonal_sum,
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
    SegmentWitness,
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
from specflow.flow import _check_windows, _widest_gaps, _witness_spectra
from specflow.operators import spectral_scale
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
        # The knots are one ulp apart, so the warp's slope bound is about
        # 4e16 and no witness spacing reachable at depth 20 beats it.
        a = random_family(5, seed=0)
        xs = np.array([0.0, 0.9899999999999999, 0.99, 1.0])
        ys = np.linspace(0.0, 1.0, 4)
        slope = float(np.max(np.diff(ys) / np.diff(xs)))
        p = reparametrize(a, lambda t: float(np.interp(t, xs, ys)), lipschitz=a.lipschitz * slope)
        with pytest.raises(DepthExceeded) as info:
            spectral_flow(p)
        assert str(info.value) == (
            "segment [0, 1.1920929e-07] not certifiable at bisection depth 20 "
            "(Lipschitz slack: margin 4.898e-01 does not exceed 0.5 * L * step = 2.972e+08 "
            f"with L = {a.lipschitz * slope:.3e}, step = 1.490e-08)"
        )

    @pytest.mark.parametrize(
        "diag, options, reason",
        [
            # |eigenvalues| 0, 1, 2 leave gaps of 1, so the margin is 0.5,
            # below the floor 0.5 * 2.
            (lambda t: [1.0, 2.0], FlowOptions(min_margin=0.5), "margin floor: margin 5.000e-01"),
            # An eigenvalue sweeping [0, 4] crosses every candidate radius.
            (lambda t: [4.0 * t, 1.0], FlowOptions(), "count drift: the count in"),
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
        path, cert = certified
        w = cert.witnesses[self.SEGMENT]
        tampered = self._with_witness(cert, grid=(w.t_lower, w.t_upper))
        assert self._broken(path, tampered) == (
            f"segment [{w.t_lower!r}, {w.t_upper!r}]: witness grid is not the 9-point grid of the segment"
        )

    def test_last_count_pair_dropped(self, certified):
        path, cert = certified
        counts = cert.counts[:-1]
        tampered = dataclasses.replace(cert, counts=counts, flow=sum(hi - lo for lo, hi in counts))
        # The last segment carries a crossing, so the forged flow is off by one.
        assert (tampered.flow, cert.flow) == (1, 2)
        n = len(cert.witnesses)
        assert self._broken(path, tampered) == f"{n - 1} count pairs recorded for {n} segments"


class TestVerifyRejectsForgery:
    """A hand-made certificate for a path it does not hold on."""

    @staticmethod
    def _forged(witness_points: int):
        # Flow 0: 0.5 + 1.5t stays positive and -2 + 1.5t negative.  The one
        # forged window [-1, 1] has margin 0.5 at both witnesses t=0 and t=1,
        # yet both eigenvalues cross its edges in between.
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

    @pytest.mark.parametrize(
        "witness_points, reason",
        [
            (9, "witness grid is not the 9-point grid of the segment"),
            # Two witnesses are the right grid; only the Lipschitz slack rejects it.
            (
                2,
                "Lipschitz slack: margin 5.000e-01 does not exceed 0.5 * L * step = 7.500e-01 "
                "with L = 1.500e+00, step = 1.000e+00",
            ),
        ],
    )
    def test_forged_flow_rejected(self, witness_points, reason):
        path, cert = self._forged(witness_points)
        assert spectral_flow(path).flow == 0 == oracle_flow(path).flow
        with pytest.raises(CertificateBroken) as info:
            cert.verify(path)
        assert str(info.value) == f"segment [0.0, 1.0]: {reason}"


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
        ts, spectra = _witness_spectra(path, [0.375], [0.5], FlowOptions())
        radius, margin, empty = _widest_gaps(spectra)
        assert not empty[0]
        counts, reasons, _ = _check_windows(path, ts, spectra, radius, margin, FlowOptions())
        assert reasons == [
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


class TestBatchKernel:
    """The window choice and the acceptance rule decide a batch of segments at once."""

    def test_each_segment_gets_its_first_failing_rule(self):
        # One kernel call over six segments (three witnesses, two
        # eigenvalues each).  Segments 2-4 also fail a later rule, which
        # must not win.
        path = matrix_path(2, lambda t: np.diag([-2.0, 3.0]), lipschitz=1.0)
        rows = {
            "ok": [[-2, 3], [-2, 3], [-2, 3]],
            "drift": [[-2, 3], [0.5, 3], [-2, 3]],
            "touch": [[-2, 3], [1.5, 3], [2, 3]],
            "count": [[-2, 3], [-2, 3], [0, 3]],
            "jump": [[-2, 3], [2, 3], [2, 3]],
        }
        spectra = np.array([rows[k] for k in ("ok", "ok", "drift", "touch", "count", "jump")], float)
        ts = np.tile([0.0, 0.05, 0.1], (6, 1))
        margin = np.array([1.0, 1e-9, 0.01, 1.0, 1.0, 1.0])
        counts, reasons, slack_only = _check_windows(path, ts, spectra, np.ones(6), margin, FlowOptions())
        assert counts[0] == 0
        # The slack segment also drifts, so it does not fail on the slack alone.
        assert not slack_only.any()
        assert reasons == [
            None,
            "margin floor: margin 1.000e-09 is below the floor 3.000e-06",
            "Lipschitz slack: margin 1.000e-02 does not exceed 0.5 * L * step = 2.500e-02 "
            "with L = 1.000e+00, step = 5.000e-02",
            "window margin violated at t=0.05",
            "count drift: the count in [-1.000e+00, 1.000e+00] is 0 at t=0.0 but 1 at t=0.1",
            "jump across the window: 1 eigenvalues below -1.000e+00 at t=0.0 but 0 at t=0.05",
        ]

    def test_slack_only_names_the_segments_that_fail_on_nothing_else(self):
        # Segment 0 certifies, 1 fails only on the slack, 2 on the slack and
        # a drift, 3 on the margin floor (its margin is also within the slack).
        path = matrix_path(2, lambda t: np.diag([-2.0, 3.0]), lipschitz=1.0)
        spectra = np.array(
            [[[-2, 3]] * 3, [[-2, 3]] * 3, [[-2, 3], [0.5, 3], [-2, 3]], [[-2, 3]] * 3], float
        )
        ts = np.tile([0.0, 0.05, 0.1], (4, 1))
        margin = np.array([1.0, 0.01, 0.01, 1e-9])
        _, reasons, slack_only = _check_windows(path, ts, spectra, np.ones(4), margin, FlowOptions())
        assert [r is None or r.split(":")[0] for r in reasons] == [
            True,
            "Lipschitz slack",
            "Lipschitz slack",
            "margin floor",
        ]
        assert slack_only.tolist() == [False, True, False, False]

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
        counts, reasons, slack_only = _check_windows(path, ts, spectra, radius, margin, opts)
        for i in range(s):
            one = slice(i, i + 1)
            alone = _widest_gaps(spectra[one])
            assert (alone[0][0], alone[1][0], alone[2][0]) == (radius[i], margin[i], empty[i])
            c, r, only = _check_windows(path, ts[one], spectra[one], alone[0], alone[1], opts)
            assert (c[0], r[0], only[0]) == (counts[i], reasons[i], slack_only[i])
            # The widest gap between the distinct levels, 0 among them.
            levels = sorted({0.0, *np.abs(spectra[i]).ravel().tolist()})
            assert empty[i] == (len(levels) == 1)
            if len(levels) > 1:
                k = max(range(len(levels) - 1), key=lambda j: (levels[j + 1] - levels[j], -j))
                assert radius[i] == 0.5 * (levels[k] + levels[k + 1])
                assert margin[i] == 0.5 * (levels[k + 1] - levels[k])


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
        zero_tol = cert.options.cluster_tol * spectral_scale(ends)
        neg = np.count_nonzero(ends < -zero_tol[:, None], axis=1)
        assert cert.flow == int(neg[0] - neg[1])


def _outcome(path, opts: FlowOptions) -> str:
    """The certificate document of ``path``, or the ``DepthExceeded`` text."""
    try:
        return dumps_document(flow_certificate_document(spectral_flow(path, opts)))
    except DepthExceeded as exc:
        return f"DepthExceeded: {exc}"


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
}


class TestScheduleParity:
    """Batched refinement decides what depth-first refinement decides.

    With ``_BATCH`` at 1 every round reads one segment, depth first.  The
    certificate bytes, or the ``DepthExceeded`` text, must not change.
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
        batched = _outcome(SCHEDULE_PATHS[kind](seed), opts)
        with mock.patch.object(flow, "_BATCH", 1):
            depth_first = _outcome(SCHEDULE_PATHS[kind](seed), opts)
        assert batched == depth_first
