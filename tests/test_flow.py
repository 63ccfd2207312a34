"""Partition refinement and the certified spectral flow."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_endpoint_flow, brute_window_count
from specflow import (
    BaerFamilySpec,
    CertificateBroken,
    DepthExceeded,
    FlowOptions,
    baer_family,
    matrix_path,
    oracle_flow,
    random_family,
    reparametrize,
    spectral_flow,
)


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
        assert message == f"window margin violated at t={first}"

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

    def test_flow_off_by_one(self, certified):
        path, cert = certified
        tampered = dataclasses.replace(cert, flow=cert.flow + 1)
        assert self._broken(path, tampered) == "flow does not telescope over the recorded counts"

    def test_other_path(self, certified):
        _, cert = certified
        self._broken(random_family(6, seed=5), cert)
