"""Model families: crossing spectra, circle Dirac operators, random paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_min_abs
from specflow import (
    BaerFamilySpec,
    CircleDiracSpec,
    InvalidSpec,
    baer_family,
    circle_dirac,
    circle_family,
    concat,
    invertible_valued_family,
    oracle_flow,
    random_family,
    reverse,
    spectral_flow,
)
from specflow.families import random_symmetric


class TestBaerFamily:
    def test_minimal_multiplicity_choice(self):
        spec = BaerFamilySpec(m=3, background=(5.0, -5.0))
        assert spec.multiplicity == 4
        assert spec.dim == 6

    def test_background_inside_window_rejected(self):
        with pytest.raises(InvalidSpec):
            BaerFamilySpec(m=1, background=(1.5,))
        with pytest.raises(InvalidSpec):
            BaerFamilySpec(m=1, background=(-2.0,))

    def test_nonpositive_m_rejected(self):
        with pytest.raises(InvalidSpec):
            BaerFamilySpec(m=0)

    @given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=1.0))
    def test_window_holds_exactly_multiplicity_eigenvalues(self, m, t):
        spec = BaerFamilySpec(m=m)
        vals = np.linalg.eigvalsh(baer_family(spec).at(t).entries)
        inside = vals[np.abs(vals) <= 2.0]
        assert len(inside) == spec.multiplicity
        assert np.allclose(inside, 2 * t - 1)

    def test_flow_exceeds_multiplicity_floor(self):
        for m in (1, 3):
            p = baer_family(BaerFamilySpec(m=m, background=(5.0, -5.0)))
            flow = spectral_flow(p).flow
            assert flow == m + 1 > m
            assert flow == oracle_flow(p).flow

    def test_kernel_at_midpoint(self):
        spec = BaerFamilySpec(m=2)
        vals = np.linalg.eigvalsh(baer_family(spec).at(0.5).entries)
        assert np.count_nonzero(vals == 0.0) == spec.multiplicity


class TestCircleDirac:
    def test_nontrivial_structure_spectrum(self):
        op = circle_dirac(CircleDiracSpec(modes=2, spin_shift=0.5))
        assert op.spectrum.tolist() == [-1.5, -0.5, 0.5, 1.5, 2.5]

    def test_trivial_structure_has_zero_mode(self):
        op = circle_dirac(CircleDiracSpec(modes=2, spin_shift=0.0))
        assert 0.0 in op.spectrum.tolist()

    def test_single_winding_flow(self):
        p = circle_family(modes=3, winding=1)
        assert spectral_flow(p).flow == 1 == oracle_flow(p).flow

    def test_invalid_shift_rejected(self):
        with pytest.raises(InvalidSpec):
            CircleDiracSpec(modes=2, spin_shift=0.3)
        with pytest.raises(InvalidSpec):
            circle_family(modes=2, winding=1, spin_shift=0.0)

    def test_winding_beyond_modes_rejected(self):
        with pytest.raises(InvalidSpec, match="winding 3 exceeds represented modes K=2"):
            circle_family(modes=2, winding=3)

    @pytest.mark.parametrize("winding", [-3, -1, 0, 1, 3])
    def test_flow_equals_winding(self, winding):
        p = circle_family(modes=5, winding=winding)
        assert spectral_flow(p).flow == winding

    def test_eigenvalue_curves_affine_with_winding_slope(self):
        p = circle_family(modes=4, winding=2)
        v0 = np.linalg.eigvalsh(p.at(0.0).entries)
        v_half = np.linalg.eigvalsh(p.at(0.5).entries)
        v1 = np.linalg.eigvalsh(p.at(1.0).entries)
        assert np.allclose(np.sort(v1 - v0), 2.0)
        assert np.allclose(v_half, (v0 + v1) / 2)


class TestRandomFamily:
    def test_seeded_samples_bitwise_reproducible(self):
        a = random_family(6, seed=123)
        b = random_family(6, seed=123)
        for t in (0.0, 0.37, 1.0):
            assert a.at(t).entries.tolist() == b.at(t).entries.tolist()

    def test_different_seeds_differ(self):
        a = random_family(6, seed=1)
        b = random_family(6, seed=2)
        assert not np.array_equal(a.at(0.5).entries, b.at(0.5).entries)

    def test_invertible_ends_margin(self):
        for seed in range(20):
            p = random_family(2 + seed % 11, seed, invertible_ends=True)
            for t in (0.0, 1.0):
                vals = np.linalg.eigvalsh(p.at(t).entries)
                assert np.abs(vals).min() >= 1e-3

    def test_loop_flow_vanishes(self):
        for seed in range(20):
            p = random_family(2 + seed % 7, seed, invertible_ends=True)
            assert spectral_flow(concat(p, reverse(p))).flow == 0

    def test_dim_range_enforced(self):
        with pytest.raises(ValueError):
            random_family(1, seed=0)
        with pytest.raises(ValueError):
            random_family(33, seed=0)

    def test_deterministic_certificates(self):
        c1 = spectral_flow(random_family(5, seed=77))
        c2 = spectral_flow(random_family(5, seed=77))
        assert c1.flow == c2.flow
        assert c1.times == c2.times
        assert c1.radii == c2.radii


class TestInvertibleValuedFamily:
    @settings(max_examples=15)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
    def test_never_near_zero(self, dim, seed):
        p = invertible_valued_family(dim, seed)
        assert brute_min_abs(p, grid=60) >= 0.19

    def test_flow_zero(self):
        for seed in range(10):
            p = invertible_valued_family(2 + seed, seed)
            assert spectral_flow(p).flow == 0


_GAUGED = {
    "random": lambda d, seed: random_family(d, seed),
    "random, invertible ends": lambda d, seed: random_family(d, seed, invertible_ends=True),
    "invertible-valued": invertible_valued_family,
}


class TestGauges:
    """The smooth families' gauges integrate their pointwise slope bounds."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    @pytest.mark.parametrize("dim", [2, 5, 12, 32])
    @pytest.mark.parametrize("family", sorted(_GAUGED))
    def test_gauge_bounds_every_step_and_never_exceeds_the_global_bound(self, family, dim, seed):
        path = _GAUGED[family](dim, seed)
        rng = np.random.default_rng([dim, seed])
        lo = rng.random(56)
        hi = lo + 10.0 ** rng.uniform(-9, 0, lo.size) * (1 - lo)
        # Both ends, the whole path and a pair across t = 1/2, where the
        # slope of sin(pi t) vanishes and the gauge is at its tightest.
        lo = np.concatenate([lo, [0.0, 0.5 - 1e-9, 1 - 1e-9, 0.0]])
        hi = np.concatenate([hi, [1e-9, 0.5 + 1e-9, 1.0, 1.0]])
        assert (hi - lo).min() > 0
        g_lo, g_hi = path.gauge(lo), path.gauge(hi)
        # Both sides round: the gauge values by a few ulps of g(t), the built
        # entries by a few ulps of the operator, allowed as 1e-13 of its norm.
        slack = 4 * np.spacing(g_hi)
        for s, t, gs, gt, rounding in zip(lo, hi, g_lo, g_hi, slack):
            a_s, a_t = path.at(s).entries, path.at(t).entries
            step = np.linalg.norm(a_t - a_s, 2)
            assert step <= gt - gs + rounding + 1e-13 * np.linalg.norm(a_t, 2)
        assert (g_hi - g_lo <= path.lipschitz * (hi - lo) + slack).all()

    @pytest.mark.parametrize("family", sorted(_GAUGED))
    def test_gauge_starts_at_zero_and_never_decreases(self, family):
        for dim, seed in [(2, 0), (5, 1), (12, 7), (32, 11)]:
            gauge = _GAUGED[family](dim, seed).gauge
            assert gauge(np.zeros(1)).tolist() == [0.0]
            assert (np.diff(gauge(np.linspace(0.0, 1.0, 10_001))) >= 0).all()

    def test_total_variation_replaces_pi_by_two(self):
        # sin(pi t) varies by 2 over [0, 1], where its largest slope is pi.
        rng = np.random.default_rng(3)
        _, b, c = (random_symmetric(rng, 5) for _ in range(3))
        nb, nc = np.linalg.norm(b, 2), np.linalg.norm(c, 2)
        path = random_family(5, 3)
        assert path.lipschitz == nb + np.pi * nc
        assert path.gauge(np.array([0.5, 1.0])) == pytest.approx([nb / 2 + nc, nb + 2 * nc], rel=1e-15)
