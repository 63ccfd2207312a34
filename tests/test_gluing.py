"""Spectrum merge under bounded perturbation: window counts and flows."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from conftest import window_counts
from specflow import (
    BaerFamilySpec,
    GluingSpec,
    InvalidSpec,
    Spectrum,
    glue,
    oracle_flow,
    spectral_flow,
)

BASE = Spectrum([-7.0, -3.0, 3.0, 7.0])


def make_spec(m: int, epsilon: float, seed: int = 0) -> GluingSpec:
    return GluingSpec(base=BASE, sphere_family=BaerFamilySpec(m=m), epsilon=epsilon, seed=seed)


class TestGluingSpecValidation:
    def test_base_inside_window_rejected(self):
        with pytest.raises(InvalidSpec, match=r"\[-2, 2\]"):
            GluingSpec(base=Spectrum([1.0, 5.0]), sphere_family=BaerFamilySpec(m=1), epsilon=0.1)

    def test_epsilon_range(self):
        with pytest.raises(InvalidSpec):
            make_spec(1, 0.5)
        with pytest.raises(InvalidSpec):
            make_spec(1, -0.1)

    def test_epsilon_vs_boundary_gap(self):
        # base at +/-2.1 leaves a gap of 0.1 to the window boundary;
        # epsilon=0.4 could push an eigenvalue inside and is rejected
        with pytest.raises(InvalidSpec, match="half the minimal gap"):
            GluingSpec(
                base=Spectrum([-2.1, 2.1]),
                sphere_family=BaerFamilySpec(m=3),
                epsilon=0.4,
            )

    def test_base_sequence_coerced(self):
        spec = GluingSpec(base=[7.0, -7.0], sphere_family=BaerFamilySpec(m=1), epsilon=0.1)
        assert isinstance(spec.base, np.ndarray)
        assert spec.base.dtype == np.float64 and spec.base.ndim == 1
        assert spec.base.tolist() == [-7.0, 7.0]
        assert not spec.base.flags.writeable

    def test_spec_hashes_and_compares_by_identity(self):
        a, b = make_spec(1, 0.1), make_spec(1, 0.1)
        assert len({a, b, a}) == 2
        assert a == a
        assert a != b


class TestGlue:
    def test_unperturbed_merge_exact(self):
        g = glue(make_spec(2, 0.0))
        assert spectral_flow(g.path).flow == 3
        for t in (0.0, 0.5, 1.0):
            assert np.array_equal(g.perturbed_values(t), g.unperturbed_values(t))

    def test_perturbed_flow_any_seed(self):
        for seed in range(8):
            g = glue(make_spec(3, 0.4, seed))
            cert = spectral_flow(g.path)
            assert cert.flow == 4
            assert cert.flow == oracle_flow(g.path).flow

    def test_flow_exceeds_floor_across_m(self):
        for m in range(1, 6):
            for seed in (0, 1):
                g = glue(make_spec(m, 0.4, seed))
                assert spectral_flow(g.path).flow == m + 1 > m

    def test_perturbation_strictly_bounded(self):
        g = glue(make_spec(4, 0.4, seed=5))
        assert g.max_deviation(grid=301) < 0.4

    def test_constant_count_equals_multiplicity(self):
        g = glue(make_spec(3, 0.4, seed=4))
        assert (window_counts(g.path) == 4).all()

    def test_unperturbed_count_exact(self):
        g = glue(make_spec(5, 0.0))
        assert (window_counts(g.path) == 6).all()

    def test_window_boundary_never_hit(self):
        g = glue(make_spec(2, 0.4, seed=9))
        for t in np.linspace(0.0, 1.0, 101):
            vals = np.linalg.eigvalsh(g.path.at(float(t)).entries)
            assert np.abs(np.abs(vals) - 2.0).min() > 0.05

    def test_endpoints_invertible(self):
        g = glue(make_spec(3, 0.45, seed=2))
        for t in (0.0, 1.0):
            vals = np.linalg.eigvalsh(g.path.at(t).entries)
            assert np.abs(vals).min() > 0.05

    def test_epsilon_zero_limit_matches_unperturbed(self):
        for seed in (0, 3):
            g0 = glue(make_spec(3, 0.0, seed))
            g = glue(make_spec(3, 0.3, seed))
            assert spectral_flow(g0.path).flow == spectral_flow(g.path).flow

    def test_noise_continuous_in_t(self):
        g = glue(make_spec(2, 0.4, seed=11))
        ts = np.linspace(0.0, 1.0, 400)
        prev = g.perturbed_values(float(ts[0]))
        for t in ts[1:]:
            cur = g.perturbed_values(float(t))
            assert np.abs(cur - prev).max() < 0.05  # small steps, small moves
            prev = cur


    def test_freed_without_cycle_collector(self):
        # The path's build must not refer back to the glued path: with the cycle
        # collector off, dropping the last reference frees the path and the
        # rows in its cache.
        gc.disable()
        try:
            g = glue(make_spec(m=2, epsilon=0.3, seed=1))
            g.path.spectra(np.linspace(0.0, 1.0, 17))
            alive = weakref.ref(g)
            row = weakref.ref(g.path._cache[0.5])
            del g
            assert alive() is None
            assert row() is None
        finally:
            gc.enable()
