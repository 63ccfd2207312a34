"""Spectrum merge under bounded perturbation: window counts and flows."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from specflow import (
    BaerFamilySpec,
    BoundaryAmbiguity,
    GluingSpec,
    InvalidSpec,
    Spectrum,
    WindowCountViolation,
    glue,
    matrix_path,
    oracle_flow,
    spectral_flow,
    window_count_constancy,
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
        spec = GluingSpec(base=[-7.0, 7.0], sphere_family=BaerFamilySpec(m=1), epsilon=0.1)
        assert isinstance(spec.base, Spectrum)


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


class TestWindowCountConstancy:
    def test_constant_count_equals_multiplicity(self):
        g = glue(make_spec(3, 0.4, seed=4))
        report = window_count_constancy(g.path)
        assert report.count == 4
        assert report.grid == 101

    def test_unperturbed_count_exact(self):
        g = glue(make_spec(5, 0.0))
        assert window_count_constancy(g.path).count == 6

    def test_violation_flagged_with_location(self):
        # an eigenvalue walks into the window between grid points: count 1 -> 2
        p = matrix_path(2, lambda t: np.diag([0.0, 3.07 - 2.0 * t]))
        with pytest.raises(WindowCountViolation) as err:
            window_count_constancy(p)
        assert err.value.t is not None
        assert err.value.spectrum is not None

    def test_boundary_collision_is_ambiguous_not_assigned(self):
        # an eigenvalue exactly on the window boundary at a grid point
        p = matrix_path(2, lambda t: np.diag([0.0, 3.0 - 2.0 * t]))  # hits 2.0 at t=0.5
        with pytest.raises(BoundaryAmbiguity):
            window_count_constancy(p)

    def test_ambiguity_text_is_exact(self):
        p = matrix_path(3, lambda t: np.diag([-1.0, 0.5, 3.0]))
        with pytest.raises(BoundaryAmbiguity) as err:
            window_count_constancy(p, grid=3, radius=0.5)
        assert str(err.value) == (
            "eigenvalue within 3.000e-09 of interval endpoint 0.5 (distance 0.000e+00); "
            "move the endpoint off the spectrum"
        )

    def test_first_ambiguous_grid_point_named_lower_boundary_first(self):
        # +2 is hit at t=0.25, -2 at t=0.5; both are hit at t=0.5 in the second path.
        early = matrix_path(2, lambda t: np.diag([-3.0 + 2.0 * t, 3.0 - 4.0 * t]))
        with pytest.raises(BoundaryAmbiguity, match=r"endpoint 2\.0 "):
            window_count_constancy(early)
        both = matrix_path(2, lambda t: np.diag([-3.0 + 2.0 * t, 3.0 - 2.0 * t]))
        with pytest.raises(BoundaryAmbiguity, match=r"endpoint -2\.0 "):
            window_count_constancy(both)

    def test_boundary_guard_relative_to_scale(self):
        # 1e-5 from the boundary is inside 1e-9 * 1e6 but outside 1e-9 * 2.
        wide = matrix_path(2, lambda t: np.diag([1e6, 1.0]))
        with pytest.raises(BoundaryAmbiguity) as err:
            window_count_constancy(wide, grid=3, radius=1.0 + 1e-5)
        assert str(err.value) == (
            "eigenvalue within 1.000e-03 of interval endpoint 1.00001 (distance 1.000e-05); "
            "move the endpoint off the spectrum"
        )
        narrow = matrix_path(2, lambda t: np.diag([2.0, 1.0]))
        assert window_count_constancy(narrow, grid=3, radius=1.0 + 1e-5).count == 1

    def test_zero_spectrum_uses_unit_scale(self):
        zero = matrix_path(2, lambda t: np.zeros((2, 2)))
        with pytest.raises(BoundaryAmbiguity) as err:
            window_count_constancy(zero, grid=3, radius=5e-10)
        assert str(err.value) == (
            "eigenvalue within 1.000e-09 of interval endpoint -5e-10 (distance 5.000e-10); "
            "move the endpoint off the spectrum"
        )
        assert window_count_constancy(zero, grid=3, radius=2e-9).count == 2

    @pytest.mark.parametrize("kwargs", [{"grid": 0}, {"radius": -1.0}], ids=["grid-0", "radius-negative"])
    def test_empty_grid_or_window_rejected(self, kwargs):
        p = matrix_path(2, lambda t: np.diag([0.0, 3.0]))
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            window_count_constancy(p, **kwargs)
