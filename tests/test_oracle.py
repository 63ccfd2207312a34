"""Brute-force oracle: crossing records, refinement, doubling stability."""

from __future__ import annotations

import numpy as np
import pytest

from specflow import (
    BaerFamilySpec,
    BoundaryAmbiguity,
    GluingSpec,
    ResolutionWarning,
    baer_family,
    glue,
    matrix_path,
    oracle_flow,
    spectral_flow,
)


class TestOracleFlow:
    def test_constant_invertible_no_records(self):
        p = matrix_path(2, lambda t: np.diag([1.0, -1.0]))
        res = oracle_flow(p)
        assert res.flow == 0
        assert res.crossings == ()

    def test_single_crossing_bracketed_near_half(self):
        p = matrix_path(3, lambda t: np.diag([2 * t - 1, 5.0, -5.0]))
        res = oracle_flow(p)
        assert res.flow == 1
        assert len(res.crossings) == 1
        rec = res.crossings[0]
        assert rec.direction == 1
        assert abs(rec.refined_t - 0.5) < 1e-9
        assert rec.t_upper - rec.t_lower <= 1e-10

    def test_multiplicity_crossing_coincident_records(self):
        p = baer_family(BaerFamilySpec(m=3))
        res = oracle_flow(p)
        assert res.flow == 4
        assert len(res.crossings) == 4
        assert all(abs(r.refined_t - 0.5) < 1e-9 for r in res.crossings)
        assert all(r.direction == 1 for r in res.crossings)

    def test_downward_crossing_direction(self):
        p = matrix_path(2, lambda t: np.diag([1 - 2 * t, 5.0]))
        res = oracle_flow(p)
        assert res.flow == -1
        assert res.crossings[0].direction == -1

    def test_grid_doubling_stable_on_shipped_family(self):
        p = baer_family(BaerFamilySpec(m=2))
        a = oracle_flow(p, grid=64)
        b = oracle_flow(p, grid=128)
        assert a.flow == b.flow
        assert len(a.crossings) == len(b.crossings)

    def test_resolution_warning_on_unresolved_dip(self):
        # A dip below zero of width ~0.007 centered at 65/128: the 64-point
        # grid has no sample inside it, the doubled grid does, so the
        # detected crossing count changes and the run must not pass silently.
        c = 65.0 / 128.0

        def curve(t):
            return 0.05 - 0.2 * np.exp(-(((t - c) / 0.003) ** 2))

        p = matrix_path(2, lambda t: np.diag([curve(t), 3.0]))
        with pytest.raises(ResolutionWarning):
            oracle_flow(p, grid=64)
        # resolved fine at higher grids: two cancelling crossings, net 0
        res = oracle_flow(p, grid=512)
        assert res.flow == 0
        assert len(res.crossings) == 2

    def test_grid_minimum_enforced(self):
        p = matrix_path(2, lambda t: np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            oracle_flow(p, grid=32)

    def test_endpoint_zero_band_guard(self):
        p = matrix_path(2, lambda t: np.diag([2 * t, 5.0]))
        with pytest.raises(BoundaryAmbiguity):
            oracle_flow(p)

    def test_zero_endpoint_guard_uses_unit_scale(self):
        # At t=0 the operator is zero (radius 0): the band is 8 * 2 * eps * 1.0.
        p = matrix_path(2, lambda t: t * np.eye(2))
        with pytest.raises(BoundaryAmbiguity, match=r"endpoint t=0\.0 .* within 3\.553e-15 of 0"):
            oracle_flow(p)

    @pytest.mark.parametrize("bg", [1e9, 1e10, 1e12])
    def test_endpoint_guard_is_the_engine_zero_band(self, bg):
        # The end eigenvalue -1 lies 1e-9 to 1e-12 of the scale below 0:
        # outside the engine's zero band, so the oracle cross-checks the flow.
        p = matrix_path(3, lambda t: np.diag([2 * t - 1, bg, -bg]), lipschitz=2.0)
        assert oracle_flow(p).flow == spectral_flow(p).flow == 1

    def test_net_flow_equals_record_sum(self):
        p = matrix_path(2, lambda t: np.diag([np.cos(3 * np.pi * t), -4.0]))
        res = oracle_flow(p)
        assert res.flow == sum(r.direction for r in res.crossings)
        assert res.flow == -1  # cos(3 pi t): + -> -, three crossings net -1
        assert len(res.crossings) == 3

    def test_cancelling_crossings_in_one_cell_need_the_doubled_grid(self):
        # The m = 4 glue that oracle-grid draws at seed 805.  Slot 0 crosses
        # up at 0.3868, down at 0.5076 and up again at 0.5992; slot 2 crosses
        # up at 0.5059.  The down and up crossings near 0.507 share one cell
        # of width 1/512 and cancel in its count; grid 1024 separates them.
        spec = GluingSpec(
            base=(-7.0, -3.0, 3.0, 7.0),
            sphere_family=BaerFamilySpec(m=4),
            epsilon=0.4,
            seed=31385948,
        )
        path = glue(spec).path
        assert spectral_flow(path).flow == 5
        with pytest.raises(ResolutionWarning, match="512 -> 1024: 5 -> 7"):
            oracle_flow(path, grid=512)
        res = oracle_flow(path, grid=1024)
        assert res.flow == 5
        assert len(res.crossings) == 7
        assert [r.direction for r in res.crossings].count(-1) == 1
