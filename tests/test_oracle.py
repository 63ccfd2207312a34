"""Brute-force oracle: crossing records, refinement, doubling stability."""

from __future__ import annotations

import numpy as np
import pytest

from specflow import (
    BaerFamilySpec,
    BoundaryAmbiguity,
    ResolutionWarning,
    baer_family,
    matrix_path,
    oracle_flow,
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
        # At t=0 the operator is zero (radius 0): the band is 1e-9 * 1.0.
        p = matrix_path(2, lambda t: t * np.eye(2))
        with pytest.raises(BoundaryAmbiguity, match=r"endpoint t=0\.0 .* within 1\.000e-09 of 0"):
            oracle_flow(p)

    def test_net_flow_equals_record_sum(self):
        p = matrix_path(2, lambda t: np.diag([np.cos(3 * np.pi * t), -4.0]))
        res = oracle_flow(p)
        assert res.flow == sum(r.direction for r in res.crossings)
        assert res.flow == -1  # cos(3 pi t): + -> -, three crossings net -1
        assert len(res.crossings) == 3
