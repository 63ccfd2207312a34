"""Path algebra: concatenation, reversal, affine homotopies, reparametrization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_endpoint_flow
from specflow import (
    EndpointMismatch,
    Homotopy,
    OperatorPath,
    SelfAdjointOperator,
    add,
    affine_homotopy,
    concat,
    constant_path,
    matrix_path,
    random_family,
    reparametrize,
    reverse,
    spectral_flow,
    straight_segment,
)


def crossing_path(up: bool = True):
    sign = 1.0 if up else -1.0
    return matrix_path(3, lambda t: np.diag([sign * (2 * t - 1), 5.0, -5.0]))


class TestConcat:
    def test_constant_constant(self):
        g0 = SelfAdjointOperator.from_diagonal([1.0, -2.0])
        c = concat(constant_path(g0), constant_path(g0))
        for t in (0.0, 0.3, 0.5, 0.8, 1.0):
            assert np.array_equal(c.at(t).entries, g0.entries)

    def test_crossing_then_constant(self):
        a = crossing_path()
        b = constant_path(a.at(1.0))
        c = concat(a, b)
        fa = spectral_flow(a).flow
        fb = spectral_flow(b).flow
        assert (fa, fb) == (1, 0)
        assert spectral_flow(c).flow == fa + fb == brute_endpoint_flow(c)

    def test_loop_flow_zero(self):
        a = crossing_path()
        loop = concat(a, reverse(a))
        assert spectral_flow(loop).flow == 0

    def test_endpoint_mismatch(self):
        a = crossing_path()
        b = constant_path(SelfAdjointOperator.from_diagonal([9.0, 5.0, -5.0]))
        with pytest.raises(EndpointMismatch) as exc:
            concat(a, b)
        assert str(exc.value) == "a(1) != b(0): max entry gap 8.000e+00 exceeds 1e-10 * 5.000e+00"

    def test_dim_mismatch(self):
        with pytest.raises(EndpointMismatch):
            concat(crossing_path(), constant_path(SelfAdjointOperator.from_diagonal([1.0])))


class TestReverse:
    def test_constant_unchanged(self):
        g0 = SelfAdjointOperator.from_diagonal([2.0, -3.0])
        r = reverse(constant_path(g0))
        assert np.array_equal(r.at(0.4).entries, g0.entries)

    def test_flow_negated(self):
        assert spectral_flow(reverse(crossing_path())).flow == -1

    def test_involution_pointwise(self):
        a = random_family(4, seed=11)
        rr = reverse(reverse(a))
        for t in np.linspace(0.0, 1.0, 9):
            assert np.array_equal(rr.at(float(t)).entries, a.at(float(t)).entries)


class TestAffineHomotopy:
    def test_equal_paths_constant_in_s(self):
        a = crossing_path()
        h = affine_homotopy(a, crossing_path())
        for s in (0.0, 0.5, 1.0):
            for t in (0.0, 0.25, 1.0):
                assert np.allclose(h.slice_at(s).at(t).entries, a.at(t).entries)

    def test_contraction_of_loop_to_constant(self):
        # loop at g0 against the constant loop: ends stay pinned at g0
        a = crossing_path()
        loop = concat(a, reverse(a))
        const = constant_path(loop.at(0.0))
        h = affine_homotopy(loop, const)
        for s in np.linspace(0.0, 1.0, 5):
            sl = h.slice_at(float(s))
            assert np.array_equal(sl.at(0.0).entries, loop.at(0.0).entries)
            assert np.array_equal(sl.at(1.0).entries, loop.at(1.0).entries)
        assert spectral_flow(h.slice_at(1.0)).flow == 0

    def test_two_crossings_flow_constant_across_slices(self):
        # same endpoints, different crossing profiles: 2t-1 vs -cos(pi t)
        a = crossing_path()
        b = matrix_path(3, lambda t: np.diag([-np.cos(np.pi * t), 5.0, -5.0]))
        h = affine_homotopy(a, b)
        flows = {spectral_flow(h.slice_at(float(s))).flow for s in np.linspace(0, 1, 11)}
        assert flows == {1}

    def test_endpoint_mismatch(self):
        a = crossing_path()
        b = matrix_path(3, lambda t: np.diag([2 * t - 0.5, 5.0, -5.0]))
        with pytest.raises(EndpointMismatch) as exc:
            affine_homotopy(a, b)
        assert str(exc.value) == (
            "paths disagree at t=0.0: max entry gap 5.000e-01 exceeds 1e-10 * 5.000e+00"
        )
        end = diagonal_path(lambda t: [2 * t - 1 + 3 * t * t, 5.0, -5.0])
        with pytest.raises(EndpointMismatch) as exc:
            affine_homotopy(a, end)
        assert str(exc.value) == (
            "paths disagree at t=1.0: max entry gap 3.000e+00 exceeds 1e-10 * 5.000e+00"
        )


def bumped_path(a, seed: int):
    """Dense path sharing ``a``'s endpoints: ``a(t) + sin(pi t) E``."""
    e = np.random.default_rng(seed).standard_normal((a.dim, a.dim))
    e = (e + e.T) / 2
    return matrix_path(a.dim, lambda t: a.at(t).entries + np.sin(np.pi * t) * e)


def diagonal_path(values):
    """Diagonal path ``t -> diag(values(t))``."""
    return OperatorPath(
        len(values(0.0)),
        lambda ts: np.array([values(t) for t in ts.tolist()]),
    )


class TestPathAlgebraRules:
    """Slices, composite bounds and homotopy construction, pinned exactly."""

    def pairs(self):
        a = random_family(4, seed=5)
        yield a, bumped_path(a, 6)
        yield (
            diagonal_path(lambda t: [2 * t - 1, 5.0, -5.0]),
            diagonal_path(lambda t: [-np.cos(np.pi * t), 5.0 + t * (1 - t), -5.0]),
        )

    def test_end_slices_are_the_paths_bit_for_bit(self):
        for a, b in self.pairs():
            h = affine_homotopy(a, b)
            for t in (0.0, 0.3, 1.0):
                assert np.array_equal(h.slice_at(0.0).at(t).entries, a.at(t).entries)
                assert np.array_equal(h.slice_at(1.0).at(t).entries, b.at(t).entries)

    def test_interior_slice_is_the_blend(self):
        for a, b in self.pairs():
            h = affine_homotopy(a, b)
            for s in (0.25, 0.7):
                for t in (0.0, 0.4, 1.0):
                    blend = (1.0 - s) * a.at(t).entries + s * b.at(t).entries
                    assert np.array_equal(h.slice_at(s).at(t).entries, blend)

    def test_interior_slice_of_diagonal_paths_is_diagonal(self):
        a, b = list(self.pairs())[1]
        assert affine_homotopy(a, b).slice_at(0.5).at(0.4)._diag is not None

    @pytest.mark.parametrize(
        "la, lb, expect",
        [(2.0, 3.0, 3.0), (4.0, 1.5, 4.0), (None, 3.0, None), (2.0, None, None), (None, None, None)],
    )
    def test_slice_bound_is_max(self, la, lb, expect):
        build = crossing_path()._build
        h = affine_homotopy(OperatorPath(3, build, la), OperatorPath(3, build, lb))
        for s in (0.0, 0.5, 1.0):
            assert h.slice_at(s).lipschitz == expect

    @pytest.mark.parametrize(
        "la, lb, expect",
        [(2.0, 3.0, 6.0), (4.0, 1.5, 8.0), (None, 3.0, None), (2.0, None, None), (None, None, None)],
    )
    def test_concat_bound_is_twice_max(self, la, lb, expect):
        a = OperatorPath(3, crossing_path()._build, la)
        b = OperatorPath(3, constant_path(a.at(1.0))._build, lb)
        assert concat(a, b).lipschitz == expect

    def test_homotopy_checks_endpoints_on_construction(self):
        a = crossing_path()
        b = matrix_path(3, lambda t: np.diag([2 * t - 0.5, 5.0, -5.0]))
        with pytest.raises(EndpointMismatch, match=r"^paths disagree at t=0\.0: "):
            Homotopy(a, b)
        with pytest.raises(EndpointMismatch, match="dims 3 and 2"):
            Homotopy(a, matrix_path(2, lambda t: np.eye(2)))
        h = Homotopy(a, bumped_path(a, 1))
        assert h.dim == 3


class TestAdd:
    def test_dim_mismatch(self):
        with pytest.raises(EndpointMismatch, match="^cannot add paths of dims 3 and 2$"):
            add(crossing_path(), matrix_path(2, lambda t: np.eye(2)))

    @pytest.mark.parametrize(
        "la, lb, expect",
        [(2.0, 3.0, 5.0), (0.0, 1.5, 1.5), (None, 3.0, None), (2.0, None, None), (None, None, None)],
    )
    def test_bound_is_the_sum(self, la, lb, expect):
        build = crossing_path()._build
        assert add(OperatorPath(3, build, la), OperatorPath(3, build, lb)).lipschitz == expect

    def test_diagonal_plus_diagonal_is_diagonal(self):
        a = diagonal_path(lambda t: [2 * t - 1, 5.0, -5.0])
        b = diagonal_path(lambda t: [np.sin(t), t, -t])
        op = add(a, b).at(0.4)
        assert op._diag is not None
        assert np.array_equal(op._diag, a.at(0.4)._diag + b.at(0.4)._diag)

    def test_entries_are_the_pointwise_sum_bit_for_bit(self):
        a = random_family(4, seed=5)
        cases = [
            (a, bumped_path(a, 6)),
            (a, diagonal_path(lambda t: [t, -t, 2 * t, 0.5])),
            (diagonal_path(lambda t: [t, -t, 2 * t, 0.5]), a),
        ]
        for x, y in cases:
            total = add(x, y)
            for t in (0.0, 0.3, 0.71, 1.0):
                assert total.at(t).entries.tobytes() == (x.at(t).entries + y.at(t).entries).tobytes()


class TestStraightSegment:
    def test_endpoints_exact(self):
        x = SelfAdjointOperator.from_diagonal([1.0, 2.0])
        y = SelfAdjointOperator.from_diagonal([-3.0, 4.0])
        seg = straight_segment(x, y)
        assert np.array_equal(seg.at(0.0).entries, x.entries)
        assert np.array_equal(seg.at(1.0).entries, y.entries)


class TestReparametrization:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=25)
    def test_flow_invariant_under_monotone_bijection(self, seed, knots_in):
        # piecewise-linear bijection of [0, 1] through sorted interior knots
        xs = np.concatenate([[0.0], np.sort(knots_in), [1.0]])
        ys = np.linspace(0.0, 1.0, len(xs))

        def phi(t: float) -> float:
            return float(np.interp(t, xs, ys))

        a = random_family(5, seed)
        slope = float(np.max(np.diff(ys) / np.diff(xs)))
        warped = reparametrize(a, phi, lipschitz=a.lipschitz * slope)
        assert spectral_flow(warped).flow == spectral_flow(a).flow

    def test_rejects_non_endpoint_fixing(self):
        a = crossing_path()
        with pytest.raises(ValueError):
            reparametrize(a, lambda t: 0.5 * t)

    def test_rejects_nan_at_an_endpoint(self):
        with pytest.raises(ValueError, match=r"^phi\(1\.0\) = nan, expected 1\.0$"):
            reparametrize(crossing_path(), lambda t: float("nan") if t == 1.0 else t)

    def test_rejects_non_finite_interior_value(self):
        def phi(t: float) -> float:
            return float("nan") if 0.2 < t < 0.4 else t

        warped = reparametrize(crossing_path(), phi, lipschitz=2.0)
        assert np.array_equal(warped.at(0.5).entries, crossing_path().at(0.5).entries)
        with pytest.raises(ValueError, match=r"^phi\(0\.25\) = nan is not finite$"):
            warped.at(0.25)
        with pytest.raises(ValueError, match=r"is not finite$"):
            spectral_flow(warped)


class TestPathValidation:
    def test_parameter_out_of_range(self):
        with pytest.raises(ValueError):
            crossing_path().at(1.5)

    def test_dim_mismatch_detected(self):
        bad = matrix_path(3, lambda t: np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            bad.at(0.5)

    def test_build_must_return_one_operator_per_parameter(self):
        def short(ts):
            return np.repeat(np.eye(2)[None], ts.size, axis=0)[:-1]

        p = OperatorPath(2, short)
        with pytest.raises(
            ValueError,
            match=r"^path build returned shape \(2, 2, 2\) for 3 parameters of dimension 2$",
        ):
            p.spectra([0.0, 0.5, 1.0])
        with pytest.raises(
            ValueError,
            match=r"^path build returned shape \(0, 2, 2\) for 1 parameters of dimension 2$",
        ):
            p.at(1.0)
