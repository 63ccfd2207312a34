"""Path algebra: concatenation, reversal, affine homotopies, reparametrization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_endpoint_flow, dense_sum, mixed_concat, mixed_matrix_path, mixed_sum
from specflow import (
    BaerFamilySpec,
    EndpointMismatch,
    GluingSpec,
    Homotopy,
    OperatorPath,
    SelfAdjointOperator,
    add,
    affine_homotopy,
    baer_family,
    circle_family,
    concat,
    constant_path,
    glue,
    invertible_valued_family,
    matrix_path,
    random_family,
    reparametrize,
    reverse,
    spectral_flow,
    straight_segment,
)
from specflow.config import sampled_path
from specflow.paths import _blend


def crossing_path(up: bool = True):
    sign = 1.0 if up else -1.0
    return matrix_path(3, lambda t: np.diag([sign * (2 * t - 1), 5.0, -5.0]))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-300, max_value=300),
    st.sampled_from(["real", "complex", "real-complex", "complex-real", "diagonal"]),
    st.booleans(),
)
def test_blend_has_the_bits_of_the_old_formula(seed, exponent, kinds, one_start):
    # _blend accumulates into one buffer; (1 - w) x + w y as one expression is the reference.
    rng = np.random.default_rng(seed)
    n, d = 6, 3

    def end(kind: str, count: int) -> np.ndarray:
        shape = (count, d) if kind == "diagonal" else (count, d, d)
        stack = rng.standard_normal(shape)
        if kind == "complex":
            stack = stack + 1j * rng.standard_normal(shape)
        return stack * 10.0**exponent

    x_kind, _, y_kind = kinds.partition("-")
    x, y = end(x_kind, 1 if one_start else n), end(y_kind or x_kind, n)
    w = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
    wd = w.reshape(w.shape + (1,) * (x.ndim - 1))
    expected = (1.0 - wd) * x + wd * y
    got = _blend(w, x, y)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


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


# Every composite kind, built from two paths ``a`` and ``b`` that share
# both ends, and the parts whose gauges its gauge needs.
COMPOSITES = {
    "concat": (lambda a, b: concat(a, reverse(b)), "ab"),
    "reverse": (lambda a, b: reverse(a), "a"),
    "add": (add, "ab"),
    "interior-slice": (lambda a, b: affine_homotopy(a, b).slice_at(0.5), "ab"),
    "constant_path": (lambda a, b: constant_path(a.at(0.3)), ""),
    "reparametrize": (lambda a, b: reparametrize(a, lambda t: t * t), "a"),
    "reparametrize-lipschitz": (lambda a, b: reparametrize(a, lambda t: t * t, 4.0), ""),
    "sampled": (lambda a, b: sampled_path([(t, a.at(t).entries) for t in (0.0, 0.4, 1.0)]), ""),
}


class TestPathAlgebraRules:
    """Slices, composite gauges and homotopy construction, pinned exactly."""

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

    @pytest.mark.parametrize("kind", sorted(COMPOSITES))
    @pytest.mark.parametrize("la, lb", [(2.0, 3.0), (None, 3.0), (2.0, None), (None, None)])
    def test_composites_carry_only_a_gauge(self, kind, la, lb):
        # a and b share both ends: -1 at t=0 and 1 at t=1 in slot 0.
        a = OperatorPath(3, diagonal_path(lambda t: [2 * t - 1, 5.0, -5.0])._build, la)
        b = OperatorPath(3, diagonal_path(lambda t: [-np.cos(np.pi * t), 5.0, -5.0])._build, lb)
        build, needs = COMPOSITES[kind]
        path = build(a, b)
        assert path.lipschitz is None
        assert (path.gauge is None) == any({"a": la, "b": lb}[part] is None for part in needs)
        h = affine_homotopy(a, b)
        assert h.slice_at(0.0) is a and h.slice_at(1.0) is b
        assert (a.lipschitz, b.lipschitz) == (la, lb)

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

    @pytest.mark.parametrize("bound", [-1.0, float("nan"), float("inf"), -np.inf])
    def test_lipschitz_must_be_finite_and_non_negative(self, bound):
        message = rf"^lipschitz bound must be a finite number >= 0, got {bound!r}$"
        with pytest.raises(ValueError, match=message):
            OperatorPath(3, crossing_path()._build, bound)
        with pytest.raises(ValueError, match=message):
            matrix_path(3, lambda t: np.eye(3), lipschitz=bound)
        for a in (crossing_path(), random_family(3, 0)):  # without and with a gauge
            with pytest.raises(ValueError, match=message):
                reparametrize(a, lambda t: t * t, lipschitz=bound)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "2", None])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(ValueError, match=rf"^path dimension must be an integer, got {dim!r}$"):
            OperatorPath(dim, crossing_path()._build)

    def test_smallest_dim_and_bound(self):
        with pytest.raises(ValueError, match=r"^path dimension must be at least 1$"):
            OperatorPath(0, crossing_path()._build)
        path = OperatorPath(np.int64(3), crossing_path()._build, 0)
        assert (path.dim, path.lipschitz) == (3, 0.0)


def _pl_warp(a, seed: int, lipschitz: float | None):
    """``a`` under a seeded piecewise-linear warp, steep where two knots nearly meet.

    ``lipschitz`` is the base's bound, which ``reparametrize`` reads only
    when ``a`` has no gauge.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(1e-2, 1.0, 2 + seed % 3) ** 3
    xs = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    xs[-1] = 1.0
    ys = np.linspace(0.0, 1.0, xs.size)
    slope = float(np.max(np.diff(ys) / np.diff(xs)))
    bound = None if lipschitz is None else lipschitz * slope
    return reparametrize(a, lambda t: float(np.interp(t, xs, ys)), bound)


def _gauged_sampled(seed: int):
    """A sampled path through random knots, two of them 1e-9 apart."""
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 4
    inner = np.sort(rng.uniform(0.01, 0.99, 1 + seed % 4))
    knots = []
    for t in [0.0, *inner.tolist(), float(inner[0]) + 1e-9, 1.0]:
        g = rng.standard_normal((dim, dim)) + 1j * (seed % 2) * rng.standard_normal((dim, dim))
        knots.append((t, (g + g.conj().T) / 2))
    return sampled_path(sorted(knots, key=lambda knot: knot[0]))


def _slice(seed: int, s: float, bounded: bool = True):
    """Slice ``s`` of the homotopy from a random family to a bumped copy of it."""
    a = random_family(2 + seed % 5, seed)
    e = np.diag(np.linspace(-0.5, 0.5, a.dim))
    bound = a.lipschitz + 0.5 * np.pi if bounded else None
    bumped = matrix_path(a.dim, lambda t: a.at(t).entries + np.sin(np.pi * t) * e, bound)
    return affine_homotopy(a, bumped).slice_at(s)


def _unbounded(a):
    """``a`` with its bound forgotten, so it has no gauge."""
    return OperatorPath(a.dim, a._build)


GAUGED = {
    "random": lambda seed: random_family(2 + seed % 6, seed),
    "invertible-valued": lambda seed: invertible_valued_family(2 + seed % 5, seed),
    "baer": lambda seed: baer_family(BaerFamilySpec(m=1 + seed % 4)),
    "circle": lambda seed: circle_family(3, seed % 7 - 3),
    "glue": lambda seed: glue(
        GluingSpec((-7.0, -3.0, 3.0, 7.0), BaerFamilySpec(m=1), epsilon=0.4, seed=seed)
    ).path,
    "matrix_path": mixed_matrix_path,
    "straight_segment": lambda seed: straight_segment(
        invertible_valued_family(3, seed).at(0.0), random_family(3, seed).at(0.5)
    ),
    "constant_path": lambda seed: constant_path(random_family(3, seed).at(0.3)),
    "concat": mixed_concat,
    "reverse": lambda seed: reverse(random_family(2 + seed % 6, seed)),
    "add": dense_sum,
    "add mixed": mixed_sum,
    "interior slice": lambda seed: _slice(seed, 0.3),
    "end slice": lambda seed: _slice(seed, 1.0),
    "end slice beside a path without a gauge": lambda seed: _slice(seed, 0.0, bounded=False),
    "warp": lambda seed: _pl_warp(random_family(3, seed), seed, None),
    "warp of a path without a gauge": lambda seed: _pl_warp(
        _unbounded(random_family(3, seed)), seed, random_family(3, seed).lipschitz
    ),
    "sampled": _gauged_sampled,
    "reverse of a warped concat": lambda seed: reverse(_pl_warp(mixed_concat(seed), seed, None)),
}


class TestGauge:
    """Every constructor's gauge bounds its path's variation, and only a known one."""

    @given(
        st.sampled_from(sorted(GAUGED)),
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    )
    def test_gauge_bounds_the_variation(self, kind, seed, params):
        # ||A(t) - A(s)||_2 <= g(t) - g(s) for s <= t, up to rounding.
        path = GAUGED[kind](seed)
        ts = np.sort(np.array(params))
        g = path.gauge(ts)
        assert np.all(np.diff(g) >= 0.0)
        mats = [path.at(t).entries for t in ts.tolist()]
        scale = max(np.linalg.norm(m, 2) for m in mats)
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                variation = np.linalg.norm(mats[j] - mats[i], 2)
                assert variation <= (g[j] - g[i]) * (1 + 1e-12) + 1e-12 * scale

    def test_unknown_variation_has_no_gauge(self):
        a, b = random_family(3, 0), _unbounded(random_family(3, 1))
        assert b.gauge is None
        assert concat(a, matrix_path(3, lambda t: a.at(1.0).entries)).gauge is None
        assert add(a, b).gauge is None
        assert reverse(b).gauge is None
        assert reparametrize(b, lambda t: t * t).gauge is None
        assert _slice(0, 0.5, bounded=False).gauge is None
        # The caller's bound gives a gauge, and an end slice keeps its path's.
        assert reparametrize(b, lambda t: t * t, lipschitz=2.0 * random_family(3, 1).lipschitz).gauge
        assert _slice(0, 0.0, bounded=False).gauge is not None
