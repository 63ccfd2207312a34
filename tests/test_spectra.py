"""Batched spectra: parity with one-at-a-time evaluation, LAPACK counts, errors."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import dense_sum, diagonal_sum, mixed_concat, mixed_matrix_path, mixed_sum
from specflow import (
    BaerFamilySpec,
    GluingSpec,
    SelfAdjointOperator,
    Spectrum,
    affine_homotopy,
    baer_family,
    circle_family,
    concat,
    constant_path,
    glue,
    invertible_valued_family,
    matrix_path,
    oracle_flow,
    random_family,
    reparametrize,
    reverse,
    spectral_flow,
    straight_segment,
    window_count_constancy,
)
from specflow import operators
from specflow.cli import main
from specflow.config import build_family_path, sampled_path
from specflow.operators import _dense, _ingest_stack, stack_chunk
from specflow.paths import Homotopy, OperatorPath
from specflow.reporting import dumps_document, flow_certificate_document


def _glued(seed: int) -> OperatorPath:
    spec = GluingSpec(
        base=Spectrum([-7.0, -3.0, 3.0, 7.0]),
        sphere_family=BaerFamilySpec(m=1 + seed % 3),
        epsilon=0.4,
        seed=seed,
    )
    return glue(spec).path


def _segment(seed: int) -> OperatorPath:
    a = random_family(5, seed).at(1.0)
    b = invertible_valued_family(5, seed).at(0.5)
    return straight_segment(a, b)


def _concat(seed: int) -> OperatorPath:
    a = random_family(4, seed)
    return concat(a, straight_segment(a.at(1.0), invertible_valued_family(4, seed).at(0.0)))


def _slice(seed: int, s: float) -> OperatorPath:
    a = random_family(6, seed, invertible_ends=True)
    e = np.diag(np.linspace(-0.5, 0.5, 6))
    bumped = matrix_path(6, lambda t: a.at(t).entries + np.sin(np.pi * t) * e)
    return affine_homotopy(a, bumped).slice_at(s)


def _slice_mixed(seed: int) -> OperatorPath:
    # Interior slices blend the stacks their two paths build, so complex
    # matrices from t > 0.5 share a stack with the real ones before it.
    m = mixed_matrix_path(seed)
    bump = np.diag([1.0, 0.0, -1.0])
    bumped = matrix_path(3, lambda t: m.at(t).entries + np.sin(np.pi * t) * bump)
    return Homotopy(m, bumped).slice_at(0.3)


def _sampled(seed: int) -> OperatorPath:
    rng = np.random.default_rng(seed)
    mats = []
    for complex_entries in (False, True, True, False):
        g = rng.standard_normal((5, 5))
        if complex_entries:
            g = g + 1j * rng.standard_normal((5, 5))
        mats.append((g + g.conj().T) / 2)
    return sampled_path(list(zip([0.0, 0.3, 0.55, 1.0], mats)))


def _user_matrix_path(seed: int) -> OperatorPath:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3))
    h = (g + g.T) / 2
    return matrix_path(3, lambda t: np.cos(3 * t) * h + np.diag([t, -t, 2 * t]))


PATHS = {
    "baer": lambda seed: baer_family(BaerFamilySpec(m=1 + seed % 4)),
    "circle": lambda seed: circle_family(5, seed % 7 - 3),
    "random": lambda seed: random_family(2 + seed % 11, seed),
    "random-invertible-ends": lambda seed: random_family(2 + seed % 11, seed, invertible_ends=True),
    "invertible-valued": lambda seed: invertible_valued_family(2 + seed % 11, seed),
    "glue": _glued,
    "straight-segment": _segment,
    "concat": _concat,
    "reverse": lambda seed: reverse(random_family(3, seed)),
    "reparametrize": lambda seed: reparametrize(random_family(4, seed), lambda t: t * t),
    "slice-interior": lambda seed: _slice(seed, 0.3),
    "slice-end": lambda seed: _slice(seed, 1.0),
    "slice-interior-mixed": _slice_mixed,
    "sampled": _sampled,
    "matrix-path": _user_matrix_path,
    "matrix-path-mixed": mixed_matrix_path,
    "constant": lambda seed: constant_path(SelfAdjointOperator.from_diagonal([3.0, -1.0, 0.5])),
    "add-dense": dense_sum,
    "add-diagonal": diagonal_sum,
    "add-mixed": mixed_sum,
    "concat-mixed": mixed_concat,
}

_params = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))


def _eigvalsh(entries: np.ndarray) -> np.ndarray:
    """``eigvalsh`` of ``entries``, of its real part when the imaginary part is all zero."""
    return np.linalg.eigvalsh(entries if np.imag(entries).any() else entries.real)


@given(
    name=st.sampled_from(sorted(PATHS)),
    seed=st.integers(0, 10_000),
    ts=st.lists(_params, min_size=1, max_size=40),
    cached=st.lists(_params, max_size=6),
    stack_bytes=st.sampled_from([1 << 12, operators.STACK_BYTES]),
)
# The real row at t = 0.1 shares a stack with the complex ones at 0.75 and 1.
@example(
    name="slice-interior-mixed",
    seed=0,
    ts=[0.1, 0.75, 1.0],
    cached=[],
    stack_bytes=operators.STACK_BYTES,
)
def test_spectra_bitwise_equal_to_one_at_a_time(name, seed, ts, cached, stack_bytes):
    """spectra(ts) on one path equals at(t) on a fresh path, bit for bit.

    Parameters already cached, parameters repeated within the batch and
    small stack chunks (4 KiB) must not change a single bit; the reference
    spectrum is the per-matrix ``eigvalsh`` of the entries, solved as real
    when their imaginary part is all zero.
    """
    batched, single = PATHS[name](seed), PATHS[name](seed)
    with mock.patch.object(operators, "STACK_BYTES", stack_bytes):
        batched.spectra(cached)
        got = batched.spectra(ts + cached)
    assert got.shape == (len(ts) + len(cached), batched.dim)
    for row, t in zip(got, ts + cached):
        op = single.at(t)
        assert row.tobytes() == op.spectrum.tobytes()
        assert batched.at(t).entries.tobytes() == op.entries.tobytes()
        reference = Spectrum(_eigvalsh(op.entries)).values
        assert row.tobytes() == reference.tobytes()


def _dense_composites():
    """A dense path ``a``, and each composite with the ``a``-parameters it reads.

    Every composite parameter maps exactly onto the grid ``u`` or ``u**2``.
    """
    a = random_family(5, 2)
    u = np.linspace(0.0, 1.0, 9)
    tail = straight_segment(a.at(1.0), invertible_valued_family(5, 2).at(0.0))
    bump = np.diag(np.linspace(-0.5, 0.5, 5))
    bumped = matrix_path(5, lambda t: a.at(t).entries + np.sin(np.pi * t) * bump)
    composites = {
        "reverse": (reverse(a), u, 1.0 - u),
        "concat": (concat(a, tail), u / 2, u),
        "reparametrize": (reparametrize(a, lambda t: t * t), u, u**2),
        "slice-start": (affine_homotopy(a, bumped).slice_at(0.0), u, u),
    }
    return a, np.concatenate([u, u**2]), composites


class TestRowCache:
    @pytest.mark.parametrize("name", ["reverse", "concat", "reparametrize", "slice-start"])
    def test_composites_read_their_parts_rows(self, eigvalsh_counter, name):
        a, solved, composites = _dense_composites()
        a.spectra(solved)
        before = eigvalsh_counter.matrices
        path, ts, us = composites[name]
        assert path.spectra(ts).tobytes() == a.spectra(us).tobytes()
        assert eigvalsh_counter.matrices == before

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_flow_caches_rows_and_leaves_entries_unchanged(self, name):
        path, fresh = PATHS[name](5), PATHS[name](5)
        cert = spectral_flow(path)
        assert set(cert.times) <= set(path._cache)
        for row in path._cache.values():
            assert type(row) is np.ndarray and row.dtype == np.float64
            assert row.shape == (path.dim,) and not row.flags.writeable
        for t in cert.times:
            assert path.at(t).entries.tobytes() == fresh.at(t).entries.tobytes()

    def test_sampled_flow_peak_memory(self):
        # 64-dim complex knots: an operator is 64 KiB, an eigenvalue row 512 B.
        # Keeping the operators this flow builds would peak at about 16 MiB.
        rng = np.random.default_rng(0)
        knots = []
        for t in (0.0, 0.5, 1.0):
            g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            knots.append((t, (g + g.conj().T) / 2))
        path = sampled_path(knots)
        tracemalloc.start()
        try:
            spectral_flow(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestEigensolveCounts:
    def test_oracle_solves_each_parameter_once(self, eigvalsh_counter):
        path = random_family(6, 11, invertible_ends=True)
        built = eigvalsh_counter.matrices  # the endpoint shift solves two
        oracle_flow(path, grid=128)
        assert 0 < eigvalsh_counter.matrices - built <= len(path._cache)

    def test_grid_is_one_stacked_call_per_chunk(self, eigvalsh_counter):
        path = random_family(12, 3)
        path.spectra(np.linspace(0.0, 1.0, 513))
        assert eigvalsh_counter.matrices == 513
        assert eigvalsh_counter.calls == math.ceil(513 / stack_chunk(12))

    @pytest.mark.parametrize("name", ["baer", "circle", "glue"])
    def test_diagonal_families_make_no_lapack_call(self, eigvalsh_counter, name):
        path = PATHS[name](5)
        spectral_flow(path)
        oracle_flow(path, grid=128)
        if name == "glue":
            window_count_constancy(path)
        assert eigvalsh_counter.matrices == 0

    def test_components_make_no_lapack_call(self, eigvalsh_counter, tmp_path, capsys):
        # Basepoint, glued generators, connectors and pair segments are all diagonal.
        assert main(["components", "--k", "8", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "component-report.json").exists()
        assert eigvalsh_counter.matrices == 0


# LAPACK's eigvalsh rescales a matrix whose largest entry lies outside
# [_UNSCALED_MIN, 1 / _UNSCALED_MIN]; only inside that band is its spectrum
# of a diagonal matrix exactly the sorted diagonal.
_UNSCALED_MIN = np.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)


def _assert_diagonal_spectra(got: np.ndarray, dense: np.ndarray) -> None:
    """Rows of ``got`` are the exact spectra of the diagonal stack ``dense``."""
    idx = np.arange(dense.shape[-1])
    assert got.tobytes() == np.sort(dense[:, idx, idx], axis=-1).tobytes()
    norms = np.abs(dense).max(axis=(-2, -1))
    unscaled = (norms == 0.0) | ((norms >= _UNSCALED_MIN) & (norms <= 1.0 / _UNSCALED_MIN))
    if unscaled.any():
        reference = np.linalg.eigvalsh(dense[unscaled])
        assert got[unscaled].tobytes() == reference.tobytes()


_reals = st.floats(-1e300, 1e300, allow_nan=False)


@st.composite
def _diagonal_pairs(draw):
    d = draw(st.integers(1, 8))
    a = draw(st.lists(_reals, min_size=d, max_size=d))
    b = draw(st.lists(_reals, min_size=d, max_size=d))
    return np.array(a), np.array(b)


class TestDiagonalBlend:
    @given(ab=_diagonal_pairs(), ts=st.lists(_params, min_size=1, max_size=20, unique=True))
    def test_segment_between_diagonals(self, ab, ts):
        a, b = ab
        x, y = SelfAdjointOperator.from_diagonal(a), SelfAdjointOperator.from_diagonal(b)
        seg = straight_segment(x, y)
        t = np.array(ts)[:, None, None]
        dense = (1.0 - t) * np.diag(a) + t * np.diag(b)
        _assert_diagonal_spectra(seg.spectra(ts), dense)
        assert seg.lipschitz == float(np.linalg.norm(np.diag(b) - np.diag(a), 2))
        built = seg._build_chunk(ts)
        assert built.ndim == 2
        assert _dense(built).tobytes() == dense.tobytes()

    @given(seed=st.integers(0, 10_000), ts=st.lists(_params, min_size=1, max_size=20, unique=True))
    def test_segment_from_diagonal_to_dense(self, seed, ts):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(4)
        g = rng.standard_normal((4, 4))
        h = (g + g.T) / 2
        seg = straight_segment(SelfAdjointOperator.from_diagonal(a), SelfAdjointOperator(h))
        t = np.array(ts)[:, None, None]
        dense = (1.0 - t) * np.diag(a) + t * h
        assert seg.spectra(ts).tobytes() == np.linalg.eigvalsh(dense).tobytes()
        assert seg.lipschitz == float(np.linalg.norm(h - np.diag(a), 2))
        assert seg._build_chunk(ts).tobytes() == dense.tobytes()

    @given(
        seed=st.integers(0, 10_000),
        s=st.floats(0.0, 1.0),
        ts=st.lists(_params, min_size=1, max_size=20, unique=True),
    )
    def test_homotopy_slice_between_diagonal_paths(self, seed, s, ts):
        a = _glued(seed)
        b = reparametrize(a, lambda t: t * t)
        sl = affine_homotopy(a, b).slice_at(s)
        ea = np.stack([a.at(t).entries for t in ts])
        eb = np.stack([b.at(t).entries for t in ts])
        dense = ea if s == 0.0 else eb if s == 1.0 else (1.0 - s) * ea + s * eb
        _assert_diagonal_spectra(sl.spectra(ts), dense)
        built = sl._build_chunk(ts)
        assert built.ndim == 2
        assert _dense(built).tobytes() == dense.tobytes()


class TestMixedDtypeMatrixPath:
    @pytest.mark.parametrize("t", [0.1, 0.25, 0.4])
    def test_real_row_alone_and_in_a_mixed_batch(self, t):
        # The complex parameters share the real one's batch, its chunk and
        # its complex stack; the real matrix is still solved as real.
        # Solved as complex, these rows differed in their last bits.
        alone = mixed_matrix_path(1).spectra([t])
        mixed = mixed_matrix_path(1).spectra([0.75, t, 1.0])
        real = np.linalg.eigvalsh(mixed_matrix_path(1).at(t).entries)
        assert mixed_matrix_path(1).at(t).entries.dtype == np.float64
        assert alone.tobytes() == mixed[1].tobytes() == real.tobytes()
        assert mixed[[0, 2]].tobytes() == mixed_matrix_path(1).spectra([0.75, 1.0]).tobytes()


class TestIngestErrorsNameParameter:
    def test_non_hermitian_matrix_path(self):
        p = matrix_path(2, lambda t: np.array([[0.0, 1.0], [1.0 + t, 0.0]]))
        assert p.spectra([0.0]).shape == (1, 2)
        with pytest.raises(ValueError, match=r"^matrix is not self-adjoint: .* at t=0\.25$"):
            p.spectra([0.0, 0.25, 0.5])
        with pytest.raises(ValueError, match=r"at t=0\.75$"):
            p.at(0.75)

    def test_mixed_dtype_batch_names_its_first_offending_parameter(self):
        # The real and complex matrices are ingested in one stack; the error
        # names the batch's first bad parameter.
        def fn(t):
            m = np.eye(2, dtype=float if t == 0.5 else complex)
            m[0, 0] = np.nan if t > 0.25 else 1.0
            return m

        with pytest.raises(ValueError, match=r"^operator entries must be finite at t=0\.5$"):
            matrix_path(2, fn).spectra([0.25, 0.5, 0.75])
        with pytest.raises(ValueError, match=r"^operator entries must be finite at t=0\.75$"):
            matrix_path(2, fn).spectra([0.25, 0.75])

    def test_stacked_batch_names_offending_matrix(self):
        def build(ts):
            stack = np.repeat(np.eye(2)[None], ts.size, axis=0)
            stack[ts == 0.5, 0, 1] = np.nan
            return stack

        p = OperatorPath(2, build)
        with pytest.raises(ValueError, match=r"^operator entries must be finite at t=0\.5$"):
            p.spectra([0.0, 0.25, 0.5, 1.0])

    def test_direct_operator_keeps_wording(self):
        with pytest.raises(ValueError, match=r"^matrix is not self-adjoint: .*\)$"):
            SelfAdjointOperator(np.array([[0.0, 1.0], [2.0, 0.0]]))


def _inline_sampled_entries(knots, mats, params):
    """Sampled-path matrices by the inline knot-interval blend, one stack per interval."""
    ts = np.asarray(knots)
    j = np.clip(np.searchsorted(ts, params, side="right") - 1, 0, len(mats) - 2)
    u = (params - ts[j]) / (ts[j + 1] - ts[j])
    entries = [None] * params.size
    for k in np.unique(j).tolist():
        rows = np.flatnonzero(j == k)
        w = u[rows][:, None, None]
        stack = _ingest_stack((1.0 - w) * mats[k] + w * mats[k + 1], params[rows])
        for r, m in zip(rows.tolist(), stack):
            entries[r] = m
    return entries


@pytest.mark.parametrize("seed", range(12))
def test_sampled_path_matches_inline_blend(seed):
    # Each interval's entries keep the dtype of its two knots, and a row is
    # solved as real wherever its matrix is: a real knot that a mixed
    # interval reads has the bits of its own spectrum.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 20))
    count = int(rng.integers(2, 6))
    knots = [0.0, *np.sort(rng.uniform(0.0, 1.0, count - 2)).tolist(), 1.0]
    raw = []
    for _ in knots:
        g = rng.standard_normal((dim, dim))
        if rng.random() < 0.5:
            g = g + 1j * rng.standard_normal((dim, dim))
        raw.append((g + g.conj().T) / 2)
    mats = [SelfAdjointOperator(m).entries for m in raw]
    params = np.unique(np.concatenate([rng.uniform(0.0, 1.0, 40), knots]))
    path = sampled_path(list(zip(knots, raw)))
    reference = _inline_sampled_entries(knots, mats, params)
    for t, ref in zip(params.tolist(), reference):
        got = path.at(t).entries
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    rows = path.spectra(params)
    for row, ref in zip(rows, reference):
        assert row.tobytes() == _eigvalsh(ref).tobytes()
    at = dict(zip(params.tolist(), rows))
    for t, m in zip(knots, raw):
        assert at[t].tobytes() == SelfAdjointOperator(m).spectrum.tobytes()


def _sampled_family(seed: int, zero_imag: bool) -> dict:
    """Three random real knots of dimension 2-7, optionally written as ``{real, imag: 0}``."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 8))
    samples = []
    for t in (0.0, 0.5, 1.0):
        g = rng.standard_normal((dim, dim))
        matrix = ((g + g.T) / 2).tolist()
        if zero_imag:
            matrix = {"real": matrix, "imag": np.zeros((dim, dim)).tolist()}
        samples.append({"t": t, "matrix": matrix})
    return {"kind": "sampled", "samples": samples}


# Seeds 0-5 all certified with different bytes when zero-imaginary knots
# were solved as complex.  The documents carry no path block, which would
# echo the two spellings of the matrices.
@pytest.mark.parametrize("seed", range(6))
def test_zero_imaginary_config_certifies_as_real(seed):
    docs = [
        dumps_document(flow_certificate_document(spectral_flow(build_family_path(family))))
        for family in (_sampled_family(seed, False), _sampled_family(seed, True))
    ]
    assert docs[0] == docs[1]
