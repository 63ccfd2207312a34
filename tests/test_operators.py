"""Operator ingestion, eigenvalues and spectrum scale."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specflow import (
    BaerFamilySpec,
    GluingSpec,
    SelfAdjointOperator,
    Spectrum,
    baer_family,
    glue,
)
from specflow.operators import _ingest_stack, spectral_scale
from specflow.paths import OperatorPath

_reals = st.floats(-1e300, 1e300, allow_nan=False)


class TestIngestion:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SelfAdjointOperator(np.ones((2, 3)))

    def test_rejects_genuinely_asymmetric(self):
        with pytest.raises(ValueError, match="not self-adjoint"):
            SelfAdjointOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SelfAdjointOperator(np.array([[np.nan]]))

    def test_symmetrizes_rounding_noise(self):
        a = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
        op = SelfAdjointOperator(a)
        assert np.array_equal(op.entries, op.entries.T)

    def test_entries_read_only(self):
        op = SelfAdjointOperator.from_diagonal([1.0, 2.0])
        with pytest.raises(ValueError):
            op.entries[0, 0] = 9.0

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_symmetrization_idempotent_bitwise(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim))
        a = (g + g.T) / 2
        op = SelfAdjointOperator(a)
        assert op.entries.tolist() == a.tolist()

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_symmetrization_idempotent_complex(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (g + g.conj().T) / 2
        op = SelfAdjointOperator(a)
        assert op.entries.tolist() == a.tolist()


def _old_symmetrization(a: np.ndarray) -> np.ndarray:
    """``(A + A^H) / 2`` as one expression: the bits the in-place ingest must reproduce."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (a + np.conj(np.swapaxes(a, -1, -2))) / 2


class TestSymmetrizationBits:
    """Ingest halves ``A + A^H`` in place, with the bits of the old out-of-place formula."""

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-300, max_value=300),
        st.booleans(),
    )
    def test_bits_of_the_old_formula(self, dim, seed, exponent, complex_entries):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim))
        if complex_entries:
            g = g + 1j * rng.standard_normal((dim, dim))
        # Hermitian up to relative noise of 1e-15, so the halving rounds.
        a = (g + g.conj().T) * (1 + 1e-15 * rng.standard_normal((dim, dim))) * 10.0**exponent
        assert SelfAdjointOperator(a).entries.tobytes() == _old_symmetrization(a).tobytes()

    def test_signed_zeros_of_complex_entries(self):
        # Complex division by 2 turns a real part -0 with a positive imaginary
        # part into +0, where multiplying by 0.5 keeps -0.
        a = np.array([[1.0, complex(-0.0, 1.0)], [complex(-0.0, -1.0), complex(2.0, -0.0)]])
        assert SelfAdjointOperator(a).entries.tobytes() == _old_symmetrization(a).tobytes()

    @pytest.mark.parametrize("scale", [1e307, 8e307, 9e307, 1e308])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_overflow_exactly_where_the_old_formula_overflows(self, scale, complex_entries):
        off = scale * (1 + 1j) if complex_entries else scale
        a = np.array([[scale, off], [np.conj(off), 1.0]])
        old = _old_symmetrization(a)
        if np.isfinite(old).all():
            assert SelfAdjointOperator(a).entries.tobytes() == old.tobytes()
        else:
            overflow = r"^operator entries overflow float64 when symmetrized"
            with pytest.raises(ValueError, match=overflow):
                SelfAdjointOperator(a)


class TestStackErrorTexts:
    """A stack's error names its leftmost bad matrix; the checks run in a fixed order."""

    @pytest.mark.parametrize(
        "first, second, text",
        [
            (
                np.eye(2),
                [[1.0, 1e-9], [0.0, 1.0]],
                "matrix is not self-adjoint: asymmetry 1.000e-09 exceeds 1e-12 * norm (1.000e+00) at t=0.75",
            ),
            (np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], "operator entries must be finite at t=0.75"),
            (
                np.eye(2),
                [[1e308, 1e308], [1e308, 1.0]],
                "operator entries overflow float64 when symmetrized as (A + A^H) / 2 at t=0.75",
            ),
            # The non-finite and asymmetry checks come before the overflow check.
            (
                [[1e308, 1e308], [1e308, 1.0]],
                [[1.0, 1.0], [0.0, 1.0]],
                "matrix is not self-adjoint: asymmetry 1.000e+00 exceeds 1e-12 * norm (1.000e+00) at t=0.75",
            ),
            # The leftmost bad matrix is named, whatever its reason.
            (
                [[1.0, 2.0], [0.0, 1.0]],
                [[np.inf, 0.0], [0.0, 1.0]],
                "matrix is not self-adjoint: asymmetry 2.000e+00 exceeds 1e-12 * norm (2.000e+00) at t=0.25",
            ),
        ],
        ids=["asymmetric", "non-finite", "overflow", "asymmetry before overflow", "leftmost first"],
    )
    def test_error_texts(self, first, second, text):
        with pytest.raises(ValueError) as info:
            _ingest_stack(np.array([first, second]), [0.25, 0.75])
        assert str(info.value) == text


class TestDiagonalOperator:
    @given(st.lists(_reals, min_size=1, max_size=8))
    def test_entries_built_on_first_read(self, values):
        op = SelfAdjointOperator.from_diagonal(values)
        assert op.dim == len(values)
        assert op.spectrum.tobytes() == np.sort(np.array(values)).tobytes()
        assert op._entries is None  # dim and spectrum leave the matrix unbuilt
        entries = op.entries
        assert entries.tobytes() == np.diag(np.array(values)).tobytes()
        assert not entries.flags.writeable
        assert op.entries is entries

    def test_stores_a_copy_of_the_input(self):
        values = np.array([1.0, -2.0])
        op = SelfAdjointOperator.from_diagonal(values)
        values[0] = 9.0
        assert op.entries.tolist() == [[1.0, 0.0], [0.0, -2.0]]

    def test_non_finite_diagonal_wording(self):
        with pytest.raises(ValueError, match=r"^operator entries must be finite$"):
            SelfAdjointOperator.from_diagonal([1.0, np.nan])
        rows = np.array([[1.0, 2.0], [np.inf, 2.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match=r"^operator entries must be finite at t=0\.5$"):
            OperatorPath(2, lambda ts: rows).spectra([0.0, 0.5, 1.0])

    def test_symmetrization_overflow_names_parameter(self):
        stack = np.array([np.eye(2), [[1e308, 1e308], [1e308, 1.0]], np.eye(2)])
        with pytest.raises(ValueError, match=r"^operator entries overflow float64 .* at t=0\.5$"):
            OperatorPath(2, lambda ts: stack).spectra([0.0, 0.5, 1.0])

    def test_non_finite_family_row_names_parameter(self):
        # Specs and path bounds validate their inputs, so the non-finite value
        # is forced past validation to reach the families' own builds: into
        # the glued path's noise knots right of t=0.5, which its build reads
        # in place (the interval at t=0.5 then rises to inf, with no nan).
        baer = BaerFamilySpec(m=1)
        object.__setattr__(baer, "background", (5.0, np.nan))
        glued = glue(GluingSpec(Spectrum([-3.0, 3.0]), BaerFamilySpec(m=1), epsilon=0.4))
        glued._knots[:, glued._knots.shape[1] // 2 :] = np.inf
        for path in (baer_family(baer), glued.path):
            with pytest.raises(ValueError, match=r"^operator entries must be finite at t=0\.5$"):
                path.at(0.5)


class TestEigenvalues:
    def test_diagonal(self):
        spec = SelfAdjointOperator.from_diagonal([3.0, -1.0, 0.5]).spectrum
        assert spec.tolist() == [-1.0, 0.5, 3.0]

    def test_identity(self):
        spec = SelfAdjointOperator(np.eye(4)).spectrum
        assert spec.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_pauli_type(self):
        spec = SelfAdjointOperator(np.array([[0.0, 1.0], [1.0, 0.0]])).spectrum
        assert np.allclose(spec, [-1.0, 1.0])

    def test_spectrum_is_a_read_only_row(self):
        for op in (SelfAdjointOperator(np.eye(2)), SelfAdjointOperator.from_diagonal([2.0, -1.0])):
            spec = op.spectrum
            assert isinstance(spec, np.ndarray) and spec.shape == (2,)
            assert not spec.flags.writeable
            assert op.spectrum is spec

    def test_scale_is_radius_or_one_for_zero(self):
        assert spectral_scale(np.array([-3.0, 0.5, 2.0])) == 3.0
        assert spectral_scale(np.array([0.0, 0.0])) == 1.0
        assert spectral_scale(SelfAdjointOperator(np.zeros((3, 3))).spectrum) == 1.0

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_reconstruction_residual(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim))
        op = SelfAdjointOperator((g + g.T) / 2)
        vals, vecs = np.linalg.eigh(op.entries)
        assert np.allclose(vals, op.spectrum)
        residual = np.abs(vecs @ np.diag(vals) @ vecs.T - op.entries).max()
        norm = max(np.abs(op.entries).max(), 1e-30)
        assert residual <= 1e-12 * dim * max(norm, 1.0)
