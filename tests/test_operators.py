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
from specflow.operators import spectral_scale
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
        # Specs validate their inputs, so the non-finite value is forced past
        # validation to reach the families' own builds.
        baer = BaerFamilySpec(m=1)
        object.__setattr__(baer, "background", (5.0, np.nan))
        glued = GluingSpec(Spectrum([-3.0, 3.0]), BaerFamilySpec(m=1), epsilon=0.4)
        object.__setattr__(glued, "epsilon", np.inf)
        for path in (baer_family(baer), glue(glued).path):
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
