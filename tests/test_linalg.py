import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EYE2, SX, SZ
from rational_rank import exact_independent
from povm_forge import (
    DEFAULT_TOL,
    ToleranceConfig,
    eig_herm,
    inv_sqrt,
    linearly_independent,
    rank_of,
    type_d_example,
)
from povm_forge.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NotHermitianError,
    NotPositiveDefiniteError,
    PovmForgeError,
)


def random_hermitian(d, rng, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", [(0, 0), (0, 1)])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j * np.nan])
@pytest.mark.parametrize("primitive", [rank_of, eig_herm, inv_sqrt])
def test_non_finite_matrix_is_rejected(primitive, entry, index):
    m = np.eye(2, dtype=np.complex128)
    m[index] = entry
    with pytest.raises(PovmForgeError):
        primitive(m)


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.herm_tol == tol.psd_tol == 1e-10
        assert tol.rank_tol == tol.indep_tol == 1e-9
        assert tol.recon_tol == 1e-8
        assert tol.zero_effect_tol == 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ToleranceConfig(psd_tol=-1e-3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ToleranceConfig(recon_tol=float("nan"))

    def test_scaled(self):
        tol = ToleranceConfig().scaled(10.0)
        assert tol.recon_tol == pytest.approx(1e-7)
        assert tol.herm_tol == pytest.approx(1e-9)


class TestEigHerm:
    def test_identity(self):
        dec = eig_herm(EYE2)
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])
        assert np.allclose(dec.projection(0), np.diag([1.0, 0.0]))
        assert np.allclose(dec.projection(1), np.diag([0.0, 1.0]))

    def test_sigma_x(self):
        dec = eig_herm(SX)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(dec.projection(0), plus)
        assert np.allclose(dec.projection(1), minus)

    def test_rank2_reference_effect_spectrum(self):
        effect = type_d_example().effects[0]
        dec = eig_herm(effect)
        assert np.allclose(dec.eigenvalues, [2 / 3, 2 / 3, 0.0, 0.0], atol=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        dec = eig_herm(random_hermitian(5, rng))
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_herm(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_deterministic(self):
        m = random_hermitian(4, np.random.default_rng(11))
        a, b = eig_herm(m), eig_herm(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        dec = eig_herm(random_hermitian(4, rng))
        for k in range(4):
            col = dec.eigenvectors[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first.imag == pytest.approx(0.0, abs=1e-12)
            assert first.real > 0

    def test_round_trip_batch(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            d = 2 + trial % 4
            m = random_hermitian(d, rng, scale=1.0 + (trial % 7))
            dec = eig_herm(m)
            norm = np.linalg.norm(m)
            assert np.linalg.norm(dec.reconstruct() - m) <= DEFAULT_TOL.recon_tol * max(norm, 1.0)
            # projections pairwise orthogonal
            for a in range(d):
                for b in range(a + 1, d):
                    assert np.linalg.norm(dec.projection(a) @ dec.projection(b)) <= DEFAULT_TOL.recon_tol


class TestRankOf:
    def test_identity(self):
        assert rank_of(np.eye(3)) == 3

    def test_rank1_projection(self):
        assert rank_of(np.diag([1.0, 0.0])) == 1

    def test_rank2_reference_effect(self):
        assert rank_of(type_d_example().effects[1]) == 2

    def test_zero_matrix(self):
        assert rank_of(np.zeros((4, 4))) == 0


class TestInvSqrt:
    def test_identity(self):
        assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        r = inv_sqrt(np.diag([2.0, 1.0]))
        assert np.allclose(r, np.diag([1 / np.sqrt(2), 1.0]))

    def test_identity_plus_projection(self):
        # (I + P)^{-1/2} for P = (I+sz)/2 equals c+ I + c- sz with
        # c_pm = (1 pm sqrt2)/(2 sqrt2)
        t = np.eye(2) + (EYE2 + SZ) / 2
        c_plus = (1 + np.sqrt(2)) / (2 * np.sqrt(2))
        c_minus = (1 - np.sqrt(2)) / (2 * np.sqrt(2))
        assert np.allclose(inv_sqrt(t), c_plus * EYE2 + c_minus * SZ, atol=1e-14)

    def test_contract_on_random_pd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = g @ g.conj().T + 0.05 * np.eye(d)
            r = inv_sqrt(m)
            assert np.linalg.norm(r @ m @ r - np.eye(d)) <= DEFAULT_TOL.recon_tol
            assert np.allclose(r, r.conj().T)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            inv_sqrt(np.diag([1.0, 0.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            inv_sqrt(SZ)


class TestLinearlyIndependent:
    def test_disjoint_projections(self):
        assert linearly_independent([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).independent

    def test_explicit_relation(self):
        result = linearly_independent([EYE2, SX, EYE2 + SX])
        assert not result.independent
        lam = result.null_vector
        assert lam is not None and lam.dtype.kind == "f"
        expected = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
        assert np.allclose(np.abs(lam), np.abs(expected), atol=1e-10)
        assert np.linalg.norm(lam[0] * EYE2 + lam[1] * SX + lam[2] * (EYE2 + SX)) <= 1e-10

    def test_reference_pair_operators_independent(self):
        from povm_forge import spectral_form

        form = spectral_form(type_d_example())
        ops = form.pair_operators()
        assert len(ops) == 12
        assert linearly_independent(ops).independent

    def test_dimension_bound(self):
        rng = np.random.default_rng(0)
        ops = [random_hermitian(2, rng) for _ in range(5)]
        result = linearly_independent(ops)
        assert not result.independent

    def test_null_vector_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(2, d * d + 3))
            ops = [random_hermitian(d, rng) for _ in range(k)]
            if rng.random() < 0.5 and k >= 2:
                coeffs = rng.standard_normal(k - 1)
                ops[-1] = sum(c * op for c, op in zip(coeffs, ops[:-1]))
            result = linearly_independent(ops)
            if not result.independent:
                lam = result.null_vector
                combo = sum(c * op for c, op in zip(lam, ops))
                max_norm = max(np.linalg.norm(op) for op in ops)
                assert np.linalg.norm(combo) <= DEFAULT_TOL.recon_tol * max(max_norm, 1.0)
                assert np.linalg.norm(lam) == pytest.approx(1.0, abs=1e-12)

    def test_real_coefficients_for_hermitian_sets(self):
        rng = np.random.default_rng(9)
        ops = [random_hermitian(3, rng) for _ in range(8)]
        ops.append(0.7 * ops[0] - 1.3 * ops[4])
        result = linearly_independent(ops)
        assert not result.independent
        assert result.null_vector.dtype.kind == "f"

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            linearly_independent([])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linearly_independent([EYE2, np.eye(3)])

    def test_oracle_agreement_integer_sets(self):
        rng = np.random.default_rng(77)
        agreements = 0
        for _ in range(100):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, 10))
            ops = [
                rng.integers(-3, 4, (d, d)) + 1j * rng.integers(-3, 4, (d, d))
                for _ in range(k)
            ]
            if rng.random() < 0.5 and k >= 2:
                coeffs = rng.integers(-2, 3, k - 1)
                ops[-1] = sum(int(c) * op for c, op in zip(coeffs, ops[:-1]))
            claimed = linearly_independent(ops).independent
            agreements += claimed == exact_independent(ops)
        assert agreements == 100
