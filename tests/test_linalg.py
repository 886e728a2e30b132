import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EYE2, SX, SZ
from per_effect import outer_pair_operators, spectral_blocks
from rational_rank import exact_independent
from split_tree import linearly_independent
from povm_forge import (
    DEFAULT_TOL,
    ToleranceConfig,
    eig_herm,
    inv_sqrt,
    rank_of,
    type_d_example,
)
from povm_forge.linalg import (
    _upper_entries,
    hermitian_coords,
    hermitian_part,
    normalize_sum,
    unit_hermitian_basis,
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


def projection(dec, k):
    """|v_k><v_k| of an eigensystem's k-th eigenvector."""
    v = dec.eigenvectors[:, k]
    return np.outer(v, v.conj())


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
        assert np.allclose(projection(dec, 0), np.diag([1.0, 0.0]))
        assert np.allclose(projection(dec, 1), np.diag([0.0, 1.0]))

    def test_sigma_x(self):
        dec = eig_herm(SX)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(projection(dec, 0), plus)
        assert np.allclose(projection(dec, 1), minus)

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
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.linalg.norm(rebuilt - m) <= DEFAULT_TOL.recon_tol * max(norm, 1.0)
            # projections pairwise orthogonal
            for a in range(d):
                for b in range(a + 1, d):
                    assert np.linalg.norm(projection(dec, a) @ projection(dec, b)) <= DEFAULT_TOL.recon_tol


class TestRankOf:
    def test_identity(self):
        assert rank_of(np.eye(3)) == 3

    def test_rank1_projection(self):
        assert rank_of(np.diag([1.0, 0.0])) == 1

    def test_rank2_reference_effect(self):
        assert rank_of(type_d_example().effects[1]) == 2

    def test_zero_matrix(self):
        assert rank_of(np.zeros((4, 4))) == 0

    def test_negative_eigenvalues_never_count(self):
        assert rank_of(np.diag([1.0, -1.0])) == 1


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


class TestNormalizeSum:
    def test_sums_to_identity(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        ops = g @ g.conj().swapaxes(1, 2)
        out = normalize_sum(ops)
        assert np.linalg.norm(out.sum(axis=0) - np.eye(3)) <= DEFAULT_TOL.recon_tol
        assert np.array_equal(out, out.conj().swapaxes(1, 2))
        root = inv_sqrt(ops.sum(axis=0))
        assert np.allclose(out, root @ ops @ root, rtol=0.0, atol=1e-14)

    def test_sum_may_deviate_by_n_herm_tol(self):
        # each op 0.9 herm_tol off Hermitian; their sum 5.4 herm_tol off
        ops = np.stack([np.eye(2) / 6] * 6).astype(complex)
        ops[:, 0, 1] += 0.9 * DEFAULT_TOL.herm_tol
        with pytest.raises(NotHermitianError):
            inv_sqrt(ops.sum(axis=0))
        assert np.allclose(normalize_sum(ops).sum(axis=0), np.eye(2), rtol=0.0, atol=1e-12)

    def test_rejects_singular_sum(self):
        with pytest.raises(NotPositiveDefiniteError):
            normalize_sum(np.stack([np.diag([1.0, 0.0])] * 3).astype(complex))


class TestHermitianPart:
    @staticmethod
    def _input(shape, skew):
        """A Hermitian matrix or stack, plus ``skew`` herm_tol times a random one of max entry 1."""
        rng = np.random.default_rng(20)
        g = rng.standard_normal((*shape, 4, 4)) + 1j * rng.standard_normal((*shape, 4, 4))
        return (g + g.conj().swapaxes(-1, -2)) / 2 + skew * DEFAULT_TOL.herm_tol * g / abs(g).max()

    @pytest.mark.parametrize("shape", [(), (5,)])
    @pytest.mark.parametrize("skew", [0.0, 0.2])
    def test_bit_equal_to_the_average_and_the_input_untouched(self, shape, skew):
        a = self._input(shape, skew)
        before = a.copy()
        out = hermitian_part(a)
        assert out.tobytes() == ((a + a.conj().swapaxes(-1, -2)) / 2.0).tobytes()
        assert a.tobytes() == before.tobytes()
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))
        assert (out is a) == (skew == 0.0)  # an exactly Hermitian input is not copied

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize(
        "index, entry, deviation",
        [((0, 1), np.nan, "nan"), ((0, 0), np.inf, "nan"), ((1, 0), -np.inf, "inf"),
         ((0, 1), 1e-9, "1.000e-09")],
    )
    def test_rejections_keep_their_message(self, shape, index, entry, deviation):
        a = np.broadcast_to(np.eye(2, dtype=np.complex128), (*shape, 2, 2)).copy()
        a[(..., *index)] += entry
        before = a.copy()
        with pytest.raises(NotHermitianError) as caught:
            hermitian_part(a)
        assert str(caught.value) == (
            f"matrix deviates from Hermitian symmetry by {deviation} (herm_tol = 1.000e-10)"
        )
        assert np.array_equal(a, before, equal_nan=True)


class TestHermitianCoords:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_keeps_norms_and_singular_values(self, d):
        rng = np.random.default_rng(d)
        for k in (1, d, d * d, d * d + 3):
            stack = np.stack([random_hermitian(d, rng) for _ in range(k)])
            coords = hermitian_coords(stack)
            flat = stack.reshape(k, d * d)
            assert coords.shape == (k, d * d) and coords.dtype == np.float64
            norms = np.linalg.norm(flat, axis=1)
            assert np.allclose(np.linalg.norm(coords, axis=1), norms, rtol=1e-13, atol=0.0)
            s = np.linalg.svd(flat, compute_uv=False)
            assert np.allclose(
                np.linalg.svd(coords, compute_uv=False), s, rtol=0.0, atol=1e-13 * s[0]
            )

    def test_identity_and_batch_axes(self):
        assert np.array_equal(hermitian_coords(np.eye(3)), [1, 1, 1, 0, 0, 0, 0, 0, 0])
        stack = np.stack([SX, SZ, EYE2]).reshape(3, 1, 2, 2)
        assert np.array_equal(hermitian_coords(stack)[:, 0], hermitian_coords(stack[:, 0]))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_masked_gather_bit_for_bit(self, d):
        # the upper triangle picked by a boolean mask, as it was before its index was cached
        rng = np.random.default_rng(d)
        stack = np.stack([random_hermitian(d, rng) for _ in range(d + 2)])
        stack[0, 0, -1] = -0.0  # a signed zero keeps its sign
        upper = math.sqrt(2.0) * stack[..., np.arange(d)[:, None] < np.arange(d)]
        diagonal = np.diagonal(stack, axis1=-2, axis2=-1).real
        want = np.concatenate([diagonal, upper.real, upper.imag], axis=-1)
        got = hermitian_coords(stack)
        assert got.tobytes() == want.tobytes()
        assert hermitian_coords(stack[1]).tobytes() == want[1].tobytes()
        assert hermitian_coords(stack[:, ::-1, ::-1]).tobytes() == hermitian_coords(
            np.ascontiguousarray(stack[:, ::-1, ::-1])
        ).tobytes()

    def test_upper_index_is_built_once_per_dimension(self):
        entries = _upper_entries(5)
        assert entries is _upper_entries(5) and not entries.flags.writeable
        assert entries.tolist() == [1, 2, 3, 4, 7, 8, 9, 13, 14, 19]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_unit_basis_has_the_unit_vectors_as_coordinates(self, r):
        basis = unit_hermitian_basis(r)
        assert basis.shape == (r * r, r, r) and not basis.flags.writeable
        assert np.array_equal(basis, basis.conj().swapaxes(1, 2))
        np.testing.assert_allclose(hermitian_coords(basis), np.eye(r * r), rtol=0, atol=1e-15)


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
        ops = outer_pair_operators(spectral_blocks(type_d_example()))
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
