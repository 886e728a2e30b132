import numpy as np
import pytest

from conftest import EYE2, SX, SZ, qubit3_with_rank0_outcome, sigma_x_pvm
from rational_rank import exact_independent
from split_tree import linearly_independent
from povm_forge import (
    DEFAULT_TOL,
    Povm,
    classify,
    construct_extremal_rank1,
    extend_extremal,
    extremality_report,
    hermitian_basis,
    is_extremal,
    is_extremal_rank1,
    onb_pvm,
    random_povm,
    rank_of,
    validate,
    violations,
)
from povm_forge.errors import (
    AlreadyMaximalError,
    BadDimensionError,
    DimensionMismatchError,
    NotExtremalRank1Error,
    NotNormalizedError,
    OutOfRangeError,
    SingularSumError,
)
from povm_forge.linalg import normalize_sum


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_size_and_independence(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        assert all(np.allclose(m, m.conj().T) for m in basis)
        assert linearly_independent(list(basis)).independent
        assert exact_independent(list(basis))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_plus_eigenprojections(self, d):
        basis = hermitian_basis(d)
        candidates = (basis + basis @ basis) / 2.0
        for c in candidates:
            assert np.array_equal(c @ c, c)
            assert np.array_equal(c, c.conj().T)
            assert rank_of(c) == 1
        assert exact_independent(list(candidates))

    def test_scan_order(self):
        basis = hermitian_basis(2)
        assert np.array_equal(basis[0], np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(basis[1], np.diag([0.0, 1.0]).astype(complex))
        assert np.array_equal(basis[2], SX)
        assert np.array_equal(basis[3], np.array([[0, -1j], [1j, 0]]))
        basis = hermitian_basis(3)
        for i in range(3):
            assert np.array_equal(basis[i], np.diag(np.eye(3)[i]).astype(complex))
        for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):  # row-major pairs
            sym = np.zeros((3, 3), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            anti = np.zeros((3, 3), dtype=complex)
            anti[i, j], anti[j, i] = -1j, 1j
            assert np.array_equal(basis[3 + k], sym)
            assert np.array_equal(basis[6 + k], anti)

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            hermitian_basis(0)


class TestOnbPvm:
    def test_dimension_one(self):
        p = onb_pvm(1)
        assert p.effects.shape == (1, 1, 1)
        assert p.effects[0, 0, 0] == 1.0

    def test_dimension_two(self):
        p = onb_pvm(2)
        assert np.array_equal(p.effects[0], np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(p.effects[1], np.diag([0.0, 1.0]).astype(complex))

    def test_classification(self):
        result = classify(onb_pvm(5))
        assert result.is_pvm and result.is_rank1
        assert result.extremal_type == "a"

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            onb_pvm(0)


class TestExtendExtremal:
    def test_reproduces_reference_with_forced_projection(self, qubit3):
        extended = extend_extremal(sigma_x_pvm(), projection=(EYE2 + SZ) / 2)
        assert np.max(np.abs(extended.effects - qubit3.effects)) <= 1e-12

    def test_canonical_scan_picks_same_projection(self, qubit3):
        extended = extend_extremal(sigma_x_pvm())
        assert np.max(np.abs(extended.effects - qubit3.effects)) <= 1e-12

    def test_extend_basis_pvm(self):
        extended = extend_extremal(onb_pvm(2))
        assert extended.n_outcomes == 3
        validate(extended)
        assert is_extremal_rank1(extended)

    def test_already_maximal(self):
        with pytest.raises(AlreadyMaximalError):
            extend_extremal(construct_extremal_rank1(2, 4))

    def test_rejects_dependent_rank1(self, dependent4):
        with pytest.raises(NotExtremalRank1Error):
            extend_extremal(dependent4)

    def test_rejects_full_rank(self):
        with pytest.raises(NotExtremalRank1Error):
            extend_extremal(Povm(np.stack([EYE2 / 2, EYE2 / 2])))

    def test_rejects_a_non_povm_with_its_first_violation(self):
        # {I, I}: rank 2 and summing to 2I; the sum is reported, as validate reports it
        p = Povm(np.stack([EYE2, EYE2]))
        with pytest.raises(NotNormalizedError) as info:
            extend_extremal(p)
        assert str(info.value) == str(violations(p)[0])

    def test_rejects_in_span_projection(self):
        with pytest.raises(NotExtremalRank1Error):
            extend_extremal(onb_pvm(2), projection=np.diag([1.0, 0.0]))

    def test_rejects_projection_of_other_dimension(self):
        with pytest.raises(DimensionMismatchError):
            extend_extremal(onb_pvm(2), projection=np.diag([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("eps", [3e-9, 2e-9])
    def test_tiny_effect_is_no_null_direction(self, eps):
        # a valid extremal rank-1 qubit POVM whose third effect has norm about eps
        ops = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), eps * (EYE2 + SX) / 2])
        p = validate(Povm(normalize_sum(ops.astype(complex))))
        assert is_extremal_rank1(p) and classify(p).extremal_type == "a"
        extended = extend_extremal(p)
        assert extended.n_outcomes == 4
        assert classify(extended).extremal_type == "a"

    @pytest.mark.parametrize(
        "case, j", [("rank0", 3), ("rank0_beside_pvm", 2), ("zero", 0), ("zero", 1), ("zero", 2)]
    )
    def test_keeps_zero_and_rank0_outcomes_in_place(self, case, j):
        # outcome j's effect has no eigenvalue above the rank cutoff: norm 5e-10, or 0
        if case == "rank0":
            p = qubit3_with_rank0_outcome()
        elif case == "rank0_beside_pvm":
            small = 5e-10 * np.diag([1.0, 0.0])
            p = Povm(np.stack([np.diag([1.0, 0.0]) - small, np.diag([0.0, 1.0]), small]))
        else:
            p = Povm(np.insert(sigma_x_pvm().effects, j, 0.0, axis=0))
        assert is_extremal_rank1(p)
        extended = extend_extremal(p)
        assert extended.n_outcomes == p.n_outcomes + 1
        validate(extended)
        assert is_extremal_rank1(extended)
        assert [rank_of(e) for e in extended.effects] == [rank_of(e) for e in p.effects] + [1]
        norm, was = np.linalg.norm(extended.effects[j]), np.linalg.norm(p.effects[j])
        assert 0.5 * was <= norm <= was  # T^{-1/2} E T^{-1/2}, T = I + P

    def test_preserves_extremality_and_increments_count(self):
        checked = 0
        for trial in range(1000):
            d = 2 + trial % 3
            n = d + trial % (d * d - d)  # keep n < d^2 so extension is possible
            p = random_povm(d, n, seed=40_000 + trial, rank=1)
            if not is_extremal_rank1(p):
                continue  # measure-zero event for random rank-1 draws
            extended = extend_extremal(p)
            validate(extended)
            assert extended.n_outcomes == n + 1
            assert is_extremal_rank1(extended)
            checked += 1
        assert checked >= 990


class TestConstructExtremalRank1:
    def test_minimal_case_is_basis_pvm(self):
        p = construct_extremal_rank1(2, 2)
        assert np.array_equal(p.effects, onb_pvm(2).effects)

    def test_spot_cases(self):
        for d, n in [(2, 4), (3, 9), (4, 5), (9, 77), (10, 83), (12, 100), (16, 256)]:
            p = construct_extremal_rank1(d, n)
            assert p.n_outcomes == n
            validate(p)
            assert is_extremal_rank1(p)
            assert not extremality_report(p).borderline, (d, n)
            assert np.linalg.norm(p.effects.sum(axis=0) - np.eye(d)) <= DEFAULT_TOL.recon_tol
            assert all(rank_of(e) == 1 for e in p.effects)

    def test_every_admissible_count_up_to_d9(self):
        for d in range(1, 10):
            for n in range(d, d * d + 1):
                report = extremality_report(construct_extremal_rank1(d, n))
                assert report.extremal and not report.borderline, (d, n)

    def test_one_congruence_and_no_span_scan(self, monkeypatch):
        import povm_forge.constructor as constructor
        import povm_forge.linalg as linalg

        calls = {"inv_sqrt": 0, "span": 0}
        inv_sqrt, span_test = linalg.inv_sqrt, constructor.pair_independence

        def counted_inv_sqrt(*args):
            calls["inv_sqrt"] += 1
            return inv_sqrt(*args)

        def counted_span(*args):
            calls["span"] += 1
            return span_test(*args)

        monkeypatch.setattr(linalg, "inv_sqrt", counted_inv_sqrt)
        monkeypatch.setattr(constructor, "pair_independence", counted_span)
        construct_extremal_rank1(5, 20)
        assert calls == {"inv_sqrt": 1, "span": 0}

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 2), (3, 10), (2, 1)])
    def test_out_of_range(self, d, n):
        with pytest.raises(OutOfRangeError):
            construct_extremal_rank1(d, n)

    def test_deterministic(self):
        a = construct_extremal_rank1(3, 7)
        b = construct_extremal_rank1(3, 7)
        assert np.array_equal(a.effects, b.effects)


class TestQubitExample:
    def test_first_effect_entries(self, qubit3):
        expected = np.array(
            [[0.25, 1 / (2 * np.sqrt(2))], [1 / (2 * np.sqrt(2)), 0.5]], dtype=complex
        )
        assert np.allclose(qubit3.effects[0], expected, atol=1e-15)

    def test_third_effect(self, qubit3):
        assert np.allclose(qubit3.effects[2], np.diag([0.5, 0.0]), atol=1e-15)

    def test_normalization(self, qubit3):
        assert np.allclose(qubit3.effects.sum(axis=0), EYE2)

    def test_rank1_extremal(self, qubit3):
        assert all(rank_of(e) == 1 for e in qubit3.effects)
        assert is_extremal_rank1(qubit3)


class TestTypeDExample:
    def test_valid(self, type_d):
        validate(type_d)

    def test_effects_have_rank_two(self, type_d):
        assert [rank_of(e) for e in type_d.effects] == [2, 2, 2]

    def test_idempotency_up_to_scale(self, type_d):
        for e in type_d.effects:
            assert np.linalg.norm(e @ e - (2 / 3) * e) <= 1e-12

    def test_not_projections(self, type_d):
        for e in type_d.effects:
            assert np.linalg.norm(e @ e - e) > 0.1

    def test_extremal_type_d(self, type_d):
        assert is_extremal(type_d)
        assert classify(type_d).extremal_type == "d"


class TestRandomPovm:
    def test_single_outcome_is_identity(self):
        p = random_povm(3, 1, seed=0)
        assert np.allclose(p.effects[0], np.eye(3), atol=1e-12)

    def test_seed_reproducibility(self):
        a = random_povm(3, 5, seed=42)
        b = random_povm(3, 5, seed=42)
        assert np.array_equal(a.effects, b.effects)

    def test_corpus_validity(self):
        for seed in range(100):
            validate(random_povm(3, 5, seed))

    def test_singular_sum_on_every_draw(self):
        with pytest.raises(SingularSumError):
            random_povm(3, 2, seed=0, rank=1)  # two rank-1 terms never span d=3

    def test_rank_parameter(self):
        p = random_povm(3, 6, seed=1, rank=1)
        validate(p)
        assert all(rank_of(e) == 1 for e in p.effects)
