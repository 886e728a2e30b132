import numpy as np
import pytest

from conftest import (
    EYE2,
    qubit3_with_rank0_outcome,
    random_mixed_rank_pvm,
    sigma_x_pvm,
    sigma_z_pvm,
)
from rational_rank import exact_independent
from povm_forge import (
    DEFAULT_TOL,
    Povm,
    extremality_report,
    is_extremal,
    is_extremal_rank1,
    mix,
    onb_pvm,
    prune_zero_effects,
    random_povm,
    spectral_form,
    split_mixture,
    type_d_example,
)
from povm_forge.errors import (
    AllZeroError,
    DegenerateDependenceError,
    NotADependenceError,
    NotRank1Error,
)
from povm_forge.extremality import find_effect_dependence


def uniform_pair():
    return Povm(np.stack([EYE2 / 2, EYE2 / 2]))


def trine():
    """Three rank-1 effects (2/3) |phi_k><phi_k| at 120-degree angles."""
    effects = []
    for k in range(3):
        theta = 2 * np.pi * k / 3
        v = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        effects.append((2 / 3) * np.outer(v, v.conj()))
    return Povm(np.stack(effects))


class TestSpectralForm:
    def test_basis_pvm(self):
        form = spectral_form(onb_pvm(3))
        assert form.counts == (1, 1, 1)
        for j in range(3):
            expected = np.zeros(3, dtype=complex)
            expected[j] = 1.0
            assert np.allclose(form.vectors[j][0], expected)

    def test_scaled_rank1_effect(self):
        v = np.array([1.0, 2.0, 2.0], dtype=complex) / 3.0
        p = Povm(np.stack([(2 / 3) * np.outer(v, v.conj()), np.eye(3) - (2 / 3) * np.outer(v, v.conj())]))
        form = spectral_form(p)
        assert form.counts[0] == 1
        psi = form.vectors[0][0]
        assert np.linalg.norm(psi) ** 2 == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(np.outer(psi, psi.conj()), p.effects[0], atol=1e-12)

    def test_rank2_reference_vectors(self):
        form = spectral_form(type_d_example())
        assert form.counts == (2, 2, 2)
        for j in range(3):
            block = form.vectors[j]
            # orthogonal, each norm^2 = 2/3, reconstructing the effect
            assert abs(np.vdot(block[0], block[1])) <= 1e-12
            for k in range(2):
                assert np.linalg.norm(block[k]) ** 2 == pytest.approx(2 / 3, abs=1e-12)
            assert np.allclose(form.reconstruct(j), type_d_example().effects[j], atol=1e-12)

    def test_reconstruction_random(self):
        for seed in range(10):
            p = random_povm(3, 4, seed)
            form = spectral_form(p)
            for j in range(p.n_outcomes):
                assert np.linalg.norm(form.reconstruct(j) - p.effects[j]) <= DEFAULT_TOL.recon_tol


class TestIsExtremal:
    def test_pvms_are_extremal(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            for _ in range(10):
                assert is_extremal(random_mixed_rank_pvm(d, rng))

    def test_uniform_pair_is_not(self):
        assert not is_extremal(uniform_pair())

    def test_rank2_reference_is_extremal(self):
        assert is_extremal(type_d_example())

    def test_full_rank_random_povms_are_not(self):
        for seed in range(10):
            assert not is_extremal(random_povm(3, 3, seed))

    def test_report_margin_not_borderline_on_clean_inputs(self):
        report = extremality_report(type_d_example())
        assert report.extremal and not report.borderline
        assert report.operator_count == 12


class TestIsExtremalRank1:
    def test_basis_pvm(self):
        assert is_extremal_rank1(onb_pvm(4))

    def test_reference_qubit_povm(self, qubit3):
        assert is_extremal_rank1(qubit3)

    def test_dependent_four_outcome(self, dependent4):
        assert not is_extremal_rank1(dependent4)

    def test_rejects_higher_rank(self):
        with pytest.raises(NotRank1Error):
            is_extremal_rank1(uniform_pair())

    def test_rank0_effect_does_not_count(self):
        assert is_extremal_rank1(qubit3_with_rank0_outcome())

    def test_all_effects_below_the_rank_cutoff(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        tiny = 5e-10 * np.stack([np.outer(psi, psi.conj()), np.diag([1.0, 0.0])])
        with pytest.raises(AllZeroError):
            is_extremal_rank1(Povm(tiny))

    def test_agrees_with_general_test_on_rank1(self):
        disagreements = 0
        for trial in range(1000):
            d = 2 + trial % 3
            n = d + trial % (d * d - d + 3)
            p = random_povm(d, n, seed=9000 + trial, rank=1)
            if is_extremal_rank1(p) != is_extremal(p):
                disagreements += 1
        assert disagreements == 0


class TestSplitMixture:
    def test_uniform_pair_split(self):
        split = split_mixture(uniform_pair(), [1.0, -1.0])
        assert split.weight == pytest.approx(0.5)
        assert np.allclose(split.left.effects[0], 0.0)
        assert np.allclose(split.left.effects[1], EYE2)
        assert np.allclose(split.right.effects[0], EYE2)
        assert np.allclose(split.right.effects[1], 0.0)

    def test_four_outcome_split_into_basis_pvms(self, dependent4):
        split = split_mixture(dependent4, [1.0, 1.0, -1.0, -1.0])
        assert split.weight == pytest.approx(0.5, abs=1e-12)
        left, _ = prune_zero_effects(split.left)
        right, _ = prune_zero_effects(split.right)
        assert np.allclose(left.effects, sigma_z_pvm().effects, atol=1e-12)
        assert np.allclose(right.effects, sigma_x_pvm().effects, atol=1e-12)
        recon = mix(split.left, split.right, split.weight)
        assert np.allclose(recon.effects, dependent4.effects, atol=1e-12)

    def test_scale_invariance(self, dependent4):
        a = split_mixture(dependent4, [1.0, 1.0, -1.0, -1.0])
        b = split_mixture(dependent4, [3.0, 3.0, -3.0, -3.0])
        assert a.weight == b.weight
        assert np.array_equal(a.left.effects, b.left.effects)
        assert np.array_equal(a.right.effects, b.right.effects)

    def test_rejects_non_dependence(self):
        with pytest.raises(NotADependenceError):
            split_mixture(trine(), [1.0, 1.0, 1.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(DegenerateDependenceError):
            split_mixture(uniform_pair(), [0.0, 0.0])

    def test_rejects_complex_coefficients(self):
        with pytest.raises(NotADependenceError):
            split_mixture(uniform_pair(), np.array([1.0j, -1.0j]))

    def test_trine_effects_are_independent(self):
        assert find_effect_dependence(trine()) is None
        assert is_extremal_rank1(trine())

    def test_random_constituent_splits(self):
        from povm_forge import spectral_relabel

        for seed in range(30):
            d = 2 + seed % 3
            p = random_povm(d, 2 + seed % 4, seed)
            rank1, _ = spectral_relabel(p)
            lam = find_effect_dependence(rank1)
            assert lam is not None  # full-rank random POVMs are never extremal
            split = split_mixture(rank1, lam)
            recon = mix(split.left, split.right, split.weight)
            assert np.linalg.norm(recon.effects - rank1.effects) <= DEFAULT_TOL.recon_tol
            # nonzero counts strictly decrease, rank-1 structure survives
            for half in (split.left, split.right):
                pruned, _ = prune_zero_effects(half)
                assert pruned.n_outcomes <= rank1.n_outcomes - 1
                assert all(
                    np.linalg.eigvalsh(e)[-1] > 0 for e in pruned.effects
                )


class TestExtremalityBounds:
    def test_extremal_implies_independent_and_bounded(self):
        rng = np.random.default_rng(1)
        cases = [type_d_example(), onb_pvm(2), onb_pvm(4)]
        cases += [random_mixed_rank_pvm(d, rng) for d in (2, 3, 4) for _ in range(5)]
        for p in cases:
            assert is_extremal(p)
            pruned, _ = prune_zero_effects(p)
            assert pruned.n_outcomes <= p.dim**2
            assert find_effect_dependence(pruned) is None


class TestQubitOracle:
    """d=2 cross-checks against exact arithmetic and explicit splits."""

    def test_non_extremal_admit_verified_splits(self):
        from povm_forge import spectral_relabel

        for seed in range(25):
            p = random_povm(2, 2 + seed % 3, seed)
            assert not is_extremal(p)
            rank1, _ = spectral_relabel(p)
            lam = find_effect_dependence(rank1)
            split = split_mixture(rank1, lam)
            recon = mix(split.left, split.right, split.weight)
            assert np.linalg.norm(recon.effects - rank1.effects) <= DEFAULT_TOL.recon_tol

    def test_extremal_verdicts_confirmed_exactly(self):
        from povm_forge import construct_extremal_rank1

        for n in (2, 3, 4):
            p = construct_extremal_rank1(2, n)
            assert is_extremal(p)
            # exact rank over the rationals of the stored doubles
            assert exact_independent(list(p.effects))

    def test_structured_dependences_detected_exactly(self, dependent4):
        assert not is_extremal(dependent4)
        assert not exact_independent(list(dependent4.effects))
