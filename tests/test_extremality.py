import dataclasses

import numpy as np
import pytest

from conftest import (
    EYE2,
    qubit3_with_rank0_outcome,
    rank1_within_psd_slack,
    random_mixed_rank_pvm,
    sigma_x_pvm,
    sigma_z_pvm,
)
from rational_rank import exact_independent
from split_tree import (
    DegenerateDependenceError,
    NotADependenceError,
    find_effect_dependence,
    linearly_independent,
    split_mixture,
)
from povm_forge import (
    DEFAULT_TOL,
    NOT_EXTREMAL,
    CertificateComponent,
    DecompositionCertificate,
    Povm,
    RelabelMap,
    classify,
    decompose,
    extremality_report,
    is_extremal,
    is_extremal_rank1,
    mix,
    onb_pvm,
    prune_zero_effects,
    random_povm,
    relabel,
    spectral_relabel,
    type_d_example,
    verify_certificate,
    violations,
)
from povm_forge.errors import (
    AllZeroError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotRank1Error,
)
from povm_forge.extremality import rank1_failures
from povm_forge.linalg import banded_verdict, rank_of


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
    """Each effect as a sum of |psi><psi|: the pieces and map of ``spectral_relabel``."""

    def test_basis_pvm(self):
        rank1, rmap = spectral_relabel(onb_pvm(3))
        assert rmap.targets.tolist() == [0, 1, 2]
        assert np.allclose(rank1.effects, onb_pvm(3).effects)

    def test_scaled_rank1_effect(self):
        v = np.array([1.0, 2.0, 2.0], dtype=complex) / 3.0
        p = Povm(np.stack([(2 / 3) * np.outer(v, v.conj()), np.eye(3) - (2 / 3) * np.outer(v, v.conj())]))
        rank1, rmap = spectral_relabel(p)
        assert np.count_nonzero(rmap.targets == 0) == 1
        piece = rank1.effects[0]
        assert np.trace(piece).real == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(piece, p.effects[0], atol=1e-12)

    def test_rank2_reference_vectors(self):
        rank1, rmap = spectral_relabel(type_d_example())
        assert rmap.targets.tolist() == [0, 0, 1, 1, 2, 2]
        for j in range(3):
            first, second = rank1.effects[2 * j], rank1.effects[2 * j + 1]
            # orthogonal, each of trace 2/3, reconstructing the effect
            assert np.linalg.norm(first @ second) <= 1e-12
            for piece in (first, second):
                assert np.trace(piece).real == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(relabel(rank1, rmap).effects, type_d_example().effects, atol=1e-12)

    def test_reconstruction_random(self):
        for seed in range(10):
            p = random_povm(3, 4, seed)
            rebuilt = relabel(*spectral_relabel(p)).effects
            assert np.linalg.norm(rebuilt - p.effects, axis=(1, 2)).max() <= DEFAULT_TOL.recon_tol


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

    @pytest.mark.filterwarnings("error")
    def test_infinite_entry_raises_without_a_warning(self):
        effects = np.array(onb_pvm(2).effects)
        effects[0, 0, 1] = np.inf
        with pytest.raises(NonFiniteError):
            is_extremal_rank1(Povm(effects))

    def test_all_effects_below_the_rank_cutoff(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        tiny = 5e-10 * np.stack([np.outer(psi, psi.conj()), np.diag([1.0, 0.0])])
        with pytest.raises(AllZeroError):
            is_extremal_rank1(Povm(tiny))

    def test_band_verdict_agrees_across_entry_points(self):
        # two rank-1 projections 2.5e-9 apart: margin ~1.8e-9, inside the band
        theta = 2.5e-9
        psi = np.array([np.cos(theta), np.sin(theta)])
        p = Povm(np.stack([np.diag([1.0, 0.0]), np.outer(psi, psi)]).astype(complex))
        result = linearly_independent(list(p.effects))
        assert banded_verdict(result.margin, DEFAULT_TOL) == (False, True)
        assert not result.independent
        assert find_effect_dependence(p) is not None
        assert not is_extremal_rank1(p)
        report = extremality_report(p)
        assert (report.extremal, report.borderline) == (False, True)
        verdict = classify(p)
        assert verdict.extremal_type == NOT_EXTREMAL and verdict.extremality.borderline

    def test_skew_effect_below_the_zero_tolerance_is_not_hermitian(self):
        # norm 9.9e-11 <= zero_effect_tol, but skew by 1.4e-10 > herm_tol: validate rejects it
        skew = np.array([[0.0, 7e-11], [-7e-11, 0.0]])
        p = Povm(np.concatenate([onb_pvm(2).effects, skew[None]]))
        assert isinstance(violations(p)[0], NotHermitianError)
        with pytest.raises(NotHermitianError):
            is_extremal_rank1(p)
        target = Povm(np.concatenate([onb_pvm(2).effects, np.zeros((1, 2, 2))]))
        component = CertificateComponent(1.0, p, RelabelMap.identity(3))
        cert = DecompositionCertificate(target, (component,))
        report = verify_certificate(cert)
        assert report.component_extremal == (False,)
        assert report.failures == (
            f"component 0 is not an extremal rank-1 POVM: {violations(p)[0]}",
        )

    def test_agrees_with_general_test_on_rank1(self):
        disagreements = 0
        for trial in range(1000):
            d = 2 + trial % 3
            n = d + trial % (d * d - d + 3)
            p = random_povm(d, n, seed=9000 + trial, rank=1)
            if is_extremal_rank1(p) != is_extremal(p):
                disagreements += 1
        assert disagreements == 0


def test_one_rank_rule_when_psd_tol_exceeds_rank_tol():
    # a negative eigenvalue within psd_tol but beyond the rank cutoff counts as rank nowhere
    tol = dataclasses.replace(DEFAULT_TOL, psd_tol=1e-8)
    p = rank1_within_psd_slack()
    assert violations(p, tol) == []
    c = classify(p, tol)
    assert (c.extremal_type, c.rank_profile) == ("a", (1,) * 7)
    assert is_extremal_rank1(p, tol) is True
    assert rank_of(p.effects[0], tol) == 1
    assert len(decompose(p, tol).components) == 1


@pytest.mark.parametrize(
    "n, sizes",
    [(2, [1]), (2, [3]), (2, [0, 2]), (2, [2, 0]), (2, [-1, 3]), (2, [1.0, 1.0]), (2, [[1, 1]]),
     (2, []), (0, np.array([], dtype=int))],
)
def test_rank1_failures_rejects_sizes_that_do_not_split_the_stack(n, sizes):
    # unchecked, [1] folds the unlisted effect into the sum of |0><0| and [2, 0] indexes past it
    with pytest.raises(DimensionMismatchError):
        rank1_failures(onb_pvm(2).effects[:n], sizes)


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
