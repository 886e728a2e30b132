import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EYE2, SZ, four_outcome_qubit, random_mixed_rank_pvm, sigma_x_pvm, sigma_z_pvm
from rational_rank import exact_independent
from split_tree import split_tree
from povm_forge import (
    DEFAULT_TOL,
    CertificateComponent,
    DecompositionCertificate,
    Povm,
    RelabelMap,
    decompose,
    equivalent,
    extremal_to_rank1,
    is_extremal_rank1,
    onb_pvm,
    outcome_probabilities,
    prune_zero_effects,
    random_density_matrix,
    random_povm,
    relabel,
    spectral_relabel,
    statistics_equivalence,
    verify_certificate,
)
from povm_forge.errors import DimensionMismatchError, NonConvergenceError, NotExtremalError


class TestDecompose:
    def test_extremal_rank1_fixed_point(self, qubit3):
        cert = decompose(qubit3)
        assert len(cert.components) == 1
        comp = cert.components[0]
        assert comp.weight == 1.0
        assert np.array_equal(comp.relabel.targets, np.arange(3))
        assert np.allclose(comp.extremal.effects, qubit3.effects, atol=1e-12)

    def test_uniform_pair(self):
        p = Povm(np.stack([EYE2 / 2, EYE2 / 2]))
        cert = decompose(p)
        report = verify_certificate(cert)
        assert report.passed
        assert sum(c.weight for c in cert.components) == pytest.approx(1.0, abs=1e-12)

    def test_four_outcome_splits_into_basis_pvms(self, dependent4):
        cert = decompose(dependent4)
        assert len(cert.components) == 2
        weights = sorted(c.weight for c in cert.components)
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
        leaves = [comp.extremal for comp in cert.components]
        assert any(equivalent(leaf, sigma_z_pvm(), up_to_permutation=True) for leaf in leaves)
        assert any(equivalent(leaf, sigma_x_pvm(), up_to_permutation=True) for leaf in leaves)
        assert verify_certificate(cert).passed

    def test_zero_effects_in_target_are_reconstructed(self):
        effects = np.concatenate([four_outcome_qubit().effects, np.zeros((1, 2, 2))])
        cert = decompose(Povm(effects))
        assert cert.target.n_outcomes == 5
        assert verify_certificate(cert).passed

    def test_random_corpus_certificates_verify(self):
        for seed in range(30):
            d = 2 + seed % 3
            p = random_povm(d, 2 + seed % 5, seed)
            cert = decompose(p)
            report = verify_certificate(cert)
            assert report.passed, report.failures
            assert all(c.weight > 0 for c in cert.components)

    def test_component_outcome_counts_within_bounds(self):
        for seed in range(15):
            p = random_povm(3, 4, seed)
            for comp in decompose(p).components:
                assert 3 <= comp.extremal.n_outcomes <= 9


def _peel_bound(p: Povm) -> int:
    """N - rank + 1, with rank the real rank of the N rank-1 spectral terms."""
    root, _ = spectral_relabel(prune_zero_effects(p)[0])
    flat = root.effects.reshape(root.n_outcomes, -1)
    rank = np.linalg.matrix_rank(np.concatenate([flat.real, flat.imag], axis=1))
    return root.n_outcomes - int(rank) + 1


# (d, n, rank) with at most 12 rank-1 spectral terms n * rank
SMALL = st.sampled_from(
    [(d, n, r) for d in (1, 2, 3) for r in range(1, d + 1) for n in range(1, 13)
     if d <= n * r <= 12]
)


class TestPeel:
    @given(SMALL, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_split_tree(self, shape, seed):
        d, n, rank = shape
        p = random_povm(d, n, seed, rank=rank)
        peel, tree = decompose(p), split_tree(p)
        assert verify_certificate(peel).passed
        assert verify_certificate(tree).passed
        assert np.allclose(
            peel.reconstruction(), tree.reconstruction(), rtol=0.0, atol=DEFAULT_TOL.recon_tol
        )

    @given(st.integers(1, 4), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_positive_weights_and_component_bound(self, d, n, rank1, seed):
        n = max(n, d) if rank1 else n
        p = random_povm(d, n, seed, rank=1 if rank1 else None)
        cert = decompose(p)
        assert all(c.weight > 0.0 for c in cert.components)
        assert len(cert.components) <= _peel_bound(p)

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_components_are_exactly_independent(self, d, n, seed):
        for comp in decompose(random_povm(d, n, seed)).components:
            assert exact_independent(comp.extremal.effects)

    @pytest.mark.parametrize(
        "d, n, rank, seed",
        [(2, 2, None, 0), (2, 3, None, 0), (3, 2, None, 1), (4, 5, None, 2),
         (2, 4, 1, 0), (2, 4, 1, 1), (3, 9, 1, 0), (3, 9, 1, 2)],
    )
    def test_input_off_the_identity_verifies_or_raises(self, d, n, rank, seed):
        # 5e-9 of a random PSD direction on effect 0: the effects sum to I only
        # within recon_tol, and some of these inputs are nearly dependent
        p = random_povm(d, n, seed, rank=rank)
        g = np.random.default_rng(seed).standard_normal((d, 2 * d)).view(np.complex128)
        h = g @ g.conj().T
        effects = np.array(p.effects)
        effects[0] += 5e-9 * h / np.linalg.norm(h)
        try:
            cert = decompose(Povm(effects))
        except NonConvergenceError:
            return
        assert verify_certificate(cert).passed

    def test_baseline_sizes_meet_the_bound(self):
        for d, n in ((2, 8), (3, 8)):
            p = random_povm(d, n, seed=0)
            cert = decompose(p)
            assert verify_certificate(cert).passed
            assert len(cert.components) <= _peel_bound(p) == n * d - d * d + 1


class TestExtremalToRank1:
    def test_rank1_input_is_fixed_point(self, qubit3):
        rank1, rmap = extremal_to_rank1(qubit3)
        assert np.allclose(rank1.effects, qubit3.effects, atol=1e-12)
        assert np.array_equal(rmap.targets, np.arange(3))

    def test_rank2_block_pvm(self):
        effects = np.zeros((2, 4, 4), dtype=complex)
        effects[0, 0, 0] = effects[0, 1, 1] = 1.0
        effects[1, 2, 2] = effects[1, 3, 3] = 1.0
        rank1, rmap = extremal_to_rank1(Povm(effects))
        assert rank1.n_outcomes == 4
        assert is_extremal_rank1(rank1)
        assert np.array_equal(rmap.targets, [0, 0, 1, 1])
        assert np.allclose(relabel(rank1, rmap).effects, effects)

    def test_rank2_reference_povm(self, type_d):
        rank1, rmap = extremal_to_rank1(type_d)
        assert rank1.n_outcomes == 6
        assert is_extremal_rank1(rank1)
        assert np.array_equal(rmap.targets, [0, 0, 1, 1, 2, 2])
        assert np.allclose(relabel(rank1, rmap).effects, type_d.effects, atol=1e-12)

    def test_rejects_non_extremal(self):
        with pytest.raises(NotExtremalError):
            extremal_to_rank1(Povm(np.stack([EYE2 / 2, EYE2 / 2])))

    def test_mixed_rank_pvm_family(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            for _ in range(5):
                p = random_mixed_rank_pvm(d, rng)
                rank1, rmap = extremal_to_rank1(p)
                assert is_extremal_rank1(rank1)
                assert np.allclose(
                    relabel(rank1, rmap).effects, p.effects, atol=DEFAULT_TOL.recon_tol
                )


class TestVerifyCertificate:
    def test_detects_perturbed_weight(self, dependent4):
        cert = decompose(dependent4)
        comps = list(cert.components)
        comps[0] = CertificateComponent(
            weight=comps[0].weight + 1e-3, extremal=comps[0].extremal, relabel=comps[0].relabel
        )
        report = verify_certificate(
            DecompositionCertificate(target=cert.target, components=tuple(comps))
        )
        assert not report.passed
        assert report.weight_sum_residual == pytest.approx(1e-3, rel=1e-6)

    def test_detects_non_extremal_component(self, dependent4):
        cert = decompose(Povm(np.stack([EYE2 / 2, EYE2 / 2])))
        bad = CertificateComponent(
            weight=cert.components[0].weight,
            extremal=dependent4,
            relabel=RelabelMap(4, 2, [0, 0, 1, 1]),
        )
        report = verify_certificate(
            DecompositionCertificate(target=cert.target, components=(bad,) + cert.components[1:])
        )
        assert not report.passed
        assert report.component_extremal[0] is False
        assert any("extremal" in line for line in report.failures)

    def test_reports_reconstruction_residuals_per_effect(self, qubit3):
        report = verify_certificate(decompose(qubit3))
        assert report.effect_residuals.shape == (3,)
        assert report.passed

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda doc: doc["components"][0].update(weight=np.nan),
            lambda doc: [comp.update(weight=np.nan) for comp in doc["components"]],
            lambda doc: doc["target"]["effects"][0]["re"][0].__setitem__(0, np.nan),
            lambda doc: doc["components"][0]["extremal"]["effects"][0]["re"][0].__setitem__(0, np.nan),
            lambda doc: doc["components"][0]["extremal"]["effects"][0]["re"][0].__setitem__(1, 1.0),
            lambda doc: [
                effect.update(re=[[0, 0], [0, 0]], im=[[0, 0], [0, 0]])
                for effect in doc["components"][0]["extremal"]["effects"]
            ],
            lambda doc: [  # every effect nonzero, none with an eigenvalue above the rank cutoff
                effect.update(re=[[2.5e-10, 0], [0, 2.5e-10]], im=[[0, 2.5e-10], [-2.5e-10, 0]])
                for effect in doc["components"][0]["extremal"]["effects"]
            ],
        ],
        ids=[
            "nan_weight", "nan_weights", "nan_target", "nan_component", "skew_component",
            "zero_component", "tiny_component",
        ],
    )
    def test_spoiled_certificate_fails_without_raising(self, spoil):
        doc = decompose(random_povm(2, 3, seed=1)).to_jsonable()
        assert len(doc["components"]) > 1
        spoil(doc)
        report = verify_certificate(DecompositionCertificate.from_jsonable(doc))
        assert not report.passed
        assert report.failures


class TestOutcomeProbabilities:
    def test_maximally_mixed(self, qubit3):
        q = outcome_probabilities(qubit3, EYE2 / 2)
        traces = np.einsum("jii->j", qubit3.effects).real
        assert np.allclose(q, traces / 2)

    def test_basis_state_on_basis_pvm(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        q = outcome_probabilities(onb_pvm(4), rho)
        assert np.allclose(q, [1.0, 0.0, 0.0, 0.0])

    def test_reference_qubit_distribution(self, qubit3):
        rho = (EYE2 + SZ) / 2
        q = outcome_probabilities(qubit3, rho)
        assert np.allclose(q, [0.25, 0.25, 0.5], atol=1e-12)

    def test_dimension_mismatch(self, qubit3):
        with pytest.raises(DimensionMismatchError):
            outcome_probabilities(qubit3, np.eye(3) / 3)

    def test_distribution_properties(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            p = random_povm(3, 4, seed)
            rho = random_density_matrix(3, rng)
            q = outcome_probabilities(p, rho)
            assert np.all(q >= -DEFAULT_TOL.psd_tol)
            assert q.sum() == pytest.approx(1.0, abs=1e-10)


class TestRandomDensityMatrix:
    def test_valid_state(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(4, rng)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho)[0] >= -DEFAULT_TOL.psd_tol

    def test_seeded_reproducibility(self):
        a = random_density_matrix(3, np.random.default_rng(5))
        b = random_density_matrix(3, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestStatisticsEquivalence:
    def test_certificates_reproduce_statistics(self, dependent4):
        cert = decompose(dependent4)
        report = statistics_equivalence(cert, trials=100, seed=3)
        assert report.passed
        assert report.max_deviation <= 1e-9

    def test_corrupted_relabel_detected(self, dependent4):
        cert = decompose(dependent4)
        comp = cert.components[0]
        targets = comp.relabel.targets.copy()
        targets[0] = (targets[0] + 1) % cert.target.n_outcomes
        bad = CertificateComponent(
            weight=comp.weight,
            extremal=comp.extremal,
            relabel=RelabelMap(comp.relabel.source_size, cert.target.n_outcomes, targets),
        )
        report = statistics_equivalence(
            DecompositionCertificate(cert.target, (bad,) + cert.components[1:]),
            trials=20,
            seed=3,
        )
        assert not report.passed

    def test_zero_trials_vacuous_pass(self, qubit3):
        report = statistics_equivalence(decompose(qubit3), trials=0, seed=0)
        assert report.passed
        assert report.trials == 0
        assert report.deviations.size == 0


class TestCertificateJson:
    def test_round_trip(self, dependent4):
        cert = decompose(dependent4)
        doc = json.loads(json.dumps(cert.to_jsonable()))
        back = DecompositionCertificate.from_jsonable(doc)
        assert np.array_equal(back.target.effects, cert.target.effects)
        assert len(back.components) == len(cert.components)
        for a, b in zip(back.components, cert.components):
            assert a.weight == b.weight
            assert np.array_equal(a.extremal.effects, b.extremal.effects)
            assert np.array_equal(a.relabel.targets, b.relabel.targets)
        assert verify_certificate(back).passed

    def test_relabel_entries_are_one_based(self, qubit3):
        doc = decompose(qubit3).to_jsonable()
        assert doc["components"][0]["relabel"] == [1, 2, 3]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            DecompositionCertificate.from_jsonable({"target": {"dim": 2, "effects": []}})
