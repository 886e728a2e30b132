import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_component
import per_effect
from conftest import (
    EYE2,
    SX,
    SY,
    SZ,
    four_outcome_qubit,
    random_mixed_rank_pvm,
    record_eigensolvers,
    sigma_x_pvm,
    sigma_z_pvm,
)
from rational_rank import exact_independent
from split_tree import split_tree
from povm_forge import (
    DEFAULT_TOL,
    CertificateComponent,
    DecompositionCertificate,
    Povm,
    RelabelMap,
    decompose,
    eig_herm,
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
    validate,
    verify_certificate,
    violations,
)
from povm_forge.errors import (
    DimensionMismatchError,
    EmptyInputError,
    MapSizeMismatchError,
    NonConvergenceError,
    NotExtremalError,
    NotExtremalRank1Error,
    NotNormalizedError,
    NotRank1Error,
    OutOfRangeError,
    PovmForgeError,
)
from povm_forge import decomposer
from povm_forge import povm as povm_module
from povm_forge.decomposer import _factor, _normalized_terms, _random_states
from povm_forge.extremality import rank1_failures
from povm_forge.linalg import (
    effect_ranks, hermitian_coords, hermitian_split, independence_cutoff, rank1_interval,
)
from povm_forge.povm import _checked, _spectral_terms


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
        for q in (sigma_z_pvm(), sigma_x_pvm()):
            orders = (q, Povm(q.effects[::-1]))
            assert any(equivalent(leaf, r) for leaf in leaves for r in orders)
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

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("rank", [None, 1])
    def test_normalized_terms_sum_to_identity(self, d, rank):
        p = random_povm(d, d + 2, seed=d, rank=rank)
        ranks, plain = effect_ranks(np.linalg.eigvalsh(p.effects), DEFAULT_TOL)
        terms, targets = _normalized_terms(p.effects, ranks, plain, DEFAULT_TOL)
        np.testing.assert_allclose(terms.sum(axis=0), np.eye(d), rtol=0, atol=1e-12)
        merged = relabel(Povm(terms), RelabelMap(len(terms), p.n_outcomes, targets))
        assert np.abs(merged.effects - p.effects).max() <= DEFAULT_TOL.recon_tol

    def test_reconstruction_built_once(self, dependent4):
        cert = decompose(dependent4)
        assert cert.reconstruction() is cert.reconstruction()
        assert not cert.reconstruction().flags.writeable

    def test_verifier_judges_the_term_stack_once(self, monkeypatch, dependent4):
        cert = decompose(dependent4)
        boxed, judged = [], []

        def recording_box(effects):
            boxed.append(effects)
            return rank1_interval(effects)

        def recording(effects, sizes, tol):
            judged.append(effects)
            return rank1_failures(effects, sizes, tol)

        monkeypatch.setattr(decomposer, "rank1_interval", recording_box)
        monkeypatch.setattr(decomposer, "rank1_failures", recording)
        assert verify_certificate(cert).passed
        assert len(boxed) == 1 and boxed[0] is cert._terms
        assert judged == []  # every component passed the per-term checks

    @pytest.mark.parametrize("d, n, seed", [(2, 5, 1), (3, 10, 2), (4, 16, 3), (8, 16, 1)])
    def test_verifier_takes_no_averaging_copy(self, monkeypatch, d, n, seed):
        # the term stack is exactly Hermitian, so hermitian_split hands it back uncopied, and
        # a certificate that passes never reaches the validator's split
        cert = decompose(random_povm(d, n, seed))
        assert hermitian_split(cert._terms)[0] is cert._terms
        split = []

        def recording(a):
            split.append(a)
            return hermitian_split(a)

        monkeypatch.setattr(povm_module, "hermitian_split", recording)
        assert verify_certificate(cert).passed
        assert split == []

    def test_wide_certificate_holds_its_terms_once(self):
        p = random_povm(8, 16, seed=1)
        cert = decompose(p)
        assert cert._terms.shape == (128, 8, 8) and not cert._terms.flags.writeable
        assert cert._sizes.sum() == 4104 and len(cert._sizes) == 65
        assert verify_certificate(cert).passed
        assert statistics_equivalence(cert, trials=3, seed=0).passed
        assert "components" not in vars(cert)  # built on first read only
        comps = cert.components
        assert comps is cert.components and len(comps) == 65
        for i, comp in enumerate(comps[:3]):
            part = slice(cert._starts[i], cert._starts[i] + cert._sizes[i])
            support, coefficients = cert._supports[part], cert._coefficients[part]
            assert not comp.extremal.effects.flags.writeable
            want = cert._terms[support] * coefficients[:, None, None]
            assert comp.extremal.effects.tobytes() == want.tobytes()
            assert np.array_equal(comp.relabel.targets, cert._sources[support])
            assert comp.weight == cert._weights[i]

    def test_loaded_certificate_holds_each_stored_effect_as_a_term(self, dependent4):
        cert = decompose(dependent4)
        back = DecompositionCertificate.from_jsonable(json.loads(json.dumps(cert.to_jsonable())))
        stored = np.concatenate([c.extremal.effects for c in back.components])
        assert np.array_equal(back._terms, stored)
        assert np.array_equal(back._supports, np.arange(len(stored)))
        assert np.all(back._coefficients == 1.0)
        assert np.array_equal(back._sources, np.concatenate([c.relabel.targets for c in back.components]))
        assert [c.extremal.effects.shape for c in back.components] == [
            c.extremal.effects.shape for c in cert.components
        ]
        assert verify_certificate(back).passed


class TestFactor:
    """The square path of ``_factor`` against the full SVD it stands in for."""

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("m, seed", [(4, 0), (9, 1), (16, 2), (64, 3)])
    def test_square_sets_agree_with_the_full_svd(self, m, seed, k):
        # one singular value scaled to a margin of k * indep_tol: below the cutoff
        # 2 * indep_tol (dependent), at it, and above it (the square path)
        rng = np.random.default_rng(seed)
        u, s, vh = np.linalg.svd(rng.standard_normal((m, m)))
        s /= s[0]
        s[-1] = k * DEFAULT_TOL.indep_tol
        columns = (u * s) @ vh
        u, s, vh = np.linalg.svd(columns)
        rank = int(np.count_nonzero(s > independence_cutoff(DEFAULT_TOL) * s[0]))
        null, solve = _factor(columns, DEFAULT_TOL)
        assert null.shape == (m, m - rank)
        if rank < m:
            np.testing.assert_array_equal(null, vh[rank:].T)
        # a right-hand side the columns reach with positive coefficients, as the peel's I is
        rhs = columns @ rng.random(m)
        want = vh[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
        # the coefficients differ by up to cond * eps (2.5e8 * 1.1e-16 at k = 4) between
        # the two solvers; the sums they make agree
        assert np.linalg.norm(columns @ (solve(rhs) - want)) <= 1e-12 * np.linalg.norm(rhs)


def _split_effect(cert: DecompositionCertificate) -> DecompositionCertificate:
    """``cert`` with component 0's first effect split into two equal halves on its outcome.

    The component stays a rank-1 POVM and the reconstruction is unchanged, but
    its effects are now linearly dependent.
    """
    first, rest = cert.components[0], cert.components[1:]
    effects, targets = first.extremal.effects, first.relabel.targets
    halves = np.concatenate([effects[:1] / 2, effects[:1] / 2, effects[1:]])
    relabel = RelabelMap(len(halves), cert.target.n_outcomes, np.insert(targets, 0, targets[0]))
    return DecompositionCertificate(
        cert.target, (CertificateComponent(first.weight, Povm(halves), relabel), *rest)
    )


class TestSvdCalls:
    """Vertices and certificate groups the Cholesky bound settles take no SVD."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls, svd = [], np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_rank1_input_takes_only_the_null_basis_svd(self, svd_calls, seed):
        cert = decompose(random_povm(8, 67, seed, rank=1))
        assert svd_calls == [(64, 67)]  # the initial null basis: every vertex of 64 is settled
        svd_calls.clear()
        assert verify_certificate(cert).passed
        assert svd_calls == []
        # 65 > d^2 effects are dependent without an SVD
        report = verify_certificate(_split_effect(cert))
        assert report.component_extremal == (False,) + (True,) * (len(cert.components) - 1)
        assert "65 nonzero effects are linearly dependent" in report.failures[0]
        assert svd_calls == []

    def test_dependent_component_takes_the_svd(self, svd_calls):
        cert = decompose(random_povm(8, 9, 1, rank=1))
        assert [c.extremal.n_outcomes for c in cert.components] == [9]
        svd_calls.clear()
        assert verify_certificate(cert).passed
        assert svd_calls == []
        report = verify_certificate(_split_effect(cert))
        assert report.component_extremal == (False,)
        assert "10 nonzero effects are linearly dependent" in report.failures[0]
        assert svd_calls == [(1, 10, 64)]


def _peel_bound(p: Povm) -> int:
    """N - rank + 1, with rank the real rank of the N rank-1 spectral terms.

    The rank is counted by the peel's rule (``_factor``): singular values of
    the unit-normalized terms above independence_cutoff times the largest.
    Machine-epsilon rank counts a rounding-level direction of equal terms.
    """
    root, _ = spectral_relabel(prune_zero_effects(p)[0])
    coords = hermitian_coords(root.effects)
    s = np.linalg.svd(coords / np.linalg.norm(coords, axis=1, keepdims=True), compute_uv=False)
    rank = np.count_nonzero(s > independence_cutoff(DEFAULT_TOL) * s[0])
    return root.n_outcomes - int(rank) + 1


# (d, n, rank) with at most 12 rank-1 spectral terms n * rank
SMALL = st.sampled_from(
    [(d, n, r) for d in (1, 2, 3) for r in range(1, d + 1) for n in range(1, 13)
     if d <= n * r <= 12]
)

# (d, n, rank, seed): eight hand-picked inputs, then a sweep of 120 full-rank
# and 120 rank-1 ones
OFF_IDENTITY = (
    [(2, 2, None, 0), (2, 3, None, 0), (3, 2, None, 1), (4, 5, None, 2),
     (2, 4, 1, 0), (2, 4, 1, 1), (3, 9, 1, 0), (3, 9, 1, 2)]
    + [(2 + i % 3, 2 + i % 5, None, 1000 + i) for i in range(120)]
    + [(2 + i % 3, (2 + i % 3) ** 2 + 1 + i % 4, 1, 2000 + i) for i in range(120)]
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
    @example(d=2, n=2, rank1=False, seed=1814399)  # E_2 = I - E_1: two pairs of equal terms
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

    @pytest.mark.parametrize("d, n, rank, seed", OFF_IDENTITY)
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
        except NonConvergenceError as exc:
            assert "misses its input" in str(exc)  # the only failure: the rebuild check
            return
        assert verify_certificate(cert).passed

    def test_effects_off_hermitian_within_tolerance(self):
        # each effect 0.9 herm_tol off Hermitian, so their sum is 5.4 herm_tol off
        effects = np.array(random_povm(2, 6, 3).effects)
        effects[:, 0, 1] += 0.9e-10
        cert = decompose(Povm(effects))
        assert verify_certificate(cert).passed

    @pytest.mark.parametrize(
        "n, seed", [(7, 2045507), (6, 59), (7, 414), (8, 606475835), (6, 3405489241)]
    )
    def test_last_step_takes_its_vertex_whole(self, n, seed):
        # the walk on these d=4 inputs used to need one step past the bound
        p = random_povm(4, n, seed)
        cert = decompose(p)
        assert verify_certificate(cert).passed
        assert len(cert.components) <= _peel_bound(p)

    def test_baseline_sizes_meet_the_bound(self):
        for d, n in ((2, 8), (3, 8)):
            p = random_povm(d, n, seed=0)
            cert = decompose(p)
            assert verify_certificate(cert).passed
            assert len(cert.components) <= _peel_bound(p) == n * d - d * d + 1


class TestWalk:
    @pytest.mark.parametrize("d, n, calls", [(3, 8, 17), (4, 10, 26)])
    def test_rows_at_rounding_level_keep_their_null_directions(self, monkeypatch, d, n, calls):
        # reflecting on every dropped row with a norm above 0 made 18 and 28 calls:
        # a row left at ~1e-16 by an earlier reflection removed a valid null direction,
        # and the walk refactored to find it again
        count = [0]

        def counted(columns, tol):
            count[0] += 1
            return _factor(columns, tol)

        monkeypatch.setattr(decomposer, "_factor", counted)
        cert = decompose(random_povm(d, n, 1))
        assert count[0] == calls
        assert verify_certificate(cert).passed


class TestOneEigenvaluePass:
    def test_rank1_input_takes_no_eigvalsh_and_no_eigh(self, monkeypatch):
        p = random_povm(5, 26, seed=3, rank=1)
        calls = record_eigensolvers(monkeypatch)
        cert = decompose(p)
        # the rank-1 bound settles every effect; the one call: S^{-1/2} of the 5 x 5 sum
        assert [(name, a.shape) for name, a in calls] == [("eigh", (5, 5))]
        assert verify_certificate(cert).passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_rank_input_takes_eigh_only_on_rank_two_and_up(self, monkeypatch, seed):
        # rotated: 24 rank-1 effects on a qubit block beside a rank-2 projection, two zero
        # effects; 27 effects of 4 x 4, enough for the rank-1 bound
        effects = np.zeros((27, 4, 4), dtype=complex)
        effects[:24, :2, :2] = random_povm(2, 24, seed, rank=1).effects
        effects[24, 2, 2] = effects[24, 3, 3] = 1.0
        u = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 8)).view(complex))[0]
        p = Povm(np.random.default_rng(seed).permutation(u @ effects @ u.conj().T))
        norms = np.linalg.norm(p.effects, axis=(1, 2))
        rank2 = np.flatnonzero(norms > 1.0)
        calls = record_eigensolvers(monkeypatch)
        cert = decompose(p)
        stacks = [(name, a) for name, a in calls if a.ndim == 3]
        # the bound settles the rank-1 effects: eigvalsh takes the rank-2 one and the zeros
        assert [(name, a.shape) for name, a in stacks] == [
            ("eigvalsh", (3, 4, 4)),
            ("eigh", (1, 4, 4)),
        ]
        assert np.array_equal(stacks[0][1], p.effects[(norms == 0) | (norms > 1.0)])
        np.testing.assert_allclose(stacks[1][1][0], p.effects[rank2[0]], rtol=0, atol=1e-15)
        assert verify_certificate(cert).passed

    @pytest.mark.parametrize("d", range(2, 9))
    def test_rank1_terms_match_eig_herm(self, d):
        p = random_povm(d, d * d, seed=d, rank=1)
        ranks = effect_ranks(np.linalg.eigvalsh(p.effects), DEFAULT_TOL)
        sources, psi = _spectral_terms(p.effects, *ranks, DEFAULT_TOL)
        assert np.array_equal(sources, np.arange(d * d))
        dec = eig_herm(p.effects)
        v = dec.eigenvectors[:, :, 0]
        want = dec.eigenvalues[:, 0, None, None] * (v[:, :, None] * v.conj()[:, None, :])
        assert np.abs(psi[:, :, None] * psi.conj()[:, None, :] - want).max() <= 1e-12

    def test_rank1_effect_with_a_second_eigenvalue_below_the_cutoff(self):
        # effect 0 gains 0.5 * rank cutoff along a direction orthogonal to its own;
        # it stays rank 1, and the effects sum to I within recon_tol
        p = random_povm(3, 10, seed=4, rank=1)
        effects = np.array(p.effects)
        dec = eig_herm(effects[0])
        u = dec.eigenvectors[:, 1]
        effects[0] += 0.5 * DEFAULT_TOL.rank_tol * np.outer(u, u.conj())
        p = Povm(effects)
        w = np.linalg.eigvalsh(p.effects)
        sources, psi = _spectral_terms(p.effects, *effect_ranks(w, DEFAULT_TOL), DEFAULT_TOL)
        assert np.array_equal(sources, np.arange(10))
        term = np.outer(psi[0], psi[0].conj())
        assert np.linalg.norm(term - p.effects[0]) <= DEFAULT_TOL.recon_tol
        assert verify_certificate(decompose(p)).passed

    @pytest.mark.parametrize("defect", ["not_psd", "not_normalized", "not_hermitian", "nan"])
    def test_invalid_input_raises_what_validate_raises(self, defect):
        effects = np.array(random_povm(3, 4, seed=2).effects)
        if defect == "not_psd":
            effects[1] -= 0.5 * np.eye(3)
        elif defect == "not_normalized":
            effects[2] *= 1.01
        elif defect == "not_hermitian":
            effects[0, 0, 2] += 1e-6
        else:
            effects[3, 2, 0] = np.nan
        p = Povm(effects)
        with pytest.raises(PovmForgeError) as want:
            validate(p)
        with pytest.raises(type(want.value)) as got:
            decompose(p)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "outcome", None) == getattr(want.value, "outcome", None)


def _shifted(d, n, seed, eps):
    """``random_povm(d, n, seed, rank=1)`` with eps * H / |H|_F added to effect 0, H = G G^*."""
    p = random_povm(d, n, seed, rank=1)
    g = np.random.default_rng(seed).standard_normal((d, 2 * d)).view(np.complex128)
    h = g @ g.conj().T
    effects = np.array(p.effects)
    effects[0] += eps * h / np.linalg.norm(h)
    return Povm(effects)


class TestRefitVertexCheck:
    @pytest.mark.parametrize("d, n, seed, eps", [(4, 17, 300280, 5e-9), (5, 26, 300125, 8e-9)])
    def test_off_the_identity_raises_or_verifies(self, d, n, seed, eps):
        # the shift of test_input_off_the_identity_verifies_or_raises; without the refit check
        # these give a component of weight ~1e-7 that sums to I only within 6e-2 and 6e-4
        p = random_povm(d, n, seed, rank=1)
        g = np.random.default_rng(seed).standard_normal((d, 2 * d)).view(np.complex128)
        h = g @ g.conj().T
        effects = np.array(p.effects)
        effects[0] += eps * h / np.linalg.norm(h)
        try:
            cert = decompose(Povm(effects))
        except NonConvergenceError as exc:
            assert "misses its input" in str(exc)
            return
        assert verify_certificate(cert).passed

    @pytest.mark.parametrize(
        "d, n, seed, eps",
        [
            (4, 18, 200508, 5e-9),
            (5, 29, 200662, 3e-9),
            (5, 26, 300020, 3e-9),
            (5, 28, 300152, 3e-9),
            (5, 26, 300095, 8e-9),
        ],
    )
    def test_inputs_that_missed_now_verify(self, d, n, seed, eps):
        # the first two raised NonConvergenceError when the effects were normalized before the
        # expansion: a refit vertex 0.41 off I, and a mixture 2.4e-7 off the input; the last three
        # when the debris floor was applied after the congruence
        cert = decompose(_shifted(d, n, seed, eps))
        assert verify_certificate(cert).passed


def assert_joint_povm(cert):
    """The weights, repeated over the component effects, make a joint POVM (M's column sums)."""
    effects = np.concatenate([comp.extremal.effects for comp in cert.components])
    sizes = [comp.extremal.n_outcomes for comp in cert.components]
    weights = np.repeat([comp.weight for comp in cert.components], sizes)
    assert weights.shape == (len(effects),)
    validate(Povm(weights[:, None, None] * effects))


class TestJointRelabeling:
    """The reconstruction and mixed statistics against the per-component loops of ``per_effect``."""

    @given(SMALL, st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_per_component_loops(self, shape, tree, seed):
        d, n, rank = shape
        p = random_povm(d, n, seed, rank=rank)
        cert = split_tree(p) if tree else decompose(p)
        recon = cert.reconstruction() - per_effect.reconstruction(cert)
        assert np.abs(recon).max() <= 1e-14
        deviations = statistics_equivalence(cert, trials=5, seed=seed).deviations
        assert np.abs(deviations - per_effect.statistics_deviations(cert, 5, seed)).max() <= 1e-14
        if not tree:
            assert_joint_povm(cert)

    def test_joint_built_once(self, monkeypatch, dependent4):
        # the statistics of a fresh certificate build its reconstruction; verify reads it again
        cert = decompose(dependent4)
        fresh = DecompositionCertificate(cert.target, cert.components)
        mixed = []

        def recording(effects, rho):
            mixed.append(effects)
            return probabilities(effects, rho)

        probabilities = decomposer._probabilities
        monkeypatch.setattr(decomposer, "_probabilities", recording)
        assert statistics_equivalence(fresh, trials=3, seed=0).passed
        recon = fresh.reconstruction()
        assert not recon.flags.writeable
        assert mixed[0] is recon and mixed[1] is fresh.target.effects  # the mixture, then the target
        assert verify_certificate(fresh).passed
        assert fresh.reconstruction() is recon

    def test_deep_certificate_statistics(self):
        cert = decompose(random_povm(8, 16, seed=1))
        deviations = statistics_equivalence(cert, trials=100, seed=7).deviations
        assert np.abs(deviations - per_effect.statistics_deviations(cert, 100, 7)).max() <= 1e-15
        assert_joint_povm(cert)


class TestCertificateFitsTarget:
    def test_no_components(self, qubit3):
        with pytest.raises(EmptyInputError):
            DecompositionCertificate(qubit3, ())

    def test_component_of_another_dimension(self):
        comp = CertificateComponent(1.0, onb_pvm(3), RelabelMap(3, 2, [0, 1, 1]))
        with pytest.raises(DimensionMismatchError):
            DecompositionCertificate(onb_pvm(2), (comp,))

    def test_map_onto_another_outcome_count(self, qubit3):
        comp = CertificateComponent(1.0, qubit3, RelabelMap.identity(3))
        with pytest.raises(MapSizeMismatchError):
            DecompositionCertificate(onb_pvm(2), (comp,))

    def test_map_from_another_outcome_count(self, qubit3):
        comp = CertificateComponent(1.0, qubit3, RelabelMap(2, 3, [0, 1]))
        with pytest.raises(MapSizeMismatchError):
            DecompositionCertificate(qubit3, (comp,))

    def test_file_with_a_relabel_of_another_length(self, qubit3):
        doc = decompose(qubit3).to_jsonable()
        doc["components"][0]["relabel"] = [1, 2]
        with pytest.raises(MapSizeMismatchError, match="map source size 2 != outcome count 3"):
            DecompositionCertificate.from_jsonable(doc)

    def test_file_with_a_component_of_another_dimension(self):
        doc = decompose(onb_pvm(2)).to_jsonable()
        doc["components"][0].update(extremal=onb_pvm(3).to_jsonable(), relabel=[1, 2, 2])
        with pytest.raises(DimensionMismatchError):
            DecompositionCertificate.from_jsonable(doc)


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

    def test_one_spectral_pass_feeds_verdict_and_expansion(self, monkeypatch, type_d):
        calls = record_eigensolvers(monkeypatch)
        extremal_to_rank1(type_d)
        # the validator's spectral pass, pair_independence's and the expansion's eigenvectors
        # of the rank-2 effects, then is_extremal_rank1 on the six-outcome output
        assert [(name, a.shape) for name, a in calls] == [
            ("eigvalsh", (3, 4, 4)),
            ("eigh", (3, 4, 4)),
            ("eigh", (3, 4, 4)),
            ("eigvalsh", (6, 4, 4)),
        ]

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


def _spoiled(comps) -> list[Povm]:
    """The components' POVMs, every sixth kept and the others spoiled in turn.

    Scaled off I, an effect of rank 2, two equal effects, a NaN entry, a skew effect.
    """
    spoiled = []
    for i, comp in enumerate(comps):
        effects = np.array(comp.extremal.effects)
        if i % 6 == 1:
            effects *= 1.5
        elif i % 6 == 2:
            effects[0] += effects[1]
        elif i % 6 == 3:
            effects = np.concatenate([effects[:1] / 2, effects[:1] / 2, effects[1:]])
        elif i % 6 == 4:
            effects[0, 0, 0] = np.nan
        elif i % 6 == 5:
            effects[0, 0, -1] += 1e-3
        spoiled.append(Povm(effects))
    return spoiled


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

    def test_components_that_are_not_povms(self):
        # the same mixture from two components that do not sum to I
        cert = decompose(random_povm(2, 3, seed=1))
        comps = list(cert.components)
        (w0, e0, f0), (w1, e1, f1) = [(c.weight, c.extremal, c.relabel) for c in comps[:2]]
        comps[0] = CertificateComponent(w0 / 2, Povm(2 * e0.effects), f0)
        comps[1] = CertificateComponent(w1 + w0 / 2, Povm(e1.effects * w1 / (w1 + w0 / 2)), f1)
        report = verify_certificate(DecompositionCertificate(cert.target, tuple(comps)))
        assert report.effect_residuals.max() <= 1e-14
        assert not report.passed
        assert report.component_extremal[:2] == (False, False)
        assert all(report.component_extremal[2:])
        assert [line.split(" is ")[0] for line in report.failures] == ["component 0", "component 1"]
        assert all("extremal rank-1 POVM" in line for line in report.failures)

    def test_component_of_rank_2_off_the_identity_fails_with_its_first_violation(self):
        # {I, I}: rank 2 and summing to 2I; the validator's finding comes before the rank
        component = Povm(np.stack([EYE2, EYE2]).astype(complex))
        first = violations(component)[0]
        assert isinstance(first, NotNormalizedError)
        only = CertificateComponent(1.0, component, RelabelMap.identity(2))
        cert = DecompositionCertificate(Povm(np.stack([EYE2, EYE2]) / 2), (only,))
        report = verify_certificate(cert)
        assert report.component_extremal == (False,)
        assert report.failures[0] == f"component 0 is not an extremal rank-1 POVM: {first}"

    def test_strided_stacks_get_the_verdicts_of_their_contiguous_copies(self):
        # extremal, scaled off I, rank 2, dependent: on a view whose last axis is strided
        half = np.diag([0.5, 0.0, 0.0]).astype(complex)
        povms = [
            onb_pvm(3),
            Povm(0.5 * onb_pvm(3).effects),
            Povm(np.stack([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])),
            Povm(np.concatenate([[half, half], onb_pvm(3).effects[1:]])),
        ]
        sizes = [p.n_outcomes for p in povms]
        stack = np.concatenate([p.effects for p in povms])
        big = np.zeros((len(stack), 3, 6), dtype=complex)
        big[:, :, ::2] = stack
        strided = big[:, :, ::2]
        assert not strided.flags.c_contiguous and np.array_equal(strided, stack)

        def described(failures):
            return [None if f is None else (type(f), str(f)) for f in failures]

        got = described(rank1_failures(strided, sizes))
        assert got == described(rank1_failures(stack, sizes))
        assert [None if g is None else g[0] for g in got] == [
            None, NotNormalizedError, NotRank1Error, NotExtremalRank1Error
        ]
        maps = [RelabelMap(n, 1, np.zeros(n, dtype=int)) for n in sizes]
        parts = np.split(strided, np.cumsum(sizes)[:-1])
        cert = DecompositionCertificate(
            Povm(np.eye(3)[None]),
            tuple(CertificateComponent(0.25, Povm(e), f) for e, f in zip(parts, maps)),
        )
        lines = [
            f"component {i} is not an extremal rank-1 POVM: {g[1]}"
            for i, g in enumerate(got)
            if g is not None
        ]
        assert verify_certificate(cert).failures[: len(lines)] == tuple(lines)

    @pytest.mark.parametrize("d, n", [(8, 16), (3, 60), (2, 100)])
    def test_batched_verdicts_match_one_segment_calls(self, d, n):
        comps = decompose(random_povm(d, n, seed=1)).components
        spoiled = _spoiled(comps)
        for povms in ([c.extremal for c in comps], spoiled):
            batched = rank1_failures(
                np.concatenate([p.effects for p in povms]), [p.n_outcomes for p in povms]
            )
            for p, failure in zip(povms, batched):
                try:
                    one = is_extremal_rank1(p)
                except PovmForgeError as exc:
                    assert (type(failure), str(failure)) == (type(exc), str(exc))
                else:  # False for a dependence only
                    assert one == (failure is None)
                    assert one or isinstance(failure, NotExtremalRank1Error)
                found = violations(p)
                if found:  # the first finding, as validate raises it
                    assert (type(failure), str(failure)) == (type(found[0]), str(found[0]))
        assert all(failure is None for failure in rank1_failures(
            np.concatenate([c.extremal.effects for c in comps]),
            [c.extremal.n_outcomes for c in comps],
        ))

    @pytest.mark.parametrize("d, n", [(8, 16), (3, 60), (2, 100)])
    def test_ragged_validator_matches_violations_of_each_povm(self, d, n):
        # the clean and spoiled stacks of test_batched_verdicts_match_one_segment_calls
        comps = decompose(random_povm(d, n, seed=1)).components
        spoiled = _spoiled(comps)
        for povms in ([c.extremal for c in comps], spoiled):
            found, _, _ = _checked(
                np.concatenate([p.effects for p in povms]), [p.n_outcomes for p in povms]
            )
            assert len(found) == len(povms)
            for p, got in zip(povms, found):
                want = violations(p)
                assert [(type(e), str(e), getattr(e, "outcome", None)) for e in got] == [
                    (type(e), str(e), getattr(e, "outcome", None)) for e in want
                ]
        assert any(found)  # the spoiled stack, judged last, has violations

    def test_spoiled_components_take_no_second_eigenvalue_pass(self, monkeypatch):
        cert = decompose(random_povm(3, 8, seed=1))
        comps = list(cert.components)
        for i in (0, 1):
            weight, extremal, f = comps[i].weight, comps[i].extremal, comps[i].relabel
            comps[i] = CertificateComponent(weight, Povm(1.5 * extremal.effects), f)
        spoiled = DecompositionCertificate(cert.target, tuple(comps))
        calls = record_eigensolvers(monkeypatch)
        report = verify_certificate(spoiled)
        assert [name for name, _ in calls] == ["eigvalsh"]
        assert report.component_extremal[:2] == (False, False)
        assert all(report.component_extremal[2:])

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
            lambda doc: _set_off_diagonal(doc["components"][0]["extremal"], np.inf),
            lambda doc: _set_off_diagonal(doc["target"], np.inf),
        ],
        ids=[
            "nan_weight", "nan_weights", "nan_target", "nan_component", "skew_component",
            "zero_component", "tiny_component", "inf_component", "inf_target",
        ],
    )
    @pytest.mark.filterwarnings("error")  # a NaN gives failure lines, not a warning
    def test_spoiled_certificate_fails_without_raising(self, spoil):
        doc = decompose(random_povm(2, 3, seed=1)).to_jsonable()
        assert len(doc["components"]) > 1
        spoil(doc)
        report = verify_certificate(DecompositionCertificate.from_jsonable(doc))
        assert not report.passed
        assert report.failures


def _variants(cert: DecompositionCertificate) -> dict:
    """``cert`` built, spoiled, merged, with a NaN entry, and through JSON; also split and skewed.

    Component 0 scaled by 1.5; its first two effects summed into one; a NaN at
    its effect 0's (0, 0) entry; its effect 0 split into two equal halves (a
    dependent POVM); its effect 0's corner entry moved 1e-3 off Hermitian.
    """
    first, rest = cert.components[0], cert.components[1:]
    effects, f = first.extremal.effects, first.relabel
    merged = np.concatenate([effects[:1] + effects[1:2], effects[2:]])
    poisoned, skewed = np.array(effects), np.array(effects)
    poisoned[0, 0, 0] = np.nan
    skewed[0, 0, -1] += 1e-3
    swaps = {
        "spoiled": (1.5 * effects, f),
        "merged": (merged, RelabelMap(f.source_size - 1, f.target_size, np.delete(f.targets, 1))),
        "nan": (poisoned, f),
        "skewed": (skewed, f),
    }
    out = {"built": cert}
    for name, (stack, g) in swaps.items():
        out[name] = DecompositionCertificate(
            cert.target, (CertificateComponent(first.weight, Povm(stack), g), *rest)
        )
    out["json"] = DecompositionCertificate.from_jsonable(json.loads(json.dumps(cert.to_jsonable())))
    out["split"] = _split_effect(cert)
    return out


class TestAgainstThePerComponentVerifier:
    """The stack-wise verifier against ``per_component``'s verifier, which judges every component whole."""

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize(
        "d, n, rank", [(2, 3, None), (2, 5, None), (3, 6, None), (4, 17, 1), (8, 16, None), (2, 40, None)]
    )
    @pytest.mark.filterwarnings("error")
    def test_same_verdicts_failures_and_residuals(self, d, n, rank, scale):
        tol = DEFAULT_TOL.scaled(scale)
        cert = decompose(random_povm(d, n, seed=d * n, rank=rank), tol)
        for name, variant in _variants(cert).items():
            got = verify_certificate(variant, tol)
            want = per_component.verify_certificate(variant, tol)
            assert got.passed == want.passed == (name in ("built", "json")), name
            assert got.component_extremal == want.component_extremal, name
            assert got.failures == want.failures, name
            assert got.weight_sum_residual == want.weight_sum_residual, name
            np.testing.assert_allclose(
                got.effect_residuals, want.effect_residuals, rtol=0, atol=1e-15, equal_nan=True
            )

    def test_tolerances_the_rank1_box_does_not_order(self):
        # psd_tol far above herm_tol: a box wide enough to hold a term 3 herm_tol off Hermitian;
        # zero_effect_tol above every effect norm (1/2) of the tetrahedral qubit POVM
        tetrahedron = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        effects = np.array([(np.eye(2) + r[0] * SX + r[1] * SY + r[2] * SZ) / 4 for r in tetrahedron])
        skewed = np.array(effects)
        skewed[0, 0, 1] += 3e-10
        cases = [
            (dataclasses.replace(DEFAULT_TOL, psd_tol=1e-7), skewed),
            (dataclasses.replace(DEFAULT_TOL, zero_effect_tol=0.6), effects),
        ]
        for tol, stack in cases:
            target = Povm(effects)
            cert = DecompositionCertificate(
                target, (CertificateComponent(1.0, Povm(stack), RelabelMap.identity(4)),)
            )
            got = verify_certificate(cert, tol)
            want = per_component.verify_certificate(cert, tol)
            assert (got.passed, got.component_extremal) == (want.passed, want.component_extremal)
            assert got.failures == want.failures and len(got.failures) == 1


def _set_off_diagonal(povm_doc, value):
    """Set the (0, 1) and (1, 0) entries of a POVM document's first effect to ``value``."""
    re = povm_doc["effects"][0]["re"]
    re[0][1] = re[1][0] = value


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
        with pytest.raises(DimensionMismatchError):
            outcome_probabilities(qubit3, np.stack([np.eye(3) / 3] * 4))

    def test_stack_of_states(self):
        rng = np.random.default_rng(6)
        p = random_povm(3, 4, seed=2)
        states = np.array([random_density_matrix(3, rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        q = outcome_probabilities(p, states)
        assert q.shape == (2, 3, 4)
        for idx in np.ndindex(2, 3):
            assert np.allclose(q[idx], outcome_probabilities(p, states[idx]), rtol=0.0, atol=1e-15)

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

    @pytest.mark.parametrize("trials", [0, 1, 20, 1000])
    def test_one_draw_equals_the_loop(self, trials):
        """The batched draw of ``statistics_equivalence`` gives the loop's states bit for bit."""
        for d in (1, 2, 3, 4, 5, 8, 16, 20, 32):
            rng = np.random.default_rng([trials, d])
            loop = [random_density_matrix(d, rng) for _ in range(trials)]
            batch = _random_states(trials, d, np.random.default_rng([trials, d]))
            assert batch.shape == (trials, d, d)
            assert np.array_equal(batch, np.array(loop).reshape(trials, d, d))


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

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("part", ["component", "target"])
    @pytest.mark.filterwarnings("error")  # a non-finite entry fails the report, with no warning
    def test_non_finite_certificate_fails(self, value, part):
        doc = decompose(random_povm(2, 3, seed=1)).to_jsonable()
        _set_off_diagonal(doc["components"][0]["extremal"] if part == "component" else doc["target"], value)
        report = statistics_equivalence(DecompositionCertificate.from_jsonable(doc), trials=5, seed=0)
        assert not report.passed
        assert np.isnan(report.max_deviation)

    def test_negative_trials_rejected(self, qubit3):
        with pytest.raises(OutOfRangeError):
            statistics_equivalence(decompose(qubit3), trials=-1, seed=0)

    def test_negative_seed_rejected(self, qubit3):
        with pytest.raises(OutOfRangeError, match="seed must be >= 0, got -1"):
            statistics_equivalence(decompose(qubit3), trials=3, seed=-1)

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

    def test_fractional_relabel_entries_rejected(self, qubit3):
        doc = decompose(qubit3).to_jsonable()
        doc["components"][0]["relabel"] = [1.7, 2.7, 3.7]
        with pytest.raises(ValueError, match="integers"):
            DecompositionCertificate.from_jsonable(doc)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            DecompositionCertificate.from_jsonable({"target": {"dim": 2, "effects": []}})

    @pytest.mark.parametrize("weight", ["1.0", True, None, [1.0]])
    def test_weight_must_be_a_number(self, weight):
        doc = decompose(onb_pvm(2)).to_jsonable()
        doc["components"][0]["weight"] = weight
        with pytest.raises(ValueError, match="weight must be a number"):
            DecompositionCertificate.from_jsonable(doc)

    def test_integer_weight_accepted(self):
        doc = decompose(onb_pvm(2)).to_jsonable()
        doc["components"][0]["weight"] = 1
        assert DecompositionCertificate.from_jsonable(doc).components[0].weight == 1.0
