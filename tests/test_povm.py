import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EYE2, qubit3_with_rank0_outcome, sigma_x_pvm, sigma_z_pvm
from povm_forge import (
    DEFAULT_TOL,
    NOT_EXTREMAL,
    Povm,
    RelabelMap,
    classify,
    decompose,
    equivalent,
    extremal_to_rank1,
    extremality_report,
    is_extremal,
    is_extremal_rank1,
    mix,
    onb_pvm,
    prune_zero_effects,
    random_povm,
    relabel,
    spectral_relabel,
    validate,
    verify_certificate,
    violations,
)
from povm_forge.errors import (
    BadWeightError,
    DimensionMismatchError,
    MapSizeMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
)


def small_random_povm(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(2, 6))
    return random_povm(d, n, seed)


class TestConstruction:
    @pytest.mark.parametrize("kind", ["complex128", "float64", "list"])
    def test_povm_keeps_a_read_only_copy_of_its_input(self, kind):
        source = np.stack([EYE2 / 2, EYE2 / 2]).real
        given = source.tolist() if kind == "list" else source.astype(kind)
        p = Povm(given)
        given[0][0][0] = 9.0
        assert np.array_equal(p.effects, source)
        assert not p.effects.flags.writeable

    @pytest.mark.parametrize("kind", ["int64", "int32", "list"])
    def test_relabel_map_keeps_a_read_only_copy_of_its_input(self, kind):
        source = np.array([0, 1, 1])
        given = source.tolist() if kind == "list" else source.astype(kind)
        f = RelabelMap(3, 2, given)
        given[0] = 1
        assert np.array_equal(f.targets, source)
        assert not f.targets.flags.writeable


class TestValidate:
    def test_uniform_pair(self):
        p = Povm(np.stack([EYE2 / 2, EYE2 / 2]))
        assert validate(p) is p

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError) as info:
            validate(Povm(np.stack([EYE2, EYE2])))
        assert info.value.residual == pytest.approx(np.sqrt(2.0))

    def test_reference_qubit_povm(self, qubit3):
        validate(qubit3)

    def test_not_hermitian(self):
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[0, 0, 1] = 1.0
        bad[1] = EYE2
        with pytest.raises(NotHermitianError):
            validate(Povm(bad))

    def test_near_hermitian_effects_are_judged_by_their_hermitian_part(self):
        # each effect 9e-11 off Hermitian, inside herm_tol; its lower triangle alone has the
        # eigenvalue -1.4e-10 < -psd_tol, its Hermitian part -9.5e-11
        e0 = np.array([[0.25, 0.25 + 5e-11], [0.25 + 1.4e-10, 0.25]], dtype=complex)
        p = Povm(np.stack([e0, EYE2 - e0]))
        adjoint = Povm(p.effects.conj().swapaxes(1, 2))
        assert violations(p) == violations(adjoint) == []
        report = verify_certificate(decompose(p))
        assert report.passed, report.failures

    @pytest.mark.parametrize("entry", [1j * np.nan, np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, entry):
        effects = np.stack([EYE2 / 2, EYE2 / 2])
        effects[1, 0, 1] = effects[1, 0, 1].real + entry
        with pytest.raises(NonFiniteError) as info:
            validate(Povm(effects))
        assert info.value.outcome == 1

    @pytest.mark.parametrize("d, n", [(2, 3), (4, 30)])  # one eigvalsh; the rank-1 bound first
    @pytest.mark.filterwarnings("error")  # an entry near overflow gives errors, not a warning
    def test_entry_near_overflow_is_reported(self, d, n):
        effects = np.array(random_povm(d, n, seed=1).effects)
        effects[0, 0, 0] = 1e300
        found = violations(Povm(effects))
        assert [type(e) for e in found] == [NotPSDError, NotNormalizedError]
        assert found[0].outcome == 0 and found[1].residual == np.inf
        for analysis in (validate, classify):
            with pytest.raises(NotPSDError):
                analysis(Povm(effects))

    def test_not_psd_reports_outcome(self):
        effects = np.stack([EYE2 / 2, -EYE2 / 2])
        with pytest.raises(NotPSDError) as info:
            validate(Povm(effects))
        assert info.value.outcome == 1

    def test_effect_above_identity(self):
        effects = np.stack([1.5 * np.diag([1.0, 0.0]), EYE2 - 1.5 * np.diag([1.0, 0.0])])
        with pytest.raises(NotPSDError):
            validate(Povm(effects))

    def test_ragged_effects_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Povm([np.eye(2), np.eye(3)])

    def test_trace_sums_to_dim(self):
        for seed in range(20):
            p = small_random_povm(seed)
            traces = np.einsum("jii->j", p.effects).real
            assert np.all(traces >= -1e-12)
            assert np.all(traces <= p.dim + 1e-12)
            assert np.sum(traces) == pytest.approx(p.dim, abs=DEFAULT_TOL.recon_tol)


class TestPrune:
    def test_drops_zero(self):
        p = Povm(np.stack([EYE2, np.zeros((2, 2))]))
        pruned, rmap = prune_zero_effects(p)
        assert pruned.n_outcomes == 1
        assert np.allclose(pruned.effects[0], EYE2)
        assert rmap.to_jsonable() == [1]
        assert np.allclose(relabel(pruned, rmap).effects, p.effects)

    def test_no_zero_is_identity(self, qubit3):
        pruned, rmap = prune_zero_effects(qubit3)
        assert np.array_equal(pruned.effects, qubit3.effects)
        assert np.array_equal(rmap.targets, np.arange(3))
        assert pruned is qubit3  # no copy when nothing is pruned

    def test_identity_map_is_built_once_per_size(self, qubit3):
        assert prune_zero_effects(qubit3)[1] is RelabelMap.identity(3)
        identity = RelabelMap.identity(5)
        assert RelabelMap.identity(5) is identity and RelabelMap.identity(4) is not identity
        assert (identity.source_size, identity.target_size) == (5, 5)
        assert np.array_equal(identity.targets, np.arange(5))
        assert not identity.targets.flags.writeable

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "analysis",
        [
            classify,
            is_extremal,
            is_extremal_rank1,
            spectral_relabel,
            extremality_report,
            extremal_to_rank1,
        ],
    )
    def test_non_finite_effect_is_rejected_not_dropped(self, qubit3, analysis, entry):
        effects = np.array(qubit3.effects)
        effects[0, 0, 0] = entry  # a NaN norm would fail the keep test and drop the effect
        with pytest.raises(NonFiniteError) as info:
            analysis(Povm(effects))
        assert info.value.outcome == 0

    @pytest.mark.parametrize("analysis", [classify, extremality_report, spectral_relabel])
    def test_all_zero_stack_is_rejected(self, analysis):
        # a valid POVM sums to I, so an all-zero stack fails validate's sum check
        p = Povm(np.zeros((2, 2, 2)))
        with pytest.raises(NotNormalizedError) as info:
            analysis(p)
        assert str(info.value) == str(violations(p)[0])


class TestRelabel:
    def test_identity_map(self, qubit3):
        out = relabel(qubit3, RelabelMap.identity(3))
        assert np.array_equal(out.effects, qubit3.effects)

    def test_constant_map_gives_identity(self, qubit3):
        out = relabel(qubit3, RelabelMap(3, 1, np.zeros(3)))
        assert out.n_outcomes == 1
        assert np.allclose(out.effects[0], EYE2)

    def test_merge_first_two(self, qubit3):
        f = RelabelMap(3, 2, [0, 0, 1])
        out = relabel(qubit3, f)
        assert np.allclose(out.effects[0], qubit3.effects[0] + qubit3.effects[1])
        assert np.allclose(out.effects[1], qubit3.effects[2])

    def test_size_mismatch(self, qubit3):
        with pytest.raises(MapSizeMismatchError):
            relabel(qubit3, RelabelMap.identity(4))

    def test_bad_entries_rejected(self):
        with pytest.raises(MapSizeMismatchError):
            RelabelMap(2, 2, [0, 2])

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_composition(self, seed, data):
        p = small_random_povm(seed)
        n = p.n_outcomes
        rng = np.random.default_rng(seed + 1)
        m1 = int(data.draw(st.integers(1, n + 2), label="mid size"))
        m2 = int(data.draw(st.integers(1, m1 + 2), label="final size"))
        f = RelabelMap(n, m1, rng.integers(0, m1, n))
        g = RelabelMap(m1, m2, rng.integers(0, m2, m1))
        twice = relabel(relabel(p, f), g)
        composed = relabel(p, f.then(g))
        assert np.linalg.norm(twice.effects - composed.effects) <= DEFAULT_TOL.recon_tol

    def test_preserves_normalization(self):
        p = small_random_povm(5)
        rng = np.random.default_rng(6)
        f = RelabelMap(p.n_outcomes, 2, rng.integers(0, 2, p.n_outcomes))
        out = relabel(p, f)
        assert np.allclose(out.effects.sum(axis=0), p.effects.sum(axis=0))


class TestMix:
    def test_idempotent(self, qubit3):
        out = mix(qubit3, qubit3, 0.5)
        assert np.allclose(out.effects, qubit3.effects)

    def test_basis_pvm_mixture_matrices(self):
        out = mix(sigma_z_pvm(), sigma_x_pvm(), 0.5)
        expected0 = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
        expected1 = np.array([[0.25, -0.25], [-0.25, 0.75]], dtype=complex)
        assert np.allclose(out.effects[0], expected0)
        assert np.allclose(out.effects[1], expected1)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.3])
    def test_bad_weight(self, t, qubit3):
        with pytest.raises(BadWeightError):
            mix(qubit3, qubit3, t)

    def test_dimension_mismatch(self, qubit3):
        with pytest.raises(DimensionMismatchError):
            mix(qubit3, onb_pvm(3), 0.5)

    def test_pads_shorter_on_right(self, qubit3):
        out = mix(qubit3, sigma_z_pvm(), 0.25)
        assert out.n_outcomes == 3
        assert np.allclose(out.effects[2], 0.25 * qubit3.effects[2])
        validate(out)

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed, t):
        b = small_random_povm(seed)
        c = random_povm(b.dim, b.n_outcomes, seed + 10**6)
        lhs = mix(b, c, t)
        rhs = mix(c, b, 1.0 - t)
        assert np.linalg.norm(lhs.effects - rhs.effects) <= 1e-12


class TestSpectralRelabel:
    def test_rank1_fixed_point(self, qubit3):
        rank1, rmap = spectral_relabel(qubit3)
        assert rank1.n_outcomes == 3
        assert np.allclose(rank1.effects, qubit3.effects, atol=1e-12)
        assert np.array_equal(rmap.targets, np.arange(3))

    def test_identity_povm_becomes_basis_pvm(self):
        p = Povm(np.eye(3, dtype=complex)[None, :, :])
        rank1, rmap = spectral_relabel(p)
        assert rank1.n_outcomes == 3
        assert equivalent(rank1, onb_pvm(3))
        assert np.array_equal(rmap.targets, [0, 0, 0])

    def test_rank2_reference_povm(self, type_d):
        rank1, rmap = spectral_relabel(type_d)
        assert rank1.n_outcomes == 6
        assert np.array_equal(rmap.targets, [0, 0, 1, 1, 2, 2])
        from povm_forge import rank_of

        assert all(rank_of(e) == 1 for e in rank1.effects)
        assert np.allclose(
            np.einsum("jii->j", rank1.effects).real, np.full(6, 2 / 3), atol=1e-12
        )
        assert np.allclose(relabel(rank1, rmap).effects, type_d.effects, atol=1e-12)

    def test_outcome_bound_and_validity(self):
        for seed in range(25):
            p = small_random_povm(seed)
            rank1, rmap = spectral_relabel(p)
            assert rank1.n_outcomes <= p.n_outcomes * p.dim
            validate(rank1)
            pruned, _ = prune_zero_effects(p)
            assert np.allclose(
                relabel(rank1, rmap).effects, pruned.effects, atol=DEFAULT_TOL.recon_tol
            )


    @pytest.mark.parametrize("reader", [spectral_relabel, extremal_to_rank1])
    @pytest.mark.parametrize("at", [0, 2, 3])  # a zero outcome at the front, middle and end
    def test_maps_onto_the_outcomes_of_the_input(self, type_d, reader, at):
        p = Povm(np.insert(type_d.effects, at, 0.0, axis=0))
        rank1, rmap = reader(p)
        assert rmap.target_size == p.n_outcomes
        assert at not in rmap.targets  # the zero outcome: an empty preimage
        rebuilt = relabel(rank1, rmap).effects
        assert np.linalg.norm(rebuilt - p.effects, axis=(1, 2)).max() <= DEFAULT_TOL.recon_tol


class TestClassify:
    def test_basis_pvm_is_type_a(self):
        result = classify(onb_pvm(2))
        assert result.is_rank1 and result.is_pvm
        assert result.extremal_type == "a"

    def test_uniform_pair_not_extremal(self):
        result = classify(Povm(np.stack([EYE2 / 2, EYE2 / 2])))
        assert result.extremal_type == NOT_EXTREMAL
        assert not result.is_rank1

    def test_rank2_reference_is_type_d(self, type_d):
        result = classify(type_d)
        assert result.extremal_type == "d"
        assert not result.is_rank1 and not result.is_pvm

    def test_block_pvm_is_type_b(self):
        effects = np.zeros((2, 4, 4), dtype=complex)
        effects[0, 0, 0] = effects[0, 1, 1] = 1.0
        effects[1, 2, 2] = effects[1, 3, 3] = 1.0
        result = classify(Povm(effects))
        assert result.is_pvm and not result.is_rank1
        assert result.extremal_type == "b"

    def test_hybrid_is_type_c(self, qubit3):
        effects = np.zeros((4, 4, 4), dtype=complex)
        for j in range(3):
            effects[j, :2, :2] = qubit3.effects[j]
        effects[3, 2, 2] = effects[3, 3, 3] = 1.0
        result = classify(validate(Povm(effects)))
        assert result.extremal_type == "c"
        assert not result.is_rank1 and not result.is_pvm

    def test_rank0_effect_does_not_count(self):
        p = validate(qubit3_with_rank0_outcome())
        result = classify(p)
        assert (result.extremal_type, result.is_rank1, result.rank_profile) == ("a", True, (1, 1, 1))

    def test_reference_qubit_povm_is_type_a(self, qubit3):
        assert classify(qubit3).extremal_type == "a"


class TestEquivalent:
    def test_ignores_zero_effects(self, qubit3):
        padded = Povm(np.concatenate([qubit3.effects, np.zeros((1, 2, 2))]))
        assert equivalent(qubit3, padded)

    def test_order_matters_by_default(self):
        swapped = Povm(sigma_z_pvm().effects[::-1])
        assert not equivalent(sigma_z_pvm(), swapped)
        assert equivalent(relabel(sigma_z_pvm(), RelabelMap(2, 2, [1, 0])), swapped)

    def test_distinct_povms(self):
        assert not equivalent(sigma_z_pvm(), sigma_x_pvm())
        assert not equivalent(sigma_z_pvm(), Povm(sigma_x_pvm().effects[::-1]))


class TestJsonRoundTrip:
    def test_bitwise_round_trip(self):
        import json

        p = small_random_povm(123)
        doc = json.loads(json.dumps(p.to_jsonable()))
        q = Povm.from_jsonable(doc)
        assert np.array_equal(p.effects, q.effects)

    def test_integer_literals_accepted(self):
        doc = {
            "dim": 2,
            "effects": [
                {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
                {"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
            ],
        }
        assert np.allclose(Povm.from_jsonable(doc).effects, onb_pvm(2).effects)

    def test_malformed_raises_value_error(self):
        with pytest.raises(ValueError):
            Povm.from_jsonable({"dim": 2, "effects": [{"re": [[1, 0], [0, 1]]}]})

    @pytest.mark.parametrize("dim", [2.7, 2.0, "2", True, [2]])
    def test_dim_must_be_an_integer(self, dim):
        doc = onb_pvm(2).to_jsonable()
        doc["dim"] = dim
        with pytest.raises(ValueError, match="dim must be an integer"):
            Povm.from_jsonable(doc)

    @pytest.mark.parametrize("entry", ["1", "1.0", None])
    def test_matrix_entries_must_be_numbers(self, entry):
        doc = onb_pvm(2).to_jsonable()
        doc["effects"][0]["re"][0][0] = entry
        with pytest.raises(ValueError, match="matrix entries must be numbers"):
            Povm.from_jsonable(doc)

    def test_ragged_effects_refused(self):
        doc = onb_pvm(2).to_jsonable()
        doc["effects"][1]["re"] = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            Povm.from_jsonable(doc)
        doc["effects"][1]["re"] = [[0.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            Povm.from_jsonable(doc)

    @pytest.mark.parametrize("entries", [[1.7, 2.7], [1.0, 2.0], [True, False], ["1", "2"], [[1, 2]]])
    def test_relabel_entries_must_be_integers(self, entries):
        with pytest.raises(ValueError, match="integers"):
            RelabelMap.from_jsonable(entries, 2)

    def test_empty_relabel_map_refused(self):
        with pytest.raises(ValueError, match="integers"):  # [] parses as floats
            RelabelMap.from_jsonable([], 2)
