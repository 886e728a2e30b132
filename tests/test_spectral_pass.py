"""The batched spectral pass against the per-effect reference in ``per_effect``."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_effect
import povm_forge
from conftest import EYE2, random_mixed_rank_pvm, record_eigensolvers
from povm_forge import (
    DEFAULT_TOL,
    NOT_EXTREMAL,
    Povm,
    classify,
    RelabelMap,
    construct_extremal_rank1,
    decompose,
    eig_herm,
    extend_extremal,
    extremality_report,
    is_extremal,
    is_extremal_rank1,
    mix,
    qubit_example,
    random_povm,
    relabel,
    spectral_relabel,
    type_d_example,
    validate,
    violations,
)
from povm_forge.cli import main
from povm_forge.errors import (
    AlreadyMaximalError,
    NotHermitianError,
    NotNormalizedError,
    PovmForgeError,
)
from povm_forge.extremality import extremal_to_rank1
from povm_forge.linalg import _fix_phases, banded_verdict, hermitian_split
from povm_forge.povm import _outer, _spectral_terms, _spectrum, _strict_upper

KINDS = ("full", "rank1_square", "rank1_below", "low_rank", "block_pvm", "type_d", "hybrid")


def random_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_povm(kind, d, seed, zeros):
    """One input of ``kind``; ``zeros`` zero effects are inserted at seeded positions."""
    rng = np.random.default_rng(seed)
    if kind == "full":  # sum of rank^2 = n d^2 > d^2
        p = random_povm(d, int(rng.integers(2, 5)), seed)
    elif kind == "rank1_square":
        p = random_povm(d, d * d, seed, rank=1)
    elif kind == "rank1_below":
        p = random_povm(d, int(rng.integers(d, d * d)), seed, rank=1)
    elif kind == "low_rank":
        r = int(rng.integers(1, d))
        p = random_povm(d, int(rng.integers(-(-d // r), d * d // (r * r) + 2)), seed, rank=r)
    elif kind == "block_pvm":  # degenerate spectra
        p = random_mixed_rank_pvm(d, rng)
    elif kind == "type_d":  # rotated: degenerate rank-2 effects in a random basis
        u = random_unitary(4, rng)
        p = Povm(u @ type_d_example().effects @ u.conj().T)
    else:  # type c: rank-1 qubit block beside a rank-2 projection, rotated
        effects = np.zeros((4, 4, 4), dtype=complex)
        effects[:3, :2, :2] = qubit_example().effects
        effects[3, 2, 2] = effects[3, 3, 3] = 1.0
        u = random_unitary(4, rng)
        p = Povm(u @ effects @ u.conj().T)
    effects = list(p.effects)
    for _ in range(zeros):
        effects.insert(int(rng.integers(len(effects) + 1)), np.zeros((p.dim, p.dim)))
    return Povm(np.stack(effects))


povm_cases = st.builds(
    make_povm,
    st.sampled_from(KINDS),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
)


def assert_reports_agree(got, want):
    assert (got.extremal, got.borderline, got.operator_count) == (
        want.extremal,
        want.borderline,
        want.operator_count,
    )
    assert got.margin == pytest.approx(want.margin, rel=1e-9)


@given(povm_cases)
@settings(max_examples=150, deadline=None)
def test_classify_and_report_match_per_effect_reference(p):
    got, want = classify(p), per_effect.classify(p)
    assert (got.extremal_type, got.is_rank1, got.is_pvm, got.rank_profile) == (
        want.extremal_type,
        want.is_rank1,
        want.is_pvm,
        want.rank_profile,
    )
    assert_reports_agree(got.extremality, want.extremality)
    assert_reports_agree(extremality_report(p), want.extremality)


@given(povm_cases)
@settings(max_examples=60, deadline=None)
def test_spectral_form_and_relabel_match_per_effect_reference(p):
    # the term vectors psi, whose phase convention decompose's congruence consumes
    effects, ranks, plain, _ = _spectrum(p, DEFAULT_TOL)
    j, psi = _spectral_terms(effects, ranks, plain, DEFAULT_TOL)
    blocks = per_effect.spectral_blocks(p)
    counts = np.bincount(j, minlength=p.n_outcomes)
    assert counts.tolist() == [b.shape[0] for b in blocks]
    np.testing.assert_allclose(psi, np.concatenate(blocks), rtol=0, atol=1e-12)
    rank1, rmap = spectral_relabel(p)
    pieces, sources = per_effect.spectral_relabel(p)
    assert rmap.target_size == p.n_outcomes
    assert np.array_equal(rmap.targets, sources)
    np.testing.assert_allclose(rank1.effects, pieces, rtol=0, atol=1e-12)


def _extremal(d, seed):
    return construct_extremal_rank1(d, min(d + seed, d * d))


BUILT_STACKS = {
    "spectral_relabel": lambda d, seed: spectral_relabel(random_povm(d, d + 2, seed))[0],
    "extremal_to_rank1": lambda d, seed: extremal_to_rank1(
        random_mixed_rank_pvm(d, np.random.default_rng(seed))
    )[0],
    "decompose": lambda d, seed: Povm(
        np.concatenate([c.extremal.effects for c in decompose(random_povm(d, d + 2, seed)).components])
    ),
    "decompose terms": lambda d, seed: Povm(decompose(random_povm(d, d + 2, seed))._terms),
    "construct_extremal_rank1": _extremal,
    "random_povm": lambda d, seed: random_povm(d, d + 2, seed),
    "random_povm rank 1": lambda d, seed: random_povm(d, d * d, seed, rank=1),
    "extend_extremal": lambda d, seed: extend_extremal(construct_extremal_rank1(d, d)),
    "relabel": lambda d, seed: relabel(
        random_povm(d, d + 2, seed), RelabelMap(d + 2, 2, np.arange(d + 2) % 2)
    ),
    "mix": lambda d, seed: mix(random_povm(d, d + 2, seed), _extremal(d, seed), 0.3),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("d", range(2, 6))
@pytest.mark.parametrize("built", BUILT_STACKS)
def test_every_stack_the_library_builds_is_exactly_hermitian(built, d, seed):
    # equal to its conjugate transpose bit for bit, so hermitian_split returns it uncopied
    stack = BUILT_STACKS[built](d, seed).effects
    assert hermitian_split(stack)[0] is stack


def block_pvm(d, blocks, rng):
    """PVM of ``blocks`` rank-d/blocks projections onto a random basis."""
    u = random_unitary(d, rng)
    cols = np.split(u, blocks, axis=1)
    return Povm(np.stack([c @ c.conj().T for c in cols]))


WIDE_CASES = (
    [("rank1", d) for d in range(8, 13)]
    + [("block_pvm", d) for d in (8, 12, 16, 20)]
    + [("full", 20), ("type_d", 4)]
)


@pytest.mark.parametrize("kind, d", WIDE_CASES)
def test_classify_and_report_match_per_effect_reference_at_wide_sizes(kind, d):
    rng = np.random.default_rng([d, len(kind)])
    if kind == "rank1":
        p = random_povm(d, d * d, seed=100 + d, rank=1)
    elif kind == "block_pvm":
        p = block_pvm(d, 4, rng)
    elif kind == "full":
        p = random_povm(d, 3, seed=100 + d)
    else:  # rotated
        u = random_unitary(d, rng)
        p = Povm(u @ type_d_example().effects @ u.conj().T)
    got, want = classify(p), per_effect.classify(p)
    assert (got.extremal_type, got.is_rank1, got.is_pvm, got.rank_profile) == (
        want.extremal_type,
        want.is_rank1,
        want.is_pvm,
        want.rank_profile,
    )
    assert_reports_agree(got.extremality, want.extremality)
    assert_reports_agree(extremality_report(p), want.extremality)


def test_eigh_only_for_rank_two_and_up_and_one_real_svd(monkeypatch):
    calls = {"eigh": 0, "svd": []}
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        calls["svd"].append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    cases = [
        (random_povm(4, 16, seed=5, rank=1), 0, [np.float64]),
        (random_povm(3, 3, seed=0), 0, []),  # sum of rank^2 = 27 > 9
        (type_d_example(), 1, [np.float64]),
    ]
    for p, eigh_calls, svd_dtypes in cases:
        for analysis in (classify, extremality_report):
            calls["eigh"], calls["svd"] = 0, []
            result = analysis(p)
            assert (calls["eigh"], calls["svd"]) == (eigh_calls, [])  # the verdict is settled
            getattr(result, "extremality", result).margin
            assert (calls["eigh"], calls["svd"]) == (eigh_calls, svd_dtypes)


def band_example():
    """{P0/2, Ppsi/2, I - P0/2 - Ppsi/2}, psi 2e-9 off |0>: margin 1.4e-9, inside the band."""
    theta = 2e-9
    psi = np.array([np.cos(theta), np.sin(theta)])
    a, b = np.diag([0.5, 0.0]), 0.5 * np.outer(psi, psi)
    return Povm(np.stack([a, b, np.eye(2) - a - b]).astype(complex))


def test_settled_verdicts_take_no_svd_until_the_margin_is_read(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    square, type_d = random_povm(4, 16, seed=5, rank=1), type_d_example()
    for p in (square, type_d):
        report = classify(p).extremality
        extremal_to_rank1(p)
        assert (report.extremal, report.borderline, shapes) == (True, False, [])
        margin = report.margin
        assert shapes == [(report.operator_count, 16)]
        assert report.margin == margin and len(shapes) == 1
        shapes.clear()
    with pytest.raises(AlreadyMaximalError):  # its verdict is settled before the count check
        extend_extremal(square)
    assert extend_extremal(random_povm(4, 12, seed=5, rank=1)).n_outcomes == 13
    assert shapes == []
    # equal verdicts make equal reports, whatever their margins and whether they were read
    read, unread = classify(square).extremality, classify(random_povm(4, 16, seed=6, rank=1))
    read.margin
    assert read == unread.extremality and hash(read) == hash(unread.extremality)
    assert read != classify(type_d).extremality  # 12 operators, not 16
    # a verdict the bound does not settle takes its one SVD at once, and keeps its margin
    shapes.clear()
    report = classify(band_example()).extremality
    assert (report.extremal, report.borderline, shapes) == (False, True, [(3, 4)])
    assert banded_verdict(report.margin, DEFAULT_TOL) == (False, True) and len(shapes) == 1


@given(povm_cases, st.sampled_from((0.1, 1.0, 10.0)))
@settings(max_examples=150, deadline=None)
def test_every_verdict_is_the_banded_verdict_of_its_margin(p, scale):
    # whether the Cholesky bound settled it or the SVD did, under scaled tolerances
    tol = DEFAULT_TOL.scaled(scale)
    report = classify(p, tol).extremality
    assert (report.extremal, report.borderline) == banded_verdict(report.margin, tol)


@pytest.mark.parametrize("analysis", [classify, extremality_report, spectral_relabel])
def test_each_analysis_takes_one_eigvalsh_of_the_whole_stack(monkeypatch, analysis):
    # the validator's pass over every effect: zero effects are read as rank 0, not dropped
    p = make_povm("hybrid", 4, 0, 2)  # four nonzero effects, two zero ones
    calls = record_eigensolvers(monkeypatch)
    analysis(p)
    assert [a.shape for name, a in calls if name == "eigvalsh"] == [(6, 4, 4)]


def record_rank_counts(monkeypatch):
    """Wrap ``effect_ranks`` in every module that binds it; each call appends its input's shape."""
    shapes = []
    effect_ranks = povm_forge.linalg.effect_ranks

    def recorded(w, *args, **kwargs):
        shapes.append(w.shape)
        return effect_ranks(w, *args, **kwargs)

    for module in (povm_forge.linalg, povm_forge.povm, povm_forge.extremality, povm_forge.decomposer):
        if hasattr(module, "effect_ranks"):
            monkeypatch.setattr(module, "effect_ranks", recorded)
    return shapes


@pytest.mark.parametrize("kind", ["full", "rank1_square", "block_pvm", "type_d", "hybrid"])
def test_classify_counts_ranks_once_from_one_eigvalsh(monkeypatch, kind):
    # one eigvalsh of the whole stack, and its ranks counted once, zero effects included
    p = make_povm(kind, 4, 1, 2)
    solved = record_eigensolvers(monkeypatch)
    counted = record_rank_counts(monkeypatch)
    classify(p)
    assert [a.shape[:-1] for name, a in solved if name == "eigvalsh"] == [(p.n_outcomes, p.dim)]
    assert counted == [(p.n_outcomes, p.dim)]


def test_extremal_to_rank1_counts_the_input_ranks_once(monkeypatch, type_d):
    counted = record_rank_counts(monkeypatch)
    rank1, _ = extremal_to_rank1(type_d)
    # the input's ranks, then those of the output in its is_extremal_rank1 guard
    assert counted == [(3, 4), (rank1.n_outcomes, 4)]


rank1_cases = st.one_of(
    st.builds(
        make_povm,
        st.sampled_from(("rank1_square", "rank1_below")),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2),
    ),
    st.integers(2, 4).flatmap(
        lambda d: st.integers(d, d * d).map(lambda n: construct_extremal_rank1(d, n))
    ),
)


@given(rank1_cases, st.booleans())
@settings(max_examples=100, deadline=None)
def test_type_a_exactly_when_extremal_rank1(p, split):
    if split:  # effect E becomes E/2 twice: a dependent pair
        j = int(np.argmax(np.linalg.norm(p.effects, axis=(1, 2))))
        half = p.effects[j] / 2
        p = Povm(np.concatenate([p.effects[:j], [half, half], p.effects[j + 1:]]))
    extremal = is_extremal_rank1(p)
    assert (classify(p).extremal_type == "a") == extremal
    assert extremal != split


def test_stacked_eig_herm_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(12)
    stack = np.concatenate([random_povm(4, 5, seed=3).effects, type_d_example().effects])
    stack = np.concatenate([stack, (random_unitary(4, rng) * 1e-13)[None]])
    stack[-1] = (stack[-1] + stack[-1].conj().T) / 2
    dec = eig_herm(stack)
    assert dec.eigenvalues.shape == (stack.shape[0], 4)
    for j, m in enumerate(stack):
        one = eig_herm(m)
        np.testing.assert_allclose(dec.eigenvalues[j], one.eigenvalues, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dec.eigenvectors[j], one.eigenvectors, rtol=0, atol=1e-13)
    v = dec.eigenvectors
    rebuilt = (v * dec.eigenvalues[:, None, :]) @ v.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(rebuilt, stack, rtol=0, atol=1e-12)


def test_fix_phases_matches_column_loop():
    rng = np.random.default_rng(4)
    cases = [random_unitary(d, rng) for d in (1, 2, 3, 5)]
    cases.append(np.eye(3, dtype=complex)[:, ::-1] * np.exp(1j * rng.uniform(0, 6, 3)))
    tiny = random_unitary(3, rng)
    tiny[0] = 5e-13 * np.exp(1j * rng.uniform(0, 6, 3))  # below the pivot threshold
    cases += [tiny, np.zeros((2, 2), dtype=complex)]
    for v in cases:
        np.testing.assert_allclose(_fix_phases(v), per_effect.fix_phases(v), rtol=0, atol=1e-15)
    stacked = np.stack([cases[2], cases[4], tiny])
    np.testing.assert_allclose(
        _fix_phases(stacked), [per_effect.fix_phases(v) for v in stacked], rtol=0, atol=1e-15
    )


def test_count_bound_needs_no_svd(monkeypatch):
    full = random_povm(3, 4, seed=1)  # sum of rank^2 = 36 > 9
    wide = random_povm(2, 5, seed=2, rank=1)  # 5 rank-1 effects > d^2 = 4

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran on the count-bound path")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    report = extremality_report(full)
    assert (report.extremal, report.borderline, report.margin) == (False, False, 0.0)
    assert report.operator_count == 36
    result = classify(full)
    assert result.extremal_type == NOT_EXTREMAL and result.extremality == report
    assert not is_extremal_rank1(wide)


def test_classify_rejects_non_hermitian_input():
    effects = np.array(qubit_example().effects)
    effects[0, 0, 1] += 1e-3
    with pytest.raises(NotHermitianError):
        classify(Povm(effects))
    with pytest.raises(NotHermitianError):
        extremality_report(Povm(effects))


@pytest.mark.parametrize(
    "effects",
    [
        [np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])],  # sums to I, neither effect inside [0, I]
        [np.diag([1.0, 0.0])],  # |0><0|: a rank-1 projection that does not sum to I
        [np.eye(2), np.eye(2)],  # rank 2 and summing to 2I: the sum fails before the rank
    ],
    ids=["not_psd", "not_normalized", "rank2_not_normalized"],
)
@pytest.mark.parametrize(
    "analysis", [classify, extremality_report, is_extremal, spectral_relabel, is_extremal_rank1]
)
def test_analyses_raise_what_validate_raises(effects, analysis):
    p = Povm(np.array(effects, dtype=complex))
    with pytest.raises(PovmForgeError) as want:
        validate(p)
    with pytest.raises(PovmForgeError) as got:
        analysis(p)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_validate_raises_what_the_effect_loop_raises(seed, d, n):
    rng = np.random.default_rng(seed)
    effects = np.array(random_povm(d, n, seed).effects)
    for _ in range(int(rng.integers(0, 3))):
        j = int(rng.integers(n))
        defect = rng.integers(3)
        if defect == 0:  # not Hermitian
            effects[j, 0, d - 1] += 1e-6
        elif defect == 1:  # a negative eigenvalue
            effects[j] -= 0.5 * np.eye(d)
        else:  # an eigenvalue above 1
            effects[j] += 0.5 * np.eye(d)
    p = Povm(effects)
    try:
        per_effect.validate(p)
    except PovmForgeError as want:
        with pytest.raises(type(want)) as got:
            validate(p)
        assert str(got.value) == str(want)
        assert getattr(got.value, "outcome", None) == getattr(want, "outcome", None)
    else:
        try:
            validate(p)
        except NotNormalizedError:
            pass


def defective_povm(seed, d, n):
    """Random POVM with up to four seeded defects, non-finite entries among them."""
    rng = np.random.default_rng(seed)
    effects = np.array(random_povm(d, n, seed).effects)
    for _ in range(int(rng.integers(0, 5))):
        j = int(rng.integers(n))
        defect = rng.integers(4)
        if defect == 0:  # not Hermitian
            effects[j, 0, d - 1] += 1e-6
        elif defect == 1:  # a negative eigenvalue
            effects[j] -= 0.5 * np.eye(d)
        elif defect == 2:  # an eigenvalue above 1
            effects[j] += 0.5 * np.eye(d)
        else:
            effects[j, d - 1, 0] = np.nan
    return Povm(effects)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_validate_and_cli_report_the_first_and_all_violations(tmp_path_factory, seed, d, n):
    p = defective_povm(seed, d, n)
    found = violations(p)
    if found:
        with pytest.raises(type(found[0])) as got:
            validate(p)
        assert str(got.value) == str(found[0])
        assert getattr(got.value, "outcome", None) == getattr(found[0], "outcome", None)
    else:
        assert validate(p) is p
    path = tmp_path_factory.mktemp("validate") / "povm.json"
    path.write_text(json.dumps(p.to_jsonable()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", str(path), "--format", "json"])
    report = json.loads(out.getvalue())
    assert (code, report["valid"]) == ((1, False) if found else (0, True))
    assert report.get("violations", []) == [str(exc) for exc in found]


def test_validate_checks_effects_in_index_order():
    psd_failure = np.diag([1.2, -0.2]).astype(complex)
    skew = EYE2 / 2 + np.array([[0, 1e-6], [0, 0]])
    with pytest.raises(NotHermitianError, match="effect 1"):
        validate(Povm(np.stack([EYE2 / 2, skew, psd_failure])))
    with pytest.raises(PovmForgeError) as info:
        validate(Povm(np.stack([EYE2 / 2, psd_failure, skew])))
    assert not isinstance(info.value, NotHermitianError) and info.value.outcome == 1


@pytest.mark.parametrize(
    "name, profile, extremal, kind",
    [
        ("type_d", [2, 2, 2], True, "d"),
        ("onb:3", [1, 1, 1], True, "a"),
        ("qubit3", [1, 1, 1], True, "a"),
        ("full", [3, 3, 3], False, NOT_EXTREMAL),
    ],
)
def test_cli_classify_json_record(tmp_path, capsys, name, profile, extremal, kind):
    path = str(tmp_path / "povm.json")
    if name == "full":
        with open(path, "w") as handle:
            json.dump(random_povm(3, 3, seed=0).to_jsonable(), handle)
    else:
        assert main(["examples", name, "--out", path]) == 0
    capsys.readouterr()
    assert main(["classify", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank_profile"] == profile
    assert report["nonzero_outcomes"] == len(profile)
    assert (report["extremal"], report["borderline"], report["type"]) == (extremal, False, kind)


def test_cli_classify_takes_one_spectral_pass(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "povm.json")
    assert main(["examples", "type_d", "--out", path]) == 0
    calls = []
    eigenvalues = povm_forge.povm._eigenvalues

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigenvalues(*args, **kwargs)

    monkeypatch.setattr(povm_forge.povm, "_eigenvalues", counted)
    assert main(["classify", path]) == 0
    assert calls == [(3, 4, 4)]


@pytest.mark.parametrize("d", range(1, 9))
def test_outer_keeps_its_bits_with_cached_triangles(d):
    psi = np.random.default_rng(d).standard_normal((2 * d + 3, 2 * d)).view(np.complex128)
    want = psi[:, :, None] * psi.conj()[:, None, :]
    row, col = np.triu_indices(d, 1)
    want[:, col, row] = want[:, row, col].conj()
    np.einsum("kii->ki", want).imag = 0.0
    assert _outer(psi).tobytes() == want.tobytes()
    assert _strict_upper(d) is _strict_upper(d)
