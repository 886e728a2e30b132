"""The rank-1 bound against an ``eigvalsh``-only reference.

``linalg.rank1_interval`` lets ``povm._eigenvalues``, behind ``povm._checked``
and ``povm._spectrum``, skip ``eigvalsh`` on effects whose verdicts are the same
for every eigenvalue vector within the bound; such an effect's row is the
stand-in (0, ..., 0, lam).  The reference is the same code with the bound
returning NaN, which settles nothing, so every effect takes ``eigvalsh`` as it
did before the bound; plain ``eigvalsh`` and ``effect_ranks`` of each stack
are checked too.
Inputs sit on every edge a settled verdict could cross: a second eigenvalue at
k * rank_tol, the smallest at -k * psd_tol, the top at 1 + k * psd_tol or
1 - k * recon_tol, or a triangle k * herm_tol off Hermitian, for k in
{0.5, 1, 2}, under ``ToleranceConfig.scaled``; also zero and non-finite effects,
and every tolerance 0, where nothing may be settled.  On the same stacks every
analysis must raise what ``validate`` raises, or return.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povm_forge.povm
from conftest import record_eigensolvers
from povm_forge import (
    DEFAULT_TOL,
    NOT_EXTREMAL,
    Povm,
    ToleranceConfig,
    classify,
    decompose,
    extremality_report,
    is_extremal,
    random_povm,
    spectral_relabel,
    violations,
)
from povm_forge.errors import AllZeroError, NotExtremalError, NotRank1Error, PovmForgeError
from povm_forge.extremality import extremal_to_rank1, is_extremal_rank1, rank1_failures
from povm_forge.linalg import effect_ranks, hermitian_split, rank1_interval
from povm_forge.povm import _checked, _is_projection, _spectrum

EDGES = ("second", "smallest", "top", "projection", "zero", "non_finite", "skew")
ZERO_TOL = ToleranceConfig(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def random_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def edge_effect(d, edge, k, tol, rng):
    """A rank-1 effect in a random basis, one eigenvalue or entry on the ``edge`` of a verdict."""
    values = np.zeros(d)
    values[-1] = rng.uniform(0.05, 0.95)
    if edge == "second":
        values[-2] = k * tol.rank_tol
    elif edge == "smallest":
        values[0] = -k * tol.psd_tol
    elif edge == "skew":  # beside a lower triangle off by k * herm_tol: the herm_tol edge
        values[0] = -0.5 * tol.psd_tol
    elif edge == "top":
        values[-1] = 1 + k * tol.psd_tol
    elif edge == "projection":
        values[-1] = 1 - k * tol.recon_tol
    u = random_unitary(d, rng)
    e = (u * values) @ u.conj().T
    e = (e + e.conj().T) / 2  # exactly Hermitian
    if edge == "zero":
        e[:] = 0.0
    elif edge == "non_finite":
        e[rng.integers(d), rng.integers(d)] = rng.choice([np.nan, np.inf, 1j * np.nan])
    elif edge == "skew":  # lowers the smallest eigenvalue of the lower triangle
        off = np.tril(np.outer(u[:, 0], u[:, 0].conj()), -1)
        e -= k * tol.herm_tol * off / np.abs(off).max()
    return e


@st.composite
def stacks(draw, edges=EDGES):
    """(effects, tol): a rank-1 POVM of d < n effects, some swapped for edge effects.

    n reaches past 600 / d^2, so that most stacks are large enough for the bound.
    """
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d + 1, 4 * d * d + 600 // (d * d)))
    tol = draw(st.sampled_from([DEFAULT_TOL.scaled(s) for s in (0.1, 1.0, 10.0)] + [ZERO_TOL]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    effects = np.array(random_povm(d, n, seed, rank=1).effects)
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        edge = draw(st.sampled_from(edges))
        effects[j] = edge_effect(d, edge, draw(st.sampled_from([0.5, 1.0, 2.0])), tol, rng)
    return effects, tol


def unbounded(f, *args):
    """f(*args) with the bound settling nothing: every effect takes eigvalsh."""
    with mock.patch.object(povm_forge.povm, "rank1_interval", _nothing_settled):
        return f(*args)


def eigvalsh_shapes(f, *args):
    """(f(*args), the shape of each stack it passed to ``eigvalsh``)."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def recorded(a, *rest, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *rest, **kwargs)

    with mock.patch.object(np.linalg, "eigvalsh", recorded):
        return f(*args), shapes


def _nothing_settled(effects):
    return np.full(len(effects), np.nan), np.full(len(effects), np.nan)


def _described(found):
    return [[(type(e), str(e), getattr(e, "outcome", None)) for e in errors] for errors in found]


def _outcome(f, *args):
    """f(*args), or the type and text of the domain error it raises."""
    try:
        return f(*args)
    except PovmForgeError as exc:
        return type(exc), str(exc)


def _classified(p, tol):
    result = _outcome(classify, p, tol)
    if isinstance(result, tuple):
        return result
    report = result.extremality
    return (
        result.is_rank1,
        result.is_pvm,
        result.extremal_type,
        result.rank_profile,
        report.extremal,
        report.borderline,
        np.float64(report.margin).tobytes(),
        report.operator_count,
    )


@given(stacks())
@settings(max_examples=200, deadline=None)
def test_validator_verdicts_match_eigvalsh_only(case):
    effects, tol = case
    sizes = [len(effects)]
    found, hermitian, w = _checked(effects, sizes, tol)
    (want_found, _, want_w), shapes = eigvalsh_shapes(unbounded, _checked, effects, sizes, tol)
    assert shapes == [effects.shape]  # the reference settles nothing
    assert _described(found) == _described(want_found)
    ranks, plain = effect_ranks(w, tol)
    want = effect_ranks(want_w, tol)
    assert np.array_equal(ranks, want[0]) and np.array_equal(plain, want[1])
    finite = np.isfinite(effects).all(axis=(1, 2))
    clean = np.where(finite[:, None, None], effects, 0.0)
    assert np.array_equal(hermitian, hermitian_split(clean)[0])
    # each row is eigvalsh's, or the stand-in (0, ..., 0, lam) of a settled effect
    stand_in = np.zeros_like(w)
    stand_in[:, -1] = rank1_interval(hermitian)[0]
    assert np.all((w == want_w).all(axis=1) | (w == stand_in).all(axis=1))
    direct = effect_ranks(np.linalg.eigvalsh(hermitian), tol)
    assert np.array_equal(ranks, direct[0]) and np.array_equal(plain, direct[1])
    failures = rank1_failures(effects, sizes, tol)
    want_failures = unbounded(rank1_failures, effects, sizes, tol)
    assert [(type(f), str(f)) for f in failures] == [(type(f), str(f)) for f in want_failures]


@given(stacks(edges=("second", "smallest", "top", "projection", "zero")))
@settings(max_examples=200, deadline=None)
def test_analysis_verdicts_match_eigvalsh_only(case):
    effects, tol = case
    p = Povm(effects)
    classified = _classified(p, tol)
    assert classified == unbounded(_classified, p, tol)
    if isinstance(classified[0], type):  # refused: every effect zero
        return
    hermitian, ranks, plain, rows = _spectrum(p, tol)
    w = np.linalg.eigvalsh(hermitian)
    want_ranks, want_plain = effect_ranks(w, tol)
    nonzero = np.linalg.norm(p.effects, axis=(1, 2)) > tol.zero_effect_tol  # zero effects: rank 0
    assert np.array_equal(ranks, want_ranks * nonzero)
    assert np.array_equal(plain, want_plain & nonzero)
    assert np.array_equal(_is_projection(rows, tol), np.linalg.norm(w * w - w, axis=1) <= tol.recon_tol)


@given(stacks(edges=("non_finite", "skew")))
@settings(max_examples=50, deadline=None)
def test_analyses_refuse_what_they_refused(case):
    effects, tol = case
    p = Povm(effects)
    assert _classified(p, tol) == unbounded(_classified, p, tol)


@given(stacks())
@settings(max_examples=100, deadline=None)
def test_every_analysis_raises_what_validate_raises_or_returns(case):
    effects, tol = case
    p = Povm(effects)
    found = violations(p, tol)
    analyses = (classify, extremality_report, is_extremal, spectral_relabel, extremal_to_rank1,
                decompose, is_extremal_rank1)
    for analysis in analyses:
        try:
            result = analysis(p, tol)
        except PovmForgeError as exc:
            got = (type(exc), str(exc))
        else:
            got = None
        if found:
            assert got == (type(found[0]), str(found[0])), analysis.__name__
        elif analysis is extremal_to_rank1 and got is not None:
            assert got[0] is NotExtremalError  # a valid POVM that is not extremal
        elif analysis is is_extremal_rank1:
            # a valid POVM: a verdict, or a rank that keeps the test from applying
            assert got[0] in (NotRank1Error, AllZeroError) if got else type(result) is bool
        else:
            assert got is None, analysis.__name__


@pytest.mark.parametrize("d, n", [(2, 120), (4, 32), (8, 64)])
def test_nothing_is_settled_with_every_tolerance_zero(monkeypatch, d, n):
    p = random_povm(d, n, seed=d, rank=1)
    calls = record_eigensolvers(monkeypatch)
    (found,), _, _ = _checked(p.effects, [n], ZERO_TOL)
    assert found  # at tolerance 0, rounding fails a check: classify raises what validate raises
    with pytest.raises(type(found[0])) as info:
        classify(p, ZERO_TOL)
    assert str(info.value) == str(found[0])
    assert [(name, a.shape) for name, a in calls if a.ndim == 3][:2] == [
        ("eigvalsh", (n, d, d)),
        ("eigvalsh", (n, d, d)),
    ]


@pytest.mark.parametrize("d, n", [(2, 120), (3, 48), (5, 26), (8, 66)])
def test_settled_rank1_povm_takes_no_eigvalsh(monkeypatch, d, n):
    p = random_povm(d, n, seed=d, rank=1)
    calls = record_eigensolvers(monkeypatch)
    found, _, w = _checked(p.effects, [n], DEFAULT_TOL)
    assert found == [[]] and calls == []
    lam = rank1_interval(p.effects)[0]
    assert not w[:, :-1].any() and np.array_equal(w[:, -1], lam)  # every row a stand-in
    result = classify(p)
    assert (result.extremal_type, result.rank_profile) == (NOT_EXTREMAL, (1,) * n)
    assert calls == []


@pytest.mark.parametrize("d, n", [(2, 100), (3, 44), (4, 25), (8, 6)])
def test_small_stack_takes_one_eigvalsh(monkeypatch, d, n):
    # at most 400 entries n d^2, or at most d effects: eigvalsh costs less than the bound
    p = random_povm(d, n, seed=d, rank=1 if n > d else None)
    calls = record_eigensolvers(monkeypatch)
    _checked(p.effects, [n], DEFAULT_TOL)
    classify(p)
    assert [a.shape for name, a in calls if name == "eigvalsh"] == [(n, d, d)] * 2


@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
@settings(max_examples=200, deadline=None)
def test_eigvalsh_lies_within_the_interval(d, seed, spread):
    # near rank 1: a top eigenvalue, the rest within spread, and a skew part within spread
    rng = np.random.default_rng(seed)
    u = random_unitary(d, rng)
    values = spread * rng.uniform(-1, 1, d)
    values[-1] = rng.uniform(0.01, 2.0)
    e = (u * values) @ u.conj().T
    e = (e + e.conj().T) / 2
    e[np.triu_indices(d)] += spread * (rng.standard_normal(d * (d + 1) // 2) * 1j)
    effects = np.stack([e, 3 * e, e / 7])
    effects = hermitian_split(effects)[0]
    lam, rho = rank1_interval(effects)
    w = np.linalg.eigvalsh(effects)
    assert np.all(np.abs(w[:, :-1]) <= rho[:, None])
    assert np.all(np.abs(w[:, -1] - lam) <= rho)


def test_zero_and_non_finite_effects_get_no_interval():
    effects = np.zeros((3, 2, 2), dtype=complex)
    effects[1, 0, 1] = np.nan
    effects[2] = -np.eye(2)
    lam, rho = rank1_interval(effects)
    assert np.isnan(lam[:2]).all() and lam[2] < 0


def _interval_two_temporaries(effects):
    """``rank1_interval`` with its gap formed as effects - y y^H / E_kk, two stack-sized temporaries."""
    n, d = effects.shape[:2]
    diagonal = np.diagonal(effects, axis1=-2, axis2=-1).real
    k = diagonal.argmax(axis=-1)
    rows = np.arange(n)
    y = effects[rows, :, k]
    with np.errstate(all="ignore"):
        scaled = y.conj() / diagonal[rows, k, None]
        gap = (effects - y[:, :, None] * scaled[:, None, :]).reshape(n, -1).view(np.float64)
        lam = np.einsum("ij,ij->i", scaled, y).real
        spread = np.sqrt(np.einsum("ki,ki->k", gap, gap))
        return lam, spread + 2.0**-42 * d * (np.abs(lam) + spread)


@pytest.mark.parametrize("n, d", [(144, 12), (100, 10), (256, 8), (67, 8)])
def test_interval_built_in_one_buffer_keeps_its_bits(n, d):
    # rank-1 effects with noise, one with E_kk = 0 (a zero diagonal) and one non-finite
    rng = np.random.default_rng(n * d)
    psi = rng.standard_normal((n, 2 * d)).view(np.complex128)
    noise = 1e-9 * rng.standard_normal((n, d, 2 * d)).view(np.complex128)
    effects = psi[:, :, None] * psi.conj()[:, None, :] + noise
    effects = hermitian_split(effects)[0]
    effects[0] = np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)  # E_kk = 0
    effects[1, 0, -1] = np.inf
    got, want = rank1_interval(effects), _interval_two_temporaries(effects)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert not np.isfinite(got[1][:2]).any()  # neither row settles anything
