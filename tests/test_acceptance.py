"""Acceptance suite: worked-example reproduction plus property sweeps.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on a green run; failures also raise with full detail).
"""

import time

import numpy as np
import pytest

from conftest import EYE2, SZ, random_mixed_rank_pvm, sigma_x_pvm
from rational_rank import exact_independent
from split_tree import find_effect_dependence, split_mixture
from povm_forge import (
    DEFAULT_TOL,
    classify,
    construct_extremal_rank1,
    decompose,
    extend_extremal,
    extremal_to_rank1,
    is_extremal,
    is_extremal_rank1,
    mix,
    prune_zero_effects,
    qubit_example,
    random_povm,
    rank_of,
    spectral_relabel,
    statistics_equivalence,
    type_d_example,
    validate,
    verify_certificate,
)
from povm_forge.linalg import banded_verdict, hermitian_coords, independence_margin

CORPUS_COMBOS = [(d, n) for d in (2, 3, 4) for n in range(2, 7)]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    povms = []
    for i in range(200):
        d, n = CORPUS_COMBOS[i % len(CORPUS_COMBOS)]
        povms.append(random_povm(d, n, seed=1000 + i))
    return povms


@pytest.fixture(scope="module")
def corpus_certificates(corpus):
    start = time.perf_counter()
    certs = [decompose(p) for p in corpus]
    return certs, time.perf_counter() - start


@pytest.fixture(scope="module")
def rank1_corpus():
    povms = []
    for i in range(500):
        d = 2 + i % 3
        n = d + (i // 3) % (d * d - d + 3)
        povms.append(random_povm(d, n, seed=50_000 + i, rank=1))
    return povms


def test_qubit_extension_reproduces_reference():
    """One extension step on the sigma-x PVM must hit the closed-form matrices."""
    pvm = sigma_x_pvm()
    projection = (EYE2 + SZ) / 2
    reference = qubit_example()
    extend_extremal(pvm, projection=projection)  # warmup
    elapsed = min(
        _timed(lambda: extend_extremal(pvm, projection=projection)) for _ in range(25)
    )
    extended = extend_extremal(pvm, projection=projection)
    gap = float(np.max(np.abs(extended.effects - reference.effects)))
    ok = gap <= 1e-12 and elapsed < 1e-3
    _report(
        "qubit extension reproduction",
        ok,
        f"entrywise gap {gap:.2e} <= 1e-12, runtime {elapsed * 1e3:.3f} ms < 1 ms",
    )
    assert gap <= 1e-12
    assert elapsed < 1e-3


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_rank2_reference_reproduction():
    """The 3-outcome dimension-4 reference POVM with rank-2 idempotent-like effects."""
    type_d_example()  # warmup

    def bundle():
        p = type_d_example()
        validate(p)
        assert [rank_of(e) for e in p.effects] == [2, 2, 2]
        assert is_extremal(p)
        assert classify(p).extremal_type == "d"

    elapsed = min(_timed(bundle) for _ in range(3))
    p = type_d_example()
    residual = max(float(np.linalg.norm(e @ e - (2 / 3) * e)) for e in p.effects)
    ok = residual <= 1e-12 and elapsed < 1e-2
    _report(
        "rank-2 reference reproduction",
        ok,
        f"scaled-idempotency residual {residual:.2e} <= 1e-12, "
        f"runtime {elapsed * 1e3:.2f} ms < 10 ms",
    )
    assert residual <= 1e-12
    assert elapsed < 1e-2


def test_decomposition_soundness(corpus, corpus_certificates):
    """200 seeded random POVMs: certificates verify at their stated tolerances."""
    certs, build_time = corpus_certificates
    worst_effect = worst_weight = 0.0
    for p, cert in zip(corpus, certs):
        report = verify_certificate(cert)
        assert report.passed, report.failures
        assert float(report.effect_residuals.max()) <= 1e-8
        assert all(is_extremal_rank1(c.extremal) for c in cert.components)
        assert all(
            p.dim <= c.extremal.n_outcomes <= p.dim**2 for c in cert.components
        )
        weight_gap = abs(sum(c.weight for c in cert.components) - 1.0)
        assert weight_gap <= 1e-10
        worst_effect = max(worst_effect, float(report.effect_residuals.max()))
        worst_weight = max(worst_weight, weight_gap)
    ok = build_time < 60.0
    _report(
        "decomposition soundness",
        ok,
        f"200/200 verified; worst effect residual {worst_effect:.2e} <= 1e-8, "
        f"worst weight gap {worst_weight:.2e} <= 1e-10, build time {build_time:.1f} s < 60 s",
    )
    assert build_time < 60.0


def test_rank1_outcome_count_bounds(corpus, rank1_corpus):
    """Rank-1 POVMs have >= d nonzero effects; exactly d forces a PVM."""
    counterexamples = 0
    pvm_checks = 0
    for p in list(corpus) + list(rank1_corpus):
        result = classify(p)
        if not result.is_rank1:
            continue
        pruned, _ = prune_zero_effects(p)
        if pruned.n_outcomes < p.dim:
            counterexamples += 1
        if pruned.n_outcomes == p.dim:
            pvm_checks += 1
            residual = max(float(np.linalg.norm(e @ e - e)) for e in pruned.effects)
            if residual > 1e-8 or not result.is_pvm:
                counterexamples += 1
    ok = counterexamples == 0 and pvm_checks > 0
    _report(
        "rank-1 outcome bounds",
        ok,
        f"0 counterexamples over {len(corpus) + len(rank1_corpus)} POVMs "
        f"({pvm_checks} minimal-count PVM checks)",
    )
    assert counterexamples == 0
    assert pvm_checks > 0


def test_constructor_coverage():
    """Every admissible (d, n) with 2 <= d <= 4 yields an extremal rank-1 POVM."""
    construct_extremal_rank1(2, 4)  # warmup
    cases = [(d, n) for d in (2, 3, 4) for n in range(d, d * d + 1)]
    slowest = 0.0
    for d, n in cases:
        start = time.perf_counter()
        p = construct_extremal_rank1(d, n)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        pruned, _ = prune_zero_effects(p)
        assert pruned.n_outcomes == n
        assert is_extremal_rank1(p)
        assert elapsed < 0.1, (d, n, elapsed)
    _report(
        "constructor coverage",
        True,
        f"{len(cases)}/{len(cases)} cases extremal rank-1, slowest {slowest * 1e3:.1f} ms < 100 ms",
    )


def test_extremality_bounds_and_splits(corpus):
    """Extremal: <= d^2 independent effects.  Non-extremal: a verified split exists."""
    rng = np.random.default_rng(77)
    extremal_family = [type_d_example(), qubit_example()]
    extremal_family += [construct_extremal_rank1(d, n) for d in (2, 3) for n in range(d, d * d + 1)]
    extremal_family += [random_mixed_rank_pvm(d, rng) for d in (2, 3, 4) for _ in range(4)]
    for p in extremal_family:
        assert is_extremal(p)
        pruned, _ = prune_zero_effects(p)
        assert pruned.n_outcomes <= p.dim**2
        assert find_effect_dependence(pruned) is None

    worst = 0.0
    for p in corpus:
        assert not is_extremal(p)  # full-rank random POVMs with N >= 2 never are
        pruned, _ = prune_zero_effects(p)
        lam = find_effect_dependence(pruned)
        if lam is not None:
            source = pruned
        else:
            source, _ = spectral_relabel(pruned)
            lam = find_effect_dependence(source)
            assert lam is not None
        split = split_mixture(source, lam)
        recon = mix(split.left, split.right, split.weight)
        residual = float(np.linalg.norm(recon.effects - source.effects))
        assert residual <= 1e-8
        worst = max(worst, residual)
    _report(
        "extremality bounds and splits",
        True,
        f"{len(extremal_family)} extremal POVMs within bounds; "
        f"200/200 non-extremal verdicts split with residual <= {worst:.2e}",
    )


def test_extremal_relabeling_consistency():
    """Spectral expansion of 50 extremal POVMs stays extremal rank-1."""
    rng = np.random.default_rng(123)
    family = [random_mixed_rank_pvm(2 + i % 3, rng) for i in range(49)]
    family.append(type_d_example())
    for p in family:
        rank1, rmap = extremal_to_rank1(p)  # raises InternalContradictionError on failure
        assert is_extremal_rank1(rank1)
    _report(
        "extremal relabeling consistency",
        True,
        f"{len(family)}/{len(family)} spectral expansions extremal rank-1, "
        "0 internal contradictions",
    )


def test_statistics_equivalence(corpus_certificates):
    """Mixed-relabeled implementation reproduces target statistics."""
    certs, _ = corpus_certificates
    worst = 0.0
    for i, cert in enumerate(certs[:50]):
        report = statistics_equivalence(cert, trials=100, seed=4000 + i)
        assert report.max_deviation <= 1e-9
        worst = max(worst, report.max_deviation)
    _report(
        "statistics equivalence",
        True,
        f"50 certificates x 100 states: max deviation {worst:.2e} <= 1e-9",
    )


def _independent(rows) -> bool:
    """The rule behind every library verdict: K <= n rows and a margin clear of the band."""
    k, n = rows.shape
    return k <= n and bool(banded_verdict(independence_margin(rows), DEFAULT_TOL)[0])


def test_independence_oracle_agreement():
    """Numerical independence matches exact rational elimination, 100/100 on each corpus.

    The first corpus is complex integer matrices, vectorized; the second is
    Hermitian integer matrices in the real coordinates every library
    independence SVD reads.
    """
    rng = np.random.default_rng(314)
    agreements = wide = 0
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
        agreements += _independent(np.reshape(ops, (k, d * d))) == exact_independent(ops)
        wide += k > d * d
    _report(
        "independence oracle agreement",
        agreements == 100,
        f"{agreements}/100 cases agree ({wide} with K > d^2)",
    )
    assert agreements == 100

    rng = np.random.default_rng(2718)
    agreements = dependent = wide = 0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(1, d * d + 3))
        a = rng.integers(-3, 4, (k, d, d)) + 1j * rng.integers(-3, 4, (k, d, d))
        ops = a + a.conj().swapaxes(1, 2)
        if rng.random() < 0.5 and k >= 2:
            coeffs = rng.integers(-2, 3, k - 1)
            ops[-1] = np.tensordot(coeffs, ops[:-1], axes=1)
        exact = exact_independent(ops)
        agreements += _independent(hermitian_coords(ops)) == exact
        dependent += not exact
        wide += k > d * d
    _report(
        "independence oracle agreement, Hermitian coordinates",
        agreements == 100,
        f"{agreements}/100 cases agree ({dependent} dependent, {wide} with K > d^2)",
    )
    assert agreements == 100
