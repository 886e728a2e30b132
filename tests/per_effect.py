"""Per-effect reference for the batched spectral pass and certificate mixture (test-only).

One eigensolve per effect in Python loops, pair operators by
``np.outer``, a full-matrix independence test, and the effect-by-effect
validator: the computations ``classify``, ``extremality_report``,
``spectral_relabel`` and ``validate`` made before they were batched, and
:func:`spectral_blocks` for the term vectors of ``povm._spectral_terms``.
``extremality_report`` here keeps the complex SVD of the pair operators
v_k v_l^H, which are not Hermitian for k != l; the library tests their
isometric image in real Hermitian coordinates instead.
Likewise one ``relabel`` and one distribution per certificate component:
what ``reconstruction`` and ``statistics_equivalence`` computed before
they became one relabeling of the joint POVM.  The batched code is
checked against these.
"""

from dataclasses import dataclass

import numpy as np

from split_tree import find_effect_dependence, linearly_independent
from povm_forge import (
    DEFAULT_TOL,
    NOT_EXTREMAL,
    PovmClass,
    eig_herm,
    outcome_probabilities,
    prune_zero_effects,
    random_density_matrix,
    rank_of,
    relabel,
)
from povm_forge.errors import NotHermitianError, NotPSDError
from povm_forge.linalg import banded_verdict


def fix_phases(vectors):
    """Column loop: rotate each column so its first entry above 1e-12 is real positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            out[:, k] = col * (pivot.conjugate() / abs(pivot))
    return out


def spectral_blocks(p, tol=DEFAULT_TOL):
    """Rows sqrt(lambda_k) v_k of each effect, one ``eig_herm`` per effect."""
    blocks = []
    for e in p.effects:
        dec = eig_herm(e, tol)
        cutoff = tol.rank_tol * max(1.0, float(np.abs(dec.eigenvalues).max()))
        rows = [
            np.sqrt(lam) * dec.eigenvectors[:, k]
            for k, lam in enumerate(dec.eigenvalues)
            if lam > cutoff
        ]
        blocks.append(np.stack(rows) if rows else np.zeros((0, p.dim), dtype=complex))
    return blocks


def outer_pair_operators(blocks):
    return [
        np.outer(block[k], block[l].conj())
        for block in blocks
        for k in range(block.shape[0])
        for l in range(block.shape[0])
    ]


@dataclass(frozen=True)
class Report:
    """The fields of ``ExtremalityReport``, its margin taken at once and kept as a field."""

    extremal: bool
    borderline: bool
    margin: float
    operator_count: int


def extremality_report(p, tol=DEFAULT_TOL):
    """Scale-free full-SVD independence test of the public pair operators."""
    pruned, _ = prune_zero_effects(p, tol)
    ops = outer_pair_operators(spectral_blocks(pruned, tol))
    result = linearly_independent([op / np.linalg.norm(op) for op in ops], tol)
    extremal, borderline = banded_verdict(result.margin, tol)
    return Report(extremal, borderline, result.margin, len(ops))


def classify(p, tol=DEFAULT_TOL):
    pruned, _ = prune_zero_effects(p, tol)
    ranks = [rank_of(e, tol) for e in pruned.effects]
    projection = [float(np.linalg.norm(e @ e - e)) <= tol.recon_tol for e in pruned.effects]
    rank1, pvm = all(r == 1 for r in ranks), all(projection)
    report = extremality_report(p, tol)
    if not report.extremal:
        label = NOT_EXTREMAL
    elif rank1:
        label = "a"
    elif pvm:
        label = "b"
    elif (
        all(r == 1 or q for r, q in zip(ranks, projection))
        and find_effect_dependence(pruned, tol) is None
    ):
        label = "c"
    else:
        label = "d"
    return PovmClass(rank1, pvm, label, tuple(ranks), report)


def spectral_relabel(p, tol=DEFAULT_TOL):
    """(rank-1 effects, source outcome of each) in (outcome, term) order; a zero effect has none."""
    pieces, sources = [], []
    for j, e in enumerate(p.effects):
        if np.linalg.norm(e) <= tol.zero_effect_tol:
            continue
        dec = eig_herm(e, tol)
        cutoff = tol.rank_tol * max(1.0, float(np.abs(dec.eigenvalues).max()))
        for k in range(dec.eigenvalues.shape[-1]):
            lam = float(dec.eigenvalues[k])
            if lam > cutoff:
                v = dec.eigenvectors[:, k]
                pieces.append(lam * np.outer(v, v.conj()))
                sources.append(j)
    return np.stack(pieces), np.asarray(sources)


def validate(p, tol=DEFAULT_TOL):
    """Effect by effect: Hermitian, then PSD, then bounded by the identity."""
    for j, e in enumerate(p.effects):
        deviation = float(np.max(np.abs(e - e.conj().T)))
        if deviation > tol.herm_tol:
            raise NotHermitianError(
                f"effect {j}: matrix deviates from Hermitian symmetry by {deviation:.3e} "
                f"(herm_tol = {tol.herm_tol:.3e})"
            )
        w = np.linalg.eigvalsh(e)
        if w[0] < -tol.psd_tol:
            raise NotPSDError(f"effect {j} is not PSD: smallest eigenvalue {w[0]:.3e}", outcome=j)
        if w[-1] > 1.0 + tol.psd_tol:
            raise NotPSDError(
                f"effect {j} exceeds the identity: largest eigenvalue {w[-1]:.6g}", outcome=j
            )


def reconstruction(cert):
    """sum_i weight_i * relabel(extremal_i, relabel_i), one component at a time."""
    out = np.zeros_like(cert.target.effects)
    for comp in cert.components:
        out = out + comp.weight * relabel(comp.extremal, comp.relabel).effects
    return out


def statistics_deviations(cert, trials, seed):
    """Per state: max |direct - mixed| with the mixture pushed forward component by component."""
    rng = np.random.default_rng(seed)
    deviations = np.empty(trials)
    for trial in range(trials):
        rho = random_density_matrix(cert.target.dim, rng)
        direct = outcome_probabilities(cert.target, rho)
        mixed = np.zeros_like(direct)
        for comp in cert.components:
            q = outcome_probabilities(comp.extremal, rho)
            np.add.at(mixed, comp.relabel.targets, comp.weight * q)
        deviations[trial] = float(np.max(np.abs(direct - mixed)))
    return deviations
