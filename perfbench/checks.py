"""Correctness checks that do not trust the library's own verifier.

Each check works on plain numpy arrays (or the parsed JSON documents the
CLI writes) and returns a failure message, or None when the output is
right.  Thresholds are fixed here, at the budgets the library documents
(recon_tol 1e-8, indep_tol 1e-9), so a looser program tolerance shows up
as a failed check.
"""

from __future__ import annotations

import numpy as np

RECON_TOL = 1e-8  # Frobenius budget for sums and reconstructions
PSD_TOL = 1e-9  # smallest eigenvalue allowed below zero
RANK1_TOL = 1e-7  # second singular value over the first, for rank 1
INDEP_TOL = 1e-9  # smallest singular value over the largest, for independence


def effects_from_doc(doc: dict) -> np.ndarray:
    """(n, d, d) complex stack from a POVM document {"dim", "effects": [{"re", "im"}]}."""
    return np.array([np.asarray(e["re"]) + 1j * np.asarray(e["im"]) for e in doc["effects"]])


def povm_failure(effects: np.ndarray, rank1: bool = False, independent: bool = False) -> str | None:
    """Hermitian PSD effects summing to I; optionally rank 1 and linearly independent."""
    if not np.all(np.isfinite(effects)):
        return "non-finite effect entries"
    n, d, _ = effects.shape
    if np.max(np.abs(effects - effects.conj().transpose(0, 2, 1))) > RECON_TOL:
        return "effects are not Hermitian"
    residual = np.linalg.norm(effects.sum(axis=0) - np.eye(d))
    if residual > RECON_TOL:
        return f"effects sum to I with residual {residual:.3e}"
    for j, e in enumerate(effects):
        w = np.linalg.eigvalsh(e)
        if w[0] < -PSD_TOL:
            return f"effect {j} has eigenvalue {w[0]:.3e}"
        if rank1:
            s = np.linalg.svd(e, compute_uv=False)
            if s[0] == 0.0 or (d > 1 and s[1] > RANK1_TOL * s[0]):
                return f"effect {j} is not rank 1"
    if independent:
        s = np.linalg.svd(effects.reshape(n, d * d).T, compute_uv=False)
        if n > d * d or s[-1] <= INDEP_TOL * s[0]:
            return "effects are linearly dependent"
    return None


def certificate_failure(target: np.ndarray, components) -> str | None:
    """Check a decomposition: [(weight, effects, targets)] against ``target``.

    Weights must be positive and sum to one, each component must be a
    rank-1 POVM with linearly independent effects (hence extremal), and
    sum_i w_i relabel(E_i) must equal the target effect by effect.
    """
    if not components:
        return "certificate has no components"
    weights = np.array([w for w, _, _ in components])
    if np.any(weights <= 0.0):
        return "non-positive weight"
    if abs(weights.sum() - 1.0) > RECON_TOL:
        return f"weights sum to {weights.sum():.12g}"
    mixed = np.zeros_like(target)
    for i, (w, effects, targets) in enumerate(components):
        failure = povm_failure(effects, rank1=True, independent=True)
        if failure:
            return f"component {i}: {failure}"
        targets = np.asarray(targets)
        if targets.shape != (effects.shape[0],) or targets.min() < 0 or targets.max() >= len(target):
            return f"component {i}: bad relabel map"
        np.add.at(mixed, targets, w * effects)
    residual = float(np.max(np.linalg.norm(mixed - target, axis=(1, 2))))
    if residual > RECON_TOL:
        return f"reconstruction residual {residual:.3e}"
    return None


def certificate_components(cert) -> list:
    """[(weight, effects, targets)] from a library certificate object."""
    return [
        (c.weight, np.array(c.extremal.effects), np.array(c.relabel.targets))
        for c in cert.components
    ]


def certificate_doc_components(doc: dict) -> list:
    """[(weight, effects, targets)] from a certificate document (1-based maps)."""
    return [
        (float(c["weight"]), effects_from_doc(c["extremal"]), np.asarray(c["relabel"]) - 1)
        for c in doc["components"]
    ]
