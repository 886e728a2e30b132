"""Decomposition of POVMs into relabeled mixtures of extremal rank-1 POVMs.

``decompose`` realizes the package's central claim: every finite-outcome
POVM equals a convex combination of extremal rank-1 POVMs, each pushed
through a relabeling map.  The input is rewritten as a relabeling of a
rank-1 POVM E_1..E_N.  The POVMs {y_j E_j} (y >= 0, sum_j y_j E_j = I)
form a polytope whose vertices are the extremal rank-1 POVMs (independent
supports); a Caratheodory peel writes y = 1 as a mixture of at most
N - rank + 1 of them.  The result is a verifiable certificate;
verification and measurement-statistics checks live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalContradictionError,
    NonConvergenceError,
    NotExtremalError,
    PovmForgeError,
)
from .extremality import is_extremal, is_extremal_rank1, independence_cutoff
from .linalg import DEFAULT_TOL, ToleranceConfig
from .povm import Povm, RelabelMap, prune_zero_effects, relabel, spectral_relabel, validate

__all__ = [
    "CertificateComponent",
    "DecompositionCertificate",
    "VerificationReport",
    "StatisticsReport",
    "decompose",
    "extremal_to_rank1",
    "verify_certificate",
    "outcome_probabilities",
    "statistics_equivalence",
    "random_density_matrix",
]


@dataclass(frozen=True)
class CertificateComponent:
    """One decomposition term: weight, extremal rank-1 POVM, relabeling map."""

    weight: float
    extremal: Povm
    relabel: RelabelMap


@dataclass(frozen=True)
class DecompositionCertificate:
    """Convex decomposition of ``target`` into relabeled extremal rank-1 POVMs.

    Invariant: sum_i weight_i * relabel(extremal_i, relabel_i)
    reconstructs ``target`` effect by effect, with weights summing to 1.
    """

    target: Povm
    components: tuple[CertificateComponent, ...]

    def reconstruction(self) -> np.ndarray:
        """Effect stack of the weighted relabeled mixture."""
        out = np.zeros_like(self.target.effects)
        for comp in self.components:
            out = out + comp.weight * relabel(comp.extremal, comp.relabel).effects
        return out

    def to_jsonable(self) -> dict:
        return {
            "target": self.target.to_jsonable(),
            "components": [
                {
                    "weight": comp.weight,
                    "extremal": comp.extremal.to_jsonable(),
                    "relabel": comp.relabel.to_jsonable(),
                }
                for comp in self.components
            ],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "DecompositionCertificate":
        try:
            target = Povm.from_jsonable(obj["target"])
            comps = []
            for entry in obj["components"]:
                extremal = Povm.from_jsonable(entry["extremal"])
                entries = entry["relabel"]
                if len(entries) != extremal.n_outcomes:
                    raise ValueError(
                        f"relabel map has {len(entries)} entries for a "
                        f"{extremal.n_outcomes}-outcome component"
                    )
                comps.append(
                    CertificateComponent(
                        weight=float(entry["weight"]),
                        extremal=extremal,
                        relabel=RelabelMap.from_jsonable(entries, target.n_outcomes),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate document: {exc}") from exc
        return cls(target=target, components=tuple(comps))


def _factor(columns: np.ndarray, tol: ToleranceConfig):
    """Null basis of ``columns`` under the banded independence rule, and the rest of their SVD."""
    u, s, vh = np.linalg.svd(columns, full_matrices=columns.shape[1] > columns.shape[0])
    rank = int(np.count_nonzero(s > independence_cutoff(tol) * s[0]))
    return vh[rank:].T, (u[:, :rank], s[:rank], vh[:rank])


def _solve(svd, rhs: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``rhs`` in the columns factored by ``svd``."""
    u, s, vh = svd
    return vh.T @ ((u.T @ rhs) / s)


def _shrink(x: np.ndarray, support: np.ndarray, null: np.ndarray, floor: float):
    """Drop the coordinates at or below ``floor`` from the support and null basis.

    A Householder reflection moves each dropped row into the first column,
    which goes too; the other columns stay orthonormal.
    """
    gone = np.flatnonzero(x[support] <= floor)
    x[support[gone]] = 0.0
    for r in gone:
        h = null[r].copy()
        norm = float(np.linalg.norm(h))
        if norm > 0.0:
            h[0] += np.copysign(norm, h[0])
            null = (null - np.outer(null @ h, h * (2.0 / (h @ h))))[:, 1:]
    return np.delete(support, gone), np.delete(null, gone, axis=0)


def _walk_to_vertex(columns, identity, x, support, null, floor, tol):
    """Vertex reached from ``x`` along null directions.

    Returns its support, its coefficients refit by least squares to sum
    to I exactly (debris dropped), and the SVD of its columns.
    """
    x = x.copy()
    while True:
        while null.shape[1]:
            z = null[:, 0]
            with np.errstate(divide="ignore"):
                ratios = np.where(z != 0.0, x[support] / np.abs(z), np.inf)
            j = int(np.argmin(ratios))
            # to the nearer facet along +z or -z
            x[support] += (ratios[j] if z[j] < 0.0 else -ratios[j]) * z
            x[support[j]] = 0.0
            support, null = _shrink(x, support, null, floor)
        null, svd = _factor(columns[:, support], tol)
        if not null.shape[1]:
            x[support] = _solve(svd, identity)
            size = support.size
            support, null = _shrink(x, support, null, floor)
            if support.size == size:
                return support, x[support], svd


def decompose(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> DecompositionCertificate:
    """Decompose a valid POVM into relabeled extremal rank-1 components.

    In the coefficients x_j of the unit-normalized rank-1 terms E_j the
    target is x_j = |E_j|.  Each step walks from x to a vertex v (a support
    that passes the test of ``is_extremal_rank1``), refits v to sum to I
    exactly, emits the largest share t of v in x and goes on with
    (x - t*v)/(1 - t).  The null space is factored once and updated as
    coordinates leave the support.  At most N - rank + 1 steps are
    possible (rank: the real rank of the E_j); more raise
    ``NonConvergenceError`` (it signals inconsistent tolerances), as does a
    mixture that misses the input by more than recon_tol.
    """
    p = validate(p, tol)
    pruned, prune_map = prune_zero_effects(p, tol)
    root, spectral_map = spectral_relabel(pruned, tol)
    targets = spectral_map.then(prune_map).targets
    dim = p.dim
    flat = root.effects.reshape(root.n_outcomes, -1)
    columns = np.concatenate([flat.real, flat.imag], axis=1).T
    norms = np.linalg.norm(columns, axis=0)
    columns = columns / norms
    # Coefficients (effect norms) at or below this are numerical debris: a
    # d x d effect that small has no eigenvalue clear of the rank cutoff, and
    # dropping it moves the reconstruction by at most its own norm.
    floor = max(tol.zero_effect_tol, np.sqrt(dim) * tol.rank_tol)

    identity = np.concatenate([np.eye(dim).ravel(), np.zeros(dim * dim)])
    x = np.where(norms > floor, norms, 0.0)
    support = np.flatnonzero(x)
    null, svd = _factor(columns[:, support], tol)
    # The input sums to I only within recon_tol: start from the nearest point
    # that sums to I exactly, so that every later solve is consistent.
    x[support] += _solve(svd, identity - columns @ x)
    support, null = _shrink(x, support, null, floor)
    max_steps = null.shape[1] + 1
    components: list[CertificateComponent] = []
    remaining = 1.0
    mixed = np.zeros(root.n_outcomes)  # coefficient of each E_j in the emitted mixture
    for _ in range(max_steps):
        vertex_support, vertex, svd = _walk_to_vertex(
            columns, identity, x, support, null, floor, tol
        )
        ratios = x[vertex_support] / vertex
        j = int(np.argmin(ratios))
        t = 1.0 if vertex_support.size == support.size else min(float(ratios[j]), 1.0)
        coefficients = vertex / norms[vertex_support]
        components.append(
            CertificateComponent(
                weight=remaining * t,
                extremal=Povm(root.effects[vertex_support] * coefficients[:, None, None]),
                relabel=RelabelMap(vertex_support.size, p.n_outcomes, targets[vertex_support]),
            )
        )
        mixed[vertex_support] += remaining * t * coefficients
        if t == 1.0:
            break
        # The rest of x is (x - t*v)/(1 - t).  Off the vertex support that is
        # exact; on it, solving the sum constraint avoids the cancellation of
        # x - t*v, which would grow every rounding error by 1/(1 - t) a step.
        x[vertex_support] = 0.0
        x /= 1.0 - t
        x[vertex_support] = _solve(svd, identity - columns @ x)
        x[vertex_support[j]] = 0.0
        remaining *= 1.0 - t
        support, null = _shrink(x, support, null, floor)
    else:
        raise NonConvergenceError(
            f"peel exceeded its bound of {max_steps} steps; "
            "tolerances are inconsistent for this input"
        )
    rebuilt = np.zeros_like(p.effects)  # the start projection can miss nearly dependent input
    np.add.at(rebuilt, targets, mixed[:, None, None] * root.effects)
    residual = float(np.linalg.norm(rebuilt - p.effects, axis=(1, 2)).max())
    if not residual <= tol.recon_tol:
        raise NonConvergenceError(f"peel result misses its input by {residual:.3e} > recon_tol")
    return DecompositionCertificate(target=p, components=tuple(components))


def extremal_to_rank1(
    p: Povm, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Povm, RelabelMap]:
    """Write an extremal POVM as a relabeling of an extremal rank-1 POVM.

    For extremal input the spectral expansion is itself extremal; this
    is asserted on the output, and a failure (possible only through
    tolerance inconsistency) raises ``InternalContradictionError``.
    """
    if not is_extremal(p, tol):
        raise NotExtremalError("input POVM is not extremal")
    rank1, rmap = spectral_relabel(p, tol)
    if not is_extremal_rank1(rank1, tol):
        raise InternalContradictionError(
            "spectral expansion of an extremal POVM failed the rank-1 "
            "extremality test (tolerance inconsistency)"
        )
    return rank1, rmap


@dataclass(frozen=True)
class VerificationReport:
    """Certificate check results; ``passed`` aggregates all lines.

    Residuals are Frobenius norms; ``component_extremal`` holds one
    verdict per component (False also covers components that are not
    rank-1 at all).
    """

    weight_sum_residual: float
    effect_residuals: np.ndarray
    component_extremal: tuple[bool, ...]
    passed: bool
    failures: tuple[str, ...] = field(default=())


def verify_certificate(
    cert: DecompositionCertificate, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Check a certificate standalone: weights, extremality, reconstruction.

    A malformed certificate (non-finite weights, target or components, or
    a component the extremality test cannot take) gives failure lines,
    not an exception; every comparison is written so that NaN fails it.
    """
    failures: list[str] = []
    weights = np.array([c.weight for c in cert.components], dtype=np.float64)
    weight_residual = abs(float(weights.sum()) - 1.0)
    if not weight_residual <= tol.recon_tol:
        failures.append(f"weights sum to 1 with residual {weight_residual:.3e}")
    if not np.all(weights > 0.0):
        failures.append("certificate contains a non-positive or NaN weight")
    if not np.isfinite(cert.target.effects).all():
        failures.append("target has a non-finite entry")

    verdicts = []
    for i, comp in enumerate(cert.components):
        try:
            ok = is_extremal_rank1(comp.extremal, tol)
        except PovmForgeError:  # not rank-1, non-finite, not Hermitian, all zero
            ok = False
        verdicts.append(ok)
        if not ok:
            failures.append(f"component {i} is not an extremal rank-1 POVM")

    residuals = np.linalg.norm(
        cert.reconstruction() - cert.target.effects, axis=(1, 2)
    )
    worst = float(residuals.max()) if residuals.size else 0.0
    if not worst <= tol.recon_tol:
        failures.append(f"reconstruction residual {worst:.3e} exceeds recon_tol")

    return VerificationReport(
        weight_sum_residual=float(weight_residual),
        effect_residuals=residuals,
        component_extremal=tuple(verdicts),
        passed=not failures,
        failures=tuple(failures),
    )


def outcome_probabilities(p: Povm, rho: np.ndarray) -> np.ndarray:
    """Outcome distribution q_j = tr(rho A(j)) for a state rho."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (p.dim, p.dim):
        raise DimensionMismatchError(
            f"state must be {p.dim}x{p.dim}, got shape {rho.shape}"
        )
    return np.einsum("ab,jba->j", rho, p.effects).real


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state: normalized G G* with complex standard normal G."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    return w / np.trace(w).real


@dataclass(frozen=True)
class StatisticsReport:
    """Per-trial deviations between direct and mixed-relabeled statistics."""

    trials: int
    deviations: np.ndarray
    max_deviation: float
    passed: bool


def statistics_equivalence(
    cert: DecompositionCertificate,
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> StatisticsReport:
    """Compare target statistics against the mixed-relabeled implementation.

    For seeded random states rho, the direct distribution of the target
    is compared with sum_i weight_i * (pushforward through relabel_i of
    the distribution of extremal_i).  Passes iff the max absolute
    deviation over all trials is <= recon_tol (vacuously for trials=0).
    """
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
    max_dev = float(deviations.max()) if trials else 0.0
    return StatisticsReport(
        trials=trials,
        deviations=deviations,
        max_deviation=max_dev,
        passed=max_dev <= tol.recon_tol,
    )
