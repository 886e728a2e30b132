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
from functools import cached_property, partial

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InternalContradictionError,
    MapSizeMismatchError,
    NonConvergenceError,
    NotExtremalError,
    OutOfRangeError,
)
from .extremality import is_extremal_rank1, pair_independence, rank1_failures
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    effect_ranks,
    hermitian_coords,
    independence_cutoff,
    normalizer,
)
from .povm import (
    Povm,
    RelabelMap,
    _checked,
    _json_numbers,
    _spectral_terms,
    _spectrum,
    validate,
)

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
    Construction checks only that each component fits the target: its
    dimension and its map's source and target sizes.
    """

    target: Povm
    components: tuple[CertificateComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise EmptyInputError("a certificate needs at least one component")
        for i, comp in enumerate(self.components):
            if comp.extremal.dim != self.target.dim:
                raise DimensionMismatchError(
                    f"component {i} has dimension {comp.extremal.dim}, the target {self.target.dim}"
                )
            if comp.relabel.source_size != comp.extremal.n_outcomes:
                raise MapSizeMismatchError(
                    f"component {i}: map source size {comp.relabel.source_size} "
                    f"!= outcome count {comp.extremal.n_outcomes}"
                )
            if comp.relabel.target_size != self.target.n_outcomes:
                raise MapSizeMismatchError(
                    f"component {i} maps onto {comp.relabel.target_size} outcomes, "
                    f"the target has {self.target.n_outcomes}"
                )

    @cached_property
    def _component_effects(self) -> np.ndarray:
        """The components' effect stacks, concatenated once and read-only.

        :func:`verify_certificate` judges it, and the reconstruction and the
        mixed statistics read it through :attr:`_relabeling`.
        """
        effects = np.concatenate([comp.extremal.effects for comp in self.components])
        effects.setflags(write=False)
        return effects

    @cached_property
    def _relabeling(self) -> np.ndarray:
        """Weighted relabeling matrix M, (target outcomes x joint outcomes), read-only.

        Joint outcome (i, k) is outcome k of component i, in the order of
        :attr:`_component_effects`; M[f_i(k), (i, k)] = weight_i, with f_i the
        component's map.  Target effect j is then sum_(i,k) M[j, (i, k)] E_i[k].
        """
        sizes = [comp.extremal.n_outcomes for comp in self.components]
        targets = np.concatenate([comp.relabel.targets for comp in self.components])
        m = np.zeros((self.target.n_outcomes, targets.size))
        m[targets, np.arange(targets.size)] = np.repeat(
            [comp.weight for comp in self.components], sizes
        )
        m.setflags(write=False)
        return m

    def reconstruction(self) -> np.ndarray:
        """Effect stack of the weighted relabeled mixture (read-only).

        M (:attr:`_relabeling`) applied to a float view of the component
        effects, built once per certificate, so that ``decompose``'s rebuild
        check and :func:`verify_certificate` share it.
        """
        return self._reconstruction

    @cached_property
    def _reconstruction(self) -> np.ndarray:
        effects = self._component_effects
        flat = effects.reshape(effects.shape[0], -1).view(np.float64)  # (re, im) pairs
        out = (self._relabeling @ flat).view(np.complex128).reshape(-1, *effects.shape[1:])
        out.setflags(write=False)
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
                comps.append(
                    CertificateComponent(
                        extremal=Povm.from_jsonable(entry["extremal"]),
                        weight=float(_json_numbers(entry["weight"], "iuf", "weight", scalar=True)),
                        relabel=RelabelMap.from_jsonable(entry["relabel"], target.n_outcomes),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate document: {exc}") from exc
        return cls(target=target, components=tuple(comps))


def _factor(columns: np.ndarray, tol: ToleranceConfig):
    """Null basis of ``columns`` under the banded independence rule, and a solver for them.

    The solver maps a right-hand side to its least-squares coefficients in the
    columns, null directions left out.  A square set that passes the rule has
    no null basis and is its own solver (``np.linalg.solve``): it takes only
    its singular values.  Any other set takes a full SVD, whose right singular
    vectors past the rank are the null basis.
    """
    rows, size = columns.shape
    cutoff = independence_cutoff(tol)
    if size == rows:
        s = np.linalg.svd(columns, compute_uv=False)
        if s[-1] > cutoff * s[0]:
            return np.empty((size, 0)), partial(np.linalg.solve, columns)
    u, s, vh = np.linalg.svd(columns, full_matrices=size > rows)
    rank = int(np.count_nonzero(s > cutoff * s[0]))
    u, s, vh, null = u[:, :rank], s[:rank], vh[:rank], vh[rank:].T
    return null, lambda rhs: vh.T @ ((u.T @ rhs) / s)


def _shrink(x: np.ndarray, support: np.ndarray, null: np.ndarray, floor: float):
    """Drop the coordinates at or below ``floor`` from the support and null basis.

    A Householder reflection moves each dropped row into the first column,
    which goes too; the other columns stay orthonormal.  A row already at
    rounding level moves along no null direction and is dropped alone.
    """
    gone = x[support] <= floor
    if not gone.any():
        return support, null
    x[support[gone]] = 0.0
    for r in np.flatnonzero(gone).tolist():
        h = null[r].copy()
        norm = float(np.linalg.norm(h))
        # Rows of an orthonormal basis have norms up to 1.  An earlier
        # reflection in this call leaves a row that depended on its row at
        # about 1e-16; reflecting on that would remove a valid null direction.
        if norm > 1e-12:
            h[0] += np.copysign(norm, h[0])
            null = (null - np.outer(null @ h, h * (2.0 / (h @ h))))[:, 1:]
    kept = ~gone
    return support[kept], null[kept]


def _walk_to_vertex(columns, identity, x, support, null, floor, tol):
    """Vertex reached from ``x`` along null directions.

    Returns its support, its coefficients refit by least squares to sum
    to I exactly (debris dropped), and the solver of its columns.
    """
    x = x.copy()
    with np.errstate(divide="ignore"):  # x / 0 at a zero entry of z, where np.where puts inf
        while True:
            while null.shape[1]:
                z = null[:, 0]
                ratios = np.where(z != 0.0, x[support] / np.abs(z), np.inf)
                j = int(np.argmin(ratios))
                # to the nearer facet along +z or -z
                x[support] += (ratios[j] if z[j] < 0.0 else -ratios[j]) * z
                x[support[j]] = 0.0
                support, null = _shrink(x, support, null, floor)
            null, solve = _factor(columns[:, support], tol)
            if not null.shape[1]:
                x[support] = solve(identity)
                size = support.size
                support, null = _shrink(x, support, null, floor)
                if support.size == size:
                    return support, x[support], solve


def _debris_floor(dim: int, tol: ToleranceConfig) -> float:
    """Norm at or below which a d x d term is debris: no eigenvalue of it clears the rank cutoff."""
    return max(tol.zero_effect_tol, np.sqrt(dim) * tol.rank_tol)


def _normalized_terms(
    p: Povm, ranks: np.ndarray, plain: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 terms |psi><psi| of the nonzero effects, made to sum to I, and their outcomes.

    The effects are expanded once into term vectors psi by
    :func:`_spectral_terms`, from their ``ranks`` and ``plain`` flags
    (:func:`linalg.effect_ranks`).  Those with
    |psi|^2 at or below :func:`_debris_floor` (every term of a zero effect among
    them) are dropped before S^{-1/2} from :func:`normalizer`, S the sum of the
    retained terms, is applied to each psi.
    """
    sources, psi = _spectral_terms(p.effects, ranks, plain, tol)
    kept = np.einsum("ij,ij->i", psi.conj(), psi).real > _debris_floor(p.dim, tol)
    sources, psi = sources[kept], psi[kept]
    psi = psi @ normalizer(psi.T @ psi.conj(), len(psi), tol).T
    return psi[:, :, None] * psi.conj()[:, None, :], sources


def decompose(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> DecompositionCertificate:
    """Decompose a valid POVM into relabeled extremal rank-1 components.

    One validator pass (``povm._checked``) checks the input (an invalid one
    raises what :func:`validate` raises) and gives its eigenvalues
    (``povm._eigenvalues``: certified stand-ins for the rank-1 effects the
    bound settles).  From their :func:`linalg.effect_ranks` the nonzero
    effects are expanded once into rank-1 spectral terms
    (:func:`_spectral_terms`: eigenvectors only for effects of rank >= 2).  The
    terms above the debris floor are made to sum to I by one congruence of their
    vectors (:func:`_normalized_terms`), so the peel starts on I.  In the
    coefficients x_j of the unit-normalized terms E_j the target is
    x_j = |E_j|.  Each step walks from x to a vertex v (a support that passes
    the test of ``is_extremal_rank1``), refits v to sum to I exactly, emits
    the largest share t of v in x and goes on with (x - t*v)/(1 - t); the
    null space is factored once and updated as coordinates leave the support.
    The E_j enter as their d^2 :func:`hermitian_coords`.  Step N - rank + 1
    (rank: the real rank of the E_j), if reached, takes t = 1.  Every
    component is thus what :func:`verify_certificate` asks of it: a POVM of
    rank-1, linearly independent effects.  ``NonConvergenceError`` means the
    mixture misses the input: a refit vertex sums to I only beyond recon_tol,
    or the certificate's reconstruction, built once and read again by
    :func:`verify_certificate`, is off the input by more than recon_tol.
    """
    (found,), w = _checked(p.effects, (p.n_outcomes,), tol)
    if found:
        raise found[0]
    terms, targets = _normalized_terms(p, *effect_ranks(w, tol), tol)
    dim = p.dim
    columns = hermitian_coords(terms).T
    norms = np.linalg.norm(columns, axis=0)
    columns = columns / norms
    floor = _debris_floor(dim, tol)

    identity = hermitian_coords(np.eye(dim))
    x = np.where(norms > floor, norms, 0.0)
    support = np.flatnonzero(x)
    null, _ = _factor(columns[:, support], tol)
    components: list[CertificateComponent] = []
    remaining = 1.0
    for steps_left in range(null.shape[1], -1, -1):  # the last step takes its vertex whole
        vertex_support, vertex, solve = _walk_to_vertex(
            columns, identity, x, support, null, floor, tol
        )
        miss = float(np.linalg.norm(columns[:, vertex_support] @ vertex - identity))
        if not miss <= tol.recon_tol:  # the remainder had left its constraint
            raise NonConvergenceError(
                f"peel result misses its input: component {len(components)} sums to I "
                f"only within {miss:.3e} > recon_tol"
            )
        ratios = x[vertex_support] / vertex
        j = int(np.argmin(ratios))
        last = not steps_left or vertex_support.size == support.size
        t = 1.0 if last else min(float(ratios[j]), 1.0)
        coefficients = vertex / norms[vertex_support]
        components.append(
            CertificateComponent(
                weight=remaining * t,
                extremal=Povm(terms[vertex_support] * coefficients[:, None, None]),
                relabel=RelabelMap(vertex_support.size, p.n_outcomes, targets[vertex_support]),
            )
        )
        if t == 1.0:
            break
        # The rest of x is (x - t*v)/(1 - t).  Off the vertex support that is
        # exact; on it, solving the sum constraint avoids the cancellation of
        # x - t*v, which would grow every rounding error by 1/(1 - t) a step.
        x[vertex_support] = 0.0
        x /= 1.0 - t
        x[vertex_support] = solve(identity - columns @ x)
        x[vertex_support[j]] = 0.0
        remaining *= 1.0 - t
        support, null = _shrink(x, support, null, floor)
    cert = DecompositionCertificate(target=p, components=tuple(components))
    # judges what the congruence, the floor, the rank cutoff and the last step left out
    residual = float(np.linalg.norm(cert.reconstruction() - p.effects, axis=(1, 2)).max())
    if not residual <= tol.recon_tol:
        raise NonConvergenceError(f"peel result misses its input by {residual:.3e} > recon_tol")
    return cert


def extremal_to_rank1(
    p: Povm, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Povm, RelabelMap]:
    """Write an extremal POVM as a relabeling of an extremal rank-1 POVM.

    The input must be a valid POVM (else its first :func:`violations` is
    raised); one ``povm._spectrum`` pass gives the verdict and the expansion.
    That expansion of an extremal input is extremal; a failure on the output
    (only through tolerance inconsistency) raises ``InternalContradictionError``.
    """
    back, effects, ranks, plain, _ = _spectrum(validate(p, tol), tol)
    if not pair_independence(effects, ranks, plain, tol).extremal:
        raise NotExtremalError("input POVM is not extremal")
    sources, psi = _spectral_terms(effects, ranks, plain, tol)
    rank1 = Povm(psi[:, :, None] * psi.conj()[:, None, :])
    if not is_extremal_rank1(rank1, tol):
        raise InternalContradictionError(
            "spectral expansion of an extremal POVM failed the rank-1 "
            "extremality test (tolerance inconsistency)"
        )
    return rank1, RelabelMap(sources.size, back.source_size, sources)


@dataclass(frozen=True)
class VerificationReport:
    """Certificate check results; ``passed`` aggregates all lines.

    Residuals are Frobenius norms; ``component_extremal`` holds one
    verdict per component: True iff it is a POVM (every effect within
    [0, I], the sum I within recon_tol) of rank-1, linearly independent
    nonzero effects.  Each False comes with a failure line that gives the
    first reason, from :func:`rank1_failures`: not finite, all zero, not
    Hermitian, all of rank 0, not rank-1, outside [0, I], not summing to
    I, or dependent.  The non-finite, Hermitian, [0, I] and sum reasons
    are the component's :func:`violations` messages.
    """

    weight_sum_residual: float
    effect_residuals: np.ndarray
    component_extremal: tuple[bool, ...]
    passed: bool
    failures: tuple[str, ...] = field(default=())


def verify_certificate(
    cert: DecompositionCertificate, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Check a certificate standalone: weights, components, reconstruction.

    Every component must be an extremal rank-1 POVM, judged for all of
    them in one batched :func:`rank1_failures` call.  A malformed
    certificate (non-finite weights, target or components, or a component
    that is not a POVM or not rank-1) gives failure lines, not an
    exception; every comparison is written so that NaN fails it.
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

    component_failures = rank1_failures(
        cert._component_effects, [comp.extremal.n_outcomes for comp in cert.components], tol
    )
    for i, failure in enumerate(component_failures):
        if failure is not None:
            failures.append(f"component {i} is not an extremal rank-1 POVM: {failure}")

    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite entry: NaN, which fails
        residuals = np.linalg.norm(cert.reconstruction() - cert.target.effects, axis=(1, 2))
    worst = float(residuals.max())
    if not worst <= tol.recon_tol:
        failures.append(f"reconstruction residual {worst:.3e} exceeds recon_tol")

    return VerificationReport(
        weight_sum_residual=float(weight_residual),
        effect_residuals=residuals,
        component_extremal=tuple(failure is None for failure in component_failures),
        passed=not failures,
        failures=tuple(failures),
    )


def outcome_probabilities(p: Povm, rho: np.ndarray) -> np.ndarray:
    """Outcome distributions q_j = tr(rho A(j)) of a state or a (..., d, d) stack of states.

    tr(rho A) = sum_ab rho[b, a] A[a, b]: one matmul of the flattened transposed
    states against the flattened effects, which are reshaped without a copy.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d = p.dim
    if rho.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"state must be {d}x{d}, got shape {rho.shape}")
    return _probabilities(p.effects, rho)


def _probabilities(effects: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(rho E) for each effect of an (n, d, d) stack and each state of a (..., d, d) one."""
    d = effects.shape[-1]
    states = rho.swapaxes(-1, -2).reshape(*rho.shape[:-2], d * d)
    return (states @ effects.reshape(effects.shape[0], d * d).T).real


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state: normalized G G* with complex standard normal G."""
    return _random_states(1, d, rng)[0]


def _random_states(count: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of :func:`random_density_matrix` from one generator call, same stream order."""
    z = rng.standard_normal((count, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    w = g @ g.conj().swapaxes(1, 2)
    return w / np.trace(w, axis1=1, axis2=2).real[:, None, None]


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

    For seeded random states rho, the target's distribution is compared
    with the mixture's: the components' outcome probabilities tr(rho E_i[k])
    times the transposed weighted relabeling matrix M (M[f_i(k), (i, k)] =
    weight_i).  Passes iff the max absolute deviation over all trials is
    <= recon_tol (vacuously for trials=0); a non-finite entry in the
    target or a component makes the deviations NaN, which fails.
    """
    if trials < 0:
        raise OutOfRangeError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    states = _random_states(trials, cert.target.dim, rng)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite entry: NaN, which fails
        mixed = _probabilities(cert._component_effects, states) @ cert._relabeling.T
        deviations = np.abs(outcome_probabilities(cert.target, states) - mixed).max(axis=1)
    max_dev = float(deviations.max()) if trials else 0.0
    return StatisticsReport(
        trials=trials,
        deviations=deviations,
        max_deviation=max_dev,
        passed=max_dev <= tol.recon_tol,
    )
