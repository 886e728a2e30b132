"""Per-component reference for ``verify_certificate`` (test-only).

The verifier as it was before certificates held one term stack: every
component's effects concatenated into one stack, judged whole by one
``rank1_failures`` call, and the reconstruction mixed from that stack by one
(outcomes x joint outcomes) matrix M with M[f_i(k), (i, k)] = weight_i.  It
reads only the public ``components``, so the stack-wise verifier is checked
against it.
"""

import numpy as np

from povm_forge import DEFAULT_TOL, VerificationReport
from povm_forge.extremality import rank1_failures


def reconstruction(cert):
    """sum_(i,k) weight_i E_i[k] on outcome f_i(k): one matmul over the concatenated components."""
    effects = np.concatenate([comp.extremal.effects for comp in cert.components])
    targets = np.concatenate([comp.relabel.targets for comp in cert.components])
    sizes = [comp.extremal.n_outcomes for comp in cert.components]
    m = np.zeros((cert.target.n_outcomes, targets.size))
    m[targets, np.arange(targets.size)] = np.repeat([comp.weight for comp in cert.components], sizes)
    flat = effects.reshape(targets.size, -1).view(np.float64)
    return (m @ flat).view(np.complex128).reshape(cert.target.effects.shape)


def verify_certificate(cert, tol=DEFAULT_TOL):
    """Weights, one batched ``rank1_failures`` over every component, and the reconstruction."""
    failures = []
    weights = np.array([comp.weight for comp in cert.components], dtype=np.float64)
    weight_residual = abs(float(weights.sum()) - 1.0)
    if not weight_residual <= tol.recon_tol:
        failures.append(f"weights sum to 1 with residual {weight_residual:.3e}")
    if not np.all(weights > 0.0):
        failures.append("certificate contains a non-positive or NaN weight")
    if not np.isfinite(cert.target.effects).all():
        failures.append("target has a non-finite entry")
    component_failures = rank1_failures(
        np.concatenate([comp.extremal.effects for comp in cert.components]),
        [comp.extremal.n_outcomes for comp in cert.components],
        tol,
    )
    for i, failure in enumerate(component_failures):
        if failure is not None:
            failures.append(f"component {i} is not an extremal rank-1 POVM: {failure}")
    with np.errstate(invalid="ignore", over="ignore"):
        residuals = np.linalg.norm(reconstruction(cert) - cert.target.effects, axis=(1, 2))
    worst = float(residuals.max())
    if not worst <= tol.recon_tol:
        failures.append(f"reconstruction residual {worst:.3e} exceeds recon_tol")
    return VerificationReport(
        weight_sum_residual=weight_residual,
        effect_residuals=residuals,
        component_extremal=tuple(failure is None for failure in component_failures),
        passed=not failures,
        failures=tuple(failures),
    )
