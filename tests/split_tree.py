"""Reference decomposition by recursive mixture splits (test-only).

Splits along a dependence until every leaf is independent, which takes
at least 2^(N - d^2) - 1 splits for N rank-1 terms: keep N small.  The
peel in ``decompose`` is checked against it.
"""

from povm_forge import (
    DEFAULT_TOL,
    CertificateComponent,
    DecompositionCertificate,
    prune_zero_effects,
    spectral_relabel,
    split_mixture,
    validate,
)
from povm_forge.extremality import find_effect_dependence


def split_tree(p, tol=DEFAULT_TOL) -> DecompositionCertificate:
    leaves = []

    def recurse(q, qmap, weight):
        q, keep = prune_zero_effects(q, tol)
        lam = find_effect_dependence(q, tol)
        if lam is None:
            leaves.append(CertificateComponent(weight, q, keep.then(qmap)))
            return
        split = split_mixture(q, lam, tol)
        recurse(split.left, keep.then(qmap), weight * split.weight)
        recurse(split.right, keep.then(qmap), weight * (1.0 - split.weight))

    pruned, prune_map = prune_zero_effects(validate(p, tol), tol)
    root, spectral_map = spectral_relabel(pruned, tol)
    recurse(root, spectral_map.then(prune_map), 1.0)
    return DecompositionCertificate(target=p, components=tuple(leaves))
