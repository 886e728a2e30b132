#!/usr/bin/env python3
"""Decompose POVMs pushed off the identity and count verified certificates.

Sweep (default): input i is ``random_povm(d, d^2 + 1 + i % 5, 300000 + i,
rank=1)`` with d = 3 + i % 3, at each eps in {3, 5, 8} * 1e-9.

Grid (``--grid``): for d in 2..7, rank in {1, full}, eps in {0, 3, 8} * 1e-9
and s < ``--cases``, the input is ``random_povm(d, n, 500000 + 97 d + s)``
with n = d^2 + 1 + s % 5 at rank 1 and n = d + 2 + s % 4 at full rank.

Either way eps * H / |H|_F is added to effect 0, where H = G G^* and G is a
complex (d, d) Gaussian drawn from ``default_rng(seed)`` with the input's
seed.  The effects then sum to I only within about eps.  Each input ends
one of four ways: ``decompose`` returns a certificate that
``verify_certificate`` passes (verified), it raises ``NonConvergenceError``
(missed), it returns a certificate that fails verification (unsound), or it
refuses the input as invalid, say ``NotNormalizedError`` once recon_tol is
below eps (refused).  Each missed or unsound input's label is printed under
its count, and the refused inputs' errors by type.  ``--tol-scale X`` runs
``decompose`` and ``verify_certificate`` under ``DEFAULT_TOL.scaled(X)``; the
inputs do not change.  The script exits 1 if any certificate is unsound.
"""

import argparse
import time
from collections import Counter

import numpy as np

from povm_forge import DEFAULT_TOL, Povm, decompose, random_povm, verify_certificate
from povm_forge.errors import NonConvergenceError, PovmForgeError

EPSILONS = (3e-9, 5e-9, 8e-9)
GRID_EPSILONS = (0.0, 3e-9, 8e-9)


def shifted(d: int, n: int, seed: int, eps: float, rank: int | None = 1) -> Povm:
    p = random_povm(d, n, seed, rank=rank)
    g = np.random.default_rng(seed).standard_normal((d, 2 * d)).view(np.complex128)
    h = g @ g.conj().T
    effects = np.array(p.effects)
    effects[0] += eps * h / np.linalg.norm(h)
    return Povm(effects)


def sweep(cases: int):
    """(label, input) of the sweep: seeds i < ``cases``, each at three eps."""
    for i in range(cases):
        d = 3 + i % 3
        for eps in EPSILONS:
            yield f"i={i} eps={eps:.0e}", shifted(d, d * d + 1 + i % 5, 300000 + i, eps)


def grid(cases: int):
    """(label, input) of the grid: d = 2..7, rank 1 and full, three eps, s < ``cases``."""
    for d in range(2, 8):
        for rank in (1, None):
            for eps in GRID_EPSILONS:
                for s in range(cases):
                    n = d * d + 1 + s % 5 if rank else d + 2 + s % 4
                    seed = 500000 + 97 * d + s
                    label = f"d={d} n={n} rank={rank or 'full'} seed={seed} eps={eps:.0e}"
                    yield label, shifted(d, n, seed, eps, rank)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--grid", action="store_true", help="run the grid instead of the sweep"
    )
    parser.add_argument(
        "--cases",
        type=int,
        help="sweep: seeds i, each at three eps (default 300); "
        "grid: values of s per (d, rank, eps) (default 40)",
    )
    parser.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="run decompose and verify_certificate under DEFAULT_TOL.scaled(X) (default 1)",
    )
    args = parser.parse_args()
    cases = args.cases if args.cases is not None else (40 if args.grid else 300)
    try:
        tol = DEFAULT_TOL.scaled(args.tol_scale)
    except ValueError as exc:
        parser.error(str(exc))

    inputs = verified = 0
    missed, unsound, refused = [], [], Counter()
    start = time.perf_counter()
    for label, p in (grid if args.grid else sweep)(cases):
        inputs += 1
        try:
            cert = decompose(p, tol)
        except NonConvergenceError:
            missed.append(label)
            continue
        except PovmForgeError as exc:  # invalid under tol
            refused[type(exc).__name__] += 1
            continue
        report = verify_certificate(cert, tol)
        if report.passed:
            verified += 1
        else:
            unsound.append((label, report.failures))
    elapsed = time.perf_counter() - start

    print(f"tol scale: {args.tol_scale:g}")
    print(f"inputs:    {inputs}")
    print(f"verified:  {verified}")
    print(f"missed:    {len(missed)} (NonConvergenceError)")
    for label in missed:
        print(f"  {label}")
    print(f"unsound:   {len(unsound)} (returned certificates that fail verify_certificate)")
    for label, failures in unsound:
        print(f"  {label}: {failures[0]}")
    print(f"refused:   {sum(refused.values())} (invalid under these tolerances)")
    for name, count in sorted(refused.items()):
        print(f"  {name}: {count}")
    print(f"time:      {elapsed:.1f} s")
    if unsound:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
