#!/usr/bin/env python3
"""Decompose rank-1 POVMs pushed off the identity and count verified certificates.

Input i is ``random_povm(d, d^2 + 1 + i % 5, 300000 + i, rank=1)`` with
d = 3 + i % 3, and eps * H / |H|_F added to effect 0 for each eps in
{3, 5, 8} * 1e-9, where H = G G^* and G is a complex (d, d) Gaussian drawn
from ``default_rng(300000 + i)``.  The effects then sum to I only within
about eps.  Each input ends one of three ways: ``decompose`` returns a
certificate that ``verify_certificate`` passes (verified), it raises
``NonConvergenceError`` (missed), or it returns a certificate that fails
verification (unsound).  The script exits 1 if any certificate is unsound.
"""

import argparse
import time

import numpy as np

from povm_forge import Povm, decompose, random_povm, verify_certificate
from povm_forge.errors import NonConvergenceError

EPSILONS = (3e-9, 5e-9, 8e-9)


def shifted(i: int, eps: float) -> Povm:
    d = 3 + i % 3
    seed = 300000 + i
    p = random_povm(d, d * d + 1 + i % 5, seed, rank=1)
    g = np.random.default_rng(seed).standard_normal((d, 2 * d)).view(np.complex128)
    h = g @ g.conj().T
    effects = np.array(p.effects)
    effects[0] += eps * h / np.linalg.norm(h)
    return Povm(effects)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cases", type=int, default=300, help="seeds i, each at three eps (default 300)"
    )
    args = parser.parse_args()

    verified = missed = 0
    unsound = []
    start = time.perf_counter()
    for i in range(args.cases):
        for eps in EPSILONS:
            try:
                cert = decompose(shifted(i, eps))
            except NonConvergenceError:
                missed += 1
                continue
            report = verify_certificate(cert)
            if report.passed:
                verified += 1
            else:
                unsound.append((i, eps, report.failures))
    elapsed = time.perf_counter() - start

    print(f"inputs:    {3 * args.cases}")
    print(f"verified:  {verified}")
    print(f"missed:    {missed} (NonConvergenceError)")
    print(f"unsound:   {len(unsound)} (returned certificates that fail verify_certificate)")
    for i, eps, failures in unsound:
        print(f"  i={i} eps={eps:.0e}: {failures[0]}")
    print(f"time:      {elapsed:.1f} s")
    if unsound:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
