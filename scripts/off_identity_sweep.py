#!/usr/bin/env python3
"""Decompose POVMs pushed off the identity and count verified certificates.

Sweep (default): input i is ``random_povm(d, d^2 + 1 + i % 5, 300000 + i,
rank=1)`` with d = 3 + i % 3, at each eps in {3, 5, 8} * 1e-9.

Grid (``--grid``): for d in 2..7, rank in {1, full}, eps in {0, 3, 8} * 1e-9
and s < ``--cases``, the input is ``random_povm(d, n, 500000 + 97 d + s)``
with n = d^2 + 1 + s % 5 at rank 1 and n = d + 2 + s % 4 at full rank.

Either way eps * H / |H|_F is added to effect 0, where H = G G^* and G is a
complex (d, d) Gaussian drawn from ``default_rng(seed)`` with the input's
seed.  The effects then sum to I only within about eps.

Noisy basis PVMs (``--noisy``): for d in 2..5, delta in {1e-9, 1e-8, 1e-7,
1e-6, 1e-5, 1e-4, 1e-2, 0.3} and s < ``--cases``, the input is
``mix(Povm([I/d] * d), U onb_pvm(d) U^H, delta)`` with U Haar from
``default_rng(1000 d + s)``.

Small-weight mixtures (``--mixtures``): one ``default_rng(11)`` serves
``--cases`` trials t = 0, 1, ...  Each trial draws, in this order: d in
[2, 4]; n in [d, d^2]; a Haar U; delta = 10^x with x uniform in [-9, -1];
and, on odd t only, an integer seed below 10^6, and q is ``random_povm(d, n,
seed)``.  On even t, q is {I/n}^n.  The input is ``mix(q, U construct_extremal_rank1(d, n)
U^H, delta)``.

A Haar U takes a complex Gaussian Z (the real parts drawn first, then the
imaginary ones), Q, R = qr(Z) and U = Q diag(R_kk / |R_kk|).

Each input ends one of four ways: ``decompose`` returns a certificate that
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

from povm_forge import (
    DEFAULT_TOL,
    Povm,
    construct_extremal_rank1,
    decompose,
    mix,
    onb_pvm,
    random_povm,
    verify_certificate,
)
from povm_forge.errors import NonConvergenceError, PovmForgeError

EPSILONS = (3e-9, 5e-9, 8e-9)
GRID_EPSILONS = (0.0, 3e-9, 8e-9)
NOISE_WEIGHTS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2, 0.3)


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


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(u: np.ndarray, p: Povm) -> Povm:
    """U p U^H, effect by effect."""
    return Povm(u @ p.effects @ u.conj().T)


def trivial(d: int, n: int) -> Povm:
    """{I/n}^n on dimension d."""
    return Povm([np.eye(d) / n] * n)


def noisy(cases: int):
    """(label, input) of the noisy basis PVMs: d = 2..5, eight noise weights, s < ``cases``."""
    for d in range(2, 6):
        pvms = [rotated(haar_unitary(d, np.random.default_rng(1000 * d + s)), onb_pvm(d))
                for s in range(cases)]
        for delta in NOISE_WEIGHTS:
            for s, pvm in enumerate(pvms):
                yield f"d={d} s={s} delta={delta:.0e}", mix(trivial(d, d), pvm, delta)


def mixtures(cases: int):
    """(label, input) of the small-weight mixtures: ``cases`` trials from one generator."""
    rng = np.random.default_rng(11)
    for t in range(cases):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, d * d + 1))
        u = haar_unitary(d, rng)
        delta = 10.0 ** rng.uniform(-9, -1)
        q = random_povm(d, n, int(rng.integers(10**6))) if t % 2 else trivial(d, n)
        p = rotated(u, construct_extremal_rank1(d, n))
        label = f"t={t} d={d} n={n} delta={delta:.2e} q={'random' if t % 2 else 'trivial'}"
        yield label, mix(q, p, delta)


GENERATORS = {"sweep": (sweep, 300), "grid": (grid, 40), "noisy": (noisy, 50),
              "mixtures": (mixtures, 400)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    modes = parser.add_mutually_exclusive_group()
    for mode, what in (("grid", "the grid"), ("noisy", "the noisy basis PVMs"),
                       ("mixtures", "the small-weight mixtures")):
        modes.add_argument(f"--{mode}", action="store_const", dest="mode", const=mode,
                           default="sweep", help=f"run {what} instead of the sweep")
    parser.add_argument(
        "--cases",
        type=int,
        help="sweep: seeds i, each at three eps (default 300); "
        "grid: values of s per (d, rank, eps) (default 40); "
        "noisy: values of s per (d, delta) (default 50); mixtures: trials (default 400)",
    )
    parser.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="run decompose and verify_certificate under DEFAULT_TOL.scaled(X) (default 1)",
    )
    args = parser.parse_args()
    generate, default_cases = GENERATORS[args.mode]
    cases = args.cases if args.cases is not None else default_cases
    try:
        tol = DEFAULT_TOL.scaled(args.tol_scale)
    except ValueError as exc:
        parser.error(str(exc))

    inputs = verified = 0
    missed, unsound, refused = [], [], Counter()
    start = time.perf_counter()
    for label, p in generate(cases):
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
