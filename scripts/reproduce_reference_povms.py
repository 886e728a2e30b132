#!/usr/bin/env python3
"""Print the worked reference POVMs and re-derive them from first principles.

Shows the three-outcome qubit POVM arising from one extension step on the
sigma-x PVM, the single-congruence construction for every outcome count up
to the maximal one, and the dimension-4 rank-2 example together with its
classification.
"""

import argparse

import numpy as np

from povm_forge import (
    classify,
    construct_extremal_rank1,
    extend_extremal,
    extremality_report,
    is_extremal_rank1,
    qubit_example,
    rank_of,
    type_d_example,
    validate,
)
from povm_forge.povm import Povm


def show(title, povm):
    print(f"\n{title}  (d={povm.dim}, N={povm.n_outcomes})")
    for j, e in enumerate(povm.effects):
        block = np.array2string(e, precision=6, suppress_small=True)
        pad = "\n    ".join(block.splitlines())
        print(f"  A({j + 1}) =\n    {pad}")


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    pvm_x = Povm(np.stack([(np.eye(2) + sx) / 2, (np.eye(2) - sx) / 2]))
    reference = qubit_example()
    rebuilt = extend_extremal(pvm_x, projection=(np.eye(2) + np.diag([1.0, -1.0])) / 2)
    show("three-outcome qubit POVM (closed form)", reference)
    gap = float(np.max(np.abs(rebuilt.effects - reference.effects)))
    print(f"\n  extension step reproduces the closed form entrywise to {gap:.2e}")
    print(f"  extremal rank-1: {is_extremal_rank1(reference)}")

    print("\none congruence S^-1/2 P_k S^-1/2 on d=2, outcome counts 2..4:")
    for n in range(2, 5):
        p = construct_extremal_rank1(2, n)
        margin = extremality_report(p).margin
        print(f"  N={n}: extremal rank-1, independence margin {margin:.3f}")

    td = type_d_example()
    validate(td)
    show("dimension-4 rank-2 extremal POVM", td)
    residual = max(float(np.linalg.norm(e @ e - (2 / 3) * e)) for e in td.effects)
    print(f"\n  rank profile: {[rank_of(e) for e in td.effects]}")
    print(f"  max ||A^2 - (2/3)A||_F = {residual:.2e}")
    result = classify(td)
    print(f"  classification: type ({result.extremal_type}), "
          f"rank-1={result.is_rank1}, PVM={result.is_pvm}")


if __name__ == "__main__":
    main()
