#!/usr/bin/env python3
"""Print one SHA-256 digest per output record of the benchmark corpora.

The ``classify_wide`` and ``decompose_deep`` corpora of
``perfbench/workloads.py`` are built at ``--seed`` (default 1104).  For
every input POVM the records are its ``classify`` fields (margin bytes
included), its ``spectral_relabel`` and ``extremal_to_rank1`` effects and
maps, its ``is_extremal_rank1`` verdict, and the ``violations`` and
``is_extremal_rank1`` of two spoiled copies: effect 0 scaled by 1.5, and the
last effect's top-right entry moved by 1e-6 off Hermitian.  For every
``decompose_deep`` input they are also its ``decompose`` weights, effects
and maps, its ``decompose peel`` (the component count, weights and maps
without the effect bytes, which a change to the effects' rounding alone
leaves as they are), the ``verify_certificate`` report of that certificate,
of a copy with component 0 scaled by 1.5 and of a copy whose component 0 has
its first two effects merged and is then scaled by 1.5 (rank 2 and off I),
and the ``statistics_equivalence`` deviations over 20 states.  Last come the
``classify``, ``spectral_relabel``, ``extremal_to_rank1``,
``is_extremal_rank1``, ``decompose`` and ``decompose peel`` records of a copy
with zero effects inserted before the first, the middle and past the last
effect.  For every ``decompose_deep`` input the last record is the
``verify_certificate loaded`` report of its certificate read back from its
JSON text (``to_jsonable``, ``json``, ``from_jsonable``).  A domain error is
recorded by its type and message.  Each line reads
``<sha256>  <corpus>/<label>: <record>``.
``--tol-scale X`` runs every call under ``DEFAULT_TOL.scaled(X)``; the inputs
do not change.

Two source trees give equal outputs iff ``diff`` finds nothing between two
runs, one per tree:

    PYTHONPATH=src python3 scripts/output_digests.py --seed 7 > new.txt
    PYTHONPATH=../old/src python3 scripts/output_digests.py --seed 7 > old.txt
    diff old.txt new.txt

BLAS runs on one thread, as in the benchmark, so that sums are taken in
one order.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench/, on the path above)
from povm_forge import (  # noqa: E402
    DEFAULT_TOL,
    CertificateComponent,
    DecompositionCertificate,
    Povm,
    RelabelMap,
    classify,
    decompose,
    extremal_to_rank1,
    is_extremal_rank1,
    spectral_relabel,
    statistics_equivalence,
    verify_certificate,
    violations,
)
from povm_forge.errors import PovmForgeError  # noqa: E402

CORPORA = ("classify_wide", "decompose_deep")
STATS_STATES = 20


def digest(*parts) -> str:
    """SHA-256 of the parts in order: arrays by their bytes, anything else by its repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            data = np.ascontiguousarray(part).tobytes()
        else:
            data = repr(part).encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def outcome(f, *args):
    """f(*args), or the type name and message of the domain error it raises."""
    try:
        return f(*args)
    except PovmForgeError as exc:
        return type(exc).__name__, str(exc)


def spoiled(p: Povm) -> tuple[Povm, Povm]:
    """(effect 0 scaled by 1.5, the last effect's entry (0, d-1) moved by 1e-6)."""
    scaled, skewed = np.array(p.effects), np.array(p.effects)
    scaled[0] *= 1.5
    skewed[-1, 0, -1] += 1e-6
    return Povm(scaled), Povm(skewed)


def padded(p: Povm) -> Povm:
    """``p`` with a zero effect inserted before effect 0, before effect n // 2 and after the last."""
    n = p.n_outcomes
    return Povm(np.insert(p.effects, [0, n // 2, n], 0.0, axis=0))


def classified(p: Povm, tol):
    result = outcome(classify, p, tol)
    if isinstance(result, tuple):
        return result
    report = result.extremality
    return (result.is_rank1, result.is_pvm, result.extremal_type, result.rank_profile,
            report.extremal, report.borderline, report.margin, report.operator_count)


def relabeled(f, p: Povm, tol):
    """The rank-1 effects and map of ``f`` (``spectral_relabel`` or ``extremal_to_rank1``)."""
    result = outcome(f, p, tol)
    if isinstance(result, tuple):
        return result
    rank1, rmap = result
    return rank1.effects, rmap.targets, rmap.target_size


def worded(p: Povm, tol):
    return [(type(e).__name__, str(e), getattr(e, "outcome", None)) for e in violations(p, tol)]


def reported(cert: DecompositionCertificate, tol):
    report = verify_certificate(cert, tol)
    return (report.weight_sum_residual, report.effect_residuals, report.component_extremal,
            report.passed, report.failures)


def decomposed(p: Povm, tol):
    """``decompose``'s certificate, its parts and its peel; or None and its domain error, twice.

    The parts are the weights, effects and maps; the peel is the component
    count, the weights and the maps.
    """
    cert = outcome(decompose, p, tol)
    if isinstance(cert, tuple):
        return None, cert, cert
    parts, peel = [], [len(cert.components)]
    for comp in cert.components:
        parts += [comp.weight, comp.extremal.effects, comp.relabel.targets]
        peel += [comp.weight, comp.relabel.targets]
    return cert, parts, peel


def certificate_records(p: Povm, tol):
    """(record, parts) of ``decompose`` and what reads its certificate."""
    cert, parts, peel = decomposed(p, tol)
    yield "decompose", parts
    yield "decompose peel", peel
    if cert is None:
        return
    yield "verify_certificate", reported(cert, tol)
    first = cert.components[0]
    effects, f = first.extremal.effects, first.relabel
    merged = np.concatenate([effects[:1] + effects[1:2], effects[2:]])  # effects 0, 1 as one
    spoils = {
        "spoiled": (effects, f),
        "merged": (merged, RelabelMap(f.source_size - 1, f.target_size, np.delete(f.targets, 1))),
    }
    for name, (stack, g) in spoils.items():
        comps = (CertificateComponent(first.weight, Povm(1.5 * stack), g), *cert.components[1:])
        spoilt = DecompositionCertificate(cert.target, comps)
        yield f"verify_certificate {name}", reported(spoilt, tol)
    yield "statistics_equivalence", (statistics_equivalence(cert, STATS_STATES, 0, tol).deviations,)


def loaded(p: Povm, tol):
    """The ``verify_certificate`` report of ``decompose``'s certificate after a JSON round trip."""
    cert = outcome(decompose, p, tol)
    if isinstance(cert, tuple):
        return cert
    text = json.dumps(cert.to_jsonable())
    return reported(DecompositionCertificate.from_jsonable(json.loads(text)), tol)


def records(corpus: str, p: Povm, tol):
    """(record, parts) of every output record of one input; parts is a tuple or a list."""
    yield "classify", classified(p, tol)
    yield "spectral_relabel", relabeled(spectral_relabel, p, tol)
    yield "extremal_to_rank1", relabeled(extremal_to_rank1, p, tol)
    yield "is_extremal_rank1", (outcome(is_extremal_rank1, p, tol),)
    for name, copy in zip(("scaled", "skewed"), spoiled(p)):
        yield f"violations {name}", worded(copy, tol)
        yield f"is_extremal_rank1 {name}", (outcome(is_extremal_rank1, copy, tol),)
    if corpus == "decompose_deep":
        yield from certificate_records(p, tol)
    zeros = padded(p)
    yield "classify padded", classified(zeros, tol)
    yield "spectral_relabel padded", relabeled(spectral_relabel, zeros, tol)
    yield "extremal_to_rank1 padded", relabeled(extremal_to_rank1, zeros, tol)
    yield "is_extremal_rank1 padded", (outcome(is_extremal_rank1, zeros, tol),)
    _, parts, peel = decomposed(zeros, tol)
    yield "decompose padded", parts
    yield "decompose peel padded", peel
    if corpus == "decompose_deep":
        yield "verify_certificate loaded", loaded(p, tol)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1104, help="corpus seed (default 1104)")
    parser.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="run every call under DEFAULT_TOL.scaled(X) (default 1)",
    )
    args = parser.parse_args()
    try:
        tol = DEFAULT_TOL.scaled(args.tol_scale)
    except ValueError as exc:
        parser.error(str(exc))
    with tempfile.TemporaryDirectory() as workdir:
        for corpus in CORPORA:
            for op in workloads.WORKLOADS[corpus](args.seed, workdir):
                for record, parts in records(corpus, op.input, tol):
                    print(f"{digest(*parts)}  {corpus}/{op.label}: {record}")


if __name__ == "__main__":
    main()
