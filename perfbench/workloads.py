"""Seeded workloads: the inputs, the operation on each, and its check.

A workload is an ordered list of ``Op``.  ``Op.run`` is the timed call
into povm_forge; ``Op.check`` receives its result and returns
``(failure, components)``: a failure message or None, and the component
count when the operation produced a certificate.  Every input is drawn
from the ``seed`` argument, so one seed always gives one corpus and
another seed gives a different corpus of the same shape.

``Op.input`` is the POVM or argument list the operation works on.
``Op.known_defect`` names a defect the program is known to have on that
input.  The runner keeps such an operation out of the timed loop and out
of the ``attempted``/``failed`` counts; it runs it once after the loop,
with the same check, and reports whether the defect still shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import povm_forge as pf
from povm_forge import cli

import checks

# A NaN entry passes validate (exit 0) or makes eigvalsh fail to converge,
# which the CLI reports as exit 2; an Inf entry is not always rejected either.
NONFINITE_DEFECT = "non-finite effect not rejected with exit 1 (ROADMAP item 5)"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str | None, int | None]]
    input: Any = None
    known_defect: str | None = None


def _seeds(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- decompose_deep -----------------------------------------------------------

# Full-rank inputs at (d, n): N = n*d rank-1 spectral terms, so N - d^2 runs
# over 0, 2, 4, 6 (d=2), 0, 3, 6 (d=3), 0, 4 (d=4) in the light set and
# 8, 10 (d=2), 9 (d=3), 8 (d=4) in the heavy set.
FULL_RANK_LIGHT = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5))
FULL_RANK_HEAVY = ((2, 6), (2, 7), (3, 6), (4, 6))
# Rank-1 inputs just above d^2 outcomes.
RANK1_ABOVE = tuple((d, d * d + k) for d in range(3, 9) for k in (1, 2, 3))
STATS_STATES = 20


def _decompose_op(label: str, p: pf.Povm, stats_seed: int) -> Op:
    def run():
        cert = pf.decompose(p)
        return cert, pf.verify_certificate(cert), pf.statistics_equivalence(cert, STATS_STATES, stats_seed)

    def check(result):
        cert, report, stats = result
        comps = len(cert.components)
        if not np.array_equal(cert.target.effects, p.effects):
            return "certificate target differs from the input", comps
        failure = checks.certificate_failure(np.array(p.effects), checks.certificate_components(cert))
        if failure:
            return failure, comps
        if not report.passed:
            return "verify_certificate rejected a correct certificate", comps
        if not stats.passed or stats.trials != STATS_STATES:
            return "statistics_equivalence did not pass", comps
        return None, comps

    return Op(label, run, check, p)


def decompose_deep(seed: int, workdir: str) -> list[Op]:
    rng = _seeds(seed, "decompose_deep")
    ops = []
    for rep in range(3):
        for d, n in FULL_RANK_LIGHT:
            p = pf.random_povm(d, n, seed=_draw(rng))
            ops.append(_decompose_op(f"full d={d} n={n} #{rep}", p, _draw(rng)))
    for d, n in FULL_RANK_HEAVY:
        p = pf.random_povm(d, n, seed=_draw(rng))
        ops.append(_decompose_op(f"full d={d} n={n}", p, _draw(rng)))
    for rep in range(2):
        for d, n in RANK1_ABOVE:
            p = pf.random_povm(d, n, seed=_draw(rng), rank=1)
            ops.append(_decompose_op(f"rank1 d={d} n={n} #{rep}", p, _draw(rng)))
    return ops


# -- classify_wide ------------------------------------------------------------


def _classify_op(label: str, p: pf.Povm, expected: str, rank1: bool, pvm: bool) -> Op:
    def check(result):
        got = (result.extremal_type, result.is_rank1, result.is_pvm)
        if got != (expected, rank1, pvm):
            return f"classified {got}, expected {(expected, rank1, pvm)}", None
        return None, None

    return Op(label, lambda: pf.classify(p), check, p)


def block_pvm(d: int, blocks: int, rng: np.random.Generator) -> pf.Povm:
    """PVM of ``blocks`` rank-d/blocks projections onto a random basis."""
    u = _random_unitary(d, rng)
    size = d // blocks
    cols = [u[:, k * size:(k + 1) * size] for k in range(blocks)]
    return pf.Povm(np.stack([c @ c.conj().T for c in cols]))


def classify_wide(seed: int, workdir: str) -> list[Op]:
    rng = _seeds(seed, "classify_wide")
    ops = []
    for d in range(8, 21, 2):
        for n in (2, 3):
            p = pf.random_povm(d, n, seed=_draw(rng))
            ops.append(_classify_op(f"full d={d} n={n}", p, pf.NOT_EXTREMAL, False, False))
    for rep in range(2):
        for d in range(8, 13):
            p = pf.random_povm(d, d * d, seed=_draw(rng), rank=1)
            ops.append(_classify_op(f"rank1 d={d} n={d * d} #{rep}", p, "a", True, False))
        for d in (8, 12, 16, 20):
            ops.append(_classify_op(f"pvm d={d} #{rep}", block_pvm(d, 4, rng), "b", False, True))
    base = pf.type_d_example()
    ops.append(_classify_op("type_d", base, "d", False, False))
    for rep in range(3):
        u = _random_unitary(base.dim, rng)
        p = pf.Povm(u @ base.effects @ u.conj().T)
        ops.append(_classify_op(f"type_d rotated #{rep}", p, "d", False, False))
    return ops


# -- cli_roundtrip ------------------------------------------------------------

CONSTRUCT_DIMS = (3, 4, 5, 6)
CLI_DECOMPOSE = ((2, 3, None), (2, 4, None), (2, 5, None), (3, 3, None), (3, 4, None),
                 (4, 4, None), (4, 5, None), (3, 10, 1), (3, 11, 1), (4, 17, 1),
                 (4, 18, 1), (5, 26, 1))
STATS_TRIALS = 20


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``povm-forge`` call; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _cli_op(label: str, argv: list[str], expect_code: int, check_output=None,
            known_defect: str | None = None) -> Op:
    def check(result):
        code, out = result
        if code != expect_code:
            return f"exit code {code}, expected {expect_code}", None
        if check_output is None:
            return None, None
        try:
            return check_output(json.loads(out))
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return f"unreadable output: {exc!r}", None

    return Op(label, lambda: run_cli(argv), check, argv, known_defect)


def _construct_check(path: str, d: int, n: int):
    def check(report):
        doc = _load(path)
        effects = checks.effects_from_doc(doc)
        if doc["dim"] != d or effects.shape != (n, d, d) or report["outcomes"] != n:
            return f"constructed shape {effects.shape}, expected {(n, d, d)}", None
        return checks.povm_failure(effects, rank1=True, independent=True), None

    return check


def _decompose_cli_check(povm_path: str, cert_path: str):
    def check(report):
        target = checks.effects_from_doc(_load(povm_path))
        doc = _load(cert_path)
        components = checks.certificate_doc_components(doc)
        if not np.array_equal(checks.effects_from_doc(doc["target"]), target):
            return "certificate target differs from the input file", len(components)
        if report["components"] != len(components) or report["verified"] is not True:
            return "decompose report disagrees with the certificate file", len(components)
        return checks.certificate_failure(target, components), len(components)

    return check


def _expect(key: str, value):
    def check(report):
        if report[key] != value:
            return f"{key} = {report[key]!r}, expected {value!r}", None
        return None, None

    return check


def invalid_docs(p: pf.Povm, rng: np.random.Generator) -> dict[str, dict]:
    """Invalid variants of a valid POVM: not normalized, not PSD, non-finite."""
    d = p.dim
    eff = np.array(p.effects)
    scaled = eff * 1.1
    shifted = eff.copy()
    i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
    # Move more than <i|E0|i> of weight from effect 0 to effect 1: the sum
    # stays I and <i|E0|i> turns negative.
    move = (eff[0, i, i].real + 0.1) * np.outer(np.eye(d)[i], np.eye(d)[i])
    shifted[0] -= move
    shifted[1] += move
    nan_im = eff.copy()
    nan_im[0, i, j] = nan_im[0, i, j].real + 1j * np.nan
    inf_re = eff.copy()
    inf_re[1, i, i] = np.inf
    return {
        name: pf.Povm(arr).to_jsonable()
        for name, arr in (("not_normalized", scaled), ("not_psd", shifted),
                          ("nan_imag", nan_im), ("inf_real", inf_re))
    }


def cli_roundtrip(seed: int, workdir: str) -> list[Op]:
    rng = _seeds(seed, "cli_roundtrip")
    ops = []
    for d in CONSTRUCT_DIMS:
        for n in (d + 1, (d + d * d) // 2, d * d):
            path = os.path.join(workdir, f"construct_{d}_{n}.json")
            ops.append(_cli_op(f"construct {d} {n}", ["construct", str(d), str(n), "--out", path,
                                                      "--format", "json"], 0, _construct_check(path, d, n)))
            ops.append(_cli_op(f"validate construct {d} {n}", ["validate", path, "--format", "json"],
                               0, _expect("valid", True)))
            ops.append(_cli_op(f"classify construct {d} {n}", ["classify", path, "--format", "json"],
                               0, _expect("type", "a")))
    for d, n, rank in CLI_DECOMPOSE:
        path = os.path.join(workdir, f"random_{d}_{n}_{rank or d}.json")
        cert = path[:-5] + ".cert.json"
        _write(path, pf.random_povm(d, n, seed=_draw(rng), rank=rank).to_jsonable())
        stats_seed = str(_draw(rng))
        ops.append(_cli_op(f"decompose {d} {n} rank {rank or d}",
                           ["decompose", path, "--out", cert, "--format", "json"],
                           0, _decompose_cli_check(path, cert)))
        ops.append(_cli_op(f"stats {d} {n} rank {rank or d}",
                           ["stats", path, cert, "--trials", str(STATS_TRIALS), "--seed", stats_seed,
                            "--format", "json"], 0, _expect("passed", True)))
    for d in (2, 3):
        for kind, doc in invalid_docs(pf.random_povm(d, d + 1, seed=_draw(rng)), rng).items():
            path = os.path.join(workdir, f"invalid_{kind}_{d}.json")
            _write(path, doc)
            defect = NONFINITE_DEFECT if kind in ("nan_imag", "inf_real") else None
            for command in ("validate", "classify"):
                ops.append(_cli_op(f"{command} {kind} d={d}", [command, path, "--format", "json"], 1,
                                   known_defect=defect))
    return ops


WORKLOADS = {
    "decompose_deep": decompose_deep,
    "classify_wide": classify_wide,
    "cli_roundtrip": cli_roundtrip,
}
