"""Command-line interface: file-based POVM validation, classification,
decomposition, construction, and statistics checks.

Exit codes: 0 success, 1 domain failure (invalid POVM, failed check,
bad request), 2 I/O or parse failure, 3 numerical non-convergence.

POVM files and certificate files are JSON; matrices are stored as split
real/imaginary double arrays at full precision.  The environment
variable ``POVM_FORGE_TOL_SCALE`` multiplies every tolerance, and each
threshold can be overridden with its ``--tol-*`` flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .constructor import construct_extremal_rank1, onb_pvm, qubit_example, type_d_example
from .decomposer import (
    DecompositionCertificate,
    decompose,
    statistics_equivalence,
    verify_certificate,
)
from .errors import (
    NonConvergenceError,
    PovmForgeError,
    TargetMismatchError,
    UnknownExampleError,
)
from .extremality import NOT_EXTREMAL, classify
from .linalg import DEFAULT_TOL, ToleranceConfig
from .povm import Povm, violations

__all__ = ["main"]

# argparse dest -> ToleranceConfig field: x_tol is set by --tol-x, so no field lacks its flag
_TOL_FLAGS = {
    f"tol_{f.name.removesuffix('_tol')}": f.name for f in dataclasses.fields(ToleranceConfig)
}


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("tolerances")
    for flag, field_name in _TOL_FLAGS.items():
        group.add_argument(
            f"--{flag.replace('_', '-')}",
            dest=flag,
            type=float,
            default=None,
            metavar="X",
            help=f"override {field_name} (default {getattr(DEFAULT_TOL, field_name):g})",
        )
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument(
        "--format",
        choices=("json", "table"),
        default="table",
        help="report format (default table)",
    )
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``povm-forge`` parser, built on the first call and shared by every later ``main``."""
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="povm-forge",
        description="Finite-outcome POVMs: validation, extremality, decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a POVM file")
    p.add_argument("path", help="POVM JSON file")

    p = sub.add_parser("classify", parents=[common], help="classify a POVM file")
    p.add_argument("path", help="POVM JSON file")

    p = sub.add_parser(
        "decompose",
        parents=[common],
        help="decompose a POVM into relabeled extremal rank-1 components",
    )
    p.add_argument("path", help="POVM JSON file")
    p.add_argument("--out", required=True, help="certificate output path")

    p = sub.add_parser(
        "construct",
        parents=[common],
        help="construct an extremal rank-1 POVM with n outcomes on dimension d",
    )
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True, help="POVM output path")

    p = sub.add_parser(
        "examples",
        parents=[common],
        help="write a reference POVM (qubit3, type_d, onb:<d>)",
    )
    p.add_argument("name", help="one of: qubit3, type_d, onb:<d>")
    p.add_argument("--out", required=True, help="POVM output path")

    p = sub.add_parser(
        "stats",
        parents=[common],
        help="compare certificate statistics against its target POVM",
    )
    p.add_argument("povm_path", help="POVM JSON file")
    p.add_argument("cert_path", help="certificate JSON file")
    p.add_argument("--trials", type=int, default=100, help="random states (default 100)")

    return parser


def _tolerances(args: argparse.Namespace) -> ToleranceConfig:
    tol = dataclasses.replace(DEFAULT_TOL, **{
        field_name: getattr(args, flag)
        for flag, field_name in _TOL_FLAGS.items()
        if getattr(args, flag) is not None
    })
    scale = os.environ.get("POVM_FORGE_TOL_SCALE")
    if scale is not None:
        tol = tol.scaled(float(scale))
    return tol


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(obj: dict, path: str) -> None:
    # compact json.dumps takes the C encoder; json.dump with indent streams through the Python one
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(obj) + "\n")


def _load_povm(path: str) -> Povm:
    return Povm.from_jsonable(_load_json(path))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        width = max(len(key) for key in report)
        for key, value in report.items():
            if isinstance(value, float):
                value = f"{value:.6g}"
            print(f"{key.replace('_', ' '):<{width}}  {value}")


def _print_effects(povm: Povm) -> None:
    # human-readable matrices at 6 significant digits; files keep full precision
    for j, effect in enumerate(povm.effects):
        block = np.array2string(effect, precision=6, suppress_small=True)
        indented = "\n    ".join(block.splitlines())
        print(f"  A({j + 1}) =\n    {indented}")


def _cmd_validate(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    povm = _load_povm(args.path)
    failures = [str(exc) for exc in violations(povm, tol)]
    if failures:
        _emit({"valid": False, "violations": failures}, args.format)
        return 1
    _emit({"valid": True, "dim": povm.dim, "outcomes": povm.n_outcomes}, args.format)
    return 0


def _cmd_classify(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    povm = _load_povm(args.path)
    result = classify(povm, tol)
    n = len(result.rank_profile)
    d = povm.dim
    report = {
        "dim": d,
        "outcomes": povm.n_outcomes,
        "nonzero_outcomes": n,
        "rank_profile": list(result.rank_profile),
        "is_rank1": result.is_rank1,
        "is_pvm": result.is_pvm,
        "extremal": result.extremality.extremal,
        "borderline": result.extremality.borderline,
        "type": result.extremal_type,
    }
    if result.extremal_type != NOT_EXTREMAL and result.is_rank1:
        report["outcome_bounds"] = f"d={d} <= N={n} <= d^2={d * d}: {d <= n <= d * d}"
    _emit(report, args.format)
    return 0


def _cmd_decompose(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    cert = decompose(_load_povm(args.path), tol)
    report = verify_certificate(cert, tol)
    _write_json(cert.to_jsonable(), args.out)
    summary = {
        "components": len(cert.components),
        "weights": [round(c.weight, 12) for c in cert.components],
        "max_reconstruction_residual": float(report.effect_residuals.max()),
        "weight_sum_residual": report.weight_sum_residual,
        "verified": report.passed,
        "certificate": args.out,
    }
    _emit(summary, args.format)
    if not report.passed:
        for line in report.failures:
            print(f"failure: {line}", file=sys.stderr)
        return 1
    return 0


def _cmd_construct(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    povm = construct_extremal_rank1(args.d, args.n, tol)
    _write_json(povm.to_jsonable(), args.out)
    _emit(
        {
            "dim": args.d,
            "outcomes": args.n,
            "extremal_rank1": True,
            "path": args.out,
        },
        args.format,
    )
    if args.format == "table":
        _print_effects(povm)
    return 0


def _cmd_examples(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    name = args.name
    if name == "qubit3":
        povm = qubit_example()
    elif name == "type_d":
        povm = type_d_example()
    elif name.startswith("onb:"):
        try:
            d = int(name.split(":", 1)[1])
        except ValueError:
            raise UnknownExampleError(f"bad basis dimension in {name!r}")
        povm = onb_pvm(d)
    else:
        raise UnknownExampleError(
            f"unknown example {name!r}; choose qubit3, type_d, or onb:<d>"
        )
    _write_json(povm.to_jsonable(), args.out)
    _emit({"example": name, "dim": povm.dim, "outcomes": povm.n_outcomes, "path": args.out}, args.format)
    if args.format == "table":
        _print_effects(povm)
    return 0


def _cmd_stats(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    povm = _load_povm(args.povm_path)
    cert = DecompositionCertificate.from_jsonable(_load_json(args.cert_path))
    if cert.target.n_outcomes != povm.n_outcomes or cert.target.dim != povm.dim:
        raise TargetMismatchError("certificate target shape differs from the POVM")
    gap = float(np.max(np.abs(cert.target.effects - povm.effects)))
    if not gap <= tol.recon_tol:  # a NaN gap is a mismatch too
        raise TargetMismatchError(
            f"certificate target differs from the POVM by {gap:.3e}"
        )
    report = statistics_equivalence(cert, args.trials, args.seed, tol)
    _emit(
        {
            "trials": report.trials,
            "max_deviation": report.max_deviation,
            "threshold": tol.recon_tol,
            "passed": report.passed,
        },
        args.format,
    )
    return 0 if report.passed else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "construct": _cmd_construct,
    "examples": _cmd_examples,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, tol)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PovmForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
