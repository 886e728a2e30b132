#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of povm-forge (library and CLI).

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload decompose_deep --seed 1104 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn, one process each

One client sends the next operation only after the previous one has
returned.  A run repeats whole passes over the workload's corpus until
``--seconds`` have gone by.  Every operation's output is checked (see
``checks.py``); failures are counted, never fatal.  Operations on inputs
where the program has a known defect are not timed: they run once after
the loop, with the same checks, and their outcome is printed and stored
apart from the ``attempted``/``failed`` counts.

``--trace 0`` reports the end-to-end metrics: set-up time as the median
of several fresh processes, completed-and-correct operations per second,
median and tail latency over the per-operation medians, and peak RSS.
``--trace 1`` runs the same loop with every layer wrapped (``tracer.py``)
and reports per-layer calls and times per corpus pass.  Results and the
span file go to ``perfbench_out/``; the last line of standard output is
the JSON summary.

End-to-end times are reported at nominal machine speed.  A fixed
reference kernel (``SpeedReference``) is timed before and after every
operation and set-up probe, and each wall time is multiplied by
``REF_NOMINAL_S / reference time``.  On a shared machine whose speed
drifts by tens of percent within a minute, this keeps the figures
comparable from run to run.  The raw wall-clock figures are printed
beside them and kept in the result file.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads: one client, small matrices, and
# steadier timings on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
DEFAULT_SEED = 1104
SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
REF_NOMINAL_S = 4e-4  # reference-kernel time that defines nominal speed
WORKLOADS = ("decompose_deep", "classify_wide", "cli_roundtrip")

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Spans whose calls, total_s and self_s are reported per corpus pass.
# "lapack.eigh" covers numpy.linalg.eigh and eigvalsh together.
TRACED = (
    "linalg.eig_herm", "linalg.rank_of", "linalg.inv_sqrt",
    "linalg.linearly_independent", "linalg.require_hermitian",
    "povm.validate", "povm.classify", "povm.spectral_relabel",
    "povm.prune_zero_effects", "povm.relabel",
    "povm.Povm.to_jsonable", "povm.Povm.from_jsonable",
    "extremality.split_mixture", "extremality.find_effect_dependence",
    "extremality.extremality_report", "extremality.spectral_form",
    "extremality.is_extremal_rank1",
    "constructor.extend_extremal", "constructor.construct_extremal_rank1",
    "decomposer.decompose", "decomposer.verify_certificate",
    "decomposer.statistics_equivalence",
    "decomposer.DecompositionCertificate.to_jsonable",
    "decomposer.DecompositionCertificate.from_jsonable",
    "cli.main", "cli.validate", "cli.classify", "cli.decompose",
    "cli.construct", "cli.stats",
    "lapack.eigh", "lapack.svd",
)
SPAN_FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
# Per-layer metrics derived from counters and results: (name, unit).
DERIVED = (
    ("lapack.eigvalsh.calls", "count"),
    ("lapack.svd.out_bytes", "bytes_computed"),
    ("decomposer.components_per_split", "ratio"),
    ("constructor.span_test.calls", "count"),
    ("constructor.span_accept_ratio", "ratio"),
    ("cli.json_bytes", "bytes"),
    ("cli.load_json.total_s", "s"),
    ("cli.write_json.total_s", "s"),
    ("cert_components_mean", "count"),
    ("trace.ops_per_s", "1/s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    spans = [(f"{name}.{field}", unit) for name in TRACED for field, unit in SPAN_FIELDS]
    return spans + list(DERIVED)


def import_program():
    """Import povm_forge from this checkout's sources, never from elsewhere."""
    package = SRC / "povm_forge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: povm_forge sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import povm_forge

    if Path(povm_forge.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported povm_forge from {povm_forge.__file__}, not {package}")
    return povm_forge


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def build(workload: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, str(workdir))


def run_op(op) -> tuple[float, str | None, int | None]:
    """Time one operation, then check it: (seconds, failure, components)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - start
    try:
        failure, components = op.check(result)
    except Exception as exc:
        failure, components = f"check raised {type(exc).__name__}: {exc}", None
    return elapsed, failure, components


def setup_probe(workload: str, seed: int) -> int:
    """Child process for ``setup_s``: import, build inputs, one warm-up op."""
    import_program()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops = build(workload, seed, workdir)
        _, failure, _ = run_op(ops[0])
        if failure:
            print(f"error: warm-up operation {ops[0].label!r} failed: {failure}", file=sys.stderr)
            return 1
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


class SpeedReference:
    """Fixed numpy and pure-Python kernel whose time tracks machine speed.

    The mix (small Hermitian eigensolves, one SVD, dict and list churn)
    resembles povm_forge's own.  It holds its own references to the
    numpy functions, so tracing never wraps it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        herm = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (4,) * 6 + (8,) * 2]
        self.hermitian = [g + g.conj().T for g in herm]
        self.rect = rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))
        self.eigvalsh, self.eigh, self.svd = np.linalg.eigvalsh, np.linalg.eigh, np.linalg.svd

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            for m in self.hermitian[:6]:
                self.eigvalsh(m)
            for m in self.hermitian[6:]:
                self.eigh(m)
            self.svd(self.rect)
            table = {i: [i, i * i, str(i)] for i in range(200)}
            del table
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Best of three, so one preemption does not count as a slow machine."""
        return min(self._once() for _ in range(3))


def nominal(elapsed: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds rescaled to nominal speed by the reference times around them."""
    return elapsed * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def time_setup(workload: str, seed: int, reference: SpeedReference) -> tuple[float, float]:
    """(nominal, wall) seconds from spawning a fresh interpreter until it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    before = reference.seconds()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe failed with exit code {code}")
    after = reference.seconds()
    return nominal(elapsed, before, after), elapsed


class Loop:
    """Closed-loop passes over the corpus, with per-operation records.

    ``latencies`` holds each operation's times at nominal speed and
    ``wall`` the same times as measured; ``passed`` counts correct
    operations per pass.
    """

    def __init__(self, ops, reference: SpeedReference):
        self.ops = ops
        self.reference = reference
        self.latencies = [[] for _ in ops]
        self.wall = [[] for _ in ops]
        self.passed: list[int] = []
        self.failures: dict[str, str] = {}
        self.components: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0

    def run(self, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        ref_before = self.reference.seconds()
        while not self.passed or time.perf_counter() - start < seconds:
            passed = 0
            for i, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.op_id = len(self.passed) * len(self.ops) + i
                elapsed, failure, components = run_op(op)
                ref_after = self.reference.seconds()
                self.latencies[i].append(nominal(elapsed, ref_before, ref_after))
                ref_before = ref_after
                self.wall[i].append(elapsed)
                self.attempted += 1
                if components is not None:
                    self.components.append(components)
                if failure is None:
                    passed += 1
                    continue
                self.failed += 1
                self.failures.setdefault(op.label, failure)
            self.passed.append(passed)
        self.elapsed = time.perf_counter() - start

    @property
    def passes(self) -> int:
        return len(self.passed)

    def op_medians(self, wall: bool = False) -> list[float]:
        samples = self.wall if wall else self.latencies
        return sorted(statistics.median(s) for s in samples)

    def ops_per_s(self, wall: bool = False) -> float:
        """Correct operations per pass over the sum of per-operation median times."""
        return statistics.median(self.passed) / sum(self.op_medians(wall))

    def components_mean(self) -> float:
        return statistics.fmean(self.components) if self.components else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) with exactly TAIL_BEYOND sorted values above it."""
    k = len(values)
    if k <= TAIL_BEYOND:
        return values[0], 0.0
    return values[k - 1 - TAIL_BEYOND], 100.0 * (k - TAIL_BEYOND) / k


def timings(loop: Loop, setup: list[tuple[float, float]], wall: bool) -> dict[str, float]:
    medians = loop.op_medians(wall)
    return {
        "setup_s": statistics.median(s[wall] for s in setup),
        "ops_per_s": loop.ops_per_s(wall),
        "latency_p50_ms": statistics.median(medians) * 1e3,
        "latency_tail_ms": tail(medians)[0] * 1e3,
    }


def end_to_end(loop: Loop, setup: list[tuple[float, float]]) -> tuple[dict, dict, list[str]]:
    """Nominal-speed values, wall-clock values, and the printed report lines."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {**timings(loop, setup, wall=False), "peak_rss_mb": rss}
    wall = {**timings(loop, setup, wall=True), "peak_rss_mb": rss}
    k = len(loop.ops)
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "ops_per_s": f"correct ops per pass / sum of per-op medians, {loop.passes} passes",
        "latency_p50_ms": f"median of {k} per-op medians",
        "latency_tail_ms": f"p{tail(loop.op_medians())[1]:.1f}: {TAIL_BEYOND} of {k} per-op "
                           f"medians beyond, {loop.attempted} samples",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"  {'metric':<22} {'nominal':>12} {'wall':>12} {'unit':<6}"]
    lines += [f"  {name:<22} {values[name]:>12.4f} {wall[name]:>12.4f} {unit:<6} {notes[name]}"
              for name, unit in END_TO_END]
    lines.append(f"  {'failed_share':<22} {loop.failed / loop.attempted:>12.4f} {'':<6} "
                 f"{loop.failed} failed / {loop.attempted} attempted")
    if loop.components:
        lines.append(f"  {'cert_components_mean':<22} {loop.components_mean():>12.4f} {'count':<6} "
                     f"over {len(loop.components)} certificates")
    return values, wall, lines


def known_defects(probes) -> tuple[dict[str, str], list[str]]:
    """Run each known-defect operation once, untimed: (outcomes, report lines)."""
    outcomes = {}
    lines = [f"  known defect: {name}; checked once, not timed, not in attempted/failed"
             for name in dict.fromkeys(op.known_defect for op in probes)]
    for op in probes:
        _, failure, _ = run_op(op)
        outcomes[op.label] = failure or "passed"
        lines.append(f"    {op.label}: {f'still fails: {failure}' if failure else 'passes now'}")
    return outcomes, lines


def layer_values(loop: Loop, tracer) -> dict[str, float]:
    """Per-layer metrics per corpus pass (0 where a layer was not reached)."""
    table = tracer.layer_table()
    passes = loop.passes

    def span(name: str, field: str) -> float:
        names = (name, "lapack.eigvalsh") if name == "lapack.eigh" else (name,)
        return sum(table.get(n, {}).get(field, 0) for n in names) / passes

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0.0) / passes

    values = {f"{name}.{field}": span(name, field) for name in TRACED for field, _ in SPAN_FIELDS}
    splits = span("extremality.split_mixture", "calls")
    span_tests = span("constructor.span_test", "calls")
    values.update({
        "lapack.eigvalsh.calls": span("lapack.eigvalsh", "calls"),
        "lapack.svd.out_bytes": counter("lapack.svd.out_bytes"),
        "decomposer.components_per_split":
            counter("decomposer.decompose.components") / splits if splits else 0.0,
        "constructor.span_test.calls": span_tests,
        "constructor.span_accept_ratio":
            counter("constructor.span_test.accepted") / span_tests if span_tests else 0.0,
        "cli.json_bytes": counter("cli.json_bytes"),
        "cli.load_json.total_s": span("cli.load_json", "total_s"),
        "cli.write_json.total_s": span("cli.write_json", "total_s"),
        "cert_components_mean": loop.components_mean(),
        "trace.ops_per_s": loop.ops_per_s(),
    })
    return values


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    import_program()
    import tracer as tracing

    env = environment()
    print("env " + json.dumps(env))
    reference = SpeedReference()
    setup = [] if traced else [time_setup(workload, seed, reference) for _ in range(SETUP_PROBES)]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        corpus = build(workload, seed, workdir)
        ops = [op for op in corpus if op.known_defect is None]
        run_op(ops[0])  # warm-up, as in the set-up probes
        loop = Loop(ops, reference)
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            loop.run(seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        defects, defect_lines = known_defects([op for op in corpus if op.known_defect])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload} seed {seed} trace {int(traced)}: {len(ops)} ops per pass, "
          f"{loop.passes} passes in {loop.elapsed:.1f} s, closed loop, 1 client")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
              "env": env, "ops_per_pass": len(ops), "passes": loop.passes,
              "attempted": loop.attempted, "failed": loop.failed,
              "failures": loop.failures, "known_defects": defects}
    OUT.mkdir(exist_ok=True)
    if traced:
        values = layer_values(loop, tracer)
        units = dict(per_layer_metrics())
        record["wall"] = {"ops_per_s": loop.ops_per_s(wall=True)}
        record["layers_per_pass"] = {
            name: {k: v / loop.passes for k, v in row.items()}
            for name, row in sorted(tracer.layer_table().items())
        }
        print(f"  traced spans: {len(tracer.span_start)}; per-layer values are per corpus pass")
        tracer.write_spans(str(OUT / f"trace_{workload}.tsv"),
                           {"workload": workload, "seed": seed, "passes": loop.passes})
    else:
        values, record["wall"], lines = end_to_end(loop, setup)
        units = dict(END_TO_END)
        record["setup_samples_s"] = setup
        print("\n".join(lines))
    record["op_medians_ms"] = {
        op.label: [statistics.median(n) * 1e3, statistics.median(w) * 1e3]
        for op, n, w in zip(ops, loop.latencies, loop.wall)
    }
    for label, failure in loop.failures.items():
        print(f"  failed: {label}: {failure}")
    if defect_lines:
        print("\n".join(defect_lines))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    with open(OUT / f"result_{workload}_trace{int(traced)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process; prints their reports and a combined summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        import_program()
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
