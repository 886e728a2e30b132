"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import povm_forge as pf  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Per-layer metrics that are counts, not times: they must repeat exactly.
COUNTS = [
    name for name, unit in run.per_layer_metrics()
    if unit != "s" and name != "trace.ops_per_s"
]


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.per_layer_metrics()


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == 75.0


def _labels(ops):
    return [op.label for op in ops]


def test_seed_fixes_the_corpus_and_another_seed_changes_it(tmp_path):
    first = workloads.classify_wide(7, str(tmp_path))
    again = workloads.classify_wide(7, str(tmp_path))
    other = workloads.classify_wide(8, str(tmp_path))
    assert _labels(first) == _labels(again) == _labels(other)
    inputs, same, changed = ([op.input.effects for op in ops] for ops in (first, again, other))
    assert all(np.array_equal(a, b) for a, b in zip(inputs, same))
    # type_d_example itself is fixed; every other input is drawn from the seed.
    assert sum(not np.array_equal(a, b) for a, b in zip(inputs, changed)) == len(inputs) - 1


def test_certificate_check_is_independent_of_the_library():
    p = pf.random_povm(2, 4, seed=3)
    cert = pf.decompose(p)
    target = np.array(p.effects)
    comps = checks.certificate_components(cert)
    assert checks.certificate_failure(target, comps) is None

    w, effects, targets = comps[0]
    bumped = [(w * 1.01, effects, targets)] + comps[1:]
    assert "weights" in checks.certificate_failure(target, bumped)

    moved = [(w, effects, np.roll(targets, 1))] + comps[1:]
    assert "residual" in checks.certificate_failure(target, moved)

    doubled = np.concatenate([effects[:1] / 2, effects[:1] / 2, effects[1:]])
    dependent = [(w, doubled, np.concatenate([targets[:1], targets]))] + comps[1:]
    assert "dependent" in checks.certificate_failure(target, dependent)


def test_povm_check_rejects_invalid_inputs():
    rng = np.random.default_rng(0)
    p = pf.random_povm(3, 4, seed=1)
    assert checks.povm_failure(np.array(p.effects)) is None
    for name, doc in workloads.invalid_docs(p, rng).items():
        effects = checks.effects_from_doc(doc)
        assert checks.povm_failure(effects) is not None, name


def test_failures_are_counted_not_fatal():
    ok = workloads.Op("ok", lambda: 1, lambda r: (None, 2))
    wrong = workloads.Op("wrong", lambda: 1, lambda r: ("wrong", None))
    broken = workloads.Op("broken", lambda: 1 / 0, lambda r: (None, None))
    loop = run.Loop([ok, wrong, broken], run.SpeedReference())
    loop.run(0.0)
    assert (loop.attempted, loop.failed) == (3, 2)
    assert loop.components == [2]
    assert "ZeroDivisionError" in loop.failures["broken"]


def test_known_defects_are_checked_apart_from_the_timed_loop():
    still = workloads.Op("still", lambda: 1, lambda r: ("wrong", None), known_defect="listed")
    fixed = workloads.Op("fixed", lambda: 1, lambda r: (None, None), known_defect="listed")
    outcomes, lines = run.known_defects([still, fixed])
    assert outcomes == {"still": "wrong", "fixed": "passed"}
    assert "listed" in lines[0]
    assert "still fails: wrong" in lines[1] and "passes now" in lines[2]


def test_cli_roundtrip_keeps_nonfinite_inputs_as_known_defects(tmp_path):
    ops = workloads.cli_roundtrip(5, str(tmp_path))
    known = [op.label for op in ops if op.known_defect]
    assert len(known) == 8
    assert all("nan_imag" in label or "inf_real" in label for label in known)


def _run(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0]["correct"] and results[0]["failed"] == 0
    assert results[0]["attempted"] == results[1]["attempted"]
    first, second = (r["metrics"] for r in results)
    assert set(first) == {name for name, _ in run.per_layer_metrics()}
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "decompose_deep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
