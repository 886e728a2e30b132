"""Smoke tests: each script in scripts/ runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("decomposition_sweep.py", ["--cases", "5"]),
        ("search_type_d_dim3.py", ["--attempts", "20"]),
        ("reproduce_reference_povms.py", []),
    ],
)
def test_script_exits_cleanly(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
