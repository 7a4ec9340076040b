"""Smoke runs of the scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_observer_sweep_runs():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_observer_sweep.py"), "--seeds", "3", "--horizon", "200"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split()[0] == "seed"
    assert [row.split()[0] for row in rows] == ["0", "1", "2"]
