"""Smoke runs of the scripts under scripts/."""

import json
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


def test_bench_observer_sweep_writes_its_record(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_observer_sweep.py"), "--out", str(out),
         "--sizes", "3", "70", "--horizon", "4", "--repeats", "3", "--crossover-nodes", "16"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "machine tuning: none" in proc.stdout
    doc = json.loads(out.read_text())
    assert {"python", "numpy", "git_sha", "machine_tuning", "edge_table_factor",
            "observer_update_growth"} <= doc.keys()
    assert [(e["N"], e["mode"]) for e in doc["sweep"]] == [
        (3, "distributed"), (3, "adaptive"), (70, "distributed"), (70, "adaptive")]
    for e in doc["sweep"]:
        assert e["observer_update_us"] > 0 and e["run_ms"] > 0 and e["peak_traced_mb"] > 0
        # a tree row reads one node: dense Omega at N=3, the edge table at N=70
        assert {f["form"] for f in e["mix_forms"]} == {"dense" if e["N"] == 3 else "table"}
    assert {(c["k"], c["columns"]) for c in doc["crossover"]} == {(2, 4), (2, 16), (1, 4), (1, 16)}
