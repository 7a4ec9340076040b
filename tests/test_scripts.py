"""Smoke runs of the scripts under scripts/."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    assert [(e["N"], e["mode"], e["team"]) for e in doc["sweep"]] == [
        (n, mode, team) for n in (3, 70) for mode in ("distributed", "adaptive")
        for team in ("shared", "mod4", "distinct")]
    for e in doc["sweep"]:
        assert e["observer_update_us"] > 0 and e["run_ms"] > 0 and e["peak_traced_mb"] > 0
        assert e["topology_mb"] > 0 and e["log_mb"] > 0
        assert e["plant_step_us"] > 0
        # one plant, four plants in turn, one plant per follower; classes of
        # one shape stack into one step group per class size (mod4 at N=70:
        # classes of 18 and of 17 followers)
        classes, groups = {"shared": (1, 1), "mod4": (min(4, e["N"]), 1 + (e["N"] == 70)),
                           "distinct": (e["N"], 1)}[e["team"]]
        assert (e["plant_classes"], e["step_groups"]) == (classes, groups)
        # a tree row reads one node, but both sizes are under the table's
        # 256-node floor: dense Omega
        assert {f["form"] for f in e["mix_forms"]} == {"dense"}
    assert {(c["k"], c["columns"]) for c in doc["crossover"]} == {(2, 4), (2, 16), (1, 4), (1, 16)}


def test_perf_pairs_compares_head_with_this_checkout():
    root = SCRIPTS.parent
    inside = shutil.which("git") and subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--is-inside-work-tree"],
        capture_output=True, text=True).stdout.strip() == "true"
    if not inside:
        pytest.skip("not a git work tree: perf_pairs.py exports its baseline with git archive")
    worktrees = subprocess.run(["git", "-C", str(root), "worktree", "list"],
                               capture_output=True, text=True).stdout
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "perf_pairs.py"), "--baseline", "HEAD", "--workload",
         "props", "--seeds", "1-1", "--seconds", "0.2", "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "perfbench/ identical in both trees: yes" in lines
    assert lines[-1] == "all 2 runs gated correct with 0 failed: yes"
    table = {line.split()[0]: line for line in lines
             if line.split()[:1] in (["setup_s"], ["wall_s"], ["peak_rss_mb"])}
    assert table.keys() == {"setup_s", "wall_s", "peak_rss_mb"}
    for row in table.values():
        assert re.search(r" [01]/1 ", row)  # the change's wins in one pair
        assert row.endswith(("gain", "unresolved", "worse", "within bound"))
    # the baseline was exported, not checked out as a worktree
    assert subprocess.run(["git", "-C", str(root), "worktree", "list"],
                          capture_output=True, text=True).stdout == worktrees



def test_perf_pairs_copies_the_checkout_without_what_git_ignores(tmp_path, monkeypatch):
    if not shutil.which("git"):
        pytest.skip("perf_pairs.py lists the checkout's files with git")
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPTS / "perf_pairs.py")
    perf_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_pairs)
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "edited.py").write_text("committed\n")
    (repo / "src" / "deleted.py").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "edited.py").write_text("edited\n")
    (repo / "src" / "deleted.py").unlink()
    (repo / "src" / "untracked.py").write_text("new\n")
    (repo / "src" / "__pycache__").mkdir()
    (repo / "src" / "__pycache__" / "edited.cpython-311.pyc").write_bytes(b"stale")
    monkeypatch.setattr(perf_pairs, "ROOT", repo)
    copy = tmp_path / "copy"
    perf_pairs.copy_checkout(copy)
    files = {str(p.relative_to(copy)): p.read_text() for p in copy.rglob("*") if p.is_file()}
    assert files == {".gitignore": "__pycache__/\n", "src/edited.py": "edited\n",
                     "src/untracked.py": "new\n"}
