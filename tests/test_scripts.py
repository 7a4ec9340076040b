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


def test_sweep_probe_prints_its_record():
    # the probe needs no git: each tree of a pairs run holds a copy of it
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_observer_sweep.py"), "--tiny", "--seconds", "0.02"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (True, 13, 0)
    m = {name: entry["value"] for name, entry in doc["metrics"].items()}
    items = [(n, mode, team) for n in (3, 70) for mode in ("distributed", "adaptive")
             for team in ("shared", "mod4", "distinct")]
    assert list(dict.fromkeys(tuple(name.split(".")[:3]) for name in m
                              if name.startswith("N"))) == [
        (f"N{n}", mode, team) for n, mode, team in items]
    for n, mode, team in items:
        e = {name.split(".")[3]: v for name, v in m.items()
             if name.startswith(f"N{n}.{mode}.{team}.")}
        assert e["observer_update_us"] > 0 and e["run_ms"] > 0 and e["peak_traced_mb"] > 0
        assert e["connectivity_ms"] > 0 and e["analyze_ms"] > 0
        assert e["topology_mb"] > 0 and e["log_mb"] > 0
        assert e["plant_step_us"] > 0
        # one plant, four plants in turn, one plant per follower; classes of
        # one shape stack into one step group per class size (mod4 at N=70:
        # classes of 18 and of 17 followers)
        classes, groups = {"shared": (1, 1), "mod4": (min(4, n), 1 + (n == 70)),
                           "distinct": (n, 1)}[team]
        assert (e["plant_classes"], e["step_groups"]) == (classes, groups)
        # a tree row reads one node, but both sizes are under the table's
        # 256-node floor: dense Omega
        assert (e["table_modes"], e["k_max"]) == (0, 1)
    crossover = {tuple(name.split(".")[2:]) for name in m if name.startswith("crossover.16.")}
    assert crossover == {(k, c, f"{form}_us") for k in ("k2", "k1") for c in ("c4", "c16")
                         for form in ("dense", "table")}
    assert all(m[f"crossover.16.{k}.{c}.{f}"] > 0 for k, c, f in crossover)


def in_git_work_tree(root: Path) -> bool:
    return bool(shutil.which("git")) and subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--is-inside-work-tree"],
        capture_output=True, text=True).stdout.strip() == "true"


def test_perf_pairs_compares_head_with_this_checkout():
    root = SCRIPTS.parent
    if not in_git_work_tree(root):
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
    (pair,) = [line for line in lines if line.startswith("pair ")]
    assert all(f"  {name} " in pair for name in ("setup_s", "wall_s", "peak_rss_mb"))
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


def test_perf_pairs_runs_the_sweep_probe_in_pairs(tmp_path):
    if not in_git_work_tree(SCRIPTS.parent):
        pytest.skip("not a git work tree: perf_pairs.py exports its baseline with git archive")
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "perf_pairs.py"), "--baseline", "HEAD", "--workload",
         "sweep", "--seeds", "1-1", "--seconds", "0.02", "--tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("scripts/bench_observer_sweep.py identical in both trees: ")
               for line in lines)
    assert lines[-2:] == ["all 2 runs gated correct with 0 failed: yes", f"wrote {out}"]
    # a pair line carries the gate and no probe metric; the table has them all
    (pair,) = [line for line in lines if line.startswith("pair ")]
    assert len(pair) < 300 and "correct True -> True  failed 0 -> 0" in pair
    doc = json.loads(out.read_text())
    assert set(doc["sha"]) == {"parent", "change"} and len(doc["rounds"]) == 1
    row = doc["metrics"]["N70.adaptive.mod4.run_ms"]
    assert row["parent"][1] == doc["rounds"][0]["parent"]["metrics"]["N70.adaptive.mod4.run_ms"][
        "value"]
    assert row["wins"] in ("0/1", "1/1") and row["bound"] == 0.05
    assert len(row["round_ratio_iqr"]) == 2 and row["ratio"] > 0
    assert doc["metrics"]["N3.distributed.shared.table_modes"]["ratio"] == 1.0  # 0 against 0
    for side in ("parent", "change"):
        (growth,) = doc["observer_update_growth"][side]
        assert (growth["from_N"], growth["to_N"]) == (3, 70)
        assert growth["adaptive"] > 0 and growth["distributed"] > 0


# the sweep before it became a probe: a one-tree script that took no --tiny
PRE_PROBE_SWEEP = 'ap.add_argument("--out", type=Path, required=True)\n'


@pytest.mark.parametrize("workload, program, files", [
    ("sweep", "scripts/bench_observer_sweep.py", {}),
    ("sweep", "scripts/bench_observer_sweep.py",
     {"scripts/bench_observer_sweep.py": PRE_PROBE_SWEEP}),
    ("props", "perfbench/", {}),
])
def test_perf_pairs_refuses_a_baseline_without_what_it_runs(workload, program, files, tmp_path,
                                                            monkeypatch, capsys):
    if not shutil.which("git"):
        pytest.skip("perf_pairs.py exports its baseline with git archive")
    perf_pairs = load_perf_pairs()
    repo = tmp_path / "repo"
    repo.mkdir()
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", repo)
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True, capture_output=True)
    monkeypatch.setattr(perf_pairs, "ROOT", repo)
    argv = ["--baseline", "HEAD", "--workload", workload, "--seeds", "1", "--tiny"]
    assert perf_pairs.main(argv) == 2
    assert f"perf_pairs: HEAD has no {program} with --tiny" in capsys.readouterr().err


def load_perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPTS / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAN = float("nan")


@pytest.mark.parametrize("parent, change, verdict", [
    ([10.0] * 10, [8.0] * 10, "gain"),
    ([10.0] * 4, [11.0] * 4, "worse"),
    ([10.0] * 4, [10.2] * 4, "within bound"),
    ([5.0, 10.0, 15.0, 10.0], [10.0] * 4, "unresolved"),
    # a metric one side's runs do not report: a rename, a drop or a new one
    ([10.0] * 4, [NAN] * 4, "missing"),
    ([10.0, NAN], [10.0, 10.0], "missing"),
])
def test_perf_pairs_verdicts(parent, change, verdict):
    row = load_perf_pairs().summary(parent, change, {"better": "lower", "bound": 0.05})
    assert row["verdict"] == verdict


def test_perf_pairs_copies_the_checkout_without_what_git_ignores(tmp_path, monkeypatch):
    if not shutil.which("git"):
        pytest.skip("perf_pairs.py lists the checkout's files with git")
    perf_pairs = load_perf_pairs()
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
