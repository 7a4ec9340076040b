#!/usr/bin/env python3
"""Run the benchmark on a baseline commit and on this checkout in alternating pairs.

Exports the baseline commit with ``git archive`` into a temporary directory
(no worktree, so ``.git`` is not modified) and copies this checkout as it
is on disk, uncommitted edits and untracked files included, into another.
Nothing git ignores is copied: a ``__pycache__`` left in this checkout
would otherwise spare the change side the compile that the baseline pays.
Then, for each seed, it runs ``perfbench/run.py --trace 0`` once from each
tree, alternating which tree runs first.  For each end-to-end metric of
BENCHMARK.json it prints every pair, each side's median and quartiles, the
change/parent ratio of the medians, the number of pairs the change won
(ties count for neither) and a verdict:

- ``gain``: the change won at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- ``unresolved``: a side's spread (IQR over median) exceeds the metric's
  bound, unless every change run beat every parent run;
- ``worse``: the change's median is worse than the parent's by more than the
  bound, as a fraction of the parent's median;
- ``within bound`` otherwise.

Finally it prints whether every run gated correct with 0 failed; the exit
code is 1 if one did not.

Usage:
    python scripts/perf_pairs.py --baseline REF --workload props --seeds 1-10 --seconds 30
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("perfbench") / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="git commit to compare against")
    ap.add_argument("--workload", choices=("formation", "swarm", "props"), required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, one pair per seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tiny", action="store_true", help="the benchmark's self-check sizes")
    return ap.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", ref],
                          stdout=subprocess.PIPE) as archive:
        tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    if archive.returncode or tar.returncode:
        raise SystemExit(f"perf_pairs: exporting {ref} with git archive failed")


def copy_checkout(dest: Path) -> None:
    """Copy the files git sees in this checkout, as they are on disk, into ``dest``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted on disk stays out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def bench(tree: Path, args, seed: int) -> dict:
    """One benchmark run from ``tree``: the JSON object of its last line."""
    cmd = [sys.executable, str(BENCH), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], lower_better: bool,
            bound: float) -> tuple[int, str]:
    """The change's pair wins and the verdict on one metric."""
    sign = 1 if lower_better else -1  # sign * (p - c) > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return wins, "gain"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound and not all_better:
        return wins, "unresolved"
    if sign * (cm - pm) > bound * pm:
        return wins, "worse"
    return wins, "within bound"


def value(run: dict, name: str) -> float:
    return run["metrics"].get(name, {}).get("value", float("nan"))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    base_sha = git("rev-parse", "--verify", f"{args.baseline}^{{commit}}")
    print(f"parent: {args.baseline} = {base_sha}")
    print(f"change: {ROOT} at {git('describe', '--always', '--dirty')}")
    print(f"workload {args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds:g} s per run{', tiny inputs' if args.tiny else ''}")

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        export(base_sha, trees["parent"])
        copy_checkout(trees["change"])
        same = subprocess.run(["diff", "-rq", *(str(t / "perfbench") for t in trees.values())],
                              capture_output=True).returncode == 0
        print(f"perfbench/ identical in both trees: {'yes' if same else 'NO'}")
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(trees[side], args, seed))
            cells = "  ".join(f"{m['name']} {value(runs['parent'][-1], m['name']):.4g}"
                              f" -> {value(runs['change'][-1], m['name']):.4g}" for m in metrics)
            print(f"pair {k + 1:>2} seed {seed} ({order[0]} first): {cells}", flush=True)

    bad = [(side, seed, r) for side in runs for seed, r in zip(args.seeds, runs[side])
           if not (r["correct"] is True and r["failed"] == 0)]
    if not bad:
        print(f"\n{'metric':<12} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30}"
              f" {'ratio':>6} {'wins':>6} {'bound':>5}  verdict")
        for m in metrics:
            parent = [value(r, m["name"]) for r in runs["parent"]]
            change = [value(r, m["name"]) for r in runs["change"]]
            wins, says = compare(parent, change, m["better"] == "lower", m["bound"])
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            print(f"{m['name']:<12} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<30}"
                  f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<30} {cm / pm:>6.3f}"
                  f" {f'{wins}/{len(parent)}':>6} {m['bound']:>5g}  {says}")
    for side, seed, r in bad:
        print(f"FAILED {side} seed {seed}: correct {r['correct']}, failed {r['failed']}"
              f"{', ' + r['error'] if 'error' in r else ''}")
    total = len(runs["parent"]) + len(runs["change"])
    print(f"all {total} runs gated correct with 0 failed: {'yes' if not bad else 'no'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
