#!/usr/bin/env python3
"""Run a benchmark on a baseline commit and on this checkout in alternating pairs.

Exports the baseline commit with ``git archive`` into a temporary directory
(no worktree, so ``.git`` is not modified) and copies this checkout as it
is on disk, uncommitted edits and untracked files included, into another.
Nothing git ignores is copied: a ``__pycache__`` left in this checkout
would otherwise spare the change side the compile that the baseline pays.
Then, for each seed, it runs each tree's own ``perfbench/run.py --trace 0``,
or for ``--workload sweep`` its N-sweep probe
``scripts/bench_observer_sweep.py``, alternating which tree runs first; both
print a last line of JSON with ``correct``, ``failed`` and ``metrics``.  Each
pair prints one line: both sides' gate (``correct`` and ``failed``) and the
BENCHMARK.json end-to-end metrics that its runs report.  Then, for each
metric the runs report, it prints each side's median and quartiles, the
change/parent ratio of the medians, the pairs the change won (ties count for
neither) and a verdict under the bound (BENCHMARK.json's, or SWEEP_BOUND):

- ``gain``: the change won at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- ``unresolved``: a side's spread (IQR over median) exceeds the bound,
  unless every change run beat every parent run;
- ``worse``: the change's median is worse than the parent's by more than the
  bound, as a fraction of the parent's median;
- ``within bound`` otherwise;
- ``missing``: a run on either side did not report the metric.

Finally it prints whether every run gated correct with 0 failed: exit code 1
if not, and 2 if the baseline lacks the program to run.  ``--out`` writes one
JSON record: both shas, every round's runs, each metric's summary and, for
the sweep, each side's ``observer_update_growth`` from its medians.

Usage:
    python scripts/perf_pairs.py --baseline REF --workload props --seeds 1-10 [--out B.json]
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("perfbench") / "run.py"
PROBE = Path("scripts") / "bench_observer_sweep.py"
# the probe's metrics have no bound in BENCHMARK.json; an A/A run of the
# sweep is to hold each median ratio within this fraction of 1
SWEEP_BOUND = 0.05


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="git commit to compare against")
    ap.add_argument("--workload", choices=("formation", "swarm", "props", "sweep"), required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, one pair per seed")
    ap.add_argument("--seconds", type=float, help="per benchmark run (default: BENCHMARK.json's "
                    "run_seconds) or per sweep measurement (default: the probe's)")
    ap.add_argument("--tiny", action="store_true", help="the benchmark's self-check sizes")
    ap.add_argument("--sizes", type=int, nargs="+", help="the sweep's follower counts N")
    ap.add_argument("--out", type=Path, help="JSON file to write the comparison to")
    args = ap.parse_args(argv)
    if args.sizes and (args.workload != "sweep" or min(args.sizes) < 1):
        ap.error("--sizes takes follower counts >= 1, for --workload sweep only")
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    dest.mkdir()
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
    if args.workload == "sweep":  # the probe measures fixed scenarios: the seed labels a round
        cmd = [sys.executable, str(PROBE)] + (["--sizes", *map(str, args.sizes)]
                                              if args.sizes else [])
    else:
        cmd = [sys.executable, str(BENCH), "--workload", args.workload, "--seed", str(seed),
               "--trace", "0"]
    cmd += (["--seconds", str(args.seconds)] if args.seconds else []) + (
        ["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else (xs[0],) * 3


def fraction(x: float, of: float) -> float:
    """x / of, where 0 / 0 is 0 and any other x / 0 is infinite: a count may be 0."""
    return x / of if of else (0.0 if x == 0 else math.inf)


def summary(parent: list[float], change: list[float], rule: dict) -> dict:
    """One metric over the rounds: each side's [q1, median, q3], the
    change/parent ratio of the medians and the quartiles of the per-round
    ratios, the change's pair wins and the verdict under the metric's rule."""
    sign = 1 if rule["better"] == "lower" else -1  # sign * (p - c) > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    if any(map(math.isnan, parent + change)):  # a run lacks it: renamed, dropped or new
        verdict = "missing"
    elif wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        verdict = "gain"
    elif (max(fraction(p3 - p1, pm), fraction(c3 - c1, cm)) > rule["bound"]
          and not all(sign * (p - c) > 0 for p in parent for c in change)):
        verdict = "unresolved"
    elif sign * (cm - pm) > rule["bound"] * pm:
        verdict = "worse"
    else:
        verdict = "within bound"
    r1, _, r3 = quartiles([1 + fraction(c - p, p) for p, c in zip(parent, change)])
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "ratio": 1 + fraction(cm - pm, pm),
            "round_ratio_iqr": [r1, r3], "wins": f"{wins}/{len(parent)}",
            "bound": rule["bound"], "verdict": verdict}


def value(run: dict, name: str) -> float:
    return run["metrics"].get(name, {}).get("value", float("nan"))


def growth(medians: dict[str, float]) -> list[dict]:
    """observer_update_us of the shared team from each N to the next, per mode."""
    per_call: dict[int, dict[str, float]] = {}
    for name, median in medians.items():
        if match := re.fullmatch(r"N(\d+)\.(\w+)\.shared\.observer_update_us", name):
            per_call.setdefault(int(match[1]), {})[match[2]] = median
    sizes = sorted(per_call)
    return [{"from_N": a, "to_N": b, **{m: per_call[b][m] / per_call[a][m] for m in per_call[a]}}
            for a, b in zip(sizes, sizes[1:])]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None and args.workload != "sweep":
        args.seconds = spec["run_seconds"]
    sha = {"parent": git("rev-parse", "--verify", f"{args.baseline}^{{commit}}"),
           "change": git("describe", "--always", "--dirty", "--abbrev=40")}
    print(f"parent: {args.baseline} = {sha['parent']}")
    print(f"change: {ROOT} at {sha['change']}")
    print(f"workload {args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, --seconds "
          f"{args.seconds or 'default'}{', tiny inputs' if args.tiny else ''}")

    rules = {m["name"]: m for m in spec["end_to_end"]}
    program = str(PROBE) if args.workload == "sweep" else f"{BENCH.parent}/"
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in runs}
        export(sha["parent"], trees["parent"])
        entry = trees["parent"] / (PROBE if args.workload == "sweep" else BENCH)
        # the sweep before it became a probe wrote its own record and took no --tiny
        if not (entry.is_file() and '"--tiny"' in entry.read_text()):
            print(f"perf_pairs: {args.baseline} has no {program} with --tiny", file=sys.stderr)
            return 2
        copy_checkout(trees["change"])
        same = subprocess.run(["diff", "-rq", *(str(t / program) for t in trees.values())],
                              capture_output=True).returncode == 0
        print(f"{program} identical in both trees: {'yes' if same else 'NO'}")
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(trees[side], args, seed))
            p, c = runs["parent"][-1], runs["change"][-1]
            cells = "".join(f"  {name} {value(p, name):.4g} -> {value(c, name):.4g}"
                            for name in rules if name in p["metrics"] or name in c["metrics"])
            print(f"pair {k + 1:>2} seed {seed} ({order[0]} first): correct {p['correct']} -> "
                  f"{c['correct']}  failed {p['failed']} -> {c['failed']}{cells}", flush=True)

    bad = [(side, seed, r) for side in runs for seed, r in zip(args.seeds, runs[side])
           if not (r["correct"] is True and r["failed"] == 0)]
    table = {} if bad else {
        name: summary(*([value(r, name) for r in runs[side]] for side in runs),
                      rules.get(name, {"better": "lower", "bound": SWEEP_BOUND}))
        for name in dict.fromkeys(n for r in runs["parent"] + runs["change"] for n in r["metrics"])}
    width = max([12, *map(len, table)])
    if table:
        print(f"\n{'metric':<{width}} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30}"
              f" {'ratio':>6} {'wins':>6} {'bound':>5}  verdict")
    for name, row in table.items():
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        print(f"{name:<{width}} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<30}"
              f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<30} {row['ratio']:>6.3f}"
              f" {row['wins']:>6} {row['bound']:>5g}  {row['verdict']}")
    for side, seed, r in bad:
        print(f"FAILED {side} seed {seed}: correct {r['correct']}, failed {r['failed']}"
              f"{', ' + r['error'] if 'error' in r else ''}")
    print(f"all {2 * len(args.seeds)} runs gated correct with 0 failed: "
          f"{'yes' if not bad else 'no'}")
    if args.out:
        # rounds alternate which side runs first, starting with the parent
        record = {"args": vars(args), "sha": sha, "python": platform.python_version(),
                  "platform": platform.platform(), "cpu_count": os.cpu_count(),
                  "rounds": [{"seed": seed, "parent": p, "change": c}
                             for seed, p, c in zip(args.seeds, *runs.values())],
                  "metrics": table, "observer_update_growth": {
                      side: growth({name: row[side][1] for name, row in table.items()})
                      for side in runs}}
        args.out.write_text(json.dumps(record, indent=2, default=str) + "\n")
        print(f"wrote {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
