"""coopreg benchmark: the ``formation``, ``swarm`` and ``props`` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a coopreg checkout: it measures the sources under
``src/`` there and writes only under ``.perfbench_work/``.  It prints a
readable report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; ``--trace 1`` runs
untraced and traced passes and reports the per-layer ones.  ``--tiny``
shrinks every input for the self-check.
"""

import os

# a plain single-threaded baseline: set before anything imports numpy
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("formation", "swarm", "props")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120

# (name, unit); the first three are BENCHMARK.json's end-to-end metrics
E2E = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("agent_steps_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("fail_ratio", "ratio"),
)
E2E_REPORTED = ("setup_s", "wall_s", "peak_rss_mb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check input sizes")
    return ap.parse_args(argv)


def run_child(cmd: list[str]) -> str:
    """Run a helper process to completion and return its stdout."""
    return subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S).stdout


def environment(load_at_start) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sha = git.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "thread_env": dict(THREAD_ENV),
    }


def wall_s(loop) -> float:
    """Time of one pass: the sum over items of each item's median time."""
    return sum(statistics.median(ts) for ts in loop.times)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "coopreg" / "__init__.py").is_file():
        print(f"perfbench: no coopreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coopreg
    import tracing
    import workloads

    if Path(coopreg.__file__).resolve().parent != SRC / "coopreg":
        print(f"perfbench: imported coopreg from {coopreg.__file__}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs: list[Path] = []
    if args.workload == "props":
        trials = workloads.PROPS_TRIALS_TINY if args.tiny else workloads.PROPS_TRIALS
        params = {"workload": "props", "seed": args.seed, "trials_per_suite": trials,
                  "suites": list(tracing.SUITES)}
    else:
        cmd = [sys.executable, str(HERE / "inputs.py"), args.workload,
               str(work / "inputs"), "--seed", str(args.seed)]
        params = json.loads(run_child(cmd + (["--tiny"] if args.tiny else [])))
        configs = [Path(p) for p in params["files"]]

    # set-up is paid once per process, so time it in fresh processes
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    if args.workload == "swarm":
        probe += [str(p) for p in configs]
    setup_samples = [float(run_child(probe)) for _ in range(SETUP_PROBES)]

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()  # set-up is traced too: swarm loads its configs here
    if args.workload == "formation":
        workload = workloads.Formation(configs, work / "out")
    elif args.workload == "swarm":
        workload = workloads.Swarm(configs, work / "out")
    else:
        workload = workloads.Props(args.seed, params["trials_per_suite"])
    if tracer:
        setup_span = (0, tracer.mark())
        tracer.uninstall()

    workload.run(workload.items[0])  # untimed warm-up
    seconds = args.seconds / 2 if tracer else args.seconds
    loop = workloads.timed_loop(workload, seconds)
    attempted, failures = loop.attempted, list(loop.failures)
    if tracer:
        tracer.install()
        lo = tracer.mark()
        traced = workloads.timed_loop(workload, seconds)
        pass_span = (lo, tracer.mark())
        tracer.uninstall()
        attempted += traced.attempted
        failures += traced.failures
    if isinstance(workload, workloads.Formation):
        attempted += 1
        failures += [f"determinism: {p}" for p in workload.rerun_identical(work)]

    wall = wall_s(loop)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "agent_steps_per_s": workload.agent_steps / wall if workload.agent_steps else None,
        "trials_per_s": workload.trials / wall if workload.trials else None,
        "fail_ratio": len(failures) / attempted,
    }
    if tracer:
        layers = tracing.layer_metrics(tracer, setup_span, pass_span, traced.passes)
        layers[tracing.OVERHEAD] = wall_s(traced) - wall
        units = tracing.metric_units()
        reported = {k: {"value": layers[k], "unit": units[k]} for k in units}
        tracer.write(work / "spans.tsv")
    else:
        layers = {}
        units = dict(E2E)
        reported = {k: {"value": e2e[k], "unit": units[k]} for k in E2E_REPORTED}

    env = environment(load_at_start)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "inputs": params,
        "setup_samples_s": setup_samples, "passes": loop.passes,
        "item_times_s": loop.times, "end_to_end": e2e, "per_layer": layers,
        "failures": failures,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"inputs: {json.dumps({k: v for k, v in params.items() if k != 'files'})}")
    print(f"{loop.passes} untraced passes of {len(workload.items)} items "
          f"({sum(len(ts) for ts in loop.times)} item samples), "
          f"{SETUP_PROBES} set-up probes")
    for name, unit in E2E:
        value = e2e[name]
        shown = "n/a (does not apply to this workload)" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown} {unit if value is not None else ''}")
    for name, value in layers.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
