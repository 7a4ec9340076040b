#!/usr/bin/env python3
"""Time the observer step and the closed loop over the follower count N.

For each N, builds swarm-like scenarios (four modes of random spanning
trees in which follower i reads one random node in [0, i), dwell 2, a
planar constant-velocity leader with q = 4, double-integrator followers)
for three teams: ``shared`` (every follower samples its plant with step 1),
``mod4`` (follower i with the i mod 4-th of four steps, as the perfbench
swarm does) and ``distinct`` (every follower with its own step).  For each
team it records, in both observer modes:

- ``_observer_update`` per call, the plant/control step of one time step
  (``_plant_trajectory`` of every step group over the horizon, divided by
  the horizon: u and x+ of every follower) and ``run`` per call, each the
  best of ``--repeats`` timed runs;
- the number of plant classes (1, 4 and N for the three teams) and the
  number of step groups they stack into, which sets how many stacked
  products that step runs;
- which neighbour-mix form each mode's adjacency selected (edge table or
  dense Omega) and its largest in-degree k_max;
- the traced memory (tracemalloc) that the four-mode topology keeps once
  built, the memory that one run's trajectory log keeps, and the traced
  peak of building the scenario and one run.

A second table, ``crossover``, times the two mix forms against each other
on graphs whose follower rows all have in-degree k, over the (N+1) / k
ratios around ``EDGE_TABLE_FACTOR``; it is the measurement that constant
rests on.  The JSON file also records the Python and numpy versions and
the git commit.  Nothing is pinned or otherwise tuned on the machine; BLAS
runs on one thread unless the environment says otherwise.

Usage:
    python scripts/bench_observer_sweep.py --out BENCH.json \
        [--sizes 4 32 128 512 2048 8192] [--repeats 5] [--horizon 100]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import itertools
import json
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coopreg import topology  # noqa: E402
from coopreg.observers import LeaderModel, _neighbor_mix, _observer_update  # noqa: E402
from coopreg.regulation import PlantModel  # noqa: E402
from coopreg.simkit import (  # noqa: E402
    FollowerSpec,
    Scenario,
    _plant_trajectory,
    _step_groups,
    run,
    synthesize_gains,
)
from coopreg.topology import (  # noqa: E402
    NormalizedAdjacency,
    SwitchingSignal,
    SwitchingTopology,
    WeightedDigraph,
)

MODES = ("distributed", "adaptive")
# follower i samples its double integrator with step TEAMS[team](i, N)
TEAMS = {
    "shared": lambda i, n: 1.0,
    "mod4": lambda i, n: (0.5, 0.75, 1.0, 1.25)[i % 4],
    "distinct": lambda i, n: 0.5 + i / n,
}
LEADER_S = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
SEED = 0
TUNING = ("none: no CPU pinning, affinity, frequency or priority setting; "
          "wall-clock best of the repeats on a machine shared with other work")


def double_integrator(h: float) -> PlantModel:
    c = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return PlantModel(A=np.kron(np.array([[1.0, h], [0.0, 1.0]]), np.eye(2)),
                      B=np.kron(np.array([[h * h / 2], [h]]), np.eye(2)),
                      C=c, D=np.zeros((2, 2)), E=np.zeros((4, 4)), F=-c)


def tree_topology(n: int, rng: np.random.Generator) -> SwitchingTopology:
    graphs = tuple(
        WeightedDigraph.from_edges(n + 1, [(int(rng.integers(0, i)), i) for i in range(1, n + 1)])
        for _ in range(4)
    )
    return SwitchingTopology(graphs=graphs,
                             signal=SwitchingSignal.periodic([(m, 2) for m in range(1, 5)]))


def scenario(n: int, mode: str, horizon: int, team: str = "shared") -> Scenario:
    rng = np.random.default_rng(SEED)
    step = TEAMS[team]
    return Scenario(
        name=f"sweep-{n}-{mode}-{team}",
        leader=LeaderModel(S=LEADER_S, v0=np.array([0.0, 0.0, 1.0, 1.0])),
        topology=tree_topology(n, rng),
        followers=tuple(FollowerSpec(double_integrator(step(i, n)), rng.normal(size=4))
                        for i in range(n)),
        observer_mode=mode,
        eta0=tuple(rng.normal(size=4) for _ in range(n)),
        horizon=horizon,
    )


def best_per_call(fn, repeats: int, min_seconds: float = 0.05) -> float:
    """Best over ``repeats`` timed runs of the per-call time of ``fn``, each
    run calling it often enough to last about ``min_seconds``."""
    fn()
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(min_seconds / max(time.perf_counter() - t0, 1e-9)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def topology_bytes(n: int) -> int:
    """Traced memory that the sweep's four-mode topology keeps once built."""
    tracemalloc.start()
    try:
        topo = tree_topology(n, np.random.default_rng(SEED))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert topo.n_modes == 4
    return kept


def sweep_entry(n: int, mode: str, team: str, horizon: int, repeats: int) -> dict:
    tracemalloc.start()
    try:
        sc = scenario(n, mode, horizon, team)
        synthesize_gains(sc)  # solved and cached outside the log's memory
        before, _ = tracemalloc.get_traced_memory()
        log = run(sc)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    eta_log, v_log = log.eta, log.v
    del log
    adjs = [sc.topology.adjacency_of_mode(m) for m in range(1, sc.topology.n_modes + 1)]
    bank = sc.initial_bank()
    # one log row as observer_logs stacks it, the leader's v and S first
    eta = np.concatenate([sc.leader.v0[None], bank.eta])
    s_est = None if bank.s_est is None else np.concatenate([LEADER_S[None], bank.s_est])
    eta_next = np.empty_like(bank.eta)
    s_next = None if s_est is None else np.empty_like(bank.s_est)
    cycle = itertools.cycle(adjs)

    def step():
        _observer_update(LEADER_S, next(cycle), eta, s_est, eta_next, s_next)

    groups = _step_groups(sc)

    def plant_trajectories():
        for g in groups:
            _plant_trajectory(g, eta_log, v_log)

    return {
        "N": n,
        "mode": mode,
        "team": team,
        "q": 4,
        "horizon": horizon,
        "mix_forms": [{"form": "dense" if a._edges is None else "table",
                       "k_max": len(topology._in_edge_table(a))} for a in adjs],
        "plant_classes": len(sc._classes),
        "step_groups": len(groups),
        "observer_update_us": best_per_call(step, repeats) * 1e6,
        "plant_step_us": best_per_call(plant_trajectories, repeats) / horizon * 1e6,
        "run_ms": best_per_call(lambda: run(sc), repeats, min_seconds=0.1) * 1e3,
        "peak_traced_mb": peak / 1e6,
        "topology_mb": topology_bytes(n) / 1e6,
        "log_mb": (after - before) / 1e6,
    }


def in_degree_adjacency(n: int, k: int, rng: np.random.Generator) -> NormalizedAdjacency:
    """Every follower reads k distinct random other nodes (the leader among them)."""
    w = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        others = np.delete(np.arange(n + 1), i)
        w[i, rng.choice(others, size=k, replace=False)] = rng.uniform(0.5, 1.5, size=k)
    return topology.normalize_adjacency(WeightedDigraph(w))


def crossover(sizes: list[int], repeats: int) -> list[dict]:
    rng = np.random.default_rng(SEED)
    out = []
    for n1 in sizes:
        for ratio in (8, 16, 32, 64, 128):
            k = n1 // ratio
            if k < 1:
                continue
            adj = in_degree_adjacency(n1 - 1, k, rng)
            for columns in (4, 16):
                values = rng.normal(size=(n1, columns))
                # the same adjacency with each mix form, whatever it selects
                dense = dataclasses.replace(adj, _edges=None)
                table = dataclasses.replace(adj, _edges=topology._in_edge_table(adj))
                t_dense = best_per_call(lambda: _neighbor_mix(dense, values), repeats)
                t_table = best_per_call(lambda: _neighbor_mix(table, values), repeats)
                out.append({"nodes": n1, "k": k, "nodes_per_k": ratio, "columns": columns,
                            "dense_us": t_dense * 1e6, "table_us": t_table * 1e6,
                            "table_wins": t_table < t_dense})
    return out


def git_state() -> dict:
    """The checked-out commit and whether tracked files differ from it."""
    def git(*cmd: str) -> str | None:
        try:
            proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    changes = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": sha, "git_uncommitted_changes": None if changes is None else bool(changes)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 32, 128, 512, 2048, 8192])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--horizon", type=int, default=100)
    ap.add_argument("--crossover-nodes", type=int, nargs="*",
                    default=[64, 128, 256, 512, 1024, 2048],
                    help="node counts N+1 of the crossover table")
    args = ap.parse_args()
    if args.repeats < 3 or min(args.sizes) < 1 or args.horizon < 1:
        ap.error("need --repeats >= 3, sizes >= 1 and --horizon >= 1")

    sweep = [sweep_entry(n, mode, team, args.horizon, args.repeats)
             for n in args.sizes for mode in MODES for team in TEAMS]
    print(f"{'N':>5} {'mode':>11} {'team':>8} {'forms':>12} {'classes':>7} {'groups':>6} "
          f"{'update us':>10} {'plant us':>9} {'run ms':>9} {'peak MB':>8} {'topo MB':>8} "
          f"{'log MB':>8}")
    for e in sweep:
        forms = ",".join(sorted({f["form"] for f in e["mix_forms"]}))
        print(f"{e['N']:>5} {e['mode']:>11} {e['team']:>8} {forms:>12} {e['plant_classes']:>7} "
              f"{e['step_groups']:>6} {e['observer_update_us']:>10.1f} "
              f"{e['plant_step_us']:>9.1f} {e['run_ms']:>9.2f} {e['peak_traced_mb']:>8.2f} "
              f"{e['topology_mb']:>8.3f} {e['log_mb']:>8.2f}")
    cross = crossover(args.crossover_nodes, args.repeats)
    for c in cross:
        print(f"crossover nodes {c['nodes']:>5} k {c['k']:>4} columns {c['columns']:>2}: "
              f"dense {c['dense_us']:8.1f} us, table {c['table_us']:8.1f} us")
    per_call = {(e["N"], e["mode"]): e["observer_update_us"] for e in sweep
                if e["team"] == "shared"}
    growth = [{"from_N": a, "to_N": b, **{m: per_call[b, m] / per_call[a, m] for m in MODES}}
              for a, b in zip(args.sizes, args.sizes[1:])]
    doc = {
        "harness": "scripts/bench_observer_sweep.py",
        **git_state(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine_tuning": TUNING,
        "repeats": args.repeats,
        "edge_table_factor": topology.EDGE_TABLE_FACTOR,
        "sweep": sweep,
        "observer_update_growth": growth,
        "crossover": cross,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"machine tuning: {TUNING}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
