#!/usr/bin/env python3
"""Probe: time the observer step and the closed loop over the follower count N.

``scripts/perf_pairs.py --workload sweep`` runs each tree's own copy of this
file, as it runs ``perfbench/run.py`` for the other workloads.

For each N it builds swarm-like scenarios (four modes of random spanning
trees in which follower i reads one random node in [0, i), dwell 2, a
planar constant-velocity leader with q = 4, double-integrator followers)
for three teams: ``shared`` (every follower samples its plant with step 1),
``mod4`` (follower i with the i mod 4-th of four steps, as the perfbench
swarm does) and ``distinct`` (every follower with its own step).  A fresh
process per (N, mode, team) reports, named ``N<n>.<mode>.<team>.<metric>``:
``observer_update_us`` per call; ``plant_step_us``, ``_plant_trajectory`` of
every step group over the horizon divided by the horizon (u and x+ of every
follower); ``run_ms`` per call; ``connectivity_ms``, the scenario's
``is_jointly_connected`` check, and ``analyze_ms``, ``analyze`` of the
run's log, per call; ``plant_classes`` (1, 4 and N) and the
``step_groups`` they stack into, which set how many stacked products a step
runs; ``table_modes``, how many of the four modes selected the edge-table
mix rather than dense Omega, and their largest in-degree ``k_max``; and,
traced by tracemalloc, the memory the topology keeps once built
(``topology_mb``), the memory one run's log keeps (``log_mb``) and the peak
of building the scenario and one run (``peak_traced_mb``).  Each time is the
best of REPEATS ``timeit`` runs (garbage collection off) that together last
about ``--seconds``.

One more fresh process times both mix forms, ``crossover.<nodes>.k<k>.
c<columns>.dense_us`` and ``.table_us``, on graphs whose follower rows all
have in-degree k, over the (N+1) / k ratios around ``EDGE_TABLE_FACTOR``:
that constant rests on this table.

The last line is one JSON object with perfbench's keys ``correct``,
``attempted``, ``failed`` and ``metrics``; an item that raises counts as
failed, and ``error`` names it.  Nothing is pinned or otherwise tuned on
the machine; BLAS runs on one thread unless the environment says otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import functools
import itertools
import json
import multiprocessing
import sys
import timeit
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coopreg import topology  # noqa: E402
from coopreg.observers import (  # noqa: E402
    LeaderModel,
    _mixer,
    _neighbor_mix,
    _observer_update,
    _update_work,
)
from coopreg.regulation import PlantModel  # noqa: E402
from coopreg.simkit import (  # noqa: E402
    OBSERVER_MODES,
    FollowerSpec,
    Scenario,
    _plant_trajectory,
    _step_groups,
    analyze,
    run,
    synthesize_gains,
)

# follower i samples its double integrator with step TEAMS[team](i, N)
TEAMS = {
    "shared": lambda i, n: 1.0,
    "mod4": lambda i, n: (0.5, 0.75, 1.0, 1.25)[i % 4],
    "distinct": lambda i, n: 0.5 + i / n,
}
LEADER_S = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
SEED = 0
REPEATS = 10
# (sizes N, horizon, crossover node counts N+1), full and for the smoke test
SWEEP = ((4, 32, 128, 512, 2048, 8192), 100, (64, 128, 256, 512, 1024, 2048))
TINY = ((3, 70), 4, (16,))


def double_integrator(h: float) -> PlantModel:
    c = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return PlantModel(A=np.kron(np.array([[1.0, h], [0.0, 1.0]]), np.eye(2)),
                      B=np.kron(np.array([[h * h / 2], [h]]), np.eye(2)),
                      C=c, D=np.zeros((2, 2)), E=np.zeros((4, 4)), F=-c)


def tree_topology(n: int, rng: np.random.Generator) -> topology.SwitchingTopology:
    graphs = tuple(topology.WeightedDigraph.from_edges(
        n + 1, [(int(rng.integers(0, i)), i) for i in range(1, n + 1)]) for _ in range(4))
    return topology.SwitchingTopology(
        graphs=graphs, signal=topology.SwitchingSignal.periodic([(m, 2) for m in range(1, 5)]))


def scenario(n: int, mode: str, horizon: int, team: str) -> Scenario:
    rng = np.random.default_rng(SEED)
    return Scenario(
        name=f"sweep-{n}-{mode}-{team}",
        leader=LeaderModel(S=LEADER_S, v0=np.array([0.0, 0.0, 1.0, 1.0])),
        topology=tree_topology(n, rng),
        followers=tuple(FollowerSpec(double_integrator(TEAMS[team](i, n)), rng.normal(size=4))
                        for i in range(n)),
        observer_mode=mode,
        eta0=tuple(rng.normal(size=4) for _ in range(n)),
        horizon=horizon,
    )


def best_per_call(fns: dict, seconds: float) -> dict:
    """Each of ``fns``' best per-call time over REPEATS timed runs that take
    turns, so that a burst of load from elsewhere on the machine slows a few
    runs of every function rather than all runs of one; each run calls its
    function often enough to last about ``seconds / REPEATS``."""
    timers = {name: timeit.Timer(fn) for name, fn in fns.items()}
    calls = {}
    for name, timer in timers.items():
        timer.timeit(1)  # warm-up
        calls[name] = max(1, int(seconds / REPEATS / max(timer.timeit(1), 1e-9)))
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(REPEATS):
        for name, timer in timers.items():
            best[name] = min(best[name], timer.timeit(calls[name]) / calls[name])
    return best


def sweep_item(n: int, mode: str, team: str, horizon: int, seconds: float) -> dict:
    tracemalloc.start()
    topo = tree_topology(n, np.random.default_rng(SEED))  # as scenario() draws it
    topology_kept, _ = tracemalloc.get_traced_memory()
    del topo
    tracemalloc.reset_peak()
    sc = scenario(n, mode, horizon, team)
    synthesize_gains(sc)  # solved and cached outside the log's memory
    before, _ = tracemalloc.get_traced_memory()
    log = run(sc)
    after, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    adjs = [sc.topology.adjacency_of_mode(m) for m in range(1, sc.topology.n_modes + 1)]
    bank = sc.initial_bank()
    # one log row as observer_logs stacks it, the leader's v and S first
    eta = np.concatenate([sc.leader.v0[None], bank.eta])
    s_est = None if bank.s_est is None else np.concatenate([LEADER_S[None], bank.s_est])
    eta_next = np.empty_like(bank.eta)
    s_next = None if s_est is None else np.empty_like(bank.s_est)
    work = _update_work(n, bank.q, s_est is not None)
    # each mode's mix operand resolved once, as observer_logs resolves it
    cycle = itertools.cycle([_mixer(a) for a in adjs])

    def step():
        _observer_update(LEADER_S, next(cycle), eta, s_est, eta_next, s_next, work)

    groups = _step_groups(sc)

    def plant_trajectories():
        for g in groups:
            _plant_trajectory(g, log.eta, log.v)

    best = best_per_call({
        "update": step, "plants": plant_trajectories, "run": lambda: run(sc),
        "connectivity": lambda: topology.is_jointly_connected(
            sc.topology, sc.checks.connectivity_window),
        "analyze": lambda: analyze(log)}, seconds)
    values = {
        "observer_update_us": (best["update"] * 1e6, "us"),
        "plant_step_us": (best["plants"] / horizon * 1e6, "us"),
        "run_ms": (best["run"] * 1e3, "ms"),
        "connectivity_ms": (best["connectivity"] * 1e3, "ms"),
        "analyze_ms": (best["analyze"] * 1e3, "ms"),
        "plant_classes": (len(sc._classes), "count"),
        "step_groups": (len(groups), "count"),
        "table_modes": (sum(a._edges is not None for a in adjs), "count"),
        "k_max": (max(len(topology._in_edge_table(a)) for a in adjs), "count"),
        "peak_traced_mb": (peak / 1e6, "MB"),
        "topology_mb": (topology_kept / 1e6, "MB"),
        "log_mb": ((after - before) / 1e6, "MB"),
    }
    return {f"N{n}.{mode}.{team}.{name}": {"value": v, "unit": unit}
            for name, (v, unit) in values.items()}


def in_degree_adjacency(n: int, k: int, rng: np.random.Generator) -> topology.NormalizedAdjacency:
    """Every follower reads k distinct random other nodes (the leader among them)."""
    w = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        others = np.delete(np.arange(n + 1), i)
        w[i, rng.choice(others, size=k, replace=False)] = rng.uniform(0.5, 1.5, size=k)
    return topology.normalize_adjacency(topology.WeightedDigraph(w))


def crossover(sizes: tuple, seconds: float) -> dict:
    rng = np.random.default_rng(SEED)
    out = {}
    for n1 in sizes:
        for k in [n1 // ratio for ratio in (8, 16, 32, 64, 128) if ratio <= n1]:
            adj = in_degree_adjacency(n1 - 1, k, rng)
            for columns in (4, 16):
                values = rng.normal(size=(n1, columns))
                mixed, term = np.empty((2, n1 - 1, columns))
                # the same adjacency with each mix form, whatever it selects
                forms = {"dense": None, "table": topology._in_edge_table(adj)}
                best = best_per_call({form: functools.partial(
                    _neighbor_mix, _mixer(dataclasses.replace(adj, _edges=edges)), values,
                    mixed, term)
                    for form, edges in forms.items()}, seconds)
                out |= {f"crossover.{n1}.k{k}.c{columns}.{form}_us":
                        {"value": s * 1e6, "unit": "us"} for form, s in best.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=0.25, help="time per measurement")
    ap.add_argument("--sizes", type=int, nargs="+", help="follower counts N")
    ap.add_argument("--tiny", action="store_true", help="the smoke test's sizes and horizon")
    args = ap.parse_args(argv)
    sizes, horizon, nodes = TINY if args.tiny else SWEEP
    items = [(sweep_item, n, mode, team, horizon, args.seconds) for n in args.sizes or sizes
             for mode in OBSERVER_MODES for team in TEAMS] + [(crossover, nodes, args.seconds)]
    found, failures = {}, []
    for fn, *fn_args in items:
        # a fresh interpreter per item: none inherits another's heap or caches
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            try:
                found |= pool.submit(fn, *fn_args).result()
            except Exception as exc:  # report the item and measure the rest
                failures.append(f"{fn.__name__}{tuple(fn_args)}: {exc!r}")
    print(json.dumps({"correct": not failures, "attempted": len(items), "failed": len(failures),
                      "metrics": found, **({"error": "; ".join(failures)} if failures else {})}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
