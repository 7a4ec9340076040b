"""Seeded scenario configs for the ``formation`` and ``swarm`` workloads.

The documents are built here from the config schema alone, without
importing coopreg, so the inputs stay byte-identical across versions of the
program: the same seed and parameters give the same files.  Initial
conditions are baked into each config; the benchmark never passes ``--seed``
with a config path (see NOTES.md).

Run as a script to write a workload's configs into a directory:

    python3 perfbench/inputs.py formation|swarm OUT_DIR --seed N [--tiny]

It prints the generator parameters as one JSON object.  The benchmark runs
it in a child process, so the generator's memory never shows in the
workload's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

MODES = ("distributed", "adaptive")

# planar constant-velocity leader, v = (px, py, vx, vy)
LEADER_S = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
LEADER_V0 = [0.0, 0.0, 1.0, 1.0]

# the formation-sec5 family: four-mode network over {0..4}, period 8, dwell 2
FORMATION_EDGES = (
    ((0, 1), (2, 4)),
    ((0, 2), (1, 3)),
    ((0, 3), (2, 1)),
    ((0, 4), (3, 2)),
)
SEGMENTS = [[1, 2], [2, 2], [3, 2], [4, 2]]
FORMATION_OFFSETS = ((-10.0, 0.0), (0.0, -10.0), (-20.0, 0.0), (0.0, -20.0))
FORMATION_START = ((15.0, 3.0), (-10.0, 19.0), (1.0, 40.0), (30.0, -2.0))
FORMATION_K_X = np.kron(np.array([[-0.7, -1.9]]), np.eye(2))

# swarm plant classes: double integrators sampled with these steps
SWARM_STEPS = (0.5, 0.75, 1.0, 1.25)

# every config's run.thresholds.final; the gate compares final errors with it
THRESHOLD_FINAL = 1e-6

FORMATION_FULL = {"configs": 16, "horizon": 300}
FORMATION_TINY = {"configs": 1, "horizon": 300}
SWARM_FULL = {"followers": 512, "horizon": 100}
SWARM_TINY = {"followers": 12, "horizon": 60}


def double_integrator(h: float) -> dict:
    """Plant matrices of a planar double integrator tracking the leader position."""
    c = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return {
        "A": np.kron(np.array([[1.0, h], [0.0, 1.0]]), np.eye(2)).tolist(),
        "B": np.kron(np.array([[h * h / 2.0], [h]]), np.eye(2)).tolist(),
        "C": c.tolist(),
        "D": np.zeros((2, 2)).tolist(),
        "E": np.zeros((4, 4)).tolist(),
        "F": (-c).tolist(),
    }


def _doc(name, graphs, followers, gains, mode, eta0, horizon, window) -> dict:
    n = len(followers)
    observer: dict = {"mode": mode, "eta0": eta0}
    if mode == "adaptive":
        observer["s0"] = [np.zeros((4, 4)).tolist() for _ in range(n)]
    return {
        "version": 1,
        "name": f"{name}-{mode}",
        "leader": {"S": LEADER_S.tolist(), "v0": list(LEADER_V0)},
        "graphs": graphs,
        "signal": {"period": 8, "segments": SEGMENTS},
        "followers": followers,
        "gains": gains,
        "observer": observer,
        "run": {
            "horizon": horizon,
            "checks": {"connectivity_window": window},
            "thresholds": {"final": THRESHOLD_FINAL, "rate": 0.999},
            "regulator_tol": 1e-9,
        },
    }


def formation_docs(rng: np.random.Generator, horizon: int, index: int) -> list[dict]:
    """One seeded formation-sec5 config per observer mode.

    Start positions are the bundled ones jittered by N(0, 5^2); follower
    velocities and observer estimates are standard normal draws.
    """
    graphs = []
    for edges in FORMATION_EDGES:
        w = np.zeros((5, 5))
        for j, i in edges:
            w[i, j] = 1.0
        graphs.append(w.tolist())
    plant = double_integrator(1.0)
    followers = []
    for (px, py), (ox, oy) in zip(FORMATION_START, FORMATION_OFFSETS):
        jitter = rng.normal(scale=5.0, size=2)
        vel = rng.normal(size=2)
        x0 = [px + jitter[0] - ox, py + jitter[1] - oy, vel[0], vel[1]]
        followers.append({**plant, "x0": [float(v) for v in x0]})
    gains = [{"method": "user", "K_x": FORMATION_K_X.tolist()} for _ in followers]
    eta0 = [rng.normal(size=4).tolist() for _ in followers]
    return [
        _doc(f"formation-sec5-{index:02d}", graphs, followers, gains, mode, eta0,
             horizon, window=7)
        for mode in MODES
    ]


def swarm_docs(rng: np.random.Generator, n: int, horizon: int) -> list[dict]:
    """N followers over four random spanning trees rooted at the leader.

    In each mode, follower i reads one random node in [0, i).  Follower i
    belongs to plant class i mod 4; every gain is a Riccati directive.
    """
    graphs = []
    for _ in SEGMENTS:
        w = np.zeros((n + 1, n + 1))
        for i in range(1, n + 1):
            w[i, int(rng.integers(0, i))] = 1.0
        graphs.append(w.tolist())
    plants = [double_integrator(h) for h in SWARM_STEPS]
    followers = []
    for i in range(n):
        x0 = np.concatenate([rng.normal(scale=20.0, size=2), rng.normal(size=2)])
        followers.append({**plants[i % len(plants)], "x0": x0.tolist()})
    gains = [{"method": "riccati"} for _ in followers]
    eta0 = [rng.normal(size=4).tolist() for _ in followers]
    return [
        _doc(f"swarm-{n}", graphs, followers, gains, mode, eta0, horizon, window=7)
        for mode in MODES
    ]


def write_configs(workload: str, out_dir: Path, seed: int, tiny: bool = False) -> dict:
    """Write a workload's configs; return the generator parameters."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "formation":
        params = dict(FORMATION_TINY if tiny else FORMATION_FULL)
        docs = [d for k in range(params["configs"])
                for d in formation_docs(rng, params["horizon"], k)]
    elif workload == "swarm":
        params = dict(SWARM_TINY if tiny else SWARM_FULL)
        docs = swarm_docs(rng, params["followers"], params["horizon"])
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    paths = []
    for doc in docs:
        path = out_dir / f"{doc['name']}.json"
        # indent=2 is the layout coopreg's own save_config writes
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths.append(str(path))
    return {"workload": workload, "seed": seed, "numpy": np.__version__,
            **params, "files": paths}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=["formation", "swarm"])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true", help="self-check sizes")
    args = ap.parse_args(argv)
    print(json.dumps(write_configs(args.workload, args.out_dir, args.seed, args.tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
