#!/usr/bin/env python3
"""Sweep seeded random switching networks and tabulate observer decay rates.

For each seed, draws a jointly connected topology and a leader with
rho(S) <= 1, then runs both observer variants from random initial estimates
and fits geometric decay rates to the error norms.

Usage:
    python scripts/run_observer_sweep.py [--seeds 20] [--horizon 500]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coopreg.observers import ObserverBank, fit_decay
from coopreg.properties import random_leader, random_topology, simulate_observer_norms


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--horizon", type=int, default=500)
    args = ap.parse_args()

    print(f"{'seed':>4} {'N':>2} {'q':>2} {'rho':>5}  "
          f"{'dist rate':>9} {'dist final':>10}  {'adap rate':>9} {'S final':>10}")
    all_ok = True
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        leader = random_leader(rng)
        n, q = topo.n_followers, leader.q

        dist = ObserverBank(eta=rng.normal(size=(n, q)))
        d_norm = simulate_observer_norms(topo, leader, dist, args.horizon)["eta_tilde"]
        d_fit = fit_decay(d_norm)

        adap = ObserverBank(eta=rng.normal(size=(n, q)), s_est=np.zeros((n, q, q)))
        a_norms = simulate_observer_norms(topo, leader, adap, args.horizon)
        a_fit = fit_decay(a_norms["eta_tilde"])
        s_final = a_norms["s_tilde"][-1]

        ok = d_fit.decaying and a_fit.decaying
        all_ok &= ok
        print(f"{seed:>4} {n:>2} {q:>2} {leader.rho:5.2f}  "
              f"{d_fit.rate:9.4f} {d_norm[-1]:10.2e}  "
              f"{a_fit.rate:9.4f} {s_final:10.2e}" + ("" if ok else "  <- no decay"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
