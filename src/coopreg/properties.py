"""Randomized property suites over generated switching networks.

Each suite draws deterministic trials (trial rng = base seed + trial index)
from a scenario family with verified joint connectivity: a spanning tree
rooted at the leader is split across 2-3 modes, every follower gets a direct
leader link with probability 0.5, extra edges appear with probability 0.3,
and the periodic schedule cycles all modes with dwell 1 or 2.  The family is
deliberately compact (period <= 6) so that error decay is fast enough for
tight final-value assertions.

Suites:
  consensus   -- averaging over the full node set collapses the spread of
                 random initial vectors to a common value
  lemma2      -- products of follower blocks contract geometrically
  lemma3      -- the same products Kronecker-coupled with a leader matrix of
                 spectral radius <= 1 still contract
  lemma4      -- a geometrically vanishing input does not destroy geometric
                 convergence of a stable switched system
  kron        -- direct products of (Lambda kron S) factors agree with the
                 factored form (product of Lambdas) kron S^t
  equivalence -- the logs of ``observer_logs``, the loop ``run`` executes,
                 minus the leader trajectory equal the compact error-form
                 simulation, both observer modes
  observers   -- both observers' error norms decay geometrically from
                 random initial estimates over 500 steps; each trial line
                 tabulates N, q, rho(S), the fitted rates and final errors
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observers import (
    DecayFit,
    ErrorState,
    LeaderModel,
    ObserverBank,
    _error_norms,
    error_form_step,
    fit_decay,
    kron_factorization_check,
    observer_logs,
    perturbed_convergence_check,
    spectral_radius,
)
from .topology import (
    SwitchingSignal,
    SwitchingTopology,
    WeightedDigraph,
    consensus_step,
    is_jointly_connected,
    transition_product,
)


@dataclass(frozen=True)
class TrialResult:
    index: int
    passed: bool
    detail: str


def random_topology(rng: np.random.Generator) -> SwitchingTopology:
    """Draw a jointly connected switching topology from the trial family."""
    n = int(rng.integers(2, 7))
    n_modes = int(rng.integers(2, 4))
    dwell = int(rng.integers(1, 3))
    mats = [np.zeros((n + 1, n + 1)) for _ in range(n_modes)]
    for i in range(1, n + 1):
        parent = int(rng.integers(0, i))
        mats[int(rng.integers(0, n_modes))][i, parent] = rng.uniform(0.5, 1.5)
    for i in range(1, n + 1):
        if rng.random() < 0.5:
            mats[int(rng.integers(0, n_modes))][i, 0] = rng.uniform(0.5, 1.5)
    for i in range(1, n + 1):
        for j in range(n + 1):
            if i != j and rng.random() < 0.3:
                mats[int(rng.integers(0, n_modes))][i, j] = rng.uniform(0.5, 1.5)
    signal = SwitchingSignal.periodic([(m + 1, dwell) for m in range(n_modes)])
    return SwitchingTopology(
        graphs=tuple(WeightedDigraph(np.where(w > 0, w, 0.0)) for w in mats),
        signal=signal,
    )


def random_leader(
    rng: np.random.Generator,
    q: int | None = None,
    rho: float | None = None,
) -> LeaderModel:
    """Random leader with spectral radius scaled to ``rho``.

    By default rho is 1 with probability 0.3, otherwise uniform in
    [0.7, 1.0].  A Gaussian draw is almost surely diagonalizable, so powers
    of the scaled matrix stay bounded when rho <= 1.
    """
    q = int(rng.integers(2, 5)) if q is None else q
    if rho is None:
        rho = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.7, 1.0))
    while True:
        m = rng.normal(size=(q, q))
        r = spectral_radius(m)
        if r > 1e-6:
            break
    return LeaderModel(S=m * (rho / r), v0=rng.normal(size=q))


def connectivity_window(topo: SwitchingTopology) -> int:
    """The family's guaranteed window: one full period minus one."""
    return topo.signal.period - 1


def simulate_observer_norms(
    topo: SwitchingTopology,
    leader: LeaderModel,
    bank: ObserverBank,
    horizon: int,
) -> dict[str, np.ndarray]:
    """Run an observer bank against the leader and record error norms."""
    v, eta, s_est = observer_logs(leader, topo, bank, horizon)
    out = {"eta_tilde": _error_norms(eta, v[:, None, :])}
    if s_est is not None:
        out["s_tilde"] = _error_norms(s_est, np.broadcast_to(leader.S, s_est.shape))
    return out


def bank_vs_error_form(
    topo: SwitchingTopology,
    leader: LeaderModel,
    bank: ObserverBank,
    horizon: int,
) -> float:
    """Max abs deviation between the errors of ``observer_logs`` and their twin
    over a run, taken by one ``np.max`` so that a NaN anywhere is the result."""
    v, eta, s_est = observer_logs(leader, topo, bank, horizon)
    twin = [ErrorState.from_bank(bank, v[0], leader)]
    for t, mode in enumerate(topo.signal.modes(0, horizon).tolist()):
        twin.append(error_form_step(twin[-1], topo.adjacency_of_mode(mode), leader, v[t]))
    dev = [eta - v[:, None, :] - np.reshape([e.eta_tilde for e in twin], eta.shape)]
    if s_est is not None:
        dev.append(s_est - leader.S - np.reshape([e.s_tilde for e in twin], s_est.shape))
    return float(np.max(np.abs(np.concatenate([d.reshape(-1) for d in dev]))))


def consensus_trial(seed: int) -> TrialResult:
    """Averaging collapses the spread of 100 random vectors below 1e-9 within
    60 N (window + 1) steps, or, if longer, twice the steps
    the Lemma 2 rate r = rho(Lambda(P-1) .. Lambda(0))^(1/P) over one period
    P needs for that, so a slowly contracting topology gets the time it needs.
    Lambda has a positive diagonal and the schedule is jointly connected, so
    0 < r < 1."""
    horizon_factor, n_vectors = 60, 100
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    window = connectivity_window(topo)
    if not is_jointly_connected(topo, window):
        return TrialResult(seed, False, "generated topology failed connectivity")
    x = rng.normal(size=(topo.node_count, n_vectors))
    period = topo.signal.period
    rate = spectral_radius(transition_product(topo, 0, period)) ** (1 / period)
    spread0 = float(np.max(x.max(axis=0) - x.min(axis=0)))
    needed = math.ceil(2 * math.log(1e-9 / spread0) / math.log(rate))
    horizon = max(horizon_factor * topo.n_followers * (window + 1), needed)
    for mode in topo.signal.modes(0, horizon).tolist():
        x = consensus_step(topo.adjacency_of_mode(mode), x)
    spread = float(np.max(x.max(axis=0) - x.min(axis=0)))
    return TrialResult(
        seed, spread < 1e-9,
        f"spread {spread:.3e} after {horizon} steps ({n_vectors} initial vectors)",
    )


def _spectral_norm(m: np.ndarray) -> float:
    """The largest singular value of a 2-D array: the LAPACK call that
    ``np.linalg.norm(m, 2)`` makes, without its per-call axis handling."""
    return np.linalg.svd(m, compute_uv=False)[0]


def follower_product_norms(topo: SwitchingTopology, horizon: int) -> np.ndarray:
    """Spectral norms of Lambda(k-1) .. Lambda(0) for k = 0, .., horizon.

    The product is accumulated one step at a time, with the factors
    multiplied in the order ``transition_product(topo, 0, k)`` uses, so each
    norm is the same float at O(horizon) instead of O(horizon^2) cost.
    """
    prod = np.eye(topo.n_followers)
    norms = np.empty(horizon + 1)
    norms[0] = _spectral_norm(prod)
    for k, mode in enumerate(topo.signal.modes(0, horizon).tolist(), start=1):
        prod = topo.adjacency_of_mode(mode).lambda_block @ prod
        norms[k] = _spectral_norm(prod)
    return norms


def lemma2_trial(seed: int) -> TrialResult:
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    fit = fit_decay(follower_product_norms(topo, 240))
    passed = fit.decaying
    return TrialResult(
        seed, passed,
        f"follower-block product rate {fit.rate:.4f} residual {fit.residual:.3f}",
    )


def _coupled_system_fit(seed: int, horizon: int, driven: bool) -> tuple[LeaderModel, DecayFit]:
    """The drawn leader and the decay fit of ||z(t)|| for
    z(t+1) = (Lambda(t) kron S) z(t) + 0.9^t d0 on the trial's topology.

    Draws the topology, the leader, d0 (only when ``driven``; otherwise
    d0 = 0) and z(0), in that order, then runs ``perturbed_convergence_check``.
    """
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    dim = topo.n_followers * leader.q
    d0 = rng.normal(size=dim) if driven else np.zeros(dim)
    blocks = [np.kron(topo.adjacency_of_mode(m).lambda_block, leader.S)
              for m in range(1, topo.n_modes + 1)]
    modes = topo.signal.modes(0, horizon).tolist()
    return leader, perturbed_convergence_check(
        lambda t: blocks[modes[t] - 1], lambda t: (0.9**t) * d0, rng.normal(size=dim), horizon)


def lemma3_trial(seed: int) -> TrialResult:
    """Lemma 3 is Lemma 4's system without its input."""
    leader, fit = _coupled_system_fit(seed, 240, driven=False)
    return TrialResult(
        seed, fit.decaying,
        f"coupled product rate {fit.rate:.4f} (rho(S) = {leader.rho:.3f})",
    )


def lemma4_trial(seed: int) -> TrialResult:
    _, fit = _coupled_system_fit(seed, 300, driven=True)
    return TrialResult(
        seed, fit.decaying,
        f"perturbed system rate {fit.rate:.4f} residual {fit.residual:.3f}",
    )


def kron_trial(seed: int) -> TrialResult:
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    dev = kron_factorization_check(topo, leader, 40)
    return TrialResult(seed, dev < 1e-9, f"max factorization deviation {dev:.3e}")


def equivalence_trial(seed: int) -> TrialResult:
    horizon = 100
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    dist = ObserverBank(eta=rng.normal(size=(n, q)))
    adap = ObserverBank(
        eta=rng.normal(size=(n, q)),
        s_est=leader.S[None, :, :] + rng.uniform(-0.3, 0.3, size=(n, q, q)),
    )
    dev = np.maximum(
        bank_vs_error_form(topo, leader, dist, horizon),
        bank_vs_error_form(topo, leader, adap, horizon),
    )
    return TrialResult(seed, dev < 1e-10, f"max route deviation {dev:.3e}")


def observers_trial(seed: int) -> TrialResult:
    """Both observers from random initial estimates over 500 steps: the
    distributed one's eta errors and the adaptive one's (from S_i = 0) must
    decay geometrically."""
    horizon = 500
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    dist = simulate_observer_norms(topo, leader, ObserverBank(eta=rng.normal(size=(n, q))),
                                   horizon)["eta_tilde"]
    adap = simulate_observer_norms(
        topo, leader, ObserverBank(eta=rng.normal(size=(n, q)), s_est=np.zeros((n, q, q))),
        horizon)
    d_fit, a_fit = fit_decay(dist), fit_decay(adap["eta_tilde"])
    return TrialResult(
        seed, d_fit.decaying and a_fit.decaying,
        f"N {n} q {q} rho {leader.rho:.2f}: distributed rate {d_fit.rate:.4f} "
        f"final {dist[-1]:.2e}, adaptive rate {a_fit.rate:.4f} S final {adap['s_tilde'][-1]:.2e}",
    )


SUITES = {
    "consensus": consensus_trial,
    "lemma2": lemma2_trial,
    "lemma3": lemma3_trial,
    "lemma4": lemma4_trial,
    "kron": kron_trial,
    "equivalence": equivalence_trial,
    "observers": observers_trial,
}


def run_suite(name: str, trials: int, seed: int = 0) -> list[TrialResult]:
    """Run ``trials`` deterministic trials of the named suite; an unknown name
    is a KeyError listing the known ones."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r} (known: {known})")
    trial = SUITES[name]
    results = []
    for k in range(trials):
        outcome = trial(seed + k)
        results.append(TrialResult(k, outcome.passed, outcome.detail))
    return results
