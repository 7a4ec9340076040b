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
    LeaderModel,
    ObserverBank,
    _error_norms,
    _fit_columns,
    _kron,
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
    eta_err = eta - v[:, None, :]
    s_err = None if s_est is None else s_est - leader.S
    # the twin starts from row 0 of the logs
    twin = [(eta_err[0].reshape(-1), None if s_err is None else s_err[0].reshape(-1, leader.q))]
    for adj, v_t in zip(topo.per_step(0, horizon, lambda adj: adj), v):
        twin.append(error_form_step(*twin[-1], adj, leader, v_t))
    twin_eta, twin_s = zip(*twin)
    dev = [eta_err - np.reshape(twin_eta, eta.shape)]
    if s_err is not None:
        dev.append(s_err - np.reshape(twin_s, s_est.shape))
    return float(np.max(np.abs(np.concatenate([d.reshape(-1) for d in dev]))))


def consensus_trial(seed: int) -> TrialResult:
    """Averaging collapses the spread of 100 random vectors below 1e-9 within
    60 N (window + 1) steps, or, if longer, twice the steps
    the Lemma 2 rate r = rho(Lambda(P-1) .. Lambda(0))^(1/P) over one period
    P needs for that, so a slowly contracting topology gets the time it needs.
    Lambda has a positive diagonal and the schedule is jointly connected, so
    0 < r < 1.  The leader reads no one, so after one period the follower
    errors x_i - x_0 must also be that product applied to the initial ones,
    to 1e-10; a loop that steps with the wrong modes fails there."""
    horizon_factor, n_vectors = 60, 100
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    window = connectivity_window(topo)
    if not is_jointly_connected(topo, window):
        return TrialResult(seed, False, "generated topology failed connectivity")
    x = rng.normal(size=(topo.node_count, n_vectors))
    period = topo.signal.period
    period_product = transition_product(topo, 0, period)
    rate = spectral_radius(period_product) ** (1 / period)
    spread0 = float(np.max(x.max(axis=0) - x.min(axis=0)))
    needed = math.ceil(2 * math.log(1e-9 / spread0) / math.log(rate))
    horizon = max(horizon_factor * topo.n_followers * (window + 1), needed)
    expected = period_product @ (x[1:] - x[0])
    for t, adj in enumerate(topo.per_step(0, horizon, lambda adj: adj), start=1):
        x = consensus_step(adj, x)
        if t == period:
            lag = float(np.max(np.abs(x[1:] - x[0] - expected)))
    spread = float(np.max(x.max(axis=0) - x.min(axis=0)))
    return TrialResult(
        seed, spread < 1e-9 and lag <= 1e-10,
        f"spread {spread:.3e} after {horizon} steps ({n_vectors} initial vectors)",
    )


def follower_product_norms(topo: SwitchingTopology, horizon: int) -> np.ndarray:
    """Spectral norms of Lambda(k-1) .. Lambda(0) for k = 0, .., horizon.

    The product is accumulated one step at a time, with the factors
    multiplied in the order ``transition_product(topo, 0, k)`` uses, so each
    norm is the same float at O(horizon) instead of O(horizon^2) cost.  The
    products fill one stack, whose largest singular values are one batched
    LAPACK call.
    """
    prods = np.empty((horizon + 1, topo.n_followers, topo.n_followers))
    prods[0] = np.eye(topo.n_followers)
    for lam, prod, prod_next in zip(topo.per_step(0, horizon, lambda adj: adj.lambda_block),
                                    prods, prods[1:]):
        np.dot(lam, prod, out=prod_next)
    return np.linalg.svd(prods, compute_uv=False)[:, 0]


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
    blocks = topo.per_step(0, horizon, lambda adj: _kron(adj.lambda_block, leader.S))
    drive = np.array([0.9**t for t in range(horizon)])[:, None] * d0  # row t: (0.9^t) d0
    return leader, perturbed_convergence_check(
        blocks.__getitem__, drive.__getitem__, rng.normal(size=dim), horizon)


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
    decay geometrically.  The distributed errors evolve by Lambda(t) kron S,
    so after the first period P they must also be
    (Lambda(P-1) .. Lambda(0)) kron S^P applied to the initial ones, to
    1e-10; a bank that steps with the wrong modes fails there."""
    horizon = 500
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    v, eta, _ = observer_logs(leader, topo, ObserverBank(eta=rng.normal(size=(n, q))), horizon)
    dist = _error_norms(eta, v[:, None, :])
    period = topo.signal.period
    expected = _kron(transition_product(topo, 0, period),
                     np.linalg.matrix_power(leader.S, period)) @ (eta[0] - v[0]).reshape(-1)
    lag = float(np.max(np.abs((eta[period] - v[period]).reshape(-1) - expected)))
    adap = simulate_observer_norms(
        topo, leader, ObserverBank(eta=rng.normal(size=(n, q)), s_est=np.zeros((n, q, q))),
        horizon)
    d_fit, a_fit = _fit_columns(np.stack([dist, adap["eta_tilde"]], axis=1))
    return TrialResult(
        seed, d_fit.decaying and a_fit.decaying and lag <= 1e-10,
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
