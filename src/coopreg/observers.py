"""Distributed leader-state observers over switching networks.

Two estimator families are implemented as pure step functions.  The plain
distributed observer propagates each follower's estimate through the active
graph,

    eta_i(t+1) = S eta_i(t) + S sum_j omega_ij(t) (eta_j(t) - eta_i(t)),

with eta_0 aliased to the true leader state.  The adaptive variant also runs
a matrix consensus on per-follower copies of the leader matrix,

    S_i(t+1)   = S_i(t) + sum_j omega_ij(t) (S_j(t) - S_i(t)),
    eta_i(t+1) = S_i(t) eta_i(t) + S_i(t) sum_j omega_ij(t) (eta_j(t) - eta_i(t)),

so followers need not know S a priori; the state update deliberately uses
the current estimate S_i(t), not the refreshed one.

Each observer has a compact error-form twin acting on the stacked errors
(`error_form_step`), used as the independent second route in equivalence
tests.  Helpers for decay-rate fitting and a perturbed switched-system
harness live here as well.

Caution for adaptive runs with a non-contracting leader: the forcing term
coupling the matrix error to the leader state may grow transiently while
the leader state grows polynomially; the geometric decay of the matrix
error dominates eventually, and simulation drivers guard against genuine
divergence with a magnitude cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .topology import DimensionError, NormalizedAdjacency, SwitchingTopology, _readonly


def spectral_radius(m: np.ndarray) -> float:
    """Maximal eigenvalue magnitude of a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"spectral radius needs a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


@dataclass(frozen=True, eq=False)
class LeaderModel:
    """Autonomous leader v(t+1) = S v(t) with initial state v0.

    ``rho`` is the spectral radius of S and ``rho_le_one`` records whether
    the marginal-stability assumption holds (within 1e-9).  Construction
    never rejects an unstable S: the matrix-consensus half of the adaptive
    observer converges regardless, so the flag is checked by scenario
    validation instead.
    """

    S: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        v = np.asarray(self.v0, dtype=float).reshape(-1)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise DimensionError(f"leader matrix must be square, got {s.shape}")
        if v.shape[0] != s.shape[0]:
            raise DimensionError(
                f"v0 has dimension {v.shape[0]}, leader matrix is {s.shape[0]}x{s.shape[0]}"
            )
        object.__setattr__(self, "S", _readonly(s))
        object.__setattr__(self, "v0", _readonly(v))

    @property
    def q(self) -> int:
        return self.S.shape[0]

    @property
    def rho(self) -> float:
        return spectral_radius(self.S)

    @property
    def rho_le_one(self) -> bool:
        return self.rho <= 1.0 + 1e-9

    def advance(self, v: np.ndarray) -> np.ndarray:
        return self.S @ v

    def trajectory(self, horizon: int) -> np.ndarray:
        """Leader states v(0..horizon) as an (horizon+1, q) array."""
        out = np.empty((horizon + 1, self.q))
        out[0] = self.v0
        for t in range(horizon):
            out[t + 1] = self.S @ out[t]
        return out


@dataclass(frozen=True, eq=False)
class ObserverBank:
    """Per-follower estimates: eta (N, q) and, in adaptive mode, s_est (N, q, q).

    The leader's own eta_0 / S_0 are never stored; step functions read them
    from the true leader, which prevents drift of the anchor values.
    """

    mode: str
    eta: np.ndarray
    s_est: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("distributed", "adaptive"):
            raise ValueError(f"unknown observer mode {self.mode!r}")
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 2:
            raise DimensionError("eta must be a (followers, q) array")
        if (self.s_est is not None) != (self.mode == "adaptive"):
            raise ValueError("s_est must be present exactly in adaptive mode")
        object.__setattr__(self, "eta", _readonly(eta))
        if self.s_est is not None:
            s = np.asarray(self.s_est, dtype=float)
            n, q = eta.shape
            if s.shape != (n, q, q):
                raise DimensionError(
                    f"s_est shape {s.shape} does not match ({n}, {q}, {q})"
                )
            object.__setattr__(self, "s_est", _readonly(s))

    @property
    def n_followers(self) -> int:
        return self.eta.shape[0]

    @property
    def q(self) -> int:
        return self.eta.shape[1]

    @classmethod
    def zeros(cls, mode: str, n_followers: int, q: int) -> "ObserverBank":
        s = np.zeros((n_followers, q, q)) if mode == "adaptive" else None
        return cls(mode=mode, eta=np.zeros((n_followers, q)), s_est=s)


@dataclass(frozen=True, eq=False)
class ErrorState:
    """Stacked observer errors: eta_tilde (N*q,) and optionally s_tilde (N*q, q)."""

    eta_tilde: np.ndarray
    s_tilde: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "eta_tilde", _readonly(np.asarray(self.eta_tilde).reshape(-1)))
        if self.s_tilde is not None:
            object.__setattr__(self, "s_tilde", _readonly(self.s_tilde))

    @classmethod
    def from_bank(cls, bank: ObserverBank, v: np.ndarray, leader: LeaderModel) -> "ErrorState":
        eta_tilde = (bank.eta - np.asarray(v)[None, :]).reshape(-1)
        s_tilde = None
        if bank.mode == "adaptive":
            s_tilde = np.vstack([si - leader.S for si in bank.s_est])
        return cls(eta_tilde=eta_tilde, s_tilde=s_tilde)


def _check_bank_adj(bank: ObserverBank, adj: NormalizedAdjacency, v: np.ndarray) -> None:
    if adj.node_count != bank.n_followers + 1:
        raise DimensionError(
            f"graph has {adj.node_count} nodes but bank holds {bank.n_followers} followers"
        )
    if np.asarray(v).shape[0] != bank.q:
        raise DimensionError("leader state dimension does not match the bank")


def _neighbor_mix(omega: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j omega_ij (values_j - values_i) for follower rows i = 1..N.

    ``values`` stacks the leader's entry first; works for vectors (N+1, q)
    and matrices (N+1, q, q) alike.  Omega is row-stochastic, so the sum
    equals (Omega values)_i - values_i: one matmul over the flattened
    entries instead of an (N+1, N+1, ...) difference tensor.
    """
    flat = values.reshape(values.shape[0], -1)
    return (omega[1:] @ flat - flat[1:]).reshape((flat.shape[0] - 1,) + values.shape[1:])


def _observer_update(
    S: np.ndarray,
    omega: np.ndarray,
    v: np.ndarray,
    eta: np.ndarray,
    s_est: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Next (eta, s_est) of the whole bank on raw arrays, without checks.

    With ``s_est`` None this is the distributed observer, which multiplies by
    the leader's S; otherwise the adaptive one, whose state update uses the
    current S_i(t) and whose refreshed S_i(t+1) is returned for the next call.
    """
    mixed = eta + _neighbor_mix(omega, np.vstack([v[None, :], eta]))
    if s_est is None:
        return mixed @ S.T, None
    new_s = s_est + _neighbor_mix(omega, np.concatenate([S[None, :, :], s_est], axis=0))
    return np.einsum("iab,ib->ia", s_est, mixed), new_s


def distributed_observer_step(
    leader: LeaderModel,
    v: np.ndarray,
    bank: ObserverBank,
    adj: NormalizedAdjacency,
) -> ObserverBank:
    """Advance all follower estimates one step through the active graph.

    The leader state v itself is advanced separately (v <- S v); this
    function only produces the next estimate bank.
    """
    if bank.mode != "distributed":
        raise ValueError("bank is not in distributed mode")
    _check_bank_adj(bank, adj, v)
    new_eta, _ = _observer_update(leader.S, adj.omega, np.asarray(v, dtype=float), bank.eta)
    return ObserverBank(mode="distributed", eta=new_eta)


def adaptive_observer_step(
    leader: LeaderModel,
    v: np.ndarray,
    bank: ObserverBank,
    adj: NormalizedAdjacency,
) -> ObserverBank:
    """Advance matrix estimates and state estimates one step.

    The state update multiplies by the current S_i(t); the refreshed
    S_i(t+1) only takes effect on the next call.
    """
    if bank.mode != "adaptive":
        raise ValueError("bank is not in adaptive mode")
    _check_bank_adj(bank, adj, v)
    new_eta, new_s = _observer_update(leader.S, adj.omega, np.asarray(v, dtype=float),
                                      bank.eta, bank.s_est)
    return ObserverBank(mode="adaptive", eta=new_eta, s_est=new_s)


def observer_step(
    leader: LeaderModel,
    v: np.ndarray,
    bank: ObserverBank,
    adj: NormalizedAdjacency,
) -> ObserverBank:
    """Dispatch on the bank's mode."""
    if bank.mode == "distributed":
        return distributed_observer_step(leader, v, bank, adj)
    return adaptive_observer_step(leader, v, bank, adj)


def error_form_step(
    err: ErrorState,
    adj: NormalizedAdjacency,
    leader: LeaderModel,
    v: np.ndarray,
    mode: str | None = None,
) -> ErrorState:
    """Advance the stacked error state through its compact linear form.

    Distributed mode is the homogeneous map eta_tilde <- (Lambda kron S)
    eta_tilde.  Adaptive mode applies

        eta_tilde <- (Gamma1 + Gamma2) eta_tilde + Gamma3
        s_tilde   <- (Lambda kron I_q) s_tilde

    with Gamma1 = Lambda kron S, Gamma2 the block-diagonal matrix error plus
    its row-wise Kronecker coupling through (Lambda - I), and Gamma3 the
    matrix error acting on the current leader state.  Both right-hand sides
    are evaluated at the current time, matching the bank updates exactly;
    this function is the independent second route for equivalence tests.
    """
    if mode is None:
        mode = "adaptive" if err.s_tilde is not None else "distributed"
    lam = adj.lambda_block
    n = lam.shape[0]
    q = leader.q
    if err.eta_tilde.shape[0] != n * q:
        raise DimensionError(
            f"eta_tilde has {err.eta_tilde.shape[0]} entries, expected {n * q}"
        )
    if mode == "distributed":
        if err.s_tilde is not None:
            raise ValueError("distributed error state must not carry s_tilde")
        return ErrorState(eta_tilde=np.kron(lam, leader.S) @ err.eta_tilde)

    if err.s_tilde is None:
        raise ValueError("adaptive error state requires s_tilde")
    s_blocks = [err.s_tilde[i * q : (i + 1) * q, :] for i in range(n)]
    gamma1 = np.kron(lam, leader.S)
    s_diag = np.zeros((n * q, n * q))
    for i, blk in enumerate(s_blocks):
        s_diag[i * q : (i + 1) * q, i * q : (i + 1) * q] = blk
    lam_min_i = lam - np.eye(n)
    coupling = np.vstack(
        [np.kron(lam_min_i[i : i + 1, :], s_blocks[i]) for i in range(n)]
    )
    gamma2 = s_diag + coupling
    gamma3 = s_diag @ np.tile(np.asarray(v, dtype=float), n)
    new_eta = (gamma1 + gamma2) @ err.eta_tilde + gamma3
    new_s = np.kron(lam, np.eye(q)) @ err.s_tilde
    return ErrorState(eta_tilde=new_eta, s_tilde=new_s)


def kron_factorization_check(
    topo: SwitchingTopology,
    leader: LeaderModel,
    t: int,
) -> float:
    """Max-abs deviation between the direct product of (Lambda kron S)
    factors over 0..t and the factored form (product of Lambdas) kron S^t.

    Zero in exact arithmetic by the Kronecker mixed-product identity; the
    returned deviation measures floating-point disagreement only.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    n = topo.n_followers
    q = leader.q
    direct = np.eye(n * q)
    lam_prod = np.eye(n)
    for s in range(t):
        lam = topo.adjacency_at(s).lambda_block
        direct = np.kron(lam, leader.S) @ direct
        lam_prod = lam @ lam_prod
    factored = np.kron(lam_prod, np.linalg.matrix_power(leader.S, t))
    return float(np.max(np.abs(direct - factored)))


MatrixSeq = Callable[[int], np.ndarray] | Sequence[np.ndarray]


def _at(seq: MatrixSeq, t: int) -> np.ndarray:
    if callable(seq):
        return np.asarray(seq(t), dtype=float)
    return np.asarray(seq[t], dtype=float)


def perturbed_convergence_check(
    c_seq: MatrixSeq,
    d_seq: MatrixSeq,
    z0: np.ndarray,
    horizon: int,
) -> "DecayFit":
    """Simulate z(t+1) = C(t) z(t) + d(t) and fit the decay of ||z(t)||.

    Reusable harness for checking that an exponentially stable nominal
    system driven by a geometrically vanishing input still converges
    geometrically.  The caller asserts stability of the nominal system;
    this function only measures.
    """
    z = np.asarray(z0, dtype=float).reshape(-1)
    norms = np.empty(horizon + 1)
    norms[0] = np.linalg.norm(z)
    for t in range(horizon):
        z = _at(c_seq, t) @ z + _at(d_seq, t)
        norms[t + 1] = np.linalg.norm(z)
    return fit_decay(norms)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares geometric fit ||e(t)|| ~ prefactor * rate**t.

    ``residual`` is the RMS deviation of ln||e|| from the fitted line,
    normalized by the log-range the tail spans (floored at 1), a scale-free
    straightness measure that ignores bounded switching ripple.  ``rate`` is
    NaN when too few samples survive flooring; ``floored`` marks series that
    sit entirely at the numerical floor.
    """

    rate: float
    prefactor: float
    residual: float
    n_samples: int
    floored: bool

    @property
    def decaying(self) -> bool:
        return self.floored or (not math.isnan(self.rate) and self.rate < 1.0)


def fit_decay(
    values: np.ndarray,
    tail_fraction: float = 0.6,
    floor: float = 1e-13,
) -> DecayFit:
    """Fit a geometric rate to a nonnegative series.

    Samples at or below ``floor`` are discarded (they sit in floating-point
    noise), then a least-squares line is fit through (t, ln value) over the
    last ``tail_fraction`` of the surviving samples, skipping the early
    transient.
    """
    values = np.asarray(values, dtype=float)
    t = np.arange(values.shape[0])
    keep = values > floor
    if not keep.any():
        return DecayFit(rate=0.0, prefactor=0.0, residual=0.0, n_samples=0, floored=True)
    t, v = t[keep], values[keep]
    k = max(int(math.ceil(tail_fraction * len(v))), 2)
    t, v = t[-k:], np.log(v[-k:])
    if len(v) < 2 or t[-1] == t[0]:
        return DecayFit(
            rate=math.nan, prefactor=math.nan, residual=math.nan,
            n_samples=len(v), floored=False,
        )
    design = np.vstack([t, np.ones_like(t, dtype=float)]).T
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    resid = v - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    span = float(v.max() - v.min())
    return DecayFit(
        rate=float(np.exp(coef[0])),
        prefactor=float(np.exp(coef[1])),
        residual=rms / max(span, 1.0),
        n_samples=len(v),
        floored=False,
    )
