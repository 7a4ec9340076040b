"""Distributed leader-state observers over switching networks.

Two estimator families share one update, and a bank runs the adaptive one
exactly when it carries matrix estimates.  ``observer_logs`` is the one loop
that steps a bank over a switching schedule; ``observer_step`` is the same
update as one checked step.  The plain distributed observer propagates each
follower's estimate through the active graph,

    eta_i(t+1) = S eta_i(t) + S sum_j omega_ij(t) (eta_j(t) - eta_i(t)),

with eta_0 aliased to the true leader state.  The adaptive variant also runs
a matrix consensus on per-follower copies of the leader matrix,

    S_i(t+1)   = S_i(t) + sum_j omega_ij(t) (S_j(t) - S_i(t)),
    eta_i(t+1) = S_i(t) eta_i(t) + S_i(t) sum_j omega_ij(t) (eta_j(t) - eta_i(t)),

so followers need not know S a priori; the state update deliberately uses
the current estimate S_i(t), not the refreshed one.  Both sums run over the
in-neighbours j of follower i: over the adjacency's edge table when the
graph is sparse and has at least 256 nodes, otherwise as (Omega x)_i - x_i
over the dense Omega.

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
from typing import Callable

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
    """Per-follower estimates: eta (N, q) and, for the adaptive observer, s_est (N, q, q).

    The bank's mode is whether it carries the matrix estimates s_est: with
    them it runs the adaptive observer, without them the distributed one.
    The leader's own eta_0 / S_0 are never stored; step functions read them
    from the true leader, which prevents drift of the anchor values.
    """

    eta: np.ndarray
    s_est: np.ndarray | None = None

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 2:
            raise DimensionError("eta must be a (followers, q) array")
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
    def mode(self) -> str:
        return "distributed" if self.s_est is None else "adaptive"

    @property
    def n_followers(self) -> int:
        return self.eta.shape[0]

    @property
    def q(self) -> int:
        return self.eta.shape[1]


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
        if bank.s_est is not None:
            s_tilde = (bank.s_est - leader.S).reshape(-1, bank.q)
        return cls(eta_tilde=eta_tilde, s_tilde=s_tilde)


def _neighbor_mix(adj: NormalizedAdjacency, values: np.ndarray) -> np.ndarray:
    """sum_j omega_ij (values_j - values_i) for follower rows i = 1..N.

    ``values`` stacks the leader's entry first; works for vectors (N+1, q)
    and matrices (N+1, q, q) alike.  A sparse adjacency sums over its
    in-neighbour edge table, sum_k w_k (values[src_k] - values_i), in
    O(edges) per flattened entry.  Otherwise Omega is row-stochastic, so the
    sum equals (Omega values)_i - values_i: one matmul over the flattened
    entries instead of an (N+1, N+1, ...) difference tensor.
    """
    flat = values.reshape(values.shape[0], -1)
    own = flat[1:]
    if adj._edges is None:
        mix = adj.omega[1:] @ flat - own
    else:
        mix = None if adj._edges else np.zeros_like(own)
        for src, weight in adj._edges:
            term = np.take(flat, src, axis=0)  # a fresh copy, updated in place
            term -= own
            term *= weight
            mix = term if mix is None else np.add(mix, term, out=mix)
    return mix.reshape(own.shape[:1] + values.shape[1:])


def _observer_update(
    S: np.ndarray,
    adj: NormalizedAdjacency,
    v: np.ndarray,
    eta: np.ndarray,
    s_est: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Next (eta, s_est) of the whole bank on raw arrays, without checks.

    With ``s_est`` None this is the distributed observer, which multiplies by
    the leader's S; otherwise the adaptive one, whose state update uses the
    current S_i(t) and whose refreshed S_i(t+1) is returned for the next call.
    """
    mixed = eta + _neighbor_mix(adj, np.concatenate([v[None, :], eta]))
    if s_est is None:
        return mixed @ S.T, None
    new_s = s_est + _neighbor_mix(adj, np.concatenate([S[None, :, :], s_est], axis=0))
    return np.einsum("iab,ib->ia", s_est, mixed), new_s


def observer_step(
    leader: LeaderModel,
    v: np.ndarray,
    bank: ObserverBank,
    adj: NormalizedAdjacency,
) -> ObserverBank:
    """Advance all follower estimates one step through the active graph.

    A bank without s_est runs the distributed observer, which multiplies by
    the leader's S; a bank with s_est runs the adaptive one, whose state
    update multiplies by the current S_i(t) while the refreshed S_i(t+1)
    only takes effect on the next call.  The leader state v itself is
    advanced separately (v <- S v); this function only produces the next
    estimate bank.
    """
    if adj.node_count != bank.n_followers + 1:
        raise DimensionError(
            f"graph has {adj.node_count} nodes but bank holds {bank.n_followers} followers"
        )
    if np.asarray(v).shape[0] != bank.q:
        raise DimensionError("leader state dimension does not match the bank")
    new_eta, new_s = _observer_update(leader.S, adj, np.asarray(v, dtype=float),
                                      bank.eta, bank.s_est)
    return ObserverBank(eta=new_eta, s_est=new_s)


def observer_logs(
    leader: LeaderModel,
    topology: SwitchingTopology,
    bank: ObserverBank,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The leader states v (T+1, q), the estimates eta (T+1, N, q) and, for an
    adaptive bank, s_est (T+1, N, q, q) of ``bank`` run over times 0..horizon.

    The schedule is read once; each step is one unchecked update of the raw
    arrays into its log row.  A diverging run overflows to inf and NaN, with
    whatever floating-point warnings the caller's ``np.errstate`` allows.
    """
    v = leader.trajectory(horizon)
    eta, s_est = (None if a is None else np.empty((horizon + 1,) + a.shape)
                  for a in (bank.eta, bank.s_est))
    eta[0] = bank.eta
    if s_est is not None:
        s_est[0] = bank.s_est
    for t, mode in enumerate(topology.signal.modes(0, horizon).tolist()):
        eta[t + 1], s_next = _observer_update(
            leader.S, topology.adjacency_of_mode(mode), v[t], eta[t],
            None if s_est is None else s_est[t])
        if s_est is not None:
            s_est[t + 1] = s_next
    return v, eta, s_est


def _error_norms(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Frobenius norm of every a[t] - ref[t]: one dot per t, as np.linalg.norm
    computes it (a sum of squares along an axis rounds differently), over
    blocks of time steps, so that no difference of the whole logs is held."""
    out, block = np.empty(len(a)), 16  # time steps per block
    for t in range(0, len(a), block):
        d = (a[t:t + block] - ref[t:t + block]).reshape(-1, a[0].size)
        out[t:t + block] = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays as one broadcast multiply.

    Every entry is the single product a[i, j] * b[k, l], as in np.kron, so
    the result is the same to the bit without np.kron's generic set-up.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def error_form_step(
    err: ErrorState,
    adj: NormalizedAdjacency,
    leader: LeaderModel,
    v: np.ndarray,
) -> ErrorState:
    """Advance the stacked error state through its compact linear form.

    Without s_tilde (distributed observer) this is the homogeneous map
    eta_tilde <- (Lambda kron S) eta_tilde.  With s_tilde (adaptive
    observer) it applies

        eta_tilde <- (Gamma1 + Gamma2) eta_tilde + Gamma3
        s_tilde   <- (Lambda kron I_q) s_tilde

    with Gamma1 = Lambda kron S, Gamma2 the block-diagonal matrix error plus
    its row-wise Kronecker coupling through (Lambda - I), and Gamma3 the
    matrix error acting on the current leader state.  Both right-hand sides
    are evaluated at the current time, matching the bank updates exactly;
    this function is the independent second route for equivalence tests.
    """
    lam = adj.lambda_block
    n = lam.shape[0]
    q = leader.q
    if err.eta_tilde.shape[0] != n * q:
        raise DimensionError(
            f"eta_tilde has {err.eta_tilde.shape[0]} entries, expected {n * q}"
        )
    gamma1 = _kron(lam, leader.S)
    if err.s_tilde is None:
        return ErrorState(eta_tilde=gamma1 @ err.eta_tilde)

    # as (n, q, n, q) arrays, block (i, j) of a matrix is [i, :, j, :]
    s_blocks = err.s_tilde.reshape(n, q, q)
    s_diag = np.zeros((n, q, n, q))
    diag = np.arange(n)
    s_diag[diag, :, diag, :] = s_blocks
    s_diag = s_diag.reshape(n * q, n * q)
    # row block i is (Lambda - I)[i, :] kron s_tilde_i, each entry one product as in _kron
    lam_min_i = lam - np.eye(n)
    coupling = (lam_min_i[:, None, :, None] * s_blocks[:, :, None, :]).reshape(n * q, n * q)
    gamma2 = s_diag + coupling
    gamma3 = s_diag @ np.broadcast_to(np.asarray(v, dtype=float), (n, q)).reshape(-1)
    new_eta = (gamma1 + gamma2) @ err.eta_tilde + gamma3
    new_s = _kron(lam, np.eye(q)) @ err.s_tilde
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
    for mode in topo.signal.modes(0, t).tolist():
        lam = topo.adjacency_of_mode(mode).lambda_block
        direct = _kron(lam, leader.S) @ direct
        lam_prod = lam @ lam_prod
    factored = _kron(lam_prod, np.linalg.matrix_power(leader.S, t))
    return float(np.max(np.abs(direct - factored)))


def perturbed_convergence_check(
    c_seq: Callable[[int], np.ndarray],
    d_seq: Callable[[int], np.ndarray],
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
        z = c_seq(t) @ z + d_seq(t)
        norms[t + 1] = np.linalg.norm(z)
    return fit_decay(norms)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares geometric fit ||e(t)|| ~ prefactor * rate**t.

    ``residual`` is the RMS deviation of ln||e|| from the fitted line,
    normalized by the log-range the tail spans (floored at 1), a scale-free
    straightness measure that ignores bounded switching ripple.  ``rate`` is
    NaN when too few samples survive flooring or a sample is not finite;
    ``floored`` marks finite series that sit entirely at the numerical floor.
    """

    rate: float
    prefactor: float
    residual: float
    n_samples: int
    floored: bool

    @property
    def decaying(self) -> bool:
        return self.floored or (not math.isnan(self.rate) and self.rate < 1.0)


# the share of a series' kept samples that a fit uses (its tail, past the
# early transient), and the level at or below which a sample is fp noise
TAIL_FRACTION = 0.6
FLOOR = 1e-13


def _fit_columns(values: np.ndarray, floors: np.ndarray | float) -> list[DecayFit]:
    """Geometric fits of every column of a (T, k) stack of series at once.

    Column j drops its samples at or below ``floors[j]`` (a scalar floor
    applies to every column) and fits a line through (t, ln value) over the
    last max(ceil(TAIL_FRACTION * kept), 2) kept samples, found with a
    reversed cumulative count of the kept samples.  The slope and intercept
    are the closed-form centred least-squares ones, computed for all
    columns in the same array operations; each column is a row of the
    transposed stack and is reduced on its own, so its fit does not depend
    on the other columns.  A finite column with no kept sample is
    ``floored``; one with a single kept sample gets NaN rate, prefactor and
    residual.  A column holding NaN or +-inf keeps no sample: it gets that
    NaN fit with ``n_samples`` 0 and is not floored, so it never decays, and
    it is the only kind of column with neither a sample nor ``floored``.
    """
    v = np.ascontiguousarray(np.asarray(values, dtype=float).T)  # one series per row
    finite = np.isfinite(v).all(axis=1)
    keep = (v > np.reshape(floors, (-1, 1))) & finite[:, None]
    count = keep.sum(axis=1)
    want = np.maximum(np.ceil(TAIL_FRACTION * count), 2)
    kept_from = np.cumsum(keep[:, ::-1], axis=1)[:, ::-1]  # kept samples at or after t
    sel = keep & (kept_from <= want[:, None])
    n = sel.sum(axis=1)
    lines = n >= 2
    sel, v, m = sel[lines], v[lines], n[lines]
    t = np.arange(v.shape[1], dtype=float)
    y = np.log(np.where(sel, v, 1.0))  # ln v on the tail, 0 elsewhere
    t_mean = (sel * t).sum(axis=1) / m
    y_mean = y.sum(axis=1) / m
    dt = np.where(sel, t - t_mean[:, None], 0.0)
    dy = np.where(sel, y - y_mean[:, None], 0.0)
    slope = (dt * dy).sum(axis=1) / (dt * dt).sum(axis=1)
    resid = dy - slope[:, None] * dt
    rms = np.sqrt((resid * resid).sum(axis=1) / m)
    span = (y.max(axis=1, where=sel, initial=-np.inf)
            - y.min(axis=1, where=sel, initial=np.inf))
    fits = np.full((3, n.shape[0]), np.nan)
    fits[:, lines] = np.exp(slope), np.exp(y_mean - slope * t_mean), rms / np.maximum(span, 1.0)
    floored = finite & (count == 0)
    fits[:, floored] = 0.0
    return [
        DecayFit(rate=rate, prefactor=prefactor, residual=residual,
                 n_samples=samples, floored=at_floor)
        for rate, prefactor, residual, samples, at_floor
        in zip(*fits.tolist(), n.tolist(), floored.tolist())
    ]


def fit_decay(values: np.ndarray) -> DecayFit:
    """Fit a geometric rate to a nonnegative series.

    Samples at or below ``FLOOR`` are discarded (they sit in floating-point
    noise), then a least-squares line is fit through (t, ln value) over the
    last ``TAIL_FRACTION`` of the surviving samples, skipping the early
    transient.  A series holding NaN or +-inf gets a NaN fit that is not
    decaying.  This is the one-column case of ``_fit_columns``, the fit
    that ``simkit.analyze`` runs on all its series at once.
    """
    return _fit_columns(np.asarray(values, dtype=float)[:, None], FLOOR)[0]
