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

The step loops write each step into a preallocated row in place.  A 2-D
product there is ``np.dot(a, b, out=row)``: for float arrays it calls the
same BLAS routine as ``a @ b``, so the bits are the same, with less dispatch
cost per call than ``np.matmul``; ``out`` must be C-contiguous.

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

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable
from weakref import WeakKeyDictionary

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

    ``rho`` is the spectral radius of S, computed once, and ``rho_le_one``
    records whether the marginal-stability assumption holds (within 1e-9).
    Construction never rejects an unstable S: the matrix-consensus half of
    the adaptive observer converges regardless, so the flag is checked by
    scenario validation instead.
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

    @cached_property
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
        for v, v_next in zip(out, out[1:]):
            np.dot(self.S, v, out=v_next)
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
        # C order, whatever the caller's layout: the update's sums follow the
        # strides, and the matrix mix writes a flat view of the next S_i
        eta = np.ascontiguousarray(self.eta, dtype=float)
        if eta.ndim != 2:
            raise DimensionError("eta must be a (followers, q) array")
        object.__setattr__(self, "eta", _readonly(eta))
        if self.s_est is not None:
            s = np.ascontiguousarray(self.s_est, dtype=float)
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


def _mixer(adj: NormalizedAdjacency) -> np.ndarray | tuple:
    """What ``_neighbor_mix`` reads of one adjacency, resolved once per mode:
    its in-neighbour edge table, or Omega's follower rows when it has none."""
    return adj.omega[1:] if adj._edges is None else adj._edges


def _neighbor_mix(mixer: np.ndarray | tuple, flat: np.ndarray, out: np.ndarray,
                  term: np.ndarray | None) -> None:
    """Write sum_j omega_ij (flat_j - flat_i) for the follower rows i = 1..N
    into ``out`` (N, k); ``flat`` (N+1, k) stacks the leader's entry first.

    ``mixer`` is one mode's operand from ``_mixer``.  Over an edge table the
    sum is sum_k w_k (flat[src_k] - flat_i), in O(edges) per column: the
    first table column is gathered into ``out`` and each later one into
    ``term`` (N, k), then added.  Over Omega's follower rows, which are
    row-stochastic, it is (Omega flat)_i - flat_i: one matmul instead of an
    (N+1, N+1, k) difference tensor.
    """
    own = flat[1:]
    if isinstance(mixer, np.ndarray):
        np.dot(mixer, flat, out=out)
        out -= own
        return
    if not mixer:
        out.fill(0.0)
    for k, (src, weight) in enumerate(mixer):
        gathered = term if k else out
        np.take(flat, src, axis=0, out=gathered, mode="clip")  # "raise" would buffer out
        gathered -= own
        gathered *= weight
        if k:
            out += term


def _update_work(n: int, q: int, adaptive: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Scratch for ``_observer_update`` of N followers: the mixed estimates
    (N, q) and, adaptive, the table gather of the matrix mix (N, q*q)."""
    return np.empty((n, q)), np.empty((n, q * q)) if adaptive else None


def _observer_update(
    S: np.ndarray,
    mixer: np.ndarray | tuple,
    eta: np.ndarray,
    s_est: np.ndarray | None,
    eta_next: np.ndarray,
    s_next: np.ndarray | None,
    work: tuple[np.ndarray, np.ndarray | None],
) -> None:
    """Write the bank's next follower rows into ``eta_next`` (N, q) and, in
    adaptive mode, the C-contiguous ``s_next`` (N, q, q), on raw arrays,
    without checks and without allocating an array.

    ``eta`` (N+1, q) and ``s_est`` (N+1, q, q) stack the leader's v(t) and S
    first, as ``_neighbor_mix`` reads them; ``mixer`` is the mode's operand
    from ``_mixer`` and ``work`` the scratch from ``_update_work``.  The
    vector mix gathers its table terms into ``eta_next``, which is written
    last.  With ``s_est`` None this is the distributed observer, which
    multiplies by the leader's S; otherwise the adaptive one, whose state
    update uses the current S_i(t).
    """
    mixed, term = work
    _neighbor_mix(mixer, eta, mixed, eta_next)
    np.add(eta[1:], mixed, out=mixed)
    if s_est is None:
        np.dot(mixed, S.T, out=eta_next)
    else:
        np.einsum("iab,ib->ia", s_est[1:], mixed, out=eta_next)
        _neighbor_mix(mixer, s_est.reshape(len(s_est), -1), s_next.reshape(len(s_next), -1), term)
        np.add(s_est[1:], s_next, out=s_next)


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
    eta = np.concatenate([np.asarray(v, dtype=float)[None, :], bank.eta])
    s_est = None if bank.s_est is None else np.concatenate([leader.S[None, :, :], bank.s_est])
    new_eta = np.empty_like(bank.eta)
    new_s = None if s_est is None else np.empty_like(bank.s_est)
    _observer_update(leader.S, _mixer(adj), eta, s_est, new_eta, new_s,
                     _update_work(bank.n_followers, bank.q, s_est is not None))
    return ObserverBank(eta=new_eta, s_est=new_s)


def observer_logs(
    leader: LeaderModel,
    topology: SwitchingTopology,
    bank: ObserverBank,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The leader states v (T+1, q), the estimates eta (T+1, N, q) and, for an
    adaptive bank, s_est (T+1, N, q, q) of ``bank`` run over times 0..horizon.

    The estimates are views of (T+1, N+1, ...) logs whose row 0 holds v(t)
    and S, so each step's neighbour mix reads its log row as it is and
    writes the next row in place.  The schedule and each mode's mix operand
    are resolved once, before the first step, and no step is checked or
    allocates an array.  A diverging run overflows to inf and NaN, with
    whatever floating-point warnings the caller's ``np.errstate`` allows.
    """
    v = leader.trajectory(horizon)
    n, q = bank.n_followers, bank.q
    eta = np.empty((horizon + 1, n + 1, q))
    eta[:, 0], eta[0, 1:] = v, bank.eta
    s_est = None
    if bank.s_est is not None:
        s_est = np.empty(eta.shape + (q,))
        s_est[:, 0], s_est[0, 1:] = leader.S, bank.s_est
    work = _update_work(n, q, s_est is not None)
    s_rows = (repeat(None),) * 2 if s_est is None else (s_est, s_est[1:, 1:])
    for mixer, eta_t, eta_next, s_t, s_next in zip(topology.per_step(0, horizon, _mixer),
                                                   eta, eta[1:, 1:], *s_rows):
        _observer_update(leader.S, mixer, eta_t, s_t, eta_next, s_next, work)
    return v, eta[:, 1:], None if s_est is None else s_est[:, 1:]


def _dot_norms(d: np.ndarray) -> np.ndarray:
    """The 2-norm of every row of a 2-D array: one dot per row, as
    np.linalg.norm computes a vector's (a sum of squares along an axis
    rounds differently)."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _error_norms(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Frobenius norm of every a[t] - ref[t], as ``_dot_norms`` takes it, over
    blocks of time steps, so that no difference of the whole logs is held."""
    out, block = np.empty(len(a)), 16  # time steps per block
    for t in range(0, len(a), block):
        out[t:t + block] = _dot_norms((a[t:t + block] - ref[t:t + block]).reshape(-1, a[0].size))
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays as one broadcast multiply.

    Every entry is the single product a[i, j] * b[k, l], as in np.kron, so
    the result is the same to the bit without np.kron's generic set-up.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


# a mode's twin blocks, by adjacency and then by leader; both are frozen,
# hashed by identity and hold read-only arrays, so a block never goes stale,
# and it is freed with its adjacency or its leader
_TWIN_BLOCKS: WeakKeyDictionary = WeakKeyDictionary()


def _twin_blocks(
    adj: NormalizedAdjacency, leader: LeaderModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lambda kron S, Lambda - I as an (N, 1, N, 1) array, Lambda kron I_q and
    the flat index of the diagonal blocks of an (N*q, N*q) matrix, for one
    mode and leader: read-only, built on the pair's first ``error_form_step``."""
    by_leader = _TWIN_BLOCKS.get(adj)
    if by_leader is None:
        by_leader = _TWIN_BLOCKS[adj] = WeakKeyDictionary()
    blocks = by_leader.get(leader)
    if blocks is None:
        lam = adj.lambda_block
        n, q = lam.shape[0], leader.q
        i = np.arange(n)
        # the flat positions of the entries [i, a, i, b] of an (n, q, n, q) array
        diag = np.arange((n * q) ** 2).reshape(n, q, n, q)[i, :, i, :].reshape(-1)
        blocks = (_kron(lam, leader.S), (lam - np.eye(n))[:, None, :, None],
                  _kron(lam, np.eye(q)), diag)
        for block in blocks:
            block.setflags(write=False)
        by_leader[leader] = blocks
    return blocks


def error_form_step(
    eta_tilde: np.ndarray,
    s_tilde: np.ndarray | None,
    adj: NormalizedAdjacency,
    leader: LeaderModel,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance the stacked errors eta_tilde (N*q,) and s_tilde (N*q, q)
    through their compact linear form; returns the next pair.

    Without s_tilde (None: distributed observer) this is the homogeneous map
    eta_tilde <- (Lambda kron S) eta_tilde, and the next s_tilde is None.
    With s_tilde (adaptive observer) it applies

        eta_tilde <- (Gamma1 + Gamma2) eta_tilde + Gamma3
        s_tilde   <- (Lambda kron I_q) s_tilde

    with Gamma1 = Lambda kron S, Gamma2 the block-diagonal matrix error plus
    its row-wise Kronecker coupling through (Lambda - I), and Gamma3 the
    matrix error acting on the current leader state.  Both right-hand sides
    are evaluated at the current time, matching the bank updates exactly;
    this function is the independent second route for equivalence tests.
    The blocks that depend only on the mode and the leader are built on the
    first step through that pair and reused on every later one.
    """
    n = adj.node_count - 1
    q = leader.q
    if eta_tilde.shape[0] != n * q:
        raise DimensionError(
            f"eta_tilde has {eta_tilde.shape[0]} entries, expected {n * q}"
        )
    gamma1, lam_min_i, lam_kron_i, diag = _twin_blocks(adj, leader)
    if s_tilde is None:
        return gamma1 @ eta_tilde, None

    # as (n, q, n, q) arrays, block (i, j) of a matrix is [i, :, j, :]
    s_blocks = s_tilde.reshape(n, q, q)
    s_diag = np.zeros(n * q * n * q)
    s_diag[diag] = s_blocks.reshape(-1)
    s_diag = s_diag.reshape(n * q, n * q)
    # row block i is (Lambda - I)[i, :] kron s_tilde_i, each entry one product as in _kron
    coupling = (lam_min_i * s_blocks[:, :, None, :]).reshape(n * q, n * q)
    gamma2 = s_diag + coupling
    v_stack = np.empty((n, q))
    v_stack[:] = v  # v once per follower
    gamma3 = s_diag @ v_stack.reshape(-1)
    new_eta = (gamma1 + gamma2) @ eta_tilde + gamma3
    new_s = lam_kron_i @ s_tilde
    return new_eta, new_s


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
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    z = np.empty((horizon + 1, z0.shape[0]))
    z[0] = z0
    for t, (z_t, z_next) in enumerate(zip(z, z[1:])):
        np.dot(c_seq(t), z_t, out=z_next)
        z_next += d_seq(t)
    return fit_decay(_dot_norms(z))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares geometric fit ||e(t)|| ~ prefactor * rate**t.

    ``residual`` is the RMS deviation of ln||e|| from the fitted line,
    normalized by the log-range the tail spans (floored at 1), a scale-free
    straightness measure that ignores bounded switching ripple.  ``rate`` is
    NaN when too few samples survive flooring or a sample is not finite;
    ``floored`` marks finite series that sit entirely at or below their
    floor, max(FLOOR, RELATIVE_FLOOR * the series' largest sample).
    """

    rate: float
    prefactor: float
    residual: float
    n_samples: int
    floored: bool

    @property
    def decaying(self) -> bool:
        """Floored, or a fitted rate below 1 by more than rounding: a series
        stalled on a plateau fits a rate within a few ulps of 1, and a NaN
        rate is never below it."""
        return self.floored or self.rate < 1.0 - 1e-9


# the share of a series' kept samples that a fit uses (its tail, past the
# early transient), and the level at or below which a sample is fp noise:
# FLOOR, lifted to RELATIVE_FLOOR times the series' largest sample, since fp
# noise in an error series scales with the magnitudes it was computed from
TAIL_FRACTION = 0.6
FLOOR = 1e-13
RELATIVE_FLOOR = 1e-12


def _fit_columns(values: np.ndarray) -> list[DecayFit]:
    """Geometric fits of every column of a (T, k) stack of series at once.

    Each column drops its samples at or below its own floor, max(FLOOR,
    RELATIVE_FLOOR * the column's largest sample), and fits a line through
    (t, ln value) over the last max(ceil(TAIL_FRACTION * kept), 2) kept
    samples, found with a reversed cumulative count of the kept samples.
    The slope and intercept are the closed-form centred least-squares ones,
    computed for all columns in the same array operations; each column is a
    row of the transposed stack and is reduced on its own, so its fit does
    not depend on the other columns.  A finite column with no kept sample is
    ``floored``; one with a single kept sample gets NaN rate, prefactor and
    residual.  A column holding NaN or +-inf keeps no sample: it gets that
    NaN fit with ``n_samples`` 0 and is not floored, so it never decays, and
    it is the only kind of column with neither a sample nor ``floored``.
    """
    v = np.ascontiguousarray(np.asarray(values, dtype=float).T)  # one series per row
    finite = np.isfinite(v).all(axis=1)
    floors = np.maximum(FLOOR, RELATIVE_FLOOR * v.max(axis=1, initial=0.0))
    keep = (v > floors[:, None]) & finite[:, None]
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

    Samples at or below max(``FLOOR``, ``RELATIVE_FLOOR`` * the series'
    largest sample) are discarded (they sit in floating-point noise), then a
    least-squares line is fit through (t, ln value) over the last
    ``TAIL_FRACTION`` of the surviving samples, skipping the early
    transient.  A series holding NaN or +-inf gets a NaN fit that is not
    decaying.  This is the one-column case of ``_fit_columns``, the fit
    that ``simkit.analyze`` runs on all its series at once.
    """
    return _fit_columns(np.asarray(values, dtype=float)[:, None])[0]
