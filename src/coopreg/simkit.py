"""Closed-loop scenario orchestration.

A Scenario bundles the leader, the switching topology, per-follower plants
with gain directives, and observer settings.  Running it advances, per tick
and strictly in this order, (1) the observer bank, (2) the control inputs,
(3) the plants and the leader, with every right-hand side evaluated on
time-t values and the time-t graph, so the semantics are synchronous.

Followers whose plant matrices and gain directive are equal by value form
one plant class (``Scenario`` finds the classes once, when it is built), and
share every matrix of their closed loop, their gains included: the gains are
the scenario's own, solved once per class and cached on it.  Before the first
tick, ``run`` stacks the classes of equal size and equal (n, m, p) into one
step group.  Per tick, each group gathers its rows of the logs and computes
the control law u = x K_x^T + eta K_v^T and the plant step
x+ = x A^T + u B^T + E v as one stacked product per term: a GEMM per class
when the classes are large, one batched matrix-vector product when every
follower is its own class.  So each tick is a fixed number of array
operations per group, however many followers there are, and a team has at
most as many groups as distinct (class size, n, m, p).  The logs are
zero-padded to the largest (n, m, p) of the team and a group touches only
its own (n, m, p) columns, so padded entries stay exactly zero; the
logs hold N max(n) state entries per step instead of the sum of the n_i,
which costs memory only when the team mixes plant dimensions.  The
preallocated logs are the state: step t reads row t and writes row t + 1,
and the observer update is the array-level one that the public
``observer_step`` uses after its checks, so nothing is validated per tick.
The observer's neighbour mix sum_j omega_ij (eta_j - eta_i) reads the
active mode's adjacency: a sparse one sums over its in-neighbour edge table
in O(edges), and a small or dense one computes (Omega eta)_i - eta_i, valid
because Omega is row-stochastic; neither builds an (N+1) x (N+1) difference
tensor.  The regulated outputs, per group, and the norm series are computed
after the last tick, as whole-array expressions.  In distributed mode the
closed loop is a switched linear system, but no dense closed-loop matrix per
mode is built: with N followers it has (q + N (q + n))^2 entries, 134 MB at
N = 512 and n = q = 4, where the grouped step needs only each class's
blocks.

Runs are deterministic: identical scenarios produce identical trajectory
logs, and the CSV export is byte-stable.  A magnitude guard aborts a run as
soon as any state exceeds 1e12 in absolute value or is not finite, naming
the first offending series and follower; a non-contracting leader grows at
most polynomially, so only genuine divergence trips it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, NamedTuple, Sequence

import numpy as np

from .observers import DecayFit, LeaderModel, ObserverBank, _fit_columns, _observer_update
from .regulation import (
    ControllerGains,
    GainSynthesisError,
    PlantModel,
    RegulatorSolution,
    RegulatorUnsolvableError,
    build_controller,
    solve_regulator_equations,
    synthesize_stabilizing_gain,
)
from .topology import DimensionError, SwitchingTopology, is_jointly_connected, _readonly

OVERFLOW_LIMIT = 1e12
# where the feedforward gain K_v = U - K_x X comes from in both observer
# modes: regulator equations solved with the true leader matrix S, which the
# adaptive observer itself never reads
FEEDFORWARD = "leader_S"


class OverflowAbort(RuntimeError):
    """A simulated magnitude exceeded the overflow guard.

    ``series`` names the first offending quantity (``v``, ``eta``,
    ``s_est`` or ``x``) and ``follower`` its 1-based follower, None for the
    leader state ``v``; ``magnitude`` is the largest magnitude over all of them.
    """

    def __init__(self, t: int, magnitude: float, series: str, follower: int | None):
        what = (f"state magnitude {magnitude:.3e} exceeded {OVERFLOW_LIMIT:.0e}"
                if math.isfinite(magnitude) else f"non-finite state ({magnitude})")
        owner = "the leader" if follower is None else f"follower {follower}"
        super().__init__(f"{what} in {series} of {owner} at time step {t}")
        self.t = t
        self.magnitude = magnitude
        self.series = series
        self.follower = follower


@dataclass(frozen=True)
class GainDirective:
    """Per-follower gain choice: a user-supplied K_x or Riccati synthesis."""

    method: str = "riccati"
    K_x: np.ndarray | None = None
    Q: np.ndarray | None = None
    R: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in ("user", "riccati"):
            raise ValueError(f"unknown gain method {self.method!r}")
        if (self.method == "user") != (self.K_x is not None):
            raise ValueError("user method requires K_x; riccati must not set it")


@dataclass(frozen=True)
class AssumptionChecks:
    """Which validation checks to run and their parameters; the window must
    be >= 0 and a connectivity horizon, when given, at least the window."""

    connectivity: bool = True
    connectivity_window: int = 0
    connectivity_horizon: int | None = None
    leader_spectral: bool = True
    stabilizability: bool = True
    regulator: bool = True

    def __post_init__(self):
        window, horizon = self.connectivity_window, self.connectivity_horizon
        if window < 0:
            raise ValueError(f"checks.connectivity_window must be >= 0, got {window}")
        if horizon is not None and horizon < window:
            raise ValueError(f"checks.connectivity_horizon must be >= connectivity_window "
                             f"({window}), got {horizon}")


@dataclass(frozen=True)
class Thresholds:
    """Convergence pass criteria: final value and fitted rate bounds.

    ``final`` must be > 0 and ``rate`` in (0, 1]: a rate bound above 1
    passes a growing series, and a bound at or below 0 fails every series.
    """

    final: float = 1e-6
    rate: float = 0.999

    def __post_init__(self):
        # inverted tests, so that NaN is refused as well
        if not self.final > 0:
            raise ValueError(f"thresholds.final must be > 0, got {self.final}")
        if not 0 < self.rate <= 1:
            raise ValueError(f"thresholds.rate must be in (0, 1], got {self.rate}")


@dataclass(frozen=True, eq=False)
class FollowerSpec:
    """One follower.  Its gain directive is checked against the plant as
    ``synthesize_stabilizing_gain`` reads it (after ``np.atleast_2d``): K_x
    must be (m, n), Q (n, n) and R (m, m)."""

    plant: PlantModel
    x0: np.ndarray
    gain: GainDirective = field(default_factory=GainDirective)

    def __post_init__(self):
        n, m = self.plant.n, self.plant.m
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape[0] != n:
            raise DimensionError(f"initial state has dim {x0.shape[0]}, plant expects {n}")
        for key, shape in (("K_x", (m, n)), ("Q", (n, n)), ("R", (m, m))):
            value = getattr(self.gain, key)
            if value is not None and np.atleast_2d(value).shape != shape:
                raise DimensionError(f"gain {key} has shape {np.atleast_2d(value).shape}, "
                                     f"expected {shape} for a plant with (m, n) = ({m}, {n})")
        object.__setattr__(self, "x0", _readonly(x0))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete description of one closed-loop simulation.

    An adaptive scenario without ``s0`` starts every follower's estimate of
    the leader matrix at zero; a distributed one must not set ``s0``.

    ``_classes`` holds the plant classes, found once, here: the 0-based
    indices of followers with equal ``_solve_key``, classes in order of their
    first member.  Each class is solved once and ``run`` steps it as one
    block.  ``_solves`` caches those solves on first use, so
    ``validate_scenario`` followed by ``run`` solves each class once;
    ``dataclasses.replace`` builds a scenario with an empty cache.
    """

    name: str
    leader: LeaderModel
    topology: SwitchingTopology
    followers: tuple[FollowerSpec, ...]
    observer_mode: str = "distributed"
    eta0: tuple[np.ndarray, ...] | None = None
    s0: tuple[np.ndarray, ...] | None = None
    horizon: int = 100
    checks: AssumptionChecks = field(default_factory=AssumptionChecks)
    thresholds: Thresholds = field(default_factory=Thresholds)
    regulator_tol: float = 1e-9
    _classes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    _solves: tuple[_SharedSolve, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.observer_mode not in ("distributed", "adaptive"):
            raise ValueError(f"unknown observer mode {self.observer_mode!r}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if not math.isfinite(self.regulator_tol):
            raise ValueError(f"regulator_tol must be finite, got {self.regulator_tol}")
        if self.regulator_tol < 0:
            raise ValueError(f"regulator_tol must be >= 0, got {self.regulator_tol}")
        followers = tuple(self.followers)
        if len(followers) != self.topology.n_followers:
            raise DimensionError(
                f"{len(followers)} followers for a topology with "
                f"{self.topology.n_followers} follower nodes"
            )
        if not followers:
            raise ValueError("scenario needs at least one follower")
        q = self.leader.q
        for k, f in enumerate(followers):
            if f.plant.q != q:
                raise DimensionError(
                    f"follower {k + 1} couples to leader dim {f.plant.q}, "
                    f"leader has q={q}"
                )
        object.__setattr__(self, "followers", followers)
        classes: dict[tuple, list[int]] = {}
        for i, f in enumerate(followers):
            classes.setdefault(_solve_key(f), []).append(i)
        object.__setattr__(self, "_classes", tuple(map(tuple, classes.values())))
        if self.eta0 is not None:
            eta0 = tuple(_readonly(np.asarray(e, dtype=float).reshape(-1)) for e in self.eta0)
            if len(eta0) != len(followers) or any(e.shape[0] != q for e in eta0):
                raise DimensionError("eta0 must hold one q-vector per follower")
            object.__setattr__(self, "eta0", eta0)
        s0 = self.s0
        if s0 is None and self.observer_mode == "adaptive":
            s0 = [np.zeros((q, q))] * len(followers)
        if s0 is not None:
            if self.observer_mode != "adaptive":
                raise ValueError("s0 only applies to the adaptive observer")
            s0 = tuple(_readonly(np.asarray(s, dtype=float)) for s in s0)
            if len(s0) != len(followers) or any(s.shape != (q, q) for s in s0):
                raise DimensionError("s0 must hold one q x q matrix per follower")
            object.__setattr__(self, "s0", s0)

    @property
    def n_followers(self) -> int:
        return len(self.followers)

    def initial_bank(self) -> ObserverBank:
        eta = (np.vstack(self.eta0) if self.eta0 is not None
               else np.zeros((self.n_followers, self.leader.q)))
        return ObserverBank(eta=eta, s_est=None if self.s0 is None else np.stack(self.s0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True, eq=False)
class _SharedSolve:
    """Regulator solution and certified gain of one (plant, gain directive)
    class; a failed solve keeps its exception in place of the result."""

    first: int  # 1-based index of the first follower in the class
    regulator: RegulatorSolution | Exception
    gain: tuple[np.ndarray, float] | Exception
    controller: ControllerGains | None

    def detail(self, exc: Exception, k: int) -> str:
        # gain errors name the follower whose solve ran; reword for follower k
        return str(exc).replace(f"follower {self.first}:", f"follower {k}:", 1)


# errors that validate_scenario reports as failed checks instead of raising
_REPORTED_ERRORS = (RegulatorUnsolvableError, GainSynthesisError, np.linalg.LinAlgError,
                    ValueError)


def _solve_key(f: FollowerSpec) -> tuple:
    """Equal for followers whose plant matrices and gain directive are equal by value."""
    g = f.gain
    arrays = [getattr(f.plant, k) for k in "ABCDEF"] + [g.K_x, g.Q, g.R]
    # adding +0.0 turns -0.0 into 0.0, so the bytes of equal values are equal
    return (g.method,) + tuple(
        None if a is None else (np.shape(a), (np.asarray(a, dtype=float) + 0.0).tobytes())
        for a in arrays
    )


def _solve_followers(scenario: Scenario) -> tuple[_SharedSolve, ...]:
    """One regulator solve and one gain synthesis per plant class, cached on
    the scenario.

    Returns the shared solve of every follower, in follower order.  A failed
    solve keeps its error of the types ``validate_scenario`` reports in place
    of its result; any other error propagates, and nothing is cached.
    """
    if scenario._solves is not None:
        return scenario._solves
    S = scenario.leader.S
    out: list[_SharedSolve] = [None] * scenario.n_followers
    for members in scenario._classes:
        k, f = members[0] + 1, scenario.followers[members[0]]
        try:
            regulator = solve_regulator_equations(f.plant, S, tol=scenario.regulator_tol)
        except _REPORTED_ERRORS as exc:
            regulator = exc
        try:
            gain = synthesize_stabilizing_gain(
                f.plant.A, f.plant.B, K=f.gain.K_x, Q=f.gain.Q, R=f.gain.R,
                label=f"follower {k}",
            )
        except _REPORTED_ERRORS as exc:
            gain = exc
        failed = isinstance(regulator, Exception) or isinstance(gain, Exception)
        controller = None if failed else build_controller(f.plant, S, gain[0], regulator)
        solve = _SharedSolve(k, regulator, gain, controller)
        for i in members:
            out[i] = solve
    object.__setattr__(scenario, "_solves", tuple(out))
    return scenario._solves


def synthesize_gains(scenario: Scenario) -> list[ControllerGains]:
    """Solve the regulator equations and certify a gain for every follower.

    Followers with equal plants and gain directives share one solve, and a
    scenario is solved once, however often it is asked.  A failed solve
    raises the first error a per-follower loop would meet: classes in order
    of their first follower, regulator before gain.
    """
    solves = _solve_followers(scenario)
    for members in scenario._classes:
        for result in (solves[members[0]].regulator, solves[members[0]].gain):
            if isinstance(result, Exception):
                raise result
    return [s.controller for s in solves]


def validate_scenario(scenario: Scenario) -> list[CheckResult]:
    """Run the requested assumption checks; reports, never raises.

    Checks, in order: joint connectivity of the switching topology,
    leader spectral radius <= 1, per-follower stabilizability (gain
    certification), and regulator-equation solvability.  Followers with
    equal plants and gain directives share one regulator solve and one gain
    synthesis; each still gets its own checks.
    """
    checks = scenario.checks
    results: list[CheckResult] = []
    if checks.connectivity:
        res = is_jointly_connected(
            scenario.topology, checks.connectivity_window, checks.connectivity_horizon
        )
        if res.connected:
            detail = (
                f"every follower reachable from the leader in all union windows "
                f"of length {checks.connectivity_window + 1} "
                f"(verified up to horizon {res.checked_up_to})"
            )
        else:
            t, node = res.witness
            detail = f"node {node} unreachable in the union window starting at t={t}"
        results.append(CheckResult("jointly_connected", res.connected, detail))
    if checks.leader_spectral:
        try:
            passed, detail = scenario.leader.rho_le_one, f"rho(S) = {scenario.leader.rho:.6g}"
        except (np.linalg.LinAlgError, ValueError) as exc:
            passed, detail = False, f"rho(S): {exc}"
        results.append(CheckResult("leader_spectral_radius", passed, detail))
    solves = _solve_followers(scenario)
    if checks.stabilizability:
        for k, s in enumerate(solves, start=1):
            ok = not isinstance(s.gain, Exception)
            detail = f"closed-loop spectral radius {s.gain[1]:.6g}" if ok else s.detail(s.gain, k)
            results.append(CheckResult(f"stabilizable_follower_{k}", ok, detail))
    if checks.regulator:
        for k, s in enumerate(solves, start=1):
            ok = not isinstance(s.regulator, Exception)
            detail = f"residual {s.regulator.residual:.3e}" if ok else s.detail(s.regulator, k)
            results.append(CheckResult(f"regulator_solvable_follower_{k}", ok, detail))
    return results


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """Time-indexed record of one run; horizon + 1 records.

    Per-follower series are lists indexed by follower (dims may differ),
    whose entries are the [:, :n_i] views of one (T+1, N, max n) array
    (likewise for u and e), zero-padded for mixed plant dimensions; the
    derived norm series stack all followers.
    """

    scenario_name: str
    observer_mode: str
    t: np.ndarray                      # (T+1,)
    sigma: np.ndarray                  # (T+1,) active mode per step
    v: np.ndarray                      # (T+1, q)
    x: list[np.ndarray]                # per follower (T+1, n_i)
    eta: np.ndarray                    # (T+1, N, q)
    s_est: np.ndarray | None           # (T+1, N, q, q) in adaptive mode
    u: list[np.ndarray]                # per follower (T+1, m_i)
    e: list[np.ndarray]                # per follower (T+1, p_i)
    eta_tilde_norm: np.ndarray         # (T+1,)
    s_tilde_norm: np.ndarray | None    # (T+1,)
    e_norms: np.ndarray                # (T+1, N)

    @property
    def horizon(self) -> int:
        return self.t.shape[0] - 1

    @property
    def n_followers(self) -> int:
        return self.eta.shape[1]


class _StepGroup(NamedTuple):
    """The plant classes of one size and one plant shape, stacked.

    The classes of equal size k and equal (n, m, p) are stacked along axis 0.
    ``rows`` holds the (G, k) follower indices, and each matrix field the
    (G, b, a) transposes of the classes' (a, b) matrices, so that a
    (G, k, b) gather of the logs times it is the (G, k, a) product: one GEMM
    of k rows when G = 1, one batched matrix-vector product when k = 1.
    ``u_at`` and ``x_at`` are the flat indices of the group's (G, k, m) and
    (G, k, n) entries in one time step's zero-padded (N, .) rows of the u
    and x logs, where the step writes them with ``put``."""

    rows: np.ndarray
    u_at: np.ndarray
    x_at: np.ndarray
    n: int
    m: int
    p: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    K_x: np.ndarray
    K_v: np.ndarray


def _step_groups(scenario: Scenario) -> list[_StepGroup]:
    """Stack the plant classes of equal size and equal (n, m, p), in order of
    their first class, with each class's gains from ``synthesize_gains``
    (which raises the first failed solve)."""
    gains, followers = synthesize_gains(scenario), scenario.followers
    stacks: dict[tuple, list[tuple[tuple[int, ...], PlantModel, ControllerGains]]] = {}
    for members in scenario._classes:
        plant = followers[members[0]].plant
        stacks.setdefault((plant.n, plant.m, plant.p, len(members)), []).append(
            (members, plant, gains[members[0]]))
    n_pad, m_pad = (max(getattr(f.plant, d) for f in followers) for d in "nm")
    groups = []
    for (n, m, p, _), classes in stacks.items():
        idx = np.array([rows for rows, _, _ in classes])
        mats = {k: np.stack([getattr(plant, k).T for _, plant, _ in classes]) for k in "ABCDEF"}
        mats.update((k, np.stack([getattr(g, k).T for _, _, g in classes]))
                    for k in ("K_x", "K_v"))
        groups.append(_StepGroup(idx, idx[..., None] * m_pad + np.arange(m),
                                 idx[..., None] * n_pad + np.arange(n), n, m, p, **mats))
    return groups


def _control_and_plant_step(groups: Sequence[_StepGroup], x: np.ndarray, eta: np.ndarray,
                            v: np.ndarray, u_out: np.ndarray,
                            x_out: np.ndarray | None) -> None:
    """Write u = K_x x + K_v eta of every follower into ``u_out`` and, unless
    ``x_out`` is None, x+ = A x + B u + E v into ``x_out``: one stacked
    product per group and term, on the zero-padded (N, .) rows of one time
    step."""
    for g in groups:
        x_g = x.take(g.rows, axis=0)[..., :g.n]
        u_g = x_g @ g.K_x + eta.take(g.rows, axis=0) @ g.K_v
        u_out.put(g.u_at, u_g)
        if x_out is not None:
            x_out.put(g.x_at, x_g @ g.A + u_g @ g.B + v[None] @ g.E)


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every a[t]: one dot per t, as np.linalg.norm(a[t]) computes it
    (a sum of squares along an axis rounds differently)."""
    flat = a.reshape(a.shape[0], -1)
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])


def _beyond_limit(a: np.ndarray) -> np.ndarray:
    # a NaN fails every comparison, so the inverted test flags NaN as well as +-inf
    return ~(np.abs(a) <= OVERFLOW_LIMIT)


def _overflow(t: int, rows: dict[str, np.ndarray]) -> OverflowAbort:
    """Name the first offending entry of the time-t ``rows``, in the order
    v, eta, s_est, x and by follower within each series.  Failure path only."""
    magnitude = float(np.max([np.abs(a).max() for a in rows.values()]))
    for series, a in rows.items():
        bad = _beyond_limit(a).reshape(len(a), -1).any(axis=1)
        if bad.any():
            follower = None if series == "v" else int(np.argmax(bad)) + 1
            return OverflowAbort(t, magnitude, series, follower)
    raise AssertionError("no entry beyond the overflow limit")


def run(scenario: Scenario) -> TrajectoryLog:
    """Simulate the closed loop and log every series.

    Validation is the caller's concern (see validate_scenario).  The gains
    are the scenario's own (``synthesize_gains``, solved once per scenario),
    so a failed solve raises before the first step; after that, this
    function only refuses to continue when states overflow or turn
    non-finite.

    Each step runs u and x+ as stacked products per step group (the plant
    classes of one size and shape), over the group's rows of the logs; e
    follows per group after the last step.
    """
    groups = _step_groups(scenario)
    S = scenario.leader.S
    topology = scenario.topology
    horizon = scenario.horizon
    n_followers, q = scenario.n_followers, scenario.leader.q
    bank = scenario.initial_bank()

    sigma = topology.signal.modes(0, horizon + 1)
    n, m, p = (max(getattr(g, d) for g in groups) for d in "nmp")
    v_log = np.empty((horizon + 1, q))
    eta_log = np.empty((horizon + 1, n_followers, q))
    s_log = None if bank.s_est is None else np.empty((horizon + 1, n_followers, q, q))
    # zeros: a group writes only its own (n, m, p) columns, the padding stays 0
    x_log = np.zeros((horizon + 1, n_followers, n))
    u_log = np.zeros((horizon + 1, n_followers, m))
    v_log[0], eta_log[0] = scenario.leader.v0, bank.eta
    if s_log is not None:
        s_log[0] = bank.s_est
    for i, f in enumerate(scenario.followers):
        x_log[0, i, :f.plant.n] = f.x0

    # the logs are the state: step t reads row t and writes row t + 1
    state = {name: a for name, a in (("v", v_log), ("eta", eta_log), ("s_est", s_log),
                                     ("x", x_log)) if a is not None}
    for t, mode in enumerate(sigma.tolist()):
        # a NaN fails every comparison, so the inverted test aborts on NaN as well as on +-inf
        if not all(np.abs(a[t]).max() <= OVERFLOW_LIMIT for a in state.values()):
            raise _overflow(t, {name: a[t] for name, a in state.items()})
        v, eta = v_log[t], eta_log[t]
        last = t == horizon
        _control_and_plant_step(groups, x_log[t], eta, v, u_log[t],
                                None if last else x_log[t + 1])
        if last:
            break
        eta_log[t + 1], s_next = _observer_update(
            S, topology.adjacency_of_mode(mode), v, eta,
            None if s_log is None else s_log[t])
        if s_log is not None:
            s_log[t + 1] = s_next
        v_log[t + 1] = S @ v

    e_log = np.zeros((horizon + 1, n_followers, p))
    for g in groups:
        e_log[:, g.rows, :g.p] = (x_log.take(g.rows, axis=1)[..., :g.n] @ g.C
                                  + u_log.take(g.rows, axis=1)[..., :g.m] @ g.D
                                  + (v_log @ g.F).transpose(1, 0, 2)[:, :, None])
    plants = [f.plant for f in scenario.followers]
    return TrajectoryLog(
        scenario_name=scenario.name,
        observer_mode=scenario.observer_mode,
        t=np.arange(horizon + 1),
        sigma=sigma,
        v=v_log,
        x=[x_log[:, i, :plant.n] for i, plant in enumerate(plants)],
        eta=eta_log,
        s_est=s_log,
        u=[u_log[:, i, :plant.m] for i, plant in enumerate(plants)],
        e=[e_log[:, i, :plant.p] for i, plant in enumerate(plants)],
        eta_tilde_norm=_norms(eta_log - v_log[:, None, :]),
        s_tilde_norm=None if s_log is None else _norms(s_log - S),
        e_norms=np.linalg.norm(e_log, axis=2),
    )


@dataclass(frozen=True)
class SeriesReport:
    """Convergence verdict for one error series."""

    name: str
    final: float
    fit: DecayFit
    converged: bool
    note: str


@dataclass(frozen=True)
class ConvergenceReport:
    series: tuple[SeriesReport, ...]
    thresholds: Thresholds
    checks: tuple[CheckResult, ...] = ()

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.series)


def _judge(name: str, final: float, fit: DecayFit | None,
           thresholds: Thresholds) -> SeriesReport:
    """Verdict on one series from its fit; ``fit`` is None for a non-finite series."""
    if fit is None:
        no_fit = DecayFit(math.nan, math.nan, math.nan, n_samples=0, floored=False)
        return SeriesReport(name, final, no_fit, False, "non-finite values")
    if fit.floored:
        return SeriesReport(name, final, fit, True, "converged (floor)")
    if math.isnan(fit.rate):
        converged = final < thresholds.final
        return SeriesReport(name, final, fit, converged, "insufficient samples for a rate fit")
    converged = fit.rate < thresholds.rate and final < thresholds.final
    note = "converged" if converged else "not converged"
    return SeriesReport(name, final, fit, converged, note)


def analyze(
    log: TrajectoryLog,
    thresholds: Thresholds = Thresholds(),
    checks: Sequence[CheckResult] = (),
) -> ConvergenceReport:
    """Fit geometric rates on every error series and compare with thresholds.

    The series eta_tilde_norm, s_tilde_norm (adaptive only) and e_norm_1..N
    are the columns of one (T+1, k) stack, fitted by a single batched
    least-squares pass (``fit_decay`` is its one-column case).  A column
    holding NaN or +-inf is reported as "non-finite values" without a fit
    and is left out of the batch: a NaN sample would be dropped as floored
    and an inf would lift the floor.
    """
    names = ["eta_tilde_norm"]
    columns = [log.eta_tilde_norm]
    if log.s_tilde_norm is not None:
        names.append("s_tilde_norm")
        columns.append(log.s_tilde_norm)
    names += [f"e_norm_{i + 1}" for i in range(log.n_followers)]
    values = np.column_stack(columns + [log.e_norms])
    finite = np.isfinite(values).all(axis=0)
    fitted = values[:, finite]
    # fp noise in an error series scales with the magnitudes it was computed
    # from, so lift each fitting floor accordingly for large-amplitude runs
    floors = np.maximum(1e-13, 1e-12 * fitted.max(axis=0, initial=0.0))
    fits = iter(_fit_columns(fitted, floors))
    series = tuple(
        _judge(name, final, next(fits) if ok else None, thresholds)
        for name, final, ok in zip(names, values[-1].tolist(), finite.tolist())
    )
    return ConvergenceReport(series=series, thresholds=thresholds, checks=tuple(checks))


def csv_columns(log: TrajectoryLog) -> list[str]:
    """Stable column order of the trajectory CSV.

    t and sigma first; then the leader components v_0_*; then per follower
    i = 1..N its x_i_*, eta_i_*, s_i_* (adaptive only, row-major), u_i_*,
    e_i_*; finally the derived norms eta_tilde_norm, s_tilde_norm (adaptive
    only) and e_norm_i.
    """
    q = log.v.shape[1]
    cols = ["t", "sigma"] + [f"v_0_{c}" for c in range(q)]
    for i in range(log.n_followers):
        k = i + 1
        cols += [f"x_{k}_{c}" for c in range(log.x[i].shape[1])]
        cols += [f"eta_{k}_{c}" for c in range(q)]
        if log.s_est is not None:
            cols += [f"s_{k}_{c}" for c in range(q * q)]
        cols += [f"u_{k}_{c}" for c in range(log.u[i].shape[1])]
        cols += [f"e_{k}_{c}" for c in range(log.e[i].shape[1])]
    cols.append("eta_tilde_norm")
    if log.s_tilde_norm is not None:
        cols.append("s_tilde_norm")
    cols += [f"e_norm_{i + 1}" for i in range(log.n_followers)]
    return cols


def write_trajectory_csv(log: TrajectoryLog, fh: IO[str]) -> None:
    """Write the log as CSV with full round-trip float formatting."""
    steps = log.horizon + 1
    blocks = [log.v]
    for i in range(log.n_followers):
        blocks += [log.x[i], log.eta[:, i]]
        if log.s_est is not None:
            blocks.append(log.s_est[:, i].reshape(steps, -1))
        blocks += [log.u[i], log.e[i]]
    blocks.append(log.eta_tilde_norm[:, None])
    if log.s_tilde_norm is not None:
        blocks.append(log.s_tilde_norm[:, None])
    blocks.append(log.e_norms)
    values = np.hstack(blocks)
    fh.write(",".join(csv_columns(log)) + "\n")
    # row by row, so that no Python float list of the whole log is held at once
    for t, sigma, row in zip(log.t.tolist(), log.sigma.tolist(), values):
        fh.write(f"{t},{sigma},{','.join(map(repr, row.tolist()))}\n")


def _fit_json(fit: DecayFit) -> dict:
    def clean(x: float) -> float | None:
        return None if math.isnan(x) else x

    return {
        "rate": clean(fit.rate),
        "prefactor": clean(fit.prefactor),
        "residual": clean(fit.residual),
        "n_samples": fit.n_samples,
        "floored": fit.floored,
    }


def report_to_dict(report: ConvergenceReport, scenario_name: str = "",
                   observer_mode: str = "", horizon: int | None = None) -> dict:
    return {
        "scenario": scenario_name,
        "observer_mode": observer_mode,
        "feedforward": FEEDFORWARD,
        "horizon": horizon,
        "thresholds": {"final": report.thresholds.final, "rate": report.thresholds.rate},
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
        "series": [
            {"name": s.name, "final": s.final, "converged": s.converged,
             "note": s.note, **_fit_json(s.fit)}
            for s in report.series
        ],
        "converged": report.converged,
    }


def write_report_json(report_dict: dict, fh: IO[str]) -> None:
    # one write: json.dump would write every encoder chunk separately
    fh.write(json.dumps(report_dict, indent=2) + "\n")
