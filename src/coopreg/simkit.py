"""Closed-loop scenario orchestration.

A Scenario bundles the leader, the switching topology, per-follower plants
with gain directives, and observer settings.  Follower i's controller reads
only its own state and its estimate eta_i, and no observer reads a plant
state, so ``run`` simulates the closed loop as the cascade it is: the
leader trajectory v, then the observer bank (eta and, in adaptive mode,
S_i) driven by v over the switching graph, then the plants driven by their
logged estimates.  Every right-hand side uses time-t values and the time-t
graph.

Followers whose plant matrices and gain directive are equal by value form
one plant class, solved once per scenario.  The classes of equal size and
equal (n, m, p) form one step group, which owns its state and input logs
and runs each step's control law and plant step as one stacked product per
term.  The observer bank runs in ``observers.observer_logs``, whose update
and neighbour mix (an in-neighbour edge table on sparse graphs, dense Omega
otherwise) run on raw arrays, with no per-step checks, no (N+1) x (N+1)
difference tensor and no dense closed-loop matrix per mode.

Runs are deterministic: identical scenarios produce identical trajectory
logs, and the CSV export is byte-stable.  A run aborts when any state
exceeds 1e12 in absolute value or is not finite, naming the first offending
time step, series and follower; a non-contracting leader grows at most
polynomially, so only genuine divergence trips it.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field
from typing import IO, NamedTuple, Sequence

import numpy as np

from .observers import (DecayFit, LeaderModel, ObserverBank, _error_norms, _fit_columns,
                        observer_logs)
from .regulation import (
    ControllerGains,
    REGULATOR_TOL,
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
OBSERVER_MODES = ("distributed", "adaptive")
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


@dataclass(frozen=True, eq=False)
class GainDirective:
    """Per-follower gain choice: a user K_x, or Riccati synthesis with weights Q and R.

    Each given matrix is stored once, as a read-only 2-D float array, so a
    scalar, a nested list and an array of equal value are one directive."""

    K_x: np.ndarray | None = None
    Q: np.ndarray | None = None
    R: np.ndarray | None = None

    def __post_init__(self):
        if self.K_x is not None and (self.Q is not None or self.R is not None):
            raise ValueError("Q and R only apply to the riccati method; a user K_x ignores them")
        for key in ("K_x", "Q", "R"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _readonly(np.atleast_2d(getattr(self, key))))

    @property
    def method(self) -> str:
        """``"user"`` exactly when K_x is given, otherwise ``"riccati"``."""
        return "riccati" if self.K_x is None else "user"


@dataclass(frozen=True)
class AssumptionChecks:
    """Which validation checks to run and their parameters; the window must
    be >= 0."""

    connectivity: bool = True
    connectivity_window: int = 0
    leader_spectral: bool = True
    stabilizability: bool = True
    regulator: bool = True

    def __post_init__(self):
        if self.connectivity_window < 0:
            raise ValueError(
                f"checks.connectivity_window must be >= 0, got {self.connectivity_window}")


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
    """One follower.  Its gain directive is checked against the plant: K_x
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
            if value is not None and value.shape != shape:
                raise DimensionError(f"gain {key} has shape {value.shape}, "
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
    regulator_tol: float = REGULATOR_TOL
    _classes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    _solves: tuple[_SharedSolve, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.observer_mode not in OBSERVER_MODES:
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

    regulator: RegulatorSolution | Exception
    gain: tuple[np.ndarray, float] | Exception
    controller: ControllerGains | None


# errors that validate_scenario reports as failed checks instead of raising
_REPORTED_ERRORS = (RegulatorUnsolvableError, GainSynthesisError, np.linalg.LinAlgError,
                    ValueError)


def _solve_key(f: FollowerSpec) -> tuple:
    """Equal for followers whose plant matrices and gain directive are equal by value."""
    g = f.gain
    arrays = [getattr(f.plant, k) for k in "ABCDEF"] + [g.K_x, g.Q, g.R]
    # adding +0.0 turns -0.0 into 0.0, so the bytes of equal values are equal
    return tuple(None if a is None else (a.shape, (a + 0.0).tobytes()) for a in arrays)


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
        f = scenario.followers[members[0]]
        try:
            regulator = solve_regulator_equations(f.plant, S, tol=scenario.regulator_tol)
        except _REPORTED_ERRORS as exc:
            regulator = exc
        try:
            gain = synthesize_stabilizing_gain(
                f.plant.A, f.plant.B, K=f.gain.K_x, Q=f.gain.Q, R=f.gain.R)
        except _REPORTED_ERRORS as exc:
            gain = exc
        failed = isinstance(regulator, Exception) or isinstance(gain, Exception)
        controller = None if failed else build_controller(f.plant, gain[0], regulator)
        solve = _SharedSolve(regulator, gain, controller)
        for i in members:
            out[i] = solve
    object.__setattr__(scenario, "_solves", tuple(out))
    return scenario._solves


def synthesize_gains(scenario: Scenario) -> list[ControllerGains]:
    """Solve the regulator equations and certify a gain for every follower.

    Followers with equal plants and gain directives share one solve, and a
    scenario is solved once, however often it is asked.  A failed solve
    raises the first error a per-follower loop would meet: classes in order
    of their first follower, regulator before gain, as a
    RegulatorUnsolvableError or GainSynthesisError naming that follower and
    chained from the stored error.
    """
    solves = _solve_followers(scenario)
    for members in scenario._classes:
        s = solves[members[0]]
        for error, result in ((RegulatorUnsolvableError, s.regulator), (GainSynthesisError, s.gain)):
            if isinstance(result, Exception):
                raise error(f"follower {members[0] + 1}: {result}") from result
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
        res = is_jointly_connected(scenario.topology, checks.connectivity_window)
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
    # the members of a plant class share one solve, whose text is formatted once
    shared = dict.fromkeys(solves)
    if checks.stabilizability:
        radius = {s: f"closed-loop spectral radius {s.gain[1]:.6g}"
                  for s in shared if not isinstance(s.gain, Exception)}
        for k, s in enumerate(solves, start=1):
            ok = s in radius
            detail = radius[s] if ok else f"follower {k}: {s.gain}"
            results.append(CheckResult(f"stabilizable_follower_{k}", ok, detail))
    if checks.regulator:
        residual = {s: str(s.regulator) if isinstance(s.regulator, Exception)
                    else f"residual {s.regulator.residual:.3e}" for s in shared}
        for k, s in enumerate(solves, start=1):
            ok = not isinstance(s.regulator, Exception)
            results.append(CheckResult(f"regulator_solvable_follower_{k}", ok, residual[s]))
    return results


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """Time-indexed record of one run; horizon + 1 records.

    Per-follower series are lists indexed by follower (dims may differ),
    whose entries are views into their step group's (T+1, G, k, n_i) array
    (likewise for u and e); the derived norm series stack all followers.
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
    ``rows`` holds the (G, k) follower indices, ``x0`` their (G, k, n)
    initial states and each matrix field the (G, b, a) transposes of the
    classes' (a, b) matrices, so that a (G, k, b) block times it is the
    (G, k, a) product: one GEMM of k rows when G = 1, one batched
    matrix-vector product when k = 1."""

    rows: np.ndarray
    x0: np.ndarray
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
    groups = []
    for classes in stacks.values():
        idx = np.array([rows for rows, _, _ in classes])
        mats = {k: np.stack([getattr(plant, k).T for _, plant, _ in classes]) for k in "ABCDEF"}
        mats.update((k, np.stack([getattr(g, k).T for _, _, g in classes]))
                    for k in ("K_x", "K_v"))
        x0 = np.array([[followers[i].x0 for i in rows] for rows in idx.tolist()])
        groups.append(_StepGroup(idx, x0, **mats))
    return groups


def _plant_trajectory(g: _StepGroup, eta_log: np.ndarray,
                      v_log: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The group's (T+1, G, k, n) states and (T+1, G, k, m) inputs, driven by
    the logged estimates and leader states: per step u = x K_x + eta K_v and
    x+ = x A + u B + v E, one stacked product per term, each written in place
    into its log row (u B through one scratch block).  The feed terms eta K_v
    and v E do not depend on x, so they are computed for the whole horizon
    before the step loop, each as the same stacked product per step."""
    x = np.empty((len(v_log),) + g.x0.shape)
    u = np.empty(x.shape[:-1] + g.K_x.shape[-1:])
    w = eta_log.take(g.rows, axis=1) @ g.K_v
    f = v_log[:, None, None, :] @ g.E
    x[0] = g.x0
    u_b = np.empty_like(g.x0)
    for x_t, u_t, w_t, f_t, x_next in zip(x, u, w, f, x[1:]):
        np.matmul(x_t, g.K_x, out=u_t)
        u_t += w_t
        np.matmul(x_t, g.A, out=x_next)
        np.matmul(u_t, g.B, out=u_b)
        x_next += u_b
        x_next += f_t
    u[-1] = x[-1] @ g.K_x + w[-1]
    return x, u


def _by_follower(groups: Sequence[_StepGroup], logs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each follower's (T+1, .) view into its group's (T+1, G, k, .) log, in follower order."""
    views = [view for log in logs
             for view in log.reshape(len(log), -1, log.shape[-1]).swapaxes(0, 1)]
    order = np.argsort(np.concatenate([g.rows.ravel() for g in groups]))
    return [views[i] for i in order.tolist()]


def _overflow(t: int, rows: dict[str, Sequence[np.ndarray]]) -> OverflowAbort:
    """Name the first offending entry of the time-t ``rows`` (per series, one row
    per owner), in the order v, eta, s_est, x and by follower.  Failure path only."""
    peaks = [(series, i, np.abs(r).max()) for series, a in rows.items() for i, r in enumerate(a)]
    # a NaN fails every comparison, so the inverted test flags NaN as well as +-inf
    series, i, _ = next(peak for peak in peaks if not peak[2] <= OVERFLOW_LIMIT)
    magnitude = float(np.max([peak for _, _, peak in peaks]))
    return OverflowAbort(t, magnitude, series, None if series == "v" else i + 1)


def _row_norms(e: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(e, axis=-1)`` to the bit.  Below 8 columns numpy adds
    the squares one after the other, and so do these adds of whole columns,
    without one short reduction per row; from 8 columns on it is that call."""
    if e.shape[-1] >= 8:
        return np.linalg.norm(e, axis=-1)
    total = np.zeros(e.shape[:-1])
    for i in range(e.shape[-1]):
        total += e[..., i] * e[..., i]
    return np.sqrt(total)


def run(scenario: Scenario) -> TrajectoryLog:
    """Simulate the closed loop as the cascade leader, observers, plants and
    log every series.

    Validation is the caller's concern (see validate_scenario); the gains
    are the scenario's own (``synthesize_gains``), so a failed solve raises
    before the first step.  A diverging run computes up to its horizon, then
    raises ``OverflowAbort`` for the first time step at which a state (v,
    eta, s_est or x) exceeds 1e12 in magnitude or is not finite.
    """
    groups = _step_groups(scenario)
    S, horizon = scenario.leader.S, scenario.horizon
    # a diverging run overflows to inf and NaN; the scan below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        v_log, eta_log, s_log = observer_logs(scenario.leader, scenario.topology,
                                              scenario.initial_bank(), horizon)
        xs, us = zip(*(_plant_trajectory(g, eta_log, v_log) for g in groups))
        states = {"v": v_log[:, None], "eta": eta_log,
                  **({} if s_log is None else {"s_est": s_log})}
        bad = np.zeros(horizon + 1, dtype=bool)
        for a in [*states.values(), *xs]:
            flat = a.reshape(horizon + 1, -1)
            # max and min propagate NaN, which fails both inverted tests
            bad |= ~((flat.max(axis=1) <= OVERFLOW_LIMIT) & (flat.min(axis=1) >= -OVERFLOW_LIMIT))
    x = _by_follower(groups, xs)
    if bad.any():
        t = int(bad.argmax())
        raise _overflow(t, {**{series: a[t] for series, a in states.items()},
                            "x": [x_i[t] for x_i in x]})

    e_logs = [x_g @ g.C + u_g @ g.D + (v_log @ g.F).transpose(1, 0, 2)[:, :, None]
              for g, x_g, u_g in zip(groups, xs, us)]
    e_norms = np.empty((horizon + 1, scenario.n_followers))
    for g, e_g in zip(groups, e_logs):
        e_norms[:, g.rows] = _row_norms(e_g)
    return TrajectoryLog(
        scenario_name=scenario.name,
        observer_mode=scenario.observer_mode,
        t=np.arange(horizon + 1),
        sigma=scenario.topology.signal.modes(0, horizon + 1),
        v=v_log,
        x=x,
        eta=eta_log,
        s_est=s_log,
        u=_by_follower(groups, us),
        e=_by_follower(groups, e_logs),
        eta_tilde_norm=_error_norms(eta_log, v_log[:, None, :]),
        s_tilde_norm=(None if s_log is None
                      else _error_norms(s_log, np.broadcast_to(S, s_log.shape))),
        e_norms=e_norms,
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
        """Every series converged and every assumption check passed."""
        return all(s.converged for s in self.series) and all(c.passed for c in self.checks)


def _judge(name: str, final: float, fit: DecayFit, thresholds: Thresholds) -> SeriesReport:
    """Verdict on one series from its fit.  ``_fit_columns`` keeps no sample
    of exactly the series holding NaN or +-inf, and those never converge."""
    if not (fit.floored or fit.n_samples):
        return SeriesReport(name, final, fit, False, "non-finite values")
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
    least-squares pass that floors each column at its own noise level
    (``fit_decay`` is its one-column case, so a series fits the same either
    way).  A column holding NaN or +-inf gets no fit there and is reported
    as "non-finite values".
    """
    names, blocks = _norm_columns(log)
    values = np.hstack(blocks)
    series = tuple(
        _judge(name, final, fit, thresholds)
        for name, final, fit in zip(names, values[-1].tolist(), _fit_columns(values))
    )
    return ConvergenceReport(series=series, thresholds=thresholds, checks=tuple(checks))


def _norm_columns(log: TrajectoryLog) -> tuple[list[str], list[np.ndarray]]:
    """Column names and (T+1, k) blocks of the derived norm series:
    eta_tilde_norm, s_tilde_norm (adaptive only), then e_norm_1..N."""
    names, blocks = ["eta_tilde_norm"], [log.eta_tilde_norm[:, None]]
    if log.s_tilde_norm is not None:
        names.append("s_tilde_norm")
        blocks.append(log.s_tilde_norm[:, None])
    names += [f"e_norm_{i + 1}" for i in range(log.n_followers)]
    return names, blocks + [log.e_norms]


def _follower_blocks(log: TrajectoryLog, i: int) -> list[tuple[str, np.ndarray]]:
    """The (name, (T+1, k) series) blocks of 0-based follower i in CSV order:
    x, eta, s (adaptive only, row-major), u, e."""
    blocks = [("x", log.x[i]), ("eta", log.eta[:, i])]
    if log.s_est is not None:
        blocks.append(("s", log.s_est[:, i].reshape(log.horizon + 1, -1)))
    return blocks + [("u", log.u[i]), ("e", log.e[i])]


def csv_columns(log: TrajectoryLog) -> list[str]:
    """Stable column order of the trajectory CSV.

    t and sigma first; then the leader components v_0_*; then per follower
    i = 1..N its x_i_*, eta_i_*, s_i_* (adaptive only, row-major), u_i_*,
    e_i_*; finally the derived norms eta_tilde_norm, s_tilde_norm (adaptive
    only) and e_norm_i.
    """
    cols = ["t", "sigma"] + [f"v_0_{c}" for c in range(log.v.shape[1])]
    for i in range(log.n_followers):
        cols += [f"{name}_{i + 1}_{c}"
                 for name, block in _follower_blocks(log, i) for c in range(block.shape[1])]
    return cols + _norm_columns(log)[0]


def write_trajectory_csv(log: TrajectoryLog, fh: IO[str]) -> None:
    """Write the log as CSV, each float as its ``repr`` (full round-trip precision)."""
    blocks = [log.v]
    for i in range(log.n_followers):
        blocks += [block for _, block in _follower_blocks(log, i)]
    values = np.hstack(blocks + _norm_columns(log)[1])
    fh.write(",".join(csv_columns(log)) + "\n")
    # each distinct bit pattern of a block (-0.0 is not 0.0) is formatted once;
    # larger blocks find few more repeats and hold more strings at once
    rows = 32  # time steps per block
    for t0 in range(0, len(values), rows):
        block = values[t0:t0 + rows]
        bits = block.view(np.uint64).ravel()
        order = bits.argsort(kind="stable")
        ranked = bits[order]
        first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
        index = np.empty_like(order)
        index[order] = np.cumsum(first) - 1
        text = np.array(repr(block.ravel()[order[first]].tolist())[1:-1].split(", "), dtype=object)
        cells = text[index].reshape(block.shape).tolist()
        for t, sigma, row in zip(log.t[t0:t0 + rows].tolist(),
                                 log.sigma[t0:t0 + rows].tolist(), cells):
            fh.write(f"{t},{sigma},{','.join(row)}\n")


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


def report_to_dict(report: ConvergenceReport, scenario_name: str,
                   observer_mode: str, horizon: int) -> dict:
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


# the values json writes as arrays and objects; every other value is one token
_CONTAINERS = (list, tuple, dict)


def _nested(values) -> bool:
    """Whether any of ``values`` is a container: one check per distinct type."""
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _key(key) -> str:
    """A dict key as json writes it: a str as is, a float, int, bool or None
    as the text of its JSON value, then quoted and escaped."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _cells(column: Sequence) -> list[str]:
    """The JSON text of each scalar of ``column``, from one C-encoder call.
    The encoder escapes every control character, so a raw NUL in its output
    is a separator."""
    return json.dumps(column, separators=("\x00", ": "))[1:-1].split("\x00")


def _table(rows: Sequence, level: int) -> list[str] | None:
    """The texts of ``rows``, objects at nesting ``level``, when they form a
    table: dicts with the same str keys in the same order and only scalar
    values; otherwise None.  (Keys that are not str can be equal and still
    be written differently, as 1 and True are.)  Each column is one
    C-encoder call, and every row fills one template."""
    keys = tuple(rows[0]) if isinstance(rows[0], dict) else ()
    if not (keys and all(isinstance(k, str) for k in keys)
            and all(isinstance(r, dict) and tuple(r) == keys for r in rows)):
        return None
    columns = list(zip(*[r.values() for r in rows]))
    if any(map(_nested, columns)):
        return None
    inner = "\n" + "  " * (level + 1)
    fields = ("," + inner).join(_key(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{" + inner + fields + inner[:-2] + "}"
    return [template % cells for cells in zip(*map(_cells, columns))]


def _indented(value, level: int) -> str:
    """The text of ``value`` at nesting ``level`` of ``json.dumps(..., indent=2)``.

    A scalar, and a container that holds only scalars (a config's matrix
    row), is one C-encoder call, with the container's item separator,
    newline and indent passed in as its separator.  A table of same-keyed
    flat rows (the report's ``checks`` and ``series``) is one call per
    column (``_table``).  Any other container joins the texts of its items."""
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    is_dict = isinstance(value, dict)
    brackets = "{}" if is_dict else "[]"
    if not value:
        return brackets
    inner = "\n" + "  " * (level + 1)
    if not _nested(value.values() if is_dict else value):
        body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
    elif is_dict:
        body = ("," + inner).join(f"{_key(k)}: {_indented(v, level + 1)}"
                                  for k, v in value.items())
    else:
        items = _table(value, level + 1) or [_indented(v, level + 1) for v in value]
        body = ("," + inner).join(items)
    return brackets[0] + inner + body + inner[:-2] + brackets[1]


def indented_json(doc) -> str:
    """``json.dumps(doc, indent=2)`` byte for byte, with the repeated parts
    written by json's C encoder instead of its pure-Python indent path.

    Every container is classed by type checks before any of it is encoded
    (``_indented``).  Unlike json, a document that contains itself is not
    detected and recurses until RecursionError."""
    return _indented(doc, 0)


def write_report_json(report_dict: dict, fh: IO[str]) -> None:
    fh.write(indented_json(report_dict) + "\n")
