"""Closed-loop scenario orchestration.

A Scenario bundles the leader, the switching topology, per-follower plants
with gain directives, and observer settings.  Running it advances, per tick
and strictly in this order, (1) the observer bank, (2) the control inputs,
(3) the plants and the leader, with every right-hand side evaluated on
time-t values and the time-t graph, so the semantics are synchronous.

Each tick is a fixed number of array operations, however many followers
there are.  Before the first tick, ``run`` checks the gain shapes once and
stacks every follower's A..F, K_x and K_v along axis 0 in one stack,
zero-padded to the largest (n, m, p) of the team; the control law
u = K_x x + K_v eta and the plant step run as one batched matmul each.
Padding is exact: the padded rows and columns are zero, so padded states
stay exactly zero and no real entry changes; the logs hold N max(n) state
entries per step instead of the sum of the n_i, which costs memory only
when the team mixes plant dimensions.  The preallocated logs are
the state: step t reads row t and writes row t + 1, and the observer update
is the array-level one that the public observer steps use after their
checks, so nothing is validated per tick.  The observer's neighbour mix
sum_j omega_ij (eta_j - eta_i) is computed as (Omega eta)_i - eta_i, valid
because Omega is row-stochastic, with no (N+1) x (N+1) difference tensor.
The regulated outputs and the norm series are computed after the last
tick, as whole-array expressions.  In distributed mode the closed loop is a
switched linear system, but no dense closed-loop matrix per mode is built:
with N followers it has (q + N (q + n))^2 entries, 134 MB at N = 512 and
n = q = 4, where the batched step needs only the stacked blocks.

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
from typing import IO, Sequence

import numpy as np

from .observers import DecayFit, LeaderModel, ObserverBank, _observer_update, fit_decay
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
    """Which validation checks to run and their parameters."""

    connectivity: bool = True
    connectivity_window: int = 0
    connectivity_horizon: int | None = None
    leader_spectral: bool = True
    stabilizability: bool = True
    regulator: bool = True


@dataclass(frozen=True)
class Thresholds:
    """Convergence pass criteria: final value and fitted rate bounds."""

    final: float = 1e-6
    rate: float = 0.999


@dataclass(frozen=True, eq=False)
class FollowerSpec:
    plant: PlantModel
    x0: np.ndarray
    gain: GainDirective = field(default_factory=GainDirective)

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape[0] != self.plant.n:
            raise DimensionError(
                f"initial state has dim {x0.shape[0]}, plant expects {self.plant.n}"
            )
        object.__setattr__(self, "x0", _readonly(x0))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete description of one closed-loop simulation."""

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

    def __post_init__(self):
        if self.observer_mode not in ("distributed", "adaptive"):
            raise ValueError(f"unknown observer mode {self.observer_mode!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
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
        if self.eta0 is not None:
            eta0 = tuple(_readonly(np.asarray(e, dtype=float).reshape(-1)) for e in self.eta0)
            if len(eta0) != len(followers) or any(e.shape[0] != q for e in eta0):
                raise DimensionError("eta0 must hold one q-vector per follower")
            object.__setattr__(self, "eta0", eta0)
        if self.s0 is not None:
            if self.observer_mode != "adaptive":
                raise ValueError("s0 only applies to the adaptive observer")
            s0 = tuple(_readonly(np.asarray(s, dtype=float)) for s in self.s0)
            if len(s0) != len(followers) or any(s.shape != (q, q) for s in s0):
                raise DimensionError("s0 must hold one q x q matrix per follower")
            object.__setattr__(self, "s0", s0)

    @property
    def n_followers(self) -> int:
        return len(self.followers)

    def initial_bank(self) -> ObserverBank:
        q = self.leader.q
        n = self.n_followers
        eta = np.vstack(self.eta0) if self.eta0 is not None else np.zeros((n, q))
        if self.observer_mode == "adaptive":
            s = (np.stack(self.s0) if self.s0 is not None
                 else np.zeros((n, q, q)))
            return ObserverBank(mode="adaptive", eta=eta, s_est=s)
        return ObserverBank(mode="distributed", eta=eta)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True, eq=False)
class Preparation:
    """Assumption checks and certified gains of one scenario, from one pass;
    ``gains`` is None when any follower's regulator or gain solve failed."""

    checks: tuple[CheckResult, ...]
    gains: tuple[ControllerGains, ...] | None


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


# errors that prepare() reports as failed checks instead of raising
_REPORTED_ERRORS = (RegulatorUnsolvableError, GainSynthesisError, np.linalg.LinAlgError,
                    ValueError)


def _solve_key(f: FollowerSpec) -> tuple:
    """Equal for followers whose plant matrices and gain directive are equal by value."""
    g = f.gain
    arrays = [getattr(f.plant, k) for k in "ABCDEF"] + [g.K_x, g.Q, g.R]
    return (g.method,) + tuple(
        None if a is None else (np.shape(a), np.asarray(a, dtype=float).tobytes())
        for a in arrays
    )


def _solve_followers(scenario: Scenario, keep: tuple = ()) -> list[_SharedSolve]:
    """One regulator solve and one gain synthesis per distinct follower class.

    Returns the shared solve of every follower, in follower order.  Classes
    are solved in order of their first follower, regulator before gain, so
    with ``keep`` empty the first error raised is the one a per-follower
    loop would raise; errors of the ``keep`` types are kept instead.
    """
    S = scenario.leader.S
    shared: dict[tuple, _SharedSolve] = {}
    out = []
    for k, f in enumerate(scenario.followers, start=1):
        key = _solve_key(f)
        if key not in shared:
            try:
                regulator = solve_regulator_equations(f.plant, S, tol=scenario.regulator_tol)
            except keep as exc:
                regulator = exc
            try:
                gain = synthesize_stabilizing_gain(
                    f.plant.A, f.plant.B, K=f.gain.K_x, Q=f.gain.Q, R=f.gain.R,
                    label=f"follower {k}",
                )
            except keep as exc:
                gain = exc
            failed = isinstance(regulator, Exception) or isinstance(gain, Exception)
            controller = None if failed else build_controller(f.plant, S, gain[0], regulator)
            shared[key] = _SharedSolve(k, regulator, gain, controller)
        out.append(shared[key])
    return out


def synthesize_gains(scenario: Scenario) -> list[ControllerGains]:
    """Solve the regulator equations and certify a gain for every follower.

    Followers with equal plants and gain directives share one solve.
    """
    return [s.controller for s in _solve_followers(scenario)]


def prepare(scenario: Scenario) -> Preparation:
    """Run the requested assumption checks and synthesize every gain in one
    pass; reports, never raises.

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
    solves = _solve_followers(scenario, keep=_REPORTED_ERRORS)
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
    gains = tuple(s.controller for s in solves)
    return Preparation(tuple(results), None if any(g is None for g in gains) else gains)


def validate_scenario(scenario: Scenario) -> list[CheckResult]:
    """The checks of ``prepare``; reports, never raises."""
    return list(prepare(scenario).checks)


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


def _follower_stack(scenario: Scenario,
                    gains: Sequence[ControllerGains]) -> dict[str, np.ndarray]:
    """Check every follower's gain shapes once and stack A..F, K_x and K_v
    along axis 0, zero-padded to the largest (n, m, p) of the team."""
    followers, q = scenario.followers, scenario.leader.q
    if len(gains) != len(followers):
        raise DimensionError(f"{len(gains)} controller gains for {len(followers)} followers")
    for i, (f, g) in enumerate(zip(followers, gains)):
        n, m = f.plant.n, f.plant.m
        if g.K_x.shape != (m, n) or g.K_v.shape != (m, q):
            raise DimensionError(
                f"follower {i + 1}: gains K_x{g.K_x.shape}, K_v{g.K_v.shape} do not "
                f"match plant (m, n, q) = ({m}, {n}, {q})"
            )
    n, m, p = (max(getattr(f.plant, d) for f in followers) for d in "nmp")
    shapes = {"A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m), "E": (n, q),
              "F": (p, q), "K_x": (m, n), "K_v": (m, q)}
    stack = {name: np.zeros((len(followers),) + shape) for name, shape in shapes.items()}
    for i, (f, g) in enumerate(zip(followers, gains)):
        for name, out in stack.items():
            M = getattr(g if name.startswith("K") else f.plant, name)
            out[i, :M.shape[0], :M.shape[1]] = M
    return stack


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x over the (broadcast) leading axes of (..., a, b) matrices and (..., b) vectors."""
    return (M @ x[..., None])[..., 0]


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


def run(scenario: Scenario, gains: Sequence[ControllerGains] | None = None) -> TrajectoryLog:
    """Simulate the closed loop and log every series.

    Validation is the caller's concern (see prepare, whose ``gains`` can be
    passed in); this function checks the gain shapes once, before the first
    step (DimensionError), and only refuses to continue when states
    overflow or turn non-finite, or when gain synthesis itself fails.
    """
    if gains is None:
        gains = synthesize_gains(scenario)
    P = _follower_stack(scenario, gains)
    S = scenario.leader.S
    topology = scenario.topology
    horizon = scenario.horizon
    n_followers, q = scenario.n_followers, scenario.leader.q
    bank = scenario.initial_bank()

    sigma = np.array([topology.mode_at(t) for t in range(horizon + 1)], dtype=int)
    v_log = np.empty((horizon + 1, q))
    eta_log = np.empty((horizon + 1, n_followers, q))
    s_log = None if bank.s_est is None else np.empty((horizon + 1, n_followers, q, q))
    x_log = np.zeros((horizon + 1, n_followers, P["A"].shape[1]))
    u_log = np.empty((horizon + 1, n_followers, P["B"].shape[2]))
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
        v, eta, x = v_log[t], eta_log[t], x_log[t]
        u_log[t] = _matvec(P["K_x"], x) + _matvec(P["K_v"], eta)
        if t == horizon:
            break
        x_log[t + 1] = _matvec(P["A"], x) + _matvec(P["B"], u_log[t]) + P["E"] @ v
        eta_log[t + 1], s_next = _observer_update(
            S, topology.adjacency_of_mode(mode).omega, v, eta,
            None if s_log is None else s_log[t])
        if s_log is not None:
            s_log[t + 1] = s_next
        v_log[t + 1] = S @ v

    e_log = _matvec(P["C"], x_log) + _matvec(P["D"], u_log) + _matvec(P["F"], v_log[:, None])
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


def _judge(name: str, values: np.ndarray, thresholds: Thresholds) -> SeriesReport:
    # fp noise in an error series scales with the magnitudes it was computed
    # from, so lift the fitting floor accordingly for large-amplitude runs
    final = float(values[-1])
    if not np.isfinite(values).all():
        # fit_decay would drop NaN samples as floored and an inf would lift the floor
        no_fit = DecayFit(math.nan, math.nan, math.nan, n_samples=0, floored=False)
        return SeriesReport(name, final, no_fit, False, "non-finite values")
    floor = max(1e-13, 1e-12 * float(np.max(values, initial=0.0)))
    fit = fit_decay(values, floor=floor)
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
    """Fit geometric rates on every error series and compare with thresholds."""
    series = [_judge("eta_tilde_norm", log.eta_tilde_norm, thresholds)]
    if log.s_tilde_norm is not None:
        series.append(_judge("s_tilde_norm", log.s_tilde_norm, thresholds))
    for i in range(log.n_followers):
        series.append(_judge(f"e_norm_{i + 1}", log.e_norms[:, i], thresholds))
    return ConvergenceReport(
        series=tuple(series), thresholds=thresholds, checks=tuple(checks)
    )


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
    json.dump(report_dict, fh, indent=2, sort_keys=False)
    fh.write("\n")
