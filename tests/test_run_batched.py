"""The batched ``run`` against a per-follower reference loop, the Omega x - x
neighbour mix against its difference-tensor definition, and the trajectory
CSV against a per-float writer."""

import csv
import dataclasses
import io

import numpy as np
import pytest

import coopreg.observers
from coopreg.observers import LeaderModel, _neighbor_mix, observer_step
from coopreg.regulation import ControllerGains, PlantModel, control_input, plant_step
from coopreg.scenarios import formation_scenario
from coopreg.simkit import (
    AssumptionChecks,
    FollowerSpec,
    GainDirective,
    OverflowAbort,
    Scenario,
    csv_columns,
    prepare,
    run,
    write_trajectory_csv,
)
from coopreg.topology import DimensionError, SwitchingSignal, SwitchingTopology, WeightedDigraph

TOL = 1e-10


def double_integrator() -> PlantModel:
    """n=4, m=2, p=2: planar position and velocity, regulated position."""
    A = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    B = np.kron(np.array([[0.0], [1.0]]), np.eye(2))
    C = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return PlantModel(A=A, B=B, C=C, D=np.zeros((2, 2)), E=np.zeros((4, 4)), F=-C)


def integrator(p: int) -> PlantModel:
    """n=2, m=2: planar single integrator regulated onto the first p leader positions."""
    C = np.eye(2)[:p]
    F = -np.hstack([np.eye(2), np.zeros((2, 2))])[:p]
    return PlantModel(A=np.eye(2), B=np.eye(2), C=C, D=np.zeros((p, 2)),
                      E=np.zeros((2, 4)), F=F)


def mixed_scenario(observer_mode: str, horizon: int = 60, seed: int = 3) -> Scenario:
    """Three plant-dimension groups, interleaved, with user and Riccati gains
    over a table switching signal."""
    rng = np.random.default_rng(seed)
    S = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    leader = LeaderModel(S=S, v0=np.array([0.5, -1.0, 0.2, 0.1]))
    user_di = GainDirective(method="user", K_x=np.kron(np.array([[-0.7, -1.9]]), np.eye(2)))
    followers = (
        FollowerSpec(double_integrator(), rng.normal(size=4), user_di),
        FollowerSpec(integrator(2), rng.normal(size=2)),
        FollowerSpec(double_integrator(), rng.normal(size=4)),
        FollowerSpec(integrator(1), rng.normal(size=2)),
        FollowerSpec(integrator(2), rng.normal(size=2),
                     GainDirective(method="user", K_x=-0.5 * np.eye(2))),
    )
    graphs = (
        WeightedDigraph.from_edges(6, [(0, 1), (1, 2), (2, 3)]),
        WeightedDigraph.from_edges(6, [(0, 2), (3, 4), (4, 5), (1, 5)]),
        WeightedDigraph.from_edges(6, [(0, 3), (3, 1), (5, 4)], weight=2.5),
    )
    signal = SwitchingSignal.from_table([1, 2, 2, 3, 1, 3, 2, 1, 1, 3, 2], tail_mode=2)
    n = len(followers)
    s0 = (tuple(S + 0.3 * rng.normal(size=(4, 4)) for _ in range(n))
          if observer_mode == "adaptive" else None)
    return Scenario(
        name=f"mixed-{observer_mode}",
        leader=leader,
        topology=SwitchingTopology(graphs=graphs, signal=signal),
        followers=followers,
        observer_mode=observer_mode,
        eta0=tuple(rng.normal(size=4) for _ in range(n)),
        s0=s0,
        horizon=horizon,
        checks=AssumptionChecks(connectivity_window=20),
    )


def reference_run(scenario: Scenario, gains) -> dict:
    """The closed loop one follower at a time, from the public step functions."""
    leader, horizon = scenario.leader, scenario.horizon
    bank = scenario.initial_bank()
    v = leader.v0.copy()
    x = [f.x0.copy() for f in scenario.followers]
    n = scenario.n_followers
    out = {key: [] for key in ("sigma", "v", "eta", "s_est", "eta_tilde_norm",
                               "s_tilde_norm", "e_norms")}
    for key in ("x", "u", "e"):
        out[key] = [[] for _ in range(n)]
    for t in range(horizon + 1):
        out["sigma"].append(scenario.topology.mode_at(t))
        out["v"].append(v)
        out["eta"].append(bank.eta)
        out["eta_tilde_norm"].append(np.linalg.norm(bank.eta - v))
        if bank.s_est is not None:
            out["s_est"].append(bank.s_est)
            out["s_tilde_norm"].append(np.linalg.norm(bank.s_est - leader.S))
        x_next, norms = [], []
        for i, (f, g) in enumerate(zip(scenario.followers, gains)):
            u = control_input(g, x[i], bank.eta[i])
            nxt, e = plant_step(f.plant, x[i], u, v)
            for key, val in (("x", x[i]), ("u", u), ("e", e)):
                out[key][i].append(val)
            norms.append(np.linalg.norm(e))
            x_next.append(nxt)
        out["e_norms"].append(norms)
        if t < horizon:
            bank = observer_step(leader, v, bank, scenario.topology.adjacency_at(t))
            v = leader.advance(v)
            x = x_next
    ref = {key: np.array(val) for key, val in out.items() if key not in ("x", "u", "e")}
    for key in ("x", "u", "e"):
        ref[key] = [np.array(series) for series in out[key]]
    return ref


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_run_matches_reference_loop(mode):
    scenario = mixed_scenario(mode)
    prep = prepare(scenario)
    assert prep.gains is not None
    log = run(scenario, prep.gains)
    ref = reference_run(scenario, prep.gains)
    assert np.array_equal(log.sigma, ref["sigma"])
    assert np.array_equal(log.t, np.arange(scenario.horizon + 1))
    for key in ("v", "eta", "eta_tilde_norm", "e_norms"):
        assert np.abs(getattr(log, key) - ref[key]).max() <= TOL, key
    if mode == "adaptive":
        for key in ("s_est", "s_tilde_norm"):
            assert np.abs(getattr(log, key) - ref[key]).max() <= TOL, key
    else:
        assert log.s_est is None and log.s_tilde_norm is None
    for key in ("x", "u", "e"):
        series = getattr(log, key)
        assert len(series) == scenario.n_followers
        for i, (got, want) in enumerate(zip(series, ref[key])):
            assert got.shape == want.shape, (key, i)
            assert np.abs(got - want).max() <= TOL, (key, i)
    # the loop exercises the whole closed loop, not a transient at zero
    assert log.e_norms[0].min() > 1e-3


def difference_tensor_mix(omega, values):
    """sum_j omega_ij (values_j - values_i), from its definition."""
    diff = values[None, :] - values[:, None]
    w = omega.reshape(omega.shape + (1,) * (values.ndim - 1))
    return (w * diff).sum(axis=1)[1:]


@pytest.mark.parametrize("n_followers", [1, 4, 33])
@pytest.mark.parametrize("shape", [(3,), (3, 3)])
def test_neighbor_mix_matches_difference_tensor(n_followers, shape):
    rng = np.random.default_rng(n_followers)
    n1 = n_followers + 1
    omega = rng.random((n1, n1)) * (rng.random((n1, n1)) < 0.4)
    omega[np.diag_indices(n1)] += 0.1
    omega /= omega.sum(axis=1, keepdims=True)
    values = rng.normal(size=(n1,) + shape)
    got = _neighbor_mix(omega, values)
    assert got.shape == (n_followers,) + shape
    assert np.abs(got - difference_tensor_mix(omega, values)).max() <= 1e-13


def reshaped(gains: ControllerGains, K_x=None, K_v=None) -> ControllerGains:
    return ControllerGains(
        K_x=gains.K_x if K_x is None else K_x,
        K_v=gains.K_v if K_v is None else K_v,
        closed_loop_radius=gains.closed_loop_radius,
    )


@pytest.fixture
def no_steps(monkeypatch):
    """Fail the test if run advances the observer bank."""
    def refuse(*args, **kwargs):
        raise AssertionError("a step ran before the gain shapes were checked")

    monkeypatch.setattr(coopreg.observers, "_neighbor_mix", refuse)


@pytest.mark.parametrize("bad", ["K_x rows", "K_x cols", "K_v cols", "missing"])
def test_misshaped_gains_raise_before_any_step(bad, no_steps):
    scenario = mixed_scenario("distributed", horizon=5)
    gains = list(prepare(scenario).gains)
    g = gains[3]  # integrator(1): m=2, n=2, q=4
    if bad == "K_x rows":
        gains[3] = reshaped(g, K_x=np.vstack([g.K_x, g.K_x[:1]]),
                            K_v=np.vstack([g.K_v, g.K_v[:1]]))
    elif bad == "K_x cols":
        gains[3] = reshaped(g, K_x=np.hstack([g.K_x, np.zeros((2, 1))]))
    elif bad == "K_v cols":
        gains[3] = reshaped(g, K_v=g.K_v[:, :3])
    else:
        gains.pop()
    with pytest.raises(DimensionError) as exc_info:
        run(scenario, gains)
    if bad != "missing":
        assert "follower 4" in str(exc_info.value)


def test_nan_in_a_padded_follower_aborts_at_step_zero():
    base = mixed_scenario("distributed", horizon=5)
    f = base.followers[3]  # integrator(1): n=2 in a stack padded to n=4
    x0 = f.x0.copy()
    x0[1] = np.nan
    followers = base.followers[:3] + (FollowerSpec(f.plant, x0, f.gain),) + base.followers[4:]
    with pytest.raises(OverflowAbort) as exc_info:
        run(dataclasses.replace(base, followers=followers))
    assert (exc_info.value.t, exc_info.value.follower, exc_info.value.series) == (0, 4, "x")


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_run_makes_no_per_step_bank_checks(mode, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run checked the bank against the graph")

    monkeypatch.setattr(coopreg.observers, "_check_bank_adj", refuse)
    log = run(formation_scenario(horizon=300, observer_mode=mode))
    assert log.horizon == 300
    assert log.e_norms[-1].max() < 1e-6


def per_float_csv(log, fh) -> None:
    """The per-float CSV writer the vectorized one replaced (the oracle)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(csv_columns(log))
    for t in range(log.horizon + 1):
        row = [str(int(log.t[t])), str(int(log.sigma[t]))]
        row += [repr(float(val)) for val in log.v[t]]
        for i in range(log.n_followers):
            row += [repr(float(val)) for val in log.x[i][t]]
            row += [repr(float(val)) for val in log.eta[t, i]]
            if log.s_est is not None:
                row += [repr(float(val)) for val in log.s_est[t, i].reshape(-1)]
            row += [repr(float(val)) for val in log.u[i][t]]
            row += [repr(float(val)) for val in log.e[i][t]]
        row.append(repr(float(log.eta_tilde_norm[t])))
        if log.s_tilde_norm is not None:
            row.append(repr(float(log.s_tilde_norm[t])))
        row += [repr(float(log.e_norms[t, i])) for i in range(log.n_followers)]
        writer.writerow(row)


@pytest.mark.parametrize("build", [
    lambda: formation_scenario(horizon=120, seed=5),
    lambda: formation_scenario(horizon=120, observer_mode="adaptive", seed=5),
    lambda: mixed_scenario("distributed"),
    lambda: mixed_scenario("adaptive"),
], ids=["formation-distributed", "formation-adaptive", "mixed-distributed",
        "mixed-adaptive"])
def test_csv_matches_per_float_writer(build):
    log = run(build())
    got, want = io.StringIO(), io.StringIO()
    write_trajectory_csv(log, got)
    per_float_csv(log, want)
    assert got.getvalue() == want.getvalue()
