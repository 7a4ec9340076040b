"""The batched ``run`` against a per-follower reference loop and, bit for
bit, against a per-step plant loop, the neighbour mix (Omega x - x or the
edge-table gather) against its difference-tensor definition, the trajectory
CSV against a per-float writer, and the batched decay fits of ``analyze``
against a per-series ``lstsq`` fit."""

import csv
import dataclasses
import functools
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopreg.observers
import coopreg.simkit
import coopreg.topology
from coopreg.observers import (
    DecayFit,
    LeaderModel,
    ObserverBank,
    _fit_columns,
    _neighbor_mix,
    fit_decay,
    observer_step,
)
from coopreg.properties import bank_vs_error_form, random_leader
from coopreg.regulation import PlantModel, control_input, plant_step
from coopreg.scenarios import BUILTINS, build_builtin, formation_scenario
from coopreg.simkit import (
    AssumptionChecks,
    FollowerSpec,
    GainDirective,
    OverflowAbort,
    Scenario,
    Thresholds,
    analyze,
    csv_columns,
    report_to_dict,
    run,
    synthesize_gains,
    validate_scenario,
    write_report_json,
    write_trajectory_csv,
)
from coopreg.topology import (
    NormalizedAdjacency,
    SwitchingSignal,
    SwitchingTopology,
    WeightedDigraph,
    normalize_adjacency,
)

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
    user_di = GainDirective(K_x=np.kron(np.array([[-0.7, -1.9]]), np.eye(2)))
    followers = (
        FollowerSpec(double_integrator(), rng.normal(size=4), user_di),
        FollowerSpec(integrator(2), rng.normal(size=2)),
        FollowerSpec(double_integrator(), rng.normal(size=4)),
        FollowerSpec(integrator(1), rng.normal(size=2)),
        FollowerSpec(integrator(2), rng.normal(size=2),
                     GainDirective(K_x=-0.5 * np.eye(2))),
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
    log = run(scenario)
    ref = reference_run(scenario, synthesize_gains(scenario))
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


# edge densities of the sizes that select the edge table; the others draw 0.4
SPARSE_DENSITY = {150: 0.005, 600: 0.01}


@pytest.mark.parametrize("n_followers", [1, 4, 33, 150, 600])
@pytest.mark.parametrize("shape", [(3,), (3, 3)])
def test_neighbor_mix_matches_difference_tensor(n_followers, shape, monkeypatch):
    if n_followers == 150:  # below the table's size floor
        tables_at_any_size(monkeypatch)
    rng = np.random.default_rng(n_followers)
    n1 = n_followers + 1
    density = SPARSE_DENSITY.get(n_followers, 0.4)
    omega = rng.random((n1, n1)) * (rng.random((n1, n1)) < density)
    omega[np.diag_indices(n1)] += 0.1
    omega /= omega.sum(axis=1, keepdims=True)
    adj = NormalizedAdjacency(omega)
    if n_followers in SPARSE_DENSITY:
        assert adj._edges is not None
    values = rng.normal(size=(n1,) + shape)
    got = _neighbor_mix(adj, values)
    assert got.shape == (n_followers,) + shape
    assert np.abs(got - difference_tensor_mix(omega, values)).max() <= 1e-13


def tables_at_any_size(monkeypatch):
    """Every adjacency built from here on mixes over its edge table, also
    below the 256-node floor of the rule."""
    monkeypatch.setattr(coopreg.topology, "EDGE_TABLE_FACTOR", 0)


# N = 79 followers, below the floor: the tests select the table themselves
EDGE_CASES = {
    "no edges": [],
    "leader-only rows": [(0, i) for i in range(1, 80)],
    "rows without in-edges": [(0, 1), (1, 2), (0, 2), (2, 7), (78, 79)],
    "one row with two in-edges": [(0, 5), (5, 6), (3, 6), (6, 79)],
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("shape", [(3,), (3, 3)])
def test_edge_table_mix_covers_degenerate_rows(case, shape, monkeypatch):
    tables_at_any_size(monkeypatch)
    adj = normalize_adjacency(WeightedDigraph.from_edges(80, EDGE_CASES[case], weight=1.5))
    assert adj._edges is not None
    values = np.random.default_rng(5).normal(size=(80,) + shape)
    got = _neighbor_mix(adj, values)
    assert got.shape == (79,) + shape
    assert np.abs(got - difference_tensor_mix(adj.omega, values)).max() <= 1e-13
    # a row without in-edges mixes to exactly zero
    silent = [i - 1 for i in range(1, 80) if not any(r == i for _, r in EDGE_CASES[case])]
    assert not got[silent].any()


def sparse_topology(n_followers: int, n_modes: int, seed: int) -> SwitchingTopology:
    """A spanning tree rooted at the leader split across the modes, plus a
    leader link for every fifth follower, cycled with dwell 2."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n_modes, n_followers + 1, n_followers + 1))
    for i in range(1, n_followers + 1):
        w[rng.integers(0, n_modes), i, rng.integers(0, i)] = rng.uniform(0.5, 1.5)
        if i % 5 == 0:
            w[rng.integers(0, n_modes), i, 0] = rng.uniform(0.5, 1.5)
    return SwitchingTopology(
        graphs=tuple(WeightedDigraph(m) for m in w),
        signal=SwitchingSignal.periodic([(m, 2) for m in range(1, n_modes + 1)]),
    )


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_edge_table_bank_matches_the_dense_error_form(mode, monkeypatch):
    tables_at_any_size(monkeypatch)
    topo = sparse_topology(150, n_modes=3, seed=11)
    assert all(topo.adjacency_of_mode(m)._edges is not None for m in (1, 2, 3))
    rng = np.random.default_rng(12)
    leader = random_leader(rng, q=3)
    s_est = leader.S + rng.uniform(-0.3, 0.3, size=(150, 3, 3)) if mode == "adaptive" else None
    bank = ObserverBank(eta=rng.normal(size=(150, 3)), s_est=s_est)
    assert bank_vs_error_form(topo, leader, bank, horizon=40) < 1e-10


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_run_on_an_edge_table_topology_is_byte_identical(mode, monkeypatch):
    tables_at_any_size(monkeypatch)
    n = 64
    topo = sparse_topology(n, n_modes=4, seed=2)
    assert all(topo.adjacency_of_mode(m)._edges is not None for m in (1, 2, 3, 4))
    rng = np.random.default_rng(4)
    S = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    scenario = Scenario(
        name=f"sparse-{mode}",
        leader=LeaderModel(S=S, v0=np.array([0.5, -1.0, 0.2, 0.1])),
        topology=topo,
        followers=tuple(FollowerSpec(double_integrator(), rng.normal(size=4))
                        for _ in range(n)),
        observer_mode=mode,
        eta0=tuple(rng.normal(size=4) for _ in range(n)),
        horizon=300,
    )
    first, second = run(scenario), run(scenario)
    for key in ("v", "eta", "s_est", "eta_tilde_norm", "s_tilde_norm", "e_norms"):
        a, b = getattr(first, key), getattr(second, key)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), key
    for key in ("x", "u", "e"):
        for a, b in zip(getattr(first, key), getattr(second, key)):
            assert a.tobytes() == b.tobytes(), key
    # the table carried the leader's state out to the whole tree
    assert first.eta_tilde_norm[-1] < 1e-6 and first.e_norms[-1].max() < 1e-6


def sparse_swarm(n: int, mode: str, horizon: int, seed: int) -> Scenario:
    """Double integrators following a planar leader over ``sparse_topology``."""
    rng = np.random.default_rng(seed)
    return Scenario(
        name=f"swarm-{n}-{mode}",
        leader=LeaderModel(S=np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)),
                           v0=np.array([0.5, -1.0, 0.2, 0.1])),
        topology=sparse_topology(n, n_modes=4, seed=seed),
        followers=tuple(FollowerSpec(double_integrator(), rng.normal(size=4)) for _ in range(n)),
        observer_mode=mode,
        horizon=horizon,
        checks=AssumptionChecks(connectivity_window=7),
    )


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_a_sparse_swarm_is_validated_and_run_without_a_dense_array(mode):
    n = 1023
    scenario = sparse_swarm(n, mode, horizon=5, seed=3)
    tracemalloc.start()
    try:
        checks = coopreg.simkit.validate_scenario(scenario)
        run(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(checks), checks
    # one (N+1) x (N+1) float array would be 8.4 MB
    assert peak < 0.5 * (n + 1) ** 2 * 8


def test_report_json_is_one_write_of_the_streamed_bytes():
    n = 512
    scenario = sparse_swarm(n, "distributed", horizon=40, seed=9)
    report = analyze(run(scenario), checks=validate_scenario(scenario))
    doc = report_to_dict(report, scenario.name, scenario.observer_mode, scenario.horizon)
    assert len(doc["series"]) > n
    writes = []

    class Sink:
        write = writes.append

    write_report_json(doc, Sink())
    # the bytes of the chunk-by-chunk writer it replaced
    streamed = io.StringIO()
    json.dump(doc, streamed, indent=2)
    streamed.write("\n")
    assert writes == [json.dumps(doc, indent=2) + "\n"] == [streamed.getvalue()]


def test_nan_in_a_padded_follower_aborts_at_step_zero():
    base = mixed_scenario("distributed", horizon=5)
    f = base.followers[3]  # integrator(1): n=2, its own step group in a team with n=4 plants
    x0 = f.x0.copy()
    x0[1] = np.nan
    followers = base.followers[:3] + (FollowerSpec(f.plant, x0, f.gain),) + base.followers[4:]
    with pytest.raises(OverflowAbort) as exc_info:
        run(dataclasses.replace(base, followers=followers))
    assert (exc_info.value.t, exc_info.value.follower, exc_info.value.series) == (0, 4, "x")


def sampled_double_integrator(h: float) -> PlantModel:
    """The planar double integrator sampled with step h."""
    C = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return PlantModel(A=np.kron(np.array([[1.0, h], [0.0, 1.0]]), np.eye(2)),
                      B=np.kron(np.array([[h * h / 2], [h]]), np.eye(2)),
                      C=C, D=np.zeros((2, 2)), E=np.zeros((4, 4)), F=-C)


def team_scenario(observer_mode: str, plants, user=(), horizon: int = 60,
                  seed: int = 5) -> Scenario:
    """The given plants over three random spanning trees; the followers at
    the 0-based indices in ``user`` get a user gain K_x = -0.5 I, the others
    a Riccati directive."""
    base = mixed_scenario(observer_mode, horizon, seed)
    rng = np.random.default_rng(seed)
    user_gain = GainDirective(K_x=-0.5 * np.eye(2))
    followers = tuple(
        FollowerSpec(plant, rng.normal(size=plant.n), user_gain if i in user else GainDirective())
        for i, plant in enumerate(plants)
    )
    n = len(followers)
    graphs = tuple(
        WeightedDigraph.from_edges(n + 1, [(int(rng.integers(0, i)), i) for i in range(1, n + 1)])
        for _ in range(3)
    )
    s0 = (tuple(base.leader.S + 0.3 * rng.normal(size=(4, 4)) for _ in range(n))
          if observer_mode == "adaptive" else None)
    return dataclasses.replace(
        base, name=f"team-{observer_mode}", followers=followers,
        topology=SwitchingTopology(graphs=graphs,
                                   signal=SwitchingSignal.periodic([(1, 2), (2, 1), (3, 3)])),
        eta0=tuple(rng.normal(size=4) for _ in range(n)), s0=s0,
    )


def interleaved_scenario(observer_mode: str, horizon: int = 60) -> Scenario:
    """Two plant classes of three unevenly spaced members and two classes of
    one; one class feels the leader state through a nonzero E."""
    def pushed():
        return dataclasses.replace(integrator(2), E=0.1 * np.eye(2, 4))

    plants = [double_integrator(), double_integrator(), pushed(), double_integrator(),
              integrator(1), pushed(), pushed(), integrator(1)]
    return team_scenario(observer_mode, plants, user=(7,), horizon=horizon)


def distinct_scenario(observer_mode: str) -> Scenario:
    """Twelve double integrators, each sampled with its own step: twelve classes."""
    return team_scenario(observer_mode, [sampled_double_integrator(1.0 + i / 8) for i in range(12)])


def cyclic_scenario(observer_mode: str) -> Scenario:
    """Eight followers whose plant is one of three, in turn: classes of 3, 3 and 2."""
    return team_scenario(observer_mode,
                         [sampled_double_integrator((1.0, 0.5, 2.0)[i % 3]) for i in range(8)])


def group_rows(scenario: Scenario) -> list:
    """Each step group's (G, k) follower indices, as nested lists."""
    return [g.rows.tolist() for g in coopreg.simkit._step_groups(scenario)]


def assert_run_matches_reference(scenario: Scenario) -> None:
    log, ref = run(scenario), reference_run(scenario, synthesize_gains(scenario))
    for key in ("v", "eta", "eta_tilde_norm", "e_norms") + (
            ("s_est", "s_tilde_norm") if scenario.observer_mode == "adaptive" else ()):
        assert np.abs(getattr(log, key) - ref[key]).max() <= TOL, key
    for key in ("x", "u", "e"):
        for i, (got, want) in enumerate(zip(getattr(log, key), ref[key])):
            assert got.shape == want.shape, (key, i)
            assert np.abs(got - want).max() <= TOL, (key, i)
    assert log.e_norms[0].min() > 1e-3


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
@pytest.mark.parametrize("build, rows", [
    # every follower is its own class; the classes of equal (n, m, p) stack
    (mixed_scenario, [[[0], [2]], [[1], [4]], [[3]]]),
    # the user-gain integrator(1) at 7 is its own class, so the Riccati one at
    # 4 is too, and the two stack; each class of three members is its own group
    (interleaved_scenario, [[[0, 1, 3]], [[2, 5, 6]], [[4], [7]]]),
    # twelve one-member classes of one shape: one group, however many plants
    (distinct_scenario, [[[i] for i in range(12)]]),
    # the two classes of three members stack; the class of two is its own group
    (cyclic_scenario, [[[0, 3, 6], [1, 4, 7]], [[2, 5]]]),
])
def test_step_groups_match_the_reference_loop(build, rows, mode):
    scenario = build(mode)
    assert group_rows(scenario) == rows
    assert_run_matches_reference(scenario)


def per_step_plants(g, eta_log: np.ndarray, v_log: np.ndarray) -> tuple:
    """A step group's plant loop with the feed terms eta K_v and v E computed
    inside it, one step at a time (the reference for ``_plant_trajectory``)."""
    x = np.empty((len(v_log),) + g.x0.shape)
    u = np.empty(x.shape[:-1] + g.K_x.shape[-1:])
    x[0] = g.x0
    for t in range(len(x)):
        u[t] = x[t] @ g.K_x + eta_log[t].take(g.rows, axis=0) @ g.K_v
        if t + 1 < len(x):
            x[t + 1] = x[t] @ g.A + u[t] @ g.B + v_log[t][None] @ g.E
    return x, u


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
@pytest.mark.parametrize("build", [
    mixed_scenario,
    interleaved_scenario,
    # G = 12 stacked classes of k = 1
    distinct_scenario,
    cyclic_scenario,
    lambda mode: dataclasses.replace(build_builtin("formation-sec5"), observer_mode=mode),
    # G = 1 class of k = 600
    lambda mode: sparse_swarm(600, mode, 80, 3),
], ids=["mixed", "interleaved", "distinct", "cyclic", "formation-sec5", "sparse-swarm"])
def test_plant_trajectory_is_bitwise_the_per_step_loop(build, mode):
    scenario = build(mode)
    log = run(scenario)
    groups = coopreg.simkit._step_groups(scenario)
    xs, us = zip(*(per_step_plants(g, log.eta, log.v) for g in groups))
    es = [x_g @ g.C + u_g @ g.D + (log.v @ g.F).transpose(1, 0, 2)[:, :, None]
          for g, x_g, u_g in zip(groups, xs, us)]
    for key, logs in (("x", xs), ("u", us), ("e", es)):
        want = coopreg.simkit._by_follower(groups, logs)
        for i, (got, ref) in enumerate(zip(getattr(log, key), want, strict=True)):
            assert got.tobytes() == ref.tobytes(), (key, i)


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_run_makes_no_per_step_bank_checks(mode, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run checked the bank against the graph")

    monkeypatch.setattr(coopreg.observers, "observer_step", refuse)
    log = run(formation_scenario(horizon=300, observer_mode=mode))
    assert log.horizon == 300
    assert log.e_norms[-1].max() < 1e-6


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_run_builds_no_bank_per_step(mode, monkeypatch):
    # a patched class attribute is seen through every import binding of the
    # checked step, which a patched module function is not
    built = []
    post_init = ObserverBank.__post_init__
    monkeypatch.setattr(ObserverBank, "__post_init__",
                        lambda bank: (built.append(bank), post_init(bank))[1])
    run(formation_scenario(horizon=300, observer_mode=mode))
    assert len(built) == 1  # the initial bank


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


CSV_BLOCK = 32  # time steps per block of write_trajectory_csv
HOSTILE = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]


@functools.lru_cache(maxsize=None)
def formation_log(horizon: int, mode: str):
    return run(formation_scenario(horizon=horizon, observer_mode=mode, seed=5))


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
@pytest.mark.parametrize("horizon", [0, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
@settings(max_examples=10, deadline=None)
@given(planted=st.lists(st.tuples(st.integers(min_value=0),
                                  st.one_of(st.sampled_from(HOSTILE), st.floats())),
                        max_size=40))
def test_csv_matches_per_float_writer_on_hostile_values(horizon, mode, planted):
    log = formation_log(horizon, mode)
    v, eta, norms = log.v.copy(), log.eta.copy(), log.e_norms.copy()
    x = [x_i.copy() for x_i in log.x]
    # -0.0 beside 0.0 and the other special values, all in the first block
    eta.reshape(-1)[:len(HOSTILE)] = HOSTILE
    # one value on both sides of the first block boundary
    norms[CSV_BLOCK - 1:CSV_BLOCK + 1] = 0.1
    for k, value in planted:
        for a in (v, eta, x[k % len(x)]):
            a.reshape(-1)[k % a.size] = value
    hostile = dataclasses.replace(log, v=v, eta=eta, x=x, e_norms=norms)
    got, want = io.StringIO(), io.StringIO()
    write_trajectory_csv(hostile, got)
    per_float_csv(hostile, want)
    assert got.getvalue() == want.getvalue()


def lstsq_fit_decay(values, floor=1e-13) -> DecayFit:
    """The per-series ``np.linalg.lstsq`` fit that the batched one replaced (the oracle)."""
    values = np.asarray(values, dtype=float)
    t = np.arange(values.shape[0])
    keep = values > floor
    if not keep.any():
        return DecayFit(rate=0.0, prefactor=0.0, residual=0.0, n_samples=0, floored=True)
    t, v = t[keep], values[keep]
    k = max(int(math.ceil(0.6 * len(v))), 2)
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


def per_series_analyze(log, thresholds=Thresholds()) -> list[tuple]:
    """(name, final, fit, converged, note) of every series, judged one series
    at a time with the lstsq fit, as ``analyze`` did before it batched the fits."""
    columns = [("eta_tilde_norm", log.eta_tilde_norm)]
    if log.s_tilde_norm is not None:
        columns.append(("s_tilde_norm", log.s_tilde_norm))
    columns += [(f"e_norm_{i + 1}", log.e_norms[:, i]) for i in range(log.n_followers)]
    out = []
    for name, values in columns:
        final = float(values[-1])
        if not np.isfinite(values).all():
            no_fit = DecayFit(math.nan, math.nan, math.nan, n_samples=0, floored=False)
            out.append((name, final, no_fit, False, "non-finite values"))
            continue
        fit = lstsq_fit_decay(values, floor=max(1e-13, 1e-12 * float(np.max(values, initial=0.0))))
        if fit.floored:
            out.append((name, final, fit, True, "converged (floor)"))
        elif math.isnan(fit.rate):
            out.append((name, final, fit, final < thresholds.final,
                        "insufficient samples for a rate fit"))
        else:
            converged = fit.rate < thresholds.rate and final < thresholds.final
            out.append((name, final, fit, converged,
                        "converged" if converged else "not converged"))
    return out


def assert_fit_close(got: DecayFit, want: DecayFit) -> None:
    assert (got.n_samples, got.floored) == (want.n_samples, want.floored)
    for key in ("rate", "prefactor"):
        a, b = getattr(got, key), getattr(want, key)
        assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, rel=1e-12, abs=0), key
    a, b = got.residual, want.residual
    assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12


def column(kind: str, steps: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(steps)
    scale, rate = rng.uniform(0.1, 100.0), rng.uniform(0.3, 1.2)
    if kind == "geometric":  # with a bounded multiplicative ripple
        return scale * rate**t * np.exp(rng.uniform(-0.2, 0.2, steps))
    if kind == "plateau":  # decays into a floating-point noise plateau
        return np.maximum(scale * rng.uniform(0.3, 0.9)**t, rng.uniform(1e-16, 1e-12, steps))
    if kind == "constant":
        return np.full(steps, scale)
    if kind == "zero":
        return np.zeros(steps)
    values = np.zeros(steps)  # one survivor
    values[rng.integers(steps)] = scale
    return values


KINDS = ("geometric", "plateau", "constant", "zero", "survivor")


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
       steps=st.one_of(st.just(1), st.integers(2, 150)),
       seed=st.integers(0, 2**32 - 1))
def test_fit_columns_matches_the_lstsq_fit(kinds, steps, seed):
    rng = np.random.default_rng(seed)
    stack = np.column_stack([column(kind, steps, rng) for kind in kinds])
    floors = np.maximum(1e-13, 1e-12 * stack.max(axis=0))
    fits = _fit_columns(stack, floors)
    assert len(fits) == len(kinds)
    for j, fit in enumerate(fits):
        assert_fit_close(fit, lstsq_fit_decay(stack[:, j], floors[j]))


def test_fit_decay_on_an_inf_sample_is_a_nan_fit_as_with_lstsq():
    series = np.array([1.0, 0.5, np.inf, 0.1])
    # the lstsq oracle has no rule for non-finite samples: the fit keeps none
    assert_fit_close(fit_decay(series), DecayFit(math.nan, math.nan, math.nan, 0, False))
    assert math.isnan(fit_decay(series).rate)


def sparse_scenario(mode: str, n: int = 150, horizon: int = 200) -> Scenario:
    rng = np.random.default_rng(8)
    return Scenario(
        name=f"sparse-{mode}",
        leader=LeaderModel(S=np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)),
                           v0=np.array([0.5, -1.0, 0.2, 0.1])),
        topology=sparse_topology(n, n_modes=3, seed=9),
        followers=tuple(FollowerSpec(double_integrator(), rng.normal(size=4))
                        for _ in range(n)),
        observer_mode=mode,
        eta0=tuple(rng.normal(size=4) for _ in range(n)),
        horizon=horizon,
    )


ANALYZED = [(name, mode, None) for name in sorted(BUILTINS)
            for mode in ("distributed", "adaptive")]
ANALYZED += [("formation-sec5", "adaptive", 0), ("single-follower", "distributed", 1)]


@pytest.mark.parametrize("name, mode, horizon", ANALYZED)
def test_analyze_verdicts_match_the_per_series_fit(name, mode, horizon):
    scenario = dataclasses.replace(build_builtin(name), observer_mode=mode)
    log = run(scenario if horizon is None else dataclasses.replace(scenario, horizon=horizon))
    got = analyze(log).series
    want = per_series_analyze(log)
    assert [s.name for s in got] == [w[0] for w in want]
    for s, (_, final, fit, converged, note) in zip(got, want):
        assert (s.final, s.converged, s.note) == (final, converged, note)
        assert_fit_close(s.fit, fit)


@pytest.mark.parametrize("mode", ["distributed", "adaptive"])
def test_analyze_verdicts_match_the_per_series_fit_on_a_sparse_swarm(mode):
    scenario = sparse_scenario(mode)
    log = run(scenario)
    got = analyze(log, scenario.thresholds).series
    want = per_series_analyze(log, scenario.thresholds)
    assert len(got) == len(want) == 150 + (2 if mode == "adaptive" else 1)
    for s, (name, final, fit, converged, note) in zip(got, want):
        assert (s.name, s.final, s.converged, s.note) == (name, final, converged, note)
        assert_fit_close(s.fit, fit)


def test_non_finite_columns_leave_the_other_fits_bit_identical():
    log = run(formation_scenario(horizon=120, observer_mode="adaptive"))
    s_tilde, e_norms = log.s_tilde_norm.copy(), log.e_norms.copy()
    s_tilde[40] = np.nan
    e_norms[-1, 2] = np.inf
    clean = analyze(log)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(dataclasses.replace(log, s_tilde_norm=s_tilde, e_norms=e_norms))
    assert [s.name for s in report.series] == [s.name for s in clean.series]
    for got, want in zip(report.series, clean.series):
        if got.name in ("s_tilde_norm", "e_norm_3"):
            assert (got.converged, got.note, got.fit.n_samples) == (False, "non-finite values", 0)
            assert math.isnan(got.fit.rate)
        else:
            assert got == want


def test_analyze_fits_every_series_in_one_call(monkeypatch):
    log = run(formation_scenario(horizon=80, observer_mode="adaptive"))
    calls = []
    batched = coopreg.simkit._fit_columns
    monkeypatch.setattr(coopreg.simkit, "_fit_columns",
                        lambda *args: (calls.append(args), batched(*args))[1])
    monkeypatch.setattr(np.linalg, "lstsq", None)
    report = analyze(log)
    assert len(calls) == 1 and calls[0][0].shape == (81, len(report.series))
