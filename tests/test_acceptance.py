"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or on failure).

Criteria cover the bundled formation benchmark, the randomized observer
convergence families, the switched-product oracles, the regulator-equation
certificates, and the determinism/round-trip contracts, each at its stated
tolerance.
"""

import functools
import io
import json
import time

import numpy as np
import pytest

from coopreg.cli import main
from coopreg.config import config_to_scenario, scenario_to_config
from coopreg.observers import (
    LeaderModel,
    ObserverBank,
    fit_decay,
    kron_factorization_check,
    spectral_radius,
)
from coopreg.properties import (
    random_leader,
    random_topology,
    run_suite,
    simulate_observer_norms,
)
from coopreg.regulation import (
    PlantModel,
    RegulatorUnsolvableError,
    solve_regulator_equations,
    synthesize_stabilizing_gain,
)
from coopreg.scenarios import (
    FORMATION_OFFSETS,
    FORMATION_SEGMENTS,
    FORMATION_START_POSITIONS,
    formation_scenario,
)
from coopreg.simkit import run, synthesize_gains, write_trajectory_csv
from coopreg.topology import (
    SwitchingSignal,
    SwitchingTopology,
    WeightedDigraph,
    is_jointly_connected,
    transition_product,
)


def disconnected_topology() -> SwitchingTopology:
    """A two-mode schedule over four followers in which follower 3 never has
    an in-edge."""
    return SwitchingTopology(
        graphs=(
            WeightedDigraph.from_edges(5, [(0, 1), (0, 2), (0, 4)]),
            WeightedDigraph.from_edges(5, [(1, 2), (1, 4)]),
        ),
        signal=SwitchingSignal.periodic([(1, 1), (2, 1)]),
    )


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({title}): PASS")

        return wrapper

    return deco


@criterion(1, "formation benchmark reproduction")
def test_formation_benchmark():
    scenario = formation_scenario(horizon=300)
    # pin the benchmark data the bundled scenario must carry
    assert np.array_equal(
        scenario.leader.S, np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    )
    assert np.array_equal(scenario.leader.v0, [0.0, 0.0, 1.0, 1.0])
    assert FORMATION_SEGMENTS == ((1, 2), (2, 2), (3, 2), (4, 2))
    assert scenario.topology.signal.period == 8
    assert scenario.topology.signal.dwell == 2
    assert scenario.topology.n_modes == 4
    assert FORMATION_OFFSETS == ((-10.0, 0.0), (0.0, -10.0), (-20.0, 0.0), (0.0, -20.0))
    assert FORMATION_START_POSITIONS == ((15.0, 3.0), (-10.0, 19.0), (1.0, 40.0), (30.0, -2.0))
    k_expected = np.kron(np.array([[-0.7, -1.9]]), np.eye(2))
    for f in scenario.followers:
        assert np.array_equal(f.gain.K_x, k_expected)

    started = time.perf_counter()
    log = run(scenario)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"run took {elapsed:.3f} s"

    assert np.all(log.e_norms[-1] < 1e-6)
    for i in range(4):
        # relative position locks to the offset, relative velocity to zero
        assert np.max(np.abs(log.x[i][-1, :2] - log.v[-1, :2])) < 1e-6
        assert np.max(np.abs(log.x[i][-1, 2:] - log.v[-1, 2:])) < 1e-6


@criterion(2, "distributed observer convergence family")
def test_distributed_observer_family():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        assert 2 <= topo.n_followers <= 6
        window = topo.signal.period - 1
        assert is_jointly_connected(topo, window)
        leader = random_leader(rng)
        assert 2 <= leader.q <= 4
        assert leader.rho <= 1.0 + 1e-12
        bank = ObserverBank(eta=rng.normal(size=(topo.n_followers, leader.q)))
        norms = simulate_observer_norms(topo, leader, bank, 500)["eta_tilde"]
        fit = fit_decay(norms)
        assert norms[-1] < 1e-8, f"seed {seed}: final {norms[-1]:.2e}"
        assert fit.floored or fit.rate < 1.0, f"seed {seed}: rate {fit.rate}"
        assert fit.floored or fit.residual < 0.1, f"seed {seed}: residual {fit.residual}"


@criterion(3, "adaptive observer convergence family")
def test_adaptive_observer_family():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        leader = random_leader(rng)
        bank = ObserverBank(
            eta=rng.normal(size=(topo.n_followers, leader.q)),
            s_est=np.zeros((topo.n_followers, leader.q, leader.q)),
        )
        norms = simulate_observer_norms(topo, leader, bank, 500)
        for key in ("s_tilde", "eta_tilde"):
            fit = fit_decay(norms[key])
            assert norms[key][-1] < 1e-8, f"seed {seed}: {key} final {norms[key][-1]:.2e}"
            assert fit.floored or fit.rate < 1.0

    # the matrix half needs no leader stability: rho(S) = 1.2 with the
    # leader state pinned at zero so the state half stays finite
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        topo = random_topology(rng)
        q = int(rng.integers(2, 5))
        m = rng.normal(size=(q, q))
        leader = LeaderModel(S=m * (1.2 / spectral_radius(m)), v0=np.zeros(q))
        assert leader.rho == pytest.approx(1.2)
        bank = ObserverBank(eta=np.zeros((topo.n_followers, q)),
                            s_est=np.zeros((topo.n_followers, q, q)))
        norms = simulate_observer_norms(topo, leader, bank, 500)
        assert norms["s_tilde"][-1] < 1e-8, f"seed {seed}: {norms['s_tilde'][-1]:.2e}"


@criterion(4, "follower-block product decay oracle")
def test_follower_block_product_decay():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        norms = np.array(
            [np.linalg.norm(transition_product(topo, 0, k), 2) for k in range(241)]
        )
        fit = fit_decay(norms)
        assert fit.floored or fit.rate < 1.0, f"seed {seed}: rate {fit.rate}"

    # non-decay witness: follower 3 never receives an edge
    topo = disconnected_topology()
    assert not is_jointly_connected(topo, 25, horizon=60)
    norms = np.array(
        [np.linalg.norm(transition_product(topo, 0, k), 2) for k in range(241)]
    )
    fit = fit_decay(norms)
    assert fit.rate >= 1.0 - 1e-6, f"witness rate {fit.rate}"


@criterion(5, "Kronecker factorization oracle")
def test_kron_factorization_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        leader = random_leader(rng)
        dev = kron_factorization_check(topo, leader, 40)
        assert dev < 1e-9, f"seed {seed}: deviation {dev:.2e}"


@criterion(6, "bank vs compact error-form equivalence")
def test_error_form_equivalence():
    results = run_suite("equivalence", trials=100, seed=0)
    bad = [r for r in results if not r.passed]
    assert not bad, f"{len(bad)} of 100 instances exceeded 1e-10: {bad[:3]}"


@criterion(7, "regulator equation certificates")
def test_regulator_certificates():
    # bundled plant: identity steady state, zero feedforward input
    scenario = formation_scenario()
    plant = scenario.followers[0].plant
    sol = solve_regulator_equations(plant, scenario.leader.S, tol=1e-12)
    assert np.abs(sol.X - np.eye(4)).max() < 1e-12
    assert np.abs(sol.U).max() < 1e-12
    assert sol.residual < 1e-12

    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, m, p, q = (int(rng.integers(2, 5)), int(rng.integers(1, 4)),
                      int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
        C, D = rng.normal(size=(p, n)), rng.normal(size=(p, m))
        S = rng.normal(size=(q, q))
        X, U = rng.normal(size=(n, q)), rng.normal(size=(m, q))
        plant = PlantModel(A=A, B=B, C=C, D=D,
                           E=X @ S - A @ X - B @ U, F=-(C @ X + D @ U))
        sol = solve_regulator_equations(plant, S, tol=1e-9)
        assert sol.residual < 1e-9, f"seed {seed}: residual {sol.residual:.2e}"

    unsolvable = PlantModel(
        A=np.eye(2), B=np.eye(2), C=np.zeros((1, 2)),
        D=np.zeros((1, 2)), E=np.zeros((2, 2)), F=np.ones((1, 2)),
    )
    with pytest.raises(RegulatorUnsolvableError):
        solve_regulator_equations(unsolvable, np.eye(2))


@criterion(8, "closed-loop gain certification")
def test_gain_certification():
    scenario = formation_scenario()
    gains = synthesize_gains(scenario)
    for g in gains:
        assert abs(g.closed_loop_radius - 0.5) < 1e-9

    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        A = rng.normal(size=(n, n)) * 1.5
        B = rng.normal(size=(n, m))
        _, radius = synthesize_stabilizing_gain(A, B)
        assert radius < 1.0, f"seed {seed}: radius {radius}"


@criterion(9, "determinism and config round-trip")
def test_determinism_and_round_trip(tmp_path):
    for name in ("first", "second"):
        code = main(
            ["run", "--builtin", "formation-sec5", "--seed", "123",
             "--horizon", "120", "--out", str(tmp_path / name)]
        )
        assert code == 0
    a = (tmp_path / "first" / "trajectory.csv").read_bytes()
    b = (tmp_path / "second" / "trajectory.csv").read_bytes()
    assert a == b

    buf1, buf2 = io.StringIO(), io.StringIO()
    write_trajectory_csv(run(formation_scenario(horizon=60, seed=9)), buf1)
    write_trajectory_csv(run(formation_scenario(horizon=60, seed=9)), buf2)
    assert buf1.getvalue() == buf2.getvalue()

    scenario = formation_scenario(horizon=300, seed=5)
    doc = scenario_to_config(scenario)
    reloaded = config_to_scenario(json.loads(json.dumps(doc)), name=scenario.name)
    assert scenario_to_config(reloaded) == doc
