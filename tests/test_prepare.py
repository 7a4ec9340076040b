"""One prepare pass per scenario: shared solves, per-follower checks, builders."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

import coopreg.simkit as simkit
from coopreg.cli import main
from coopreg.config import load_config, save_config, scenario_to_config
from coopreg.observers import LeaderModel
from coopreg.regulation import PlantModel, RegulatorUnsolvableError
from coopreg.scenarios import build_builtin, formation_scenario
from coopreg.simkit import (
    AssumptionChecks,
    FollowerSpec,
    GainDirective,
    Scenario,
    prepare,
    run,
    synthesize_gains,
    validate_scenario,
)
from coopreg.topology import SwitchingSignal, SwitchingTopology, WeightedDigraph


@pytest.fixture
def solve_counts(monkeypatch):
    """Count the regulator and gain solves made through coopreg.simkit."""
    counts = {"solve_regulator_equations": 0, "synthesize_stabilizing_gain": 0}
    for name in counts:
        original = getattr(simkit, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(simkit, name, counted)
    return counts


def double_integrator(h):
    c = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return PlantModel(
        A=np.kron(np.array([[1.0, h], [0.0, 1.0]]), np.eye(2)),
        B=np.kron(np.array([[h * h / 2.0], [h]]), np.eye(2)),
        C=c, D=np.zeros((2, 2)), E=np.zeros((4, 4)), F=-c,
    )


def star_scenario(plants):
    """Riccati-gain followers that all hear the planar leader directly."""
    n = len(plants)
    base = formation_scenario()
    return Scenario(
        name="star",
        leader=base.leader,
        topology=SwitchingTopology(
            graphs=(WeightedDigraph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)]),),
            signal=SwitchingSignal.periodic([(1, 1)]),
        ),
        followers=tuple(
            FollowerSpec(plant=p, x0=np.full(4, float(k)), gain=GainDirective())
            for k, p in enumerate(plants)
        ),
        horizon=40,
        checks=AssumptionChecks(connectivity_window=0),
    )


def test_cli_run_solves_the_shared_plant_once(tmp_path, solve_counts):
    assert main(["run", "--builtin", "formation-sec5", "--out", str(tmp_path)]) == 0
    assert solve_counts == {"solve_regulator_equations": 1, "synthesize_stabilizing_gain": 1}


def test_config_loaded_classes_are_solved_once_each(tmp_path, solve_counts):
    # load_config builds a separate PlantModel per follower: equal by value only
    path = tmp_path / "two_classes.json"
    save_config(star_scenario([double_integrator(h) for h in (1.0, 0.5) * 3]), path)
    scenario = load_config(path)
    assert len({id(f.plant) for f in scenario.followers}) == 6
    results = validate_scenario(scenario)
    assert all(r.passed for r in results), results
    assert solve_counts == {"solve_regulator_equations": 2, "synthesize_stabilizing_gain": 2}


def test_prepare_gains_match_synthesize_gains():
    scenario = star_scenario([double_integrator(h) for h in (1.0, 0.5, 1.0)])
    prep = prepare(scenario)
    assert prep.checks and all(prep.checks)
    for a, b in zip(prep.gains, synthesize_gains(scenario)):
        assert np.array_equal(a.K_x, b.K_x) and np.array_equal(a.K_v, b.K_v)
    log_a, log_b = run(scenario, prep.gains), run(scenario)
    assert all(np.array_equal(x, y) for x, y in zip(log_a.x, log_b.x))


def test_shared_failed_solve_names_each_follower(solve_counts):
    stuck = PlantModel(
        A=2.0 * np.eye(4), B=np.zeros((4, 2)), C=np.eye(2, 4),
        D=np.zeros((2, 2)), E=np.zeros((4, 4)), F=-np.eye(2, 4),
    )
    scenario = star_scenario([double_integrator(1.0), stuck, stuck])
    prep = prepare(scenario)
    assert prep.gains is None
    by_name = {c.name: c for c in prep.checks}
    assert by_name["stabilizable_follower_1"].passed
    for k in (2, 3):
        check = by_name[f"stabilizable_follower_{k}"]
        assert not check.passed
        assert check.detail.startswith(f"follower {k}: ")
    assert solve_counts["synthesize_stabilizing_gain"] == 2
    with pytest.raises(RegulatorUnsolvableError):  # checked before the gain
        run(scenario)


def test_force_past_failed_synthesis_reports_it(tmp_path, capsys):
    doc = scenario_to_config(formation_scenario(horizon=10))
    doc["followers"][1]["B"] = np.zeros((4, 2)).tolist()
    doc["gains"][1] = {"method": "riccati"}
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--force", "--out", str(tmp_path / "out")]) == 1
    assert "synthesis failed: follower 2: " in capsys.readouterr().out


def test_validate_reports_a_non_finite_leader():
    base = formation_scenario(horizon=10)
    S = base.leader.S.copy()
    S[0, 1] = np.inf
    scenario = Scenario(
        name="inf", leader=LeaderModel(S=S, v0=base.leader.v0),
        topology=base.topology, followers=base.followers, checks=base.checks,
    )
    results = validate_scenario(scenario)
    spectral = next(r for r in results if r.name == "leader_spectral_radius")
    assert not spectral.passed
    assert not all(results)


def test_non_finite_leader_fails_the_regulator_check_without_a_warning():
    base = formation_scenario(horizon=10)
    S = base.leader.S.copy()
    S[0, 1] = np.inf
    scenario = dataclasses.replace(base, leader=LeaderModel(S=S, v0=base.leader.v0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = validate_scenario(scenario)
    regulator = [r for r in results if r.name.startswith("regulator_solvable_follower_")]
    assert len(regulator) == scenario.n_followers
    assert not any(regulator)
    assert all("finite" in r.detail for r in regulator)


# default-fig2 as its own builder wrote it: the formation start positions
# with zero offsets, then (seed 3) the same velocity and estimate draws
FIG2_X0 = {
    None: [[15.0, 3.0, 0.0, 0.0], [-10.0, 19.0, 0.0, 0.0],
           [1.0, 40.0, 0.0, 0.0], [30.0, -2.0, 0.0, 0.0]],
    3: [[15.0, 3.0, 2.0409191213851825, -2.5556650313141818],
        [-10.0, 19.0, 0.41809884672577885, -0.5677696061279298],
        [1.0, 40.0, -0.45264929211044586, -0.2155971630897659],
        [30.0, -2.0, -2.019986129147251, -0.23193237764418947]],
}
FIG2_ETA0 = {
    None: None,
    3: [[-0.8652130762749417, 3.3229995166448827, 0.22578661322792176, -0.3526307943415954],
        [-0.2812874181513504, -0.6680463461089501, -1.0551505512051214, -0.39080097723465473],
        [0.48194538850678587, -0.2385536065733667, 0.9577587029597641, -0.19980212906658],
        [0.024259565076664623, 1.545820851212812, 0.5451055226876446, -0.505228735614018]],
}


@pytest.mark.parametrize("seed", [None, 3])
def test_default_fig2_document_unchanged(seed):
    doc = scenario_to_config(build_builtin("default-fig2", seed=seed))
    formation = scenario_to_config(build_builtin("formation-sec5", seed=seed))
    assert doc.pop("name") == "default-fig2"
    assert [f.pop("x0") for f in doc["followers"]] == FIG2_X0[seed]
    assert doc["observer"].pop("eta0", None) == FIG2_ETA0[seed]
    formation.pop("name")
    for f in formation["followers"]:
        f.pop("x0")
    formation["observer"].pop("eta0", None)
    assert doc == formation
