"""Non-finite values never pass as converged; CLI flags that would be ignored are refused."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopreg.cli import main
from coopreg.config import ConfigError, load_config, save_config, scenario_to_config
from coopreg.observers import LeaderModel, observer_step
from coopreg.regulation import PlantModel, control_input, plant_step
from coopreg.scenarios import build_builtin, formation_scenario
from coopreg.simkit import (
    FollowerSpec,
    GainDirective,
    OverflowAbort,
    Scenario,
    analyze,
    run,
    synthesize_gains,
    validate_scenario,
)
from coopreg.topology import DimensionError, SwitchingSignal, SwitchingTopology, WeightedDigraph

NON_FINITE = (math.nan, math.inf, -math.inf)


def test_nan_initial_state_aborts_at_step_zero():
    base = dataclasses.replace(formation_scenario(), horizon=20)
    f = base.followers[0]
    x0 = f.x0.copy()
    x0[0] = math.nan
    scenario = dataclasses.replace(
        base, followers=(FollowerSpec(plant=f.plant, x0=x0, gain=f.gain),) + base.followers[1:]
    )
    with pytest.raises(OverflowAbort) as exc_info:
        run(scenario)
    assert exc_info.value.t == 0
    assert "time step 0" in str(exc_info.value)


def test_abort_names_follower_and_series():
    base = dataclasses.replace(formation_scenario(), horizon=20)
    f = base.followers[2]
    x0 = f.x0.copy()
    x0[1] = math.nan
    followers = list(base.followers)
    followers[2] = FollowerSpec(plant=f.plant, x0=x0, gain=f.gain)
    with pytest.raises(OverflowAbort) as exc_info:
        run(dataclasses.replace(base, followers=tuple(followers)))
    exc = exc_info.value
    assert (exc.t, exc.follower, exc.series) == (0, 3, "x")
    assert math.isnan(exc.magnitude)
    assert "x of follower 3" in str(exc) and "time step 0" in str(exc)


@pytest.mark.parametrize("series", ["eta", "s_est"])
def test_abort_names_observer_series(series):
    base = dataclasses.replace(formation_scenario(), horizon=20, observer_mode="adaptive")
    q = base.leader.q
    eta0 = [np.zeros(q) for _ in base.followers]
    s0 = [np.zeros((q, q)) for _ in base.followers]
    if series == "eta":
        eta0[1][2] = -math.inf
    else:
        s0[3][0, 1] = 2e12
    with pytest.raises(OverflowAbort) as exc_info:
        run(dataclasses.replace(base, eta0=tuple(eta0), s0=tuple(s0)))
    exc = exc_info.value
    want = 2 if series == "eta" else 4
    assert (exc.t, exc.follower, exc.series) == (0, want, series)
    assert f"{series} of follower {want}" in str(exc)


def test_abort_names_the_leader():
    base = dataclasses.replace(formation_scenario(), horizon=20)
    leader = dataclasses.replace(base.leader, v0=np.array([0.0, 1e13, 0.0, 0.0]))
    with pytest.raises(OverflowAbort) as exc_info:
        run(dataclasses.replace(base, leader=leader))
    exc = exc_info.value
    assert (exc.t, exc.follower, exc.series, exc.magnitude) == (0, None, "v", 1e13)
    assert "v of the leader" in str(exc)


def reference_abort(scenario: Scenario) -> OverflowAbort | None:
    """The abort a per-step guard calls for: the closed loop one follower at
    a time, from the public step functions, with every step's states scanned
    before the next step, in the order v, eta, s_est, x and by follower
    within each series."""
    leader, gains = scenario.leader, synthesize_gains(scenario)
    bank, v, x = scenario.initial_bank(), leader.v0, [f.x0 for f in scenario.followers]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(scenario.horizon + 1):
            rows = [("v", None, v)] + [("eta", k, e) for k, e in enumerate(bank.eta, 1)]
            if bank.s_est is not None:
                rows += [("s_est", k, s) for k, s in enumerate(bank.s_est, 1)]
            rows += [("x", k, x_k) for k, x_k in enumerate(x, 1)]
            bad = [(series, k) for series, k, r in rows if not np.abs(r).max() <= 1e12]
            if bad:
                magnitude = float(np.max([np.abs(r).max() for _, _, r in rows]))
                return OverflowAbort(t, magnitude, *bad[0])
            x = [plant_step(f.plant, x_k, control_input(g, x_k, e), v)[0]
                 for f, g, x_k, e in zip(scenario.followers, gains, x, bank.eta)]
            bank = observer_step(leader, v, bank, scenario.topology.adjacency_at(t))
            v = leader.advance(v)
    return None


def huge_coupling_scenario() -> Scenario:
    """Formation follower 2 swapped for an identity plant whose leader
    coupling E = 1e13 I lifts x past the guard at step 1 while the leader
    stays finite.  X = I solves its regulator equations for any E, and the
    default tol certifies the pair relative to the size of E."""
    base = dataclasses.replace(formation_scenario(), horizon=30)
    plant = PlantModel(A=np.eye(4), B=np.eye(4), C=np.eye(4), D=np.zeros((4, 4)),
                       E=1e13 * np.eye(4), F=-np.eye(4))
    follower = FollowerSpec(plant, np.zeros(4), GainDirective(K_x=-0.5 * np.eye(4)))
    return dataclasses.replace(base, followers=(base.followers[0], follower) + base.followers[2:])


def nan_eta0_scenario() -> Scenario:
    base = dataclasses.replace(formation_scenario(), horizon=30)
    eta0 = [np.zeros(4) for _ in base.followers]
    eta0[2][1] = math.nan
    return dataclasses.replace(base, eta0=tuple(eta0))


def nan_s0_scenario() -> Scenario:
    base = dataclasses.replace(formation_scenario(), horizon=30, observer_mode="adaptive")
    s0 = [np.zeros((4, 4)) for _ in base.followers]
    s0[3][2, 2] = math.nan
    return dataclasses.replace(base, s0=tuple(s0))


def growing_leader_scenario(scale: float) -> Scenario:
    """An adaptive formation whose leader S = scale I grows past the guard
    mid-run; at scale 10 it overflows to inf and NaN before the horizon."""
    base = dataclasses.replace(formation_scenario(), horizon=400, observer_mode="adaptive")
    return dataclasses.replace(base, leader=LeaderModel(S=scale * np.eye(4), v0=np.ones(4)))


@pytest.mark.parametrize("build, want", [
    (huge_coupling_scenario, (1, "x", 2)),
    (nan_eta0_scenario, (0, "eta", 3)),
    (nan_s0_scenario, (0, "s_est", 4)),
    (lambda: growing_leader_scenario(1.5), (69, "v", None)),
    (lambda: growing_leader_scenario(10.0), (12, "x", 1)),
])
def test_abort_matches_a_per_step_scan_of_the_reference_loop(build, want):
    scenario = build()
    expected = reference_abort(scenario)
    # the run simulates to its horizon first; no RuntimeWarning may escape it
    with pytest.raises(OverflowAbort) as exc_info:
        run(scenario)
    exc = exc_info.value
    assert (exc.t, exc.series, exc.follower) == want
    assert (exc.t, exc.series, exc.follower) == (expected.t, expected.series, expected.follower)
    assert str(exc) == str(expected)
    assert exc.magnitude == expected.magnitude or (math.isnan(exc.magnitude)
                                                   and math.isnan(expected.magnitude))


def leader_at_the_limit(entry: float) -> Scenario:
    """Formation-sec5 with its leader at rest at 1e12 in one component and
    follower 2's estimate of that component at ``entry``: the estimate
    error is at most one ulp, so the error norms alone cannot tell an
    entry past the limit from one at it."""
    base = dataclasses.replace(formation_scenario(), horizon=10)
    v0 = np.array([1e12, 0.0, 0.0, 0.0])
    eta0 = [v0.copy() for _ in base.followers]
    eta0[1][0] = entry
    return dataclasses.replace(base, leader=dataclasses.replace(base.leader, v0=v0),
                               eta0=tuple(eta0))


def errors_past_the_limit(mode: str) -> Scenario:
    """Every estimate entry at 4e11 (S_i entries at 2e11), all in range,
    against a leader at rest at 0: the error norms at step 0, 1.6e12 for eta
    and 3.2e12 for S_i, lie past the limit that no entry reaches."""
    base = dataclasses.replace(formation_scenario(), horizon=10, observer_mode=mode)
    leader = dataclasses.replace(base.leader, v0=np.zeros(4))
    eta0 = tuple(np.full(4, 4e11) for _ in base.followers)
    s0 = tuple(np.full((4, 4), 2e11) for _ in base.followers) if mode == "adaptive" else None
    return dataclasses.replace(base, leader=leader, eta0=eta0, s0=s0)


@pytest.mark.parametrize("build, want", [
    (lambda: leader_at_the_limit(np.nextafter(1e12, np.inf)), (0, "eta", 2)),
    (lambda: leader_at_the_limit(1e12), None),
    (lambda: errors_past_the_limit("distributed"), (1, "x", 1)),
    (lambda: errors_past_the_limit("adaptive"), (1, "eta", 1)),
], ids=["entry-past-the-limit", "entry-at-the-limit", "norm-past-the-limit-distributed",
        "norm-past-the-limit-adaptive"])
def test_the_overflow_scan_reads_entries_not_error_norms(build, want):
    scenario = build()
    expected = reference_abort(scenario)
    if want is None:
        assert expected is None
        run(scenario)
        return
    with pytest.raises(OverflowAbort) as exc_info:
        run(scenario)
    exc = exc_info.value
    assert (exc.t, exc.series, exc.follower) == want
    assert (exc.t, exc.series, exc.follower) == (expected.t, expected.series, expected.follower)
    # x is computed in another order than the reference loop's, eta and S_i are not
    assert exc.magnitude == pytest.approx(expected.magnitude, rel=1e-15)
    assert str(exc) == str(expected)


@pytest.mark.parametrize("key", ["Q", "R"])
@pytest.mark.parametrize("fill", [1.0, math.nan])
def test_a_user_gain_refuses_the_riccati_weights(key, fill):
    # a user K_x ignores Q and R: an unused Q split formation-sec5's one
    # plant class in two, and an all-NaN one passed every check
    base = build_builtin("formation-sec5")
    assert base._classes == ((0, 1, 2, 3),)
    gain = base.followers[0].gain
    with pytest.raises(ValueError, match="Q and R only apply to the riccati method"):
        dataclasses.replace(gain, **{key: np.full((4, 4) if key == "Q" else (2, 2), fill)})


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_series_is_not_converged(bad):
    log = run(formation_scenario())
    assert analyze(log).converged
    e_norms = log.e_norms.copy()
    e_norms[-1, 0] = bad
    report = analyze(dataclasses.replace(log, e_norms=e_norms))
    assert not report.converged
    assert not report.series[1].converged  # e_norm_1 follows eta_tilde_norm


def numeric_leaves(doc, path=""):
    """(path, container, key) of every number, paths spelled as load_config names them."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        sub = f"{path}.{key}" if isinstance(doc, dict) else f"{path}[{key}]"
        sub = sub.lstrip(".")
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, sub)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield sub, doc, key


FORMATION_DOC = scenario_to_config(
    dataclasses.replace(formation_scenario(seed=1), observer_mode="adaptive"))
# signal segments are integer (mode, length) pairs, reported as "signal: ..."
LEAVES = [p for p, _, _ in numeric_leaves(FORMATION_DOC) if not p.startswith("signal.")]


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(LEAVES), bad=st.sampled_from(NON_FINITE))
def test_any_non_finite_config_entry_is_named(path, bad):
    doc = json.loads(json.dumps(FORMATION_DOC))
    _, container, key = next(leaf for leaf in numeric_leaves(doc) if leaf[0] == path)
    container[key] = bad
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError) as exc_info:
            load_config(cfg)
    assert path in str(exc_info.value)


# the extremes a memoizing number decoder could fold together or round
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False,
                                                                 allow_infinity=False),
                        min_size=8, max_size=8),
       bad=st.tuples(st.integers(0, 1), st.integers(0, 3)))
def test_finite_matrix_entries_round_trip_bitwise(entries, bad):
    k_x = np.array(entries).reshape(2, 4)
    base = dataclasses.replace(formation_scenario(), horizon=10)
    first = base.followers[0]
    scenario = dataclasses.replace(base, followers=(
        FollowerSpec(first.plant, first.x0, GainDirective(K_x=k_x)), *base.followers[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        save_config(scenario, cfg)
        loaded = load_config(cfg).followers[0].gain.K_x
        assert loaded.tobytes() == k_x.tobytes()
        # 1E400 reads as inf, which is refused with its key path
        doc = scenario_to_config(scenario)
        doc["gains"][0]["K_x"][bad[0]][bad[1]] = "BAD"
        cfg.write_text(json.dumps(doc).replace('"BAD"', "1E400"), encoding="utf-8")
        with pytest.raises(ConfigError) as exc_info:
            load_config(cfg)
    assert str(exc_info.value) == (
        f"gains[0].K_x[{bad[0]}][{bad[1]}]: expected a finite number, got inf")


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), key=st.sampled_from(["K_x", "Q", "R"]),
       shape=st.lists(st.integers(1, 3), max_size=3), b=st.floats(-2.0, 2.0),
       value=st.floats(-2.0, 2.0))
def test_gain_shapes_are_checked_when_the_follower_is_built(n, m, key, shape, b, value):
    # a stable plant, so that a gain of the right shape reaches every solve
    plant = PlantModel(A=0.5 * np.eye(n), B=np.full((n, m), b), C=np.eye(1, n),
                       D=np.zeros((1, m)), E=np.zeros((n, 1)), F=-np.eye(1))
    # Q and R stay nonnegative, so the Riccati recursion ends within a few steps
    matrix = np.full(shape, value if key == "K_x" else abs(value))
    gain = GainDirective(**{key: matrix})
    expected = {"K_x": (m, n), "Q": (n, n), "R": (m, m)}[key]
    if np.atleast_2d(matrix).shape != expected:
        with pytest.raises(DimensionError, match=f"gain {key} has shape"):
            FollowerSpec(plant, np.ones(n), gain)
        return
    scenario = Scenario(
        name="one", leader=LeaderModel(S=np.eye(1), v0=np.ones(1)),
        topology=SwitchingTopology(graphs=(WeightedDigraph.from_edges(2, [(0, 1)]),),
                                   signal=SwitchingSignal.periodic([(1, 1)])),
        followers=(FollowerSpec(plant, np.ones(n), gain),), horizon=3,
    )
    results = validate_scenario(scenario)
    assert [r.name for r in results] == ["jointly_connected", "leader_spectral_radius",
                                         "stabilizable_follower_1", "regulator_solvable_follower_1"]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_misshaped_user_gain_in_a_config_exits_2(command, tmp_path, capsys):
    # with a stable plant this K_x passed the gain check, then raised in build_controller
    doc = scenario_to_config(build_builtin("single-follower"))
    doc["followers"][0]["A"] = (0.5 * np.eye(2)).tolist()
    doc["gains"][0] = {"method": "user", "K_x": [[0.0], [0.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(path), *out]) == 2
    assert "followers[0]: gain K_x has shape (2, 1), expected (2, 2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_signal_segment_rejected(tmp_path):
    doc = scenario_to_config(dataclasses.replace(formation_scenario(), horizon=10))
    doc["signal"]["segments"][0][1] = math.inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="signal"):
        load_config(path)


def test_cli_run_rejects_nan_config(tmp_path, capsys):
    doc = scenario_to_config(dataclasses.replace(formation_scenario(), horizon=10))
    doc["followers"][0]["x0"][0] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "followers[0].x0[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_refused(command, tol, tmp_path, capsys):
    argv = [command, "--builtin", "formation-sec5", "--tol", tol]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"regulator_tol must be finite, got {tol}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_tol_is_refused(command, tmp_path, capsys):
    argv = [command, "--builtin", "formation-sec5", "--tol", "-1"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "regulator_tol must be >= 0, got -1.0" in err and "unsolvable" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_tol_in_a_config_is_refused(command, tmp_path, capsys):
    path = tmp_path / "formation.json"
    save_config(dataclasses.replace(formation_scenario(), horizon=10), path)
    doc = json.loads(path.read_text())
    doc["run"]["regulator_tol"] = -1.0
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "regulator_tol must be >= 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "-3", "horizon must be >= 0, got -3"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_negative_run_flag_exits_2(flag, value, message, tmp_path, capsys):
    argv = ["run", "--builtin", "formation-sec5", flag, value, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_horizon_over_a_config_exits_2(tmp_path, capsys):
    path = tmp_path / "formation.json"
    save_config(dataclasses.replace(formation_scenario(), horizon=10), path)
    assert main(["run", str(path), "--horizon", "-3", "--out", str(tmp_path / "out")]) == 2
    assert "horizon must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_negative_props_flag_exits_2(flag, capsys):
    assert main(["props", "lemma2", flag, "-2"]) == 2
    out = capsys.readouterr().out
    assert "must be >= 0" in out and "trials passed" not in out


def test_seed_with_config_path_is_refused(tmp_path, capsys):
    path = tmp_path / "formation.json"
    save_config(dataclasses.replace(formation_scenario(), horizon=10), path)
    assert main(["run", str(path), "--seed", "1", "--out", str(tmp_path / "out")]) == 2
    assert "--seed applies only to --builtin" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key", ["eta0", "s0"])
def test_observer_initial_values_must_be_a_list(command, key, tmp_path, capsys):
    doc = scenario_to_config(
        dataclasses.replace(formation_scenario(), horizon=10, observer_mode="adaptive"))
    doc["observer"][key] = 5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"observer.{key}: expected a list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (where in a formation-sec5 config, new value, key path the error must name);
# each value used to be coerced by int()/bool() or dropped without a word
STRICT_CASES = {
    "fractional_segment_length": (("signal", "segments", 0, 1), 2.7, "signal.segments[0][1]"),
    "string_segment_mode": (("signal", "segments", 0, 0), "1", "signal.segments[0][0]"),
    "boolean_segment_mode": (("signal", "segments", 0, 0), True, "signal.segments[0][0]"),
    "fractional_period": (("signal", "period"), 8.0, "signal.period"),
    "fractional_table_mode": (
        ("signal",), {"table": [1, 1.9], "tail_mode": 1}, "signal.table[1]"),
    "string_check_flag": (
        ("run", "checks", "connectivity"), "false", "run.checks.connectivity"),
    "integer_check_flag": (
        ("run", "checks", "leader_spectral"), 0, "run.checks.leader_spectral"),
    "riccati_gain_with_K_x": (
        ("gains", 0), {"method": "riccati", "K_x": [[0.0, 0.0]]}, "gains[0].K_x"),
    "user_gain_with_Q": (
        ("gains", 0), {"method": "user", "K_x": [[0.0, 0.0]], "Q": [[1.0]]}, "gains[0].Q"),
    "user_gain_with_R": (
        ("gains", 0), {"method": "user", "K_x": [[0.0, 0.0]], "R": [[1.0]]}, "gains[0].R"),
}


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_config_values_are_not_coerced_or_dropped(case, tmp_path, capsys):
    (*parents, last), value, key = STRICT_CASES[case]
    doc = scenario_to_config(dataclasses.replace(formation_scenario(), horizon=10))
    target = doc
    for k in parents:
        target = target[k]
    target[last] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert f"{key}: " in capsys.readouterr().err
