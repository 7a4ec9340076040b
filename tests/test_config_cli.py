import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coopreg import cli
from coopreg.cli import main
from coopreg.config import (
    ConfigError,
    config_to_scenario,
    load_config,
    save_config,
    scenario_to_config,
)
from coopreg.observers import LeaderModel
from coopreg.regulation import PlantModel
from coopreg.scenarios import build_builtin, formation_scenario
from coopreg.simkit import AssumptionChecks, FollowerSpec, GainDirective, Scenario
from coopreg.topology import SwitchingSignal, SwitchingTopology, WeightedDigraph


@pytest.fixture
def formation_config(tmp_path):
    path = tmp_path / "formation.json"
    save_config(formation_scenario(horizon=300), path)
    return path


def scenarios_equal(a, b):
    if (
        a.name != b.name
        or a.observer_mode != b.observer_mode
        or a.horizon != b.horizon
        or a.checks != b.checks
        or a.thresholds != b.thresholds
        or a.regulator_tol != b.regulator_tol
    ):
        return False
    if not (np.array_equal(a.leader.S, b.leader.S) and np.array_equal(a.leader.v0, b.leader.v0)):
        return False
    if a.topology.signal.segments != b.topology.signal.segments:
        return False
    if len(a.topology.graphs) != len(b.topology.graphs):
        return False
    for ga, gb in zip(a.topology.graphs, b.topology.graphs):
        if not np.array_equal(ga.weights, gb.weights):
            return False
    for fa, fb in zip(a.followers, b.followers):
        for key in "ABCDEF":
            if not np.array_equal(getattr(fa.plant, key), getattr(fb.plant, key)):
                return False
        if not np.array_equal(fa.x0, fb.x0) or fa.gain.method != fb.gain.method:
            return False
    return True


class TestConfigRoundTrip:
    def test_scenario_config_scenario(self, formation_config):
        first = load_config(formation_config)
        doc = scenario_to_config(first)
        second = config_to_scenario(doc, name=first.name)
        assert scenarios_equal(first, second)
        assert scenario_to_config(second) == doc

    def test_builtin_roundtrip_preserves_floats(self, tmp_path):
        scenario = build_builtin("single-follower", seed=11)
        path = tmp_path / "sf.json"
        save_config(scenario, path)
        loaded = load_config(path)
        assert np.array_equal(loaded.followers[0].x0, scenario.followers[0].x0)
        assert np.array_equal(loaded.eta0[0], scenario.eta0[0])

    def test_table_signal_and_adaptive_mode_roundtrip(self, tmp_path):
        from dataclasses import replace

        from coopreg.topology import SwitchingSignal, SwitchingTopology

        base = replace(build_builtin("single-follower"), observer_mode="adaptive")
        topo = SwitchingTopology(
            graphs=base.topology.graphs,
            signal=SwitchingSignal.from_table([1, 1, 1, 1], tail_mode=1),
        )
        scenario = replace(base, topology=topo)
        path = tmp_path / "table.json"
        save_config(scenario, path)
        loaded = load_config(path)
        assert loaded.topology.signal.table == (1, 1, 1, 1)
        assert loaded.topology.signal.tail_mode == 1
        assert loaded.observer_mode == "adaptive"
        assert loaded.s0 is not None and np.array_equal(loaded.s0[0], scenario.s0[0])
        doc = scenario_to_config(loaded)
        assert doc == scenario_to_config(scenario)


def scalar_plant_scenario(*gains):
    """Followers with n = m = 1 integrator plants, one per gain directive,
    each with a direct leader link."""
    n = len(gains)
    plant = PlantModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], E=[[0.0]], F=[[-1.0]])
    return Scenario(
        name="scalar",
        leader=LeaderModel(S=np.eye(1), v0=np.ones(1)),
        topology=SwitchingTopology(
            graphs=(WeightedDigraph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)]),),
            signal=SwitchingSignal.periodic([(1, 1)])),
        followers=tuple(FollowerSpec(plant=plant, x0=np.zeros(1), gain=g) for g in gains),
        horizon=20,
    )


@pytest.mark.parametrize("gain", [GainDirective(K_x=-0.5), GainDirective(K_x=[[-0.5]]),
                                  GainDirective(Q=2.0, R=3.0)], ids=["K_x-scalar", "K_x-list", "Q-R"])
def test_a_gain_given_in_any_form_saves_loads_and_saves_the_same(gain, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_config(scalar_plant_scenario(gain), first)
    save_config(load_config(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_equal_gains_in_any_form_are_one_plant_class():
    scenario = scalar_plant_scenario(GainDirective(Q=2.0), GainDirective(Q=[[2.0]]))
    assert scenario._classes == ((0, 1),)


class TestConfigValidation:
    def base_doc(self):
        return scenario_to_config(formation_scenario(horizon=10))

    def test_unknown_key_named(self):
        doc = self.base_doc()
        doc["extra_section"] = {}
        with pytest.raises(ConfigError, match="extra_section"):
            config_to_scenario(doc)

    def test_nested_unknown_key_named(self):
        doc = self.base_doc()
        doc["leader"]["S_inv"] = [[1.0]]
        with pytest.raises(ConfigError, match="leader.*S_inv"):
            config_to_scenario(doc)

    def test_ragged_matrix_named(self):
        doc = self.base_doc()
        doc["followers"][1]["A"] = [[1.0, 0.0], [1.0]]
        with pytest.raises(ConfigError, match=r"followers\[1\]\.A.*ragged"):
            config_to_scenario(doc)

    def test_gain_count_mismatch(self):
        doc = self.base_doc()
        doc["gains"] = doc["gains"][:2]
        with pytest.raises(ConfigError, match="gains"):
            config_to_scenario(doc)

    def test_bad_version(self):
        doc = self.base_doc()
        doc["version"] = 99
        with pytest.raises(ConfigError, match="version"):
            config_to_scenario(doc)

    def test_json_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n  "leader": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_signal_needs_exactly_one_description(self):
        doc = self.base_doc()
        doc["signal"] = {"segments": [[1, 1]], "table": [1], "tail_mode": 1}
        with pytest.raises(ConfigError, match="signal"):
            config_to_scenario(doc)

    def test_signal_period_serialized_and_checked(self):
        doc = self.base_doc()
        assert doc["signal"]["period"] == 8
        doc["signal"]["period"] = 9
        with pytest.raises(ConfigError, match="period"):
            config_to_scenario(doc)

    def test_non_numeric_matrix_entry_named(self):
        doc = self.base_doc()
        doc["leader"]["S"][0][1] = "one"
        with pytest.raises(ConfigError, match=r"leader\.S\[0\]\[1\]"):
            config_to_scenario(doc)

    @pytest.mark.parametrize("bad", [True, False, "1", None, [1.0], {"x": 1}])
    def test_first_non_numeric_graph_entry_named(self, bad):
        doc = self.base_doc()
        doc["graphs"][1][2][3] = bad
        doc["graphs"][1][4][0] = "later"
        with pytest.raises(ConfigError) as exc_info:
            config_to_scenario(doc)
        assert str(exc_info.value) == "graphs[1][2][3]: expected a number"

    def test_boolean_rejected_as_number(self):
        doc = self.base_doc()
        doc["run"]["regulator_tol"] = True
        with pytest.raises(ConfigError, match="regulator_tol"):
            config_to_scenario(doc)

    def test_negative_horizon_rejected(self):
        doc = self.base_doc()
        doc["run"]["horizon"] = -1
        with pytest.raises(ConfigError, match="horizon"):
            config_to_scenario(doc)

    @pytest.mark.parametrize("key, value", [("final", -1), ("final", 0), ("rate", 5.0),
                                            ("rate", -0.5), ("rate", 0)])
    def test_threshold_out_of_range_exits_2(self, key, value, tmp_path, capsys):
        # a rate bound above 1 passes a growing series; a bound <= 0 fails every series
        doc = self.base_doc()
        doc["run"]["thresholds"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"run.thresholds.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_connectivity_horizon_below_the_window_exits_2(self, command, tmp_path, capsys):
        # no union window of 8 steps fits in a horizon of 3; this used to be a traceback
        doc = self.base_doc()
        assert doc["run"]["checks"]["connectivity_window"] == 7
        doc["run"]["checks"]["connectivity_horizon"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *out]) == 2
        assert "run.checks.connectivity_horizon" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_connectivity_window_and_horizon_are_checked_when_built(self):
        with pytest.raises(ValueError, match="connectivity_window must be >= 0"):
            AssumptionChecks(connectivity_window=-1)
        with pytest.raises(ValueError, match="connectivity_horizon must be >= "):
            AssumptionChecks(connectivity_window=7, connectivity_horizon=6)
        assert AssumptionChecks(connectivity_window=7, connectivity_horizon=7)
        assert AssumptionChecks(connectivity_window=7).connectivity_horizon is None

    @pytest.mark.parametrize("key, value, message", [
        ("S", [[1.0, 0.0]], "leader: leader matrix must be square, got (1, 2)"),
        ("v0", [0.0, 0.0], "leader: v0 has dimension 2, leader matrix is 4x4"),
    ], ids=["S", "v0"])
    def test_leader_shape_error_is_a_config_error(self, key, value, message, tmp_path, capsys):
        doc = self.base_doc()
        doc["leader"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc_info:
            load_config(path)
        assert str(exc_info.value) == message
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_wrong_eta0_count_rejected(self):
        doc = self.base_doc()
        doc["observer"]["eta0"] = [[0.0, 0.0, 0.0, 0.0]]  # one vector, four followers
        with pytest.raises(ConfigError, match="eta0"):
            config_to_scenario(doc)


class TestCliValidate:
    def test_builtin_passes(self, capsys):
        assert main(["validate", "--builtin", "formation-sec5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] jointly_connected" in out

    def test_unstable_leader_fails_named_check(self, tmp_path, capsys):
        doc = scenario_to_config(formation_scenario(horizon=10))
        doc["leader"]["S"] = (2.0 * np.eye(4)).tolist()
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] leader_spectral_radius" in out
        assert "rho(S) = 2" in out

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        doc = scenario_to_config(formation_scenario(horizon=10))
        doc["graphs"][0] = [[0.0, 1.0], [0.0]]
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "ragged" in capsys.readouterr().err


class TestCliRun:
    def test_formation_run_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--builtin", "formation-sec5", "--horizon", "300",
             "--out", str(out_dir)]
        )
        assert code == 0
        csv_lines = (out_dir / "trajectory.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 302  # header + 301 records
        report = json.loads((out_dir / "report.json").read_text())
        assert report["converged"] is True
        assert report["scenario"] == "formation-sec5"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        paths = list(manifest["outputs"].values())
        assert len(paths) == len(set(paths)) == 2
        assert manifest["converged"] is True

    def test_manifest_stage_timings_and_versions(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["run", "--builtin", "single-follower", "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        timings = manifest["timings_s"]
        assert set(timings) == {"prepare", "run", "analyze", "export"}
        assert all(isinstance(v, float) and np.isfinite(v) and v >= 0 for v in timings.values())
        assert set(manifest["versions"]) == {"python", "numpy"}
        assert manifest["versions"]["numpy"] == np.__version__

    def test_report_series_schema(self, tmp_path):
        main(["run", "--builtin", "single-follower", "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        expected = {"name", "final", "converged", "note", "rate",
                    "prefactor", "residual", "n_samples", "floored"}
        for entry in report["series"]:
            assert set(entry) == expected
        assert {"name", "passed", "detail"} == set(report["checks"][0])

    @pytest.mark.parametrize("mode", ["distributed", "adaptive"])
    def test_feedforward_source_named(self, mode, tmp_path):
        out_dir = tmp_path / "out"
        main(["run", "--builtin", "single-follower", "--mode", mode, "--out", str(out_dir)])
        for name in ("report.json", "manifest.json"):
            assert json.loads((out_dir / name).read_text())["feedforward"] == "leader_S"

    def test_adaptive_mode(self, tmp_path):
        code = main(
            ["run", "--builtin", "formation-sec5", "--mode", "adaptive",
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = [s["name"] for s in report["series"]]
        assert "s_tilde_norm" in names

    @pytest.mark.parametrize("saved, override", [("distributed", "adaptive"),
                                                  ("adaptive", "distributed")])
    def test_mode_override_on_a_config_matches_the_builtin(self, saved, override, tmp_path):
        path = tmp_path / f"{saved}.json"
        save_config(dataclasses.replace(build_builtin("formation-sec5"), observer_mode=saved), path)
        assert main(["run", str(path), "--mode", override, "--out", str(tmp_path / "cfg")]) == 0
        assert main(["run", "--builtin", "formation-sec5", "--mode", override,
                     "--out", str(tmp_path / "builtin")]) == 0
        cfg = (tmp_path / "cfg" / "trajectory.csv").read_bytes()
        assert cfg == (tmp_path / "builtin" / "trajectory.csv").read_bytes()

    def test_horizon_zero_initial_row_only(self, tmp_path):
        out_dir = tmp_path / "h0"
        code = main(
            ["run", "--builtin", "formation-sec5", "--horizon", "0",
             "--out", str(out_dir)]
        )
        csv_lines = (out_dir / "trajectory.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 2
        assert code == 1  # initial errors are far from converged

    def test_output_path_collision_reported(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code = main(["run", "--builtin", "single-follower", "--out", str(blocker)])
        assert code == 1
        assert "output error" in capsys.readouterr().err

    def test_tol_flag_applies_to_builtin(self, tmp_path, capsys):
        # an absurdly tight solver tolerance makes the regulator check fail
        code = main(
            ["run", "--builtin", "formation-sec5", "--tol", "1e-17",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "regulator" in capsys.readouterr().out

    def test_seed_determinism_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            main(["run", "--builtin", "formation-sec5", "--seed", "42",
                  "--horizon", "80", "--out", str(tmp_path / name)])
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_failing_validation_blocks_without_force(self, tmp_path, capsys):
        doc = scenario_to_config(formation_scenario(horizon=40))
        doc["leader"]["S"] = (2.0 * np.eye(4)).tolist()
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "--force" in capsys.readouterr().out

    def test_force_runs_into_overflow_abort(self, tmp_path, capsys):
        doc = scenario_to_config(formation_scenario(horizon=400))
        doc["leader"]["S"] = (1.5 * np.eye(4)).tolist()
        # keep the regulator solvable for the scaled leader: E couples the
        # leader into the plant so X = I no longer works; drop the coupling
        for f in doc["followers"]:
            f["F"] = np.zeros((2, 4)).tolist()
            f["C"] = np.zeros((2, 4)).tolist()
        path = tmp_path / "grow.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--force", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "aborted" in capsys.readouterr().out


class TestCliProps:
    def test_kron_suite_passes(self, capsys):
        assert main(["props", "kron", "--trials", "5"]) == 0
        assert "5/5 trials passed" in capsys.readouterr().out

    def test_zero_trials_vacuous_pass(self, capsys):
        assert main(["props", "consensus", "--trials", "0"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert main(["props", "nonsense"]) == 2

    def test_seeded_trials_reproducible(self, capsys):
        main(["props", "lemma2", "--trials", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["props", "lemma2", "--trials", "3", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestCliMisc:
    def test_parser_is_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()
        # importing the CLI builds nothing
        probe = "import coopreg.cli as c; print(c.build_parser.cache_info().currsize)"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.stdout == "0\n", proc.stderr

    def test_list_builtins(self, capsys):
        assert main(["list-builtins"]) == 0
        out = capsys.readouterr().out
        for name in ("formation-sec5", "single-follower", "default-fig2"):
            assert name in out

    def test_unknown_builtin(self, capsys):
        assert main(["run", "--builtin", "nope", "--out", "/tmp/x"]) == 2

    def test_missing_scenario_argument(self, capsys):
        assert main(["validate"]) == 2
