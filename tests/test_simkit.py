import dataclasses
import io
import math

import numpy as np
import pytest

from coopreg.observers import LeaderModel
from coopreg.regulation import PlantModel
from coopreg.scenarios import (
    FORMATION_OFFSETS,
    build_builtin,
    formation_scenario,
    single_follower_scenario,
)
from coopreg.simkit import (
    AssumptionChecks,
    FollowerSpec,
    GainDirective,
    OverflowAbort,
    Scenario,
    Thresholds,
    analyze,
    csv_columns,
    run,
    validate_scenario,
    write_trajectory_csv,
)
from coopreg.topology import SwitchingSignal, SwitchingTopology, WeightedDigraph


def scenario_with_leader(S, v0=None, horizon=50):
    """Single follower wired to an arbitrary leader (identity plant)."""
    q = S.shape[0]
    leader = LeaderModel(S=S, v0=np.ones(q) if v0 is None else v0)
    topo = SwitchingTopology(
        graphs=(WeightedDigraph.from_edges(2, [(0, 1)]),),
        signal=SwitchingSignal.periodic([(1, 1)]),
    )
    plant = PlantModel(
        A=np.eye(q), B=np.eye(q), C=np.eye(q),
        D=np.zeros((q, q)), E=np.zeros((q, q)), F=-np.eye(q),
    )
    return Scenario(
        name="probe",
        leader=leader,
        topology=topo,
        followers=(
            FollowerSpec(plant=plant, x0=np.zeros(q),
                         gain=GainDirective(K_x=-0.5 * np.eye(q))),
        ),
        horizon=horizon,
        checks=AssumptionChecks(connectivity_window=0),
    )


class TestValidateScenario:
    def test_formation_passes_every_check(self):
        results = validate_scenario(formation_scenario())
        assert results and all(r.passed for r in results)
        names = [r.name for r in results]
        assert "jointly_connected" in names
        assert "leader_spectral_radius" in names

    def test_expanding_leader_fails_spectral_check(self):
        results = validate_scenario(scenario_with_leader(2.0 * np.eye(2)))
        spectral = next(r for r in results if r.name == "leader_spectral_radius")
        assert not spectral.passed
        assert "2" in spectral.detail

    def test_unstabilizable_follower_named(self):
        base = single_follower_scenario()
        plant = PlantModel(
            A=2.0 * np.eye(2), B=np.zeros((2, 2)), C=np.eye(2),
            D=np.zeros((2, 2)), E=np.zeros((2, 2)), F=-np.eye(2),
        )
        scenario = Scenario(
            name="stuck", leader=base.leader, topology=base.topology,
            followers=(FollowerSpec(plant=plant, x0=np.zeros(2)),),
            horizon=5, checks=AssumptionChecks(connectivity_window=0),
        )
        res = next(
            r for r in validate_scenario(scenario) if r.name.startswith("stabilizable")
        )
        assert not res.passed and "follower 1" in res.detail

    def test_disabled_checks_are_skipped(self):
        base = formation_scenario()
        scenario = Scenario(
            name="partial", leader=base.leader, topology=base.topology,
            followers=base.followers, horizon=5,
            checks=AssumptionChecks(connectivity=False, regulator=False,
                                    connectivity_window=7),
        )
        names = [r.name for r in validate_scenario(scenario)]
        assert "jointly_connected" not in names
        assert not any(n.startswith("regulator") for n in names)
        assert "leader_spectral_radius" in names

    def test_unreachable_follower_witnessed(self):
        # no graph ever feeds node 3
        edge_sets = [[(0, 1), (1, 2)], [(0, 2), (2, 4)]]
        topo = SwitchingTopology(
            graphs=tuple(WeightedDigraph.from_edges(5, e) for e in edge_sets),
            signal=SwitchingSignal.periodic([(1, 1), (2, 1)]),
        )
        base = formation_scenario()
        scenario = Scenario(
            name="broken", leader=base.leader, topology=topo,
            followers=base.followers, horizon=10,
            checks=AssumptionChecks(connectivity_window=1),
        )
        res = next(r for r in validate_scenario(scenario) if r.name == "jointly_connected")
        assert not res.passed
        assert "node 3" in res.detail


class TestRun:
    def test_zero_error_start_stays_on_manifold(self):
        base = dataclasses.replace(formation_scenario(), horizon=50)
        v0 = base.leader.v0
        scenario = Scenario(
            name="manifold", leader=base.leader, topology=base.topology,
            followers=tuple(
                FollowerSpec(plant=f.plant, x0=v0, gain=f.gain)
                for f in base.followers
            ),
            eta0=tuple(v0 for _ in base.followers),
            horizon=50, checks=base.checks,
        )
        log = run(scenario)
        assert np.max(np.abs(np.concatenate([e.ravel() for e in log.e]))) <= 1e-12

    def test_formation_reaches_offsets(self):
        log = run(formation_scenario())
        assert log.horizon == 300
        # regulated outputs below threshold
        assert np.all(log.e_norms[-1] < 1e-6)
        # relative positions and velocities locked to the leader
        for i, (ox, oy) in enumerate(FORMATION_OFFSETS):
            rel_pos = log.x[i][-1, :2] - log.v[-1, :2]
            rel_vel = log.x[i][-1, 2:] - log.v[-1, 2:]
            assert np.allclose(rel_pos, 0.0, atol=1e-6)
            assert np.allclose(rel_vel, 0.0, atol=1e-6)

    def test_regulated_output_equals_position_error_exactly(self):
        log = run(dataclasses.replace(formation_scenario(), horizon=40))
        for i in range(4):
            assert np.array_equal(log.e[i], log.x[i][:, :2] - log.v[:, :2])

    def test_single_follower_closed_form(self):
        scenario = dataclasses.replace(single_follower_scenario(), horizon=40)
        log = run(scenario)
        eta0 = np.zeros(2)
        expected = np.array(
            [0.5**t * np.linalg.norm(eta0 - scenario.leader.v0) for t in range(41)]
        )
        assert np.allclose(log.eta_tilde_norm, expected, atol=1e-12)

    def test_horizon_zero_single_record(self):
        log = run(dataclasses.replace(formation_scenario(), horizon=0))
        assert log.horizon == 0
        assert log.v.shape[0] == 1 and log.eta.shape[0] == 1

    def test_adaptive_mode_logs_matrix_series(self):
        log = run(dataclasses.replace(formation_scenario(), horizon=120, observer_mode="adaptive"))
        assert log.s_est is not None and log.s_tilde_norm is not None
        assert log.s_tilde_norm[0] > 0
        assert log.s_tilde_norm[-1] < 1e-8

    def test_overflow_guard_reports_step(self):
        scenario = scenario_with_leader(1.2 * np.eye(2), horizon=400)
        with pytest.raises(OverflowAbort) as exc_info:
            run(scenario)
        # 1.2**t crosses 1e12 around t = 152
        assert 100 < exc_info.value.t < 200
        assert str(exc_info.value.t) in str(exc_info.value)
        # the leader is the first state past the guard: per-step scan of v
        v, t = scenario.leader.v0, 0
        while np.abs(v).max() <= 1e12:
            v, t = scenario.leader.advance(v), t + 1
        exc = exc_info.value
        assert (exc.t, exc.series, exc.follower, exc.magnitude) == (t, "v", None, np.abs(v).max())
        assert str(exc) == (f"state magnitude {np.abs(v).max():.3e} exceeded 1e+12 "
                            f"in v of the leader at time step {t}")

    def test_determinism_identical_logs(self):
        a, b = (run(dataclasses.replace(formation_scenario(), horizon=80)) for _ in range(2))
        assert np.array_equal(a.v, b.v)
        assert all(np.array_equal(x, y) for x, y in zip(a.x, b.x))
        assert np.array_equal(a.eta, b.eta)

    def test_seeded_initial_conditions_are_reproducible(self):
        a = dataclasses.replace(formation_scenario(seed=7), horizon=10)
        b = dataclasses.replace(formation_scenario(seed=7), horizon=10)
        c = dataclasses.replace(formation_scenario(seed=8), horizon=10)
        assert all(np.array_equal(x.x0, y.x0) for x, y in zip(a.followers, b.followers))
        assert not all(
            np.array_equal(x.x0, y.x0) for x, y in zip(a.followers, c.followers)
        )

    def test_riccati_directive_closes_the_loop(self):
        base = formation_scenario()
        scenario = Scenario(
            name="riccati",
            leader=base.leader,
            topology=base.topology,
            followers=tuple(
                FollowerSpec(plant=f.plant, x0=f.x0, gain=GainDirective())
                for f in base.followers
            ),
            horizon=300,
            checks=base.checks,
        )
        log = run(scenario)
        assert np.all(log.e_norms[-1] < 1e-6)

    def test_default_fig2_builtin_converges(self):
        scenario = dataclasses.replace(build_builtin("default-fig2"), horizon=300)
        assert all(r.passed for r in validate_scenario(scenario))
        log = run(scenario)
        # zero offsets: every follower lands on the leader trajectory itself
        assert np.all(log.e_norms[-1] < 1e-6)
        for i in range(4):
            assert np.max(np.abs(log.x[i][-1, :2] - log.v[-1, :2])) < 1e-6


class TestPermutationEquivariance:
    def test_relabeling_followers_permutes_the_log(self):
        base = dataclasses.replace(formation_scenario(), horizon=60)
        perm = [2, 0, 3, 1]  # new follower k simulates old follower perm[k]
        old_of_new = [0] + [p + 1 for p in perm]
        permuted_graphs = tuple(
            WeightedDigraph(g.weights[np.ix_(old_of_new, old_of_new)])
            for g in base.topology.graphs
        )
        scenario = Scenario(
            name="permuted",
            leader=base.leader,
            topology=SwitchingTopology(graphs=permuted_graphs, signal=base.topology.signal),
            followers=tuple(base.followers[p] for p in perm),
            horizon=60,
            checks=base.checks,
        )
        log_base = run(base)
        log_perm = run(scenario)
        for new_i, old_i in enumerate(perm):
            assert np.array_equal(log_perm.x[new_i], log_base.x[old_i])
            assert np.array_equal(log_perm.e[new_i], log_base.e[old_i])
            assert np.array_equal(log_perm.eta[:, new_i], log_base.eta[:, old_i])


class TestAnalyze:
    def test_formation_report_converges(self):
        scenario = formation_scenario()
        report = analyze(run(scenario), scenario.thresholds)
        assert report.converged
        for s in report.series:
            assert s.fit.floored or s.fit.rate < 1.0

    def test_zero_series_reported_as_floor(self):
        base = dataclasses.replace(formation_scenario(), horizon=30)
        v0 = base.leader.v0
        scenario = Scenario(
            name="manifold", leader=base.leader, topology=base.topology,
            followers=tuple(
                FollowerSpec(plant=f.plant, x0=v0, gain=f.gain) for f in base.followers
            ),
            eta0=tuple(v0 for _ in base.followers),
            horizon=30, checks=base.checks,
        )
        report = analyze(run(scenario))
        assert report.converged
        assert all("floor" in s.note for s in report.series)

    def test_short_run_not_converged(self):
        scenario = dataclasses.replace(formation_scenario(), horizon=0)
        report = analyze(run(scenario), scenario.thresholds)
        assert not report.converged

    def test_strict_rate_threshold_fails(self):
        scenario = formation_scenario()
        report = analyze(run(scenario), Thresholds(final=1e-6, rate=0.5))
        # formation decay rate is about 0.81 per step, above this bound
        assert not report.converged

    @pytest.mark.parametrize("final, rate", [(0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5),
                                             (1e-6, 0.0), (1e-6, -0.5), (1e-6, 5.0),
                                             (1e-6, math.nan)])
    def test_out_of_range_thresholds_refused(self, final, rate):
        with pytest.raises(ValueError, match="thresholds"):
            Thresholds(final=final, rate=rate)

    def test_threshold_bounds_are_open_at_zero_and_closed_at_one(self):
        assert Thresholds(final=1e-300, rate=1.0).rate == 1.0


class TestCsvExport:
    def test_columns_and_rows(self):
        log = run(dataclasses.replace(formation_scenario(), horizon=5))
        cols = csv_columns(log)
        assert cols[:2] == ["t", "sigma"]
        assert "v_0_0" in cols and "x_1_0" in cols and "e_norm_4" in cols
        buf = io.StringIO()
        write_trajectory_csv(log, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 7  # header + 6 records
        assert lines[0] == ",".join(cols)
        assert all(len(line.split(",")) == len(cols) for line in lines[1:])

    def test_adaptive_columns_include_matrix_estimates(self):
        log = run(dataclasses.replace(build_builtin("single-follower"), horizon=3,
                                      observer_mode="adaptive"))
        cols = csv_columns(log)
        assert "s_1_0" in cols and "s_tilde_norm" in cols

    def test_byte_identical_across_runs(self):
        def render():
            buf = io.StringIO()
            scenario = dataclasses.replace(formation_scenario(seed=3), horizon=60)
            write_trajectory_csv(run(scenario), buf)
            return buf.getvalue()

        assert render() == render()

    def test_round_trip_precision(self):
        log = run(dataclasses.replace(formation_scenario(), horizon=20))
        buf = io.StringIO()
        write_trajectory_csv(log, buf)
        lines = buf.getvalue().strip().split("\n")
        header = lines[0].split(",")
        col = header.index("x_1_0")
        parsed = np.array([float(line.split(",")[col]) for line in lines[1:]])
        assert np.array_equal(parsed, log.x[0][:, 0])


class TestScenarioValidation:
    def test_follower_count_must_match_topology(self):
        base = formation_scenario()
        with pytest.raises(Exception):
            Scenario(
                name="bad", leader=base.leader, topology=base.topology,
                followers=base.followers[:2], horizon=10,
            )

    def test_leader_dimension_must_match_plants(self):
        base = single_follower_scenario()
        with pytest.raises(Exception):
            Scenario(
                name="bad",
                leader=LeaderModel(S=np.eye(3), v0=np.zeros(3)),
                topology=base.topology,
                followers=base.followers,
                horizon=10,
            )

    def test_adaptive_scenario_defaults_to_zero_matrix_estimates(self):
        base = single_follower_scenario()
        adaptive = dataclasses.replace(base, observer_mode="adaptive")
        assert base.s0 is None and base.initial_bank().mode == "distributed"
        assert len(adaptive.s0) == 1 and np.array_equal(adaptive.s0[0], np.zeros((2, 2)))
        assert adaptive.initial_bank().mode == "adaptive"
        with pytest.raises(ValueError, match="s0 only applies"):
            dataclasses.replace(adaptive, observer_mode="distributed")

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_regulator_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="regulator_tol must be finite"):
            dataclasses.replace(single_follower_scenario(), regulator_tol=tol)

    def test_regulator_tolerance_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"regulator_tol must be >= 0, got -1\.0"):
            dataclasses.replace(single_follower_scenario(), regulator_tol=-1.0)
        assert dataclasses.replace(single_follower_scenario(), regulator_tol=0.0).regulator_tol == 0
