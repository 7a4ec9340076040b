import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopreg.observers import spectral_radius
from coopreg.regulation import (
    GainSynthesisError,
    PlantModel,
    RegulatorUnsolvableError,
    build_controller,
    control_input,
    plant_step,
    solve_regulator_equations,
    synthesize_stabilizing_gain,
)
from coopreg.topology import DimensionError


def planar_tracking_plant():
    """Double integrator regulated onto a constant-velocity planar leader."""
    A = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    B = np.kron(np.array([[0.0], [1.0]]), np.eye(2))
    C = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return PlantModel(A=A, B=B, C=C, D=np.zeros((2, 2)), E=np.zeros((4, 4)), F=-C)


def planar_leader_matrix():
    return np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


def random_solvable_plant(rng, n=3, m=2, p=2, q=3):
    """Construct a plant from a chosen solution pair, so solvability is
    guaranteed by construction (independent of the solver under test)."""
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(p, n))
    D = rng.normal(size=(p, m))
    S = rng.normal(size=(q, q))
    X = rng.normal(size=(n, q))
    U = rng.normal(size=(m, q))
    E = X @ S - A @ X - B @ U
    F = -(C @ X + D @ U)
    return PlantModel(A=A, B=B, C=C, D=D, E=E, F=F), S, X, U


class TestRegulatorEquations:
    def test_homogeneous_case_zero_solution(self):
        rng = np.random.default_rng(0)
        plant = PlantModel(
            A=rng.normal(size=(3, 3)), B=rng.normal(size=(3, 1)),
            C=rng.normal(size=(2, 3)), D=rng.normal(size=(2, 1)),
            E=np.zeros((3, 2)), F=np.zeros((2, 2)),
        )
        sol = solve_regulator_equations(plant, rng.normal(size=(2, 2)))
        assert np.allclose(sol.X, 0.0) and np.allclose(sol.U, 0.0)
        assert sol.residual == 0.0

    def test_planar_tracking_plant_identity_solution(self):
        sol = solve_regulator_equations(planar_tracking_plant(), planar_leader_matrix())
        assert np.abs(sol.X - np.eye(4)).max() < 1e-12
        assert np.abs(sol.U).max() < 1e-12
        assert sol.residual < 1e-12

    def test_inconsistent_plant_rejected(self):
        plant = PlantModel(
            A=np.eye(2), B=np.eye(2), C=np.zeros((1, 2)),
            D=np.zeros((1, 2)), E=np.zeros((2, 2)), F=np.ones((1, 2)),
        )
        with pytest.raises(RegulatorUnsolvableError):
            solve_regulator_equations(plant, np.eye(2))

    def test_large_coupling_is_solvable(self):
        # X = I, U = S - I - E solve it exactly.  The first least-squares pair
        # carries an error of about eps |U| = 2e-3 in X as well, which the
        # output equation C X + F, with terms of size 1, refuses; one step of
        # iterative refinement removes it
        S = planar_leader_matrix()
        plant = PlantModel(A=np.eye(4), B=np.eye(4), C=np.eye(4), D=np.zeros((4, 4)),
                           E=1e13 * np.eye(4), F=-np.eye(4))
        sol = solve_regulator_equations(plant, S)
        assert np.abs(sol.X - np.eye(4)).max() < 1e-12
        assert np.abs(sol.U - (S - np.eye(4) - plant.E)).max() <= 1e-9 * 1e13

    def test_large_solutions_are_certified_relative_to_their_terms(self):
        # each sum rounds at eps times its terms, about 1e-3 here, so no
        # absolute bound of 1e-9 could certify these pairs
        for seed in range(10):
            plant, S, X, U = random_solvable_plant(np.random.default_rng(seed))
            big = PlantModel(A=plant.A, B=plant.B, C=plant.C, D=plant.D,
                             E=1e12 * plant.E, F=1e12 * plant.F)
            sol = solve_regulator_equations(big, S)
            assert np.abs(sol.X - 1e12 * X).max() < 1e-9 * 1e12
            assert np.abs(sol.U - 1e12 * U).max() < 1e-9 * 1e12
            assert 1e-9 < sol.residual < 1e-9 * 1e12

    def test_large_terms_do_not_loosen_the_other_equation(self):
        # E is huge but the output equation C X + D U + F = F cannot vanish
        plant = PlantModel(A=np.eye(2), B=np.eye(2), C=np.zeros((1, 2)), D=np.zeros((1, 2)),
                           E=1e13 * np.eye(2), F=np.ones((1, 2)))
        with pytest.raises(RegulatorUnsolvableError, match="residual 1.000e"):
            solve_regulator_equations(plant, np.eye(2))

    def test_nan_tolerance_fails_the_certificate(self):
        # `residual > nan` is False, so only the inverted test refuses it
        with pytest.raises(RegulatorUnsolvableError):
            solve_regulator_equations(planar_tracking_plant(), planar_leader_matrix(), tol=math.nan)

    def test_random_solvable_plants_certified(self):
        for seed in range(20):
            plant, S, _, _ = random_solvable_plant(np.random.default_rng(seed))
            sol = solve_regulator_equations(plant, S)
            assert sol.residual < 1e-9
            # re-verify the certificate independently of the stored residual
            assert np.abs(sol.X @ S - plant.A @ sol.X - plant.B @ sol.U - plant.E).max() < 1e-9
            assert np.abs(plant.C @ sol.X + plant.D @ sol.U + plant.F).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_regulator_equations(planar_tracking_plant(), np.eye(3))


class TestGainSynthesis:
    def test_bundled_gain_certified_radius_half(self):
        k = np.kron(np.array([[-0.7, -1.9]]), np.eye(2))
        plant = planar_tracking_plant()
        K_x, radius = synthesize_stabilizing_gain(plant.A, plant.B, K=k)
        assert radius == pytest.approx(0.5, abs=1e-9)
        assert np.array_equal(K_x, k)

    def test_already_schur_accepts_zero_gain(self):
        A = 0.5 * np.eye(3)
        K_x, radius = synthesize_stabilizing_gain(A, np.zeros((3, 1)), K=np.zeros((1, 3)))
        assert radius == pytest.approx(0.5)

    def test_destabilizing_user_gain_rejected(self):
        with pytest.raises(GainSynthesisError):
            synthesize_stabilizing_gain(np.array([[2.0]]), np.array([[1.0]]), K=np.array([[0.0]]))

    def test_unstabilizable_pair_detected(self):
        with pytest.raises(GainSynthesisError, match="not stabilizable"):
            synthesize_stabilizing_gain(np.array([[2.0]]), np.array([[0.0]]))

    def test_riccati_stabilizes_random_pairs(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A = rng.normal(size=(n, n)) * 1.5
            B = rng.normal(size=(n, m))
            K_x, radius = synthesize_stabilizing_gain(A, B)
            assert radius < 1.0
            assert spectral_radius(A + B @ K_x) == pytest.approx(radius)


class TestBuildController:
    def test_bundled_feedforward_cancels_feedback(self):
        plant = planar_tracking_plant()
        k = np.kron(np.array([[-0.7, -1.9]]), np.eye(2))
        sol = solve_regulator_equations(plant, planar_leader_matrix())
        gains = build_controller(plant, k, sol)
        assert np.allclose(gains.K_v, -k, atol=1e-12)
        assert gains.closed_loop_radius == pytest.approx(0.5, abs=1e-9)

    def test_zero_gain_zero_manifold(self):
        rng = np.random.default_rng(4)
        plant = PlantModel(
            A=0.5 * np.eye(2), B=np.eye(2), C=rng.normal(size=(1, 2)),
            D=rng.normal(size=(1, 2)), E=np.zeros((2, 2)), F=np.zeros((1, 2)),
        )
        sol = solve_regulator_equations(plant, np.eye(2))
        gains = build_controller(plant, np.zeros((2, 2)), sol)
        assert np.allclose(gains.K_v, sol.U)

    def test_gain_relation_holds_on_random_plants(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            plant, S, _, _ = random_solvable_plant(rng)
            K_x, _ = synthesize_stabilizing_gain(plant.A, plant.B)
            sol = solve_regulator_equations(plant, S)
            gains = build_controller(plant, K_x, sol)
            assert np.abs(gains.K_v - (sol.U - K_x @ sol.X)).max() < 1e-12

    def test_uncertified_gain_cannot_build(self):
        plant = planar_tracking_plant()
        with pytest.raises(GainSynthesisError):
            build_controller(plant, np.zeros((2, 4)),
                             solve_regulator_equations(plant, planar_leader_matrix()))


class TestControlAndPlantStep:
    def test_zero_in_zero_out(self):
        plant = planar_tracking_plant()
        gains = build_controller(
            plant, np.kron(np.array([[-0.7, -1.9]]), np.eye(2)),
            solve_regulator_equations(plant, planar_leader_matrix()),
        )
        assert np.allclose(control_input(gains, np.zeros(4), np.zeros(4)), 0.0)

    def test_steady_state_input_on_manifold(self):
        rng = np.random.default_rng(8)
        plant, S, _, _ = random_solvable_plant(rng)
        sol = solve_regulator_equations(plant, S)
        K_x, _ = synthesize_stabilizing_gain(plant.A, plant.B)
        gains = build_controller(plant, K_x, sol)
        v = rng.normal(size=plant.q)
        u = control_input(gains, sol.X @ v, v)
        assert np.allclose(u, sol.U @ v, atol=1e-10)

    def test_bundled_plant_steady_state_input_is_zero(self):
        plant = planar_tracking_plant()
        S = planar_leader_matrix()
        sol = solve_regulator_equations(plant, S)
        gains = build_controller(plant, np.kron(np.array([[-0.7, -1.9]]), np.eye(2)), sol)
        v = np.array([3.0, -1.0, 0.5, 2.0])
        assert np.allclose(control_input(gains, sol.X @ v, v), 0.0, atol=1e-12)

    def test_manifold_invariance(self):
        # on the steady-state manifold the state moves to X S v and e = 0
        rng = np.random.default_rng(12)
        plant, S, _, _ = random_solvable_plant(rng)
        sol = solve_regulator_equations(plant, S)
        v = rng.normal(size=plant.q)
        x_next, e = plant_step(plant, sol.X @ v, sol.U @ v, v)
        assert np.allclose(x_next, sol.X @ S @ v, atol=1e-9)
        assert np.allclose(e, 0.0, atol=1e-9)

    def test_zero_everything(self):
        plant = planar_tracking_plant()
        x_next, e = plant_step(plant, np.zeros(4), np.zeros(2), np.zeros(4))
        assert np.all(x_next == 0.0) and np.all(e == 0.0)

    def test_double_integrator_position_integrates_velocity(self):
        plant = planar_tracking_plant()
        x = np.array([1.0, 2.0, 0.3, -0.4])
        x_next, _ = plant_step(plant, x, np.zeros(2), np.zeros(4))
        assert np.allclose(x_next[:2], x[:2] + x[2:])
        assert np.allclose(x_next[2:], x[2:])

    def test_dimension_mismatch(self):
        plant = planar_tracking_plant()
        with pytest.raises(DimensionError):
            plant_step(plant, np.zeros(3), np.zeros(2), np.zeros(4))
        gains = build_controller(
            plant, np.kron(np.array([[-0.7, -1.9]]), np.eye(2)),
            solve_regulator_equations(plant, planar_leader_matrix()),
        )
        with pytest.raises(DimensionError):
            control_input(gains, np.zeros(5), np.zeros(4))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_error_coordinate_identity(self, seed):
        # shifting by the steady-state manifold turns one closed-loop step
        # into x_tilde+ = (A + B K_x) x_tilde + B K_v (eta - v), with the
        # regulated output C x_tilde + D u_tilde
        rng = np.random.default_rng(seed)
        plant, S, _, _ = random_solvable_plant(rng)
        sol = solve_regulator_equations(plant, S)
        K_x, _ = synthesize_stabilizing_gain(plant.A, plant.B)
        gains = build_controller(plant, K_x, sol)
        x = rng.normal(size=plant.n)
        v = rng.normal(size=plant.q)
        eta = rng.normal(size=plant.q)
        u = control_input(gains, x, eta)
        x_next, e = plant_step(plant, x, u, v)
        x_tilde = x - sol.X @ v
        u_tilde = u - sol.U @ v
        predicted_next = (
            (plant.A + plant.B @ gains.K_x) @ x_tilde
            + plant.B @ gains.K_v @ (eta - v)
            + sol.X @ S @ v
        )
        assert np.abs(x_next - predicted_next).max() < 1e-10
        assert np.abs(e - (plant.C @ x_tilde + plant.D @ u_tilde)).max() < 1e-10
