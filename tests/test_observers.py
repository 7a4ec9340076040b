import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopreg.observers import (
    LeaderModel,
    ObserverBank,
    error_form_step,
    fit_decay,
    kron_factorization_check,
    observer_step,
    perturbed_convergence_check,
    spectral_radius,
)
from coopreg.properties import (
    bank_vs_error_form,
    random_leader,
    random_topology,
    simulate_observer_norms,
)
from coopreg.topology import DimensionError, WeightedDigraph, normalize_adjacency


def single_link_adjacency():
    return normalize_adjacency(WeightedDigraph.from_edges(2, [(0, 1)]))


def error_magnitude(topo, leader, bank, horizon):
    """Largest |eta_tilde| or |S_tilde| entry of the run that
    ``bank_vs_error_form`` compares, its initial errors included."""
    v = leader.v0.copy()
    top = 0.0
    for t in range(horizon + 1):
        top = max(top, float(np.abs(bank.eta - v).max()),
                  float(np.abs(bank.s_est - leader.S).max()))
        if t < horizon:
            bank = observer_step(leader, v, bank, topo.adjacency_at(t))
            v = leader.advance(v)
    return top


class TestSpectralRadius:
    def test_block_triangular(self):
        s = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
        assert spectral_radius(s) == pytest.approx(1.0)

    def test_companion_pair(self):
        # roots of z**2 - 0.1 z - 0.2 are 0.5 and -0.4
        assert spectral_radius(np.array([[1.0, 1.0], [-0.7, -0.9]])) == pytest.approx(0.5)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.zeros((2, 3)))

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scaling_and_norm_bound(self, c, n, seed):
        m = np.random.default_rng(seed).normal(size=(n, n))
        rho = spectral_radius(m)
        assert spectral_radius(c * m) == pytest.approx(c * rho, rel=1e-9, abs=1e-12)
        assert rho <= np.linalg.norm(m, 2) + 1e-12


class TestLeaderModel:
    def test_marginal_flag_recorded_not_enforced(self):
        stable = LeaderModel(S=0.5 * np.eye(2), v0=np.zeros(2))
        unstable = LeaderModel(S=2.0 * np.eye(2), v0=np.zeros(2))
        assert stable.rho_le_one
        assert not unstable.rho_le_one
        assert unstable.rho == pytest.approx(2.0)

    def test_trajectory(self):
        leader = LeaderModel(S=np.array([[1.0, 1.0], [0.0, 1.0]]), v0=np.array([0.0, 1.0]))
        traj = leader.trajectory(3)
        assert np.allclose(traj, [[0, 1], [1, 1], [2, 1], [3, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            LeaderModel(S=np.eye(2), v0=np.zeros(3))


class TestBankValidation:
    def test_mode_is_whether_s_est_is_present(self):
        assert ObserverBank(eta=np.zeros((2, 2))).mode == "distributed"
        assert ObserverBank(eta=np.zeros((2, 2)), s_est=np.zeros((2, 2, 2))).mode == "adaptive"
        with pytest.raises(DimensionError):
            ObserverBank(eta=np.zeros((2, 2)), s_est=np.zeros((2, 3, 3)))


class TestDistributedObserver:
    def test_zero_error_is_fixed_point(self):
        rng = np.random.default_rng(0)
        topo = random_topology(rng)
        leader = random_leader(rng)
        v = leader.v0.copy()
        bank = ObserverBank(eta=np.tile(v, (topo.n_followers, 1)))
        for t in range(40):
            bank = observer_step(leader, v, bank, topo.adjacency_at(t))
            v = leader.advance(v)
            assert np.allclose(bank.eta, v[None, :], atol=1e-10)

    def test_single_follower_halves_each_step(self):
        leader = LeaderModel(S=np.eye(2), v0=np.array([1.0, -1.0]))
        adj = single_link_adjacency()
        eta0 = np.array([[3.0, 5.0]])
        bank = ObserverBank(eta=eta0)
        v = leader.v0.copy()
        for t in range(1, 30):
            bank = observer_step(leader, v, bank, adj)
            v = leader.advance(v)
            expected = 0.5**t * (eta0[0] - leader.v0) + v
            assert np.allclose(bank.eta[0], expected, atol=1e-12)

    def test_formation_network_error_decays(self):
        from coopreg.scenarios import fig2_topology

        leader = LeaderModel(
            S=np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)),
            v0=np.array([0.0, 0.0, 1.0, 1.0]),
        )
        topo = fig2_topology()
        bank = ObserverBank(eta=np.zeros((4, 4)))
        norms = simulate_observer_norms(topo, leader, bank, 300)["eta_tilde"]
        fit = fit_decay(norms)
        assert fit.decaying
        assert norms[-1] < 1e-8


class TestAdaptiveObserver:
    def test_exact_matrix_knowledge_reduces_to_distributed(self):
        rng = np.random.default_rng(3)
        topo = random_topology(rng)
        leader = random_leader(rng)
        n, q = topo.n_followers, leader.q
        eta0 = rng.normal(size=(n, q))
        adaptive = ObserverBank(eta=eta0, s_est=np.tile(leader.S, (n, 1, 1)))
        distributed = ObserverBank(eta=eta0)
        v = leader.v0.copy()
        for t in range(100):
            adj = topo.adjacency_at(t)
            adaptive = observer_step(leader, v, adaptive, adj)
            distributed = observer_step(leader, v, distributed, adj)
            v = leader.advance(v)
            assert np.allclose(adaptive.eta, distributed.eta, atol=1e-12)
            assert np.allclose(adaptive.s_est, leader.S[None], atol=1e-12)

    def test_single_follower_matrix_error_halves(self):
        leader = LeaderModel(S=np.array([[0.9, 0.1], [0.0, 0.8]]), v0=np.zeros(2))
        adj = single_link_adjacency()
        s0 = np.zeros((1, 2, 2))
        bank = ObserverBank(eta=np.zeros((1, 2)), s_est=s0)
        for t in range(1, 25):
            bank = observer_step(leader, leader.v0, bank, adj)
            expected = leader.S + 0.5**t * (s0[0] - leader.S)
            assert np.allclose(bank.s_est[0], expected, atol=1e-13)

    def test_unknown_matrix_both_errors_vanish(self):
        rng = np.random.default_rng(11)
        topo = random_topology(rng)
        leader = random_leader(rng)
        bank = ObserverBank(
            eta=rng.normal(size=(topo.n_followers, leader.q)),
            s_est=np.zeros((topo.n_followers, leader.q, leader.q)),
        )
        norms = simulate_observer_norms(topo, leader, bank, 400)
        assert norms["s_tilde"][-1] < 1e-10
        assert norms["eta_tilde"][-1] < 1e-10
        assert fit_decay(norms["s_tilde"]).decaying
        assert fit_decay(norms["eta_tilde"]).decaying

    def test_matrix_consensus_converges_for_expanding_leader(self):
        # the matrix half never touches the leader state, so it contracts
        # even when rho(S) > 1; run with v0 = 0 to keep states finite
        rng = np.random.default_rng(5)
        topo = random_topology(rng)
        q = 3
        m = rng.normal(size=(q, q))
        leader = LeaderModel(S=m * (1.2 / spectral_radius(m)), v0=np.zeros(q))
        bank = ObserverBank(eta=np.zeros((topo.n_followers, q)),
                            s_est=np.zeros((topo.n_followers, q, q)))
        norms = simulate_observer_norms(topo, leader, bank, 400)
        assert norms["s_tilde"][-1] < 1e-10
        assert np.all(norms["eta_tilde"] == 0.0)


class TestErrorFormEquivalence:
    def test_zero_error_state_stays_zero(self):
        rng = np.random.default_rng(1)
        topo = random_topology(rng)
        leader = random_leader(rng)
        n, q = topo.n_followers, leader.q
        eta_tilde, s_tilde = error_form_step(np.zeros(n * q), np.zeros((n * q, q)),
                                             topo.adjacency_at(0), leader, leader.v0)
        assert np.all(eta_tilde == 0.0) and np.all(s_tilde == 0.0)

    def test_single_follower_identity_leader_halves(self):
        leader = LeaderModel(S=np.eye(2), v0=np.zeros(2))
        eta_tilde, s_tilde = error_form_step(np.array([2.0, -4.0]), None,
                                             single_link_adjacency(), leader, leader.v0)
        assert np.allclose(eta_tilde, [1.0, -2.0]) and s_tilde is None

    def test_one_step_matches_bank_on_random_instances(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            topo = random_topology(rng)
            leader = random_leader(rng)
            n, q = topo.n_followers, leader.q
            mode = "adaptive" if seed % 2 else "distributed"
            s_est = (leader.S[None] + rng.uniform(-0.3, 0.3, size=(n, q, q))
                     if mode == "adaptive" else None)
            bank = ObserverBank(eta=rng.normal(size=(n, q)), s_est=s_est)
            assert bank_vs_error_form(topo, leader, bank, 1) < 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @example(1459)  # the error grows to 2.5e4: 7.7e-10 apart
    @example(4313)  # the error grows to 1.0e7: 7.1e-7 apart
    @settings(max_examples=30, deadline=None)
    def test_full_trajectories_match(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        leader = random_leader(rng)
        n, q = topo.n_followers, leader.q
        bank = ObserverBank(
            eta=rng.normal(size=(n, q)),
            s_est=leader.S[None] + rng.uniform(-0.3, 0.3, size=(n, q, q)),
        )
        # Each step, both routes round every entry from at most (N + 2) q
        # products (N <= 6, q <= 4): a few 1e-15 of the magnitudes entering
        # the step, which are the error entries and the leader state, of order
        # one in this family.  Over 100 steps that stays below about 1e-12 of
        # max(1, largest error entry); the bound leaves a factor 100 over that,
        # and is the old absolute 1e-10 wherever the errors stay <= 1.  A scan
        # of seeds 0-10,000 found at most 7.1e-14 of it (seed 4313).
        scale = max(1.0, error_magnitude(topo, leader, bank, 100))
        assert bank_vs_error_form(topo, leader, bank, 100) < 1e-10 * scale


class TestKronFactorization:
    def test_zero_and_one_steps_exact(self):
        rng = np.random.default_rng(7)
        topo = random_topology(rng)
        leader = random_leader(rng)
        assert kron_factorization_check(topo, leader, 0) == 0.0
        assert kron_factorization_check(topo, leader, 1) == 0.0

    def test_long_products_agree(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            topo = random_topology(rng)
            leader = random_leader(rng)
            assert kron_factorization_check(topo, leader, 40) < 1e-9

    def test_moderate_norm_horizon_100(self):
        # deviations stay tiny out to long horizons for leader norms up to 2
        rng = np.random.default_rng(123)
        topo = random_topology(rng)
        leader = random_leader(rng, q=3, rho=1.0)
        assert np.linalg.norm(leader.S, 2) <= 2.0
        assert kron_factorization_check(topo, leader, 100) < 1e-9


class TestPerturbedConvergence:
    def test_constant_schur_rate_matches_spectrum(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4))
        c = m * (0.8 / spectral_radius(m))
        fit = perturbed_convergence_check(
            lambda t: c, lambda t: np.zeros(4), rng.normal(size=4), 300
        )
        assert fit.rate == pytest.approx(0.8, abs=0.02)

    def test_origin_is_equilibrium(self):
        fit = perturbed_convergence_check(
            lambda t: np.eye(3) * 0.5, lambda t: np.zeros(3), np.zeros(3), 50
        )
        assert fit.floored

    def test_vanishing_drive_keeps_geometric_decay(self):
        rng = np.random.default_rng(9)
        topo = random_topology(rng)
        leader = random_leader(rng)
        dim = topo.n_followers * leader.q
        d0 = rng.normal(size=dim)
        fit = perturbed_convergence_check(
            lambda t: np.kron(topo.adjacency_at(t).lambda_block, leader.S),
            lambda t: 0.9**t * d0,
            rng.normal(size=dim),
            300,
        )
        assert fit.rate < 1.0


class TestFitDecay:
    def test_exact_geometric_series(self):
        t = np.arange(200)
        fit = fit_decay(3.0 * 0.7**t)
        assert fit.rate == pytest.approx(0.7, abs=0.01)
        assert fit.prefactor == pytest.approx(3.0, rel=0.05)
        assert fit.residual < 1e-8

    def test_constant_series_rate_one(self):
        fit = fit_decay(np.full(100, 2.0))
        assert fit.rate == pytest.approx(1.0, abs=1e-9)
        assert not fit.decaying

    def test_all_floor_series(self):
        fit = fit_decay(np.zeros(50))
        assert fit.floored and fit.decaying

    def test_too_short(self):
        fit = fit_decay(np.array([1.0]))
        assert np.isnan(fit.rate)
        assert not fit.decaying

    def test_floor_excludes_noise_plateau(self):
        t = np.arange(400)
        series = np.maximum(2.0 * 0.8**t, 1e-14)
        fit = fit_decay(series)
        assert fit.rate == pytest.approx(0.8, abs=0.01)


class TestTheoremProperties:
    def test_distributed_errors_decay_on_random_family(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            topo = random_topology(rng)
            leader = random_leader(rng)
            bank = ObserverBank(eta=rng.normal(size=(topo.n_followers, leader.q)))
            norms = simulate_observer_norms(topo, leader, bank, 500)["eta_tilde"]
            fit = fit_decay(norms)
            assert fit.decaying
            assert fit.floored or fit.residual < 0.1
            assert norms[-1] < 1e-8
