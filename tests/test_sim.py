"""Truth simulation, replica engine, Monte Carlo determinism."""

import numpy as np
import pytest

from gridobs import observer, shs, sim
from gridobs.sim import (SimConfig, derive_seed, monte_carlo, run_replica,
                         simulate_truth, splitmix64)

from conftest import delta_channels, five_bus_scenarios

POLES = [-4.8, -3.6, -4.0, -4.4]


@pytest.fixture(scope="module")
def setup(ieee5_lin):
    scs = five_bus_scenarios()
    obs = observer.design(ieee5_lin.A, scs, POLES, tau=0.6261)
    return ieee5_lin.A, scs, obs


class TestSeeding:
    def test_splitmix_deterministic_and_spread(self):
        vals = {splitmix64(k) for k in range(1000)}
        assert len(vals) == 1000
        assert splitmix64(42) == splitmix64(42)

    def test_derive_seed_changes_with_every_index(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2) != derive_seed(2, 2)


class TestSimulateTruth:
    def test_noise_free_increments_reproduce_state(self, setup):
        A, scs, obs = setup
        scs0 = five_bus_scenarios(sigma=0.0, overrides=None)
        x0 = np.array([0.5, -0.1, 0.3, 0.2])
        K, n_sub, tau = 3, 16, 0.4
        alphas = np.ones(K, dtype=int)
        states, incs = simulate_truth(A, x0, K, tau, n_sub, alphas, scs0, 7)
        h = tau / n_sub
        C1 = scs0.by_index(1).C
        for k in range(K):
            for j in range(n_sub):
                x = states[k * n_sub + j]
                assert np.allclose(incs[k][j] / h, C1 @ x, atol=1e-12)

    def test_zero_state_measurements_are_pure_noise(self, setup):
        A, scs, obs = setup
        K, n_sub, tau = 2, 32, 0.6261
        alphas = np.ones(K, dtype=int)
        states, incs = simulate_truth(A, np.zeros(4), K, tau, n_sub, alphas, scs, 3)
        assert np.max(np.abs(states)) == 0.0
        h = tau / n_sub
        samples = np.concatenate([inc.ravel() for inc in incs])
        # increments ~ N(0, sigma^2 h) with sigma = 0.01
        assert np.std(samples) == pytest.approx(0.01 * np.sqrt(h), rel=0.2)

    def test_brownian_scaling_of_summed_increments(self, setup):
        A, scs, obs = setup
        K, n_sub, tau, R = 1, 8, 1.0, 10_000
        sums = np.empty(R)
        for r in range(R):
            _, incs = simulate_truth(A, np.zeros(4), K, tau, n_sub,
                                     np.ones(1, dtype=int), scs, r)
            sums[r] = incs[0][:, 0].sum()
        # variance of the integrated channel noise over [0, T] is sigma^2 T
        assert np.var(sums) == pytest.approx(0.01 ** 2 * tau, rel=0.05)


class TestRunReplica:
    def test_zero_error_zero_noise_stays_zero(self, setup):
        A, scs, obs = setup
        scs0 = five_bus_scenarios(sigma=0.0, overrides=None)
        obs0 = observer.design(A, scs0, POLES, tau=0.6261)
        cfg = SimConfig(K=12, seed=5, x0=np.array([0.4, 0.0, -0.2, 0.1]))
        eps, err, alphas = run_replica(A, obs0, scs0, cfg)
        assert np.max(err) < 1e-16

    def test_forced_open_loop_growth(self, setup):
        # all sensors down for the whole run: the estimate is pure model
        # propagation, and with an unstable mode the error grows like the
        # open-loop transition norm along the initial-error direction
        A, scs, obs = setup
        chans = delta_channels(["delta_1", "omega_1", "delta_2", "omega_2"],
                               [("1.delta", 1e-9, 0.0), ("2.delta", 1e-9, 0.0)])
        scs_down = shs.scenarios_from_channels(chans)
        obs_down = observer.design(A, scs_down, POLES, tau=0.6261)
        cfg = SimConfig(K=6, seed=1, e0=np.array([2.0, 0.0, 1.0, 0.0]))
        eps, err, alphas = run_replica(A, obs_down, scs_down, cfg)
        assert np.all(alphas == 4)   # outage with overwhelming probability
        e0 = np.array([2.0, 0.0, 1.0, 0.0])
        for k in range(cfg.K + 1):
            want = np.linalg.matrix_power(obs.exp_A_tau, k) @ e0
            assert np.allclose(eps[k], want, rtol=1e-9, atol=1e-9)

    def test_published_design_converges(self, setup):
        A, scs, obs = setup
        cfg = SimConfig(K=40, replicas=64, seed=2024, e0=[2.0, 0.0, 1.0, 0.0])
        traj = monte_carlo(A, obs, scs, cfg)
        assert traj.mean_err_sq[0] == pytest.approx(5.0)
        assert traj.time_to_fraction(0.01) <= 30


class TestMonteCarlo:
    def test_single_replica_matches_reference_engine(self, setup):
        A, scs, obs = setup
        cfg = SimConfig(K=25, replicas=1, seed=99, e0=[2.0, 0.0, 1.0, 0.0])
        eps, err, alphas = run_replica(A, obs, scs, cfg, replica_index=0)
        traj = monte_carlo(A, obs, scs, cfg)
        assert np.allclose(traj.mean_err_sq, err, atol=1e-10)
        assert np.array_equal(traj.paths[0], alphas)

    def test_deterministic_under_fixed_seed(self, setup):
        A, scs, obs = setup
        cfg = SimConfig(K=15, replicas=8, seed=7, e0=[1.0, 0.0, 0.0, 0.0])
        t1 = monte_carlo(A, obs, scs, cfg)
        t2 = monte_carlo(A, obs, scs, cfg)
        assert np.array_equal(t1.mean_err_sq, t2.mean_err_sq)
        assert np.array_equal(t1.paths, t2.paths)
        assert np.array_equal(t1.per_state_mean_sq, t2.per_state_mean_sq)

    def test_switch_and_noise_streams_independent(self, setup):
        A, _, _ = setup
        scs = five_bus_scenarios(rho1=0.7, rho2=0.7)
        obs = observer.design(A, scs, POLES, tau=0.3)
        base = SimConfig(K=12, replicas=3, seed=5, e0=[1.0, 0, 0, 0],
                         switch_seed=111, noise_seed=222)
        other_switch = SimConfig(K=12, replicas=3, seed=5, e0=[1.0, 0, 0, 0],
                                 switch_seed=777, noise_seed=222)
        t1 = monte_carlo(A, obs, scs, base)
        t2 = monte_carlo(A, obs, scs, other_switch)
        # switching paths changed; noise draws per substep did not: verify
        # via the pure-noise measurement of a zero-state replica
        assert not np.array_equal(t1.paths, t2.paths)
        _, incs1 = simulate_truth(A, np.zeros(4), 12, obs.tau, obs.n_sub,
                                  np.ones(12, dtype=int), scs,
                                  derive_seed(222, 0))
        _, incs2 = simulate_truth(A, np.zeros(4), 12, obs.tau, obs.n_sub,
                                  np.ones(12, dtype=int), scs,
                                  derive_seed(222, 0))
        for a, b in zip(incs1, incs2):
            assert np.array_equal(a, b)

    def test_zeroing_noise_keeps_switching_paths(self, setup):
        A, scs, obs = setup
        scs0 = five_bus_scenarios(sigma=0.0, overrides=None)
        obs0 = observer.design(A, scs0, POLES, tau=0.6261)
        cfg = SimConfig(K=20, replicas=5, seed=404, e0=[2.0, 0, 1.0, 0])
        t_noisy = monte_carlo(A, obs, scs, cfg)
        t_clean = monte_carlo(A, obs0, scs0, cfg)
        assert np.array_equal(t_noisy.paths, t_clean.paths)

    def test_doubling_substeps_within_replica_error(self, setup):
        A, scs, obs = setup
        cfg = SimConfig(K=60, replicas=48, seed=9, e0=[2.0, 0, 1.0, 0])
        t64 = monte_carlo(A, obs, scs, cfg)
        obs128 = observer.design(A, scs, POLES, tau=0.6261, n_sub=128)
        t128 = monte_carlo(A, obs128, scs, cfg)
        tail = slice(40, None)
        se = np.sqrt(np.mean(t64.var_err_sq[tail]) / cfg.replicas)
        diff = abs(np.mean(t64.mean_err_sq[tail]) - np.mean(t128.mean_err_sq[tail]))
        assert diff < 3 * se

    def test_noise_free_decay_rate_bounded_by_gamma(self, setup):
        from gridobs import analysis
        A, _, _ = setup
        scs0 = five_bus_scenarios(sigma=0.0, overrides=None)
        obs0 = observer.design(A, scs0, POLES, tau=0.6261)
        gamma = analysis.contraction(obs0, scs0).gamma_exact
        cfg = SimConfig(K=12, replicas=32, seed=3, e0=[2.0, 0, 1.0, 0])
        traj = monte_carlo(A, obs0, scs0, cfg)
        log_norm = 0.5 * np.log(traj.err_sq)       # per-replica log ||eps_k||
        slopes = (log_norm[:, -1] - log_norm[:, 0]) / cfg.K
        assert slopes.mean() <= np.log(gamma) + 0.05

    def test_long_run_floor_matches_analysis(self, setup):
        from gridobs import analysis
        A, scs, obs = setup
        ss = analysis.steady_state(obs, scs)
        cfg = SimConfig(K=250, replicas=96, seed=1515, e0=[2.0, 0, 1.0, 0])
        traj = monte_carlo(A, obs, scs, cfg)
        window = traj.mean_err_sq[120:]
        floor = float(np.mean(window))
        se = float(np.sqrt(np.mean(traj.var_err_sq[120:]) / cfg.replicas))
        assert abs(floor - ss.mu_state) < 3 * se + 0.05 * ss.mu_state
