"""Truth simulation, replica engine, Monte Carlo determinism."""

import tracemalloc

import numpy as np
import pytest

from gridobs import experiments, observer, shs, sim
from gridobs.sim import (SimConfig, derive_seed, monte_carlo, run_replica,
                         simulate_truth, splitmix64)

from conftest import delta_channels, five_bus_scenarios

POLES = [-4.8, -3.6, -4.0, -4.4]


@pytest.fixture(scope="module")
def setup(ieee5_lin):
    scs = five_bus_scenarios()
    obs = observer.design(ieee5_lin.A, scs, POLES, tau=0.6261)
    return ieee5_lin.A, scs, obs


def _four_channel_scenarios():
    """All four states sensed at delivery 0.8: 16 scenarios, 15 gains."""
    labels = ["delta_1", "omega_1", "delta_2", "omega_2"]
    chans = delta_channels(labels, [(m, 0.8, 0.01) for m in
                                    ("1.delta", "1.omega", "2.delta", "2.omega")])
    return shs.scenarios_from_channels(chans)


@pytest.fixture(scope="module")
def four_channel(ieee5_lin):
    scs = _four_channel_scenarios()
    return scs, observer.design(ieee5_lin.A, scs, POLES, tau=0.6261)


def _basis_row_maps(A, obs, scenario_set):
    """Oracle for `sim.interval_maps`: the substep recursion on basis rows.

    Runs the exponential-Euler filter of `observer.step_estimate` once on
    the 2n + n_sub n_ch basis inputs (n estimate rows, n truth rows, one
    row per lane draw) and reads the maps off the results.
    """
    from gridobs.numerics import matrix_exponential
    n = obs.n
    n_sub = obs.n_sub
    h = obs.tau / n_sub
    n_ch = len(scenario_set.channels)
    Eh_T = matrix_exponential(A, h).T
    xs = np.empty((n_sub, n, n))
    E = np.eye(n)
    for j in range(n_sub):
        xs[j] = E
        E = E @ Eh_T
    n_in = 2 * n + n_sub * n_ch
    maps = {}
    for s in scenario_set:
        d = obs.decomps[s.index]
        if d.n_i == 0 or d.L is None:
            maps[s.index] = np.zeros((n_in, n))
            maps[s.index][:n] = obs.exp_A_tau.T
            continue
        lanes = np.array(s.up_channels, dtype=int)
        sig = np.diag(s.sigma)
        dy = np.zeros((n_in, n_sub, s.r))
        dy[n:2 * n] = np.einsum("jbn,cn->bjc", xs, s.C) * h
        for pos, lane in enumerate(lanes):
            draw_rows = 2 * n + np.arange(n_sub) * n_ch + lane
            dy[draw_rows, np.arange(n_sub), pos] = sig[pos] * np.sqrt(h)
        kdim = n - d.n_i
        E_T = obs.exp_mix_h[s.index].T
        gain_T = np.zeros((s.r, n))
        gain_T[:, kdim:] = d.L.T
        Z = np.zeros((n_in, n))
        Z[:n] = np.hstack([d.G.T, d.F.T])
        for j in range(n_sub):
            innov = dy[:, j, :] - (Z[:, kdim:] @ d.C2.T) * h
            Z = Z @ E_T + innov @ gain_T
        maps[s.index] = Z @ d.T.T
    return E, maps


def _alphabet(name, ieee5_lin, n_sub):
    """(A, scenarios, observer) for fig3's alphabet or the four-channel one."""
    if name == "fig3":
        cfg = experiments.load_experiment("fig3")
        cfg["observer"]["n_sub"] = n_sub
        _, lin, scs, obs = experiments.build_pipeline(cfg)
        return lin.A, scs, obs
    scs = _four_channel_scenarios()
    return ieee5_lin.A, scs, observer.design(ieee5_lin.A, scs, POLES, tau=0.6261,
                                             n_sub=n_sub)


def _conditional_moments(maps, paths, e0):
    """Exact mean and variance of ||e_k||^2 given each replica's path.

    With x0 = 0 the truth stays at zero and the error follows
    e' = e P_a + xi N_a with standard normal xi, so conditional on the
    path e_k is Gaussian with mean m and covariance C propagated by
    m <- m P_a and C <- P_a^T C P_a + N_a^T N_a.
    """
    R, K = paths.shape
    n = len(e0)
    mean = np.tile(np.asarray(e0, dtype=float), (R, 1))
    cov = np.zeros((R, n, n))
    expect = np.empty((R, K + 1))
    var = np.empty((R, K + 1))
    for k in range(K + 1):
        if k:
            for idx in np.unique(paths[:, k - 1]):
                rows = paths[:, k - 1] == idx
                P, N = maps[idx][:n], maps[idx][2 * n:]
                mean[rows] = mean[rows] @ P
                cov[rows] = P.T @ cov[rows] @ P + N.T @ N
        expect[:, k] = np.sum(mean ** 2, axis=1) + np.trace(cov, axis1=1, axis2=2)
        var[:, k] = (2 * np.sum(cov * cov, axis=(1, 2))
                     + 4 * np.einsum("ri,rij,rj->r", mean, cov, mean))
    return expect, var


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
    def test_single_replica_matches_reference_engine(self, setup, four_channel,
                                                     monkeypatch):
        # a nonzero x0 exercises the truth map Qx; the horizon stays short
        # because A's +5.2 mode makes the truth grow like e^(5.2 t).  That
        # growth swamps the noise in err_sq, so a run from x0 = 0 checks the
        # lane streams across draw blocks against err_sq alone
        A, scs, obs = setup
        rho7 = five_bus_scenarios(rho1=0.7, rho2=0.7)
        designs = [(scs, obs), (rho7, observer.design(A, rho7, POLES, tau=0.6261)),
                   four_channel]
        x0 = np.array([0.3, -0.2, 0.1, 0.4])
        cfgs = [SimConfig(K=8, replicas=12, seed=99, x0=x, e0=[2.0, 0.0, 1.0, 0.0])
                for x in (x0, np.zeros(4))]
        visited = []
        for scs_i, obs_i in designs:
            for cfg in cfgs:
                truth = [np.linalg.matrix_power(obs_i.exp_A_tau, k) @ cfg.x0
                         for k in range(cfg.K + 1)]
                norm_x = np.sum(np.square(truth), axis=1)
                # every horizon in one draw block; then each replica's horizon
                # in chunks of 3, 3 and 2 intervals; then blocks of 5, 5 and 2
                # replicas
                trajs = [monte_carlo(A, obs_i, scs_i, cfg)]
                per_interval = 8 * obs_i.n_sub * len(scs_i.channels)
                for budget in (3 * per_interval, 5 * cfg.K * per_interval):
                    monkeypatch.setattr(sim, "_DRAW_BLOCK_BYTES", budget)
                    trajs.append(monte_carlo(A, obs_i, scs_i, cfg))
                    monkeypatch.undo()
                for r in range(cfg.replicas):
                    _, err, alphas = run_replica(A, obs_i, scs_i, cfg, replica_index=r)
                    for traj in trajs:
                        assert np.array_equal(traj.paths[r], alphas)
                        rel = np.abs(traj.err_sq[r] - err) / (err + norm_x)
                        assert np.max(rel) < 1e-9
            visited.append(set(trajs[0].paths.ravel().tolist()))
        assert 4 in visited[1]                 # rho 0.7: the no-sensor scenario
        assert len(visited[2]) > 4             # four channels, lanes down

    def test_peak_memory_stays_within_draw_budget(self, four_channel, ieee5_lin):
        # mc_alphabet16's sizes: the engine holds the error array, at most
        # two draw blocks (the buffer and one scenario group's rows) and the
        # maps, and never an (R, S n) or (R, n_sub n_ch) temporary
        scs, obs = four_channel
        cfg = SimConfig(K=60, replicas=200, seed=0, e0=[2.0, 0.0, 1.0, 0.0])
        _, maps = sim.interval_maps(ieee5_lin.A, obs, scs)
        budget = (8 * cfg.replicas * (cfg.K + 1) * obs.n
                  + 2 * sim._DRAW_BLOCK_BYTES
                  + sum(M.nbytes for M in maps.values()))
        del maps
        # a first call outside the trace, so one-time imports do not count
        monte_carlo(ieee5_lin.A, obs, scs, SimConfig(K=2, replicas=2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            monte_carlo(ieee5_lin.A, obs, scs, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_deterministic_under_fixed_seed(self, setup):
        A, scs, obs = setup
        cfg = SimConfig(K=15, replicas=8, seed=7, e0=[1.0, 0.0, 0.0, 0.0])
        t1 = monte_carlo(A, obs, scs, cfg)
        t2 = monte_carlo(A, obs, scs, cfg)
        assert np.array_equal(t1.mean_err_sq, t2.mean_err_sq)
        assert np.array_equal(t1.paths, t2.paths)
        assert np.array_equal(t1.per_state_mean_sq, t2.per_state_mean_sq)

    def test_switch_and_noise_streams_independent(self, setup):
        # every lane is drawn on every substep, whichever channels are up, so
        # a path that drops channels (scenarios 2, 3 and 4) gets the same
        # increments on its all-up intervals as a path that never drops one
        A, scs, _ = setup
        K, n_sub, seed = 12, 8, derive_seed(222, 0)
        all_up = np.ones(K, dtype=int)
        dropping = np.array([1, 2, 1, 3, 4, 1, 1, 2, 3, 1, 4, 1])
        _, incs_up = simulate_truth(A, np.zeros(4), K, 0.3, n_sub, all_up, scs, seed)
        _, incs_drop = simulate_truth(A, np.zeros(4), K, 0.3, n_sub, dropping, scs, seed)
        both_up = np.flatnonzero(dropping == 1)
        assert both_up.size == 6
        for k in both_up:
            assert np.any(incs_up[k])
            assert np.array_equal(incs_up[k], incs_drop[k])

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

    def test_fig3_mean_error_matches_exact_second_moment(self):
        cfg = experiments.load_experiment("fig3")
        _, lin, scs, obs = experiments.build_pipeline(cfg)
        simcfg, traj = experiments.run_simulation(cfg, lin, obs, scs)
        assert simcfg.x0 is None
        _, maps = sim.interval_maps(lin.A, obs, scs)
        expect, var = _conditional_moments(maps, traj.paths, cfg["sim"]["e0"])
        R = simcfg.replicas
        mean = expect.mean(axis=0)
        sd = np.sqrt(var.sum(axis=0)) / R
        assert traj.mean_err_sq[0] == pytest.approx(mean[0], rel=1e-15)
        z = (traj.mean_err_sq[1:] - mean[1:]) / sd[1:]
        assert np.max(np.abs(z)) < 4.5


class TestIntervalMaps:
    @pytest.mark.parametrize("n_sub", [1, 2, 64])
    @pytest.mark.parametrize("name", ["fig3", "four_channel"])
    def test_closed_form_matches_basis_row_recursion(self, ieee5_lin, name, n_sub):
        A, scs, obs = _alphabet(name, ieee5_lin, n_sub)
        E, maps = sim.interval_maps(A, obs, scs)
        E_ref, ref = _basis_row_maps(A, obs, scs)
        assert np.array_equal(E, E_ref)
        n = obs.n
        assert any(s.r == 0 for s in scs)      # the no-sensor scenario
        for s in scs:
            assert maps[s.index].shape == ref[s.index].shape
            # P, Qx and N each within 1e-13 of the oracle's largest entry
            for rows in (slice(0, n), slice(n, 2 * n), slice(2 * n, None)):
                got, want = maps[s.index][rows], ref[s.index][rows]
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_noise_rows_are_the_filter_driven_by_one_lane_draw(self, ieee5_lin):
        A, scs, obs = _alphabet("fig3", ieee5_lin, 64)
        _, maps = sim.interval_maps(A, obs, scs)
        n, n_sub, n_ch = obs.n, obs.n_sub, len(scs.channels)
        h = obs.tau / n_sub
        for s in scs:
            N = maps[s.index][2 * n:].reshape(n_sub, n_ch, n)
            down = [lane for lane in range(n_ch) if lane not in s.up_channels]
            assert not np.any(N[:, down])
            for pos, lane in enumerate(s.up_channels):
                for j in range(n_sub):
                    dy = np.zeros((n_sub, s.r))
                    dy[j, pos] = s.sigma[pos, pos] * np.sqrt(h)   # xi = 1
                    want = observer.step_estimate(obs, np.zeros(n), s.index, dy)
                    assert np.max(np.abs(N[j, lane] - want)) <= 1e-13 * np.max(np.abs(want))
