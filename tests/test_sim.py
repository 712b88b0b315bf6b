"""Monte Carlo engine, its replica oracle, the substep oracle, determinism."""

import dataclasses
import itertools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from gridobs import analysis, experiments, observer, shs, sim
from gridobs.sim import (SimConfig, _stream_loader, derive_seed, derive_seeds, monte_carlo,
                        pcg64_states, run_replica, seed_sequence_words, splitmix64)

from conftest import delta_channels, five_bus_scenarios
from mc_digest import REPLICAS, SEEDS, designs, digest
from substep import (basis_row_maps, closed_form_maps, exact_floor, simulate_truth,
                     step_estimate)

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


def _figure(name):
    """(linearization, scenarios, observer, config) of a bundled experiment."""
    cfg = experiments.load_experiment(name)
    _, lin, scs, obs = experiments.build_pipeline(cfg)
    return lin, scs, obs, cfg


def _conditional_moments(obs, paths, e0):
    """Exact mean and variance of ||e_k||^2 given each replica's path.

    Conditional on the path, e_k is Gaussian with mean m and covariance C
    propagated by m <- Lam_a m and C <- Lam_a C Lam_a^T + Q_a Q_a^T.
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
                Lam, Q = obs.Lam[idx], obs.Q[idx]
                mean[rows] = mean[rows] @ Lam.T
                cov[rows] = Lam @ cov[rows] @ Lam.T + Q @ Q.T
        expect[:, k] = np.sum(mean ** 2, axis=1) + np.trace(cov, axis1=1, axis2=2)
        var[:, k] = (2 * np.sum(cov * cov, axis=(1, 2))
                     + 4 * np.einsum("ri,rij,rj->r", mean, cov, mean))
    return expect, var


class _PCG64Subclass(np.random.PCG64):
    """Same state struct as PCG64, but not PCG64 itself."""


class TestSeeding:
    def test_splitmix_deterministic_and_spread(self):
        vals = {splitmix64(k) for k in range(1000)}
        assert len(vals) == 1000
        assert splitmix64(42) == splitmix64(42)

    def test_derive_seed_changes_with_every_index(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2) != derive_seed(2, 2)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, np.int64(-5)])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # derive_seed keeps 64 bits, so -1 would run 2**64 - 1's streams
        with pytest.raises(ValueError, match=str(seed)):
            SimConfig(K=1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seed_edges_are_accepted(self, seed):
        assert SimConfig(K=1, seed=seed).seed == seed

    @pytest.mark.parametrize("root", [0, 1, 0x5157, 2**63, 2**64 - 1])
    def test_bulk_seeds_match_derive_seed(self, root):
        seeds = derive_seeds(root, 300)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(root, r) for r in range(300)]

    def test_bulk_states_match_numpy_seeding(self):
        # edge seeds: one or two 32-bit entropy words, top bits set
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += np.random.default_rng(8).integers(0, 2**64, 200, dtype=np.uint64).tolist()
        words = seed_sequence_words(seeds)
        assert words.shape == (len(seeds), 4)
        states = pcg64_states(words)
        assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
        m = 2**64 - 1
        for seed, w, got in zip(seeds, words, states):
            assert np.array_equal(w, np.random.SeedSequence(seed).generate_state(4, np.uint64))
            want = np.random.PCG64(seed).state["state"]
            assert got.tolist() == [want["state"] & m, want["state"] >> 64,
                                    want["inc"] & m, want["inc"] >> 64]

    def test_reused_state_document_starts_each_stream_fresh(self):
        # the loader writes into one PCG64's state struct; a stream left
        # mid-way, with a buffered 32-bit half, must not leak into the next
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        streams = pcg64_states(seed_sequence_words(seeds)).view(np.uint8)
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        load = _stream_loader(bitgen)

        def draws(g):
            return (g.random(3).tolist() + g.standard_normal(5).tolist()
                    + g.random(3, dtype=np.float32).tolist())

        for a in range(len(seeds)):
            b = (a + 1) % len(seeds)
            load(streams[a])
            draws(gen)
            assert bitgen.state["has_uint32"] == 1
            load(streams[b])
            assert bitgen.state == np.random.PCG64(seeds[b]).state
            assert draws(gen) == draws(np.random.default_rng(seeds[b]))

    @pytest.mark.parametrize("kind", [np.random.SFC64, np.random.MT19937,
                                      np.random.PCG64DXSM, _PCG64Subclass])
    def test_loader_refuses_other_bit_generators_before_writing(self, kind):
        bitgen = kind(3)
        with pytest.raises(TypeError, match=f"PCG64, got {kind.__name__}"):
            _stream_loader(bitgen)
        assert np.array_equal(np.random.Generator(bitgen).integers(0, 2**63, 8),
                              np.random.Generator(kind(3)).integers(0, 2**63, 8))

    def test_switching_paths_match_their_pinned_digests(self):
        # the paths are integers from the PCG64 uniforms and the inverse-CDF
        # edges, so their digests hold on any BLAS; the pinned file is the
        # `paths` lines that tests/mc_digest.py prints
        pinned = Path(__file__).parent / "golden" / "mc_paths.txt"
        got = []
        for name, cfg in designs():
            _, lin, scs, obs = experiments.build_pipeline(cfg)
            for seed in SEEDS:
                for R in REPLICAS:
                    _, traj = experiments.run_simulation(cfg, lin, obs, scs,
                                                         seed=seed, replicas=R)
                    got.append(f"{name} seed={seed} R={R} paths {digest(traj.paths)}")
        assert got == pinned.read_text().splitlines()

    def test_loader_probe_catches_a_wrong_layout(self, monkeypatch):
        # a header whose buffered-half word sat 8 bytes further on: that
        # view reads the wrong word, and the probe must refuse it before
        # any stream is written
        monkeypatch.setattr(sim.ctypes, "sizeof", lambda t: 16)
        with pytest.raises(RuntimeError, match="layout"):
            _stream_loader(np.random.PCG64(0))


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
        cfg = SimConfig(K=12, seed=5)
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
    def test_single_replica_matches_reference_engine(self, setup, four_channel):
        A, scs, obs = setup
        rho7 = five_bus_scenarios(rho1=0.7, rho2=0.7)
        designs = [(scs, obs), (rho7, observer.design(A, rho7, POLES, tau=0.6261)),
                   four_channel]
        cfg = SimConfig(K=8, replicas=12, seed=99, e0=[2.0, 0.0, 1.0, 0.0])
        visited = []
        for scs_i, obs_i in designs:
            traj = monte_carlo(A, obs_i, scs_i, cfg)
            for r in range(cfg.replicas):
                _, err, alphas = run_replica(A, obs_i, scs_i, cfg, replica_index=r)
                assert np.array_equal(traj.paths[r], alphas)
                assert np.max(np.abs(traj.err_sq[r] - err) / err) < 1e-9
            visited.append(set(traj.paths.ravel().tolist()))
        assert 4 in visited[1]                 # rho 0.7: the no-sensor scenario
        assert len(visited[2]) > 4             # four channels, lanes down

    def test_peak_memory_stays_within_draw_budget(self, four_channel, ieee5_lin):
        # mc_alphabet16's sizes: the engine holds the error array (which
        # doubles as the draw buffer), the paths and one block's product
        # with the stacked maps, and never a copy of the draws or an
        # (R, K, n, n) temporary
        scs, obs = four_channel
        cfg = SimConfig(K=60, replicas=200, seed=0, e0=[2.0, 0.0, 1.0, 0.0])
        R, K, n = cfg.replicas, cfg.K, obs.n
        budget = 8 * R * (K + 1) * n + 8 * R * K * n + 8 * R * 2 * n * n
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

    @pytest.mark.parametrize("r", [0, 1, 2, 37, 123, 198])
    def test_replica_independent_of_replica_count(self, four_channel, ieee5_lin, r):
        # r = 0 runs alone beside the spare zero row, r = 198 is the last of
        # an odd count
        scs, obs = four_channel
        cfg = SimConfig(K=20, replicas=200, seed=5, e0=[1.0, 0.0, 0.5, 0.0])
        full = monte_carlo(ieee5_lin.A, obs, scs, cfg)
        alone = monte_carlo(ieee5_lin.A, obs, scs, dataclasses.replace(cfg, replicas=r + 1))
        assert np.array_equal(alone.paths[r], full.paths[r])
        assert np.array_equal(alone.err_sq[r], full.err_sq[r])

    def test_large_alphabet_runs_in_blocks(self, four_channel, ieee5_lin):
        # 9 channels at delivery 0.5: 512 equally likely scenarios with
        # random maps, so a block holds two replicas and an odd count ends
        # on a lone replica beside the spare row
        _, obs = four_channel
        rng = np.random.default_rng(512)
        chans = [shs.SensorChannel(f"c{j}", np.eye(4)[j % 4], 0.5, 0.01) for j in range(9)]
        scs = shs.scenarios_from_channels(chans)
        S = len(scs) + 1                       # scenario indices run 1..512
        big = dataclasses.replace(
            obs, Lam={s.index: 0.3 * rng.standard_normal((4, 4)) for s in scs},
            Q={s.index: 0.1 * rng.standard_normal((4, 4)) for s in scs})
        cfg = SimConfig(K=5, replicas=40, seed=8, e0=[1.0, -0.5, 0.25, 2.0])
        R, K, n = cfg.replicas, cfg.K, obs.n
        monte_carlo(ieee5_lin.A, big, scs, SimConfig(K=2, replicas=2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            full = monte_carlo(ieee5_lin.A, big, scs, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the error array and the paths with their spare rows, the stacked
        # maps, one two-row block's product, the (2R, 4) stream table and
        # 16 KiB for the generator and per-interval indices; without blocks
        # the product alone would take 8 * R * S * n bytes, more than all
        budget = (8 * (R + 1) * (K + 1) * n + 8 * (R + 1) * K + 8 * 2 * n * S * n
                  + 8 * 2 * S * n + 8 * 2 * R * 4 + 16384)
        assert peak < budget < 8 * R * S * n
        assert len(set(full.paths.ravel().tolist())) > 100
        for count in (1, 2, 3, 7, 39):
            part = monte_carlo(ieee5_lin.A, big, scs, dataclasses.replace(cfg, replicas=count))
            assert np.array_equal(part.paths, full.paths[:count])
            assert np.array_equal(part.err_sq, full.err_sq[:count])
        for r in range(R):
            _, err, alphas = run_replica(ieee5_lin.A, big, scs, cfg, replica_index=r)
            assert np.array_equal(full.paths[r], alphas)
            assert np.max(np.abs(full.err_sq[r] - err) / err) < 1e-9

    def test_sparse_indices_match_the_reference_engine(self, four_channel, ieee5_lin):
        # indices 2, 5 and 9 with random maps: the stacked maps start at
        # block 2 - 2 and leave the blocks of 3, 4, 6, 7 and 8 zero
        _, obs = four_channel
        rng = np.random.default_rng(259)
        indices = [2, 5, 9]
        scs = shs.ScenarioSet([shs.Scenario(i, np.zeros((0, 4)), np.zeros((0, 0)), p)
                               for i, p in zip(indices, [0.2, 0.3, 0.5])], 4)
        sparse = dataclasses.replace(
            obs, Lam={i: 0.3 * rng.standard_normal((4, 4)) for i in indices},
            Q={i: 0.1 * rng.standard_normal((4, 4)) for i in indices})
        cfg = SimConfig(K=9, replicas=40, seed=8, e0=[1.0, -0.5, 0.25, 2.0])
        full = monte_carlo(ieee5_lin.A, sparse, scs, cfg)
        assert set(full.paths.ravel().tolist()) == set(indices)
        for r in range(cfg.replicas):
            _, err, alphas = run_replica(ieee5_lin.A, sparse, scs, cfg, replica_index=r)
            assert np.array_equal(full.paths[r], alphas)
            assert np.max(np.abs(full.err_sq[r] - err) / err) < 1e-9
        for count in (1, 2, 3, 7):
            part = monte_carlo(ieee5_lin.A, sparse, scs, dataclasses.replace(cfg, replicas=count))
            assert np.array_equal(part.paths, full.paths[:count])
            assert np.array_equal(part.err_sq, full.err_sq[:count])

    def test_scenario_without_a_map_is_refused(self):
        # before the check, index 4 read the next replica's block of the
        # product and the run returned finite errors
        lin, scs, obs, _ = _figure("fig3")
        partial = dataclasses.replace(
            obs, Lam={a: m for a, m in obs.Lam.items() if a != 4},
            Q={a: m for a, m in obs.Q.items() if a != 4})
        with pytest.raises(ValueError, match=r"indices \[4\]"):
            monte_carlo(lin.A, partial, scs, SimConfig(K=5, replicas=3))

    def test_index_below_the_smallest_map_is_refused(self, setup):
        # maps for 1..4, scenarios 0..3: the block offset would wrap 0 to
        # the last block of the previous replica
        A, scs, obs = setup
        shifted = shs.ScenarioSet([dataclasses.replace(s, index=s.index - 1) for s in scs],
                                  scs.n, scs.channels)
        with pytest.raises(ValueError, match=r"indices \[0\]"):
            monte_carlo(A, obs, shifted, SimConfig(K=5, replicas=3))

    def test_one_skeleton_call_per_replica(self, setup, monkeypatch):
        A, scs, obs = setup
        real = shs.sample_skeleton
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(shs, "sample_skeleton", counted)
        for R in (1, 2, 7, 30):
            calls.clear()
            monte_carlo(A, obs, scs, SimConfig(K=6, replicas=R, seed=R))
            assert calls == [6] * R

    def test_deterministic_under_fixed_seed(self, setup):
        A, scs, obs = setup
        cfg = SimConfig(K=15, replicas=8, seed=7, e0=[1.0, 0.0, 0.0, 0.0])
        t1 = monte_carlo(A, obs, scs, cfg)
        t2 = monte_carlo(A, obs, scs, cfg)
        assert np.array_equal(t1.mean_err_sq, t2.mean_err_sq)
        assert np.array_equal(t1.paths, t2.paths)
        assert np.array_equal(t1.per_state_mean_sq, t2.per_state_mean_sq)

    def test_switch_and_noise_streams_independent(self, setup):
        # with Lam = 0 and Q = I for every scenario the errors are the draws
        # themselves: one (K, n) block of normals per replica from its noise
        # stream, row k for interval k, whichever scenarios the path visits
        A, scs, obs = setup
        rho7 = five_bus_scenarios(rho1=0.7, rho2=0.7)
        cfg = SimConfig(K=12, replicas=6, seed=222, e0=np.zeros(4))
        _, nz_root = cfg.roots()
        draws = np.stack([np.random.default_rng(derive_seed(nz_root, r))
                          .standard_normal((cfg.K, 4)) for r in range(cfg.replicas)])
        paths = []
        for scs_i in (scs, rho7):
            probe = dataclasses.replace(
                obs, Lam={s.index: np.zeros((4, 4)) for s in scs_i},
                Q={s.index: np.eye(4) for s in scs_i})
            traj = monte_carlo(A, probe, scs_i, cfg)
            assert np.array_equal(traj.err_sq[:, 1:], np.sum(draws ** 2, axis=2))
            assert np.array_equal(traj.per_state_mean_sq[1:], np.mean(draws ** 2, axis=0))
            for r in range(cfg.replicas):
                eps, _, _ = run_replica(A, probe, scs_i, cfg, replica_index=r)
                assert np.array_equal(eps[1:], draws[r])
            paths.append(traj.paths)
        # rho 0.7 drops channels on intervals where the rho 0.99 paths do not
        assert np.any(paths[1] != paths[0]) and np.any(paths[1] == 4)

    def test_zeroing_noise_keeps_switching_paths(self, setup):
        A, scs, obs = setup
        scs0 = five_bus_scenarios(sigma=0.0, overrides=None)
        obs0 = observer.design(A, scs0, POLES, tau=0.6261)
        cfg = SimConfig(K=20, replicas=5, seed=404, e0=[2.0, 0, 1.0, 0])
        t_noisy = monte_carlo(A, obs, scs, cfg)
        t_clean = monte_carlo(A, obs0, scs0, cfg)
        assert np.array_equal(t_noisy.paths, t_clean.paths)

    def test_noise_free_decay_rate_bounded_by_gamma(self, setup):
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
        A, scs, obs = setup
        ss = analysis.steady_state(obs, scs)
        cfg = SimConfig(K=250, replicas=96, seed=1515, e0=[2.0, 0, 1.0, 0])
        traj = monte_carlo(A, obs, scs, cfg)
        window = traj.mean_err_sq[120:]
        floor = float(np.mean(window))
        se = float(np.sqrt(np.mean(traj.var_err_sq[120:]) / cfg.replicas))
        assert abs(floor - ss.mu_state) < 3 * se + 0.05 * ss.mu_state

    def test_fig3_mean_error_matches_exact_second_moment(self):
        lin, scs, obs, cfg = _figure("fig3")
        simcfg, traj = experiments.run_simulation(cfg, lin, obs, scs)
        expect, var = _conditional_moments(obs, traj.paths, cfg["sim"]["e0"])
        R = simcfg.replicas
        mean = expect.mean(axis=0)
        sd = np.sqrt(var.sum(axis=0)) / R
        assert traj.mean_err_sq[0] == pytest.approx(mean[0], rel=1e-15)
        z = (traj.mean_err_sq[1:] - mean[1:]) / sd[1:]
        assert np.max(np.abs(z)) < 4.5


def _in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, which has no Monte Carlo engine yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def _same_bits(got, want):
    return all(np.array_equal(getattr(got, f), getattr(want, f))
               for f in ("paths", "err_sq", "mean_err_sq", "per_state_mean_sq",
                         "var_err_sq"))


class TestMoments:
    @pytest.mark.parametrize("R", [1, 2, 200])
    def test_column_sum_is_numpys_reduction_bit_for_bit(self, R):
        # squared errors whose magnitudes span 60 decades, n = 4 as in every
        # bundled and benchmarked design
        rng = np.random.default_rng(R)
        sq = 10.0 ** rng.uniform(-30, 30, (R, 51, 4)) * rng.random((R, 51, 4))
        err_sq, mean, per_state, var = sim._moments(sq)
        want = sq.sum(axis=2)
        assert np.array_equal(err_sq, want)
        assert np.array_equal(mean, want.mean(axis=0))
        assert np.array_equal(per_state, sq.mean(axis=0))
        if R > 1:
            assert np.array_equal(var, want.var(axis=0, ddof=1))
        else:
            assert np.array_equal(var, np.zeros(51))

    @pytest.mark.parametrize("n", [9, 22])
    def test_column_sum_rounds_close_to_numpys_at_larger_n(self, n):
        # from n = 8 on numpy sums pairwise, so only rounding differs
        rng = np.random.default_rng(n)
        sq = 10.0 ** rng.uniform(-12, 12, (200, 51, n))
        got = sim._moments(sq)
        total = sq.sum(axis=2)
        want = (total, total.mean(axis=0), sq.mean(axis=0), total.var(axis=0, ddof=1))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w) / w) <= 1e-15


class TestEngineReuse:
    """Each thread builds its Generator and stream loader once and reuses
    them; no call may see anything of an earlier one."""

    @pytest.fixture
    def runs(self, setup, four_channel, ieee5_lin):
        A, scs, obs = setup
        cfg = SimConfig(K=20, replicas=30, seed=61, e0=[2.0, 0.0, 1.0, 0.0])
        return [(A, obs, scs, cfg),
                (ieee5_lin.A, four_channel[1], four_channel[0],
                 dataclasses.replace(cfg, replicas=17, seed=2**64 - 1))]

    def test_calls_in_one_thread_match_fresh_threads(self, runs):
        fresh = [_in_fresh_thread(monte_carlo, *run) for run in runs]
        again = _in_fresh_thread(lambda: [monte_carlo(*run) for run in runs * 2])
        assert all(_same_bits(got, want) for got, want in zip(again, fresh * 2))

    def test_threads_started_together_match_fresh_threads(self, runs):
        fresh = [_in_fresh_thread(monte_carlo, *run) for run in runs]
        start = threading.Barrier(len(runs))

        def together(run):
            start.wait()
            return [monte_carlo(*run) for _ in range(3)]

        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            results = list(pool.map(together, runs))
        for got, want in zip(results, fresh):
            assert all(_same_bits(g, want) for g in got)

    def test_call_that_raised_leaves_the_next_unchanged(self, runs, monkeypatch):
        fresh = _in_fresh_thread(monte_carlo, *runs[0])
        real = shs.sample_skeleton
        calls = []

        def third_call_raises(scenario_set, horizon, gen, out=None):
            calls.append(horizon)
            out = real(scenario_set, horizon, gen, out=out)
            if len(calls) == 3:
                # leave the stream mid-way, with a buffered 32-bit half
                gen.random(dtype=np.float32)
                raise RuntimeError("third skeleton")
            return out

        monkeypatch.setattr(shs, "sample_skeleton", third_call_raises)

        def raise_then_rerun():
            with pytest.raises(RuntimeError, match="third skeleton"):
                monte_carlo(*runs[0])
            return monte_carlo(*runs[0])

        assert _same_bits(_in_fresh_thread(raise_then_rerun), fresh)
        assert len(calls) == 3 + runs[0][3].replicas

    def test_stream_loader_runs_once_per_thread(self, runs, monkeypatch):
        built = []
        real = sim._stream_loader

        def counted(bitgen):
            built.append(bitgen)
            return real(bitgen)

        monkeypatch.setattr(sim, "_stream_loader", counted)
        for _ in range(2):
            _in_fresh_thread(lambda: [monte_carlo(*run) for run in runs * 2])
        assert len(built) == 2


class TestExpectedCurve:
    @pytest.mark.parametrize("name", ["fig3", "fig8"])
    def test_trace_recursion_converges_to_mu_state(self, name):
        _, scs, obs, cfg = _figure(name)
        mu = analysis.steady_state(obs, scs).mu_state
        curve = analysis.expected_err_sq(obs, scs, cfg["sim"]["e0"], 200)
        assert curve[0] == pytest.approx(np.sum(np.square(cfg["sim"]["e0"])), rel=1e-15)
        assert abs(curve[-1] - mu) <= 1e-12 * mu

    def test_matches_monte_carlo_mean_of_replica_errors(self, setup):
        # a single-scenario alphabet (both channels always delivered) has no
        # rare events, so the sample mean is close to Gaussian about the curve
        A, _, _ = setup
        scs = five_bus_scenarios(rho1=1.0, rho2=1.0, overrides=None)
        obs = observer.design(A, scs, POLES, tau=0.6261)
        cfg = SimConfig(K=30, replicas=400, seed=77, e0=[2.0, 0.0, 1.0, 0.0])
        traj = monte_carlo(A, obs, scs, cfg)
        traj.expected_err_sq = analysis.expected_err_sq(obs, scs, cfg.e0, cfg.K)
        assert traj.max_abs_z() < 4.5

    def test_noise_free_curve_averages_every_switching_path(self, setup):
        # K = 3 on the four-scenario alphabet: E ||Lam_a3 Lam_a2 Lam_a1 e0||^2
        # summed over all 64 paths with their probabilities
        _, scs, obs = setup
        e0 = np.array([2.0, 0.0, 1.0, 0.0])
        got = analysis.noise_free_err_sq(obs, scs, e0, 3)
        want = [float(e0 @ e0)]
        for k in (1, 2, 3):
            total = 0.0
            for path in itertools.product(list(scs), repeat=k):
                e = e0
                for s in path:
                    e = obs.Lam[s.index] @ e
                total += math.prod(s.probability for s in path) * float(e @ e)
            want.append(total)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        # the noise only adds to the exact mean curve
        assert np.all(got[1:] < analysis.expected_err_sq(obs, scs, e0, 3)[1:])

    def test_max_abs_z_is_zero_when_no_interval_varies(self, setup):
        # one replica has zero sample variance at every interval, so no
        # interval has a standard error to measure the deviation in
        A, scs, obs = setup
        cfg = SimConfig(K=4, replicas=1, seed=1, e0=[2.0, 0.0, 1.0, 0.0])
        traj = monte_carlo(A, obs, scs, cfg)
        traj.expected_err_sq = analysis.expected_err_sq(obs, scs, cfg.e0, cfg.K)
        assert not np.any(traj.var_err_sq)
        assert not np.array_equal(traj.mean_err_sq, traj.expected_err_sq)
        assert traj.max_abs_z() == 0.0

    def test_max_abs_z_needs_the_exact_curve(self, setup):
        A, scs, obs = setup
        traj = monte_carlo(A, obs, scs, SimConfig(K=4, replicas=3, seed=1))
        with pytest.raises(ValueError, match="simulate_with_expectation"):
            traj.max_abs_z()


class TestSubstepOracle:
    @pytest.mark.parametrize("name", ["fig3", "fig7"])
    def test_floor_bias_is_first_order_in_the_substep(self, name):
        # the substep filter's exact floor overshoots the interval-resolution
        # analysis by O(tau / n_sub): quadrupling n_sub cuts the bias 4x
        lin, scs, obs, _ = _figure(name)
        mu = analysis.steady_state(obs, scs).mu_state
        bias = {m: exact_floor(lin.A, obs, scs, m) / mu - 1.0 for m in (64, 256)}
        assert 0.0 < bias[256] < bias[64]
        assert bias[64] / bias[256] == pytest.approx(4.0, rel=0.15)


class TestIntervalMaps:
    @pytest.mark.parametrize("n_sub", [1, 2, 64])
    @pytest.mark.parametrize("name", ["fig3", "four_channel"])
    def test_closed_form_matches_basis_row_recursion(self, ieee5_lin, four_channel,
                                                     name, n_sub):
        if name == "fig3":
            lin, scs, obs, _ = _figure("fig3")
            A = lin.A
        else:
            A = ieee5_lin.A
            scs, obs = four_channel
        E, maps = closed_form_maps(A, obs, scs, n_sub)
        E_ref, ref = basis_row_maps(A, obs, scs, n_sub)
        assert np.array_equal(E, E_ref)
        n = obs.n
        assert any(s.r == 0 for s in scs)      # the no-sensor scenario
        for s in scs:
            assert maps[s.index].shape == ref[s.index].shape
            # P, Qx and N each within 1e-13 of the oracle's largest entry
            for rows in (slice(0, n), slice(n, 2 * n), slice(2 * n, None)):
                got, want = maps[s.index][rows], ref[s.index][rows]
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_noise_rows_are_the_filter_driven_by_one_lane_draw(self):
        lin, scs, obs, _ = _figure("fig3")
        n_sub = 64
        _, maps = basis_row_maps(lin.A, obs, scs, n_sub)
        n, n_ch = obs.n, len(scs.channels)
        h = obs.tau / n_sub
        for s in scs:
            N = maps[s.index][2 * n:].reshape(n_sub, n_ch, n)
            down = [lane for lane in range(n_ch) if lane not in s.up_channels]
            assert not np.any(N[:, down])
            for pos, lane in enumerate(s.up_channels):
                for j in range(n_sub):
                    dy = np.zeros((n_sub, s.r))
                    dy[j, pos] = s.sigma[pos, pos] * np.sqrt(h)   # xi = 1
                    want = step_estimate(obs, np.zeros(n), s.index, dy)
                    assert np.max(np.abs(N[j, lane] - want)) <= 1e-13 * np.max(np.abs(want))
