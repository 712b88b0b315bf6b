"""Convergence diagnostics, tau_max, steady-state variances."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from gridobs import analysis, experiments, grid, numerics, observer, shs, sim
from gridobs.analysis import compute_tau_max, contraction, steady_state
from gridobs.observer import ObserverError, decompose, design

from conftest import five_bus_scenarios, open_loop_gain, tradeoff_sweep
from mc_digest import ALPHABET16
from substep import t_blocks, t_mix

POLES = [-4.8, -3.6, -4.0, -4.4]


def interval_variance(Ac, L, sigma, tau):
    """Per-interval filter error covariance V and its square root Q.

    V integrates exp(Ac u) L sigma (L sigma)^T exp(Ac^T u) over one
    sampling interval.  Ac is expected to be Hurwitz; if it is not the
    integral still exists but the filter it describes will not settle, so
    a warning is raised.
    """
    Ac = np.asarray(Ac, dtype=float)
    if Ac.size and np.max(np.linalg.eigvals(Ac).real) >= 0:
        warnings.warn("Ac is not Hurwitz; interval variance computed anyway",
                      RuntimeWarning, stacklevel=2)
    L = np.asarray(L, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or not np.any(sigma):
        V = np.zeros_like(Ac)
    else:
        V = numerics.noise_gramian(Ac, L @ sigma, tau)
    return V, numerics.psd_sqrt(V)


@pytest.fixture(scope="module")
def five_bus_design(ieee5_lin):
    scs = five_bus_scenarios()
    obs = design(ieee5_lin.A, scs, POLES, tau=0.6261)
    return ieee5_lin, scs, obs


class TestIntervalVariance:
    def test_zero_noise(self):
        Ac = np.array([[-1.0, 0.2], [0.0, -2.0]])
        V, Q = interval_variance(Ac, np.ones((2, 1)), np.zeros((1, 1)), 0.5)
        assert np.array_equal(V, np.zeros((2, 2)))
        assert np.array_equal(Q, np.zeros((2, 2)))

    def test_scalar_closed_form(self):
        a, c, tau = 1.2, 0.7, 0.9
        V, Q = interval_variance(np.array([[-a]]), np.array([[1.0]]),
                                 np.array([[c]]), tau)
        exact = c * c * (1 - np.exp(-2 * a * tau)) / (2 * a)
        assert V[0, 0] == pytest.approx(exact, rel=1e-12)
        assert Q[0, 0] == pytest.approx(np.sqrt(exact), rel=1e-12)

    def test_monte_carlo_oracle_normal_scenario(self, five_bus_design):
        # Euler-Maruyama replication of the filter-error equation from
        # zero initial error, checked entrywise at 5 percent
        lin, scs, obs = five_bus_design
        d = obs.decomps[1]
        V, _ = interval_variance(d.Ac, d.L, scs.by_index(1).sigma, obs.tau)
        rng = np.random.default_rng(1234)
        R, n_sub = 100_000, 128
        h = obs.tau / n_sub
        N = d.L @ scs.by_index(1).sigma
        e = np.zeros((R, 4))
        AcT = d.Ac.T
        NT = N.T
        sq = np.sqrt(h)
        for _ in range(n_sub):
            e = e + h * (e @ AcT) + sq * (rng.standard_normal((R, 2)) @ NT)
        Vemp = e.T @ e / R
        floor = 0.01 * np.abs(V).max()
        rel = np.abs(Vemp - V) / np.maximum(np.abs(V), floor)
        assert rel.max() < 0.05

    def test_equals_the_observer_noise_covariance(self, five_bus_design):
        # a scenario that observes the whole state filters all of it
        # through Ac, so its Q Q^T is this variance lifted by T
        lin, scs, obs = five_bus_design
        full = [s for s in scs if obs.decomps[s.index].n_i == lin.A.shape[0]]
        assert len(full) == 3
        for s in full:
            d = obs.decomps[s.index]
            V, _ = interval_variance(d.Ac, d.L, s.sigma, obs.tau)
            Q = obs.law.Q[s.index - obs.law.lo]
            QQ = Q @ Q.T
            assert np.allclose(QQ, d.T @ V @ d.T.T, rtol=1e-10, atol=1e-12 * np.abs(V).max())

    def test_warns_on_unstable_filter(self):
        with pytest.warns(RuntimeWarning, match="Hurwitz"):
            interval_variance(np.array([[0.5]]), np.array([[1.0]]),
                              np.array([[0.1]]), 0.3)


class TestContraction:
    def test_single_scenario_classic_observer(self):
        # poles deep enough and tau long enough that the transient of the
        # closed-loop map has died down: gamma is just its norm, below one
        A = np.array([[0.0, 1.0], [-1.0, -0.3]])
        C = np.array([[1.0, 0.0]])
        scs = shs.ScenarioSet(
            [shs.Scenario(1, C, np.zeros((1, 1)), 1.0, (0,))], 2)
        obs = design(A, scs, [-2.0, -3.0], tau=2.0)
        rep = contraction(obs, scs)
        want = numerics.operator_norm(obs.law.Lam[0])
        assert rep.gamma_exact == pytest.approx(want, rel=1e-12)
        assert rep.gamma_exact < 1.0
        assert rep.stable

    def test_published_design_contracts(self, five_bus_design):
        _, scs, obs = five_bus_design
        rep = contraction(obs, scs)
        assert rep.gamma_exact < 1.0
        assert rep.stable
        assert rep.scenario_norms[4] > 1.0   # open-loop scenario grows

    def test_reliability_ordering_and_degradation(self, ieee5_lin):
        poles = [-3.6, -2.7, -3.0, -3.3]
        gammas = {}
        for rho in (0.998, 0.996, 0.994, 0.8):
            scs = five_bus_scenarios(rho1=rho, rho2=rho)
            obs = design(ieee5_lin.A, scs, poles, tau=0.6261)
            gammas[rho] = contraction(obs, scs)
        assert gammas[0.998].gamma_exact < gammas[0.996].gamma_exact \
            < gammas[0.994].gamma_exact
        assert gammas[0.8].gamma_exact > gammas[0.994].gamma_exact
        assert not gammas[0.8].stable

    @pytest.mark.parametrize("rho", [0.998, 0.8])
    def test_reports_the_exact_radius_it_decides_on(self, ieee5_lin, rho):
        scs = five_bus_scenarios(rho1=rho, rho2=rho)
        obs = design(ieee5_lin.A, scs, [-3.6, -2.7, -3.0, -3.3], tau=0.6261)
        rep = contraction(obs, scs)
        law = obs.law
        want = numerics.mean_square_radius([law.Lam[s.index - law.lo] for s in scs],
                                           [s.probability for s in scs])
        assert rep.ms_radius == want
        assert rep.stable == (want < 1.0)
        assert rep.as_dict()["ms_radius"] == want

    def test_gamma_monotone_in_delivery(self, ieee5_lin):
        poles = [-3.6, -2.7, -3.0, -3.3]
        prev = None
        for rho in (0.999, 0.998, 0.997, 0.996, 0.995, 0.994):
            scs = five_bus_scenarios(rho1=rho, rho2=rho)
            obs = design(ieee5_lin.A, scs, poles, tau=0.6261)
            g = contraction(obs, scs).gamma_exact
            if prev is not None:
                assert g >= prev - 1e-12
            prev = g

    def test_gamma2_below_one_inside_tau_max(self, five_bus_design):
        # blockwise (1-p) scaling keeps the normal-operation rows tiny, so
        # gamma2 stays below the open-loop gain scaled by the worst block
        _, scs, obs = five_bus_design
        rep = contraction(obs, scs)
        assert rep.gamma2 <= max(1 - s.probability for s in scs) \
            * open_loop_gain(obs) + 1e-9


def _svd_scan_tau_max(A, scs, decomps, propagate=False):
    """tau_max with an SVD-based norm at every grid point.

    The 0.05 s grid scan takes a fresh matrix exponential per point, or with
    `propagate` the product E(t + step) = E(t) E(step) as compute_tau_max
    does; the bisection takes fresh exponentials either way.
    """
    n = A.shape[0]
    F = np.vstack([decomps[s.index].F for s in scs if decomps[s.index].n_i])
    Phi = np.linalg.solve(F.T @ F, F.T)
    deficient = [s.probability for s in scs if decomps[s.index].n_i < n]
    if not deficient:
        return math.inf
    q = max(deficient)

    def cond(t):
        return holds(numerics.matrix_exponential(A, t))

    def holds(E):
        h = numerics.operator_norm(F @ E @ Phi)
        return q * h * h < 1.0

    E_step = numerics.matrix_exponential(A, 0.05)
    E = np.eye(n)
    lo, t = 0.0, 0.05
    while t <= 100.0:
        E = E @ E_step
        if not (holds(E) if propagate else cond(t)):
            hi = t
            break
        lo = t
        t += 0.05
    else:
        return math.inf
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if cond(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _figure_scenario_configs(name):
    """The experiment's config and its delivery-ratio variants."""
    cfg = experiments.load_experiment(name)
    check = cfg["check"]
    rho_sets = check.get("cases", []) + [
        check[k] for k in ("case", "reference_case") if k in check]
    return [cfg] + [experiments._with_rhos(cfg, r) for r in rho_sets]


class TestTauMax:
    def test_five_bus_published_value(self, five_bus_design):
        lin, scs, obs = five_bus_design
        tmax = compute_tau_max(lin.A, scs, obs.decomps)
        assert abs(tmax - 0.7365) / 0.7365 < 0.05

    def test_always_active_rank_deficient_scenario_is_refused(self):
        # a velocity sensor on a double integrator never sees the position;
        # with probability 1 no interval length gives mean-square stability
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        scs = shs.ScenarioSet(
            [shs.Scenario(1, np.array([[0.0, 1.0]]), np.zeros((1, 1)), 1.0, (0,))], 2)
        decomps = {s.index: decompose(A, s) for s in scs}
        assert decomps[1].n_i == 1
        with pytest.raises(ObserverError, match="always-active scenario is rank deficient"):
            compute_tau_max(A, scs, decomps)

    def test_marginally_stable_dynamics_unbounded(self):
        A = np.zeros((2, 2))
        C = np.array([[1.0, 0.0], [0.0, 1.0]])
        chans = [shs.SensorChannel("c1", C[0], 0.9, 0.0),
                 shs.SensorChannel("c2", C[1], 0.9, 0.0)]
        scs = shs.scenarios_from_channels(chans)
        decomps = {s.index: decompose(A, s) for s in scs}
        assert compute_tau_max(A, scs, decomps) == math.inf

    def test_shrinks_as_outage_probability_grows(self, ieee5_lin):
        values = []
        for rho in (0.99, 0.9, 0.7, 0.5):
            scs = five_bus_scenarios(rho1=rho, rho2=rho)
            decomps = {s.index: decompose(ieee5_lin.A, s) for s in scs}
            values.append(compute_tau_max(ieee5_lin.A, scs, decomps))
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("rho", [0.999, 0.998, 0.996, 0.994, 0.99, 0.9,
                                     0.8, 0.7, 0.5])
    def test_propagated_scan_matches_fresh_exponentials_ieee5(self, ieee5_lin, rho):
        scs = five_bus_scenarios(rho1=rho, rho2=rho)
        decomps = {s.index: decompose(ieee5_lin.A, s) for s in scs}
        want = _svd_scan_tau_max(ieee5_lin.A, scs, decomps)
        got = compute_tau_max(ieee5_lin.A, scs, decomps)
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_propagated_scan_matches_fresh_exponentials_figures(self, name):
        # every scenario set an experiment designs for, its variants included
        results = []
        for case in _figure_scenario_configs(name):
            lin = grid.linearize(grid.resolve_grid(case["grid"]))
            scs = experiments.build_scenarios(case, lin)
            completion = case["observer"].get("completion", "orthonormal")
            decomps = {s.index: decompose(lin.A, s, completion) for s in scs}
            want = _svd_scan_tau_max(lin.A, scs, decomps)
            got = compute_tau_max(lin.A, scs, decomps)
            assert got == pytest.approx(want, rel=0, abs=1e-12)
            results.append(got)
        if name == "fig8":
            assert results == [math.inf]      # the full 2000-point scan

    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_frobenius_pretest_keeps_the_svd_scan_result(self, name):
        # the same propagated scan with an SVD at every point, bit for bit
        for case in _figure_scenario_configs(name):
            lin = grid.linearize(grid.resolve_grid(case["grid"]))
            scs = experiments.build_scenarios(case, lin)
            completion = case["observer"].get("completion", "orthonormal")
            decomps = {s.index: decompose(lin.A, s, completion) for s in scs}
            want = _svd_scan_tau_max(lin.A, scs, decomps, propagate=True)
            assert compute_tau_max(lin.A, scs, decomps) == want

    def test_h_is_continuous_near_tau_max(self, five_bus_design):
        lin, scs, obs = five_bus_design
        t0 = 0.7
        base = open_loop_gain(obs, t0)
        for d in (1e-3, 1e-5, 1e-7):
            assert abs(open_loop_gain(obs, t0 + d) - base) < 50 * d * base


class TestSteadyState:
    def test_zero_noise_floor_is_zero(self, ieee5_lin):
        scs = five_bus_scenarios(sigma=0.0, overrides=None)
        obs = design(ieee5_lin.A, scs, POLES, tau=0.6261)
        ss = steady_state(obs, scs)
        assert ss.mu_inf == pytest.approx(0.0, abs=1e-14)
        assert ss.mu_state == pytest.approx(0.0, abs=1e-14)

    def test_single_scenario_trace_recursion_oracle(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.3]])
        C = np.array([[1.0, 0.0]])
        scs = shs.ScenarioSet(
            [shs.Scenario(1, C, 0.05 * np.eye(1), 1.0, (0,))], 2)
        obs = design(A, scs, [-2.0, -3.0], tau=2.0)
        ss = steady_state(obs, scs)
        # iterate the trace recursion mu <- Trace(S W S + Psi) from zero
        W = np.zeros((2, 2))
        for _ in range(500):
            W = ss.S @ W @ ss.S + ss.Psi
        assert ss.mu_inf == pytest.approx(np.trace(W), abs=1e-8)
        # single scenario: exact covariance equals the classic discrete
        # Lyapunov fixed point of the closed-loop map
        X = np.zeros((2, 2))
        for _ in range(500):
            X = obs.law.Lam[0] @ X @ obs.law.Lam[0].T + ss.Psi
        assert ss.mu_state == pytest.approx(np.trace(X), abs=1e-10)

    def test_published_design_matrices_psd(self, five_bus_design):
        _, scs, obs = five_bus_design
        ss = steady_state(obs, scs)
        for Mat in (ss.M_matrix, ss.Psi, ss.W_stein, ss.W_inf):
            assert np.allclose(Mat, Mat.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(Mat)) > -1e-10
        resid = numerics.operator_norm(ss.S @ ss.W_stein @ ss.S - ss.W_stein + ss.Psi)
        assert resid <= 1e-8 * (1 + numerics.operator_norm(ss.Psi))

    def test_unstable_design_rejected(self, ieee5_lin):
        scs = five_bus_scenarios(rho1=0.8, rho2=0.8)
        obs = design(ieee5_lin.A, scs, [-3.6, -2.7, -3.0, -3.3], tau=0.6261)
        with pytest.raises(ObserverError, match="undefined|unstable"):
            steady_state(obs, scs)

    def test_switched_maps_take_one_radius_per_call(self, monkeypatch, ieee5_lin,
                                                    five_bus_design):
        # the exact solve's radius is the stability gate, so the n^2 x n^2
        # operator of the switched maps is eigendecomposed once; the Stein
        # recipe's single map S has a radius of its own
        calls = []
        radius = numerics.mean_square_radius

        def counting(maps, weights):
            calls.append(len(maps))
            return radius(maps, weights)

        monkeypatch.setattr(numerics, "mean_square_radius", counting)
        _, scs, obs = five_bus_design
        steady_state(obs, scs)
        assert calls == [len(scs), 1]
        calls.clear()
        # rho(M) >= 1 here, so the Stein recipe is skipped
        scs = five_bus_scenarios(rho1=0.99, rho2=0.99)
        obs = design(ieee5_lin.A, scs, [-3.6, -2.7, -3.0, -3.3], tau=0.6261)
        steady_state(obs, scs)
        assert calls == [len(scs)]
        calls.clear()
        scs = five_bus_scenarios(rho1=0.8, rho2=0.8)
        obs = design(ieee5_lin.A, scs, [-3.6, -2.7, -3.0, -3.3], tau=0.6261)
        with pytest.raises(ObserverError, match=r"^error dynamics mean-square "
                           r"unstable \(radius \d+\.\d{4}\); steady-state variance undefined$"):
            steady_state(obs, scs)
        assert calls == [len(scs)]

    def test_exact_radius_admits_what_the_bound_refuses(self, ieee5_lin):
        # both channels at delivery 0.99: rho(M) = 1.38 is only a bound, the
        # exact radius 0.151 makes the design mean-square stable
        scs = five_bus_scenarios(rho1=0.99, rho2=0.99)
        obs = design(ieee5_lin.A, scs, [-3.6, -2.7, -3.0, -3.3], tau=0.6261)
        rep = contraction(obs, scs)
        assert rep.second_moment_radius == pytest.approx(1.382, abs=1e-3)
        assert rep.stable
        assert rep.ms_radius == pytest.approx(0.1509, abs=1e-4)
        Lam = {s.index: obs.law.Lam[s.index - obs.law.lo] for s in scs}
        Q = {s.index: obs.law.Q[s.index - obs.law.lo] for s in scs}
        T = sum(s.probability * np.kron(Lam[s.index], Lam[s.index]) for s in scs)
        assert max(np.abs(np.linalg.eigvals(T))) == pytest.approx(0.1509, abs=1e-4)
        ss = steady_state(obs, scs)
        Psi = sum(s.probability * Q[s.index] @ Q[s.index].T for s in scs)
        W = np.linalg.solve(np.eye(16) - T, Psi.flatten(order="F")).reshape(
            (4, 4), order="F")
        assert np.allclose(ss.W_inf, W, rtol=1e-12, atol=1e-15)
        assert ss.mu_state == pytest.approx(np.trace(W), rel=1e-12)
        # the Stein recipe diverges when rho(M) >= 1
        assert ss.W_stein is None and ss.mu_inf is None

    def test_stein_trace_recursion_unique_fixed_point(self, five_bus_design):
        _, scs, obs = five_bus_design
        ss = steady_state(obs, scs)
        rng = np.random.default_rng(4)
        G = rng.normal(size=(4, 4))
        W = G @ G.T   # arbitrary PSD start
        # contraction per sweep is the top eigenvalue of M (close to one
        # for this design), so the recursion needs many sweeps to settle
        for _ in range(40_000):
            W = ss.S @ W @ ss.S + ss.Psi
        assert np.trace(W) == pytest.approx(ss.mu_inf, rel=1e-6)


class TestTradeoff:
    def test_aggressive_poles_trade_floor_for_speed(self, ieee5_lin):
        scs = five_bus_scenarios()
        rows = tradeoff_sweep(ieee5_lin.A, scs, 0.6261, POLES, [1.0, 2.0])
        assert rows[1]["gamma_exact"] < rows[0]["gamma_exact"]
        assert rows[1]["mu_state"] > rows[0]["mu_state"]

    def test_slow_poles_approach_instability(self, ieee5_lin):
        scs = five_bus_scenarios()
        rows = tradeoff_sweep(ieee5_lin.A, scs, 0.6261, POLES,
                              [1.0, 0.4, 0.2, 0.1])
        gammas = [r["gamma_exact"] for r in rows]
        assert gammas[-1] > gammas[0]
        assert gammas[-1] > 0.97   # driven toward/past the stability edge

    def test_zero_noise_all_scales_zero_floor(self, ieee5_lin):
        scs = five_bus_scenarios(sigma=0.0, overrides=None)
        rows = tradeoff_sweep(ieee5_lin.A, scs, 0.6261, POLES, [1.0, 1.5, 2.0])
        for r in rows:
            assert r["mu_state"] == pytest.approx(0.0, abs=1e-13)
            assert r["mu_inf"] == pytest.approx(0.0, abs=1e-13)


class TestSwitchedLaw:
    def test_layout_fills_gaps_with_zeros_and_is_read_only(self):
        maps = {2: np.eye(2), 5: 2 * np.eye(2)}
        law = observer.SwitchedLaw(maps, {a: 0.1 * m for a, m in maps.items()})
        assert law.indices == (2, 5) and law.lo == 2
        assert law.Lam.shape == law.Q.shape == (4, 2, 2)
        assert np.array_equal(law.Lam[0], np.eye(2)) and np.array_equal(law.Lam[3], 2 * np.eye(2))
        assert not np.any(law.Lam[1:3]) and not np.any(law.Q[1:3])
        # block a - lo of the Monte Carlo operand is [Lam_a^T; Q_a^T]
        for a in law.indices:
            blk = law.stack[:, 2 * (a - law.lo):2 * (a - law.lo + 1)]
            assert np.array_equal(blk, np.vstack([maps[a].T, 0.1 * maps[a].T]))
        # the Monte Carlo's gemm runs on the stack as it is, in C order
        assert law.stack.flags.c_contiguous
        for arr in (law.Lam, law.Q, law.stack):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
        assert law.by_index(law.layout({2: 0.25, 5: 0.75})) == {2: 0.25, 5: 0.75}
        with pytest.raises(ValueError, match="same nonempty set"):
            observer.SwitchedLaw(maps, {2: np.eye(2)})

    @pytest.mark.parametrize("call", [
        lambda obs, scs: contraction(obs, scs),
        lambda obs, scs: steady_state(obs, scs),
        lambda obs, scs: analysis.expected_err_sq(obs, scs, np.ones(4), 3),
        lambda obs, scs: analysis.noise_free_err_sq(obs, scs, np.ones(4), 3),
        lambda obs, scs: analysis.second_moment_matrix(obs, scs),
        lambda obs, scs: sim.monte_carlo(None, obs, scs, sim.SimConfig(K=3, replicas=2)),
        lambda obs, scs: sim.run_replica(None, obs, scs, sim.SimConfig(K=3)),
    ], ids=["contraction", "steady_state", "expected_err_sq", "noise_free_err_sq",
            "second_moment_matrix", "monte_carlo", "run_replica"])
    def test_a_set_with_other_indices_is_refused(self, five_bus_design, call):
        # indices 1..4 shifted to 6..9: every index differs, and fig3's
        # shape of the failure was a bare KeyError
        _, scs, obs = five_bus_design
        shifted = shs.ScenarioSet([dataclasses.replace(s, index=s.index + 5) for s in scs],
                                  scs.n, scs.channels)
        with pytest.raises(ValueError, match=r"it adds \[6, 7, 8, 9\] and lacks \[1, 2, 3, 4\]$"):
            call(obs, shifted)
        dropped = shs.ScenarioSet(
            [dataclasses.replace(s, probability=s.probability / (1 - scs.by_index(4).probability))
             for s in scs if s.index != 4], scs.n, scs.channels)
        with pytest.raises(ValueError, match=r"it adds \[\] and lacks \[4\]$"):
            call(obs, dropped)


def _loop_maps(obs, s):
    """Lam_s and the interval noise covariance V_s = Q_s Q_s^T of scenario
    s, rebuilt in its T coordinates: T exp(mix tau) T^-1 and
    T noise_gramian(mix, [0; L sigma], tau) T^T, with mix the closed-loop
    generator of the substep oracle.

    The Gramian is taken over tau / 16 and doubled back up four times,
    V(2h) = V(h) + exp(mix h) V(h) exp(mix h)^T: one augmented exponential
    over the whole interval loses digits to ||exp(-mix tau)|| (1.4e5 for
    fig7's scenario 3, where it misses a 40-digit reference by 1.8e-11
    relative and the doubled Gramian by 1.2e-14).
    """
    d = obs.decomps[s.index]
    Tinv = t_blocks(obs.A, d)[0]
    mix = t_mix(obs.A, d)
    noise = np.zeros((obs.n, s.r))
    if d.n_i:
        noise[obs.n - d.n_i:] = d.L @ s.sigma
    V = numerics.noise_gramian(mix, noise, obs.tau / 16)
    E = numerics.matrix_exponential(mix, obs.tau / 16)
    for _ in range(4):
        V = V + E @ V @ E.T
        E = E @ E
    return d.T @ numerics.matrix_exponential(mix, obs.tau) @ Tinv, d.T @ V @ d.T.T


def _every_design(monkeypatch):
    """(scenario set, observer) of each design that the bundled experiments
    build, baselines included, of ALPHABET16 and of ALPHABET16 with the
    paper_identity completion."""
    built = []
    build = observer.build

    def record(A, scs, decomps, tau):
        obs = build(A, scs, decomps, tau)
        built.append((scs, obs))
        return obs

    monkeypatch.setattr(observer, "build", record)
    for name in experiments.EXPERIMENTS:
        experiments.run_experiment(name, replicas=1)
    for completion in ("orthonormal", "paper_identity"):
        experiments.build_pipeline(
            dict(ALPHABET16, observer=dict(ALPHABET16["observer"], completion=completion)))
    monkeypatch.setattr(observer, "build", build)
    return built


def test_every_design_matches_its_t_coordinate_maps(monkeypatch):
    # build forms each map in state coordinates; the oracle goes through T.
    # The law's Gramian, one augmented exponential, carries a relative
    # error of about u ||exp(-A_c tau)|| = u ||Lam^-1|| (4e-18 ||Lam^-1||
    # on these designs against a 40-digit reference, up to 1.8e-11 in all)
    built = _every_design(monkeypatch)
    partial = 0
    for scs, obs in built:
        law = obs.law
        for s in scs:
            lam, V = _loop_maps(obs, s)
            Lam, Q = law.Lam[s.index - law.lo], law.Q[s.index - law.lo]
            assert np.abs(Lam - lam).max() <= 1e-12 * np.abs(lam).max()
            bound = 1e-12 + np.spacing(1.0) * numerics.operator_norm(np.linalg.inv(lam))
            assert np.abs(Q @ Q.T - V).max() <= bound * np.abs(V).max()
            partial += 0 < obs.decomps[s.index].n_i < obs.n
    # 8 experiment designs and the two of ALPHABET16, whose scenarios
    # include partly observable ones under both completions
    assert len(built) == 10 and partial > 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(n=st.integers(2, 6), data=st.data())
def test_random_designs_keep_the_law_exact(n, data):
    # a random A, upper block-triangular with probability about one half so
    # that some channels see only part of the state, and one or two
    # channels on distinct states at delivery in (0.5, 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = rng.standard_normal((n, n))
    k = data.draw(st.integers(0, n - 1), label="split")
    A[k:, :k] = 0.0
    states = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True),
                       label="states")
    rho = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
    chans = [shs.SensorChannel(f"c{j}", np.eye(n)[j], data.draw(rho, label="rho"),
                               data.draw(st.floats(0.0, 0.1), label="sigma"))
             for j in states]
    scs = shs.scenarios_from_channels(chans)
    tau = data.draw(st.floats(0.05, 1.0), label="tau")
    poles = -np.linspace(1.0, 3.0, n) * data.draw(st.floats(0.5, 2.0), label="scale")
    try:
        obs = design(A, scs, poles.tolist(), tau)
    except (ObserverError, ValueError, np.linalg.LinAlgError):
        reject()
    law = obs.law
    p = law.weights(scs)
    G = rng.standard_normal((n, n))
    W = G @ G.T
    maps = {s.index: _loop_maps(obs, s) for s in scs}
    T = sum(s.probability * maps[s.index][0] @ W @ maps[s.index][0].T for s in scs)
    Psi = sum(s.probability * maps[s.index][1] for s in scs)
    M = sum(s.probability * maps[s.index][0].T @ maps[s.index][0] for s in scs)
    scale = lambda X: 1e-12 * (1.0 + np.abs(X).max())
    assert np.allclose(law.second_moment(W, p), T, rtol=1e-9, atol=scale(T))
    assert np.allclose(law.noise_covariance(p), Psi, rtol=1e-9, atol=scale(Psi))
    assert np.allclose(analysis.second_moment_matrix(obs, scs), M, rtol=1e-9, atol=scale(M))
    rep = contraction(obs, scs)
    assert rep.ms_radius <= rep.second_moment_radius * (1 + 1e-12)
    if not rep.stable:
        return
    ss = steady_state(obs, scs)
    Tw = sum(s.probability * maps[s.index][0] @ ss.W_inf @ maps[s.index][0].T for s in scs)
    resid = numerics.operator_norm(Tw + Psi - ss.W_inf)
    assert resid <= 1e-8 * (1.0 + numerics.operator_norm(Psi))
    if rep.ms_radius < 0.95:
        # radius^K below 1e-13, so the exact curve has reached its limit
        K = max(1, math.ceil(math.log(1e-13) / math.log(max(rep.ms_radius, 1e-6))))
        e0 = rng.standard_normal(n)
        curve = analysis.expected_err_sq(obs, scs, e0, K)
        assert curve[-1] == pytest.approx(ss.mu_state, rel=1e-6, abs=1e-10 * float(e0 @ e0))
