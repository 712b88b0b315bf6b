"""Acceptance suite: one test per release criterion, at stated tolerances.

Each criterion prints a single pass/fail line (visible with `pytest -s` or
in the acceptance-criteria section after the run).  Two published values
are inconsistent, and their sub-criteria check exactly how they depart
from a consistent model:

  * criterion 3b: the published reduced 33-bus state matrix carries
    generator-to-generator cross couplings (A[1,2] = -0.0120,
    A[3,0] = -0.0344) that no consistent network model reproduces together
    with its diagonal couplings.  The twin generators sit on different
    laterals of a radial feeder.  The reduced `ieee33` case freezes each
    generator's feeder tie at an anchored neighbour, so both cross
    couplings are exactly zero.  The printed ones are only 1.06% and 0.77%
    of their rows' printed diagonal couplings, while a real network
    coupling is not small: linearizing the full `ieee33_feeder` gives
    A[1,2] = +2.149 and A[3,0] = +4.021, the opposite sign, and diagonals
    of -8.641 and -30.41, 7.7x and 6.8x the printed -1.128 and -4.4785.
  * criterion 6b: the published probability of the scenario "channel 1
    down, channel 2 up" is 0.00985, but (1-0.99)*0.995 = 0.00995.  The
    printed value is a one-digit typo: the four printed probabilities sum
    to 0.9999, and no pair of delivery ratios reproduces all four, since
    p1+p2 gives rho1 = 0.99 while 1-(p3+p4) gives 0.9901.  With 0.00995 in
    its place the printed set is exactly the computed one.
"""

import time

import numpy as np
import pytest

from gridobs import analysis, experiments, grid, numerics, observer, shs, sim

from conftest import (A2BUS_PRINTED, A5_PRINTED, A5_EIGENVALUES, A33_PRINTED,
                      P5_PRINTED, T3_PRINTED, T3_INV_PRINTED, delta_channels,
                      five_bus_scenarios, kernel_base, observability_stack,
                      slack_power, tradeoff_sweep)
from substep import t_blocks, t_mix

BASE_POLES = [-4.8, -3.6, -4.0, -4.4]
SWEEP_POLES = [-3.6, -2.7, -3.0, -3.3]
TAU = 0.6261


def report(num, ok, desc, budget_s, elapsed):
    line = (f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'}  {desc} "
            f"({elapsed:.2f}s / budget {budget_s:.0f}s)")
    print(line)
    # collected by the terminal-summary hook in conftest so the per-
    # criterion lines survive pytest's output capture
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line
    assert elapsed < budget_s, f"criterion {num} exceeded runtime budget: {line}"


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(scope="module")
def five_bus():
    lin = grid.linearize(grid.builtin("ieee5"))
    scs = five_bus_scenarios()
    obs = observer.design(lin.A, scs, BASE_POLES, tau=TAU)
    return lin, scs, obs


def test_criterion_01_two_bus_linearization():
    t0 = time.time()
    g = grid.builtin("two_bus")
    eq = grid.find_equilibrium(g)
    lin = grid.linearize(g, eq)
    mask = np.abs(A2BUS_PRINTED) > 0
    a_ok = np.max(np.abs((lin.A[mask] - A2BUS_PRINTED[mask])
                         / A2BUS_PRINTED[mask])) < 1e-3
    delta = eq.angles[1] - eq.angles[2]
    eq_ok = abs(delta - 0.1506) < 1e-4
    report(1, a_ok and eq_ok,
           "two-generator model: state matrix to 1e-3, equilibrium angle to 1e-4",
           1.0, time.time() - t0)


def test_criterion_02_five_bus_linearization():
    t0 = time.time()
    lin = grid.linearize(grid.builtin("ieee5"))
    mask = np.abs(A5_PRINTED) > 0
    a_ok = np.max(np.abs((lin.A[mask] - A5_PRINTED[mask])
                         / A5_PRINTED[mask])) < 1e-2
    got = np.sort(np.linalg.eigvals(lin.A).real)
    eig_ok = np.max(np.abs(got - np.sort(A5_EIGENVALUES))) < 1e-2
    report(2, a_ok and eig_ok,
           "reduced 5-bus model: state matrix to 1e-2, eigenvalues to 1e-2",
           5.0, time.time() - t0)


def test_criterion_03a_ieee33_diagonals_equilibrium_slack():
    t0 = time.time()
    lin = grid.linearize(grid.builtin("ieee33"))
    ok = True
    for (i, j) in [(1, 0), (3, 2), (1, 1), (3, 3)]:
        ok &= rel(lin.A[i, j], A33_PRINTED[i, j]) < 5e-2
    d18 = np.degrees(lin.equilibrium.angles[18])
    d33 = np.degrees(lin.equilibrium.angles[33])
    ok &= rel(d18, -0.01) < 0.10 and rel(d33, 0.12) < 0.10
    feeder = grid.builtin("ieee33_feeder")
    eqf = grid.find_equilibrium(feeder)
    ok &= rel(slack_power(eqf.network, feeder), 3.94) < 0.10
    report("3a", ok,
           "33-bus: diagonal couplings/damping to 5e-2, generator angles "
           "and feeder slack power to 10%",
           30.0, time.time() - t0)


def test_criterion_03b_ieee33_cross_couplings():
    """The printed cross couplings are irreproducible; this pins how they
    depart from the reduced model and from the full feeder (see the
    module docstring)."""
    t0 = time.time()
    lin = grid.linearize(grid.builtin("ieee33"))
    feeder = grid.linearize(grid.builtin("ieee33_feeder"))
    # cross couplings A[1,2], A[3,0] and their rows' diagonals A[1,0], A[3,2]
    rows, cross, diag = [1, 3], [2, 0], [0, 2]
    printed = A33_PRINTED[rows, cross]
    share = np.abs(printed / A33_PRINTED[rows, diag])
    full = feeder.A[rows, cross]
    scale = feeder.A[rows, diag] / A33_PRINTED[rows, diag]
    ok = bool(
        # the reduced case isolates each generator on its own anchored tie
        np.all(lin.A[rows, cross] == 0.0)
        # the printed couplings are a small share of their diagonals ...
        and np.all(share < 2e-2)
        # ... which a real network coupling is not: the full feeder couples
        # with the opposite sign and diagonals several times the printed
        and np.all(printed < 0.0) and np.all(full > 0.0)
        and np.all(np.abs(full / feeder.A[rows, diag]) > 2e-2)
        and np.all(scale > 5.0))
    report("3b", ok,
           f"33-bus cross couplings: reduced {lin.A[rows, cross]} (exactly "
           f"0); printed {np.round(100 * share, 2)}% of their printed "
           f"diagonals (< 2%); full feeder {np.round(full, 3)} (opposite "
           f"sign) with diagonals {np.round(scale, 1)}x the printed (> 5x)",
           30.0, time.time() - t0)


def test_criterion_04_sensor_selection_decomposition(five_bus):
    t0 = time.time()
    lin, _, _ = five_bus
    s3 = shs.Scenario(3, np.array([[0.0, 1.0, 0.0, 0.0]]), np.zeros((1, 1)),
                      1.0, (0,))
    W = observability_stack(s3.C, lin.A)
    # rank under the package's relative singular-value cutoff (the matrix
    # entries span 0.1 to 220, so an absolute default threshold misleads)
    sv = np.linalg.svd(W, compute_uv=False)
    rank_ok = int(np.sum(sv > 1e-9 * sv[0])) == 3
    K = kernel_base(W)
    v = K[:, 0] / np.linalg.norm(K[:, 0])
    want = np.array([1.0, 0, 1.0, 0]) / np.sqrt(2)
    kern_ok = min(np.linalg.norm(v - want), np.linalg.norm(v + want)) < 1e-6
    d = observer.decompose(lin.A, s3, completion="paper_identity")
    Tinv = t_blocks(lin.A, d)[0]
    t_ok = (np.max(np.abs(d.T - T3_PRINTED)) < 1e-3
            and np.max(np.abs(Tinv - T3_INV_PRINTED)) < 1e-3
            and np.max(np.abs(d.F - T3_INV_PRINTED[1:])) < 1e-3)
    report(4, rank_ok and kern_ok and t_ok,
           "frequency-only scenario: rank 3, kernel direction, and the "
           "identity-completion transform to 1e-3",
           1.0, time.time() - t0)


def test_criterion_05_tau_max(five_bus):
    t0 = time.time()
    lin, scs, obs = five_bus
    tmax = analysis.compute_tau_max(lin.A, scs, obs.decomps)
    report(5, rel(tmax, 0.7365) < 0.05,
           f"largest admissible sampling interval {tmax:.4f} vs 0.7365 to 5%",
           5.0, time.time() - t0)


def test_criterion_06a_scenario_probabilities():
    t0 = time.time()
    scs = five_bus_scenarios()
    p = [s.probability for s in scs]
    ok = (abs(p[0] - P5_PRINTED[0]) < 1e-12
          and abs(p[1] - P5_PRINTED[1]) < 1e-12
          and abs(p[3] - P5_PRINTED[3]) < 1e-12
          and abs(sum(p) - 1.0) < 1e-12
          and abs(p[2] - (1 - 0.99) * 0.995) < 1e-12)
    report("6a", ok,
           "delivery-ratio products: three published values exact, total "
           "probability exactly one",
           1.0, time.time() - t0)


def test_criterion_06b_third_probability_as_published():
    """The printed third probability is a one-digit typo; this pins the
    typo exactly (see the module docstring)."""
    t0 = time.time()
    scs = five_bus_scenarios()
    p = np.array([s.probability for s in scs])
    corrected = P5_PRINTED.copy()
    corrected[2] = 0.00995
    # the two marginals of rho1 that the printed set implies
    rho1_up = P5_PRINTED[0] + P5_PRINTED[1]
    rho1_down = 1.0 - (P5_PRINTED[2] + P5_PRINTED[3])
    ok = (len(p) == 4 and scs.scenarios[2].up_channels == (1,)
          and abs((p[2] - P5_PRINTED[2]) - 1e-4) < 1e-12
          and abs(P5_PRINTED.sum() - (1.0 - 1e-4)) < 1e-12
          and np.max(np.abs(p - corrected)) < 1e-12
          and abs((rho1_down - rho1_up) - 1e-4) < 1e-12)
    report("6b", ok,
           f"computed third probability {p[2]:.5f} exceeds the published "
           f"{P5_PRINTED[2]:.5f} by {p[2] - P5_PRINTED[2]:.2e} (exactly "
           f"1e-4); published set sums to {P5_PRINTED.sum():.4f} and its "
           f"rho1 marginals {rho1_up:.4f}/{rho1_down:.4f} differ by 1e-4; "
           "with 0.00995 it equals the computed set",
           1.0, time.time() - t0)


def test_criterion_07_interval_variance_monte_carlo(five_bus):
    # the per-interval noise covariance Q Q^T that the steady state and the
    # Monte Carlo use, against Euler-Maruyama integration of the closed-loop
    # error generator driven through its filter block, lifted by T
    t0 = time.time()
    lin, scs, obs = five_bus
    d = obs.decomps[1]
    Q1 = obs.law.Q[1 - obs.law.lo]
    V = Q1 @ Q1.T
    mix = t_mix(lin.A, d)
    sigma = scs.by_index(1).sigma
    N = np.zeros((mix.shape[0], sigma.shape[1]))
    N[mix.shape[0] - d.n_i:] = d.L @ sigma
    rng = np.random.default_rng(2718)
    R, n_sub = 100_000, 128
    h = TAU / n_sub
    e = np.zeros((R, mix.shape[0]))
    for _ in range(n_sub):
        e = e + h * (e @ mix.T) + np.sqrt(h) * (rng.standard_normal((R, N.shape[1])) @ N.T)
    Vemp = d.T @ (e.T @ e / R) @ d.T.T
    floor = 0.01 * np.abs(V).max()
    worst = np.max(np.abs(Vemp - V) / np.maximum(np.abs(V), floor))
    report(7, worst < 0.05,
           f"interval variance Q Q^T vs 100k-replica stochastic integration: "
           f"worst entry deviation {worst:.3f} < 0.05",
           60.0, time.time() - t0)


def test_criterion_08_baseline_convergence_experiment():
    t0 = time.time()
    res = experiments.run_experiment("fig3")
    gamma = res["report"]["gamma_exact"]
    traj = res["trajectory"]
    k_star = traj.time_to_fraction(0.01)
    ok = gamma < 1.0 and k_star <= 30 and traj.replicas == 200
    report(8, ok,
           f"baseline design: gamma {gamma:.3f} < 1 and mean error below "
           f"1% of 5 at interval {k_star} <= 30 (200 replicas)",
           60.0, time.time() - t0)


def test_criterion_09_gain_tradeoff(five_bus):
    t0 = time.time()
    lin, scs, _ = five_bus
    rows = tradeoff_sweep(lin.A, scs, TAU, BASE_POLES, [1.0, 2.0])
    ok = (rows[1]["mu_state"] > rows[0]["mu_state"]
          and rows[1]["gamma_exact"] < rows[0]["gamma_exact"])
    report(9, ok,
           f"doubled poles: steady variance {rows[1]['mu_state']:.4f} > "
           f"{rows[0]['mu_state']:.4f} and gamma {rows[1]['gamma_exact']:.3f} "
           f"< {rows[0]['gamma_exact']:.3f}",
           10.0, time.time() - t0)


def test_criterion_10_reliability_ordering_and_breakdown():
    t0 = time.time()
    res5 = experiments.run_experiment("fig5")
    times = res5["times_to_1pct"]
    mono = all(a < b for a, b in zip(times, times[1:]))
    lin = grid.linearize(grid.builtin("ieee5"))
    gammas = {}
    for rho in (0.998, 0.996, 0.994, 0.8):
        scs = five_bus_scenarios(rho1=rho, rho2=rho)
        obs = observer.design(lin.A, scs, SWEEP_POLES, tau=TAU)
        gammas[rho] = analysis.contraction(obs, scs)
    degraded = gammas[0.8]
    worse = degraded.gamma_exact > max(g.gamma_exact for r, g in gammas.items()
                                       if r != 0.8)
    ref_scs = five_bus_scenarios(rho1=0.998, rho2=0.998)
    ref_obs = observer.design(lin.A, ref_scs, SWEEP_POLES, tau=TAU)
    ref_mu = analysis.steady_state(ref_obs, ref_scs).mu_state
    if degraded.stable:
        scs8 = five_bus_scenarios(rho1=0.8, rho2=0.8)
        obs8 = observer.design(lin.A, scs8, SWEEP_POLES, tau=TAU)
        broke = analysis.steady_state(obs8, scs8).mu_state > 10 * ref_mu
    else:
        broke = True
    report(10, mono and worse and broke,
           f"times-to-1% {['%.3f' % t for t in times]} increase as delivery "
           f"drops; 0.8-delivery case gamma {degraded.gamma_exact:.2f} "
           f"{'unstable' if not degraded.stable else 'degraded'}",
           120.0, time.time() - t0)


def test_criterion_11_steady_state_vs_monte_carlo(five_bus):
    t0 = time.time()
    lin, scs, obs = five_bus
    ss = analysis.steady_state(obs, scs)
    cfg = sim.SimConfig(K=400, replicas=200, seed=112, e0=[2.0, 0, 1.0, 0])
    traj = sim.monte_carlo(lin.A, obs, scs, cfg)
    floor = float(np.mean(traj.mean_err_sq[200:]))
    dev = rel(floor, ss.mu_state)
    report(11, dev < 0.10,
           f"stationary variance: simulated {floor:.4f} vs solved "
           f"{ss.mu_state:.4f} ({100 * dev:.1f}% < 10%)",
           120.0, time.time() - t0)


def test_criterion_12_invariant_suite(five_bus):
    t0 = time.time()
    lin, scs, obs = five_bus
    ok = True

    # reconstruction identity
    ok &= numerics.operator_norm(obs.Phi @ obs.F - np.eye(4)) < 1e-10

    # structural zeros of every decomposition of the single-sensor study
    chans = delta_channels(["delta_1", "omega_1", "delta_2", "omega_2"],
                           [("1.delta", 0.99, 0.01), ("1.omega", 0.995, 0.01)])
    scs_b = shs.scenarios_from_channels(chans)
    for s in scs_b:
        d = observer.decompose(lin.A, s)
        if 0 < d.n_i < 4:
            At = t_blocks(lin.A, d)[0] @ lin.A @ d.T
            ok &= numerics.operator_norm(At[4 - d.n_i:, : 4 - d.n_i]) \
                <= 1e-8 * numerics.operator_norm(lin.A)
            ok &= numerics.operator_norm((s.C @ d.T)[:, : 4 - d.n_i]) \
                <= 1e-8 * max(numerics.operator_norm(s.C), 1.0)

    # pole-placement round trips on random observable pairs
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        C = rng.normal(size=(int(rng.integers(1, 3)), n))
        W = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
        if np.linalg.matrix_rank(W) < n:
            continue
        want = np.sort(-rng.uniform(1.0, 6.0, size=n))
        if np.min(np.diff(want)) < 0.15:
            continue
        L = numerics.place_poles(A, C, want)
        got = np.sort(np.linalg.eigvals(A - L @ C).real)
        ok &= np.max(np.abs(got - want)) < 1e-6
        done += 1

    # Gramian positivity and monotonicity in the interval length
    Ac = obs.decomps[1].Ac
    N = obs.decomps[1].L @ scs.by_index(1).sigma
    V1 = numerics.noise_gramian(Ac, N, 0.3)
    V2 = numerics.noise_gramian(Ac, N, 0.7)
    ok &= np.min(np.linalg.eigvalsh(V1)) > -1e-12
    ok &= np.min(np.linalg.eigvalsh(V2 - V1)) > -1e-12

    # Stein residual at the published design
    ss = analysis.steady_state(obs, scs)
    ok &= numerics.operator_norm(ss.S @ ss.W_stein @ ss.S - ss.W_stein + ss.Psi) \
        <= 1e-8 * (1 + numerics.operator_norm(ss.Psi))

    # skeleton empirical frequencies (3-sigma binomial band)
    seq = shs.sample_skeleton(scs, 100_000, seed=606)
    p1_hat = np.mean(seq == 1)
    sd = np.sqrt(P5_PRINTED[0] * (1 - P5_PRINTED[0]) / 100_000)
    ok &= abs(p1_hat - P5_PRINTED[0]) < 3 * sd

    # determinism under a fixed seed
    cfg = sim.SimConfig(K=20, replicas=6, seed=55, e0=[2.0, 0, 1.0, 0])
    t1 = sim.monte_carlo(lin.A, obs, scs, cfg)
    t2 = sim.monte_carlo(lin.A, obs, scs, cfg)
    ok &= np.array_equal(t1.mean_err_sq, t2.mean_err_sq)
    ok &= np.array_equal(t1.paths, t2.paths)

    report(12, ok,
           "invariants: reconstruction, structural zeros, placement round "
           "trips, Gramian order, Stein residual, skeleton frequencies, "
           "determinism",
           60.0, time.time() - t0)
