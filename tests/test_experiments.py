"""Bundled benchmark experiments: all six pass their qualitative checks and
reproduce their pinned outputs."""

import json

import numpy as np
import pytest

from gridobs import experiments, numerics

from write_golden import GOLDEN, mismatches, snapshot


@pytest.fixture(scope="module")
def run():
    """run_experiment(name), run once per experiment for this module."""
    results = {}

    def get(name):
        if name not in results:
            results[name] = experiments.run_experiment(name)
        return results[name]
    return get


@pytest.mark.parametrize("name", experiments.EXPERIMENTS)
def test_experiment_passes(run, name):
    res = run(name)
    assert res["passed"], res["checks"]


@pytest.mark.parametrize("name", experiments.EXPERIMENTS)
def test_outputs_match_golden_file(run, name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    diffs = mismatches(snapshot(name, run(name)), want, name)
    assert not diffs, "\n".join(diffs[:20])


def test_golden_comparison_is_strict():
    want = {"a": [1.0, 2, "x"], "b": {"c": True}}
    assert mismatches(json.loads(json.dumps(want)), want) == []
    assert mismatches({"a": [1.0 + 2e-9, 2, "x"], "b": {"c": True}}, want)
    assert mismatches({"a": [1.0 + 5e-10, 2, "x"], "b": {"c": True}}, want) == []
    assert mismatches({"a": [1.0, 2.0, "x"], "b": {"c": True}}, want)
    assert mismatches({"a": [1.0, 2, "x"], "b": {"c": 1}}, want)
    assert mismatches({"a": [1.0, 2], "b": {"c": True}}, want) == [".a[2]: removed"]
    # a key added and another removed do not hide a move in the shared keys
    diffs = mismatches({"a": [1.5, 2, "x"], "b": {"d": True}, "e": 0}, want)
    assert sorted(diffs) == [".a[0]: 1.5 != 1.0 (relative change 0.5)",
                             ".b.c: removed", ".b.d: added", ".e: added"]
    # nor does a list that grows hide a move in the entries both sides have
    diffs = mismatches({"a": [1.0, 3, "x", "y"], "b": {"c": True}}, want)
    assert diffs == [".a[1]: 3 != 2", ".a[3]: added"]


def test_fig4_tradeoff_numbers(run):
    res = run("fig4")
    assert res["steady"]["mu_state"] > res["baseline_steady"]["mu_state"]
    assert res["report"]["gamma_exact"] < res["baseline_report"]["gamma_exact"]


def test_tradeoff_baseline_uses_the_configured_completion(monkeypatch):
    # fig4 designs its baseline next to its observer; both follow the
    # observer section, completion included
    cfg = experiments.load_experiment("fig4")
    cfg["observer"]["completion"] = "paper_identity"
    monkeypatch.setattr(experiments, "load_experiment", lambda name: cfg)
    calls = []
    design = experiments.observer.design

    def recording(A, scs, poles, tau, completion="orthonormal"):
        calls.append((list(poles), completion))
        return design(A, scs, poles, tau, completion=completion)

    monkeypatch.setattr(experiments.observer, "design", recording)
    experiments.run_experiment("fig4", replicas=2)
    assert calls == [(cfg["observer"]["poles"], "paper_identity"),
                     (cfg["check"]["baseline_poles"], "paper_identity")]


def test_tradeoff_baseline_poles_are_type_checked(monkeypatch):
    cfg = experiments.load_experiment("fig4")
    cfg["check"]["baseline_poles"] = -4.8
    monkeypatch.setattr(experiments, "load_experiment", lambda name: cfg)
    with pytest.raises(ValueError, match="'check.baseline_poles' must be a list or an object"):
        experiments.run_experiment("fig4", replicas=2)


def test_fig6_degraded_case_is_mean_square_unstable(run):
    res = run("fig6")
    assert res["report"]["stable"] is False
    assert res["report"]["gamma_exact"] > 1.0


def test_degraded_check_on_a_mean_square_stable_case(monkeypatch):
    # fig6's own case is unstable; at delivery 0.99 the check compares
    # the two steady-state floors instead
    cfg = experiments.load_experiment("fig6")
    cfg["check"]["case"] = [0.99, 0.99]
    monkeypatch.setattr(experiments, "load_experiment", lambda name: cfg)
    res = experiments.run_experiment("fig6", replicas=4)
    assert res["report"]["stable"] is True
    mu = res["steady"]["mu_state"]
    assert res["checks"]["diverges_or_much_larger_floor"] == (
        mu > 10 * res["reference_steady"]["mu_state"])


@pytest.mark.parametrize("key", ["x0", "xhat0"])
def test_simulation_refuses_initial_states(key):
    cfg = experiments.load_experiment("fig3")
    cfg["sim"][key] = [0.0, 0.0, 0.0, 0.0]
    _, lin, scs, obs = experiments.build_pipeline(cfg)
    with pytest.raises(ValueError, match=rf"sim sets {key};.*sim\.e0"):
        experiments.run_simulation(cfg, lin, obs, scs)


def test_fig7_partial_observability_design(run):
    res = run("fig7")
    # single-PMU configuration pays a visibly different noise floor
    assert res["floor_ratio"] > 1.5


def test_fig8_floor_agreement(run):
    res = run("fig8")
    assert res["simulated_floor"] == pytest.approx(
        res["steady"]["mu_state"], rel=0.25)


@pytest.mark.parametrize("name,k", [("fig3", 4), ("fig8", 2)])
def test_exact_crossing_beside_the_sampled_one(run, name, k):
    # the first k with expected_err_sq[k] <= 1% of ||e0||^2, from the exact
    # mean curve, next to the sampled check on the same limit
    res = run(name)
    traj = res["trajectory"]
    assert res["expected_intervals_to_1pct"] == k
    assert traj.expected_err_sq[k] <= 0.01 * traj.expected_err_sq[0] < traj.expected_err_sq[k - 1]
    assert res["checks"]["expected_error_reaches_1pct"] and res["checks"]["error_reaches_1pct"]
    cfg = experiments.load_experiment(name)
    cfg["check"]["max_intervals_to_1pct"] = k - 1
    checks = {}
    experiments._reaches_1pct(cfg, traj, {}, checks)
    assert not checks["expected_error_reaches_1pct"]


def test_fig8_floor_records_its_standard_error_and_margin(run):
    res = run("fig8")
    traj, mu = res["trajectory"], res["steady"]["mu_state"]
    window = traj.err_sq[:, 40:].mean(axis=1)
    se = window.std(ddof=1) / np.sqrt(window.size)
    assert res["simulated_floor_se"] == pytest.approx(se, rel=1e-12)
    assert res["floor_margin"] == pytest.approx(0.25 * mu - abs(res["simulated_floor"] - mu),
                                                rel=1e-12)
    assert res["floor_margin_se"] == pytest.approx(res["floor_margin"] / se, rel=1e-12)
    # about 3.1% of mu_state, so the check holds by about 6.9 standard errors
    assert 6.5 < res["floor_margin_se"] < 7.5
    alone = experiments.run_experiment("fig8", replicas=1)
    assert alone["simulated_floor_se"] is None and alone["floor_margin_se"] is None


def test_mean_crossing_time_censoring():
    err = np.array([[4.0, 1.0, 0.02, 0.01], [4.0, 3.0, 2.0, 1.0]])
    t = experiments.mean_crossing_time(err, fraction=0.01)
    assert t == pytest.approx((2.0 + 4.0) / 2)


def _crossing_time_per_replica(eps_sq, fraction=0.01):
    """The replica loop that mean_crossing_time vectorises; also counts
    the censored replicas."""
    R, Kp1 = eps_sq.shape
    times = np.full(R, float(Kp1))
    for r in range(R):
        below = np.flatnonzero(eps_sq[r] <= fraction * eps_sq[r, 0])
        if below.size:
            times[r] = float(below[0])
    return float(times.mean()), int(np.sum(times == Kp1))


def test_mean_crossing_time_equals_replica_loop_on_fig5(run):
    # fig5's replicas all cross within the horizon, so its first intervals
    # alone give the censored cases
    res = run("fig5")
    censored = []
    for traj in res["all_trajectories"]:
        for cols in [*range(1, 13), traj.err_sq.shape[1]]:
            eps_sq = traj.err_sq[:, :cols]
            want, n_censored = _crossing_time_per_replica(eps_sq)
            assert experiments.mean_crossing_time(eps_sq) == want
            censored.append(n_censored)
    # all, some and none of the 600 replicas censored
    assert {0, 600} <= set(censored) and any(0 < c < 600 for c in censored)


def test_fig5_reads_each_radius_from_its_report(monkeypatch):
    # one mean-square radius per delivery case, the one `contraction` reports
    calls = []
    radius = numerics.mean_square_radius

    def counting(maps, weights):
        calls.append(len(maps))
        return radius(maps, weights)

    monkeypatch.setattr(numerics, "mean_square_radius", counting)
    res = experiments.run_experiment("fig5")
    assert len(calls) == len(res["config"]["check"]["cases"]) == len(res["ms_radii"])
    assert res["checks"]["ms_radius_rises_as_delivery_falls"]
    assert res["checks"]["noise_free_moment_rises_as_delivery_falls"]


def test_fig5_exact_checks_fail_on_reversed_cases(monkeypatch):
    cfg = experiments.load_experiment("fig5")
    cfg["check"]["cases"] = cfg["check"]["cases"][::-1]
    monkeypatch.setattr(experiments, "load_experiment", lambda name: cfg)
    checks = experiments.run_experiment("fig5")["checks"]
    assert not checks["ms_radius_rises_as_delivery_falls"]
    assert not checks["noise_free_moment_rises_as_delivery_falls"]


@pytest.mark.parametrize("name, n_cases", [("fig5", 3), ("fig6", 2)])
def test_delivery_cases_keep_the_experiment_scenarios(name, n_cases):
    # run_experiment designs once per experiment and re-weights that
    # design per delivery case; that holds while each case's scenario set
    # has the same indices, C and sigma, and only the probabilities differ
    cfg = experiments.load_experiment(name)
    _, lin, scs, _ = experiments.build_pipeline(cfg)
    check = cfg["check"]
    cases = check.get("cases", []) + [
        check[k] for k in ("case", "reference_case") if k in check]
    assert len(cases) == n_cases
    for rhos in cases:
        case = experiments.build_scenarios(experiments._with_rhos(cfg, rhos), lin)
        assert [s.index for s in case] == [s.index for s in scs]
        for got, want in zip(case, scs):
            assert np.array_equal(got.C, want.C)
            assert np.array_equal(got.sigma, want.sigma)


def test_channel_row_parsing():
    labels = ["delta_1", "omega_1", "delta_2", "omega_2"]
    row = experiments.channel_row(labels, "2.omega")
    assert np.array_equal(row, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="no state"):
        experiments.channel_row(labels, "7.delta")
    for measure in ("1delta", "1.delta.x", ""):
        with pytest.raises(ValueError, match="no state .*; states are"):
            experiments.channel_row(labels, measure)


def test_per_scenario_pole_map_in_config():
    import json
    cfg = experiments.load_experiment("fig3")
    cfg = json.loads(json.dumps(cfg))
    cfg["observer"]["poles"] = {
        "1": [-4.8, -3.6, -4.0, -4.4],
        "2": [-5.0, -4.0, -3.0, -2.0],
        "3": [-6.0, -5.0, -4.0, -3.0],
        "4": [],
    }
    g, lin, scs, obs = experiments.build_pipeline(cfg)
    got = sorted(np.linalg.eigvals(obs.decomps[2].Ac).real)
    assert np.allclose(got, [-5.0, -4.0, -3.0, -2.0], atol=1e-6)
