"""Bundled benchmark experiments (fig3 .. fig8) and their pass checks.

Each experiment is a versioned JSON config under gridobs/experiments/.
Running one builds the full pipeline (grid -> linearization -> scenario
set -> observer -> analysis -> Monte Carlo), writes trajectory data, and
evaluates the qualitative claim the experiment was designed to show.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import analysis, grid, numerics, observer, shs, sim

EXPERIMENTS = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


def load_experiment(name):
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    text = resources.files("gridobs").joinpath("experiments").joinpath(
        name + ".json").read_text()
    return json.loads(text)


def typed(value, key, kinds, want):
    """`value`, read from config key `key`, if it is one of the types
    `kinds`; else a ValueError naming the key and `want`, the JSON type
    the key takes."""
    if not isinstance(value, kinds):
        raise ValueError(f"config {key!r} must be {want}, got {type(value).__name__}")
    return value


def real_list(value, key):
    """`value`, read from config key `key`, if it is a list of finite real
    numbers; else a ValueError naming the key or its first bad entry."""
    for i, v in enumerate(typed(value, key, list, "a list")):
        if not numerics.is_finite_real(v):
            raise ValueError(f"config '{key}[{i}]' must be a finite real number, got {v!r}")
    return value


def channel_row(labels, measure):
    """Selector row for a '<bus>.<delta|omega>' measurement spec."""
    bus, _, quantity = measure.partition(".")
    label = f"{quantity}_{bus}"
    if label not in labels:
        raise ValueError(f"no state {label!r}; states are {labels}")
    row = np.zeros(len(labels))
    row[labels.index(label)] = 1.0
    return row


def build_scenarios(cfg, lin):
    channels = []
    for i, c in enumerate(typed(cfg["channels"], "channels", list, "a list")):
        c = typed(c, f"channels[{i}]", dict, "an object")
        measure = typed(c["measure"], f"channels[{i}].measure", str, "a string")
        channels.append(shs.SensorChannel(
            name=c.get("name", measure),
            row=channel_row(lin.state_labels, measure),
            delivery_ratio=c["rho"],
            noise_std=c.get("sigma", 0.0),
        ))
    overrides = typed(cfg.get("scenario_sigma_overrides", {}),
                      "scenario_sigma_overrides", dict, "an object")
    overrides = {int(k): v for k, v in overrides.items()}
    return shs.scenarios_from_channels(channels, overrides or None)


def design_observer(cfg, lin, scs, poles_key="observer.poles"):
    """The observer of `cfg` for the linearization `lin` and scenarios
    `scs`: its `observer` section's tau and completion, with the poles at
    the config key `poles_key` ("<section>.<key>"), a list or an object
    of per-scenario lists."""
    ocfg = typed(cfg["observer"], "observer", dict, "an object")
    section, key = poles_key.split(".")
    poles = typed(cfg[section][key], poles_key, (list, dict), "a list or an object")
    if isinstance(poles, dict):
        poles = {int(k): real_list(v, f"{poles_key}.{k}") for k, v in poles.items()}
    else:
        real_list(poles, poles_key)
    return observer.design(lin.A, scs, poles, ocfg["tau"],
                           completion=ocfg.get("completion", "orthonormal"))


def build_pipeline(cfg):
    """grid -> linearization -> scenarios -> designed observer."""
    g = grid.resolve_grid(cfg["grid"])
    lin = grid.linearize(g)
    scs = build_scenarios(cfg, lin)
    return g, lin, scs, design_observer(cfg, lin, scs)


def run_simulation(cfg, lin, obs, scs, **overrides):
    scfg = dict(typed(cfg["sim"], "sim", dict, "an object"))
    states = [k for k in ("x0", "xhat0") if k in scfg]
    if states:
        raise ValueError(f"sim sets {' and '.join(states)}; the error recursion "
                         "starts from the initial estimation error sim.e0 alone")
    scfg.update({k: v for k, v in overrides.items() if v is not None})
    e0 = scfg.get("e0")
    simcfg = sim.SimConfig(
        K=scfg["K"], replicas=scfg.get("replicas", 1), seed=scfg.get("seed", 0),
        e0=None if e0 is None else real_list(e0, "sim.e0"))
    return simcfg, sim.monte_carlo(lin.A, obs, scs, simcfg)


def simulate_with_expectation(cfg, lin, obs, scs):
    """run_simulation, with the exact mean squared error curve
    (`analysis.expected_err_sq`) set on the trajectory."""
    simcfg, traj = run_simulation(cfg, lin, obs, scs)
    traj.expected_err_sq = analysis.expected_err_sq(
        obs, scs, simcfg.initial_error(obs.n), simcfg.K)
    return simcfg, traj


def _with_rhos(cfg, rhos):
    out = json.loads(json.dumps(cfg))
    for ch, rho in zip(out["channels"], rhos):
        ch["rho"] = rho
    return out


def mean_crossing_time(eps_sq, fraction=0.01):
    """Average over replicas of the first interval where the squared error
    drops below fraction * initial; censors at K+1 for replicas that never
    get there.  eps_sq has shape (R, K+1)."""
    below = eps_sq <= (fraction * eps_sq[:, 0])[:, None]
    times = np.where(below.any(axis=1), below.argmax(axis=1), eps_sq.shape[1])
    return float(times.astype(float).mean())


def _reaches_1pct(cfg, traj, result, checks):
    """The sampled check that the mean squared error falls to 1% of its
    start within the config's limit, and its exact companion on the exact
    mean curve, whose crossing is recorded in `result`."""
    kmax = cfg["check"]["max_intervals_to_1pct"]
    checks["error_reaches_1pct"] = traj.time_to_fraction(0.01) <= kmax
    k = result["expected_intervals_to_1pct"] = sim.time_to_fraction(traj.expected_err_sq)
    checks["expected_error_reaches_1pct"] = k <= kmax


def run_experiment(name, seed=None, replicas=None):
    """Execute one bundled experiment; returns (result dict, checks dict).

    `checks` maps check names to booleans; the experiment passes when all
    are true.  `result` carries the trajectory and analysis numbers used,
    and the config it ran with: `seed` and `replicas`, when given, replace
    the bundled `sim` values there.
    """
    cfg = load_experiment(name)
    for key, value in (("seed", seed), ("replicas", replicas)):
        if value is not None:
            cfg["sim"][key] = value
    kind = cfg["check"]["type"]
    result = {"name": name, "config": cfg}
    checks = {}
    # delivery ratios set only the switching probabilities, so every case
    # of an experiment shares its grid, linearization and observer
    _, lin, scs, obs = build_pipeline(cfg)

    if kind == "convergence":
        rep = analysis.contraction(obs, scs)
        simcfg, traj = simulate_with_expectation(cfg, lin, obs, scs)
        result.update(report=rep.as_dict(), trajectory=traj,
                      steady=analysis.steady_state(obs, scs).as_dict())
        checks["gamma_below_one"] = rep.gamma_exact < 1.0
        _reaches_1pct(cfg, traj, result, checks)

    elif kind == "tradeoff":
        base_obs = design_observer(cfg, lin, scs, "check.baseline_poles")
        rep = analysis.contraction(obs, scs)
        rep0 = analysis.contraction(base_obs, scs)
        ss = analysis.steady_state(obs, scs)
        ss0 = analysis.steady_state(base_obs, scs)
        simcfg, traj = simulate_with_expectation(cfg, lin, obs, scs)
        result.update(report=rep.as_dict(), baseline_report=rep0.as_dict(),
                      steady=ss.as_dict(), baseline_steady=ss0.as_dict(),
                      trajectory=traj)
        checks["steady_error_larger"] = ss.mu_state > ss0.mu_state
        checks["decay_faster"] = rep.gamma_exact < rep0.gamma_exact

    elif kind == "reliability_sweep":
        times = []
        gammas = []
        radii = []
        decays = []
        trajs = []
        for rhos in cfg["check"]["cases"]:
            case = build_scenarios(_with_rhos(cfg, rhos), lin)
            rep = analysis.contraction(obs, case)
            simcfg, traj = simulate_with_expectation(cfg, lin, obs, case)
            times.append(mean_crossing_time(traj.err_sq))
            gammas.append(rep.gamma_exact)
            radii.append(rep.ms_radius)
            decays.append(analysis.noise_free_err_sq(
                obs, case, simcfg.initial_error(obs.n), simcfg.K)[1:])
            trajs.append(traj)
        result.update(times_to_1pct=times, gammas=gammas, ms_radii=radii,
                      trajectory=trajs[0], all_trajectories=trajs)
        checks["faster_with_higher_delivery"] = all(
            times[i] < times[i + 1] for i in range(len(times) - 1))
        # the exact companion of the sampled order above
        checks["ms_radius_rises_as_delivery_falls"] = all(
            radii[i] < radii[i + 1] for i in range(len(radii) - 1))
        # and of the noise-free second moment, at every interval k = 1..K
        checks["noise_free_moment_rises_as_delivery_falls"] = all(
            np.all(decays[i] < decays[i + 1]) for i in range(len(decays) - 1))

    elif kind == "degraded":
        case = build_scenarios(_with_rhos(cfg, cfg["check"]["case"]), lin)
        ref = build_scenarios(_with_rhos(cfg, cfg["check"]["reference_case"]), lin)
        rep = analysis.contraction(obs, case)
        rep_ref = analysis.contraction(obs, ref)
        ss_ref = analysis.steady_state(obs, ref)
        result.update(report=rep.as_dict(), reference_report=rep_ref.as_dict(),
                      reference_steady=ss_ref.as_dict())
        checks["gamma_strictly_worse"] = rep.gamma_exact > rep_ref.gamma_exact
        if rep.stable:
            ss = analysis.steady_state(obs, case)
            result["steady"] = ss.as_dict()
            checks["diverges_or_much_larger_floor"] = (
                ss.mu_state > 10.0 * ss_ref.mu_state)
        else:
            result["steady"] = {"unstable": True}
            checks["diverges_or_much_larger_floor"] = True
        simcfg, traj = simulate_with_expectation(cfg, lin, obs, case)
        result["trajectory"] = traj

    elif kind == "sensor_selection":
        base = load_experiment(cfg["check"]["baseline"])
        gb, linb, scsb, obsb = build_pipeline(base)
        ss = analysis.steady_state(obs, scs)
        ssb = analysis.steady_state(obsb, scsb)
        simcfg, traj = simulate_with_expectation(cfg, lin, obs, scs)
        result.update(steady=ss.as_dict(), baseline_steady=ssb.as_dict(),
                      trajectory=traj)
        ratio = ss.mu_state / ssb.mu_state
        result["floor_ratio"] = ratio
        checks["selection_changes_error"] = ratio > 1.5 or ratio < 1 / 1.5

    elif kind == "steady_floor":
        rep = analysis.contraction(obs, scs)
        ss = analysis.steady_state(obs, scs)
        simcfg, traj = simulate_with_expectation(cfg, lin, obs, scs)
        result.update(report=rep.as_dict(), steady=ss.as_dict(), trajectory=traj)
        k0 = cfg["check"]["floor_window_start"]
        floor = float(np.mean(traj.mean_err_sq[k0:]))
        tol = cfg["check"]["floor_rel_tol"]
        margin = tol * ss.mu_state - abs(floor - ss.mu_state)
        # the floor's standard error, from the spread of the per-replica
        # window means; one replica has no spread
        se = (float(np.std(traj.err_sq[:, k0:].mean(axis=1), ddof=1) / np.sqrt(traj.replicas))
              if traj.replicas > 1 else None)
        result.update(simulated_floor=floor, simulated_floor_se=se, floor_margin=margin,
                      floor_margin_se=None if not se else margin / se)
        checks["floor_matches_analysis"] = abs(floor - ss.mu_state) <= tol * ss.mu_state
        _reaches_1pct(cfg, traj, result, checks)

    else:
        raise ValueError(f"unknown check type {kind!r}")

    result["passed"] = all(checks.values())
    result["checks"] = checks
    return result
