"""Command-line interface: outputs, manifests, exit codes."""

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import gridobs
from gridobs import cli, experiments, numerics, sim


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def fig3_config(tmp_path):
    cfg = experiments.load_experiment("fig3")
    cfg["sim"]["replicas"] = 8
    cfg["sim"]["K"] = 12
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestLinearize:
    @pytest.mark.parametrize("name,entry,value", [
        ("two_bus", (1, 0), -197.7372),
        ("ieee5", (1, 0), 7.7926),
        ("ieee33", (3, 2), -4.4785),
    ])
    def test_builtin_grids(self, tmp_path, name, entry, value):
        assert run(["linearize", "--grid", name, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "linearized.json").read_text())
        A = np.array(doc["A"])
        assert abs(A[entry] - value) / abs(value) < 5e-2
        assert (tmp_path / "manifest.json").exists()

    def test_unknown_grid_exit_code(self, tmp_path, capsys):
        assert run(["linearize", "--grid", "nope", "--out", str(tmp_path)]) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_missing_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["linearize"])
        assert exc.value.code == 1


@pytest.mark.parametrize("command,options", [
    ("linearize", {"--config", "--grid", "--out"}),
    ("design", {"--config", "--grid", "--out"}),
    ("analyze", {"--config", "--grid", "--out"}),
    ("simulate", {"--config", "--grid", "--out", "--seed", "--replicas"}),
    ("reproduce", {"--out", "--seed", "--replicas"}),
])
def test_each_command_takes_only_the_flags_it_reads(command, options, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"} == options


class TestAnalyze:
    def test_fig3_report(self, tmp_path, fig3_config, capsys):
        assert run(["analyze", "--config", str(fig3_config),
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "analysis.json").read_text())
        conv = doc["convergence"]
        assert conv["gamma_exact"] < 1.0
        assert abs(conv["tau_max"] - 0.7365) / 0.7365 < 0.05
        assert doc["steady_state"]["mu_state"] > 0

    def test_mean_square_unstable_design_reports_no_steady_state(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(experiments.load_experiment("fig6")))
        assert run(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "analysis.json").read_text())
        assert doc["convergence"]["stable"] is False
        assert doc["steady_state"] == {"unstable": True}

    def test_solver_residual_failure_exits_2(self, tmp_path, fig3_config,
                                             monkeypatch, capsys):
        # the covariance solver's own residual check fails under a
        # tolerance no floating-point solve can meet; the tolerance is
        # tightened only inside the solve, since psd_sqrt's symmetry check
        # reads it too and would fail first
        solve = numerics.solve_switched_covariance

        def strict(maps, weights, Psi):
            with monkeypatch.context() as m:
                m.setattr(numerics, "RESIDUAL_TOL", 1e-300)
                return solve(maps, weights, Psi)

        monkeypatch.setattr(numerics, "solve_switched_covariance", strict)
        rc = run(["analyze", "--config", str(fig3_config), "--out", str(tmp_path)])
        assert rc == 2
        assert "covariance residual" in capsys.readouterr().err


class TestDesign:
    def test_fig3_design_lists_gains(self, tmp_path, fig3_config):
        assert run(["design", "--config", str(fig3_config),
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "design.json").read_text())
        assert doc["combined_rank"] == 4
        by_index = {s["index"]: s for s in doc["scenarios"]}
        assert by_index[1]["n_i"] == 4
        assert by_index[4]["L"] is None
        poles = by_index[1]["closed_loop_poles"]
        assert np.allclose(sorted(poles), [-4.8, -4.4, -4.0, -3.6], atol=1e-6)

    @pytest.mark.parametrize("name,ranks", [
        # one PMU on bus 1: angle and frequency, angle only, frequency only
        ("fig7", [4, 4, 3, 0]),
        # the 33-bus model with one angle PMU per generator
        ("fig8", [4, 2, 2, 0]),
    ])
    def test_partly_observable_ranks(self, tmp_path, name, ranks):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(experiments.load_experiment(name)))
        assert run(["design", "--config", str(path), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "design.json").read_text())
        assert doc["combined_rank"] == doc["state_dim"] == 4
        assert [s["index"] for s in doc["scenarios"]] == [1, 2, 3, 4]
        assert [s["rank"] for s in doc["scenarios"]] == ranks
        assert [s["n_i"] for s in doc["scenarios"]] == ranks


class TestSimulate:
    def test_trajectory_csv_and_manifest(self, tmp_path, fig3_config):
        assert run(["simulate", "--config", str(fig3_config),
                    "--out", str(tmp_path), "--seed", "77"]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["k", "t_seconds", "mean_err_sq", "var_err_sq"]
        assert header[4:] == ["mean_e1", "mean_e2", "mean_e3", "mean_e4",
                              "expected_err_sq"]
        assert len(lines) == 1 + 13   # K+1 rows
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(5.0)
        assert float(first[-1]) == pytest.approx(5.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["sim"]["seed"] == 77
        assert len(manifest["switching_paths"]) == 8
        expected = manifest["expected_err_sq"]
        assert [float(line.split(",")[-1]) for line in lines[1:]] == pytest.approx(
            expected, rel=1e-9)
        assert manifest["mean_err_sq_max_abs_z"] >= 0.0

    def test_gnuplot_script_only_when_asked(self, tmp_path, fig3_config):
        cfg = json.loads(fig3_config.read_text())
        cfg["outputs"] = {"gnuplot": True}
        path = tmp_path / "plot_cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", str(path), "--out",
                    str(tmp_path / "with")]) == 0
        script = (tmp_path / "with" / "plot.gp").read_text()
        assert "plot 'trajectory.csv' using 1:3" in script
        assert run(["simulate", "--config", str(fig3_config), "--out",
                    str(tmp_path / "without")]) == 0
        assert not (tmp_path / "without" / "plot.gp").exists()

    def test_seed_override_changes_paths(self, tmp_path, fig3_config):
        run(["simulate", "--config", str(fig3_config), "--out",
             str(tmp_path / "a"), "--seed", "1"])
        run(["simulate", "--config", str(fig3_config), "--out",
             str(tmp_path / "b"), "--seed", "1"])
        a = (tmp_path / "a" / "trajectory.csv").read_text()
        b = (tmp_path / "b" / "trajectory.csv").read_text()
        assert a == b


class TestReproduce:
    def test_fig3_small_run_passes(self, tmp_path, capsys):
        rc = run(["reproduce", "fig3", "--out", str(tmp_path),
                  "--replicas", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass" in out
        assert (tmp_path / "fig3.csv").exists()
        manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
        assert manifest["result"]["checks"]["gamma_below_one"] is True

    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_manifest_loads_as_built_with_one_path_per_line(self, name, tmp_path,
                                                           monkeypatch):
        built = []
        write = cli._manifest

        def keeping(*args, **kwargs):
            built.append(write(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "_manifest", keeping)
        run(["reproduce", name, "--out", str(tmp_path), "--replicas", "3"])
        text = (tmp_path / f"{name}_manifest.json").read_text()
        (doc,) = built
        # strict JSON: no NaN or Infinity tokens (fig8's tau_max is null)
        assert json.loads(text, parse_constant=_refuse) \
            == json.loads(json.dumps(doc, default=cli._jsonable))
        paths = doc["result"]["switching_paths"]
        assert paths.shape == (3, doc["config"]["sim"]["K"])
        lines = text.splitlines()
        start = lines.index('    "switching_paths": [')
        assert [json.loads(line.rstrip(",")) for line in lines[start + 1:start + 4]] \
            == paths.tolist()
        assert lines[start + 4].rstrip(",") == "    ]"

    def test_manifest_records_the_overrides_it_ran_with(self, tmp_path):
        assert run(["reproduce", "fig3", "--out", str(tmp_path), "--seed", "5",
                    "--replicas", "4"]) == 0
        doc = json.loads((tmp_path / "fig3_manifest.json").read_text())
        bundled = experiments.load_experiment("fig3")["sim"]
        assert doc["config"]["sim"] == {**bundled, "seed": 5, "replicas": 4}
        result = doc["result"]
        assert len(result["switching_paths"]) == 4
        switch_root, noise_root = sim.SimConfig(K=1, seed=5).roots()
        assert (result["seeds"]["switch_root"], result["seeds"]["noise_root"]) \
            == (switch_root, noise_root)

    def test_failing_check_exit_code(self, tmp_path, monkeypatch):
        def fake(name, seed=None, replicas=None):
            return {"name": name, "config": {}, "checks": {"x": False},
                    "passed": False}
        monkeypatch.setattr(experiments, "run_experiment", fake)
        assert run(["reproduce", "fig3", "--out", str(tmp_path)]) == 3

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run(["reproduce", "fig99"])


def _fig3_with(overrides=None, channel2=None, sim=None, channel1=None, **observer):
    cfg = experiments.load_experiment("fig3")
    if overrides is not None:
        cfg["scenario_sigma_overrides"] = overrides
    cfg["channels"][0].update(channel1 or {})
    cfg["channels"][1].update(channel2 or {})
    cfg["sim"].update(sim or {})
    cfg["observer"].update(observer)
    return cfg


def _refuse(token):
    raise ValueError(f"{token} is not strict JSON")


def test_manifests_refuse_non_finite_numbers():
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._dumps({"mean_err_sq": [1.0, float("nan")]})


def _fig3_replacing(**sections):
    cfg = experiments.load_experiment("fig3")
    cfg.update(sections)
    return cfg


def _two_bus_with(bus=None, line=None, mode=None):
    g = json.loads(resources.files("gridobs").joinpath("cases", "two_bus.json").read_text())
    g["buses"][0].update(bus or {})
    g["lines"][0].update(line or {})
    if mode is not None:
        g["equilibrium_mode"] = mode
    return {"grid": g}


@pytest.mark.parametrize("argv,config,code", [
    # an override naming a scenario that does not exist
    (["design", "--config", "cfg.json"], _fig3_with(overrides={"9": 0.01}), 2),
    # rho 1.0 on channel 2 prunes scenario 3, which fig3's overrides name
    (["design", "--config", "cfg.json"], _fig3_with(channel2={"rho": 1.0}), 2),
    (["design", "--config", "cfg.json"], _fig3_with(channel2={"rho": 1.5}), 2),
    # channel numbers that are not finite real numbers
    (["design", "--config", "cfg.json"], _fig3_with(channel2={"rho": "0.9"}), 2),
    (["design", "--config", "cfg.json"], _fig3_with(channel2={"sigma": None}), 2),
    (["design", "--config", "cfg.json"], _fig3_with(channel2={"sigma": float("nan")}), 2),
    # a negative override noise level
    (["design", "--config", "cfg.json"], _fig3_with(overrides={"1": [-0.1, 0.1]}), 2),
    # a completion mode that does not exist, on a set of scenarios that are
    # all fully observable or blind
    (["analyze", "--config", "cfg.json"], _fig3_with(completion="bogus"), 2),
    # a grid file named without a directory part
    (["linearize", "--grid", "mygrid.json"], None, 0),
    (["analyze", "--config", "missing.json"], None, 1),
    # a config file cut off mid-document
    (["analyze", "--config", "cfg.json"], '{"grid": "ieee5", "channels": [', 1),
    # an interval whose scaled model overflows the matrix exponential
    (["analyze", "--config", "cfg.json"], _fig3_with(tau=1e300), 2),
    # intervals that are not finite real numbers
    (["analyze", "--config", "cfg.json"], _fig3_with(tau="0.5"), 2),
    (["analyze", "--config", "cfg.json"], _fig3_with(tau=None), 2),
    (["analyze", "--config", "cfg.json"], _fig3_with(tau=True), 2),
    (["analyze", "--config", "cfg.json"], _fig3_with(tau=10**23), 2),
    # bus and line data that are not finite real numbers
    (["linearize", "--config", "cfg.json"], _two_bus_with(bus={"p_load": "0.5"}), 2),
    (["linearize", "--config", "cfg.json"], _two_bus_with(bus={"inertia": None}), 2),
    (["linearize", "--config", "cfg.json"], _two_bus_with(bus={"inertia": float("nan")}), 2),
    (["linearize", "--config", "cfg.json"], _two_bus_with(bus={"damping": float("inf")}), 2),
    (["linearize", "--config", "cfg.json"], _two_bus_with(line={"x": "0.05"}), 2),
    (["linearize", "--config", "cfg.json"], _two_bus_with(line={"x": float("nan")}), 2),
    # an equilibrium mode that does not exist, and bus flags that are not
    # JSON booleans
    (["linearize", "--config", "cfg.json"], _two_bus_with(mode="bogus"), 2),
    (["linearize", "--config", "cfg.json"], _two_bus_with(bus={"voltage_fixed": "no"}), 2),
    (["linearize", "--config", "cfg.json"], _two_bus_with(bus={"angle_fixed": 0}), 2),
    # horizons and replica counts that are not integers
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"K": "10"}), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"K": 2.5}), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"K": True}), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"replicas": 3.5}), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"seed": 1.5}), 2),
    # seeds outside [0, 2**64), which would alias seeds inside it
    (["simulate", "--config", "cfg.json", "--seed", "-1"], _fig3_with(), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"seed": 2**64}), 2),
    (["reproduce", "fig3", "--seed", str(2**64)], None, 2),
    # initial states other than the initial estimation error
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"x0": [0.0] * 4}), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"xhat0": [0.0] * 4}), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"e0": [2.0, 0.0]}), 2),
    # pole and initial-error entries that are not numbers
    (["design", "--config", "cfg.json"], _fig3_with(poles=[-4.8, {"a": 1}, -4.0, -4.4]), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"e0": {"a": 1}}), 2),
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"e0": [2.0, {"a": 1}, 1.0, 0.0]}), 2),
    # numbers whose results leave the float range
    (["simulate", "--config", "cfg.json"], _fig3_with(sim={"e0": [1e308, 0.0, 1.0, 0.0]}), 2),
    (["analyze", "--config", "cfg.json"], _fig3_with(channel1={"sigma": 1e308}), 2),
    (["analyze", "--config", "cfg.json"], _fig3_with(poles=[1e308, -3.6, -4.0, -4.4]), 2),
    # config sections of the wrong JSON type
    (["simulate", "--config", "cfg.json"], _fig3_replacing(sim=5), 2),
    (["design", "--config", "cfg.json"], _fig3_replacing(channels=5), 2),
    (["design", "--config", "cfg.json"], _fig3_replacing(channels=[5]), 2),
    (["design", "--config", "cfg.json"], _fig3_with(channel2={"measure": 5}), 2),
    (["design", "--config", "cfg.json"], _fig3_with(channel2={"measure": "1delta"}), 2),
    (["design", "--config", "cfg.json"], _fig3_replacing(observer=[]), 2),
    (["design", "--config", "cfg.json"], _fig3_with(poles=5), 2),
    (["design", "--config", "cfg.json"], _fig3_with(overrides=[1]), 2),
    (["design", "--config", "cfg.json"], _fig3_replacing(grid=[1]), 2),
    (["design", "--config", "cfg.json"], _fig3_replacing(grid=5), 2),
    (["simulate", "--config", "cfg.json", "--seed", "1"], _fig3_replacing(sim=5), 2),
    # a config document that is not an object
    (["simulate", "--config", "cfg.json", "--seed", "1"], "[1]", 1),
    # flags the command does not take, and a flag value of the wrong type
    (["reproduce", "fig3", "--grid", "ieee33"], None, 1),
    (["design", "--config", "cfg.json", "--seed", "1"], _fig3_with(), 1),
    (["simulate", "--config", "cfg.json", "--seed", "x"], _fig3_with(), 1),
], ids=["unknown-override", "pruned-override", "rho-above-one", "rho-string",
        "sigma-null", "sigma-nan", "override-negative", "completion-unknown",
        "relative-grid-file", "missing-config", "malformed-config", "tau-overflow",
        "tau-string", "tau-null", "tau-bool", "tau-huge-int", "p-load-string",
        "inertia-null", "inertia-nan", "damping-inf", "line-x-string",
        "line-x-nan", "mode-unknown", "voltage-fixed-string", "angle-fixed-int",
        "k-string", "k-fraction",
        "k-bool", "replicas-fraction", "seed-fraction", "seed-negative", "seed-2-64",
        "reproduce-seed-2-64", "sim-x0", "sim-xhat0",
        "e0-short", "pole-object", "e0-object", "e0-entry-object", "e0-huge",
        "sigma-huge", "pole-huge", "sim-int", "channels-int", "channel-int", "measure-int",
        "measure-no-dot",
        "observer-list", "poles-int", "overrides-list", "grid-list", "grid-int", "sim-int-seed-flag",
        "config-list", "reproduce-grid", "design-seed", "seed-string"])
def test_failures_exit_cleanly(tmp_path, argv, config, code):
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "cfg.json").write_text(text)
    (tmp_path / "mygrid.json").write_text(
        resources.files("gridobs").joinpath("cases", "two_bus.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(Path(gridobs.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridobs.cli", *argv, "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("config,field", [
    (_fig3_with(poles=[-4.8, {"a": 1}, -4.0, -4.4]), "config 'observer.poles[1]'"),
    (_fig3_with(poles={"1": [-4.8, None, -4.0, -4.4]}), "config 'observer.poles.1[1]'"),
    (_fig3_with(sim={"e0": {"a": 1}}), "config 'sim.e0' must be a list"),
    (_fig3_with(sim={"e0": [2.0, {"a": 1}, 1.0, 0.0]}), "config 'sim.e0[1]'"),
    (_fig3_with(sim={"e0": [1e308, 0.0, 1.0, 0.0]}), "sim.e0 is too large"),
    (_fig3_with(channel1={"sigma": 1e308}), "scenario 1: the noise levels overflow"),
], ids=["pole", "per-scenario-pole", "e0", "e0-entry", "e0-huge", "sigma-huge"])
def test_entry_failures_name_the_field(tmp_path, capsys, config, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(path), "--replicas", "2",
                "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and field in line


def test_redundant_sensors_are_designed(tmp_path):
    # a second angle sensor on bus 1 leaves C2 with dependent rows where
    # both are up; the gain splits equally between the two
    cfg = _fig3_with()
    cfg["channels"].append(dict(cfg["channels"][0], name="pmu_delta1_b"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    _, _, scs, obs = experiments.build_pipeline(cfg)
    d = obs.decomps[scs.scenarios[0].index]
    assert scs.scenarios[0].up_channels == (0, 1, 2) and d.C2.shape == (3, 4)
    assert np.array_equal(d.L[:, 0], d.L[:, 2])
    assert np.allclose(np.sort(np.linalg.eigvals(d.Ac).real), [-4.8, -4.4, -4.0, -3.6])


def test_run_leaves_scipy_unloaded(tmp_path, fig3_config):
    # gridobs runs on numpy alone; scipy is only the tests' oracle.  Nor
    # does it load numpy.ma, which numpy imports lazily (np.unique does)
    out = str(tmp_path / "out")
    code = (
        "import sys, gridobs.cli\n"
        "for cmd in (['analyze'], ['simulate', '--replicas', '2']):\n"
        f"    rc = gridobs.cli.main(cmd + ['--config', {str(fig3_config)!r}, '--out', {out!r}])\n"
        "    assert rc == 0, cmd\n"
        "print([m for m in sys.modules if m in ('scipy', 'numpy.ma')\n"
        "       or m.startswith(('scipy.', 'numpy.ma.'))])")
    env = dict(os.environ, PYTHONPATH=str(Path(gridobs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
