"""Command-line interface: outputs, manifests, exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import gridobs
from gridobs import cli, experiments, numerics


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
        assert exc.value.code == 2   # argparse's usage-error exit


class TestAnalyze:
    def test_fig3_report(self, tmp_path, fig3_config, capsys):
        assert run(["analyze", "--config", str(fig3_config),
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "analysis.json").read_text())
        conv = doc["convergence"]
        assert conv["gamma_exact"] < 1.0
        assert abs(conv["tau_max"] - 0.7365) / 0.7365 < 0.05
        assert doc["steady_state"]["mu_state"] > 0

    def test_solver_residual_failure_exits_2(self, tmp_path, fig3_config,
                                             monkeypatch, capsys):
        # the covariance solver's own residual check fails under a
        # tolerance no floating-point solve can meet
        solve = numerics.solve_switched_covariance

        def strict(maps, weights, Psi, tol=None):
            return solve(maps, weights, Psi, numerics.Tolerance(residual_tol=1e-300))

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


class TestSimulate:
    def test_trajectory_csv_and_manifest(self, tmp_path, fig3_config):
        assert run(["simulate", "--config", str(fig3_config),
                    "--out", str(tmp_path), "--seed", "77"]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["k", "t_seconds", "mean_err_sq", "var_err_sq"]
        assert header[4:] == ["mean_e1", "mean_e2", "mean_e3", "mean_e4"]
        assert len(lines) == 1 + 13   # K+1 rows
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(5.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["sim"]["seed"] == 77
        assert len(manifest["switching_paths"]) == 8

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
        assert json.loads(text) == json.loads(json.dumps(doc, default=cli._jsonable))
        paths = doc["result"]["switching_paths"]
        assert paths.shape == (3, doc["config"]["sim"]["K"])
        lines = text.splitlines()
        start = lines.index('    "switching_paths": [')
        assert [json.loads(line.rstrip(",")) for line in lines[start + 1:start + 4]] \
            == paths.tolist()
        assert lines[start + 4].rstrip(",") == "    ]"

    def test_failing_check_exit_code(self, tmp_path, monkeypatch):
        def fake(name, seed=None, replicas=None):
            return {"name": name, "config": {}, "checks": {"x": False},
                    "passed": False}
        monkeypatch.setattr(experiments, "run_experiment", fake)
        assert run(["reproduce", "fig3", "--out", str(tmp_path)]) == 3

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run(["reproduce", "fig99"])


def _fig3_with(overrides=None, rho2=None):
    cfg = experiments.load_experiment("fig3")
    if overrides is not None:
        cfg["scenario_sigma_overrides"] = overrides
    if rho2 is not None:
        cfg["channels"][1]["rho"] = rho2
    return cfg


@pytest.mark.parametrize("argv,config,code", [
    # an override naming a scenario that does not exist
    (["design", "--config", "cfg.json"], _fig3_with(overrides={"9": 0.01}), 2),
    # rho 1.0 on channel 2 prunes scenario 3, which fig3's overrides name
    (["design", "--config", "cfg.json"], _fig3_with(rho2=1.0), 2),
    (["design", "--config", "cfg.json"], _fig3_with(rho2=1.5), 2),
    # a grid file named without a directory part
    (["linearize", "--grid", "mygrid.json"], None, 0),
    (["analyze", "--config", "missing.json"], None, 1),
    # a config file cut off mid-document
    (["analyze", "--config", "cfg.json"], '{"grid": "ieee5", "channels": [', 1),
], ids=["unknown-override", "pruned-override", "rho-above-one",
        "relative-grid-file", "missing-config", "malformed-config"])
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


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second of import time; nothing at run time needs it
    code = ("import sys, gridobs.cli; print([m for m in sys.modules "
            "if m == 'scipy.signal' or m.startswith('scipy.signal.')])")
    env = dict(os.environ, PYTHONPATH=str(Path(gridobs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
