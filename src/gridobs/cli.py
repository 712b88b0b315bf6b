"""Command-line front end.

Commands (and the flags each one reads)
    linearize   equilibrium + state-space matrices of a grid
    design      scenario set, decompositions, and observer gains
    analyze     convergence report and steady-state variances
                (these three: --config, --grid, --out)
    simulate    Monte Carlo error trajectories (CSV + manifest)
                (--config, --grid, --out, --seed, --replicas)
    reproduce   run a bundled benchmark experiment and check its claim
                (NAME, --out, --seed, --replicas)

Exit codes: 0 success, 1 usage error (a bad argument, an unreadable
--config or one that is not a JSON object, a missing config field), 2
model or numerical failure (grid, scenario, observer, a config section of
the wrong JSON type), 3 a reproduce check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, experiments, grid
from .grid import GridError
from .observer import ObserverError
from .shs import ScenarioError


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc.strerror}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise UsageError(f"config {args.config} is not a JSON object")
    if args.grid:
        cfg["grid"] = args.grid
    # only simulate takes --seed and --replicas
    for key in ("seed", "replicas"):
        if getattr(args, key, None) is not None:
            sim = experiments.typed(cfg.setdefault("sim", {}), "sim", dict, "an object")
            sim[key] = getattr(args, key)
    return cfg


def _outdir(args):
    out = args.out or os.environ.get("GRIDOBS_OUT", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(path, command, cfg, extra=None):
    doc = {"tool": "gridobs", "version": __version__, "command": command,
           "config": cfg}
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        f.write(_dumps(doc))
    return doc


# stands in for an integer table while the rest of a document is indented
_TABLE = "\x00table"


def _dumps(doc):
    """json.dumps(doc, indent=2), with each row of an integer table on one line.

    The output is strict JSON: a NaN or an infinity anywhere in `doc` is a
    ValueError, as a strict parser would refuse the file.

    Indented output goes through json's pure-Python encoder, which would
    give every entry of a switching-path table (600 x 120 in fig5) a line
    of its own.  The rows are encoded by the C encoder instead.
    """
    tables = []

    def default(obj):
        if (isinstance(obj, np.ndarray) and obj.ndim == 2 and len(obj)
                and obj.dtype.kind in "iu"):
            tables.append(obj.tolist())
            return f"{_TABLE}{len(tables) - 1}"
        return _jsonable(obj)

    lines = json.dumps(doc, indent=2, default=default, allow_nan=False).split("\n")
    token = json.dumps(_TABLE)[:-1]
    for k, line in enumerate(lines):
        head, found, tail = line.partition(token)
        if found:
            index, _, rest = tail.partition('"')
            pad = " " * (len(line) - len(line.lstrip(" ")))
            rows = ",\n".join(f"{pad}  {json.dumps(row)}" for row in tables[int(index)])
            lines[k] = f"{head}[\n{rows}\n{pad}]{rest}"
    return "\n".join(lines)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj)}")


def trajectory_table(traj):
    """Header and rows of a trajectory's CSV file."""
    n = traj.per_state_mean_sq.shape[1]
    header = ["k", "t_seconds", "mean_err_sq", "var_err_sq"]
    header += [f"mean_e{i + 1}" for i in range(n)]
    header.append("expected_err_sq")
    rows = []
    for k in range(traj.mean_err_sq.size):
        row = [k, k * traj.tau, traj.mean_err_sq[k], traj.var_err_sq[k]]
        row += list(traj.per_state_mean_sq[k])
        row.append(traj.expected_err_sq[k])
        rows.append(row)
    return header, rows


def _write_trajectory_csv(path, traj):
    header, rows = trajectory_table(traj)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.10g}" if isinstance(v, float) or hasattr(v, "item")
                             else str(v) for v in row) + "\n")


_GNUPLOT = """set datafile separator ','
set logscale y
set xlabel 'interval k'
set ylabel 'mean squared error'
plot '{csv}' using 1:3 with lines title 'mean ||eps||^2'
"""


def _maybe_gnuplot(outdir, cfg, csv_name):
    if cfg.get("outputs", {}).get("gnuplot"):
        (outdir / "plot.gp").write_text(_GNUPLOT.format(csv=csv_name))


def cmd_linearize(args):
    cfg = _load_config(args)
    g = grid.resolve_grid(cfg["grid"])
    lin = grid.linearize(g)
    outdir = _outdir(args)
    doc = {
        "grid": g.name,
        "state_labels": lin.state_labels,
        "A": lin.A, "B1": lin.B1, "B2": lin.B2, "D1": lin.D1, "D2": lin.D2,
        "eigenvalues_A": sorted(np.linalg.eigvals(lin.A).real.tolist()),
        "equilibrium": {
            "angles_rad": lin.equilibrium.angles,
            "dispatch": lin.equilibrium.p_in,
            "network_angles_rad": lin.equilibrium.network.angles,
            "network_voltages": lin.equilibrium.network.voltages,
            "residual": lin.equilibrium.residual,
        },
    }
    with open(outdir / "linearized.json", "w") as f:
        json.dump(doc, f, indent=2, default=_jsonable, allow_nan=False)
    _manifest(outdir / "manifest.json", "linearize", cfg)
    print(f"wrote {outdir / 'linearized.json'}")
    return 0


def _pipeline(cfg):
    if "channels" not in cfg or "observer" not in cfg:
        raise UsageError("config needs 'channels' and 'observer' sections")
    return experiments.build_pipeline(cfg)


class UsageError(Exception):
    pass


def cmd_design(args):
    cfg = _load_config(args)
    g, lin, scs, obs = _pipeline(cfg)
    outdir = _outdir(args)
    # design has verified that the stacked sub-state maps have full rank
    doc = {"grid": g.name, "scenarios": [], "combined_rank": obs.n,
           "state_dim": obs.n}
    for s in scs:
        d = obs.decomps[s.index]
        doc["scenarios"].append({
            "index": s.index, "probability": s.probability,
            "rank": d.n_i, "n_i": d.n_i,
            "C": s.C, "L": d.L, "closed_loop_poles":
                sorted(np.linalg.eigvals(d.Ac).real.tolist()) if d.Ac is not None else None,
        })
    if obs.pole_truncations:
        doc["pole_truncations"] = {
            str(k): f"used first {v[1]} of {v[0]} requested poles"
            for k, v in obs.pole_truncations.items()}
    with open(outdir / "design.json", "w") as f:
        json.dump(doc, f, indent=2, default=_jsonable, allow_nan=False)
    _manifest(outdir / "manifest.json", "design", cfg)
    print(f"wrote {outdir / 'design.json'}")
    return 0


def cmd_analyze(args):
    cfg = _load_config(args)
    g, lin, scs, obs = _pipeline(cfg)
    rep = analysis.contraction(obs, scs)
    doc = {"grid": g.name, "convergence": rep.as_dict()}
    if rep.stable:
        ss = analysis.steady_state(obs, scs)
        doc["steady_state"] = ss.as_dict(matrices=True)
    else:
        doc["steady_state"] = {"unstable": True}
    outdir = _outdir(args)
    with open(outdir / "analysis.json", "w") as f:
        json.dump(doc, f, indent=2, default=_jsonable, allow_nan=False)
    _manifest(outdir / "manifest.json", "analyze", cfg, {"report": doc})
    print(json.dumps(doc, indent=2, default=_jsonable))
    return 0


def _expectation(traj):
    """Manifest fields comparing a trajectory with its exact mean curve."""
    return {"expected_err_sq": traj.expected_err_sq,
            "mean_err_sq_max_abs_z": traj.max_abs_z()}


def cmd_simulate(args):
    cfg = _load_config(args)
    g, lin, scs, obs = _pipeline(cfg)
    simcfg, traj = experiments.simulate_with_expectation(cfg, lin, obs, scs)
    outdir = _outdir(args)
    _write_trajectory_csv(outdir / "trajectory.csv", traj)
    _maybe_gnuplot(outdir, cfg, "trajectory.csv")
    rep = analysis.contraction(obs, scs)
    extra = {
        "report": rep.as_dict(),
        "seeds": traj.seeds,
        "switching_paths": traj.paths,
        **_expectation(traj),
    }
    if rep.stable:
        extra["steady_state"] = analysis.steady_state(obs, scs).as_dict()
    _manifest(outdir / "manifest.json", "simulate", cfg, extra)
    print(f"wrote {outdir / 'trajectory.csv'} ({simcfg.replicas} replicas, "
          f"K={simcfg.K})")
    return 0


def reproduce_outputs(name, result):
    """What `reproduce` writes for a run_experiment result: the CSV files
    by name, the manifest's result payload and the check lines."""
    traj = result.get("trajectory")
    csvs = {}
    if traj is not None:
        csvs[f"{name}.csv"] = traj
    for i, t in enumerate(result.get("all_trajectories", [])):
        csvs[f"{name}_case{i + 1}.csv"] = t
    payload = {k: v for k, v in result.items()
               if k not in ("trajectory", "all_trajectories")}
    if traj is not None:
        payload.update(_expectation(traj))
        payload["seeds"] = traj.seeds
        payload["switching_paths"] = traj.paths
    if "all_trajectories" in result:
        payload["case_mean_err_sq_max_abs_z"] = [
            t.max_abs_z() for t in result["all_trajectories"]]
    lines = [f"{name}: {check}: {'pass' if ok else 'FAIL'}"
             for check, ok in result["checks"].items()]
    return csvs, payload, lines


def cmd_reproduce(args):
    result = experiments.run_experiment(args.name, seed=args.seed,
                                        replicas=args.replicas)
    outdir = _outdir(args)
    csvs, payload, lines = reproduce_outputs(args.name, result)
    for filename, traj in csvs.items():
        _write_trajectory_csv(outdir / filename, traj)
    _manifest(outdir / f"{args.name}_manifest.json", f"reproduce {args.name}",
              result["config"], {"result": payload})
    for line in lines:
        print(line)
    return 0 if result["passed"] else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage errors exit 1; 2 is for model failures
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(
        prog="gridobs",
        description="Grid state estimation under randomly interrupted sensing.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("linearize", cmd_linearize), ("design", cmd_design),
                     ("analyze", cmd_analyze), ("simulate", cmd_simulate),
                     ("reproduce", cmd_reproduce)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if name == "reproduce":
            p.add_argument("name", choices=experiments.EXPERIMENTS)
        else:
            p.add_argument("--config", help="JSON run configuration")
            p.add_argument("--grid", help="builtin grid name or grid JSON path")
        p.add_argument("--out", help="output directory (default: $GRIDOBS_OUT or ./out)")
        if name in ("simulate", "reproduce"):
            p.add_argument("--seed", type=int, help="override the simulation seed")
            p.add_argument("--replicas", type=int, help="override the replica count")

    args = parser.parse_args(argv)
    if args.command in ("linearize",) and not (args.grid or args.config):
        parser.error("linearize needs --grid or --config")
    if args.command in ("design", "analyze", "simulate") and not args.config:
        parser.error(f"{args.command} needs --config")
    try:
        return args.fn(args)
    except (GridError, ObserverError, ScenarioError, np.linalg.LinAlgError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"usage error: config is missing a required field: {exc}",
              file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
