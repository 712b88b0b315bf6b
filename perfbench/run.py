"""gridobs benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload reproduce_suite --seed 1 --seconds 35 --trace 0

Workloads (see README.md for why each exists):
  reproduce_suite  ``gridobs reproduce fig3`` .. ``fig8``, one child process
                   per experiment, order shuffled by the seed
  mc_fig3          one ``monte_carlo`` call per operation at fig3's size
  mc_alphabet16    the same on a 16-scenario alphabet

The benchmark runs gridobs from ``src/`` next to this directory and sets no
BLAS thread variable.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer ones from wrapped public functions.  End-to-end times are
wall times scaled to a nominal host speed (``hostspeed.py``).  Every
operation's output is checked.  The line before the last holds the full
report (the environment, seeds, raw wall times, every traced function); the
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Spans are written to ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import inputs
import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SUITE_SETUPS = 7          # reproduce_suite preparations per run
MC_CHILDREN = 3           # measuring children per mc_* run, one set-up each

E2E = {                   # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "replica_intervals_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}

# traced functions that run on every workload (set-up or timed section);
# the rest only run under reproduce_suite
EVERYWHERE = (
    "experiments.build_pipeline", "experiments.run_simulation",
    "grid.linearize", "grid.find_equilibrium", "grid.solve_network",
    "shs.scenarios_from_channels", "shs.sample_skeleton",
    "observer.design", "observer.decompose", "observer.design_gains",
    "observer.build",
    "numerics.place_poles", "numerics.matrix_exponential",
    "numerics.noise_gramian", "numerics.psd_sqrt",
    "sim.monte_carlo",
)

PER_LAYER = {}
for _mod, _fn in sp.TRACED:
    PER_LAYER.update({f"{_mod}.{_fn}.calls": "count", f"{_mod}.{_fn}.self_s": "s",
                      f"{_mod}.{_fn}.total_s": "s"})
PER_LAYER.update({
    "cli.import_s": "s",
    "cli.out_bytes": "bytes",
    "shs.scenarios": "count",
    "observer.design.repeat_share": "ratio",
    "analysis.compute_tau_max.expm_calls": "count",
    "sim.monte_carlo.replica_intervals": "count",
    "sim.monte_carlo.groups_per_interval": "count",
    "trace.overhead_s": "s",
    "trace.silent_wrappers": "count",
})


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns child processes one at a time inside the run's time budget.

    A run measures for `seconds`; set-up and the work that finishes after
    the measuring deadline get 2 * seconds + 60 more, so with --seconds 35
    every run ends within 165 s or fails.
    """

    def __init__(self, started, seconds):
        self.deadline = started + 3 * seconds + 60
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))

    def run(self, cmd, cwd):
        timeout = self.deadline - _now()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        try:
            return subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {cmd}") from exc


def _fail_detail(proc):
    tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-5:]
    return f"exit {proc.returncode}: " + " | ".join(tail)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _merge(into, agg, scale=1.0):
    for name, row in agg.items():
        dst = into.setdefault(name, {"calls": 0.0, "self_s": 0.0, "total_s": 0.0})
        for k in dst:
            dst[k] += row[k] * scale


def layer_metrics(table, extra, expected):
    """Per-layer metric dict from a per-unit function table.

    `table` maps traced function name -> calls/self_s/total_s for one unit
    of work (a pass or one set-up plus one operation); `expected` names the
    wrappers that must fire.
    """
    zero = {"calls": 0.0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for mod, fn in sp.TRACED:
        row = table.get(f"{mod}.{fn}", zero)
        for k in zero:
            out[f"{mod}.{fn}.{k}"] = row[k]
    out.update(extra)
    out["trace.silent_wrappers"] = sum(
        1 for name in expected if table.get(name, zero)["calls"] == 0)
    return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER.items()}


def _extras(traces, units, import_s, out_bytes, overhead_s):
    """Per-layer counters from several processes' trace dumps, per unit."""
    mc = [w for t in traces for w in t["mc_work"]]
    return {
        "cli.import_s": import_s,
        "cli.out_bytes": out_bytes,
        "shs.scenarios": max((n for t in traces for n in t["scenario_counts"]), default=0),
        "observer.design.repeat_share": sp.repeat_share([t["design_digests"] for t in traces]),
        "analysis.compute_tau_max.expm_calls": sum(
            sp.count_under(t["spans"], "numerics.matrix_exponential",
                           "analysis.compute_tau_max") for t in traces) / units,
        "sim.monte_carlo.replica_intervals": sum(w for w, _ in mc) / units,
        "sim.monte_carlo.groups_per_interval":
            sum(g for _, g in mc) / len(mc) if mc else 0.0,
        "trace.overhead_s": overhead_s,
    }


# ---------------------------------------------------------------- reproduce


def _gate(fig, proc, outdir):
    """None when one reproduce run's outputs are right, else what is wrong."""
    if proc.returncode != 0:
        return _fail_detail(proc)
    lines = set(proc.stdout.splitlines())
    missing = [c for c in inputs.EXPECTED_CHECKS[fig] if f"{fig}: {c}: pass" not in lines]
    if missing:
        return f"check lines missing or failing: {missing}"
    csv = outdir / f"{fig}.csv"
    if not csv.is_file() or not csv.read_text().startswith("k,t_seconds,mean_err_sq"):
        return f"{csv.name} missing or malformed"
    try:
        json.loads((outdir / f"{fig}_manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return f"manifest unreadable: {exc}"
    return None


def _mc_work(fig, outdir):
    """Replica-intervals the experiment simulated, from its own outputs."""
    doc = json.loads((outdir / f"{fig}_manifest.json").read_text())
    sims = len(list(outdir.glob(f"{fig}_case*.csv"))) or 1
    return doc["config"]["sim"]["replicas"] * doc["config"]["sim"]["K"] * sims


def _run_experiment(runner, chain, tmp, fig, pass_index, traced):
    outdir = tmp / f"p{pass_index}-{fig}-{'t' if traced else 'u'}"
    outdir.mkdir()
    res_path = tmp / f"{outdir.name}.json"
    cli = ["reproduce", fig, "--out", str(outdir)]
    launch = _now()
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py"), repr(launch),
               str(res_path), *cli]
    else:
        cmd = [sys.executable, "-m", "gridobs.cli", *cli]
    proc = runner.run(cmd, cwd=tmp)
    rec = {"fig": fig, "pass": pass_index, "traced": traced, "s": _now() - launch,
           "ref_s": chain.after(), "error": _gate(fig, proc, outdir)}
    if rec["error"] is None:
        rec["work"] = _mc_work(fig, outdir)
        rec["csv_sha256"] = hashlib.sha256((outdir / f"{fig}.csv").read_bytes()).hexdigest()
    rec["out_bytes"] = sum(f.stat().st_size for f in outdir.iterdir())
    if traced and res_path.is_file():
        rec["trace"] = json.loads(res_path.read_text())
    shutil.rmtree(outdir)
    return rec


def run_suite(args, runner, tmp):
    # warm-up, not timed: a child imports gridobs.cli once, so the first
    # experiment does not pay alone for reading its modules from disk
    proc = runner.run([sys.executable, "-c", "import gridobs.cli"], cwd=tmp)
    if proc.returncode != 0:
        raise BenchError("gridobs.cli does not import: " + _fail_detail(proc))
    setups = []
    env = None
    chain = hostspeed.Chain(3)
    for k in range(SUITE_SETUPS):
        t0 = _now()
        (tmp / f"setup{k}").mkdir()
        proc = runner.run([sys.executable, str(HERE / "envinfo.py")], cwd=tmp)
        if proc.returncode != 0:
            raise BenchError("environment probe failed: " + _fail_detail(proc))
        env = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append({"s": _now() - t0, "ref_s": chain.after()})

    runs = []
    traced_passes = 0
    loop_deadline = _now() + args.seconds
    p = 0
    while True:
        order = inputs.experiment_order(args.seed, p)
        for j, fig in enumerate(order):
            if not args.trace and p > 0 and _now() >= loop_deadline:
                break
            modes = [False]
            if args.trace:
                modes = [True, False] if (p + j) % 2 == 0 else [False, True]
            pair = [_run_experiment(runner, chain, tmp, fig, p, traced) for traced in modes]
            if len(pair) == 2 and all(r["error"] is None for r in pair) \
                    and pair[0]["csv_sha256"] != pair[1]["csv_sha256"]:
                for r in pair:
                    r["error"] = "traced and untraced CSV outputs differ"
            runs.extend(pair)
        else:
            traced_passes += bool(args.trace)
        p += 1
        if _now() >= loop_deadline:
            break

    plain = [r for r in runs if not r["traced"]]
    per_fig = {fig: [hostspeed.nominal(r["s"], r["ref_s"]) for r in plain if r["fig"] == fig]
               for fig in inputs.EXPERIMENTS}
    work = {r["fig"]: r["work"] for r in plain if "work" in r}
    report = {
        "env": env, "seed": args.seed, "setup_runs": setups,
        "orders": [inputs.experiment_order(args.seed, i) for i in range(p)],
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in runs],
    }
    failed = sum(r["error"] is not None for r in runs)
    if not args.trace:
        # one value per experiment, so which experiments ran twice in the
        # run's last, partial pass does not shift the op metrics
        fig_s = [statistics.median(v) for v in per_fig.values()]
        pass_s = sum(fig_s)
        tail_v, tail_pct = inputs.tail(fig_s)
        metrics = {
            "setup_s": statistics.median(hostspeed.nominal(u["s"], u["ref_s"])
                                         for u in setups),
            "pass_s": pass_s,
            "replica_intervals_per_s": sum(work.values()) / pass_s,
            "op_s_p50": statistics.median(fig_s),
            "op_s_tail": tail_v,
            "peak_rss_mb": _rss_mb(),
        }
        report.update(op_s_tail_percentile=tail_pct, op_samples=len(fig_s),
                      experiment_runs=len(plain), replica_intervals_per_pass=work)
        return metrics, report, len(runs), failed, None

    traced = [r for r in runs if r["traced"] and "trace" in r]
    if traced_passes == 0:
        raise BenchError("no complete traced pass")
    table = {}
    for r in traced:
        _merge(table, sp.aggregate(r["trace"]["spans"]), 1.0 / traced_passes)
    traced_wall = sum(r["s"] for r in traced) / traced_passes
    plain_wall = sum(r["s"] for r in plain) / traced_passes
    extra = _extras([r["trace"] for r in traced], traced_passes,
                    import_s=statistics.median([r["trace"]["import_s"] for r in traced]),
                    out_bytes=sum(r["out_bytes"] for r in traced) / traced_passes,
                    overhead_s=traced_wall - plain_wall)
    expected = [f"{m}.{f}" for m, f in sp.TRACED]
    metrics = layer_metrics(table, extra, expected)
    report.update(traced_passes=traced_passes, traced_pass_s=traced_wall,
                  plain_pass_s=plain_wall, functions=table,
                  silent=[n for n in expected if n not in table],
                  absent=sorted({a for r in traced for a in r["trace"]["absent"]}))
    spans_out = [{"fig": r["fig"], "pass": r["pass"], "spans": r["trace"]["spans"]}
                 for r in traced]
    return metrics, report, len(runs), failed, spans_out


# ---------------------------------------------------------------- monte carlo


def _mc_child(runner, tmp, args, child, seconds):
    res_path = tmp / f"child{child}.json"
    launch = _now()
    cmd = [sys.executable, str(HERE / "mc_child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--child", str(child), "--seconds", str(seconds),
           "--launch", repr(launch), "--result", str(res_path)]
    if args.trace:
        cmd.append("--trace")
    proc = runner.run(cmd, cwd=tmp)
    if proc.returncode != 0 or not res_path.is_file():
        raise BenchError(f"{args.workload} child failed: " + _fail_detail(proc))
    return json.loads(res_path.read_text())


def run_mc(args, runner, tmp):
    # the measuring time is split over MC_CHILDREN children, one after the
    # other; each sets up once, so set-up is measured that many times and the
    # operations are pooled over several processes
    children = [_mc_child(runner, tmp, args, k, args.seconds / MC_CHILDREN)
                for k in range(MC_CHILDREN)]
    first = children[0]
    setups = [{"s": c["setup_s"], "ref_s": c["setup_ref_s"]} for c in children]
    ops = [o for c in children for o in c["ops"]]
    failed = sum(o["error"] is not None for o in ops)
    work = first["replicas"] * first["K"]
    report = {
        "env": first["env"], "seed": args.seed, "setup_runs": setups,
        "import_runs_s": [c["import_s"] for c in children],
        "scenarios": first["scenarios"], "replicas": first["replicas"],
        "K": first["K"], "ops": ops,
    }
    plain = [hostspeed.nominal(o["s"], o["ref_s"]) for o in ops
             if not o["traced"] and "s" in o]
    if not plain:
        raise BenchError("no operation completed")
    if not args.trace:
        tail_v, tail_pct = inputs.tail(plain)
        # one kind of operation, so a pass is one operation: its mean time
        metrics = {
            "setup_s": statistics.median(hostspeed.nominal(u["s"], u["ref_s"])
                                         for u in setups),
            "pass_s": statistics.fmean(plain),
            "replica_intervals_per_s": work * len(plain) / sum(plain),
            "op_s_p50": statistics.median(plain),
            "op_s_tail": tail_v,
            "peak_rss_mb": _rss_mb(),
        }
        report.update(op_s_tail_percentile=tail_pct, op_samples=len(plain))
        return metrics, report, len(ops), failed, None

    traced_times = [o["s"] for o in ops if o["traced"] and "s" in o]
    plain_times = [o["s"] for o in ops if not o["traced"] and "s" in o]
    if not traced_times:
        raise BenchError("no traced operation completed")
    traces = [c["trace"] for c in children]
    table, timed = {}, {}
    for c, t in zip(children, traces):
        _merge(table, sp.aggregate(t["spans"], ops={"setup"}), 1.0 / len(children))
        _merge(timed, sp.aggregate(t["spans"], ops={f"op{o['index']}" for o in c["ops"]
                                                    if o["traced"]}))
    _merge(table, timed, 1.0 / len(traced_times))
    extra = _extras(traces, len(traced_times),
                    import_s=statistics.median(report["import_runs_s"]), out_bytes=0,
                    overhead_s=statistics.median(traced_times) - statistics.median(plain_times))
    metrics = layer_metrics(table, extra, EVERYWHERE)
    report.update(functions=table, timed_functions=timed,
                  timed_design_calls=timed.get("observer.design", {}).get("calls", 0),
                  silent=[n for n in EVERYWHERE if n not in table],
                  absent=first["absent"])
    return metrics, report, len(ops), failed, [t["spans"] for t in traces]


def main(argv=None):
    started = _now()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridobs" / "__init__.py").is_file():
        print(f"error: gridobs sources not found under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(started, args.seconds)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            fn = run_suite if args.workload == "reproduce_suite" else run_mc
            metrics, report, attempted, failed, spans = fn(args, runner, Path(tmp))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["workload"] = args.workload
    report["fail_ratio"] = failed / attempted
    if args.trace:
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"report": report, "spans": spans}))
        report["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in E2E.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
