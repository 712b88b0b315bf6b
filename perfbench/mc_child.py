"""Child process of the mc_* workloads: set up once, then time monte_carlo.

    python3 perfbench/mc_child.py --workload mc_fig3 --seed 1 --child 0 \
        --seconds 10 --launch <CLOCK_MONOTONIC at spawn> --result out.json [--trace]

Set-up is everything from process start to the first timed operation:
imports, linearization, scenario alphabet and observer design.  Each timed
operation is one ``experiments.run_simulation`` call, which builds the
SimConfig and calls ``sim.monte_carlo``.  After each operation, outside the
timed section, one replica is recomputed with the plain ``sim.run_replica``
engine and must match.  The host-speed reference (``hostspeed``) runs five
times right after set-up and once between operations, outside the timed
sections.  With --trace, every operation runs twice with the same seed, once
wrapped and once not, in alternating order; the two results must be
bit-identical.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import envinfo
import hostspeed
import inputs
from spans import TRACED, Tracer

import numpy as np
import gridobs.cli  # noqa: F401  (the user-facing entry module)
from gridobs import experiments, sim

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

# max relative difference allowed between monte_carlo and the plain engine
ORACLE_RTOL = 1e-9


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _modules():
    return {mod: sys.modules[f"gridobs.{mod}"] for mod, _ in TRACED}


def _check(lin, obs, scs, simcfg, traj, replica):
    """None when the operation's output is right, else what is wrong."""
    if not np.all(np.isfinite(traj.mean_err_sq)):
        return "mean_err_sq is not finite"
    _, err_sq, alphas = sim.run_replica(lin.A, obs, scs, simcfg,
                                        replica_index=replica)
    if not np.array_equal(alphas, traj.paths[replica]):
        return f"replica {replica}: switching path differs from run_replica"
    ref = traj.err_sq[replica]
    rel = float(np.max(np.abs(err_sq - ref)) / max(float(np.max(np.abs(ref))), 1e-300))
    if not rel <= ORACLE_RTOL:
        return f"replica {replica}: err_sq differs from run_replica by {rel:.3g} relative"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.MC_WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--child", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_s = IMPORTED - args.launch
    tracer = None
    absent = []
    if args.trace:
        tracer = Tracer()
        tracer.op = "setup"
        absent = tracer.install(_modules())
    if args.workload == "mc_fig3":
        cfg = experiments.load_experiment("fig3")
    else:
        cfg = inputs.ALPHABET16
    _, lin, scs, obs = experiments.build_pipeline(cfg)
    setup_s = _now() - args.launch
    if tracer is not None:
        tracer.restore()
    result = {"setup_s": setup_s, "setup_ref_s": hostspeed.reference_s(5),
              "import_s": import_s,
              "scenarios": len(scs), "replicas": cfg["sim"]["replicas"],
              "K": cfg["sim"]["K"]}
    result["env"] = envinfo.collect()
    ops = []
    chain = hostspeed.Chain()
    deadline = _now() + args.seconds
    i = 0
    while True:
        seed = inputs.op_seed(args.seed, args.child, i)
        replica = inputs.oracle_replica(args.seed, args.child, i,
                                        cfg["sim"]["replicas"])
        modes = [False]
        if tracer is not None:
            modes = [True, False] if i % 2 == 0 else [False, True]
        trajs = {}
        for traced in modes:
            op = {"child": args.child, "index": i, "seed": seed, "replica": replica,
                  "traced": traced}
            try:
                if traced:
                    tracer.op = f"op{i}"
                    tracer.install(_modules())
                try:
                    t0 = time.perf_counter()
                    simcfg, traj = experiments.run_simulation(
                        cfg, lin, obs, scs, seed=seed)
                    op["s"] = time.perf_counter() - t0
                finally:
                    if traced:
                        tracer.restore()
                op["ref_s"] = chain.after()
                trajs[traced] = traj
                op["error"] = (None if traced else
                               _check(lin, obs, scs, simcfg, traj, replica))
            except Exception as exc:  # an operation failing is a measured outcome
                op["error"] = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        if len(trajs) == 2 and not (
                np.array_equal(trajs[True].err_sq, trajs[False].err_sq)
                and np.array_equal(trajs[True].paths, trajs[False].paths)):
            ops[-1]["error"] = ops[-2]["error"] = "traced and untraced results differ"
        i += 1
        if _now() >= deadline:
            break
    result["ops"] = ops
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.dump()
        result["absent"] = absent
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
