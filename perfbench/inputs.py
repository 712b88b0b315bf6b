"""Workload definitions and the inputs generated from a workload seed.

The same workload seed always gives the same experiment order and the same
per-operation simulation seeds.  gridobs only ever receives the generated
values, never the workload seed itself.
"""

from __future__ import annotations

import hashlib
import random

EXPERIMENTS = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

# check lines every experiment must print as "<fig>: <check>: pass"
EXPECTED_CHECKS = {
    "fig3": ("gamma_below_one", "error_reaches_1pct"),
    "fig4": ("steady_error_larger", "decay_faster"),
    "fig5": ("faster_with_higher_delivery",),
    "fig6": ("gamma_strictly_worse", "diverges_or_much_larger_floor"),
    "fig7": ("selection_changes_error",),
    "fig8": ("floor_matches_analysis", "error_reaches_1pct"),
}

# ieee5 with all four states sensed: 2^4 = 16 scenarios, 15 of them need a
# gain.  Poles and tau are fig3's, so only the alphabet differs from mc_fig3.
ALPHABET16 = {
    "grid": "ieee5",
    "channels": [{"name": f"pmu_{m.replace('.', '_')}", "measure": m,
                  "rho": 0.9, "sigma": 0.01}
                 for m in ("1.delta", "1.omega", "2.delta", "2.omega")],
    "observer": {"tau": 0.6261, "poles": [-4.8, -3.6, -4.0, -4.4], "n_sub": 64},
    "sim": {"e0": [2.0, 0.0, 1.0, 0.0], "K": 60, "replicas": 200, "seed": 0},
}

WORKLOADS = ("reproduce_suite", "mc_fig3", "mc_alphabet16")
MC_WORKLOADS = ("mc_fig3", "mc_alphabet16")


def derive(seed, *parts):
    """A 63-bit integer determined by the workload seed and a label path."""
    text = "/".join(str(p) for p in (seed, *parts))
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def experiment_order(seed, pass_index):
    """The six experiments in the order pass `pass_index` runs them."""
    order = list(EXPERIMENTS)
    random.Random(derive(seed, "order", pass_index)).shuffle(order)
    return order


def op_seed(seed, child, index):
    """Simulation seed of operation `index` of measuring child `child`."""
    return derive(seed, "op", child, index)


def oracle_replica(seed, child, index, replicas):
    """Replica of that operation which the plain engine recomputes."""
    return derive(seed, "replica", child, index) % replicas


def tail(values):
    """(value, percentile): the highest percentile with 10 samples beyond it.

    That is the 11th-largest sample, at percentile 100 * (n - 10) / n.  With
    fewer than 21 samples that percentile would not lie above the median, so
    the largest sample is returned as percentile 100 instead.
    """
    v = sorted(values)
    n = len(v)
    if n < 21:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n
