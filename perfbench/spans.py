"""In-memory spans around gridobs' public functions, and their self times.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, parent span and operation id.  Only calls that look
the name up on the module at call time are seen; names a module imported by
value (``from .numerics import operator_norm``) keep the original function.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time

# (module, function) pairs the traced run wraps, in the order they are reported
TRACED = (
    ("cli", "main"),
    ("experiments", "run_experiment"),
    ("experiments", "build_pipeline"),
    ("experiments", "run_simulation"),
    ("grid", "linearize"),
    ("grid", "find_equilibrium"),
    ("grid", "solve_network"),
    ("shs", "scenarios_from_channels"),
    ("shs", "sample_skeleton"),
    ("observer", "design"),
    ("observer", "decompose"),
    ("observer", "design_gains"),
    ("observer", "build"),
    ("numerics", "place_poles"),
    ("numerics", "matrix_exponential"),
    ("numerics", "noise_gramian"),
    ("numerics", "psd_sqrt"),
    ("numerics", "solve_symmetric_stein"),
    ("numerics", "solve_switched_covariance"),
    ("analysis", "contraction"),
    ("analysis", "compute_tau_max"),
    ("analysis", "steady_state"),
    ("sim", "monte_carlo"),
)

# fields of one span record
NAME, START, END, PARENT, OP = range(5)


# what a call of a probed function keeps for dump(): references only, taken
# while the caller's span is still open, so probing adds nothing measurable
# to any span; the digests and counts are worked out in dump()
KEEP = {
    "observer.design": lambda fn, args, kwargs, result: (fn, args, kwargs),
    "shs.scenarios_from_channels": lambda fn, args, kwargs, result: len(result),
    "sim.monte_carlo": lambda fn, args, kwargs, result: result.paths,
}


class Tracer:
    """Records spans for wrapped functions; one instance per process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.kept = {name: [] for name in KEEP}
        self._stack = []
        self._saved = []

    def wrap(self, module, attr, name):
        """Replace module.attr by a span-recording wrapper."""
        fn = getattr(module, attr)
        keep, kept = KEEP.get(name), self.kept.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][START] = t0
                spans[idx][END] = t1
            if keep is not None:
                kept.append(keep(fn, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self, modules, targets=TRACED):
        """Wrap every (module, function) in targets that `modules` provides.

        Returns the names that were absent and so could not be wrapped.
        """
        absent = []
        for mod, attr in targets:
            module = modules.get(mod)
            if module is None or not callable(getattr(module, attr, None)):
                absent.append(f"{mod}.{attr}")
                continue
            self.wrap(module, attr, f"{mod}.{attr}")
        return absent

    def restore(self):
        """Put back every attribute this tracer replaced, newest first."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self):
        """Spans plus the figures worked out from the probed calls."""
        digests = []
        for fn, args, kwargs in self.kept["observer.design"]:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            digests.append(design_digest(
                a["A"], [s.C for s in a["scenario_set"]], a["poles"], a["completion"]))
        return {"spans": self.spans, "design_digests": digests,
                "scenario_counts": self.kept["shs.scenarios_from_channels"],
                "mc_work": [(int(p.size), groups_per_interval(p))
                            for p in self.kept["sim.monte_carlo"]]}


def design_digest(A, Cs, poles, completion):
    """Content hash of the inputs a gain design depends on."""
    import numpy as np
    h = hashlib.sha256()
    for M in [A, *Cs]:
        M = np.ascontiguousarray(M, dtype=float)
        h.update(repr(M.shape).encode())
        h.update(M.tobytes())
    if isinstance(poles, dict):
        poles = {str(k): v for k, v in sorted(poles.items())}
    h.update(json.dumps(poles, sort_keys=True).encode())
    h.update(str(completion).encode())
    return h.hexdigest()


def groups_per_interval(paths):
    """Mean number of distinct active scenarios per interval of an (R, K) log."""
    import numpy as np
    paths = np.asarray(paths)
    if paths.size == 0:
        return 0.0
    s = np.sort(paths, axis=0)
    return float(np.mean((np.diff(s, axis=0) != 0).sum(axis=0) + 1))


def repeat_share(per_process):
    """Share of designs whose inputs equal those of an earlier design.

    `per_process` holds one list of design digests per process; a repeat
    only counts within the process that could have reused the design.
    """
    calls = sum(len(d) for d in per_process)
    if not calls:
        return 0.0
    return sum(len(d) - len(set(d)) for d in per_process) / calls


def self_times(spans):
    """Per-span self time: duration minus the durations of its child spans."""
    selfs = [sp[END] - sp[START] for sp in spans]
    for sp in spans:
        if sp[PARENT] >= 0:
            selfs[sp[PARENT]] -= sp[END] - sp[START]
    return selfs


def aggregate(spans, ops=None):
    """name -> {calls, self_s, total_s} over spans whose op id is in `ops`."""
    selfs = self_times(spans)
    out = {}
    for sp, st in zip(spans, selfs):
        if ops is not None and sp[OP] not in ops:
            continue
        row = out.setdefault(sp[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += st
        row["total_s"] += sp[END] - sp[START]
    return out


def count_under(spans, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    n = 0
    for sp in spans:
        if sp[NAME] != name:
            continue
        p = sp[PARENT]
        while p >= 0:
            if spans[p][NAME] == ancestor:
                n += 1
                break
            p = spans[p][PARENT]
    return n
