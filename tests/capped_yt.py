"""The capped YT driver of scipy.signal.place_poles, kept as a test oracle.

scipy stops its YT sweeps once |det X| changes by less than `rtol`
(relative) over a sweep, or after `maxiter` sweeps.  `capped_assign` runs
numerics._assign_poles with that driver in place of the production loop,
on production's own sweep kernel (numerics._yt_sweep), so at scipy's
budget its gains equal scipy's bit for bit.  Production runs one of
these sweeps and then a trust-region ascent, so the oracle pins the
sweeps, not the finish.  `placement` runs either driver and also returns
the transfer matrix X the gain was read from.
"""

from contextlib import contextmanager

import numpy as np

from gridobs import numerics

# scipy's stopping rule and the budget gridobs ran it with before its
# placements were finished by an ascent to a certified maximum: the
# two-output bundled designs all stop at the budget, short of the optimum
YT_RTOL = 1e-11
YT_MAXITER = 300


def capped_loop(rtol=YT_RTOL, maxiter=YT_MAXITER):
    """A `_yt_loop` that runs scipy's sweeps until its test or its budget."""
    def loop(ker_pole, X, poles):
        plan = numerics._yt_sweep_plan(poles)
        det_after = abs(np.linalg.det(X))
        for sweeps in range(1, maxiter + 1):
            det_before = det_after
            numerics._yt_sweep(ker_pole, X, plan)
            det_after = abs(np.linalg.det(X))
            if (det_after > numerics._SQRT_EPS
                    and abs((det_after - det_before) / det_after) < rtol):
                return "tits-yang", sweeps, 0
        return "budget", maxiter, 0
    return loop


@contextmanager
def _driver(loop):
    production = numerics._yt_loop
    numerics._yt_loop = loop
    try:
        yield
    finally:
        numerics._yt_loop = production


def capped_assign(A22, C2, desired, rtol=YT_RTOL, maxiter=YT_MAXITER):
    """numerics._assign_poles with scipy's capped driver."""
    with _driver(capped_loop(rtol, maxiter)):
        return numerics._assign_poles(A22, C2, desired)


def placement(A22, C2, desired, loop=None):
    """(gain, X, poles, ker_pole, stop) of one optimised assignment.

    Runs the production loop, or `loop` if given; `stop` is its return
    value (how it stopped, sweeps, trust-region iterations; the capped
    driver reports 0 iterations).  X is the optimised
    transfer matrix in the loop's (Re w, Im w) layout for conjugate pairs.
    """
    inner = loop or numerics._yt_loop
    seen = {}

    def recording(ker_pole, X, poles):
        seen["stop"] = inner(ker_pole, X, poles)
        seen.update(X=X.copy(), poles=poles, ker_pole=ker_pole)
        return seen["stop"]

    with _driver(recording):
        gain = numerics._assign_poles(A22, C2, np.asarray(desired, dtype=complex))
    return gain, seen["X"], seen["poles"], seen["ker_pole"], seen["stop"]


def unit_det(X, poles):
    """|det X| with each real pole's column and each pair's (Re w, Im w)
    columns scaled to unit norm, the quantity the YT sweeps maximise."""
    X = X.real.copy()
    c = 0
    while c < len(poles):
        width = 1 if np.isreal(poles[c]) else 2
        X[:, c:c + width] /= np.linalg.norm(X[:, c:c + width])
        c += width
    return abs(np.linalg.det(X))
