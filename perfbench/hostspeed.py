"""Host speed, from a fixed reference computation timed next to the work.

The benchmark runs on shared hosts whose speed moves by up to a factor of
two over seconds to minutes, with the same code and the same inputs.  To
keep those swings out of its figures, every timing it reports is scaled to a
nominal host:

    reported = wall time * REF_S / (time of the reference, measured next to it)

The reference is benchmark code, never gridobs code, so a change to gridobs
moves the reported figures by exactly as much as it moves the wall time.
Its mix resembles a Monte Carlo step of gridobs: small matrix products,
normal draws, element-wise array work and a little pure Python.  The raw
wall times and the reference times are kept in the report line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# close to the reference's median time on the host the benchmark was
# written on (a shared 2-vCPU Skylake-X VM, Python 3.11, numpy 2.4 with its
# bundled OpenBLAS), where single runs took 0.033 to 0.065 s
REF_S = 0.040

STEPS = 1500
_M = np.random.default_rng(0).standard_normal((4, 4))
_M /= 2.0 * np.linalg.norm(_M, 2)
_Y0 = np.random.default_rng(1).standard_normal((200, 4))


def _reference_once():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    y = _Y0
    acc = 0.0
    table = {}
    for k in range(STEPS):
        y = y @ _M + 0.1 * rng.standard_normal((200, 4))
        acc += float(np.sum(y * y))
        for j in range(20):
            table[j] = j * k
    t = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("reference computation diverged")
    return t


def reference_s(repeats=1):
    """Median wall time of `repeats` runs of the reference computation."""
    return statistics.median(_reference_once() for _ in range(repeats))


def nominal(wall_s, ref_s):
    """`wall_s` on the nominal host, given the reference time `ref_s`
    measured next to it."""
    return wall_s * REF_S / ref_s


class Chain:
    """Reference runs between consecutive pieces of timed work.

    Each piece gets the mean of the reference times measured just before
    and just after it, so a change of host speed during the piece is seen
    from both sides.
    """

    def __init__(self, repeats=1):
        self.repeats = repeats
        self.last = reference_s(repeats)

    def after(self):
        """Reference time for the piece of work that has just ended."""
        now = reference_s(self.repeats)
        ref = (self.last + now) / 2
        self.last = now
        return ref
