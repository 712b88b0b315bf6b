"""How the pole placement's ascent ends on random pairs and promoted feeders.

    PYTHONPATH=src python tests/placement_survey.py [random] [feeders] [n8m2] [--previous]

Runs the sections named (all three by default) and prints one line per
case: how production's ascent stopped, its trust-region iterations, its
time, and log|det X| (X with unit columns per pole, `capped_yt.unit_det`)
against scipy's capped driver (`capped_yt.capped_loop`, 300 sweeps).
With --previous it also runs the finish gridobs had before the trust
region, YT sweeps alternating with Tits & Yang's stop and Riemannian
Newton phases (`previous_loop`, kept here only for this comparison), and
prints its stop, sweeps and Newton steps.  That loop takes minutes on the
feeders.  Each section ends with how many cases end above, equal to
(within EQUAL in log|det X|) and below each reference.

- random: seeds 2 and 7, 60 draws each (`random_draws`); test_numerics
  runs the same 120 draws.
- feeders: `conftest.promoted_feeder(k)` with C the first m angles and
  clustered poles -0.5 - 0.05 j or spread poles -linspace(1, 5, n).
- n8m2: the random recipe at n = 8 and m = 2, 60 draws per seed, the
  size at which the sweeps were once seen to alternate without ascending
  near |det X| = 4.5e-10.
"""

import sys
import time

import numpy as np

from gridobs import numerics

from capped_yt import capped_loop, placement, unit_det
from conftest import angle_rows, promoted_feeder

# two log|det X| closer than this count as equal
EQUAL = 1e-9
SEEDS = (2, 7)
DRAWS = 60
# (k, m, poles) of the feeder table: promoted_feeder(k) has n = 2k states
FEEDERS = [(3, 3, "clustered"), (3, 3, "spread"), (5, 4, "clustered"),
           (5, 5, "clustered"), (7, 6, "spread"), (7, 6, "clustered"),
           (11, 11, "clustered")]


def random_draws(seed, count=DRAWS, n=None, m=None):
    """(A, C, poles) of `count` random pairs from default_rng(seed).

    Per draw: n = integers(3, 9) and m = integers(2, min(6, n - 1) + 1)
    unless given, A (n x n) and C (m x n) standard normal, k =
    integers(0, n // 2 + 1) conjugate pairs with real parts -U(0.5, 5) and
    imaginary parts U(0.2, 3), and n - 2k real poles -U(0.5, 5).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(3, 9)) if n is None else n
        outputs = int(rng.integers(2, min(6, size - 1) + 1)) if m is None else m
        A = rng.normal(size=(size, size))
        C = rng.normal(size=(outputs, size))
        k = int(rng.integers(0, size // 2 + 1))
        re = -rng.uniform(0.5, 5, size=k)
        im = rng.uniform(0.2, 3, size=k)
        real = -rng.uniform(0.5, 5, size=size - 2 * k)
        yield A, C, np.concatenate([re + 1j * im, re - 1j * im, real])


def feeder_case(k, m, poles):
    """(A, C, poles) of one feeder row."""
    lin = promoted_feeder(k)
    n = lin.n
    desired = (-0.5 - 0.05 * np.arange(n) if poles == "clustered"
               else -np.linspace(1.0, 5.0, n))
    return lin.A, angle_rows(lin, m), desired.astype(complex)


def previous_loop(ker_pole, X, poles):
    """The finish before the trust region: (stop, sweeps, Newton steps).

    Each round runs one YT sweep and stops if Tits & Yang's test finds
    |det X| settled to 1e-11 (above sqrt(eps)).  Otherwise Newton steps
    on the product of spheres take over where minus the Hessian is
    definite; a certified point is kept if the next sweep does not raise
    |det X| beyond 1e-11, and the sweeps resume from their own iterate
    when the steps cannot certify.  At most 5000 sweeps.
    """
    rtol = 1e-11
    plan = numerics._yt_sweep_plan(poles)
    frame = numerics._kernel_frame(ker_pole, poles)
    det_after = abs(np.linalg.det(X))
    newton_steps = 0
    certified = None
    for sweeps in range(1, 5001):
        det_before = det_after
        numerics._yt_sweep(ker_pole, X, plan)
        det_after = abs(np.linalg.det(X))
        if certified is not None:
            if det_after <= det_before * (1.0 + rtol):
                X[:] = certified
                return "certificate", sweeps, newton_steps
        elif det_after > numerics._SQRT_EPS and abs((det_after - det_before) / det_after) < rtol:
            return "tits-yang", sweeps, newton_steps
        found, steps = _previous_newton(frame, X)
        newton_steps += steps
        certified = X.copy() if found else None
        if found:
            det_after = abs(np.linalg.det(X))
    return "sweep bound", 5000, newton_steps


def _previous_newton(frame, X):
    """At most 20 Riemannian Newton steps from X where -H is definite:
    (certified, steps); X is overwritten only with a certified point."""
    blocks = frame[2]
    s = numerics._coordinates(frame, X)
    f, grad, T, lam, V = numerics._riemannian(frame, s)
    if not numerics._definite(lam):
        return False, 0
    steps = 0
    certified = np.linalg.norm(grad) <= numerics._GRAD_TOL
    while not certified and steps < 20:
        step = V @ ((grad @ V) / lam)
        trial = numerics._on_spheres(s + T @ step, blocks)
        point = numerics._riemannian(frame, trial)
        unresolved = 0.5 * grad @ step <= numerics._RISE_FLOOR * max(1.0, abs(f))
        if not (numerics._definite(point[3]) and (point[0] > f or unresolved and
                                                  np.linalg.norm(point[1]) < np.linalg.norm(grad))):
            certified = unresolved
            break
        s = trial
        f, grad, T, lam, V = point
        steps += 1
        certified = np.linalg.norm(grad) <= numerics._GRAD_TOL
    if certified:
        X[:] = numerics._transfer(frame, s)
    return certified, steps


def run(A, C, desired, loop=None):
    """(stop, seconds, log|det X|, pole error) of one placement; a loop
    that raises gives its message as the stop."""
    start = time.perf_counter()
    try:
        L, X, poles, _, stop = placement(A, C, desired, loop=loop)
    except ValueError as exc:
        return (str(exc), "-", "-"), time.perf_counter() - start, -np.inf, np.inf
    seconds = time.perf_counter() - start
    got = np.sort_complex(np.linalg.eigvals(A - L @ C))
    error = np.max(np.abs(got - np.sort_complex(desired)))
    return stop, seconds, np.log(unit_det(X, poles)), error


def compare(label, value, reference, tally):
    """Count value against reference in tally[label] and describe it."""
    diff = value - reference
    side = "equal" if abs(diff) <= EQUAL else "above" if diff > 0 else "below"
    counts = tally.setdefault(label, {"above": 0, "equal": 0, "below": 0})
    counts[side] += 1
    return f"{label} {diff:+.2e}"


def survey(title, cases, previous):
    """Print one line per (name, A, C, poles) case and the tallies."""
    print(f"== {title}")
    tally = {}
    total = 0.0
    for name, A, C, desired in cases:
        stop, seconds, logdet, error = run(A, C, desired)
        total += seconds
        _, _, oracle, _ = run(A, C, desired, loop=capped_loop())
        line = (f"{name} n={A.shape[0]} m={C.shape[0]}: {stop[0]}, {stop[2]} iterations, "
                f"{seconds:.3f} s, log|det X| {logdet:.10g}, pole error {error:.1e}; "
                + compare("vs oracle", logdet, oracle, tally))
        if previous:
            before, before_s, before_logdet, _ = run(A, C, desired, loop=previous_loop)
            line += (f"; previous {before!r} in {before_s:.2f} s, "
                     + compare("vs previous", logdet, before_logdet, tally))
        print(line, flush=True)
    for label, counts in tally.items():
        print(f"{title} {label}: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    print(f"{title}: {total:.2f} s in production's placements")


def main(argv):
    previous = "--previous" in argv
    sections = [a for a in argv if not a.startswith("--")] or ["random", "feeders", "n8m2"]
    for section in sections:
        if section == "random":
            cases = [(f"seed {seed} draw {i}", *case) for seed in SEEDS
                     for i, case in enumerate(random_draws(seed))]
        elif section == "n8m2":
            cases = [(f"seed {seed} draw {i}", *case) for seed in SEEDS
                     for i, case in enumerate(random_draws(seed, n=8, m=2))]
        elif section == "feeders":
            cases = [(f"feeder k={k} {poles}", *feeder_case(k, m, poles))
                     for k, m, poles in FEEDERS]
        else:
            raise SystemExit(f"unknown section {section!r}")
        survey(section, cases, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
