"""Numerics kernels against closed forms and independent oracles."""

import json
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from gridobs import cli, experiments, grid, numerics
from gridobs.numerics import (matrix_exponential, mean_square_radius,
                              noise_gramian, operator_norm, place_poles, psd_sqrt,
                              solve_switched_covariance, solve_symmetric_stein)

from capped_yt import YT_MAXITER, YT_RTOL, capped_assign, capped_loop, placement, unit_det
from conftest import A5_PRINTED, W3_PRINTED, kernel_base, observability_stack
from placement_survey import SEEDS, feeder_case, random_draws
from write_placements import PLACEMENTS, load_placements, placement_key


def rk4_expm(A, t, steps):
    """Independent oracle: integrate the matrix ODE X' = A X with RK4."""
    h = t / steps
    X = np.eye(A.shape[0])
    for _ in range(steps):
        k1 = A @ X
        k2 = A @ (X + 0.5 * h * k1)
        k3 = A @ (X + 0.5 * h * k2)
        k4 = A @ (X + h * k3)
        X = X + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3)), 7.0), np.eye(3))

    def test_diagonal(self):
        E = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(E, np.diag([np.exp(-1), np.exp(-2)]), atol=1e-14)

    def test_five_bus_vs_rk4(self):
        E = matrix_exponential(A5_PRINTED, 0.6261)
        oracle = rk4_expm(A5_PRINTED, 0.6261, 10_000)
        assert np.max(np.abs(E - oracle)) < 1e-6

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        M = np.eye(2)
        M[0, 1] = np.nan
        with pytest.raises(ValueError):
            matrix_exponential(M)

    def test_rejects_input_too_large_to_scale(self):
        # A t is finite but its powers overflow, or A t itself overflows
        with pytest.raises(ValueError, match="too large"):
            matrix_exponential(A5_PRINTED, 1e300)
        with pytest.raises(ValueError, match="not finite"):
            matrix_exponential(np.full((2, 2), 1e300), 1e10)

    def test_semigroup_property(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = rng.normal(size=(6, 6))
            A = A - 3.0 * np.eye(6)   # keep it stable-ish
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            lhs = matrix_exponential(A, t1 + t2)
            rhs = matrix_exponential(A, t1) @ matrix_exponential(A, t2)
            assert np.max(np.abs(lhs - rhs)) < 1e-8


def _recorded_expm_inputs(monkeypatch, run):
    """Distinct matrices that `run()` hands to numerics._expm."""
    seen = {}
    expm = numerics._expm

    def recording(M):
        seen.setdefault((M.shape, M.tobytes()), M.copy())
        return expm(M)

    monkeypatch.setattr(numerics, "_expm", recording)
    run()
    monkeypatch.setattr(numerics, "_expm", expm)
    return list(seen.values())


class TestMatrixExponentialMatchesScipy:
    """The numpy port of Al-Mohy & Higham (2009) against scipy.linalg.expm."""

    @staticmethod
    def relative_gap(M):
        want = scipy.linalg.expm(M)
        return np.max(np.abs(numerics._expm(M) - want)) / np.max(np.abs(want))

    def test_every_figure_input(self, monkeypatch):
        inputs = _recorded_expm_inputs(monkeypatch, _reproduce_figures)
        assert len(inputs) > 50
        assert max(self.relative_gap(M) for M in inputs) <= 1e-11

    @pytest.mark.parametrize("name", ["ieee5", "ieee33", "two_bus"])
    def test_model_matrices_over_time(self, name):
        A = grid.linearize(grid.builtin(name)).A
        tau = 0.6261
        for t in (1e-4, tau / 64, 0.05, tau, 1.0, 3.0, 10.0, 30.0, 100.0):
            assert self.relative_gap(A * t) <= 1e-11, t

    def test_random_gaussian_and_structured_forms(self):
        rng = np.random.default_rng(2009)
        for n in (1, 2, 3, 4, 6, 8, 12):
            for scale in (1e-3, 0.1, 1.0, 5.0):
                for _ in range(5):
                    G = scale * rng.normal(size=(n, n))
                    for M in (G, np.triu(G), np.tril(G), np.diag(np.diag(G))):
                        assert self.relative_gap(M) <= 1e-11, (n, scale)

    def test_moderately_nonnormal(self):
        # the backward-error correction on || |A|^(2m+1) ||_1 adds the
        # squarings these need; without it they drift to about 3e-8
        rng = np.random.default_rng(103)
        for scale in (0.25, 0.5, 1.0):
            for _ in range(40):
                T = np.triu(100.0 * rng.normal(size=(3, 3)), 1) + np.diag(rng.normal(size=3))
                Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                assert self.relative_gap(scale * Q @ T @ Q.T) <= 1e-9, scale


def simpson_gramian(Ac, N, tau, panels):
    """Quadrature oracle: composite Simpson on the Gramian integrand."""
    xs = np.linspace(0.0, tau, 2 * panels + 1)
    NNt = N @ N.T
    vals = [matrix_exponential(Ac, u) @ NNt @ matrix_exponential(Ac.T, u) for u in xs]
    h = tau / (2 * panels)
    total = vals[0] + vals[-1]
    total = total + 4.0 * sum(vals[1:-1:2]) + 2.0 * sum(vals[2:-2:2])
    return total * h / 3.0


class TestNoiseGramian:
    def test_scalar_closed_form(self):
        a, c, tau = 0.8, 1.3, 2.0
        V = noise_gramian(np.array([[-a]]), np.array([[c]]), tau)
        exact = c * c * (1 - np.exp(-2 * a * tau)) / (2 * a)
        assert abs(V[0, 0] - exact) < 1e-14

    def test_zero_noise(self):
        V = noise_gramian(np.diag([-1.0, -2.0]), np.zeros((2, 2)), 1.0)
        assert np.array_equal(V, np.zeros((2, 2)))

    def test_five_bus_vs_simpson(self):
        # closed-loop design for the normal-operation scenario
        C1 = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        L = place_poles(A5_PRINTED, C1, [-4.8, -3.6, -4.0, -4.4])
        Ac = A5_PRINTED - L @ C1
        N = L * 0.01
        V = noise_gramian(Ac, N, 0.6261)
        oracle = simpson_gramian(Ac, N, 0.6261, 10_000)
        assert np.max(np.abs(V - oracle)) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            noise_gramian(np.eye(3), np.ones((2, 1)), 1.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="finite"):
            noise_gramian(-np.eye(2), np.ones((2, 1)), tau)

    def test_symmetric_psd_and_monotone_in_tau(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            Ac = rng.normal(size=(4, 4)) - 2.5 * np.eye(4)
            N = rng.normal(size=(4, 2))
            V1 = noise_gramian(Ac, N, 0.4)
            V2 = noise_gramian(Ac, N, 0.9)
            assert np.allclose(V1, V1.T)
            assert np.min(np.linalg.eigvalsh(V1)) > -1e-12
            assert np.min(np.linalg.eigvalsh(V2 - V1)) > -1e-12


def ackermann_oracle(A, C, poles):
    """Hand Ackermann formula for a single-output observer gain."""
    n = A.shape[0]
    W = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
    coeffs = np.real(np.poly(poles))
    phi = np.zeros_like(A)
    for c in coeffs:
        phi = phi @ A + c * np.eye(n)
    e_last = np.zeros((n, 1))
    e_last[-1, 0] = 1.0
    return phi @ np.linalg.solve(W, e_last)


class TestPlacePoles:
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    C = np.array([[1.0, 0.0]])

    def test_scalar(self):
        L = place_poles(np.array([[0.0]]), np.array([[1.0]]), [-4.0])
        assert np.allclose(L, [[4.0]])

    def test_five_bus_published_poles(self):
        C1 = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        want = [-4.8, -3.6, -4.0, -4.4]
        L = place_poles(A5_PRINTED, C1, want)
        got = np.sort(np.linalg.eigvals(A5_PRINTED - L @ C1).real)
        assert np.max(np.abs(got - np.sort(want))) < 1e-6

    def test_matches_ackermann_on_companion_form(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        C = np.array([[1.0, 0.0]])
        L = place_poles(A, C, [-1.0, -2.0])
        oracle = ackermann_oracle(A, C, [-1.0, -2.0])
        assert np.max(np.abs(L - oracle)) < 1e-9

    def test_round_trip_100_random_observable_pairs(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 100:
            n = rng.integers(2, 6)
            r = rng.integers(1, 3)
            A = rng.normal(size=(n, n))
            C = rng.normal(size=(r, n))
            W = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
            if np.linalg.matrix_rank(W) < n:
                continue
            want = -rng.uniform(1.0, 6.0, size=n)
            want = np.sort(want)
            if np.min(np.diff(want)) < 0.15:
                continue
            L = place_poles(A, C, want)
            got = np.sort(np.linalg.eigvals(A - L @ C).real)
            assert np.max(np.abs(got - want)) < 1e-6
            done += 1

    def test_unobservable_pair_rejected(self):
        A = np.diag([-1.0, -2.0])
        C = np.array([[1.0, 0.0]])   # second mode invisible
        with pytest.raises(ValueError, match="not observable"):
            place_poles(A, C, [-3.0, -4.0])

    def test_repeated_poles_rejected(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        C = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="distinct"):
            place_poles(A, C, [-2.0, -2.0])

    def test_returned_gain_is_a_private_copy(self):
        want = place_poles(self.A, self.C, [-1.0, -2.0])
        ref = want.copy()
        want[:] = 99.0
        again = place_poles(self.A, self.C, [-1.0, -2.0])
        assert np.array_equal(again, ref)

    def test_invalid_requests_raise_on_every_call(self):
        place_poles(self.A, self.C, [-2.0, -3.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="distinct"):
                place_poles(self.A, self.C, [-2.0, -2.0])
            with pytest.raises(ValueError, match="not observable"):
                place_poles(np.diag([-1.0, -2.0]), self.C, [-3.0, -4.0])


def _scipy_placement(A22, C2, desired, rtol=YT_RTOL, maxiter=YT_MAXITER):
    """scipy's place_poles result for the request _assign_poles gets; the
    stopping rule applies to two or more outputs."""
    request = desired.real if np.all(desired.imag == 0) else desired
    kwargs = {"rtol": rtol, "maxiter": maxiter} if C2.shape[0] > 1 else {}
    with warnings.catch_warnings():
        # the capped two-output placements stop before scipy's tolerance
        warnings.filterwarnings("ignore", message="Convergence was not")
        return scipy.signal.place_poles(A22.T, C2.T, request, **kwargs)


def _scipy_gain(A22, C2, desired):
    """The gain scipy's place_poles gives at the capped oracle's budget."""
    return _scipy_placement(A22, C2, desired).gain_matrix.T


def _recorded_placements(monkeypatch, designs):
    """Distinct (A22, C2, poles) that `designs()` hands to _assign_poles."""
    seen = {}
    assign = numerics._assign_poles

    def recording(A22, C2, desired):
        key = (A22.shape, A22.tobytes(), C2.shape, C2.tobytes(), desired.tobytes())
        seen.setdefault(key, (A22.copy(), C2.copy(), desired.copy()))
        return assign(A22, C2, desired)

    monkeypatch.setattr(numerics, "_assign_poles", recording)
    designs()
    monkeypatch.setattr(numerics, "_assign_poles", assign)
    return list(seen.values())


def _reproduce_figures():
    """Run fig3..fig8 as reproduce does, with two replicas each."""
    for name in experiments.EXPERIMENTS:
        experiments.run_experiment(name, replicas=2)


# ieee5 with all four states sensed: 16 scenarios, 15 of them need a gain,
# with one to four outputs.  "n_sub" is kept as the benchmark's copy of this
# config carries it: build_pipeline must accept and ignore it
ALPHABET16 = {
    "grid": "ieee5",
    "channels": [{"name": m, "measure": m, "rho": 0.9, "sigma": 0.01}
                 for m in ("1.delta", "1.omega", "2.delta", "2.omega")],
    "observer": {"tau": 0.6261, "poles": [-4.8, -3.6, -4.0, -4.4], "n_sub": 64},
}


class TestAssignPolesMatchesScipy:
    """Production's assignment under scipy's capped driver (the capped_yt
    oracle) gives scipy.signal.place_poles' gain bit for bit."""

    def assert_bitwise(self, A22, C2, desired):
        desired = np.asarray(desired, dtype=complex)
        got = capped_assign(A22, C2, desired)
        want = _scipy_gain(A22, C2, desired)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))
        if not 1 < C2.shape[0] < A22.shape[0]:
            # no optimiser runs for one output or for m = n: the production
            # gain is the oracle's
            assert numerics._assign_poles(A22, C2, desired).tobytes() == want.tobytes()

    def test_every_figure_placement(self, monkeypatch):
        placements = _recorded_placements(monkeypatch, _reproduce_figures)
        outputs = sorted(C2.shape[0] for _, C2, _ in placements)
        assert len(placements) == 15 and outputs.count(2) == 5
        for A22, C2, desired in placements:
            self.assert_bitwise(A22, C2, desired)

    def test_four_channel_alphabet(self, monkeypatch):
        placements = _recorded_placements(
            monkeypatch, lambda: experiments.build_pipeline(ALPHABET16))
        assert sorted(C2.shape[0] for _, C2, _ in placements) == [1] * 4 + [2] * 6 + [3] * 4 + [4]
        for A22, C2, desired in placements:
            self.assert_bitwise(A22, C2, desired)

    @staticmethod
    def random_pair(rng, n, m):
        while True:
            A = rng.normal(size=(n, n))
            C = rng.normal(size=(m, n))
            if np.linalg.matrix_rank(observability_stack(C, A)) == n:
                return A, C

    @staticmethod
    def pole_list(rng, n, n_pairs):
        re = -rng.uniform(0.5, 6.0, size=n_pairs)
        im = rng.uniform(0.3, 3.0, size=n_pairs)
        p = np.concatenate([re + 1j * im, re - 1j * im,
                            -rng.uniform(0.5, 6.0, size=n - 2 * n_pairs)])
        rng.shuffle(p)
        return p

    # the rows that mix real poles with conjugate pairs, (3, 2, 1),
    # (4, 2, 1), (5, 2, 1), (5, 2, 2) and (5, 3, 1), guard the complex X:
    # its entries have zero imaginary parts, and running the sweep's QRs on
    # a float cast of it changes each of their gains
    @pytest.mark.parametrize("n,m,n_pairs", [
        (3, 2, 0), (4, 2, 0), (5, 3, 0), (6, 2, 0),      # real poles
        (4, 2, 2), (4, 2, 1), (6, 3, 3), (5, 2, 1),      # conjugate pairs
        (3, 2, 1), (5, 2, 2), (5, 3, 1), (5, 2, 0),      # odd real count, m >= 2
        (4, 4, 0), (4, 4, 2), (3, 3, 1),                 # m = n
        (4, 1, 0), (5, 1, 2), (2, 1, 1),                 # m = 1
    ])
    def test_random_observable_pairs(self, n, m, n_pairs):
        rng = np.random.default_rng(1000 * n + 100 * m + n_pairs)
        for _ in range(3):
            A, C = self.random_pair(rng, n, m)
            self.assert_bitwise(A, C, self.pole_list(rng, n, n_pairs))


def _frame_point(X, poles, ker_pole):
    """Production's Riemannian view of a transfer matrix: (frame, s, f,
    grad, T, lam, V), with s X's kernel coordinates on the unit spheres."""
    frame = numerics._kernel_frame(ker_pole, poles)
    s = numerics._coordinates(frame, X)
    return (frame, s) + numerics._riemannian(frame, s)


def _pole_error(A22, C2, L, desired):
    got = np.sort_complex(np.linalg.eigvals(A22 - L @ C2))
    return np.max(np.abs(got - np.sort_complex(np.asarray(desired, dtype=complex))))


def _bundled_inputs(monkeypatch):
    """Distinct optimised placements (2 <= outputs < states) of fig3..fig8
    and of ALPHABET16, each as (A22, C2, poles)."""
    seen = (_recorded_placements(monkeypatch, _reproduce_figures)
            + _recorded_placements(monkeypatch,
                                   lambda: experiments.build_pipeline(ALPHABET16)))
    distinct = {}
    for A22, C2, desired in seen:
        if 1 < C2.shape[0] < A22.shape[0]:
            key = (A22.tobytes(), C2.tobytes(), desired.tobytes())
            distinct.setdefault(key, (A22, C2, desired))
    return list(distinct.values())


@pytest.fixture(scope="module")
def bundled():
    """The bundled placements, each as (A22, C2, poles, scipy's converged
    result), the result as write_placements.py pins it."""
    with pytest.MonkeyPatch.context() as mp:
        inputs = _bundled_inputs(mp)
    pinned = load_placements()
    keys = [placement_key(*p) for p in inputs]
    if sorted(keys) != sorted(pinned):
        pytest.fail(f"the bundled placements no longer match {PLACEMENTS.name}: "
                    f"{len(set(keys) - set(pinned))} new, {len(set(pinned) - set(keys))} "
                    "stale; rerun `PYTHONPATH=src python tests/write_placements.py`")
    return [(*p, pinned[key]) for p, key in zip(inputs, keys)]


class TestConvergedPlacement:
    """Production's YT sweep with a trust-region finish, against scipy run
    to convergence and against the certificate it stops on."""

    def test_two_output_placements_are_certified_maxima(self, bundled):
        two = [p for p in bundled if p[1].shape[0] == 2]
        assert len(two) == 10
        for A22, C2, desired, res in two:
            # every bundled pole list is real, so scipy's X is real too
            assert np.all(desired.imag == 0)
            L, X, poles, ker_pole, stop = placement(A22, C2, desired)
            assert stop[0] == "certificate", stop
            want = res.gain_matrix.T
            assert np.max(np.abs(L - want)) <= 1e-4 * np.max(np.abs(want))
            assert unit_det(X, poles) >= unit_det(res.X.real, poles) * (1 - 1e-12)
            *_, grad, T, lam, V = _frame_point(X, poles, ker_pole)
            assert np.linalg.norm(grad) <= 1e-10
            assert lam[0] > 0.0, lam                 # -H positive definite
            assert _pole_error(A22, C2, L, desired) <= 1e-10 * max(1.0, operator_norm(A22))

    def test_three_output_maxima_are_not_isolated(self, bundled):
        # the four three-output ALPHABET16 placements have a direction along
        # which |det X| stays at its maximum (a Hessian eigenvalue of about
        # 1e-16 relative), so the maximising gain is not unique: where on
        # that ridge a run stops depends on its path and stopping rule.
        # Only |det X| and the poles are pinned; the trust region ends them
        # as ridges, at the gradient's rounding floor, in 5, 11, 12 and 12
        # iterations
        three = [p for p in bundled if p[1].shape[0] == 3]
        assert len(three) == 4
        iterations = []
        for A22, C2, desired, res in three:
            L, X, poles, ker_pole, stop = placement(A22, C2, desired)
            assert stop[:2] == ("ridge", 1), stop
            iterations.append(stop[2])
            want = unit_det(res.X.real, poles)
            assert abs(unit_det(X, poles) - want) <= 1e-10 * want
            *_, lam, V = _frame_point(X, poles, ker_pole)
            assert lam[0] <= 1e-10 * lam[-1], lam
            assert _pole_error(A22, C2, L, desired) <= 1e-10 * max(1.0, operator_norm(A22))
        assert sorted(iterations) == [5, 11, 12, 12]

    def test_sweep_and_iteration_counts_of_the_figures(self, monkeypatch):
        # fig3..fig8 place 8 two-output gains, 5 of them distinct (fig5's
        # and fig6's delivery cases share their experiment's design); each
        # takes one sweep and four or five trust-region iterations; the
        # counts repeat exactly, so a slide toward hundreds of iterations,
        # or a design rebuilt per case, fails
        stops = []
        loop = numerics._yt_loop

        def counting(*args):
            stops.append(loop(*args))
            return stops[-1]

        monkeypatch.setattr(numerics, "_yt_loop", counting)
        _reproduce_figures()
        assert [how for how, _, _ in stops] == ["certificate"] * 8
        assert sum(sweeps for _, sweeps, _ in stops) == 8
        assert sum(steps for _, _, steps in stops) == 33

    def test_iteration_bound_fails_the_placement(self, monkeypatch, tmp_path):
        # the bound is a failure path: a placement that reaches it raises
        # instead of returning the gain the ascent got to
        A22, C2, desired = next(
            p for p in _recorded_placements(
                monkeypatch, lambda: experiments.build_pipeline(ALPHABET16))
            if p[1].shape[0] == 3)
        monkeypatch.setattr(numerics, "_ITERATION_BOUND", 2)
        with pytest.raises(ValueError, match="did not converge in 2 trust-region iterations"):
            place_poles(A22, C2, desired)
        config = tmp_path / "alphabet16.json"
        config.write_text(json.dumps(ALPHABET16))
        assert cli.main(["design", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_riemannian_derivatives_match_finite_differences(self):
        # along the retraction c(t) = normalised(s + t T v), whose second
        # derivative is -|v_b|^2 s_b per block, f(c(t)) has slope grad . v
        # and curvature -v^T V diag(lam) V^T v
        rng = np.random.default_rng(2008)
        for n, m, n_pairs in [(4, 2, 0), (5, 2, 2), (5, 3, 1), (6, 3, 3)]:
            A, C = TestAssignPolesMatchesScipy.random_pair(rng, n, m)
            desired = TestAssignPolesMatchesScipy.pole_list(rng, n, n_pairs)
            _, X, poles, ker_pole, _ = placement(A, C, desired, loop=capped_loop(maxiter=1))
            frame, s, f, grad, T, lam, V = _frame_point(X, poles, ker_pole)
            blocks = frame[2]
            # the coordinates rebuild X up to the scale of each block
            rebuilt = numerics._transfer(frame, s)
            assert abs(unit_det(rebuilt, poles) - unit_det(X, poles)) <= 1e-14
            assert np.max(np.abs(rebuilt - X.real @ np.diag(
                np.linalg.norm(rebuilt, axis=0) / np.linalg.norm(X.real, axis=0)))) <= 1e-14
            for _ in range(3):
                v = rng.normal(size=T.shape[1])
                h = 1e-4
                up, down = (numerics._log_det_derivatives(
                    frame, numerics._on_spheres(s + t * (T @ v), blocks))[0] for t in (h, -h))
                slope = (up - down) / (2 * h)
                curvature = (up - 2 * f + down) / h ** 2
                assert abs(slope - grad @ v) <= 1e-6 * max(1.0, abs(slope))
                want = -(v @ V) @ (lam * (V.T @ v))
                assert abs(curvature - want) <= 1e-5 * max(1.0, abs(want))
            # a pair's phase does not move |det X|: its direction i w is
            # left out of T, and the gradient is zero along it
            g = numerics._log_det_derivatives(frame, s)[1]
            for sl, pair in blocks:
                if pair:
                    half = (sl.stop - sl.start) // 2
                    phase = np.zeros_like(s)
                    phase[sl] = np.concatenate((-s[sl][half:], s[sl][:half]))
                    assert abs(g @ phase) <= 1e-12 * np.linalg.norm(g)
                    assert np.max(np.abs(T.T @ phase)) <= 1e-14

    def test_random_survey_ends_certified(self):
        # tests/placement_survey.py's 120 draws (n = 3..8, m = 2..6, up to
        # n/2 conjugate pairs).  The finish before the trust region ended
        # 41 of them by Tits & Yang's test, each of which fails the bounds
        # below: 40 with a gradient above 1e-10 (1.4e-9 to 9.2e-4), and
        # seed 2 draw 48 (gradient 8.9e-11) at a saddle whose curvature
        # ratio lam[0] / lam[-1] is -3.1e-2
        count = 0
        for seed in SEEDS:
            for A, C, desired in random_draws(seed):
                L, X, poles, ker_pole, stop = placement(A, C, desired)
                assert stop[0] in ("certificate", "ridge"), (seed, count, stop)
                assert _pole_error(A, C, L, desired) <= 1e-8 * max(1.0, operator_norm(A))
                *_, grad, T, lam, V = _frame_point(X, poles, ker_pole)
                assert np.linalg.norm(grad) <= 1e-10, (seed, count, stop)
                assert lam[0] >= -1e-8 * lam[-1], (seed, count, lam)
                if stop[0] == "certificate":
                    assert lam[0] > 0.0, (seed, count, lam)
                count += 1
        assert count == 120

    def test_fourteen_state_feeder_certifies(self):
        # promoted_feeder(7) with six angle sensors and poles -0.5 - 0.05 j:
        # the finish before the trust region took 1111 sweeps and 9 Newton
        # steps here, about 11 s; the ascent certifies in 90 iterations,
        # about 0.1 s, and place_poles' own pole check passes
        A, C, desired = feeder_case(7, 6, "clustered")
        start = time.perf_counter()
        L = place_poles(A, C, desired)
        assert time.perf_counter() - start <= 5.0
        gain, _, _, _, stop = placement(A, C, desired)
        assert stop == ("certificate", 1, 90)
        assert np.array_equal(L, gain)

    def test_model_step_solves_the_trust_region_subproblem(self):
        # More & Sorensen's conditions for a global maximiser of the model
        # g . y - y . M y / 2 over |y| <= r: (M + mu I) y = g with
        # M + mu I positive semidefinite, mu >= 0 and mu (r - |y|) = 0,
        # where M has its numerically null curvature lifted to
        # _SQRT_EPS * lam[-1] as _model_step takes it
        rng = np.random.default_rng(1983)
        null = numerics._SQRT_EPS
        cases = [([1.0, 2.0, 3.0], 10.0), ([1.0, 2.0, 3.0], 0.1),          # interior, boundary
                 ([-2.0, 0.5, 3.0], 1.0), ([-2.0, -1.0, 4.0], 0.3),        # indefinite
                 ([1e-20, 0.5, 3.0], 1.0), ([-1e-12, 1.0, 2.0], 0.5)]      # null curvature
        for lam, radius in cases:
            lam = np.array(lam)
            V = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            for hard in (False, True):
                gv = rng.normal(size=3)
                if hard:
                    gv[0] = 0.0                  # no gradient along the lowest direction
                grad = V @ gv
                step, rise = numerics._model_step(grad, lam, V, radius)
                lifted = np.where(abs(lam) < null * lam[-1], null * lam[-1], lam)
                y = V.T @ step
                norm = np.linalg.norm(y)
                assert norm <= radius * (1 + 1e-12)
                assert rise == pytest.approx(gv @ y - 0.5 * (lifted * y) @ y, rel=1e-12, abs=1e-300)
                # the multiplier that y's nonzero components imply
                mu = np.median([(gv[i] - lifted[i] * y[i]) / y[i]
                                for i in range(3) if abs(y[i]) > 1e-8 * norm])
                assert mu >= -1e-9 and lifted[0] + mu >= -1e-9
                assert np.max(np.abs((lifted + mu) * y - gv)) <= 1e-9 * max(1.0, np.abs(gv).max())
                if mu > 1e-9:
                    assert norm == pytest.approx(radius, rel=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 10), data=st.data())
    def test_random_pairs_end_by_certificate_or_ridge(self, n, data):
        m = data.draw(st.integers(2, n - 1), label="m")
        n_pairs = data.draw(st.integers(0, n // 2), label="n_pairs")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        A, C = TestAssignPolesMatchesScipy.random_pair(rng, n, m)
        while True:
            desired = TestAssignPolesMatchesScipy.pole_list(rng, n, n_pairs)
            gaps = np.abs(desired[:, None] - desired[None, :]) + np.eye(n)
            if gaps.min() >= 0.1:
                break
        L, X, poles, _, stop = placement(A, C, desired)
        assert stop[0] in ("certificate", "ridge"), stop
        assert _pole_error(A, C, L, desired) <= 1e-8 * max(1.0, operator_norm(A))
        # the oracle sweeps to Tits & Yang's test or its 300-sweep budget
        _, X_oracle, _, _, _ = placement(A, C, desired, loop=capped_loop())
        assert unit_det(X, poles) >= unit_det(X_oracle, poles) * (1 - 1e-12)


class TestFullQr:
    """The assignment's QR has numpy.linalg.qr(mode="complete")'s bits."""

    # (70, 40) and (80, 70) reach LAPACK's blocked path
    @pytest.mark.parametrize("shape", [(4, 2), (5, 3), (6, 2), (3, 3), (4, 4),
                                       (70, 40), (80, 70)],
                             ids=lambda shape: "%dx%d" % shape)
    @pytest.mark.parametrize("kind", [float, complex])
    def test_bitwise_equal_to_numpy(self, shape, kind):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        a = rng.normal(size=shape)
        if kind is complex:
            a = a + 1j * rng.normal(size=shape)
        Q, R = numerics._full_qr(a)
        want_q, want_r = np.linalg.qr(a, mode="complete")
        assert Q.flags.f_contiguous and Q.dtype == a.dtype
        assert Q.tobytes() == want_q.tobytes()
        assert R.tobytes() == want_r.tobytes()


def pbh_margin(A, C):
    """min over the eigenvalues lam of A of sigma_min([A - lam I; C]), the
    Popov-Belevitch-Hautus distance of (C, A) from unobservability there."""
    n = A.shape[0]
    return min(np.linalg.svd(np.vstack([A - lam * np.eye(n), C]), compute_uv=False)[-1]
               for lam in np.linalg.eigvals(A))


class TestObservabilityStaircase:
    """The staircase split against pairs with a known unobservable subspace."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 30), data=st.data())
    def test_split_of_a_known_unobservable_subspace(self, n, data):
        # A = Q [[A_uu, A_uo], [0, A_oo]] Q^T and C = [0, C_o] Q^T leave
        # span Q[:, :k] unobservable; a PBH margin of (C_o, A_oo) well above
        # the cutoff makes the rest observable beyond doubt
        k = data.draw(st.integers(0, n - 1), label="k")
        m = data.draw(st.integers(1, n - k), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        while True:
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            blocks = rng.normal(size=(n, n))
            blocks[k:, :k] = 0.0
            A = Q @ blocks @ Q.T
            C = np.hstack([np.zeros((m, k)), rng.normal(size=(m, n - k))]) @ Q.T
            if pbh_margin(blocks[k:, k:], C @ Q[:, k:]) >= 1e-3 * max(operator_norm(A), 1.0):
                break
        Z, n_i = numerics.observability_staircase(A, C)
        assert n_i == n - k
        assert np.max(np.abs(Z.T @ Z - np.eye(n))) <= 1e-12
        U = Z[:, n_i:]
        assert operator_norm(U @ U.T - Q[:, :k] @ Q[:, :k].T) <= 1e-8
        assert operator_norm(Z[:, :n_i].T @ A @ U) <= 1e-8 * max(operator_norm(A), 1.0)
        assert operator_norm(C @ U) <= 1e-8 * max(operator_norm(C), 1.0)
        # each column's first nonzero entry is positive
        first = np.argmax(np.abs(Z) > 1e-12, axis=0)
        assert np.all(Z[first, np.arange(n)] > 0)

    def test_split_matches_the_krylov_kernel_on_the_bundled_pairs(self, monkeypatch):
        # at n <= 4 the Krylov stack is well conditioned: on every pair that
        # decompose and place_poles hand the staircase in fig3..fig8 and
        # ALPHABET16 it gives the stack's rank and kernel
        seen = []
        staircase = numerics.observability_staircase

        def recording(A, C):
            seen.append((A, C))
            return staircase(A, C)

        monkeypatch.setattr(numerics, "observability_staircase", recording)
        _reproduce_figures()
        experiments.build_pipeline(ALPHABET16)
        assert len(seen) > 40 and any(0 < n_i < len(A) for A, C in seen
                                      for _, n_i in [staircase(A, C)])
        for A, C in seen:
            Z, n_i = staircase(A, C)
            K = kernel_base(observability_stack(C, A))
            U = Z[:, n_i:]
            assert n_i == A.shape[0] - K.shape[1]
            assert operator_norm(U @ U.T - K @ K.T) <= 1e-12

    def test_blind_and_zero_pairs(self):
        Z, n_i = numerics.observability_staircase(np.ones((3, 3)), np.zeros((0, 3)))
        assert n_i == 0 and np.array_equal(Z, np.eye(3))
        Z, n_i = numerics.observability_staircase(np.zeros((3, 3)), np.zeros((2, 3)))
        assert n_i == 0 and np.array_equal(Z, np.eye(3))


class TestKernelBase:
    def test_full_rank_gives_empty(self):
        K = kernel_base(np.eye(4))
        assert K.shape == (4, 0)

    def test_published_observability_kernel(self):
        K = kernel_base(W3_PRINTED)
        assert K.shape == (4, 1)
        v = K[:, 0]
        want = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
        assert min(np.linalg.norm(v - want), np.linalg.norm(v + want)) < 1e-3

    def test_rank_one_two_by_two(self):
        K = kernel_base(np.array([[1.0, 1.0], [2.0, 2.0]]))
        want = np.array([1.0, -1.0]) / np.sqrt(2)
        assert K.shape == (2, 1)
        assert min(np.linalg.norm(K[:, 0] - want), np.linalg.norm(K[:, 0] + want)) < 1e-12

    def test_columns_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.normal(size=(3, 6)) @ rng.normal(size=(6, 6))
            M[:, 3:] = M[:, :3]   # force rank deficiency
            K = kernel_base(M)
            assert np.max(np.abs(K.T @ K - np.eye(K.shape[1]))) < 1e-10
            assert operator_norm(M @ K) <= 1e-8 * max(operator_norm(M), 1.0)

    def test_residual_failure_is_value_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(ValueError, match="kernel residual"):
            kernel_base(W3_PRINTED)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_random_gram_matrix(self):
        rng = np.random.default_rng(42)
        G = rng.normal(size=(4, 4))
        M = G.T @ G
        S = psd_sqrt(M)
        assert np.max(np.abs(S @ S - M)) < 1e-10
        assert np.allclose(S, S.T)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="indefinite"):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestSteinSolver:
    def test_scalar_recursion(self):
        W = solve_symmetric_stein(0.5 * np.eye(2), np.eye(2))
        assert np.allclose(W, (4.0 / 3.0) * np.eye(2))

    def test_zero_map(self):
        Psi = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(solve_symmetric_stein(np.zeros((2, 2)), Psi), Psi)

    def test_vs_truncated_series(self):
        rng = np.random.default_rng(8)
        B = rng.normal(size=(3, 3))
        S = 0.4 * (B + B.T) / operator_norm(B + B.T)
        G = rng.normal(size=(3, 3))
        Psi = G @ G.T
        W = solve_symmetric_stein(S, Psi)
        series = np.zeros((3, 3))
        P = np.eye(3)
        for _ in range(201):
            series = series + P @ Psi @ P
            P = P @ S
        assert np.max(np.abs(W - series)) < 1e-10

    def test_unstable_rejected(self):
        # the 70 x 70 inputs take the iterative branch, which must reject
        # them before it iterates
        B = np.random.default_rng(3).normal(size=(70, 70))
        B = (B + B.T) / np.max(np.abs(np.linalg.eigvalsh(B + B.T)))
        t0 = time.perf_counter()
        for S in (np.eye(2), B, 1.05 * B):
            with pytest.raises(ValueError, match="unstable"):
                solve_symmetric_stein(S, np.eye(len(S)))
        assert time.perf_counter() - t0 < 5.0

    def test_slow_iterative_solve_converges(self):
        # 70 x 70 takes the iterative branch; at radius 0.99 (second-moment
        # radius 0.98) it needs about 1600 steps to converge
        B = np.random.default_rng(3).normal(size=(70, 70))
        S = 0.99 * (B + B.T) / np.max(np.abs(np.linalg.eigvalsh(B + B.T)))
        Psi = np.eye(70)
        W = solve_symmetric_stein(S, Psi)
        resid = operator_norm(S @ W @ S - W + Psi)
        assert resid < 1e-8 * (1 + operator_norm(Psi))

    def test_fixed_point_iteration_converges_to_solution(self):
        S = np.array([[0.3, 0.1], [0.1, 0.5]])
        Psi = np.array([[1.0, 0.2], [0.2, 2.0]])
        W = solve_symmetric_stein(S, Psi)
        X = np.zeros((2, 2))
        for _ in range(300):
            X = S @ X @ S + Psi
        assert np.max(np.abs(X - W)) < 1e-12

    def test_series_path_matches_kron_path(self):
        rng = np.random.default_rng(15)
        n = 70   # beyond the vectorisation size limit
        B = rng.normal(size=(n, n))
        S = 0.45 * (B + B.T) / operator_norm(B + B.T)
        G = rng.normal(size=(n, 4))
        Psi = G @ G.T
        W = solve_symmetric_stein(S, Psi)
        resid = operator_norm(S @ W @ S - W + Psi)
        assert resid < 1e-8 * (1 + operator_norm(Psi))


class TestMeanSquareRadius:
    def test_diagonal_maps_closed_form(self):
        # diagonal maps give a diagonal Kronecker sum with entries
        # sum_j w_j a_ji a_jk
        a = np.array([[0.9, -0.2, 0.5], [0.1, 1.2, -0.4]])
        w = np.array([0.7, 0.3])
        want = np.max(np.abs(np.einsum("j,ji,jk->ik", w, a, a)))
        got = mean_square_radius([np.diag(row) for row in a], w)
        assert got == pytest.approx(want, rel=1e-14)

    def test_scaled_orthogonal_maps(self):
        # T(I) = c^2 I for orthogonal maps scaled by c, so the radius is c^2
        rng = np.random.default_rng(4)
        U = [np.linalg.qr(rng.normal(size=(5, 5)))[0] for _ in range(3)]
        got = mean_square_radius([0.8 * Uj for Uj in U], [0.2, 0.3, 0.5])
        assert got == pytest.approx(0.64, rel=1e-13)

    def test_below_the_second_moment_bound(self):
        # E||M e||^2 <= rho(sum w M^T M) ||e||^2 bounds the exact radius
        rng = np.random.default_rng(23)
        for _ in range(20):
            maps = [rng.normal(size=(4, 4)) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            bound = max(np.abs(np.linalg.eigvals(
                sum(wj * M.T @ M for wj, M in zip(w, maps)))))
            assert mean_square_radius(maps, w) <= bound * (1 + 1e-12)

    def test_iteration_branch_matches_kronecker(self, monkeypatch):
        rng = np.random.default_rng(22)
        maps = [0.4 * rng.normal(size=(6, 6)) for _ in range(3)]
        w = [0.5, 0.3, 0.2]
        exact = mean_square_radius(maps, w)
        monkeypatch.setattr(numerics, "_VEC_LIMIT", 0)
        assert mean_square_radius(maps, w) == pytest.approx(exact, rel=1e-9)


class TestSwitchedCovariance:
    def test_single_map_reduces_to_discrete_lyapunov(self):
        A = np.array([[0.5, 0.2], [0.0, 0.6]])
        Psi = np.eye(2)
        W = solve_switched_covariance([A], [1.0], Psi)
        X = np.zeros((2, 2))
        for _ in range(400):
            X = A @ X @ A.T + Psi
        assert np.max(np.abs(W - X)) < 1e-12

    def test_unstable_rejected(self):
        # two random orthogonal maps scaled by c give second-moment radius
        # c^2 exactly, since T(I) = c^2 I for the positive map T
        rng = np.random.default_rng(4)
        U = [np.linalg.qr(rng.normal(size=(70, 70)))[0] for _ in range(2)]
        cases = [([1.1 * np.eye(2)], [1.0])]
        cases += [([np.sqrt(r) * Uj for Uj in U], [0.3, 0.7]) for r in (1.0, 1.05)]
        t0 = time.perf_counter()
        for maps, weights in cases:
            with pytest.raises(ValueError, match="unstable"):
                solve_switched_covariance(maps, weights, np.eye(len(maps[0])))
        assert time.perf_counter() - t0 < 5.0


    def test_residual_failure_is_value_error(self, monkeypatch):
        A = np.array([[0.5, 0.2], [0.1, 0.6]])
        monkeypatch.setattr(numerics, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(ValueError, match="covariance residual"):
            solve_switched_covariance([A, 0.5 * A], [0.4, 0.6], np.eye(2))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal_sign(self):
        assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_vs_power_iteration(self):
        rng = np.random.default_rng(21)
        M = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        for _ in range(500):
            v = M.T @ (M @ v)
            v /= np.linalg.norm(v)
        oracle = np.sqrt(v @ (M.T @ (M @ v)))
        assert abs(operator_norm(M) - oracle) < 1e-8
