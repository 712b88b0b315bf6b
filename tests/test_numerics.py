"""Numerics kernels against closed forms and independent oracles."""

import time
import warnings
from collections import OrderedDict

import numpy as np
import pytest
import scipy.signal

from gridobs import experiments, numerics
from gridobs.numerics import (Tolerance, kernel_base, matrix_exponential,
                              noise_gramian, operator_norm, place_poles,
                              psd_sqrt, solve_switched_covariance,
                              solve_symmetric_stein)

from conftest import A5_PRINTED, W3_PRINTED


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

    def test_semigroup_property(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = rng.normal(size=(6, 6))
            A = A - 3.0 * np.eye(6)   # keep it stable-ish
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            lhs = matrix_exponential(A, t1 + t2)
            rhs = matrix_exponential(A, t1) @ matrix_exponential(A, t2)
            assert np.max(np.abs(lhs - rhs)) < 1e-8


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


def _scipy_gain(A22, C2, desired):
    """The gain scipy's place_poles gives for the request _assign_poles gets."""
    request = desired.real if np.all(desired.imag == 0) else desired
    kwargs = {"rtol": 1e-11, "maxiter": 300} if C2.shape[0] > 1 else {}
    with warnings.catch_warnings():
        # the capped two-output placements stop before scipy's tolerance
        warnings.filterwarnings("ignore", message="Convergence was not")
        res = scipy.signal.place_poles(A22.T, C2.T, request, **kwargs)
    return res.gain_matrix.T


def _recorded_placements(monkeypatch, designs):
    """Distinct (A22, C2, poles) that `designs()` hands to _assign_poles."""
    seen = {}
    assign = numerics._assign_poles

    def recording(A22, C2, desired):
        key = (A22.shape, A22.tobytes(), C2.shape, C2.tobytes(), desired.tobytes())
        seen.setdefault(key, (A22.copy(), C2.copy(), desired.copy()))
        return assign(A22, C2, desired)

    monkeypatch.setattr(numerics, "_gain_memo", OrderedDict())
    monkeypatch.setattr(numerics, "_assign_poles", recording)
    designs()
    monkeypatch.setattr(numerics, "_assign_poles", assign)
    return list(seen.values())


def _reproduce_figures():
    """Run fig3..fig8 as reproduce does, with two replicas each."""
    for name in experiments.EXPERIMENTS:
        experiments.run_experiment(name, replicas=2)


# ieee5 with all four states sensed: 16 scenarios, 15 of them need a gain,
# with one to four outputs
ALPHABET16 = {
    "grid": "ieee5",
    "channels": [{"name": m, "measure": m, "rho": 0.9, "sigma": 0.01}
                 for m in ("1.delta", "1.omega", "2.delta", "2.omega")],
    "observer": {"tau": 0.6261, "poles": [-4.8, -3.6, -4.0, -4.4], "n_sub": 64},
}


class TestAssignPolesMatchesScipy:
    """The port gives scipy.signal.place_poles' gain bit for bit."""

    def assert_bitwise(self, A22, C2, desired):
        desired = np.asarray(desired, dtype=complex)
        got = numerics._assign_poles(A22, C2, desired)
        want = _scipy_gain(A22, C2, desired)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))

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
            if np.linalg.matrix_rank(numerics.observability_stack(C, A)) == n:
                return A, C

    @staticmethod
    def pole_list(rng, n, n_pairs):
        re = -rng.uniform(0.5, 6.0, size=n_pairs)
        im = rng.uniform(0.3, 3.0, size=n_pairs)
        p = np.concatenate([re + 1j * im, re - 1j * im,
                            -rng.uniform(0.5, 6.0, size=n - 2 * n_pairs)])
        rng.shuffle(p)
        return p

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


def _fig5_gains():
    """Gains of fig5's three delivery-ratio cases, one dict per case."""
    cfg = experiments.load_experiment("fig5")
    gains = []
    for rhos in cfg["check"]["cases"]:
        _, _, _, obs = experiments.build_pipeline(experiments._with_rhos(cfg, rhos))
        gains.append({i: d.L for i, d in obs.decomps.items() if d.L is not None})
    return gains


class TestGainMemo:
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    C = np.array([[1.0, 0.0]])

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        memo = OrderedDict()
        monkeypatch.setattr(numerics, "_gain_memo", memo)
        return memo

    def test_fig5_cases_run_the_assignment_once_per_gain(self, monkeypatch):
        # delivery ratios do not enter the gains, so the three cases ask
        # for the same three placements
        calls = []
        assign = numerics._assign_poles

        def counting(*args):
            calls.append(args)
            return assign(*args)

        monkeypatch.setattr(numerics, "_assign_poles", counting)
        size = numerics._GAIN_MEMO_SIZE
        monkeypatch.setattr(numerics, "_GAIN_MEMO_SIZE", 0)
        uncached = _fig5_gains()
        assert len(calls) == 9
        monkeypatch.setattr(numerics, "_GAIN_MEMO_SIZE", size)
        calls.clear()
        cached = _fig5_gains()
        assert len(calls) == 3
        for got, want in zip(cached, uncached):
            assert got.keys() == want.keys() and len(got) == 3
            for i, L in got.items():
                assert L.shape == want[i].shape
                assert L.tobytes(order="A") == want[i].tobytes(order="A")
        for i, L in cached[0].items():
            assert not np.shares_memory(L, cached[1][i])

    def test_returned_gain_is_a_private_copy(self):
        want = place_poles(self.A, self.C, [-1.0, -2.0])
        ref = want.copy()
        want[:] = 99.0
        again = place_poles(self.A, self.C, [-1.0, -2.0])
        assert np.array_equal(again, ref)

    def test_invalid_requests_raise_on_every_call(self, empty_memo):
        place_poles(self.A, self.C, [-2.0, -3.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="distinct"):
                place_poles(self.A, self.C, [-2.0, -2.0])
            with pytest.raises(ValueError, match="not observable"):
                place_poles(np.diag([-1.0, -2.0]), self.C, [-3.0, -4.0])
        assert len(empty_memo) == 1          # only the verified gain is kept

    def test_hit_still_checks_pole_accuracy(self, empty_memo):
        place_poles(self.A, self.C, [-1.0, -2.0])
        (key,) = empty_memo
        empty_memo[key] = empty_memo[key] + 1.0
        with pytest.raises(ValueError, match="did not reach"):
            place_poles(self.A, self.C, [-1.0, -2.0])

    def test_memo_size_is_bounded(self, monkeypatch, empty_memo):
        monkeypatch.setattr(numerics, "_GAIN_MEMO_SIZE", 2)
        for poles in ([-1.0, -2.0], [-1.0, -3.0], [-1.0, -4.0]):
            place_poles(self.A, self.C, poles)
        assert len(empty_memo) == 2


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

    def test_residual_failure_is_value_error(self):
        with pytest.raises(ValueError, match="kernel residual"):
            kernel_base(W3_PRINTED, Tolerance(residual_tol=1e-300))


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


    def test_residual_failure_is_value_error(self):
        A = np.array([[0.5, 0.2], [0.1, 0.6]])
        with pytest.raises(ValueError, match="covariance residual"):
            solve_switched_covariance([A, 0.5 * A], [0.4, 0.6], np.eye(2),
                                      Tolerance(residual_tol=1e-300))


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


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_tol=-1.0)
