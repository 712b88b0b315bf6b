"""Convergence and steady-state analysis of a coordinated observer.

Three questions are answered here: does the switched error recursion
contract on average (contraction factor and mean-square stability), how
large can the sampling interval get before convergence is impossible for
any gain choice (tau_max), and where does the error variance settle
(steady state).  The steady state is reported two ways: the symmetric
Stein-equation recipe built from the second-moment matrix, and the exact
stationary covariance of the switched recursion.  The exact trace is the
number to compare against simulated errors; the Stein trace is kept as the
classical diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics, observer
from .numerics import operator_norm


@dataclass
class ConvergenceReport:
    gamma_exact: float            # E ||Lam_k|| = sum p_j ||Lam(j)||
    gamma1: float                 # || diag[p_i exp(Ac_i tau)] ||
    gamma2: float                 # || diag[(1-p_i) I] F exp(A tau) Phi ||
    tau_max: float
    stable: bool                  # mean-square stable: ms_radius below one
    ms_radius: float              # rho(sum p_j Lam(j) kron Lam(j)), the exact radius
    second_moment_radius: float   # rho(M), a sufficient bound only
    scenario_norms: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "gamma_exact": self.gamma_exact,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "tau_max": self.tau_max,
            "stable": self.stable,
            "ms_radius": self.ms_radius,
            "second_moment_radius": self.second_moment_radius,
            "scenario_norms": {str(k): v for k, v in self.scenario_norms.items()},
        }


def second_moment_matrix(obs, scenario_set):
    """M = sum_j p_j Lam(j)^T Lam(j) over the realised error maps."""
    return sum(s.probability * obs.Lam[s.index].T @ obs.Lam[s.index]
               for s in scenario_set)


def contraction(obs, scenario_set):
    """Contraction diagnostics of the one-interval error maps."""
    norms = {s.index: operator_norm(obs.Lam[s.index]) for s in scenario_set}
    gamma = sum(s.probability * norms[s.index] for s in scenario_set)
    gamma1 = 0.0
    for s in scenario_set:
        blk = obs.exp_Ac_tau[s.index]
        if blk.size:
            gamma1 = max(gamma1, s.probability * operator_norm(blk))
    FeP = obs.F @ obs.exp_A_tau @ obs.Phi
    D = FeP.copy()
    for s in scenario_set:
        sl = obs.block_slices.get(s.index)
        if sl is not None:
            D[sl, :] *= (1.0 - s.probability)
    gamma2 = operator_norm(D)
    # rho(M) only bounds the exact radius: E||Lam e||^2 <= rho(M) ||e||^2
    M = second_moment_matrix(obs, scenario_set)
    radius = float(max(np.abs(np.linalg.eigvals(M))))
    exact = numerics.mean_square_radius([obs.Lam[s.index] for s in scenario_set],
                                        [s.probability for s in scenario_set])
    tmax = compute_tau_max(obs.A, scenario_set, obs.decomps)
    return ConvergenceReport(
        gamma_exact=float(gamma), gamma1=float(gamma1), gamma2=float(gamma2),
        tau_max=tmax, stable=exact < 1.0, ms_radius=exact,
        second_moment_radius=radius, scenario_norms=norms)


_TAU_SCAN_LIMIT = 100.0
_TAU_RESOLUTION = 1e-4


def compute_tau_max(A, scenario_set, decomps):
    """Largest sampling interval any convergent design can tolerate.

    Scenarios whose observability matrix is rank deficient run (partly)
    open loop whenever they are active, and their contribution p_j *
    h(tau)^2 to the second-moment matrix is gain independent, with h(tau)
    = ||F exp(A tau) Phi|| the open-loop interval gain (h(0) = 1).  Mean-
    square stability therefore requires q* h(tau)^2 < 1 with q* the
    largest probability among the deficient scenarios; tau_max is where
    that condition first fails, located by grid scan plus bisection.  The
    scan propagates exp(A t) from grid point to grid point, E(t + step) =
    E(t) E(step); the bisection takes a fresh exponential at each point.
    Each point is tested on the Frobenius norm first, which bounds h from
    above, and on the spectral norm only where that bound is too weak.
    Returns inf when the condition holds over the whole scan window.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    deficient = [s.probability for s in scenario_set if decomps[s.index].n_i < n]
    if not deficient:
        return math.inf
    q = max(deficient)
    if q >= 1.0:
        raise observer.ObserverError("an always-active scenario is rank deficient")
    # F and Phi as observer.build assembles them
    F = np.vstack([decomps[s.index].F for s in scenario_set if decomps[s.index].n_i])
    Phi = np.linalg.solve(F.T @ F, F.T)

    def holds(E):
        # ||M||_2 <= ||M||_F, so the Frobenius norm settles most points
        # without an SVD; the margin covers the rounding of both norms, so
        # a point is accepted only where the SVD would accept it too
        M = F @ E @ Phi
        f = np.linalg.norm(M)
        if q * f * f < 1.0 - 1e-12:
            return True
        h = operator_norm(M)
        return q * h * h < 1.0

    def cond(t):
        return holds(numerics.matrix_exponential(A, t))

    lo = 0.0
    step = 0.05
    E_step = numerics.matrix_exponential(A, step)
    E = np.eye(n)
    t = step
    while t <= _TAU_SCAN_LIMIT:
        E = E @ E_step
        if not holds(E):
            hi = t
            break
        lo = t
        t += step
    else:
        return math.inf
    while hi - lo > _TAU_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if cond(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class SteadyState:
    M_matrix: np.ndarray          # E(Lam^T Lam)
    S: np.ndarray                 # M^(1/2)
    Psi: np.ndarray               # E(Q Q^T) = sum p_j V_j
    W_stein: np.ndarray           # solution of S W S - W + Psi = 0; None if rho(M) >= 1
    mu_inf: float                 # Trace(W_stein); None if rho(M) >= 1
    W_inf: np.ndarray             # exact stationary covariance of the error
    mu_state: float               # Trace(W_inf); matches simulated ||eps||^2

    def as_dict(self, matrices=False):
        out = {"mu_inf": self.mu_inf, "mu_state": self.mu_state,
               "trace_Psi": float(np.trace(self.Psi))}
        if matrices:
            out.update(M_matrix=self.M_matrix.tolist(), S=self.S.tolist(),
                       Psi=self.Psi.tolist(),
                       W_stein=None if self.W_stein is None else self.W_stein.tolist(),
                       W_inf=self.W_inf.tolist())
        return out


def _noise_covariance(obs, scenario_set):
    """Psi = sum_j p_j Q_j Q_j^T, the mean covariance of the interval noise
    w = Q_j xi that the simulation draws."""
    return sum(s.probability * obs.Q[s.index] @ obs.Q[s.index].T
               for s in scenario_set)


def steady_state(obs, scenario_set):
    """Steady-state error variance of the coordinated observer.

    Requires mean-square stability (`numerics.mean_square_radius` below
    one); otherwise the variance diverges and this raises.  The Stein
    recipe converges only when the bound rho(M) is below one as well;
    where it is not, W_stein and mu_inf are None.
    """
    maps = [obs.Lam[s.index] for s in scenario_set]
    weights = [s.probability for s in scenario_set]
    Psi = _noise_covariance(obs, scenario_set)
    Psi = 0.5 * (Psi + Psi.T)
    # the exact solve decides mean-square stability on its own radius
    try:
        W_inf = numerics.solve_switched_covariance(maps, weights, Psi)
    except numerics.MeanSquareUnstable as exc:
        raise observer.ObserverError(
            f"error dynamics mean-square unstable (radius {exc.radius:.4f}); "
            "steady-state variance undefined") from exc
    M = second_moment_matrix(obs, scenario_set)
    S = numerics.psd_sqrt(M)
    if max(np.abs(np.linalg.eigvals(M))) < 1.0:
        W_stein = numerics.solve_symmetric_stein(S, Psi)
        mu_inf = float(np.trace(W_stein))
    else:
        W_stein = mu_inf = None
    return SteadyState(M, S, Psi, W_stein, mu_inf, W_inf, float(np.trace(W_inf)))


def _second_moment_traces(obs, scenario_set, e0, K, Psi):
    """tr Sigma_k for k = 0..K, where Sigma_0 = e0 e0^T and
    Sigma_{k+1} = sum_j p_j Lam_j Sigma_k Lam_j^T + Psi."""
    p = np.array([s.probability for s in scenario_set])
    Lam = np.stack([obs.Lam[s.index] for s in scenario_set])
    e0 = np.asarray(e0, dtype=float)
    Sigma = np.outer(e0, e0)
    out = np.empty(K + 1)
    out[0] = np.trace(Sigma)
    for k in range(K):
        Y = Lam @ Sigma @ Lam.transpose(0, 2, 1)
        Sigma = (p @ Y.reshape(len(p), -1)).reshape(Sigma.shape) + Psi
        out[k + 1] = np.trace(Sigma)
    return out


def expected_err_sq(obs, scenario_set, e0, K):
    """Exact mean of ||e_k||^2 for k = 0..K from the initial error e0.

    Iterates the second moment of the switched error recursion,
    Sigma_{k+1} = sum_j p_j (Lam_j Sigma_k Lam_j^T + Q_j Q_j^T) with
    Sigma_0 = e0 e0^T (Costa, Fragoso & Marques 2005), and returns
    tr Sigma_k.  Under mean-square stability Sigma_k tends to the
    steady state's W_inf, so the curve ends at mu_state.
    """
    return _second_moment_traces(obs, scenario_set, e0, K,
                                 _noise_covariance(obs, scenario_set))


def noise_free_err_sq(obs, scenario_set, e0, K):
    """Exact mean of ||e_k||^2 for k = 0..K with the noise left out:
    tr T^k(e0 e0^T) with T(W) = sum_j p_j Lam_j W Lam_j^T, the decay of
    the initial error alone, which the mean-square radius governs."""
    return _second_moment_traces(obs, scenario_set, e0, K, 0.0)
