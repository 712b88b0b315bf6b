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
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numerics, observer
from .numerics import DEFAULT_TOL, operator_norm


def interval_variance(Ac, L, sigma, tau, tol=DEFAULT_TOL):
    """Per-interval filter error covariance V and its square root Q.

    V integrates exp(Ac u) L sigma (L sigma)^T exp(Ac^T u) over one
    sampling interval.  Ac is expected to be Hurwitz; if it is not the
    integral still exists but the filter it describes will not settle, so
    a warning is raised.
    """
    Ac = np.asarray(Ac, dtype=float)
    if Ac.size and np.max(np.linalg.eigvals(Ac).real) >= 0:
        warnings.warn("Ac is not Hurwitz; interval variance computed anyway",
                      RuntimeWarning, stacklevel=2)
    L = np.asarray(L, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or not np.any(sigma):
        V = np.zeros_like(Ac)
    else:
        V = numerics.noise_gramian(Ac, L @ sigma, tau)
    return V, numerics.psd_sqrt(V, tol)


@dataclass
class ConvergenceReport:
    gamma_exact: float            # E ||Lam_k|| = sum p_j ||Lam(j)||
    gamma1: float                 # || diag[p_i exp(Ac_i tau)] ||
    gamma2: float                 # || diag[(1-p_i) I] F exp(A tau) Phi ||
    tau_max: float
    stable: bool                  # second moment matrix inside the unit circle
    second_moment_radius: float
    scenario_norms: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "gamma_exact": self.gamma_exact,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "tau_max": self.tau_max,
            "stable": self.stable,
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
    M = second_moment_matrix(obs, scenario_set)
    radius = float(max(np.abs(np.linalg.eigvals(M))))
    tmax = compute_tau_max(obs.A, scenario_set, obs.decomps, F=obs.F, Phi=obs.Phi)
    return ConvergenceReport(
        gamma_exact=float(gamma), gamma1=float(gamma1), gamma2=float(gamma2),
        tau_max=tmax, stable=radius < 1.0, second_moment_radius=radius,
        scenario_norms=norms)


_TAU_SCAN_LIMIT = 100.0
_TAU_RESOLUTION = 1e-4


def compute_tau_max(A, scenario_set, decomps, F=None, Phi=None):
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
    if F is None or Phi is None:
        blocks = [decomps[s.index].F for s in scenario_set if decomps[s.index].n_i]
        F = np.vstack(blocks)
        Phi = np.linalg.solve(F.T @ F, F.T)
    deficient = [s.probability for s in scenario_set if decomps[s.index].n_i < n]
    if not deficient:
        return math.inf
    q = max(deficient)
    if q >= 1.0:
        raise observer.ObserverError("an always-active scenario is rank deficient")

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
    Psi: np.ndarray               # E(Q^T Q) = sum p_j V_j
    W_stein: np.ndarray           # solution of S W S - W + Psi = 0
    mu_inf: float                 # Trace(W_stein)
    W_inf: np.ndarray             # exact stationary covariance of the error
    mu_state: float               # Trace(W_inf); matches simulated ||eps||^2

    def as_dict(self, matrices=False):
        out = {"mu_inf": self.mu_inf, "mu_state": self.mu_state,
               "trace_Psi": float(np.trace(self.Psi))}
        if matrices:
            out.update(M_matrix=self.M_matrix.tolist(), S=self.S.tolist(),
                       Psi=self.Psi.tolist(), W_stein=self.W_stein.tolist(),
                       W_inf=self.W_inf.tolist())
        return out


def steady_state(obs, scenario_set, tol=DEFAULT_TOL):
    """Steady-state error variance of the coordinated observer.

    Requires mean-square stability (second-moment matrix strictly inside
    the unit circle); otherwise the variance diverges and this raises.
    """
    M = second_moment_matrix(obs, scenario_set)
    radius = float(max(np.abs(np.linalg.eigvals(M))))
    if radius >= 1.0:
        raise observer.ObserverError(
            f"error dynamics mean-square unstable (radius {radius:.4f}); "
            "steady-state variance undefined")
    S = numerics.psd_sqrt(M, tol)
    Psi = sum(s.probability * obs.Q[s.index].T @ obs.Q[s.index]
              for s in scenario_set)
    Psi = 0.5 * (Psi + Psi.T)
    W_stein = numerics.solve_symmetric_stein(S, Psi, tol)
    maps = [obs.Lam[s.index] for s in scenario_set]
    weights = [s.probability for s in scenario_set]
    W_inf = numerics.solve_switched_covariance(maps, weights, Psi, tol)
    return SteadyState(M, S, Psi, W_stein, float(np.trace(W_stein)),
                       W_inf, float(np.trace(W_inf)))


def tradeoff_sweep(A, scenario_set, tau, base_poles, scales,
                   completion="orthonormal", n_sub=64):
    """Convergence speed versus noise floor across scaled pole sets.

    Rebuilds the gains with every pole multiplied by each scale factor and
    reports (scale, gamma_exact, mu_inf, mu_state); unstable designs get
    NaN variances.
    """
    rows = []
    for scale in scales:
        poles = [p * scale for p in base_poles]
        obs = observer.design(A, scenario_set, poles, tau,
                              completion=completion, n_sub=n_sub)
        rep = contraction(obs, scenario_set)
        if rep.stable:
            ss = steady_state(obs, scenario_set)
            rows.append({"scale": scale, "gamma_exact": rep.gamma_exact,
                         "mu_inf": ss.mu_inf, "mu_state": ss.mu_state})
        else:
            rows.append({"scale": scale, "gamma_exact": rep.gamma_exact,
                         "mu_inf": math.nan, "mu_state": math.nan})
    return rows
