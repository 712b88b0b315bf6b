"""The substep filter: an exponential-Euler discretisation of the observer.

Kept as a test oracle.  Between samples it propagates the estimate of the
active scenario's observable sub-state over n_sub substeps of
h = tau / n_sub against Brownian measurement increments (exact linear
propagation plus an innovation correction per substep); the unobservable
part follows the model.  The analysis and `gridobs.sim` describe the exact
interval law of the continuous-time filter instead, which this filter
approaches with a bias of order h.

Measurements come in lanes: every sensor channel draws one normal per
substep whether or not its data arrives, so an interval of scenario a
consumes an (n_sub, n_ch) block of draws.
"""

import numpy as np

from gridobs import numerics, observer
from gridobs.numerics import matrix_exponential


def substep_map(obs, d, h):
    """exp(h [[A11, A12], [0, A22]]): one open-loop substep in T coordinates."""
    mix = observer._mix(d)
    mix[obs.n - d.n_i:, obs.n - d.n_i:] = d.A22
    return matrix_exponential(mix, h)


def simulate_truth(A, x0, K, tau, n_sub, alphas, scenario_set, seed):
    """Exact state path plus per-interval measurement increments.

    Returns (states, increments): states has shape (K*n_sub + 1, n) at
    substep resolution, increments is a list of K arrays shaped
    (n_sub, r_alpha_k).  Each increment is C x dt plus sigma dW over one
    substep, with dW drawn from the channel's lane of the noise stream `seed`.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    h = tau / n_sub
    Eh = matrix_exponential(A, h)
    rng = np.random.default_rng(seed)
    n_ch = len(scenario_set.channels)
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((K * n_sub + 1, n))
    states[0] = x
    increments = []
    sqh = np.sqrt(h)
    for k in range(K):
        s = scenario_set.by_index(int(alphas[k]))
        lanes = np.array(s.up_channels, dtype=int)
        sig = np.diag(s.sigma) if s.sigma.size else np.zeros(0)
        xi = rng.standard_normal((n_sub, n_ch)) if n_ch else np.zeros((n_sub, 0))
        dy = np.empty((n_sub, s.r))
        for j in range(n_sub):
            if s.r:
                dy[j] = (s.C @ x) * h + sig * sqh * xi[j, lanes]
            x = Eh @ x
            states[k * n_sub + j + 1] = x
        increments.append(dy)
    return states, increments


def step_estimate(obs, xhat, alpha, dy):
    """Advance the estimate across one sampling interval.

    `dy` holds the measurement increments of the active scenario, shaped
    (n_sub, r_alpha); its row count sets the substep count.  With alpha the
    no-sensor scenario this is pure model propagation.
    """
    xhat = np.asarray(xhat, dtype=float)
    d = obs.decomps.get(alpha)
    if d is None:
        raise observer.ObserverError(f"unknown scenario index {alpha}")
    if d.n_i == 0 or d.L is None:
        if dy is not None and np.size(dy):
            raise observer.ObserverError("no-sensor scenario takes no measurements")
        return obs.exp_A_tau @ xhat
    dy = np.asarray(dy, dtype=float)
    n_sub = dy.shape[0]
    h = obs.tau / n_sub
    k = obs.n - d.n_i
    E = substep_map(obs, d, h)
    z = np.concatenate([d.G @ xhat, d.F @ xhat])
    gain = np.zeros((obs.n, d.C2.shape[0]))
    gain[k:, :] = d.L
    for j in range(n_sub):
        innov = dy[j] - (d.C2 @ z[k:]) * h
        z = E @ z + gain @ innov
    return d.T @ z


def basis_row_maps(A, obs, scenario_set, n_sub):
    """One-interval maps of the substep filter, per scenario, in row form.

    Runs the filter of `step_estimate` once on the 2n + n_sub n_ch basis
    inputs (n estimate rows, n truth rows, one row per lane draw) and reads
    the maps off the results: xhat' = xhat P_a + x Qx_a + xi N_a, with xi
    the interval's lane draws flattened substep-major.  Returns (E, maps):
    E is the row-form truth map and maps[a] stacks [P_a; Qx_a; N_a].
    """
    n = obs.n
    h = obs.tau / n_sub
    n_ch = len(scenario_set.channels)
    Eh_T = matrix_exponential(A, h).T
    xs = np.empty((n_sub, n, n))
    E = np.eye(n)
    for j in range(n_sub):
        xs[j] = E
        E = E @ Eh_T
    n_in = 2 * n + n_sub * n_ch
    maps = {}
    for s in scenario_set:
        d = obs.decomps[s.index]
        if d.n_i == 0 or d.L is None:
            maps[s.index] = np.zeros((n_in, n))
            maps[s.index][:n] = obs.exp_A_tau.T
            continue
        lanes = np.array(s.up_channels, dtype=int)
        sig = np.diag(s.sigma)
        dy = np.zeros((n_in, n_sub, s.r))
        dy[n:2 * n] = np.einsum("jbn,cn->bjc", xs, s.C) * h
        for pos, lane in enumerate(lanes):
            draw_rows = 2 * n + np.arange(n_sub) * n_ch + lane
            dy[draw_rows, np.arange(n_sub), pos] = sig[pos] * np.sqrt(h)
        kdim = n - d.n_i
        E_T = substep_map(obs, d, h).T
        gain_T = np.zeros((s.r, n))
        gain_T[:, kdim:] = d.L.T
        Z = np.zeros((n_in, n))
        Z[:n] = np.hstack([d.G.T, d.F.T])
        for j in range(n_sub):
            innov = dy[:, j, :] - (Z[:, kdim:] @ d.C2.T) * h
            Z = Z @ E_T + innov @ gain_T
        maps[s.index] = Z @ d.T.T
    return E, maps


def closed_form_maps(A, obs, scenario_set, n_sub):
    """The maps of `basis_row_maps` in closed form.

    In the scenario's T coordinates one filter substep is
    z' = z Phi_a + dy_j gain_T with the closed-loop substep matrix
    Phi_a = E_a^T - h [0; C2^T] gain_T, so with R_j = gain_T Phi_a^(n_sub-1-j) T^T

        P_a = [G^T F^T] Phi_a^n_sub T^T,
        Qx_a = h sum_j Eh^(j T) C^T R_j,
        N_a[(j, lane)] = sigma_lane sqrt(h) R_j[lane's position],

    and the rows of N_a for lanes scenario a leaves down are zero.  The
    no-sensor scenario maps to P = e^(A tau)^T, Qx = 0, N = 0.
    """
    n = obs.n
    h = obs.tau / n_sub
    n_ch = len(scenario_set.channels)
    Eh_T = matrix_exponential(A, h).T
    xs = np.empty((n_sub, n, n))
    E = np.eye(n)
    for j in range(n_sub):
        xs[j] = E
        E = E @ Eh_T
    maps = {}
    for s in scenario_set:
        d = obs.decomps[s.index]
        M = np.zeros((2 * n + n_sub * n_ch, n))
        maps[s.index] = M
        if d.n_i == 0 or d.L is None:
            M[:n] = obs.exp_A_tau.T
            continue
        lanes = np.array(s.up_channels, dtype=int)
        sig = np.diag(s.sigma)
        kdim = n - d.n_i
        gain_T = np.zeros((s.r, n))
        gain_T[:, kdim:] = d.L.T
        Phi = substep_map(obs, d, h).T
        Phi[kdim:] -= h * (d.C2.T @ gain_T)
        # V[i] = Phi^i T^T, so R_j = gain_T V[n_sub - 1 - j]
        V = np.empty((n_sub + 1, n, n))
        V[0] = d.T.T
        for i in range(n_sub):
            V[i + 1] = Phi @ V[i]
        Rj = gain_T @ V[n_sub - 1::-1]
        M[:n] = np.hstack([d.G.T, d.F.T]) @ V[n_sub]
        M[n:2 * n] = h * np.einsum("jbc,jcn->bn", xs @ s.C.T, Rj)
        N = M[2 * n:].reshape(n_sub, n_ch, n)
        N[:, lanes] = (sig * np.sqrt(h))[:, None] * Rj
    return E, maps


def exact_floor(A, obs, scenario_set, n_sub):
    """Stationary mean of ||e||^2 under the substep filter, truth at zero.

    With x = 0 the error follows e' = P_a^T e + N_a^T xi, so its stationary
    covariance solves W = sum_a p_a (P_a^T W P_a + N_a^T N_a).
    """
    n = obs.n
    _, maps = closed_form_maps(A, obs, scenario_set, n_sub)
    p = [s.probability for s in scenario_set]
    Ps = [maps[s.index][:n].T for s in scenario_set]
    Psi = sum(s.probability * maps[s.index][2 * n:].T @ maps[s.index][2 * n:]
              for s in scenario_set)
    return float(np.trace(numerics.solve_switched_covariance(Ps, p, Psi)))
