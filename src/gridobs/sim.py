"""Ground-truth simulation and Monte Carlo harness.

The true deviation state is linear and autonomous, so it propagates
exactly by one-substep matrix exponentials.  Between samples the filter is
linear too, so the Monte Carlo engine runs each interval as one
precomputed affine map per scenario, while `run_replica` walks the
substeps and serves as its oracle.  Measurements are Brownian
increments: every sensor channel owns an independent noise lane that is
drawn on every substep regardless of which scenario is active, so the
switching path and the noise draws never interact (changing one seed
leaves the other stream untouched).  Replica streams derive from the
master seed through a splitmix64 hash of the replica index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import observer as _observer
from . import shs as _shs

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x):
    """One round of the splitmix64 mix function (public domain constants)."""
    x = (x + _GOLDEN) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def derive_seed(master, *indices):
    """Deterministic child seed: fold each index through splitmix64."""
    s = int(master) & _M64
    for ix in indices:
        s = splitmix64(s ^ ((int(ix) * _GOLDEN) & _M64))
    return s


# stream tags for the two independent random sources
_SWITCH_TAG = 0x5157
_NOISE_TAG = 0x4E5A


@dataclass
class SimConfig:
    K: int                        # number of sampling intervals
    replicas: int = 1
    seed: int = 0
    x0: np.ndarray = None         # true initial deviation (defaults to 0)
    e0: np.ndarray = None         # initial estimation error (xhat0 = x0 + e0)
    xhat0: np.ndarray = None      # overrides e0 when given
    switch_seed: int = None       # optional explicit stream roots
    noise_seed: int = None

    def __post_init__(self):
        if self.K < 1 or self.replicas < 1:
            raise ValueError("K and replicas must be >= 1")

    def roots(self):
        sw = (derive_seed(self.seed, _SWITCH_TAG)
              if self.switch_seed is None else int(self.switch_seed))
        nz = (derive_seed(self.seed, _NOISE_TAG)
              if self.noise_seed is None else int(self.noise_seed))
        return sw, nz

    def initial_states(self, n):
        x0 = np.zeros(n) if self.x0 is None else np.asarray(self.x0, dtype=float)
        if self.xhat0 is not None:
            xh = np.asarray(self.xhat0, dtype=float)
        elif self.e0 is not None:
            xh = x0 + np.asarray(self.e0, dtype=float)
        else:
            xh = x0.copy()
        if x0.shape != (n,) or xh.shape != (n,):
            raise ValueError(f"initial states must have dimension {n}")
        return x0, xh


def _sigma_lanes(scenario):
    """Active lane positions and their diagonal noise intensities."""
    lanes = np.array(scenario.up_channels, dtype=int)
    sig = np.diag(scenario.sigma) if scenario.sigma.size else np.zeros(0)
    return lanes, sig


def simulate_truth(A, x0, K, tau, n_sub, alphas, scenario_set, noise_seed):
    """Exact state path plus per-interval measurement increments.

    Returns (states, increments): states has shape (K*n_sub + 1, n) at
    substep resolution, increments is a list of K arrays shaped
    (n_sub, r_alpha_k).  Each increment is C x dt plus sigma dW over one
    substep, with dW drawn from the channel's dedicated lane.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    from .numerics import matrix_exponential
    h = tau / n_sub
    Eh = matrix_exponential(A, h)
    rng = np.random.default_rng(noise_seed)
    n_ch = len(scenario_set.channels)
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((K * n_sub + 1, n))
    states[0] = x
    increments = []
    sqh = np.sqrt(h)
    for k in range(K):
        s = scenario_set.by_index(int(alphas[k]))
        lanes, sig = _sigma_lanes(s)
        xi = rng.standard_normal((n_sub, n_ch)) if n_ch else np.zeros((n_sub, 0))
        dy = np.empty((n_sub, s.r))
        for j in range(n_sub):
            if s.r:
                dy[j] = (s.C @ x) * h + sig * sqh * xi[j, lanes]
            x = Eh @ x
            states[k * n_sub + j + 1] = x
        increments.append(dy)
    return states, increments


def run_replica(A, obs, scenario_set, cfg, replica_index=0):
    """Single-replica reference path: truth, filtering, error recording.

    Returns (eps, err_sq, alphas) with eps shaped (K+1, n).  This is the
    plain substep engine, kept as the oracle for monte_carlo: the two share
    switching paths and lane draws, and their errors agree to about 1e-13
    relative (summation order differs).
    """
    n = obs.n
    n_sub = obs.n_sub
    sw_root, nz_root = cfg.roots()
    alphas = _shs.sample_skeleton(scenario_set, cfg.K,
                                  derive_seed(sw_root, replica_index))
    x0, xhat = cfg.initial_states(n)
    states, increments = simulate_truth(
        A, x0, cfg.K, obs.tau, n_sub, alphas, scenario_set,
        derive_seed(nz_root, replica_index))
    eps = np.empty((cfg.K + 1, n))
    eps[0] = xhat - x0
    for k in range(cfg.K):
        xhat = _observer.step_estimate(obs, xhat, int(alphas[k]), increments[k])
        eps[k + 1] = xhat - states[(k + 1) * n_sub]
    return eps, np.sum(eps * eps, axis=1), alphas


@dataclass
class ErrorTrajectory:
    tau: float
    mean_err_sq: np.ndarray       # (K+1,) mean over replicas of ||eps_k||^2
    per_state_mean_sq: np.ndarray  # (K+1, n)
    var_err_sq: np.ndarray        # (K+1,) sample variance across replicas
    paths: np.ndarray             # (R, K) switching logs
    err_sq: np.ndarray = None     # (R, K+1) per-replica squared errors
    replicas: int = 1
    seed: int = 0
    seeds: dict = field(default_factory=dict)

    @property
    def times(self):
        return np.arange(self.mean_err_sq.size) * self.tau

    def time_to_fraction(self, fraction=0.01):
        """First interval where the mean squared error drops below
        fraction * initial; returns K+1 if it never does."""
        target = fraction * self.mean_err_sq[0]
        below = np.flatnonzero(self.mean_err_sq <= target)
        return int(below[0]) if below.size else self.mean_err_sq.size


# lane draws buffered at once across all replicas, in bytes
_DRAW_BLOCK_BYTES = 1 << 20


def interval_maps(A, obs, scenario_set):
    """One-interval maps of the implemented filter, per scenario, in row form.

    Between samples the truth and the exponential-Euler filter of
    `observer.step_estimate` are both linear, so for row vectors one
    interval of scenario a is

        x' = x E,    xhat' = xhat P_a + x Qx_a + xi N_a,

    where xi is the interval's (n_sub, n_ch) block of lane draws flattened
    substep-major.  Each map comes from running the substep recursion once
    on basis vectors, so it is that filter up to summation order; the rows
    of N_a for lanes scenario a leaves down are zero.  The no-sensor
    scenario maps to P = e^(A tau)^T, Qx = 0, N = 0.

    Returns (E, maps): E is the n x n row-form truth map (the n_sub
    substep propagators applied in turn) and maps[a] stacks [P_a; Qx_a; N_a],
    shaped (2n + n_sub n_ch) x n.
    """
    from .numerics import matrix_exponential
    n = obs.n
    n_sub = obs.n_sub
    h = obs.tau / n_sub
    sqh = np.sqrt(h)
    n_ch = len(scenario_set.channels)
    Eh_T = matrix_exponential(A, h).T
    # truth at the start of each substep, from unit initial states
    xs = np.empty((n_sub, n, n))
    E = np.eye(n)
    for j in range(n_sub):
        xs[j] = E
        E = E @ Eh_T
    # basis inputs: n estimate rows, n truth rows, n_sub * n_ch draw rows
    n_in = 2 * n + n_sub * n_ch
    maps = {}
    for s in scenario_set:
        d = obs.decomps[s.index]
        if d.n_i == 0 or d.L is None:
            maps[s.index] = np.zeros((n_in, n))
            maps[s.index][:n] = obs.exp_A_tau.T
            continue
        lanes, sig = _sigma_lanes(s)
        dy = np.zeros((n_in, n_sub, s.r))
        dy[n:2 * n] = np.einsum("jbn,cn->bjc", xs, s.C) * h
        for pos, lane in enumerate(lanes):
            draw_rows = 2 * n + np.arange(n_sub) * n_ch + lane
            dy[draw_rows, np.arange(n_sub), pos] = sig[pos] * sqh
        kdim = n - d.n_i
        E_T = obs.exp_mix_h[s.index].T
        gain_T = np.zeros((s.r, n))
        gain_T[:, kdim:] = d.L.T
        C2_T = d.C2.T
        Z = np.zeros((n_in, n))
        Z[:n] = np.hstack([d.G.T, d.F.T])
        for j in range(n_sub):
            innov = dy[:, j, :] - (Z[:, kdim:] @ C2_T) * h
            Z = Z @ E_T + innov @ gain_T
        maps[s.index] = Z @ d.T.T
    return E, maps


def monte_carlo(A, obs, scenario_set, cfg):
    """Monte Carlo over independent replicas, advanced in lockstep.

    Each interval is one affine map per active scenario (`interval_maps`)
    applied to that scenario's replicas.  Replica streams depend only on
    (master seed, replica index), so each replica follows the substep
    engine `run_replica` for its index: the same switching path and the
    same lane draws, with errors equal up to summation order (about 1e-13
    relative).  Aggregation runs in replica order.
    """
    n = obs.n
    R = cfg.replicas
    K = cfg.K
    n_sub = obs.n_sub
    E, maps = interval_maps(A, obs, scenario_set)
    sw_root, nz_root = cfg.roots()
    alphas = np.empty((R, K), dtype=int)
    noise_rngs = []
    for r in range(R):
        alphas[r] = _shs.sample_skeleton(scenario_set, K, derive_seed(sw_root, r))
        noise_rngs.append(np.random.default_rng(derive_seed(nz_root, r)))
    m = n_sub * len(scenario_set.channels)
    x0, xhat0 = cfg.initial_states(n)
    # row r holds replica r's [xhat | x | lane draws] for the current interval
    S = np.empty((R, 2 * n + m))
    S[:, :n] = xhat0
    S[:, n:2 * n] = x0
    Xh = np.empty((R, n))
    eps = np.empty((R, K + 1, n))
    eps[:, 0] = S[:, :n] - S[:, n:2 * n]
    # each replica draws its lanes for kc intervals in one call; the stream
    # is the same as kc calls of one interval each (8 bytes per draw)
    kc = max(1, min(K, _DRAW_BLOCK_BYTES // (8 * R * max(m, 1))))
    draws = np.empty((R, kc, m))
    for k in range(K):
        b = k % kc
        if b == 0 and m:
            for r in range(R):
                noise_rngs[r].standard_normal(out=draws[r, :min(kc, K - k)])
        S[:, 2 * n:] = draws[:, b]
        col = alphas[:, k]
        for idx in np.unique(col):
            rows = np.flatnonzero(col == idx)
            Xh[rows] = S[rows] @ maps[idx]
        S[:, n:2 * n] = S[:, n:2 * n] @ E
        S[:, :n] = Xh
        eps[:, k + 1] = Xh - S[:, n:2 * n]
    err_sq = np.sum(eps * eps, axis=2)          # (R, K+1)
    mean_err_sq = err_sq.mean(axis=0)
    per_state = (eps * eps).mean(axis=0)
    var = err_sq.var(axis=0, ddof=1) if cfg.replicas > 1 else np.zeros(cfg.K + 1)
    return ErrorTrajectory(
        tau=obs.tau, mean_err_sq=mean_err_sq, per_state_mean_sq=per_state,
        var_err_sq=var, paths=alphas, err_sq=err_sq,
        replicas=cfg.replicas, seed=cfg.seed,
        seeds={"switch_root": sw_root, "noise_root": nz_root,
               "mix": "splitmix64(root xor replica*golden)"})
