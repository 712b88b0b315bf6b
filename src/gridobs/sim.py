"""Ground-truth simulation and Monte Carlo harness.

The true deviation state is linear and autonomous, so it propagates
exactly by one-substep matrix exponentials.  Measurements are Brownian
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
    plain (unbatched) engine; monte_carlo uses a vectorised equivalent and
    is tested to reproduce it exactly.
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


def monte_carlo(A, obs, scenario_set, cfg):
    """Monte Carlo over independent replicas, advanced in lockstep.

    Replica streams depend only on (master seed, replica index), so each
    replica matches the plain engine `run_replica` for its index up to the
    summation order of the batched products.  Aggregation runs in replica
    order.
    """
    from .numerics import matrix_exponential
    n = obs.n
    R = cfg.replicas
    K = cfg.K
    n_sub = obs.n_sub
    tau = obs.tau
    h = tau / n_sub
    sqh = np.sqrt(h)
    Eh_T = matrix_exponential(A, h).T
    sw_root, nz_root = cfg.roots()
    alphas = np.empty((R, K), dtype=int)
    noise_rngs = []
    for r in range(R):
        alphas[r] = _shs.sample_skeleton(scenario_set, K, derive_seed(sw_root, r))
        noise_rngs.append(np.random.default_rng(derive_seed(nz_root, r)))
    n_ch = len(scenario_set.channels)
    x0, xhat0 = cfg.initial_states(n)
    X = np.tile(x0, (R, 1))
    Xh = np.tile(xhat0, (R, 1))
    eps = np.empty((R, K + 1, n))
    eps[:, 0] = Xh - X
    scen = {s.index: s for s in scenario_set}
    pre = {}
    for s in scenario_set:
        d = obs.decomps[s.index]
        lanes, sig = _sigma_lanes(s)
        pre[s.index] = (d, lanes, sig)
    for k in range(K):
        xi = np.empty((R, n_sub, n_ch)) if n_ch else np.zeros((R, n_sub, 0))
        for row in range(R):
            xi[row] = noise_rngs[row].standard_normal((n_sub, n_ch))
        # truth path at substep resolution, shared A across replicas
        xs = np.empty((n_sub, R, n))
        xcur = X
        for j in range(n_sub):
            xs[j] = xcur
            xcur = xcur @ Eh_T
        Xnew = xcur
        for idx in np.unique(alphas[:, k]):
            rows = np.flatnonzero(alphas[:, k] == idx)
            s = scen[idx]
            d, lanes, sig = pre[idx]
            if d.n_i == 0 or d.L is None:
                Xh[rows] = Xh[rows] @ obs.exp_A_tau.T
                continue
            # measurement increments for this group
            dy = np.einsum("jrn,cn->rjc", xs[:, rows, :], s.C) * h
            dy += sig * sqh * xi[rows][:, :, lanes]
            kdim = n - d.n_i
            E_T = obs.exp_mix_h[idx].T
            gain_T = np.zeros((s.r, n))
            gain_T[:, kdim:] = d.L.T
            Z = np.hstack([Xh[rows] @ d.G.T, Xh[rows] @ d.F.T])
            C2_T = d.C2.T
            for j in range(n_sub):
                innov = dy[:, j, :] - (Z[:, kdim:] @ C2_T) * h
                Z = Z @ E_T + innov @ gain_T
            Xh[rows] = Z @ d.T.T
        X = Xnew
        eps[:, k + 1] = Xh - X
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
