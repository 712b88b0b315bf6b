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

    def __post_init__(self):
        for name in ("K", "replicas"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def roots(self):
        return derive_seed(self.seed, _SWITCH_TAG), derive_seed(self.seed, _NOISE_TAG)

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


def simulate_truth(A, x0, K, tau, n_sub, alphas, scenario_set, seed):
    """Exact state path plus per-interval measurement increments.

    Returns (states, increments): states has shape (K*n_sub + 1, n) at
    substep resolution, increments is a list of K arrays shaped
    (n_sub, r_alpha_k).  Each increment is C x dt plus sigma dW over one
    substep, with dW drawn from the channel's lane of the noise stream `seed`.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    from .numerics import matrix_exponential
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
    seeds: dict = field(default_factory=dict)

    def time_to_fraction(self, fraction=0.01):
        """First interval where the mean squared error drops below
        fraction * initial; returns K+1 if it never does."""
        target = fraction * self.mean_err_sq[0]
        below = np.flatnonzero(self.mean_err_sq <= target)
        return int(below[0]) if below.size else self.mean_err_sq.size


# bytes of lane draws held at once; a block holds whole replica horizons,
# or chunks of one horizon when a single horizon is larger than this
_DRAW_BLOCK_BYTES = 1 << 20


def interval_maps(A, obs, scenario_set):
    """One-interval maps of the implemented filter, per scenario, in row form.

    Between samples the truth and the exponential-Euler filter of
    `observer.step_estimate` are both linear, so for row vectors one
    interval of scenario a is

        x' = x E,    xhat' = xhat P_a + x Qx_a + xi N_a,

    where xi is the interval's (n_sub, n_ch) block of lane draws flattened
    substep-major.  In the scenario's T coordinates one filter substep is
    z' = z Phi_a + dy_j gain_T with the closed-loop substep matrix
    Phi_a = E_a^T - h [0; C2^T] gain_T, so with R_j = gain_T Phi_a^(n_sub-1-j) T^T

        P_a = [G^T F^T] Phi_a^n_sub T^T,
        Qx_a = h sum_j Eh^(j T) C^T R_j,
        N_a[(j, lane)] = sigma_lane sqrt(h) R_j[lane's position],

    and the rows of N_a for lanes scenario a leaves down are zero.  The
    no-sensor scenario maps to P = e^(A tau)^T, Qx = 0, N = 0.

    Returns (E, maps): E is the n x n row-form truth map (the n_sub
    substep propagators applied in turn) and maps[a] stacks [P_a; Qx_a; N_a],
    shaped (2n + n_sub n_ch) x n.
    """
    from .numerics import matrix_exponential
    n = obs.n
    n_sub = obs.n_sub
    h = obs.tau / n_sub
    n_ch = len(scenario_set.channels)
    Eh_T = matrix_exponential(A, h).T
    # truth at the start of each substep, from unit initial states
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
        lanes, sig = _sigma_lanes(s)
        kdim = n - d.n_i
        gain_T = np.zeros((s.r, n))
        gain_T[:, kdim:] = d.L.T
        Phi = obs.exp_mix_h[s.index].T.copy()
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


def monte_carlo(A, obs, scenario_set, cfg):
    """Monte Carlo over independent replicas.

    The switching paths are sampled first.  Each replica then draws its
    lanes for the whole horizon in one call, several replicas to a buffer
    of `_DRAW_BLOCK_BYTES` (a horizon larger than that is drawn in chunks,
    which leaves the stream unchanged), and each interval's draws are
    projected once through its scenario's noise map, w = xi N_a.  The
    projected noise waits in the error array until the interval loop,
    which only advances the estimates: xhat' = xhat P_a + x Qx_a + w, with
    the truth x_k = x0 E^k shared by every replica.  Replica streams depend
    only on (master seed, replica index), so each replica follows the
    substep engine `run_replica` for its index: the same switching path
    and the same lane draws, with errors equal up to summation order
    (about 1e-13 relative).  Aggregation runs in replica order.
    """
    n = obs.n
    R = cfg.replicas
    K = cfg.K
    E, maps = interval_maps(A, obs, scenario_set)
    sw_root, nz_root = cfg.roots()
    alphas = np.empty((R, K), dtype=int)
    for r in range(R):
        alphas[r] = _shs.sample_skeleton(scenario_set, K, derive_seed(sw_root, r))
    order = np.array(sorted(maps))
    slot = np.searchsorted(order, alphas)              # (R, K) map positions
    P = np.stack([maps[i][:n] for i in order])
    Qx = np.stack([maps[i][n:2 * n] for i in order])
    N = [maps[i][2 * n:] for i in order]
    m = N[0].shape[0]
    x0, xhat0 = cfg.initial_states(n)
    x = np.empty((K + 1, n))
    x[0] = x0
    for k in range(K):
        x[k + 1] = x[k] @ E
    drive = np.einsum("ki,aij->kaj", x[:K], Qx)        # (K, S, n): x_k Qx_a
    eps = np.empty((R, K + 1, n))
    eps[:, 0] = xhat0 - x0
    w = eps[:, 1:]                  # projected noise until overwritten by errors
    # intervals per buffer; a block is rb whole horizons or a kc-interval chunk
    per = max(1, _DRAW_BLOCK_BYTES // (8 * m))
    kc = min(K, per)
    rb = max(1, per // K)
    buf = np.empty(rb * kc * m)
    for r0 in range(0, R, rb):
        r1 = min(R, r0 + rb)
        rngs = [np.random.default_rng(derive_seed(nz_root, r)) for r in range(r0, r1)]
        for k0 in range(0, K, kc):
            k1 = min(K, k0 + kc)
            xi = buf[:(r1 - r0) * (k1 - k0) * m].reshape(r1 - r0, k1 - k0, m)
            for rng, row in zip(rngs, xi):
                rng.standard_normal(out=row)
            # project the block's rows grouped by scenario, one product per group
            xi = xi.reshape(-1, m)
            col = slot[r0:r1, k0:k1].ravel()
            proj = drive[np.tile(np.arange(k0, k1), r1 - r0), col]
            for a in np.unique(col):
                rows = np.flatnonzero(col == a)
                if 2 * rows.size >= col.size:
                    # a majority group: the product over the whole block costs
                    # less than copying its rows out
                    proj[rows] += (xi @ N[a])[rows]
                else:
                    proj[rows] += xi[rows] @ N[a]
            w[r0:r1, k0:k1] = proj.reshape(r1 - r0, k1 - k0, n)
    xhat = np.tile(xhat0, (R, 1))
    for k in range(K):
        xhat = np.einsum("ri,rij->rj", xhat, P[slot[:, k]]) + w[:, k]
        np.subtract(xhat, x[k + 1], out=eps[:, k + 1])
    sq = np.square(eps, out=eps)
    err_sq = sq.sum(axis=2)                    # (R, K+1)
    mean_err_sq = err_sq.mean(axis=0)
    per_state = sq.mean(axis=0)
    var = err_sq.var(axis=0, ddof=1) if R > 1 else np.zeros(K + 1)
    return ErrorTrajectory(
        tau=obs.tau, mean_err_sq=mean_err_sq, per_state_mean_sq=per_state,
        var_err_sq=var, paths=alphas, err_sq=err_sq, replicas=cfg.replicas,
        seeds={"switch_root": sw_root, "noise_root": nz_root,
               "mix": "splitmix64(root xor replica*golden)"})
