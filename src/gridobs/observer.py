"""Coordinated observer: per-scenario observability split, gains, assembly.

For each sensing scenario the state space splits into an observable
sub-state and its unobservable complement via the kernel of the scenario's
observability matrix.  A fixed-gain filter runs on the observable part of
whichever scenario is active during a sampling interval; the complement
rides along open loop through the model, and the interval ends by mapping
the transformed estimate back to state coordinates.  The per-scenario
one-interval error maps realised by that procedure drive all convergence
and variance analysis downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import operator_norm


class ObserverError(Exception):
    pass


@dataclass
class SubsystemDecomposition:
    index: int
    n_i: int
    M: np.ndarray                 # kernel base, n x (n - n_i)
    T: np.ndarray
    G: np.ndarray                 # top rows of T^-1
    F: np.ndarray                 # bottom rows of T^-1
    A11: np.ndarray
    A12: np.ndarray
    A22: np.ndarray
    C2: np.ndarray
    L: np.ndarray = None          # set by design_gains
    Ac: np.ndarray = None

    @property
    def needs_gain(self):
        return self.n_i > 0 and self.C2.shape[0] > 0


def _identity_completion(M):
    """Standard-basis completion: skip one row per kernel column pivot."""
    n, k = M.shape
    taken = set()
    for j in range(k):
        nz = np.flatnonzero(np.abs(M[:, j]) > 1e-12)
        for row in nz:
            if row not in taken:
                taken.add(int(row))
                break
    cols = [i for i in range(n) if i not in taken]
    N = np.zeros((n, n - k))
    for j, i in enumerate(cols):
        N[i, j] = 1.0
    return N


def decompose(A, scenario, completion="orthonormal"):
    """Observability decomposition of one scenario (gain left unset).

    completion = "orthonormal" takes the orthogonal complement of the
    kernel, so T is orthogonal and perfectly conditioned.  completion =
    "paper_identity" completes with standard basis columns (and flips the
    kernel sign so its first nonzero entry is negative), which reproduces
    handbook-style printed transforms exactly.
    """
    if completion not in ("orthonormal", "paper_identity"):
        raise ObserverError(f"unknown completion mode {completion!r}")
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    C = np.asarray(scenario.C, dtype=float).reshape(-1, n)
    if C.shape[0] == 0:
        return SubsystemDecomposition(
            scenario.index, 0, np.eye(n), np.eye(n), np.eye(n), np.zeros((0, n)),
            A.copy(), np.zeros((n, 0)), np.zeros((0, 0)), np.zeros((0, 0)))
    W = numerics.observability_stack(C, A)
    M = numerics.kernel_base(W)
    n_i = n - M.shape[1]
    if n_i == n:
        # fully observable: skip the transform entirely
        return SubsystemDecomposition(
            scenario.index, n, np.zeros((n, 0)), np.eye(n), np.zeros((0, n)),
            np.eye(n), np.zeros((0, 0)), np.zeros((0, n)), A.copy(), C.copy())
    if completion == "orthonormal":
        # kernel_base returns orthonormal columns; complete orthogonally
        _, _, Vt = np.linalg.svd(W)
        N = Vt[:n_i].T
        T = np.hstack([M, N])
        Tinv = T.T
    else:
        M = M.copy()
        for j in range(M.shape[1]):
            nz = np.flatnonzero(np.abs(M[:, j]) > 1e-12)
            if nz.size and M[nz[0], j] > 0:
                M[:, j] = -M[:, j]
        N = _identity_completion(M)
        T = np.hstack([M, N])
        Tinv = np.linalg.inv(T)
    if operator_norm(Tinv @ T - np.eye(n)) > 1e-10:
        raise ObserverError("transformation inverse check failed")
    G = Tinv[: n - n_i]
    F = Tinv[n - n_i:]
    At = Tinv @ A @ T
    A11 = At[: n - n_i, : n - n_i]
    A12 = At[: n - n_i, n - n_i:]
    A22 = At[n - n_i:, n - n_i:]
    lower = At[n - n_i:, : n - n_i]
    if operator_norm(lower) > 1e-8 * max(operator_norm(A), 1.0):
        raise ObserverError("decomposition lost the block-triangular structure")
    Ct = C @ T
    if operator_norm(Ct[:, : n - n_i]) > 1e-8 * max(operator_norm(C), 1.0):
        raise ObserverError("output matrix keeps weight on the unobservable part")
    C2 = Ct[:, n - n_i:]
    return SubsystemDecomposition(scenario.index, n_i, M, T, G, F,
                                  A11, A12, A22, C2)


def design_gains(decomps, poles):
    """Place the filter poles for every scenario that admits a gain.

    `poles` is either a mapping scenario index -> pole list of length n_i,
    or a single list.  A single list longer than some scenario's n_i is
    truncated to its first n_i entries (the standard shortcut when one
    pole set is quoted for every scenario); the truncation is recorded on
    the returned report.
    """
    truncated = {}
    for d in decomps.values():
        if not d.needs_gain:
            d.L = None
            d.Ac = None
            continue
        if isinstance(poles, dict):
            want = poles[d.index]
        else:
            want = list(poles)
        if len(want) > d.n_i:
            truncated[d.index] = (len(want), d.n_i)
            want = want[: d.n_i]
        if len(want) != d.n_i:
            raise ObserverError(
                f"scenario {d.index}: need {d.n_i} poles, got {len(want)}")
        d.L = numerics.place_poles(d.A22, d.C2, want)
        d.Ac = d.A22 - d.L @ d.C2
        if np.max(np.linalg.eigvals(d.Ac).real) >= 0:
            raise ObserverError(f"scenario {d.index}: closed-loop poles not in the left half-plane")
    return truncated


@dataclass
class CoordinatedObserver:
    A: np.ndarray
    tau: float
    decomps: dict                 # scenario index -> SubsystemDecomposition
    F: np.ndarray                 # stacked F_i blocks, n_s x n
    Phi: np.ndarray               # (F^T F)^-1 F^T, n x n_s
    Lam: dict                     # scenario index -> realised n x n error map
    Q: dict                       # scenario index -> root of the interval noise covariance
    exp_Ac_tau: dict              # scenario index -> filter-block map over tau
    exp_A_tau: np.ndarray
    block_slices: dict = field(default_factory=dict)
    pole_truncations: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_s(self):
        return self.F.shape[0]


def _mix(d):
    """Closed-loop error generator [[A11, A12], [0, Ac]] in T coordinates."""
    k = d.A11.shape[0]
    n = k + d.n_i
    mix = np.zeros((n, n))
    mix[:k, :k] = d.A11
    mix[:k, k:] = d.A12
    if d.n_i:
        mix[k:, k:] = d.Ac
    return mix


def build(A, scenario_set, decomps, tau):
    """Assemble the coordinated observer for a designed decomposition set.

    Produces the realised one-interval error maps in state coordinates:
    the active scenario's filter block closes the loop on its observable
    sub-state while the complement (and, for the no-sensor scenario, the
    whole state) propagates through the model.  Noise factors are matrix
    square roots of the per-interval error covariance lifted back to state
    coordinates.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if not numerics.is_finite_real(tau) or tau <= 0:
        raise ObserverError(f"tau must be a finite real number > 0, got {tau!r}")
    tau = float(tau)
    for d in decomps.values():
        if d.needs_gain and d.Ac is None:
            raise ObserverError(f"scenario {d.index}: gain not designed yet")
    blocks = []
    slices = {}
    row = 0
    for s in scenario_set:
        d = decomps[s.index]
        if d.n_i:
            blocks.append(d.F)
            slices[s.index] = slice(row, row + d.n_i)
            row += d.n_i
    F = np.vstack(blocks) if blocks else np.zeros((0, n))
    rank = np.linalg.matrix_rank(F, numerics.RANK_TOL * operator_norm(F))
    if rank < n:
        raise ObserverError(
            f"combined observability rank {rank} < {n}; "
            "no convergent coordinated observer exists for this scenario set")
    Phi = np.linalg.solve(F.T @ F, F.T)
    if operator_norm(Phi @ F - np.eye(n)) > 1e-10:
        raise ObserverError("reconstruction map is not a left inverse")
    exp_A_tau = numerics.matrix_exponential(A, tau)
    Lam, Q, exp_Ac = {}, {}, {}
    for s in scenario_set:
        d = decomps[s.index]
        if d.n_i == 0:
            Lam[s.index] = exp_A_tau.copy()
            Q[s.index] = np.zeros((n, n))
            exp_Ac[s.index] = np.zeros((0, 0))
            continue
        mix = _mix(d)
        E = numerics.matrix_exponential(mix, tau)
        Tinv = np.vstack([d.G, d.F])
        Lam[s.index] = d.T @ E @ Tinv
        k = n - d.n_i
        exp_Ac[s.index] = E[k:, k:]
        if d.L is not None and s.sigma.size:
            Nf = np.zeros((n, s.r))
            Nf[k:, :] = d.L @ s.sigma
            Vmix = numerics.noise_gramian(mix, Nf, tau)
            Vs = d.T @ Vmix @ d.T.T
        else:
            Vs = np.zeros((n, n))
        Q[s.index] = numerics.psd_sqrt(0.5 * (Vs + Vs.T))
    return CoordinatedObserver(
        A=A, tau=tau, decomps=decomps, F=F, Phi=Phi, Lam=Lam, Q=Q,
        exp_Ac_tau=exp_Ac, exp_A_tau=exp_A_tau, block_slices=slices)


def design(A, scenario_set, poles, tau, completion="orthonormal"):
    """decompose + design_gains + build in one call.

    Combined observability is decided once, by build's rank check on the
    stacked sub-state maps.
    """
    decomps = {s.index: decompose(A, s, completion) for s in scenario_set}
    truncated = design_gains(decomps, poles)
    obs = build(A, scenario_set, decomps, tau)
    obs.pole_truncations = truncated
    return obs
