"""Coordinated observer: per-scenario observability split, gains, assembly.

For each sensing scenario the state space splits into an observable
sub-state and its unobservable complement via the kernel of the scenario's
observability matrix, T = [M, N] with M the kernel base.  A fixed-gain
filter runs on the observable part of whichever scenario is active during
a sampling interval, and the complement rides along open loop through the
model.  In state coordinates that is one switched Luenberger observer: the
filter gain L_a of scenario a acts through K_a = N_a L_a, and the error
follows the closed-loop generator A - K_a C_a while a is active.  The
per-scenario one-interval error maps of that observer, stacked into one
switched law per design (`SwitchedLaw`), drive all convergence and
variance analysis downstream.
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
    T: np.ndarray                 # [M, N], N the n_i observable columns
    F: np.ndarray                 # bottom n_i rows of T^-1: the observable sub-state map
    A22: np.ndarray               # observable block of T^-1 A T, n_i x n_i
    C2: np.ndarray                # C N, the output on the observable sub-state
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
            scenario.index, 0, np.eye(n), np.eye(n), np.zeros((0, n)),
            np.zeros((0, 0)), np.zeros((0, 0)))
    W = numerics.observability_stack(C, A)
    M = numerics.kernel_base(W)
    n_i = n - M.shape[1]
    if n_i == n:
        # fully observable: skip the transform entirely
        return SubsystemDecomposition(
            scenario.index, n, np.zeros((n, 0)), np.eye(n), np.eye(n), A.copy(), C.copy())
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
    At = Tinv @ A @ T
    A22 = At[n - n_i:, n - n_i:]
    lower = At[n - n_i:, : n - n_i]
    if operator_norm(lower) > 1e-8 * max(operator_norm(A), 1.0):
        raise ObserverError("decomposition lost the block-triangular structure")
    Ct = C @ T
    if operator_norm(Ct[:, : n - n_i]) > 1e-8 * max(operator_norm(C), 1.0):
        raise ObserverError("output matrix keeps weight on the unobservable part")
    C2 = Ct[:, n - n_i:]
    return SubsystemDecomposition(scenario.index, n_i, M, T, Tinv[n - n_i:], A22, C2)


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


class SwitchedLaw:
    """The interval law e' = Lam_a e + Q_a xi of one design, with a the
    active scenario and xi standard normal.

    Built from the maps of each scenario index, it lays them out side by
    side from the smallest index `lo` up: slot a - lo of `Lam` and of `Q`,
    each (S, n, n), holds scenario a's maps, and a gap in the indices
    holds zeros.  `stack`, (2n, S n), holds [Lam_a^T; Q_a^T] as column
    block a - lo, the operand of the Monte Carlo's interval product.  All
    three are read-only.  A scenario set over the same indices supplies
    only the weights p (`weights`), and with them the law gives the
    second-moment operator T(W) = sum_j p_j Lam_j W Lam_j^T, the mean
    interval noise covariance Psi = sum_j p_j Q_j Q_j^T and the bound
    matrix M = sum_j p_j Lam_j^T Lam_j, each one batched product.
    """

    def __init__(self, Lam, Q):
        if not Lam or Lam.keys() != Q.keys():
            raise ValueError("Lam and Q need the same nonempty set of scenario indices")
        self.indices = tuple(sorted(Lam))
        self.lo = self.indices[0]
        self.Lam = self.layout(Lam)
        self.Q = self.layout(Q)
        # C order, as the Monte Carlo's gemm is fastest on it; the reshape
        # alone would give a Fortran-ordered view
        self.stack = np.ascontiguousarray(np.concatenate([self.Lam, self.Q], axis=2)
                                          .transpose(2, 0, 1).reshape(2 * self.Lam.shape[2], -1))
        for a in (self.Lam, self.Q, self.stack):
            a.flags.writeable = False

    def layout(self, values):
        """The values of a {scenario index: value} mapping over the law's
        slots, index a at slot a - lo, zeros in the gaps."""
        shape = np.shape(next(iter(values.values())))
        out = np.zeros((self.indices[-1] - self.lo + 1, *shape))
        for a, v in values.items():
            out[a - self.lo] = v
        return out

    def weights(self, scenario_set):
        """The scenario probabilities p over the law's slots.  The set must
        have exactly the law's indices; otherwise a ValueError names the
        indices that differ."""
        p = {s.index: s.probability for s in scenario_set}
        if p.keys() != set(self.indices):
            raise ValueError(f"the scenario set's indices differ from the design's: it adds "
                             f"{sorted(p.keys() - set(self.indices))} and lacks "
                             f"{sorted(set(self.indices) - p.keys())}")
        return self.layout(p)

    def by_index(self, values):
        """{scenario index: value} of values over the law's slots, the
        inverse of `layout`."""
        return {a: values[a - self.lo] for a in self.indices}

    def second_moment(self, W, p):
        """T(W) = sum_j p_j Lam_j W Lam_j^T."""
        return numerics.second_moment(self.Lam, p, W)

    def noise_covariance(self, p):
        """Psi = sum_j p_j Q_j Q_j^T, the mean covariance of the interval
        noise w = Q_a xi, made exactly symmetric."""
        Psi = np.tensordot(p, self.Q @ self.Q.transpose(0, 2, 1), 1)
        return 0.5 * (Psi + Psi.T)

    def second_moment_matrix(self, p):
        """M = sum_j p_j Lam_j^T Lam_j."""
        return np.tensordot(p, self.Lam.transpose(0, 2, 1) @ self.Lam, 1)


@dataclass
class CoordinatedObserver:
    A: np.ndarray
    tau: float
    decomps: dict                 # scenario index -> SubsystemDecomposition
    F: np.ndarray                 # stacked F_i blocks, n_s x n
    Phi: np.ndarray               # (F^T F)^-1 F^T, n x n_s
    law: SwitchedLaw              # realised interval maps and noise roots
    filter_norms: np.ndarray      # ||exp(Ac_a tau)|| over the law's slots, 0 without a filter
    F_slots: np.ndarray           # the law's slot of the scenario owning each row of F
    exp_A_tau: np.ndarray
    pole_truncations: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_s(self):
        return self.F.shape[0]


def reconstruction(scenario_set, decomps, n):
    """The stacked sub-state maps F of the scenarios with an observable
    part, its left inverse Phi = (F^T F)^-1 F^T, and the index of the
    scenario owning each row of F.

    Refuses a stack of rank below n, for which no convergent coordinated
    observer exists, and a Phi that fails as a left inverse.
    """
    subs = [decomps[s.index] for s in scenario_set if decomps[s.index].n_i]
    F = np.vstack([d.F for d in subs]) if subs else np.zeros((0, n))
    rank = np.linalg.matrix_rank(F, numerics.RANK_TOL * operator_norm(F))
    if rank < n:
        raise ObserverError(
            f"combined observability rank {rank} < {n}; "
            "no convergent coordinated observer exists for this scenario set")
    Phi = np.linalg.solve(F.T @ F, F.T)
    if operator_norm(Phi @ F - np.eye(n)) > 1e-10:
        raise ObserverError("reconstruction map is not a left inverse")
    return F, Phi, np.repeat([d.index for d in subs], [d.n_i for d in subs])


def build(A, scenario_set, decomps, tau):
    """Assemble the coordinated observer for a designed decomposition set.

    Scenario a's filter gain L_a acts in state coordinates as
    K_a = N_a L_a, N_a the observable columns of T (K_a = 0 for a blind
    scenario), so over one interval its error moves as
    e' = Lam_a e + Q_a xi with Lam_a = exp((A - K_a C_a) tau) and Q_a the
    root of the Gramian of (A - K_a C_a, K_a sigma_a) over the interval.
    These maps make up the design's `SwitchedLaw`.  In T coordinates
    A - K_a C_a is block upper triangular with the filter's
    Ac_a = A22 - L_a C2 as its lower right block, so the filter's own map
    exp(Ac_a tau) is F_a Lam_a N_a.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if not numerics.is_finite_real(tau) or tau <= 0:
        raise ObserverError(f"tau must be a finite real number > 0, got {tau!r}")
    tau = float(tau)
    for d in decomps.values():
        if d.needs_gain and d.Ac is None:
            raise ObserverError(f"scenario {d.index}: gain not designed yet")
    F, Phi, owners = reconstruction(scenario_set, decomps, n)
    exp_A_tau = numerics.matrix_exponential(A, tau)
    Lam, Q, filter_norms = {}, {}, {}
    for s in scenario_set:
        d = decomps[s.index]
        N = d.T[:, n - d.n_i:]
        K = N @ d.L if d.needs_gain else np.zeros((n, s.r))
        with np.errstate(over="ignore", invalid="ignore"):
            Ks = K @ s.sigma
        if not np.isfinite(Ks).all():
            raise ObserverError(f"scenario {s.index}: the noise levels overflow "
                                "the filter's noise input K sigma")
        Acl = A - K @ s.C
        Lam[s.index] = numerics.matrix_exponential(Acl, tau)
        filter_norms[s.index] = operator_norm(d.F @ Lam[s.index] @ N)
        Q[s.index] = numerics.psd_sqrt(numerics.noise_gramian(Acl, Ks, tau))
    law = SwitchedLaw(Lam, Q)
    return CoordinatedObserver(
        A=A, tau=tau, decomps=decomps, F=F, Phi=Phi, law=law, exp_A_tau=exp_A_tau,
        filter_norms=law.layout(filter_norms), F_slots=owners - law.lo)


def design(A, scenario_set, poles, tau, completion="orthonormal"):
    """decompose + design_gains + build in one call.

    Combined observability is decided by build, in `reconstruction`'s
    rank check on the stacked sub-state maps.
    """
    decomps = {s.index: decompose(A, s, completion) for s in scenario_set}
    truncated = design_gains(decomps, poles)
    obs = build(A, scenario_set, decomps, tau)
    obs.pole_truncations = truncated
    return obs
