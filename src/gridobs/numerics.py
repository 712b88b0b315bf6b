"""Dense linear-algebra kernels shared by the rest of the package.

Everything here works on plain numpy arrays of float64.  Inputs are
validated to be finite; rank decisions go through an SVD with a relative
cutoff so that the integer ranks of the bundled models come out exact.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.signal


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs used across the package.

    rank_tol is relative to the largest singular value of the matrix at
    hand; residual_tol is an absolute bound on defect norms.
    """

    rank_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if self.rank_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def operator_norm(M):
    """Largest singular value (spectral norm). Zero for empty matrices."""
    M = _as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def matrix_exponential(A, t=1.0):
    """exp(A*t) for a square matrix, by scaling-and-squaring Pade."""
    A = _as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix exponential needs a square matrix, got {A.shape}")
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    return scipy.linalg.expm(A * t)


def noise_gramian(Ac, N, tau):
    """Integral of exp(Ac*u) @ N @ N.T @ exp(Ac.T*u) for u in [0, tau].

    Computed with the augmented-exponential construction: exponentiate
        [[-Ac, N N^T], [0, Ac^T]] * tau
    and read the integral off the top-right block.  One matrix exponential,
    accurate to machine precision; no quadrature.
    """
    Ac = _as_matrix(Ac, "Ac")
    N = _as_matrix(N, "N")
    p = Ac.shape[0]
    if Ac.shape[0] != Ac.shape[1]:
        raise ValueError("Ac must be square")
    if N.shape[0] != p:
        raise ValueError(f"row mismatch: Ac is {p}x{p}, N has {N.shape[0]} rows")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if N.shape[1] == 0 or not np.any(N):
        return np.zeros((p, p))
    blk = np.zeros((2 * p, 2 * p))
    blk[:p, :p] = -Ac
    blk[:p, p:] = N @ N.T
    blk[p:, p:] = Ac.T
    E = scipy.linalg.expm(blk * tau)
    V = E[p:, p:].T @ E[:p, p:]
    return 0.5 * (V + V.T)


# verified gains kept by place_poles, keyed by the exact bytes of its inputs
_GAIN_MEMO_SIZE = 64
_gain_memo = OrderedDict()


def place_poles(A22, C2, desired, tol=DEFAULT_TOL):
    """Observer gain L with eig(A22 - L C2) equal to `desired`.

    Solved as state-feedback placement on the dual pair (A22^T, C2^T).
    Uses the robust eigenstructure-assignment algorithm.  Requested poles
    must be closed under conjugation and, per the design rules of this
    package, distinct.

    Gains are memoised by input content (the bytes and shapes of A22, C2
    and the requested poles; the last _GAIN_MEMO_SIZE distinct inputs), so
    a repeated design skips only the assignment algorithm: validation, the
    observability check and the pole-accuracy check run on every call, and
    every caller gets its own copy of the gain.
    """
    A22 = _as_matrix(A22, "A22")
    C2 = _as_matrix(C2, "C2")
    p = A22.shape[0]
    if A22.shape[0] != A22.shape[1]:
        raise ValueError("A22 must be square")
    if C2.shape[1] != p:
        raise ValueError("C2 column count must match A22")
    desired = np.atleast_1d(np.asarray(desired, dtype=complex))
    if len(desired) != p:
        raise ValueError(f"need exactly {p} poles, got {len(desired)}")
    if not np.allclose(np.sort_complex(desired), np.sort_complex(desired.conj())):
        raise ValueError("pole list must be closed under conjugation")
    if len(np.unique(np.round(desired, 10))) != len(desired):
        raise ValueError("repeated poles are not supported; request distinct poles")
    W = observability_stack(C2, A22)
    if np.linalg.matrix_rank(W, tol=tol.rank_tol * max(operator_norm(W), 1.0)) < p:
        raise ValueError("(C2, A22) is not observable; poles cannot be placed")
    key = (A22.shape, A22.tobytes(), C2.shape, C2.tobytes(), desired.tobytes())
    L = _gain_memo.get(key)
    if L is None:
        L = _assign_poles(A22, C2, desired)
    got = np.linalg.eigvals(A22 - L @ C2)
    if np.max(np.abs(np.sort_complex(got) - np.sort_complex(desired))) > 1e-6:
        raise ValueError("placement did not reach the requested poles")
    _gain_memo[key] = L
    _gain_memo.move_to_end(key)
    if len(_gain_memo) > _GAIN_MEMO_SIZE:
        _gain_memo.popitem(last=False)
    # order K keeps the transposed layout the assignment returns
    return L.copy(order="K")


def _assign_poles(A22, C2, desired):
    """One run of scipy's robust assignment on the dual pair, unchecked."""
    B = C2.T
    # real pole lists go in as real arrays: the assignment algorithm's
    # complex branch pairs poles up and is noticeably less accurate
    request = desired.real if np.all(desired.imag == 0) else desired
    # the default iteration budget stops well short of the achievable
    # accuracy on multi-output problems
    kwargs = {"rtol": 1e-11, "maxiter": 300} if B.shape[1] > 1 else {}
    with warnings.catch_warnings():
        # the robustness optimiser may stop on its iteration cap; pole
        # accuracy is what matters here and place_poles verifies it
        warnings.filterwarnings("ignore", message="Convergence was not")
        res = scipy.signal.place_poles(A22.T, B, request, **kwargs)
    return res.gain_matrix.T


def observability_stack(C, A):
    """Stacked [C; CA; ...; CA^(n-1)] with n = dim(A)."""
    A = _as_matrix(A, "A")
    n = A.shape[0]
    C = np.asarray(C, dtype=float).reshape(-1, n)
    rows = [C]
    for _ in range(n - 1):
        rows.append(rows[-1] @ A)
    return np.vstack(rows)


def kernel_base(M, tol=DEFAULT_TOL):
    """Orthonormal basis of ker(M) as columns; may have zero columns.

    Rank is decided by SVD with the relative cutoff in `tol`.  Columns are
    sign-normalised so the first nonzero entry is positive, which keeps the
    basis deterministic across BLAS builds.
    """
    M = _as_matrix(M)
    b = M.shape[1]
    if M.shape[0] == 0:
        return np.eye(b)
    _, s, Vt = np.linalg.svd(M)
    cutoff = tol.rank_tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    K = Vt[rank:].T
    for j in range(K.shape[1]):
        nz = np.flatnonzero(np.abs(K[:, j]) > 1e-12)
        if nz.size and K[nz[0], j] < 0:
            K[:, j] = -K[:, j]
    if K.shape[1] and operator_norm(M @ K) > tol.residual_tol * max(operator_norm(M), 1.0):
        raise ValueError("kernel residual exceeds tolerance")
    return K


def psd_sqrt(M, tol=DEFAULT_TOL):
    """Symmetric PSD square root S with S @ S = M.

    Eigenvalues in [-rank_tol*||M||, 0) are clamped to zero; anything more
    negative means the input is genuinely indefinite and is rejected.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("psd_sqrt needs a square matrix")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    nrm = operator_norm(M)
    if operator_norm(M - M.T) > tol.residual_tol * (1.0 + nrm):
        raise ValueError("matrix is not symmetric")
    Msym = 0.5 * (M + M.T)
    w, U = np.linalg.eigh(Msym)
    floor = -tol.rank_tol * max(nrm, 1.0)
    if np.min(w) < 1e6 * floor:
        raise ValueError(f"matrix is indefinite (min eigenvalue {np.min(w):.3e})")
    w = np.clip(w, 0.0, None)
    S = (U * np.sqrt(w)) @ U.T
    return 0.5 * (S + S.T)


# Above this size the n^2 x n^2 Kronecker system gets large; the fixed-point
# iteration is used instead.
_VEC_LIMIT = 60
_ITER_LIMIT = 100000
# The fixed-point iteration shrinks its error by about the second-moment
# radius per step and must gain 14 digits within _ITER_LIMIT steps.
_MAX_RATE = 1e-14 ** (1.0 / _ITER_LIMIT)


def solve_symmetric_stein(S, Psi, tol=DEFAULT_TOL):
    """Solve S W S - W + Psi = 0 for symmetric S with spectral radius < 1.

    This is the single-map, weight-one case of solve_switched_covariance.
    """
    return solve_switched_covariance([S], [1.0], Psi, tol)


def _check_mean_square_stable(second_moment, n):
    """Raise ValueError unless the second-moment map T has radius < _MAX_RATE.

    T keeps PSD matrices PSD, so rho(T) <= (tr T^k(I))^(1/k) for every k;
    the trace growth per step tends to rho(T) and decides once it settles.
    """
    X = np.eye(n) / n
    log_trace = math.log(n)
    rate = math.nan
    for k in range(1, _ITER_LIMIT + 1):
        Y = second_moment(X)
        step = float(np.trace(Y))
        if step == 0.0:
            return
        log_trace += math.log(step)
        if log_trace <= k * math.log(_MAX_RATE):
            return
        if abs(step - rate) <= 1e-12 * step:
            if step < _MAX_RATE:
                return
            break
        rate = step
        X = Y / step
    raise ValueError(
        f"mean-square unstable switching (second-moment radius about {step:.6f}; "
        f"the fixed-point iteration needs below {_MAX_RATE:.6f})")


def solve_switched_covariance(maps, weights, Psi, tol=DEFAULT_TOL):
    """Fixed point of W = sum_j w_j M_j W M_j^T + Psi.

    This is the stationary second moment of a linear recursion whose map is
    drawn i.i.d. from `maps` with probabilities `weights` and driven by
    noise of covariance Psi.  Solved by vectorisation for moderate sizes,
    by fixed-point iteration beyond that.  Requires mean-square stability:
    a second-moment map of spectral radius >= 1 (or, for the iteration, too
    close to 1 to converge) is rejected with ValueError before the solve.
    """
    maps = [_as_matrix(M, "map") for M in maps]
    weights = np.asarray(weights, dtype=float)
    Psi = _as_matrix(Psi, "Psi")
    n = Psi.shape[0]

    def second_moment(W):
        return sum(w * M @ W @ M.T for w, M in zip(weights, maps))

    if n <= _VEC_LIMIT:
        T = sum(w * np.kron(M, M) for w, M in zip(weights, maps))
        rho = max(np.abs(np.linalg.eigvals(T)))
        if rho >= 1.0:
            raise ValueError(
                f"mean-square unstable switching (second-moment radius {rho:.4f} >= 1)"
            )
        W = np.linalg.solve(np.eye(n * n) - T, Psi.flatten(order="F"))
        W = W.reshape((n, n), order="F")
    else:
        _check_mean_square_stable(second_moment, n)
        # Frobenius norms bound the spectral test from the safe side:
        # ||dW||_2 <= ||dW||_F and ||W||_F / sqrt(n) <= ||W||_2
        W = Psi.copy()
        for _ in range(_ITER_LIMIT):
            W, W_prev = second_moment(W) + Psi, W
            if (np.linalg.norm(W - W_prev)
                    < 1e-14 * (1.0 + np.linalg.norm(W) / math.sqrt(n))):
                break
    W = 0.5 * (W + W.T)
    resid = operator_norm(second_moment(W) + Psi - W)
    if resid > tol.residual_tol * (1.0 + operator_norm(Psi)):
        raise ValueError(f"covariance residual {resid:.3e} exceeds tolerance")
    return W
