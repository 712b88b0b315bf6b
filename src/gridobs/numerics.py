"""Dense linear-algebra kernels shared by the rest of the package.

Everything here works on plain numpy arrays of float64.  Inputs are
validated to be finite; rank decisions go through an SVD with a relative
cutoff so that the integer ranks of the bundled models come out exact.
"""

from __future__ import annotations

import math
import sys

import numpy as np


# Numerical cutoffs used across the package, read at call time.  RANK_TOL
# is relative to the largest singular value of the matrix at hand;
# RESIDUAL_TOL is an absolute bound on defect norms.
RANK_TOL = 1e-9
RESIDUAL_TOL = 1e-8


def is_finite_real(value):
    """True for a finite int or float; bool, str and None are not numbers here."""
    # a comparison, unlike np.isfinite, also takes ints beyond int64
    return (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating))
            and abs(value) <= sys.float_info.max)


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
    with np.errstate(over="ignore"):
        At = A * t
    return _expm(At)


# Pade coefficients b_0..b_m of r_m = q_m(A)^-1 p_m(A) for the degrees
# m = 3, 5, 7, 9, 13 of Al-Mohy & Higham (2009), with theta_m, the largest
# 1-norm of the scaled input at which r_m has backward error below unit
# roundoff, and 1/|c_{2m+1}|, the first coefficient of that error's series
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
_C_RECIP = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
            9: 5914384781877411840000.0,
            13: 113250775606021113483283660800000000.0}
_UNIT_ROUNDOFF = 2.0 ** -53


def _onenorm(M):
    return float(np.abs(M).sum(axis=0).max())


def _ell(A, m):
    """Extra squarings that keep r_m's backward error near unit roundoff.

    Al-Mohy & Higham (2009), eq. (5.3): the bound on the truncated error
    series uses || |A|^(2m+1) ||_1, which is much smaller than ||A||^(2m+1)
    for nonnormal A; without it such inputs are scaled too little.
    """
    # 1^T |A|^(2m+1) by binary powering; its largest entry is the 1-norm
    power = np.abs(A)
    v = power.sum(axis=0)
    k = m
    with np.errstate(over="ignore"):
        while k:
            power = power @ power
            if k & 1:
                v = v @ power
            k >>= 1
    norm = float(v.max())
    if norm == 0.0:
        return 0
    if not math.isfinite(norm):
        raise ValueError("matrix exponential input is too large to scale")
    alpha = norm / (_onenorm(A) * _C_RECIP[m])
    return max(math.ceil(math.log2(alpha / _UNIT_ROUNDOFF) / (2 * m)), 0)


def _pade(A, powers, m):
    """r_m(A) from the even powers [I, A^2, A^4, ...] of A (degree m <= 9)."""
    b = _PADE[m]
    U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
    V = sum(b[2 * k] * P for k, P in enumerate(powers))
    return np.linalg.solve(V - U, V + U)


def _expm(M):
    """exp(M) for a finite square float matrix of order >= 1.

    Algorithm 5.1 of Al-Mohy & Higham (2009), "A new scaling and squaring
    algorithm for the matrix exponential", the method scipy.linalg.expm
    implements, with exact 1-norms of the powers: the lowest Pade degree
    whose theta_m bounds max(||A^4||^(1/4), ||A^6||^(1/6)) (degrees 3, 5)
    or max(||A^6||^(1/6), ||A^8||^(1/8)) (degrees 7, 9) with no extra
    squaring needed, else degree 13 on 2^-s M followed by s squarings.
    """
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential input is not finite")
    ident = np.eye(M.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        A2 = M @ M
        A4 = A2 @ A2
        A6 = A4 @ A2
        A8 = A4 @ A4
        d4, d6, d8, d10 = (_onenorm(P) ** (1.0 / k) for k, P in
                           ((4, A4), (6, A6), (8, A8), (10, A4 @ A6)))
    if not all(map(math.isfinite, (d4, d6, d8, d10))):
        raise ValueError("matrix exponential input is too large to scale")
    eta = max(d4, d6)
    for m in (3, 5):
        if eta <= _THETA[m] and _ell(M, m) == 0:
            return _pade(M, [ident, A2, A4, A6][:(m + 1) // 2], m)
    eta3 = max(d6, d8)
    for m in (7, 9):
        if eta3 <= _THETA[m] and _ell(M, m) == 0:
            return _pade(M, [ident, A2, A4, A6, A8][:(m + 1) // 2], m)
    eta5 = min(eta3, max(d8, d10))
    s = max(math.ceil(math.log2(eta5 / _THETA[13])), 0) if eta5 > 0 else 0
    s += _ell(M * 2.0 ** -s, 13)
    B, B2, B4, B6 = (P * 2.0 ** (-k * s) for k, P in ((1, M), (2, A2), (4, A4), (6, A6)))
    b = _PADE[13]
    U = B @ (B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2)
             + b[7] * B6 + b[5] * B4 + b[3] * B2 + b[1] * ident)
    V = (B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2)
         + b[6] * B6 + b[4] * B4 + b[2] * B2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            X = X @ X
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix exponential overflows")
    return X


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
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if N.shape[1] == 0 or not np.any(N):
        return np.zeros((p, p))
    blk = np.zeros((2 * p, 2 * p))
    blk[:p, :p] = -Ac
    blk[p:, p:] = Ac.T
    # an overflow leaves inf in blk, which _expm refuses
    with np.errstate(over="ignore", invalid="ignore"):
        blk[:p, p:] = N @ N.T
        blk *= tau
    E = _expm(blk)
    V = E[p:, p:].T @ E[:p, p:]
    return 0.5 * (V + V.T)


def place_poles(A22, C2, desired):
    """Observer gain L with eig(A22 - L C2) equal to `desired`.

    Solved as state-feedback placement on the dual pair (A22^T, C2^T).
    Uses the robust eigenstructure-assignment algorithm.  Requested poles
    must be closed under conjugation and, per the design rules of this
    package, distinct.
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
    # pairwise gaps, not np.round, which overflows on a huge pole and maps
    # distinct huge poles to one inf; a gap that overflows is no repeat
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(desired[:, None] - desired)
    if np.count_nonzero(gaps <= 1e-10) > p:
        raise ValueError("repeated poles are not supported; request distinct poles")
    W = observability_stack(C2, A22)
    if np.linalg.matrix_rank(W, tol=RANK_TOL * max(operator_norm(W), 1.0)) < p:
        raise ValueError("(C2, A22) is not observable; poles cannot be placed")
    # dependent output rows (two sensors on one state) leave the dual
    # pair's input rank deficient: place on the row-compressed output
    # Sigma_r V_r^T of C2 = U Sigma V^T and lift the gain back, L = L' U_r^T,
    # so that L C2 = L' Sigma_r V_r^T.  This minimum-norm lift splits the
    # gain equally between duplicated sensors.
    U, sv, Vt = np.linalg.svd(C2, full_matrices=False)
    r = np.count_nonzero(sv > RANK_TOL * sv[0])
    # a huge pole overflows the assignment; a non-finite gain entry leaves
    # its row of the closed loop non-finite, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if r < C2.shape[0]:
            L = _assign_poles(A22, sv[:r, None] * Vt[:r], desired) @ U[:, :r].T
        else:
            L = _assign_poles(A22, C2, desired)
        Acl = A22 - L @ C2
    if not np.isfinite(Acl).all():
        raise ValueError("the placed gain leaves the float range; request smaller poles")
    got = np.linalg.eigvals(Acl)
    if np.max(np.abs(np.sort_complex(got) - np.sort_complex(desired))) > 1e-6:
        raise ValueError("placement did not reach the requested poles")
    # a complex pole list's gain is a strided view; order K keeps its
    # transposed layout, on which the bits of each error map depend
    return L.copy(order="K")


# Tits & Yang's test on the relative change of |det X| over one sweep
_DET_RTOL = 1e-11
# norm of the Riemannian gradient of log|det X| that, with a definite
# Hessian, certifies a strict local maximum
_GRAD_TOL = 1e-12
# Newton steps one phase may take before the sweeps resume; a phase that
# converges takes about five
_NEWTON_STEPS = 20
# a Newton step predicted to raise log|det X| by less than this, relative
# to max(1, |log det X|), is below the rounding of its value
_RISE_FLOOR = 64 * _UNIT_ROUNDOFF
# sweeps after which a placement is declared not to converge, a failure
# path only: every bundled placement stops within a few sweeps
_SWEEP_BOUND = 5000
_SQRT_EPS = np.sqrt(np.spacing(1))
_SQRT2 = math.sqrt(2.0)


def _assign_poles(A22, C2, desired):
    """Robust eigenstructure assignment on the dual pair, unchecked.

    The YT method of Kautsky, Nichols & Van Dooren (1985) and Tits & Yang
    (1996) as scipy.signal.place_poles runs it, cut down to what
    place_poles asks of it.  Single-output pairs get their unique gain,
    pairs with rank(B) = n a least-squares gain, and the rest start from
    the kernel-sum transfer matrix X, which _yt_loop moves to a maximum of
    |det X|.  Its sweeps are scipy's YT rank-2 updates, operation for
    operation in scipy's order (a KNV0 step for a lone real pole); each
    full QR (of B, of each pole's space, of X without the columns being
    updated) is _full_qr's, numpy's complete QR with Q in the Fortran
    order scipy's LAPACK binding returns.  X is complex when any
    requested pole is, its real-pole columns included, and its QRs run in
    complex arithmetic as scipy's do: a float QR of those columns rounds
    differently and moves the gain.
    """
    A = A22.T
    B = C2.T
    n = B.shape[0]
    # real pole lists go in as real arrays: the assignment algorithm's
    # complex branch pairs poles up and is noticeably less accurate
    request = desired.real if np.all(desired.imag == 0) else desired
    poles = _order_poles(request)
    u, r_b = _full_qr(B)
    rank_b = np.linalg.matrix_rank(B)
    u0 = u[:, :rank_b]
    u1 = u[:, rank_b:]
    z = r_b[:rank_b, :]
    if rank_b == n:
        # X = I; complex pairs enter as real 2x2 blocks [[a, -b], [b, a]]
        diag_poles = np.zeros(A.shape)
        idx = 0
        while idx < n:
            p = poles[idx]
            diag_poles[idx, idx] = np.real(p)
            if not np.isreal(p):
                diag_poles[idx, idx + 1] = -np.imag(p)
                diag_poles[idx + 1, idx + 1] = np.real(p)
                diag_poles[idx + 1, idx] = np.imag(p)
                idx += 1
            idx += 1
        gain = np.linalg.lstsq(B, diag_poles - A, rcond=-1)[0]
        return np.real(-gain).T
    # one orthonormal kernel basis per pole; X starts from the sum of each
    # basis' columns, a complex pole giving its real and imaginary parts
    ker_pole = []
    columns = []
    skip_conjugate = False
    for j in range(n):
        if skip_conjugate:
            skip_conjugate = False
            continue
        pole_space_j = np.dot(u1.T, A - poles[j] * np.eye(n)).T
        Q, _ = _full_qr(pole_space_j)
        ker_pole_j = Q[:, pole_space_j.shape[1]:]
        x = np.sum(ker_pole_j, axis=1)[:, np.newaxis]
        x = x / np.linalg.norm(x)
        if np.isreal(poles[j]):
            ker_pole.append(ker_pole_j)
        else:
            x = np.hstack([np.real(x), np.imag(x)])
            ker_pole.extend([ker_pole_j, ker_pole_j])
            skip_conjugate = True
        columns.append(x)
    X = np.hstack(columns)
    if rank_b > 1:
        _yt_loop(ker_pole, X, poles)
    # columns (Re x, Im x) of a complex pair become (x*, x)
    X = X.astype(complex)
    idx = 0
    while idx < n - 1:
        if not np.isreal(poles[idx]):
            rel = X[:, idx].copy()
            img = X[:, idx + 1]
            X[:, idx] = rel - 1j * img
            X[:, idx + 1] = rel + 1j * img
            idx += 1
        idx += 1
    m = np.linalg.solve(X.T, np.dot(np.diag(poles), X.T)).T
    gain = np.linalg.solve(z, np.dot(u0.T, m - A))
    return np.real(-gain).T


def _full_qr(a):
    """numpy.linalg.qr(a, mode="complete") as (Q, R), Q in Fortran order:
    on a C-ordered Q the YT updates' products take other BLAS paths, round
    differently, and the gains lose scipy.signal.place_poles' bits."""
    q, r = np.linalg.qr(a, mode="complete")
    return np.asfortranarray(q), r


def _close(a, b):
    """np.allclose(a, b) for two finite floats, without its overhead."""
    return abs(a - b) <= 1e-8 + 1e-5 * abs(b)


def _negligible(x):
    """np.allclose(x, 0) for a finite nonempty array, without its overhead."""
    return abs(x).max() <= 1e-8


def _order_poles(poles):
    """Real poles ascending, then each pair (p, conj p) with Im p < 0."""
    ordered = np.sort(poles[np.isreal(poles)])
    pairs = []
    for p in np.sort(poles[np.imag(poles) < 0]):
        if np.conj(p) in poles:
            pairs.extend((p, np.conj(p)))
    ordered = np.hstack((ordered, pairs))
    if len(ordered) != len(poles):
        raise ValueError("complex poles must come with their conjugates")
    return ordered


def _yt_update_order(poles):
    """0-based column pairs (i, j) of one YT sweep, in Tits & Yang's order.

    Built with the paper's 1-based indices.  A pair (i, i) marks the KNV0
    step taken on a lone real pole.
    """
    nb_real = int(np.sum(np.isreal(poles)))
    hnb = nb_real // 2
    lone_real = hnb == 0 and np.isreal(poles[0])
    first, second = ([nb_real], [1]) if nb_real > 0 else ([], [])
    r_comp = list(range(nb_real + 1, len(poles) + 1, 2))

    def add(pairs):
        for i, j in pairs:
            first.append(i)
            second.append(j)

    def complex_pairs():
        if lone_real:
            add([(1, 1)])
        add((r, r + 1) for r in r_comp)

    add((2 * r, 2 * r + 1) for r in range(1, hnb + nb_real % 2))
    add((r, r + 1) for r in r_comp)
    add((2 * r - 1, 2 * r) for r in range(1, hnb + 1))
    complex_pairs()
    add((i, i + j) for j in range(2, hnb + nb_real % 2) for i in range(1, hnb + 1))
    complex_pairs()
    add((i, i + j if i + j <= nb_real else i + j - nb_real)
        for j in range(2, hnb + nb_real % 2) for i in range(hnb + 1, nb_real + 1))
    complex_pairs()
    add((i, i + hnb) for i in range(1, hnb + 1))
    complex_pairs()
    return [(i - 1, j - 1) for i, j in zip(first, second)]


def _yt_sweep_plan(poles):
    """One YT sweep as (i, j, other columns, real pole) per update."""
    n = len(poles)
    plan = []
    for i, j in _yt_update_order(poles):
        rest = np.array([c for c in range(n) if c not in (i, j)])
        plan.append((i, j, rest, bool(np.isreal(poles[i]))))
    return plan


def _yt_sweep(ker_pole, X, plan):
    """One sweep of YT updates over X in place."""
    for i, j, rest, real in plan:
        if i == j:
            _knv0(ker_pole, X, j, rest)
            continue
        Q, _ = _full_qr(X.take(rest, axis=1))
        if real:
            _yt_real(ker_pole, Q, X, i, j)
        else:
            _yt_complex(ker_pole, Q, X, i, j)


def _yt_loop(ker_pole, X, poles):
    """Move X in place to a maximum of |det X| over unit kernel vectors.

    Each round runs one YT sweep and stops if Tits & Yang's test finds
    |det X| settled to _DET_RTOL.  Otherwise Newton steps on the product of
    spheres (_newton) take over where the Hessian is definite, until the
    gradient certifies a strict local maximum; if they cannot get there,
    the sweeps resume from where they were.  A certified maximum is kept
    if the next sweep does not raise |det X| beyond _DET_RTOL: a YT update
    maximises over two whole kernels and can reach a higher maximum than
    the Newton steps found.  Returns how the loop stopped ("tits-yang" or "certificate"),
    the sweeps run and the Newton steps taken.  A placement still open
    after _SWEEP_BOUND sweeps raises ValueError.
    """
    plan = _yt_sweep_plan(poles)
    frame = _kernel_frame(ker_pole, poles)
    det_after = abs(np.linalg.det(X))
    newton_steps = 0
    certified = None
    for sweeps in range(1, _SWEEP_BOUND + 1):
        det_before = det_after
        _yt_sweep(ker_pole, X, plan)
        det_after = abs(np.linalg.det(X))
        if certified is not None:
            if det_after <= det_before * (1.0 + _DET_RTOL):
                X[:] = certified
                return "certificate", sweeps, newton_steps
        elif det_after > _SQRT_EPS and abs((det_after - det_before) / det_after) < _DET_RTOL:
            return "tits-yang", sweeps, newton_steps
        found, steps = _newton(frame, X)
        newton_steps += steps
        certified = X.copy() if found else None
        if found:
            det_after = abs(np.linalg.det(X))
    raise ValueError(f"pole placement did not converge in {_SWEEP_BOUND} sweeps")


def _kernel_frame(ker_pole, poles):
    """Real coordinates of X over the pole kernels: (U, cols, blocks).

    A real pole's column is x = K z with K its real kernel basis; a
    conjugate pair's columns (Re w, Im w) come from w = K (a + i b), and
    its coordinates are (a, b).  Coordinate p adds s_p U[0, :, p] to
    column cols[0, p] of X and s_p U[1, :, p] to column cols[1, p]; a real
    pole's second slot is zero.  `blocks` holds each pole's or pair's
    slice of the coordinates and whether it is a pair.
    """
    n = len(poles)
    d = ker_pole[0].shape[1]
    U = np.zeros((2, n, n * d))
    cols = np.zeros((2, n * d), dtype=np.intp)
    blocks = []
    c = 0
    while c < n:
        K = ker_pole[c]
        pair = not np.isreal(poles[c])
        width = 2 if pair else 1
        sl = slice(c * d, (c + width) * d)
        if pair:
            U[0, :, sl] = np.hstack((K.real, -K.imag))
            U[1, :, sl] = np.hstack((K.imag, K.real))
            cols[0, sl] = c
            cols[1, sl] = c + 1
        else:
            U[0, :, sl] = K.real
            cols[:, sl] = c
        blocks.append((sl, pair))
        c += width
    return U, cols, blocks


def _transfer(frame, s):
    """The transfer matrix X at coordinates s."""
    U, cols, _ = frame
    return np.einsum("anp,apc->nc", U * s, np.eye(U.shape[1])[cols])


def _coordinates(frame, X):
    """X's kernel coordinates, each block scaled to unit norm."""
    U, cols, blocks = frame
    X = X.real
    return _on_spheres(np.einsum("anp,nap->p", U, X[:, cols]), blocks)


def _on_spheres(s, blocks):
    """s with each block scaled to unit norm, in place."""
    for sl, _ in blocks:
        s[sl] /= np.linalg.norm(s[sl])
    return s


def _log_det_derivatives(frame, s):
    """log|det X| at coordinates s, with its gradient and Hessian in s.

    With Y = X^-1 and D_p the change of X along coordinate p, the
    gradient is tr(Y D_p) and the Hessian -tr(Y D_p Y D_q).  D_p puts
    U[a, :, p] in column cols[a, p], so with Z_a = Y U[a] the trace is
    the sum over slots a, b of Z_b[cols[a, p], q] Z_a[cols[b, q], p].
    """
    U, cols, _ = frame
    X = _transfer(frame, s)
    Z = np.linalg.inv(X) @ U
    # R[b, a, p, q] = Z_b[cols[a, p], q]
    R = Z[:, cols]
    g = np.einsum("aapp->p", R)
    H = -np.einsum("bapq,abqp->pq", R, R)
    return np.linalg.slogdet(X)[1], g, H


def _riemannian(frame, s):
    """log|det X| at coordinates s, with its Riemannian derivatives.

    Returns (f, grad, T, lam, V): T is an orthonormal basis of the tangent
    space at s, one block per sphere, orthogonal to s_b and, for a pair,
    to its phase direction i w; grad is the gradient in that basis; and
    lam, V are the eigenpairs of minus the Riemannian Hessian there, the
    Euclidean Hessian on the tangent space minus (s_b . g_b) I per block.
    """
    blocks = frame[2]
    f, g, H = _log_det_derivatives(frame, s)
    T = np.zeros((len(s), len(s) - sum(2 if pair else 1 for _, pair in blocks)))
    shift = np.empty(T.shape[1])
    col = 0
    for sl, pair in blocks:
        sb = s[sl]
        if pair:
            half = len(sb) // 2
            normal = np.column_stack((sb, np.concatenate((-sb[half:], sb[:half]))))
        else:
            normal = sb[:, np.newaxis]
        Q, _ = _full_qr(normal)
        k = Q.shape[1] - normal.shape[1]
        T[sl, col:col + k] = Q[:, normal.shape[1]:]
        shift[col:col + k] = sb @ g[sl]
        col += k
    lam, V = np.linalg.eigh(np.diag(shift) - T.T @ H @ T)
    return f, g @ T, T, lam, V


def _definite(lam):
    """Whether ascending eigenvalues lam are numerically positive definite."""
    return lam[-1] > 0.0 and lam[0] >= _SQRT_EPS * lam[-1]


def _newton(frame, X):
    """Riemannian Newton steps on log|det X| from X: (certified, steps).

    The kernel coordinates of X, each block scaled to unit norm, live on a
    product of spheres (Absil, Mahony & Sepulchre 2008), with each pair's
    phase quotiented out, since |det X| does not see it.  Steps, retracted
    to the spheres, start only where -H is numerically definite (smallest
    eigenvalue at least _SQRT_EPS times the largest).  A step is kept if
    -H stays definite where it lands and log|det X| rises; a rise
    predicted below the rounding of log|det X| cannot show in it, and such
    a step is kept if it lowers the gradient instead.  A gradient of norm _GRAD_TOL or less certifies a
    strict local maximum, and so does a refused step whose predicted rise
    is below that rounding: the gradient is then at its rounding floor.
    At most _NEWTON_STEPS steps are taken.  X is overwritten in place only
    with a certified point: steps that end elsewhere are dropped, so the
    sweeps resume from their own iterate.
    """
    blocks = frame[2]
    s = _coordinates(frame, X)
    f, grad, T, lam, V = _riemannian(frame, s)
    if not _definite(lam):
        return False, 0
    steps = 0
    certified = np.linalg.norm(grad) <= _GRAD_TOL
    while not certified and steps < _NEWTON_STEPS:
        step = V @ ((grad @ V) / lam)
        trial = _on_spheres(s + T @ step, blocks)
        point = _riemannian(frame, trial)
        unresolved = 0.5 * grad @ step <= _RISE_FLOOR * max(1.0, abs(f))
        if not (_definite(point[3]) and (point[0] > f or unresolved and
                                         np.linalg.norm(point[1]) < np.linalg.norm(grad))):
            certified = unresolved
            break
        s = trial
        f, grad, T, lam, V = point
        steps += 1
        certified = np.linalg.norm(grad) <= _GRAD_TOL
    if certified:
        X[:] = _transfer(frame, s)
    return certified, steps


def _knv0(ker_pole, X, j, rest):
    """KNV method 0: move x_j into its kernel, orthogonal to the rest."""
    Q, _ = _full_qr(X.take(rest, axis=1))
    yj = np.dot(np.dot(ker_pole[j], ker_pole[j].T), Q[:, -1])
    if not _negligible(yj):
        X[:, j] = yj / np.linalg.norm(yj)


def _yt_real(ker_pole, Q, X, i, j):
    """YT rank-2 update of the columns of two real poles (section 6.1)."""
    u = Q[:, -2, np.newaxis]
    v = Q[:, -1, np.newaxis]
    m = np.dot(np.dot(ker_pole[i].T, np.dot(u, v.T) - np.dot(v, u.T)), ker_pole[j])
    um, sm, vm = np.linalg.svd(m)
    mu1, mu2 = um.T[:2, :, np.newaxis]
    nu1, nu2 = vm[:2, :, np.newaxis]
    x_ij = np.concatenate((X[:, i, np.newaxis], X[:, j, np.newaxis]))
    s1, s2 = sm[:2].tolist()
    if not _close(s1, s2):
        ker_mu_nu = np.concatenate((np.dot(ker_pole[i], mu1), np.dot(ker_pole[j], nu1)))
    else:
        ker_ij = np.vstack((
            np.hstack((ker_pole[i], np.zeros(ker_pole[i].shape))),
            np.hstack((np.zeros(ker_pole[j].shape), ker_pole[j]))))
        mu_nu = np.vstack((np.hstack((mu1, mu2)), np.hstack((nu1, nu2))))
        ker_mu_nu = np.dot(ker_ij, mu_nu)
    x_ij = np.dot(np.dot(ker_mu_nu, ker_mu_nu.T), x_ij)
    n = X.shape[0]
    if not _negligible(x_ij):
        x_ij = _SQRT2 * x_ij / np.linalg.norm(x_ij)
        X[:, i] = x_ij[:n, 0]
        X[:, j] = x_ij[n:, 0]
    else:
        X[:, i] = ker_mu_nu[:n, 0]
        X[:, j] = ker_mu_nu[n:, 0]


def _yt_complex(ker_pole, Q, X, i, j):
    """YT update of the (Re, Im) columns of a complex pair (section 6.2)."""
    ur = _SQRT2 * Q[:, -2, np.newaxis]
    ui = _SQRT2 * Q[:, -1, np.newaxis]
    u = ur + 1j * ui
    ker_pole_ij = ker_pole[i]
    m = np.dot(np.dot(np.conj(ker_pole_ij.T), np.dot(u, np.conj(u).T)
                      - np.dot(np.conj(u), u.T)), ker_pole_ij)
    e_val, e_vec = np.linalg.eig(m)
    e_val_idx = np.argsort(np.abs(e_val))
    mu1 = e_vec[:, e_val_idx[-1], np.newaxis]
    mu2 = e_vec[:, e_val_idx[-2], np.newaxis]
    x_ij = X[:, i, np.newaxis] + 1j * X[:, j, np.newaxis]
    if not _close(abs(e_val[e_val_idx[-1]]), abs(e_val[e_val_idx[-2]])):
        ker_mu = np.dot(ker_pole_ij, mu1)
    else:
        ker_mu = np.dot(ker_pole_ij, np.hstack((mu1, mu2)))
    x_ij = np.dot(np.dot(ker_mu, np.conj(ker_mu.T)), x_ij)
    if not _negligible(x_ij):
        x_ij = x_ij / np.linalg.norm(x_ij)
        X[:, i] = np.real(x_ij[:, 0])
        X[:, j] = np.imag(x_ij[:, 0])
    else:
        X[:, i] = np.real(ker_mu[:, 0])
        X[:, j] = np.imag(ker_mu[:, 0])


def observability_stack(C, A):
    """Stacked [C; CA; ...; CA^(n-1)] with n = dim(A)."""
    A = _as_matrix(A, "A")
    n = A.shape[0]
    C = np.asarray(C, dtype=float).reshape(-1, n)
    rows = [C]
    for _ in range(n - 1):
        rows.append(rows[-1] @ A)
    return np.vstack(rows)


def kernel_base(M):
    """Orthonormal basis of ker(M) as columns; may have zero columns.

    Rank is decided by SVD with the relative cutoff RANK_TOL.  Columns are
    sign-normalised so the first nonzero entry is positive, which keeps the
    basis deterministic across BLAS builds.
    """
    M = _as_matrix(M)
    b = M.shape[1]
    if M.shape[0] == 0:
        return np.eye(b)
    _, s, Vt = np.linalg.svd(M)
    cutoff = RANK_TOL * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    K = Vt[rank:].T
    for j in range(K.shape[1]):
        nz = np.flatnonzero(np.abs(K[:, j]) > 1e-12)
        if nz.size and K[nz[0], j] < 0:
            K[:, j] = -K[:, j]
    if K.shape[1] and operator_norm(M @ K) > RESIDUAL_TOL * max(operator_norm(M), 1.0):
        raise ValueError("kernel residual exceeds tolerance")
    return K


def psd_sqrt(M):
    """Symmetric PSD square root S with S @ S = M.

    Eigenvalues in [-RANK_TOL*||M||, 0) are clamped to zero; anything more
    negative means the input is genuinely indefinite and is rejected.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("psd_sqrt needs a square matrix")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    nrm = operator_norm(M)
    if operator_norm(M - M.T) > RESIDUAL_TOL * (1.0 + nrm):
        raise ValueError("matrix is not symmetric")
    Msym = 0.5 * (M + M.T)
    w, U = np.linalg.eigh(Msym)
    floor = -RANK_TOL * max(nrm, 1.0)
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


def solve_symmetric_stein(S, Psi):
    """Solve S W S - W + Psi = 0 for symmetric S with spectral radius < 1.

    This is the single-map, weight-one case of solve_switched_covariance.
    """
    return solve_switched_covariance([S], [1.0], Psi)


def second_moment(maps, weights, W):
    """T(W) = sum_j w_j M_j W M_j^T over a stack of maps (S, n, n), as one
    batched product."""
    Y = maps @ W @ maps.transpose(0, 2, 1)
    return np.tensordot(weights, Y, 1)


def mean_square_radius(maps, weights):
    """rho(sum_j w_j M_j kron M_j), the exact mean-square stability radius.

    The recursion x' = M x + noise, with M drawn i.i.d. from `maps` with
    probabilities `weights`, has a bounded second moment exactly when this
    radius is below one (Costa, Fragoso & Marques 2005).  Up to _VEC_LIMIT
    states it is read off the eigenvalues of the n^2 x n^2 operator.
    Beyond, it is the limit of the trace growth tr T(X) / tr X of the
    positive map T(W) = sum_j w_j M_j W M_j^T, iterated from the identity
    until the growth settles to 1e-12 relative or _ITER_LIMIT steps pass.
    """
    maps = np.array([_as_matrix(M, "map") for M in maps])
    n = maps[0].shape[0]
    if n <= _VEC_LIMIT:
        T = sum(w * np.kron(M, M) for w, M in zip(weights, maps))
        return float(max(np.abs(np.linalg.eigvals(T))))
    X = np.eye(n) / n
    rate = math.nan
    for _ in range(_ITER_LIMIT):
        Y = second_moment(maps, weights, X)
        step = float(np.trace(Y))
        if step == 0.0 or abs(step - rate) <= 1e-12 * step:
            break
        rate = step
        X = Y / step
    return step


class MeanSquareUnstable(ValueError):
    """A switched recursion whose exact mean-square radius is at least one."""

    def __init__(self, radius):
        super().__init__(
            f"mean-square unstable switching (second-moment radius {radius:.4f} >= 1)")
        self.radius = radius


def solve_switched_covariance(maps, weights, Psi):
    """Fixed point of W = sum_j w_j M_j W M_j^T + Psi.

    This is the stationary second moment of a linear recursion whose map is
    drawn i.i.d. from `maps` with probabilities `weights` and driven by
    noise of covariance Psi.  Solved by vectorisation for moderate sizes,
    by fixed-point iteration beyond that.  Requires mean-square stability:
    a second-moment map of spectral radius >= 1 (or, for the iteration, too
    close to 1 to converge) is rejected with ValueError before the solve;
    for a radius >= 1 that error is MeanSquareUnstable, carrying the radius.
    """
    maps = np.array([_as_matrix(M, "map") for M in maps])
    weights = np.asarray(weights, dtype=float)
    Psi = _as_matrix(Psi, "Psi")
    n = Psi.shape[0]
    rho = mean_square_radius(maps, weights)
    if rho >= 1.0:
        raise MeanSquareUnstable(rho)
    if n <= _VEC_LIMIT:
        T = sum(w * np.kron(M, M) for w, M in zip(weights, maps))
        W = np.linalg.solve(np.eye(n * n) - T, Psi.flatten(order="F"))
        W = W.reshape((n, n), order="F")
    else:
        if rho >= _MAX_RATE:
            raise ValueError(
                f"mean-square unstable switching (second-moment radius about {rho:.6f}; "
                f"the fixed-point iteration needs below {_MAX_RATE:.6f})")
        # Frobenius norms bound the spectral test from the safe side:
        # ||dW||_2 <= ||dW||_F and ||W||_F / sqrt(n) <= ||W||_2
        W = Psi.copy()
        for _ in range(_ITER_LIMIT):
            W, W_prev = second_moment(maps, weights, W) + Psi, W
            if (np.linalg.norm(W - W_prev)
                    < 1e-14 * (1.0 + np.linalg.norm(W) / math.sqrt(n))):
                break
    W = 0.5 * (W + W.T)
    resid = operator_norm(second_moment(maps, weights, W) + Psi - W)
    if resid > RESIDUAL_TOL * (1.0 + operator_norm(Psi)):
        raise ValueError(f"covariance residual {resid:.3e} exceeds tolerance")
    return W
