"""Monte Carlo harness for the coordinated observer's error recursion.

Over one sampling interval of scenario a the estimation error of the
continuous-time filter moves exactly as e_{k+1} = Lam_a e_k + w_k, with
w_k ~ N(0, Q_a Q_a^T) and both matrices built by `observer.build`.  The
Monte Carlo simulates that recursion.  Every interval draws n standard
normals xi_k whichever scenario is active, and w_k = Q_a xi_k, so the
switching path and the noise draws never interact (changing one seed
leaves the other stream untouched).  Replica streams derive from the
master seed through a splitmix64 hash of the replica index.

Each stream is numpy's `np.random.default_rng(seed)` stream for its
derived seed.  `monte_carlo` takes all 2R derived seeds to PCG64
`(state, inc)` words in one vectorised pass: a port of numpy's
SeedSequence hash on one (4, 2R) uint32 pool, then PCG64's 128-bit
seeding step on uint64 halves.  Per stream only the load of its 32-byte
row remains, copied from a byte view of that (2R, 4) table straight into
the state struct of one reused PCG64 behind one reused Generator, about
0.2 µs per load; the loader first checks that struct's layout against
numpy's public `state` setter.  Tests pin the words to
`np.random.PCG64(seed).state`.  `run_replica` seeds through
`default_rng` itself and stays the independent oracle.

That Generator and its loader are built once per thread, at the thread's
first `monte_carlo` call (`_engine`), and reused by every later call in
the same thread.  Reuse carries nothing from one call to the next: every
stream use starts with a write of all four state words and a zeroed
buffered half, so a call that raised partway leaves no trace either.
Each thread has its own record, so results do not depend on scheduling,
and the record keeps the Generator, which owns the PCG64 whose struct the
loader writes, so the struct lives as long as the loader.

Each replica's switching path is written in place, into its row of the
path array (`shs.sample_skeleton(..., out=row)`), and its normals into
its rows of the error array, in one loop over the zipped rows.  Each
interval advances a block of replicas with one matrix product against
every scenario's map side by side, [Lam_a^T; Q_a^T] for all a from the
smallest scenario index up, and keeps each replica's own scenario with
one `take` (`_run_intervals`): two numpy calls per block and interval,
whatever the paths, for arithmetic that grows with the number of
scenarios.

The squared errors are summed over the state one column at a time
(`_moments`), since numpy's reduction over a short last axis is its slow
case, and the variance reuses the mean already computed.  For n < 8
numpy's sum over that axis is the same sequential loop, so the bits are
those of `sum(axis=2)`.  At large n the column sum costs more (1.63
against 0.98 ms at n = 60, R = 200, K = 50 on a 2-vCPU host, where the
normals alone take about 11 ms) and rounds differently from numpy's
pairwise sum.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, field

import numpy as np

from . import shs as _shs

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def derive_seeds(root, count):
    """derive_seed(root, r) for r = 0..count-1, as a uint64 array."""
    u = np.uint64
    z = (u(int(root) & _M64) ^ (np.arange(count, dtype=u) * u(_GOLDEN))) + u(_GOLDEN)
    z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    return z ^ (z >> u(31))


def _hash_constants(init, mult, count):
    """The hash constant and its count successors under multiplication,
    as a (count + 1, 1) uint32 column."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _M32)
    return np.array(h, dtype=np.uint32)[:, None]


# SeedSequence's constants: pool hashing and mixing, then output hashing
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def seed_sequence_words(seeds):
    """`np.random.SeedSequence(s).generate_state(4, np.uint64)` for each
    seed s < 2**64, as a (len(seeds), 4) uint64 array.

    A vectorised port of numpy's SeedSequence (O'Neill's seed_seq hash)
    on one (4, N) uint32 pool: the seed's two 32-bit words, zero-padded to
    the pool size of four, are hashed into the pool, then each source
    word is hashed three times and mixed into the other three words in
    one (3, N) step, then eight output words are hashed from the pool.  A
    seed below 2**32 has one entropy word, which numpy pads with the same
    zero hash.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    h, shift = _POOL_HASH, np.uint32(16)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_M32)
    pool[1] = seeds >> np.uint64(32)
    pool ^= h[0:4]
    pool *= h[1:5]
    pool ^= pool >> shift
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        c = 4 + 3 * src                    # the hash constants of this source
        v = (pool[src] ^ h[c:c + 3]) * h[c + 1:c + 4]
        v ^= v >> shift
        v = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * v
        pool[dst] = v ^ (v >> shift)
    out = (np.tile(pool, (2, 1)) ^ _OUT_HASH[:8]) * _OUT_HASH[1:]
    out ^= out >> shift
    out = out.astype(np.uint64)
    return (out[0::2] | (out[1::2] << np.uint64(32))).T


def _mulhi64(a, b):
    """The high 64 bits of the 128-bit products a * b, from 32-bit limbs;
    `a` is a uint64 array and `b` a uint64 scalar."""
    m, s = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m, a >> s, b & m, b >> s
    mid = a1 * b0 + (a0 * b0 >> s)
    return a1 * b1 + (mid >> s) + ((a0 * b1 + (mid & m)) >> s)


def pcg64_states(words):
    """The PCG64 state that numpy seeds from each row of generate_state
    words, as an (N, 4) uint64 table of rows
    [state_lo, state_hi, inc_lo, inc_hi].

    With a row w0..w3, initstate = w0:w1 and initseq = w2:w3 as 128-bit
    numbers, inc = 2 initseq + 1, and the state is two LCG steps from 0
    with initstate added between them:
    ((inc + initstate) * MULT + inc) mod 2**128.  The step runs on uint64
    high and low halves for all rows at once.  A row is the in-memory
    image of numpy's `pcg64_random_t` struct (two little-endian 128-bit
    words), which `_stream_loader` writes.
    """
    w0, w1, w2, w3 = np.asarray(words, dtype=np.uint64).T
    one, top = np.uint64(1), np.uint64(63)
    mult_hi, mult_lo = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _M64)
    inc_hi = (w2 << one) | (w3 >> top)
    inc_lo = (w3 << one) | one
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    hi = _mulhi64(lo, mult_lo) + lo * mult_hi + hi * mult_lo
    lo = lo * mult_lo
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


# a state whose four 64-bit words and buffered half all differ, for the
# layout probe
_PROBE = {"bit_generator": "PCG64",
          "state": {"state": 0x0123456789ABCDEF_FEDCBA9876543210,
                    "inc": 0x13579BDF02468ACE_ECA86420FDB97531},
          "has_uint32": 1, "uinteger": 0xA5C3E187}


def _stream_loader(bitgen):
    """A function load(row) that puts `bitgen` at the start of the stream
    that default_rng(seed) gives, with `row` the 32 bytes
    pcg64_states(seed_sequence_words([seed])).view(np.uint8)[0].

    `bitgen` must be exactly an `np.random.PCG64`.  Its `ctypes.state_address`
    points at numpy's `pcg64_state` header: the `pcg64_random_t *` that
    holds (state, inc), then `int has_uint32` and `uint32_t uinteger`.  The
    loader keeps a byte view of the 32-byte (state, inc) struct and a
    uint64 view of the has_uint32/uinteger word, and a load copies the
    row into the first and zeroes the second, so no buffered 32-bit half
    of the previous stream carries over.  Both are memoryview writes,
    which cost about 0.18 µs per load with the row lookup, against
    0.33-0.35 µs for a numpy assignment of four uint64 words (timeit,
    2-vCPU host).  Before
    that, a probe state set through the public `state` setter must read
    back through both views as expected; a different layout raises
    RuntimeError instead of seeding a wrong stream.
    """
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"stream loading needs an np.random.PCG64, "
                        f"got {type(bitgen).__name__}")
    header = bitgen.ctypes.state_address
    pcg = ctypes.c_void_p.from_address(header).value
    struct = memoryview((ctypes.c_uint8 * 32).from_address(pcg)).cast("B")
    buffered = memoryview((ctypes.c_uint64 * 1).from_address(
        header + ctypes.sizeof(ctypes.c_void_p))).cast("B").cast("Q")
    bitgen.state = _PROBE
    st = _PROBE["state"]
    want = [st["state"] & _M64, st["state"] >> 64, st["inc"] & _M64, st["inc"] >> 64]
    if (struct.cast("Q").tolist() != want
            or buffered.tolist() != [_PROBE["has_uint32"] | _PROBE["uinteger"] << 32]):
        raise RuntimeError("numpy's PCG64 state struct does not have the "
                           "layout the stream loader writes")

    def load(row):
        struct[:] = row
        buffered[0] = 0

    return load


_local = threading.local()


def _engine():
    """This thread's (Generator, load): one PCG64 behind one Generator,
    and `_stream_loader`'s load for its state struct, built at the thread's
    first call.  The record keeps the Generator, and with it the PCG64
    that owns the struct the loader's views point into."""
    engine = getattr(_local, "engine", None)
    if engine is None:
        bitgen = np.random.PCG64(0)        # each stream overwrites its state
        engine = _local.engine = (np.random.Generator(bitgen), _stream_loader(bitgen))
    return engine


# stream tags for the two independent random sources
_SWITCH_TAG = 0x5157
_NOISE_TAG = 0x4E5A


@dataclass
class SimConfig:
    K: int                        # number of sampling intervals
    replicas: int = 1
    seed: int = 0
    e0: np.ndarray = None         # initial estimation error (defaults to 0)

    def __post_init__(self):
        for name in ("K", "replicas"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed <= _M64):
            # derive_seed keeps 64 bits, so a wider seed would alias another
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    def roots(self):
        return derive_seed(self.seed, _SWITCH_TAG), derive_seed(self.seed, _NOISE_TAG)

    def initial_error(self, n):
        e0 = np.zeros(n) if self.e0 is None else np.asarray(self.e0, dtype=float)
        if e0.shape != (n,):
            raise ValueError(f"e0 must have dimension {n}")
        return e0


def run_replica(A, obs, scenario_set, cfg, replica_index=0):
    """Single-replica reference path of the error recursion.

    Returns (eps, err_sq, alphas) with eps shaped (K+1, n).  This is the
    plain per-interval loop e_{k+1} = Lam_a e_k + Q_a xi_k over the same
    switching path and the same draws as `monte_carlo`, kept as its
    oracle; their errors agree up to summation order.  `A` is not used:
    the error recursion does not depend on the true state.
    """
    n = obs.n
    sw_root, nz_root = cfg.roots()
    alphas = _shs.sample_skeleton(scenario_set, cfg.K,
                                  derive_seed(sw_root, replica_index))
    xi = np.random.default_rng(derive_seed(nz_root, replica_index)).standard_normal(
        (cfg.K, n))
    eps = np.empty((cfg.K + 1, n))
    eps[0] = cfg.initial_error(n)
    for k in range(cfg.K):
        a = int(alphas[k])
        eps[k + 1] = obs.Lam[a] @ eps[k] + obs.Q[a] @ xi[k]
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
    expected_err_sq: np.ndarray = None  # (K+1,) exact mean of ||eps_k||^2

    def time_to_fraction(self, fraction=0.01):
        """First interval where the mean squared error drops below
        fraction * initial; returns K+1 if it never does."""
        target = fraction * self.mean_err_sq[0]
        below = np.flatnonzero(self.mean_err_sq <= target)
        return int(below[0]) if below.size else self.mean_err_sq.size

    def max_abs_z(self):
        """Largest |mean_err_sq - expected_err_sq| in standard errors of
        the mean, over the intervals whose squared errors vary."""
        if self.expected_err_sq is None:
            raise ValueError("this trajectory has no exact mean curve; "
                             "simulate_with_expectation sets expected_err_sq")
        se = np.sqrt(self.var_err_sq / self.replicas)
        live = se > 0
        if not live.any():
            return 0.0
        dev = self.mean_err_sq[live] - self.expected_err_sq[live]
        return float(np.max(np.abs(dev) / se[live]))


def _run_intervals(eps, alphas, M, block, lo):
    """Overwrite rows 1..K of each replica in `eps` (R + 1, K + 1, n) with
    its errors, in place.

    Column block a - lo of M (2n, S n) is [Lam_a^T; Q_a^T], with `lo` the
    smallest scenario index, so one product maps the rows [e_k, xi_k] of
    many replicas, adjacent rows of eps, to their next errors under every
    scenario at once, and one `take` keeps each replica's n columns of
    the scenario in its path; the per-replica offsets of the take carry
    the -lo.  Replicas run in blocks of `block` >= 2 rows into one reused
    product buffer, and each block's rows are viewed once as (rows,
    (K + 1) n), from which each interval slices its [e_k, xi_k] columns.
    No product has a single row: numpy sends a one-row product to gemv,
    whose sums run in another order than gemm's, so a lone last replica
    runs beside the spare zero row R, whose path row holds `lo`.
    """
    R = eps.shape[0] - 1
    K, n = alphas.shape[1], eps.shape[2]
    S = M.shape[1] // n
    prod = np.empty((block, S * n))
    offsets = S * np.arange(block) - lo
    for r0 in range(0, R, block):
        r1 = max(min(r0 + block, R), r0 + 2)
        rows = eps[r0:r1].reshape(r1 - r0, (K + 1) * n)
        paths, at = alphas[r0:r1], offsets[:r1 - r0]
        step = prod[:r1 - r0]
        picks = step.reshape(-1, n)
        for k, j in enumerate(range(n, (K + 1) * n, n)):
            np.matmul(rows[:, j - n:j + n], M, out=step)
            rows[:, j:j + n] = picks.take(paths[:, k] + at, axis=0)


def _moments(sq):
    """(err_sq, mean_err_sq, per_state_mean_sq, var_err_sq) of the squared
    errors `sq` (R, K+1, n).

    err_sq sums the n columns in order, ((c_0 + c_1) + c_2) + ..., the
    same bits as numpy's `sq.sum(axis=2)` for n < 8, without numpy's slow
    reduction over a short last axis.  The variance is numpy's
    `var(axis=0, ddof=1)` taken from the mean already computed; a single
    replica has zero variance.
    """
    R = sq.shape[0]
    err_sq = sq[..., 0].copy()
    for j in range(1, sq.shape[2]):
        err_sq += sq[..., j]
    mean_err_sq = err_sq.mean(axis=0)
    if R > 1:
        dev = err_sq - mean_err_sq
        var = np.square(dev, out=dev).sum(axis=0) / (R - 1)
    else:
        var = np.zeros(sq.shape[1])
    return err_sq, mean_err_sq, sq.mean(axis=0), var


def monte_carlo(A, obs, scenario_set, cfg):
    """Monte Carlo of the one-interval error recursion over independent replicas.

    Each interval of scenario a maps the error e_k to
    e_{k+1} = Lam_a e_k + Q_a xi_k with xi_k standard normal, the exact
    interval law of the continuous-time filter (`observer.build`).  A
    scenario index the observer has no map for is a ValueError naming it.
    The PCG64 states of all 2R streams come from one vectorised pass
    (`seed_sequence_words`, `pcg64_states`) as one table of words, viewed
    as 32-byte rows.  The calling thread's Generator (`_engine`, built at
    its first call and kept with the PCG64 it owns) is loaded with each
    replica's switching row and then its noise row, each a byte copy into
    its state struct and a zeroed buffered half (`_stream_loader`), so
    nothing carries over from an earlier call, even one that raised, or
    from another thread.  One loop over the zipped rows of the paths, the
    error array and the two halves of the table samples each replica's
    switching path into its path row (one `shs.sample_skeleton` call per
    replica, looked up at each call), then draws its (K, n) block of
    normals in one call into rows 1..K of its slice of the error array,
    which doubles as the noise buffer.  Timed at fig3's size on a 2-vCPU
    host (R = 200, K = 50, n = 4), a load costs about 0.2 µs, a
    `sample_skeleton` call 2.3 µs and a block of normals 3.4 µs, and the
    whole loop about 1.2 ms of a 1.8 ms call.
    Interval k overwrites row k+1, xi_k, with
    e_{k+1} = [e_k, xi_k] [Lam_a^T; Q_a^T] (`_run_intervals`): one gemm of
    a block of replicas' rows against the (2n, S n) stack of the maps of
    scenarios lo..hi, the smallest index to the largest, block a - lo for
    scenario a, then one `take` of each replica's n columns.  Blocks
    of at least two replicas, a lone last one beside a spare zero row
    whose path holds lo, keep a replica's errors the same bits whatever
    the replica count.
    The engine holds the error array, the paths, the stacked maps and one
    block's product, which holds no more floats than the error array, and
    never a copy of the draws.  The product's arithmetic grows with S:
    on a 2-vCPU host (n = 4, R = 200, K = 50) the interval loop took
    0.65, 0.80 and 1.3 ms at S = 4, 16 and 32 against about 1.4 ms for
    the per-replica gathered maps it replaced, and lost from S = 64 on
    (2.1 ms; 6.2 ms at S = 256).  At S = 4 it gains with n: 3.3 against
    14 ms at n = 22, 12 against 83 ms at n = 60.  Replica streams depend
    only on (master seed, replica index), so each replica follows
    `run_replica` for its index.  Aggregation runs in replica order and
    sums the squared errors one state column at a time (`_moments`): the
    bits of `sum(axis=2)` for n < 8, at about the same cost at n = 22
    and at 1.7 times numpy's at n = 60.  `A` is not used: the error recursion
    does not depend on the true state.
    """
    n = obs.n
    R = cfg.replicas
    K = cfg.K
    indices = [s.index for s in scenario_set]
    missing = sorted(set(indices) - (obs.Lam.keys() & obs.Q.keys()))
    if missing:
        raise ValueError(f"the observer has no interval map for scenario "
                         f"indices {missing}")
    lo = min(indices)
    sw_root, nz_root = cfg.roots()
    streams = pcg64_states(seed_sequence_words(np.concatenate(
        [derive_seeds(sw_root, R), derive_seeds(nz_root, R)]))).view(np.uint8)
    gen, load = _engine()
    sample_skeleton = _shs.sample_skeleton
    # row R of the paths and of the error array is a spare replica, never
    # sampled, with zero errors and path lo, that a lone last replica runs
    # beside
    alphas = np.empty((R + 1, K), dtype=int)
    alphas[R] = lo
    eps = np.empty((R + 1, K + 1, n))
    eps[:R, 0] = cfg.initial_error(n)
    eps[R] = 0.0
    for path, draws, switch, noise in zip(alphas[:R], eps[:R, 1:], streams, streams[R:]):
        load(switch)
        sample_skeleton(scenario_set, K, gen, out=path)
        load(noise)
        gen.standard_normal(out=draws)
    S = max(indices) - lo + 1
    M = np.zeros((2 * n, S, n))
    for a in indices:
        M[:n, a - lo] = obs.Lam[a].T
        M[n:, a - lo] = obs.Q[a].T
    # blocks of at least two replicas, each product no larger than eps
    block = max(2, min(R, R * (K + 1) // S))
    _run_intervals(eps, alphas, M.reshape(2 * n, S * n), block, lo)
    alphas = alphas[:R]
    eps = eps[:R]
    err_sq, mean_err_sq, per_state, var = _moments(np.square(eps, out=eps))
    return ErrorTrajectory(
        tau=obs.tau, mean_err_sq=mean_err_sq, per_state_mean_sq=per_state,
        var_err_sq=var, paths=alphas, err_sq=err_sq, replicas=cfg.replicas,
        seeds={"switch_root": sw_root, "noise_root": nz_root,
               "mix": "splitmix64(root xor replica*golden)"})
