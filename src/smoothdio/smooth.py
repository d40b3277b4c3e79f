"""Smooth-number engine: the P⁺ sieve over an interval and over progressions,
exact Ψ(x,y), the local density K, Dickman ρ, the saddle point α(x,y), and
the unique largest-factors-first decomposition.

Interval counts (smooth_sieve, K) sieve an explicit interval or set of
progressions.  Ψ(x, y) is exact without a sieve: a Buchstab-type recursion
over a small table of Ψ(t, p) for t ≤ 2¹¹, with the sieve as the oracle the
tests hold it to.  The analytic objects (ρ, α) carry certified or
residual-checked accuracy so they can serve as diagnostics against the exact
counts.
"""

from functools import lru_cache
from math import ceil, floor, frexp, isqrt, ldexp, log

import numpy as np

from .arith import distinct_prime_factors, factorize, prime_array, product_dtype
from .errors import BudgetExceededError, CapacityError, NonConvergenceError

SIEVE_CAPACITY = 20_000_000
SADDLE_PRIME_CAPACITY = 10_000_000
_PPLUS_SEGMENT = 1 << 18  # integers sieved at once: 1 MB of int32 stays in cache


# ---------------------------------------------------------------------------
# P⁺ sieves
# ---------------------------------------------------------------------------


def pplus_sieve(lo: int, hi: int, pmax: int) -> np.ndarray:
    """For each n in [lo, hi]: the larger of the largest prime p ≤ pmax
    dividing n and the cofactor left once every such prime is divided out.

    That is P⁺(n) when pmax ≥ √hi.  For a smaller pmax it still decides
    P⁺(n) ≤ y exactly for every y ≤ pmax: a cofactor above 1 exceeds pmax.
    Works in product_dtype(hi), int32 below 2³¹, one cache-sized segment at a time.
    """
    dtype = product_dtype(hi, "integers")
    out = np.empty(hi - lo + 1, dtype=dtype)
    primes = prime_array(pmax).tolist()
    for a in range(lo, hi + 1, _PPLUS_SEGMENT):
        b = min(a + _PPLUS_SEGMENT - 1, hi)
        rem = np.arange(a, b + 1, dtype=dtype)
        big = np.ones_like(rem)  # largest sieved prime so far (primes ascend)
        for p in primes:
            big[-a % p :: p] = p
            pk = p
            while pk <= b:
                rem[-a % pk :: pk] //= p
                pk *= p
        np.maximum(big, rem, out=out[a - lo : b - lo + 1])
    return out


def largest_prime_factor_array(starts, step: int, count: int, pmax: int) -> np.ndarray:
    """pplus_sieve over progressions: entry [k, i] is what pplus_sieve gives
    for n = starts[i] + k·step, k < count.

    Every start must be positive and coprime to step.  For p ∤ step, p
    divides starts[i] + k·step exactly when k ≡ −starts[i]·step⁻¹ (mod p), so
    one gather per prime serves every progression, and p divides out of its
    hits as often as it goes.  Only p ≤ √n enter, so no product overflows.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if len(starts) and (int(starts.min()) < 1 or int(np.gcd(starts, step).max()) > 1):
        raise ValueError("starts must be positive and coprime to step")
    top = int(starts.max()) + (count - 1) * step if len(starts) and count else 0
    dtype = product_dtype(top, "integers")
    rem = starts.astype(dtype) + np.arange(0, count * step, step, dtype=dtype)[:, None]
    big = np.ones_like(rem)  # largest sieved prime so far (primes ascend)
    flat_rem, flat_big, cols = rem.reshape(-1), big.reshape(-1), np.arange(len(starts))
    for p in prime_array(min(pmax, isqrt(top))).tolist():
        if step % p:  # a p dividing step divides no entry
            k0 = -starts % p * pow(step, -1, p) % p
            hits = ((k0 + np.arange(0, count, p)[:, None]) * len(starts) + cols).ravel()
            hits = hits[hits < rem.size]  # row k0 + j·p < count
            flat_big[hits] = p
            v = flat_rem[hits] // p
            more = np.flatnonzero(v % p == 0)
            while len(more):
                v[more] //= p
                more = more[v[more] % p == 0]
            flat_rem[hits] = v
    return np.maximum(big, rem, out=big)


def smooth_sieve(lo: int, hi: int, y: float, q: int = 1) -> tuple:
    """(members, pplus) on [lo, hi]: members[i] ⇔ lo + i is y-smooth and
    coprime to q, and pplus is pplus_sieve with pmax = min(y, √hi), so
    pplus[i] = P⁺(lo + i) wherever pplus[i] ≤ y.  Coprimality to q strikes
    the multiples of each prime of q from the smooth flags."""
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    if q < 1:
        raise ValueError("q must be >= 1")
    if hi - lo + 1 > SIEVE_CAPACITY:
        raise CapacityError(f"interval length {hi - lo + 1} exceeds sieve capacity {SIEVE_CAPACITY}")
    if hi >= 2**62:
        raise CapacityError("interval top beyond int64 sieve range")

    root = isqrt(hi)
    pplus = pplus_sieve(lo, hi, root if y >= root else int(floor(y)))
    members = pplus <= y
    for p in distinct_prime_factors(q):
        members[-lo % p :: p] = False
    return members, pplus


# ---------------------------------------------------------------------------
# exact counts
# ---------------------------------------------------------------------------

PSI_LEAF = 1 << 11  # T: Ψ(t, p) for t ≤ T is one read of the leaf table
PSI_PRIME_CAPACITY = 20_000_000  # the largest y below x whose primes psi tabulates
PSI_BUDGET = 10**9
_PSI_CHUNK = 1 << 14  # recursion edges expanded at once: bounds the frontier's memory
_LEAF = None  # L[k, t] = Ψ(t, p_k) for the primes p_k < T and t ≤ T, int32, read-only


def _leaf_table() -> np.ndarray:
    """L[k, t] = Ψ(t, p_k), built on first use from one pplus_sieve(1, T):
    309 × 2049 int32 entries (2.5 MB), whatever y is asked."""
    global _LEAF
    if _LEAF is None:
        primes = prime_array(PSI_LEAF)
        rank = np.searchsorted(primes, pplus_sieve(1, PSI_LEAF, isqrt(PSI_LEAF)))  # P⁺(1) = 1 has rank 0
        L = np.zeros((len(primes), PSI_LEAF + 1), dtype=np.int32)
        L[rank, np.arange(1, PSI_LEAF + 1)] = 1
        np.cumsum(L, axis=0, out=L)
        np.cumsum(L, axis=1, out=L)
        L.flags.writeable = False
        _LEAF = L
    return _LEAF


def psi(x: float, y: float, budget: int = PSI_BUDGET) -> int:
    """Ψ(x, y) = #{n ≤ x : P⁺(n) ≤ y}, exact.

    By the recursion Ψ(v, p_k) = 1 + Σ_{i≤k} Ψ(⌊v/p_i⌋, p_i) (n = 1, and
    each n > 1 by its largest prime p_i), run breadth-first on int64 arrays
    of (v, k) nodes (Bernstein 1995; Parsell and Sorenson 2006).  A child
    with p_i > ⌊v/p_i⌋ counts ⌊v/p_i⌋, a child with ⌊v/p_i⌋ ≤ T reads the
    leaf table (_leaf_table), and the rest are expanded in turn, at most
    _PSI_CHUNK edges at a time, so memory stays flat for any x.  Every edge
    counts one node against budget; BudgetExceededError once it is passed.
    CapacityError past int64 and for a y < x above PSI_PRIME_CAPACITY.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    xi = int(floor(x))
    if xi < 1:
        return 0
    if y >= xi:
        return xi  # every n <= x is x-smooth
    if y < 2:
        return 1 if y >= 1 else 0  # only n = 1
    if xi >= 2**63:
        raise CapacityError(f"x = {x} beyond int64")
    if y > PSI_PRIME_CAPACITY:
        raise CapacityError(f"y = {y} exceeds the prime capacity {PSI_PRIME_CAPACITY} of exact counts")
    primes = prime_array(int(floor(y)))
    leaf = _leaf_table()
    if xi <= PSI_LEAF:
        return int(leaf[len(primes) - 1, xi])

    total, nodes, stack = 0, 1, [(np.array([xi]), np.array([len(primes) - 1]))]
    while stack:
        V, K = stack.pop()
        ends = np.cumsum(K + 1)  # node j has the edges i = 0 … K[j]
        cut = max(1, int(np.searchsorted(ends, _PSI_CHUNK, side="right")))
        if cut < len(V):
            stack.append((V[cut:], K[cut:]))
            V, K, ends = V[:cut], K[:cut], ends[:cut]
        nodes += int(ends[-1])
        if nodes > budget:
            raise BudgetExceededError(f"Psi({x}, {y}) needs more than {budget} recursion nodes")
        total += _expand(V, K, ends, primes, leaf, stack)
    return total


def _expand(V, K, ends, primes, leaf, stack) -> int:
    """Expand the nodes (V[j], p_K[j]), whose edges fit one chunk unless
    there is one node: return their count less that of the children pushed
    on stack to expand later."""
    if len(V) == 1:  # one node may have more edges than a chunk
        parts = ((V[0], np.arange(lo, min(lo + _PSI_CHUNK, int(ends[0])))) for lo in range(0, int(ends[0]), _PSI_CHUNK))
    else:
        counts = K + 1
        parts = [(np.repeat(V, counts), np.arange(int(ends[-1])) - np.repeat(ends - counts, counts))]
    total = len(V)  # n = 1 under each node
    for parent, i in parts:
        p = primes[i]
        v = parent // p
        small = v < p  # p > √parent: Ψ(v, p) = v
        total += int(v[small].sum())
        deep = v > PSI_LEAF
        leaves = ~(small | deep)
        total += int(leaf[i[leaves], v[leaves]].sum())
        deep &= ~small
        v, i = v[deep], i[deep]
        if len(v):
            stack.append((v, i))
    return total


def local_density(N: float, Y: float, q: int) -> float:
    """K(N, Y) = (1/N) · #{N < n ≤ 2N : P⁺(n) ≤ Y, gcd(n, q) = 1}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    lo = int(floor(N)) + 1
    hi = int(floor(2 * N))
    return np.count_nonzero(smooth_sieve(lo, hi, Y, q)[0]) / N


# ---------------------------------------------------------------------------
# Dickman rho
# ---------------------------------------------------------------------------

RHO_U_MAX = 500.0
_RHO_SERIES = []  # entry k − 1 is _rho_series(k)


def _rho_series(k: int) -> tuple:
    """(d, e, err, tail) with ρ(k − ξ) = 2^e Σ_{m ≤ 55} d_m ξ^m for ξ ∈ [0, 1],
    built on first use with every interval before it.  All terms are positive,
    so err bounds the relative error of each d_m and of Horner's value anywhere
    on [k − 1, k].  tail bounds the dropped Σ_{m>55} d_m: below 2⁻⁵³ d_0, as
    the radius of convergence is 2."""
    s, n = _RHO_SERIES, 55
    if not s:
        s.append(([1.0] + [0.0] * n, 0, 0.0, 0.0))
    while len(s) < k:
        j = len(s) + 1
        prev, e, err, tail = s[-1]
        # u ρ'(u) = −ρ(u − 1) ties c_1, c_2, … to the previous interval's c'
        c = [0.0]
        for m in range(n):
            c.append((prev[m] + m * c[m]) / ((m + 1) * j))
        # u ρ(u) = ∫_{u−1}^u ρ at u = j gives c_0
        c[0] = sum(c[i] / ((i + 1) * (j - 1)) for i in range(n, 0, -1))
        # summed over m ≥ n the recurrence reads (j − 1) Σ_{i>n} i c_i = c'_n + tail' + n c_n
        tail = 2.0 * (prev[n] + tail + n * c[n]) / ((n + 1) * (j - 1))  # 2: rounding slack
        # γ_{6n}: 4n roundings reach the d_m, Horner adds 2n; c_0 and the value drop a tail
        err += 6 * n * 2.0**-53 / (1 - 6 * n * 2.0**-53) * (1 + err) + 2 * tail / c[0]
        f = frexp(c[0])[1]  # rescale, so no d_m underflows
        s.append(([ldexp(x, -f) for x in c], e + f, err, ldexp(tail, -f)))
    return s[k - 1]


def dickman_rho(u: float, tol: float = 1e-9) -> float:
    """ρ(u) by Horner's rule on its power series over the unit interval that
    holds u (Marsaglia, Zaman and Marsaglia 1989; Bach and Peralta 1996).

    tol is an absolute request, at least 1e-12.  The certified relative error
    is at most 3.7e-14·u, and below 1e-12 absolute for every u
    (tests/test_smooth.py::test_rho_certificate), so every tol is met.
    From u ≈ 127 ρ(u) is below the normal doubles: the value is subnormal or
    0.0, good to tol."""
    if not (0 <= u <= RHO_U_MAX):
        raise ValueError(f"u must lie in [0, {RHO_U_MAX}]")
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    if u <= 1.0:
        return 1.0
    k = ceil(u)
    d, e = _rho_series(k)[:2]
    r, x = 0.0, k - u
    for c in reversed(d):
        r = r * x + c
    return ldexp(r, e)


# ---------------------------------------------------------------------------
# saddle point
# ---------------------------------------------------------------------------


_SADDLE_PRIMES = np.zeros(0)  # every prime <= _SADDLE_LIMIT as float64, read-only
_SADDLE_LOGS = np.zeros(0)  # their logs, read-only
_SADDLE_WORK = np.zeros((3, 0))  # three scratch rows as long as the table, for _saddle_sums
_SADDLE_LIMIT = 1


def _saddle_table(yi: int) -> tuple:
    """(primes, logs, work) over the primes ≤ yi, as prefix slices of one
    float64 table and of its three scratch rows, grown together (at least
    doubling, up to SADDLE_PRIME_CAPACITY) from prime_array when a larger yi
    is asked for."""
    global _SADDLE_PRIMES, _SADDLE_LOGS, _SADDLE_WORK, _SADDLE_LIMIT
    if yi > _SADDLE_LIMIT:
        top = min(max(yi, 2 * _SADDLE_LIMIT), SADDLE_PRIME_CAPACITY)
        _SADDLE_PRIMES = prime_array(top).astype(np.float64)
        _SADDLE_LOGS = np.log(_SADDLE_PRIMES)
        _SADDLE_PRIMES.flags.writeable = _SADDLE_LOGS.flags.writeable = False
        _SADDLE_WORK = np.empty((3, len(_SADDLE_PRIMES)))
        _SADDLE_LIMIT = top
    k = np.searchsorted(_SADDLE_PRIMES, yi, side="right")
    return _SADDLE_PRIMES[:k], _SADDLE_LOGS[:k], _SADDLE_WORK[:, :k]


def _saddle_sums(yi: int) -> tuple:
    """(g, slope): g(a) = Σ_{p ≤ yi} log p / (p^a − 1), and slope() = g'(a)
    at the a of the last g call.  Both evaluate into the table's scratch
    rows, so no call allocates, and the pages are touched once per table."""
    primes, logs, (pa, gap, t) = _saddle_table(yi)

    def g(a: float) -> float:
        np.power(primes, a, out=pa)
        np.subtract(pa, 1.0, out=gap)
        return float(np.sum(np.divide(logs, gap, out=t)))

    def slope() -> float:  # −Σ (log p)² p^a / (p^a − 1)²
        np.multiply(logs, logs, out=t)
        np.multiply(t, pa, out=t)
        np.divide(t, np.multiply(gap, gap, out=gap), out=t)
        return float(-np.sum(t))

    return g, slope


@lru_cache(maxsize=64)
def _saddle_bracket(yi: int) -> tuple:
    """(g(0.01), g(1.5)) for the primes ≤ yi."""
    g = _saddle_sums(yi)[0]
    return g(0.01), g(1.5)


def saddle_alpha(x: float, y: float) -> tuple:
    """(alpha, residual): the root of Σ_{p ≤ y} log p / (p^α − 1) = log x and
    the equation's residual there, by Newton iteration seeded with
    1 − log(u log u)/log y, with bisection fallback on (0.01, 1.5).

    The primes and their logs are prefix slices of one float64 table kept
    for the largest y asked.  The bracket values g(0.01) and g(1.5) depend
    on ⌊y⌋ alone and are kept for the 64 most recent ⌊y⌋, so a sweep over
    many y holds bounded memory.  The slope is evaluated only when a Newton
    step is taken."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if x <= 1:
        raise ValueError("x must be > 1")
    if y > SADDLE_PRIME_CAPACITY:
        raise CapacityError(f"y = {y} exceeds prime-sum capacity {SADDLE_PRIME_CAPACITY}")

    yi = int(floor(y))
    target = log(x)
    lo_a, hi_a = 0.01, 1.5
    g_lo, g_hi = _saddle_bracket(yi)
    if not (g_hi <= target <= g_lo):
        raise NonConvergenceError(f"saddle point for (x={x}, y={y}) outside (0.01, 1.5)")
    g, slope = _saddle_sums(yi)

    u = target / log(y)
    a = 1.0 - log(u * log(u)) / log(y) if u > 1 else 1.0
    if not (lo_a < a < hi_a):
        a = 0.5 * (lo_a + hi_a)

    for _ in range(200):
        res = g(a) - target
        if abs(res) <= 1e-11 * target:
            return a, res
        if hi_a - lo_a < 5e-16 * a:  # bracket exhausted at double precision
            break
        if res > 0:
            lo_a = a  # g decreasing: root is to the right
        else:
            hi_a = a
        nxt = a - res / slope()
        if not (lo_a < nxt < hi_a):
            nxt = 0.5 * (lo_a + hi_a)
        a = nxt
    raise NonConvergenceError(f"saddle iteration failed for (x={x}, y={y})")


# ---------------------------------------------------------------------------
# largest-factors-first decomposition
# ---------------------------------------------------------------------------


def smooth_decompose(n: int, x: int, y: float, z: float):
    """The unique triple (p, u, v) with n = u·v, u ∈ S(x/v, p), z < v ≤ zp,
    p | v, and every prime r | v satisfying p ≤ r ≤ y.

    Constructed by accumulating the prime factors of n in nonincreasing
    order into v until v exceeds z; p is then the smallest prime in v.
    """
    if not (2 <= y <= z < n <= x):
        raise ValueError("need 2 <= y <= z < n <= x")
    factors = factorize(n)
    if factors[-1][0] > y:
        raise ValueError(f"n = {n} is not {y}-smooth")
    desc = [p for p, e in reversed(factors) for _ in range(e)]

    v = 1
    p = None
    for f in desc:
        v *= f
        p = f
        if v > z:
            break
    u = n // v
    assert v > z and v <= z * p and u * v == n
    return p, u, v
