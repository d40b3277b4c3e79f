"""Smooth-number engine: the P⁺ interval sieve, exact Ψ(x,y) and Ψ_q(x,y), the
local density K, Dickman ρ, the saddle point α(x,y), product-formula
estimates, and the unique largest-factors-first decomposition.

Exact counting is always done by sieving an explicit interval (nothing
asymptotically cleverer); the analytic objects (ρ, α) carry certified or
residual-checked accuracy so they can serve as diagnostics against the exact
counts.
"""

import warnings
from dataclasses import dataclass
from math import exp, floor, isqrt, log

import numpy as np

from .arith import distinct_prime_factors, factorize, prime_array
from .errors import CapacityError, NonConvergenceError

SIEVE_CAPACITY = 20_000_000
PSI_CAPACITY = 20_000_000
SADDLE_PRIME_CAPACITY = 10_000_000
_PPLUS_SEGMENT = 1 << 18  # integers sieved at once: 1 MB of int32 stays in cache


class EstimateRangeWarning(UserWarning):
    """An estimate was evaluated outside the range where its error term is

    backed by theory; the value is still returned."""


# ---------------------------------------------------------------------------
# interval sieve
# ---------------------------------------------------------------------------


def pplus_sieve(lo: int, hi: int, pmax: int) -> np.ndarray:
    """For each n in [lo, hi]: the larger of the largest prime p ≤ pmax
    dividing n and the cofactor left once every such prime is divided out.

    That is P⁺(n) when pmax ≥ √hi.  For a smaller pmax it still decides
    P⁺(n) ≤ y exactly for every y ≤ pmax: a cofactor above 1 exceeds pmax.
    Works in int32 when hi < 2³¹, one cache-sized segment at a time.
    """
    dtype = np.int32 if hi < 2**31 else np.int64
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


@dataclass
class SmoothSieve:
    """Per-integer smoothness and coprimality flags on [lo, hi].

    smooth[i] ⇔ P⁺(lo + i) ≤ y;  coprime[i] ⇔ gcd(lo + i, q) = 1.
    """

    lo: int
    hi: int
    y: float
    q: int
    smooth: np.ndarray
    coprime: np.ndarray

    def is_smooth(self, n: int) -> bool:
        return bool(self.smooth[n - self.lo])

    def coprime_to_q(self, n: int) -> bool:
        return bool(self.coprime[n - self.lo])

    def members(self) -> np.ndarray:
        """All n in [lo, hi] that are y-smooth and coprime to q, ascending."""
        return np.flatnonzero(self.smooth & self.coprime) + self.lo

    def count(self) -> int:
        return int(np.count_nonzero(self.smooth & self.coprime))


def smooth_sieve(lo: int, hi: int, y: float, q: int = 1) -> SmoothSieve:
    """Sieve [lo, hi] by pplus_sieve with pmax = min(y, √hi); coprimality to
    q strikes the multiples of each prime of q."""
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    if q < 1:
        raise ValueError("q must be >= 1")
    if hi - lo + 1 > SIEVE_CAPACITY:
        raise CapacityError(f"interval length {hi - lo + 1} exceeds sieve capacity {SIEVE_CAPACITY}")
    if hi >= 2**62:
        raise CapacityError("interval top beyond int64 sieve range")

    root = isqrt(hi)
    smooth = pplus_sieve(lo, hi, root if y >= root else int(floor(y))) <= y
    coprime = np.ones(hi - lo + 1, dtype=bool)
    for p in distinct_prime_factors(q):
        coprime[-lo % p :: p] = False
    return SmoothSieve(lo, hi, y, q, smooth, coprime)


# ---------------------------------------------------------------------------
# exact counts
# ---------------------------------------------------------------------------

_PPLUS = np.zeros(0, dtype=np.int32)  # P⁺(n) at index n − 1, for every y


def psi(x: float, y: float) -> int:
    """Ψ(x, y) = #{n ≤ x : P⁺(n) ≤ y}, exact.

    Counts are read from one P⁺ table shared by every y, extended (at least
    doubling) to the largest x asked, so sweeping x or y is cheap.
    """
    global _PPLUS
    if x < 0:
        raise ValueError("x must be >= 0")
    xi = int(floor(x))
    if xi < 1:
        return 0
    if y >= xi:
        return xi  # every n <= x is x-smooth
    if y < 1:
        return 0
    if y < 2:
        return 1  # only n = 1
    if xi > PSI_CAPACITY:
        raise CapacityError(f"x = {x} exceeds exact-count capacity {PSI_CAPACITY}")

    built = len(_PPLUS)
    if built < xi:
        top = min(max(xi, 1024, 2 * built), PSI_CAPACITY)
        _PPLUS = np.concatenate((_PPLUS, pplus_sieve(built + 1, top, isqrt(top))))
    return int(np.count_nonzero(_PPLUS[:xi] <= y))


def psi_q(x: float, y: float, q: int) -> int:
    """Ψ_q(x, y): y-smooth n ≤ x with gcd(n, q) = 1, exact."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return psi(x, y)
    xi = int(floor(x))
    if xi < 1:
        return 0
    return smooth_sieve(1, xi, y, q).count()


def local_density(N: float, Y: float, q: int) -> float:
    """K(N, Y) = (1/N) · #{N < n ≤ 2N : P⁺(n) ≤ Y, gcd(n, q) = 1}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    lo = int(floor(N)) + 1
    hi = int(floor(2 * N))
    if hi < lo:
        return 0.0
    return smooth_sieve(lo, hi, Y, q).count() / N


# ---------------------------------------------------------------------------
# Dickman rho
# ---------------------------------------------------------------------------

RHO_U_MAX = 500.0
_RHO_BASE_SPACING_EXP = 9  # grid spacing 2^-9, i.e. Simpson panels of width 2^-8
_RHO_MIN_SPACING_EXP = 13

_RHO_CACHE = {}  # spacing exponent -> list of grid values


def _rho_grid(k: int, j_max: int) -> list:
    """Grid values of ρ at spacing 2^−k up to index j_max, extending the
    cached table by the method of steps with Simpson panels."""
    S = 1 << k
    delta = 1.0 / S
    v = _RHO_CACHE.setdefault(k, [1.0] * (S + 1))
    u_of = lambda i: i * delta

    def f(i: int) -> float:
        return v[i - S] / u_of(i)

    j = len(v)
    while j <= j_max:
        if j == S + 1:
            # first step past u = 1: single-interval Simpson, ρ(t−1) = 1
            t0, tm, t1 = 1.0, 1.0 + delta / 2, 1.0 + delta
            val = v[S] - (delta / 6.0) * (1.0 / t0 + 4.0 / tm + 1.0 / t1)
        elif j == 2 * S + 1:
            # restart the odd chain at u = 2 so no panel straddles the kink
            # in ρ''; the midpoint ρ(1 + δ/2) comes from a Hermite patch.
            rm = _hermite(v, S, k, 1.0 + delta / 2)
            t0, tm, t1 = 2.0, 2.0 + delta / 2, 2.0 + delta
            val = v[2 * S] - (delta / 6.0) * (v[S] / t0 + 4.0 * rm / tm + v[S + 1] / t1)
        else:
            val = v[j - 2] - (delta / 3.0) * (f(j - 2) + 4.0 * f(j - 1) + f(j))
        v.append(max(val, 0.0))  # clamp once below double-precision floor
        j += 1
    return v


def _hermite(v: list, S: int, k: int, u: float) -> float:
    """Cubic Hermite interpolation between grid points, using the exact
    delay-ODE derivative ρ'(t) = −ρ(t−1)/t at the panel ends."""
    if u <= 1.0:
        return 1.0
    delta = 1.0 / (1 << k)
    j = int(u / delta)
    if j + 1 >= len(v) + 1:
        raise IndexError("rho grid too short")
    if j + 1 == len(v):
        j -= 1
    u0, u1 = j * delta, (j + 1) * delta
    f0, f1 = v[j], v[j + 1]
    d0 = -v[j - S] / u0 if j >= S else 0.0
    d1 = -v[j + 1 - S] / u1
    s = (u - u0) / delta
    s2, s3 = s * s, s * s * s
    return (
        f0 * (2 * s3 - 3 * s2 + 1)
        + d0 * delta * (s3 - 2 * s2 + s)
        + f1 * (-2 * s3 + 3 * s2)
        + d1 * delta * (s3 - s2)
    )


def _rho_at(k: int, u: float) -> float:
    S = 1 << k
    j_max = int(u * S) + 2
    v = _rho_grid(k, j_max)
    return _hermite(v, S, k, u)


def dickman_rho(u: float, tol: float = 1e-9) -> float:
    """ρ(u) with |error| ≤ tol, by stepping ρ(u) = ρ(k) − ∫ ρ(t−1)/t dt.

    The certificate compares two grids one refinement apart (fourth-order
    scheme, so their gap overestimates the fine-grid error by ~15x).
    """
    if not (0 <= u <= RHO_U_MAX):
        raise ValueError(f"u must lie in [0, {RHO_U_MAX}]")
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    if u <= 1.0:
        return 1.0
    k = _RHO_BASE_SPACING_EXP
    while True:
        fine = _rho_at(k, u)
        coarse = _rho_at(k - 1, u)
        if abs(fine - coarse) / 8.0 <= tol:
            return fine
        if k >= _RHO_MIN_SPACING_EXP:
            raise NonConvergenceError(f"rho(u={u}) did not certify tol={tol}")
        k += 1


@dataclass
class RhoTable:
    """Uniform samples of ρ on [0, u_max] with one certified error bound."""

    step: float
    values: np.ndarray
    tol: float

    def u_grid(self) -> np.ndarray:
        return self.step * np.arange(len(self.values))

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("u,rho,tol\n")
            for u, r in zip(self.u_grid(), self.values):
                fh.write(f"{u!r},{r!r},{self.tol!r}\n")


def rho_table(u_max: float, tol: float = 1e-9) -> RhoTable:
    """Tabulate ρ at the solver's grid spacing up to u_max."""
    if not (0 < u_max <= RHO_U_MAX):
        raise ValueError(f"u_max must lie in (0, {RHO_U_MAX}]")
    k = _RHO_BASE_SPACING_EXP
    S = 1 << k
    while True:
        j_max = int(u_max * S) + 1
        fine = np.array(_rho_grid(k, j_max)[: j_max + 1])
        coarse_v = _rho_grid(k - 1, (j_max + 1) // 2 + 1)
        coarse = np.array([coarse_v[j // 2] if j % 2 == 0 else _hermite(coarse_v, S // 2, k - 1, j / S) for j in range(j_max + 1)])
        err = float(np.max(np.abs(fine - coarse))) / 8.0
        if err <= tol or k >= _RHO_MIN_SPACING_EXP:
            if err > tol:
                raise NonConvergenceError(f"rho table did not certify tol={tol}")
            return RhoTable(1.0 / S, fine, max(err, 1e-16))
        k += 1
        S = 1 << k


# ---------------------------------------------------------------------------
# saddle point and product-formula estimates
# ---------------------------------------------------------------------------


@dataclass
class SaddlePoint:
    """Root of Σ_{p ≤ y} log p / (p^α − 1) = log x, with the residual kept."""

    x: float
    y: float
    alpha: float
    residual: float


def saddle_alpha(x: float, y: float) -> SaddlePoint:
    """Solve the saddle-point equation by Newton iteration seeded with
    1 − log(u log u)/log y, with bisection fallback on (0.01, 1.5)."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if x <= 1:
        raise ValueError("x must be > 1")
    if y > SADDLE_PRIME_CAPACITY:
        raise CapacityError(f"y = {y} exceeds prime-sum capacity {SADDLE_PRIME_CAPACITY}")

    primes = prime_array(int(floor(y))).astype(np.float64)
    logs = np.log(primes)
    target = log(x)

    def g_and_slope(a: float):
        pa = primes**a
        gap = pa - 1.0
        return float(np.sum(logs / gap)), float(-np.sum(logs * logs * pa / (gap * gap)))

    lo_a, hi_a = 0.01, 1.5
    g_lo, _ = g_and_slope(lo_a)
    g_hi, _ = g_and_slope(hi_a)
    if not (g_hi <= target <= g_lo):
        raise NonConvergenceError(f"saddle point for (x={x}, y={y}) outside (0.01, 1.5)")

    u = target / log(y)
    a = 1.0 - log(u * log(u)) / log(y) if u > 1 else 1.0
    if not (lo_a < a < hi_a):
        a = 0.5 * (lo_a + hi_a)

    for _ in range(200):
        g, slope = g_and_slope(a)
        res = g - target
        if abs(res) <= 1e-11 * target:
            return SaddlePoint(x, y, a, res)
        if hi_a - lo_a < 5e-16 * a:  # bracket exhausted at double precision
            break
        if res > 0:
            lo_a = a  # g decreasing: root is to the right
        else:
            hi_a = a
        step = res / slope
        nxt = a - step
        if not (lo_a < nxt < hi_a):
            nxt = 0.5 * (lo_a + hi_a)
        a = nxt
    raise NonConvergenceError(f"saddle iteration failed for (x={x}, y={y})")


def hildebrand_estimate(x: float, y: float) -> float:
    """x·ρ(log x / log y).  Outside the classical validity range
    exp((log log x)^{5/3}) ≤ y ≤ x a warning is emitted, never an error."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if x < 1:
        raise ValueError("x must be >= 1")
    u = log(x) / log(y)
    if u <= 1.0:
        return float(x)
    if x > exp(exp(1.0)):
        y_floor = exp(log(log(x)) ** (5.0 / 3.0))
        if y < y_floor or y > x:
            warnings.warn(
                f"(x={x:g}, y={y:g}) outside the smooth-count estimate range",
                EstimateRangeWarning,
                stacklevel=2,
            )
    return x * dickman_rho(u)


def psi_q_estimate(x: float, y: float, q: int, alpha: float = None) -> float:
    """Ψ(x,y) · Π_{p | q, p ≤ y} (1 − p^{−α(x,y)}).

    Uses the exact count when x is within sieve capacity, the ρ-based
    estimate otherwise.  The Euler product is restricted to p ≤ y (the
    y-smooth part of q carries all the coprimality information); primes of q
    above y trigger a warning.  `alpha` overrides the saddle point (test
    hook).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if y < 2 or x < 2:
        raise ValueError("need x, y >= 2")
    if not ((log(x)) ** 4 <= y <= x):
        warnings.warn(f"(x={x:g}, y={y:g}) violates (log x)^4 <= y <= x", EstimateRangeWarning, stacklevel=2)
    base = float(psi(x, y)) if floor(x) <= PSI_CAPACITY else hildebrand_estimate(x, y)
    if q == 1:
        return base
    ps = distinct_prime_factors(q)
    if len(ps) > log(x):
        warnings.warn(f"omega(q) = {len(ps)} exceeds log x", EstimateRangeWarning, stacklevel=2)
    if ps and max(ps) > y:
        warnings.warn(f"P+(q) = {max(ps)} exceeds y = {y:g}; product restricted to p <= y", EstimateRangeWarning, stacklevel=2)
        ps = [p for p in ps if p <= y]
    if not ps:
        return base
    if alpha is None:
        alpha = saddle_alpha(x, y).alpha
    prod = 1.0
    for p in ps:
        prod *= 1.0 - p ** (-alpha)
    return base * prod


def doubling_factor(x: float, y: float, alpha: float = None) -> float:
    """2^{α(x,y)}: the exact-count doubling law Ψ(2x,y) ≈ 2^α Ψ(x,y)."""
    if alpha is None:
        alpha = saddle_alpha(x, y).alpha
    return 2.0**alpha


def largest_prime_factor_array(ns: np.ndarray) -> np.ndarray:
    """P⁺ for every entry of ns (batched trial division; P⁺(1) = 1)."""
    ns = np.asarray(ns, dtype=np.int64)
    if len(ns) == 0:
        return ns.copy()
    if int(ns.min()) < 1:
        raise ValueError("entries must be >= 1")
    rem = ns.copy()
    lpf = np.ones(len(ns), dtype=np.int64)
    for p in prime_array(isqrt(int(ns.max()))).tolist():
        mask = rem % p == 0
        if mask.any():
            lpf[mask] = p
            sub = rem[mask] // p
            while True:
                m2 = sub % p == 0
                if not m2.any():
                    break
                sub[m2] //= p
            rem[mask] = sub
    # leftover cofactors have no factor <= sqrt(max), hence are prime
    return np.maximum(lpf, np.where(rem > 1, rem, 1))


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
    factors = factorize(n).factors
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
