"""Integer-arithmetic substrate: primes, factorization, P⁺, modular inverses.

Everything here is exact.  One cached sieve of Eratosthenes is the only prime
source, and factorization is trial division by its primes, read in place.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import CapacityError

# factorize divides by the primes up to this: every n < 1e14 factors without CapacityError
FACTOR_PRIME_LIMIT = 10_000_000


@dataclass
class PrimeTable:
    """All primes ≤ limit, in increasing order."""

    limit: int
    primes: list


def sieve_primes(limit: int) -> PrimeTable:
    """All primes ≤ limit; limit < 2 yields an empty table."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return PrimeTable(limit, prime_array(limit).tolist())


_PRIMES = np.zeros(0, dtype=np.int64)  # every prime <= _PRIMES_LIMIT, read-only
_PRIMES_LIMIT = 1


def prime_array(limit: int) -> np.ndarray:
    """Primes ≤ limit as a read-only int64 array.

    The only sieve of Eratosthenes: one cached table, grown (at least
    doubling) when a larger limit is asked for, and served as slices.  The
    sieve holds the odd numbers only, so it strikes half the flags.
    """
    global _PRIMES, _PRIMES_LIMIT
    if limit > _PRIMES_LIMIT:
        top = max(limit, 2 * _PRIMES_LIMIT, 1 << 16)
        odd = np.ones((top - 1) // 2, dtype=bool)  # odd[i] ⇔ 2i + 3 is prime
        for i in range((isqrt(top) - 1) // 2):
            if odd[i]:
                p = 2 * i + 3
                odd[(p * p - 3) // 2 :: p] = False
        _PRIMES = np.concatenate(([2], 2 * np.flatnonzero(odd) + 3)).astype(np.int64)
        _PRIMES.flags.writeable = False
        _PRIMES_LIMIT = top
    return _PRIMES[: np.searchsorted(_PRIMES, limit, side="right")]


def factorize(n: int) -> list:
    """[(p, e), …] with n = Π pᵉ and the primes strictly increasing, empty
    for n = 1: trial division of n by the cached primes up to
    limit = min(√n, FACTOR_PRIME_LIMIT), however far the table has grown, so
    the answer does not depend on earlier calls.  A leftover cofactor with
    no prime factor ≤ limit is prime when it is below (limit + 1)²; one the
    primes cannot certify raises CapacityError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = min(isqrt(n), FACTOR_PRIME_LIMIT)
    if limit > _PRIMES_LIMIT:
        prime_array(limit)
    factors = []
    rem = n
    for p in memoryview(_PRIMES):  # Python ints, with no list built
        if p > limit or p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    # a break on p² > rem leaves a prime rem < limit²; otherwise rem has no
    # factor <= limit and is prime only when rem < (limit + 1)²
    if rem > limit * (limit + 2):
        raise CapacityError(f"prime table (limit {limit}) cannot certify cofactor {rem}")
    if rem > 1:
        factors.append((rem, 1))
    return factors


def largest_prime_factor(n: int) -> int:
    """P⁺(n), with P⁺(1) = 1."""
    factors = factorize(n)
    return factors[-1][0] if factors else 1


def distinct_prime_factors(n: int) -> list:
    """Distinct prime divisors of n, increasing."""
    return [p for p, _ in factorize(n)]


def coprime_count(n: int, q: int) -> int:
    """#{1 ≤ r ≤ n : gcd(r, q) = 1}, by inclusion–exclusion over the primes
    of q."""
    terms = [(1, 1)]  # (squarefree d | q, μ(d))
    for p in distinct_prime_factors(q):
        terms += [(d * p, -mu) for d, mu in terms]
    return sum(mu * (n // d) for d, mu in terms)


def inverse_mod(ns, c) -> np.ndarray:
    """n̄ mod c for every entry of ns, as int64: the inverse in [0, c) for a
    unit, −1 for a non-unit, and 0 for every n when c = 1.

    c is one modulus or an array of moduli that broadcasts against ns (say
    a column of moduli against a row of n's); every entry must be ≥ 1.  The
    extended Euclidean algorithm runs on all entries at once; a finished
    lane is frozen by np.where until the slowest one ends (O(log c) rounds).
    """
    c = np.asarray(c, dtype=np.int64)
    if c.size and int(c.min()) < 1:
        raise ValueError("c must be >= 1")
    r1 = np.asarray(ns, dtype=np.int64) % c
    r0 = np.broadcast_to(c, r1.shape)
    t0, t1 = np.zeros_like(r1), np.ones_like(r1)  # invariant: t·n ≡ r (mod c)
    while np.count_nonzero(r1):
        live = r1 != 0
        quo, rem = np.divmod(r0, np.where(live, r1, 1))  # a finished lane divides by 1: rem stays 0
        r0, r1 = np.where(live, r1, r0), rem
        t0, t1 = np.where(live, t1, t0), np.where(live, t0 - quo * t1, t1)
    return np.where(r0 == 1, t0 % c, -1)


def product_dtype(largest: int, what: str) -> np.dtype:
    """The narrowest of int32 and int64 that holds every value a kernel
    forms, given the largest one its operand bounds admit: int32 below 2³¹,
    int64 below 2⁶³.  A larger value would wrap around silently, so it
    raises CapacityError, naming the values as `what`: "residue products"
    for the pair kernels, "integers" for the P⁺ kernels."""
    if largest < 2**31:
        return np.dtype(np.int32)
    if largest < 2**63:
        return np.dtype(np.int64)
    raise CapacityError(f"{what} up to {largest} exceed int64")
