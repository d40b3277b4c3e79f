"""Integer-arithmetic substrate: primes, factorization, P⁺, modular inverses.

Everything here is exact.  One cached sieve of Eratosthenes is the only prime
source, and factorization is plain trial division against it (desk scale).
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import CapacityError

# the default factor table's reach: every n < 1e14 factors without CapacityError
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


_FACTOR_TABLE = PrimeTable(1, [])  # the cached primes as a list, for factorize


def factorize(n: int) -> list:
    """[(p, e), …] with n = Π pᵉ and the primes strictly increasing, empty
    for n = 1: trial division of n against the cached table.

    The table is the cached primes, grown (at least doubling, but never past
    FACTOR_PRIME_LIMIT) to cover min(√n, FACTOR_PRIME_LIMIT), so the answer
    does not depend on what earlier calls grew it to.  A leftover cofactor
    with no prime factor ≤ table.limit is prime when it is below
    (table.limit + 1)²; one the table cannot certify raises CapacityError.
    """
    global _FACTOR_TABLE
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = min(isqrt(n), FACTOR_PRIME_LIMIT)
    if limit > _FACTOR_TABLE.limit:
        _FACTOR_TABLE = sieve_primes(min(max(limit, 2 * _FACTOR_TABLE.limit), FACTOR_PRIME_LIMIT))
    table = _FACTOR_TABLE
    factors = []
    rem = n
    exhausted = True
    for p in table.primes:
        if p * p > rem:
            exhausted = False
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if rem > 1:
        # If the loop broke on p² > rem the cofactor is certified prime;
        # otherwise it has no factor <= table.limit and is prime only when
        # rem < (table.limit + 1)².
        if exhausted and rem > table.limit * (table.limit + 2):
            raise CapacityError(f"prime table (limit {table.limit}) cannot certify cofactor {rem}")
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
