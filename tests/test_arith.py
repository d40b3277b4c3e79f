import random
from math import gcd, prod

import numpy as np
import pytest

from smoothdio import arith
from smoothdio.arith import (
    coprime_count,
    distinct_prime_factors,
    factorize,
    inverse_mod,
    largest_prime_factor,
    prime_array,
    product_dtype,
    sieve_primes,
)
from smoothdio.errors import CapacityError
from smoothdio.expsums import inverse_table


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def test_sieve_small():
    assert sieve_primes(10).primes == [2, 3, 5, 7]
    assert sieve_primes(1).primes == []
    assert sieve_primes(0).primes == []
    assert sieve_primes(2).primes == [2]


def test_sieve_against_trial_division():
    t = sieve_primes(30)
    assert len(t.primes) == 10
    assert t.primes[-1] == 29
    assert sieve_primes(5000).primes == trial_division_primes(5000)


def full_sieve_primes(limit):
    """Primes <= limit from a plain sieve over every integer."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _reset_prime_cache(monkeypatch):
    monkeypatch.setattr(arith, "_PRIMES", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(arith, "_PRIMES_LIMIT", 1)


def _check_prime_table(top):
    # the cache was built to exactly `top`, and every prefix it serves is the oracle's
    assert arith._PRIMES_LIMIT == top
    want = full_sieve_primes(top)
    for limit in (top, top - 1, top // 2 + 1, 2, 1, 0):
        got = prime_array(limit)
        assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(got, want[want <= limit])


@pytest.mark.parametrize("top", [65537, 66049, 66048, 66050])  # 65537 prime, 66049 = 257²
def test_prime_array_odd_and_square_edges(monkeypatch, top):
    _reset_prime_cache(monkeypatch)
    prime_array(top)
    _check_prime_table(top)


def test_prime_array_growth(monkeypatch):
    _reset_prime_cache(monkeypatch)
    for top in (1 << 16, 1 << 17, 10**6):
        prime_array(top)
        _check_prime_table(top)


def _small_factor_table(monkeypatch, limit):
    # factorize divides by the cached primes up to `limit` only, however far the table has grown
    monkeypatch.setattr(arith, "FACTOR_PRIME_LIMIT", limit)


def test_factorize_examples(monkeypatch):
    _small_factor_table(monkeypatch, 1000)
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(9991) == [(97, 1), (103, 1)]


def test_factorize_insufficient_table(monkeypatch):
    _small_factor_table(monkeypatch, 10)
    with pytest.raises(CapacityError):
        factorize(10007 * 10009)


@pytest.mark.parametrize("grow_first", [False, True])
def test_factorize_answer_does_not_depend_on_earlier_calls(monkeypatch, grow_first):
    # two primes above the 1e7 cap: refused from a fresh table, and still refused
    # after the table has grown past the cap to 2e7, as psi may grow it
    _reset_prime_cache(monkeypatch)
    if grow_first:
        prime_array(20_000_000)
        assert arith._PRIMES_LIMIT > arith.FACTOR_PRIME_LIMIT
    n = 10000019 * 10000079
    with pytest.raises(CapacityError):
        factorize(n)


def test_factorize_certifies_cofactors_below_next_square(monkeypatch):
    # no prime factor <= 10 and below 11²: prime; 11² itself is not certified
    _small_factor_table(monkeypatch, 10)
    assert factorize(113) == [(113, 1)]
    with pytest.raises(CapacityError):
        factorize(121)


def oracle_factors(n):
    """Trial division by every d >= 2, independent of any prime table."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_default_table_against_trial_division():
    rng = random.Random(7)
    ns = list(range(1, 3001)) + [rng.randint(3001, 10**5) for _ in range(3000)] + [10**5]
    for n in ns:
        assert factorize(n) == oracle_factors(n), n
    # near 10^12: a prime square, a product of two primes near 10^6, a power
    # of two and neighbours of 10^12
    for n in (1000003**2, 999983 * 1000003, 2**40, 10**12 - 1, 10**12 + 39):
        assert factorize(n) == oracle_factors(n), n


def test_largest_prime_factor_against_trial_division():
    for n in range(1, 5001):
        expected = oracle_factors(n)
        assert largest_prime_factor(n) == (expected[-1][0] if expected else 1)
        assert distinct_prime_factors(n) == [p for p, _ in expected]


def test_factorize_reconstruct_identity_to_1e6(monkeypatch):
    _small_factor_table(monkeypatch, 1000)
    for n in range(1, 1_000_001):
        assert prod(p**e for p, e in factorize(n)) == n


def test_largest_prime_factor():
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(12) == 3
    assert largest_prime_factor(1024) == 2
    assert largest_prime_factor(9991) == 103


def test_gcd_substitution_identity():
    # gcd(u, k·u2·(u+u2)) == gcd(u, k·u2²) on random triples
    rng = random.Random(1001)
    for _ in range(10_000):
        u = rng.randint(1, 10**6)
        u2 = rng.randint(1, 10**6)
        k = rng.choice([kk for kk in range(-1000, 1001) if kk != 0])
        assert gcd(u, k * u2 * (u + u2)) == gcd(u, k * u2 * u2)


def test_inverse_table_against_pow():
    for c in (1, 2, 3, 4, 12, 97, 100, 101, 1001, 7919, 7921, 65536):
        tab = inverse_table(c)
        assert len(tab) == c
        if c == 1:
            assert tab.tolist() == [0]
            continue
        for n in range(c):
            assert tab[n] == (pow(n, -1, c) if gcd(n, c) == 1 else -1), (c, n)


def _pow_inverses(ns, c):
    """The oracle: pow(n, -1, c) for units, −1 for non-units, 0 mod 1."""
    return [0 if c == 1 else pow(n, -1, c) if gcd(n, c) == 1 else -1 for n in ns]


def test_inverse_mod_against_pow():
    rng = random.Random(1002)
    cases = [(c, range(c)) for c in (1, 2, 3, 4, 12, 30, 97, 100, 101, 1001, 7919, 7921)]
    cases.append((1, [0, 1, 5, 10**12]))
    cases.append((2, [0, 1, 2, 3, 10**12 + 1]))
    cases.append((12, [12, 13, 24, 35, 10**15 + 7]))  # n >= c reduces mod c
    cases += [(c, [rng.randrange(3 * c) for _ in range(500)]) for c in (rng.randint(2, 10**6) for _ in range(20))]
    cases.append((2_000_000, [0, 1, 2, 3, 1_999_999, 2_000_001] + [rng.randrange(2_000_000) for _ in range(3000)]))
    for c, ns in cases:
        got = inverse_mod(np.array(list(ns), dtype=np.int64), c)
        assert got.dtype == np.int64
        assert got.tolist() == _pow_inverses(ns, c), c


def test_inverse_mod_edges():
    assert inverse_mod(np.zeros(0, dtype=np.int64), 7).tolist() == []
    with pytest.raises(ValueError):
        inverse_mod(np.arange(3), 0)


def test_coprime_count():
    for q in (1, 2, 12, 30, 97, 210, 1001, 30030):
        for n in (0, 1, 5, 29, 30, 211, 1000):
            assert coprime_count(n, q) == sum(1 for r in range(1, n + 1) if gcd(r, q) == 1), (n, q)


def test_inverse_mod_broadcasts_the_modulus():
    rng = random.Random(1003)
    ns = [0, 1, 2, 3, 6, 7, 35, 97, 10**12 + 1] + [rng.randrange(10**6) for _ in range(200)]
    ms = [1, 2, 3, 12, 30, 97, 1001, 7921] + [rng.randint(2, 2 * 10**6) for _ in range(40)]
    table = inverse_mod(np.array(ns)[None, :], np.array(ms)[:, None])
    assert table.dtype == np.int64 and table.shape == (len(ms), len(ns))
    for m, row in zip(ms, table):
        assert row.tolist() == _pow_inverses(ns, m) == inverse_mod(np.array(ns), m).tolist(), m
    # one n against a column of moduli, and a modulus array of the same shape as ns
    assert inverse_mod(5, np.array(ms)).tolist() == [_pow_inverses([5], m)[0] for m in ms]
    assert inverse_mod(np.array(ns[:8]), np.array(ms[:8])).tolist() == [
        _pow_inverses([n], m)[0] for n, m in zip(ns[:8], ms[:8])
    ]
    # every entry of c is checked
    for bad in ([3, 0, 5], [7, 11, -2], [[4], [0]]):
        with pytest.raises(ValueError):
            inverse_mod(np.arange(4), np.array(bad))


def test_product_dtype_bounds():
    # the largest product each dtype holds, and the first it does not
    assert product_dtype(0, "residue products") == product_dtype(2**31 - 1, "residue products") == np.int32
    assert product_dtype(2**31, "residue products") == product_dtype(2**63 - 1, "residue products") == np.int64
    # the refusal names the values as its caller does
    with pytest.raises(CapacityError, match=r"^residue products up to 9223372036854775808 exceed int64$"):
        product_dtype(2**63, "residue products")
    with pytest.raises(CapacityError, match=r"^integers up to 9223372036854775808 exceed int64$"):
        product_dtype(2**63, "integers")


def test_inverse_table_is_read_only():
    tab = inverse_table(101)
    with pytest.raises(ValueError):
        tab[5] = 0
    assert inverse_table(101)[5] == pow(5, -1, 101)
    with pytest.raises(CapacityError):
        inverse_table(2_000_001)
    with pytest.raises(ValueError):
        inverse_table(0)
