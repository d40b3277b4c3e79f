import cmath
import math
import random
from math import cos, gcd, pi, sqrt

import numpy as np
import pytest

from smoothdio import expsums
from smoothdio.arith import coprime_count, inverse_mod, largest_prime_factor, product_dtype, sieve_primes
from smoothdio.errors import BudgetExceededError, CapacityError
from smoothdio.expsums import (
    complete_kloosterman,
    kl_smooth_average,
    kloos_bound_rhs,
    optimal_z,
)
from smoothdio.smooth import smooth_sieve


def kl_naive(M, x, a, q, y):
    """Independent double loop, no shared code with the library path."""
    total = 0.0
    m = math.floor(M) + 1
    while m <= math.floor(2 * M):
        s = 0j
        n = 1
        while n < x:
            if largest_prime_factor(n) <= y and gcd(n, m * q) == 1:
                s += cmath.exp(2j * pi * ((a * pow(n, -1, m)) % m) / m)
            n += 1
        total += abs(s)
        m += 1
    return total


def ramanujan_sum(b, c):
    """c_c(b) = sum over d | gcd(b, c) of d * mu(c/d)."""

    def mu(n):
        out = 1
        for p in range(2, n + 1):
            if p * p > n:
                break
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
        if n > 1:
            out = -out
        return out

    g = gcd(b, c) if b else c
    return sum(d * mu(c // d) for d in range(1, g + 1) if g % d == 0)


def test_complete_kloosterman_examples():
    for c in (1, 2, 7, 12, 36):
        assert complete_kloosterman(0, 0, c) == pytest.approx(coprime_count(c, c), abs=1e-9)
    assert complete_kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
    assert complete_kloosterman(1, 1, 5) == pytest.approx(2 + 2 * cos(4 * pi / 5), abs=1e-12)


def test_complete_kloosterman_direct_oracle():
    rng = random.Random(4004)
    for _ in range(30):
        c = rng.randint(1, 120)
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        s = 0j
        for n in range(c):
            if gcd(n, c) == 1:
                nbar = pow(n, -1, c)
                s += cmath.exp(2j * pi * ((a * n + b * nbar) % c) / c)
        assert complete_kloosterman(a, b, c) == pytest.approx(s.real, abs=1e-9)


def test_weil_bound_slice():
    # acceptance covers p <= 2003; a fast slice here
    primes = [p for p in sieve_primes(300).primes if p > 2]
    rng = random.Random(4004)
    for p in primes:
        for _ in range(10):
            a = rng.randint(1, p - 1)
            assert abs(complete_kloosterman(a, 1, p)) <= 2 * sqrt(p) + 1e-9


def test_complete_kloosterman_zero_a_is_ramanujan():
    # S(0, b; c) is the Ramanujan sum c_c(b); complete_kloosterman refuses an imaginary part above 1e-9
    rng = random.Random(4004)
    for c in range(2, 201):
        for b in rng.sample(range(0, 201), 12):
            assert complete_kloosterman(0, b, c) == pytest.approx(ramanujan_sum(b, c), abs=1e-8)


def test_kl_smooth_average_trivial_x():
    # x <= 2: the inner sum is the single term n = 1
    assert kl_smooth_average(5.5, 2, 3, 1, 7) == pytest.approx(11 - 5, abs=1e-12)


def test_kl_smooth_average_oracle():
    rng = random.Random(4004)
    for _ in range(8):
        M = rng.uniform(2, 25)
        x = rng.uniform(2, 60)
        a = rng.choice([v for v in range(-20, 21) if v != 0])
        q = rng.randint(1, 12)
        y = rng.uniform(2, 40)
        assert kl_smooth_average(M, x, a, q, y) == pytest.approx(kl_naive(M, x, a, q, y), abs=1e-8)


def test_kl_trivial_bound():
    from smoothdio.smooth import psi

    rng = random.Random(4004)
    for _ in range(10):
        M = rng.uniform(2, 20)
        x = rng.uniform(2, 50)
        y = rng.uniform(2, 50)
        v = kl_smooth_average(M, x, 1, 1, y)
        count_m = math.floor(2 * M) - math.floor(M)
        assert v <= count_m * psi(math.ceil(x) - 1, y) + 1e-9


def test_kl_budget():
    with pytest.raises(BudgetExceededError):
        kl_smooth_average(100, 100, 1, 1, 50, budget=10)


def test_kl_refuses_a_modulus_over_capacity_before_the_sieve(monkeypatch):
    def refuse(*args):
        raise AssertionError("x was sieved before the modulus cap was checked")

    monkeypatch.setattr(expsums, "kl_members", refuse)
    with pytest.raises(CapacityError, match="modulus 2000002"):
        kl_smooth_average(1_000_001, 10**7, 1, 1, 50)


@pytest.mark.parametrize(
    "x, y, q",
    [
        (400, 1000, 1),  # y >= x: every n < x
        (400, 1000, 6),
        (300, 1.5, 1),  # y < 2: the set {1}
        (2, 7, 1),  # x = 2: the set {1}
        (300, 0.5, 1),  # y < 1: the empty set
        (3003, 66, 31),
        (500, 13, 30),  # q and many m share 2, 3 and 5
        (600, 50, 2),  # no even n: every dyadic level holds odd n's only
    ],
)
def test_member_inverses_equal_inverse_mod(monkeypatch, x, y, q):
    members, pplus = smooth_sieve(1, math.ceil(x) - 1, y, q)
    ns = np.flatnonzero(members) + 1
    pplus = pplus[members]
    assert pplus.tolist() == [largest_prime_factor(n) for n in ns.tolist()]
    # the default block, blocks of 3 moduli, and one modulus per block
    for block in (expsums._INVERSE_BLOCK, 3 * len(ns) + 1, 1):
        monkeypatch.setattr(expsums, "_INVERSE_BLOCK", block)
        blocks = list(expsums._member_inverses(ns, pplus, 1, 61))
        assert np.concatenate([ms for ms, _ in blocks]).tolist() == list(range(1, 62))
        for ms, inv in blocks:
            assert ms.dtype == inv.dtype == product_dtype(60**2, "residue products")  # every residue product is below m_hi²
            for m, row in zip(ms.tolist(), inv):
                assert row.tolist() == inverse_mod(ns, m).tolist(), (block, m)


@pytest.mark.parametrize(
    "x, a, q, y, m_lo, m_hi",
    [
        (300, -7, 6, 13, 41, 80),
        (421, 5, 1, 30, 62, 122),
        (1000, 10**21 + 7, 2, 1000, 98, 194),  # y >= x; a past int64
        (40, 3, 1, 7, 46_201, 46_341),  # (m_hi - 1)² < 2³¹: int32
        (40, -3, 5, 7, 46_202, 46_342),  # int64
    ],
)
def test_kl_blocks_equal_the_per_modulus_path(monkeypatch, x, a, q, y, m_lo, m_hi):
    """The block kernel of kl_smooth_average has the bits of
    Σ_m hypot(*_inverse_sum(n̄ row, a, m)), one modulus at a time from
    inverse_mod, whatever the block and the dtype."""
    ns, pplus = expsums.kl_members(x, q, y)
    ms = range(m_lo, m_hi + 1)
    want = sum((math.hypot(*expsums._inverse_sum(inverse_mod(ns, m), a, m)) for m in ms), 0.0)
    assert product_dtype((m_hi - 1) ** 2, "residue products") == (np.int32 if m_hi <= 46_341 else np.int64)
    # the default block, blocks of 3 moduli, and one modulus per block
    for block in (expsums._INVERSE_BLOCK, 3 * len(ns), 1):
        monkeypatch.setattr(expsums, "_INVERSE_BLOCK", block)
        got = sum(expsums._abs_inverse_sums(a, expsums._member_inverses(ns, pplus, m_lo, m_hi)), 0.0)
        assert got.hex() == want.hex(), block
    if m_hi == 2 * (m_lo - 1):  # the moduli (M, 2M] of M = m_lo - 1: through kl_smooth_average too
        assert kl_smooth_average(m_lo - 1, x, a, q, y).hex() == want.hex()


def kl_naive_tail(M, x, a, q, y, z):
    """Same as kl_naive but restricted to n > z."""
    total = 0.0
    for m in range(math.floor(M) + 1, math.floor(2 * M) + 1):
        s = 0j
        n = 1
        while n < x:
            if n > z and largest_prime_factor(n) <= y and gcd(n, m * q) == 1:
                s += cmath.exp(2j * pi * ((a * pow(n, -1, m)) % m) / m)
            n += 1
        total += abs(s)
    return total


def test_splitting_consistency():
    # Kl_y(M, x; a, q) <= (sum restricted to n > z) + M z, exactly
    rng = random.Random(4004)
    for _ in range(6):
        M = rng.uniform(2, 15)
        x = rng.uniform(10, 60)
        a = rng.choice([v for v in range(1, 10)])
        q = rng.randint(1, 6)
        y = rng.uniform(2, 30)
        for z in (y, sqrt(x)):
            full = kl_smooth_average(M, x, a, q, y)
            tail = kl_naive_tail(M, x, a, q, y, z)
            assert full <= tail + M * z + 1e-9


def test_kloos_bound_rhs_formula():
    M, x, y, z, a, eta = 1e3, 1e3, 30, 1e2, 10**6, 0.01
    expect = (abs(a) * x * M) ** eta * (1 + abs(a) / (x * M)) ** 0.5 * (
        M * x**0.5 * y**0.5 * z**0.5 + x**1.5 * M**0.5 * z**-0.25
    ) + M * z
    assert kloos_bound_rhs(M, x, a, y, z, eta) == pytest.approx(expect, rel=1e-14)


def test_kloos_params_validation():
    with pytest.raises(ValueError, match="M must be >= 2"):
        kloos_bound_rhs(1, 10, 1, 2, 3, 0.1)
    with pytest.raises(ValueError, match="need 2 <= y <= z < x"):
        kloos_bound_rhs(2, 10, 1, 5, 3, 0.1)  # y > z
    with pytest.raises(ValueError, match="need 2 <= y <= z < x"):
        kloos_bound_rhs(2, 10, 1, 2, 10, 0.1)  # z = x
    with pytest.raises(ValueError, match="a must be nonzero"):
        kloos_bound_rhs(2, 10, 0, 2, 3, 0.1)
    with pytest.raises(ValueError, match="eta must be > 0"):
        kloos_bound_rhs(2, 10, 1, 2, 3, 0.0)


def test_main_terms_balance_at_exponent_choice():
    # M y^{1/2} x^{1/2} z^{1/2} equals x^{3/2} M^{1/2} z^{-1/4} at
    # z = (x / (M^{1/2} y^{1/2}))^{4/3}
    rng = random.Random(4004)
    for _ in range(20):
        x = rng.uniform(10, 1e6)
        M = rng.uniform(2, x)
        y = rng.uniform(2, 50)
        z = (x / (M**0.5 * y**0.5)) ** (4.0 / 3.0)
        lhs = M * y**0.5 * x**0.5 * z**0.5
        rhs = x**1.5 * M**0.5 * z**-0.25
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_optimal_z():
    assert optimal_z(1e6, 1e2) == pytest.approx(1e4)
    y = 1e4 ** (2 / 3)
    assert optimal_z(1e4, y * (1 + 1e-13)) >= y  # clamp boundary
    rng = random.Random(4004)
    for _ in range(50):
        x = rng.uniform(3, 1e9)
        y = rng.uniform(2, x * 0.99)
        z = optimal_z(x, y)
        assert y <= z < x
    with pytest.raises(ValueError):
        optimal_z(100, 100)


def test_kl_ratio_diagnostic_report():
    # report only: empirical ratio value / bound at eta = 0.05
    rows = []
    for (M, x, y) in ((10, 40, 5), (20, 80, 10), (30, 120, 20)):
        v = kl_smooth_average(M, x, 3, 2, y)
        z = optimal_z(x, y)
        rhs = kloos_bound_rhs(M, x, 3, y, z, 0.05)
        rows.append((M, x, y, v / rhs))
    print("Kl/bound ratios (eta=0.05):", rows)
    assert all(r[3] < 10 for r in rows)
