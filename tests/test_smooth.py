import math
import random
from math import floor, gcd, isqrt, log

import numpy as np
import pytest

from smoothdio import smooth
from smoothdio.arith import largest_prime_factor, prime_array
from smoothdio.errors import CapacityError, NonConvergenceError
from smoothdio.smooth import (
    RHO_U_MAX,
    SADDLE_PRIME_CAPACITY,
    dickman_rho,
    largest_prime_factor_array,
    local_density,
    pplus_sieve,
    psi,
    saddle_alpha,
    smooth_decompose,
    smooth_sieve,
)


def smooth_members_oracle(limit, y):
    """All y-smooth n <= limit by DFS over prime powers (independent of the
    sieve code path)."""
    ps = [p for p in range(2, int(min(y, limit)) + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]
    out = []

    def rec(i, val):
        out.append(val)
        for j in range(i, len(ps)):
            if val * ps[j] > limit:
                break
            rec(j, val * ps[j])

    rec(0, 1)
    return sorted(out)


# ---------------------------------------------------------------------------
# sieve and exact counts
# ---------------------------------------------------------------------------


def test_smooth_sieve_examples():
    members, pplus = smooth_sieve(1, 10, 3, 1)
    assert (np.flatnonzero(members) + 1).tolist() == [1, 2, 3, 4, 6, 8, 9]
    assert pplus[members].tolist() == [1, 2, 3, 2, 3, 2, 3]
    assert smooth_sieve(5, 30, 50, 1)[0].all()  # y >= hi
    members, _ = smooth_sieve(100, 110, 7, 1)
    assert (np.flatnonzero(members) + 100).tolist() == [100, 105, 108]


def test_smooth_sieve_coprime_flags():
    members, pplus = smooth_sieve(1, 50, 10, 6)
    for n in range(1, 51):
        assert members[n - 1] == (gcd(n, 6) == 1 and largest_prime_factor(n) <= 10)
        assert (pplus[n - 1] <= 10) == (largest_prime_factor(n) <= 10)


def test_smooth_sieve_against_scalar_oracle():
    rng = random.Random(8)
    cases = [
        (1, 600, 7.5, 12),  # non-integer y below sqrt(hi), q with a repeated prime
        (1000, 1400, 40, 2 * 7**2),  # lo > 1, y above sqrt(hi)
        (500, 900, 13, 101),  # prime q > y
        (3, 800, 11, 1009),  # prime q > hi: no multiple in the window
        (50, 60, 2, 1),
        (7, 7, 1.5, 7),
    ]
    for _ in range(25):
        lo = rng.randint(1, 5000)
        hi = lo + rng.randint(0, 700)
        cases.append((lo, hi, rng.choice([rng.uniform(1, 90), rng.randint(2, 200)]), rng.randint(1, 4000)))
    for lo, hi, y, q in cases:
        members, pplus = smooth_sieve(lo, hi, y, q)
        assert len(members) == len(pplus) == hi - lo + 1
        for n in range(lo, hi + 1):
            big = largest_prime_factor(n)
            assert members[n - lo] == (big <= y and gcd(n, q) == 1), (lo, hi, y, q, n)
            # P⁺ ≤ y is read from pplus, which is then P⁺ itself
            assert (pplus[n - lo] <= y) == (big <= y), (lo, hi, y, q, n)
            if big <= y:
                assert pplus[n - lo] == big, (lo, hi, y, q, n)


@pytest.mark.parametrize("segment", [smooth._PPLUS_SEGMENT, 97])
def test_pplus_sieve_against_scalar_oracle(monkeypatch, segment):
    monkeypatch.setattr(smooth, "_PPLUS_SEGMENT", segment)  # 97: many segments per window
    for lo, hi in ((1, 3000), (10**6, 10**6 + 500), (2**31 - 300, 2**31 + 300)):
        full = pplus_sieve(lo, hi, isqrt(hi))
        assert full.tolist() == [largest_prime_factor(n) for n in range(lo, hi + 1)]
        # below sqrt(hi) the value still decides P+ <= y exactly for y <= pmax
        part = pplus_sieve(lo, hi, 23)
        for y in (2, 5, 10, 23):
            assert ((part <= y) == (full <= y)).all()


def test_psi_across_table_growth(monkeypatch):
    import bisect

    monkeypatch.setattr(smooth, "_LEAF", None)  # the leaf table is rebuilt on first use
    members = {y: smooth_members_oracle(30000, y) for y in (2, 3, 10, 97, 150)}
    for x in (9000, 2500, 30000, 17, 29999.5, smooth.PSI_LEAF, smooth.PSI_LEAF + 1):  # leaves and recursion
        for y, ms in members.items():
            assert psi(x, y) == bisect.bisect_right(ms, x), (x, y)
        assert psi(x, x) == psi(x, x + 1) == math.floor(x)  # y >= x
    assert smooth._LEAF.shape == (len(prime_array(smooth.PSI_LEAF)), smooth.PSI_LEAF + 1) == (309, 2049)


def test_psi_against_the_pplus_sieve():
    top = 2_000_000
    pplus = pplus_sieve(1, top, isqrt(top))
    T = smooth.PSI_LEAF
    rng = random.Random(3005)
    xs = [1, 2, T - 1, T, T + 1, 2 * T, 2 * T + 1, top] + [rng.randint(1, top) for _ in range(60)]
    xs += [rng.randint(1, 20 * T) for _ in range(60)]
    for x in xs:
        for y in {2, 3, 2039, 2048, 2053, rng.randint(2, 60), rng.randint(2, 3000), rng.randint(2, x + 1)}:
            assert psi(x, y) == int(np.count_nonzero(pplus[:x] <= y)), (x, y)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_psi_chunked_frontier(monkeypatch, chunk):
    # tiny chunks split single nodes and node lists
    import bisect

    monkeypatch.setattr(smooth, "_PSI_CHUNK", chunk)
    for y in (2, 5, 97, 1500):
        members = smooth_members_oracle(60000, y)
        for x in (2049, 4097, 10**4, 59999, 60000):
            assert psi(x, y) == bisect.bisect_right(members, x), (x, y)


def test_psi_past_the_sieve():
    # exact counts far past any sieve, also reached by depth-first enumeration
    assert psi(1e8, 100) == 924_573
    assert psi(1e10, 100) == 8_800_084
    assert psi(1e12, 100) == 66_932_543
    assert psi(1e10, 1000) == 295_601_979
    assert psi(1e15, 30) == 7_850_007


def test_psi_budget_and_capacity():
    from smoothdio.errors import BudgetExceededError

    assert psi(10**6, 100, budget=10**6) == psi(10**6, 100)
    with pytest.raises(BudgetExceededError):
        psi(10**6, 100, budget=100)
    assert psi(2000, 100, budget=1) == psi(2000, 100)  # a leaf is one node
    assert psi(2.0**63 - 1024, 2) == 63  # the powers of 2 up to 2^62
    with pytest.raises(CapacityError):
        psi(2.0**63, 5)
    with pytest.raises(CapacityError):
        psi(1e12, smooth.PSI_PRIME_CAPACITY + 1)
    assert psi(1e12, 1e13) == 10**12  # y >= x needs no primes


def test_psi_examples():
    assert psi(10, 3) == 7
    assert psi(100, 5) == 34
    assert psi(7.9, 7.9) == 7
    for x in (1, 17, 100.5, 1234):
        assert psi(x, x) == math.floor(x)
    assert psi(0.5, 2) == 0


def test_psi_oracle_slice():
    # acceptance exercises the full range; keep a fast slice here
    import bisect

    for y in (2, 7, 31):
        members = smooth_members_oracle(2000, y)
        for x in range(1, 2001):
            assert psi(x, y) == bisect.bisect_right(members, x)
    # and arbitrary y <= x, not just the fixed set
    rng = random.Random(3003)
    for y in rng.sample(range(2, 1500), 12):
        members = smooth_members_oracle(1500, y)
        for x in rng.sample(range(1, 1501), 200):
            assert psi(x, y) == bisect.bisect_right(members, x)


def test_local_density():
    assert local_density(10, 25, 1) == 1.0  # Y >= 2N
    assert local_density(10, 3, 1) == pytest.approx(0.3)  # {12, 16, 18}
    # K can exceed 1 for non-integer N < 2: (1.79, 3.58] holds 2 and 3
    assert local_density(1.7897640541948885, 10.957532337231838, 11) == 2 / 1.7897640541948885
    rng = random.Random(3004)
    for N in [rng.uniform(1, 2) for _ in range(10)] + [rng.uniform(1, 500) for _ in range(40)]:
        Y = rng.uniform(2, 50)
        q = rng.randint(1, 50)
        count = sum(
            1 for n in range(floor(N) + 1, floor(2 * N) + 1) if gcd(n, q) == 1 and largest_prime_factor(n) <= Y
        )
        assert local_density(N, Y, q) == count / N, (N, Y, q)


# ---------------------------------------------------------------------------
# Dickman rho
# ---------------------------------------------------------------------------


def test_rho_on_0_1():
    for u in (0.0, 0.25, 0.5, 1.0):
        assert dickman_rho(u) == 1.0


def test_rho_closed_form_slice():
    for i in range(0, 101, 5):
        u = 1.0 + i / 100.0
        assert abs(dickman_rho(u) - (1 - log(u))) <= 1e-9


def test_rho_deeper_values():
    # frozen from the Richardson-extrapolated trapezoid oracle
    assert dickman_rho(3.0, 1e-9) == pytest.approx(0.048608388291131656, abs=2e-10)
    assert dickman_rho(2.0) == pytest.approx(1 - log(2), abs=1e-9)


def rho_2_3(u: float) -> float:
    """ρ on [2, 3] in closed form; Landen's identity maps Li₂(1 − u) to the
    fast series at w = (u − 1)/u ∈ [1/2, 2/3]."""
    w = (u - 1.0) / u
    li2 = -sum(w**k / (k * k) for k in range(1, 200)) - 0.5 * log(u) ** 2
    return 1.0 - (1.0 - log(u - 1.0)) * log(u) + li2 + math.pi**2 / 12.0


def test_rho_published_values():
    published = {
        3: 0.0486083882911316,
        4: 4.91092564776083e-3,
        5: 3.54724700456040e-4,
        6: 1.96496963539553e-5,
        7: 8.74566995329392e-7,
        8: 3.23206930422610e-8,
        9: 1.01624828273784e-9,
        10: 2.77017183772596e-11,
    }
    for k, want in published.items():
        assert abs(dickman_rho(k, 1e-12) - want) <= 1e-14 * want, k
    for i in range(129):
        u = 2.0 + i / 128
        assert abs(dickman_rho(u, 1e-12) - rho_2_3(u)) <= 1e-14, u


def test_rho_nonincreasing_and_nonnegative():
    us = [j / 64 for j in range(120 * 64 + 1)]
    vals = [dickman_rho(u) for u in us]
    assert all(v >= 0.0 for v in vals)
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    # strictly decreasing and positive on (1, 120]: no clamp to 0, no upturn
    tail = vals[64:]
    assert all(v > 0.0 for v in tail[1:])
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_rho_domain_and_tol():
    with pytest.raises(ValueError):
        dickman_rho(-1.0)
    with pytest.raises(ValueError):
        dickman_rho(501.0)
    with pytest.raises(ValueError):
        dickman_rho(2.0, 1e-13)


def test_rho_certificate():
    # ρ decreases, so dickman_rho's absolute error on [k − 1, k] is at most
    # the series' relative bound err_k times ρ(k − 1), and ρ(k − 1) is at most
    # dickman_rho(k − 1)/(1 − err_k); the worst k meets the 1e-12 floor
    bound = 0.0
    for k in range(2, math.ceil(RHO_U_MAX) + 1):
        err = smooth._rho_series(k)[2]
        bound = max(bound, err * dickman_rho(k - 1) / (1 - err))
    print("certified absolute error of dickman_rho on [0, RHO_U_MAX]:", bound)
    assert bound <= 1e-12


# ---------------------------------------------------------------------------
# saddle point and estimates
# ---------------------------------------------------------------------------


def test_saddle_single_prime_closed_form():
    alpha, residual = saddle_alpha(4, 2)
    assert alpha == pytest.approx(math.log2(1.5), abs=1e-12)
    assert abs(residual) <= 1e-10 * log(4)


def test_saddle_two_primes_bisection_oracle():
    # root of log2/(2^a-1) + log3/(3^a-1) = log 6 by plain bisection
    target = log(6)

    def g(a):
        return log(2) / (2**a - 1) + log(3) / (3**a - 1) - target

    lo, hi = 0.01, 1.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    alpha, _ = saddle_alpha(6, 3)
    assert alpha == pytest.approx((lo + hi) / 2, abs=1e-10)


def test_saddle_residual_invariant():
    for x, y in ((100, 10), (10**4, 100), (10**6, 1000), (50, 50)):
        alpha, residual = saddle_alpha(x, y)
        assert abs(residual) <= 1e-10 * log(x)
        assert 0.01 < alpha < 1.5


def test_saddle_out_of_bracket():
    with pytest.raises(NonConvergenceError):
        saddle_alpha(1.05, 2)  # root above 1.5


def reference_sums(y: float):
    """g_and_slope(a) = (g(a), g'(a)) for g(a) = Σ_{p ≤ y} log p / (p^a − 1),
    from fresh power-based arrays at every call."""
    primes = prime_array(int(floor(y))).astype(np.float64)
    logs = np.log(primes)

    def g_and_slope(a: float):
        pa = primes**a
        gap = pa - 1.0
        return float(np.sum(logs / gap)), float(-np.sum(logs * logs * pa / (gap * gap)))

    return g_and_slope


def saddle_alpha_reference(x: float, y: float) -> tuple:
    """Newton iteration plainly: seeded with 1 − log(u log u)/log y, both
    bracket ends evaluated up front for every x, the slope at every step."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if x <= 1:
        raise ValueError("x must be > 1")
    if y > SADDLE_PRIME_CAPACITY:
        raise CapacityError(f"y = {y} exceeds prime-sum capacity {SADDLE_PRIME_CAPACITY}")

    g_and_slope = reference_sums(y)
    target = log(x)

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
            return a, res
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


# 1_000_000.75 shares ⌊y⌋ with 1_000_000; u = 0.6 and 1 seed the reference at
# α = 1; at (10.036385734592889, 2) a reference Newton step leaves through 0.01
SADDLE_YS = [9_876_543, 1_000_000, 1_000_000.75, 31_623, 1000, 37.5, 2]
SADDLE_XS = {y: [y**u for u in (0.6, 1.0, 2.5, 4.5)] for y in SADDLE_YS}
SADDLE_XS[2].append(10.036385734592889)


def test_saddle_alpha_agrees_with_the_reference_solver():
    want = {(x, y): saddle_alpha_reference(x, y) for y in SADDLE_YS for x in SADDLE_XS[y]}
    ascending = sorted(SADDLE_YS)
    for order in (ascending, ascending[::-1], [SADDLE_YS[i] for i in (0, 5, 2, 6, 3, 1, 4)]):
        for y in order:
            g_and_slope = reference_sums(y)
            for x in SADDLE_XS[y]:
                alpha, _ = saddle_alpha(x, y)
                alpha_ref, res_ref = want[(x, y)]
                res = g_and_slope(alpha)[0] - log(x)
                # 0.1e-11·log x of slack: these power-based sums round unlike the solver's expm1-based ones
                assert abs(res) <= 1.1e-11 * log(x), (x, y)
                # g is convex and decreasing, so |g'| is least at the right end of [α, α_ref];
                # each evaluated residual may itself be off by its sum's rounding, allowed 1e-14·log x
                slope = g_and_slope(max(alpha, alpha_ref))[1]
                rounding = 2e-14 * log(x)
                assert abs(alpha - alpha_ref) <= (abs(res) + abs(res_ref) + rounding) / abs(slope), (x, y)


def test_saddle_alpha_takes_at_most_three_prime_passes(monkeypatch):
    # the seed model is g itself for y ≤ 2¹⁴, so one pass confirms its root there
    passes = []
    sums = smooth._saddle_sums

    def counting_sums(yi):
        g, slope = sums(yi)

        def counting_g(a):
            passes[-1] += 1
            return g(a)

        return counting_g, slope

    monkeypatch.setattr(smooth, "_saddle_sums", counting_sums)
    for y in [*SADDLE_YS, 16_384, 16_385, 9_800_000]:
        for x in SADDLE_XS.get(y, [y**u for u in (0.6, 1.0, 2.5, 4.5)]):
            passes.append(0)
            saddle_alpha(x, y)
            assert (passes[-1] == 1) if y <= 16_384 else (passes[-1] <= 3), (x, y, passes[-1])


def test_saddle_out_of_bracket_at_either_end():
    for x in (1.05, math.exp(200)):  # roots above 1.5 and below 0.01
        for impl in (saddle_alpha_reference, saddle_alpha):
            with pytest.raises(NonConvergenceError, match="outside"):
                impl(x, 2.9)


def test_saddle_refusal_evaluates_one_bracket_end(monkeypatch):
    evaluated = []
    sums = smooth._saddle_sums

    def recording_sums(yi):
        g, slope = sums(yi)

        def recording_g(a):
            evaluated.append(a)
            return g(a)

        return recording_g, slope

    monkeypatch.setattr(smooth, "_saddle_sums", recording_sums)
    for x, end in ((1.05, 1.5), (math.exp(200), 0.01)):
        evaluated.clear()
        with pytest.raises(NonConvergenceError, match="outside"):
            saddle_alpha(x, 2.9)
        assert [a for a in evaluated if a in (0.01, 1.5)] == [end]


def test_doubling_factor():
    # the doubling law Ψ(2x, y) ≈ 2^α Ψ(x, y) against exact counts
    d = 2.0 ** saddle_alpha(1e6, 1e3)[0]
    exact = psi(2e6, 1e3) / psi(1e6, 1e3)
    assert 0.9 <= d / exact <= 1.1
    for x, y in ((100, 10), (10**4, 100)):
        assert 1.0 < 2.0 ** saddle_alpha(x, y)[0] <= 2.0


def test_crude_shape_diagnostic():
    # log(x / Psi(x,y)) / (u log u) stays in the fitted band [0.3, 3]
    x = 10**6
    for y in (20, 50, 100):
        u = log(x) / log(y)
        val = log(x / psi(x, y)) / (u * log(u))
        assert 0.3 <= val <= 3.0


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose_matches_oracle(n, y, z):
    """Exhaustive search for all valid triples; returns them all."""
    triples = []
    ps = [p for p in range(2, int(y) + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for p in ps:
        for v in divisors:
            if not (z < v <= z * p) or v % p != 0:
                continue
            vr = v
            ok = True
            for r in range(2, v + 1):
                if vr % r == 0:
                    if not (p <= r <= y):
                        ok = False
                        break
                    while vr % r == 0:
                        vr //= r
            if not ok:
                continue
            u = n // v
            if largest_prime_factor(u) <= p:
                triples.append((p, u, v))
    return triples


def test_smooth_decompose_examples():
    assert smooth_decompose(36, 1000, 3, 4) == (3, 4, 9)
    assert smooth_decompose(8, 1000, 2, 2) == (2, 2, 4)
    # a single prime power exceeding z forces u = 1
    assert smooth_decompose(25, 1000, 5, 10) == (5, 1, 25)


def test_smooth_decompose_clauses_and_uniqueness_slice():
    y = 5
    for z in (5, 10, 50):
        for n in smooth_members_oracle(600, y):
            if n <= z:
                continue
            p, u, v = smooth_decompose(n, 600, y, z)
            assert u * v == n and v % p == 0 and z < v <= z * p
            assert largest_prime_factor(u) <= p
            triples = decompose_matches_oracle(n, y, z)
            assert triples == [(p, u, v)]


def test_smooth_decompose_preconditions():
    with pytest.raises(ValueError):
        smooth_decompose(10, 100, 3, 2)  # y > z
    with pytest.raises(ValueError):
        smooth_decompose(14, 100, 3, 4)  # not 3-smooth


def progression_oracle(starts, step, count):
    return [[largest_prime_factor(s + k * step) for s in starts] for k in range(count)]


def test_largest_prime_factor_array():
    starts, step = [1, 2, 12, 97, 1024, 9991, 999984], 999983  # a prime step
    out = largest_prime_factor_array(starts, step, 30, isqrt(999984 + 29 * step))
    assert out.tolist() == progression_oracle(starts, step, 30)


@pytest.mark.parametrize(
    "starts, step, count",
    [
        ([1, 17, 30029, 1 + 30030 * 7, 30030 * 40 - 1], 30030, 400),  # q = 2·3·5·7·11·13
        # above 2³²: 2³⁴ (k = 3), 3²³ (k = 5) and 5¹⁴ need prime powers past 2³¹;
        # −start·step⁻¹ mod 3²² and mod 3²³ multiply residues whose product passes 2⁶³
        ([2**32 + 1, 5**14, 3**23 - 5 * (2**31 - 1), 2**34 - 3 * (2**31 - 1), 2**33 + 3], 2**31 - 1, 6),
    ],
)
def test_largest_prime_factor_array_against_scalar_oracle(starts, step, count):
    out = largest_prime_factor_array(starts, step, count, isqrt(max(starts) + (count - 1) * step))
    assert out.tolist() == progression_oracle(starts, step, count)


@pytest.mark.parametrize(
    "kernel, below, past",
    [
        (pplus_sieve, (2**63 - 3, 2**63 - 1, 10), (2**63 - 3, 2**63 + 2, 10)),
        (largest_prime_factor_array, ([2**62 + 1], 2**61, 2, 10), ([2**62 + 1], 2**61, 3, 10)),  # top 2⁶³ + 1
    ],
)
def test_pplus_kernels_refuse_tops_past_int64(kernel, below, past):
    # int64 holds a top of 2⁶³ − 1 or less; past it the integers would wrap, so nothing is allocated
    assert kernel(*below).dtype == np.int64
    with pytest.raises(CapacityError, match=r"^integers up to \d+ exceed int64$"):
        kernel(*past)


def test_largest_prime_factor_array_capped_and_empty():
    starts, step = [1, 29, 30031, 2**20 + 1], 30030
    full = np.array(progression_oracle(starts, step, 500))
    part = largest_prime_factor_array(starts, step, 500, 23)
    # below √max the value still decides P⁺ <= y exactly for every y <= pmax
    for y in range(1, 24):
        assert ((part <= y) == (full <= y)).all(), y
    # step 1 is the interval pplus_sieve walks
    assert largest_prime_factor_array([10**6], 1, 500, 23)[:, 0].tolist() == pplus_sieve(10**6, 10**6 + 499, 23).tolist()
    assert largest_prime_factor_array(starts, step, 0, 1000).shape == (0, 4)
    assert largest_prime_factor_array([], step, 7, 1000).shape == (7, 0)
    with pytest.raises(ValueError):
        largest_prime_factor_array([1, 14], 7, 3, 10)  # 14 shares 7 with the step
