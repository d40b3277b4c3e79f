import random
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import ceil, floor, gcd, inf, isqrt, log

import numpy as np
import pytest

from smoothdio.diophantine import (
    ApproxParams,
    DecimalAlpha,
    QuadIrr,
    build_target_set,
    cf_convergents,
    connection_bound,
    convergents,
    derive_params,
    dist_from_convergent,
    dist_nearest,
    floor_surd,
    parse_alpha,
)
from smoothdio import diophantine, dispersion, smooth
from smoothdio.arith import largest_prime_factor
from smoothdio.dispersion import bump_phi_array, sigma_qR
from smoothdio.errors import CapacityError

GOLDEN = QuadIrr(1, 1, 5, 2)
SQRT2 = QuadIrr(0, 1, 2, 1)


def test_quadirr_canonical():
    a = QuadIrr(2, 2, 5, -4)
    assert (a.p, a.s, a.d, a.r) == (-1, -1, 5, 2)
    with pytest.raises(ValueError):
        QuadIrr(1, 1, 9, 2)  # perfect square
    with pytest.raises(ValueError):
        QuadIrr(1, 0, 5, 2)


def test_parse_alpha():
    g = parse_alpha("quad:1,1,5,2")
    assert (g.p, g.s, g.d, g.r) == (1, 1, 5, 2)
    d = parse_alpha("dec:1.41421356237309504880168872420969808:30")
    assert isinstance(d, DecimalAlpha)
    assert d.prec == 30


def surd_sign(B, d, x):
    """Sign of B·√d − x for d a positive nonsquare, by comparing squares."""
    if B == 0:
        return (x < 0) - (x > 0)
    sign_b = 1 if B > 0 else -1
    if x == 0 or (x > 0) != (B > 0):
        return sign_b
    return sign_b * ((B * B * d > x * x) - (B * B * d < x * x))


def floor_surd_oracle(A, B, d, C):
    """⌊(A + B√d)/C⌋: a decimal estimate, then moved until j ≤ value < j + 1
    holds by exact sign tests."""
    if C < 0:
        A, B, C = -A, -B, -C
    with localcontext() as ctx:
        ctx.prec = 400
        est = (Decimal(A) + Decimal(B) * Decimal(d).sqrt()) / C
        j = int(est.to_integral_value(rounding=ROUND_FLOOR))
    # j ≤ (A + B√d)/C  ⇔  B√d − (jC − A) ≥ 0
    while surd_sign(B, d, j * C - A) < 0:
        j -= 1
    while surd_sign(B, d, (j + 1) * C - A) >= 0:
        j += 1
    return j


def test_floor_surd_exact():
    rng = random.Random(2002)
    for _ in range(3000):
        bits = rng.choice([8, 64, 200, 300])
        A = rng.randint(-(2**bits), 2**bits)
        B = rng.choice([0, rng.randint(-(2**bits), 2**bits)])
        d = rng.choice([2, 3, 5, 7, 10, 1234, rng.randint(2, 2**bits)])
        if isqrt(d) ** 2 == d:
            d += 1
        C = rng.choice([-1, 1]) * rng.randint(1, 2**bits)
        assert floor_surd(A, B, d, C) == floor_surd_oracle(A, B, d, C), (A, B, d, C)


def test_floor_surd_near_integers():
    # (3 + 2√2)^k = x + y√2 with x² − 2y² = 1, so 0 < x − y√2 < 1 at every size
    x, y = 3, 2
    for _ in range(120):
        assert floor_surd(x, -y, 2, 1) == 0
        assert floor_surd(-x, y, 2, 1) == -1
        assert floor_surd(x, -y, 2, -1) == -1
        assert floor_surd(-x, y, 2, -1) == 0
        assert floor_surd(2 * x, 2 * y, 2, 2) == 2 * x - 1  # x + y√2 = 2x − (x − y√2)
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    assert floor_surd(7, 0, 2, 7) == 1 and floor_surd(-7, 0, 2, 7) == -1
    with pytest.raises(ZeroDivisionError):
        floor_surd(1, 1, 2, 0)


def cf_recurrence_oracle(terms):
    hs, ks = [], []
    h_prev, h = 1, terms[0]
    k_prev, k = 0, 1
    hs.append(h)
    ks.append(k)
    for a in terms[1:]:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        hs.append(h)
        ks.append(k)
    return list(zip(hs, ks))


def test_golden_convergents():
    convs = cf_convergents(GOLDEN, 5)
    assert [(c.a, c.q) for c in convs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]
    # golden ratio: all partial quotients are 1
    assert cf_recurrence_oracle([1, 1, 1, 1, 1]) == [(c.a, c.q) for c in convs]


def test_sqrt2_convergents():
    convs = cf_convergents(SQRT2, 4)
    assert [(c.a, c.q) for c in convs] == [(1, 1), (3, 2), (7, 5), (17, 12)]
    assert cf_recurrence_oracle([1, 2, 2, 2]) == [(c.a, c.q) for c in convs]


def certified_prefix(alpha, count):
    """The first `count` convergents of α, or those before the first that a
    decimal's precision cannot certify."""
    out = []
    try:
        out.extend(islice(convergents(alpha), count))
    except CapacityError:
        pass
    return out


def in_slot(alpha, c, halves):
    """Whether α − a/q lies in [err_num − halves/2, err_num + halves/2] / err_den,
    decided exactly: for every α within a decimal's width, in Fractions; for a
    quadratic α, by the sign of 2·r·q·err_den·(α − a/q) − (2·err_num ± halves)·r·q,
    an (A + B√d) whose floor_surd by C = 1 is ≥ 0 exactly when it is positive
    (it is never 0: the value is irrational)."""
    if isinstance(alpha, DecimalAlpha):
        mid = alpha.value - Fraction(c.a, c.q)
        return (Fraction(2 * c.err_num - halves, 2 * c.err_den) <= mid - alpha.width
                and mid + alpha.width <= Fraction(2 * c.err_num + halves, 2 * c.err_den))

    def above(k):
        A = 2 * (alpha.p * c.q - c.a * alpha.r) * c.err_den - (2 * c.err_num + k) * alpha.r * c.q
        return floor_surd(A, 2 * alpha.s * c.q * c.err_den, alpha.d, 1) >= 0

    return above(-halves) and not above(halves)


@pytest.mark.parametrize("alpha", [
    GOLDEN, SQRT2, QuadIrr(3, -2, 7, 5), QuadIrr(-4, 3, 13, 6),
    parse_alpha("dec:1.41421356237309504880168872421:30"), parse_alpha("dec:2.718281828:9"),
])
def test_convergent_invariants(alpha):
    convs = certified_prefix(alpha, 14)
    assert len(convs) >= 8
    if isinstance(alpha, QuadIrr):
        assert cf_convergents(alpha, 14) == convs
    for c in convs:
        assert gcd(c.a, c.q) == 1
        lo, hi = Fraction(c.err_num - 1, c.err_den), Fraction(c.err_num + 1, c.err_den)
        # the exact slot must certify |alpha - a/q| <= 1/q^2
        assert max(abs(lo), abs(hi)) <= Fraction(1, c.q * c.q)
        # and must contain alpha - a/q, exactly
        assert in_slot(alpha, c, 2)
        if isinstance(alpha, QuadIrr):  # err_num is the nearest integer to (alpha - a/q)·err_den
            assert in_slot(alpha, c, 1)
    # CF determinant identity
    for c0, c1 in zip(convs, convs[1:]):
        assert abs(c0.a * c1.q - c1.a * c0.q) == 1
    # nested errors: |alpha - a_k/q_k| strictly decreasing (a decimal's, of its stored value)
    if isinstance(alpha, DecimalAlpha):
        errs = [abs(alpha.value - Fraction(c.a, c.q)) for c in convs]
    else:
        errs = [abs(c.err_num / c.err_den) for c in convs]
    assert all(e0 > e1 for e0, e1 in zip(errs, errs[1:]))


def test_decimal_convergents_end_with_the_expansion():
    # 3/2 has the partial quotients [1, 2]: the walk ends there, whatever count asks
    convs = cf_convergents(parse_alpha("dec:1.5:10"), 5)
    assert [(c.a, c.q) for c in convs] == [(1, 1), (3, 2)]


def test_decimal_convergents_refuse_past_the_precision():
    d = parse_alpha("dec:1.41421356:8")
    certified = cf_convergents(d, 11)  # up to 8119/5741
    assert [(c.a, c.q) for c in certified] == [(c.a, c.q) for c in cf_convergents(SQRT2, 11)]
    with pytest.raises(CapacityError):
        cf_convergents(d, 12)
    walk = convergents(d)
    assert list(islice(walk, 11)) == certified
    with pytest.raises(CapacityError):
        next(walk)
    # 8119/19601 lies 5.3e-10 from 0.41421356, but the width 1e-8 spans 1/19601² = 2.6e-9
    with pytest.raises(CapacityError, match="cannot certify convergent 8119/19601"):
        cf_convergents(DecimalAlpha(Fraction("0.41421356"), 8), 30)


def surd_reference(A, B, d, C):
    """(A + B*sqrt(d))/C via a 40-digit integer square root."""
    S = 10**40
    root = Fraction(isqrt(B * B * d * S * S), S)
    return Fraction(A) / C + (root if B > 0 else -root) / C


def test_dist_nearest_examples():
    assert dist_nearest(0, GOLDEN) == 0.0
    # |5*golden - 8| = (5*sqrt(5) - 11)/2
    expect = float(surd_reference(-11, 5, 5, 2))
    assert abs(dist_nearest(5, GOLDEN) - expect) <= 1e-15 * expect
    # |12*sqrt(2) - 17|
    expect = float(-surd_reference(-17, 12, 2, 1))
    assert abs(dist_nearest(12, SQRT2) - expect) <= 1e-15 * expect


def test_dist_nearest_mirror():
    rng = random.Random(2002)
    for alpha in (GOLDEN, SQRT2, QuadIrr(3, -2, 7, 5)):
        mirrored = QuadIrr(-alpha.p, -alpha.s, alpha.d, alpha.r)
        for _ in range(300):
            n = rng.randint(0, 10**9)
            a = dist_nearest(n, alpha)
            b = dist_nearest(n, mirrored)
            assert abs(a - b) <= 1e-14 * max(a, 1e-30)
            assert 0.0 <= a <= 0.5


def test_dist_nearest_decimal():
    d = DecimalAlpha(Fraction("1.41421356237309504880168872420969808"), 30)
    for n in (1, 12, 1000):
        assert abs(dist_nearest(n, d) - dist_nearest(n, SQRT2)) < 1e-12


def test_derive_params_exact_powers():
    p = derive_params(64, Fraction(1, 3))
    assert abs(p.X - 512.0) <= 1e-10 * 512
    assert abs(p.R - 8.0) <= 1e-10 * 8
    assert p.Y == pytest.approx(log(512.0) ** 10.0)


def test_derive_params_qr_identity():
    rng = random.Random(2002)
    for _ in range(200):
        q = rng.randint(2, 10**9)
        theta = Fraction(rng.randint(1, 352), 1000)  # < 6/17 = 0.3529...
        p = derive_params(q, theta)
        assert abs(p.X - q * p.R) <= 1e-12 * p.X
        assert p.R < q


def test_derive_params_theta_range():
    with pytest.raises(ValueError):
        derive_params(100, Fraction(0))
    with pytest.raises(ValueError):
        derive_params(100, Fraction(6, 17))
    with pytest.raises(ValueError):
        derive_params(100, Fraction(1, 2))
    with pytest.raises(ValueError):
        derive_params(1, Fraction(1, 4))


def test_derive_params_near_boundary_exponents():
    # exponents approach 34/23 and 11/23 as theta -> 6/17
    theta = Fraction(6, 17) - Fraction(1, 10**9)
    p = derive_params(10**6, theta)
    assert p.X == pytest.approx(10 ** (6 * 34 / 23), rel=1e-4)
    assert p.R == pytest.approx(10 ** (6 * 11 / 23), rel=1e-4)


def test_build_target_set_q13():
    p = derive_params(13, Fraction(1, 3), Y=float("inf"))
    ns, pplus = build_target_set(p, 8)
    assert list(ns[:5]) == [15, 18, 23, 28, 31]
    # exhaustive scan oracle
    expect = [
        n
        for n in range(12, 188)
        if gcd(n, 13) == 1 and 1 <= (8 * n) % 13 <= 3
    ]
    assert list(ns) == expect
    assert pplus.tolist() == [largest_prime_factor(n) for n in expect]


def test_build_target_set_vacuous_constraints():
    # Y >= 4X and R >= q: all integers coprime to q in the window
    params = ApproxParams(Fraction(1, 4), 12, 100.0, 50.0, 10**9, 10.0)
    ns, _ = build_target_set(params, 5)
    expect = [n for n in range(25, 401) if gcd(n, 12) == 1]
    assert list(ns) == expect


def test_build_target_set_monotone_in_Y():
    base = derive_params(13, Fraction(1, 3))
    smaller = ApproxParams(base.theta, base.q, base.X, base.R, 5.0, base.C)
    larger = ApproxParams(base.theta, base.q, base.X, base.R, 11.0, base.C)
    s1 = set(build_target_set(smaller, 8)[0].tolist())
    s2 = set(build_target_set(larger, 8)[0].tolist())
    assert s1 <= s2


def target_set_scan(params, a):
    """(members, P⁺ of each) by testing every n of the window [X/4, 4X]."""
    q, r_top = params.q, min(floor(params.R), params.q - 1)
    ns = [
        n
        for n in range(ceil(params.X / 4), floor(4 * params.X) + 1)
        if gcd(n, q) == 1 and 1 <= n * a % q <= r_top and largest_prime_factor(n) <= params.Y
    ]
    return ns, [largest_prime_factor(n) for n in ns]


_Q101 = derive_params(101, Fraction(1, 4))  # X ≈ 1608: √(4X) ≈ 80, 4X ≈ 6433


@pytest.mark.parametrize(
    "params, a",
    [
        (ApproxParams(Fraction(1, 4), 7, 3.0, 5.0, 1.5, 10.0), 3),  # Y < 2: only n = 1, P⁺(1) = 1
        (ApproxParams(_Q101.theta, 101, _Q101.X, _Q101.R, 1.5, 10.0), 37),  # Y < 2, no member
        (ApproxParams(_Q101.theta, 101, _Q101.X, _Q101.R, 40.0, 10.0), 37),  # Y < √(4X)
        (ApproxParams(_Q101.theta, 101, _Q101.X, _Q101.R, 200.0, 10.0), 37),  # √(4X) <= Y < 4X
        (ApproxParams(_Q101.theta, 101, _Q101.X, _Q101.R, float("inf"), 10.0), 37),
        (ApproxParams(Fraction(1, 4), 101, 10.0, 50.0, float("inf"), 10.0), 12),  # most classes empty
        (ApproxParams(Fraction(1, 4), 30030, 60000.0, 600.0, 300.0, 10.0), 17),  # q with six primes
    ],
)
def test_build_target_set_matches_window_scan(params, a):
    ns, pplus = build_target_set(params, a)
    assert ns.dtype == np.int64
    assert (ns.tolist(), pplus.tolist()) == target_set_scan(params, a)


def whole_layout(q, a, window, Y):
    """(ns, pplus, members, rs): the class layout of a sieved _target_window
    in one largest_prime_factor_array call, the classes ordered by their
    first n."""
    lo, hi, rows, r_lo, r_hi, _ = window
    rs = np.array([r for r in range(r_lo, r_hi + 1) if gcd(r, q) == 1], dtype=np.int64)
    abar = pow(a, -1, q)
    starts = np.array([lo + (abar * r - lo) % q for r in rs.tolist()], dtype=np.int64)
    order = np.argsort(starts)
    ns = starts[order] + q * np.arange(rows, dtype=np.int64)[:, None]
    pplus = smooth.largest_prime_factor_array(starts[order], q, rows, int(min(Y, hi)))
    return ns, pplus, (pplus <= Y) & (ns <= hi), rs[order]


_LAYOUTS = [
    (ApproxParams(_Q101.theta, 101, _Q101.X, _Q101.R, 40.0, 10.0), 37),
    (ApproxParams(Fraction(1, 4), 30030, 60000.0, 600.0, 300.0, 10.0), 17),
    (derive_params(610, Fraction(1, 4), Y=60.0), 377),
    (ApproxParams(Fraction(1, 4), 100000007, 6e8, 60.0, 1000.0, 10.0), 12345),  # its top, 2.4e9, passes 2³¹
]


def _chunk_calls(monkeypatch, rows_per_chunk, classes):
    """Set the layout chunk to `rows_per_chunk` rows of `classes` (None
    keeps the default), and record (count, P⁺ dtype) of every call the
    chunks make through diophantine's largest_prime_factor_array alias."""
    calls = []

    def recorded(starts, step, count, pmax):
        pplus = smooth.largest_prime_factor_array(starts, step, count, pmax)
        calls.append((count, pplus.dtype))
        return pplus

    monkeypatch.setattr(diophantine, "largest_prime_factor_array", recorded)
    if rows_per_chunk is not None:
        monkeypatch.setattr(diophantine, "_LAYOUT_CHUNK", rows_per_chunk * classes)
    return calls


def _check_chunks(calls, window, rows_per_chunk):
    _, hi, rows, _, _, classes = window
    step = rows_per_chunk or max(1, diophantine._LAYOUT_CHUNK // classes)
    assert [count for count, _ in calls] == [min(step, rows - row) for row in range(0, rows, step)]
    if hi >= 2**31 and rows_per_chunk == 1:  # the first rows fit int32, the last do not
        assert [dtype for _, dtype in calls[::len(calls) - 1]] == [np.int32, np.int64]


@pytest.mark.parametrize("rows_per_chunk", [1, 3, None])
@pytest.mark.parametrize("params, a", _LAYOUTS)
def test_chunked_target_set_matches_the_whole_layout(params, a, rows_per_chunk, monkeypatch):
    window = diophantine._target_window(params.q, params.X, 1, floor(params.R))
    ns, pplus, members, _ = whole_layout(params.q, a, window, params.Y)
    calls = _chunk_calls(monkeypatch, rows_per_chunk, window[5])
    got_ns, got_pplus = build_target_set(params, a)
    assert (got_ns.dtype, got_pplus.dtype) == (np.int64, pplus.dtype)
    assert (got_ns.tolist(), got_pplus.tolist()) == (ns[members].tolist(), pplus[members].tolist())
    assert len(got_ns) > 0
    _check_chunks(calls, window, rows_per_chunk)


@pytest.mark.parametrize("rows_per_chunk", [1, 3, None])
@pytest.mark.parametrize("params, a", _LAYOUTS)
def test_chunked_sigma_matches_the_whole_layout(params, a, rows_per_chunk, monkeypatch):
    # Σ(q, R) over the classes r in [⌊R/4⌋, ⌈3R/4⌉]: the per-class counts summed over chunks, rounded once
    window = diophantine._target_window(params.q, params.X, floor(params.R / 4), ceil(3 * params.R / 4))
    _, _, members, rs = whole_layout(params.q, a, window, params.Y)
    weights = bump_phi_array(rs / params.R).tolist()
    expect = float(sum(Fraction(w) * int(c) for w, c in zip(weights, np.count_nonzero(members, axis=0))))
    calls = _chunk_calls(monkeypatch, rows_per_chunk, len(rs))
    monkeypatch.setattr(dispersion, "derive_params", lambda *args: params)
    got = sigma_qR(params.q, a, params.theta, params.C, params.Y).value
    assert got == expect > 0
    _check_chunks(calls, window, rows_per_chunk)


@pytest.mark.parametrize(
    "q, a, X, r_lo, r_hi",
    [
        (101, 37, 10.0, 1, 100),  # [3, 40]: most classes are empty
        (30030, 17, 2000.0, 100, 700),  # [500, 8000], a q with six primes
        (101, 37, 400.0, 10, 60),  # [100, 1600]: 15 full rows and a partial one
    ],
)
@pytest.mark.parametrize("Y", [5.0, 40.0, inf])
def test_class_counts_match_a_window_scan(q, a, X, r_lo, r_hi, Y):
    window = diophantine._target_window(q, X, r_lo, r_hi, sieved=Y < floor(4 * X))
    lo, hi = window[:2]
    rs, counts = diophantine._class_counts(q, a, window, Y)
    assert sorted(rs.tolist()) == [r for r in range(r_lo, r_hi + 1) if gcd(r, q) == 1]
    scan = dict.fromkeys(rs.tolist(), 0)
    for n in range(lo, hi + 1):
        if n * a % q in scan and largest_prime_factor(n) <= Y:
            scan[n * a % q] += 1
    assert counts.tolist() == [scan[r] for r in rs.tolist()]
    if Y >= hi:  # every class holds its window's terms: some none exactly when the window is shorter than q
        assert (0 in scan.values()) == (hi - lo + 1 < q)


def test_connection_bound_membership():
    # a/q = 21/13 is a golden-ratio convergent; every target-set member obeys
    # ||n alpha|| <= R/q + 4X/q^2
    conv = next(c for c in cf_convergents(GOLDEN, 8) if c.q == 13)
    assert conv.a == 21
    p = derive_params(13, Fraction(1, 3), Y=float("inf"))
    bound = connection_bound(p)
    for n in build_target_set(p, conv.a)[0]:
        assert dist_nearest(int(n), GOLDEN) <= bound


def convergent_of(alpha, q):
    return next(c for c in convergents(alpha) if c.q == q)


def assert_kernel_bits(ns, alpha, conv):
    """dist_from_convergent gives the bits of dist_nearest on every member."""
    fast = dist_from_convergent(ns, alpha, conv)
    scalar = np.array([dist_nearest(int(n), alpha) for n in ns])
    assert fast.dtype == np.float64
    assert np.array_equal(fast.view(np.int64), scalar.view(np.int64))


@pytest.mark.parametrize(
    "alpha, q, theta, Y",
    [
        (GOLDEN, 233, Fraction(1, 4), 50.0),  # finite Y, below √(4X)
        (GOLDEN, 1597, Fraction(1, 4), None),  # prime q
        (QuadIrr(3, -2, 7, 5), 1259, Fraction(1, 4), None),  # s < 0, r > 1
        (QuadIrr(3, -2, 7, 5), 2542, Fraction(3, 10), None),
        (SQRT2, 985, Fraction(1, 5), float("inf")),
        (QuadIrr(3, -2, 7, 5), 11, Fraction(1, 4), float("inf")),  # some members retry later convergents
        (QuadIrr(10**15, 7, 13, 3), 67, Fraction(1, 4), float("inf")),  # n·a past int64: Python ints
    ],
)
def test_dist_from_convergent_matches_dist_nearest(alpha, q, theta, Y):
    conv = convergent_of(alpha, q)
    ns, _ = build_target_set(derive_params(q, theta, Y=Y), conv.a)
    assert len(ns) > 0
    assert_kernel_bits(ns, alpha, conv)


def test_dist_from_convergent_past_int64_squares():
    # d = 120 at q = 222201, θ = 1/4: n reaches 4X ≈ 1.4e9, so A² and B²d
    # leave int64 while A² − B²d does not; the classes r ≤ 4 suffice
    alpha = QuadIrr(0, 1, 120, 1)
    conv = convergent_of(alpha, 222201)
    p = derive_params(conv.q, Fraction(1, 4))
    ns, _ = build_target_set(ApproxParams(p.theta, p.q, p.X, 4.0, float("inf"), p.C), conv.a)
    assert int(ns.max()) ** 2 * alpha.d >= 2**63
    assert_kernel_bits(ns, alpha, conv)


def test_dist_from_convergent_empty_member_array():
    # Y < 2 leaves the q = 89 target set empty
    conv = convergent_of(GOLDEN, 89)
    params = ApproxParams(Fraction(1, 4), 89, 1000.0, 30.0, 1.5, 10.0)
    ns, _ = build_target_set(params, conv.a)
    assert len(ns) == 0
    assert_kernel_bits(ns, GOLDEN, conv)


@pytest.mark.parametrize(
    "alpha, index, ns",
    [
        (GOLDEN, 2, None),  # the q = 2 target set: |t|/q + n·|ε|₊ reaches 1/2, later convergents answer
        (GOLDEN, 5, np.array([4], dtype=np.int64)),  # q = 8, 4·13 ≡ q/2: na/q halfway, later convergents answer
        (QuadIrr(0, 1, 2**64 + 1, 1), 1, np.array([3], dtype=np.int64)),  # d past int64: Python ints
        (QuadIrr(0, 1, 2, 1), 1, np.array([2**60], dtype=np.int64)),  # r(r + 4|B|(⌊√d⌋ + 1)) past 2⁶³: Python ints
        (GOLDEN, 9, np.array([0, 100], dtype=np.int64)),  # n = 0: refused
    ],
)
def test_dist_from_convergent_refuses_what_it_cannot_certify(alpha, index, ns):
    """What one convergent cannot certify, or int64 cannot hold, is answered
    with the bits of dist_nearest; only n < 1 is refused."""
    conv = next(islice(convergents(alpha), index, None))
    if ns is None:
        ns, _ = build_target_set(derive_params(conv.q, Fraction(1, 4), Y=float("inf")), conv.a)
    if ns.min() < 1:
        with pytest.raises(ValueError):
            dist_from_convergent(ns, alpha, conv)
    else:
        assert_kernel_bits(ns, alpha, conv)


@pytest.mark.parametrize("alpha, index", [(GOLDEN, 10), (SQRT2, 5), (QuadIrr(10**15, 7, 13, 3), 4)])
def test_certificate_is_the_exact_slot_condition(alpha, index):
    """QuadIrr._certified_dists certifies exactly the members n < 1000 with
    2(|t|·err_den + n_top·(|err_num| + 1)·q) < q·err_den, in int64 and,
    for n·a past 2⁶³ (the last case), in Python ints."""
    conv = next(islice(convergents(alpha), index, None))
    ns = np.arange(1, 1000, dtype=np.int64)
    _, ok = alpha._certified_dists(ns, conv)
    q, n_top = conv.q, int(ns.max())
    ts = [min(n * conv.a % q, q - n * conv.a % q) for n in ns.tolist()]
    expect = [2 * (t * conv.err_den + n_top * (abs(conv.err_num) + 1) * q) < q * conv.err_den for t in ts]
    assert 0 < sum(expect) < len(expect)
    assert ok.tolist() == expect


@pytest.mark.parametrize(
    "spec",
    ["dec:1.5:10", "dec:-0.375:3", "dec:1.41421356237309504880168872421:30", "dec:2.718281828:9"],
)
def test_dist_from_convergent_decimal_matches_dist_nearest(spec):
    # ‖n·value‖ by exact rational rounding; 1.5 and −0.375 put n·value on
    # half-integers, where both round to 0.5
    alpha = parse_alpha(spec)
    ns = np.concatenate([np.arange(1, 2501), np.arange(10**12, 10**12 + 2500)])
    assert_kernel_bits(ns, alpha, next(convergents(alpha)))


def test_decimal_convergents_certified():
    d = parse_alpha("dec:1.41421356237309504880168872420969808:30")
    convs = cf_convergents(d, 10)
    exact = cf_convergents(SQRT2, 10)
    assert [(c.a, c.q) for c in convs] == [(c.a, c.q) for c in exact]
    for c in convs:
        lo, hi = Fraction(c.err_num - 1, c.err_den), Fraction(c.err_num + 1, c.err_den)
        assert max(abs(lo), abs(hi)) <= Fraction(1, c.q * c.q)
