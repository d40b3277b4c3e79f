import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction
from math import ceil, gcd, pi

import numpy as np
import pytest

from smoothdio import dispersion, smooth
from smoothdio.arith import largest_prime_factor
from smoothdio.diophantine import ApproxParams, derive_params
from smoothdio.dispersion import (
    DispersionParams,
    bilinear_B,
    bump_fourier,
    bump_fourier_array,
    bump_phi,
    bump_phi_array,
    dispersion_sums,
    phi_hat_zero,
    phi_weight,
    phi_weight_poisson,
    sigma_qR,
    type1_report,
    type2_report,
)
from smoothdio.errors import BudgetExceededError, CapacityError, NonConvergenceError
from smoothdio.smooth import local_density, smooth_sieve


# ---------------------------------------------------------------------------
# bump
# ---------------------------------------------------------------------------


def test_bump_clauses_on_grid():
    xs = np.linspace(-1.0, 2.0, 6001)
    vals = bump_phi_array(xs)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(vals[(xs < 0.25) | (xs > 0.75)] == 0.0)
    assert np.all(vals[(xs >= 1 / 3) & (xs <= 2 / 3)] == 1.0)
    # scalar/array agreement
    for x in (-0.5, 0.2, 0.26, 1 / 3, 0.5, 0.7, 0.74, 0.76):
        assert bump_phi(x) == pytest.approx(bump_phi_array(np.array([x]))[0], abs=0)


def test_bump_transition_symmetry():
    for t in np.linspace(0.0, 1 / 12, 97):
        assert bump_phi(0.25 + t) + bump_phi(1 / 3 - t) == pytest.approx(1.0, abs=1e-12)


def test_bump_smoothness_report():
    # fitted-constant report for the derivative clauses: central differences
    # at orders 1 and 2 stay finite and are largest in the transitions
    h = 1e-5
    xs = np.linspace(0.251, 0.749, 499)
    d1 = np.max(np.abs((bump_phi_array(xs + h) - bump_phi_array(xs - h)) / (2 * h)))
    d2 = np.max(
        np.abs((bump_phi_array(xs + h) - 2 * bump_phi_array(xs) + bump_phi_array(xs - h)) / h**2)
    )
    print(f"bump derivative bounds: |phi'| <= {d1:.3f}, |phi''| <= {d2:.1f}")
    assert d1 < 100 and d2 < 1e5


def test_bump_fourier_zero():
    assert bump_fourier(0.0, 1e-12).real == pytest.approx(5 / 12, abs=1e-11)
    assert abs(bump_fourier(0.0, 1e-12).imag) < 1e-13


def test_bump_fourier_conjugate_symmetry():
    for xi in (0.3, 1.7, 12.0, 55.5):
        assert bump_fourier(-xi) == pytest.approx(bump_fourier(xi).conjugate(), abs=1e-12)


def test_bump_fourier_brute_oracle():
    # plain composite-Simpson integration, independent of the panel engine
    for xi in (0.0, 1.0, 5.0, 10.0, 20.0):
        n = 40001
        t = np.linspace(0.25, 0.75, n)
        f = bump_phi_array(t) * np.exp(-2j * pi * xi * t)
        w = np.ones(n)
        w[1:-1:2], w[2:-1:2] = 4, 2
        brute = (t[1] - t[0]) / 3 * np.sum(w * f)
        assert bump_fourier(xi, 1e-11) == pytest.approx(brute, abs=1e-9)


def test_bump_fourier_decay():
    xis = np.arange(50.0, 1001.0)
    vals, err = bump_fourier_array(xis, 1e-10)
    assert err <= 1e-10
    assert float(np.max(np.abs(vals))) <= 1e-3
    assert float(np.abs(vals[-1])) <= abs(bump_fourier(0.0))  # |phihat| <= phihat(0)


# ---------------------------------------------------------------------------
# residue-window weight
# ---------------------------------------------------------------------------


def phi_weight_scan(n, R, q, a):
    """Sum phi(r/R) over every r with r ≡ na (mod q) and |r| <= q."""
    tot = 0.0
    base = (n * a) % q
    for r in range(-q, q + 1):
        if (r - base) % q == 0:
            tot += bump_phi(r / R)
    return tot


def test_phi_weight_plateau_and_support():
    q, a = 997, 5
    R = 300.0
    r = math.floor(R / 2)  # r/R in the plateau
    n = (pow(a, -1, q) * r) % q
    assert phi_weight(n, R, q, a) == 1.0
    r = math.floor(3 * R / 4) + 2  # beyond the support
    n = (pow(a, -1, q) * r) % q
    assert phi_weight(n, R, q, a) == 0.0


def test_phi_weight_scan_oracle():
    rng = random.Random(5005)
    for _ in range(300):
        q = rng.randint(20, 600)
        R = rng.uniform(1.0, q - 1)
        a = rng.choice([x for x in range(1, q) if gcd(x, q) == 1])
        n = rng.randint(0, 10**9)
        assert phi_weight(n, R, q, a) == pytest.approx(phi_weight_scan(n, R, q, a), abs=1e-12)


def test_phi_weight_rejects_wide_window():
    with pytest.raises(ValueError):
        phi_weight(5, 13.0, 13, 1)  # R >= q
    with pytest.raises(ValueError):
        phi_weight(5, 4.0, 10, 5)  # gcd(a, q) > 1


def test_phi_weight_poisson_k0_term():
    # Kmax = 0 keeps only the k = 0 term
    assert phi_weight_poisson(7, 50.0, 1009, 3, Kmax=0) == pytest.approx(
        phi_hat_zero() * 50.0 / 1009
    )


def test_phi_weight_poisson_phase_collapse():
    # n*a ≡ 0 (mod q): all phases are 1
    q, R, a, K = 211, 40.0, 3, 100
    vals, _ = bump_fourier_array(np.arange(1, K + 1) * (R / q), 1e-10)
    expect = (R / q) * (phi_hat_zero() + float(np.sum(vals + np.conj(vals)).real))
    assert phi_weight_poisson(q, R, q, a, Kmax=K) == pytest.approx(expect, abs=1e-12)


def test_phi_weight_poisson_converges_to_direct():
    # 160q/R is not enough everywhere: the fixed case reads 1.26e-6 there;
    # over 300 draws the worst error was 1.45e-6 at 160q/R, 4.8e-9 at 320q/R
    rng = random.Random(5005)
    cases = [(7151, 2303.3033961582832, 3537, 349269)]
    for _ in range(10):
        q = rng.randint(300, 20000)
        R = rng.uniform(50.0, q / 3)
        a = rng.choice([x for x in range(1, q) if gcd(x, q) == 1])
        cases.append((q, R, a, rng.randint(0, 10**7)))
    worst = 0.0
    for q, R, a, n in cases:
        K = ceil(320 * q / R)
        err = abs(phi_weight_poisson(n, R, q, a, K) - phi_weight(n, R, q, a))
        worst = max(worst, err)
    print("poisson error at Kmax = 320q/R:", worst)
    assert worst <= 1e-6


def test_quadrature_cap_is_reachable_and_refuses_past_it(monkeypatch):
    # each level weighs g at its nodes once: 2, 4, 8 panels of 32 nodes, then the patched cap refuses
    seen = []
    real = dispersion._g_array
    monkeypatch.setattr(dispersion, "_g_array", lambda s: seen.append(len(s)) or real(s))
    monkeypatch.setattr(dispersion, "_MAX_PANELS", 8)
    with pytest.raises(NonConvergenceError, match="did not converge"):
        bump_fourier(1e3)
    assert seen == [64, 128, 256]


def test_large_frequencies_converge_in_milliseconds():
    # 1e4 converges at 256 panels (8192 nodes) and 5e4 at 1024, inside the 2¹² panel cap
    t0 = time.perf_counter()
    assert abs(bump_fourier(1e4)) < 1e-12
    assert time.perf_counter() - t0 < 0.1
    assert abs(bump_fourier(5e4)) < 1e-12


def test_poisson_phases_are_formed_a_block_at_a_time():
    # 32000 frequencies at 128 nodes: as one complex matrix the phases alone take 62 MB
    tracemalloc.start()
    try:
        value = phi_weight_poisson(1, 50.0, 20011, 3, 32000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value + 8.166815330537136e-06) <= 1e-12
    assert peak <= 16 << 20


@pytest.mark.parametrize("q, n", [(10**17 + 3, 25 * 10**15), (10**17 + 3, 2 * 10**16 + 7), (3 * 10**18 + 37, 10**18 + 9)])
def test_phi_weight_poisson_phases_are_exact_past_int64(q, n):
    # (n·a mod q)·k passes 2⁶³ for k ≤ 480: int64 phases would wrap, reading −1.08e-5 for 8.97e-7 in
    # the first case and 0.057 off in the last
    R, a, K = q / 3, 1, 480
    vals, _ = bump_fourier_array(np.arange(1, K + 1) * (R / q))
    phases = np.exp(2j * pi * np.array([float(Fraction(n * a * k % q, q)) for k in range(1, K + 1)]))
    terms = vals * phases
    expect = (R / q) * (phi_hat_zero() + float(np.sum(terms + np.conj(terms)).real))
    assert abs(phi_weight_poisson(n, R, q, a, K) - expect) <= 1e-15


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------


def test_sigma_qR_tiny_Y():
    rep = sigma_qR(13, 8, Fraction(1, 3), Y=1.5)
    assert rep.value == 0.0


def test_sigma_qR_enumeration_oracle():
    rep = sigma_qR(13, 8, Fraction(1, 3), Y=float("inf"))
    R = 13**0.5
    tot = 0.0
    for n in range(12, 188):
        if gcd(n, 13) == 1:
            tot += bump_phi(((n * 8) % 13) / R)
    assert rep.value == pytest.approx(tot, rel=1e-12)
    assert rep.ratio == pytest.approx(rep.value / rep.main_term)


def test_sigma_qR_sieved_path_matches_residue_path():
    # finite Y forces the sieve path; compare against a direct loop
    rep = sigma_qR(31, 12, Fraction(1, 4), Y=7.0)
    R = 31 ** (float(Fraction(3, 4)) / float(Fraction(5, 4)))
    lo = ceil(31 ** (2 / (1 + 0.25)) / 4)
    hi = math.floor(4 * 31 ** (2 / 1.25))
    tot = 0.0
    for n in range(lo, hi + 1):
        if gcd(n, 31) == 1 and largest_prime_factor(n) <= 7:
            tot += bump_phi(((n * 12) % 31) / R)
    assert rep.value == pytest.approx(tot, rel=1e-12)


def sigma_fsum_oracle(q, a, theta, Y):
    """Σ(q, R) as math.fsum of the weights of every member of the whole window."""
    pr = derive_params(q, theta, 10.0, Y)
    lo = ceil(pr.X / 4)
    ns = np.flatnonzero(smooth_sieve(lo, math.floor(4 * pr.X), pr.Y, q)[0]) + lo
    return math.fsum(bump_phi_array(((ns % q) * (a % q)) % q / pr.R).tolist())


@pytest.mark.parametrize(
    "q, a, theta, Y, regime",
    [
        (13, 8, Fraction(1, 3), 1.5, "Y < 2"),
        (237, 2, Fraction(1, 5), 30.0, "Y <= sqrt(hi)"),
        (10946, 9149, Fraction(1, 4), 1012.0, "Y <= sqrt(hi)"),
        (1009, 5, Fraction(1, 5), 3000.0, "sqrt(hi) < Y < hi"),
        (5000, 7, Fraction(3, 10), 1e5, "sqrt(hi) < Y < hi"),
        (2310, 13, Fraction(1, 3), 100.0, "Y <= sqrt(hi)"),
        (2310, 13, Fraction(1, 3), float("inf"), "Y >= hi"),
        (1009, 5, Fraction(1, 5), 1e7, "Y >= hi"),
        (31, 12, Fraction(1, 4), None, "Y >= hi"),  # Y = (log X)^10
        # R = 13.1: every r in [3, 10] shares a prime with 210, so no class is sieved and Σ = 0
        (210, 1, Fraction(7, 20), 10.0, "Y <= sqrt(hi)"),
        (210, 1, Fraction(7, 20), float("inf"), "Y >= hi"),
    ],
)
def test_sigma_qR_is_the_correctly_rounded_member_sum(q, a, theta, Y, regime):
    pr = derive_params(q, theta, 10.0, Y)
    hi = math.floor(4 * pr.X)
    assert regime == ("Y < 2" if pr.Y < 2 else "Y <= sqrt(hi)" if pr.Y <= math.sqrt(hi)
                      else "sqrt(hi) < Y < hi" if pr.Y < hi else "Y >= hi")
    rep = sigma_qR(q, a, theta, Y=Y)
    assert rep.value == sigma_fsum_oracle(q, a, theta, Y)
    assert rep.ratio == rep.value / rep.main_term


@pytest.mark.parametrize("q, value", [
    (10**12 + 39, 3126080275.4932194),
    (2**61 - 1, None),  # ā·r passes int64 too: the offsets are formed in Python ints
])
def test_vacuous_sigma_counts_each_class_past_int64(q, value, monkeypatch):
    # lo = 10¹⁹ passes 2⁶³: each class is counted from its offset from lo, below q, never from lo + offset
    params = ApproxParams(Fraction(1, 4), q, 4e19, 50.0, math.inf, 10.0)
    monkeypatch.setattr(dispersion, "derive_params", lambda *args: params)
    a = 7
    lo, hi = ceil(params.X / 4), math.floor(4 * params.X)
    assert lo > 2**63
    rs = [r for r in range(12, 39) if gcd(r, q) == 1]
    firsts = [pow(a, -1, q) * r % q for r in rs]  # n ≡ ā·r (mod q)
    counts = [(hi - c) // q - (lo - 1 - c) // q for c in firsts]
    weights = bump_phi_array(np.array(rs) / params.R).tolist()
    expect = float(sum(Fraction(w) * c for w, c in zip(weights, counts)))
    got = sigma_qR(q, a, params.theta).value
    assert got == expect and value in (None, got)


@pytest.mark.parametrize("q, a, theta, Y", [
    (13, 8, Fraction(1, 3), math.inf),
    (2310, 13, Fraction(1, 3), math.inf),
    (237, 2, Fraction(1, 5), 30.0),
    (1009, 5, Fraction(1, 5), 3000.0),
])
def test_sigma_qR_block_sum_is_the_exact_member_sum_rounded_once(q, a, theta, Y, monkeypatch):
    # blocks of one residue lower the least exponent many times over: each shift keeps the sum exact
    pr = derive_params(q, theta, 10.0, Y)
    lo = ceil(pr.X / 4)
    ns = np.flatnonzero(smooth_sieve(lo, math.floor(4 * pr.X), pr.Y, q)[0]) + lo
    exact = float(sum(map(Fraction, bump_phi_array(ns * a % q / pr.R).tolist())))
    for block in (dispersion._LAYOUT_CHUNK, 7, 1):
        monkeypatch.setattr(dispersion, "_LAYOUT_CHUNK", block)
        assert sigma_qR(q, a, theta, Y=Y).value == exact, block


def test_vacuous_sigma_holds_one_block_of_terms(monkeypatch):
    # q = 10⁹ + 7, θ = 1/4: 125 594 residues.  The class counts and their residues take under
    # 40 bytes a residue; the exact terms, about 130 bytes each as Python ints, are held one block at a time
    q, block = 10**9 + 7, 1 << 12
    pr, window = dispersion.sigma_window(q, 1, Fraction(1, 4), Y=math.inf)
    residues = window[4] - window[3] + 1
    assert 120_000 < residues < 130_000
    monkeypatch.setattr(dispersion, "_LAYOUT_CHUNK", block)
    tracemalloc.start()
    try:
        sigma_qR(q, 1, Fraction(1, 4), Y=math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * residues + 200 * block


def test_sigma_positivity_containment():
    theta = Fraction(1, 3)
    sig = sigma_qR(101, 5, theta, Y=float("inf"))
    params = DispersionParams(30.0, 30.0, 101, 5, 101**0.5, float("inf"), theta)
    bb = bilinear_B(params)
    # products (30,60] x (30,60] lie inside [X/4, 4X] = [254, 4060]
    assert sig.value >= bb.value


def test_bilinear_B_brute():
    params = DispersionParams(10.0, 10.0, 101, 1, 20.0, float("inf"))
    rep = bilinear_B(params)
    tot = 0.0
    for m in range(11, 21):
        if gcd(m, 101) != 1:
            continue
        for n in range(11, 21):
            if gcd(n, 101) != 1:
                continue
            tot += bump_phi(((m * n) % 101) / 20.0)
    assert rep.value == pytest.approx(tot, rel=1e-12)


def test_bilinear_B_trivial_and_monotone():
    p0 = DispersionParams(10.0, 10.0, 101, 1, 20.0, 1.5)
    assert bilinear_B(p0).value == 0.0
    vals = []
    for Y in (3.0, 5.0, 11.0, float("inf")):
        vals.append(bilinear_B(DispersionParams(10.0, 10.0, 101, 1, 20.0, Y)).value)
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_type1_small_instance_brute():
    params = DispersionParams(20.0, 20.0, 211, 1, 40.0, float("inf"))
    rep = type1_report(params)
    tot, cnt = 0.0, 0
    for m in range(21, 41):
        if gcd(m, 211) != 1:
            continue
        cnt += 1
        for n in range(21, 41):
            tot += bump_phi(((m * n) % 211) / 40.0)
    assert rep.value == pytest.approx(tot, rel=1e-12)
    assert rep.main_term == pytest.approx(phi_hat_zero() * 20.0 * 40.0 / 211 * cnt, rel=1e-12)


def test_type1_empty_smooth_set():
    rep = type1_report(DispersionParams(20.0, 20.0, 211, 1, 40.0, 1.5))
    assert rep.value == 0.0
    assert rep.main_term == 0.0
    assert rep.ratio is None  # undefined flag


def brute_quadruple(params):
    """All four dispersion sums from one independent direct path."""
    M, N, q, a, R, Y = params.M, params.N, params.q, params.a, params.R, params.Y
    K = local_density(N, Y, q)
    n_lo, n_hi = math.floor(N) + 1, math.floor(2 * N)
    S1 = S2 = S3 = 0.0
    m = math.floor(3 * M / 4 - 2)
    while m <= math.ceil(9 * M / 4 + 2):
        w = bump_phi(m / (3 * M))
        if w > 0:
            A = B = 0.0
            for n in range(n_lo, n_hi + 1):
                ph = bump_phi(((m * n * a) % q) / R)
                B += ph
                if largest_prime_factor(n) <= Y and gcd(n, q) == 1:
                    A += ph
            S1 += w * A * A
            S2 += w * A * B
            S3 += w * B * B
        m += 1
    return S1, K * S2, K * K * S3, S1 - 2 * K * S2 + K * K * S3


def test_dispersion_sums_brute():
    params = DispersionParams(15.0, 15.0, 101, 2, 20.0, 5.0)
    got = dispersion_sums(params)
    expect = brute_quadruple(params)
    for g, e in zip(got, expect):
        assert g == pytest.approx(e, rel=1e-10, abs=1e-10)


def test_dispersion_square_expansion_identity():
    rng = random.Random(5005)
    for _ in range(6):
        M = float(rng.randint(5, 30))
        N = float(rng.randint(5, 30))
        q = rng.choice([53, 101, 211])
        a = rng.choice([x for x in range(2, q) if gcd(x, q) == 1])
        R = rng.uniform(5.0, q / 2)
        Y = rng.choice([3.0, 5.0, 11.0])
        params = DispersionParams(M, N, q, a, R, Y)
        S1, S2, S3, Sp = dispersion_sums(params)
        assert Sp >= -1e-12
        # independent square expansion
        K = local_density(N, Y, q)
        direct = 0.0
        for m in range(math.floor(3 * M / 4), math.ceil(9 * M / 4) + 1):
            w = bump_phi(m / (3 * M))
            if w == 0:
                continue
            inner = 0.0
            for n in range(math.floor(N) + 1, math.floor(2 * N) + 1):
                ind = 1.0 if (largest_prime_factor(n) <= Y and gcd(n, q) == 1) else 0.0
                inner += (ind - K) * bump_phi(((m * n * a) % q) / R)
            direct += w * inner * inner
        assert abs(Sp - direct) <= 1e-8 * max(1.0, abs(S1))


def test_type2_zero_discrepancy():
    # every n in (N, 2N] smooth and coprime, N integer: indicator == K == 1
    params = DispersionParams(15.0, 20.0, 211, 3, 40.0, float("inf"))
    rep = type2_report(params)
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.params["cauchy_schwarz"]["ok"]


def test_type2_brute_and_cauchy_schwarz():
    params = DispersionParams(15.0, 15.0, 101, 2, 20.0, 5.0)
    rep = type2_report(params)
    K = local_density(15.0, 5.0, 101)
    D = 0.0
    for m in range(16, 31):
        if not (largest_prime_factor(m) <= 5 and gcd(m, 101) == 1):
            continue
        for n in range(16, 31):
            ind = 1.0 if (largest_prime_factor(n) <= 5 and gcd(n, 101) == 1) else 0.0
            D += (ind - K) * bump_phi(((m * n * 2) % 101) / 20.0)
    assert rep.value == pytest.approx(D, rel=1e-10, abs=1e-10)
    cs = rep.params["cauchy_schwarz"]
    assert cs["ok"] and cs["D_sq"] <= cs["M_Sprime"] * (1 + 1e-9) + 1e-12


def test_type2_benchmark_main_term():
    params = DispersionParams(15.0, 15.0, 101, 2, 20.0, 5.0, eta=0.07)
    rep = type2_report(params)
    assert rep.main_term == pytest.approx(20.0 ** (2 - 0.07))


def test_dispersion_params_flags():
    p = DispersionParams(15.0, 15.0, 101, 2, 20.0, 5.0)
    assert any("MN" in f for f in p.flags)
    assert any("eta" in f for f in p.flags)
    with pytest.raises(ValueError):
        DispersionParams(1.0, 15.0, 101, 2, 20.0, 5.0)  # M < 2
    with pytest.raises(ValueError):
        DispersionParams(15.0, 15.0, 101, 2, 200.0, 5.0)  # R >= q


def test_sprime_scaling_diagnostic_report():
    # report: S' * M / R^4 along growing instances (expected bounded)
    from smoothdio.diophantine import QuadIrr, cf_convergents, derive_params

    golden = QuadIrr(1, 1, 5, 2)
    theta = Fraction(3, 10)
    rows = []
    for conv in cf_convergents(golden, 16):
        if conv.q < 200:
            continue
        pr = derive_params(conv.q, theta)
        N = 30.0
        M = float(math.floor(pr.X / N))
        params = DispersionParams(M, N, conv.q, conv.a, pr.R, 1e3, theta)
        _, _, _, Sp = dispersion_sums(params)
        rows.append((conv.q, Sp * M / pr.R**4))
    print("S'M/R^4 diagnostic:", rows)
    assert all(np.isfinite(r[1]) and r[1] >= 0 for r in rows)


def test_type1_ratio_trend_report():
    # report: the Type I ratio along a golden-ratio convergent family
    from smoothdio.diophantine import QuadIrr, cf_convergents, derive_params

    golden = QuadIrr(1, 1, 5, 2)
    theta = Fraction(3, 10)
    rows = []
    for conv in cf_convergents(golden, 18):
        if conv.q < 200:
            continue
        pr = derive_params(conv.q, theta)
        N = 40.0
        M = float(math.floor(pr.X / N))
        params = DispersionParams(M, N, conv.q, conv.a, pr.R, 1e3, theta)
        rep = type1_report(params)
        rows.append((conv.q, rep.ratio))
    print("type1 ratio trend:", rows)
    assert 0.2 < rows[-1][1] < 5.0


# ---------------------------------------------------------------------------
# the shared dispersion context against the per-report bodies it replaced
# (each report built its own windows, flags, K and inner sums), kept here as
# the exact reference: every float must match bit for bit
# ---------------------------------------------------------------------------


def _oracle_window_ints(lo, hi):
    a = int(math.floor(lo)) + 1
    b = int(math.floor(hi))
    if b < a:
        return np.zeros(0, dtype=np.int64)
    return np.arange(a, b + 1, dtype=np.int64)


def _oracle_smooth_members(lo, hi, Y, q):
    ns = _oracle_window_ints(lo, hi)
    if len(ns) == 0:
        return ns
    return ns[smooth_sieve(int(ns[0]), int(ns[-1]), Y, q)[0]]


def _oracle_n_flags(params):
    n_all = _oracle_window_ints(params.N, 2 * params.N)
    if len(n_all):
        return n_all, smooth_sieve(int(n_all[0]), int(n_all[-1]), params.Y, params.q)[0].astype(np.float64)
    return n_all, np.zeros(0)


def _oracle_inner_sums(ms, n_all, ind, R, q, a, budget):
    if len(ms) * len(n_all) > budget:
        raise BudgetExceededError("pair loop exceeds budget")
    A = np.zeros(len(ms))
    B = np.zeros(len(ms))
    if len(ms) == 0 or len(n_all) == 0:
        return A, B
    n_mod = n_all % q
    amodq = a % q
    block = max(1, 4_000_000 // len(n_all))
    for i in range(0, len(ms), block):
        mb = ms[i : i + block]
        res = (((mb * amodq) % q)[:, None] * n_mod[None, :]) % q
        W = bump_phi_array(res / R)
        B[i : i + block] = W.sum(axis=1)
        A[i : i + block] = W.compress(ind > 0, axis=1).sum(axis=1)  # a C-order row sum, as B_m
    return A, B


def _oracle_bilinear(p, budget):
    ms = _oracle_smooth_members(p.M, 2 * p.M, p.Y, p.q)
    n_all, ind = _oracle_n_flags(p)
    A, _ = _oracle_inner_sums(ms, n_all, ind, p.R, p.q, p.a, budget)
    return float(A.sum()), phi_hat_zero() * (p.R / p.q) * len(ms) * float(ind.sum())


def _oracle_type1(p, budget):
    ms = _oracle_smooth_members(p.M, 2 * p.M, p.Y, p.q)
    n_all = _oracle_window_ints(p.N, 2 * p.N)
    A, B = _oracle_inner_sums(ms, n_all, np.zeros(len(n_all)), p.R, p.q, p.a, budget)
    return float(B.sum()), phi_hat_zero() * p.N * p.R / p.q * len(ms)


def _oracle_sums(p, budget):
    ms = _oracle_window_ints(3 * p.M / 4 - 1, 9 * p.M / 4 + 1)
    w = bump_phi_array(ms / (3.0 * p.M))
    keep = w > 0.0
    ms, w = ms[keep], w[keep]
    n_all, ind = _oracle_n_flags(p)
    K = local_density(p.N, p.Y, p.q)
    A, B = _oracle_inner_sums(ms, n_all, ind, p.R, p.q, p.a, budget)
    S1 = float(np.sum(w * A * A))
    S2 = float(K * np.sum(w * A * B))
    S3 = float(K * K * np.sum(w * B * B))
    return S1, S2, S3, S1 - 2.0 * S2 + S3


def _oracle_type2(p, budget):
    ms = _oracle_smooth_members(p.M, 2 * p.M, p.Y, p.q)
    n_all, ind = _oracle_n_flags(p)
    K = local_density(p.N, p.Y, p.q)
    A, B = _oracle_inner_sums(ms, n_all, ind, p.R, p.q, p.a, budget)
    D = float(np.sum(A - K * B))
    S1, S2, S3, Sp = _oracle_sums(p, budget)
    return D, p.R ** (2.0 - p.eta), {"S1": S1, "S2": S2, "S3": S3, "Sprime": Sp}, D * D, p.M * Sp


def _random_dispersion_params(rng):
    q = rng.choice([2, 13, 30, 97, 101, 210, 331])
    a = rng.randrange(1, q)
    while gcd(a, q) != 1:
        a = rng.randrange(1, q)
    R = rng.uniform(1.5, q - 0.5)
    Y = rng.choice([2, 3.5, 5, 11, 40, float("inf")])
    return DispersionParams(rng.uniform(2, 80), rng.uniform(2, 60), q, a, R, Y, Fraction(1, 3))


def test_reports_match_per_report_bodies_bit_for_bit():
    rng = random.Random(17)
    cases = [_random_dispersion_params(rng) for _ in range(40)]
    # Y = 2 with q even leaves no smooth m in (M, 2M]
    cases.append(DispersionParams(9.0, 7.0, 2, 1, 1.5, 2.0, Fraction(1, 3)))
    assert any(p.Y == float("inf") for p in cases)
    for p in cases:
        budget = 10**9
        rep = type1_report(p, budget)
        assert (rep.value, rep.main_term) == _oracle_type1(p, budget)
        rep = bilinear_B(p, budget)
        assert (rep.value, rep.main_term) == _oracle_bilinear(p, budget)
        assert dispersion_sums(p, budget) == _oracle_sums(p, budget)
        rep = type2_report(p, budget)
        D, main, sums, D_sq, M_Sp = _oracle_type2(p, budget)
        assert (rep.value, rep.main_term, rep.params["sums"]) == (D, main, sums)
        assert (rep.params["cauchy_schwarz"]["D_sq"], rep.params["cauchy_schwarz"]["M_Sprime"]) == (D_sq, M_Sp)
    empty = cases[-1]
    assert len(_oracle_smooth_members(empty.M, 2 * empty.M, empty.Y, empty.q)) == 0
    assert type1_report(empty).value == 0.0


def test_residue_weight_table_equals_the_bump_bit_for_bit():
    rng = random.Random(23)
    cases = [(q, rng.uniform(0.01, q - 0.01)) for q in (2, 3, 13, 97, 331, 10946) for _ in range(8)]
    cases += [(101, 4.0), (101, 4 / 3), (101, 100.99), (97, 96.0), (10946, 265.188)]  # 3R/4 an integer, R near q
    for q, R in cases:
        table, cut = dispersion._residue_weights(q, R)
        res = np.arange(q)
        got = table[np.minimum(res, cut)]
        want = bump_phi_array(res / R)
        assert got.tobytes() == want.tobytes(), (q, R)


def test_inner_sums_over_many_blocks_match_the_oracle():
    # the phi window's m×n pairs span several 2^18-pair blocks; the oracle weighs every pair
    p = DispersionParams(1000.0, 327.0, 10946, 9149, 265.188, 1012.0, Fraction(1, 4))
    assert len(_oracle_window_ints(3 * p.M / 4 - 1, 9 * p.M / 4 + 1)) * 327 > 1 << 18
    assert dispersion_sums(p) == _oracle_sums(p, 10**9)
    assert type2_report(p).value == _oracle_type2(p, 10**9)[0]


def test_inner_sums_do_not_depend_on_the_pair_block(monkeypatch):
    """A_m and B_m are row sums in a fixed order: their bits are the same
    whether the m×n pairs are weighed 2^18 or 2^12 at a time."""
    rng = random.Random(31)
    cases = []
    for _ in range(8):
        q = rng.choice([1009, 5623, 10946])
        a = rng.randrange(1, q)
        while gcd(a, q) != 1:
            a = rng.randrange(1, q)
        Y = rng.choice([50.0, 1367.0, float("inf")])
        cases.append(DispersionParams(rng.uniform(200, 2000), rng.uniform(50, 400), q, a,
                                      rng.uniform(q**0.3, q / 2), Y, Fraction(1, 4)))
    for p in cases:
        bits = []
        for block in (1 << 18, 1 << 12):
            monkeypatch.setattr(dispersion, "_PAIR_BLOCK", block)
            ctx = DispersionParams(p.M, p.N, p.q, p.a, p.R, p.Y)
            bits.append([s.tobytes() for window in ("smooth", "phi") for s in ctx.inner_sums(window, 10**9)])
        assert bits[0] == bits[1], p


def _int64_inner_sums(ctx, ms):
    """A_m, B_m by the int64 residue path that the in-place blocks replaced:
    every pair at once, each step a fresh int64 array."""
    q = ctx.q
    table, cut = dispersion._residue_weights(q, ctx.R)
    res = (((ms * (ctx.a % q)) % q)[:, None] * (ctx.n_all % q)[None, :]) % q
    W = table[np.minimum(res, cut)]
    return W.compress(ctx.smooth, axis=1).sum(axis=1), W.sum(axis=1)


@pytest.mark.parametrize(
    "q, M, N, dtype",
    [
        (4181, 1500.0, 300.0, np.int32),
        (10946, 4438.0, 327.0, np.int32),
        (46337, 20.0, 30000.0, np.int32),  # (q − 1)² = 2147024896 < 2³¹
        (46349, 20.0, 30000.0, np.int64),  # (q − 1)² = 2148137104
        (46349, 25000.0, 40.0, np.int64),  # (q − 1)·max m past 2³¹
        (65537, 10.0, 40000.0, np.int64),
    ],
)
def test_inner_sums_equal_the_int64_residue_path(monkeypatch, q, M, N, dtype):
    rng = random.Random(q)
    a = rng.randrange(1, q)
    while gcd(a, q) != 1:
        a = rng.randrange(1, q)
    R, Y = rng.uniform(q**0.3, q / 2), rng.choice([50.0, 1367.0, float("inf")])
    want = None
    # the default block, blocks of 3 rows, and one row per block
    for rows in (None, 3, 1):
        ctx = DispersionParams(M, N, q, a, R, Y)
        if rows is not None:
            monkeypatch.setattr(dispersion, "_PAIR_BLOCK", rows * len(ctx.n_all))
        got = []
        for window, ms in (("smooth", ctx.m_smooth), ("phi", ctx.m_phi[0])):
            assert ctx.check_pairs(window, 10**9)[1] == dtype
            got += [s.tobytes() for s in ctx.inner_sums(window, 10**9)]
            if want is None:
                assert got[-2:] == [s.tobytes() for s in _int64_inner_sums(ctx, ms)], window
        want = want or got
        assert got == want, rows


def test_inner_sums_exact_below_int64_and_refused_past_it():
    # N = 1000: c_m·(n mod q) < (q − 1)·2000, which is 2⁶³ − 3808 at the first q and 2⁶³ + 192 at the second
    q = 4611686018427387
    a = (q + 1) // 2  # the inverse of 2: m·n·ā ≡ mn/2 for even mn, so φ's window is met
    ctx = DispersionParams(2.0, 1000.0, q, a, 3000.0, 50.0)
    for window, ms in (("smooth", ctx.m_smooth), ("phi", ctx.m_phi[0])):
        assert ctx.check_pairs(window, 10**9)[1] == np.int64
        A, B = ctx.inner_sums(window, 10**9)
        res = np.array([[m * n * a % q for n in ctx.n_all.tolist()] for m in ms.tolist()])  # Python ints
        W = bump_phi_array(res / ctx.R)
        assert A.tobytes() == W.compress(ctx.smooth, axis=1).sum(axis=1).tobytes()
        assert B.tobytes() == W.sum(axis=1).tobytes()
        assert np.all(B > 0) and np.any(A > 0)
    q = 4611686018427389
    p = DispersionParams(2.0, 1000.0, q, (q + 1) // 2, 3000.0, 50.0, Fraction(1, 3))
    for report in (type1_report, bilinear_B, dispersion_sums, type2_report):
        with pytest.raises(CapacityError, match="residue products up to 9223372036854776000 exceed int64"):
            report(p)


def test_residue_weight_table_is_checked_against_capacity(monkeypatch):
    # q = 101, R = 20: the table holds φ(r/R) for r < 16, then one 0.0
    p = DispersionParams(40.0, 30.0, 101, 2, 20.0, 5.0, Fraction(1, 3))
    assert len(dispersion._residue_weights(p.q, p.R)[0]) == 17
    monkeypatch.setattr(dispersion, "SIEVE_CAPACITY", 17)
    assert type1_report(p).value == _oracle_type1(p, 10**9)[0]
    monkeypatch.setattr(dispersion, "SIEVE_CAPACITY", 16)
    with pytest.raises(CapacityError, match="17 residue weights at q = 101 exceed sieve capacity"):
        type1_report(p)


def test_inner_sums_peak_bytes_per_pair():
    """One call holds, per pair of a block, one int32 residue and then one
    float64 weight: the smooth columns' residues and weights come first and
    take no more while at most 2/3 of the n are smooth.  So the peak stays
    below 16 bytes a pair, where fresh int64 products, remainders and
    weights took about 32."""
    ctx = DispersionParams(4438.0, 327.0, 10946, 9149, 265.188, 1012.0)
    pairs = dispersion._PAIR_BLOCK // len(ctx.n_all) * len(ctx.n_all)
    assert ctx.check_pairs("phi", 10**9)[1] == np.int32
    assert len(ctx.m_phi[0]) * len(ctx.n_all) > pairs and np.mean(ctx.smooth) < 2 / 3
    tracemalloc.start()
    try:
        ctx.inner_sums("phi", 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * pairs


def test_context_sieves_each_window_once_and_reads_K_from_its_flags(monkeypatch):
    sieved = []

    def counting_sieve(lo, hi, y, q=1):
        sieved.append((lo, hi))
        return smooth_sieve(lo, hi, y, q)

    monkeypatch.setattr(dispersion, "smooth_sieve", counting_sieve)
    monkeypatch.setattr(smooth, "smooth_sieve", counting_sieve)  # local_density's sieve counts too
    for M, N, q, a, R, Y in ((40.0, 30.0, 101, 2, 20.0, 5.0), (9.0, 7.5, 2, 1, 1.5, 2.0), (15.0, 2.0, 13, 5, 6.0, 1.0)):
        sieved.clear()
        ctx = DispersionParams(M, N, q, a, R, Y)
        for window in ("smooth", "phi", "smooth", "phi"):
            ctx.inner_sums(window, 10**9)
        K = ctx.K
        # the n-window (N, 2N] and the m-window (M, 2M]; the φ(m/3M) window is not sieved
        assert sorted(sieved) == sorted([(math.floor(N) + 1, math.floor(2 * N)),
                                         (math.floor(M) + 1, math.floor(2 * M))])
        assert K == local_density(N, Y, q)


def _count_sieves(monkeypatch):
    sieved = []

    def counting_sieve(lo, hi, y, q=1):
        sieved.append((lo, hi))
        return smooth_sieve(lo, hi, y, q)

    monkeypatch.setattr(dispersion, "smooth_sieve", counting_sieve)
    return sieved


def test_each_params_object_sieves_its_windows_once(monkeypatch):
    # two configurations used in turn keep their own windows: 2 sieves each, not 2 per switch
    sieved = _count_sieves(monkeypatch)
    A = DispersionParams(40.0, 30.0, 101, 2, 20.0, 5.0, Fraction(1, 3))
    B = DispersionParams(60.0, 25.0, 103, 5, 30.0, 7.0, Fraction(1, 3))
    reports = [(type1_report(p).value, type2_report(p).value) for p in (A, B, A, B)]
    assert len(sieved) == 4
    assert reports[:2] == reports[2:]
    assert reports[0] == (_oracle_type1(A, 10**9)[0], _oracle_type2(A, 10**9)[0])
    with pytest.raises(dataclasses.FrozenInstanceError):  # so no window outlives the fields it was built from
        A.N = 45.0


def test_budget_refusal_sieves_only_the_m_window(monkeypatch):
    sieved = _count_sieves(monkeypatch)
    p = DispersionParams(40.0, 30.0, 101, 2, 20.0, 5.0, Fraction(1, 3))
    pairs = len(_oracle_smooth_members(p.M, 2 * p.M, p.Y, p.q)) * len(_oracle_window_ints(p.N, 2 * p.N))
    with pytest.raises(BudgetExceededError, match="pair loop exceeds budget"):
        dispersion.check_pairs("type1", p, pairs - 1)
    assert sieved == [(41, 80)]
    dispersion.check_pairs("type1", p, pairs)
    assert sieved == [(41, 80)]


def test_type1_budget_excludes_the_phi_window():
    p = DispersionParams(40.0, 30.0, 101, 2, 20.0, 5.0, Fraction(1, 3))
    ms = _oracle_smooth_members(p.M, 2 * p.M, p.Y, p.q)
    n_all = _oracle_window_ints(p.N, 2 * p.N)
    budget = len(ms) * len(n_all)  # admits (M, 2M] but not the ~1.5M-wide phi window
    assert type1_report(p, budget).value == _oracle_type1(p, budget)[0]
    with pytest.raises(BudgetExceededError):
        dispersion_sums(p, budget)
    with pytest.raises(BudgetExceededError):
        type2_report(p, budget)
    assert dispersion_sums(p) == _oracle_sums(p, 10**9)
    with pytest.raises(BudgetExceededError):  # a cached window is checked again
        dispersion_sums(p, budget)
