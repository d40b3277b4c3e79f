"""Seeded job generators for the three benchmark workloads.

Every input comes from the seed.  Each job is sized from a predicted cost so
that any seed gives a comparable load:

* target-set jobs by predicted member count 15/4 · R² · φ(q)/q,
* sieve jobs by interval length,
* Kloosterman and dispersion jobs by the count of m×n pairs.

A generated input that would exceed one of the CLI's documented capacities
(sieve length 2e7, prime sums to 1e7, moduli to 2e6) is rejected here, so no
seed can make a job exit with code 3.

The continued fractions used for sizing are computed by this module's own
integer code, not by smoothdio.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, exp, floor, gcd, isqrt, log

import numpy as np

from tracing import kl_pairs, mn_pairs

SIEVE_CAPACITY = 20_000_000
PRIME_SUM_CAPACITY = 10_000_000
MODULUS_CAPACITY = 2_000_000


@dataclass
class Job:
    """One CLI invocation: `args` follow `python -m smoothdio.cli`.

    `check` holds what the output oracle needs to know about the inputs;
    `work` is the job's predicted work in the workload's unit.
    """

    name: str
    kind: str
    args: list
    fmt: str
    work: float
    check: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# quadratic irrationals and their continued fractions
# ---------------------------------------------------------------------------


def _nonsquare(d: int) -> bool:
    return isqrt(d) ** 2 != d


def alpha_pool():
    """(p, s, d, r) for √d and (1 + √d)/2 with small nonsquare d."""
    pool = [(0, 1, d, 1) for d in range(2, 121) if _nonsquare(d)]
    pool += [(1, 1, d, 2) for d in range(5, 122, 4) if _nonsquare(d)]
    return pool


def convergents(alpha, qmax: int):
    """Continued-fraction convergents (a, q) of (p + s√d)/r with q ≤ qmax.

    Uses the (P + √D)/Q recurrence on integers; the pool's surds start with
    Q > 0 and stay reduced, which the loop asserts.
    """
    p, s, d, r = alpha
    if s != 1 or r not in (1, 2) or (d - p * p) % r:
        raise ValueError(f"unsupported surd {alpha}")
    P, Q, D = p, r, d
    root = isqrt(D)
    out = []
    h_prev, h = 1, None
    k_prev, k = 0, 1
    while True:
        if Q <= 0:
            raise ValueError(f"surd {alpha} left the reduced form")
        t = (P + root) // Q
        if h is None:
            h = t
        else:
            h_prev, h = h, t * h + h_prev
            k_prev, k = k, t * k + k_prev
        if k > qmax:
            return out
        out.append((h, k))
        P = t * Q - P
        Q = (D - P * P) // Q


def primes_upto(n: int) -> np.ndarray:
    """Primes ≤ n from an odd-only sieve of Eratosthenes."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n - 1) // 2, dtype=bool)  # odd[i] ⇔ 2i + 3 is prime
    for i in range((isqrt(n) - 1) // 2):
        if odd[i]:
            p = 2 * i + 3
            odd[(p * p - 3) // 2 :: p] = False
    return np.concatenate(([2], 2 * np.nonzero(odd)[0] + 3)).astype(np.int64)


def totient(n: int) -> int:
    out, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            out -= out // f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out -= out // m
    return out


def scales(q: int, theta: Fraction):
    """X = q^{2/(1+θ)} and R = q^{(1−θ)/(1+θ)}, evaluated as the CLI does."""
    lq = log(q)
    return exp(lq * float(2 / (1 + theta))), exp(lq * float((1 - theta) / (1 + theta)))


def predicted_members(q: int, theta: Fraction) -> float:
    _, R = scales(q, theta)
    return 15 / 4 * R * R * totient(q) / q


def quad_spec(alpha) -> str:
    return "quad:" + ",".join(str(v) for v in alpha)


def _pick(rng: random.Random, candidates, what: str):
    if not candidates:
        raise ValueError(f"no {what} candidate fits the size band")
    return candidates[rng.randrange(len(candidates))]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# (format, theta, predicted members, band of the window's largest q); one
# JSON job rides along.  P⁺ is batched trial division by the primes up to
# √X(q), so a member's cost grows with q: the band keeps it about the same
# on every seed.
SWEEP_SLOTS = (
    ("csv", Fraction(1, 4), 60_000, (2_900, 3_900)),
    ("csv", Fraction(3, 10), 60_000, (6_000, 8_500)),
    ("json", Fraction(1, 4), 25_000, (1_400, 2_000)),
)
SWEEP_BAND = 0.05
SWEEP_C = 10.0


def _sweep_windows(theta: Fraction, target: float, qband):
    """Windows [q_j, q_i] of up to three consecutive convergents with vacuous
    Y, q_i in qband, whose predicted member total lies within SWEEP_BAND of
    target."""
    out = []
    for alpha in alpha_pool():
        convs = [(a, q) for a, q in convergents(alpha, 10**6) if q >= 2]
        sizes = []
        for a, q in convs:
            X, R = scales(q, theta)
            vacuous = log(X) ** SWEEP_C >= 4 * X
            sizes.append(predicted_members(q, theta) if vacuous and R >= 1 else None)
        for i in range(len(convs)):
            if not qband[0] <= convs[i][1] <= qband[1]:
                continue
            total = 0.0
            for j in range(i, max(i - 3, -1), -1):
                if sizes[j] is None:
                    break
                total += sizes[j]
                if abs(total - target) <= SWEEP_BAND * target:
                    out.append((alpha, convs[j][1], convs[i][1], total))
    return out


def sweep_jobs(rng: random.Random):
    jobs = []
    for k, (fmt, theta, target, qband) in enumerate(SWEEP_SLOTS):
        alpha, qmin, qmax, members = _pick(rng, _sweep_windows(theta, target, qband), "sweep")
        args = ["search", "--alpha", quad_spec(alpha), "--theta", str(theta),
                "--qmin", str(qmin), "--qmax", str(qmax), "--format", fmt]
        check = {"alpha": alpha, "theta": theta, "qmin": qmin, "qmax": qmax, "Y": None, "C": SWEEP_C}
        jobs.append(Job(f"sweep{k}", "search", args, fmt, members, check))
    return jobs


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

# Each seeded value is drawn from a narrow band around a fixed template, so
# that every seed costs about the same.
PSI_XMAX = (5_600_000, 5_800_000)
PSI_Y_BANDS = ((5, 10), (50, 100), (500, 1000), (5_000, 10_000), (50_000, 100_000), (100_000, 200_000))
ALPHA_YMAX = (9_500_000, PRIME_SUM_CAPACITY)
ALPHA_X_BANDS = ((1e6, 2e6), (1e8, 2e8), (1e10, 2e10), (1e12, 2e12))
SEARCH_INTERVAL = (7_200_000, 7_800_000)
SEARCH_Y = (950, 1050)
RHO_U = (1.25, 1.5, 1.75, 2.25, 2.5, 2.75, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 350.0, 495.0)
RHO_JITTER = 0.01


def _psi_job(rng):
    xmax = rng.randint(*PSI_XMAX)
    xs = [xmax // 20, xmax // 4, xmax]
    ys = [rng.randint(lo, hi) for lo, hi in PSI_Y_BANDS]
    if xmax > SIEVE_CAPACITY:
        raise ValueError("psi x beyond sieve capacity")
    args = ["psi", "--x", ",".join(map(str, xs)), "--y", ",".join(map(str, ys)), "--format", "json"]
    return Job("psi", "psi", args, "json", len(ys) * xmax, {"x": xs, "y": ys})


def _saddle_bracket_ok(x: float, y: int, primes) -> bool:
    """The CLI's saddle solver brackets the root in (0.01, 1.5)."""
    ps = primes[primes <= y].astype(np.float64)
    logs = np.log(ps)
    g = lambda a: float(np.sum(logs / (ps**a - 1.0)))
    return g(1.5) <= log(x) <= g(0.01)


def _alpha_job(rng, primes):
    ymax = rng.randint(*ALPHA_YMAX)
    if ymax > PRIME_SUM_CAPACITY:
        raise ValueError("alpha y beyond prime-sum capacity")
    ys = [ymax // 10**k for k in range(5)]
    xs = [rng.randint(int(lo), int(hi)) for lo, hi in ALPHA_X_BANDS]
    if any(not _saddle_bracket_ok(x, y, primes) for x in xs for y in ys):
        raise ValueError("alpha cell outside the saddle bracket")
    args = ["alpha", "--x", ",".join(map(str, xs)), "--y", ",".join(map(str, ys)), "--format", "json"]
    return Job("alpha", "alpha", args, "json", len(xs) * sum(ys), {"x": xs, "y": ys})


def _rho_job(rng):
    us = [round(u * (1 + rng.uniform(-RHO_JITTER, RHO_JITTER)), 6) for u in RHO_U]
    args = ["rho", "--u", ",".join(repr(u) for u in us), "--tol", "1e-12", "--format", "json"]
    return Job("rho", "rho", args, "json", 0.0, {"u": us, "tol": 1e-12})


def _finite_y_search_job(rng):
    lo_len, hi_len = SEARCH_INTERVAL
    cands = []
    for theta in (Fraction(1, 4), Fraction(3, 10)):
        for alpha in alpha_pool():
            for a, q in convergents(alpha, 10**6):
                X, _ = scales(q, theta)
                length = floor(4 * X) - ceil(X / 4) + 1
                if q >= 2 and lo_len <= length <= hi_len:
                    cands.append((alpha, theta, q, length))
    alpha, theta, q, length = _pick(rng, cands, "finite-Y search")
    if length > SIEVE_CAPACITY:
        raise ValueError("search interval beyond sieve capacity")
    Y = rng.randint(*SEARCH_Y)
    args = ["search", "--alpha", quad_spec(alpha), "--theta", str(theta), "--qmin", str(q),
            "--qmax", str(q), "--Y", str(Y), "--format", "csv"]
    check = {"alpha": alpha, "theta": theta, "qmin": q, "qmax": q, "Y": Y, "C": SWEEP_C}
    return Job("search_y", "search", args, "csv", length, check)


def sieve_jobs(rng: random.Random):
    primes = primes_upto(PRIME_SUM_CAPACITY)
    return [_psi_job(rng), _alpha_job(rng, primes), _rho_job(rng), _finite_y_search_job(rng)]


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------

KL_M = (990, 1010)
KL_PAIRS = 3_000_000
DISP_X = (2_800_000, 3_000_000)
DISP_Y = (950, 1050)
# One θ: at the same X, θ = 3/10 takes q ≈ 16000 instead of ≈ 10900, and the
# job costs about a tenth more, which would vary the load from seed to seed.
DISP_THETA = Fraction(1, 4)


def _kloosterman_job(rng):
    M = rng.randint(*KL_M)
    x = round(KL_PAIRS / M)
    a = rng.choice([-1, 1]) * rng.randint(1, 1000)
    q = rng.randint(1, 50)
    y = rng.randint(20, 100)
    if 2 * M > MODULUS_CAPACITY:
        raise ValueError("kloosterman modulus beyond capacity")
    if not (2 <= y <= max(x ** (2 / 3), y) < x):
        raise ValueError("kloosterman needs 2 <= y <= z < x")
    args = ["kloosterman", "--M", str(M), "--x", str(x), "--a", str(a), "--q", str(q),
            "--y", str(y), "--format", "json"]
    return Job("kloosterman", "kloosterman", args, "json", kl_pairs(M, x),
               {"M": M, "x": x, "a": a, "q": q, "y": y, "eta": 0.05})


def dispersion_pairs(M: float, N: float) -> int:
    """m×n pairs of one `dispersion --report all`: type1, bilinear and type2
    each sum one (M, 2M] block; the opened square runs twice, once for
    `sums` and once inside type2."""
    return 3 * mn_pairs(M, N) + 2 * mn_pairs(M, N, sums_window=True)


def _dispersion_job(rng):
    theta = DISP_THETA
    cands = []
    for alpha in alpha_pool():
        for a, q in convergents(alpha, 10**6):
            X, R = scales(q, theta)
            if q >= 2 and DISP_X[0] <= X <= DISP_X[1]:
                cands.append((alpha, q, X, R))
    alpha, q, X, R = _pick(rng, cands, "dispersion")
    if floor(4 * X) - ceil(X / 4) + 1 > SIEVE_CAPACITY:
        raise ValueError("dispersion window beyond sieve capacity")
    R_in = round(R, 3)
    N = float(floor(R_in) + rng.randint(0, floor(R_in) // 2))
    M = float(round(X / (2 * N)))
    a = rng.randrange(1, q)
    while gcd(a, q) != 1:
        a = rng.randrange(1, q)
    Y = rng.randint(*DISP_Y)
    args = ["dispersion", "--q", str(q), "--a", str(a), "--M", repr(M), "--N", repr(N),
            "--R", repr(R_in), "--Y", str(Y), "--theta", str(theta), "--report", "all",
            "--format", "json"]
    check = {"q": q, "a": a, "M": M, "N": N, "R": R_in, "Y": Y, "theta": theta,
             "C": 10.0, "delta": 0.1, "eta": 0.05}
    return Job("dispersion", "dispersion", args, "json", dispersion_pairs(M, N), check)


def sums_jobs(rng: random.Random):
    return [_kloosterman_job(rng), _dispersion_job(rng)]


GENERATORS = {"sweep": sweep_jobs, "sieve": sieve_jobs, "sums": sums_jobs}


def make_jobs(workload: str, seed: int):
    """The workload's jobs for this seed, in the order a pass runs them."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
