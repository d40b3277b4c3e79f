"""Exact quadratic-irrational arithmetic and the smooth approximant target set.

The irrational being approximated is carried as α = (p + s√d)/r with integer
entries and d a positive nonsquare, so continued-fraction convergents, the
nearest integer to nα, and the distance ‖nα‖ can all be decided by integer
comparisons — no floating point in any decision path.  A decimal literal with
an explicit precision exponent is accepted as a fallback representation; its
error interval is propagated instead of ignored.  The target set and
dispersion's Σ(q, R) share one residue-class layout, checked from counts,
built in one place, and sieved by one class sieve for P⁺ ≤ Y.

‖nα‖ of a whole member array comes from one kernel for both kinds of α,
dist_from_convergent, with the bits of the scalar dist_nearest, which stays
as the exact oracle that the tests compare it with.  For a quadratic α the
convergent that built the array certifies each member's nearest integer, a
later convergent the few it cannot, and the residual is evaluated in int64,
or in Python ints where int64 cannot hold it.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, exp, floor, gcd, inf, isqrt, log, sqrt

import numpy as np

from .arith import coprime_count
from .errors import BudgetExceededError, CapacityError
from .smooth import SIEVE_CAPACITY, largest_prime_factor_array

THETA_MAX = Fraction(6, 17)

# Denominator scale for the exact error interval attached to a convergent:
# the slot [err_num − 1, err_num + 1] / (2^64 q²) containing α − a/q.
_ERR_SCALE = 1 << 64


def floor_surd(A: int, B: int, d: int, C: int) -> int:
    """⌊(A + B√d)/C⌋, exact (d positive nonsquare, C ≠ 0).

    With C > 0 (after a sign flip), ⌊x/C⌋ = ⌊⌊x⌋/C⌋, and ⌊B√d⌋ is
    isqrt(B²d) for B ≥ 0 and −isqrt(B²d) − 1 for B < 0, since B²d is no
    square when B ≠ 0.
    """
    if C == 0:
        raise ZeroDivisionError("C must be nonzero")
    if C < 0:
        A, B, C = -A, -B, -C
    m = isqrt(B * B * d)
    return (A + (m if B >= 0 else -m - 1)) // C


@dataclass
class QuadIrr:
    """α = (p + s√d)/r, canonicalized to gcd(p, s, r) = 1 and r > 0."""

    p: int
    s: int
    d: int
    r: int

    def __post_init__(self):
        if self.s == 0 or self.r == 0:
            raise ValueError("s and r must be nonzero")
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must be a positive nonsquare")
        if self.r < 0:
            self.p, self.s, self.r = -self.p, -self.s, -self.r
        g = gcd(gcd(abs(self.p), abs(self.s)), self.r)
        if g > 1:
            self.p //= g
            self.s //= g
            self.r //= g


@dataclass
class DecimalAlpha:
    """Decimal fallback: |α − value| ≤ 10^(−prec), value an exact rational."""

    value: Fraction
    prec: int

    @property
    def width(self) -> Fraction:
        return Fraction(1, 10**self.prec)


def parse_alpha(text: str):
    """Parse "quad:p,s,d,r" or "dec:<digits>:<precision-exponent>"."""
    if text.startswith("quad:"):
        parts = text[5:].split(",")
        if len(parts) != 4:
            raise ValueError(f"bad quad spec {text!r}")
        p, s, d, r = (int(t) for t in parts)
        return QuadIrr(p, s, d, r)
    if text.startswith("dec:"):
        parts = text[4:].rsplit(":", 1)
        if len(parts) != 2:
            raise ValueError(f"bad dec spec {text!r}")
        prec = int(parts[1])
        if not 0 <= prec <= 4300:  # 4300: the most digits Python parses into an int
            raise ValueError(f"precision exponent {prec} outside [0, 4300]")
        return DecimalAlpha(Fraction(parts[0]), prec)
    raise ValueError(f"unrecognized alpha spec {text!r}")


@dataclass
class Convergent:
    """a/q with gcd(a, q) = 1 and |α − a/q| ≤ 1/q².

    The exact interval [err_num − 1, err_num + 1] / err_den contains
    α − a/q (a centered slot: representable around any point, including 0).
    """

    a: int
    q: int
    err_num: int
    err_den: int


def convergents(alpha):
    """The continued-fraction convergents of α, in order.

    For QuadIrr the walk is exact and endless (the integer surd recurrence).
    For DecimalAlpha it ends with the expansion of the stored value, and a
    CapacityError is raised at the first convergent whose |α − a/q| ≤ 1/q²
    the stored precision cannot certify.
    """
    exact = isinstance(alpha, QuadIrr)
    if exact:
        # normalize to (P + √D)/Q with Q | D − P²
        if alpha.s > 0:
            P, Q, D = alpha.p, alpha.r, alpha.s * alpha.s * alpha.d
        else:
            P, Q, D = -alpha.p, -alpha.r, alpha.s * alpha.s * alpha.d
        if (D - P * P) % Q != 0:
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    elif isinstance(alpha, DecimalAlpha):
        v = alpha.value
    else:
        raise TypeError("alpha must be QuadIrr or DecimalAlpha")
    h_prev, h, k_prev, k = 0, 1, 1, 0
    while True:
        if exact:
            term = floor_surd(P, 1, D, Q)
            P = term * Q - P
            Q = (D - P * P) // Q
        else:
            term = floor(v)
        h_prev, h = h, term * h + h_prev
        k_prev, k = k, term * k + k_prev
        if exact:
            yield _make_convergent_quad(alpha, h, k)
            continue
        conv = _make_convergent_dec(alpha.value, alpha.width, h, k)
        if conv is None:
            raise CapacityError(f"decimal precision 1e-{alpha.prec} cannot certify convergent {h}/{k}")
        yield conv
        if v == term:
            return  # the expansion of the stored value ends here
        v = 1 / (v - term)


def cf_convergents(alpha, count: int):
    """The first `count` convergents of α (fewer when a decimal expansion
    ends sooner); a CapacityError when a decimal cannot certify one of them."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return list(islice(convergents(alpha), count))


def _make_convergent_quad(alpha: QuadIrr, a: int, q: int) -> Convergent:
    # α − a/q = (E + F√d)/G; round (α − a/q)·err_den to the nearest integer,
    # so the slot half-width 1/(2^64 q²) sits far below the 1/q² margin.
    E = q * alpha.p - a * alpha.r
    F = q * alpha.s
    G = alpha.r * q
    err_den = _ERR_SCALE * q * q
    err_num = floor_surd(2 * E * err_den + G, 2 * F * err_den, alpha.d, 2 * G)
    return Convergent(a, q, err_num, err_den)


def _make_convergent_dec(value: Fraction, width: Fraction, a: int, q: int):
    mid = value - Fraction(a, q)
    if abs(mid) + width > Fraction(1, q * q):
        return None
    # largest dyadic scale whose slot half-width 1/err_den covers the
    # rational uncertainty: width * err_den <= 1/2
    err_den = _ERR_SCALE * q * q
    while err_den > 1 and width * err_den > Fraction(1, 2):
        err_den //= 2
    err_num = floor(mid * err_den + Fraction(1, 2))
    return Convergent(a, q, err_num, err_den)


def dist_nearest(n: int, alpha) -> float:
    """‖nα‖: the nearest integer is decided exactly, then the residual is
    emitted as a float with ~1e-15 relative accuracy (conjugate evaluation,
    no catastrophic cancellation)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0

    if isinstance(alpha, DecimalAlpha):
        t = n * alpha.value
        j = floor(t + Fraction(1, 2))
        return abs(float(t - j))

    A, B, C = n * alpha.p, n * alpha.s, alpha.r
    # nearest integer to (A + B√d)/C is ⌊(2A + C + 2B√d)/(2C)⌋ (ties cannot
    # occur: the value is irrational)
    j = floor_surd(2 * A + C, 2 * B, alpha.d, 2 * C)
    A -= j * C
    # (A + B√d)/C with |value| ≤ 1/2: evaluate via (A² − B²d)/(C(A − B√d))
    num = A * A - B * B * alpha.d
    den = C * (A - B * sqrt(alpha.d))
    return abs(num / den)


_INT64_TOP = 1 << 63


def dist_from_convergent(ns: np.ndarray, alpha, conv: Convergent) -> np.ndarray:
    """‖nα‖ for every n ≥ 1 of the int64 array `ns`, bit for bit as
    dist_nearest gives it; a ValueError for n < 1.

    For a QuadIrr, the convergent a/q certifies, member by member, that the
    nearest integer j to na/q is the nearest integer to nα
    (_certified_dists).  A member it cannot certify is retried against the
    next convergents of the same convergents(alpha) walk: their slots are
    narrower, and the walk ends because nα is never a half-integer.

    For a DecimalAlpha with value N/D, the convergent is not needed: with
    t = nN and j = ⌊(2t + D)/(2D)⌋, ‖n·value‖ = |t − jD|/D, divided as
    Python ints.  That division is correctly rounded, as float(Fraction) is,
    so the bits are those of dist_nearest, ties at 1/2 included.
    """
    if len(ns) == 0:
        return np.zeros(0)
    if int(ns.min()) < 1:
        raise ValueError("n must be >= 1")
    if isinstance(alpha, DecimalAlpha):
        N, D = alpha.value.numerator, alpha.value.denominator
        t = ns.astype(object) * N
        j = (2 * t + D) // (2 * D)
        return (np.abs(t - j * D) / D).astype(np.float64)
    dist, ok = _certified_dists(ns, alpha, conv)
    if ok.all():
        return dist
    out = np.empty(len(ns))
    out[ok] = dist
    rest = np.flatnonzero(~ok)
    walk = (c for c in convergents(alpha) if c.q > conv.q)
    while len(rest):
        dist, ok = _certified_dists(ns[rest], alpha, next(walk))
        out[rest[ok]] = dist
        rest = rest[~ok]
    return out


def _certified_dists(ns: np.ndarray, alpha: QuadIrr, conv: Convergent):
    """(dist, ok): ok marks the members n of `ns` whose nearest integer to nα
    the convergent a/q certifies, and dist is ‖nα‖ of those members, in order.

    With t = na − jq, |t| ≤ q/2, and |α − a/q| ≤ |ε|₊ = (|err_num| + 1)/err_den,
    j is the nearest integer to nα when |t|/q + n·|ε|₊ < 1/2.  That is
    checked as |t| ≤ t_lim, one exact threshold from the largest n.  Then
    A = np − jr and B = ns give nα − j = (A + B√d)/r with |A + B√d| ≤ r/2
    and |A − B√d| ≤ r/2 + 2|B|√d, so |A² − B²d| < r(r + 4|B|(⌊√d⌋ + 1))/4.
    When that bound, n·|a| + q, |p| and d are below 2⁶³, the lines run in
    int64, where the wrapping A² − B²d is exact even where A² or B²d are not.
    Otherwise the same lines run on Python ints.  The floats are formed as in
    dist_nearest, in its order.
    """
    n_top = int(ns.max())
    a, q, p, s, d, r = conv.a, conv.q, alpha.p, alpha.s, alpha.d, alpha.r
    wide = (n_top * abs(a) + q >= _INT64_TOP or abs(p) >= _INT64_TOP or d >= _INT64_TOP
            or r * (r + 4 * n_top * abs(s) * (isqrt(d) + 1)) >= _INT64_TOP)
    x = ns.astype(object) if wide else ns
    na = x * a
    t = na % q
    t[2 * t > q] -= q
    # the largest |t| with 2(|t|·err_den + n_top·(|err_num| + 1)·q) < q·err_den, or −1
    t_lim = max((q * conv.err_den - 2 * n_top * (abs(conv.err_num) + 1) * q - 1) // (2 * conv.err_den), -1)
    ok = np.abs(t) <= t_lim
    if not ok.all():
        x, na, t = x[ok], na[ok], t[ok]
    j = (na - t) // q
    A = x * p - j * r  # n·p and j·r may wrap in int64; A itself fits
    B = x * s
    num = A * A - B * B * d
    den = r * (A - B * sqrt(d))
    return np.abs(num / den).astype(np.float64, copy=False), ok


@dataclass
class ApproxParams:
    """Derived scales: X = q^{2/(1+θ)}, R = q^{(1−θ)/(1+θ)}, Y = (log X)^C."""

    theta: Fraction
    q: int
    X: float
    R: float
    Y: float
    C: float


def derive_params(q: int, theta, C: float = 10.0, Y: float = None) -> ApproxParams:
    """Scales for denominator q at exponent θ ∈ (0, 6/17).

    Y defaults to (log X)^C; pass Y explicitly (e.g. inf) to override.
    """
    theta = Fraction(theta)
    if not (0 < theta < THETA_MAX):
        raise ValueError(f"theta must lie in (0, 6/17), got {theta}")
    if q < 2:
        raise ValueError("q must be >= 2")
    lq = log(q)
    X = exp(lq * float(2 / (1 + theta)))
    R = exp(lq * float((1 - theta) / (1 + theta)))
    if abs(X - q * R) > 1e-12 * X:
        raise AssertionError("exponent identity X = qR violated beyond 1e-12")
    if Y is None:
        Y = log(X) ** C
    return ApproxParams(theta, q, X, R, Y, C)


def _target_window(q: int, X: float, r_lo: int, r_hi: int, sieved: bool = True, budget: float = inf):
    """(lo, hi, rows, r_lo, r_hi, classes): each class n ≡ ā·r (mod q), r in
    [max(1, r_lo), min(r_hi, q − 1)], has `rows` terms in [⌈X/4⌉, ⌊4X⌋] from
    its first n ≥ lo; `classes` counts the r coprime to q if sieved.  None
    when either is empty.  The one capacity rule, from counts alone: a sieved
    layout needs hi ≤ 2⁶² and rows × classes ≤ SIEVE_CAPACITY, whatever Y is;
    an unsieved one, whose q is not factored, at most SIEVE_CAPACITY residues.
    The same count is checked against `budget`."""
    lo, hi = ceil(X / 4), floor(4 * X)
    r_lo, r_hi = max(1, r_lo), min(r_hi, q - 1)
    if sieved and hi > 2**62:
        raise CapacityError(f"interval top {hi} beyond integer capacity")
    if r_hi < r_lo or hi < lo:
        return None
    rows = (hi - lo) // q + 1
    classes = None
    if sieved:
        classes = coprime_count(r_hi, q) - coprime_count(r_lo - 1, q)
        size, what = rows * classes, f"{rows} rows × {classes} classes"
    else:
        size, what = r_hi - r_lo + 1, f"{r_hi - r_lo + 1} residues"
    if size > SIEVE_CAPACITY:
        raise CapacityError(f"{what} at q = {q} exceed sieve capacity")
    if size > budget:
        raise BudgetExceededError(f"{what} at q = {q} exceed budget")
    return lo, hi, rows, r_lo, r_hi, classes


# layout entries sieved at once: bounds a chunk's arrays (a 7 MB peak at 2¹⁸)
_LAYOUT_CHUNK = 1 << 18


def _class_starts(q: int, a: int, window):
    """(offsets, rs), the one build of a _target_window's classes n ≡ ā·r
    (mod q), r coprime to q: the offset (ā·r − lo) mod q of each one's first
    n ≥ lo, ascending, so ns = lo + offsets + q·row ascends row by row, and
    its r.  An offset is below q: int64 holds it where lo passes 2⁶³."""
    lo, _, _, r_lo, r_hi, _ = window
    rs = np.arange(r_lo, r_hi + 1, dtype=np.int64)
    rs = rs[np.gcd(rs, q) == 1]
    x = rs if (q - 1) * r_hi < _INT64_TOP else rs.astype(object)  # ā·r in Python ints past int64
    offsets = ((pow(a, -1, q) * x - lo % q) % q).astype(np.int64)
    order = np.argsort(offsets)
    return offsets[order], rs[order]


def _sieve_classes(q: int, offsets, window, Y: float):
    """Yield (ns, pplus, members) for the layout rows of `offsets` (from
    _class_starts) in chunks of about _LAYOUT_CHUNK entries, rows ascending:
    P⁺ from largest_prime_factor_array, exact wherever P⁺ ≤ Y, and the mask
    of the n ≤ hi with P⁺(n) ≤ Y.  The last chunk holds the layout's top, so
    it has the whole layout's P⁺ dtype."""
    lo, hi, rows = window[:3]
    pmax = int(min(Y, hi))
    step = max(1, _LAYOUT_CHUNK // len(offsets))
    for row in range(0, rows, step):
        count = min(step, rows - row)
        first = offsets + (lo + row * q)
        ns = first + q * np.arange(count, dtype=np.int64)[:, None]
        pplus = largest_prime_factor_array(first, q, count, pmax)
        members = pplus <= Y
        members[-1] &= ns[-1] <= hi  # every offset is below q: only the layout's last row may pass hi
        yield ns, pplus, members


def _class_counts(q: int, a: int, window, Y: float):
    """(rs, counts): the r of `window`'s classes (_class_starts) and the n in
    [lo, hi] with P⁺(n) ≤ Y each holds, from its offset when Y ≥ hi."""
    lo, hi, rows = window[:3]
    offsets, rs = _class_starts(q, a, window)
    if Y >= hi:
        return rs, rows - 1 + (offsets <= (hi - lo) % q)
    return rs, sum(np.count_nonzero(members, axis=0) for _, _, members in _sieve_classes(q, offsets, window, Y))


def check_target_set(params: ApproxParams, budget: int) -> None:
    """Refuse, before any member is built, a target set that build_target_set
    cannot hold, or one with vacuous Y that must exceed `budget` members:
    each of its residue classes holds ⌊(hi − lo + 1)/q⌋ members or more."""
    window = _target_window(params.q, params.X, 1, floor(params.R))
    if window is None or not params.Y >= window[1]:
        return  # empty, or a finite-Y layout within capacity
    lo, hi, _, _, _, classes = window
    least = classes * ((hi - lo + 1) // params.q)
    if least > budget:
        raise BudgetExceededError(f"at least {least} members at q = {params.q} exceed budget")


def build_target_set(params: ApproxParams, a: int):
    """(n, P⁺(n)) for all n in [X/4, 4X] with P⁺(n) ≤ Y, gcd(n, q) = 1 and
    (na mod q) in [1, ⌊R⌋], n ascending: the members of the classes
    n ≡ ā·r (mod q), r ≤ ⌊R⌋ coprime to q, each sieved chunk's in turn."""
    q = params.q
    if gcd(a, q) != 1:
        raise ValueError("a must be coprime to q")
    window = _target_window(q, params.X, 1, floor(params.R))
    if window is None:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    offsets, _ = _class_starts(q, a, window)
    chunks = [(ns[members], pplus[members]) for ns, pplus, members in _sieve_classes(q, offsets, window, params.Y)]
    return tuple(np.concatenate(column) for column in zip(*chunks))


def connection_bound(params: ApproxParams) -> float:
    """R/q + 4X/q²: every target-set member n has ‖nα‖ below this when a/q
    is a convergent of α."""
    return params.R / params.q + 4 * params.X / params.q**2
