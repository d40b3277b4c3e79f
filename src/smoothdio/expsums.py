"""Kloosterman-sum kernels: complete sums, the smooth-number Kloosterman
average, and the proved upper bound as a comparator.

All sums are evaluated directly (no Salié/stationary-phase tricks) in double
precision; modular inverses come from one vectorized extended Euclid
(`arith.inverse_mod`).  A complete sum reads a whole residue table per
modulus.  The smooth average inverts only the distinct largest
prime factors of its n's, for a block of moduli at once, and multiplies the
rest out: its n's form a divisor-closed set, so n̄ = P⁺(n)̄ · (n/P⁺(n))̄, and
since n/P⁺(n) ≤ n/2 the products go one dyadic range [2ᵏ, 2ᵏ⁺¹) at a time.
Each block of moduli is then summed in one flat pass over its unit entries,
in the narrowest dtype that holds every residue product (arith.product_dtype).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, floor, hypot, pi

import numpy as np

from .arith import inverse_mod, product_dtype
from .errors import BudgetExceededError, CapacityError
from .smooth import smooth_sieve

INVERSE_TABLE_CAPACITY = 2_000_000
_INVERSE_BLOCK = 1 << 15  # (moduli × n) inverse-table entries built at once
_TWO_PI = 2.0 * pi


@lru_cache(maxsize=64)
def inverse_table(c: int) -> np.ndarray:
    """inv[n] = n̄ mod c for units, −1 for non-units; read-only, memoized per
    modulus."""
    if c > INVERSE_TABLE_CAPACITY:
        raise CapacityError(f"modulus {c} exceeds inverse-table capacity")
    tab = inverse_mod(np.arange(c), c)
    tab.flags.writeable = False
    return tab


def complete_kloosterman(a: int, b: int, c: int) -> float:
    """S(a, b; c) = Σ_{n mod c, (n,c)=1} e((an + bn̄)/c).

    The sum is real (n ↔ −n pairs terms with conjugates); the imaginary
    residue is checked against 1e-9 before being dropped.
    """
    tab = inverse_table(c)
    units = np.nonzero(tab >= 0)[0].astype(np.int64)
    inv = tab[units]
    phases = ((a % c) * units + (b % c) * inv) % c
    ang = phases * (_TWO_PI / c)
    re = float(np.sum(np.cos(ang)))
    im = float(np.sum(np.sin(ang)))
    if abs(im) > 1e-9:
        raise ArithmeticError(f"Kloosterman sum imaginary residue {im} too large")
    return re


def _inverse_sum(inv: np.ndarray, b: int, c: int):
    """(Re, Im) of Σ e(b·n̄/c) over the inverses n̄ in inv; −1 marks a
    non-unit and is skipped."""
    ang = ((b % c) * inv[inv >= 0]) % c * (_TWO_PI / c)
    return float(np.sum(np.cos(ang))), float(np.sum(np.sin(ang)))


def kl_members(x: float, q: int, y: float) -> tuple:
    """(ns, pplus): the n < x with P⁺(n) ≤ y and gcd(n, q) = 1, ascending,
    and their P⁺ (1 for n = 1).  Needs x > 1."""
    members, pplus = smooth_sieve(1, int(ceil(x)) - 1, y, q)
    return np.flatnonzero(members) + 1, pplus[members]


def kl_smooth_average(M: float, x: float, a: int, q: int, y: float, budget: int = 10**9, members: tuple = None) -> float:
    """Kl_y(M, x; a, q) = Σ_{m∼M} |Σ_{n<x, P⁺(n)≤y, (n,mq)=1} e(a·n̄/m)|.

    Exact double sum; n̄ is the inverse of n modulo m.  members is
    kl_members(x, q, y) when the caller has sieved it already.
    """
    if M < 2 or x < 2:
        raise ValueError("need M, x >= 2")
    if a == 0:
        raise ValueError("a must be nonzero")
    if q < 1:
        raise ValueError("q must be >= 1")
    m_lo = int(floor(M)) + 1
    m_hi = int(floor(2 * M))
    if m_hi > INVERSE_TABLE_CAPACITY:
        raise CapacityError(f"modulus {m_hi} exceeds inverse-table capacity")
    n_max = int(ceil(x)) - 1  # n < x
    if n_max < 1 or m_hi < m_lo:
        return 0.0
    ns, pplus = kl_members(x, q, y) if members is None else members
    if (m_hi - m_lo + 1) * len(ns) > budget:
        raise BudgetExceededError("m x n loop exceeds budget")
    return sum(_abs_inverse_sums(a, _member_inverses(ns, pplus, m_lo, m_hi)), 0.0)


def _abs_inverse_sums(a: int, blocks):
    """Yield |Σ e(a·n̄/m)| for each row of each (ms, inv) block, in m order,
    with the bits of hypot(*_inverse_sum(row, a, m)).  A block's unit
    entries are compressed once in C order, so each row's stay one
    contiguous slice; their angles (a mod m)·n̄ mod m·(2π/m) are formed and
    cos and sin taken once per block, and each slice is reduced by
    np.add.reduce, pairwise like np.sum over the same elements."""
    for ms, inv in blocks:
        unit = inv >= 0
        counts = np.count_nonzero(unit, axis=1)
        inv = inv[unit]
        inv *= np.repeat(np.array([a % m for m in ms.tolist()], inv.dtype), counts)
        inv %= np.repeat(ms, counts)
        ang = inv * np.repeat(_TWO_PI / ms, counts)
        re, im = np.cos(ang), np.sin(ang)
        ends = np.cumsum(counts).tolist()
        for lo, hi in zip([0] + ends, ends):
            yield hypot(float(np.add.reduce(re[lo:hi])), float(np.add.reduce(im[lo:hi])))


def _member_inverses(ns: np.ndarray, pplus: np.ndarray, m_lo: int, m_hi: int):
    """Yield blocks (ms, inv) with inv[i] = inverse_mod(ns, ms[i]), the
    moduli ms running through m_lo, …, m_hi, built from the inverses of the
    primes alone, both in the product_dtype of the residue products below
    m_hi².

    ns ascends and is divisor-closed (n in ns ⇒ every divisor of n is), and
    pplus holds P⁺ of each entry (1 for n = 1).  Then n̄ = P⁺(n)̄ · (n/P⁺(n))̄
    mod m with n/P⁺(n) in ns.  For n ≥ 2 the parent n/P⁺(n) ≤ n/2, so every
    parent of an n in [2ᵏ, 2ᵏ⁺¹) lies below 2ᵏ: the dyadic slices of ns are
    levels, parent before child.  One inverse_mod over (moduli × distinct
    primes) and one gather, product and reduction per level (≤ log₂ max ns)
    fill the table.  A non-unit is held as 0, which every product keeps, so it
    passes to every multiple and becomes −1 at the end.  Moduli go in blocks
    of at most _INVERSE_BLOCK table entries.
    """
    dtype = product_dtype((m_hi - 1) ** 2, "residue products")
    seen = np.zeros(int(pplus.max(initial=0)) + 1, dtype=bool)
    seen[pplus] = True
    primes, prime_col = np.flatnonzero(seen), (np.cumsum(seen) - 1)[pplus]
    parent = np.searchsorted(ns, ns // pplus)
    cuts = np.searchsorted(ns, 2 ** np.arange(int(ns.max(initial=1)).bit_length() + 1)).tolist()
    block = max(1, _INVERSE_BLOCK // max(len(ns), 1))
    for b0 in range(m_lo, m_hi + 1, block):
        ms = np.arange(b0, min(b0 + block, m_hi + 1), dtype=dtype)[:, None]
        prime_inv = np.maximum(inverse_mod(primes, ms), 0).astype(dtype)
        inv = np.empty((len(ms), len(ns)), dtype=dtype)
        inv[:, : cuts[1]] = prime_inv[:, prime_col[: cuts[1]]]  # n = 1
        for lo, hi in zip(cuts[1:], cuts[2:]):
            cols = slice(lo, hi)
            prod = inv[:, parent[cols]]
            prod *= prime_inv[:, prime_col[cols]]
            prod %= ms
            inv[:, cols] = prod
        inv[(inv == 0) & (ms > 1)] = -1
        yield ms[:, 0], inv


@dataclass
class KloostermanParams:
    """Inputs of the smooth-average bound: 2 ≤ y ≤ z < x, M ≥ 2, a ≠ 0."""

    M: float
    x: float
    a: int
    q: int
    y: float
    z: float
    eta: float

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if not (2 <= self.y <= self.z < self.x):
            raise ValueError("need 2 <= y <= z < x")
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")


def kloos_bound_rhs(params: KloostermanParams) -> float:
    """The proved comparator with implied constant 1:

    (|a|xM)^η (1 + |a|/(xM))^{1/2} (M x^{1/2} y^{1/2} z^{1/2}
        + x^{3/2} M^{1/2} z^{-1/4}) + M z.
    """
    M, x, y, z = params.M, params.x, params.y, params.z
    amp = (abs(params.a) * x * M) ** params.eta
    lead = (1.0 + abs(params.a) / (x * M)) ** 0.5
    core = M * x**0.5 * y**0.5 * z**0.5 + x**1.5 * M**0.5 * z**-0.25
    return amp * lead * core + M * z


def optimal_z(x: float, y: float) -> float:
    """z = x^{2/3} clamped into [y, x): the exponent-balancing cut used with
    the smooth-average bound."""
    if y >= x:
        raise ValueError("cannot place z in [y, x): y >= x")
    return max(x ** (2.0 / 3.0), y)
