"""Dispersion apparatus: the fixed smooth bump φ, its Fourier transform, the
residue-window weight Φ_a(n, R), the master sum Σ(q, R), the bilinear sum
B(M, N), Type I reports, and the Type II sums S′₁, S′₂, S′₃, S′.

The bump is the concrete glue function

    σ(t) = exp(−1/t) (t > 0),   g(t) = σ(t)/(σ(t) + σ(1−t)),
    φ(x) = g(12(x − 1/4)) for x < 1/2,   g(12(3/4 − x)) otherwise,

which vanishes off [1/4, 3/4], is 1 on [1/3, 2/3], and integrates to 5/12
exactly (transition symmetry g(s) + g(1−s) = 1).  Its transform is computed
as a closed-form plateau term plus Gauss–Legendre panels over the two
transitions, with the panel count doubled until the change certifies the
requested tolerance.

Σ(q, R) is counted over residue classes: only n with na mod q in
(R/4, 3R/4) carry weight, so each such class mod q adds its weight times its
member count, and the total is formed exactly and rounded once.  The classes
are the target set's layout in diophantine: with vacuous Y each is counted
from its offset, with finite Y in the layout's sieve.
"""

from dataclasses import asdict, dataclass, field
from functools import cached_property
from fractions import Fraction
from math import ceil, floor, gcd, log, pi

import numpy as np

from .arith import product_dtype
from .diophantine import _INT64_TOP, _LAYOUT_CHUNK, _class_counts, _target_window, derive_params
from .errors import BudgetExceededError, CapacityError, NonConvergenceError
from .smooth import SIEVE_CAPACITY, smooth_sieve

_WINDOW_CAPACITY = SIEVE_CAPACITY  # smooth_sieve's cap on a window, which the unsieved φ window takes too


# ---------------------------------------------------------------------------
# the bump
# ---------------------------------------------------------------------------


def _g(t: float) -> float:
    """Smooth step: 0 for t ≤ 0, 1 for t ≥ 1, C^∞ everywhere."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = np.exp(-1.0 / t)  # the exp _g_array takes, so the two agree bit for bit
    b = np.exp(-1.0 / (1.0 - t))
    return float(a / (a + b))


def _g_array(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=np.float64)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def bump_phi(x: float) -> float:
    """φ(x): supported on [1/4, 3/4], ≡ 1 on [1/3, 2/3], values in [0, 1]."""
    if x < 0.5:
        return _g(12.0 * (x - 0.25))
    return _g(12.0 * (0.75 - x))


def bump_phi_array(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    s = np.where(x < 0.5, 12.0 * (x - 0.25), 12.0 * (0.75 - x))
    return _g_array(s)


# ---------------------------------------------------------------------------
# Fourier transform of the bump
# ---------------------------------------------------------------------------

_MAX_PANELS = 1 << 12  # the last doubling, 2¹⁷ nodes: φ̂(3.5e5) converges there, φ̂(4e5) does not
_PHASE_BLOCK = 1 << 14  # μ × node phase entries formed at once: 256 KB of complex128


def _transition_transform(mu: np.ndarray, tol: float):
    """G(μ) = ∫₀¹ g(s) e(−μs) ds for each μ by one 32-point Gauss–Legendre
    rule on 2, 4, 8, … equal panels of [0, 1], with a doubling certificate: the
    largest change between two levels is ≤ tol.  NonConvergenceError when
    _MAX_PANELS panels do not meet it."""
    from numpy.polynomial.legendre import leggauss  # here, so no command imports numpy.polynomial

    x, w = leggauss(32)
    prev, panels = None, 2
    while panels <= _MAX_PANELS:
        s = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
        wg = np.tile(w, panels) * _g_array(s) / (2 * panels)
        cur = np.empty(len(mu), np.complex128)
        rows = max(1, _PHASE_BLOCK // len(s))
        for i in range(0, len(mu), rows):
            cur[i : i + rows] = np.exp(-2j * pi * np.outer(mu[i : i + rows], s)) @ wg
        if prev is not None:
            err = float(np.max(np.abs(cur - prev), initial=0.0))
            if err <= tol:
                return cur, err
        prev, panels = cur, 2 * panels
    raise NonConvergenceError("transition quadrature did not converge")


def _plateau_transform(xi: np.ndarray) -> np.ndarray:
    """∫_{1/3}^{2/3} e(−ξt) dt, closed form."""
    xi = np.asarray(xi, dtype=np.float64)
    out = np.full(xi.shape, 1.0 / 3.0, dtype=np.complex128)
    nz = xi != 0.0
    x = xi[nz]
    out[nz] = (np.exp(-2j * pi * x / 3.0) - np.exp(-4j * pi * x / 3.0)) / (2j * pi * x)
    return out


def bump_fourier_array(xis: np.ndarray, tol: float = 1e-10):
    """φ̂ at each frequency, plus one certified absolute error bound."""
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    xis = np.atleast_1d(np.asarray(xis, dtype=np.float64))
    G, errG = _transition_transform(xis / 12.0, tol * 6.0 * 0.9)
    phase1 = np.exp(-2j * pi * xis / 4.0)
    phase2 = np.exp(-2j * pi * xis * 3.0 / 4.0)
    vals = _plateau_transform(xis) + (phase1 * G + phase2 * np.conj(G)) / 12.0
    return vals, errG / 6.0 + 1e-15


def bump_fourier(xi: float, tol: float = 1e-10) -> complex:
    """φ̂(ξ) = ∫ φ(t) e(−ξt) dt with certified absolute error ≤ tol."""
    vals, _ = bump_fourier_array(np.array([xi]), tol)
    return complex(vals[0])


def phi_hat_zero() -> float:
    """φ̂(0) = ∫φ = 5/12 exactly, by the transition symmetry."""
    return 5.0 / 12.0


# ---------------------------------------------------------------------------
# the residue-window weight
# ---------------------------------------------------------------------------


def _check_weight_args(R: float, q: int, a: int) -> None:
    if q < 2:
        raise ValueError("q must be >= 2")
    if not (0 < R < q):
        raise ValueError("need 0 < R < q (single-representative window)")
    if gcd(a, q) != 1:
        raise ValueError("a must be coprime to q")


def phi_weight(n: int, R: float, q: int, a: int) -> float:
    """Φ_a(n, R) = φ(r/R) with r = n·a mod q in [0, q).

    R < q guarantees at most one residue representative meets the support
    of φ, so the single term is the whole sum over r ≡ na (mod q).
    """
    _check_weight_args(R, q, a)
    r = (int(n) * int(a)) % q
    return bump_phi(r / R)


def phi_weight_poisson(n: int, R: float, q: int, a: int, Kmax: int) -> float:
    """Poisson-expanded weight (R/q)·Σ_{|k| ≤ Kmax} φ̂(kR/q) e(nak/q).

    The caller picks the truncation: the bump's transform still carries ~1e-2
    mass near ξ = 10, so a cut at ⌈10q/R⌉ is far from converged (criterion 05).
    """
    _check_weight_args(R, q, a)
    if Kmax < 0:
        raise ValueError("Kmax must be >= 0")

    ks = np.arange(1, Kmax + 1, dtype=np.int64)
    vals, _ = bump_fourier_array(ks * (R / q))
    m0 = (int(n) * int(a)) % q
    x = ks if (q - 1) * max(Kmax, 1) < _INT64_TOP else ks.astype(object)  # m0 < q, m0·k: Python ints past int64
    phases = np.exp(2j * pi * ((m0 * x) % q / q).astype(np.float64))
    terms = vals * phases
    total = phi_hat_zero() + complex(np.sum(terms + np.conj(terms)))
    if abs(total.imag) > 1e-9:
        raise ArithmeticError(f"Poisson sum imaginary residue {total.imag}")
    return (R / q) * total.real


# ---------------------------------------------------------------------------
# parameter bundle and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersionParams:
    """Bilinear ranges (M, N) against modulus q, window R, smoothness Y.

    Range conditions (the MN ≍ X window and the N-window against R) are
    recorded as flags, not rejections, so off-range diagnostics stay runnable.

    It is also what the Type I, bilinear and Type II reports share: the
    n-window n_all = (N, 2N] with its 1_{S_q(Y)} flags smooth, the local
    density K(N, Y) = #{flagged n}/N read from them, and for each m-window the
    inner sums A_m, B_m.  Each is built on first use, so a report never sieves
    or sums a window it does not read, and the fields are frozen, so none
    outlives the fields it was built from.
    """

    M: float
    N: float
    q: int
    a: int
    R: float
    Y: float
    theta: Fraction = None
    delta: float = 0.1
    eta: float = 0.05
    flags: list = field(default_factory=list, init=False)  # range notes, set by __post_init__

    def __post_init__(self):
        if self.M < 2 or self.N < 2:
            raise ValueError("need M, N >= 2")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        _check_weight_args(self.R, self.q, self.a)
        X = self.q * self.R
        if not (X / 4 <= self.M * self.N <= 4 * X):
            self.flags.append(f"MN = {self.M * self.N:g} outside [X/4, 4X] for X = {X:g}")
        n_lo = self.q / self.R ** (1 - self.delta)
        n_hi = self.R ** (12 / 11 - self.delta)
        if not (n_lo <= self.N <= n_hi):
            self.flags.append(f"N = {self.N:g} outside [{n_lo:g}, {n_hi:g}] (range condition)")
        if not (0 < self.eta < self.delta / 20):
            self.flags.append(f"eta = {self.eta:g} not in (0, delta/20)")
        object.__setattr__(self, "_sums", {})

    @cached_property
    def n_all(self) -> np.ndarray:
        return _window_ints(self.N, 2 * self.N)

    @cached_property
    def smooth(self) -> np.ndarray:
        return smooth_sieve(int(self.n_all[0]), int(self.n_all[-1]), self.Y, self.q)[0]

    @cached_property
    def K(self) -> float:
        return np.count_nonzero(self.smooth) / self.N

    @cached_property
    def m_smooth(self) -> np.ndarray:
        """m ∼ M in S_q(Y)."""
        ms = _window_ints(self.M, 2 * self.M)
        return ms[smooth_sieve(int(ms[0]), int(ms[-1]), self.Y, self.q)[0]]

    @cached_property
    def m_phi(self):
        """The m with φ(m/3M) > 0, and those weights."""
        ms = _window_ints(3 * self.M / 4 - 1, 9 * self.M / 4 + 1)
        w = bump_phi_array(ms / (3.0 * self.M))
        return ms[w > 0.0], w[w > 0.0]

    def check_pairs(self, window: str, budget: int):
        """(ms, dtype): the m of the m-window "smooth" (m_smooth) or "phi"
        (m_phi), once its m×n pairs are checked against the budget and its
        residues against capacity, and the dtype its residue products take:
        _check_ranges first, then n_all's length, unsieved.  The weight table
        holds at most SIEVE_CAPACITY entries, and both products, m·(a mod q)
        and c_m·(n mod q) with c_m < q, are bounded from the windows and q and
        given to product_dtype, which refuses past int64."""
        q = self.q
        _check_ranges(q, self.R, self.N)
        n_all = self.n_all
        ms = self.m_smooth if window == "smooth" else self.m_phi[0]
        if len(ms) * len(n_all) > budget:
            raise BudgetExceededError(f"{len(ms)} x {len(n_all)} pair loop exceeds budget")
        n_top = min(int(n_all.max(initial=0)), q - 1)
        return ms, product_dtype((q - 1) * max(int(ms.max(initial=0)), n_top), "residue products")

    def inner_sums(self, window: str, budget: int):
        """A_m = Σ_n 1_{S_q(Y)}(n)·Φ_a(mn, R) and B_m = Σ_n Φ_a(mn, R) over
        an m-window, in blocks of at most _PAIR_BLOCK pairs.  Each block fills
        one residue buffer, of check_pairs' dtype, in place with
        min(c_m·(n mod q) mod q, cut), c_m = (m·a) mod q, and reads each Φ
        from _residue_weights by residue: the smooth columns' weights for A_m,
        then every weight for B_m.  Both are pairwise sums of C-ordered rows
        (compress keeps C order, W[:, mask] does not), so their bits depend
        neither on the block nor on the dtype; check_pairs charges the budget
        on every call."""
        ms, dtype = self.check_pairs(window, budget)
        n_all, q = self.n_all, self.q
        if window not in self._sums:
            A, B = np.zeros(len(ms)), np.zeros(len(ms))
            if len(n_all) and len(ms):
                n_mod = (n_all % q).astype(dtype)
                c = ms.astype(dtype)
                c *= self.a % q
                c %= q
                table, cut = _residue_weights(q, self.R)
                block = min(max(1, _PAIR_BLOCK // len(n_all)), len(ms))
                res = np.empty((block, len(n_all)), dtype)
                for i in range(0, len(ms), block):
                    r = res[: min(block, len(ms) - i)]
                    np.multiply(c[i : i + block, None], n_mod, out=r)
                    np.remainder(r, q, out=r)
                    np.minimum(r, cut, out=r)
                    A[i : i + block] = table[r.compress(self.smooth, axis=1)].sum(axis=1)
                    B[i : i + block] = table[r].sum(axis=1)
            self._sums[window] = A, B
        return self._sums[window]


@dataclass
class SumReport:
    """A computed sum, its benchmark main term, their ratio (None when the
    main term is 0) and the parameters and diagnostics behind them."""

    value: float
    main_term: float
    ratio: float
    params: dict


def _report(value, main, params) -> SumReport:
    return SumReport(value, main, value / main if main != 0.0 else None, params)


def _window_ints(lo: float, hi: float) -> np.ndarray:
    """Integers in (lo, hi], refused from the ends past _WINDOW_CAPACITY."""
    a = int(floor(lo)) + 1
    b = int(floor(hi))
    if b - a + 1 > _WINDOW_CAPACITY:
        raise CapacityError(f"window ({lo:g}, {hi:g}] of {b - a + 1} integers exceeds capacity {_WINDOW_CAPACITY}")
    return np.arange(a, b + 1, dtype=np.int64)


def _weight_cut(q: int, R: float) -> int:
    """min(q, ⌊3R/4⌋ + 1): the residues r below it are those with φ(r/R)
    possibly nonzero, as φ vanishes from 3/4 on."""
    return min(q, floor(3 * R / 4) + 1)


def _residue_weights(q: int, R: float):
    """(table, cut) with table[min(r, cut)] = φ(r/R) for every residue r in
    [0, q): φ(r/R) for r < cut = _weight_cut(q, R), then one 0.0."""
    cut = _weight_cut(q, R)
    return np.append(bump_phi_array(np.arange(cut) / R), 0.0), cut


_PAIR_BLOCK = 1 << 18  # m×n pairs weighed at once: bounds the block's buffers


def _check_ranges(q: int, R: float, N: float) -> None:
    """Refuse what q, R and N decide alone: a residue-weight table of more
    than SIEVE_CAPACITY entries, and n-side residue products c_m·(n mod q),
    with c_m < q and n ≤ ⌊2N⌋, past int64 (product_dtype)."""
    size = _weight_cut(q, R) + 1
    if size > SIEVE_CAPACITY:
        raise CapacityError(f"{size} residue weights at q = {q} exceed sieve capacity")
    product_dtype((q - 1) * min(floor(2 * N), q - 1), "residue products")


# the m-windows whose inner sums each report reads
_REPORT_WINDOWS = {"type1": ("smooth",), "type2": ("smooth", "phi"), "sums": ("phi",), "bilinear": ("smooth",)}


def check_pairs(kind: str, params: DispersionParams, budget: int) -> None:
    """Refuse, before any sum, a type1, type2, sums or bilinear report whose
    m×n pairs exceed the budget, by the count its inner sums charge, or
    whose weight table or residue products exceed capacity: what q, R and N
    decide alone is checked first, and the n-window is not sieved."""
    for window in _REPORT_WINDOWS[kind]:
        params.check_pairs(window, budget)


def sigma_window(q: int, a: int, theta, C: float = 10.0, Y: float = None, budget: int = 10**9):
    """(params, window) of Σ(q, R): the _target_window of the residues in
    [⌊R/4⌋, ⌈3R/4⌉], sieved unless Y is vacuous, its capacity and budget
    charge checked from counts, before any array is built."""
    pr = derive_params(q, theta, C, Y)
    _check_weight_args(pr.R, q, a)  # so the window is never None
    return pr, _target_window(q, pr.X, floor(pr.R / 4), ceil(3 * pr.R / 4), pr.Y < floor(4 * pr.X), budget)


def sigma_qR(q: int, a: int, theta, C: float = 10.0, Y: float = None, budget: int = 10**9) -> SumReport:
    """Σ(q, R) = Σ_{X/4 ≤ n ≤ 4X} 1_{S_q(Y)}(n) Φ_a(n, R), exact, with the
    benchmark main term R^{2 − (1−θ)/(2C)} for the diagnostic ratio, 0.0 when
    the effective Y ≤ 1 (C ≤ 0 included).

    The sum is Σ_r φ(r/R)·#{members n ≡ ā·r (mod q)} over the r in
    [⌊R/4⌋, ⌈3R/4⌉] coprime to q (_class_counts), added exactly and rounded
    once: each weight is m·2^(e − 53) with m an integer (np.frexp), so over
    the denominator 2^(53 − min e) every term is an integer.  The terms go
    into one Python int _LAYOUT_CHUNK residues at a time, the total shifted
    up when a block lowers min e, so only one block's terms are held.
    """
    pr, window = sigma_window(q, a, theta, C, Y, budget)
    R, X = pr.R, pr.X
    rs, counts = _class_counts(q, a, window, pr.Y)
    total, low = 0, 0  # the exact sum so far is total / 2^(53 − low)
    for i in range(0, len(rs), _LAYOUT_CHUNK):
        block = slice(i, i + _LAYOUT_CHUNK)
        mant, exps = np.frexp(bump_phi_array(rs[block] / R))
        least = int(exps.min(initial=low))
        total <<= low - least
        low = least
        terms = zip(counts[block].tolist(), np.ldexp(mant, 53).astype(np.int64).tolist(), (exps - low).tolist())
        total += sum(c * m << k for c, m, k in terms)
    value = total / 2 ** (53 - low)  # one rounding

    if pr.Y <= 1:
        main = 0.0  # the limit of R^expo as c_eff = log Y / log log X → 0⁺
    else:
        c_eff = C if Y is None else log(Y) / log(log(X))  # log log X > 0: X > 2^(34/23) > e
        expo = 2.0 - float(1 - Fraction(theta)) / (2.0 * c_eff) if c_eff != float("inf") else 2.0
        main = R**expo
    params = {"q": q, "a": a, "theta": str(Fraction(theta)), "C": C, "Y": pr.Y, "X": X, "R": R}
    return _report(value, main, params)


def bilinear_B(params: DispersionParams, budget: int = 10**9) -> SumReport:
    """B(M, N) = Σ_{m∼M} 1_{S_q(Y)}(m) Σ_{n∼N} 1_{S_q(Y)}(n) Φ_a(mn, R).

    Benchmark main term: φ̂(0)·(R/q)·#{m} ·#{n} (the mean-window heuristic).
    """
    A, _ = params.inner_sums("smooth", budget)
    value = float(A.sum())
    main = phi_hat_zero() * (params.R / params.q) * len(params.m_smooth) * float(np.count_nonzero(params.smooth))
    return _report(value, main, _params_dict(params))


def type1_report(params: DispersionParams, budget: int = 10**9) -> SumReport:
    """Σ_{m∼M} 1_{S_q(Y)}(m) Σ_{n∼N} Φ_a(mn, R) against the Type I main term
    φ̂(0)·(NR/q)·Σ_{m∼M} 1_{S_q(Y)}(m)."""
    _, B = params.inner_sums("smooth", budget)
    value = float(B.sum())
    main = phi_hat_zero() * params.N * params.R / params.q * len(params.m_smooth)
    return _report(value, main, _params_dict(params))


def dispersion_sums(params: DispersionParams, budget: int = 10**9):
    """The three opened-square sums and their combination:

    S′₁ = Σ_m φ(m/3M) A_m²,  S′₂ = K Σ_m φ(m/3M) A_m B_m,
    S′₃ = K² Σ_m φ(m/3M) B_m²,  S′ = S′₁ − 2S′₂ + S′₃,

    where A_m, B_m are the smooth-restricted and unrestricted inner sums and
    K = K(N, Y) is the local density.
    """
    A, B = params.inner_sums("phi", budget)
    K, w = params.K, params.m_phi[1]
    S1 = float(np.sum(w * A * A))
    S2 = float(K * np.sum(w * A * B))
    S3 = float(K * K * np.sum(w * B * B))
    return S1, S2, S3, S1 - 2.0 * S2 + S3


def sums_report(params: DispersionParams, budget: int = 10**9) -> SumReport:
    """S′ from dispersion_sums, with S′₁, S′₂, S′₃ as its params.  The opened
    square has no benchmark main term: it is 0.0 and the ratio None."""
    S1, S2, S3, Sp = dispersion_sums(params, budget)
    return _report(Sp, 0.0, {"S1": S1, "S2": S2, "S3": S3})


def type2_report(params: DispersionParams, budget: int = 10**9) -> SumReport:
    """Discrepancy D = Σ_{m∼M} 1_{S_q(Y)}(m) Σ_{n∼N} (1_{S_q(Y)}(n) − K) Φ_a(mn, R)
    against the benchmark R^{2−η}, with the exact dispersion Cauchy–Schwarz
    check D² ≤ M·S′ attached."""
    A, B = params.inner_sums("smooth", budget)
    D = float(np.sum(A - params.K * B))
    S1, S2, S3, Sp = dispersion_sums(params, budget)
    cs_ok = D * D <= params.M * Sp * (1.0 + 1e-9) + 1e-12
    main = params.R ** (2.0 - params.eta)
    pd = _params_dict(params)
    pd["cauchy_schwarz"] = {"D_sq": D * D, "M_Sprime": params.M * Sp, "ok": bool(cs_ok)}
    pd["sums"] = {"S1": S1, "S2": S2, "S3": S3, "Sprime": Sp}
    return _report(D, main, pd)


def _params_dict(params: DispersionParams) -> dict:
    return dict(asdict(params), theta=str(params.theta) if params.theta is not None else None)
