"""Numeric columns as byte cells: each value's text as one row of a uint8
matrix, NUL-padded, so a whole block of rows can be assembled and written
without a Python string per cell.  No cell holds a NUL byte of its own.

Integers are written by str.  A float64 is written by repr in repr's fixed
notation, from integer arithmetic alone: the shortest decimal in its
round-trip interval, and the one nearest the value among those.  The values
the kernel leaves (0, ±inf, NaN, subnormals, |x| < 2^-11 and every value repr
writes with an exponent) are formatted by the caller's fallback, as is any
value whose digits the kernel could not check to lie in its interval.

A cell is built as a row of 4-byte quads, gathered from one table: the
4 digits of a number below 10⁴, or a sign quad padded with NULs.  Leading
and trailing zeros are then cut by one mask per row, looked up as uint64
words.  A column's cells are only as wide as its values need: no byte
before its longest integer part or past its longest fraction is returned,
and the minus sign only where a value is negative.  The digit quads before
the longest integer part, and past the most fraction digits a value's
exponent allows, are not computed either.
"""

import numpy as np

_WORD = np.dtype("<u8")
# _QUADS[i]: the 4 ASCII digits of i < 10⁴, zero-padded, as one uint32; then
# the quads NUL NUL NUL NUL and NUL NUL NUL '-'
_NUL, _MINUS = 10000, 10001
_QUADS = np.zeros((10002, 4), np.uint8)
_QUADS[:_NUL] = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
_QUADS[_MINUS, 3] = ord("-")
# trailing zeros of i < 10⁴ written with 4 digits (4 for 0)
_ZERO = _QUADS[:_NUL] == 48
_TZ4 = _ZERO[:, 3] * (1 + _ZERO[:, 2] * (1 + _ZERO[:, 1] * (1 + _ZERO[:, 0].astype(np.intp))))
_QUADS = _QUADS.view(np.uint32).ravel()
_TEN4 = np.uint64(10000)
_POW10 = np.uint64(10) ** np.arange(20, dtype=np.uint64)

# an int cell: the sign quad, then 20 digits; _INT_KEEP[lead] keeps the sign
# quad and the digits from index `lead` on
_BYTE24 = np.arange(24)
_INT_KEEP = np.where((_BYTE24 < 4) | (_BYTE24 >= np.arange(4, 24)[:, None]), 0xFF, 0).astype(np.uint8).view(_WORD)

# a float cell: the sign quad, 16 integer digits, then 20 digits that hold the
# fraction's 19 after the first, always 0, which is overwritten by the point;
# _FLOAT_KEEP[19·lead + last − 1] keeps the sign quad, the integer digits from
# index `lead` < 16 on, the point and the fraction digits 1 to `last` ≤ 19
_BYTE40 = np.arange(40)
_LEAD, _LAST = np.arange(16)[:, None, None], np.arange(1, 20)[None, :, None]
_FLOAT_KEEP = np.where((_BYTE40 < 4) | ((_BYTE40 >= 4 + _LEAD) & (_BYTE40 <= 20 + _LAST)), 0xFF, 0
                       ).astype(np.uint8).reshape(-1, 40).view(_WORD)

# x = m·2^e with m = 2^52 + fraction bits, e = biased exponent − 1075.  The
# kernel takes e in [−63, 1]: |x| in [2^-11, 2^54), which holds every x ≥ 2^-11
# that repr writes in fixed notation (below 1e16).
_BIASED_MIN = 1012
_E = np.arange(-63, 2)
# per e: the least k with 10^k·2^e ≥ 1 (⌊−e·log10 2⌋ + 1 by Ryu's multiplier,
# exact for |e| < 1650), so one unit of the interval scaled by 10^k lies in
# [1, 10) and k ≤ 19; 5^k, and the shift s with 10^k·2^(e−2) = 5^k/2^s
_K = np.where(_E < 0, (-_E * 78913 >> 18) + 1, 0)
_POW5 = np.uint64(5) ** _K.astype(np.uint64)
_SHIFT = (2 - _E - _K).astype(np.uint64)

_LOW32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)


def _put_digits(text: np.ndarray, u: np.ndarray) -> list:
    """Write the last 4·c decimal digits of each uint64 u, zero-padded, into
    the c uint32 quad columns of `text`; return the c quad values, the last
    first."""
    values = []
    for col in range(text.shape[1] - 1, -1, -1):
        rest = u // _TEN4
        values.append((u - rest * _TEN4).astype(np.intp))
        text[:, col] = _QUADS.take(values[-1])
        u = rest
    return values


def _signed(negative: np.ndarray, quads: int) -> np.ndarray:
    """(n, quads) uint32 text, the sign quad of each row in column 0."""
    text = np.empty((len(negative), quads), np.uint32)
    text[:, 0] = np.where(negative, _QUADS[_MINUS], _QUADS[_NUL])
    return text


def _narrow(cells: np.ndarray, negative: np.ndarray, start: int, stop: int, width: int = 0) -> np.ndarray:
    """(n, max(w, width)) uint8: each row's minus byte if any row is
    negative, then its bytes [start, stop) of `cells`, NUL-padded; w is the
    width of those bytes."""
    signed = int(negative.any())
    w = signed + stop - start
    out = np.empty((len(cells), max(w, width)), np.uint8)
    out[:, signed:w] = cells[:, start:stop]
    out[:, w:] = 0
    if signed:
        out[:, 0] = cells[:, 3]
    return out


def int_cells(v: np.ndarray) -> np.ndarray:
    """(n, w) uint8 cells of an integer array, as str writes each value; w
    is the longest value's width."""
    u = v.astype(np.uint64)
    negative = v < 0
    np.negative(u, out=u, where=negative)  # two's complement: |v|, also for the least int64
    lead = np.minimum(20 - np.searchsorted(_POW10, u, "right"), 19)  # 0 keeps one digit
    first = int(lead.min(initial=19))
    text = _signed(negative, 6)
    _put_digits(text[:, 1 + first // 4:], u)  # the quads before `first` are masked off unwritten
    words = text.view(_WORD)
    words &= _INT_KEEP.take(lead, axis=0)
    return _narrow(words.view(np.uint8), negative, 4 + first, 24)


def _scaled(N: np.ndarray, F: np.ndarray, s: np.ndarray):
    """(⌊N·F/2^s⌋, N·F mod 2^s) for N < 2^55, F < 2^45, 1 ≤ s ≤ 46: the
    128-bit product from 32-bit limbs."""
    n1, n0, f1, f0 = N >> 32, N & _LOW32, F >> 32, F & _LOW32
    low = n0 * f0
    mid = n0 * f1 + n1 * f0  # < 2^56
    plo = low + (mid << 32)  # the low word, mod 2^64
    phi = n1 * f1 + (mid >> 32) + (plo < low)
    return (phi << (64 - s)) | (plo >> s), plo & ((_ONE << s) - _ONE)


def _shortest(x: np.ndarray):
    """(digits, k, ok): repr's digits of each float64 as one integer below
    10^17, shortest and then nearest, whose value is digits·10^−k, where ok.

    x = m·2^e has the round-trip interval (4m ± 2)·2^(e−2), or 4m − 1 below x
    at m = 2^52, bounds included for even m.  Scaled by 10^k, each bound is
    q + r/2^s, exact.  A multiple of 10 in the interval, if any, is its only
    one and has the fewest digits; otherwise the integer nearest the scaled
    x, ties to even, is the nearest candidate with the fewest digits.
    """
    bits = x.view(np.uint64)
    biased = (bits >> 52 & 0x7FF).astype(np.intp)
    ok = (biased >= _BIASED_MIN) & (biased < _BIASED_MIN + len(_E))
    i = np.where(ok, biased - _BIASED_MIN, 0)
    k, F, s = _K.take(i), _POW5.take(i), _SHIFT.take(i)
    m = bits & np.uint64((1 << 52) - 1) | np.uint64(1 << 52)
    even = (m & _ONE) == 0
    q_mid, r_mid = _scaled(m << 2, F, s)
    # the bounds lie 2F above 4m·F and 2F or F below it, each below 2^46
    below = (_ONE << s) - _ONE
    t = r_mid + 2 * F
    q_hi, r_hi = q_mid + (t >> s), t & below
    borrow = (2 * F >> s) + _ONE  # borrow·2^s > 2F
    t = r_mid + (borrow << s) - np.where(m == np.uint64(1 << 52), F, 2 * F)
    q_lo, r_lo = q_mid - borrow + (t >> s), t & below
    top = q_hi - ((r_hi == 0) & ~even)  # the largest integer in the interval

    def inside(c):
        return (c <= top) & ((c > q_lo) | ((c == q_lo) & (r_lo == 0) & even))

    tens = top // np.uint64(10) * np.uint64(10)
    half = _ONE << (s - _ONE)
    near = q_mid + ((r_mid > half) | ((r_mid == half) & (q_mid & _ONE == _ONE)))
    use_tens = inside(tens)
    ok &= use_tens | inside(near)
    return np.where(use_tens, tens, near), k, ok


def float_cells(x: np.ndarray, fallback) -> np.ndarray:
    """(n, w) uint8 cells of a float64 array, as repr writes each value;
    `fallback(values)` formats the list of values the kernel leaves, one
    string each, and w is the longest cell's width.  The integer part is
    digits // 10^k, and the fraction, of at most k digits, is
    (digits mod 10^k)·10^(4c−1−k) written in c quads, c the fewest that hold
    the column's largest k after the leading 0."""
    digits, k, ok = _shortest(x)
    decimal_exponent = np.searchsorted(_POW10, digits, "right") - k
    ok &= decimal_exponent <= 16  # repr's fixed notation: above 2^-11 it is also > −4
    bad = ~ok
    digits[bad], k[bad], decimal_exponent[bad] = 0, 0, 1  # the fallback's rows widen no kernel span
    unit = _POW10.take(k)
    whole = digits // unit
    quads = int(k.max(initial=0)) // 4 + 1
    frac = (digits - whole * unit) * _POW10.take(4 * quads - 1 - k)

    negative = x < 0
    text = _signed(negative, 10)
    lead = 16 - np.clip(decimal_exponent, 1, 16)  # the integer part's first digit: 0 keeps one
    first = int(lead.min(initial=15))
    _put_digits(text[:, 1 + first // 4:5], whole)  # the quads before `first` are masked off unwritten
    end = np.full(len(x), 4 * quads, np.intp)  # one past the fraction's last nonzero digit, quad by quad
    zeros = np.ones(len(x), bool)
    for quad in _put_digits(text[:, 5:5 + quads], frac):
        end -= _TZ4.take(quad) * zeros
        zeros &= quad == 0
    last = np.maximum(end - 1, 1)  # the last fraction digit kept: at least the first
    cells = text.view(np.uint8)
    cells[:, 20] = ord(".")  # over the fraction's leading 0
    words = text.view(_WORD)
    words &= _FLOAT_KEEP.take(19 * lead + last - 1, axis=0)  # and the quads past `quads`, unwritten

    texts = np.array([t.encode() for t in fallback(x[bad].tolist())]) if bad.any() else np.zeros(0, "S1")
    cells = _narrow(cells, negative, 4 + first, 21 + int(last.max(initial=1)), texts.itemsize)
    if len(texts):
        cells[bad] = 0
        cells[bad, :texts.itemsize] = texts.view(np.uint8).reshape(len(texts), -1)
    return cells
