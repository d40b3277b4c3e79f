"""The byte-cell kernels against the strings they replace: repr (through
json.dumps) for floats, str for ints."""

import json

import numpy as np
import pytest

import smoothdio.cli as cli
from smoothdio import numfmt

_CSV_SPELLING = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _texts(cells):
    assert cells.dtype == np.uint8 and cells.ndim == 2
    return [bytes(row[row != 0]).decode() for row in cells]


def _oracle(values, as_json):
    texts = [json.dumps(v) for v in values]
    return texts if as_json else [_CSV_SPELLING.get(t, t) for t in texts]


def _check_floats(x, as_json=True):
    """float_cells gives the oracle's text for every element of x; return
    the values it left to the fallback."""
    left = []

    def fallback(values):
        left.extend(values)
        return cli._scalar_cells(values, as_json)

    x = np.asarray(x, dtype=np.float64)
    assert _texts(numfmt.float_cells(x, fallback)) == _oracle(x.tolist(), as_json)
    return left


def _kernel_takes(values):
    """The values among `values` the kernel must certify: those it takes
    whose repr is in fixed notation."""
    a = np.abs(np.array(values, dtype=np.float64))
    return a[(a >= 2.0**-11) & (a < 1e16)]


def test_float_cells_match_repr_on_random_bit_patterns():
    # every biased exponent, both signs, seeded random fraction bits
    rng = np.random.default_rng(20181)
    exponents = np.repeat(np.arange(2048, dtype=np.uint64), 24)
    bits = rng.integers(0, 1 << 52, len(exponents), dtype=np.uint64) | exponents << np.uint64(52)
    bits[::2] |= np.uint64(1 << 63)
    x = bits.view(np.float64)
    for as_json in (True, False):
        left = _check_floats(x, as_json)
        # the kernel certifies every finite value it takes
        assert len(_kernel_takes(left)) == 0
        assert len(left) < len(x)


def test_float_cells_match_repr_on_decimal_data():
    rng = np.random.default_rng(7)
    samples = [
        rng.random(10000),
        rng.random(10000) * 1e-3,
        np.exp(rng.uniform(-12, 36, 10000)),
        np.round(rng.random(10000) * 1000, 3),
        np.arange(10000) / 8,
        -np.exp(rng.uniform(-9, 30, 10000)),
    ]
    for x in samples:
        left = _check_floats(x)
        assert len(_kernel_takes(left)) == 0


def test_float_cells_edge_values():
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308, float("nan"),
             float("inf"), float("-inf"), 1.7976931348623157e308]
    edges += [2.0**e * s for e in range(-20, 60) for s in (1, -1)]  # m = 2^52: the interval is narrower below
    for k in range(-20, 23):
        v = 10.0**k
        edges += [v, np.nextafter(v, 0), np.nextafter(v, np.inf)]
    for v in (1e-4, 1e-5, 1e16, 2.0**-11):
        edges += [np.nextafter(v, 0), v, np.nextafter(v, np.inf)]
    edges += [0.5, 2.5, 0.125, 0.375, 12.5, 1234.5, 0.0625, 2.0**-11 * 3, 1e15 + 0.5, 2.0**52 + 0.5]  # exact ties
    edges += [2.0**53, 2.0**53 - 1, 2.0**53 - 2, 1e15, 123456789012345.0, 9007199254740.993, 0.1, 0.2, 0.3, 1 / 3]
    edges += np.random.default_rng(3).integers(0, 2**53, 2000).astype(np.float64).tolist()  # integers up to 2^53
    for as_json in (True, False):
        left = _check_floats(edges, as_json)
        assert len(_kernel_takes(left)) == 0
        assert {json.dumps(v) for v in left} >= {"0.0", "-0.0", "5e-324", "NaN", "Infinity", "-Infinity", "1e-05",
                                                 "1e+16"}


def test_float_cells_of_one_value_and_of_none():
    assert _texts(numfmt.float_cells(np.array([0.25]), None)) == ["0.25"]
    assert numfmt.float_cells(np.zeros(0), None).shape[0] == 0


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint64, np.uint16])
def test_int_cells_match_str(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(5)
    v = np.concatenate([rng.integers(info.min, info.max, 5000, dtype=dtype, endpoint=True),
                        np.array([info.min, info.max, 0, 1, 9, 10, 99, 100], dtype=dtype)])
    if info.min < 0:
        v = np.concatenate([v, np.array([-1, -9, -10], dtype=dtype)])
    assert _texts(numfmt.int_cells(v)) == [str(i) for i in v.tolist()]
