"""Argument refusals of public functions that no other test reaches."""

from fractions import Fraction

import numpy as np
import pytest

from smoothdio.arith import factorize, sieve_primes
from smoothdio.diophantine import (ApproxParams, QuadIrr, build_target_set, cf_convergents, convergents,
                                   derive_params, dist_nearest, parse_alpha)
from smoothdio.dispersion import bump_fourier, phi_weight, phi_weight_poisson
from smoothdio.errors import CapacityError
from smoothdio.expsums import kl_smooth_average
from smoothdio.smooth import local_density, saddle_alpha, smooth_sieve

GOLDEN = QuadIrr(1, 1, 5, 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sieve_primes(-1), ValueError, "limit must be >= 0"),
    (lambda: factorize(0), ValueError, "n must be >= 1"),
    (lambda: parse_alpha("x:1"), ValueError, "unrecognized alpha spec"),
    (lambda: cf_convergents(GOLDEN, 0), ValueError, "count must be >= 1"),
    (lambda: dist_nearest(-1, GOLDEN), ValueError, "n must be >= 0"),
    (lambda: next(convergents(1.5)), TypeError, "alpha must be QuadIrr or DecimalAlpha"),
    (lambda: build_target_set(derive_params(10, Fraction(1, 4)), 4), ValueError, "a must be coprime to q"),
    (lambda: smooth_sieve(0, 5, 3), ValueError, "need 1 <= lo <= hi"),
    (lambda: smooth_sieve(2**62, 2**62 + 5, 3), CapacityError, "interval top beyond int64"),
    (lambda: local_density(0.5, 10, 1), ValueError, "N must be >= 1"),
    (lambda: saddle_alpha(10, 1.5), ValueError, "y must be >= 2"),
    (lambda: saddle_alpha(1, 10), ValueError, "x must be > 1"),
    (lambda: saddle_alpha(10, 2e7), CapacityError, "exceeds prime-sum capacity"),
    (lambda: bump_fourier(1.0, 1e-13), ValueError, "tol must be >= 1e-12"),
    (lambda: phi_weight(1, 0.5, 1, 1), ValueError, "q must be >= 2"),
    (lambda: phi_weight_poisson(1, 5.0, 11, 2, -1), ValueError, "Kmax must be >= 0"),
    (lambda: kl_smooth_average(1.5, 10, 1, 1, 5), ValueError, "need M, x >= 2"),
    (lambda: kl_smooth_average(5, 10, 0, 1, 5), ValueError, "a must be nonzero"),
])
def test_public_functions_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_target_set_below_one_residue_is_empty():
    # R < 1 leaves no residue in [1, ⌊R⌋]
    n, pplus = build_target_set(ApproxParams(Fraction(1, 4), 101, 1000.0, 0.5, float("inf"), 10.0), 2)
    assert n.dtype == pplus.dtype == np.int64 and len(n) == len(pplus) == 0
