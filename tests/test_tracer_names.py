"""The benchmark's tracer finds smoothdio's layers by name.

perfbench/tracing.py wraps the functions named in SPANNED and SCALAR and
rebinds their module-level aliases; a rename or a call through a non-aliased
path silently reads 0 in the per-layer metrics.  This guard keeps the names
and the aliases the tracer relies on.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    for qual in list(tracing.SPANNED) + list(tracing.SCALAR):
        mod_name, fn_name = qual.split(".")
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn_name, None)), qual


def test_kernels_are_reached_through_module_level_aliases():
    import smoothdio.arith
    import smoothdio.diophantine
    import smoothdio.dispersion
    import smoothdio.expsums
    import smoothdio.smooth

    assert smoothdio.dispersion.smooth_sieve is smoothdio.smooth.smooth_sieve
    assert smoothdio.expsums.smooth_sieve is smoothdio.smooth.smooth_sieve
    # the saddle table is built through this alias, or arith.prime_array reads 0 on the alpha job
    assert smoothdio.smooth.prime_array is smoothdio.arith.prime_array
    # the one class sieve: the target set and a finite-Y Σ(q, R) both reach P⁺ through this alias
    assert smoothdio.diophantine.largest_prime_factor_array is smoothdio.smooth.largest_prime_factor_array
