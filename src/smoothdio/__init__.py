"""smoothdio: desk-scale toolkit for Diophantine approximation by smooth
numbers — exact sieves and counts, Dickman ρ, saddle points, Kloosterman
averages over smooth moduli, and dispersion-method sums with their exact
identities.

Each public name is imported from its module on first access (PEP 562), so
`import smoothdio` loads no submodule and a command loads only what it runs.
"""

import importlib

# module → the public names it defines
_EXPORTS = {
    "arith": ("PrimeTable", "factorize", "largest_prime_factor", "sieve_primes"),
    "diophantine": ("ApproxParams", "Convergent", "DecimalAlpha", "QuadIrr", "build_target_set", "cf_convergents",
                    "connection_bound", "convergents", "derive_params", "dist_from_convergent", "dist_nearest",
                    "parse_alpha"),
    "dispersion": ("DispersionParams", "SumReport", "bilinear_B", "bump_fourier", "bump_phi", "dispersion_sums",
                   "phi_weight", "phi_weight_poisson", "sigma_qR", "sums_report", "type1_report", "type2_report"),
    "errors": ("BudgetExceededError", "CapacityError", "NonConvergenceError"),
    "expsums": ("KloostermanParams", "complete_kloosterman", "kl_smooth_average", "kloos_bound_rhs", "optimal_z"),
    "smooth": ("SaddlePoint", "dickman_rho", "local_density", "psi", "saddle_alpha", "smooth_decompose",
               "smooth_sieve"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
