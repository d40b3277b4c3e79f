"""smoothdio: desk-scale toolkit for Diophantine approximation by smooth
numbers — exact sieves and counts, Dickman ρ, saddle points, Kloosterman
averages over smooth moduli, and dispersion-method sums with their exact
identities."""

from .arith import (
    Factorization,
    PrimeTable,
    euler_phi,
    factorize,
    gcd_sum,
    largest_prime_factor,
    mod_inverse,
    sieve_primes,
)
from .diophantine import (
    ApproxParams,
    Convergent,
    DecimalAlpha,
    QuadIrr,
    build_target_set,
    cf_convergents,
    connection_bound,
    convergents,
    derive_params,
    dist_from_convergent,
    dist_nearest,
    parse_alpha,
)
from .dispersion import (
    DispersionParams,
    SumReport,
    bilinear_B,
    bump_fourier,
    bump_phi,
    dispersion_sums,
    phi_weight,
    phi_weight_poisson,
    sigma_qR,
    sums_report,
    type1_report,
    type2_report,
)
from .errors import BudgetExceededError, CapacityError, NonConvergenceError
from .expsums import (
    KloostermanParams,
    complete_kloosterman,
    incomplete_inverse_sum,
    kl_smooth_average,
    kloos_bound_rhs,
    optimal_z,
)
from .smooth import (
    RhoTable,
    SaddlePoint,
    SmoothSieve,
    dickman_rho,
    hildebrand_estimate,
    local_density,
    psi,
    psi_q,
    psi_q_estimate,
    rho_table,
    saddle_alpha,
    smooth_decompose,
    smooth_sieve,
)

__version__ = "0.1.0"
