"""smoothsum: weighted sums over smooth k-free integers, three ways.

The library evaluates S(alpha,k;N) = sum f(log n/log N) alpha^Omega(n)/n
over k-free N-smooth integers by (1) brute-force enumeration with a
certified tail, (2) the exact Fourier-integral representation through the
partial zeta function, and (3) the asymptotic main term
C_f(alpha,k;N) (log N)^alpha, and it cross-verifies the special-function
and Euler-product facts those routes depend on.
"""

from .arith_core import (
    PrimeSet,
    enumerate_kfree_smooth,
    sieve_primes,
)
from .asymptotic import (
    TestFunction,
    error_decomposition,
    exact_integral,
    main_term,
    make_gaussian,
    make_test_constant,
    tenenbaum_check,
    theorem2_report,
)
from .dickman import (
    DickmanTable,
    EULER_GAMMA,
    EXP_EULER_GAMMA,
    RhoHatValue,
    build_rho,
    expint_J,
    rho_hat,
)
from .errors import (
    CountCapExceeded,
    DomainError,
    EtaTooSmall,
    PrecisionLoss,
    SmoothsumError,
    ToleranceUnachievable,
    UnwrapError,
)
from .euler_products import (
    Lemma1Report,
    ProductValue,
    g_product,
    h_finite,
    h_infinite,
    lemma1_check,
    zeta_partial,
)
from .oracle import BruteResult, brute_S
from .params import SumParams
from .quadrature import QuadResult
from .zeta_engine import ZetaValue, vk_check, zeta

__version__ = "0.1.0"
