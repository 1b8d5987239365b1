"""Ground-truth evaluation of the sum by direct enumeration.

Every k-free N-smooth integer with log n <= u_cutoff * log N is enumerated
in numpy blocks of (log n, Omega(n)), and f(log n / log N) alpha^Omega(n) / n
is accumulated with exactly-rounded summation per block.  brute_S certifies
the truncation tail with the trivial envelope
sup_{u > cutoff} |f| * prod_p (1 + |alpha|/p + ... + |alpha|^{k-1}/p^{k-1}).

One sequential loop sums the blocks in the enumeration's fixed order, so
the result depends only on the arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith_core import DEFAULT_COUNT_CAP, enumerate_kfree_smooth, sieve_primes
from .asymptotic import TestFunction
from .euler_products import g_abs_bound
from .params import SumParams


@dataclass(frozen=True)
class BruteResult:
    value: complex
    terms_used: int
    u_cutoff: float
    tail_certificate: float


def brute_S(
    params: SumParams,
    f: TestFunction,
    u_cutoff: float | None = None,
    threads: int = 1,
    count_cap: int = DEFAULT_COUNT_CAP,
) -> BruteResult:
    """sum over k-free N-smooth n with log n <= u_cutoff log N of
    f(log n / log N) alpha^Omega(n) / n, with a certified truncation tail.

    u_cutoff=None takes the test function's default (placed where its
    envelope drops below ~1e-13); math.inf sums every term.  More than
    count_cap terms in the whole sum raise CountCapExceeded.  `threads`
    accepts only 1; it remains for callers that still pass it and goes at
    the next benchmark change.
    """
    if threads != 1:
        raise ValueError("brute_S is sequential: threads must be 1")
    if u_cutoff is None:
        u_cutoff = f.default_u_cutoff
    if not u_cutoff >= 0:  # also refuses NaN
        raise ValueError("u_cutoff must be >= 0 (or math.inf)")
    if count_cap < 0:
        raise ValueError("count_cap must be >= 0")
    if params.alpha == 0:  # alpha^Omega kills every n > 1
        value = complex(np.complex128(f.eval_f(0.0)))
        return BruteResult(value, 1, float(u_cutoff), 0.0)
    primes = sieve_primes(params.N)
    k, log_N = params.k, params.log_n
    log_cap = u_cutoff * log_N if not math.isinf(u_cutoff) else math.inf
    # alpha^0 .. alpha^Omega_max, one multiply per step
    pows = np.cumprod(np.append(1.0 + 0j, np.full((k - 1) * len(primes), params.alpha)))
    re_parts, im_parts, terms = [], [], 0
    for log_n, omega in enumerate_kfree_smooth(primes, k, log_cap, count_cap):
        block = (
            np.asarray(f.eval_f(log_n / log_N), dtype=np.complex128)
            * pows[omega]
            * np.exp(-log_n)
        )
        re_parts.append(math.fsum(block.real.tolist()))
        im_parts.append(math.fsum(block.imag.tolist()))
        terms += len(log_n)
    value = complex(math.fsum(re_parts), math.fsum(im_parts))
    if math.isinf(u_cutoff):
        cert = 0.0
    else:
        cert = f.sup_tail(u_cutoff) * g_abs_bound(params)
    return BruteResult(value, terms, float(u_cutoff), cert)

