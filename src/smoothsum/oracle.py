"""Ground-truth evaluation of the sum by direct enumeration.

Every k-free N-smooth integer with log n <= u_cutoff * log N is enumerated
in numpy blocks of (log n, Omega(n)), and f(log n / log N) alpha^Omega(n) / n
is summed per block by error-free extraction (arith_core.split_sum): an
exact head and a residual whose rounding is bounded.  One math.fsum per
part adds every head and residual.  brute_S's certificate covers the
truncation tail, by the trivial envelope
sup_{u > cutoff} |f| * prod_p (1 + |alpha|/p + ... + |alpha|^{k-1}/p^{k-1}),
and the summation: the residuals' bounds plus the last rounding.  The
rounding in forming each term is not in it.

One sequential loop sums the blocks in the enumeration's fixed order, so
the result depends only on the arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith_core import (
    DEFAULT_COUNT_CAP,
    UNIT,
    enumerate_kfree_smooth,
    sieve_primes,
    split_sum,
)
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
    f(log n / log N) alpha^Omega(n) / n.  tail_certificate bounds the
    truncation tail and the summation's rounding.

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
    # the envelope first: parameters past the double range raise here
    cert = 0.0 if math.isinf(u_cutoff) else f.sup_tail(u_cutoff) * g_abs_bound(params)
    primes = sieve_primes(params.N)
    k, log_N = params.k, params.log_n
    log_cap = u_cutoff * log_N if not math.isinf(u_cutoff) else math.inf
    re_parts, im_parts, terms = [], [], 0
    # an overflowing power or term is left to split_sum, which refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        # alpha^0 .. alpha^Omega_max, one multiply per step
        pows = np.cumprod(np.append(1.0 + 0j, np.full((k - 1) * len(primes), params.alpha)))
        for log_n, omega in enumerate_kfree_smooth(primes, k, log_cap, count_cap):
            block = (
                np.asarray(f.eval_f(log_n / log_N), dtype=np.complex128)
                * pows[omega]
                * np.exp(-log_n)
            )
            head, residual, err = split_sum(block)
            re_parts += (head.real, residual.real)
            im_parts += (head.imag, residual.imag)
            cert += err
            terms += len(log_n)
    value = complex(math.fsum(re_parts), math.fsum(im_parts))
    return BruteResult(value, terms, float(u_cutoff), cert + UNIT * abs(value))
