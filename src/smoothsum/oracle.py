"""Ground-truth evaluation of the sum by direct enumeration.

Every k-free N-smooth integer with log n <= u_cutoff * log N is enumerated
in numpy blocks of (log n, Omega(n)).  For fixed (k, N, f) the sum is a
polynomial in alpha, S = sum_omega alpha^omega S_omega, and each
S_omega = sum_{Omega(n) = omega} f(log n / log N) / n is real.  So a
block's terms are real.  Class omega's terms are scaled by a power of two
near max(1, |alpha|^omega), which is exact, and error-free extraction
(arith_core.extract_vector) splits them into heads and residuals, summed
per class by np.bincount: the head sums are exact and the residual sums'
rounding is bounded.  One math.fsum per class adds its heads and residuals
into S_omega, and alpha^omega enters once per class.

brute_S's certificate covers the truncation tail, by the trivial envelope
sup_{u > cutoff} |f| * prod_p (1 + |alpha|/p + ... + |alpha|^{k-1}/p^{k-1}),
the forming of each real term (log n, exp, f and their product), per class
|alpha|^omega sum |t| times the terms' relative error, and the summation:
the residuals' bounds, each class's rounding of S_omega, alpha^omega and
their product, and the last rounding.

One sequential loop sums the blocks in the enumeration's fixed order, so
the result depends only on the arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith_core import (
    DEFAULT_COUNT_CAP,
    EXP_LOG_ERR,
    UNIT,
    enumerate_kfree_smooth,
    extract_vector,
    sieve_primes,
)
from .asymptotic import TestFunction
from .errors import DomainError
from .euler_products import g_abs_bound
from .params import SumParams

# relative error of one complex multiply, |x y - fl(x y)| <= sqrt(5) u |x y|
_MUL_ERR = math.sqrt(5.0) * UNIT


@dataclass(frozen=True)
class BruteResult:
    value: complex
    terms_used: int
    u_cutoff: float
    tail_certificate: float

    def __post_init__(self):  # the one check every route to a result passes
        if not 0.0 <= self.tail_certificate < math.inf:
            raise DomainError(f"tail certificate {self.tail_certificate} is not finite and >= 0")


def brute_S(
    params: SumParams,
    f: TestFunction,
    u_cutoff: float | None = None,
    threads: int = 1,
    count_cap: int = DEFAULT_COUNT_CAP,
) -> BruteResult:
    """sum over k-free N-smooth n with log n <= u_cutoff log N of
    f(log n / log N) alpha^Omega(n) / n, as the sum of alpha^omega S_omega
    over the Omega classes up to the largest that holds a term.

    tail_certificate bounds the truncation tail, the rounding in forming
    each real term f(log n / log N) e^{-log n} (relative to the term, at
    most (omega + 9) u max log n plus exp's and f's own, f's from
    f.eval_rounding; sum |t| over a class is S_omega unless a term is
    negative; where that is not finite, as for a Gaussian of sigma 1e-150,
    each computed term t' is within |t'| + sup |f| / n of its own, at most
    the weighted sum |t'| plus 2 sup |f| G(1) in all) and the summation's
    rounding: the residuals', weighted by
    |alpha|^omega over their scale, and per class the rounding of S_omega
    (correctly rounded), of alpha^omega (omega complex multiplies, each
    within sqrt(5) u; Brent, Percival and Zimmermann, Math. Comp. 76, 2007)
    and of its product with the real S_omega (one rounding per part), none
    of them underflowing.  At alpha = 0 the sum is the one term f(0), and
    the certificate is f's rounding of it, f.eval_rounding(0, 0) |f(0)|
    (0 for f = 1), or |f'(0)| + sup |f| where that is not finite.

    u_cutoff=None takes the test function's default (placed where its
    envelope drops below ~1e-13); math.inf sums every term.  More than
    count_cap terms in the whole sum raise CountCapExceeded; a non-finite
    term or class product, or a certificate that is not finite and >= 0
    (as from a sup_tail that returns inf or NaN), raises DomainError.
    `threads` accepts only 1; it remains for callers that still pass it and
    goes at the next benchmark change.
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
        with np.errstate(over="ignore", invalid="ignore"):
            value = complex(np.complex128(f.eval_f(0.0)))
            cert = float(f.eval_rounding(0.0, 0.0) * abs(value))
        cert = cert if math.isfinite(cert) else abs(value) + f.sup_tail(-math.inf)
        return BruteResult(value, 1, float(u_cutoff), cert)
    # the envelope first: parameters past the double range raise here
    cert = 0.0 if math.isinf(u_cutoff) else f.sup_tail(u_cutoff) * g_abs_bound(params)
    primes = sieve_primes(params.N)
    k, log_N = params.k, params.log_n
    log_cap = u_cutoff * log_N if not math.isinf(u_cutoff) else math.inf
    # class omega's terms are scaled by 2^e_omega, about max(1, |alpha|^omega),
    # so that the residuals' rounding is on the scale of the alpha-weighted
    # terms, not of the largest real term
    classes = (k - 1) * len(primes) + 1  # Omega(n) <= (k - 1) pi(N)
    log2_alpha = math.log2(abs(params.alpha))
    shifts = np.clip(np.floor(np.arange(classes) * log2_alpha), 0, 1023).astype(np.int64)
    scale = np.ldexp(1.0, shifts)
    sums, residual_err, terms, top = [], 0.0, 0, 0
    negatives = np.zeros(classes)  # per class, the sum of its scaled terms below 0
    # an overflowing term is left to extract_vector and an overflowing class
    # product to the check below: both raise DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        for log_n, omega in enumerate_kfree_smooth(primes, k, log_cap, count_cap):
            t = np.negative(log_n)
            np.exp(t, out=t)
            t *= f.eval_f(log_n / log_N)
            t *= scale[omega]
            if t.min() < 0:  # sum |t| = sum t - 2 sum min(t, 0)
                negatives += np.bincount(omega, np.minimum(t, 0.0), classes)
            hi, lo, err = extract_vector(t)
            sums += (np.bincount(omega, hi, classes), np.bincount(omega, lo, classes))
            residual_err += err
            terms += len(t)
            top = max(top, int(omega.max()))
        # classes above top hold no term: they get no power, which may overflow
        shifts = shifts[: top + 1]
        s = np.ldexp([math.fsum(c) for c in np.array(sums)[:, : top + 1].T.tolist()], -shifts)
        # alpha^0 .. alpha^top, one multiply per step
        pows = np.cumprod(np.append(1.0 + 0j, np.full(top, params.alpha)))
        re, im = pows.real * s, pows.imag * s
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise DomainError("a class product alpha^omega S_omega is not finite")
        value = complex(math.fsum(re.tolist()), math.fsum(im.tolist()))
        # (1 + sqrt(5) u)^omega - 1 bounds alpha^omega's relative error, so
        # weight >= |alpha|^omega
        omegas = np.arange(top + 1)
        pow_err = omegas * _MUL_ERR / (1.0 - omegas * _MUL_ERR)
        weight = np.abs(pows) / (1.0 - pow_err)
        # a class's residual rounding counts |alpha|^omega / 2^e_omega times;
        # S_omega's rounding and the product's are u relative, alpha^omega's
        # pow_err
        cert += residual_err * float(np.max(np.ldexp(weight, -shifts)))
        cert += float(weight @ ((2.0 * UNIT + pow_err) * np.abs(s)))
        # forming a term: fl(log n), a sum of d <= omega rounded e fl(log p), is
        # within (omega + 9) u L of log n <= L; exp, f (at a quotient within 3u)
        # and their product multiply the term by (1 + EXP_LOG_ERR)(1 + f_rel)(1 + u)
        L = min(log_cap, (k - 1) * float(primes.log_primes.sum()))
        log_err = (omegas + 9) * UNIT * L
        f_rel = f.eval_rounding(L / log_N, (log_err + 3.0 * UNIT * L) / log_N)
        form_rel = np.expm1(log_err + EXP_LOG_ERR + f_rel + UNIT)
        abs_s = s - 2.0 * np.ldexp(negatives[: top + 1], -shifts)
        form = float(weight @ (form_rel * abs_s))
        if not math.isfinite(form):  # t' is within |t'| + sup |f| / n of t; weight <= 2 |alpha|^omega
            form = float(weight @ abs_s) + 2.0 * f.sup_tail(-math.inf) * g_abs_bound(params)
        cert += form
    return BruteResult(value, terms, float(u_cutoff), cert + UNIT * abs(value))
