"""Finite and infinite products over primes, through one Euler-factor kernel.

For z = p^(-s) and w = alpha*z every product here multiplies the factor
(1-z)^(-beta) (1-w^k)/(1-w):

    zeta_N(s)          beta = 1, alpha = 0:  (1-z)^(-1)
    g_{alpha,k,N}(s)   beta = 0:             1 + w + ... + w^(k-1)
    h_{alpha,k,N}(s)   beta = -alpha:        (1-w)^(-1) (1-z)^alpha (1-w^k)

`_factor_log_sum` sums the factor log over the primes.  For p <= 1024 it
adds the principal -beta Log(1-z) per prime, so log zeta_N and h's
alpha Log(1-z) stay principal, and one log per block of primes of the
product of the geometric sums 1 + w + ... + w^(k-1) (no log of 1 - w, and
k at w = 1): that ratio part, and with it log g and log h, holds mod 2 pi i
only, which is all exp and the identity log g = alpha log zeta_N + log h
(g and h share the blocks) need.  Above 1024 it adds sum_{m<=8} e_m z^m,
e_m = (beta + alpha^m)/m - [k | m] (k/m) alpha^m: the Mercator expansion of
the principal piece logs, which neither takes complex logs nor rounds 1 - z
(eps per prime against a term of size |z|).  The series truncation is
certified and returned; where it exceeds 1e-16 (|alpha| beyond about 7 on
the 1-line, or Re(s) well below 1) the exact pieces run over every prime.

`_chunked_piece_sum` is the prime walk: numpy sums along each node's row
over a fixed chunking of the primes, so every product depends only on its
arguments, and a node's value not on its batch, bit for bit.

The vector routes (g_values, zeta_partial_values, h_log_values) take the
series above 1024 from the Chebyshev moments of `prime_moments` where their
nodes share one Re s = sigma, O(n) per node in place of O(pi(N)), and walk
a node whose certified degree would reach the prime count.  They return
(values, log_err), the per-node error bound that `_factor_log_sum` owns
(the series truncation; on the moment route also the interpolation and
rounding), and their callers read it.  The point routes (g_product,
zeta_partial, h_finite) always walk, as the independent slow route, carry
the bound in tail_bound and raise DomainError past the double range.

The infinite product h_{alpha,k} (`h_infinite_log_values`, which h_infinite
and the main term's h contour sample) walks no prime past Q, the smallest
certified floor <= 1024: the smallest power of two from 64 whose tail
truncation is <= 1e-16 (`_h_floor`; 128 for |alpha| up to about 1.2 at
k = 2, 3).  Above Q, `h_tail_log_values` sums the same series over primes
through the prime zeta function, P_{>Q}(w) = sum_j mu(j)/j log zeta_{>Q}(j w),
with zeta from `zeta_engine` and log zeta_Q(u) taken as one log of the
product over p <= Q per entry, exact since |log zeta_Q(u)| <= log zeta(2) < pi
at Re u >= 2.  `lemma1_check` reads h_N/h - 1 off the same tail at Q = N,
so it sieves no prime past max N.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import prime_moments, zeta_engine
from .arith_core import SIEVE_CAP, PrimeSet, sieve_primes
from .errors import DomainError, ToleranceUnachievable
from .params import SumParams, check_alpha_k

_ROSSER = 1.25506  # pi(x) < 1.25506 x / log x for x > 1
_BLOCK_LOG_MAX = 690.0  # log of the largest modulus a block product may reach
_CHUNK_BUDGET = 8192  # complex scratch entries per block of nodes and primes
_PRIME_CHUNK = 4096  # primes per chunk of a walk: a node's sum never depends on its batch
_SERIES_FLOOR = 1024  # primes above this use the factor-log power series
_SERIES_TERMS = 8
_SERIES_MAX_TRUNC = 1e-16  # ...where its certified truncation is below rounding
_LOG_DOUBLE_MAX = math.log(np.finfo(np.float64).max)
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ProductValue:
    """A product over primes: value, its accumulated log, and a bound on
    |value| error from the neglected factors and the series truncation."""

    value: complex
    log_value: complex
    tail_bound: float


def _point(log_values: np.ndarray, log_error) -> ProductValue:
    # a length-1 log sum and the length-1 bound on |log of the neglected factors|
    log_value = complex(log_values[0])
    if log_value.real > _LOG_DOUBLE_MAX:
        raise DomainError(f"|product| = e^{log_value.real:.4g} is past the double range")
    value = complex(np.exp(log_value))
    return ProductValue(value, log_value, abs(value) * math.expm1(float(log_error[0])))


def _block_size(k: int, r: float) -> int:
    """Primes per block product of 1 + w + ... + w^(k-1) with |w| <= r: each
    has modulus <= k max(1, r)^(k-1), so B such factors stay below
    e^_BLOCK_LOG_MAX; DomainError where one may not (about 1e300)."""
    log_m = math.log(max(k, 2)) + (k - 1) * math.log(max(1.0, r))  # > 0 at k = 1 too
    if log_m > _BLOCK_LOG_MAX:
        raise DomainError(f"k = {k}, |alpha p^(-s)| up to {r:.3g}: an Euler factor may overflow")
    return max(1, int(_BLOCK_LOG_MAX / log_m))


def _piece_logs(alpha: complex, beta: complex, k: int, block: int, z: np.ndarray) -> np.ndarray:
    """Sum along each row of z (a node; a column is a prime) of
    log[(1-z)^(-beta) (1-w^k)/(1-w)], w = alpha z: the principal -beta Log(1-z)
    per prime (none at beta = 0), and one log per `block` primes of the product
    of the Horner sums 1 + w + ... + w^(k-1), so mod 2 pi i only; k at w = 1,
    and -inf for a vanishing factor."""
    out = (-beta * np.log(1.0 - z)).sum(axis=1) if beta != 0 else np.zeros(len(z), z.dtype)
    if alpha == 0:
        return out
    w, ratio = alpha * z, np.ones_like(z)
    for _ in range(k - 1):
        ratio *= w
        ratio += 1.0
    prods = np.multiply.reduceat(ratio, np.arange(0, z.shape[1], block), axis=1)
    with np.errstate(divide="ignore"):  # a vanishing factor: log 0 = -inf
        return out + np.log(prods).sum(axis=1)


def _series_coeff(alpha: complex, beta: complex, k: int, m: int) -> complex:
    # log[(1-z)^(-beta) (1-w^k)/(1-w)] = sum_{m>=1} e_m z^m for |z|, |w| < 1
    e = (beta + alpha**m) / m
    if m % k == 0:
        e -= (k / m) * alpha**m
    return e


def _series_coeffs(alpha: complex, beta: complex, k: int) -> np.ndarray:
    return np.array([_series_coeff(alpha, beta, k, m) for m in range(1, _SERIES_TERMS + 1)])


def _series_pieces(coeffs, z: np.ndarray) -> np.ndarray:
    # sum along each row of sum_m coeffs[m-1] z^m, Horner; a coefficient may be
    # a row, one entry per column of z (the moment route's e_m W[m-1, j])
    acc = coeffs[-1] * z
    for c in coeffs[-2::-1]:
        acc += c
        acc *= z
    return acc.sum(axis=1)


def _series_trunc_bound(alpha: complex, beta: complex, k: int, sigma: float, floor: float) -> float:
    """|sum_{p > floor} (factor log - its degree-_SERIES_TERMS series)|,
    certified at Re(s) >= sigma.

    Per factor the dropped terms are sum_{m > M} e_m z^m with
    |e_m| <= (2+k) C^m (C = max(1, |alpha|, |beta|)), geometrically summed
    under C|z| <= 1/2; the prime tail uses pi(x) < 1.25506 x/log x.
    """
    big = max(1.0, abs(alpha), abs(beta))
    m1 = _SERIES_TERMS + 1
    if m1 * sigma <= 1.0 or big / floor**sigma > 0.5:
        return math.inf
    return 2.0 * (2.0 + k) * big**m1 * _prime_sum_bound(m1 * sigma, floor)


def series_floor(alpha: complex, beta: complex, k: int, sigma: float, bound: int) -> tuple[int, float]:
    """(floor, trunc) for a kernel sum over the primes <= bound at
    Re(s) >= sigma: exact piece logs run to floor and the series above it,
    with certified truncation trunc (0 where no series runs)."""
    trunc = _series_trunc_bound(alpha, beta, k, sigma, _SERIES_FLOOR)
    if bound <= _SERIES_FLOOR or trunc > _SERIES_MAX_TRUNC:
        return bound, 0.0
    return _SERIES_FLOOR, trunc


def _chunked_piece_sum(piece_fn, primes: PrimeSet, s_nodes: np.ndarray) -> np.ndarray:
    """sum_p piece_fn(p^(-s)) per node of s, node by node: piece_fn sums each
    row (a node) of a block of z over a fixed chunk of _PRIME_CHUNK primes, so
    a node's sum has the same bits in any batch of nodes; a block holds about
    _CHUNK_BUDGET entries."""
    logp = primes.log_primes
    rows = max(1, _CHUNK_BUDGET // max(1, min(len(logp), _PRIME_CHUNK)))
    acc = np.zeros(len(s_nodes), dtype=np.complex128)
    for a in range(0, len(s_nodes), rows):
        s_rows = s_nodes[a : a + rows]
        for lo in range(0, len(logp), _PRIME_CHUNK):
            z = np.exp(-np.outer(s_rows, logp[lo : lo + _PRIME_CHUNK]))
            acc[a : a + rows] += piece_fn(z)
    return acc


def _above(primes: PrimeSet, floor: int) -> PrimeSet:
    """The primes of `primes` that exceed floor."""
    cut = int(np.searchsorted(primes.primes, floor, side="right"))
    return PrimeSet(primes.bound, primes.primes[cut:], primes.log_primes[cut:])


def _factor_log_sum(alpha, beta, k: int, s, primes: PrimeSet, moments: bool = True):
    """sum over `primes` of log[(1-z)^(-beta) (1-w^k)/(1-w)], z = p^(-s),
    w = alpha*z, at every node of s: exact piece logs up to the series
    floor, the factor-log series above it.  Returns (log sums, log errors):
    per node a certified bound on the series truncation, plus on the moment
    route the interpolation and rounding at the node's own degree and tau,
    so a node's error, like its value, does not depend on its batch.  Needs
    Re(s) > 1/2 at every node.

    With `moments`, where the nodes share one Re s and `primes` holds every
    prime in (floor, bound], each node takes the series from the Chebyshev
    moments of its certified degree (prime_moments); a node that needs a
    degree at the prime count walks the series prime by prime, as every node
    does without `moments` (the point routes)."""
    alpha, beta = complex(alpha), complex(beta)
    s_nodes = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    if np.any(s_nodes.real <= 0.5):
        raise DomainError("need Re(s) > 0.5 for every node")
    sigma = float(np.min(s_nodes.real))
    floor, trunc = series_floor(alpha, beta, k, sigma, primes.bound)
    head = primes.restrict(floor)  # |w| <= |alpha| p^(-sigma) at its smallest prime p
    block = _block_size(k, abs(alpha) * float(head.primes[0]) ** -sigma) if alpha != 0 and len(head) else 1
    acc = _chunked_piece_sum(partial(_piece_logs, alpha, beta, k, block), head, s_nodes)
    log_err = np.full(len(s_nodes), trunc)
    if floor >= primes.bound:
        return acc, log_err
    coeffs, taus = _series_coeffs(alpha, beta, k), s_nodes.imag
    degrees = np.zeros(len(s_nodes), dtype=np.int64)
    if moments and np.all(s_nodes.real == sigma):
        sums, count = prime_moments._power_sums(floor, primes.bound, sigma, _SERIES_TERMS)
        if count == len(_above(primes, floor)):  # every prime in (floor, bound]
            weights = np.abs(coeffs) * sums  # |e_m| S_m
            half = 0.5 * math.log(primes.bound / floor)
            degrees = prime_moments._degrees(weights, half, taus, count, _SERIES_MAX_TRUNC)
    walk = degrees == 0
    if walk.any():
        series = _above(primes, floor)
        acc[walk] += _chunked_piece_sum(partial(_series_pieces, coeffs), series, s_nodes[walk])
    for n in sorted(set(degrees[~walk].tolist())):  # np.unique would import numpy.ma
        sel = degrees == n
        w, v = prime_moments._moments(floor, primes.bound, sigma, _SERIES_TERMS, n)
        acc[sel] += _series_pieces(coeffs[:, None] * w, np.exp(-1j * np.outer(taus[sel], v)))
    if not walk.all():
        rounding = prime_moments._error(weights, degrees[~walk], np.abs(taus[~walk]), sigma, primes.bound, count)
        log_err[~walk] += _SERIES_MAX_TRUNC + rounding
    return acc, log_err


def zeta_partial(primes: PrimeSet, s: complex) -> ProductValue:
    """zeta_N(s) = prod_{p<=N} (1 - p^(-s))^(-1), log = -sum Log(1-p^(-s))."""
    return _point(*_factor_log_sum(0.0, 1.0, 1, complex(s), primes, moments=False))


def zeta_partial_values(primes: PrimeSet, s_nodes) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized zeta_N over nodes, and per node the bound on the error in
    log zeta_N that the kernel returns (no per-node ProductValue wrapping)."""
    logs, log_err = _factor_log_sum(0.0, 1.0, 1, s_nodes, primes)
    return np.exp(logs), log_err


def g_product(params: SumParams, s: complex) -> ProductValue:
    """g_{alpha,k,N}(s) = prod_{p<=N} (1 + alpha/p^s + ... + alpha^(k-1)/p^((k-1)s))."""
    primes = sieve_primes(params.N)
    return _point(*_factor_log_sum(params.alpha, 0.0, params.k, complex(s), primes, moments=False))


def g_values(params: SumParams, s_nodes, primes: PrimeSet | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized g_{alpha,k,N} over nodes, and per node the bound on the
    error in log g that the kernel returns; `primes` (default: all p <= N)
    lets repeated callers share one prime set."""
    primes = primes if primes is not None else sieve_primes(params.N)
    logs, log_err = _factor_log_sum(params.alpha, 0.0, params.k, s_nodes, primes)
    return np.exp(logs), log_err


def g_abs_log_bound(params: SumParams, sigma: float = 1.0) -> float:
    """log G(sigma), rounded up, with G(sigma) = g_{|alpha|,k,N}(sigma) =
    prod_{p<=N} sum_{j<k} (|alpha| p^(-sigma))^j: |g_{alpha,k,N}(s)| <= G(Re s)
    <= G(sigma) wherever Re s >= sigma.  A real log-sum over chunks of the
    primes; inf where a factor overflows.

    Rounding: a term log sum_j r^j, r = |alpha| p^(-sigma), is off by at most
    ((k-1)(|sigma| log N + 2) + 2k + 1) eps (r to (|sigma| log p + 2) eps
    relative, the Horner sum of k positive terms, the log), and a sum of n
    terms adds n eps times the total."""
    primes = sieve_primes(params.N)
    r_abs, k = abs(params.alpha), params.k
    total = 0.0
    with np.errstate(over="ignore"):
        for lo in range(0, len(primes), _PRIME_CHUNK):
            r = r_abs * np.exp(-sigma * primes.log_primes[lo : lo + _PRIME_CHUNK])
            geo = np.ones_like(r)
            for _ in range(k - 1):
                geo *= r
                geo += 1.0
            total += float(np.log(geo).sum())
    n = len(primes)
    per_term = (k - 1) * (abs(sigma) * params.log_n + 2.0) + 2.0 * k + 1.0
    return total + _EPS * (n * per_term + (n + 1) * total)


def g_abs_bound(params: SumParams) -> float:
    """G(1) = prod_{p<=N} (1 + |alpha|/p + ... + |alpha|^(k-1)/p^(k-1)), rounded
    up: the trivial envelope sup_x |g(1+ix/log N)| used by tail certificates.
    Raises DomainError past the double range."""
    log_g = g_abs_log_bound(params)
    if log_g > _LOG_DOUBLE_MAX:
        raise DomainError(f"|g| envelope e^{log_g:.4g} is past the double range")
    return math.exp(log_g)


def h_log_values(alpha: complex, k: int, s_nodes, primes: PrimeSet) -> tuple[np.ndarray, np.ndarray]:
    """sum_p log h_p over the given primes, per node, and per node the
    certified bound on the series truncation and the moments' interpolation
    and rounding (the kernel at beta = -alpha).  A node
    with alpha p^(-s) = 1 takes the factor's value there, (1-z)^alpha k."""
    return _factor_log_sum(alpha, -complex(alpha), k, s_nodes, primes)


def h_finite(params: SumParams, s: complex) -> ProductValue:
    """h_{alpha,k,N}(s) = prod_{p<=N} (1-alpha/p^s)^(-1) (1-1/p^s)^alpha (1-alpha^k/p^(ks)).

    (1-1/p^s)^alpha means exp(alpha*Log(1-p^(-s))) per factor; a factor
    with alpha p^(-s) = 1 is regular, (1-1/p^s)^alpha k.  tail_bound carries
    the series truncation of the factors above 1024 (0 for N <= 1024).
    """
    alpha, primes = complex(params.alpha), sieve_primes(params.N)
    return _point(*_factor_log_sum(alpha, -alpha, params.k, complex(s), primes, moments=False))


def _prime_sum_bound(a: float, P: float) -> float:
    # sum_{p > P} p^(-a) <= 1.25506 * a / ((a-1) log P) * P^(1-a), a > 1
    return _ROSSER * a / ((a - 1.0) * math.log(P)) * P ** (1.0 - a)


def h_tail_log_bound(alpha: complex, k: int, sigma: float, P: float) -> float:
    """Bound on |sum_{p > P} log h_p| from the factor-log expansion: each
    factor log is (alpha^2-alpha)/2 p^(-2s) + ... = O(p^(-2 sigma))."""
    a = abs(alpha)
    big = max(1.0, a)
    if P ** sigma < 2.0 * big:
        return math.inf
    return 2.0 * a * abs(alpha - 1.0) * _prime_sum_bound(2.0 * sigma, P) + 2.0 * (
        a**k
    ) * _prime_sum_bound(k * sigma, P)


def h_cutoff(alpha: complex, k: int, sigma: float, tol: float) -> tuple[int, float]:
    """Smallest doubling cutoff P <= SIEVE_CAP with certified |log tail| <= tol."""
    P = 128
    while True:
        bound = h_tail_log_bound(alpha, k, sigma, P)
        if bound <= tol:
            return P, bound
        if P >= SIEVE_CAP:
            raise ToleranceUnachievable(f"h tail {bound:.2e} > tol {tol:.2e} at the sieve cap {SIEVE_CAP}")
        P = min(2 * P, SIEVE_CAP)


_MOBIUS = (0, 1, -1, -1, 0)  # mu(j) for j <= _SERIES_TERMS // 2


def _log_zeta_head(z: np.ndarray) -> np.ndarray:
    """-Log prod(1 - z) along each row of z: the product is kept as 1 - d and
    halves of the row merge pairwise, (1-a)(1-b) = 1 - (a + b - ab), so the
    rounding of a merge scales with its |d|, not with the prime count; one
    principal log per row."""
    d = z
    while d.shape[1] > 1:
        half = d.shape[1] // 2
        a, b = d[:, :half], d[:, half : 2 * half]
        d = np.concatenate([a + b - a * b, d[:, 2 * half :]], axis=1)
    return -np.log(1.0 - d[:, 0])


def _log_zeta_above(u: np.ndarray, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """log zeta_{>Q}(u) = log zeta(u) - log zeta_Q(u) at every entry of the
    1-d array u (Re u >= 2), with a bound on the error of each entry.

    zeta = A/(u-1) with error err_A/|u-1|, A and its error (truncation and
    rounding) from one array call of the Euler-Maclaurin engine.  Re u >= 2
    keeps |log zeta(u)| <= log zeta(2) < pi, so the principal log is the
    prime sum, and |zeta(u)| >= zeta(4)/zeta(2).  The same holds for
    log zeta_Q(u) = -Log prod_{p<=Q} (1 - p^(-u)) over any set of primes, so
    it takes one principal log of the product per entry and chunk of primes
    (_log_zeta_head) in place of one per prime."""
    primes = sieve_primes(Q)
    a_u, a_err = zeta_engine._euler_maclaurin(u)
    zeta_u = a_u / (u - 1.0)
    head = _chunked_piece_sum(_log_zeta_head, primes, u)
    # rounding of the head: z = p^(-u) carries a relative error below
    # (2|u| log p + 3) eps and moves the product by |z|/|1 - z| <= 4|z|/3
    # times that, with sum_p p^(-2) < 0.46 and sum_p p^(-2) log p < 0.5.  A
    # merge of a, b covering the primes S adds below
    # (|a| + |b|)(2 + 3.3 max(|a|, |b|)) eps/2 to d, where
    # |d_S| <= e^(sum_S |z|) - 1 and |1 - d_S| >= 1/zeta(2): below 2 eps of
    # the product per level of merges.  1 - d, its log (|log| < 1/2) and the
    # sum over chunks add 3 eps per chunk; log zeta(u) and the difference 2 eps.
    # Dividing A by u-1 adds below 8 eps of |zeta(u)|.
    depth = math.ceil(math.log2(max(1, min(len(primes), _PRIME_CHUNK))))
    chunks = -(-len(primes) // _PRIME_CHUNK)
    rounding = _EPS * (4.0 / 3.0 * (np.abs(u) + 1.4) + 2.0 * depth + 3.0 * chunks + 2.0)
    zeta_err = a_err / np.abs(u - 1.0) + 8.0 * _EPS * np.abs(zeta_u)
    return np.log(zeta_u) - head, zeta_err / (np.abs(zeta_u) - zeta_err) + rounding


def _h_tail_trunc(alpha: complex, k: int, sigma: float, Q: int) -> float:
    """Certified truncation of the prime-zeta h tail above Q at Re(s) >= sigma:
    the series terms m > 8 and the Moebius terms j > 8/m dropped
    (h_tail_log_values); inf where the series does not certify, returned
    before any alpha^m is formed, so a huge |alpha| cannot overflow here."""
    bound = _series_trunc_bound(alpha, -alpha, k, sigma, Q)
    if math.isinf(bound):
        return bound
    for m in range(2, _SERIES_TERMS + 1):
        last = _SERIES_TERMS // m
        # dropped j > last: |sum| <= sum_{p>Q} sum_{n>last} p^(-n m sigma)
        drop = _prime_sum_bound((last + 1) * m * sigma, Q) / (1.0 - Q ** (-m * sigma))
        bound += abs(_series_coeff(alpha, -alpha, k, m)) * drop
    return bound


def _h_floor(alpha: complex, k: int) -> int:
    """The split point Q of h between exact piece logs and the prime-zeta tail:
    the smallest power of two in [64, 1024] whose tail truncation, certified
    on the 1-line, is <= _SERIES_MAX_TRUNC; 1024 where none is."""
    for Q in (64, 128, 256, 512):
        if _h_tail_trunc(complex(alpha), k, 1.0, Q) <= _SERIES_MAX_TRUNC:
            return Q
    return _SERIES_FLOOR


def h_tail_log_values(alpha: complex, k: int, s_nodes, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{p > Q} log h_p at every node through the prime zeta function, and
    a certified bound on its error at every node.

    With e_m the factor-log coefficients at beta = -alpha (_series_coeff), the tail is
    sum_{m>=2} e_m P_{>Q}(m s), and the prime zeta function is
    P_{>Q}(w) = sum_j mu(j)/j log zeta_{>Q}(j w).  The pairs m j <= 8 are
    kept, so the tail needs log zeta_{>Q}(n s) for n = 2..8 only, and only
    where its weight is not 0 (Ettahri, Ramare and Surel, Math. Comp. 2021;
    H. Cohen, 1998), each with one log of the product over p <= Q
    (_log_zeta_above).  The bound covers the truncation (_h_tail_trunc),
    zeta's error estimates and the rounding of the p <= Q subtraction, each
    weighted by sum |e_m|/j.  Needs Re(s) >= 1; raises
    ToleranceUnachievable where max(1,|alpha|)/Q^Re(s) > 1/2, since the
    series does not certify there.
    """
    alpha = complex(alpha)
    s_nodes = np.atleast_1d(np.asarray(s_nodes, dtype=np.complex128))
    sigma = float(np.min(s_nodes.real))
    if sigma < 1.0:
        raise DomainError("the prime-zeta h tail needs Re(s) >= 1")
    bound = _h_tail_trunc(alpha, k, sigma, Q)
    if math.isinf(bound):
        raise ToleranceUnachievable(
            f"|alpha| = {abs(alpha):.3g} is too large for the h series above p = {Q}"
        )
    n_max = _SERIES_TERMS
    weights = np.zeros(n_max + 1, dtype=np.complex128)  # of log zeta_{>Q}(n s)
    abs_weights = np.zeros(n_max + 1)
    for m in range(2, n_max + 1):
        e = _series_coeff(alpha, -alpha, k, m)
        for j in range(1, n_max // m + 1):
            if _MOBIUS[j]:
                weights[m * j] += e * _MOBIUS[j] / j
                abs_weights[m * j] += abs(e) / j
    # a row of weight 0 would add only +-0; real integer alpha has such rows
    ns = np.flatnonzero(abs_weights)
    if not len(ns):
        return np.zeros(len(s_nodes), dtype=np.complex128), np.full(len(s_nodes), bound)
    logs, errs = _log_zeta_above(np.outer(ns, s_nodes).ravel(), Q)
    logs = logs.reshape(len(ns), -1)
    errs = errs.reshape(len(ns), -1)
    # sums over n per node, not matrix products, whose bits may depend on the batch
    bound += sum(w * row for w, row in zip(abs_weights[ns], errs))
    return sum(w * row for w, row in zip(weights[ns], logs)), bound


def h_infinite_log_values(alpha: complex, k: int, s_nodes, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """log h_{alpha,k} = sum over all p of log h_p at every node, and per node
    a bound on its error: exact piece logs for p <= Q, the smallest certified
    floor <= 1024 (_h_floor), plus the prime-zeta tail above
    (h_tail_log_values), so no prime past Q is sieved.  Raises
    ToleranceUnachievable where the tail's certified bound exceeds tol, and
    passes on the tail's refusals (Re(s) < 1, |alpha| too large)."""
    primes = sieve_primes(_h_floor(alpha, k))
    head, head_err = h_log_values(alpha, k, s_nodes, primes)
    tail, tail_err = h_tail_log_values(alpha, k, s_nodes, primes.bound)
    worst = float(np.max(tail_err))
    if worst > tol:
        raise ToleranceUnachievable(f"h tail bound {worst:.2e} > tol {tol:.2e}")
    return head + tail, head_err + tail_err


def h_infinite(alpha: complex, k: int, s: complex, tol: float) -> ProductValue:
    """h_{alpha,k}(s) = prod over all p, at one point (h_infinite_log_values).
    Needs Re(s) >= 1 (the 1-line is the use case).

    tail_bound carries the tail's certified bound; ToleranceUnachievable is
    raised when that bound exceeds tol or the tail series does not certify
    (|alpha| too large), and DomainError where Re(s) < 1 or an Euler factor
    may overflow.  Refuses a non-finite alpha and a k that is not an integer
    >= 2 with ValueError (params.check_alpha_k)."""
    return _point(*h_infinite_log_values(check_alpha_k(alpha, k), k, complex(s), tol))


@dataclass(frozen=True)
class Lemma1Report:
    """Measured agreement of h_{alpha,k,N} with its infinite-product limit."""

    alpha: complex
    k: int
    n_values: tuple
    max_errors: tuple  # max over the tau grid of |h_N/h - 1|, per N
    decay_ratios: tuple  # max_errors[i] / max_errors[i+1]
    expected_ratios: tuple  # (N_{i+1} log N_{i+1}) / (N_i log N_i)
    tail_bound: float  # certified bound of the prime-zeta tail, in log(h_N/h), max over N and tau


def lemma1_check(alpha: complex, k: int, N_values, tau_grid) -> Lemma1Report:
    """Measure max_tau |h_{alpha,k,N}(1+i tau)/h_{alpha,k}(1+i tau) - 1| per N
    and the decay ratio between consecutive N (the 1/(N log N) scaling).

    h_N/h - 1 = expm1(-tail_{>N}), with tail_{>N} = sum_{p>N} log h_p the
    prime-zeta tail above Q = N (h_tail_log_values), so no prime past max N
    is sieved.  Raises ToleranceUnachievable when the error that the tail's
    certified bound allows in h_N/h - 1 exceeds 1% of its measured max, or
    when |alpha| is too large for the tail series.  Refuses with ValueError
    a non-finite alpha, a k that is not an integer >= 2
    (params.check_alpha_k), an N below 100 and an empty tau grid."""
    alpha = check_alpha_k(alpha, k)
    n_values = tuple(int(n) for n in N_values)
    if any(n < 100 for n in n_values):
        raise ValueError("every N must be >= 100")
    taus = np.asarray(list(tau_grid), dtype=np.float64)
    if taus.size == 0:
        raise ValueError("the tau grid is empty")
    errs, tail_bound = [], 0.0
    for n in n_values:
        if alpha == 0:  # every h_p is 1
            errs.append(0.0)
            continue
        tail, bound = h_tail_log_values(alpha, k, 1.0 + 1j * taus, n)
        err = float(np.max(np.abs(np.expm1(-tail))))
        # a log error d moves h_N/h - 1 by at most |h_N/h| expm1(d)
        with np.errstate(over="ignore"):
            spread = np.max(np.abs(np.exp(-tail)) * np.expm1(bound))
        if not spread <= 0.01 * err:
            raise ToleranceUnachievable(
                f"lemma1 at N = {n}: certified error {spread:.2e} exceeds 1% of "
                f"the measured max |h_N/h - 1| = {err:.2e}"
            )
        errs.append(err)
        tail_bound = max(tail_bound, float(np.max(bound)))
    errs = tuple(errs)
    ratios = tuple(
        errs[i] / errs[i + 1] if errs[i + 1] > 0 else math.inf
        for i in range(len(errs) - 1)
    )
    expected = tuple(
        (n_values[i + 1] * math.log(n_values[i + 1]))
        / (n_values[i] * math.log(n_values[i]))
        for i in range(len(n_values) - 1)
    )
    return Lemma1Report(alpha, k, n_values, errs, ratios, expected, tail_bound)
