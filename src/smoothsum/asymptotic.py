"""Test functions and the three views of the smooth k-free sum.

The target sum S(alpha, k; N) = sum f(log n / log N) alpha^Omega(n) / n over
k-free N-smooth n equals, exactly (the sum is finite, the transform pair is
the convention f(t) = int fhat(x) e^{-ixt} dx),

    int fhat(x) g_{alpha,k,N}(1 + ix/log N) dx,

whose integrand is entire (g is a finite Euler product), so one
trapezoidal sum over the real line evaluates it with a certified error
(exact_integral); and asymptotically C_f(alpha,k;N) (log N)^alpha with

    C_f = int_{|x|<=3 log N} fhat(x) rhohat(ix)^alpha
          [ (s-1) zeta(s) ]^alpha  h_{alpha,k}(s) dx,     s = 1 + ix/log N.

The zeta^alpha (ix/log N)^alpha grouping is evaluated as A(x)^alpha with
A = (s-1) zeta(s): both A and rhohat are nonvanishing on the contour, and
each complex power is exp(alpha log) with the log continuous from the
real-positive anchors A(0) = 1 and rhohat(0) = e^gamma.  log rhohat(ix) is
the closed form gamma - Ein(ix) (dickman.log_rho_hat_ix); log A, like h, is
sampled once on |x/log N| <= 3 (_h_contour), where |arg A| < pi/2 makes its
principal log the continuous one (checked).  The integer-power route through
rho_hat and A at each node cross-checks the powers.  Both routes' integrands
return a bound on their error at every node, which the rule integrates into tail_bound.
(log N)^alpha always means exp(alpha log log N), the real-positive branch.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dickman, zeta_engine
from .errors import EtaTooSmall, PrecisionLoss, ToleranceUnachievable, UnwrapError
from .euler_products import (
    g_abs_bound,
    g_abs_log_bound,
    g_values,
    h_infinite_log_values,
    h_log_values,
    zeta_partial_values,
)
from .euler_products import h_cutoff  # noqa: F401 -- perfbench/layers.py patches this binding
from .params import SumParams
from .quadrature import SEED_GAP, QuadResult, integrate_adaptive
from .arith_core import EXP_LOG_ERR, UNIT, sieve_primes, split_sum


@dataclass(frozen=True)
class TestFunction:
    """A pair (f, fhat) under f(t) = int fhat(x) e^{-ixt} dx, with a certified
    decay exponent eta for fhat and a window [-X, X] holding all but
    `fhat_tail_bound` of the mass of |fhat|.  A transform |fhat| that
    decreases in |x| and is entire carries `log_strip_bound`, a -> log S_f(a)
    with S_f(a) >= sup_{|y| <= a} int |fhat(x + iy)| dx; the exact route
    needs it.  `eval_rounding` (t_max, dt) -> a bound on |eval_f(t')/f(t) - 1|
    over 0 <= t <= t_max and |t' - t| <= dt, for the oracle's certificate."""

    eval_f: object
    eval_fhat: object
    eta: float
    fhat_cutoff: float
    fhat_tail_bound: float
    sup_tail: object  # u -> sup_{u' > u} |f(u')|
    default_u_cutoff: float
    log_strip_bound: object
    eval_rounding: object


def _erfc_threshold(target: float) -> float:
    lo, hi = 1.0, 14.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def make_gaussian(mu: float, sigma: float, eta: float = 6.0) -> TestFunction:
    """f(t) = exp(-(t-mu)^2 / (2 sigma^2)), whose transform under the module
    convention is fhat(x) = sigma/sqrt(2 pi) exp(-sigma^2 x^2 / 2) e^{i mu x}.

    Decay is super-polynomial, so any requested eta is certified; the window
    cutoff puts the |fhat| tail below 1e-14 (closed form erfc).  On the line
    Im x = y, int |fhat(x + iy)| dx = exp(sigma^2 y^2 / 2 - mu y), so the
    strip bound is log S_f(a) = sigma^2 a^2 / 2 + |mu| a.  The default u
    cutoff mu + sigma sqrt(60), where the envelope is e^-30, is clamped at 0:
    for mu < -sigma sqrt(60) the envelope on u >= 0 is below e^-30 already.
    """
    mu, sigma, eta = float(mu), float(sigma), float(eta)
    if not all(map(math.isfinite, (mu, sigma, eta))):
        raise ValueError("mu, sigma and eta must be finite")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    q = _erfc_threshold(1e-14)
    x_max = q * math.sqrt(2.0) / sigma
    tail = math.erfc(sigma * x_max / math.sqrt(2.0))
    c = sigma / math.sqrt(2.0 * math.pi)
    s2 = sigma * sigma  # inf past the double range, where sigma**2 would raise

    def f(t):
        y = np.array(t, dtype=np.float64)  # a copy, worked on in place
        y -= mu
        y *= y
        y /= -2.0 * s2
        return np.exp(y, out=y)

    def rounding(t_max, dt):
        # f rounds t' - mu, its square and the quotient: with d >= |t' - mu| the
        # exponent is off by below d (delta + 3u d)/sigma^2, delta = dt + u d
        d = max(abs(mu), abs(t_max - mu)) + dt
        e = d * (dt + 4.0 * UNIT * d) / s2
        return np.expm1(e + EXP_LOG_ERR)

    def fhat(x):
        x = np.asarray(x, dtype=np.float64)
        return c * np.exp(-0.5 * s2 * x**2) * np.exp(1j * mu * x)

    def sup_tail(u):
        if u <= mu:
            return 1.0
        r = (u - mu) / sigma
        if r >= 40.0:  # e^-800 underflows to 0.0
            return 0.0
        d2 = (u - mu) * (u - mu)
        if math.isinf(d2) or s2 == 0.0:  # a square past the double range
            return math.exp(-0.5 * r * r)
        return math.exp(-d2 / (2.0 * s2))

    return TestFunction(
        eval_f=f,
        eval_fhat=fhat,
        eta=eta,
        fhat_cutoff=x_max,
        fhat_tail_bound=tail,
        sup_tail=sup_tail,
        default_u_cutoff=max(0.0, mu + sigma * math.sqrt(60.0)),
        log_strip_bound=lambda a: 0.5 * s2 * a**2 + abs(mu) * a,
        eval_rounding=rounding,
    )


def make_test_constant() -> TestFunction:
    """f == 1: no transform, no decay -- usable only by the brute-force oracle,
    where it makes the full sum a closed-form Euler product."""
    return TestFunction(
        eval_f=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        eval_fhat=None,
        eta=0.0,
        fhat_cutoff=math.inf,
        fhat_tail_bound=math.inf,
        sup_tail=lambda u: 0.0 if math.isinf(u) else 1.0,
        default_u_cutoff=math.inf,
        log_strip_bound=None,
        eval_rounding=lambda t_max, dt: 0.0,
    )


def _check_f_and_tol(f: TestFunction, tol: float) -> None:
    if f.eval_fhat is None:
        raise ValueError("this operation needs a test function with a transform")
    if not 0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")


def _g_integral(params: SumParams, f: TestFunction, lo: float, hi: float, tol: float) -> QuadResult:
    """int_lo^hi fhat(x) g(1 + ix/log N) dx to quadrature tolerance tol, by
    the adaptive rule: a finite window, where the trapezoidal rule is not
    spectral.  A node's error is |fhat g| expm1(log_err), log_err the
    per-node bound on the error in log g that g_values returns with it;
    tail_bound is their integral, and the caller adds any window tail."""
    primes = sieve_primes(params.N)
    log_n = params.log_n

    def integrand(xs):
        values, log_err = g_values(params, 1.0 + 1j * np.asarray(xs) / log_n, primes)
        y = f.eval_fhat(xs) * values
        return y, np.abs(y) * np.expm1(log_err)

    return integrate_adaptive(integrand, lo, hi, tol)[0]


# strip half-widths a the exact route tries, climbing from a = 3: for
# |alpha| <= 2 the best lies near 3 from N = 10^3 to 10^7; the wide ones
# serve alpha near 0
_STRIP_WIDTHS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 7.0, 10.0, 14.0)
_STRIP_START = 5
_MAX_NODES = 1 << 16  # trapezoidal nodes 2J + 1; exact-route calls take under 100


def _strip_rule(params: SumParams, f: TestFunction, budget: float) -> tuple[float, int, float]:
    """(h, J, bound) for the trapezoidal rule h sum_{|j| <= J} F(jh) of
    F(x) = fhat(x) g(1 + ix/log N), bound >= its error when J is infinite.

    g is a finite Euler product, entire in s, with |g| <= G(1 - a/log N) on
    the strip |Im x| <= a (g_abs_log_bound), so int |F(x + iy)| dx <= M =
    S_f(a) G(1 - a/log N) there and the rule is off by at most
    2M/(e^{2 pi a/h} - 1) (Trefethen and Weideman, SIAM Review 56, 2014,
    Thm 5.1).  Budget is met up to h = 2 pi a / log(1 + 2M/budget), which
    is unimodal in a because log M is convex in a (log G sums logs of sums
    of exponentials affine in a; the Gaussian's log S_f is a quadratic), so
    a climb over _STRIP_WIDTHS finds the width of the set with the largest
    h, one pass over the primes per width tried.  Then h = X/n with
    n = ceil(X/h), X = fhat_cutoff, and J = n + 1, so every dropped node
    lies beyond X + h.  M stays in logs, so it never overflows.  Raises
    ToleranceUnachievable where 2J + 1 would exceed _MAX_NODES."""
    log_n, log_q = params.log_n, math.log(2.0 / budget)

    def reach(i):
        a = _STRIP_WIDTHS[i]
        log_m = f.log_strip_bound(a) + g_abs_log_bound(params, 1.0 - a / log_n)
        return 2.0 * math.pi * a / float(np.logaddexp(0.0, log_q + log_m)), a, log_m

    i, best = _STRIP_START, reach(_STRIP_START)
    for step in (1, -1):
        while 0 <= i + step < len(_STRIP_WIDTHS) and (trial := reach(i + step))[0] > best[0]:
            i, best = i + step, trial
    h_max, a, log_m = best
    if not h_max > 0.0:
        raise ToleranceUnachievable("|g| overflows on every strip the exact route tries")
    n = math.ceil(min(f.fhat_cutoff / h_max, _MAX_NODES))
    if 2 * n + 3 > _MAX_NODES:
        raise ToleranceUnachievable(f"the trapezoidal rule needs over {_MAX_NODES} nodes")
    h = f.fhat_cutoff / n
    c = 2.0 * math.pi * a / h
    return h, n + 1, math.exp(math.log(2.0) + log_m - c - math.log(-math.expm1(-c)))


def _trapezoid(params: SumParams, f: TestFunction, h: float, J: int) -> tuple[complex, float]:
    """h sum_{|j| <= J} fhat(jh) g(1 + ijh/log N), from one g_values call,
    and a bound on its distance from the same sum of exact terms: each
    node's |fhat g| expm1(log_err), the rounding of the sum (split_sum), and
    one rounding each for adding its head and residual and scaling by h."""
    xs = h * np.arange(-J, J + 1)
    values, log_err = g_values(params, 1.0 + 1j * xs / params.log_n, sieve_primes(params.N))
    y = f.eval_fhat(xs) * values
    head, residual, rounding = split_sum(y)
    value = h * (head + residual)
    node_err = float(np.sum(np.abs(y) * np.expm1(log_err)))
    return value, h * (node_err + rounding) + 3.0 * UNIT * abs(value)


def _check_ledger(res: QuadResult, tol: float) -> QuadResult:
    if not res.quad_error + res.tail_bound <= tol:
        raise ToleranceUnachievable(f"ledger {res.quad_error + res.tail_bound:.2e} > tol {tol:.2e}")
    return res


def exact_integral(
    params: SumParams,
    f: TestFunction,
    tol: float = 1e-7,
) -> QuadResult:
    """S(alpha,k;N) = int fhat(x) g(1 + ix/log N) dx as one trapezoidal sum
    over the real line, with 2J + 1 nodes.

    quad_error is the rule's Trefethen-Weideman bound (_strip_rule, held to
    tol/2), not an estimate.  tail_bound bounds the rest: the dropped nodes
    beyond the window [-X, X], at most the certified |fhat| mass outside it
    times G(1) >= |g|; each node's |fhat g| expm1 of the bound on the error
    in log g that the Euler-product kernel returns with g_values (the
    truncation of the factor-log series above p = 1024, and the
    interpolation and rounding of its Chebyshev moments); and the rounding
    of the sum.  Raises ToleranceUnachievable when quad_error + tail_bound
    exceeds tol.
    """
    _check_f_and_tol(f, tol)
    h, J, quad_error = _strip_rule(params, f, 0.5 * tol)
    value, node_err = _trapezoid(params, f, h, J)
    tail = f.fhat_tail_bound * g_abs_bound(params) + node_err
    return _check_ledger(QuadResult(value, quad_error, tail, 2 * J + 1), tol)


# --- main-term machinery ----------------------------------------------------

_H_MAX_DEGREE = 512
MAIN_TERM_MIN_N = 20


def _barycentric_row(t, points) -> np.ndarray:
    """Each t's Lagrange basis row on the Chebyshev extreme points, by the second
    barycentric form (Berrut and Trefethen, SIAM Review 46, 2004); a t on a point
    gets its unit row.  Rows are summed one by one: no bit depends on the batch."""
    weights = np.where(np.arange(len(points)) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    diff = np.asarray(t, dtype=np.float64)[:, None] - points
    with np.errstate(divide="ignore", invalid="ignore"):
        row = weights / diff
        total = row.sum(axis=1)  # infinite only where t is on a point
        row /= total[:, None]
    on_point = ~np.isfinite(total)
    row[on_point] = diff[on_point] == 0.0
    return row


def _cheb_trunc(values, deg: int) -> tuple[float, float]:
    """(E, 2 E r/(1 - r)) of the interpolant through values at the Chebyshev extreme
    points, E its last coefficients' size (one FFT of the even extension: a DCT-I)."""
    coeffs = np.fft.fft(np.concatenate((values, values[-2:0:-1])))[: deg + 1] / deg
    coeffs[[0, deg]] *= 0.5
    # the interpolant is off by at most 2 sum_{j>n} |a_j| (ATAP Thm 4.2), and
    # analytic coefficients decay like r^j (Thm 8.1): r is read off their
    # envelope from n/2 to n, at most 1 - 1/n where it sits at rounding
    tail = float(np.max(np.abs(coeffs[-4:])))
    mid = float(np.max(np.abs(coeffs[deg // 2 - 3 : deg // 2 + 1])))
    r = min((tail / max(mid, tail, 1e-300)) ** (2.0 / deg), 1.0 - 1.0 / deg)
    return tail, 2.0 * tail * r / (1.0 - r)


@lru_cache(maxsize=64)
def _h_contour(alpha: complex, k: int, variant_N: int, h_tol: float):
    """Chebyshev models of h(1 + i tau) and log A(1 + i tau) on |tau| <= 3.

    The main-term contour is s = 1 + ix/log N with |x| <= 3 log N, i.e.
    always the segment |tau| <= 3 of the 1-line, so one model serves every
    N.  variant_N = 0 selects the infinite product
    (euler_products.h_infinite_log_values), which raises
    ToleranceUnachievable when the tail's certified bound exceeds h_tol;
    variant_N = N > 0 selects h_{alpha,k,N}, a walk over every p <= N.

    Both are sampled at the Chebyshev extreme points t_j = cos(pi j/n), A by one
    Euler-Maclaurin batch; the points nest, so doubling n samples only the n new
    ones.  A degree is accepted at h's truncation estimate <= h_tol/2 (absolute);
    log A, the principal log (UnwrapError where |arg A| >= pi/2 at a sample), is
    at rounding from n = 64.  Returns the t_j, both samples and both uniform errors.
    """

    def sample(ts):
        s_nodes = 1.0 + 3.0j * ts
        a, a_err = zeta_engine._euler_maclaurin(s_nodes)
        log_a = np.log(a)
        if np.any(np.abs(log_a.imag) >= 0.5 * math.pi):
            raise UnwrapError("|arg A| reaches pi/2 on |tau| <= 3")
        if variant_N > 0:
            logs, log_err = h_log_values(alpha, k, s_nodes, sieve_primes(variant_N))
        else:
            logs, log_err = h_infinite_log_values(alpha, k, s_nodes, h_tol)
        # A = a (1 + v) moves log A by <= -log(1 - |v|); the log rounds within this
        a_log_err = EXP_LOG_ERR * (1.0 + np.abs(log_a)) - np.log1p(-np.minimum(a_err / np.abs(a), 1.0))
        return ts, np.exp(logs), log_err, log_a, a_log_err

    deg = 64
    samples = sample(np.cos(np.pi / deg * np.arange(deg + 1)))
    while True:
        points, h, log_err, log_a, a_log_err = samples
        tail, trunc = _cheb_trunc(h, deg)
        if max(tail, trunc) <= 0.5 * h_tol:
            # sample errors reach a model through its Lebesgue constant L, and its
            # row rounds within (6n + 6) u L max|sample| (Higham, IMA JNA 24, 2004)
            lebesgue = 2.0 / math.pi * math.log(deg + 1) + 1.0
            rounding = (6 * deg + 6) * UNIT * lebesgue
            h_unc = trunc + float(np.max(np.abs(h))) * (lebesgue * math.expm1(np.max(log_err)) + rounding)
            delta = _cheb_trunc(log_a, deg)[1] + lebesgue * float(np.max(a_log_err))
            return points, h, log_a, h_unc, delta + float(np.max(np.abs(log_a))) * rounding
        if 2 * deg > _H_MAX_DEGREE:
            raise ToleranceUnachievable(
                f"h contour interpolation did not reach tol {h_tol:.1e} at degree "
                f"{_H_MAX_DEGREE}"
            )
        odd = sample(np.cos(np.pi / (2 * deg) * np.arange(1, 2 * deg, 2)))
        samples = tuple(np.insert(v, np.arange(1, deg + 1), w) for v, w in zip(samples, odd))
        deg *= 2


def main_term(
    params: SumParams,
    f: TestFunction,
    tol: float = 1e-7,
    use_integer_powers: bool = False,
    h_variant: str = "infinite",
) -> QuadResult:
    """C_f(alpha,k;N): the restricted integral whose (log N)^alpha multiple is
    the dominant behaviour of the sum.

    Requires eta > max(1, 1 - Re alpha), N >= MAIN_TERM_MIN_N and tol in
    (0, 1e-3].  With use_integer_powers=True (integer alpha only) the power
    factors are evaluated by plain repeated multiplication of rho_hat and A
    values instead of exp(alpha log) -- the cross-route oracle for the
    branch convention.  h_variant="finite" substitutes h_{alpha,k,N}, which
    the error-decomposition report uses to measure the h_N -> h substitution
    step.  The h model targets tol/10 for its uniform error h_unc (the ledger
    multiplies h_unc by int |fhat P|), and the quadrature tol/2.

    quad_error is the G7/K15 Gauss-Kronrod difference of the window integral,
    an estimate rather than a bound.  tail_bound integrates each node's
    error |fhat P| (h_unc + c (|h| + h_unc)), with P = rhohat^alpha A^alpha,
    h_unc the h model's uniform error and c = expm1(|alpha| delta), delta
    the log A model's (the integer route takes A's relative error r at each
    node, c = expm1(-|alpha| log(1 - r))).  Raises ToleranceUnachievable
    when quad_error + tail_bound exceeds tol or fhat's window [-X, X] is
    narrower than 3 x1, x1 the seed node nearest 0, and UnwrapError where
    |arg A| >= pi/2 at a sample of the log A model.
    """
    _check_f_and_tol(f, tol)
    alpha, k = params.alpha, params.k
    if f.eta <= max(1.0, 1.0 - alpha.real):
        raise EtaTooSmall(
            f"need eta > max(1, 1-Re alpha) = {max(1.0, 1.0 - alpha.real):g}, "
            f"got {f.eta:g}"
        )
    if params.N < MAIN_TERM_MIN_N:
        raise ValueError(f"main_term needs N >= {MAIN_TERM_MIN_N}")
    if h_variant not in ("infinite", "finite"):
        raise ValueError("h_variant must be 'infinite' or 'finite'")
    if use_integer_powers:
        m = round(alpha.real)
        if abs(alpha - m) > 1e-12:
            raise ValueError("use_integer_powers needs integer alpha")
    log_n = params.log_n
    half = 3.0 * log_n
    # a spike at 0 reaches the seed estimates only through the nodes +-x1 nearest 0
    if not f.fhat_cutoff >= 3.0 * half * SEED_GAP:
        raise ToleranceUnachievable(f"fhat's window is narrower than {3.0 * half * SEED_GAP:.2e}")
    variant_N = params.N if h_variant == "finite" else 0
    points, h_vals, log_a_vals, h_unc, delta = _h_contour(alpha, k, variant_N, tol / 10.0)
    models = np.stack((h_vals.real, h_vals.imag, log_a_vals.real, log_a_vals.imag))

    def integrand(xs):
        xs = np.asarray(xs, dtype=np.float64)
        # einsum's own loop, unlike a BLAS product, gives a row the same bits in any batch
        h_re, h_im, a_re, a_im = np.einsum("ij,kj->ki", _barycentric_row(xs / half, points), models)
        h = h_re + 1j * h_im
        if use_integer_powers:
            a, a_err = zeta_engine._euler_maclaurin(1.0 + 1j * xs / log_n)
            rv = np.array([dickman.rho_hat(float(x)).value for x in xs])
            powers = rv**m * a**m
            # A = a (1 + v), |v| <= r, moves A^alpha by a factor within 1 + this
            grow = np.expm1(-abs(alpha) * np.log1p(-a_err / np.abs(a)))
        else:
            powers = np.exp(alpha * (dickman.log_rho_hat_ix(xs) + (a_re + 1j * a_im)))
            grow = math.expm1(abs(alpha) * delta)  # |log A - its model| <= delta
        fp = f.eval_fhat(xs) * powers
        return fp * h, np.abs(fp) * (h_unc + grow * (np.abs(h) + h_unc))

    res, _ = integrate_adaptive(integrand, -half, half, 0.5 * tol)
    return _check_ledger(res, tol)


def log_n_power(alpha: complex, N: int) -> complex:
    """(log N)^alpha := exp(alpha log log N), the real-positive branch."""
    return complex(np.exp(alpha * math.log(math.log(N))))


@dataclass(frozen=True)
class Theorem2Row:
    params: SumParams
    s_exact: complex
    c_f: complex
    log_n_pow: complex
    e_measured: float
    envelope: float
    s_ledger: float  # S's quad_error + tail_bound
    c_ledger: float  # C_f's quad_error + tail_bound


def predicted_envelope(alpha: complex, eta: float, N: int) -> float:
    """The error-term shape (log N)^{1-eta}, times (log log N)^{2 Re alpha/3}
    when Re alpha >= 0."""
    ln = math.log(N)
    shape = ln ** (1.0 - eta)
    if alpha.real >= 0:
        shape *= max(math.log(ln), 1.0) ** (2.0 * alpha.real / 3.0)
    return shape


def theorem2_report(params_list, f: TestFunction, tol: float = 1e-6) -> list:
    """For each (alpha,k,N): the exact integral S, the main term
    C_f (log N)^alpha, and the measured relative error E = S/M - 1 next to
    its predicted envelope shape; each row carries the ledgers of S and C_f."""
    rows = []
    for params in params_list:
        s_res = exact_integral(params, f, tol)
        c_res = main_term(params, f, tol)
        pw = log_n_power(params.alpha, params.N)
        m = c_res.value * pw
        e = abs(s_res.value / m - 1.0) if m != 0 else math.inf
        rows.append(
            Theorem2Row(
                params,
                s_res.value,
                c_res.value,
                pw,
                e,
                predicted_envelope(params.alpha, f.eta, params.N),
                s_res.quad_error + s_res.tail_bound,
                c_res.quad_error + c_res.tail_bound,
            )
        )
    return rows


@dataclass(frozen=True)
class TenenbaumRow:
    N: int
    max_rel_err: float
    argmax_tau: float
    l_eps: float


def tenenbaum_check(N_values, tau_grid, eps: float = 0.1) -> list:
    """Per N, the worst relative error over the tau grid of

        zeta_N(1+i tau)  vs  zeta(s)(s-1) (log N) rhohat(i tau log N),

    together with L_eps(N) = exp((log N)^{3/5-eps}), the scale on which the
    factorization's error term shrinks.  Raises PrecisionLoss when A's error
    estimate relative to |A|, at any tau, exceeds a tenth of a row's
    measured error: the row would then not measure the factorization.
    Refuses with ValueError an N below 1000 and an eps outside (0, 3/5),
    the range that keeps L_eps's exponent 3/5 - eps in (0, 3/5)."""
    if not 0.0 < eps < 0.6:  # also refuses NaN
        raise ValueError("eps must lie in (0, 3/5)")
    taus = np.asarray(list(tau_grid), dtype=np.float64)
    s_nodes = 1.0 + 1j * taus
    regular, reg_err = zeta_engine._euler_maclaurin(s_nodes)
    reg_rel = reg_err / np.abs(regular)
    worst = int(np.argmax(reg_rel))
    rows = []
    for N in N_values:
        N = int(N)
        if N < 1000:
            raise ValueError("tenenbaum_check expects N >= 1000")
        log_n = math.log(N)
        lhs, _ = zeta_partial_values(sieve_primes(N), s_nodes)
        rho = np.exp(dickman.log_rho_hat_ix(taus * log_n))
        rel = np.abs(lhs / (regular * log_n * rho) - 1.0)
        j = int(np.argmax(rel))
        if not reg_rel[worst] <= 0.1 * rel[j]:
            raise PrecisionLoss(
                f"A relative error estimate {reg_rel[worst]:.1e} at tau = {taus[worst]:g} "
                f"exceeds a tenth of the measured {rel[j]:.1e} at N = {N}"
            )
        l_eps = math.exp(log_n ** (0.6 - eps))
        rows.append(TenenbaumRow(N, float(rel[j]), float(taus[j]), l_eps))
    return rows


@dataclass(frozen=True)
class ErrorDecomposition:
    """Measured window residual I2 and h_N -> h substitution error E2, each
    next to the predicted decay shape (ratios, not absolute constants)."""

    params: SumParams
    i2_abs: float
    i2_shape: float
    i2_ratio: float
    e2_abs: float
    e2_shape: float
    e2_ratio: float


def error_decomposition(
    params: SumParams, f: TestFunction, tol: float = 1e-8
) -> ErrorDecomposition:
    """Measure both residuals of the exact integral split at |x| = 3 log N.

    I2 is the mass outside the window, integrated over 3 log N < |x| <= X
    (0 where the fhat window [-X, X] ends first), not the difference of the
    full and window integrals, which would carry both their errors.  E2 is
    the effect of replacing h_{alpha,k,N} by h_{alpha,k} inside the main
    term (the step lemma1_check measures), reported against
    (log N)^{Re alpha - 1} / N.
    """
    _check_f_and_tol(f, tol)
    log_n = params.log_n
    w, x_max = 3.0 * log_n, f.fhat_cutoff
    i2 = 0.0
    if w < x_max:
        sides = ((-x_max, -w), (w, x_max))
        i2 = abs(sum(_g_integral(params, f, lo, hi, 0.25 * tol).value for lo, hi in sides))
    i2_shape = predicted_envelope(params.alpha, f.eta, params.N)

    # E2 itself is ~ (log N)^{Re a - 1} / N; 1e-7 main terms resolve it amply
    c_inf = main_term(params, f, max(tol, 1e-7))
    c_fin = main_term(params, f, max(tol, 1e-7), h_variant="finite")
    e2 = abs(log_n_power(params.alpha, params.N)) * abs(c_fin.value - c_inf.value)
    e2_shape = log_n ** (params.alpha.real - 1.0) / params.N
    return ErrorDecomposition(
        params,
        i2,
        i2_shape,
        i2 / i2_shape if i2_shape > 0 else math.inf,
        e2,
        e2_shape,
        e2 / e2_shape if e2_shape > 0 else math.inf,
    )
