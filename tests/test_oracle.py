import cmath
import dataclasses
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from smoothsum import (
    DomainError,
    SumParams,
    brute_S,
    g_product,
    make_gaussian,
    make_test_constant,
    sieve_primes,
)
from smoothsum.arith_core import enumerate_kfree_smooth


@pytest.fixture(scope="module")
def f_const():
    return make_test_constant()


@pytest.fixture(scope="module")
def f_gauss():
    return make_gaussian(1, 0.4)


def test_alpha_zero_single_term(f_const):
    # the one term f(0) is a rounded evaluation: its certificate covers a
    # 40-digit exp(-mu^2 / (2 sigma^2)), sigma the double the Gaussian gets
    p = SumParams(0, 2, 1000)
    for mu, sigma in itertools.product((-3.0, -0.5, 1.0, 2.0), (0.1, 0.4, 0.7, 3.0)):
        f = make_gaussian(mu, sigma)
        r = brute_S(p, f)
        assert r.terms_used == 1
        assert r.value == complex(np.complex128(f.eval_f(0.0)))
        with mpmath.workdps(40):
            ref = mpmath.exp(-mpmath.mpf(mu) ** 2 / (2 * mpmath.mpf(sigma) ** 2))
            assert abs(r.value.real - ref) <= r.tail_certificate
        assert r.tail_certificate > 0
    r = brute_S(p, f_const)
    assert (r.value, r.tail_certificate) == (1.0, 0.0)


def test_full_sum_equals_product(f_const):
    cases = [
        (1, 2, 10, 576 / 210),
        (2, 2, 3, 10 / 3),
        (1, 3, 10, None),
        (0.5 + 0.5j, 3, 30, None),
        (-1, 2, 61, None),
    ]
    for alpha, k, N, closed in cases:
        p = SumParams(alpha, k, N)
        r = brute_S(p, f_const, math.inf)
        g = g_product(p, 1.0).value
        assert abs(r.value - g) <= 1e-12 * abs(g)
        if closed is not None:
            assert r.value.real == pytest.approx(closed, rel=1e-13)


def test_term_counts(f_const):
    assert brute_S(SumParams(1, 2, 10), f_const, math.inf).terms_used == 16
    assert brute_S(SumParams(2, 2, 3), f_const, math.inf).terms_used == 4
    assert brute_S(SumParams(1, 3, 30), f_const, math.inf).terms_used == 3**10


def test_conjugation_symmetry(f_gauss):
    a = brute_S(SumParams(0.6 + 0.8j, 3, 30), f_gauss)
    b = brute_S(SumParams(0.6 - 0.8j, 3, 30), f_gauss)
    assert b.value == pytest.approx(a.value.conjugate(), rel=1e-14)


def test_monotone_refinement(f_gauss):
    p = SumParams(1, 2, 30)
    r1 = brute_S(p, f_gauss, 2.0)
    r2 = brute_S(p, f_gauss, 3.5)
    assert abs(r2.value - r1.value) <= r1.tail_certificate
    assert r2.tail_certificate < r1.tail_certificate


def test_u_cutoff_validation(f_gauss):
    # a NaN cutoff would keep no term but n = 1 and certify a NaN tail
    for cutoff in (math.nan, -1.0):
        with pytest.raises(ValueError):
            brute_S(SumParams(1, 2, 30), f_gauss, cutoff)


def test_default_cutoff_below_quad_noise(f_gauss):
    r = brute_S(SumParams(1, 2, 30), f_gauss)
    assert r.u_cutoff == pytest.approx(1 + 0.4 * math.sqrt(60.0))
    assert r.tail_certificate < 1e-11


def test_thread_counts_bitwise_identical(f_gauss):
    """brute_S is one sequential loop; any thread count but 1 is refused."""
    p = SumParams(0.5 + 0.5j, 3, 30)
    assert brute_S(p, f_gauss, threads=1).value == brute_S(p, f_gauss).value
    with pytest.raises(ValueError):
        brute_S(p, f_gauss, threads=2)



def _fsum_by_class(p, f, u_cutoff):
    """brute_S's value in its class form: each S_omega the exactly rounded
    sum of its real terms, then the exactly rounded sum of alpha^omega S_omega,
    alpha^omega by one complex multiply per step."""
    primes = sieve_primes(p.N)
    log_cap = u_cutoff * p.log_n
    classes = {}
    for log_n, omega in enumerate_kfree_smooth(primes, p.k, log_cap):
        terms = f.eval_f(log_n / p.log_n) * np.exp(-log_n)
        for w, t in zip(omega.tolist(), terms.tolist()):
            classes.setdefault(w, []).append(t)
    re, im, power = [], [], 1 + 0j
    for w in range(max(classes) + 1):
        s = math.fsum(classes[w])
        re.append(power.real * s)
        im.append(power.imag * s)
        power *= p.alpha
    return complex(math.fsum(re), math.fsum(im))


def test_sum_is_exactly_rounded(f_gauss):
    for alpha in (1, -1, 0.5 + 0.5j, 1.7 - 0.4j):
        for k, N in ((2, 30), (2, 60), (3, 30), (3, 45)):
            p = SumParams(alpha, k, N)
            r = brute_S(p, f_gauss)
            assert r.value == _fsum_by_class(p, f_gauss, r.u_cutoff), (alpha, k, N)


def test_full_sum_certificate_is_the_summation(f_const):
    # with no tail, the certificate is the rounding of forming and summing the terms
    r = brute_S(SumParams(0.5 + 0.5j, 3, 30), f_const, math.inf)
    assert 0.0 < r.tail_certificate < 1e-12


def test_class_products_are_covered(f_const):
    # against a 30-digit Euler product, the certificate of a sum with no
    # tail covers the rounding of alpha^omega and of alpha^omega S_omega, also
    # where large |alpha| or cancelling classes make it more than the last bit
    for alpha, k, N in ((6 + 2j, 3, 30), (3 - 3j, 3, 23), (-1.9, 2, 50)):
        r = brute_S(SumParams(alpha, k, N), f_const, math.inf)
        with mpmath.workdps(30):
            a = mpmath.mpc(alpha)
            ref = mpmath.fprod(
                mpmath.fsum((a / p) ** e for e in range(k)) for p in sieve_primes(N).primes.tolist()
            )
            gap = float(abs(mpmath.mpc(r.value) - ref))
        assert gap <= r.tail_certificate, (alpha, k, N, gap, r.tail_certificate)


def test_certificate_covers_forming_the_terms(f_const):
    """At large |alpha| the rounding in forming e^{-log n} dominates: the
    certificate holds at least sum_omega |alpha|^omega S_omega omega u max log n,
    from an enumeration of its own (5.4e-10 here; the summation's part alone
    is 3.1e-11)."""
    alpha, k, N = 6 + 2j, 3, 30
    primes = sieve_primes(N).primes.tolist()
    s_omega, log_max = [0.0] * (2 * len(primes) + 1), 0.0
    for exps in itertools.product(range(k), repeat=len(primes)):
        log_n = sum(e * math.log(p) for e, p in zip(exps, primes))
        s_omega[sum(exps)] += math.exp(-log_n)
        log_max = max(log_max, log_n)
    floor = sum(abs(alpha) ** w * s * w * 2.0**-53 * log_max for w, s in enumerate(s_omega))
    assert floor > 5e-10
    assert brute_S(SumParams(alpha, k, N), f_const, math.inf).tail_certificate >= floor


def test_negative_terms_are_certified_by_their_modulus(f_gauss):
    # sum |t| of -f's classes is -S_omega: -f certifies as f does
    minus = dataclasses.replace(f_gauss, eval_f=lambda t: -f_gauss.eval_f(t))
    p = SumParams(6 + 2j, 3, 30)
    expected = brute_S(p, f_gauss).tail_certificate
    assert brute_S(p, minus).tail_certificate == pytest.approx(expected, rel=1e-12)


def test_overflowing_power_of_an_empty_class(f_gauss):
    # alpha^20 overflows, but log n <= 0.5 log 30 keeps Omega(n) <= 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = brute_S(SumParams(1e16, 3, 30), f_gauss, 0.5)
    assert r.terms_used == 5
    assert cmath.isfinite(r.value) and math.isfinite(r.tail_certificate)


def test_out_of_range_raises_before_enumerating(f_gauss):
    p = SumParams(1e20, 3, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="past the double range"):
            brute_S(p, f_gauss)
        with pytest.raises(DomainError, match="not finite"):
            brute_S(p, f_gauss, math.inf)


def _squarefree_smooth(N, limit):
    """The squarefree N-smooth n <= limit, by trial division."""
    out = []
    for n in range(1, limit + 1):
        m = n
        for p in range(2, N + 1):
            if m % p == 0:
                m //= p
                if m % p == 0:
                    break
        else:
            if m == 1:
                out.append(n)
    return out


@pytest.mark.parametrize("N", [100, 101])
@pytest.mark.parametrize("sigma", [1e-150, 1e-170])
def test_tiny_sigma_certificate_is_finite_and_covers(N, sigma):
    # f's rounding bound divides by sigma^2 and is not finite here (at 1e-170
    # sigma^2 underflows to 0); each route to a certificate falls back on
    # |f| <= 1 per term.  Past n = 2N every 30-digit term is below e^-1e297
    f = make_gaussian(1, sigma)
    ns = _squarefree_smooth(N, 2 * N)
    with mpmath.workdps(30):
        s2 = mpmath.mpf(sigma) ** 2
        log_n = mpmath.log(N)
        fs = [mpmath.exp(-((mpmath.log(n) / log_n - 1) ** 2) / (2 * s2)) for n in ns]
        omegas = [len([p for p in sieve_primes(N).primes.tolist() if n % p == 0]) for n in ns]
        for alpha in (0, 1, 0.5 + 0.5j):
            r = brute_S(SumParams(alpha, 2, N), f)
            a = mpmath.mpc(alpha)
            ref = mpmath.fsum(fv * a**w / n for fv, w, n in zip(fs, omegas, ns))
            assert math.isfinite(r.tail_certificate) and r.tail_certificate >= 0, (alpha, r)
            assert abs(mpmath.mpc(r.value) - ref) <= r.tail_certificate, (alpha, r, ref)


def test_narrow_gaussian_cutoff_drops_the_tail():
    # sigma sqrt(60) is below half an ulp of mu = 1: the cutoff is the next
    # double, where the envelope is 0, so the certificate loses the envelope
    # term G(1) (about 5.1 here) and keeps the value
    f = make_gaussian(1, 1e-150)
    assert f.default_u_cutoff == math.nextafter(1.0, math.inf)
    assert f.sup_tail(f.default_u_cutoff) == 0.0
    r = brute_S(SumParams(1, 2, 101), f)
    assert r.value == brute_S(SumParams(1, 2, 101), f, 1.0).value
    assert r.tail_certificate < 11.0
    # the cutoff keeps its bits wherever mu + sigma sqrt(60) rounds above mu
    for mu, sigma in ((1, 0.4), (-3, 0.1), (0, 1e-300), (1, 1e-16)):
        assert make_gaussian(mu, sigma).default_u_cutoff == max(0.0, mu + sigma * math.sqrt(60.0))


@pytest.mark.parametrize("alpha", [1, 0.5 + 0.5j])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_certificate_is_finite_or_raises(alpha, bad):
    f = dataclasses.replace(make_gaussian(1, 0.4), sup_tail=lambda u: bad)
    with pytest.raises(DomainError, match="certificate"):
        brute_S(SumParams(alpha, 2, 30), f)
