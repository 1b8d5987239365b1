import dataclasses
import math
import types

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.polynomial import chebyshev as cheb

from smoothsum import (
    EtaTooSmall,
    PrecisionLoss,
    EXP_EULER_GAMMA,
    SmoothsumError,
    SumParams,
    brute_S,
    error_decomposition,
    exact_integral,
    main_term,
    make_gaussian,
    make_test_constant,
    rho_hat,
    sieve_primes,
    tenenbaum_check,
    theorem2_report,
    ToleranceUnachievable,
    UnwrapError,
    zeta,
    zeta_partial,
)
from smoothsum import asymptotic, dickman, euler_products, zeta_engine
from smoothsum.dickman import rho_hat_path
from smoothsum.zeta_engine import regular_factor_path
from smoothsum.euler_products import g_abs_bound
from smoothsum.asymptotic import _h_contour, log_n_power
from smoothsum.quadrature import integrate_adaptive


@pytest.fixture(scope="module")
def f():
    return make_gaussian(1, 0.4)


def test_sum_params_validation():
    # integer k and N, finite alpha: refused up front, not deep in a kernel
    for args in ((1, 1, 100), (1, 2, 1), (1, 2.5, 100), (1, 2, 100.5),
                 (math.nan, 2, 100), (complex(1, math.inf), 2, 100)):
        with pytest.raises(ValueError):
            SumParams(*args)
    assert SumParams(1, np.int64(2), np.int64(100)).N == 100


def test_gaussian_basics():
    g = make_gaussian(0, 1)
    assert g.eval_f(0.0) == 1.0
    res = scipy.integrate.quad(lambda x: g.eval_fhat(x).real, -g.fhat_cutoff, g.fhat_cutoff)[0]
    assert res == pytest.approx(1.0, abs=1e-10)  # int fhat = f(0) = 1
    assert make_gaussian(1, 0.5).eval_f(1.0) == 1.0  # peak value
    assert g.fhat_tail_bound <= 1e-14


def test_gaussian_transform_quadrature():
    g = make_gaussian(0, 1)
    re = scipy.integrate.quad(
        lambda x: (g.eval_fhat(x) * np.exp(-1j * x * 2.0)).real, -g.fhat_cutoff, g.fhat_cutoff
    )[0]
    assert re == pytest.approx(math.exp(-2.0), abs=1e-10)


def test_gaussian_validation():
    for mu, sigma, eta in ((0, -1, 6), (1, math.nan, 6), (math.nan, 0.4, 6),
                           (1, 0.4, math.nan), (1, math.inf, 6)):
        with pytest.raises(ValueError):
            make_gaussian(mu, sigma, eta)


def test_exact_integral_alpha_zero(f):
    res = exact_integral(SumParams(0, 2, 30), f, 1e-8)
    f0 = complex(np.complex128(f.eval_f(0.0)))
    assert abs(res.value - f0) <= 1e-8


def test_exact_integral_matches_brute(f):
    # the trapezoidal sum lies within its ledger plus the oracle's
    # certificate of the finite sum, and the ledger meets tol
    for tol in (1e-7, 1e-10):
        for N in (30, 60, 100):
            for k in (2, 3):
                for alpha in (1, -1, 2, -2, 0.5 + 0.5j, 1.2 - 1.6j, 2j):
                    p = SumParams(alpha, k, N)
                    ex = exact_integral(p, f, tol)
                    br = brute_S(p, f)
                    assert ex.quad_error + ex.tail_bound <= tol
                    gap = abs(ex.value - br.value)
                    assert gap <= ex.quad_error + ex.tail_bound + br.tail_certificate, (alpha, k, N)


def test_exact_integral_ledger_carries_the_series_truncation(f, monkeypatch):
    # above p = 1024 log g is a truncated series; the kernel returns its
    # certified truncation with g_values, and each node's |fhat g| expm1(trunc)
    # integrates into tail_bound, at least expm1(trunc) |value|, over the
    # full window and the restricted one; exact_integral raises on the
    # ledger that misses tol
    p = SumParams(1, 2, 5000)
    assert 0 < euler_products.series_floor(1, 0, 2, 1.0, 5000)[1] <= 1e-16
    windows = (f.fhat_cutoff, 3.0 * p.log_n)
    base = [asymptotic._g_integral(p, f, -x, x, 0.5e-7) for x in windows]
    monkeypatch.setattr(euler_products, "series_floor", lambda *args: (1024, 1e-3))
    wide = [asymptotic._g_integral(p, f, -x, x, 0.5e-7) for x in windows]
    with pytest.raises(ToleranceUnachievable):
        exact_integral(p, f, 1e-7)
    least = 0.999 * math.expm1(1e-3)
    for b, w in zip(base, wide):
        assert w.value == b.value
        assert w.tail_bound - b.tail_bound >= least * abs(b.value)


def _unbatched(integrate):
    """integrate_adaptive fed its nodes 15 (one panel) at a time."""

    def run(fn, *args, **kwargs):
        def per_panel(xs):
            parts = [fn(xs[i : i + 15]) for i in range(0, len(xs), 15)]
            return tuple(np.concatenate(part) for part in zip(*parts))

        return integrate(per_panel, *args, **kwargs)

    return run


def _fifteen_at_a_time(values):
    """g_values fed its nodes 15 at a time."""

    def run(params, s_nodes, primes=None):
        parts = [values(params, s_nodes[i : i + 15], primes) for i in range(0, len(s_nodes), 15)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    return run


def test_results_hold_builtin_numbers(f):
    # a numpy scalar in a result turns comparisons with it into numpy bools,
    # which json cannot encode
    p = SumParams(1, 2, 200)
    for res in (brute_S(p, f), exact_integral(p, f), main_term(p, f, 1e-6)):
        for field in dataclasses.fields(res):
            assert type(getattr(res, field.name)) is field.type, (res, field.name)


def test_batched_panels_change_no_bit(f, monkeypatch):
    # g_values gives each node its value and its log error in any batch, so
    # the exact route's sum, and a window |x| <= 3 log N that the adaptive
    # rule batches by panels, keep every bit of their ledgers when g_values
    # takes 15 nodes at a time; the main term keeps its value and its ledger
    # on both power routes fed one panel at a time
    w = 3.0 * math.log(30000)
    ledgers = (
        lambda: exact_integral(SumParams(0.7 + 0.4j, 3, 30000), f, 1e-7),
        lambda: exact_integral(SumParams(-1, 2, 1500), f, 1e-7),
        lambda: asymptotic._g_integral(SumParams(0.7 + 0.4j, 3, 30000), f, -w, w, 0.5e-7),
    )
    values = (
        lambda: main_term(SumParams(1, 3, 10**4), f, 1e-6),
        lambda: main_term(SumParams(0.5 - 0.5j, 2, 300), f, 1e-7),
        lambda: main_term(SumParams(2, 2, 1000), f, 1e-6, use_integer_powers=True),
    )
    batched = [run() for run in ledgers + values]
    monkeypatch.setattr(asymptotic, "g_values", _fifteen_at_a_time(asymptotic.g_values))
    monkeypatch.setattr(asymptotic, "integrate_adaptive", _unbatched(integrate_adaptive))
    for got, run in zip(batched, ledgers + values):
        ref = run()
        assert got.value == ref.value and got.quad_error == ref.quad_error
        assert got.node_count == ref.node_count and got.tail_bound == ref.tail_bound


def test_gaussian_strip_bound_covers_shifted_lines():
    # S_f(a) >= int |fhat(x + iy)| dx for |y| <= a, with fhat continued as
    # sigma/sqrt(2 pi) exp(-sigma^2 z^2/2 + i mu z); equality at y = -a sign(mu)
    for mu, sigma in ((0.0, 0.4), (1.0, 0.4), (-2.5, 1.0), (1.0, 0.1)):
        g = make_gaussian(mu, sigma)
        c = sigma / math.sqrt(2.0 * math.pi)
        for a in (0.5, 2.0, 5.0):
            bound = math.exp(g.log_strip_bound(a))
            for y in (-a, -0.5 * a, 0.0, 0.5 * a, a):
                def modulus(x):
                    z = x + 1j * y
                    return abs(c * np.exp(-0.5 * sigma**2 * z**2 + 1j * mu * z))

                line = scipy.integrate.quad(modulus, -np.inf, np.inf, epsabs=0, epsrel=1e-12)[0]
                assert line <= bound * (1.0 + 1e-9), (mu, sigma, a, y)
            worst = -a if mu >= 0 else a
            assert bound == pytest.approx(math.exp(0.5 * sigma**2 * a**2 - mu * worst), rel=1e-12)
    assert make_test_constant().log_strip_bound is None


def test_exact_integral_half_step_moves_less_than_quad_error(f):
    # the same rule at h/2 over the same window: its own bound is about the
    # square of the first, so the move measures the first rule's error
    for alpha, k, N, tol in ((1, 2, 100, 1e-7), (0.7 + 0.4j, 3, 30000, 1e-7),
                             (-1.5 + 1j, 3, 5000, 1e-9), (0, 2, 1000, 1e-7)):
        p = SumParams(alpha, k, N)
        h, J, bound = asymptotic._strip_rule(p, f, 0.5 * tol)
        res = exact_integral(p, f, tol)
        assert res.quad_error == bound and res.node_count == 2 * J + 1
        assert (J - 1) * h >= f.fhat_cutoff * (1 - 1e-15)  # dropped nodes lie past X + h
        half, _ = asymptotic._trapezoid(p, f, 0.5 * h, 2 * J)
        assert abs(half - res.value) <= res.quad_error, (alpha, k, N)


def test_exact_integral_window_tail_past_tol_raises(f):
    # the window term, |fhat| mass outside [-X, X] times G(1), alone exceeds tol
    p = SumParams(5, 2, 1000)
    assert f.fhat_tail_bound * g_abs_bound(p) > 1e-12
    with pytest.raises(ToleranceUnachievable):
        exact_integral(p, f, 1e-12)
    exact_integral(p, f, 1e-7)


def test_exact_integral_refinement_contract(f):
    p = SumParams(1, 2, 100)
    coarse = exact_integral(p, f, 1e-5)
    fine = exact_integral(p, f, 1e-6)
    assert abs(coarse.value - fine.value) <= coarse.quad_error + coarse.tail_bound


def test_exact_integral_rejects_test_mode(f):
    with pytest.raises(ValueError):
        exact_integral(SumParams(1, 2, 30), make_test_constant(), 1e-7)
    with pytest.raises(ValueError):
        exact_integral(SumParams(1, 2, 30), f, 1e-2)


def test_main_term_alpha_zero(f):
    res = main_term(SumParams(0, 2, 100), f, 1e-8)
    f0 = complex(np.complex128(f.eval_f(0.0)))
    # only the gaussian mass outside |x| <= 3 log N is missing
    assert abs(res.value - f0) <= 1e-6


def test_main_term_eta_guard():
    low_eta = make_gaussian(1, 0.4, eta=0.5)
    with pytest.raises(EtaTooSmall):
        main_term(SumParams(1, 2, 100), low_eta, 1e-6)
    # Re alpha = -2 needs eta > 3
    mid_eta = make_gaussian(1, 0.4, eta=2.0)
    with pytest.raises(EtaTooSmall):
        main_term(SumParams(-2, 2, 100), mid_eta, 1e-6)


def test_main_term_n_floor(f):
    with pytest.raises(ValueError):
        main_term(SumParams(1, 2, 10), f, 1e-6)


def test_main_term_tol_validation(f):
    # refused up front, not after walking the h cutoff up to its cap
    for tol in (math.nan, 1e-2, -1e-7, 0.0):
        with pytest.raises(ValueError):
            main_term(SumParams(1, 2, 100), f, tol)


def test_main_term_meets_tol_or_raises(f):
    # every return has quad_error + tail_bound <= tol; where the h model's
    # uncertainty alone passes tol (alpha = -3 and 5) the call raises.  At
    # alpha = -2, k = 2 the p = 2 factor of h vanishes at s = 1, which the
    # ledger once divided by.  At alpha = 3 + i, |h| reaches 9.7, and an h
    # model accepted relative to |h| once filled the ledger
    grid = [(a, k, N, tol) for a in (1, -1, 2, -2, 0.5 + 0.5j, 0.5 - 0.5j, 1.5)
            for k in (2, 3) for N in (10**2, 10**4) for tol in (1e-6, 1e-8)]
    grid += [(a, k, 1000, tol) for a in (-3, 5) for k in (2, 3) for tol in (1e-6, 1e-8)]
    grid += [(3 + 1j, 3, N, 1e-8) for N in (10**2, 10**5)]
    raised = []
    for alpha, k, N, tol in grid:
        try:
            res = main_term(SumParams(alpha, k, N), f, tol)
        except SmoothsumError:
            raised.append((alpha, k, N, tol))
            continue
        assert res.quad_error + res.tail_bound <= tol, (alpha, k, N, tol)
    assert set(raised) == {(-3, k, 1000, 1e-8) for k in (2, 3)} | {
        (5, k, 1000, tol) for k in (2, 3) for tol in (1e-6, 1e-8)
    }


@pytest.fixture
def fresh_h_models():
    """An empty h-model cache before and after the test, so models built
    under a patched zeta engine reach no other test."""
    _h_contour.cache_clear()
    yield
    _h_contour.cache_clear()


def _model(points, values, ts):
    """A model's interpolant at the points ts of [-1, 1], through the row."""
    return (asymptotic._barycentric_row(ts, points) * values).sum(axis=1)


def _dct_coeffs(values):
    """Chebyshev coefficients of the interpolant through values at the extreme
    points cos(pi j/n), j = 0..n: one FFT of their even extension (a DCT-I)."""
    n = len(values) - 1
    coeffs = np.fft.fft(np.concatenate((values, values[-2:0:-1])))[: n + 1] / n
    coeffs[[0, n]] *= 0.5
    return coeffs


def _main_integrand(alpha, k, N, f, tol):
    """The main term's integrand as a scalar function, from the same parts."""
    half = 3.0 * math.log(N)
    points, h, log_a, _, _ = _h_contour(complex(alpha), k, 0, tol / 10.0)

    def integrand(x):
        xs = np.array([x])
        logs = dickman.log_rho_hat_ix(xs) + _model(points, log_a, xs / half)
        y = f.eval_fhat(xs) * np.exp(alpha * logs) * _model(points, h, xs / half)
        return complex(y[0])

    return integrand


@pytest.mark.parametrize("N", [10**2, 10**4, 10**6])
def test_main_term_narrow_fhat_raises_or_matches_scipy(N):
    # fhat is a spike of width 1/sigma at x = 0, which once fell between the
    # seed nodes and came back as C_f = 0 with a tiny ledger.  Each call
    # raises, for every tol or for none, or returns within its ledger of
    # scipy's adaptive rule on the same integrand (h model of the finest
    # tol), with breakpoints at 0 and at the edges of fhat's window.  A wide
    # fhat is small everywhere (sigma/sqrt(2 pi)) and must not be refused;
    # 55, 85 and 170 sit just inside the refusal edge at N = 10^6, 10^4, 10^2
    half = 3.0 * math.log(N)
    outcomes = {}
    for sigma in (0.01, 0.03, 1, 30, 55, 85, 170, 300, 1e3, 1e4):
        g = make_gaussian(1, sigma)
        results = []
        for tol in (1e-3, 1e-7, 1e-9):
            try:
                results.append(main_term(SumParams(1, 2, N), g, tol))
            except ToleranceUnachievable:
                pass
        outcomes[sigma] = len(results)
        if results:
            x = min(g.fhat_cutoff, 0.5 * half)
            ref, _ = scipy.integrate.quad(
                _main_integrand(1, 2, N, g, 1e-9), -half, half, points=[-x, 0.0, x],
                complex_func=True, epsabs=1e-12, epsrel=1e-12, limit=400,
            )
            for res in results:
                assert abs(res.value - ref) <= res.quad_error + res.tail_bound, (sigma, res)
    assert set(outcomes.values()) <= {0, 3}, outcomes
    assert all(outcomes[s] == 3 for s in (0.01, 0.03, 1, 55)), outcomes
    assert outcomes[300] == outcomes[1e3] == 0


def test_main_term_checks_the_branch_of_a_at_the_nodes(f, monkeypatch, fresh_h_models):
    # the principal log A is the continuous one only while |arg A| < pi/2,
    # checked at the samples of the log A model; a warm call reads no A at
    # its nodes, so the rotated A reaches the result only through a new model
    p = SumParams(0.5, 2, 100)
    built = main_term(p, f, 1e-6)
    em = zeta_engine._euler_maclaurin
    monkeypatch.setattr(zeta_engine, "_euler_maclaurin", lambda s: (-em(s)[0], em(s)[1]))
    assert main_term(p, f, 1e-6) == built
    _h_contour.cache_clear()
    with pytest.raises(UnwrapError):
        main_term(p, f, 1e-6)


def test_main_term_integer_power_route(f):
    p = SumParams(1, 2, 100)
    a = main_term(p, f, 1e-8)
    b = main_term(p, f, 1e-8, use_integer_powers=True)
    assert abs(a.value - b.value) <= 1e-9
    with pytest.raises(ValueError):
        main_term(SumParams(0.5, 2, 100), f, 1e-6, use_integer_powers=True)


def test_zeta_error_estimate_is_read(f, monkeypatch, fresh_h_models):
    # an inflated A error estimate, at the log A model's samples and at the
    # integer route's nodes, widens tail_bound on both power routes, makes
    # main_term raise where the ledger then misses tol, and stops
    # tenenbaum_check once it reaches a tenth of the error a row measures.
    # Only the main term's own reads of A are inflated, not the zeta rows
    # of h's prime-zeta tail, which would refuse the h model first
    p = SumParams(1, 2, 100)
    base = [main_term(p, f, 1e-4, use_integer_powers=b) for b in (False, True)]
    em = zeta_engine._euler_maclaurin
    extra = 1e-6

    def inflated(s, m_terms=None):
        vals, errs = em(s, m_terms)
        return vals, errs + extra

    monkeypatch.setattr(asymptotic, "zeta_engine", types.SimpleNamespace(_euler_maclaurin=inflated))
    _h_contour.cache_clear()
    for b, integer in zip(base, (False, True)):
        got = main_term(p, f, 1e-4, use_integer_powers=integer)
        assert got.value == b.value
        assert got.tail_bound >= b.tail_bound + 1e-7
        with pytest.raises(ToleranceUnachievable, match="ledger"):
            main_term(p, f, 1e-8, use_integer_powers=integer)
    # the N = 10^3 row measures 3.9e-3 at tau = 0, where |A| = 1
    taus = np.linspace(-3, 3, 13)
    tenenbaum_check([10**3], taus)
    extra = 1e-3
    with pytest.raises(PrecisionLoss):
        tenenbaum_check([10**3], taus)


def test_tenenbaum_guard_is_relative_to_the_row():
    # at tau = +-4 A's absolute error estimate passes 1e-13, but relative to
    # |A| it stays far below the 1e-3 errors the rows measure
    rows = tenenbaum_check([10**3, 10**4], np.linspace(-4, 4, 5))
    assert [r.N for r in rows] == [10**3, 10**4]
    assert all(1e-5 < r.max_rel_err < 1e-2 for r in rows)
    _, err = zeta_engine._euler_maclaurin(np.array([1 - 4j, 1 + 4j]))
    assert np.all(err > 1e-13)


def test_main_term_non_integer_alpha_matches_closed_forms(f):
    # the library's log rhohat and log A model against the same integral
    # built from independent references, on the same quadrature:
    # log rhohat(ix) = gamma - Cin(x) - i Si(x), that is
    # Ci(|x|) - log|x| - i Si(x) from scipy's sici, A = (s - 1) zeta(s) at
    # each node from mpmath, and h by Clenshaw on the model's coefficients
    alpha, k, tol = 0.5 + 0.5j, 3, 1e-8
    h_coeffs = _dct_coeffs(_h_contour(alpha, k, 0, tol / 10.0)[1])
    for N in (10**2, 10**4):
        got = main_term(SumParams(alpha, k, N), f, tol)
        log_n, half = math.log(N), 3.0 * math.log(N)

        def integrand(xs):
            si, ci = scipy.special.sici(xs)
            log_rho = -np.log(np.abs(xs)) + ci - 1j * si
            with mpmath.workdps(25):
                a = np.array([complex((s - 1) * mpmath.zeta(s)) for s in 1.0 + 1j * xs / log_n])
            logs = log_rho + np.log(a)
            y = f.eval_fhat(xs) * np.exp(alpha * logs) * cheb.chebval(xs / half, h_coeffs)
            return y, np.zeros_like(xs)

        ref, _ = integrate_adaptive(integrand, -half, half, 0.5 * tol)
        assert got.node_count == ref.node_count
        assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)


def test_h_contour_doubles_on_nested_samples(monkeypatch, fresh_h_models):
    # the degree-64 extreme points are the even points of degree 128, so a
    # degree-128 build samples h and A at 65 + 64 points each, not 65 + 129
    h_sizes, a_sizes = [], []

    def counting_h(alpha, k, s_nodes, tol):
        h_sizes.append(len(s_nodes))
        return euler_products.h_infinite_log_values(alpha, k, s_nodes, tol)

    def counting_a(s):
        a_sizes.append(len(s))
        return zeta_engine._euler_maclaurin(s)

    monkeypatch.setattr(asymptotic, "h_infinite_log_values", counting_h)
    monkeypatch.setattr(asymptotic, "zeta_engine", types.SimpleNamespace(_euler_maclaurin=counting_a))
    points, h, log_a, _, _ = _h_contour(0.5 + 0.5j, 3, 0, 1e-9)
    assert len(points) == len(h) == len(log_a) == 129
    assert np.array_equal(points, np.cos(np.pi / 128 * np.arange(129)))
    assert h_sizes == a_sizes == [65, 64]


@pytest.mark.parametrize("alpha,k", [(0.5 + 0.5j, 3), (1.5, 2), (-1, 3), (1, 2)])
def test_h_contour_matches_h_infinite(alpha, k):
    # the model within its uniform error plus each point's own tail bound
    points, h, _, unc, _ = _h_contour(complex(alpha), k, 0, 1e-9)
    taus = np.linspace(-3.0, 3.0, 40)
    for tau, got in zip(taus, _model(points, h, taus / 3.0)):
        ref = euler_products.h_infinite(alpha, k, 1.0 + 1j * tau, 1e-9)
        assert abs(got - ref.value) <= unc + ref.tail_bound, (alpha, k, tau)


@pytest.mark.parametrize("alpha,k", [(0.5 + 0.5j, 3), (3 + 1j, 3)])
def test_log_a_model_matches_mpmath(alpha, k):
    # log A's model within its uniform error delta of mpmath's principal
    # log (s - 1) zeta(s), on and between the samples
    points, _, log_a, _, delta = _h_contour(complex(alpha), k, 0, 1e-9)
    taus = np.concatenate((np.linspace(-3.0, 3.0, 41), [-2.9, 0.05, 1.3, 2.71]))
    with mpmath.workdps(30):
        refs = [complex(mpmath.log(1j * t * mpmath.zeta(1 + 1j * t))) if t else 0j
                for t in map(mpmath.mpf, taus)]
    got = _model(points, log_a, taus / 3.0)
    assert 0.0 < delta <= 1e-11
    assert np.max(np.abs(got - np.array(refs))) <= delta


def test_barycentric_row_matches_clenshaw():
    # the barycentric row against numpy's Clenshaw recurrence on the DCT
    # coefficients of the same samples, for both models; a t on a sample
    # point gets that point's unit row and reads its sample exactly
    points, h, log_a, _, _ = _h_contour(0.5 + 0.5j, 3, 0, 1e-9)
    t = np.concatenate((np.linspace(-1.0, 1.0, 173), [-1.0, 0.0, 1e-300, 1.0, points[37]]))
    for values in (h, log_a):
        coeffs = _dct_coeffs(values)
        got = _model(points, values, t)
        assert np.max(np.abs(got - cheb.chebval(t, coeffs))) <= 1e-14 * np.sum(np.abs(coeffs))
        assert got[-1] == values[37] and got[-2] == values[0] and got[-5] == values[-1]
    row = asymptotic._barycentric_row(t[-1:], points)
    assert np.array_equal(row[0], np.arange(len(points)) == 37)


def test_log_n_power_modulus_identity():
    for alpha in (1.0, -1.0, 0.5 + 0.5j, 2.3 - 1.1j):
        for N in (100, 10**5):
            pw = log_n_power(alpha, N)
            assert abs(pw) == pytest.approx(math.log(N) ** alpha.real, rel=5e-15)


def test_theorem2_alpha_zero_row(f):
    rows = theorem2_report([SumParams(0, 2, 100)], f, tol=1e-7)
    assert rows[0].e_measured <= 1e-6
    assert rows[0].log_n_pow == 1.0


def test_tenenbaum_mertens_row():
    rows = tenenbaum_check([10**4], [0.0])
    zn = zeta_partial(sieve_primes(10**4), 1.0).value.real
    mertens_err = abs(zn / (math.log(10**4) * EXP_EULER_GAMMA) - 1.0)
    assert rows[0].max_rel_err == pytest.approx(mertens_err, rel=1e-9)


def test_tenenbaum_ladder_and_leps():
    rows = tenenbaum_check([10**3, 10**4], np.linspace(-3, 3, 13))
    assert rows[0].max_rel_err > rows[1].max_rel_err
    assert rows[1].l_eps == pytest.approx(math.exp(math.log(10**4) ** 0.5), rel=1e-12)
    with pytest.raises(ValueError):
        tenenbaum_check([100], [0.0])


@pytest.mark.parametrize("eps", [-5.0, 0.0, 0.6, math.nan])
def test_tenenbaum_refuses_eps_outside_the_exponent_range(eps):
    # L_eps = exp((log N)^(3/5 - eps)) needs 0 < eps < 3/5
    with pytest.raises(ValueError):
        tenenbaum_check([10**3], [0.0], eps=eps)


def test_gaussian_huge_sigma_gives_inf_not_overflow():
    # sigma^2 is past the double range: the strip bound is inf, f is 1 near
    # mu, and sup_tail scales by sigma before it squares
    g = make_gaussian(1, 1e300)
    assert g.log_strip_bound(3.0) == math.inf
    assert g.eval_f(np.array([0.0, 5.0])).tolist() == [1.0, 1.0]
    assert g.sup_tail(g.default_u_cutoff) == pytest.approx(math.exp(-30.0), rel=1e-12)


def test_exact_route_caps_its_nodes():
    # |mu| = 1e300 makes the strip bound |mu| a, so the step h shrinks like 1/|mu|
    with pytest.raises(ToleranceUnachievable, match="nodes"):
        exact_integral(SumParams(1, 2, 100), make_gaussian(1e300, 0.4))


def test_tau_past_the_zeta_range_is_refused_at_once():
    # Euler-Maclaurin's cutoff grows as 2 |Im s|: the one range check refuses
    # |Im s| > 1e7 before any sum is formed, for every caller
    with pytest.raises(PrecisionLoss):
        tenenbaum_check([1000], [-1e9, 0.0, 1e9])
    with pytest.raises(PrecisionLoss):
        zeta_engine._euler_maclaurin(np.array([1.0, 1.0 + 1j * math.nan]))
    with pytest.raises(PrecisionLoss):
        regular_factor_path([0.0, 1e9], math.log(1000))


def test_gaussian_sup_tail_far_out_is_zero():
    f = make_gaussian(1, 0.4)
    # (u - mu)^2 would overflow at 1e200; e^-800 is 0.0 already
    assert f.sup_tail(1e200) == 0.0 == f.sup_tail(1 + 40 * 0.4) == f.sup_tail(math.inf)
    u = 1 + 39 * 0.4
    assert f.sup_tail(u) == math.exp(-((u - 1) ** 2) / (2.0 * 0.4**2))
    p = SumParams(1, 2, 30)
    far, full = brute_S(p, f, 1e200), brute_S(p, f, math.inf)
    assert (far.value, far.terms_used, far.tail_certificate) == (
        full.value, full.terms_used, full.tail_certificate
    )


def test_tenenbaum_conjugate_symmetry():
    # all players are real on the real axis, so the error is even in tau
    log_n = math.log(10**4)
    primes = sieve_primes(10**4)
    for tau in (0.5, 1.5, 3.0):
        errs = []
        for t in (tau, -tau):
            lhs = zeta_partial(primes, 1 + 1j * t).value
            rhs = zeta(1 + 1j * t).regular * log_n * rho_hat(t * log_n).value
            errs.append(abs(lhs / rhs - 1.0))
        assert errs[0] == pytest.approx(errs[1], rel=1e-12)


def test_error_decomposition_gaussian_window(f):
    d = error_decomposition(SumParams(1, 2, 1000), f)
    assert d.i2_abs <= 1e-10  # super-polynomial fhat decay
    assert d.e2_abs > 0


def test_error_decomposition_full_ledger_carries_the_window_tail():
    # sigma = 0.1 puts the fhat window X = 77 past 3 log N = 20.7, so the
    # window misses mass; the exact integral keeps its window tail
    f, p = make_gaussian(1, 0.1), SumParams(1, 2, 1000)
    d = error_decomposition(p, f, 1e-7)
    assert d.i2_abs > 1e-3
    assert exact_integral(p, f, 1e-7).tail_bound >= f.fhat_tail_bound * g_abs_bound(p) > 0


def test_error_decomposition_e2_shrinks(f):
    d3 = error_decomposition(SumParams(1, 2, 1000), f)
    d4 = error_decomposition(SumParams(1, 2, 10000), f)
    # 1/(N log N) scaling: a decade of N shrinks E2 by >= 8
    assert d3.e2_abs / d4.e2_abs >= 8.0


def test_error_decomposition_alpha_zero_closed_form(f):
    d = error_decomposition(SumParams(0, 2, 100), f)
    w = 3.0 * math.log(100)
    # independent quadrature of the tail integral int_{|x|>w} fhat
    tail = 2.0 * scipy.integrate.quad(
        lambda x: (f.eval_fhat(x)).real, w, f.fhat_cutoff, limit=200
    )[0]
    assert d.i2_abs == pytest.approx(abs(tail), rel=1e-4)
    assert d.i2_abs <= math.erfc(0.4 * w / math.sqrt(2.0))  # |tail| envelope


def test_f_weight_cases(f):
    """fhat(x) rhohat(ix)^alpha, the main term's Dickman weight, on the
    branch of rho_hat_path."""
    path = rho_hat_path(np.linspace(-2.0, 2.0, 65))

    def weight(alpha, x):
        return complex(np.complex128(f.eval_fhat(x)) * np.exp(alpha * path.log_at(x)))

    assert weight(0.0, 0.7) == complex(np.complex128(f.eval_fhat(0.7)))
    expect0 = complex(np.complex128(f.eval_fhat(0.0))) * np.exp((0.5 + 0.5j) * math.log(EXP_EULER_GAMMA))
    assert weight(0.5 + 0.5j, 0.0) == pytest.approx(expect0, rel=1e-12)
    direct = complex(np.complex128(f.eval_fhat(1.0))) * rho_hat(1.0).value
    assert weight(1.0, 1.0) == pytest.approx(direct, rel=1e-12)
