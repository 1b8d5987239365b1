import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothsum import (
    DomainError,
    PrecisionLoss,
    SmoothsumError,
    SumParams,
    ToleranceUnachievable,
    g_product,
    h_finite,
    h_infinite,
    lemma1_check,
    sieve_primes,
    zeta_partial,
    zeta,
)
from smoothsum import euler_products, prime_moments
from smoothsum.dickman import EXP_EULER_GAMMA
from smoothsum.euler_products import (
    _h_floor,
    g_abs_bound,
    g_values,
    h_log_values,
    h_tail_log_bound,
    h_tail_log_values,
)

mpmath.mp.dps = 30


def test_zeta_partial_golden():
    assert zeta_partial(sieve_primes(10), 1.0).value == pytest.approx(4.375, rel=1e-14)
    assert zeta_partial(sieve_primes(2), 2.0).value == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_zeta_partial_mertens():
    v = zeta_partial(sieve_primes(10**6), 1.0).value.real
    assert v / (EXP_EULER_GAMMA * math.log(10**6)) == pytest.approx(1.0, abs=0.01)


def test_zeta_partial_domain():
    with pytest.raises(DomainError):
        zeta_partial(sieve_primes(100), 0.5)
    with pytest.raises(DomainError):
        h_finite(SumParams(1, 2, 2000), 1 / 9)


def direct_products(alpha, k, N, s):
    """(zeta_N, g, h_N) at s as plain per-prime Python-complex products: the
    independent reference for the chunked piece-log sums."""
    zeta_n = g = h = 1.0 + 0.0j
    for p in sieve_primes(N).primes:
        z = complex(p) ** (-s)
        w = alpha * z
        zeta_n /= 1 - z
        g *= sum(w**j for j in range(k))
        h *= (1 - z) ** alpha * sum(w**j for j in range(k))
    return zeta_n, g, h


def test_zeta_partial_matches_direct_product():
    # N = 5000: the power series above p = 1024; Re s = 0.6, where its
    # truncation would exceed rounding, takes exact piece logs throughout
    for N, s in ((50, 1.0 + 0.8j), (2000, 1.0 - 2.5j), (300, 0.7 + 5.0j),
                 (5000, 1.0 + 1.7j), (3000, 0.6 + 4.0j)):
        zeta_n, _, _ = direct_products(1.0, 2, N, s)
        assert zeta_partial(sieve_primes(N), s).value == pytest.approx(zeta_n, rel=1e-12)


def test_h_finite_matches_direct_product():
    # N = 2000: the power series above p = 1024, and exact pieces throughout
    # at alpha = 12, where the series truncation would exceed rounding
    for alpha, k, N, s in ((1.3 - 0.7j, 3, 50, 1.0 + 0.8j), (0.5 + 0.5j, 2, 2000, 1.0 - 2.5j),
                           (-1.0, 4, 300, 0.8 + 1.5j), (12.0, 2, 2000, 1.0 + 0.3j),
                           (1.5 - 0.5j, 3, 5000, 1.0 + 2.0j), (-9.0 + 3.0j, 3, 3000, 1.0 - 0.4j)):
        _, _, h = direct_products(alpha, k, N, s)
        hv = h_finite(SumParams(alpha, k, N), s)
        assert hv.value == pytest.approx(h, rel=1e-12)
        assert hv.tail_bound <= 1e-15 * abs(hv.value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    r=st.floats(0.0, 2.5),
    phase=st.floats(-math.pi, math.pi),
    k=st.integers(2, 5),
    tau=st.floats(-3.0, 3.0),
    N=st.integers(2, 200),
)
def test_products_match_direct_products_property(r, phase, k, tau, N):
    """For any alpha, k, tau and small N: each product equals its direct
    per-prime product, and log g = alpha log zeta_N + log h exactly."""
    alpha = cmath.rect(r, phase)
    s = 1.0 + 1j * tau
    params = SumParams(alpha, k, N)
    g, h = g_product(params, s), h_finite(params, s)
    zn = zeta_partial(sieve_primes(N), s)
    zeta_n, g_ref, h_ref = direct_products(alpha, k, N, s)
    assert zn.value == pytest.approx(zeta_n, rel=1e-12)
    assert g.value == pytest.approx(g_ref, rel=1e-11, abs=1e-13)
    assert h.value == pytest.approx(h_ref, rel=1e-11, abs=1e-13)
    assert abs(g.log_value - alpha * zn.log_value - h.log_value) <= 1e-12


def test_product_log_consistency():
    pv = zeta_partial(sieve_primes(10**4), 1 + 2j)
    assert abs(cmath.exp(pv.log_value) - pv.value) <= 1e-12 * abs(pv.value)


def test_g_product_golden():
    assert g_product(SumParams(1, 2, 10), 1.0).value == pytest.approx(576 / 210, rel=1e-14)
    assert g_product(SumParams(0, 5, 1000), 1.0).value == 1.0
    assert g_product(SumParams(2, 2, 3), 1.0).value == pytest.approx(10 / 3, rel=1e-14)


def test_g_product_matches_direct_geometric_product():
    # N = 5000: the power series above p = 1024; alpha = 10 + 2j, where its
    # truncation would exceed rounding, takes exact piece logs throughout
    for alpha, k, N, s in ((1.3 - 0.7j, 3, 50, 1.0 + 0.8j), (0.8 + 0.9j, 4, 5000, 1.0 - 1.1j),
                           (10.0 + 2.0j, 2, 2000, 1.0 + 0.3j)):
        direct = 1.0
        for p in sieve_primes(N).primes:
            w = alpha * p ** (-s)
            direct *= sum(w**j for j in range(k))
        gv = g_product(SumParams(alpha, k, N), s)
        assert gv.value == pytest.approx(direct, rel=1e-12)
        assert gv.tail_bound <= 1e-15 * abs(gv.value)


def test_log_g_keeps_its_digits_over_a_long_walk():
    """log g at N = 2^20, alpha = 1, k = 3 against per-prime Mercator sums
    of log(1 - z^3) - log(1 - z) added exactly by math.fsum (within 1.1e-16
    of 30-digit mpmath over the primes to 2^14).  A walk of np.log(1 - z)
    over every prime was 1.0e-12 off here: rounding 1 - z costs eps per
    prime against a term of size |z|."""
    logp = np.log(sieve_primes(2**20).primes.astype(np.float64))
    for tau in (0.75, -0.75):
        s = 1.0 + 1j * tau
        z = np.exp(-s * logp)
        per_p = np.zeros_like(z)
        for m in range(60, 0, -1):  # 2^-60 / 60 is below eps^3
            per_p += z**m / m
            if m <= 20:
                per_p -= z ** (3 * m) / m
        ref = complex(math.fsum(per_p.real), math.fsum(per_p.imag))
        assert abs(g_product(SumParams(1, 3, 2**20), s).log_value - ref) <= 1e-14


def test_g_values_match_mpmath_at_1024():
    """g_values (one principal log of each block product of Horner sums)
    against a 30-digit product at N = 1024.  Beyond 1e-14 the tolerance
    admits the rounding of p^(-s) itself, about eps (|s| log p + 1) relative,
    times each factor's condition |sum j w^j / sum w^j|: near a zero of the
    p = 2 factor (alpha = 2, k = 3, tau = +-3, where |g| = 0.027) that alone
    moves g by 1.2e-14."""
    primes = sieve_primes(1024).primes
    logp = np.log(primes.astype(np.float64))
    s_nodes = 1.0 + 1j * np.linspace(-3, 3, 7)
    eps = np.finfo(np.float64).eps
    z_mp = [[mpmath.power(int(p), -mpmath.mpc(s)) for p in primes] for s in s_nodes]
    for alpha in (0.7 + 0.4j, -1.9 + 0.3j, 2, 1.5 - 1.2j, -3 + 2j):
        for k in (2, 3, 4):
            got, _ = g_values(SumParams(alpha, k, 1024), s_nodes)
            for s, g, zs in zip(s_nodes, got, z_mp):
                ref = mpmath.mpc(1)
                for z in zs:
                    w = mpmath.mpc(alpha) * z
                    ref *= mpmath.fsum(w**j for j in range(k))
                w = alpha * np.exp(-s * logp)
                powers = w ** np.arange(k)[:, None]
                cond = np.abs((np.arange(k)[:, None] * powers).sum(0) / powers.sum(0))
                kappa = float(np.sum(cond * (abs(s) * logp + 1.0)))
                assert abs(g - complex(ref)) <= (1e-14 + 2.0 * eps * kappa) * abs(complex(ref))


def test_g_product_overflow_guard():
    """alpha = 12, k = 200: the p = 2 factor reaches 6^199, so every block is
    one prime, and log g matches a 30-digit sum of factor logs (its imaginary
    part mod 2 pi); g itself, e^930, is past the double range: DomainError.
    At k = 400 a factor may pass 1e300: DomainError, no nan."""
    s = 1.0 + 0.5j
    logs, _ = euler_products._factor_log_sum(12, 0.0, 200, s, sieve_primes(50), moments=False)
    log_g = complex(logs[0])
    ref_re, ref_im = mpmath.mpf(0), mpmath.mpf(0)
    for p in sieve_primes(50).primes:
        w = 12 * mpmath.power(int(p), -mpmath.mpc(s))
        factor = mpmath.fsum(w**j for j in range(200))
        ref_re += mpmath.log(abs(factor))
        ref_im += mpmath.arg(factor)
    assert log_g.real == pytest.approx(float(ref_re), rel=1e-12)
    turns = (log_g.imag - float(ref_im)) / (2.0 * math.pi)
    assert abs(turns - round(turns)) <= 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            g_product(SumParams(12, 200, 50), s)
    with pytest.raises(DomainError):
        g_product(SumParams(12, 400, 50), s)
    # the bound reads the smallest prime summed: above 1024, |w| < 0.012
    logs, _ = h_log_values(12, 400, s, euler_products._above(sieve_primes(2000), 1024))
    assert np.all(np.isfinite(logs))


def test_g_values_vectorized_matches_scalar():
    params = SumParams(0.5 + 0.5j, 2, 1000)
    s_nodes = 1.0 + 1j * np.linspace(-3, 3, 7)
    vec, _ = g_values(params, s_nodes)
    for i, s in enumerate(s_nodes):
        _, direct, _ = direct_products(params.alpha, params.k, params.N, complex(s))
        assert vec[i] == pytest.approx(direct, rel=1e-12)


def test_h_finite_golden():
    expect = (3 / 4) * (8 / 9) * (24 / 25) * (48 / 49)
    assert h_finite(SumParams(1, 2, 10), 1.0).value == pytest.approx(expect, rel=1e-13)
    assert h_finite(SumParams(0, 2, 100), 1.0).value == 1.0
    expect3 = np.prod([1 - p ** -3.0 for p in (2, 3, 5, 7)])
    assert h_finite(SumParams(1, 3, 10), 1.0).value == pytest.approx(expect3, rel=1e-13)


def test_h_at_w_one_is_regular():
    # alpha p^(-s) = 1 at p = 2 and at p = 3: h_p = (1 - 1/p)^alpha k there
    h = h_finite(SumParams(2, 2, 3), 1.0).value
    assert h == pytest.approx((1 / 2) ** 2 * 2 * (2 / 3) ** 2 * (5 / 3), rel=1e-14)
    for alpha, N in ((2, 3), (3, 10)):
        _, _, ref = direct_products(alpha, 2, N, 1.0)
        assert h_finite(SumParams(alpha, 2, N), 1.0).value == pytest.approx(ref, rel=1e-13)
    # h_{2,2}(1) = prod_p (1 - 1/p)^2 (1 + 2/p): exact factors for p <= 7, and
    # log h_p = sum_m c_m p^(-m), c_m = ((-1)^(m+1) 2^m - 2)/m, above 7
    small = [2, 3, 5, 7]
    ref = mpmath.mpf(1)
    for p in small:
        ref *= (1 - mpmath.mpf(1) / p) ** 2 * (1 + mpmath.mpf(2) / p)
    log_tail = mpmath.fsum(
        (mpmath.mpf((-1) ** (m + 1) * 2**m - 2) / m)
        * (mpmath.primezeta(m) - mpmath.fsum(mpmath.mpf(p) ** -m for p in small))
        for m in range(2, 60)
    )
    ref *= mpmath.exp(log_tail)
    hv = h_infinite(2, 2, 1.0, 1e-8)
    assert abs(hv.value - complex(ref)) <= 1e-13 + hv.tail_bound


def test_factorization_identity_randomized():
    """log g - alpha log zeta_N - log h = 0 factorwise (the grouped-branch
    identity the main term rests on)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        alpha = complex(3.0 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()))
        tau = rng.uniform(-3, 3)
        N = int(rng.choice([100, 1000, 10000]))
        k = int(rng.integers(2, 5))
        params = SumParams(alpha, k, N)
        s = 1 + 1j * tau
        resid = abs(
            g_product(params, s).log_value
            - alpha * zeta_partial(sieve_primes(N), s).log_value
            - h_finite(params, s).log_value
        )
        worst = max(worst, resid)
    assert worst <= 1e-10


def test_h_infinite_closed_forms():
    for k in (2, 3, 4):
        hv = h_infinite(1.0, k, 1.0, 1e-8)
        ref = float(1 / mpmath.zeta(k))
        assert abs(hv.value - ref) <= 1e-8
        assert abs(hv.value - 1.0 / zeta(float(k)).zeta) <= 1e-8
    assert h_infinite(0.0, 2, 1.0, 1e-10).value == 1.0


def test_h_infinite_on_the_line():
    for k in (2, 3):
        for tau in (0.0, 1.0, 3.0):
            s = 1 + 1j * tau
            hv = h_infinite(1.0, k, s, 1e-8)
            ref = complex(1 / mpmath.zeta(mpmath.mpc(k * s)))
            assert abs(hv.value - ref) <= 1e-8


def _log1m(w):
    """Log(1 - w), by its Mercator series where |w| < 0.01: rounding 1 - w
    would cost eps per prime, 1e-11 over a walk to 2^20 (numpy's complex
    log1p is no better)."""
    small = np.abs(w) < 1e-2
    ws = w if small.all() else w[small]
    term, acc = ws.copy(), -ws
    for r in range(2, 13):
        term = term * ws
        acc = acc - term / r
    if small.all():
        return acc
    out = np.log(1 - w)
    out[small] = acc
    return out


def _walk_logs(alpha, k, s_nodes, lo, hi):
    """sum_{lo < p <= hi} log h_p by exact piece logs, test side."""
    primes = sieve_primes(hi).primes
    logp = np.log(primes[primes > lo].astype(np.float64))
    s_nodes = np.atleast_1d(np.asarray(s_nodes, dtype=np.complex128))
    acc = np.zeros(len(s_nodes), dtype=np.complex128)
    for start in range(0, len(logp), 8192):
        z = np.exp(-np.outer(logp[start : start + 8192], s_nodes))
        w = alpha * z
        acc += (alpha * _log1m(z) - _log1m(w) + _log1m(w**k)).sum(axis=0)
    return acc


def test_h_infinite_tail_honesty():
    alpha, k, s = 0.8 + 0.3j, 2, 1.0 + 0.5j
    coarse = h_infinite(alpha, k, s, 1e-6)
    # the ledger is the prime-zeta tail's certified bound
    bound = h_tail_log_values(alpha, k, s, _h_floor(alpha, k))[1][0]
    assert 0 < bound <= 1e-6
    assert coarse.tail_bound == abs(coarse.value) * math.expm1(bound)
    # a test-side walk to 2^20, with its own tail bound, agrees within the ledger
    walk = np.exp(_walk_logs(alpha, k, s, 0, 2**20)[0])
    walk_err = abs(walk) * math.expm1(h_tail_log_bound(alpha, k, s.real, 2**20))
    assert abs(walk - coarse.value) <= coarse.tail_bound + walk_err


def test_h_infinite_domain_and_cap():
    with pytest.raises(DomainError):
        h_infinite(1.0, 2, 0.9, 1e-8)
    # a tol below the tail's certified floor (about 1e-13) fails loudly
    with pytest.raises(ToleranceUnachievable):
        h_infinite(1.0, 2, 1.0, 1e-16)


def test_h_infinite_alpha_one_matches_mpmath():
    # alpha = 1: h_p = 1 - p^(-ks), so h = 1/zeta(ks)
    for k in (2, 3, 4):
        for tau in np.linspace(-3.0, 3.0, 9):
            s = complex(1.0, tau)
            ref = complex(1 / mpmath.zeta(mpmath.mpc(k * s)))
            assert abs(h_infinite(1.0, k, s, 1e-10).value - ref) <= 1e-14


@pytest.mark.parametrize("alpha", [1, 2, -1, 0.5 + 0.5j, 1.5])
def test_h_tail_self_consistent_across_floors(alpha):
    """tail above Q minus tail above 2^16 = the walk over (Q, 2^16], at the
    certified floor Q and at Q = 1024 (k = 3: at k = 2, alpha = -1 makes
    every factor 1)."""
    s_nodes = 1.0 + 1j * np.linspace(-3.0, 3.0, 129)
    high, high_bound = h_tail_log_values(alpha, 3, s_nodes, 2**16)
    upper = _walk_logs(alpha, 3, s_nodes, 1024, 2**16)
    for Q in (_h_floor(alpha, 3), 1024):
        low, low_bound = h_tail_log_values(alpha, 3, s_nodes, Q)
        walk = _walk_logs(alpha, 3, s_nodes, Q, 1024) + upper
        assert np.all(np.abs(low - high - walk) <= low_bound + high_bound + 1e-13)


@pytest.mark.parametrize("alpha", [1, 2, -1, 0.5 + 0.5j, 1.5, 3 + 1j])
def test_h_tail_bound_against_long_walk(alpha):
    s_nodes = 1.0 + 1j * np.linspace(-3.0, 3.0, 9)
    for k in (2, 3):
        Q = _h_floor(alpha, k)
        tail, bound = h_tail_log_values(alpha, k, s_nodes, Q)
        walk = _walk_logs(alpha, k, s_nodes, Q, 2**20)
        allowed = bound + h_tail_log_bound(alpha, k, 1.0, 2**20)
        assert np.all(np.abs(tail - walk) <= allowed)


def test_h_floor_is_the_smallest_certified_power_of_two():
    trunc = euler_products._h_tail_trunc
    for alpha, k in ((1, 2), (1, 3), (-1, 2), (0.5 + 0.5j, 3), (1.5, 2), (2, 3), (3 + 1j, 2)):
        Q = _h_floor(alpha, k)
        assert Q in (64, 128, 256, 512, 1024)
        assert trunc(complex(alpha), k, 1.0, Q) <= 1e-16
        assert Q == 64 or trunc(complex(alpha), k, 1.0, Q // 2) > 1e-16
    assert _h_floor(1, 3) == 128 and _h_floor(1.5, 2) == 256
    # no floor certifies alpha = 8: the split stays at 1024
    assert trunc(8.0, 2, 1.0, 1024) > 1e-16 and _h_floor(8, 2) == 1024


@pytest.mark.parametrize("alpha", [1, 2, -1, 0.5 + 0.5j, 1.5, 3 + 1j])
def test_h_split_at_the_floor_matches_the_split_at_1024(alpha):
    """head over p <= Q plus the tail above Q = the same at Q = 1024, mod
    2 pi i (the heads' block logs hold mod 2 pi i only), within the two
    splits' bounds and the heads' rounding, which those leave out (alpha = -1,
    k = 2: every factor is 1 and both bounds are about 3e-17)."""
    s_nodes = 1.0 + 1j * np.linspace(-3.0, 3.0, 33)
    for k in (2, 3):
        splits = []
        for Q in (_h_floor(alpha, k), 1024):
            head, head_err = h_log_values(alpha, k, s_nodes, sieve_primes(Q))
            tail, tail_err = h_tail_log_values(alpha, k, s_nodes, Q)
            splits.append((head + tail, head_err + tail_err))
        (low, low_err), (high, high_err) = splits
        gap = low - high
        gap -= 2j * np.pi * np.round(gap.imag / (2 * np.pi))
        assert np.all(np.abs(gap) <= low_err + high_err + 1e-13)


def test_log_zeta_above_matches_mpmath():
    """log zeta_{>Q}(u), one log of the product over p <= Q per entry,
    against 30 digits of log zeta(u) + sum_{p<=Q} log(1 - p^(-u)): within
    the returned bound at every entry, and that bound at the rounding level
    (zeta's own error estimate reaches 1.4e-14 of it at u = 2 +- 3i).  At
    Q = 2^16 the reference costs 0.3 s per entry, so only the n = 2 entries
    at tau = 0, +-3 run there."""
    grid = np.array([n * (1 + 1j * t) for n in range(2, 9) for t in (0.0, 1.5, -1.5, 3.0, -3.0)])
    for Q in (64, 128, 1024, 2**16):
        u = grid if Q <= 1024 else np.array([2.0, 2.0 + 6j, 2.0 - 6j])
        got, bound = euler_products._log_zeta_above(u, Q)
        primes = [mpmath.mpf(int(p)) for p in sieve_primes(Q).primes]
        for g, b, w in zip(got, bound, u):
            w = mpmath.mpc(w)
            ref = mpmath.log(mpmath.zeta(w)) + mpmath.fsum(mpmath.log(1 - p**-w) for p in primes)
            assert abs(g - complex(ref)) <= b <= 3e-14, (Q, w)


def test_h_tail_reads_only_rows_of_nonzero_weight(monkeypatch):
    """Real integer alpha zeroes some weights of log zeta_{>Q}(n s), and those
    rows are not computed; at alpha = -1, k = 2 every weight is 0 (each h_p
    is 1), so no row is and the tail is 0 within the truncation bound."""
    rows = []
    log_zeta_above = euler_products._log_zeta_above

    def recorder(u, Q):
        rows.append(sorted(set(np.round(u.real).astype(int).tolist())))
        return log_zeta_above(u, Q)

    monkeypatch.setattr(euler_products, "_log_zeta_above", recorder)
    s_nodes = 1.0 + 1j * np.linspace(-3.0, 3.0, 7)
    for alpha, k, expected in ((1, 3, [[3, 6]]), (1, 2, [[2, 4, 6, 8]]), (-1, 2, [])):
        rows.clear()
        tail, bound = h_tail_log_values(alpha, k, s_nodes, 1024)
        assert rows == expected
    # alpha = -1, k = 2, the last call
    assert np.array_equal(tail, np.zeros(7))
    assert np.all(bound == euler_products._h_tail_trunc(-1.0, 2, 1.0, 1024))


def test_h_tail_refuses_uncertified_inputs():
    # the series above Q = 1024 needs |alpha| / Q <= 1/2 on the 1-line
    with pytest.raises(ToleranceUnachievable):
        h_tail_log_values(600.0, 2, 1.0, 1024)
    h_tail_log_values(500.0, 2, 1.0, 1024)
    with pytest.raises(DomainError):
        h_tail_log_values(1.0, 2, 0.9, 1024)


def test_h_uniform_boundedness_in_N():
    """|h_{alpha,k,N}(1+i tau)| stabilizes: beyond N = 10^4 the sampled max
    varies by under 1%."""
    alpha, k = 1.5 - 0.5j, 2
    taus = 1.0 + 1j * np.linspace(-3, 3, 13)
    maxes = []
    for N in (10, 100, 1000, 10**4, 10**5, 10**6):
        vals = np.exp(h_log_values(alpha, k, taus, sieve_primes(N))[0])
        maxes.append(float(np.max(np.abs(vals))))
    assert abs(maxes[-1] - maxes[-2]) / maxes[-1] < 0.01
    assert abs(maxes[-2] - maxes[-3]) / maxes[-2] < 0.01


def test_lemma1_scaling_and_zero_alpha():
    taus = np.linspace(-3, 3, 25)
    rep = lemma1_check(1.0, 2, [1000, 2000], taus)
    expected = 2 * (1 + math.log(2) / math.log(1000))
    assert rep.decay_ratios[0] >= 1.8
    assert rep.decay_ratios[0] == pytest.approx(expected, rel=0.15)
    rep0 = lemma1_check(0.0, 2, [1000, 10000], taus)
    assert rep0.max_errors == (0.0, 0.0)


def test_lemma1_error_matches_tail_sum():
    """At alpha=1, k=2: h_N/h - 1 = prod_{p>N}(1-p^{-2s})^{-1} - 1, close to
    sum_{p>N} p^{-2} at s = 1 (within a factor of 2)."""
    N = 1000
    rep = lemma1_check(1.0, 2, [N], [0.0])
    tail = float(sum(1.0 / (p * p) for p in sieve_primes(10**6).primes[len(sieve_primes(N)) :]))
    measured = rep.max_errors[0]
    assert 0.5 <= measured / tail <= 2.0


def test_lemma1_validation():
    with pytest.raises(ValueError):
        lemma1_check(1.0, 2, [50], [0.0])
    with pytest.raises(ValueError):
        lemma1_check(1.0, 2, [1000], [])
    with pytest.raises(PrecisionLoss):  # zeta's |Im s| cap, before any sum runs
        lemma1_check(1, 2, [1000], [-1e9, 1e9])


@pytest.mark.parametrize(
    "call",
    [
        lambda: h_infinite(math.nan, 2, 1.0, 1e-8),
        lambda: h_infinite(1.0, 2.5, 1.0, 1e-8),
        lambda: lemma1_check(1.0, 1, [1000], [0.0, 1.0]),
        lambda: lemma1_check(1.0, 2.5, [1000], [0.0, 1.0]),
        lambda: lemma1_check(complex(math.nan, 0.0), 2, [1000], [0.0, 1.0]),
    ],
    ids=["h-nan-alpha", "h-k-2.5", "lemma1-k-1", "lemma1-k-2.5", "lemma1-nan-alpha"],
)
def test_h_routes_take_the_alpha_k_rule(call):
    # alpha finite and k an integer >= 2, the rule SumParams applies
    with pytest.raises(ValueError):
        call()


def test_huge_alpha_is_a_typed_error():
    # the h tail series cannot certify, and must say so before forming alpha^m
    for alpha in (1e60, 1e300):
        with pytest.raises(SmoothsumError):
            h_infinite(alpha, 2, 1.0, 1e-8)
    with pytest.raises(ToleranceUnachievable):
        lemma1_check(1e60, 2, [1000], [0.0, 1.0])


def test_lemma1_alpha_one_matches_mpmath():
    # alpha = 1, k = 2: h_N/h - 1 = zeta(2s) prod_{p<=N} (1 - p^(-2s)) - 1
    taus = np.linspace(-3.0, 3.0, 5)
    for N, tau_grid in ((10**3, taus), (10**4, taus), (10**5, taus[::2])):
        ps = [mpmath.mpf(int(p)) for p in sieve_primes(N).primes]
        for tau in tau_grid:
            s = mpmath.mpc(1.0, tau)
            ref = mpmath.zeta(2 * s)
            for p in ps:
                ref *= 1 - p ** (-2 * s)
            rep = lemma1_check(1.0, 2, [N], [tau])
            assert abs(rep.max_errors[0] - abs(complex(ref - 1))) <= rep.tail_bound + 1e-14


@pytest.mark.parametrize("alpha, k", [(0.5 + 0.5j, 2), (2, 2), (-1, 3)])
def test_lemma1_matches_long_walk(alpha, k):
    """h_N/h - 1 = expm1(-walk over (N, 2^20]) up to the walk's tail bound."""
    taus = np.linspace(-3.0, 3.0, 5)
    walk_bound = h_tail_log_bound(alpha, k, 1.0, 2**20)
    high = _walk_logs(alpha, k, 1.0 + 1j * taus, 10**4, 2**20)
    for N, walk in ((10**3, high + _walk_logs(alpha, k, 1.0 + 1j * taus, 10**3, 10**4)),
                    (10**4, high)):
        for tau, w in zip(taus, walk):
            rep = lemma1_check(alpha, k, [N], [tau])
            allowed = abs(np.exp(-w)) * math.expm1(rep.tail_bound + walk_bound)
            assert abs(rep.max_errors[0] - abs(np.expm1(-w))) <= allowed


def test_lemma1_refuses_uncertified_measurements():
    taus = np.linspace(-3.0, 3.0, 25)
    # alpha = -1, k = 2: every h_p is 1, so h_N/h - 1 is 0 and no bound is 1% of it
    for N_values in ([2000], [100, 1000]):
        with pytest.raises(ToleranceUnachievable):
            lemma1_check(-1.0, 2, N_values, taus)
    # alpha = 8: the tail bound 1.7e-7 is 0.05% of |h_N/h - 1| at N = 10^4,
    # but more than 1% of it at N = 10^6
    lemma1_check(8.0, 2, [10**4], taus)
    with pytest.raises(ToleranceUnachievable):
        lemma1_check(8.0, 2, [10**4, 10**6], taus)
    # alpha = 200: a log bound of 7.7e4 certifies nothing, though |h_N/h - 1|
    # reads 2.4e33 and the bound is below 1% of that
    with pytest.raises(ToleranceUnachievable):
        lemma1_check(200.0, 2, [10**5], taus)


def test_lemma1_sieves_no_prime_past_max_n_and_1024(monkeypatch):
    bounds = []

    def recorder(bound):
        bounds.append(bound)
        return sieve_primes(bound)

    monkeypatch.setattr(euler_products, "sieve_primes", recorder)
    taus = np.linspace(-3.0, 3.0, 25)
    for N_values in ([100, 500], [1000, 10**4]):
        bounds.clear()
        lemma1_check(0.5 + 0.5j, 2, N_values, taus)
        assert bounds and max(bounds) <= max(N_values)


def test_vanishing_k_free_factor_is_zero_without_warning():
    # alpha = -2, k = 2, s = 1: w = -1 at p = 2, so 1 + w = 0
    params = SumParams(-2, 2, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pv in (g_product(params, 1.0), h_finite(params, 1.0)):
            assert pv.value == 0
            assert pv.log_value.real == -math.inf


def test_g_abs_bound_dominates_on_line():
    params = SumParams(0.5 + 0.5j, 2, 300)
    bound = g_abs_bound(params)
    for tau in np.linspace(-20, 20, 41):
        assert abs(g_product(params, 1 + 1j * tau).value) <= bound + 1e-12


@pytest.mark.parametrize("N", [3000, 10**5])
def test_vector_products_are_batch_invariant(N):
    """A node's value and its error bound have the same bits in any batch of
    nodes: the vector routes and the prime-zeta h tail over a node vector
    equal the concatenation over its two halves, and single-node calls.
    alpha = 9 takes exact piece logs over every prime (a walk)."""
    primes = sieve_primes(N)
    s = 1.0 + 1j * np.linspace(-19.0, 19.0, 41) / math.log(N)
    halves = (s[:17], s[17:])
    for alpha, k in ((0.7 + 0.4j, 3), (9.0, 2)):
        params = SumParams(alpha, k, N)
        calls = (
            lambda nodes: g_values(params, nodes, primes),
            lambda nodes: euler_products.zeta_partial_values(primes, nodes),
            lambda nodes: h_log_values(alpha, k, nodes, primes),
            lambda nodes: h_tail_log_values(alpha, k, nodes, _h_floor(alpha, k)),
        )
        for call in calls:
            whole, parts = call(s), [call(h) for h in halves]
            singles = {i: call(s[i : i + 1]) for i in (0, 20, 33)}
            for j in range(2):  # the values, then the per-node error bounds
                assert np.array_equal(whole[j], np.concatenate([p[j] for p in parts]))
                assert all(single[j][0] == whole[j][i] for i, single in singles.items())


def _series_size(alpha, beta, k, sigma, N):
    # sum_m |e_m| m S_m over the primes in (1024, N]: the condition of the series side
    logp = euler_products._above(sieve_primes(N), 1024).log_primes
    return sum(
        m * abs(euler_products._series_coeff(alpha, beta, k, m)) * np.exp(-m * sigma * logp).sum()
        for m in range(1, 9)
    )


@pytest.mark.parametrize("N", [10**4, 10**5, 10**6])
def test_moment_route_matches_the_walks(N):
    """g_values and zeta_partial_values (Chebyshev moments above p = 1024)
    against the point walks g_product and zeta_partial, within the returned
    per-node certificate plus the rounding of the walk's p^(-s), a few eps
    times |s| log N times the series' condition."""
    primes = sieve_primes(N)
    s = 1.0 + 1j * np.linspace(-19.0, 19.0, 9) / math.log(N)
    params = SumParams(0.7 + 0.4j, 3, N)
    zeta_values = euler_products.zeta_partial_values(primes, s)
    for alpha, beta, k, (values, trunc), point in (
        (params.alpha, 0.0, 3, g_values(params, s, primes), lambda x: g_product(params, x)),
        (0.0, 1.0, 1, zeta_values, lambda x: zeta_partial(primes, x)),
    ):
        assert np.all((1e-16 < trunc) & (trunc < 1e-11))  # the interpolation and rounding are in it
        size = _series_size(alpha, beta, k, 1.0, N)
        for x, got, bound in zip(s, values, trunc):
            ref = point(x).value
            allowed = bound + 4 * np.finfo(float).eps * (abs(x) * math.log(N) + 3) * size
            assert abs(got / ref - 1) <= allowed


def test_moment_interpolation_error_is_certified():
    """At degree 8, where interpolation dominates rounding, the series side
    of log zeta_N from the moments is within the Chebyshev certificate
    sum_m |e_m| S_m 4 rho^(-n) e^(omega (rho - 1/rho)/2)/(rho - 1)."""
    N, n = 10**5, 8
    above = euler_products._above(sieve_primes(N), 1024)
    taus = np.linspace(-3.0, 3.0, 13)
    coeffs = euler_products._series_coeffs(0.0, 1.0, 1)
    walk = euler_products._chunked_piece_sum(
        lambda z: euler_products._series_pieces(coeffs, z), above, 1.0 + 1j * taus
    )
    got = prime_moments._series(coeffs, *prime_moments._moments(1024, N, 1.0, 8, n), taus)
    sums, count = prime_moments._power_sums(1024, N, 1.0, 8)
    assert count == len(above)
    half = 0.5 * math.log(N / 1024)
    bound = sum(
        abs(c) * sums[m - 1] * prime_moments._interp_error(n, m * half * np.abs(taus))
        for m, c in enumerate(coeffs, 1)
    )
    err = np.abs(got - walk)
    assert np.all(err <= bound + 1e-14)
    assert np.max(err) > 1e-6  # the interpolation error is the one measured
