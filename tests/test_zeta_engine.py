import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

import smoothsum.zeta_engine as zeta_engine
from smoothsum import PrecisionLoss, vk_check, zeta
from smoothsum.zeta_engine import _cutoffs, _euler_maclaurin, regular_factor_path, stieltjes_constants

mpmath.mp.dps = 30


def test_zeta_2_closed_form():
    assert zeta(2.0).zeta == pytest.approx(math.pi**2 / 6.0, abs=1e-13)


def test_regular_at_one():
    v = zeta(1.0)
    assert v.regular == 1.0
    assert v.err_estimate == 0.0
    assert cmath.isnan(v.zeta)


def test_zeta_against_mpmath():
    pts = [1 + 3j, 0.5 + 14.1j, 2.5 - 1j, 1 + 0.04j, 1.001, 1 + 41.3j, 0.7 + 2j]
    for s in pts:
        ref = complex(mpmath.zeta(mpmath.mpc(s)))
        v = zeta(complex(s))
        assert abs(v.zeta - ref) <= 1e-12 * max(1.0, abs(ref))


def test_self_consistency_doubling_M():
    a, _ = _euler_maclaurin(1 + 3j, 40)
    b, _ = _euler_maclaurin(1 + 3j, 80)
    assert abs(a - b) <= 1e-10


def test_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = complex(rng.uniform(0.5, 3.0), rng.uniform(-40.0, 40.0))
        assert zeta(s.conjugate()).zeta == pytest.approx(zeta(s).zeta.conjugate(), rel=1e-12)


def test_regular_factor_against_mpmath():
    # one pole-free sum for A = (s-1) zeta(s): near s = 1 (where zeta has its
    # pole) and across Re s in [0.5, 8], |Im s| <= 10
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(23)
    radii = 0.05 * np.sqrt(rng.uniform(0.0, 1.0, 64))
    near = 1.0 + radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 64))
    near = [*near, 1.0, 1 + 1e-12j, 1 - 1e-9, 1.05, 1 - 0.05j]
    wide = rng.uniform(0.5, 8.0, 64) + 1j * rng.uniform(-10.0, 10.0, 64)
    for pts, slack in ((near, 4), (wide, 32)):
        for s in pts:
            v = zeta(complex(s))
            ms = mpmath.mpc(s)
            ref = complex((ms - 1) * mpmath.zeta(ms)) if ms != 1 else 1.0
            assert abs(v.regular - ref) <= v.err_estimate + slack * eps * abs(ref)
            if s != 1.0:
                assert v.zeta == v.regular / (complex(s) - 1.0)


def test_euler_maclaurin_array_matches_scalar_and_mpmath():
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(29)
    s = rng.uniform(2.0, 8.0, 50) + 1j * rng.uniform(-24.0, 24.0, 50)
    vals, errs = _euler_maclaurin(s, 48)
    for i, si in enumerate(s):
        one, one_err = _euler_maclaurin(np.array([si]), 48)
        assert vals[i] == one[0] and errs[i] == one_err[0]
        ms = mpmath.mpc(si)
        ref = complex((ms - 1) * mpmath.zeta(ms))
        assert abs(vals[i] - ref) <= errs[i] + 8 * eps * abs(ref)
        assert abs(vals[i] - zeta(complex(si)).regular) <= 8 * eps * abs(ref)


def test_euler_maclaurin_entry_bits_do_not_depend_on_batch():
    # each entry takes its own cutoff: A(1+2i) has the same bits beside 1+40i,
    # whose cutoff is 80 against 20
    alone, alone_err = _euler_maclaurin(np.array([1 + 2j]))
    both, both_err = _euler_maclaurin(np.array([1 + 2j, 1 + 40j]))
    assert alone[0] == both[0] and alone_err[0] == both_err[0]


def test_cutoffs_are_multiples_of_four():
    # main-term nodes (|Im s| <= 3) keep M = 20; a batch of zeta(n s) behind
    # the h tail (n = 2..8, |tau| <= 3) falls into at most 8 groups of one M
    assert np.all(_cutoffs(1.0 + 1j * np.linspace(-3.0, 3.0, 61)) == 20)
    u = np.outer(np.arange(2, 9), 1.0 + 3j * np.cos(np.pi * np.arange(129) / 128)).ravel()
    m = _cutoffs(u)
    assert np.all(m % 4 == 0) and np.all(m >= 2.0 * np.abs(u.imag))
    assert len(set(m.tolist())) <= 8


def test_stieltjes_against_literature():
    known = (
        0.5772156649015329,
        -0.0728158454836767,
        -0.0096903631928723,
        0.0020538344203033,
        0.0023253700654673,
        0.0007933238173010,
    )
    got = stieltjes_constants()
    for g, k in zip(got, known):
        assert g == pytest.approx(k, abs=2e-11)


def test_half_plane_and_precision_guards():
    with pytest.raises(ValueError):
        zeta(0.4 + 2j)
    with pytest.raises(PrecisionLoss):
        zeta(1 + 2e7j)


def test_vk_check_points():
    for t in (3.0, 10.0, 1e3, 1e6):
        r = vk_check(t)
        assert r.passed and r.zeta_abs <= r.bound
    # generous slack at t = 1e3 (the bound is far from tight)
    assert vk_check(1e3).zeta_abs < 2.0
    with pytest.raises(ValueError):
        vk_check(1.0)


def test_regular_lower_bound_on_window():
    # |(s-1) zeta(s)| stays well away from 0 for tau in [-3, 3]
    taus = np.linspace(-3, 3, 61)
    vals = [abs(zeta(complex(1.0, t)).regular) for t in taus]
    assert min(vals) > 0.01


def test_regular_factor_path_anchor_and_crosscheck():
    log_n = math.log(1e6)
    path = regular_factor_path(np.linspace(-3 * log_n, 3 * log_n, 121), log_n)
    assert cmath.exp(path.log_at(0.0)) == pytest.approx(1.0 + 0j, abs=1e-14)
    for tau in (3.0, -1.234):
        direct = (1j * tau) * zeta(1 + 1j * tau).zeta
        assert cmath.exp(path.log_at(tau * log_n)) == pytest.approx(direct, rel=1e-12)


def test_regular_factor_path_validation():
    with pytest.raises(ValueError):
        regular_factor_path([-1.0, 0.0, 1.0], 0.0)


def test_regular_factor_error_covers_rounding():
    # the returned error bounds truncation and rounding: against 30 digits on
    # the main-term segment |tau| <= 3 and at |Im s| = 10^3, where the ~2000
    # terms' rounding is 1e4 times the truncation
    s = np.concatenate((1 + 1j * np.linspace(-3.0, 3.0, 61), [0.5 + 1e3j, 1 - 1e3j, 2 + 1e3j]))
    vals, errs = _euler_maclaurin(s)
    for si, v, e in zip(s, vals, errs):
        ms = mpmath.mpc(si)
        ref = complex((ms - 1) * mpmath.zeta(ms)) if ms != 1 else 1.0
        assert abs(v - ref) <= e
    # the main-term nodes read it as a relative error: 3.9e-14 at tau = 3
    assert np.max(errs[:61] / np.abs(vals[:61])) <= 1e-13


def test_euler_maclaurin_error_covers_a_at_im_s_1000():
    # s = 1 +- 1000i: a 2000-term sum whose rounding dominates the estimate;
    # the observed error, 1.2e-10 against |A| = 942, lies within it
    s = np.array([1 + 1e3j, 1 - 1e3j])
    vals, errs = _euler_maclaurin(s)
    for si, v, e in zip(s, vals, errs):
        ms = mpmath.mpc(si)
        ref = complex((ms - 1) * mpmath.zeta(ms))
        assert abs(v - ref) <= e
        assert e <= 1e-10 * abs(ref)
