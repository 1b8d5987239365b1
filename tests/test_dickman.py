import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from smoothsum import (
    DomainError,
    EULER_GAMMA,
    EXP_EULER_GAMMA,
    build_rho,
    expint_J,
    rho_hat,
)
from smoothsum.dickman import default_table, log_rho_hat_ix, rho_hat_path

# independent marching-Simpson solve of u rho'(u) + rho(u-1) = 0 (h = 1/4096)
RHO_3_ORACLE = 0.04860838829113197


@pytest.fixture(scope="module")
def table():
    return default_table()


def test_rho_is_one_below_one(table):
    for u in (0.0, 0.3, 0.5, 0.99, 1.0):
        assert table.rho(u) == 1.0


def test_rho_matches_closed_form_on_1_2(table):
    us = np.linspace(1.0, 2.0, 101)
    exact = 1.0 - np.log(us)
    assert np.max(np.abs(table.rho(us) - exact)) <= table.tol


def test_rho_at_3_vs_marching_oracle(table):
    assert table.rho(3.0) == pytest.approx(RHO_3_ORACLE, abs=1e-12)


def test_rho_strictly_decreasing_and_positive(table):
    us = np.linspace(1.0, table.u_max, 1500)
    vals = table.rho(us)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_rho_domain_errors(table):
    with pytest.raises(ValueError):
        table.rho(-0.1)
    with pytest.raises(ValueError):
        table.rho(table.u_max + 1.0)


def test_build_rho_validation():
    with pytest.raises(ValueError):
        build_rho(0.5, 1e-10)
    with pytest.raises(ValueError):
        build_rho(5.0, 1e-3)  # tol above the allowed ceiling


def test_expint_J_golden():
    assert expint_J(1.0) == pytest.approx(0.21938393439552062, abs=1e-12)
    j10 = expint_J(10.0)
    assert j10 == pytest.approx(4.15696892968532e-06, rel=1e-9)
    assert abs(j10) < math.exp(-10.0) / 10.0  # trivial upper envelope


def test_expint_J_small_argument_limit():
    # J(s) + log s -> -gamma as s -> 0+
    s = 1e-8
    assert expint_J(s) + math.log(s) == pytest.approx(-EULER_GAMMA, abs=1e-7)


def test_expint_J_vs_scipy_grid():
    pts = [0.5, 4.0, 25.0, 1j * 2.5, 1j * 41.4, -3 + 1j, 3 - 4j, 0.1 + 0.1j]
    for s in pts:
        ref = scipy.special.exp1(complex(s))
        assert expint_J(s) == pytest.approx(ref, abs=1e-12, rel=1e-10)


def test_expint_J_series_quadrature_consistency():
    # both evaluation regimes hold full accuracy at the |s| = 4 threshold
    for ang in np.linspace(0.1, 2 * math.pi - 0.1, 7):
        s = 4.0 * complex(math.cos(ang), math.sin(ang))
        for fac in (0.999, 1.001):  # series side / quadrature side
            mine = expint_J(fac * s)
            ref = scipy.special.exp1(fac * s)
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_expint_J_branch_cut():
    for s in (0.0, -1.0, -25.0):
        with pytest.raises(DomainError):
            expint_J(s)


def test_rho_hat_at_zero(table):
    v = rho_hat(0.0)
    assert v.value == EXP_EULER_GAMMA
    # two independent routes to e^gamma (the acceptance golden check)
    assert table.integral() == pytest.approx(EXP_EULER_GAMMA, abs=1e-6)
    x = 1e-8
    assert math.exp(-expint_J(x).real) / x == pytest.approx(EXP_EULER_GAMMA, abs=1e-6)


def test_rho_hat_functional_identity():
    # s rhohat(s) = exp(-J(s)) at 50 random points on the imaginary axis
    rng = np.random.default_rng(3)
    xs = rng.uniform(-30.0, 30.0, 50)
    xs = xs[np.abs(xs) > 1e-3]
    for x in xs:
        v = rho_hat(float(x))
        lhs = v.s * v.value
        rhs = np.exp(-expint_J(v.s))
        assert abs(lhs - rhs) <= 1e-8


def test_rho_hat_vs_direct_laplace(table):
    # formula route vs direct quadrature of int_0^inf rho(u) e^{-iu} du
    re = scipy.integrate.quad(lambda u: table.rho(u) * math.cos(u), 0, table.u_max, limit=400)[0]
    im = -scipy.integrate.quad(lambda u: table.rho(u) * math.sin(u), 0, table.u_max, limit=400)[0]
    assert abs(complex(re, im) - rho_hat(1.0).value) <= 1e-6


def test_rho_hat_conjugate_symmetry():
    for x in (0.7, 3.3, 17.0):
        assert rho_hat(-x).value == pytest.approx(rho_hat(x).value.conjugate(), rel=1e-14)


def test_log_rho_hat_ix_matches_quadrature_and_sici():
    # the closed form gamma - Cin(x) - i Si(x) against the expint_J route and
    # scipy's sici, across the series/continued-fraction switch at |x| = 4
    xs = np.concatenate((np.linspace(-60.0, 60.0, 197), [0.0, 4.0, -4.0, 4.0 + 1e-12]))
    got = log_rho_hat_ix(xs)
    via_j = np.array([rho_hat(float(x)).log_value for x in xs])
    assert np.max(np.abs(got - via_j)) <= 5e-15
    si, ci = scipy.special.sici(xs)
    ax = np.abs(xs)
    cin = np.where(ax > 0, EULER_GAMMA + np.log(np.where(ax > 0, ax, 1.0)) - ci, 0.0)
    assert np.max(np.abs(got - (EULER_GAMMA - cin - 1j * si))) <= 5e-15
    assert log_rho_hat_ix(np.array([0.0]))[0] == EULER_GAMMA
    assert log_rho_hat_ix(np.linspace(-2, 2, 6).reshape(2, 3)).shape == (2, 3)
    with pytest.raises(ValueError):
        log_rho_hat_ix([1.0, math.nan])


def envelope_constants(scan_max: float = 10.0, n: int = 2001) -> tuple[float, float]:
    """Empirical (C1, C2) with C1 <= |rhohat(ix)|*sqrt(1+x^2) <= C2 on the scan."""
    xs = np.linspace(-scan_max, scan_max, n)
    vals = np.array([abs(rho_hat(float(x)).value) for x in xs])
    scaled = vals * np.sqrt(1.0 + xs**2)
    return float(scaled.min()), float(scaled.max())


def test_envelope_constants_cover_outside_scan():
    c1, c2 = envelope_constants()
    assert 0 < c1 < c2
    for x in (15.0, 40.0, 100.0):
        scaled = abs(rho_hat(x).value) * math.sqrt(1.0 + x * x)
        assert c1 <= scaled <= c2


# rhohat(ix)^alpha is exp(alpha * log) with the unwrapped log of rho_hat_path


def test_rho_hat_pow_trivial_cases():
    path = rho_hat_path(np.linspace(-5, 5, 41))
    assert np.allclose(np.exp(0.0 * path.log_values), 1.0, atol=1e-14)
    assert complex(np.exp(path.log_at(0.0))) == pytest.approx(EXP_EULER_GAMMA, rel=1e-14)


def test_rho_hat_pow_integer_powers_branch_free():
    path = rho_hat_path(np.linspace(-6, 6, 49))
    for m in (1, 2, 3):
        for x in (0.0, 1.0, -2.5, 5.5):
            direct = rho_hat(x).value ** m
            assert abs(complex(np.exp(m * path.log_at(x))) - direct) <= 1e-10 * abs(direct)


def test_rho_hat_pow_decay_envelope():
    # |rhohat(ix)^alpha| <= C (1+x^2)^{-Re(alpha)/2} with C from the anchor region
    alpha = 1.25 + 0.5j
    path = rho_hat_path(np.linspace(-40, 40, 161))
    powers = np.exp(alpha * path.log_values)
    scaled = np.abs(powers) * (1.0 + path.xs**2) ** (alpha.real / 2.0)
    assert np.max(scaled) < 20.0  # bounded, no blowup along the contour


def test_rho_hat_pow_phase_steps_below_half_pi():
    path = rho_hat_path(np.linspace(-40, 40, 81))
    assert path.max_phase_step() < math.pi / 2


def test_log_rho_hat_ix_matches_mpmath():
    # the fixed-depth fraction converges slowest just past the switch at
    # |x| = 4, so it is sampled densely there, then out to the main term's
    # widest window 3 log 10^8 and at +-1e3, +-1e6; the series side too
    with mpmath.workdps(30):
        def ref(x):
            if x == 0.0:
                return complex(EULER_GAMMA)
            z = mpmath.mpc(0, x)
            return complex(-mpmath.e1(z) - mpmath.log(z))

        xs = np.concatenate((np.linspace(4.0, 4.5, 201)[1:], np.linspace(0.0, 3 * math.log(1e8), 301)))
        xs = np.concatenate((xs, -xs, [1e3, -1e3, 1e6, -1e6]))
        want = np.array([ref(float(x)) for x in xs])
    assert np.max(np.abs(log_rho_hat_ix(xs) - want)) <= 2e-15


def test_log_rho_hat_ix_entries_match_singletons():
    # every continued-fraction entry runs the same fixed depth, so a batch
    # mixing the series (|x| <= 4) and fraction (|x| > 4) sides changes no bit
    xs = np.concatenate((np.linspace(-40.0, 40.0, 61), [4.0, -4.0, 4.0 + 1e-12, 4.5, 1e3]))
    batch = log_rho_hat_ix(xs)
    for x, got in zip(xs, batch):
        assert log_rho_hat_ix(np.array([x]))[0] == got
