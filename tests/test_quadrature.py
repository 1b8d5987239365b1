import math

import numpy as np
import pytest

from smoothsum import ToleranceUnachievable
from smoothsum import quadrature
from smoothsum.quadrature import integrate_adaptive


def exact(fn):
    """An integrand with no error of its own: (values, zeros)."""
    return lambda x: (fn(x), np.zeros_like(x))


def test_gaussian_integral():
    res, integrand_err = integrate_adaptive(
        exact(lambda x: np.exp(-(x**2) / 2.0)), -10.0, 10.0, 1e-12
    )
    assert res.value.real == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)
    assert abs(res.value.real - math.sqrt(2 * math.pi)) <= res.quad_error + 1e-13
    assert res.tail_bound == integrand_err == 0.0


def test_integrand_errors_are_integrated():
    # errors 1e-9 |x| (linear on each side of the split at 0, so K15 is
    # exact on every panel) integrate to 1e-9 in tail_bound
    res, integrand_err = integrate_adaptive(
        lambda x: (np.cos(x), 1e-9 * np.abs(x)), -1.0, 1.0, 1e-12
    )
    assert res.tail_bound == integrand_err == pytest.approx(1e-9, rel=1e-13)
    assert res.value.real == pytest.approx(2.0 * math.sin(1.0), abs=1e-12)


def test_oscillatory_complex():
    res, _ = integrate_adaptive(exact(lambda x: np.exp(25j * x)), 0.0, 1.0, 1e-12)
    ref = (np.exp(25j) - 1.0) / 25j
    assert abs(res.value - ref) <= max(res.quad_error, 1e-12)


def test_split_point_respected():
    # |x| has a kink at 0; a panel straddling it would stall convergence,
    # and 0 is a seed edge of every symmetric interval
    res, _ = integrate_adaptive(exact(np.abs), -1.0, 1.0, 1e-13)
    assert res.value.real == pytest.approx(1.0, abs=1e-13)


def test_refinement_tolerance_contract():
    f = exact(lambda x: 1.0 / (1.0 + 50.0 * x**2))
    coarse, _ = integrate_adaptive(f, -3.0, 3.0, 1e-6)
    fine, _ = integrate_adaptive(f, -3.0, 3.0, 1e-7)
    assert abs(coarse.value - fine.value) <= coarse.quad_error + coarse.tail_bound


def test_deterministic():
    f = exact(lambda x: np.exp(-np.abs(x)) * np.cos(7 * x))
    a, _ = integrate_adaptive(f, -5.0, 5.0, 1e-10)
    b, _ = integrate_adaptive(f, -5.0, 5.0, 1e-10)
    assert a.value == b.value and a.node_count == b.node_count
    assert a.node_count % 15 == 0


def test_gauss_kronrod_constants():
    """The G7/K15 pair: K15 integrates x^d exactly on [-1, 1] for d <= 23,
    G7 (the Gauss nodes among the Kronrod ones) for d <= 13."""
    x, k15, g7 = quadrature._NODES, quadrature._K15, quadrature._G7
    gauss = g7 != 0
    nodes7, weights7 = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(x[gauss] - nodes7)) <= 1e-15
    assert np.max(np.abs(g7[gauss] - weights7)) <= 1e-15
    for d in range(24):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(k15 @ x**d - exact) <= 1e-15
        if d <= 13:
            assert abs(g7 @ x**d - exact) <= 1e-15
    # the pair is no better than its degree: x^24 and x^14 are not exact
    assert abs(k15 @ x**24 - 2.0 / 25) > 1e-12
    assert abs(g7 @ x**14 - 2.0 / 15) > 1e-6


def test_panel_cap_raises():
    # 1.6e5 oscillations: MAX_PANELS panels cannot resolve them to 1e-14
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(1e4j * x), np.zeros_like(x)

    with pytest.raises(ToleranceUnachievable):
        integrate_adaptive(f, -50.0, 50.0, 1e-14)
    # the panel count after each call: the last round splits the worst
    # panels only, up to the cap and no further
    panels = np.cumsum([calls[0] // 15] + [n // 30 for n in calls[1:]])
    assert panels[-1] == quadrature.MAX_PANELS and np.all(np.diff(panels) > 0)


def test_bad_interval():
    with pytest.raises(ValueError):
        integrate_adaptive(exact(lambda x: x), 1.0, 0.0, 1e-6)


def test_panels_share_calls_of_f():
    # every seed panel in the first call of f, then one call per round with
    # all the halves of that round's bisections
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(-np.abs(x)) * np.cos(7 * x), np.zeros_like(x)

    res, _ = integrate_adaptive(f, -5.0, 5.0, 1e-10)
    seeds = calls[0] // 15
    assert calls[0] == 15 * seeds and seeds == 8
    assert all(n % 30 == 0 for n in calls[1:]) and max(calls[1:]) > 30
    panels = seeds + sum(n // 30 for n in calls[1:])
    assert res.node_count == 15 * (2 * panels - seeds)
