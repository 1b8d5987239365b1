import math

import numpy as np
import pytest

import smoothsum.branching as branching
from smoothsum import UnwrapError
from smoothsum.branching import build_branched_path


def winding_log(rate):
    # log of f(x) = exp(i * rate * x): phase wraps fast, modulus 1
    return lambda xs: 1j * rate * np.asarray(xs)


def test_unwraps_fast_winding_function():
    path = build_branched_path(winding_log(5.0), np.linspace(-4, 4, 9))
    # continuous log recovers the true phase, far outside (-pi, pi]
    assert complex(path.log_at(4.0)) == pytest.approx(20j, abs=1e-12)
    assert complex(path.log_at(-3.3)) == pytest.approx(-16.5j, abs=1e-12)
    assert path.max_phase_step() < math.pi / 2


def test_unwrap_error_when_refinement_disabled(monkeypatch):
    monkeypatch.setattr(branching, "MAX_REFINE", 0)
    with pytest.raises(UnwrapError):
        build_branched_path(winding_log(5.0), np.linspace(-4, 4, 9))


def test_power_at_matches_exact():
    path = build_branched_path(winding_log(3.0), np.linspace(-2, 2, 33))
    alpha = 0.5 - 0.25j
    x = 1.7
    expect = np.exp(alpha * (3j * x))
    assert complex(np.exp(alpha * path.log_at(x))) == pytest.approx(complex(expect), rel=1e-12)


def test_anchor_inserted_and_queries_bounded():
    path = build_branched_path(winding_log(1.0), [-1.0, 1.0])
    assert 0.0 in path.xs
    with pytest.raises(ValueError):
        path.log_at(2.0)


def test_log_at_vectorized():
    path = build_branched_path(winding_log(4.0), np.linspace(-3, 3, 25))
    xs = np.array([-2.5, 0.0, 0.1, 2.9])
    out = path.log_at(xs)
    assert np.allclose(out, 4j * xs, atol=1e-12)
