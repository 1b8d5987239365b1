"""Prime power sums sum_{floor < p <= bound} p^(-m s), m = 1..M, at many s on
one line Re s = sigma, through Chebyshev moments in log p.

Interpolate-then-sum (Dutt and Rokhlin, SIAM J. Sci. Comput. 14, 1993): with
v = log p mapped onto t in [-1, 1] over [log floor, log bound], the phase
e^(-i m tau v) is replaced by its degree-n interpolant at the Chebyshev points
v_j, so sum_p p^(-m s) is sum_j W[m-1, j] e^(-i m tau v_j) with the moments
W[m-1, j] = sum_p p^(-m sigma) l_j(v_p) (l_j the Lagrange basis).  W does not
depend on tau: it takes one pass over the primes, cached per (floor, bound,
sigma, M, n), and each s then costs O(n M) in place of O(pi(bound)).  The
interpolation error of e^(-i omega t) has a closed-form certificate
(Trefethen, Approximation Theory and Approximation Practice, Thm 8.2), from
which each s takes its own degree; so an s has the same bits in any batch.
`euler_products._factor_log_sum` sums its factor-log series above p = 1024
this way.
"""

import math
from functools import lru_cache

import numpy as np

from .arith_core import sieve_primes

_CHUNK = 256  # primes per chunk of a build
_MIN_DEGREE = 32  # first rung of the doubling degree
_EPS = float(np.finfo(np.float64).eps)


def _log_primes(floor: int, bound: int) -> np.ndarray:
    primes = sieve_primes(bound)
    return primes.log_primes[int(np.searchsorted(primes.primes, floor, side="right")) :]


@lru_cache(maxsize=32)
def _power_sums(floor: int, bound: int, sigma: float, terms: int) -> tuple[np.ndarray, int]:
    """(S_m = sum p^(-m sigma) for m = 1..terms, count) over the count primes
    in (floor, bound]."""
    logp = _log_primes(floor, bound)
    ms = np.arange(1, terms + 1)[:, None]
    sums = np.zeros(terms)
    for lo in range(0, len(logp), _CHUNK):
        sums += np.exp(-sigma * ms * logp[lo : lo + _CHUNK]).sum(axis=1)
    return sums, len(logp)


@lru_cache(maxsize=32)
def _moments(floor: int, bound: int, sigma: float, terms: int, n: int) -> tuple:
    """(W, v): v_j = log p at the n+1 Chebyshev points of [log floor, log bound],
    and W[m-1, j] = sum p^(-m sigma) l_j(log p) over the primes in (floor, bound],
    l_j the Lagrange basis on v in barycentric form (Berrut and Trefethen, SIAM
    Review 46, 2004); a prime on a point takes the unit row.  One pass over the
    primes in chunks of _CHUNK."""
    logp = _log_primes(floor, bound)
    mid, half = 0.5 * math.log(bound * floor), 0.5 * math.log(bound / floor)
    t_nodes = np.cos(np.pi * np.arange(n + 1) / n)
    bary = (-1.0) ** np.arange(n + 1)
    bary[[0, -1]] *= 0.5
    ms = np.arange(1, terms + 1)[:, None]
    moments = np.zeros((terms, n + 1))
    for lo in range(0, len(logp), _CHUNK):
        v = logp[lo : lo + _CHUNK]
        diff = ((v - mid) / half)[:, None] - t_nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            basis = bary / diff
            basis /= basis.sum(axis=1, keepdims=True)
        hit = diff == 0.0
        on_node = hit.any(axis=1)
        basis[on_node] = hit[on_node]
        moments += np.exp(-sigma * ms * v) @ basis
    return moments, mid + half * t_nodes


def _interp_error(n: int, omega: np.ndarray) -> np.ndarray:
    """Certified max over [-1, 1] of |e^(-i omega t) - its degree-n Chebyshev
    interpolant|: 4 rho^(-n)/(rho-1) e^(omega (rho - 1/rho)/2) on the Bernstein
    ellipse E_rho (ATAP, Thm 8.2), at the best rho = (n + sqrt(n^2 -
    omega^2))/omega; infinite for omega >= n, 0 at omega = 0."""
    omega = np.asarray(omega, dtype=np.float64)
    out = np.full(omega.shape, np.inf)
    ok = omega < n
    w = np.maximum(omega[ok], 1e-300)
    rho = (n + np.sqrt(n * n - w * w)) / w
    with np.errstate(under="ignore"):
        out[ok] = 4.0 * np.exp(0.5 * w * (rho - 1.0 / rho) - n * np.log(rho)) / (rho - 1.0)
    return out


def _degrees(weights: np.ndarray, half: float, taus, count: int, target: float) -> np.ndarray:
    """Per s = sigma + i tau the smallest n = 32, 64, ... below count with
    sum_m weights[m-1] _interp_error(n, m |tau| half) <= target, half the
    half-width of [log floor, log bound]; 0 where no such n is (the caller
    walks the primes there)."""
    used = np.flatnonzero(weights)
    omega = np.outer(np.abs(taus), half * (used + 1))
    degrees = np.zeros(len(taus), dtype=np.int64)
    n = _MIN_DEGREE
    while n < count:
        todo = np.flatnonzero(degrees == 0)
        if not len(todo):
            break
        err = (_interp_error(n, omega[todo]) * weights[used]).sum(axis=1)
        degrees[todo[err <= target]] = n
        n *= 2
    return degrees


def _error(weights: np.ndarray, n, tau, sigma: float, bound: int, count: int) -> np.ndarray:
    """Rounding of sum_m e_m sum_p p^(-m s) by _series at degree n and
    |Im s| = tau (arrays, one entry per s), weights[m-1] = |e_m| S_m.  With
    lam >= sum_j |l_j| the Lebesgue constant it is sum_m weights[m-1] lam
    eps times: n + 6 for a basis row and its denominator; 4 m (sigma + tau)
    log(bound) for p^(-m sigma), the map to [-1, 1] and the phases
    e^(-i m tau v_j); the count of build chunks; 2 (M + n + 8) for the
    Horner sum and the sum over the n + 1 points."""
    n, tau = np.asarray(n, dtype=np.float64), np.asarray(tau, dtype=np.float64)
    lam = 2.0 / math.pi * np.log(n + 1) + 1.0
    chunks = -(-count // _CHUNK)
    ms = np.arange(1, len(weights) + 1)
    flat = (3 * n + 2 * len(weights) + 22 + chunks) * float(np.sum(weights))
    slope = 4.0 * math.log(bound) * float(np.sum(weights * ms))
    return _EPS * lam * (flat + slope * (sigma + tau))


def _series(coeffs: np.ndarray, moments: np.ndarray, v: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m-1] sum_j W[m-1, j] E_j^m per tau, E_j = e^(-i tau v_j):
    Horner in E, then a sum over the points along each row (one tau)."""
    e = np.exp(-1j * np.outer(taus, v))
    c = coeffs[:, None] * moments
    acc = c[-1] * e
    for row in c[-2::-1]:
        acc += row
        acc *= e
    return acc.sum(axis=1)
