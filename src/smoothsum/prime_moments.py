"""Prime power sums sum_{floor < p <= bound} p^(-m s), m = 1..M, at many s on
one line Re s = sigma, through Chebyshev moments in log p (interpolate-then-
sum: Dutt and Rokhlin, SIAM J. Sci. Comput. 14, 1993), on `cheb`'s points
and rows.  With v = log p mapped onto [-1, 1], the phase e^(-i m tau v) is
replaced by its degree-n interpolant at the points v_j, so sum_p p^(-m s) is
sum_j W[m-1, j] e^(-i m tau v_j), with moments W[m-1, j] = sum_p p^(-m sigma)
l_j(v_p) that do not depend on tau: one cached pass over the primes, then
O(n M) per s in place of O(pi(bound)).  Each s takes the degree that the
ellipse bound certifies for it, so an s has the same bits in any batch.
`euler_products._factor_log_sum` sums its factor-log series above p = 1024
this way.
"""

import math
from functools import lru_cache

import numpy as np

from . import cheb
from .arith_core import sieve_primes

_CHUNK = 256  # primes per chunk of a build
_MIN_DEGREE = 32  # first rung of the doubling degree
_MAX_DEGREE = 2048  # the last, where cheb.row_rounding still bounds a row
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
    l_j the Lagrange basis on v (cheb.barycentric_row).  One pass over the
    primes in chunks of _CHUNK."""
    logp = _log_primes(floor, bound)
    mid, half = 0.5 * math.log(bound * floor), 0.5 * math.log(bound / floor)
    t_nodes = cheb.points(n)
    ms = np.arange(1, terms + 1)[:, None]
    moments = np.zeros((terms, n + 1))
    for lo in range(0, len(logp), _CHUNK):
        v = logp[lo : lo + _CHUNK]
        moments += np.exp(-sigma * ms * v) @ cheb.barycentric_row((v - mid) / half, t_nodes)
    return moments, mid + half * t_nodes


def _degrees(weights: np.ndarray, half: float, taus, count: int, target: float) -> np.ndarray:
    """Per s = sigma + i tau the smallest n = 32, 64, ..., _MAX_DEGREE below
    count with sum_m weights[m-1] E_n(m |tau| half) <= target, half the
    half-width of [log floor, log bound]; 0 where no such n is (the caller
    walks the primes there).  E_n(omega), the certified error of e^(-i omega t)'s
    interpolant, is cheb.ellipse_bound with M = e^(omega (rho - 1/rho)/2) at the
    best rho = (n + sqrt(n^2 - omega^2))/omega: infinite for omega >= n."""
    used = np.flatnonzero(weights)
    omega = np.maximum(np.outer(np.abs(taus), half * (used + 1)), 1e-300)
    degrees = np.zeros(len(taus), dtype=np.int64)
    n = _MIN_DEGREE
    while n < count and n <= _MAX_DEGREE:
        todo = np.flatnonzero(degrees == 0)
        if not len(todo):
            break
        w = omega[todo]
        with np.errstate(invalid="ignore"):  # no ellipse where omega >= n
            rho = (n + np.sqrt(n * n - w * w)) / w
            bound = np.where(w < n, cheb.ellipse_bound(n, rho, 0.5 * w * (rho - 1.0 / rho)), np.inf)
        err = (bound * weights[used]).sum(axis=1)
        degrees[todo[err <= target]] = n
        n *= 2
    return degrees


def _error(weights: np.ndarray, n, tau, sigma: float, bound: int, count: int) -> np.ndarray:
    """Rounding of sum_m e_m sum_j W[m-1, j] e^(-i m tau v_j) at degree n and
    |Im s| = tau (arrays, one entry per s), weights[m-1] = |e_m| S_m: sum_m
    weights[m-1] times cheb.row_rounding(n) for a basis row, plus, with
    lam = cheb.lebesgue(n), lam eps times: 4 m (sigma + tau) log(bound) for
    p^(-m sigma), the map to [-1, 1] and the phases e^(-i m tau v_j); the
    count of build chunks; 2 (M + n + 8) for the Horner sum in e^(-i tau v_j)
    and the sum over the n + 1 points."""
    n, tau = np.asarray(n, dtype=np.float64), np.asarray(tau, dtype=np.float64)
    chunks = -(-count // _CHUNK)
    ms = np.arange(1, len(weights) + 1)
    total = float(np.sum(weights))
    flat = (2 * n + 2 * len(weights) + 16 + chunks) * total
    slope = 4.0 * math.log(bound) * float(np.sum(weights * ms))
    return cheb.row_rounding(n) * total + _EPS * cheb.lebesgue(n) * (flat + slope * (sigma + tau))
