"""Chebyshev interpolation at the extreme points cos(pi j/n), j = 0..n, for the
h and log A models (asymptotic._h_contour) and the prime moments.  ATAP is
Trefethen, Approximation Theory and Approximation Practice."""

import math

import numpy as np

_UNIT = 0.5 * float(np.finfo(np.float64).eps)


def points(n: int) -> np.ndarray:
    """The n + 1 extreme points from 1 down to -1; for n a power of two, bit for
    bit the even points of 2n."""
    return np.cos(np.pi / n * np.arange(n + 1))


def barycentric_row(t, points) -> np.ndarray:
    """Each t's Lagrange basis row on the Chebyshev extreme points, by the second
    barycentric form (Berrut and Trefethen, SIAM Review 46, 2004); a t on a point
    gets its unit row.  Rows are summed one by one: no bit depends on the batch."""
    weights = np.ones(len(points))
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    diff = np.asarray(t, dtype=np.float64)[:, None] - points
    with np.errstate(divide="ignore", invalid="ignore"):
        row = weights / diff
        total = row.sum(axis=1)  # infinite only where t is on a point
        row /= total[:, None]
    on_point = ~np.isfinite(total)
    if on_point.any():
        row[on_point] = diff[on_point] == 0.0
    return row


def lebesgue(n):
    """A bound on the Lebesgue constant max_t sum_j |l_j(t)| (ATAP Thm 15.2)."""
    return 2.0 / math.pi * np.log(n + 1) + 1.0


def row_rounding(n):
    """(6n + 6) u lebesgue(n), Higham's constant for the second barycentric form
    (IMA J. Numer. Anal. 24, 2004): bounds sum_j |l^_j - l_j| of a computed row,
    and sum_j l^_j y_j's distance from sum_j l_j y_j over max |y_j|.  Each
    w_j/(t - x_j) rounds twice, their sum within n u L |sum|, L = sum_j |l_j|,
    and the quotient once: the row is off by L (3 + (n + 2) L) u to first
    order, within the bound for n <= 2048; the sum with y adds n u L max |y|,
    within it for n <= 512."""
    return (6 * n + 6) * _UNIT * lebesgue(n)


def truncation(values, deg: int) -> tuple[float, float]:
    """(E, 2 E r/(1 - r)) of the interpolant through values at the extreme points,
    E its last coefficients' size (one FFT of the even extension: a DCT-I).
    Estimates, not bounds: the interpolant is off by at most 2 sum_{j>n} |a_j|
    (ATAP Thm 4.2), and analytic coefficients decay like r^j (Thm 8.1), r read
    off their envelope from n/2 to n, at most 1 - 1/n where it sits at rounding."""
    coeffs = np.fft.fft(np.concatenate((values, values[-2:0:-1])))[: deg + 1] / deg
    coeffs[[0, deg]] *= 0.5
    tail = float(np.max(np.abs(coeffs[-4:])))
    mid = float(np.max(np.abs(coeffs[deg // 2 - 3 : deg // 2 + 1])))
    r = min((tail / max(mid, tail, 1e-300)) ** (2.0 / deg), 1.0 - 1.0 / deg)
    return tail, 2.0 * tail * r / (1.0 - r)


def ellipse_bound(n, rho, log_m):
    """4 M rho^(-n)/(rho - 1), M = e^log_m, inf where it overflows: the degree-n
    interpolant's error on [-1, 1] for a function analytic in the Bernstein
    ellipse E_rho with |f| <= M there (ATAP Thm 8.2)."""
    with np.errstate(over="ignore", under="ignore"):
        return 4.0 * np.exp(log_m - n * np.log(rho)) / (rho - 1.0)
