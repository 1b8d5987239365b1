"""The Dickman function rho, its Laplace transform, and its unwrapped log.

rho solves the delay differential equation u*rho'(u) + rho(u-1) = 0 with
rho = 1 on (0, 1].  It is built interval by interval from the equivalent
integral form rho(u) = rho(m) - int_m^u rho(t-1)/t dt, one Chebyshev series
per unit interval (rho is analytic in each open interval, so the series
converges geometrically and its coefficient tail certifies the error).
default_table builds the table once per process and keeps it in memory.

The Laplace transform on the imaginary axis is evaluated through
s*rhohat(s) = exp(-J(s)), with J(s) = int_0^inf exp(-s-t)/(s+t) dt; J is
holomorphic off the cut (-inf, 0].  J is the exponential integral E1, and
E1(s) = Ein(s) - gamma - log s with Ein entire (Abramowitz-Stegun 5.1.39),
so log rhohat(s) = gamma - Ein(s) is the continuous log anchored at
rhohat(0) = e^gamma.  log_rho_hat_ix evaluates it on the imaginary axis,
gamma - Cin(x) - i Si(x), from degree-32 Chebyshev interpolants with a
certified interpolation bound: Ein on [0, 4], and e^{ix} E1(ix) on each
[2^{j+1}, 2^{j+2}] beyond, each sampled on first use (Ein's power series,
E1's continued fraction at one fixed depth) and kept.  An entry's bits
depend on x alone.  It defines the fractional powers rhohat(ix)^alpha and
serves every production caller.  rho_hat (quadrature for J) and
rho_hat_path (phase unwrapping) are the independent reference route: the
gate's criteria 3 and 9 and the tests.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .branching import BranchedPath, build_branched_path
from .cheb import barycentric_row, points
from .errors import DomainError, ToleranceUnachievable
from .quadrature import integrate_adaptive

# Euler-Mascheroni constant.  exp(EULER_GAMMA) equals int_0^inf rho(u) du;
# the acceptance suite re-derives it from the table to confirm provenance.
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992
EXP_EULER_GAMMA = math.exp(EULER_GAMMA)

_MAX_CHEB_DEGREE = 96
_SERIES_RADIUS = 4.0  # |s| below which the -gamma - log s + sum series is used
_EIN_TERMS = 34  # 4^34 / (34 * 34!) < 1e-18: the series is exact to rounding
_CF_DEPTH = 50  # E1 fraction depth: within 1e-15 of 30 digits for |s| > 4 (40 reaches 1.3e-15)
_POINTS = points(32)  # the Chebyshev points of each log_rho_hat_ix interval
_J_TOL = 1e-13  # quadrature tolerance of expint_J beyond the series radius


@dataclass(frozen=True)
class DickmanTable:
    """Piecewise-Chebyshev representation of rho on [0, u_max], immutable."""

    u_max: float
    tol: float
    coeffs: tuple  # coeffs[m-1] covers [m, m+1]

    def rho(self, u):
        """rho(u) for u in [0, u_max]; exact 1 on [0, 1]."""
        uq = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if uq.min() < 0 or uq.max() > self.u_max + 1e-12:
            raise ValueError("u outside [0, u_max]")
        out = np.ones_like(uq)
        above = uq > 1.0
        if np.any(above):
            m = np.minimum(np.floor(uq[above]).astype(int), len(self.coeffs))
            vals = np.empty(int(above.sum()))
            for piece in np.unique(m):
                sel = m == piece
                t = 2.0 * (uq[above][sel] - piece) - 1.0
                vals[sel] = cheb.chebval(t, self.coeffs[piece - 1])
            out[above] = vals
        return out if np.ndim(u) else float(out[0])

    def integral(self) -> float:
        """int_0^u_max rho(u) du, from the stored series (exact per piece)."""
        total = 1.0  # the [0, 1] block
        for c in self.coeffs:
            anti = cheb.chebint(c)
            total += 0.5 * (cheb.chebval(1.0, anti) - cheb.chebval(-1.0, anti))
        return total


def _build_piece(prev_eval, m: int, rho_m: float, tol: float):
    """Chebyshev series of rho on [m, m+1] given rho on [m-1, m]."""

    def integrand(t):  # t in [-1, 1] mapped to u in [m, m+1]
        u = m + 0.5 * (t + 1.0)
        return prev_eval(u - 1.0) / u

    deg = 24
    while deg <= _MAX_CHEB_DEGREE:
        c = cheb.chebinterpolate(integrand, deg)
        tail = float(np.max(np.abs(c[-4:])))
        if tail <= 0.01 * tol:
            anti = 0.5 * cheb.chebint(c)  # d(u) = 0.5 d(t)
            anti[0] -= cheb.chebval(-1.0, anti)  # vanish at u = m
            out = -anti
            out[0] += rho_m
            return out, tail
        deg *= 2
    raise ToleranceUnachievable(
        f"Chebyshev degree cap {_MAX_CHEB_DEGREE} cannot certify tol={tol} on "
        f"[{m}, {m + 1}]"
    )


def build_rho(u_max: float, tol: float) -> DickmanTable:
    """Build rho on [0, u_max] with certified absolute error <= tol."""
    if u_max < 1:
        raise ValueError("u_max must be >= 1")
    if not 0 < tol <= 1e-4:
        raise ValueError("tol must lie in (0, 1e-4]")
    pieces = []
    err = 0.0
    rho_m = 1.0
    for m in range(1, int(np.ceil(u_max))):
        if m == 1:
            prev = lambda u: np.ones_like(np.asarray(u, dtype=float))
        else:
            cm = pieces[m - 2]
            prev = lambda u, cm=cm, m=m: cheb.chebval(2.0 * (u - (m - 1)) - 1.0, cm)
        c, tail = _build_piece(prev, m, rho_m, tol)
        # inherited error grows by at most int_m^{m+1} dt/t when fed forward
        err = err * (1.0 + math.log((m + 1) / m)) + tail
        if err > tol:
            raise ToleranceUnachievable(
                f"accumulated error bound {err:.3e} exceeds tol={tol} at u={m + 1}"
            )
        pieces.append(c)
        rho_m = float(cheb.chebval(1.0, c))

    return DickmanTable(u_max, tol, tuple(pieces))


@lru_cache(maxsize=1)
def default_table() -> DickmanTable:  # rho on [0, 45] to 1e-10
    return build_rho(45.0, 1e-10)


def _expint_series(s: complex) -> complex:
    # J(s) = -gamma - log s + sum_{m>=1} (-1)^{m+1} s^m / (m * m!)
    acc = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(1, 300):
        term *= -s / m
        contrib = -term / m
        acc += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(acc)):
            break
    return -EULER_GAMMA - np.log(complex(s)) + acc


def expint_J(s: complex) -> complex:
    """J(s) = int_0^inf exp(-s-t)/(s+t) dt, holomorphic off (-inf, 0].

    Beyond the series radius the defining integral is taken along the ray
    t = e^{i phi} tau with phi = sign(Im s) pi/4 (0 for real s), which keeps
    the pole at t = -s a distance >= |s| sin(pi/4) from the contour even
    arbitrarily close to the cut; the rotation is justified by the decay of
    exp(-t) across the sector.  integrate_adaptive takes it to _J_TOL = 1e-13
    from its 8 seed panels.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0:
        raise DomainError("J is not defined on the branch cut (-inf, 0]")
    if abs(s) <= _SERIES_RADIUS:
        return _expint_series(s)
    if s.imag == 0.0:
        rot = 1.0 + 0.0j
        upper = 60.0  # tail < e^-60 / |s + 60|
    else:
        rot = np.exp(1j * math.copysign(math.pi / 4.0, s.imag))
        upper = 85.0  # e^{-85 cos(pi/4)} < 1e-26

    def f(t):  # a closed form, exact up to rounding: its error term is 0
        return rot * np.exp(-rot * t) / (s + rot * t), np.zeros_like(t)

    res, _ = integrate_adaptive(f, 0.0, upper, _J_TOL)
    return np.exp(-s) * res.value


@dataclass(frozen=True)
class RhoHatValue:
    """rhohat at a point of the imaginary axis, with its branch-ready log."""

    s: complex
    value: complex
    log_value: complex


# sized to the working sets: criterion 9 reuses 300 x, a 161-point
# rho_hat_path 321, and no tier-1 test reaches 2,048 distinct x
@lru_cache(maxsize=2048)
def _log_rho_hat(x: float) -> complex:
    if x == 0.0:
        return complex(EULER_GAMMA)
    s = 1j * x
    # -J(s) - Log(s) is continuous through x = 0 (the Log jumps cancel)
    return complex(-expint_J(s) - np.log(s))


def rho_hat(x: float) -> RhoHatValue:
    """rhohat(ix) = exp(-J(ix))/(ix) for x != 0, and the limit e^gamma at 0."""
    x = float(x)
    lv = _log_rho_hat(x)
    return RhoHatValue(1j * x, complex(np.exp(lv)), lv)


def rho_hat_path(path_xs) -> BranchedPath:
    """Unwrapped log of rhohat(ix) along a grid, anchored at rhohat(0)=e^gamma."""
    return build_branched_path(
        lambda xs: np.array([_log_rho_hat(float(x)) for x in np.atleast_1d(xs)]),
        path_xs,
        anchor_x=0.0,
        anchor_log=complex(EULER_GAMMA),
    )


@lru_cache(maxsize=None)  # at most 1,023 intervals
def _piece(j: int) -> np.ndarray:
    """Samples at _POINTS of Ein(ix) on I_0 (j = 0), by its power series, or of
    q(x) = e^{ix} E1(ix) on I_j, by E1's continued fraction at the fixed depth
    _CF_DEPTH, bottom-up; each interval is built on first use and kept."""
    if j == 0:
        minus_z = -2j * (_POINTS + 1.0)
        term, ein = np.ones_like(minus_z), np.zeros_like(minus_z)
        for m in range(1, _EIN_TERMS + 1):  # Ein(z) = sum (-1)^{m+1} z^m / (m m!)
            term *= minus_z / m
            ein -= term / m
        return ein
    with np.errstate(over="ignore"):  # I_1022's top node 2^1024 is taken at the largest double
        z = 1j * np.minimum(np.ldexp(_POINTS + 3.0, j), np.finfo(np.float64).max)
    t = z + (2 * _CF_DEPTH + 1)
    for i in range(_CF_DEPTH, 0, -1):  # q = 1/t, t <- z + 2i - 1 - i^2 / t
        np.divide(-float(i * i), t, out=t)
        t += z
        t += 2 * i - 1
    return 1.0 / t


def log_rho_hat_ix(xs) -> np.ndarray:
    """log rhohat(ix) = gamma - Ein(ix) = gamma - Cin(x) - i Si(x), vectorised.

    Degree-32 Chebyshev interpolants read through one barycentric row
    per entry: Ein(ix) on I_0 = [0, 4] (coordinate x/2 - 1), and q(x) =
    e^{ix} E1(ix), smooth and of size 1/x, on each I_j = [2^{j+1}, 2^{j+2}],
    j >= 1 (coordinate x/2^j - 3, exact), where log rhohat(ix) = -e^{-ix}
    q(x) - log(ix).  Negative x take the conjugate.  E1's fraction is the
    one the acceptance suite's Lentz oracle runs forward.

    cheb.ellipse_bound (ATAP Thm 8.2) certifies the interpolation:
    |Ein(w)| <= e^{|w|} gives M = e^{2 + rho + 1/rho} on I_0, and rotating
    e^z E1(z) = int_0^inf e^{-zt}/(1 + t) dt onto t = -ir, |1 - ir| >= 1,
    gives |q(x)| <= 1/Re x, so M = 1/(2^j (3 - (rho + 1/rho)/2)) on I_j.
    The bound is below 1e-31 on I_0 at rho = 16 (4e-17 at rho = 4) and
    4.2e-20 on every I_j at rho = 4; with the samples' own error and the
    rounding, the result is within 2e-15 of 30 digits (tested), its bits
    free of the batch.  Ein is entire: this is the continuous log anchored
    at rhohat(0) = e^gamma, with no unwrapping.
    """
    x = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("log_rho_hat_ix needs finite x")
    ax = np.abs(x).ravel()
    near = ax <= _SERIES_RADIUS
    j = np.where(near, 0, np.frexp(ax)[1] - 2)  # 2^{j+1} <= |x| < 2^{j+2}
    t = np.where(near, 0.5 * ax - 1.0, np.ldexp(ax, -j) - 3.0)
    keys = sorted(set(j.tolist()))
    table = np.array([_piece(key) for key in keys]).reshape(len(keys), len(_POINTS))
    v = np.einsum("ij,ij->i", barycentric_row(t, _POINTS), table[np.searchsorted(keys, j)])
    v[near] = EULER_GAMMA - v[near]
    far = ax[~near]
    v[~near] = -np.exp(-1j * far) * v[~near] - (np.log(far) + 0.5j * math.pi)
    return np.where(x.ravel() < 0, v.conj(), v).reshape(x.shape)
