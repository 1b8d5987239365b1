"""Riemann zeta near the 1-line: Euler-Maclaurin evaluation, the regular
factor (s-1)*zeta(s), and the Vinogradov-Korobov bound check.

Euler-Maclaurin with Bernoulli corrections through B12 and cutoff
M = max(20, 2|Im s|) keeps the first omitted term below 1e-12 * |zeta(s)|
for |Im s| <= 1e6 (the estimate is returned, not assumed).  One
vectorised Euler-Maclaurin serves every caller: a scalar zeta, the
Stieltjes ring, and the batches of zeta(n s) behind the prime-zeta h tail
(euler_products.h_tail_log_values).  Near s = 1 the regular factor
switches to the Stieltjes expansion

    (s-1) zeta(s) = 1 + sum_{n>=0} (-1)^n gamma_n (s-1)^{n+1} / n!

cut after gamma_5, whose constants are self-computed from Euler-Maclaurin
values by a Cauchy circle integral rather than copied from tables, once per
process and kept in memory.  Its error estimate is the first omitted term,
|gamma_6| / 6! |s-1|^7, with gamma_6 from the same integral.

On the main-term contour s = 1 + i tau, |tau| <= 3, the regular factor
A = (s-1) zeta(s) depends on tau alone, so log A is one Chebyshev model per
process (log_regular_model), built from one batch of zeta values.
regular_factor_path, the per-N unwrapped path, is its reference route.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .branching import BranchedPath, build_branched_path
from .errors import PrecisionLoss, ToleranceUnachievable, UnwrapError

# B_{2j} for j = 1..7; B14 only feeds the error estimate
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_N_CORRECTIONS = 6

LAURENT_RADIUS = 0.05
_LAURENT_TERMS = 6  # Stieltjes constants in the expansion near s = 1
MAX_IM = 1.0e7
FORD_VK_CONSTANT = 76.2

_CHUNK = 1_000_000

_LOG_A_DEGREE = 64  # Chebyshev degree of the log A model on |tau| <= 3
_ZETA_ERR_MAX = 1e-13  # largest zeta err_estimate a model sample may carry
_MODEL_TAIL_MAX = 1e-13  # largest trailing Chebyshev coefficient of the model


@dataclass(frozen=True)
class ZetaValue:
    """zeta(s) together with the regular factor (s-1)*zeta(s).

    method is "euler_maclaurin" away from s=1 and "laurent" inside the
    Stieltjes disk; at s = 1 exactly only `regular` is defined (zeta is nan).
    """

    s: complex
    zeta: complex
    regular: complex
    method: str
    err_estimate: float


def _euler_maclaurin(s, m_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """zeta at every entry of the 1-d array s (Re s > 0, s != 1), all at one
    cutoff M = m_terms, with the first omitted Bernoulli term of each entry
    as its error estimate."""
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    M = m_terms
    total = np.zeros(len(s), dtype=np.complex128)
    chunk = max(1, _CHUNK // len(s))
    for lo in range(1, M, chunk):
        log_n = np.log(np.arange(lo, min(lo + chunk, M), dtype=np.float64))
        total += np.exp(-np.outer(s, log_n)).sum(axis=1)
    lm = math.log(M)
    total += np.exp((1.0 - s) * lm) / (s - 1.0) + 0.5 * np.exp(-s * lm)
    # Bernoulli corrections: B_{2j}/(2j)! * s(s+1)...(s+2j-2) * M^{-s-2j+1}
    rising = s
    fact = 1.0
    for j in range(1, _N_CORRECTIONS + 1):
        fact *= (2 * j - 1) * (2 * j)
        total += _BERNOULLI[j - 1] / fact * rising * np.exp((-s - 2 * j + 1) * lm)
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
    fact *= (2 * _N_CORRECTIONS + 1) * (2 * _N_CORRECTIONS + 2)
    tail = np.abs(_BERNOULLI[_N_CORRECTIONS] / fact * rising) * np.exp(
        (-s.real - 2 * _N_CORRECTIONS - 1) * lm
    )
    return total, tail


def _stieltjes_from_em(n_max: int, radius: float = 0.5, k: int = 256):
    """gamma_0..gamma_{n_max-1} via a Cauchy integral of (s-1)zeta(s) at s=1.

    Trapezoid on |s-1| = radius converges geometrically for this entire
    function; every sample is an Euler-Maclaurin value, so the constants are
    certified by the same engine they correct.
    """
    theta = 2.0 * np.pi * np.arange(k) / k
    ring = radius * np.exp(1j * theta)
    w = ring * _euler_maclaurin(1.0 + ring, 64)[0]
    gammas = []
    for n in range(n_max):
        m = n + 1  # Taylor coefficient index of (s-1)zeta(s)
        c = np.sum(w * np.exp(-1j * m * theta)) / (k * radius**m)
        gammas.append((-1) ** n * math.factorial(n) * complex(c).real)
    return gammas


@lru_cache(maxsize=1)
def _laurent_constants() -> tuple[float, ...]:
    # gamma_0..gamma_6: the expansion's terms and the first omitted one
    return tuple(_stieltjes_from_em(_LAURENT_TERMS + 1))


def stieltjes_constants(n_max: int = _LAURENT_TERMS) -> tuple[float, ...]:
    """gamma_0..gamma_{n_max-1}, n_max <= 7, computed once per process."""
    if not 0 < n_max <= _LAURENT_TERMS + 1:
        raise ValueError(f"n_max must lie in [1, {_LAURENT_TERMS + 1}]")
    return _laurent_constants()[:n_max]


def _regular_laurent(s: complex) -> tuple[complex, float]:
    """(s-1) zeta(s) from gamma_0..gamma_5, and the first omitted term
    |gamma_6| / 6! |s-1|^7 as its error estimate."""
    gammas = _laurent_constants()
    ds = s - 1.0
    total = 1.0 + 0.0j
    fact = 1.0
    power = ds  # ds^{n+1} at step n
    for n, g in enumerate(gammas[:_LAURENT_TERMS]):
        if n > 0:
            fact *= n
        total += (-1) ** n * g * power / fact
        power *= ds
    fact *= _LAURENT_TERMS
    return complex(total), abs(gammas[_LAURENT_TERMS]) / fact * abs(power)


def zeta(s: complex) -> ZetaValue:
    """Evaluate zeta(s) for Re(s) >= 1/2 (at s = 1 only `regular` is valid)."""
    s = complex(s)
    if s.real < 0.5:
        raise ValueError("only the half-plane Re(s) >= 1/2 is supported")
    if abs(s.imag) > MAX_IM:
        raise PrecisionLoss(f"|Im s| > {MAX_IM:g} exceeds the certified range")
    if abs(s - 1.0) < LAURENT_RADIUS:
        reg, err = _regular_laurent(s)
        z = reg / (s - 1.0) if s != 1.0 else complex(float("nan"), float("nan"))
        return ZetaValue(s, z, reg, "laurent", err)
    z, tail = _euler_maclaurin(s, max(20, int(math.ceil(2 * abs(s.imag)))))
    z = complex(z[0])
    return ZetaValue(s, z, (s - 1.0) * z, "euler_maclaurin", float(tail[0]))


def _log_regular_vec(xs: np.ndarray, log_n: float) -> np.ndarray:
    out = np.empty(len(xs), dtype=np.complex128)
    for i, x in enumerate(xs):
        out[i] = np.log(zeta(1.0 + 1j * float(x) / log_n).regular)
    return out


def regular_factor_path(path_xs, log_n: float) -> BranchedPath:
    """Unwrapped log of A(x) = (s-1)zeta(s), s = 1 + ix/log N, anchored at
    A(0) = 1.  A is nonvanishing on the path since zeta(1+it) != 0."""
    if log_n <= 0:
        raise ValueError("log N must be positive")
    return build_branched_path(
        lambda xs: _log_regular_vec(xs, log_n),
        path_xs,
        anchor_x=0.0,
        anchor_log=0.0 + 0.0j,
    )


@lru_cache(maxsize=1)
def log_regular_model() -> tuple[np.ndarray, float]:
    """Chebyshev model of t -> log A(1 + 3it) on [-1, 1], A = (s-1) zeta(s).

    Query at t = tau / 3 = x / (3 log N).  The principal log is the
    continuous one: every sample has |arg A| < pi/2 (the maximum on the
    segment is 1.40), checked here.  Returns (coeffs, uniform_abs_error),
    the error being the coefficient tail plus the zeta error estimates
    carried to log A and amplified by the Lebesgue constant.  Raises
    PrecisionLoss when a sample's zeta error estimate exceeds _ZETA_ERR_MAX
    and ToleranceUnachievable when the coefficient tail exceeds
    _MODEL_TAIL_MAX.
    """
    # first-kind nodes t_j = cos theta_j, with cos(k theta_j) from angles
    # reduced mod 2 pi in integers: numpy's chebinterpolate builds T_k(t_j)
    # by recurrence, which left 8e-14 of noise at the ends of the model
    n = _LOG_A_DEGREE + 1
    j = np.arange(n)
    cos_kj = np.cos(np.pi * (np.outer(j, 2 * j + 1) % (4 * n)) / (2 * n))
    ts = cos_kj[1]
    a_vals = np.empty(n, dtype=np.complex128)
    log_err = 0.0
    for i, t in enumerate(ts):
        zv = zeta(1.0 + 3j * float(t))
        if not zv.err_estimate <= _ZETA_ERR_MAX:
            raise PrecisionLoss(
                f"zeta error estimate {zv.err_estimate:.1e} at s = {zv.s} exceeds "
                f"{_ZETA_ERR_MAX:.0e}"
            )
        a_vals[i] = zv.regular
        log_err = max(log_err, zv.err_estimate * max(1.0, abs(3.0 * t)) / abs(zv.regular))
    logs = np.log(a_vals)
    if np.max(np.abs(logs.imag)) >= 0.5 * math.pi:
        raise UnwrapError("|arg A| reaches pi/2 on |tau| <= 3")
    coeffs = (2.0 / n) * (cos_kj @ logs)
    coeffs[0] *= 0.5
    tail = float(np.max(np.abs(coeffs[-4:])))
    if tail > _MODEL_TAIL_MAX:
        raise ToleranceUnachievable(
            f"log A model tail {tail:.1e} exceeds {_MODEL_TAIL_MAX:.0e} at degree "
            f"{_LOG_A_DEGREE}"
        )
    lebesgue = 2.0 / math.pi * math.log(n) + 1.0
    coeffs.setflags(write=False)
    return coeffs, float(np.sum(np.abs(coeffs[-4:]))) + lebesgue * log_err


@dataclass(frozen=True)
class VKReport:
    t: float
    zeta_abs: float
    bound: float
    passed: bool


def vk_check(t: float) -> VKReport:
    """Check |zeta(1+it)| <= 76.2 * (log|t|)^(2/3) (Ford's explicit constant)."""
    t = float(t)
    if abs(t) < 3.0:
        raise ValueError("the bound is stated for |t| >= 3")
    lhs = abs(zeta(1.0 + 1j * t).zeta)
    rhs = FORD_VK_CONSTANT * math.log(abs(t)) ** (2.0 / 3.0)
    return VKReport(t, lhs, rhs, lhs <= rhs)
