"""Riemann zeta near the 1-line: the regular factor A(s) = (s-1) zeta(s)
by one pole-free Euler-Maclaurin sum, and the Vinogradov-Korobov bound
check.

The paper's main term integrates A^alpha, so A is the object computed.
Euler-Maclaurin with Bernoulli corrections through B12 at cutoff M,
multiplied by (s-1) before it is evaluated, reads

    A(s) = (s-1) [ sum_{n<M} n^{-s} + M^{-s}/2 + Bernoulli terms ] + M^{1-s},

which has no pole and equals 1 exactly at s = 1; zeta = A/(s-1) wherever
s != 1.  The returned error bounds truncation and rounding together: |s-1|
times the first omitted Bernoulli term, below 1e-12 * |A| for
M >= max(20, 2|Im s|) and |Im s| <= 1e6, plus a bound on the rounding of
the ~M terms, their sum and the assembly, which sets the error on the
1-line (about 4e-14 relative at s = 1 + 3i and 2e-11 at 1 + 1000i).  One
vectorised sum serves every caller: a scalar zeta, the batches of zeta(n s)
behind the prime-zeta h tail (euler_products.h_tail_log_values), the main
term's log A samples and integer-route nodes, regular_factor_path's
unwrapped grids.  Each entry takes its own M (_cutoffs) and its sum runs
over a fixed chunking of n, so an entry has the same bits in any batch.
The sum is the one range check: it refuses |Im s| > MAX_IM = 1e7 (or NaN)
with PrecisionLoss, before its cutoff M ~ 2|Im s| grows, for every caller.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .branching import BranchedPath, build_branched_path
from .errors import PrecisionLoss

# B_{2j} for j = 1..7; B14 only feeds the error estimate
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_N_CORRECTIONS = 6

MAX_IM = 1.0e7
FORD_VK_CONSTANT = 76.2

_TERM_CHUNK = 4096  # terms n per chunk of the sum: an entry's sum never depends on its batch
_CHUNK_BUDGET = 1 << 16  # complex scratch entries per block of entries and terms

_UNIT = 2.0**-53  # unit roundoff of a double


@dataclass(frozen=True)
class ZetaValue:
    """zeta(s) together with the regular factor A = (s-1)*zeta(s).

    err_estimate bounds A's truncation and rounding (zeta's error is
    err_estimate/|s-1|); at s = 1 exactly only `regular` is defined (zeta is nan).
    """

    s: complex
    zeta: complex
    regular: complex
    err_estimate: float


def _cutoffs(s: np.ndarray) -> np.ndarray:
    """The Euler-Maclaurin cutoff of each entry: M = max(20, ceil(2 |Im s|))
    rounded up to a multiple of 4, so a batch of entries spread in Im s
    falls into a quarter as many groups of one M (the main term's |Im s| <= 3 keeps 20)."""
    return np.maximum(20, 4.0 * np.ceil(0.5 * np.abs(s.imag))).astype(np.int64)


def _euler_maclaurin(s, m_terms: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A(s) = (s-1) zeta(s) at every entry of the 1-d array s (Re s > 0),
    each at its own cutoff M (_cutoffs, or m_terms for every entry), with a
    bound on each entry's error: |s-1| times the first omitted Bernoulli
    term, plus the rounding.  The entries of one M sum n^(-s) over fixed
    chunks of _TERM_CHUNK terms, so an entry has the same bits in any batch.
    Raises PrecisionLoss where an entry's |Im s| exceeds MAX_IM or is NaN."""
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    if not np.all(np.abs(s.imag) <= MAX_IM):  # also refuses NaN
        raise PrecisionLoss(f"|Im s| > {MAX_IM:g} exceeds the certified range")
    cutoffs = np.full(len(s), m_terms) if m_terms else _cutoffs(s)
    total = np.zeros(len(s), dtype=np.complex128)
    mass = np.zeros(len(s))  # sum of n^(-Re s) over n < M
    moment = np.zeros(len(s))  # sum of n^(-Re s) log n over n < M
    lm = np.empty(len(s))
    for M in sorted(set(cutoffs.tolist())):
        sel = np.flatnonzero(cutoffs == M)
        lm[sel] = math.log(M)
        rows = max(1, _CHUNK_BUDGET // min(M, _TERM_CHUNK))
        for lo in range(1, M, _TERM_CHUNK):
            log_n = np.log(np.arange(lo, min(lo + _TERM_CHUNK, M), dtype=np.float64))
            for a in range(0, len(sel), rows):
                block = sel[a : a + rows]
                total[block] += np.exp(-np.outer(s[block], log_n)).sum(axis=1)
                size = np.exp(-np.outer(s[block].real, log_n))
                mass[block] += size.sum(axis=1)
                moment[block] += (size * log_n).sum(axis=1)
    total += 0.5 * np.exp(-s * lm)
    ends = 0.5 * np.exp(-s.real * lm)  # modulus of the half term and the corrections
    # Bernoulli corrections: B_{2j}/(2j)! * s(s+1)...(s+2j-2) * M^{-s-2j+1}
    rising = s
    fact = 1.0
    for j in range(1, _N_CORRECTIONS + 1):
        fact *= (2 * j - 1) * (2 * j)
        term = _BERNOULLI[j - 1] / fact * rising * np.exp((-s - 2 * j + 1) * lm)
        total += term
        ends += np.abs(term)
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
    fact *= (2 * _N_CORRECTIONS + 1) * (2 * _N_CORRECTIONS + 2)
    ds = s - 1.0
    tail = np.abs(ds * _BERNOULLI[_N_CORRECTIONS] / fact * rising) * np.exp(
        (-s.real - 2 * _N_CORRECTIONS - 1) * lm
    )
    # rounding, first order in the unit roundoff u, with numpy's log, exp,
    # cos and sin within one ulp: a term n^(-s) is off by below
    # (5|s| log n + 6) u relative, the half term or a correction by below
    # ((5|s| + 33) log M + 50) u, and each passes through at most M + 6
    # additions; the product with s-1 and the last addition add 4 u, and
    # M^(1-s) carries below (6|s-1| log M + 6) u.  At s = 1 the assembly
    # 0 * total + e^0 = 1 is exact.
    sums = 5.0 * np.abs(s) * (moment + lm * ends) + (cutoffs + 16) * (mass + ends)
    sums += (33.0 * lm + 50.0) * ends
    far = np.exp(-ds.real * lm)  # |M^(1-s)|
    rounding = np.where(ds == 0, 0.0, _UNIT * (np.abs(ds) * (sums + 6.0 * lm * far) + 6.0 * far))
    return ds * total + np.exp(-ds * lm), tail + rounding


@lru_cache(maxsize=1)
def stieltjes_constants() -> tuple[float, ...]:
    """gamma_0..gamma_5, from a Cauchy integral of A at s = 1.

    gamma_n = (-1)^n n! times A's Taylor coefficient of (s-1)^(n+1); the
    trapezoid rule on |s-1| = 1/2 converges geometrically for this entire
    function.  Computed once per process; no library code calls it, the
    benchmark worker warms it.
    """
    k, radius = 256, 0.5
    theta = 2.0 * np.pi * np.arange(k) / k
    a = _euler_maclaurin(1.0 + radius * np.exp(1j * theta), 64)[0]
    gammas = []
    for n in range(6):
        coeff = np.sum(a * np.exp(-1j * (n + 1) * theta)).real / (k * radius ** (n + 1))
        gammas.append((-1) ** n * math.factorial(n) * float(coeff))
    return tuple(gammas)


def zeta(s: complex) -> ZetaValue:
    """Evaluate zeta(s) for Re(s) >= 1/2 (at s = 1 only `regular` is valid)."""
    s = complex(s)
    if s.real < 0.5:
        raise ValueError("only the half-plane Re(s) >= 1/2 is supported")
    a, err = _euler_maclaurin(s)
    a = complex(a[0])
    z = a / (s - 1.0) if s != 1.0 else complex(float("nan"), float("nan"))
    return ZetaValue(s, z, a, float(err[0]))


def regular_factor_path(path_xs, log_n: float) -> BranchedPath:
    """Unwrapped log of A(x) = (s-1)zeta(s), s = 1 + ix/log N, anchored at
    A(0) = 1.  A is nonvanishing on the path since zeta(1+it) != 0.  Each
    grid the unwrapping asks for is one Euler-Maclaurin batch."""
    if log_n <= 0:
        raise ValueError("log N must be positive")

    def log_a(xs):
        s = 1.0 + 1j * np.asarray(xs, dtype=np.float64) / log_n
        return np.log(_euler_maclaurin(s)[0])

    return build_branched_path(log_a, path_xs, anchor_x=0.0, anchor_log=0.0 + 0.0j)


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
