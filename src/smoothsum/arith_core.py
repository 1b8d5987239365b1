"""Primes, k-free smooth-integer enumeration, and the block sum.

A "k-free N-smooth" integer has every prime factor <= N and every exponent
<= k-1.  The enumeration never materializes an integer: it emits numpy
blocks of (log n, Omega(n)), since those are all that downstream sums need
and n itself can exceed 10^300.  extract_vector splits a block of terms
into an exactly summable head and a residual whose sum's rounding is
bounded; split_sum uses it to sum a complex block, and the oracle to sum
real terms per Omega class.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import CountCapExceeded, DomainError
from .params import check_alpha_k

DEFAULT_COUNT_CAP = 200_000_000
SIEVE_CAP = 10**8  # the largest bound sieve_primes takes: 0.1 GB of flags, 5.8M primes
BLOCK_TERMS = 4096  # blocks this large are split; larger ones raised peak memory
UNIT = 2.0**-53  # unit roundoff of a double
EXP_LOG_ERR = 8.0 * UNIT  # relative error of numpy's float64 exp and log, taken as 4 ulp


@dataclass(frozen=True)
class PrimeSet:
    """All primes <= bound, ascending. Immutable after construction."""

    bound: int
    primes: np.ndarray
    log_primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.primes.setflags(write=False)
        self.log_primes.setflags(write=False)

    def __len__(self) -> int:
        return len(self.primes)

    def restrict(self, bound: int) -> "PrimeSet":
        """The subset of primes <= bound (bound <= self.bound)."""
        if bound >= self.bound:
            return self
        cut = int(np.searchsorted(self.primes, bound, side="right"))
        return PrimeSet(bound, self.primes[:cut], self.log_primes[:cut])


_sieve_cache: list = []  # single largest PrimeSet computed so far


def sieve_primes(bound: int) -> PrimeSet:
    """Primes <= bound by Eratosthenes. bound < 2 gives the empty set.

    The largest sieve computed is cached and smaller requests are sliced
    from it, so repeated calls across a run cost one sieve.  A bound above
    SIEVE_CAP raises CountCapExceeded before anything is allocated.
    """
    bound = int(bound)
    if bound > SIEVE_CAP:
        raise CountCapExceeded(f"sieve bound {bound} exceeds the sieve cap {SIEVE_CAP}")
    if _sieve_cache and _sieve_cache[0].bound >= bound:
        return _sieve_cache[0].restrict(bound)
    if bound < 2:
        empty = np.array([], dtype=np.int64)
        return PrimeSet(bound, empty, empty.astype(np.float64))
    is_prime = np.ones(bound + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.nonzero(is_prime)[0].astype(np.int64)
    ps = PrimeSet(bound, primes, np.log(primes.astype(np.float64)))
    _sieve_cache[:] = [ps]
    return ps


def enumerate_kfree_smooth(
    primes: PrimeSet,
    k: int,
    log_cap: float,
    count_cap: int = DEFAULT_COUNT_CAP,
) -> Iterator[tuple]:
    """Every k-free n supported on `primes` with log n <= log_cap (n = 1
    included), as blocks of (log n, Omega(n)) arrays.

    The blocks are built level by level, primes largest first:
    each prime p appends the block shifted by e * log p for e = 1..k-1 where
    that stays <= log_cap.  A block that outgrows BLOCK_TERMS is split,
    and each piece goes on with the primes left, so memory stays bounded.
    The blocks and their order depend only on the arguments.
    """
    check_alpha_k(0, k)  # the k half of the shared (alpha, k) rule
    if log_cap < 0:
        raise ValueError("log_cap must be >= 0")
    if math.isinf(log_cap) and k ** len(primes) > count_cap:
        # without a cap there are exactly k^pi(N) terms; refuse up front
        raise CountCapExceeded(f"{k}^{len(primes)} terms exceed count cap {count_cap}")
    logs = primes.log_primes
    stack = [(np.array([0.0]), np.array([0]), len(logs))]
    emitted = 0
    while stack:
        log_n, omega, j = stack.pop()
        while j > 0 and len(log_n) <= BLOCK_TERMS:
            j -= 1
            parts_log, parts_omega = [log_n], [omega]
            for e in range(1, k):
                shifted = log_n + e * logs[j]
                keep = (shifted <= log_cap).nonzero()[0]
                if not len(keep):
                    break  # a larger e shifts further
                parts_log.append(shifted[keep])
                parts_omega.append(omega[keep] + e)
            if len(parts_log) > 1:
                log_n = np.concatenate(parts_log)
                omega = np.concatenate(parts_omega)
        if j > 0:  # too large to go on: continue each piece on its own
            for lo in reversed(range(0, len(log_n), BLOCK_TERMS)):
                hi = lo + BLOCK_TERMS
                stack.append((log_n[lo:hi], omega[lo:hi], j))
            continue
        emitted += len(log_n)
        if emitted > count_cap:
            raise CountCapExceeded(f"enumeration exceeded count cap {count_cap}")
        yield log_n, omega


def extract_vector(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(hi, lo, bound) with x = hi + lo exactly, for a float64 array of n
    terms along its first axis (a complex block is its (n, 2) real view).

    Rump, Ogita and Oishi's ExtractVector ("Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008): with every entry
    below 2^e in modulus, sigma = 2^(bitlen(n+2) + e) makes
    hi = (x + sigma) - sigma and lo = x - hi exact and puts every hi on the
    grid of 2^-53 sigma, so every partial sum of hi down a column, in any
    order and over any subset, is exact and below sigma.  Each
    |lo| <= 2^-53 sigma, so a sum of m <= n of them down a column is off by
    at most m/n of bound = gamma_(n-1) n 2^-53 sigma.  Raises DomainError on
    a non-finite entry or where sigma would overflow.
    """
    n = len(x)
    top = float(np.abs(x).max())
    if not math.isfinite(top):
        raise DomainError("a term of the sum is not finite")
    shift = (n + 2).bit_length() + math.frexp(top)[1]
    if shift > 1023:
        raise DomainError(f"terms up to {top:.3e} leave no room to split {n} of them")
    sigma = math.ldexp(1.0, shift)
    hi = x + sigma
    hi -= sigma
    lo = x - hi
    gamma = (n - 1) * UNIT / (1.0 - (n - 1) * UNIT)
    return hi, lo, gamma * n * UNIT * sigma


def split_sum(block: np.ndarray) -> tuple[complex, complex, float]:
    """(head, residual, bound) for the sum of a non-empty 1-d complex block:
    extract_vector on its real and imaginary parts at once.  head = sum hi
    is exact; residual = sum lo is off by at most the extraction's bound
    per part, and bound is twice that, covering the modulus.
    """
    x = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    hi, lo, bound = extract_vector(x)
    head = complex(hi.view(np.complex128).sum())
    residual = complex(lo.view(np.complex128).sum())
    return head, residual, 2.0 * bound
