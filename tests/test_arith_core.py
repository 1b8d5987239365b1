import math

import numpy as np
import pytest

from smoothsum import (
    CountCapExceeded,
    DomainError,
    arith_core,
    enumerate_kfree_smooth,
    sieve_primes,
)
from smoothsum.dickman import default_table

# frozen against an independent largest-prime-factor sieve (see oracle below)
PSI_1E6_100 = 72271
PSI_1E5_100 = 17442
PSI_1E5_30 = 5158


def trial_division_primes(bound):
    out = []
    for n in range(2, bound + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def count_smooth(x, y):
    """Psi(x, y), the number of y-smooth integers <= x, by a walk over exact
    integers, so boundary cases like n = x are never lost to rounding."""
    xi = math.floor(x)
    pvals = [int(p) for p in sieve_primes(math.floor(y)).primes]

    def walk(start, n):
        total = 1  # n itself
        for j in range(start, len(pvals)):
            m = n * pvals[j]
            if m > xi:
                break
            while m <= xi:
                total += walk(j + 1, m)
                m *= pvals[j]
        return total

    return walk(0, 1)


def lpf_sieve_count(x, y):
    lpf = np.zeros(x + 1, dtype=np.int32)
    for p in range(2, x + 1):
        if lpf[p] == 0:
            lpf[p::p] = p
    return int(np.sum(lpf[1:] <= y))


def test_sieve_small():
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]
    assert list(sieve_primes(1).primes) == []
    assert list(sieve_primes(2).primes) == [2]


def test_sieve_against_trial_division():
    assert len(sieve_primes(100)) == 25
    assert list(sieve_primes(500).primes) == trial_division_primes(500)


def test_sieve_cache_slicing():
    big = sieve_primes(10**4)
    small = sieve_primes(97)
    assert small.bound == 97
    assert small.primes[-1] == 97
    assert len(small) == 25
    assert big.primes[: len(small)].tolist() == small.primes.tolist()


def terms(primes, k, log_cap, **kw):
    """(log n, Omega) pairs of every emitted block, in emission order."""
    return [
        (float(ln), int(om))
        for log_n, omega in enumerate_kfree_smooth(primes, k, log_cap, **kw)
        for ln, om in zip(log_n, omega)
    ]


def integers(pairs):
    return sorted((round(math.exp(ln)), om) for ln, om in pairs)


def trial_division_kfree(N, k, x):
    """(n, Omega(n)) for every k-free N-smooth n <= x, by trial division."""
    out = []
    for n in range(1, x + 1):
        m, exps, p = n, [], 2
        while p * p <= m:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                exps.append((p, e))
            p += 1
        if m > 1:
            exps.append((m, 1))
        if all(p <= N and e < k for p, e in exps):
            out.append((n, sum(e for _, e in exps)))
    return out


def test_enumerate_squarefree_count():
    pairs = terms(sieve_primes(10), 2, math.inf)
    assert len(pairs) == 16  # 2^4 subsets of {2,3,5,7}
    # every squarefree divisor of 210 appears exactly once
    assert [n for n, _ in integers(pairs)] == [
        n for n in range(1, 211) if 210 % n == 0 and all(n % (p * p) for p in (2, 3, 5, 7))
    ]


def test_enumerate_cubefree_count():
    assert len(terms(sieve_primes(10), 3, math.inf)) == 81  # 3^4 exponent patterns


def test_enumerate_log_cap_zero():
    assert terms(sieve_primes(100), 4, 0.0) == [(0.0, 0)]
    # a term on the cap is kept: log 4 = 2 log 2 exactly
    assert integers(terms(sieve_primes(2), 3, 2 * math.log(2))) == [(1, 0), (2, 1), (4, 2)]


def test_enumerate_full_tree_size():
    primes = sieve_primes(47)  # pi = 15
    assert sum(len(b[0]) for b in enumerate_kfree_smooth(primes, 2, math.inf)) == 2**15


def test_element_invariants(monkeypatch):
    """The emitted (n, Omega) multiset is exactly the trial-division one,
    also when tiny blocks force many splits."""
    blocks = (arith_core.BLOCK_TERMS, 7)
    for N, k, x in ((30, 3, 5000), (20, 2, 10_000), (13, 4, 3000), (50, 2, 20_000), (7, 5, 10**5)):
        expected = trial_division_kfree(N, k, x)
        for block in blocks:
            monkeypatch.setattr(arith_core, "BLOCK_TERMS", block)
            # x + 1/2 keeps every log n clear of the cap
            assert integers(terms(sieve_primes(N), k, math.log(x + 0.5))) == expected


def test_enumeration_deterministic():
    args = (sieve_primes(100), 2, 3 * math.log(100))
    assert terms(*args) == terms(*args)
    assert len(list(enumerate_kfree_smooth(*args))) > 1  # several blocks


def test_count_cap():
    with pytest.raises(CountCapExceeded):
        list(enumerate_kfree_smooth(sieve_primes(100), 3, math.inf))
    with pytest.raises(CountCapExceeded):
        list(enumerate_kfree_smooth(sieve_primes(30), 2, math.inf, count_cap=100))
    # under a finite cap the count is only known once the blocks are built
    with pytest.raises(CountCapExceeded):
        list(enumerate_kfree_smooth(sieve_primes(100), 2, 3 * math.log(100), count_cap=100))


def test_count_smooth_small():
    assert count_smooth(10, 10) == 10  # every n <= 10 is 10-smooth
    assert count_smooth(100, 3) == 20  # powers 2^a 3^b <= 100
    assert count_smooth(1, 2) == 1
    # enumerate 2^a 3^b directly as the oracle
    direct = sum(
        1
        for a in range(8)
        for b in range(5)
        if 2**a * 3**b <= 100
    )
    assert direct == 20


def test_count_smooth_against_lpf_sieve():
    assert count_smooth(10**5, 100) == lpf_sieve_count(10**5, 100) == PSI_1E5_100
    assert count_smooth(10**5, 30) == PSI_1E5_30
    assert count_smooth(10**6, 100) == PSI_1E6_100


def test_count_smooth_monotone():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = float(rng.integers(10, 3000))
        y = float(rng.integers(2, 60))
        base = count_smooth(x, y)
        assert count_smooth(x + rng.integers(1, 500), y) >= base
        assert count_smooth(x, y + rng.integers(1, 30)) >= base


def test_hildebrand_shape():
    """Psi(x, x^{1/3}) / (x rho(3)) approaches 1 from above as y grows; the
    correction scale is log(u+1)/log y, so desk-size y sits well above 1."""
    table = default_table()
    r3 = table.rho(3.0)
    ratios = [
        count_smooth(10**4, 10 ** (4 / 3)) / (10**4 * r3),
        count_smooth(10**6, 100.0) / (10**6 * r3),
        count_smooth(10**8, 10 ** (8 / 3)) / (10**8 * r3),
    ]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[1] == pytest.approx(PSI_1E6_100 / (10**6 * r3))
    # Hildebrand's relative error at (1e6, 100) is ~1.6 * log(4)/log(100)
    assert ratios[1] - 1.0 < 2.0 * math.log(4.0) / math.log(100.0)


def _check_split_sum(block):
    """split_sum's head + residual is within its bound plus the last
    rounding of the exactly rounded sum, part by part."""
    block = np.asarray(block, dtype=np.complex128)
    head, residual, bound = arith_core.split_sum(block)
    for part in ("real", "imag"):
        got = math.fsum([getattr(head, part), getattr(residual, part)])
        ref = math.fsum(getattr(block, part).tolist())
        assert abs(got - ref) <= bound + arith_core.UNIT * abs(ref), (part, got, ref)
    return head, residual, bound


def test_split_sum_cancellation():
    # plain summation gives 0 or 2 here; the extraction keeps both ones
    x = np.array([1e16, 1.0, -1e16, 1.0] * 64)
    assert x.sum() != 128.0
    head, residual, _ = _check_split_sum(x + 1j * x[::-1])
    assert head + residual == 128.0 + 128.0j


def test_split_sum_mixed_magnitudes():
    rng = np.random.default_rng(5)
    n = 5000
    mags = 10.0 ** rng.uniform(-30, 30, size=(2, n))
    signs = rng.choice([-1.0, 1.0], size=(2, n))
    x = mags[0] * signs[0] + 1j * mags[1] * signs[1]
    _check_split_sum(x)
    _check_split_sum(x * 1e-290)  # near the bottom of the range
    _check_split_sum(x * 1e270)  # sigma near the top


def test_split_sum_edge_sizes():
    head, residual, _ = _check_split_sum(np.zeros(17))
    assert head == residual == 0j
    head, residual, bound = _check_split_sum([math.pi - 1j / 3])
    assert head + residual == math.pi - 1j / 3
    assert bound == 0.0  # one term: its residual is summed without rounding
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16)
    _, _, bound = _check_split_sum(x)
    assert 0.0 < bound < 1e-15  # a plain sum: about 4e-7 a priori


def test_split_sum_refuses_nonfinite_and_overflow():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            arith_core.split_sum(np.array([1.0, bad * 1j]))
    with pytest.raises(DomainError):
        arith_core.split_sum(np.full(8, 1e308 + 0j))
