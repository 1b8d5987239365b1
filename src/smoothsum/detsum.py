"""Deterministic floating-point accumulation helpers.

The quadrature panel sums and the oracle's term sums go through `fsum_real`
or `fsum_complex` (Euler products use their own fixed-chunk numpy sums).
math.fsum is exactly rounded, so the result does not depend on summation
order or thread count; that is what makes end-to-end byte-reproducibility
cheap to guarantee.
"""

import math

import numpy as np


def fsum_real(values) -> float:
    return math.fsum(values)


def fsum_complex(values) -> complex:
    arr = np.asarray(values, dtype=np.complex128)
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))
