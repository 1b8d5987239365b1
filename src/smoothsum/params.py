"""The (alpha, k, N) triple that parameterizes every sum in the library."""

import cmath
import math
import numbers
from dataclasses import dataclass


def check_alpha_k(alpha, k) -> complex:
    """The (alpha, k) rule every sum and product shares: alpha finite, k an
    integer >= 2.  Returns alpha as a complex; raises ValueError otherwise."""
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if not (isinstance(k, numbers.Integral) and k >= 2):
        raise ValueError("k must be an integer >= 2")
    return alpha


@dataclass(frozen=True)
class SumParams:
    """alpha: complex weight base, k: k-free order (>= 2), N: smoothness bound."""

    alpha: complex
    k: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha_k(self.alpha, self.k))
        if not (isinstance(self.N, numbers.Integral) and self.N >= 2):
            raise ValueError("N must be an integer >= 2")

    @property
    def log_n(self) -> float:
        return math.log(self.N)
