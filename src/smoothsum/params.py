"""The (alpha, k, N) triple that parameterizes every sum in the library."""

import cmath
import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class SumParams:
    """alpha: complex weight base, k: k-free order (>= 2), N: smoothness bound."""

    alpha: complex
    k: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not cmath.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not (isinstance(self.k, numbers.Integral) and isinstance(self.N, numbers.Integral)):
            raise ValueError("k and N must be integers")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.N < 2:
            raise ValueError("N must be >= 2")

    @property
    def log_n(self) -> float:
        return math.log(self.N)
