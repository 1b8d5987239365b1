"""Adaptive complex quadrature with the nested Gauss-Kronrod pair G7/K15.

Each panel is integrated with the 15-point Kronrod rule, whose nodes include
those of the 7-point Gauss rule (Piessens et al., QUADPACK, 1983, qk15);
|K15 - G7| is the panel error estimate.  Refinement runs in rounds from
SEED_PANELS = 8 even seed panels: while the summed estimate is above the
budget, a round bisects every panel whose estimate is above budget /
(number of panels), worst first where the round would pass MAX_PANELS.  A
budget still unmet at MAX_PANELS panels raises ToleranceUnachievable.
There are no caller-listed split points: the one delicate point of the
integrands here, x = 0, is a seed edge of every symmetric interval.

The integrand returns (values, errors), errors[i] a bound on how far
values[i] is from the exact integrand at node i.  The K15 weights are
positive, so half * sum K15_i errors_i over the final panels bounds how far
the computed rule is from the same rule applied to the exact integrand:
that sum is the tail_bound returned, and the one place where an integrand's
error reaches a ledger.

The seed panels take one call of the integrand, and each round one call
for all its halves; the integrands of the g windows (asymptotic._g_integral)
and the main term give each node the same bits, and the same error bound, in any
batch, so for them batching changes neither panels nor bits.  Final
accumulation is an exactly-rounded fsum over panels sorted by left
endpoint, so node budget and scheduling cannot change the result bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceUnachievable

# QUADPACK qk15 on [-1, 1] to double precision: Kronrod abscissae x >= 0 (every
# other one, from the second, a 7-point Gauss node), K15 weights, G7 weights
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
        0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
        0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_NODES = np.concatenate((-np.array(_XGK[:-1]), _XGK[::-1]))
_K15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G7 = np.zeros(15)  # 0 at the Kronrod-only nodes
_G7[1::2] = _WG[:-1] + _WG[::-1]
SEED_PANELS = 8
SEED_GAP = (1.0 - _XGK[0]) / SEED_PANELS  # seed edge to nearest node, per half-length
MAX_PANELS = 4096


@dataclass(frozen=True)
class QuadResult:
    """Integral value with separated error budget.

    quad_error is the discretization error.  From integrate_adaptive (the main
    term, the g windows, expint_J) it is the summed |K15 - G7| Gauss-Kronrod
    difference over the panels, an estimate, not a proven bound, held to the
    tol its caller passes; from asymptotic.exact_integral's trapezoidal sum it
    is the Trefethen-Weideman bound, a theorem's.  tail_bound bounds the rest:
    the rule applied to the integrand's per-node errors, plus any window
    truncation and summation rounding the caller adds.
    """

    value: complex
    quad_error: float
    tail_bound: float
    node_count: int


@dataclass(frozen=True)
class PanelIntegral:
    a: float
    b: float
    value: complex
    error: float
    integrand_error: float


def _eval_panels(f, segs) -> list:
    """G7/K15 over each (a, b) of segs, with every node in one call of f."""
    halves = [0.5 * (b - a) for a, b in segs]
    xs = np.concatenate([0.5 * (a + b) + half * _NODES for (a, b), half in zip(segs, halves)])
    ys, es = f(xs)
    ys = np.asarray(ys, dtype=np.complex128).reshape(len(segs), len(_NODES))
    es = np.asarray(es, dtype=np.float64).reshape(len(segs), len(_NODES))
    panels = []
    for (a, b), half, y, e in zip(segs, halves, ys, es):
        hi = half * np.sum(_K15 * y)
        lo = half * np.sum(_G7 * y)
        e_hi = half * float(np.sum(_K15 * e))
        panels.append(PanelIntegral(a, b, complex(hi), abs(hi - lo), e_hi))
    return panels


def integrate_adaptive(f, a: float, b: float, tol: float) -> tuple[QuadResult, float]:
    """Integrate vectorized `f` over [a, b] to absolute tolerance `tol`,
    refining SEED_PANELS even seed panels round by round.

    f maps a node array to (values, errors), errors bounding each value's
    distance from the exact integrand.  Returns (QuadResult, E), where E is
    the K15 rule applied to the errors over the final panels; tail_bound is
    E here, and a caller adds its window truncation to it.  Raises
    ToleranceUnachievable when MAX_PANELS panels leave the summed error
    estimate above `tol`.
    """
    if not b > a:
        raise ValueError("need b > a")
    edges = np.linspace(a, b, SEED_PANELS + 1)
    panels = _eval_panels(f, list(zip(edges[:-1], edges[1:])))
    while len(panels) < MAX_PANELS and math.fsum(p.error for p in panels) > tol:
        # worst first, and at least one: the sum can pass tol by rounding alone
        ranked = sorted(panels, key=lambda p: -p.error)
        above = sum(p.error > tol / len(panels) for p in panels)
        count = min(max(1, above), MAX_PANELS - len(panels))
        halves = []
        for p in ranked[:count]:
            mid = 0.5 * (p.a + p.b)
            halves += [(p.a, mid), (mid, p.b)]
        panels = sorted(ranked[count:] + _eval_panels(f, halves), key=lambda p: p.a)

    value = complex(
        math.fsum(p.value.real for p in panels), math.fsum(p.value.imag for p in panels)
    )
    err = math.fsum(p.error for p in panels)
    if not err <= tol:
        raise ToleranceUnachievable(
            f"{len(panels)} panels leave quadrature error {err:.2e} above tol {tol:.2e}"
        )
    integrand_err = math.fsum(p.integrand_error for p in panels)
    # each split replaced one evaluated panel by two
    n_nodes = len(_NODES) * (2 * len(panels) - SEED_PANELS)
    return QuadResult(value, err, integrand_err, n_nodes), integrand_err
