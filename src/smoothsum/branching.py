"""Continuous complex logarithms along a contour (phase unwrapping).

A BranchedPath samples a nonvanishing function on an ascending grid and
carries a logarithm whose imaginary part is continued node to node, anchored
at a point where the function is real and positive.  Fractional powers
f(x)^alpha are then exp(alpha * log f(x)) with that log -- the unique
continuous choice agreeing with the principal value at the anchor.

Off-grid queries re-evaluate the function and snap the phase to the nearest
grid node, which is valid because construction refines the grid until
adjacent phases differ by < pi/2.  Refinement is bounded by MAX_REFINE
rounds and MAX_NODES grid nodes; past either it raises UnwrapError.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UnwrapError

_TWO_PI = 2.0 * np.pi
MAX_PHASE_STEP = 0.5 * np.pi
MAX_REFINE = 40  # refinement rounds, confirming rounds included
MAX_NODES = 200_000  # refinement stops (UnwrapError) once a grid passes this


def _principal_im(values: np.ndarray) -> np.ndarray:
    # wrap imaginary parts into (-pi, pi]
    im = np.mod(values.imag + np.pi, _TWO_PI) - np.pi
    im = np.where(im == -np.pi, np.pi, im)
    return im


@dataclass(frozen=True)
class BranchedPath:
    """Grid samples of log f with a continuously unwrapped imaginary part."""

    xs: np.ndarray
    log_values: np.ndarray
    anchor_index: int
    evaluator: object = field(repr=False)  # x array -> log f(x), any 2*pi*i branch

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.log_values.setflags(write=False)

    def log_at(self, x) -> np.ndarray:
        """Unwrapped log f at arbitrary x inside the grid span (vectorized)."""
        xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if xq.min() < self.xs[0] - 1e-12 or xq.max() > self.xs[-1] + 1e-12:
            raise ValueError("query outside the built path span")
        raw = np.asarray(self.evaluator(xq), dtype=np.complex128)
        im = _principal_im(raw)
        idx = np.clip(np.searchsorted(self.xs, xq), 1, len(self.xs) - 1)
        left_closer = xq - self.xs[idx - 1] <= self.xs[idx] - xq
        near = np.where(left_closer, idx - 1, idx)
        ref = self.log_values.imag[near]
        im = im + _TWO_PI * np.round((ref - im) / _TWO_PI)
        out = raw.real + 1j * im
        return out if np.ndim(x) else complex(out[0])

    def max_phase_step(self) -> float:
        return float(np.max(np.abs(np.diff(self.log_values.imag)), initial=0.0))


def _unwrap_on(evaluator, grid, anchor_x, anchor_im):
    raw = np.asarray(evaluator(grid), dtype=np.complex128)
    im = _principal_im(raw)
    k = int(np.argmin(np.abs(grid - anchor_x)))
    unwrapped = np.empty_like(im)
    unwrapped[k] = anchor_im
    for j in range(k + 1, len(grid)):
        unwrapped[j] = im[j] + _TWO_PI * np.round((unwrapped[j - 1] - im[j]) / _TWO_PI)
    for j in range(k - 1, -1, -1):
        unwrapped[j] = im[j] + _TWO_PI * np.round((unwrapped[j + 1] - im[j]) / _TWO_PI)
    return raw, unwrapped, k


def build_branched_path(
    evaluator,
    xs,
    anchor_x: float = 0.0,
    anchor_log: complex = 0.0,
) -> BranchedPath:
    """Unwrap log f along `xs`, bisecting intervals until adjacent phase
    increments fall below pi/2 AND one further global bisection confirms the
    branch choice at every shared node (the confirmation pass catches grids
    coarse enough to alias a large phase step into a small one).

    `evaluator(x_array)` returns log f(x) up to an arbitrary multiple of
    2*pi*i per point.  The anchor must be a grid point where f is real and
    positive with known log (imaginary part 0 there).  Every round, refining
    or confirming, draws on the MAX_REFINE budget.
    """
    grid = np.unique(np.asarray(xs, dtype=np.float64))
    if grid.size < 2:
        raise ValueError("need at least two grid nodes")
    if not np.any(np.isclose(grid, anchor_x, atol=1e-15)):
        grid = np.unique(np.append(grid, anchor_x))
    anchor_im = complex(anchor_log).imag

    raw, unwrapped, k = _unwrap_on(evaluator, grid, anchor_x, anchor_im)
    rounds = 0
    while True:
        bad = np.abs(np.diff(unwrapped)) >= MAX_PHASE_STEP
        if not np.any(bad):
            if rounds >= MAX_REFINE or grid.size > MAX_NODES:
                raise UnwrapError(
                    "refinement budget exhausted before the branch choice "
                    "could be confirmed"
                )
            rounds += 1
            mids = 0.5 * (grid[:-1] + grid[1:])
            fine = np.unique(np.concatenate((grid, mids)))
            raw_f, unw_f, k_f = _unwrap_on(evaluator, fine, anchor_x, anchor_im)
            at_coarse = np.searchsorted(fine, grid)
            confirmed = not np.any(
                np.abs(np.diff(unw_f)) >= MAX_PHASE_STEP
            ) and np.allclose(unw_f[at_coarse], unwrapped, atol=1e-6, rtol=0)
            if confirmed:
                return BranchedPath(fine, raw_f.real + 1j * unw_f, k_f, evaluator)
            grid, raw, unwrapped, k = fine, raw_f, unw_f, k_f
            continue
        if rounds >= MAX_REFINE or grid.size > MAX_NODES:
            raise UnwrapError(
                "phase increment >= pi/2 between adjacent nodes after maximum "
                "refinement"
            )
        rounds += 1
        mids = 0.5 * (grid[:-1][bad] + grid[1:][bad])
        grid = np.unique(np.concatenate((grid, mids)))
        raw, unwrapped, k = _unwrap_on(evaluator, grid, anchor_x, anchor_im)
