"""Weight characteristics on dyadic grids.

Muckenhoupt-style A_p suprema, the Wilson/Fujii-form A_infty constant built
from the maximal function, the two-weight bracket, dual weights, and the
maximal functions themselves.  All suprema run over the dyadic cubes of the
ambient grid and report a witness cube, so every value can be rechecked
independently.

The dyadic A_p, A_infty and maximal-function computations are row-block
cores over (K, cells) arrays of K functions, one row each (_ap_rows,
_ainfty_rows, _maximal_rows); each single-function entry point is the
one-row case of its core, so a block of samples gives every row the bits
its own call would.  The centred A_infty runs one level at a time
(_centered_by_cube), all cubes of a level stacked; the centred maximal
function is its root-level case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dyadics import (
    DyadicCube,
    GridSpec,
    StepFunction,
    _by_cube,
    _level_means,
    _level_sums,
    _morton_decode,
    level_averages,
    level_integrals,
    require_weight,
)

__all__ = [
    "CharacteristicReport",
    "dual_weight",
    "ap_characteristic",
    "ainfty_characteristic",
    "joint_ap",
    "maximal_function",
]


@dataclass(frozen=True)
class CharacteristicReport:
    """A supremum value together with the dyadic cube attaining it."""

    value: float
    witness: DyadicCube
    p: float

    def to_json(self) -> str:
        p = "inf" if math.isinf(self.p) else self.p
        return json.dumps(
            {
                "value": self.value,
                "witness": self.witness.to_dict(),
                "p": p,
            },
            separators=(",", ":"),
        )


def dual_weight(w: StepFunction, p: float) -> StepFunction:
    """Pointwise sigma = w^(1-p') with p' the conjugate exponent of p."""
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    require_weight(w)
    pprime = p / (p - 1.0)
    return w.with_values(w.values ** (1.0 - pprime))


def _sup_over_cubes(by_level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic supremum of each row: coarsest level first, ties to
    smallest Z-index.

    by_level[k] holds the level-k values, shape (..., 2^(d*k)); the result
    is three arrays of the leading shape: the suprema and the level and
    Z-index of each witness cube.
    """
    # a level holding NaN has NaN as its max, which fmax turns into -inf:
    # such a level is passed over
    tops = np.fmax(np.array([arr.max(axis=-1) for arr in by_level]), -math.inf)
    level = tops.argmax(axis=0)  # the first, coarsest, level attaining the sup
    best = np.empty(level.shape)
    zindex = np.empty(level.shape, dtype=np.intp)
    for i in np.ndindex(level.shape):
        row = by_level[level[i]][i]
        zindex[i] = row.argmax()
        best[i] = row[zindex[i]]
    return best, level, zindex


def _witnessed(grid: GridSpec, sup) -> tuple[float, DyadicCube]:
    """The value and witness cube of a one-row (0-d) _sup_over_cubes result."""
    value, level, zindex = sup
    return float(value), grid.cube_from_zindex(int(level), int(zindex))


def _ap_rows(grid: GridSpec, rows: np.ndarray, p: float, aw=None):
    """A_p of each weight in `rows` (shape (..., cells)) as _sup_over_cubes
    arrays; `aw`, when given, holds the rows' level averages."""
    pprime = p / (p - 1.0)
    if aw is None:
        aw = _level_means(grid, _level_sums(grid, rows))
    asig = _level_means(grid, _level_sums(grid, rows ** (1.0 - pprime)))
    return _sup_over_cubes([a * s ** (p - 1.0) for a, s in zip(aw, asig)])


def ap_characteristic(w: StepFunction, p: float) -> CharacteristicReport:
    """sup over dyadic Q of (avg_Q w) * (avg_Q sigma)^(p-1), sigma = w^(1-p')."""
    require_weight(w)
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    sup = _ap_rows(w.grid, w.values, p, level_averages(w))
    return CharacteristicReport(*_witnessed(w.grid, sup), p)


def joint_ap(w: StepFunction, sigma: StepFunction, p: float) -> CharacteristicReport:
    """Two-weight bracket: sup over Q of (avg_Q w)^(1/p) * (avg_Q sigma)^(1/p')."""
    require_weight(w)
    require_weight(sigma, "sigma")
    w._check(sigma)
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    pprime = p / (p - 1.0)
    aw = level_averages(w)
    asig = level_averages(sigma)
    ratios = [
        aw[k] ** (1.0 / p) * asig[k] ** (1.0 / pprime) for k in range(w.grid.N + 1)
    ]
    return CharacteristicReport(*_witnessed(w.grid, _sup_over_cubes(ratios)), p)


def _maximal_rows(grid: GridSpec, rows: np.ndarray) -> np.ndarray:
    """Dyadic maximal function of each row of `rows` (shape (..., cells)):
    at each cell, the largest average of |f| over the dyadic cubes
    containing it.  Only the running maximum over the levels is kept."""
    sums = _level_sums(grid, np.abs(rows))
    run = sums[grid.N]  # the cell integrals, scaled to averages in place
    run *= float(1 << (grid.d * grid.N))
    for k in range(grid.N - 1, -1, -1):
        _raise_to(grid, run, sums[k] * float(1 << (grid.d * k)), k)
    return run


def _raise_to(grid: GridSpec, run: np.ndarray, avg: np.ndarray, k: int):
    """run = max(run, avg spread over each level-k cube's cells), in place."""
    by_cube = _by_cube(grid, run, k)
    np.maximum(by_cube, avg[..., None], out=by_cube)


def maximal_function(f: StepFunction, mode: str = "dyadic") -> StepFunction:
    """Hardy-Littlewood style maximal function of f.

    dyadic mode: at each cell, the largest average of |f| over the dyadic
    cubes containing it.  centered mode: the largest average of |f| over
    centered windows [x-t, x+t]^d clipped to the root cube, with t running
    through the finest-cell multiples plus the degenerate half-cell window
    (so the pointwise bound M f >= |f| holds in both modes).
    """
    if mode == "dyadic":
        return f.with_values(_maximal_rows(f.grid, f.values))
    if mode == "centered":
        return f.with_values(_centered_by_cube(f.grid, f.values, 0)[0])
    raise ValueError("mode must be 'dyadic' or 'centered'")


# Entries per block of centred windows, (cubes x radii x centres), evaluated
# at once; a block holds at least one radius.
_WINDOW_BLOCK = 1 << 13


def _centered_by_cube(grid: GridSpec, values: np.ndarray, k: int) -> np.ndarray:
    """The centred maximal function of f 1_Q at the cells of each level-k
    cube Q, for f with cell values `values`: shape (cubes, cells per cube),
    C-contiguous (summing a row adds Q's cells in the order a 1-d sum does),
    each row in Z-order.

    Windows are clipped to the root cube, but f 1_Q is 0 outside Q, so the
    prefix sums of Q's own cells are the whole grid's (0 before Q, Q's total
    after it) and give the same bits.  A window with t at least Q's side
    holds Q's total and its area grows with t, so radii stop at the side.
    """
    d = grid.d
    if d > 2:
        raise NotImplementedError("centered maximal function implemented for d <= 2")
    cubes = 1 << (d * k)
    side = 1 << (grid.N - k)
    absf = np.abs(values).reshape(cubes, -1)
    nodes = 2 * side  # window ends x +- t land on half-cell nodes: x a cell centre, t a multiple of dx/2
    centers = 2 * np.arange(side) + 1
    radii = np.arange(2, nodes + 1, 2)  # t = j * dx/2, full-cell multiples
    step = max(1, _WINDOW_BLOCK // grid.cells)  # cubes x centres = cells per radius
    if d == 1:
        half = np.repeat(absf, 2, axis=1) * (grid.cell_volume / 2.0)
        P = np.concatenate([np.zeros((cubes, 1)), half.cumsum(axis=1)], axis=1)
        best = absf.copy()
        for s in range(0, len(radii), step):
            j = radii[s : s + step, None]
            lo = np.maximum(centers - j, 0)
            hi = np.minimum(centers + j, nodes)
            np.maximum(best, ((P[:, hi] - P[:, lo]) / (j * grid.cell_volume)).max(axis=1), out=best)
        return best
    dx = 1.0 / (1 << grid.N)
    # each cube's cells de-interleaved into a side x side raster (axis 1 = x0)
    c0, c1 = _morton_decode(np.arange(side * side), 2, grid.N - k)
    raster = np.empty((cubes, side, side))
    raster[:, c0, c1] = absf
    half = np.repeat(np.repeat(raster, 2, axis=1), 2, axis=2) * (dx / 2.0) ** 2
    P = np.zeros((cubes, nodes + 1, nodes + 1))
    P[:, 1:, 1:] = half.cumsum(axis=1).cumsum(axis=2)
    areas = np.array([(j * dx) ** 2 for j in radii.tolist()])[:, None, None]
    best = raster.copy()
    for s in range(0, len(radii), step):
        j = radii[s : s + step, None, None]
        lo0, hi0 = (np.clip(centers[:, None] + sign * j, 0, nodes) for sign in (-1, 1))
        lo1, hi1 = (np.clip(centers + sign * j, 0, nodes) for sign in (-1, 1))
        box = P[:, hi0, hi1] - P[:, lo0, hi1] - P[:, hi0, lo1] + P[:, lo0, lo1]
        np.maximum(best, (box / areas[s : s + step]).max(axis=1), out=best)
    return np.take(best.reshape(cubes, -1), c0 * side + c1, axis=1)


def _ainfty_rows(grid: GridSpec, sums: list[np.ndarray]):
    """Dyadic A_infty of each weight whose level integrals (_level_sums of a
    (..., cells) block) are `sums`, as _sup_over_cubes arrays.

    One cells-wide running maximum per row rises from the finest level to
    the root; each level's ratio is taken as the maximum reaches that level,
    and the ratios are reduced coarsest level first.
    """
    ratios = [None] * (grid.N + 1)
    run = None
    for k in range(grid.N, -1, -1):
        avg = sums[k] * float(1 << (grid.d * k))
        if run is None:
            run = avg
        else:
            _raise_to(grid, run, avg, k)
        numer = _by_cube(grid, run * grid.cell_volume, k).sum(axis=-1)
        ratios[k] = numer / sums[k]
    return _sup_over_cubes(ratios)


def ainfty_characteristic(w: StepFunction, mode: str = "dyadic") -> CharacteristicReport:
    """sup over dyadic Q of w(Q)^-1 * integral_Q M(w 1_Q).

    In dyadic mode the inner maximal function is the dyadic one restricted to
    subcubes of Q, which makes the value exact; centered mode uses the
    centered-window operator applied to w 1_Q, evaluated at Q's cells only.
    """
    require_weight(w)
    grid = w.grid
    wsums = level_integrals(w)
    if mode == "dyadic":
        return CharacteristicReport(*_witnessed(grid, _ainfty_rows(grid, wsums)), math.inf)
    if mode == "centered":
        ratios = [
            _centered_by_cube(grid, w.values, k).sum(axis=-1) * grid.cell_volume / wsums[k]
            for k in range(grid.N + 1)
        ]
        return CharacteristicReport(*_witnessed(grid, _sup_over_cubes(ratios)), math.inf)
    raise ValueError("mode must be 'dyadic' or 'centered'")

