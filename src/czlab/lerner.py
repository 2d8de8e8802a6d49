"""Medians, local mean oscillation, and the median decomposition.

The oscillation of a step function over a cube at percentile lambda is the
smallest maximal deviation achievable after subtracting a constant, once the
worst lambda-fraction of the cube is discarded.  For step functions this
infimum is computed exactly: it is half the length of the shortest interval
containing all but the allowed number of cell values.  The decomposition
selects, inside each chosen cube, the maximal dyadic subcubes where the
function deviates from its median on a large fraction, producing sparse
generations whose certificates (disjointness, nesting, half-measure packing)
are asserted before the result is returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dyadics import DyadicCube, GridMismatchError, StepFunction, _maximal_subcubes

__all__ = [
    "Decomposition",
    "median",
    "oscillation",
    "local_sharp_maximal",
    "lerner_decompose",
]


def median(phi: StepFunction, Q: DyadicCube) -> float:
    """Lower median of phi on Q.

    The smallest cell value m with |{phi > m}| <= |Q|/2 and
    |{phi < m}| <= |Q|/2; the lower-median convention makes the result
    deterministic.
    """
    if Q.grid != phi.grid:
        raise GridMismatchError("cube does not belong to the function's grid")
    return _sorted_median(np.sort(phi.values[Q.cell_slice]))


def _sorted_median(vals: np.ndarray) -> float:
    """The lower median of sorted cell values: the value at (M - 1) // 2,
    read at the first of the values equal to it, so that of tied zeros the
    first in sorted order gives the sign."""
    k = (vals.size - 1) // 2
    return float(vals[np.searchsorted(vals, vals[k], "left")])


def _allowed_count(lam: float, cells: int) -> int:
    """Cells permitted above the oscillation level: floor(lam * |Q| / cell)."""
    return int(math.floor(lam * cells + 1e-12))


def oscillation(phi: StepFunction, Q: DyadicCube, lam: float) -> float:
    """Local mean oscillation omega_lambda(phi; Q).

    inf over constants c of the rearrangement of |phi - c| on Q at measure
    lam |Q|.  Exactly the smallest half-length of an interval containing all
    but the allowed number of cell values; the optimal c is the interval's
    midpoint, a breakpoint of the piecewise-linear percentile.
    """
    if Q.grid != phi.grid:
        raise GridMismatchError("cube does not belong to the function's grid")
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    return _sorted_oscillation(np.sort(phi.values[Q.cell_slice]), lam)


def _sorted_oscillation(vals: np.ndarray, lam: float) -> float:
    """oscillation from the cube's sorted cell values."""
    M = vals.size
    k = _allowed_count(lam, M)
    cover = M - k
    if cover <= 1:
        return 0.0
    spans = vals[cover - 1 :] - vals[: M - cover + 1]
    return float(spans.min()) / 2.0


def local_sharp_maximal(phi: StepFunction, Q: DyadicCube, lam: float) -> StepFunction:
    """At each cell of Q: the largest oscillation over dyadic subcubes of Q
    containing the cell.  Zero outside Q."""
    if Q.grid != phi.grid:
        raise GridMismatchError("cube does not belong to the function's grid")
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    grid = phi.grid
    sl = Q.cell_slice
    local = phi.values[sl]
    width = local.size
    out = np.zeros(grid.cells)
    run = np.zeros(width)
    fold = 1 << grid.d
    for depth in range(0, grid.N - Q.level + 1):
        per = width >> (grid.d * depth)
        rows = np.sort(local.reshape(-1, per), axis=1)
        k = _allowed_count(lam, per)
        cover = per - k
        if cover <= 1:
            omegas = np.zeros(rows.shape[0])
        else:
            spans = rows[:, cover - 1 :] - rows[:, : per - cover + 1]
            omegas = spans.min(axis=1) / 2.0
        np.maximum(run, np.repeat(omegas, per), out=run)
    out[sl] = run
    return phi.with_values(out)


@dataclass(frozen=True)
class Decomposition:
    """Median-decomposition output with verifiable certificates.

    generations[l] lists, for generation l+1, pairs (cube, oscillation of phi
    at percentile 2^(-d-2) on the cube's dyadic parent).  The residual is
    |phi - median| minus the sharp-function-plus-generations majorant; its
    positive part measures the empirical comparability constant.
    """

    base: DyadicCube
    median: float
    generations: tuple[tuple[tuple[DyadicCube, float], ...], ...]
    residual: StepFunction
    majorant: StepFunction

    def empirical_constant(self) -> float:
        """max over cells of |phi - median| / majorant where the majorant is
        positive; the positive residual part vanishes after scaling by it."""
        dev = self.residual.values + self.majorant.values
        maj = self.majorant.values
        mask = maj > 0.0
        if not mask.any():
            return 1.0
        return float(np.max(dev[mask] / maj[mask]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "q0": self.base.to_dict(),
                "median": self.median,
                "generations": [
                    [
                        {
                            "cube": Q.to_dict(),
                            "omega_parent": om,
                        }
                        for Q, om in gen
                    ]
                    for gen in self.generations
                ],
            },
            separators=(",", ":"),
        )


def lerner_decompose(phi: StepFunction, Q0: DyadicCube) -> Decomposition:
    """Median decomposition of phi on the cube Q0: the generations of
    `_lerner_generations`, with their certificates asserted, and the
    majorant the local sharp maximal function and the generations' parent
    oscillations make."""
    gens = _lerner_generations(phi, Q0)
    grid = phi.grid
    m0 = median(phi, Q0)
    sharp = local_sharp_maximal(phi, Q0, 0.25)
    majorant = sharp.values.copy()
    for gen in gens:
        for Q, om_parent in gen:
            majorant[Q.cell_slice] += om_parent
    deviation = np.zeros(grid.cells)
    sl = Q0.cell_slice
    deviation[sl] = np.abs(phi.values[sl] - m0)
    residual = phi.with_values(deviation - majorant)
    return Decomposition(Q0, m0, gens, residual, phi.with_values(majorant))


def _lerner_generations(phi: StepFunction, Q0: DyadicCube) -> tuple:
    """The generations of the median decomposition of phi on Q0, as
    Decomposition.generations lists them.

    At each active cube the set where |phi - median| exceeds twice the local
    oscillation at percentile 2^(-d-2) fills at most a 2^(-d-2) fraction
    (the median sits within one oscillation of the optimal centering
    constant, so the doubled threshold inherits the percentile bound); the
    maximal dyadic subcubes where that set fills more than 2^(-d-1) of their
    measure form the next generation.  Disjointness within generations,
    nesting of the generation unions, and the strict half-measure packing
    bound are asserted on the result before it is returned.
    """
    if Q0.grid != phi.grid:
        raise GridMismatchError("cube does not belong to the function's grid")
    grid = phi.grid
    d = grid.d
    lam = 2.0 ** (-d - 2)
    select_fraction = 2.0 ** (-d - 1)

    generations: list[list[tuple[DyadicCube, float]]] = []
    active = [Q0]
    while active:
        next_gen: list[tuple[DyadicCube, float]] = []
        for Q in active:
            vals = np.sort(phi.values[Q.cell_slice])  # one sort for both
            mQ = _sorted_median(vals)
            om = _sorted_oscillation(vals, lam)
            exceptional = np.abs(phi.values[Q.cell_slice] - mQ) > 2.0 * om
            for picked in _maximal_subcubes(Q, exceptional.astype(float), select_fraction):
                om_parent = oscillation(phi, picked.parent(), lam)
                next_gen.append((picked, om_parent))
        if not next_gen:
            break
        next_gen.sort(key=lambda item: (item[0].level, item[0].zindex))
        generations.append(next_gen)
        active = [Q for Q, _ in next_gen]

    gens = tuple(tuple(gen) for gen in generations)
    _assert_certificates(grid, Q0, gens)
    return gens


def _assert_certificates(grid, Q0, generations):
    prev_union = None
    prev_cubes = None
    for gen in generations:
        cover = np.zeros(grid.cells, dtype=int)
        for Q, _ in gen:
            if not Q0.contains(Q):
                raise AssertionError("generation cube escapes the base cube")
            cover[Q.cell_slice] += 1
        if cover.max(initial=0) > 1:
            raise AssertionError("cubes within a generation must be disjoint")
        union = cover > 0
        if prev_union is not None:
            if np.any(union & ~prev_union):
                raise AssertionError("generation unions must be nested")
            for Q in prev_cubes:
                sl = Q.cell_slice
                if union[sl].sum() * 2 >= Q.cell_count:
                    raise AssertionError(
                        "next generation fills at least half of a parent cube"
                    )
        prev_union = union
        prev_cubes = [Q for Q, _ in gen]
