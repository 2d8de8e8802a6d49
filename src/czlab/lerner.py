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

from .dyadics import DyadicCube, GridMismatchError, StepFunction

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
    return float(_sorted_median(np.sort(phi.values[Q.cell_slice])[None])[0])


def _sorted_median(rows: np.ndarray) -> np.ndarray:
    """The lower median of each row of sorted cell values: the value at
    (M - 1) // 2, read at the first of the values equal to it, so that of
    tied zeros the first in sorted order gives the sign."""
    pivot = rows[:, (rows.shape[1] - 1) // 2]
    first = np.count_nonzero(rows < pivot[:, None], axis=1)
    return rows[np.arange(len(rows)), first]


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
    return float(_sorted_oscillation(np.sort(phi.values[Q.cell_slice])[None], lam)[0])


def _sorted_oscillation(rows: np.ndarray, lam: float) -> np.ndarray:
    """oscillation of each cube from the rows of its sorted cell values."""
    M = rows.shape[1]
    cover = M - _allowed_count(lam, M)
    if cover <= 1:
        return np.zeros(len(rows))
    return (rows[:, cover - 1 :] - rows[:, : M - cover + 1]).min(axis=1) / 2.0


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
    for depth in range(0, grid.N - Q.level + 1):
        per = width >> (grid.d * depth)
        omegas = _sorted_oscillation(np.sort(local.reshape(-1, per), axis=1), lam)
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
    Decomposition.generations lists them: the one-row case of
    `_generation_rows`, with its certificates asserted."""
    if Q0.grid != phi.grid:
        raise GridMismatchError("cube does not belong to the function's grid")
    gens = _generation_rows(phi.grid, Q0, phi.values[None])[0]
    _assert_certificates(phi.grid, Q0, gens)
    return gens


def _generation_rows(grid, Q0: DyadicCube, values: np.ndarray) -> list:
    """The generations of the median decomposition on Q0 of each row of
    `values` (shape (K, cells)), as Decomposition.generations lists them; the
    certificates are not asserted.

    At each active cube the set where |phi - median| exceeds twice the local
    oscillation at percentile 2^(-d-2) fills at most a 2^(-d-2) fraction
    (the median sits within one oscillation of the optimal centering
    constant, so the doubled threshold inherits the percentile bound); the
    maximal dyadic subcubes where that set fills more than 2^(-d-1) of their
    measure form the next generation.

    One pass down Q0's subtree finds every generation of every row.  It
    carries a mask of the cells exceptional for their owner, the deepest
    picked cube (or Q0) containing them, and each cube's owner generation.
    A cube more than 2^(-d-1) exceptional (integer counts: exact) is a
    maximal such subcube of its owner, one generation deeper, and rewrites
    the mask on its cells.  Each level takes one row-sum, one `nonzero` and
    one sort of the picked cubes over all K rows; each row is sorted on its
    own, so a row gets the bits it gets alone.
    """
    d = grid.d
    lam = 2.0 ** (-d - 2)
    local = values[:, Q0.cell_slice]
    K = len(local)

    def exceptional_rows(cubes: np.ndarray) -> np.ndarray:
        rows = np.sort(cubes, axis=1)
        median, omega = _sorted_median(rows), _sorted_oscillation(rows, lam)
        return np.abs(cubes - median[:, None]) > 2.0 * omega[:, None]

    exceptional = exceptional_rows(local)
    generation = np.zeros((K, 1), dtype=np.intp)  # of each cube's owner
    found = []
    for k in range(Q0.level + 1, grid.N + 1):
        per = local.shape[1] >> (d * (k - Q0.level))
        generation = np.repeat(generation, 1 << d, axis=1)
        cells = exceptional.reshape(K, -1, per)
        row, z = ((cells.sum(axis=2) << (d + 1)) > per).nonzero()
        if not z.size:
            continue
        generation[row, z] += 1
        parents = np.sort(local.reshape(K, -1, per << d)[row, z >> d], axis=1)
        zindex = (Q0.zindex << (d * (k - Q0.level))) + z
        found.append((row, generation[row, z], np.full(z.size, k), zindex, _sorted_oscillation(parents, lam)))
        cells[row, z] = exceptional_rows(local.reshape(K, -1, per)[row, z])

    gens = [[] for _ in range(K)]
    if found:
        row, gen, level, zindex, om_parent = (np.concatenate(a) for a in zip(*found))
        order = np.lexsort((gen, row))  # stable: (row, generation, level, Z-index) order
        row, gen = row[order], gen[order]
        cubes = map(grid.cube_from_zindex, level[order].tolist(), zindex[order].tolist())
        items = list(zip(cubes, om_parent[order].tolist()))
        ends = (np.flatnonzero((row[1:] != row[:-1]) | (gen[1:] != gen[:-1])) + 1).tolist() + [len(items)]
        for a, b in zip([0, *ends], ends):
            gens[row[a]].append(tuple(items[a:b]))
    return [tuple(g) for g in gens]


def _assert_certificates(grid, Q0, generations):
    """Every generation lies in Q0 and is disjoint, its union lies in the
    previous one's, and fills less than half of each previous cube; checked
    on the cubes' cell ranges and prefix counts of each union's cells."""
    d, N = grid.d, grid.N
    prev = None
    for gen in generations:
        level = np.array([Q.level for Q, _ in gen])
        zindex = np.array([Q.zindex for Q, _ in gen])
        depth = level - Q0.level
        if np.any(depth < 0) or np.any(zindex >> (d * depth) != Q0.zindex):
            raise AssertionError("generation cube escapes the base cube")
        start = zindex << (d * (N - level))
        stop = start + (1 << (d * (N - level)))
        edges = np.bincount(start, minlength=grid.cells + 1) - np.bincount(stop, minlength=grid.cells + 1)
        cover = np.cumsum(edges[:-1])  # cubes over each cell
        if cover.max(initial=0) > 1:
            raise AssertionError("cubes within a generation must be disjoint")
        union = np.concatenate(([0], np.cumsum(cover > 0)))  # union cells before each cell
        if prev is not None:
            prev_start, prev_stop, prev_union = prev
            if np.any(prev_union[stop] - prev_union[start] < stop - start):
                raise AssertionError("generation unions must be nested")
            if np.any((union[prev_stop] - union[prev_start]) * 2 >= prev_stop - prev_start):
                raise AssertionError(
                    "next generation fills at least half of a parent cube"
                )
        prev = start, stop, union
