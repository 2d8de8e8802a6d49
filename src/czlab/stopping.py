"""Stopping families of a weight.

Stopping children of a cube are the maximal dyadic subcubes where the
weight's average jumps by a factor greater than four.  The induced forest
satisfies a strict quarter-measure packing bound, asserted at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dyadics import (
    DyadicCube,
    GridMismatchError,
    GridSpec,
    StepFunction,
    level_averages,
    require_weight,
)

__all__ = [
    "StoppingFamily",
    "stopping_children",
    "build_stopping_family",
    "STOPPING_RATIO",
    "PACKING_FRACTION",
]

# Threshold for an average jump between stopping generations, and the packing
# fraction it forces; both fixed constants of the construction.
STOPPING_RATIO = 4.0
PACKING_FRACTION = 0.25


def stopping_children(w: StepFunction, Q: DyadicCube) -> list[DyadicCube]:
    """Maximal dyadic subcubes of Q whose w-average exceeds four times Q's,
    ordered by first cell: the members of Q's stopping family whose
    stopping parent is Q."""
    family = build_stopping_family(w, Q)
    children = [R for R in family.cubes[1:] if family.parents[R] == Q]
    return sorted(children, key=lambda R: R.cell_slice.start)


def _check_weight_and_cube(w: StepFunction, Q: DyadicCube):
    require_weight(w)
    if Q.grid != w.grid:
        raise GridMismatchError("cube does not belong to the weight's grid")


@dataclass(frozen=True)
class StoppingFamily:
    """Forest of stopping cubes rooted at a base cube.

    cubes lists the members in (level, Z-index) order, the root first;
    parents maps every member except the root to its stopping parent; and
    margins[i] is the packing ratio of cubes[i], the volume of its stopping
    children over its own.
    """

    root: DyadicCube
    cubes: tuple[DyadicCube, ...]
    parents: dict[DyadicCube, DyadicCube]
    margins: tuple[float, ...]

    def to_json(self) -> str:
        cubes = self.cubes
        index = {Q: i for i, Q in enumerate(cubes)}
        nodes = [
            {
                "cube": Q.to_dict(),
                "parent": index[self.parents[Q]] if Q in self.parents else None,
            }
            for Q in cubes
        ]
        return json.dumps(
            {
                "root": self.root.to_dict(),
                "nodes": nodes,
            },
            separators=(",", ":"),
        )


def build_stopping_family(w: StepFunction, Q0: DyadicCube) -> StoppingFamily:
    """The stopping forest rooted at Q0: `_stopping_rows` for the one weight
    w, its members made into cubes."""
    _check_weight_and_cube(w, Q0)
    grid = w.grid
    ((level, zindex, parent, margins),) = _stopping_rows(
        grid, [avg[None] for avg in level_averages(w)], Q0.level, Q0.zindex
    )
    cubes = (Q0, *map(grid.cube_from_zindex, level[1:].tolist(), zindex[1:].tolist()))
    parents = {Q: cubes[S] for Q, S in zip(cubes[1:], parent[1:].tolist())}
    return StoppingFamily(Q0, cubes, parents, tuple(margins.tolist()))


def _stopping_rows(grid: GridSpec, avgs: list[np.ndarray], level0: int = 0, z0: int = 0) -> list:
    """The stopping forest rooted at the cube (level0, z0) for each row of a
    block of weights, whose averages over the level-k cubes are the rows of
    avgs[k], found in one pass down that cube's subtree.

    A cube below the root is a stopping cube exactly when its average
    exceeds four times that of its deepest stopping ancestor, so the pass
    walks the levels carrying, per row and cube, that threshold and the
    ancestor's member number; each selected cube passes its own on to its
    descendants.  The members are the iterated stopping children of the
    root.  Returns one (level, zindex, parent, margins) tuple of arrays per
    row: the members in (level, Z-index) order, the root first; the
    position of each member's stopping parent (-1 for the root); and each
    member's packing ratio, the volume of its stopping children over its
    own.  The strict quarter packing bound is asserted for every member
    before the rows are returned.
    """
    rows, fold = len(avgs[level0]), 1 << grid.d
    threshold = STOPPING_RATIO * avgs[level0][:, z0 : z0 + 1]
    owner = np.arange(rows)[:, None]  # member number of each cube's deepest stopping ancestor
    # members are numbered in (level, row, Z-index) order, the roots first
    found = [(np.arange(rows), np.full(rows, level0), np.full(rows, z0), np.full(rows, -1))]
    count = rows
    for k in range(level0 + 1, grid.N + 1):
        first = z0 * fold ** (k - level0)  # the root's subtree at this level is contiguous
        avg = avgs[k][:, first : first + fold ** (k - level0)]
        threshold = np.repeat(threshold, fold, axis=1)
        owner = np.repeat(owner, fold, axis=1)
        hit = avg > threshold
        r, z = np.nonzero(hit)  # in (row, Z-index) order, as boolean indexing reads hit
        found.append((r, np.full(r.size, k), first + z, owner[hit]))
        threshold[hit] = STOPPING_RATIO * avg[hit]
        owner[hit] = np.arange(count, count + r.size)
        count += r.size
    row, level, zindex, parent = (np.concatenate(a) for a in zip(*found))
    volume = np.ldexp(1.0, -grid.d * level)
    # volumes are powers of two, so the children's total is exact in any order
    margins = np.bincount(parent[rows:], volume[rows:], count) / volume
    if not np.all(margins < PACKING_FRACTION):
        raise AssertionError("packing bound violated by stopping children")
    order = np.argsort(row, kind="stable")  # (row, level, Z-index) order
    bounds = np.searchsorted(row[order], np.arange(rows + 1))
    position = np.empty(count, dtype=np.intp)  # of each member within its row
    position[order] = np.arange(count) - np.repeat(bounds[:-1], np.diff(bounds))
    parent = np.where(parent < 0, -1, position[parent])
    split = [np.split(a[order], bounds[1:-1]) for a in (level, zindex, parent, margins)]
    return list(zip(*split))
