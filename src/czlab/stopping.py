"""Stopping families for a weight and the characteristic-ratio partition.

Stopping children of a cube are the maximal dyadic subcubes where the
weight's average jumps by a factor greater than four.  The induced forest
satisfies a strict quarter-measure packing bound, asserted at construction.
The partition machinery bins a cube family by its smallest containing
stopping cube, the dyadic size of its two-weight ratio, and the dyadic drop
of its weight average relative to the stopping cube.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dyadics import (
    DyadicCube,
    GridMismatchError,
    GridSpec,
    StepFunction,
    level_averages,
    level_integrals,
    require_weight,
)
from .positive import CubeFamily, lambda_constant, type_l_apply

__all__ = [
    "StoppingFamily",
    "stopping_children",
    "build_stopping_family",
    "lab_partition",
    "distributional_check",
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

    def smallest_containing(self, Q: DyadicCube) -> DyadicCube:
        """The deepest stopping cube containing Q: its first ancestor (or Q
        itself) in the family, since the members containing Q form one chain
        of stopping parents."""
        if not self.root.contains(Q):
            raise ValueError("cube lies outside the stopping root")
        while Q != self.root and Q not in self.parents:
            Q = Q.parent()
        return Q

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


def _smallest_bin(ratio: float, lo_exp: int, hi_exp: int) -> int:
    """Smallest non-negative integer b with 2^(lo_exp-b) <= ratio <= 2^(hi_exp-b)."""
    b = 0
    while ratio < 2.0 ** (lo_exp - b) * (1.0 - 1e-12):
        b += 1
        if b > 4096:
            raise RuntimeError("bin search failed")
    return b


def lab_partition(
    family: CubeFamily,
    w: StepFunction,
    sigma: StepFunction,
    p: float,
    stopping: StoppingFamily,
) -> dict[tuple[DyadicCube, int, int], CubeFamily]:
    """Partition the family by (stopping cube, ratio bin, average-drop bin).

    Each cube lands in the class of its smallest containing stopping cube S,
    the dyadic bin a with 2^(a-1) <= (avg w)(avg sigma)^(p-1) < 2^a (cubes
    with ratio below one half are binned at a = 0), and the smallest
    non-negative b with 2^(1-b) avg_S w <= avg_Q w <= 2^(2-b) avg_S w.
    The classes are disjoint and their union reproduces the family.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    grid = family.grid
    if w.grid != grid or sigma.grid != grid:
        raise GridMismatchError("weights must live on the family's grid")
    aw = level_averages(w)
    asig = level_averages(sigma)
    # global bracket: ratios cannot exceed the bracket sup by definition
    sup_ratio = max(
        float((aw[k] * asig[k] ** (p - 1.0)).max()) for k in range(grid.N + 1)
    )
    a_cap = math.ceil(math.log2(max(sup_ratio, 1e-300))) + 1
    classes: dict[tuple[DyadicCube, int, int], list[DyadicCube]] = {}
    for Q in family.cubes:
        if not stopping.root.contains(Q):
            raise ValueError("family cube lies outside the stopping root")
        S = stopping.smallest_containing(Q)
        ratio = float(aw[Q.level][Q.zindex] * asig[Q.level][Q.zindex] ** (p - 1.0))
        a = max(0, math.floor(math.log2(ratio)) + 1) if ratio > 0 else 0
        if a > max(a_cap, 0):
            raise ValueError(
                "cube ratio exceeds the global bracket: inconsistent inputs"
            )
        drop = float(aw[Q.level][Q.zindex] / aw[S.level][S.zindex])
        b = _smallest_bin(drop, 1, 2)
        classes.setdefault((S, a, b), []).append(Q)
    return {
        key: CubeFamily(grid, cubes)
        for key, cubes in sorted(
            classes.items(), key=lambda kv: (kv[0][0].level, kv[0][0].zindex, kv[0][1], kv[0][2])
        )
    }


def distributional_check(
    cls: CubeFamily,
    w: StepFunction,
    sigma: StepFunction,
    S: DyadicCube,
    b: int,
    t: float,
    nu: str = "lebesgue",
    K: float = 1.0,
    lam: float | None = None,
) -> float:
    """Tail-measure ratio for one partition class.

    Measures nu{x in S : sum over class of (avg_Q w) 1_Q > K L 2^-b t avg_S w}
    against exp(-t) nu(S).  Pass the base family's type-L constant as `lam`;
    by default the class's own constant is used, floored at one (thin classes
    would otherwise produce a vanishing threshold).
    """
    require_weight(w)
    grid = cls.grid
    if nu not in ("lebesgue", "sigma"):
        raise ValueError("nu must be 'lebesgue' or 'sigma'")
    if lam is None:
        lam = max(lambda_constant(cls), 1.0) if len(cls) else 1.0
    total = type_l_apply(cls, StepFunction.constant(grid, 1.0), w).values
    threshold = K * lam * 2.0 ** (-b) * t * level_averages(w)[S.level][S.zindex]
    sl = S.cell_slice
    exceeds = total[sl] > threshold
    if nu == "lebesgue":
        meas = float(exceeds.sum()) * grid.cell_volume
        base = S.volume
    else:
        require_weight(sigma, "sigma")
        svals = sigma.values[sl]
        meas = float(svals[exceeds].sum()) * grid.cell_volume
        base = float(level_integrals(sigma)[S.level][S.zindex])
    if meas == 0.0:
        return 0.0
    return meas / (math.exp(-t) * base)
