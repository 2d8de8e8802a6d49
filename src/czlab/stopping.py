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
    StepFunction,
    _maximal_subcubes,
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
    ordered by first cell."""
    _check_weight_and_cube(w, Q)
    threshold = STOPPING_RATIO * level_averages(w)[Q.level][Q.zindex]
    return _maximal_subcubes(Q, w.values[Q.cell_slice], threshold)


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
    """The stopping forest rooted at Q0, found in one pass down Q0's subtree.

    A cube below Q0 is a stopping cube exactly when its w-average exceeds
    four times that of its deepest stopping ancestor, so the pass walks the
    levels below Q0 carrying, per cube, that threshold and the ancestor's
    member number; each selected cube passes its own on to its descendants.
    The members, listed level by level, are the iterated stopping children
    of Q0, from the same comparisons as stopping_children makes, in
    (level, Z-index) order.  The strict quarter packing bound is asserted
    for every member before the family is returned.
    """
    _check_weight_and_cube(w, Q0)
    grid, fold, avgs = w.grid, 1 << w.grid.d, level_averages(w)
    members, parents = [Q0], {}
    covered = [0.0]  # per member: its stopping children's volume, powers of two summed exactly
    threshold = np.full(1, STOPPING_RATIO * avgs[Q0.level][Q0.zindex])
    owner = np.zeros(1, dtype=np.intp)  # member number of each cube's deepest stopping ancestor
    for level in range(Q0.level + 1, grid.N + 1):
        first = Q0.zindex * fold ** (level - Q0.level)  # Q0's subtree at this level is contiguous
        avg = avgs[level][first : first + fold ** (level - Q0.level)]
        threshold = np.repeat(threshold, fold)
        owner = np.repeat(owner, fold)
        hit = np.flatnonzero(avg > threshold)
        for z, S in zip(hit.tolist(), owner[hit].tolist()):
            Q = grid.cube_from_zindex(level, first + z)
            parents[Q] = members[S]
            covered[S] += Q.volume
            members.append(Q)
            covered.append(0.0)
        threshold[hit] = STOPPING_RATIO * avg[hit]
        owner[hit] = np.arange(len(members) - hit.size, len(members))
    margins = tuple(c / S.volume for c, S in zip(covered, members))
    if not all(m < PACKING_FRACTION for m in margins):
        raise AssertionError("packing bound violated by stopping children")
    return StoppingFamily(Q0, tuple(members), parents, margins)


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
