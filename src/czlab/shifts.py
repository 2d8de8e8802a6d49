"""Haar shift operators, maximal truncations, and the representation of
the Hilbert transform as an average over translated grids.

A shift of parameters (m, n) carries, for each cube Q, coefficient pairs
indexed by subcubes Q' (depth m) and R' (depth n) of Q: an input Haar
function on R' and an output Haar function on Q', each given by its values
on the 2^d children of its cube, jointly normalized so the product of their
sup norms is at most one.  That normalization makes the induced per-cube
kernel bounded by one as well, since at any point pair (x, y) exactly one
coefficient pair is active.  A shift holds its pairs as arrays, one
ShiftLevel of rows per level of Q; `HaarShift.entries` is a per-cube view."""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadics import (
    DyadicCube,
    GridMismatchError,
    GridSpec,
    StepFunction,
    _child_sum,
    _coefficient_arrays,
    _finite_number,
    _level_sums,
    _morton_decode,
    _read_cube,
)

__all__ = [
    "HaarShift",
    "ShiftLevel",
    "GridEnsemble",
    "HilbertAverageResult",
    "build_petermichl",
    "build_random_shift",
    "build_paraproduct",
    "hilbert_direct",
    "hilbert_truncated",
    "hilbert_maximal",
    "hilbert_average",
]

_NORMALIZATION_TOL = 1e-12


def _exact_zero_sum(vals: np.ndarray) -> np.ndarray:
    """Recenter each row (last axis) and move what is left of its sum into
    its last entry.  On 10^5 standard normal rows of 2 or 4 values (d = 1,
    2), numpy's sum of the result was exactly zero; rows of 8 (d = 3), which
    numpy sums pairwise, kept a rounding-size residue about a quarter of
    the time."""
    vals = vals - vals.mean(axis=-1, keepdims=True)
    vals[..., -1] -= vals.sum(axis=-1)
    return vals


class ShiftLevel(NamedTuple):
    """Coefficient rows of one level of Q, in (Q Z-index, pair) order.

    Row i holds one pair: `in_idx` and `out_idx` are the Z-indices of the
    2^d children of R' (at level + n + 1) and of Q' (at level + m + 1), and
    `h_in` and `h_out` the child values of the input and output Haar functions.
    """

    in_idx: np.ndarray
    out_idx: np.ndarray
    h_in: np.ndarray
    h_out: np.ndarray


def _child_indices(z, d: int) -> np.ndarray:
    """Z-indices of the 2^d children of each cube in `z`, one row per cube."""
    return (np.asarray(z, dtype=int) << d)[:, None] + np.arange(1 << d)


def _row_sup(h: np.ndarray) -> np.ndarray:
    """max |h| over each row of a (rows, 2^d) array, a column at a time:
    numpy reduces a short last axis an order of magnitude slower."""
    return functools.reduce(np.maximum, np.abs(h).T)


def _check_levels(grid: GridSpec, m: int, n: int, levels: dict[int, ShiftLevel], cancellative: bool):
    """Raise ValueError, naming a level, unless `levels` hold valid rows.

    Shapes and levels are checked level by level; the rows of all levels
    are then checked at once, concatenated in level order."""
    d, fold, top = grid.d, 1 << grid.d, grid.N - max(m, n)
    for level, lv in levels.items():
        where = f"shift level {level}"
        integer = lv.in_idx.dtype.kind == lv.out_idx.dtype.kind == "i"
        if not integer or any(a.shape != (len(lv.in_idx), fold) for a in lv):
            raise ValueError(f"{where}: need integer in_idx, out_idx and h_in, h_out of shape (rows, {fold})")
        if not 0 <= level < top:
            raise ValueError(f"{where}: R' and Q' need children, so levels must lie in [0, {top})")
    if not any(len(lv.in_idx) for lv in levels.values()):
        return
    row_level = np.repeat(list(levels), [len(lv.in_idx) for lv in levels.values()])
    in_idx, out_idx, h_in, h_out = (np.concatenate(arrays) for arrays in zip(*levels.values()))

    def refuse(bad, what):
        if bad.any():
            raise ValueError(f"shift level {row_level[bad.argmax()]}: {what}")

    for idx, depth, name in ((in_idx, n, "in_idx"), (out_idx, m, "out_idx")):
        # child 0: a multiple of 2^d below its level's cube count, so no bit outside these
        bits = (1 << (d * (row_level + depth + 1))) - fold
        bad = (idx[:, 0] & ~bits) != 0
        for i in range(1, fold):
            bad |= idx[:, i] != idx[:, 0] + i
        refuse(bad, f"each {name} row must list the children of one cube, {depth} levels below Q")
    q = in_idx[:, 0] >> (d * (n + 1))
    refuse(q != out_idx[:, 0] >> (d * (m + 1)), "R' and Q' of a row must sit in the same cube Q")
    descents = (q[1:] < q[:-1]) & (row_level[1:] == row_level[:-1])
    refuse(np.append(False, descents), "rows must come in Z-order of Q")
    if cancellative:
        for h in (h_in, h_out):
            off = np.abs(functools.reduce(np.add, h.T)) > 1e-9 * np.maximum(_row_sup(h), 1.0)
            refuse(off, "a cancellative shift needs rows summing to zero")


class HaarShift:
    """Haar shift operator of parameters (m, n) with per-cube coefficient pairs.

    Each cube Q carries pairs (h_in, h_out), h_in supported on a depth-n
    subcube R' of Q and h_out on a depth-m subcube Q'.  The constructor takes
    them as `levels`, one ShiftLevel of arrays per level of Q, and checks
    every row: child indices, depths, a shared Q, Q's Z-order, finite
    values, zero sums when `cancellative`, and the joint normalization.  The
    arrays are made read-only and kept as `levels`, without their empty
    levels.  Complexity is max(m, n).
    """

    def __init__(self, grid: GridSpec, m: int, n: int, levels, cancellative: bool):
        if m < 0 or n < 0:
            raise ValueError("shift parameters must be non-negative")
        self.grid = grid
        self.m = m
        self.n = n
        self.cancellative = bool(cancellative)
        levels = {
            level: ShiftLevel(np.asarray(i), np.asarray(o), np.asarray(h, float), np.asarray(g, float))
            for level, (i, o, h, g) in sorted(levels.items())
        }
        if not all(np.isfinite(lv.h_in).all() and np.isfinite(lv.h_out).all() for lv in levels.values()):
            raise ValueError("Haar coefficients must be finite")
        _check_levels(grid, m, n, levels, self.cancellative)
        self.levels: dict[int, ShiftLevel] = {level: lv for level, lv in levels.items() if len(lv.in_idx)}
        for lv in self.levels.values():
            for arr in lv:
                arr.setflags(write=False)
        if self.normalization_audit() > 1.0 + _NORMALIZATION_TOL:
            raise ValueError("joint normalization violated: |h_in| |h_out| > 1")

    @property
    def complexity(self) -> int:
        return max(self.m, self.n)

    @property
    def entries(self) -> dict[DyadicCube, list[tuple[DyadicCube, DyadicCube, tuple, tuple]]]:
        """Coefficient pairs per cube Q, in (level, Z-index) order, each as
        (R', Q', input child values, output child values).

        Rebuilt from the arrays on each access, so changing it changes no shift.
        """
        cube = functools.cache(self.grid.cube_from_zindex)  # R', Q' recur across rows
        return dict(
            self._pairs_by_cube(
                lambda level, z: [cube(level, x) for x in z.tolist()],
                lambda h: map(tuple, h.tolist()),
            )
        )

    def _pairs_by_cube(self, cubes, values):
        """(Q, [(R', Q', h, g), ...]) per cube Q in (level, Z-index) order,
        its pairs in row order.  cubes(level, z) maps an array of Z-indices
        of one level to its cubes, values(h) an array of child values to its
        rows; the rows of one Q are contiguous, as they come in Q's Z-order."""
        d = self.grid.d
        for level, lv in self.levels.items():
            rz, qz = lv.in_idx[:, 0] >> d, lv.out_idx[:, 0] >> d
            q = rz >> (d * self.n)
            rows = list(
                zip(cubes(level + self.n, rz), cubes(level + self.m, qz), values(lv.h_in), values(lv.h_out))
            )
            bounds = [0, *(np.flatnonzero(q[1:] != q[:-1]) + 1).tolist(), len(q)]
            for Q, lo, hi in zip(cubes(level, q[bounds[:-1]]), bounds[:-1], bounds[1:]):
                yield Q, rows[lo:hi]

    def normalization_audit(self) -> float:
        """Largest sup-norm product over all coefficient pairs."""
        return max(
            (
                float((_row_sup(lv.h_in) * _row_sup(lv.h_out)).max())
                for lv in self.levels.values()
            ),
            default=0.0,
        )

    # -- fast application -------------------------------------------------

    @functools.cached_property
    def _plan(self) -> "_KernelPlan | None":
        """The fused kernel's arrays; None for a shift without coefficients."""
        return _KernelPlan.build(self) if self.levels else None

    def apply(self, f):
        """S f for a StepFunction, or for each row of a (cells,) or (K, cells)
        array of cell values; returns the same type and shape."""
        return self._run(f, truncate=False)

    def truncation(self, f):
        """Pointwise sup over dyadic cutoffs of the coarse partial sums.

        One coarse-to-fine pass: cubes are added level by level and a running
        pointwise max of |partial sum| is kept; the cutoff grid is
        eps in {2^-k : 0 <= k <= N}.  Takes and returns what apply does.
        """
        return self._run(f, truncate=True)

    def _run(self, f, truncate: bool):
        if isinstance(f, StepFunction):
            if f.grid != self.grid:
                raise GridMismatchError("function does not live on the shift's grid")
            return f.with_values(self._run(f.values, truncate))
        vals = np.asarray(f, dtype=float)
        cells = self.grid.cells
        if vals.ndim not in (1, 2) or vals.shape[-1] != cells:
            raise GridMismatchError(
                f"expected cell values of shape ({cells},) or (K, {cells}), got {vals.shape}"
            )
        if self._plan is None:
            return np.zeros(vals.shape)
        return self._plan.run(vals.reshape(-1, cells), truncate).reshape(vals.shape)

    def _selected(self, block):
        """The truncation of each row f of a (K, cells) block and adjoint(u,
        rows), the transpose of the maps L selected at those rows: L g is g's
        partial sum through f's maximising cutoff, with that sum's sign, so
        |L g| <= truncation(g) and L f = truncation(f).  L^t u is the
        adjoint's apply of u's selected integrals, unpruned: these are mostly
        nonzero, so slicing them costs more than it skips."""
        plan = self._plan
        if plan is None:
            return np.zeros(block.shape), lambda u, rows: np.zeros(u.shape)
        out, level, sign = plan.run(block, True, select=True)
        back = self._transpose._plan
        return out, lambda u, rows: back._output_pass(
            back._pair_pass(plan.selected_integrals(level[rows], sign[rows], u)), False
        )

    def adjoint(self) -> "HaarShift":
        """Transpose with respect to the unweighted L^2 pairing, built once."""
        return self._transpose

    @functools.cached_property
    def _transpose(self) -> "HaarShift":
        # self's checked read-only rows with their sides swapped, which every
        # check the constructor makes accepts as well: they are shared, not
        # checked again.  No reference back to self: a cycle would keep both
        # shifts and their plans alive until the cyclic garbage collector ran
        T = object.__new__(HaarShift)
        T.grid, T.m, T.n, T.cancellative = self.grid, self.n, self.m, self.cancellative
        T.levels = {
            level: ShiftLevel(lv.out_idx, lv.in_idx, lv.h_out, lv.h_in)
            for level, lv in self.levels.items()
        }
        return T

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """The shift as JSON: one {cube, pairs} item per cube Q in (level,
        Z-index) order, its pairs in row order, written from `levels`."""
        d = self.grid.d

        def cubes(level, z):  # DyadicCube.to_dict of each cube z of `level`
            coords = zip(*(c.tolist() for c in _morton_decode(z, d, level)))
            return [{"level": level, "coords": list(c)} for c in coords]

        items = [
            {
                "cube": Q,
                "pairs": [{"rprime": rp, "qprime": qp, "h_vals": h, "g_vals": g} for rp, qp, h, g in pairs],
            }
            for Q, pairs in self._pairs_by_cube(cubes, np.ndarray.tolist)
        ]
        return json.dumps(
            {
                "m": self.m,
                "n": self.n,
                "cancellative": self.cancellative,
                **self.grid.to_dict(),
                "entries": items,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "HaarShift":
        """The shift to_json wrote.  Each cube may be listed once, and the
        cubes of one level in Z-order, as to_json lists them.  A malformed
        field or item raises ValueError naming it, as entries[i].cube or
        entries[i].pairs[j].rprime for instance."""
        obj = json.loads(text)
        grid = GridSpec.from_dict(obj)
        for key in ("m", "n"):
            value = obj.get(key)  # from_dict checked that obj is an object
            if type(value) is not int or value < 0:  # type(): JSON true is an int to isinstance
                raise ValueError(f"field {key!r} must be a non-negative integer")
        if type(obj.get("cancellative")) is not bool:
            raise ValueError("field 'cancellative' must be true or false")
        m, n, entries = obj["m"], obj["n"], obj.get("entries")
        if not isinstance(entries, list):
            raise ValueError("field 'entries' must be a list of {cube, pairs} items")
        seen: dict[DyadicCube, int] = {}
        rows: dict[int, list] = {}
        for i, item in enumerate(entries):
            if not (isinstance(item, dict) and isinstance(item.get("pairs"), list)):
                raise ValueError(f"entries[{i}] must be an object {{cube, pairs: [...]}}")
            Q = _read_cube(grid, item.get("cube"), f"entries[{i}].cube")
            if Q in seen:
                raise ValueError(f"entries[{i}] repeats entries[{seen[Q]}]: cube {Q.to_dict()}")
            seen[Q] = i
            for j, rec in enumerate(item["pairs"]):
                where = f"entries[{i}].pairs[{j}]"
                if not isinstance(rec, dict):
                    raise ValueError(f"{where} must be an object {{rprime, qprime, h_vals, g_vals}}")
                rp = _read_cube(grid, rec.get("rprime"), f"{where}.rprime")
                qp = _read_cube(grid, rec.get("qprime"), f"{where}.qprime")
                vals = (rec.get("h_vals"), rec.get("g_vals"))
                inside = Q.contains(rp) and Q.contains(qp)
                if not inside or (rp.level - Q.level, qp.level - Q.level) != (n, m):
                    raise ValueError(f"{where}: rprime and qprime must sit n and m levels inside the cube")
                if not all(
                    isinstance(v, list) and len(v) == 1 << grid.d and all(map(_finite_number, v))
                    for v in vals
                ):
                    raise ValueError(
                        f"{where}: h_vals and g_vals must each list {1 << grid.d} child values, finite numbers"
                    )
                rows.setdefault(Q.level, []).append((rp.zindex, qp.zindex, *vals))
        levels = {}
        for level, recs in rows.items():
            rz, qz, vin, vout = zip(*recs)
            levels[level] = ShiftLevel(_child_indices(rz, grid.d), _child_indices(qz, grid.d), vin, vout)
        return cls(grid, m, n, levels, obj["cancellative"])


# Byte cap on what one chunk of rows holds at once: in the fused kernel's
# pair pass, its integral terms and slot terms together (block rows x (live
# pairs + all pairs) x 2^d floats), and in the cube scorer each array of
# terms or regions at half of it; larger blocks go a chunk of rows at a time.
_BLOCK_BYTES = 1 << 18


def _flat_starts(d: int, levels) -> list:
    """Where each of the ascending `levels` starts in a flat layout of their
    cubes, coarsest first and Z-ordered, then the layout's size."""
    return np.cumsum([0] + [1 << (d * L) for L in levels]).tolist()


@dataclass(frozen=True, eq=False)
class _KernelPlan:
    """All levels' coefficient rows of a shift, concatenated in level order.

    The row arrays are child-major: entry [i, r] belongs to child i of row r.
    `gather` indexes the flat inputs, the integrals over the cubes of the
    input levels, and `scatter` the flat outputs, the per-cube outputs of
    the output levels, both laid out by _flat_starts; `scale` is each row's
    1/|Q|.  The adjoint's plan swaps the sides: its flat inputs are these
    flat outputs, slot for slot.  Each output level has a (start, stop,
    parent) entry in `outputs`: its slice of the flat outputs, and for every
    cube the index of its ancestor at the previous output level (None at
    the first).  `to_cells` maps the finest output level onto the cells
    (None when it is the cell level), and `cell_index[j]` each cell to its
    cube's slot in output level j.  `m` and `n` are the shift's depths and
    `shift_levels` the levels of Q that hold pairs, input and output level
    j being shift_levels[j] + n + 1 and shift_levels[j] + m + 1.

    run's pair pass takes one coefficient per pair from the flat inputs,
    then sums each pair's 2^d terms onto the flat outputs by the gather of
    one _Slots table, built on first use and kept with the plan.

    Besides run, a plan that `cancels` has a sparse cube scorer, cube_weak:
    the weak functional of the truncated indicator of every cube of a level
    under a constant weight, from the pairs of each cube's strict ancestors
    and the regions where its image is constant, without imaging it on the
    cells; per indicator about one term per child of those pairs and a
    sort of at most N 2^(d(m+1)) regions.  The weak search takes it at
    sigma = 1 and a constant w (normlab._cube_scores); sigma = 1 with any
    other w goes through run on boolean blocks.  `cancels` and `_by_rprime`
    are built on first use too.
    """

    grid: GridSpec
    m: int
    n: int
    shift_levels: np.ndarray
    gather: np.ndarray
    h_in: np.ndarray
    scale: np.ndarray
    scatter: np.ndarray
    h_out: np.ndarray
    outputs: tuple
    to_cells: np.ndarray | None
    cell_index: np.ndarray

    @classmethod
    def build(cls, S: HaarShift) -> "_KernelPlan":
        grid, d = S.grid, S.grid.d
        levels = list(S.levels.items())
        out_levels = [level + S.m + 1 for level, _ in levels]
        in_start = _flat_starts(d, [level + S.n + 1 for level, _ in levels])
        out_start = _flat_starts(d, out_levels)

        def child_major(arrays):
            return np.ascontiguousarray(np.concatenate(arrays).T)

        def ancestors(level, up):
            return np.arange(1 << (d * level)) >> (d * up)

        outputs = tuple(
            (out_start[j], out_start[j + 1], ancestors(L, L - out_levels[j - 1]) if j else None)
            for j, L in enumerate(out_levels)
        )
        return cls(
            grid,
            S.m,
            S.n,
            np.array([level for level, _ in levels]),
            child_major([lv.in_idx + in_start[j] for j, (_, lv) in enumerate(levels)]),
            child_major([lv.h_in for _, lv in levels]),
            np.concatenate(
                [np.full(len(lv.h_in), float(1 << (d * level))) for level, lv in levels]
            ),
            child_major([lv.out_idx + out_start[j] for j, (_, lv) in enumerate(levels)]),
            child_major([lv.h_out for _, lv in levels]),
            outputs,
            ancestors(grid.N, grid.N - out_levels[-1]) if out_levels[-1] < grid.N else None,
            np.array([ancestors(grid.N, grid.N - L) + out_start[j] for j, L in enumerate(out_levels)]),
        )

    @functools.cached_property
    def _scatter_slots(self) -> "_Slots":
        """The pair pass's sum of pair terms onto the flat outputs."""
        return _Slots.build(self.scatter, self.h_out, self.outputs[-1][1])

    def _integrals(self, block: np.ndarray) -> np.ndarray:
        """The flat inputs of each row of a (K, cells) block."""
        first = self.shift_levels[0]
        sums = _level_sums(self.grid, block, first + self.n + 1)
        return np.concatenate([sums[k] for k in (self.shift_levels - first).tolist()], axis=-1)

    def _pair_pass(self, inputs: np.ndarray, keep=None) -> np.ndarray:
        """The flat outputs of each row of a (K, flat inputs) array: the row
        read at `gather`, weighed by h_in, summed over children and scaled
        by `scale` (1/|Q|) into one coefficient per pair (0 for pairs not
        in `keep`, when given), then summed onto the flat outputs.  Rows go
        a chunk at a time, each chunk's integral terms and slot terms
        together taking at most _BLOCK_BYTES."""
        take, h_take, scale, slots = self.gather, self.h_in, self.scale, self._scatter_slots
        if keep is not None:
            take, h_take, scale = take[:, keep], h_take[:, keep], scale[keep]
        step = max(1, _BLOCK_BYTES // (8 * (take.size + slots.pair.size)))
        parts = []
        for k in range(0, max(len(inputs), 1), step):
            terms = inputs[k : k + step].take(take, axis=1)
            terms *= h_take
            coef = _child_sum(list(terms.transpose(1, 0, 2))) * scale
            if keep is not None:
                coef, live = np.zeros((len(coef), slots.pairs)), coef
                coef[:, keep] = live
            parts.append(slots.sum(coef))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _output_pass(self, contrib: np.ndarray, truncate: bool, select: bool = False):
        """run's result from the pair pass's flat outputs `contrib`."""
        # coarse to fine: carry the running partial sum (and the running max
        # of its modulus) down to each output level and add that level's terms
        acc = best = level = pick = None  # pick: the partial sum attaining best
        for j, (start, stop, parent) in enumerate(self.outputs):
            if parent is None:
                acc = contrib[:, start:stop] + 0.0
                if truncate:
                    best = np.abs(acc)
                    level, pick = np.zeros(acc.shape, dtype=int), acc
            else:
                acc = acc.take(parent, axis=1) + contrib[:, start:stop]
                if truncate:
                    above, best = np.abs(acc), best.take(parent, axis=1)
                    if select:
                        new = above > best
                        level = np.where(new, j, level.take(parent, axis=1))
                        pick = np.where(new, acc, pick.take(parent, axis=1))
                    best = np.maximum(best, above)
        picked = [best if truncate else acc] + ([level, np.sign(pick)] if select else [])
        if self.to_cells is not None:
            picked = [a.take(self.to_cells, axis=1) for a in picked]
        return tuple(picked) if select else picked[0]

    def run(self, block: np.ndarray, truncate: bool, select: bool = False):
        """apply (or truncation) of every row of a (K, cells) block.

        Row i equals the one-row result bit for bit: every sum below adds
        the same terms in the same order as the per-level formulas do.
        `select` (with truncate) adds, per cell, the index into `outputs` of
        the first level attaining the max, and the sign of its partial sum.
        """
        inputs = self._integrals(block)
        # a pair whose integrals are zero in every row (NaN is nonzero) has
        # coefficient +-0, h being finite: set it to 0 without computing it;
        # its terms add +-0 to bins that start at +0, moving none
        keep = None
        if not inputs.all() and not (live := inputs.any(axis=0)).all():
            keep = np.flatnonzero(live[self.gather].any(axis=0))
        return self._output_pass(self._pair_pass(inputs, keep), truncate, select)

    @functools.cached_property
    def cancels(self) -> bool:
        """Whether every pair's coefficient is exactly 0 on a row equal to 1
        on its R': the pair pass's child sums on the constant row."""
        terms = self._integrals(np.ones((1, self.grid.cells))).take(self.gather, axis=1) * self.h_in
        return not _child_sum(list(terms.transpose(1, 0, 2))).any()

    @functools.cached_property
    def _by_rprime(self):
        """The pairs grouped by their R', in pair order within a group:
        (order, first, count), where `order` lists the pairs group by group
        and `first` and `count` give each group's start in `order` and its
        size, indexed by the flat input slot of R''s child 0 (gather[0])."""
        size = _flat_starts(self.grid.d, self.shift_levels + self.n + 1)[-1]
        count = np.bincount(self.gather[0], minlength=size)
        return np.argsort(self.gather[0], kind="stable"), np.cumsum(count) - count, count

    def cube_weak(self, level: int, root: np.ndarray) -> np.ndarray:
        """For the indicator 1_Q of every cube Q of `level`, in Z-order, the
        weak functional of its truncation under a constant weight whose mass
        roots are `root`: max over k of mags[k] * root[k], mags the image's
        magnitudes in descending order.  The same bits as that max over
        run(block, True), on a plan that cancels.

        Of 1_Q's pairs, one whose R' misses Q reads zero integrals, and one
        whose R' lies in Q has coefficient 0 (cancels): both add +-0 to bins
        that start at +0, moving none.  A strict ancestor R' of Q, with Q in
        its child i, has coefficient (|Q| h_in[i]) * scale, the one nonzero
        term of the pair pass's child sum.  So output level j moves only in
        its window: the 2^(d(m+1)) cubes of that level inside C_j, Q's
        ancestor at shift level j.  A window's bins sum its R''s terms in
        pair order, as the pair pass does, and carry acc and best from the
        window before, which holds each of their ancestors, as the output
        pass does.  A cube of the last window, and the part of a cube of an
        earlier window outside the next C, is a region of cells sharing one
        magnitude, and every other cell is 0.  Sorted by magnitude, a region
        scores magnitude * root[cells counted through it - 1]; equal
        magnitudes peak at the end of their run, as in the sort of all
        cells.  Per indicator this costs at most one term per child of the
        pairs of its ancestors R' (a window's terms, acc and best are made
        once for all of a chunk's indicators that share it, _window_weak),
        and a sort of at most W 2^(d(m+1)) regions, W <= N the windows: the
        cubes of a window that the next C covers whole hold no cells and
        are left out.  Rows go a chunk at a time, each of a chunk's arrays
        of terms or regions taking at most half of _BLOCK_BYTES.
        """
        d, m, n = self.grid.d, self.m, self.n
        shift = self.shift_levels[self.shift_levels + n < level]  # R' a strict ancestor of Q
        zs, width = np.arange(1 << (d * level)), 1 << (d * (m + 1))
        if not len(shift):
            return np.zeros(zs.size)
        terms = max(width, (1 << d) * int(self._by_rprime[2].max()))  # per row and window
        step = max(1, _BLOCK_BYTES // (16 * len(shift) * terms))  # rows per chunk
        root = np.concatenate([[0.0], root])  # root[k] for k cells counted
        return np.concatenate(
            [self._window_weak(zs[k : k + step], level, shift, root) for k in range(0, zs.size, step)]
        )

    def _window_weak(self, zs, level, shift, root):
        """cube_weak for the cubes zs of `level`, consecutive Z-indices,
        whose ancestors R' sit at the levels shift + n, with root[k] the
        root for k cells counted.  A window's terms, acc and best depend on
        Q only through the child of R' that holds Q, its ancestor at level
        shift + n + 1: they are made once per such ancestor (an ancestor
        window), in the order a row would make them, and each row takes
        its ancestors'."""
        d, N, m, n = self.grid.d, self.grid.N, self.m, self.n
        rows, windows, width = len(zs), len(shift), 1 << (d * (m + 1))
        order, first, count = self._by_rprime
        up = d * (level - shift - n - 1)
        lo = zs[0] >> up  # each window's first ancestor
        sizes = (zs[-1] >> up) - lo + 1
        ends = np.cumsum(sizes)
        win = np.repeat(np.arange(windows), sizes)
        holder = np.arange(ends[-1]) - (ends - sizes)[win] + lo[win]  # the child of R' that holds Q
        corner = holder >> (d * (n + 1))  # C_j
        key = np.array(_flat_starts(d, shift + n + 1)[:-1])[win] + ((holder >> d) << d)  # R''s child 0
        k = count[key]
        pair = order[np.repeat(first[key] + k - np.cumsum(k), k) + np.arange(k.sum())]
        coef = 2.0 ** (-d * level) * self.h_in[np.repeat(holder & ((1 << d) - 1), k), pair]
        coef *= self.scale[pair]
        # bin (ancestor window, cube of the window), each window's cubes in Z-order
        base = np.array([start for start, _, _ in self.outputs[:windows]])[win] + (corner << (d * (m + 1)))
        base -= width * np.arange(holder.size)
        contrib = np.bincount(
            (self.scatter[:, pair] - np.repeat(base, k)).ravel(),
            (coef * self.h_out[:, pair]).ravel(),
            holder.size * width,
        ).reshape(-1, width)
        slot = np.arange(width)
        acc = contrib[: ends[0]]
        best = [np.abs(acc)]  # per window
        for j in range(1, windows):
            here, step = slice(ends[j - 1], ends[j]), d * (shift[j] - shift[j - 1])
            # C_j's place among the cubes of its level in C_(j-1), and the
            # row of the ancestor window before
            offset = corner[here] & ((1 << step) - 1)
            parent = (((offset[:, None] << (d * (m + 1))) + slot) >> step) + width * (
                (holder[here] >> step) - lo[j - 1]
            )[:, None]
            acc = acc.take(parent) + contrib[here]
            best.append(np.maximum(best[-1].take(parent), np.abs(acc)))
        # per row: its ancestor window in each window, and each C_j's place
        # among the cubes of its level in C_(j-1)
        mine = (zs[:, None] >> up) - lo
        corners = zs[:, None] >> (d * (level - shift))
        offset = corners[:, 1:] - (corners[:, :-1] << (d * np.diff(shift)))
        # the cells of each window's cubes, less those of the next C in them
        fine = shift + m + 1  # the windows' output levels
        mass = np.empty((rows, windows, width), dtype=int)
        mass[:] = (1 << (d * (N - fine)))[:, None]
        below, above = np.maximum(fine[:-1] - shift[1:], 0), np.maximum(shift[1:] - fine[:-1], 0)
        covered = (slot >> (d * below[:, None])) == (offset[:, :, None] >> (d * above[:, None]))
        mass[:, :-1] -= covered * (1 << (d * (N - np.maximum(fine[:-1], shift[1:]))))[:, None]
        mags = np.concatenate([b.take(i, axis=0) for b, i in zip(best, mine.T)], axis=1)
        # A region left without cells scores no more than a cell counted
        # before it (each at least its magnitude) does, or 0 if none is, so
        # it is dropped before the sort.  Every row drops as many: in window
        # j, the 2^(d(fine_j - shift_(j+1))) cubes inside C_(j+1) when
        # fine_j >= shift_(j+1), and none otherwise.
        held = mass.reshape(rows, -1) != 0
        mags, mass = mags[held].reshape(rows, -1), mass.reshape(rows, -1)[held].reshape(rows, -1)
        by_size = np.argsort(-mags, axis=1) + mags.shape[1] * np.arange(rows)[:, None]
        counted = np.cumsum(mass.take(by_size), axis=1)
        return (mags.take(by_size) * root.take(counted)).max(axis=1, initial=0.0)

    def selected_integrals(self, level, sign, block: np.ndarray) -> np.ndarray:
        """Per row u of a (K, cells) block, the integral of sign * u over
        the cells of each output cube that selected its level or a finer one
        (run's selection, cell by cell): the adjoint plan's flat inputs, from
        which it gives L^t u, L g being sign times g's partial sum through
        output level `level`."""
        K = block.shape[0]
        size = self.outputs[-1][1]
        masked = np.bincount(
            (self.cell_index[level, np.arange(block.shape[1])] + size * np.arange(K)[:, None]).ravel(),
            weights=(sign * block * self.grid.cell_volume).ravel(),
            minlength=K * size,
        ).reshape(K, size)
        # bins summed from +0 hold no -0, so the child sums need no + 0.0
        for (start, stop, _), (lo, hi, _) in zip(self.outputs[-2::-1], self.outputs[:0:-1]):
            fold = (hi - lo) // (stop - start)
            masked[:, start:stop] += _child_sum([masked[:, lo + i : hi : fold] for i in range(fold)], False)
        return masked


class _Slots(NamedTuple):
    """A fixed scatter of pair terms onto bins, run as a gather.

    Term (i, r) of a (2^d, pairs) array of terms lands on bin put[i, r];
    all terms of a bin share one child i, so they come in pair order, and
    the bin sums them in that order from +0, as np.bincount would.  The
    bins are ranked by term count, most first, and slot j adds each ranked
    bin's j-th term: `pair` and `h` list, slot after slot, the pair and
    the weight h_put[i, r] of each term, and widths[j] the bins that slot
    j reaches, a prefix of the ranking.  `unsort` maps each bin to its
    rank (None when the ranking is bin order), `size` counts the bins and
    `pairs` the pairs.  Each _KernelPlan holds one, for its pair pass."""

    pair: np.ndarray
    h: np.ndarray
    widths: tuple
    unsort: np.ndarray | None
    size: int
    pairs: int

    @classmethod
    def build(cls, put: np.ndarray, h_put: np.ndarray, size: int) -> "_Slots":
        pairs = put.shape[1]
        flat = put.ravel()
        by_bin = np.argsort(flat, kind="stable")  # each bin's terms in pair order
        count = np.bincount(flat, minlength=size)
        first = np.cumsum(count) - count
        ranked = np.argsort(-count, kind="stable")
        widths = [int((count > j).sum()) for j in range(count.max())]
        term = np.concatenate([by_bin[first[ranked[:c]] + j] for j, c in enumerate(widths)])
        unsort = None if (ranked == np.arange(size)).all() else np.argsort(ranked)
        return cls((term % pairs).astype(np.int32), h_put.ravel()[term], tuple(widths), unsort, size, pairs)

    def sum(self, coef: np.ndarray) -> np.ndarray:
        """The bins of each row of coefficients, a (K, pairs) array: each
        bin the sum of coef[r] h over its terms, in slot order from +0."""
        terms = coef.take(self.pair, axis=1)
        terms *= self.h
        out, at = np.zeros((len(coef), self.size)), 0
        for width in self.widths:
            out[:, :width] += terms[:, at : at + width]
            at += width
        return out if self.unsort is None else out.take(self.unsort, axis=1)


# -- constructors ---------------------------------------------------------


def build_petermichl(grid: GridSpec) -> HaarShift:
    """The classical complexity-one shift in dimension one.

    Sends the (sup-normalized) Haar function of each interval to the
    difference of its children's Haar functions; written as an (m, n) = (1, 0)
    shift this meets the joint normalization with equality.
    """
    if grid.d != 1:
        raise ValueError("the Petermichl shift is one-dimensional")
    levels = {}
    for level in range(0, grid.N - 1):
        count = 1 << level
        # per interval Q: R' = Q, and Q' runs over its left and right child
        levels[level] = ShiftLevel(
            _child_indices(np.repeat(np.arange(count), 2), 1),
            _child_indices(np.arange(2 * count), 1),
            np.tile([1.0, -1.0], (2 * count, 1)),
            np.tile([[1.0, -1.0], [-1.0, 1.0]], (count, 1)),
        )
    return HaarShift(grid, 1, 0, levels, True)


def build_random_shift(
    m: int,
    n: int,
    seed: int,
    grid: GridSpec,
    cancellative: bool = True,
) -> HaarShift:
    """Reproducible pseudo-random shift of parameters (m, n).

    Every admissible (Q', R') pair receives Gaussian child values, recentered
    when cancellative, then rescaled so the joint normalization holds with
    equality wherever the pair is nonzero.  Values are drawn level by level,
    pairs in (Q, Q', R') Z-order, input values before output values.  The
    rescaling rounds: in d = 1 every Haar function still sums to exactly 0,
    but in d >= 2 half or more do not (|sum| below 1e-15), so those shifts
    cancel only up to rounding.
    """
    if m < 0 or n < 0:
        raise ValueError("shift parameters must be non-negative")
    if m + n > grid.N:
        raise ValueError("shift parameters exceed the grid depth")
    d = grid.d
    top = grid.N - 1 - max(m, n)
    rng = np.random.default_rng(seed)
    levels = {}
    for level in range(0, top + 1):
        q = np.arange(1 << (d * level))[:, None, None]
        qz = (q << (d * m)) + np.arange(1 << (d * m))[None, :, None]
        rz = (q << (d * n)) + np.arange(1 << (d * n))[None, None, :]
        qz, rz = (a.ravel() for a in np.broadcast_arrays(qz, rz))
        vals = rng.standard_normal((qz.size, 2, 1 << d))
        if cancellative:
            vals = _exact_zero_sum(vals)
        # |vals|.max(axis=2) column by column: the same bits, far faster on
        # the short axis
        scale = functools.reduce(np.maximum, [np.abs(vals[:, :, i]) for i in range(1 << d)])
        keep = (scale[:, 0] != 0.0) & (scale[:, 1] != 0.0)
        vals = vals[keep] / scale[keep][:, :, None]
        levels[level] = ShiftLevel(
            _child_indices(rz[keep], d),
            _child_indices(qz[keep], d),
            np.ascontiguousarray(vals[:, 0]),
            np.ascontiguousarray(vals[:, 1]),
        )
    return HaarShift(grid, m, n, levels, cancellative)


def _alternating_pattern(d: int) -> np.ndarray:
    """+1/-1 by child-index parity; sums to zero for every d."""
    idx = np.arange(1 << d)
    bits = np.zeros(1 << d, dtype=int)
    for a in range(d):
        bits ^= (idx >> a) & 1
    return np.where(bits == 0, 1.0, -1.0)


def build_paraproduct(a: dict[DyadicCube, float], grid: GridSpec) -> HaarShift:
    """Generalized type-(0,0) shift f -> sum_Q a_Q (avg_Q f) h_Q.

    The input side is the (generalized) indicator of Q; the output is a
    cancellative Haar function scaled by a_Q |Q|^(-1/2), so the coefficient
    bound |a_Q| <= sqrt(|Q|) is exactly the joint normalization.
    """
    return _paraproduct(grid, *_coefficient_arrays(grid, a))


def _paraproduct(grid: GridSpec, level, zindex, coeff) -> HaarShift:
    """build_paraproduct of the coefficients coeff[i] on the cubes
    (level[i], zindex[i]), each cube listed once, as read_cube_values gives
    them; the first faulty coefficient raises."""
    bound = np.sqrt(np.ldexp(1.0, -grid.d * level))  # sqrt(|Q|)
    faults = np.flatnonzero((level >= grid.N) | (np.abs(coeff) > bound * (1.0 + 1e-12)))
    if faults.size:
        i = faults[0]
        if level[i] >= grid.N:
            raise ValueError("paraproduct coefficients need cubes with children")
        raise ValueError(f"coefficient {float(coeff[i])} violates |a_Q| <= sqrt(|Q|) = {float(bound[i])}")
    pattern = _alternating_pattern(grid.d)
    levels = {}
    live = coeff != 0.0  # -0.0 too
    for k in np.unique(level[live]).tolist():
        at = np.flatnonzero(live & (level == k))
        at = at[np.argsort(zindex[at])]
        idx = _child_indices(zindex[at], grid.d)
        levels[k] = ShiftLevel(idx, idx, np.ones(idx.shape), (coeff[at] / bound[at])[:, None] * pattern)
    return HaarShift(grid, 0, 0, levels, False)


# -- discretized Hilbert transform ----------------------------------------


def _hilbert_taps(grid: GridSpec, cutoffs) -> np.ndarray:
    """The rfft of circular taps of length 2 cells, one row per cutoff eps in
    `cutoffs`.

    Entry k mod 2M (M cells) of a tap row is 1/k for the offsets 0 < |k| < M
    with |k| / M > eps (eps = 0 keeps them all; the p.v. drops k = 0), so a
    cyclic convolution of length 2M never wraps a kept offset around.
    """
    if grid.d != 1:
        raise ValueError("the Hilbert kernel is one-dimensional")
    M = grid.cells
    k = np.arange(1, M)
    half = np.where(k / M > np.asarray(cutoffs, dtype=float)[:, None], 1.0 / k, 0.0)
    taps = np.zeros((len(half), 2 * M))
    taps[:, 1:M] = half
    taps[:, M + 1 :] = -half[:, ::-1]
    return np.fft.rfft(taps)


def _hilbert_block(values: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """sum_j v_j taps(i - j) at every cell i, for each row v of a (..., cells)
    array against one tap row's spectrum (cells + 1,) or each row of a stack
    of them, as _hilbert_taps gives them.

    One rfft/irfft product of length 2 cells; rows are independent, so each
    row of a block has the bytes of the one-row result.  A row whose length
    does not match the taps' fails to broadcast (ValueError).
    """
    M = values.shape[-1]
    return np.fft.irfft(np.fft.rfft(values, 2 * M) * spectrum, 2 * M)[..., :M]


def hilbert_direct(f: StepFunction) -> StepFunction:
    """Discrete principal-value convolution against 1/(x - y), midpoint rule.

    The self-cell is omitted, which makes the kernel matrix exactly
    skew-symmetric; the FFT product that applies it is skew-symmetric up to
    rounding.  Its kernel is the quadrature oracle of hilbert_average.
    """
    return hilbert_truncated(f, 0.0)


def hilbert_truncated(f: StepFunction, eps: float) -> StepFunction:
    """Hilbert convolution restricted to |x - y| > eps."""
    return f.with_values(_hilbert_block(f.values, _hilbert_taps(f.grid, [eps])[0]))


def hilbert_maximal(f: StepFunction) -> StepFunction:
    """sup over dyadic cutoffs eps of |truncated Hilbert transform|.

    The cutoff grid is eps in {2^-k : 0 <= k <= N+1}; the finest cutoff keeps
    every off-diagonal cell, so the full principal-value sum participates.
    """
    spectra = _hilbert_taps(f.grid, [2.0 ** (-k) for k in range(f.grid.N + 2)])
    return f.with_values(np.abs(_hilbert_block(f.values, spectra)).max(axis=0))


# -- averaging over translated grids ---------------------------------------


def _coefficient_values(coefficients) -> np.ndarray:
    """The coefficients as a float array.  A one-dimensional float64 array
    is checked as one array; any other sequence item by item, where a
    ValueError names the first one that is not a finite real number (NaN,
    +-inf, a bool, a non-number)."""
    if isinstance(coefficients, np.ndarray) and coefficients.dtype == np.float64 and coefficients.ndim == 1:
        if not np.isfinite(coefficients).all():
            i = int(np.flatnonzero(~np.isfinite(coefficients))[0])
            raise ValueError(f"coefficients[{i}] must be a finite number")
        return coefficients
    for i, c in enumerate(coefficients):
        if not _finite_number(c):
            raise ValueError(f"coefficients[{i}] must be a finite number")
    return np.array(coefficients, dtype=float)


@dataclass(frozen=True, eq=False)
class GridEnsemble:
    """Weighted family of cyclic translations of one d = 1 grid, for averaging.

    `grid` is the untranslated frame, `offsets` each translation in finest
    cells (a read-only integer array with entries in [0, cells)) and
    `coefficients` their weights (a read-only float64 array), finite
    numbers normalized so their absolute values sum to one.  The ensemble
    keeps no Petermichl shift: the pairings read Petermichl's pairs off
    cyclic window sums directly, one level at a time (_offset_pairings).
    """

    grid: GridSpec
    offsets: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        if self.grid.d != 1 or any(self.grid.shift):
            raise ValueError("the ensemble frame must be an untranslated d = 1 grid")
        offsets = np.asarray(self.offsets)
        if offsets.size != len(self.coefficients) or not offsets.size:
            raise ValueError("need one coefficient per offset, at least one offset")
        if offsets.ndim != 1 or offsets.dtype.kind not in "iu":
            raise ValueError("offsets must be a one-dimensional integer array")
        if offsets.min() < 0 or offsets.max() >= self.grid.cells:
            raise ValueError(f"offsets must lie in [0, {self.grid.cells})")
        values = _coefficient_values(self.coefficients)
        # summed in order from the first, as Python 3.11's sum adds floats
        total = np.cumsum(np.abs(values))[-1]
        if total == 0.0:
            raise ValueError("ensemble coefficients must not all vanish")
        offsets = offsets.astype(np.int64)  # copies: callers keep theirs
        values = values / total
        for array in (offsets, values):
            array.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "coefficients", values)

    @functools.cached_property
    def _hilbert_spectrum(self) -> np.ndarray:
        """The frame's eps = 0 Hilbert tap spectrum, built once: the
        quadrature oracle of every pair averaged over this ensemble."""
        return _hilbert_taps(self.grid, [0.0])[0]

    @functools.cached_property
    def _offset_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The offsets present, increasing, and each one's coefficients
        summed in ensemble order."""
        cells = self.grid.cells
        present = np.flatnonzero(np.bincount(self.offsets, minlength=cells))
        weights = np.bincount(self.offsets, weights=self.coefficients, minlength=cells)
        return present, weights[present]

    @classmethod
    def random_translations(cls, grid: GridSpec, count: int, seed: int) -> "GridEnsemble":
        """Uniform random translations, quantized to finest cells."""
        rng = np.random.default_rng(seed)
        return cls(grid, rng.integers(0, grid.cells, size=count), np.full(count, 1.0 / count))


@dataclass(frozen=True)
class HilbertAverageResult:
    """`pairing` is the ensemble average, `exact_pairing` the uniform average
    over all 2^N cell translations, `constant` = pairing / oracle_pairing."""

    pairing: float
    oracle_pairing: float
    constant: float
    exact_pairing: float


def _toroidal_gap_cells(fmask: np.ndarray, gmask: np.ndarray) -> int:
    """Smallest cyclic cell distance between the two supports."""
    fi = np.flatnonzero(fmask)
    gi = np.flatnonzero(gmask)
    if fi.size == 0 or gi.size == 0:
        raise ValueError("both functions must be nonzero somewhere")
    M = fmask.size
    # the cyclically nearest point of g is the first one after or before
    pos = np.searchsorted(gi, fi)
    diff = np.abs(np.concatenate([fi - gi[pos % gi.size], fi - gi[pos - 1]]))
    return int(np.minimum(diff, M - diff).min())


def _check_separated(f_values: np.ndarray, g_values: np.ndarray) -> None:
    """Refuse a pair whose supports are empty or share a cell on the torus:
    the averaged pairing needs them at least one cell apart."""
    if _toroidal_gap_cells(f_values != 0.0, g_values != 0.0) < 1:
        raise ValueError("overlapping supports: the averaged pairing needs separation")


def _cyclic_pair(op, X: np.ndarray, Y: np.ndarray, e: int) -> np.ndarray:
    """op(X[..., s], Y[..., (s + e) % M]) for every s along the last axis,
    without a roll: Y is read by the two slices on either side of its wrap."""
    M = X.shape[-1]
    out = np.empty_like(X)
    op(X[..., : M - e], Y[..., e:], out=out[..., : M - e])
    op(X[..., M - e :], Y[..., :e], out=out[..., M - e :])
    return out


def _offset_pairings(grid: GridSpec, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """<S f(. + o), g(. + o)> for every cyclic cell offset o, for each row
    pair (f, g) of the (P, cells) blocks F and G, with S Petermichl's shift
    on the d = 1 grid; row i of the result has the bytes of the one-row pass.

    In the frame of offset o the level-K cube z covers the len_K = M >> K
    cells from z len_K + o on, so its integral is W_K[(z len_K + o) % M],
    where W_K lists every cyclic window sum of len_K cells: W_K is W_{K+1}
    plus W_{K+1} one window further on, added as _level_sums adds children.
    On the level-L cube that starts at s, with half = M >> (L + 1) and
    q = M >> (L + 2), both of Petermichl's pairs read R' = the cube's
    children, a = W^f_{L+1}(s) - W^f_{L+1}(s + half); Q' is the left child,
    D = W^g_{L+2}(s) - W^g_{L+2}(s + q) on its children, or the right one,
    W^g_{L+2}(s + 3q) - W^g_{L+2}(s + 2q) = -D(s + 2q).  So the start s
    carries a D(s) - a D(s + 2q), scaled by 2^L.

    The window sums are streamed from fine to coarse with the levels taken
    finest first, so a pass holds a few (P, M) arrays at once.  Each
    level below the root keeps its terms folded to one cube (M >> L entries
    a row, about M in all); they are added, coarsest first, into the root's
    terms.  These are the additions of _child_sum and of (a * b).sum(axis=0)
    over the pairs, in the same order, up to the signs of zeros: no zero's
    sign moves a nonzero sum, and the + 0.0 that starts the total drops them.
    """
    M = grid.cells
    P = F.shape[0]
    W_f, W_g = F * grid.cell_volume, G * grid.cell_volume  # level N
    folded = []
    for L in range(grid.N - 2, -1, -1):
        half, q = M >> (L + 1), M >> (L + 2)
        W_f = _cyclic_pair(np.add, W_f, W_f, q)  # level L + 1
        if L < grid.N - 2:
            W_g = _cyclic_pair(np.add, W_g, W_g, q >> 1)  # level L + 2
        a = _cyclic_pair(np.subtract, W_f, W_f, half)
        D = _cyclic_pair(np.subtract, W_g, W_g, q)
        right = _cyclic_pair(np.multiply, a, D, 2 * q)
        a *= D
        a -= right
        if L:
            a *= float(1 << L)
            folded.append(a.reshape(P, 1 << L, -1).sum(axis=1))
    if grid.N < 2:
        return np.zeros((P, M))
    # the root is its own fold: the total starts from its terms, + 0.0 as
    # when they were added to zeros, then takes the finer levels' folds
    a += 0.0
    for L, sums in enumerate(folded[::-1], 1):
        a.reshape(P, 1 << L, -1)[...] += sums[:, None, :]
    return a


def _hilbert_averages(ensemble: GridEnsemble, rows) -> list[HilbertAverageResult]:
    """hilbert_average of each (f values, g values) pair of float cell rows
    in the iterable `rows`, on the ensemble's frame, supports already
    checked by _check_separated.

    The rows are read a chunk at a time, as many as keep each (rows, cells)
    array of the pairing pass within _BLOCK_BYTES (8 rows at N = 12, one
    from N = 15 on); the rest is done row by row, so each result has the
    bytes of the pair's one-row pass.
    """
    frame = ensemble.grid
    vol = frame.cell_volume
    present, weights = ensemble._offset_weights
    step = max(1, _BLOCK_BYTES // (8 * frame.cells))
    rows = iter(rows)
    results = []
    while chunk := list(itertools.islice(rows, step)):
        F, G = (np.array(side) for side in zip(*chunk))
        del chunk  # the pass reads the stacked copies
        for f, g, pairings in zip(F, G, _offset_pairings(frame, F, G)):
            # the offsets' terms added in increasing order, one at a time as
            # a loop from 0.0 adds them; the + 0.0 gives a zero total that loop's sign
            total = float(np.cumsum(weights * pairings[present])[-1] + 0.0)
            oracle = float(np.dot(_hilbert_block(f, ensemble._hilbert_spectrum), g) * vol)
            constant = total / oracle if oracle != 0.0 else math.nan
            results.append(HilbertAverageResult(total, oracle, constant, float(pairings.mean())))
    return results


def hilbert_average(
    ensemble: GridEnsemble, f: StepFunction, g: StepFunction
) -> HilbertAverageResult:
    """Average the Petermichl pairing over the ensemble's translated grids.

    The pairing <S f(. + o), g(. + o)> of every cyclic cell offset o comes
    from one pass over cyclic window sums (_offset_pairings), with no shift
    built; the ensemble average weighs each offset present by its summed
    coefficients, and `exact_pairing` is the plain mean over all offsets.
    Supports must be separated by at least one cell in the cyclic metric;
    the result carries the fitted proportionality constant against the
    quadrature pairing <Hf, g>.  This is the one-row case of the block core
    _hilbert_averages, which hilbert-approx runs on all its pairs at once.
    """
    if (f.grid.d, f.grid.N) != (1, ensemble.grid.N):
        raise GridMismatchError("functions must live on the ensemble's cell grid")
    f._check(g)
    _check_separated(f.values, g.values)
    return _hilbert_averages(ensemble, [(f.values, g.values)])[0]
