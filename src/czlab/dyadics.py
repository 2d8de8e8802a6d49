"""Dyadic grids on the unit cube and step functions stored in Z-order.

The ambient domain is the half-open cube [0,1)^d subdivided down to a finest
level N, giving 2^(d*N) cells.  Cubes are addressed by (level, integer
coordinates); parent/child arithmetic is pure bit shifting, so no
floating-point endpoints appear anywhere.  Step-function values are kept in
Z-order (bit-interleaved linear index), which makes every dyadic cube a
contiguous slice of the value array.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "DyadicCube",
    "StepFunction",
    "GridMismatchError",
    "children",
    "ancestor",
    "average",
    "lp_norm",
    "level_integrals",
    "level_averages",
    "repeat_to_cells",
    "require_weight",
    "read_cube_values",
]

# Hard cap on 2^(d*N): keeps every dense per-cell array comfortably in memory.
_MAX_CELL_BITS = 24


def _finite_number(v) -> bool:
    """True for a number that converts to a finite float: an int or float,
    numpy's scalars included, not a bool."""
    number = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, (bool, np.bool_))
    return number and abs(v) <= sys.float_info.max


class GridMismatchError(ValueError):
    """A cube or function was combined with a grid it does not belong to."""


def _morton_encode(coords, d, level):
    """Interleave the low `level` bits of d coordinates into one index."""
    if d == 1:  # one axis: the Z-index is the coordinate
        return coords[0] & ((1 << level) - 1)
    z = coords[0] & 0  # a zero of coords' kind: arrays stay arrays at level 0
    for b in range(level):
        for a in range(d):
            z |= ((coords[a] >> b) & 1) << (b * d + a)
    return z


def _morton_decode(z, d, level):
    """De-interleave a Z-index, or an integer array of them, into d coordinates."""
    if d == 1:
        return (z & ((1 << level) - 1),)
    coords = [z & 0 for _ in range(d)]  # zeros of z's kind: arrays stay arrays at level 0
    for b in range(level):
        for a in range(d):
            coords[a] |= ((z >> (b * d + a)) & 1) << b
    return tuple(coords)


@dataclass(frozen=True)
class GridSpec:
    """Ambient dyadic grid: dimension d, finest level N, optional translation.

    The translation `shift` is a vector in [0,1)^d, applied identically at all
    levels with wrap-around on the torus, and must be a multiple of 2^-N per
    coordinate so the translated finest cells coincide with standard ones.
    """

    d: int
    N: int
    shift: tuple[float, ...] = ()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")
        if self.N < 0:
            raise ValueError("finest level must be non-negative")
        if self.d * self.N > _MAX_CELL_BITS:
            raise ValueError(
                f"grid with 2^{self.d * self.N} cells exceeds the supported size"
            )
        shift = tuple(self.shift) if self.shift else (0.0,) * self.d
        if len(shift) != self.d:
            raise ValueError("shift must have one component per dimension")
        snapped = []
        scale = 1 << self.N
        for s in shift:
            if not 0.0 <= s < 1.0:
                raise ValueError("shift components must lie in [0,1)")
            c = s * scale
            if abs(c - round(c)) > 1e-9:
                raise ValueError("shift components must be multiples of 2^-N")
            snapped.append(round(c) / scale)
        object.__setattr__(self, "shift", tuple(snapped))

    @property
    def cells(self) -> int:
        return 1 << (self.d * self.N)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.d * self.N)

    def root(self) -> "DyadicCube":
        return DyadicCube(self, 0, (0,) * self.d)

    def cube(self, level: int, coords) -> "DyadicCube":
        return DyadicCube(self, level, tuple(int(c) for c in coords))

    def cube_from_zindex(self, level: int, z: int) -> "DyadicCube":
        return DyadicCube(self, level, _morton_decode(z, self.d, level))

    def cubes(self, level: int):
        """All cubes of one level, in Z-order."""
        for z in range(1 << (self.d * level)):
            yield self.cube_from_zindex(level, z)

    def all_cubes(self):
        """Every dyadic cube of the grid, coarsest level first."""
        for level in range(self.N + 1):
            yield from self.cubes(level)

    # The serialised forms: a grid header {d, N, shift} and a cube {level, coords}.

    def to_dict(self) -> dict:
        return {"d": self.d, "N": self.N, "shift": list(self.shift)}

    @classmethod
    def from_dict(cls, obj) -> "GridSpec":
        """The grid of a header written by to_dict; `shift` may be omitted."""
        if not isinstance(obj, dict):
            raise ValueError("grid header must be an object {d, N, shift}")
        for key in ("d", "N"):
            if type(obj.get(key)) is not int:  # type(): JSON true is an int to isinstance
                raise ValueError(f"grid header field {key!r} must be an integer")
        shift = obj.get("shift", [])
        if not (isinstance(shift, list) and all(type(s) in (int, float) for s in shift)):
            raise ValueError("grid header field 'shift' must be a list of numbers")
        return cls(obj["d"], obj["N"], tuple(shift))

    def cube_from_dict(self, obj) -> "DyadicCube":
        """The cube of this grid written by DyadicCube.to_dict."""
        return DyadicCube(self, *self._cube_fields(obj))

    def _cube_fields(self, obj) -> tuple[int, tuple[int, ...]]:
        """The (level, coords) of a cube object {level, coords}, checked to
        be an integer and a list of d integers (not yet their range)."""
        if not isinstance(obj, dict):
            raise ValueError("cube must be an object {level, coords}")
        level, coords = obj.get("level"), obj.get("coords")
        if type(level) is not int:
            raise ValueError("cube field 'level' must be an integer")
        if not isinstance(coords, list) or [type(c) for c in coords] != [int] * self.d:
            raise ValueError(f"cube field 'coords' must be a list of {self.d} integers")
        return level, tuple(coords)


def _read_cube(grid: GridSpec, obj, where: str) -> "DyadicCube":
    """grid.cube_from_dict(obj); a malformed cube raises ValueError naming
    the item as `where`."""
    try:
        return grid.cube_from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_cube_values(grid: GridSpec, items, key: str, where: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cubes and numbers of a coefficient list
    [{"cube": {level, coords}, key: number}, ...] as three arrays in item
    order: each cube's level and Z-index, and its number; no DyadicCube is
    made.  A malformed item, a non-finite number or a repeated cube raises
    ValueError naming it as where[i] (and a repeat the item it repeats).

    One pass reads the items and checks their types, up to the first
    ill-typed item; the numbers' finiteness, the cubes' ranges and the
    repeats are then checked on arrays.  The first faulty item in item
    order is the one named, with the error the checks of `_item_error`
    give it.
    """
    form = f'{{"cube": {{level, coords}}, "{key}": finite number}}'
    if not isinstance(items, list):
        raise ValueError(f"{where} must be a list of {form} items")
    d = grid.d
    ints = [int] * d
    levels, coords, values = [], [], []
    for item in items:  # the types _item_error checks, inline
        if not isinstance(item, dict):
            break
        v, cube = item.get(key), item.get("cube")
        if not ((type(v) is float or _finite_number(v)) and isinstance(cube, dict)):
            break
        k, c = cube.get("level"), cube.get("coords")
        if type(k) is not int or not isinstance(c, list) or list(map(type, c)) != ints:
            break
        levels.append(k)
        coords.extend(c)
        values.append(v)
    level = np.array(levels)  # int64, or float64 or object with integers beyond int64
    coord = np.array(coords).reshape(-1, d)
    value = np.array(values, dtype=float)
    top = 1 << np.clip(level, 0, grid.N).astype(np.intp)
    bad = ~np.isfinite(value) | (level < 0) | (level > grid.N) | ((coord < 0) | (coord >= top[:, None])).any(axis=1)
    fault = int(bad.argmax()) if bad.any() else len(levels)  # the first faulty item
    level, coord, value = level[:fault].astype(np.intp), coord[:fault].astype(np.intp), value[:fault]
    zindex = _morton_encode(tuple(coord.T), d, grid.N)  # coordinates below 2^level: their upper bits are 0
    _, first, inverse = np.unique((level << (d * grid.N)) + zindex, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse] != np.arange(fault))
    if repeats.size:
        i = int(repeats[0])
        raise ValueError(f"{where}[{i}] repeats {where}[{first[inverse[i]]}]")
    if fault < len(items):
        raise _item_error(grid, items[fault], key, f"{where}[{fault}]", form)
    return level, zindex, value


def _item_error(grid: GridSpec, item, key: str, name: str, form: str) -> ValueError | None:
    """The error of a coefficient item named `name`, checked in turn: an
    object with a finite number under `key`, then its cube's fields, then
    their range; None for a well-formed item."""
    if not (isinstance(item, dict) and _finite_number(item.get(key))):
        return ValueError(f"{name} must be an object {form}")
    try:
        _cube_zindex(grid, *grid._cube_fields(item.get("cube")))
    except ValueError as exc:
        return ValueError(f"{name}.cube: {exc}")
    return None


def _coefficient_arrays(grid: GridSpec, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """read_cube_values' arrays for a {cube: number} table, in its order;
    a cube of another grid raises GridMismatchError."""
    if any(Q.grid != grid for Q in table):
        raise GridMismatchError("coefficient cube from a different grid")
    level = np.array([Q.level for Q in table], dtype=np.intp)
    zindex = np.array([Q.zindex for Q in table], dtype=np.intp)
    return level, zindex, np.array([float(t) for t in table.values()])


def _cube_zindex(grid: GridSpec, level: int, coords) -> int:
    """The Z-index of the cube (level, coords) of the grid, after checking
    that the level lies in [0, N] and each coordinate in [0, 2^level)."""
    if not 0 <= level <= grid.N:
        raise ValueError(f"level {level} outside [0, {grid.N}]")
    if len(coords) != grid.d:
        raise ValueError("coordinate count must equal the dimension")
    top = 1 << level
    for c in coords:
        if not 0 <= c < top:
            raise ValueError(f"coordinate {c} outside [0, 2^{level})")
    return _morton_encode(coords, grid.d, level)


@dataclass(frozen=True)
class DyadicCube:
    """A dyadic cube addressed by (level, integer coordinates).

    The cube occupies prod_a [coords[a]*2^-level, (coords[a]+1)*2^-level) in
    the grid's own frame; the grid shift places that frame on the torus.
    """

    grid: GridSpec
    level: int
    coords: tuple[int, ...]
    zindex: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zindex", _cube_zindex(self.grid, self.level, self.coords))

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.grid.d * self.level)

    @property
    def cell_slice(self) -> slice:
        """Slice of the Z-ordered finest-cell array covered by this cube."""
        bits = self.grid.d * (self.grid.N - self.level)
        return slice(self.zindex << bits, (self.zindex + 1) << bits)

    def bounds(self) -> list[tuple[float, float]]:
        """Per-axis [lo, hi) in the grid frame (shift not applied)."""
        s = self.side
        return [(c * s, (c + 1) * s) for c in self.coords]

    def contains(self, other: "DyadicCube") -> bool:
        if other.grid != self.grid:
            raise GridMismatchError("cubes belong to different grids")
        if other.level < self.level:
            return False
        t = other.level - self.level
        return all((oc >> t) == c for oc, c in zip(other.coords, self.coords))

    def parent(self) -> "DyadicCube":
        return ancestor(self, 1)

    def to_dict(self) -> dict:
        return {"level": self.level, "coords": list(self.coords)}

    def child(self, index: int) -> "DyadicCube":
        """Child number `index` in Z-order, 0 <= index < 2^d."""
        d = self.grid.d
        if not 0 <= index < (1 << d):
            raise ValueError("child index out of range")
        if self.level >= self.grid.N:
            raise ValueError("level overflow: cube is at the finest level")
        coords = tuple(2 * c + ((index >> a) & 1) for a, c in enumerate(self.coords))
        return DyadicCube(self.grid, self.level + 1, coords)


def children(Q: DyadicCube) -> list[DyadicCube]:
    """The 2^d subcubes of the next level that partition Q."""
    if Q.level >= Q.grid.N:
        raise ValueError("level overflow: cube is at the finest level")
    return [Q.child(i) for i in range(1 << Q.grid.d)]


def ancestor(Q: DyadicCube, t: int) -> DyadicCube:
    """The t-fold parent of Q (t = 0 returns Q itself)."""
    if t < 0:
        raise ValueError("ancestor order must be non-negative")
    if t > Q.level:
        raise ValueError("above root: cube has no ancestor that far up")
    if t == 0:
        return Q
    coords = tuple(c >> t for c in Q.coords)
    return DyadicCube(Q.grid, Q.level - t, coords)


class StepFunction:
    """Real-valued function piecewise constant on the finest cells of a grid.

    Values are stored in Z-order.  Instances are immutable; arithmetic
    returns new functions on the same grid.
    """

    __slots__ = ("grid", "_values", "_sums", "_avgs")

    def __init__(self, grid: GridSpec, values):
        arr = np.array(values, dtype=float)
        if arr.shape != (grid.cells,):
            raise ValueError(
                f"expected {grid.cells} cell values, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_values", arr)
        object.__setattr__(self, "_sums", None)
        object.__setattr__(self, "_avgs", None)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    @property
    def values(self) -> np.ndarray:
        return self._values

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "StepFunction":
        return cls(grid, np.full(grid.cells, float(value)))

    @classmethod
    def indicator(cls, cube: DyadicCube) -> "StepFunction":
        v = np.zeros(cube.grid.cells)
        v[cube.cell_slice] = 1.0
        return cls(cube.grid, v)

    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.grid, values)

    def integral(self, cube: DyadicCube | None = None) -> float:
        if cube is None:
            return float(self._values.sum() * self.grid.cell_volume)
        if cube.grid != self.grid:
            raise GridMismatchError("cube does not belong to the function's grid")
        return float(self._values[cube.cell_slice].sum() * self.grid.cell_volume)

    def __add__(self, other):
        if isinstance(other, StepFunction):
            self._check(other)
            return StepFunction(self.grid, self._values + other._values)
        return StepFunction(self.grid, self._values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, StepFunction):
            self._check(other)
            return StepFunction(self.grid, self._values - other._values)
        return StepFunction(self.grid, self._values - float(other))

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            self._check(other)
            return StepFunction(self.grid, self._values * other._values)
        return StepFunction(self.grid, self._values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return StepFunction(self.grid, -self._values)

    def __abs__(self):
        return StepFunction(self.grid, np.abs(self._values))

    def _check(self, other: "StepFunction"):
        if other.grid != self.grid:
            raise GridMismatchError("functions live on different grids")

    def to_json(self) -> str:
        return json.dumps(
            {
                **self.grid.to_dict(),
                "values": self._values.tolist(),
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        obj = json.loads(text)
        grid = GridSpec.from_dict(obj)
        values = obj.get("values")
        if not (isinstance(values, list) and all(_finite_number(v) for v in values)):
            raise ValueError("step function field 'values' must be a list of finite numbers")
        return cls(grid, values)

    def __repr__(self):
        return f"StepFunction(d={self.grid.d}, N={self.grid.N}, cells={self.grid.cells})"


def _child_sum(children: list[np.ndarray], signed_zeros: bool = True) -> np.ndarray:
    """Sum of two or more same-shape arrays, bit for bit as numpy sums them
    along a contiguous axis.

    numpy adds fewer than 8 terms in order starting from 0.0 (more go
    pairwise).  Starting from the first term instead changes at most the
    sign of a zero result, which a final + 0.0 restores; without -0.0 among
    the children (`signed_zeros` false) that step is a no-op and is skipped.
    """
    if len(children) >= 8:
        return np.stack(children, axis=-1).sum(axis=-1)
    out = children[0] + children[1]
    for child in children[2:]:
        out += child
    if signed_zeros:
        out += 0.0
    return out


def _level_sums(grid: GridSpec, values: np.ndarray, top: int = 0) -> list[np.ndarray]:
    """Integrals of each row of `values` (shape (..., cells)) over the cubes
    of levels top..N, one Z-ordered array per level, coarsest first."""
    fold = 1 << grid.d
    sums = [values * grid.cell_volume]
    for k in range(grid.N - 1, top - 1, -1):
        finer = sums[-1]  # the children of cube z sit at z * fold + i
        # only the cell level can hold -0.0: sums starting from 0.0 never do
        sums.append(_child_sum([finer[..., i::fold] for i in range(fold)], k == grid.N - 1))
    return sums[::-1]


def _by_cube(grid: GridSpec, cells: np.ndarray, k: int) -> np.ndarray:
    """A (..., cells) array viewed as (..., level-k cubes, their cells);
    summing its last axis adds each cube's cells in order, as
    values[Q.cell_slice].sum() does."""
    return cells.reshape(*cells.shape[:-1], 1 << (grid.d * k), 1 << (grid.d * (grid.N - k)))


def _level_means(grid: GridSpec, sums: list[np.ndarray]) -> list[np.ndarray]:
    """Averages over the cubes of levels 0..N from their integrals (as
    `_level_sums` gives them, any leading shape)."""
    return [s * float(1 << (grid.d * k)) for k, s in enumerate(sums)]


def level_integrals(f: StepFunction) -> list[np.ndarray]:
    """Integrals of f over every cube, one Z-ordered array per level.

    Index k of the result holds 2^(d*k) entries, entry z being the integral
    of f over the level-k cube with Z-index z.  Cached on the function.
    """
    if f._sums is not None:
        return f._sums
    sums = _level_sums(f.grid, f.values)
    for arr in sums:
        arr.setflags(write=False)
    object.__setattr__(f, "_sums", sums)
    return sums


def level_averages(f: StepFunction) -> list[np.ndarray]:
    """Averages of f over every cube, one Z-ordered array per level.  Cached
    on the function."""
    if f._avgs is not None:
        return f._avgs
    avgs = _level_means(f.grid, level_integrals(f))
    for arr in avgs:
        arr.setflags(write=False)
    object.__setattr__(f, "_avgs", avgs)
    return avgs


def repeat_to_cells(grid: GridSpec, arr: np.ndarray, level: int) -> np.ndarray:
    """Expand per-cube values at `level` (the last axis of `arr`) to
    finest-cell resolution."""
    return np.repeat(arr, 1 << (grid.d * (grid.N - level)), axis=-1)


def average(f: StepFunction, Q: DyadicCube) -> float:
    """Mean value of f over the cube Q."""
    if Q.grid != f.grid:
        raise GridMismatchError("cube does not belong to the function's grid")
    return float(f.values[Q.cell_slice].mean())


def require_weight(w: StepFunction, name: str = "weight") -> StepFunction:
    _require_positive(w.values, name)
    return w


def _require_positive(values: np.ndarray, name: str = "weight") -> np.ndarray:
    """values, after checking that every entry is finite and positive."""
    # written so that NaN fails the test as well as zeros, negatives and inf
    if not np.all((values > 0.0) & (values < math.inf)):
        raise ValueError(f"{name} must be finite and strictly positive everywhere")
    return values


def lp_norm(f: StepFunction, p: float, weight: StepFunction | None = None) -> float:
    """L^p norm of f with respect to `weight` (Lebesgue when omitted)."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError("p must be a finite real >= 1")
    dens = 1.0
    if weight is not None:
        f._check(weight)
        require_weight(weight)
        dens = weight.values
    total = float(np.sum(np.abs(f.values) ** p * dens) * f.grid.cell_volume)
    return total ** (1.0 / p)
