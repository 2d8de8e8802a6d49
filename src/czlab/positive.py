"""Positive dyadic operators and their Sawyer testing constants.

The operator built from non-negative coefficients tau sends f to
sum_Q tau_Q (avg_Q f) 1_Q.  Its two-weight norm is characterized by a pair
of testing constants obtained by feeding the weight itself into the cube-
localized operator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .characteristics import _sup_over_cubes, _witnessed
from .dyadics import (
    DyadicCube,
    GridMismatchError,
    GridSpec,
    StepFunction,
    _coefficient_arrays,
    _level_sums,
    level_integrals,
    read_cube_values,
    repeat_to_cells,
    require_weight,
)

__all__ = [
    "TauCoefficients",
    "TestingConstant",
    "apply_positive",
    "sawyer_testing",
    "strong_norm_bound",
]


class TauCoefficients:
    """Non-negative coefficients tau_Q, finitely supported on a grid's cubes.

    levels[k] holds tau over the level-k cubes, Z-ordered and read-only, with
    0 where a cube has no coefficient.
    """

    def __init__(self, grid: GridSpec, coefficients: dict[DyadicCube, float]):
        self._fill(grid, *_coefficient_arrays(grid, coefficients))

    @classmethod
    def _from_arrays(cls, grid: GridSpec, level, zindex, tau) -> "TauCoefficients":
        """The coefficients tau[i] on the cubes (level[i], zindex[i]), each
        cube listed once, as read_cube_values gives them."""
        obj = cls.__new__(cls)
        obj._fill(grid, level, zindex, tau)
        return obj

    def _fill(self, grid: GridSpec, level, zindex, tau):
        level, zindex, tau = np.asarray(level, np.intp), np.asarray(zindex, np.intp), np.asarray(tau, float)
        if not np.all((tau >= 0.0) & (tau < math.inf)):  # NaN fails too
            raise ValueError("tau coefficients must be finite and non-negative")
        self.grid = grid
        keep = tau != 0.0  # -0.0 too: every absent coefficient reads +0.0
        levels = []
        for k in range(grid.N + 1):
            arr = np.zeros(1 << (grid.d * k))
            at = keep & (level == k)
            arr[zindex[at]] = tau[at]
            arr.flags.writeable = False
            levels.append(arr)
        self.levels = tuple(levels)

    def to_json(self) -> str:
        items = [
            {"cube": self.grid.cube_from_zindex(k, z).to_dict(), "tau": float(arr[z])}
            for k, arr in enumerate(self.levels)
            for z in np.flatnonzero(arr).tolist()
        ]
        return json.dumps(items, separators=(",", ":"))

    @classmethod
    def from_json(cls, grid: GridSpec, text: str) -> "TauCoefficients":
        return cls._from_arrays(grid, *read_cube_values(grid, json.loads(text), "tau", "tau list"))


def _positive_block(tau: TauCoefficients, values) -> np.ndarray:
    """sum_Q tau_Q * avg_Q(v) * 1_Q for each row v of a (..., cells) array of
    cell values; returns an array of the same shape."""
    grid = tau.grid
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (grid.cells,):
        raise GridMismatchError(
            f"expected cell values of shape (..., {grid.cells}), got {values.shape}"
        )
    ints = _level_sums(grid, values)
    acc = np.zeros(values.shape)
    for k, tau_k in enumerate(tau.levels):
        if not tau_k.any():
            continue
        constants = tau_k * ints[k] * float(1 << (grid.d * k))
        acc += repeat_to_cells(grid, constants, k)
    return acc


def apply_positive(tau: TauCoefficients, mu: StepFunction, f: StepFunction) -> StepFunction:
    """sum_Q tau_Q * avg_Q(f mu) * 1_Q."""
    if mu.grid != tau.grid or f.grid != tau.grid:
        raise GridMismatchError("operator inputs must share the grid")
    return f.with_values(_positive_block(tau, f.values * mu.values))


@dataclass(frozen=True)
class TestingConstant:
    """A Sawyer testing constant with the cube attaining the supremum."""

    value: float
    witness: DyadicCube


def _testing_ratios(tau, f, sigma, wints, pprime) -> list[np.ndarray]:
    """Per level k, over the level-k cubes R, the ratios
    ||sum_{Q subset R} tau_Q avg_Q(f) 1_Q||_{L^p'(sigma)} / w(R)^(1/p')
    for non-negative f, with wints the per-level integrals of w.

    The localized sum is the suffix S_k(x) = sum over levels j >= k of
    tau_j(x) avg_j(f)(x) restricted to R, because the cubes through x at
    depth >= k are inside R.
    """
    grid = tau.grid
    fints = level_integrals(f)
    svals = sigma.values * grid.cell_volume
    suffix = np.zeros(grid.cells)
    out = [None] * (grid.N + 1)
    for k in range(grid.N, -1, -1):
        tau_k = tau.levels[k]
        if tau_k.any():
            constants = tau_k * fints[k] * float(1 << (grid.d * k))
            suffix = suffix + repeat_to_cells(grid, constants, k)
        per_cube = (suffix ** pprime * svals).reshape(1 << (grid.d * k), -1).sum(axis=1)
        out[k] = per_cube ** (1.0 / pprime) / wints[k] ** (1.0 / pprime)
    return out


def sawyer_testing(
    tau: TauCoefficients,
    w: StepFunction,
    sigma: StepFunction,
    p: float,
) -> TestingConstant:
    """Dual testing constant with exponent p' = p/(p-1): w fed into the
    R-localized operator,
    sup_R w(R)^(-1/p') || sum_{Q subset R} tau_Q avg_Q(w) 1_Q ||_{L^p'(sigma)}.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    grid = tau.grid
    if w.grid != grid or sigma.grid != grid:
        raise GridMismatchError("weights must live on the operator's grid")
    ratios = _testing_ratios(tau, w, sigma, level_integrals(w), p / (p - 1.0))
    return TestingConstant(*_witnessed(grid, _sup_over_cubes(ratios)))


def strong_norm_bound(
    tau: TauCoefficients, w: StepFunction, sigma: StepFunction, p: float
) -> float:
    """Two-sided testing proxy for the L^p(sigma) -> L^p(w) norm.

    The sum of the dual testing constant and its swap under
    (w, sigma, p) -> (sigma, w, p').
    """
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    pprime = p / (p - 1.0)
    first = sawyer_testing(tau, w, sigma, p).value
    second = sawyer_testing(tau, sigma, w, pprime).value
    return first + second
