"""Parameterized weight and test-function generators used by the sweeps.

Power-like spikes are discretized by exact cell averages of |x - x0|^alpha
with the center snapped to a cell boundary; random weights are positive
multiplicative cascades refined level by level, so the same seed produces
coherent weights across different grid depths.
"""

from __future__ import annotations

import numpy as np

from .dyadics import GridSpec, StepFunction, _child_sum

__all__ = [
    "power_weight",
    "two_value_weight",
    "cascade_weight",
    "random_step",
    "weight_from_spec",
]

_MIN_CELL_AVERAGE = 1e-12


def power_weight(grid: GridSpec, alpha: float, center: float = 0.5) -> StepFunction:
    """Cell averages of |x - x0|^alpha in dimension one.

    The center is snapped to a cell boundary so every cell average is finite
    and positive; alpha must exceed -1 for integrability.
    """
    if grid.d != 1:
        raise ValueError("power weights are one-dimensional")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    M = grid.cells
    x0 = round(center * M) / M
    edges = np.arange(M + 1) / M

    def antideriv(u):
        return np.sign(u) * np.abs(u) ** (alpha + 1.0) / (alpha + 1.0)

    vals = (antideriv(edges[1:] - x0) - antideriv(edges[:-1] - x0)) * M
    if vals.min() <= _MIN_CELL_AVERAGE:
        raise ValueError("alpha too extreme: a cell average fell below 1e-12")
    return StepFunction(grid, vals)


def two_value_weight(grid: GridSpec, value: float, level: int) -> StepFunction:
    """Weight equal to `value` on the first level-`level` cube, one elsewhere."""
    if value <= 0.0:
        raise ValueError("weight value must be positive")
    if not 0 <= level <= grid.N:
        raise ValueError("level outside the grid")
    vals = np.ones(grid.cells)
    vals[grid.cube(level, (0,) * grid.d).cell_slice] = value
    return StepFunction(grid, vals)


def cascade_weight(grid: GridSpec, seed: int, volatility: float = 0.5) -> StepFunction:
    """Positive multiplicative cascade with mean-one child factors.

    Each refinement multiplies the children of every cube by factors
    1 + volatility * u with u recentered to mean zero and clipped away from
    zero, so positivity is unconditional.  In d = 1 the recentred pair is
    (a, -a), so every factor is 1 +- volatility up to rounding in the last
    bit: all seeds give the same weight up to a dyadic rearrangement (and
    that rounding), and the seed only picks which child of each cube gets
    1 + volatility.
    """
    return StepFunction(grid, _cascade_rows(grid, [seed], volatility)[0])


def _cascade_rows(grid: GridSpec, seeds, volatility: float) -> np.ndarray:
    """cascade_weight's cell values for each seed: a (len(seeds), cells) array.

    Each seed's normals for all N refinements come from one draw, the
    stream its refinements read in turn; they are recentred, scaled and
    clipped for every level at once, and only the product down the levels
    runs level by level.
    """
    if not 0.0 <= volatility < 1.0:
        raise ValueError("volatility must lie in [0, 1)")
    fold = 1 << grid.d
    parents = [fold**level for level in range(grid.N)]  # cubes each refinement splits
    u = np.empty((len(seeds), sum(parents), fold))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    _to_factors(u, volatility)
    vals = np.ones((len(seeds), 1))
    start = 0
    for count in parents:
        vals = (vals[..., None] * u[:, start : start + count]).reshape(len(seeds), -1)
        start += count
    return vals


def _to_factors(u: np.ndarray, volatility: float):
    """Turn normals u (a cube's children along the last axis) into the
    cascade's factors, in place: u is recentred, then becomes
    1 + volatility * u / scale, rounded step by step in that order, with
    scale its largest |u|, and is clipped at 0.05."""
    fold = u.shape[-1]
    # column by column: numpy reduces a short last axis far more slowly,
    # and these give the same bits as u.mean(axis=-1) and |u|.max(axis=-1)
    u -= (_child_sum([u[..., i] for i in range(fold)]) / fold)[..., None]
    scale = np.abs(u[..., 0])
    for i in range(1, fold):
        np.maximum(scale, np.abs(u[..., i]), out=scale)
    scale[scale == 0.0] = 1.0
    u *= volatility
    u /= scale[..., None]
    u += 1.0
    np.clip(u, 0.05, None, out=u)


def random_step(grid: GridSpec, seed: int, spikes: int = 0) -> StepFunction:
    """Gaussian cell values with optional multiplicative spikes."""
    return StepFunction(grid, _random_step_rows(grid, [seed], spikes)[0])


def _random_step_rows(grid: GridSpec, seeds, spikes: int = 0) -> np.ndarray:
    """random_step's cell values for each seed: a (len(seeds), cells) array."""
    vals = np.empty((len(seeds), grid.cells))
    for row, seed in zip(vals, seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=row)
        for _ in range(spikes):
            row[rng.integers(0, grid.cells)] *= 10.0
    return vals


def weight_from_spec(grid: GridSpec, spec: dict, seed: int | None = None) -> StepFunction:
    """Build a weight from a config-style description.

    Recognized kinds: constant {value}, two_value {value, level},
    power {alpha, center}, cascade {volatility, seed?}.
    """
    kind = spec.get("kind")
    if kind == "constant":
        value = float(spec.get("value", 1.0))
        if value <= 0:
            raise ValueError("constant weight must be positive")
        return StepFunction.constant(grid, value)
    if kind == "two_value":
        return two_value_weight(grid, float(spec["value"]), int(spec["level"]))
    if kind == "power":
        return power_weight(grid, float(spec["alpha"]), float(spec.get("center", 0.5)))
    if kind == "cascade":
        s = spec.get("seed", seed)
        if s is None:
            raise ValueError("cascade weights need a seed")
        return cascade_weight(grid, int(s), float(spec.get("volatility", 0.5)))
    raise ValueError(f"unknown weight kind: {kind!r}")
