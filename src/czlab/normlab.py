"""Operator-norm estimation on weighted spaces and the sharpness sweeps.

For p = 2 the norm of f -> T(sigma f) from L^2(sigma) to L^2(w) is the top
singular value of a weighted conjugation, computed by power iteration on the
self-adjoint composition.  For general p only certified lower bounds are
reported: every estimate stores a witness function that reproduces it.  The
sweep assembles, for each (operator, weight, p, N) row, the measured norm,
the characteristic-based bound it is tested against, and their ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .characteristics import ainfty_characteristic, ap_characteristic, dual_weight, joint_ap
from .dyadics import GridSpec, StepFunction, require_weight
from .families import power_weight, two_value_weight
from .shifts import HaarShift, build_petermichl, build_random_shift

__all__ = [
    "LinearOperator",
    "SublinearOperator",
    "NormEstimate",
    "SweepRow",
    "NonConvergenceError",
    "shift_operator",
    "truncation_operator",
    "positive_operator",
    "hilbert_operator",
    "norm_p2",
    "norm_lp_lower",
    "weak_norm_estimate",
    "sharpness_sweep",
    "SWEEP_CSV_HEADER",
]


class NonConvergenceError(RuntimeError):
    """Power iteration failed to reach tolerance; carries a value bracket."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class LinearOperator:
    """A linear map on cell-value arrays with its unweighted adjoint."""

    grid: GridSpec
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    label: str = ""


@dataclass(frozen=True)
class SublinearOperator:
    """A positively homogeneous map on cell-value arrays.

    linear_part, when present, is a linear operator dominated pointwise by
    this one; its spectral witness seeds the lower-bound searches.
    """

    grid: GridSpec
    apply: Callable[[np.ndarray], np.ndarray]
    linear_part: LinearOperator | None = None
    label: str = ""


def shift_operator(S: HaarShift) -> LinearOperator:
    adj = S.adjoint()

    def fwd(v):
        return S.apply(StepFunction(S.grid, v)).values

    def bwd(v):
        return adj.apply(StepFunction(S.grid, v)).values

    return LinearOperator(S.grid, fwd, bwd, label="shift")


def truncation_operator(S: HaarShift) -> SublinearOperator:
    def fwd(v):
        return S.truncation(StepFunction(S.grid, v)).values

    return SublinearOperator(S.grid, fwd, shift_operator(S), label="shift-truncation")


def positive_operator(tau) -> LinearOperator:
    from .positive import apply_positive

    grid = tau.grid
    ones = StepFunction.constant(grid, 1.0)

    def fwd(v):
        return apply_positive(tau, ones, StepFunction(grid, v)).values

    # symmetric kernel: self-adjoint under the unweighted pairing
    return LinearOperator(grid, fwd, fwd, label="positive")


def hilbert_operator(grid: GridSpec) -> LinearOperator:
    from .shifts import hilbert_direct

    def fwd(v):
        return hilbert_direct(StepFunction(grid, v)).values

    def bwd(v):
        return -hilbert_direct(StepFunction(grid, v)).values

    return LinearOperator(grid, fwd, bwd, label="hilbert")


@dataclass(frozen=True)
class NormEstimate:
    """A certified lower bound: the witness reproduces the value."""

    lower_bound: float
    method: str
    witness: StepFunction
    p: float
    iterations: int


def _lp_norm_cells(vals, weight, p) -> float:
    """||v||_{L^p(weight)} for cell values vals."""
    return float((np.abs(vals) ** p * weight.values).sum() * weight.grid.cell_volume) ** (1.0 / p)


def _ratio(op_apply, w, sigma, p, fvals, out_norm=_lp_norm_cells) -> float:
    """out_norm(T(sigma f), w, p) / ||f||_{L^p(sigma)} for cell values fvals;
    out_norm defaults to the L^p(w) norm."""
    fnorm = _lp_norm_cells(fvals, sigma, p)
    if fnorm == 0.0:
        return 0.0
    return out_norm(op_apply(sigma.values * fvals), w, p) / fnorm


def norm_p2(
    op: LinearOperator,
    w: StepFunction,
    sigma: StepFunction,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> NormEstimate:
    """Top singular value of f -> T(sigma f) from L^2(sigma) to L^2(w).

    Power iteration on the weighted self-adjoint composition, run from three
    deterministic starts; the reported value is the ratio re-evaluated at the
    final witness, so the estimate certifies itself.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    grid = op.grid
    if w.grid != grid or sigma.grid != grid:
        raise ValueError("weights must live on the operator's grid")
    sq_sigma = np.sqrt(sigma.values)
    wv = w.values

    def B(u):
        return sq_sigma * op.adjoint(wv * op.apply(sq_sigma * u))

    rng = np.random.default_rng(20540)
    starts = [
        np.ones(grid.cells),
        rng.standard_normal(grid.cells),
        rng.standard_normal(grid.cells),
    ]
    # Rayleigh increments are stopped two decades below the requested
    # tolerance so the certified value lands safely inside it.
    increment_tol = 0.01 * tol
    best_theta = -math.inf
    best_u = starts[0] / math.sqrt(grid.cells)
    total_iters = 0
    for u in starts:
        u = u / np.linalg.norm(u)
        theta = 0.0
        theta_prev = -math.inf
        settled = False
        for _ in range(max_iter):
            v = B(u)
            total_iters += 1
            theta = float(u @ v)
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                theta = 0.0
                settled = True
                break
            u = v / nv
            if theta_prev > -math.inf and abs(theta - theta_prev) <= increment_tol * max(
                abs(theta), 1e-300
            ):
                settled = True
                break
            theta_prev = theta
        if not settled:
            resid = float(np.linalg.norm(B(u) - theta * u))
            lo = math.sqrt(max(theta, 0.0))
            hi = math.sqrt(max(theta, 0.0) + resid)
            raise NonConvergenceError(
                f"power iteration did not converge within {max_iter} iterations",
                (lo, hi),
            )
        if theta > best_theta:
            best_theta = max(theta, 0.0)
            best_u = u
    with np.errstate(divide="ignore", invalid="ignore"):
        fvals = np.where(sq_sigma > 0, best_u / sq_sigma, 0.0)
    value = _ratio(op.apply, w, sigma, 2.0, fvals)
    return NormEstimate(value, "spectral", StepFunction(grid, fvals), 2.0, total_iters)


def _start_stream(op, w, sigma, p, seed, random_starts):
    """Deterministic restart stream: cube indicators, the spectral witness
    where available, then seeded random starts."""
    grid = op.grid
    for Q in grid.all_cubes():
        yield StepFunction.indicator(Q).values
    linear = op if isinstance(op, LinearOperator) else op.linear_part
    if linear is not None:
        try:
            yield norm_p2(linear, w, sigma).witness.values
        except NonConvergenceError:
            pass
    rng = np.random.default_rng([seed, 1])
    for _ in range(random_starts):
        g = rng.standard_normal(grid.cells)
        yield g
        yield np.abs(g)


def _search(out_norm, op, w, sigma, p, seed, budget, steps, random_starts):
    """Maximise _ratio with output norm `out_norm` over the restart stream
    and the ascent (see norm_lp_lower); returns the best value, the input
    attaining it and the number of evaluations."""

    def value(fv):
        return _ratio(op.apply, w, sigma, p, fv, out_norm)

    scanned: list[tuple[float, int, np.ndarray]] = [
        (value(fv), idx, fv)
        for idx, fv in enumerate(_start_stream(op, w, sigma, p, seed, random_starts))
    ]
    # deterministic order: best score first, stream order breaks ties
    scanned.sort(key=lambda rec: (-rec[0], rec[1]))
    best_val, _, best_f = scanned[0]
    refined = max(0, min(budget, len(scanned)))
    for rank in range(refined):
        val, idx, fv = scanned[rank]
        rng = np.random.default_rng([seed, 2, idx])
        cur, cur_val, step = fv.astype(float), val, 0.5
        for it in range(steps):
            noise = rng.standard_normal(cur.size)
            if it % 2 == 0:
                cand = cur * np.exp(step * noise)
            else:
                scale = float(np.max(np.abs(cur))) or 1.0
                cand = cur + step * scale * noise
            cand_val = value(cand)
            if cand_val > cur_val:
                cur, cur_val = cand, cand_val
            else:
                step *= 0.5
        if cur_val > best_val:
            best_val, best_f = cur_val, cur
    return best_val, best_f, len(scanned) + refined * steps


def norm_lp_lower(
    op,
    w: StepFunction,
    sigma: StepFunction,
    p: float,
    budget: int = 8,
    seed: int = 0,
    steps: int = 50,
    random_starts: int = 32,
) -> NormEstimate:
    """Certified lower bound for ||f -> T(sigma f)|| from L^p(sigma) to L^p(w).

    Scans the full restart stream (all cube indicators, the p = 2 spectral
    witness when the operator has a linear part, and seeded random starts),
    then ascent-refines the `budget` best scans with multiplicative and
    additive perturbations, halving the step on non-improvement.  Larger
    budgets refine supersets, so the estimate is monotone in the budget.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    best_val, best_f, evals = _search(
        _lp_norm_cells, op, w, sigma, p, seed, budget, steps, random_starts
    )
    fnorm = _lp_norm_cells(best_f, sigma, p)
    witness = StepFunction(w.grid, best_f / fnorm if fnorm > 0 else best_f)
    return NormEstimate(best_val, "search", witness, p, evals)


def _weak_functional(out: np.ndarray, w: StepFunction, p: float) -> float:
    """max over thresholds of lam * w{|out| > lam}^(1/p), lam at output values."""
    mags = np.abs(out)
    order = np.argsort(mags)[::-1]
    sorted_mags = mags[order]
    wmass = np.cumsum(w.values[order]) * w.grid.cell_volume
    vals = sorted_mags * wmass ** (1.0 / p)
    return float(vals.max(initial=0.0))


def weak_norm_estimate(
    op,
    w: StepFunction,
    sigma: StepFunction,
    p: float,
    seed: int = 0,
    budget: int = 4,
    steps: int = 30,
    random_starts: int = 16,
) -> float:
    """Lower estimate of the L^p(sigma) -> weak-L^p(w) norm.

    Thresholds are scanned over the finite set of output magnitudes; the
    search is the strong one's (same restart stream and ascent), so the weak
    value never exceeds the strong one on shared witnesses.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, infinity)")
    return _search(_weak_functional, op, w, sigma, p, seed, budget, steps, random_starts)[0]


# -- sharpness sweep --------------------------------------------------------

SWEEP_CSV_HEADER = "family,param,p,N,joint_ap,ainfty_w,ainfty_sigma,norm,rhs,ratio,buckley_rhs"


@dataclass(frozen=True)
class SweepRow:
    """One sweep configuration with the measured norm and the tested bound."""

    family: str
    param: str
    p: float
    N: int
    joint_ap: float
    ainfty_w: float
    ainfty_sigma: float
    norm: float
    rhs: float
    ratio: float
    buckley_rhs: float


def default_weight_family(grid: GridSpec):
    """The default sweep weights: power-like spikes plus two-value weights."""
    out = []
    for alpha in (-0.9, -0.75, -0.5, 0.5, 0.75, 0.9):
        out.append(("power", f"{alpha:+.2f}", power_weight(grid, alpha)))
    for value, level in ((16.0, 1), (256.0, 2), (4096.0, 3)):
        out.append(("two_value", f"{value:g}@{level}", two_value_weight(grid, value, level)))
    return out


def default_operators(grid: GridSpec, seed: int, kinds=None):
    """Petermichl plus two random complexity-2 shifts, built on demand."""
    builders = {
        "petermichl": lambda: build_petermichl(grid),
        "random2a": lambda: build_random_shift(2, 2, seed + 1, grid),
        "random2b": lambda: build_random_shift(2, 2, seed + 2, grid),
    }
    if kinds is None:
        kinds = tuple(builders)
    unknown = [k for k in kinds if k not in builders]
    if unknown:
        raise ValueError(f"unknown operator kinds: {unknown}")
    return [(k, builders[k]()) for k in builders if k in kinds]


def _sweep_block(grid, fam, param, w, ops, p_list, seed, budget, random_starts):
    """Rows for one (grid, weight) combination, in deterministic order;
    ops holds the grid's (name, truncation operator) pairs."""
    ainf_w = ainfty_characteristic(w).value
    rows = []
    for p in p_list:
        sigma = dual_weight(w, p)
        pprime = p / (p - 1.0)
        bracket = joint_ap(w, sigma, p).value
        ainf_sigma = ainfty_characteristic(sigma).value
        ap_val = ap_characteristic(w, p).value
        rhs = bracket * (ainf_w ** (1.0 / pprime) + ainf_sigma ** (1.0 / p))
        buckley = ap_val ** max(1.0, 1.0 / (p - 1.0))
        for op_name, trunc in ops:
            # at p = 2 the stream carries the spectral witness, and the
            # truncation dominates |S f|, so the search already covers norm_p2
            norm_val = norm_lp_lower(
                trunc, w, sigma, p,
                budget=budget, seed=seed, random_starts=random_starts,
            ).lower_bound
            rows.append(
                SweepRow(
                    family=f"{op_name}:{fam}",
                    param=param,
                    p=float(p),
                    N=int(grid.N),
                    joint_ap=bracket,
                    ainfty_w=ainf_w,
                    ainfty_sigma=ainf_sigma,
                    norm=norm_val,
                    rhs=rhs,
                    ratio=norm_val / rhs,
                    buckley_rhs=buckley,
                )
            )
    return rows


def sharpness_sweep(
    operator_kinds=("petermichl", "random2a", "random2b"),
    weight_family: str = "default",
    p_list=(1.5, 2.0, 3.0),
    N_list=(8, 10),
    d: int = 1,
    seed: int = 0,
    budget: int = 6,
    random_starts: int = 16,
) -> list[SweepRow]:
    """Measured truncation norms against the characteristic bound, per row.

    Every row uses the dual weight sigma = w^(1-p'), the two-weight bracket,
    and the bound bracket * (ainfty(w)^(1/p') + ainfty(sigma)^(1/p)); the
    final column carries the single-characteristic comparison
    ap^max(1, 1/(p-1)).  All A_infty values are dyadic-mode.
    """
    if d != 1:
        raise ValueError("the default sweep operators require d = 1")
    if weight_family != "default":
        raise ValueError("unknown weight family")
    rows = []
    for N in N_list:
        grid = GridSpec(d, int(N))
        ops = [
            (name, truncation_operator(S))
            for name, S in default_operators(grid, seed, operator_kinds)
        ]
        for fam, param, w in default_weight_family(grid):
            rows.extend(
                _sweep_block(grid, fam, param, w, ops, p_list, seed, budget, random_starts)
            )
    return rows
