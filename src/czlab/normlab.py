"""Operator-norm estimation on weighted spaces and the sharpness sweeps.

For p = 2 the norm of f -> T(sigma f) from L^2(sigma) to L^2(w) is the top
singular value of a weighted conjugation, computed by Lanczos iteration on the
self-adjoint composition.  For general p only certified lower bounds are
reported: every estimate stores a witness function that reproduces it.  The
strong search scores the spectral witness and seeded random vectors; the
weak-type search adds every cube indicator.  Both then refine their best
starts by Boyd's p-norm power iteration (D. W. Boyd, Linear Algebra Appl. 9
(1974); N. J. Higham, Numer. Math. 62 (1992)), linearising the operator at
each iterate, so a maximal truncation is refined as a linear shift is.  The
sweep assembles, for each (operator, weight, p, N) row, the measured norm,
the characteristic-based bound it is tested against, and their ratio.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .characteristics import ainfty_characteristic, ap_characteristic, dual_weight, joint_ap
from .dyadics import GridSpec, StepFunction, require_weight
from .families import power_weight, two_value_weight
from .positive import TauCoefficients, _positive_block
from .shifts import HaarShift, _hilbert_block, _hilbert_taps, build_petermichl, build_random_shift

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
    """Lanczos iteration hit its step cap before reaching tolerance.

    bracket is (sqrt(theta), sqrt(theta + resid)) for the top Ritz value theta
    and its residual at the cap; theta never exceeds the true top eigenvalue.
    """

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class LinearOperator:
    """A linear map on cell-value arrays with its unweighted adjoint.

    Both maps take an array of shape (..., cells) and act on each row.
    """

    grid: GridSpec
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    label: str = ""


@dataclass(frozen=True)
class SublinearOperator:
    """A positively homogeneous map on cell-value arrays of shape (..., cells).

    linear_part, when present, is a linear operator dominated pointwise by
    this one; its spectral witness seeds the lower-bound searches.
    """

    grid: GridSpec
    apply: Callable[[np.ndarray], np.ndarray]
    linear_part: LinearOperator | None = None
    label: str = ""


def shift_operator(S: HaarShift) -> LinearOperator:
    adj = S.adjoint()
    return LinearOperator(S.grid, lambda v: S.apply(v), lambda v: adj.apply(v), label="shift")


@dataclass(frozen=True)
class _ShiftTruncation(SublinearOperator):
    """A shift's maximal truncation, which the searches linearise."""

    shift: HaarShift | None = None


def truncation_operator(S: HaarShift) -> SublinearOperator:
    return _ShiftTruncation(S.grid, S.truncation, shift_operator(S), "shift-truncation", S)


def positive_operator(tau: TauCoefficients) -> LinearOperator:
    fwd = functools.partial(_positive_block, tau)
    # symmetric kernel: self-adjoint under the unweighted pairing
    return LinearOperator(tau.grid, fwd, fwd, label="positive")


def hilbert_operator(grid: GridSpec) -> LinearOperator:
    fwd = functools.partial(_hilbert_block, taps=_hilbert_taps(grid, [0.0])[0])
    return LinearOperator(grid, fwd, lambda v: -fwd(v), label="hilbert")


@dataclass(frozen=True)
class NormEstimate:
    """A certified lower bound: the witness reproduces the value."""

    lower_bound: float
    method: str
    witness: StepFunction
    p: float
    iterations: int


# Rows per block of start vectors in the norm searches.
_SEARCH_BLOCK = 32
# A row of Boyd's power iteration stops when its score gains less than this
# relative amount in one step, or after this many scores.
_BOYD_RTOL = 1e-5
_BOYD_STEPS = 100


def _lp_norms(block, weight, p) -> list[float]:
    """||v||_{L^p(weight)} for each row v of a (K, cells) block."""
    sums = (np.abs(block) ** p * weight.values).sum(axis=-1) * weight.grid.cell_volume
    # the root as a Python float: numpy's array power takes a sqrt fast path
    return [float(s) ** (1.0 / p) for s in sums]


def _ratios(out, block, w, sigma, p, out_norms=_lp_norms) -> list[float]:
    """out_norms(T(sigma f), w, p) / ||f||_{L^p(sigma)} for the rows f of a
    (K, cells) block and the rows `out` of T(sigma f); out_norms defaults to
    the L^p(w) norms."""
    fnorms = _lp_norms(block, sigma, p)
    return [o / fn if fn != 0.0 else 0.0 for o, fn in zip(out_norms(out, w, p), fnorms)]


def norm_p2(
    op: LinearOperator,
    w: StepFunction,
    sigma: StepFunction,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> NormEstimate:
    """Top singular value of f -> T(sigma f) from L^2(sigma) to L^2(w).

    Single-vector Lanczos with full re-orthogonalisation on the weighted
    self-adjoint composition B = D_sqrt(sigma) T* W T D_sqrt(sigma), from a
    seeded normal start.  It stops when the top Ritz pair's residual falls
    below 1e-4 * tol times its value, or on breakdown; `iterations` counts the
    Lanczos steps, one B-application each, at most min(max_iter, cells).  The
    reported value is the ratio re-evaluated at the Ritz witness, so the
    estimate certifies itself.  Raises NonConvergenceError with a value
    bracket at the step cap, and ValueError for max_iter < 1 or a tol that is
    not finite and positive.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    grid = op.grid
    if w.grid != grid or sigma.grid != grid:
        raise ValueError("weights must live on the operator's grid")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    sq_sigma = np.sqrt(sigma.values)
    wv = w.values

    def B(u):
        return sq_sigma * op.adjoint(wv * op.apply(sq_sigma * u))

    # A seeded normal start, not ones: ones lies in the kernel of every
    # cancellative shift at w = sigma = 1.
    q = np.random.default_rng(20540).standard_normal(grid.cells)
    Q = (q / np.linalg.norm(q))[None]  # Krylov basis, one row per step taken
    alpha: list[float] = []
    beta: list[float] = []
    steps = min(max_iter, grid.cells)
    for k in range(1, steps + 1):
        v = B(Q[-1])
        alpha.append(float(Q[-1] @ v))
        for _ in range(2):  # full re-orthogonalisation; twice is enough
            v -= (Q @ v) @ Q
        b = float(np.linalg.norm(v))
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        ritz, Y = np.linalg.eigh(T)
        theta, y = max(float(ritz[-1]), 0.0), Y[:, -1]
        resid = b * abs(float(y[-1]))
        # The Ritz residual is stopped four decades below the requested
        # tolerance: the value error then sits far inside tol whenever the
        # top eigenvalue is separated (it shrinks like resid^2 / gap).
        # Breakdown (b at rounding level) means the basis spans an invariant
        # subspace.
        if resid <= 1e-4 * tol * theta or b <= grid.cells * np.finfo(float).eps * theta:
            break
        if k == steps:
            raise NonConvergenceError(
                f"Lanczos did not converge within {steps} steps",
                (math.sqrt(theta), math.sqrt(theta + resid)),
            )
        beta.append(b)
        Q = np.vstack([Q, v / b])
    fvals = (y @ Q) / sq_sigma
    value = _ratios(op.apply(sigma.values * fvals[None]), fvals[None], w, sigma, 2.0)[0]
    return NormEstimate(value, "spectral", StepFunction(grid, fvals), 2.0, k)


def _indicator_blocks(grid):
    """Every cube indicator in blocks of rows, coarsest level first, Z-order
    within a level."""
    cells = np.arange(grid.cells)
    levels = np.repeat(np.arange(grid.N + 1), [1 << (grid.d * k) for k in range(grid.N + 1)])
    zs = np.concatenate([np.arange(1 << (grid.d * k)) for k in range(grid.N + 1)])
    bits = grid.d * (grid.N - levels)
    lo, hi = zs << bits, (zs + 1) << bits
    for k in range(0, lo.size, _SEARCH_BLOCK):
        sl = slice(k, k + _SEARCH_BLOCK)
        yield ((cells >= lo[sl, None]) & (cells < hi[sl, None])).astype(float)


def _spectral_start(op, w, sigma):
    """Yields the norm_p2 witness of op's linear part as a one-row block,
    unless there is no linear part or its spectral solve does not converge."""
    linear = op if isinstance(op, LinearOperator) else op.linear_part
    if linear is not None:
        try:
            yield norm_p2(linear, w, sigma).witness.values[None]
        except NonConvergenceError:
            pass


def _random_blocks(grid, seed, random_starts):
    """Seeded random starts g and |g|, interleaved, in blocks of rows."""
    rng = np.random.default_rng([seed, 1])
    for k in range(0, random_starts, _SEARCH_BLOCK // 2):
        g = rng.standard_normal((min(_SEARCH_BLOCK // 2, random_starts - k), grid.cells))
        yield np.stack([g, np.abs(g)], axis=1).reshape(-1, grid.cells)


def _linearisation(op):
    """x -> (op applied to each row of x, adjoint(u, rows) of op's linear
    map at those rows of x), or None for an operator without one."""
    if isinstance(op, LinearOperator):
        return lambda x: (op.apply(x), lambda u, rows: op.adjoint(u))
    return op.shift._selected if isinstance(op, _ShiftTruncation) else None


def _boyd(out_norms, linearise, w, sigma, p, block):
    """Boyd's p-norm power iteration from each row of a (K, cells) block:
    at f, linearise gives y = T(sigma f) and a linear L with L f = T f and
    |L g| <= |T g|, and f <- sign(z)|z|^(p'-1) for z = L^t(w sign(y)|y|^(p-1))
    never lowers the L^p score in exact arithmetic (Boyd: ||L f'|| >= ||L f||).
    y and z are divided by their largest magnitude, keeping powers in [0, 1].
    Every iterate, the start included, is scored by _ratios with out_norms; a
    row stops when its score gains less than _BOYD_RTOL relative (so on y = 0
    or z = 0) or at its _BOYD_STEPS-th score.  Returns each row's best score,
    the iterates attaining them and the row applications of T and L^t."""
    pprime = p / (p - 1.0)
    best, best_f = np.zeros(len(block)), block.copy()
    rows = np.arange(len(block))  # the rows still iterating
    f, apps = block, 0
    for step in range(_BOYD_STEPS):
        y, adjoint = linearise(sigma.values * f)
        apps += len(rows)
        vals = np.array(_ratios(y, f, w, sigma, p, out_norms))
        go = vals > best[rows] * (1.0 + _BOYD_RTOL)
        up = vals > best[rows]
        best[rows[up]], best_f[rows[up]] = vals[up], f[up]
        if step + 1 == _BOYD_STEPS or not go.any():
            break
        y, rows = y[go], rows[go]
        ymax = np.max(np.abs(y), axis=1, keepdims=True)
        z = adjoint(w.values * np.sign(y) * (np.abs(y) / ymax) ** (p - 1.0), go)
        apps += len(rows)
        zmax = np.max(np.abs(z), axis=1, keepdims=True)
        f = np.sign(z) * (np.abs(z) / np.where(zmax == 0.0, 1.0, zmax)) ** (pprime - 1.0)
    return best.tolist(), best_f, apps


def _search(out_norms, op, w, sigma, p, budget, starts):
    """Maximise _ratios with output norms `out_norms` over the (K, cells)
    blocks of `starts`, then by _boyd from the `budget` best starts if op
    has a linearisation; returns the best value, the input attaining it and
    the row applications of the operator and its adjoint."""
    # the `budget` best starts so far (at least one) as (value, stream index,
    # vector); best score first, stream order breaks ties
    top: list[tuple[float, int, np.ndarray | None]] = []
    scanned = 0
    for block in starts:
        values = _ratios(op.apply(sigma.values * block), block, w, sigma, p, out_norms)
        ranked = top + [(val, scanned + i, None) for i, val in enumerate(values)]
        ranked.sort(key=lambda rec: (-rec[0], rec[1]))
        top = [
            (val, idx, block[idx - scanned].copy() if fv is None else fv)
            for val, idx, fv in ranked[: max(budget, 1)]
        ]
        scanned += len(block)
    if not top:
        raise ValueError("the search has no start: give random_starts >= 1")
    linearise = _linearisation(op)
    if linearise is None or budget < 1:
        return top[0][0], top[0][2], scanned
    # each row ends at or above its start, so the first best row wins
    vals, fs, apps = _boyd(out_norms, linearise, w, sigma, p, np.array([t[2] for t in top[:budget]]))
    best = int(np.argmax(vals))
    return vals[best], fs[best], scanned + apps


def norm_lp_lower(
    op,
    w: StepFunction,
    sigma: StepFunction,
    p: float,
    budget: int = 8,
    seed: int = 0,
    random_starts: int = 32,
) -> NormEstimate:
    """Certified lower bound for ||f -> T(sigma f)|| from L^p(sigma) to L^p(w).

    Scores the p = 2 spectral witness of the linear part (norm_p2) and
    seeded random starts g and |g| on the operator itself, then runs Boyd's
    iteration (_boyd) from the `budget` best, linearised at each iterate: a
    shift truncation by the cutoff each cell selects (other sublinear
    operators are not refined).  A refined row never falls below its start
    and larger budgets refine supersets, so the estimate is monotone in the
    budget.  `iterations` counts scored starts and Boyd's row applications.
    Raises ValueError when there is no start: no spectral witness and
    random_starts < 1.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    starts = itertools.chain(
        _spectral_start(op, w, sigma), _random_blocks(w.grid, seed, random_starts)
    )
    best_val, best_f, apps = _search(_lp_norms, op, w, sigma, p, budget, starts)
    fnorm = _lp_norms(best_f[None], sigma, p)[0]
    witness = StepFunction(w.grid, best_f / fnorm if fnorm > 0 else best_f)
    return NormEstimate(best_val, "search", witness, p, apps)


def _weak_functionals(block: np.ndarray, w: StepFunction, p: float) -> list[float]:
    """Per row of a (K, cells) block: max over thresholds of
    lam * w{|out| > lam}^(1/p), lam at output values."""
    mags = np.abs(block)
    order = np.argsort(mags, axis=-1)[:, ::-1]
    sorted_mags = np.take_along_axis(mags, order, axis=-1)
    wmass = np.cumsum(w.values[order], axis=-1) * w.grid.cell_volume
    vals = sorted_mags * wmass ** (1.0 / p)
    return vals.max(axis=-1, initial=0.0).tolist()


def weak_norm_estimate(
    op,
    w: StepFunction,
    sigma: StepFunction,
    p: float,
    seed: int = 0,
    budget: int = 4,
    random_starts: int = 16,
) -> float:
    """Lower estimate of the L^p(sigma) -> weak-L^p(w) norm.

    Thresholds are scanned over the finite set of output magnitudes.  The
    search is the strong one's scan and Boyd refinement, scored by the weak
    functional, on a start stream of every cube indicator (coarsest level
    first, Z-order within a level), the p = 2 spectral witness of the linear
    part and the seeded random starts g and |g|; at p = 1, where Boyd's
    duality map is undefined, the starts are not refined.  The weak value
    never exceeds the strong one on shared witnesses.
    """
    require_weight(w)
    require_weight(sigma, "sigma")
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, infinity)")
    starts = itertools.chain(
        _indicator_blocks(w.grid),
        _spectral_start(op, w, sigma),
        _random_blocks(w.grid, seed, random_starts),
    )
    return _search(_weak_functionals, op, w, sigma, p, budget if p > 1.0 else 0, starts)[0]


# -- sharpness sweep --------------------------------------------------------

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


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


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
    p_list=(1.5, 2.0, 3.0),
    N_list=(8, 10),
    seed: int = 0,
    budget: int = 6,
    random_starts: int = 16,
) -> list[SweepRow]:
    """Measured truncation norms against the characteristic bound, per row,
    on the one-dimensional grids of levels N_list.

    Every row uses the dual weight sigma = w^(1-p'), the two-weight bracket,
    and the bound bracket * (ainfty(w)^(1/p') + ainfty(sigma)^(1/p)); the
    final column carries the single-characteristic comparison
    ap^max(1, 1/(p-1)).  All A_infty values are dyadic-mode.
    """
    rows = []
    for N in N_list:
        grid = GridSpec(1, int(N))
        ops = [
            (name, truncation_operator(S))
            for name, S in default_operators(grid, seed, operator_kinds)
        ]
        for fam, param, w in default_weight_family(grid):
            rows.extend(
                _sweep_block(grid, fam, param, w, ops, p_list, seed, budget, random_starts)
            )
    return rows
