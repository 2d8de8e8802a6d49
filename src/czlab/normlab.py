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
import operator
import os
import threading
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .characteristics import ainfty_characteristic, ap_characteristic, dual_weight, joint_ap
from .dyadics import GridSpec, StepFunction, _finite_number, require_weight
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

    def __reduce__(self):
        # rebuilt from both arguments, so a worker process can raise it
        return type(self), (self.args[0], self.bracket)


@dataclass(frozen=True)
class LinearOperator:
    """A linear map on cell-value arrays with its unweighted adjoint.

    Both maps take an array of shape (..., cells) and act on each row.
    """

    grid: GridSpec
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SublinearOperator:
    """A positively homogeneous map on cell-value arrays of shape (..., cells).

    linear_part, when present, is a linear operator dominated pointwise by
    this one; its spectral witness seeds the lower-bound searches.
    """

    grid: GridSpec
    apply: Callable[[np.ndarray], np.ndarray]
    linear_part: LinearOperator | None = None


def shift_operator(S: HaarShift) -> LinearOperator:
    return LinearOperator(S.grid, S.apply, S.adjoint().apply)


@dataclass(frozen=True)
class _ShiftTruncation(SublinearOperator):
    """A shift's maximal truncation, which the searches linearise."""

    shift: HaarShift | None = None


def truncation_operator(S: HaarShift) -> SublinearOperator:
    return _ShiftTruncation(S.grid, S.truncation, shift_operator(S), S)


def positive_operator(tau: TauCoefficients) -> LinearOperator:
    fwd = functools.partial(_positive_block, tau)
    # symmetric kernel: self-adjoint under the unweighted pairing
    return LinearOperator(tau.grid, fwd, fwd)


def hilbert_operator(grid: GridSpec) -> LinearOperator:
    fwd = functools.partial(_hilbert_block, spectrum=_hilbert_taps(grid, [0.0])[0])
    return LinearOperator(grid, fwd, lambda v: -fwd(v))


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
# A spectral solve stops once its top Ritz pair's residual is at most this
# fraction of the Ritz value.  Where the solve's value may be reported
# (norm_p2, and a strong search at p = 2), that is four decades below
# norm_p2's default tol; where its witness only seeds a search (a weak
# search, a strong one at p != 2), the seed stop: the search scores and
# refines the witness, and never reads its spectral value.
_CERTIFIED_RESID = 1e-4 * 1e-8
_SEED_RESID = 1e-2


class _Rows(NamedTuple):
    """Weights given row by row: values[i] (of a (K, cells) array) weighs
    row i of a block.  It reads like a StepFunction in _lp_norms, _ratios
    and _weak_functionals, which also take one StepFunction for every row."""

    grid: GridSpec
    values: np.ndarray


def _lp_norms(block, weight, p) -> list[float]:
    """||v||_{L^p(weight)} for each row v of a (K, cells) block; a boolean
    block is its own p-th power (0^p = 0 and 1^p = 1 exactly)."""
    powers = block if block.dtype == bool else np.abs(block) ** p
    sums = (powers * weight.values).sum(axis=-1) * weight.grid.cell_volume
    # the root as a Python float: numpy's array power takes a sqrt fast path
    return [float(s) ** (1.0 / p) for s in sums]


def _ratios(out, block, w, sigma, p, out_norms=_lp_norms) -> list[float]:
    """out_norms(T(sigma f), w, p) / ||f||_{L^p(sigma)} for the rows f of a
    (K, cells) block and the rows `out` of T(sigma f); out_norms defaults to
    the L^p(w) norms."""
    fnorms = _lp_norms(block, sigma, p)
    return [o / fn if fn != 0.0 else 0.0 for o, fn in zip(out_norms(out, w, p), fnorms)]


def _require_problem(grid, w, sigma):
    """Raises ValueError unless w and sigma are valid weights on `grid`."""
    require_weight(w)
    require_weight(sigma, "sigma")
    if w.grid != grid or sigma.grid != grid:
        raise ValueError("weights must live on the operator's grid")


def _require_count(name, value) -> int:
    """Returns value as an int; raises ValueError naming it unless it is a
    non-negative integer (numpy integers pass, bools do not)."""
    try:
        count = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return count


def _lanczos(op: LinearOperator, problems, stops, max_iter: int = 10_000) -> list:
    """norm_p2 of op for each (w, sigma) of `problems`, run in lockstep: one
    batched B-application per step for the problems still running, each
    problem re-orthogonalised against its own basis.  Problem i stops at
    the first check where its top Ritz pair's residual is at most stops[i]
    times its Ritz value (_CERTIFIED_RESID where the value is reported,
    _SEED_RESID where the witness only seeds a search), or on breakdown.
    The top Ritz pair is checked, by one eigh of the stacked equal-size
    tridiagonals, at steps 1-8 and then whenever the step count has grown
    by an eighth since the last scheduled check (k -> k + max(1, k // 8)),
    at the step cap, and for a problem whose b is at rounding level against
    its last checked Ritz value, a lower bound on the current one.  Every
    problem shares the step count and the check schedule, so every row and
    every stacked eigh gives the one-problem bits, whatever the other
    problems' stops.  Returns per problem its NormEstimate, or the
    NonConvergenceError it met at the step cap.  Raises ValueError for a
    max_iter that is not an integer of at least 1."""
    grid = op.grid
    for w, sigma in problems:
        _require_problem(grid, w, sigma)
    max_iter = _require_count("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    sq_sigma = np.array([np.sqrt(sigma.values) for _, sigma in problems])
    wv = np.array([w.values for w, _ in problems])
    steps = min(max_iter, grid.cells)
    breakdown = grid.cells * np.finfo(float).eps
    # A seeded normal start, not ones: ones lies in the kernel of every
    # cancellative shift at w = sigma = 1.
    q = np.random.default_rng(20540).standard_normal(grid.cells)
    # per problem: the Krylov basis, in a buffer that doubles when full (a
    # solve copies it O(log k) times), alphas, betas and the last checked
    # Ritz value
    bases = [(q / np.linalg.norm(q))[None] for _ in problems]
    alpha: list[list[float]] = [[] for _ in problems]
    beta: list[list[float]] = [[] for _ in problems]
    theta_last = [0.0] * len(problems)
    results: list = [None] * len(problems)
    converged = {}  # problem -> (Ritz witness, steps taken)
    live = list(range(len(problems)))
    check = 1  # the next scheduled check
    for k in range(1, steps + 1):
        if not live:
            break
        # B = D_sqrt(sigma) T* W T D_sqrt(sigma), applied to each last basis row
        sq = sq_sigma[live]
        V = sq * op.adjoint(wv[live] * op.apply(sq * np.array([bases[i][k - 1] for i in live])))
        norms = []
        for i, v in zip(live, V):
            Q = bases[i][:k]
            alpha[i].append(float(Q[-1] @ v))
            for _ in range(2):  # full re-orthogonalisation; twice is enough
                v -= (Q @ v) @ Q
            norms.append(float(np.linalg.norm(v)))
        scheduled = k in (check, steps)
        if k == check:
            check += max(1, k // 8)
        checked = [i for i, b in zip(live, norms) if scheduled or b <= breakdown * theta_last[i]]
        pairs = {}  # checked problem -> top Ritz value (clipped at 0) and vector
        if checked:
            T, d = np.zeros((len(checked), k, k)), np.arange(k)
            T[:, d, d] = [alpha[i] for i in checked]
            T[:, d[1:], d[:-1]] = T[:, d[:-1], d[1:]] = [beta[i] for i in checked]
            ritz, Y = np.linalg.eigh(T)
            pairs = {i: (max(float(r[-1]), 0.0), Yi[:, -1]) for i, r, Yi in zip(checked, ritz, Y)}
        running = []
        for i, v, b in zip(live, V, norms):
            if i in pairs:
                theta, y = pairs[i]
                theta_last[i] = theta
                resid = b * abs(float(y[-1]))
                # Breakdown (b at rounding level) means the basis spans an
                # invariant subspace.
                if resid <= stops[i] * theta or b <= breakdown * theta:
                    converged[i] = ((y @ bases[i][:k]) / sq_sigma[i], k)
                    bases[i] = None  # free the basis while other problems run
                    continue
                if k == steps:
                    results[i] = NonConvergenceError(
                        f"Lanczos did not converge within {steps} steps",
                        (math.sqrt(theta), math.sqrt(theta + resid)),
                    )
                    continue
            beta[i].append(b)
            if k == len(bases[i]):
                grown = np.empty((min(2 * k, steps), grid.cells))
                grown[:k] = bases[i]
                bases[i] = grown
            np.divide(v, b, out=bases[i][k])
            running.append(i)
        live = running
    # the value is the ratio re-evaluated at each Ritz witness
    if converged:
        done = list(converged)
        F = np.array([converged[i][0] for i in done])
        sigmas = _Rows(grid, np.array([problems[i][1].values for i in done]))
        values = _ratios(op.apply(sigmas.values * F), F, _Rows(grid, wv[done]), sigmas, 2.0)
        for i, f, value in zip(done, F, values):
            results[i] = NormEstimate(value, "spectral", StepFunction(grid, f), 2.0, converged[i][1])
    return results


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
    seeded normal start (_lanczos with one problem).  The top Ritz pair is
    checked at steps 1-8, then each time the step count k has grown by an
    eighth (k -> k + max(1, k // 8)), at the step cap, and on a b at
    rounding level.  It stops at the first check where the pair's residual
    is below 1e-4 * tol times its value, or on breakdown, so `iterations`
    may pass the first step meeting that test by at most k // 8 steps.
    The residual is stopped four decades below tol: the value error then
    sits far inside tol whenever the top eigenvalue is separated (it
    shrinks like resid^2 / gap).  This is the certified solve; a search
    whose spectral start only seeds it stops at _SEED_RESID instead
    (_spectral_start).  `iterations` counts the Lanczos steps, one
    B-application each, at most min(max_iter, cells).  The reported value
    is the ratio re-evaluated at the Ritz witness, so the estimate
    certifies itself.  Raises NonConvergenceError with a value bracket at
    the step cap, and ValueError for a max_iter that is not an integer of
    at least 1 or a tol that is not a finite positive number.
    """
    if not (_finite_number(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    (est,) = _lanczos(op, [(w, sigma)], [1e-4 * tol], max_iter)
    if isinstance(est, NonConvergenceError):
        raise est
    return est


def _cube_indicator(grid, level, z) -> np.ndarray:
    """The indicator of cube z of `level`, as a boolean row of cells."""
    return (np.arange(grid.cells) >> (grid.d * (grid.N - level))) == z


def _indicator_blocks(grid, score=None):
    """Every cube indicator, coarsest level first, Z-order within a level,
    in boolean blocks of rows.  Given `score`, each level's indicators come
    instead as one start (score(level), row) for _scan: their scores, and
    row(z) giving the indicator of cube z."""
    if score is not None:
        for level in range(grid.N + 1):
            yield score(level), functools.partial(_cube_indicator, grid, level)
        return
    cells = np.arange(grid.cells)
    levels = np.repeat(np.arange(grid.N + 1), [1 << (grid.d * k) for k in range(grid.N + 1)])
    zs = np.concatenate([np.arange(1 << (grid.d * k)) for k in range(grid.N + 1)])
    bits = grid.d * (grid.N - levels)
    lo, hi = zs << bits, (zs + 1) << bits
    for k in range(0, lo.size, _SEARCH_BLOCK):
        sl = slice(k, k + _SEARCH_BLOCK)
        yield (cells >= lo[sl, None]) & (cells < hi[sl, None])


def _cube_scores(op, w, sigma, p):
    """level -> the weak ratio of each cube indicator of `level`, in
    Z-order, by the shift kernel's sparse cube scorer
    (_KernelPlan.cube_weak), when op is a shift truncation whose plan
    cancels, sigma is 1 on every cell and w is constant; otherwise None.
    The ratios are _ratios's with _weak_functionals, bit for bit."""
    plan = op.shift._plan if isinstance(op, _ShiftTruncation) else None
    wv = w.values
    if plan is None or not (sigma.values == 1.0).all() or not (wv == wv[0]).all() or not plan.cancels:
        return None
    root = _mass_roots(wv, w.grid, p)

    def score(level):
        # the indicator's L^p(sigma) norm, as _lp_norms takes it: |Q|^(1/p)
        norm = (w.grid.cells >> (w.grid.d * level)) * w.grid.cell_volume
        norm **= 1.0 / p
        return [value / norm for value in plan.cube_weak(level, root).tolist()]

    return score


def _spectral_stop(p) -> float:
    """The Ritz-residual stop of a strong search's spectral start at
    exponent p: certified at p = 2, where the witness's ratio is a p = 2
    value the search may report, the seed stop elsewhere."""
    return _CERTIFIED_RESID if p == 2.0 else _SEED_RESID


def _spectral_start(op, w, sigma, stop):
    """Yields the spectral witness of op's linear part as a one-row block,
    from _lanczos with Ritz-residual stop `stop` (_CERTIFIED_RESID gives
    norm_p2's witness at its default tol), unless there is no linear part
    or its spectral solve does not converge."""
    linear = op if isinstance(op, LinearOperator) else op.linear_part
    if linear is not None:
        (est,) = _lanczos(linear, [(w, sigma)], [stop])
        if not isinstance(est, NonConvergenceError):
            yield est.witness.values[None]


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
    w and sigma are StepFunctions or _Rows, one weight per row.  Every
    iterate, the start included, is scored by _ratios with out_norms; a row
    stops when its score gains less than _BOYD_RTOL relative (so on y = 0 or
    z = 0) or at its _BOYD_STEPS-th score.  Returns each row's best score,
    the iterates attaining them and each row's applications of T and L^t."""
    pprime = p / (p - 1.0)
    w, sigma = (_Rows(x.grid, np.broadcast_to(x.values, block.shape)) for x in (w, sigma))
    best, best_f = np.zeros(len(block)), block.copy()
    rows = np.arange(len(block))  # the rows still iterating
    f, apps = block, np.zeros(len(block), dtype=int)
    for step in range(_BOYD_STEPS):
        y, adjoint = linearise(sigma.values * f)
        apps[rows] += 1
        vals = np.array(_ratios(y, f, w, sigma, p, out_norms))
        go = vals > best[rows] * (1.0 + _BOYD_RTOL)
        up = vals > best[rows]
        best[rows[up]], best_f[rows[up]] = vals[up], f[up]
        if step + 1 == _BOYD_STEPS or not go.any():
            break
        y, rows = y[go], rows[go]
        w, sigma = (_Rows(x.grid, x.values[go]) for x in (w, sigma))
        ymax = np.max(np.abs(y), axis=1, keepdims=True)
        z = adjoint(w.values * np.sign(y) * (np.abs(y) / ymax) ** (p - 1.0), go)
        apps[rows] += 1
        zmax = np.max(np.abs(z), axis=1, keepdims=True)
        f = np.sign(z) * (np.abs(z) / np.where(zmax == 0.0, 1.0, zmax)) ** (pprime - 1.0)
    return best.tolist(), best_f, apps


def _scan(out_norms, op, w, sigma, p, keep, starts):
    """The `keep` best rows of `starts` by _ratios with out_norms, as
    (value, stream index, float vector), best score first and stream order
    breaking ties, and the number of rows scanned.  A start is a (K, cells)
    block, or a pair (values, row) of K rows' scores and a function giving
    row i; only the rows kept at the end become float vectors."""
    top: list[tuple[float, int, Callable, int]] = []  # (value, index, row, i)
    scanned = 0
    for start in starts:
        if isinstance(start, tuple):
            values, row = start
        else:
            values = _ratios(op.apply(sigma.values * start), start, w, sigma, p, out_norms)
            row = start.__getitem__
        # the chunk's own `keep` best, ties in stream order, then the merge
        best = np.argsort(-np.array(values), kind="stable")[:keep].tolist()
        ranked = top + [(values[i], scanned + i, row, i) for i in best]
        ranked.sort(key=lambda rec: (-rec[0], rec[1]))
        top = ranked[:keep]
        scanned += len(values)
    if not top:
        raise ValueError("the search has no start: give random_starts >= 1")
    return [(val, idx, row(i).astype(float)) for val, idx, row, i in top], scanned


def _searches(out_norms, op, problems, p, budget, streams):
    """For each (w, sigma) of `problems`, maximise _ratios with output norms
    `out_norms` over the (K, cells) blocks of its start stream in `streams`,
    then, if op has a linearisation, by _boyd from its `budget` best starts:
    one Boyd block holds every problem's starts, with per-row weights.
    Returns per problem the best value, the input attaining it and the row
    applications of the operator and its adjoint."""
    scans = [
        _scan(out_norms, op, w, sigma, p, max(budget, 1), starts)
        for (w, sigma), starts in zip(problems, streams)
    ]
    linearise = _linearisation(op)
    if linearise is None or budget < 1:
        return [(top[0][0], top[0][2], scanned) for top, scanned in scans]
    counts = [len(top) for top, _ in scans]
    block = np.array([fv for top, _ in scans for _, _, fv in top])
    grid = problems[0][0].grid
    w, sigma = (
        _Rows(grid, np.repeat([pr[k].values for pr in problems], counts, axis=0)) for k in (0, 1)
    )
    vals, fs, apps = _boyd(out_norms, linearise, w, sigma, p, block)
    out, start = [], 0
    for (_, scanned), n in zip(scans, counts):
        # each row ends at or above its start, so the problem's first best row wins
        best = start + int(np.argmax(vals[start : start + n]))
        out.append((vals[best], fs[best], scanned + int(apps[start : start + n].sum())))
        start += n
    return out


def _lp_searches(op, problems, p, budget, seed, random_starts, spectral) -> list[NormEstimate]:
    """norm_lp_lower's search for each (w, sigma) of `problems`, whose
    start streams are its spectral starts (in `spectral`) and the random
    starts."""
    streams = [
        itertools.chain(starts, _random_blocks(w.grid, seed, random_starts))
        for (w, _), starts in zip(problems, spectral)
    ]
    estimates = []
    for (w, sigma), (val, f, apps) in zip(
        problems, _searches(_lp_norms, op, problems, p, budget, streams)
    ):
        fnorm = _lp_norms(f[None], sigma, p)[0]
        witness = StepFunction(w.grid, f / fnorm if fnorm > 0 else f)
        estimates.append(NormEstimate(val, "search", witness, p, apps))
    return estimates


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

    Scores the p = 2 spectral witness of the linear part and seeded random
    starts g and |g| on the operator itself, then runs Boyd's
    iteration (_boyd) from the `budget` best, linearised at each iterate: a
    shift truncation by the cutoff each cell selects (other sublinear
    operators are not refined).  A refined row never falls below its start
    and larger budgets refine supersets, so the estimate is monotone in the
    budget.  At p = 2 the witness is norm_p2's, certified, so the estimate
    is never below norm_p2's value; at p != 2 it only seeds the search and
    its solve takes the seed stop (_SEED_RESID).  `iterations` counts
    scored starts and Boyd's row applications, not Lanczos steps.
    Raises ValueError for weights off the operator's grid, a budget or
    random_starts that is not a non-negative integer, and when there is no
    start: no spectral witness and random_starts = 0.
    """
    _require_problem(op.grid, w, sigma)
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, infinity)")
    budget = _require_count("budget", budget)
    random_starts = _require_count("random_starts", random_starts)
    spectral = [_spectral_start(op, w, sigma, _spectral_stop(p))]
    return _lp_searches(op, [(w, sigma)], p, budget, seed, random_starts, spectral)[0]


def _mass_roots(wvals, grid, p):
    """(cumsum of wvals along the last axis times the cell volume)^(1/p):
    the weak functional's root of the weight mass above each threshold."""
    return (np.cumsum(wvals, axis=-1) * grid.cell_volume) ** (1.0 / p)


def _weak_functionals(block: np.ndarray, w, p: float) -> list[float]:
    """Per row of a (K, cells) block: max over thresholds of
    lam * w{|out| > lam}^(1/p), lam at output values.  Under one constant
    weight the magnitudes are sorted without their order: every permutation
    of a constant array is that array, so the masses are one cumsum."""
    mags = np.abs(block)
    wv = w.values  # one weight, or one per row
    if wv.ndim == 1 and (wv == wv[0]).all():
        # one 1-D mass row, its cumsum and root taken once for every row
        sorted_mags, wvals = np.sort(mags, axis=-1)[:, ::-1], wv
    else:
        order = np.argsort(mags, axis=-1)[:, ::-1]
        sorted_mags = np.take_along_axis(mags, order, axis=-1)
        wvals = wv[order] if wv.ndim == 1 else np.take_along_axis(wv, order, axis=-1)
    vals = sorted_mags * _mass_roots(wvals, w.grid, p)
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
    part, seed-stopped (_SEED_RESID: no weak value reads its spectral
    value), and the seeded random starts g and |g|; at p = 1, where Boyd's
    duality map is undefined, the starts are not refined.  A shift
    truncation whose input Haar functions cancel exactly, at sigma = 1 and
    a constant w, scores its indicators without imaging them on the cells
    (_cube_scores): the kernel's sparse scorer reads, per indicator, only
    its ancestors' coefficient pairs and the regions of cells where its
    truncated image is constant, so the cost is about its pairs' children
    times its ancestors' count, plus a sort of those regions, in place of
    the cells; only the indicators kept for Boyd become float rows.  Any
    other operator or weights, including sigma = 1 with a non-constant w,
    take op.apply on boolean blocks.  Both give the same bits.  The weak
    value never exceeds the strong one on shared witnesses.  Raises ValueError
    for weights off the operator's grid and for a budget or random_starts
    that is not a non-negative integer.
    """
    _require_problem(op.grid, w, sigma)
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, infinity)")
    budget = _require_count("budget", budget)
    random_starts = _require_count("random_starts", random_starts)
    starts = itertools.chain(
        _indicator_blocks(w.grid, _cube_scores(op, w, sigma, p)),
        _spectral_start(op, w, sigma, _SEED_RESID),
        _random_blocks(w.grid, seed, random_starts),
    )
    budget = budget if p > 1.0 else 0
    return _searches(_weak_functionals, op, [(w, sigma)], p, budget, [starts])[0][0]


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


# The sweep's operator kinds, in the order their rows appear.
OPERATOR_KINDS = ("petermichl", "random2a", "random2b")


def default_operators(grid: GridSpec, seed: int, kinds=OPERATOR_KINDS):
    """Petermichl plus two random complexity-2 shifts, built on demand."""
    builders = {
        "petermichl": lambda: build_petermichl(grid),
        "random2a": lambda: build_random_shift(2, 2, seed + 1, grid),
        "random2b": lambda: build_random_shift(2, 2, seed + 2, grid),
    }
    unknown = [k for k in kinds if k not in builders]
    if unknown:
        raise ValueError(f"unknown operator kinds: {unknown}")
    return [(k, builders[k]()) for k in builders if k in kinds]


def min_sweep_level(kinds=OPERATOR_KINDS) -> int:
    """The least level N the sweep runs at: the default weights jump at
    level 3, and a random complexity (2, 2) shift needs 2 + 2 levels."""
    return 4 if {"random2a", "random2b"} & set(kinds) else 3


def _sweep_norms(trunc, problems, p_list, seed, budget, random_starts) -> list[float]:
    """norm_lp_lower of one truncation for each (w, sigma) of `problems`,
    listed weight by weight with sigma the dual weight of each p of p_list
    in turn.  The spectral starts come from one lockstep Lanczos run over
    all problems, each with norm_lp_lower's stop for its p (certified at
    p = 2, the seed stop elsewhere), and each p's searches share one Boyd
    block."""
    stops = [_spectral_stop(p) for p in p_list] * (len(problems) // len(p_list))
    spectral = [
        [] if isinstance(est, NonConvergenceError) else [est.witness.values[None]]
        for est in _lanczos(trunc.linear_part, problems, stops)
    ]
    norms = [0.0] * len(problems)
    for j, p in enumerate(p_list):
        group = slice(j, None, len(p_list))
        estimates = _lp_searches(
            trunc, problems[group], p, budget, seed, random_starts, spectral[group]
        )
        norms[group] = [est.lower_bound for est in estimates]
    return norms


def _usable_cpus() -> int:
    """The CPUs this process may run on (1 where the platform cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# The units of a forked sweep worker, set by its pool initializer.
_WORKER_UNITS: list = []


def _set_worker_units(units):
    global _WORKER_UNITS
    _WORKER_UNITS = units


def _run_worker_unit(i):
    return _sweep_norms(*_WORKER_UNITS[i])


def _sweep_units(units) -> list[list[float]]:
    """_sweep_norms(*unit) for every unit, in order.

    With two or more usable CPUs and units, the units run in a pool of
    forked worker processes, one per usable CPU, costliest (most cells)
    first.  Fork hands each worker the units as built (their operators hold
    closures, which do not pickle), so only unit indices and norm lists
    cross processes.  Without fork, or with other threads alive, which fork
    does not copy safely, the units run inline.  Each unit is the same
    single-threaded computation either way, so the norms do not depend on
    the worker count.  An exception raised in a unit is raised here.
    """
    workers = min(len(units), _usable_cpus())
    if workers > 1 and threading.active_count() == 1:
        # imported here: only this path needs them, and they slow `import czlab`
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            order = sorted(range(len(units)), key=lambda i: -units[i][0].grid.cells)
            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_set_worker_units,
                initargs=(units,),
            )
            try:
                futures = {i: pool.submit(_run_worker_unit, i) for i in order}
                return [futures[i].result() for i in range(len(units))]
            finally:
                pool.shutdown(cancel_futures=True)
    return [_sweep_norms(*unit) for unit in units]


def _sweep_block(grid, fam, param, w, sigmas, p_list, norms):
    """Rows for one (grid, weight) combination, in deterministic order;
    sigmas holds the dual weight of each p, and norms the grid's (operator
    name, norm per p) pairs."""
    ainf_w = ainfty_characteristic(w).value
    rows = []
    for j, (p, sigma) in enumerate(zip(p_list, sigmas)):
        pprime = p / (p - 1.0)
        bracket = joint_ap(w, sigma, p).value
        ainf_sigma = ainfty_characteristic(sigma).value
        ap_val = ap_characteristic(w, p).value
        rhs = bracket * (ainf_w ** (1.0 / pprime) + ainf_sigma ** (1.0 / p))
        buckley = ap_val ** max(1.0, 1.0 / (p - 1.0))
        for op_name, op_norms in norms:
            norm_val = op_norms[j]
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
    operator_kinds=OPERATOR_KINDS,
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
    ap^max(1, 1/(p-1)).  All A_infty values are dyadic-mode.  The norms are
    norm_lp_lower's, searched for all weights of an (operator, p) at once
    (_sweep_norms).

    Each (operator, N) search is one unit.  The units run in forked worker
    processes, one per usable CPU (os.sched_getaffinity), and inline
    otherwise: with one usable CPU or one unit, without the fork start
    method, or while other threads run.  So `taskset -c 0 czlab
    sharpness-sweep ...` gives a serial run.  The rows do not depend on the
    worker count.  Peak memory is this process's plus one unit's working
    set per worker.  Every grid, weight and operator is built here before
    any unit starts.  Raises ValueError for a budget, random_starts or
    N_list level that is not a non-negative integer, and for N_list levels
    below min_sweep_level(operator_kinds).
    """
    budget = _require_count("budget", budget)
    random_starts = _require_count("random_starts", random_starts)
    N_list = [_require_count("N_list entry", N) for N in N_list]
    least = min_sweep_level(operator_kinds)
    low = [N for N in N_list if N < least]
    if low:
        raise ValueError(
            f"N_list holds {low}, below {least}, the least level the sweep runs at "
            f"with operators {list(operator_kinds)}"
        )
    levels = []
    for N in N_list:
        grid = GridSpec(1, N)
        weights = default_weight_family(grid)
        problems = [(w, dual_weight(w, p)) for _, _, w in weights for p in p_list]
        levels.append((grid, weights, problems, default_operators(grid, seed, operator_kinds)))
    # at p = 2 the stream carries the spectral witness, and the truncation
    # dominates |S f|, so the search already covers norm_p2
    units = [
        (truncation_operator(S), problems, p_list, seed, budget, random_starts)
        for _, _, problems, ops in levels
        for _, S in ops
    ]
    unit_norms = iter(_sweep_units(units))
    rows = []
    for grid, weights, problems, ops in levels:
        norms = [(name, next(unit_norms)) for name, _ in ops]
        for i, (fam, param, w) in enumerate(weights):
            per_w = slice(i * len(p_list), (i + 1) * len(p_list))
            sigmas = [sigma for _, sigma in problems[per_w]]
            per_op = [(name, op_norms[per_w]) for name, op_norms in norms]
            rows.extend(_sweep_block(grid, fam, param, w, sigmas, p_list, per_op))
    return rows
