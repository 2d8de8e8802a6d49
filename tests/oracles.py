"""Independent brute-force oracles used to pin expected values in the tests.

Everything here recomputes quantities from definitions by direct enumeration
(dense kernels, exhaustive candidate scans, dense decompositions), staying
away from the fast code paths it is used to check.
"""

from __future__ import annotations

import functools

import numpy as np

from czlab.dyadics import (
    GridSpec,
    StepFunction,
    _child_sum,
    ancestor,
    level_averages,
    level_integrals,
    repeat_to_cells,
)
from czlab.lerner import median, oscillation
from czlab.normlab import LinearOperator, NonConvergenceError, norm_p2
from czlab.shifts import HaarShift, ShiftLevel, _exact_zero_sum, build_petermichl


def cell_cube(grid: GridSpec, z: int):
    return grid.cube_from_zindex(grid.N, z)


def _pack_records(grid: GridSpec, m: int, n: int, records, cancellative: bool) -> HaarShift:
    """The shift of (level, R' Z-index, Q' Z-index, input values, output
    values) records, each level's listed in Z-order of Q, packed into
    arrays one record at a time."""
    fold = 1 << grid.d
    rows = {}
    for level, rz, qz, vin, vout in records:
        in_idx, out_idx, h_in, h_out = rows.setdefault(level, ([], [], [], []))
        in_idx.append([(rz << grid.d) + i for i in range(fold)])
        out_idx.append([(qz << grid.d) + i for i in range(fold)])
        h_in.append([float(v) for v in vin])
        h_out.append([float(v) for v in vout])
    levels = {level: ShiftLevel(*(np.array(a) for a in arrays)) for level, arrays in rows.items()}
    return HaarShift(grid, m, n, levels, cancellative)


def loop_petermichl(grid: GridSpec) -> HaarShift:
    """Petermichl shift assembled pair by pair: per interval Q, the pairs
    (h_Q, h_Q0) and (h_Q, -h_Q1) on its children Q0 and Q1."""
    records = []
    for level in range(0, grid.N - 1):
        for Q in grid.cubes(level):
            records.append((level, Q.zindex, Q.child(0).zindex, (1.0, -1.0), (1.0, -1.0)))
            records.append((level, Q.zindex, Q.child(1).zindex, (1.0, -1.0), (-1.0, 1.0)))
    return _pack_records(grid, 1, 0, records, True)


def axis_reduced_cascade_weight(grid: GridSpec, seed: int, volatility: float = 0.5) -> np.ndarray:
    """cascade_weight's cell values, each refinement recentred and rescaled
    with numpy's reductions over the short last axis."""
    rng = np.random.default_rng(seed)
    fold = 1 << grid.d
    vals = np.ones(1)
    for _ in range(grid.N):
        u = rng.standard_normal((vals.size, fold))
        u -= u.mean(axis=1, keepdims=True)
        scale = np.abs(u).max(axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0
        factors = 1.0 + volatility * u / scale
        np.clip(factors, 0.05, None, out=factors)
        vals = (np.repeat(vals, fold).reshape(-1, fold) * factors).ravel()
    return vals


def level_loop_cascade_weight(grid: GridSpec, seed: int, volatility: float = 0.5) -> np.ndarray:
    """cascade_weight's cell values as drawn and refined one level at a
    time: each refinement draws its own normals and recentres, scales and
    clips them before the next."""
    rng = np.random.default_rng(seed)
    fold = 1 << grid.d
    vals = np.ones(1)
    for _ in range(grid.N):
        u = rng.standard_normal((vals.size, fold))
        u -= (_child_sum([u[:, i] for i in range(fold)]) / fold)[:, None]
        scale = functools.reduce(np.maximum, [np.abs(u[:, i]) for i in range(fold)])
        scale[scale == 0.0] = 1.0
        factors = 1.0 + volatility * u / scale[:, None]
        np.clip(factors, 0.05, None, out=factors)
        vals = (np.repeat(vals, fold).reshape(-1, fold) * factors).ravel()
    return vals


def axis_reduced_random_shift_values(m: int, n: int, seed: int, grid: GridSpec, cancellative: bool) -> dict:
    """build_random_shift's child values per level, {level: (input rows,
    output rows)}, rescaled with numpy's reductions over the short last axis."""
    d = grid.d
    rng = np.random.default_rng(seed)
    out = {}
    for level in range(grid.N - max(m, n)):
        vals = rng.standard_normal((1 << (d * (level + m + n)), 2, 1 << d))
        if cancellative:
            vals = _exact_zero_sum(vals)
        scale = np.abs(vals).max(axis=2)
        keep = (scale != 0.0).all(axis=1)
        vals = vals[keep] / scale[keep][:, :, None]
        out[level] = (vals[:, 0], vals[:, 1])
    return out


def _zero_sum(vals: np.ndarray) -> np.ndarray:
    vals = vals - vals.mean()
    vals[-1] -= vals.sum()
    return vals


def loop_random_shift(m: int, n: int, seed: int, grid: GridSpec, cancellative: bool = True) -> HaarShift:
    """Random shift drawn one coefficient pair at a time: per Q in Z-order, per
    Q' then R', input values then output values, each rescaled to sup norm 1."""
    top = grid.N - 1 - max(m, n)
    rng = np.random.default_rng(seed)
    fold = 1 << grid.d
    records = []
    for level in range(0, top + 1):
        for Q in grid.cubes(level):
            for qz in range(Q.zindex << (grid.d * m), (Q.zindex + 1) << (grid.d * m)):
                for rz in range(Q.zindex << (grid.d * n), (Q.zindex + 1) << (grid.d * n)):
                    vin = rng.standard_normal(fold)
                    vout = rng.standard_normal(fold)
                    if cancellative:
                        vin = _zero_sum(vin)
                        vout = _zero_sum(vout)
                    a = np.max(np.abs(vin))
                    b = np.max(np.abs(vout))
                    if a == 0.0 or b == 0.0:
                        continue
                    records.append((level, rz, qz, vin / a, vout / b))
    return _pack_records(grid, m, n, records, cancellative)


def _child_value(cube, child_values, cell_z: int) -> float:
    """Value at the finest cell `cell_z` of the function equal to
    child_values[i] on child i of `cube` and 0 outside it."""
    sl = cube.cell_slice
    if not (sl.start <= cell_z < sl.stop):
        return 0.0
    return child_values[(cell_z - sl.start) // (cube.cell_count >> cube.grid.d)]


def dense_shift_matrix(S) -> np.ndarray:
    """Kernel-form matrix: K[i, j] = sum_Q |Q|^-1 s_Q(x_i, y_j) * cell volume.

    s_Q is evaluated pointwise: at (x, y) only the pairs with Q' containing x
    and R' containing y are active (a pair listed twice counts twice).
    """
    grid = S.grid
    cells = grid.cells
    vol = grid.cell_volume
    lookup = {}
    for Q, pairs in S.entries.items():
        for rprime, qprime, h_vals, g_vals in pairs:
            lookup.setdefault(Q, {}).setdefault((qprime, rprime), []).append((h_vals, g_vals))
    K = np.zeros((cells, cells))
    for i in range(cells):
        xi = cell_cube(grid, i)
        for j in range(cells):
            yj = cell_cube(grid, j)
            for level in range(grid.N + 1):
                Q = ancestor(xi, grid.N - level)
                if not Q.contains(yj):
                    continue
                pairs = lookup.get(Q)
                if pairs is None:
                    continue
                if level + S.m > grid.N or level + S.n > grid.N:
                    continue
                qprime = ancestor(xi, grid.N - level - S.m)
                rprime = ancestor(yj, grid.N - level - S.n)
                for h_vals, g_vals in pairs.get((qprime, rprime), ()):
                    K[i, j] += (
                        _child_value(rprime, h_vals, j) * _child_value(qprime, g_vals, i) * vol / Q.volume
                    )
    return K


def dense_shift_matrix_by_level(S) -> dict[int, np.ndarray]:
    """Per-Q-level dense matrices; their sum is dense_shift_matrix(S)."""
    return {
        level: dense_shift_matrix(type(S)(S.grid, S.m, S.n, {level: lv}, S.cancellative))
        for level, lv in S.levels.items()
    }


def brute_truncation(S, f: StepFunction) -> np.ndarray:
    """Max over every dyadic cutoff of |partial kernel sums|, via dense matrices."""
    grid = f.grid
    levels = dense_shift_matrix_by_level(S)
    best = np.zeros(grid.cells)
    acc = np.zeros(grid.cells)
    for level in range(grid.N + 1):
        if level in levels:
            acc = acc + levels[level] @ f.values
        best = np.maximum(best, np.abs(acc))
    return best


def tau_items(tau) -> list:
    """(cube, tau_Q) for every cube with a nonzero coefficient, read off the
    per-level arrays."""
    return [
        (tau.grid.cube_from_zindex(k, z), float(arr[z]))
        for k, arr in enumerate(tau.levels)
        for z in np.flatnonzero(arr).tolist()
    ]


def decomposition_cubes(dec) -> list:
    """The cubes of a median decomposition's generations, generation by generation."""
    return [Q for gen in dec.generations for Q, _ in gen]


def dense_positive_matrix(tau, mu: StepFunction) -> np.ndarray:
    """K[i, j] = sum over cubes containing both cells of tau_Q mu_j vol / |Q|."""
    grid = tau.grid
    cells = grid.cells
    vol = grid.cell_volume
    K = np.zeros((cells, cells))
    for Q, t in tau_items(tau):
        sl = Q.cell_slice
        idx = np.arange(sl.start, sl.stop)
        K[np.ix_(idx, idx)] += t * mu.values[idx][None, :] * vol / Q.volume
    return K


def brute_oscillation(phi: StepFunction, Q, lam: float) -> float:
    """Exhaustive candidate scan: all cell values and all pairwise midpoints."""
    vals = phi.values[Q.cell_slice]
    M = vals.size
    allowed = int(np.floor(lam * M + 1e-12))
    cands = set(vals.tolist())
    for i in range(M):
        for j in range(M):
            cands.add((vals[i] + vals[j]) / 2.0)
    best = np.inf
    for c in cands:
        devs = np.sort(np.abs(vals - c))[::-1]
        level = devs[allowed] if allowed < M else 0.0
        best = min(best, float(level))
    return best


def unique_lower_median(vals: np.ndarray) -> float:
    """Lower median of sorted cell values through np.unique: the first
    distinct value with at most half the cells below and half above."""
    M = vals.size
    distinct, first = np.unique(vals, return_index=True)
    counts = np.diff(np.append(first, M))
    ok = (first <= M / 2.0) & (M - first - counts <= M / 2.0)
    return float(distinct[np.argmax(ok)])


def brute_local_sharp(phi: StepFunction, Q, lam: float) -> np.ndarray:
    """Loop over every (cell, subcube) pair with the brute oscillation."""
    grid = phi.grid
    out = np.zeros(grid.cells)
    subcubes = [
        R
        for level in range(Q.level, grid.N + 1)
        for R in grid.cubes(level)
        if Q.contains(R)
    ]
    for R in subcubes:
        om = brute_oscillation(phi, R, lam)
        sl = R.cell_slice
        out[sl] = np.maximum(out[sl], om)
    return out


def _loop_maximal(Q, heavy) -> list:
    """Depth-first walk of Q's proper subcubes in Z-order that keeps each
    `heavy` cube and does not descend below it."""
    selected = []

    def descend(R):
        for idx in range(1 << Q.grid.d):
            child = R.child(idx)
            if heavy(child):
                selected.append(child)
            elif child.level < Q.grid.N:
                descend(child)

    if Q.level < Q.grid.N:
        descend(Q)
    return selected


def loop_stopping_children(w: StepFunction, Q) -> list:
    """Maximal subcubes of Q whose full-grid w-average exceeds four times Q's."""
    avgs = level_averages(w)
    threshold = 4.0 * avgs[Q.level][Q.zindex]
    return _loop_maximal(Q, lambda R: avgs[R.level][R.zindex] > threshold)


def loop_stopping_family(w: StepFunction, Q0) -> dict:
    """The stopping parents {member: parent} of Q0's family, built generation
    by generation from loop_stopping_children."""
    parents = {}
    generation = [Q0]
    while generation:
        nxt = []
        for S in generation:
            for child in loop_stopping_children(w, S):
                parents[child] = S
                nxt.append(child)
        generation = nxt
    return parents


def member_loop_stopping_family(w: StepFunction, Q0):
    """(members, parents, margins) of Q0's stopping family from one pass
    down Q0's subtree that makes a cube, and adds its volume to its
    parent's, one member at a time."""
    grid, fold, avgs = w.grid, 1 << w.grid.d, level_averages(w)
    members, parents, covered = [Q0], {}, [0.0]
    threshold = np.full(1, 4.0 * avgs[Q0.level][Q0.zindex])
    owner = np.zeros(1, dtype=np.intp)
    for level in range(Q0.level + 1, grid.N + 1):
        first = Q0.zindex * fold ** (level - Q0.level)
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
        threshold[hit] = 4.0 * avg[hit]
        owner[hit] = np.arange(len(members) - hit.size, len(members))
    return members, parents, [c / S.volume for c, S in zip(covered, members)]


def loop_heavy_subcubes(Q, exceptional: np.ndarray, threshold_fraction: float) -> list:
    """Maximal proper subcubes of Q where the full-grid boolean mask
    `exceptional` fills more than the given fraction."""
    return _loop_maximal(
        Q, lambda R: float(exceptional[R.cell_slice].mean()) > threshold_fraction
    )


def loop_lerner_generations(phi: StepFunction, Q0) -> tuple:
    """The median decomposition's generations, each cube's heavy subcubes
    selected by `loop_heavy_subcubes` on a full-grid exceptional mask."""
    grid = phi.grid
    lam = 2.0 ** (-grid.d - 2)
    generations = []
    active = [Q0]
    while active:
        nxt = []
        for Q in active:
            mQ = median(phi, Q)
            om = oscillation(phi, Q, lam)
            exceptional = np.zeros(grid.cells, dtype=bool)
            sl = Q.cell_slice
            exceptional[sl] = np.abs(phi.values[sl] - mQ) > 2.0 * om
            for picked in loop_heavy_subcubes(Q, exceptional, 2.0 ** (-grid.d - 1)):
                nxt.append((picked, oscillation(phi, picked.parent(), lam)))
        if not nxt:
            break
        nxt.sort(key=lambda item: (item[0].level, item[0].zindex))
        generations.append(tuple(nxt))
        active = [Q for Q, _ in nxt]
    return tuple(generations)


def stacked_running_max_ainfty(w: StepFunction) -> tuple[float, int, int]:
    """Dyadic A_infty with every level's running maximum kept as its own
    cell array, each level's ratio read from its array after all are built,
    and the supremum taken level by level, coarsest first: (value, witness
    level, witness Z-index)."""
    grid = w.grid
    avgs = level_averages(abs(w))
    running = [None] * (grid.N + 1)
    run = avgs[grid.N].copy()
    running[grid.N] = run.copy()
    for k in range(grid.N - 1, -1, -1):
        np.maximum(run, repeat_to_cells(grid, avgs[k], k), out=run)
        running[k] = run.copy()
    wsums = level_integrals(w)
    best, witness = -np.inf, None
    for k in range(grid.N + 1):
        numer = (running[k] * grid.cell_volume).reshape(1 << (grid.d * k), -1).sum(axis=1)
        ratio = numer / wsums[k]
        z = int(np.argmax(ratio))
        if float(ratio[z]) > best:
            best, witness = float(ratio[z]), (k, z)
    return (best, *witness)


def brute_ap(w: StepFunction, p: float) -> float:
    """A_p supremum recomputed cube by cube from raw sums."""
    grid = w.grid
    sigma_vals = w.values ** (1.0 - p / (p - 1.0))
    best = -np.inf
    for Q in grid.all_cubes():
        sl = Q.cell_slice
        aw = float(w.values[sl].mean())
        asig = float(sigma_vals[sl].mean())
        best = max(best, aw * asig ** (p - 1.0))
    return best


def matrix_of(apply_fn, cells: int) -> np.ndarray:
    """Dense matrix of a linear map on value vectors, by basis application."""
    cols = []
    for j in range(cells):
        e = np.zeros(cells)
        e[j] = 1.0
        cols.append(apply_fn(e))
    return np.stack(cols, axis=1)


def weighted_svd_norm(T: np.ndarray, w: StepFunction, sigma: StepFunction) -> float:
    """Exact L^2(sigma) -> L^2(w) norm of f -> T(sigma f) by dense SVD."""
    A = np.sqrt(w.values)[:, None] * T * np.sqrt(sigma.values)[None, :]
    return float(np.linalg.svd(A, compute_uv=False)[0])


def bruteforce_lp_norm(T: np.ndarray, w, sigma, p: float, seed: int = 0, maxiter: int = 400) -> float:
    """Best ratio ||T(sigma f)||_{L^p(w)} / ||f||_{L^p(sigma)} by direct search.

    Multi-start Nelder-Mead over signed inputs plus their absolute values;
    intended for very small grids where it is effectively exact.
    """
    from scipy.optimize import minimize

    vol = w.grid.cell_volume
    cells = w.grid.cells

    def ratio(f):
        fn = float((np.abs(f) ** p * sigma.values).sum() * vol) ** (1.0 / p)
        if fn == 0.0:
            return 0.0
        out = T @ (sigma.values * f)
        return float((np.abs(out) ** p * w.values).sum() * vol) ** (1.0 / p) / fn

    rng = np.random.default_rng(seed)
    starts = [np.ones(cells)]
    starts.extend(np.eye(cells))
    starts.extend(rng.standard_normal((6, cells)))
    best = 0.0
    for s in starts:
        for f0 in (s, np.abs(s) + 1e-9):
            res = minimize(
                lambda f: -ratio(f),
                f0,
                method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12},
            )
            best = max(best, -float(res.fun))
    return best


# -- per-vector kernel and search loops -------------------------------------
#
# The one-vector-at-a-time forms of the shift kernel and the restart search.
# The block-evaluated library code must reproduce them bit for bit.


def loop_level_integrals(values: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Integrals over every cube, one Z-ordered array per level."""
    fold = 1 << grid.d
    sums = [None] * (grid.N + 1)
    sums[grid.N] = values * grid.cell_volume
    for k in range(grid.N - 1, -1, -1):
        sums[k] = sums[k + 1].reshape(-1, fold).sum(axis=1)
    return sums


def _loop_level_outputs(S, ints):
    """Per-Q-level (Q level, output level, per-output-cube constants), from
    the integrals `ints` of the input over the cubes of each level."""
    d = S.grid.d
    out = []
    for level, lv in S.levels.items():
        coef = (lv.h_in * ints[level + S.n + 1][lv.in_idx]).sum(axis=1)
        coef *= float(1 << (d * level))  # the 1/|Q| factor
        out_level = level + S.m + 1
        contrib = np.bincount(
            lv.out_idx.ravel(),
            weights=(coef[:, None] * lv.h_out).ravel(),
            minlength=1 << (d * out_level),
        )
        out.append((level, out_level, contrib))
    return out


def _to_cells(grid: GridSpec, arr: np.ndarray, level: int) -> np.ndarray:
    return np.repeat(arr, 1 << (grid.d * (grid.N - level)))


def loop_apply(S, values: np.ndarray) -> np.ndarray:
    """S applied to one vector of cell values, level by level."""
    acc = np.zeros(S.grid.cells)
    for _, out_level, contrib in _loop_level_outputs(S, loop_level_integrals(values, S.grid)):
        acc += _to_cells(S.grid, contrib, out_level)
    return acc


def loop_truncation(S, values: np.ndarray) -> np.ndarray:
    """Maximal truncation of one vector: running max over every cutoff level."""
    outputs = {
        level: (out_level, c)
        for level, out_level, c in _loop_level_outputs(S, loop_level_integrals(values, S.grid))
    }
    acc = np.zeros(S.grid.cells)
    best = np.zeros(S.grid.cells)
    for level in range(S.grid.N + 1):
        if level in outputs:
            out_level, contrib = outputs[level]
            acc = acc + _to_cells(S.grid, contrib, out_level)
        np.maximum(best, np.abs(acc), out=best)
    return best


def loop_selection(S, values: np.ndarray):
    """The maximal truncation of one vector with its selection per cell:
    the index (in S.levels order) of the first level whose partial sum
    attains the maximal modulus, and that sum's sign."""
    acc = best = level = sign = None
    outputs = _loop_level_outputs(S, loop_level_integrals(values, S.grid))
    for j, (_, out_level, contrib) in enumerate(outputs):
        here = _to_cells(S.grid, contrib, out_level)
        if j == 0:
            acc = here + 0.0
            best, level, sign = np.abs(acc), np.zeros(acc.size, dtype=int), np.sign(acc)
            continue
        acc = acc + here
        new = np.abs(acc) > best
        level = np.where(new, j, level)
        sign = np.where(new, np.sign(acc), sign)
        best = np.maximum(best, np.abs(acc))
    if acc is None:
        return np.zeros(S.grid.cells), None, None
    return best, level, sign


def bincount_bins(put: np.ndarray, h_put: np.ndarray, size: int, coef: np.ndarray) -> np.ndarray:
    """The kernel's sum of pair terms onto `size` bins by np.bincount: for
    each row of a (K, pairs) array of coefficients, term (i, r) = coef[r]
    h_put[i, r] added onto bin put[i, r], in (child, pair) order from +0."""
    K = len(coef)
    bins = (put + size * np.arange(K)[:, None, None]).ravel()
    weights = (coef[:, None, :] * h_put).ravel()
    return np.bincount(bins, weights, K * size).reshape(K, size)


def loop_selected_adjoint(S, level, sign, u: np.ndarray) -> np.ndarray:
    """Transpose of the map L g = sign * (partial sum of g through S.levels
    entry `level`) at one vector u, level by level: each output level's
    cubes take the sign-masked integrals of u over the cells that selected
    it or a finer level, then go through the adjoint's per-level terms."""
    grid, d = S.grid, S.grid.d
    if level is None:
        return np.zeros(grid.cells)
    out_levels = [lvl + S.m + 1 for lvl in S.levels]
    v = sign * u * grid.cell_volume
    ints = [None] * (grid.N + 1)
    finer = None
    for j in range(len(out_levels) - 1, -1, -1):
        L = out_levels[j]
        mine = level == j
        ints[L] = np.bincount(  # float, as the kernel's bins, even when no cell selected L
            np.arange(grid.cells)[mine] >> (d * (grid.N - L)), weights=v[mine], minlength=1 << (d * L)
        ).astype(float)
        if finer is not None:
            ints[L] += finer.reshape(1 << (d * L), -1).sum(axis=1)
        finer = ints[L]
    acc = np.zeros(grid.cells)
    for _, out_level, contrib in _loop_level_outputs(S.adjoint(), ints):
        acc += _to_cells(grid, contrib, out_level)
    return acc


def dense_selected_map(S, level, sign) -> np.ndarray:
    """Row x of the dense map L: sign[x] times row x of the partial-sum
    matrix through S.levels entry level[x], summed from the dense per-level
    kernel matrices."""
    per_level = dense_shift_matrix_by_level(S)
    partial = np.cumsum([per_level[k] for k in sorted(per_level)], axis=0)
    cells = np.arange(S.grid.cells)
    return sign[:, None] * partial[level, cells]


def loop_lp_norm(vals, weight: StepFunction, p: float) -> float:
    return float((np.abs(vals) ** p * weight.values).sum() * weight.grid.cell_volume) ** (1.0 / p)


def loop_weak_functional(out, w: StepFunction, p: float) -> float:
    mags = np.abs(out)
    order = np.argsort(mags)[::-1]
    wmass = np.cumsum(w.values[order]) * w.grid.cell_volume
    return float((mags[order] * wmass ** (1.0 / p)).max(initial=0.0))


def loop_ratio(apply1, w, sigma, p, fvals, out_norm=loop_lp_norm) -> float:
    fnorm = loop_lp_norm(fvals, sigma, p)
    if fnorm == 0.0:
        return 0.0
    return out_norm(apply1(sigma.values * fvals), w, p) / fnorm


def rowwise(apply1):
    """Lift a one-vector map to arrays of shape (..., cells), one row at a time."""

    def apply(v):
        return np.array([apply1(row) for row in v.reshape(-1, v.shape[-1])]).reshape(v.shape)

    return apply


def loop_boyd(out_norm, linearise1, w, sigma, p, f):
    """Boyd's p-norm power iteration one vector at a time.  linearise1(x)
    gives T x and the adjoint of T's linear map at x; the step is y =
    T(sigma f), z = L^t(w sign(y)|y|^(p-1)), f <- sign(z)|z|^(p'-1), with y
    and z scaled by their largest magnitude before the power.  Every
    iterate, f included, is scored by loop_ratio; stops when the score gains
    less than 1e-5 relative (z = 0 gives f = 0, scored 0) or at the 100th
    score.
    Returns (best score, iterate attaining it, applications of T and L^t)."""
    pprime = p / (p - 1.0)
    best, best_f, prev, apps = -np.inf, f, 0.0, 0
    for step in range(100):
        y, adjoint1 = linearise1(sigma.values * f)
        apps += 1
        val = loop_ratio(lambda x: y, w, sigma, p, f, out_norm)
        if val > best:
            best, best_f = val, f
        if step == 99 or not val > prev * (1.0 + 1e-5):
            break
        prev = val
        ymax = float(np.max(np.abs(y)))
        z = adjoint1(w.values * np.sign(y) * (np.abs(y) / ymax) ** (p - 1.0))
        apps += 1
        zmax = float(np.max(np.abs(z))) or 1.0
        f = np.sign(z) * (np.abs(z) / zmax) ** (pprime - 1.0)
    return best, best_f, apps


def loop_search(out_norm, apply1, linear, linearise1, w, sigma, p, seed, budget, random_starts,
                strong=False):
    """Scan every start, keep them all, sort, then Boyd-refine (loop_boyd)
    the `budget` best one after the other.  `linear` is (apply1, adjoint1)
    of the linear part or None, `linearise1` as in loop_boyd or None (no
    refinement); returns (value, input, scored starts plus Boyd's
    applications).  The strong stream (`strong`) is the spectral start and
    the random starts; the weak one puts every cube indicator first and is
    not refined at p = 1.  The spectral start is the library's norm_p2
    witness for the row-by-row linear part: this oracle checks the scan and
    the Boyd loop, not the spectral solve."""
    grid = w.grid
    spectral = None
    if linear is not None:
        lin = LinearOperator(grid, rowwise(linear[0]), rowwise(linear[1]))
        try:
            spectral = norm_p2(lin, w, sigma).witness.values
        except NonConvergenceError:
            pass
    starts = [] if strong else [StepFunction.indicator(Q).values for Q in grid.all_cubes()]
    if spectral is not None:
        starts.append(spectral)
    rng = np.random.default_rng([seed, 1])
    for _ in range(random_starts):
        g = rng.standard_normal(grid.cells)
        starts += [g, np.abs(g)]
    scanned = [(loop_ratio(apply1, w, sigma, p, fv, out_norm), idx, fv) for idx, fv in enumerate(starts)]
    scanned.sort(key=lambda rec: (-rec[0], rec[1]))
    best_val, _, best_f = scanned[0]
    apps = len(scanned)
    if linearise1 is None or not (strong or p > 1.0):
        return best_val, best_f, apps
    for _, _, fv in scanned[:budget]:
        val, f, used = loop_boyd(out_norm, linearise1, w, sigma, p, fv)
        apps += used
        if val > best_val:
            best_val, best_f = val, f
    return best_val, best_f, apps


def brute_toroidal_gap(fmask: np.ndarray, gmask: np.ndarray) -> int:
    """Smallest cyclic distance over every (f cell, g cell) pair."""
    fi = np.flatnonzero(fmask)
    gi = np.flatnonzero(gmask)
    diff = np.abs(fi[:, None] - gi[None, :])
    return int(np.minimum(diff, fmask.size - diff).min())


def loop_offset_pairing(S, f_values: np.ndarray, g_values: np.ndarray, offset: int) -> float:
    """<S f(. + offset), g(. + offset)>: both rolled into the translated frame,
    the shift applied to the rolled f, then the L^2 pairing."""
    sf = S.apply(np.roll(f_values, -offset))
    return float(np.dot(sf, np.roll(g_values, -offset)) * S.grid.cell_volume)


def loop_hilbert_average(pairs, f: StepFunction, g: StepFunction) -> float:
    """Weighted Petermichl pairing over (offset, coefficient) pairs, one
    translated grid at a time: coefficients summed per offset in the given
    order, offsets visited in increasing order."""
    S = build_petermichl(GridSpec(1, f.grid.N))
    weights: dict[int, float] = {}
    for off, coeff in pairs:
        weights[off] = weights.get(off, 0.0) + coeff
    total = 0.0
    for off in sorted(weights):
        total += weights[off] * loop_offset_pairing(S, f.values, g.values, off)
    return total


def loop_hilbert(values: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Midpoint-rule Hilbert sums sum_j f_j / (i - j) over |i - j| / M > eps
    (the self-cell always dropped), by direct convolution against 1/k."""
    M = values.size
    ks = np.arange(-(M - 1), M)
    keep = (ks != 0) & (np.abs(ks) / M > eps)
    taps = np.zeros(2 * M - 1)
    taps[keep] = 1.0 / ks[keep]
    # taps[m] holds 1/k at k = m - (M - 1), so cell i sits at index i + M - 1
    return np.convolve(values, taps)[M - 1 : 2 * M - 1]


def loop_centered_maximal(f: StepFunction) -> np.ndarray:
    """Centred maximal function in d = 1, one window radius at a time."""
    grid = f.grid
    M = grid.cells
    half = np.repeat(np.abs(f.values), 2) * (grid.cell_volume / 2.0)
    P = np.concatenate([[0.0], np.cumsum(half)])
    centers = 2 * np.arange(M) + 1
    best = np.abs(f.values).copy()
    nodes = 2 * M
    for j in range(2, nodes + 1, 2):
        lo = np.clip(centers - j, 0, nodes)
        hi = np.clip(centers + j, 0, nodes)
        best = np.maximum(best, (P[hi] - P[lo]) / (j * grid.cell_volume))
    return best


def loop_centered_maximal_2d(f: StepFunction) -> np.ndarray:
    """Centred maximal function in d = 2 over the whole raster, one window
    radius at a time; Z-order bit 2b is bit b of the row, bit 2b + 1 of the
    column."""
    grid = f.grid
    n = 1 << grid.N
    dx = 1.0 / n
    z = np.arange(grid.cells)
    c0 = sum((((z >> (2 * b)) & 1) << b for b in range(grid.N)), np.zeros_like(z))
    c1 = sum((((z >> (2 * b + 1)) & 1) << b for b in range(grid.N)), np.zeros_like(z))
    raster = np.zeros((n, n))
    raster[c0, c1] = np.abs(f.values)
    half = np.repeat(np.repeat(raster, 2, axis=0), 2, axis=1) * (dx / 2.0) ** 2
    P = np.zeros((2 * n + 1, 2 * n + 1))
    P[1:, 1:] = half.cumsum(axis=0).cumsum(axis=1)
    centers = 2 * np.arange(n) + 1
    best = raster.copy()
    for j in range(2, 2 * n + 1, 2):
        lo = np.clip(centers - j, 0, 2 * n)
        hi = np.clip(centers + j, 0, 2 * n)
        box = P[np.ix_(hi, hi)] - P[np.ix_(lo, hi)] - P[np.ix_(hi, lo)] + P[np.ix_(lo, lo)]
        best = np.maximum(best, box / (j * dx) ** 2)
    return best[c0, c1]


def loop_centered_ainfty(w: StepFunction) -> tuple[float, int, int]:
    """Centred A_infty of w as (value, witness level, witness Z-index): for
    every cube Q, the whole-grid centred maximal function of w 1_Q, read on
    Q's cells; the first cube (coarsest level, then Z-order) attaining the
    largest ratio wins."""
    grid = w.grid
    maximal = loop_centered_maximal if grid.d == 1 else loop_centered_maximal_2d
    wsums = loop_level_integrals(w.values, grid)
    best = (-np.inf, -1, -1)
    for Q in grid.all_cubes():
        sl = Q.cell_slice
        masked = np.zeros(grid.cells)
        masked[sl] = w.values[sl]
        M = maximal(w.with_values(masked))
        ratio = float(M[sl].sum() * grid.cell_volume / wsums[Q.level][Q.zindex])
        if ratio > best[0]:
            best = (ratio, Q.level, Q.zindex)
    return best
