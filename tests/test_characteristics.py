import json

import numpy as np
import pytest

from czlab.characteristics import (
    _ainfty_rows,
    _ap_rows,
    _maximal_rows,
    ainfty_characteristic,
    ap_characteristic,
    dual_weight,
    joint_ap,
    maximal_function,
)
from czlab.dyadics import GridSpec, StepFunction, _level_sums, average
from czlab.families import _cascade_rows, cascade_weight, power_weight, two_value_weight

from oracles import (
    brute_ap,
    cell_count,
    loop_centered_ainfty,
    loop_centered_maximal,
    loop_centered_maximal_2d,
    stacked_running_max_ainfty,
)


def weight(grid, vals):
    return StepFunction(grid, vals)


class TestDualWeight:
    def test_reciprocal_at_p2(self):
        g = GridSpec(1, 2)
        w = StepFunction.constant(g, 4.0)
        assert np.allclose(dual_weight(w, 2.0).values, 0.25)

    def test_identity_weight(self):
        g = GridSpec(1, 2)
        w = StepFunction.constant(g, 1.0)
        for p in (1.5, 2.0, 3.0):
            assert np.allclose(dual_weight(w, p).values, 1.0)

    def test_exponent_value(self):
        g = GridSpec(1, 0)
        w = StepFunction(g, [8.0])
        # p = 3: sigma = 8^(1 - 3/2) = 8^(-1/2)
        assert dual_weight(w, 3.0).values[0] == pytest.approx(8.0 ** -0.5, rel=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        g = GridSpec(1, 3)
        w = weight(g, np.exp(rng.standard_normal(g.cells)))
        for p in (1.5, 2.0, 3.0):
            pprime = p / (p - 1.0)
            back = dual_weight(dual_weight(w, p), pprime)
            assert np.allclose(back.values, w.values, rtol=1e-12)

    def test_requires_p_above_one(self):
        w = StepFunction.constant(GridSpec(1, 1), 1.0)
        with pytest.raises(ValueError):
            dual_weight(w, 1.0)


class TestApCharacteristic:
    def test_constant_weight(self):
        g = GridSpec(1, 3)
        rep = ap_characteristic(StepFunction.constant(g, 5.0), 2.0)
        assert rep.value == pytest.approx(1.0, abs=1e-14)
        assert rep.witness == g.root()

    def test_two_cell_example(self):
        g = GridSpec(1, 1)
        rep = ap_characteristic(weight(g, [4.0, 1.0]), 2.0)
        assert rep.value == pytest.approx(1.5625, abs=1e-14)
        assert rep.witness == g.root()

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for seed in range(12):
            g = GridSpec(1, 4) if seed % 2 else GridSpec(2, 2)
            w = weight(g, np.exp(rng.standard_normal(g.cells)))
            for p in (1.5, 2.0, 3.0):
                assert ap_characteristic(w, p).value == pytest.approx(
                    brute_ap(w, p), rel=1e-12
                )

    def test_spike_monotone_in_steepness(self):
        g = GridSpec(1, 6)
        vals = []
        for alpha in (0.2, 0.4, 0.6, 0.8):
            w = power_weight(g, alpha)
            vals.append(ap_characteristic(w, 2.0).value)
            assert vals[-1] == pytest.approx(brute_ap(w, 2.0), rel=1e-12)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(9)
        g = GridSpec(1, 5)
        w = weight(g, np.exp(rng.standard_normal(g.cells)))
        p = 2.5
        rep = ap_characteristic(w, p)
        sigma = dual_weight(w, p)
        direct = average(w, rep.witness) * average(sigma, rep.witness) ** (p - 1.0)
        assert direct == pytest.approx(rep.value, rel=1e-10)

    def test_at_least_one_many_samples(self):
        # Jensen: the A_p characteristic of (w, dual weight) is never below 1
        g = GridSpec(1, 5)
        for seed in range(500):
            w = cascade_weight(g, seed, 0.6)
            p = (1.5, 2.0, 3.0)[seed % 3]
            assert ap_characteristic(w, p).value >= 1.0

    def test_duality_identity(self):
        rng = np.random.default_rng(21)
        g = GridSpec(1, 4)
        for seed in range(20):
            w = weight(g, np.exp(rng.standard_normal(g.cells)))
            p = (1.5, 2.0, 3.0)[seed % 3]
            pprime = p / (p - 1.0)
            lhs = ap_characteristic(dual_weight(w, p), pprime).value
            rhs = ap_characteristic(w, p).value ** (pprime - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestJointAp:
    def test_both_constant(self):
        g = GridSpec(1, 2)
        one = StepFunction.constant(g, 1.0)
        assert joint_ap(one, one, 2.0).value == pytest.approx(1.0, abs=1e-14)

    def test_dual_weight_reduction(self):
        rng = np.random.default_rng(31)
        g = GridSpec(1, 4)
        w = weight(g, np.exp(rng.standard_normal(g.cells)))
        for p in (1.5, 2.0, 3.0):
            sigma = dual_weight(w, p)
            assert joint_ap(w, sigma, p).value == pytest.approx(
                ap_characteristic(w, p).value ** (1.0 / p), rel=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        g = GridSpec(1, 4)
        for seed in range(10):
            w = weight(g, np.exp(rng.standard_normal(g.cells)))
            s = weight(g, np.exp(rng.standard_normal(g.cells)))
            p = (1.5, 2.0, 3.0)[seed % 3]
            pprime = p / (p - 1.0)
            assert joint_ap(w, s, p).value == pytest.approx(
                joint_ap(s, w, pprime).value, rel=1e-12
            )


class TestMaximalFunction:
    def test_constant(self):
        g = GridSpec(1, 3)
        f = StepFunction.constant(g, 1.0)
        assert np.allclose(maximal_function(f).values, 1.0)

    def test_single_spike_dyadic(self):
        g = GridSpec(1, 2)
        f = StepFunction(g, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(maximal_function(f).values, [1.0, 0.5, 0.25, 0.25])

    def test_pointwise_domination(self):
        rng = np.random.default_rng(41)
        for mode in ("dyadic", "centered"):
            g = GridSpec(1, 4)
            f = StepFunction(g, rng.standard_normal(g.cells))
            M = maximal_function(f, mode)
            assert np.all(M.values >= np.abs(f.values) - 1e-14)

    def test_sublinear_and_monotone(self):
        rng = np.random.default_rng(42)
        g = GridSpec(2, 2)
        for _ in range(20):
            f = StepFunction(g, rng.standard_normal(g.cells))
            h = StepFunction(g, rng.standard_normal(g.cells))
            Mf, Mh = maximal_function(f), maximal_function(h)
            assert np.all(maximal_function(f + h).values <= Mf.values + Mh.values + 1e-13)
            lo = StepFunction(g, np.minimum(np.abs(f.values), np.abs(h.values)))
            hi = StepFunction(g, np.maximum(np.abs(f.values), np.abs(h.values)))
            assert np.all(maximal_function(lo).values <= maximal_function(hi).values + 1e-13)

    @pytest.mark.parametrize("N", [0, 1, 4, 8, 9, 10])
    def test_centered_matches_per_radius_loop(self, N):
        # from N = 8 on the radii span several blocks
        g = GridSpec(1, N)
        w = cascade_weight(g, 300 + N, 0.6)
        sparse = np.zeros(g.cells)
        sparse[g.cells // 4 : g.cells // 2] = w.values[g.cells // 4 : g.cells // 2]
        for f in (w, w.with_values(sparse)):
            got = maximal_function(f, "centered").values
            assert got.tobytes() == loop_centered_maximal(f).tobytes()

    def test_centered_windows_against_direct_scan(self):
        # direct window scan at half-cell resolution
        rng = np.random.default_rng(43)
        g = GridSpec(1, 3)
        f = StepFunction(g, rng.standard_normal(g.cells))
        M = maximal_function(f, "centered").values
        cells = g.cells
        dx = 1.0 / cells
        for i in range(cells):
            x = (i + 0.5) * dx
            cands = [abs(f.values[i])]
            for j in range(1, cells + 1):
                t = j * dx
                lo, hi = max(x - t, 0.0), min(x + t, 1.0)
                lo_k, hi_k = int(round(lo * 2 * cells)), int(round(hi * 2 * cells))
                total = 0.0
                half = np.repeat(np.abs(f.values), 2) * dx / 2
                total = half[lo_k:hi_k].sum()
                cands.append(total / (2 * t))
            assert M[i] == pytest.approx(max(cands), rel=1e-12)


class TestAinfty:
    def test_constant_weight(self):
        g = GridSpec(1, 3)
        rep = ainfty_characteristic(StepFunction.constant(g, 2.0))
        assert rep.value == pytest.approx(1.0, abs=1e-14)

    def test_two_cell_value(self):
        g = GridSpec(1, 1)
        rep = ainfty_characteristic(weight(g, [4.0, 1.0]))
        # M over root has values (4, 2.5): ratio (2 + 1.25) / 2.5 = 1.3
        assert rep.value == pytest.approx(1.3, abs=1e-14)
        assert rep.witness == g.root()

    def test_enumerated_oracle(self):
        rng = np.random.default_rng(51)
        g = GridSpec(1, 3)
        w = weight(g, np.exp(rng.standard_normal(g.cells)))
        # direct: loop cubes, loop cells, scan subcubes containing the cell
        best = 0.0
        for Q in g.all_cubes():
            total = 0.0
            for z in range(Q.cell_slice.start, Q.cell_slice.stop):
                cand = 0.0
                for level in range(Q.level, g.N + 1):
                    R = g.cube_from_zindex(level, z >> (g.N - level))
                    if Q.contains(R):
                        cand = max(cand, float(w.values[R.cell_slice].mean()))
                total += cand * g.cell_volume
            best = max(best, total / w.integral(Q))
        assert ainfty_characteristic(w).value == pytest.approx(best, rel=1e-12)

    def test_dominated_by_ap(self):
        # dyadic A_infty never exceeds the dyadic A_2 for these weights
        g = GridSpec(1, 6)
        worst = 0.0
        for seed in range(500):
            w = cascade_weight(g, seed, 0.6)
            ratio = ainfty_characteristic(w).value / ap_characteristic(w, 2.0).value
            worst = max(worst, ratio)
        assert worst <= 1.0 + 1e-12

    def test_centered_mode_runs(self):
        g = GridSpec(1, 3)
        rep = ainfty_characteristic(weight(g, [4, 1, 2, 1, 1, 1, 3, 1.0]), "centered")
        assert rep.value >= 1.0 - 1e-12

    @pytest.mark.parametrize("d,N", [(1, 0), (1, 1), (1, 5), (1, 8), (2, 1), (2, 2), (2, 3)])
    def test_centered_matches_whole_grid_evaluation(self, d, N):
        # only the centres inside each cube are evaluated: same value and witness bits
        g = GridSpec(d, N)
        spike = np.ones(g.cells)
        spike[g.cells // 3] = 50.0
        for w in (cascade_weight(g, 500 + N, 0.6), weight(g, spike)):
            rep = ainfty_characteristic(w, "centered")
            value, level, z = loop_centered_ainfty(w)
            assert rep.value.hex() == value.hex()
            assert (rep.witness.level, rep.witness.zindex) == (level, z)

    def test_report_serialization(self):
        g = GridSpec(1, 2)
        rep = ainfty_characteristic(StepFunction.constant(g, 1.0))
        obj = json.loads(rep.to_json())
        assert obj["p"] == "inf"
        assert obj["witness"] == {"level": 0, "coords": [0]}
        rep2 = ap_characteristic(StepFunction.constant(g, 1.0), 2.0)
        assert json.loads(rep2.to_json())["p"] == 2.0


class TestMaximalBoundTrend:
    def test_two_weight_maximal_ratio_bounded(self):
        # ||M(f sigma)||_{L^p(w)} <= C [w,sigma]_{A_p} ||sigma||_{A_inf}^{1/p} ||f||_{L^p(sigma)}
        from czlab.dyadics import lp_norm

        g = GridSpec(1, 6)
        worst = 0.0
        for seed in range(200):
            w = cascade_weight(g, 7000 + seed, 0.55)
            sigma = cascade_weight(g, 9000 + seed, 0.55)
            rng = np.random.default_rng(11000 + seed)
            f = StepFunction(g, np.abs(rng.standard_normal(g.cells)) + 0.01)
            p = (1.5, 2.0, 3.0)[seed % 3]
            lhs = lp_norm(maximal_function(f * sigma), p, w)
            rhs = (
                joint_ap(w, sigma, p).value
                * ainfty_characteristic(sigma).value ** (1.0 / p)
                * lp_norm(f, p, sigma)
            )
            worst = max(worst, lhs / rhs)
        # recorded constant for this family; the theorem allows some C_p
        assert worst <= 4.0


class TestCentered2D:
    def test_centered_maximal_2d_direct_scan(self):
        rng = np.random.default_rng(77)
        g = GridSpec(2, 2)
        f = StepFunction(g, rng.standard_normal(g.cells))
        M = maximal_function(f, "centered").values
        n = 1 << g.N
        dx = 1.0 / n
        # raster of |f| for the direct scan
        absf = np.zeros((n, n))
        for z in range(g.cells):
            c0 = sum(((z >> (2 * b)) & 1) << b for b in range(g.N))
            c1 = sum(((z >> (2 * b + 1)) & 1) << b for b in range(g.N))
            absf[c0, c1] = abs(f.values[z])
        for z in range(g.cells):
            c0 = sum(((z >> (2 * b)) & 1) << b for b in range(g.N))
            c1 = sum(((z >> (2 * b + 1)) & 1) << b for b in range(g.N))
            x = ((c0 + 0.5) * dx, (c1 + 0.5) * dx)
            best = absf[c0, c1]
            for j in range(1, n + 1):
                t = j * dx
                total = 0.0
                for a in range(n):
                    for b in range(n):
                        # overlap of the cell with the clipped window
                        lo0, hi0 = max(a * dx, x[0] - t), min((a + 1) * dx, x[0] + t)
                        lo1, hi1 = max(b * dx, x[1] - t), min((b + 1) * dx, x[1] + t)
                        if hi0 > lo0 and hi1 > lo1:
                            total += absf[a, b] * (hi0 - lo0) * (hi1 - lo1)
                best = max(best, total / (2 * t) ** 2)
            assert M[z] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("N", [0, 1, 3, 5])
    def test_centered_maximal_2d_matches_per_radius_loop(self, N):
        # from N = 5 on the radii span several blocks
        g = GridSpec(2, N)
        w = cascade_weight(g, 600 + N, 0.6)
        sparse = np.where(np.arange(g.cells) % 5 == 0, w.values, 0.0)
        for f in (w, w.with_values(sparse)):
            got = maximal_function(f, "centered").values
            assert got.tobytes() == loop_centered_maximal_2d(f).tobytes()

    def test_ainfty_witness_reproduces_value(self):
        rng = np.random.default_rng(78)
        g = GridSpec(1, 5)
        w = weight(g, np.exp(rng.standard_normal(g.cells)))
        rep = ainfty_characteristic(w)
        Q = rep.witness
        # recompute the ratio at the witness from scratch
        best = np.zeros(cell_count(Q))
        for level in range(Q.level, g.N + 1):
            per = cell_count(Q) >> (level - Q.level)
            avgs = w.values[Q.cell_slice].reshape(-1, per).mean(axis=1)
            best = np.maximum(best, np.repeat(avgs, per))
        ratio = best.sum() * g.cell_volume / w.integral(Q)
        assert ratio == pytest.approx(rep.value, rel=1e-10)


def tied_weights(g):
    """Cascade weights, and weights whose suprema tie: a constant (every
    cube ties with the root), one spike at the same place in both children
    of the root (their subcubes tie level by level) and two-value weights."""
    rows = list(_cascade_rows(g, [1, 2, 3], 0.6))
    rows.append(np.ones(g.cells))
    spikes = np.ones(g.cells)
    last = (g.cells >> g.d) - 1  # the first child's last cell
    spikes[[last, last + (g.cells >> g.d)]] = 64.0
    rows.append(spikes)
    rows.extend(two_value_weight(g, v, k).values for v, k in ((4.0, 1), (0.25, g.N)))
    return np.array(rows)


class TestRowBlocks:
    """Each row of a block core equals the single-weight function on that
    row, value and witness, bit for bit."""

    GRIDS = [(1, 1), (1, 8), (2, 4), (3, 2)]

    @pytest.mark.parametrize("d,N", GRIDS)
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_ap_rows(self, d, N, p):
        g = GridSpec(d, N)
        rows = tied_weights(g)
        values, levels, zindex = _ap_rows(g, rows, p)
        for i, row in enumerate(rows):
            rep = ap_characteristic(weight(g, row), p)
            assert values[i] == rep.value
            assert (levels[i], zindex[i]) == (rep.witness.level, rep.witness.zindex)

    @pytest.mark.parametrize("d,N", GRIDS)
    def test_ainfty_rows(self, d, N):
        g = GridSpec(d, N)
        rows = tied_weights(g)
        values, levels, zindex = _ainfty_rows(g, _level_sums(g, rows))
        for i, row in enumerate(rows):
            rep = ainfty_characteristic(weight(g, row))
            assert values[i] == rep.value
            assert (levels[i], zindex[i]) == (rep.witness.level, rep.witness.zindex)
            oracle = stacked_running_max_ainfty(weight(g, row))
            assert (rep.value, rep.witness.level, rep.witness.zindex) == oracle

    def test_ties_resolve_coarsest_first_then_smallest_zindex(self):
        g = GridSpec(1, 8)
        rows = tied_weights(g)
        ap = _ap_rows(g, rows, 2.0)
        ainf = _ainfty_rows(g, _level_sums(g, rows))
        # the constant: every cube ties, the root wins
        assert (ap[1][3], ap[2][3]) == (ainf[1][3], ainf[2][3]) == (0, 0)
        # the spikes: the first child's cube wins over its twin in the second
        assert (ap[1][4], ap[2][4]) == (7, 63)
        assert (ainf[1][4], ainf[2][4]) == (3, 3)

    @pytest.mark.parametrize("d,N", GRIDS)
    def test_maximal_rows(self, d, N):
        g = GridSpec(d, N)
        rng = np.random.default_rng(N)
        rows = np.concatenate([tied_weights(g), rng.standard_normal((3, g.cells))])
        rows[-1, ::3] = -0.0
        block = _maximal_rows(g, rows)
        for row, got in zip(rows, block):
            assert np.array_equal(got, maximal_function(weight(g, row)).values)
