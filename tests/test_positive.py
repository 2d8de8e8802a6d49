import math

import numpy as np
import pytest

from czlab.dyadics import GridSpec, StepFunction, lp_norm
from czlab.families import cascade_weight
from czlab.positive import TauCoefficients, apply_positive, sawyer_testing, strong_norm_bound

from oracles import (
    LAMBDA_FLOOR,
    bruteforce_lp_norm,
    decomposition_cubes,
    dense_positive_matrix,
    lambda_constant,
    tau_items,
)


def ones(grid):
    return StepFunction.constant(grid, 1.0)


def rand_weight(grid, seed, vol=0.6):
    return cascade_weight(grid, seed, vol)


def rand_tau(grid, seed, density=0.6):
    rng = np.random.default_rng(seed)
    table = {}
    for Q in grid.all_cubes():
        if rng.random() < density:
            table[Q] = float(rng.random())
    return TauCoefficients(grid, table)


class TestApplyPositive:
    def test_zero_coefficients(self):
        g = GridSpec(1, 3)
        out = apply_positive(TauCoefficients(g, {}), ones(g), ones(g))
        assert np.abs(out.values).max() == 0.0

    def test_single_root_term(self):
        g = GridSpec(1, 3)
        tau = TauCoefficients(g, {g.root(): 1.0})
        out = apply_positive(tau, ones(g), ones(g))
        assert np.allclose(out.values, 1.0)

    def test_negative_tau_rejected(self):
        g = GridSpec(1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            TauCoefficients(g, {g.root(): -0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, bad):
        g = GridSpec(1, 2)
        with pytest.raises(ValueError, match="finite and non-negative"):
            TauCoefficients(g, {g.root(): bad})

    def test_levels_hold_the_coefficients_read_only(self):
        g = GridSpec(2, 2)
        tau = TauCoefficients(g, {g.cube(1, (1, 0)): 2.0, g.cube(2, (3, 3)): -0.0, g.root(): 0.0})
        assert [arr.tolist() for arr in tau.levels] == [[0.0], [0.0, 2.0, 0.0, 0.0], [0.0] * 16]
        assert not any(np.signbit(arr).any() for arr in tau.levels)  # -0.0 dropped, as 0.0
        with pytest.raises(ValueError):
            tau.levels[1][0] = 1.0
        assert tau.to_json() == '[{"cube":{"level":1,"coords":[1,0]},"tau":2.0}]'

    def test_from_json_rejects_repeated_cube(self):
        g = GridSpec(1, 2)
        text = '[{"cube":{"level":1,"coords":[0]},"tau":0.5},{"cube":{"level":1,"coords":[0]},"tau":0.9}]'
        with pytest.raises(ValueError, match=r"tau list\[1\] repeats tau list\[0\]"):
            TauCoefficients.from_json(g, text)

    def test_dense_matrix_oracle(self):
        for seed in range(10):
            g = GridSpec(1, 3) if seed % 2 else GridSpec(2, 2)
            tau = rand_tau(g, seed)
            mu = rand_weight(g, 100 + seed)
            f = StepFunction(g, np.random.default_rng(200 + seed).standard_normal(g.cells))
            K = dense_positive_matrix(tau, mu)
            assert np.abs(apply_positive(tau, mu, f).values - K @ f.values).max() < 1e-12

    def test_positivity_and_monotonicity(self):
        g = GridSpec(1, 4)
        rng = np.random.default_rng(7)
        for seed in range(10):
            tau = rand_tau(g, 300 + seed)
            sigma = rand_weight(g, 400 + seed)
            f = StepFunction(g, rng.uniform(0.0, 1.0, g.cells))
            gfun = StepFunction(g, f.values + rng.uniform(0.0, 1.0, g.cells))
            Tf = apply_positive(tau, sigma, f)
            Tg = apply_positive(tau, sigma, gfun)
            assert np.all(Tf.values >= -1e-15)
            assert np.all(Tg.values >= Tf.values - 1e-13)


class TestSawyerTesting:
    def test_zero_tau(self):
        g = GridSpec(1, 2)
        t = sawyer_testing(TauCoefficients(g, {}), ones(g), ones(g), 2.0)
        assert t.value == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_single_cube_closed_form(self, p):
        # tau on one cube, unit weights: w(Q0)^(-1/p') * (sigma(Q0))^(1/p') = 1
        g = GridSpec(1, 3)
        Q0 = g.cube(1, (1,))
        tau = TauCoefficients(g, {Q0: 1.0})
        t = sawyer_testing(tau, ones(g), ones(g), p)
        assert t.value == pytest.approx(1.0, rel=1e-12)
        assert t.witness == Q0

    def test_duality_swap_consistency(self):
        g = GridSpec(1, 3)
        for seed in range(6):
            tau = rand_tau(g, 500 + seed)
            w = rand_weight(g, 600 + seed)
            sigma = rand_weight(g, 700 + seed)
            p = (1.5, 2.0, 3.0)[seed % 3]
            pprime = p / (p - 1.0)
            # swapping weights and conjugating the index is the dual constant;
            # evaluate it independently from raw definitions
            swapped = sawyer_testing(tau, sigma, w, pprime)
            direct = _testing_by_definition(tau, sigma, w, pprime)
            assert swapped.value == pytest.approx(direct, rel=1e-10)

    def test_definition_oracle(self):
        g = GridSpec(1, 3)
        for seed in range(8):
            tau = rand_tau(g, 800 + seed)
            w = rand_weight(g, 900 + seed)
            sigma = rand_weight(g, 1000 + seed)
            p = (1.5, 2.0, 3.0)[seed % 3]
            got = sawyer_testing(tau, w, sigma, p).value
            assert got == pytest.approx(_testing_by_definition(tau, w, sigma, p), rel=1e-10)


def _testing_by_definition(tau, w, sigma, p):
    """Brute force: loop R, assemble the localized sum cell by cell."""
    grid = tau.grid
    pprime = p / (p - 1.0)
    vol = grid.cell_volume
    best = 0.0
    for R in grid.all_cubes():
        total = np.zeros(grid.cells)
        for Q, t in tau_items(tau):
            if R.contains(Q):
                sl = Q.cell_slice
                total[sl] += t * float(w.values[sl].mean())
        wR = float(w.values[R.cell_slice].sum()) * vol
        norm = float((np.abs(total) ** pprime * sigma.values).sum() * vol) ** (1.0 / pprime)
        best = max(best, norm / wR ** (1.0 / pprime))
    return best


class TestStrongNormBound:
    def test_zero(self):
        g = GridSpec(1, 2)
        assert strong_norm_bound(TauCoefficients(g, {}), ones(g), ones(g), 2.0) == 0.0

    def test_symmetric_instance(self):
        g = GridSpec(1, 3)
        tau = rand_tau(g, 1400)
        w = rand_weight(g, 1500)
        t1 = sawyer_testing(tau, w, w, 2.0).value
        assert strong_norm_bound(tau, w, w, 2.0) == pytest.approx(2.0 * t1, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_norm_to_proxy_ratio_tiny_grids(self, p):
        # the proxy and the true norm stay within one modest interval
        ratios = []
        for seed in range(20):
            g = GridSpec(1, 2)
            tau = rand_tau(g, 1600 + seed)
            if not tau_items(tau):
                continue
            w = rand_weight(g, 1700 + seed)
            sigma = rand_weight(g, 1800 + seed)
            proxy = strong_norm_bound(tau, w, sigma, p)
            if proxy == 0.0:
                continue
            K = dense_positive_matrix(tau, ones(g))
            norm = bruteforce_lp_norm(K, w, sigma, p, seed=seed)
            ratios.append(norm / proxy)
        assert ratios
        assert max(ratios) / min(ratios) <= 64.0
        assert max(ratios) <= 1.001  # norm never exceeds the two-sided proxy here


class TestLambdaConstant:
    def test_empty_family_rejected(self):
        g = GridSpec(1, 2)
        with pytest.raises(ValueError):
            lambda_constant(g, [])

    def test_single_cube_floor(self):
        g = GridSpec(1, 3)
        assert lambda_constant(g, [g.root()]) == LAMBDA_FLOOR

    def test_disjoint_family_floor(self):
        g = GridSpec(1, 3)
        assert lambda_constant(g, g.cubes(2)) == LAMBDA_FLOOR

    def test_nested_chain_oracle_and_monotone(self):
        # direct evaluation of the exponential moment for a halving chain
        def lam_oracle(k):
            def moment_ok(L):
                x = math.exp(1.0 / L)
                s = sum(2.0 ** (-i - 1) * x**i for i in range(k - 1))
                s += 2.0 ** (-(k - 1)) * x ** (k - 1)
                return s <= 2.0

            lo, hi = 1e-9, 1.0
            while not moment_ok(hi):
                hi *= 2.0
            for _ in range(200):
                if hi - lo <= 1e-9 * hi:
                    break
                mid = (lo + hi) / 2.0
                if moment_ok(mid):
                    hi = mid
                else:
                    lo = mid
            return hi

        g = GridSpec(1, 8)
        values = []
        for k in (2, 3, 4, 6, 8):
            chain = [g.cube(j, (0,)) for j in range(k)]
            got = lambda_constant(g, chain)
            assert got == pytest.approx(lam_oracle(k), rel=1e-5)
            values.append(got)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_lerner_families_bounded(self):
        from czlab.lerner import lerner_decompose

        g = GridSpec(1, 6)
        rng = np.random.default_rng(5)
        worst = 0.0
        nontrivial = 0
        for seed in range(30):
            phi = StepFunction(g, rng.standard_cauchy(g.cells))
            dec = lerner_decompose(phi, g.root())
            cubes = decomposition_cubes(dec)
            if not cubes:
                continue
            nontrivial += 1
            lam = lambda_constant(g, cubes)
            worst = max(worst, lam)
        assert nontrivial >= 20
        assert worst <= 4.0  # recorded constant: decomposition families are thin


class TestTypeLApply:
    def test_type_l_norm_versus_characteristic_bound(self):
        # strong-bound ratio check against Lambda * bracket * max A_infty powers
        from czlab.characteristics import ainfty_characteristic, joint_ap
        from czlab.lerner import lerner_decompose
        from czlab.normlab import norm_lp_lower, positive_operator

        g = GridSpec(1, 5)
        rng = np.random.default_rng(8)
        worst = 0.0
        checked = 0
        for seed in range(6):
            phi = StepFunction(g, rng.standard_cauchy(g.cells))
            dec = lerner_decompose(phi, g.root())
            cubes = decomposition_cubes(dec)
            if not cubes:
                continue
            checked += 1
            # the bound's constant absorbs the scale of thin families, so the
            # type-L constant enters floored at one
            lam = max(lambda_constant(g, cubes), 1.0)
            w = rand_weight(g, 2100 + seed)
            sigma = rand_weight(g, 2200 + seed)
            p = (1.5, 2.0, 3.0)[seed % 3]
            pprime = p / (p - 1.0)
            op = positive_operator(TauCoefficients(g, {Q: 1.0 for Q in cubes}))
            est = norm_lp_lower(op, w, sigma, p, budget=4, seed=seed, random_starts=8)
            rhs = (
                lam
                * joint_ap(w, sigma, p).value
                * max(
                    ainfty_characteristic(sigma).value ** (1.0 / p),
                    ainfty_characteristic(w).value ** (1.0 / pprime),
                )
            )
            worst = max(worst, est.lower_bound / rhs)
        assert checked >= 4
        assert worst <= 2.0  # recorded constant for the sweep family


class TestTestingLowerBoundsNorm:
    def test_norm_dominates_each_testing_constant(self):
        # feeding indicators through duality shows norm >= max(T_p', T_p);
        # the recorded c here is 1 up to optimizer slack, stable across sizes
        worst = {1: np.inf, 2: np.inf, 3: np.inf}
        for N in (1, 2, 3):
            g = GridSpec(1, N)
            one = StepFunction.constant(g, 1.0)
            for seed in range(10):
                tau = rand_tau(g, 3000 + 10 * N + seed)
                if not tau_items(tau):
                    continue
                w = rand_weight(g, 4000 + 10 * N + seed)
                sigma = rand_weight(g, 5000 + 10 * N + seed)
                p = (1.5, 2.0, 3.0)[seed % 3]
                pprime = p / (p - 1.0)
                biggest = max(
                    sawyer_testing(tau, w, sigma, p).value,
                    sawyer_testing(tau, sigma, w, pprime).value,
                )
                if biggest == 0.0:
                    continue
                K = dense_positive_matrix(tau, one)
                norm = bruteforce_lp_norm(K, w, sigma, p, seed=seed)
                worst[N] = min(worst[N], norm / biggest)
        for N, c in worst.items():
            assert c >= 0.999, f"N={N}: recorded c={c}"
