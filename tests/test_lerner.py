import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from czlab import lerner
from czlab.cli import _sample_blocks, run
from czlab.config import parse_config
from czlab.dyadics import GridSpec, StepFunction
from czlab.families import _random_step_rows, random_step
from czlab.lerner import _lerner_generations, lerner_decompose, local_sharp_maximal, median, oscillation

from oracles import (
    brute_local_sharp,
    brute_oscillation,
    decomposition_cubes,
    lambda_constant,
    loop_lerner_generations,
    unique_lower_median,
)


def step(grid, vals):
    return StepFunction(grid, vals)


def root_interior_finest(grid):
    """A cube at the root, one at level 1 and one at the finest level."""
    return [grid.root(), grid.cube_from_zindex(1, (1 << grid.d) - 1), grid.cube_from_zindex(grid.N, 3)]


class TestMedian:
    def test_constant(self):
        g = GridSpec(1, 3)
        f = StepFunction.constant(g, 2.5)
        for Q in g.all_cubes():
            assert median(f, Q) == 2.5

    def test_lower_median_convention(self):
        g = GridSpec(1, 2)
        assert median(step(g, [1.0, 2.0, 3.0, 4.0]), g.root()) == 2.0

    def test_bracketing_exact(self):
        rng = np.random.default_rng(1)
        g = GridSpec(2, 2)
        for _ in range(50):
            f = step(g, rng.standard_normal(g.cells))
            for Q in g.all_cubes():
                m = median(f, Q)
                vals = f.values[Q.cell_slice]
                assert (vals > m).sum() <= vals.size / 2
                assert (vals < m).sum() <= vals.size / 2

    @given(c=st.floats(-5, 5), seed=st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, c, seed):
        g = GridSpec(1, 3)
        f = step(g, np.random.default_rng(seed).standard_normal(g.cells))
        Q = g.cube(1, (seed % 2,))
        assert median(f + c, Q) == pytest.approx(median(f, Q) + c, abs=1e-12)


    @pytest.mark.parametrize("d,N", [(1, 6), (2, 3)])
    def test_signed_zero_ties_match_unique_median(self, d, N):
        # few distinct values, zeros of both signs: ties in almost every cube,
        # and the median's zero sign is the first tied zero's in sorted order
        g = GridSpec(d, N)
        rng = np.random.default_rng(10 * d + N)
        pool = np.array([-1.0, -0.0, 0.0, -0.0, 0.0, 1.0, 2.5])
        for _ in range(40):
            f = step(g, rng.choice(pool, g.cells))
            for Q in g.all_cubes():
                got = median(f, Q)
                want = unique_lower_median(np.sort(f.values[Q.cell_slice]))
                assert got == want and np.signbit(got) == np.signbit(want)


class TestOscillation:
    def test_constant_function(self):
        g = GridSpec(1, 3)
        f = StepFunction.constant(g, 3.0)
        for lam in (0.1, 0.25, 0.5, 0.9):
            assert oscillation(f, g.root(), lam) == 0.0

    def test_quarter_percentile_half(self):
        g = GridSpec(1, 2)
        assert oscillation(step(g, [1.0, 1.0, 0.0, 0.0]), g.root(), 0.25) == 0.5

    def test_single_spike_zero(self):
        g = GridSpec(1, 2)
        assert oscillation(step(g, [1.0, 0.0, 0.0, 0.0]), g.root(), 0.25) == 0.0

    def test_lambda_domain(self):
        g = GridSpec(1, 1)
        f = step(g, [0.0, 1.0])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                oscillation(f, g.root(), bad)

    def test_exhaustive_candidate_oracle(self):
        rng = np.random.default_rng(2)
        g = GridSpec(1, 3)
        for seed in range(40):
            f = step(g, rng.standard_normal(g.cells))
            Q = list(g.all_cubes())[seed % g.cube_count()]
            lam = (0.1, 0.2, 0.3, 0.45)[seed % 4]
            assert oscillation(f, Q, lam) == pytest.approx(
                brute_oscillation(f, Q, lam), abs=1e-12
            )

    def test_properties(self):
        rng = np.random.default_rng(3)
        g = GridSpec(1, 4)
        for seed in range(20):
            f = step(g, rng.standard_normal(g.cells))
            Q = g.root()
            # non-increasing in lambda
            lams = (0.05, 0.1, 0.25, 0.5, 0.75)
            vals = [oscillation(f, Q, la) for la in lams]
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
            # shift invariance and absolute homogeneity
            c = float(rng.standard_normal())
            assert oscillation(f + c, Q, 0.25) == pytest.approx(
                oscillation(f, Q, 0.25), abs=1e-12
            )
            assert oscillation(c * f, Q, 0.25) == pytest.approx(
                abs(c) * oscillation(f, Q, 0.25), rel=1e-12, abs=1e-14
            )


class TestLocalSharp:
    def test_constant_zero(self):
        g = GridSpec(1, 3)
        out = local_sharp_maximal(StepFunction.constant(g, 4.0), g.root(), 0.25)
        assert np.abs(out.values).max() == 0.0

    def test_shift_invariance(self):
        g = GridSpec(1, 3)
        f = step(g, np.random.default_rng(4).standard_normal(g.cells))
        a = local_sharp_maximal(f, g.root(), 0.25).values
        b = local_sharp_maximal(f + 3.0, g.root(), 0.25).values
        assert np.allclose(a, b, atol=1e-12, rtol=0)

    def test_bruteforce_all_pairs(self):
        rng = np.random.default_rng(5)
        g = GridSpec(1, 3)
        for seed in range(10):
            f = step(g, rng.standard_normal(g.cells))
            Q = (g.root(), g.cube(1, (0,)), g.cube(1, (1,)))[seed % 3]
            got = local_sharp_maximal(f, Q, 0.25).values
            want = np.zeros(g.cells)
            want[Q.cell_slice] = brute_local_sharp(f, Q, 0.25)[Q.cell_slice]
            assert np.abs(got - want).max() < 1e-12

    def test_2d_bruteforce(self):
        rng = np.random.default_rng(6)
        g = GridSpec(2, 2)
        f = step(g, rng.standard_normal(g.cells))
        got = local_sharp_maximal(f, g.root(), 0.25).values
        want = brute_local_sharp(f, g.root(), 0.25)
        assert np.abs(got - want).max() < 1e-12


class TestDecomposition:
    def test_constant_function(self):
        g = GridSpec(1, 4)
        dec = lerner_decompose(StepFunction.constant(g, 1.0), g.root())
        assert dec.generations == ()
        assert np.all(dec.residual.values <= 1e-14)
        assert dec.median == 1.0

    def test_single_spike(self):
        g = GridSpec(1, 4)
        vals = np.zeros(g.cells)
        vals[5] = 100.0
        dec = lerner_decompose(step(g, vals), g.root())
        assert len(dec.generations) >= 1
        first = [Q for Q, _ in dec.generations[0]]
        # the spike cell is isolated by the first generation
        assert any(Q.cell_slice.start <= 5 < Q.cell_slice.stop for Q in first)

    def test_certificates_hold_random(self):
        g = GridSpec(1, 6)
        rng = np.random.default_rng(7)
        for seed in range(25):
            phi = step(g, rng.standard_cauchy(g.cells))
            dec = lerner_decompose(phi, g.root())  # certificates assert inside
            # re-check property (4) here as well
            for a, b in zip(dec.generations, dec.generations[1:]):
                cover = np.zeros(g.cells, dtype=bool)
                for Q, _ in b:
                    cover[Q.cell_slice] = True
                for Q, _ in a:
                    assert cover[Q.cell_slice].sum() * 2 < Q.cell_count

    @pytest.mark.parametrize("d,N", [(1, 6), (2, 3), (3, 2)])
    def test_generations_match_loop_selection(self, d, N):
        g = GridSpec(d, N)
        rng = np.random.default_rng(20 + d)
        for _ in range(8):
            raw = rng.standard_cauchy(g.cells)
            # rounded values tie often, some at zeros of both signs
            values = (raw, np.sign(raw) * raw**2, np.round(raw), np.abs(np.round(raw)))
            for phi in (step(g, v) for v in values):
                for Q0 in (g.root(), g.cube_from_zindex(1, 1)):
                    dec = lerner_decompose(phi, Q0)
                    assert dec.generations == loop_lerner_generations(phi, Q0)

    @pytest.mark.parametrize("d,N", [(1, 7), (2, 4), (3, 2)])
    def test_masks_match_loop_selection(self, d, N):
        # 0/1 values: exceptional fractions are dyadic rationals, so they
        # often equal the threshold 2^(-d-1) exactly
        g = GridSpec(d, N)
        rng = np.random.default_rng(100 + d)
        for density in (0.05, 0.2, 0.5):
            for Q0 in root_interior_finest(g):
                phi = step(g, (rng.random(g.cells) < density).astype(float))
                assert _lerner_generations(phi, Q0) == loop_lerner_generations(phi, Q0)

    @pytest.mark.parametrize("d,N", [(1, 6), (2, 3), (3, 2)])
    def test_single_spike_matches_loop_selection(self, d, N):
        g = GridSpec(d, N)
        for cell in (0, 5, g.cells - 1):
            vals = np.zeros(g.cells)
            vals[cell] = 100.0
            for Q0 in root_interior_finest(g):
                phi = step(g, vals)
                assert _lerner_generations(phi, Q0) == loop_lerner_generations(phi, Q0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fraction_equal_to_threshold_is_not_picked(self, d):
        # 2^(d-1) spikes in distinct level-2 cubes of the last level-1 cube:
        # they fill exactly 2^(-d-1) of it, so only their level-2 cubes are
        # picked, each with its parent's oscillation 50
        g = GridSpec(d, 3)
        fold = 1 << d
        level2 = [(fold - 1) * fold + i for i in range(fold // 2)]
        vals = np.zeros(g.cells)
        vals[[z << d for z in level2]] = 100.0
        gens = _lerner_generations(step(g, vals), g.root())
        assert gens == (tuple((g.cube_from_zindex(2, z), 50.0) for z in level2),)

    def test_finest_base_cube_has_no_generations(self):
        g = GridSpec(2, 2)
        phi = step(g, np.random.default_rng(13).standard_cauchy(g.cells))
        assert _lerner_generations(phi, g.cube(2, (1, 3))) == ()

    def test_2d_certificates(self):
        g = GridSpec(2, 3)
        rng = np.random.default_rng(8)
        for seed in range(10):
            phi = step(g, rng.standard_cauchy(g.cells))
            lerner_decompose(phi, g.root())

    def test_pointwise_domination_recorded_constant(self):
        # |phi - median| <= C * (sharp + generation sum) with one recorded C
        g = GridSpec(1, 6)
        rng = np.random.default_rng(9)
        worst = 0.0
        for seed in range(100):
            phi = step(g, rng.standard_cauchy(g.cells))
            dec = lerner_decompose(phi, g.root())
            dev = dec.residual.values + dec.majorant.values
            maj = dec.majorant.values
            assert np.all(dev[maj == 0.0] <= 1e-12)
            if (maj > 0).any():
                worst = max(worst, float(np.max(dev[maj > 0] / maj[maj > 0])))
        assert worst <= 4.0  # recorded empirical constant for this family

    def test_decomposition_family_is_type_l(self):
        g = GridSpec(1, 6)
        rng = np.random.default_rng(10)
        for seed in range(20):
            phi = step(g, rng.standard_cauchy(g.cells))
            dec = lerner_decompose(phi, g.root())
            cubes = decomposition_cubes(dec)
            if not cubes:
                continue
            lam = lambda_constant(g, cubes)
            assert lam <= 4.0

    def test_generation_separated_subfamilies(self):
        g = GridSpec(1, 8)
        rng = np.random.default_rng(11)
        checked = 0
        for seed in range(30):
            raw = rng.standard_cauchy(g.cells)
            phi = step(g, np.sign(raw) * raw**2)
            dec = lerner_decompose(phi, g.root())
            if len(dec.generations) < 2:
                continue
            checked += 1
            full = lambda_constant(g, decomposition_cubes(dec))
            for t in (2, 3):
                for t0 in range(t):
                    sub = [Q for l, gen in enumerate(dec.generations, 1) if l % t == t0 for Q, _ in gen]
                    if sub:
                        assert lambda_constant(g, sub) <= full * (1.0 + 1e-5)
        assert checked >= 3

    def test_json_shape(self):
        import json

        g = GridSpec(1, 4)
        vals = np.zeros(g.cells)
        vals[3] = 50.0
        dec = lerner_decompose(step(g, vals), g.root())
        obj = json.loads(dec.to_json())
        assert set(obj) == {"q0", "median", "generations"}
        for gen in obj["generations"]:
            for item in gen:
                assert set(item) == {"cube", "omega_parent"}


class TestGenerationsCore:
    def test_core_matches_decomposition_on_certify_samples(self):
        # invariant-suite's Lerner samples in the benchmark's certify run (seed 31337, N = 10)
        g = GridSpec(1, 10)
        picked = 0
        for i in range(100):
            phi = random_step(g, 31337 + 3000 + i, spikes=1)
            gens = _lerner_generations(phi, g.root())
            assert gens == lerner_decompose(phi, g.root()).generations
            picked += sum(len(gen) for gen in gens)
        assert picked > 100

    def test_core_matches_decomposition_on_spiky_n12(self):
        g = GridSpec(1, 12)
        raw = np.random.default_rng(12).standard_cauchy(g.cells)
        phi = step(g, np.sign(raw) * raw**2)
        gens = _lerner_generations(phi, g.root())
        assert len(gens) >= 2
        assert gens == lerner_decompose(phi, g.root()).generations == loop_lerner_generations(phi, g.root())

    def test_row_walk_matches_one_row_at_a_time(self):
        # invariant-suite's Lerner samples in its row blocks, and the spiky
        # N = 12 function stacked with two other rows
        g = GridSpec(1, 10)
        for block in _sample_blocks(100, g):
            rows = _random_step_rows(g, [31337 + 3000 + i for i in block], spikes=1)
            assert lerner._generation_rows(g, g.root(), rows) == [_lerner_generations(step(g, r), g.root()) for r in rows]
        g = GridSpec(1, 12)
        raw = np.random.default_rng(12).standard_cauchy(g.cells)
        rows = np.stack([random_step(g, 7, spikes=3).values, np.sign(raw) * raw**2, np.round(raw)])
        walked = lerner._generation_rows(g, g.root(), rows)
        assert walked == [_lerner_generations(step(g, r), g.root()) for r in rows]
        assert len(walked[1]) >= 2

    @pytest.mark.parametrize(
        "cubes,message",
        [
            ([[(1, 0)]], None),
            ([[(2, 0)], [(4, 0)]], None),
            ([[(1, 1)]], "escapes the base cube"),
            ([[(0, 0)]], "escapes the base cube"),
            ([[(2, 0), (3, 1)]], "must be disjoint"),
            ([[(2, 0)], [(3, 2)]], "must be nested"),
            ([[(2, 0)], [(3, 0)]], "at least half"),
        ],
    )
    def test_certificates_reject_broken_generations(self, cubes, message):
        # (level, Z-index) pairs under the base cube (1, 0) of a d = 1, N = 4 grid
        g = GridSpec(1, 4)
        gens = tuple(tuple((g.cube_from_zindex(*c), 0.0) for c in gen) for gen in cubes)
        if message is None:
            lerner._assert_certificates(g, g.cube_from_zindex(1, 0), gens)
        else:
            with pytest.raises(AssertionError, match=message):
                lerner._assert_certificates(g, g.cube_from_zindex(1, 0), gens)

    def test_injected_certificate_failures_are_counted(self, tmp_path, monkeypatch):
        calls = []

        def every_other(grid, Q0, generations):
            calls.append(Q0)
            if len(calls) % 2:
                raise AssertionError("injected")

        monkeypatch.setattr(lerner, "_assert_certificates", every_other)
        obj = {"verb": "invariant-suite", "grid": {"d": 1, "N": 4}, "seed": 1, "params": {"samples": 5}}
        run(parse_config(obj), str(tmp_path))
        rows = (tmp_path / "invariants.csv").read_text().strip().split("\n")
        assert rows[-1] == "lerner_certificate_failures,5,3,0,False"
        assert len(calls) == 5


class TestRearrangementConsistency:
    def test_oscillation_matches_rearrangement_scan(self):
        # omega equals the best rearrangement value of (phi - c) 1_Q over the
        # exhaustive candidate set, wiring the two module definitions together
        from czlab.dyadics import rearrangement_value

        rng = np.random.default_rng(99)
        g = GridSpec(1, 3)
        for trial in range(10):
            f = step(g, rng.standard_normal(g.cells))
            Q = (g.root(), g.cube(1, (0,)), g.cube(2, (3,)))[trial % 3]
            lam = (0.15, 0.25, 0.4)[trial % 3]
            vals = f.values[Q.cell_slice]
            cands = set(vals.tolist())
            for a in vals:
                for b in vals:
                    cands.add((a + b) / 2.0)
            best = np.inf
            for c in cands:
                masked = np.zeros(g.cells)
                masked[Q.cell_slice] = f.values[Q.cell_slice] - c
                best = min(
                    best,
                    rearrangement_value(step(g, masked), lam * Q.volume),
                )
            assert oscillation(f, Q, lam) == pytest.approx(best, abs=1e-12)
