import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from czlab import shifts
from czlab.dyadics import GridSpec, StepFunction, ancestor
from czlab.normlab import hilbert_operator
from czlab.shifts import (
    GridEnsemble,
    _hilbert_averages,
    _exact_zero_sum,
    _offset_pairings,
    HaarShift,
    ShiftLevel,
    build_paraproduct,
    build_petermichl,
    build_random_shift,
    hilbert_average,
    hilbert_direct,
    hilbert_maximal,
    hilbert_truncated,
)

from oracles import (
    axis_reduced_random_shift_values,
    axis_reduced_zero_sum,
    brute_truncation,
    cell_count,
    dense_shift_matrix,
    gather_offset_pairings,
    loop_hilbert,
    loop_hilbert_average,
    loop_offset_pairing,
    loop_petermichl,
    loop_random_shift,
    matrix_of,
)


# the five support pairs [f_lo, f_hi, g_lo, g_hi] of criterion 6
CRITERION_6_PAIRS = [
    (2 / 32, 5 / 32, 7 / 32, 10 / 32),
    (18 / 32, 21 / 32, 23 / 32, 26 / 32),
    (2 / 64, 5 / 64, 7 / 64, 10 / 64),
    (26 / 64, 29 / 64, 31 / 64, 34 / 64),
    (42 / 128, 48 / 128, 52 / 128, 58 / 128),
]


def rand_step(grid, seed):
    return StepFunction(grid, np.random.default_rng(seed).standard_normal(grid.cells))


def _update_pair(**fields):
    """JSON edit: change pair 0 of entries[1]."""
    return lambda obj: obj["entries"][1]["pairs"][0].update(fields)


def _cube(level, z):
    return {"level": level, "coords": [z]}


MISPLACED = r"entries\[1\]\.pairs\[0\]: rprime and qprime must sit"


class TestShiftConstructor:
    """Each faulty row set is refused by HaarShift(...) and, written as JSON,
    by from_json; faults only JSON can hold have no levels edit.  The base is
    the Petermichl shift at N = 4, (m, n) = (1, 0), with levels 0-2; its JSON
    lists the level-0 cube, then both level-1 cubes."""

    # fault: (edit of the levels, message; edit of the JSON object, message)
    FAULTS = {
        "child_indices": (
            lambda L: {**L, 1: L[1]._replace(in_idx=np.vstack([[0, 0], L[1].in_idx[1:]]))},
            "children of one cube",
            _update_pair(rprime=_cube(2, 0)),
            MISPLACED,
        ),
        "child_out_of_range": (
            lambda L: {**L, 1: L[1]._replace(in_idx=np.vstack([[8, 9], L[1].in_idx[1:]]))},
            "children of one cube",
            _update_pair(rprime=_cube(1, 5)),
            r"entries\[1\]\.pairs\[0\]\.rprime: coordinate 5 outside",
        ),
        "different_q": (
            lambda L: {**L, 1: L[1]._replace(out_idx=np.vstack([[4, 5], L[1].out_idx[1:]]))},
            "same cube Q",
            _update_pair(qprime=_cube(2, 2)),
            MISPLACED,
        ),
        "level_too_deep": (
            lambda L: {**L, 3: L[2]},
            "need children",
            lambda obj: obj["entries"].append(
                {
                    "cube": _cube(3, 0),
                    "pairs": [{**obj["entries"][-1]["pairs"][0], "rprime": _cube(3, 0), "qprime": _cube(4, 0)}],
                }
            ),
            "need children",
        ),
        "q_order": (
            lambda L: {**L, 1: ShiftLevel(*(a[::-1] for a in L[1]))},
            "Z-order",
            lambda obj: obj["entries"].insert(1, obj["entries"].pop(2)),
            "Z-order",
        ),
        "shapes": (
            lambda L: {**L, 1: L[1]._replace(h_in=L[1].h_in[:, :1])},
            "shape",
            _update_pair(h_vals=[1.0, -1.0, 0.0]),
            r"entries\[1\]\.pairs\[0\]: h_vals and g_vals must each list 2 child values",
        ),
        "non_zero_sum": (
            lambda L: {**L, 1: L[1]._replace(h_in=np.vstack([[1.0, 1.0], L[1].h_in[1:]]))},
            "summing to zero",
            _update_pair(h_vals=[1.0, 1.0]),
            "summing to zero",
        ),
        "missing_m": (None, None, lambda obj: obj.pop("m"), "field 'm' must be a non-negative integer"),
        "missing_g_vals": (
            None,
            None,
            lambda obj: obj["entries"][1]["pairs"][0].pop("g_vals"),
            r"entries\[1\]\.pairs\[0\]: h_vals and g_vals must each list 2 child values",
        ),
        "pairs_not_a_list": (
            None,
            None,
            lambda obj: obj["entries"][1].update(pairs=5),
            r"entries\[1\] must be an object \{cube, pairs",
        ),
        "cube_without_coords": (
            None,
            None,
            lambda obj: obj["entries"][1].update(cube={"level": 1}),
            r"entries\[1\]\.cube: cube field 'coords'",
        ),
        "qprime_out_of_range": (
            None,
            None,
            _update_pair(qprime=_cube(2, 9)),
            r"entries\[1\]\.pairs\[0\]\.qprime: coordinate 9 outside",
        ),
    }

    @classmethod
    def faulty(cls, fault, path, cancellative=True):
        """A thunk building the faulty shift along `path`, and its message."""
        edit_levels, levels_match, edit_json, json_match = cls.FAULTS[fault]
        S = build_petermichl(GridSpec(1, 4))
        if path == "levels":
            return lambda: HaarShift(S.grid, S.m, S.n, edit_levels(S.levels), cancellative), levels_match
        obj = {**json.loads(S.to_json()), "cancellative": cancellative}
        edit_json(obj)
        return lambda: HaarShift.from_json(json.dumps(obj)), json_match

    @pytest.mark.parametrize(
        "fault,path",
        [(f, p) for f, spec in sorted(FAULTS.items()) for p in ("json", "levels") if spec[0] or p == "json"],
    )
    def test_fault_rejected(self, fault, path):
        build, match = self.faulty(fault, path)
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("path", ["levels", "json"])
    def test_non_zero_sum_rows_pass_when_not_cancellative(self, path):
        S = self.faulty("non_zero_sum", path, cancellative=False)[0]()
        assert not S.cancellative and S.levels[1].h_in[0].tolist() == [1.0, 1.0]

    def test_value_lookup(self):
        # one pair on Q = [1/2, 1): the entries view and the dense oracle read
        # its child values cell by cell, and zero outside Q
        g = GridSpec(1, 2)
        idx = np.array([[2, 3]])
        S = HaarShift(g, 0, 0, {1: ShiftLevel(idx, idx, [[0.5, -0.5]], [[2.0, -2.0]])}, True)
        Q = g.cube(1, (1,))
        assert S.entries == {Q: [(Q, Q, (0.5, -0.5), (2.0, -2.0))]}
        K = np.zeros((4, 4))
        K[2:, 2:] = [[0.5, -0.5], [-0.5, 0.5]]  # h(y) g(x) |cell| / |Q|
        assert np.array_equal(dense_shift_matrix(S), K)
        assert S.normalization_audit() == 1.0

    def test_from_json_rejects_repeated_cube(self):
        # Petermichl at N = 3 lists the cubes (0, [0]), (1, [0]), (1, [1]);
        # list the first again with one pair
        obj = json.loads(build_petermichl(GridSpec(1, 3)).to_json())
        obj["entries"].append({**obj["entries"][0], "pairs": obj["entries"][0]["pairs"][:1]})
        with pytest.raises(ValueError, match=r"entries\[3\] repeats entries\[0\]"):
            HaarShift.from_json(json.dumps(obj))


class TestPetermichl:
    def test_requires_dim_one(self):
        with pytest.raises(ValueError):
            build_petermichl(GridSpec(2, 3))

    def test_kills_constants(self):
        g = GridSpec(1, 5)
        S = build_petermichl(g)
        out = S.apply(StepFunction.constant(g, 7.0))
        assert np.abs(out.values).max() == 0.0

    def test_single_cube_locality(self):
        # keep the coefficients of one cube only: output supported there
        g = GridSpec(1, 4)
        S = build_petermichl(g)
        Q = g.cube(1, (1,))
        S1 = HaarShift(g, S.m, S.n, {1: ShiftLevel(*(a[2:4] for a in S.levels[1]))}, True)
        assert list(S1.entries) == [Q]
        f = rand_step(g, 0)
        out = S1.apply(f)
        mask = np.ones(g.cells, dtype=bool)
        mask[Q.cell_slice] = False
        assert np.abs(out.values[mask]).max() == 0.0

    def test_normalization(self):
        S = build_petermichl(GridSpec(1, 6))
        assert S.normalization_audit() == pytest.approx(1.0, abs=0)

    def test_unweighted_l2_norm_stable(self):
        # dense spectral oracle at N <= 6; recorded bound: norm is 1
        for N in (3, 4, 5, 6):
            g = GridSpec(1, N)
            S = build_petermichl(g)
            T = matrix_of(lambda v: S.apply(StepFunction(g, v)).values, g.cells)
            top = np.linalg.svd(T, compute_uv=False)[0]
            assert top == pytest.approx(1.0, abs=1e-10)
        for N in (7, 8):
            g = GridSpec(1, N)
            S = build_petermichl(g)
            one = StepFunction.constant(g, 1.0)
            from czlab.normlab import norm_p2, shift_operator

            est = norm_p2(shift_operator(S), one, one)
            assert est.lower_bound == pytest.approx(1.0, abs=1e-6)


class TestRandomShift:
    def test_deterministic_bytes(self):
        g = GridSpec(1, 4)
        a = build_random_shift(1, 2, 99, g)
        b = build_random_shift(1, 2, 99, g)
        assert a.to_json() == b.to_json()

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            build_random_shift(3, 3, 0, GridSpec(1, 4))

    def test_zero_operator_when_empty(self):
        g = GridSpec(1, 3)
        S = HaarShift(g, 1, 1, {}, True)
        f = rand_step(g, 1)
        assert np.abs(S.apply(f).values).max() == 0.0

    def test_normalization_audit_100_seeds(self):
        g = GridSpec(1, 4)
        for seed in range(100):
            S = build_random_shift(1, 1, seed, g)
            assert S.normalization_audit() <= 1.0 + 1e-12
            assert S.normalization_audit() == pytest.approx(1.0, abs=1e-9)

    def test_cancellative_kills_constants(self):
        g = GridSpec(2, 3)
        S = build_random_shift(1, 1, 5, g)
        out = S.apply(StepFunction.constant(g, 2.0))
        assert np.abs(out.values).max() < 1e-12

    def test_serialization_round_trip(self):
        g = GridSpec(1, 4)
        S = build_random_shift(2, 1, 17, g)
        S2 = HaarShift.from_json(S.to_json())
        assert S2.to_json() == S.to_json()
        f = rand_step(g, 2)
        assert np.allclose(S2.apply(f).values, S.apply(f).values, atol=0)


class TestApplyShift:
    def test_linearity(self):
        g = GridSpec(1, 4)
        S = build_random_shift(1, 1, 3, g)
        f, h = rand_step(g, 4), rand_step(g, 5)
        lhs = S.apply(StepFunction(g, 2.0 * f.values - 3.0 * h.values)).values
        rhs = 2.0 * S.apply(f).values - 3.0 * S.apply(h).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("dim,N,m,n", [(1, 3, 1, 1), (1, 4, 2, 1), (1, 4, 0, 2), (2, 2, 1, 0)])
    def test_dense_kernel_oracle(self, dim, N, m, n):
        g = GridSpec(dim, N)
        for seed in range(6):
            S = build_random_shift(m, n, seed, g)
            K = dense_shift_matrix(S)
            f = rand_step(g, 100 + seed)
            assert np.abs(S.apply(f).values - K @ f.values).max() < 1e-10

    def test_petermichl_dense_kernel(self):
        g = GridSpec(1, 4)
        S = build_petermichl(g)
        K = dense_shift_matrix(S)
        f = rand_step(g, 7)
        assert np.abs(S.apply(f).values - K @ f.values).max() < 1e-12

    def test_adjoint_is_built_once_without_a_cycle(self):
        # a transpose that referred back to its shift would keep both, and
        # their kernel plans, alive until the cyclic collector ran
        S = build_random_shift(2, 1, 5, GridSpec(1, 6))
        assert S.adjoint() is S.adjoint()
        X = np.random.default_rng(5).standard_normal((3, S.grid.cells))
        S.apply(X), S.truncation(X), S.adjoint().apply(X)
        _, adjoint = S._selected(X)
        adjoint(X, slice(None))
        refs = [weakref.ref(S), weakref.ref(S.adjoint())]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del S, adjoint
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "S",
        [
            build_random_shift(2, 1, 5, GridSpec(1, 6)),
            build_random_shift(1, 0, 6, GridSpec(2, 3), False),
            build_petermichl(GridSpec(1, 5)),
        ],
        ids=["random (2, 1)", "noncancellative d=2", "petermichl"],
    )
    def test_adjoint_shares_the_checked_rows_of_a_constructed_transpose(self, S):
        # the adjoint skips the constructor's checks, yet holds what the
        # constructor builds from the swapped rows, read-only
        T = S.adjoint()
        swapped = {k: ShiftLevel(lv.out_idx, lv.in_idx, lv.h_out, lv.h_in) for k, lv in S.levels.items()}
        built = HaarShift(S.grid, S.n, S.m, swapped, S.cancellative)
        assert (T.grid, T.m, T.n, T.cancellative) == (built.grid, built.m, built.n, built.cancellative)
        assert list(T.levels) == list(built.levels)
        for got, want in zip(T.levels.values(), built.levels.values()):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes() and not a.flags.writeable
        X = np.random.default_rng(9).standard_normal((2, S.grid.cells))
        assert T.apply(X).tobytes() == built.apply(X).tobytes()
        assert T.adjoint().apply(X).tobytes() == S.apply(X).tobytes()

    def test_grid_mismatch(self):
        S = build_petermichl(GridSpec(1, 3))
        f = StepFunction.constant(GridSpec(1, 4), 1.0)
        with pytest.raises(Exception):
            S.apply(f)

    def test_locality_outside_kappa_parent(self):
        # f supported outside Q^(kappa): the truncation is constant on Q
        g = GridSpec(1, 5)
        S = build_random_shift(2, 2, 11, g)
        kappa = S.complexity
        Q = g.cube(4, (3,))
        hull = ancestor(Q, min(kappa, Q.level))
        vals = np.random.default_rng(12).standard_normal(g.cells)
        vals[hull.cell_slice] = 0.0
        f = StepFunction(g, vals)
        out = S.truncation(f).values[Q.cell_slice]
        assert np.abs(out - out[0]).max() == 0.0
        out2 = S.apply(f).values[Q.cell_slice]
        assert np.abs(out2 - out2[0]).max() == 0.0


class TestMaximalTruncation:
    def test_dominates_full_sum(self):
        g = GridSpec(1, 5)
        S = build_random_shift(1, 1, 21, g)
        f = rand_step(g, 22)
        assert np.all(
            S.truncation(f).values >= np.abs(S.apply(f).values) - 1e-14
        )

    def test_constant_input_cancellative(self):
        g = GridSpec(1, 4)
        S = build_random_shift(1, 0, 23, g)
        out = S.truncation(StepFunction.constant(g, 5.0))
        assert np.abs(out.values).max() < 1e-12

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (2, 0)])
    def test_bruteforce_all_cutoffs(self, m, n):
        g = GridSpec(1, 3)
        for seed in range(8):
            S = build_random_shift(m, n, 31 + seed, g)
            f = rand_step(g, 41 + seed)
            assert np.abs(
                S.truncation(f).values - brute_truncation(S, f)
            ).max() < 1e-12


class TestParaproduct:
    def test_zero_coefficients(self):
        g = GridSpec(1, 3)
        P = build_paraproduct({}, g)
        assert np.abs(P.apply(rand_step(g, 1)).values).max() == 0.0

    def test_single_term_formula(self):
        g = GridSpec(1, 3)
        Q = g.cube(1, (0,))
        a = math.sqrt(Q.volume)
        P = build_paraproduct({Q: a}, g)
        f = rand_step(g, 3)
        avg = float(f.values[Q.cell_slice].mean())
        # output = a_Q * avg * h_Q with h_Q the sup-normalized pattern / sqrt|Q|
        expect = np.zeros(g.cells)
        half = cell_count(Q) // 2
        expect[Q.cell_slice][:half] = avg
        expect[Q.cell_slice][half:] = -avg
        # a_Q |Q|^(-1/2) = 1, so amplitude is exactly avg
        assert np.allclose(P.apply(f).values, expect, atol=1e-12)

    def test_coefficient_bound_enforced(self):
        g = GridSpec(1, 3)
        Q = g.cube(1, (0,))
        with pytest.raises(ValueError, match="sqrt"):
            build_paraproduct({Q: 2.0 * math.sqrt(Q.volume)}, g)

    def test_carleson_family_l2_norm(self):
        # a_Q^2 = |Q| / (level+1)^2 is summable inside every cube
        g = GridSpec(1, 6)
        coeffs = {}
        for Q in g.all_cubes():
            if Q.level < g.N:
                coeffs[Q] = math.sqrt(Q.volume) / (Q.level + 1.0)
        P = build_paraproduct(coeffs, g)
        T = matrix_of(lambda v: P.apply(StepFunction(g, v)).values, g.cells)
        top = float(np.linalg.svd(T, compute_uv=False)[0])
        assert top <= 2.5  # recorded constant for this family

    def test_dense_kernel_oracle(self):
        g = GridSpec(1, 3)
        coeffs = {Q: 0.5 * math.sqrt(Q.volume) for Q in g.all_cubes() if Q.level < g.N}
        P = build_paraproduct(coeffs, g)
        K = dense_shift_matrix(P)
        f = rand_step(g, 51)
        assert np.abs(P.apply(f).values - K @ f.values).max() < 1e-12


class TestHilbertDirect:
    def test_dim_guard(self):
        with pytest.raises(ValueError):
            hilbert_direct(StepFunction.constant(GridSpec(2, 2), 1.0))

    def test_antisymmetry_of_pairing(self):
        g = GridSpec(1, 6)
        f, h = rand_step(g, 61), rand_step(g, 62)
        vol = g.cell_volume
        lhs = float(np.dot(hilbert_direct(f).values, h.values)) * vol
        rhs = -float(np.dot(f.values, hilbert_direct(h).values)) * vol
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_even_function_gives_odd_output(self):
        g = GridSpec(1, 5)
        x = (np.arange(g.cells) + 0.5) / g.cells
        f = StepFunction(g, np.exp(-10 * (x - 0.5) ** 2))
        out = hilbert_direct(f).values
        assert np.abs(out + out[::-1]).max() < 1e-10

    def test_constant_against_log_kernel(self):
        # full-line analog: H(1)(x) = log(x / (1-x)), small near the center
        g = GridSpec(1, 8)
        out = hilbert_direct(StepFunction.constant(g, 1.0)).values
        x = (np.arange(g.cells) + 0.5) / g.cells
        expect = np.log(x / (1.0 - x))
        interior = (x > 0.1) & (x < 0.9)
        assert np.abs(out[interior] - expect[interior]).max() < 5e-3
        center = np.abs(x - 0.5) < 0.05
        assert np.abs(out[center]).max() < 0.2

    def test_truncation_and_maximal(self):
        g = GridSpec(1, 5)
        f = rand_step(g, 63)
        full = hilbert_direct(f).values
        assert np.allclose(hilbert_truncated(f, 2.0 ** -(g.N + 1)).values, full)
        hm = hilbert_maximal(f).values
        assert np.all(hm >= np.abs(full) - 1e-14)
        # brute force over the same dyadic cutoffs
        brute = np.zeros(g.cells)
        for k in range(0, g.N + 2):
            brute = np.maximum(brute, np.abs(hilbert_truncated(f, 2.0 ** -k).values))
        assert np.allclose(hm, brute)


class TestHilbertOracle:
    """The FFT kernel against direct convolution sums, one cutoff at a time,
    within 1e-13 of the reference's largest entry."""

    @staticmethod
    def assert_close(got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @staticmethod
    def rows(g):
        rng = np.random.default_rng(g.N)
        X = rng.standard_normal((4, g.cells))
        X[1] = 1.0
        X[2] = rng.random(g.cells) < 0.3
        X[3] *= 1e3
        return X

    @pytest.mark.parametrize("N", [3, 6, 10, 12])
    def test_direct_truncated_maximal(self, N):
        g = GridSpec(1, N)
        for row in self.rows(g):
            f = StepFunction(g, row)
            self.assert_close(hilbert_direct(f).values, loop_hilbert(row))
            refs = [loop_hilbert(row, 2.0**-k) for k in range(N + 2)]
            for k, ref in enumerate(refs):
                self.assert_close(hilbert_truncated(f, 2.0**-k).values, ref)
            self.assert_close(hilbert_maximal(f).values, np.abs(refs).max(axis=0))

    @pytest.mark.parametrize("N", [3, 6, 10, 12])
    def test_operator_blocks(self, N):
        g = GridSpec(1, N)
        X = self.rows(g)
        op = hilbert_operator(g)
        out = op.apply(X)
        assert out.shape == X.shape
        assert op.adjoint(X).tobytes() == (-out).tobytes()
        for row, got in zip(X, out):
            self.assert_close(got, loop_hilbert(row))
            # a block row has the bytes of the one-row calls
            assert got.tobytes() == op.apply(row).tobytes()
            assert got.tobytes() == hilbert_direct(StepFunction(g, row)).values.tobytes()

    def test_operator_rejects_wrong_length(self):
        op = hilbert_operator(GridSpec(1, 3))
        for bad in (np.ones(7), np.ones((2, 9))):
            with pytest.raises(ValueError):
                op.apply(bad)
        with pytest.raises(ValueError):
            hilbert_operator(GridSpec(2, 2))


class TestHilbertAverage:
    def grid(self):
        return GridSpec(1, 7)

    def indicator(self, grid, lo, hi):
        v = np.zeros(grid.cells)
        v[int(lo * grid.cells) : int(hi * grid.cells)] = 1.0
        return StepFunction(grid, v)

    def test_overlap_rejected(self):
        g = self.grid()
        f = self.indicator(g, 0.0, 0.25)
        ens = GridEnsemble.random_translations(g, 4, 0)
        with pytest.raises(ValueError, match="verlap"):
            hilbert_average(ens, f, f)

    def test_single_grid_is_plain_pairing(self):
        g = self.grid()
        f = self.indicator(g, 0.125, 0.25)
        h = self.indicator(g, 0.5, 0.625)
        ens = GridEnsemble(GridSpec(1, g.N), [0], (1.0,))
        res = hilbert_average(ens, f, h)
        from czlab.shifts import build_petermichl as bp

        S = bp(GridSpec(1, g.N))
        direct = float(np.dot(S.apply(f).values, h.values) * g.cell_volume)
        assert res.pairing == pytest.approx(direct, rel=1e-12)

    def test_monte_carlo_stability_across_reruns(self):
        g = self.grid()
        f = self.indicator(g, 1 / 16, 3 / 16)
        h = self.indicator(g, 5 / 16, 7 / 16)
        ratios = []
        for seed in range(5):
            ens = GridEnsemble.random_translations(g, 2000, seed)
            ratios.append(hilbert_average(ens, f, h).constant)
        mean = float(np.mean(ratios))
        assert all(abs(r - mean) / abs(mean) < 0.05 for r in ratios)

    def test_matches_loop_oracle_byte_for_byte(self):
        # indicator pairings are exact dyadic rationals, so both paths agree
        # exactly; the ensembles repeat offsets and weigh them unevenly
        g = self.grid()
        rng = np.random.default_rng(17)
        pairs = [
            (1 / 16, 3 / 16, 5 / 16, 7 / 16),
            (0.5, 0.75, 0.0, 0.375),
            (0.25, 0.3125, 0.875, 1.0),
        ]
        for seed, (f_lo, f_hi, g_lo, g_hi) in enumerate(pairs):
            f, h = self.indicator(g, f_lo, f_hi), self.indicator(g, g_lo, g_hi)
            pool = rng.integers(0, g.cells, size=12)
            offs = rng.choice(pool, size=40)
            coeffs = rng.standard_normal(40) if seed else rng.uniform(0.1, 3.0, 40)
            ens = GridEnsemble(g, offs, tuple(coeffs))
            pairs = zip(offs.tolist(), ens.coefficients)
            assert hilbert_average(ens, f, h).pairing == loop_hilbert_average(pairs, f, h)

    @pytest.mark.parametrize("N", [10, 12])
    def test_average_lies_within_its_sampling_error(self, N):
        # 10^4 uniform offsets against the mean over all of them, in standard
        # errors of a 10^4-sample mean: |z| <= 2.17 on these pairs
        g = GridSpec(1, N)
        count = 10_000
        ens = GridEnsemble.random_translations(g, count, 424_242)
        for f_lo, f_hi, g_lo, g_hi in CRITERION_6_PAIRS:
            f, h = self.indicator(g, f_lo, f_hi), self.indicator(g, g_lo, g_hi)
            res = hilbert_average(ens, f, h)
            se = _offset_pairings(g, f.values[None], h.values[None])[0].std() / math.sqrt(count)
            assert abs(res.pairing - res.exact_pairing) <= 4 * se

    def test_exact_pairing_is_the_all_offsets_average(self):
        g = self.grid()
        f = self.indicator(g, 1 / 16, 3 / 16)
        h = self.indicator(g, 0.5, 0.625)
        order = np.random.default_rng(5).permutation(g.cells)
        ens = GridEnsemble(g, order, (1.0,) * g.cells)
        res = hilbert_average(ens, f, h)
        assert res.exact_pairing == loop_hilbert_average(zip(order.tolist(), ens.coefficients), f, h)
        assert res.pairing == res.exact_pairing

    def test_offsets_are_stored_read_only_integers(self):
        g = self.grid()
        ens = GridEnsemble.random_translations(g, 300, 9)
        want = np.random.default_rng(9).integers(0, g.cells, size=300)
        assert ens.grid == g
        assert ens.offsets.dtype == np.int64 and np.array_equal(ens.offsets, want)
        assert not ens.offsets.flags.writeable
        given = np.array([32, 0])
        ens = GridEnsemble(g, given, (1.0, 2.0))
        given[0] = 5  # the ensemble keeps its own copy
        assert ens.offsets.tolist() == [32, 0]

    def test_ensemble_normalization(self):
        g = GridSpec(1, 4)
        ens = GridEnsemble(g, [3, 3], (2.0, 2.0))
        assert ens.coefficients.dtype == np.float64 and not ens.coefficients.flags.writeable
        assert ens.coefficients.tobytes() == np.array([0.5, 0.5]).tobytes()
        with pytest.raises(ValueError):
            GridEnsemble(g, [0], (0.0,))

    @pytest.mark.parametrize(
        "frame,offsets,coefficients,match",
        [
            (GridSpec(1, 4), [0.0, 2.0], (1.0, 1.0), "integer"),
            (GridSpec(1, 4), [True], (1.0,), "integer"),
            (GridSpec(1, 4), [[0, 1]], (1.0, 1.0), "integer"),
            (GridSpec(1, 4), [0, 16], (1.0, 1.0), "lie in"),
            (GridSpec(1, 4), [-1], (1.0,), "lie in"),
            (GridSpec(1, 4), [0, 1], (1.0,), "one coefficient per offset"),
            (GridSpec(1, 4), [], (), "one coefficient per offset"),
            (GridSpec(1, 4), [0, 1], (0.0, -0.0), "vanish"),
            (GridSpec(2, 2), [0], (1.0,), "d = 1"),
            (GridSpec(1, 4, (0.25,)), [0], (1.0,), "untranslated"),
            (GridSpec(1, 4), [0, 1], (math.nan, 1.0), r"coefficients\[0\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], (1.0, math.inf), r"coefficients\[1\] must be a finite number"),
            (GridSpec(1, 4), [0, 1, 2], (1.0, 2.0, -np.inf), r"coefficients\[2\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], (np.float64(1.0), np.float64("nan")), r"coefficients\[1\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], (True, 1.0), r"coefficients\[0\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], (1.0, np.True_), r"coefficients\[1\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], (1.0, "2"), r"coefficients\[1\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], (None, 1.0), r"coefficients\[0\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], (1, 10**400), r"coefficients\[1\] must be a finite number"),
            (GridSpec(1, 4), [0, 1, 2], np.array([1.0, 2.0, math.nan]), r"coefficients\[2\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], np.array([-np.inf, 1.0]), r"coefficients\[0\] must be a finite number"),
            (GridSpec(1, 4), [0, 1], np.array([True, False]), r"coefficients\[0\] must be a finite number"),
        ],
    )
    def test_rejected(self, frame, offsets, coefficients, match):
        with pytest.raises(ValueError, match=match):
            GridEnsemble(frame, offsets, coefficients)

    def test_normalization_keeps_its_bits(self):
        # |c| summed in order from the first, then each c divided by the sum
        rng = np.random.default_rng(23)
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, 1000)
        given = values.copy()
        for coefficients in (given, tuple(values.tolist()), tuple(values), (3, -1.5, 2, np.int64(7))):
            total = 0.0
            for c in coefficients:
                total += abs(c)
            want = np.array([c / total for c in coefficients])
            ens = GridEnsemble(GridSpec(1, 10), np.arange(len(coefficients)), coefficients)
            assert ens.coefficients.dtype == np.float64 and not ens.coefficients.flags.writeable
            assert ens.coefficients.tobytes() == want.tobytes()
        assert given.tobytes() == values.tobytes() and given.flags.writeable  # the caller's array is kept


def signed_zero_rows(g, P, seed):
    """P rows of standard normals with about half the cells zeroed, a third
    of those -0.0, whose signs the sums must not let through."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((P, g.cells)) * rng.integers(0, 2, (P, g.cells))
    rows[(rows == 0.0) & (rng.random((P, g.cells)) < 1 / 3)] = -0.0
    return rows


class TestOffsetPairings:
    """All-offset pairings against rolling, applying and pairing per offset."""

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 6])
    def test_matches_per_offset_apply(self, N, adjoint):
        # <S* f, h> = <f, S h>: the adjoint's pairing is the pass on (h, f)
        g = GridSpec(1, N)
        S = build_petermichl(g).adjoint() if adjoint else build_petermichl(g)
        rng = np.random.default_rng(N)
        offsets = range(g.cells)

        def pairings(f, h):
            return _offset_pairings(g, *((h, f) if adjoint else (f, h)))

        # indicators: every term is a dyadic rational, so equality is exact
        F, H = (rng.integers(0, 2, (3, g.cells)).astype(float) for _ in range(2))
        for f, h, got in zip(F, H, pairings(F, H)):
            assert got.tolist() == [loop_offset_pairing(S, f, h, o) for o in offsets]
        F, H = (rng.standard_normal((3, g.cells)) for _ in range(2))
        for f, h, got in zip(F, H, pairings(F, H)):
            want = np.array([loop_offset_pairing(S, f, h, o) for o in offsets])
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("N", range(0, 14))
    def test_petermichl_matches_gather_oracle_bit_for_bit(self, N):
        # the direct level loop against the built shift's rows, gathered
        g = GridSpec(1, N)
        S = build_petermichl(g)
        F, H = signed_zero_rows(g, 3, 100 + N), signed_zero_rows(g, 3, 200 + N)
        for f, h, got in zip(F, H, _offset_pairings(g, F, H)):
            assert got.tobytes() == gather_offset_pairings(S, f, h).tobytes()

    @pytest.mark.parametrize("N", range(0, 14))
    def test_closed_form_petermichl_plan_is_the_built_one(self, N):
        # what the level loop reads on every cube of level L, as cyclic cell
        # offsets from the cube's start and child values: R' = Q's children
        # (0, half) with (1, -1) in both pairs, Q' the left child's children
        # (0, q) with (1, -1) or the right child's (2q, 3q) with (-1, 1)
        g = GridSpec(1, N)
        S = build_petermichl(g)
        M = g.cells
        assert (S.m, S.n) == (1, 0) and sorted(S.levels) == list(range(N - 1))
        for L, lv in S.levels.items():
            half, q = M >> (L + 1), M >> (L + 2)
            cube = np.arange(len(lv.h_in))[:, None] // 2
            rows = np.hstack([(lv.in_idx - (cube << 1)) * half, (lv.out_idx - (cube << 2)) * q, lv.h_in, lv.h_out])
            want = [[0, half, 0, q, 1, -1, 1, -1], [0, half, 2 * q, 3 * q, 1, -1, -1, 1]]
            assert rows.tolist() == want * (1 << L)

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 6, 12])
    def test_block_rows_have_their_one_row_bytes(self, N):
        g = GridSpec(1, N)
        F, H = signed_zero_rows(g, 5, N), signed_zero_rows(g, 5, 50 + N)
        block = _offset_pairings(g, F, H)
        assert block.shape == (5, g.cells)
        for i in range(5):
            assert block[i].tobytes() == _offset_pairings(g, F[i : i + 1], H[i : i + 1])[0].tobytes()

    @pytest.mark.parametrize("N", [2, 3, 6, 12])
    def test_block_averages_are_the_per_pair_ones(self, N, monkeypatch):
        # separated supports with signed zeros; one chunk of 6 rows, then a
        # row per chunk: each result is hilbert_average's for its pair
        g = GridSpec(1, N)
        M = g.cells
        F, H = signed_zero_rows(g, 6, N), signed_zero_rows(g, 6, 70 + N)
        F[:, M // 2 :] = 0.0
        H[:, : M // 2] = -0.0
        F[:, M // 2 - 1] = H[:, M - 1] = 0.0  # a cell apart on the torus
        F[:, 0] = H[:, M // 2] = 1.0
        ens = GridEnsemble.random_translations(g, 50, N)

        def bits(results):
            return np.array([dataclasses.astuple(r) for r in results]).tobytes()

        want = bits(hilbert_average(ens, StepFunction(g, f), StepFunction(g, h)) for f, h in zip(F, H))
        assert bits(_hilbert_averages(ens, zip(F, H))) == want
        monkeypatch.setattr(shifts, "_BLOCK_BYTES", 1)
        assert bits(_hilbert_averages(ens, zip(F, H))) == want

    def test_window_sums_are_streamed(self):
        # at N = 16 a one-row pass holds at most 16 cell-length arrays at once
        g = GridSpec(1, 16)
        rng = np.random.default_rng(16)
        F, H = (rng.standard_normal((1, g.cells)) for _ in range(2))
        tracemalloc.start()
        try:
            _offset_pairings(g, F, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * g.cells * 8


class TestKernelSupBound:
    def test_per_cube_kernel_below_one(self):
        # e.NOR: the per-cube kernel of any constructed shift has sup <= 1;
        # equivalently the dense matrix entries are bounded by vol / |Q| sums
        g = GridSpec(1, 3)
        S = build_random_shift(1, 1, 71, g)
        for Q, pairs in S.entries.items():
            for _, _, h_vals, g_vals in pairs:
                assert max(map(abs, h_vals)) * max(map(abs, g_vals)) <= 1.0 + 1e-12

    def test_complexity_uniform_l2(self):
        # cancellative random shifts of growing complexity: one recorded bound
        worst = 0.0
        g = GridSpec(1, 8)
        for kappa in (1, 2, 3, 4):
            S = build_random_shift(kappa, kappa, 123 + kappa, g)
            T = matrix_of(lambda v: S.apply(StepFunction(g, v)).values, g.cells)
            worst = max(worst, float(np.linalg.svd(T, compute_uv=False)[0]))
        assert worst <= 4.0  # recorded constant; independence from complexity


def _assert_matches_loop_version(S, ref, f):
    assert S.to_json() == ref.to_json()
    assert np.array_equal(S.apply(f).values, ref.apply(f).values)
    assert np.array_equal(S.truncation(f).values, ref.truncation(f).values)
    assert S.adjoint().adjoint().to_json() == S.to_json()
    assert np.array_equal(dense_shift_matrix(S.adjoint()), dense_shift_matrix(S).T)
    for lv in S.levels.values():
        for arr in lv:
            with pytest.raises(ValueError):
                arr[0] = arr[0]


class TestBulkBuilders:
    """The per-level builders against pair-by-pair loop constructions."""

    @pytest.mark.parametrize(
        "d,N,m,n",
        [
            (1, 4, 1, 1),
            (1, 4, 2, 1),
            (1, 5, 0, 3),
            (1, 4, 2, 0),
            (2, 2, 1, 1),
            (2, 3, 0, 1),
            (2, 3, 1, 0),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_shift(self, d, N, m, n, seed):
        g = GridSpec(d, N)
        cancellative = seed != 3
        S = build_random_shift(m, n, seed, g, cancellative)
        ref = loop_random_shift(m, n, seed, g, cancellative)
        _assert_matches_loop_version(S, ref, rand_step(g, 100 + seed))

    @pytest.mark.parametrize("d,N,m,n", [(1, 9, 2, 1), (2, 5, 1, 1), (3, 3, 1, 0)])
    @pytest.mark.parametrize("cancellative", [True, False])
    def test_random_shift_values_match_axis_reductions(self, d, N, m, n, cancellative):
        g = GridSpec(d, N)
        S = build_random_shift(m, n, 7, g, cancellative)
        want = axis_reduced_random_shift_values(m, n, 7, g, cancellative)
        assert sorted(S.levels) == sorted(want)
        for level, (h_in, h_out) in want.items():
            assert S.levels[level].h_in.tobytes() == np.ascontiguousarray(h_in).tobytes()
            assert S.levels[level].h_out.tobytes() == np.ascontiguousarray(h_out).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_sums_match_axis_reductions_bit_for_bit(self, d):
        vals = np.random.default_rng(d).standard_normal((4000, 2, 1 << d))
        vals[0], vals[1], vals[2, 0] = 0.0, -0.0, 1e300  # signed zero sums, a huge row
        vals[2, 1, ::2] = -0.0
        want = axis_reduced_zero_sum(vals)
        assert _exact_zero_sum(vals).tobytes() == want.tobytes()

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_petermichl(self, N):
        g = GridSpec(1, N)
        _assert_matches_loop_version(build_petermichl(g), loop_petermichl(g), rand_step(g, N))


class TestParaproductSerialization:
    def test_round_trip(self):
        g = GridSpec(1, 3)
        coeffs = {Q: 0.3 * math.sqrt(Q.volume) for Q in g.all_cubes() if Q.level < g.N}
        P = build_paraproduct(coeffs, g)
        P2 = HaarShift.from_json(P.to_json())
        f = rand_step(g, 91)
        assert np.array_equal(P2.apply(f).values, P.apply(f).values)
        assert P2.to_json() == P.to_json()


class TestNonFiniteCoefficients:
    """A shift with a NaN or infinite child value is refused at construction."""

    @pytest.mark.parametrize("key", ["h_vals", "g_vals"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_json_rejected(self, key, bad):
        obj = json.loads(build_random_shift(1, 0, 3, GridSpec(1, 3)).to_json())
        obj["entries"][0]["pairs"][0][key] = [bad, bad]
        with pytest.raises(ValueError, match="finite"):
            HaarShift.from_json(json.dumps(obj))

    def test_paraproduct_rejected(self):
        g = GridSpec(1, 3)
        with pytest.raises(ValueError, match="finite"):
            build_paraproduct({g.cube(1, (1,)): math.nan}, g)

    def test_levels_rejected(self):
        S = build_random_shift(1, 1, 5, GridSpec(2, 3))
        level, lv = next(iter(S.levels.items()))
        h_out = lv.h_out.copy()
        h_out[0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            HaarShift(S.grid, S.m, S.n, {level: lv._replace(h_out=h_out)}, True)
