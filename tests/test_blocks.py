"""Block evaluation against the one-vector loops kept in oracles.py.

Every row of a block applied by the fused shift kernel, and every value,
witness and evaluation count of the block-evaluated norm searches, must equal
the per-vector computation bit for bit (signs of zeros included).  The p = 2
spectral solve is checked against a dense SVD instead.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from czlab import normlab, shifts
from czlab.dyadics import GridSpec, StepFunction
from czlab.characteristics import (
    ainfty_characteristic,
    ap_characteristic,
    dual_weight,
    joint_ap,
)
from czlab.families import cascade_weight, two_value_weight
from czlab.normlab import (
    LinearOperator,
    NonConvergenceError,
    hilbert_operator,
    norm_lp_lower,
    norm_p2,
    positive_operator,
    shift_operator,
    truncation_operator,
    weak_norm_estimate,
)
from czlab.positive import CubeFamily, TauCoefficients, apply_positive
from czlab.shifts import (
    HaarShift,
    ShiftLevel,
    _toroidal_gap_cells,
    build_paraproduct,
    build_petermichl,
    build_random_shift,
    hilbert_direct,
)

import oracles
from oracles import (
    brute_toroidal_gap,
    loop_apply,
    loop_lp_norm,
    loop_search,
    loop_selected_adjoint,
    loop_selection,
    loop_truncation,
    loop_weak_functional,
    matrix_of,
    weighted_svd_norm,
)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


SHIFT_KINDS = ("random", "noncancellative", "petermichl", "paraproduct", "json")


def make_shift(kind: str, d: int, N: int, m: int, n: int, seed: int) -> HaarShift:
    if kind == "petermichl":
        return build_petermichl(GridSpec(1, N))
    g = GridSpec(d, N)
    if kind == "paraproduct":
        rng = np.random.default_rng(seed)
        coeffs = {
            Q: float(rng.uniform(-1.0, 1.0)) * math.sqrt(Q.volume)
            for Q in g.all_cubes()
            if Q.level < N and rng.random() < 0.5
        }
        return build_paraproduct(coeffs, g)
    S = build_random_shift(m, n, seed, g, kind != "noncancellative")
    return HaarShift.from_json(S.to_json()) if kind == "json" else S


@st.composite
def shift_cases(draw):
    kind = draw(st.sampled_from(SHIFT_KINDS))
    d = 1 if kind == "petermichl" else draw(st.sampled_from([1, 2]))
    N = draw(st.integers(1, 7 if d == 1 else 4))
    m = draw(st.integers(0, N))
    n = draw(st.integers(0, N - m))
    S = make_shift(kind, d, N, m, n, draw(st.integers(0, 2**16)))
    K = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.standard_normal((K, S.grid.cells)) * 10.0 ** rng.integers(-3, 4, (K, 1))
    # exact zeros of both signs, and a row of constants
    X[rng.random(X.shape) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.2] = -0.0
    if K > 1:
        X[1] = 1.0
    if draw(st.booleans()):  # sparse rows: pairs that read only the zeroed runs are skipped
        lo, hi = np.sort(rng.integers(0, S.grid.cells + 1, 2))
        X[:, :lo] = 0.0
        X[:, hi:] = -0.0
    return S, X


class TestBlockKernel:
    @settings(max_examples=120, deadline=None)
    @given(shift_cases())
    def test_block_rows_match_loop_kernel(self, case):
        S, X = case
        A, T, B = S.apply(X), S.truncation(X), S.adjoint().apply(X)
        assert A.shape == T.shape == B.shape == X.shape
        for i, x in enumerate(X):
            assert bits(A[i]) == bits(loop_apply(S, x))
            assert bits(T[i]) == bits(loop_truncation(S, x))
            assert bits(B[i]) == bits(loop_apply(S.adjoint(), x))

    @settings(max_examples=40, deadline=None)
    @given(shift_cases())
    def test_one_vector_is_the_one_row_block(self, case):
        S, X = case
        f = StepFunction(S.grid, X[0])
        for method in (S.apply, S.truncation):
            out = method(f)
            assert isinstance(out, StepFunction) and out.grid == S.grid
            assert bits(out.values) == bits(method(X[0])) == bits(method(X[:1])[0])
            assert method(X[0]).shape == (S.grid.cells,)

    @pytest.mark.parametrize(
        "kind,d,N,m,n",
        [
            ("random", 1, 6, 2, 0),
            ("random", 1, 6, 0, 3),
            ("noncancellative", 1, 5, 1, 2),
            ("json", 1, 5, 3, 1),
            ("random", 2, 3, 1, 0),
            ("noncancellative", 2, 3, 0, 1),
            ("json", 2, 3, 1, 1),
            ("paraproduct", 1, 5, 0, 0),
            ("paraproduct", 2, 3, 0, 0),
            ("petermichl", 1, 6, 1, 0),
            ("random", 3, 2, 1, 0),
            ("noncancellative", 3, 2, 0, 1),
        ],
    )
    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_listed_shapes_match_loop_kernel(self, kind, d, N, m, n, K):
        S = make_shift(kind, d, N, m, n, seed=K)
        X = np.random.default_rng(K).standard_normal((K, S.grid.cells))
        X[:, ::3] = -0.0
        for method, loop in ((S.apply, loop_apply), (S.truncation, loop_truncation)):
            out = method(X)
            for i, x in enumerate(X):
                assert bits(out[i]) == bits(loop(S, x))

    def test_chunked_block_matches_rows(self, monkeypatch):
        S = build_random_shift(2, 1, 4, GridSpec(1, 7))
        X = np.random.default_rng(0).standard_normal((5, S.grid.cells))
        # two rows per chunk (integral and slot terms, 2 x 8 x gather.size
        # bytes a row): five rows take three chunks
        monkeypatch.setattr(shifts, "_BLOCK_BYTES", 32 * S._plan.gather.size)
        for method, loop in ((S.apply, loop_apply), (S.truncation, loop_truncation)):
            out = method(X)
            for i, x in enumerate(X):
                assert bits(out[i]) == bits(loop(S, x))

    def test_chunked_sparse_block_matches_rows(self, monkeypatch):
        S = build_random_shift(2, 1, 4, GridSpec(1, 7))
        X = np.vstack([cube_indicators(S.grid, 5)[:6], cube_indicators(S.grid, 2)[1:3]])
        # the cap sizes chunks from the live pairs' integral terms and all
        # pairs' slot terms: one row, then a few
        for cap in (1, 32 * S._plan.gather.size):
            monkeypatch.setattr(shifts, "_BLOCK_BYTES", cap)
            assert_rows_match_loops(S, X)

    @settings(max_examples=80, deadline=None)
    @given(shift_cases())
    def test_selection_rows_match_loop_kernel(self, case):
        S, X = case
        U = X[::-1] * 3.0
        out, adjoint = S._selected(X)
        Z = adjoint(U, slice(None))
        for i, x in enumerate(X):
            want, level, sign = loop_selection(S, x)
            assert bits(out[i]) == bits(want) == bits(loop_truncation(S, x))
            assert bits(Z[i]) == bits(loop_selected_adjoint(S, level, sign, U[i]))
        if len(X) > 1:  # a subset of rows pairs with those rows' maps
            assert bits(adjoint(U[1:], np.arange(1, len(X)))) == bits(Z[1:])

    @pytest.mark.parametrize(
        "kind,d,N,m,n",
        [
            ("random", 1, 6, 2, 0),
            ("random", 1, 6, 0, 3),
            ("noncancellative", 1, 5, 1, 2),
            ("random", 2, 3, 1, 0),
            ("noncancellative", 2, 3, 0, 1),
            ("json", 2, 3, 1, 1),
            ("paraproduct", 1, 5, 0, 0),
            ("paraproduct", 2, 3, 0, 0),
            ("petermichl", 1, 6, 1, 0),
            ("random", 1, 4, 4, 0),  # no level has room: the empty shift
        ],
    )
    def test_selected_adjoint_is_the_dense_transpose(self, kind, d, N, m, n):
        S = make_shift(kind, d, N, m, n, seed=5)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, S.grid.cells))
        X[:, ::3] = -0.0
        X[:, 1::5] = 0.0
        X[3] = -0.0
        U = rng.standard_normal((4, S.grid.cells))
        U[:, 1::4] = -0.0
        out, adjoint = S._selected(X)
        Z = adjoint(U, slice(None))
        if not S.levels:
            assert bits(out) == bits(Z) == bits(np.zeros(X.shape))
            return
        _, level, sign = S._plan.run(X, True, select=True)
        G = rng.standard_normal(X.shape)
        trunc = S.truncation(G)
        for i in range(len(X)):
            L = oracles.dense_selected_map(S, level[i], sign[i])
            tol = 1e-12 * max(1.0, np.abs(out[i]).max(), np.abs(Z[i]).max())
            assert np.abs(L @ X[i] - out[i]).max() <= tol  # L f = truncation(f)
            assert np.all(np.abs(L @ G[i]) <= trunc[i] * (1 + 1e-12) + 1e-12)
            assert np.abs(L.T @ U[i] - Z[i]).max() <= tol

    def test_empty_shift_gives_zeros(self):
        S = build_random_shift(4, 0, 1, GridSpec(1, 4))  # no level has room
        X = np.ones((2, 16))
        assert bits(S.apply(X)) == bits(np.zeros((2, 16)))
        assert bits(S.truncation(X)) == bits(np.zeros((2, 16)))

    def test_wrong_shape_rejected(self):
        S = build_petermichl(GridSpec(1, 3))
        for bad in (np.ones(7), np.ones((2, 9)), np.ones((2, 2, 8))):
            with pytest.raises(ValueError):
                S.apply(bad)
        with pytest.raises(ValueError):
            S.truncation(StepFunction.constant(GridSpec(1, 4), 1.0))


def cube_indicators(grid: GridSpec, level: int) -> np.ndarray:
    """The indicator of every cube of `level`, one row per cube in Z-order."""
    return np.repeat(np.eye(1 << (grid.d * level)), grid.cells >> (grid.d * level), axis=1)


def assert_rows_match_loops(S: HaarShift, X: np.ndarray):
    """apply, truncation, _selected and its adjoint at U = 3 X reversed, row
    by row against the loop kernels, bit for bit."""
    A, T = S.apply(X), S.truncation(X)
    U = X[::-1] * 3.0
    out, adjoint = S._selected(X)
    Z = adjoint(U, slice(None))
    for i, x in enumerate(X):
        want, level, sign = loop_selection(S, x)
        assert bits(A[i]) == bits(loop_apply(S, x))
        assert bits(T[i]) == bits(out[i]) == bits(want) == bits(loop_truncation(S, x))
        assert bits(Z[i]) == bits(loop_selected_adjoint(S, level, sign, U[i]))


class TestPrunedKernel:
    """Blocks whose rows leave most Haar pairs unread: cube indicators and
    rows with zero runs, through the kernel that skips those pairs."""

    CASES = [
        ("random", 1, 6, 2, 0),
        ("random", 1, 6, 0, 3),
        ("noncancellative", 1, 5, 1, 2),
        ("random", 2, 3, 1, 0),
        ("noncancellative", 2, 3, 0, 1),
        ("paraproduct", 1, 5, 0, 0),
        ("paraproduct", 2, 3, 0, 0),
        ("petermichl", 1, 6, 1, 0),
    ]

    @staticmethod
    def shift(kind, d, N, m, n, adjoint):
        S = make_shift(kind, d, N, m, n, seed=11)
        return S.adjoint() if adjoint else S

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind,d,N,m,n", CASES)
    def test_indicator_blocks_of_every_level(self, kind, d, N, m, n, adjoint):
        S = self.shift(kind, d, N, m, n, adjoint)
        for level in range(N + 1):
            assert_rows_match_loops(S, cube_indicators(S.grid, level))

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind,d,N,m,n", CASES)
    def test_mixed_blocks(self, kind, d, N, m, n, adjoint):
        S = self.shift(kind, d, N, m, n, adjoint)
        g, rng = S.grid, np.random.default_rng(12)
        dense = rng.standard_normal(g.cells)
        indicators = [cube_indicators(g, level)[-1] for level in range(N + 1)]
        assert_rows_match_loops(S, np.vstack([dense] + indicators))
        runs = rng.standard_normal((5, g.cells))
        runs[0, : g.cells // 2] = 0.0
        runs[1, g.cells // 4 :] = -0.0
        runs[2, ::3] = -0.0
        runs[3] = -0.0
        runs[4] = 0.0
        assert_rows_match_loops(S, runs)
        assert_rows_match_loops(S, runs[3:])  # no pair is read at all


def gapped_json_shift() -> HaarShift:
    """A random (2, 1) shift read back from JSON without its level-1 cubes,
    with one pair listed twice more, its output values negated and then
    scaled by 1e-20: the three terms of a bin then sum to nonzero in pair
    order (a - a + 1e-20 a) and to zero in reverse."""
    obj = json.loads(build_random_shift(2, 1, 5, GridSpec(1, 6)).to_json())
    obj["entries"] = [item for item in obj["entries"] if item["cube"]["level"] != 1]
    pairs = obj["entries"][0]["pairs"]
    pairs += [{**pairs[1], "g_vals": [s * v for v in pairs[1]["g_vals"]]} for s in (-1.0, 1e-20)]
    return HaarShift.from_json(json.dumps(obj))


def json_shift_without(S: HaarShift, drop) -> HaarShift:
    """S read back from JSON without the cubes Q (as {level, coords}) for
    which drop(Q) holds."""
    obj = json.loads(S.to_json())
    obj["entries"] = [item for item in obj["entries"] if not drop(item["cube"])]
    return HaarShift.from_json(json.dumps(obj))


def skipping_json_shift() -> HaarShift:
    """A random (1, 1) shift without every other cube of levels 1 and 2
    (those of odd Z-index): an indicator under a dropped cube reads no pair
    at that level, so its touched cubes skip an output level."""
    S = build_random_shift(1, 1, 9, GridSpec(1, 6))
    S = json_shift_without(S, lambda Q: Q["level"] in (1, 2) and Q["coords"][0] % 2 == 1)
    assert [len(S.levels[k].h_in) for k in (1, 2)] == [4, 8]  # two pairs per cube kept
    return S


def level_gap_json_shift() -> HaarShift:
    """A random (1, 1) shift without its level-2 cubes: Q's ancestor at
    shift level 3 sits two levels into the one at shift level 1."""
    S = json_shift_without(build_random_shift(1, 1, 10, GridSpec(1, 7)), lambda Q: Q["level"] == 2)
    assert list(S.levels) == [0, 1, 3, 4, 5]
    return S


def repeated_pair_shift() -> HaarShift:
    """One (0, 0) pair on the root listed three times, with output values
    a, -a and 1e-20 a: every indicator's image is 1e-20 a when the terms
    are summed in pair order, and 0 in reverse."""
    idx = np.tile([0, 1], (3, 1))
    h_out = np.array([[0.5, -0.5], [-0.5, 0.5], [0.5e-20, -0.5e-20]])
    S = HaarShift(GridSpec(1, 2), 0, 0, {0: ShiftLevel(idx, idx, np.tile([1.0, -1.0], (3, 1)), h_out)}, True)
    assert S.truncation(np.eye(4)).all()
    return S


def crowded_json_shift() -> HaarShift:
    """A random (0, 2) shift read back from JSON with one pair per cube Q,
    except the last cube of level 2, which keeps its four pairs and lists
    them five more times, output values scaled by -1, 0.5, -0.25, 1e-20
    and 0.75: each of its output cubes carries 24 terms (sums that depend
    on their order), every other output cube one, so the slot tables rank
    the bins out of bin order."""
    obj = json.loads(build_random_shift(0, 2, 13, GridSpec(1, 6)).to_json())
    for item in obj["entries"]:
        pairs = item["pairs"]
        if item["cube"] == {"level": 2, "coords": [3]}:
            pairs += [{**rec, "g_vals": [s * v for v in rec["g_vals"]]} for s in (-1.0, 0.5, -0.25, 1e-20, 0.75) for rec in pairs[:4]]
        else:
            del pairs[1:]
    return HaarShift.from_json(json.dumps(obj))


# Shifts the sparse cube scorer takes, beyond TestPrunedKernel.CASES.
SCORED_SHIFTS = {
    "random (1, 1)": lambda: build_random_shift(1, 1, 55, GridSpec(1, 6)),
    "random (2, 2)": lambda: build_random_shift(2, 2, 60, GridSpec(1, 6)),
    "random (3, 3)": lambda: build_random_shift(3, 3, 65, GridSpec(1, 7)),
    "random (2, 1)": lambda: build_random_shift(2, 1, 59, GridSpec(1, 6)),
    "json skip": skipping_json_shift,
    "json skip adjoint": lambda: skipping_json_shift().adjoint(),
    "json level gap": level_gap_json_shift,
    "repeated pair": repeated_pair_shift,
}


def truncation_loops(S: HaarShift):
    """loop_search's (apply1, linear, linearise1) for S's maximal truncation."""

    def selected(v):
        out, level, sign = loop_selection(S, v)
        return out, lambda u: loop_selected_adjoint(S, level, sign, u)

    linear = (lambda v: loop_apply(S, v), lambda v: loop_apply(S.adjoint(), v))
    return (lambda v: loop_truncation(S, v)), linear, selected


class TestCubePath:
    """The kernel's sparse cube scorer (_KernelPlan.cube_weak, read through
    normlab._cube_scores), which scores cube indicators from their
    ancestors' coefficient pairs alone, against the dense route (op.apply
    on boolean blocks, then _weak_functionals); and the weak search's
    choice between the two."""

    @staticmethod
    def assert_scores_match_dense_route(S: HaarShift) -> bool:
        """Every level's indicator scores, under w = 1 and w = 0.3 and at
        p = 1, 1.01, 1.5 and 2, against the dense route bit for bit; False
        when the scorer declines the shift."""
        g = S.grid
        op, one = truncation_operator(S), StepFunction.constant(g, 1.0)
        if normlab._cube_scores(op, one, one, 1.5) is None:
            return False
        for w in (one, StepFunction.constant(g, 0.3)):
            for p in (1.0, 1.01, 1.5, 2.0):
                score = normlab._cube_scores(op, w, one, p)
                root = normlab._mass_roots(w.values, g, p)
                for level in range(g.N + 1):
                    block = cube_indicators(g, level).astype(bool)
                    out = op.apply(block)
                    weak = normlab._weak_functionals(out, w, p)
                    assert bits(S._plan.cube_weak(level, root)) == bits(weak)
                    assert score(level) == normlab._ratios(out, block, w, one, p, normlab._weak_functionals)
        return True

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind,d,N,m,n", TestPrunedKernel.CASES)
    def test_cube_images_of_every_level(self, kind, d, N, m, n, adjoint):
        S = TestPrunedKernel.shift(kind, d, N, m, n, adjoint)
        taken = self.assert_scores_match_dense_route(S)
        # exactly cancelling input Haar functions: d = 1 random and
        # Petermichl shifts, and the paraproduct's adjoint in any d
        if (d == 1 and kind in ("random", "petermichl")) or (kind == "paraproduct" and adjoint):
            assert taken
        if kind in ("noncancellative", "paraproduct") and not adjoint:
            assert not taken

    @pytest.mark.parametrize("name", list(SCORED_SHIFTS))
    def test_scores_of_listed_shifts(self, name):
        assert self.assert_scores_match_dense_route(SCORED_SHIFTS[name]())

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_cube_images_of_a_gapped_json_shift(self, adjoint):
        S = gapped_json_shift()
        assert 1 not in S.levels and len(S.levels[0].h_in) == 4 * 2 + 2
        assert self.assert_scores_match_dense_route(S.adjoint() if adjoint else S)

    def test_chunked_scores_match_one_chunk(self, monkeypatch):
        S = build_random_shift(2, 2, 55, GridSpec(1, 7))
        g = S.grid
        root = normlab._mass_roots(np.ones(g.cells), g, 1.5)
        whole = [bits(S._plan.cube_weak(level, root)) for level in range(g.N + 1)]
        # one row per chunk, then 12 rows of the finest level's 5 windows of
        # 8 terms, which split its 128 rows unevenly
        for cap in (1, 16 * 5 * 8 * 12):
            monkeypatch.setattr(shifts, "_BLOCK_BYTES", cap)
            assert [bits(S._plan.cube_weak(level, root)) for level in range(g.N + 1)] == whole

    def test_empty_shift_declines(self):
        S = build_random_shift(4, 0, 1, GridSpec(1, 4))  # no level has room
        assert not self.assert_scores_match_dense_route(S)

    @pytest.mark.parametrize(
        "name",
        ["paraproduct", "noncancellative", "random d=2", "cascade sigma", "cascade w", "linear shift"],
    )
    def test_declined_weak_searches_match_loop(self, name):
        g = GridSpec(2, 3) if name == "random d=2" else GridSpec(1, 5)
        one = StepFunction.constant(g, 1.0)
        w = cascade_weight(g, 41, 0.6) if name == "cascade w" else one
        sigma = cascade_weight(g, 42, 0.6) if name == "cascade sigma" else one
        kind = {"paraproduct": "paraproduct", "noncancellative": "noncancellative"}.get(name, "random")
        S = make_shift(kind, g.d, g.N, 1, 1, seed=43)
        op = shift_operator(S) if name == "linear shift" else truncation_operator(S)
        assert normlab._cube_scores(op, w, sigma, 1.5) is None
        if name == "linear shift":
            apply1, linear = (lambda v: loop_apply(S, v)), truncation_loops(S)[1]
            linearise1 = lambda v: (apply1(v), linear[1])
        else:
            apply1, linear, linearise1 = truncation_loops(S)
        got = weak_norm_estimate(op, w, sigma, 1.5, seed=2, budget=2, random_starts=3)
        want = loop_search(loop_weak_functional, apply1, linear, linearise1, w, sigma, 1.5, 2, 2, 3)
        assert got == want[0]

    @pytest.mark.parametrize("name", ["random (2, 2)", "json gap", "json skip", "paraproduct adjoint d=2"])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_cube_path_weak_searches_match_loop(self, name, p):
        if name == "json gap":
            S = gapped_json_shift()
        elif name == "json skip":
            S = skipping_json_shift()
        elif name == "random (2, 2)":
            S = build_random_shift(2, 2, 44, GridSpec(1, 6))
        else:
            S = make_shift("paraproduct", 2, 3, 0, 0, seed=45).adjoint()
        g = S.grid
        one = StepFunction.constant(g, 1.0)
        op = truncation_operator(S)
        for w in (one, StepFunction.constant(g, 0.3)):
            assert normlab._cube_scores(op, w, one, p) is not None
            got = weak_norm_estimate(op, w, one, p, seed=3, budget=2, random_starts=3)
            want = loop_search(loop_weak_functional, *truncation_loops(S), w, one, p, 3, 2, 3)
            assert got == want[0]

    def test_weak_search_skips_the_pair_pass_on_indicator_blocks(self, monkeypatch):
        # a fallback to op.apply on the indicator blocks would show here
        g = GridSpec(1, 6)
        S = build_random_shift(2, 2, 47, g)
        one = StepFunction.constant(g, 1.0)
        seed, budget, random_starts = 3, 3, 4
        passed, applied, scored, made = [], [], [], []
        pair_pass, cube_weak = shifts._KernelPlan._pair_pass, shifts._KernelPlan.cube_weak
        indicator = normlab._cube_indicator

        def spy_pair_pass(plan, block):
            passed.append(block.copy())
            return pair_pass(plan, block)

        def spy_cube_weak(plan, level, root):
            scored.append(level)
            return cube_weak(plan, level, root)

        def spy_indicator(grid, level, z):
            made.append((level, z))
            return indicator(grid, level, z)

        monkeypatch.setattr(shifts._KernelPlan, "_pair_pass", spy_pair_pass)
        monkeypatch.setattr(shifts._KernelPlan, "cube_weak", spy_cube_weak)
        monkeypatch.setattr(normlab, "_cube_indicator", spy_indicator)
        op = truncation_operator(S)
        op = dataclasses.replace(op, apply=lambda v: applied.append(np.array(v)) or S.truncation(v))
        weak_norm_estimate(op, one, one, 1.5, seed=seed, budget=budget, random_starts=random_starts)
        assert scored == list(range(g.N + 1))
        cubes = {
            bits(x): (level, z) for level in range(g.N + 1) for z, x in enumerate(cube_indicators(g, level))
        }
        # no indicator row reached op.apply; the pair pass met only the
        # indicators made float rows, once each (in Boyd's start block)
        assert not any(bits(x) in cubes for block in applied for x in block)
        met = [cubes[bits(x)] for block in passed for x in block if bits(x) in cubes]
        assert sorted(met) == sorted(made) and 1 <= len(made) <= budget
        assert any(len(x) == budget for x in passed)  # Boyd's block of the best starts
        spectral = norm_p2(shift_operator(S), one, one).witness.values[None]
        random = next(normlab._random_blocks(g, seed, random_starts))
        for rows in (spectral, random):
            assert any(x.shape == rows.shape and bits(x) == bits(rows) for x in applied)


# Shifts whose bins take unequal term counts, or none: their slot tables
# rank the bins by count.
RAGGED_SHIFTS = {
    "json gap": gapped_json_shift,
    "json skip": skipping_json_shift,
    "json level gap": level_gap_json_shift,
    "json crowded": crowded_json_shift,
}


class TestSlotTables:
    """The slot tables (_Slots) that sum the kernel's pair terms onto their
    bins, in run's pair pass and in selected_adjoint, against np.bincount
    and the loop kernels, bit for bit."""

    @pytest.mark.parametrize("name", [*RAGGED_SHIFTS, "repeated pair", "random (2, 2)"])
    def test_slot_sums_are_bincount_sums(self, name):
        plan = {**SCORED_SHIFTS, **RAGGED_SHIFTS}[name]()._plan
        rng = np.random.default_rng(72)
        for put, h, slots in (
            (plan.scatter, plan.h_out, plan._scatter_slots),
            (plan.gather, plan.h_in, plan._gather_slots),
        ):
            shape = (7, put.shape[1])
            coef = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
            coef[0], coef[1], coef[2, ::2] = 0.0, -0.0, -0.0  # zero bins, and +-0 terms
            coef[3, 0], coef[4, 1], coef[4, 2], coef[5, -1] = np.inf, -np.inf, np.nan, np.nan
            coef[6, ::3] = np.inf
            with np.errstate(invalid="ignore"):  # inf - inf
                assert bits(slots.sum(coef)) == bits(oracles.bincount_bins(put, h, slots.size, coef))

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("name", list(RAGGED_SHIFTS))
    def test_ragged_shifts_match_loop_kernel(self, name, adjoint):
        S = RAGGED_SHIFTS[name]()
        S = S.adjoint() if adjoint else S
        g = S.grid
        X = np.random.default_rng(70).standard_normal((5, g.cells))
        X[0, ::3] = -0.0
        X[1, 1::4] = 0.0
        X[2] = -0.0
        assert_rows_match_loops(S, X)
        for level in range(g.N + 1):  # pruned pairs: an indicator reads few of them
            assert_rows_match_loops(S, cube_indicators(g, level))

    @pytest.mark.parametrize("name", list(RAGGED_SHIFTS))
    def test_chunked_ragged_blocks_match_loop_kernel(self, name, monkeypatch):
        S = RAGGED_SHIFTS[name]()
        g = S.grid
        X = np.vstack([np.random.default_rng(71).standard_normal((4, g.cells)), cube_indicators(g, 2)])
        X[1, ::2] = -0.0
        # one row per chunk, then three rows of the dense block per chunk
        for cap in (1, 16 * 3 * S._plan.gather.size):
            monkeypatch.setattr(shifts, "_BLOCK_BYTES", cap)
            assert_rows_match_loops(S, X)
            assert_rows_match_loops(S, cube_indicators(g, 4))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("name", ["json crowded", "json gap"])
    def test_non_finite_row_leaves_the_other_rows(self, name):
        S = RAGGED_SHIFTS[name]()
        g = S.grid
        X = np.random.default_rng(76).standard_normal((5, g.cells))
        X[1, 5], X[3, 9] = np.inf, np.nan
        U = X[::-1] * 3.0
        U[3, 2] = -np.inf
        finite = [0, 2, 4]
        out, adjoint = S._selected(X)
        Z = adjoint(U, slice(None))
        out_f, adjoint_f = S._selected(X[finite])
        assert bits(out[finite]) == bits(out_f)
        assert bits(Z[finite]) == bits(adjoint_f(U[finite], slice(None)))
        for method in (S.apply, S.truncation, S.adjoint().apply):
            assert bits(method(X)[finite]) == bits(method(X[finite]))
        for i in (1, 3):  # the non-finite rows: the same bins as the loop kernel's bincount
            assert bits(S.apply(X)[i]) == bits(loop_apply(S, X[i]))
            assert bits(S.adjoint().apply(X)[i]) == bits(loop_apply(S.adjoint(), X[i]))

    @pytest.mark.parametrize("kind", ["petermichl", "random2a"])
    def test_sweep_boyd_blocks_match_loop_kernel(self, kind):
        # the sweep's Boyd block at N = 8: 54 rows, several chunks for random2a
        g = GridSpec(1, 8)
        (_, S), = normlab.default_operators(g, 20250810, (kind,))
        X = np.random.default_rng(77).standard_normal((54, g.cells))
        X[5, ::7] = -0.0
        assert_rows_match_loops(S, X)

    def test_tables_are_built_once_per_plan(self, monkeypatch):
        S = build_random_shift(2, 1, 74, GridSpec(1, 6))
        built, counted, tables = [], [], set()
        build, slot_sum, bincount = shifts._Slots.build, shifts._Slots.sum, np.bincount

        def spy_build(cls, put, h_put, size):
            built.append(size)
            return build(put, h_put, size)

        def spy_sum(slots, coef):
            tables.add((id(slots), id(slots.pair), id(slots.h)))
            return slot_sum(slots, coef)

        monkeypatch.setattr(shifts._Slots, "build", classmethod(spy_build))
        monkeypatch.setattr(shifts._Slots, "sum", spy_sum)
        rng = np.random.default_rng(74)
        for K in (1, 5, 54, 2):
            X = rng.standard_normal((K, S.grid.cells))
            if built:  # the first block builds the tables
                monkeypatch.setattr(np, "bincount", lambda *a, **k: counted.append(K) or bincount(*a, **k))
            S.apply(X)
            S.truncation(X)
            S.apply(cube_indicators(S.grid, 3)[:K])  # pruned pairs
            out, adjoint = S._selected(X)
            adjoint(X[::-1], slice(None))
            adjoint(X[:1], np.arange(1))
            monkeypatch.setattr(np, "bincount", bincount)
        plan = S._plan
        assert built == [plan.outputs[-1][1], plan._gather_slots.size]
        assert len(tables) == 2
        # after that only selected_adjoint's binning of u by the selected
        # levels calls np.bincount, once per call
        assert counted == [5, 5, 54, 54, 2, 2]


class TestPositiveBlocks:
    """positive_operator on blocks against one apply_positive call per row."""

    @pytest.mark.parametrize("d,N", [(1, 5), (2, 3), (3, 2)])
    def test_block_rows_match_apply_positive(self, d, N):
        g = GridSpec(d, N)
        rng = np.random.default_rng(40 + d)
        tau = TauCoefficients(
            g, {Q: float(rng.uniform(0.0, 2.0)) for Q in g.all_cubes() if rng.random() < 0.6}
        )
        X = rng.standard_normal((4, g.cells)) * 10.0 ** rng.integers(-3, 4, (4, 1))
        X[rng.random(X.shape) < 0.2] = 0.0
        X[rng.random(X.shape) < 0.2] = -0.0
        X[3] = -0.0
        op = positive_operator(tau)
        out = op.apply(X)
        ones = StepFunction.constant(g, 1.0)
        for row, got in zip(X, out):
            assert bits(got) == bits(apply_positive(tau, ones, StepFunction(g, row)).values)
            assert bits(op.apply(row)) == bits(got)
        assert bits(op.apply(X.reshape(2, 2, -1))) == bits(out)
        assert bits(op.adjoint(X)) == bits(out)

    def test_wrong_length_rejected(self):
        g = GridSpec(2, 2)
        op = positive_operator(TauCoefficients(g, {g.root(): 1.0}))
        for bad in (np.ones(15), np.ones((2, 17)), np.float64(1.0)):
            with pytest.raises(ValueError):
                op.apply(bad)


# -- norm searches -----------------------------------------------------------


def search_cases(N: int):
    """(name, operator, one-vector apply, (apply, adjoint) of the linear part)."""
    g = GridSpec(1, N)
    R = build_random_shift(1, 2, 7, g)
    P = build_petermichl(g)
    tau = TauCoefficients(g, {Q: 0.5**Q.level for Q in g.all_cubes() if Q.zindex % 3 != 1})
    ones = StepFunction.constant(g, 1.0)

    def pos(v):
        return apply_positive(tau, ones, StepFunction(g, v)).values

    def hil(v):
        return hilbert_direct(StepFunction(g, v)).values

    def shift_pair(S):
        return (lambda v: loop_apply(S, v), lambda v: loop_apply(S.adjoint(), v))

    def linear(apply1, adjoint1):
        return lambda v: (apply1(v), adjoint1)

    def selected(v):
        out, level, sign = loop_selection(P, v)
        return out, lambda u: loop_selected_adjoint(P, level, sign, u)

    return [
        ("shift", shift_operator(R), shift_pair(R)[0], shift_pair(R), linear(*shift_pair(R))),
        (
            "truncation",
            truncation_operator(P),
            lambda v: loop_truncation(P, v),
            shift_pair(P),
            selected,
        ),
        ("positive", positive_operator(tau), pos, (pos, pos), linear(pos, pos)),
        ("hilbert", hilbert_operator(g), hil, (hil, lambda v: -hil(v)), linear(hil, lambda v: -hil(v))),
    ]


CASES = [(N, i) for N in (3, 5) for i in range(4)]


def _case(N, i):
    g = GridSpec(1, N)
    name, op, apply1, linear, linearise1 = search_cases(N)[i]
    w, sigma = cascade_weight(g, 10 + N, 0.6), cascade_weight(g, 20 + N, 0.6)
    return op, apply1, linear, linearise1, w, sigma


class TestBlockSearches:
    @pytest.mark.parametrize("N,i", CASES)
    def test_norm_p2_matches_dense_svd(self, N, i):
        op, _, linear, _, w, sigma = _case(N, i)
        lin = op if isinstance(op, LinearOperator) else op.linear_part
        est = norm_p2(lin, w, sigma)
        T = matrix_of(linear[0], w.grid.cells)
        want = weighted_svd_norm(T, w, sigma)
        assert abs(est.lower_bound - want) <= 1e-12 * want
        f = est.witness.values
        reproduced = loop_lp_norm(T @ (sigma.values * f), w, 2.0) / loop_lp_norm(f, sigma, 2.0)
        assert abs(reproduced - est.lower_bound) <= 1e-12 * want

    def test_norm_p2_nonconvergence_bracket(self):
        op, _, linear, _, w, sigma = _case(5, 0)
        with pytest.raises(NonConvergenceError) as info:
            norm_p2(op, w, sigma, max_iter=2)
        lo, hi = info.value.bracket
        assert lo <= weighted_svd_norm(matrix_of(linear[0], w.grid.cells), w, sigma)
        assert lo <= hi

    @pytest.mark.parametrize("N,i", CASES)
    @pytest.mark.parametrize("p,budget,random_starts", [(1.5, 3, 5), (2.0, 0, 2), (3.0, 4, 20)])
    def test_norm_lp_lower_matches_loop(self, N, i, p, budget, random_starts):
        op, apply1, linear, linearise1, w, sigma = _case(N, i)
        est = norm_lp_lower(op, w, sigma, p, seed=N + i, budget=budget, random_starts=random_starts)
        value, f, evals = loop_search(
            loop_lp_norm, apply1, linear, linearise1, w, sigma, p, N + i, budget, random_starts,
            strong=True,
        )
        fnorm = loop_lp_norm(f, sigma, p)
        assert est.lower_bound == value
        assert bits(est.witness.values) == bits(f / fnorm if fnorm > 0 else f)
        assert est.iterations == evals

    @pytest.mark.parametrize("N,i", CASES)
    def test_norm_lp_lower_without_spectral_matches_loop(self, N, i, monkeypatch):
        # with no spectral witness, the random starts alone are refined
        def fail(*args, **kwargs):
            raise NonConvergenceError("no spectral witness", (0.0, 0.0))

        monkeypatch.setattr(normlab, "norm_p2", fail)
        monkeypatch.setattr(oracles, "norm_p2", fail)
        op, apply1, linear, linearise1, w, sigma = _case(N, i)
        est = norm_lp_lower(op, w, sigma, 3.0, seed=i, budget=2, random_starts=3)
        value, f, evals = loop_search(
            loop_lp_norm, apply1, linear, linearise1, w, sigma, 3.0, i, 2, 3, strong=True
        )
        assert est.lower_bound == value
        assert bits(est.witness.values) == bits(f / loop_lp_norm(f, sigma, 3.0))
        assert est.iterations == evals

    @pytest.mark.parametrize("N,i", CASES)
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_weak_norm_estimate_matches_loop(self, N, i, p):
        op, apply1, linear, linearise1, w, sigma = _case(N, i)
        got = weak_norm_estimate(op, w, sigma, p, seed=i, budget=2, random_starts=3)
        want = loop_search(
            loop_weak_functional, apply1, linear, linearise1, w, sigma, p, i, 2, 3
        )[0]
        assert got == want

    @pytest.mark.parametrize("N,i", CASES)
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_weak_norm_estimate_lebesgue_matches_loop(self, N, i, p):
        # w = sigma = 1: the scan scores under a constant weight
        op, apply1, linear, linearise1, w, _ = _case(N, i)
        one = StepFunction.constant(w.grid, 1.0)
        got = weak_norm_estimate(op, one, one, p, seed=i, budget=2, random_starts=3)
        want = loop_search(
            loop_weak_functional, apply1, linear, linearise1, one, one, p, i, 2, 3
        )[0]
        assert got == want

    @pytest.mark.parametrize("lebesgue,budget", [(False, 4), (True, 1)])
    def test_weak_search_refining_indicators_matches_loop(self, lebesgue, budget):
        # the all-cubes positive operator: every start Boyd refines is a
        # cube indicator, kept from a boolean block
        g = GridSpec(1, 4)
        tau = TauCoefficients.indicator(CubeFamily(g, list(g.all_cubes())))
        op = positive_operator(tau)
        if lebesgue:
            w = sigma = StepFunction.constant(g, 1.0)
        else:
            w, sigma = cascade_weight(g, 14, 0.6), cascade_weight(g, 24, 0.6)
        ones = StepFunction.constant(g, 1.0)

        def pos(v):
            return apply_positive(tau, ones, StepFunction(g, v)).values

        def stream():  # weak_norm_estimate's start stream at seed 5
            return itertools.chain(
                normlab._indicator_blocks(g),
                normlab._spectral_start(op, w, sigma),
                normlab._random_blocks(g, 5, 3),
            )

        out_norms = normlab._weak_functionals
        top, _ = normlab._scan(out_norms, op, w, sigma, 1.5, budget, stream())
        assert all(idx < 2 ** (g.N + 1) - 1 and fv.dtype == float for _, idx, fv in top)
        value, f, apps = normlab._searches(
            out_norms, op, [(w, sigma)], 1.5, budget, [stream()]
        )[0]
        want = loop_search(
            loop_weak_functional, pos, (pos, pos), lambda v: (pos(v), pos),
            w, sigma, 1.5, 5, budget, 3,
        )
        assert f.dtype == float
        assert (value, bits(f), apps) == (want[0], bits(want[1]), want[2])
        assert weak_norm_estimate(op, w, sigma, 1.5, seed=5, budget=budget, random_starts=3) == value

    @pytest.mark.parametrize("N,i", CASES)
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_refined_rows_never_fall_below_their_starts(self, N, i, p):
        op, _, _, _, w, sigma = _case(N, i)
        starts = np.random.default_rng(N + i).standard_normal((5, w.grid.cells))
        starts[1] = np.abs(starts[1])
        def scores(f, out_norms):
            return normlab._ratios(op.apply(sigma.values * f), f, w, sigma, p, out_norms)

        for out_norms in (normlab._lp_norms, normlab._weak_functionals):
            after, fs, apps = normlab._boyd(
                out_norms, normlab._linearisation(op), w, sigma, p, starts
            )
            assert all(a >= b for a, b in zip(after, scores(starts, out_norms)))
            assert after == scores(fs, out_norms)  # each value is its iterate's
            assert 5 <= apps.sum() <= 2 * normlab._BOYD_STEPS * 5


class TestScoringBlocks:
    """The weak functional and the L^p norms of a block against the
    one-vector oracles, bit for bit."""

    @staticmethod
    def rows(g):
        """Rows with ties, exact zeros (signed), an all-zero row and a
        random row."""
        rng = np.random.default_rng(g.N)
        ties = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=(3, g.cells))
        ties[0, ::3] = -0.0
        return np.vstack([ties, np.zeros(g.cells), rng.standard_normal(g.cells)])

    @pytest.mark.parametrize("value", [1.0, 0.3])
    @pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 3.0])
    def test_weak_functional_under_a_constant_weight(self, value, p):
        # 0.3's cumsum rounds, so the masses are checked bit for bit
        g = GridSpec(1, 5)
        X, w = self.rows(g), StepFunction.constant(g, value)
        got = normlab._weak_functionals(X, w, p)
        assert got == [loop_weak_functional(x, w, p) for x in X]
        assert got[3] == 0.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_weak_functional_per_row_and_cascade_weights(self, p):
        # a cascade weight and per-row (_Rows) weights keep the argsort path
        g = GridSpec(1, 5)
        X = self.rows(g)
        cascade = cascade_weight(g, 3, 0.6)
        assert normlab._weak_functionals(X, cascade, p) == [
            loop_weak_functional(x, cascade, p) for x in X
        ]
        per_row = np.array([cascade_weight(g, 30 + k, 0.6).values for k in range(len(X))])
        per_row[1] = 0.3  # a constant row among the _Rows
        got = normlab._weak_functionals(X, normlab._Rows(g, per_row), p)
        assert got == [
            loop_weak_functional(x, StepFunction(g, wv), p) for x, wv in zip(X, per_row)
        ]

    @pytest.mark.parametrize("p", [1.01, 1.5, 3.0])
    def test_lp_norms_of_boolean_indicator_blocks(self, p):
        g = GridSpec(1, 5)
        sigma = cascade_weight(g, 8, 0.6)
        for block in normlab._indicator_blocks(g):
            assert block.dtype == bool
            got = normlab._lp_norms(block, sigma, p)
            assert got == normlab._lp_norms(block.astype(float), sigma, p)
            assert got == [loop_lp_norm(x.astype(float), sigma, p) for x in block]


class TestBatchedSearches:
    """The batched internals (lockstep Lanczos, one Boyd block for several
    (w, sigma) problems, the sweep's grouping) against one-problem calls,
    bit for bit."""

    @staticmethod
    def problems(g):
        one = StepFunction.constant(g, 1.0)
        tv = two_value_weight(g, 16.0, 1)
        w1, w2 = cascade_weight(g, 31, 0.6), cascade_weight(g, 32, 0.6)
        return [(one, one), (one, tv), (w1, one), (w1, tv), (w2, w1)]

    @pytest.mark.parametrize("N,i", CASES)
    def test_lockstep_lanczos_matches_separate_calls(self, N, i):
        op = _case(N, i)[0]
        lin = op if isinstance(op, LinearOperator) else op.linear_part
        problems = self.problems(op.grid)
        batched = normlab._lanczos(lin, problems)
        for (w, sigma), est in zip(problems, batched):
            alone = norm_p2(lin, w, sigma)
            assert est.lower_bound == alone.lower_bound
            assert bits(est.witness.values) == bits(alone.witness.values)
            assert est.iterations == alone.iterations

    def test_lockstep_nonconvergence_stays_per_problem(self):
        g = GridSpec(1, 4)
        op = shift_operator(build_random_shift(1, 1, 9, g))
        one = StepFunction.constant(g, 1.0)
        w = StepFunction(g, np.random.default_rng(5).uniform(0.5, 2.0, g.cells))
        problems = [(one, one), (w, one), (one, two_value_weight(g, 16.0, 1)), (w, w)]
        batched = normlab._lanczos(op, problems, max_iter=6)
        failed = [isinstance(est, NonConvergenceError) for est in batched]
        assert failed == [False, True, False, True]
        for (w, sigma), est in zip(problems, batched):
            if isinstance(est, NonConvergenceError):
                with pytest.raises(NonConvergenceError) as info:
                    norm_p2(op, w, sigma, max_iter=6)
                assert est.bracket == info.value.bracket
            else:
                alone = norm_p2(op, w, sigma, max_iter=6)
                assert (est.lower_bound, est.iterations) == (alone.lower_bound, alone.iterations)
                assert bits(est.witness.values) == bits(alone.witness.values)
        assert batched[1].bracket != batched[3].bracket

    @pytest.mark.parametrize("N,i", CASES)
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_boyd_with_row_weights_matches_separate_calls(self, N, i, p):
        op = _case(N, i)[0]
        g = op.grid
        problems = self.problems(g)
        rng = np.random.default_rng(N + i)
        blocks = [rng.standard_normal((2, g.cells)) for _ in problems]
        blocks[0][1] = np.abs(blocks[0][1])
        w, sigma = (
            normlab._Rows(g, np.repeat([pr[k].values for pr in problems], 2, axis=0)) for k in (0, 1)
        )
        linearise = normlab._linearisation(op)
        for out_norms in (normlab._lp_norms, normlab._weak_functionals):
            vals, fs, apps = normlab._boyd(out_norms, linearise, w, sigma, p, np.concatenate(blocks))
            for k, ((w1, sigma1), block) in enumerate(zip(problems, blocks)):
                rows = slice(2 * k, 2 * k + 2)
                alone = normlab._boyd(out_norms, linearise, w1, sigma1, p, block)
                assert vals[rows] == alone[0]
                assert bits(fs[rows]) == bits(alone[1])
                assert apps[rows].tolist() == alone[2].tolist()

    @pytest.mark.parametrize("N", [5, 6])
    def test_sweep_rows_match_one_weight_at_a_time(self, N):
        seed, p_list, budget, random_starts = 5, (1.5, 2.0, 3.0), 2, 3
        rows = normlab.sharpness_sweep(
            normlab.OPERATOR_KINDS, p_list, (N,), seed, budget, random_starts
        )
        grid = GridSpec(1, N)
        ops = normlab.default_operators(grid, seed)
        want = []
        for fam, param, w in normlab.default_weight_family(grid):
            ainf_w = ainfty_characteristic(w).value
            for p in p_list:
                sigma = dual_weight(w, p)
                bracket = joint_ap(w, sigma, p).value
                ainf_sigma = ainfty_characteristic(sigma).value
                rhs = bracket * (ainf_w ** (1.0 / (p / (p - 1.0))) + ainf_sigma ** (1.0 / p))
                buckley = ap_characteristic(w, p).value ** max(1.0, 1.0 / (p - 1.0))
                for name, S in ops:
                    norm = norm_lp_lower(
                        truncation_operator(S), w, sigma, p,
                        budget=budget, seed=seed, random_starts=random_starts,
                    ).lower_bound
                    want.append(
                        normlab.SweepRow(
                            f"{name}:{fam}", param, p, N, bracket, ainf_w, ainf_sigma,
                            norm, rhs, norm / rhs, buckley,
                        )
                    )
        assert rows == want


# -- toroidal gap ------------------------------------------------------------


class TestToroidalGap:
    @pytest.mark.parametrize(
        "f_cells,g_cells,M,gap",
        [
            ([0, 1], [30, 31], 32, 1),  # wrap-around
            ([31], [0], 32, 1),  # wrap-around, single cells
            ([2, 3], [4, 5], 16, 1),  # adjacent
            ([2, 3], [9, 10], 16, 6),  # separated
            ([3, 4, 5], [5, 9], 16, 0),  # overlapping
            ([0, 8], [4, 12], 16, 4),  # interleaved
        ],
    )
    def test_cases(self, f_cells, g_cells, M, gap):
        fmask, gmask = np.zeros(M, bool), np.zeros(M, bool)
        fmask[f_cells] = True
        gmask[g_cells] = True
        assert _toroidal_gap_cells(fmask, gmask) == gap == brute_toroidal_gap(fmask, gmask)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**16), st.floats(0.01, 0.9))
    def test_matches_brute_force(self, M, seed, density):
        rng = np.random.default_rng(seed)
        fmask, gmask = rng.random(M) < density, rng.random(M) < density
        fmask[rng.integers(M)] = True
        gmask[rng.integers(M)] = True
        assert _toroidal_gap_cells(fmask, gmask) == brute_toroidal_gap(fmask, gmask)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            _toroidal_gap_cells(np.zeros(8, bool), np.ones(8, bool))
