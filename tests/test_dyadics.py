import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from czlab.dyadics import (
    GridMismatchError,
    GridSpec,
    StepFunction,
    _by_cube,
    _morton_decode,
    _morton_encode,
    ancestor,
    average,
    children,
    level_integrals,
    lp_norm,
    rearrangement_value,
)


def grid1(N=3):
    return GridSpec(1, N)


class TestGridSpec:
    def test_cell_count(self):
        assert GridSpec(1, 3).cells == 8
        assert GridSpec(2, 2).cells == 16

    def test_shift_must_be_cell_multiple(self):
        GridSpec(1, 3, (0.25,))
        with pytest.raises(ValueError):
            GridSpec(1, 3, (0.3,))
        with pytest.raises(ValueError):
            GridSpec(1, 3, (1.0,))

    def test_bad_dimension_and_level(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3)
        with pytest.raises(ValueError):
            GridSpec(1, -1)

    def test_header_and_cube_forms_round_trip(self):
        grid = GridSpec(2, 3, (0.25, 0.5))
        assert GridSpec.from_dict(grid.to_dict()) == grid
        assert GridSpec.from_dict({"d": 2, "N": 3}) == GridSpec(2, 3)
        Q = grid.cube(2, (3, 1))
        assert grid.cube_from_dict(Q.to_dict()) == Q

    @pytest.mark.parametrize(
        "obj,field",
        [
            ([1, 3], "object"),
            ({"N": 3}, "'d'"),
            ({"d": 1}, "'N'"),
            ({"d": 1.0, "N": 3}, "'d'"),
            ({"d": True, "N": 3}, "'d'"),
            ({"d": 1, "N": "3"}, "'N'"),
            ({"d": 1, "N": 3, "shift": 0.25}, "'shift'"),
            ({"d": 1, "N": 3, "shift": ["0.25"]}, "'shift'"),
            ({"d": 1, "N": 3, "shift": [0.3]}, "multiples"),
            ({"d": 0, "N": 3}, "dimension"),
        ],
    )
    def test_from_dict_rejects(self, obj, field):
        with pytest.raises(ValueError, match=field):
            GridSpec.from_dict(obj)

    @pytest.mark.parametrize(
        "obj,field",
        [
            (None, "object"),
            ([1, [0, 0]], "object"),
            ({"coords": [0, 0]}, "'level'"),
            ({"level": 1}, "'coords'"),
            ({"level": 1.0, "coords": [0, 0]}, "'level'"),
            ({"level": False, "coords": [0, 0]}, "'level'"),
            ({"level": 1, "coords": [0]}, "'coords'"),
            ({"level": 1, "coords": [0, 0, 0]}, "'coords'"),
            ({"level": 1, "coords": (0, 0)}, "'coords'"),
            ({"level": 1, "coords": [0, 0.5]}, "'coords'"),
            ({"level": 4, "coords": [0, 0]}, "outside"),
            ({"level": 1, "coords": [0, 2]}, "outside"),
        ],
    )
    def test_cube_from_dict_rejects(self, obj, field):
        with pytest.raises(ValueError, match=field):
            GridSpec(2, 3).cube_from_dict(obj)

    def test_levels_tile_the_root(self):
        # partition: cell slices at each level cover 0..cells disjointly
        for grid in (GridSpec(1, 4), GridSpec(2, 2)):
            for level in range(grid.N + 1):
                covered = []
                for Q in grid.cubes(level):
                    covered.extend(range(Q.cell_slice.start, Q.cell_slice.stop))
                assert sorted(covered) == list(range(grid.cells))


class TestCubes:
    @pytest.mark.parametrize("d,N", [(1, 0), (1, 4), (1, 12), (2, 0), (2, 3), (3, 2)])
    def test_morton_decode_array_matches_scalar(self, d, N):
        z = np.arange(1 << (d * N))
        coords = _morton_decode(z, d, N)
        assert len(coords) == d
        assert all(isinstance(c, np.ndarray) and c.shape == z.shape for c in coords)
        for i in range(z.size):
            scalar = _morton_decode(i, d, N)
            assert tuple(int(c[i]) for c in coords) == scalar
            assert _morton_encode(scalar, d, N) == i

    def test_children_bisect_unit_interval(self):
        g = grid1(1)
        kids = children(g.root())
        assert [k.bounds() for k in kids] == [[(0.0, 0.5)], [(0.5, 1.0)]]

    def test_children_partition_square(self):
        g = GridSpec(2, 1)
        kids = children(g.root())
        assert len(kids) == 4
        assert abs(sum(k.volume for k in kids) - 1.0) < 1e-15

    def test_children_quarter_interval(self):
        # [1/4, 1/2) at N=3 splits into [1/4, 3/8) and [3/8, 1/2)
        g = grid1(3)
        Q = g.cube(2, (1,))
        assert [k.bounds() for k in children(Q)] == [
            [(0.25, 0.375)],
            [(0.375, 0.5)],
        ]

    def test_children_overflow(self):
        g = grid1(2)
        with pytest.raises(ValueError, match="level overflow"):
            children(g.cube(2, (0,)))

    def test_ancestor_identity_and_root(self):
        g = grid1(3)
        Q = g.cube(3, (5,))
        assert ancestor(Q, 0) == Q
        assert ancestor(Q, 3) == g.root()

    def test_ancestor_two_levels(self):
        # [3/8, 1/2) two levels up is [0, 1/2)
        g = grid1(3)
        Q = g.cube(3, (3,))
        assert ancestor(Q, 2).bounds() == [(0.0, 0.5)]

    def test_ancestor_above_root(self):
        g = grid1(2)
        with pytest.raises(ValueError, match="above root"):
            ancestor(g.cube(1, (0,)), 2)

    def test_nesting_trichotomy(self):
        rng = np.random.default_rng(7)
        for grid in (GridSpec(1, 4), GridSpec(2, 3)):
            cubes = list(grid.all_cubes())
            for _ in range(300):
                A, B = rng.choice(len(cubes), 2)
                QA, QB = cubes[A], cubes[B]
                ra = set(range(QA.cell_slice.start, QA.cell_slice.stop))
                rb = set(range(QB.cell_slice.start, QB.cell_slice.stop))
                inter = ra & rb
                assert inter in (set(), ra, rb)

    def test_zorder_slice_matches_geometry(self):
        grid = GridSpec(2, 3)
        # recompute membership from coordinates instead of the slice arithmetic
        n = 1 << grid.N
        for Q in grid.all_cubes():
            t = grid.N - Q.level
            member = []
            for z in range(grid.cells):
                c0 = sum(((z >> (2 * b)) & 1) << b for b in range(grid.N))
                c1 = sum(((z >> (2 * b + 1)) & 1) << b for b in range(grid.N))
                if (c0 >> t, c1 >> t) == Q.coords:
                    member.append(z)
            assert member == list(range(Q.cell_slice.start, Q.cell_slice.stop))


class TestStepFunction:
    def test_average_constant(self):
        g = grid1(2)
        f = StepFunction.constant(g, 3.5)
        for Q in g.all_cubes():
            assert average(f, Q) == 3.5

    def test_average_root_direct_sum(self):
        g = grid1(1)
        f = StepFunction(g, [4.0, 1.0])
        assert average(f, g.root()) == pytest.approx(2.5, abs=0)

    def test_average_linearity(self):
        rng = np.random.default_rng(0)
        g = GridSpec(2, 2)
        f = StepFunction(g, rng.standard_normal(g.cells))
        h = StepFunction(g, rng.standard_normal(g.cells))
        for Q in g.all_cubes():
            assert average(f + h, Q) == pytest.approx(average(f, Q) + average(h, Q), abs=1e-12)

    def test_grid_mismatch(self):
        f = StepFunction.constant(grid1(2), 1.0)
        other = grid1(3).root()
        with pytest.raises(GridMismatchError):
            average(f, other)

    def test_telescoping_averages(self):
        rng = np.random.default_rng(3)
        g = GridSpec(2, 3)
        f = StepFunction(g, rng.standard_normal(g.cells))
        for Q in g.all_cubes():
            if Q.level == g.N:
                continue
            total = sum(
                (child.volume / Q.volume) * average(f, child) for child in children(Q)
            )
            assert total == pytest.approx(average(f, Q), abs=1e-12)

    def test_level_integrals_match_integral(self):
        rng = np.random.default_rng(5)
        g = GridSpec(1, 4)
        f = StepFunction(g, rng.standard_normal(g.cells))
        sums = level_integrals(f)
        for Q in g.all_cubes():
            assert sums[Q.level][Q.zindex] == pytest.approx(f.integral(Q), abs=1e-14)

    def test_json_round_trip(self):
        rng = np.random.default_rng(11)
        g = GridSpec(1, 3, (0.25,))
        f = StepFunction(g, rng.standard_normal(g.cells))
        twice = StepFunction.from_json(f.to_json()).to_json()
        assert twice == f.to_json()
        g2 = StepFunction.from_json(f.to_json())
        assert g2.grid == g
        assert np.array_equal(g2.values, f.values)

    @pytest.mark.parametrize(
        "bad", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="huge-int")]
    )
    def test_from_json_rejects_non_finite_values(self, bad):
        text = '{"d": 1, "N": 1, "shift": [0.0], "values": [1.0, %s]}' % bad
        with pytest.raises(ValueError, match="finite numbers"):
            StepFunction.from_json(text)


class TestLpNorm:
    def test_constant_one_every_p(self):
        g = grid1(3)
        f = StepFunction.constant(g, 1.0)
        for p in (1.0, 1.5, 2.0, 3.0, 7.0):
            assert lp_norm(f, p) == pytest.approx(1.0, abs=1e-14)

    def test_hand_computed(self):
        g = grid1(1)
        f = StepFunction(g, [1.0, 3.0])
        # (1/2)(1 + 9) = 5
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    @given(c=st.floats(-10, 10), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, seed):
        g = grid1(3)
        f = StepFunction(g, np.random.default_rng(seed).standard_normal(g.cells))
        assert lp_norm(c * f, 2.5) == pytest.approx(abs(c) * lp_norm(f, 2.5), rel=1e-10, abs=1e-12)

    def test_nonpositive_weight_rejected(self):
        g = grid1(1)
        f = StepFunction(g, [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            lp_norm(f, 2.0, StepFunction(g, [1.0, 0.0]))

    def test_invalid_p(self):
        f = StepFunction.constant(grid1(1), 1.0)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)
        with pytest.raises(ValueError):
            lp_norm(f, math.inf)


class TestRearrangement:
    def test_zero_function(self):
        g = grid1(2)
        f = StepFunction.constant(g, 0.0)
        for t in (0.1, 0.25, 1.0):
            assert rearrangement_value(f, t) == 0.0

    def test_level_set_enumeration(self):
        g = grid1(2)
        f = StepFunction(g, [1.0, 1.0, 0.0, 0.0])
        assert rearrangement_value(f, 0.25) == 1.0
        assert rearrangement_value(f, 0.5) == 0.0

    def test_t_nonpositive(self):
        f = StepFunction.constant(grid1(1), 1.0)
        with pytest.raises(ValueError):
            rearrangement_value(f, 0.0)

    def test_monotone_and_equimeasurable(self):
        rng = np.random.default_rng(13)
        g = grid1(4)
        f = StepFunction(g, rng.standard_normal(g.cells))
        ts = np.linspace(0.01, 1.0, 37)
        vals = [rearrangement_value(f, t) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        # equimeasurability: the level-set measure of |f| above each cell
        # magnitude matches the rearranged profile position
        mags = np.sort(np.abs(f.values))[::-1]
        vol = g.cell_volume
        for k, s in enumerate(mags):
            measure = float((np.abs(f.values) > s).sum()) * vol
            assert measure <= (k + 1) * vol + 1e-15
            assert rearrangement_value(f, (k + 1) * vol) <= s + 1e-15


@pytest.mark.parametrize("d,N", [(1, N) for N in range(13)] + [(2, 6), (3, 4)])
def test_cube_sums_add_each_cubes_cells_in_order(d, N):
    # the stopping audit's integrals: every cube's sum from one reshaped
    # block is bit for bit the sum over the cube's slice of one row
    g = GridSpec(d, N)
    block = np.random.default_rng(N).standard_normal((3, g.cells))
    for k in range(N + 1):
        sums = _by_cube(g, block, k).sum(axis=-1)
        slices = [Q.cell_slice for Q in g.cubes(k)]
        for row, row_sums in zip(block, sums):
            assert np.array_equal(row_sums, [row[sl].sum() for sl in slices])
