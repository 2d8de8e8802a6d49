import numpy as np
import pytest

from czlab.characteristics import ainfty_characteristic
from czlab.cli import run
from czlab.config import parse_config
from czlab.dyadics import GridSpec, StepFunction, _level_means, _level_sums
from czlab.families import cascade_weight, power_weight
from czlab.stopping import (
    _stopping_rows,
    build_stopping_family,
    stopping_children,
)

from oracles import loop_stopping_children, loop_stopping_family, member_loop_stopping_family


def ones(grid):
    return StepFunction.constant(grid, 1.0)


class TestStoppingChildren:
    def test_constant_weight_none(self):
        g = GridSpec(1, 4)
        assert stopping_children(ones(g), g.root()) == []

    def test_spike_selects_exactly_the_cell(self):
        g = GridSpec(1, 3)
        vals = np.ones(g.cells)
        vals[0] = 100.0
        w = StepFunction(g, vals)
        got = stopping_children(w, g.root())
        # root average 13.375, threshold 53.5; the 2-cell parent averages 50.5
        assert got == [g.cube(3, (0,))]

    def test_scaling_invariance(self):
        g = GridSpec(1, 5)
        w = cascade_weight(g, 3, 0.7)
        base = stopping_children(w, g.root())
        scaled = stopping_children(17.5 * w, g.root())
        assert base == scaled

    def test_maximality_and_disjointness(self):
        g = GridSpec(1, 6)
        for seed in range(20):
            w = cascade_weight(g, seed, 0.7)
            kids = stopping_children(w, g.root())
            cover = np.zeros(g.cells, dtype=int)
            root_avg = float(w.values.mean())
            for Q in kids:
                cover[Q.cell_slice] += 1
                assert float(w.values[Q.cell_slice].mean()) > 4.0 * root_avg
                if Q.level >= 1:
                    P = g.cube_from_zindex(Q.level - 1, Q.zindex >> g.d)
                    assert float(w.values[P.cell_slice].mean()) <= 4.0 * root_avg
            assert cover.max(initial=0) <= 1


    @pytest.mark.parametrize("d,N", [(1, 7), (2, 4), (3, 2)])
    def test_cascades_and_spikes_match_loop_walk(self, d, N):
        g = GridSpec(d, N)
        cubes = [g.root(), g.cube_from_zindex(1, (1 << d) - 1), g.cube_from_zindex(N, 3)]
        weights = [cascade_weight(g, 800 + seed, 0.8) for seed in range(8)]
        for cell in (0, 5, g.cells - 1):
            vals = np.ones(g.cells)
            vals[cell] = 1e3
            weights.append(StepFunction(g, vals))
        for w in weights:
            for Q in cubes:
                assert stopping_children(w, Q) == loop_stopping_children(w, Q)
        assert stopping_children(weights[0], cubes[2]) == []

    def test_ordered_by_first_cell(self):
        # root average 147/32, threshold 18.375: the 2-cell cube at cell 0
        # (average 20.5) is deeper than the 4-cell cube at cell 28 (20) but
        # comes first
        g = GridSpec(1, 5)
        vals = np.ones(g.cells)
        vals[0] = 40.0
        vals[28:] = 20.0
        w = StepFunction(g, vals)
        assert stopping_children(w, g.root()) == [g.cube(4, (0,)), g.cube(3, (7,))]
        assert stopping_children(w, g.root()) == loop_stopping_children(w, g.root())

    def test_average_equal_to_threshold_is_not_selected(self):
        # root average 14/8, threshold 7.0: exactly the spike cell's average
        g = GridSpec(1, 3)
        vals = np.ones(g.cells)
        vals[0] = 7.0
        assert stopping_children(StepFunction(g, vals), g.root()) == []
        assert build_stopping_family(StepFunction(g, vals), g.root()).parents == {}
        vals[0] = 7.5
        assert stopping_children(StepFunction(g, vals), g.root()) == [g.cube(3, (0,))]
        assert build_stopping_family(StepFunction(g, vals), g.root()).parents == {
            g.cube(3, (0,)): g.root()
        }


class TestStoppingFamily:
    def test_constant_weight_trivial_family(self):
        g = GridSpec(1, 5)
        fam = build_stopping_family(ones(g), g.root())
        assert fam.cubes == (g.root(),) and fam.margins == (0.0,)

    def test_power_spike_depth(self):
        g = GridSpec(1, 8)
        w = power_weight(g, -0.95, center=0.0)
        fam = build_stopping_family(w, g.root())
        depth = max(S.level for S in fam.cubes)
        assert depth >= 2
        assert all(v < 0.25 for v in fam.margins)

    def test_packing_margins_match_children_sums(self):
        for d, N in ((1, 8), (2, 4)):
            g = GridSpec(d, N)
            for seed in range(10):
                fam = build_stopping_family(cascade_weight(g, 900 + seed, 0.8), g.root())
                want = tuple(
                    sum(c.volume for c, P in fam.parents.items() if P == S) / S.volume
                    for S in fam.cubes
                )
                assert fam.margins == want

    @pytest.mark.parametrize("d,N", [(1, 7), (2, 4), (3, 2)])
    def test_family_matches_generation_by_generation_loop(self, d, N):
        g = GridSpec(d, N)
        roots = [g.root(), g.cube_from_zindex(1, (1 << d) - 1), g.cube_from_zindex(2, 5),
                 g.cube_from_zindex(N, 3)]
        weights = [cascade_weight(g, 700 + seed, 0.8) for seed in range(6)]
        for cell in (0, g.cells // 3, g.cells - 1):
            vals = np.ones(g.cells)
            vals[cell] = 1e6  # deep enough for a chain of several generations
            weights.append(StepFunction(g, vals))
        generations = 0
        for w in weights:
            for Q0 in roots:
                fam = build_stopping_family(w, Q0)
                want = loop_stopping_family(w, Q0)
                assert fam.parents == want
                cubes = tuple(sorted([Q0, *want], key=lambda Q: (Q.level, Q.zindex)))
                margins = tuple(
                    sum(c.volume for c, P in want.items() if P == S) / S.volume for S in cubes
                )
                assert fam.cubes == cubes and fam.margins == margins
                for Q in want:
                    chain = 1
                    while want[Q] != Q0:
                        Q, chain = want[Q], chain + 1
                    generations = max(generations, chain)
        assert generations >= 2  # some family has stopping grandchildren

    def test_forest_nesting(self):
        g = GridSpec(1, 7)
        for seed in range(10):
            w = cascade_weight(g, 50 + seed, 0.75)
            fam = build_stopping_family(w, g.root())
            for S, parent in fam.parents.items():
                assert parent.contains(S) and parent != S
            for S in fam.cubes:
                kids = [c for c, P in fam.parents.items() if P == S]
                cover = np.zeros(g.cells, dtype=int)
                for c in kids:
                    cover[c.cell_slice] += 1
                assert cover.max(initial=0) <= 1

    def test_carleson_sum_bounded(self):
        # sum of w over stopping cubes against the A_infty bound; the chain
        # geometry forces the ratio below 4/3
        g = GridSpec(1, 8)
        worst = 0.0
        for seed in range(100):
            w = cascade_weight(g, 100 + seed, 0.75)
            fam = build_stopping_family(w, g.root())
            total = sum(w.integral(S) for S in fam.cubes)
            bound = ainfty_characteristic(w).value * w.integral()
            worst = max(worst, total / bound)
        assert worst <= 4.0 / 3.0 + 1e-9

    def test_json_forest(self):
        import json

        g = GridSpec(1, 6)
        w = power_weight(g, -0.9, center=0.0)
        fam = build_stopping_family(w, g.root())
        obj = json.loads(fam.to_json())
        assert obj["root"] == {"level": 0, "coords": [0]}
        roots = [n for n in obj["nodes"] if n["parent"] is None]
        assert len(roots) == 1


def block_rows(g, weights):
    """_stopping_rows of a list of weights, as one block."""
    block = np.array([w.values for w in weights])
    return _stopping_rows(g, _level_means(g, _level_sums(g, block)))


class TestStoppingRows:
    @pytest.mark.parametrize("d,N", [(1, 0), (1, 1), (1, 8), (1, 12), (2, 5)])
    def test_rows_match_family_and_member_loop(self, d, N):
        g = GridSpec(d, N)
        weights = [cascade_weight(g, 40 + seed, 0.8) for seed in range(5)]
        weights.append(StepFunction.constant(g, 3.0))
        for cell in (0, g.cells - 1):
            vals = np.ones(g.cells)
            vals[cell] = 1e6
            weights.append(StepFunction(g, vals))
        deep = 0
        for w, (level, zindex, parent, margins) in zip(weights, block_rows(g, weights)):
            fam = build_stopping_family(w, g.root())
            members, parents, loop_margins = member_loop_stopping_family(w, g.root())
            assert [(Q.level, Q.zindex) for Q in members] == list(zip(level.tolist(), zindex.tolist()))
            assert fam.cubes == tuple(members)
            assert parent[0] == -1 and {Q: members[S] for Q, S in zip(members[1:], parent[1:].tolist())} == parents
            assert fam.parents == parents
            assert margins.tolist() == list(fam.margins) == loop_margins  # bit for bit
            # the Carleson numerator as stopping-audit adds it: cube integrals in member order
            integrals = [w.values.reshape(1 << (d * k), -1).sum(axis=1) * g.cell_volume for k in range(N + 1)]
            total = sum(float(integrals[k][z]) for k, z in zip(level.tolist(), zindex.tolist()))
            assert total == sum(w.integral(Q) for Q in members)
            deep = max(deep, int(level.max()))
        assert deep >= N - 2  # a spike's chain reaches near the finest level

    def test_constant_weight_is_the_root_alone(self):
        g = GridSpec(2, 3)
        ((level, zindex, parent, margins),) = block_rows(g, [StepFunction.constant(g, 0.5)])
        assert level.tolist() == zindex.tolist() == [0] and parent.tolist() == [-1]
        assert margins.tolist() == [0.0]

    def test_child_at_exactly_four_times_its_stopping_parent_is_not_selected(self):
        # S = the first level-3 cube holds 70 in its first cell and 10 in its
        # other seven: its average 17.5 exceeds 4x the root's 3.0625, and the
        # 70 cell sits at exactly 4x S's average
        g = GridSpec(1, 6)
        vals = np.ones(g.cells)
        vals[:8] = [70.0] + [10.0] * 7
        S = g.cube(3, (0,))
        for w in (StepFunction(g, vals), StepFunction(g, vals * 0.75)):
            ((level, zindex, parent, _),) = block_rows(g, [w])
            assert list(zip(level.tolist(), zindex.tolist())) == [(0, 0), (3, 0)]
            assert build_stopping_family(w, g.root()).parents == {S: g.root()}
        vals[0] = 70.0 + 1e-12
        ((level, zindex, parent, _),) = block_rows(g, [StepFunction(g, vals)])
        assert list(zip(level.tolist(), zindex.tolist())) == [(0, 0), (3, 0), (6, 0)]
        assert parent.tolist() == [-1, 0, 1]

    def test_stopping_audit_rows_match_member_loop(self, tmp_path):
        obj = {"verb": "stopping-audit", "grid": {"d": 1, "N": 9}, "seed": 21, "params": {"count": 7}}
        run(parse_config(obj), str(tmp_path))
        lines = (tmp_path / "stopping_audit.csv").read_text().strip().split("\n")[1:]
        g = GridSpec(1, 9)
        for i, line in enumerate(lines):
            w = cascade_weight(g, 21 + i, 0.6)
            members, _, margins = member_loop_stopping_family(w, g.root())
            ainf = ainfty_characteristic(w).value
            carleson = sum(w.integral(Q) for Q in members) / (ainf * w.integral())
            want = [i, max(margins), carleson, ainf, len(members), max(Q.level for Q in members)]
            assert line == ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in want)
