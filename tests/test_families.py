import numpy as np
import pytest

from czlab.dyadics import GridSpec
from czlab.families import _cascade_rows, _random_step_rows, cascade_weight, random_step

from oracles import axis_reduced_cascade_weight, level_loop_cascade_weight


@pytest.mark.parametrize("d,N", [(1, 11), (2, 5), (3, 3)])
@pytest.mark.parametrize("volatility", [0.0, 0.5, 0.9])
def test_cascade_weight_matches_axis_reductions(d, N, volatility):
    g = GridSpec(d, N)
    for seed in range(4):
        got = cascade_weight(g, seed, volatility).values
        assert np.array_equal(got, axis_reduced_cascade_weight(g, seed, volatility))


# N = 10 only in d = 1: at d = 2, 3 that grid has 2^20 and 2^30 cells
@pytest.mark.parametrize(
    "d,N", [(1, 0), (1, 1), (1, 10), (2, 0), (2, 1), (2, 5), (3, 0), (3, 1), (3, 3)]
)
@pytest.mark.parametrize("volatility", [0.0, 0.6, 0.95])
def test_cascade_rows_match_one_level_at_a_time(d, N, volatility):
    g = GridSpec(d, N)
    seeds = [3, 0, 41, 7]
    rows = _cascade_rows(g, seeds, volatility)
    assert rows.shape == (len(seeds), g.cells)
    for row, seed in zip(rows, seeds):
        assert np.array_equal(row, level_loop_cascade_weight(g, seed, volatility))
        assert np.array_equal(row, cascade_weight(g, seed, volatility).values)


@pytest.mark.parametrize("spikes", [0, 3])
def test_random_step_rows_match_one_draw_each(spikes):
    g = GridSpec(2, 3)
    seeds = [5, 6, 1005]
    rows = _random_step_rows(g, seeds, spikes)
    for row, seed in zip(rows, seeds):
        rng = np.random.default_rng(seed)
        want = rng.standard_normal(g.cells)
        for _ in range(spikes):
            want[rng.integers(0, g.cells)] *= 10.0
        assert np.array_equal(row, want)
        assert np.array_equal(row, random_step(g, seed, spikes).values)
