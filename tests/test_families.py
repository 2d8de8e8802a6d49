import numpy as np
import pytest

from czlab.dyadics import GridSpec
from czlab.families import cascade_weight

from oracles import axis_reduced_cascade_weight


@pytest.mark.parametrize("d,N", [(1, 11), (2, 5), (3, 3)])
@pytest.mark.parametrize("volatility", [0.0, 0.5, 0.9])
def test_cascade_weight_matches_axis_reductions(d, N, volatility):
    g = GridSpec(d, N)
    for seed in range(4):
        got = cascade_weight(g, seed, volatility).values
        assert np.array_equal(got, axis_reduced_cascade_weight(g, seed, volatility))
