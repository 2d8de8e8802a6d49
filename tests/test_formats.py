"""Exact bytes of each serialised form on a small instance.

The strings below are the forms' output as first written; a change of key
order, float formatting or cube layout shows up here before it reaches a
result file.
"""

import hashlib
import math

import pytest

from czlab.characteristics import ainfty_characteristic, ap_characteristic
from czlab.dyadics import GridSpec, StepFunction
from czlab.lerner import lerner_decompose
from czlab.positive import TauCoefficients
from czlab.shifts import HaarShift, build_paraproduct, build_petermichl, build_random_shift
from czlab.stopping import build_stopping_family

G1 = GridSpec(1, 2)
G2 = GridSpec(2, 1)
G3 = GridSpec(1, 3)
SPIKES = [1.0, 2.0, 4.0, 8.0]

FORMS = {
    "step": (
        lambda: StepFunction(GridSpec(1, 2, (0.25,)), [1.5, -2.0, 0.0, 3.25]),
        '{"d":1,"N":2,"shift":[0.25],"values":[1.5,-2.0,0.0,3.25]}',
    ),
    "petermichl": (
        lambda: build_petermichl(G1),
        '{"m":1,"n":0,"cancellative":true,"d":1,"N":2,"shift":[0.0],"entries":[{"cube":'
        '{"level":0,"coords":[0]},"pairs":[{"rprime":{"level":0,"coords":[0]},"qprime":'
        '{"level":1,"coords":[0]},"h_vals":[1.0,-1.0],"g_vals":[1.0,-1.0]},{"rprime":'
        '{"level":0,"coords":[0]},"qprime":{"level":1,"coords":[1]},"h_vals":[1.0,-1.0],'
        '"g_vals":[-1.0,1.0]}]}]}',
    ),
    "random_d2": (
        lambda: build_random_shift(0, 0, 3, G2),
        '{"m":0,"n":0,"cancellative":true,"d":2,"N":1,"shift":[0.0,0.0],"entries":[{"cube":'
        '{"level":0,"coords":[0,0]},"pairs":[{"rprime":{"level":0,"coords":[0,0]},"qprime":'
        '{"level":0,"coords":[0,0]},"h_vals":[0.9236104097556707,-1.0,0.244481328291086,'
        '-0.16809173804675662],"g_vals":[0.21504170513665571,0.398810896445976,-1.0,'
        '0.3861473984173682]}]}]}',
    ),
    "random_levels": (
        lambda: build_random_shift(1, 0, 3, G3, cancellative=False),
        '{"m":1,"n":0,"cancellative":false,"d":1,"N":3,"shift":[0.0],"entries":[{"cube":'
        '{"level":0,"coords":[0]},"pairs":[{"rprime":{"level":0,"coords":[0]},"qprime":'
        '{"level":1,"coords":[0]},"h_vals":[0.7985863156470451,-1.0],"g_vals":'
        '[0.7363882148907648,-1.0]},{"rprime":{"level":0,"coords":[0]},"qprime":{"level":1,'
        '"coords":[1]},"h_vals":[-1.0,-0.4763006743798474],"g_vals":[-1.0,-0.11481879716773159]}'
        ']},{"cube":{"level":1,"coords":[0]},"pairs":[{"rprime":{"level":1,"coords":[0]},'
        '"qprime":{"level":2,"coords":[0]},"h_vals":[-0.2603711110823505,1.0],"g_vals":'
        '[0.6402918203711983,-1.0]},{"rprime":{"level":1,"coords":[0]},"qprime":{"level":2,'
        '"coords":[1]},"h_vals":[-0.42105973603435576,-1.0],"g_vals":[-1.0,-0.37037461316615755]}'
        ']},{"cube":{"level":1,"coords":[1]},"pairs":[{"rprime":{"level":1,"coords":[1]},'
        '"qprime":{"level":2,"coords":[2]},"h_vals":[1.0,-0.49498057718215477],"g_vals":'
        '[1.0,-0.2086142662542569]},{"rprime":{"level":1,"coords":[1]},"qprime":{"level":2,'
        '"coords":[3]},"h_vals":[0.015693645908341308,1.0],"g_vals":[1.0,-0.9268457474490189]}'
        ']}]}',
    ),
    "paraproduct": (
        lambda: build_paraproduct({G1.cube(0, (0,)): 0.5, G1.cube(1, (1,)): -0.25}, G1),
        '{"m":0,"n":0,"cancellative":false,"d":1,"N":2,"shift":[0.0],"entries":[{"cube":'
        '{"level":0,"coords":[0]},"pairs":[{"rprime":{"level":0,"coords":[0]},"qprime":'
        '{"level":0,"coords":[0]},"h_vals":[1.0,1.0],"g_vals":[0.5,-0.5]}]},{"cube":'
        '{"level":1,"coords":[1]},"pairs":[{"rprime":{"level":1,"coords":[1]},"qprime":'
        '{"level":1,"coords":[1]},"h_vals":[1.0,1.0],"g_vals":[-0.35355339059327373,'
        '0.35355339059327373]}]}]}',
    ),
    "tau": (
        lambda: TauCoefficients(G2, {G2.root(): 0.5, G2.cube(1, (1, 0)): 2.0}),
        '[{"cube":{"level":0,"coords":[0,0]},"tau":0.5},{"cube":{"level":1,"coords":[1,0]},'
        '"tau":2.0}]',
    ),
    "ap_report": (
        lambda: ap_characteristic(StepFunction(G1, SPIKES), 2.0),
        '{"value":1.7578125,"witness":{"level":0,"coords":[0]},"p":2.0}',
    ),
    "ainfty_report": (
        lambda: ainfty_characteristic(StepFunction(G1, SPIKES)),
        '{"value":1.4333333333333333,"witness":{"level":0,"coords":[0]},"p":"inf"}',
    ),
    "decomposition": (
        lambda: lerner_decompose(StepFunction(G3, [0.0] * 3 + [1.0] + [0.0] * 3 + [9.0]), G3.root()),
        '{"q0":{"level":0,"coords":[0]},"median":0.0,"generations":[[{"cube":{"level":2,'
        '"coords":[3]},"omega_parent":4.5}]]}',
    ),
    "stopping_family": (
        lambda: build_stopping_family(StepFunction(G3, [1.0] * 7 + [40.0]), G3.root()),
        '{"root":{"level":0,"coords":[0]},"nodes":[{"cube":{"level":0,"coords":[0]},'
        '"parent":null},{"cube":{"level":3,"coords":[7]},"parent":0}]}',
    ),
}


@pytest.mark.parametrize("name", sorted(FORMS))
def test_pinned_bytes(name):
    build, text = FORMS[name]
    assert build().to_json() == text


def _gapped_paraproduct():
    """A d = 2 paraproduct on the cubes of levels 0-2 whose Z-index is not 1 mod 3."""
    g = GridSpec(2, 3)
    return build_paraproduct(
        {
            Q: 0.5 * math.sqrt(Q.volume) * (-1) ** Q.zindex
            for Q in g.all_cubes()
            if Q.level < 3 and Q.zindex % 3 != 1
        },
        g,
    )


# Larger shifts, too long to list: their JSON's length and SHA-256.
DIGESTS = {
    "random (1, 1) d=2": (
        lambda: build_random_shift(1, 1, 4, GridSpec(2, 3)),
        18222,
        "0840ef95e33cc117ac066fbeefc0fb43b006473b7d49afbf8c77c04dbb8fbebb",
    ),
    "noncancellative (0, 1) d=3": (
        lambda: build_random_shift(0, 1, 5, GridSpec(3, 2), cancellative=False),
        3248,
        "a215793ee68f574bee3518f5e4c7074971aa1d74a6770f138e7d395ca89fa9fb",
    ),
    "gapped paraproduct d=2": (
        _gapped_paraproduct,
        2716,
        "cbf7f20ff93ddfa3135c510f4b49213a289ca041bab4b540e15c1caf04acbb12",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_pinned_shift_digests(name):
    build, length, digest = DIGESTS[name]
    text = build().to_json()
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (length, digest)
    assert HaarShift.from_json(text).to_json() == text


READERS = {
    "step": StepFunction.from_json,
    "petermichl": HaarShift.from_json,
    "random_d2": HaarShift.from_json,
    "random_levels": HaarShift.from_json,
    "paraproduct": HaarShift.from_json,
    "tau": lambda text: TauCoefficients.from_json(G2, text),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_round_trip_the_pinned_bytes(name):
    text = FORMS[name][1]
    assert READERS[name](text).to_json() == text
