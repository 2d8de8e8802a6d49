"""Span and self-time arithmetic of the benchmark tracer.

Run with `PYTHONPATH=src python -m pytest -q bench/test_spans.py`.
"""

import numpy as np

from spans import Tracer, install, self_times, uninstall


def test_nested_children_are_subtracted_one_level_at_a_time():
    # A [0,100] > B [10,60] > C [20,30]
    own = self_times([0, 10, 20], [100, 60, 30], [-1, 0, 1])
    assert own.tolist() == [50, 40, 10]


def test_sibling_children_subtract_their_union():
    # disjoint siblings
    own = self_times([0, 10, 40], [100, 30, 70], [-1, 0, 0])
    assert own.tolist() == [50, 20, 30]
    # overlapping siblings cover [10, 70] once
    own = self_times([0, 10, 40], [100, 50, 70], [-1, 0, 0])
    assert own[0] == 40


def test_zero_length_child_subtracts_nothing():
    own = self_times([0, 5, 5], [10, 5, 8], [-1, 0, 0])
    assert own.tolist() == [7, 0, 3]


def test_children_are_clipped_to_their_parent():
    own = self_times([0, 5], [10, 15], [-1, 0])
    assert own.tolist() == [5, 10]


def test_sibling_groups_do_not_leak_into_each_other():
    # two overlapping roots, each with one child; the first root's child ends
    # after the second root's child starts
    own = self_times([0, 50, 0, 10], [100, 100, 100, 20], [-1, 0, -1, 2])
    assert own.tolist() == [50, 50, 90, 10]


def test_install_patches_names_imported_elsewhere_and_uninstall_restores():
    from czlab import characteristics, normlab
    from czlab.dyadics import GridSpec, StepFunction

    original = characteristics.ainfty_characteristic
    tracer = Tracer()
    undo = install(tracer)
    try:
        assert normlab.ainfty_characteristic is characteristics.ainfty_characteristic
        assert normlab.ainfty_characteristic is not original
        w = StepFunction(GridSpec(1, 3), np.arange(1.0, 9.0))
        normlab.ainfty_characteristic(w)
        normlab.ainfty_characteristic(w, "centered")
    finally:
        uninstall(undo)
    assert normlab.ainfty_characteristic is original
    assert characteristics.ainfty_characteristic is original

    names = [tracer.names[i] for i in tracer.name]
    assert names.count("characteristics.ainfty_characteristic.dyadic") == 1
    assert names.count("characteristics.ainfty_characteristic.centered") == 1
    dyadic = names.index("characteristics.ainfty_characteristic.dyadic")
    children = [names[i] for i, par in enumerate(tracer.parent) if par == dyadic]
    assert "dyadics.level_integrals" in children
    assert set(tracer.depth_n) == {3}
    own = self_times(tracer.start, tracer.end, tracer.parent)
    assert (own >= 0).all()
    assert tracer.counts["dyadics.StepFunction.init.calls"] > 0
