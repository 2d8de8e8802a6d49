"""Spans and counters recorded around czlab's public functions.

The tracer lives entirely in the benchmark: `install` replaces each traced
function, in its defining module and in every czlab module (or class) that
imported it by name, with a wrapper that records a span (name, start, end,
parent span, grid depth N) or a count.  Spans are kept in memory in columnar
arrays and written out once, when the run ends.  `uninstall` puts the
original functions back, so untraced repetitions in the same process run the
unmodified library.
"""

from __future__ import annotations

import array
import collections
import functools
import sys
import time

import numpy as np

# Shift application spans counted by `normlab.op_apps_per_estimate`.
SHIFT_APPS = ("shifts.HaarShift.apply", "shifts.HaarShift.truncation")
# Spans that produce one norm estimate; nested ones count as part of the outer.
NORM_SPANS = ("normlab.norm_lp_lower", "normlab.norm_p2", "normlab.weak_norm_estimate")


def self_times(start, end, parent) -> np.ndarray:
    """Per span: its duration minus the union of its direct children.

    `start` and `end` are integer nanoseconds, `parent` the index of the
    parent span or -1.  Children are clipped to their parent's interval, so
    overlapping, nested and zero-length children are all handled.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    out = (end - start).astype(np.float64)
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return out
    child = child[np.lexsort((start[child], parent[child]))]
    par = parent[child]
    s = np.maximum(start[child], start[par])
    e = np.maximum(np.minimum(end[child], end[par]), s)
    # Lay the groups of siblings end to end on one time axis, so a single
    # running maximum of end times never crosses from one group into the next.
    t0 = int(start.min())
    span = int(end.max()) - t0 + 1
    group = np.cumsum(np.r_[True, par[1:] != par[:-1]]) - 1
    s = s - t0 + group * span
    e = e - t0 + group * span
    reached = np.maximum.accumulate(e)
    before = np.r_[np.int64(-1), reached[:-1]]
    covered = np.maximum(e - np.maximum(s, before), 0)
    out -= np.bincount(par, weights=covered, minlength=out.size)
    return out


def _grid_depth(args) -> int:
    """Grid depth N of the first argument that carries a grid, else -1."""
    for a in args:
        n = getattr(getattr(a, "grid", a), "N", None)
        if isinstance(n, int):
            return n
    return -1


class Tracer:
    """In-memory span table plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.depth_n = array.array("b")
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._open_norms = 0
        self._p2_seen: dict[tuple, tuple] = {}
        self._shift_sizes: dict[int, tuple] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, depth: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.depth_n.append(depth)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def columns(self) -> dict:
        """The span table as numpy arrays (views, valid until the next span)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "grid_N": np.frombuffer(self.depth_n, dtype=np.int8),
        }

    def mark(self) -> int:
        """Index of the next span; brackets the spans of one repetition."""
        return len(self.start)

    def reset_counts(self):
        self.counts = collections.Counter()
        self._p2_seen = {}

    # -- hooks for specific functions ---------------------------------------

    def shift_bytes(self, S, truncation: bool) -> int:
        """Computed bytes moved by one application of the shift S.

        8 * (2 cells for the input and its integral pyramid, 4 * 2^d * P for
        the packed in/out indices and coefficients of the P pairs, and one
        cell array per expanded level: the L levels that carry coefficients
        for `apply`, 3 (N + 1) for `truncation`, which scans every cutoff
        with an accumulate, an absolute value and a running maximum).
        """
        key = id(S)
        if key not in self._shift_sizes:
            pairs = sum(len(v) for v in S.entries.values())
            levels = len({Q.level for Q in S.entries})
            self._shift_sizes[key] = (S, pairs, levels)
        _, pairs, levels = self._shift_sizes[key]
        grid = S.grid
        expanded = 3 * (grid.N + 1) if truncation else levels
        return 8 * (grid.cells * (2 + expanded) + 4 * (1 << grid.d) * pairs)

    def note_p2_call(self, op, w, sigma):
        key = (id(op), id(w), id(sigma))
        # keep the objects alive so their ids cannot be reused in this run
        self._p2_seen.setdefault(key, (op, w, sigma))
        self.counts["normlab.norm_p2.distinct"] = len(self._p2_seen)


def _span_wrapper(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap fn in a span; `before(args)` and `after(result)` feed counters."""
    nid = tracer.name_id(name)
    is_norm = name in NORM_SPANS
    is_shift_app = name in SHIFT_APPS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        if is_shift_app and tracer._open_norms:
            tracer.counts["normlab.op_apps_under_norm"] += 1
        if is_norm:
            if tracer._open_norms == 0:
                tracer.counts["normlab.estimates"] += 1
            tracer._open_norms += 1
        idx = tracer.open(nid, _grid_depth(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            if is_norm:
                tracer._open_norms -= 1
        if after is not None:
            after(result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _ainfty_wrapper(tracer: Tracer, fn):
    """ainfty_characteristic gets one span name per mode."""
    dyadic = _span_wrapper(tracer, "characteristics.ainfty_characteristic.dyadic", fn)
    centered = _span_wrapper(tracer, "characteristics.ainfty_characteristic.centered", fn)

    @functools.wraps(fn)
    def wrapper(w, mode="dyadic"):
        return (centered if mode == "centered" else dyadic)(w, mode)

    return wrapper


def _wrappers(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced function."""
    from czlab import (
        characteristics,
        cli,
        config,
        dyadics,
        families,
        lerner,
        normlab,
        positive,
        shifts,
        stopping,
    )
    from czlab.normlab import NonConvergenceError

    out = []

    def span(owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr)
        out.append((owner, attr, _span_wrapper(tracer, name, fn, before, after)))

    def add(key, amount):
        tracer.counts[key] += amount

    # dyadics
    span(dyadics, "level_integrals", "dyadics.level_integrals",
         before=lambda a: add("dyadics.level_integrals.hits", a[0]._sums is not None))
    span(dyadics, "repeat_to_cells", "dyadics.repeat_to_cells")
    out.append((dyadics.StepFunction, "__init__",
                _count_wrapper(tracer, "dyadics.StepFunction.init.calls",
                               dyadics.StepFunction.__init__)))
    # shifts
    span(shifts.HaarShift, "apply", "shifts.HaarShift.apply",
         before=lambda a: add("shifts.apply.bytes_computed", tracer.shift_bytes(a[0], False)))
    span(shifts.HaarShift, "truncation", "shifts.HaarShift.truncation",
         before=lambda a: add("shifts.apply.bytes_computed", tracer.shift_bytes(a[0], True)))
    span(shifts.HaarShift, "adjoint", "shifts.HaarShift.adjoint")
    for fn in ("build_random_shift", "build_petermichl", "hilbert_average", "hilbert_direct"):
        span(shifts, fn, f"shifts.{fn}")
    # normlab
    span(normlab, "norm_lp_lower", "normlab.norm_lp_lower",
         after=lambda r: add("normlab.norm_lp_lower.evals", r.iterations))

    p2 = normlab.norm_p2

    @functools.wraps(p2)
    def counted_p2(op, w, sigma, *args, **kwargs):
        tracer.note_p2_call(op, w, sigma)
        try:
            return p2(op, w, sigma, *args, **kwargs)
        except NonConvergenceError:
            add("normlab.norm_p2.nonconvergence", 1)
            raise

    out.append((normlab, "norm_p2", _span_wrapper(
        tracer, "normlab.norm_p2", counted_p2,
        after=lambda r: add("normlab.norm_p2.iterations", r.iterations))))
    span(normlab, "weak_norm_estimate", "normlab.weak_norm_estimate")
    span(normlab, "sharpness_sweep", "normlab.sharpness_sweep")
    # characteristics
    for fn in ("ap_characteristic", "joint_ap", "dual_weight", "maximal_function"):
        span(characteristics, fn, f"characteristics.{fn}")
    out.append((characteristics, "ainfty_characteristic",
                _ainfty_wrapper(tracer, characteristics.ainfty_characteristic)))
    # positive, lerner, stopping
    for fn in ("sawyer_testing", "apply_positive"):
        span(positive, fn, f"positive.{fn}")
    span(lerner, "lerner_decompose", "lerner.lerner_decompose",
         after=lambda r: add("lerner.generation_cubes", sum(len(g) for g in r.generations)))
    for fn in ("median", "oscillation", "local_sharp_maximal"):
        span(lerner, fn, f"lerner.{fn}")
    span(stopping, "build_stopping_family", "stopping.build_stopping_family",
         after=lambda r: add("stopping.family_cubes", len(r.parents) + 1))
    span(stopping, "stopping_children", "stopping.stopping_children")
    # families, config, cli
    for fn in families.__all__:
        span(families, fn, "families.generate")
    span(config, "parse_config", "config.parse_config")
    span(cli, "run", "cli.run")
    return out


def install(tracer: Tracer):
    """Patch every traced function wherever czlab bound it; returns an undo list."""
    undo = []
    wrappers = _wrappers(tracer)  # imports every traced czlab module
    modules = [m for name, m in sys.modules.items() if name == "czlab" or name.startswith("czlab.")]
    for owner, attr, wrapper in wrappers:
        original = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) else modules
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    undo.append((target, name, original))
                    setattr(target, name, wrapper)
    return undo


def uninstall(undo):
    for target, name, original in reversed(undo):
        setattr(target, name, original)
