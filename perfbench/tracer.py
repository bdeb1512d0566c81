"""Span tracer and the shims that put it around the program's layers.

Spans are recorded from outside the package. Each shim replaces one
binding site (a module or class attribute that the program looks up at
call time) with a wrapper that opens a span, calls the original and
closes the span. A span is (name, parent, start, end); parentage gives
iteration counts, e.g. projections under a ``dca.ridge`` span are ridge
iterations. A few shims only count calls ("tallies"), keyed by the
innermost open span, where a span per call would hide its time inside a
layer's self time.

Worker processes forked by the sweep inherit the installed shims. Each
worker appends its spans to a file in the spill directory after every
top-level span; the parent absorbs those files under its own ``sweep``
span. ``time.perf_counter`` reads the system-wide monotonic clock on
Linux, so worker spans sit on the parent's time line.
"""

import functools
import glob
import importlib
import os
import struct
import time
from array import array

import numpy as np

NAMES = (
    "sweep",
    "estimator.validate",
    "dca.run",
    "dca.target",
    "dca.ridge",
    "dca.sparse",
    "dca.exact",
    "dca.project",
    "dca.entropy",
    "dca.stationarity",
    "dca.problem_build",
    "linops.pinv",
    "probability.validate",
    "probability.mi",
    "probability.bayes",
    "baseline.point",
)
NAME_ID = {n: i for i, n in enumerate(NAMES)}

EVENTS = ("outer_iters", "fallback_steps", "escalation", "project_cols", "sparse_grad", "sparse_obj", "grad_f")
EVENT_ID = {e: i for i, e in enumerate(EVENTS)}

# (span name, module, attribute path). Every binding site the program
# calls each layer through at this version of the package.
SPAN_SITES = (
    ("dca.run", "pfdca.sweep", "dca_run"),
    ("dca.run", "pfdca.estimator", "dca_run"),
    ("estimator.validate", "pfdca.estimator", "check_joint_matrix"),
    ("dca.target", "pfdca.dca", "_compute_c_arr"),
    ("dca.ridge", "pfdca.dca", "_ridge_descent"),
    ("dca.sparse", "pfdca.dca", "_sparse_descent"),
    ("dca.exact", "pfdca.dca", "_surrogate_descent"),
    ("dca.project", "pfdca.dca", "_simplex_project_columns"),
    ("dca.entropy", "pfdca.dca", "_col_entropies"),
    ("dca.entropy", "pfdca.dca", "_neg_plogp_sum"),
    ("dca.stationarity", "pfdca.dca", "stationarity_gap"),
    ("dca.stationarity", "pfdca.baseline", "stationarity_gap"),
    ("dca.problem_build", "pfdca.dca", "_Problem.build"),
    ("linops.pinv", "pfdca.linops", "MarkovOperator._svd"),
    ("linops.pinv", "pfdca.linops", "MarkovOperator.pinv_block"),
    ("probability.validate", "pfdca.probability", "DiscreteDist.__post_init__"),
    ("probability.validate", "pfdca.probability", "CondDist.__post_init__"),
    ("probability.validate", "pfdca.probability", "JointXY.__post_init__"),
    ("probability.mi", "pfdca.baseline", "mutual_information"),
    ("probability.bayes", "pfdca.baseline", "bayes_invert"),
    ("probability.bayes", "pfdca.dca", "bayes_invert"),
    ("baseline.point", "pfdca.baseline", "_point"),
)

# (event, module, attribute path): call counters without a span.
TALLY_SITES = (
    ("sparse_grad", "pfdca.dca", "_sparse_gradient"),
    ("sparse_obj", "pfdca.dca", "_sparse_objective"),
    ("grad_f", "pfdca.dca", "_grad_f_arr"),
)

# The exact step's iteration budget on a plain fallback step; a call with
# any other budget is an escalation.
PLAIN_EXACT_BUDGET = ("pfdca.dca", "_SURROGATE_STEP_ITERS")

_HEADER = struct.Struct("<qq")


class Tracer:
    """Spans kept in flat arrays, written out when the run ends."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        # Parallel children of these spans ran in worker processes and may overlap.
        self.parallel_parents = set()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.pid = os.getpid()
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.tallies = {}

    def enter(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def exit(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()
        if not self.stack and self.pid != self.owner:
            self._spill()

    def tally(self, event_id: int, n: int = 1):
        key = (self.name[self.stack[-1]] if self.stack else -1, event_id)
        self.tallies[key] = self.tallies.get(key, 0) + n

    def _spill(self):
        keys = array("i", [k for key in self.tallies for k in key])
        counts = array("q", self.tallies.values())
        with open(os.path.join(self.spill_dir, f"spans-{self.pid}.bin"), "ab") as fh:
            fh.write(_HEADER.pack(len(self.name), len(counts)))
            for arr in (self.name, self.parent, self.start, self.end, keys, counts):
                fh.write(arr.tobytes())
        self._reset()

    def absorb_spills(self, parent_span: int):
        """Move worker spans into this tracer, under ``parent_span``."""
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.bin"))):
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
            pos = 0
            while pos < len(data):
                n, m = _HEADER.unpack_from(data, pos)
                pos += _HEADER.size
                parts = []
                for code, size in (("i", n), ("i", n), ("d", n), ("d", n), ("i", 2 * m), ("q", m)):
                    arr = array(code)
                    nbytes = size * arr.itemsize
                    arr.frombytes(data[pos:pos + nbytes])
                    pos += nbytes
                    parts.append(arr)
                names, parents, starts, ends, keys, counts = parts
                offset = len(self.name)
                self.name.extend(names)
                self.parent.extend(array("i", (parent_span if p < 0 else p + offset for p in parents)))
                self.start.extend(starts)
                self.end.extend(ends)
                for k, c in zip(zip(keys[0::2], keys[1::2]), counts):
                    self.tallies[k] = self.tallies.get(k, 0) + c
        self.parallel_parents.add(parent_span)

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name, parent, start, end) of spans lo..hi as NumPy arrays."""
        hi = len(self.name) if hi is None else hi
        return (
            np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
        )

    def write(self, path: str):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(NAMES), name=name, parent=parent, start=start, end=end)


def _resolve(module: str, path: str):
    """(owner object, attribute name, raw attribute) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def _rewrap(raw, attr: str, owner, make):
    """Apply ``make`` to the function behind a plain, static or cached attribute."""
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    if isinstance(raw, functools.cached_property):
        prop = functools.cached_property(make(raw.func))
        prop.__set_name__(owner, attr)
        return prop
    return make(raw)


class Shims:
    """Installs and removes the tracing wrappers at every binding site."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent = []
        self._swaps = []   # (owner, attr, original, wrapped)
        budget = _resolve(*PLAIN_EXACT_BUDGET)
        if budget is None:
            self.absent.append(".".join(PLAIN_EXACT_BUDGET))
        self._plain_budget = None if budget is None else budget[2]
        for name, module, path in SPAN_SITES:
            self._add(module, path, lambda fn, nid=NAME_ID[name]: self._span(nid, fn))
        for event, module, path in TALLY_SITES:
            self._add(module, path, lambda fn, eid=EVENT_ID[event]: self._counter(eid, fn))

    def _add(self, module, path, make):
        found = _resolve(module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return
        owner, attr, raw = found
        self._swaps.append((owner, attr, raw, _rewrap(raw, attr, owner, make)))

    def install(self):
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, raw, _ in self._swaps:
            setattr(owner, attr, raw)

    def _span(self, nid, fn):
        enter, leave, tally = self.tracer.enter, self.tracer.exit, self.tracer.tally
        if NAMES[nid] == "dca.run":
            outer, fallback = EVENT_ID["outer_iters"], EVENT_ID["fallback_steps"]

            def shim(*args, **kwargs):
                i = enter(nid)
                try:
                    res = fn(*args, **kwargs)
                    tally(outer, res.iterations)
                    tally(fallback, getattr(res, "fallback_steps", 0))
                    return res
                finally:
                    leave(i)

        elif NAMES[nid] == "dca.exact":
            escalation, plain = EVENT_ID["escalation"], self._plain_budget

            def shim(*args, **kwargs):
                i = enter(nid)
                try:
                    budget = kwargs.get("max_iter", args[5] if len(args) > 5 else None)
                    if plain is not None and budget is not None and budget != plain:
                        tally(escalation)
                    return fn(*args, **kwargs)
                finally:
                    leave(i)

        elif NAMES[nid] == "dca.project":
            cols = EVENT_ID["project_cols"]

            def shim(*args, **kwargs):
                i = enter(nid)
                try:
                    tally(cols, args[0].shape[1])
                    return fn(*args, **kwargs)
                finally:
                    leave(i)

        else:

            def shim(*args, **kwargs):
                i = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(i)

        return shim

    def _counter(self, eid, fn):
        tally = self.tracer.tally

        def shim(*args, **kwargs):
            tally(eid)
            return fn(*args, **kwargs)

        return shim


def aggregate(tracer: Tracer, lo: int, hi: int, tallies: dict) -> dict:
    """Per-layer totals of spans lo..hi and the given tallies.

    Self time is a span's duration minus the part of it its children
    cover: their sum, or their union where they ran in parallel.
    """
    name, parent, start, end = tracer.arrays(lo, hi)
    dur = end - start
    local_parent = np.where(parent >= lo, parent - lo, -1)
    has_parent = local_parent >= 0
    covered = np.bincount(local_parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    for p in tracer.parallel_parents:
        if lo <= p < hi:
            kids = np.flatnonzero(local_parent == p - lo)
            covered[p - lo] = _union_length(start[kids], end[kids])
    self_time = dur - covered
    parent_name = np.where(has_parent, name[np.maximum(local_parent, 0)], -1)
    sweep_cells = (name == NAME_ID["dca.run"]) & (parent_name == NAME_ID["sweep"])

    def child_count(parent_layer, child_layer):
        return int(np.count_nonzero((name == NAME_ID[child_layer]) & (parent_name == NAME_ID[parent_layer])))

    return {
        "calls": np.bincount(name, minlength=len(NAMES)),
        "self_s": np.bincount(name, weights=self_time, minlength=len(NAMES)),
        "root_s": float(dur[~has_parent].sum()),
        "sweep_s": float(dur[name == NAME_ID["sweep"]].sum()),
        "sweep_cell_s": float(dur[sweep_cells].sum()),
        "sweep_cells": int(np.count_nonzero(sweep_cells)),
        "spans": len(dur),
        "child_count": child_count,
        "tally": lambda layer, event: tallies.get((NAME_ID[layer], EVENT_ID[event]), 0),
    }


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total
