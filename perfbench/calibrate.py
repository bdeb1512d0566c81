"""The machine's speed while a timing runs, from a fixed reference kernel.

On a shared virtual machine, such as the 2-vCPU VM the figures in
NOTES.md come from, a vCPU can switch between a fast and a slow state
(there about 1.7x apart for this kind of code) every few tens to
hundreds of milliseconds, in a mix that drifts over seconds to minutes.
A process's CPU time follows its wall time through it: the CPU itself
runs slower. So a wall time says as much about the mix during the run
as about the program, and two runs of the same code differ by more than
any bound worth setting.

Every timed interval is therefore interleaved with *marks*: one run of a
small fixed kernel each, timed. The time between two marks is converted
to reference seconds by the kernel's speed at both ends:

    reference seconds = wall seconds x REFERENCE_S / mean(kernel unit at both ends)

and the marks' own time is left out. A change that makes the program
faster moves reference seconds in the same proportion as wall seconds;
a change of the machine's state moves the program and the kernel alike
and cancels out. Marks must be close together for that, closer than the
state switches, so a hook puts one before each call through a binding
site the program makes many times (a solver run, an outer iteration, a
baseline point) when ``INTERVAL_S`` has passed since the last.

The kernel is the benchmark's own code and never calls the program. It
does what the program's hot paths do: small NumPy array operations
(column sums, sorts, cumulative sums, logarithms, matrix products)
driven from a Python loop.
"""

import importlib
import os
import struct
import time
from array import array

import numpy as np

# One kernel unit in the fast state of the 2-vCPU VM the recorded figures
# come from. It only sets the scale: on that machine a reference second
# is a wall second in the fast state.
REFERENCE_S = 0.0005
# Least time between two marks the hooks make.
INTERVAL_S = 0.01
_ROWS, _COLS, _STEPS = 4, 5, 20
_MARK = struct.Struct("<dd")

# (module, attribute): binding sites the program calls many times per
# operation, where the hooks put marks: each solver run, each outer
# iteration of a run (its relaxed target), each baseline point.
HOOK_SITES = (
    ("pfdca.sweep", "dca_run"),
    ("pfdca.dca", "_compute_c_arr"),
    ("pfdca.baseline", "_point"),
)


def _unit(a: np.ndarray, w: np.ndarray) -> float:
    acc = 0.0
    k = np.arange(1, _ROWS + 1)[:, None]
    for _ in range(_STEPS):
        b = a / a.sum(axis=0)
        s = np.sort(b, axis=0)[::-1]
        theta = np.max((np.cumsum(s, axis=0) - 1.0) / k, axis=0)
        p = np.maximum(b - theta * 0.01, 1e-12)
        acc += float(-(p * np.log(p)).sum()) + float((w @ p).max())
    return acc


class SpeedLog:
    """Marks of this process; forked workers append theirs to files in ``spill_dir``."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        rng = np.random.default_rng(0)
        self._a = rng.random((_ROWS, _COLS)) + 0.1
        self._w = rng.random((_ROWS, _ROWS))
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        for _ in range(5):   # warm-up, not kept
            self.mark()
        self._reset()

    def _reset(self):
        self.start = array("d")
        self.end = array("d")
        self._last = -float("inf")

    def mark(self) -> float:
        """Run one kernel unit now and log it; returns its seconds."""
        t0 = time.perf_counter()
        _unit(self._a, self._w)
        t1 = time.perf_counter()
        self._last = t1
        if os.getpid() == self.owner:
            self.start.append(t0)
            self.end.append(t1)
        else:
            with open(os.path.join(self.spill_dir, f"speed-{os.getpid()}.bin"), "ab") as fh:
                fh.write(_MARK.pack(t0, t1))
        return t1 - t0

    def mark_if_due(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.mark()

    def since(self, i: int) -> tuple:
        """(starts, ends) of this process's marks from index i on."""
        return np.array(self.start[i:]), np.array(self.end[i:])

    def take_worker_marks(self) -> list:
        """(starts, ends) of each worker's marks since the last call; the files are removed."""
        logs = []
        for name in sorted(os.listdir(self.spill_dir)):
            if not name.startswith("speed-"):
                continue
            path = os.path.join(self.spill_dir, name)
            with open(path, "rb") as fh:
                data = np.frombuffer(fh.read(), dtype="<f8").reshape(-1, 2)   # _MARK records
            os.remove(path)
            logs.append((data[:, 0], data[:, 1]))
        return logs


def scale(unit_before: float, unit_after: float) -> float:
    """Reference seconds per wall second between two marks."""
    return REFERENCE_S / ((unit_before + unit_after) / 2.0)


def gaps(starts: np.ndarray, ends: np.ndarray) -> tuple:
    """(reference seconds, wall seconds) of the time between consecutive marks."""
    unit = ends - starts
    wall = starts[1:] - ends[:-1]
    return float(wall @ (REFERENCE_S / ((unit[:-1] + unit[1:]) / 2.0))), float(wall.sum())


def interval_reference_s(t0: float, t1: float, jobs: int, logs: list) -> float:
    """Reference seconds of the wall interval t0..t1.

    ``logs`` holds the marks of the processes that did the interval's
    work, ``jobs`` how many of them ran at once; a serial interval's log
    has a mark just before t0 and one just after t1. The time of the
    marks inside the interval is taken out and the rest is scaled by the
    work-weighted speed between marks.
    """
    ref = wall = marks = 0.0
    for starts, ends in logs:
        if len(starts) > 1:
            r, w = gaps(starts, ends)
            ref, wall = ref + r, wall + w
        inside = (starts >= t0) & (ends <= t1)
        marks += float((ends - starts)[inside].sum())
    return (t1 - t0 - marks / jobs) * ref / wall


class Hooks:
    """Puts a mark before each call through the HOOK_SITES while installed."""

    def __init__(self, log: SpeedLog):
        self.absent = []
        self._swaps = []
        for module, attr in HOOK_SITES:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue

            def hooked(*args, _fn=fn, **kwargs):
                log.mark_if_due()
                return _fn(*args, **kwargs)

            self._swaps.append((owner, attr, fn, hooked))

    def __enter__(self):
        for owner, attr, _, hooked in self._swaps:
            setattr(owner, attr, hooked)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn, _ in self._swaps:
            setattr(owner, attr, fn)
