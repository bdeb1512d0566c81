"""One measured run of one workload, in an interpreter of its own.

``run.py`` starts this as
``python3 measure.py SPEC WORKDIR --seconds S --trace 0|1``
with the program's sources on ``PYTHONPATH``. The last line of its
output is one JSON report.

A run makes one checked pass first: every solver result is checked in
full, and the pass also warms caches. The timed passes and fits that
follow are compared with it byte for byte. The end-to-end timings are
in reference seconds (see ``calibrate.py``); the traced run's are wall
seconds.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

import pfdca.estimator
import pfdca.sweep
from pfdca import DcaPrivacyFunnel, InnerKind, SweepConfig, load_joint, pareto_frontier, run_sweep
from pfdca.baseline import exhaustive_partitions, greedy_merge_run
from pfdca.sweep import points_to_csv

import calibrate
import tracer as tracing

ENCODER_ATOL = 1e-9        # column sums and negativity of a returned encoder
TRACE_STEP_MAX = 1e-6      # largest loss increase allowed between trace entries
INFO_ATOL = 1e-9           # slack on 0 <= I(Z;Y) <= I(Z;X) <= H(X)
STATIONARY_GAP = 1e-3      # stationarity gap of a stationary converged run (nats)
COVER_BITS = 0.02          # coverage rule of acceptance criterion 1
UTILITY_STEP_BITS = 0.02   # utility grid of frontier_leak_bits
BASELINE_BETA = 1.0        # the baseline command's default
MIN_PASSES = 2
# Fits after a pass run for as long as the pass took, and at least this
# share of the window, so that workloads with short passes still fit
# every cell of a large fit grid within about the window.
FIT_SHARE_MIN = 0.25
MIN_TRACED_PASSES = 2


# ---------------------------------------------------------------------------
# correctness checks


def result_problem(res, h_x_bits: float):
    """Why one solver result fails the checks, or None."""
    m = np.asarray(res.encoder.matrix, dtype=float)
    trace = np.asarray(res.loss_trace, dtype=float)
    scalars = (res.i_zx_bits, res.i_zy_bits, res.loss_nats, res.stationarity_gap)
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(trace)) and all(map(math.isfinite, scalars))):
        return "non-finite output"
    if np.max(np.abs(m.sum(axis=0) - 1.0)) > ENCODER_ATOL or np.min(m) < -ENCODER_ATOL:
        return "encoder columns not stochastic"
    if res.defect:
        return "defect flag set"
    if trace.size > 1 and np.max(np.diff(trace)) > TRACE_STEP_MAX:
        return "loss trace ascends"
    return point_problem(res, h_x_bits)


def point_problem(p, h_x_bits: float):
    """Why one trade-off point fails the checks, or None."""
    values = (p.i_zx_bits, p.i_zy_bits, p.loss_nats, p.stationarity_gap)
    if not all(map(math.isfinite, values)):
        return "non-finite point"
    if not (-INFO_ATOL <= p.i_zy_bits <= p.i_zx_bits + INFO_ATOL <= h_x_bits + 2 * INFO_ATOL):
        return "point violates 0 <= I(Z;Y) <= I(Z;X) <= H(X)"
    return None


def bell(n: int) -> int:
    """Number of set partitions of n symbols, by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _failed_run():
    nan = float("nan")
    return SimpleNamespace(
        i_zx_bits=nan, i_zy_bits=nan, loss_nats=nan, converged=False, iterations=0,
        stationarity_gap=nan, fallback_steps=0,
    )


class CheckedRuns:
    """Checks the full result of every solver run the sweep makes.

    Replaces the sweep's ``dca_run`` binding while active. A run that
    raises is recorded and stands in as a NaN point, so the pass goes on.
    """

    def __init__(self, fail, h_x_bits: float):
        self.fail = fail
        self.h_x_bits = h_x_bits

    def __enter__(self):
        self.original = pfdca.sweep.dca_run
        pfdca.sweep.dca_run = self._run
        return self

    def __exit__(self, *exc):
        pfdca.sweep.dca_run = self.original

    def _run(self, *args, **kwargs):
        try:
            res = self.original(*args, **kwargs)
        except Exception as exc:
            self.fail(f"solver run raised {exc!r}")
            return _failed_run()
        why = result_problem(res, self.h_x_bits)
        if why:
            self.fail(f"solver run: {why}")
        return res


def inject_failure(kind: str):
    """Break the first solver run of the sweep and of the estimator."""
    for module in (pfdca.sweep, pfdca.estimator):
        original = module.dca_run
        state = {"first": True}

        def broken(*args, _original=original, _state=state, **kwargs):
            res = _original(*args, **kwargs)
            if not _state.pop("first", False):
                return res
            if kind == "raise":
                raise RuntimeError("injected failure")
            bad = SimpleNamespace(**vars(res))
            bad.encoder = SimpleNamespace(matrix=res.encoder.matrix * 1.5)
            return bad

        module.dca_run = broken


def frontier_csv(points) -> str:
    """CSV of the Pareto frontier of the points with finite coordinates."""
    return points_to_csv(pareto_frontier([p for p in points if math.isfinite(p.i_zx_bits + p.i_zy_bits)]))


def csv_mismatches(points, reference_csv: str) -> int:
    """Rows of the points' CSV that differ from the reference CSV."""
    text = points_to_csv(points)
    if text == reference_csv:
        return 0
    got, want = text.splitlines(), reference_csv.splitlines()
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


# ---------------------------------------------------------------------------
# quality


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def source_information(source: dict):
    """(H(X), I(X;Y)) in bits, from the source's numbers."""
    p_x = np.asarray(source["p_x"], dtype=float)
    joint = np.asarray(source["p_y_given_x"], dtype=float) * p_x[None, :]
    h_x = entropy_bits(p_x)
    return h_x, h_x + entropy_bits(joint.sum(axis=1)) - entropy_bits(joint)


def quality(points, exhaustive, h_x: float, i_xy: float) -> dict:
    zx = np.array([p.i_zx_bits for p in points])
    zy = np.array([p.i_zy_bits for p in points])
    utilities = np.arange(int(math.floor(h_x / UTILITY_STEP_BITS + 1e-9)) + 1) * UTILITY_STEP_BITS
    least_leak = [zy[zx >= u].min() if np.any(zx >= u) else i_xy for u in utilities]
    covered = [
        bool(np.any((zx >= e.i_zx_bits - COVER_BITS) & (zy <= e.i_zy_bits + COVER_BITS)))
        for e in exhaustive
    ]
    converged = [p for p in points if p.converged]
    return {
        "frontier_leak_bits": float(np.mean(least_leak)),
        "coverage_frac": float(np.mean(covered)),
        "converged_frac": len(converged) / len(points),
        "stationary_frac": (
            sum(p.stationarity_gap <= STATIONARY_GAP for p in converged) / len(converged) if converged else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# measurement


class Bench:
    def __init__(self, spec: dict, workdir: str, seconds: float):
        self.spec = spec
        self.workdir = workdir
        self.seconds = seconds
        self.joint = load_joint(f"{workdir}/source.json")
        self.pxy = self.joint.joint_matrix()
        self.h_x, self.i_xy = source_information(spec["source"])
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = None   # set while a traced pass runs
        self.speed = None    # calibrate.SpeedLog while timings are calibrated ...
        self.hooks = None    # ... and the calibrate.Hooks that make its marks
        self.wall_rates = []  # operations per wall second of the calibrated passes
        self.fit_points = {}  # first result of each fitted cell
        if spec["kind"] == "sweep":
            self.cfg = SweepConfig(
                beta_grid=tuple(spec["beta_grid"]),
                alpha_grid=tuple(spec["alpha_grid"]),
                card_z_values=tuple(spec["card_z"]),
                restarts=spec["restarts"],
                inner_kind=InnerKind(spec["inner_kind"]),
                base_seed=spec["base_seed"],
            )

    def fail(self, reason: str, n: int = 1):
        self.failed += n
        self.failures.append(reason)

    def operation(self, jobs: int):
        """One pass of the workload through the public entry points."""
        if self.spec["kind"] != "sweep":
            return greedy_merge_run(self.joint, BASELINE_BETA) + exhaustive_partitions(self.joint, BASELINE_BETA)
        if self.tracer is None:
            return run_sweep(self.joint, self.cfg, n_jobs=jobs)
        span = self.tracer.enter(tracing.NAME_ID["sweep"])
        try:
            return run_sweep(self.joint, self.cfg, n_jobs=jobs)
        finally:
            self.tracer.exit(span)
            self.tracer.absorb_spills(span)

    def checked_pass(self):
        """The reference pass: serial, every result checked."""
        if self.spec["kind"] == "sweep":
            with CheckedRuns(self.fail, self.h_x):
                points = self.operation(1)
            exhaustive = exhaustive_partitions(self.joint)
        else:
            points = self.operation(1)
            exhaustive = [p for p in points if p.solver.value == "exhaustive"]
            for why in filter(None, (point_problem(p, self.h_x) for p in points)):
                self.fail(f"baseline point: {why}")
        self.attempted += len(points)
        if len(exhaustive) != bell(self.joint.n_x):
            self.fail(f"{len(exhaustive)} exhaustive clusterings, Bell({self.joint.n_x}) = {bell(self.joint.n_x)}")
        self.ref_points = points
        self.exhaustive = exhaustive
        self.ref_csv = points_to_csv(points)
        self.ref_frontier_csv = frontier_csv(points)

    def timed_pass(self, jobs: int):
        """Operations per second of one pass checked against the reference, or None.

        Per reference second while timings are calibrated (the wall rate is
        kept in ``wall_rates``), per wall second otherwise.
        """
        ops = len(self.ref_points)
        self.attempted += ops
        speed = self.speed
        if speed is not None:
            speed.take_worker_marks()
            first = len(speed.start)
            speed.mark()
        start = time.perf_counter()
        try:
            if speed is None:
                points = self.operation(jobs)
            else:
                with self.hooks:
                    points = self.operation(jobs)
        except Exception as exc:
            self.fail(f"pass raised {exc!r}", ops)
            return None
        stop = time.perf_counter()
        rate = ops / (stop - start)
        if speed is not None:
            speed.mark()
            self.wall_rates.append(rate)
            workers = [log for log in speed.take_worker_marks() if len(log[0]) > 1]
            if workers:
                rate = ops / calibrate.interval_reference_s(start, stop, jobs, workers)
            else:
                rate = ops / calibrate.interval_reference_s(start, stop, 1, [speed.since(first)])
        bad = csv_mismatches(points, self.ref_csv)
        if bad == 0 and frontier_csv(points) != self.ref_frontier_csv:
            bad = 1
        if bad:
            self.fail(f"{bad} rows differ from the reference pass (jobs={jobs})", bad)
        return rate

    def fit(self, k: int, latencies: list):
        """Fit sampled cell k once through the estimator."""
        card_z, beta, alpha, seed = self.spec["fit_cells"][k]
        self.attempted += 1
        est = DcaPrivacyFunnel(card_z=card_z, beta=beta, alpha=alpha, inner_kind=self.spec["inner_kind"], seed=seed)
        speed = self.speed
        if speed is not None:
            speed.mark_if_due()
            first = len(speed.start) - 1   # the mark made right before this fit
        start = time.perf_counter()
        try:
            if speed is None:
                est.fit(self.pxy)
            else:
                with self.hooks:
                    est.fit(self.pxy)
        except Exception as exc:
            self.fail(f"fit raised {exc!r}")
            return
        finally:
            stop = time.perf_counter()
            if speed is not None:
                speed.mark()
        if speed is None:
            latencies[k].append(stop - start)
        else:
            latencies[k].append(calibrate.interval_reference_s(start, stop, 1, [speed.since(first)]))
        why = result_problem(est.result_, self.h_x)
        if why:
            self.fail(f"fit: {why}")
        self.fit_points.setdefault(k, est.result_)


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass of each
    rank's share of (0, 1).

    Fit latencies cluster by iteration count, and a single order
    statistic jumps between clusters when a seed moves a few cells
    across the quantile; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf, left=0.0, right=1.0))
    return float(weights @ x)


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def measure_end_to_end(bench: Bench) -> tuple:
    """Timed passes and estimator fits, interleaved over the whole window.

    The mix of the machine's fast and slow states drifts over seconds, so
    each metric samples the whole window rather than half of it: after
    every pass, fits run for as long as the pass took (at least
    FIT_SHARE_MIN of the window). Timings are in reference seconds.
    """
    bench.checked_pass()
    bench.speed = calibrate.SpeedLog(bench.workdir)
    bench.hooks = calibrate.Hooks(bench.speed)
    n_cells = len(bench.spec["fit_cells"])
    rates, latencies, fits = [], [[] for _ in range(n_cells)], 0
    deadline = time.perf_counter() + bench.seconds
    while True:
        now = time.perf_counter()
        passes_due = len(rates) < MIN_PASSES or now < deadline
        fits_due = fits < n_cells or now < deadline
        if not (passes_due or fits_due):
            break
        span = 0.0
        if passes_due:
            rate = bench.timed_pass(bench.spec["jobs"])
            span = time.perf_counter() - now
            if rate is not None:
                rates.append(rate)
            elif len(bench.failures) > 100:
                break
        fit_until = time.perf_counter() + max(span, bench.seconds * FIT_SHARE_MIN)
        while fits_due:
            bench.fit(fits % n_cells, latencies)
            fits += 1
            if time.perf_counter() >= fit_until:
                break
    per_cell = [statistics.median(v) for v in latencies if v]
    # Quality over every solver output of the run: more points than the
    # pass alone, so a frontier metric hangs less on single restarts.
    points = bench.ref_points + list(bench.fit_points.values())
    metrics = quality(points, bench.exhaustive, bench.h_x, bench.i_xy)
    metrics["runs_per_s"] = statistics.median(rates) if rates else 0.0
    metrics["solve_ms_p50"] = harrell_davis(per_cell, 0.50) * 1e3 if per_cell else 0.0
    metrics["solve_ms_p95"] = harrell_davis(per_cell, 0.95) * 1e3 if per_cell else 0.0
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "runs_per_s": {**quartiles(rates), "ops_per_pass": len(bench.ref_points)} if rates else {},
        "runs_per_wall_s": quartiles(bench.wall_rates) if bench.wall_rates else {},
        "solve_ms": {"cells": len(per_cell), "fits": fits},
        "kernel_unit_ms": quartiles([u * 1e3 for u in np.subtract(bench.speed.end, bench.speed.start)]),
        "absent_hook_sites": bench.hooks.absent,
    }
    return metrics, detail


def cpu_seconds(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def measure_traced(bench: Bench, spans_path: str, spill_dir: str) -> tuple:
    bench.checked_pass()
    tr = tracing.Tracer(spill_dir)
    shims = tracing.Shims(tr)
    jobs = bench.spec["jobs"]
    sweep = bench.spec["kind"] == "sweep"
    untraced, traced = [], []
    pass_wall = parent_cpu = worker_cpu = 0.0
    deadline = time.perf_counter() + bench.seconds / 2
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        rate = bench.timed_pass(jobs)
        if rate is not None:
            untraced.append(rate)
        cpu0 = (cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN))
        start = time.perf_counter()
        shims.install()
        bench.tracer = tr
        try:
            rate = bench.timed_pass(jobs)
        finally:
            bench.tracer = None
            shims.remove()
        pass_wall += time.perf_counter() - start
        parent_cpu += cpu_seconds(resource.RUSAGE_SELF) - cpu0[0]
        worker_cpu += cpu_seconds(resource.RUSAGE_CHILDREN) - cpu0[1]
        if rate is not None:
            traced.append(rate)
    k = len(traced) or 1
    pass_hi, pass_tallies = len(tr.name), dict(tr.tallies)

    start = time.perf_counter()
    shims.install()
    try:
        latencies = [[] for _ in bench.spec["fit_cells"]]
        for cell in range(len(latencies)):
            bench.fit(cell, latencies)
    finally:
        shims.remove()
    fit_wall = time.perf_counter() - start
    fit_tallies = {key: n - pass_tallies.get(key, 0) for key, n in tr.tallies.items()}
    tr.write(spans_path)

    per_pass = tracing.aggregate(tr, 0, pass_hi, pass_tallies)
    fits = tracing.aggregate(tr, pass_hi, len(tr.name), fit_tallies)
    metrics, mismatches = layer_metrics(per_pass, fits, k, bench, shims)
    sweep_s = per_pass["sweep_s"]
    metrics.update({
        "sweep.dispatch_s": (sweep_s - per_pass["sweep_cell_s"] / jobs) / k if sweep else 0.0,
        "sweep.parallel_eff": per_pass["sweep_cell_s"] / (jobs * sweep_s) if sweep_s else 0.0,
        "sweep.parent_cpu_s": parent_cpu / k if sweep else 0.0,
        "sweep.worker_cpu_s": worker_cpu / k if sweep else 0.0,
        "trace.runs_per_s_untraced": statistics.median(untraced) if untraced else 0.0,
        "trace.runs_per_s_traced": statistics.median(traced) if traced else 0.0,
        "trace.wall_s": pass_wall / k + fit_wall,
        "trace.uncovered_s": (pass_wall - per_pass["root_s"]) / k + fit_wall - fits["root_s"],
        "trace.spans": per_pass["spans"] / k + fits["spans"],
        "trace.absent_sites": len(shims.absent),
    })
    if traced and untraced:
        metrics["trace.overhead_frac"] = metrics["trace.runs_per_s_untraced"] / metrics["trace.runs_per_s_traced"] - 1.0
    else:
        metrics["trace.overhead_frac"] = 0.0
    detail = {
        "traced_passes": k,
        "untraced_passes": len(untraced),
        "absent": shims.absent,
        "count_mismatches": mismatches,
        "spans_file": spans_path,
    }
    return metrics, detail


def layer_metrics(per_pass: dict, fits: dict, k: int, bench: Bench, shims) -> tuple:
    """Per-layer metrics for one pass (of k traced) plus one fit round, and the count checks."""
    def both(get):
        return get(per_pass) / k + get(fits)

    def tally(layer, event):
        return both(lambda a: a["tally"](layer, event))

    def count(parent, child):
        return both(lambda a: a["child_count"](parent, child))

    metrics = {}
    for nid, name in enumerate(tracing.NAMES):
        metrics[f"{name}.calls"] = both(lambda a: float(a["calls"][nid]))
        metrics[f"{name}.self_s"] = both(lambda a: float(a["self_s"][nid]))
    outer, fallback = tally("dca.run", "outer_iters"), tally("dca.run", "fallback_steps")
    attempts = count("dca.run", "dca.target")
    objectives = tally("dca.sparse", "sparse_obj")   # one per solve plus one per Armijo trial
    metrics.update({
        "dca.outer_iters": outer,
        "dca.fallback_steps": fallback,
        "dca.relaxed.attempts": attempts,
        "dca.relaxed.accept_ratio": (outer - fallback) / attempts if attempts else 0.0,
        "dca.ridge.iters": count("dca.ridge", "dca.project"),
        "dca.sparse.iters": tally("dca.sparse", "sparse_grad"),
        "dca.sparse.armijo_trials": objectives - metrics["dca.sparse.calls"] if objectives else 0.0,
        "dca.exact.iters": tally("dca.exact", "grad_f"),
        "dca.exact.armijo_trials": count("dca.exact", "dca.project"),
        "dca.exact.escalations": tally("dca.exact", "escalation"),
        "dca.project.cols": tally("dca.project", "project_cols"),
    })

    # The traced counts must agree with the program's own result fields.
    absent = set(shims.absent)
    mismatches = []
    points = bench.ref_points
    if bench.spec["kind"] == "sweep" and "pfdca.sweep.dca_run" not in absent:
        if per_pass["sweep_cells"] != k * len(points):
            mismatches.append(f"traced runs {per_pass['sweep_cells']} != {k} x {len(points)} cells")
        iterations = sum(p.iterations for p in points)
        if per_pass["tally"]("dca.run", "outer_iters") != k * iterations:
            mismatches.append(f"traced iterations {per_pass['tally']('dca.run', 'outer_iters')} != {k} x {iterations}")
    elif bench.spec["kind"] == "baselines" and "pfdca.baseline._point" not in absent:
        calls = int(per_pass["calls"][tracing.NAME_ID["baseline.point"]])
        if calls != k * len(points):
            mismatches.append(f"traced baseline points {calls} != {k} x {len(points)}")
    if not absent & {"pfdca.dca._surrogate_descent", ".".join(tracing.PLAIN_EXACT_BUDGET)}:
        for label, agg in (("passes", per_pass), ("fits", fits)):
            plain = agg["calls"][tracing.NAME_ID["dca.exact"]] - agg["tally"]("dca.exact", "escalation")
            if agg["tally"]("dca.run", "fallback_steps") != plain:
                mismatches.append(f"{label}: fallback_steps {agg['tally']('dca.run', 'fallback_steps')} != plain exact steps {plain}")
    return metrics, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("spec")
    ap.add_argument("workdir")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--inject", choices=("nonstochastic", "raise"), default=None)
    args = ap.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.inject:
        inject_failure(args.inject)
    bench = Bench(spec, args.workdir, args.seconds)
    if args.trace:
        metrics, detail = measure_traced(bench, args.spans_out, args.workdir)
        correct = not bench.failures and not detail["count_mismatches"]
    else:
        metrics, detail = measure_end_to_end(bench)
        correct = not bench.failures
    report = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures[:20],
        "metrics": metrics,
        "detail": detail,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
