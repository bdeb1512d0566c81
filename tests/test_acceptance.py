"""Acceptance gate: every release criterion exercised at its stated
tolerance, one printed pass/fail line per criterion (run with ``-s`` to
see the lines as they pass).

The heavyweight shared artifact is the default ridge sweep on the
three-symbol evaluation source: 16 x 16 geometric (beta, alpha) grid,
code sizes 2..4, 10 restarts = 7680 solver runs, kept with full loss
traces so the descent criteria audit the actual accepted iterates.
"""

import time

import numpy as np
import pytest

from conftest import DEMO_CHANNEL, DEMO_PX, mi_bruteforce_oracle, entropy_oracle
from test_inner_solvers import (
    RIDGE_TOL,
    SPARSE_TOL,
    make_instances,
    ridge_objective_grid,
    sparse_bruteforce,
)

from pfdca import (
    CondDist,
    DcaConfig,
    DiscreteDist,
    Encoder,
    JointXY,
    dca_run,
    markov_compose,
    mutual_information,
    bayes_invert,
)
from pfdca.baseline import exhaustive_partitions
from pfdca.cli import main as cli_main
from pfdca.dca import _Problem, _relaxed_target, _ridge_descent, _sparse_descent
from pfdca.diagnostics import (
    check_expectation_identities,
    check_grad_f_fd,
    check_grad_g_fd,
    check_restricted_convexity,
    check_update_residual,
)
from pfdca.probability import NATS_TO_BITS, random_encoder
import pfdca.sweep
from pfdca.sweep import SweepConfig, pareto_frontier, run_sweep

SWEEP_BUDGET_SECONDS = 300.0


def criterion(num: int, label: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def demo_joint_instance() -> JointXY:
    return JointXY(DiscreteDist(DEMO_PX.copy()), CondDist(DEMO_CHANNEL.copy()))


@pytest.fixture(scope="module")
def default_sweep():
    """Default ridge sweep, serial, with each run's full result retained by
    wrapping the sweep's ``dca_run`` while it runs."""
    j = demo_joint_instance()
    cfg = SweepConfig()
    results = []
    original = pfdca.sweep.dca_run

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    pfdca.sweep.dca_run = recorded
    try:
        start = time.perf_counter()
        points = run_sweep(j, cfg)
        elapsed = time.perf_counter() - start
    finally:
        pfdca.sweep.dca_run = original
    assert len(results) == len(points)
    return j, cfg, points, results, elapsed


@pytest.fixture(scope="module")
def exhaustive_points():
    return exhaustive_partitions(demo_joint_instance())


def test_criterion_1_deterministic_set_coverage(default_sweep, exhaustive_points):
    _, _, points, _, elapsed = default_sweep
    missed = [
        (e.i_zx_bits, e.i_zy_bits)
        for e in exhaustive_points
        if not any(
            p.i_zx_bits >= e.i_zx_bits - 0.02 and p.i_zy_bits <= e.i_zy_bits + 0.02
            for p in points
        )
    ]
    frontier = pareto_frontier(points)
    levels = sorted({round(e.i_zx_bits, 9) for e in exhaustive_points})
    intermediates = [
        f
        for f in frontier
        if any(lo + 0.05 < f.i_zx_bits < hi - 0.05 for lo, hi in zip(levels, levels[1:]))
    ]
    ok = not missed and len(intermediates) >= 3 and elapsed < SWEEP_BUDGET_SECONDS
    criterion(
        1,
        "deterministic-set coverage",
        ok,
        f"uncovered={missed} intermediates={len(intermediates)} sweep={elapsed:.1f}s "
        f"(budget {SWEEP_BUDGET_SECONDS:.0f}s)",
    )


def test_criterion_2_ridge_tradeoff_point(default_sweep):
    _, _, points, _, _ = default_sweep
    hits = [p for p in points if 0.9 <= p.i_zx_bits <= 1.1 and p.i_zy_bits <= 0.35]
    best = min(hits, key=lambda p: p.i_zy_bits, default=None)
    criterion(
        2,
        "ridge trade-off point near one bit",
        best is not None,
        "no q=2 point with i_zx in [0.9, 1.1] and i_zy <= 0.35"
        if best is None
        else f"found ({best.i_zx_bits:.4f}, {best.i_zy_bits:.4f}) bits "
        f"at beta={best.beta:.3g} alpha={best.alpha:.3g} card_z={best.card_z}",
    )


def test_criterion_3_monotone_descent_and_convergence(default_sweep):
    _, _, points, results, _ = default_sweep
    worst_step = max(
        (float(np.max(np.diff(r.loss_trace))) if r.loss_trace.size > 1 else 0.0)
        for r in results
    )
    monotone = worst_step <= 1e-6 and not any(r.defect for r in results)
    converged_frac = np.mean([p.converged and p.iterations < 10000 for p in points])
    ok = monotone and converged_frac >= 0.95
    criterion(
        3,
        "monotone descent",
        ok,
        f"worst per-step increase {worst_step:.2e} (slack 1e-6), "
        f"converged {converged_frac:.4f} (need >= 0.95)",
    )


def test_criterion_4_stationarity(default_sweep):
    _, _, points, _, _ = default_sweep
    converged = [p for p in points if p.converged]
    frac = np.mean([p.stationarity_gap <= 1e-3 for p in converged])
    criterion(
        4,
        "stationarity of converged runs",
        frac >= 0.90,
        f"gap <= 1e-3 nats for {frac:.4f} of {len(converged)} converged runs (need >= 0.90)",
    )


def test_criterion_5_gradient_oracles():
    j = demo_joint_instance()
    start = time.perf_counter()
    rg = check_grad_g_fd(j, beta=1.0, seed=0)
    rf = check_grad_f_fd(j, seed=1)
    elapsed = time.perf_counter() - start
    ok = rg.passed and rf.passed and elapsed < 10.0
    criterion(
        5,
        "gradients vs finite differences",
        ok,
        f"rel err g={rg.max_violation:.2e} f={rf.max_violation:.2e} "
        f"(tol 1e-6), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_6_expectation_identities():
    j = demo_joint_instance()
    ident = check_expectation_identities(j, seed=2)
    resid = check_update_residual(seed=3)
    ok = ident.passed and resid.passed
    criterion(
        6,
        "averaged update identities",
        ok,
        f"identity violation {ident.max_violation:.2e} (tol 1e-10), "
        f"exact-update residual {resid.max_violation:.2e} (tol 1e-8)",
    )


def test_criterion_7_restricted_convexity():
    j = demo_joint_instance()
    worst = -np.inf
    for beta in (0.1, 1.0, 10.0):
        report = check_restricted_convexity(j, seed=4, beta=beta)
        worst = max(worst, report.max_violation)
        if not report.passed:
            criterion(7, "restricted convexity", False, f"beta={beta}: min slack {-report.max_violation:.2e}")
    criterion(
        7,
        "restricted convexity",
        worst <= 1e-9,
        f"min slack over beta grid {-worst:.2e} >= -1e-9 (3 x 1000 pairs)",
    )


def test_criterion_8_inner_solver_oracles():
    details = []
    ok = True
    for idx, j in enumerate(make_instances()):
        rng = np.random.default_rng(300 + idx)
        prob = _Problem.build(j)
        target = _relaxed_target(random_encoder(rng, 2, 2).matrix, prob, 1.5)
        grid = np.linspace(0.0, 1.0, 1001)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        alpha = 0.3
        j_grid = float(ridge_objective_grid(prob.pxcy, target, alpha, a, b).min())
        _, j_ridge = _ridge_descent(np.full((2, 2), 0.5), target, prob, alpha, 1e-15, 100000)
        ridge_gap = abs(j_ridge - j_grid)
        ok &= ridge_gap <= RIDGE_TOL

        l_xy = np.log(prob.pxcy)
        log_t = np.log(target)
        alpha_s = 0.5
        coarse, fine = sparse_bruteforce(l_xy, log_t, alpha_s, -30.0, -1e-6)
        warm = np.clip(np.log(np.full((2, 2), 0.5)), -30.0, -1e-6)
        _, j_sparse = _sparse_descent(warm, l_xy, log_t, alpha_s, 1e-15, 200000)
        sparse_gap = abs(j_sparse - fine)
        ok &= sparse_gap <= SPARSE_TOL and j_sparse <= coarse + 1e-12
        details.append(f"inst{idx}: ridge {ridge_gap:.1e} sparse {sparse_gap:.1e}")
    criterion(
        8,
        "inner solvers vs brute-force grids",
        ok,
        f"{'; '.join(details)} (tol ridge {RIDGE_TOL:g}, sparse {SPARSE_TOL:g})",
    )


def test_criterion_9_trivial_limits(default_sweep):
    j, cfg, points, _, _ = default_sweep
    res1 = dca_run(j, 1, DcaConfig(beta=1.0, alpha=1.0, seed=0))
    origin_ok = abs(res1.i_zx_bits) < 1e-12 and abs(res1.i_zy_bits) < 1e-12

    beta_min = cfg.beta_grid[0]
    alpha_max = cfg.alpha_grid[-1]
    collapse_cell = [
        p for p in points if p.beta == beta_min and p.alpha == alpha_max
    ]
    collapse_ok = bool(collapse_cell) and all(p.i_zx_bits <= 0.05 for p in collapse_cell)

    ident = Encoder(np.eye(3))
    i_zx = mutual_information(ident, j.p_x) * NATS_TO_BITS
    i_zy = mutual_information(markov_compose(ident, bayes_invert(j)), j.p_y) * NATS_TO_BITS
    h_x = entropy_oracle(j.p_x.probs) * NATS_TO_BITS
    i_xy = mi_bruteforce_oracle(j.joint_matrix()) * NATS_TO_BITS
    ident_ok = abs(i_zx - h_x) <= 1e-10 and abs(i_zy - i_xy) <= 1e-10

    ok = origin_ok and collapse_ok and ident_ok
    criterion(
        9,
        "trivial limits",
        ok,
        f"card_z=1 -> ({res1.i_zx_bits:.1e}, {res1.i_zy_bits:.1e}); "
        f"beta={beta_min:g} cell max i_zx "
        f"{max((p.i_zx_bits for p in collapse_cell), default=float('nan')):.3g} <= 0.05; "
        f"identity encoder vs oracle diff ({abs(i_zx - h_x):.1e}, {abs(i_zy - i_xy):.1e})",
    )


def test_criterion_10_determinism(tmp_path, demo_dist_file):
    flags = [
        "--beta-grid", "0.1,1,10",
        "--alpha-grid", "0.5,2",
        "--card-z", "2,3",
        "--restarts", "2",
        "--seed", "0",
    ]
    blobs = []
    for name, jobs in (("first", "1"), ("second", "2")):
        out = tmp_path / f"{name}.csv"
        rc = cli_main(["sweep", "--dist", str(demo_dist_file), "--out", str(out), *flags, "--jobs", jobs])
        assert rc == 0
        blobs.append(
            (out.read_bytes(), (tmp_path / f"{name}.csv.frontier.csv").read_bytes())
        )
    ok = blobs[0] == blobs[1]
    criterion(
        10,
        "byte-identical sweeps across thread counts",
        ok,
        f"csv+frontier identical across --jobs 1,2 ({len(blobs[0][0])} bytes)",
    )
