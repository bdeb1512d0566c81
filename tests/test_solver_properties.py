"""Properties of the exact descent step and of whole solver runs.

The exact step starts each backtracking search at a spectral
(Barzilai-Borwein) step. These tests check that it still reaches the
subproblem's optimum at the full budget, that it stays on the simplex
and never ascends at any budget, and that a step which stops before its
budget is exactly the full-budget step. The last tests run the guarded
solver on random sources, full rank or not: every inner solve, exact or
relaxed, runs at one budget, the exact step that ends a converged run is
the full-budget step, every boost along an exact step's direction is a
feasible step of sufficient descent, its outputs stay valid, and its
relaxed step follows the one-rule schedule.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pfdca.dca
import reference_kernels as ref
from conftest import DEMO_CHANNEL, DEMO_PX
from pfdca import CondDist, DcaConfig, DiscreteDist, JointXY, dca_run
from pfdca.dca import (
    _ACCEPT_SLACK,
    _BOOST_DECREASE,
    _BOOST_MAX_STEP,
    _BOOST_MIN_STEP,
    _INNER_TOL,
    _SURROGATE_STEP_ITERS,
    _compute_c_arr,
    _f_value_arr,
    _boosted_step,
    _grad_g_arr,
    _loss,
    _Problem,
    _ridge_descent,
    _simplex_project_columns,
    _sparse_descent,
    _surrogate_descent,
)
from pfdca.probability import LOG_CLAMP

# Oracle budget, far above the solver's own.
FULL_BUDGET = 5000
INNER_TOL = _INNER_TOL


def full_rank_joint(rng, nx, ny, concentration=1.0):
    """A source with |Y| >= |X| whose channel has full column rank: each
    column P(y|x) puts at least half its mass on its own symbol y = x."""
    noise = rng.dirichlet(np.full(ny, concentration), nx).T
    channel = 0.5 * np.eye(ny, nx) + 0.5 * noise
    return JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel))


def rank_deficient_joint(rng, nx, ny, concentration=1.0):
    """A source whose backward block has rank below |X|: |Y| < |X|, or
    |Y| = |X| with the channel column of x = 1 a copy of that of x = 0."""
    channel = rng.dirichlet(np.full(ny, concentration), nx).T
    if ny == nx:
        channel[:, 1] = channel[:, 0]
    return JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel))


def check_run(res):
    """What every run must give: finite, column-stochastic output with no
    defect, and every accepted step (an exact step descends, a relaxed
    one ascends by at most the guard's slack) within the guard."""
    enc = res.encoder.matrix
    scalars = (res.i_zx_bits, res.i_zy_bits, res.loss_nats, res.stationarity_gap)
    assert np.all(np.isfinite(enc)) and np.all(np.isfinite(res.loss_trace)) and np.all(np.isfinite(scalars))
    assert np.all(enc >= 0.0)
    assert np.allclose(enc.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    assert not res.defect
    assert np.all(np.diff(res.loss_trace) <= _ACCEPT_SLACK)


def subproblem(seed, concentration=1.0):
    """(V, grad_g_k, prob) of one exact step: a random full-rank source, a
    random encoder and beta in [0.1, 10]. Small ``concentration`` draws
    encoders near the simplex boundary, many of their entries zero."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 7))
    ny = int(rng.integers(nx, 9))
    nz = int(rng.integers(2, 8))
    prob = _Problem.build(full_rank_joint(rng, nx, ny))
    V = rng.dirichlet(np.full(nz, concentration), nx).T
    if concentration < 1.0:
        V[V < 1e-3] = 0.0
        V /= V.sum(axis=0)
    beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    return V, _grad_g_arr(V, prob, beta), prob


def objective(V, grad_g_k, prob):
    return _f_value_arr(V, prob) - float((grad_g_k * V).sum())


def test_full_budget_reaches_long_run_optimum():
    # The optimum is the lower of a long run of the step itself, with no
    # stopping tolerance, and the unit-start reference at the full budget.
    worst = 0.0
    for seed in range(200):
        V, g, prob = subproblem(seed)
        got, _, _ = _surrogate_descent(V, g, prob, INNER_TOL, FULL_BUDGET)
        long_run, _, _ = _surrogate_descent(V, g, prob, 0.0, 4 * FULL_BUDGET)
        unit = ref.surrogate_descent(V, g, prob.pxcy, prob.pycx, prob.px, prob.py, LOG_CLAMP, INNER_TOL, FULL_BUDGET)
        best = min(objective(long_run, g, prob), objective(unit, g, prob))
        worst = max(worst, (objective(got, g, prob) - best) / abs(best))
    assert worst <= 1e-4


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(1, 80),
    concentration=st.sampled_from([0.2, 1.0, 5.0]),
)
def test_any_budget_stays_stochastic_and_descends(seed, budget, concentration):
    V, g, prob = subproblem(seed, concentration)
    got, _, _ = _surrogate_descent(V, g, prob, INNER_TOL, budget)
    assert np.all(got >= 0.0)
    assert np.allclose(got.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    assert objective(got, g, prob) <= objective(V, g, prob)


def test_plain_step_that_stops_early_is_the_full_budget_step():
    stopped_early = 0
    for seed in range(60):
        V, g, prob = subproblem(seed, concentration=(0.2, 1.0, 5.0)[seed % 3])
        plain, stopped, _ = _surrogate_descent(V, g, prob, INNER_TOL, _SURROGATE_STEP_ITERS)
        if not stopped:
            continue
        stopped_early += 1
        full, full_stopped, _ = _surrogate_descent(V, g, prob, INNER_TOL, FULL_BUDGET)
        assert full_stopped
        assert np.array_equal(plain, full)
    assert stopped_early >= 20


@pytest.mark.parametrize("inner_kind", ["ridge", "sparse_log"])
@pytest.mark.parametrize("beta", [0.5, 3.0])
@pytest.mark.parametrize("seed", range(10))
def test_every_exact_step_runs_at_the_one_budget(seed, beta, inner_kind):
    # With the budget cut to 1, most exact steps use all of it. Each is
    # still taken at that budget, never re-run at a larger one, and the
    # run converges, on a step that stopped before its budget. The
    # relaxed solve of the run's kind gets the same budget.
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 7))
    j = JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(rng.dirichlet(np.full(ny, 0.3), nx).T))
    cfg = DcaConfig(beta=beta, alpha=1.0, inner_kind=inner_kind, outer_max_iter=3000, seed=seed)
    calls, relaxed_budgets = [], []

    def recorded(*args):
        out = _surrogate_descent(*args)
        calls.append((args[-1], out[1]))
        return out

    relaxed = _ridge_descent if inner_kind == "ridge" else _sparse_descent

    def relaxed_recorded(*args):
        relaxed_budgets.append(args[-1])
        return relaxed(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_SURROGATE_STEP_ITERS", 1)
        mp.setattr(pfdca.dca, "_surrogate_descent", recorded)
        mp.setattr(pfdca.dca, relaxed.__name__, relaxed_recorded)
        res = dca_run(j, 3, cfg)
    assert all(budget == 1 for budget, _ in calls)
    assert relaxed_budgets and all(budget == 1 for budget in relaxed_budgets)
    assert len(calls) == res.fallback_steps
    assert res.converged and calls[-1][1]
    assert not res.defect


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 5),
    ny=st.integers(1, 7),
    card_z=st.integers(2, 4),
    beta=st.sampled_from([0.3, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
def test_converging_step_is_the_full_budget_step(seed, nx, ny, card_z, beta, alpha, inner_kind):
    # A run converges only on an exact step that stopped before its small
    # budget; re-run at the oracle budget from the same start and
    # linearization, that step gives the same encoder, bit for bit.
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, float(rng.choice([0.3, 1.0]))), nx).T
    j = JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel))
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, seed=seed % 1000)
    calls = []

    def recorded(*args):
        out = _surrogate_descent(*args)
        calls.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_surrogate_descent", recorded)
        res = dca_run(j, card_z, cfg)
    assert res.converged
    (V, g, prob, tol, budget), (last, stopped, _) = calls[-1]
    assert budget == _SURROGATE_STEP_ITERS and stopped
    full, full_stopped, _ = _surrogate_descent(V, g, prob, tol, FULL_BUDGET)
    assert full_stopped
    assert np.array_equal(full, last)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 4),
    extra_y=st.integers(0, 2),
    card_z=st.integers(2, 4),
    beta=st.sampled_from([0.3, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
def test_dca_run_on_random_sources(seed, nx, extra_y, card_z, beta, alpha, inner_kind):
    rng = np.random.default_rng(seed)
    j = full_rank_joint(rng, nx, nx + extra_y, concentration=float(rng.choice([0.3, 1.0, 10.0])))
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, outer_max_iter=300, seed=seed % 1000)
    check_run(dca_run(j, card_z, cfg))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 5),
    ny_short=st.integers(0, 4),
    card_z=st.integers(2, 4),
    beta=st.sampled_from([0.3, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
def test_dca_run_on_rank_deficient_sources(seed, nx, ny_short, card_z, beta, alpha, inner_kind):
    # |Y| in 1..|X|-1, or |Y| = |X| with a duplicated channel column when
    # ny_short is 0. The relaxed step reads the truncated pseudo-inverse.
    rng = np.random.default_rng(seed)
    ny = nx - min(ny_short, nx - 1)
    j = rank_deficient_joint(rng, nx, ny, concentration=float(rng.choice([0.3, 1.0, 10.0])))
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, seed=seed % 1000)
    res = dca_run(j, card_z, cfg)
    check_run(res)
    assert res.converged


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["random", "demo", "short"]),
    card_z=st.integers(2, 4),
    beta=st.sampled_from([0.3, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.1, 1.0, 10.0]),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
def test_relaxed_step_is_rejected_at_most_once(seed, source, card_z, beta, alpha, inner_kind):
    # The relaxed step is tried every iteration until its first rejection
    # or stall, so at most one attempt is not an accepted step. Each
    # attempt computes the update coefficients once.
    rng = np.random.default_rng(seed)
    if source == "demo":
        j = JointXY(DiscreteDist(DEMO_PX.copy()), CondDist(DEMO_CHANNEL.copy()))
    elif source == "short":
        # |Y| = 2 < |X| = 3.
        j = JointXY(DiscreteDist.uniform(3), CondDist(np.array([[0.6, 0.5, 0.4], [0.4, 0.5, 0.6]])))
    else:
        nx = int(rng.integers(2, 5))
        j = full_rank_joint(rng, nx, nx + int(rng.integers(0, 3)), concentration=float(rng.choice([0.3, 1.0, 10.0])))
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, outer_max_iter=300, seed=seed % 1000)
    attempts = 0

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return _compute_c_arr(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_compute_c_arr", counted)
        res = dca_run(j, card_z, cfg)
    assert attempts - (res.iterations - res.fallback_steps) in (0, 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 5),
    ny=st.integers(1, 7),
    concentration=st.sampled_from([0.2, 1.0]),
    card_z=st.integers(2, 4),
    beta=st.sampled_from([0.3, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
def test_every_boost_is_a_feasible_sufficient_descent(seed, nx, ny, concentration, card_z, beta, alpha, inner_kind):
    # Channel columns from Dirichlet(concentration), |Y| below, at or above
    # |X|. Each accepted boost from cand along d = cand - V, after a
    # relaxed or an exact step, stays within the ray's feasible length on
    # the face of cand, keeps the columns stochastic and lowers the loss
    # by at least _BOOST_DECREASE * lam**2 * ||d||^2.
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, concentration), nx).T
    j = JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel))
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, seed=seed % 1000)
    accepted = []

    def recorded(V, cand, cand_loss, prob, beta):
        out = _boosted_step(V, cand, cand_loss, prob, beta)
        if out is not None:
            accepted.append((V, cand, cand_loss, prob, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_boosted_step", recorded)
        res = dca_run(j, card_z, cfg)
    assert len(accepted) == res.boosted_steps
    for V, cand, cand_loss, prob, (y, y_loss, lam) in accepted:
        d = cand - V
        down = (d < 0.0) & (cand > 0.0)
        assert _BOOST_MIN_STEP <= lam <= min(float(np.min(cand[down] / -d[down], initial=np.inf)), _BOOST_MAX_STEP)
        assert np.all(y >= 0.0)
        assert np.allclose(y.sum(axis=0), 1.0, rtol=0.0, atol=1e-9)
        assert y_loss == _loss(y, prob, beta)
        assert y_loss <= cand_loss - _BOOST_DECREASE * lam * lam * float((d * d).sum())
        # The boosted loss is the one the trace records for its iteration.
        assert y_loss in res.loss_trace
    check_run(res)
    assert res.converged


def test_exact_step_that_zeroes_a_coordinate_is_still_boosted():
    # An exact step that puts a coordinate it moves away from at 0 gives
    # the ray through the whole simplex no room (min over d < 0 of
    # cand / -d is 0). Where some column that d moves keeps two or more
    # positive entries, the face of cand leaves room: a boost is tried,
    # and any accepted one is a sufficient descent. Where every such
    # column is a vertex, every projected trial is cand itself, and no
    # trial is made.
    prob = _Problem.build(JointXY(DiscreteDist(DEMO_PX.copy()), CondDist(DEMO_CHANNEL.copy())))
    tried = accepted = at_vertex = 0
    for seed in range(10):
        V = np.random.default_rng(seed).dirichlet(np.full(3, 0.3), 3).T
        for beta in (0.5, 2.0):
            g = _grad_g_arr(V, prob, beta)
            cand, _, _ = _surrogate_descent(V, g, prob, INNER_TOL, _SURROGATE_STEP_ITERS)
            d = cand - V
            if not float(np.min(cand[d < 0.0] / -d[d < 0.0], initial=np.inf)) < _BOOST_MIN_STEP:
                continue
            cand_loss = _loss(cand, prob, beta)
            trials = 0

            def counted(*args):
                nonlocal trials
                trials += 1
                return _loss(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pfdca.dca, "_loss", counted)
                out = _boosted_step(V, cand, cand_loss, prob, beta)
            moved = np.any(d < 0.0, axis=0)
            if not np.any(moved & (np.sum(cand > 0.0, axis=0) > 1)):
                at_vertex += 1
                assert np.allclose(_simplex_project_columns(cand + _BOOST_MAX_STEP * d), cand, rtol=0.0, atol=1e-15)
                assert trials == 0 and out is None
                continue
            tried += 1
            assert trials >= 1
            if out is None:
                continue
            accepted += 1
            y, y_loss, lam = out
            assert np.all(y >= 0.0)
            assert np.allclose(y.sum(axis=0), 1.0, rtol=0.0, atol=1e-9)
            assert y_loss < cand_loss - _BOOST_DECREASE * lam * lam * float((d * d).sum())
    assert tried >= 10 and accepted >= 5 and at_vertex >= 1
