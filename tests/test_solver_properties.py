"""Properties of the exact descent step and of whole solver runs.

The exact step starts each backtracking search at a spectral
(Barzilai-Borwein) step. These tests check that it still reaches the
subproblem's optimum at the full budget, that it stays on the simplex
and never ascends at any budget, and that a step which stops before its
budget is exactly the full-budget step. The last tests run the guarded
solver on random sources, full rank or not: every inner solve, exact or
relaxed, runs at one budget, the exact step that ends a converged run is
the full-budget step, its outputs stay valid, and its relaxed and mirror
steps follow the one guard rule, with the mirror step's length doubled
after each accepted step and halved on each rejected long one, and a
step kind once dropped is never tried again. On a set
of random sources nearly every run ends close to stationarity. The
mirror step is checked against its closed form's optimality condition
at several lengths, the unit step against the decrease that relative
smoothness guarantees, and the ridge fit's closed form against a long
run of the search and its KKT conditions.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pfdca.dca
import reference_kernels as ref
from conftest import DEMO_CHANNEL, DEMO_PX
from pfdca import CondDist, DcaConfig, DiscreteDist, JointXY, dca_run
from pfdca.dca import (
    _INNER_TOL,
    _MIRROR_MAX_STEP,
    _OUTER_TOL,
    _SURROGATE_STEP_ITERS,
    _certified,
    _compute_c_arr,
    _f_value_arr,
    _grad_g_arr,
    _CERT_SLACK,
    _grad_f_arr,
    _loss,
    _mirror_step,
    _Problem,
    _relaxed_target,
    _ridge_descent,
    _sparse_descent,
    _surrogate_descent,
)
from pfdca.sweep import SweepConfig, run_sweep
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
    defect, and a loss trace that never rises by more than rounding: a
    relaxed or mirror step is taken only when it lowers the loss, and an
    exact step descends."""
    enc = res.encoder.matrix
    scalars = (res.i_zx_bits, res.i_zy_bits, res.loss_nats, res.stationarity_gap)
    assert np.all(np.isfinite(enc)) and np.all(np.isfinite(res.loss_trace)) and np.all(np.isfinite(scalars))
    assert np.all(enc >= 0.0)
    assert np.allclose(enc.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    assert not res.defect
    assert np.all(np.diff(res.loss_trace) <= 1e-12)


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
        got, _ = _surrogate_descent(V, g, prob, INNER_TOL, FULL_BUDGET)
        long_run, _ = _surrogate_descent(V, g, prob, 0.0, 4 * FULL_BUDGET)
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
    got, _ = _surrogate_descent(V, g, prob, INNER_TOL, budget)
    assert np.all(got >= 0.0)
    assert np.allclose(got.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    assert objective(got, g, prob) <= objective(V, g, prob)


def test_plain_step_that_stops_early_is_the_full_budget_step():
    stopped_early = 0
    for seed in range(60):
        V, g, prob = subproblem(seed, concentration=(0.2, 1.0, 5.0)[seed % 3])
        plain, stopped = _surrogate_descent(V, g, prob, INNER_TOL, _SURROGATE_STEP_ITERS)
        if not stopped:
            continue
        stopped_early += 1
        full, full_stopped = _surrogate_descent(V, g, prob, INNER_TOL, FULL_BUDGET)
        assert full_stopped
        assert np.array_equal(plain, full)
    assert stopped_early >= 20


def test_exact_step_no_step_passes(monkeypatch):
    # A NaN in grad_g_k makes every objective NaN, which fails every Armijo
    # test: all steps are tried, and the step returns its start, stopped,
    # as the untrimmed reference does. The search reaches the gradient and the projection through the module's globals.
    V, g, prob = subproblem(7)
    g[0, 0] = np.nan
    calls = {"_grad_f_arr": 0, "_simplex_project_columns": 0}
    for name in calls:
        def counted(*args, _fn=getattr(pfdca.dca, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(pfdca.dca, name, counted)
    got, stopped = _surrogate_descent(V, g, prob, INNER_TOL, _SURROGATE_STEP_ITERS)
    # The 47 trial steps are 2**-k for k = 0..46.
    assert calls == {"_grad_f_arr": 1, "_simplex_project_columns": 47}
    want, want_stopped = ref.untrimmed_surrogate_descent(
        V, g, prob.pxcy, prob.pycx, prob.px, prob.py, LOG_CLAMP, INNER_TOL, _SURROGATE_STEP_ITERS
    )
    assert np.array_equal(got, V) and np.array_equal(want, V)
    assert stopped and want_stopped


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 5),
    ny=st.integers(1, 6),
    repeated=st.booleans(),
    zero_x=st.booleans(),
    card_z=st.integers(1, 6),
    log_alpha=st.floats(-9.0, 9.0),
)
def test_ridge_fit_closed_form_is_its_minimizer(seed, nx, ny, repeated, zero_x, card_z, log_alpha):
    # Sources with |Y| below, at or above |X|, a repeated channel column
    # and a public symbol of zero mass, and alpha from 1e-9 to 1e9. The
    # ridge fit at the solver's budget returns a point of the column
    # simplices. When it takes the closed form, that point is no worse
    # than a long run of the search (forced by a failing solve), and it
    # meets the KKT conditions with every bound multiplier zero: the
    # gradient V G - T A^T is one constant per column.
    rng = np.random.default_rng(seed)
    alpha = 10.0**log_alpha
    channel = rng.dirichlet(np.full(ny, 0.5), nx).T
    px = rng.dirichlet(np.full(nx, 2.0))
    if nx > 1:
        if repeated:
            channel[:, 1] = channel[:, 0]
        if zero_x:
            px[-1] = 0.0
            px /= px.sum()
    prob = _Problem.build(JointXY(DiscreteDist(px), CondDist(channel)))
    start = rng.dirichlet(np.ones(card_z), nx).T
    target = _relaxed_target(rng.dirichlet(np.ones(card_z), nx).T, prob, float(rng.uniform(0.1, 10.0)))
    searches = []

    def recorded(*args):
        searches.append(args)
        return spectral(*args)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    spectral = pfdca.dca._spectral_descent
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_spectral_descent", recorded)
        V, obj = _ridge_descent(start, target, prob, alpha, INNER_TOL, _SURROGATE_STEP_ITERS)
    assert np.all(V >= 0.0)
    assert np.allclose(V.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    if searches:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", singular)
        _, oracle = _ridge_descent(start, target, prob, alpha, 1e-15, FULL_BUDGET)
    assert obj <= oracle + 1e-12 * max(1.0, abs(oracle))
    a = prob.pxcy
    grad = (V @ a - target) @ a.T + 2.0 * alpha * V
    assert np.all(np.ptp(grad, axis=0) <= 1e-12 * (1.0 + 2.0 * alpha + float(np.sum(a * a))))


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
    cfg = DcaConfig(beta=beta, alpha=1.0, inner_kind=inner_kind, seed=seed)
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
        mp.setattr(pfdca.dca, "_OUTER_MAX_ITER", 3000)
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
    (V, g, prob, tol, budget), (last, stopped) = calls[-1]
    assert budget == _SURROGATE_STEP_ITERS and stopped
    full, full_stopped = _surrogate_descent(V, g, prob, tol, FULL_BUDGET)
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
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, seed=seed % 1000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_OUTER_MAX_ITER", 300)
        res = dca_run(j, card_z, cfg)
    check_run(res)


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


def guard_passes(V, out, prob, beta):
    """Whether the guard takes the step ``V -> out``: it lowers the loss
    by more than ``_OUTER_TOL`` and passes the certificate."""
    loss, W, _ = _loss(V, prob, beta)
    out_loss, out_W, _ = _loss(out, prob, beta)
    drop = loss - out_loss
    return drop > _OUTER_TOL and _certified(drop, out_W, W)


def record_products(mp):
    """Wraps ``_loss`` on ``mp``, and returns the lookup from each stacked
    product ``W`` a run forms to the encoder it was formed from, so that a
    wrapper of a step that reads ``W`` can name that encoder."""
    formed = {}

    def recorded(V, prob, beta):
        out = _loss(V, prob, beta)
        # Each W is kept alive with its encoder, so no id is reused.
        formed[id(out[1])] = out[1], V
        return out

    mp.setattr(pfdca.dca, "_loss", recorded)
    return lambda W: formed[id(W)][1]


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
    # or stall, so at most one relaxed attempt is not an accepted step.
    # Then the mirror step is tried: its first attempt has unit length,
    # each accepted one doubles the next length up to _MIRROR_MAX_STEP,
    # and every rejected one but the last is a long step, retried from
    # the same encoder at half its length. Each relaxed attempt computes
    # the update coefficients once; a mirror step reads its logs from the
    # stacked product and never computes them.
    rng = np.random.default_rng(seed)
    if source == "demo":
        j = JointXY(DiscreteDist(DEMO_PX.copy()), CondDist(DEMO_CHANNEL.copy()))
    elif source == "short":
        # |Y| = 2 < |X| = 3.
        j = JointXY(DiscreteDist(np.full(3, 1.0 / 3)), CondDist(np.array([[0.6, 0.5, 0.4], [0.4, 0.5, 0.6]])))
    else:
        nx = int(rng.integers(2, 5))
        j = full_rank_joint(rng, nx, nx + int(rng.integers(0, 3)), concentration=float(rng.choice([0.3, 1.0, 10.0])))
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, seed=seed % 1000)
    attempts = 0
    mirror_calls = []

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return _compute_c_arr(*args)

    def mirror_counted(W, prob, beta, t):
        before = attempts
        out = _mirror_step(W, prob, beta, t)
        assert attempts == before
        mirror_calls.append((encoder_of(W), t, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        encoder_of = record_products(mp)
        mp.setattr(pfdca.dca, "_OUTER_MAX_ITER", 300)
        mp.setattr(pfdca.dca, "_compute_c_arr", counted)
        mp.setattr(pfdca.dca, "_mirror_step", mirror_counted)
        res = dca_run(j, card_z, cfg)
    # Every iteration takes one step: an accepted relaxed step, a mirror
    # step or an exact step.
    relaxed_accepted = res.iterations - res.mirror_steps - res.fallback_steps
    assert attempts - relaxed_accepted in (0, 1)
    prob = _Problem.build(j)
    taken = [guard_passes(V, out, prob, beta) for V, _, out in mirror_calls]
    assert sum(taken) == res.mirror_steps
    assert not mirror_calls or mirror_calls[0][1] == 1.0
    for (V, t, out), ok, (next_V, next_t, _) in zip(mirror_calls, taken, mirror_calls[1:]):
        if ok:
            assert next_V is out and next_t == min(2.0 * t, _MIRROR_MAX_STEP)
        else:
            assert t > 1.0 and next_V is V and next_t == t / 2
    # Only a rejected unit step drops the kind.
    assert not mirror_calls or taken[-1] or mirror_calls[-1][1] == 1.0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["random", "demo", "short"]),
    card_z=st.integers(2, 4),
    beta=st.sampled_from([0.3, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.1, 1.0, 10.0]),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
# A run that takes 22 exact steps, where most runs take one.
@example(seed=225, source="random", card_z=2, beta=0.3, alpha=1.0, inner_kind="sparse_log")
def test_step_kinds_never_go_back(seed, source, card_z, beta, alpha, inner_kind):
    # A dropped kind is never tried again: the attempts of a run, relaxed
    # ("r", one update-coefficient computation each), mirror ("m") and
    # exact ("e"), read relaxed*, mirror*, exact*.
    rng = np.random.default_rng(seed)
    if source == "demo":
        j = JointXY(DiscreteDist(DEMO_PX.copy()), CondDist(DEMO_CHANNEL.copy()))
    elif source == "short":
        j = JointXY(DiscreteDist(np.full(3, 1.0 / 3)), CondDist(np.array([[0.6, 0.5, 0.4], [0.4, 0.5, 0.6]])))
    else:
        nx = int(rng.integers(2, 5))
        j = full_rank_joint(rng, nx, nx + int(rng.integers(0, 3)), concentration=float(rng.choice([0.3, 1.0, 10.0])))
    kinds = []

    def recorded(kind, fn):
        def call(*args):
            kinds.append(kind)
            return fn(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_OUTER_MAX_ITER", 300)
        for kind, name in (("r", "_compute_c_arr"), ("m", "_mirror_step"), ("e", "_surrogate_descent")):
            mp.setattr(pfdca.dca, name, recorded(kind, getattr(pfdca.dca, name)))
        res = dca_run(j, card_z, DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, seed=seed % 1000))
    seq = "".join(kinds)
    assert seq == "r" * seq.count("r") + "m" * seq.count("m") + "e" * seq.count("e"), seq
    assert seq.count("e") == res.fallback_steps


def closed_form_drops(j, card_z, cfg):
    """``(result, drops)`` of one run: ``drops`` holds the loss drop of
    every relaxed or mirror step taken, recorded at each candidate that
    passes the guard's certificate. The exact step is not certified."""
    drops, prob = [], _Problem.build(j)

    def certified_recorded(drop, cand_W, W):
        passed = _certified(drop, cand_W, W)
        if passed:
            V, cand = encoder_of(W), encoder_of(cand_W)
            drops.append(_loss(V, prob, cfg.beta)[0] - _loss(cand, prob, cfg.beta)[0])
        return passed

    with pytest.MonkeyPatch.context() as mp:
        encoder_of = record_products(mp)
        mp.setattr(pfdca.dca, "_certified", certified_recorded)
        res = dca_run(j, card_z, cfg)
    # Every iteration takes one step, closed-form or exact.
    assert len(drops) == res.iterations - res.fallback_steps
    return res, drops


def test_demo_cell_takes_no_stalled_relaxed_step(demo_joint):
    # A q=1 cell of the default demo sweep where the relaxed step once
    # lowered the loss by only 6.6e-7, below _OUTER_TOL, and was still
    # taken. No closed-form step may stall: it is discarded instead.
    cfg = DcaConfig(beta=0.1, alpha=0.1, inner_kind="sparse_log", seed=5251137118807649466)
    res, drops = closed_form_drops(demo_joint, 2, cfg)
    assert drops and min(drops) > _OUTER_TOL
    assert res.converged
    check_run(res)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 5),
    ny=st.integers(1, 7),
    card_z=st.integers(2, 4),
    beta=st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.1, 1.0, 10.0]),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
def test_every_closed_form_step_lowers_the_loss_past_outer_tol(seed, nx, ny, card_z, beta, alpha, inner_kind):
    # One guard rule for the relaxed and the mirror step: every one a run
    # takes lowers the loss by more than _OUTER_TOL. Only an exact step
    # may lower it by less.
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, float(rng.choice([0.3, 1.0]))), nx).T
    j = JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel))
    cfg = DcaConfig(beta=beta, alpha=alpha, inner_kind=inner_kind, seed=seed % 1000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfdca.dca, "_OUTER_MAX_ITER", 300)
        res, drops = closed_form_drops(j, card_z, cfg)
    assert all(drop > _OUTER_TOL for drop in drops)
    check_run(res)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 6),
    ny=st.integers(1, 8),
    zero_x=st.booleans(),
    card_z=st.integers(2, 5),
    beta=st.floats(0.1, 10.0),
    inner_kind=st.sampled_from(["ridge", "sparse_log"]),
)
# Draws whose steps of length 2 and 4 once underflowed an entry of a p(x) = 0
# column to exactly 0, though the closed form is positive.
@example(seed=172, nx=2, ny=7, zero_x=True, card_z=3, beta=6.0, inner_kind="ridge")
@example(seed=117, nx=2, ny=1, zero_x=True, card_z=2, beta=8.0, inner_kind="ridge")
@example(seed=3, nx=2, ny=2, zero_x=True, card_z=2, beta=8.0, inner_kind="ridge")
@example(seed=1758, nx=2, ny=2, zero_x=True, card_z=5, beta=7.0, inner_kind="ridge")
def test_mirror_step_is_the_closed_form_bregman_step(seed, nx, ny, zero_x, card_z, beta, inner_kind):
    # Channels with zero cells, |Y| below, at or above |X|, and with
    # zero_x a public symbol of zero mass. The Bregman step of length t
    # under h(V) = sum_x p(x) sum_z V log V meets its optimality condition
    # on the support of V: log V+ - log V + t * (grad f - grad g) / p(x)
    # is one constant per column with p(x) > 0. Every accepted mirror
    # step of a run passes the guard's certificate.
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, 0.5), nx).T
    channel[channel < 0.1] = 0.0
    channel /= channel.sum(axis=0)
    px = rng.dirichlet(np.full(nx, 2.0))
    if zero_x and nx > 1:
        px[0] = 0.0
        px /= px.sum()
    j = JointXY(DiscreteDist(px), CondDist(channel))
    prob = _Problem.build(j)
    V = rng.dirichlet(np.full(card_z, 0.5), nx).T
    V[V < 1e-3] = 0.0
    V /= V.sum(axis=0)

    supp = V > 0.0
    diff = _grad_f_arr(V, prob) - _grad_g_arr(V, prob, beta)
    for t in (1.0, 2.0, 4.0):
        new = _mirror_step(V @ prob.stack, prob, beta, t)
        assert np.all(np.isfinite(new)) and np.all(new >= 0.0)
        assert np.allclose(new.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(new[supp] > 0.0)
        for x in np.flatnonzero(px > 0.0):
            s = supp[:, x]
            scaled = t * diff[s, x] / px[x]
            resid = np.log(new[s, x]) - np.log(V[s, x]) + scaled
            assert np.ptp(resid) <= 1e-9 * (1.0 + np.max(np.abs(scaled)))

    calls = []

    def recorded(W, prob, beta, t):
        out = _mirror_step(W, prob, beta, t)
        calls.append((encoder_of(W), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        encoder_of = record_products(mp)
        mp.setattr(pfdca.dca, "_mirror_step", recorded)
        res = dca_run(j, card_z, DcaConfig(beta=beta, alpha=1.0, inner_kind=inner_kind, seed=seed % 1000))
    check_run(res)
    assert res.converged
    # The mirror kind stays in play after an accepted step, and a
    # converged run ends on an exact step, so the result of every
    # accepted mirror step is where a later attempt starts.
    accepted = [(V, out) for V, out in calls if any(start is out for start, _ in calls)]
    assert len(accepted) == res.mirror_steps
    for V, out in accepted:
        drop = _loss(V, prob, beta)[0] - _loss(out, prob, beta)[0]
        move = (out - V) @ prob.px
        assert drop >= 0.5 * float(move @ move) - _CERT_SLACK


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 5),
    ny=st.integers(1, 6),
    zero_x=st.booleans(),
    card_z=st.integers(2, 4),
    log_beta=st.floats(np.log(0.1), np.log(10.0)),
)
def test_unit_mirror_step_lowers_the_loss_by_its_bregman_distance(seed, nx, ny, zero_x, card_z, log_beta):
    # f = -H(Z|Y) is 1-smooth relative to h(V) = sum_x p(x) sum_z V log V
    # and g is convex, so the unit mirror step lowers the true loss by at
    # least D_h(V, V+) = sum_x p(x) sum_z (V log(V / V+) - V + V+), up to
    # rounding. Sources have |Y| below, at or above |X|, and with zero_x a
    # public symbol of zero mass.
    rng = np.random.default_rng(seed)
    beta = float(np.exp(log_beta))
    channel = rng.dirichlet(np.full(ny, 0.5), nx).T
    px = rng.dirichlet(np.full(nx, 2.0))
    if zero_x:
        px[0] = 0.0
        px /= px.sum()
    prob = _Problem.build(JointXY(DiscreteDist(px), CondDist(channel)))
    V = rng.dirichlet(np.ones(card_z), nx).T
    new = _mirror_step(V @ prob.stack, prob, beta, 1.0)
    drop = _loss(V, prob, beta)[0] - _loss(new, prob, beta)[0]
    bregman = float(((V * np.log(V / new) - V + new) @ px).sum())
    assert drop >= bregman - 1e-12 * max(1.0, abs(drop))


def random_source_set():
    """20 seeded sources with |X| = 4 and |Y| in 4..6: |Y| is drawn
    first, then the channel columns from Dirichlet(0.7), then P(X) from
    Dirichlet(2)."""
    sources = []
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        ny = int(rng.integers(4, 7))
        channel = rng.dirichlet(np.full(ny, 0.7), 4).T
        sources.append(JointXY(DiscreteDist(rng.dirichlet(np.full(4, 2.0))), CondDist(channel)))
    return sources


@pytest.mark.parametrize("inner_kind", ["ridge", "sparse_log"])
def test_runs_on_random_sources_end_near_stationarity(inner_kind):
    # A 6 x 4 geometric (beta, alpha) grid on [0.1, 10], |Z| = 2..4, one
    # restart and base seed 0: 72 runs per source. On every source at
    # least 0.95 of the runs converge within 1e-3 nats of stationarity,
    # and at least 0.985 of all of them do.
    cfg = SweepConfig(
        beta_grid=tuple(np.geomspace(0.1, 10.0, 6).tolist()),
        alpha_grid=tuple(np.geomspace(0.1, 10.0, 4).tolist()),
        card_z_values=(2, 3, 4),
        restarts=1,
        inner_kind=inner_kind,
        base_seed=0,
    )
    shares = []
    for j in random_source_set():
        points = run_sweep(j, cfg)
        shares.append(np.mean([p.converged and p.stationarity_gap <= 1e-3 for p in points]))
    assert min(shares) >= 0.95, shares
    assert np.mean(shares) >= 0.985, shares
