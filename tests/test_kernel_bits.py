"""The solver's kernels return exactly what the sequential reference
kernels return: same arrays, same bits.

The q=1 line search reuses the accepted trial's log-sum-exp for the
next gradient, and the projection and entropy kernels use fewer NumPy
calls; none of this may change a single output bit, so every comparison
here is exact.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pfdca.dca
import pfdca.probability
import reference_kernels as ref
from pfdca import CondDist, DiscreteDist, JointXY
from pfdca.dca import (
    _ARMIJO_STEPS,
    _SURROGATE_STEP_ITERS,
    _col_entropies,
    _f_value_arr,
    _grad_g_arr,
    _loss,
    _neg_plogp_sum,
    _Problem,
    _simplex_project_columns,
    _sparse_descent,
    _spectral_step,
    _surrogate_descent,
)
from pfdca.probability import _plogp, entropy_nats

LO, HI = -30.0, -1e-6
LOG_CLAMP = 1e-12

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _clog(a):
    return np.log(np.maximum(a, LOG_CLAMP))


def sparse_instance(seed, nz, nx, ny, kind="raw", zero_cells=False, at_bounds=False):
    """(L0, l_xy, log_target) of one q=1 inner solve.

    ``raw`` draws log-likelihoods anywhere in the box; ``source`` takes
    them from random distributions as the solver does, where
    ``zero_cells`` empties some cells (clamped logs). ``at_bounds`` puts
    some start coordinates exactly on the box bounds.
    """
    rng = np.random.default_rng(seed)
    if kind == "raw":
        l_xy = rng.uniform(LO, 0.0, (nx, ny))
        log_t = rng.uniform(LO, 0.0, (nz, ny))
        L0 = rng.uniform(LO, HI, (nz, nx))
    else:
        pxcy = rng.dirichlet(np.ones(nx), ny).T
        target = rng.dirichlet(np.ones(nz), ny).T
        warm = rng.dirichlet(np.ones(nz), nx).T
        if zero_cells:
            for m in (pxcy, target, warm):
                m[rng.random(m.shape) < 0.3] = 0.0
        l_xy, log_t, L0 = _clog(pxcy), _clog(target), np.clip(_clog(warm), LO, HI)
    if at_bounds:
        pick = rng.random(L0.shape)
        L0[pick < 0.2] = LO
        L0[pick > 0.8] = HI
    return L0, l_xy, log_t


def assert_same_solve(L0, l_xy, log_t, alpha, tol, max_iter):
    # The solver starts from C-ordered iterates; a start in another memory
    # layout is solved as its C-ordered copy.
    want_L, want_obj = ref.sparse_descent(np.ascontiguousarray(L0), l_xy, log_t, alpha, LO, HI, tol, max_iter)
    got_L, got_obj = _sparse_descent(L0, l_xy, log_t, alpha, tol, max_iter)
    assert np.array_equal(got_L, want_L)
    assert type(got_obj) is float
    assert got_obj == want_obj


def test_step_table_is_sequential_halving():
    steps = []
    step = 1.0
    while step >= ref.ARMIJO_MIN_STEP:
        steps.append(step)
        step *= ref.ARMIJO_SHRINK
    assert len(steps) == 47
    assert list(_ARMIJO_STEPS) == steps


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    nz=st.integers(1, 7),
    nx=st.integers(1, 6),
    ny=st.integers(1, 8),
    alpha=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
    kind=st.sampled_from(["raw", "source"]),
    zero_cells=st.booleans(),
    at_bounds=st.booleans(),
    tol=st.sampled_from([1e-9, 1e-12]),
    fortran=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_sparse_descent_matches_sequential(seed, nz, nx, ny, alpha, kind, zero_cells, at_bounds, tol, fortran):
    parts = sparse_instance(seed, nz, nx, ny, kind, zero_cells, at_bounds)
    # Memory layouts vary: the solver's own l_xy, for one, is F-ordered.
    L0, l_xy, log_t = (np.asfortranarray(a) if f else np.ascontiguousarray(a) for a, f in zip(parts, fortran))
    assert_same_solve(L0, l_xy, log_t, alpha, tol, 150)


def test_sparse_descent_with_long_backtracking():
    # A solve in which one iteration backtracks at least 8 times before a
    # step passes the Armijo test.
    L0, l_xy, log_t = sparse_instance(72, 5, 4, 8)
    halvings = []
    ref.sparse_descent(L0, l_xy, log_t, 10.0, LO, HI, 1e-9, 100, halvings)
    assert max(halvings) >= 8
    assert_same_solve(L0, l_xy, log_t, 10.0, 1e-9, 100)


def test_sparse_descent_no_step_passes():
    # A NaN objective fails every Armijo test: all 47 steps are tried and
    # both versions return the start.
    L0, l_xy, log_t = sparse_instance(7, 3, 3, 4)
    log_t[0, 0] = np.nan
    halvings = []
    want_L, _ = ref.sparse_descent(L0, l_xy, log_t, 1.0, LO, HI, 1e-9, 10, halvings)
    got_L, got_obj = _sparse_descent(L0, l_xy, log_t, 1.0, 1e-9, 10)
    assert halvings == [47]
    assert np.array_equal(got_L, want_L) and np.array_equal(got_L, L0)
    assert np.isnan(got_obj)


def test_spectral_step_safeguards():
    s = np.array([[1.0, -2.0]])
    assert _spectral_step(s, -s) == 1.0
    assert _spectral_step(s, np.zeros_like(s)) == 1.0
    assert _spectral_step(np.zeros_like(s), s) == 1.0
    assert _spectral_step(s, np.full_like(s, np.nan)) == 1.0
    assert _spectral_step(s, 1e-9 * s) == 1e6
    assert _spectral_step(s, 1e9 * s) == 1e-6
    assert _spectral_step(s, 4.0 * s) == 0.25


def matrices(min_value, max_value):
    """2-D float arrays, C- or F-ordered, whose entries are often exactly
    zero or repeated."""
    shapes = st.tuples(st.integers(1, 8), st.integers(1, 9))
    values = st.one_of(st.just(0.0), st.just(0.5), st.floats(min_value, max_value))
    layouts = st.sampled_from([np.ascontiguousarray, np.asfortranarray])
    return st.builds(
        lambda m, layout: layout(m),
        shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=values)),
        layouts,
    )


@settings(max_examples=200, deadline=None)
@given(m=matrices(-2.0, 2.0))
def test_projection_matches_reference(m):
    before = m.copy()
    want = ref.simplex_project_columns(m)
    assert np.array_equal(_simplex_project_columns(m), want)
    assert np.array_equal(_simplex_project_columns(m), ref.untrimmed_simplex_project_columns(m))
    assert np.array_equal(m, before)
    # The second call of a shape reuses its cached index arrays.
    assert np.array_equal(_simplex_project_columns(m), want)


@settings(max_examples=200, deadline=None)
@given(m=matrices(0.0, 1.0))
def test_entropies_match_reference(m):
    # The solver calls the one pair of entropy kernels, defined in probability.
    assert pfdca.dca._col_entropies is pfdca.probability._col_entropies
    assert pfdca.dca._neg_plogp_sum is pfdca.probability._neg_plogp_sum
    assert np.array_equal(_col_entropies(m), ref.col_entropies(m))
    # A (B, k, n) stack gives every item the bits of that item alone.
    stack = np.stack([m, m[::-1], m * m])
    got = _col_entropies(stack)
    assert got.shape == (3, m.shape[1])
    for item, h in zip(stack, got):
        assert np.array_equal(h, ref.col_entropies(item))
    assert _neg_plogp_sum(m) == ref.neg_plogp_sum(m)
    column = m[:, 0]
    assert _neg_plogp_sum(column) == ref.neg_plogp_sum(column)
    # The information measures and the certificates share the kernel.
    assert np.array_equal(_plogp(m), ref.plogp(m))
    # Same bits and same memory layout, so that sums over it run in the
    # same order.
    for a in (m, column):
        got, want = _plogp(a), ref.untrimmed_plogp(a)
        assert np.array_equal(got, want) and got.strides == want.strides
    assert entropy_nats(column) == ref.entropy_nats(column)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 6),
    ny=st.integers(1, 8),
    nz=st.integers(1, 7),
    concentration=st.sampled_from([0.2, 1.0, 5.0]),
    budget=st.sampled_from([1, 5, _SURROGATE_STEP_ITERS]),
)
def test_exact_step_and_loss_match_untrimmed(seed, nx, ny, nz, concentration, budget):
    # The exact step returns the untrimmed step's iterate and stop flag,
    # plus f at that iterate; the loss computed from that f is the loss
    # computed from scratch.
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, concentration), nx).T
    prob = _Problem.build(JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel)))
    V = rng.dirichlet(np.full(nz, concentration), nx).T
    V[V < 1e-3] = 0.0
    V /= V.sum(axis=0)
    beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    g = _grad_g_arr(V, prob, beta)
    got, stopped, f = _surrogate_descent(V, g, prob, 1e-9, budget)
    want, want_stopped = ref.untrimmed_surrogate_descent(
        V, g, prob.pxcy, prob.pycx, prob.px, prob.py, LOG_CLAMP, 1e-9, budget
    )
    assert np.array_equal(got, want) and stopped == want_stopped
    assert f == _f_value_arr(got, prob)
    loss = ref.untrimmed_loss(got, prob.px, prob.pxcy, prob.py, beta)
    assert _loss(got, prob, beta, f) == loss == _loss(got, prob, beta)
