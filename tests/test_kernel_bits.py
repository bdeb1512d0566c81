"""The solver's kernels return exactly what the sequential reference
kernels return: same arrays, same bits.

The q=1 line search reuses the accepted trial's ``(E, S, resid)`` for
the next gradient, and the projection and entropy kernels use fewer
NumPy calls; none of this may change a single output bit, so those
comparisons are exact. The q=1 kernels take the log-sum-exp in product
form, so the solve is pinned exactly to the product-form reference, and
its objective and gradient to the shifted, term-by-term reference within
a stated bound. The loss reads all its information terms from one
stacked product, so it is pinned exactly to the reference that does the
same, and to the per-term reference within a stated bound.
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
    _SURROGATE_STEP_ITERS,
    _col_entropies,
    _g_value_arr,
    _grad_g_arr,
    _loss,
    _metrics,
    _neg_plogp_sum,
    _Problem,
    _simplex_project_columns,
    _sparse_descent,
    _sparse_gradient,
    _sparse_objective,
    _sparse_terms,
    _spectral_descent,
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


def test_backtracking_is_sequential_halving():
    # A one-coordinate search at x = 0 whose first trial passes and whose
    # every later objective is NaN; the projection records each trial's
    # move -x and returns 0. The second backtracking starts at the
    # spectral step <s,s>/<s,y> = 1/2 (s = 1, y = 3 - 1), tries it times
    # 2**-k for k = 0..46, the last factor at or above the minimum step,
    # along the gradient 3, and then the search stops.
    objectives = iter([1.0, 0.0])
    gradients = iter([np.ones(1), np.full(1, 3.0)])
    trials = []

    def project(x):
        trials.append(-x[0])
        return np.zeros(1)

    got = _spectral_descent(
        np.zeros(1), lambda x: (next(objectives, np.nan), None), lambda x, aux: next(gradients),
        project, lambda x, prev: np.ones(1), 0.0, 5,
    )
    assert 2.0**-46 >= ref.ARMIJO_MIN_STEP > 2.0**-47
    assert trials == [1.0] + [0.5 * 2.0**-k * 3.0 for k in range(47)]
    assert len(got) == 3
    x, obj, stopped = got
    assert np.array_equal(x, np.zeros(1)) and obj == 0.0 and stopped


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


# Bound on the product-form q=1 objective and gradient against the
# shifted reference, relative to max(1, |value|); the two forms round
# apart by a few units in the last place of log S.
PRODUCT_FORM_TOL = 1e-12


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
    corner=st.sampled_from([None, "L", "l_xy", "both"]),
)
def test_product_form_within_bound_of_shifted_form(seed, nz, nx, ny, alpha, kind, zero_cells, at_bounds, corner):
    # Anywhere in the box, and at its corners: every L at the lower bound,
    # every l_xy at the clamped log of a zero cell, or both at once.
    L, l_xy, log_t = sparse_instance(seed, nz, nx, ny, kind, zero_cells, at_bounds)
    if corner in ("L", "both"):
        L[:] = LO
    if corner in ("l_xy", "both"):
        l_xy[:] = np.log(LOG_CLAMP)
    c_xy = np.exp(l_xy)
    e, s = _sparse_terms(L, c_xy)
    resid = np.log(s) - log_t
    got_obj, want_obj = _sparse_objective(L, resid, alpha), ref.sparse_objective(L, l_xy, log_t, alpha)
    assert abs(got_obj - want_obj) <= PRODUCT_FORM_TOL * max(1.0, abs(want_obj))
    got_grad, want_grad = _sparse_gradient((e, s, resid), c_xy, alpha), ref.sparse_gradient(L, l_xy, log_t, alpha)
    assert np.max(np.abs(got_grad - want_grad)) <= PRODUCT_FORM_TOL * max(1.0, np.max(np.abs(want_grad)))
    # The package's kernels are the product-form reference, bit for bit.
    assert got_obj == ref.product_objective(L, l_xy, log_t, alpha)
    assert np.array_equal(got_grad, ref.product_gradient(L, l_xy, log_t, alpha))


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


def within_rounding(got, want):
    """The stacked product and the per-term products round apart; the
    information terms then differ by a few units in the last place."""
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


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
    # The exact step returns the untrimmed step's iterate and stop flag.
    # The loss at that iterate is the one-product loss bit for bit, and
    # the per-term loss to rounding.
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, concentration), nx).T
    prob = _Problem.build(JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel)))
    V = rng.dirichlet(np.full(nz, concentration), nx).T
    V[V < 1e-3] = 0.0
    V /= V.sum(axis=0)
    beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    g = _grad_g_arr(V, prob, beta)
    got, stopped = _surrogate_descent(V, g, prob, 1e-9, budget)
    want, want_stopped = ref.untrimmed_surrogate_descent(
        V, g, prob.pxcy, prob.pycx, prob.px, prob.py, LOG_CLAMP, 1e-9, budget
    )
    assert np.array_equal(got, want) and stopped == want_stopped
    loss = _loss(got, prob, beta)
    assert loss == ref.stacked_loss(got, prob.px, prob.pxcy, prob.py, beta)
    assert within_rounding(loss, ref.untrimmed_loss(got, prob.px, prob.pxcy, prob.py, beta))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 6),
    ny=st.integers(1, 7),
    nz=st.integers(1, 9),
    concentration=st.sampled_from([0.2, 1.0, 5.0]),
    zero_y=st.booleans(),
    fortran=st.booleans(),
)
def test_stacked_product_matches_per_term_kernels(seed, nx, ny, nz, concentration, zero_y, fortran):
    # The draws include |Y| < |X|; ``zero_y`` empties a row of P(y|x), so
    # that P(y) = 0. |Z| up to 9 reaches NumPy's pairwise sums.
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, concentration), nx).T
    if zero_y and ny > 1:
        channel[rng.integers(ny)] = 0.0
        channel /= channel.sum(axis=0)
    prob = _Problem.build(JointXY(DiscreteDist(rng.dirichlet(np.full(nx, 2.0))), CondDist(channel)))
    V = rng.dirichlet(np.full(nz, concentration), nx).T
    V[V < 1e-3] = 0.0
    V /= V.sum(axis=0)
    if fortran:
        V = np.asfortranarray(V)
    beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    assert not prob.stack.flags.writeable
    assert np.array_equal(prob.stack[:, 1 : 1 + ny], prob.pxcy)
    assert np.array_equal((V @ prob.stack)[:, 1 + ny :], V)
    # The per-term formulas: each information term from its own product.
    hz = -float(ref.untrimmed_plogp(V @ prob.px).sum())
    izx = hz - float(ref.untrimmed_col_entropies(V) @ prob.px)
    izy = hz - float(ref.untrimmed_col_entropies(V @ prob.pxcy) @ prob.py)
    got_hz, got_izy, got_izx = _metrics(V, prob)
    assert within_rounding(got_hz, hz)
    assert within_rounding(got_izy, izy) and within_rounding(got_izx, izx)
    loss = _loss(V, prob, beta)
    assert loss == ref.stacked_loss(V, prob.px, prob.pxcy, prob.py, beta)
    assert within_rounding(loss, izy - beta * izx)
    assert loss == got_izy - beta * got_izx
    assert within_rounding(_g_value_arr(V, prob, beta), -hz + beta * izx)
