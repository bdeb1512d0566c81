import gc
import weakref

import numpy as np
import pytest

from conftest import FIXED_POINT_BETA, lagrangian_oracle, stationary_encoder_oracle
from pfdca import (
    CondDist,
    DcaConfig,
    DiscreteDist,
    Encoder,
    JointXY,
    dca_run,
    markov_compose,
    stationarity_gap,
)
from pfdca.dca import (
    _BOX_HI,
    _BOX_LO,
    _INNER_TOL,
    DESCENT_SLACK,
    InnerKind,
    _clog,
    _compute_c_arr,
    _f_value_arr,
    _g_value_arr,
    _grad_f_arr,
    _grad_g_arr,
    _Problem,
    _relaxed_target,
    _ridge_descent,
    _simplex_project_columns,
    _softmax_cols,
    _sparse_descent,
    _sparse_gradient,
    _sparse_objective,
)
from pfdca.probability import bayes_invert, random_encoder, random_interior_encoder

# Iteration cap of the inner-solve oracles below, far above the solver's
# own budget.
ORACLE_MAX_ITER = 5000

# |Y| < |X|: the backward block has rank 2 < |X| = 3.
SHORT_CHANNEL = np.array([[0.6, 0.5, 0.4], [0.4, 0.5, 0.6]])


def fd_gradient(value, matrix, step=1e-6):
    fd = np.zeros_like(matrix)
    for z in range(matrix.shape[0]):
        for x in range(matrix.shape[1]):
            up = matrix.copy()
            up[z, x] += step
            down = matrix.copy()
            down[z, x] -= step
            fd[z, x] = (value(up) - value(down)) / (2 * step)
    return fd


class TestGradients:
    def test_grad_g_uniform_closed_form(self):
        j = JointXY(DiscreteDist.uniform(3), CondDist.identity(3))
        for beta in (0.3, 1.0, 4.0):
            got = _grad_g_arr(Encoder.uniform(3, 3).matrix, _Problem.build(j), beta)
            assert np.allclose(got, (1.0 / 3.0) * (np.log(1.0 / 3.0) + 1.0), atol=1e-12)

    def test_grad_g_matches_fd(self, demo_joint):
        rng = np.random.default_rng(0)
        for beta in (0.5, 1.0, 3.0):
            enc = random_interior_encoder(rng, 3, 3)
            analytic = _grad_g_arr(enc.matrix, _Problem.build(demo_joint), beta)
            fd = fd_gradient(lambda m: _g_value_arr(m, _Problem.build(demo_joint), beta), enc.matrix)
            rel = np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic))
            assert rel < 1e-6

    def test_grad_g_beta_zero_is_entropy_gradient(self, demo_joint):
        rng = np.random.default_rng(1)
        enc = random_interior_encoder(rng, 3, 3)
        got = _grad_g_arr(enc.matrix, _Problem.build(demo_joint), 0.0)
        pz = enc.matrix @ demo_joint.p_x.probs
        expected = demo_joint.p_x.probs[None, :] * (np.log(pz)[:, None] + 1.0)
        assert np.allclose(got, expected, atol=1e-12)

    def test_grad_f_single_code(self, demo_joint):
        got = _grad_f_arr(Encoder.uniform(1, 3).matrix, _Problem.build(demo_joint))
        assert np.allclose(got, demo_joint.p_x.probs[None, :], atol=1e-12)

    def test_grad_f_matches_fd(self, demo_joint):
        rng = np.random.default_rng(2)
        enc = random_interior_encoder(rng, 4, 3)
        analytic = _grad_f_arr(enc.matrix, _Problem.build(demo_joint))
        fd = fd_gradient(lambda m: _f_value_arr(m, _Problem.build(demo_joint)), enc.matrix)
        rel = np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic))
        assert rel < 1e-6

    def test_grad_f_identity_channel_closed_form(self):
        j = JointXY(DiscreteDist(np.array([0.2, 0.8])), CondDist.identity(2))
        rng = np.random.default_rng(3)
        enc = random_interior_encoder(rng, 2, 2)
        got = _grad_f_arr(enc.matrix, _Problem.build(j))
        expected = j.p_x.probs[None, :] * (np.log(enc.matrix) + 1.0)
        assert np.allclose(got, expected, atol=1e-10)


class TestUpdateCoefficients:
    def test_uniform_encoder_constant(self, demo_joint):
        c = _compute_c_arr(Encoder.uniform(3, 3).matrix, _Problem.build(demo_joint), 2.5)
        assert np.allclose(c, np.log(1.0 / 3.0), atol=1e-12)

    def test_beta_one_reduces_to_log_encoder(self, demo_joint):
        rng = np.random.default_rng(4)
        enc = random_interior_encoder(rng, 3, 3)
        c = _compute_c_arr(enc.matrix, _Problem.build(demo_joint), 1.0)
        assert np.allclose(c, np.log(enc.matrix), atol=1e-12)

    def test_scalar_recomputation(self, demo_joint):
        rng = np.random.default_rng(5)
        enc = random_interior_encoder(rng, 3, 3)
        beta = 2.0
        c = _compute_c_arr(enc.matrix, _Problem.build(demo_joint), beta)
        px = demo_joint.p_x.probs
        for z in range(3):
            p_z = sum(enc.matrix[z, x] * px[x] for x in range(3))
            for x in range(3):
                expected = np.log(p_z) + beta * (np.log(enc.matrix[z, x]) - np.log(p_z))
                assert c[z, x] == pytest.approx(expected, abs=1e-12)


class TestTarget:
    def test_uniform_encoder_gives_uniform_target(self, demo_joint):
        target = _relaxed_target(Encoder.uniform(3, 3).matrix, _Problem.build(demo_joint), 1.7)
        assert np.allclose(target, 1.0 / 3.0, atol=1e-12)
        # Linear-solve oracle: constant coefficients solve to a constant,
        # and the softmax of a constant is uniform.
        c = _compute_c_arr(Encoder.uniform(3, 3).matrix, _Problem.build(demo_joint), 1.7)
        solved = np.linalg.solve(demo_joint.y_given_x.matrix.T, c.T).T
        assert np.allclose(solved, solved[0, 0], atol=1e-10)

    def test_columns_stochastic(self, demo_joint):
        rng = np.random.default_rng(6)
        target = _relaxed_target(random_encoder(rng, 4, 3).matrix, _Problem.build(demo_joint), 0.4)
        assert np.allclose(target.sum(axis=0), 1.0, atol=1e-12)

    def test_fixed_point_matches_markov_composition(self, fixed_point_joint):
        beta = FIXED_POINT_BETA
        enc0 = np.array([[0.7, 0.2], [0.3, 0.8]])
        fixed = stationary_encoder_oracle(fixed_point_joint, beta=beta, enc0=enc0)
        assert fixed is not None
        assert abs(fixed[0, 0] - fixed[0, 1]) > 0.05  # genuinely non-constant
        enc = Encoder(fixed)
        target = _relaxed_target(enc.matrix, _Problem.build(fixed_point_joint), beta)
        composed = markov_compose(enc, bayes_invert(fixed_point_joint))
        assert np.max(np.abs(target - composed.matrix)) < 1e-8

    def test_constant_encoder_is_exact_fixed_point_at_unit_beta(self, tiny_joint):
        col = np.array([0.35, 0.65])
        enc = Encoder(np.tile(col[:, None], (1, 2)))
        target = _relaxed_target(enc.matrix, _Problem.build(tiny_joint), 1.0)
        composed = markov_compose(enc, bayes_invert(tiny_joint))
        assert np.max(np.abs(target - composed.matrix)) < 1e-12

    def test_rank_deficient_channel_solved(self):
        # The pseudo-inverse is defined below full rank, so the relaxed
        # target and the solver take the source as it is.
        j = JointXY(DiscreteDist.uniform(3), CondDist(SHORT_CHANNEL))
        rng = np.random.default_rng(14)
        target = _relaxed_target(random_encoder(rng, 2, 3).matrix, _Problem.build(j), 1.0)
        assert np.all(target >= 0.0) and np.allclose(target.sum(axis=0), 1.0, atol=1e-12)
        h_x = np.log2(3.0)
        for inner_kind in InnerKind:
            res = dca_run(j, 2, DcaConfig(beta=1.0, alpha=1.0, inner_kind=inner_kind))
            enc = res.encoder.matrix
            assert np.all(enc >= 0.0) and np.allclose(enc.sum(axis=0), 1.0, atol=1e-12)
            assert -1e-12 <= res.i_zy_bits <= res.i_zx_bits + 1e-12 <= h_x + 2e-12


class TestProblem:
    @staticmethod
    def fields(prob):
        return (prob.px, prob.py, prob.pycx, prob.pxcy, prob.b_pinv_t)

    def test_built_once_per_source(self, demo_joint):
        prob = _Problem.build(demo_joint)
        assert _Problem.build(demo_joint) is prob
        # An equal but distinct source gets its own, uncached build.
        fresh = _Problem.build(JointXY(demo_joint.p_x, demo_joint.y_given_x))
        assert fresh is not prob
        for got, want in zip(self.fields(prob), self.fields(fresh)):
            assert np.array_equal(got, want)
        assert prob.a_smax == fresh.a_smax

    def test_shared_arrays_are_read_only(self, demo_joint):
        for arr in self.fields(_Problem.build(demo_joint)):
            assert not arr.flags.writeable

    def test_released_with_its_source(self):
        j = JointXY(DiscreteDist.uniform(3), CondDist(np.full((2, 3), 0.5)))
        prob = weakref.ref(_Problem.build(j))
        assert prob() is not None
        del j
        gc.collect()
        assert prob() is None

    def test_pseudo_inverse_only_for_the_relaxed_step(self):
        # Built on first read, which only the relaxed target makes; below
        # full rank it is the Moore-Penrose pseudo-inverse of P(y|x).
        j = JointXY(DiscreteDist.uniform(3), CondDist(SHORT_CHANNEL))
        prob = _Problem.build(j)
        assert np.isfinite(stationarity_gap(Encoder.uniform(2, 3), j, beta=1.0))
        assert "b_pinv_t" not in vars(prob)
        a, p = prob.pycx, prob.b_pinv_t
        assert p.shape == (3, 2) and np.all(np.isfinite(p)) and not p.flags.writeable
        assert np.max(np.abs(a @ p @ a - a)) < 1e-12
        assert np.max(np.abs(p @ a @ p - p)) < 1e-12
        assert np.max(np.abs((a @ p).T - a @ p)) < 1e-12
        assert np.max(np.abs((p @ a).T - p @ a)) < 1e-12


class TestSimplexProjection:
    def test_stochastic_column_unchanged(self):
        m = np.array([[0.2, 0.7], [0.8, 0.3]])
        assert np.allclose(_simplex_project_columns(m), m, atol=1e-15)

    def test_axis_point(self):
        out = _simplex_project_columns(np.array([[2.0], [0.0]]))
        assert np.allclose(out[:, 0], [1.0, 0.0], atol=1e-15)

    def test_equal_shift(self):
        out = _simplex_project_columns(np.array([[0.6], [0.6]]))
        assert np.allclose(out[:, 0], [0.5, 0.5], atol=1e-15)

    def test_idempotent_on_random(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 40))
        once = _simplex_project_columns(m)
        twice = _simplex_project_columns(once)
        assert np.max(np.abs(twice - once)) < 1e-12
        assert np.allclose(once.sum(axis=0), 1.0, atol=1e-12)
        assert np.min(once) >= 0.0


class TestInnerRidge:
    def test_interpolation_limit(self, demo_joint):
        rng = np.random.default_rng(8)
        enc_true = random_encoder(rng, 3, 3)
        target = markov_compose(enc_true, bayes_invert(demo_joint))
        # Oracle settings, far tighter than the solver's own.
        tol, max_iter = 1e-16, 20000
        V, _ = _ridge_descent(
            Encoder.uniform(3, 3).matrix, target.matrix, _Problem.build(demo_joint), 1e-12,
            tol, max_iter,
        )
        got = Encoder(V)
        achieved = markov_compose(got, bayes_invert(demo_joint))
        assert np.linalg.norm(achieved.matrix - target.matrix) <= 1e-6

    def test_huge_penalty_gives_uniform(self, demo_joint):
        rng = np.random.default_rng(9)
        prob = _Problem.build(demo_joint)
        target = _relaxed_target(random_encoder(rng, 3, 3).matrix, prob, 1.0)
        got, _ = _ridge_descent(
            random_encoder(rng, 3, 3).matrix, target, prob, 1e6, _INNER_TOL, ORACLE_MAX_ITER
        )
        assert np.max(np.abs(got - 1.0 / 3.0)) < 1e-4

    def test_objective_never_worse_than_warm(self, demo_joint):
        rng = np.random.default_rng(10)
        a_t = bayes_invert(demo_joint).matrix

        def objective(V, T, alpha):
            r = V @ a_t - T
            return 0.5 * np.sum(r * r) + alpha * np.sum(V * V)

        prob = _Problem.build(demo_joint)
        for alpha in (0.1, 1.0, 10.0):
            warm = random_encoder(rng, 3, 3)
            target = _relaxed_target(random_encoder(rng, 3, 3).matrix, prob, 2.0)
            got, _ = _ridge_descent(warm.matrix, target, prob, alpha, _INNER_TOL, ORACLE_MAX_ITER)
            assert objective(got, target, alpha) <= (
                objective(warm.matrix, target, alpha) + 1e-12
            )


class TestInnerSparse:
    def test_zero_residual_is_stationary(self, demo_joint):
        rng = np.random.default_rng(11)
        V = random_interior_encoder(rng, 3, 3).matrix
        l_xy = np.log(bayes_invert(demo_joint).matrix)
        L_star = np.clip(np.log(V), _BOX_LO, _BOX_HI)
        target = markov_compose(Encoder(V), bayes_invert(demo_joint))
        log_t = np.log(target.matrix)
        grad, _ = _sparse_gradient(L_star, l_xy, log_t, 0.0)
        assert np.max(np.abs(grad)) <= 1e-10
        L, _ = _sparse_descent(L_star, l_xy, log_t, 0.0, _INNER_TOL, ORACLE_MAX_ITER)
        assert np.max(np.abs(_softmax_cols(L) - V)) < 1e-9

    def test_l1_term_is_negated_sum(self, demo_joint):
        rng = np.random.default_rng(12)
        L = -rng.uniform(0.5, 5.0, size=(3, 3))
        l_xy = np.log(bayes_invert(demo_joint).matrix)
        log_t = np.log(_relaxed_target(Encoder.uniform(3, 3).matrix, _Problem.build(demo_joint), 1.0))
        alpha = 0.7
        with_pen = _sparse_objective(L, l_xy, log_t, alpha)
        without = _sparse_objective(L, l_xy, log_t, 0.0)
        assert with_pen - without == pytest.approx(-alpha * np.sum(L), rel=1e-12)
        g1, _ = _sparse_gradient(L, l_xy, log_t, alpha)
        g0, _ = _sparse_gradient(L, l_xy, log_t, 0.0)
        assert np.allclose(g1 - g0, -alpha, atol=1e-12)

    def test_solution_feasible(self, demo_joint):
        rng = np.random.default_rng(13)
        prob = _Problem.build(demo_joint)
        target = _relaxed_target(random_encoder(rng, 3, 3).matrix, prob, 3.0)
        L0 = np.clip(_clog(random_encoder(rng, 3, 3).matrix), _BOX_LO, _BOX_HI)
        L, _ = _sparse_descent(L0, _clog(prob.pxcy), _clog(target), 0.5, _INNER_TOL, ORACLE_MAX_ITER)
        got = _softmax_cols(L)
        assert np.allclose(got.sum(axis=0), 1.0, atol=1e-12)
        assert np.min(got) >= 0.0


class TestDcaRun:
    def test_single_code_immediate(self, demo_joint):
        res = dca_run(demo_joint, 1, DcaConfig(beta=1.0, alpha=1.0))
        assert res.converged
        assert res.i_zx_bits == pytest.approx(0.0, abs=1e-12)
        assert res.i_zy_bits == pytest.approx(0.0, abs=1e-12)
        assert res.loss_nats == pytest.approx(0.0, abs=1e-12)

    def test_small_beta_collapses(self, demo_joint):
        res = dca_run(demo_joint, 3, DcaConfig(beta=0.1, alpha=1.0, seed=1))
        assert res.converged
        # Constant-encoder oracle: the collapsed solution scores zero loss.
        assert abs(res.loss_nats - 0.0) < 1e-4
        assert res.i_zx_bits < 1e-3

    @pytest.mark.parametrize("beta", [0.1, 0.631, 1.0, 2.929, 10.0])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_grid_cells_converge_monotonically(self, demo_joint, beta, alpha):
        res = dca_run(demo_joint, 3, DcaConfig(beta=beta, alpha=alpha, seed=2))
        assert res.converged
        assert res.iterations < 10000
        if len(res.loss_trace) > 1:
            assert np.max(np.diff(res.loss_trace)) <= DESCENT_SLACK
        assert not res.defect

    def test_sparse_kind_converges(self, demo_joint):
        res = dca_run(
            demo_joint, 3, DcaConfig(beta=1.5, alpha=0.5, inner_kind="sparse_log", seed=3)
        )
        assert res.converged
        assert np.max(np.diff(res.loss_trace)) <= DESCENT_SLACK

    def test_deterministic_given_seed(self, demo_joint):
        cfg = DcaConfig(beta=1.3, alpha=0.7, seed=11)
        r1 = dca_run(demo_joint, 3, cfg)
        r2 = dca_run(demo_joint, 3, cfg)
        assert np.array_equal(r1.loss_trace, r2.loss_trace)
        assert np.array_equal(r1.encoder.matrix, r2.encoder.matrix)

    @pytest.mark.parametrize("field, value", [("seed", -1), ("outer_max_iter", 2.5)])
    def test_config_refuses_values_that_would_fail_later(self, field, value):
        with pytest.raises(ValueError, match=field):
            DcaConfig(beta=1.0, alpha=1.0, **{field: value})

    def test_config_takes_numpy_integers(self, demo_joint):
        cfg = DcaConfig(beta=1.0, alpha=1.0, outer_max_iter=np.int32(3), seed=np.int64(4))
        assert dca_run(demo_joint, 2, cfg).iterations <= 3

    @pytest.mark.parametrize("card_z", [2.5, 2.0, "2", 0])
    def test_refuses_card_z_that_is_not_a_positive_integer(self, demo_joint, card_z):
        with pytest.raises(ValueError, match="card_z must be an integer"):
            dca_run(demo_joint, card_z, DcaConfig(beta=1.0, alpha=1.0))

    def test_takes_numpy_integer_card_z(self, demo_joint):
        res = dca_run(demo_joint, np.int64(2), DcaConfig(beta=1.0, alpha=1.0))
        assert res.encoder.matrix.shape == (2, 3)

    def test_init_validation(self, demo_joint):
        with pytest.raises(ValueError):
            dca_run(demo_joint, 3, DcaConfig(beta=1.0, alpha=1.0), init=Encoder.uniform(2, 3))

    def test_loss_matches_oracle(self, demo_joint):
        res = dca_run(demo_joint, 3, DcaConfig(beta=2.0, alpha=0.3, seed=4))
        assert res.loss_nats == pytest.approx(
            lagrangian_oracle(res.encoder.matrix, demo_joint, 2.0), abs=1e-10
        )

    def test_descent_certificate_stepwise(self, demo_joint):
        # Chain single outer steps to observe consecutive iterates and check
        # the marginal-movement lower bound on each accepted decrease.
        px = demo_joint.p_x.probs
        for beta, alpha, seed in [(1.0, 1.0, 0), (2.929, 0.464, 1), (0.341, 2.154, 2)]:
            rng = np.random.default_rng(seed)
            enc = random_encoder(rng, 3, 3)
            prev_loss = lagrangian_oracle(enc.matrix, demo_joint, beta)
            for _ in range(25):
                cfg = DcaConfig(beta=beta, alpha=alpha, outer_max_iter=1, seed=seed)
                res = dca_run(demo_joint, 3, cfg, init=enc)
                step_drop = prev_loss - res.loss_nats
                marginal_move = (res.encoder.matrix - enc.matrix) @ px
                assert step_drop >= 0.5 * float(marginal_move @ marginal_move) - 1e-5
                assert step_drop >= -1e-6
                if res.converged:
                    break
                enc = res.encoder
                prev_loss = res.loss_nats


class TestStationarityGap:
    def test_single_code_gap_zero(self, demo_joint):
        assert stationarity_gap(Encoder.uniform(1, 3), demo_joint, beta=1.0) == 0.0

    def test_random_encoder_not_stationary(self, demo_joint):
        rng = np.random.default_rng(14)
        enc = random_interior_encoder(rng, 3, 3)
        assert stationarity_gap(enc, demo_joint, beta=1.0) > 1e-3

    def test_constructed_fixed_point_is_stationary(self, fixed_point_joint):
        fixed = stationary_encoder_oracle(
            fixed_point_joint, beta=FIXED_POINT_BETA, enc0=np.array([[0.7, 0.2], [0.3, 0.8]])
        )
        assert fixed is not None
        gap = stationarity_gap(
            Encoder(fixed), fixed_point_joint, beta=FIXED_POINT_BETA
        )
        assert gap <= 1e-6

    def test_matches_independent_recomputation(self, demo_joint):
        rng = np.random.default_rng(15)
        enc = random_interior_encoder(rng, 3, 3)
        beta = 1.4
        got = stationarity_gap(enc, demo_joint, beta=beta)
        fd_f = fd_gradient(lambda m: _f_value_arr(m, _Problem.build(demo_joint)), enc.matrix)
        fd_g = fd_gradient(lambda m: _g_value_arr(m, _Problem.build(demo_joint), beta), enc.matrix)
        diff = fd_f - fd_g
        worst = 0.0
        for x in range(3):
            support = [z for z in range(3) if enc.matrix[z, x] > 1e-8]
            mean = sum(diff[z, x] for z in support) / len(support)
            for z in support:
                worst = max(worst, abs(diff[z, x] - mean))
        assert got == pytest.approx(worst, abs=1e-5)

    def test_constant_single_row_annihilated(self, demo_joint):
        enc = Encoder(np.ones((1, 3)))
        assert stationarity_gap(enc, demo_joint, beta=2.0) == 0.0


class TestRestrictedConvexityDirect:
    def test_lemma_inequality_on_random_pairs(self, demo_joint):
        rng = np.random.default_rng(16)
        px = demo_joint.p_x.probs
        prob = _Problem.build(demo_joint)
        for _ in range(200):
            p = random_interior_encoder(rng, 3, 3).matrix
            q = random_interior_encoder(rng, 3, 3).matrix
            for beta in (0.1, 1.0, 10.0):
                lhs = _g_value_arr(p, prob, beta) - _g_value_arr(q, prob, beta)
                grad_q = _grad_g_arr(Encoder(q).matrix, prob, beta)
                inner = float(np.sum(grad_q * (p - q)))
                move = (p - q) @ px
                assert lhs - inner - 0.5 * float(move @ move) >= -1e-9
