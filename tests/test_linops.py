"""The problem object's channel blocks and pseudo-inverse, and the
numerically stable kernels (softmax over codes, the q=1 log-sum-exp)
that the solver builds on them."""

import numpy as np
import pytest

import reference_kernels as ref
from pfdca import CondDist, DiscreteDist, JointXY
from pfdca.dca import _BOX_HI, _BOX_LO, _Problem, _softmax_cols, _sparse_terms
from pfdca.linops import MarkovOperator
from pfdca.probability import bayes_invert, markov_compose, random_encoder


def identity_joint(n=3):
    return JointXY(DiscreteDist(np.full(n, 1.0 / n)), CondDist(np.eye(n)))


def backward_block(j):
    """The backward block of ``j``: entry (x, y) = P(y|x)."""
    return MarkovOperator(j.y_given_x.matrix.T)


def lse_over_x(L, l_xy):
    """Log-sum-exp over x of ``L[z, x] + l_xy[x, y]``, per (z, y), in the
    solver's product form ``log(exp(L) @ exp(l_xy))``."""
    return np.log(_sparse_terms(np.asarray(L, dtype=float), np.exp(np.asarray(l_xy, dtype=float)))[1])


def shifted_lse_over_x(L, l_xy):
    """The same log-sum-exp, shifted by its max over x."""
    return ref.lse_over_x(np.asarray(L, dtype=float), np.asarray(l_xy, dtype=float))


class TestOperators:
    def test_b_identity_channel(self):
        prob = _Problem.build(identity_joint())
        assert np.allclose(prob.pycx.T, np.eye(3))
        v = np.arange(6.0).reshape(2, 3)
        assert np.allclose(v @ prob.b_pinv_t, v)

    def test_b_demo_block_is_channel_transpose(self, demo_joint):
        prob = _Problem.build(demo_joint)
        assert np.allclose(prob.pycx.T, demo_joint.y_given_x.matrix.T, atol=1e-15)
        # Each column P(.|x) sums to one, so averaging a constant over y keeps it.
        assert np.allclose(np.ones((3, 3)) @ prob.pycx, 1.0, atol=1e-12)

    def test_block_diagonal_structure(self, demo_joint):
        # The pseudo-inverse acts on each code's row alone.
        b_pinv_t = _Problem.build(demo_joint).b_pinv_t
        v = np.zeros((2, 3))
        v[1] = np.array([5.0, -2.0, 7.0])
        out = v @ b_pinv_t
        assert np.allclose(out[0], 0.0)
        v2 = v.copy()
        v2[1] = 99.0
        assert np.allclose((v2 @ b_pinv_t)[0], out[0])

    def test_a_identity_channel(self):
        assert np.allclose(_Problem.build(identity_joint()).pxcy, np.eye(3))

    def test_a_uniform_encoder(self, demo_joint):
        out = np.full((3, 3), 1.0 / 3.0) @ _Problem.build(demo_joint).pxcy
        assert np.allclose(out, 1.0 / 3.0, atol=1e-12)

    def test_a_matches_markov_compose(self, demo_joint):
        rng = np.random.default_rng(7)
        enc = random_encoder(rng, 4, 3)
        composed = markov_compose(enc, bayes_invert(demo_joint))
        assert np.max(np.abs(enc.matrix @ _Problem.build(demo_joint).pxcy - composed.matrix)) < 1e-14


class TestPinv:
    def test_identity_block(self):
        assert np.allclose(MarkovOperator(np.eye(3)).pinv_block(), np.eye(3), atol=1e-14)

    def test_demo_block_inverse(self, demo_joint):
        op = backward_block(demo_joint)
        assert np.max(np.abs(op.pinv_block() @ op.block - np.eye(3))) < 1e-10

    def test_pinv_identities(self, demo_joint):
        op = backward_block(demo_joint)
        b = op.block
        bp = op.pinv_block()
        assert np.max(np.abs(b @ bp @ b - b)) < 1e-10
        assert np.max(np.abs(bp @ b @ bp - bp)) < 1e-10
        assert np.array_equal(_Problem.build(demo_joint).b_pinv_t, bp.T)

    def test_constant_vector_preserved(self, demo_joint):
        v = np.full((2, 3), 4.2)
        assert np.allclose(v @ _Problem.build(demo_joint).b_pinv_t, 4.2, atol=1e-10)

    def test_forward_pinv_is_projection(self, demo_joint):
        rng = np.random.default_rng(5)
        prob = _Problem.build(demo_joint)
        v = rng.normal(size=(2, 3))
        once = v @ prob.b_pinv_t @ prob.pycx
        twice = once @ prob.b_pinv_t @ prob.pycx
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_rank_deficient_block(self):
        # Rank 1 < 2: the truncated SVD still gives the Moore-Penrose
        # pseudo-inverse, which meets all four of its identities.
        op = MarkovOperator(np.ones((2, 2)) * 0.5)
        b, bp = op.block, op.pinv_block()
        assert np.all(np.isfinite(bp))
        assert np.max(np.abs(b @ bp @ b - b)) < 1e-12
        assert np.max(np.abs(bp @ b @ bp - bp)) < 1e-12
        assert np.max(np.abs((b @ bp).T - b @ bp)) < 1e-12
        assert np.max(np.abs((bp @ b).T - bp @ b)) < 1e-12


class TestSoftmax:
    def test_all_equal_gives_uniform(self):
        out = _softmax_cols(np.full((4, 3), 2.5))
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(3, 5))
        shifted = v + rng.normal(size=(1, 5))
        assert np.max(np.abs(_softmax_cols(v) - _softmax_cols(shifted))) < 1e-12

    def test_recovers_probabilities_from_logs(self):
        rng = np.random.default_rng(2)
        m = rng.random((4, 3)) + 0.1
        m /= m.sum(axis=0, keepdims=True)
        assert np.max(np.abs(_softmax_cols(np.log(m)) - m)) < 1e-12

    def test_positive_and_normalized_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            v = rng.normal(scale=rng.uniform(0.1, 50), size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            out = _softmax_cols(v)
            assert np.all(out > 0)
            assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)


class TestLogSumExp:
    def test_single_element_exact(self):
        # The shift leaves one term exact; the product form rounds its exp
        # and its log.
        assert shifted_lse_over_x([[-3.7]], [[0.0]]) == -3.7
        assert lse_over_x([[-3.7]], [[0.0]]) == pytest.approx(-3.7, abs=1e-15)

    def test_two_zeros(self):
        for lse in (lse_over_x, shifted_lse_over_x):
            assert lse([[0.0, 0.0]], [[0.0], [0.0]]) == pytest.approx(np.log(2), abs=1e-15)

    def test_extreme_spread_is_stable(self):
        # The shift keeps the log-sum-exp finite at any spread; the product
        # form relies on the box instead (below).
        out = shifted_lse_over_x([[-1e4, 0.0]], [[0.0], [0.0]])
        assert np.all(np.isfinite(out))
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_product_form_needs_no_shift_on_the_box(self):
        # The box's corners: every L at either bound, every P(x|y) at the
        # clamp or spread evenly. No product entry comes near underflow,
        # and the two forms round apart by a few units in the last place.
        clamp = np.log(1e-12)
        for L in (np.full((2, 3), _BOX_LO), np.full((2, 3), _BOX_HI), np.array([[_BOX_LO] * 3, [_BOX_HI] * 3])):
            for l_xy in (np.full((3, 2), clamp), np.full((3, 2), np.log(1.0 / 3.0))):
                got, want = lse_over_x(L, l_xy), shifted_lse_over_x(L, l_xy)
                assert np.all(np.isfinite(got))
                assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    def test_axis_variant(self):
        # The sum runs over x for each (z, y).
        l_xy = np.array([[0.0, 1.0], [0.0, 1.0]])
        expected = np.array([np.log(2), 1 + np.log(2)])
        for lse in (lse_over_x, shifted_lse_over_x):
            assert np.allclose(lse(np.zeros((1, 2)), l_xy), expected)
