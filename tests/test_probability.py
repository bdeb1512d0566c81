import json

import numpy as np
import pytest

from conftest import (
    DEMO_CHANNEL,
    entropy_oracle,
    marginal_y_oracle,
    mi_bruteforce_oracle,
)
from pfdca import (
    CondDist,
    DcaConfig,
    DiscreteDist,
    Encoder,
    InvalidDistributionError,
    JointXY,
    bayes_invert,
    dca_run,
    entropy,
    joint_from_dict,
    load_joint,
    markov_compose,
    mutual_information,
    pf_lagrangian,
)
from pfdca.probability import random_encoder


class TestValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDist(np.array([0.5, 0.6, -0.1]))

    def test_repairs_small_drift(self):
        d = DiscreteDist(np.array([0.5, 0.5 + 3e-10]))
        assert abs(d.probs.sum() - 1.0) <= 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDist(np.array([0.5, 0.6]))

    def test_arrays_immutable(self):
        d = DiscreteDist(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_cond_dist_column_sums(self):
        with pytest.raises(InvalidDistributionError):
            CondDist(np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_joint_accepts_zero_y_marginal(self):
        # y = 1 never occurs; its posterior column is P(X).
        channel = np.array([[1.0, 1.0], [0.0, 0.0]])
        j = JointXY(DiscreteDist(np.array([0.25, 0.75])), CondDist(channel))
        assert np.array_equal(j.p_y.probs, [1.0, 0.0])
        assert np.array_equal(bayes_invert(j).matrix, [[0.25, 0.25], [0.75, 0.75]])
        assert JointXY.from_joint_matrix(j.joint_matrix()).n_y == 2

    def test_joint_matrix_with_zero_row_round_trips(self):
        # x = 2 never occurs; its channel column is P(Y).
        joint = np.array([[0.45, 0.05], [0.1, 0.4], [0.0, 0.0]])
        j = JointXY.from_joint_matrix(joint)
        assert np.array_equal(j.p_x.probs, [0.5, 0.5, 0.0])
        assert np.allclose(j.y_given_x.matrix[:, 2], j.p_y.probs, rtol=0.0, atol=1e-15)
        assert np.allclose(j.joint_matrix(), joint, rtol=0.0, atol=1e-15)
        assert np.array_equal(j.joint_matrix()[2], [0.0, 0.0])

    def test_all_zero_joint_matrix_is_refused(self):
        with pytest.raises(InvalidDistributionError):
            JointXY.from_joint_matrix(np.zeros((3, 2)))

    def test_joint_dimension_mismatch(self):
        with pytest.raises(InvalidDistributionError):
            JointXY(DiscreteDist(np.array([0.5, 0.5])), CondDist(np.eye(3)))


class TestEntropy:
    def test_uniform_three(self):
        assert entropy(DiscreteDist(np.full(3, 1.0 / 3))) == pytest.approx(np.log(3), abs=1e-12)

    def test_point_mass(self):
        assert entropy(DiscreteDist(np.array([0.0, 1.0, 0.0]))) == 0.0

    def test_demo_y_marginal(self, demo_joint):
        p_y = marginal_y_oracle(demo_joint)
        assert np.allclose(p_y, [0.46, 0.29833333333333334, 0.24166666666666667], atol=1e-12)
        expected = entropy_oracle(p_y)
        assert entropy(demo_joint.p_y) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            p = rng.random(n)
            d = DiscreteDist(p / p.sum())
            assert entropy(d) >= -1e-12


class TestMutualInformation:
    def test_constant_encoder_is_independent(self, demo_joint):
        enc = Encoder(np.tile(np.array([[0.2], [0.5], [0.3]]), (1, 3)))
        assert mutual_information(enc, demo_joint.p_x) == pytest.approx(0.0, abs=1e-12)

    def test_identity_encoder_on_uniform(self):
        mi = mutual_information(CondDist(np.eye(3)), DiscreteDist(np.full(3, 1.0 / 3)))
        assert mi == pytest.approx(np.log(3), abs=1e-12)

    def test_demo_channel_matches_bruteforce(self, demo_joint):
        expected = mi_bruteforce_oracle(demo_joint.joint_matrix().T)
        got = mutual_information(demo_joint.y_given_x, demo_joint.p_x)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            nz = int(rng.integers(1, 5))
            nx = int(rng.integers(1, 5))
            enc = random_encoder(rng, nz, nx)
            w = rng.random(nx)
            mi = mutual_information(enc, DiscreteDist(w / w.sum()))
            assert mi >= -1e-12


class TestMarkovCompose:
    def test_identity_encoder_passthrough(self, demo_joint):
        pxcy = bayes_invert(demo_joint)
        composed = markov_compose(Encoder(np.eye(3)), pxcy)
        assert np.allclose(composed.matrix, pxcy.matrix, atol=1e-15)

    def test_constant_encoder_ignores_conditioning(self, demo_joint):
        col = np.array([0.6, 0.1, 0.3])
        enc = Encoder(np.tile(col[:, None], (1, 3)))
        composed = markov_compose(enc, bayes_invert(demo_joint))
        for y in range(3):
            assert np.allclose(composed.matrix[:, y], col, atol=1e-12)

    def test_uniform_encoder_absorbs(self, demo_joint):
        composed = markov_compose(Encoder(np.full((3, 3), 1.0 / 3)), bayes_invert(demo_joint))
        assert np.allclose(composed.matrix, 1.0 / 3.0, atol=1e-12)

    def test_dimension_mismatch(self, demo_joint):
        with pytest.raises(InvalidDistributionError):
            markov_compose(Encoder(np.full((2, 4), 1.0 / 2)), bayes_invert(demo_joint))

    def test_columns_stochastic_on_random(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            nz, nx, ny = (int(rng.integers(1, 5)) for _ in range(3))
            enc = random_encoder(rng, nz, nx)
            m = rng.random((nx, ny)) + 1e-3
            xgy = CondDist(m / m.sum(axis=0, keepdims=True))
            composed = markov_compose(enc, xgy)
            assert np.allclose(composed.matrix.sum(axis=0), 1.0, atol=1e-12)


class TestBayesInvert:
    def test_permutation_channel(self):
        j = JointXY(DiscreteDist(np.full(3, 1.0 / 3)), CondDist(np.eye(3)))
        assert np.allclose(bayes_invert(j).matrix, np.eye(3), atol=1e-15)

    def test_demo_elementwise(self, demo_joint):
        got = bayes_invert(demo_joint).matrix
        p_y = marginal_y_oracle(demo_joint)
        for x in range(3):
            for y in range(3):
                expected = DEMO_CHANNEL[y, x] * (1.0 / 3.0) / p_y[y]
                assert got[x, y] == pytest.approx(expected, abs=1e-12)

    def test_demo_second_symbol_dominates(self, demo_joint):
        # P(x=1 | y=1) = 0.82 / (3 * 0.29833...) ~ 0.916
        got = bayes_invert(demo_joint).matrix[1, 1]
        assert got == pytest.approx(0.82 / (3.0 * 0.29833333333333334), abs=1e-9)
        assert got > 0.9


    @pytest.mark.parametrize("seed", range(5))
    def test_zero_probability_output(self, seed):
        # Inserting a never-seen output symbol leaves every other posterior
        # column and every information measure as it was, up to rounding.
        rng = np.random.default_rng(seed)
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        p_x = DiscreteDist(rng.dirichlet(np.ones(nx)))
        channel = rng.dirichlet(np.ones(ny), nx).T
        k = int(rng.integers(0, ny + 1))
        j = JointXY(p_x, CondDist(np.insert(channel, k, 0.0, axis=0)))
        short = JointXY(p_x, CondDist(channel))
        post = bayes_invert(j).matrix
        assert np.array_equal(post[:, k], p_x.probs)
        assert np.allclose(np.delete(post, k, axis=1), bayes_invert(short).matrix, rtol=0.0, atol=1e-15)
        enc = random_encoder(rng, 3, nx)
        for beta in (0.5, 2.0):
            assert pf_lagrangian(enc, j, beta) == pytest.approx(pf_lagrangian(enc, short, beta), abs=1e-12)


class TestLagrangian:
    def test_constant_encoder_zero_for_any_beta(self, demo_joint):
        enc = Encoder(np.tile(np.array([[0.7], [0.3]]), (1, 3)))
        for beta in (0.1, 1.0, 10.0):
            assert pf_lagrangian(enc, demo_joint, beta) == pytest.approx(0.0, abs=1e-12)

    def test_identity_encoder_beta_one(self, demo_joint):
        expected = mi_bruteforce_oracle(demo_joint.joint_matrix().T) - entropy_oracle(
            demo_joint.p_x.probs
        )
        got = pf_lagrangian(Encoder(np.eye(3)), demo_joint, 1.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_decreasing_in_beta(self, demo_joint):
        rng = np.random.default_rng(3)
        enc = random_encoder(rng, 3, 3)
        assert pf_lagrangian(enc, demo_joint, 10.0) < pf_lagrangian(enc, demo_joint, 0.1)

    def test_rejects_nonpositive_beta(self, demo_joint):
        with pytest.raises(ValueError):
            pf_lagrangian(Encoder(np.eye(3)), demo_joint, 0.0)

    @pytest.mark.parametrize("beta", [-1.0, np.nan, np.inf, -np.inf])
    def test_rejects_beta_the_solver_refuses(self, demo_joint, beta):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            pf_lagrangian(Encoder(np.eye(3)), demo_joint, beta)

    @pytest.mark.parametrize("n_x", [2, 4])
    def test_rejects_encoder_over_wrong_alphabet(self, demo_joint, n_x):
        with pytest.raises(InvalidDistributionError):
            pf_lagrangian(Encoder(np.full((2, n_x), 1.0 / 2)), demo_joint, 1.0)

    @pytest.mark.parametrize("inner_kind", ["ridge", "sparse_log"])
    def test_is_the_loss_the_solver_reports(self, inner_kind):
        # The public Lagrangian is the loss dca_run descends, to the last bit.
        rng = np.random.default_rng(16)
        for seed in range(40):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 7))
            channel = rng.dirichlet(np.full(ny, 0.5), nx).T
            j = JointXY(DiscreteDist(rng.dirichlet(np.ones(nx))), CondDist(channel))
            beta = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            cfg = DcaConfig(beta=beta, alpha=float(rng.uniform(0.1, 2.0)), inner_kind=inner_kind, seed=seed)
            res = dca_run(j, int(rng.integers(2, 6)), cfg)
            assert pf_lagrangian(res.encoder, j, beta) == res.loss_nats


class TestInformationInequalities:
    def test_mi_convex_in_encoder(self, demo_joint):
        rng = np.random.default_rng(21)
        pxcy = bayes_invert(demo_joint)
        for _ in range(300):
            nz = int(rng.integers(2, 5))
            e1 = random_encoder(rng, nz, 3)
            e2 = random_encoder(rng, nz, 3)
            lam = float(rng.random())
            mix = Encoder(lam * e1.matrix + (1 - lam) * e2.matrix)
            i_mix = mutual_information(mix, demo_joint.p_x)
            bound = lam * mutual_information(e1, demo_joint.p_x) + (
                1 - lam
            ) * mutual_information(e2, demo_joint.p_x)
            assert i_mix <= bound + 1e-10
            i_mix_y = mutual_information(markov_compose(mix, pxcy), demo_joint.p_y)
            bound_y = lam * mutual_information(markov_compose(e1, pxcy), demo_joint.p_y) + (
                1 - lam
            ) * mutual_information(markov_compose(e2, pxcy), demo_joint.p_y)
            assert i_mix_y <= bound_y + 1e-10

    def test_data_processing(self, demo_joint):
        rng = np.random.default_rng(22)
        pxcy = bayes_invert(demo_joint)
        i_xy = mutual_information(demo_joint.y_given_x, demo_joint.p_x)
        for _ in range(500):
            nz = int(rng.integers(1, 6))
            enc = random_encoder(rng, nz, 3)
            i_zx = mutual_information(enc, demo_joint.p_x)
            i_zy = mutual_information(markov_compose(enc, pxcy), demo_joint.p_y)
            assert i_zy <= i_zx + 1e-10
            assert i_zy <= i_xy + 1e-10


class TestJson:
    def test_round_trip(self, demo_joint):
        payload = {"p_x": demo_joint.p_x.probs.tolist(), "p_y_given_x": demo_joint.y_given_x.matrix.tolist()}
        again = joint_from_dict(json.loads(json.dumps(payload)))
        assert np.allclose(again.y_given_x.matrix, demo_joint.y_given_x.matrix, atol=1e-15)
        assert np.allclose(again.p_x.probs, demo_joint.p_x.probs, atol=1e-15)

    def test_load_file(self, demo_dist_file):
        j = load_joint(demo_dist_file)
        assert j.n_x == 3 and j.n_y == 3

    def test_load_file_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(InvalidDistributionError, match="UTF-8"):
            load_joint(path)

    def test_missing_field(self):
        with pytest.raises(InvalidDistributionError):
            joint_from_dict({"p_x": [0.5, 0.5]})

    def test_ragged_rows(self):
        with pytest.raises(InvalidDistributionError):
            joint_from_dict({"p_x": [0.5, 0.5], "p_y_given_x": [[0.5, 0.5], [0.5]]})

    # Text and booleans are refused, not parsed as numbers.
    @pytest.mark.parametrize(
        "p_x", [5, ["a", "b"], {"a": 0.5, "b": 0.5}, None, ["0.5", "0.5"], [True, False], [1, False], [0.0, True]]
    )
    def test_p_x_not_a_list_of_numbers(self, p_x):
        with pytest.raises(InvalidDistributionError, match="p_x"):
            joint_from_dict({"p_x": p_x, "p_y_given_x": [[0.5, 0.5], [0.5, 0.5]]})

    def test_entry_not_a_number(self):
        # A boolean among numbers is refused too, though NumPy would read it as 0 or 1.
        for rows in (
            [[0.5, "a"], [0.5, 0.5]],
            [[0.5, "1"], [0.5, 0.5]],
            [[1, 0], [0, True]],
            [[1.0, 0.0], [False, 1.0]],
            [np.array([1, 0]), [0, np.True_]],
        ):
            with pytest.raises(InvalidDistributionError, match="p_y_given_x has an entry that is not a number"):
                joint_from_dict({"p_x": [0.5, 0.5], "p_y_given_x": rows})

    def test_bad_normalization(self):
        with pytest.raises(InvalidDistributionError):
            joint_from_dict({"p_x": [0.5, 0.5], "p_y_given_x": [[0.5, 0.4], [0.4, 0.5]]})

    def test_from_joint_matrix_round_trip(self, demo_joint):
        again = JointXY.from_joint_matrix(demo_joint.joint_matrix())
        assert np.allclose(again.y_given_x.matrix, demo_joint.y_given_x.matrix, atol=1e-12)
