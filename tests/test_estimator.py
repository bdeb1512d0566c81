import gc
import sys
import threading
import warnings
import weakref
from dataclasses import MISSING, fields, is_dataclass

import numpy as np
import pytest

from pfdca import DcaConfig, DcaPrivacyFunnel, InvalidDistributionError, JointXY, dca_run
from pfdca.estimator import NotFittedError, check_joint_matrix, check_symbols

from conftest import DEMO_CHANNEL, DEMO_PX


class TestEstimatorProtocol:
    def test_get_params_round_trip(self):
        est = DcaPrivacyFunnel(card_z=4, beta=2.0, alpha=0.5, seed=3)
        params = est.get_params()
        clone = DcaPrivacyFunnel(**params)
        assert clone.get_params() == params

    def test_set_params_chained(self):
        est = DcaPrivacyFunnel().set_params(beta=3.0, card_z=2)
        assert est.beta == 3.0 and est.card_z == 2

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            DcaPrivacyFunnel().set_params(gamma=1.0)

    def test_parameters_are_card_z_and_the_solver_config(self):
        assert is_dataclass(DcaPrivacyFunnel)
        assert [f.name for f in fields(DcaPrivacyFunnel)] == ["card_z"] + [f.name for f in fields(DcaConfig)]
        est_defaults = {f.name: f.default for f in fields(DcaPrivacyFunnel)}
        for f in fields(DcaConfig):
            if f.default is not MISSING:
                assert est_defaults[f.name] == f.default, f.name
        assert list(DcaPrivacyFunnel().get_params()) == [f.name for f in fields(DcaPrivacyFunnel)]

    def test_default_params_are_pinned(self):
        assert DcaPrivacyFunnel().get_params() == {
            "card_z": 2, "beta": 1.0, "alpha": 1.0, "inner_kind": "ridge", "seed": 0,
        }

    def test_equality_is_identity(self):
        est = DcaPrivacyFunnel()
        assert est != DcaPrivacyFunnel() and est == est
        assert len({est, DcaPrivacyFunnel()}) == 2

    @pytest.mark.parametrize("inner_kind", ["ridge", "sparse_log"])
    def test_fit_is_dca_run_on_the_params(self, demo_joint, inner_kind):
        params = dict(card_z=3, beta=2.5, alpha=0.3, inner_kind=inner_kind, seed=4)
        got = DcaPrivacyFunnel(**params).fit(demo_joint).result_
        card_z = params.pop("card_z")
        want = dca_run(demo_joint, card_z, DcaConfig(**params))
        assert np.array_equal(got.encoder.matrix, want.encoder.matrix)
        assert np.array_equal(got.loss_trace, want.loss_trace)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)

    def test_sklearn_clone_compatible(self):
        # sklearn.clone only needs get_params/set_params duck typing.
        sklearn = pytest.importorskip("sklearn.base")
        est = DcaPrivacyFunnel(card_z=3, beta=2.5)
        cloned = sklearn.clone(est)
        assert cloned.get_params() == est.get_params()


class TestFit:
    def test_fit_sets_attributes(self, demo_joint):
        est = DcaPrivacyFunnel(card_z=3, beta=1.0, alpha=1.0, seed=0)
        est.fit(demo_joint.joint_matrix())
        assert est.converged_
        assert est.encoder_.matrix.shape == (3, 3)
        assert np.allclose(est.encoder_.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert est.i_zy_bits_ <= est.i_zx_bits_ + 1e-9
        assert est.n_iter_ >= 1

    def test_fit_accepts_joint_object(self, demo_joint):
        est = DcaPrivacyFunnel(card_z=2, seed=1).fit(demo_joint)
        assert isinstance(est.joint_, JointXY)

    def test_fit_deterministic(self, demo_joint):
        a = DcaPrivacyFunnel(card_z=3, seed=5).fit(demo_joint).encoder_.matrix
        b = DcaPrivacyFunnel(card_z=3, seed=5).fit(demo_joint).encoder_.matrix
        assert np.array_equal(a, b)

    def test_fits_fewer_outputs_than_inputs(self):
        # |Y| = 2 < |X| = 3: a joint pmf of shape (|X|, |Y|) = (3, 2).
        joint = np.array([[0.6, 0.4], [0.5, 0.5], [0.4, 0.6]]) / 3.0
        est = DcaPrivacyFunnel(card_z=2, seed=0).fit(joint)
        assert est.converged_
        assert np.allclose(est.encoder_.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert -1e-12 <= est.i_zy_bits_ <= est.i_zx_bits_ + 1e-12

    # Numeric text and booleans are refused too, not parsed as numbers.
    @pytest.mark.parametrize(
        "X",
        [
            [[0.5, 0.5], [0.1]],
            "abc",
            {"a": 1},
            [["0.25", "0.25"], ["0.25", "0.25"]],
            [[True, False], [False, False]],
            [[1, 0], [0, False]],
            [[0.5, 0.5], [0.0, False]],
        ],
    )
    def test_non_numeric_joint_matrix_is_invalid(self, X):
        with pytest.raises(InvalidDistributionError, match="joint matrix has an entry that is not a number"):
            DcaPrivacyFunnel(card_z=2).fit(X)

    def test_fits_joint_matrix_with_zero_row(self):
        # x = 2 has P(x) = 0, as in a source file with p_x = [0.5, 0.5, 0].
        est = DcaPrivacyFunnel(card_z=2).fit([[0.45, 0.05], [0.1, 0.4], [0, 0]])
        assert est.converged_
        enc = est.encoder_.matrix
        assert enc.shape == (2, 3)
        assert np.all(enc >= 0.0)
        assert np.allclose(enc.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            DcaPrivacyFunnel().fit(np.array([[0.5, 0.4], [0.4, 0.5]]))

    def test_non_integer_card_z_refused(self, demo_joint):
        with pytest.raises(ValueError, match="card_z must be an integer"):
            DcaPrivacyFunnel(card_z=2.5).fit(demo_joint)

    def test_boolean_card_z_refused(self, demo_joint):
        # bool is Integral, but True is not a code size.
        with pytest.raises(ValueError, match="card_z must be an integer"):
            DcaPrivacyFunnel(card_z=True).fit(demo_joint)

    @pytest.mark.parametrize("params", [dict(beta=True), dict(alpha="0.5")])
    def test_boolean_or_text_parameter_refused(self, demo_joint, params):
        # Numeric text and booleans are not numbers, as in distribution files.
        with pytest.raises(ValueError, match="beta and alpha must be finite and positive"):
            DcaPrivacyFunnel(**params).fit(demo_joint)

    def test_negative_seed_refused_before_the_run(self, demo_joint):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            DcaPrivacyFunnel(seed=-3).fit(demo_joint)

    def test_score_is_negated_loss(self, demo_joint):
        est = DcaPrivacyFunnel(card_z=3, beta=2.0, seed=2).fit(demo_joint)
        assert est.score() == pytest.approx(-est.result_.loss_nats)


# The demo joint pmf as the benchmark passes it (a transpose, so F-ordered),
# and a seeded 5x6 source whose C- and F-ordered arrays build sources that
# differ in the last bits.
DEMO_PXY = (DEMO_CHANNEL * DEMO_PX).T
SEEDED_PXY = np.random.default_rng(2).dirichlet(np.ones(30)).reshape(5, 6)


def _fit_bytes(est):
    """The bytes of a fit's source, encoder, loss trace and stationarity gap."""
    j = est.joint_
    return (
        j.p_x.probs.tobytes(), j.y_given_x.matrix.tobytes(), est.encoder_.matrix.tobytes(),
        est.loss_trace_.tobytes(), np.float64(est.stationarity_gap_).tobytes(),
    )


class TestSourceReuse:
    """A fit on a joint with the values of the last one that validated,
    in any layout, dtype or form, reuses its source; any other input is
    validated as if it were the first."""

    def test_equal_array_gets_the_same_source(self):
        arr = DEMO_PXY.copy(order="K")
        first = DcaPrivacyFunnel(card_z=2).fit(arr).joint_
        for same in (arr, arr.copy(order="K"), np.asfortranarray(DEMO_PXY)):
            assert DcaPrivacyFunnel(card_z=3, seed=1).fit(same).joint_ is first
        # Both layouts share one source.
        assert DcaPrivacyFunnel(card_z=2).fit(np.ascontiguousarray(arr)).joint_ is first

    def test_array_changed_in_place_gets_a_new_source(self):
        arr = DEMO_PXY.copy(order="K")
        first = DcaPrivacyFunnel(card_z=3, beta=0.5).fit(arr)
        arr[:] = arr[[1, 2, 0]]
        second = DcaPrivacyFunnel(card_z=3, beta=0.5).fit(arr)
        assert second.joint_ is not first.joint_
        assert np.allclose(second.joint_.joint_matrix(), arr, rtol=0.0, atol=1e-15)
        fresh = DcaPrivacyFunnel(card_z=3, beta=0.5).fit(JointXY.from_joint_matrix(arr.copy(order="K")))
        assert _fit_bytes(second) == _fit_bytes(fresh)
        assert second.encoder_.matrix.tobytes() != first.encoder_.matrix.tobytes()

    @pytest.mark.parametrize("inner_kind", ["ridge", "sparse_log"])
    @pytest.mark.parametrize("pxy", [DEMO_PXY, SEEDED_PXY], ids=["demo", "seeded5x6"])
    def test_reused_source_fits_as_a_fresh_one(self, pxy, inner_kind):
        # One layout after the other: the F-ordered array gets the C-ordered
        # array's source, which must fit as a fresh source of either.
        params = dict(card_z=3, beta=2.0, alpha=0.5, inner_kind=inner_kind, seed=1)
        for arr in (np.ascontiguousarray(pxy), np.asfortranarray(pxy), np.ascontiguousarray(pxy)):
            fresh = DcaPrivacyFunnel(**params).fit(JointXY.from_joint_matrix(arr.copy(order="K")))
            for _ in range(2):   # a miss, then a hit
                assert _fit_bytes(DcaPrivacyFunnel(**params).fit(arr)) == _fit_bytes(fresh)

    @pytest.mark.parametrize("inner_kind", ["ridge", "sparse_log"])
    def test_integer_arrays_fit_as_a_fresh_source(self, inner_kind):
        # A point mass is the one joint pmf with integer cells.
        point = np.array([[0, 0, 0], [0, 1, 0]])
        for arr in (point, np.asfortranarray(point), point.astype(np.int32), point.astype(float)):
            fresh = DcaPrivacyFunnel(card_z=2, inner_kind=inner_kind).fit(JointXY.from_joint_matrix(arr.copy(order="K")))
            for _ in range(2):
                assert _fit_bytes(DcaPrivacyFunnel(card_z=2, inner_kind=inner_kind).fit(arr)) == _fit_bytes(fresh)

    @pytest.mark.parametrize("inner_kind", ["ridge", "sparse_log"])
    def test_every_form_of_a_joint_shares_one_source(self, inner_kind):
        # The permuted demo joint, whose two layouts once fitted 2.8e-16
        # apart, and a point mass, the one joint pmf with integer cells.
        pxy, point = DEMO_PXY[[1, 2, 0]], np.array([[0, 0, 0], [0, 1, 0]])
        params = dict(card_z=3, beta=0.5, inner_kind=inner_kind)
        for forms in (
            [np.ascontiguousarray(pxy), np.asfortranarray(pxy), pxy.tolist()],
            [point, np.asfortranarray(point), point.astype(np.int32), point.astype(float), point.tolist()],
        ):
            want = _fit_bytes(DcaPrivacyFunnel(**params).fit(JointXY.from_joint_matrix(forms[0])))
            first = check_joint_matrix(forms[0])
            for arr in forms:
                assert check_joint_matrix(arr) is first
                assert _fit_bytes(DcaPrivacyFunnel(**params).fit(arr)) == want
                assert _fit_bytes(DcaPrivacyFunnel(**params).fit(JointXY.from_joint_matrix(arr))) == want

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, np.nan], [0.25, 0.25]]),
            np.array([[0.75, -0.25], [0.25, 0.25]]),
            np.array([[0.5, 0.4], [0.4, 0.5]]),
        ],
        ids=["nan", "negative", "sum"],
    )
    def test_invalid_array_raises_on_every_call(self, bad):
        for _ in range(3):
            with pytest.raises(InvalidDistributionError):
                DcaPrivacyFunnel().fit(bad)
        valid = np.array([[0.5, 0.0], [0.25, 0.25]])
        DcaPrivacyFunnel().fit(valid)
        for _ in range(2):
            with pytest.raises(InvalidDistributionError):
                DcaPrivacyFunnel().fit(bad)

    def test_boolean_array_refused_after_a_valid_fit(self):
        DcaPrivacyFunnel().fit(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(InvalidDistributionError, match="not a number"):
            DcaPrivacyFunnel().fit(np.array([[True, False], [False, False]]))

    def test_concurrent_checks_get_their_own_source(self):
        def source(j):
            return j.p_x.probs.tobytes(), j.y_given_x.matrix.tobytes(), j.y_given_x.matrix.strides

        arrays = [SEEDED_PXY + 0.0, SEEDED_PXY[::-1] + 0.0, np.asfortranarray(SEEDED_PXY), DEMO_PXY + 0.0]
        want = [source(JointXY.from_joint_matrix(arr.copy(order="K"))) for arr in arrays]
        wrong = []

        def check_many(i):
            for _ in range(500):
                if source(check_joint_matrix(arrays[i])) != want[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=check_many, args=(i % len(arrays),)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_memo_holds_one_source(self):
        arrays = [SEEDED_PXY + 0.0, SEEDED_PXY[::-1] + 0.0, SEEDED_PXY[:, ::-1] + 0.0]
        refs = [weakref.ref(DcaPrivacyFunnel().fit(arr).joint_) for arr in arrays]
        gc.collect()
        assert [r() is None for r in refs] == [True, True, False]
        # A list of equal values hits, and a JointXY is not stored: the last
        # array still hits.
        assert DcaPrivacyFunnel().fit(arrays[2].tolist()).joint_ is refs[2]()
        DcaPrivacyFunnel().fit(JointXY.from_joint_matrix(arrays[1]))
        assert DcaPrivacyFunnel().fit(arrays[2]).joint_ is refs[2]()


class TestTransform:
    def test_transform_indices(self, demo_joint):
        est = DcaPrivacyFunnel(card_z=3, seed=0).fit(demo_joint)
        codes = est.transform(np.array([0, 1, 2, 0]))
        assert codes.shape == (4, 3)
        assert np.allclose(codes.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(codes[0], codes[3])

    def test_transform_one_hot_matches_indices(self, demo_joint):
        est = DcaPrivacyFunnel(card_z=3, seed=0).fit(demo_joint)
        idx = est.transform(np.array([1]))
        hot = est.transform(np.array([[0.0, 1.0, 0.0]]))
        assert np.allclose(idx, hot, atol=1e-15)

    def test_predict_shape(self, demo_joint):
        est = DcaPrivacyFunnel(card_z=3, beta=10.0, alpha=0.1, seed=0).fit(demo_joint)
        labels = est.predict(np.arange(3))
        assert labels.shape == (3,)
        assert set(labels) <= {0, 1, 2}

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, demo_joint, weight):
        est = DcaPrivacyFunnel(card_z=3, seed=0).fit(demo_joint)
        rows = np.array([[weight, 1.0, 0.0]])
        with pytest.raises(ValueError):
            est.transform(rows)
        with pytest.raises(ValueError):
            est.predict(rows)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DcaPrivacyFunnel().transform(np.array([0]))

    def test_fit_transform_defaults_to_alphabet(self, demo_joint):
        codes = DcaPrivacyFunnel(card_z=2, seed=0).fit_transform(demo_joint)
        assert codes.shape == (3, 2)


class TestValidationHelpers:
    def test_check_joint_matrix_shapes(self):
        with pytest.raises(ValueError):
            check_joint_matrix(np.ones(3) / 3)

    def test_check_symbols_bad_index(self):
        with pytest.raises(ValueError):
            check_symbols(np.array([3]), 3)

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 1e300, 2.0**63, -1e30, np.uint64(2**63), np.uint64(2**64 - 1)]
    )
    def test_check_symbols_non_finite_index(self, value):
        # The check runs before the cast to int, which would only warn: on a
        # value that is not finite, or finite but beyond any int. A uint64
        # index of 2**63 or more becomes such a float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                check_symbols(np.array([0, value], dtype=np.asarray(value).dtype), 3)

    def test_check_symbols_boolean_indices(self):
        # Booleans are not symbol indices, and not row weights either.
        with pytest.raises(ValueError, match="not a number"):
            check_symbols(np.array([True, False]), 3)
        with pytest.raises(ValueError, match="not a number"):
            check_symbols(np.array([[False, True, False]]), 3)

    @pytest.mark.parametrize("X", [[["0.5", "0.5", "0"]], ["0", "1"], [[0.5, True, 0.0]], [0, True]])
    def test_check_symbols_refuses_text_and_booleans_among_numbers(self, X):
        # Numeric text and booleans are not numbers in either shape, as in
        # distribution files, though NumPy would parse the text and read a
        # boolean among numbers as 1.
        with pytest.raises(ValueError, match="not a number"):
            check_symbols(X, 3)

    def test_check_symbols_takes_integer_rows(self):
        assert np.array_equal(check_symbols([[0, 2, 2]], 3), [[0.0, 0.5, 0.5]])

    def test_check_symbols_negative_weight(self):
        with pytest.raises(ValueError):
            check_symbols(np.array([[0.5, -0.1, 0.6]]), 3)

    def test_check_symbols_normalizes_rows(self):
        rows = check_symbols(np.array([[2.0, 2.0, 0.0]]), 3)
        assert np.allclose(rows, [[0.5, 0.5, 0.0]])
