import inspect

import numpy as np
import pytest

import pfdca.dca
import pfdca.diagnostics
from pfdca import CondDist, DcaConfig, DiscreteDist, Encoder, JointXY, dca_run
from pfdca.diagnostics import (
    CheckReport,
    _exact_update_residual,
    _random_invertible_pair,
    audit_descent,
    check_expectation_identities,
    check_grad_f_fd,
    check_grad_g_fd,
    check_restricted_convexity,
    check_update_residual,
    run_verification,
)
from pfdca.probability import random_interior_encoder


class TestReports:
    def test_passed_reflects_tolerance(self):
        assert CheckReport("x", 1, 1e-9, 1e-6).passed
        assert not CheckReport("x", 1, 1e-3, 1e-6).passed

    def test_record_shape(self):
        rec = CheckReport("x", 5, 0.0, 1e-6).to_record()
        assert set(rec) == {"name", "samples", "max_violation", "tolerance", "passed"}


class TestGradientChecks:
    def test_grad_g_passes(self, demo_joint):
        report = check_grad_g_fd(demo_joint, beta=1.0, seed=0)
        assert report.passed, report

    def test_grad_g_beta_zero_subcase(self, demo_joint):
        assert check_grad_g_fd(demo_joint, beta=0.0, seed=1).passed

    def test_grad_f_passes(self, demo_joint):
        assert check_grad_f_fd(demo_joint, seed=0).passed

    def test_deterministic_given_seed(self, demo_joint):
        a = check_grad_g_fd(demo_joint, beta=1.0, seed=42)
        b = check_grad_g_fd(demo_joint, beta=1.0, seed=42)
        assert a.max_violation == b.max_violation


class TestExpectationIdentities:
    def test_passes_on_demo(self, demo_joint):
        report = check_expectation_identities(demo_joint, seed=0)
        assert report.passed
        assert report.max_violation <= 1e-10

    def test_same_encoder_reduces_to_entropy(self, demo_joint):
        # With identical current and previous encoders the divergence term
        # vanishes and the averaged log marginal is exactly -H(Z).
        rng = np.random.default_rng(3)
        enc = random_interior_encoder(rng, 3, 3).matrix
        pz = enc @ demo_joint.p_x.probs
        lhs = float(pz @ np.log(pz))
        hz = -float(np.sum(pz * np.log(pz)))
        assert lhs == pytest.approx(-hz, abs=1e-14)


class TestUpdateResidual:
    def test_identity_channel_residual_tiny(self):
        # At beta = 1 the update on an identity channel is the encoder
        # itself, and every log-partition is zero.
        j = JointXY(DiscreteDist(np.array([0.3, 0.7])), CondDist(np.eye(2)))
        enc_k = np.array([[0.6, 0.25], [0.4, 0.75]])
        res = _exact_update_residual(j, enc_k, beta=1.0)
        assert res is not None and res <= 1e-10

    def test_update_outside_simplex_is_skipped(self):
        # At large beta the update's P(Z|Y) needs an encoder with a
        # negative entry, so there is no residual to measure.
        rng = np.random.default_rng(0)
        j = _random_invertible_pair(rng)
        u = rng.uniform(0.2, 0.8, size=2)
        assert _exact_update_residual(j, np.array([u, 1.0 - u]), beta=10.0) is None

    def test_checks_the_solver_update(self, monkeypatch):
        # A wrong beta inside the solver's update coefficients breaks the
        # identity, so the check must fail.
        compute_c = pfdca.dca._compute_c_arr
        monkeypatch.setattr(
            pfdca.dca, "_compute_c_arr", lambda V, prob, beta: compute_c(V, prob, beta * 1.001)
        )
        assert not check_update_residual(seed=3).passed

    def test_constructed_instances_pass(self):
        report = check_update_residual(seed=0)
        assert report.passed
        assert report.max_violation <= 1e-8


class TestRestrictedConvexity:
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_passes(self, demo_joint, beta):
        report = check_restricted_convexity(demo_joint, seed=0, beta=beta)
        assert report.passed

    def test_equal_pair_slack_zero(self, demo_joint):
        # p == q collapses every term of the inequality.
        rng = np.random.default_rng(5)
        from pfdca.dca import _g_value_arr, _grad_g_arr, _Problem

        p = random_interior_encoder(rng, 3, 3)
        slack = (
            _g_value_arr(p.matrix, _Problem.build(demo_joint), 1.0)
            - _g_value_arr(p.matrix, _Problem.build(demo_joint), 1.0)
            - float(np.sum(_grad_g_arr(p.matrix, _Problem.build(demo_joint), 1.0) * 0.0))
        )
        assert slack == 0.0


class TestDescentAudit:
    def test_single_entry_trace(self, demo_joint):
        res = dca_run(demo_joint, 1, DcaConfig(beta=1.0, alpha=1.0))
        short = audit_descent(res)
        assert short.passed

    def test_converged_run_passes(self, demo_joint):
        res = dca_run(demo_joint, 3, DcaConfig(beta=1.0, alpha=1.0, seed=7))
        assert audit_descent(res).passed

    def test_increasing_trace_fails(self, demo_joint):
        res = dca_run(demo_joint, 2, DcaConfig(beta=1.0, alpha=1.0, seed=8))
        doctored = type(res)(
            encoder=res.encoder,
            loss_trace=np.array([0.0, 0.5, 0.2]),
            converged=res.converged,
            iterations=res.iterations,
            stationarity_gap=res.stationarity_gap,
            i_zx_bits=res.i_zx_bits,
            i_zy_bits=res.i_zy_bits,
            loss_nats=res.loss_nats,
        )
        assert not audit_descent(doctored).passed


class TestRunVerification:
    def test_all_pass_on_demo(self, demo_joint):
        reports = run_verification(demo_joint, seed=0)
        assert len(reports) == 9
        assert all(r.passed for r in reports)

    def test_tolerance_override_fails_checks(self, monkeypatch):
        monkeypatch.setattr(pfdca.diagnostics, "RESIDUAL_TOL", 1e-30)
        report = check_update_residual(seed=3)
        assert report.tolerance == 1e-30 and not report.passed

    def test_rank_deficient_source_passes(self):
        # |Y| < |X|: the solver's descent audits run on it like any source.
        j = JointXY(DiscreteDist(np.full(3, 1.0 / 3)), CondDist(np.array([[0.6, 0.5, 0.4], [0.4, 0.5, 0.6]])))
        reports = run_verification(j, seed=0)
        assert len(reports) == 9
        assert all(r.passed for r in reports)

    def test_records_pin_the_constants(self, demo_joint):
        reports = run_verification(demo_joint, seed=0)
        assert [r.name for r in reports] == [
            "grad_g_vs_fd",
            "grad_f_vs_fd",
            "expectation_identities",
            "update_residual_at_exact_solutions",
            "restricted_convexity_beta_0.1",
            "restricted_convexity_beta_1",
            "restricted_convexity_beta_10",
            "descent_audit_ridge",
            "descent_audit_sparse_log",
        ]
        # The descent audits count the entries of their run's loss trace.
        traces = [
            dca_run(demo_joint, 3, DcaConfig(beta=1.0, alpha=1.0, inner_kind=kind, seed=0)).loss_trace.size
            for kind in ("ridge", "sparse_log")
        ]
        assert [r.samples for r in reports] == [100, 100, 200, 20, 1000, 1000, 1000, *traces]
        assert [r.tolerance for r in reports] == [1e-6, 1e-6, 1e-10, 1e-8, 1e-9, 1e-9, 1e-9, 1e-6, 1e-6]

    def test_checks_take_only_source_seed_and_beta(self):
        signatures = {
            check_grad_g_fd: ["j", "beta", "seed"],
            check_grad_f_fd: ["j", "seed"],
            check_expectation_identities: ["j", "seed"],
            check_update_residual: ["seed"],
            check_restricted_convexity: ["j", "seed", "beta"],
            audit_descent: ["result"],
        }
        for check, params in signatures.items():
            assert list(inspect.signature(check).parameters) == params, check.__name__
