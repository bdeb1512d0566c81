"""Executable numerical certificates for the solver's calculus.

Each check draws deterministic random instances from one seeded
generator, measures the worst violation of a claimed identity or
inequality, and reports it against a fixed tolerance. A draw whose
violation is undefined is not counted; only the update residual has
such draws, those whose update leaves the simplex. The checks:

* analytic gradients of both split terms against central finite
  differences;
* the two expectation identities behind the update equation
  (conditional-entropy form of the averaged update, and the
  entropy-plus-divergence form of the averaged log marginal);
* the zero residual of the expectation-form update equation at the
  solver's own closed-form update, log-partition term included, on
  random invertible two-symbol sources;
* restricted convexity of the linearized term (strong convexity
  measured through the code-marginal operator);
* monotone descent of a solver run's loss trace.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import dca
from .dca import DESCENT_SLACK, DcaConfig, DcaResult, InnerKind, dca_run
from .probability import CondDist, DiscreteDist, JointXY, _col_entropies, _neg_plogp_sum, random_interior_encoder

FD_STEP = 1e-6
GRAD_SAMPLES = 100
GRAD_TOL = 1e-6
IDENTITY_SAMPLES = 200
IDENTITY_TOL = 1e-10
RESIDUAL_SAMPLES = 20
RESIDUAL_TOL = 1e-8
CONVEXITY_PAIRS = 1000
CONVEXITY_TOL = 1e-9


@dataclass(frozen=True)
class CheckReport:
    name: str
    samples: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_record(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _worst(name: str, samples: int, tolerance: float, seed: int, violation) -> CheckReport:
    """Largest ``violation(rng)`` over ``samples`` counted draws from one
    seeded generator; a draw that returns None does not count."""
    rng = np.random.default_rng(seed)
    worst, counted = -np.inf, 0
    while counted < samples:
        v = violation(rng)
        if v is not None:
            worst, counted = max(worst, v), counted + 1
    return CheckReport(name, samples, worst, tolerance)


def _encoders(rng, n_x: int, count: int) -> list:
    """``count`` interior encoder matrices of one code size, drawn after the size."""
    card_z = int(rng.integers(2, n_x + 2))
    return [random_interior_encoder(rng, card_z, n_x).matrix for _ in range(count)]


def _fd_gradient(value, matrix):
    fd = np.zeros_like(matrix)
    for idx in np.ndindex(matrix.shape):
        up, down = matrix.copy(), matrix.copy()
        up[idx] += FD_STEP
        down[idx] -= FD_STEP
        fd[idx] = (value(up) - value(down)) / (2.0 * FD_STEP)
    return fd


def _check_grad_fd(name: str, j: JointXY, seed: int, value, grad, *args) -> CheckReport:
    """Analytic gradient vs central differences, relative to its largest entry."""
    prob = dca._Problem.build(j)

    def violation(rng):
        (enc,) = _encoders(rng, j.n_x, 1)
        analytic = grad(enc, prob, *args)
        fd = _fd_gradient(lambda m: value(m, prob, *args), enc)
        return float(np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic)))

    return _worst(name, GRAD_SAMPLES, GRAD_TOL, seed, violation)


def check_grad_g_fd(j: JointXY, beta: float, seed: int = 0) -> CheckReport:
    """Gradient of the linearized term vs central differences."""
    return _check_grad_fd("grad_g_vs_fd", j, seed, dca._g_value_arr, dca._grad_g_arr, beta)


def check_grad_f_fd(j: JointXY, seed: int = 0) -> CheckReport:
    """Gradient of the convex term vs central differences."""
    return _check_grad_fd("grad_f_vs_fd", j, seed, dca._f_value_arr, dca._grad_f_arr)


def check_expectation_identities(j: JointXY, seed: int = 0) -> CheckReport:
    """Averaged update-equation identities on random encoder pairs.

    First: the code-and-source average of ``sum_y P(y|x) log P(z|y)``
    equals ``-H(Z|Y)``. Second: the code-marginal average of the
    previous iterate's log marginal equals
    ``-H(Z) - KL(p_z || p_z_prev)``.
    """
    prob = dca._Problem.build(j)
    px, py = prob.px, prob.py

    def violation(rng):
        enc, enc_prev = _encoders(rng, j.n_x, 2)
        pzy = enc @ prob.pxcy
        # identity 1: E_{z,x}[sum_y P(y|x) log P(z|y)] = -H(Z|Y)
        lhs1 = float(np.sum((enc * px[None, :]) * (np.log(pzy) @ prob.pycx)))
        rhs1 = -float(np.sum(py * _col_entropies(pzy)))
        # identity 2: E_z[log p_z_prev(Z)] = -H(Z) - KL(p_z || p_z_prev)
        pz = enc @ px
        pz_prev = enc_prev @ px
        lhs2 = float(pz @ np.log(pz_prev))
        hz = _neg_plogp_sum(pz)
        kl = float(np.sum(pz * (np.log(pz) - np.log(pz_prev))))
        return max(abs(lhs1 - rhs1), abs(lhs2 - (-hz - kl)))

    return _worst("expectation_identities", IDENTITY_SAMPLES, IDENTITY_TOL, seed, violation)


def _random_invertible_pair(rng) -> JointXY:
    """Random well-conditioned 2x2 source, whose block the update inverts exactly."""
    while True:
        a, b = rng.uniform(0.15, 0.85, size=2)
        channel = np.array([[a, 1.0 - b], [1.0 - a, b]])
        if abs(np.linalg.det(channel)) < 0.2:
            continue
        w = rng.uniform(0.25, 0.75)
        return JointXY(DiscreteDist(np.array([w, 1.0 - w])), CondDist(channel))


def _exact_update_residual(j: JointXY, enc_k: np.ndarray, beta: float):
    """Residual of the averaged update equation at the solver's closed-form
    update, log-partition term included.

    The update is ``_relaxed_target``'s softmax of the logits
    ``l = c @ B^+``; on an invertible block ``l @ P(Y|X) = c`` exactly, so
    averaging ``log q`` under the encoder that yields ``q`` gives
    ``I(Z;Y) + KL(p_z || p_z_prev) - beta * E[log(P_prev(z|x) / p_prev(z))]
    = -sum_y p(y) log Z(y)``. Returns the absolute gap of that identity,
    or None when the encoder that yields ``q`` leaves the simplex.
    """
    prob = dca._Problem.build(j)
    px, py = prob.px, prob.py
    logits = dca._compute_c_arr(enc_k, prob, beta) @ prob.b_pinv_t
    m = dca._softmax_cols(logits)
    enc_new = np.linalg.solve(prob.pxcy.T, m.T).T
    if np.min(enc_new) < -1e-12:
        return None
    enc_new = np.clip(enc_new, 0.0, None)
    pz_new = enc_new @ px
    izy = _neg_plogp_sum(pz_new) - float(py @ _col_entropies(m))
    pz_k = enc_k @ px
    kl = float(np.sum(pz_new * (np.log(pz_new) - np.log(pz_k))))
    cross = float(np.sum((enc_new * px[None, :]) * (np.log(enc_k) - np.log(pz_k)[:, None])))
    log_partition = float(py @ np.logaddexp.reduce(logits, axis=0))
    return abs(izy + kl - beta * cross + log_partition)


def check_update_residual(seed: int = 0) -> CheckReport:
    """Zero residual of the averaged update equation at the solver's
    closed-form update, on random invertible two-symbol sources with beta
    log-uniform on [0.1, 10].
    """

    def violation(rng):
        j = _random_invertible_pair(rng)
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        u = rng.uniform(0.2, 0.8, size=2)
        return _exact_update_residual(j, np.array([u, 1.0 - u]), beta)

    return _worst("update_residual_at_exact_solutions", RESIDUAL_SAMPLES, RESIDUAL_TOL, seed, violation)


def check_restricted_convexity(j: JointXY, seed: int = 0, beta: float = 1.0) -> CheckReport:
    """Strong-convexity lower bound of the linearized term through the
    code-marginal operator, on random encoder pairs.

    Reports the negated minimum slack of
    ``g(p) - g(q) - <grad g(q), p - q> - 0.5 * ||marginal(p - q)||^2``.
    """
    prob = dca._Problem.build(j)

    def violation(rng):
        p, q = _encoders(rng, j.n_x, 2)
        gp = dca._g_value_arr(p, prob, beta)
        gq = dca._g_value_arr(q, prob, beta)
        grad_q = dca._grad_g_arr(q, prob, beta)
        marginal_gap = (p - q) @ prob.px
        return -(gp - gq - float(np.sum(grad_q * (p - q))) - 0.5 * float(marginal_gap @ marginal_gap))

    return _worst(f"restricted_convexity_beta_{beta:g}", CONVEXITY_PAIRS, CONVEXITY_TOL, seed, violation)


def audit_descent(result: DcaResult) -> CheckReport:
    """Largest per-step loss increase along a run's accepted trace."""
    trace = np.asarray(result.loss_trace, dtype=float)
    if trace.size == 0:
        raise ValueError("empty loss trace")
    violation = float(np.max(np.diff(trace))) if trace.size > 1 else 0.0
    return CheckReport("descent_audit", int(trace.size), violation, DESCENT_SLACK)


def run_verification(j: JointXY, seed: int = 0) -> list:
    """The certificate suite of the command-line ``verify``."""
    reports = [
        check_grad_g_fd(j, beta=1.0, seed=seed),
        check_grad_f_fd(j, seed=seed + 1),
        check_expectation_identities(j, seed=seed + 2),
        check_update_residual(seed=seed + 3),
        *(check_restricted_convexity(j, seed=seed + 4, beta=beta) for beta in (0.1, 1.0, 10.0)),
    ]
    for kind, label in ((InnerKind.RIDGE, "ridge"), (InnerKind.SPARSE_LOG, "sparse_log")):
        run = dca_run(j, min(3, j.n_x), DcaConfig(beta=1.0, alpha=1.0, inner_kind=kind, seed=seed))
        reports.append(replace(audit_descent(run), name=f"descent_audit_{label}"))
    return reports
