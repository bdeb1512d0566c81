"""Executable numerical certificates for the solver's calculus.

Each check draws deterministic random instances, measures the worst
violation of a claimed identity or inequality, and reports it against
a tolerance:

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
GRAD_TOL = 1e-6
IDENTITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
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


def _fd_gradient(value, matrix, step):
    fd = np.zeros_like(matrix)
    for z in range(matrix.shape[0]):
        for x in range(matrix.shape[1]):
            up = matrix.copy()
            up[z, x] += step
            down = matrix.copy()
            down[z, x] -= step
            fd[z, x] = (value(up) - value(down)) / (2.0 * step)
    return fd


def check_grad_g_fd(
    j: JointXY,
    beta: float,
    n: int = 100,
    seed: int = 0,
    step: float = FD_STEP,
    tolerance: float = GRAD_TOL,
) -> CheckReport:
    """Analytic gradient of the linearized term vs central differences.

    Violations are relative to the largest gradient entry per encoder.
    """
    rng = np.random.default_rng(seed)
    prob = dca._Problem.build(j)
    worst = 0.0
    for _ in range(n):
        card_z = int(rng.integers(2, j.n_x + 2))
        enc = random_interior_encoder(rng, card_z, j.n_x)
        analytic = dca._grad_g_arr(enc.matrix, prob, beta)
        fd = _fd_gradient(lambda m: dca._g_value_arr(m, prob, beta), enc.matrix, step)
        worst = max(worst, float(np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic))))
    return CheckReport("grad_g_vs_fd", n, worst, tolerance)


def check_grad_f_fd(
    j: JointXY,
    n: int = 100,
    seed: int = 0,
    step: float = FD_STEP,
    tolerance: float = GRAD_TOL,
) -> CheckReport:
    """Analytic gradient of the convex term vs central differences."""
    rng = np.random.default_rng(seed)
    prob = dca._Problem.build(j)
    worst = 0.0
    for _ in range(n):
        card_z = int(rng.integers(2, j.n_x + 2))
        enc = random_interior_encoder(rng, card_z, j.n_x)
        analytic = dca._grad_f_arr(enc.matrix, prob)
        fd = _fd_gradient(lambda m: dca._f_value_arr(m, prob), enc.matrix, step)
        worst = max(worst, float(np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic))))
    return CheckReport("grad_f_vs_fd", n, worst, tolerance)


def check_expectation_identities(
    j: JointXY,
    n: int = 200,
    seed: int = 0,
    tolerance: float = IDENTITY_TOL,
) -> CheckReport:
    """Averaged update-equation identities on random encoder pairs.

    First: the code-and-source average of ``sum_y P(y|x) log P(z|y)``
    equals ``-H(Z|Y)``. Second: the code-marginal average of the
    previous iterate's log marginal equals
    ``-H(Z) - KL(p_z || p_z_prev)``.
    """
    rng = np.random.default_rng(seed)
    prob = dca._Problem.build(j)
    px, py = prob.px, prob.py
    worst = 0.0
    for _ in range(n):
        card_z = int(rng.integers(2, j.n_x + 2))
        enc = random_interior_encoder(rng, card_z, j.n_x).matrix
        enc_prev = random_interior_encoder(rng, card_z, j.n_x).matrix
        pzy = enc @ prob.pxcy
        # identity 1: E_{z,x}[sum_y P(y|x) log P(z|y)] = -H(Z|Y)
        lhs1 = float(np.sum((enc * px[None, :]) * (np.log(pzy) @ prob.pycx)))
        rhs1 = -float(np.sum(py * _col_entropies(pzy)))
        worst = max(worst, abs(lhs1 - rhs1))
        # identity 2: E_z[log p_z_prev(Z)] = -H(Z) - KL(p_z || p_z_prev)
        pz = enc @ px
        pz_prev = enc_prev @ px
        lhs2 = float(pz @ np.log(pz_prev))
        hz = _neg_plogp_sum(pz)
        kl = float(np.sum(pz * (np.log(pz) - np.log(pz_prev))))
        worst = max(worst, abs(lhs2 - (-hz - kl)))
    return CheckReport("expectation_identities", n, worst, tolerance)


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


def check_update_residual(
    n: int = 20,
    seed: int = 0,
    tolerance: float = RESIDUAL_TOL,
) -> CheckReport:
    """Zero residual of the averaged update equation at the solver's
    closed-form update, on random invertible two-symbol sources with beta
    log-uniform on [0.1, 10]; draws whose update leaves the simplex are
    skipped.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    while checked < n:
        j = _random_invertible_pair(rng)
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        u = rng.uniform(0.2, 0.8, size=2)
        res = _exact_update_residual(j, np.array([u, 1.0 - u]), beta)
        if res is None:
            continue
        worst = max(worst, res)
        checked += 1
    return CheckReport("update_residual_at_exact_solutions", n, worst, tolerance)


def check_restricted_convexity(
    j: JointXY,
    n_pairs: int = 1000,
    seed: int = 0,
    beta: float = 1.0,
    tolerance: float = CONVEXITY_TOL,
) -> CheckReport:
    """Strong-convexity lower bound of the linearized term through the
    code-marginal operator, on random encoder pairs.

    Reports the negated minimum slack of
    ``g(p) - g(q) - <grad g(q), p - q> - 0.5 * ||marginal(p - q)||^2``.
    """
    rng = np.random.default_rng(seed)
    prob = dca._Problem.build(j)
    px = prob.px
    min_slack = np.inf
    for _ in range(n_pairs):
        card_z = int(rng.integers(2, j.n_x + 2))
        p = random_interior_encoder(rng, card_z, j.n_x).matrix
        q = random_interior_encoder(rng, card_z, j.n_x).matrix
        gp = dca._g_value_arr(p, prob, beta)
        gq = dca._g_value_arr(q, prob, beta)
        grad_q = dca._grad_g_arr(q, prob, beta)
        marginal_gap = (p - q) @ px
        slack = gp - gq - float(np.sum(grad_q * (p - q))) - 0.5 * float(marginal_gap @ marginal_gap)
        min_slack = min(min_slack, slack)
    return CheckReport(f"restricted_convexity_beta_{beta:g}", n_pairs, -min_slack, tolerance)


def audit_descent(result: DcaResult, tolerance: float = DESCENT_SLACK) -> CheckReport:
    """Largest per-step loss increase along a run's accepted trace."""
    trace = np.asarray(result.loss_trace, dtype=float)
    if trace.size == 0:
        raise ValueError("empty loss trace")
    violation = float(np.max(np.diff(trace))) if trace.size > 1 else 0.0
    return CheckReport("descent_audit", int(trace.size), violation, tolerance)


def run_verification(j: JointXY, seed: int = 0) -> list:
    """The certificate suite of the command-line ``verify``, each check at its default tolerance."""
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
