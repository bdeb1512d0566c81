"""Executable numerical certificates for the solver's calculus.

Each check draws deterministic random instances, measures the worst
violation of a claimed identity or inequality, and reports it against
a tolerance:

* analytic gradients of both split terms against central finite
  differences;
* the two expectation identities behind the update equation
  (conditional-entropy form of the averaged update, and the
  entropy-plus-divergence form of the averaged log marginal);
* the zero residual of the expectation-form update equation at exactly
  solved updates on invertible two-symbol instances;
* restricted convexity of the linearized term (strong convexity
  measured through the code-marginal operator);
* monotone descent of a solver run's loss trace.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import dca
from .dca import DESCENT_SLACK, DcaConfig, DcaResult, InnerKind, dca_run
from .probability import LOG_CLAMP, CondDist, DiscreteDist, JointXY, _plogp, random_interior_encoder

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
        analytic = dca._grad_g_arr(enc.matrix, prob, beta, LOG_CLAMP)
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
        analytic = dca._grad_f_arr(enc.matrix, prob, LOG_CLAMP)
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
        rhs1 = float(np.sum(py * _plogp(pzy).sum(axis=0)))
        worst = max(worst, abs(lhs1 - rhs1))
        # identity 2: E_z[log p_z_prev(Z)] = -H(Z) - KL(p_z || p_z_prev)
        pz = enc @ px
        pz_prev = enc_prev @ px
        lhs2 = float(pz @ np.log(pz_prev))
        hz = -float(np.sum(_plogp(pz)))
        kl = float(np.sum(pz * (np.log(pz) - np.log(pz_prev))))
        worst = max(worst, abs(lhs2 - (-hz - kl)))
    return CheckReport("expectation_identities", n, worst, tolerance)


def _random_invertible_pair(rng) -> JointXY:
    """Random well-conditioned 2x2 source for exact-update construction."""
    while True:
        a, b = rng.uniform(0.15, 0.85, size=2)
        channel = np.array([[a, 1.0 - b], [1.0 - a, b]])
        if abs(np.linalg.det(channel)) < 0.2:
            continue
        w = rng.uniform(0.25, 0.75)
        return JointXY(DiscreteDist(np.array([w, 1.0 - w])), CondDist(channel))


def _exact_update_residual(j: JointXY, enc_k: np.ndarray, beta: float):
    """Residual of the averaged update equation at the exactly solved step.

    Solves the linear update exactly (two-symbol blocks are invertible),
    requiring the exponentiated solution to be column-stochastic; returns
    None when the solved next encoder leaves the simplex. The residual is
    ``I(Z;Y) + KL(p_z || p_z_prev) - beta * E[log(P_prev(x|z) / p(x))]``
    evaluated under the new encoder.
    """
    prob = dca._Problem.build(j)
    px, py = prob.px, prob.py
    b_blk = prob.pycx.T
    c = (1.0 - beta) * np.log(enc_k @ px)[:, None] + beta * np.log(enc_k)
    logits = np.linalg.solve(b_blk, c.T).T  # (n_z, n_y): exact solve per code row
    m = np.exp(logits)
    col_err = np.abs(m.sum(axis=0) - 1.0)
    a_blk = prob.pxcy.T
    enc_new = np.linalg.solve(a_blk, m.T).T
    if np.min(enc_new) < -1e-12:
        return None, float(np.max(col_err))
    enc_new = np.clip(enc_new, 0.0, None)
    pz_new = enc_new @ px
    hz = -float(np.sum(_plogp(pz_new)))
    izy = hz + float(py @ _plogp(m).sum(axis=0))
    pz_k = enc_k @ px
    kl = float(np.sum(pz_new * (np.log(pz_new) - np.log(pz_k))))
    cross = float(np.sum((enc_new * px[None, :]) * (np.log(enc_k) - np.log(pz_k)[:, None])))
    return abs(izy + kl - beta * cross), float(np.max(col_err))


def _solve_exact_instance(j: JointXY, beta: float, u0: np.ndarray):
    """Newton-solve for an interior previous encoder whose exact linear
    update is already normalized (so the update equation holds with no
    per-column slack)."""

    def norm_gap(u):
        enc_k = np.array([u, 1.0 - u])
        prob = dca._Problem.build(j)
        c = (1.0 - beta) * np.log(enc_k @ prob.px)[:, None] + beta * np.log(enc_k)
        logits = np.linalg.solve(prob.pycx.T, c.T).T
        return np.exp(logits).sum(axis=0) - 1.0

    u = np.asarray(u0, dtype=float)
    for _ in range(80):
        f0 = norm_gap(u)
        if np.max(np.abs(f0)) < 1e-13:
            return u
        jac = np.empty((2, 2))
        h = 1e-7
        for k in range(2):
            up = u.copy()
            up[k] += h
            jac[:, k] = (norm_gap(up) - f0) / h
        try:
            step = np.linalg.solve(jac, -f0)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        while t > 1e-6:
            trial = u + t * step
            if np.all(trial > 1e-4) and np.all(trial < 1.0 - 1e-4):
                if np.max(np.abs(norm_gap(trial))) < np.max(np.abs(f0)):
                    u = trial
                    break
            t *= 0.5
        else:
            return None
    return None


def check_update_residual(
    n: int = 20,
    seed: int = 0,
    tolerance: float = RESIDUAL_TOL,
) -> CheckReport:
    """Zero residual of the averaged update equation at exact solutions.

    Half the instances use an identity channel, where any interior
    encoder solves the unit-multiplier update exactly; the rest are
    Newton-constructed on random invertible two-symbol sources.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    while checked < n // 2:
        w = rng.uniform(0.25, 0.75)
        j = JointXY(DiscreteDist(np.array([w, 1.0 - w])), CondDist(np.eye(2)))
        u = rng.uniform(0.2, 0.8, size=2)
        res, col_err = _exact_update_residual(j, np.array([u, 1.0 - u]), beta=1.0)
        if res is None or col_err > 1e-12:
            continue
        worst = max(worst, res)
        checked += 1
    while checked < n:
        j = _random_invertible_pair(rng)
        beta = float(rng.uniform(0.7, 1.3))
        u = _solve_exact_instance(j, beta, np.array([0.55, 0.45]))
        if u is None:
            continue
        res, col_err = _exact_update_residual(j, np.array([u, 1.0 - u]), beta)
        if res is None or col_err > 1e-12:
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
        grad_q = dca._grad_g_arr(q, prob, beta, LOG_CLAMP)
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
