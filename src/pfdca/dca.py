"""Difference-of-convex solver for the privacy-funnel Lagrangian.

The loss ``L(P(Z|X)) = I(Z;Y) - beta * I(Z;X)`` splits into a difference
of convex terms ``f - g`` with ``f = -H(Z|Y)`` and
``g = -H(Z) + beta * I(Z;X)``. Each outer iteration linearizes ``g`` at
the current encoder, which yields a closed-form target for P(Z|Y):
softmax over codes of the block pseudo-inverse applied to the gradient
coefficients. The encoder is then pulled toward that target by one of
two inner solvers:

* ``ridge``: the fit ``0.5 * ||A v - q||^2 + alpha * ||v||^2`` over
  column simplices. Its minimizer under the column-sum constraints alone
  is one linear solve with ``A A^T + 2 alpha I``; when that point is
  non-negative, it is the answer (the bound multipliers are zero), and
  otherwise projected gradient finds it;
* ``sparse_log``: projected gradient on the box-constrained
  log-likelihood objective
  ``0.5 * ||lse_x(l_xy + l_zx) - log q||^2 + alpha * ||l_zx||_1``,
  followed by a softmax back to probabilities. The log-sum-exp is taken
  in product form, ``log(exp(l_zx) @ exp(l_xy))``, with no max shift:
  the box keeps every ``l_zx`` at or above -30 and every column of
  P(x|y) sums to 1 (a y of zero mass gets P(X)), so every entry of the
  product is at least ``exp(-30) / |X|``.

One search, ``_spectral_descent``, serves all three inner solves, the
``sparse_log`` fit, the ``ridge`` fit where its closed form does not
hold, and the exact step below: spectral projected gradient (Birgin,
Martinez and Raydan, SIAM J. Optim. 2000) with halving Armijo
backtracking, a relative stop and one budget. Each backtracking search
starts at the step ``<s,s>/<s,y>`` of Barzilai and Borwein, where ``s``
is the last accepted move and ``y`` the change of gradient along it,
clipped to [1e-6, 1e6]; a search without positive curvature ``<s,y>``
starts at 1.
In the exact step, ``s`` leaves out coordinates that are zero before or
after the move: the clamped log in that gradient jumps there, which is
not curvature. Every accepted step decreases its objective.

Both inner problems are relaxations, so a candidate step can increase
the true loss (most visibly for large ``alpha``), and a run that merely
stalls at the relaxed update's biased fixed point has not reached a
stationary point of the loss. The outer loop therefore guards every
step with the decrease guarantee of the exact linearized update. Two
kinds of closed-form step come first, in this order:

* the relaxed step, the ``ridge`` or ``sparse_log`` fit above;
* the mirror step: ``f`` is 1-smooth relative to
  ``h(V) = sum_x p(x) sum_z V log V`` (Bauschke, Bolte and Teboulle,
  Math. Oper. Res. 2017; Lu, Freund and Nesterov, SIAM J. Optim. 2018),
  so the unit Bregman step on the linearized objective lowers the true
  loss by at least ``D_h(V, V+)``. The step of length ``t`` has a
  closed form per column, ``log V+ = log V + t * (log p_z +
  beta * (log V - log p_z) - sum_y P(y|x) log P(z|y))`` followed by a
  softmax, with no projection.

One rule guards both. A candidate is taken when it lowers the loss by
more than the outer tolerance ``_OUTER_TOL`` and by at least half the
squared movement of the code marginal (up to ``_CERT_SLACK``). The
first candidate of a kind that fails is discarded, that kind is dropped
for the rest of the run, and the same iteration tries the next kind.
A mirror candidate longer than the unit step is the one exception.
Only the unit step carries the a-priori decrease, but the guard
certifies every candidate whatever its length, so the length is
backtracked as in the CoCaIn BPG scheme of Mukkamala, Ochs, Pock and
Sabach (SIAM J. Math. Data Sci. 2020): each run starts at ``t = 1``,
each accepted mirror step doubles ``t`` up to ``_MIRROR_MAX_STEP``, and
a rejected candidate with ``t > 1`` halves ``t`` and is retried in the
same iteration. Only a rejected unit step drops the kind. Once no kind
is left, every iteration takes the exact step: direct projected-
gradient descent on the linearized objective ``f(p) - <grad g(p_k), p>``,
any decrease of which certifies a decrease of the true loss.

Every inner solve, relaxed or exact, runs at the one small budget
``_SURROGATE_STEP_ITERS``: descent needs a decrease of the linearized
surrogate, not its minimizer (Souza, Oliveira and Soubeyran, Optim.
Lett. 2016). The run declares convergence when an exact step stops on
``_INNER_TOL`` before its budget, and so is the step any larger budget
would give, without improving the loss beyond ``_OUTER_TOL``. A run
that has not converged after ``_OUTER_MAX_ITER`` outer iterations stops
there. This preserves the monotone-descent certificate and leaves the
final encoder approximately stationary.

Every loss reads one product per encoder, ``W = V @ [p(x) | P(x|y) | I]``
(the identity block is exact): its column entropies are H(Z), each
H(Z|y) and each H(Z|x). The loop carries ``W`` with ``V`` and forms it
once per encoder: the mirror step reads ``log W``, the certificate the
first columns (p(z)) of two products, the result the last ``W``'s terms.
The relaxed target and ``grad g`` form their own ``V @ p(x)``: ``W``'s
first column can differ from it in the last bits, which would move runs.

Mirror steps and exact (fallback) steps are counted on the result; an
accepted ascent beyond ``DESCENT_SLACK`` (never produced by the guard)
would be flagged as a defect.
"""

import functools
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .linops import MarkovOperator
# The benchmark's tracer wraps the entropy kernels as globals of this module.
from .probability import (
    LOG_CLAMP,
    NATS_TO_BITS,
    STOCHASTIC_ATOL,
    Encoder,
    InvalidDistributionError,
    JointXY,
    _col_entropies,
    _neg_plogp_sum,  # noqa: F401  (bound by the tracer, unused here)
    bayes_invert,
    random_start,
)

# Per-step slack on the monotone-descent certificate.
DESCENT_SLACK = 1e-6
# Slack on the quadratic decrease certificate enforced per accepted step:
# loss drop >= 0.5 * ||marginal movement||^2 - _CERT_SLACK.
_CERT_SLACK = 1e-6
# Iteration budget of every inner solve, exact and relaxed (shorter exact
# steps reach fewer basins). The benchmark binds this name.
_SURROGATE_STEP_ITERS = 20
# Relative-decrease tolerance of every inner solve.
_INNER_TOL = 1e-9
# The outer stop: the loss drop a step must beat, and the iteration cap.
_OUTER_TOL = 1e-6
_OUTER_MAX_ITER = 10000
# Box on the q=1 log-likelihoods: every entry lies in [_BOX_LO, _BOX_HI].
_BOX_LO = -30.0
_BOX_HI = -1e-6
# P(z|x) above which a code counts as supported in the stationarity gap.
_SUPPORT_TOL = 1e-8

_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
_ARMIJO_MIN_STEP = 1e-14
# Safeguards on the spectral first trial step of each backtracking search:
# it is clipped to [_SPECTRAL_MIN, _SPECTRAL_MAX], and a search whose last
# move gives no positive curvature starts at _SPECTRAL_FALLBACK instead.
_SPECTRAL_MIN = 1e-6
_SPECTRAL_MAX = 1e6
_SPECTRAL_FALLBACK = 1.0
# Longest mirror step length (see the module docstring).
_MIRROR_MAX_STEP = 4.0
_TINY = np.finfo(float).tiny


def _spectral_step(s: np.ndarray, y: np.ndarray) -> float:
    """First trial step ``<s,s>/<s,y>`` of Barzilai and Borwein (IMA J.
    Numer. Anal. 1988), from the last accepted move ``s`` and the change
    ``y`` of the gradient along it, clipped to the safeguards;
    ``_SPECTRAL_FALLBACK`` when ``<s,y>`` is not positive."""
    sy = float(np.add.reduce(s * y, axis=None))
    if not sy > 0.0:
        return _SPECTRAL_FALLBACK
    return min(max(float(np.add.reduce(s * s, axis=None)) / sy, _SPECTRAL_MIN), _SPECTRAL_MAX)


def _finite_positive(*values) -> bool:
    """Whether every value is a finite number above zero. NaN is not, and
    numeric text and booleans are not numbers, as in distribution files."""
    return all(isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v) and v > 0 for v in values)


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool is not, though it is Integral."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class InnerKind(str, Enum):
    """Which relaxed inner problem drives the update."""

    RIDGE = "ridge"
    SPARSE_LOG = "sparse_log"


@dataclass(frozen=True)
class DcaConfig:
    beta: float
    alpha: float
    inner_kind: InnerKind = InnerKind.RIDGE
    seed: int = 0

    def __post_init__(self):
        if not _finite_positive(self.beta, self.alpha):
            raise ValueError("beta and alpha must be finite and positive")
        # A NumPy float32 would carry its precision into every loss.
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "inner_kind", InnerKind(self.inner_kind))


@dataclass(frozen=True)
class DcaResult:
    encoder: Encoder
    loss_trace: np.ndarray
    converged: bool
    iterations: int
    stationarity_gap: float
    i_zx_bits: float
    i_zy_bits: float
    loss_nats: float
    defect: bool = False
    fallback_steps: int = 0
    # Accepted closed-form mirror steps.
    mirror_steps: int = 0


@dataclass(frozen=True)
class _Problem:
    """Arrays derived from a JointXY, built once per source and shared by
    every call on it; all of them are read-only."""

    px: np.ndarray      # (nx,)
    py: np.ndarray      # (ny,)
    pycx: np.ndarray    # (ny, nx), P(y|x)
    pxcy: np.ndarray    # (nx, ny), P(x|y)
    stack: np.ndarray   # (nx, 1 + ny + nx), [p(x) | P(x|y) | I]

    @staticmethod
    def build(j: JointXY) -> "_Problem":
        """The problem of ``j``, from the memo when ``j`` already has one."""
        prob = _PROBLEMS.get(j)
        if prob is None:
            px, pxcy = j.p_x.probs, bayes_invert(j).matrix
            stack = np.hstack([px[:, None], pxcy, np.eye(px.shape[0])])
            stack.flags.writeable = False
            prob = _PROBLEMS[j] = _Problem(px=px, py=j.p_y.probs, pycx=j.y_given_x.matrix, pxcy=pxcy, stack=stack)
        return prob

    @functools.cached_property
    def b_pinv_t(self) -> np.ndarray:
        """(nx, ny) transpose of the SVD pseudo-inverse of the backward
        block, which only the relaxed target reads. It is defined at any
        rank, so sources with |Y| < |X| or with repeated channel columns
        get the least-squares update."""
        out = MarkovOperator(self.pycx.T).pinv_block().T
        out.flags.writeable = False
        return out


# One problem per live source. Keys are held weakly, so a source that is
# dropped takes its arrays with it; the values never refer to their key.
_PROBLEMS: "weakref.WeakKeyDictionary[JointXY, _Problem]" = weakref.WeakKeyDictionary()


def _metrics(W: np.ndarray, prob: _Problem):
    """(H(Z), I(Z;Y), I(Z;X)) in nats from the column entropies of an
    encoder's ``W = V @ prob.stack``: H(Z), then H(Z|y) per y, then H(Z|x)
    per x. ``+ 0.0`` turns a one-code encoder's -0.0 terms into 0.0."""
    h = _col_entropies(W)
    hz, ny = float(h[0]), prob.py.shape[0]
    return hz, hz - float(h[1 : 1 + ny] @ prob.py) + 0.0, hz - float(h[1 + ny :] @ prob.px) + 0.0


def _loss(V: np.ndarray, prob: _Problem, beta: float):
    """``(I(Z;Y) - beta * I(Z;X), W, (I(Z;Y), I(Z;X)))`` at ``V``."""
    W = V @ prob.stack
    _, izy, izx = _metrics(W, prob)
    return izy - beta * izx, W, (izy, izx)


def _clog(a: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(a, LOG_CLAMP))


def _grad_g_arr(V: np.ndarray, prob: _Problem, beta: float) -> np.ndarray:
    log_pz = _clog(V @ prob.px)[:, None]
    return prob.px[None, :] * (log_pz + 1.0 + beta * (_clog(V) - log_pz))


def _grad_f_arr(V: np.ndarray, prob: _Problem) -> np.ndarray:
    log_pzy = _clog(V @ prob.pxcy)
    return prob.px[None, :] * (log_pzy @ prob.pycx + 1.0)


def _compute_c_arr(V: np.ndarray, prob: _Problem, beta: float) -> np.ndarray:
    log_pz = _clog(V @ prob.px)[:, None]
    return log_pz + beta * (_clog(V) - log_pz)


def _softmax_cols(logits: np.ndarray) -> np.ndarray:
    # Floored at the smallest normal float: the closed form is positive
    # everywhere, and an entry that underflowed to 0 would leave the support.
    e = np.maximum(np.exp(logits - logits.max(axis=0, keepdims=True)), _TINY)
    return e / np.add.reduce(e, axis=0, keepdims=True)


def _mirror_step(W: np.ndarray, prob: _Problem, beta: float, t: float) -> np.ndarray:
    """Closed-form exact DC step of length ``t`` from the encoder with
    stacked product ``W``: the Bregman step of the linearized objective
    under ``h(V) = sum_x p(x) sum_z V log V``, which ``f`` is 1-smooth
    relative to; ``t = 1`` is the unit step. Per column, ``log V+ = log V
    + t * (log p_z + beta * (log V - log p_z) - sum_y P(y|x) log P(z|y))``
    up to the softmax's normalization, all three logs read from ``log W``."""
    logs, ny = _clog(W), prob.py.shape[0]
    log_pz, log_v = logs[:, :1], logs[:, 1 + ny :]
    return _softmax_cols(log_v + t * (log_pz + beta * (log_v - log_pz) - logs[:, 1 : 1 + ny] @ prob.pycx))


def _relaxed_target(V: np.ndarray, prob: _Problem, beta: float) -> np.ndarray:
    """Closed-form update target for P(Z|Y): softmax over codes of the
    block pseudo-inverse applied to the update coefficients, entry (z, x)
    ``log p_z(z) + beta * (log P(z|x) - log p_z(z))``."""
    return _softmax_cols(_compute_c_arr(V, prob, beta) @ prob.b_pinv_t)


def _simplex_project_columns(m: np.ndarray) -> np.ndarray:
    """Euclidean projection of every column of a 2-D array onto the
    probability simplex (Duchi et al., ICML 2008). ``m`` is not modified."""
    n, cols = m.shape
    u = np.sort(m, axis=0)
    shifted = u[::-1].cumsum(axis=0)
    shifted -= 1.0
    ratio = shifted / np.arange(1, n + 1, dtype=float)[:, None]
    # u ascends, ratio follows u[::-1]; u - ratio > 0 exactly when u > ratio.
    rho = n - 1 - (u > ratio[::-1]).argmax(axis=0)
    out = m - ratio[rho, np.arange(cols)]
    np.maximum(out, 0.0, out=out)
    # At entries of about 1e17 the cumulative sums lose their -1, and a
    # column's result misses the simplex. Such a column is projected again
    # relative to its max, with entries 1 or more below it raised to -1:
    # they project to 0 either way, and raised they cannot overflow the
    # sums. A NaN column is left as it is.
    bad = [abs(s - 1.0) > STOCHASTIC_ATOL for s in np.add.reduce(out, axis=0).tolist()]
    if any(bad):
        out[:, bad] = _simplex_project_columns(np.maximum(m[:, bad] - m[:, bad].max(axis=0), -1.0))
    return out


def _f_value_arr(V: np.ndarray, prob: _Problem) -> float:
    """Convex part -H(Z|Y) of the loss, natural extension off the simplex."""
    pzy = V @ prob.pxcy
    return -float(_col_entropies(pzy) @ prob.py)


def _g_value_arr(V: np.ndarray, prob: _Problem, beta: float) -> float:
    """Linearized part -H(Z) + beta * I(Z;X), natural extension."""
    hz, _, izx = _metrics(V @ prob.stack, prob)
    return -hz + beta * izx


def _certified(drop: float, cand_W: np.ndarray, W: np.ndarray) -> bool:
    """The guard's decrease certificate for the step ``W -> cand_W`` of
    stacked products: the loss drop is at least half the squared move of
    their first column, p(z), up to ``_CERT_SLACK``. A NaN fails it."""
    move = cand_W[:, 0] - W[:, 0]
    return drop >= 0.5 * float(move @ move) - _CERT_SLACK


def _sparse_terms(L, c_xy):
    """``(E, S)`` of the q=1 inner problem at ``L`` of shape (|Z|, |X|),
    in product form: ``E = exp(L)`` and ``S = E @ c_xy``, where
    ``c_xy = exp(l_xy)`` is P(x|y) floored at ``LOG_CLAMP``. ``log S`` is
    the log-sum-exp over x of ``L[z, x] + l_xy[x, y]``, and needs no max
    shift: on the box every entry of ``S`` is at least
    ``exp(_BOX_LO) / |X|`` when the columns of P(x|y) sum to 1."""
    e = np.exp(L)
    return e, e @ c_xy


def _sparse_objective(L, resid, alpha):
    """Objective of the q=1 inner problem at ``L`` of shape (|Z|, |X|),
    given ``resid = log S - log_target`` with ``S`` from
    ``_sparse_terms(L, c_xy)``."""
    return 0.5 * float(np.add.reduce(resid * resid, axis=None)) - alpha * float(np.add.reduce(L, axis=None))


def _sparse_gradient(terms, c_xy, alpha):
    """Gradient of the q=1 objective at ``L``, given ``terms``, which is
    ``(E, S, resid)`` at ``L``: ``E * ((resid / S) @ c_xy.T) - alpha``,
    the log-sum-exp's softmax weights ``E[z, x] * c_xy[x, y] / S[z, y]``
    applied to the residual without forming them."""
    e, s, resid = terms
    return e * ((resid / s) @ c_xy.T) - alpha


def _spectral_descent(x, evaluate, gradient, project, move, tol, max_iter):
    """The one Armijo search (see the module docstring). ``evaluate(x)``
    gives ``(objective, aux)``, ``gradient(x, aux)`` reuses ``aux``, and
    ``move(x, prev)`` is the accepted move the spectral step reads.
    Returns ``(x, objective, stopped)``: ``stopped`` when the loop ended
    before its budget, so any larger budget returns the same ``x``."""
    obj, aux = evaluate(x)
    first, prev = _SPECTRAL_FALLBACK, None
    for _ in range(max_iter):
        grad = gradient(x, aux)
        if prev is not None:
            first = _spectral_step(move(x, prev[0]), grad - prev[1])
        # Halving is exact, so the trials are first * 2**-k, k = 0..46.
        step = 1.0
        while step >= _ARMIJO_MIN_STEP:
            trial = project(x - (first * step) * grad)
            trial_obj, trial_aux = evaluate(trial)
            if trial_obj <= obj + _ARMIJO_DECREASE * float(np.add.reduce(grad * (trial - x), axis=None)):
                break
            step *= _ARMIJO_SHRINK
        else:
            return x, obj, True
        done = abs(obj - trial_obj) <= tol * max(1.0, abs(obj))
        prev = x, grad
        x, obj, aux = trial, trial_obj, trial_aux
        if done:
            return x, obj, True
    return x, obj, False


def _ridge_descent(V, target, prob: _Problem, alpha, tol, max_iter):
    """The q=2 solve, the ridge fit ``0.5 * ||V @ pxcy - target||^2 +
    alpha * ||V||^2`` over the column simplices: returns the iterate and
    its objective.

    With ``A = pxcy`` and ``G = A A^T + 2 alpha I`` (SPD for alpha > 0),
    the minimizer under the column-sum constraints alone is
    ``V* = (T A^T + 1 lam^T) G^-1`` with
    ``lam^T = (1^T G - 1^T T A^T) / |Z|``. When ``V*`` is non-negative and
    its columns sum to 1 within ``STOCHASTIC_ATOL``, the bound multipliers
    are zero and ``V*`` is the minimizer over the simplices; otherwise
    the spectral search runs from ``V``."""
    pxcy = prob.pxcy

    def evaluate(V):
        resid = V @ pxcy - target
        fit = 0.5 * float(np.add.reduce(resid * resid, axis=None))
        return fit + alpha * float(np.add.reduce(V * V, axis=None)), resid

    # G, then T A^T + 1 lam^T.
    gram = pxcy @ pxcy.T
    gram.flat[:: gram.shape[0] + 1] += 2.0 * alpha
    rhs = target @ pxcy.T
    rhs += (np.add.reduce(gram, axis=0) - np.add.reduce(rhs, axis=0)) / rhs.shape[0]
    try:
        # G is symmetric, so V* = rhs G^-1 is the transpose of G^-1 rhs^T.
        closed = np.linalg.solve(gram, rhs.T).T
    except np.linalg.LinAlgError:
        pass
    else:
        # Together the two tests refuse a NaN or an infinite entry.
        sums = np.add.reduce(closed, axis=0).tolist()
        if closed.min() >= 0.0 and all(abs(s - 1.0) <= STOCHASTIC_ATOL for s in sums):
            return closed, evaluate(closed)[0]
    return _spectral_descent(
        V, evaluate, lambda V, resid: resid @ pxcy.T + 2.0 * alpha * V, _simplex_project_columns, np.subtract,
        tol, max_iter,
    )[:2]


def _sparse_descent(L, l_xy, log_target, alpha, tol, max_iter):
    """The q=1 solve on the log-likelihood box [_BOX_LO, _BOX_HI]:
    returns the iterate and its objective. Each evaluation is one
    ``exp`` and one product (see ``_sparse_terms``), and the accepted
    trial's ``(E, S, resid)`` feeds the next gradient."""
    c_xy = np.exp(l_xy)

    def evaluate(L):
        e, s = _sparse_terms(L, c_xy)
        resid = np.log(s) - log_target
        return _sparse_objective(L, resid, alpha), (e, s, resid)

    # Iterates keep the start's memory layout, which sets the order of
    # every sum; a C-ordered start gives every caller the same bits.
    return _spectral_descent(
        np.ascontiguousarray(L), evaluate, lambda L, terms: _sparse_gradient(terms, c_xy, alpha),
        lambda L: np.minimum(np.maximum(L, _BOX_LO, out=L), _BOX_HI, out=L), np.subtract, tol, max_iter,
    )[:2]


def _surrogate_descent(V, grad_g_k, prob: _Problem, tol, max_iter):
    """The exact step the guard falls back on: descent over the column
    simplices on the linearized objective ``f(p) - <grad_g_k, p>``, any
    decrease of which certifies a decrease of the true loss. Returns the
    iterate and whether the search stopped before its budget.
    """

    def evaluate(V):
        return _f_value_arr(V, prob) - float(np.add.reduce(grad_g_k * V, axis=None)), None

    def move(V, prev):
        # A coordinate that enters or leaves zero jumps in its clamped-log
        # gradient, which is not curvature: the spectral pair leaves it out.
        return np.where(np.minimum(V, prev) > 0.0, V - prev, 0.0)

    V, _, stopped = _spectral_descent(
        V, evaluate, lambda V, _: _grad_f_arr(V, prob) - grad_g_k, _simplex_project_columns, move, tol, max_iter
    )
    return V, stopped


# ---------------------------------------------------------------------------
# public operations


def _stationarity_gap_arr(V: np.ndarray, prob: _Problem, beta: float) -> float:
    diff = _grad_f_arr(V, prob) - _grad_g_arr(V, prob, beta)
    mask = V > _SUPPORT_TOL
    counts = mask.sum(axis=0)
    mean = np.where(counts > 0, (diff * mask).sum(axis=0) / np.maximum(counts, 1), 0.0)
    residual = (diff - mean[None, :]) * mask
    return float(np.max(np.abs(residual)))


def _check_beta(beta: float) -> None:
    if not _finite_positive(beta):
        raise ValueError("beta must be finite and positive")


def _measure_problem(enc: Encoder, j: JointXY, beta: float) -> _Problem:
    """The problem of ``j`` for a public measure of ``enc`` at ``beta``;
    refuses what the solver refuses."""
    _check_beta(beta)
    if enc.n_x != j.n_x:
        raise InvalidDistributionError(f"encoder conditions on {enc.n_x} symbols, the source has {j.n_x}")
    return _Problem.build(j)


def pf_lagrangian(enc: Encoder, j: JointXY, beta: float) -> float:
    """Privacy-funnel Lagrangian I(Z;Y) - beta * I(Z;X) in nats: the loss
    that ``dca_run`` descends and reports as ``loss_nats``."""
    return _loss(enc.matrix, _measure_problem(enc, j, beta), beta)[0]


def stationarity_gap(enc: Encoder, j: JointXY, beta: float) -> float:
    """Interior-restricted first-order residual ``max |grad f - grad g|``.

    Per column the mean over supported codes (P(z|x) above 1e-8) is
    subtracted, playing the role of the simplex multiplier, and
    coordinates at the active lower bound are zeroed.
    """
    return _stationarity_gap_arr(enc.matrix, _measure_problem(enc, j, beta), beta)


def dca_run(j: JointXY, card_z: int, cfg: DcaConfig, init: Encoder | None = None) -> DcaResult:
    """Run the guarded difference-of-convex iteration to convergence.

    Stops once an exact step that stopped before its budget cannot lower
    the loss by more than ``_OUTER_TOL``, or, without converging, after
    ``_OUTER_MAX_ITER`` iterations; the reported trace holds the loss
    after every accepted step, starting at the initial encoder.
    """
    if not _is_int(card_z) or card_z < 1:
        raise ValueError(f"card_z must be an integer >= 1, got {card_z!r}")
    if init is not None:
        if init.card_z != card_z or init.n_x != j.n_x:
            raise ValueError("init encoder shape does not match (card_z, |X|)")
        V = init.matrix.copy()
    else:
        V = random_start(np.random.default_rng(cfg.seed), card_z, j.n_x)

    prob = _Problem.build(j)
    beta, alpha = cfg.beta, cfg.alpha
    if cfg.inner_kind is InnerKind.SPARSE_LOG:
        l_xy = _clog(prob.pxcy)

        def relaxed(V):
            L0 = np.clip(_clog(V), _BOX_LO, _BOX_HI)
            log_target = _clog(_relaxed_target(V, prob, beta))
            return _softmax_cols(_sparse_descent(L0, l_xy, log_target, alpha, _INNER_TOL, _SURROGATE_STEP_ITERS)[0])
    else:
        def relaxed(V):
            target = _relaxed_target(V, prob, beta)
            return _ridge_descent(V, target, prob, alpha, _INNER_TOL, _SURROGATE_STEP_ITERS)[0]

    # The loop's state: the encoder, its stacked product, loss and terms; the
    # kind in play (0 relaxed, 1 mirror, 2 exact steps alone) and the length
    # of the next mirror step (see the module docstring).
    loss, W, info = _loss(V, prob, beta)
    kind, t = 0, 1.0
    trace = [loss]
    converged = False
    fallback_steps = mirror_steps = iterations = 0

    for iterations in range(1, _OUTER_MAX_ITER + 1):
        while kind < 2:
            # The guard (see the module docstring): a candidate that fails
            # it is discarded. A mirror step longer than 1 is retried at
            # half its length; any other failure drops its kind for the
            # rest of the run.
            cand = relaxed(V) if kind == 0 else _mirror_step(W, prob, beta, t)
            cand_loss, cand_W, cand_info = _loss(cand, prob, beta)
            drop = loss - cand_loss
            if drop > _OUTER_TOL and _certified(drop, cand_W, W):
                break
            if kind == 1 and t > 1.0:
                t *= 0.5
            else:
                kind += 1
        if kind == 2:
            # No kind is left: descend the linearization directly. A step
            # that stopped before its budget is the one any larger budget
            # gives, so if it cannot improve past the outer tolerance the
            # run has converged, on that step unless it raises the loss.
            fallback_steps += 1
            cand, stopped = _surrogate_descent(V, _grad_g_arr(V, prob, beta), prob, _INNER_TOL, _SURROGATE_STEP_ITERS)
            cand_loss, cand_W, cand_info = _loss(cand, prob, beta)
            converged = stopped and loss - cand_loss <= _OUTER_TOL
            if converged and cand_loss > loss:
                break
        elif kind == 1:
            mirror_steps += 1
            t = min(2.0 * t, _MIRROR_MAX_STEP)
        V, W, loss, info = cand, cand_W, cand_loss, cand_info
        trace.append(loss)
        if converged:
            break

    trace_arr = np.asarray(trace)
    defect = bool(np.any(np.diff(trace_arr) > DESCENT_SLACK))
    izy, izx = info
    enc = Encoder(V)
    return DcaResult(
        encoder=enc,
        loss_trace=trace_arr,
        converged=converged,
        iterations=iterations,
        stationarity_gap=_stationarity_gap_arr(enc.matrix, prob, beta),
        i_zx_bits=izx * NATS_TO_BITS,
        i_zy_bits=izy * NATS_TO_BITS,
        loss_nats=loss,
        defect=defect,
        fallback_steps=fallback_steps,
        mirror_steps=mirror_steps,
    )
