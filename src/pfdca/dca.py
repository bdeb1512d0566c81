"""Difference-of-convex solver for the privacy-funnel Lagrangian.

The loss ``L(P(Z|X)) = I(Z;Y) - beta * I(Z;X)`` splits into a difference
of convex terms ``f - g`` with ``f = -H(Z|Y)`` and
``g = -H(Z) + beta * I(Z;X)``. Each outer iteration linearizes ``g`` at
the current encoder, which yields a closed-form target for P(Z|Y):
softmax over codes of the block pseudo-inverse applied to the gradient
coefficients. The encoder is then pulled toward that target by one of
two inner solvers:

* ``ridge``: projected gradient on
  ``0.5 * ||A v - q||^2 + alpha * ||v||^2`` over column simplices with
  fixed step 1/L;
* ``sparse_log``: projected gradient with Armijo backtracking on the
  box-constrained log-likelihood objective
  ``0.5 * ||lse_x(l_xy + l_zx) - log q||^2 + alpha * ||l_zx||_1``,
  followed by a softmax back to probabilities.

Every Armijo search (the ``sparse_log`` solve and the exact step below)
starts at the spectral step ``<s,s>/<s,y>`` of Barzilai and Borwein,
where ``s`` is the last accepted move and ``y`` the change of gradient
along it, as in spectral projected gradient (Birgin, Martinez and
Raydan, SIAM J. Optim. 2000). The step is clipped to [1e-6, 1e6], and a
search without positive curvature ``<s,y>`` starts at 1. In the exact
step, ``s`` leaves out coordinates that are zero before or after the
move: the clamped log in that gradient jumps there, which is not
curvature. The Armijo test itself is unchanged, so every accepted step
still decreases its objective.

Both inner problems are relaxations, so a candidate step can increase
the true loss (most visibly for large ``alpha``), and a run that merely
stalls at the relaxed update's biased fixed point has not reached a
stationary point of the loss. The outer loop therefore guards every
step with the decrease guarantee of the exact linearized update: a
candidate is accepted only if the loss drops by at least half the
squared movement of the code marginal (up to slack). The schedule has
one rule: the relaxed step is tried every iteration until the guard
first rejects it or it first stalls (its loss drop is at most the outer
tolerance; a stalled step is still taken). From then on the run takes
exact steps alone: direct projected-gradient descent on the linearized
objective ``f(p) - <grad g(p_k), p>``, any decrease of which certifies
a decrease of the true loss. Every inner solve, relaxed or exact, runs
at the one small budget ``_SURROGATE_STEP_ITERS``: descent needs a
decrease of the linearized surrogate, not its minimizer (Souza, Oliveira
and Soubeyran, Optim. Lett. 2016). The run declares convergence when an
exact step stops on ``_INNER_TOL`` before its budget, and so is the step
any larger budget would give, without improving the loss beyond the
outer tolerance. This preserves the monotone-descent certificate and
leaves the final encoder approximately stationary.

Every step taken that does not end the run, relaxed or exact, is
boosted, as in the boosted DC algorithm of Aragon Artacho, Fleming and
Vuong (Math. Program. 2018), in the linearly constrained form of Aragon
Artacho, Campoy and Vuong (Set-Valued Var. Anal. 2022): a line search
along the step's own direction ``d = y - x`` from its result ``y`` takes
the first of ``y + lam * d``, for ``lam`` from
``min(lam_max, _BOOST_MAX_STEP)`` halving down to ``_BOOST_MIN_STEP``,
whose loss lies at least ``_BOOST_DECREASE * lam**2 * ||d||^2`` below
that of ``y``. ``lam_max`` is measured on the face of ``y``: it is where
the first coordinate positive in ``y`` that falls along ``d`` reaches 0.
A coordinate the step already put at 0 does not bound it; every trial
is projected onto the column simplices, which keeps that coordinate at
0, so every trial is feasible. A column with one positive entry
projects back to itself, so a step that moves only such columns gets no
trial. A boost only lowers the loss further, so the certificate holds,
and fewer outer iterations are needed.

Exact (fallback) steps are counted on the result, and so are accepted
boosts, after relaxed and exact steps alike;
an accepted ascent beyond ``DESCENT_SLACK`` (never produced by the
guard) would be flagged as a defect.
"""

import functools
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .linops import MarkovOperator
# The benchmark's tracer wraps the entropy kernels as globals of this module.
from .probability import (
    LOG_CLAMP,
    NATS_TO_BITS,
    Encoder,
    InvalidDistributionError,
    JointXY,
    _col_entropies,
    _neg_plogp_sum,
    bayes_invert,
    random_encoder,
)

# Per-step slack on the monotone-descent certificate.
DESCENT_SLACK = 1e-6
# Accepted-step slack used by the guard itself.
_ACCEPT_SLACK = 1e-12
# Slack on the quadratic decrease certificate enforced per accepted step:
# loss drop >= 0.5 * ||marginal movement||^2 - _CERT_SLACK.
_CERT_SLACK = 1e-6
# Iteration budget of every inner solve, exact and relaxed (shorter exact
# steps reach fewer basins). The benchmark binds this name.
_SURROGATE_STEP_ITERS = 20
# Relative-decrease tolerance of every inner solve.
_INNER_TOL = 1e-9
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
# Line search of the boosted step (see the module docstring): longest
# first trial, shortest trial, and sufficient-decrease factor.
_BOOST_MAX_STEP = 4.0
_BOOST_MIN_STEP = 1e-3
_BOOST_DECREASE = 0.1


def _armijo_steps() -> tuple:
    """Backtracking factors 1, shrink, shrink**2, ... down to the last
    one at or above ``_ARMIJO_MIN_STEP``; a search tries its first step
    times each factor in turn."""
    steps = []
    step = 1.0
    while step >= _ARMIJO_MIN_STEP:
        steps.append(step)
        step *= _ARMIJO_SHRINK
    return tuple(steps)


_ARMIJO_STEPS = _armijo_steps()


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
    """Whether every value is a finite number above zero; NaN is not."""
    return all(math.isfinite(v) and v > 0 for v in values)


class InnerKind(str, Enum):
    """Which relaxed inner problem drives the update."""

    RIDGE = "ridge"
    SPARSE_LOG = "sparse_log"


@dataclass(frozen=True)
class DcaConfig:
    beta: float
    alpha: float
    inner_kind: InnerKind = InnerKind.RIDGE
    outer_tol: float = 1e-6
    outer_max_iter: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not _finite_positive(self.beta, self.alpha):
            raise ValueError("beta and alpha must be finite and positive")
        if not _finite_positive(self.outer_tol):
            raise ValueError("outer_tol must be finite and positive")
        if not isinstance(self.outer_max_iter, Integral) or self.outer_max_iter < 1:
            raise ValueError("outer_max_iter must be an integer >= 1")
        if not isinstance(self.seed, Integral) or self.seed < 0:
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
    # Accepted boosts, after relaxed and exact steps alike.
    boosted_steps: int = 0


@dataclass(frozen=True)
class _Problem:
    """Arrays derived from a JointXY, built once per source and shared by
    every call on it; all of them are read-only."""

    px: np.ndarray      # (nx,)
    py: np.ndarray      # (ny,)
    pycx: np.ndarray    # (ny, nx), P(y|x)
    pxcy: np.ndarray    # (nx, ny), P(x|y)

    @staticmethod
    def build(j: JointXY) -> "_Problem":
        """The problem of ``j``, from the memo when ``j`` already has one."""
        prob = _PROBLEMS.get(j)
        if prob is None:
            prob = _PROBLEMS[j] = _Problem(
                px=j.p_x.probs,
                py=j.p_y.probs,
                pycx=j.y_given_x.matrix,
                pxcy=bayes_invert(j).matrix,
            )
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

    @functools.cached_property
    def a_smax(self) -> float:
        """Largest singular value of the forward block (the ridge step's
        Lipschitz constant)."""
        return float(np.linalg.norm(self.pxcy.T, 2))


# One problem per live source. Keys are held weakly, so a source that is
# dropped takes its arrays with it; the values never refer to their key.
_PROBLEMS: "weakref.WeakKeyDictionary[JointXY, _Problem]" = weakref.WeakKeyDictionary()


def _code_terms(V: np.ndarray, prob: _Problem):
    """(H(Z), I(Z;X)) in nats for a raw encoder matrix."""
    hz = _neg_plogp_sum(V @ prob.px)
    return hz, hz - float(_col_entropies(V) @ prob.px)


def _metrics(V: np.ndarray, prob: _Problem):
    """(I(Z;Y), I(Z;X)) in nats for a raw encoder matrix."""
    hz, izx = _code_terms(V, prob)
    return hz + _f_value_arr(V, prob), izx


def _loss(V: np.ndarray, prob: _Problem, beta: float, f: float | None = None) -> float:
    """The loss at ``V``; ``f`` is ``_f_value_arr(V, prob)`` when already
    computed."""
    hz, izx = _code_terms(V, prob)
    if f is None:
        f = _f_value_arr(V, prob)
    return (hz + f) - beta * izx


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
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    return e / np.add.reduce(e, axis=0, keepdims=True)


def _relaxed_target(V: np.ndarray, prob: _Problem, beta: float) -> np.ndarray:
    """Closed-form update target for P(Z|Y): softmax over codes of the
    block pseudo-inverse applied to the update coefficients, entry (z, x)
    ``log p_z(z) + beta * (log P(z|x) - log p_z(z))``."""
    return _softmax_cols(_compute_c_arr(V, prob, beta) @ prob.b_pinv_t)


@functools.lru_cache(maxsize=64)
def _project_indices(n: int, cols: int):
    """Read-only (1..n as a float column, 0..cols-1) for projecting an
    (n, cols) array."""
    counts = np.arange(1, n + 1, dtype=float)[:, None]
    col_idx = np.arange(cols)
    counts.flags.writeable = col_idx.flags.writeable = False
    return counts, col_idx


def _simplex_project_columns(m: np.ndarray) -> np.ndarray:
    """Euclidean projection of every column of a 2-D array onto the
    probability simplex (Duchi et al., ICML 2008). ``m`` is not modified."""
    n, cols = m.shape
    counts, col_idx = _project_indices(n, cols)
    u = m.copy(order="K")
    u.sort(axis=0)
    u = u[::-1]
    shifted = u.cumsum(axis=0)
    shifted -= 1.0
    active = np.divide(shifted, counts)
    np.subtract(u, active, out=active)
    rho = n - 1 - (active[::-1] > 0.0).argmax(axis=0)
    theta = shifted[rho, col_idx]
    theta /= rho + 1.0
    out = m - theta
    np.maximum(out, 0.0, out=out)
    return out


def _f_value_arr(V: np.ndarray, prob: _Problem) -> float:
    """Convex part -H(Z|Y) of the loss, natural extension off the simplex."""
    pzy = V @ prob.pxcy
    return -float(_col_entropies(pzy) @ prob.py)


def _g_value_arr(V: np.ndarray, prob: _Problem, beta: float) -> float:
    """Linearized part -H(Z) + beta * I(Z;X), natural extension."""
    hz, izx = _code_terms(V, prob)
    return -hz + beta * izx


def _ridge_descent(V, target, prob: _Problem, alpha, tol, max_iter):
    """Fixed-step projected gradient for the simplex-constrained ridge fit."""
    a_t = prob.pxcy          # (nx, ny): right-multiplication applies the block
    a = prob.pxcy.T
    lip = prob.a_smax ** 2 + 2.0 * alpha
    resid = V @ a_t - target
    obj = 0.5 * float(np.add.reduce(resid * resid, axis=None)) + alpha * float(np.add.reduce(V * V, axis=None))
    for _ in range(max_iter):
        grad = resid @ a + 2.0 * alpha * V
        V = _simplex_project_columns(V - grad / lip)
        resid = V @ a_t - target
        new_obj = 0.5 * float(np.add.reduce(resid * resid, axis=None)) + alpha * float(np.add.reduce(V * V, axis=None))
        done = abs(obj - new_obj) <= tol * max(1.0, abs(obj))
        obj = new_obj
        if done:
            break
    return V, obj


def _sparse_terms(L, l_xy):
    """``(s, lse)`` of the q=1 inner problem at ``L`` of shape (|Z|, |X|):
    ``s[z, x, y] = L[z, x] + l_xy[x, y]`` and its log-sum-exp over x."""
    s = L[:, :, None] + l_xy
    mx = s.max(axis=1)
    return s, mx + np.log(np.add.reduce(np.exp(s - mx[:, None, :]), axis=1))


def _sparse_objective(L, l_xy, log_target, alpha, lse=None):
    """Objective of the q=1 inner problem at ``L`` of shape (|Z|, |X|).
    ``lse`` is the log-sum-exp of ``_sparse_terms(L, l_xy)`` when already
    computed."""
    if lse is None:
        _, lse = _sparse_terms(L, l_xy)
    resid = lse - log_target
    return 0.5 * float(np.add.reduce(resid * resid, axis=None)) - alpha * float(np.add.reduce(L, axis=None))


def _sparse_gradient(L, l_xy, log_target, alpha, terms=None):
    """Gradient and residual of the q=1 objective at ``L``; ``terms`` is
    ``_sparse_terms(L, l_xy)`` when already computed."""
    s, lse = _sparse_terms(L, l_xy) if terms is None else terms
    resid = lse - log_target
    weights = np.exp(s - lse[:, None, :])
    return np.einsum("zy,zxy->zx", resid, weights) - alpha, resid


def _sparse_descent(L, l_xy, log_target, alpha, tol, max_iter):
    """Armijo projected gradient on the log-likelihood box [_BOX_LO, _BOX_HI].

    Each backtracking search starts at the spectral step of the last
    accepted move and tries it times each factor of ``_ARMIJO_STEPS`` in
    turn. The accepted trial's log-sum-exp is reused for the next
    gradient.
    """
    # Iterates keep the start's memory layout, which sets the order of
    # every sum; a C-ordered start gives every caller the same bits.
    L = np.ascontiguousarray(L)
    terms = _sparse_terms(L, l_xy)
    obj = _sparse_objective(L, l_xy, log_target, alpha, terms[1])
    first, prev = _SPECTRAL_FALLBACK, None
    for _ in range(max_iter):
        grad, _ = _sparse_gradient(L, l_xy, log_target, alpha, terms)
        if prev is not None:
            first = _spectral_step(L - prev[0], grad - prev[1])
        for step in _ARMIJO_STEPS:
            trial = np.maximum(L - (first * step) * grad, _BOX_LO)
            np.minimum(trial, _BOX_HI, out=trial)
            trial_terms = _sparse_terms(trial, l_xy)
            trial_obj = _sparse_objective(trial, l_xy, log_target, alpha, trial_terms[1])
            if trial_obj <= obj + _ARMIJO_DECREASE * float(np.add.reduce(grad * (trial - L), axis=None)):
                break
        else:
            break
        done = abs(obj - trial_obj) <= tol * max(1.0, abs(obj))
        prev = L, grad
        L, obj, terms = trial, trial_obj, trial_terms
        if done:
            break
    return L, obj


def _surrogate_descent(V, grad_g_k, prob: _Problem, tol, max_iter):
    """Projected-gradient descent on the linearized objective
    ``f(p) - <grad_g_k, p>`` starting from the current iterate.

    Any decrease here certifies a decrease of the true loss, so this is
    the exact step that the guard falls back on. Each backtracking search
    starts at the spectral step of the last accepted move, taken over the
    coordinates positive before and after it, and tries it times each
    factor of ``_ARMIJO_STEPS`` in turn. Returns the iterate, whether the
    loop stopped before using its whole budget, in which case any larger
    budget returns the same iterate, and ``f`` at the iterate.
    """
    f = _f_value_arr(V, prob)
    obj = f - float(np.add.reduce(grad_g_k * V, axis=None))
    first, prev = _SPECTRAL_FALLBACK, None
    for _ in range(max_iter):
        grad = _grad_f_arr(V, prob) - grad_g_k
        if prev is not None:
            # A coordinate that enters or leaves zero jumps in its
            # clamped-log gradient, which is not curvature: the spectral
            # pair leaves it out.
            s = np.where(np.minimum(V, prev[0]) > 0.0, V - prev[0], 0.0)
            first = _spectral_step(s, grad - prev[1])
        for step in _ARMIJO_STEPS:
            trial = _simplex_project_columns(V - (first * step) * grad)
            trial_f = _f_value_arr(trial, prob)
            trial_obj = trial_f - float(np.add.reduce(grad_g_k * trial, axis=None))
            if trial_obj <= obj + _ARMIJO_DECREASE * float(np.add.reduce(grad * (trial - V), axis=None)):
                break
        else:
            return V, True, f
        done = abs(obj - trial_obj) <= tol * max(1.0, abs(obj))
        prev = V, grad
        V, obj, f = trial, trial_obj, trial_f
        if done:
            return V, True, f
    return V, False, f


# ---------------------------------------------------------------------------
# public operations


def _stationarity_gap_arr(V: np.ndarray, prob: _Problem, beta: float) -> float:
    diff = _grad_f_arr(V, prob) - _grad_g_arr(V, prob, beta)
    mask = V > _SUPPORT_TOL
    counts = mask.sum(axis=0)
    mean = np.where(counts > 0, (diff * mask).sum(axis=0) / np.maximum(counts, 1), 0.0)
    residual = (diff - mean[None, :]) * mask
    return float(np.max(np.abs(residual)))


def pf_lagrangian(enc: Encoder, j: JointXY, beta: float) -> float:
    """Privacy-funnel Lagrangian I(Z;Y) - beta * I(Z;X) in nats: the loss
    that ``dca_run`` descends and reports as ``loss_nats``."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if enc.n_x != j.n_x:
        raise InvalidDistributionError(f"encoder conditions on {enc.n_x} symbols, the source has {j.n_x}")
    return _loss(enc.matrix, _Problem.build(j), beta)


def stationarity_gap(enc: Encoder, j: JointXY, beta: float) -> float:
    """Interior-restricted first-order residual ``max |grad f - grad g|``.

    Per column the mean over supported codes (P(z|x) above 1e-8) is
    subtracted, playing the role of the simplex multiplier, and
    coordinates at the active lower bound are zeroed.
    """
    return _stationarity_gap_arr(enc.matrix, _Problem.build(j), beta)


def _boosted_step(V: np.ndarray, cand: np.ndarray, cand_loss: float, prob: _Problem, beta: float):
    """The boosted step: a line search along the step's direction
    ``d = cand - V`` (see the module docstring).

    ``lam_max`` is where the ray leaves the face of ``cand``: the first
    coordinate that is positive in ``cand`` and falls along ``d``
    reaches 0 there. A coordinate the step already put at 0 does not
    bound it; each trial is projected onto the column simplices, which
    keeps such a coordinate at 0 and absorbs rounding. Trials start at
    ``min(lam_max, _BOOST_MAX_STEP)`` and shrink down to
    ``_BOOST_MIN_STEP``. Returns ``(y, loss(y), lam)`` for the first
    trial with ``loss(y) <= cand_loss - _BOOST_DECREASE * lam**2 *
    ||d||^2``, or None when no trial can move or none passes.
    """
    d = cand - V
    down = d < 0.0
    pos = cand > 0.0
    # A column with one positive entry is a vertex of its simplex: every
    # projected trial keeps it at cand. Unless d moves some column with
    # two or more, every trial is cand itself and none can pass.
    if not np.any(down.any(axis=0) & (pos.sum(axis=0) > 1)):
        return None
    down &= pos
    lam = float(np.min(cand[down] / -d[down], initial=_BOOST_MAX_STEP))
    dd = float(np.add.reduce(d * d, axis=None))
    while lam >= _BOOST_MIN_STEP:
        y = _simplex_project_columns(cand + lam * d)
        y_loss = _loss(y, prob, beta)
        if y_loss <= cand_loss - _BOOST_DECREASE * lam * lam * dd:
            return y, y_loss, lam
        lam *= _ARMIJO_SHRINK
    return None


def dca_run(j: JointXY, card_z: int, cfg: DcaConfig, init: Encoder | None = None) -> DcaResult:
    """Run the guarded difference-of-convex iteration to convergence.

    Stops once an exact step that stopped before its budget cannot lower
    the loss by more than ``cfg.outer_tol``, or after
    ``cfg.outer_max_iter`` iterations; the reported trace holds the loss
    after every accepted step, starting at the initial encoder.
    """
    if not isinstance(card_z, Integral) or card_z < 1:
        raise ValueError(f"card_z must be an integer >= 1, got {card_z!r}")
    if init is not None:
        if init.card_z != card_z or init.n_x != j.n_x:
            raise ValueError("init encoder shape does not match (card_z, |X|)")
        V = init.matrix.copy()
    else:
        rng = np.random.default_rng(cfg.seed)
        V = random_encoder(rng, card_z, j.n_x).matrix.copy()

    prob = _Problem.build(j)
    beta, alpha = cfg.beta, cfg.alpha
    sparse = cfg.inner_kind is InnerKind.SPARSE_LOG
    l_xy = _clog(prob.pxcy) if sparse else None

    loss = _loss(V, prob, beta)
    trace = [loss]
    converged = False
    fallback_steps = boosted_steps = 0
    relaxed_phase = True
    iterations = 0

    for it in range(1, cfg.outer_max_iter + 1):
        iterations = it
        cand = None
        if relaxed_phase:
            target = _relaxed_target(V, prob, beta)
            if sparse:
                L0 = np.clip(_clog(V), _BOX_LO, _BOX_HI)
                L, _ = _sparse_descent(L0, l_xy, _clog(target), alpha, _INNER_TOL, _SURROGATE_STEP_ITERS)
                cand = _softmax_cols(L)
            else:
                cand, _ = _ridge_descent(V, target, prob, alpha, _INNER_TOL, _SURROGATE_STEP_ITERS)
            cand_loss = _loss(cand, prob, beta)
            drop = loss - cand_loss
            # The decrease certificate is written so that a NaN fails it.
            move = (cand - V) @ prob.px
            if drop < -_ACCEPT_SLACK or not drop >= 0.5 * float(move @ move) - _CERT_SLACK:
                cand = None
            # A rejected or stalled relaxed step ends the relaxed phase; a
            # stalled one is still taken, and exact steps polish from there.
            relaxed_phase = cand is not None and drop > cfg.outer_tol
        if cand is None:
            # Guarded step: descend the linearization directly. A step that
            # stopped before its budget is the one any larger budget gives,
            # so if it cannot improve past the outer tolerance the run has
            # converged.
            fallback_steps += 1
            grad_g_k = _grad_g_arr(V, prob, beta)
            cand, stopped, cand_f = _surrogate_descent(V, grad_g_k, prob, _INNER_TOL, _SURROGATE_STEP_ITERS)
            cand_loss = _loss(cand, prob, beta, cand_f)
            if stopped and loss - cand_loss <= cfg.outer_tol:
                if cand_loss <= loss:
                    V, loss = cand, cand_loss
                    trace.append(loss)
                converged = True
                break
        # Every step taken that does not end the run, relaxed or exact, is
        # boosted along its own direction.
        boosted = _boosted_step(V, cand, cand_loss, prob, beta)
        if boosted is not None:
            cand, cand_loss, _ = boosted
            boosted_steps += 1
        V, loss = cand, cand_loss
        trace.append(loss)

    trace_arr = np.asarray(trace)
    defect = bool(np.any(np.diff(trace_arr) > DESCENT_SLACK))
    izy, izx = _metrics(V, prob)
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
        boosted_steps=boosted_steps,
    )
