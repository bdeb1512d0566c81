"""Sequential reference kernels of the DC solver.

These are plain implementations of the solver's kernels, as they were
before the kernels were trimmed: one trial at a time, with every
objective and gradient computed from scratch. Tests assert that the
package's kernels return exactly the same arrays, bit for bit. The q=1 descent starts each backtracking search at
the safeguarded spectral step, as the package does.

The q=1 kernels come in two forms. ``product_objective`` and
``product_gradient`` take the log-sum-exp over x as
``log(exp(L) @ exp(l_xy))``, as the package does, and
``sparse_descent`` runs on them, so it pins the package's q=1 solve bit
for bit. ``sparse_objective`` and ``sparse_gradient`` take it with the
max shift, term by term (``lse_over_x``); tests hold the product form
within a stated bound of them.

``surrogate_descent`` is the exact step as it was before its searches
started at the spectral step: every search starts at 1. Tests use it as
a baseline for the quality of the package's exact step, not for bits.

The ``untrimmed_*`` kernels are the projection, the entropy kernel, the
loss and the exact step (with its spectral first trials) as they were
before these kernels were trimmed to fewer NumPy calls. Tests assert
that the package's projection, entropy kernel and exact step still
return the same bits. ``untrimmed_loss`` takes each information term
from its own product, so it bounds the package's loss to rounding;
``stacked_loss`` is the one-product loss written out in full, and pins
the package's loss bit for bit.

``baseline_points`` evaluates the greedy and exhaustive baselines the
way they were evaluated before each source got one problem object: a
fresh Bayes inverse and a fresh P(Y) for every clustering and every
greedy candidate, each clustering a ``HardClustering`` merged by
``_merge`` and scored through ``clustering_to_encoder`` and the column
entropies of its product with ``[p(x) | P(x|y)]``, the solver's stacked
layout without its identity block, kept here so that the package shares
no merge, relabel or information code with this reference.
Tests assert that the package's baselines write the same CSV bytes.

``points_csv`` writes trade-off points one cell at a time, by the type of
each value (``format_value`` over ``point_to_record``), as the package
wrote them before it formatted a whole row with one format string. Tests
assert that the package writes the same bytes.
"""

import numpy as np

from dataclasses import dataclass

from pfdca.baseline import iter_partitions
from pfdca.dca import stationarity_gap
from pfdca.probability import NATS_TO_BITS, DiscreteDist, Encoder, bayes_invert
from pfdca.sweep import CSV_HEADER, Solver, TradeoffPoint

ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
ARMIJO_MIN_STEP = 1e-14
SPECTRAL_MIN = 1e-6
SPECTRAL_MAX = 1e6


def plogp(a):
    return np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0)


def col_entropies(m):
    return -plogp(m).sum(axis=0)


def neg_plogp_sum(a):
    return -float(np.sum(plogp(a)))


def entropy_nats(p):
    return max(neg_plogp_sum(p), 0.0)


def simplex_project_columns(m):
    n, cols = m.shape
    u = np.sort(m, axis=0)[::-1]
    shifted = np.cumsum(u, axis=0) - 1.0
    counts = np.arange(1, n + 1, dtype=float)[:, None]
    active = u - shifted / counts > 0.0
    rho = n - 1 - np.argmax(active[::-1], axis=0)
    theta = shifted[rho, np.arange(cols)] / (rho + 1.0)
    return np.maximum(m - theta[None, :], 0.0)


def lse_over_x(L, l_xy):
    """Log-sum-exp over x of ``L[z, x] + l_xy[x, y]``, per (z, y), shifted
    by its max over x, so that it is finite at any spread."""
    s = L[:, :, None] + l_xy[None, :, :]
    mx = s.max(axis=1)
    return mx + np.log(np.exp(s - mx[:, None, :]).sum(axis=1))


def sparse_objective(L, l_xy, log_target, alpha):
    resid = lse_over_x(L, l_xy) - log_target
    return 0.5 * float(np.sum(resid * resid)) - alpha * float(np.sum(L))


def sparse_gradient(L, l_xy, log_target, alpha):
    s = L[:, :, None] + l_xy[None, :, :]
    lse = lse_over_x(L, l_xy)
    resid = lse - log_target
    weights = np.exp(s - lse[:, None, :])
    return np.einsum("zy,zxy->zx", resid, weights) - alpha


def product_terms(L, l_xy, log_target):
    """``(E, S, resid)``: ``E = exp(L)``, ``S = E @ exp(l_xy)`` and
    ``resid = log S - log_target``."""
    e = np.exp(L)
    s = e @ np.exp(l_xy)
    return e, s, np.log(s) - log_target


def product_objective(L, l_xy, log_target, alpha):
    _, _, resid = product_terms(L, l_xy, log_target)
    return 0.5 * float(np.sum(resid * resid)) - alpha * float(np.sum(L))


def product_gradient(L, l_xy, log_target, alpha):
    e, s, resid = product_terms(L, l_xy, log_target)
    return e * ((resid / s) @ np.exp(l_xy).T) - alpha


def spectral_step(s, y):
    """Barzilai-Borwein step <s,s>/<s,y>, clipped to [SPECTRAL_MIN,
    SPECTRAL_MAX]; 1 when <s,y> is not positive."""
    sy = float(np.sum(s * y))
    if not sy > 0.0:
        return 1.0
    return float(np.clip(float(np.sum(s * s)) / sy, SPECTRAL_MIN, SPECTRAL_MAX))


def sparse_descent(L, l_xy, log_target, alpha, lo, hi, tol, max_iter, halvings=None):
    """Armijo projected gradient, one backtracking trial at a time, each
    search starting at the spectral step of the last accepted move.

    When ``halvings`` is a list, the number of step halvings each
    iteration took is appended to it (47 when no step passed).
    """
    obj = product_objective(L, l_xy, log_target, alpha)
    prev = None
    for _ in range(max_iter):
        grad = product_gradient(L, l_xy, log_target, alpha)
        first = 1.0 if prev is None else spectral_step(L - prev[0], grad - prev[1])
        factor = 1.0
        accepted = False
        count = 0
        while factor >= ARMIJO_MIN_STEP:
            trial = np.clip(L - (first * factor) * grad, lo, hi)
            trial_obj = product_objective(trial, l_xy, log_target, alpha)
            if trial_obj <= obj + ARMIJO_DECREASE * float(np.sum(grad * (trial - L))):
                accepted = True
                break
            factor *= ARMIJO_SHRINK
            count += 1
        if halvings is not None:
            halvings.append(count)
        if not accepted:
            break
        done = abs(obj - trial_obj) <= tol * max(1.0, abs(obj))
        prev = L, grad
        L, obj = trial, trial_obj
        if done:
            break
    return L, obj


def f_value(V, pxcy, py):
    """-H(Z|Y) of a raw encoder matrix."""
    return -float(col_entropies(V @ pxcy) @ py)


def grad_f(V, pxcy, pycx, px, clamp):
    return px[None, :] * (np.log(np.maximum(V @ pxcy, clamp)) @ pycx + 1.0)


def surrogate_descent(V, grad_g_k, pxcy, pycx, px, py, clamp, tol, max_iter):
    """Projected gradient with Armijo backtracking on ``f(p) - <grad_g_k, p>``
    over column-stochastic ``p``, every search starting at step 1."""
    obj = f_value(V, pxcy, py) - float(np.sum(grad_g_k * V))
    for _ in range(max_iter):
        grad = grad_f(V, pxcy, pycx, px, clamp) - grad_g_k
        step = 1.0
        accepted = False
        while step >= ARMIJO_MIN_STEP:
            trial = simplex_project_columns(V - step * grad)
            trial_obj = f_value(trial, pxcy, py) - float(np.sum(grad_g_k * trial))
            if trial_obj <= obj + ARMIJO_DECREASE * float(np.sum(grad * (trial - V))):
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break
        done = abs(obj - trial_obj) <= tol * max(1.0, abs(obj))
        V, obj = trial, trial_obj
        if done:
            break
    return V


def untrimmed_plogp(a):
    out = np.zeros_like(a)
    np.log(a, out=out, where=a > 0.0)
    out *= a
    return out


def untrimmed_col_entropies(m):
    return -untrimmed_plogp(m).sum(axis=0)


def untrimmed_simplex_project_columns(m):
    n, cols = m.shape
    counts = np.arange(1, n + 1, dtype=float)[:, None]
    u = np.sort(m, axis=0)[::-1]
    shifted = np.cumsum(u, axis=0)
    shifted -= 1.0
    active = np.divide(shifted, counts)
    np.subtract(u, active, out=active)
    rho = n - 1 - np.argmax(active[::-1] > 0.0, axis=0)
    theta = shifted[rho, np.arange(cols)]
    theta /= rho + 1.0
    out = m - theta
    np.maximum(out, 0.0, out=out)
    return out


def untrimmed_loss(V, px, pxcy, py, beta):
    """I(Z;Y) - beta * I(Z;X) in nats, each information term computed
    from scratch."""
    pz = V @ px
    hz = -float(untrimmed_plogp(pz).sum())
    izx = hz - float(untrimmed_col_entropies(V) @ px)
    izy = hz - float(untrimmed_col_entropies(V @ pxcy) @ py)
    return izy - beta * izx


def stacked_loss(V, px, pxcy, py, beta):
    """I(Z;Y) - beta * I(Z;X) in nats from one product: the column
    entropies of ``V @ [p(x) | P(x|y) | I]`` give H(Z), H(Z|y) per y and
    H(Z|x) per x."""
    ny = pxcy.shape[1]
    stack = np.hstack([px[:, None], pxcy, np.eye(px.shape[0])])
    h = untrimmed_col_entropies(V @ stack)
    hz = float(h[0])
    izy = hz - float(h[1 : 1 + ny] @ py)
    izx = hz - float(h[1 + ny :] @ px)
    return izy - beta * izx


def untrimmed_spectral_step(s, y):
    sy = float((s * y).sum())
    if not sy > 0.0:
        return 1.0
    return min(max(float((s * s).sum()) / sy, SPECTRAL_MIN), SPECTRAL_MAX)


def untrimmed_surrogate_descent(V, grad_g_k, pxcy, pycx, px, py, clamp, tol, max_iter):
    """The exact step: Armijo projected gradient on ``f(p) - <grad_g_k, p>``,
    each search starting at the spectral step over the coordinates
    positive before and after the last move. Returns the iterate and
    whether the loop stopped before its budget."""

    def f_value(W):
        return -float(untrimmed_col_entropies(W @ pxcy) @ py)

    steps = []
    step = 1.0
    while step >= ARMIJO_MIN_STEP:
        steps.append(step)
        step *= ARMIJO_SHRINK
    obj = f_value(V) - float((grad_g_k * V).sum())
    first, prev = 1.0, None
    for _ in range(max_iter):
        grad = px[None, :] * (np.log(np.maximum(V @ pxcy, clamp)) @ pycx + 1.0) - grad_g_k
        if prev is not None:
            s = np.where(np.minimum(V, prev[0]) > 0.0, V - prev[0], 0.0)
            first = untrimmed_spectral_step(s, grad - prev[1])
        for step in steps:
            trial = untrimmed_simplex_project_columns(V - (first * step) * grad)
            trial_obj = f_value(trial) - float((grad_g_k * trial).sum())
            if trial_obj <= obj + ARMIJO_DECREASE * float((grad * (trial - V)).sum()):
                break
        else:
            return V, True
        done = abs(obj - trial_obj) <= tol * max(1.0, abs(obj))
        prev = V, grad
        V, obj = trial, trial_obj
        if done:
            return V, True
    return V, False


@dataclass(frozen=True)
class HardClustering:
    """Assignment of each x symbol to one cluster id in 0..n_clusters-1."""

    assignment: tuple

    def __post_init__(self):
        assignment = tuple(int(a) for a in self.assignment)
        if not assignment:
            raise ValueError("empty assignment")
        ids = sorted(set(assignment))
        if ids != list(range(len(ids))):
            raise ValueError(f"cluster ids must be contiguous from 0, got {ids}")
        object.__setattr__(self, "assignment", assignment)

    @property
    def n_clusters(self) -> int:
        return max(self.assignment) + 1

    @property
    def n_x(self) -> int:
        return len(self.assignment)


def clustering_to_encoder(c: HardClustering) -> Encoder:
    """One-hot encoder realizing the clustering; |Z| = number of clusters."""
    m = np.zeros((c.n_clusters, c.n_x))
    m[list(c.assignment), range(c.n_x)] = 1.0
    return Encoder(m)


def _merge(c: HardClustering, a: int, b: int) -> HardClustering:
    """Merge cluster b into cluster a (a < b), relabelling contiguously."""
    merged = [a if v == b else v for v in c.assignment]
    return HardClustering(tuple(v - 1 if v > b else v for v in merged))


def _information(enc, j):
    """(I(Z;Y), I(Z;X)) in nats of a one-hot encoder, with a fresh P(X|Y)
    and P(Y): the column entropies of ``enc @ [p(x) | P(x|y)]`` give H(Z)
    and H(Z|y) per y. A one-hot column has zero entropy, so I(Z;X) = H(Z).
    H(Z) and I(Z;Y) are floored at 0."""
    p_y = DiscreteDist(j.y_given_x.matrix @ j.p_x.probs).probs
    h = untrimmed_col_entropies(enc.matrix @ np.hstack([j.p_x.probs[:, None], bayes_invert(j).matrix]))
    hz = max(float(h[0]), 0.0)
    return max(hz - float(h[1:] @ p_y), 0.0), hz


def baseline_point(j, c, beta, solver, iterations):
    enc = clustering_to_encoder(c)
    i_zy, i_zx = _information(enc, j)
    return TradeoffPoint(
        solver=solver,
        beta=beta,
        alpha=0.0,
        card_z=c.n_clusters,
        restart=0,
        seed=0,
        i_zx_bits=i_zx * NATS_TO_BITS,
        i_zy_bits=i_zy * NATS_TO_BITS,
        loss_nats=i_zy - beta * i_zx,
        converged=True,
        iterations=iterations,
        stationarity_gap=stationarity_gap(enc, j, beta),
    )


def baseline_points(j, beta):
    """The greedy trajectory followed by every set partition of X."""
    current = HardClustering(tuple(range(j.n_x)))
    points = [baseline_point(j, current, beta, Solver.GREEDY, 0)]
    step = 0
    while current.n_clusters > 1:
        step += 1
        best = None
        k = current.n_clusters
        for a in range(k):
            for b in range(a + 1, k):
                cand = _merge(current, a, b)
                i_zy, i_zx = _information(clustering_to_encoder(cand), j)
                loss = i_zy - beta * i_zx
                if best is None or loss < best[0]:
                    best = (loss, cand)
        current = best[1]
        points.append(baseline_point(j, current, beta, Solver.GREEDY, step))
    for idx, assignment in enumerate(iter_partitions(j.n_x)):
        points.append(baseline_point(j, HardClustering(assignment), beta, Solver.EXHAUSTIVE, idx))
    return points


def format_value(v) -> str:
    """One CSV cell: a bool as true/false, a float as .12g with -0.0 as 0,
    anything else as str()."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v + 0.0 if v != 0.0 else 0.0, ".12g")
    return str(v)


def point_to_record(p) -> dict:
    return {"solver": p.solver.value, "q": p.q, **{k: getattr(p, k) for k in CSV_HEADER[2:]}}


def points_csv(points) -> str:
    """The CSV text of the points: the header, then one row per point."""
    rows = [CSV_HEADER] + [[format_value(v) for v in point_to_record(p).values()] for p in points]
    return "".join(",".join(cells) + "\n" for cells in rows)
