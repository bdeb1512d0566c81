"""Sequential reference kernels of the DC solver.

These are the one-trial-at-a-time implementations the solver used
before its line search was batched and its kernels trimmed. Tests assert
that the package's kernels return exactly the same arrays, bit for bit.
"""

import numpy as np

ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
ARMIJO_MIN_STEP = 1e-14


def col_entropies(m):
    return -np.where(m > 0.0, m * np.log(np.where(m > 0.0, m, 1.0)), 0.0).sum(axis=0)


def neg_plogp_sum(a):
    return -float(np.sum(np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0)))


def simplex_project_columns(m):
    n, cols = m.shape
    u = np.sort(m, axis=0)[::-1]
    shifted = np.cumsum(u, axis=0) - 1.0
    counts = np.arange(1, n + 1, dtype=float)[:, None]
    active = u - shifted / counts > 0.0
    rho = n - 1 - np.argmax(active[::-1], axis=0)
    theta = shifted[rho, np.arange(cols)] / (rho + 1.0)
    return np.maximum(m - theta[None, :], 0.0)


def sparse_objective(L, l_xy, log_target, alpha):
    s = L[:, :, None] + l_xy[None, :, :]
    mx = s.max(axis=1)
    resid = mx + np.log(np.exp(s - mx[:, None, :]).sum(axis=1)) - log_target
    return 0.5 * float(np.sum(resid * resid)) - alpha * float(np.sum(L))


def sparse_gradient(L, l_xy, log_target, alpha):
    s = L[:, :, None] + l_xy[None, :, :]
    mx = s.max(axis=1)
    lse = mx + np.log(np.exp(s - mx[:, None, :]).sum(axis=1))
    resid = lse - log_target
    weights = np.exp(s - lse[:, None, :])
    return np.einsum("zy,zxy->zx", resid, weights) - alpha, resid


def sparse_descent(L, l_xy, log_target, alpha, lo, hi, tol, max_iter, halvings=None):
    """Armijo projected gradient, one backtracking trial at a time.

    When ``halvings`` is a list, the number of step halvings each
    iteration took is appended to it (47 when no step passed).
    """
    obj = sparse_objective(L, l_xy, log_target, alpha)
    for _ in range(max_iter):
        grad, _ = sparse_gradient(L, l_xy, log_target, alpha)
        step = 1.0
        accepted = False
        count = 0
        while step >= ARMIJO_MIN_STEP:
            trial = np.clip(L - step * grad, lo, hi)
            trial_obj = sparse_objective(trial, l_xy, log_target, alpha)
            if trial_obj <= obj + ARMIJO_DECREASE * float(np.sum(grad * (trial - L))):
                accepted = True
                break
            step *= ARMIJO_SHRINK
            count += 1
        if halvings is not None:
            halvings.append(count)
        if not accepted:
            break
        done = abs(obj - trial_obj) <= tol * max(1.0, abs(obj))
        L, obj = trial, trial_obj
        if done:
            break
    return L, obj
