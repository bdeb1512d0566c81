"""Brute-force oracle equivalence for both inner solvers on two-symbol
instances: exhaustive grid search over the feasible set must match the
projected-gradient solutions.
"""

import numpy as np
import pytest

from pfdca import CondDist, DcaConfig, DiscreteDist, Encoder, JointXY
from pfdca.dca import (
    _Problem,
    _relaxed_target,
    _ridge_descent,
    _sparse_descent,
)
from pfdca.probability import LOG_CLAMP, random_encoder

RIDGE_TOL = 1e-6
SPARSE_TOL = 1e-5


def make_instances():
    return [
        JointXY(DiscreteDist(np.array([0.4, 0.6])), CondDist(np.array([[0.8, 0.3], [0.2, 0.7]]))),
        JointXY(DiscreteDist(np.array([0.5, 0.5])), CondDist(np.array([[0.87, 0.08], [0.13, 0.92]]))),
    ]


def ridge_objective_grid(pxcy, target, alpha, a, b):
    """Ridge objective over a meshgrid of the two free encoder entries."""
    r00 = a * pxcy[0, 0] + b * pxcy[1, 0] - target[0, 0]
    r01 = a * pxcy[0, 1] + b * pxcy[1, 1] - target[0, 1]
    r10 = (1 - a) * pxcy[0, 0] + (1 - b) * pxcy[1, 0] - target[1, 0]
    r11 = (1 - a) * pxcy[0, 1] + (1 - b) * pxcy[1, 1] - target[1, 1]
    fit = 0.5 * (r00**2 + r01**2 + r10**2 + r11**2)
    return fit + alpha * (a**2 + b**2 + (1 - a) ** 2 + (1 - b) ** 2)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.0])
def test_ridge_matches_exhaustive_grid(alpha):
    for idx, j in enumerate(make_instances()):
        rng = np.random.default_rng(100 + idx)
        prob = _Problem.build(j)
        target = _relaxed_target(random_encoder(rng, 2, 2).matrix, prob, 1.5, LOG_CLAMP)
        grid = np.linspace(0.0, 1.0, 1001)  # resolution 1e-3 over the simplex faces
        a, b = np.meshgrid(grid, grid, indexing="ij")
        j_grid = float(ridge_objective_grid(prob.pxcy, target, alpha, a, b).min())
        _, j_solver = _ridge_descent(
            np.full((2, 2), 0.5), target, prob, alpha, 1e-15, 100000
        )
        assert abs(j_solver - j_grid) <= RIDGE_TOL
        assert j_solver <= j_grid + 1e-12


def sparse_row_objective(l_xy, log_t_row, alpha, l0, l1):
    lse0 = np.logaddexp(l_xy[0, 0] + l0, l_xy[1, 0] + l1)
    lse1 = np.logaddexp(l_xy[0, 1] + l0, l_xy[1, 1] + l1)
    return 0.5 * ((lse0 - log_t_row[0]) ** 2 + (lse1 - log_t_row[1]) ** 2) - alpha * (l0 + l1)


def sparse_bruteforce(l_xy, log_t, alpha, lo, hi):
    """Exhaustive search over the box of log-likelihoods.

    The objective separates across code rows (the box carries no
    cross-row constraint), so each row is searched independently: a full
    sweep at resolution 0.05, then an exhaustive fine pass around the
    coarse minimizer. Returns (coarse minimum, refined minimum).
    """
    coarse_vals = np.append(np.arange(lo, hi, 0.05), hi)
    total_coarse = 0.0
    total_fine = 0.0
    for z in range(log_t.shape[0]):
        l0, l1 = np.meshgrid(coarse_vals, coarse_vals, indexing="ij")
        obj = sparse_row_objective(l_xy, log_t[z], alpha, l0, l1)
        k = np.unravel_index(np.argmin(obj), obj.shape)
        total_coarse += float(obj[k])
        c0, c1 = coarse_vals[k[0]], coarse_vals[k[1]]
        f0 = np.clip(np.linspace(c0 - 0.05, c0 + 0.05, 1001), lo, hi)
        f1 = np.clip(np.linspace(c1 - 0.05, c1 + 0.05, 1001), lo, hi)
        l0, l1 = np.meshgrid(f0, f1, indexing="ij")
        total_fine += float(sparse_row_objective(l_xy, log_t[z], alpha, l0, l1).min())
    return total_coarse, total_fine


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
def test_sparse_matches_exhaustive_grid(alpha):
    for idx, j in enumerate(make_instances()):
        rng = np.random.default_rng(200 + idx)
        prob = _Problem.build(j)
        target = _relaxed_target(random_encoder(rng, 2, 2).matrix, prob, 1.5, LOG_CLAMP)
        l_xy = np.log(prob.pxcy)
        log_t = np.log(target)
        lo, hi = -30.0, -1e-6
        j_coarse, j_fine = sparse_bruteforce(l_xy, log_t, alpha, lo, hi)
        warm = np.clip(np.log(np.full((2, 2), 0.5)), lo, hi)
        _, j_solver = _sparse_descent(warm, l_xy, log_t, alpha, lo, hi, 1e-15, 200000)
        # Never worse than the coarse exhaustive sweep, and equal to the
        # refined exhaustive optimum within the stated tolerance.
        assert j_solver <= j_coarse + 1e-12
        assert abs(j_solver - j_fine) <= SPARSE_TOL
