"""Deterministic-clustering baselines.

The compared family of solvers restricts encoders to hard cluster
assignments P(z|x) = 1{x in z}. Two views of that feasible set are
provided: a greedy pairwise-merge trajectory (merge the pair whose
merged clustering has least Lagrangian) and exhaustive enumeration of
every set partition, which is an exact oracle for small |X|.

A clustering is an integer row holding the cluster id, 0..k-1, of each
x symbol; a greedy level is the array of its candidate merges, and the
set partitions are rows in lexicographic order. Clusterings are scored
in stacks, the way the solver scores an encoder: every clustering with
the same cluster count k (one greedy merge level, or one k of the set
partitions) is k rows of a one-hot matrix, and each block of ``_BLOCK``
items takes one product with ``[p(x) | P(x|y)]``, the first 1 + |Y|
columns of the solver's problem stack (built once per source), and one
column-entropy pass. A one-hot column has H(Z|x) = 0, so the stack's
identity block is left out. Every point is the same, bit for bit, as
scoring its clustering alone, and its loss is ``pf_lagrangian`` of its
one-hot encoder to rounding. The stationarity residual of a one-hot
encoder is 0 by construction (each column has one supported code), so
it is written, not computed. ``exhaustive_points`` makes its points one
at a time, so a caller that writes them as they come holds only the
score arrays, not Bell(|X|) points.
"""

import numpy as np

# stationarity_gap, bayes_invert and mutual_information are not called
# here: the benchmark's tracer binds them in this module.
from .dca import _check_beta, _Problem, stationarity_gap  # noqa: F401
from .probability import (  # noqa: F401
    NATS_TO_BITS,
    JointXY,
    _col_entropies,
    bayes_invert,
    mutual_information,
)
from .sweep import Solver, TradeoffPoint

EXHAUSTIVE_MAX_SYMBOLS = 12
# Clusterings per stacked evaluation: bounds the float working arrays
# (a (block * k, |X|) one-hot matrix and its product) for any |X|.
_BLOCK = 512


class ExhaustiveGuardError(ValueError):
    """|X| is above the exhaustive enumeration guard."""


def _scores(assignments: np.ndarray, k: int, prob: _Problem) -> tuple:
    """(I(Z;Y), I(Z;X)) in nats of each row of ``assignments``, a clustering
    of X into k clusters, on the source of ``prob``.

    Per item, the column entropies of ``V @ [p(x) | P(x|y)]`` are H(Z),
    then H(Z|y) per y. A one-hot column has zero entropy, so I(Z;X) =
    H(Z). H(Z) and I(Z;Y) are floored at 0, so that one cluster reads 0,
    not -1e-16.
    """
    i_zy, i_zx = np.empty(len(assignments)), np.empty(len(assignments))
    n_x, n_c = len(prob.px), 1 + len(prob.py)
    for lo in range(0, len(assignments), _BLOCK):
        block = assignments[lo:lo + _BLOCK]
        V = np.zeros((len(block) * k, n_x))
        V[np.arange(len(block))[:, None] * k + block, np.arange(n_x)] = 1.0
        h = _col_entropies((V @ prob.stack[:, :n_c]).reshape(len(block), k, n_c))
        hz = np.where(h[:, 0] < 0.0, 0.0, h[:, 0])   # max(h, 0.0): keeps -0.0, as max does
        # (B, 1, |Y|) @ (|Y|,) is one dot per item, as for a single encoder.
        izy = hz - (h[:, None, 1:] @ prob.py)[:, 0]
        i_zy[lo:lo + _BLOCK] = np.where(izy < 0.0, 0.0, izy)
        i_zx[lo:lo + _BLOCK] = hz
    return i_zy, i_zx


def _point(
    solver: Solver, beta: float, card_z: int, iterations: int, i_zy: float, i_zx: float
) -> TradeoffPoint:
    """The trade-off point of one clustering, from its I(Z;Y) and I(Z;X) in nats."""
    # Positional, in TradeoffPoint's field order: alpha, restart and seed are 0.
    return TradeoffPoint(
        solver, beta, 0.0, card_z, 0, 0, i_zx * NATS_TO_BITS, i_zy * NATS_TO_BITS,
        i_zy - beta * i_zx, True, iterations, 0.0,
    )


def greedy_merge_run(j: JointXY, beta: float) -> list:
    """Greedy agglomerative trajectory from singletons down to one cluster.

    At each step every cluster pair is tried and the merge with minimal
    Lagrangian loss is applied; ties break on the lexicographically
    smallest pair. One point is recorded per clustering, including the
    all-singletons start, so the trajectory has |X| points.
    """
    _check_beta(beta)
    prob = _Problem.build(j)
    current = np.arange(j.n_x)
    (i_zy,), (i_zx,) = _scores(current[None], j.n_x, prob)
    points = [_point(Solver.GREEDY, beta, j.n_x, 0, float(i_zy), float(i_zx))]
    for step in range(1, j.n_x):
        k = j.n_x - step + 1
        # Row p merges cluster b[p] into a[p] < b[p] and relabels the
        # clusters above b[p] down by one; the pairs run in lexicographic order.
        a, b = (ab[:, None] for ab in np.triu_indices(k, 1))
        cands = np.where(current == b, a, current)
        cands -= cands > b
        i_zy, i_zx = _scores(cands, k - 1, prob)
        best = int(np.argmin(i_zy - beta * i_zx))   # the first minimum: smallest pair
        current = cands[best]
        points.append(_point(Solver.GREEDY, beta, k - 1, step, float(i_zy[best]), float(i_zx[best])))
    return points


def _partition_array(n: int) -> np.ndarray:
    """Every set partition of range(n) as a row of contiguous cluster
    ids, in lexicographic order.

    Built one symbol at a time: a row whose symbols so far use m
    clusters has m + 1 children, which put the next symbol in cluster
    0..m, in that order.
    """
    parts = np.zeros((1 if n else 0, n), np.int8)
    used = np.ones(len(parts), int)
    for i in range(1, n):
        kids = used + 1
        rows = np.repeat(np.arange(len(parts)), kids)
        c = np.arange(len(rows)) - (np.cumsum(kids) - kids)[rows]
        parts = parts[rows]
        parts[:, i] = c
        used = np.maximum(used[rows], c + 1)
    return parts


def iter_partitions(n: int):
    """All set partitions of range(n) as contiguous cluster-id tuples,
    in lexicographic order."""
    return map(tuple, _partition_array(n).tolist())


def exhaustive_points(j: JointXY, beta: float = 1.0):
    """Trade-off points of every deterministic clustering of X, in the
    order of ``iter_partitions``, made one at a time as they are read.

    beta and the guard are checked before this returns: |X| above
    ``EXHAUSTIVE_MAX_SYMBOLS`` (Bell-number growth) raises
    ``ExhaustiveGuardError``.
    """
    _check_beta(beta)
    if j.n_x > EXHAUSTIVE_MAX_SYMBOLS:
        raise ExhaustiveGuardError(
            f"|X|={j.n_x} exceeds exhaustive enumeration guard ({EXHAUSTIVE_MAX_SYMBOLS})"
        )
    prob = _Problem.build(j)
    parts = _partition_array(j.n_x)
    card = parts.max(axis=1) + 1
    i_zy, i_zx = np.empty(len(parts)), np.empty(len(parts))
    for k in range(1, j.n_x + 1):
        rows = np.flatnonzero(card == k)
        i_zy[rows], i_zx[rows] = _scores(parts[rows], k, prob)
    # Python numbers are made one block at a time, as the points are read.
    return (
        _point(Solver.EXHAUSTIVE, beta, k, idx, zy, zx)
        for lo in range(0, len(parts), _BLOCK)
        for idx, k, zy, zx in zip(range(lo, len(parts)), *(a[lo:lo + _BLOCK].tolist() for a in (card, i_zy, i_zx)))
    )


def exhaustive_partitions(j: JointXY, beta: float = 1.0) -> list:
    """``exhaustive_points`` as a list."""
    return list(exhaustive_points(j, beta))
