"""Deterministic-clustering baselines.

The compared family of solvers restricts encoders to hard cluster
assignments P(z|x) = 1{x in z}. Two views of that feasible set are
provided: a greedy pairwise-merge trajectory (merge the pair whose
merged clustering has least Lagrangian) and exhaustive enumeration of
every set partition, which is an exact oracle for small |X|.
"""

from dataclasses import dataclass

import numpy as np

from .dca import _finite_positive, stationarity_gap
from .probability import (
    NATS_TO_BITS,
    CondDist,
    Encoder,
    JointXY,
    bayes_invert,
    markov_compose,
    mutual_information,
)
from .sweep import Solver, TradeoffPoint

EXHAUSTIVE_MAX_SYMBOLS = 12


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
    return Encoder(CondDist(m))


def _information(enc: Encoder, j: JointXY, pxcy: CondDist) -> tuple:
    """(I(Z;Y), I(Z;X)) in nats of an encoder, with ``pxcy`` = P(X|Y) of ``j``."""
    return (
        mutual_information(markov_compose(enc, pxcy), j.p_y),
        mutual_information(enc.z_given_x, j.p_x),
    )


def _point(
    j: JointXY, pxcy: CondDist, c: HardClustering, beta: float, solver: Solver, iterations: int
) -> TradeoffPoint:
    enc = clustering_to_encoder(c)
    i_zy, i_zx = _information(enc, j, pxcy)
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


def _merge(c: HardClustering, a: int, b: int) -> HardClustering:
    """Merge cluster b into cluster a (a < b), relabelling contiguously."""
    merged = [a if v == b else v for v in c.assignment]
    return HardClustering(tuple(v - 1 if v > b else v for v in merged))


def greedy_merge_run(j: JointXY, beta: float) -> list:
    """Greedy agglomerative trajectory from singletons down to one cluster.

    At each step every cluster pair is tried and the merge with minimal
    Lagrangian loss is applied; ties break on the lexicographically
    smallest pair. One point is recorded per clustering, including the
    all-singletons start, so the trajectory has |X| points.
    """
    if not _finite_positive(beta):
        raise ValueError("beta must be finite and positive")
    pxcy = bayes_invert(j)
    current = HardClustering(tuple(range(j.n_x)))
    points = [_point(j, pxcy, current, beta, Solver.GREEDY, 0)]
    step = 0
    while current.n_clusters > 1:
        step += 1
        best = None
        k = current.n_clusters
        for a in range(k):
            for b in range(a + 1, k):
                cand = _merge(current, a, b)
                i_zy, i_zx = _information(clustering_to_encoder(cand), j, pxcy)
                loss = i_zy - beta * i_zx
                if best is None or loss < best[0]:
                    best = (loss, a, b, cand)
        current = best[3]
        points.append(_point(j, pxcy, current, beta, Solver.GREEDY, step))
    return points


def iter_partitions(n: int):
    """All set partitions of range(n) as contiguous cluster-id tuples."""
    assignment = [0] * n

    def rec(i: int, k: int):
        if i == n:
            yield tuple(assignment)
            return
        for c in range(k + 1):
            assignment[i] = c
            yield from rec(i + 1, max(k, c + 1))

    yield from rec(1, 1) if n > 0 else iter(())


def exhaustive_partitions(j: JointXY, beta: float = 1.0) -> list:
    """Trade-off points of every deterministic clustering of X.

    Guarded by the Bell-number growth: |X| above
    ``EXHAUSTIVE_MAX_SYMBOLS`` is rejected.
    """
    if not _finite_positive(beta):
        raise ValueError("beta must be finite and positive")
    if j.n_x > EXHAUSTIVE_MAX_SYMBOLS:
        raise ValueError(
            f"|X|={j.n_x} exceeds exhaustive enumeration guard ({EXHAUSTIVE_MAX_SYMBOLS})"
        )
    pxcy = bayes_invert(j)
    return [
        _point(j, pxcy, HardClustering(assignment), beta, Solver.EXHAUSTIVE, idx)
        for idx, assignment in enumerate(iter_partitions(j.n_x))
    ]
