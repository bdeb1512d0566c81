"""Discrete probability primitives: validated distribution types, the
entropy kernels the solver, the baselines and the public measures share
(no other module reduces ``_plogp``), and the measures built on them.

Conventions used throughout:

* conditional distributions are column-stochastic matrices, entry (i, j)
  holding P(out_i | cond_j);
* all information quantities are computed in nats, conversion to bits
  happens only at reporting boundaries (``NATS_TO_BITS``);
* ``0 * log 0 == 0`` for entropies, while probabilities feeding an
  optimization step are floored at ``LOG_CLAMP`` before any log.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

# Tolerance accepted as exactly stochastic on construction.
STOCHASTIC_ATOL = 1e-12
# Constructors repair (renormalize) drift up to this and reject anything worse.
REPAIR_ATOL = 1e-9
# Floor applied to probabilities before logs on optimization paths.
LOG_CLAMP = 1e-12

LN2 = math.log(2.0)
NATS_TO_BITS = 1.0 / LN2


class InvalidDistributionError(ValueError):
    """Raised when an input fails non-negativity or normalization checks."""


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise InvalidDistributionError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistributionError(f"{name} has non-finite entries")
    if np.any(arr < -REPAIR_ATOL):
        raise InvalidDistributionError(f"{name} has negative entries")
    np.clip(arr, 0.0, None, out=arr)
    return arr


def _normalize(arr: np.ndarray, sums, name: str) -> np.ndarray:
    err = np.max(np.abs(sums - 1.0))
    if err > REPAIR_ATOL:
        raise InvalidDistributionError(f"{name} sums off by {err:.3e} (max repairable {REPAIR_ATOL:.0e})")
    if err > STOCHASTIC_ATOL:
        arr = arr / sums
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.probs, "probs")
        if arr.ndim != 1:
            raise InvalidDistributionError("probs must be a vector")
        arr = _normalize(arr, arr.sum(), "probs")
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    def uniform(n: int) -> "DiscreteDist":
        return DiscreteDist(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class CondDist:
    """Column-stochastic conditional distribution.

    ``matrix[i, j] = P(out_i | cond_j)``; every column sums to one.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.matrix, "matrix")
        if arr.ndim != 2:
            raise InvalidDistributionError("matrix must be 2-D")
        arr = _normalize(arr, arr.sum(axis=0, keepdims=True), "matrix columns")
        object.__setattr__(self, "matrix", arr)

    @property
    def n_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cond(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def identity(n: int) -> "CondDist":
        return CondDist(np.eye(n))


@dataclass(frozen=True, eq=False)
class JointXY:
    """Known joint source: marginal over X plus the channel P(Y|X).

    The derived marginal over Y may have zero entries: such a symbol y
    never occurs, and every quantity weights it by P(y) = 0 (see
    ``bayes_invert``).
    """

    p_x: DiscreteDist
    y_given_x: CondDist

    def __post_init__(self):
        if self.y_given_x.n_cond != self.p_x.n:
            raise InvalidDistributionError(
                f"channel conditions on {self.y_given_x.n_cond} symbols, marginal has {self.p_x.n}"
            )

    @property
    def n_x(self) -> int:
        return self.p_x.n

    @property
    def n_y(self) -> int:
        return self.y_given_x.n_out

    @functools.cached_property
    def p_y(self) -> DiscreteDist:
        # Computed once: the source is immutable.
        return DiscreteDist(self.y_given_x.matrix @ self.p_x.probs)

    def joint_matrix(self) -> np.ndarray:
        """Joint pmf as an (|X|, |Y|) array, entry (x, y) = P(x, y)."""
        return (self.y_given_x.matrix * self.p_x.probs[None, :]).T

    @staticmethod
    def from_joint_matrix(pxy) -> "JointXY":
        """Build from a joint pmf array of shape (|X|, |Y|).

        A zero row is a symbol x with P(x) = 0, which has no channel
        column; it gets P(Y|X=x) := P(Y), the convention ``bayes_invert``
        follows for P(y) = 0, and every quantity weights it by P(x) = 0.
        """
        pxy = _frozen_array(pxy, "joint matrix")
        if pxy.ndim != 2:
            raise InvalidDistributionError("joint matrix must be 2-D")
        total = pxy.sum()
        if abs(total - 1.0) > REPAIR_ATOL:
            raise InvalidDistributionError(f"joint matrix sums to {total!r}")
        pxy = pxy / total
        p_x = pxy.sum(axis=1)
        unused = p_x <= 0.0
        channel = (pxy / np.where(unused, 1.0, p_x)[:, None]).T
        channel[:, unused] = pxy.sum(axis=0)[:, None]
        return JointXY(DiscreteDist(p_x), CondDist(channel))


@dataclass(frozen=True, eq=False)
class Encoder(CondDist):
    """Stochastic code assignment P(Z|X), the solvers' decision variable:
    a ``CondDist`` built as ``Encoder(m)``, codes z as rows and public
    symbols x as columns."""

    @property
    def card_z(self) -> int:
        return self.n_out

    @property
    def n_x(self) -> int:
        return self.n_cond

    @staticmethod
    def uniform(card_z: int, n_x: int) -> "Encoder":
        return Encoder(np.full((card_z, n_x), 1.0 / card_z))

    @staticmethod
    def identity(n: int) -> "Encoder":
        return Encoder(np.eye(n))


def random_encoder(rng: np.random.Generator, card_z: int, n_x: int) -> Encoder:
    """Random start: uniform [0, 1] entries, columns normalized."""
    m = rng.random((card_z, n_x))
    m /= m.sum(axis=0, keepdims=True)
    return Encoder(m)


def random_interior_encoder(rng: np.random.Generator, card_z: int, n_x: int) -> Encoder:
    """Random encoder bounded away from the simplex boundary.

    Entries are drawn uniformly from [0.05, 1] before normalization so
    finite-difference probes stay inside the domain.
    """
    m = rng.uniform(0.05, 1.0, size=(card_z, n_x))
    m /= m.sum(axis=0, keepdims=True)
    return Encoder(m)


def _plogp(a: np.ndarray) -> np.ndarray:
    """Entrywise ``a * log(a)``, with 0 for zero cells, in the memory
    layout of ``a`` (sums over it then run in the same order). The one
    entropy kernel of the package."""
    # np.zeros is the cheaper call and gives the same layout for C-ordered input.
    out = np.zeros(a.shape, a.dtype) if a.flags.c_contiguous else np.zeros_like(a)
    np.log(a, out=out, where=a > 0.0)
    out *= a
    return out


def _neg_plogp_sum(a: np.ndarray) -> float:
    """``-sum a log a`` over every entry: the entropy of a pmf, unclamped."""
    return -float(np.add.reduce(_plogp(a), axis=None))


def _col_entropies(m: np.ndarray) -> np.ndarray:
    """Entropy of every column of ``m``, per item of a ``(B, k, n)`` stack."""
    return -np.add.reduce(_plogp(m), axis=-2)


def _entropies(p: np.ndarray) -> np.ndarray:
    """Entropy of each pmf along the last axis of ``p``, clamped at 0."""
    h = -np.add.reduce(_plogp(p), axis=-1)
    return np.where(h < 0.0, 0.0, h)   # max(h, 0.0): keeps -0.0, as max does


def entropy_nats(probs: np.ndarray) -> float:
    """Shannon entropy of a raw probability vector, 0*log(0) = 0."""
    return float(_entropies(np.asarray(probs, dtype=float)))


def entropy(d: DiscreteDist) -> float:
    """Entropy in nats."""
    return entropy_nats(d.probs)


def mutual_information(marginal_cond: CondDist, cond_on: DiscreteDist) -> float:
    """I(out; cond) in nats for a channel and the distribution it conditions on.

    Computed as H(out marginal) minus the average column entropy; may be
    a hair below zero (>= -1e-12) through floating point cancellation.
    """
    if cond_on.n != marginal_cond.n_cond:
        raise InvalidDistributionError(
            f"conditioning alphabet mismatch: {cond_on.n} vs {marginal_cond.n_cond}"
        )
    w = cond_on.probs
    return entropy_nats(marginal_cond.matrix @ w) - float(_col_entropies(marginal_cond.matrix) @ w)


def markov_compose(enc: Encoder, x_given_y: CondDist) -> CondDist:
    """Chain the encoder through P(X|Y): P(z|y) = sum_x P(z|x) P(x|y)."""
    if enc.n_x != x_given_y.n_out:
        raise InvalidDistributionError(
            f"encoder conditions on {enc.n_x} symbols, P(X|Y) outputs {x_given_y.n_out}"
        )
    return CondDist(enc.matrix @ x_given_y.matrix)


def bayes_invert(j: JointXY) -> CondDist:
    """Posterior channel P(X|Y) obtained by Bayes rule from P(Y|X) and p_X.

    A symbol y with P(y) = 0 has no posterior; its column is set to P(X),
    which keeps the channel column-stochastic, and every quantity built
    on it weights that column by P(y) = 0.
    """
    p_y = j.p_y.probs
    unused = p_y <= 0.0
    joint_yx = j.y_given_x.matrix * j.p_x.probs[None, :]
    post = joint_yx.T / np.where(unused, 1.0, p_y)[None, :]
    post[:, unused] = j.p_x.probs[:, None]
    return CondDist(post)


def _numbers(values, name: str) -> np.ndarray:
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDistributionError(f"{name} has an entry that is not a number: {exc}") from exc


def joint_from_dict(payload: dict) -> JointXY:
    """Parse the JSON object format: ``{"p_x": [...], "p_y_given_x": [[...], ...]}``.

    ``p_y_given_x`` is a list of |Y| rows of |X| entries, row i column j
    holding P(y_i | x_j). Validation is strict: shape errors and
    normalization drift beyond repair tolerance are rejected.
    """
    try:
        p_x = payload["p_x"]
        rows = payload["p_y_given_x"]
    except (TypeError, KeyError) as exc:
        raise InvalidDistributionError(f"missing field in joint distribution object: {exc}") from exc
    # As objects, ragged rows make a vector of lists instead of failing.
    if np.array(rows, dtype=object).ndim != 2:
        raise InvalidDistributionError("p_y_given_x must be a matrix (list of equal-length rows)")
    p_x, matrix = _numbers(p_x, "p_x"), _numbers(rows, "p_y_given_x")
    if p_x.ndim != 1:
        raise InvalidDistributionError("p_x must be a list of numbers")
    if matrix.shape[1] != p_x.size:
        raise InvalidDistributionError(
            f"p_y_given_x rows have {matrix.shape[1]} entries, p_x has {p_x.size}"
        )
    return JointXY(DiscreteDist(p_x), CondDist(matrix))


def joint_to_dict(j: JointXY) -> dict:
    return {"p_x": j.p_x.probs.tolist(), "p_y_given_x": j.y_given_x.matrix.tolist()}


def load_joint(path) -> JointXY:
    """Load a joint distribution JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidDistributionError(f"not valid JSON: {exc}") from exc
    return joint_from_dict(payload)
