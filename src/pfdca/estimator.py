"""Scikit-learn style front end for the solver.

``DcaPrivacyFunnel`` is a dataclass whose fields are its parameters:
``card_z`` followed by the fields of ``DcaConfig``. It follows the
estimator protocol (``get_params`` / ``set_params`` / ``fit`` /
``transform`` / ``predict``) without depending on scikit-learn, so it
composes with tooling that clones and re-parameterizes estimators.
``fit`` consumes the joint pmf of the public and private variables and
passes the parameters to ``dca_run``; ``transform`` maps public symbols
to their code distributions under the fitted encoder, without the
private variable.

A later ``fit`` on an equal array (same shape, layout, dtype and bytes)
reuses the validated source and its problem, so ``joint_`` can be one
read-only object shared by several estimators.
"""

from dataclasses import dataclass, fields

import numpy as np

from .dca import DcaConfig, DcaResult, dca_run
from .probability import JointXY, _numbers


class NotFittedError(ValueError):
    """fit must be called before using the fitted encoder."""


# The key (shape, strides, dtype, bytes) of the last numeric array that
# validated, and its source, stored as one tuple so that concurrent fits
# never read a key with another array's source. The strides are in the
# key because a source is built in the array's memory order: C- and
# F-ordered arrays of one joint can build sources that differ in the last
# bits or in layout, and so fit a few ulps apart.
_last_source = (None, None)


def check_joint_matrix(X) -> JointXY:
    """A JointXY as is, or the source of a joint pmf array of shape (|X|, |Y|).

    A numeric ndarray equal to the last one that validated, in shape,
    layout, dtype and bytes, gets that array's JointXY back, so its
    problem and pseudo-inverse are built once. The key is the content,
    not the object: an array changed in place gets a new source.
    """
    global _last_source
    if isinstance(X, JointXY):
        return X
    if type(X) is not np.ndarray or X.dtype.kind not in "iuf":
        return JointXY.from_joint_matrix(X)
    key = (X.shape, X.strides, X.dtype.str, X.tobytes())
    last_key, joint = _last_source
    if key != last_key:
        joint = JointXY.from_joint_matrix(X)
        _last_source = key, joint
    return joint


def check_symbols(X, n_x: int) -> np.ndarray:
    """Normalize symbol input to row distributions over X.

    Accepts integer symbol indices of shape (n,) or row distributions
    (one-hot or soft) of shape (n, |X|). In either shape, numeric text
    and booleans are not numbers, as in distribution files.
    """
    arr = _numbers(X, "symbol input")
    if arr.ndim == 1:
        # A non-finite float has no integer.
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"symbol indices must be integers in [0, {n_x})")
        idx = arr.astype(int)
        if np.any(idx != arr) or idx.min(initial=0) < 0 or idx.max(initial=0) >= n_x:
            raise ValueError(f"symbol indices must be integers in [0, {n_x})")
        rows = np.zeros((idx.shape[0], n_x))
        rows[np.arange(idx.shape[0]), idx] = 1.0
        return rows
    if arr.ndim == 2 and arr.shape[1] == n_x:
        if not np.all(np.isfinite(arr) & (arr >= 0)):
            raise ValueError("row weights must be finite and non-negative")
        sums = arr.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise ValueError("every row needs positive total weight")
        return arr / sums
    raise ValueError(f"expected shape (n,) or (n, {n_x}), got {arr.shape}")


@dataclass(eq=False)
class DcaPrivacyFunnel:
    """Privacy-funnel encoder fitted by the difference-of-convex solver.

    The parameters are ``card_z``, the code alphabet size, followed by
    the fields of ``DcaConfig`` in its order and with its defaults;
    ``beta`` and ``alpha``, which ``DcaConfig`` requires, default to 1.
    ``inner_kind`` selects the ridge (``"ridge"``) or log-domain sparse
    (``"sparse_log"``) inner problem. After ``fit`` the learned
    column-stochastic encoder is available as ``encoder_`` with the
    achieved information-plane coordinates in bits.
    """

    card_z: int = 2
    beta: float = 1.0
    alpha: float = 1.0
    inner_kind: str = "ridge"
    seed: int = DcaConfig.seed

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "DcaPrivacyFunnel":
        valid = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for DcaPrivacyFunnel")
            setattr(self, name, value)
        return self

    def fit(self, X, y=None) -> "DcaPrivacyFunnel":
        """Solve for the encoder of the joint pmf ``X`` (shape (|X|, |Y|))."""
        joint = check_joint_matrix(X)
        rest = self.get_params()
        card_z = rest.pop("card_z")
        result: DcaResult = dca_run(joint, card_z, DcaConfig(**rest))
        self.joint_ = joint
        self.result_ = result
        self.encoder_ = result.encoder
        self.loss_trace_ = result.loss_trace
        self.converged_ = result.converged
        self.n_iter_ = result.iterations
        self.i_zx_bits_ = result.i_zx_bits
        self.i_zy_bits_ = result.i_zy_bits
        self.stationarity_gap_ = result.stationarity_gap
        return self

    def _require_fitted(self):
        if not hasattr(self, "encoder_"):
            raise NotFittedError("this DcaPrivacyFunnel instance is not fitted yet")

    def transform(self, X) -> np.ndarray:
        """Code distributions for public symbols: rows of P(Z|x)."""
        self._require_fitted()
        rows = check_symbols(X, self.encoder_.n_x)
        return rows @ self.encoder_.matrix.T

    def fit_transform(self, X, y=None) -> np.ndarray:
        """Fit, then return the codes of every public symbol."""
        self.fit(X, y)
        return self.transform(np.arange(self.encoder_.n_x))

    def predict(self, X) -> np.ndarray:
        """Most likely code symbol for each input symbol."""
        return np.argmax(self.transform(X), axis=1)

    def score(self, X=None, y=None) -> float:
        """Negative Lagrangian loss of the fitted encoder (higher is better)."""
        self._require_fitted()
        return -self.result_.loss_nats
