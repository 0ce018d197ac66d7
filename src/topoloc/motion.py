"""Odometry-conditioned transition model over the place graph plus off-map state.

For each node ``i`` the banded edges ``i -> j`` (``j > i``, ``j - i <
window``) are scored by how well the measured odometry step fits the
trajectory segment associated with the edge: the minimum squared Mahalanobis
distance ``d2`` between the odometry mean and the segment, weighted by the
odometry covariance.  Within-map transition probabilities are the softmax of
``-d2 / 2`` over the node's edges, scaled by the mass kept on the map; the
transition into the off-map state is the chi-squared (3 dof) CDF of the best
``d2``, i.e. the probability that even the best edge is a worse fit than
chance.

The off-map state has a constant self-transition ``off_self``; the remaining
mass re-enters the map uniformly.  The final node, which has no outgoing
edges, keeps a self-transition scored against the stay-in-place hypothesis.

Modes
-----
``full``     odometry-conditioned transitions with the off-map state,
``no_off``   same transitions but all mass forced to stay on the map,
``no_odom``  odometry ignored: uniform within-edge transitions and a small
             constant off-map transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    OdometryStep,
    Pose2,
    chi2_cdf_3,
    mahalanobis_sq,
    min_mahalanobis_on_directed_segments,
)
from .mapping import TopometricMap

__all__ = [
    "MOTION_MODES",
    "MotionParams",
    "OdometryStep",
    "TransitionModel",
    "build_transition_model",
]

MOTION_MODES = ("full", "no_off", "no_odom")


@dataclass(frozen=True, slots=True)
class MotionParams:
    """Motion-model configuration.

    ``off_self`` is the off-map self-transition probability; ``no_odom_off``
    is the constant off-map transition used when odometry is ignored.
    """

    off_self: float = 0.9
    mode: str = "full"
    no_odom_off: float = 0.01

    def __post_init__(self):
        if self.mode not in MOTION_MODES:
            raise ValueError(
                f"mode must be one of {MOTION_MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.off_self < 1.0:
            raise ValueError("off_self must lie in [0, 1)")
        if not 0.0 <= self.no_odom_off < 1.0:
            raise ValueError("no_odom_off must lie in [0, 1)")


class TransitionModel:
    """One step's banded transition structure over ``N`` nodes plus off-map.

    Storage is by diagonal offset: ``within_probs[k, i]`` is the probability
    of ``i -> i + k`` (offset 0 exists only as the final node's
    self-transition), ``to_off[i]`` the probability of ``i -> off``.  The
    off-map row is ``off_self`` on itself and uniform ``(1 - off_self) / N``
    into each node; see :meth:`off_out`.  Rows must sum to one within 1e-9.

    The dense matrix is never materialized outside :meth:`to_dense` (a test
    and debugging aid); propagation touches only the stored O(N * window)
    entries.
    """

    def __init__(
        self,
        within_probs: np.ndarray,
        to_off: np.ndarray,
        off_self: float,
        valid: np.ndarray,
    ):
        within_probs = np.asarray(within_probs, dtype=float)
        to_off = np.asarray(to_off, dtype=float)
        valid = np.asarray(valid, dtype=bool)
        if within_probs.ndim != 2:
            raise ValueError("within_probs must be (window, N)")
        w, n = within_probs.shape
        if w < 1 or n < 1:
            raise ValueError("within_probs must be non-empty")
        if to_off.shape != (n,) or valid.shape != (w, n):
            raise ValueError("shape mismatch between within_probs, to_off, valid")
        if not 0.0 <= float(off_self) <= 1.0:
            raise ValueError("off_self must lie in [0, 1]")
        if np.any(within_probs[~valid] != 0.0):
            raise ValueError("probabilities outside the edge set must be zero")
        if within_probs.min() < -1e-12 or to_off.min() < -1e-12:
            raise ValueError("negative transition probability")
        row_sums = within_probs.sum(axis=0) + to_off
        if np.abs(row_sums - 1.0).max() > 1e-9:
            raise ValueError("transition rows must sum to 1 within 1e-9")
        self.within_probs = within_probs
        self.to_off = to_off
        self.off_self = float(off_self)
        self.valid = valid
        self.n_nodes = n
        self.window = w
        for arr in (self.within_probs, self.to_off, self.valid):
            arr.setflags(write=False)

    @property
    def off_out(self) -> float:
        """Per-node probability of leaving the off-map state into the map."""
        return (1.0 - self.off_self) / self.n_nodes

    def within(self, i: int) -> list[tuple[int, float]]:
        """Outgoing within-map transitions of node ``i`` as ``(j, prob)`` pairs."""
        if not 0 <= i < self.n_nodes:
            raise ValueError(f"node index {i} out of range")
        return [
            (i + k, float(self.within_probs[k, i]))
            for k in range(self.window)
            if self.valid[k, i]
        ]

    def propagate(self, alpha: np.ndarray) -> np.ndarray:
        """Row-vector product ``alpha @ E`` over the banded structure.

        ``alpha`` has length ``N + 1`` with the off-map entry last.
        """
        n = self.n_nodes
        if alpha.shape != (n + 1,):
            raise ValueError(f"alpha must have shape ({n + 1},)")
        pred = np.zeros(n + 1)
        within = alpha[:n]
        for k in range(min(self.window, n)):
            if k == 0:
                pred[:n] += within * self.within_probs[0]
            else:
                pred[k:n] += within[: n - k] * self.within_probs[k, : n - k]
        pred[:n] += alpha[n] * self.off_out
        pred[n] = within @ self.to_off + alpha[n] * self.off_self
        return pred

    def backpropagate(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``E @ v`` over the banded structure."""
        n = self.n_nodes
        if v.shape != (n + 1,):
            raise ValueError(f"v must have shape ({n + 1},)")
        out = np.zeros(n + 1)
        v_within = v[:n]
        for k in range(min(self.window, n)):
            if k == 0:
                out[:n] += self.within_probs[0] * v_within
            else:
                out[: n - k] += self.within_probs[k, : n - k] * v_within[k:]
        out[:n] += self.to_off * v[n]
        out[n] = self.off_self * v[n] + self.off_out * v_within.sum()
        return out

    def to_dense(self) -> np.ndarray:
        """Dense ``(N+1, N+1)`` matrix, for tests and small-scale debugging."""
        n = self.n_nodes
        dense = np.zeros((n + 1, n + 1))
        for k in range(self.window):
            for i in range(n - k if k else n):
                if self.valid[k, i]:
                    dense[i, i + k] = self.within_probs[k, i]
        dense[:n, n] = self.to_off
        dense[n, :n] = self.off_out
        dense[n, n] = self.off_self
        return dense


def build_transition_model(
    map_: TopometricMap, odom: OdometryStep | None, params: MotionParams
) -> TransitionModel:
    """Build one step's transition model for the whole map.

    ``odom`` may be ``None`` only in ``no_odom`` mode, where it is ignored.
    The final node, having no outgoing edges, is scored against the
    stay-in-place hypothesis (a degenerate segment at the identity pose) and
    keeps its within-map mass on itself.
    """
    n = map_.n_nodes
    starts, u, degenerate, valid = map_.edge_geometry

    if params.mode == "no_odom":
        to_off = np.full(n, params.no_odom_off)
        counts = valid.sum(axis=0)
        probs = np.where(valid, (1.0 - to_off)[None, :] / counts[None, :], 0.0)
        return TransitionModel(probs, to_off, params.off_self, valid)

    if odom is None:
        raise ValueError(f"mode {params.mode!r} requires an odometry step")

    d2, _ = min_mahalanobis_on_directed_segments(
        starts, u, degenerate, odom.mean, odom.cov
    )
    d2_all = np.full(valid.shape, np.inf)
    d2_all[1:] = np.where(valid[1:], d2.reshape(-1, n), np.inf)
    d2_all[0, n - 1] = mahalanobis_sq(Pose2.identity(), odom.mean, odom.cov)
    min_d2 = d2_all.min(axis=0)
    if params.mode == "no_off":
        to_off = np.zeros(n)
    else:
        to_off = chi2_cdf_3(min_d2)

    x = np.where(valid, -0.5 * d2_all, -np.inf)
    x = x - x.max(axis=0)[None, :]
    with np.errstate(under="ignore"):
        weights = np.where(valid, np.exp(x), 0.0)
    probs = weights / weights.sum(axis=0)[None, :] * (1.0 - to_off)[None, :]
    return TransitionModel(probs, to_off, params.off_self, valid)
