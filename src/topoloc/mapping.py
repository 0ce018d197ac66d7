"""The place graph: subsampled reference frames plus a banded relative-pose table.

A map holds ``N`` ordered nodes.  Node ``i`` stores the reference descriptor
taken at its frame; the band stores the relative pose from node ``i`` to
node ``j`` for every ``j`` with ``0 <= j - i < window``, accumulated from
odometry.  The directed edge set used by the motion model is exactly
``{i -> j : j > i, j - i < window}``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DataError
from .geometry import compose_poses, segment_directions, translation_norms, wrap_angle
from .traverse import Traverse


class TopometricMap:
    """Ordered nodes with descriptors and a banded relative-pose table.

    Parameters
    ----------
    descriptors : ndarray, shape (N, d), float32
        Per-node appearance descriptors.
    band : ndarray, shape (N, window, 3), float64
        ``band[i, k]`` is the relative pose from node ``i`` to node ``i + k``;
        entries beyond the last node hold NaN.  ``band[i, 0]`` is identity.
    node_spacing : float
        Nominal metric spacing between consecutive nodes.
    gt_poses : ndarray of shape (N, 3), optional
        Global node poses, used only by evaluation.
    frame_indices : list of int, optional
        Reference-traverse frame index each node was taken from.
    """

    def __init__(
        self,
        descriptors: np.ndarray,
        band: np.ndarray,
        node_spacing: float,
        gt_poses: np.ndarray | None = None,
        frame_indices: list[int] | None = None,
    ):
        descriptors = np.asarray(descriptors, dtype=np.float32)
        band = np.asarray(band, dtype=float)
        if descriptors.ndim != 2 or descriptors.shape[0] == 0:
            raise DataError("descriptors must be a non-empty (N, d) matrix")
        n = descriptors.shape[0]
        if band.ndim != 3 or band.shape[0] != n or band.shape[2] != 3:
            raise DataError("band must have shape (N, window, 3)")
        window = band.shape[1]
        if window < 2:
            raise DataError("window must be at least 2")
        if not float(node_spacing) > 0.0:
            raise DataError("node_spacing must be positive")
        if np.abs(band[:, 0, :]).max() > 0.0:
            raise DataError("band[i, 0] must be the identity pose")
        valid = ~np.isnan(band[:, :, 0])
        idx = np.arange(n)[:, None] + np.arange(window)[None, :]
        expect_valid = idx <= n - 1
        if not np.array_equal(valid, expect_valid):
            raise DataError("band validity must match the in-range edge set")
        if gt_poses is not None:
            gt_poses = np.asarray(gt_poses, dtype=float)
            if gt_poses.shape != (n, 3):
                raise DataError("gt_poses must have shape (N, 3)")
            gt_poses = gt_poses.copy()
            gt_poses.setflags(write=False)
        descriptors = descriptors.copy()
        descriptors.setflags(write=False)
        band = band.copy()
        band.setflags(write=False)

        self.descriptors = descriptors
        self.band = band
        self.node_spacing = float(node_spacing)
        self.window = window
        self.gt_poses = gt_poses
        self.frame_indices = list(frame_indices) if frame_indices is not None else None

    @property
    def n_nodes(self) -> int:
        return self.descriptors.shape[0]

    @property
    def descriptor_dim(self) -> int:
        return self.descriptors.shape[1]

    @cached_property
    def descriptors_f64(self) -> np.ndarray:
        """Float64 view of the descriptors, cached for distance computations."""
        out = self.descriptors.astype(np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def descriptor_sq_norms(self) -> np.ndarray:
        """``||z_v||^2`` of each node's float64 descriptor, cached for distance products."""
        d = self.descriptors_f64
        out = np.einsum("ij,ij->i", d, d)
        out.setflags(write=False)
        return out

    @cached_property
    def edge_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Map-only inputs of the motion model, computed once per map.

        The edge ``i -> j`` is scored against the trajectory segment between
        the midpoints toward the predecessor and successor of ``j`` as seen
        from ``i``: from the midpoint of the band poses ``i -> j-1`` and
        ``i -> j`` (identity for ``j = i + 1``) to the midpoint of ``i -> j``
        and ``i -> j+1``, or to ``i -> j`` itself when ``j + 1`` falls outside
        the map or the band.  Midpoint angles average the short way round.

        Returns ``(starts, u, degenerate, valid)``: the segment starts and
        wrapped directions as contiguous ``(3, (window-1) * N + 1)`` arrays,
        whose column ``(k-1) * N + i`` is edge ``i -> i + k`` (zero where the
        edge does not exist) and whose last column is the final node's
        stay-in-place hypothesis, a degenerate segment at the identity pose;
        their degenerate mask; and the ``(window, N)`` edge mask of a
        transition model, where slot ``[k, i]`` covers ``i -> i + k`` and
        offset 0 holds only the final node's self-transition.
        """
        n, w, band = self.n_nodes, self.window, self.band
        starts = np.zeros((3, (w - 1) * n + 1))
        ends = np.zeros_like(starts)
        valid = np.zeros((w, n), dtype=bool)
        valid[0, n - 1] = True
        for k in range(1, min(w, n)):
            rows = n - k  # edges i -> i + k that stay on the map
            cur = band[:rows, k]
            hi = cur.copy()
            if k + 1 < w:
                hi[: rows - 1] = _mean_pose_rows(cur[: rows - 1], band[: rows - 1, k + 1])
            cols = slice((k - 1) * n, (k - 1) * n + rows)
            starts[:, cols] = _mean_pose_rows(band[:rows, k - 1], cur).T
            ends[:, cols] = hi.T
            valid[k, :rows] = True
        u, degenerate = segment_directions(starts, ends)
        for arr in (starts, u, degenerate, valid):
            arr.setflags(write=False)
        return starts, u, degenerate, valid

    @cached_property
    def edge_features(self) -> tuple[np.ndarray, float]:
        """Map-only rows of ``motion``'s expanded segment kernel, and the largest ``|l_theta|``.

        The ``(29, K+1)`` rows over :attr:`edge_geometry`'s columns, for start ``l``,
        direction ``u`` (0 where degenerate) and ``(i, j)`` in ``np.triu_indices(3)``:
        ``u_i u_j``, the degenerate mask, ``u_i``, ``u_i l_j`` (all nine), 1, ``l_i``, ``l_i l_j``.
        """
        starts, u, degenerate, _ = self.edge_geometry
        u = np.where(degenerate, 0.0, u)
        ii, jj = np.triu_indices(3)
        uu, ul, ll = u[ii] * u[jj], (u[:, None] * starts).reshape(9, -1), starts[ii] * starts[jj]
        rows = np.concatenate([uu, degenerate[None], u, ul, np.ones_like(u[:1]), starts, ll])
        rows.setflags(write=False)
        return rows, float(np.abs(starts[2]).max())


def _mean_pose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise pose midpoint with angle averaging on unwrapped representatives."""
    out = 0.5 * (a + b)
    out[:, 2] = a[:, 2] + 0.5 * wrap_angle(b[:, 2] - a[:, 2])
    return out


def build_map(reference: Traverse, node_spacing: float, window: int) -> TopometricMap:
    """Build a map by greedy spatial subsampling of a reference traverse.

    The first frame always becomes node 0.  Walking forward, a frame becomes
    the next node as soon as the odometry translation accumulated since the
    previous node reaches ``node_spacing``.  The relative-pose band is then
    accumulated by composing the odometry means between selected frames.

    Raises
    ------
    DataError
        If the traverse yields fewer than two nodes (shorter than one
        spacing interval), or parameters are invalid.
    """
    if not float(node_spacing) > 0.0:
        raise DataError("node_spacing must be positive")
    if int(window) < 2:
        raise DataError("window must be at least 2")
    window = int(window)

    selected = [0]
    acc = 0.0
    for t, step in enumerate(translation_norms(reference.odom_means).tolist(), 1):
        acc += step
        if acc >= node_spacing:
            selected.append(t)
            acc = 0.0
    if len(selected) < 2:
        raise DataError(
            "reference traverse is shorter than one node spacing interval"
        )

    # relative pose between consecutive selected frames: compose the
    # odometry means in between, for every interval at once
    n = len(selected)
    first = np.array(selected[:-1])
    length = np.diff(selected)
    steps = np.zeros((n - 1, 3))
    for j in range(length.max()):
        live = length > j
        steps[live] = compose_poses(steps[live], reference.odom_means[first[live] + j])

    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    acc_pose = np.zeros((n, 3))
    for k in range(1, min(window, n)):
        rows = n - k
        acc_pose[:rows] = compose_poses(acc_pose[:rows], steps[k - 1 : k - 1 + rows])
        band[:rows, k] = acc_pose[:rows]

    descriptors = reference.descriptors[selected]
    gt = reference.gt_poses[selected] if reference.has_gt else None
    return TopometricMap(
        descriptors,
        band,
        node_spacing=float(node_spacing),
        gt_poses=gt,
        frame_indices=selected,
    )
