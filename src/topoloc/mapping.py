"""The place graph: subsampled reference frames plus a banded relative-pose table.

A map holds ``N`` ordered nodes.  Node ``i`` stores the reference descriptor
taken at its frame; the band stores the relative pose ``rel_pose(i, j)`` for
every ``j`` with ``0 <= j - i < window``, accumulated from odometry.  The
directed edge set used by the motion model is exactly ``{i -> j : j > i,
j - i < window}``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DataError
from .geometry import Pose2, compose, segment_directions, wrap_angle
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

    def rel_pose(self, i: int, j: int) -> Pose2:
        """Relative pose from node ``i`` to node ``j`` (``0 <= j - i < window``)."""
        self._check_node(i)
        self._check_node(j)
        k = j - i
        if k < 0 or k >= self.window:
            raise DataError(f"rel_pose({i}, {j}) is outside the stored band")
        return Pose2(*self.band[i, k])

    def segment_endpoints(self, i: int, j: int) -> tuple[Pose2, Pose2]:
        """Endpoints of the trajectory segment scored for the edge ``i -> j``.

        The segment runs between the midpoints toward the predecessor and
        successor of ``j`` as seen from ``i``:

        * low endpoint: midpoint of ``rel_pose(i, j-1)`` and ``rel_pose(i, j)``
          (for ``j = i + 1`` the predecessor is the identity pose);
        * high endpoint: midpoint of ``rel_pose(i, j)`` and
          ``rel_pose(i, j+1)``, or ``rel_pose(i, j)`` itself when ``j + 1``
          falls outside the map or the band.

        Angle averaging happens on unwrapped representatives.
        """
        self._check_node(i)
        self._check_node(j)
        k = j - i
        if k < 1 or k >= self.window:
            raise DataError(f"edge {i} -> {j} does not exist")
        lo_arr, hi_arr, valid = self.segment_table()
        if not valid[k - 1, i]:
            raise DataError(f"edge {i} -> {j} does not exist")
        return Pose2(*lo_arr[k - 1, i]), Pose2(*hi_arr[k - 1, i])

    @cached_property
    def _segment_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, w = self.n_nodes, self.window
        band = self.band
        lo = np.full((w - 1, n, 3), np.nan)
        hi = np.full((w - 1, n, 3), np.nan)
        valid = np.zeros((w - 1, n), dtype=bool)
        idx = np.arange(n)
        for k in range(1, w):
            ok = idx + k <= n - 1
            valid[k - 1] = ok
            cur = band[:, k, :]
            prev = band[:, k - 1, :]
            lo[k - 1] = _mean_pose_rows(prev, cur)
            # successor midpoint exists only while i + k + 1 stays on the map
            # and k + 1 stays inside the band
            if k + 1 < w:
                succ_ok = idx + k + 1 <= n - 1
                nxt = band[:, k + 1, :]
                mid = _mean_pose_rows(cur, nxt)
                hi[k - 1] = np.where(succ_ok[:, None], mid, cur)
            else:
                hi[k - 1] = cur
            lo[k - 1][~ok] = np.nan
            hi[k - 1][~ok] = np.nan
        lo.setflags(write=False)
        hi.setflags(write=False)
        valid.setflags(write=False)
        return lo, hi, valid

    def segment_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Precomputed segment endpoints for every banded edge.

        Returns ``(lo, hi, valid)`` with shapes ``(window-1, N, 3)`` twice and
        ``(window-1, N)``; slot ``[k-1, i]`` covers the edge ``i -> i + k``.
        Rows where ``valid`` is False hold NaN.
        """
        return self._segment_table

    @cached_property
    def edge_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Map-only inputs of the motion model, computed once per map.

        ``(starts, u, degenerate, valid)``: the segment starts and wrapped
        directions as contiguous ``(3, (window-1) * N + 1)`` arrays, whose
        column ``(k-1) * N + i`` is edge ``i -> i + k`` (NaN set to zero) and
        whose last column is the final node's stay-in-place hypothesis, a
        degenerate segment at the identity pose; their degenerate mask; and
        the ``(window, N)`` edge mask of a transition model, where slot
        ``[k, i]`` covers ``i -> i + k`` and offset 0 holds only the final
        node's self-transition.
        """
        lo, hi, seg_valid = self._segment_table
        n, w = self.n_nodes, self.window
        starts = np.zeros((3, (w - 1) * n + 1))
        ends = np.zeros_like(starts)
        starts[:, :-1] = np.nan_to_num(lo.reshape(-1, 3)).T
        ends[:, :-1] = np.nan_to_num(hi.reshape(-1, 3)).T
        u, degenerate = segment_directions(starts, ends)
        valid = np.zeros((w, n), dtype=bool)
        valid[0, n - 1] = True
        valid[1:, :] = seg_valid
        for arr in (starts, u, degenerate, valid):
            arr.setflags(write=False)
        return starts, u, degenerate, valid

    def _check_node(self, i: int):
        if not 0 <= i < self.n_nodes:
            raise DataError(f"node index {i} out of range [0, {self.n_nodes})")


def _mean_pose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise pose midpoint with angle averaging on unwrapped representatives."""
    out = 0.5 * (a + b)
    with np.errstate(invalid="ignore"):
        dt = b[:, 2] - a[:, 2]
    dt = np.where(np.isfinite(dt), dt, 0.0)
    out[:, 2] = a[:, 2] + 0.5 * wrap_angle(dt)
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
    if len(reference) < 2:
        raise DataError("reference traverse must contain at least 2 frames")

    selected = [0]
    acc = 0.0
    for t in range(1, len(reference)):
        acc += reference.frames[t].odom.mean.translation_norm
        if acc >= node_spacing:
            selected.append(t)
            acc = 0.0
    if len(selected) < 2:
        raise DataError(
            "reference traverse is shorter than one node spacing interval"
        )

    n = len(selected)
    # relative pose between consecutive selected frames
    steps: list[Pose2] = []
    for a, b in zip(selected[:-1], selected[1:]):
        p = Pose2.identity()
        for t in range(a + 1, b + 1):
            p = compose(p, reference.frames[t].odom.mean)
        steps.append(p)

    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for i in range(n):
        acc_pose = Pose2.identity()
        for k in range(1, window):
            j = i + k
            if j > n - 1:
                break
            acc_pose = compose(acc_pose, steps[j - 1])
            band[i, k] = acc_pose.as_array()

    descriptors = np.stack([reference.frames[t].descriptor for t in selected])
    gt = None
    if reference.has_gt:
        gt = np.array(
            [reference.frames[t].gt_pose.as_array() for t in selected]
        )
    return TopometricMap(
        descriptors,
        band,
        node_spacing=float(node_spacing),
        gt_poses=gt,
        frame_indices=selected,
    )
