"""Traverses: the common carrier between simulator, map builder and tasks.

A traverse is a few validated, read-only columns with one row per frame or
per step, and inference reads the columns.  :attr:`Traverse.frames`
presents them as one :class:`Frame` per time step, built on first access,
for callers that want per-frame objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .geometry import Covariance3, OdometryStep, Pose2, validated_covariances, wrap_angle


@dataclass(frozen=True, eq=False)
class Frame:
    """One time step of a traverse, as :attr:`Traverse.frames` presents it.

    ``odom`` is the step from the previous frame and ``None`` exactly on the
    first frame; ``gt_pose`` is ``None`` when the traverse has no ground
    truth.
    """

    descriptor: np.ndarray
    odom: OdometryStep | None
    gt_pose: Pose2 | None


def _poses(values, rows: int, what: str, first: int) -> np.ndarray:
    """A finite ``(rows, 3)`` float copy with angles wrapped to ``(-pi, pi]``.

    Row ``k`` belongs to frame ``first + k``.
    """
    a = np.array(values, dtype=float)
    if a.shape != (rows, 3):
        raise DataError(f"{what} must have shape ({rows}, 3), got {a.shape}")
    bad = ~np.isfinite(a).all(axis=1)
    if bad.any():
        raise DataError(f"{what} of frame {first + int(np.argmax(bad))} must be finite")
    a[:, 2] = wrap_angle(a[:, 2])
    return a


@dataclass(frozen=True, eq=False)
class Traverse:
    """``T`` frames with one odometry step per consecutive pair.

    ``descriptors`` is ``(T, d)`` float32; ``odom_means`` ``(T-1, 3)`` holds
    the relative pose ``(dx, dy, dtheta)`` from frame ``t-1`` to frame ``t``
    in row ``t-1``, and ``odom_covs`` ``(T-1, 3, 3)`` its covariance;
    ``gt_poses`` ``(T, 3)`` is the global pose used only by evaluation, or
    ``None``.  Construction copies and checks them once: ``T >= 1`` and
    ``d >= 1``, matching row counts, finite values, covariances symmetric to
    1e-12 and positive definite; angles are wrapped to ``(-pi, pi]``.
    Errors name the offending frame.

    ``transitions`` is the query's :class:`~topoloc.motion.TransitionStore`:
    the models of its steps built so far, freed with the traverse.
    """

    descriptors: np.ndarray
    odom_means: np.ndarray
    odom_covs: np.ndarray
    gt_poses: np.ndarray | None = None

    def __post_init__(self):
        desc = np.array(self.descriptors, dtype=np.float32)
        if desc.ndim != 2 or desc.shape[0] == 0 or desc.shape[1] == 0:
            raise DataError("descriptors must be a non-empty (T, d) matrix")
        bad = ~np.isfinite(desc).all(axis=1)
        if bad.any():
            raise DataError(f"descriptor of frame {int(np.argmax(bad))} must be finite")
        n = desc.shape[0]
        covs = np.asarray(self.odom_covs, dtype=float)
        if covs.shape[:1] != (n - 1,):
            raise DataError(f"odom_covs must hold {n - 1} covariances, got {covs.shape}")
        covs = validated_covariances(covs, lambda k: f"odometry covariance of frame {k + 1}")
        gt = self.gt_poses
        for name, value in (
            ("descriptors", desc),
            ("odom_means", _poses(self.odom_means, n - 1, "odometry mean", 1)),
            ("odom_covs", covs),
            ("gt_poses", None if gt is None else _poses(gt, n, "ground-truth pose", 0)),
        ):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        from .motion import TransitionStore  # motion imports mapping, which imports this module

        object.__setattr__(self, "transitions", TransitionStore(self.odom_means, self.odom_covs))

    def __len__(self) -> int:
        return self.descriptors.shape[0]

    @property
    def descriptor_dim(self) -> int:
        return self.descriptors.shape[1]

    @property
    def has_gt(self) -> bool:
        return self.gt_poses is not None

    def gt_array(self) -> np.ndarray:
        """Ground-truth poses as a float64 (T, 3) array; error when absent."""
        if not self.has_gt:
            raise DataError("traverse carries no ground truth")
        return self.gt_poses.copy()

    @cached_property
    def frames(self) -> tuple[Frame, ...]:
        """The columns as one :class:`Frame` per time step, built once.

        Each frame's descriptor is a row of :attr:`descriptors`; its odometry
        and ground truth go through the checked :class:`Pose2` and
        :class:`Covariance3` constructors.
        """
        steps = [None] + [
            OdometryStep(Pose2(*mean), Covariance3(cov))
            for mean, cov in zip(self.odom_means.tolist(), self.odom_covs)
        ]
        gts = [None] * len(self) if self.gt_poses is None else self.gt_poses.tolist()
        return tuple(
            Frame(desc, step, None if gt is None else Pose2(*gt))
            for desc, step, gt in zip(self.descriptors, steps, gts)
        )
