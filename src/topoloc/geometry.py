"""Planar pose algebra and the Mahalanobis machinery used by the motion model.

Conventions
-----------
A relative pose is ``(dx, dy, dtheta)`` in meters and radians, expressed in
the frame of the starting pose.  ``dtheta`` is always wrapped to the
half-open interval ``(-pi, pi]`` (the boundary maps to ``+pi``).  Covariances
are 3x3 symmetric positive definite matrices over ``(x, y, theta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

_TWO_PI = 2.0 * math.pi
_DEGENERATE_SEGMENT_TOL = 1e-12


def wrap_angle(theta):
    """Wrap an angle (or array of angles) to ``(-pi, pi]``.

    The boundary convention maps every odd multiple of pi, including
    ``-pi``, to ``+pi``.  Non-finite input is rejected.

    Parameters
    ----------
    theta : float or ndarray
        Angle(s) in radians.

    Returns
    -------
    float or ndarray
        Wrapped angle(s), same shape as the input.
    """
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_angle requires finite input")
    shifted = np.fmod(arr + math.pi, _TWO_PI)
    shifted = np.where(shifted <= 0.0, shifted + _TWO_PI, shifted)
    wrapped = shifted - math.pi
    if np.isscalar(theta) or arr.ndim == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True, slots=True)
class Pose2:
    """A relative planar pose ``(dx, dy, dtheta)``.

    ``dtheta`` is wrapped to ``(-pi, pi]`` on construction, so two poses
    built from angle representatives differing by a full turn compare equal.
    """

    dx: float
    dy: float
    dtheta: float

    def __post_init__(self):
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "dy", float(self.dy))
        object.__setattr__(self, "dtheta", wrap_angle(float(self.dtheta)))

    @classmethod
    def identity(cls) -> "Pose2":
        return cls(0.0, 0.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dtheta], dtype=float)

    @property
    def translation_norm(self) -> float:
        return math.hypot(self.dx, self.dy)


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Chain two relative poses: first ``a``, then ``b`` in ``a``'s end frame.

    The rotation of ``a`` acts on the translation of ``b``::

        dx = a.dx + cos(a.dtheta) * b.dx - sin(a.dtheta) * b.dy
        dy = a.dy + sin(a.dtheta) * b.dx + cos(a.dtheta) * b.dy
        dtheta = wrap(a.dtheta + b.dtheta)
    """
    c = math.cos(a.dtheta)
    s = math.sin(a.dtheta)
    return Pose2(
        a.dx + c * b.dx - s * b.dy,
        a.dy + s * b.dx + c * b.dy,
        a.dtheta + b.dtheta,
    )


def inverse(a: Pose2) -> Pose2:
    """The relative pose undoing ``a``: ``compose(a, inverse(a))`` is identity."""
    c = math.cos(a.dtheta)
    s = math.sin(a.dtheta)
    return Pose2(-(c * a.dx + s * a.dy), -(-s * a.dx + c * a.dy), -a.dtheta)


def relative(a: Pose2, b: Pose2) -> Pose2:
    """Pose of ``b`` expressed in the frame of ``a`` (both given in one frame)."""
    return compose(inverse(a), b)


def interpolate_pose(a: Pose2, b: Pose2, s: float) -> Pose2:
    """Componentwise linear interpolation from ``a`` (s=0) to ``b`` (s=1).

    The angle is interpolated on the unwrapped representative of ``b``
    relative to ``a``, i.e. along the short way around the circle.
    """
    ddx = b.dx - a.dx
    ddy = b.dy - a.dy
    ddt = wrap_angle(b.dtheta - a.dtheta)
    return Pose2(a.dx + s * ddx, a.dy + s * ddy, a.dtheta + s * ddt)


def mean_pose(a: Pose2, b: Pose2) -> Pose2:
    """Midpoint of two poses, averaging angles on unwrapped representatives."""
    return interpolate_pose(a, b, 0.5)


@dataclass(frozen=True, eq=False)
class Covariance3:
    """A validated 3x3 covariance over ``(x, y, theta)``.

    Construction fails unless the matrix is symmetric (to 1e-12) and
    positive definite.  The precision matrix (inverse) is computed once and
    cached; both arrays are frozen read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"covariance must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance must be finite")
        if np.abs(m - m.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric to 1e-12")
        m = 0.5 * (m + m.T)
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        prec = np.linalg.inv(m)
        prec = 0.5 * (prec + prec.T)
        m.setflags(write=False)
        prec.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_precision", prec)

    @property
    def precision(self) -> np.ndarray:
        return self._precision

    @classmethod
    def from_diagonal(cls, var_x: float, var_y: float, var_theta: float) -> "Covariance3":
        return cls(np.diag([float(var_x), float(var_y), float(var_theta)]))

    def to_upper(self) -> list[float]:
        """Upper-triangular entries in row-major order (xx, xy, xt, yy, yt, tt)."""
        m = self.matrix
        return [m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2]]

    @classmethod
    def from_upper(cls, entries) -> "Covariance3":
        e = [float(v) for v in entries]
        if len(e) != 6:
            raise ValueError(f"expected 6 upper-triangular entries, got {len(e)}")
        m = np.array(
            [
                [e[0], e[1], e[2]],
                [e[1], e[3], e[4]],
                [e[2], e[4], e[5]],
            ]
        )
        return cls(m)


@dataclass(frozen=True, eq=False)
class OdometryStep:
    """A Gaussian relative-pose measurement between consecutive frames."""

    mean: Pose2
    cov: Covariance3


def mahalanobis_sq(x: Pose2, mu: Pose2, sigma: Covariance3) -> float:
    """Squared Mahalanobis distance of ``x`` from ``mu`` under ``sigma``.

    The angular residual is wrapped to ``(-pi, pi]`` before weighting, so a
    residual of ``2*pi - eps`` scores like ``eps``.
    """
    r = np.array(
        [x.dx - mu.dx, x.dy - mu.dy, wrap_angle(x.dtheta - mu.dtheta)]
    )
    return float(r @ sigma.precision @ r)


def min_mahalanobis_on_segments(
    lo: np.ndarray, hi: np.ndarray, mu, sigma: Covariance3
):
    """Vectorized minimum squared Mahalanobis distance over pose segments.

    Each row of ``lo``/``hi`` is one segment ``T(s) = (1-s)*lo + s*hi`` with
    the angle interpolated on the unwrapped representative of ``hi`` relative
    to ``lo``.  ``mu`` is a single query pose shared by all rows; its angle
    is likewise brought to the representative nearest ``lo`` before the
    residual is formed.  The per-row minimizer is the closed-form solution of
    the 1-D quadratic, clamped to ``[0, 1]``; rows whose endpoints coincide
    to within 1e-12 degenerate to the point distance at ``s = 0``.

    This is :func:`segment_directions` (which depends on the segments only)
    followed by :func:`min_mahalanobis_on_directed_segments` (which depends
    on the query), both on the transposed ``(3, K)`` layout; callers scoring
    many queries against fixed segments keep the first part's result.

    Parameters
    ----------
    lo, hi : ndarray, shape (K, 3)
        Segment endpoint poses as raw ``(dx, dy, dtheta)`` rows.
    mu : Pose2 or array-like of shape (3,)
        Query pose.
    sigma : Covariance3
        Weighting covariance.

    Returns
    -------
    d2 : ndarray, shape (K,)
        Minimum squared Mahalanobis distances (non-negative).
    s : ndarray, shape (K,)
        Arg-min interpolation parameters in ``[0, 1]``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 2 or lo.shape[1] != 3 or lo.shape != hi.shape:
        raise ValueError("segment endpoint arrays must both have shape (K, 3)")
    u, degenerate = segment_directions(lo.T, hi.T)
    return min_mahalanobis_on_directed_segments(lo.T, u, degenerate, mu, sigma)


def segment_directions(lo: np.ndarray, hi: np.ndarray):
    """Direction ``hi - lo`` of each segment, angle wrapped, and its degeneracy.

    ``lo`` and ``hi`` hold one segment per column, shape ``(3, K)``.  Returns
    ``(u, degenerate)``: ``u`` of shape ``(3, K)`` with the angular row
    wrapped to ``(-pi, pi]``, and the ``(K,)`` mask of segments whose
    endpoints coincide to within 1e-12.
    """
    u = hi - lo
    u[2] = wrap_angle(u[2])
    degenerate = np.max(np.abs(u), axis=0) < _DEGENERATE_SEGMENT_TOL
    return u, degenerate


def min_mahalanobis_on_directed_segments(
    lo: np.ndarray, u: np.ndarray, degenerate: np.ndarray, mu, sigma: Covariance3
):
    """The query-dependent part of :func:`min_mahalanobis_on_segments`.

    ``lo`` holds the segment starts as columns, shape ``(3, K)``, and ``u``,
    ``degenerate`` are their :func:`segment_directions`; each row is then one
    contiguous pass.  Returns the ``(K,)`` pair ``(d2, s)``.
    """
    if isinstance(mu, Pose2):
        mu = mu.as_array()
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (3,):
        raise ValueError("mu must be a single pose")

    prec = sigma.precision
    r = mu[:, None] - lo
    r[2] = wrap_angle(r[2])
    pu = prec @ u
    denom = np.einsum("ik,ik->k", pu, u)
    num = np.einsum("ik,ik->k", pu, r)
    s = num / np.where(degenerate, 1.0, denom)
    np.clip(s, 0.0, 1.0, out=s)
    s[degenerate] = 0.0
    r -= s * u
    d2 = np.einsum("ik,ik->k", prec @ r, r)
    return np.maximum(d2, 0.0, out=d2), s


def min_mahalanobis_on_segment(
    a: Pose2, b: Pose2, mu: Pose2, sigma: Covariance3
) -> tuple[float, float]:
    """Minimum squared Mahalanobis distance from ``mu`` to the segment a--b.

    Scalar form of :func:`min_mahalanobis_on_segments`; returns the pair
    ``(d2, s_star)``.
    """
    d2, s = min_mahalanobis_on_segments(
        a.as_array()[None, :], b.as_array()[None, :], mu, sigma
    )
    return float(d2[0]), float(s[0])


def chi2_cdf_3(d2):
    """CDF of the chi-squared distribution with three degrees of freedom.

    Uses the closed form ``F(x) = erf(sqrt(x/2)) - sqrt(2/pi) * sqrt(x) *
    exp(-x/2)`` rather than a generic incomplete-gamma routine, keeping the
    result dependency-light and bit-deterministic.  Accepts a scalar or an
    ndarray; negative or NaN input is rejected.
    """
    arr = np.asarray(d2, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ValueError("chi2_cdf_3 requires non-negative input")
    half = 0.5 * arr
    val = erf(np.sqrt(half)) - math.sqrt(2.0 / math.pi) * np.sqrt(arr) * np.exp(-half)
    val = np.clip(val, 0.0, 1.0)
    if np.isscalar(d2) or arr.ndim == 0:
        return float(val)
    return val
