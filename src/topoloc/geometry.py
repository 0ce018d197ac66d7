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

from .errors import DataError

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
    ndarray
        Wrapped angle(s), same shape as the input (a numpy scalar for a scalar).
    """
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_angle requires finite input")
    shifted = np.fmod(arr + math.pi, _TWO_PI)
    shifted = np.where(shifted <= 0.0, shifted + _TWO_PI, shifted)
    return shifted - math.pi


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
        object.__setattr__(self, "dtheta", float(wrap_angle(self.dtheta)))

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dtheta], dtype=float)


def compose_poses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chain relative poses row by row: first ``a``, then ``b`` in ``a``'s end frame.

    ``a`` and ``b`` are float arrays of one shape holding ``(dx, dy,
    dtheta)`` on their last axis.  The rotation of ``a`` acts on the
    translation of ``b``::

        dx = a.dx + cos(a.dtheta) * b.dx - sin(a.dtheta) * b.dy
        dy = a.dy + sin(a.dtheta) * b.dx + cos(a.dtheta) * b.dy
        dtheta = wrap(a.dtheta + b.dtheta)
    """
    c = np.cos(a[..., 2])
    s = np.sin(a[..., 2])
    out = np.empty(a.shape)
    out[..., 0] = a[..., 0] + c * b[..., 0] - s * b[..., 1]
    out[..., 1] = a[..., 1] + s * b[..., 0] + c * b[..., 1]
    out[..., 2] = wrap_angle(a[..., 2] + b[..., 2])
    return out


def inverse_poses(a: np.ndarray) -> np.ndarray:
    """The relative poses undoing ``a`` row by row.

    ``compose_poses(a, inverse_poses(a))`` is the identity pose.
    """
    c = np.cos(a[..., 2])
    s = np.sin(a[..., 2])
    out = np.empty(a.shape)
    out[..., 0] = -(c * a[..., 0] + s * a[..., 1])
    out[..., 1] = -(-s * a[..., 0] + c * a[..., 1])
    out[..., 2] = wrap_angle(-a[..., 2])
    return out


def translation_norms(poses: np.ndarray) -> np.ndarray:
    """``hypot(dx, dy)`` of each pose row, by ``math.hypot``.

    ``np.hypot`` rounds differently on some inputs; ``math.hypot`` on each
    row keeps accumulated step lengths the same bits for any layout.
    """
    dx, dy = poses[:, 0].tolist(), poses[:, 1].tolist()
    return np.fromiter(map(math.hypot, dx, dy), float, len(dx))


def validated_covariances(m: np.ndarray, name) -> np.ndarray:
    """Check a stack of 3x3 covariances ``(K, 3, 3)``; return it symmetrised.

    Every matrix must be finite, symmetric to 1e-12 and positive definite
    (one batched Cholesky factorisation).  A breach raises ``DataError``
    with a message that starts with ``name(k)``, the label of the first
    offending matrix ``k``.
    """
    m = np.array(m, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (3, 3):
        raise DataError(f"{name(0)} must be 3x3, got {m.shape[1:]}")
    bad = ~np.isfinite(m).all(axis=(1, 2))
    if bad.any():
        raise DataError(f"{name(int(np.argmax(bad)))} must be finite")
    bad = np.abs(m - m.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0) > 1e-12
    if bad.any():
        raise DataError(f"{name(int(np.argmax(bad)))} must be symmetric to 1e-12")
    m = 0.5 * (m + m.transpose(0, 2, 1))
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        for k in range(len(m)):  # the stack failed: find its first failure
            try:
                np.linalg.cholesky(m[k])
            except np.linalg.LinAlgError:
                raise DataError(f"{name(k)} must be positive definite") from None
    return m


@dataclass(frozen=True, eq=False)
class Covariance3:
    """A validated 3x3 covariance over ``(x, y, theta)``, frozen read-only.

    Construction fails with ``DataError`` unless the matrix is finite,
    symmetric (to 1e-12) and positive definite, by
    :func:`validated_covariances`, and keeps it symmetrised.  Precisions are
    not kept: ``motion.build_transitions`` inverts a stack's covariances at once.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)[None]
        m = validated_covariances(m, lambda k: "covariance")[0]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def to_upper(self) -> list[float]:
        """Upper-triangular entries in row-major order (xx, xy, xt, yy, yt, tt)."""
        m = self.matrix
        return [m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2]]


@dataclass(frozen=True, eq=False)
class OdometryStep:
    """A Gaussian relative-pose measurement between consecutive frames."""

    mean: Pose2
    cov: Covariance3


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
    lo: np.ndarray, u: np.ndarray, degenerate: np.ndarray, mu, prec: np.ndarray
):
    """Minimum squared Mahalanobis distance from each pose ``mu`` to each segment.

    Segment ``k`` is ``T(s) = lo_k + s * u_k`` for ``s`` in ``[0, 1]``:
    ``lo`` holds the starts as columns, shape ``(3, K)``, and ``u``,
    ``degenerate`` are their :func:`segment_directions`.  ``mu`` is one pose
    ``(3,)`` or a stack ``(S, 3)``, and ``prec`` the matching precision
    ``(3, 3)`` or ``(S, 3, 3)``; every pose is scored against every segment,
    and a pose's result depends on nothing else in the stack.  This is the
    exact residual form: the angle of ``mu`` is brought to the representative
    nearest each start, which ``motion``'s expanded kernel cannot do, so that
    kernel rescores here the entries whose heading residual could wrap.  The
    minimiser solves the 1-D quadratic, clamped to ``[0, 1]``; degenerate
    segments score the point distance at ``s = 0``.  Returns ``(d2, s)``, of
    shape ``(K,)`` or ``(S, K)``.
    """
    mu = np.asarray(mu, dtype=float)
    prec = np.asarray(prec, dtype=float)
    if mu.shape[-1:] != (3,) or mu.ndim > 2 or prec.shape != mu.shape[:-1] + (3, 3):
        raise ValueError("mu must be (3,) or (S, 3), with precisions to match")

    r = mu[..., :, None] - lo
    r[..., 2, :] = wrap_angle(r[..., 2, :])
    pu = prec @ u
    denom = np.einsum("...ik,...ik->...k", pu, u)
    num = np.einsum("...ik,...ik->...k", pu, r)
    s = num / np.where(degenerate, 1.0, denom)
    np.clip(s, 0.0, 1.0, out=s)
    s[..., degenerate] = 0.0
    r -= s[..., None, :] * u
    d2 = np.einsum("...ik,...ik->...k", prec @ r, r)
    return np.maximum(d2, 0.0, out=d2), s


# Cephes' rational forms of erf (ndtr.c), highest power first: y T(y^2) / U(y^2)
# for y <= 1, and 1 - exp(-y^2) P(y) / Q(y) for 1 < y < 8
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at ``x``, in place."""
    p = x * coefs[0]
    p += coefs[1]
    for c in coefs[2:]:
        p *= x
        p += c
    return p


def _erf(y: np.ndarray, exp_neg_y2: np.ndarray) -> np.ndarray:
    """``erf(y)`` for ``y >= 0``, given ``exp(-y**2)``; Cephes' forms, no scipy.

    Both rationals are evaluated on every entry, each with its argument
    clamped to its own range, and the branch is chosen per entry.  From
    ``y = 6`` on the result is exactly 1.0, as ``1 - erfc(y)`` rounds there;
    the rational is never taken there, where its powers overflow to inf/inf.
    Few temporaries, reused in place: each fresh one can cost page faults.
    """
    lo = np.minimum(y, 1.0)
    z = lo * lo
    small = _horner(z, _ERF_T)
    small *= lo
    small /= _horner(z, _ERF_U)
    mid = np.minimum(np.maximum(y, 1.0, out=z), 6.0, out=z)
    out = _horner(mid, _ERF_P)
    out *= exp_neg_y2
    out /= _horner(mid, _ERF_Q)
    np.subtract(1.0, out, out=out)
    np.copyto(out, 1.0, where=y >= 6.0)
    np.copyto(out, small, where=y <= 1.0)
    return out


def chi2_cdf_3(d2):
    """CDF of the chi-squared distribution with three degrees of freedom.

    Uses the closed form ``F(x) = erf(sqrt(x/2)) - sqrt(2/pi) * sqrt(x) *
    exp(-x/2)`` rather than a generic incomplete-gamma routine.  ``erf`` is
    Cephes' (as in ``scipy.special``), ported to numpy: ``y T(y^2) / U(y^2)``
    for ``y = sqrt(x/2) <= 1``, ``1 - exp(-x/2) P(y) / Q(y)`` below ``y = 6``
    and exactly 1.0 from there.  On a dense grid of ``y`` it is within 2 ulp
    of the correctly rounded ``erf``, as scipy's is, and within 1 ulp of
    scipy's; over one S2 query's inputs ``F`` is within 2.2e-16 of the
    scipy-based form, and 98 % of values are bit-equal.  Accepts a scalar or
    an ndarray and returns the input's shape (a numpy scalar for a scalar);
    negative or NaN input is rejected.
    """
    arr = np.asarray(d2, dtype=float)
    if not np.all(arr >= 0.0):  # NaN fails too
        raise ValueError("chi2_cdf_3 requires non-negative input")
    x = arr.reshape(-1)
    half = 0.5 * x
    tail = np.exp(-half)
    val = _erf(np.sqrt(half, out=half), tail)
    term = np.sqrt(x)
    term *= math.sqrt(2.0 / math.pi)
    term *= tail
    val -= term
    # clipped to [0, 1]; erf <= 1 and the term >= 0, so only 0 can bind
    return np.maximum(val, 0.0, out=val).reshape(arr.shape)[()]
