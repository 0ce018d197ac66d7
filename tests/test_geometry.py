"""Pose algebra, covariance handling, and the segment distance minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf

from topoloc.errors import DataError
from topoloc.geometry import (
    Covariance3,
    OdometryStep,
    Pose2,
    chi2_cdf_3,
    compose_poses,
    inverse_poses,
    translation_norms,
    validated_covariances,
    wrap_angle,
)

from oracles import (
    chi2_cdf_3_quad,
    compose,
    covariance_from_upper,
    grid_min_mahalanobis,
    interpolate_pose,
    inverse,
    mahalanobis_sq,
    mean_pose,
    min_mahalanobis_on_segment,
    min_mahalanobis_on_segments,
    precision,
    relative,
)


def test_wrap_angle_boundary_convention():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    arr = wrap_angle(np.array([0.0, 2 * math.pi, -2 * math.pi + 0.25]))
    assert np.allclose(arr, [0.0, 0.0, 0.25])


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))
    with pytest.raises(ValueError):
        wrap_angle(float("inf"))


@given(st.floats(-1e3, 1e3))
def test_wrap_angle_range_idempotence_and_period(x):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w
    # x - wrap(x) is a whole number of turns, up to the rounding of x + pi
    turns = (x - w) / (2 * math.pi)
    assert abs(turns - round(turns)) * 2 * math.pi <= 1e-12


def test_compose_pure_translation_and_rotation():
    a = Pose2(1.0, 0.0, math.pi / 2)
    b = Pose2(2.0, 0.0, 0.0)
    c = compose(a, b)
    # after a quarter turn, b's forward motion points along +y
    assert c.dx == pytest.approx(1.0)
    assert c.dy == pytest.approx(2.0)
    assert c.dtheta == pytest.approx(math.pi / 2)


def test_compose_inverse_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = Pose2(*rng.normal(scale=3.0, size=3))
        ident = compose(p, inverse(p))
        assert abs(ident.dx) < 1e-12
        assert abs(ident.dy) < 1e-12
        assert abs(ident.dtheta) < 1e-12


_poses = st.lists(
    st.tuples(st.floats(-100, 100), st.floats(-100, 100), st.floats(-1e3, 1e3)),
    min_size=1, max_size=20,
)


@given(_poses, _poses)
def test_pose_rows_round_trip(a, b):
    # rounding of translations up to 100 m: a few ulps of 100 per operation
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    a[:, 2], b[:, 2] = wrap_angle(a[:, 2]), wrap_angle(b[:, 2])
    for got, want in (
        (compose_poses(a, inverse_poses(a)), np.zeros_like(a)),
        (inverse_poses(inverse_poses(a)), a),
        (compose_poses(compose_poses(a, b), inverse_poses(b)), a),
    ):
        assert np.abs(got[:, :2] - want[:, :2]).max() <= 1e-11
        assert np.abs(wrap_angle(got[:, 2] - want[:, 2])).max() <= 1e-12


def test_compose_associativity():
    rng = np.random.default_rng(8)
    for _ in range(30):
        a, b, c = (Pose2(*rng.normal(size=3)) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.dx == pytest.approx(right.dx, abs=1e-12)
        assert left.dy == pytest.approx(right.dy, abs=1e-12)
        assert wrap_angle(left.dtheta - right.dtheta) == pytest.approx(0.0, abs=1e-12)


def test_relative_undoes_compose():
    a = Pose2(0.5, -1.0, 0.3)
    d = Pose2(2.0, 0.1, -0.2)
    b = compose(a, d)
    r = relative(a, b)
    assert r.dx == pytest.approx(d.dx)
    assert r.dy == pytest.approx(d.dy)
    assert r.dtheta == pytest.approx(d.dtheta)


def test_pose_rows_match_scalar_algebra_bit_for_bit():
    # the simulator and the map builder compose whole columns; their bytes
    # must not depend on that layout
    rng = np.random.default_rng(9)
    a = rng.normal(scale=3.0, size=(500, 3))
    b = rng.normal(scale=3.0, size=(500, 3))
    a[:, 2] = wrap_angle(a[:, 2])
    b[:, 2] = wrap_angle(b[:, 2])
    composed = compose_poses(a, b)
    inverted = inverse_poses(a)
    norms = translation_norms(b)
    for t in range(len(a)):
        pa, pb = Pose2(*a[t]), Pose2(*b[t])
        assert composed[t].tolist() == compose(pa, pb).as_array().tolist()
        assert inverted[t].tolist() == inverse(pa).as_array().tolist()
        assert norms[t] == math.hypot(pb.dx, pb.dy)


def test_validated_covariances_name_the_first_bad_matrix():
    stack = np.stack([np.eye(3)] * 4)
    assert np.array_equal(validated_covariances(stack, str), stack)
    label = lambda k: f"step {k}"  # noqa: E731
    for k, fault, match in [
        (2, (1, 1, -1.0), "step 2 must be positive definite"),
        (1, (0, 1, 0.5), "step 1 must be symmetric"),
        (3, (2, 2, np.inf), "step 3 must be finite"),
    ]:
        bad = stack.copy()
        bad[(k, *fault[:2])] = fault[2]
        with pytest.raises(DataError, match=match):
            validated_covariances(bad, label)


def test_interpolate_pose_endpoints_and_short_way():
    a = Pose2(0.0, 0.0, 3.0)
    b = Pose2(1.0, 0.0, -3.0)  # short way crosses the pi boundary
    assert interpolate_pose(a, b, 0.0).dtheta == pytest.approx(3.0)
    assert interpolate_pose(a, b, 1.0).dtheta == pytest.approx(-3.0)
    mid = mean_pose(a, b)
    # halfway along the short arc: 3.0 + 0.5 * wrap(-6.0) = pi (not 0)
    assert abs(mid.dtheta) == pytest.approx(math.pi, abs=1e-12)


def test_covariance_upper_roundtrip():
    m = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.002], [0.0, 0.002, 0.01]])
    cov = Covariance3(m)
    again = covariance_from_upper(cov.to_upper())
    assert np.allclose(again.matrix, m)
    assert np.allclose(precision(cov) @ m, np.eye(3), atol=1e-12)


def test_covariance_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Covariance3(np.zeros((3, 3)))  # singular
    with pytest.raises(ValueError):
        Covariance3(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="must be 3x3"):
        Covariance3(np.eye(2))
    with pytest.raises(ValueError, match="must be finite"):
        Covariance3(np.diag([1.0, np.nan, 1.0]))


def test_mahalanobis_identity_and_diagonal():
    ident = Covariance3(np.eye(3))
    assert mahalanobis_sq(Pose2(3.0, 4.0, 0.0), Pose2(0, 0, 0), ident) == pytest.approx(25.0)
    diag = Covariance3(np.diag([4.0, 1.0, 0.01]))
    val = mahalanobis_sq(Pose2(2.0, 0.0, 0.1), Pose2(0, 0, 0), diag)
    assert val == pytest.approx(2.0)


def test_mahalanobis_wraps_angle_residual():
    ident = Covariance3(np.eye(3))
    near = mahalanobis_sq(Pose2(0, 0, math.pi - 0.01), Pose2(0, 0, -math.pi + 0.01), ident)
    assert near == pytest.approx(0.02**2, rel=1e-9)


def test_segment_min_interior_solution():
    # segment from (0,0,0) to (2,0,0), query at (1, 0.5, 0): the foot of the
    # perpendicular is s=0.5 and only the 0.5 lateral residual remains
    ident = Covariance3(np.eye(3))
    d2, s = min_mahalanobis_on_segment(
        Pose2(0, 0, 0), Pose2(2, 0, 0), Pose2(1.0, 0.5, 0.0), ident
    )
    assert d2 == pytest.approx(0.25, abs=1e-12)
    assert s == pytest.approx(0.5, abs=1e-12)


def test_segment_min_clamps_to_endpoint():
    ident = Covariance3(np.eye(3))
    d2, s = min_mahalanobis_on_segment(
        Pose2(0, 0, 0), Pose2(2, 0, 0), Pose2(3.0, 0.0, 0.0), ident
    )
    assert s == 1.0
    assert d2 == pytest.approx(1.0, abs=1e-12)


def test_segment_min_degenerate_segment_is_point_distance():
    ident = Covariance3(np.eye(3))
    p = Pose2(1.0, 1.0, 0.0)
    d2, s = min_mahalanobis_on_segment(p, p, Pose2(0, 0, 0), ident)
    assert s == 0.0
    assert d2 == pytest.approx(2.0)


def test_segment_min_matches_grid_search():
    # the closed-form minimizer against a dense grid over s, random anisotropic
    # covariances included; tolerance reflects the grid resolution
    rng = np.random.default_rng(42)
    for _ in range(200):
        lo = rng.normal(scale=2.0, size=3)
        hi = lo + rng.normal(scale=1.5, size=3)
        mu = rng.normal(scale=2.0, size=3)
        a = rng.normal(size=(3, 3))
        cov = Covariance3(a @ a.T + 0.05 * np.eye(3))
        d2, s = min_mahalanobis_on_segment(
            Pose2(*lo), Pose2(*hi), Pose2(*mu), cov
        )
        # replicate the wrapped-angle parameterization the implementation uses
        u = hi - lo
        u[2] = wrap_angle(hi[2] - lo[2])
        r0 = np.asarray(mu, dtype=float) - lo
        r0[2] = wrap_angle(mu[2] - lo[2])
        ref_d2, ref_s = grid_min_mahalanobis(
            np.zeros(3), u, r0, precision(cov), n_grid=10_000
        )
        assert d2 <= ref_d2 + 1e-12
        assert abs(d2 - ref_d2) < 1e-6


def test_segments_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    lo = rng.normal(size=(20, 3))
    hi = lo + rng.normal(size=(20, 3))
    mu = Pose2(0.3, -0.2, 0.1)
    cov = Covariance3(np.diag([0.5, 0.25, 0.04]))
    d2s, ss = min_mahalanobis_on_segments(lo, hi, mu, cov)
    for row in range(20):
        d2, s = min_mahalanobis_on_segment(
            Pose2(*lo[row]), Pose2(*hi[row]), mu, cov
        )
        assert d2 == pytest.approx(d2s[row], abs=1e-12)
        assert s == pytest.approx(ss[row], abs=1e-12)


def test_chi2_cdf_3_frozen_values():
    assert chi2_cdf_3(0.0) == 0.0
    assert chi2_cdf_3(1.0) == pytest.approx(0.19874804309879915, abs=1e-9)
    assert chi2_cdf_3(7.8147) == pytest.approx(0.95, abs=1e-4)


def test_chi2_cdf_3_matches_quadrature():
    for x in np.linspace(0.0, 50.0, 101):
        assert chi2_cdf_3(float(x)) == pytest.approx(chi2_cdf_3_quad(float(x)), abs=1e-6)


def test_chi2_cdf_3_within_2_ulp_of_scipy_erf_form():
    # the closed form on scipy's erf, against the numpy port of that erf: a
    # dense grid up to 1e300, with the branch points x = 2 (y = 1) and x = 72
    # (y = 6) and their neighbours, and subnormal inputs
    edges = np.array([2.0, 72.0])
    xs = np.concatenate([
        np.linspace(0.0, 100.0, 200_001),
        np.geomspace(5e-324, 1e300, 20_001),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.7e308],
    ])
    half = 0.5 * xs
    y = np.sqrt(half)
    ref = np.clip(erf(y) - math.sqrt(2.0 / math.pi) * np.sqrt(xs) * np.exp(-half), 0.0, 1.0)
    got = chi2_cdf_3(xs)
    assert np.isfinite(got).all()
    assert (np.abs(got - ref) <= 2 * np.spacing(erf(y))).all()
    assert chi2_cdf_3(1e300) == 1.0 and chi2_cdf_3(5e-324) == 0.0


def test_chi2_cdf_3_monotone_and_saturates():
    xs = np.linspace(0.0, 60.0, 300)
    vals = chi2_cdf_3(xs)
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[-1] > 0.999999
    with pytest.raises(ValueError):
        chi2_cdf_3(-0.1)


def test_odometry_step_carries_mean_and_cov():
    step = OdometryStep(Pose2(1.0, 0.0, 0.1), Covariance3(np.diag([0.01, 0.01, 0.001])))
    assert type(step.mean.dtheta) is float and step.mean.dtheta == pytest.approx(0.1)
    assert step.cov.matrix[2, 2] == pytest.approx(0.001)
