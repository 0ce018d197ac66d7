"""Map construction by arc-length subsampling and the segment geometry."""

import numpy as np
import pytest

from topoloc.errors import DataError
from topoloc.evaluate import label_ground_truth
from topoloc.geometry import Covariance3, OdometryStep, Pose2, wrap_angle
from topoloc.mapping import TopometricMap, build_map
from topoloc.traverse import Traverse

from topoloc.simulate import RouteSpec, generate_world, render_traverse

from oracles import compose, rel_pose, relative, segment_endpoints, traverse_of


def straight_reference(n_frames, spacing=1.0, dim=8):
    rng = np.random.default_rng(2)
    frames = []
    for t in range(n_frames):
        desc = rng.normal(size=dim).astype(np.float32)
        desc /= np.linalg.norm(desc)
        odom = None
        if t > 0:
            odom = OdometryStep(
                Pose2(spacing, 0.0, 0.0),
                Covariance3(np.diag([0.01, 0.01, 0.001])),
            )
        frames.append((desc, odom, Pose2(t * spacing, 0.0, 0.0)))
    return traverse_of(frames)


def test_build_map_subsamples_at_spacing():
    ref = straight_reference(10, spacing=1.0)
    m = build_map(ref, node_spacing=2.0, window=5)
    assert m.n_nodes == 5
    assert m.frame_indices is not None
    assert list(m.frame_indices) == [0, 2, 4, 6, 8]
    assert m.node_spacing == 2.0
    assert m.window == 5


def test_build_map_band_relative_poses():
    ref = straight_reference(10)
    m = build_map(ref, 2.0, 5)
    r = rel_pose(m, 0, 1)
    assert (r.dx, r.dy, r.dtheta) == (pytest.approx(2.0), pytest.approx(0.0), pytest.approx(0.0))
    assert rel_pose(m, 0, 3).dx == pytest.approx(6.0)
    assert rel_pose(m, 2, 2).dx == 0.0
    with pytest.raises(DataError):
        rel_pose(m, 0, 5 + 1)


def test_segment_endpoints_collinear_midpoints():
    ref = straight_reference(12)
    m = build_map(ref, 2.0, 5)
    lo, hi = segment_endpoints(m, 0, 1)
    # midpoint of identity and (2,0,0), and of (2,0,0) and (4,0,0)
    assert lo.dx == pytest.approx(1.0)
    assert hi.dx == pytest.approx(3.0)
    lo2, hi2 = segment_endpoints(m, 0, 2)
    assert lo2.dx == pytest.approx(3.0)
    assert hi2.dx == pytest.approx(5.0)


def test_segment_endpoints_last_edge_extrapolates():
    # the final edge has no successor; its high endpoint is the edge pose
    ref = straight_reference(10)
    m = build_map(ref, 2.0, 5)
    n = m.n_nodes
    lo, hi = segment_endpoints(m, n - 2, n - 1)
    assert lo.dx == pytest.approx(1.0)
    assert hi.dx == pytest.approx(2.0)


def test_segment_table_matches_pairwise_calls():
    ref = straight_reference(14)
    m = build_map(ref, 2.0, 4)
    starts, u, _, valid = m.edge_geometry
    n = m.n_nodes
    assert starts.shape == (3, 3 * n + 1)
    for k in range(1, 4):
        for i in range(n):
            j = i + k
            if j >= n:
                assert not valid[k, i]
                continue
            assert valid[k, i]
            alo, ahi = segment_endpoints(m, i, j)
            col = (k - 1) * n + i
            assert np.allclose(starts[:, col], alo.as_array())
            direction = ahi.as_array() - alo.as_array()
            direction[2] = wrap_angle(direction[2])
            assert np.allclose(u[:, col], direction)


def test_map_requires_consistent_shapes():
    desc = np.eye(4, dtype=np.float32)
    band = np.full((3, 3, 3), np.nan)  # wrong leading dimension
    with pytest.raises((DataError, ValueError)):
        TopometricMap(desc, band, 2.0)


def test_traverse_rejects_frames_without_odometry():
    rng = np.random.default_rng(0)
    desc = rng.normal(size=(5, 4)).astype(np.float32)
    with pytest.raises(DataError):
        Traverse(desc, np.empty((0, 3)), np.empty((0, 3, 3)))


def test_build_map_without_ground_truth_cannot_be_labelled():
    ref = straight_reference(10, spacing=1.0)
    gt_free = Traverse(ref.descriptors, ref.odom_means, ref.odom_covs)
    m = build_map(gt_free, 2.0, 3)
    assert m.gt_poses is None
    assert m.n_nodes == build_map(ref, 2.0, 3).n_nodes
    with pytest.raises(DataError, match="map carries no ground-truth"):
        label_ground_truth(ref, m)


def test_build_map_curved_keeps_arc_spacing():
    # quarter circle of radius 10: nodes spaced 2.0 in arc length, and the
    # stored relative poses reflect the chord geometry, not the arc
    n = 40
    radius = 10.0
    arc = np.linspace(0.0, np.pi / 2, n)
    rng = np.random.default_rng(5)
    frames = []
    prev = None
    for t, a in enumerate(arc):
        desc = rng.normal(size=8).astype(np.float32)
        desc /= np.linalg.norm(desc)
        pose = Pose2(radius * np.sin(a), radius * (1 - np.cos(a)), a)
        odom = None
        if prev is not None:
            odom = OdometryStep(
                relative(prev, pose), Covariance3(np.diag([0.01, 0.01, 0.001]))
            )
        frames.append((desc, odom, pose))
        prev = pose
    m = build_map(traverse_of(frames), 2.0, 4)
    assert m.n_nodes >= 7
    r = rel_pose(m, 0, 1)
    # chord of a 2 m arc on radius 10 is slightly shorter than 2
    chord = 2.0 * radius * np.sin(2.0 / (2 * radius))
    assert np.hypot(r.dx, r.dy) == pytest.approx(chord, rel=0.02)


def test_descriptors_f64_cached_and_frozen():
    ref = straight_reference(8)
    m = build_map(ref, 2.0, 3)
    d = m.descriptors_f64
    assert d.dtype == np.float64
    assert d is m.descriptors_f64
    with pytest.raises(ValueError):
        d[0, 0] = 5.0


def test_band_matches_scalar_composition_bit_for_bit():
    # the columnwise band against the pose-by-pose loop it replaced
    world = generate_world(4, 150.0, 8)
    ref = render_traverse(world, RouteSpec(spacing=0.5, sigma_xy=0.02, sigma_theta=0.01), 0)
    m = build_map(ref, 2.0, 5)
    means = [Pose2(*row) for row in ref.odom_means]
    picked = m.frame_indices
    steps = []
    for a, b in zip(picked[:-1], picked[1:]):
        p = Pose2(0.0, 0.0, 0.0)
        for t in range(a + 1, b + 1):
            p = compose(p, means[t - 1])
        steps.append(p)
    for i in range(m.n_nodes):
        p = Pose2(0.0, 0.0, 0.0)
        for k in range(1, min(m.window, m.n_nodes - i)):
            p = compose(p, steps[i + k - 1])
            assert m.band[i, k].tolist() == p.as_array().tolist()
