"""Odometry-conditioned transition model construction."""

import numpy as np
import pytest

from topoloc.geometry import (
    Covariance3,
    OdometryStep,
    Pose2,
    chi2_cdf_3,
    min_mahalanobis_on_directed_segments,
    min_mahalanobis_on_segment,
    min_mahalanobis_on_segments,
    relative,
)
from topoloc.mapping import TopometricMap
from topoloc.motion import MotionParams, TransitionModel, build_transition_model


# Scalar, one-node-at-a-time forms of what build_transition_model computes
# for the whole map at once; the vectorized builder is checked against them.


def edge_distances(map_, i, odom):
    """``(j, d2)`` for each outgoing edge ``i -> j`` in ascending ``j``."""
    out = []
    last = min(i + map_.window - 1, map_.n_nodes - 1)
    for j in range(i + 1, last + 1):
        lo, hi = map_.segment_endpoints(i, j)
        d2, _ = min_mahalanobis_on_segment(lo, hi, odom.mean, odom.cov)
        out.append((j, d2))
    return out


def off_map_transition(d2s):
    """``chi2_cdf_3`` of the best edge distance; plain floats or ``(j, d2)`` pairs."""
    values = [d2 for _, d2 in d2s] if d2s and isinstance(d2s[0], tuple) else list(d2s)
    if not values:
        raise ValueError("off_map_transition requires at least one edge distance")
    return chi2_cdf_3(min(values))


def transition_row(d2s, p_off):
    """Softmax of ``-d2 / 2`` over the row, scaled by ``1 - p_off``."""
    x = np.array([-0.5 * d2 for _, d2 in d2s])
    x -= x.max()
    weights = np.exp(x)
    probs = weights / weights.sum() * (1.0 - p_off)
    return [(j, float(p)) for (j, _), p in zip(d2s, probs)]


def line_map(n=12, spacing=2.0, window=5):
    rng = np.random.default_rng(1)
    desc = rng.normal(size=(n, 16)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for k in range(1, window):
        band[: n - k, k, 0] = spacing * k
        band[: n - k, k, 1] = 0.0
        band[: n - k, k, 2] = 0.0
    gt = np.stack([np.arange(n) * spacing, np.zeros(n), np.zeros(n)], axis=1)
    return TopometricMap(desc, band, spacing, gt_poses=gt)


def step(dx, dy=0.0, dtheta=0.0, sx=0.1, sy=0.1, st=0.05):
    return OdometryStep(
        Pose2(dx, dy, dtheta), Covariance3.from_diagonal(sx**2, sy**2, st**2)
    )


def test_edge_distances_prefers_matching_edge():
    m = line_map()
    d2s = edge_distances(m, 3, step(4.0))
    js = [j for j, _ in d2s]
    assert js == [4, 5, 6, 7]
    best = min(d2s, key=lambda p: p[1])
    assert best[0] == 5  # the 4 m hop lands on node 3 + 2
    assert best[1] == pytest.approx(0.0, abs=1e-9)


def test_edge_distances_empty_for_terminal_node():
    m = line_map(n=6)
    assert edge_distances(m, 5, step(2.0)) == []


def test_off_map_transition_uses_best_edge():
    vals = [(4, 9.0), (5, 1.0), (6, 16.0)]
    assert off_map_transition(vals) == pytest.approx(chi2_cdf_3(1.0))
    assert off_map_transition([7.8147, 7.8147]) == pytest.approx(0.95, abs=1e-4)
    with pytest.raises(ValueError):
        off_map_transition([])


def test_transition_row_softmax_and_off_scaling():
    d2s = [(1, 0.0), (2, 2.0)]
    row = transition_row(d2s, p_off=0.2)
    w0, w1 = np.exp(0.0), np.exp(-1.0)
    assert row[0][1] == pytest.approx(0.8 * w0 / (w0 + w1))
    assert row[1][1] == pytest.approx(0.8 * w1 / (w0 + w1))
    assert sum(p for _, p in row) == pytest.approx(0.8)


def test_transition_row_handles_huge_distances():
    # max-subtraction keeps the softmax finite even when every fit is awful
    row = transition_row([(1, 5000.0), (2, 5004.0)], p_off=0.0)
    total = sum(p for _, p in row)
    assert total == pytest.approx(1.0)
    assert row[0][1] > row[1][1]


def test_build_full_rows_sum_to_one():
    m = line_map()
    model = build_transition_model(m, step(2.0), MotionParams())
    dense = model.to_dense()
    assert np.abs(dense.sum(axis=1) - 1.0).max() < 1e-9
    # off row: self mass plus uniform outward
    assert dense[-1, -1] == pytest.approx(0.9)
    assert np.allclose(dense[-1, :-1], 0.1 / m.n_nodes)


def test_build_matches_per_node_assembly():
    # the vectorized builder against the three documented single-node pieces
    m = line_map()
    odom = step(3.1, 0.2, 0.01)
    model = build_transition_model(m, odom, MotionParams())
    for i in range(m.n_nodes - 1):
        d2s = edge_distances(m, i, odom)
        p_off = off_map_transition(d2s)
        row = transition_row(d2s, p_off)
        got = dict(model.within(i))
        assert model.to_off[i] == pytest.approx(p_off, abs=1e-12)
        assert set(got) == {j for j, _ in row}
        for j, p in row:
            assert got[j] == pytest.approx(p, abs=1e-12)


def test_terminal_node_scores_stay_hypothesis():
    m = line_map(n=8)
    # a near-zero step keeps the terminal node's mass on itself
    model = build_transition_model(m, step(0.0, sx=0.2, sy=0.2, st=0.1), MotionParams())
    last = m.n_nodes - 1
    assert model.within(last) == [(last, pytest.approx(1.0 - model.to_off[last]))]
    # a long step makes the stay hypothesis implausible and the gate fires
    model2 = build_transition_model(m, step(6.0, sx=0.2), MotionParams())
    assert model2.to_off[last] > 0.999


def test_no_off_mode_zeroes_gate_and_renormalizes():
    m = line_map()
    odom = step(2.0)
    full = build_transition_model(m, odom, MotionParams())
    ablated = build_transition_model(m, odom, MotionParams(mode="no_off"))
    assert np.all(ablated.to_off == 0.0)
    dense = ablated.to_dense()
    assert np.abs(dense[:-1, :-1].sum(axis=1) - 1.0).max() < 1e-9
    # within-row shape is shared with the full model up to the off scaling
    for i in range(m.n_nodes):
        f = np.array([p for _, p in full.within(i)])
        a = np.array([p for _, p in ablated.within(i)])
        assert np.allclose(a * (1.0 - full.to_off[i]), f, atol=1e-12)


def test_no_odom_mode_is_uniform_and_ignores_odometry():
    m = line_map()
    params = MotionParams(mode="no_odom")
    a = build_transition_model(m, None, params)
    b = build_transition_model(m, step(17.0, -3.0, 1.0), params)
    assert np.allclose(a.to_dense(), b.to_dense())
    assert np.all(a.to_off == params.no_odom_off)
    probs = a.within(4)
    vals = [p for _, p in probs]
    assert np.allclose(vals, vals[0])


def test_full_mode_requires_odometry():
    m = line_map()
    with pytest.raises(ValueError):
        build_transition_model(m, None, MotionParams())


def test_propagate_agrees_with_dense_product():
    m = line_map()
    model = build_transition_model(m, step(2.5, 0.1), MotionParams())
    rng = np.random.default_rng(4)
    alpha = rng.uniform(size=m.n_nodes + 1)
    alpha /= alpha.sum()
    dense = model.to_dense()
    assert np.allclose(model.propagate(alpha), alpha @ dense, atol=1e-12)
    v = rng.uniform(size=m.n_nodes + 1)
    assert np.allclose(model.backpropagate(v), dense @ v, atol=1e-12)


def test_model_stores_band_not_square():
    n, window = 50, 5
    m = line_map(n=n, window=window)
    model = build_transition_model(m, step(2.0), MotionParams())
    assert model.within_probs.shape == (window, n)
    assert model.valid.shape == (window, n)
    assert model.valid.sum() <= n * window  # far below the dense 51*51


def test_cached_edge_geometry_matches_raw_segment_kernel():
    # headings near +-pi exercise the angle wrap, a repeated pose gives
    # degenerate segments, and the last nodes leave a NaN tail in the table
    poses = [(0.0, 0.0, 3.0), (2.0, 0.1, 3.1), (4.0, 0.2, -3.1), (4.0, 0.2, -3.1),
             (4.0, 0.2, -3.1), (6.0, 0.0, -3.0), (8.0, 0.0, 3.1), (10.0, 0.5, 0.0)]
    n, window = len(poses), 4
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for i in range(n):
        for k in range(1, min(window, n - i)):
            band[i, k] = relative(Pose2(*poses[i]), Pose2(*poses[i + k])).as_array()
    m = TopometricMap(np.eye(n, dtype=np.float32), band, 2.0)
    lo, hi, seg_valid = m.segment_table()
    starts, u, degenerate, valid = m.edge_geometry
    assert not seg_valid.all() and np.isnan(lo[~seg_valid]).all()
    assert degenerate[seg_valid.reshape(-1)].any()
    assert valid[1:].tolist() == seg_valid.tolist()
    assert valid[0].tolist() == [False] * (n - 1) + [True]
    raw_lo = np.nan_to_num(lo.reshape(-1, 3))
    raw_hi = np.nan_to_num(hi.reshape(-1, 3))
    for odom in (step(2.0), step(0.0, 0.0, 0.0), step(4.1, -0.3, 3.1), step(1.0, 2.0, -2.0)):
        d2_raw, s_raw = min_mahalanobis_on_segments(raw_lo, raw_hi, odom.mean, odom.cov)
        d2, s = min_mahalanobis_on_directed_segments(
            starts, u, degenerate, odom.mean, odom.cov
        )
        assert np.array_equal(d2, d2_raw)
        assert np.array_equal(s, s_raw)


def test_transition_model_validation():
    with pytest.raises(ValueError):
        TransitionModel(
            np.array([[0.5]]), np.array([0.4]), 0.9, np.ones((1, 1), dtype=bool)
        )  # row sums to 0.9
    with pytest.raises(ValueError):
        TransitionModel(
            np.array([[0.5]]), np.array([0.5]), 1.5, np.ones((1, 1), dtype=bool)
        )
    with pytest.raises(ValueError):
        build_transition_model(line_map(), step(2.0), MotionParams(mode="sideways"))


def test_gate_saturates_when_odometry_contradicts_map():
    m = line_map()
    # a 3 m sideways jump fits no forward edge
    model = build_transition_model(m, step(0.0, 3.0, 0.0, sx=0.05, sy=0.05), MotionParams())
    assert model.to_off.min() > 0.999
