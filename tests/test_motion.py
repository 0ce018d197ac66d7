"""Odometry-conditioned transition model construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoloc.geometry import (
    Covariance3,
    OdometryStep,
    Pose2,
    chi2_cdf_3,
    min_mahalanobis_on_directed_segments,
)
from topoloc import motion
from topoloc.errors import DataError
from topoloc.mapping import TopometricMap, build_map
from topoloc.motion import (
    MOTION_MODES,
    MotionParams,
    TransitionStack,
    build_transition_model,
    build_transitions,
)
from topoloc.simulate import builtin_scenarios, simulate_scenario

from oracles import (
    full_band,
    mahalanobis_sq,
    min_mahalanobis_on_segment,
    min_mahalanobis_on_segments,
    off_out,
    precision,
    relative,
    segment_endpoint_rows,
    segment_endpoints,
    slice_backpropagate,
    slice_propagate,
    to_dense,
    unmasked_transition_probs,
    within,
)


# Scalar, one-node-at-a-time forms of what build_transition_model computes
# for the whole map at once; the vectorized builder is checked against them.


def edge_distances(map_, i, odom):
    """``(j, d2)`` for each outgoing edge ``i -> j`` in ascending ``j``."""
    out = []
    last = min(i + map_.window - 1, map_.n_nodes - 1)
    for j in range(i + 1, last + 1):
        lo, hi = segment_endpoints(map_, i, j)
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
        Pose2(dx, dy, dtheta), Covariance3(np.diag([sx**2, sy**2, st**2]))
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
    dense = to_dense(model)
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
        got = dict(within(model, i))
        assert model.to_off[i] == pytest.approx(p_off, abs=1e-12)
        assert set(got) == {j for j, _ in row}
        for j, p in row:
            assert got[j] == pytest.approx(p, abs=1e-12)


def test_terminal_node_scores_stay_hypothesis():
    m = line_map(n=8)
    # a near-zero step keeps the terminal node's mass on itself
    model = build_transition_model(m, step(0.0, sx=0.2, sy=0.2, st=0.1), MotionParams())
    last = m.n_nodes - 1
    assert within(model, last) == [(last, pytest.approx(1.0 - model.to_off[last]))]
    # a long step makes the stay hypothesis implausible and the gate fires
    model2 = build_transition_model(m, step(6.0, sx=0.2), MotionParams())
    assert model2.to_off[last] > 0.999


def test_no_off_mode_zeroes_gate_and_renormalizes():
    m = line_map()
    odom = step(2.0)
    full = build_transition_model(m, odom, MotionParams())
    ablated = build_transition_model(m, odom, MotionParams(mode="no_off"))
    assert np.all(ablated.to_off == 0.0)
    dense = to_dense(ablated)
    assert np.abs(dense[:-1, :-1].sum(axis=1) - 1.0).max() < 1e-9
    # within-row shape is shared with the full model up to the off scaling
    for i in range(m.n_nodes):
        f = np.array([p for _, p in within(full, i)])
        a = np.array([p for _, p in within(ablated, i)])
        assert np.allclose(a * (1.0 - full.to_off[i]), f, atol=1e-12)


def test_no_odom_mode_is_uniform_and_ignores_odometry():
    m = line_map()
    params = MotionParams(mode="no_odom")
    a = build_transition_model(m, None, params)
    b = build_transition_model(m, step(17.0, -3.0, 1.0), params)
    assert np.allclose(to_dense(a), to_dense(b))
    assert np.all(a.to_off == params.no_odom_off)
    probs = within(a, 4)
    vals = [p for _, p in probs]
    assert np.allclose(vals, vals[0])


def test_full_mode_requires_odometry():
    m = line_map()
    with pytest.raises(ValueError):
        build_transition_model(m, None, MotionParams())


def test_propagate_agrees_with_dense_product():
    m = line_map()
    odom = step(2.5, 0.1)
    stack = build_transitions(m, odom.mean.as_array()[None], odom.cov.matrix[None], MotionParams())
    model = stack[0]
    rng = np.random.default_rng(4)
    alpha = rng.uniform(size=m.n_nodes + 1)
    alpha /= alpha.sum()
    dense = to_dense(model)
    assert np.allclose(model.propagate(alpha), alpha @ dense, atol=1e-12)
    v = rng.uniform(size=m.n_nodes + 1)
    backward = motion.BandKernel(stack.window, stack.n_nodes).backward(stack, 0, v)
    assert np.allclose(backward, dense @ v, atol=1e-12)


def random_band_stack(rng, n, window, steps):
    """A checked stack over a random edge set: edges dropped at random, every
    node left without one sends all its mass off the map, the final node keeps
    its stay slot; ``to_off`` and ``off_self`` include exact 0 and 1."""
    valid = np.zeros((window, n), dtype=bool)
    for k in range(1, window):
        valid[k, : max(n - k, 0)] = rng.uniform(size=max(n - k, 0)) < 0.8
    valid[0, -1] = True  # offset 0 holds only the final node's self-transition
    to_off = rng.uniform(size=(steps, n))
    to_off[rng.uniform(size=(steps, n)) < 0.2] = 0.0
    to_off[rng.uniform(size=(steps, n)) < 0.2] = 1.0
    to_off[:, ~valid.any(axis=0)] = 1.0
    raw = rng.uniform(0.01, 1.0, size=(steps, window, n)) * valid
    sums = raw.sum(axis=1, keepdims=True)
    probs = np.divide(raw, sums, out=np.zeros_like(raw), where=sums > 0.0)
    probs *= (1.0 - to_off)[:, None]
    off_self = rng.choice([0.0, 0.3, 0.9, 1.0], size=steps)
    return TransitionStack(probs, to_off, off_self, valid)


def band_messages(rng, n):
    """Messages with off-map mass 0, 1 and in between, plus an unnormalized one."""
    mixed = rng.uniform(size=n + 1)
    on_map = np.append(rng.uniform(size=n), 0.0)
    off_map = np.append(np.zeros(n), 1.0)
    return [mixed / mixed.sum(), on_map / on_map.sum(), off_map, rng.uniform(0.0, 50.0, size=n + 1)]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), window=st.integers(1, 9))
def test_band_kernel_equals_slice_loops_bit_for_bit(seed, n, window):
    # the slice loops are the kernels' previous form; window > N is drawn often
    rng = np.random.default_rng(seed)
    stack = random_band_stack(rng, n, window, steps=3)
    band = motion.BandKernel(window, n)  # one scratch for every step and both directions
    for s in range(len(stack)):
        model = stack[s]
        for msg in band_messages(rng, n):
            want_forward = slice_propagate(model, msg)
            want_backward = slice_backpropagate(model, msg)
            assert np.array_equal(band.forward(stack, s, msg), want_forward)
            assert np.array_equal(band.backward(stack, s, msg), want_backward)
            assert np.array_equal(model.propagate(msg), want_forward)


def test_band_kernel_on_a_built_map_keeps_the_stay_column():
    m = line_map(n=40, window=5)
    stack = build_transitions(
        m, np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [3.9, 0.2, 0.1]]),
        np.broadcast_to(np.diag([0.01, 0.01, 0.0025]), (3, 3, 3)), MotionParams(),
    )
    assert stack.stay[1] > 0.0  # a standing step keeps the final node
    band = motion.BandKernel(stack.window, stack.n_nodes)
    rng = np.random.default_rng(3)
    for s in range(len(stack)):
        for msg in band_messages(rng, m.n_nodes):
            assert np.array_equal(band.forward(stack, s, msg), slice_propagate(stack[s], msg))
            assert np.array_equal(band.backward(stack, s, msg), slice_backpropagate(stack[s], msg))


def test_propagation_rejects_mismatched_messages():
    model = build_transition_model(line_map(), step(2.5, 0.1), MotionParams())
    n = model.n_nodes
    for bad in (np.ones(n), np.ones(n + 2), np.ones((1, n + 1))):
        with pytest.raises(ValueError, match="alpha must have shape"):
            model.propagate(bad)


def test_model_stores_band_not_square():
    n, window = 50, 5
    m = line_map(n=n, window=window)
    model = build_transition_model(m, step(2.0), MotionParams())
    assert model.within_probs.shape == (window - 1, n)  # offsets 1 up; offset 0 is stay
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
    starts, u, degenerate, valid = m.edge_geometry
    k = (window - 1) * n
    for arr in (starts, u):
        assert arr.shape == (3, k + 1) and arr.flags.c_contiguous
    # the same segments edge by edge from their definition, zero where the
    # band holds no edge
    raw_lo, raw_hi = np.zeros((k, 3)), np.zeros((k, 3))
    seg_valid = np.zeros((window - 1, n), dtype=bool)
    for off in range(1, window):
        for i in range(n - off):
            lo, hi = segment_endpoint_rows(m, i, i + off)
            raw_lo[(off - 1) * n + i] = lo
            raw_hi[(off - 1) * n + i] = hi
            seg_valid[off - 1, i] = True
    assert not seg_valid.all()
    assert degenerate[:k][seg_valid.reshape(-1)].any()
    # the extra column is the final node's stay-in-place hypothesis
    assert degenerate[k] and not starts[:, k].any() and not u[:, k].any()
    assert valid[1:].tolist() == seg_valid.tolist()
    assert valid[0].tolist() == [False] * (n - 1) + [True]
    for odom in (step(2.0), step(0.0, 0.0, 0.0), step(4.1, -0.3, 3.1), step(1.0, 2.0, -2.0)):
        d2_raw, s_raw = min_mahalanobis_on_segments(raw_lo, raw_hi, odom.mean, odom.cov)
        d2, s = min_mahalanobis_on_directed_segments(
            starts, u, degenerate, odom.mean.as_array(), precision(odom.cov)
        )
        assert np.array_equal(d2[:k], d2_raw)
        assert np.array_equal(s[:k], s_raw)
        assert s[k] == 0.0


def test_stay_column_scores_identity_pose():
    m = line_map()
    starts, u, degenerate, _ = m.edge_geometry
    correlated = Covariance3(
        np.array([[0.04, 0.01, 0.006], [0.01, 0.09, -0.005], [0.006, -0.005, 0.0025]])
    )
    steps = [step(2.0), step(0.0), step(-1.0, 0.5, 3.1), step(0.3, -0.2, -3.14)]
    steps += [OdometryStep(Pose2(0.4, -0.3, t), correlated) for t in (3.1, -3.1)]
    for odom in steps:
        d2, _ = min_mahalanobis_on_directed_segments(
            starts, u, degenerate, odom.mean.as_array(), precision(odom.cov)
        )
        want = mahalanobis_sq(Pose2(0.0, 0.0, 0.0), odom.mean, odom.cov)
        # same arithmetic up to summation order and the sign of the residual
        assert d2[-1] == pytest.approx(want, rel=1e-12, abs=1e-12)

    # At a heading of exactly +-pi the residual's sign matters: wrap_angle
    # sends both +pi and -pi to +pi.  The stay column is scored like every
    # other segment, as the odometry minus the identity pose.
    for t in (np.pi, -np.pi, 3 * np.pi):
        odom = OdometryStep(Pose2(0.4, -0.3, t), correlated)
        d2, _ = min_mahalanobis_on_directed_segments(
            starts, u, degenerate, odom.mean.as_array(), precision(odom.cov)
        )
        want = mahalanobis_sq(odom.mean, Pose2(0.0, 0.0, 0.0), odom.cov)
        assert d2[-1] == pytest.approx(want, rel=1e-12, abs=1e-12)
        reversed_sign = mahalanobis_sq(Pose2(0.0, 0.0, 0.0), odom.mean, odom.cov)
        assert abs(d2[-1] - reversed_sign) > 1.0


def test_transition_model_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        TransitionStack(
            np.array([[[0.5]]]), np.array([[0.4]]), [0.9], np.ones((1, 1), dtype=bool)
        )  # row sums to 0.9
    with pytest.raises(ValueError, match="off_self"):
        TransitionStack(
            np.array([[[0.5]]]), np.array([[0.5]]), [1.5], np.ones((1, 1), dtype=bool)
        )
    with pytest.raises(ValueError):
        build_transition_model(line_map(), step(2.0), MotionParams(mode="sideways"))


@pytest.mark.parametrize("heading", [0.0, 3.0], ids=["expanded", "exact"])
@pytest.mark.parametrize("mode", ["full", "no_off"])
def test_overflowing_mahalanobis_distance_is_a_data_error(mode, heading):
    # far from every edge under a tiny covariance, d2 overflows, and the
    # expanded kernel's q - s (2 num - s den) turns inf - inf into NaN
    m = line_map()
    means = np.array([[2.0, 0.0, 0.0], [100.0, 0.0, heading]])
    covs = np.stack([np.diag([0.01, 0.01, 0.0025]), 1e-306 * np.eye(3)])
    with pytest.raises(DataError, match=rf"odometry step \[100.0, 0.0, {heading}\]"):
        build_transitions(m, means, covs, MotionParams(mode=mode))
    assert len(build_transitions(m, means, covs, MotionParams(mode="no_odom"))) == 2


def test_gate_saturates_when_odometry_contradicts_map():
    m = line_map()
    # a 3 m sideways jump fits no forward edge
    model = build_transition_model(m, step(0.0, 3.0, 0.0, sx=0.05, sy=0.05), MotionParams())
    assert model.to_off.min() > 0.999


@st.composite
def banded_problems(draw, turn=np.pi):
    """A random small banded map and odometry steps, headings near +-``turn``.

    Node headings turn by about 0 or ``turn`` between neighbours, so band
    angles and segment directions sit near 0 and +-``turn``; odometry
    headings sit near +-``turn``; covariances are correlated and SPD.  With
    the default ``turn = pi`` every step's heading residual can wrap; with
    ``turn = 0`` none can.  Each step comes both as the traverse columns and
    as the :class:`OdometryStep` holding the same values.
    """
    n = draw(st.integers(2, 12))
    window = draw(st.integers(2, 5))
    n_steps = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    turns = turn * rng.integers(0, 2, size=n) + rng.normal(scale=0.05, size=n)
    lengths = rng.uniform(0.0, 3.0, size=n)
    lengths[rng.uniform(size=n) < 0.2] = 0.0  # repeated poses: degenerate segments
    poses, x, y, h = [], 0.0, 0.0, 0.0
    for turn, length in zip(turns, lengths):
        h += turn
        x, y = x + length * np.cos(h), y + length * np.sin(h)
        poses.append(Pose2(x, y, h))
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for i in range(n):
        for k in range(1, min(window, n - i)):
            band[i, k] = relative(poses[i], poses[i + k]).as_array()
    m = TopometricMap(rng.normal(size=(n, 4)).astype(np.float32), band, 2.0)
    steps = []
    for _ in range(n_steps):
        mean = Pose2(
            rng.normal(1.5, 1.0), rng.normal(0.0, 0.5),
            rng.choice([-turn, turn]) + rng.normal(scale=0.05),
        )
        a = rng.normal(scale=0.3, size=(3, 3))
        cov = a @ a.T + 0.01 * np.eye(3)
        steps.append(OdometryStep(mean, Covariance3(0.5 * (cov + cov.T))))
    means = np.array([odom.mean.as_array() for odom in steps])
    covs = np.array([odom.cov.matrix for odom in steps])
    return m, means, covs, steps


@settings(max_examples=60, deadline=None)
@given(problem=banded_problems(), mode=st.sampled_from(MOTION_MODES))
def test_stacked_models_equal_one_step_models(problem, mode):
    m, means, covs, steps = problem
    params = MotionParams(mode=mode)
    stack = build_transitions(m, means, covs, params)
    assert len(stack) == len(steps)
    for s, odom in enumerate(steps):
        one = build_transition_model(m, odom, params)
        assert np.array_equal(stack.within_probs[s], one.within_probs)
        assert np.array_equal(stack.to_off[s], one.to_off)
        assert stack[s].stay == one.stay
        assert stack[s].off_self == one.off_self
        assert np.array_equal(stack[s].valid, one.valid)
        assert abs(stack[s].off_self + off_out(stack[s]) * m.n_nodes - 1.0) < 1e-9
    rows = full_band(stack).sum(axis=1) + stack.to_off
    assert np.abs(rows - 1.0).max() < 1e-9


def test_stack_checks_every_step():
    m = line_map()
    good = build_transitions(
        m, np.array([[2.0, 0.0, 0.0]] * 3), np.stack([np.eye(3) * 0.01] * 3), MotionParams()
    )
    within = full_band(good)
    within[2, 1, 4] += 1e-6  # node 4 of the last step no longer sums to one
    with pytest.raises(ValueError, match="sum to 1"):
        TransitionStack(within, good.to_off, good.off_self, good.valid)
    within = full_band(good)
    within[1, 0, 0] = 1e-3  # offset 0 exists only for the final node
    with pytest.raises(ValueError, match="outside the edge set"):
        TransitionStack(within, good.to_off, good.off_self, good.valid)

    # a stack longer than one check block, corrupted only in its last block
    steps = 2 * motion._CHUNK + 3
    good = build_transitions(
        m, np.array([[2.0, 0.0, 0.0]] * steps), np.stack([np.eye(3) * 0.01] * steps),
        MotionParams(),
    )
    last = steps - 1
    within = full_band(good)
    within[last, 1, 4] += 1e-6
    with pytest.raises(ValueError, match="sum to 1"):
        TransitionStack(within, good.to_off, good.off_self, good.valid)
    within = full_band(good)
    within[last, 0, 0] = 1e-3
    with pytest.raises(ValueError, match="outside the edge set"):
        TransitionStack(within, good.to_off, good.off_self, good.valid)
    to_off = good.to_off.copy()
    to_off[last, 3] = -1e-3
    with pytest.raises(ValueError, match="negative transition probability"):
        TransitionStack(full_band(good), to_off, good.off_self, good.valid)


def test_stack_rejects_an_offset_0_slot_off_the_final_node():
    good = build_transitions(
        line_map(), np.array([[2.0, 0.0, 0.0]] * 2), np.stack([np.eye(3) * 0.01] * 2), MotionParams()
    )
    valid = good.valid.copy()
    valid[0, 3] = True  # a self-transition slot the compact band has no room for
    with pytest.raises(ValueError, match="offset 0 holds only the final node"):
        TransitionStack(full_band(good), good.to_off, good.off_self, valid)


def test_stay_is_the_final_nodes_on_map_mass_bit_for_bit():
    # the final node's one edge keeps all its on-map mass: softmax 1.0 over the
    # stay column times 1 - to_off, or (1 - to_off) / 1 without odometry
    for name in ("S1", "S2", "S3"):
        _, ref, query = simulate_scenario(builtin_scenarios()[name], 0)
        m = build_map(ref, 2.0, 5)
        for mode in MOTION_MODES:
            stack = build_transitions(m, query.odom_means, query.odom_covs, MotionParams(mode=mode))
            assert np.array_equal(stack.stay, 1.0 - stack.to_off[:, -1])
            assert not full_band(stack)[:, 0, :-1].any()


def oracle_rows(m, odom, mode):
    """``(to_off, {j: prob})`` of every node from the per-node scalar pieces."""
    out = []
    for i in range(m.n_nodes):
        if i == m.n_nodes - 1:
            d2s = [(i, mahalanobis_sq(odom.mean, Pose2(0.0, 0.0, 0.0), odom.cov))]
        else:
            d2s = edge_distances(m, i, odom)
        if mode == "no_odom":
            p_off = MotionParams().no_odom_off
            d2s = [(j, 0.0) for j, _ in d2s]
        else:
            p_off = off_map_transition(d2s) if mode == "full" else 0.0
        out.append((p_off, dict(transition_row(d2s, p_off))))
    return out


@settings(max_examples=60, deadline=None)
@given(
    problem=st.one_of(banded_problems(), banded_problems(turn=0.0)),
    mode=st.sampled_from(MOTION_MODES),
)
def test_stacked_models_match_per_node_oracle(problem, mode):
    # turn = 0 problems take the expanded kernel only; turn = pi problems
    # mix it with entries rescored by the exact residual form.  Both match
    # the scalar oracle and their one-step builds.
    m, means, covs, steps = problem
    params = MotionParams(mode=mode)
    stack = build_transitions(m, means, covs, params)
    for s, odom in enumerate(steps):
        one = build_transition_model(m, odom, params)
        assert np.array_equal(stack.within_probs[s], one.within_probs)
        assert np.array_equal(stack.to_off[s], one.to_off)
        for i, (p_off, row) in enumerate(oracle_rows(m, odom, mode)):
            assert abs(stack.to_off[s, i] - p_off) <= 1e-12
            got = dict(within(stack[s], i))
            assert set(got) == set(row)
            assert max(abs(got[j] - p) for j, p in row.items()) <= 1e-12


def u_turn_map():
    """A map that turns about pi within its band, so edge headings reach past pi / 2."""
    poses = [Pose2(0.0, 0.0, 0.0), Pose2(2.0, 0.0, 0.8), Pose2(3.0, 1.0, 1.6),
             Pose2(2.0, 2.0, 2.4), Pose2(0.0, 2.0, 3.1), Pose2(-2.0, 2.0, -3.1)]
    n, window = len(poses), 4
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for i in range(n):
        for k in range(1, min(window, n - i)):
            band[i, k] = relative(poses[i], poses[i + k]).as_array()
    return TopometricMap(np.eye(n, dtype=np.float32), band, 2.0)


def test_wrap_guard_scores_exact_form():
    m = u_turn_map()
    starts, u, degenerate, _ = m.edge_geometry
    # a straight step, a step turning about -pi whose residual against the
    # turning edges wraps, and one turning about +pi; every step meets
    # guarded entries, and the first and last meet unguarded ones too
    means = np.array([[1.0, 0.1, 0.05], [0.5, 1.0, -3.0], [0.2, 0.3, 2.9]])
    a = np.array([[0.2, 0.05, 0.01], [0.05, 0.3, -0.02], [0.01, -0.02, 0.1]])
    precs = np.linalg.inv(np.stack([a @ a.T + 0.01 * np.eye(3)] * 3))
    precs = 0.5 * (precs + precs.transpose(0, 2, 1))
    exact, _ = min_mahalanobis_on_directed_segments(starts, u, degenerate, means, precs)
    d2 = motion._edge_d2(m, means, precs)
    guarded = np.abs(means[:, 2:] - starts[2]) >= 0.5 * np.pi
    assert guarded.any(axis=1).all() and not guarded[[0, 2]].all(axis=1).any()
    assert np.array_equal(d2[guarded], exact[guarded])
    np.testing.assert_allclose(d2[~guarded], exact[~guarded], rtol=1e-12, atol=1e-12)
    # without the guard, the unwrapped expansion scores guarded entries
    # against the wrong heading representative
    m.__dict__["edge_features"] = (m.edge_features[0], -np.inf)
    unguarded = motion._edge_d2(m, means, precs)
    assert np.abs(unguarded[guarded] - exact[guarded]).max() > 1.0


def test_extreme_precisions_leave_the_map():
    # variances far below any real odometry's, with a sideways step that fits
    # no edge: every edge's d2 is astronomically large and all mass leaves
    m = line_map()
    variances = [(1e-300, 1e-300, 1e-300), (1e-20, 1e-20, 1e-20),
                 (1e-300, 1e-20, 1e-100), (1e-20, 1e-300, 1e-200)]
    covs = np.stack([np.diag(v) for v in variances])
    means = np.array([[0.0, 3.0, 0.0]] * len(variances))
    for mode, to_off in (("full", 1.0), ("no_off", 0.0)):
        stack = build_transitions(m, means, covs, MotionParams(mode=mode))
        assert np.isfinite(stack.within_probs).all()
        assert np.all(stack.to_off == to_off)


def test_exp_mask_matches_unmasked_softmax():
    # node i's edge to i + 2 is 1 m from a 2 m step: d2 = 1 / sx^2, so shifted
    # exponents of -725 (a subnormal probability) and -745.75 (exp rounds to 0,
    # yet above the mask); the edges to i + 3 and i + 4 fall far below -746
    m = line_map()
    n = m.n_nodes
    means = np.array([[2.0, 0.0, 0.0]] * 2)
    covs = np.stack([np.diag([1.0 / inv_var, 0.01, 0.0025]) for inv_var in (1450.0, 1491.5)])
    precs = np.linalg.inv(covs)
    precs = 0.5 * (precs + precs.transpose(0, 2, 1))
    d2 = motion._edge_d2(m, means, precs)
    barrier = np.where(m.edge_geometry[3], 0.0, np.inf)
    tables = np.empty((2,) + barrier.shape)
    tables[:, 0] = barrier[0]
    tables[:, 0, n - 1] = d2[:, -1]
    tables[:, 1:] = d2[:, :-1].reshape(2, -1, n) + barrier[1:]
    shifted = -0.5 * (tables - tables.min(axis=1)[:, None])
    for lo, hi in ((-np.inf, -746.0), (-746.0, -745.14), (-745.13, -708.0)):
        assert ((shifted > lo) & (shifted < hi)).any()
    for mode in ("full", "no_off"):
        stack = build_transitions(m, means, covs, MotionParams(mode=mode))
        for s in range(2):
            want = unmasked_transition_probs(tables[s], stack.to_off[s])
            assert np.array_equal(full_band(stack[s]), want)
        tiny = stack.within_probs[0]
        assert ((tiny > 0.0) & (tiny < np.finfo(float).tiny)).any()
