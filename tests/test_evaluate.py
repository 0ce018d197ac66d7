"""Labeling and precision-recall scoring, checked on hand-built fixtures."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoloc.errors import DataError
from topoloc.evaluate import (
    GroundTruthLabel,
    PrCurve,
    _sweep,
    label_ground_truth,
    recall_at_precision,
    score_lcd,
    score_wakeup,
)
from topoloc.geometry import Covariance3, OdometryStep, Pose2
from topoloc.mapping import TopometricMap, build_map
from topoloc.tasks import LcdFrame, LcdResult, WakeupResult
from topoloc.traverse import Traverse

from oracles import dense_label_ground_truth, traverse_of


def _straight_map():
    # reference every 1 m, nodes every 2 m: node k sits at x = 2k, heading 0
    frames = []
    rng = np.random.default_rng(7)
    for i in range(10):
        d = rng.normal(size=16).astype(np.float32)
        d /= np.linalg.norm(d)
        odom = None
        if i:
            odom = OdometryStep(
                Pose2(1.0, 0.0, 0.0), Covariance3(np.diag([0.01, 0.01, 0.001]))
            )
        frames.append((d, odom, Pose2(float(i), 0.0, 0.0)))
    return build_map(traverse_of(frames), 2.0, 5)


def _query_with_gt(poses):
    frames = []
    for i, p in enumerate(poses):
        d = np.zeros(16, dtype=np.float32)
        d[0] = 1.0
        odom = None
        if i:
            odom = OdometryStep(Pose2(1.0, 0.0, 0.0), Covariance3(np.diag([0.1, 0.1, 0.01])))
        frames.append((d, odom, Pose2(*p)))
    return traverse_of(frames)


def test_labeling_translation_and_heading_tolerances():
    m = _straight_map()
    q = _query_with_gt(
        [
            (0.0, 0.0, 0.0),  # nodes 0,1,2 within 5 m
            (4.0, 0.0, math.radians(31.0)),  # heading out of tolerance
            (4.0, 0.0, math.radians(29.0)),  # heading just inside
            (4.0, 4.9, 0.0),  # only node 2 within 5 m laterally
            (4.0, 5.1, 0.0),  # nothing within 5 m
        ]
    )
    lab = label_ground_truth(q, m)
    assert len(lab) == 5
    assert lab.within_map.tolist() == [True, False, True, True, False]
    assert lab.ok_nodes[0].tolist() == [0, 1, 2]
    assert lab.true_node[0] == 0
    assert lab.ok_nodes[1].size == 0 and lab.true_node[1] == -1
    assert 2 in lab.ok_nodes[2]
    assert lab.ok_nodes[3].tolist() == [2]
    assert lab.true_node[4] == -1


def test_labeling_tighter_tolerance_shrinks_ok_sets():
    m = _straight_map()
    q = _query_with_gt([(4.0, 0.0, 0.0), (5.0, 0.0, 0.0)])
    wide = label_ground_truth(q, m, tol_m=5.0)
    tight = label_ground_truth(q, m, tol_m=1.5)
    for t in range(2):
        assert set(tight.ok_nodes[t]) <= set(wide.ok_nodes[t])
    assert tight.ok_nodes[0].tolist() == [2]
    assert tight.tol_m == 1.5


def test_labeling_requires_ground_truth():
    m = _straight_map()
    q = Traverse(np.ones((1, 16)), np.empty((0, 3)), np.empty((0, 3, 3)))
    with pytest.raises(DataError):
        label_ground_truth(q, m)
    with pytest.raises(DataError):
        label_ground_truth(_query_with_gt([(0, 0, 0)]), m, tol_m=-1.0)
    for tols in ({"tol_m": math.inf}, {"tol_deg": math.nan}):
        with pytest.raises(DataError):
            label_ground_truth(_query_with_gt([(0, 0, 0)]), m, **tols)


def _posed(nodes, frames):
    """A map and a query that carry nothing but the given ground-truth poses."""
    n, t = len(nodes), len(frames)
    band = np.full((n, 2, 3), np.nan)
    band[:, 0] = 0.0
    band[:-1, 1] = (1.0, 0.0, 0.0)
    m = TopometricMap(np.ones((n, 1)), band, 1.0, gt_poses=np.array(nodes, dtype=float))
    steps = np.broadcast_to(np.eye(3), (t - 1, 3, 3))
    return m, Traverse(np.ones((t, 1)), np.zeros((t - 1, 3)), steps, np.array(frames, dtype=float))


_TOL30 = math.radians(30.0)
_grid = st.integers(-12, 12).map(float)  # integer offsets: 3-4-5 pairs, shared x, equal distances
_heading = st.one_of(
    st.sampled_from([0.0, _TOL30, -_TOL30, math.pi, -math.pi, math.pi - 1e-12, 1e-12 - math.pi]),
    st.floats(-math.pi, math.pi),
)
_nodes = st.lists(st.tuples(_grid | st.floats(-12.0, 12.0), _grid, _heading), min_size=1, max_size=12)
# frames reach beyond the nodes, where no node is a candidate
_frames = st.lists(
    st.tuples(_grid | st.floats(-40.0, 40.0), _grid | st.floats(-40.0, 40.0), _heading),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    nodes=_nodes,
    frames=_frames,
    tol_m=st.sampled_from([5.0, 2.5, 1e308]) | st.floats(0.01, 30.0),
    tol_deg=st.sampled_from([30.0, 180.0]) | st.floats(1.0, 360.0),
)
# every node 5 m off or at the frame, four of them tied; headings at +-30 degrees
@example(
    nodes=[(3.0, 4.0, 0.0), (0.0, -5.0, 0.0), (-3.0, -4.0, 0.0), (5.0, 0.0, _TOL30), (0.0, 0.0, 0.0)],
    frames=[(0.0, 0.0, 0.0), (0.0, 0.0, _TOL30), (0.0, 0.0, -_TOL30), (-5.0, 0.0, 0.0)],
    tol_m=5.0,
    tol_deg=30.0,
)
# a one-node map; headings either side of +-pi; a frame with no candidate
@example(nodes=[(2.0, 0.0, 3.1)], frames=[(2.0, 1.0, -3.1), (9.0, 0.0, 3.1)], tol_m=5.0, tol_deg=30.0)
# nodes sharing an x; every node a candidate
@example(
    nodes=[(1.0, 0.0, 0.0), (1.0, 2.0, math.pi), (1.0, -2.0, 0.0), (-7.0, 0.0, 0.0)],
    frames=[(1.0, 0.0, 0.0), (30.0, -30.0, -math.pi)],
    tol_m=1e308,
    tol_deg=30.0,
)
def test_labeling_matches_dense_oracle(nodes, frames, tol_m, tol_deg):
    m, q = _posed(nodes, frames)
    got = label_ground_truth(q, m, tol_m, tol_deg)
    want = dense_label_ground_truth(q, m, tol_m, tol_deg)
    for name in ("within_map", "true_node"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(got.ok_nodes) == len(want.ok_nodes)
    for a, b in zip(got.ok_nodes, want.ok_nodes):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_labeling_boundaries_are_inclusive_and_ties_go_low():
    m, q = _posed(
        [(3.0, 4.0, 0.0), (0.0, -5.0, 0.0), (-3.0, -4.0, 0.0), (5.0, 0.1, 0.0), (1.0, 0.0, _TOL30)],
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 2 * _TOL30)],
    )
    lab = label_ground_truth(q, m)
    # nodes 0-2 lie exactly 5 m off and tie; node 4's heading is exactly 30 degrees off
    assert lab.ok_nodes[0].tolist() == [0, 1, 2, 4]
    assert lab.true_node.tolist() == [4, 4, 4]
    assert lab.ok_nodes[2].tolist() == [4]
    m, q = _posed([(3.0, 4.0, 0.0), (0.0, -5.0, 0.0), (-3.0, -4.0, 0.0)], [(0.0, 0.0, 0.0)])
    assert label_ground_truth(q, m).true_node.tolist() == [0]


def _handmade_labels():
    return GroundTruthLabel(
        within_map=np.array([True, True, True, False]),
        true_node=np.array([0, 1, 2, -1]),
        ok_nodes=[
            np.array([0]),
            np.array([1]),
            np.array([2]),
            np.array([], dtype=int),
        ],
        tol_m=5.0,
        tol_deg=30.0,
    )


def _handmade_result():
    rows = [
        (0, 0, 0.9),  # correct
        (1, 0, 0.8),  # wrong node on a within frame
        (2, 2, 0.6),  # correct
        (3, 1, 0.3),  # any proposal on an off frame is false
    ]
    return LcdResult(
        frames=[LcdFrame(t=t, proposal=p, tau=tau, mode_mass=tau) for t, p, tau in rows],
        lam=1.0,
    )


def test_sweep_counts_by_hand():
    curve = score_lcd(_handmade_result(), _handmade_labels())
    assert curve.thresholds.tolist() == [-1.0, 0.3, 0.6, 0.8, 0.9]
    assert curve.tp.tolist() == [2, 2, 1, 1, 0]
    assert curve.fp.tolist() == [2, 1, 1, 0, 0]
    assert curve.fn.tolist() == [0, 0, 1, 2, 3]
    assert curve.tn.tolist() == [0, 1, 1, 1, 1]
    assert curve.n_items == 4
    # every threshold partitions the same item set
    totals = curve.tp + curve.fp + curve.fn + curve.tn
    assert np.all(totals == 4)
    assert curve.precision.tolist() == [0.5, 2.0 / 3.0, 0.5, 1.0, 1.0]
    assert curve.recall.tolist() == [1.0, 1.0, 0.5, 1.0 / 3.0, 0.0]


def test_recall_at_precision_picks_best_qualifying_point():
    curve = score_lcd(_handmade_result(), _handmade_labels())
    assert recall_at_precision(curve, 0.99) == pytest.approx(1.0 / 3.0)
    assert recall_at_precision(curve, 0.6) == 1.0
    assert recall_at_precision(curve, 0.4) == 1.0
    with pytest.raises(ValueError):
        recall_at_precision(curve, 0.0)
    with pytest.raises(ValueError):
        recall_at_precision(curve, 1.5)


def test_recall_zero_when_only_the_empty_point_qualifies():
    labels = GroundTruthLabel(
        within_map=np.array([True, True]),
        true_node=np.array([0, 1]),
        ok_nodes=[np.array([0]), np.array([1])],
        tol_m=5.0,
        tol_deg=30.0,
    )
    res = LcdResult(
        frames=[LcdFrame(0, 1, 0.5, 0.5), LcdFrame(1, 0, 0.7, 0.7)], lam=1.0
    )
    curve = score_lcd(res, labels)
    assert recall_at_precision(curve, 0.99) == 0.0


def test_score_lcd_validates_lengths():
    labels = _handmade_labels()
    res = _handmade_result()
    assert score_lcd(res, labels).n_items == 4
    short = LcdResult(frames=res.frames[:3], lam=1.0)
    with pytest.raises(DataError):
        score_lcd(short, labels)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(0, 40), n_nodes=st.integers(1, 12))
def test_score_lcd_equals_the_per_frame_membership_loop(seed, n_frames, n_nodes):
    rng = np.random.default_rng(seed)
    ok_nodes = [
        np.flatnonzero(rng.uniform(size=n_nodes) < rng.uniform(-0.3, 1.0)) for _ in range(n_frames)
    ]
    labels = GroundTruthLabel(
        within_map=np.array([ok.size > 0 for ok in ok_nodes], dtype=bool),
        true_node=np.array([ok[0] if ok.size else -1 for ok in ok_nodes], dtype=int),
        ok_nodes=ok_nodes,
        tol_m=5.0,
        tol_deg=30.0,
    )
    taus = rng.integers(0, 5, size=n_frames) / 4.0  # ties included
    proposals = rng.integers(0, n_nodes, size=n_frames)
    rows = enumerate(zip(proposals.tolist(), taus.tolist()))
    result = LcdResult(frames=[LcdFrame(t, p, tau, 0.0) for t, (p, tau) in rows], lam=1.0)
    correct = [f.proposal in labels.ok_nodes[t] for t, f in enumerate(result.frames)]
    want = _sweep(taus, np.ones(n_frames, dtype=bool), correct, labels.within_map)
    got = score_lcd(result, labels)
    for name in ("thresholds", "precision", "recall", "tp", "fp", "fn", "tn"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trials=st.integers(0, 40), n_nodes=st.integers(1, 12))
def test_score_wakeup_equals_the_per_trial_loop(seed, n_trials, n_nodes):
    rng = np.random.default_rng(seed)
    n_frames = 8
    ok_nodes = [np.flatnonzero(rng.uniform(size=n_nodes) < 0.4) for _ in range(n_frames)]
    labels = GroundTruthLabel(
        within_map=np.array([ok.size > 0 for ok in ok_nodes], dtype=bool),
        true_node=np.array([ok[0] if ok.size else -1 for ok in ok_nodes], dtype=int),
        ok_nodes=ok_nodes,
        tol_m=5.0,
        tol_deg=30.0,
    )
    results = []
    for trial in range(n_trials):
        start = int(rng.integers(0, n_frames - 1))
        steps = int(rng.integers(1, n_frames - start))
        converged = bool(rng.uniform() < 0.7)
        proposal = int(rng.integers(0, n_nodes)) if converged else None
        tau = float(rng.integers(0, 5) / 4.0)
        results.append(WakeupResult(trial, start, converged, steps, proposal, tau, 3.0 * steps))
    frames = np.array([r.start + r.steps_used for r in results], dtype=int)
    correct = [r.converged and r.proposal in labels.ok_nodes[f] for r, f in zip(results, frames)]
    taus, can = [r.tau for r in results], [r.converged for r in results]
    want = _sweep(taus, can, correct, labels.within_map[frames])
    got = score_wakeup(results, labels)
    for name in ("thresholds", "precision", "recall", "tp", "fp", "fn", "tn"):
        assert np.array_equal(getattr(got.curve, name), getattr(want, name)), name


def _wakeup_trials():
    return [
        WakeupResult(0, 0, True, 1, 1, 0.97, 3.0),  # correct at frame 1
        WakeupResult(1, 0, True, 2, 0, 0.96, 6.0),  # wrong node at frame 2
        WakeupResult(2, 1, False, 1, None, 0.5, 3.0),  # missed, frame 2 within
        WakeupResult(3, 1, False, 2, None, 0.2, 6.0),  # frame 3 is off-map
    ]


def test_score_wakeup_counts_and_distance():
    score = score_wakeup(_wakeup_trials(), _handmade_labels())
    c = score.curve
    assert c.n_items == 4
    assert c.thresholds.tolist() == [-1.0, 0.2, 0.5, 0.96, 0.97]
    assert c.tp.tolist() == [1, 1, 1, 1, 0]
    assert c.fp.tolist() == [1, 1, 1, 0, 0]
    # unconverged within-map trials are misses at every threshold
    assert c.fn.tolist() == [1, 1, 1, 2, 3]
    assert c.tn.tolist() == [1, 1, 1, 1, 1]
    # best precision>=1 point is threshold 0.96 where only trial 0 proposes
    assert score.mean_distance_at(1.0) == 3.0
    assert score.mean_distance_at(0.5) == pytest.approx(4.5)


def test_score_wakeup_unconverged_only_gives_no_distance():
    trials = [WakeupResult(0, 0, False, 1, None, 0.1, 3.0)]
    labels = GroundTruthLabel(
        within_map=np.array([True, True]),
        true_node=np.array([0, 0]),
        ok_nodes=[np.array([0]), np.array([0])],
        tol_m=5.0,
        tol_deg=30.0,
    )
    score = score_wakeup(trials, labels)
    assert score.mean_distance_at(0.9) is None
    assert recall_at_precision(score.curve, 0.9) == 0.0


def test_score_wakeup_rejects_out_of_range_decision_frame():
    trials = [WakeupResult(0, 3, True, 1, 0, 0.99, 3.0)]
    with pytest.raises(DataError):
        score_wakeup(trials, _handmade_labels())


def test_pr_curve_validation():
    ones = np.ones(2)
    with pytest.raises(ValueError):
        PrCurve(
            thresholds=np.array([0.5, 0.5]),
            precision=ones,
            recall=ones,
            tp=np.array([1, 1]),
            fp=np.array([0, 0]),
            fn=np.array([0, 0]),
            tn=np.array([0, 0]),
        )
    with pytest.raises(ValueError):
        PrCurve(
            thresholds=np.array([0.1, 0.5]),
            precision=ones,
            recall=ones,
            tp=np.array([1, 1]),
            fp=np.array([0, 1]),
            fn=np.array([0, 0]),
            tn=np.array([0, 0]),
        )


@pytest.mark.parametrize(
    "name,bad",
    [
        ("thresholds", [-1.0, float("nan")]),
        ("thresholds", [float("nan"), 0.5]),
        ("precision", [1.0, float("nan")]),
        ("recall", [0.0, float("inf")]),
    ],
)
def test_pr_curve_rejects_non_finite_points(name, bad):
    cols = dict(
        thresholds=np.array([-1.0, 0.5]),
        precision=np.ones(2),
        recall=np.zeros(2),
        tp=np.zeros(2, dtype=int),
        fp=np.zeros(2, dtype=int),
        fn=np.ones(2, dtype=int),
        tn=np.zeros(2, dtype=int),
    )
    PrCurve(**cols)  # the unchanged columns make a valid curve
    cols[name] = np.array(bad)
    with pytest.raises(ValueError, match=name):
        PrCurve(**cols)
