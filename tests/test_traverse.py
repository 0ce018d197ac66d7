"""The columnar traverse and the per-frame view that ``perfbench/`` reads."""

import dataclasses

import numpy as np
import pytest

from topoloc.errors import DataError
from topoloc.geometry import Covariance3, OdometryStep, Pose2
from topoloc.mapping import build_map
from topoloc.motion import build_transition_model
from topoloc.simulate import builtin_scenarios, generate_world, render_traverse
from topoloc.tasks import PipelineParams, run_lcd
from topoloc.traverse import Traverse

import topoloc.motion as motion_mod


@pytest.fixture(scope="module")
def s2_small():
    spec = builtin_scenarios()["S2"]
    world = generate_world(0, 500.0, 16)
    route = dataclasses.replace(spec.query, detours=spec.query.detours[:1])
    ref = render_traverse(world, spec.ref, 0)
    query = render_traverse(world, route, 1)
    return build_map(ref, 2.0, 5), query


def test_frames_agree_exactly_with_columns(s2_small):
    _, query = s2_small
    frames = query.frames
    assert frames is query.frames  # built once
    assert len(frames) == len(query)
    assert frames[0].odom is None
    for t, fr in enumerate(frames):
        assert np.shares_memory(fr.descriptor, query.descriptors)
        assert fr.descriptor.tolist() == query.descriptors[t].tolist()
        assert fr.gt_pose.as_array().tolist() == query.gt_poses[t].tolist()
        if t:
            assert fr.odom.mean.as_array().tolist() == query.odom_means[t - 1].tolist()
            assert fr.odom.cov.matrix.tolist() == query.odom_covs[t - 1].tolist()
            m = query.odom_covs[t - 1]
            assert fr.odom.cov.to_upper() == [m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2]]
    assert query.gt_array().tolist() == query.gt_poses.tolist()
    for column in (query.descriptors, query.odom_means, query.odom_covs, query.gt_poses):
        assert not column.flags.writeable


def test_view_steps_build_the_models_run_lcd_builds(s2_small, monkeypatch):
    # run_lcd builds through the query's store, from the columns; each view step
    # builds the same model from them
    map_, query = s2_small
    params = PipelineParams()
    built = []
    build = motion_mod.build_transitions

    def recording_build(m, means, covs, p):
        built.append(build(m, means, covs, p))
        return built[-1]

    monkeypatch.setattr(motion_mod, "build_transitions", recording_build)
    run_lcd(map_, query, params)
    (stack,) = built
    assert len(stack) == len(query) - 1
    for t in range(1, len(query)):
        again = build_transition_model(map_, query.frames[t].odom, params.motion)
        assert np.array_equal(again.within_probs, stack.within_probs[t - 1])
        assert np.array_equal(again.to_off, stack.to_off[t - 1])


def test_one_frame_and_ground_truth_free_traverses_construct():
    one = Traverse(np.ones((1, 4)), np.empty((0, 3)), np.empty((0, 3, 3)))
    assert len(one) == 1 and one.descriptor_dim == 4 and not one.has_gt
    assert one.frames[0].odom is None and one.frames[0].gt_pose is None
    no_gt = Traverse(np.ones((3, 4)), np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
    assert not no_gt.has_gt and no_gt.frames[2].gt_pose is None
    assert isinstance(no_gt.frames[2].odom, OdometryStep)
    with pytest.raises(DataError):
        no_gt.gt_array()


def test_angles_wrap_as_pose2_wraps_them():
    means = np.array([[1.0, 0.0, 4.0], [1.0, 0.0, -np.pi]])
    tr = Traverse(np.ones((3, 2)), means, np.stack([np.eye(3)] * 2), np.zeros((3, 3)))
    assert tr.odom_means[:, 2].tolist() == [Pose2(1.0, 0.0, 4.0).dtheta, np.pi]


@pytest.mark.parametrize(
    "change,match",
    [
        (lambda c: c.update(descriptors=np.ones((0, 4))), "non-empty"),
        (lambda c: c.update(odom_means=np.zeros((3, 3))), r"shape \(2, 3\)"),
        (lambda c: c.update(odom_covs=np.stack([np.eye(3)] * 3)), "2 covariances"),
        (lambda c: c["odom_covs"].__setitem__((1, 0, 0), -1.0),
         "covariance of frame 2 must be positive definite"),
        (lambda c: c["odom_covs"].__setitem__((0, 0, 1), 1e-9),
         "covariance of frame 1 must be symmetric"),
        (lambda c: c["odom_means"].__setitem__((1, 2), np.nan), "mean of frame 2 must be finite"),
        (lambda c: c["descriptors"].__setitem__((2, 0), np.inf), "descriptor of frame 2"),
        (lambda c: c.update(gt_poses=np.zeros((2, 3))), r"shape \(3, 3\)"),
    ],
)
def test_construction_names_what_is_wrong(change, match):
    cols = {
        "descriptors": np.ones((3, 4)),
        "odom_means": np.zeros((2, 3)),
        "odom_covs": np.stack([np.eye(3)] * 2),
        "gt_poses": np.zeros((3, 3)),
    }
    change(cols)
    with pytest.raises(DataError, match=match):
        Traverse(**cols)


def test_columns_are_private_copies():
    desc = np.ones((2, 3))
    cov = np.stack([Covariance3(np.diag([1.0, 1.0, 1.0])).matrix])
    tr = Traverse(desc, np.zeros((1, 3)), cov)
    desc[0, 0] = 5.0
    assert tr.descriptors[0, 0] == 1.0 and tr.descriptors.dtype == np.float32
