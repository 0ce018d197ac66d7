"""Synthetic world generation and traverse rendering."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from topoloc.errors import DataError
from topoloc.simulate import (
    _gaussian_rows,
    Detour,
    RouteSpec,
    ScenarioSpec,
    builtin_scenarios,
    generate_world,
    noiseless_scenario,
    render_traverse,
    simulate_scenario,
)

from oracles import relative


def test_world_deterministic_in_seed():
    a = generate_world(3, 500.0, 16)
    b = generate_world(3, 500.0, 16)
    c = generate_world(4, 500.0, 16)
    assert np.array_equal(a.latents, b.latents)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.latents, c.latents)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5, 6.0, 10.0])
@pytest.mark.parametrize("shape", [(4001, 64), (9000, 5), (40, 3), (3, 7), (1, 4), (30,)])
def test_smoothing_is_scipys_gaussian_filter_bit_for_bit(shape, sigma):
    # (3, 7) and (1, 4) have fewer rows than every radius but sigma 0.3's
    x = np.random.default_rng(len(shape) * 100 + shape[0]).standard_normal(shape)
    expected = gaussian_filter1d(x, sigma, axis=0, mode="nearest")
    assert np.array_equal(_gaussian_rows(x, sigma), expected)


def test_world_latents_unit_norm():
    w = generate_world(0, 300.0, 32)
    norms = np.linalg.norm(w.latents, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_render_deterministic_and_exact_at_zero_noise():
    w = generate_world(1, 400.0, 16)
    route = RouteSpec(spacing=2.0)
    t1 = render_traverse(w, route, seed=9)
    t2 = render_traverse(w, route, seed=9)
    assert len(t1) == len(t2)
    for f1, f2 in zip(t1.frames, t2.frames):
        assert np.array_equal(f1.descriptor, f2.descriptor)
    # zero noise: odometry equals the ground-truth relative pose exactly
    for t in range(1, len(t1)):
        gt_rel = relative(t1.frames[t - 1].gt_pose, t1.frames[t].gt_pose)
        od = t1.frames[t].odom.mean
        assert od.dx == gt_rel.dx and od.dy == gt_rel.dy and od.dtheta == gt_rel.dtheta


def test_reported_covariance_inflation_and_floor():
    w = generate_world(2, 300.0, 8)
    route = RouteSpec(spacing=3.0, sigma_xy=0.02, sigma_theta=0.004, cov_inflation=4.0)
    tr = render_traverse(w, route, seed=0)
    cov = tr.frames[1].odom.cov.matrix
    # per-meter sigmas scale the standard deviation with the true step length
    rel = relative(tr.frames[0].gt_pose, tr.frames[1].gt_pose)
    step_len = math.hypot(rel.dx, rel.dy)
    expect_xy = 4.0 * (0.02 * step_len) ** 2 + 0.05**2
    expect_th = 4.0 * (0.004 * step_len) ** 2 + 0.02**2
    assert cov[0, 0] == pytest.approx(expect_xy, rel=1e-9)
    assert cov[1, 1] == pytest.approx(expect_xy, rel=1e-9)
    assert cov[2, 2] == pytest.approx(expect_th, rel=1e-9)
    assert cov[0, 1] == 0.0


def test_odometry_noise_scales_with_sigma():
    w = generate_world(5, 1500.0, 8)
    quiet = render_traverse(w, RouteSpec(spacing=3.0, sigma_xy=0.005), seed=1)
    loud = render_traverse(w, RouteSpec(spacing=3.0, sigma_xy=0.08), seed=1)

    def residuals(tr):
        out = []
        for t in range(1, len(tr)):
            gt_rel = relative(tr.frames[t - 1].gt_pose, tr.frames[t].gt_pose)
            err = relative(gt_rel, tr.frames[t].odom.mean)
            out.append(np.hypot(err.dx, err.dy))
        return np.array(out)

    assert residuals(loud).mean() > 5 * residuals(quiet).mean()


def test_appearance_noise_scales_with_sigma_app():
    w = generate_world(6, 400.0, 64)
    clean = render_traverse(w, RouteSpec(spacing=3.0, sigma_app=0.0), seed=2)
    dirty = render_traverse(w, RouteSpec(spacing=3.0, sigma_app=2.5), seed=2)
    sims = []
    for fc, fd in zip(clean.frames, dirty.frames):
        sims.append(float(fc.descriptor @ fd.descriptor))
    # sigma_app 2.5 lands in the hard regime: strongly perturbed but above
    # chance (cosine to the true latent roughly 1/sqrt(1+sigma^2) ~ 0.37)
    assert 0.2 < np.mean(sims) < 0.55
    norms = [np.linalg.norm(f.descriptor) for f in dirty.frames]
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_margin_trims_both_ends():
    w = generate_world(7, 300.0, 8)
    full = render_traverse(w, RouteSpec(spacing=3.0), seed=0)
    trimmed = render_traverse(w, RouteSpec(spacing=3.0, margin_m=12.0), seed=0)
    assert len(trimmed) == len(full) - 8
    first = trimmed.frames[0].gt_pose
    ref = full.frames[4].gt_pose  # 12 m at 3 m spacing
    assert first.dx == pytest.approx(ref.dx)
    assert first.dy == pytest.approx(ref.dy)


def test_detour_replaces_interval_and_flags_frames():
    w = generate_world(8, 600.0, 16)
    det = Detour(start_s=200.0, end_s=280.0, offset_m=14.0)
    route = RouteSpec(spacing=3.0, detours=(det,))
    tr = render_traverse(w, route, seed=3)
    base = render_traverse(w, RouteSpec(spacing=3.0), seed=3)
    # the lateral excursion peaks near the detour midpoint
    dev = []
    for fb, fd in zip(base.frames, tr.frames):
        dev.append(np.hypot(fd.gt_pose.dx - fb.gt_pose.dx, fd.gt_pose.dy - fb.gt_pose.dy))
    dev = np.array(dev[: len(base)])
    assert dev.max() > 10.0
    assert dev[:60].max() < 1e-9  # before 180 m nothing moved


def _displaced(world, detours):
    """The world's positions with each detour's interior samples moved along
    their normals, and a flag per moved sample."""
    pos = world.positions.copy()
    moved = np.zeros(len(pos), dtype=bool)
    for det in detours:
        i0, i1 = round(det.start_s / 0.5), round(det.end_s / 0.5)
        idx = np.arange(i0 + 1, i1)
        prof = det.offset_m * np.sin(math.pi * ((idx - i0) / (i1 - i0)))
        normals = np.stack([-np.sin(world.headings[idx]), np.cos(world.headings[idx])], axis=1)
        pos[idx] = world.positions[idx] + prof[:, None] * normals
        moved[idx] = True
    return pos, moved


@pytest.mark.parametrize(
    "detours",
    [
        (Detour(start_s=200.0, end_s=310.0, offset_m=14.0),),
        # b.start_s == a.end_s: the two share sample 460, which stays on the path
        (Detour(start_s=150.0, end_s=230.0), Detour(start_s=230.0, end_s=300.0, offset_m=8.0)),
        (Detour(start_s=200.0, end_s=201.0),),  # one interior sample
    ],
    ids=["s2-sized", "adjacent", "two-samples"],
)
def test_detour_route_renders_as_the_displaced_path(detours):
    w = generate_world(8, 600.0, 16)
    route = RouteSpec(spacing=3.0, sigma_app=2.5, sigma_xy=0.01, sigma_theta=0.0025,
                      cov_inflation=9.0)
    pos, moved = _displaced(w, detours)
    tr = render_traverse(w, dataclasses.replace(route, detours=detours), seed=3)
    plain = render_traverse(dataclasses.replace(w, positions=pos), route, seed=3)
    assert np.array_equal(tr.gt_poses, plain.gt_poses)
    assert np.array_equal(tr.odom_means, plain.odom_means)
    assert np.array_equal(tr.odom_covs, plain.odom_covs)
    # a frame is on a detour when its nearest route sample was moved
    d2 = ((pos[None, :, :] - tr.gt_poses[:, None, :2]) ** 2).sum(axis=2)
    on_detour = moved[d2.argmin(axis=1)]
    assert on_detour.any() and not on_detour.all()
    assert np.array_equal(tr.descriptors[~on_detour], plain.descriptors[~on_detour])
    assert not (tr.descriptors[on_detour] == plain.descriptors[on_detour]).all(axis=1).any()


def test_detour_descriptors_are_novel():
    w = generate_world(9, 600.0, 32)
    det = Detour(start_s=150.0, end_s=450.0, offset_m=14.0)
    tr = render_traverse(w, RouteSpec(spacing=3.0, detours=(det,)), seed=4)
    base = render_traverse(w, RouteSpec(spacing=3.0), seed=4)
    mid = len(tr.frames) // 2
    sim = float(tr.frames[mid].descriptor @ base.frames[mid].descriptor)
    assert abs(sim) < 0.6  # random unit vector, essentially uncorrelated


def test_detour_validation():
    with pytest.raises(DataError):
        Detour(start_s=10.0, end_s=10.0)
    with pytest.raises(DataError):
        Detour(start_s=0.0, end_s=5.0, offset_m=0.0)


def test_route_spec_validation():
    with pytest.raises(DataError):
        RouteSpec(spacing=0.0)
    with pytest.raises(DataError):
        RouteSpec(sigma_xy=-0.1)
    with pytest.raises(DataError):
        RouteSpec(cov_inflation=0.0)
    with pytest.raises(DataError):
        RouteSpec(margin_m=-1.0)


def test_scenario_spec_roundtrip():
    spec = builtin_scenarios()["S2"]
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec
    s0 = noiseless_scenario()
    assert ScenarioSpec.from_dict(s0.to_dict()) == s0


def test_builtin_scenarios_are_pinned():
    scen = builtin_scenarios()
    assert set(scen) == {"S1", "S2", "S3"}
    s1, s2, s3 = scen["S1"], scen["S2"], scen["S3"]
    assert s1.query.sigma_app == 2.5
    assert s1.query.cov_inflation == 1.0
    assert s2.query.cov_inflation == 9.0
    assert len(s2.query.detours) == 5
    assert s3.query.sigma_xy == pytest.approx(5 * s2.query.sigma_xy)
    assert s1.query.detours == ()
    assert s3.query.detours == ()


def test_simulate_scenario_streams_are_disjoint():
    spec = noiseless_scenario()
    w1, ref1, q1 = simulate_scenario(spec, 0)
    w2, ref2, q2 = simulate_scenario(spec, 0)
    assert np.array_equal(ref1.frames[0].descriptor, ref2.frames[0].descriptor)
    assert np.array_equal(q1.frames[3].descriptor, q2.frames[3].descriptor)
    w3, ref3, q3 = simulate_scenario(spec, 1)
    assert not np.array_equal(w1.latents, w3.latents)


def test_s2_detour_fraction_in_band():
    # roughly one fifth of S2's query arc length is off-map; the labeled
    # fraction varies a little with seed but must stay inside 0.20 +/- 0.03
    from topoloc.evaluate import label_ground_truth
    from topoloc.mapping import build_map

    spec = builtin_scenarios()["S2"]
    for seed in (0, 7, 19):
        _, ref, query = simulate_scenario(spec, seed)
        m = build_map(ref, 2.0, 5)
        labels = label_ground_truth(query, m)
        frac = 1.0 - labels.within_map.mean()
        assert 0.17 <= frac <= 0.23
