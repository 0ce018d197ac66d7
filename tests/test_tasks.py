"""The two end-to-end harnesses: loop-closure detection and wakeup."""

import collections

import numpy as np
import pytest

from topoloc.errors import DataError
from topoloc.evaluate import label_ground_truth
from topoloc.mapping import build_map
from topoloc.measurement import MeasurementParams
from topoloc.motion import MotionParams
from topoloc.simulate import builtin_scenarios, noiseless_scenario, simulate_scenario
from topoloc.tasks import (
    PipelineParams,
    run_lcd,
    run_wakeup,
    run_wakeup_batch,
)
from topoloc.traverse import Traverse

# one small rendered scenario shared by most tests in this module
_spec = noiseless_scenario()
_world, _ref, _query = simulate_scenario(_spec, 0)
_map = build_map(_ref, 2.0, 5)
_params = PipelineParams(measurement=MeasurementParams(rho=6.0))


def test_lcd_result_shape_and_lambda():
    res = run_lcd(_map, _query, _params)
    assert len(res.frames) == len(_query)
    assert res.lam > 0.0
    assert res.frames[0].t == 0
    assert res.frames[-1].t == len(_query) - 1
    taus = res.taus()
    assert taus.shape == (len(_query),)
    assert np.all((0.0 <= taus) & (taus <= 1.0 + 1e-12))


def test_lcd_tracks_noiseless_query():
    res = run_lcd(_map, _query, _params)
    labels = label_ground_truth(_query, _map)
    hits = sum(
        1 for t, fr in enumerate(res.frames) if fr.proposal in labels.ok_nodes[t]
    )
    assert hits == len(_query)


def test_forward_only_differs_only_in_belief_source():
    # both modes run the same models and measurements; the final frame has no
    # future evidence so its smoothed and filtered beliefs coincide
    sm = run_lcd(_map, _query, _params)
    fw = run_lcd(_map, _query, PipelineParams(
        measurement=MeasurementParams(rho=6.0), forward_only=True
    ))
    assert sm.lam == fw.lam
    assert sm.frames[-1].tau == pytest.approx(fw.frames[-1].tau, abs=1e-12)
    assert sm.frames[-1].proposal == fw.frames[-1].proposal


def test_lcd_rejects_dimension_mismatch():
    from topoloc.traverse import Frame, Traverse

    bad = Traverse(
        [Frame(np.zeros(_map.descriptor_dim + 1, dtype=np.float32))]
    )
    with pytest.raises(DataError):
        run_lcd(_map, bad, _params)


def test_explicit_lambda_override_skips_calibration():
    p = PipelineParams(measurement=MeasurementParams(lam=0.7))
    res = run_lcd(_map, _query, p)
    assert res.lam == 0.7


def test_wakeup_single_trial_counts_steps_and_distance():
    start = 100
    r = run_wakeup(_map, _query, start, 15, _params)
    assert r.start == start
    assert r.converged
    assert 1 <= r.steps_used <= 15
    # distance: steps at 3 m spacing, within a couple of percent
    assert r.distance_traveled == pytest.approx(3.0 * r.steps_used, rel=0.05)
    labels = label_ground_truth(_query, _map)
    assert r.proposal in labels.ok_nodes[start + r.steps_used]


def test_wakeup_stops_at_first_convergence():
    r = run_wakeup(_map, _query, 50, 30, _params)
    shorter = run_wakeup(_map, _query, 50, r.steps_used, _params)
    assert shorter.converged and shorter.steps_used == r.steps_used


def test_wakeup_non_convergent_budget():
    r = run_wakeup(_map, _query, 200, 1, PipelineParams())
    # a single default-contrast step cannot concentrate 95% of the mass
    assert not r.converged
    assert r.steps_used == 1
    assert r.proposal is None or isinstance(r.proposal, int)


def test_wakeup_validates_start():
    with pytest.raises(DataError):
        run_wakeup(_map, _query, len(_query) - 1, 5, _params)
    with pytest.raises(DataError):
        run_wakeup(_map, _query, -1, 5, _params)
    with pytest.raises(DataError):
        run_wakeup(_map, _query, 0, 0, _params)
    with pytest.raises(DataError):
        run_wakeup_batch(_map, Traverse(_query.frames[:1]), 3, 0, 5, _params)


def test_wakeup_batch_deterministic_and_ordered():
    a = run_wakeup_batch(_map, _query, 25, 42, 12, _params)
    b = run_wakeup_batch(_map, _query, 25, 42, 12, _params)
    assert [r.start for r in a] == [r.start for r in b]
    assert [r.trial for r in a] == list(range(25))
    c = run_wakeup_batch(_map, _query, 25, 43, 12, _params)
    assert [r.start for r in a] != [r.start for r in c]


def test_wakeup_batch_equals_single_trials():
    # many trials on a short route: overlapping windows and repeated starts
    n_trials, max_steps = 120, 6
    batch = run_wakeup_batch(_map, _query, n_trials, 7, max_steps, _params)
    starts = [r.start for r in batch]
    assert len(set(starts)) < n_trials
    assert 0 < sum(r.converged for r in batch) < n_trials
    singles = [
        run_wakeup(_map, _query, s, max_steps, _params, trial=i)
        for i, s in enumerate(starts)
    ]
    assert batch == singles


def test_wakeup_batch_builds_each_frame_once(monkeypatch):
    import topoloc.tasks as tasks_mod

    built = collections.Counter()
    original = tasks_mod.build_transition_model

    def counting(map_, odom, params):
        built[id(odom)] += 1
        return original(map_, odom, params)

    monkeypatch.setattr(tasks_mod, "build_transition_model", counting)
    batch = run_wakeup_batch(_map, _query, 120, 7, 6, _params)
    covered = {
        id(_query.frames[t].odom)
        for r in batch
        for t in range(r.start + 1, r.start + r.steps_used + 1)
    }
    assert set(built) == covered
    assert max(built.values()) == 1


def test_wakeup_batch_starts_cover_route():
    rs = run_wakeup_batch(_map, _query, 200, 0, 1, PipelineParams())
    starts = np.array([r.start for r in rs])
    assert starts.min() >= 0
    assert starts.max() <= len(_query) - 2
    assert starts.std() > len(_query) / 6  # roughly uniform, not clustered


def test_detour_pushes_mass_off_map():
    # regression pinned to S2 seed 0: while ground truth is off the map the
    # smoothed posterior keeps most of its mass in the off state
    spec = builtin_scenarios()["S2"]
    world, ref, query = simulate_scenario(spec, 0)
    m = build_map(ref, 2.0, 5)
    labels = label_ground_truth(query, m)
    res = run_lcd(m, query, PipelineParams())
    from topoloc.filtering import smooth_pass, run_forward, init_belief
    from topoloc.measurement import likelihood_vector
    from topoloc.motion import build_transition_model
    from dataclasses import replace

    mp = replace(MeasurementParams(), lam=res.lam)
    gs = [likelihood_vector(f.descriptor, m, mp) for f in query.frames]
    models = [
        build_transition_model(m, f.odom, MotionParams()) for f in query.frames[1:]
    ]
    smoothed = smooth_pass(run_forward(init_belief(m.n_nodes, 0.1), models, gs))
    # skip boundary frames: entering and leaving a detour takes a few steps
    core = [
        t
        for t in range(2, len(query) - 2)
        if not labels.within_map[t]
        and not labels.within_map[t - 2]
        and not labels.within_map[t + 2]
    ]
    assert len(core) > 100
    off_mass = np.array([smoothed[t].off for t in core])
    assert off_mass.min() > 0.5


def test_no_off_with_zero_prior_matches_forced_gate(monkeypatch):
    # wiring check for the ablation: with no mass starting off the map, the
    # no_off mode must equal the full model with its off gate forced to zero,
    # so the two builds may differ only in that single gate
    import topoloc.motion as motion_mod
    from topoloc.filtering import run_forward, init_belief
    from topoloc.measurement import calibrate_lambda, likelihood_vector
    from topoloc.motion import build_transition_model
    from dataclasses import replace

    spec = builtin_scenarios()["S1"]
    world, ref, query = simulate_scenario(spec, 1)
    m = build_map(ref, 2.0, 5)
    sub = query.frames[:40]
    lam = calibrate_lambda(sub[0].descriptor, m, 2.718281828459045)
    mp = replace(MeasurementParams(), lam=lam)
    gs = [likelihood_vector(f.descriptor, m, mp) for f in sub]

    ablated = [
        build_transition_model(m, f.odom, MotionParams(mode="no_off")) for f in sub[1:]
    ]
    monkeypatch.setattr(
        motion_mod,
        "chi2_cdf_3",
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    forced = [
        build_transition_model(m, f.odom, MotionParams()) for f in sub[1:]
    ]
    ta = run_forward(init_belief(m.n_nodes, 0.0), ablated, gs)
    tf = run_forward(init_belief(m.n_nodes, 0.0), forced, gs)
    for a, b in zip(ta.alphas, tf.alphas):
        assert np.abs(a - b).max() < 1e-12
        assert a[-1] == 0.0  # the off state never gains mass


def test_pipeline_params_validation():
    with pytest.raises(ValueError):
        PipelineParams(p0_off=1.0)
    with pytest.raises(ValueError):
        PipelineParams(tau_thres=1.5)
    with pytest.raises(ValueError):
        PipelineParams(radius_m=-1.0)
