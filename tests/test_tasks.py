"""The two end-to-end harnesses: loop-closure detection and wakeup."""

from dataclasses import replace

import numpy as np
import pytest

from topoloc.errors import DataError
from topoloc.evaluate import label_ground_truth
from topoloc.mapping import build_map
from topoloc.measurement import MeasurementParams
from topoloc.motion import MotionParams, TransitionStore
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
_params = PipelineParams(rho=6.0)


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
    fw = run_lcd(_map, _query, PipelineParams(rho=6.0, forward_only=True))
    assert sm.lam == fw.lam
    assert sm.frames[-1].tau == pytest.approx(fw.frames[-1].tau, abs=1e-12)
    assert sm.frames[-1].proposal == fw.frames[-1].proposal


def test_lcd_rejects_dimension_mismatch():
    bad = Traverse(np.ones((1, _map.descriptor_dim + 1)), np.empty((0, 3)), np.empty((0, 3, 3)))
    with pytest.raises(DataError):
        run_lcd(_map, bad, _params)


def test_explicit_lambda_override_skips_calibration():
    p = PipelineParams(lam=0.7)
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
        one = Traverse(_query.descriptors[:1], np.empty((0, 3)), np.empty((0, 3, 3)))
        run_wakeup_batch(_map, one, 3, 0, 5, _params)


def test_wakeup_batch_deterministic_and_ordered():
    a = run_wakeup_batch(_map, _query, 25, 42, 12, _params)
    b = run_wakeup_batch(_map, _query, 25, 42, 12, _params)
    assert [r.start for r in a] == [r.start for r in b]
    assert [r.trial for r in a] == list(range(25))
    c = run_wakeup_batch(_map, _query, 25, 43, 12, _params)
    assert [r.start for r in a] != [r.start for r in c]


@pytest.mark.parametrize("mode", ["full", "no_off", "no_odom"])
def test_wakeup_batch_equals_single_trials(mode):
    # many trials on a short route: overlapping windows and repeated starts;
    # no_odom gathers its steps from a broadcast stack, and never reaches
    # 0.95 here, so it is gated at 0.6 for a mix of outcomes
    tau_thres = 0.6 if mode == "no_odom" else 0.95
    params = replace(_params, mode=mode, tau_thres=tau_thres)
    n_trials, max_steps = 120, 6
    batch = run_wakeup_batch(_map, _query, n_trials, 7, max_steps, params)
    starts = [r.start for r in batch]
    assert len(set(starts)) < n_trials
    assert 0 < sum(r.converged for r in batch) < n_trials
    singles = [
        run_wakeup(_map, _query, s, max_steps, params, trial=i)
        for i, s in enumerate(starts)
    ]
    assert batch == singles
    # a budget past the traverse's end runs to the end, even one beyond int64
    whole = run_wakeup_batch(_map, _query, n_trials, 7, len(_query), params)
    assert run_wakeup_batch(_map, _query, n_trials, 7, 10**19, params) == whole
    assert run_wakeup(_map, _query, starts[0], 10**19, params) == whole[0]


def fresh_query(query: Traverse) -> Traverse:
    """The same columns in a new traverse, whose store holds no step yet."""
    return Traverse(query.descriptors, query.odom_means, query.odom_covs, query.gt_poses)


def covered_frames(batch, max_steps: int, final: int) -> set[int]:
    return {t for r in batch for t in range(r.start, min(r.start + max_steps, final) + 1)}


def trial_steps(batch, max_steps: int, final: int) -> np.ndarray:
    """The odometry rows the trials step through, sorted: row t - 1 is the step into frame t."""
    return np.array(sorted(
        {t for r in batch for t in range(r.start, min(r.start + max_steps, final))}))


def test_wakeup_batch_builds_each_frame_once(monkeypatch):
    # a batch computes the distances of the frames its trials' windows cover in
    # one call over their rows; the query's store builds each step once, in one
    # transition build per batch over exactly the covered steps it lacks
    import topoloc.motion as motion_mod
    import topoloc.tasks as tasks_mod

    builds, measured = [], []
    build = motion_mod.build_transitions
    measure = tasks_mod.descriptor_distances

    def counting_build(map_, odom_means, odom_covs, params):
        builds.append((odom_means, odom_covs))
        return build(map_, odom_means, odom_covs, params)

    def counting_measure(z, map_):
        measured.append(np.array(z))
        return measure(z, map_)

    def assert_one_call(query, frames, new_steps):
        # one 2-D distances call whose rows are these frames' descriptors, each
        # once, and one build over exactly the steps not built before
        assert len(measured) == 1 and measured[0].ndim == 2
        np.testing.assert_array_equal(measured[0], query.descriptors[frames])
        assert len(np.unique(measured[0], axis=0)) == len(frames)
        assert len(builds) == 1
        np.testing.assert_array_equal(builds[0][0], query.odom_means[new_steps])
        np.testing.assert_array_equal(builds[0][1], query.odom_covs[new_steps])
        builds.clear()
        measured.clear()

    monkeypatch.setattr(motion_mod, "build_transitions", counting_build)
    monkeypatch.setattr(tasks_mod, "descriptor_distances", counting_measure)
    max_steps, final = 6, len(_query) - 1
    query = fresh_query(_query)
    first = run_wakeup_batch(_map, query, 40, 7, max_steps, _params)
    covered = sorted(covered_frames(first, max_steps, final))
    assert len(covered) < len(_query)  # the batch leaves frames out, so rows are chosen
    first_steps = trial_steps(first, max_steps, final)
    assert_one_call(query, np.array(covered), first_steps)

    second = run_wakeup_batch(_map, query, 40, 8, max_steps, _params)
    covered = sorted(covered_frames(second, max_steps, final))
    second_steps = trial_steps(second, max_steps, final)
    new_steps = np.setdiff1d(second_steps, first_steps)
    assert 0 < len(new_steps) < len(second_steps)  # the batches overlap, so steps are reused
    assert_one_call(query, np.array(covered), new_steps)

    # a trial alone reads start..start + max_steps and nothing beyond
    query = fresh_query(_query)
    run_wakeup(_map, query, 40, max_steps, _params)
    assert_one_call(query, np.arange(40, 47), np.arange(40, 46))
    # its steps are held now: a second trial over them builds nothing
    run_wakeup(_map, query, 41, max_steps - 1, _params)
    assert builds == []


def test_tasks_ask_for_the_kept_models_before_their_own_arrays(monkeypatch):
    # peak RSS follows allocation order: with the store asked after the
    # likelihoods, lcd-s2 re-faulted about 20 MB per operation, and a wakeup
    # batch's distances made before its stack raised S2 peak RSS by 15 MB
    import topoloc.tasks as tasks_mod

    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(TransitionStore, "stack", recording("stack", TransitionStore.stack))
    for name in ("likelihood_vector", "descriptor_distances"):
        monkeypatch.setattr(tasks_mod, name, recording(name, getattr(tasks_mod, name)))
    run_lcd(_map, fresh_query(_query), _params)
    assert calls == ["stack", "likelihood_vector"]
    calls.clear()
    run_wakeup_batch(_map, fresh_query(_query), 20, 3, 8, _params)
    assert calls == ["stack", "descriptor_distances"]


def test_inference_reads_the_columns_not_the_frame_view(monkeypatch):
    def no_view(self):
        raise AssertionError("Traverse.frames was read")

    monkeypatch.setattr(Traverse, "frames", property(no_view))
    with pytest.raises(AssertionError):
        _query.frames
    assert len(run_lcd(_map, _query, _params).frames) == len(_query)
    assert len(run_lcd(_map, _query, replace(_params, forward_only=True)).frames) == len(_query)
    assert len(run_wakeup_batch(_map, _query, 30, 3, 8, _params)) == 30


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
    from topoloc.motion import build_transitions

    mp = replace(MeasurementParams(), lam=res.lam)
    gs = likelihood_vector(query.descriptors, m, mp)
    transitions = build_transitions(m, query.odom_means, query.odom_covs, MotionParams())
    smoothed = smooth_pass(run_forward(init_belief(m.n_nodes, 0.1), transitions, gs))
    # skip boundary frames: entering and leaving a detour takes a few steps
    core = [
        t
        for t in range(2, len(query) - 2)
        if not labels.within_map[t]
        and not labels.within_map[t - 2]
        and not labels.within_map[t + 2]
    ]
    assert len(core) > 100
    off_mass = smoothed[core, -1]
    assert off_mass.min() > 0.5


def test_no_off_with_zero_prior_matches_forced_gate(monkeypatch):
    # wiring check for the ablation: with no mass starting off the map, the
    # no_off mode must equal the full model with its off gate forced to zero,
    # so the two builds may differ only in that single gate
    import topoloc.motion as motion_mod
    from topoloc.filtering import run_forward, init_belief
    from topoloc.measurement import calibrate_lambda, likelihood_vector
    from topoloc.motion import build_transitions

    spec = builtin_scenarios()["S1"]
    world, ref, query = simulate_scenario(spec, 1)
    m = build_map(ref, 2.0, 5)
    lam = calibrate_lambda(query.descriptors[0], m, 2.718281828459045)
    mp = replace(MeasurementParams(), lam=lam)
    gs = likelihood_vector(query.descriptors[:40], m, mp)
    means, covs = query.odom_means[:39], query.odom_covs[:39]

    ablated = build_transitions(m, means, covs, MotionParams(mode="no_off"))
    monkeypatch.setattr(
        motion_mod,
        "chi2_cdf_3",
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    forced = build_transitions(m, means, covs, MotionParams())
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


def test_lcd_working_set_is_the_stack_the_messages_and_one_distance_table():
    # run_lcd on an S2-sized query, traced from after the query is read (its store
    # empty) with the map's caches filled.  What it must hold at once is the stack,
    # one likelihood and one message array (smoothing writes over the forward
    # messages, taus copy no whole rows) and, inside likelihood_vector, one distance
    # table; plus what each block thread holds of its block, at most five
    # _CHUNK-step arrays of edge columns (_edge_d2's d2, num, den and s, and the
    # softmax's masks).  A separate smoothed array or whole-query tau copies exceed it.
    import pickle
    import tracemalloc

    from topoloc import _blocks, motion

    _, ref, query = simulate_scenario(builtin_scenarios()["S2"], 0)
    m = build_map(ref, 2.0, 5)
    run_lcd(m, pickle.loads(pickle.dumps(query)), PipelineParams())  # a copy with its own store
    n, frames, window = m.n_nodes, len(query), m.window
    stack = (frames - 1) * (window * n * 8 + 16)  # offsets 1 up and to_off; stay, off_self
    messages = 2 * frames * (n + 1) * 8
    distances = frames * n * 8
    scratch = _blocks._WORKERS * 5 * motion._CHUNK * ((window - 1) * n + 1) * 8
    tracemalloc.start()
    try:
        run_lcd(m, query, PipelineParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = stack + messages + distances + scratch
    assert frames > 600 and n > 800
    assert peak <= budget, f"peak {peak / 2**20:.1f} MiB over {budget / 2**20:.1f} MiB"
