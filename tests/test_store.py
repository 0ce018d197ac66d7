"""The per-query transition store: fresh-build bits, keys, lifetime and threads."""

import gc
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topoloc.motion as motion_mod
from topoloc.mapping import build_map
from topoloc.motion import MOTION_MODES, BandKernel, MotionParams, build_transitions
from topoloc.simulate import noiseless_scenario, simulate_scenario
from topoloc.tasks import PipelineParams, run_wakeup_batch
from topoloc.traverse import Traverse

from test_blocks import curvy_problem
from test_motion import banded_problems


def query_of(means, covs) -> Traverse:
    """A traverse over these odometry rows; only its steps matter here."""
    return Traverse(np.ones((len(means) + 1, 4)), means, covs)


def assert_same_models(got, want):
    assert len(got) == len(want)
    assert got.off_self == want.off_self
    for s in range(len(want)):
        assert np.array_equal(got.within_probs[s], want.within_probs[s])
        assert np.array_equal(got.to_off[s], want.to_off[s])
        assert np.array_equal(got[s].valid, want[s].valid)


@settings(max_examples=40, deadline=None)
@given(problem=banded_problems(), mode=st.sampled_from(MOTION_MODES), data=st.data())
def test_store_stacks_equal_a_fresh_build(problem, mode, data):
    # step subsets in any order, repeats included, requested one after another:
    # each stack equals a fresh build of its steps, whichever request built them
    m, means, covs, _ = problem
    query = query_of(means, covs)
    params = MotionParams(mode=mode)
    steps = st.integers(0, len(means) - 1)
    requests = data.draw(st.lists(st.lists(steps, max_size=2 * len(means)), min_size=1, max_size=4))
    band = BandKernel(m.window, m.n_nodes)
    alpha = np.full(m.n_nodes + 1, 1.0 / (m.n_nodes + 1))
    for request in requests:
        got = query.transitions.stack(m, params, request)
        want = build_transitions(m, query.odom_means[request], query.odom_covs[request], params)
        assert_same_models(got, want)
        assert got.off_self == params.off_self
        for s in range(len(request)):
            assert np.array_equal(band.forward(got, s, alpha), band.forward(want, s, alpha))
            assert np.array_equal(band.backward(got, s, alpha), band.backward(want, s, alpha))


def test_store_rejects_steps_outside_the_query():
    m, means, covs, _ = curvy_problem(n_steps=20)
    query = query_of(means, covs)
    for bad in ([len(means)], [-1], [0, len(means)]):
        with pytest.raises(IndexError):
            query.transitions.stack(m, MotionParams(), bad)


def test_motion_params_values_never_share_steps(monkeypatch):
    _, ref, q = simulate_scenario(noiseless_scenario(), 0)
    m = build_map(ref, 2.0, 5)
    query = query_of(q.odom_means[:30], q.odom_covs[:30])
    builds = []
    build = motion_mod.build_transitions

    def counting_build(map_, odom_means, odom_covs, params):
        builds.append(params)
        return build(map_, odom_means, odom_covs, params)

    monkeypatch.setattr(motion_mod, "build_transitions", counting_build)
    steps = list(range(30))
    full = query.transitions.stack(m, MotionParams(), steps)
    assert len(query.transitions.stack(m, MotionParams(), steps[5:])) == 25
    assert builds == [MotionParams()]  # an equal value reads the same steps
    for params in (MotionParams(off_self=0.8), MotionParams(mode="no_off"),
                   MotionParams(mode="no_odom")):
        got = query.transitions.stack(m, params, steps)
        assert builds[-1] == params
        assert_same_models(got, build(m, query.odom_means, query.odom_covs, params))
        assert got.off_self != full.off_self or not all(
            np.array_equal(got.to_off[s], full.to_off[s]) for s in steps)
    assert len(builds) == 4
    # a second map over the same nodes is another key: its steps are its own
    other = build_map(ref, 2.0, 5)
    query.transitions.stack(other, MotionParams(), steps)
    assert len(builds) == 5


def test_dropping_the_query_or_the_map_frees_its_steps():
    m, means, covs, _ = curvy_problem(n_steps=20)
    query = query_of(means, covs)
    held = query.transitions.stack(m, MotionParams(), range(len(means))).within_probs[0].base
    built, store = weakref.ref(held), weakref.ref(query.transitions)
    del held
    gc.collect()
    assert built() is not None  # the store holds the step arrays
    del query
    gc.collect()
    assert store() is None and built() is None

    query = query_of(means, covs)
    built = weakref.ref(query.transitions.stack(m, MotionParams(), [0]).within_probs[0].base)
    map_ref = weakref.ref(m)
    del m
    gc.collect()
    assert map_ref() is None and built() is None  # the query lives on; the map's steps do not


def test_threads_running_batches_on_one_query_agree():
    # more threads than CPUs and frequent switches, all sharing one store
    _, ref, q = simulate_scenario(noiseless_scenario(), 0)
    m = build_map(ref, 2.0, 5)
    params = PipelineParams(rho=6.0)

    def batches(query):
        return [run_wakeup_batch(m, query, 40, seed, 8, params) for seed in (1, 2, 3)]

    want = batches(Traverse(q.descriptors, q.odom_means, q.odom_covs))
    shared = Traverse(q.descriptors, q.odom_means, q.odom_covs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(6) as pool:
            runs = [f.result(timeout=120) for f in [pool.submit(batches, shared) for _ in range(6)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(run == want for run in runs)


def test_a_pickled_query_carries_no_models():
    m, means, covs, _ = curvy_problem(n_steps=20)
    query = query_of(means, covs)
    query.transitions.stack(m, MotionParams(), range(20))
    again = pickle.loads(pickle.dumps(query))
    assert np.array_equal(again.odom_means, query.odom_means)
    assert_same_models(again.transitions.stack(m, MotionParams(), range(20)),
                       build_transitions(m, query.odom_means, query.odom_covs, MotionParams()))
