"""Row blocks across the CPUs: same bits as one serial pass, errors, fork and one-step paths."""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from topoloc import _blocks
from topoloc.bench import run_benchmark
from topoloc.errors import DataError
from topoloc.geometry import Covariance3, OdometryStep, Pose2
from topoloc.mapping import TopometricMap
from topoloc.measurement import MeasurementParams, descriptor_distances, likelihood_vector
from topoloc.motion import (
    _CHUNK,
    MOTION_MODES,
    MotionParams,
    build_transition_model,
    build_transitions,
)

from oracles import relative

STEP_COUNTS = (1, 15, 16, 17, 100)
WORKERS = (1, 2, 3, 5)


class RefusingPool:
    """A pool stub: any work submitted to it fails the test."""

    def submit(self, *args, **kwargs):
        raise AssertionError("work was submitted to the block pool")


@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count, as if the process could run on that many CPUs."""
    return lambda count: monkeypatch.setattr(_blocks, "_WORKERS", count)


@pytest.fixture
def refusing_pool(monkeypatch):
    monkeypatch.setattr(_blocks, "_WORKERS", 4)
    monkeypatch.setattr(_blocks, "_pool", RefusingPool())


def curvy_problem(n=40, window=5, n_steps=100, dim=64, seed=3):
    """A turning map, steps of any heading (wrap guard included) and queries near its rows."""
    rng = np.random.default_rng(seed)
    poses, x, y, h = [], 0.0, 0.0, 0.0
    for _ in range(n):
        h += rng.uniform(-1.2, 1.2)
        x, y = x + 2.0 * np.cos(h), y + 2.0 * np.sin(h)
        poses.append(Pose2(x, y, h))
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for i in range(n):
        for k in range(1, min(window, n - i)):
            band[i, k] = relative(poses[i], poses[i + k]).as_array()
    desc = rng.normal(size=(n, dim)).astype(np.float32)
    m = TopometricMap(desc, band, 2.0)
    means = np.column_stack([
        rng.normal(2.0, 1.0, n_steps), rng.normal(0.0, 0.5, n_steps),
        rng.uniform(-np.pi, np.pi, n_steps),
    ])
    a = rng.normal(scale=0.3, size=(n_steps, 3, 3))
    covs = a @ a.transpose(0, 2, 1) + 0.01 * np.eye(3)
    queries = desc[rng.integers(0, n, n_steps)] + rng.normal(scale=0.2, size=(n_steps, dim))
    queries[::7] = desc[rng.integers(0, n, len(queries[::7]))]  # guarded, difference-form rows
    return m, means, covs, queries.astype(np.float32)


def test_blocks_cover_the_rows_in_order(workers):
    for count in WORKERS:
        workers(count)
        for rows in (0, 1, 15, 16, 17, 33, 100):
            seen = []
            _blocks.run_blocks(lambda lo, hi: seen.append((lo, hi)), rows, 16)
            blocks = [(lo, min(lo + 16, rows)) for lo in range(0, rows, 16)]
            inline = count == 1 or rows <= 16
            assert (seen if inline else sorted(seen)) == blocks


def test_a_slow_thread_takes_fewer_blocks(workers):
    workers(2)
    taken = {}

    def block(lo, hi):
        name = threading.current_thread().name
        taken[name] = taken.get(name, 0) + 1
        if name.startswith("topoloc-block"):
            time.sleep(0.05)

    _blocks.run_blocks(block, 40, 1)
    assert sum(taken.values()) == 40
    assert taken[threading.current_thread().name] > 30


@pytest.mark.parametrize("mode", MOTION_MODES)
def test_stacks_built_in_blocks_equal_the_one_worker_build(workers, mode):
    m, means, covs, _ = curvy_problem()
    params = MotionParams(mode=mode)
    for steps in STEP_COUNTS:
        workers(1)
        want = build_transitions(m, means[:steps], covs[:steps], params)
        for count in WORKERS[1:]:
            workers(count)
            got = build_transitions(m, means[:steps], covs[:steps], params)
            assert np.array_equal(got.within_probs, want.within_probs)
            assert np.array_equal(got.stay, want.stay)
            assert np.array_equal(got.to_off, want.to_off)
            assert got.off_self == want.off_self == params.off_self


def test_distances_in_blocks_equal_the_one_worker_rows(workers):
    m, _, _, queries = curvy_problem()
    for rows in STEP_COUNTS + (31, 32, 33, 65):
        workers(1)
        want = descriptor_distances(queries[:rows], m)
        assert (want == 0.0).any() or rows < 7
        for count in WORKERS[1:]:
            workers(count)
            assert np.array_equal(descriptor_distances(queries[:rows], m), want)


def test_build_raises_the_lowest_failing_steps_error(workers):
    # steps whose d2 overflows (far from every edge under a tiny covariance) in
    # block 0 and in the last block, or in the last block alone
    steps = 2 * _CHUNK + 3
    m, means, covs, _ = curvy_problem(n_steps=steps)
    for count in range(1, 5):
        workers(count)
        for failing in ([5, steps - 1], [steps - 1]):
            bad_means, bad_covs = means.copy(), covs.copy()
            bad_means[failing] = [[10.0 * s, 0.0, 0.0] for s in failing]
            bad_covs[failing] = 1e-306 * np.eye(3)
            with pytest.raises(DataError) as err:
                build_transitions(m, bad_means, bad_covs, MotionParams())
            assert str(err.value).startswith(f"odometry step [{10.0 * failing[0]}, 0.0, 0.0] ")


def test_run_blocks_raises_the_lowest_blocks_exception(workers):
    workers(4)
    ran = []

    def fail_some(lo, hi):
        ran.append(lo)
        if lo in (2, 5):
            raise KeyError(lo)

    with pytest.raises(KeyError) as err:
        _blocks.run_blocks(fail_some, 64, 1)
    assert err.value.args == (2,)
    assert {0, 1, 2} <= set(ran) and len(ran) < 64  # blocks stop being taken after an error

    # blocks 0 and 1 both fail, on two threads, block 1 first
    workers(2)
    failed_1 = threading.Event()

    def fail_both(lo, hi):
        if lo == 0:
            assert failed_1.wait(timeout=30)
        else:
            failed_1.set()
        raise KeyError(lo)

    with pytest.raises(KeyError) as err:
        _blocks.run_blocks(fail_both, 2, 1)
    assert err.value.args == (0,)


def test_concurrent_callers_share_the_pool(workers):
    # more workers than CPUs, several callers at once, and frequent thread switches
    workers(5)
    m, means, covs, queries = curvy_problem()

    def call():
        return (build_transitions(m, means, covs, MotionParams()).within_probs,
                descriptor_distances(queries, m))

    want = call()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as callers:
            results = [f.result(timeout=120) for f in [callers.submit(call) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    for within, dists in results:
        assert np.array_equal(within, want[0])
        assert np.array_equal(dists, want[1])


def _build_in_child(m, means, covs, want):
    got = build_transitions(m, means, covs, MotionParams())
    assert np.array_equal(got.within_probs, want)


def test_forked_child_builds_in_blocks(workers):
    workers(2)
    m, means, covs, _ = curvy_problem()
    want = build_transitions(m, means, covs, MotionParams()).within_probs
    assert _blocks._pool is not None  # the parent's pool exists when the child forks
    child = multiprocessing.get_context("fork").Process(
        target=_build_in_child, args=(m, means, covs, want)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung building in blocks")
    assert child.exitcode == 0


def test_one_step_paths_stay_inline(refusing_pool):
    m, means, covs, queries = curvy_problem()
    odom = OdometryStep(Pose2(*means[0]), Covariance3(covs[0]))
    for mode in MOTION_MODES:
        build_transition_model(m, odom, MotionParams(mode=mode))
        build_transitions(m, means[:16], covs[:16], MotionParams(mode=mode))
    descriptor_distances(queries[0], m)
    descriptor_distances(queries[:1], m)
    likelihood_vector(queries[0], m, MeasurementParams(lam=1.0))
    run_benchmark(n_nodes=200, dim=16, repeats=3)
    # and a stack of two blocks does submit
    with pytest.raises(AssertionError, match="submitted"):
        build_transitions(m, means[:17], covs[:17], MotionParams())
    with pytest.raises(AssertionError, match="submitted"):
        descriptor_distances(queries[:33], m)
