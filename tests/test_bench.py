"""The timing harness: synthetic problem generation and report structure."""

import numpy as np
import pytest

import topoloc.bench as bench_mod
from topoloc.bench import make_synthetic_problem, run_benchmark
from topoloc.geometry import validated_covariances
from topoloc.motion import BandKernel, TransitionModel, build_transitions


def test_synthetic_problem_shapes_and_determinism():
    m1, means1, covs1, q1 = make_synthetic_problem(200, 16, window=4, seed=9, n_inputs=3)
    m2, means2, covs2, q2 = make_synthetic_problem(200, 16, window=4, seed=9, n_inputs=3)
    assert m1.n_nodes == 200
    assert m1.window == 4
    assert m1.descriptor_dim == 16
    assert q1.shape == (3, 16) and q1.dtype == np.float32
    assert means1.shape == (3, 3) and covs1.shape == (3, 3, 3)
    np.testing.assert_array_equal(validated_covariances(covs1, str), covs1)
    np.testing.assert_array_equal(m1.descriptors, m2.descriptors)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(means1, means2)
    np.testing.assert_array_equal(covs1, covs2)

    m3, _, _, q3 = make_synthetic_problem(200, 16, window=4, seed=10, n_inputs=3)
    assert not np.array_equal(q1, q3)


def test_synthetic_problem_descriptors_unit_norm():
    m, _, _, queries = make_synthetic_problem(64, 8, n_inputs=5)
    norms = np.linalg.norm(m.descriptors_f64, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    np.testing.assert_allclose(np.linalg.norm(queries, axis=1), 1.0, atol=1e-6)


def test_synthetic_problem_validation():
    with pytest.raises(ValueError):
        make_synthetic_problem(3, 8, window=5)
    with pytest.raises(ValueError):
        make_synthetic_problem(100, 0)
    with pytest.raises(ValueError):
        run_benchmark(repeats=0)


def test_benchmark_report_structure():
    report = run_benchmark(n_nodes=300, dim=16, repeats=5, seed=1)
    assert report["n_nodes"] == 300
    assert report["repeats"] == 5
    assert set(report["stages"]) == {"motion", "measurement", "forward", "backward"}
    for stage in report["stages"].values():
        assert 0.0 < stage["mean_ms"] <= stage["max_ms"]
    total = sum(s["mean_ms"] for s in report["stages"].values())
    assert report["total_mean_ms"] == pytest.approx(total)
    assert report["backward_over_forward"] > 0.0


def test_benchmark_times_the_stack_path(monkeypatch):
    # the passes' path: one kernel per run, one stack built per repeat plus the
    # warm-up, and no one-step model anywhere
    kernels, builds = [], []

    class CountingKernel(BandKernel):
        def __init__(self, window, n):
            kernels.append((window, n))
            super().__init__(window, n)

    def counting_build(*args):
        builds.append(args)
        return build_transitions(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a TransitionModel method ran")

    monkeypatch.setattr(bench_mod, "BandKernel", CountingKernel)
    monkeypatch.setattr(bench_mod, "build_transitions", counting_build)
    for name in ("__init__", "propagate"):
        monkeypatch.setattr(TransitionModel, name, refuse)
    run_benchmark(n_nodes=200, dim=16, repeats=7, window=4)
    assert kernels == [(4, 200)]
    assert len(builds) == 8 and all(len(args[1]) == 1 for args in builds)
