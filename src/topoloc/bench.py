"""Per-stage timing of the inference hot path on a synthetic problem.

The benchmark times the four per-step stages in isolation, each as the
whole-query passes run it: building one step's transition stack from an
odometry row, evaluating the measurement likelihood, one forward update as
``run_forward`` makes it, and one backward update as ``smooth_pass`` makes
it, both through one :class:`~topoloc.motion.BandKernel` per run.  The map is
a straight line at fixed spacing so problem size is controlled exactly.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import ConfigError
from .filtering import _normalize, forward_init, init_belief
from .mapping import TopometricMap
from .measurement import MeasurementParams, likelihood_vector
from .motion import BandKernel, MotionParams, build_transitions

__all__ = ["make_synthetic_problem", "run_benchmark"]

_STREAM_BENCH = 3


def make_synthetic_problem(
    n_nodes: int, dim: int, window: int = 5, seed: int = 0, n_inputs: int = 1
):
    """A straight-line map plus ``n_inputs`` odometry steps and query descriptors.

    Returns ``(map_, means, covs, queries)``: the odometry as a traverse
    holds it, ``(n_inputs, 3)`` means and ``(n_inputs, 3, 3)`` covariances,
    and the float32 ``(n_inputs, dim)`` query descriptors.
    """
    if not (2 <= window <= n_nodes and dim >= 1 and n_inputs >= 1 and seed >= 0):
        raise ConfigError(
            "need 2 <= window <= n_nodes, dim >= 1, n_inputs >= 1, seed >= 0"
        )
    rng = np.random.default_rng([int(seed), _STREAM_BENCH])
    spacing = 2.0

    descriptors = rng.standard_normal((n_nodes, dim))
    descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
    descriptors = descriptors.astype(np.float32)

    band = np.full((n_nodes, window, 3), np.nan)
    for k in range(window):
        band[: n_nodes - k, k] = (spacing * k, 0.0, 0.0)
    map_ = TopometricMap(descriptors, band, node_spacing=spacing)

    means = rng.normal(scale=(0.05, 0.05, 0.01), size=(n_inputs, 3)) + (spacing, 0.0, 0.0)
    covs = np.broadcast_to(np.diag([0.05**2, 0.05**2, 0.02**2]), (n_inputs, 3, 3))

    nodes = rng.integers(0, n_nodes, size=n_inputs)
    noise = 0.1 * rng.standard_normal((n_inputs, dim))
    queries = map_.descriptors_f64[nodes] + noise
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return map_, means, covs, queries.astype(np.float32)


def run_benchmark(
    n_nodes: int = 3000,
    dim: int = 64,
    repeats: int = 50,
    seed: int = 0,
    window: int = 5,
) -> dict:
    """Time each per-step stage ``repeats`` times and summarize in milliseconds."""
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    map_, means, covs, queries = make_synthetic_problem(
        n_nodes, dim, window=window, seed=seed, n_inputs=repeats
    )
    motion_params = MotionParams()
    meas_params = MeasurementParams(lam=1.0)

    # fill the per-map caches (edge_geometry, edge_features), BLAS and the kernel's scratch
    # outside the timed region; one kernel per run, as each pass holds one
    stack = build_transitions(map_, means[:1], covs[:1], motion_params)
    g = likelihood_vector(queries[0], map_, meas_params)
    band = BandKernel(map_.window, map_.n_nodes)
    alpha, _ = forward_init(init_belief(map_.n_nodes, 0.1), g)
    beta = np.ones(map_.n_nodes + 1)  # the terminal message: later ones cost the same
    band.forward(stack, 0, alpha)
    band.backward(stack, 0, beta)

    ticks = np.empty((repeats, 5))  # before and after each stage
    for r in range(repeats):
        ticks[r, 0] = time.perf_counter()
        stack = build_transitions(map_, means[r : r + 1], covs[r : r + 1], motion_params)
        ticks[r, 1] = time.perf_counter()
        g = likelihood_vector(queries[r], map_, meas_params)
        ticks[r, 2] = time.perf_counter()
        raw = band.forward(stack, 0, alpha)
        raw *= g
        alpha, c = _normalize(raw, step=None)
        ticks[r, 3] = time.perf_counter()
        band.backward(stack, 0, g * beta) / c
        ticks[r, 4] = time.perf_counter()

    ms = dict(zip(("motion", "measurement", "forward", "backward"), 1e3 * np.diff(ticks).T))
    stages = {k: {"mean_ms": float(a.mean()), "max_ms": float(a.max())} for k, a in ms.items()}
    total_mean = sum(s["mean_ms"] for s in stages.values())
    return {
        "n_nodes": n_nodes,
        "dim": dim,
        "window": window,
        "repeats": repeats,
        "stages": stages,
        "total_mean_ms": total_mean,
        "backward_over_forward": stages["backward"]["mean_ms"]
        / stages["forward"]["mean_ms"],
    }
