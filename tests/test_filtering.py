"""Forward filtering, backward smoothing, and convergence detection.

The heavy checks compare against the path-enumeration oracle in
``oracles.py``; the rest pin down the belief container's invariants and the
decision rule's boundary conventions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoloc.errors import MeasurementDegenerateError
from topoloc.filtering import (
    Belief,
    FilterTrace,
    convergence_scores,
    decide,
    forward_init,
    forward_step,
    init_belief,
    run_forward,
    smooth_pass,
    tau_half_width,
)
from topoloc.geometry import Pose2
from topoloc.mapping import TopometricMap, build_map
from topoloc.measurement import MeasurementParams, calibrate_lambda, likelihood_vector
from topoloc.motion import MotionParams, build_transitions
from topoloc.simulate import builtin_scenarios, simulate_scenario

from oracles import (
    band_stack,
    enumerate_marginals,
    full_band,
    padded_convergence_scores,
    random_banded_model,
    slice_forward_backward,
    to_dense,
)


def dense_to_stack(transitions, n, window=3):
    """The oracle's dense matrices, which share one edge set and ``off_self``, as a stack."""
    band = np.zeros((len(transitions), window, n))
    for s, m in enumerate(transitions):
        for i in range(n):
            for k in range(min(window, n - i)):
                band[s, k, i] = m[i, i + k]
    valid = (band != 0.0).any(axis=0)
    valid[0, -1] = True  # without steps, offset 0 of the final node alone
    to_off = np.reshape([m[:n, n] for m in transitions], (-1, n))
    return band_stack(band, to_off, transitions[0][n, n] if transitions else 0.9, valid)


def line_map(n, spacing=2.0):
    rng = np.random.default_rng(0)
    desc = rng.normal(size=(n, 8)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    window = 3
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for k in range(1, window):
        band[: n - k, k, 0] = spacing * k
        band[: n - k, k, 1] = 0.0
        band[: n - k, k, 2] = 0.0
    gt = np.stack([np.arange(n) * spacing, np.zeros(n), np.zeros(n)], axis=1)
    return TopometricMap(desc, band, spacing, gt_poses=gt)


def test_init_belief_examples():
    b = init_belief(4, 0.0)
    assert np.allclose(b.within, 0.25)
    assert b.off == 0.0
    b2 = init_belief(2, 0.5)
    assert np.allclose(b2.within, 0.25)
    assert b2.off == 0.5


def test_belief_validation():
    with pytest.raises(ValueError):
        Belief(np.array([0.5, 0.6]), 0.0)  # sums to 1.1
    with pytest.raises(ValueError):
        Belief(np.array([-0.1, 1.1]), 0.0)
    v = Belief(np.array([0.7, 0.2]), 0.1).vector
    assert v.shape == (3,)
    assert v[-1] == pytest.approx(0.1)


def test_forward_matches_enumeration_small():
    rng = np.random.default_rng(11)
    prior, transitions, likelihoods = random_banded_model(rng, n=4, t_steps=3)
    trace = run_forward(
        Belief.from_vector(prior), dense_to_stack(transitions, 4), likelihoods
    )
    ref_filtered, ref_smoothed, ref_evidence = enumerate_marginals(
        prior, transitions, likelihoods
    )
    for t in range(4):
        assert np.abs(trace.alphas[t] - ref_filtered[t]).max() < 1e-12
    assert trace.log_evidence() == pytest.approx(np.log(ref_evidence), rel=1e-12)
    smoothed = smooth_pass(trace)
    for t in range(4):
        assert np.abs(smoothed[t] - ref_smoothed[t]).max() < 1e-12


def test_smoothed_equals_enumeration_5_state():
    # the 5-within-state, T=4 configuration mirrors an exhaustive 5^5-path
    # hand check; the oracle enumerates so the tolerance can be tight
    rng = np.random.default_rng(23)
    prior, transitions, likelihoods = random_banded_model(rng, n=5, t_steps=4)
    trace = run_forward(Belief.from_vector(prior), dense_to_stack(transitions, 5), likelihoods)
    _, ref_smoothed, _ = enumerate_marginals(prior, transitions, likelihoods)
    smoothed = smooth_pass(trace)
    for t in range(5):
        assert np.abs(smoothed[t] - ref_smoothed[t]).max() < 1e-10


def test_single_frame_smoothed_is_posterior_of_prior():
    prior = init_belief(3, 0.25)
    g0 = np.array([0.2, 0.9, 0.1, 0.3])
    trace = run_forward(prior, dense_to_stack([], 3), [g0])
    smoothed = smooth_pass(trace)
    expected = prior.vector * g0
    expected /= expected.sum()
    assert len(smoothed) == 1
    assert np.allclose(smoothed[0], expected, atol=1e-15)


def test_uninformative_future_leaves_filtered_untouched():
    # uniform likelihoods and a doubly stochastic transition carry no
    # information backward, so smoothing must reproduce filtering exactly.
    # With the forward-only band the smallest doubly stochastic instance is
    # one node plus off: node keeps a, leaks 1-a; off returns 1-a, keeps a.
    a = 0.7
    model = band_stack([[[a]]], [[1.0 - a]], a, [[True]])[0]
    dense = to_dense(model)
    assert np.allclose(dense.sum(axis=0), 1.0) and np.allclose(dense.sum(axis=1), 1.0)
    prior = init_belief(1, 0.35)
    g_first = np.array([0.8, 0.2])
    uniform = np.ones(2)
    stack = band_stack([full_band(model)] * 2, [model.to_off] * 2, a, model.valid)
    trace = run_forward(prior, stack, [g_first, uniform, uniform])
    filtered = trace.alphas.copy()  # smoothing writes over the forward messages
    smoothed = smooth_pass(trace)
    for t in range(3):
        assert np.allclose(smoothed[t], filtered[t], atol=1e-12)


def test_likelihood_scale_invariance():
    rng = np.random.default_rng(5)
    prior, transitions, likelihoods = random_banded_model(rng, n=5, t_steps=4)
    stack = dense_to_stack(transitions, 5)
    scaled = [g * s for g, s in zip(likelihoods, (7.0, 1e-3, 40.0, 2.0, 1e4))]
    a = smooth_pass(run_forward(Belief.from_vector(prior), stack, likelihoods))
    b = smooth_pass(run_forward(Belief.from_vector(prior), stack, scaled))
    assert np.abs(a - b).max() < 1e-12


def test_smoothing_writes_over_the_forward_messages():
    rng = np.random.default_rng(29)
    prior, transitions, likelihoods = random_banded_model(rng, n=5, t_steps=6)
    stack = dense_to_stack(transitions, 5)
    trace = run_forward(Belief.from_vector(prior), stack, likelihoods)
    scales, evidence = trace.scales.copy(), trace.log_evidence()
    smoothed = smooth_pass(trace)
    assert smoothed is trace.alphas
    assert np.array_equal(trace.scales, scales) and trace.log_evidence() == evidence
    _, want_scales, want_smoothed = slice_forward_backward(
        prior, stack, np.asarray(likelihoods)
    )
    assert np.array_equal(want_scales, scales)
    assert np.array_equal(smoothed, want_smoothed)


def test_vanished_smoothed_mass_names_its_step():
    # node 0 moves to node 1 for sure, and frame 1 rules node 1 out: a trace no
    # forward pass makes, whose smoothed mass at step 0 is exactly zero
    stack = band_stack(
        [[[0.0, 1.0], [1.0, 0.0]]], [[0.0, 0.0]], 0.5, [[False, True], [True, False]]
    )
    alphas = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    trace = FilterTrace(alphas, np.ones(2), stack, np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
    with pytest.raises(MeasurementDegenerateError, match="smoothed mass vanished at step 0") as err:
        smooth_pass(trace)
    assert err.value.step == 0


def test_forward_step_normalizes_and_reports_scale():
    prior = init_belief(3, 0.0)
    g0 = np.array([1.0, 2.0, 1.0, 0.5])
    alpha0, c0 = forward_init(prior, g0)
    assert alpha0.sum() == pytest.approx(1.0)
    assert c0 == pytest.approx(float(prior.vector @ g0))
    model = dense_to_stack(random_banded_model(np.random.default_rng(1), n=3, t_steps=1)[1], 3)[0]
    alpha1, c1 = forward_step(alpha0, model, np.array([0.3, 0.3, 0.4, 0.1]))
    assert alpha1.sum() == pytest.approx(1.0)
    assert c1 > 0.0


def test_zero_likelihood_raises_degenerate():
    prior = init_belief(2, 0.0)
    with pytest.raises(MeasurementDegenerateError):
        forward_init(prior, np.zeros(3))


def test_trace_length_mismatch_rejected():
    prior = init_belief(2, 0.0)
    g = np.ones(3)
    with pytest.raises(ValueError):
        run_forward(prior, dense_to_stack([], 2), [g, g])  # two likelihoods, no step


def test_beliefs_normalized_across_random_runs():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        t_steps = int(rng.integers(0, 5))
        prior, transitions, likelihoods = random_banded_model(rng, n=n, t_steps=t_steps)
        stack = dense_to_stack(transitions, n)
        trace = run_forward(Belief.from_vector(prior), stack, likelihoods)
        for alpha in trace.alphas:
            assert abs(alpha.sum() - 1.0) < 1e-9
        for b in smooth_pass(trace):
            assert abs(b.sum() - 1.0) < 1e-9


def test_final_smoothed_equals_final_filtered():
    rng = np.random.default_rng(13)
    prior, transitions, likelihoods = random_banded_model(rng, n=4, t_steps=4)
    trace = run_forward(Belief.from_vector(prior), dense_to_stack(transitions, 4), likelihoods)
    filtered = trace.alphas.copy()  # smoothing writes over the forward messages
    smoothed = smooth_pass(trace)
    assert np.allclose(smoothed[-1], filtered[-1], atol=1e-12)


def test_convergence_score_window_and_mode():
    m = line_map(9, spacing=2.0)
    within = np.zeros(9)
    within[4] = 0.6
    within[5] = 0.2
    within[2] = 0.1
    b = Belief(within / within.sum() * 0.9, 0.1)
    (mode,), (tau,) = convergence_scores(b.within[None], m, radius_m=3.0)
    assert mode == 4
    # half width floor(3/2 + 0.5) = 2 covers nodes 2..6
    assert tau == pytest.approx((0.6 + 0.2 + 0.1) / 0.9 * 0.9)


def test_convergence_ignores_off_mass_in_numerator():
    m = line_map(5)
    b = Belief(np.full(5, 0.002), 0.99)
    _, (tau,) = convergence_scores(b.within[None], m, radius_m=3.0)
    assert tau < 0.01
    d = decide(b, m, radius_m=3.0, tau_thres=0.01)
    assert not d.converged
    assert d.mode == 0  # the mode is still reported, only not proposed


def test_decide_strict_threshold():
    m = line_map(3)
    b = Belief(np.array([0.9, 0.0, 0.0]), 0.1)
    d = decide(b, m, radius_m=3.0, tau_thres=0.9)
    assert not d.converged  # tau == threshold is not enough
    d2 = decide(b, m, radius_m=3.0, tau_thres=0.89)
    assert d2.converged
    assert d2.mode == 0


def test_argmax_tie_goes_to_lowest_index():
    m = line_map(4)
    b = Belief(np.array([0.3, 0.3, 0.2, 0.2]), 0.0)
    (mode,), _ = convergence_scores(b.within[None], m, radius_m=0.0)
    assert mode == 0


def test_filter_trace_evidence_is_scale_product():
    prior = init_belief(3, 0.0)
    g = np.array([0.5, 0.25, 0.2, 0.05])
    trace = run_forward(prior, dense_to_stack([], 3), [g])
    assert trace.log_evidence() == pytest.approx(np.log(float(prior.vector @ g)))
    assert isinstance(trace, FilterTrace)


def test_log_evidence_stays_finite_where_the_scale_product_underflows():
    # an S2-sized query: 671 scale constants below one multiply to 0.0
    _, ref, query = simulate_scenario(builtin_scenarios()["S2"], 0)
    m = build_map(ref, 2.0, 5)
    meas = MeasurementParams(lam=calibrate_lambda(query.descriptors[0], m, math.e))
    trace = run_forward(
        init_belief(m.n_nodes, 0.1),
        build_transitions(m, query.odom_means, query.odom_covs, MotionParams()),
        likelihood_vector(query.descriptors, m, meas),
    )
    assert len(trace.scales) == len(query) > 600
    assert np.prod(trace.scales) == 0.0
    assert np.isfinite(trace.log_evidence())
    assert trace.log_evidence() == np.log(trace.scales).sum()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), t_steps=st.integers(0, 4)
)
def test_stacked_forward_backward_matches_enumeration(seed, n, t_steps):
    prior, transitions, likelihoods = random_banded_model(
        np.random.default_rng(seed), n, t_steps
    )
    ref_filtered, ref_smoothed, ref_evidence = enumerate_marginals(
        prior, transitions, likelihoods
    )
    trace = run_forward(
        Belief.from_vector(prior), dense_to_stack(transitions, n), likelihoods
    )
    assert np.abs(trace.alphas - ref_filtered).max() < 1e-12
    assert np.abs(smooth_pass(trace) - ref_smoothed).max() < 1e-10
    assert trace.log_evidence() == pytest.approx(np.log(ref_evidence), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    rows=st.integers(1, 6),
    radius=st.floats(0.0, 40.0),
)
def test_convergence_scores_sum_each_window_in_index_order(seed, n, rows, radius):
    rng = np.random.default_rng(seed)
    within = rng.uniform(size=(rows, n)) * rng.uniform(size=(rows, 1))
    modes, taus = convergence_scores(within, line_map(n), radius)
    half = math.floor(radius / 2.0 + 0.5)
    for row, mode, tau in zip(within, modes, taus):
        assert mode == np.argmax(row)
        assert tau == np.add.accumulate(row[max(0, mode - half) : mode + half + 1])[-1]


def convergence_cases():
    """``(within, map, radius_m)`` cases: ties, modes at both ends, a clamped half-width,
    one node, and the strided ``(T, N + 1)[:, :-1]`` rows that ``run_lcd`` passes."""
    rng = np.random.default_rng(41)
    ties = rng.integers(0, 3, size=(150, 9)) / 4.0  # more rows than one argmax block
    ends = rng.uniform(0.0, 0.1, size=(4, 9))
    ends[[0, 1], 0] = 1.0
    ends[[2, 3], -1] = 1.0
    beliefs = rng.uniform(size=(130, 10))
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    return [
        (ties, line_map(9), 3.0),
        (ties, line_map(9), 0.0),
        (ends, line_map(9), 5.0),
        (ends, line_map(9), 1e6),  # half-width clamps to N - 1
        (rng.uniform(size=(70, 1)), line_map(1), 3.0),
        (beliefs[:, :-1], line_map(9), 3.0),
    ]


@pytest.mark.parametrize(
    "case", range(6), ids=["ties", "ties-radius-0", "ends", "clamped", "one-node", "strided"]
)
def test_convergence_scores_equal_the_padded_gather_bit_for_bit(case):
    within, m, radius = convergence_cases()[case]
    modes, taus = convergence_scores(within, m, radius)
    want_modes, want_taus = padded_convergence_scores(within, tau_half_width(m, radius))
    assert modes.dtype == want_modes.dtype
    assert np.array_equal(modes, want_modes)
    assert np.array_equal(taus, want_taus)
