"""Headline requirements, one test per criterion, one verdict line each.

The four scenario-comparison criteria share one expensive fixture that
renders twenty seeds of every benchmark variant against a common world and
map, then scores each inference variant once.  Every test prints a single
``ACCEPTANCE <n> <slug>: PASS|FAIL`` line to the live terminal before its
asserts fire, so the verdicts are visible even in a quiet run.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from topoloc.cli import main as cli_main
from topoloc.evaluate import label_ground_truth, recall_at_precision, score_lcd
from topoloc.filtering import Belief, run_forward, smooth_pass
from topoloc.geometry import Covariance3, Pose2, chi2_cdf_3, wrap_angle
from topoloc.mapping import build_map
from topoloc.motion import MotionParams, build_transition_model
from topoloc.simulate import (
    builtin_scenarios,
    generate_world,
    noiseless_scenario,
    render_traverse,
    simulate_scenario,
)
from topoloc.tasks import PipelineParams, run_lcd, run_wakeup_batch

from oracles import chi2_cdf_3_quad, enumerate_marginals, grid_min_mahalanobis
from oracles import min_mahalanobis_on_segment, off_out, precision
from oracles import random_banded_model
from test_filtering import dense_to_stack

SEEDS = range(20)


def _report(capsys, num: int, slug: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'}", flush=True)


def test_1_filter_matches_path_enumeration(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(123456)
    worst_marginal = 0.0
    worst_evidence = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        t_steps = int(rng.integers(1, 6))
        prior, transitions, likelihoods = random_banded_model(rng, n, t_steps)
        ref_f, ref_s, ref_ev = enumerate_marginals(prior, transitions, likelihoods)
        trace = run_forward(
            Belief.from_vector(prior), dense_to_stack(transitions, n), likelihoods
        )
        smoothed = smooth_pass(trace)
        for t in range(t_steps + 1):
            worst_marginal = max(
                worst_marginal, np.abs(trace.alphas[t] - ref_f[t]).max()
            )
            worst_marginal = max(
                worst_marginal, np.abs(smoothed[t] - ref_s[t]).max()
            )
        worst_evidence = max(
            worst_evidence, abs(math.exp(trace.log_evidence()) - ref_ev) / ref_ev
        )
    elapsed = time.perf_counter() - t0
    ok = worst_marginal < 1e-10 and worst_evidence < 1e-8 and elapsed < 10.0
    _report(capsys, 1, "filter-matches-enumeration", ok)
    assert worst_marginal < 1e-10, f"worst marginal deviation {worst_marginal:.2e}"
    assert worst_evidence < 1e-8, f"worst evidence deviation {worst_evidence:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_2_motion_geometry_matches_oracles(capsys):
    t0 = time.perf_counter()

    rng = np.random.default_rng(424242)
    worst_segment = 0.0
    for _ in range(1000):
        lo = rng.normal(scale=2.0, size=3)
        hi = lo + rng.normal(scale=1.5, size=3)
        mu = rng.normal(scale=2.0, size=3)
        a = rng.normal(size=(3, 3))
        cov = Covariance3(a @ a.T + 0.05 * np.eye(3))
        d2, _ = min_mahalanobis_on_segment(Pose2(*lo), Pose2(*hi), Pose2(*mu), cov)
        u = hi - lo
        u[2] = wrap_angle(hi[2] - lo[2])
        r0 = np.asarray(mu, dtype=float) - lo
        r0[2] = wrap_angle(mu[2] - lo[2])
        ref_d2, _ = grid_min_mahalanobis(np.zeros(3), u, r0, precision(cov))
        worst_segment = max(worst_segment, abs(d2 - ref_d2))

    worst_cdf = max(
        abs(chi2_cdf_3(x) - chi2_cdf_3_quad(x)) for x in np.linspace(0.0, 50.0, 501)
    )

    worst_row = 0.0
    scen = builtin_scenarios()
    for name in ("S1", "S2", "S3"):
        _, ref, query = simulate_scenario(scen[name], 0)
        m = build_map(ref, 2.0, 5)
        for fr in query.frames[1:]:
            model = build_transition_model(m, fr.odom, MotionParams())
            sums = model.within_probs.sum(axis=0) + model.to_off
            worst_row = max(worst_row, float(np.abs(sums - 1.0).max()))
            off_row = model.off_self + off_out(model) * m.n_nodes
            worst_row = max(worst_row, abs(off_row - 1.0))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_segment < 1e-6
        and worst_cdf < 1e-6
        and worst_row < 1e-9
        and elapsed < 30.0
    )
    _report(capsys, 2, "geometry-matches-oracles", ok)
    assert worst_segment < 1e-6, f"segment minimum off by {worst_segment:.2e}"
    assert worst_cdf < 1e-6, f"cdf off by {worst_cdf:.2e}"
    assert worst_row < 1e-9, f"row sum off by {worst_row:.2e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_3_noiseless_end_to_end(capsys):
    spec = noiseless_scenario()
    _, ref, query = simulate_scenario(spec, 0)
    m = build_map(ref, 2.0, 5)
    params = PipelineParams(rho=6.0)
    labels = label_ground_truth(query, m)

    result = run_lcd(m, query, params)
    all_correct = all(
        fr.proposal in labels.ok_nodes[t] for t, fr in enumerate(result.frames)
    )
    tau_min = float(result.taus().min())

    trials = run_wakeup_batch(m, query, 100, 0, 30, params)
    n_good = sum(
        1
        for r in trials
        if r.converged
        and r.steps_used <= 10
        and r.proposal in labels.ok_nodes[r.start + r.steps_used]
    )

    ok = all_correct and tau_min > 0.99 and n_good == 100
    _report(capsys, 3, "noiseless-end-to-end", ok)
    assert all_correct, "some frames proposed a node outside tolerance"
    assert tau_min > 0.99, f"minimum tau {tau_min:.5f}"
    assert n_good == 100, f"only {n_good}/100 wakeup trials converged correctly"


@pytest.fixture(scope="module")
def seed_scores():
    """Recall at 99% precision per seed for every scenario and variant."""
    scen = builtin_scenarios()
    s1 = scen["S1"]
    elevated = dataclasses.replace(s1.query, sigma_app=3.0)
    plans = {
        "s2": (scen["S2"].query, (("full", "full", False), ("no_off", "no_off", False))),
        "s1": (s1.query, (("full", "full", False), ("no_off", "no_off", False))),
        "s3": (scen["S3"].query, (("full", "full", False), ("no_odom", "no_odom", False))),
        "elev": (elevated, (("smoothed", "full", False), ("forward", "full", True))),
    }
    out = {f"{p}_{v[0]}": [] for p, (_, vs) in plans.items() for v in vs}
    for seed in SEEDS:
        # one world, reference and map per seed, shared by all variants
        world = generate_world(seed, s1.length_m, s1.descriptor_dim)
        ref = render_traverse(world, s1.ref, seed=seed)
        map_ = build_map(ref, 2.0, 5)
        for prefix, (route, variants) in plans.items():
            query = render_traverse(world, route, seed=seed + 1)
            labels = label_ground_truth(query, map_)
            for name, mode, forward_only in variants:
                params = PipelineParams(mode=mode, forward_only=forward_only)
                res = run_lcd(map_, query, params)
                out[f"{prefix}_{name}"].append(
                    recall_at_precision(score_lcd(res, labels), 0.99)
                )
    return {k: np.array(v) for k, v in out.items()}


def test_4_off_state_gain_on_detours(capsys, seed_scores):
    full = seed_scores["s2_full"]
    ablated = seed_scores["s2_no_off"]
    wins = int((full > ablated).sum())
    mean_gap = float((full - ablated).mean())
    ok = wins >= 18 and mean_gap >= 0.10
    _report(capsys, 4, "off-state-gain-on-detours", ok)
    assert wins >= 18, f"strict wins {wins}/20"
    assert mean_gap >= 0.10, f"mean gap {mean_gap:.3f}"


def test_5_off_state_no_harm(capsys, seed_scores):
    gap = seed_scores["s1_full"] - seed_scores["s1_no_off"]
    ok = bool((gap >= -0.05).all())
    _report(capsys, 5, "off-state-no-harm", ok)
    assert ok, f"worst per-seed gap {gap.min():.3f}"


def test_6_odometry_gain(capsys, seed_scores):
    gap = float(
        seed_scores["s3_full"].mean() - seed_scores["s3_no_odom"].mean()
    )
    ok = gap >= 0.05
    _report(capsys, 6, "odometry-gain", ok)
    assert ok, f"mean gap {gap:.3f}"


def test_7_smoothing_beats_filtering(capsys, seed_scores):
    sm = seed_scores["elev_smoothed"]
    fw = seed_scores["elev_forward"]
    wins = int((sm > fw).sum())
    ok = sm.mean() >= fw.mean() and wins >= 15
    _report(capsys, 7, "smoothing-beats-filtering", ok)
    assert sm.mean() >= fw.mean(), (
        f"smoothed mean {sm.mean():.3f} below forward mean {fw.mean():.3f}"
    )
    assert wins >= 15, f"strict wins {wins}/20"


def test_8_speed_budget(capsys, tmp_path):
    out = tmp_path / "bench.json"
    code = cli_main(
        ["bench", "--n-nodes", "3000", "--dim", "64", "--repeats", "50",
         "--out", str(out)]
    )
    capsys.readouterr()
    report = json.loads(out.read_text())
    total = report["total_mean_ms"]
    ratio = report["backward_over_forward"]
    ok = code == 0 and total <= 50.0 and ratio <= 2.0
    _report(capsys, 8, "speed-budget", ok)
    assert code == 0
    assert total <= 50.0, f"per-step total {total:.2f} ms"
    assert ratio <= 2.0, f"backward/forward ratio {ratio:.2f}"


def test_9_manifest_determinism(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"task": {"n_trials": 40, "max_steps": 30, "seed": 5}}\n')
    identical = True
    for task in ("lcd", "wakeup"):
        first = tmp_path / f"{task}_first"
        replay = tmp_path / f"{task}_replay"
        assert cli_main(
            ["run", "--scenario", "S2", "--seed", "0", "--task", task,
             "--out", str(first), "--config", str(cfg)]
        ) == 0
        assert cli_main(
            ["rerun", "--manifest", str(first / "manifest.json"),
             "--out", str(replay)]
        ) == 0
        capsys.readouterr()
        names = sorted(p.name for p in first.iterdir())
        if names != sorted(p.name for p in replay.iterdir()):
            identical = False
        else:
            for name in names:
                if (first / name).read_bytes() != (replay / name).read_bytes():
                    identical = False
    _report(capsys, 9, "manifest-determinism", identical)
    assert identical, "a rerun produced different bytes"
