"""Self-tests of the benchmark's checks: each must reject a corrupted output.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import stats  # noqa: E402
from topoloc import config, formats, mapping, measurement, simulate, tasks  # noqa: E402

PARAMS = config.Config().filter.pipeline_params()


@pytest.fixture(scope="module")
def small():
    """A 300 m world, its map and one noisy query with odometry."""
    world = simulate.generate_world(0, 300.0, 16)
    ref = simulate.render_traverse(
        world, simulate.RouteSpec(spacing=0.5, sigma_xy=0.005, sigma_theta=0.001), 0
    )
    route = simulate.RouteSpec(
        spacing=3.0, sigma_app=0.5, sigma_xy=0.01, sigma_theta=0.0025, cov_inflation=9.0
    )
    query = simulate.render_traverse(world, route, 1)
    return mapping.build_map(ref, 2.0, 5), query


def test_belief_off_by_1e6_is_rejected():
    vec = np.full(11, 1.0 / 11)
    checks.check_belief(vec)
    vec[3] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_belief(vec)


def test_permuted_wakeup_results_are_rejected(small):
    map_, query = small
    results = tasks.run_wakeup_batch(map_, query, 4, 0, 30, PARAMS)
    args = (4, len(query), 30, PARAMS.tau_thres, checks.odometry_norms(query))
    checks.check_wakeup_batch(results, *args)
    permuted = [results[1], results[0], *results[2:]]
    with pytest.raises(checks.CheckError):
        checks.check_wakeup_batch(permuted, *args)


def test_results_file_with_one_tau_altered_is_rejected(small, tmp_path):
    map_, query = small
    result = tasks.run_lcd(map_, query, PARAMS)
    path = tmp_path / "results.jsonl"
    formats.write_lcd_result(path, result)
    checks.check_lcd_readback(result, formats.read_lcd_result(path))
    lines = path.read_text().splitlines()
    rec = json.loads(lines[5])
    rec["tau"] = rec["tau"] * 0.5 + 0.25
    lines[5] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError):
        checks.check_lcd_readback(result, formats.read_lcd_result(path))


def test_likelihood_with_off_map_entry_swapped_is_rejected(small):
    map_, query = small
    meas = measurement.MeasurementParams(lam=3.0)
    z = query.frames[7].descriptor
    g = measurement.likelihood_vector(z, map_, meas)
    k = checks.off_map_rank(map_.n_nodes, meas.k_frac, meas.k_min)
    checks.check_likelihood(g, z, map_.descriptors, meas.lam, k)
    j = int(np.argmax(g[:-1]))
    swapped = g.copy()
    swapped[-1], swapped[j] = g[j], g[-1]
    with pytest.raises(checks.CheckError):
        checks.check_likelihood(swapped, z, map_.descriptors, meas.lam, k)


@pytest.mark.parametrize("n", [100, 180, 189, 190, 199, 200, 1000])
def test_tail_percentile_needs_ten_samples_beyond(n):
    values = list(range(n))
    p95 = stats.tail_percentile(values, 95.0)
    beyond = stats.samples_beyond(n, 95.0)
    assert beyond == sum(v > stats.percentile(values, 95.0) for v in values)
    if beyond < 10:
        assert p95 is None
    else:
        assert p95 == pytest.approx(np.percentile(values, 95.0))
