"""Scenario card: what the builtin scenarios' text claims, measured on seeds 0-2.

Each scenario is rendered with its map at the config defaults and its query
labelled at the default tolerances.  The bands come from each scenario's
stated intent:

- odometry NEES, the mean over steps of ``e' inv(cov) e`` with ``e`` the
  reported mean minus the true relative pose (angle wrapped): S1 reports its
  covariance honestly, so about 3 for 3 dof, lowered by the covariance
  floor; S2 and S3 report it nine-fold, so about a ninth of that;
- S3's query is S1's query with only the reported covariance changed;
- about a fifth of S2's query is off the map, none of S1's or S3's;
- heavy appearance noise: the median cosine between an on-map frame's
  descriptor and its true node's is near 0.37.
"""

import numpy as np
import pytest

from topoloc.config import Config
from topoloc.evaluate import label_ground_truth
from topoloc.geometry import compose_poses, inverse_poses, wrap_angle
from topoloc.mapping import build_map
from topoloc.simulate import builtin_scenarios, simulate_scenario

SEEDS = (0, 1, 2)
CASES = [(name, seed) for name in ("S1", "S2", "S3") for seed in SEEDS]
NEES_BAND = {"S1": (1.5, 3.5), "S2": (0.1, 0.5), "S3": (0.1, 0.5)}


@pytest.fixture(scope="module")
def rendered():
    """``(map, query, labels)`` for every scenario and seed."""
    scenarios, params = builtin_scenarios(), Config().map
    out = {}
    for name, seed in CASES:
        _, ref, query = simulate_scenario(scenarios[name], seed)
        map_ = build_map(ref, params.node_spacing, params.window)
        out[name, seed] = map_, query, label_ground_truth(query, map_)
    return out


@pytest.mark.parametrize("name, seed", CASES)
def test_odometry_nees(rendered, name, seed):
    _, query, _ = rendered[name, seed]
    gt = query.gt_poses
    e = query.odom_means - compose_poses(inverse_poses(gt[:-1]), gt[1:])
    e[:, 2] = wrap_angle(e[:, 2])
    nees = np.einsum("si,si->s", e, np.linalg.solve(query.odom_covs, e[:, :, None])[..., 0])
    lo, hi = NEES_BAND[name]
    assert lo <= nees.mean() <= hi, nees.mean()


@pytest.mark.parametrize("seed", SEEDS)
def test_s3_query_is_s1_query_but_its_covariance(rendered, seed):
    _, s1, _ = rendered["S1", seed]
    _, s3, _ = rendered["S3", seed]
    for column in ("descriptors", "odom_means", "gt_poses"):
        assert np.array_equal(getattr(s3, column), getattr(s1, column)), column
    assert not np.array_equal(s3.odom_covs, s1.odom_covs)


@pytest.mark.parametrize("name, seed", CASES)
def test_labelled_off_map_share(rendered, name, seed):
    _, _, labels = rendered[name, seed]
    share = 1.0 - labels.within_map.mean()
    if name == "S2":
        assert 0.15 <= share <= 0.30, share
    else:
        assert share == 0.0


@pytest.mark.parametrize("name, seed", CASES)
def test_median_cosine_to_true_node(rendered, name, seed):
    map_, query, labels = rendered[name, seed]
    z = query.descriptors[labels.within_map].astype(np.float64)
    v = map_.descriptors_f64[labels.true_node[labels.within_map]]
    cos = np.einsum("ij,ij->i", z, v) / (np.linalg.norm(z, axis=1) * np.linalg.norm(v, axis=1))
    assert 0.30 <= np.median(cos) <= 0.45, np.median(cos)
