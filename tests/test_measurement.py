"""Appearance likelihoods and the exponential-decay calibration."""

import math

import numpy as np
import pytest

import topoloc.measurement as measurement
from topoloc.errors import MeasurementDegenerateError
from topoloc.mapping import TopometricMap, build_map
from topoloc.measurement import (
    MeasurementParams,
    calibrate_lambda,
    descriptor_distances,
    likelihood_vector,
    order_stat_k,
)
from topoloc.simulate import noiseless_scenario, simulate_scenario
from topoloc.tasks import PipelineParams, run_lcd

from oracles import difference_distances


def map_with_descriptors(desc):
    desc = np.asarray(desc, dtype=np.float32)
    n = desc.shape[0]
    window = 3
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for k in range(1, window):
        band[: n - k, k, 0] = 2.0 * k
        band[: n - k, k, 1] = 0.0
        band[: n - k, k, 2] = 0.0
    return TopometricMap(desc, band, 2.0)


def axis_map(n):
    """Map whose descriptors are scaled basis vectors with known distances."""
    desc = np.eye(n, dtype=np.float32)
    return map_with_descriptors(desc)


def test_calibrate_lambda_simple_distances():
    # descriptors on one axis at norms 1, 2, 3 from the query, so the
    # distances are exactly {1, 2, 3}: lam = ln(rho) / (mean - min) = ln(rho)
    desc = np.zeros((3, 4), dtype=np.float32)
    desc[0, 0] = 1.0
    desc[1, 0] = 2.0
    desc[2, 0] = 3.0
    m = map_with_descriptors(desc)
    z = np.zeros(4, dtype=np.float32)
    lam = calibrate_lambda(z, m, rho=math.e)
    assert lam == pytest.approx(1.0, rel=1e-12)
    lam2 = calibrate_lambda(z, m, rho=2.0)
    assert lam2 == pytest.approx(math.log(2.0), rel=1e-12)


def test_calibrate_lambda_degenerate_spread_falls_back():
    desc = np.tile(np.array([1.0, 0, 0, 0], dtype=np.float32), (4, 1))
    m = map_with_descriptors(desc)
    z = np.array([0.5, 0, 0, 0], dtype=np.float32)
    assert calibrate_lambda(z, m, rho=math.e) == 1.0


def test_calibrate_lambda_rejects_bad_rho():
    m = axis_map(4)
    z = np.zeros(4, dtype=np.float32)
    with pytest.raises(ValueError):
        calibrate_lambda(z, m, rho=1.0)
    with pytest.raises(ValueError):
        calibrate_lambda(z, m, rho=0.5)


def test_order_stat_k_formula():
    # k = min(N, max(ceil(0.02 N), 10))
    p = MeasurementParams()
    assert order_stat_k(4, p) == 4
    assert order_stat_k(100, p) == 10
    assert order_stat_k(500, p) == 10
    assert order_stat_k(1000, p) == 20
    assert order_stat_k(911, p) == 19


def test_likelihood_off_entry_is_kth_largest():
    # four nodes, k = min(4, 10) = 4, so the off entry is the smallest value;
    # with a custom k_frac/k_min the order statistic moves accordingly
    desc = np.zeros((4, 4), dtype=np.float32)
    for i in range(4):
        desc[i, 0] = float(i)
    m = map_with_descriptors(desc)
    z = np.zeros(4, dtype=np.float32)
    params = MeasurementParams(lam=1.0)
    g = likelihood_vector(z, m, params)
    assert g.shape == (5,)
    within = g[:4]
    assert g[4] == pytest.approx(np.sort(within)[0])  # k = N = 4
    params2 = MeasurementParams(lam=1.0, k_frac=0.5, k_min=2)
    g2 = likelihood_vector(z, m, params2)
    assert g2[4] == pytest.approx(np.sort(within)[::-1][1])  # 2nd largest


def test_likelihood_decay_shape():
    desc = np.zeros((3, 4), dtype=np.float32)
    desc[0, 0] = 1.0
    desc[1, 0] = 2.0
    desc[2, 0] = 4.0
    m = map_with_descriptors(desc)
    z = np.zeros(4, dtype=np.float32)
    g = likelihood_vector(z, m, MeasurementParams(lam=0.5))
    assert np.allclose(g[:3], np.exp(-0.5 * np.array([1.0, 2.0, 4.0])))
    assert np.all(np.diff(g[:3]) < 0)


def test_likelihood_requires_resolved_lambda():
    m = axis_map(4)
    z = np.zeros(4, dtype=np.float32)
    with pytest.raises(ValueError):
        likelihood_vector(z, m, MeasurementParams())


def test_likelihood_rejects_dimension_mismatch():
    m = axis_map(4)
    with pytest.raises(ValueError):
        likelihood_vector(np.zeros(5, dtype=np.float32), m, MeasurementParams(lam=1.0))


def test_huge_lambda_underflows_to_degenerate_error_downstream():
    # an absurd lam drives every exponential to zero; the filter layer is the
    # one that raises, so here we only check the vector is all-zero finite
    desc = np.zeros((3, 4), dtype=np.float32)
    desc[0, 0] = 500.0
    desc[1, 0] = 600.0
    desc[2, 0] = 700.0
    m = map_with_descriptors(desc)
    z = np.zeros(4, dtype=np.float32)
    g = likelihood_vector(z, m, MeasurementParams(lam=5.0))
    assert np.all(np.isfinite(g))
    assert g.max() == 0.0
    from topoloc.filtering import forward_init, init_belief

    with pytest.raises(MeasurementDegenerateError):
        forward_init(init_belief(3, 0.1), g)


def test_measurement_params_validation():
    with pytest.raises(ValueError):
        MeasurementParams(k_frac=-0.1)
    with pytest.raises(ValueError):
        MeasurementParams(k_min=0)
    with pytest.raises(ValueError):
        MeasurementParams(lam=0.0)


@pytest.mark.parametrize("dim", [64, 256])
def test_distances_match_the_difference_form(dim):
    rng = np.random.default_rng(dim)
    m = map_with_descriptors(rng.normal(size=(60, dim)))
    z = rng.normal(size=(9, dim)).astype(np.float32)
    want = difference_distances(z, m)
    got = descriptor_distances(z, m)
    assert got.shape == (9, 60)
    assert np.abs(got - want).max() <= 1e-12 * (1 + dim)
    one = descriptor_distances(z[4], m)
    assert one.shape == (60,)
    assert np.abs(one - want[4]).max() <= 1e-12 * (1 + dim)


def test_query_equal_to_a_map_row_scores_exactly_zero():
    # the product form alone leaves about 1e-7 on most of these diagonals
    rng = np.random.default_rng(8)
    desc = rng.normal(size=(40, 64)).astype(np.float32)
    m = map_with_descriptors(desc)
    assert not np.diag(descriptor_distances(desc, m)).any()
    assert all(descriptor_distances(z, m)[i] == 0.0 for i, z in enumerate(desc))
    # the kernel rate is calibrated on the difference form of one frame
    assert calibrate_lambda(desc[5], m, math.e) == math.log(math.e) / (
        difference_distances(desc[5], m).mean()
    )


def test_noiseless_lcd_matches_the_difference_form(monkeypatch):
    # S0's query frames coincide with map nodes, where the product form
    # alone moves the taus by about 1e-10
    _, ref, query = simulate_scenario(noiseless_scenario(), 0)
    m = build_map(ref, 2.0, 5)
    got = run_lcd(m, query, PipelineParams())
    monkeypatch.setattr(measurement, "descriptor_distances", difference_distances)
    want = run_lcd(m, query, PipelineParams())
    assert got.lam == want.lam
    assert np.array_equal(got.proposals(), want.proposals())
    assert np.abs(got.taus() - want.taus()).max() <= 1e-12


@pytest.mark.parametrize("dim", [64, 256])
def test_distance_rows_do_not_depend_on_the_stack(dim):
    # a row has the same bits alone, in the whole stack and inside any other
    # stack, guarded rows (equal to a map row) included
    rng = np.random.default_rng(dim + 1)
    desc = rng.normal(size=(300, dim)).astype(np.float32)
    m = map_with_descriptors(desc)
    zs = rng.normal(size=(48, dim)).astype(np.float32)
    zs[[3, 30]] = desc[[7, 250]]
    whole = descriptor_distances(zs, m)
    assert whole[3, 7] == 0.0 and whole[30, 250] == 0.0
    for i, z in enumerate(zs):
        assert np.array_equal(descriptor_distances(z, m), whole[i])
    for rows in (slice(0, 1), slice(3, 17), slice(5, 48), rng.permutation(48)[:20]):
        assert np.array_equal(descriptor_distances(zs[rows], m), whole[rows])


@pytest.mark.parametrize("dim", [64, 256])
def test_likelihood_rows_do_not_depend_on_the_stack(dim):
    # likelihood rows (exp and the off-map selection) run in row blocks across
    # the CPUs: a row has the same bits alone, in the whole stack and in any other
    rng = np.random.default_rng(dim + 2)
    desc = rng.normal(size=(300, dim)).astype(np.float32)
    m = map_with_descriptors(desc)
    zs = rng.normal(size=(100, dim)).astype(np.float32)
    zs[[3, 70]] = desc[[7, 250]]
    params = MeasurementParams(lam=calibrate_lambda(zs[0], m, math.e))
    d = descriptor_distances(zs, m)
    whole = measurement.likelihoods_from_distances(d, params)
    assert len(zs) > 2 * measurement._ROW_BLOCK  # the whole stack takes several blocks
    for i in range(len(zs)):
        assert np.array_equal(measurement.likelihoods_from_distances(d[i], params), whole[i])
    for rows in (slice(0, 1), slice(3, 40), slice(5, 100), rng.permutation(100)[:70]):
        assert np.array_equal(measurement.likelihoods_from_distances(d[rows], params), whole[rows])
        assert np.array_equal(likelihood_vector(zs[rows], m, params), whole[rows])
