import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfm import geometry as geo
from hsfm import robust


# ---------------------------------------------------------------------------
# robust scale
# ---------------------------------------------------------------------------


def test_robust_scale_hand_example():
    # N=10, |S*|=5, out-of-sample squared residuals {1,1,4,4,9}:
    # median 4 -> 1.4826 * (1 + 5/5) * 2 = 5.9304
    residuals = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    sample = np.arange(5)
    assert robust.robust_scale(residuals, sample) == pytest.approx(5.9304, abs=1e-12)


def test_robust_scale_all_zero():
    assert robust.robust_scale(np.zeros(8), np.arange(3)) == 0.0


def test_robust_scale_all_in_sample():
    with pytest.raises(robust.AllInSample):
        robust.robust_scale(np.ones(4), np.arange(4))


# ---------------------------------------------------------------------------
# X84
# ---------------------------------------------------------------------------


def test_x84_degenerate_mad_keeps_median_values():
    mask = robust.x84_inliers([1.0, 1.0, 1.0, 1.0, 100.0])
    assert mask.tolist() == [True, True, True, True, False]


def test_x84_all_zero():
    assert robust.x84_inliers([0.0, 0.0, 0.0]).all()


def test_x84_gaussian_plus_gross_outlier():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        res = np.abs(rng.normal(0.0, 1.0, 50))
        res = np.append(res, 50.0)
        mask = robust.x84_inliers(res)
        assert not mask[-1]


@settings(max_examples=200)
@given(
    st.lists(st.integers(-10_000, 10_000), min_size=3, max_size=40),
    st.integers(-1_000_000, 1_000_000),
    st.integers(-10, 10),
)
def test_x84_shift_and_scale_invariance(values, shift, scale_pow):
    # integer shifts and power-of-two scales are exact in floating point,
    # so the mask must be bit-identical
    res = np.array(values, float)
    base = robust.x84_inliers(res)
    assert np.array_equal(base, robust.x84_inliers(res + shift))
    assert np.array_equal(base, robust.x84_inliers(res * 2.0**scale_pow))


# ---------------------------------------------------------------------------
# GRIC
# ---------------------------------------------------------------------------


def test_gric_zero_residuals_closed_form():
    params = robust.GricParams(k=8, d=2, r=4, sigma=1.0)
    val = robust.gric(np.zeros(10), params, 10)
    assert val == pytest.approx(10 * 2 * np.log(4) + 8 * np.log(40), rel=1e-12)


def test_gric_monotone_then_clamped():
    params = robust.GricParams(k=7, d=3, r=4, sigma=2.0)
    # strictly increasing while e^2/sigma^2 < 2(r-d), constant beyond
    clamp_e = params.sigma * np.sqrt(2 * (params.r - params.d))
    lo = robust.gric([0.5 * clamp_e], params, 1)
    mid = robust.gric([0.9 * clamp_e], params, 1)
    hi = robust.gric([2.0 * clamp_e], params, 1)
    hi2 = robust.gric([5.0 * clamp_e], params, 1)
    assert lo < mid < hi
    assert hi == pytest.approx(hi2, rel=1e-12)


def synthetic_two_view(planar, seed, sigma=1.0, n=150):
    scene_rng = np.random.default_rng(seed)
    K = geo.Intrinsics(1200.0, 1200.0, 0.0, 800.0, 600.0)
    from hsfm.synthetic import look_at

    c1 = geo.Camera.euclidean(K, look_at([-1.5, 0, -9], [0, 0, 0]), [-1.5, 0, -9])
    c2 = geo.Camera.euclidean(K, look_at([1.5, 0.4, -8.6], [0, 0, 0]), [1.5, 0.4, -8.6])
    if planar:
        pts = np.column_stack(
            [scene_rng.uniform(-3, 3, n), scene_rng.uniform(-3, 3, n), 0.4 * scene_rng.uniform(-3, 3, n)]
        )
        pts[:, 2] = 0.3 * pts[:, 0] - 0.1 * pts[:, 1]
    else:
        pts = scene_rng.uniform(-3, 3, (n, 3))
    x1 = geo.project(c1, pts) + scene_rng.normal(0, sigma, (n, 2))
    x2 = geo.project(c2, pts) + scene_rng.normal(0, sigma, (n, 2))
    return x1, x2


def gric_pair_scores(x1, x2, sigma):
    F = geo.solve_fundamental(x1, x2)
    H = geo.solve_homography(x1, x2)
    ef = geo.sampson_distance(F, x1, x2)
    eh = geo.sampson_homography(H, x1, x2)
    n = len(x1)
    gf = robust.gric(ef, robust.GricParams(sigma=sigma, **robust.FUNDAMENTAL_GRIC), n)
    gh = robust.gric(eh, robust.GricParams(sigma=sigma, **robust.HOMOGRAPHY_GRIC), n)
    return gh, gf


def test_gric_prefers_fundamental_on_general_motion():
    x1, x2 = synthetic_two_view(planar=False, seed=7)
    gh, gf = gric_pair_scores(x1, x2, sigma=1.0)
    assert gf < gh


def test_gric_prefers_homography_on_planar_scene():
    x1, x2 = synthetic_two_view(planar=True, seed=8)
    gh, gf = gric_pair_scores(x1, x2, sigma=1.0)
    assert gh < gf


def test_select_model_examples():
    assert robust.select_model(120.0, 50.0) == robust.FUNDAMENTAL
    assert robust.select_model(55.0, 50.0) == robust.HOMOGRAPHY
    assert robust.select_model(50.0, 50.0) == robust.HOMOGRAPHY


# ---------------------------------------------------------------------------
# MSAC on a toy line-fitting problem
# ---------------------------------------------------------------------------


def line_data(rng, n=100, outlier_rate=0.0):
    x = rng.uniform(0, 100, n)
    # bounded noise keeps every clean point inside the robust inlier gate
    y = 0.7 * x + 5.0 + rng.uniform(-0.3, 0.3, n)
    bad = rng.random(n) < outlier_rate
    y[bad] = rng.uniform(0, 120, int(bad.sum()))
    return np.column_stack([x, y]), bad


def line_solver(data, idx):
    x, y = data[idx, 0], data[idx, 1]
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef


def line_residual(data, coef):
    return np.abs(data[:, 1] - (coef[0] * data[:, 0] + coef[1]))


def line_config(seed=0, threshold=1.5):
    return robust.MsacConfig(
        inlier_threshold=threshold, bucket_size=10.0, max_iterations=500, rng_seed=seed
    )


def test_msac_clean_data_matches_direct_least_squares():
    rng = np.random.default_rng(1)
    data, _ = line_data(rng, outlier_rate=0.0)
    res = robust.msac(
        data, line_solver, line_residual, line_config(), sample_size=2,
        positions=data,
    )
    assert res.inlier_mask.all()
    direct = line_solver(data, np.arange(len(data)))
    assert np.max(np.abs(np.asarray(res.model_params) - direct)) < 1e-6


def test_msac_insufficient_data():
    with pytest.raises(robust.InsufficientData):
        robust.msac(np.zeros((1, 2)), line_solver, line_residual, line_config(), 2)


def test_msac_propagates_programming_errors():
    # only degenerate samples (geometry or linear-algebra failures) are
    # skipped; any other exception from a solver is a bug and must surface
    rng = np.random.default_rng(2)
    data, _ = line_data(rng, outlier_rate=0.0)

    def broken_solver(data, idx):
        raise TypeError("solver bug")

    with pytest.raises(TypeError):
        robust.msac(data, broken_solver, line_residual, line_config(), sample_size=2)

    def degenerate_solver(data, idx):
        raise geo.DegenerateConfiguration("collinear sample")

    with pytest.raises(robust.NoConsensus):
        robust.msac(data, degenerate_solver, line_residual, line_config(), sample_size=2)


def test_msac_rejects_outliers():
    recovered = []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        data, bad = line_data(rng, outlier_rate=0.4)
        res = robust.msac(
            data, line_solver, line_residual, line_config(seed=seed),
            sample_size=2, positions=data,
        )
        true_in = ~bad
        recovered.append(np.sum(res.inlier_mask & true_in) / np.sum(true_in))
    assert np.mean(recovered) > 0.95


def test_msac_fundamental_geometry_with_forty_percent_outliers():
    # known inlier labels on two-view geometry, aggregated over seeded runs
    recovered = []
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        c1, c2 = None, None
        from hsfm.synthetic import look_at

        K = geo.Intrinsics(1200.0, 1200.0, 0.0, 800.0, 600.0)
        c1 = geo.Camera.euclidean(K, look_at([-1.5, 0, -9], [0, 0, 0]), [-1.5, 0, -9])
        c2 = geo.Camera.euclidean(K, look_at([1.6, 0.5, -8.7], [0, 0, 0]), [1.6, 0.5, -8.7])
        pts = rng.uniform(-3, 3, (120, 3))
        x1 = geo.project(c1, pts) + rng.uniform(-0.3, 0.3, (120, 2))
        x2 = geo.project(c2, pts) + rng.uniform(-0.3, 0.3, (120, 2))
        bad = rng.random(120) < 0.4
        x2[bad] = rng.uniform(0, [1600, 1200], (int(bad.sum()), 2))
        data = np.hstack([x1, x2])

        def minimal(d, idx):
            return geo.solve_fundamental_minimal(d[idx, :2], d[idx, 2:])

        def full(d, idx):
            return geo.solve_fundamental(d[idx, :2], d[idx, 2:])

        def residual(d, F):
            return geo.sampson_distance(F, d[:, :2], d[:, 2:])

        cfg = robust.MsacConfig(
            inlier_threshold=2.0, bucket_size=80.0, rng_seed=seed
        )
        res = robust.msac(
            data, minimal, residual, cfg, sample_size=7,
            full_solver=full, positions=x1,
        )
        recovered.append(np.sum(res.inlier_mask & ~bad) / np.sum(~bad))
    assert np.mean(recovered) >= 0.95


def test_msac_deterministic_given_seed():
    rng = np.random.default_rng(5)
    data, _ = line_data(rng, outlier_rate=0.3)
    a = robust.msac(data, line_solver, line_residual, line_config(seed=9), 2, positions=data)
    b = robust.msac(data, line_solver, line_residual, line_config(seed=9), 2, positions=data)
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    assert a.score == b.score
    assert np.array_equal(a.best_sample, b.best_sample)
    assert np.all(np.asarray(a.model_params) == np.asarray(b.model_params))


def test_msac_score_history_non_increasing():
    rng = np.random.default_rng(6)
    data, _ = line_data(rng, outlier_rate=0.4)
    res = robust.msac(data, line_solver, line_residual, line_config(seed=3), 2, positions=data)
    hist = res.score_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 40))
def test_bucketed_sample_spatial_separation(seed, n):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 200, (n, 2))
    bucket = 25.0
    buckets = robust._bucket_indices(positions, bucket)
    sample_size = 4
    if len(buckets) < sample_size:
        return
    sample = robust._draw_sample(rng, n, sample_size, buckets)
    cells = np.floor((positions[sample] - positions.min(axis=0)) / bucket)
    assert len({tuple(c) for c in cells}) == sample_size
