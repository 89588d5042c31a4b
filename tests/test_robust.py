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

        cfg = robust.MsacConfig(
            inlier_threshold=2.0, bucket_size=80.0, rng_seed=seed
        )
        res = robust.msac(
            data, f_stacked, f_residual, cfg, sample_size=7,
            full_solver=f_full, positions=x1, stacked=True,
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


def draw_sample_with_choice(rng, n, sample_size, buckets):
    """The bucketed draw written with ``rng.choice`` for the in-bucket pick."""
    if buckets is not None and len(buckets) >= sample_size:
        chosen = rng.choice(len(buckets), size=sample_size, replace=False)
        return np.array([rng.choice(buckets[b]) for b in chosen])
    return rng.choice(n, size=sample_size, replace=False)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draw_sample_same_stream_as_rng_choice(seed):
    positions = np.random.default_rng(seed).uniform(0, 400, (120, 2))
    buckets = robust._bucket_indices(positions, 60.0)
    assert len(buckets) >= 7
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(500):
        size = 4 if k % 2 else 7
        got = robust._draw_sample(ours, 120, size, buckets)
        assert np.array_equal(got, draw_sample_with_choice(ref, 120, size, buckets))
    assert ours.integers(1 << 30) == ref.integers(1 << 30)


def reference_samples(seed, n, sample_size, buckets, total):
    """``total`` samples of the one-at-a-time draw from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return np.array([robust._draw_sample(rng, n, sample_size, buckets) for _ in range(total)])


def stream_samples(stream, chunks):
    return np.vstack([stream.draw(k) for k in chunks])


def sample_layout(seed):
    """(n, sample size, buckets) cycling through the bucket layouts msac meets:
    a bucket grid with singleton and shared cells, only singletons, exactly
    sample-size buckets (one of them a singleton) and too few buckets."""
    rng = np.random.default_rng(seed)
    size = 3 + seed % 5
    n = int(rng.integers(40, 400))
    positions = rng.uniform(0, 400, (n, 2))
    kind = seed % 4
    if kind == 0:
        buckets = robust._bucket_indices(positions, rng.uniform(30.0, 120.0))
    elif kind == 1:
        buckets = robust._bucket_indices(positions, 1e-6)
    elif kind == 2:
        buckets = [np.array([0])] + [np.arange(1 + i, n, size - 1) for i in range(size - 1)]
    else:
        buckets = robust._bucket_indices(positions, 250.0)[: size - 1]
    return n, size, buckets


@pytest.mark.parametrize("seed", range(60))
def test_sample_stream_same_as_draw_sample_loop(seed):
    n, size, buckets = sample_layout(seed)
    if seed % 4 == 1:
        assert all(len(b) == 1 for b in buckets) and len(buckets) == n
    if seed % 4 == 2:
        assert len(buckets) == size and min(map(len, buckets)) == 1
    if seed % 4 == 3:
        assert len(buckets) < size
    chunks = [1, 64, *np.random.default_rng(seed).integers(1, 65, 8)]
    stream = robust._SampleStream(seed, n, size, buckets)
    got = stream_samples(stream, chunks)
    reference = reference_samples(seed, n, size, buckets, sum(chunks))
    assert np.array_equal(got, reference)
    # a run of single draws, as the per-sample fits make, reads the same words
    singles = stream_samples(robust._SampleStream(seed, n, size, buckets), [1] * 100)
    assert np.array_equal(singles, reference[:100])


# layouts whose first 512 samples meet a Lemire rejection
REJECTED_WORD_LAYOUTS = [
    # a per-point population of 1e5 rejects about 2e-5 of Floyd's words
    (22, 100_000, 7, None),
    (24, 100_000, 7, None),
    # three buckets of 1e5 points: the rejection is in a bucket pick
    (70, 300_000, 3, [np.arange(i, 300_000, 3) for i in range(3)]),
]


@pytest.mark.parametrize("seed, n, size, buckets", REJECTED_WORD_LAYOUTS)
def test_sample_stream_exact_through_a_rejected_word(seed, n, size, buckets):
    stream = robust._SampleStream(seed, n, size, buckets)
    got = stream_samples(stream, [64] * 8)
    assert stream.rejected > 0
    assert np.array_equal(got, reference_samples(seed, n, size, buckets, 512))


@pytest.mark.parametrize("seed, n, size, buckets", REJECTED_WORD_LAYOUTS)
def test_sample_stream_single_draws_exact_through_a_rejected_word(seed, n, size, buckets):
    stream = robust._SampleStream(seed, n, size, buckets)
    got = stream_samples(stream, [1] * 512)
    assert stream.rejected > 0
    assert np.array_equal(got, reference_samples(seed, n, size, buckets, 512))


@pytest.mark.parametrize("stacked", [False, True])
def test_msac_solver_sees_the_draw_sample_stream(stacked):
    x1, x2 = two_view_with_outliers(planar=True, seed=32)
    data = np.hstack([x1, x2])
    seen = []

    def recording_solver(d, idx):
        seen.append(np.atleast_2d(idx).copy())
        return (h_stacked if stacked else h_one)(d, idx)

    cfg = robust.MsacConfig(inlier_threshold=2.0, bucket_size=80.0, rng_seed=32)
    res = robust.msac(data, recording_solver, h_residual, cfg, 4,
                      full_solver=h_one, positions=x1, stacked=stacked)
    seen = np.vstack(seen)
    assert len(seen) >= res.iterations > 1
    buckets = robust._bucket_indices(x1, cfg.bucket_size)
    assert np.array_equal(seen, reference_samples(32, len(data), 4, buckets, len(seen)))


def test_msac_counts_degenerate_samples():
    rng = np.random.default_rng(7)
    data, _ = line_data(rng, outlier_rate=0.3)
    seen = []

    def solver(d, idx):
        seen.append(idx.copy())
        if idx.min() < 25:  # the known degenerate samples
            raise geo.DegenerateConfiguration("flagged sample")
        return line_solver(d, idx)

    res = robust.msac(data, solver, line_residual, line_config(seed=4), 2,
                      full_solver=line_solver, positions=data)
    flagged = sum(int(s.min() < 25) for s in seen)
    assert 0 < flagged < len(seen)
    assert res.degenerate == flagged
    assert res.iterations == len(seen)

    # the same samples reported by a stacked solver as rows it leaves out
    def stacked_solver(d, samples):
        keep = np.flatnonzero(samples.min(axis=1) >= 25)
        return np.array([line_solver(d, s) for s in samples[keep]]).reshape(-1, 2), keep

    def stacked_residual(d, coefs):
        return np.array([line_residual(d, c) for c in coefs]).reshape(len(coefs), -1)

    stacked = robust.msac(
        data, stacked_solver, stacked_residual, line_config(seed=4), 2,
        full_solver=line_solver, positions=data, stacked=True,
    )
    assert (stacked.iterations, stacked.degenerate) == (res.iterations, res.degenerate)
    assert stacked.score_history == res.score_history


def two_view_with_outliers(planar, seed, outlier_rate=0.3):
    x1, x2 = synthetic_two_view(planar=planar, seed=seed, sigma=0.5, n=200)
    rng = np.random.default_rng(seed + 100)
    bad = rng.random(len(x1)) < outlier_rate
    x2[bad] = rng.uniform(0, [1600, 1200], (int(bad.sum()), 2))
    return x1, x2


# the narrow phase's H and F solvers on (x1, y1, x2, y2) rows ``d``
def h_stacked(d, samples):
    H, ok = geo.solve_homography_stack(d[samples, :2], d[samples, 2:])
    return H[ok], np.flatnonzero(ok)


def f_stacked(d, samples):
    return geo.solve_fundamental_minimal_stack(d[samples, :2], d[samples, 2:])


def h_one(d, idx):
    return geo.solve_homography(d[idx, :2], d[idx, 2:])


def f_one(d, idx):
    return geo.solve_fundamental_minimal(d[idx, :2], d[idx, 2:])


def f_full(d, idx):
    return geo.solve_fundamental(d[idx, :2], d[idx, 2:])


def h_residual(d, H):
    return geo.homography_transfer_error(H, d[:, :2], d[:, 2:])


def f_residual(d, F):
    return geo.sampson_distance(F, d[:, :2], d[:, 2:])


# sample size -> (per-sample solver, stacked solver, residual, refit)
TWO_VIEW_SOLVERS = {
    4: (h_one, h_stacked, h_residual, h_one),
    7: (f_one, f_stacked, f_residual, f_full),
}


@pytest.mark.parametrize(
    "planar, sample_size, seed, stop",
    [
        (False, 4, 31, "cap"),        # general scene: H runs to max_iterations
        (True, 4, 32, "mid-chunk"),   # adaptive stop inside a drawn chunk
        (False, 7, 32, "mid-chunk"),
        (True, 7, 34, "chunk end"),   # the chunk was cut to the known budget
    ],
)
def test_stacked_msac_same_walk_as_per_sample(planar, sample_size, seed, stop):
    x1, x2 = two_view_with_outliers(planar, seed)
    data = np.hstack([x1, x2])
    per_sample, stacked_solver, residual, full = TWO_VIEW_SOLVERS[sample_size]
    drawn = []

    def counting_solver(d, samples):
        drawn.append(len(samples))
        return stacked_solver(d, samples)

    cfg = robust.MsacConfig(inlier_threshold=2.0, bucket_size=80.0, rng_seed=seed)
    one = robust.msac(data, per_sample, residual, cfg, sample_size,
                      full_solver=full, positions=x1)
    many = robust.msac(data, counting_solver, residual, cfg, sample_size,
                       full_solver=full, positions=x1, stacked=True)
    assert drawn[:4] == [1, 1, 2, 4][: len(drawn)] and max(drawn) <= robust.MAX_CHUNK
    if stop == "cap":
        assert one.iterations == cfg.max_iterations == sum(drawn)
    elif stop == "mid-chunk":
        assert sum(drawn) > one.iterations
    else:
        assert sum(drawn) == one.iterations < cfg.max_iterations
    assert many.iterations == one.iterations
    assert many.degenerate == one.degenerate
    assert many.score_history == one.score_history
    assert np.array_equal(many.best_sample, one.best_sample)
    assert np.array_equal(many.model_params, one.model_params)
    assert np.array_equal(many.inlier_mask, one.inlier_mask)
    assert many.score == one.score and many.sigma_star == one.sigma_star


def h_closed_form(d, samples):
    H, ok = geo.solve_homography_minimal_stack(d[samples, :2], d[samples, 2:])
    return H[ok], np.flatnonzero(ok)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("planar", [True, False])
def test_closed_form_homography_same_msac_walk_as_dlt(planar, seed):
    # the narrow phase's minimal H solver against the DLT it replaced
    x1, x2 = two_view_with_outliers(planar, seed)
    data = np.hstack([x1, x2])
    cfg = robust.MsacConfig(inlier_threshold=2.0, bucket_size=80.0, rng_seed=seed)
    closed, dlt = (
        robust.msac(data, solver, h_residual, cfg, 4, full_solver=h_one,
                    positions=x1, stacked=True)
        for solver in (h_closed_form, h_stacked)
    )
    assert (closed.iterations, closed.degenerate) == (dlt.iterations, dlt.degenerate)
    assert np.array_equal(closed.best_sample, dlt.best_sample)
    assert np.array_equal(closed.inlier_mask, dlt.inlier_mask)
    assert len(closed.score_history) == len(dlt.score_history)
    assert np.allclose(closed.score_history, dlt.score_history, rtol=1e-9, atol=0)


def test_stacked_msac_propagates_programming_errors():
    rng = np.random.default_rng(2)
    data, _ = line_data(rng, outlier_rate=0.0)

    def broken_solver(data, samples):
        raise TypeError("solver bug")

    with pytest.raises(TypeError):
        robust.msac(data, broken_solver, line_residual, line_config(), 2,
                    full_solver=line_solver, stacked=True)
