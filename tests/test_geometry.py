import tracemalloc

import numpy as np
import pytest

from hsfm import geometry as geo
from hsfm.synthetic import look_at


def random_camera(rng, focal=1200.0, radius=8.0):
    C = rng.normal(0.0, 1.0, 3)
    C = radius * C / np.linalg.norm(C)
    K = geo.Intrinsics(fx=focal, fy=focal * 1.02, skew=0.0, cx=800.0, cy=600.0)
    R = look_at(C, rng.normal(0.0, 0.3, 3))
    return geo.Camera.euclidean(K, R, C)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def test_project_optical_axis_maps_to_principal_point():
    K = geo.Intrinsics(1.0, 1.0, 0.0, 0.0, 0.0)
    cam = geo.Camera.euclidean(K, np.eye(3), np.zeros(3))
    assert np.allclose(geo.project(cam, [0.0, 0.0, 1.0]), [0.0, 0.0])


def test_project_similar_triangles_scaling():
    K = geo.Intrinsics(2.0, 2.0, 0.0, 0.0, 0.0)
    cam = geo.Camera.euclidean(K, np.eye(3), np.zeros(3))
    assert np.allclose(geo.project(cam, [1.0, 1.0, 2.0]), [1.0, 1.0])


def test_project_matches_homogeneous_multiply_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cam = random_camera(rng)
        X = rng.uniform(-2.0, 2.0, 3)
        # independent oracle: direct 3x4 homogeneous multiply
        x = cam.P @ np.append(X, 1.0)
        assert np.allclose(geo.project(cam, X), x[:2] / x[2], atol=1e-10)


def test_project_point_at_infinity():
    K = geo.Intrinsics(1.0, 1.0, 0.0, 0.0, 0.0)
    cam = geo.Camera.euclidean(K, np.eye(3), np.zeros(3))
    with pytest.raises(geo.PointAtInfinity):
        geo.project(cam, [1.0, 1.0, 0.0])


def test_project_radial_distortion_pulls_points():
    K = geo.Intrinsics(1000.0, 1000.0, 0.0, 500.0, 500.0)
    cam0 = geo.Camera.euclidean(K, np.eye(3), np.zeros(3))
    cam1 = geo.Camera.euclidean(K, np.eye(3), np.zeros(3), radial=-0.1)
    X = np.array([0.4, 0.3, 1.0])
    u0 = geo.project(cam0, X)
    u1 = geo.project(cam1, X)
    r2 = 0.4 ** 2 + 0.3 ** 2
    expect = (u0 - [500.0, 500.0]) * (1.0 - 0.1 * r2) + [500.0, 500.0]
    assert np.allclose(u1, expect, atol=1e-9)


# ---------------------------------------------------------------------------
# decomposition round trip
# ---------------------------------------------------------------------------


def test_decompose_recompose_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        cam = random_camera(rng)
        K, R, C = geo.decompose_projection(cam.P)
        P2 = geo.compose_projection(K, R, C)
        a = cam.P / np.linalg.norm(cam.P)
        b = P2 / np.linalg.norm(P2)
        if np.sum(a * b) < 0:
            b = -b
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) > 0


# ---------------------------------------------------------------------------
# triangulate
# ---------------------------------------------------------------------------


def two_camera_rig():
    K = geo.Intrinsics(1000.0, 1000.0, 0.0, 500.0, 400.0)
    c1 = geo.Camera.euclidean(K, look_at([-1, 0, 0], [0, 0, 5]), [-1, 0, 0])
    c2 = geo.Camera.euclidean(K, look_at([1, 0, 0], [0, 0, 5]), [1, 0, 0])
    return c1, c2


def kernel_inputs(views):
    """Stacked kernel inputs for points of one view count; ``views`` holds
    one list of (camera, pixel) pairs per point.  A camera whose centre is
    at infinity gets a NaN centre."""

    def center(cam):
        try:
            return cam.center()
        except geo.Degenerate:
            return np.full(3, np.nan)

    P = np.array([[c.P for c, _ in obs] for obs in views])
    x = np.array([[u for _, u in obs] for obs in views], float)
    C = np.array([[center(c) for c, _ in obs] for obs in views])
    return P, x, C


def reference_triangulate(obs, condition_limit=1e4, max_iterations=10, tol=1e-8):
    """Per-point iterated linear intersection; None where it fails."""
    cams = [c for c, _ in obs]
    xs = np.array([u for _, u in obs], float)
    try:
        centers = np.array([c.center() for c in cams])
    except geo.Degenerate:
        return None
    if np.max(np.linalg.norm(centers - centers[0], axis=1)) < 1e-12 * max(
        1.0, np.max(np.abs(centers))
    ):
        return None
    Ps = np.array([c.P for c in cams])
    A = np.empty((2 * len(cams), 3))
    b = np.empty(2 * len(cams))
    A[0::2] = xs[:, 0, None] * Ps[:, 2, :3] - Ps[:, 0, :3]
    A[1::2] = xs[:, 1, None] * Ps[:, 2, :3] - Ps[:, 1, :3]
    b[0::2] = Ps[:, 0, 3] - xs[:, 0] * Ps[:, 2, 3]
    b[1::2] = Ps[:, 1, 3] - xs[:, 1] * Ps[:, 2, 3]
    weights = np.ones(len(cams))
    for _ in range(max_iterations):
        w = np.repeat(weights, 2)
        X, _, _, sv = np.linalg.lstsq(A / w[:, None], b / w, rcond=None)
        condition = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        depths = Ps[:, 2, :3] @ X + Ps[:, 2, 3]
        new = np.where(np.abs(depths) < 1e-12, 1e-12, depths)
        settled = np.max(np.abs(new - weights)) < tol
        weights = new
        if settled:
            break
    if condition > condition_limit:
        return None
    try:
        errors = [np.linalg.norm(geo.project(c, X) - u) for c, u in zip(cams, xs)]
    except geo.PointAtInfinity:
        return None
    return X, np.array(errors)


def test_triangulate_recovers_synthetic_point():
    c1, c2 = two_camera_rig()
    X = np.array([0.0, 0.0, 5.0])
    pts, errors, ok = geo.triangulate(
        *kernel_inputs([[(c1, geo.project(c1, X)), (c2, geo.project(c2, X))]])
    )
    assert ok[0]
    assert np.linalg.norm(pts[0] - X) < 1e-8
    assert np.max(errors) < 1e-8


def test_triangulate_zero_baseline_degenerate():
    c1, _ = two_camera_rig()
    x = geo.project(c1, np.array([0.0, 0.0, 5.0]))
    _, _, ok = geo.triangulate(*kernel_inputs([[(c1, x), (c1, x)]]))
    assert not ok[0]


def test_triangulate_near_parallel_rays_ill_conditioned():
    # baseline 1e-6 of depth: the system's condition exceeds the limit
    K = geo.Intrinsics(1000.0, 1000.0, 0.0, 500.0, 400.0)
    depth = 10.0
    b = 1e-6 * depth
    c1 = geo.Camera.euclidean(K, np.eye(3), [0.0, 0.0, 0.0])
    c2 = geo.Camera.euclidean(K, np.eye(3), [b, 0.0, 0.0])
    X = np.array([0.3, -0.2, depth])
    inputs = kernel_inputs([[(c1, geo.project(c1, X)), (c2, geo.project(c2, X))]])
    assert not geo.triangulate(*inputs)[2][0]
    assert geo.triangulate(*inputs, condition_limit=np.inf)[2][0]


def test_triangulate_exact_within_condition_limit_property():
    rng = np.random.default_rng(7)
    views, truth = [], []
    for _ in range(40):
        cams = [random_camera(rng) for _ in range(3)]
        X = rng.uniform(-1.5, 1.5, 3)
        views.append([(c, geo.project(c, X)) for c in cams])
        truth.append(X)
    pts, _, ok = geo.triangulate(*kernel_inputs(views))
    assert ok.sum() > 30
    assert np.all(np.linalg.norm(pts[ok] - np.array(truth)[ok], axis=1) < 1e-8)


def test_triangulate_mixed_batch_matches_per_point_reference():
    rng = np.random.default_rng(21)
    c1, c2 = two_camera_rig()
    K = geo.Intrinsics(1000.0, 1000.0, 0.0, 500.0, 400.0)
    near = geo.Camera.euclidean(K, np.eye(3), [1e-5, 0.0, 0.0])
    far = geo.Camera.projective(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    distorted = geo.Camera.euclidean(
        K, look_at([0.0, 3.0, 0.0], [0.0, 0.0, 5.0]), [0.0, 3.0, 0.0], radial=-0.05
    )

    def seen(cams, X, noise=0.3):
        return [(c, geo.project(c, X) + rng.normal(0.0, noise, 2)) for c in cams]

    views, bad = [], []
    for m in (2, 3, 5):
        for _ in range(6):
            cams = [random_camera(rng) for _ in range(m)]
            views.append(seen(cams, rng.uniform(-1.0, 1.0, 3)))
            bad.append(False)
    X = np.array([0.3, -0.2, 5.0])
    views.append([(c1, geo.project(c1, X))] * 2)                      # zero baseline
    views.append(seen([geo.Camera.euclidean(K, np.eye(3), np.zeros(3)), near],
                      np.array([0.3, -0.2, 10.0]), noise=0.0))         # ill-conditioned
    on_plane = geo.Camera.euclidean(K, np.eye(3), X)                   # X on its principal plane
    views.append(seen([c1, c2], X, noise=0.0) + [(on_plane, np.array([500.0, 400.0]))])
    views.append(seen([c1, c2], X) + [(far, np.array([0.3, -0.2]))])  # centre at infinity
    views.append(seen([c1, c2, distorted, random_camera(rng), random_camera(rng)], X))
    bad += [True, True, True, True, False]

    for m in (2, 3, 5):
        group = [k for k, obs in enumerate(views) if len(obs) == m]
        group_views = [views[k] for k in group]
        calib = np.array([[c.intrinsics.K if c.kind == geo.EUCLIDEAN else np.eye(3)
                           for c, _ in obs] for obs in group_views])
        radial = np.array([[c.radial for c, _ in obs] for obs in group_views])
        pts, errors, ok = geo.triangulate(
            *kernel_inputs(group_views), distortion=(calib, radial)
        )
        for k, X_k, e_k, ok_k in zip(group, pts, errors, ok):
            assert ok_k == (not bad[k])
            if ok_k:
                ref_X, _ = reference_triangulate(views[k])
                assert np.max(np.abs(X_k - ref_X)) < 1e-12
                expect = [np.linalg.norm(geo.project(c, X_k) - u) for c, u in views[k]]
                assert np.max(np.abs(e_k - expect)) < 1e-9
            else:
                assert reference_triangulate(views[k]) is None

    # the reweighting makes the principal-plane row ill-conditioned; after a
    # single unweighted round its depth check alone rejects it
    plane = kernel_inputs([views[-3]])
    assert not geo.triangulate(*plane, condition_limit=np.inf, max_iterations=1)[2][0]


# ---------------------------------------------------------------------------
# fundamental / homography
# ---------------------------------------------------------------------------


def exact_pair(rng, n=30, planar=False):
    c1, c2 = two_camera_rig()
    if planar:
        pts = np.column_stack(
            [rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), np.full(n, 5.0)]
        )
    else:
        pts = np.column_stack(
            [rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.uniform(4, 7, n)]
        )
    return c1, c2, geo.project(c1, pts), geo.project(c2, pts)


def test_fundamental_exact_residuals():
    rng = np.random.default_rng(5)
    _, _, x1, x2 = exact_pair(rng)
    F = geo.solve_fundamental(x1, x2)
    res = np.abs(np.einsum("ij,ij->i", geo.hom(x2), geo.hom(x1) @ F.T))
    assert np.max(res) < 1e-9
    assert abs(np.linalg.det(F)) < 1e-12


def test_fundamental_det_zero_property():
    rng = np.random.default_rng(15)
    for _ in range(20):
        _, _, x1, x2 = exact_pair(rng, n=12)
        x1n = x1 + rng.normal(0, 1.0, x1.shape)
        F = geo.solve_fundamental(x1n, x2)
        assert abs(np.linalg.det(F)) < 1e-12


def test_fundamental_seven_point_solutions_satisfy_constraints():
    rng = np.random.default_rng(9)
    _, _, x1, x2 = exact_pair(rng, n=7)
    sols = geo.solve_fundamental_minimal(x1, x2)
    assert 1 <= len(sols) <= 3
    for F in sols:
        res = np.abs(np.einsum("ij,ij->i", geo.hom(x2), geo.hom(x1) @ F.T))
        assert np.max(res) < 1e-9


def test_homography_identity():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 100, (12, 2))
    H = geo.solve_homography(pts, pts)
    H = H / H[2, 2]
    assert np.allclose(H, np.eye(3), atol=1e-9)


def test_homography_planar_scene_transfer():
    rng = np.random.default_rng(4)
    _, _, x1, x2 = exact_pair(rng, planar=True)
    H = geo.solve_homography(x1, x2)
    assert np.max(geo.homography_transfer_error(H, x1, x2)) < 1e-9


def test_homography_collinear_minimal_degenerate():
    x1 = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 1.0]])
    x2 = x1 + 1.0
    with pytest.raises(geo.DegenerateConfiguration):
        geo.solve_homography(x1, x2)


# ---------------------------------------------------------------------------
# stacked two-view kernels against the per-sample algorithms
# ---------------------------------------------------------------------------


def reference_normalize(points):
    d = points.shape[1]
    centroid = points.mean(axis=0)
    centered = points - centroid
    mean_norm = np.mean(np.linalg.norm(centered, axis=1))
    scale = np.sqrt(d) / mean_norm if mean_norm > 1e-14 else 1.0
    T = np.eye(d + 1)
    T[:d, :d] *= scale
    T[:d, d] = -scale * centroid
    return T, centered * scale


def reference_homography(pts1, pts2):
    """One 4-point DLT at a time; None on a rank-deficient design matrix."""
    T1, p1 = reference_normalize(pts1)
    T2, p2 = reference_normalize(pts2)
    A = np.zeros((2 * len(p1), 9))
    x, y, u, v = p1[:, 0], p1[:, 1], p2[:, 0], p2[:, 1]
    A[0::2, 0], A[0::2, 1], A[0::2, 2] = x, y, 1.0
    A[0::2, 6], A[0::2, 7], A[0::2, 8] = -u * x, -u * y, -u
    A[1::2, 3], A[1::2, 4], A[1::2, 5] = x, y, 1.0
    A[1::2, 6], A[1::2, 7], A[1::2, 8] = -v * x, -v * y, -v
    _, s, vt = np.linalg.svd(A)
    if s[7] < 1e-9 * s[0]:
        return None
    H = np.linalg.inv(T2) @ vt[-1].reshape(3, 3) @ T1
    H = H / np.linalg.norm(H)
    if abs(H[2, 2]) > 1e-12:
        H = H * np.sign(H[2, 2])
    return H


def reference_fundamental_7pt(pts1, pts2):
    """One 7-point sample at a time with ``np.roots``; [] when degenerate."""
    T1, p1 = reference_normalize(pts1)
    T2, p2 = reference_normalize(pts2)
    x, y, u, v = p1[:, 0], p1[:, 1], p2[:, 0], p2[:, 1]
    A = np.column_stack([u * x, u * y, u, v * x, v * y, v, x, y, np.ones_like(x)])
    _, s, vt = np.linalg.svd(A)
    if s[6] < 1e-9 * s[0]:
        return []
    F1, F2 = vt[-1].reshape(3, 3), vt[-2].reshape(3, 3)
    a_s = np.array([0.0, 1.0, -1.0, 2.0])
    dets = np.array([np.linalg.det(a * F1 + (1.0 - a) * F2) for a in a_s])
    coeffs = np.linalg.solve(np.vander(a_s, 4), dets)
    if np.max(np.abs(coeffs)) < 1e-14:
        return []
    out = []
    for r in np.roots(coeffs):
        if abs(r.imag) < 1e-8 * max(1.0, abs(r)):
            F = T2.T @ (r.real * F1 + (1.0 - r.real) * F2) @ T1
            if np.linalg.norm(F) > 1e-14:
                out.append(F / np.linalg.norm(F))
    return out


def reference_adjugate(M):
    """adj(M) of one 3x3 matrix, entry by entry from its signed minors."""
    A = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            m = np.delete(np.delete(M, j, axis=0), i, axis=1)
            A[i, j] = (-1) ** (i + j) * (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return A


def reference_transfer(M, x, target):
    p = M @ np.ascontiguousarray(geo.hom(x).T)
    w = np.where(np.abs(p[2]) < 1e-14, 1e-14, p[2])
    return p[:2] / w - target.T


def reference_transfer_error(H, x1, x2):
    """One H at a time, the backward transfer through adj(H)."""
    df = reference_transfer(H, x1, x2)
    db = reference_transfer(reference_adjugate(H), x2, x1)
    return np.sqrt((df[0] ** 2 + df[1] ** 2) + (db[0] ** 2 + db[1] ** 2))


def inverse_transfer_error(H, x1, x2):
    """The symmetric transfer error through np.linalg.inv."""
    f = geo.hom(x1) @ H.T
    b = geo.hom(x2) @ np.linalg.inv(H).T
    wf = np.where(np.abs(f[:, 2]) < 1e-14, 1e-14, f[:, 2])
    wb = np.where(np.abs(b[:, 2]) < 1e-14, 1e-14, b[:, 2])
    df = f[:, :2] / wf[:, None] - x2
    db = b[:, :2] / wb[:, None] - x1
    return np.sqrt(np.sum(df * df, axis=1) + np.sum(db * db, axis=1))


def reference_sampson(F, x1, x2):
    h1, h2 = geo.hom(x1), geo.hom(x2)
    Fx1, Ftx2 = h1 @ F.T, h2 @ F
    num = np.einsum("ij,ij->i", h2, Fx1)
    den = Fx1[:, 0] ** 2 + Fx1[:, 1] ** 2 + Ftx2[:, 0] ** 2 + Ftx2[:, 1] ** 2
    return np.abs(num) / np.sqrt(np.where(den < 1e-14, 1e-14, den))


def random_samples(rng, x1, x2, k, size):
    idx = np.array([rng.choice(len(x1), size, replace=False) for _ in range(k)])
    return x1[idx], x2[idx]


def test_homography_stack_matches_per_sample_reference():
    rng = np.random.default_rng(21)
    _, _, x1, x2 = exact_pair(rng, n=60)
    x2 = x2 + rng.normal(0, 2.0, x2.shape)
    s1, s2 = random_samples(rng, x1, x2, 64, 4)
    # row 5: three collinear points
    s1[5] = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 1.0]]
    s2[5] = s1[5] + 1.0
    H, ok = geo.solve_homography_stack(s1, s2)
    assert not ok[5] and ok.sum() == 63
    for i in range(64):
        ref = reference_homography(s1[i], s2[i])
        assert (ref is not None) == ok[i]
        if ok[i]:
            assert np.array_equal(H[i], ref)
    # the per-sample name is the stack of one
    assert np.array_equal(geo.solve_homography(s1[0], s2[0]), H[0])
    errors = geo.homography_transfer_error(H[ok], x1, x2)
    assert errors.shape == (63, 60)
    for row, h in zip(errors, H[ok]):
        assert np.array_equal(row, reference_transfer_error(h, x1, x2))
    # homogeneous rows give the same distances as pixels
    assert np.array_equal(
        geo.homography_transfer_error(H[ok], geo.hom(x1), geo.hom(x2)), errors
    )


@pytest.mark.parametrize("planar", [True, False])
def test_transfer_error_agrees_with_inverse_formula(planar):
    rng = np.random.default_rng(21)
    _, _, x1, x2 = exact_pair(rng, n=60, planar=planar)
    s1, s2 = random_samples(rng, x1, x2, 64, 4)
    H, ok = geo.solve_homography_minimal_stack(s1, s2)
    errors = geo.homography_transfer_error(H[ok], x1, x2)
    inverse = np.array([inverse_transfer_error(h, x1, x2) for h in H[ok]])
    if planar:
        assert np.allclose(errors, inverse, rtol=1e-9, atol=1e-9)
    else:
        # a sample off the plane can give an H with a nearly cancelling 2x2
        # minor, whose cofactor keeps fewer digits than the LU inverse (up to
        # 1e-7 relative over 20 such scenes), far below any inlier threshold
        assert np.allclose(errors, inverse, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize(
    "H", [np.diag([1.0, 1.0, 0.0]), np.outer([1.0, 2.0, 0.5], [0.3, -1.0, 2.0])]
)
def test_transfer_error_finite_for_singular_homography(H):
    rng = np.random.default_rng(23)
    x1, x2 = rng.uniform(0, 1000, (2, 30, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(H)
    assert np.isfinite(geo.homography_transfer_error(H, x1, x2)).all()
    assert np.isfinite(geo.homography_transfer_error(H[None], x1, x2)).all()


def homography_stack(rng, kind, n):
    """(H (k, 3, 3), x1 (n, 2), x2 (n, 2)) of one kind of hypothesis stack."""
    _, _, x1, x2 = exact_pair(rng, n=n, planar=kind == "plane-induced")
    x2 = x2 + rng.normal(0, 1.0, x2.shape)
    if kind == "random":
        return rng.normal(0, 1.0, (40, 3, 3)) * [[1, 1, 500]] * [[1], [1], [1e-3]], x1, x2
    if kind == "plane-induced":
        H, ok = geo.solve_homography_minimal_stack(*random_samples(rng, x1, x2, 40, 4))
        return H[ok], x1, x2
    if kind == "singular":
        a, b = rng.normal(0, 1.0, (2, 20, 3))
        u, v = rng.normal(0, 1.0, (2, 20, 3, 2))
        rank1, rank2 = a[:, :, None] * b[:, None, :], u @ np.swapaxes(v, 1, 2)
        return np.concatenate([rank1, rank2, [np.diag([1.0, 1.0, 0.0])]]), x1, x2
    H, ok = geo.solve_homography_minimal_stack(*random_samples(rng, x1, x2, 40, 4))
    H = H[ok]
    H[::3, rng.integers(3), rng.integers(3)] = np.nan
    x1[rng.integers(n)] = np.nan
    return H, x1, x2


@pytest.mark.parametrize("n", [4, 7, 8, 9, 127, 128, 129, 265, 1000])
@pytest.mark.parametrize("kind", ["random", "plane-induced", "singular", "NaN rows"])
def test_forward_error_score_never_above_transfer_score(kind, n):
    # MSAC's bail-out test scores H on its forward transfer alone: that score
    # must never exceed the symmetric error's, to the last bit
    rng = np.random.default_rng(n)
    H, x1, x2 = homography_stack(rng, kind, n)
    bound = geo.homography_forward_error(H, x1, x2)
    exact = geo.homography_transfer_error(H, x1, x2)
    assert bound.shape == exact.shape == (len(H), n)
    assert np.array_equal(np.isnan(bound), np.isnan(exact))
    assert (bound[~np.isnan(exact)] <= exact[~np.isnan(exact)]).all()
    for T in (1e-3, 2.0, 1e6):
        score_bound = np.sum(np.minimum(bound**2, T**2), axis=1)
        score_exact = np.sum(np.minimum(exact**2, T**2), axis=1)
        assert np.array_equal(np.isnan(score_bound), np.isnan(score_exact))
        finite = ~np.isnan(score_exact)
        assert (score_bound[finite] <= score_exact[finite]).all()
    # the forward half of the per-sample reference, one H at a time
    for row, h in zip(bound[:5], H[:5]):
        df = reference_transfer(h, x1, x2)
        assert np.array_equal(row, np.sqrt(df[0] ** 2 + df[1] ** 2), equal_nan=True)


def test_minimal_homography_matches_dlt():
    rng = np.random.default_rng(24)
    for planar, noise in [(True, 0.0), (False, 0.0), (False, 2.0)]:
        _, _, x1, x2 = exact_pair(rng, n=60, planar=planar)
        x2 = x2 + rng.normal(0, noise, x2.shape)
        s1, s2 = random_samples(rng, x1, x2, 200, 4)
        H, ok = geo.solve_homography_minimal_stack(s1, s2)
        assert ok.all()
        for i in range(len(s1)):
            # both Frobenius-normalised with h22 >= 0
            assert np.max(np.abs(H[i] - reference_homography(s1[i], s2[i]))) < 1e-10


GOOD1 = np.array([[100.0, 200.0], [900.0, 150.0], [850.0, 700.0], [150.0, 650.0]])
GOOD2 = np.array([[120.0, 180.0], [880.0, 210.0], [800.0, 690.0], [170.0, 600.0]])
LINE = np.array([[100.0, 100.0], [400.0, 300.0], [700.0, 500.0]])


def with_rows(points, rows, values):
    out = points.copy()
    out[rows] = values
    return out


FIRST_ON_LINE = with_rows(GOOD1, slice(0, 3), LINE)
LAST_ON_LINE = with_rows(GOOD1, slice(1, 4), LINE)
DEGENERATE_SAMPLES = {
    "first three collinear": (FIRST_ON_LINE, FIRST_ON_LINE + 1.0),
    "points 2-4 collinear": (LAST_ON_LINE, LAST_ON_LINE + 1.0),
    "collinear in image 2 only": (GOOD1, with_rows(GOOD2, slice(0, 3), LINE)),
    "collinear in image 1 only": (LAST_ON_LINE, GOOD2),
    "coincident points": (with_rows(GOOD1, 3, GOOD1[1]), with_rows(GOOD2, 3, GOOD2[1])),
    "NaN row": (with_rows(GOOD1, 2, np.nan), GOOD2),
}


@pytest.mark.parametrize("scale", [1.0, 3.0])
@pytest.mark.parametrize("case", sorted(DEGENERATE_SAMPLES))
def test_minimal_homography_rejects_degenerate_samples(case, scale):
    p1, p2 = DEGENERATE_SAMPLES[case]
    # the degenerate sample stacked with a good one
    s1, s2 = scale * np.stack([p1, GOOD1]), scale * np.stack([p2, GOOD2])
    H, ok = geo.solve_homography_minimal_stack(s1, s2)
    assert ok.tolist() == [False, True]
    assert np.isnan(H[0]).all() and np.isfinite(H[1]).all()
    if case == "collinear in image 1 only":
        # the DLT accepts this sample with a rank-1 H
        H_dlt, ok_dlt = geo.solve_homography_stack(s1[:1], s2[:1])
        s = np.linalg.svd(H_dlt[0], compute_uv=False)
        assert ok_dlt[0] and s[1] < 1e-12 * s[0]


def test_fundamental_minimal_stack_matches_per_sample_reference():
    rng = np.random.default_rng(22)
    _, _, x1, x2 = exact_pair(rng, n=60)
    x2 = x2 + rng.normal(0, 2.0, x2.shape)
    s1, s2 = random_samples(rng, x1, x2, 64, 7)
    # row 9: only four distinct correspondences, design matrix rank 4
    s1[9, 4:], s2[9, 4:] = s1[9, :3], s2[9, :3]
    F, owner = geo.solve_fundamental_minimal_stack(s1, s2)
    expected = [(i, f) for i in range(64) for f in reference_fundamental_7pt(s1[i], s2[i])]
    assert 9 not in owner
    assert owner.tolist() == [i for i, _ in expected]
    assert np.array_equal(F, np.array([f for _, f in expected]))
    errors = geo.sampson_distance(F, x1, x2)
    assert errors.shape == (len(F), 60)
    for row, f in zip(errors, F):
        assert np.array_equal(row, reference_sampson(f, x1, x2))
    with pytest.raises(geo.DegenerateConfiguration):
        geo.solve_fundamental_minimal(s1[9], s2[9])


# ---------------------------------------------------------------------------
# SVD without U
# ---------------------------------------------------------------------------


def svd_shapes():
    """Tall and square (rows n ... 4n, then 800, 1600, 2400), wide (their
    transposes up to 4n rows) and stacked shapes for n = 3, 9, 12, 16."""
    for n in (3, 9, 12, 16):
        yield from [(800, n), (1600, n), (2400, n)]
        for m in range(n, 4 * n + 1):
            yield from [(m, n), (3, m, n), (n, m), (2, n, m)]


def test_right_svd_same_bits_as_full_svd():
    rng = np.random.default_rng(0)
    for shape in svd_shapes():
        A = rng.normal(size=shape)
        s, vt = geo._right_svd(A)
        _, s_full, vt_full = np.linalg.svd(A)
        assert np.array_equal(s, s_full) and np.array_equal(vt, vt_full), shape


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "solver, dims",
    [
        (geo.solve_homography, (2, 2)),
        (geo.solve_fundamental, (2, 2)),
        (geo.resect_projective_dlt, (3, 2)),
        (geo.projectivity_dlt_3d, (3, 3)),
    ],
)
def test_least_squares_refits_allocate_no_dense_u(solver, dims):
    # a full SVD of the H refit's 4000 x 9 design matrix allocates a 128 MB U
    rng = np.random.default_rng(1)
    a, b = (rng.uniform(0.0, 1000.0, (2000, d)) for d in dims)
    assert peak_bytes(solver, a, b) < 4 * 2**20


# ---------------------------------------------------------------------------
# relative orientation
# ---------------------------------------------------------------------------


def test_relative_orientation_forward_construction():
    rng = np.random.default_rng(21)
    for _ in range(10):
        # forward construct E = [t]x R from a known motion
        axis = rng.normal(0, 1, 3)
        from scipy.spatial.transform import Rotation

        R = Rotation.from_rotvec(0.3 * axis / np.linalg.norm(axis)).as_matrix()
        t = rng.normal(0, 1, 3)
        t = t / np.linalg.norm(t)
        E = geo.cross_matrix(t) @ R
        # points in front of both cameras, normalized coordinates
        X = np.column_stack(
            [rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30), rng.uniform(4, 8, 30)]
        )
        x1 = X[:, :2] / X[:, 2:3]
        Xc2 = X @ R.T + t
        if np.any(Xc2[:, 2] <= 0):
            continue
        x2 = Xc2[:, :2] / Xc2[:, 2:3]
        Rr, tr = geo.relative_orientation(E, x1, x2)
        cos = 0.5 * (np.trace(Rr @ R.T) - 1.0)
        assert np.arccos(np.clip(cos, -1, 1)) < 1e-6
        assert np.linalg.norm(tr - t) < 1e-6


def test_relative_orientation_pure_rotation_errors():
    E = np.zeros((3, 3))
    with pytest.raises(geo.Degenerate):
        geo.relative_orientation(E, np.zeros((5, 2)), np.zeros((5, 2)))


def test_relative_orientation_candidate_unique():
    rng = np.random.default_rng(31)
    from scipy.spatial.transform import Rotation

    unique = 0
    total = 100
    for _ in range(total):
        R = Rotation.from_rotvec(rng.normal(0, 0.3, 3)).as_matrix()
        t = rng.normal(0, 1, 3)
        t /= np.linalg.norm(t)
        E = geo.cross_matrix(t) @ R
        X = np.column_stack(
            [rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20), rng.uniform(3, 9, 20)]
        )
        x1 = X[:, :2] / X[:, 2:3]
        Xc2 = X @ R.T + t
        if np.any(Xc2[:, 2] <= 0):
            unique += 1  # skip counts as fine; rare by construction
            continue
        x2 = Xc2[:, :2] / Xc2[:, 2:3]
        # enumerate all four candidates and count majority-front ones
        u, s, vt = np.linalg.svd(E)
        if np.linalg.det(u) < 0:
            u = -u
        if np.linalg.det(vt) < 0:
            vt = -vt
        W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        winners = 0
        for Rc in (u @ W @ vt, u @ W.T @ vt):
            for tc in (u[:, 2], -u[:, 2]):
                P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
                P2 = np.hstack([Rc, tc.reshape(3, 1)])
                Xt = geo._triangulate_pair_linear(P1, P2, x1, x2)
                z1 = Xt[:, 2]
                z2 = (Xt @ Rc.T + tc)[:, 2]
                if np.sum((z1 > 0) & (z2 > 0)) * 2 > len(X):
                    winners += 1
        if winners == 1:
            unique += 1
    assert unique >= 99


# ---------------------------------------------------------------------------
# resection
# ---------------------------------------------------------------------------


def test_resect_calibrated_exact():
    rng = np.random.default_rng(41)
    cam = random_camera(rng)
    pts = rng.uniform(-2, 2, (10, 3))
    obs = geo.project(cam, pts)
    R, C = geo.resect_calibrated(pts, obs, cam.intrinsics)
    cos = 0.5 * (np.trace(R @ cam.R.T) - 1.0)
    assert np.arccos(np.clip(cos, -1, 1)) < 1e-6
    assert np.linalg.norm(C - cam.C) < 1e-6


def test_resect_calibrated_collinear_degenerate():
    K = geo.Intrinsics(1000.0, 1000.0, 0.0, 500.0, 400.0)
    pts = np.outer(np.linspace(0, 1, 6), [1.0, 2.0, 0.5])
    obs = np.tile([10.0, 20.0], (6, 1))
    with pytest.raises(geo.DegenerateConfiguration):
        geo.resect_calibrated(pts, obs, K)


def test_resect_calibrated_inside_msac_with_outliers():
    from hsfm import robust

    rng = np.random.default_rng(42)
    cam = random_camera(rng)
    pts = rng.uniform(-2, 2, (40, 3))
    obs = geo.project(cam, pts)
    bad = rng.random(40) < 0.3
    obs[bad] += rng.uniform(50, 300, (int(bad.sum()), 2))
    data = np.hstack([pts, obs])

    def solver(d, idx):
        R, C = geo.resect_calibrated(d[idx, :3], d[idx, 3:], cam.intrinsics)
        return geo.Camera.euclidean(cam.intrinsics, R, C)

    def residual(d, c):
        return geo.reprojection_errors(c, d[:, :3], d[:, 3:])

    cfg = robust.MsacConfig(inlier_threshold=2.0, bucket_size=100.0, rng_seed=1)
    fit = robust.msac(data, solver, residual, cfg, sample_size=4,
                      full_solver=solver, positions=obs)
    got = fit.model_params
    cos = 0.5 * (np.trace(got.R @ cam.R.T) - 1.0)
    assert np.arccos(np.clip(cos, -1, 1)) < 1e-4
    assert np.linalg.norm(got.C - cam.C) < 1e-4


def noisy_resection(seed, n, sigma=1.0):
    """A random camera, ``n`` points in front of it and their pixels with
    Gaussian noise, plus the PPnP start pose (R, t)."""
    rng = np.random.default_rng(seed)
    cam = random_camera(rng)
    pts = rng.uniform(-2, 2, (n, 3))
    obs = geo.project(cam, pts) + rng.normal(0.0, sigma, (n, 2))
    K = cam.intrinsics.K
    R, t = geo._ppnp(geo.hom(obs) @ np.linalg.inv(K).T, pts)
    return pts, obs, K, R, t


def pose_cost(pts, obs, K, R, t):
    r = geo._pose_residual(pts, obs, K, R, t)
    return 0.5 * float(r @ r)


def test_rotation_from_rotvec_same_bits_as_scipy():
    from scipy.spatial.transform import Rotation

    rng = np.random.default_rng(44)
    axes = rng.normal(size=(12_000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([
        np.zeros(1),
        10.0 ** rng.uniform(-12, -3, 3000),          # the Taylor branch
        np.full(500, 1e-3),                          # its edge
        np.full(500, np.nextafter(1e-3, 1.0)),
        np.pi - 10.0 ** rng.uniform(-12, -1, 2000),  # near pi
        np.full(500, np.pi),
        rng.uniform(0.0, np.pi, 4000),
        rng.uniform(np.pi, 20.0, 1499),
    ])
    for v in axes[: len(angles)] * angles[:, None]:
        assert np.array_equal(geo.rotation_from_rotvec(v), Rotation.from_rotvec(v).as_matrix())


def test_pose_jacobian_matches_central_differences():
    pts, obs, K, R, t = noisy_resection(45, 12)
    K[0, 1] = 3.0  # a skewed K exercises every entry of K[:2, :2]
    _, J = geo._pose_residual(pts, obs, K, R, t, jacobian=True)
    h = 1e-6
    numeric = np.empty_like(J)
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        plus = geo._pose_residual(pts, obs, K, geo.rotation_from_rotvec(d[:3]) @ R, t + d[3:])
        minus = geo._pose_residual(pts, obs, K, geo.rotation_from_rotvec(-d[:3]) @ R, t - d[3:])
        numeric[:, k] = (plus - minus) / (2 * h)
    assert np.max(np.abs(J - numeric)) <= 1e-6 * np.max(np.abs(J))


@pytest.mark.parametrize("n", [4, 6, 12, 40, 200])
def test_resect_polish_cost_no_worse_than_least_squares(n):
    from scipy.optimize import least_squares
    from scipy.spatial.transform import Rotation

    for seed in range(20):
        pts, obs, K, R0, t0 = noisy_resection(100 * n + seed, n)

        def residual(params):
            Rc = (Rotation.from_rotvec(params[:3]) * Rotation.from_matrix(R0)).as_matrix()
            return geo._pose_residual(pts, obs, K, Rc, params[3:])

        oracle = least_squares(residual, np.hstack([np.zeros(3), t0]), method="lm")
        R, t = geo._polish_pose(pts, obs, K, R0, t0)
        cost = pose_cost(pts, obs, K, R, t)
        assert cost <= pose_cost(pts, obs, K, R0, t0)
        assert cost <= oracle.cost * (1 + 1e-9)


def test_resect_projective_dlt_exact():
    rng = np.random.default_rng(43)
    cam = random_camera(rng)
    pts = rng.uniform(-2, 2, (12, 3))
    obs = geo.project(cam, pts)
    P = geo.resect_projective_dlt(pts, obs)
    proj = geo.project(geo.Camera(P=P), pts)
    assert np.max(np.linalg.norm(proj - obs, axis=1)) < 1e-8


def test_resect_projective_dlt_coplanar_degenerate():
    rng = np.random.default_rng(44)
    pts = np.column_stack(
        [rng.uniform(-2, 2, 10), rng.uniform(-2, 2, 10), np.zeros(10)]
    )
    obs = rng.uniform(0, 100, (10, 2))
    with pytest.raises(geo.DegenerateConfiguration):
        geo.resect_projective_dlt(pts, obs)


# ---------------------------------------------------------------------------
# absolute orientation / 3D projectivity
# ---------------------------------------------------------------------------


def test_absolute_orientation_identity():
    rng = np.random.default_rng(51)
    pts = rng.normal(0, 1, (15, 3))
    s, R, t = geo.absolute_orientation_similarity(pts, pts)
    assert abs(s - 1.0) < 1e-12
    assert np.allclose(R, np.eye(3), atol=1e-12)
    assert np.allclose(t, 0.0, atol=1e-12)


def test_absolute_orientation_forward_transform():
    rng = np.random.default_rng(52)
    from scipy.spatial.transform import Rotation

    A = rng.normal(0, 1, (20, 3))
    R0 = Rotation.from_rotvec([0.2, -0.4, 0.7]).as_matrix()
    t0 = np.array([3.0, -1.0, 2.0])
    B = geo.apply_similarity(A, 2.0, R0, t0)
    s, R, t = geo.absolute_orientation_similarity(A, B)
    assert abs(s - 2.0) < 1e-10
    assert np.max(np.abs(R - R0)) < 1e-10
    assert np.max(np.abs(t - t0)) < 1e-10


def test_absolute_orientation_optimality_spot_check():
    rng = np.random.default_rng(53)
    from scipy.spatial.transform import Rotation

    A = rng.normal(0, 1, (25, 3))
    B = geo.apply_similarity(A, 1.5, Rotation.from_rotvec([0.1, 0.2, 0.3]).as_matrix(), [1, 2, 3])
    B = B + rng.normal(0, 0.05, B.shape)
    s, R, t = geo.absolute_orientation_similarity(A, B)
    best = np.sum((geo.apply_similarity(A, s, R, t) - B) ** 2)
    for _ in range(1000):
        sc = s * np.exp(rng.normal(0, 0.1))
        Rc = Rotation.from_rotvec(rng.normal(0, 0.1, 3)).as_matrix() @ R
        tc = t + rng.normal(0, 0.1, 3)
        cand = np.sum((geo.apply_similarity(A, sc, Rc, tc) - B) ** 2)
        assert cand >= best - 1e-9


def test_absolute_orientation_residual_matches_independent_svd_oracle():
    rng = np.random.default_rng(54)
    from scipy.spatial.transform import Rotation

    A = rng.normal(0, 1, (30, 3))
    B = geo.apply_similarity(
        A, 0.7, Rotation.from_rotvec([0.5, -0.1, 0.2]).as_matrix(), [0.3, 0.1, -1.0]
    )
    B = B + rng.normal(0, 0.02, B.shape)
    s, R, t = geo.absolute_orientation_similarity(A, B)
    ours = np.sum((geo.apply_similarity(A, s, R, t) - B) ** 2)

    # independent closed-form oracle (textbook formulation, written separately)
    mu_a, mu_b = A.mean(0), B.mean(0)
    Ac, Bc = A - mu_a, B - mu_b
    cov = Bc.T @ Ac / len(A)
    u, d, vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        S[2, 2] = -1.0
    R2 = u @ S @ vt
    s2 = np.trace(np.diag(d) @ S) / np.mean(np.sum(Ac ** 2, axis=1))
    t2 = mu_b - s2 * R2 @ mu_a
    oracle = np.sum((geo.apply_similarity(A, s2, R2, t2) - B) ** 2)
    assert abs(ours - oracle) < 1e-9


def test_absolute_orientation_collinear_degenerate():
    A = np.outer(np.linspace(0, 1, 8), [1.0, 1.0, 1.0])
    with pytest.raises(geo.DegenerateConfiguration):
        geo.absolute_orientation_similarity(A, A + 1.0)


def test_projectivity_dlt_identity():
    rng = np.random.default_rng(61)
    A = rng.normal(0, 1, (12, 3))
    H = geo.projectivity_dlt_3d(A, A)
    H = H / H[3, 3]
    assert np.allclose(H, np.eye(4), atol=1e-8)


def test_projectivity_dlt_forward_collineation():
    rng = np.random.default_rng(62)
    H0 = np.eye(4) + 0.2 * rng.normal(0, 1, (4, 4))
    A = rng.normal(0, 1, (15, 3))
    B = geo.apply_homography_points(H0, A)
    H = geo.projectivity_dlt_3d(A, B)
    H0n = H0 / np.linalg.norm(H0)
    if np.sum(H * H0n) < 0:
        H = -H
    assert np.max(np.abs(H - H0n)) < 1e-8


def test_projectivity_dlt_coplanar_degenerate():
    rng = np.random.default_rng(63)
    A = np.column_stack([rng.normal(0, 1, 10), rng.normal(0, 1, 10), np.zeros(10)])
    with pytest.raises(geo.DegenerateConfiguration):
        geo.projectivity_dlt_3d(A, A)


# ---------------------------------------------------------------------------
# cheirality
# ---------------------------------------------------------------------------


def small_model(rng, n_pts=20):
    c1, c2 = two_camera_rig()
    pts = np.column_stack(
        [rng.uniform(-1, 1, n_pts), rng.uniform(-1, 1, n_pts), rng.uniform(4, 6, n_pts)]
    )
    tps = []
    for k, X in enumerate(pts):
        tps.append(
            geo.TiePoint(
                track={0: geo.project(c1, X), 1: geo.project(c2, X)},
                position=X.copy(),
                status=geo.TRIANGULATED,
                track_index=k,
            )
        )
    return geo.Model(cameras={0: c1, 1: c2}, tie_points=tps, frame=geo.EUCLIDEAN)


def test_cheirality_consistent_model_unchanged():
    model = small_model(np.random.default_rng(71))
    out, info = geo.cheirality_enforce(model)
    assert not info.flipped
    assert not info.tied
    for a, b in zip(out.tie_points, model.tie_points):
        assert np.allclose(a.position, b.position)


def test_cheirality_reflected_model_recovered():
    model = small_model(np.random.default_rng(72))
    reflected = geo.reflect_model(model)
    # sanity: reflection keeps projections but flips depths
    tp = reflected.tie_points[0]
    assert geo.point_depths(reflected.cameras[0], tp.position)[0] < 0
    assert np.allclose(
        geo.project(reflected.cameras[0], tp.position), tp.track[0], atol=1e-6
    )
    out, info = geo.cheirality_enforce(reflected)
    assert info.flipped
    front = sum(
        geo.point_depths(out.cameras[0], tp.position)[0] > 0 for tp in out.tie_points
    )
    assert front * 2 > len(out.tie_points)


def test_cheirality_tie_no_flip():
    model = small_model(np.random.default_rng(73), n_pts=10)
    for tp in model.tie_points[:5]:
        tp.position = -tp.position  # fully behind both cameras
    out, info = geo.cheirality_enforce(model)
    assert not info.flipped
    assert info.tied


def test_cubic_roots_match_np_roots():
    coeffs = np.array([
        [1.0, -6.0, 11.0, -6.0],   # three real roots
        [1.0, 2.0, 3.0, 4.0],      # one real, two complex
        [0.0, 1.0, 2.0, 3.0],      # vanishing leading coefficient
        [1.0, 2.0, 3.0, 0.0],      # root at zero
        [5e-324, 1.0, 1.0, 1.0],   # companion matrix overflows
    ])
    roots = geo._cubic_roots(coeffs)
    for row, got in zip(coeffs[:4], roots):
        want = np.roots(row)
        assert np.array_equal(got[: len(want)], want)
        assert np.isnan(got[len(want):]).all()
    assert np.isnan(roots[4]).all()
