import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from hsfm import autocalib, geometry as geo, synthetic


WEIGHTS = autocalib.CostWeights()


# ---------------------------------------------------------------------------
# viewport / cost / counting
# ---------------------------------------------------------------------------


def test_viewport_640_480():
    V = autocalib.viewport(640, 480)
    assert np.allclose(V, [[400, 0, 320], [0, 400, 240], [0, 0, 1]])


def test_viewport_2x2():
    V = autocalib.viewport(2, 2)
    assert np.allclose(V, [[np.sqrt(2), 0, 1], [0, np.sqrt(2), 1], [0, 0, 1]])


def test_viewport_invertible():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w, h = rng.uniform(1, 5000, 2)
        assert abs(np.linalg.det(autocalib.viewport(w, h))) > 0


def test_cost_identity_zero():
    assert autocalib.cost(np.eye(3), WEIGHTS) == 0.0


def test_cost_single_skew_term():
    K = np.eye(3)
    K[0, 1] = 0.1
    w = autocalib.CostWeights(skew=1.0, aspect=1.0, u0=1.0, v0=1.0)
    assert autocalib.cost(K, w) == pytest.approx(0.1)


def test_cost_linear_in_weights():
    rng = np.random.default_rng(1)
    K = np.eye(3) + 0.05 * np.triu(rng.normal(0, 1, (3, 3)))
    K[2, 2] = 1.0
    w1 = autocalib.CostWeights(2.0, 3.0, 4.0, 5.0)
    w2 = autocalib.CostWeights(4.0, 6.0, 8.0, 10.0)
    assert autocalib.cost(K, w2) == pytest.approx(2.0 * autocalib.cost(K, w1))


def test_counting_argument():
    assert autocalib.counting_feasible(4, 2, 0)
    assert not autocalib.counting_feasible(3, 2, 0)
    assert autocalib.counting_feasible(2, 5, 0)
    assert not autocalib.counting_feasible(2, 0, 0)


# ---------------------------------------------------------------------------
# plane at infinity
# ---------------------------------------------------------------------------


def euclidean_pair(rng, f2=900.0):
    R2 = Rotation.from_rotvec(rng.normal(0, 0.2, 3)).as_matrix()
    t2 = rng.normal(0, 1, 3)
    t2 = t2 / np.linalg.norm(t2)
    K2 = np.array([[f2, 0.0, 10.0], [0.0, f2, -5.0], [0.0, 0.0, 1.0]])
    P2 = K2 @ np.hstack([R2, t2.reshape(3, 1)])
    return P2, K2, R2, t2


def test_plane_at_infinity_euclidean_frame_gives_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        P2, K2, _, _ = euclidean_pair(rng)
        r = autocalib.plane_at_infinity(P2, np.eye(3), K2)
        assert np.linalg.norm(r) < 1e-9


def test_plane_at_infinity_rotation_rows_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        P2, K2, R2, t2 = euclidean_pair(rng)
        r = autocalib.plane_at_infinity(P2, np.eye(3), K2)
        H = autocalib.UpgradeCollineation(K1=np.eye(3), r=r).H
        PE = P2 @ H
        M = np.linalg.inv(K2) @ PE[:, :3]
        M = M / np.linalg.norm(M[2])
        assert np.max(np.abs(M @ M.T - np.eye(3))) < 1e-8


def test_plane_at_infinity_zero_epipole():
    P2 = np.hstack([np.eye(3), np.zeros((3, 1))])
    with pytest.raises(autocalib.ZeroEpipole):
        autocalib.plane_at_infinity(P2, np.eye(3), np.eye(3))


def test_plane_at_infinity_independent_of_alignment_rotation(monkeypatch):
    rng = np.random.default_rng(4)
    P2, K2, _, t2 = euclidean_pair(rng)
    base = autocalib.plane_at_infinity(P2, np.eye(3), K2)
    orig = autocalib._rotation_to_x_axis

    def spun(t):
        # any other valid aligner: pre-rotate about the x axis afterwards
        extra = Rotation.from_rotvec([0.7, 0.0, 0.0]).as_matrix()
        return extra @ orig(t)

    monkeypatch.setattr(autocalib, "_rotation_to_x_axis", spun)
    alt = autocalib.plane_at_infinity(P2, np.eye(3), K2)
    assert np.linalg.norm(alt - base) < 1e-9


def test_undo_known_projective_distortion():
    # Euclidean pair distorted by a known H0, true intrinsics supplied:
    # the upgraded second camera must decompose to the true K again, i.e.
    # the upgrade reproduces the original pair up to a global similarity
    rng = np.random.default_rng(5)
    scene = synthetic.generate("ring", 2, 60, seed=5)
    ids = sorted(scene.cameras)
    K = {i: scene.cameras[i].intrinsics.K for i in ids}
    H0 = np.eye(4) + 0.1 * rng.normal(0, 1, (4, 4))
    P_proj = {i: scene.cameras[i].P @ np.linalg.inv(H0) for i in ids}
    # canonicalize camera 0 to [I | 0]
    P1 = P_proj[ids[0]]
    _, _, vt = np.linalg.svd(P1)
    G = np.linalg.inv(np.vstack([P1, vt[-1]]))
    assert np.allclose(P1 @ G, np.hstack([np.eye(3), np.zeros((3, 1))]), atol=1e-9)
    # in this frame camera 0 is [I | 0] with implied calibration K0 only if
    # the upgrade carries K0, which is exactly the collineation's K1 block
    C2 = P_proj[ids[1]] @ G
    r = autocalib.plane_at_infinity(C2, K[ids[0]], K[ids[1]])
    H = autocalib.UpgradeCollineation(K1=K[ids[0]], r=r).H
    Kup, _, _ = geo.decompose_projection(C2 @ H)
    Ktrue = K[ids[1]] / K[ids[1]][2, 2]
    assert np.max(np.abs(Kup - Ktrue)) < 1e-6 * Ktrue[0, 0]


# ---------------------------------------------------------------------------
# grid search / refine / upgrade on projectified models
# ---------------------------------------------------------------------------


def projectify(scene, rng, strength=0.5):
    """Map a true Euclidean model through a random collineation."""
    model = geo.Model(frame=geo.PROJECTIVE)
    H0 = np.eye(4)
    H0[3, :3] = strength * rng.normal(0, 0.02, 3)
    H0[:3, :3] += strength * 0.1 * rng.normal(0, 1, (3, 3))
    for img, cam in scene.cameras.items():
        P = cam.P @ np.linalg.inv(H0)
        model.cameras[img] = geo.Camera(P=P / np.linalg.norm(P), kind=geo.PROJECTIVE)
    for t_idx, track in enumerate(scene.tracks):
        p = scene.track_point_ids[t_idx]
        X = geo.apply_homography_points(H0, scene.points[p][None, :])[0]
        model.tie_points.append(
            geo.TiePoint(
                track={img: scene.observations[img][p] for img in track.members},
                position=X,
                status=geo.TRIANGULATED,
                track_index=t_idx,
            )
        )
    return model, H0


def sizes_of(scene):
    return {img: scene.image_size for img in scene.cameras}


def test_grid_search_basin_contains_truth():
    rng = np.random.default_rng(7)
    scene = synthetic.generate("ring", 5, 60, seed=7)
    model, _ = projectify(scene, rng)
    ids, canon, Vs, G = autocalib.normalized_model_cameras(model, sizes_of(scene))
    cfg = autocalib.AutocalConfig()
    f1, f2, r, profile = autocalib.grid_search(canon, WEIGHTS, cfg)
    true_f = scene.cameras[ids[0]].intrinsics.focal / (0.5 * scene.diagonal)
    # within one log-spaced cell of the true normalized focal
    cell = np.log(3.0 / (1.0 / 3.0)) / (cfg.grid_size - 1)
    assert abs(np.log(f1) - np.log(true_f)) < 1.5 * cell
    assert abs(np.log(f2) - np.log(true_f)) < 1.5 * cell


def test_grid_search_two_camera_model_runs():
    rng = np.random.default_rng(8)
    scene = synthetic.generate("ring", 2, 50, seed=8)
    model, _ = projectify(scene, rng)
    _, canon, _, _ = autocalib.normalized_model_cameras(model, sizes_of(scene))
    f1, f2, r, profile = autocalib.grid_search(canon, WEIGHTS, autocalib.AutocalConfig())
    assert np.isfinite(profile).any()


def test_refine_fixed_point_near_truth():
    rng = np.random.default_rng(9)
    scene = synthetic.generate("ring", 6, 60, seed=9)
    model, _ = projectify(scene, rng)
    ids, canon, _, _ = autocalib.normalized_model_cameras(model, sizes_of(scene))
    true_f = scene.cameras[ids[0]].intrinsics.focal / (0.5 * scene.diagonal)
    up, (g1, g2) = autocalib.refine(true_f, true_f, canon, WEIGHTS, autocalib.AutocalConfig())
    assert abs(g1 - true_f) / true_f < 1e-3
    assert abs(g2 - true_f) / true_f < 1e-3


def test_refine_matches_scipy_least_squares():
    # criterion 1's fifty exact problems, refined from the grid's best cell
    from scipy.optimize import least_squares

    rng = np.random.default_rng(1000)
    cfg = autocalib.AutocalConfig()
    worst = 0.0
    for trial in range(50):
        scene = synthetic.generate("ring", 5 + trial % 6, 50, seed=2000 + trial)
        model, _ = projectify(scene, rng)
        _, canon, _, _ = autocalib.normalized_model_cameras(model, sizes_of(scene))
        f1, f2, _, _ = autocalib.grid_search(canon, WEIGHTS, cfg)
        _, refined = autocalib.refine(f1, f2, canon, WEIGHTS, cfg)

        def residual(p):
            K1 = np.array([[p[0], 0.0, p[2]], [0.0, p[0], p[3]], [0.0, 0.0, 1.0]])
            K2 = np.array([[p[1], 0.0, p[4]], [0.0, p[1], p[5]], [0.0, 0.0, 1.0]])
            H = autocalib.UpgradeCollineation(
                K1=K1, r=autocalib.plane_at_infinity(canon[1], K1, K2)
            ).H
            Ks = autocalib._upgraded_intrinsics(canon[1:], H)
            return np.concatenate([autocalib.plausibility_terms(K, WEIGHTS) for K in Ks])

        oracle = least_squares(residual, [f1, f2, 0.0, 0.0, 0.0, 0.0], method="trf").x
        worst = max(worst, *np.abs(np.subtract(refined, oracle[:2])) / oracle[:2])
    assert worst < 1e-9


def test_upgrade_end_to_end_recovers_focals_and_structure():
    rng = np.random.default_rng(10)
    for seed in (20, 21, 22):
        scene = synthetic.generate("ring", 6, 80, seed=seed)
        model, _ = projectify(scene, rng)
        up = autocalib.upgrade(model, sizes_of(scene))
        assert up.frame == geo.EUCLIDEAN
        cmp = synthetic.compare_to_truth(up, scene)
        for img, err in cmp.focal_errors.items():
            assert err < 0.01
        assert cmp.similarity_rms < 1e-3


def test_upgrade_idempotent_up_to_similarity():
    rng = np.random.default_rng(11)
    scene = synthetic.generate("ring", 5, 60, seed=23)
    model, _ = projectify(scene, rng)
    up1 = autocalib.upgrade(model, sizes_of(scene))
    re_proj, _ = projectify(scene, np.random.default_rng(99))
    up2 = autocalib.upgrade(re_proj, sizes_of(scene))
    a = np.array([tp.position for tp in up1.tie_points])
    b = np.array([tp.position for tp in up2.tie_points])
    s, R, t = geo.absolute_orientation_similarity(a, b)
    rms = np.sqrt(np.mean(np.sum((geo.apply_similarity(a, s, R, t) - b) ** 2, axis=1)))
    assert rms < 1e-6 * max(1.0, np.abs(b).max())


def test_grid_search_argmin_invariant_to_weight_rescaling():
    rng = np.random.default_rng(12)
    scene = synthetic.generate("ring", 4, 50, seed=24)
    model, _ = projectify(scene, rng)
    _, canon, _, _ = autocalib.normalized_model_cameras(model, sizes_of(scene))
    cfg = autocalib.AutocalConfig(grid_size=12)
    f1a, f2a, _, _ = autocalib.grid_search(canon, autocalib.CostWeights(100, 10, 1, 1), cfg)
    f1b, f2b, _, _ = autocalib.grid_search(canon, autocalib.CostWeights(300, 30, 3, 3), cfg)
    assert (f1a, f2a) == (f1b, f2b)


def test_upgrade_pure_rotation_fails_zero_epipole():
    K = geo.Intrinsics(1000.0, 1000.0, 0.0, 500.0, 400.0)
    model = geo.Model(frame=geo.PROJECTIVE)
    for k in range(3):
        R = Rotation.from_rotvec([0, 0.2 * k, 0]).as_matrix()
        P = K.K @ np.hstack([R, np.zeros((3, 1))])
        model.cameras[k] = geo.Camera(P=P / np.linalg.norm(P), kind=geo.PROJECTIVE)
    sizes = {k: (1000, 800) for k in range(3)}
    with pytest.raises(autocalib.ZeroEpipole):
        autocalib.upgrade(model, sizes)
