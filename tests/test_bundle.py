import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from hsfm import bundle, geometry as geo, synthetic


def build_problem(
    scene,
    parameterization,
    perturb_points=0.0,
    perturb_cams=0.0,
    fixed_ids=(),
    seed=0,
    radial=0.0,
):
    rng = np.random.default_rng(seed)
    free, fixed = {}, {}
    for img, cam in scene.cameras.items():
        c = cam.copy()
        c.radial = radial
        if parameterization == bundle.PARAM_PROJECTIVE:
            c = geo.Camera(P=c.P.copy(), kind=geo.PROJECTIVE)
        elif perturb_cams and img not in fixed_ids and img != min(scene.cameras):
            dR = Rotation.from_rotvec(rng.normal(0, perturb_cams, 3)).as_matrix()
            c = geo.Camera.euclidean(c.intrinsics, c.R @ dR, c.C + rng.normal(0, perturb_cams, 3), radial=radial)
        (fixed if img in fixed_ids else free)[img] = c
    tps = []
    for t_idx, track in enumerate(scene.tracks):
        pos = scene.points[scene.track_point_ids[t_idx]].copy()
        pos += rng.normal(0, perturb_points, 3) if perturb_points else 0.0
        tps.append(
            geo.TiePoint(
                track={img: scene.observations[img][scene.track_point_ids[t_idx]] for img in track.members},
                position=pos,
                status=geo.TRIANGULATED,
                track_index=t_idx,
            )
        )
    return bundle.BaProblem(
        free_cameras=free,
        fixed_cameras=fixed,
        tie_points=tps,
        parameterization=parameterization,
    )


def small_scene(seed=0, n_cams=4, n_pts=40, noise=0.0):
    return synthetic.generate("ring", n_cams, n_pts, seed=seed, noise_sigma=noise)


# ---------------------------------------------------------------------------
# adjust
# ---------------------------------------------------------------------------


def test_adjust_recovers_perturbed_points():
    scene = small_scene(seed=1)
    problem = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=1e-3)
    sol = bundle.adjust(problem)
    assert sol.report.final_cost < 1e-12
    for img, cam in sol.cameras.items():
        true_cam = scene.cameras[img]
        assert np.linalg.norm(cam.C - true_cam.C) < 1e-6
        cos = 0.5 * (np.trace(cam.R @ true_cam.R.T) - 1.0)
        assert np.arccos(np.clip(cos, -1, 1)) < 1e-6


def test_adjust_zero_residual_terminates_immediately():
    scene = small_scene(seed=2)
    problem = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K)
    sol = bundle.adjust(problem)
    assert sol.report.iterations <= 1
    assert sol.report.termination == "zero_cost"
    for img, cam in sol.cameras.items():
        assert np.array_equal(cam.P, problem.free_cameras[img].P)


def test_adjust_monotone_accepted_costs():
    scene = small_scene(seed=3, noise=0.5)
    problem = build_problem(
        scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=5e-3, perturb_cams=5e-3
    )
    sol = bundle.adjust(problem)
    costs = [sol.report.initial_cost] + sol.report.accepted_costs
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert sol.report.final_cost <= sol.report.initial_cost


def test_adjust_fixed_cameras_bit_identical():
    scene = small_scene(seed=4, n_cams=6, noise=0.3)
    fixed_ids = (0, 1, 2)
    problem = build_problem(
        scene,
        bundle.PARAM_EUCLIDEAN_FIXED_K,
        perturb_points=2e-3,
        perturb_cams=2e-3,
        fixed_ids=fixed_ids,
    )
    before = {img: problem.fixed_cameras[img].P.copy() for img in fixed_ids}
    sol = bundle.adjust(problem)
    for img in fixed_ids:
        assert sol.cameras[img] is problem.fixed_cameras[img]
        assert np.array_equal(sol.cameras[img].P, before[img])
    assert sol.report.final_cost < sol.report.initial_cost


def test_adjust_projective_parameterization():
    scene = small_scene(seed=5)
    problem = build_problem(scene, bundle.PARAM_PROJECTIVE, perturb_points=1e-3)
    sol = bundle.adjust(problem)
    assert sol.report.final_cost < 1e-10


def test_adjust_free_intrinsics_recovers_focal():
    scene = small_scene(seed=6, n_cams=5, n_pts=60)
    problem = build_problem(scene, bundle.PARAM_EUCLIDEAN_FREE_K)
    # bias every focal by 2%, BA should pull them back
    for img, cam in problem.free_cameras.items():
        k = cam.intrinsics
        problem.free_cameras[img] = geo.Camera.euclidean(
            geo.Intrinsics(k.fx * 1.02, k.fy * 1.02, 0.0, k.cx, k.cy), cam.R, cam.C
        )
    sol = bundle.adjust(problem)
    assert sol.report.final_cost < 1e-8
    for img, cam in sol.cameras.items():
        true_f = scene.cameras[img].intrinsics.focal
        assert abs(cam.intrinsics.focal - true_f) / true_f < 1e-4


def test_adjust_frozen_intrinsics_untouched():
    scene = small_scene(seed=7, n_cams=4, noise=0.3)
    problem = build_problem(
        scene, bundle.PARAM_EUCLIDEAN_FREE_K, perturb_points=2e-3, perturb_cams=1e-3
    )
    problem.frozen_intrinsics = set(scene.cameras)
    before = {
        img: (c.intrinsics.fx, c.intrinsics.fy, c.intrinsics.cx, c.intrinsics.cy, c.radial)
        for img, c in problem.free_cameras.items()
    }
    sol = bundle.adjust(problem)
    for img, cam in sol.cameras.items():
        after = (cam.intrinsics.fx, cam.intrinsics.fy, cam.intrinsics.cx, cam.intrinsics.cy, cam.radial)
        assert after == before[img]


def test_adjust_radial_coefficient_estimated():
    # observations rendered with true distortion; BA with free intrinsics
    # starting at zero radial must recover the coefficient
    k1_true = -0.08
    scene = small_scene(seed=8, n_cams=5, n_pts=80)
    for img, cam in scene.cameras.items():
        distorted = geo.Camera.euclidean(cam.intrinsics, cam.R, cam.C, radial=k1_true)
        for t_idx, track in enumerate(scene.tracks):
            if img in track.members:
                p = scene.track_point_ids[t_idx]
                scene.observations[img][p] = geo.project(
                    distorted, scene.points[p]
                )
    problem = build_problem(scene, bundle.PARAM_EUCLIDEAN_FREE_K, radial=0.0)
    sol = bundle.adjust(problem)
    assert sol.report.final_cost < 1e-8
    for cam in sol.cameras.values():
        assert abs(cam.radial - k1_true) < 1e-4


# ---------------------------------------------------------------------------
# gauge invariance
# ---------------------------------------------------------------------------


def test_gauge_invariance_of_final_cost():
    scene = small_scene(seed=9)
    base = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=1e-3)
    sol_a = bundle.adjust(base)

    s, R0, t0 = 1.7, Rotation.from_rotvec([0.3, -0.2, 0.5]).as_matrix(), np.array([4.0, -2.0, 1.0])
    moved = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=1e-3)
    for img, cam in list(moved.free_cameras.items()):
        moved.free_cameras[img] = geo.Camera.euclidean(
            cam.intrinsics, cam.R @ R0.T, s * (R0 @ cam.C) + t0
        )
    for tp in moved.tie_points:
        tp.position = s * (R0 @ tp.position) + t0
    sol_b = bundle.adjust(moved)
    assert abs(sol_a.report.final_cost - sol_b.report.final_cost) < 1e-10


# ---------------------------------------------------------------------------
# Schur vs dense
# ---------------------------------------------------------------------------


def _dense_step(U, W, V, gc, gp, lam):
    """The damped step from the full J^T J assembled out of the same blocks."""
    nc, n_pts = W.shape[:2]
    H = np.zeros((nc + 3 * n_pts, nc + 3 * n_pts))
    H[:nc, :nc] = U
    H[:nc, nc:] = W.reshape(nc, -1)
    H[nc:, :nc] = W.reshape(nc, -1).T
    for p in range(n_pts):
        H[nc + 3 * p : nc + 3 * p + 3, nc + 3 * p : nc + 3 * p + 3] = V[p]
    Hd = H + np.diag(lam * np.maximum(np.diag(H), 1e-12))
    return bundle._solve_dense(Hd, np.concatenate([gc, gp.ravel()]))


@pytest.mark.parametrize(
    "parameterization, fixed_ids",
    [
        (bundle.PARAM_EUCLIDEAN_FIXED_K, ()),
        (bundle.PARAM_EUCLIDEAN_FREE_K, ()),
        (bundle.PARAM_PROJECTIVE, ()),
        (bundle.PARAM_EUCLIDEAN_FIXED_K, (0, 1)),
    ],
    ids=["fixed_k", "free_k", "projective", "fixed_k_anchored"],
)
def test_schur_equals_dense_normal_solve(parameterization, fixed_ids):
    # widths 6, 10 (4 for the free-K gauge camera) and 12, the zero-width
    # gauge camera, and fixed cameras that own no parameters
    scene = small_scene(seed=10, n_cams=4, n_pts=25, noise=0.5)
    problem = build_problem(
        scene,
        parameterization,
        perturb_points=3e-3,
        perturb_cams=2e-3,
        fixed_ids=fixed_ids,
        radial=-0.02 if parameterization == bundle.PARAM_EUCLIDEAN_FREE_K else 0.0,
    )
    state = bundle._State(problem)
    r = state.residuals()
    U, W, V, gc, gp = state.normal_equations(r)
    J = state.dense_jacobian()
    H = J.T @ J
    g = J.T @ r
    nc, n_pts = state.n_cam_params, len(state.points)
    assert W.shape == (nc, n_pts, 3)
    tol = 1e-10 * max(1.0, np.max(np.abs(H)))
    assert np.max(np.abs(U - H[:nc, :nc]), initial=0.0) < tol
    assert np.max(np.abs(W.reshape(nc, -1) - H[:nc, nc:]), initial=0.0) < tol
    Hpp = H[nc:, nc:].reshape(n_pts, 3, n_pts, 3).copy()
    for p in range(n_pts):
        assert np.max(np.abs(V[p] - Hpp[p, :, p, :])) < tol
        Hpp[p, :, p, :] = 0.0
    assert not Hpp.any()   # no coupling between different points
    assert np.max(np.abs(np.concatenate([gc, gp.ravel()]) - g)) < 1e-10 * max(
        1.0, np.max(np.abs(g))
    )
    for lam in (1e-3, 1e-1, 10.0):
        Hd = H + np.diag(lam * np.maximum(np.diag(H), 1e-12))
        d_schur = bundle._solve_schur(U, W, V, gc, gp, lam)
        d_dense = bundle._solve_dense(Hd, g)
        assert np.max(np.abs(d_schur - d_dense)) < 1e-8 * max(
            1.0, np.max(np.abs(d_dense))
        )


def test_adjust_same_result_with_and_without_schur(monkeypatch):
    scene = small_scene(seed=11, noise=0.4)
    p1 = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=2e-3)
    p2 = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=2e-3)
    a = bundle.adjust(p1)
    monkeypatch.setattr(bundle, "_solve_schur", _dense_step)
    b = bundle.adjust(p2)
    assert b.report.iterations > 0
    assert abs(a.report.final_cost - b.report.final_cost) < 1e-8 * max(
        1.0, a.report.final_cost
    )


def test_adjust_memory_linear_in_points():
    # a dense (n_params x n_params) normal matrix here would take 74 MB
    scene = small_scene(seed=3, n_cams=3, n_pts=1500, noise=0.5)
    problem = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=1e-3)
    problem.max_iterations = 3
    assert len(problem.tie_points) > 500
    tracemalloc.start()
    try:
        sol = bundle.adjust(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.report.iterations > 0
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# jacobian check
# ---------------------------------------------------------------------------


def test_jacobian_check_euclidean():
    scene = small_scene(seed=12, n_cams=3, n_pts=20, noise=0.5)
    problem = build_problem(
        scene, bundle.PARAM_EUCLIDEAN_FIXED_K, perturb_points=1e-3, perturb_cams=1e-3
    )
    assert bundle.jacobian_check(problem) < 1e-5


def test_jacobian_check_euclidean_free_k_with_radial():
    scene = small_scene(seed=13, n_cams=3, n_pts=20, noise=0.5)
    problem = build_problem(
        scene, bundle.PARAM_EUCLIDEAN_FREE_K, perturb_points=1e-3, radial=-0.05
    )
    assert bundle.jacobian_check(problem) < 1e-5


def test_jacobian_check_projective():
    scene = small_scene(seed=14, n_cams=3, n_pts=20, noise=0.5)
    problem = build_problem(scene, bundle.PARAM_PROJECTIVE, perturb_points=1e-3)
    assert bundle.jacobian_check(problem) < 1e-5


def test_jacobian_check_zero_parameters():
    scene = small_scene(seed=15, n_cams=2, n_pts=5)
    problem = build_problem(scene, bundle.PARAM_EUCLIDEAN_FIXED_K)
    problem.fixed_cameras = problem.free_cameras
    problem.free_cameras = {}
    problem.tie_points = []
    assert bundle.jacobian_check(problem) == 0.0


# ---------------------------------------------------------------------------
# local anchoring
# ---------------------------------------------------------------------------


def test_local_ba_anchors_hold_free_cameras_consistent():
    scene = synthetic.generate("two-cluster", 8, 250, seed=16, noise_sigma=0.2)
    fixed_ids = tuple(sorted(scene.cameras))[:4]
    problem = build_problem(
        scene,
        bundle.PARAM_EUCLIDEAN_FIXED_K,
        perturb_points=2e-3,
        perturb_cams=2e-3,
        fixed_ids=fixed_ids,
    )
    sol = bundle.adjust(problem)
    assert sol.report.final_cost < sol.report.initial_cost
    # reprojection into the fixed cameras stays at the noise level
    diag = scene.diagonal
    for img in fixed_ids:
        cam = sol.cameras[img]
        errs = []
        for k, tp in enumerate(problem.tie_points):
            if img in tp.track:
                errs.append(
                    np.linalg.norm(geo.project(cam, sol.points[k]) - tp.track[img])
                )
        assert np.mean(errs) < diag / 1800.0


# ---------------------------------------------------------------------------
# near-critical scenes: the free-K model, not the pipeline, breaks the gates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cameras, points, seed, within_gates",
    [
        (12, 350, 1, False),
        (12, 350, 2, False),
        (10, 800, 36, False),
        (12, 350, 12, True),
        (12, 350, 3, True),
        (10, 800, 12, True),
    ],
)
def test_free_k_ba_from_truth_against_criterion_6_gates(cameras, points, seed, within_gates):
    # the benchmark's scenes (0.5 px noise, 2% outliers): free-K BA started at
    # the ground truth already breaks criterion 6's gates on some seeds, so a
    # pipeline run failing there shows a weakly determined focal, not a
    # defect in stereo, resection, merge or the upgrade
    from test_acceptance import ba_on_truth_baseline, truth_tie_points

    scene = synthetic.generate(
        "ring", cameras, points, seed=seed, noise_sigma=0.5, outlier_rate=0.02
    )
    problem = bundle.BaProblem(
        free_cameras={img: cam.copy() for img, cam in scene.cameras.items()},
        tie_points=truth_tie_points(scene),
        parameterization=bundle.PARAM_EUCLIDEAN_FREE_K,
    )
    sol = bundle.adjust(problem)
    assert sol.report.termination == "converged"
    model = geo.Model(cameras=sol.cameras, frame=geo.EUCLIDEAN)
    for tp, pos in zip(problem.tie_points, sol.points):
        model.tie_points.append(
            geo.TiePoint(track=tp.track, position=pos, status=geo.TRIANGULATED,
                         track_index=tp.track_index)
        )
    cmp = synthetic.compare_to_truth(model, scene)
    rms_ratio = cmp.similarity_rms / ba_on_truth_baseline(scene)
    worst_focal = max(cmp.focal_errors.values())
    assert (rms_ratio <= 5.0 and worst_focal < 0.02) == within_gates
