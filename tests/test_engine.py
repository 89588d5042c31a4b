import os

import numpy as np
import pytest

from hsfm import cli, engine, fileio, geometry as geo, graph, robust, synthetic
from hsfm.tracks import Track, TrackSet


def scene_inputs(scene, calibrated=True):
    images = {
        img: engine.ImageInfo(
            width=scene.image_size[0],
            height=scene.image_size[1],
            keypoints=scene.keypoints[img],
            intrinsics=scene.cameras[img].intrinsics if calibrated else None,
        )
        for img in scene.cameras
    }
    return images


def verified_edges(scene, seed=0):
    diag = scene.diagonal
    cfg = graph.VerifyConfig(
        inlier_threshold=diag / 1800.0, bucket_size=diag / 25.0, rng_seed=seed
    )
    edges = []
    for pair, matches in sorted(scene.matches.items()):
        i, j = pair
        out = graph.narrow_phase_verify(
            pair,
            scene.keypoints[i],
            scene.keypoints[j],
            scene.descriptors[i],
            scene.descriptors[j],
            cfg,
            candidate_matches=matches,
        )
        if isinstance(out, graph.EpipolarEdge):
            edges.append(out)
    return edges


def run_scene(scene, mode=engine.CALIBRATED, seed=0, **cfg_kw):
    images = scene_inputs(scene, calibrated=(mode == engine.CALIBRATED))
    edges = verified_edges(scene, seed=seed)
    config = fileio.PipelineConfig(mode=mode, rng_seed=seed, **cfg_kw)
    return engine.run(images, scene.tracks, edges, config)


# ---------------------------------------------------------------------------
# calibrated pipeline
# ---------------------------------------------------------------------------


def test_calibrated_ring_single_model():
    scene = synthetic.generate("ring", 8, 250, seed=30)
    result = run_scene(scene)
    assert len(result.models) == 1
    model = result.models[0]
    assert model.frame == geo.EUCLIDEAN
    assert len(model.cameras) == 8
    errs = []
    for tp in model.triangulated():
        for img in tp.track:
            if img in model.cameras:
                errs.append(
                    np.linalg.norm(
                        geo.project(model.cameras[img], tp.position) - tp.track[img]
                    )
                )
    assert np.mean(errs) < 1.0
    cmp = synthetic.compare_to_truth(model, scene)
    assert cmp.similarity_rms < 1e-3


def test_calibrated_ring_with_noise_and_outliers():
    scene = synthetic.generate(
        "ring", 8, 300, seed=31, noise_sigma=0.5, outlier_rate=0.02
    )
    result = run_scene(scene)
    assert len(result.models) == 1
    model = result.models[0]
    assert len(model.cameras) == 8
    cmp = synthetic.compare_to_truth(model, scene)
    assert cmp.similarity_rms < 0.05
    for err in cmp.rotation_errors.values():
        assert err < 0.01


def test_planar_scene_yields_no_model():
    scene = synthetic.generate("planar", 4, 150, seed=32)
    images = scene_inputs(scene)
    edges = verified_edges(scene)
    assert all(e.model_class == robust.HOMOGRAPHY for e in edges)
    with pytest.raises(engine.NoModel):
        engine.run(images, scene.tracks, edges, fileio.PipelineConfig())


def test_two_disjoint_scenes_give_two_models():
    a = synthetic.generate("ring", 4, 120, seed=33)
    b = synthetic.generate("ring", 4, 120, seed=34)
    images = scene_inputs(a)
    edges = verified_edges(a)
    offset = 100
    for img in sorted(b.cameras):
        images[img + offset] = engine.ImageInfo(
            width=b.image_size[0],
            height=b.image_size[1],
            keypoints=b.keypoints[img],
            intrinsics=b.cameras[img].intrinsics,
        )
    from hsfm.tracks import Track

    tracks = list(a.tracks)
    for t in b.tracks:
        tracks.append(Track({img + offset: kp for img, kp in t.members.items()}))
    for e in verified_edges(b):
        e.pair = (e.pair[0] + offset, e.pair[1] + offset)
        edges.append(e)
    result = engine.run(images, TrackSet(tracks), edges, fileio.PipelineConfig())
    assert len(result.models) == 2
    sizes = sorted(len(m.cameras) for m in result.models)
    assert sizes == [4, 4]


def test_engine_deterministic():
    scene = synthetic.generate("ring", 6, 200, seed=35, noise_sigma=0.3)
    r1 = run_scene(scene, seed=7)
    r2 = run_scene(scene, seed=7)
    m1, m2 = r1.models[0], r2.models[0]
    assert r1.report_lines == r2.report_lines
    for img in m1.cameras:
        assert np.array_equal(m1.cameras[img].P, m2.cameras[img].P)


def test_action_kinds_follow_node_types():
    scene = synthetic.generate("ring", 7, 220, seed=36)
    result = run_scene(scene)
    for act in result.actions:
        if not act.ok:
            continue
        la, lb = len(act.inputs[0]), len(act.inputs[1])
        if la == 1 and lb == 1:
            assert act.kind == engine.STEREO
        elif la > 1 and lb > 1:
            assert act.kind == engine.MERGE
        else:
            assert act.kind == engine.RESECTION


def test_sibling_camera_sets_disjoint_then_union():
    scene = synthetic.generate("ring", 8, 220, seed=37)
    result = run_scene(scene)
    for act in result.actions:
        if act.ok:
            sa, sb = set(act.inputs[0]), set(act.inputs[1])
            assert not (sa & sb)
            if act.kind == engine.MERGE:
                assert act.cameras == len(sa | sb)


def test_no_output_point_seen_by_fewer_than_min_track_length_images():
    # a two-view track has no redundancy: plant one whose second keypoint is
    # a gross outlier on the epipolar line, so it triangulates without error
    scene = synthetic.generate("ring", 5, 200, seed=38)
    i, j = 0, 4
    p = min(set(scene.observations[i]) & set(scene.observations[j]))
    center = scene.cameras[i].center()
    wrong = center + 1.3 * (scene.points[p] - center)  # same ray from camera i
    planted = {}
    for img in (i, j):
        uv = geo.project(scene.cameras[img], wrong)
        planted[img] = len(scene.keypoints[img])
        scene.keypoints[img] = np.vstack([scene.keypoints[img], [*uv, 1.0, 0.0]])
    assert np.linalg.norm(uv - scene.observations[j][p]) > 400.0
    tracks = TrackSet([*scene.tracks, Track(planted)])
    config = fileio.PipelineConfig()
    result = engine.run(scene_inputs(scene), tracks, verified_edges(scene), config)
    assert {i, j} <= set(result.models[0].cameras)
    for model in result.models:
        for tp in model.triangulated():
            assert len(tracks[tp.track_index]) >= config.min_track_length


def test_reprojection_gate_holds_everywhere():
    scene = synthetic.generate("ring", 6, 180, seed=39, noise_sigma=0.4)
    result = run_scene(scene)
    model = result.models[0]
    diag = scene.diagonal
    for tp in model.triangulated():
        for img in tp.track:
            if img in model.cameras:
                e = np.linalg.norm(
                    geo.project(model.cameras[img], tp.position) - tp.track[img]
                )
                assert e <= diag / 2400.0 + 1e-9


# ---------------------------------------------------------------------------
# autocalibrated pipeline
# ---------------------------------------------------------------------------


def test_autocalibrated_ring_recovers_focals():
    scene = synthetic.generate("ring", 6, 250, seed=40)
    result = run_scene(scene, mode=engine.AUTOCALIBRATED)
    assert len(result.models) == 1
    model = result.models[0]
    assert model.frame == geo.EUCLIDEAN
    assert len(model.cameras) == 6
    cmp = synthetic.compare_to_truth(model, scene)
    for img, err in cmp.focal_errors.items():
        assert err < 0.02
    assert cmp.similarity_rms < 0.01


def test_compare_to_truth_same_after_model_round_trip(tmp_path):
    # a model read from disk has no track indices; its keypoints vote for
    # the scene points instead and must give the same registration
    scene = synthetic.generate("ring", 6, 120, seed=31, noise_sigma=0.3)
    model = run_scene(scene, mode=engine.AUTOCALIBRATED).models[0]
    direct = synthetic.compare_to_truth(model, scene)
    fileio.write_model(model, tmp_path, stem="m", tracks=scene.tracks)
    again = synthetic.compare_to_truth(fileio.read_model(tmp_path, stem="m"), scene)
    assert again.n_points == direct.n_points
    assert abs(again.similarity_rms - direct.similarity_rms) < 1e-9
    assert direct.focal_errors and again.focal_errors.keys() == direct.focal_errors.keys()
    for img, err in direct.focal_errors.items():
        assert abs(again.focal_errors[img] - err) < 1e-9


def test_autocalibrated_small_model_stays_projective_until_threshold():
    scene = synthetic.generate("ring", 6, 250, seed=41)
    images = scene_inputs(scene, calibrated=False)
    edges = verified_edges(scene)
    config = fileio.PipelineConfig(mode=engine.AUTOCALIBRATED)
    eng = engine.Engine(images, scene.tracks, edges, config)
    ids = sorted(scene.cameras)[:2]
    model = eng.stereo_model_projective(ids[0], ids[1])
    model = eng.maybe_upgrade(model)
    assert model.frame == geo.PROJECTIVE  # 2 cameras < counting threshold


def test_calibrated_mode_upgrade_is_noop():
    scene = synthetic.generate("ring", 4, 150, seed=42)
    images = scene_inputs(scene)
    edges = verified_edges(scene)
    eng = engine.Engine(images, scene.tracks, edges, fileio.PipelineConfig())
    model = geo.Model(frame=geo.EUCLIDEAN)
    assert eng.maybe_upgrade(model) is model


def test_autocalibrated_grid_rejects_collapsed_resection(tmp_path):
    # resecting image 1 onto [2,3,4,5] leaves 7 points; accepted, that model
    # was merged on and the written model had no tie point at all
    scene = synthetic.generate("grid", 9, 300, seed=3, noise_sigma=0.5, outlier_rate=0.02)
    scene_dir, out_dir = str(tmp_path / "scene"), str(tmp_path / "out")
    fileio.write_scene(scene, scene_dir)
    assert cli.main(["match", "--input", scene_dir]) == 0
    argv = ["sam", "--input", scene_dir, "--out", out_dir, "--mode", "autocalibrated"]
    assert cli.main(argv) == 0
    with open(os.path.join(out_dir, "report.txt")) as f:
        assert "rejected (aPosteriori: resection 1: only 7 points)" in f.read()
    tie_points = fileio.read_tie_point_tracks(os.path.join(out_dir, "model_0_tiepoints.txt"))
    assert len(tie_points) >= engine.MIN_STEREO_POINTS


# ---------------------------------------------------------------------------
# resection / merge / local scope units
# ---------------------------------------------------------------------------


def test_resection_too_few_correspondences():
    scene = synthetic.generate("ring", 4, 150, seed=43)
    images = scene_inputs(scene)
    eng = engine.Engine(images, scene.tracks, verified_edges(scene), fileio.PipelineConfig())
    model = geo.Model(frame=geo.EUCLIDEAN, cameras={0: scene.cameras[0]})
    with pytest.raises(engine.RejectedPair) as err:
        eng.resection_intersection(model, 1)
    assert err.value.reason == "tooFewCorrespondences"


def test_resection_with_outlier_tracks():
    scene = synthetic.generate("ring", 5, 200, seed=44)
    images = scene_inputs(scene)
    eng = engine.Engine(images, scene.tracks, verified_edges(scene), fileio.PipelineConfig())
    ids = sorted(scene.cameras)
    base = eng.stereo_model_calibrated(ids[0], ids[1])
    # corrupt half the stored 3D positions; robust resection must survive
    rng = np.random.default_rng(0)
    for tp in base.triangulated()[::2]:
        tp.position = tp.position + rng.uniform(1.0, 2.0, 3)
    points3d = []
    points2d = []
    for tp in base.triangulated():
        if ids[2] in tp.track:
            points3d.append(tp.position)
            points2d.append(tp.track[ids[2]])
    # the bundle adjustment after resection cannot survive the corrupted
    # positions and leaves no triangulated point; the posterior check names it
    with pytest.raises(engine.RejectedPair) as err:
        eng.resection_intersection(base, ids[2])
    assert err.value.reason == "aPosteriori"
    assert err.value.detail == f"resection {ids[2]}: only 0 points"


def test_merge_models_zero_common_rejected():
    scene = synthetic.generate("ring", 4, 150, seed=45)
    images = scene_inputs(scene)
    eng = engine.Engine(images, scene.tracks, verified_edges(scene), fileio.PipelineConfig())
    m1 = geo.Model(frame=geo.EUCLIDEAN, cameras={0: scene.cameras[0]})
    m2 = geo.Model(frame=geo.EUCLIDEAN, cameras={1: scene.cameras[1]})
    with pytest.raises(engine.RejectedPair) as err:
        eng.merge_models(m1, m2)
    assert err.value.reason == "tooFewCommonPoints"


def test_select_local_ba_scope_full_when_all_shared():
    scene = synthetic.generate("ring", 4, 120, seed=46)
    images = scene_inputs(scene)
    eng = engine.Engine(images, scene.tracks, verified_edges(scene), fileio.PipelineConfig())
    ids = sorted(scene.cameras)
    model = eng.stereo_model_calibrated(ids[0], ids[1])
    free, fixed, active = engine.select_local_ba_scope([ids[0]], model)
    assert set(free) == {ids[0], ids[1]}
    assert fixed == []


def test_select_local_ba_scope_anchors():
    # constructed track topology: camera 9 shares no track with camera 0
    K = geo.Intrinsics(1000.0, 1000.0, 0.0, 500.0, 400.0)
    cams = {}
    from hsfm.synthetic import look_at

    for k in range(4):
        C = np.array([k * 1.0, 0.0, -8.0])
        cams[k] = geo.Camera.euclidean(K, look_at(C, (1.5, 0, 0)), C)
    tps = []
    def tp(imgs, pos):
        return geo.TiePoint(
            track={i: geo.project(cams[i], np.array(pos)) for i in imgs},
            position=np.array(pos, float),
            status=geo.TRIANGULATED,
            track_index=len(tps),
        )
    tps.append(tp([0, 1], [0.0, 0.2, 0.1]))   # links 0-1
    tps.append(tp([1, 2], [1.0, -0.2, 0.3]))  # links 1-2
    tps.append(tp([2, 3], [2.0, 0.1, -0.2]))  # links 2-3 only
    model = geo.Model(cameras=cams, tie_points=tps, frame=geo.EUCLIDEAN)
    free, fixed, active = engine.select_local_ba_scope([0], model)
    assert free == [0, 1]
    # camera 2 anchors through the 1-2 tie-point; camera 3 is irrelevant
    assert fixed == [2]
    assert set(active) == {0, 1}


def test_low_parallax_pair_rejected():
    scene = synthetic.generate("low-parallax", 2, 150, seed=47)
    images = scene_inputs(scene)
    edges = verified_edges(scene)
    eng = engine.Engine(images, scene.tracks, edges, fileio.PipelineConfig())
    with pytest.raises((engine.RejectedPair, engine.NoModel)):
        model = eng.stereo_model_calibrated(0, 1)
