"""End-to-end reconstruction, calibrated and fully autocalibrated.

Generates a noisy 10-image ring with outliers, verifies pairs, builds
tracks, and runs the hierarchical engine twice: once with known intrinsics
and once recovering them from nothing but the images' correspondences.

The same flow is available from the shell:

    hsfm synth --kind ring --cameras 10 --points 300 --noise 0.5 \
        --outliers 0.02 --seed 5 --out /tmp/scene
    hsfm sam --input /tmp/scene --out /tmp/rec --mode calibrated
    hsfm eval --model /tmp/rec --truth /tmp/scene
"""

from hsfm import engine, fileio, graph, synthetic

scene = synthetic.generate(
    "ring", 10, 300, seed=5, noise_sigma=0.5, outlier_rate=0.02
)
print(f"scene: 10 cameras, {len(scene.tracks)} tracks, "
      f"0.5 px noise, 2% outliers")

diag = scene.diagonal
cfg = graph.VerifyConfig(inlier_threshold=diag / 1800, bucket_size=diag / 25)
edges = []
for pair, m in sorted(scene.matches.items()):
    i, j = pair
    out = graph.narrow_phase_verify(
        pair, scene.keypoints[i], scene.keypoints[j],
        scene.descriptors[i], scene.descriptors[j], cfg,
        candidate_matches=m,
    )
    if isinstance(out, graph.EpipolarEdge):
        edges.append(out)
print(f"verified {len(edges)} pairs")

images_calibrated = {
    img: engine.ImageInfo(
        width=scene.image_size[0], height=scene.image_size[1],
        keypoints=scene.keypoints[img],
        intrinsics=scene.cameras[img].intrinsics,
    )
    for img in scene.cameras
}

for mode in (engine.CALIBRATED, engine.AUTOCALIBRATED):
    images = {
        img: engine.ImageInfo(
            width=info.width, height=info.height, keypoints=info.keypoints,
            intrinsics=info.intrinsics if mode == engine.CALIBRATED else None,
        )
        for img, info in images_calibrated.items()
    }
    result = engine.run(
        images, scene.tracks, edges, fileio.PipelineConfig(mode=mode)
    )
    model = result.models[0]
    cmp = synthetic.compare_to_truth(model, scene)
    print(f"\n--- {mode} ---")
    for line in result.report_lines:
        print(f"  {line}")
    print(f"  cameras {len(model.cameras)}/10, "
          f"points {len(model.triangulated())}")
    print(f"  structure RMS vs truth: {cmp.similarity_rms:.4f} scene units")
    if mode == engine.AUTOCALIBRATED:
        worst = max(cmp.focal_errors.values())
        print(f"  recovered focals within {worst:.2%} of truth "
              f"(no intrinsics were given)")
