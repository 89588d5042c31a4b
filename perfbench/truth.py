"""The truth side of the benchmark: make a workload's scene, score the result.

    python3 perfbench/truth.py setup WORKLOAD_JSON SEED SCENE_DIR REPEATS
    python3 perfbench/truth.py score WORKLOAD_JSON SEED BASELINE_RMS OUT_DIR...

WORKLOAD_JSON holds the fields of a ``workloads.Workload``.  ``setup``
generates the scene, writes it in the pipeline's input formats and computes
the BA-on-truth baseline RMS, ``REPEATS`` times, and prints the set-up times
and the baseline as JSON.  ``score`` regenerates the scene from
the same seed and scores ``model_0`` in each output directory.  Both run in
their own process so that the benchmark process, which starts the timed
commands, stays small: a child's peak RSS as ``wait4`` reports it is never
below its parent's RSS at the time of the fork.

A model read back from disk carries keypoint observations, not track
indices, so each point is matched to the scene point most of its keypoints
were generated from (the vote ``hsfm eval`` uses).  The accuracy floor is
``ba_on_truth_baseline`` of ``tests/test_acceptance.py``: the true model
adjusted against the noisy, outlier-free observations and scored the same
way.
"""

import glob
import json
import os
import sys
import time

import numpy as np

from hsfm import fileio, geometry as geo, synthetic

import workloads

# The accuracy floor is the acceptance tests' own baseline, imported rather
# than copied so that the two cannot drift apart.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
)
from test_acceptance import ba_on_truth_baseline  # noqa: E402

# Accuracy gates of acceptance criteria 5 (calibrated) and 6 (autocalibrated).
MAX_RMS_RATIO = {"calibrated": 3.0, "autocalibrated": 5.0}
MAX_FOCAL_ERR = 0.02


def make_scene(workload, seed):
    return synthetic.generate(
        workloads.KIND,
        workload.cameras,
        workload.points,
        seed=seed,
        noise_sigma=workloads.NOISE_SIGMA,
        outlier_rate=workloads.OUTLIER_RATE,
    )


def set_up(workload, seed, scene_dir, repeats):
    """Generate and write the scene and compute the baseline ``repeats``
    times; returns the time of each repeat and the baseline RMS."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        scene = make_scene(workload, seed)
        fileio.write_scene(scene, scene_dir)
        baseline = ba_on_truth_baseline(scene)
        times.append(time.perf_counter() - start)
    return {"setup_s": times, "baseline_rms": baseline}


def _registration_rms(est, true):
    s, R, t = geo.absolute_orientation_similarity(est, true)
    aligned = geo.apply_similarity(est, s, R, t)
    return float(np.sqrt(np.mean(np.sum((aligned - true) ** 2, axis=1))))


def score_model(out_dir, scene, mode, baseline_rms):
    """Score ``model_0`` in ``out_dir``; ``problems`` lists every broken
    output check (more than one model, missing cameras, accuracy gates).

    ``rms_ratio`` is left out when the model shares fewer than three points
    with the scene, and ``focal_err_max`` when it has no Euclidean camera.
    """
    models = len(glob.glob(os.path.join(out_dir, "model_*_cameras.txt")))
    model = fileio.read_model(out_dir, stem="model_0")
    out = {
        "problems": [],
        "cameras_frac": len(model.cameras) / len(scene.cameras),
        "points_frac": len(model.tie_points) / len(scene.points),
    }
    problems = out["problems"]
    if models != 1:
        problems.append(f"{models} models instead of one")
    if len(model.cameras) != len(scene.cameras):
        problems.append(f"{len(model.cameras)}/{len(scene.cameras)} cameras in model_0")
    est, true = [], []
    for tp in model.tie_points:
        votes = {}
        for img, kp in (getattr(tp, "observed_keypoints", None) or {}).items():
            mapping = scene.kp_to_point.get(img)
            if mapping is not None and kp < len(mapping):
                p = int(mapping[kp])
                votes[p] = votes.get(p, 0) + 1
        if votes:
            p = max(votes, key=lambda q: (votes[q], -q))
            est.append(tp.position)
            true.append(scene.points[p])
    if len(est) < 3:
        problems.append(f"model_0 shares {len(est)} points with the scene")
    else:
        rms = _registration_rms(np.array(est), np.array(true))
        out["rms_ratio"] = rms_ratio = rms / baseline_rms
        if not rms_ratio <= MAX_RMS_RATIO[mode]:
            problems.append(f"RMS ratio {rms_ratio:.3f} above {MAX_RMS_RATIO[mode]}")
    focal = [
        abs(cam.intrinsics.focal - scene.cameras[img].intrinsics.focal)
        / scene.cameras[img].intrinsics.focal
        for img, cam in model.cameras.items()
        if cam.kind == geo.EUCLIDEAN and img in scene.cameras
    ]
    if focal:
        out["focal_err_max"] = max(focal)
    if mode == "autocalibrated":
        if not focal:
            problems.append("model_0 has no Euclidean camera")
        elif not out["focal_err_max"] < MAX_FOCAL_ERR:
            problems.append(
                f"focal error {out['focal_err_max']:.4f} not below {MAX_FOCAL_ERR}"
            )
    return out


def main(argv):
    command, spec, seed, *rest = argv
    workload = workloads.Workload(**json.loads(spec))
    src = os.path.dirname(os.path.dirname(os.path.abspath(geo.__file__)))
    if os.path.abspath(os.environ.get("PYTHONPATH", "")) != src:
        raise SystemExit(f"hsfm imported from {src}, not from PYTHONPATH")
    if command == "setup":
        scene_dir, repeats = rest
        out = set_up(workload, int(seed), scene_dir, int(repeats))
    else:
        baseline, *out_dirs = rest
        scene = make_scene(workload, int(seed))
        out = [
            score_model(d, scene, workload.mode, float(baseline)) for d in out_dirs
        ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
