"""Ground-truth scene generation and truth-comparison utilities.

Every scene is deterministic in its seed and carries enough bookkeeping
(keypoint -> generating point maps) to score any reconstruction against the
generating geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .tracks import Track, TrackSet


class TooFewCorrespondences(Exception):
    pass


def look_at(center, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """World-to-camera rotation for a camera at ``center`` looking at ``target``."""
    center = np.asarray(center, float)
    forward = np.asarray(target, float) - center
    forward = forward / np.linalg.norm(forward)
    up = np.asarray(up, float)
    right = np.cross(forward, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(forward, (1.0, 0.0, 0.0))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.vstack([right, down, forward])


@dataclass(eq=False)
class SyntheticScene:
    kind: str
    image_size: tuple
    cameras: dict                 # image id -> true Camera
    points: np.ndarray            # (m, 3) true positions
    observations: dict            # image id -> {point index: (2,) pixels}
    keypoints: dict               # image id -> (n_i, 4) rows [x y scale angle]
    descriptors: dict             # image id -> (n_i, d)
    kp_to_point: dict             # image id -> (n_i,) generating point index
    tracks: TrackSet = None
    track_point_ids: list = field(default_factory=list)
    matches: dict = field(default_factory=dict)  # (i, j) -> (k, 2) index pairs
    outliers: dict = field(default_factory=dict)  # image id -> set of point ids
    noise_sigma: float = 0.0
    outlier_rate: float = 0.0
    seed: int = 0

    @property
    def diagonal(self) -> float:
        w, h = self.image_size
        return float(np.hypot(w, h))


def _camera_ring(n, radius, focal, image_size, rng, target_fraction=0.0, z_amp=1.0):
    w, h = image_size
    K = geo.Intrinsics(fx=focal, fy=focal, skew=0.0, cx=w / 2.0, cy=h / 2.0)
    cams = {}
    for i in range(n):
        ang = 2.0 * np.pi * i / n
        z = z_amp * np.sin(3.0 * ang) + rng.uniform(-0.3, 0.3) * z_amp
        C = np.array([radius * np.cos(ang), radius * np.sin(ang), z])
        # target_fraction > 0 aims at the near facade instead of the centre
        target = target_fraction * C * np.array([1.0, 1.0, 0.0])
        R = look_at(C, target)
        cams[i] = geo.Camera.euclidean(K, R, C)
    return cams


def _ring_shell_points(n_points, rng):
    """Building-like scene for ring captures: facade points on an outer
    shell (self-occluded via their outward normal) plus a smaller set of
    elevated central points visible from everywhere, like rooftops."""
    n_shell = int(round(0.75 * n_points))
    theta = rng.uniform(0.0, 2.0 * np.pi, n_shell)
    radius = rng.uniform(4.2, 5.8, n_shell)
    z = rng.uniform(-2.0, 2.0, n_shell)
    shell = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
    normals = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n_shell)])
    n_top = n_points - n_shell
    top = np.column_stack(
        [
            rng.uniform(-2.5, 2.5, n_top),
            rng.uniform(-2.5, 2.5, n_top),
            rng.uniform(1.0, 2.5, n_top),
        ]
    )
    pts = np.vstack([shell, top])
    all_normals = np.vstack([normals, np.full((n_top, 3), np.nan)])
    return pts, all_normals


def _camera_grid(n, focal, image_size, rng):
    w, h = image_size
    K = geo.Intrinsics(fx=focal, fy=focal, skew=0.0, cx=w / 2.0, cy=h / 2.0)
    cols = int(np.ceil(np.sqrt(n)))
    cams = {}
    for i in range(n):
        gx, gy = i % cols, i // cols
        C = np.array([2.5 * gx, 2.5 * gy, 10.0]) + rng.uniform(-0.2, 0.2, 3)
        target = np.array([2.5 * gx, 2.5 * gy, 0.0]) + rng.uniform(-0.5, 0.5, 3)
        R = look_at(C, target, up=(0.0, 1.0, 0.0))
        cams[i] = geo.Camera.euclidean(K, R, C)
    return cams


def _scene_points(kind, n_points, rng):
    if kind == "planar":
        pts = np.zeros((n_points, 3))
        pts[:, 0] = rng.uniform(-3.0, 3.0, n_points)
        pts[:, 1] = rng.uniform(-3.0, 3.0, n_points)
        # one tilted plane through the origin
        normal = np.array([0.3, -0.2, 1.0])
        pts[:, 2] = -(pts[:, 0] * normal[0] + pts[:, 1] * normal[1]) / normal[2]
        return pts
    if kind == "grid":
        cols = 4
        span = 2.5 * (cols - 1) + 2.0
        pts = np.column_stack(
            [
                rng.uniform(-2.0, span, n_points),
                rng.uniform(-2.0, span, n_points),
                rng.uniform(0.0, 1.5, n_points),
            ]
        )
        return pts
    return rng.uniform(-3.0, 3.0, (n_points, 3))


def generate(
    kind: str,
    n_cameras: int,
    n_points: int,
    seed: int = 0,
    noise_sigma: float = 0.0,
    outlier_rate: float = 0.0,
    image_size=(2880, 2160),
    focal: float = 2250.0,
    min_track_length: int = 2,
    descriptor_dim: int = 16,
) -> SyntheticScene:
    """Build a deterministic synthetic scene of the requested layout.

    ``kind`` is one of ring, grid, two-cluster, planar, low-parallax.
    Observations are exact projections perturbed by isotropic Gaussian pixel
    noise; with probability ``outlier_rate`` an observation is replaced by a
    uniform draw over the image.
    """
    if n_cameras < 2:
        raise ValueError("need at least two cameras")
    rng = np.random.default_rng(seed)
    w, h = image_size

    normals = None
    if kind == "ring":
        cams = _camera_ring(
            n_cameras, 16.0, focal, image_size, rng, target_fraction=0.4, z_amp=0.4
        )
        pts, normals = _ring_shell_points(n_points, rng)
    elif kind == "planar":
        cams = _camera_ring(n_cameras, 10.0, focal, image_size, rng)
        pts = _scene_points(kind, n_points, rng)
    elif kind == "grid":
        cams = _camera_grid(n_cameras, focal, image_size, rng)
        pts = _scene_points(kind, n_points, rng)
    elif kind == "two-cluster":
        half = n_cameras // 2
        K = geo.Intrinsics(fx=focal, fy=focal, skew=0.0, cx=w / 2.0, cy=h / 2.0)
        cams = {}
        for i in range(n_cameras):
            side = -1.0 if i < half else 1.0
            k = i if i < half else i - half
            count = half if i < half else n_cameras - half
            ang = np.pi * (0.25 + 0.5 * k / max(count - 1, 1))
            C = np.array(
                [3.0 * side + 8.0 * side * np.sin(ang), -8.0 * np.cos(ang), 1.5]
            ) + rng.uniform(-0.2, 0.2, 3)
            R = look_at(C, (1.5 * side, 0.0, 0.0))
            cams[i] = geo.Camera.euclidean(K, R, C)
        pts = np.column_stack(
            [
                rng.uniform(-4.5, 4.5, n_points),
                rng.uniform(-2.5, 2.5, n_points),
                rng.uniform(-2.0, 2.0, n_points),
            ]
        )
    elif kind == "low-parallax":
        K = geo.Intrinsics(fx=focal, fy=focal, skew=0.0, cx=w / 2.0, cy=h / 2.0)
        cams = {}
        base = np.array([0.0, 0.0, -10.0])
        for i in range(n_cameras):
            C = base + rng.uniform(-1.0, 1.0, 3) * 1e-3 * 10.0 * 1e-1
            R = look_at(C, (0.0, 0.0, 0.0))
            cams[i] = geo.Camera.euclidean(K, R, C)
        pts = rng.uniform(-3.0, 3.0, (n_points, 3))
    else:
        raise ValueError(f"unknown scene kind {kind!r}")

    # exact visibility, then noisy/outlying observations
    angles = rng.uniform(0.0, 2.0 * np.pi, n_points)
    scales = rng.uniform(1.0, 4.0, n_points)
    base_desc = rng.normal(0.0, 1.0, (n_points, descriptor_dim))

    observations = {}
    keypoints = {}
    descriptors = {}
    kp_to_point = {}
    outliers = {}
    for img, cam in cams.items():
        depths = geo.point_depths(cam, pts)
        uv = np.full((n_points, 2), np.nan)
        front = depths > 1e-9
        if np.any(front):
            uv[front] = geo.project(cam, pts[front])
        visible = front & np.all(np.isfinite(uv), axis=1)
        visible &= (
            (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
        )
        if normals is not None:
            # facade points are self-occluded unless they face the camera;
            # NaN normals mark points visible from everywhere
            to_cam = cam.C - pts
            facing = np.einsum("ij,ij->i", to_cam, normals)
            visible &= np.isnan(facing) | (facing > 0.0)
        idx = np.flatnonzero(visible)
        obs = uv[idx].copy()
        if noise_sigma > 0:
            obs += rng.normal(0.0, noise_sigma, obs.shape)
        bad = np.zeros(len(idx), bool)
        if outlier_rate > 0:
            bad = rng.random(len(idx)) < outlier_rate
            obs[bad, 0] = rng.uniform(0.0, w, int(bad.sum()))
            obs[bad, 1] = rng.uniform(0.0, h, int(bad.sum()))
        outliers[img] = {int(p) for p in idx[bad]}
        order = rng.permutation(len(idx))
        idx = idx[order]
        obs = obs[order]
        observations[img] = {int(p): obs[k] for k, p in enumerate(idx)}
        keypoints[img] = np.column_stack([obs, scales[idx], angles[idx]])
        descriptors[img] = base_desc[idx] + rng.normal(
            0.0, 0.05, (len(idx), descriptor_dim)
        )
        kp_to_point[img] = idx.copy()

    # tracks over images where each point is visible
    tracks = []
    track_point_ids = []
    kp_index_of = {
        img: {int(p): k for k, p in enumerate(kp_to_point[img])} for img in cams
    }
    for p in range(n_points):
        members = {
            img: kp_index_of[img][p] for img in cams if p in kp_index_of[img]
        }
        if len(members) >= min_track_length:
            tracks.append(Track(members))
            track_point_ids.append(p)

    matches = {}
    ids = sorted(cams)
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            i, j = ids[a], ids[b]
            common = sorted(set(kp_index_of[i]) & set(kp_index_of[j]))
            if common:
                matches[(i, j)] = np.array(
                    [[kp_index_of[i][p], kp_index_of[j][p]] for p in common], int
                )

    return SyntheticScene(
        kind=kind,
        image_size=image_size,
        cameras=cams,
        points=pts,
        observations=observations,
        keypoints=keypoints,
        descriptors=descriptors,
        kp_to_point=kp_to_point,
        tracks=TrackSet(tracks),
        track_point_ids=track_point_ids,
        matches=matches,
        outliers=outliers,
        noise_sigma=noise_sigma,
        outlier_rate=outlier_rate,
        seed=seed,
    )


@dataclass
class TruthComparison:
    similarity_rms: float
    focal_errors: dict        # image id -> relative focal error
    rotation_errors: dict     # image id -> angle in radians
    center_errors: dict       # image id -> distance in true scene units
    n_points: int


def _tie_point_truth_index(tp, scene):
    """The scene point a tie-point reconstructs: direct for the scene's own
    tracks, else the majority vote of its keypoints (a model read from disk
    carries its keypoints instead of a track index)."""
    if tp.track_index is not None:
        if tp.track_index < len(scene.track_point_ids):
            return scene.track_point_ids[tp.track_index]
        return None
    votes = {}
    for img, kp in (getattr(tp, "observed_keypoints", None) or {}).items():
        mapping = scene.kp_to_point.get(img)
        if mapping is not None and kp < len(mapping):
            p = int(mapping[kp])
            votes[p] = votes.get(p, 0) + 1
    if not votes:
        return None
    return max(votes, key=lambda p: (votes[p], -p))


def compare_to_truth(model, scene: SyntheticScene) -> TruthComparison:
    """Align a reconstructed model onto the generating scene and score it.

    The best-fit similarity over the shared 3D points plays the role of a
    control-point registration; the RMS residual of that registration is the
    headline accuracy number.  Tie-point track indices index ``scene.tracks``.
    """
    est = []
    true = []
    for tp in model.triangulated():
        p = _tie_point_truth_index(tp, scene)
        if p is None:
            continue
        est.append(tp.position)
        true.append(scene.points[p])
    if len(est) < 3:
        raise TooFewCorrespondences(f"only {len(est)} shared points")
    est = np.array(est)
    true = np.array(true)
    s, R, t = geo.absolute_orientation_similarity(est, true)
    aligned = geo.apply_similarity(est, s, R, t)
    rms = float(np.sqrt(np.mean(np.sum((aligned - true) ** 2, axis=1))))

    focal_errors = {}
    rotation_errors = {}
    center_errors = {}
    for img, cam in model.cameras.items():
        true_cam = scene.cameras.get(img)
        if true_cam is None or cam.kind != geo.EUCLIDEAN:
            continue
        focal_errors[img] = abs(cam.intrinsics.focal - true_cam.intrinsics.focal) / (
            true_cam.intrinsics.focal
        )
        C_aligned = s * (R @ cam.C) + t
        center_errors[img] = float(np.linalg.norm(C_aligned - true_cam.C))
        R_aligned = cam.R @ R.T
        cos = 0.5 * (np.trace(R_aligned @ true_cam.R.T) - 1.0)
        rotation_errors[img] = float(np.arccos(np.clip(cos, -1.0, 1.0)))
    return TruthComparison(
        similarity_rms=rms,
        focal_errors=focal_errors,
        rotation_errors=rotation_errors,
        center_errors=center_errors,
        n_points=len(est),
    )
