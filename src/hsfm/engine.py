"""Dendrogram-driven hierarchical structure-and-motion.

The clustering state machine proposes one cluster merge at a time; the
engine maps it to a geometric action (stereo seed, resection-intersection,
or model merge), vetoes pairs that fail the sanity checks, and refines every
surviving model with bundle adjustment.  Works with known intrinsics or
fully autocalibrated (projective bootstrap plus Euclidean upgrade).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autocalib, bundle, clustering
from . import geometry as geo
from . import robust
from .tracks import TrackSet

if TYPE_CHECKING:
    from .fileio import PipelineConfig

CALIBRATED = "calibrated"
AUTOCALIBRATED = "autocalibrated"

FOCAL_GUESS_FACTOR = 1.2    # times max(w, h): the focal a projective seed assumes
MAX_CHEIRALITY_FAIL = 0.10  # share of a model's points allowed behind a camera
MIN_STEREO_POINTS = 8       # fewest points a two-view seed may rest on

STEREO = "stereo"
RESECTION = "resection"
MERGE = "merge"


class RejectedPair(Exception):
    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class NoModel(Exception):
    """No stereo seed succeeded anywhere in the dendrogram."""


@dataclass(eq=False)
class ImageInfo:
    width: float
    height: float
    keypoints: np.ndarray                     # (n, >=2) pixel positions
    intrinsics: geo.Intrinsics | None = None

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height))


@dataclass
class NodeAction:
    kind: str
    inputs: tuple                              # the two member tuples
    ok: bool
    detail: str = ""
    cameras: int = 0
    points: int = 0

    def line(self) -> str:
        status = "ok" if self.ok else "rejected"
        lhs = "+".join(",".join(map(str, m)) for m in self.inputs)
        extra = f" cams={self.cameras} pts={self.points}" if self.ok else f" ({self.detail})"
        return f"{self.kind} [{lhs}] {status}{extra}"


@dataclass
class EngineResult:
    models: list
    actions: list
    report_lines: list
    dendrogram_text: str


# ---------------------------------------------------------------------------


def select_local_ba_scope(small_ids, model: geo.Model):
    """Split a merged model into free / fixed cameras and active tie-points.

    ``small_ids`` are the cameras of the side that just moved (the added
    image or the transformed sub-model).  Free cameras are those plus every
    other camera sharing a track with them; the remaining cameras anchor the
    adjustment through the shared tie-points and are not moved.  Tie-points
    seen only by anchor cameras are left out entirely.
    """
    small = set(small_ids)
    point, image, _ = geo.observations(model.tie_points, model.cameras)

    def seen_by(ids):
        out = np.zeros(len(model.tie_points), bool)
        out[point[np.isin(image, list(ids))]] = True
        return out

    free = small | set(image[seen_by(small)[point]].tolist())
    triangulated = np.array(
        [tp.status == geo.TRIANGULATED for tp in model.tie_points], bool
    )
    active_mask = triangulated & seen_by(free)
    active = np.flatnonzero(active_mask).tolist()
    fixed = set(image[active_mask[point]].tolist()) - free
    return sorted(free), sorted(fixed), active


def _center_or_nan(camera: geo.Camera) -> np.ndarray:
    try:
        return camera.center()
    except geo.Degenerate:  # centre at infinity
        return np.full(3, np.nan)


class Engine:
    def __init__(self, images, tracks, edges, config: PipelineConfig):
        self.images = images
        self.tracks = tracks
        self.config = config
        # indices into ``tracks`` of those long enough to be modelled
        self.usable = [
            t_idx
            for t_idx, track in enumerate(tracks)
            if len(track) >= config.min_track_length
        ]
        self.edge_map = {tuple(sorted(e.pair)): e for e in edges}
        self.adjusted_with = {img: 0 for img in images}
        self.actions = []
        self.lines = []

    # -- thresholds ---------------------------------------------------------

    def reproj_threshold(self, img, final=False) -> float:
        div = (
            self.config.final_reproj_divisor if final else self.config.reproj_divisor
        )
        return self.images[img].diagonal / div

    def _pixel(self, img, kp_index) -> np.ndarray:
        return np.asarray(self.images[img].keypoints[kp_index, :2], float)

    def _msac_config(self, img, *extra) -> robust.MsacConfig:
        seed = np.random.SeedSequence(
            [self.config.rng_seed & 0xFFFFFFFF, img, *extra]
        ).generate_state(1)[0]
        return robust.MsacConfig(
            inlier_threshold=self.reproj_threshold(img),
            bucket_size=self.images[img].diagonal / self.config.bucket_divisor,
            max_iterations=self.config.msac_max_iterations,
            rng_seed=int(seed),
        )

    def image_sizes(self):
        return {img: (info.width, info.height) for img, info in self.images.items()}

    # -- tie-point bookkeeping ----------------------------------------------

    def sync_tie_points(self, model: geo.Model):
        """Ensure every usable track with >= 2 member cameras is represented."""
        present = {tp.track_index for tp in model.tie_points}
        cams = set(model.cameras)
        for t_idx in self.usable:
            if t_idx in present:
                continue
            track = self.tracks[t_idx]
            members = set(track.members) & cams
            if len(members) < 2:
                continue
            model.tie_points.append(
                geo.TiePoint(
                    track={
                        img: self._pixel(img, kp) for img, kp in track.members.items()
                    },
                    status=geo.PENDING,
                    track_index=t_idx,
                )
            )

    def intersect_pending(self, model: geo.Model, final=False):
        """(Re-)triangulate every track with >= 2 member cameras.

        A candidate point is kept when the linear system is well conditioned,
        its residual is an inlier of the sweep's residual population under
        the median-deviation rule, and every member reprojection respects the
        per-image safeguard threshold (the tighter final one when ``final``).
        """
        self.sync_tie_points(model)
        point, image, uv = geo.observations(model.tie_points, model.cameras)
        order = np.lexsort((image, point))  # each point's views together
        point, image, uv = point[order], image[order], uv[order]
        members = np.bincount(point, minlength=len(model.tie_points))
        ids = sorted(model.cameras)
        view = np.searchsorted(ids, image)
        cams = [model.cameras[img] for img in ids]
        P = np.array([cam.P for cam in cams])
        centers = np.array([_center_or_nan(cam) for cam in cams])
        radial = np.array(
            [cam.radial if cam.kind == geo.EUCLIDEAN else 0.0 for cam in cams]
        )
        calib = np.array(
            [cam.intrinsics.K if cam.kind == geo.EUCLIDEAN else np.eye(3) for cam in cams]
        )
        gate = np.array([self.reproj_threshold(img, final) for img in ids])

        X = np.zeros((len(model.tie_points), 3))
        worst = np.zeros(len(model.tie_points))
        solved = np.zeros(len(model.tie_points), bool)
        within = np.zeros(len(model.tie_points), bool)
        for m in np.unique(members[members >= 2]):
            rows = members[point] == m
            pts = point[rows][::m]
            v = view[rows].reshape(-1, m)
            X[pts], errors, solved[pts] = geo.triangulate(
                P[v],
                uv[rows].reshape(-1, m, 2),
                centers[v],
                distortion=(calib[v], radial[v]),
                condition_limit=self.config.condition_limit,
            )
            worst[pts] = np.max(errors, axis=1)
            within[pts] = np.all(errors <= gate[v], axis=1)
        keep = np.zeros(len(model.tie_points), bool)
        if solved.any():
            keep[solved] = robust.x84_inliers(worst[solved]) & within[solved]
        for k in np.flatnonzero(members >= 2):
            tp = model.tie_points[k]
            if keep[k]:
                tp.position = X[k].copy()
                tp.status = geo.TRIANGULATED
            elif tp.status == geo.TRIANGULATED:
                tp.position = None
                tp.status = geo.PENDING

    # -- bundle adjustment --------------------------------------------------

    def _parameterization(self, model: geo.Model) -> str:
        if model.frame == geo.PROJECTIVE:
            return bundle.PARAM_PROJECTIVE
        if self.config.mode == AUTOCALIBRATED:
            return bundle.PARAM_EUCLIDEAN_FREE_K
        return bundle.PARAM_EUCLIDEAN_FIXED_K

    def bundle_adjust(self, model: geo.Model, moved_ids=None):
        """Adjust the model in place; local scope when configured and legal."""
        use_local = (
            self.config.local_ba
            and moved_ids is not None
            and model.frame == geo.EUCLIDEAN
            and len(model.cameras) > len(set(moved_ids))
        )
        if use_local:
            free_ids, fixed_ids, active = select_local_ba_scope(moved_ids, model)
            tie_points = [model.tie_points[k] for k in active]
        else:
            free_ids = sorted(model.cameras)
            fixed_ids = []
            tie_points = [
                tp for tp in model.tie_points if tp.status == geo.TRIANGULATED
            ]
        if not tie_points or not free_ids:
            return
        frozen = {
            img
            for img in free_ids
            if self.adjusted_with[img] >= self.config.fix_internals_after
        }
        problem = bundle.BaProblem(
            free_cameras={i: model.cameras[i] for i in free_ids},
            fixed_cameras={i: model.cameras[i] for i in fixed_ids},
            tie_points=tie_points,
            parameterization=self._parameterization(model),
            max_iterations=self.config.max_ba_iterations,
            frozen_intrinsics=frozen,
        )
        solution = bundle.adjust(problem)
        for img in free_ids:
            model.cameras[img] = solution.cameras[img]
        for tp, pos in zip(tie_points, solution.points):
            tp.position = pos
        size = len(model.cameras)
        for img in free_ids:
            self.adjusted_with[img] = max(self.adjusted_with[img], size)

    # -- quality gates ------------------------------------------------------

    def _posterior_check(self, model: geo.Model, what: str):
        tps = model.triangulated()
        if len(tps) < MIN_STEREO_POINTS:
            raise RejectedPair("aPosteriori", f"{what}: only {len(tps)} points")
        point, image, uv = geo.observations(tps, model.cameras)
        X = np.array([tp.position for tp in tps])[point]
        errs = np.zeros(len(point))
        depths = np.zeros(len(point))
        for img, cam in model.cameras.items():
            rows = image == img
            errs[rows] = geo.reprojection_errors(cam, X[rows], uv[rows])
            depths[rows] = geo.point_depths(cam, X[rows])
        gates = np.array([self.reproj_threshold(img) for img in image.tolist()])
        if errs.size == 0 or np.mean(errs) > np.mean(gates):
            raise RejectedPair(
                "aPosteriori", f"{what}: mean residual {np.mean(errs):.2f} px"
            )
        behind = np.unique(point[~(depths > 0)]).size
        if behind > MAX_CHEIRALITY_FAIL * len(tps):
            raise RejectedPair("aPosteriori", f"{what}: {behind} points behind")

    # -- actions -------------------------------------------------------------

    def _pair_tracks(self, img_a, img_b):
        idx, x1, x2 = [], [], []
        for t_idx in self.usable:
            track = self.tracks[t_idx]
            if img_a in track.members and img_b in track.members:
                idx.append(t_idx)
                x1.append(self._pixel(img_a, track.members[img_a]))
                x2.append(self._pixel(img_b, track.members[img_b]))
        return idx, np.array(x1).reshape(-1, 2), np.array(x2).reshape(-1, 2)

    def _seed_model(self, img_a, img_b, cam_a, cam_b, frame) -> geo.Model:
        model = geo.Model(
            cameras={img_a: cam_a, img_b: cam_b}, tie_points=[], frame=frame
        )
        self.intersect_pending(model)
        if len(model.triangulated()) < MIN_STEREO_POINTS:
            raise RejectedPair("aPosteriori", "too few intersected points")
        return model

    def stereo_model_calibrated(self, img_a, img_b) -> geo.Model:
        edge = self.edge_map.get((img_a, img_b))
        if edge is None or edge.model_class != robust.FUNDAMENTAL:
            raise RejectedPair("aPriori", "pair not supported by a fundamental matrix")
        Ka = self.images[img_a].intrinsics
        Kb = self.images[img_b].intrinsics
        if Ka is None or Kb is None:
            raise RejectedPair("aPriori", "missing intrinsics")
        idx, x1, x2 = self._pair_tracks(img_a, img_b)
        if len(idx) < MIN_STEREO_POINTS:
            raise RejectedPair("aPriori", "too few common tracks")
        E = geo.essential_from_fundamental(edge.matrix, Ka.K, Kb.K)
        # re-score the correspondences against the essential geometry
        F_e = np.linalg.inv(Kb.K).T @ E @ np.linalg.inv(Ka.K)
        sampson = geo.sampson_distance(F_e, x1, x2)
        gate = max(
            2.5 * edge.sigma_star,
            0.5 * (self.reproj_threshold(img_a) + self.reproj_threshold(img_b)),
        )
        keep = sampson < gate
        if keep.sum() < MIN_STEREO_POINTS:
            raise RejectedPair("aPosteriori", "essential geometry rejected the tracks")
        x1n = (geo.hom(x1[keep]) @ np.linalg.inv(Ka.K).T)[:, :2]
        x2n = (geo.hom(x2[keep]) @ np.linalg.inv(Kb.K).T)[:, :2]
        try:
            R, t = geo.relative_orientation(E, x1n, x2n)
        except geo.GeometryError as exc:
            raise RejectedPair("aPosteriori", str(exc))
        cam_a = geo.Camera.euclidean(Ka, np.eye(3), np.zeros(3))
        cam_b = geo.Camera.euclidean(Kb, R, -R.T @ t)
        model = self._seed_model(img_a, img_b, cam_a, cam_b, geo.EUCLIDEAN)
        self.bundle_adjust(model)
        self.intersect_pending(model)
        self._posterior_check(model, f"stereo {img_a},{img_b}")
        return model

    def stereo_model_projective(self, img_a, img_b) -> geo.Model:
        edge = self.edge_map.get((img_a, img_b))
        if edge is None or edge.model_class != robust.FUNDAMENTAL:
            raise RejectedPair("aPriori", "pair not supported by a fundamental matrix")
        idx, x1, x2 = self._pair_tracks(img_a, img_b)
        if len(idx) < MIN_STEREO_POINTS:
            raise RejectedPair("aPriori", "too few common tracks")
        try:
            P1, P2 = geo.canonical_pair(edge.matrix)
        except geo.GeometryError as exc:
            raise RejectedPair("aPriori", str(exc))

        # quasi-Euclidean frame from diagonal-based focal guesses
        def guess_K(img):
            info = self.images[img]
            f = FOCAL_GUESS_FACTOR * max(info.width, info.height)
            return np.array(
                [[f, 0.0, info.width / 2.0], [0.0, f, info.height / 2.0], [0.0, 0.0, 1.0]]
            )

        # the sign of the fundamental matrix is arbitrary and toggles the
        # twisted mate of the canonical pair; pick the candidate on which
        # the two cameras agree about the side the points are on
        best = None
        for a2_sign in (1.0, -1.0):
            P2c = np.hstack([a2_sign * P2[:, :3], P2[:, 3:4]])
            try:
                r = autocalib.plane_at_infinity(
                    P2c, guess_K(img_a), guess_K(img_b)
                )
            except autocalib.ZeroEpipole as exc:
                raise RejectedPair("aPriori", str(exc))
            H = autocalib.UpgradeCollineation(K1=guess_K(img_a), r=r).H
            P1q = P1 @ H
            P2q = P2c @ H
            cam_a = geo.Camera(P=P1q / np.linalg.norm(P1q), kind=geo.PROJECTIVE)
            cam_b = geo.Camera(P=P2q / np.linalg.norm(P2q), kind=geo.PROJECTIVE)
            X = geo._triangulate_pair_linear(cam_a.P, cam_b.P, x1, x2)
            d1 = geo.point_depths(cam_a, X)
            d2 = geo.point_depths(cam_b, X)
            agree = max(
                int(np.sum((d1 > 0) & (d2 > 0))), int(np.sum((d1 < 0) & (d2 < 0)))
            )
            if best is None or agree > best[0]:
                best = (agree, cam_a, cam_b)
        if best[0] < MIN_STEREO_POINTS:
            raise RejectedPair("aPosteriori", "no side-consistent configuration")
        _, cam_a, cam_b = best
        model = self._seed_model(img_a, img_b, cam_a, cam_b, geo.PROJECTIVE)
        self.bundle_adjust(model)
        self.intersect_pending(model)
        model, _ = geo.cheirality_enforce(model)
        self._posterior_check(model, f"stereo {img_a},{img_b}")
        return model

    def resection_intersection(self, model: geo.Model, img) -> geo.Model:
        tps = model.triangulated()
        point, _, points2d = geo.observations(tps, [img])
        points3d = np.array([tps[k].position for k in point]).reshape(-1, 3)
        calibrated = self.config.mode == CALIBRATED
        minimum = 4 if calibrated else 6
        if len(points3d) < minimum:
            raise RejectedPair(
                "tooFewCorrespondences", f"{len(points3d)} < {minimum}"
            )
        data = np.hstack([points3d, points2d])
        K = self.images[img].intrinsics if calibrated else None

        if calibrated:
            def solver(d, sel):
                R, C = geo.resect_calibrated(d[sel, :3], d[sel, 3:], K)
                return geo.Camera.euclidean(K, R, C)
        else:
            def solver(d, sel):
                P = geo.resect_projective_dlt(d[sel, :3], d[sel, 3:])
                return geo.Camera(P=P, kind=geo.PROJECTIVE)

        def residual(d, cam):
            return geo.reprojection_errors(cam, d[:, :3], d[:, 3:])

        try:
            fit = robust.msac(
                data,
                solver,
                residual,
                self._msac_config(img, 1),
                sample_size=minimum,
                full_solver=solver,
                positions=points2d,
            )
        except (robust.RobustError, geo.GeometryError) as exc:
            raise RejectedPair("resectionFailed", str(exc))
        camera = fit.model_params
        if model.frame == geo.EUCLIDEAN and camera.kind == geo.PROJECTIVE:
            try:
                camera = geo.camera_from_projection(camera.P)
            except geo.GeometryError as exc:
                raise RejectedPair("resectionFailed", str(exc))
        out = model.copy()
        out.cameras[img] = camera
        self.intersect_pending(out)
        self.bundle_adjust(out, moved_ids=[img])
        self.intersect_pending(out)
        self._posterior_check(out, f"resection {img}")
        return out

    def merge_models(self, model_a: geo.Model, model_b: geo.Model) -> geo.Model:
        # the projective side always moves; otherwise the smaller one
        if model_a.frame != model_b.frame:
            moving, target = (
                (model_a, model_b)
                if model_a.frame == geo.PROJECTIVE
                else (model_b, model_a)
            )
        elif len(model_a.cameras) <= len(model_b.cameras):
            moving, target = model_a, model_b
        else:
            moving, target = model_b, model_a

        common = []
        by_index = {
            tp.track_index: tp for tp in target.triangulated() if tp.track_index is not None
        }
        for tp in moving.triangulated():
            other = by_index.get(tp.track_index)
            if other is not None:
                common.append((tp.position, other.position, tp.track_index))
        euclidean_pair = (
            moving.frame == geo.EUCLIDEAN and target.frame == geo.EUCLIDEAN
        )
        minimum = 3 if euclidean_pair else 5
        if len(common) < minimum:
            raise RejectedPair("tooFewCommonPoints", f"{len(common)} < {minimum}")
        XA = np.array([c[0] for c in common])
        XB = np.array([c[1] for c in common])
        t_indices = [c[2] for c in common]

        # residual of a candidate transform: mean 2D displacement of the two
        # aligned 3D points over the target cameras observing the track
        obs_by_cam = {}
        for k, t_idx in enumerate(t_indices):
            for img in self.tracks[t_idx].members:
                if img in target.cameras:
                    obs_by_cam.setdefault(img, []).append(k)
        proj_b = {
            img: geo.project(target.cameras[img], XB[idx])
            for img, idx in obs_by_cam.items()
        }

        def residual(d, T):
            Y = geo.apply_homography_points(T, d[:, :3])
            total = np.zeros(len(d))
            count = np.zeros(len(d))
            for img, idx in obs_by_cam.items():
                cam = target.cameras[img]
                diff = geo.project(cam, Y[idx]) - proj_b[img]
                total[idx] += np.linalg.norm(diff, axis=1)
                count[idx] += 1
            count[count == 0] = 1
            return total / count

        def to_h(s, R, t):
            T = np.eye(4)
            T[:3, :3] = s * R
            T[:3, 3] = t
            return T

        if euclidean_pair:
            def solver(d, sel):
                s, R, t = geo.absolute_orientation_similarity(d[sel, :3], d[sel, 3:])
                return to_h(s, R, t)
        else:
            def solver(d, sel):
                return geo.projectivity_dlt_3d(d[sel, :3], d[sel, 3:])

        data = np.hstack([XA, XB])
        anchor = min(target.cameras)
        try:
            fit = robust.msac(
                data,
                solver,
                residual,
                self._msac_config(anchor, 2, min(moving.cameras)),
                sample_size=minimum,
                full_solver=solver,
            )
        except (robust.RobustError, geo.GeometryError) as exc:
            raise RejectedPair("alignmentFailed", str(exc))
        T = fit.model_params

        if euclidean_pair:
            s, R, t = geo.similarity_from_matrix(T)
            moved = geo.transform_model_similarity(moving, s, R, t)
        else:
            moved = geo.transform_model_projective(moving, T)
            if target.frame == geo.EUCLIDEAN:
                for img, cam in list(moved.cameras.items()):
                    try:
                        moved.cameras[img] = geo.camera_from_projection(cam.P)
                    except geo.GeometryError as exc:
                        raise RejectedPair("alignmentFailed", str(exc))
                moved.frame = geo.EUCLIDEAN

        merged = geo.Model(frame=target.frame, cameras=dict(target.cameras))
        merged.cameras.update(moved.cameras)
        seen = {}
        for tp in target.tie_points:
            seen[tp.track_index] = tp
        merged.tie_points = list(target.tie_points)
        for tp in moved.tie_points:
            if tp.track_index not in seen:
                merged.tie_points.append(tp)
        self.intersect_pending(merged)
        moved_ids = sorted(moving.cameras)
        self.bundle_adjust(merged, moved_ids=moved_ids)
        self.intersect_pending(merged)
        self._posterior_check(merged, "merge")
        return merged

    def maybe_upgrade(self, model: geo.Model) -> geo.Model:
        """Attempt the Euclidean upgrade of a projective model.

        The upgraded coordinates are always adopted (a quasi-Euclidean frame
        conditions later steps); the Euclidean tag is granted only once the
        camera count satisfies the autocalibration counting argument.
        """
        if self.config.mode != AUTOCALIBRATED or model.frame != geo.PROJECTIVE:
            return model
        try:
            upgraded = autocalib.upgrade(model, self.image_sizes())
        except (autocalib.AutocalError, geo.GeometryError):
            return model
        if len(model.cameras) >= self.config.autocal_min_cameras:
            self.intersect_pending(upgraded)
            self.bundle_adjust(upgraded)
            self.intersect_pending(upgraded)
            return upgraded
        # keep the coordinates but stay projective until enough cameras
        for img, cam in list(upgraded.cameras.items()):
            upgraded.cameras[img] = geo.Camera(
                P=cam.P / np.linalg.norm(cam.P), kind=geo.PROJECTIVE
            )
        upgraded.frame = geo.PROJECTIVE
        return upgraded

    # -- driver ---------------------------------------------------------------

    def run(self) -> EngineResult:
        ids = sorted(self.images)
        keypoints = {img: self.images[img].keypoints for img in ids}
        affinity = clustering.affinity_matrix(
            TrackSet([self.tracks[t_idx] for t_idx in self.usable]),
            keypoints,
            self.image_sizes(),
        )
        state = clustering.ClusteringState(
            1.0 - affinity, ell=self.config.ell, leaf_ids=ids
        )
        models = {}
        rejected = set()

        while not state.done():
            try:
                a, b = clustering.next_merge(state, rejected)
            except clustering.NoMergeAvailable:
                break
            members_a = state.nodes[a].members
            members_b = state.nodes[b].members
            try:
                new_model, kind = self._dispatch(models, a, b, members_a, members_b)
            except RejectedPair as exc:
                rejected.add(frozenset((a, b)))
                act = NodeAction(
                    kind=self._kind_of(models, a, b),
                    inputs=(members_a, members_b),
                    ok=False,
                    detail=f"{exc.reason}: {exc.detail}",
                )
                self.actions.append(act)
                self.lines.append(act.line())
                continue
            new_model = self.maybe_upgrade(new_model)
            cid = state.merge(a, b)
            state.nodes[cid].action = kind
            models.pop(a, None)
            models.pop(b, None)
            models[cid] = new_model
            act = NodeAction(
                kind=kind,
                inputs=(members_a, members_b),
                ok=True,
                cameras=len(new_model.cameras),
                points=len(new_model.triangulated()),
            )
            self.actions.append(act)
            self.lines.append(act.line())

        finals = []
        for cid in sorted(models):
            model = models[cid]
            self._final_pass(model)
            finals.append(model)
        if not finals:
            raise NoModel("no stereo seed succeeded")
        text = "\n".join(root.render() for root in state.roots())
        return EngineResult(
            models=finals,
            actions=self.actions,
            report_lines=self.lines,
            dendrogram_text=text,
        )

    def _kind_of(self, models, a, b) -> str:
        has_a, has_b = a in models, b in models
        if not has_a and not has_b:
            return STEREO
        if has_a and has_b:
            return MERGE
        return RESECTION

    def _dispatch(self, models, a, b, members_a, members_b):
        kind = self._kind_of(models, a, b)
        if kind == STEREO:
            if len(members_a) > 1 or len(members_b) > 1:
                raise RejectedPair("aPriori", "cluster without a model")
            img_a, img_b = members_a[0], members_b[0]
            if img_b < img_a:
                img_a, img_b = img_b, img_a
            if self.config.mode == CALIBRATED:
                return self.stereo_model_calibrated(img_a, img_b), STEREO
            return self.stereo_model_projective(img_a, img_b), STEREO
        if kind == MERGE:
            return self.merge_models(models[a], models[b]), MERGE
        model, leaf = (models[a], members_b) if a in models else (models[b], members_a)
        if len(leaf) > 1:
            raise RejectedPair("aPriori", "cluster without a model")
        return self.resection_intersection(model, leaf[0]), RESECTION

    def _final_pass(self, model: geo.Model):
        """Final full adjustment between two intersections under the tighter
        safeguard threshold; the last one drops the points the adjustment
        pushed past it and admits those it brought within."""
        self.intersect_pending(model, final=True)
        self.bundle_adjust(model)
        self.intersect_pending(model, final=True)


def run(images, tracks, edges, config: PipelineConfig) -> EngineResult:
    """Reconstruct one or more models from verified tracks.

    Parameters
    ----------
    images : image id -> ImageInfo (intrinsics required in calibrated mode).
    tracks : TrackSet; only tracks of at least ``config.min_track_length``
        images are modelled, and tie-point track indices index this set.
    edges : verified EpipolarEdge list (two-view classes and matrices).
    config : ``fileio.PipelineConfig``, the pipeline's one parameter table,
        whose values are checked when it is built.
    """
    if config.mode == CALIBRATED:
        missing = [i for i, info in images.items() if info.intrinsics is None]
        if missing:
            raise ValueError(f"calibrated mode needs intrinsics for {missing}")
    return Engine(images, tracks, edges, config).run()
