"""Sparse Levenberg-Marquardt bundle adjustment.

Minimizes total squared pixel reprojection error over camera and point
parameters.  The normal equations are accumulated from the per-camera
Jacobians as the camera block U, the camera-point coupling W (camera
parameters x points x 3) and the 3x3 point blocks V; the point blocks are
eliminated (Schur complement) and only the reduced camera system is solved.
No full Jacobian or Hessian is formed, so memory is linear in the number of
points for a fixed camera count, which is what makes repeated adjustment of
growing models affordable.  Three camera parameterizations are supported:

- ``euclidean_fixed_k``: 6 dof per camera (rotation increment + centre),
  intrinsics and radial taken from the camera as constants;
- ``euclidean_free_k``: 6 + (focal, principal point, one radial
  coefficient), with zero skew and unit aspect; cameras listed in
  ``frozen_intrinsics`` keep the fixed-K layout;
- ``projective``: the 12 raw camera-matrix entries (11 effective dof; the
  overall scale direction is handled by the damping).

Fixed cameras contribute residuals (anchoring the free ones through shared
points) but own no parameters and are returned bit-identical.  A problem
without fixed cameras fixes the gauge instead: the pose of its first free
camera is held and, for Euclidean problems, one baseline length is pinned.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo, lm

PARAM_EUCLIDEAN_FIXED_K = "euclidean_fixed_k"
PARAM_EUCLIDEAN_FREE_K = "euclidean_free_k"
PARAM_PROJECTIVE = "projective"


class SingularNormalEquations(Exception):
    pass


@dataclass
class BaProblem:
    free_cameras: dict                 # image id -> Camera
    fixed_cameras: dict = field(default_factory=dict)
    tie_points: list = field(default_factory=list)   # triangulated TiePoints
    parameterization: str = PARAM_EUCLIDEAN_FIXED_K
    max_iterations: int = 100
    frozen_intrinsics: set = field(default_factory=set)  # image ids


BaReport = lm.Report


@dataclass
class BaSolution:
    cameras: dict
    points: np.ndarray
    report: BaReport


# ---------------------------------------------------------------------------
# internal state
# ---------------------------------------------------------------------------


class _CamBlock:
    def __init__(self, image_id, camera, parameterization, pose_free, k_free):
        self.image_id = image_id
        self.parameterization = parameterization
        self.pose_free = pose_free
        self.k_free = k_free and parameterization == PARAM_EUCLIDEAN_FREE_K
        self.offset = 0
        self.obs_points = None      # indices into the point array
        self.obs_uv = None
        if parameterization == PARAM_PROJECTIVE:
            self.P = camera.P / np.linalg.norm(camera.P)
            self.width = 12 if pose_free else 0
        else:
            self.R = camera.R.copy()
            self.C = camera.C.copy()
            intr = camera.intrinsics
            self.fx, self.fy = intr.fx, intr.fy
            self.skew = intr.skew
            self.cx, self.cy = intr.cx, intr.cy
            self.k1 = camera.radial
            self.width = 6 if pose_free else 0
            if self.k_free:
                # single focal, centred principal point convention
                self.f = 0.5 * (self.fx + self.fy)
                self.width += 4

    # -- projection of this camera's observed points -----------------------

    def intrinsics(self):
        """(fx, fy, skew, cx, cy, k1); free-K has one focal and zero skew."""
        if self.k_free:
            return self.f, self.f, 0.0, self.cx, self.cy, self.k1
        return self.fx, self.fy, self.skew, self.cx, self.cy, self.k1

    def project(self, X):
        if self.parameterization == PARAM_PROJECTIVE:
            x = X @ self.P[:, :3].T + self.P[:, 3]
            w = np.where(np.abs(x[:, 2]) < 1e-12, 1e-12, x[:, 2])
            return x[:, :2] / w[:, None]
        R, C = self.R, self.C
        fx, fy, skew, cx, cy, k1 = self.intrinsics()
        y = (X - C) @ R.T
        z = np.where(np.abs(y[:, 2]) < 1e-12, 1e-12, y[:, 2])
        xn = y[:, :2] / z[:, None]
        if k1 != 0.0:
            r2 = np.sum(xn * xn, axis=1, keepdims=True)
            xn = xn * (1.0 + k1 * r2)
        u = fx * xn[:, 0] + skew * xn[:, 1] + cx
        v = fy * xn[:, 1] + cy
        return np.column_stack([u, v])

    # -- analytic Jacobian blocks at delta = 0 ------------------------------

    def jacobian_blocks(self, X):
        """Returns (Jc, Jp): (n, 2, width) camera and (n, 2, 3) point blocks."""
        n = X.shape[0]
        if self.parameterization == PARAM_PROJECTIVE:
            Xh = np.hstack([X, np.ones((n, 1))])
            x = Xh @ self.P.T
            w = np.where(np.abs(x[:, 2]) < 1e-12, 1e-12, x[:, 2])
            u = x[:, 0] / w
            v = x[:, 1] / w
            Jp = np.zeros((n, 2, 3))
            Jp[:, 0, :] = (self.P[0, :3] - u[:, None] * self.P[2, :3]) / w[:, None]
            Jp[:, 1, :] = (self.P[1, :3] - v[:, None] * self.P[2, :3]) / w[:, None]
            if not self.pose_free:
                return np.zeros((n, 2, 0)), Jp
            Jc = np.zeros((n, 2, 12))
            Jc[:, 0, 0:4] = Xh / w[:, None]
            Jc[:, 0, 8:12] = -u[:, None] * Xh / w[:, None]
            Jc[:, 1, 4:8] = Xh / w[:, None]
            Jc[:, 1, 8:12] = -v[:, None] * Xh / w[:, None]
            return Jc, Jp

        R, C = self.R, self.C
        fx, fy, skew, cx, cy, k1 = self.intrinsics()
        vvec = X - C
        y = vvec @ R.T
        z = np.where(np.abs(y[:, 2]) < 1e-12, 1e-12, y[:, 2])
        xn = y[:, :2] / z[:, None]
        # d xn / d y
        dxn_dy = np.zeros((n, 2, 3))
        dxn_dy[:, 0, 0] = 1.0 / z
        dxn_dy[:, 0, 2] = -xn[:, 0] / z
        dxn_dy[:, 1, 1] = 1.0 / z
        dxn_dy[:, 1, 2] = -xn[:, 1] / z
        # distortion (exactly the identity at k1 = 0)
        r2 = np.sum(xn * xn, axis=1)
        dxd_dxn = (1.0 + k1 * r2)[:, None, None] * np.eye(2)[None] + (
            2.0 * k1
        ) * np.einsum("ni,nj->nij", xn, xn)
        xd = xn * (1.0 + k1 * r2)[:, None]
        A = np.array([[fx, skew], [0.0, fy]])
        dp_dxn = np.einsum("ij,njk->nik", A, dxd_dxn)
        dp_dy = np.einsum("nij,njk->nik", dp_dxn, dxn_dy)
        Jp = np.einsum("nij,jk->nik", dp_dy, R)
        if self.width == 0:
            return np.zeros((n, 2, 0)), Jp
        Jc = np.zeros((n, 2, self.width))
        pos = 0
        if self.pose_free:
            # d y / d rotation increment = -R [v]x, so a row a of d p / d X
            # (= d p / d y R) gives a^T (-[v]x) = (v x a)^T; d y / d C = -R
            Jc[:, :, 0:3] = np.cross(vvec[:, None, :], Jp)
            Jc[:, :, 3:6] = -Jp
            pos = 6
        if self.k_free:
            Jc[:, 0, pos] = xd[:, 0]
            Jc[:, 1, pos] = xd[:, 1]
            Jc[:, 0, pos + 1] = 1.0
            Jc[:, 1, pos + 2] = 1.0
            Jc[:, 0, pos + 3] = fx * xn[:, 0] * r2
            Jc[:, 1, pos + 3] = fy * xn[:, 1] * r2
        return Jc, Jp

    def moved(self, delta):
        out = copy.copy(self)
        out.apply(delta)
        return out

    def apply(self, delta):
        if self.width == 0 or delta.size == 0:
            return
        if self.parameterization == PARAM_PROJECTIVE:
            self.P = self.P + delta.reshape(3, 4)
            self.P = self.P / np.linalg.norm(self.P)
            return
        pos = 0
        if self.pose_free:
            self.R = self.R @ geo.rotation_from_rotvec(delta[0:3])
            self.C = self.C + delta[3:6]
            pos = 6
        if self.k_free:
            self.f += delta[pos]
            self.cx += delta[pos + 1]
            self.cy += delta[pos + 2]
            self.k1 += delta[pos + 3]

    def to_camera(self) -> geo.Camera:
        if self.parameterization == PARAM_PROJECTIVE:
            return geo.Camera(P=self.P.copy(), kind=geo.PROJECTIVE)
        fx, fy, skew, cx, cy, k1 = self.intrinsics()
        intr = geo.Intrinsics(fx=fx, fy=fy, skew=skew, cx=cx, cy=cy)
        return geo.Camera.euclidean(intr, self.R, self.C, radial=k1)


class _State:
    def __init__(self, problem: BaProblem):
        self.problem = problem
        free_ids = sorted(problem.free_cameras)
        # without anchoring cameras the first free camera holds the gauge
        self.gauge_id = (
            free_ids[0] if free_ids and not problem.fixed_cameras else None
        )

        self.blocks = [
            _CamBlock(
                img,
                problem.free_cameras[img],
                problem.parameterization,
                pose_free=img != self.gauge_id,
                k_free=img not in problem.frozen_intrinsics,
            )
            for img in free_ids
        ]
        self.fixed_blocks = [
            _CamBlock(
                img,
                cam,
                PARAM_PROJECTIVE if cam.kind == geo.PROJECTIVE else PARAM_EUCLIDEAN_FIXED_K,
                pose_free=False,
                k_free=False,
            )
            for img, cam in sorted(problem.fixed_cameras.items())
        ]

        self.points = np.array(
            [tp.position for tp in problem.tie_points], float
        ).reshape(-1, 3)
        n_pts = len(self.points)

        # observations per camera block, ordered by point
        point, image, uv = geo.observations(
            problem.tie_points, [b.image_id for b in self.blocks + self.fixed_blocks]
        )
        for b in self.blocks + self.fixed_blocks:
            rows = image == b.image_id
            b.obs_points = point[rows]
            b.obs_uv = uv[rows]
        self.n_obs = len(point)

        # parameter layout: cameras then points
        offset = 0
        for b in self.blocks:
            b.offset = offset
            offset += b.width
        self.n_cam_params = offset
        self.n_params = offset + 3 * n_pts
        row = 0
        for b in self.blocks + self.fixed_blocks:
            b.row = row   # first residual row
            row += 2 * len(b.obs_points)

        # gauge scale pinning for Euclidean problems without anchors
        self.scale_ref = None
        if (
            self.gauge_id is not None
            and problem.parameterization != PARAM_PROJECTIVE
            and len(self.blocks) >= 2
        ):
            c0 = self.blocks[0].C
            c1 = self.blocks[1].C
            self.scale_ref = (0, 1, float(np.linalg.norm(c1 - c0)))

    # -- residuals ----------------------------------------------------------

    def residuals(self, delta=None):
        """Residuals at the current parameters, or after the step ``delta``."""
        pts, blocks = self.points, self.blocks
        if delta is not None:
            pts = pts + delta[self.n_cam_params :].reshape(-1, 3)
            blocks = [b.moved(delta[b.offset : b.offset + b.width]) for b in blocks]
        r = np.zeros(2 * self.n_obs)
        for b in blocks + self.fixed_blocks:
            proj = b.project(pts[b.obs_points])
            r[b.row : b.row + 2 * len(b.obs_points)] = (proj - b.obs_uv).ravel()
        return r

    def _observed_blocks(self):
        """Yields (block, Jc, Jp) per observing camera."""
        for b in self.blocks + self.fixed_blocks:
            if len(b.obs_points):
                Jc, Jp = b.jacobian_blocks(self.points[b.obs_points])
                yield b, Jc, Jp

    def normal_equations(self, r):
        """The blocks of J^T J and J^T r, accumulated camera by camera.

        Returns (U, W, V, gc, gp): the camera block U (nc, nc), the
        camera-point coupling W (nc, n_points, 3), the point blocks V
        (n_points, 3, 3) and the camera and point gradients gc (nc,) and
        gp (n_points, 3), where nc = ``n_cam_params``.
        """
        nc, n_pts = self.n_cam_params, len(self.points)
        U = np.zeros((nc, nc))
        W = np.zeros((nc, n_pts, 3))
        V = np.zeros((n_pts, 3, 3))
        gc = np.zeros(nc)
        gp = np.zeros((n_pts, 3))
        for b, Jc, Jp in self._observed_blocks():
            pts = b.obs_points   # each point at most once per camera
            rb = r[b.row : b.row + 2 * len(pts)].reshape(-1, 2)
            V[pts] += np.einsum("nki,nkj->nij", Jp, Jp)
            gp[pts] += np.einsum("nki,nk->ni", Jp, rb)
            if b.width:
                cols = slice(b.offset, b.offset + b.width)
                U[cols, cols] += np.einsum("nki,nkj->ij", Jc, Jc)
                W[cols, pts] += (Jc.transpose(0, 2, 1) @ Jp).transpose(1, 0, 2)
                gc[cols] += np.einsum("nki,nk->i", Jc, rb)
        return U, W, V, gc, gp

    def dense_jacobian(self):
        """The full Jacobian as one dense array (small problems only)."""
        J = np.zeros((2 * self.n_obs, self.n_params))
        for b, Jc, Jp in self._observed_blocks():
            rows = b.row + np.arange(2 * len(b.obs_points))
            J[rows, b.offset : b.offset + b.width] = Jc.reshape(len(rows), -1)
            point_cols = self.n_cam_params + 3 * np.repeat(b.obs_points, 2)
            J[rows[:, None], point_cols[:, None] + np.arange(3)] = Jp.reshape(-1, 3)
        return J

    def apply(self, delta):
        for b in self.blocks:
            if b.width:
                b.apply(delta[b.offset : b.offset + b.width])
        self.points = self.points + delta[self.n_cam_params :].reshape(-1, 3)
        self._renormalize_scale()

    def _renormalize_scale(self):
        """Pin one baseline length; pure rescaling about the gauge camera
        leaves every reprojection unchanged."""
        if self.scale_ref is None:
            return
        a, b, d0 = self.scale_ref
        ca = self.blocks[a].C
        d = float(np.linalg.norm(self.blocks[b].C - ca))
        if d < 1e-12:
            return
        s = d0 / d
        if abs(s - 1.0) < 1e-15:
            return
        for blk in self.blocks:
            blk.C = ca + s * (blk.C - ca)
        self.points = ca + s * (self.points - ca)

    def solution(self, report) -> BaSolution:
        cameras = {b.image_id: b.to_camera() for b in self.blocks}
        cameras.update(self.problem.fixed_cameras)
        return BaSolution(cameras=cameras, points=self.points.copy(), report=report)


# ---------------------------------------------------------------------------
# normal-equation solvers
# ---------------------------------------------------------------------------


def _solve_schur(U, W, V, gc, gp, lam):
    """Solve the damped normal equations for the step by eliminating the
    3x3 point blocks.  The blocks are those of ``normal_equations``; lam
    times its (floored) diagonal is added to the diagonal of J^T J."""
    nc, n_pts = W.shape[:2]
    Ud = U + np.diag(lam * np.maximum(np.diag(U), 1e-12))
    Vdiag = np.maximum(np.diagonal(V, axis1=1, axis2=2), 1e-12)
    Vinv = np.linalg.inv(V + lam * Vdiag[:, :, None] * np.eye(3))
    WVinv = (W.transpose(1, 0, 2) @ Vinv).transpose(1, 0, 2)   # the einsum form is ~30x slower
    S = Ud - WVinv.reshape(nc, 3 * n_pts) @ W.reshape(nc, 3 * n_pts).T
    dc = np.linalg.solve(S, -gc + np.einsum("cpl,pl->c", WVinv, gp))
    dp = np.einsum("pkl,pl->pk", Vinv, -gp - np.einsum("cpk,c->pk", W, dc))
    return np.concatenate([dc, dp.ravel()])


def _solve_dense(H, g):
    """Reference dense solve of the same damped normal equations."""
    return np.linalg.solve(H, -g)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def adjust(problem: BaProblem) -> BaSolution:
    """Levenberg-Marquardt (``lm.minimize``, relative tolerance 1e-9) on the
    plain sum of squared pixel residuals, through the U/W/V blocks and
    ``_solve_schur``.  At ``max_iterations`` the best iterate is returned
    with termination "not_converged"; raises ``SingularNormalEquations``
    when not even the first step can be solved and accepted.
    """
    state = _State(problem)
    if state.n_obs == 0 or state.n_params == 0:
        return state.solution(BaReport(0.0, 0.0, 0, "nothing_to_do"))
    r = state.residuals()

    def linearize():
        U, W, V, gc, gp = blocks = state.normal_equations(r)
        g = np.concatenate([gc, gp.ravel()])
        diag = np.concatenate([np.diag(U), np.diagonal(V, axis1=1, axis2=2).ravel()])
        return blocks, g, diag

    def trial(delta):
        r_trial = state.residuals(delta)
        return float(r_trial @ r_trial)

    def accept(delta, _):
        nonlocal r
        state.apply(delta)
        r = state.residuals()
        return float(r @ r)

    report = lm.minimize(
        float(r @ r), linearize, _solve_schur, trial, accept, 1e-9, problem.max_iterations
    )
    if report.termination == "stalled":
        raise SingularNormalEquations("no damped step could be solved or accepted")
    return state.solution(report)


def jacobian_check(problem: BaProblem, epsilon: float = 1e-7) -> float:
    """Max deviation between the analytic Jacobian and central differences,
    normalized by the largest analytic entry (small problems only)."""
    state = _State(problem)
    if state.n_params == 0:
        return 0.0
    J = state.dense_jacobian()
    Jn = np.zeros_like(J)
    for k in range(state.n_params):
        d = np.zeros(state.n_params)
        d[k] = epsilon
        Jn[:, k] = (state.residuals(d) - state.residuals(-d)) / (2 * epsilon)
    scale = max(1.0, float(np.max(np.abs(J))))
    return float(np.max(np.abs(J - Jn)) / scale)
