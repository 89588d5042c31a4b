"""Projective geometry kernels for multi-view reconstruction.

Points are stored as (N, 3) row arrays, image coordinates as (N, 2) pixel
arrays, and cameras as 3x4 matrices acting on homogeneous column vectors.
A Euclidean camera with calibration K, rotation R and centre C projects as
K [R | -R C].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lm


class GeometryError(Exception):
    pass


class PointAtInfinity(GeometryError):
    """Projective depth of a point vanished under projection."""


class Degenerate(GeometryError):
    """Input configuration admits no solution (e.g. zero baseline)."""


class DegenerateConfiguration(GeometryError):
    """Design matrix of a linear solver lost rank."""


class NoCheiralSolution(GeometryError):
    """No motion candidate places a majority of points in front of both cameras."""


class PoseDivergence(GeometryError):
    """Iterative pose solver failed to converge."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

EUCLIDEAN = "euclidean"
PROJECTIVE = "projective"


@dataclass
class Intrinsics:
    """Pinhole calibration: focals in pixels, principal point, skew."""

    fx: float
    fy: float
    skew: float
    cx: float
    cy: float

    def __post_init__(self):
        vals = (self.fx, self.fy, self.skew, self.cx, self.cy)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [[self.fx, self.skew, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    @property
    def focal(self) -> float:
        return 0.5 * (self.fx + self.fy)

    @classmethod
    def from_matrix(cls, K) -> "Intrinsics":
        K = np.asarray(K, float)
        K = K / K[2, 2]
        return cls(fx=K[0, 0], fy=K[1, 1], skew=K[0, 1], cx=K[0, 2], cy=K[1, 2])


@dataclass(eq=False)
class Camera:
    """A 3x4 camera, either Euclidean (K, R, C known) or purely projective."""

    P: np.ndarray
    kind: str = PROJECTIVE
    intrinsics: Intrinsics | None = None
    R: np.ndarray | None = None
    C: np.ndarray | None = None
    radial: float = 0.0

    @classmethod
    def euclidean(cls, intrinsics: Intrinsics, R, C, radial: float = 0.0) -> "Camera":
        R = np.asarray(R, float)
        C = np.asarray(C, float).reshape(3)
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9:
            raise ValueError("rotation must be orthonormal")
        P = compose_projection(intrinsics.K, R, C)
        return cls(P=P, kind=EUCLIDEAN, intrinsics=intrinsics, R=R, C=C, radial=radial)

    @classmethod
    def projective(cls, P) -> "Camera":
        P = np.asarray(P, float)
        if P.shape != (3, 4):
            raise ValueError("camera matrix must be 3x4")
        if np.linalg.matrix_rank(P) < 3:
            raise ValueError("camera matrix must have rank 3")
        return cls(P=P / np.linalg.norm(P), kind=PROJECTIVE)

    def center(self) -> np.ndarray:
        if self.C is not None:
            return self.C
        # right null vector of P, dehomogenized
        _, _, vt = np.linalg.svd(self.P)
        c = vt[-1]
        if abs(c[3]) < 1e-14:
            raise Degenerate("camera centre is at infinity")
        return c[:3] / c[3]

    def copy(self) -> "Camera":
        return Camera(
            P=self.P.copy(),
            kind=self.kind,
            intrinsics=None
            if self.intrinsics is None
            else Intrinsics(
                self.intrinsics.fx,
                self.intrinsics.fy,
                self.intrinsics.skew,
                self.intrinsics.cx,
                self.intrinsics.cy,
            ),
            R=None if self.R is None else self.R.copy(),
            C=None if self.C is None else self.C.copy(),
            radial=self.radial,
        )


PENDING = "pending"
TRIANGULATED = "triangulated"


@dataclass(eq=False)
class TiePoint:
    """A multi-image correspondence with optional 3D coordinates.

    ``track`` maps image id to the observed pixel position, so an image can
    appear at most once by construction.
    """

    track: dict
    position: np.ndarray | None = None
    status: str = PENDING
    track_index: int | None = None

    def __post_init__(self):
        if self.status == TRIANGULATED and self.position is None:
            raise ValueError("triangulated tie-point needs coordinates")


@dataclass(eq=False)
class Model:
    """A set of cameras plus tie-points in one reference frame."""

    cameras: dict = field(default_factory=dict)
    tie_points: list = field(default_factory=list)
    frame: str = EUCLIDEAN

    def triangulated(self) -> list:
        return [tp for tp in self.tie_points if tp.status == TRIANGULATED]

    def copy(self) -> "Model":
        return Model(
            cameras={i: c.copy() for i, c in self.cameras.items()},
            tie_points=[
                TiePoint(
                    track=dict(tp.track),
                    position=None if tp.position is None else tp.position.copy(),
                    status=tp.status,
                    track_index=tp.track_index,
                )
                for tp in self.tie_points
            ],
            frame=self.frame,
        )


def observations(tie_points, camera_ids):
    """Every observation of ``tie_points`` by a camera in ``camera_ids``.

    Returns (point, image, uv): indices into ``tie_points`` (n,), image ids
    (n,) and observed pixels (n, 2), ordered by image and then by point.
    """
    cams = set(camera_ids)
    point, image, uv = [], [], []
    for k, tp in enumerate(tie_points):
        for img, x in tp.track.items():
            if img in cams:
                point.append(k)
                image.append(img)
                uv.append(x)
    point = np.array(point, int)
    image = np.array(image, int)
    order = np.lexsort((point, image))
    return point[order], image[order], np.array(uv, float).reshape(-1, 2)[order]


# ---------------------------------------------------------------------------
# Basic operations
# ---------------------------------------------------------------------------


def hom(points) -> np.ndarray:
    """Append a unit homogeneous coordinate to (N, d) or (d,) points."""
    points = np.asarray(points, float)
    if points.ndim == 1:
        return np.append(points, 1.0)
    return np.hstack([points, np.ones((points.shape[0], 1))])


def cross_matrix(v) -> np.ndarray:
    x, y, z = np.asarray(v, float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_from_rotvec(rotvec) -> np.ndarray:
    """Rotation matrix of a rotation vector, through the unit quaternion.

    Scalar float arithmetic in the order of scipy's
    ``Rotation.from_rotvec(v).as_matrix()``, whose results it reproduces bit
    for bit: the half-angle scale is a Taylor series up to 1e-3 rad.
    """
    x, y, z = (float(c) for c in np.asarray(rotvec, float).reshape(3))
    angle = math.sqrt(x * x + y * y + z * z)
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 0.5 - angle2 / 48 + angle2 * angle2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    x, y, z, w = scale * x, scale * y, scale * z, math.cos(angle / 2)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([
        [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
        [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
        [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
    ])


def compose_projection(K, R, C) -> np.ndarray:
    K = np.asarray(K, float)
    R = np.asarray(R, float)
    C = np.asarray(C, float).reshape(3)
    return K @ np.hstack([R, (-R @ C).reshape(3, 1)])


def rq3(M):
    """Decompose M (..., 3, 3) as K @ R, K upper triangular with positive
    diagonal and R a proper rotation.  Works on batches."""
    M = np.asarray(M, float)
    sign = np.sign(np.linalg.det(M))
    M = M * sign[..., None, None]
    m1, m2, m3 = M[..., 0, :], M[..., 1, :], M[..., 2, :]

    def _norm(v):
        return np.linalg.norm(v, axis=-1)

    k33 = _norm(m3)
    r3 = m3 / k33[..., None]
    k23 = np.einsum("...i,...i->...", m2, r3)
    u2 = m2 - k23[..., None] * r3
    k22 = _norm(u2)
    r2 = u2 / k22[..., None]
    k13 = np.einsum("...i,...i->...", m1, r3)
    k12 = np.einsum("...i,...i->...", m1, r2)
    u1 = m1 - k12[..., None] * r2 - k13[..., None] * r3
    k11 = _norm(u1)
    r1 = u1 / k11[..., None]

    zeros = np.zeros_like(k11)
    K = np.stack(
        [
            np.stack([k11, k12, k13], axis=-1),
            np.stack([zeros, k22, k23], axis=-1),
            np.stack([zeros, zeros, k33], axis=-1),
        ],
        axis=-2,
    )
    R = np.stack([r1, r2, r3], axis=-2)
    return K, R


def decompose_projection(P):
    """Split a finite 3x4 camera into (K, R, C) with K[2, 2] = 1."""
    P = np.asarray(P, float)
    M = P[:, :3]
    if abs(np.linalg.det(M)) < 1e-14 * max(np.linalg.norm(P), 1e-300):
        raise Degenerate("left 3x3 block of the camera is singular")
    K, R = rq3(M)
    C = -np.linalg.solve(M, P[:, 3])
    return K / K[2, 2], R, C


def camera_from_projection(P, radial: float = 0.0) -> Camera:
    """Build a Euclidean Camera by decomposing a full camera matrix."""
    K, R, C = decompose_projection(P)
    return Camera.euclidean(Intrinsics.from_matrix(K), R, C, radial=radial)


def apply_radial(xn, k1):
    """One-coefficient polynomial distortion in normalized camera coords."""
    r2 = np.sum(xn * xn, axis=-1, keepdims=True)
    return xn * (1.0 + k1 * r2)


def project(camera: Camera, points) -> np.ndarray:
    """Project 3D point(s) through a camera.

    Parameters
    ----------
    camera : Camera
    points : (3,) or (N, 3) array in scene units.

    Returns
    -------
    (2,) or (N, 2) pixel coordinates.  Radial distortion is applied for
    Euclidean cameras carrying a nonzero coefficient.

    Raises
    ------
    PointAtInfinity
        If any point has projective depth below 1e-12.
    """
    points = np.asarray(points, float)
    single = points.ndim == 1
    pts = points.reshape(-1, 3)

    if camera.kind == EUCLIDEAN and camera.radial != 0.0:
        y = (pts - camera.C) @ camera.R.T
        w = y[:, 2]
        if np.any(np.abs(w) < 1e-12):
            raise PointAtInfinity("point on the principal plane")
        xn = apply_radial(y[:, :2] / w[:, None], camera.radial)
        K = camera.intrinsics.K
        uv = xn @ K[:2, :2].T + K[:2, 2]
    else:
        x = hom(pts) @ camera.P.T
        w = x[:, 2]
        if np.any(np.abs(w) < 1e-12):
            raise PointAtInfinity("point on the principal plane")
        uv = x[:, :2] / w[:, None]
    return uv[0] if single else uv


def reprojection_errors(camera: Camera, points, observed) -> np.ndarray:
    """Pixel distance between projections and observations, per point."""
    proj = project(camera, points)
    return np.linalg.norm(np.atleast_2d(proj) - np.atleast_2d(observed), axis=1)


# ---------------------------------------------------------------------------
# Point conditioning (isotropic normalization used by every linear solver)
# ---------------------------------------------------------------------------


def normalize_points(points):
    """Translate to zero centroid and scale to mean norm sqrt(dim).

    Returns (T, normalized) where T is the (d+1)x(d+1) homogeneous transform
    such that normalized = points @ T[:d, :d].T + T[:d, d].  ``points`` is
    (n, d) or a stack (k, n, d); T then has the leading axis too.
    """
    points = np.asarray(points, float)
    d = points.shape[-1]
    centroid = points.mean(axis=-2, keepdims=True)
    centered = points - centroid
    mean_norm = np.mean(np.linalg.norm(centered, axis=-1), axis=-1)
    wide = mean_norm > 1e-14
    scale = np.sqrt(d) / np.where(wide, mean_norm, 1.0)
    scale = np.where(wide, scale, 1.0)[..., None, None]
    T = np.broadcast_to(np.eye(d + 1), points.shape[:-2] + (d + 1, d + 1)).copy()
    T[..., :d, :d] *= scale
    T[..., :d, d] = -scale[..., 0] * centroid[..., 0, :]
    return T, centered * scale


# ---------------------------------------------------------------------------
# Two-view solvers
# ---------------------------------------------------------------------------


def _frobenius_norms(M):
    """Frobenius norms of a stack of matrices (k, r, c) -> (k,).

    Taken as a (1, rc) @ (rc, 1) product, which is the dot product
    ``np.linalg.norm`` takes of one matrix, so a stack gives the same bits
    as the matrices one at a time.
    """
    flat = M.reshape(M.shape[0], 1, M.shape[1] * M.shape[2])
    return np.sqrt(flat @ np.swapaxes(flat, -1, -2))[:, 0, 0]


def _rank_deficient(s, rank):
    """Rows of stacked singular values whose ``rank``-th one is negligible."""
    return s[:, rank - 1] < 1e-9 * s[:, 0]


def _right_svd(A):
    """Singular values and right singular vectors ``(s, vt)`` of A (..., m, n).

    The same bits as ``np.linalg.svd(A)`` without its dense U: a tall or
    square A takes the thin SVD, whose vt is already n x n; a wide A keeps
    the full one, because its thin vt would drop the null vectors.
    """
    _, s, vt = np.linalg.svd(A, full_matrices=A.shape[-2] < A.shape[-1])
    return s, vt


def solve_homography_stack(pts1, pts2):
    """Normalized DLT estimates of H with pts2 ~ H pts1 for a stack of k
    correspondence sets (k, n, 2), n >= 4.

    Returns (H (k, 3, 3), ok (k,)).  ``ok`` is False where the design matrix
    has a nullspace of dimension > 1, e.g. when 3 of a 4-point minimal sample
    are collinear, or holds a non-finite value; H is NaN there.
    """
    pts1 = np.asarray(pts1, float)
    pts2 = np.asarray(pts2, float)
    k, n = pts1.shape[:2]
    if n < 4:
        raise ValueError("homography needs >= 4 correspondences")
    T1, p1 = normalize_points(pts1)
    T2, p2 = normalize_points(pts2)
    A = np.zeros((k, 2 * n, 9))
    x, y = p1[..., 0], p1[..., 1]
    u, v = p2[..., 0], p2[..., 1]
    A[:, 0::2, 0] = x
    A[:, 0::2, 1] = y
    A[:, 0::2, 2] = 1.0
    A[:, 0::2, 6] = -u * x
    A[:, 0::2, 7] = -u * y
    A[:, 0::2, 8] = -u
    A[:, 1::2, 3] = x
    A[:, 1::2, 4] = y
    A[:, 1::2, 5] = 1.0
    A[:, 1::2, 6] = -v * x
    A[:, 1::2, 7] = -v * y
    A[:, 1::2, 8] = -v
    rows = np.flatnonzero(np.isfinite(A).all(axis=(1, 2)))
    s, vt = _right_svd(A[rows])
    full_rank = ~_rank_deficient(s, 8)
    rows, Hn = rows[full_rank], vt[full_rank, -1].reshape(-1, 3, 3)
    Hs = np.linalg.inv(T2[rows]) @ Hn @ T1[rows]
    Hs = Hs / _frobenius_norms(Hs)[:, None, None]
    h22 = Hs[:, 2, 2]
    Hs = Hs * np.where(np.abs(h22) > 1e-12, np.sign(h22), 1.0)[:, None, None]
    H = np.full((k, 3, 3), np.nan)
    H[rows] = Hs
    ok = np.zeros(k, bool)
    ok[rows] = True
    return H, ok


# adj(M)[i, j] is the 2x2 minor of M in rows j+1, j+2 and columns i+1, i+2
# (mod 3); the cyclic order carries the cofactor's sign
_ADJ_R1, _ADJ_C1 = np.meshgrid([1, 2, 0], [1, 2, 0])
_ADJ_R2, _ADJ_C2 = np.meshgrid([2, 0, 1], [2, 0, 1])


def _adjugate(M):
    """Adjugates of a stack of 3x3 matrices (k, 3, 3), adj(M) M = det(M) I.

    Each entry is a 2x2 cofactor, so a singular M has a finite adjugate and
    no inverse is taken.
    """
    return (
        M[:, _ADJ_R1, _ADJ_C1] * M[:, _ADJ_R2, _ADJ_C2]
        - M[:, _ADJ_R1, _ADJ_C2] * M[:, _ADJ_R2, _ADJ_C1]
    )


def solve_homography_minimal_stack(pts1, pts2):
    """Closed-form H with pts2 ~ H pts1 for a stack of k 4-point samples
    (k, 4, 2), in pixels (Hartley & Zisserman, ch. 4).

    In each image, M = [x1 x2 x3] (w = 1) and lambda = adj(M) x4, so that
    B = M diag(lambda) maps e1, e2, e3 to x1, x2, x3 and (1, 1, 1) to x4;
    by Cramer's rule lambda_i is det(M) with x4 in column i.  Then
    H = B2 adj(B1) = M2 diag(lambda2 * mu1) adj(M1), where
    adj(diag(lambda1)) = diag(mu1) = diag(l2 l3, l1 l3, l1 l2).

    Returns (H (k, 3, 3), ok (k,)), H Frobenius-normalised with h22 >= 0 as
    ``solve_homography_stack`` returns it.  ``ok`` is False, and H NaN, where
    H is not finite or where, in either image, the smallest of the four
    doubled triangle areas |lambda_1|, |lambda_2|, |lambda_3|, |det M| is
    <= 1e-9 times the largest: three collinear points or two coincident
    ones.  Area ratios do not change under translation or scaling.  Unlike
    the DLT, which returns a rank-1 H when three points are collinear in one
    image only, this rejects such a sample.
    """
    pts1 = np.asarray(pts1, float)
    pts2 = np.asarray(pts2, float)
    if pts1.shape[1:] != (4, 2) or pts2.shape != pts1.shape:
        raise ValueError("minimal homography samples must be (k, 4, 2)")
    k = len(pts1)
    pts = np.concatenate([pts1, pts2])  # both images in one pass
    M = np.ones((2 * k, 3, 3))
    M[:, :2, :] = np.swapaxes(pts[:, :3], -1, -2)
    adj = _adjugate(M)
    u, v = pts[:, 3, None, 0], pts[:, 3, None, 1]
    lam = adj[:, :, 0] * u + adj[:, :, 1] * v + adj[:, :, 2]
    det = np.sum(adj[:, 0, :] * M[:, :, 0], axis=1)
    area = np.abs(np.column_stack([lam, det]))
    flat = area.min(axis=1) <= 1e-9 * area.max(axis=1)
    l1, l2 = lam[:k], lam[k:]
    mu1 = l1[:, [1, 0, 0]] * l1[:, [2, 2, 1]]
    H = (M[k:] * (l2 * mu1)[:, None, :]) @ adj[:k]
    ok = np.isfinite(H).all(axis=(1, 2)) & ~flat[:k] & ~flat[k:]
    if not ok.all():
        H[~ok] = np.nan  # NaN rows pass through the scaling without a warning
    H /= _frobenius_norms(H)[:, None, None]
    h22 = H[:, 2, 2]
    H *= np.where(np.abs(h22) > 1e-12, np.sign(h22), 1.0)[:, None, None]
    return H, ok


def solve_homography(pts1, pts2) -> np.ndarray:
    """``solve_homography_stack`` for one correspondence set (n, 2).

    Raises DegenerateConfiguration where the stacked solver says not ok.
    """
    H, ok = solve_homography_stack(np.asarray(pts1, float)[None], np.asarray(pts2, float)[None])
    if not ok[0]:
        raise DegenerateConfiguration("homography design matrix rank < 8")
    return H[0]


def _homogeneous(points) -> np.ndarray:
    """(N, 2) pixels, or their (N, 3) homogeneous rows, as (N, 3) rows."""
    points = np.asarray(points, float)
    return points if points.shape[-1] == 3 else hom(points)


def _squared_transfer(M, x, target):
    """(k, N) squared pixel distances of the transfers M (k, 3, 3) of the
    columns x (3, N) from target (3, N), the homogeneous scale floored at
    1e-14 in magnitude."""
    p = M @ x
    w = p[:, 2]
    small = np.abs(w) < 1e-14
    if small.any():
        w[small] = 1e-14
    d = p[:, :2]
    d /= w[:, None]
    d -= target[:2]
    d *= d
    return d[:, 0] + d[:, 1]


def _columns(points) -> np.ndarray:
    """(N, 2) pixels or their (N, 3) homogeneous rows as contiguous (3, N)
    columns: the stacked product then makes one matrix product per H."""
    return np.ascontiguousarray(_homogeneous(points).T)


def homography_forward_error(H, pts1, pts2) -> np.ndarray:
    """Forward transfer distance |Hx1-x2|, shaped and floored as
    ``homography_transfer_error``.

    Its squares are the first term of the symmetric error's sum, rounded the
    same way, so under monotone rounding it is never larger than the
    symmetric error: a lower bound for MSAC's bail-out test.
    """
    H = np.asarray(H, float)
    d = _squared_transfer(H.reshape(-1, 3, 3), _columns(pts1), _columns(pts2))
    return np.sqrt(d, out=d).reshape(H.shape[:-2] + d.shape[-1:])


def homography_transfer_error(H, pts1, pts2) -> np.ndarray:
    """Symmetric transfer distance sqrt(|Hx1-x2|^2 + |H^-1 x2 - x1|^2).

    H is (3, 3) or a stack (k, 3, 3), giving (N,) or (k, N) distances; the
    points are (N, 2) pixels or their (N, 3) homogeneous rows, whose w must
    be 1.  The backward transfer applies adj(H), which is proportional to
    H^-1, so a singular H gives finite distances instead of raising.
    """
    H = np.asarray(H, float)
    stack = H.reshape(-1, 3, 3)
    x1, x2 = _columns(pts1), _columns(pts2)
    d = _squared_transfer(stack, x1, x2)
    d += _squared_transfer(_adjugate(stack), x2, x1)
    return np.sqrt(d, out=d).reshape(H.shape[:-2] + d.shape[-1:])


def sampson_homography(H, pts1, pts2) -> np.ndarray:
    """First-order geometric distance of correspondences to a homography.

    Unlike the symmetric transfer error this estimates the distance of the
    4D measurement to the model manifold, which is what an information
    criterion over heterogeneous models needs.
    """
    H = np.asarray(H, float)
    x1 = np.asarray(pts1, float)
    x2 = np.asarray(pts2, float)
    p = hom(x1) @ H.T
    u2, v2 = x2[:, 0], x2[:, 1]
    g = np.column_stack([v2 * p[:, 2] - p[:, 1], p[:, 0] - u2 * p[:, 2]])
    # J = d g / d (x1, y1, u2, v2), shape (n, 2, 4)
    n = len(x1)
    J = np.zeros((n, 2, 4))
    J[:, 0, 0] = v2 * H[2, 0] - H[1, 0]
    J[:, 0, 1] = v2 * H[2, 1] - H[1, 1]
    J[:, 0, 3] = p[:, 2]
    J[:, 1, 0] = H[0, 0] - u2 * H[2, 0]
    J[:, 1, 1] = H[0, 1] - u2 * H[2, 1]
    J[:, 1, 2] = -p[:, 2]
    JJt = np.einsum("nij,nkj->nik", J, J)
    a, b, d = JJt[:, 0, 0], JJt[:, 0, 1], JJt[:, 1, 1]
    # floored relative to its own scale, so pixel units do not matter
    det = np.maximum(a * d - b * b, 1e-14 * a * d)
    # g' (J J')^-1 g with the closed-form 2x2 inverse
    e2 = (d * g[:, 0] ** 2 - 2 * b * g[:, 0] * g[:, 1] + a * g[:, 1] ** 2) / det
    return np.sqrt(np.maximum(e2, 0.0))


def _fundamental_rows(p1, p2):
    x, y = p1[..., 0], p1[..., 1]
    u, v = p2[..., 0], p2[..., 1]
    return np.stack(
        [u * x, u * y, u, v * x, v * y, v, x, y, np.ones_like(x)], axis=-1
    )


def solve_fundamental(pts1, pts2) -> np.ndarray:
    """Normalized 8-point estimate of F with x2' F x1 = 0, rank 2 enforced."""
    pts1 = np.asarray(pts1, float)
    pts2 = np.asarray(pts2, float)
    if pts1.shape[0] < 8:
        raise ValueError("fundamental matrix needs >= 8 correspondences")
    T1, p1 = normalize_points(pts1)
    T2, p2 = normalize_points(pts2)
    A = _fundamental_rows(p1, p2)
    s, vt = _right_svd(A)
    if s[7] < 1e-9 * s[0]:
        raise DegenerateConfiguration("fundamental design matrix rank < 8")
    F = vt[-1].reshape(3, 3)
    u, sf, vft = np.linalg.svd(F)
    F = u @ np.diag([sf[0], sf[1], 0.0]) @ vft
    F = T2.T @ F @ T1
    return F / np.linalg.norm(F)


# det(a F1 + (1 - a) F2) is cubic in a; its coefficients are recovered from
# the values at these four points through their Vandermonde matrix
_CUBIC_SAMPLES = np.array([0.0, 1.0, -1.0, 2.0])
_CUBIC_VANDER = np.vander(_CUBIC_SAMPLES, 4)  # columns a^3, a^2, a, 1


def _cubic_roots(coeffs):
    """``np.roots`` of a stack of cubics (m, 4) as (m, 3); NaN pads a row
    whose polynomial has lower degree or whose roots ``np.roots`` cannot
    take (a non-finite companion matrix).

    Cubics with a non-zero leading and constant coefficient, all but never
    others, take the companion-matrix eigenvalues ``np.roots`` takes, stacked;
    the rest go through ``np.roots`` itself, which strips zero coefficients.
    """
    roots = np.full(coeffs.shape[:1] + (3,), np.nan, complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        top = -coeffs[:, 1:] / coeffs[:, :1]
    stripped = (coeffs[:, 0] == 0.0) | (coeffs[:, 3] == 0.0)
    full = ~stripped & np.isfinite(top).all(axis=1)
    companion = np.zeros((int(full.sum()), 3, 3))
    companion[:, 0, :] = top[full]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots[full] = np.linalg.eigvals(companion)
    for i in np.flatnonzero(stripped):
        try:
            r = np.roots(coeffs[i])
        except np.linalg.LinAlgError:
            continue
        roots[i, : len(r)] = r
    return roots


def solve_fundamental_minimal_stack(pts1, pts2):
    """7-point solver for a stack of k samples (k, 7, 2).

    Returns (F (m, 3, 3), owner (m,)): the 1-3 real cubic-root solutions of
    every sample, in sample order, and the sample each came from.  A sample
    with a rank-deficient design matrix, a vanishing determinant polynomial,
    no real root or non-finite values has no row.
    """
    pts1 = np.asarray(pts1, float)
    pts2 = np.asarray(pts2, float)
    if pts1.shape[-2] != 7:
        raise ValueError("minimal solver needs exactly 7 correspondences")
    T1, p1 = normalize_points(pts1)
    T2, p2 = normalize_points(pts2)
    A = _fundamental_rows(p1, p2)
    owner = np.flatnonzero(np.isfinite(A).all(axis=(1, 2)))
    s, vt = _right_svd(A[owner])
    keep = ~_rank_deficient(s, 7)
    owner, vt = owner[keep], vt[keep]
    F1 = vt[:, -1].reshape(-1, 1, 3, 3)
    F2 = vt[:, -2].reshape(-1, 1, 3, 3)
    a = _CUBIC_SAMPLES[:, None, None]
    dets = np.linalg.det(a * F1 + (1.0 - a) * F2)
    V = np.broadcast_to(_CUBIC_VANDER, (len(owner), 4, 4))
    coeffs = np.linalg.solve(V, dets[..., None])[..., 0]
    keep = np.isfinite(coeffs).all(axis=1) & ~(np.max(np.abs(coeffs), axis=1) < 1e-14)
    owner, coeffs, F1, F2 = owner[keep], coeffs[keep], F1[keep, 0], F2[keep, 0]
    roots = _cubic_roots(coeffs)
    real = np.abs(roots.imag) < 1e-8 * np.maximum(1.0, np.abs(roots))
    row, _ = np.nonzero(real)
    a = roots.real[real][:, None, None]
    F = a * F1[row] + (1.0 - a) * F2[row]
    F = np.swapaxes(T2[owner[row]], -1, -2) @ F @ T1[owner[row]]
    nrm = _frobenius_norms(F)
    keep = nrm > 1e-14
    return F[keep] / nrm[keep, None, None], owner[row][keep]


def solve_fundamental_minimal(pts1, pts2) -> list:
    """``solve_fundamental_minimal_stack`` for one sample (7, 2); returns the
    1-3 solutions as a list.

    Raises DegenerateConfiguration when the sample has none.
    """
    F, _ = solve_fundamental_minimal_stack(
        np.asarray(pts1, float)[None], np.asarray(pts2, float)[None]
    )
    if not len(F):
        raise DegenerateConfiguration("7-point sample has no solution")
    return list(F)


def sampson_distance(F, pts1, pts2) -> np.ndarray:
    """First-order geometric (Sampson) distance of correspondences to F.

    F is (3, 3) or a stack (k, 3, 3), giving (N,) or (k, N) distances; the
    points are (N, 2) pixels or their (N, 3) homogeneous rows.
    """
    F = np.asarray(F, float)
    x1 = _homogeneous(pts1)
    x2 = _homogeneous(pts2)
    Fx1 = x1 @ np.swapaxes(F, -1, -2)
    Ftx2 = x2 @ F
    num = np.einsum("...ij,...ij->...i", x2, Fx1)
    den = Fx1[..., 0] ** 2 + Fx1[..., 1] ** 2 + Ftx2[..., 0] ** 2 + Ftx2[..., 1] ** 2
    den = np.where(den < 1e-14, 1e-14, den)
    return np.abs(num) / np.sqrt(den)


def epipole_second(F) -> np.ndarray:
    """Epipole in the second image: the unit vector with e' F = 0."""
    _, _, vt = np.linalg.svd(np.asarray(F, float).T)
    return vt[-1]


def canonical_pair(F):
    """Projective camera pair (P1, P2) = ([I | 0], [[e2]x F | e2]) for F."""
    F = np.asarray(F, float)
    e2 = epipole_second(F)
    A2 = cross_matrix(e2) @ F
    P2 = np.hstack([A2, e2.reshape(3, 1)])
    if np.linalg.matrix_rank(P2) < 3:
        raise DegenerateConfiguration("canonical second camera is rank deficient")
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    return P1, P2


def essential_from_fundamental(F, K1, K2) -> np.ndarray:
    """E = K2' F K1, projected onto the essential manifold."""
    E = np.asarray(K2, float).T @ np.asarray(F, float) @ np.asarray(K1, float)
    u, s, vt = np.linalg.svd(E)
    sigma = 0.5 * (s[0] + s[1])
    return u @ np.diag([sigma, sigma, 0.0]) @ vt


def _triangulate_pair_linear(P1, P2, pts1, pts2):
    """Batched two-view DLT used for cheirality counting."""
    n = pts1.shape[0]
    A = np.zeros((n, 4, 4))
    A[:, 0] = pts1[:, 0, None] * P1[2] - P1[0]
    A[:, 1] = pts1[:, 1, None] * P1[2] - P1[1]
    A[:, 2] = pts2[:, 0, None] * P2[2] - P2[0]
    A[:, 3] = pts2[:, 1, None] * P2[2] - P2[1]
    _, _, vt = np.linalg.svd(A)
    X = vt[:, -1, :]
    w = np.where(np.abs(X[:, 3]) < 1e-14, 1e-14, X[:, 3])
    return X[:, :3] / w[:, None]


def relative_orientation(E, pts1_norm, pts2_norm):
    """Factor an essential matrix into the relative motion of camera 2.

    Parameters
    ----------
    E : 3x3 essential matrix (two equal singular values, one zero).
    pts1_norm, pts2_norm : (N, 2) K-normalized correspondences used to pick
        the cheirality-consistent candidate among the four factorizations.

    Returns
    -------
    (R, t) with P2 = [R | t] in normalized coordinates and |t| = 1.
    """
    E = np.asarray(E, float)
    u, s, vt = np.linalg.svd(E)
    if s[0] < 1e-14:
        raise Degenerate("essential matrix is zero (pure rotation?)")
    if s[2] > 1e-6 * s[0] or abs(s[0] - s[1]) > 1e-6 * s[0]:
        raise Degenerate("matrix does not satisfy the essential constraints")
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = u[:, 2]
    candidates = [
        (u @ W @ vt, t),
        (u @ W @ vt, -t),
        (u @ W.T @ vt, t),
        (u @ W.T @ vt, -t),
    ]
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    pts1_norm = np.asarray(pts1_norm, float)
    pts2_norm = np.asarray(pts2_norm, float)
    counts = []
    for R, tc in candidates:
        P2 = np.hstack([R, tc.reshape(3, 1)])
        X = _triangulate_pair_linear(P1, P2, pts1_norm, pts2_norm)
        z1 = X[:, 2]
        z2 = (X @ R.T + tc)[:, 2]
        counts.append(int(np.sum((z1 > 0) & (z2 > 0))))
    best = int(np.argmax(counts))
    n = pts1_norm.shape[0]
    if counts[best] * 2 <= n:
        raise NoCheiralSolution(
            f"best candidate places only {counts[best]}/{n} points in front"
        )
    R, t = candidates[best]
    return R, t / np.linalg.norm(t)


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------


def triangulate(
    cameras,
    pixels,
    centers,
    distortion=None,
    condition_limit: float = 1e4,
    max_iterations: int = 10,
    tol: float = 1e-8,
):
    """Multi-view intersection of n points, each seen by m views, by the
    iterated linear least-squares method.

    Each round solves every point's inhomogeneous DLT system with rows
    reweighted by the previous projective depths; a point is frozen once its
    weights settle.

    Parameters
    ----------
    cameras : (n, m, 3, 4) camera matrices.
    pixels : (n, m, 2) observed positions.
    centers : (n, m, 3) camera centres, non-finite for a camera whose centre
        is at infinity.
    distortion : optional pair of (n, m, 3, 3) calibrations and (n, m)
        radial coefficients; a view with a nonzero coefficient has its error
        measured through the distortion, as ``project`` does.  The
        intersection itself uses the camera matrices only.
    condition_limit : gate on the condition number of the final system.

    Returns
    -------
    (points (n, 3), errors (n, m) pixel reprojection errors, ok (n,)).  A
    point is not ok when its camera centres coincide (zero baseline) or one
    is not finite, when its final system's condition number exceeds the
    limit, or when it lies on the principal plane of one of its views; its
    position and errors are then meaningless.
    """
    P = np.asarray(cameras, float)
    x = np.asarray(pixels, float)
    centers = np.asarray(centers, float)
    n, m = x.shape[:2]
    if m < 2:
        raise ValueError("triangulation needs >= 2 views")
    spread = np.max(np.linalg.norm(centers - centers[:, :1], axis=2), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(centers), axis=(1, 2)))
    ok = np.all(np.isfinite(centers), axis=(1, 2)) & ~(spread < 1e-12 * scale)

    A = np.empty((n, m, 2, 3))
    b = np.empty((n, m, 2))
    A[:, :, 0] = x[..., 0, None] * P[:, :, 2, :3] - P[:, :, 0, :3]
    A[:, :, 1] = x[..., 1, None] * P[:, :, 2, :3] - P[:, :, 1, :3]
    b[:, :, 0] = P[:, :, 0, 3] - x[..., 0] * P[:, :, 2, 3]
    b[:, :, 1] = P[:, :, 1, 3] - x[..., 1] * P[:, :, 2, 3]
    A = A.reshape(n, 2 * m, 3)
    b = b.reshape(n, 2 * m)

    X = np.full((n, 3), np.nan)
    condition = np.full(n, np.inf)
    weights = np.ones((n, m))
    active = np.flatnonzero(ok)
    for _ in range(max_iterations):
        if active.size == 0:
            break
        w = np.repeat(weights[active], 2, axis=1)
        u, s, vt = np.linalg.svd(A[active] / w[..., None], full_matrices=False)
        # least squares by the pseudo-inverse, with lstsq's default cutoff
        kept = s > np.finfo(float).eps * 2 * m * s[:, :1]
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
        coef = s_inv * np.einsum("kri,kr->ki", u, b[active] / w)
        X[active] = np.einsum("kij,ki->kj", vt, coef)
        condition[active] = np.divide(
            s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] > 0
        )
        depths = np.einsum("kvj,kj->kv", P[active, :, 2, :3], X[active])
        depths += P[active, :, 2, 3]
        new_weights = np.where(np.abs(depths) < 1e-12, 1e-12, depths)
        settled = np.max(np.abs(new_weights - weights[active]), axis=1) < tol
        weights[active] = new_weights
        active = active[~settled]
    ok &= condition <= condition_limit

    xh = np.einsum("nvij,nj->nvi", P[..., :3], X) + P[..., 3]
    depth = xh[..., 2]
    ok &= np.all(np.abs(depth) >= 1e-12, axis=1)
    depth = np.where(np.abs(depth) < 1e-12, 1.0, depth)
    proj = xh[..., :2] / depth[..., None]
    if distortion is not None:
        K, k1 = (np.asarray(a, float) for a in distortion)
        # back to normalized coordinates through the upper-triangular K
        yn = (proj[..., 1] - K[..., 1, 2]) / K[..., 1, 1]
        xn = (proj[..., 0] - K[..., 0, 2] - K[..., 0, 1] * yn) / K[..., 0, 0]
        xd = apply_radial(np.stack([xn, yn], axis=-1), k1[..., None])
        distorted = np.einsum("nvij,nvj->nvi", K[..., :2, :2], xd) + K[..., :2, 2]
        proj = np.where((k1 != 0.0)[..., None], distorted, proj)
    return X, np.linalg.norm(proj - x, axis=2), ok


# ---------------------------------------------------------------------------
# Resection
# ---------------------------------------------------------------------------


def _procrustes_rotation(source_c, target_c):
    """Rotation R maximizing alignment of centered source to centered target."""
    B = target_c.T @ source_c
    u, _, vt = np.linalg.svd(B)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _ppnp(rays, points3d, max_iterations=200, tol=1e-9):
    """Procrustean PnP: alternate depth and pose updates until the camera
    frame points settle.  ``rays`` are K-normalized homogeneous directions.

    The alternation converges linearly, so it is run for a bounded number of
    rounds and the caller polishes the pose; divergence is declared only when
    the fit error fails to improve on its starting value.
    """
    n = rays.shape[0]
    ray_sq = np.einsum("ij,ij->i", rays, rays)
    s_mean = points3d.mean(axis=0)
    centered = points3d - s_mean
    for z0 in (1.0, -1.0):
        z = np.full(n, z0)
        prev_err = np.inf
        first_err = None
        R, t = np.eye(3), np.zeros(3)
        for _ in range(max_iterations):
            target = z[:, None] * rays
            t_mean = target.mean(axis=0)
            R = _procrustes_rotation(centered, target - t_mean)
            t = t_mean - R @ s_mean
            cam_pts = points3d @ R.T + t
            z = np.einsum("ij,ij->i", rays, cam_pts) / ray_sq
            err = float(np.linalg.norm(z[:, None] * rays - cam_pts))
            if first_err is None:
                first_err = err
            if abs(prev_err - err) < tol * max(1.0, err):
                break
            prev_err = err
        err = float(np.linalg.norm(z[:, None] * rays - (points3d @ R.T + t)))
        if not np.isfinite(err) or (first_err > 1e-12 and err > first_err):
            raise PoseDivergence("pose iteration did not improve the fit")
        if np.sum(z > 0) * 2 > n:
            return R, t
        # converged to the mirrored solution: restart with flipped depths
    raise PoseDivergence("pose solver converged behind the camera")


def resect_calibrated(points3d, points2d, intrinsics: Intrinsics):
    """External orientation from 3D-2D correspondences with known intrinsics.

    Procrustean alternation provides the initial pose, polished by
    Levenberg-Marquardt on the pixel reprojection error (``_polish_pose``).

    Returns
    -------
    (R, C) : world-to-camera rotation and camera centre.
    """
    points3d = np.asarray(points3d, float)
    points2d = np.asarray(points2d, float)
    if points3d.shape[0] < 3:
        raise ValueError("resection needs >= 3 points")
    sv, _ = _right_svd(points3d - points3d.mean(axis=0))
    if sv[1] < 1e-9 * max(sv[0], 1e-300):
        raise DegenerateConfiguration("3D points are collinear")
    K = intrinsics.K
    rays = hom(points2d) @ np.linalg.inv(K).T
    R, t = _polish_pose(points3d, points2d, K, *_ppnp(rays, points3d))
    return R, -R.T @ t


def _pose_residual(points3d, points2d, K, R, t, jacobian=False):
    """Pixel residuals (2N,) of the pose (R, t); with ``jacobian``, also their
    (2N, 6) derivative in (omega, dt) for the update R <- R(omega) R,
    t <- t + dt, taken at zero."""
    rx = points3d @ R.T
    cam = rx + t
    w = np.where(np.abs(cam[:, 2]) < 1e-12, 1e-12, cam[:, 2])
    xy = cam[:, :2] / w[:, None]
    r = (xy @ K[:2, :2].T + K[:2, 2] - points2d).ravel()
    if not jacobian:
        return r
    inv_w = 1.0 / w
    d_xy = np.zeros((len(w), 2, 3))  # d(x/z, y/z) / d cam
    d_xy[:, 0, 0] = d_xy[:, 1, 1] = inv_w
    d_xy[:, :, 2] = -xy * inv_w[:, None]
    d_cam = K[:2, :2] @ d_xy  # d uv / d cam
    # d cam / d omega = -[R X]x, so a row a of d_cam gives a^T (-[R X]x) = (R X x a)^T
    d_rot = np.cross(rx[:, None, :], d_cam)
    return r, np.concatenate([d_rot, d_cam], axis=2).reshape(-1, 6)


def _polish_pose(points3d, points2d, K, R, t, max_iterations=100, tol=1e-8):
    """Levenberg-Marquardt (``lm.minimize``) on the pixel reprojection error
    of a pose, with the analytic Jacobian of ``_pose_residual``.

    Only cost-lowering steps are taken, so the pose returned is never worse
    than the one given.
    """
    pose = (R, t)

    def linearize():
        r, J = _pose_residual(points3d, points2d, K, *pose, jacobian=True)
        return lm.dense_system(J, r)

    def cost(step):
        r = _pose_residual(points3d, points2d, K, *moved(step))
        return float(r @ r)

    def moved(step):
        return rotation_from_rotvec(step[:3]) @ pose[0], pose[1] + step[3:]

    def accept(step, cost_new):
        nonlocal pose
        pose = moved(step)
        return cost_new

    lm.minimize(cost(np.zeros(6)), linearize, lm.damped_solve, cost, accept, tol, max_iterations)
    return pose


def resect_projective_dlt(points3d, points2d) -> np.ndarray:
    """Full camera matrix by DLT from >= 6 3D-2D correspondences."""
    points3d = np.asarray(points3d, float)
    points2d = np.asarray(points2d, float)
    n = points3d.shape[0]
    if n < 6:
        raise ValueError("projective resection needs >= 6 points")
    T3, p3 = normalize_points(points3d)
    T2, p2 = normalize_points(points2d)
    X = hom(p3)
    A = np.zeros((2 * n, 12))
    A[0::2, 0:4] = X
    A[0::2, 8:12] = -p2[:, 0, None] * X
    A[1::2, 4:8] = X
    A[1::2, 8:12] = -p2[:, 1, None] * X
    s, vt = _right_svd(A)
    if s[10] < 1e-9 * s[0]:
        raise DegenerateConfiguration("resection design matrix nullspace dim > 1")
    Pn = vt[-1].reshape(3, 4)
    P = np.linalg.inv(T2) @ Pn @ T3
    if np.linalg.matrix_rank(P) < 3:
        raise DegenerateConfiguration("estimated camera is rank deficient")
    return P / np.linalg.norm(P)


# ---------------------------------------------------------------------------
# Alignment of point sets
# ---------------------------------------------------------------------------


def absolute_orientation_similarity(points_a, points_b):
    """Least-squares similarity (s, R, t) with s R a + t ~ b (>= 3 points).

    The reflection case is resolved internally by the determinant correction
    of the Procrustes rotation; the returned scale is always positive.
    """
    A = np.asarray(points_a, float)
    B = np.asarray(points_b, float)
    if A.shape[0] < 3:
        raise ValueError("similarity needs >= 3 correspondences")
    a_mean = A.mean(axis=0)
    b_mean = B.mean(axis=0)
    Ac = A - a_mean
    Bc = B - b_mean
    sv, _ = _right_svd(Ac)
    if sv[1] < 1e-9 * max(sv[0], 1e-300):
        raise DegenerateConfiguration("source points are collinear")
    cov = Bc.T @ Ac / A.shape[0]
    u, s, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    D = np.diag([1.0, 1.0, d])
    R = u @ D @ vt
    var_a = np.mean(np.sum(Ac * Ac, axis=1))
    scale = np.trace(np.diag(s) @ D) / var_a
    if scale <= 0:
        raise DegenerateConfiguration("non-positive similarity scale")
    t = b_mean - scale * R @ a_mean
    return scale, R, t


def apply_similarity(points, scale, R, t) -> np.ndarray:
    return scale * (np.asarray(points, float) @ np.asarray(R, float).T) + np.asarray(
        t, float
    )


def projectivity_dlt_3d(points_a, points_b) -> np.ndarray:
    """4x4 collineation H with H a ~ b (>= 5 correspondences), |H|_F = 1."""
    A = np.asarray(points_a, float)
    B = np.asarray(points_b, float)
    n = A.shape[0]
    if n < 5:
        raise ValueError("3D projectivity needs >= 5 correspondences")
    Ta, an = normalize_points(A)
    Tb, bn = normalize_points(B)
    X = hom(an)
    Y = hom(bn)
    rows = np.zeros((3 * n, 16))
    for i in range(3):
        # Y[3] * (H X)_i - Y[i] * (H X)_3 = 0
        rows[i::3, 4 * i : 4 * i + 4] = Y[:, 3, None] * X
        rows[i::3, 12:16] = -Y[:, i, None] * X
    s, vt = _right_svd(rows)
    if s[14] < 1e-9 * s[0]:
        raise DegenerateConfiguration("3D projectivity nullspace dim > 1")
    Hn = vt[-1].reshape(4, 4)
    H = np.linalg.inv(Tb) @ Hn @ Ta
    H = H / np.linalg.norm(H)
    flat = np.argmax(np.abs(H))
    return H * np.sign(H.ravel()[flat])


def apply_homography_points(H, points) -> np.ndarray:
    """Map (N, 3) points by a 4x4 collineation and dehomogenize."""
    Xh = hom(points) @ np.asarray(H, float).T
    w = np.where(np.abs(Xh[:, 3]) < 1e-14, 1e-14, Xh[:, 3])
    return Xh[:, :3] / w[:, None]


def similarity_from_matrix(T):
    """Split a 4x4 similarity [sR | t; 0 1] into (s, R, t)."""
    T = np.asarray(T, float)
    M = T[:3, :3] / T[3, 3]
    s = np.linalg.det(M) ** (1.0 / 3.0)
    return s, M / s, T[:3, 3] / T[3, 3]


# ---------------------------------------------------------------------------
# Cheirality
# ---------------------------------------------------------------------------


def point_depths(camera: Camera, points) -> np.ndarray:
    """Signed projective depth of points w.r.t. a camera (positive = front)."""
    P = camera.P
    M = P[:, :3]
    x = hom(np.atleast_2d(points)) @ P.T
    return np.sign(np.linalg.det(M)) * x[:, 2] / np.linalg.norm(M[2])


def reflect_model(model: Model) -> Model:
    """Flip every point to the other side of every camera.

    Points are negated; cameras get their last column negated, which for a
    Euclidean camera moves the centre to -C with the same rotation.  All
    projections are unchanged while every signed depth flips.
    """
    out = model.copy()
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    for img, cam in out.cameras.items():
        P = cam.P @ flip
        if cam.kind == EUCLIDEAN:
            out.cameras[img] = Camera.euclidean(
                cam.intrinsics, cam.R, -cam.C, radial=cam.radial
            )
        else:
            out.cameras[img] = Camera(P=P / np.linalg.norm(P), kind=PROJECTIVE)
    for tp in out.tie_points:
        if tp.position is not None:
            tp.position = -tp.position
    return out


@dataclass
class CheiralityInfo:
    flipped: bool
    tied: bool
    front_fraction: float


def cheirality_enforce(model: Model):
    """Reflect the model when most tie-points sit behind their cameras.

    A tie-point counts as "in front" when the majority of its observing
    cameras report positive depth.  An exact 50/50 split leaves the model
    unchanged and is flagged in the returned info.
    """
    tps = model.triangulated()
    if not tps:
        return model, CheiralityInfo(flipped=False, tied=False, front_fraction=1.0)
    point, image, _ = observations(tps, model.cameras)
    X = np.array([tp.position for tp in tps])[point]
    votes = np.zeros(len(point))
    for img, cam in model.cameras.items():
        rows = image == img
        votes[rows] = np.where(point_depths(cam, X[rows]) > 0, 1.0, -1.0)
    front = int(np.sum(np.bincount(point, votes, minlength=len(tps)) >= 0))
    behind = len(tps) - front
    total = front + behind
    if behind > front:
        return reflect_model(model), CheiralityInfo(
            flipped=True, tied=False, front_fraction=behind / total
        )
    return model, CheiralityInfo(
        flipped=False, tied=(behind == front), front_fraction=front / total
    )


# ---------------------------------------------------------------------------
# Model transforms
# ---------------------------------------------------------------------------


def transform_model_similarity(model: Model, scale, R, t) -> Model:
    """Map a model by X -> s R X + t (cameras follow, projections preserved)."""
    out = model.copy()
    R = np.asarray(R, float)
    t = np.asarray(t, float).reshape(3)
    for img, cam in out.cameras.items():
        if cam.kind == EUCLIDEAN:
            out.cameras[img] = Camera.euclidean(
                cam.intrinsics,
                cam.R @ R.T,
                scale * (R @ cam.C) + t,
                radial=cam.radial,
            )
        else:
            T = np.eye(4)
            T[:3, :3] = scale * R
            T[:3, 3] = t
            P = cam.P @ np.linalg.inv(T)
            out.cameras[img] = Camera(P=P / np.linalg.norm(P), kind=PROJECTIVE)
    for tp in out.tie_points:
        if tp.position is not None:
            tp.position = scale * (R @ tp.position) + t
    return out


def transform_model_projective(model: Model, H) -> Model:
    """Map a model by the 4x4 collineation H; cameras become projective."""
    H = np.asarray(H, float)
    Hinv = np.linalg.inv(H)
    out = model.copy()
    for img, cam in out.cameras.items():
        P = cam.P @ Hinv
        out.cameras[img] = Camera(P=P / np.linalg.norm(P), kind=PROJECTIVE)
    for tp in out.tie_points:
        if tp.position is not None:
            tp.position = apply_homography_points(H, tp.position[None, :])[0]
    out.frame = PROJECTIVE
    return out
