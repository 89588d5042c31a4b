"""Euclidean upgrade of projective models.

Two-stage autocalibration: a closed form places the plane at infinity given
guessed intrinsics of two reference cameras; a log-spaced grid over their
focal pair is scored by how close the remaining upgraded cameras come to
zero skew, unit aspect and a centred principal point, and the best cell is
polished by nonlinear least squares.  All scoring happens in
viewport-normalized units where plausible focals live in [1/3, 3].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo, lm


class AutocalError(Exception):
    pass


class ZeroEpipole(AutocalError):
    """Second camera has no finite epipole (pure rotation)."""


class SearchFailed(AutocalError):
    pass


class OutsideLegalRange(AutocalError):
    """Refined focal left the normalized search space."""


class NoConvergence(AutocalError):
    pass


@dataclass
class CostWeights:
    skew: float = 100.0
    aspect: float = 10.0
    u0: float = 1.0
    v0: float = 1.0

    def __post_init__(self):
        if max(self.skew, self.aspect, self.u0, self.v0) <= 0:
            raise ValueError("at least one weight must be positive")


@dataclass
class AutocalConfig:
    weights: CostWeights = field(default_factory=CostWeights)
    grid_size: int = 30
    focal_low: float = 1.0 / 3.0
    focal_high: float = 3.0
    refine_max_iterations: int = 50


@dataclass
class UpgradeCollineation:
    K1: np.ndarray
    r: np.ndarray
    lam: float = 1.0

    @property
    def H(self) -> np.ndarray:
        H = np.zeros((4, 4))
        H[:3, :3] = self.K1
        H[3, :3] = self.r
        H[3, 3] = self.lam
        return H


def viewport(w: float, h: float) -> np.ndarray:
    """Normalizing viewport of a w x h image; maps the expected principal
    point to the origin and plausible focals into [1/3, 3]."""
    if w <= 0 or h <= 0:
        raise ValueError("image size must be positive")
    d = np.hypot(w, h)
    return 0.5 * np.array([[d, 0.0, w], [0.0, d, h], [0.0, 0.0, 2.0]])


def cost(K, weights: CostWeights) -> float:
    """Implausibility of a normalized calibration matrix (k33 = 1):
    weighted absolute skew, aspect deviation and principal point offset."""
    K = np.asarray(K, float)
    return float(
        weights.skew * abs(K[0, 1])
        + weights.aspect * abs(K[0, 0] - K[1, 1])
        + weights.u0 * abs(K[0, 2])
        + weights.v0 * abs(K[1, 2])
    )


def counting_feasible(k: int, p_known: int, p_constant: int) -> bool:
    """Whether k cameras give enough constraints for autocalibration with
    p_known internals known and p_constant internals constant."""
    if not 0 <= p_known + p_constant <= 5:
        raise ValueError("known plus constant internals must lie in [0, 5]")
    return 5 * k - 8 >= (k - 1) * (5 - p_known - p_constant) + (5 - p_known)


def plane_at_infinity(P2, K1, K2) -> np.ndarray:
    """Closed-form plane-at-infinity parameter r for a canonical pair.

    With P1 = [I | 0] implied and P2 = [A2 | e2], upgrading by
    H = [[K1, 0], [r', 1]] makes the second camera Euclidean for the guessed
    intrinsics.  Writing t2 = K2^-1 e2, R* the rotation taking t2 to the x
    axis and W = R* K2^-1 A2 K1 with rows w_i:

        r = (w2 x w3 / |w3| - w1) / |t2|

    The derivation assumes a positive overall scale of P2, while camera
    matrices carry an arbitrary sign; the wrong sign would deliver the
    twisted mate of the solution, so P2 is first sign-normalized to make
    det(A2) positive (the proper-rotation condition on W).
    """
    P2 = np.asarray(P2, float)
    if np.linalg.norm(P2[:, 3]) < 1e-12 * max(1.0, np.linalg.norm(P2[:, :3])):
        raise ZeroEpipole("second camera epipole vanishes")
    if np.linalg.det(P2[:, :3]) < 0:
        P2 = -P2
    K1 = np.asarray(K1, float)
    K2 = np.asarray(K2, float)
    K2inv = np.linalg.inv(K2)
    A2 = P2[:, :3]
    e2 = P2[:, 3]
    t2 = K2inv @ e2
    Rstar = _rotation_to_x_axis(t2)
    W = Rstar @ K2inv @ A2 @ K1
    w1, w2, w3 = W
    return (np.cross(w2, w3) / np.linalg.norm(w3) - w1) / np.linalg.norm(t2)


def _rotation_to_x_axis(t) -> np.ndarray:
    """The rotation R with R t = [|t|, 0, 0]; any valid choice yields the
    same plane-at-infinity parameter."""
    t = np.asarray(t, float)
    u = t / np.linalg.norm(t)
    x = np.array([1.0, 0.0, 0.0])
    w = np.cross(u, x)
    s = np.linalg.norm(w)
    c = float(u @ x)
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        return np.diag([-1.0, -1.0, 1.0])  # half turn about z
    Wx = geo.cross_matrix(w)
    return np.eye(3) + Wx + Wx @ Wx * (1.0 - c) / (s * s)


def normalized_model_cameras(model: geo.Model, image_sizes):
    """Viewport-normalize every camera and send the first one to [I | 0].

    Returns (ids, canonical (n,3,4) stack, per-camera viewports, the 4x4
    canonicalizing collineation G applied on the right of every camera).
    """
    ids = sorted(model.cameras)
    Vs = {}
    P_norm = []
    for img in ids:
        w, h = image_sizes[img]
        V = viewport(w, h)
        Vs[img] = V
        P = np.linalg.inv(V) @ model.cameras[img].P
        P = P / np.linalg.norm(P[2, :3])
        P_norm.append(P)
    P1 = P_norm[0]
    _, _, vt = np.linalg.svd(P1)
    center = vt[-1]
    G = np.linalg.inv(np.vstack([P1, center]))
    # P1 [P1; c]^-1 = [I | 0] exactly
    canon = np.array([P @ G for P in P_norm])
    return ids, canon, Vs, G


def _upgraded_intrinsics(canon, H):
    """Normalized K of every camera after applying the 4x4 upgrade H."""
    PE = canon @ H
    M = PE[:, :, :3]
    K, _ = geo.rq3(M)
    return K / K[:, 2:3, 2:3]


def _profile_cost(canon, f1, f2, weights) -> tuple:
    K1 = np.diag([f1, f1, 1.0])
    K2 = np.diag([f2, f2, 1.0])
    try:
        r = plane_at_infinity(canon[1], K1, K2)
    except ZeroEpipole:
        return np.inf, None
    H = UpgradeCollineation(K1=K1, r=r).H
    if abs(np.linalg.det(H)) < 1e-12:
        return np.inf, None
    Ks = _upgraded_intrinsics(canon[1:], H)
    total = 0.0
    for K in Ks:
        total += cost(K, weights) ** 2
    return total, r


def grid_search(canon, weights: CostWeights, config: AutocalConfig):
    """Exhaustive focal-pair scoring over a log-spaced grid.

    ``canon`` is the viewport-normalized camera stack with canon[0] = [I|0].
    Returns (f1, f2, r, profile) where profile is the (g, g) cost table.
    """
    if len(canon) < 2:
        raise ValueError("need at least two cameras")
    if np.linalg.norm(canon[1][:, 3]) < 1e-12 * np.linalg.norm(canon[1][:, :3]):
        raise ZeroEpipole("reference pair has no baseline")
    g = config.grid_size
    focals = np.exp(
        np.linspace(np.log(config.focal_low), np.log(config.focal_high), g)
    )
    profile = np.full((g, g), np.inf)
    best = (np.inf, None, None, None)
    for i, f1 in enumerate(focals):
        for j, f2 in enumerate(focals):
            total, r = _profile_cost(canon, f1, f2, weights)
            profile[i, j] = total
            if total < best[0]:
                best = (total, f1, f2, r)
    if best[1] is None:
        raise SearchFailed("every focal sample produced a degenerate upgrade")
    _, f1, f2, r = best
    return f1, f2, r, profile


def plausibility_terms(K, weights: CostWeights) -> np.ndarray:
    """Signed skew / aspect / principal-point terms of one normalized K.

    Their squared sum has the same zero set as ``cost`` squared but is
    smooth, which is what the nonlinear refinement needs.
    """
    K = np.asarray(K, float)
    return np.array(
        [
            weights.skew * K[0, 1],
            weights.aspect * (K[0, 0] - K[1, 1]),
            weights.u0 * K[0, 2],
            weights.v0 * K[1, 2],
        ]
    )


def refine(f1, f2, canon, weights: CostWeights, config: AutocalConfig):
    """Polish (f1, f2, principal points) by nonlinear least squares on the
    signed plausibility terms of all upgraded cameras.

    The plane at infinity is re-derived from the current intrinsics guess at
    every evaluation.  ``lm.minimize`` at relative tolerance 1e-8, on forward
    differences; raises ``NoConvergence`` after ``refine_max_iterations``
    iterations, and fails when the refined focals leave the legal range.
    """
    m = 4 * (len(canon) - 1)

    def residual(params):
        if min(params[:2]) < 0.02 or max(params[:2]) > 20.0:
            return np.full(m, 1e6)  # keep clear of singular calibrations
        try:
            H = _collineation(canon, params).H
        except ZeroEpipole:
            return np.full(m, 1e6)
        Ks = _upgraded_intrinsics(canon[1:], H)
        return np.concatenate([plausibility_terms(K, weights) for K in Ks])

    x = np.array([f1, f2, 0.0, 0.0, 0.0, 0.0])
    res = trial_res = residual(x)

    def linearize():
        # forward differences with the default step of scipy's least_squares
        sign = np.where(x >= 0, 1.0, -1.0)
        probes = x + np.diag(np.sqrt(np.finfo(float).eps) * sign * np.maximum(1.0, np.abs(x)))
        J = np.column_stack([residual(p) - res for p in probes]) / (probes.diagonal() - x)
        return lm.dense_system(J, res)

    def trial(step):
        nonlocal trial_res
        trial_res = residual(x + step)
        return float(trial_res @ trial_res)

    def accept(step, cost):
        nonlocal x, res
        x, res = x + step, trial_res
        return cost

    report = lm.minimize(
        float(res @ res), linearize, lm.damped_solve, trial, accept,
        tol=1e-8, max_iterations=config.refine_max_iterations,
    )
    if report.termination == "not_converged":
        raise NoConvergence("focal refinement hit the iteration budget")
    lo, hi = config.focal_low, config.focal_high
    if not (lo <= x[0] <= hi and lo <= x[1] <= hi):
        raise OutsideLegalRange(
            f"refined focals ({x[0]:.3f}, {x[1]:.3f}) outside [{lo:.3f}, {hi:.3f}]"
        )
    return _collineation(canon, x), (x[0], x[1])


def _collineation(canon, params) -> UpgradeCollineation:
    """The upgrade for reference intrinsics (g1, g2, u1, v1, u2, v2)."""
    g1, g2, u1, v1, u2, v2 = params
    K1 = np.array([[g1, 0.0, u1], [0.0, g1, v1], [0.0, 0.0, 1.0]])
    K2 = np.array([[g2, 0.0, u2], [0.0, g2, v2], [0.0, 0.0, 1.0]])
    return UpgradeCollineation(K1=K1, r=plane_at_infinity(canon[1], K1, K2))


def upgrade(model: geo.Model, image_sizes, config: AutocalConfig = None) -> geo.Model:
    """Full Euclidean upgrade of a projective model.

    Normalize by viewports, canonicalize the first camera, grid-search the
    reference focal pair, refine, apply the collineation, de-normalize, and
    enforce cheirality.  Cameras in the returned model are Euclidean
    (decomposed); the caller decides whether the frame is trusted.
    """
    if model.frame != geo.PROJECTIVE:
        raise ValueError("upgrade expects a projective model")
    if len(model.cameras) < 2:
        raise ValueError("upgrade needs at least two cameras")
    config = config or AutocalConfig()
    ids, canon, Vs, G = normalized_model_cameras(model, image_sizes)
    f1, f2, r, _ = grid_search(canon, config.weights, config)
    upgrade_h, _ = refine(f1, f2, canon, config.weights, config)
    H = upgrade_h.H

    out = model.copy()
    for k, img in enumerate(ids):
        PE = Vs[img] @ canon[k] @ H
        out.cameras[img] = geo.camera_from_projection(PE)
    # points follow by the inverse of the same total collineation
    T = np.linalg.inv(G @ H)
    for tp in out.tie_points:
        if tp.position is not None:
            # original camera P satisfies x = P X; new camera is
            # V (V^-1 P s) G H, so points map by (G H)^-1 up to the
            # per-camera scales which cancel in projection
            tp.position = geo.apply_homography_points(T, tp.position[None, :])[0]
    out.frame = geo.EUCLIDEAN
    out, _ = geo.cheirality_enforce(out)
    return out
