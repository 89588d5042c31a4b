"""Robust estimation machinery: MSAC with bucketed sampling, robust scale,
the X84 rejection rule, and GRIC model selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo


class RobustError(Exception):
    pass


class InsufficientData(RobustError):
    pass


class NoConsensus(RobustError):
    pass


class AllInSample(RobustError):
    pass


@dataclass
class MsacConfig:
    inlier_threshold: float        # pixels
    bucket_size: float = 80.0      # pixels; image diagonal / 25 upstream
    max_iterations: int = 1000
    rng_seed: int = 0
    confidence: float = 0.99
    theta: float = 2.5             # inlier gate in units of the robust scale

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.bucket_size <= 0:
            raise ValueError("bucket_size must be positive")


@dataclass
class RobustFitResult:
    model_params: object
    inlier_mask: np.ndarray
    score: float
    sigma_star: float
    best_sample: np.ndarray
    iterations: int = 0
    score_history: list = field(default_factory=list)


def robust_scale(residuals, best_sample) -> float:
    """Scale estimate from the out-of-sample residuals.

    sigma* = 1.4826 (1 + 5/(N - |S*|)) sqrt(med_{i not in S*} e_i^2)
    """
    residuals = np.asarray(residuals, float)
    n = residuals.size
    sample = np.asarray(best_sample, int)
    if sample.size >= n:
        raise AllInSample("every datum belongs to the best sample")
    mask = np.ones(n, bool)
    mask[sample] = False
    med = np.median(residuals[mask] ** 2)
    return 1.4826 * (1.0 + 5.0 / (n - sample.size)) * np.sqrt(med)


def x84_inliers(residuals) -> np.ndarray:
    """Median-absolute-deviation inlier rule with the 5.2 constant.

    When the MAD collapses to zero the mask keeps exactly the residuals
    equal to the median.
    """
    residuals = np.asarray(residuals, float)
    if residuals.size < 1:
        raise ValueError("need at least one residual")
    med = np.median(residuals)
    dev = np.abs(residuals - med)
    mad = np.median(dev)
    if mad == 0.0:
        return residuals == med
    return dev < 5.2 * mad


@dataclass
class GricParams:
    k: int       # model parameter count
    d: int       # fitted manifold dimension
    r: int       # measurement dimension
    sigma: float  # measurement noise, pixels

    def __post_init__(self):
        if not (self.r > self.d >= 1):
            raise ValueError("need r > d >= 1")
        if self.k < 1 or self.sigma <= 0:
            raise ValueError("k >= 1 and sigma > 0 required")


FUNDAMENTAL_GRIC = dict(k=7, d=3, r=4)
HOMOGRAPHY_GRIC = dict(k=8, d=2, r=4)


def gric(residuals, params: GricParams, n: int) -> float:
    """Geometric robust information criterion of a fitted two-view model."""
    residuals = np.asarray(residuals, float)
    if residuals.size != n:
        raise ValueError("n must equal the residual count")
    rho = np.minimum(
        residuals**2 / params.sigma**2, 2.0 * (params.r - params.d)
    )
    return float(
        rho.sum()
        + n * params.d * np.log(params.r)
        + params.k * np.log(params.r * n)
    )


HOMOGRAPHY = "homography"
FUNDAMENTAL = "fundamental"


def select_model(gric_h: float, gric_f: float, ratio: float = 1.2) -> str:
    """Pick the two-view model class; stereo pairs require clear support for
    the fundamental matrix, so it wins only when gric_h > ratio * gric_f."""
    if not (np.isfinite(gric_h) and np.isfinite(gric_f)):
        raise ValueError("GRIC scores must be finite")
    return FUNDAMENTAL if gric_h > ratio * gric_f else HOMOGRAPHY


# ---------------------------------------------------------------------------
# MSAC
# ---------------------------------------------------------------------------


def _bucket_indices(positions, bucket_size):
    positions = np.asarray(positions, float)
    cells = np.floor((positions - positions.min(axis=0)) / bucket_size).astype(int)
    buckets = {}
    for i, cell in enumerate(map(tuple, cells)):
        buckets.setdefault(cell, []).append(i)
    return [np.array(v, int) for _, v in sorted(buckets.items())]


def _draw_sample(rng, n, sample_size, buckets):
    """Spatially separated sample: distinct buckets first, one point each."""
    if buckets is not None and len(buckets) >= sample_size:
        chosen = rng.choice(len(buckets), size=sample_size, replace=False)
        return np.array([rng.choice(buckets[b]) for b in chosen])
    return rng.choice(n, size=sample_size, replace=False)


def _required_iterations(inlier_ratio, sample_size, confidence):
    w = min(max(inlier_ratio, 1e-9), 1.0 - 1e-12)
    p_good = w**sample_size
    if p_good >= 1.0 - 1e-12:
        return 1
    return int(np.ceil(np.log(1.0 - confidence) / np.log(1.0 - p_good)))


def msac(
    data,
    minimal_solver,
    residual_fn,
    config: MsacConfig,
    sample_size: int,
    full_solver=None,
    positions=None,
) -> RobustFitResult:
    """M-estimator sample consensus with bucketed sampling.

    Hypotheses are scored by sum(min(e_i^2, T^2)); the iteration budget
    shrinks adaptively with the best inlier ratio at the configured
    confidence.  After the loop, the inlier set is refined with the robust
    scale rule and the model re-estimated by least squares on it.

    Parameters
    ----------
    data : opaque dataset handed to the solvers.
    minimal_solver : callable(data, indices) -> model or list of models;
        may raise or return None on a degenerate sample.
    residual_fn : callable(data, model) -> (N,) residuals in pixels.
    full_solver : callable(data, indices) -> model; least-squares refit on
        the refined inliers (defaults to the minimal solver).
    positions : (N, 2) keypoint positions used for bucketing, optional.
    """
    n = len(data) if not hasattr(data, "shape") else data.shape[0]
    if n < sample_size:
        raise InsufficientData(f"{n} data for sample size {sample_size}")
    rng = np.random.default_rng(config.rng_seed)
    buckets = (
        _bucket_indices(positions, config.bucket_size) if positions is not None else None
    )
    T = config.inlier_threshold
    best_score = np.inf
    best_model = None
    best_sample = None
    best_inliers = 0
    history = []
    required = config.max_iterations
    it = 0
    while it < min(required, config.max_iterations):
        it += 1
        sample = _draw_sample(rng, n, sample_size, buckets)
        try:
            models = minimal_solver(data, sample)
        except (geo.GeometryError, np.linalg.LinAlgError):
            continue
        if models is None:
            continue
        if not isinstance(models, (list, tuple)):
            models = [models]
        for model in models:
            e = np.asarray(residual_fn(data, model), float)
            score = float(np.sum(np.minimum(e**2, T**2)))
            if score < best_score:
                best_score = score
                best_model = model
                best_sample = sample
                best_inliers = int(np.sum(np.abs(e) < T))
                history.append(score)
                required = _required_iterations(
                    max(best_inliers, sample_size) / n, sample_size, config.confidence
                )
    if best_model is None:
        raise NoConsensus("no hypothesis could be evaluated")

    # refined inliers via the robust scale of the best hypothesis
    e = np.asarray(residual_fn(data, best_model), float)
    if best_sample.size < n:
        sigma_star = robust_scale(e, best_sample)
    else:
        sigma_star = 0.0
    gate = max(config.theta * sigma_star, 1e-12)
    mask = np.abs(e) < gate
    if mask.sum() < sample_size:
        raise NoConsensus(
            f"refined inlier set ({int(mask.sum())}) below sample size"
        )
    refit = full_solver if full_solver is not None else minimal_solver
    model = best_model
    try:
        candidate = refit(data, np.flatnonzero(mask))
        if isinstance(candidate, (list, tuple)):
            candidate = candidate[0]
        if candidate is not None:
            e_new = np.asarray(residual_fn(data, candidate), float)
            model = candidate
            mask = np.abs(e_new) < gate
            e = e_new
    except (geo.GeometryError, np.linalg.LinAlgError):
        pass  # keep the hypothesis when the refit degenerates
    if mask.sum() < sample_size:
        raise NoConsensus("refit lost the consensus set")
    final_score = float(np.sum(np.minimum(e**2, T**2)))
    return RobustFitResult(
        model_params=model,
        inlier_mask=mask,
        score=final_score,
        sigma_star=float(sigma_star),
        best_sample=np.sort(best_sample),
        iterations=it,
        score_history=history,
    )
