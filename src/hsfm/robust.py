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


CONFIDENCE = 0.99  # that one all-inlier sample was drawn, for the adaptive stop
THETA = 2.5        # refined inlier gate in units of the robust scale


@dataclass
class MsacConfig:
    inlier_threshold: float        # pixels
    bucket_size: float = 80.0      # pixels; image diagonal / 25 upstream
    max_iterations: int = 1000
    rng_seed: int = 0

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
    degenerate: int = 0  # walked samples whose minimal solve gave no model
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
    """The point indices of each occupied grid cell, cells in lexicographic
    order, indices ascending within a cell."""
    positions = np.asarray(positions, float)
    cells = np.floor((positions - positions.min(axis=0)) / bucket_size).astype(int)
    order = np.lexsort(cells.T[::-1])  # stable, so indices stay ascending
    cells = cells[order]
    return np.split(order, np.flatnonzero((cells[1:] != cells[:-1]).any(axis=1)) + 1)


def _draw_sample(rng, n, sample_size, buckets):
    """Spatially separated sample: distinct buckets first, one point each."""
    if buckets is not None and len(buckets) >= sample_size:
        chosen = rng.choice(len(buckets), size=sample_size, replace=False)
        # indexing by rng.integers draws what rng.choice(bucket) draws, faster
        return np.array([buckets[b][rng.integers(len(buckets[b]))] for b in chosen])
    return rng.choice(n, size=sample_size, replace=False)


class _SampleStream:
    """The samples of successive ``_draw_sample`` calls on
    ``default_rng(seed)``, drawn a chunk at a time.

    ``Generator.choice(pop, s, replace=False)`` is Floyd's method for every
    population these fits see (its tail-shuffle branch needs ``s > pop // 50``
    with ``pop > 10000``): a bounded draw on ``[0, j]`` for ``j = pop - s ...
    pop - 1``, taking ``j`` when the value was already chosen, then a shuffle
    with draws on ``[0, i]`` for ``i = s - 1 ... 1``.  A bucket pick is one
    draw on ``[0, len - 1]``.  A bounded draw on ``[0, r]`` reads no word
    when ``r == 0`` and is otherwise Lemire's method on PCG64's 32-bit words
    (low half, then high half, of each 64-bit output): value ``w (r+1) >>
    32``, the word rejected when ``w (r+1) mod 2^32 < (2^32 - (r+1)) mod
    (r+1)``.  A block of samples evaluates the draw at every word offset of
    its words and walks the chain of offsets; a sample that may meet a
    rejection (about ``(r+1) / 2^32`` per word) is drawn one word at a time
    instead.

    ``draw(k)`` draws exactly ``k`` samples: one by ``_draw_exact``, which
    is cheaper for a single sample than a block, more by one block.
    """

    def __init__(self, seed, n, sample_size, buckets):
        self._bitgen = np.random.PCG64(seed)
        self._words = np.empty(0, np.uint64)
        self._pos = 0
        self.size = sample_size
        self.bucketed = buckets is not None and len(buckets) >= sample_size
        self.pop = len(buckets) if self.bucketed else n
        if self.pop > 10000 and sample_size > self.pop // 50:
            raise ValueError("choice draws this sample by a permutation, not Floyd's method")
        if self.bucketed:
            lens = [len(b) for b in buckets]
            self._lens = np.array(lens, np.uint64)
            self._starts = np.cumsum([0, *lens[:-1]])
            self._members = np.concatenate(buckets).astype(int)
        # the ranges of choice's draws; the first Floyd range is 0 when pop == s
        ranges = [*range(self.pop - sample_size, self.pop), *range(sample_size - 1, 0, -1)]
        self._ranges = np.array([r for r in ranges if r > 0], np.uint64)
        self.rejected = 0  # words Lemire's method rejected

    def _word(self, i):
        if i >= len(self._words):
            raw = self._bitgen.random_raw(max(i + 1 - len(self._words), 64) // 2 + 1)
            halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
            self._words = np.concatenate([self._words, halves])
        return self._words[i]

    def _bounded(self, pos, r):
        """(value on [0, r], next word position), rejection included."""
        if r == 0:
            return 0, pos
        while True:
            m = int(self._word(pos)) * (r + 1)
            pos += 1
            if m & 0xFFFFFFFF >= (2**32 - (r + 1)) % (r + 1):
                return m >> 32, pos
            self.rejected += 1

    def _draw_exact(self, pos):
        """(sample, next word position) at word position ``pos``, one word at
        a time."""
        s, pop = self.size, self.pop
        chosen = []
        for j in range(pop - s, pop):
            v, pos = self._bounded(pos, j)
            chosen.append(j if v in chosen else v)
        for i in range(s - 1, 0, -1):
            j, pos = self._bounded(pos, i)
            chosen[i], chosen[j] = chosen[j], chosen[i]
        if not self.bucketed:
            return chosen, pos
        sample = []
        for b in chosen:
            pick, pos = self._bounded(pos, int(self._lens[b]) - 1)
            sample.append(self._members[self._starts[b] + pick])
        return sample, pos

    def draw(self, k):
        """The next ``k`` samples, (k, sample_size)."""
        if k > 1:
            return self._fill(k)
        self._words = self._words[self._pos:]
        sample, self._pos = self._draw_exact(0)
        return np.array([sample], np.intp)

    def _fill(self, k):
        """The next ``k >= 1`` samples by the vector path."""
        s, pop, ranges = self.size, self.pop, self._ranges
        self._words = self._words[self._pos:]
        self._pos = 0
        f = len(ranges)
        per = f + s  # most words a sample reads without a rejection
        offsets = (k - 1) * per + 1  # where the k samples can start
        self._word(offsets + per)
        w = self._words
        # choice's draws at every offset o: row t reads word o + t
        m = np.lib.stride_tricks.sliding_window_view(w, offsets)[:f] * (ranges[:, None] + 1)
        values = (m >> 32).astype(np.intp)
        nf = s - (pop == s)  # Floyd draws that read a word
        floyd = np.vstack([np.zeros((s - nf, offsets), np.intp), values[:nf]])
        chosen = np.empty((s, offsets), np.intp)
        for t in range(s):
            v = floyd[t]
            chosen[t] = np.where((chosen[:t] == v).any(axis=0), pop - s + t, v)
        cols = np.arange(offsets)
        for i, j in zip(range(s - 1, 0, -1), values[nf:]):
            swapped = chosen[j, cols]
            chosen[j, cols] = chosen[i]
            chosen[i] = swapped
        count = np.full(offsets, f)
        if self.bucketed:
            count += (self._lens[chosen] > 1).sum(axis=0)
        count = count.tolist()
        chain = [0] * k
        for i in range(1, k):
            chain[i] = chain[i - 1] + count[chain[i - 1]]
        end = chain[-1] + count[chain[-1]]
        # the words of the chain's samples, and whether one may be rejected
        rows = chosen[:, chain].T
        rejected = ((m[:, chain] & 0xFFFFFFFF) < ranges[:, None] + 1).any(axis=0)
        samples = rows
        if self.bucketed:
            lens = self._lens[rows]
            multi = lens > 1
            at = np.where(multi, f + np.cumsum(multi, axis=1) - 1, 0)
            mb = w[np.array(chain, np.intp)[:, None] + at] * lens
            rejected |= (multi & ((mb & 0xFFFFFFFF) < lens)).any(axis=1)
            picks = np.where(multi, mb >> 32, 0).astype(np.intp)
            samples = self._members[self._starts[rows] + picks]
        hit = np.flatnonzero(rejected)
        if hit.size == 0:
            self._pos = end
            return samples
        i = hit[0]
        sample, self._pos = self._draw_exact(chain[i])
        rest = [self._fill(k - i - 1)] if k - i - 1 else []
        return np.vstack([samples[:i], [sample], *rest])


def _required_iterations(inlier_ratio, sample_size):
    w = min(max(inlier_ratio, 1e-9), 1.0 - 1e-12)
    p_good = w**sample_size
    if p_good >= 1.0 - 1e-12:
        return 1
    return int(np.ceil(np.log(1.0 - CONFIDENCE) / np.log(1.0 - p_good)))


# most samples a stacked fit scores and walks at once; past 64 the (chunk, N)
# residual temporaries raise match's peak RSS for no speed.  Its sample
# blocks, each drawn and solved in one pass, start at this size and double.
MAX_CHUNK = 64


class _Walk:
    """MSAC's walk over hypotheses in draw order, one chunk at a time.

    A model becomes the best when its score is strictly below every earlier
    one (a NaN score never is), and the budget then becomes the
    ``_required_iterations`` of its inlier ratio.  The walk stops after the
    first sample at which the samples walked reach min(budget, cap).  Only
    the models that beat every earlier one, found with ``np.fmin.accumulate``
    (which skips NaN), are walked in Python.
    """

    def __init__(self, cap, sample_size, n, threshold):
        self.cap, self.sample_size, self.n, self.threshold = cap, sample_size, n, threshold
        self.required = cap
        self.it = self.degenerate = 0
        self.best_score = np.inf
        self.best_model = self.best_sample = None
        self.history = []

    @property
    def left(self):
        """Samples the walk may still take."""
        return min(self.required, self.cap) - self.it

    def chunk(self, samples, models, owner, scores, errors):
        """Walk the next samples (k, s): ``models[m]``, solved from
        ``samples[owner[m]]`` (owner ascending), scored ``scores[m]`` on the
        residuals ``errors[m]``."""
        # self.it stays at the chunk's start until the end: a sample after
        # the last improvement's is walked while its index is below self.left
        earlier = np.fmin.accumulate(np.concatenate([[self.best_score], scores]))[:-1]
        j = 0  # the sample of the last improvement walked
        for m in np.flatnonzero(scores < earlier):
            if owner[m] != j and owner[m] >= self.left:
                break  # the walk stopped before this sample
            j = owner[m]
            self.best_score = float(scores[m])
            self.best_model = models[m]
            self.best_sample = samples[j]
            self.history.append(self.best_score)
            inliers = int(np.count_nonzero(np.abs(errors[m]) < self.threshold))
            self.required = _required_iterations(
                max(inliers, self.sample_size) / self.n, self.sample_size
            )
        walked = min(max(self.left, j + 1), len(samples))
        bounds = np.searchsorted(owner, np.arange(walked + 1))
        self.degenerate += int(np.count_nonzero(bounds[1:] == bounds[:-1]))
        self.it += walked


def _solve_one_by_one(data, samples, minimal_solver):
    """The stacked solver contract over a per-sample solver: (models,
    owner); a sample whose solve raises a geometry or linear-algebra error or
    returns None has no model."""
    models, owner = [], []
    for j, sample in enumerate(samples):
        try:
            out = minimal_solver(data, sample)
        except (geo.GeometryError, np.linalg.LinAlgError):
            continue
        if out is None:
            continue
        for model in out if isinstance(out, (list, tuple)) else [out]:
            models.append(model)
            owner.append(j)
    return models, np.array(owner, int)


def msac(
    data,
    minimal_solver,
    residual_fn,
    config: MsacConfig,
    sample_size: int,
    full_solver=None,
    positions=None,
    stacked=False,
    lower_bound=None,
) -> RobustFitResult:
    """M-estimator sample consensus with bucketed sampling.

    Hypotheses are scored by sum(min(e_i^2, T^2)); the iteration budget
    shrinks adaptively with the best inlier ratio at ``CONFIDENCE``.  After
    the loop, the inlier set is refined with the robust scale rule and the
    model re-estimated by least squares on it.

    The samples are those of ``_draw_sample`` called in a loop on
    ``default_rng(config.rng_seed)``, drawn by ``_SampleStream``.  With
    ``stacked``, they are drawn and solved a block at a time: ``MAX_CHUNK``
    samples, doubling (64, 128, 256, ...), never more than the walk may
    still take.  A block is scored and walked in draw order (``_Walk``) in
    chunks of at most as many samples as have been walked, ``MAX_CHUNK``,
    the remaining budget and the rest of the block (1, 1, 2, 4, ... 64), so
    the result and the iteration count are those of drawing one sample at a
    time.  Samples drawn past the adaptive stop are discarded, which changes
    nothing because the rng is local to the call.

    Parameters
    ----------
    data : opaque dataset handed to the solvers.
    minimal_solver, residual_fn : with ``stacked`` False (one sample per
        block), ``minimal_solver(data, indices (s,))`` returns a model, a
        list of models or None and may raise GeometryError or LinAlgError
        on a degenerate sample; ``residual_fn(data, model)`` returns (N,)
        residuals in pixels.  With ``stacked`` True,
        ``minimal_solver(data, samples (k, s))`` returns ``(models (k', ...),
        owner (k',))`` in sample order, ``owner[i]`` the sample ``models[i]``
        was solved from (a degenerate sample has no row), and
        ``residual_fn(data, models)`` returns (k', N).
    full_solver : callable(data, indices) -> model, one sample at a time in
        either mode; least-squares refit on the refined inliers (defaults to
        the minimal solver; required with ``stacked``).
    positions : (N, 2) keypoint positions used for bucketing, optional.
    lower_bound : stacked only; ``lower_bound(data, models)`` returns (k', N)
        residuals, each no larger than ``residual_fn``'s (a bail-out test,
        Capel 2005).  A chunk's models are scored on it first, and
        ``residual_fn`` is called only for those whose bound scores below the
        best score at the chunk's start.  The others keep the bound's score,
        which is no lower than the best score walked before them, so the walk
        takes neither it nor the exact score it bounds: the result is that of
        a fit without the bound.
    """
    if stacked and full_solver is None:
        raise ValueError("a stacked fit needs a per-sample full_solver")
    if lower_bound is not None and not stacked:
        raise ValueError("a lower_bound needs a stacked fit")
    n = len(data) if not hasattr(data, "shape") else data.shape[0]
    if n < sample_size:
        raise InsufficientData(f"{n} data for sample size {sample_size}")
    buckets = (
        _bucket_indices(positions, config.bucket_size) if positions is not None else None
    )
    stream = _SampleStream(config.rng_seed, n, sample_size, buckets)
    if stacked:
        def solve(samples):
            return minimal_solver(data, samples)

        def residuals(models):
            return np.asarray(residual_fn(data, models), float)

        def residual(model):
            return residuals(model[None])[0]
    else:
        def solve(samples):
            return _solve_one_by_one(data, samples, minimal_solver)

        def residual(model):
            return np.asarray(residual_fn(data, model), float)

        def residuals(models):
            return np.array([residual(m) for m in models]).reshape(len(models), n)
    T = config.inlier_threshold
    walk = _Walk(config.max_iterations, sample_size, n, T)

    def score(errors):
        return np.sum(np.minimum(errors**2, T**2), axis=1)

    def scored(models):
        """(errors, scores) of a chunk's models, exact where they can win."""
        if lower_bound is None:
            errors = residuals(models)
            return errors, score(errors)
        errors = np.asarray(lower_bound(data, models), float)
        scores = score(errors)
        exact = np.flatnonzero(scores < walk.best_score)
        if exact.size:
            errors[exact] = residuals(models[exact])
            scores[exact] = score(errors[exact])
        return errors, scores

    block, growth = (MAX_CHUNK, 2) if stacked else (1, 1)
    while walk.left > 0:
        samples = stream.draw(min(block, walk.left))
        block *= growth
        models, owner = solve(samples)
        start = 0
        while start < len(samples) and walk.left > 0:
            size = min(max(walk.it, 1), MAX_CHUNK, walk.left, len(samples) - start)
            lo, hi = np.searchsorted(owner, [start, start + size])
            errors, scores = scored(models[lo:hi])
            walk.chunk(samples[start:start + size], models[lo:hi], owner[lo:hi] - start,
                       scores, errors)
            start += size
    best_model, best_sample = walk.best_model, walk.best_sample
    if best_model is None:
        raise NoConsensus("no hypothesis could be evaluated")

    # refined inliers via the robust scale of the best hypothesis
    e = residual(best_model)
    if best_sample.size < n:
        sigma_star = robust_scale(e, best_sample)
    else:
        sigma_star = 0.0
    # floored relative to T: noise-free rounding residuals must pass the gate
    gate = max(THETA * sigma_star, 1e-6 * T)
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
            e_new = residual(candidate)
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
        iterations=walk.it,
        degenerate=walk.degenerate,
        score_history=walk.history,
    )
