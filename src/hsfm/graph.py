"""Epipolar graph construction.

Broad phase: propose image pairs by repeatedly extracting maximum spanning
trees from the match-count histogram, which makes the kept subgraph close to
m-edge-connected on the same edge budget.  Narrow phase: verify each proposed
pair geometrically (ratio test, injectivity, MSAC for homography and
fundamental matrix, GRIC classification) and chain the surviving matches
into multi-image tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import robust
from .tracks import Track, TrackSet


class GraphDisconnected(Exception):
    def __init__(self, components):
        super().__init__(
            f"match graph has {len(components)} connected components"
        )
        self.components = components


@dataclass
class MatchHistogram:
    """Symmetric per-pair match counts with zero diagonal."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("histogram must be square")
        if not np.array_equal(c, c.T):
            raise ValueError("histogram must be symmetric")
        if np.any(np.diag(c) != 0):
            raise ValueError("histogram diagonal must be zero")
        if np.any(c < 0):
            raise ValueError("histogram counts must be non-negative")
        self.counts = c

    @property
    def n(self):
        return self.counts.shape[0]


def broad_phase_histogram(descriptor_sets) -> MatchHistogram:
    """Mutual nearest-neighbour hit counts between per-image descriptor sets.

    ``descriptor_sets`` is a sequence of (s_i, d) arrays, typically the
    descriptors of the few hundred highest-scale keypoints of each image.
    """
    sets = [np.asarray(d, float) for d in descriptor_sets]
    n = len(sets)
    counts = np.zeros((n, n), int)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sets[i], sets[j]
            if len(a) == 0 or len(b) == 0:
                continue
            d2 = (
                np.sum(a * a, axis=1)[:, None]
                + np.sum(b * b, axis=1)[None, :]
                - 2.0 * (a @ b.T)
            )
            fwd = np.argmin(d2, axis=1)
            bwd = np.argmin(d2, axis=0)
            mutual = bwd[fwd] == np.arange(len(a))
            counts[i, j] = counts[j, i] = int(np.sum(mutual))
    return MatchHistogram(counts)


# ---------------------------------------------------------------------------
# Repeated maximum spanning trees
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _components(n, edges):
    uf = _UnionFind(range(n))
    for i, j in edges:
        uf.union(i, j)
    comp = {}
    for v in range(n):
        comp.setdefault(uf.find(v), []).append(v)
    return sorted(comp.values())


@dataclass
class EdgeSelection:
    edges: list                       # kept (i, j) pairs, i < j
    trees: list                       # per-iteration edge lists
    achieved_connectivity: int        # complete spanning trees extracted
    tree_weights: list = field(default_factory=list)


def _max_spanning_forest(n, residual):
    """One maximum spanning forest of the residual graph.

    Kruskal over descending weights; inside an equal-weight group the edge
    whose endpoints have the smallest accumulated tree degree wins (ties
    lexicographic).  Spreading degree this way leaves room for the next
    extraction round, which is what lets several disjoint trees be packed
    out of graphs with many tied weights.
    """
    uf = _UnionFind(range(n))
    degree = np.zeros(n, int)
    tree = []
    total = 0.0
    for weight in sorted({w for w in residual.values()}, reverse=True):
        group = [e for e, w in residual.items() if w == weight]
        while True:
            best = None
            for i, j in group:
                if uf.find(i) == uf.find(j):
                    continue
                key = (degree[i] + degree[j], i, j)
                if best is None or key < best[0]:
                    best = (key, (i, j))
            if best is None:
                break
            i, j = best[1]
            uf.union(i, j)
            degree[i] += 1
            degree[j] += 1
            tree.append((i, j))
            total += weight
    return tree, total


def extract_m_connected_subgraph(hist, m: int = 8) -> EdgeSelection:
    """Union of up to m successively extracted maximum spanning trees.

    Equal-weight edges are broken lexicographically for determinism.  When
    the residual graph can no longer host a spanning tree, the remaining
    iterations contribute maximum spanning forests; only complete trees
    count toward the achieved edge-connectivity.

    Raises GraphDisconnected (carrying the components) when the input graph
    itself is disconnected.
    """
    counts = hist.counts if isinstance(hist, MatchHistogram) else np.asarray(hist)
    n = counts.shape[0]
    all_edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if counts[i, j] > 0
    ]
    comps = _components(n, all_edges)
    if len(comps) > 1:
        raise GraphDisconnected(comps)

    residual = {(i, j): float(counts[i, j]) for i, j in all_edges}
    kept = []
    trees = []
    weights = []
    achieved = 0
    counting = True
    for _ in range(m):
        if not residual:
            break
        tree, w = _max_spanning_forest(n, residual)
        if not tree:
            break
        for e in tree:
            del residual[e]
        kept.extend(tree)
        trees.append(tree)
        weights.append(w)
        if counting and len(tree) == n - 1:
            achieved += 1
        else:
            counting = False
    return EdgeSelection(
        edges=sorted(kept),
        trees=trees,
        achieved_connectivity=achieved,
        tree_weights=weights,
    )


# ---------------------------------------------------------------------------
# Narrow phase
# ---------------------------------------------------------------------------


@dataclass
class VerifyConfig:
    inlier_threshold: float          # pixels (image diagonal / 1800 upstream)
    bucket_size: float               # pixels (image diagonal / 25 upstream)
    ratio: float = 1.5               # second-to-first NN distance gate
    min_matches: int = 10
    survivor_fraction: float = 0.2
    gric_ratio: float = 1.2
    max_iterations: int = 1000
    rng_seed: int = 0
    gric_sigma_floor: float = 0.25   # pixels, guards the zero-noise limit


@dataclass(eq=False)
class EpipolarEdge:
    pair: tuple
    matches: np.ndarray              # (k, 2) inlier keypoint index pairs
    model_class: str                 # robust.HOMOGRAPHY or robust.FUNDAMENTAL
    matrix: np.ndarray               # the winning 3x3
    inlier_count: int
    sigma_star: float
    gric_h: float = np.nan
    gric_f: float = np.nan


@dataclass
class PairRejection:
    pair: tuple
    reason: str                      # tooFewMatches | survivorRatio | degenerate
    detail: str = ""


N_ANGULAR_BINS = 8


def match_descriptors_angular(keypoints_a, keypoints_b, desc_a, desc_b, ratio=1.5):
    """Ratio-test matching restricted to ``N_ANGULAR_BINS`` equal
    dominant-angle clusters.

    Keypoint rows are (x, y, scale, angle).  Matching each angular cluster
    separately trades a few border matches for a large constant-factor
    speedup; the result is made injective by keeping only the best-distance
    match per target keypoint.
    """
    ka = np.asarray(keypoints_a, float)
    kb = np.asarray(keypoints_b, float)
    da = np.asarray(desc_a, float)
    db = np.asarray(desc_b, float)
    two_pi = 2.0 * np.pi
    n_bins = N_ANGULAR_BINS
    bins_a = np.floor((ka[:, 3] % two_pi) / two_pi * n_bins).astype(int) % n_bins
    bins_b = np.floor((kb[:, 3] % two_pi) / two_pi * n_bins).astype(int) % n_bins
    raw = []
    for bin_id in range(n_bins):
        ia = np.flatnonzero(bins_a == bin_id)
        ib = np.flatnonzero(bins_b == bin_id)
        if len(ia) == 0 or len(ib) == 0:
            continue
        a, b = da[ia], db[ib]
        d2 = (
            np.sum(a * a, axis=1)[:, None]
            + np.sum(b * b, axis=1)[None, :]
            - 2.0 * (a @ b.T)
        )
        d2 = np.maximum(d2, 0.0)
        if len(ib) == 1:
            for r, qa in enumerate(ia):
                raw.append((float(np.sqrt(d2[r, 0])), qa, ib[0]))
            continue
        first = np.argmin(d2, axis=1)
        d1 = np.sqrt(d2[np.arange(len(ia)), first])
        d2nd = np.sqrt(np.partition(d2, 1, axis=1)[:, 1])
        keep = d2nd > ratio * d1
        for r in np.flatnonzero(keep):
            raw.append((float(d1[r]), ia[r], ib[first[r]]))
    # injectivity: best distance wins each contested target keypoint
    raw.sort()
    used_b = set()
    used_a = set()
    matches = []
    for dist, qa, qb in raw:
        if qa in used_a or qb in used_b:
            continue
        used_a.add(qa)
        used_b.add(qb)
        matches.append((qa, qb))
    matches.sort()
    return np.array(matches, int).reshape(-1, 2)


def _seed_for_pair(seed, pair):
    return np.random.SeedSequence([seed & 0xFFFFFFFF, pair[0], pair[1]]).generate_state(1)[0]


def _fit_pair_models(x1, x2, config: VerifyConfig, seed):
    msac_cfg = robust.MsacConfig(
        inlier_threshold=config.inlier_threshold,
        bucket_size=config.bucket_size,
        max_iterations=config.max_iterations,
        rng_seed=seed,
    )
    # homogeneous rows (x1, y1, 1, x2, y2, 1), built once for every hypothesis
    data = np.hstack([geo.hom(x1), geo.hom(x2)])

    def h_minimal(d, samples):
        H, ok = geo.solve_homography_minimal_stack(d[samples, :2], d[samples, 3:5])
        return H[ok], np.flatnonzero(ok)

    def h_full(d, idx):
        return geo.solve_homography(d[idx, :2], d[idx, 3:5])

    def h_residual(d, H):
        return geo.homography_transfer_error(H, d[:, :3], d[:, 3:])

    def f_minimal(d, samples):
        return geo.solve_fundamental_minimal_stack(d[samples, :2], d[samples, 3:5])

    def f_full(d, idx):
        return geo.solve_fundamental(d[idx, :2], d[idx, 3:5])

    def f_residual(d, F):
        return geo.sampson_distance(F, d[:, :3], d[:, 3:])

    fit_h = fit_f = None
    try:
        fit_h = robust.msac(
            data, h_minimal, h_residual, msac_cfg, sample_size=4,
            full_solver=h_full, positions=x1, stacked=True,
        )
    except (robust.RobustError, geo.GeometryError):
        pass
    try:
        fit_f = robust.msac(
            data, f_minimal, f_residual, msac_cfg, sample_size=7,
            full_solver=f_full, positions=x1, stacked=True,
        )
    except (robust.RobustError, geo.GeometryError):
        pass
    return fit_h, fit_f


def classify_pair(x1, x2, config: VerifyConfig, seed=0):
    """Fit H and F robustly and pick the model class by GRIC.

    Both criteria are evaluated on first-order geometric distances with a
    common noise scale (the robust scale of the fundamental fit, floored),
    so the scores are commensurable.  A fundamental fit that degenerates on
    every sample is itself planarity evidence, so the pair falls back to the
    homography class (and vice versa).
    """
    fit_h, fit_f = _fit_pair_models(x1, x2, config, seed)
    if fit_h is None and fit_f is None:
        raise robust.NoConsensus("neither two-view model could be fitted")
    n = len(x1)
    if fit_f is None:
        sigma = max(fit_h.sigma_star, config.gric_sigma_floor)
    else:
        sigma = max(fit_f.sigma_star, config.gric_sigma_floor)
    gric_h = gric_f = np.inf
    if fit_h is not None:
        e_h = geo.sampson_homography(fit_h.model_params, x1, x2)
        gric_h = robust.gric(
            e_h, robust.GricParams(sigma=sigma, **robust.HOMOGRAPHY_GRIC), n
        )
    if fit_f is not None:
        e_f = geo.sampson_distance(fit_f.model_params, x1, x2)
        gric_f = robust.gric(
            e_f, robust.GricParams(sigma=sigma, **robust.FUNDAMENTAL_GRIC), n
        )
    if fit_f is None:
        model_class = robust.HOMOGRAPHY
    elif fit_h is None:
        model_class = robust.FUNDAMENTAL
    else:
        model_class = robust.select_model(gric_h, gric_f, config.gric_ratio)
    fit = fit_f if model_class == robust.FUNDAMENTAL else fit_h
    return model_class, fit, gric_h, gric_f


def narrow_phase_verify(
    pair,
    keypoints_a,
    keypoints_b,
    descriptors_a,
    descriptors_b,
    config: VerifyConfig,
    candidate_matches=None,
):
    """Verify one proposed image pair; returns EpipolarEdge or PairRejection.

    When ``candidate_matches`` (index pairs) are supplied the descriptor
    matching stage is skipped and verification starts from them.
    """
    if candidate_matches is None:
        matches = match_descriptors_angular(
            keypoints_a,
            keypoints_b,
            descriptors_a,
            descriptors_b,
            ratio=config.ratio,
        )
    else:
        matches = np.asarray(candidate_matches, int).reshape(-1, 2)
    n0 = len(matches)
    if n0 < max(config.min_matches, 8):
        return PairRejection(pair, "tooFewMatches", f"{n0} candidate matches")
    x1 = np.asarray(keypoints_a, float)[matches[:, 0], :2]
    x2 = np.asarray(keypoints_b, float)[matches[:, 1], :2]
    seed = _seed_for_pair(config.rng_seed, pair)
    try:
        model_class, fit, gric_h, gric_f = classify_pair(x1, x2, config, seed)
    except (robust.RobustError, geo.GeometryError) as exc:
        return PairRejection(pair, "degenerate", str(exc))
    survivors = int(fit.inlier_mask.sum())
    if survivors < config.min_matches:
        return PairRejection(
            pair, "tooFewMatches", f"{survivors} survivors after MSAC"
        )
    if survivors < config.survivor_fraction * n0:
        return PairRejection(
            pair,
            "survivorRatio",
            f"{survivors}/{n0} below {config.survivor_fraction:.0%}",
        )
    return EpipolarEdge(
        pair=pair,
        matches=matches[fit.inlier_mask],
        model_class=model_class,
        matrix=np.asarray(fit.model_params, float),
        inlier_count=survivors,
        sigma_star=fit.sigma_star,
        gric_h=gric_h,
        gric_f=gric_f,
    )


# ---------------------------------------------------------------------------
# Tracks
# ---------------------------------------------------------------------------


def build_tracks(edges, min_track_length: int = 3) -> TrackSet:
    """Chain verified pairwise matches into tracks.

    Tracks are connected components over (image, keypoint) nodes; a
    component visiting any image twice is inconsistent and dropped, as are
    components spanning fewer than ``min_track_length`` images.
    """
    links = []
    for edge in edges:
        i, j = edge.pair
        links.extend(
            ((i, int(ka)), (j, int(kb))) for ka, kb in np.asarray(edge.matches, int)
        )
    uf = _UnionFind(node for link in links for node in link)
    for a, b in links:
        uf.union(a, b)

    groups = {}
    for node in uf.parent:
        groups.setdefault(uf.find(node), []).append(node)

    tracks = []
    for nodes in groups.values():
        images = [img for img, _ in nodes]
        if len(set(images)) != len(images):
            continue  # a keypoint label occurs twice in one image
        if len(images) < min_track_length:
            continue
        tracks.append(Track(dict(sorted(nodes))))
    tracks.sort(key=lambda t: t.key())
    return TrackSet(tracks)
