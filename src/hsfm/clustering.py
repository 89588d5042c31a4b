"""Image affinity and balanced simple-linkage agglomerative clustering.

The dendrogram doubles as the execution plan of the reconstruction engine:
``ClusteringState.next_merge`` hands out one cluster pair at a time so the
engine can veto merges that fail geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NoMergeAvailable(Exception):
    """Every remaining cluster pair has been rejected."""


def convex_hull_area(points) -> float:
    """Area of the 2D convex hull; degenerate hulls (< 3 distinct points,
    collinear) have area zero.

    Andrew's monotone chain (Andrew, IPL 1979) over the points sorted by x
    then y, then the shoelace formula about the first hull vertex.
    """
    points = np.unique(np.asarray(points, float).reshape(-1, 2), axis=0)
    if len(points) < 3:
        return 0.0
    points = points.tolist()

    def half(chain_points):
        chain = []
        for x, y in chain_points:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                chain.pop()  # not a left turn
            chain.append((x, y))
        return chain

    hull = half(points)[:-1] + half(reversed(points))[:-1]
    if len(hull) < 3:
        return 0.0
    x0, y0 = hull[0]
    twice = 0.0
    for (ax, ay), (bx, by) in zip(hull[1:], hull[2:]):
        twice += (ax - x0) * (by - y0) - (bx - x0) * (ay - y0)
    return 0.5 * twice


def affinity(set_i, set_j, points_i, points_j, area_i, area_j) -> float:
    """Overlap affinity of two images in [0, 1].

    Half the Jaccard index of the visible tie-point sets plus half the
    fraction of the two image areas covered by the convex hulls of the
    shared tie-points' keypoints.

    ``points_i``/``points_j`` are the keypoint positions, in each image, of
    the tie-points in ``set_i & set_j``.
    """
    if area_i <= 0 or area_j <= 0:
        raise ValueError("image areas must be positive")
    set_i = set(set_i)
    set_j = set(set_j)
    union = len(set_i | set_j)
    inter = len(set_i & set_j)
    if union == 0 or inter == 0:
        return 0.0
    jaccard = inter / union
    hulls = (convex_hull_area(points_i) + convex_hull_area(points_j)) / (
        area_i + area_j
    )
    return 0.5 * jaccard + 0.5 * hulls


def affinity_matrix(track_set, keypoints, image_sizes) -> np.ndarray:
    """Pairwise image affinities from a track set.

    Parameters
    ----------
    track_set : TrackSet over the images.
    keypoints : image id -> (n, >=2) array of keypoint positions.
    image_sizes : image id -> (width, height).

    Returns the (n, n) symmetric affinity matrix with unit diagonal, indexed
    by sorted image id order.
    """
    ids = sorted(image_sizes)
    index = {img: k for k, img in enumerate(ids)}
    visible = {img: set() for img in ids}
    for t_idx, track in enumerate(track_set):
        for img in track.members:
            if img in visible:
                visible[img].add(t_idx)
    n = len(ids)
    A = np.eye(n)
    for a in range(n):
        for b in range(a + 1, n):
            i, j = ids[a], ids[b]
            shared = sorted(visible[i] & visible[j])
            pts_i = np.array(
                [keypoints[i][track_set[t].members[i], :2] for t in shared]
            ) if shared else np.zeros((0, 2))
            pts_j = np.array(
                [keypoints[j][track_set[t].members[j], :2] for t in shared]
            ) if shared else np.zeros((0, 2))
            wi, hi = image_sizes[i]
            wj, hj = image_sizes[j]
            A[a, b] = A[b, a] = affinity(
                visible[i], visible[j], pts_i, pts_j, wi * hi, wj * hj
            )
    return A


# ---------------------------------------------------------------------------
# Dendrogram
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DendrogramNode:
    members: tuple              # sorted leaf ids
    left: "DendrogramNode | None" = None
    right: "DendrogramNode | None" = None
    distance: float = 0.0
    action: str | None = None   # filled by the engine

    @property
    def is_leaf(self):
        return self.left is None

    @property
    def height(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.height, self.right.height)

    def internal_nodes(self):
        if self.is_leaf:
            return
        yield self
        yield from self.left.internal_nodes()
        yield from self.right.internal_nodes()

    def render(self, indent="") -> str:
        if self.is_leaf:
            return f"{indent}image {self.members[0]}"
        tag = f" [{self.action}]" if self.action else ""
        head = f"{indent}node d={self.distance:.4f} n={len(self.members)}{tag}"
        return "\n".join(
            [head, self.left.render(indent + "  "), self.right.render(indent + "  ")]
        )


class ClusteringState:
    """Balanced simple-linkage agglomeration, one merge at a time.

    Each sweep ranks active cluster pairs by simple-linkage distance (ties
    by smaller cardinality, then lexicographic leaf ids), keeps the ``ell``
    closest, and among those proposes the pair with the smallest combined
    cardinality.  ``ell = 1`` reduces to classic simple linkage, where
    cardinality plays no role at all, tie-breaks included.
    """

    def __init__(self, distances, ell: int = 3, leaf_ids=None):
        D = np.asarray(distances, float)
        n = D.shape[0]
        if n < 2:
            raise ValueError("need at least two items")
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell!r}")
        self.ell = int(ell)
        ids = list(range(n)) if leaf_ids is None else list(leaf_ids)
        self.nodes = {k: DendrogramNode(members=(ids[k],)) for k in range(n)}
        self.active = set(range(n))
        self.dist = {}
        for a in range(n):
            for b in range(a + 1, n):
                self.dist[(a, b)] = float(D[a, b])
        self._next_id = n

    def _pair_distance(self, a, b):
        return self.dist[(a, b) if a < b else (b, a)]

    def _pair_key(self, a, b):
        na, nb = self.nodes[a], self.nodes[b]
        card = len(na.members) + len(nb.members)
        lex = tuple(sorted((min(na.members), min(nb.members))))
        if self.ell == 1:
            # classic simple linkage: cardinality plays no role anywhere
            return (self._pair_distance(a, b), 0, lex, card)
        return (self._pair_distance(a, b), card, lex, card)

    def candidate(self, rejected=frozenset()):
        """Best merge pair under the balancing rule, skipping rejected pairs."""
        pairs = []
        act = sorted(self.active)
        for i, a in enumerate(act):
            for b in act[i + 1 :]:
                if frozenset((a, b)) in rejected:
                    continue
                pairs.append((self._pair_key(a, b), a, b))
        if not pairs:
            raise NoMergeAvailable("all cluster pairs rejected")
        pairs.sort(key=lambda t: t[0])
        window = pairs[: self.ell]
        # smallest cardinality wins inside the window; ties fall back to
        # distance, then lexicographic leaf order
        key, a, b = min(window, key=lambda t: (t[0][3], t[0][0], t[0][2]))
        return a, b

    def merge(self, a, b) -> int:
        """Commit a merge and return the new cluster id."""
        if a not in self.active or b not in self.active:
            raise KeyError("inactive cluster")
        d = self._pair_distance(a, b)
        na, nb = self.nodes[a], self.nodes[b]
        if min(nb.members) < min(na.members):
            na, nb = nb, na
        node = DendrogramNode(
            members=tuple(sorted(na.members + nb.members)),
            left=na,
            right=nb,
            distance=d,
        )
        new = self._next_id
        self._next_id += 1
        self.nodes[new] = node
        self.active.discard(a)
        self.active.discard(b)
        for c in self.active:
            self.dist[(min(c, new), max(c, new))] = min(
                self._pair_distance(a, c), self._pair_distance(b, c)
            )
        self.active.add(new)
        return new

    def roots(self):
        return [self.nodes[c] for c in sorted(self.active)]

    def done(self):
        return len(self.active) == 1


def next_merge(state: ClusteringState, rejected_pairs=frozenset()):
    """Best candidate under the balancing rule, excluding rejected pairs.

    Raises NoMergeAvailable when every remaining pair has been vetoed, in
    which case the engine emits one model per surviving cluster.
    """
    rejected = {frozenset(p) for p in rejected_pairs}
    return state.candidate(rejected)


def build_balanced_dendrogram(distances, ell: int = 3) -> DendrogramNode:
    """Run the balanced agglomeration to completion and return the root."""
    state = ClusteringState(distances, ell)
    while not state.done():
        a, b = state.candidate()
        state.merge(a, b)
    return state.roots()[0]
