import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfm import clustering
from hsfm.clustering import (
    ClusteringState,
    NoMergeAvailable,
    affinity,
    build_balanced_dendrogram,
    next_merge,
)


# ---------------------------------------------------------------------------
# affinity
# ---------------------------------------------------------------------------


def test_affinity_identical_full_coverage_is_one():
    # same tie-points, keypoints spanning each full image
    corners = np.array([[0, 0], [100, 0], [100, 80], [0, 80]], float)
    a = affinity({1, 2, 3, 4}, {1, 2, 3, 4}, corners, corners, 8000.0, 8000.0)
    assert a == pytest.approx(1.0)


def test_affinity_disjoint_sets_is_zero():
    assert affinity({1, 2}, {3, 4}, np.zeros((0, 2)), np.zeros((0, 2)), 100.0, 100.0) == 0.0


def test_affinity_hand_example():
    # Jaccard 0.5 and hull coverage 0.25 in each image -> 0.5*0.5 + 0.5*0.25
    area = 100.0
    hull_pts = np.array([[0, 0], [5, 0], [5, 5], [0, 5]], float)  # area 25
    a = affinity({1, 2}, {2, 3}, hull_pts, hull_pts, area, area)
    # |S1 & S2| = 1, |S1 | S2| = 3 -> jaccard 1/3 here; build the exact 0.5 case
    a = affinity({1, 2, 3, 4}, {3, 4, 5, 6}, hull_pts, hull_pts, area, area)
    # jaccard = 2/6 = 1/3 still; use sets with jaccard exactly 0.5
    a = affinity({1, 2, 3, 4}, {2, 3, 4, 5}, hull_pts, hull_pts, area, area)
    # |inter| = 3, |union| = 5 -> 0.6; fall back to the direct construction:
    a = affinity({1, 2}, {1, 2, 3, 4}, hull_pts, hull_pts, area, area)
    assert a == pytest.approx(0.5 * 0.5 + 0.5 * 0.25)


def test_affinity_degenerate_hull_counts_zero():
    line = np.array([[0, 0], [1, 1], [2, 2]], float)
    a = affinity({1}, {1}, line, line, 10.0, 10.0)
    assert a == pytest.approx(0.5)  # jaccard term only


def test_convex_hull_area_matches_qhull():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(46)
    for k in range(300):
        n = int(rng.integers(3, 500))
        points = rng.uniform(0, 1000, (n, 2)) * rng.uniform(0.01, 1.0, 2)
        if k % 3 == 0:  # on a pixel grid: duplicates and collinear hull edges
            points = np.round(points)
        expected = ConvexHull(points).volume
        assert abs(clustering.convex_hull_area(points) - expected) <= 1e-12 * expected


@pytest.mark.parametrize(
    "points",
    [
        np.zeros((0, 2)),
        [[3.0, 4.0]],
        [[3.0, 4.0], [5.0, -1.0]],
        [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [-3.0, -6.0]],  # collinear
        [[0.0, 5.0], [0.0, 1.0], [0.0, 3.0]],                # collinear, vertical
        [[2.0, 7.0]] * 6,                                    # all duplicates
        [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]],    # two distinct points
    ],
)
def test_convex_hull_area_degenerate_is_zero(points):
    assert clustering.convex_hull_area(points) == 0.0


@settings(max_examples=100)
@given(
    st.sets(st.integers(0, 30), min_size=0, max_size=15),
    st.sets(st.integers(0, 30), min_size=0, max_size=15),
    st.integers(1, 12),
)
def test_affinity_symmetric_and_bounded(si, sj, seed):
    rng = np.random.default_rng(seed)
    shared = sorted(si & sj)
    pi = rng.uniform(0, 50, (len(shared), 2))
    pj = rng.uniform(0, 40, (len(shared), 2))
    if not (si or sj):
        return
    a = affinity(si, sj, pi, pj, 50.0 * 50.0, 40.0 * 40.0)
    b = affinity(sj, si, pj, pi, 40.0 * 40.0, 50.0 * 50.0)
    assert 0.0 <= a <= 1.0
    assert a == pytest.approx(b)


# ---------------------------------------------------------------------------
# balanced dendrogram
# ---------------------------------------------------------------------------


def line_distances():
    # 4 points on a line with consecutive gaps 1, 2, 3
    pos = np.array([0.0, 1.0, 3.0, 6.0])
    return np.abs(pos[:, None] - pos[None, :])


def test_line_ell1_gives_chain():
    root = build_balanced_dendrogram(line_distances(), ell=1)
    assert root.height == 3


def test_line_ell2_gives_balanced_tree():
    root = build_balanced_dendrogram(line_distances(), ell=2)
    assert root.height == 2


def test_equidistant_eight_ell4_height_three():
    D = np.ones((8, 8)) - np.eye(8)
    root = build_balanced_dendrogram(D, ell=4)
    assert root.height == 3


def simple_linkage_oracle(D):
    """Independent O(n^3) classic simple-linkage clustering."""
    n = D.shape[0]
    clusters = {i: (i,) for i in range(n)}
    merges = []
    while len(clusters) > 1:
        best = None
        for a in clusters:
            for b in clusters:
                if a >= b:
                    continue
                d = min(D[i, j] for i in clusters[a] for j in clusters[b])
                key = (d, tuple(sorted((min(clusters[a]), min(clusters[b])))))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (_, a, b) = best[1:], best[1], best[2]
        members = tuple(sorted(clusters[a] + clusters[b]))
        merges.append((frozenset(clusters[a]), frozenset(clusters[b])))
        new_id = max(clusters) + 1
        del clusters[a], clusters[b]
        clusters[new_id] = members
    return merges


def dendrogram_merges(root):
    out = []
    def walk(node):
        if node.is_leaf:
            return
        walk(node.left)
        walk(node.right)
        out.append(
            (frozenset(node.left.members), frozenset(node.right.members))
        )
    walk(root)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 20))
def test_ell1_matches_simple_linkage_oracle(seed, n):
    rng = np.random.default_rng(seed)
    # distinct distances so the oracle comparison is exact
    tri = rng.permutation(n * (n - 1) // 2) + 1.0
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = tri
    D = D + D.T
    root = build_balanced_dendrogram(D, ell=1)
    assert set(map(frozenset, dendrogram_merges(root))) == set(
        map(frozenset, simple_linkage_oracle(D))
    )


def test_height_non_increasing_in_ell_uniform():
    D = np.ones((16, 16)) - np.eye(16)
    heights = [
        build_balanced_dendrogram(D, ell=ell).height for ell in (1, 2, 4, 8)
    ]
    assert all(b <= a for a, b in zip(heights, heights[1:]))


def test_dendrogram_deterministic():
    rng = np.random.default_rng(3)
    D = rng.uniform(0.1, 1.0, (10, 10))
    D = (D + D.T) / 2
    np.fill_diagonal(D, 0.0)
    a = build_balanced_dendrogram(D, ell=3)
    b = build_balanced_dendrogram(D, ell=3)
    assert dendrogram_merges(a) == dendrogram_merges(b)


# ---------------------------------------------------------------------------
# next_merge with rejections
# ---------------------------------------------------------------------------


def test_next_merge_no_rejections_matches_build_step():
    D = line_distances()
    state = ClusteringState(D, ell=2)
    assert next_merge(state) == state.candidate()


def test_next_merge_skips_rejected_pair():
    D = line_distances()
    state = ClusteringState(D, ell=2)
    first = next_merge(state)
    second = next_merge(state, rejected_pairs={first})
    assert second != first
    # hand simulation: with (0,1) rejected the window is [(1,2) d=2, (2,3) d=3]
    # and the smallest-cardinality rule keeps (1,2)
    assert first == (0, 1)
    assert second == (1, 2)


def test_next_merge_exhausted_raises():
    D = line_distances()
    state = ClusteringState(D, ell=2)
    all_pairs = {(a, b) for a in range(4) for b in range(4) if a < b}
    with pytest.raises(NoMergeAvailable):
        next_merge(state, rejected_pairs=all_pairs)


def test_ba_cost_accounting_balanced_vs_chain():
    # 16 leaves: sum over internal nodes of (cameras in node)^4
    D = np.ones((16, 16)) - np.eye(16)
    balanced = build_balanced_dendrogram(D, ell=3)
    cost_balanced = sum(len(n.members) ** 4 for n in balanced.internal_nodes())
    chain = sum(i**4 for i in range(2, 17))
    assert cost_balanced <= 0.35 * chain


@pytest.mark.parametrize("ell", [0, -2])
def test_clustering_rejects_window_below_one(ell):
    # an empty balancing window used to be clamped to simple linkage silently
    with pytest.raises(ValueError, match="ell"):
        ClusteringState(line_distances(), ell=ell)
