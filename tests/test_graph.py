import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from hsfm import cli, fileio
from hsfm import geometry as geo
from hsfm import graph, robust
from hsfm import synthetic
from hsfm.tracks import Track


# ---------------------------------------------------------------------------
# broad phase
# ---------------------------------------------------------------------------


def test_broad_phase_identical_sets_saturate():
    rng = np.random.default_rng(0)
    s = 40
    d = rng.normal(0, 1, (s, 16))
    hist = graph.broad_phase_histogram([d, d.copy()])
    assert hist.counts[0, 1] == s


def test_broad_phase_random_sets_sparse():
    rng = np.random.default_rng(1)
    s = 100
    a = rng.normal(0, 1, (s, 32))
    b = rng.normal(0, 1, (s, 32))
    hist = graph.broad_phase_histogram([a, b])
    # mutual-NN hits between unrelated clouds are far below saturation
    assert hist.counts[0, 1] < 0.5 * s


def test_broad_phase_single_image():
    hist = graph.broad_phase_histogram([np.zeros((5, 8))])
    assert hist.counts.shape == (1, 1)
    assert hist.counts[0, 0] == 0


# ---------------------------------------------------------------------------
# repeated maximum spanning trees
# ---------------------------------------------------------------------------


def max_flow_oracle(n, edges, m):
    """Independent unit-capacity all-pairs max-flow check."""
    cap = np.zeros((n, n), int)
    for i, j in edges:
        cap[i, j] = cap[j, i] = 1
    g = csr_matrix(cap)
    for u in range(n):
        for v in range(u + 1, n):
            if maximum_flow(g, u, v).flow_value < m:
                return False
    return True


def test_k4_distinct_weights_single_mst():
    counts = np.zeros((4, 4), int)
    w = {(0, 1): 10, (0, 2): 7, (0, 3): 3, (1, 2): 9, (1, 3): 2, (2, 3): 1}
    for (i, j), c in w.items():
        counts[i, j] = counts[j, i] = c
    sel = graph.extract_m_connected_subgraph(graph.MatchHistogram(counts), m=1)
    # maximum spanning tree by hand: (0,1)=10, (1,2)=9, (0,2) makes a cycle,
    # (0,3)=3 joins the last vertex
    assert sorted(sel.edges) == [(0, 1), (0, 3), (1, 2)]
    assert sel.achieved_connectivity == 1


def test_k6_uniform_m2_is_two_connected():
    n = 6
    counts = np.ones((n, n), int) - np.eye(n, dtype=int)
    sel = graph.extract_m_connected_subgraph(graph.MatchHistogram(counts), m=2)
    assert sel.achieved_connectivity == 2
    assert max_flow_oracle(n, sel.edges, 2)


def test_path_graph_residual_empties():
    n = 5
    counts = np.zeros((n, n), int)
    for i in range(n - 1):
        counts[i, i + 1] = counts[i + 1, i] = 3
    sel = graph.extract_m_connected_subgraph(graph.MatchHistogram(counts), m=3)
    assert sorted(sel.edges) == [(i, i + 1) for i in range(n - 1)]
    assert sel.achieved_connectivity == 1


def test_disconnected_graph_reports_components():
    counts = np.zeros((5, 5), int)
    counts[0, 1] = counts[1, 0] = 2
    counts[2, 3] = counts[3, 2] = 2
    with pytest.raises(graph.GraphDisconnected) as err:
        graph.extract_m_connected_subgraph(graph.MatchHistogram(counts), m=2)
    assert [0, 1] in err.value.components
    assert [4] in err.value.components


def test_tree_extraction_properties():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = rng.integers(4, 11)
        counts = rng.integers(0, 30, (n, n))
        counts = np.triu(counts, 1)
        counts = counts + counts.T
        try:
            sel = graph.extract_m_connected_subgraph(
                graph.MatchHistogram(counts), m=3
            )
        except graph.GraphDisconnected:
            continue
        # trees edge-disjoint, weights non-increasing, edge budget respected
        seen = set()
        for tree in sel.trees:
            assert not (set(tree) & seen)
            seen.update(tree)
        assert all(
            b <= a + 1e-9 for a, b in zip(sel.tree_weights, sel.tree_weights[1:])
        )
        assert len(sel.edges) <= 3 * (n - 1)


# ---------------------------------------------------------------------------
# narrow phase
# ---------------------------------------------------------------------------


def verify_config(seed=0, diag=3600.0):
    return graph.VerifyConfig(
        inlier_threshold=diag / 1800.0,
        bucket_size=diag / 25.0,
        rng_seed=seed,
    )


def scene_pair(kind, seed=0, noise=0.0):
    scene = synthetic.generate(kind, 4, 120, seed=seed, noise_sigma=noise)
    i, j = sorted(scene.cameras)[:2]
    return scene, (i, j)


def test_narrow_phase_rigid_pair_gives_fundamental_edge():
    scene, (i, j) = scene_pair("ring", seed=4)
    edge = graph.narrow_phase_verify(
        (i, j),
        scene.keypoints[i],
        scene.keypoints[j],
        scene.descriptors[i],
        scene.descriptors[j],
        verify_config(),
        candidate_matches=scene.matches[(i, j)],
    )
    assert isinstance(edge, graph.EpipolarEdge)
    assert edge.model_class == robust.FUNDAMENTAL
    assert edge.inlier_count == len(scene.matches[(i, j)])


def test_narrow_phase_planar_pair_gives_homography_edge():
    scene, (i, j) = scene_pair("planar", seed=5)
    edge = graph.narrow_phase_verify(
        (i, j),
        scene.keypoints[i],
        scene.keypoints[j],
        scene.descriptors[i],
        scene.descriptors[j],
        verify_config(),
        candidate_matches=scene.matches[(i, j)],
    )
    assert isinstance(edge, graph.EpipolarEdge)
    assert edge.model_class == robust.HOMOGRAPHY


def test_narrow_phase_too_few_matches():
    scene, (i, j) = scene_pair("ring", seed=6)
    out = graph.narrow_phase_verify(
        (i, j),
        scene.keypoints[i],
        scene.keypoints[j],
        scene.descriptors[i],
        scene.descriptors[j],
        verify_config(),
        candidate_matches=scene.matches[(i, j)][:9],
    )
    assert isinstance(out, graph.PairRejection)
    assert out.reason == "tooFewMatches"


def test_narrow_phase_descriptor_matching_end_to_end():
    scene, (i, j) = scene_pair("ring", seed=7)
    edge = graph.narrow_phase_verify(
        (i, j),
        scene.keypoints[i],
        scene.keypoints[j],
        scene.descriptors[i],
        scene.descriptors[j],
        verify_config(),
    )
    assert isinstance(edge, graph.EpipolarEdge)
    # matched keypoints must correspond to the same generating points
    truth_a = scene.kp_to_point[i][edge.matches[:, 0]]
    truth_b = scene.kp_to_point[j][edge.matches[:, 1]]
    assert np.mean(truth_a == truth_b) > 0.95


def test_narrow_phase_deterministic():
    scene, (i, j) = scene_pair("ring", seed=8, noise=0.5)
    runs = []
    for _ in range(2):
        edge = graph.narrow_phase_verify(
            (i, j),
            scene.keypoints[i],
            scene.keypoints[j],
            scene.descriptors[i],
            scene.descriptors[j],
            verify_config(seed=123),
            candidate_matches=scene.matches[(i, j)],
        )
        runs.append(edge)
    assert np.array_equal(runs[0].matches, runs[1].matches)
    assert np.array_equal(runs[0].matrix, runs[1].matrix)


def test_match_writes_the_same_verified_matches_without_the_bound(tmp_path, monkeypatch):
    # the H fit's bail-out bound only skips work: hsfm match writes the same
    # bytes with every fit scoring each hypothesis exactly
    scene_dir = tmp_path / "scene"
    fileio.write_scene(
        synthetic.generate("ring", 6, 120, seed=4, noise_sigma=0.5, outlier_rate=0.05), scene_dir
    )
    msac, bounded = robust.msac, []

    def spy(*args, lower_bound=None, **kwargs):
        bounded.append(lower_bound is not None)
        return msac(*args, lower_bound=lower_bound, **kwargs)

    def unbounded(*args, lower_bound=None, **kwargs):
        return msac(*args, **kwargs)

    outputs = []
    for wrapper in (spy, unbounded):
        monkeypatch.setattr(robust, "msac", wrapper)
        out = tmp_path / f"{wrapper.__name__}.txt"
        assert cli.main(["match", "--input", str(scene_dir), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert any(bounded) and not all(bounded)  # the H fits, not the F fits
    assert outputs[0] == outputs[1] and b"pair" in outputs[0]


def test_narrow_phase_invariant_to_pixel_scale():
    # thresholds and buckets follow the image diagonal, so measuring every
    # pixel coordinate in smaller units must not change a pair's class or
    # inliers (the benchmark's calibrated ring scene and default config)
    scene = synthetic.generate("ring", 12, 350, seed=12, noise_sigma=0.5, outlier_rate=0.02)

    def verify_all(k):
        out = {}
        config = fileio.PipelineConfig().verify_config(k * scene.diagonal)
        for (i, j), matches in sorted(scene.matches.items()):
            kp_i, kp_j = (scene.keypoints[img] * [k, k, 1, 1] for img in (i, j))
            out[i, j] = graph.narrow_phase_verify(
                (i, j), kp_i, kp_j, None, None, config, candidate_matches=matches
            )
        return out

    base = verify_all(1)
    for scale in (2, 3):
        scaled = verify_all(scale)
        assert scaled.keys() == base.keys()
        for pair, edge in base.items():
            other = scaled[pair]
            assert type(other) is type(edge), (scale, pair)
            if isinstance(edge, graph.EpipolarEdge):
                assert other.model_class == edge.model_class, (scale, pair)
                assert np.array_equal(other.matches, edge.matches), (scale, pair)
            else:
                assert other.reason == edge.reason, (scale, pair)


# ---------------------------------------------------------------------------
# tracks
# ---------------------------------------------------------------------------


def edge(i, j, pairs):
    return graph.EpipolarEdge(
        pair=(i, j),
        matches=np.array(pairs, int),
        model_class=robust.FUNDAMENTAL,
        matrix=np.eye(3),
        inlier_count=len(pairs),
        sigma_star=0.0,
    )


def test_build_tracks_consistent_chain():
    edges = [edge(0, 1, [(5, 7)]), edge(1, 2, [(7, 9)])]
    ts = graph.build_tracks(edges, min_track_length=3)
    assert len(ts) == 1
    assert ts[0].members == {0: 5, 1: 7, 2: 9}


def test_build_tracks_drops_inconsistent_component():
    # keypoints 5 and 6 of image 0 end up in one component
    edges = [edge(0, 1, [(5, 7), (6, 8)]), edge(1, 2, [(7, 9), (8, 9)])]
    ts = graph.build_tracks(edges, min_track_length=2)
    assert len(ts) == 0


def test_build_tracks_min_length_gate():
    edges = [edge(0, 1, [(1, 2)])]
    assert len(graph.build_tracks(edges, min_track_length=3)) == 0
    ts = graph.build_tracks(edges, min_track_length=2)
    assert len(ts) == 1


def test_build_tracks_order_independent():
    rng = np.random.default_rng(3)
    edges = [
        edge(0, 1, [(k, k) for k in range(10)]),
        edge(1, 2, [(k, k) for k in range(5)]),
        edge(0, 2, [(k, k) for k in range(3, 8)]),
    ]
    base = graph.build_tracks(edges, min_track_length=2).as_key_set()
    for _ in range(5):
        perm = [edges[k] for k in rng.permutation(3)]
        assert graph.build_tracks(perm, min_track_length=2).as_key_set() == base
