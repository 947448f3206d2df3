import math

import numpy as np
import pytest

from _oracles import (
    brute_force_ward,
    merge_tree_members,
    pairwise_euclidean_per_row,
    within_variance_via_between,
)
from owa_explorer.cluster import (
    DissimilarityMatrix,
    cluster_summaries,
    cut,
    export_segmentation,
    pairwise_euclidean,
    suggest_k,
    variance_ratio_curve,
    ward_linkage,
    within_variance,
)
from owa_explorer.errors import BadK, DataError, MaskMismatch
from owa_explorer.grid import GridMeta
from owa_explorer.mapstore import MapStore, mask_digest
from owa_explorer.strategy import DecisionPoint, ExperimentalDesign


def _store_from_rows(tmp_path, rows, name="maps.bin"):
    rows = np.asarray(rows, dtype=np.float64)
    digest = mask_digest(rows.shape[1], 1, np.ones(rows.shape[1], dtype=bool))
    store = MapStore.create(tmp_path / name, m=rows.shape[0], pixel_count=rows.shape[1], digest=digest)
    for i in range(rows.shape[0]):
        store.write_row(i, rows[i])
    store.flush()
    return store


def _design_of(m):
    return ExperimentalDesign(
        points=tuple(DecisionPoint(0.1 + 0.8 * i / max(m - 1, 1), 0.1) for i in range(m)),
        seed=0,
        m=m,
    )


def test_pairwise_examples(tmp_path):
    store = _store_from_rows(tmp_path, [[0.0, 0.0], [0.0, 0.0], [0.3, 0.4], [1.0, 0.0]])
    dm = pairwise_euclidean(store)
    assert dm.d[0, 1] == 0.0
    assert dm.d[0, 3] == pytest.approx(1.0, abs=1e-15)
    assert dm.d[0, 2] == pytest.approx(0.5, abs=1e-15)


def test_pairwise_properties(tmp_path):
    rng = np.random.default_rng(8)
    store = _store_from_rows(tmp_path, rng.random((12, 30)))
    dm = pairwise_euclidean(store)
    assert np.array_equal(dm.d, dm.d.T)
    assert (np.diag(dm.d) == 0.0).all()
    for a, b, c in rng.integers(0, 12, size=(200, 3)):
        assert dm.d[a, c] <= dm.d[a, b] + dm.d[b, c] + 1e-9


@pytest.mark.parametrize("pixels", [1, 1023, 1024, 1025, 3000])
def test_pairwise_matches_per_row_oracle(tmp_path, pixels):
    # one short chunk, one full chunk, a 1-pixel tail chunk and three
    # chunks; rows 3 and 7 repeat rows 0 and 5, so they must be exactly 0 apart
    rng = np.random.default_rng(12 + pixels)
    rows = rng.random((9, pixels))
    rows[3], rows[7] = rows[0], rows[5]
    d = pairwise_euclidean(_store_from_rows(tmp_path, rows)).d
    _check_against_per_row_oracle(d, rows)
    assert d[0, 3] == 0.0 and d[5, 7] == 0.0


def test_pairwise_matches_per_row_oracle_on_acceptance_store(pipeline_run):
    out, _, _ = pipeline_run
    store = MapStore.open(out / "maps.bin")
    _check_against_per_row_oracle(pairwise_euclidean(store).d, store.rows(0, store.m))


def _check_against_per_row_oracle(d, rows):
    oracle = pairwise_euclidean_per_row(rows)
    assert np.abs(d - oracle).max() <= 1e-14 * oracle.max()
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0.0).all()


def test_pairwise_digest_check(tmp_path):
    store = _store_from_rows(tmp_path, np.zeros((3, 4)))
    with pytest.raises(MaskMismatch):
        pairwise_euclidean(store, expected_digest=b"\x00" * 32)


def test_ward_two_points(tmp_path):
    dm = DissimilarityMatrix(m=2, d=np.array([[0.0, 3.5], [3.5, 0.0]]))
    tree = ward_linkage(dm)
    assert len(tree.merges) == 1
    a, b, height, size = tree.merges[0]
    assert (a, b) == (0, 1) and size == 2
    assert height == pytest.approx(3.5, abs=1e-12)


def test_ward_three_points_hand_computed(tmp_path):
    # 1-D maps at 0, 1, 5: merge {0,1} at height 1, then with {5} at sqrt(27)
    x = np.array([[0.0], [1.0], [5.0]])
    d = np.abs(x - x.T)
    tree = ward_linkage(DissimilarityMatrix(m=3, d=d))
    (a0, b0, h0, s0), (a1, b1, h1, s1) = tree.merges
    assert (a0, b0, s0) == (0, 1, 2)
    assert h0 == pytest.approx(1.0, abs=1e-12)
    assert (a1, b1, s1) == (2, 3, 3)  # leaf 2 with the new cluster (id 3)
    assert h1 == pytest.approx(math.sqrt(27.0), abs=1e-9)


def test_ward_heights_non_decreasing(tmp_path):
    rng = np.random.default_rng(31)
    X = rng.random((40, 6))
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    tree = ward_linkage(DissimilarityMatrix(m=40, d=d))
    heights = [m[2] for m in tree.merges]
    for a, b in zip(heights, heights[1:]):
        assert b >= a - 1e-12


def test_ward_matches_brute_force_oracle():
    rng = np.random.default_rng(77)
    for trial in range(50):
        m = int(rng.integers(3, 9))
        dim = int(rng.integers(1, 5))
        X = rng.random((m, dim))
        d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        tree = ward_linkage(DissimilarityMatrix(m=m, d=d))
        got = merge_tree_members(tree)
        expected = brute_force_ward(X)
        for (ga, gb, gh), (ea, eb, eh) in zip(got, expected):
            assert {ga, gb} == {ea, eb}, f"trial {trial}: partitions differ"
            assert gh == pytest.approx(eh, abs=1e-9)


def test_cut_extremes(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.random((6, 3))
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    tree = ward_linkage(DissimilarityMatrix(m=6, d=d))
    assert cut(tree, 1).tolist() == [1] * 6
    assert sorted(cut(tree, 6).tolist()) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(BadK):
        cut(tree, 0)
    with pytest.raises(BadK):
        cut(tree, 7)


def test_cut_three_points():
    x = np.array([[0.0], [1.0], [5.0]])
    d = np.abs(x - x.T)
    tree = ward_linkage(DissimilarityMatrix(m=3, d=d))
    assert cut(tree, 2).tolist() == [1, 1, 2]


def test_ward_tie_break_smallest_pair():
    # equally spaced points: d(0,1) == d(1,2) == d(2,3); the first merge must
    # take the lexicographically smallest id pair
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    d = np.abs(x - x.T)
    tree = ward_linkage(DissimilarityMatrix(m=4, d=d))
    assert tree.merges[0][:2] == (0, 1)
    # remaining exact tie between (2,3) and the updated pairs resolves the
    # same deterministic way on every run
    again = ward_linkage(DissimilarityMatrix(m=4, d=d))
    assert tree.merges == again.merges
    assert tree.merges[1][:2] == (2, 3)


def test_cut_labels_by_min_member():
    # two obvious pairs; labels must follow ascending smallest member index
    x = np.array([[10.0], [0.0], [10.1], [0.1]])
    d = np.abs(x - x.T)
    tree = ward_linkage(DissimilarityMatrix(m=4, d=d))
    labels = cut(tree, 2)
    assert labels.tolist() == [1, 2, 1, 2]


def test_variance_curve_endpoints(tmp_path):
    rng = np.random.default_rng(14)
    rows = rng.random((10, 25))
    store = _store_from_rows(tmp_path, rows)
    dm = pairwise_euclidean(store)
    tree = ward_linkage(dm)
    curve = variance_ratio_curve(tree, 10)
    assert curve[0] == (1, 1.0)
    assert curve[-1] == (10, 0.0)
    ratios = [r for _, r in curve]
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a + 1e-12
    total = within_variance(store, np.ones(10, dtype=np.int64))
    for k, ratio in curve:
        assert abs(ratio - within_variance(store, cut(tree, k)) / total) <= 1e-12
    # identical maps: no variance at all, by convention 1 at k=1 and 0 beyond
    same = _store_from_rows(tmp_path, np.tile(rows[0], (10, 1)), name="same.bin")
    flat = variance_ratio_curve(ward_linkage(pairwise_euclidean(same)), 10)
    assert flat == [(1, 1.0)] + [(k, 0.0) for k in range(2, 11)]


def test_within_variance_two_routes_agree(tmp_path):
    rng = np.random.default_rng(15)
    store = _store_from_rows(tmp_path, rng.random((12, 30)))
    tree = ward_linkage(pairwise_euclidean(store))
    for k in (1, 2, 3, 5, 8, 12):
        labels = cut(tree, k)
        w1 = within_variance(store, labels)
        w2 = within_variance_via_between(store.rows(0, store.m), labels)
        assert w1 == pytest.approx(w2, rel=1e-6, abs=1e-12)


def test_suggest_k_largest_drop():
    curve = [(1, 1.0), (2, 0.4), (3, 0.35), (4, 0.1), (5, 0.09)]
    assert suggest_k(curve) == 2
    assert suggest_k([(1, 1.0)]) == 1


def test_summaries_identical_maps(tmp_path):
    rows = np.tile(np.linspace(0.0, 1.0, 20), (3, 1))
    store = _store_from_rows(tmp_path, rows)
    meta = GridMeta(ncols=20, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    mask = np.ones(20, dtype=bool)
    summary = cluster_summaries(store, _design_of(3), np.array([1, 1, 1]), meta, mask)
    std = summary.clusters[0].std_map.values
    assert np.abs(std).max() <= 1e-12


def test_summaries_two_point_cluster(tmp_path):
    store = _store_from_rows(tmp_path, [np.zeros(10), np.ones(10)])
    meta = GridMeta(ncols=10, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    mask = np.ones(10, dtype=bool)
    summary = cluster_summaries(store, _design_of(2), np.array([1, 1]), meta, mask)
    info = summary.clusters[0]
    assert np.allclose(info.mean_map.values, 0.5, atol=1e-15)
    assert np.allclose(info.std_map.values, 0.5, atol=1e-15)  # population std over {0, 1}


def test_summaries_singleton(tmp_path):
    rng = np.random.default_rng(16)
    rows = rng.random((3, 8))
    store = _store_from_rows(tmp_path, rows)
    meta = GridMeta(ncols=8, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    mask = np.ones(8, dtype=bool)
    summary = cluster_summaries(store, _design_of(3), np.array([1, 1, 2]), meta, mask)
    singleton = summary.clusters[1]
    assert singleton.members == (2,)
    assert np.array_equal(singleton.mean_map.values, rows[2])
    assert np.abs(singleton.std_map.values).max() <= 1e-15


def test_summaries_mean_bounded_by_members(tmp_path):
    rng = np.random.default_rng(18)
    rows = rng.random((9, 14))
    store = _store_from_rows(tmp_path, rows)
    meta = GridMeta(ncols=14, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    mask = np.ones(14, dtype=bool)
    tree = ward_linkage(pairwise_euclidean(store))
    labels = cut(tree, 3)
    summary = cluster_summaries(store, _design_of(9), labels, meta, mask)
    for info in summary.clusters:
        member_rows = rows[list(info.members)]
        assert (info.mean_map.values >= member_rows.min(axis=0) - 1e-12).all()
        assert (info.mean_map.values <= member_rows.max(axis=0) + 1e-12).all()


def test_summaries_centroid(tmp_path):
    store = _store_from_rows(tmp_path, np.random.default_rng(1).random((4, 6)))
    meta = GridMeta(ncols=6, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    design = ExperimentalDesign(
        points=(
            DecisionPoint(0.1, 0.2), DecisionPoint(0.3, 0.4),
            DecisionPoint(0.5, 0.6), DecisionPoint(0.7, 0.8),
        ),
        seed=0, m=4,
    )
    summary = cluster_summaries(
        store, design, np.array([1, 1, 2, 2]), meta, np.ones(6, dtype=bool)
    )
    assert summary.clusters[0].centroid_r == pytest.approx(0.2)
    assert summary.clusters[1].centroid_t == pytest.approx(0.7)


def test_export_segmentation(tmp_path):
    design = _design_of(4)
    labels = np.array([1, 2, 1, 2])
    csv_text = export_segmentation(design, labels)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "index,r,t,label"
    assert len(lines) == 5
    assert lines[1].startswith("0,") and lines[1].endswith(",1")
    assert lines[2].endswith(",2")
    with pytest.raises(DataError):
        export_segmentation(design, np.array([1, 2]))
