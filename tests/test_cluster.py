import json
import math
import mmap
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    brute_force_ward,
    cut_union_find,
    gram_from_store,
    merge_tree_members,
    pairwise_euclidean_chunked,
    pairwise_from_store,
    pairwise_euclidean_per_row,
    ward_linkage_scan,
    within_variance_via_between,
)
import owa_explorer
from owa_explorer import cluster, pipeline
from owa_explorer.cluster import (
    MergeTree,
    cluster_summaries,
    cut,
    suggest_k,
    variance_ratio_curve,
    ward_linkage,
    within_variance,
)
from owa_explorer.errors import DataError
from owa_explorer.grid import GridMeta
from owa_explorer.mapstore import MapStore, mask_digest
from owa_explorer.strategy import DecisionPoint, ExperimentalDesign


def _store_from_rows(tmp_path, rows, name="maps.bin"):
    rows = np.asarray(rows, dtype=np.float64)
    digest = mask_digest(rows.shape[1], 1, np.ones(rows.shape[1], dtype=bool))
    store = MapStore.create(tmp_path / name, m=rows.shape[0], pixel_count=rows.shape[1], digest=digest)
    for i in range(rows.shape[0]):
        store.write_row(i, rows[i])
    store.close()
    return MapStore.open(tmp_path / name)


def _design_of(m):
    return ExperimentalDesign(
        points=tuple(DecisionPoint(0.1 + 0.8 * i / max(m - 1, 1), 0.1) for i in range(m)),
    )


def test_pairwise_examples(tmp_path):
    store = _store_from_rows(tmp_path, [[0.0, 0.0], [0.0, 0.0], [0.3, 0.4], [1.0, 0.0]])
    d = np.sqrt(pairwise_from_store(store)[0])
    assert d[0, 1] == 0.0
    assert d[0, 3] == pytest.approx(1.0, abs=1e-15)
    assert d[0, 2] == pytest.approx(0.5, abs=1e-15)


def test_pairwise_properties(tmp_path):
    rng = np.random.default_rng(8)
    store = _store_from_rows(tmp_path, rng.random((12, 30)))
    d2, _ = pairwise_from_store(store)
    assert np.array_equal(d2, d2.T)
    assert (np.diag(d2) == 0.0).all()
    d = np.sqrt(d2)
    for a, b, c in rng.integers(0, 12, size=(200, 3)):
        assert d[a, c] <= d[a, b] + d[b, c] + 1e-9


@pytest.mark.parametrize("pixels", [1, 1023, 1024, 1025, 3000])
def test_pairwise_matches_per_row_oracle(tmp_path, pixels):
    # one short chunk, one full chunk, a 1-pixel tail chunk and three
    # chunks; rows 3 and 7 repeat rows 0 and 5, so they must be exactly 0 apart
    rng = np.random.default_rng(12 + pixels)
    rows = rng.random((9, pixels))
    rows[3], rows[7] = rows[0], rows[5]
    d = np.sqrt(pairwise_from_store(_store_from_rows(tmp_path, rows))[0])
    _check_against_per_row_oracle(d, rows)
    assert d[0, 3] == 0.0 and d[5, 7] == 0.0


def test_pairwise_matches_per_row_oracle_on_acceptance_store(pipeline_run):
    out, _, _ = pipeline_run
    store = MapStore.open(out / "maps.bin")
    _check_against_per_row_oracle(np.sqrt(pairwise_from_store(store)[0]), store.rows(0, store.m))


def test_gram_recomputes_few_pairs_on_acceptance_store(pipeline_run):
    # the Gram form serves all but a small share of the pairs, and the run
    # records that share in its manifest
    out, _, _ = pipeline_run
    store = MapStore.open(out / "maps.bin")
    _, recomputed = pairwise_from_store(store)
    pairs = store.m * (store.m - 1) // 2
    assert 0 < recomputed <= 0.01 * pairs
    metrics = json.loads((out / "run_manifest.json").read_text())["metrics"]
    assert metrics.pop("distance_pairs_recomputed") == recomputed
    assert set(metrics) == {"map_pass_bytes", "threads", "valid_pixels"}


def test_ward_matches_scan_over_exact_distances_on_acceptance_store(pipeline_run):
    # the chain over Gram distances against the global scan over exact ones:
    # the same merges in the same order, heights to the last few digits
    out, _, _ = pipeline_run
    store = MapStore.open(out / "maps.bin")
    tree = ward_linkage(pairwise_from_store(store)[0])
    exact = ward_linkage_scan(pairwise_euclidean_chunked(store))
    _check_same_tree(tree, exact, rel=1e-11)
    for k in range(1, 16):
        assert np.array_equal(cut(tree, k), cut(exact, k)), k


def test_pairwise_recomputes_across_row_and_pair_blocks(tmp_path):
    # 30 copies of one map, spread over more than one row block, give 435
    # close pairs, more than one pair block, over two pixel chunks: every
    # copy pair must come out exactly 0 apart in both triangles
    m = cluster._BLOCK + 44
    copies = np.linspace(0, m - 1, 30).astype(np.int64)  # the last ones past the first row block
    assert 435 > cluster._BLOCK
    rows = np.random.default_rng(30).random((m, cluster._PIXEL_CHUNK + 76))
    rows[copies] = rows[copies[0]]
    store = _store_from_rows(tmp_path, rows)
    d2, recomputed = pairwise_from_store(store)
    assert recomputed == 435
    assert (d2[np.ix_(copies, copies)] == 0.0).all()
    assert np.array_equal(d2, d2.T) and (np.diag(d2) == 0.0).all()
    np.testing.assert_allclose(d2, pairwise_euclidean_chunked(store), rtol=1e-12, atol=0.0)


def test_pairwise_holds_at_most_one_chunk_beside_d2(tmp_path):
    # the Gram sums are formed by the map pass (its need is tested in
    # test_owa.py); turning them into d^2 in place and reading the store
    # for the recompute holds no more than one chunk of every map
    m = 1000
    store = _store_from_rows(tmp_path, np.random.default_rng(31).random((m, 1500)))
    gram = gram_from_store(store)
    tracemalloc.start()
    try:
        cluster.pairwise_euclidean(store, gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = m * cluster._PIXEL_CHUNK * 8 + (4 << 20)
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB beside d^2, bound {bound / 2**20:.1f} MiB"


def _check_same_tree(tree, reference, rel):
    assert [(a, b, n) for a, b, _, n in tree.merges] == [(a, b, n) for a, b, _, n in reference.merges]
    for (_, _, h, _), (_, _, h_ref, _) in zip(tree.merges, reference.merges):
        assert abs(h - h_ref) <= rel * h_ref


def _check_against_per_row_oracle(d, rows):
    oracle = pairwise_euclidean_per_row(rows)
    assert np.abs(d - oracle).max() <= 1e-14 * oracle.max()
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0.0).all()


def test_pairwise_digest_check(tmp_path):
    store = _store_from_rows(tmp_path, np.zeros((3, 4)))
    with pytest.raises(DataError, match="store was built over a different validity mask$"):
        store.check_digest(b"\x00" * 32)


def test_ward_two_points(tmp_path):
    tree = ward_linkage(np.array([[0.0, 3.5**2], [3.5**2, 0.0]]))
    assert len(tree.merges) == 1
    a, b, height, size = tree.merges[0]
    assert (a, b) == (0, 1) and size == 2
    assert height == pytest.approx(3.5, abs=1e-12)


def test_ward_three_points_hand_computed(tmp_path):
    # 1-D maps at 0, 1, 5: merge {0,1} at height 1, then with {5} at sqrt(27)
    x = np.array([[0.0], [1.0], [5.0]])
    d = np.abs(x - x.T)
    tree = ward_linkage(np.square(d))
    (a0, b0, h0, s0), (a1, b1, h1, s1) = tree.merges
    assert (a0, b0, s0) == (0, 1, 2)
    assert h0 == pytest.approx(1.0, abs=1e-12)
    assert (a1, b1, s1) == (2, 3, 3)  # leaf 2 with the new cluster (id 3)
    assert h1 == pytest.approx(math.sqrt(27.0), abs=1e-9)


def test_ward_heights_non_decreasing(tmp_path):
    rng = np.random.default_rng(31)
    X = rng.random((40, 6))
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    tree = ward_linkage(np.square(d))
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
        tree = ward_linkage(np.square(d))
        got = merge_tree_members(tree)
        expected = brute_force_ward(X)
        for (ga, gb, gh), (ea, eb, eh) in zip(got, expected):
            assert {ga, gb} == {ea, eb}, f"trial {trial}: partitions differ"
            assert gh == pytest.approx(eh, abs=1e-9)


def test_cut_extremes(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.random((6, 3))
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    tree = ward_linkage(np.square(d))
    assert cut(tree, 1).tolist() == [1] * 6
    assert sorted(cut(tree, 6).tolist()) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(DataError, match=re.escape("k must be in [1, 6], got 0")):
        cut(tree, 0)
    with pytest.raises(DataError, match=re.escape("k must be in [1, 6], got 7")):
        cut(tree, 7)


def test_cut_three_points():
    x = np.array([[0.0], [1.0], [5.0]])
    d = np.abs(x - x.T)
    tree = ward_linkage(np.square(d))
    assert cut(tree, 2).tolist() == [1, 1, 2]


def test_ward_tie_break_smallest_pair():
    # equally spaced points: d(0,1) == d(1,2) == d(2,3); the first merge must
    # take the lexicographically smallest id pair
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    d = np.abs(x - x.T)
    tree = ward_linkage(np.square(d))
    assert tree.merges[0][:2] == (0, 1)
    # remaining exact tie between (2,3) and the updated pairs resolves the
    # same deterministic way on every run
    again = ward_linkage(np.square(d))
    assert tree.merges == again.merges
    assert tree.merges[1][:2] == (2, 3)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_ward_matches_scan_on_duplicate_maps(tmp_path, seed):
    # groups of 2 to 5 identical maps merge at height 0; the scan takes
    # the smallest id pair first, so the two smallest members of a group
    # merge first and a merged cluster, whose id exceeds every map's, comes
    # after the group's single maps, whatever order the chain meets them in
    rng = np.random.default_rng(seed)
    rows = rng.random((60, 40))
    bounds = np.cumsum([0, 2, 2, 2, 3, 3, 3, 4, 5])
    members = rng.permutation(60)
    groups = [members[a:b] for a, b in zip(bounds, bounds[1:])]
    for group in groups:
        rows[group[1:]] = rows[group[0]]
    d2, _ = pairwise_from_store(_store_from_rows(tmp_path, rows))
    tree = ward_linkage(d2.copy())
    assert sum(h == 0.0 for _, _, h, _ in tree.merges) == sum(len(g) - 1 for g in groups)
    _check_same_tree(tree, ward_linkage_scan(d2), rel=1e-13)


_BLAS_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
from _oracles import pairwise_from_store
from owa_explorer.cluster import cut, ward_linkage
from owa_explorer.mapstore import MapStore, mask_digest
rows = np.random.default_rng(21).random((300, 16057))
rows[[40, 41, 250]] = rows[7]
rows[199] = rows[100]
path = Path(sys.argv[1])
store = MapStore.create(path, m=300, pixel_count=16057, digest=mask_digest(16057, 1, np.ones(16057, bool)))
for i, row in enumerate(rows):
    store.write_row(i, row)
store.close()
tree = ward_linkage(pairwise_from_store(MapStore.open(path))[0])
print(json.dumps({"merges": tree.merges, "cuts": [cut(tree, k).tolist() for k in (2, 3, 5, 8, 15)]}))
"""


def test_tree_topology_identical_across_blas_threads(tmp_path):
    # the Gram sums may round differently with the BLAS thread count; the
    # merges and cuts may not change, and heights only in the last digits
    src = Path(owa_explorer.__file__).resolve().parent.parent
    runs = []
    for threads in ("1", "2"):
        path = [str(src), str(Path(__file__).parent), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT, str(tmp_path / f"blas{threads}.bin")],
                              env=env, check=True, timeout=300, capture_output=True, text=True)
        runs.append(json.loads(proc.stdout))
    one, two = runs
    assert [m[:2] + m[3:] for m in one["merges"]] == [m[:2] + m[3:] for m in two["merges"]]
    assert one["cuts"] == two["cuts"]
    for m1, m2 in zip(one["merges"], two["merges"]):
        assert abs(m1[2] - m2[2]) <= 1e-12 * m1[2]


@pytest.mark.parametrize("m", [2, 3, 7, 64, 300])
def test_cut_matches_union_find_for_every_k(m):
    # random trees whose duplicate maps merge at height 0, in ties
    rng = np.random.default_rng(m)
    X = rng.random((m, 4))
    source, copy = rng.permutation(m)[: 2 * max(1, m // 4)].reshape(2, -1)
    X[copy] = X[source]
    tree = ward_linkage(np.square(X[:, None, :] - X[None, :, :]).sum(-1))
    assert any(h == 0.0 for _, _, h, _ in tree.merges)
    for k in range(1, m + 1):
        labels = cut(tree, k)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, cut_union_find(tree, k)), k


def test_cut_labels_by_min_member():
    # two obvious pairs; labels must follow ascending smallest member index
    x = np.array([[10.0], [0.0], [10.1], [0.1]])
    d = np.abs(x - x.T)
    tree = ward_linkage(np.square(d))
    labels = cut(tree, 2)
    assert labels.tolist() == [1, 2, 1, 2]


def test_variance_curve_endpoints(tmp_path):
    rng = np.random.default_rng(14)
    rows = rng.random((10, 25))
    store = _store_from_rows(tmp_path, rows)
    tree = ward_linkage(pairwise_from_store(store)[0])
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
    flat = variance_ratio_curve(ward_linkage(pairwise_from_store(same)[0]), 10)
    assert flat == [(1, 1.0)] + [(k, 0.0) for k in range(2, 11)]


def test_within_variance_two_routes_agree(tmp_path):
    rng = np.random.default_rng(15)
    store = _store_from_rows(tmp_path, rng.random((12, 30)))
    tree = ward_linkage(pairwise_from_store(store)[0])
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
    _, stds = cluster_summaries(store, np.array([1, 1, 1]))
    assert stds.shape == (1, 20)
    assert np.abs(stds[0]).max() <= 1e-12


def test_summaries_two_point_cluster(tmp_path):
    store = _store_from_rows(tmp_path, [np.zeros(10), np.ones(10)])
    means, stds = cluster_summaries(store, np.array([1, 1]))
    assert np.allclose(means[0], 0.5, atol=1e-15)
    assert np.allclose(stds[0], 0.5, atol=1e-15)  # population std over {0, 1}


def test_summaries_singleton(tmp_path):
    rng = np.random.default_rng(16)
    rows = rng.random((3, 8))
    store = _store_from_rows(tmp_path, rows)
    means, stds = cluster_summaries(store, np.array([1, 1, 2]))
    assert np.array_equal(means[1], rows[2])
    assert np.abs(stds[1]).max() <= 1e-15


def test_summaries_mean_bounded_by_members(tmp_path):
    rng = np.random.default_rng(18)
    rows = rng.random((9, 14))
    store = _store_from_rows(tmp_path, rows)
    tree = ward_linkage(pairwise_from_store(store)[0])
    labels = cut(tree, 3)
    means, _ = cluster_summaries(store, labels)
    assert means.shape == (3, 14)
    for c, mean in enumerate(means):
        member_rows = rows[labels == c + 1]
        assert (mean >= member_rows.min(axis=0) - 1e-12).all()
        assert (mean <= member_rows.max(axis=0) + 1e-12).all()


def test_summaries_hold_their_two_arrays_and_one_map_row(tmp_path):
    # the means and the squared deviations are divided and rooted in place,
    # and each map is centred in its read buffer: beside the two (k, P)
    # results the traced peak is one map row and a few KiB of objects
    k, pixels = 5, 20000
    store = _store_from_rows(tmp_path, np.random.default_rng(37).random((12, pixels)))
    tracemalloc.start()
    try:
        cluster_summaries(store, np.arange(12) % k + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (2 * k + 1) * pixels + (8 << 10)
    assert peak <= bound, (peak, bound)


def test_summaries_reject_labels_of_another_length(tmp_path):
    store = _store_from_rows(tmp_path, np.zeros((3, 4)))
    with pytest.raises(DataError, match=r"^2 labels for 3 maps$"):
        cluster_summaries(store, np.array([1, 2]))


def test_summaries_reject_a_label_with_no_member(tmp_path):
    store = _store_from_rows(tmp_path, np.zeros((3, 4)))
    with pytest.raises(DataError, match=r"^cluster 2 has no members$"):
        cluster_summaries(store, np.array([1, 3, 3]))


def _two_pair_outputs(tmp_path, design):
    """The cluster outputs of four maps cut into {0, 1} and {2, 3}."""
    store = _store_from_rows(tmp_path, np.random.default_rng(1).random((4, 6)))
    tree = MergeTree(m=4, merges=((0, 1, 0.5, 2), (2, 3, 0.5, 2), (4, 5, 1.0, 4)))
    meta = GridMeta(ncols=6, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    pipeline._cluster_outputs(store, design, tree, 2, meta, np.ones(6, dtype=bool), tmp_path)
    return {name: (tmp_path / name).read_text().strip().split("\n")
            for name in ("segmentation.csv", "cluster_centroids.csv")}


def test_summaries_centroid(tmp_path):
    design = ExperimentalDesign(
        points=(
            DecisionPoint(0.1, 0.2), DecisionPoint(0.3, 0.4),
            DecisionPoint(0.5, 0.6), DecisionPoint(0.7, 0.8),
        ),
    )
    lines = _two_pair_outputs(tmp_path, design)["cluster_centroids.csv"]
    assert lines[0] == "label,members,centroid_r,centroid_t"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [["1", "2"], ["2", "2"]]
    assert float(rows[0][2]) == pytest.approx(0.2)
    assert float(rows[1][3]) == pytest.approx(0.7)


_RESIDENT_SCRIPT = """
import json, resource, sys
from pathlib import Path
import numpy as np
from owa_explorer.cluster import cluster_summaries
from owa_explorer.mapstore import MapStore, mask_digest
m, side = 128, 256  # 64 MiB of maps
path, mask = Path(sys.argv[1]), np.ones(side * side, bool)
rng = np.random.default_rng(5)
store = MapStore.create(path, m=m, pixel_count=mask.size, digest=mask_digest(side, side, mask))
for i in range(m):
    store.write_row(i, rng.random(mask.size))
store.close()
store = MapStore.open(path)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cluster_summaries(store, np.arange(m) % 2 + 1)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
store.close()
print(json.dumps({"grown_kib": grown, "store_kib": m * mask.size * 8 // 1024}))
"""


def test_summaries_keep_no_store_page_resident(tmp_path):
    # the summaries read every map twice; peak RSS may grow by the sums and
    # one row, not by the store (ru_maxrss is in KiB on Linux). A preexec_fn
    # makes the child a fork, not a vfork: a vfork-ed child's ru_maxrss
    # starts at this process's own peak, which would hide any growth.
    src = Path(owa_explorer.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _RESIDENT_SCRIPT, str(tmp_path / "maps.bin")], env=env,
                          check=True, timeout=300, capture_output=True, text=True, preexec_fn=lambda: None)
    rss = json.loads(proc.stdout)
    assert rss["grown_kib"] < rss["store_kib"] / 4, rss

    # nothing maps the file: a store holds arrays it was handed, never a mapping
    store = _store_from_rows(tmp_path, np.zeros((2, 3)), name="small.bin")
    written = MapStore.create(tmp_path / "w.bin", m=2, pixel_count=3, digest=store.digest)
    for s in (store, written):
        assert not [k for k, v in vars(s).items() if isinstance(v, (np.memmap, mmap.mmap))]
        s.close()


def test_export_segmentation(tmp_path):
    design = _design_of(4)
    lines = _two_pair_outputs(tmp_path, design)["segmentation.csv"]
    assert lines[0] == "index,r,t,label"
    assert lines[1:] == [f"{i},{p.r!r},{p.t!r},{label}" for i, (p, label) in enumerate(zip(design.points, [1, 1, 2, 2]))]
