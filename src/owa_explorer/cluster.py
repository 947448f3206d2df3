"""Dissimilarity, Ward clustering and per-cluster map summaries.

Distances are plain Euclidean over valid pixels. The agglomeration follows
the Lance-Williams recurrence on squared distances (the variant that
minimizes within-cluster variance of the maps); reported merge heights are
the unsquared Ward distances. Exact ties pick the smallest (a, b) cluster
id pair, so dendrograms are fully deterministic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadK, DataError, EmptyCluster
from .grid import GridMeta, Raster
from .mapstore import DEFAULT_MEMORY_BUDGET, MapStore, rows_per_block
from .strategy import ExperimentalDesign


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric Euclidean distances between maps, zero diagonal."""

    m: int
    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.shape != (self.m, self.m):
            raise DataError(f"distance matrix shape {d.shape}, expected ({self.m}, {self.m})")
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class MergeTree:
    """m-1 merges of (cluster-a, cluster-b, height, new size).

    Leaves are 0..m-1; the cluster born at step s has id m+s.
    """

    m: int
    merges: tuple[tuple[int, int, float, int], ...]


@dataclass(frozen=True)
class ClusterInfo:
    label: int
    members: tuple[int, ...]
    centroid_r: float
    centroid_t: float
    mean_map: Raster
    std_map: Raster


@dataclass(frozen=True)
class ClusterSummary:
    k: int
    labels: np.ndarray
    clusters: tuple[ClusterInfo, ...]


def pairwise_euclidean(
    store: MapStore,
    expected_digest: bytes | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    workers: int = 1,
) -> DissimilarityMatrix:
    """Distance matrix over all map pairs, computed block-wise.

    Differences are formed directly (no Gram expansion), which keeps tiny
    distances accurate. Block size depends only on the memory budget, so
    results are identical for any worker count.
    """
    if store.m < 2:
        raise DataError(f"need at least 2 maps, got {store.m}")
    if expected_digest is not None:
        store.check_digest(expected_digest)
    m = store.m
    bs = rows_per_block(m, store.pixel_count, memory_budget)
    d = np.zeros((m, m))

    def fill_row(args) -> None:
        i_global, row, block, b0, j0 = args
        diff = block[j0:] - row
        d[i_global, b0 + j0 : b0 + block.shape[0]] = np.sqrt(np.einsum("ij,ij->i", diff, diff))

    for a0 in range(0, m, bs):
        a1 = min(a0 + bs, m)
        ablock = store.rows(a0, a1)
        for b0 in range(a0, m, bs):
            b1 = min(b0 + bs, m)
            bblock = ablock if b0 == a0 else store.rows(b0, b1)
            tasks = [
                (a0 + i, ablock[i], bblock, b0, i + 1 if b0 == a0 else 0)
                for i in range(a1 - a0)
            ]
            if workers <= 1:
                for task in tasks:
                    fill_row(task)
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    list(pool.map(fill_row, tasks))

    d = d + d.T
    return DissimilarityMatrix(m=m, d=d)


def ward_linkage(dm: DissimilarityMatrix) -> MergeTree:
    """Agglomerate by minimum Ward distance (Lance-Williams on d^2)."""
    m = dm.m
    d2 = np.square(dm.d)
    size = np.ones(m, dtype=np.int64)
    ids = np.arange(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    np.fill_diagonal(d2, np.inf)

    merges: list[tuple[int, int, float, int]] = []
    for step in range(m - 1):
        sub = np.where(active)[0]
        block = d2[np.ix_(sub, sub)]
        iu = np.triu_indices(len(sub), k=1)
        vals = block[iu]
        best = vals.min()
        ties = np.nonzero(vals == best)[0]
        pair = min(
            (int(ids[sub[iu[0][t]]]), int(ids[sub[iu[1][t]]])) if ids[sub[iu[0][t]]] < ids[sub[iu[1][t]]]
            else (int(ids[sub[iu[1][t]]]), int(ids[sub[iu[0][t]]]))
            for t in ties
        )
        # slots of the chosen ids
        si = int(sub[np.nonzero(ids[sub] == pair[0])[0][0]])
        sj = int(sub[np.nonzero(ids[sub] == pair[1])[0][0]])

        ni, nj = size[si], size[sj]
        dij2 = d2[si, sj]
        merges.append((pair[0], pair[1], float(np.sqrt(dij2)), int(ni + nj)))

        others = sub[(sub != si) & (sub != sj)]
        nk = size[others]
        d2new = ((ni + nk) * d2[others, si] + (nj + nk) * d2[others, sj] - nk * dij2) / (
            ni + nj + nk
        )
        d2[others, si] = d2new
        d2[si, others] = d2new
        size[si] = ni + nj
        ids[si] = m + step
        active[sj] = False

    return MergeTree(m=m, merges=tuple(merges))


def cut(tree: MergeTree, k: int) -> np.ndarray:
    """Labels 1..k after undoing the last k-1 merges, numbered by ascending
    minimum member index."""
    m = tree.m
    if not (1 <= k <= m):
        raise BadK(f"k must be in [1, {m}], got {k}")
    parent = {i: i for i in range(m)}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(m - k):
        a, b, _, _ = tree.merges[step]
        new = m + step
        parent[new] = new
        parent[find(a)] = new
        parent[find(b)] = new

    roots: dict[int, list[int]] = {}
    for i in range(m):
        roots.setdefault(find(i), []).append(i)
    groups = sorted(roots.values(), key=lambda g: g[0])
    labels = np.zeros(m, dtype=np.int64)
    for label, group in enumerate(groups, start=1):
        labels[group] = label
    return labels


def _each_row(store: MapStore, memory_budget: int):
    """(index, row) over the whole store, read in budget-sized blocks."""
    bs = rows_per_block(store.m, store.pixel_count, memory_budget)
    for a0 in range(0, store.m, bs):
        yield from enumerate(store.rows(a0, min(a0 + bs, store.m)), start=a0)


def _cluster_means(store: MapStore, labels: np.ndarray, memory_budget: int) -> tuple[np.ndarray, np.ndarray]:
    k = int(labels.max())
    sums = np.zeros((k, store.pixel_count))
    counts = np.bincount(labels - 1, minlength=k).astype(np.int64)
    if (counts == 0).any():
        raise EmptyCluster(f"cluster {int(np.argmax(counts == 0)) + 1} has no members")
    for i, row in _each_row(store, memory_budget):
        sums[labels[i] - 1] += row
    return sums / counts[:, None], counts


def within_variance(store: MapStore, labels: np.ndarray, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> float:
    """Sum over maps of the squared distance to their cluster mean.

    The direct route, off the run path: tests check the variance curve
    against it.
    """
    means, _ = _cluster_means(store, labels, memory_budget)
    return sum(
        float(np.square(row - means[labels[i] - 1]).sum()) for i, row in _each_row(store, memory_budget)
    )


def variance_ratio_curve(tree: MergeTree, k_max: int) -> list[tuple[int, float]]:
    """Within-group over total variance for k = 1..k_max cuts of one tree.

    A Ward merge at height h adds h^2/2 to the within-cluster sum of
    squares, so the cut into k clusters holds W(k) = sum of h^2/2 over the
    first m-k merges and the ratio is W(k) / W(1). Identical maps (W(1) = 0)
    give 1 at k = 1 and 0 beyond.
    """
    m = tree.m
    if not (1 <= k_max <= m):
        raise BadK(f"k_max must be in [1, {m}], got {k_max}")
    w = np.concatenate(([0.0], np.cumsum([0.5 * h * h for _, _, h, _ in tree.merges])))
    total = w[m - 1]
    return [
        (k, float(w[m - k] / total) if total > 0.0 else (1.0 if k == 1 else 0.0))
        for k in range(1, k_max + 1)
    ]


def suggest_k(curve: list[tuple[int, float]]) -> int:
    """Cluster count after the largest drop of the variance ratio.

    A suggestion only; the curve itself is the deliverable and the final k
    is the user's call.
    """
    if len(curve) < 2:
        return curve[0][0] if curve else 1
    drops = [(curve[i - 1][1] - curve[i][1], curve[i][0]) for i in range(1, len(curve))]
    return max(drops, key=lambda x: (x[0], -x[1]))[1]


def cluster_summaries(
    store: MapStore,
    design: ExperimentalDesign,
    labels: np.ndarray,
    meta: GridMeta,
    valid_mask: np.ndarray,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> ClusterSummary:
    """Cellwise mean and population standard deviation per cluster, plus the
    (r, t) centroid of the member design points."""
    if len(labels) != store.m or len(design.points) != store.m:
        raise DataError(
            f"labels ({len(labels)}), design ({len(design.points)}) and store ({store.m}) disagree"
        )
    means, counts = _cluster_means(store, labels, memory_budget)
    k = means.shape[0]
    sq = np.zeros_like(means)
    for i, row in _each_row(store, memory_budget):
        c = labels[i] - 1
        sq[c] += np.square(row - means[c])
    stds = np.sqrt(sq / counts[:, None])

    infos = []
    for c in range(k):
        members = tuple(int(i) for i in np.nonzero(labels == c + 1)[0])
        if not members:
            raise EmptyCluster(f"cluster {c + 1} has no members")
        rs = [design.points[i].r for i in members]
        ts = [design.points[i].t for i in members]
        mean_vals = np.full(meta.size, meta.nodata_value)
        std_vals = np.full(meta.size, meta.nodata_value)
        mean_vals[valid_mask] = means[c]
        std_vals[valid_mask] = stds[c]
        infos.append(
            ClusterInfo(
                label=c + 1,
                members=members,
                centroid_r=float(np.mean(rs)),
                centroid_t=float(np.mean(ts)),
                mean_map=Raster(meta, mean_vals),
                std_map=Raster(meta, std_vals),
            )
        )
    return ClusterSummary(k=k, labels=labels, clusters=tuple(infos))


def export_segmentation(design: ExperimentalDesign, labels: np.ndarray) -> str:
    """CSV rows (index, r, t, label) in design order."""
    if len(labels) != len(design.points):
        raise DataError(f"{len(labels)} labels for {len(design.points)} design points")
    lines = ["index,r,t,label"]
    for i, p in enumerate(design.points):
        lines.append(f"{i},{p.r!r},{p.t!r},{int(labels[i])}")
    return "\n".join(lines) + "\n"
