"""Dissimilarity, Ward clustering and per-cluster map summaries.

Distances are plain Euclidean over valid pixels, and stay squared from the
Gram sums to the agglomeration, which follows the Lance-Williams recurrence
on squared distances (the variant that minimizes within-cluster variance
of the maps); reported merge heights are the unsquared Ward distances.
Ties go to the smallest cluster id, so dendrograms are fully deterministic.
"""

from __future__ import annotations

import heapq

# Unused here: the traced benchmark swaps this name (ROADMAP item 5 drops it).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .errors import BadK, DataError, EmptyCluster
from .grid import GridMeta, Raster
from .mapstore import DEFAULT_MEMORY_BUDGET, MapStore, rows_per_block
from .strategy import ExperimentalDesign

# Pixels per chunk of the distance sums. The summation order, and so the
# bytes of every distance, depend on it: it must stay a constant.
_PIXEL_CHUNK = 1024
# A pair whose Gram-form d^2 is below this share of g_i + g_j (the squared
# norms of the centred maps) is recomputed from exact differences: the
# Gram form's absolute error scales with g_i + g_j, so its relative error
# grows as d^2 shrinks against them.
_RECOMPUTE_BELOW = 1e-3


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


def pairwise_euclidean(store: MapStore, expected_digest: bytes | None = None) -> tuple[np.ndarray, int]:
    """Squared Euclidean distances over all map pairs, from a Gram matrix
    with close pairs recomputed from exact differences.

    Each fixed chunk of _PIXEL_CHUNK pixels of every map is centred by its
    per-pixel mean, which moves no distance, and its Gram matrix G is
    summed; then d_ij^2 = g_i + g_j - 2 G_ij with g the diagonal of G.
    Every pair with d_ij^2 below _RECOMPUTE_BELOW (g_i + g_j) is summed
    again from exact differences over the same chunks, so tiny distances
    stay accurate and identical maps exactly 0 apart. Returns the
    symmetric m x m array of d^2 (zero diagonal, no square root taken) and
    the number of pairs recomputed.
    """
    if store.m < 2:
        raise DataError(f"need at least 2 maps, got {store.m}")
    if expected_digest is not None:
        store.check_digest(expected_digest)
    m = store.m
    gram = np.zeros((m, m))
    for cols in _column_chunks(store):
        cols -= cols.mean(axis=0)
        gram += cols @ cols.T
    g = np.diag(gram)
    norms = g[:, None] + g[None, :]
    d2 = np.triu(norms - 2.0 * gram, 1)
    close_i, close_j = np.nonzero(np.triu(d2 < _RECOMPUTE_BELOW * norms, 1))
    if close_i.size:
        d2[close_i, close_j] = _exact_sq_distances(store, close_i, close_j)
    d2 += d2.T
    return d2, int(close_i.size)


def _column_chunks(store: MapStore):
    """Every map's pixels in fixed chunks of _PIXEL_CHUNK, as m x width arrays."""
    for start in range(0, store.pixel_count, _PIXEL_CHUNK):
        yield store.columns(start, min(start + _PIXEL_CHUNK, store.pixel_count))


def _exact_sq_distances(store: MapStore, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Sum of squared differences of each map pair (first[p], second[p]),
    first sorted, over the fixed pixel chunks."""
    out = np.zeros(first.size)
    maps, starts = np.unique(first, return_index=True)
    ends = [*starts[1:], first.size]
    for chunk in _column_chunks(store):
        for i, a, b in zip(maps, starts, ends):
            diff = chunk[second[a:b]] - chunk[i]
            out[a:b] += np.einsum("ij,ij->i", diff, diff)
    return out


def ward_linkage(d2: np.ndarray) -> MergeTree:
    """Agglomerate by minimum Ward distance (Lance-Williams on the symmetric
    m x m squared distances d2). The chain works in place: d2 is
    overwritten.

    Ward's distance is reducible, so a nearest-neighbour chain finds the
    merges of a global minimum scan in O(m^2) time (Muellner 2011,
    arXiv:1109.2378, section 3): follow nearest neighbours until two are
    each other's, merge them, and go on from the rest of the chain. Ties
    go to the neighbour with the smallest cluster id, which makes groups of
    identical maps merge as the scan merges them. The merges are then
    replayed in the scan's order (see _scan_order). Where two merges tie
    at a nonzero height, the chain's Lance-Williams updates, made in
    another order than the scan's, may round the tie apart or resolve it
    differently.
    """
    m = d2.shape[0]
    np.fill_diagonal(d2, np.inf)
    size = np.ones(m, dtype=np.int64)
    ids = np.arange(m, dtype=np.int64)  # chain id of the cluster in each slot
    active = np.ones(m, dtype=bool)
    chain: list[int] = []
    merges: list[tuple[int, int, float, int]] = []  # in chain order, chain ids
    for step in range(m - 1):
        if not chain:
            chain.append(int(np.argmax(active)))
        while True:
            row = d2[chain[-1]]
            ties = np.flatnonzero(row == row.min())
            nearest = int(ties[np.argmin(ids[ties])])
            if len(chain) > 1 and nearest == chain[-2]:
                break
            chain.append(nearest)
        si, sj = chain.pop(), chain.pop()
        ni, nj = size[si], size[sj]
        dij2 = d2[si, sj]
        merges.append((int(ids[si]), int(ids[sj]), float(dij2), int(ni + nj)))

        # inactive slots and the pair itself hold inf and stay inf
        d2new = ((ni + size) * d2[si] + (nj + size) * d2[sj] - size * dij2) / (ni + nj + size)
        d2[si] = d2new
        d2[:, si] = d2new
        d2[sj] = np.inf
        d2[:, sj] = np.inf
        size[si] = ni + nj
        ids[si] = m + step
        active[sj] = False
    return MergeTree(m=m, merges=_scan_order(m, merges))


def _scan_order(m: int, merges: list[tuple[int, int, float, int]]) -> tuple:
    """The chain's merges as the global scan makes them: always the lowest
    d^2 among merges whose two clusters exist, exact ties to the smallest
    (a, b) id pair, the cluster born at step s numbered m+s, heights
    unsquared."""
    parent = {}
    for t, (a, b, _, _) in enumerate(merges):
        parent[a] = parent[b] = t
    scan_id: dict[int, int] = {i: i for i in range(m)}  # chain id -> scan id
    heap: list[tuple[float, int, int, int]] = []

    def push_if_ready(t: int) -> None:
        a, b, h2, _ = merges[t]
        if a in scan_id and b in scan_id:
            heapq.heappush(heap, (h2, *sorted((scan_id[a], scan_id[b])), t))

    for t in range(len(merges)):
        push_if_ready(t)
    out = []
    while heap:
        h2, a, b, t = heapq.heappop(heap)
        scan_id[m + t] = m + len(out)
        out.append((a, b, float(np.sqrt(h2)), merges[t][3]))
        if m + t in parent:
            push_if_ready(parent[m + t])
    return tuple(out)


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
