"""Dissimilarity, Ward clustering and per-cluster map summaries.

Distances are plain Euclidean over valid pixels, and stay squared from the
Gram sums to the agglomeration, which follows the Lance-Williams recurrence
on squared distances (the variant that minimizes within-cluster variance
of the maps); reported merge heights are the unsquared Ward distances.
Ties go to the smallest cluster id, so dendrograms are fully deterministic.
"""

from __future__ import annotations

import heapq
import math

# Unused here: the traced benchmark swaps this name (ROADMAP item 5 drops it).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .mapstore import MapStore

# Pixels per chunk of the distance sums, and the unit of the map pass's
# chunks. The summation order, and so the bytes of every distance, depend
# on it: it must stay a constant.
_PIXEL_CHUNK = 1024
# A pair whose Gram-form d^2 is below this share of g_i + g_j (the squared
# norms of the centred maps) is recomputed from exact differences: the
# Gram form's absolute error scales with g_i + g_j, so its relative error
# grows as d^2 shrinks against them.
_RECOMPUTE_BELOW = 1e-3
# Rows of d^2 formed, and close pairs recomputed, at a time; no distance depends on it.
_BLOCK = 64


@dataclass(frozen=True)
class MergeTree:
    """m-1 merges of (cluster-a, cluster-b, height, new size).

    Leaves are 0..m-1; the cluster born at step s has id m+s. Each step
    must join two distinct live clusters into one of their summed size at
    a finite height >= 0; DataError names the first step that does not.
    """

    m: int
    merges: tuple[tuple[int, int, float, int], ...]

    def __post_init__(self):
        m, n = self.m, len(self.merges)
        if n != m - 1:
            raise DataError(f"step {min(n, m - 1)}: {m} maps need {m - 1} merges, the tree holds {n}")
        sizes = dict.fromkeys(range(m), 1)  # live cluster id -> member count
        for step, (a, b, height, new_size) in enumerate(self.merges):
            if a == b:
                raise DataError(f"step {step}: merges cluster {a} with itself")
            for c in (a, b):
                if c not in sizes:
                    state = "was merged before" if 0 <= c < m + step else "does not exist yet"
                    raise DataError(f"step {step}: cluster {c} {state}")
            if new_size != sizes[a] + sizes[b]:
                raise DataError(
                    f"step {step}: new_size {new_size}, but clusters {a} and {b} hold {sizes[a]} + {sizes[b]}"
                )
            if not (math.isfinite(height) and height >= 0.0):
                raise DataError(f"step {step}: height {height!r} is not finite and >= 0")
            del sizes[a], sizes[b]
            sizes[m + step] = new_size


def add_gram(gram: np.ndarray, cols: np.ndarray, product: np.ndarray) -> None:
    """Add to the m x m gram the Gram sums of cols, one fixed _PIXEL_CHUNK
    chunk of all maps (the last may be shorter): cols centred in place by
    its per-pixel mean (which moves no distance), times its transpose,
    formed in the m x m scratch buffer product."""
    cols -= cols.mean(axis=0)
    gram += np.matmul(cols, cols.T, out=product)


def pairwise_euclidean(store: MapStore, gram: np.ndarray) -> tuple[np.ndarray, int]:
    """Squared Euclidean distances over all map pairs from the Gram sums of
    the store's maps (see add_gram), close pairs recomputed from exact
    differences.

    In place, _BLOCK rows at a time, gram becomes d_ij^2 = -2 G_ij + (g_i + g_j)
    with g its diagonal, in both triangles alike (G is symmetric). Every
    pair with d_ij^2 below _RECOMPUTE_BELOW (g_i + g_j) is summed again from
    exact differences over the same chunks, in ascending order: each chunk
    of each map in a close pair is read from the store once, and the pairs
    are summed from it _BLOCK at a time, so tiny distances stay accurate
    and identical maps exactly 0 apart. Returns the symmetric m x m d^2 (gram
    itself; zero diagonal, unrooted) and the number recomputed.
    """
    if store.m < 2:
        raise DataError(f"need at least 2 maps, got {store.m}")
    m, pixels, d2 = store.m, store.pixel_count, gram
    g = d2.diagonal().copy()
    close = []
    for start in range(0, m, _BLOCK):
        block = d2[start : start + _BLOCK]
        norms = g[start : start + _BLOCK, None] + g
        block *= -2.0
        block += norms
        i, j = np.nonzero(np.triu(block < _RECOMPUTE_BELOW * norms, start + 1))
        close.append((i + start, j))
    first, second = (np.concatenate(ij) for ij in zip(*close))
    used, local = np.unique(np.concatenate((first, second)), return_inverse=True)
    i, j = local[: first.size], local[first.size :]
    sums = np.zeros(first.size)
    buffer = np.empty(used.size * min(pixels, _PIXEL_CHUNK))
    for chunk in range(0, pixels, _PIXEL_CHUNK):
        width = min(_PIXEL_CHUNK, pixels - chunk)
        seg = store.segments(used, chunk, chunk + width, out=buffer[: used.size * width].reshape(-1, width))
        for start in range(0, first.size, _BLOCK):
            diff = seg[j[start : start + _BLOCK]]
            diff -= seg[i[start : start + _BLOCK]]
            sums[start : start + _BLOCK] += np.einsum("ij,ij->i", diff, diff)
    d2[first, second] = d2[second, first] = sums
    return d2, int(first.size)


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
        raise DataError(f"k must be in [1, {m}], got {k}")
    root = list(range(2 * m - k))  # each id's parent among the first m-k merges, or itself
    for step, (a, b, _, _) in enumerate(tree.merges[: m - k]):
        root[a] = root[b] = m + step
    for x in reversed(range(2 * m - k)):  # a parent's id exceeds its children's: its root is final
        root[x] = root[root[x]]
    label: dict[int, int] = {}  # root -> label, numbered by first member
    return np.array([label.setdefault(r, len(label) + 1) for r in root[:m]], dtype=np.int64)


def _each_row(store: MapStore):
    """The store's maps in index order, each read into the same buffer."""
    row = np.empty((1, store.pixel_count))
    for i in range(store.m):
        yield store.rows(i, i + 1, out=row)[0]


def _cluster_means(store: MapStore, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = int(labels.max())
    sums = np.zeros((k, store.pixel_count))
    counts = np.bincount(labels - 1, minlength=k).astype(np.float64)  # divides without a cast buffer
    if (counts == 0).any():
        raise DataError(f"cluster {int(np.argmax(counts == 0)) + 1} has no members")
    for i, row in enumerate(_each_row(store)):
        sums[labels[i] - 1] += row
    sums /= counts[:, None]
    return sums, counts


def within_variance(store: MapStore, labels: np.ndarray) -> float:
    """Sum over maps of the squared distance to their cluster mean.

    The direct route, off the run path: tests check the variance curve
    against it.
    """
    means, _ = _cluster_means(store, labels)
    return sum(
        float(np.square(row - means[labels[i] - 1]).sum()) for i, row in enumerate(_each_row(store))
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
        raise DataError(f"k_max must be in [1, {m}], got {k_max}")
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


def cluster_summaries(store: MapStore, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise mean and population standard deviation of each cluster's
    maps: two (k, pixel_count) arrays whose row c holds label c + 1, and
    besides them one map row at a time."""
    if len(labels) != store.m:
        raise DataError(f"{len(labels)} labels for {store.m} maps")
    means, counts = _cluster_means(store, labels)
    sq = np.zeros_like(means)
    for i, row in enumerate(_each_row(store)):
        c = labels[i] - 1
        row -= means[c]
        sq[c] += np.square(row, out=row)
    sq /= counts[:, None]
    return means, np.sqrt(sq, out=sq)
