"""Ordered weighted averaging over criterion stacks.

Per pixel, criterion values are sorted ascending once; every order-weight
vector then reuses that permutation, which turns an m-map batch from
O(m P n log n) into O(P n log n + m P n). The aggregated value is

    sum_j ( v_(j) w_j / sum_k v_(k) w_k ) * z_(j)

where z_(j) is the j-th smallest criterion value at the pixel and v_(j)
the criterion weight reordered the same way.
"""

from __future__ import annotations

# Unused here: the traced benchmark swaps this name (ROADMAP item 5 drops it).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cluster import _PIXEL_CHUNK, add_gram
from .errors import ConfigError, LengthMismatch, NoSolution
from .grid import CriterionStack
from .mapstore import DEFAULT_MEMORY_BUDGET, MapStore, mask_digest
from .strategy import ExperimentalDesign, generate_weights_batch

# Unused here: the traced benchmark swaps this name (ROADMAP item 5 drops it).
from .strategy import generate_weights  # noqa: F401


@dataclass(frozen=True)
class PixelPermutationCache:
    """Criterion values and weights of every valid pixel, each row sorted
    by ascending value (ties broken by criterion index), and the digest of
    the validity mask they were taken under."""

    z_sorted: np.ndarray  # (valid pixels, n)
    v_sorted: np.ndarray
    digest: bytes


def rank_pixels(stack: CriterionStack) -> PixelPermutationCache:
    """The criterion values and weights of every valid pixel, sorted by a
    stable ascending argsort of the values."""
    z = stack.value_matrix()
    perm = np.argsort(z, axis=1, kind="stable")
    return PixelPermutationCache(
        z_sorted=np.take_along_axis(z, perm, axis=1),
        v_sorted=stack.criterion_weights.v[perm],
        digest=mask_digest(stack.meta.ncols, stack.meta.nrows, stack.valid_mask),
    )


def _map_values(cache: PixelPermutationCache, W: np.ndarray, pixels: slice) -> np.ndarray:
    """One map per row of the (maps x n) order weights W over some pixels, as
    (W (V*Z)^T) / (W V^T). einsum, unlike a BLAS product, sums each value in
    the same order for any number of rows or pixels, so no byte depends on the chunk."""
    out = np.einsum("ij,pj->ip", W, cache.v_sorted[pixels] * cache.z_sorted[pixels])
    out /= np.einsum("ij,pj->ip", W, cache.v_sorted[pixels])
    return out


def chunk_width(m: int, pixel_count: int, n: int, memory_budget: int) -> int:
    """Pixels per chunk of the map pass: the most whole _PIXEL_CHUNKs, or all
    pixels, that memory_budget holds beside d^2 and its Gram temporary, the
    sorted cache and the weights, each chunk with its divisor temporary (all
    float64). Raises ConfigError, naming the need, if not one chunk fits."""
    held, per_pixel = 8 * (2 * m * m + 2 * pixel_count * n + m * n), 8 * 2 * m
    need = held + per_pixel * min(pixel_count, _PIXEL_CHUNK)
    if need > memory_budget:
        raise ConfigError(
            f"{m} maps over {pixel_count} pixels need memory_budget_mib >= {-(-need >> 20)}, "
            f"got {memory_budget / 2**20:g}"
        )
    return min(pixel_count, max(1, (memory_budget - held) // (per_pixel * _PIXEL_CHUNK)) * _PIXEL_CHUNK)


def batch_compute(
    stack: CriterionStack,
    design: ExperimentalDesign,
    n: int,
    store_path: str | Path,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> tuple[MapStore, np.ndarray, np.ndarray]:
    """Compute and persist one map per design point, in design order;
    returns the store it wrote, still open (the caller closes it), the
    (m, n) order weights (one row per map) and the maps' m x m Gram sums
    (see cluster.add_gram).

    After the budget check (see chunk_width), every design point is solved
    in one array pass. If any has no order weights, NoSolution is raised
    for the smallest failing index, naming every failing index, before
    the pixels are ranked or the store is created. One pass over chunks of
    pixels then evaluates all maps, writes each map's segment to the store
    and adds the chunk's Gram sums; no byte depends on the chunk width.
    """
    if n != stack.n:
        raise LengthMismatch(f"design expects {n} criteria, stack has {stack.n}")
    m, pixel_count = design.m, int(stack.valid_mask.sum())
    width = chunk_width(m, pixel_count, n, memory_budget)
    W, failures = generate_weights_batch(design.points, n)
    if failures:
        i, exc = next(iter(failures.items()))
        p = design.points[i]
        every = ", ".join(map(str, failures))
        msg = f"design point {i} (r={p.r}, t={p.t}): {exc}; failing design indices: {every}"
        raise NoSolution(msg, design_index=i) from exc

    cache = rank_pixels(stack)
    store = MapStore.create(store_path, m=m, pixel_count=pixel_count, digest=cache.digest)
    gram, product = np.zeros((m, m)), np.empty((m, m))
    try:
        for start in range(0, pixel_count, width):
            cols = _map_values(cache, W, slice(start, start + width))
            for i in range(m):
                store.write_row(i, cols[i], start)
            add_gram(gram, cols, product)
            del cols  # the budget holds one chunk: this one goes before the next
    except BaseException:
        store.close()
        raise
    return store, W, gram
