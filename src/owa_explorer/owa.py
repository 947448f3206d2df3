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
from .errors import ConfigError, DataError, NumericalError
from .grid import CriterionStack
from .mapstore import MapStore, mask_digest
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
    stable ascending argsort of the values, in place one _PIXEL_CHUNK of
    pixels at a time: only one chunk's permutation is held beside them."""
    digest = mask_digest(stack.meta.ncols, stack.meta.nrows, stack.valid_mask)
    z, v = stack.value_matrix(), stack.criterion_weights.v
    v_sorted = np.empty_like(z)
    for start in range(0, len(z), _PIXEL_CHUNK):
        part = z[start : start + _PIXEL_CHUNK]
        # mode "clip" (the permutation is in range) writes into out with no temporary
        np.take(v, np.argsort(part, axis=1, kind="stable"), out=v_sorted[start : start + _PIXEL_CHUNK], mode="clip")
        part.sort(axis=1, kind="stable")  # moves equal values as the stable argsort does
    return PixelPermutationCache(z_sorted=z, v_sorted=v_sorted, digest=digest)


def _map_values(cache: PixelPermutationCache, W: np.ndarray, pixels: slice, out: np.ndarray) -> np.ndarray:
    """One map per row of the (maps x n) order weights W over some pixels, as
    (W (V*Z)^T) / (W V^T), written into out (C-contiguous maps x pixels) and
    returned. einsum, unlike a BLAS product, sums each value in the same
    order for any number of rows or pixels, so no byte depends on the chunk."""
    np.einsum("ij,pj->ip", W, cache.v_sorted[pixels] * cache.z_sorted[pixels], out=out)
    out /= np.einsum("ij,pj->ip", W, cache.v_sorted[pixels])
    return out


def map_pass_bytes(m: int, pixel_count: int, n: int, memory_budget: int) -> int:
    """Bytes that batch_compute holds at most for m maps over pixel_count
    pixels and n criteria (float64): d^2 and its Gram temporary, the sorted
    cache, the order weights, and per pixel of one chunk its maps with their
    divisor, a row of V*Z and its mean; ranking holds less. Raises
    ConfigError, naming the need, if memory_budget is below it."""
    chunk = min(pixel_count, _PIXEL_CHUNK)
    need = 8 * (2 * m * m + 2 * pixel_count * n + m * n + chunk * (2 * m + n + 1))
    if need > memory_budget:
        raise ConfigError(
            f"{m} maps over {pixel_count} pixels need memory_budget_mib >= {-(-need >> 20)}, "
            f"got {memory_budget / 2**20:g}"
        )
    return need


def batch_compute(
    stack: CriterionStack, design: ExperimentalDesign, n: int, store_path: str | Path
) -> tuple[MapStore, np.ndarray, np.ndarray]:
    """Compute and persist one map per design point, in design order;
    returns the store it wrote, still open (the caller closes it), the
    (m, n) order weights (one row per map) and the maps' m x m Gram sums
    (see cluster.add_gram).

    Every design point is solved in one array pass. If any has no order
    weights, NumericalError is raised for the smallest failing index, naming
    every failing index, before the pixels are ranked or the store is
    created. One pass over the fixed _PIXEL_CHUNK chunks of pixels then
    evaluates all maps, writes each map's segment to the store and adds
    the chunk's Gram sums, holding no more than map_pass_bytes.
    """
    if n != stack.n:
        raise DataError(f"design expects {n} criteria, stack has {stack.n}")
    m, pixel_count = design.m, int(stack.valid_mask.sum())
    W, failures = generate_weights_batch(design.points, n)
    if failures:
        i, exc = next(iter(failures.items()))
        p = design.points[i]
        every = ", ".join(map(str, failures))
        msg = f"design point {i} (r={p.r}, t={p.t}): {exc}; failing design indices: {every}"
        raise NumericalError(msg) from exc

    cache = rank_pixels(stack)
    store = MapStore.create(store_path, m=m, pixel_count=pixel_count, digest=cache.digest)
    gram, product = np.zeros((m, m)), np.empty((m, m))
    buffer = np.empty(m * min(pixel_count, _PIXEL_CHUNK))  # reused: no chunk pays for fresh pages
    try:
        for start in range(0, pixel_count, _PIXEL_CHUNK):
            width = min(_PIXEL_CHUNK, pixel_count - start)
            cols = _map_values(cache, W, slice(start, start + width), buffer[: m * width].reshape(m, width))
            for i in range(m):
                store.write_row(i, cols[i], start)
            add_gram(gram, cols, product)  # centres cols in place: after the writes
    except BaseException:
        store.close()
        raise
    return store, W, gram
