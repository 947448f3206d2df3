"""Ordered weighted averaging over criterion stacks.

Per pixel, criterion values are sorted ascending once; every order-weight
vector then reuses that permutation, which turns an m-map batch from
O(m P n log n) into O(P n log n + m P n). The aggregated value is

    sum_j ( v_(j) w_j / sum_k v_(k) w_k ) * z_(j)

where z_(j) is the j-th smallest criterion value at the pixel and v_(j)
the criterion weight reordered the same way.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .cluster import _PIXEL_CHUNK, add_gram
from .errors import ConfigError, DataError, NumericalError
from .grid import CriterionStack
from .mapstore import MapStore, mask_digest
from .strategy import ExperimentalDesign, generate_weights_batch

# Unused here: the traced benchmark swaps this name (ROADMAP item 5 drops it).
from .strategy import generate_weights  # noqa: F401


def pool_size(items: int, threads: int | None = None) -> int:
    """Threads that pool_map runs `items` items on: `threads`, by default
    the CPUs this process may run on, at most one per item, at least one."""
    if threads is None:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(threads, items))


def pool_map(fn: Callable, items: Sequence, threads: int | None = None) -> list:
    """[fn(item) for item in items], computed by the calling thread and
    pool_size(len(items), threads) - 1 helper threads, each taking the next
    item not yet taken. After a call raises, no further item is started;
    once every running call has returned, the failure of the first failed
    item in order is raised. No helper outlives the call, and one thread
    runs everything on the caller without starting any."""
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    order, lock = iter(range(len(items))), threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised below, once every running call has returned
                with lock:
                    failures[i] = exc

    helpers = pool_size(len(items), threads) - 1
    if helpers:
        with ThreadPoolExecutor(helpers) as pool:  # leaving the block joins the helpers
            futures = [pool.submit(work) for _ in range(helpers)]
            work()
        for future in futures:
            future.result()
    else:
        work()
    if failures:
        raise failures[min(failures)]
    return results


# Bytes of maps held per round of store writes: the chunk buffer of a
# 1024-map run, so for m above 512 a round is one chunk. No byte depends on it.
_ROUND_BYTES = 8 << 20


def rank_pixels(stack: CriterionStack, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The criterion weights V and products V*Z of the given grid cells,
    each cell's criteria ordered by a stable ascending argsort of its
    values (ties broken by criterion index), as two C-contiguous
    (n, len(cells)) arrays: V transposed and (V*Z) transposed."""
    z = np.empty((stack.n, cells.size))  # filled row by row: np.stack would hold it twice
    for j, layer in enumerate(stack.layers):
        np.take(layer.values, cells, out=z[j])
    order = np.argsort(z, axis=0, kind="stable")
    z.sort(axis=0, kind="stable")  # moves equal values as the stable argsort does
    vt = np.take(stack.criterion_weights.v, order)
    z *= vt
    return vt, z


def _map_values(W: np.ndarray, vt: np.ndarray, vzt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One map per row of the (maps x n) order weights W over the pixels of
    the (n x pixels) V^T and (V*Z)^T, as (W (V*Z)^T) / (W V^T), written into
    out (maps x pixels, any strides) and returned. Each value's numerator
    and divisor are summed over the criteria in index order, one multiply
    and one add per term, whatever the rows, pixels or out, so no byte
    depends on the chunk or round."""
    np.einsum("ij,jp->ip", W, vzt, out=out)
    out /= np.einsum("ij,jp->ip", W, vt)
    return out


def _round_width(m: int, pixel_count: int) -> int:
    """Pixels per round of store writes: _ROUND_BYTES of maps in whole
    _PIXEL_CHUNK chunks, at least one, all pixels when they fit."""
    return min(pixel_count, max(1, _ROUND_BYTES // (8 * m * _PIXEL_CHUNK)) * _PIXEL_CHUNK)


def map_pass_plan(m: int, pixel_count: int, n: int, memory_budget: int, threads: int | None = None) -> tuple[int, int]:
    """The pool size for batch_compute over m maps, pixel_count pixels and
    n criteria (float64), and the bytes the pass then holds at most: d^2
    and its Gram temporary, the order weights, the round buffer of maps and
    the grid cell of each pixel, and per thread, for its chunk, each pixel's
    sorted weights and products (and their order while ranking), each map's
    divisor and numpy's two np.getbufsize() buffers for a strided division.
    The pool is one thread per chunk of the widest round, up to `threads`
    (see pool_size), as many as memory_budget holds, at least one; if even
    one thread exceeds memory_budget, ConfigError names its need."""
    width = _round_width(m, pixel_count)
    fixed = 8 * (2 * m * m + m * n + width * m + pixel_count)
    each = 8 * (min(pixel_count, _PIXEL_CHUNK) * (m + 3 * n) + 2 * np.getbufsize())
    size = max(1, min(pool_size(-(-width // _PIXEL_CHUNK), threads), (memory_budget - fixed) // each))
    need = fixed + size * each
    if need > memory_budget:
        raise ConfigError(
            f"{m} maps over {pixel_count} pixels need memory_budget_mib >= {-(-need >> 20)}, "
            f"got {memory_budget / 2**20:g}"
        )
    return size, need


def batch_compute(
    stack: CriterionStack, design: ExperimentalDesign, n: int, store_path: str | Path, threads: int = 1
) -> tuple[MapStore, np.ndarray, np.ndarray]:
    """Compute and persist one map per design point, in design order;
    returns the store it wrote, still open (the caller closes it), the
    (m, n) order weights (one row per map) and the maps' m x m Gram sums
    (see cluster.add_gram).

    Every design point is solved in one array pass. If any has no order
    weights, NumericalError is raised for the smallest failing index, naming
    every failing index, before the pixels are ranked or the store is
    created. One pass over rounds of whole _PIXEL_CHUNK chunks of pixels
    (see _round_width) then ranks each chunk and evaluates all maps on it,
    the chunks of a round shared out by pool_map over `threads` threads, writes
    each map's segment of the round to the store and adds each chunk's
    Gram sums in chunk order. map_pass_plan gives a pool size that fits a
    memory budget and the bytes the pass then holds at most. No byte
    depends on the thread count.
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

    digest = mask_digest(stack.meta.ncols, stack.meta.nrows, stack.valid_mask)
    store = MapStore.create(store_path, m=m, pixel_count=pixel_count, digest=digest)
    cells = np.flatnonzero(stack.valid_mask)  # the grid cell of each pixel, in store order
    gram, product = np.zeros((m, m)), np.empty((m, m))
    width = _round_width(m, pixel_count)
    buffer = np.empty(m * width)  # reused: no round pays for fresh pages
    try:
        for start in range(0, pixel_count, width):
            maps = buffer[: m * min(width, pixel_count - start)].reshape(m, -1)
            chunks = [slice(c, c + _PIXEL_CHUNK) for c in range(0, maps.shape[1], _PIXEL_CHUNK)]
            pool_map(
                lambda c: _map_values(W, *rank_pixels(stack, cells[start + c.start : start + c.stop]), maps[:, c]),
                chunks,
                threads,
            )
            for i in range(m):
                store.write_row(i, maps[i], start)
            for c in chunks:
                add_gram(gram, maps[:, c], product)  # centres the chunk in place: after the writes
    except BaseException:
        store.close()
        raise
    return store, W, gram
