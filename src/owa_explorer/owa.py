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

from .errors import InfeasibleStrategy, LengthMismatch, NoSolution
from .grid import CriterionStack
from .mapstore import DEFAULT_MEMORY_BUDGET, MapStore, mask_digest, rows_per_block
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


def _map_values(cache: PixelPermutationCache, W: np.ndarray) -> np.ndarray:
    """One map per row of the (maps x n) order weights W, as (W (V*Z)^T) / (W V^T).
    einsum, unlike a BLAS product, sums each value in the same order for any
    number of rows, so the bytes do not depend on the block size."""
    out = np.einsum("ij,pj->ip", W, cache.v_sorted * cache.z_sorted)
    out /= np.einsum("ij,pj->ip", W, cache.v_sorted)
    return out


def batch_compute(
    stack: CriterionStack,
    design: ExperimentalDesign,
    n: int,
    store_path: str | Path,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> tuple[MapStore, np.ndarray]:
    """Compute and persist one map per design point, in design order;
    returns the store and the (m, n) order weights, one row per map.

    Every design point is solved first, in one array pass. If any has no
    order weights, the error of the smallest failing index is raised, naming
    every failing index, before the pixels are ranked or the store is
    created. The maps are then evaluated in blocks sized by the memory
    budget and streamed to a binary store; the bytes do not depend on the
    block size.
    """
    if n != stack.n:
        raise LengthMismatch(f"design expects {n} criteria, stack has {stack.n}")
    W, failures = generate_weights_batch(design.points, n)
    if failures:
        i, exc = next(iter(failures.items()))
        p = design.points[i]
        every = ", ".join(map(str, failures))
        msg = f"design point {i} (r={p.r}, t={p.t}): {exc}; failing design indices: {every}"
        if isinstance(exc, NoSolution):
            raise NoSolution(msg, design_index=i) from exc
        raise InfeasibleStrategy(msg) from exc

    cache = rank_pixels(stack)
    m, pixel_count = W.shape[0], cache.z_sorted.shape[0]
    store = MapStore.create(store_path, m=m, pixel_count=pixel_count, digest=cache.digest)
    try:
        bs = rows_per_block(m, pixel_count, memory_budget)
        for a0 in range(0, m, bs):
            for i, row in enumerate(_map_values(cache, W[a0 : a0 + bs]), start=a0):
                store.write_row(i, row)
            # row views the block; the budget covers only the next block
            # and its temporary, so this one must be gone before them
            del row
    finally:
        store.close()
    return MapStore.open(store_path), W
