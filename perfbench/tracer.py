"""Spans around the program's public functions, installed from outside.

The program is not edited: each wrapper replaces a function on the module
(or class) where its caller looks the name up, e.g. `pipeline.ward_linkage`
or `owa.generate_weights`, and records a span with its name, start, end,
thread and parent. Parents travel in a context variable; the thread pools
in `owa` and `cluster` are swapped for one that runs each task in a copy of
the submitting context, so spans from pool workers keep the enclosing call
as their parent. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the union of its children's
intervals. Per-layer metrics are named `<layer>.<function>.<quantity>`,
where the layer is the module that defines the function.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

OP = "op"  # root span the harness opens around each measured operation


@dataclass
class Span:
    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    failed: bool
    counts: dict = field(default_factory=dict)


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# Counts taken from a call's arguments and result. The flops and bytes of
# the evaluation kernel and the distance loop are computed from the sizes,
# not measured.
def _design_counts(args, kwargs, result):
    return {"useful": result.m, "proposals": result.n_proposals}


def _evaluate_counts(args, kwargs, result):
    stack, design, n = args[:3]
    maps = len(design.points)
    pixels = int(stack.valid_mask.sum())
    # per map and pixel: 2n products, 2(n-1) sums, one division; reads the
    # sorted values and weights (2n doubles), writes one double
    return {"flops": maps * pixels * (4 * n - 1), "bytes": maps * pixels * (2 * n + 1) * 8}


def _pair_counts(args, kwargs, result):
    store = args[0]
    pairs = store.m * (store.m - 1) // 2
    # per pair and pixel: one difference, one product, one sum
    return {"pairs": pairs, "flops": pairs * 3 * store.pixel_count}


def _row_write_bytes(args, kwargs, result):
    return {"bytes": int(args[2].nbytes)}


def _rows_read(args, kwargs, result):
    store = args[0]
    return {"bytes": int(result.nbytes), "store_passes": result.nbytes / (store.m * store.pixel_count * 8)}


def _text_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _text_out(args, kwargs, result):
    return {"bytes": len(result)}


# (owner under the package, attribute, span name, counter); the owner is
# where the caller looks the name up. A name of None swaps in _ContextPool.
TARGETS = [
    ("strategy", "generate_weights", "strategy.generate_weights", None),
    ("owa", "generate_weights", "strategy.generate_weights", None),
    ("pipeline", "sample_design", "strategy.sample_design", _design_counts),
    ("owa", "rank_pixels", "owa.rank_pixels", None),
    ("pipeline", "batch_compute", "owa.batch_compute", _evaluate_counts),
    ("mapstore.MapStore", "write_row", "mapstore.write_row", _row_write_bytes),
    ("mapstore.MapStore", "rows", "mapstore.rows", _rows_read),
    ("pipeline", "pairwise_euclidean", "cluster.pairwise_euclidean", _pair_counts),
    ("pipeline", "ward_linkage", "cluster.ward_linkage", None),
    ("pipeline", "variance_ratio_curve", "cluster.variance_ratio_curve", None),
    ("cluster", "within_variance", "cluster.within_variance", None),
    ("cluster", "cut", "cluster.cut", None),
    ("pipeline", "cut", "cluster.cut", None),
    ("pipeline", "cluster_summaries", "cluster.cluster_summaries", None),
    ("pipeline", "parse_ascii_grid", "grid.parse_ascii_grid", _text_in),
    ("pipeline", "write_ascii_grid", "grid.write_ascii_grid", _text_out),
    ("pipeline", "build_stack", "grid.build_stack", None),
    ("pipeline", "file_digest", "pipeline.file_digest", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "analyze", "pipeline.analyze", None),
    ("owa", "ThreadPoolExecutor", None, None),
    ("cluster", "ThreadPoolExecutor", None, None),
]
SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS if name})
COUNTED = (
    "owa.batch_compute.flops", "owa.batch_compute.bytes", "mapstore.write_row.bytes",
    "mapstore.rows.bytes", "mapstore.rows.store_passes", "cluster.pairwise_euclidean.pairs",
    "cluster.pairwise_euclidean.flops", "grid.parse_ascii_grid.bytes", "grid.write_ascii_grid.bytes",
)


class Tracer:
    """Installs and removes the wrappers; collects spans while installed."""

    def __init__(self, pkg):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._patches = []
        for path, attr, name, counter in TARGETS:
            owner = functools.reduce(getattr, path.split("."), pkg)
            original = getattr(owner, attr)
            wrapper = _ContextPool if name is None else self._wrap(original, name, counter)
            self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _open(self):
        with self._lock:
            sid = next(self._ids)
        return sid, self._current.get(), self._current.set(sid), time.perf_counter()

    def _close(self, opened, name, failed, counts):
        sid, parent, token, start = opened
        end = time.perf_counter()
        self._current.reset(token)
        span = Span(sid, parent, name, threading.get_ident(), start, end, failed, counts or {})
        with self._lock:
            self.spans.append(span)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(opened, name, True, None)
                raise
            self._close(opened, name, False, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    def op(self, fn):
        """Run one measured operation inside a root span."""
        opened = self._open()
        try:
            return fn()
        finally:
            self._close(opened, OP, False, None)


def _covered(intervals) -> float:
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Span], same_thread: bool = False) -> dict[int, float]:
    """Duration minus the union of the children's intervals, per span id;
    with `same_thread`, only children on the span's own thread count."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if not same_thread or c.thread == s.thread
        ]
        out[s.id] = (s.end - s.start) - _covered(kids)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics, as means per traced operation where they are sums."""
    ops = [s for s in spans if s.name == OP]
    n_ops = max(len(ops), 1)
    own = self_times(spans)
    blocking = self_times(spans, same_thread=True)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def per_op(x):
        return x / n_ops

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        group = by_name.get(name, [])
        durations = np.array([s.end - s.start for s in group])
        counts = defaultdict(float)
        for s in group:
            for key, value in s.counts.items():
                counts[key] += value
        busy = float(durations.sum())
        out[f"{name}.calls"] = per_op(len(group))
        out[f"{name}.busy_s"] = per_op(busy)
        out[f"{name}.self_s"] = per_op(sum(own[s.id] for s in group))
        out[f"{name}.failed"] = per_op(sum(s.failed for s in group))
        out[f"{name}.p50_ms"] = float(np.percentile(durations, 50) * 1e3) if group else 0.0
        out[f"{name}.p99_ms"] = float(np.percentile(durations, 99) * 1e3) if group else 0.0
        for key, value in counts.items():
            out[f"{name}.{key}"] = per_op(value)
    design = {k: sum(s.counts.get(k, 0) for s in by_name["strategy.sample_design"]) for k in ("useful", "proposals")}
    out["strategy.sample_design.accept_ratio"] = design["useful"] / design["proposals"] if design["proposals"] else 0.0
    for key in COUNTED:  # zero where the layer did not run
        out.setdefault(key, 0.0)
    # the batch's counts describe the evaluation kernel inside it
    out["owa.evaluate.flops"] = out.pop("owa.batch_compute.flops")
    out["owa.evaluate.bytes"] = out.pop("owa.batch_compute.bytes")
    pw = "cluster.pairwise_euclidean"
    out[f"{pw}.pairs_per_s"] = out[f"{pw}.pairs"] / out[f"{pw}.busy_s"] if out[f"{pw}.busy_s"] else 0.0
    # the operations run on one thread, which blocks on everything else
    op_thread = ops[0].thread if ops else None
    out["trace.blocking_s"] = per_op(
        sum(blocking[s.id] for s in spans if s.name != OP and s.thread == op_thread)
    )
    return out
