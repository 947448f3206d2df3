import itertools
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _oracles import gram_from_store, owa_map_per_map, owa_maps_in_criterion_order, value_matrix

import owa_explorer
from owa_explorer.errors import ConfigError, DataError, NumericalError
from owa_explorer.grid import GridMeta, Raster, build_stack
from owa_explorer import owa
from owa_explorer.cluster import _PIXEL_CHUNK, add_gram
from owa_explorer.mapstore import MapStore, mask_digest
from owa_explorer.owa import _map_values, batch_compute, map_pass_plan, pool_map, rank_pixels
from owa_explorer.strategy import (
    DecisionPoint,
    ExperimentalDesign,
    generate_weights,
    generate_weights_batch,
    sample_design,
)


_PIXEL = GridMeta(ncols=1, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)


def _one_pixel_stack(z, v):
    return build_stack([(f"c{j}", Raster(_PIXEL, np.array([x]))) for j, x in enumerate(z)], v)


def _owa_value(z, v, w) -> float:
    """One pixel's OWA value, through the run's ranking and map kernel."""
    vt, vzt = rank_pixels(_one_pixel_stack(z, v), np.arange(1))
    return float(_map_values(np.asarray(w, dtype=np.float64)[None, :], vt, vzt, np.empty((1, 1)))[0, 0])


def test_rank_pixels_examples():
    def order(vals):
        # distinct criterion weights: the pixel's column of vt names the
        # criterion at each rank, and vzt holds those weights times the sorted values
        stack = _one_pixel_stack(vals, [1.0, 2.0, 4.0])
        vt, vzt = rank_pixels(stack, np.arange(1))
        assert vt.shape == vzt.shape == (3, 1)
        assert vzt[:, 0].tolist() == (vt[:, 0] * sorted(vals)).tolist()
        return [int(np.flatnonzero(stack.criterion_weights.v == x)[0]) for x in vt[:, 0]]

    assert order([0.3, 0.1, 0.9]) == [1, 0, 2]
    # tie between criteria 0 and 2 broken by index
    assert order([0.3, 0.1, 0.3]) == [1, 0, 2]
    assert order([0.1, 0.5, 0.9]) == [0, 1, 2]


def test_rank_pixels_of_cell_subsets_match_all_cells():
    # a 7 x 5 grid of 4 criteria drawn from three values, so most cells tie,
    # and one cell holding -0.0 beside a 0.0: any subset of cells ranks as
    # the same columns of the all-cells call, bit for bit, ties in
    # criterion-index order and -0.0 keeping its sign bit
    meta = GridMeta(ncols=7, nrows=5, xllcorner=0, yllcorner=0, cellsize=1)
    z = np.random.default_rng(29).choice([0.0, 0.25, 0.5], size=(4, meta.size))
    z[:, 12] = [0.5, -0.0, 0.0, 0.25]
    v = np.array([1.0, 2.0, 4.0, 8.0])
    stack = build_stack([(f"c{j}", Raster(meta, z[j])) for j in range(4)], v)
    every = np.arange(meta.size)
    vt, vzt = rank_pixels(stack, every)
    for cells in (np.array([12]), np.array([30, 3, 12, 8, 9, 21, 0]), np.arange(5, 16), every):
        sub_vt, sub_vzt = rank_pixels(stack, cells)
        assert sub_vt.shape == sub_vzt.shape == (4, cells.size)
        assert sub_vt.flags.c_contiguous and sub_vzt.flags.c_contiguous
        assert sub_vt.tobytes() == vt[:, cells].tobytes(), cells
        assert sub_vzt.tobytes() == vzt[:, cells].tobytes(), cells
    w = stack.criterion_weights.v
    for cell in every:
        ranked = sorted(range(4), key=lambda j: (z[j, cell], j))
        assert vt[:, cell].tobytes() == w[ranked].tobytes(), cell
        assert vzt[:, cell].tobytes() == (w[ranked] * z[ranked, cell]).tobytes(), cell
    assert vt[:, 12].tolist() == w[[1, 2, 3, 0]].tolist()  # -0.0 ties 0.0 and ranks first, by index
    assert np.signbit(vzt[0, 12]) and not np.signbit(vzt[1, 12])


def test_map_values_sum_the_criteria_in_index_order(synth_stack):
    # bit for bit against the explicit multiply-add loop over the criteria,
    # whatever the chunk width, the rows of W taken, or the strides of out
    # (a column slice of a wider buffer, as the map pass's rounds give it)
    _, stack = synth_stack
    W = np.random.default_rng(19).random((9, stack.n))
    expected = owa_maps_in_criterion_order(value_matrix(stack), stack.criterion_weights.v, W)
    (vt, vzt), pixels = rank_pixels(stack, np.flatnonzero(stack.valid_mask)), expected.shape[1]
    for width in (1, 7, 1024):
        for rows in (np.arange(9), np.array([2, 3, 4]), np.array([7, 0, 7])):
            wide = np.full((len(rows), pixels + 5), np.nan)
            for start in range(0, pixels, width):
                out = wide[:, 2 + start : 2 + min(start + width, pixels)]
                cols = slice(start, start + width)
                assert _map_values(W[rows], vt[:, cols], vzt[:, cols], out) is out
            assert wide[:, 2 : 2 + pixels].tobytes() == expected[rows].tobytes(), (width, rows)


def test_owa_value_min_corner():
    assert _owa_value([0.2, 0.8], [0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.2, abs=1e-15)


def test_owa_value_uniform_equals_wlc():
    got = _owa_value([0.2, 0.8], [0.75, 0.25], [0.5, 0.5])
    assert got == pytest.approx(0.75 * 0.2 + 0.25 * 0.8, abs=1e-15)
    assert got == pytest.approx(0.35, abs=1e-12)


def test_owa_value_hand_computed():
    got = _owa_value([0.1, 0.5, 0.9], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
    assert got == pytest.approx(0.145 / 0.29, abs=1e-12)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_owa_value_max_corner():
    assert _owa_value([0.6, 0.1, 0.9], [0.5, 0.3, 0.2], [0.0, 0.0, 1.0]) == pytest.approx(
        0.9, abs=1e-15
    )


def test_batch_corners_on_small_stack(tmp_path, small_stack):
    store, _, _ = batch_compute(small_stack, _corner_design(), small_stack.n, tmp_path / "maps.bin")
    # the store holds the valid pixels only: nodata cells never enter a map
    assert store.pixel_count == int(small_stack.valid_mask.sum()) < small_stack.meta.size
    z = value_matrix(small_stack)
    v = small_stack.criterion_weights.v
    low, high, wlc = store.rows(0, 3)
    assert np.abs(low - z.min(axis=1)).max() <= 1e-12
    assert np.abs(high - z.max(axis=1)).max() <= 1e-12
    assert np.abs(wlc - z @ v).max() <= 1e-12


def test_owa_bounded():
    rng = np.random.default_rng(21)
    for _ in range(80):
        n = int(rng.integers(2, 9))
        z = rng.random(n)
        v = rng.random(n) + 0.05
        w = rng.random(n)
        w = w / w.sum()
        val = _owa_value(z, v, w)
        assert z.min() - 1e-12 <= val <= z.max() + 1e-12


def test_owa_monotone_within_fixed_ordering():
    # with the criterion-weight renormalization, the aggregate is linear in z
    # with non-negative coefficients as long as the sort order is unchanged;
    # crossings with unequal criterion weights can re-couple v and w and are
    # not monotone in general
    rng = np.random.default_rng(23)
    for _ in range(80):
        n = int(rng.integers(2, 9))
        z = np.sort(rng.random(n))
        v = rng.random(n) + 0.05
        w = rng.random(n)
        w = w / w.sum()
        val = _owa_value(z, v, w)
        j = int(rng.integers(n))
        ceiling = z[j + 1] if j + 1 < n else 1.0
        z_up = np.array(z)
        z_up[j] = z[j] + (ceiling - z[j]) * rng.random()  # stays below the next value
        assert _owa_value(z_up, v, w) >= val - 1e-12


def test_owa_monotone_globally_for_uniform_criterion_weights():
    rng = np.random.default_rng(24)
    for _ in range(80):
        n = int(rng.integers(2, 9))
        z = rng.random(n)
        v = np.full(n, 1.0 / n)
        w = rng.random(n)
        w = w / w.sum()
        val = _owa_value(z, v, w)
        j = int(rng.integers(n))
        z_up = np.array(z)
        z_up[j] = min(1.0, z_up[j] + rng.uniform(0.0, 0.5))
        assert _owa_value(z_up, v, w) >= val - 1e-12


def test_owa_scale_invariant_in_v():
    rng = np.random.default_rng(22)
    z = rng.random(5)
    v = rng.random(5) + 0.1
    w = rng.random(5)
    w = w / w.sum()
    a = _owa_value(z, v, w)
    b = _owa_value(z, 7.5 * v, w)
    assert a == pytest.approx(b, abs=1e-13)


def test_owa_idempotent_on_constant():
    v = np.array([0.2, 0.3, 0.5])
    w = np.array([0.6, 0.3, 0.1])
    assert _owa_value([0.42, 0.42, 0.42], v, w) == pytest.approx(0.42, abs=1e-15)


def _corner_design():
    return ExperimentalDesign(
        points=(DecisionPoint(0.0, 0.0), DecisionPoint(1.0, 0.0), DecisionPoint(0.5, 1.0)),
    )


def test_batch_corner_reductions(tmp_path, meta_2x1):
    a = Raster(meta_2x1, np.array([0.2, 0.9]))
    b = Raster(meta_2x1, np.array([0.8, 0.1]))
    stack = build_stack([("a", a), ("b", b)], [0.75, 0.25])
    store, W, _ = batch_compute(stack, _corner_design(), 2, tmp_path / "maps.bin")
    assert store.m == 3
    np.testing.assert_allclose(store.rows(0, 1)[0], [0.2, 0.1], atol=1e-15)  # min
    np.testing.assert_allclose(store.rows(1, 2)[0], [0.8, 0.9], atol=1e-15)  # max
    wlc = 0.75 * np.array([0.2, 0.9]) + 0.25 * np.array([0.8, 0.1])
    np.testing.assert_allclose(store.rows(2, 3)[0], wlc, atol=1e-12)
    assert W.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]


def test_batch_values_in_range(tmp_path, small_stack):
    from owa_explorer.strategy import sample_design

    design = sample_design(25, seed=7)
    store, _, _ = batch_compute(small_stack, design, small_stack.n, tmp_path / "maps.bin")
    data = store.rows(0, store.m)
    assert data.min() >= 0.0 and data.max() <= 1.0


_BATCH_SCRIPT = """
import sys
from pathlib import Path
from owa_explorer.grid import build_stack
from owa_explorer.owa import batch_compute
from owa_explorer.pipeline import load_stack_manifest
from owa_explorer.strategy import sample_design
layers, weights, _ = load_stack_manifest(sys.argv[1])
stack = build_stack(layers, weights)
batch_compute(stack, sample_design(16, seed=7), stack.n, Path(sys.argv[2]))
"""


def test_batch_bytes_identical_across_block_sizes_and_blas_threads(tmp_path, synth_stack, small_stack):
    # the pass's fixed chunks write the whole rows that one evaluation over
    # all pixels gives, and sum the Gram of the oracle's chunks, bit for
    # bit: on a stack whose last chunk is short and on one smaller than a chunk
    manifest, stack = synth_stack
    design = sample_design(16, seed=7)
    for name, s in (("synth", stack), ("small", small_stack)):
        store, W, gram = batch_compute(s, design, s.n, tmp_path / f"{name}.bin")
        with store:
            ranked = rank_pixels(s, np.flatnonzero(s.valid_mask))
            rows = _map_values(W, *ranked, np.empty((store.m, store.pixel_count)))
            assert store.rows(0, store.m).tobytes() == rows.tobytes(), name
            assert gram.tobytes() == gram_from_store(store).tobytes(), name
    pixels = int(stack.valid_mask.sum())
    assert pixels % _PIXEL_CHUNK and pixels > _PIXEL_CHUNK
    assert int(small_stack.valid_mask.sum()) < _PIXEL_CHUNK
    expected = (tmp_path / "synth.bin").read_bytes()

    src = Path(owa_explorer.__file__).resolve().parent.parent
    for threads in ("1", "2"):
        path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(path)}
        out = tmp_path / f"blas{threads}.bin"
        subprocess.run([sys.executable, "-c", _BATCH_SCRIPT, str(manifest), str(out)],
                       env=env, check=True, timeout=300)
        assert out.read_bytes() == expected, f"OPENBLAS_NUM_THREADS={threads}"


def _chunk_at_a_time(stack, W, path):
    """The store bytes and Gram sums of the map pass as it was before its
    rounds: each chunk evaluated into a buffer of its own, written map by
    map, then its Gram sums added."""
    (vt, vzt), m = rank_pixels(stack, np.flatnonzero(stack.valid_mask)), len(W)
    pixels = vt.shape[1]
    gram, product = np.zeros((m, m)), np.empty((m, m))
    digest = mask_digest(stack.meta.ncols, stack.meta.nrows, stack.valid_mask)
    with MapStore.create(path, m=m, pixel_count=pixels, digest=digest) as store:
        for start in range(0, pixels, _PIXEL_CHUNK):
            cols = np.empty((m, min(_PIXEL_CHUNK, pixels - start)))
            chunk = slice(start, start + _PIXEL_CHUNK)
            _map_values(W, vt[:, chunk], vzt[:, chunk], cols)
            for i in range(m):
                store.write_row(i, cols[i], start)
            add_gram(gram, cols, product)
    return path.read_bytes(), gram


@pytest.mark.parametrize("m", [1, 2, 13])
def test_batch_rounds_match_a_chunk_at_a_time_pass(tmp_path, monkeypatch, synth_stack, small_stack, m):
    # rounds of 1, 2 and 3 chunks, a round of every pixel, and a round
    # smaller than a chunk (which takes one chunk), over a stack of 3 whole
    # chunks and a short one and over one smaller than a chunk, on 1 and 3
    # threads: each map's part of a round is one write, and neither the
    # store nor the Gram sums change by a byte
    design = ExperimentalDesign(points=sample_design(13, seed=7).points[:m])
    write_row, widths = MapStore.write_row, []

    def counted(store, i, values, start=0):
        widths.append(values.size)
        return write_row(store, i, values, start)

    for name, stack in (("synth", synth_stack[1]), ("small", small_stack)):
        pixels = int(stack.valid_mask.sum())
        store_bytes, gram = _chunk_at_a_time(stack, generate_weights_batch(design.points, stack.n)[0], tmp_path / "ref.bin")
        for chunks, threads in itertools.product((1, 2, 3, None, 0), (1, 3)):
            monkeypatch.setattr(owa, "_ROUND_BYTES", 8 * m * _PIXEL_CHUNK * chunks if chunks is not None else 8 << 20)
            monkeypatch.setattr(MapStore, "write_row", counted)
            widths.clear()
            got, _, got_gram = batch_compute(stack, design, stack.n, tmp_path / "maps.bin", threads)
            got.close()
            monkeypatch.setattr(MapStore, "write_row", write_row)
            step = pixels if chunks is None else max(chunks, 1) * _PIXEL_CHUNK
            rounds = [min(step, pixels - start) for start in range(0, pixels, step)]
            assert widths == [w for w in rounds for _ in range(m)], (name, chunks, threads)
            assert (tmp_path / "maps.bin").read_bytes() == store_bytes, (name, chunks, threads)
            assert got_gram.tobytes() == gram.tobytes(), (name, chunks, threads)
    assert 3 * _PIXEL_CHUNK < int(synth_stack[1].valid_mask.sum()) < 4 * _PIXEL_CHUNK
    assert int(small_stack.valid_mask.sum()) < _PIXEL_CHUNK


def test_round_width():
    # 8 MiB of maps in whole chunks: one chunk for any m above 512, every
    # pixel when they fit
    assert owa._round_width(1024, 16057) == owa._round_width(5000, 16057) == _PIXEL_CHUNK
    assert owa._round_width(512, 16057) == 2 * _PIXEL_CHUNK
    assert owa._round_width(64, 16057) == 16057
    assert owa._round_width(1, 10**7) == 1 << 20
    assert owa._round_width(3, 100) == 100


def test_batch_peak_memory_within_budget(tmp_path):
    # the stated need bounds the traced peak where ranking is most of it
    # (one map over a 128x128x10 stack), where the round buffer of maps
    # is much of it (16 maps over the same stack), and where d^2 and its
    # Gram temporary are (402 maps over 256 pixels); a budget of the need
    # passes the check and one byte less does not
    corners = ExperimentalDesign(points=_corner_design().points * 134)
    one = ExperimentalDesign(points=_corner_design().points[2:])
    shapes = [(128, 10, one), (128, 10, sample_design(16, seed=7)), (16, 2, corners)]
    for side, n, design in shapes:
        meta = GridMeta(ncols=side, nrows=side, xllcorner=0, yllcorner=0, cellsize=1)
        rng = np.random.default_rng(5)
        stack = build_stack([(f"c{j}", Raster(meta, rng.random(meta.size))) for j in range(n)], rng.random(n) + 0.5)
        _, need = map_pass_plan(design.m, meta.size, n, 1 << 40, 1)
        assert map_pass_plan(design.m, meta.size, n, need, 1) == (1, need)
        with pytest.raises(ConfigError, match=f"{design.m} maps over {meta.size} pixels need memory_budget_mib >="):
            map_pass_plan(design.m, meta.size, n, need - 1, 1)
        tracemalloc.start()
        try:
            batch_compute(stack, design, n, tmp_path / f"{side}-{design.m}.bin")[0].close()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need, (side, peak / need)


def test_batch_peak_memory_counts_one_divisor_per_map(tmp_path):
    # above 512 maps a round is one chunk, so each chunk's slice of the
    # round buffer is contiguous and numpy divides it in place without a
    # copy: 600 maps over a 40x40x10 stack (a chunk and a shorter one)
    # stay within a need that counts one divisor per map, below one that
    # counted a second
    meta = GridMeta(ncols=40, nrows=40, xllcorner=0, yllcorner=0, cellsize=1)
    rng = np.random.default_rng(5)
    n, design = 10, ExperimentalDesign(points=_corner_design().points * 200)
    stack = build_stack([(f"c{j}", Raster(meta, rng.random(meta.size))) for j in range(n)], rng.random(n) + 0.5)
    m, pixels = design.m, meta.size
    _, need = map_pass_plan(m, pixels, n, 1 << 40, 1)
    two_divisors = 8 * (2 * m * m + m * n + _PIXEL_CHUNK * m + pixels + _PIXEL_CHUNK * (2 * m + 3 * n))
    tracemalloc.start()
    try:
        batch_compute(stack, design, n, tmp_path / "maps.bin")[0].close()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need < two_divisors, (peak, need, two_divisors)


def test_batch_peak_memory_holds_no_pixel_cache(tmp_path):
    # two maps over a 256x256x10 stack: a cache of 16 bytes per pixel and
    # criterion (10 MiB) would be over five times the need, so the traced
    # peak stays under it only if the pass ranks each chunk where it uses it
    meta = GridMeta(ncols=256, nrows=256, xllcorner=0, yllcorner=0, cellsize=1)
    rng = np.random.default_rng(5)
    stack = build_stack([(f"c{j}", Raster(meta, rng.random(meta.size))) for j in range(10)], rng.random(10) + 0.5)
    design = sample_design(2, seed=7)
    _, need = map_pass_plan(design.m, meta.size, stack.n, 1 << 40, 1)
    tracemalloc.start()
    try:
        batch_compute(stack, design, stack.n, tmp_path / "maps.bin")[0].close()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need < 16 * meta.size * stack.n / 5, (peak, need)


def test_batch_peak_memory_counts_a_chunk_per_thread(tmp_path):
    # each thread of the pass ranks and evaluates a chunk of its own: the
    # need on 2 and 3 threads grows by one chunk's scratch per thread and
    # bounds the traced peak, and a thread beyond the chunks of a round
    # adds nothing
    meta = GridMeta(ncols=128, nrows=128, xllcorner=0, yllcorner=0, cellsize=1)
    rng = np.random.default_rng(5)
    n, design = 10, sample_design(16, seed=7)
    stack = build_stack([(f"c{j}", Raster(meta, rng.random(meta.size))) for j in range(n)], rng.random(n) + 0.5)
    for threads in (2, 3):
        size, need = map_pass_plan(design.m, meta.size, n, 1 << 40, threads)
        assert size == threads
        grown = need - map_pass_plan(design.m, meta.size, n, 1 << 40, threads - 1)[1]
        assert grown == 8 * (_PIXEL_CHUNK * (design.m + 3 * n) + 2 * np.getbufsize())
        tracemalloc.start()
        try:
            batch_compute(stack, design, n, tmp_path / f"{threads}.bin", threads)[0].close()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need, (threads, peak / need)
    assert map_pass_plan(16, 1000, n, 1 << 40, 3) == map_pass_plan(16, 1000, n, 1 << 40, 1)


def test_map_pass_threads_fit_the_budget():
    # the pool is as large as the budget holds, never below one thread: a
    # budget that holds the pass on one thread holds it on any host, and
    # one that does not is refused
    m, pixels, n = 16, 16 * _PIXEL_CHUNK, 10
    one, two = (map_pass_plan(m, pixels, n, 1 << 40, threads)[1] for threads in (1, 2))
    assert map_pass_plan(m, pixels, n, 1 << 40, 64)[0] == 16  # one per chunk of the round
    assert map_pass_plan(m, pixels, n, two, 64) == (2, two)
    assert map_pass_plan(m, pixels, n, two - 1, 64) == (1, one)
    with pytest.raises(ConfigError, match=f"need memory_budget_mib >= {-(-one >> 20)}, got "):
        map_pass_plan(m, pixels, n, one - 1, 64)
    assert map_pass_plan(m, _PIXEL_CHUNK, n, 1 << 40, 64)[0] == 1
    assert map_pass_plan(m, pixels, n, 1 << 40)[0] == owa.pool_size(16)


def _lowered_plan(m, pixel_count, n, memory_budget, threads):
    """map_pass_plan as a loop: one thread per chunk of the widest round,
    then one thread fewer at a time, down to one, while the need exceeds
    the budget; None where even one thread does not fit."""
    chunk, width = min(pixel_count, _PIXEL_CHUNK), owa._round_width(m, pixel_count)

    def need(size):
        return 8 * (2 * m * m + m * n + width * m + pixel_count + size * (chunk * (m + 3 * n) + 2 * np.getbufsize()))

    size = owa.pool_size(-(-width // _PIXEL_CHUNK), threads)
    while size > 1 and need(size) > memory_budget:
        size -= 1
    return (size, need(size)) if need(size) <= memory_budget else None


def test_map_pass_plan_matches_a_pool_lowering_loop():
    # budgets one byte below, at and one byte above the need of every pool
    # size, and one that holds any, over rounds of one chunk (m = 513), two
    # (m = 512) and many (m = 16), with fewer pixels than a chunk, one
    # chunk and more
    cases = 0
    sizes = (_PIXEL_CHUNK - 1, _PIXEL_CHUNK, _PIXEL_CHUNK + 1, 20 * _PIXEL_CHUNK + 7)
    for m, pixels, n, threads in itertools.product((16, 512, 513), sizes, (2, 10), (None, 1, 64)):
        widest = owa.pool_size(-(-owa._round_width(m, pixels) // _PIXEL_CHUNK), threads)
        for size in range(1, widest + 1):
            need = _lowered_plan(m, pixels, n, 1 << 50, size)[1]
            for budget in (need - 1, need, need + 1, 1 << 50):
                want = _lowered_plan(m, pixels, n, budget, threads)
                if want is None:
                    with pytest.raises(ConfigError):
                        map_pass_plan(m, pixels, n, budget, threads)
                else:
                    assert map_pass_plan(m, pixels, n, budget, threads) == want, (m, pixels, n, threads, budget)
                cases += 1
    assert cases > 300


def test_pool_size():
    assert owa.pool_size(0) == owa.pool_size(1) == owa.pool_size(5, 1) == 1
    assert owa.pool_size(5, 3) == 3 and owa.pool_size(2, 8) == 2
    assert owa.pool_size(1 << 20) == len(os.sched_getaffinity(0))


def test_pool_map_keeps_item_order_under_contention(monkeypatch):
    # more threads than cores, switching every microsecond: each item is
    # computed once and its result lands at its index; one thread runs on
    # the caller and starts none
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = pool_map(lambda i: calls.append(i) or i * i, range(3000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(3000)] and sorted(calls) == list(range(3000))
    monkeypatch.setattr(owa, "ThreadPoolExecutor", None)
    assert pool_map(str, [1, 2], 1) == ["1", "2"] and pool_map(str, [], 4) == []


@pytest.mark.parametrize("first_fails", [True, False])
def test_pool_map_raises_the_first_failure_in_item_order(first_fails):
    # item 1 fails while item 0 still runs: item 0 is waited for, no
    # further item starts, the failure of the first failed item in order
    # is raised, and no helper is left alive
    failed, started, finished = threading.Event(), [], []

    def fn(i):
        started.append(i)
        if i == 1:
            failed.set()
            raise ValueError("item 1")
        assert failed.wait(30)
        time.sleep(0.05)
        finished.append(i)
        if first_fails:
            raise ValueError("item 0")

    alive = threading.active_count()
    with pytest.raises(ValueError, match="item 0" if first_fails else "item 1"):
        pool_map(fn, range(6), 2)
    assert sorted(started) == [0, 1] and finished == [0]
    assert threading.active_count() == alive


def test_batch_matches_per_map_oracle(synth_stack, pipeline_run):
    _, stack = synth_stack
    out, cfg, _ = pipeline_run
    store = MapStore.open(out / "maps.bin")
    lines = (out / "weights.csv").read_text().splitlines()[1:]
    W = np.array([[float(x) for x in line.split(",")[1:]] for line in lines])
    assert W.shape == (cfg.m, stack.n)
    z, v = value_matrix(stack), stack.criterion_weights.v
    worst = max(
        float(np.abs(store.rows(i, i + 1)[0] - owa_map_per_map(z, v, W[i])).max()) for i in range(cfg.m)
    )
    assert worst <= 1e-12, worst


def test_batch_weights_do_not_depend_on_the_batch(synth_stack, pipeline_run):
    # each point's solve sees only its own elements, so neither the run's
    # weights nor maps.bin depend on how the design is grouped
    _, stack = synth_stack
    out, cfg, _ = pipeline_run
    design = sample_design(cfg.m, cfg.seed)
    lines = (out / "weights.csv").read_text().splitlines()[1:]
    W = np.array([[float(x) for x in line.split(",")[1:]] for line in lines])
    for p, w in zip(design.points, W):
        assert np.array_equal(generate_weights(p, stack.n).w, w), p

    points = sample_design(300, 12).points  # some lie beyond the frontier
    W, failures = generate_weights_batch(points, 10)
    order = np.random.default_rng(3).permutation(len(points))
    W_permuted, failures_permuted = generate_weights_batch([points[i] for i in order], 10)
    assert failures and all(isinstance(e, NumericalError) and "best match has mean" in str(e) for e in failures.values())
    assert {int(order[k]): str(e) for k, e in failures_permuted.items()} == {i: str(e) for i, e in failures.items()}
    assert all(isinstance(e, NumericalError) for e in failures_permuted.values())
    assert np.array_equal(W_permuted, W[order], equal_nan=True)


def test_batch_reports_design_index(tmp_path, small_stack):
    # (0.05, 0.18) sits in the unreachable sliver near the parabola edge
    design = ExperimentalDesign(points=(DecisionPoint(0.4, 0.4), DecisionPoint(0.05, 0.18)))
    with pytest.raises(NumericalError, match=r"^design point 1 \(r=0\.05, t=0\.18\): ") as err:
        batch_compute(small_stack, design, small_stack.n, tmp_path / "maps.bin")
    assert "design point 1" in str(err.value)


def test_batch_names_every_unreachable_point_before_any_map(tmp_path, small_stack):
    # (0.05, 0.18) and (0.95, 0.18) both lie beyond the reachable frontier
    design = ExperimentalDesign(
        points=(
            DecisionPoint(0.4, 0.4),
            DecisionPoint(0.05, 0.18),
            DecisionPoint(0.5, 0.2),
            DecisionPoint(0.95, 0.18),
        ),
    )
    with pytest.raises(NumericalError, match=r"^design point 1 \(r=0\.05, t=0\.18\): ") as err:
        batch_compute(small_stack, design, small_stack.n, tmp_path / "maps.bin")
    assert "failing design indices: 1, 3" in str(err.value)
    assert not (tmp_path / "maps.bin").exists()


def test_batch_length_mismatch(tmp_path, small_stack):
    with pytest.raises(DataError, match=f"^design expects {small_stack.n + 1} criteria, stack has {small_stack.n}$"):
        batch_compute(small_stack, _corner_design(), small_stack.n + 1, tmp_path / "m.bin")


def test_mapstore_roundtrip(tmp_path):
    digest = mask_digest(4, 2, np.ones(8, dtype=bool))
    store = MapStore.create(tmp_path / "s.bin", m=3, pixel_count=8, digest=digest)
    rows = np.arange(24, dtype=np.float64).reshape(3, 8) / 24.0
    for i in range(3):
        store.write_row(i, rows[i])
    assert np.array_equal(store.rows(0, 3), rows)  # written rows read back through the same descriptor
    for i, values in ((3, rows[0]), (-1, rows[0]), (0, rows[0][:7]), (0, np.zeros((2, 8)))):
        with pytest.raises(DataError):
            store.write_row(i, values)
    store.close()
    with pytest.raises(DataError):
        store.write_row(0, rows[0])

    again = MapStore.open(tmp_path / "s.bin")
    with pytest.raises(DataError):
        again.write_row(0, rows[0])
    assert again.m == 3 and again.pixel_count == 8
    assert np.array_equal(again.rows(0, 3), rows)
    again.check_digest(digest)
    with pytest.raises(DataError):
        again.check_digest(mask_digest(4, 2, np.zeros(8, dtype=bool)))


def test_mapstore_reads_into_caller_buffers(tmp_path):
    # rows and row segments are copied into the array given, which is
    # returned; a wrong buffer, range, closed store or cut file is refused
    digest = mask_digest(5, 1, np.ones(5, dtype=bool))
    rows = np.arange(20, dtype=np.float64).reshape(4, 5) / 20.0
    with MapStore.create(tmp_path / "s.bin", m=4, pixel_count=5, digest=digest) as store:
        for i in range(4):
            store.write_row(i, rows[i])
    store = MapStore.open(tmp_path / "s.bin")
    out = np.empty((2, 5))
    assert store.rows(1, 3, out=out) is out and np.array_equal(out, rows[1:3])
    assert np.array_equal(store.segments(np.array([3, 0, 3]), 1, 4), rows[[3, 0, 3], 1:4])
    assert store.segments(np.array([], dtype=np.int64), 0, 5).shape == (0, 5)
    for bad in (lambda: store.rows(1, 3, out=np.empty((2, 4))), lambda: store.rows(3, 5),
                lambda: store.rows(0, 2, out=np.empty((5, 2)).T), lambda: store.segments(np.array([4]), 0, 5),
                lambda: store.segments(np.array([0]), 2, 6)):
        with pytest.raises(DataError):
            bad()
    with open(tmp_path / "s.bin", "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - 8)
    with pytest.raises(DataError, match="store ends"):
        store.rows(3, 4)
    store.close()
    with pytest.raises(DataError, match="closed"):
        store.rows(0, 1)


def test_mapstore_segment_writes(tmp_path):
    # segments at their pixel offsets make the same bytes as whole rows;
    # a segment that leaves its row is refused
    digest = mask_digest(5, 1, np.ones(5, dtype=bool))
    rows = np.arange(10, dtype=np.float64).reshape(2, 5) / 10.0
    whole = MapStore.create(tmp_path / "whole.bin", m=2, pixel_count=5, digest=digest)
    parts = MapStore.create(tmp_path / "parts.bin", m=2, pixel_count=5, digest=digest)
    for i in range(2):
        whole.write_row(i, rows[i])
        parts.write_row(i, rows[i, 2:], 2)
        parts.write_row(i, rows[i, :2], 0)
    for start, values in ((4, rows[0, :2]), (-1, rows[0, :2]), (6, rows[0, :0]), (0, rows[:, :2])):
        with pytest.raises(DataError):
            parts.write_row(0, values, start)
    whole.close()
    parts.close()
    assert (tmp_path / "parts.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


def test_mapstore_rejects_garbage(tmp_path):
    (tmp_path / "bad.bin").write_bytes(b"not a store")
    with pytest.raises(DataError):
        MapStore.open(tmp_path / "bad.bin")


@pytest.mark.parametrize("header, message", [
    (struct.pack("<8sI", b"OWAMAPS0", 1), "not a map store (bad magic b'OWAMAPS0')"),
    (struct.pack("<8sI", b"OWAMAPS1", 2), "unsupported store version 2"),
])
def test_mapstore_rejects_foreign_header(tmp_path, header, message):
    digest = mask_digest(2, 1, np.ones(2, dtype=bool))
    MapStore.create(tmp_path / "s.bin", m=1, pixel_count=2, digest=digest).close()
    with open(tmp_path / "s.bin", "r+b") as fh:
        fh.write(header)
    with pytest.raises(DataError) as err:
        MapStore.open(tmp_path / "s.bin")
    assert str(err.value) == f"{tmp_path / 's.bin'}: {message}"


def test_mapstore_read_continues_after_a_short_read(tmp_path, monkeypatch):
    # preadv may return fewer bytes than asked; the read goes on from there
    digest = mask_digest(5, 1, np.ones(5, dtype=bool))
    rows = np.arange(15, dtype=np.float64).reshape(3, 5) / 15.0
    with MapStore.create(tmp_path / "s.bin", m=3, pixel_count=5, digest=digest) as store:
        for i in range(3):
            store.write_row(i, rows[i])
    preadv, requests = os.preadv, []

    def half(fd, buffers, offset):
        view = memoryview(buffers[0]).cast("B")
        requests.append(view.nbytes)
        return preadv(fd, [view[: (view.nbytes + 1) // 2]], offset)

    monkeypatch.setattr(os, "preadv", half)
    with MapStore.open(tmp_path / "s.bin") as store:
        assert np.array_equal(store.rows(0, 3), rows)
    assert requests[:3] == [120, 60, 30]


def test_mapstore_rejects_truncation(tmp_path):
    digest = mask_digest(2, 2, np.ones(4, dtype=bool))
    store = MapStore.create(tmp_path / "s.bin", m=2, pixel_count=4, digest=digest)
    store.write_row(0, np.zeros(4))
    store.close()
    data = (tmp_path / "s.bin").read_bytes()
    (tmp_path / "s.bin").write_bytes(data[:-8])
    with pytest.raises(DataError):
        MapStore.open(tmp_path / "s.bin")
