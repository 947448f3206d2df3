import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _oracles import owa_map_per_map

import owa_explorer
from owa_explorer.errors import DataError, LengthMismatch, NoSolution
from owa_explorer.grid import GridMeta, Raster, build_stack
from owa_explorer.mapstore import MapStore, mask_digest, rows_per_block
from owa_explorer.owa import _map_values, batch_compute, rank_pixels
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
    cache = rank_pixels(_one_pixel_stack(z, v))
    return float(_map_values(cache, np.asarray(w, dtype=np.float64)[None, :])[0, 0])


def test_rank_pixels_examples():
    def order(vals):
        # distinct criterion weights: v_sorted names the criterion at each rank
        stack = _one_pixel_stack(vals, [1.0, 2.0, 4.0])
        cache = rank_pixels(stack)
        assert cache.z_sorted[0].tolist() == sorted(vals)
        return [int(np.flatnonzero(stack.criterion_weights.v == x)[0]) for x in cache.v_sorted[0]]

    assert order([0.3, 0.1, 0.9]) == [1, 0, 2]
    # tie between criteria 0 and 2 broken by index
    assert order([0.3, 0.1, 0.3]) == [1, 0, 2]
    assert order([0.1, 0.5, 0.9]) == [0, 1, 2]


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
    store, _ = batch_compute(small_stack, _corner_design(), small_stack.n, tmp_path / "maps.bin")
    # the store holds the valid pixels only: nodata cells never enter a map
    assert store.pixel_count == int(small_stack.valid_mask.sum()) < small_stack.meta.size
    z = small_stack.value_matrix()
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
        seed=0,
        m=3,
    )


def test_batch_corner_reductions(tmp_path, meta_2x1):
    a = Raster(meta_2x1, np.array([0.2, 0.9]))
    b = Raster(meta_2x1, np.array([0.8, 0.1]))
    stack = build_stack([("a", a), ("b", b)], [0.75, 0.25])
    store, W = batch_compute(stack, _corner_design(), 2, tmp_path / "maps.bin")
    assert store.m == 3
    np.testing.assert_allclose(store.rows(0, 1)[0], [0.2, 0.1], atol=1e-15)  # min
    np.testing.assert_allclose(store.rows(1, 2)[0], [0.8, 0.9], atol=1e-15)  # max
    wlc = 0.75 * np.array([0.2, 0.9]) + 0.25 * np.array([0.8, 0.1])
    np.testing.assert_allclose(store.rows(2, 3)[0], wlc, atol=1e-12)
    assert W.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]


def test_batch_values_in_range(tmp_path, small_stack):
    from owa_explorer.strategy import sample_design

    design = sample_design(25, seed=7)
    store, _ = batch_compute(small_stack, design, small_stack.n, tmp_path / "maps.bin")
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


def test_batch_bytes_identical_across_block_sizes_and_blas_threads(tmp_path, synth_stack):
    manifest, stack = synth_stack
    design = sample_design(16, seed=7)
    pixels = int(stack.valid_mask.sum())
    # one map per block, blocks of 7 (the last one short), and one block
    for name, budget in (("one", 1), ("seven", 7 * pixels * 16)):
        batch_compute(stack, design, stack.n, tmp_path / f"{name}.bin", memory_budget=budget)
    batch_compute(stack, design, stack.n, tmp_path / "default.bin")
    expected = (tmp_path / "default.bin").read_bytes()
    assert (tmp_path / "one.bin").read_bytes() == expected
    assert (tmp_path / "seven.bin").read_bytes() == expected

    src = Path(owa_explorer.__file__).resolve().parent.parent
    for threads in ("1", "2"):
        path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(path)}
        out = tmp_path / f"blas{threads}.bin"
        subprocess.run([sys.executable, "-c", _BATCH_SCRIPT, str(manifest), str(out)],
                       env=env, check=True, timeout=300)
        assert out.read_bytes() == expected, f"OPENBLAS_NUM_THREADS={threads}"


def test_batch_peak_memory_within_budget(tmp_path):
    # three blocks of 32 maps: the budget covers the block being computed
    # and its temporary, so no earlier block may still be alive; the rest
    # of the peak is the sorted values and weights and their product
    meta = GridMeta(ncols=128, nrows=128, xllcorner=0, yllcorner=0, cellsize=1)
    rng = np.random.default_rng(5)
    stack = build_stack([(f"c{j}", Raster(meta, rng.random(meta.size))) for j in range(2)], [0.5, 0.5])
    design = ExperimentalDesign(points=_corner_design().points * 32, seed=0, m=96)
    budget = 8 << 20
    assert rows_per_block(96, meta.size, budget) == 32
    tracemalloc.start()
    try:
        batch_compute(stack, design, 2, tmp_path / "maps.bin", memory_budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget + 3 * meta.size * 2 * 8, peak / budget


def test_batch_matches_per_map_oracle(synth_stack, pipeline_run):
    _, stack = synth_stack
    out, cfg, _ = pipeline_run
    store = MapStore.open(out / "maps.bin")
    lines = (out / "weights.csv").read_text().splitlines()[1:]
    W = np.array([[float(x) for x in line.split(",")[1:]] for line in lines])
    assert W.shape == (cfg.m, stack.n)
    z, v = stack.value_matrix(), stack.criterion_weights.v
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
    assert failures and all(isinstance(e, NoSolution) for e in failures.values())
    assert {int(order[k]): str(e) for k, e in failures_permuted.items()} == {i: str(e) for i, e in failures.items()}
    assert all(isinstance(e, NoSolution) for e in failures_permuted.values())
    assert np.array_equal(W_permuted, W[order], equal_nan=True)


def test_batch_reports_design_index(tmp_path, small_stack):
    # (0.05, 0.18) sits in the unreachable sliver near the parabola edge
    design = ExperimentalDesign(
        points=(DecisionPoint(0.4, 0.4), DecisionPoint(0.05, 0.18)), seed=0, m=2
    )
    with pytest.raises(NoSolution) as err:
        batch_compute(small_stack, design, small_stack.n, tmp_path / "maps.bin")
    assert err.value.design_index == 1
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
        seed=0,
        m=4,
    )
    with pytest.raises(NoSolution) as err:
        batch_compute(small_stack, design, small_stack.n, tmp_path / "maps.bin")
    assert err.value.design_index == 1
    assert "failing design indices: 1, 3" in str(err.value)
    assert not (tmp_path / "maps.bin").exists()


def test_batch_length_mismatch(tmp_path, small_stack):
    with pytest.raises(LengthMismatch):
        batch_compute(small_stack, _corner_design(), small_stack.n + 1, tmp_path / "m.bin")


def test_mapstore_roundtrip(tmp_path):
    digest = mask_digest(4, 2, np.ones(8, dtype=bool))
    store = MapStore.create(tmp_path / "s.bin", m=3, pixel_count=8, digest=digest)
    rows = np.arange(24, dtype=np.float64).reshape(3, 8) / 24.0
    for i in range(3):
        store.write_row(i, rows[i])
    assert np.array_equal(store.rows(0, 3), rows)  # written rows show through the read mapping
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


def test_mapstore_rejects_garbage(tmp_path):
    (tmp_path / "bad.bin").write_bytes(b"not a store")
    with pytest.raises(DataError):
        MapStore.open(tmp_path / "bad.bin")


def test_mapstore_rejects_truncation(tmp_path):
    digest = mask_digest(2, 2, np.ones(4, dtype=bool))
    store = MapStore.create(tmp_path / "s.bin", m=2, pixel_count=4, digest=digest)
    store.write_row(0, np.zeros(4))
    store.close()
    data = (tmp_path / "s.bin").read_bytes()
    (tmp_path / "s.bin").write_bytes(data[:-8])
    with pytest.raises(DataError):
        MapStore.open(tmp_path / "s.bin")
