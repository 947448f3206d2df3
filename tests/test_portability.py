"""Which output bytes depend on the machine: the acceptance run, the map
kernel, and the truncated-normal moments and bin masses of the weight
solve, with numpy's default SIMD dispatch against the same with its
AVX-512 paths disabled.

numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so each run is a
child process and only the second child's environment sets it. A host or
numpy build without an AVX-512 dispatch target has nothing to compare, and
the test skips there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import owa_explorer
from _oracles import owa_maps_in_criterion_order, value_matrix
from conftest import DESIGN_SEED, K_RUN, M_RUN
from owa_explorer.mapstore import MapStore

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# numpy 2's AVX-512 dispatch targets; the older names (AVX512F, ...) no
# longer switch its dispatch
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# Files that must not change by a byte. The rest differ in the last digits
# (the manifest differs anyway).
IDENTICAL = ("design.csv", "mask.asc", "segmentation.csv", "cluster_centroids.csv", "suggested_k.txt")
WEIGHTS_ABS = 1e-11  # measured at most 2.3e-12, in 456 of 2000 entries
MAPS_ABS = 1e-11  # measured at most 9.4e-13
HEIGHTS_REL = 1e-10  # measured at most 3.2e-11
# measured at most 3.3e-16 (1.3e-11 when the moments had three regimes); the
# weights still differ more, because the solve stops at a tolerance
MOMENTS_REL = 4e-15
# the normalized bin masses of 10 bins at the same (mu, sigma): measured at
# most 1.1e-16, and 2.2e-16 on 2100 random pairs (6.2e-14 when the masses
# were erfc tails)
BIN_WEIGHTS_ABS = 1e-15
# parents inside [0, 1], near it and far out, from near point masses to
# near uniform densities
MOMENT_MU, MOMENT_SIGMA = (
    a.ravel().tolist()
    for a in np.meshgrid(np.r_[-50.0, -10.0, np.linspace(-3.0, 4.0, 71), 11.0, 51.0], np.logspace(-6, 3, 28))
)
# seeds the random order weights of the map kernel's check (the kernel takes any)
KERNEL_SEED = 19

_RUN_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from owa_explorer import strategy
from owa_explorer.grid import build_stack
from owa_explorer.owa import _map_values, rank_pixels
from owa_explorer.pipeline import PipelineConfig, load_stack_manifest, run_pipeline
manifest, out, m, seed, k, mu, sigma, kernel_seed = sys.argv[1:9]
run_pipeline(PipelineConfig(stack_manifest=Path(manifest), m=int(m), seed=int(seed), k=int(k), k_max=15, out=Path(out)))
mu, sigma = np.array(json.loads(mu)), np.array(json.loads(sigma))
masses = strategy._bin_masses(mu, sigma, 10)
layers, weights, _ = load_stack_manifest(manifest)
stack = build_stack(layers, weights)
vt, vzt = rank_pixels(stack, np.flatnonzero(stack.valid_mask))
W = np.random.default_rng(int(kernel_seed)).random((9, vt.shape[0]))
pixels = vt.shape[1]
kernel = []
for width in (1, 7, 1024):  # chunks of each width into a column slice of a wider buffer
    wide = np.empty((9, pixels + 5))
    for start in range(0, pixels, width):
        cols = slice(start, start + width)
        _map_values(W, vt[:, cols], vzt[:, cols], wide[:, 2 + start : 2 + min(start + width, pixels)])
    kernel.append(wide[:, 2 : 2 + pixels].tobytes().hex())
print(json.dumps({
    "features": {name: __cpu_features__[name] for name in sys.argv[9:]},
    "kernel": kernel,
    "moments": [a.tolist() for a in strategy._moments(mu, sigma)],
    "weights": (masses / masses.sum(axis=1, keepdims=True)).tolist(),
}))
"""


def _run(manifest, out, disable):
    targets = [t for t in AVX512_TARGETS if t in __cpu_dispatch__]
    src = Path(owa_explorer.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    args = [manifest, out, M_RUN, DESIGN_SEED, K_RUN, json.dumps(MOMENT_MU), json.dumps(MOMENT_SIGMA), KERNEL_SEED, *targets]
    proc = subprocess.run([sys.executable, "-c", _RUN_SCRIPT, *map(str, args)],
                          env=env, check=True, timeout=300, capture_output=True, text=True)
    return json.loads(proc.stdout)


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.skipif(
    not any(t in __cpu_dispatch__ and __cpu_features__.get(t) for t in AVX512_TARGETS),
    reason="numpy dispatches to no AVX-512 target on this host",
)
def test_outputs_with_avx512_disabled(tmp_path, synth_stack):
    manifest, stack = synth_stack
    default, disabled = tmp_path / "default", tmp_path / "disabled"
    one, two = _run(manifest, default, disable=False), _run(manifest, disabled, disable=True)
    assert any(one["features"].values())
    assert not any(two["features"].values())

    # the map kernel sums the criteria in index order under either dispatch
    W = np.random.default_rng(KERNEL_SEED).random((9, stack.n))
    loop = owa_maps_in_criterion_order(value_matrix(stack), stack.criterion_weights.v, W).tobytes().hex()
    assert one["kernel"] == two["kernel"] == [loop] * 3

    (mean, std), (mean2, std2) = np.array(one["moments"]), np.array(two["moments"])
    assert np.abs(mean2 / mean - 1.0).max() <= MOMENTS_REL
    assert np.abs(std2 / std - 1.0).max() <= MOMENTS_REL
    assert np.abs(np.array(one["weights"]) - np.array(two["weights"])).max() <= BIN_WEIGHTS_ABS

    for name in IDENTICAL:
        assert (default / name).read_bytes() == (disabled / name).read_bytes(), name
    a, b = _table(default / "merge_tree.csv"), _table(disabled / "merge_tree.csv")
    assert np.array_equal(a[:, [0, 1, 2, 4]], b[:, [0, 1, 2, 4]])  # step, pair and size
    assert np.all(np.abs(a[:, 3] - b[:, 3]) <= HEIGHTS_REL * a[:, 3])
    a, b = _table(default / "weights.csv"), _table(disabled / "weights.csv")
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.abs(a - b).max() <= WEIGHTS_ABS
    with MapStore.open(default / "maps.bin") as one, MapStore.open(disabled / "maps.bin") as two:
        assert (one.m, one.pixel_count, one.digest) == (two.m, two.pixel_count, two.digest)
        assert np.abs(one.rows(0, one.m) - two.rows(0, two.m)).max() <= MAPS_ABS
