import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from owa_explorer.grid import GridMeta, Raster, build_stack
from owa_explorer.pipeline import PipelineConfig, load_stack_manifest, run_pipeline, synth_generate

# The acceptance fixture: a 64x64x10 synthetic stack (seed 11) and an m=200
# run (design seed 7, k=4), shared by every module that reads its outputs.
SYNTH_SEED = 11
DESIGN_SEED = 7
M_RUN = 200
K_RUN = 4


@pytest.fixture
def meta_2x1():
    return GridMeta(ncols=2, nrows=1, xllcorner=0.0, yllcorner=0.0, cellsize=5.0)


@pytest.fixture
def small_stack():
    """4 random criterion layers on a 12x9 grid, one nodata hole."""
    rng = np.random.default_rng(1234)
    meta = GridMeta(ncols=12, nrows=9, xllcorner=0.0, yllcorner=0.0, cellsize=10.0)
    layers = []
    for j in range(4):
        values = rng.random(meta.size)
        if j == 2:
            values[17] = meta.nodata_value
            values[40] = meta.nodata_value
        layers.append((f"c{j}", Raster(meta, values)))
    return build_stack(layers, [0.4, 0.3, 0.2, 0.1])


@pytest.fixture(scope="session")
def synth_stack(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("synth64")
    manifest = synth_generate(64, 64, 10, seed=SYNTH_SEED, out_dir=data_dir)
    layers, weights, _ = load_stack_manifest(manifest)
    return manifest, build_stack(layers, weights)


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory, synth_stack):
    manifest, _ = synth_stack
    out = tmp_path_factory.mktemp("run_main")
    cfg = PipelineConfig(
        stack_manifest=manifest, m=M_RUN, seed=DESIGN_SEED, k=K_RUN, k_max=15, out=out,
    )
    t0 = time.perf_counter()
    run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    return out, cfg, elapsed
