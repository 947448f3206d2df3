"""The benchmark's own output checks, run on the acceptance fixture: an
output the benchmark would judge incorrect must fail here first."""

import importlib.util
from pathlib import Path

import numpy as np

from owa_explorer.pipeline import analyze

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_checks_pass_on_acceptance_run_and_recut(pipeline_run, tmp_path):
    checks = _checks()
    out, cfg, _ = pipeline_run
    stack = checks.Stack(cfg.stack_manifest)
    maps = checks.read_store(out / "maps.bin")
    recut = tmp_path / "recut"
    analyze(out, 8, out_dir=recut)
    problems = []
    for rows in np.array_split(np.arange(len(maps)), 25):  # every row, a few at a time
        problems += checks.maps_match_weights(out, stack, maps, rows)
    for run_dir in (out, recut):
        problems += checks.curve_matches_tree(run_dir, maps)
        problems += checks.cluster_means_match(run_dir, maps, stack.mask)
    assert problems == []
    assert len(list(recut.glob("cluster*_mean.asc"))) == 8
