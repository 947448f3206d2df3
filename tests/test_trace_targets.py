"""The traced benchmark run looks functions up by name on the package; a
rename or removal there must fail here, not only under `--trace 1`."""

import functools
import importlib.util
import sys
from pathlib import Path

import owa_explorer
import owa_explorer.pipeline  # noqa: F401  (not imported by the package itself)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for owner_path, attr, _, _ in _targets():
        try:
            owner = functools.reduce(getattr, owner_path.split("."), owa_explorer)
        except AttributeError:
            missing.append(owner_path)
            continue
        if not hasattr(owner, attr):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"trace targets missing from owa_explorer: {missing}"


def test_run_starts_its_pool_through_owa(tmp_path, monkeypatch):
    # the tracer swaps owa.ThreadPoolExecutor for a pool that carries span
    # parents to the helpers, so a run must build its pool through that
    # name; analyze starts no thread, cluster's pool name stays idle, and
    # owa's generate_weights is only for the tracer
    from owa_explorer import cluster, owa, pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("this pool name or point solve must stay idle")

    started = []

    class Recorded(owa.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(owa, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(cluster, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(owa, "generate_weights", refuse)
    manifest = pipeline.synth_generate(16, 12, 4, seed=5, out_dir=tmp_path / "data")
    run = tmp_path / "run"
    pipeline.run_pipeline(
        pipeline.PipelineConfig(stack_manifest=manifest, m=6, seed=1, k=2, k_max=4, out=run), _threads=2
    )
    assert started == [(1,)]  # the four grids' parse: one helper beside the caller
    monkeypatch.setattr(owa, "ThreadPoolExecutor", refuse)
    pipeline.analyze(run, k=3, out_dir=tmp_path / "re")
    assert (run / "cluster2_mean.asc").exists()
    assert (tmp_path / "re" / "cluster3_mean.asc").exists()
