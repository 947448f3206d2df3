import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import verify_manifest
from owa_explorer import pipeline
from owa_explorer.cli import main
from owa_explorer.cluster import pairwise_euclidean, ward_linkage
from owa_explorer.errors import ConfigError, DataError, NoSolution
from owa_explorer.grid import GridMeta, Raster, parse_ascii_grid, write_ascii_grid
from owa_explorer.mapstore import MapStore
from owa_explorer.pipeline import (
    PipelineConfig,
    RunManifest,
    _read_merge_tree_csv,
    _write_merge_tree_csv,
    analyze,
    load_config,
    load_stack_manifest,
    render_pgm,
    run_pipeline,
    synth_generate,
)
from owa_explorer.prep import run_prep

DATA_OUTPUTS = [
    "design.csv", "weights.csv", "mask.asc", "maps.bin", "merge_tree.csv",
    "variance_curve.csv", "suggested_k.txt", "segmentation.csv",
    "cluster_centroids.csv",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    synth_generate(24, 16, 4, seed=5, out_dir=out)
    return out


def test_synth_deterministic(tmp_path):
    synth_generate(16, 12, 3, seed=9, out_dir=tmp_path / "a")
    synth_generate(16, 12, 3, seed=9, out_dir=tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    synth_generate(16, 12, 3, seed=10, out_dir=tmp_path / "c")
    assert (tmp_path / "a" / "criterion_00.asc").read_bytes() != (
        tmp_path / "c" / "criterion_00.asc"
    ).read_bytes()


def test_synth_layers_valid(synth_dir):
    grids = sorted(synth_dir.glob("criterion_*.asc"))
    assert len(grids) == 4
    for i, path in enumerate(grids):
        r = parse_ascii_grid(path.read_text())
        vals = r.values[r.valid_mask]
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        invalid = (~r.valid_mask).sum()
        if i == len(grids) - 1:
            assert 0 < invalid <= 0.03 * r.meta.size  # ~2% nodata in the last layer
        else:
            assert invalid == 0


def test_synth_rejects_tiny():
    with pytest.raises(ConfigError):
        synth_generate(4, 64, 3, seed=0, out_dir="/tmp/never")


def test_cli_synth_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "stack"
    assert main(["synth", "--width", "8", "--height", "8", "--n", "2", "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_load_stack_manifest_fractions(synth_dir):
    layers, weights, _ = load_stack_manifest(synth_dir / "stack_manifest.csv")
    assert len(layers) == 4 and len(weights) == 4
    votes = (synth_dir / "votes.csv").read_text().strip().splitlines()[1:]
    for (name, _), w, line in zip(layers, weights, votes):
        svc, v, total = line.split(",")
        assert name == svc
        assert w == pytest.approx(int(v) / int(total))


def test_load_config_and_overrides(tmp_path, synth_dir):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"stack_manifest = {synth_dir}/stack_manifest.csv\n"
        "m = 24\n"
        "seed = 3  # trailing comment\n"
        "k = auto\n"
        "k_max = 8\n"
        "out = results\n"
    )
    cfg = load_config(cfg_path)
    assert cfg.m == 24 and cfg.seed == 3 and cfg.k is None
    assert cfg.out == (tmp_path / "results").resolve()
    cfg2 = load_config(cfg_path, overrides={"k": 4, "seed": None})
    assert cfg2.k == 4 and cfg2.seed == 3


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("stack_manifest = x\nnot_a_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("key", ["workers", "criteria"])
def test_load_config_rejects_explicit_zero(tmp_path, key):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stack_manifest = x\n")
    cfg = load_config(cfg_path)  # an omitted key keeps its default
    assert cfg.workers is None and cfg.criteria is None
    cfg_path.write_text(f"stack_manifest = x\n{key} = 0\n")
    with pytest.raises(ConfigError, match=key):
        load_config(cfg_path)
    with pytest.raises(ConfigError, match=key):
        load_config(tmp_path / "run.cfg", overrides={key: 0})


@pytest.mark.parametrize(
    "first, second",
    [("abc", "abc"), ("7/0", "7/0"), ("inf", "inf"), ("-1", "0")],
    ids=["abc", "7/0", "inf", "-1,0"],
)
def test_cli_run_rejects_bad_criterion_weight(tmp_path, capsys, first, second):
    # every bad weight is named by line before any grid is read
    manifest = synth_generate(16, 12, 3, seed=9, out_dir=tmp_path / "stack").resolve()
    lines = manifest.read_text().splitlines()
    for i, token in ((1, first), (3, second)):
        lines[i] = lines[i].rsplit(",", 1)[0] + "," + token
    manifest.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"stack_manifest = {manifest}\nm = 4\nk_max = 2\nout = out\n")
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert f"{manifest}:2: weight {first!r}; {manifest}:4: weight {second!r}" in err
    assert not list(tmp_path.rglob("maps.bin"))


def test_pipeline_import_leaves_prep_unloaded():
    # perfbench's set-up imports owa_explorer.pipeline; prep and the
    # INI and CSV parsers it needs stay off that path
    src = Path(pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = (
        "import sys, owa_explorer.pipeline; "
        "print(sorted({'configparser', 'csv', 'owa_explorer.prep'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_run_rejects_zero_workers(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stack_manifest = x\nout = out\n")
    assert main(["run", "--config", str(cfg_path), "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig(stack_manifest=Path("x"), m=1)
    with pytest.raises(ConfigError):
        PipelineConfig(stack_manifest=Path("x"), m=10, k_max=20)
    with pytest.raises(ConfigError):
        PipelineConfig(stack_manifest=Path("x"), m=10, k=11)
    with pytest.raises(ConfigError):
        PipelineConfig(stack_manifest=Path("x"), workers=0)
    with pytest.raises(ConfigError, match="k_max"):
        PipelineConfig(stack_manifest=Path("x"), m=10, k_max=0)
    with pytest.raises(ConfigError, match="seed"):
        PipelineConfig(stack_manifest=Path("x"), seed=-1)


def test_workers_deprecated(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert PipelineConfig(stack_manifest=Path("x")).workers is None
    for workers in (1, 4):
        with pytest.warns(DeprecationWarning, match="no effect"):
            PipelineConfig(stack_manifest=Path("x"), workers=workers)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stack_manifest = x\nworkers = 2\n")
    with pytest.warns(DeprecationWarning, match="'workers'"):
        load_config(cfg_path)


def _small_run_cfg(tmp_path, synth_dir, seed=1, k_max=4):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"stack_manifest = {synth_dir}/stack_manifest.csv\n"
        f"m = 6\nseed = {seed}\nk_max = {k_max}\nout = out\n"
    )
    return cfg_path


def test_cli_run_workers_warns_on_stderr(tmp_path, synth_dir):
    # the interpreter's default filters hide a DeprecationWarning raised
    # outside __main__, so only a separate process shows what a user sees
    cfg_path = _small_run_cfg(tmp_path, synth_dir)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path)]) == 0
    src = Path(pipeline.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    args = ["run", "--config", str(cfg_path), "--workers", "2", "--out", str(tmp_path / "w2")]
    proc = subprocess.run([sys.executable, "-m", "owa_explorer.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "DeprecationWarning" in proc.stderr and "'workers'" in proc.stderr
    for name in ("maps.bin", "merge_tree.csv", "variance_curve.csv"):
        assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_run_rejects_k_max_below_one(tmp_path, synth_dir, capsys):
    cfg_path = _small_run_cfg(tmp_path, synth_dir, k_max=0)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "k_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("maps.bin"))


def test_cli_rejects_negative_seed(tmp_path, synth_dir, capsys):
    cfg_path = _small_run_cfg(tmp_path, synth_dir)
    assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 2
    cfg_path = _small_run_cfg(tmp_path, synth_dir, seed=-1)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert main(["sample", "--m", "5", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("seed must be >= 0, got -1") == 3
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "value, expected",
    [("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)],
)
def test_load_config_write_distances(tmp_path, value, expected):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stack_manifest = x\n")
    assert load_config(cfg_path).write_distances is False
    cfg_path.write_text(f"stack_manifest = x\nwrite_distances = {value}\n")
    assert load_config(cfg_path).write_distances is expected


@pytest.mark.parametrize("value", ["ture", "on", "2", ""])
def test_load_config_rejects_bad_write_distances(tmp_path, value):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"stack_manifest = x\nwrite_distances = {value}\n")
    with pytest.raises(ConfigError, match="write_distances"):
        load_config(cfg_path)


def test_write_distances_lower_triangle(tmp_path, synth_dir):
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(
        stack_manifest=synth_dir / "stack_manifest.csv", m=6, seed=1, k_max=4, out=out,
        write_distances=True,
    ))
    d = np.sqrt(pairwise_euclidean(MapStore.open(out / "maps.bin"))[0])
    raw = (out / "distances.bin").read_bytes()
    assert len(raw) == 8 * 15
    assert np.frombuffer(raw, dtype="<f8").tolist() == [d[i, j] for i in range(6) for j in range(i)]
    assert (out / "distances_header.csv").read_text() == (
        "m,entries,dtype,order\n6,15,float64-le,row-major-lower-triangle\n"
    )


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = PipelineConfig(
        stack_manifest=synth_dir / "stack_manifest.csv",
        m=14, seed=7, k=3, k_max=8, out=out,
    )
    manifest = run_pipeline(cfg)
    return out, cfg, manifest


def test_run_outputs_exist(completed_run):
    out, _, manifest = completed_run
    for name in DATA_OUTPUTS:
        assert (out / name).exists(), name
    for label in (1, 2, 3):
        assert (out / f"cluster{label}_mean.asc").exists()
        assert (out / f"cluster{label}_std.asc").exists()
    assert set(manifest.durations) >= {"load", "sample", "aggregate", "distances", "cluster"}


def test_run_idempotent(completed_run, tmp_path):
    out, cfg, _ = completed_run
    out2 = tmp_path / "again"
    cfg2 = PipelineConfig(
        stack_manifest=cfg.stack_manifest, m=cfg.m, seed=cfg.seed,
        k=cfg.k, k_max=cfg.k_max, out=out2,
    )
    run_pipeline(cfg2)
    names = [p.name for p in sorted(out.iterdir()) if p.name != "run_manifest.json"]
    for name in names:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_manifest_verifies(completed_run):
    out, _, _ = completed_run
    assert verify_manifest(out)
    manifest = RunManifest.read(out / "run_manifest.json")
    assert manifest.version
    assert manifest.config["m"] == 14


def test_run_manifest_records_metrics(completed_run, tmp_path, monkeypatch):
    # the recompute count rides in the manifest alone: a rerun into another
    # directory with another memory budget writes the same count and every
    # other output byte for byte
    out, cfg, manifest = completed_run
    _, recomputed = pairwise_euclidean(MapStore.open(out / "maps.bin"))
    assert manifest.metrics == {"distance_pairs_recomputed": recomputed}
    assert RunManifest.read(out / "run_manifest.json").metrics == manifest.metrics
    again = tmp_path / "again"
    rerun = run_pipeline(dataclasses.replace(cfg, out=again, memory_budget_mib=1))
    assert rerun.metrics == manifest.metrics
    names = sorted(p.name for p in out.iterdir() if p.is_file() and p.name != "run_manifest.json")
    assert names == sorted(p.name for p in again.iterdir() if p.is_file() and p.name != "run_manifest.json")
    for name in names:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name
    # a manifest written before the metrics existed still reads, and
    # analyze still takes the run's seed, k_max and memory budget from it
    old = json.loads((again / "run_manifest.json").read_text())
    del old["metrics"]
    (again / "run_manifest.json").write_text(json.dumps(old))
    assert RunManifest.read(again / "run_manifest.json").metrics == {}
    budgets, summaries = [], pipeline.cluster_summaries
    monkeypatch.setattr(pipeline, "cluster_summaries", lambda *args: budgets.append(args[-1]) or summaries(*args))
    analyze(again, k=2, out_dir=tmp_path / "re")
    assert budgets == [1 << 20]
    assert (tmp_path / "re" / "variance_curve.csv").read_bytes() == (out / "variance_curve.csv").read_bytes()


def test_manifest_detects_input_change(tmp_path, synth_dir):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    out = tmp_path / "out"
    cfg = PipelineConfig(stack_manifest=data / "stack_manifest.csv", m=6, seed=1, k=2, k_max=4, out=out)
    run_pipeline(cfg)
    assert verify_manifest(out)
    grid = data / "criterion_00.asc"
    grid.write_text(grid.read_text().replace("0.", "0.0", 1))
    assert not verify_manifest(out)


def test_run_digests_the_bytes_it_parsed(tmp_path, synth_dir, monkeypatch):
    # load_stack_manifest hashes each input as it parses it; the run records
    # those digests, the same hex strings a fresh hash of each file gives,
    # and reads no input a second time
    manifest = synth_dir / "stack_manifest.csv"
    _, _, digests = load_stack_manifest(manifest)
    assert len(digests) == 1 + 4
    assert digests == {p: pipeline.file_digest(Path(p)) for p in digests}

    def second_read(path):
        raise AssertionError(f"{path} read a second time")

    monkeypatch.setattr(pipeline, "file_digest", second_read)
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(stack_manifest=manifest, m=6, seed=1, k=2, k_max=4, out=out))
    assert RunManifest.read(out / "run_manifest.json").inputs == digests


def test_run_whitespace_manifest_with_header(tmp_path, synth_dir):
    # a `name path weight` header and space-separated rows load and run, and
    # the run manifest digests every grid the stack manifest names
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    rows = [line.split(",") for line in (data / "stack_manifest.csv").read_text().splitlines()[1:]]
    stack = data / "stack.txt"
    stack.write_text("name path weight\n" + "".join(" ".join(row) + "\n" for row in rows))
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(stack_manifest=stack, m=6, seed=1, k=2, k_max=4, out=out))
    inputs = RunManifest.read(out / "run_manifest.json").inputs
    grids = {str((data / path).resolve()) for _, path, _ in rows}
    assert len(grids) == 4
    assert set(inputs) == {str(stack), *grids}
    assert verify_manifest(out)


def test_run_auto_k_skips_summaries(tmp_path, synth_dir):
    out = tmp_path / "autok"
    cfg = PipelineConfig(
        stack_manifest=synth_dir / "stack_manifest.csv",
        m=8, seed=2, k=None, k_max=5, out=out,
    )
    run_pipeline(cfg)
    assert (out / "suggested_k.txt").exists()
    assert (out / "variance_curve.csv").exists()
    assert not list(out.glob("cluster*_mean.asc"))
    assert not (out / "segmentation.csv").exists()


def test_auto_k_rerun_removes_the_earlier_cut(tmp_path, synth_dir):
    # a k = auto run over a run with k = 5 leaves none of that cut's
    # outputs behind, and nothing else in the directory is touched
    out = tmp_path / "out"
    cfg = PipelineConfig(stack_manifest=synth_dir / "stack_manifest.csv", m=8, seed=2, k=5, k_max=5, out=out)
    run_pipeline(cfg)
    cut_outputs = {"segmentation.csv", "cluster_centroids.csv"} | {
        f"cluster{i}_{kind}.asc" for i in range(1, 6) for kind in ("mean", "std")
    }
    assert cut_outputs <= {p.name for p in out.iterdir()}
    (out / "notes.txt").write_text("not the run's\n")
    (out / "cluster_palette.asc").write_text("not the run's\n")
    run_pipeline(dataclasses.replace(cfg, k=None))
    names = {p.name for p in out.iterdir()}
    assert not names & cut_outputs
    assert {"notes.txt", "cluster_palette.asc", "suggested_k.txt", "merge_tree.csv"} <= names


def test_analyze_matches_direct_run(completed_run, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("analyze must re-cut the persisted tree")

    monkeypatch.setattr(pipeline, "pairwise_euclidean", refuse)
    monkeypatch.setattr(pipeline, "ward_linkage", refuse)
    out, _, _ = completed_run
    re_out = tmp_path / "reanalysis"
    analyze(out, k=3, out_dir=re_out)
    for name in [
        "segmentation.csv", "merge_tree.csv", "variance_curve.csv", "suggested_k.txt",
        "cluster_centroids.csv", "cluster1_mean.asc", "cluster3_std.asc",
    ]:
        assert (re_out / name).read_bytes() == (out / name).read_bytes(), name


def test_analyze_rejects_bad_k(completed_run, tmp_path):
    out, _, _ = completed_run
    with pytest.raises(ConfigError):
        analyze(out, k=99, out_dir=tmp_path / "x")


def test_merge_tree_csv_roundtrip(pipeline_run, tmp_path):
    # the acceptance fixture's tree, and an all-identical-maps tree (heights 0)
    out, _, _ = pipeline_run
    acceptance = ward_linkage(pairwise_euclidean(MapStore.open(out / "maps.bin"))[0])
    identical = ward_linkage(np.zeros((6, 6)))
    assert all(h == 0.0 for _, _, h, _ in identical.merges)
    for tree in (acceptance, identical):
        _write_merge_tree_csv(tree, tmp_path / "merge_tree.csv")
        back = _read_merge_tree_csv(tmp_path / "merge_tree.csv", tree.m)
        assert back == tree
        heights = [np.array([h for _, _, h, _ in t.merges]).tobytes() for t in (back, tree)]
        assert heights[0] == heights[1]


def _field(rows, step, col):
    return rows[1 + step].split(",")[col]  # rows[0] is the header


def _set_field(rows, step, col, value):
    fields = rows[1 + step].split(",")
    fields[col] = str(value)
    rows[1 + step] = ",".join(fields)


# (name, edit of the merge-tree lines, the step the error names); the
# completed run has m = 14 maps, so 13 merges and cluster ids 0..26.
TREE_CORRUPTIONS = [
    ("header", lambda r: r.__setitem__(0, "step,a,b,height,size"), None),
    ("empty", lambda r: r.clear(), None),
    ("missing row", lambda r: r.pop(), 12),
    ("extra row", lambda r: r.append(r[-1]), 13),
    ("misnumbered", lambda r: _set_field(r, 3, 0, 4), 3),
    ("short row", lambda r: r.__setitem__(1 + 2, "2,0,1,0.5"), 2),
    ("non-numeric", lambda r: _set_field(r, 2, 1, "x"), 2),
    ("self merge", lambda r: _set_field(r, 4, 2, _field(r, 4, 1)), 4),
    ("future id", lambda r: _set_field(r, 5, 1, 14 + 5), 5),
    ("negative id", lambda r: _set_field(r, 5, 1, -1), 5),
    ("id used twice", lambda r: _set_field(r, 6, 1, _field(r, 0, 1)), 6),
    ("wrong size", lambda r: _set_field(r, 7, 4, int(_field(r, 7, 4)) + 1), 7),
    ("nan height", lambda r: _set_field(r, 8, 3, "nan"), 8),
    ("inf height", lambda r: _set_field(r, 8, 3, "inf"), 8),
    ("negative height", lambda r: _set_field(r, 8, 3, "-0.5"), 8),
]


@pytest.mark.parametrize(
    "edit, step", [c[1:] for c in TREE_CORRUPTIONS], ids=[c[0] for c in TREE_CORRUPTIONS]
)
def test_analyze_rejects_corrupt_merge_tree(completed_run, tmp_path, edit, step):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    rows = (run / "merge_tree.csv").read_text().splitlines()
    edit(rows)
    (run / "merge_tree.csv").write_text("".join(row + "\n" for row in rows))
    re_out = tmp_path / "re"
    re_out.mkdir()
    with pytest.raises(DataError) as err:
        analyze(run, k=3, out_dir=re_out)
    assert str(run / "merge_tree.csv") in str(err.value)
    if step is not None:
        assert f"step {step}:" in str(err.value)
    assert not list(re_out.iterdir())


# (name, edit of the design.csv lines, the line the error names); the
# completed run has m = 14 design points on lines 2..15.
DESIGN_CORRUPTIONS = [
    ("header", lambda r: r.__setitem__(0, "i,r,t"), 1),
    ("empty", lambda r: r.clear(), 1),
    ("header only", lambda r: r.__delitem__(slice(1, None)), None),
    ("two fields", lambda r: r.__setitem__(3, "2,0.5"), 4),
    ("four fields", lambda r: r.__setitem__(3, r[3] + ",1"), 4),
    ("non-numeric r", lambda r: r.__setitem__(5, "4,x,0.1"), 6),
    ("non-numeric index", lambda r: r.__setitem__(5, "four,0.5,0.1"), 6),
    ("swapped rows", lambda r: r.__setitem__(slice(3, 5), r[4:2:-1]), 4),
]


@pytest.mark.parametrize(
    "edit, line", [c[1:] for c in DESIGN_CORRUPTIONS], ids=[c[0] for c in DESIGN_CORRUPTIONS]
)
def test_analyze_rejects_malformed_design_csv(completed_run, tmp_path, edit, line):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    rows = (run / "design.csv").read_text().splitlines()
    edit(rows)
    (run / "design.csv").write_text("".join(row + "\n" for row in rows))
    re_out = tmp_path / "re"
    with pytest.raises(DataError) as err:
        analyze(run, k=3, out_dir=re_out)
    where = str(run / "design.csv") + (f":{line}:" if line is not None else ":")
    assert where in str(err.value)
    assert not re_out.exists()


def test_cli_analyze_header_only_design_is_data_error(completed_run, tmp_path, capsys):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "design.csv").write_text("index,r,t\n")
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(tmp_path / "re")]) == 3
    assert "design.csv" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["merge_tree.csv", "run_manifest.json"])
def test_analyze_requires_run_file(completed_run, tmp_path, name):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / name).unlink()
    with pytest.raises(DataError, match=name):
        analyze(run, k=3, out_dir=tmp_path / "re")
    assert not (tmp_path / "re").exists()


def test_analyze_in_place_keeps_run_k_max(completed_run, tmp_path):
    # the run used k_max=8 of m=14; analyze takes it from run_manifest.json
    out, cfg, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    analyze(run, k=2)
    for name in ["variance_curve.csv", "suggested_k.txt", "merge_tree.csv"]:
        assert (run / name).read_bytes() == (out / name).read_bytes(), name
    assert len((run / "variance_curve.csv").read_text().splitlines()) == 1 + cfg.k_max
    analyze(run, k=2, k_max=5)  # an explicit k_max still wins
    assert len((run / "variance_curve.csv").read_text().splitlines()) == 1 + 5


def test_analyze_removes_stale_cluster_grids(completed_run, tmp_path):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    analyze(run, k=5)
    assert (run / "cluster5_std.asc").exists()
    keep = ["cluster04_mean.asc", "cluster4_mean.asc.bak", "cluster4_notes.txt"]
    for name in keep:
        (run / name).write_text("not ours\n")
    before = {p.name for p in run.iterdir()}
    analyze(run, k=3)
    stale = {f"cluster{n}_{kind}.asc" for n in (4, 5) for kind in ("mean", "std")}
    assert {p.name for p in run.iterdir()} == before - stale
    for name in ["segmentation.csv", "cluster1_mean.asc", "cluster3_std.asc"]:
        assert (run / name).read_bytes() == (out / name).read_bytes(), name


def test_analyze_workers_deprecated(completed_run, tmp_path):
    out, _, _ = completed_run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analyze(out, k=3, out_dir=tmp_path / "one", workers=1)
    with pytest.warns(DeprecationWarning, match="no effect"):
        analyze(out, k=3, out_dir=tmp_path / "two", workers=2)
    assert (tmp_path / "two" / "segmentation.csv").read_bytes() == (
        tmp_path / "one" / "segmentation.csv"
    ).read_bytes()


def test_cli_analyze_workers_warns(completed_run, tmp_path, capsys):
    out, _, _ = completed_run
    args = ["analyze", "--run-dir", str(out), "--k", "2", "--out", str(tmp_path / "re")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 0
    with pytest.warns(DeprecationWarning, match="no effect"):
        assert main(args + ["--workers", "2"]) == 0
    capsys.readouterr()


def test_failure_quarantines_partial_outputs(tmp_path, synth_dir):
    # seed 0 contains a design point in the unreachable near-boundary sliver
    # at index 106, so the aggregate stage fails after design.csv was written
    out = tmp_path / "failing"
    cfg = PipelineConfig(
        stack_manifest=synth_dir / "stack_manifest.csv",
        m=110, seed=0, k=3, k_max=5, out=out,
    )
    with pytest.raises(NoSolution) as err:
        run_pipeline(cfg)
    assert "stage 'aggregate'" in str(err.value)
    assert "design point 106" in str(err.value)
    assert (out / "incomplete").is_dir()
    assert (out / "incomplete" / "design.csv").exists()
    assert not (out / "incomplete" / "maps.bin").exists()
    assert not (out / "design.csv").exists()
    assert not (out / "run_manifest.json").exists()


def test_default_config_fails_fast(tmp_path, synth_stack, capsys):
    # the default design (m=1000, seed 0) holds two points beyond the
    # reachable frontier; the run names both and computes no map
    manifest, _ = synth_stack
    out = tmp_path / "default"
    t0 = time.perf_counter()
    with pytest.raises(NoSolution) as err:
        run_pipeline(PipelineConfig(stack_manifest=manifest, m=1000, seed=0, out=out))
    print(f"default config failed after {time.perf_counter() - t0:.2f} s")
    assert err.value.design_index == 106
    assert "failing design indices: 106, 670" in str(err.value)
    assert not list(out.rglob("maps.bin"))

    cfg = tmp_path / "default.cfg"
    cfg.write_text(f"stack_manifest = {manifest}\nout = {tmp_path / 'cli'}\n")
    assert main(["run", "--config", str(cfg)]) == 4
    assert "106, 670" in capsys.readouterr().err
    assert not list((tmp_path / "cli").rglob("maps.bin"))


def test_render_pgm(tmp_path):
    meta = GridMeta(ncols=3, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    r = Raster(meta, np.array([1.0, 0.5, -9999.0]))
    path = tmp_path / "img.pgm"
    render_pgm(r, path)
    data = path.read_bytes()
    header = b"P5\n3 1\n65535\n"
    assert data.startswith(header)
    pixels = np.frombuffer(data[len(header):], dtype=">u2")
    assert pixels.tolist() == [65535, 32767, 0]


def test_render_constant_full_scale(tmp_path):
    meta = GridMeta(ncols=2, nrows=2, xllcorner=0, yllcorner=0, cellsize=1)
    render_pgm(Raster(meta, np.ones(4)), tmp_path / "one.pgm")
    data = (tmp_path / "one.pgm").read_bytes()
    pixels = np.frombuffer(data[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
    assert pixels.tolist() == [65535] * 4


def test_run_prep_builds_stack(tmp_path):
    meta = GridMeta(ncols=4, nrows=2, xllcorner=0, yllcorner=0, cellsize=1)
    (tmp_path / "luc.asc").write_text(
        write_ascii_grid(Raster(meta, np.array([1, 1, 2, 2, 1, 2, 1, -9999], dtype=float)))
    )
    (tmp_path / "soil.asc").write_text(
        write_ascii_grid(Raster(meta, np.array([1, 16, 1, 16, 1, 1, 16, 1], dtype=float)))
    )
    (tmp_path / "ready.asc").write_text(
        write_ascii_grid(Raster(meta, np.linspace(0.0, 1.0, 8)))
    )
    (tmp_path / "cap.csv").write_text(
        "expert_id,luc_class,service,score\n"
        "e1,1,crops,4\ne2,1,crops,2\ne1,2,crops,5\ne2,2,crops,5\n"
        "e1,1,fun,1\ne2,1,fun,3\ne1,2,fun,0\ne2,2,fun,0\n"
    )
    (tmp_path / "votes.csv").write_text(
        "service,votes,total,override_weight\ncrops,7,13,\nfun,4,13,\nready,0,13,1.0\n"
    )
    (tmp_path / "prep.cfg").write_text(
        "[inputs]\n"
        "luc = luc.asc\ncapacity_matrix = cap.csv\nvotes = votes.csv\n\n"
        "[criterion:crops]\nservice = crops\nmodifier = categorical:soil_quality\n"
        "modifier_grid = soil.asc\n\n"
        "[criterion:fun]\nservice = fun\n\n"
        "[criterion:ready]\ngrid = ready.asc\n"
    )
    manifest_path = run_prep(tmp_path / "prep.cfg")
    layers, weights, _ = load_stack_manifest(manifest_path)
    by_name = {name: raster for name, raster in layers}
    assert set(by_name) == {"crops", "fun", "ready"}
    assert weights == pytest.approx([7 / 13, 4 / 13, 1.0])
    # class 1 (mean 0.6) with soil factor 1 -> suitability 0.4
    crops = by_name["crops"]
    assert crops.values[0] == pytest.approx(0.4, abs=1e-12)
    # class 1 with soil 16 (0.25) -> 1 - 0.6*0.25 = 0.85
    assert crops.values[6] == pytest.approx(0.85, abs=1e-12)
    assert not crops.valid_mask[7]  # luc nodata propagates
    assert np.array_equal(by_name["ready"].values, np.linspace(0.0, 1.0, 8))


def test_cli_weights(capsys):
    assert main(["weights", "--r", "0.0", "--t", "0.0", "--n", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "index,w_1,w_2,w_3,w_4"
    assert out[1] == "0,1.0,0.0,0.0,0.0"


def test_cli_sample(capsys):
    assert main(["sample", "--m", "5", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,r,t"
    assert len(lines) == 6


def test_cli_exit_codes(tmp_path, synth_dir, capsys):
    # 2: config error
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense = 1\n")
    assert main(["run", "--config", str(bad_cfg)]) == 2

    # 3: data error (manifest points at a missing grid)
    data_cfg = tmp_path / "data.cfg"
    missing_manifest = tmp_path / "manifest.csv"
    missing_manifest.write_text("name,path,weight\nx,missing.asc,1.0\ny,also.asc,1.0\n")
    data_cfg.write_text(f"stack_manifest = {missing_manifest}\nm = 4\nk = 2\nk_max = 2\nout = o3\n")
    assert main(["run", "--config", str(data_cfg)]) == 3

    # 4: numerical failure (pocket design point, cf. quarantine test)
    num_cfg = tmp_path / "num.cfg"
    num_cfg.write_text(
        f"stack_manifest = {synth_dir}/stack_manifest.csv\n"
        "m = 110\nseed = 0\nk = 3\nk_max = 5\nout = o4\n"
    )
    assert main(["run", "--config", str(num_cfg)]) == 4
    capsys.readouterr()


def test_cli_infeasible_weights_is_data_error(capsys):
    assert main(["weights", "--r", "0.2", "--t", "0.65"]) == 3
    assert main(["weights", "--r", "1.5", "--t", "0.0"]) == 3
    capsys.readouterr()


def test_cli_render_roundtrip(tmp_path, synth_dir, capsys):
    out = tmp_path / "img.pgm"
    assert main(["render", str(synth_dir / "criterion_00.asc"), str(out)]) == 0
    assert out.read_bytes().startswith(b"P5\n24 16\n65535\n")
    capsys.readouterr()
