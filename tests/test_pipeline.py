import dataclasses
import errno
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import pairwise_from_store, verify_manifest
from owa_explorer import mapstore, owa, pipeline
from owa_explorer.cli import main
from owa_explorer.cluster import ward_linkage
from owa_explorer.errors import ConfigError, DataError, NumericalError
from owa_explorer.grid import GridMeta, Raster, parse_ascii_grid, read_grid, write_ascii_grid
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


def test_config_keys_are_the_dataclass_fields(tmp_path, capsys):
    # every PipelineConfig field is a key, an omitted key takes its field's
    # default, and a name that is no field is an unknown key
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stack_manifest = x\n")
    cfg = load_config(cfg_path)
    for f in dataclasses.fields(PipelineConfig):
        if f.name != "stack_manifest":
            assert getattr(cfg, f.name) == f.default, f.name
    values = {
        "stack_manifest": "x", "m": "20", "seed": "3", "k": "4", "k_max": "6", "out": "res",
        "memory_budget_mib": "8", "workers": "2", "write_distances": "yes",
    }
    assert set(values) == {f.name for f in dataclasses.fields(PipelineConfig)}
    cfg_path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    with pytest.warns(DeprecationWarning, match="'workers'"):
        cfg = load_config(cfg_path)
    assert dataclasses.asdict(cfg) == {
        "stack_manifest": (tmp_path / "x").resolve(), "m": 20, "seed": 3, "k": 4, "k_max": 6,
        "out": (tmp_path / "res").resolve(), "memory_budget_mib": 8, "workers": 2, "write_distances": True,
    }
    cfg_path.write_text("stack_manifest = x\ncriteria = 3\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert f"{cfg_path}:2: unknown key 'criteria'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("k = Five", "config key 'k' must be an integer or 'auto', got 'five'"),
        ("write_distances = On", "config key 'write_distances' must be true/false/yes/no/1/0, got 'On'"),
        ("m = 1.5", "config key 'm' must be an integer, got '1.5'"),
        ("memory_budget_mib = lots", "config key 'memory_budget_mib' must be an integer, got 'lots'"),
    ],
)
def test_load_config_value_messages(tmp_path, line, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"stack_manifest = x\n{line}\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert str(err.value) == message


def test_config_names_every_value_out_of_range(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stack_manifest = x\nm = 1\nseed = -3\nk_max = 0\nk = 40\nmemory_budget_mib = 0\n")
    message = (
        "m must be >= 2, got 1; seed must be >= 0, got -3; k_max must be >= 1, got 0; "
        "k must be in [1, m], got 40; memory budget must be >= 1 MiB, got 0"
    )
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert str(err.value) == message
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "text, faults",
    [
        ("stack_manifest = x\nm = ten\nseed = x\nbogus = 1\n", [
            ":4: unknown key 'bogus'", "config key 'm' must be an integer, got 'ten'",
            "config key 'seed' must be an integer, got 'x'",
        ]),
        ("m = ten\nm = 5\nbogus = 1\nk 3\n", [
            ":2: duplicate key 'm'", ":3: unknown key 'bogus'", ":4: expected 'key = value', got 'k 3'",
            ": missing required key 'stack_manifest'", "config key 'm' must be an integer, got 'ten'",
        ]),
    ],
    ids=["unknown and unparsable", "every kind"],
)
def test_load_config_names_every_bad_line_and_key(tmp_path, text, faults):
    # lines in file order, then missing and unparsable keys in field order
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert str(err.value) == "; ".join(f"{cfg_path}{f}" if f[0] == ":" else f for f in faults)


@pytest.mark.parametrize(
    "text, message",
    [
        ("stack_manifest = x\nm = 4\nm = 5\n", ":3: duplicate key 'm'"),
        ("stack_manifest = x\nm 5\n", ":2: expected 'key = value', got 'm 5'"),
        ("m = 4\n", ": missing required key 'stack_manifest'"),
        # comment and blank lines count in the line numbers but hold no key
        ("# a run\n\n   \nstack_manifest = x  # the stack\n# m = 3\nm = 4\nm = 6\n", ":7: duplicate key 'm'"),
    ],
)
def test_load_config_line_messages(tmp_path, text, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert str(err.value) == f"{cfg_path}{message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("name,path,weight\na,a.asc,1\nb,b.asc\n", ":3: expected 'name,path,weight', got 'b,b.asc'"),
        ("# no rows\n\n  # at all\n", ": empty stack manifest"),
    ],
)
def test_load_stack_manifest_line_messages(tmp_path, text, message):
    path = tmp_path / "stack.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load_stack_manifest(path)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("threads", [1, 2])
def test_load_names_every_malformed_grid_in_manifest_order(tmp_path, synth_dir, threads):
    # the grids parse on a pool, yet one error names each bad grid with its
    # first problem, in manifest order, and no helper outlives the load
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    for name, prefix in (("criterion_01.asc", " 0x"), ("criterion_03.asc", " 0y")):
        grid = data / name
        grid.write_text(grid.read_text().replace(" 0.", prefix, 1))
    alive = threading.active_count()
    with pytest.raises(DataError) as err:
        load_stack_manifest(data / "stack_manifest.csv", threads)
    first, second = str(err.value).split("; ")
    assert first.startswith(f"{data / 'criterion_01.asc'}: cell value '0x")
    assert second.startswith(f"{data / 'criterion_03.asc'}: cell value '0y")
    assert threading.active_count() == alive


def test_load_raises_a_missing_grid_as_os_error(tmp_path, synth_dir):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    (data / "criterion_02.asc").unlink()
    grid = data / "criterion_01.asc"
    grid.write_text(grid.read_text().replace(" 0.", " 0x", 1))
    with pytest.raises(FileNotFoundError, match="criterion_02.asc"):
        load_stack_manifest(data / "stack_manifest.csv", 1)


@pytest.mark.parametrize("key", ["workers"])
def test_load_config_rejects_explicit_zero(tmp_path, key):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stack_manifest = x\n")
    cfg = load_config(cfg_path)  # an omitted key keeps its default
    assert cfg.workers is None
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


@pytest.mark.parametrize(
    "command", [["run", "--config", "run.cfg"], ["analyze", "--run-dir", "run", "--k", "2"]], ids=["run", "analyze"]
)
def test_cli_refuses_workers_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


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
    with cfg_path.open("a") as f:
        f.write("workers = 2\n")
    args = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "w2")]
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
    d = np.sqrt(pairwise_from_store(MapStore.open(out / "maps.bin"))[0])
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


def test_run_manifest_records_metrics(completed_run, tmp_path):
    # the recompute count, the valid pixels and the map pass's stated need
    # ride in the manifest alone: a rerun into another directory with
    # another memory budget writes the same metrics and every other output
    # byte for byte
    out, cfg, manifest = completed_run
    store = MapStore.open(out / "maps.bin")
    _, recomputed = pairwise_from_store(store)
    m, pixels, n = store.m, store.pixel_count, 4  # synth_dir holds 4 criteria
    assert pixels < 1024  # one chunk, and a round of every pixel
    need = 8 * (2 * m * m + m * n + pixels * m + pixels + pixels * (m + 3 * n) + 2 * np.getbufsize())
    assert manifest.metrics == {
        "distance_pairs_recomputed": recomputed, "map_pass_bytes": need, "threads": 1, "valid_pixels": pixels,
    }
    assert RunManifest.read(out / "run_manifest.json").metrics == manifest.metrics
    again = tmp_path / "again"
    rerun = run_pipeline(dataclasses.replace(cfg, out=again, memory_budget_mib=1))
    assert rerun.metrics == manifest.metrics
    names = sorted(p.name for p in out.iterdir() if p.is_file() and p.name != "run_manifest.json")
    assert names == sorted(p.name for p in again.iterdir() if p.is_file() and p.name != "run_manifest.json")
    for name in names:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name
    # a manifest written before the metrics existed still reads, and
    # analyze takes only the run's k_max from its config
    old = json.loads((again / "run_manifest.json").read_text())
    del old["metrics"]
    old["config"] = {"k_max": old["config"]["k_max"]}
    (again / "run_manifest.json").write_text(json.dumps(old))
    assert RunManifest.read(again / "run_manifest.json").metrics == {}
    analyze(again, k=2, out_dir=tmp_path / "re")
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
    acceptance = ward_linkage(pairwise_from_store(MapStore.open(out / "maps.bin"))[0])
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


def test_analyze_rejects_design_of_another_length(completed_run, tmp_path):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    rows = (run / "design.csv").read_text().splitlines()
    (run / "design.csv").write_text("".join(row + "\n" for row in rows[:-1]))
    with pytest.raises(DataError) as err:
        analyze(run, k=3, out_dir=tmp_path / "re")
    assert str(err.value) == f"{run / 'design.csv'}: 13 points for 14 maps"
    assert not (tmp_path / "re").exists()


def test_cli_analyze_names_every_design_point_above_the_parabola(completed_run, tmp_path, capsys):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    rows = (run / "design.csv").read_text().splitlines()
    rows[3], rows[8] = "2,0.1,0.9", "7,0.95,0.5"
    (run / "design.csv").write_text("".join(row + "\n" for row in rows))
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(tmp_path / "re")]) == 3
    err = capsys.readouterr().err
    assert "design point 2 (r=0.1, t=0.9) outside the strategy space; failing design indices: 2, 7" in err
    assert not (tmp_path / "re").exists()


@pytest.mark.parametrize("row, message", [
    ("0,0.9,0.9", "design point 0 (r=0.9, t=0.9) outside the strategy space; failing design indices: 0"),
    ("2,nan,0.5", "design point 2 (r=nan, t=0.5) outside the strategy space; failing design indices: 2"),
], ids=["above the parabola", "nan"])
def test_cli_analyze_names_design_csv_for_a_point_outside_the_space(completed_run, tmp_path, capsys, row, message):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    rows = (run / "design.csv").read_text().splitlines()
    rows[1 + int(row.split(",")[0])] = row
    (run / "design.csv").write_text("".join(line + "\n" for line in rows))
    assert main(["analyze", "--run-dir", str(run), "--k", "3", "--out", str(tmp_path / "re")]) == 3
    assert f"{run / 'design.csv'}: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


def test_cli_analyze_names_every_design_point_outside_the_space(completed_run, tmp_path, capsys):
    # nan, outside the unit square and above the parabola: one message
    # naming design.csv and every index
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    rows = (run / "design.csv").read_text().splitlines()
    rows[2], rows[5], rows[10] = "1,nan,0.5", "4,0.5,1.5", "9,0.1,0.9"
    (run / "design.csv").write_text("".join(line + "\n" for line in rows))
    assert main(["analyze", "--run-dir", str(run), "--k", "3", "--out", str(tmp_path / "re")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {run / 'design.csv'}: design point 1 (r=nan, t=0.5) outside the strategy space; "
        "failing design indices: 1, 4, 9\n"
    )
    assert not (tmp_path / "re").exists()


def test_cli_analyze_header_only_design_is_data_error(completed_run, tmp_path, capsys):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "design.csv").write_text("index,r,t\n")
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(tmp_path / "re")]) == 3
    assert "design.csv" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["no maps", "no pixels", "a pixel short"])
def test_cli_analyze_store_header_of_another_shape_is_data_error(completed_run, tmp_path, capsys, edit):
    # the header's counts, with the file cut to match so the size check
    # passes: an empty store is refused when opened, and one pixel short of
    # mask.asc's valid cells before anything is staged
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    header = mapstore._HEADER
    with open(run / "maps.bin", "r+b") as f:
        magic, version, m, pixels, digest = header.unpack(f.read(header.size))
        m, pixels = {"no maps": (0, pixels), "no pixels": (m, 0), "a pixel short": (m, pixels - 1)}[edit]
        f.seek(0)
        f.write(header.pack(magic, version, m, pixels, digest))
        f.truncate(mapstore.store_size(m, pixels))
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(tmp_path / "re")]) == 3
    err = capsys.readouterr().err
    assert f"{run / 'maps.bin'}: " in err, err
    assert ("mask.asc has" in err) == (edit == "a pixel short"), err
    assert not (tmp_path / "re").exists()


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


def test_cli_analyze_checks_k_then_the_mask_digest(completed_run, tmp_path, capsys):
    # k is checked against the store header before design.csv is parsed,
    # and a mask.asc whose digest differs from the store's is a data error
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "design.csv").write_text("not a design\n")
    args = ["analyze", "--run-dir", str(run), "--out", str(tmp_path / "re")]
    assert main(args + ["--k", "99"]) == 2
    assert "k must be in [1, 14], got 99" in capsys.readouterr().err
    shutil.copy(out / "design.csv", run / "design.csv")
    mask = parse_ascii_grid((run / "mask.asc").read_text())
    values = mask.values.copy()
    values[np.argmax(values == 1.0)] = 0.0
    (run / "mask.asc").write_text(write_ascii_grid(Raster(mask.meta, values)))
    assert main(args + ["--k", "2"]) == 3
    assert "different validity mask" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


@pytest.mark.parametrize(
    "defect, message", [("k_max", "k_max must be in [1, 14], got 0"), ("mask", "different validity mask")]
)
def test_cli_analyze_checks_before_any_directory(completed_run, tmp_path, capsys, defect, message):
    # a manifest whose k_max the curve cannot take, or a mask whose digest
    # differs from the store's, exits 3 before --out or incomplete/ exists
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    if defect == "k_max":
        manifest = json.loads((run / "run_manifest.json").read_text())
        manifest["config"]["k_max"] = 0
        (run / "run_manifest.json").write_text(json.dumps(manifest))
    else:
        mask = parse_ascii_grid((run / "mask.asc").read_text())
        values = mask.values.copy()
        values[np.argmax(values == 1.0)] = 0.0
        (run / "mask.asc").write_text(write_ascii_grid(Raster(mask.meta, values)))
    re_out = tmp_path / "re"
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(re_out)]) == 3
    assert message in capsys.readouterr().err
    assert not re_out.exists()
    assert main(["analyze", "--run-dir", str(run), "--k", "2"]) == 3
    assert not (run / "incomplete").exists()
    capsys.readouterr()


@pytest.mark.parametrize("k_max", [0, 99])
def test_cli_analyze_names_the_manifest_for_a_k_max_outside_one_to_m(completed_run, tmp_path, capsys, k_max):
    # the curve takes the manifest's k_max as it is: one above m is refused
    # like zero, naming run_manifest.json, before anything is staged
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    manifest = json.loads((run / "run_manifest.json").read_text())
    manifest["config"]["k_max"] = k_max
    (run / "run_manifest.json").write_text(json.dumps(manifest))
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(tmp_path / "re")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {run / 'run_manifest.json'}: k_max must be in [1, 14], got {k_max}\n"
    )
    assert not (tmp_path / "re").exists()


_NO_CORNER = "ncols 2\nnrows 1\ncellsize 5\n0.2 0.8\n"


def test_cli_render_names_the_bad_grid(tmp_path, capsys):
    grid = tmp_path / "bad.asc"
    grid.write_text(_NO_CORNER)
    assert main(["render", str(grid), str(tmp_path / "bad.pgm")]) == 3
    assert f"{grid}: missing header keys: xllcorner, yllcorner" in capsys.readouterr().err


def test_cli_analyze_names_the_bad_mask(completed_run, tmp_path, capsys):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    text = (run / "mask.asc").read_text()
    (run / "mask.asc").write_text("".join(line for line in text.splitlines(True) if "llcorner" not in line))
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(tmp_path / "re")]) == 3
    assert f"{run / 'mask.asc'}: missing header keys: xllcorner, yllcorner" in capsys.readouterr().err


def test_cli_run_names_the_bad_grid(tmp_path, synth_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    grid = data / "criterion_01.asc"
    grid.write_text(grid.read_text().replace("cellsize 5\n", "cellsize 0\n"))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"stack_manifest = {data}/stack_manifest.csv\nm = 6\nk_max = 4\nout = out\n")
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert f"{grid.resolve()}: cellsize must be positive, got 0.0" in capsys.readouterr().err


def test_cli_run_out_flag_is_relative_to_the_working_directory(tmp_path, synth_dir, monkeypatch, capsys):
    # --out resolves against the working directory like every other flag;
    # the out key resolves against the config file
    cfg_path = _small_run_cfg(tmp_path, synth_dir)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", "--config", str(cfg_path), "--out", "rel"]) == 0
    assert (cwd / "rel" / "run_manifest.json").exists()
    assert not (tmp_path / "rel").exists()
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "run_manifest.json").exists()
    assert not (cwd / "out").exists()
    capsys.readouterr()


def _put_byte(path: Path, byte: bytes = b"\xff") -> None:
    """Replace the first byte of path's second line with one that is not UTF-8 text."""
    data = path.read_bytes()
    at = data.index(b"\n") + 1
    path.write_bytes(data[:at] + byte + data[at + 1:])


def test_cli_run_input_not_text(tmp_path, synth_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    _put_byte(data / "criterion_02.asc")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"stack_manifest = {data}/stack_manifest.csv\nm = 6\nk_max = 4\nout = out\n")
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert f"{(data / 'criterion_02.asc').resolve()}: byte 0xff" in capsys.readouterr().err
    assert not list(tmp_path.rglob("maps.bin"))


# one fault in the cells of a 2x1 grid, and the message every route gives for it
GRID_FAULTS = [
    ("latin-1 byte", b"0.2 0.\xe9", "byte 0xe9 at offset 76 is not UTF-8"),
    ("no-break space", "0.2\xa00.3 0.4".encode(), "token '0.2\\xa00.3' is not ASCII"),
    ("Arabic-Indic digit", "0.2 \u0661".encode(), "token '\u0661' is not ASCII"),
]


@pytest.mark.parametrize("body, message", [c[1:] for c in GRID_FAULTS], ids=[c[0] for c in GRID_FAULTS])
def test_grid_fault_reads_the_same_by_every_route(tmp_path, synth_dir, capsys, body, message):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    grid = (data / "criterion_01.asc").resolve()
    grid.write_bytes(b"ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 5\nNODATA_value -9999\n" + body)
    expected = f"{grid}: {message}"
    routes = [lambda: parse_ascii_grid(grid.read_bytes(), grid), lambda: read_grid(grid)]
    if message.startswith("token"):  # text cannot hold a byte that is not UTF-8
        routes.append(lambda: parse_ascii_grid(grid.read_bytes().decode(), grid))
    for route in routes:
        with pytest.raises(DataError) as err:
            route()
        assert str(err.value) == expected
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"stack_manifest = {data}/stack_manifest.csv\nm = 6\nk_max = 4\nout = out\n")
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert f"{expected}\n" in capsys.readouterr().err


def test_cli_analyze_input_not_text(completed_run, tmp_path, capsys):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    _put_byte(run / "mask.asc")
    assert main(["analyze", "--run-dir", str(run), "--k", "2", "--out", str(tmp_path / "re")]) == 3
    assert f"{run / 'mask.asc'}: byte 0xff" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


def test_cli_render_input_not_text(completed_run, tmp_path, capsys):
    out, _, _ = completed_run
    grid = tmp_path / "mean.asc"
    shutil.copy(out / "cluster1_mean.asc", grid)
    _put_byte(grid)
    assert main(["render", str(grid), str(tmp_path / "mean.pgm")]) == 3
    assert f"{grid}: byte 0xff" in capsys.readouterr().err
    assert not (tmp_path / "mean.pgm").exists()


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


def test_failure_quarantines_partial_outputs(tmp_path, synth_dir):
    # seed 0 contains a design point in the unreachable near-boundary sliver
    # at index 106, so the aggregate stage fails after design.csv was written
    out = tmp_path / "failing"
    cfg = PipelineConfig(
        stack_manifest=synth_dir / "stack_manifest.csv",
        m=110, seed=0, k=3, k_max=5, out=out,
    )
    with pytest.raises(NumericalError, match="^stage 'aggregate': design point 106 ") as err:
        run_pipeline(cfg)
    assert "stage 'aggregate'" in str(err.value)
    assert "design point 106" in str(err.value)
    assert (out / "incomplete").is_dir()
    assert (out / "incomplete" / "design.csv").exists()
    assert not (out / "incomplete" / "maps.bin").exists()
    assert not (out / "design.csv").exists()
    assert not (out / "run_manifest.json").exists()


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def test_failed_rerun_leaves_out_untouched(tmp_path, synth_dir):
    # a complete run plus an unrelated file stay byte-identical under a
    # rerun that fails in the aggregate stage; incomplete/ is replaced and
    # then holds only what the failed run wrote
    out = tmp_path / "out"
    cfg = PipelineConfig(
        stack_manifest=synth_dir / "stack_manifest.csv", m=8, seed=2, k=3, k_max=5, out=out,
        write_distances=True,
    )
    run_pipeline(cfg)
    (out / "NOTES.txt").write_text("not the run's\n")
    (out / "incomplete").mkdir()
    (out / "incomplete" / "maps.bin").write_text("an older failure\n")
    before = _snapshot(out)
    with pytest.raises(NumericalError, match="^stage 'aggregate': design point 106 "):
        run_pipeline(dataclasses.replace(cfg, m=110, seed=0, write_distances=False))
    assert _snapshot(out) == before
    assert {p.name for p in out.iterdir()} == {*before, "incomplete"}
    assert {p.name for p in (out / "incomplete").iterdir()} == {"design.csv", "mask.asc"}


def test_rerun_removes_outputs_it_no_longer_writes(tmp_path, synth_dir):
    out = tmp_path / "out"
    cfg = PipelineConfig(
        stack_manifest=synth_dir / "stack_manifest.csv", m=6, seed=1, k=2, k_max=4, out=out,
        write_distances=True,
    )
    run_pipeline(cfg)
    assert (out / "distances.bin").exists() and (out / "distances_header.csv").exists()
    run_pipeline(dataclasses.replace(cfg, m=8, write_distances=False))
    names = {p.name for p in out.iterdir()}
    assert not names & {"distances.bin", "distances_header.csv", "incomplete"}
    assert MapStore.open(out / "maps.bin").m == 8
    assert verify_manifest(out)


def _fill_disk_at_cluster_grids(monkeypatch):
    # the grid write of the summaries stage runs out of space halfway
    write_text = Path.write_text

    def full(path, text, *args, **kwargs):
        if path.name.startswith("cluster") and path.suffix == ".asc":
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full)


def test_full_disk_in_summaries_leaves_run_untouched(completed_run, tmp_path, monkeypatch):
    out, cfg, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "NOTES.txt").write_text("not the run's\n")
    before = _snapshot(run)
    _fill_disk_at_cluster_grids(monkeypatch)
    with pytest.raises(OSError, match="stage 'summaries'") as err:
        run_pipeline(dataclasses.replace(cfg, seed=3, k=4, out=run))
    assert err.value.errno == errno.ENOSPC
    assert _snapshot(run) == before
    assert (run / "incomplete" / "maps.bin").exists()


@pytest.mark.parametrize("stage, name", [
    ("load", "load_stack_manifest"), ("sample", "sample_design"), ("aggregate", "batch_compute"),
    ("distances", "pairwise_euclidean"), ("cluster", "ward_linkage"), ("summaries", "cluster_summaries"),
])
def test_fault_in_each_stage_leaves_run_untouched(completed_run, tmp_path, monkeypatch, stage, name):
    # the error names its stage and keeps its fields; a complete run plus an
    # unrelated file stay byte-identical
    out, cfg, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "NOTES.txt").write_text("not the run's\n")
    before = _snapshot(run)

    def fail(*args, **kwargs):
        raise OSError(errno.EIO, os.strerror(errno.EIO), name)

    monkeypatch.setattr(pipeline, name, fail)
    with pytest.raises(OSError, match=f"stage '{stage}'") as err:
        run_pipeline(dataclasses.replace(cfg, seed=3, k=4, out=run))
    assert (err.value.errno, err.value.filename) == (errno.EIO, name)
    assert _snapshot(run) == before


def test_cli_run_stack_without_valid_cell_fails_at_load(tmp_path, capsys):
    # no cell is valid in every layer: the run stops before sampling and
    # names each layer's valid-cell count
    manifest = synth_generate(8, 8, 3, seed=0, out_dir=tmp_path / "data")
    grid = tmp_path / "data" / "criterion_00.asc"
    meta = parse_ascii_grid(grid.read_text()).meta
    grid.write_text(write_ascii_grid(Raster(meta, np.full(meta.size, meta.nodata_value))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"stack_manifest = {manifest}\nout = {tmp_path / 'out'}\nm = 6\nk_max = 3\n")
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "stage 'load'" in err
    assert "'criterion_00' 0, 'criterion_01' 64, 'criterion_02' 63" in err
    assert [p.name for p in (tmp_path / "out").rglob("*") if p.is_file()] == []  # no design.csv, no maps.bin


def test_cli_run_over_budget_exits_2_before_the_solve(completed_run, tmp_path, monkeypatch, capsys):
    # 300 maps need 16 m^2 = 1.4 MB for d^2 and its Gram temporary alone, so
    # a 1 MiB budget cannot hold the map pass: the run stops at load, names
    # the need and the budget, solves no weight and leaves out/ as it was
    out, cfg, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)

    def refuse(*args, **kwargs):
        raise AssertionError("a run over budget must not solve any weight")

    monkeypatch.setattr(owa, "generate_weights_batch", refuse)
    before = {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()}
    config = tmp_path / "run.cfg"
    config.write_text(
        f"stack_manifest = {cfg.stack_manifest}\nout = {run}\nm = 300\nk_max = 5\nmemory_budget_mib = 1\n"
    )
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "stage 'load'" in err
    assert "need memory_budget_mib >= 4, got 1" in err
    assert {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def _statvfs(available: int, block: int) -> os.statvfs_result:
    # (f_bsize, f_frsize, f_blocks, f_bfree, f_bavail, f_files, f_ffree, f_favail, f_flag, f_namemax)
    return os.statvfs_result((block, block, 0, 0, available, 0, 0, 0, 0, 255))


def test_cli_run_without_free_disk_exits_3_before_the_solve(completed_run, tmp_path, monkeypatch, capsys):
    # maps.bin and distances.bin would not fit the free space: the run stops
    # at load with ENOSPC, names both sizes, solves no weight and leaves
    # out/ as it was
    out, cfg, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)

    def refuse(*args, **kwargs):
        raise AssertionError("a run without disk space must not solve any weight")

    monkeypatch.setattr(owa, "generate_weights_batch", refuse)
    monkeypatch.setattr(os, "statvfs", lambda path: _statvfs(available=128, block=4096))
    before = {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()}
    config = tmp_path / "run.cfg"
    config.write_text(
        f"stack_manifest = {cfg.stack_manifest}\nout = {run}\nm = 300\nk_max = 5\nwrite_distances = true\n"
    )
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    pixels = MapStore.open(run / "maps.bin").pixel_count
    need = (60 + 8 * 300 * pixels + 4 * 300 * 299) / 2**20
    assert "stage 'load'" in err and "[Errno 28]" in err
    assert f"maps.bin and distances.bin need {need:.1f} MiB" in err
    assert "has 0.5 MiB free" in err
    assert {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def test_free_disk_check_counts_distances_only_when_written(tmp_path, monkeypatch):
    # the check needs exactly the bytes the two files take, not one more
    maps_bytes, distances_bytes = 60 + 8 * 5 * 7, 4 * 5 * 4
    for write_distances, need in ((False, maps_bytes), (True, maps_bytes + distances_bytes)):
        for free, fits in ((need, True), (need - 1, False)):
            monkeypatch.setattr(os, "statvfs", lambda path: _statvfs(available=free, block=1))
            if fits:
                pipeline._check_free_disk(tmp_path, 5, 7, write_distances)
            else:
                with pytest.raises(OSError) as err:
                    pipeline._check_free_disk(tmp_path, 5, 7, write_distances)
                assert err.value.errno == errno.ENOSPC


def test_failed_move_while_publishing_leaves_no_manifest(completed_run, tmp_path, monkeypatch):
    # a rerun into a complete run whose fifth move fails: no manifest sits
    # in out/, the files not yet moved stay staged, and errno survives
    out, cfg, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    replace, moved = os.replace, []

    def fail_fifth(src, dst):
        if len(moved) == 4:
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(src))
        replace(src, dst)
        moved.append(Path(dst).name)

    monkeypatch.setattr(os, "replace", fail_fifth)
    with pytest.raises(OSError) as err:
        run_pipeline(dataclasses.replace(cfg, seed=3, out=run))
    assert err.value.errno == errno.EIO
    staged = {p.name for p in (run / "incomplete").iterdir()}
    assert not (run / "run_manifest.json").exists()
    assert "run_manifest.json" in staged and len(moved) == 4 and not staged & set(moved)
    assert staged | set(moved) == {p.name for p in out.iterdir()}
    assert all((run / name).exists() for name in moved)


def test_full_disk_in_analyze_leaves_run_untouched(completed_run, tmp_path, monkeypatch):
    out, _, _ = completed_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    before = _snapshot(run)
    _fill_disk_at_cluster_grids(monkeypatch)
    with pytest.raises(OSError) as err:
        analyze(run, k=2)
    assert err.value.errno == errno.ENOSPC
    assert _snapshot(run) == before
    assert {"merge_tree.csv", "segmentation.csv"} <= {p.name for p in (run / "incomplete").iterdir()}


def test_default_config_fails_fast(tmp_path, synth_stack, capsys):
    # the default design (m=1000, seed 0) holds two points beyond the
    # reachable frontier; the run names both and computes no map
    manifest, _ = synth_stack
    out = tmp_path / "default"
    t0 = time.perf_counter()
    with pytest.raises(NumericalError, match="^stage 'aggregate': design point 106 ") as err:
        run_pipeline(PipelineConfig(stack_manifest=manifest, m=1000, seed=0, out=out))
    print(f"default config failed after {time.perf_counter() - t0:.2f} s")
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


@pytest.mark.parametrize(
    "args, message", [(["sample", "--m", "0"], "m must be >= 1, got 0"), (["weights", "--r", "0.5", "--t", "0.5", "--n", "1"], "n must be >= 2, got 1")]
)
def test_cli_rejects_too_few_points_or_weights(capsys, args, message):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n" and captured.out == ""


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
