"""End-to-end orchestration: config, synthetic data, the full run, re-analysis.

A run is deterministic: with the same inputs, config and seed, every CSV,
grid and map-store byte is reproduced exactly. The run manifest (config
snapshot, input digests, stage durations, run metrics) is the only output
containing wall-clock information.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import (
    MergeTree,
    cluster_summaries,
    export_segmentation,
    pairwise_euclidean,
    suggest_k,
    variance_ratio_curve,
    ward_linkage,
    cut,
)
from .errors import ConfigError, DataError
from .grid import GridMeta, Raster, build_stack, parse_ascii_grid, write_ascii_grid
from .mapstore import MapStore, mask_digest
from .owa import batch_compute
from .strategy import DecisionPoint, ExperimentalDesign, sample_design

DEFAULT_MEMORY_BUDGET_MIB = 512


@dataclass
class PipelineConfig:
    stack_manifest: Path
    m: int = 1000
    seed: int = 0
    k: int | None = None  # None = emit the curve and a suggestion only
    k_max: int = 15
    out: Path = Path("out")
    memory_budget_mib: int = DEFAULT_MEMORY_BUDGET_MIB
    workers: int | None = None  # deprecated: no stage uses threads
    criteria: int | None = None
    write_distances: bool = False

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.k_max > self.m:
            raise ConfigError(f"k_max ({self.k_max}) cannot exceed m ({self.m})")
        if self.k is not None and not (1 <= self.k <= self.m):
            raise ConfigError(f"k must be in [1, m], got {self.k}")
        if self.workers is not None:
            if self.workers < 1:
                raise ConfigError(f"workers must be >= 1, got {self.workers}")
            msg = "config key 'workers' is deprecated and has no effect: every stage runs on one thread"
            warnings.warn(msg, DeprecationWarning, stacklevel=3)
        if self.criteria is not None and self.criteria < 2:
            raise ConfigError(f"criteria must be >= 2, got {self.criteria}")
        if self.memory_budget_mib < 1:
            raise ConfigError(f"memory budget must be >= 1 MiB, got {self.memory_budget_mib}")

    @property
    def memory_budget(self) -> int:
        return self.memory_budget_mib * 1024 * 1024


_CONFIG_KEYS = {
    "stack_manifest", "m", "seed", "k", "k_max", "out",
    "memory_budget_mib", "workers", "criteria", "write_distances",
}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a flat `key = value` config file; overrides (from flags) win."""
    path = Path(path)
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    if "stack_manifest" not in raw:
        raise ConfigError(f"{path}: missing required key 'stack_manifest'")

    def as_bool(key: str) -> bool:
        value = raw.get(key, "false").strip().lower()
        if value not in _BOOLEANS:
            raise ConfigError(f"config key {key!r} must be true/false/yes/no/1/0, got {raw[key]!r}")
        return _BOOLEANS[value]

    def as_int(key: str, default: int | None) -> int | None:
        if key not in raw:
            return default
        try:
            return int(raw[key])
        except ValueError:
            raise ConfigError(f"config key {key!r} must be an integer, got {raw[key]!r}") from None

    k_raw = raw.get("k", "auto").strip().lower()
    if k_raw in ("auto", "auto-suggest", ""):
        k = None
    else:
        try:
            k = int(k_raw)
        except ValueError:
            raise ConfigError(f"config key 'k' must be an integer or 'auto', got {k_raw!r}") from None

    base = path.parent
    return PipelineConfig(
        stack_manifest=(base / raw["stack_manifest"]).resolve(),
        m=as_int("m", 1000),
        seed=as_int("seed", 0),
        k=k,
        k_max=as_int("k_max", 15),
        out=(base / raw["out"]).resolve() if "out" in raw else Path("out").resolve(),
        memory_budget_mib=as_int("memory_budget_mib", DEFAULT_MEMORY_BUDGET_MIB),
        workers=as_int("workers", None),
        criteria=as_int("criteria", None),
        write_distances=as_bool("write_distances"),
    )


def _read_hashed(path: Path, digests: dict[str, str]) -> str:
    """The text of a file; records the SHA-256 of its bytes in digests
    under its path. The bytes are dropped before the text is parsed."""
    data = path.read_bytes()
    digests[str(path)] = hashlib.sha256(data).hexdigest()
    return data.decode()


def _parse_weight(token: str) -> float | None:
    """A number or a votes/total fraction like `7/13`; None unless it
    parses to a finite value."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            weight = float(num) / float(den)
        else:
            weight = float(token)
    except (ValueError, ZeroDivisionError):
        return None
    return weight if math.isfinite(weight) else None


def load_stack_manifest(path: str | Path):
    """Read the stack manifest: one `name path weight` row per criterion.

    The weight column accepts either a number or a votes/total fraction
    like `7/13`. Every weight is parsed before any grid is read; if any is
    not a finite number > 0, DataError names the line and the token of each.
    Paths are relative to the manifest file. Returns the
    (name, raster) layers, their weights and the SHA-256 digests of the
    manifest and of each grid, keyed by path, taken from the very bytes
    that were parsed.
    """
    path = Path(path)
    base = path.parent
    rows = []
    bad = []
    digests: dict[str, str] = {}
    for lineno, line in enumerate(_read_hashed(path, digests).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",") if "," in line else line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'name,path,weight', got {line!r}")
        name, grid_path, weight_s = (p.strip() for p in parts)
        if name == "name" and weight_s == "weight":
            continue  # header row
        weight = _parse_weight(weight_s)
        if weight is None or weight <= 0:
            bad.append(f"{path}:{lineno}: weight {weight_s!r}")
        rows.append((name, grid_path, weight))
    if bad:
        raise DataError(
            "criterion weights must be finite numbers > 0 or votes/total fractions with a "
            "nonzero total: " + "; ".join(bad)
        )
    if not rows:
        raise DataError(f"{path}: empty stack manifest")
    layers = [
        (name, parse_ascii_grid(_read_hashed((base / grid_path).resolve(), digests)))
        for name, grid_path, _ in rows
    ]
    return layers, [weight for _, _, weight in rows], digests


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes, as a hex string. The run does not call
    it (load_stack_manifest hashes what it parses); perfbench/tracer.py
    wraps it by name, and the tests re-hash a run's inputs with it."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    config: dict
    inputs: dict[str, str]
    version: str
    started: str
    finished: str
    durations: dict[str, float]
    metrics: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def read(cls, path: Path) -> "RunManifest":
        return cls(**json.loads(path.read_text()))


def synth_generate(width: int, height: int, n: int, seed: int, out_dir: str | Path) -> Path:
    """Write a synthetic criterion stack: smooth seeded fields in [0, 1].

    Each layer is a min-max normalized mixture of low-frequency cosine
    waves; the last layer gets ~2% nodata cells to exercise masking. A
    votes CSV and a stack manifest (weights as votes/total fractions)
    accompany the grids.
    """
    if width < 8 or height < 8:
        raise ConfigError(f"synthetic grid must be at least 8x8, got {width}x{height}")
    if n < 2:
        raise ConfigError(f"need at least 2 criteria, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    meta = GridMeta(ncols=width, nrows=height, xllcorner=0.0, yllcorner=0.0, cellsize=5.0)
    xs = np.arange(width) / width
    ys = np.arange(height) / height
    gx, gy = np.meshgrid(xs, ys)

    total_experts = 13
    manifest_lines = ["name,path,weight"]
    votes_lines = ["service,votes,total"]
    for j in range(n):
        field = np.zeros((height, width))
        for _ in range(6):
            fx, fy = rng.integers(1, 4, size=2)
            amp = rng.uniform(0.3, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            field += amp * np.cos(2.0 * np.pi * (fx * gx + fy * gy) + phase)
        lo, hi = field.min(), field.max()
        field = (field - lo) / (hi - lo)
        values = field.reshape(-1)
        if j == n - 1:
            n_bad = max(1, int(0.02 * values.size))
            bad = rng.choice(values.size, size=n_bad, replace=False)
            values = np.array(values)
            values[bad] = meta.nodata_value
        name = f"criterion_{j:02d}"
        (out_dir / f"{name}.asc").write_text(write_ascii_grid(Raster(meta, values)))
        votes = int(rng.integers(1, total_experts + 1))
        manifest_lines.append(f"{name},{name}.asc,{votes}/{total_experts}")
        votes_lines.append(f"{name},{votes},{total_experts}")
    (out_dir / "stack_manifest.csv").write_text("\n".join(manifest_lines) + "\n")
    (out_dir / "votes.csv").write_text("\n".join(votes_lines) + "\n")
    return out_dir / "stack_manifest.csv"


def render_pgm(raster: Raster, out_path: str | Path) -> None:
    """16-bit binary PGM: [0, 1] maps linearly onto [0, 65535] (floor),
    nodata renders as 0."""
    vals = raster.values
    gray = np.zeros(vals.size, dtype=np.uint16)
    valid = raster.valid_mask
    gray[valid] = np.floor(np.clip(vals[valid], 0.0, 1.0) * 65535.0).astype(np.uint16)
    header = f"P5\n{raster.meta.ncols} {raster.meta.nrows}\n65535\n".encode("ascii")
    with open(out_path, "wb") as fh:
        fh.write(header)
        fh.write(gray.astype(">u2").tobytes())


_DESIGN_HEADER = "index,r,t"


def format_design_csv(design: ExperimentalDesign) -> str:
    """The text of design.csv; `owa-explorer sample` prints it too."""
    lines = [_DESIGN_HEADER]
    for i, p in enumerate(design.points):
        lines.append(f"{i},{p.r!r},{p.t!r}")
    return "\n".join(lines) + "\n"


def _read_design_csv(path: Path, seed: int) -> ExperimentalDesign:
    """Parse the design `format_design_csv` wrote; a wrong header, a row
    that is not `index,r,t` with numbers, an index that is not the row's
    position (maps.bin records are matched to rows by position), or no
    rows at all raises DataError naming the file and the line."""
    lines = path.read_text().splitlines()
    header = lines[0] if lines else ""
    if header != _DESIGN_HEADER:
        raise DataError(f"{path}:1: header {header!r}, expected {_DESIGN_HEADER!r}")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {line!r}")
        try:
            index, r, t = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed row {line!r}") from None
        if index != len(points):
            raise DataError(f"{path}:{lineno}: index {index}, expected {len(points)}")
        points.append(DecisionPoint(r, t))
    if not points:
        raise DataError(f"{path}: no design points")
    return ExperimentalDesign(points=tuple(points), seed=seed, m=len(points))


def format_weights_csv(W: np.ndarray) -> str:
    """The text of weights.csv, one row per row of the (m, n) order weights
    W; `owa-explorer weights` prints it too."""
    lines = ["index," + ",".join(f"w_{j + 1}" for j in range(W.shape[1]))]
    for i, w in enumerate(W.tolist()):
        lines.append(f"{i}," + ",".join(map(repr, w)))
    return "\n".join(lines) + "\n"


def _write_curve_csv(curve, path: Path) -> None:
    lines = ["k,variance_ratio"]
    for k, ratio in curve:
        lines.append(f"{k},{ratio!r}")
    path.write_text("\n".join(lines) + "\n")


_MERGE_TREE_HEADER = "step,cluster_a,cluster_b,height,new_size"


def _write_merge_tree_csv(tree, path: Path) -> None:
    lines = [_MERGE_TREE_HEADER]
    for step, (a, b, height, size) in enumerate(tree.merges):
        lines.append(f"{step},{a},{b},{height!r},{size}")
    path.write_text("\n".join(lines) + "\n")


def _read_merge_tree_csv(path: Path, m: int) -> MergeTree:
    """Parse the merge tree of m maps that `_write_merge_tree_csv` wrote.

    Heights are exact reprs, so the tree comes back bit-identical. Each of
    the m-1 steps must join two distinct live clusters into one of their
    summed size at a finite, non-negative height; anything else raises
    DataError naming the file and the step.
    """
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise DataError(f"{path}: missing; analyze re-cuts the merge tree a run writes") from None
    header = lines[0] if lines else ""
    if header != _MERGE_TREE_HEADER:
        raise DataError(f"{path}: header {header!r}, expected {_MERGE_TREE_HEADER!r}")
    rows = lines[1:]
    if len(rows) != m - 1:
        raise DataError(
            f"{path}: step {min(len(rows), m - 1)}: {m} maps need {m - 1} merges, "
            f"the file holds {len(rows)}"
        )
    sizes = dict.fromkeys(range(m), 1)  # live cluster id -> member count
    merges = []
    for step, line in enumerate(rows):
        where = f"{path}: step {step}"
        fields = line.split(",")
        if len(fields) != 5:
            raise DataError(f"{where}: expected 5 fields, got {line!r}")
        try:
            s, a, b, new_size = (int(fields[i]) for i in (0, 1, 2, 4))
            height = float(fields[3])
        except ValueError:
            raise DataError(f"{where}: malformed row {line!r}") from None
        if s != step:
            raise DataError(f"{where}: row numbered {s}")
        if a == b:
            raise DataError(f"{where}: merges cluster {a} with itself")
        for c in (a, b):
            if c not in sizes:
                state = "was merged before" if 0 <= c < m + step else "does not exist yet"
                raise DataError(f"{where}: cluster {c} {state}")
        if new_size != sizes[a] + sizes[b]:
            raise DataError(
                f"{where}: new_size {new_size}, but clusters {a} and {b} hold "
                f"{sizes[a]} + {sizes[b]}"
            )
        if not (math.isfinite(height) and height >= 0.0):
            raise DataError(f"{where}: height {fields[3]!r} is not finite and >= 0")
        del sizes[a], sizes[b]
        sizes[m + step] = new_size
        merges.append((a, b, height, new_size))
    return MergeTree(m=m, merges=tuple(merges))


def _write_distances(d2: np.ndarray, out_dir: Path) -> None:
    m = d2.shape[0]
    tri = np.sqrt(d2[np.tril_indices(m, k=-1)])
    (out_dir / "distances.bin").write_bytes(tri.astype("<f8").tobytes())
    (out_dir / "distances_header.csv").write_text(
        "m,entries,dtype,order\n"
        f"{m},{tri.size},float64-le,row-major-lower-triangle\n"
    )


_CLUSTER_GRID = re.compile(r"cluster([1-9][0-9]*)_(?:mean|std)\.asc")


def _remove_stale_cut(out_dir: Path, k: int) -> None:
    """Remove the outputs an earlier cut left in out_dir that a cut into k
    clusters does not overwrite: its cluster<i>_{mean,std}.asc with i > k
    and, for k = 0 (no cut), its segmentation.csv and
    cluster_centroids.csv. No other file is touched."""
    for path in out_dir.glob("cluster*.asc"):
        match = _CLUSTER_GRID.fullmatch(path.name)
        if match and int(match.group(1)) > k:
            path.unlink()
    if k == 0:
        for name in ("segmentation.csv", "cluster_centroids.csv"):
            (out_dir / name).unlink(missing_ok=True)


def _cluster_outputs(store, design, tree, k, meta, valid_mask, out_dir, memory_budget):
    labels = cut(tree, k)
    summary = cluster_summaries(store, design, labels, meta, valid_mask, memory_budget)
    _remove_stale_cut(out_dir, k)
    (out_dir / "segmentation.csv").write_text(export_segmentation(design, labels))
    for info in summary.clusters:
        (out_dir / f"cluster{info.label}_mean.asc").write_text(write_ascii_grid(info.mean_map))
        (out_dir / f"cluster{info.label}_std.asc").write_text(write_ascii_grid(info.std_map))
    centroid_lines = ["label,members,centroid_r,centroid_t"]
    for info in summary.clusters:
        centroid_lines.append(
            f"{info.label},{len(info.members)},{info.centroid_r!r},{info.centroid_t!r}"
        )
    (out_dir / "cluster_centroids.csv").write_text("\n".join(centroid_lines) + "\n")
    return summary


def run_pipeline(config: PipelineConfig) -> RunManifest:
    """Sample, aggregate, cluster; write every output under config.out.

    On a stage failure, whatever was produced moves to out/incomplete and
    the error propagates with the stage name attached.
    """
    out_dir = config.out
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    durations: dict[str, float] = {}
    stage = "load"

    def clock(name: str):
        nonlocal stage
        stage = name
        return time.perf_counter()

    try:
        t0 = clock("load")
        layers, weights, inputs = load_stack_manifest(config.stack_manifest)
        if config.criteria is not None and len(layers) != config.criteria:
            raise ConfigError(
                f"config says {config.criteria} criteria, manifest has {len(layers)}"
            )
        stack = build_stack(layers, weights)
        durations["load"] = time.perf_counter() - t0

        t0 = clock("sample")
        design = sample_design(config.m, config.seed)
        (out_dir / "design.csv").write_text(format_design_csv(design))
        durations["sample"] = time.perf_counter() - t0

        t0 = clock("aggregate")
        mask_meta = replace(stack.meta, nodata_value=-9999.0)
        mask_raster = Raster(mask_meta, stack.valid_mask.astype(np.float64))
        (out_dir / "mask.asc").write_text(write_ascii_grid(mask_raster))
        store, W = batch_compute(
            stack, design, stack.n, out_dir / "maps.bin", memory_budget=config.memory_budget
        )
        (out_dir / "weights.csv").write_text(format_weights_csv(W))
        durations["aggregate"] = time.perf_counter() - t0

        t0 = clock("distances")
        d2, pairs_recomputed = pairwise_euclidean(
            store,
            expected_digest=mask_digest(stack.meta.ncols, stack.meta.nrows, stack.valid_mask),
        )
        if config.write_distances:
            _write_distances(d2, out_dir)
        durations["distances"] = time.perf_counter() - t0
        metrics = {"distance_pairs_recomputed": pairs_recomputed}

        t0 = clock("cluster")
        tree = ward_linkage(d2)
        _write_merge_tree_csv(tree, out_dir / "merge_tree.csv")
        curve = variance_ratio_curve(tree, min(config.k_max, config.m))
        _write_curve_csv(curve, out_dir / "variance_curve.csv")
        (out_dir / "suggested_k.txt").write_text(f"{suggest_k(curve)}\n")
        durations["cluster"] = time.perf_counter() - t0

        if config.k is not None:
            t0 = clock("summaries")
            _cluster_outputs(
                store, design, tree, config.k, stack.meta, stack.valid_mask,
                out_dir, config.memory_budget,
            )
            durations["summaries"] = time.perf_counter() - t0
        else:
            _remove_stale_cut(out_dir, 0)
    except Exception as exc:
        incomplete = out_dir / "incomplete"
        incomplete.mkdir(parents=True, exist_ok=True)
        for item in sorted(out_dir.iterdir()):
            if item.name != "incomplete":
                target = incomplete / item.name
                if target.exists():
                    target.unlink() if target.is_file() else shutil.rmtree(target)
                shutil.move(str(item), str(target))
        staged = type(exc)(f"stage {stage!r}: {exc}")
        staged.__dict__.update(exc.__dict__)  # keeps e.g. NoSolution.design_index
        raise staged.with_traceback(exc.__traceback__) from exc

    manifest = RunManifest(
        config={
            **{k: (str(v) if isinstance(v, Path) else v) for k, v in asdict(config).items()},
        },
        inputs=inputs,
        version=__version__,
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
        durations=durations,
        metrics=metrics,
    )
    manifest.write(out_dir / "run_manifest.json")
    return manifest


def _read_run_config(run_dir: Path) -> tuple[int, int, int]:
    """The design seed, k_max and memory budget in bytes that a finished
    run recorded in its manifest."""
    path = run_dir / "run_manifest.json"
    try:
        config = RunManifest.read(path).config
        seed, k_max, budget_mib = (int(config[key]) for key in ("seed", "k_max", "memory_budget_mib"))
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise DataError(f"{path}: cannot read the run's seed, k_max and memory budget: {exc!r}") from None
    return seed, k_max, budget_mib * 1024 * 1024


def analyze(run_dir: str | Path, k: int, out_dir: str | Path | None = None,
            k_max: int | None = None, workers: int = 1) -> None:
    """Re-cut a finished run's Ward tree with a new k, without recomputing
    maps, distances or the linkage.

    Reads merge_tree.csv, design.csv, mask.asc, maps.bin and
    run_manifest.json from run_dir and checks them all before writing any
    output. The design seed, k_max (the curve's range) and memory budget
    come from the run's manifest; an explicit k_max overrides the run's.
    `workers` is deprecated and has no effect.
    """
    if workers != 1:
        warnings.warn(
            "analyze(workers=...) has no effect: analyze re-cuts the run's merge tree "
            "and computes no distances",
            DeprecationWarning,
            stacklevel=2,
        )
    run_dir = Path(run_dir)
    out = Path(out_dir) if out_dir is not None else run_dir
    seed, run_k_max, memory_budget = _read_run_config(run_dir)
    store = MapStore.open(run_dir / "maps.bin")
    design = _read_design_csv(run_dir / "design.csv", seed)
    if design.m != store.m:
        raise DataError(f"{run_dir / 'design.csv'}: {design.m} points for {store.m} maps")
    mask_raster = parse_ascii_grid((run_dir / "mask.asc").read_text())
    valid_mask = mask_raster.values == 1.0
    store.check_digest(mask_digest(mask_raster.meta.ncols, mask_raster.meta.nrows, valid_mask))
    if not (1 <= k <= store.m):
        raise ConfigError(f"k must be in [1, {store.m}], got {k}")
    tree = _read_merge_tree_csv(run_dir / "merge_tree.csv", store.m)
    curve = variance_ratio_curve(tree, min(run_k_max if k_max is None else k_max, store.m))
    out.mkdir(parents=True, exist_ok=True)
    _write_merge_tree_csv(tree, out / "merge_tree.csv")
    _write_curve_csv(curve, out / "variance_curve.csv")
    (out / "suggested_k.txt").write_text(f"{suggest_k(curve)}\n")
    _cluster_outputs(store, design, tree, k, mask_raster.meta, valid_mask, out, memory_budget)
