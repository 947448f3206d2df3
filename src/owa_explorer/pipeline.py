"""End-to-end orchestration: config, synthetic data, the full run, re-analysis.

A run is deterministic: with the same inputs, config and seed, every CSV,
grid and map-store byte is reproduced exactly. The run manifest (config
snapshot, input digests, stage durations, run metrics) is the only output
containing wall-clock information.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import re
import shutil
import time
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import (
    MergeTree,
    cluster_summaries,
    pairwise_euclidean,
    suggest_k,
    variance_ratio_curve,
    ward_linkage,
    cut,
)
from .errors import ConfigError, DataError
from .grid import GridMeta, Raster, build_stack, decode_text, parse_ascii_grid, read_text, write_ascii_grid
from .mapstore import MapStore, mask_digest, store_size
from .owa import batch_compute, map_pass_plan, pool_map
from .strategy import DecisionPoint, ExperimentalDesign, sample_design


@dataclass
class PipelineConfig:
    stack_manifest: Path
    m: int = 1000
    seed: int = 0
    k: int | None = None  # None = emit the curve and a suggestion only
    k_max: int = 15
    out: Path = Path("out")
    memory_budget_mib: int = 512
    workers: int | None = None  # deprecated: the pool sizes itself
    write_distances: bool = False

    def __post_init__(self):
        """Every value out of range is named in one ConfigError."""
        faults = [
            message
            for bad, message in (
                (self.m < 2, f"m must be >= 2, got {self.m}"),
                (self.seed < 0, f"seed must be >= 0, got {self.seed}"),
                (self.k_max < 1, f"k_max must be >= 1, got {self.k_max}"),
                (self.k_max > self.m, f"k_max ({self.k_max}) cannot exceed m ({self.m})"),
                (self.k is not None and not 1 <= self.k <= self.m, f"k must be in [1, m], got {self.k}"),
                (self.workers is not None and self.workers < 1, f"workers must be >= 1, got {self.workers}"),
                (self.memory_budget_mib < 1, f"memory budget must be >= 1 MiB, got {self.memory_budget_mib}"),
            )
            if bad
        ]
        if faults:
            raise ConfigError("; ".join(faults))
        if self.workers is not None:
            msg = (
                "config key 'workers' is deprecated and has no effect: the load and aggregate stages "
                "size their thread pool from the CPUs and the memory budget"
            )
            warnings.warn(msg, DeprecationWarning, stacklevel=3)


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_value(f: Field, text: str, base: Path):
    """The value of config key f.name, parsed by the type of its field;
    paths are relative to base."""
    if f.type == "Path":
        return (base / text).resolve()
    if f.type == "bool":
        value = _BOOLEANS.get(text.strip().lower())
        if value is None:
            raise ConfigError(f"config key {f.name!r} must be true/false/yes/no/1/0, got {text!r}")
        return value
    expected = "an integer"
    if f.name == "k":
        text, expected = text.strip().lower(), "an integer or 'auto'"
        if text in ("auto", "auto-suggest", ""):
            return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config key {f.name!r} must be {expected}, got {text!r}") from None


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a flat `key = value` config file whose keys are the fields of
    PipelineConfig; an omitted key takes its field's default, and overrides
    (from flags) win. Every malformed line and every unknown, duplicate,
    missing or unparsable key is named in one ConfigError."""
    path = Path(path)
    schema = {f.name: f for f in fields(PipelineConfig)}
    raw: dict[str, str] = {}
    faults = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            faults.append(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        elif key not in schema:
            faults.append(f"{path}:{lineno}: unknown key {key!r}")
        elif key in raw:
            faults.append(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            raw[key] = value
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    values = {}
    for name, f in schema.items():
        if name in raw:
            try:
                values[name] = _parse_value(f, raw[name], path.parent)
            except ConfigError as exc:
                faults.append(str(exc))
        elif f.default is MISSING:
            faults.append(f"{path}: missing required key {name!r}")
    if faults:
        raise ConfigError("; ".join(faults))
    return PipelineConfig(**values)


def _read_grid(path: Path) -> tuple[str, Raster | DataError]:
    """The SHA-256 of a grid file's bytes, and the grid parsed from them or
    the DataError that says why they do not parse."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        return digest, parse_ascii_grid(data, path)
    except DataError as exc:  # returned, so that the load names every bad grid
        return digest, exc


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


def load_stack_manifest(path: str | Path, threads: int | None = None):
    """Read the stack manifest: one `name,path,weight` row per criterion,
    split on commas, or on whitespace when the row holds no comma.

    The weight column accepts either a number or a votes/total fraction
    like `7/13`. Every weight is parsed before any grid is read; if any is
    not a finite number > 0, DataError names the line and the token of each.
    Paths are relative to the manifest file. The grids are read and parsed
    by pool_map over `threads`; one DataError names each grid that does not
    parse with its first problem, in manifest order. Returns the
    (name, raster) layers, their weights and the SHA-256 digests of the
    manifest and of each grid, keyed by path, taken from the very bytes
    that were parsed.
    """
    path = Path(path)
    base = path.parent
    rows = []
    bad = []
    data = path.read_bytes()
    digests = {str(path): hashlib.sha256(data).hexdigest()}
    for lineno, line in enumerate(decode_text(data, path).splitlines(), start=1):
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
    paths = [(base / grid_path).resolve() for _, grid_path, _ in rows]
    grids = pool_map(_read_grid, paths, threads)
    failed = [str(grid) for _, grid in grids if isinstance(grid, DataError)]
    if failed:
        raise DataError("; ".join(failed))
    digests.update((str(p), digest) for p, (digest, _) in zip(paths, grids))
    layers = [(name, raster) for (name, _, _), (_, raster) in zip(rows, grids)]
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


def _read_design_csv(path: Path) -> ExperimentalDesign:
    """Parse the design `format_design_csv` wrote; a wrong header, a row
    that is not `index,r,t` with numbers, an index that is not the row's
    position (maps.bin records are matched to rows by position), or no
    rows at all raises DataError naming the file and the line; points
    outside the strategy space raise ExperimentalDesign's, naming the file."""
    lines = read_text(path).splitlines()
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
    try:
        return ExperimentalDesign(points=tuple(points))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def format_weights_csv(W: np.ndarray) -> str:
    """The text of weights.csv, one row per row of the (m, n) order weights
    W; `owa-explorer weights` prints it too."""
    lines = ["index," + ",".join(f"w_{j + 1}" for j in range(W.shape[1]))]
    for i, w in enumerate(W.tolist()):
        lines.append(f"{i}," + ",".join(map(repr, w)))
    return "\n".join(lines) + "\n"


_MERGE_TREE_HEADER = "step,cluster_a,cluster_b,height,new_size"


def _write_merge_tree_csv(tree, path: Path) -> None:
    lines = [_MERGE_TREE_HEADER]
    for step, (a, b, height, size) in enumerate(tree.merges):
        lines.append(f"{step},{a},{b},{height!r},{size}")
    path.write_text("\n".join(lines) + "\n")


def _write_tree_outputs(tree: MergeTree, curve: list[tuple[int, float]], out_dir: Path) -> None:
    """merge_tree.csv, the variance curve and the suggested k of one tree."""
    _write_merge_tree_csv(tree, out_dir / "merge_tree.csv")
    lines = ["k,variance_ratio", *(f"{k},{ratio!r}" for k, ratio in curve)]
    (out_dir / "variance_curve.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "suggested_k.txt").write_text(f"{suggest_k(curve)}\n")


def _read_merge_tree_csv(path: Path, m: int) -> MergeTree:
    """Parse the merge tree of m maps that `_write_merge_tree_csv` wrote.

    Heights are exact reprs, so the tree comes back bit-identical. Each of
    the m-1 steps must join two distinct live clusters into one of their
    summed size at a finite, non-negative height; anything else raises
    DataError naming the file and the step.
    """
    try:
        lines = read_text(path).splitlines()
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


def _check_free_disk(out_dir: Path, m: int, pixel_count: int, write_distances: bool) -> None:
    """Raise OSError(ENOSPC), naming both sizes in MiB, if the file system
    of out_dir has less free space than maps.bin (and distances.bin, when
    written) will take."""
    need = store_size(m, pixel_count) + (4 * m * (m - 1) if write_distances else 0)
    fs = os.statvfs(out_dir)
    free = fs.f_bavail * fs.f_frsize
    if need > free:
        files = "maps.bin and distances.bin need" if write_distances else "maps.bin needs"
        raise OSError(errno.ENOSPC, f"{files} {need / 2**20:.1f} MiB, {out_dir} has {free / 2**20:.1f} MiB free")


def _write_distances(d2: np.ndarray, out_dir: Path) -> None:
    """The lower triangle of sqrt(d2), streamed row by row from d2."""
    m = d2.shape[0]
    with open(out_dir / "distances.bin", "wb") as fh:
        for i in range(1, m):
            fh.write(np.sqrt(d2[i, :i]).astype("<f8", copy=False))
    (out_dir / "distances_header.csv").write_text(
        "m,entries,dtype,order\n"
        f"{m},{m * (m - 1) // 2},float64-le,row-major-lower-triangle\n"
    )


def _cluster_outputs(store, design, tree, k, meta, valid_mask, out_dir):
    """segmentation.csv, each cluster's mean and std grids, and
    cluster_centroids.csv (the mean (r, t) of its design points) for the
    cut of tree into k clusters."""
    labels = cut(tree, k)
    means, stds = cluster_summaries(store, labels)
    rows = [f"{i},{p.r!r},{p.t!r},{label}" for i, (p, label) in enumerate(zip(design.points, labels.tolist()))]
    (out_dir / "segmentation.csv").write_text("\n".join(["index,r,t,label", *rows]) + "\n")
    grid = np.full(meta.size, meta.nodata_value)
    centroids = ["label,members,centroid_r,centroid_t"]
    for c in range(len(means)):
        for name, values in (("mean", means[c]), ("std", stds[c])):
            grid[valid_mask] = values
            (out_dir / f"cluster{c + 1}_{name}.asc").write_text(write_ascii_grid(Raster(meta, grid)))
        members = np.flatnonzero(labels == c + 1)
        r = float(np.mean([design.points[i].r for i in members]))
        t = float(np.mean([design.points[i].t for i in members]))
        centroids.append(f"{c + 1},{members.size},{r!r},{t!r}")
    (out_dir / "cluster_centroids.csv").write_text("\n".join(centroids) + "\n")


# The names each writer owns in its output directory; no other file there is touched.
_ANALYZE_OWNS = re.compile(
    r"(merge_tree|variance_curve|segmentation|cluster_centroids)\.csv|suggested_k\.txt"
    r"|cluster[1-9]\d*_(mean|std)\.asc"
)
_RUN_OWNS = re.compile(
    rf"{_ANALYZE_OWNS.pattern}|(design|weights|distances_header)\.csv"
    r"|(maps|distances)\.bin|mask\.asc|run_manifest\.json"
)


@contextmanager
def _staged(out: Path, owned: re.Pattern):
    """A fresh out/incomplete to write into. On success, the owned files in
    out that were not written this time are removed, and the staged files
    replace theirs, run_manifest.json last (an old one goes first), so a
    manifest always sits beside a complete run. On failure nothing moves,
    and out/incomplete keeps the partial outputs."""
    stage = out / "incomplete"
    shutil.rmtree(stage, ignore_errors=True)
    stage.mkdir(parents=True)
    yield stage
    written = sorted(os.listdir(stage), key=lambda name: name == "run_manifest.json")
    replaced = set(written) - {"run_manifest.json"}
    for path in out.iterdir():
        if owned.fullmatch(path.name) and path.name not in replaced:
            path.unlink()
    for name in written:
        os.replace(stage / name, out / name)
    stage.rmdir()


def run_pipeline(config: PipelineConfig, _threads: int | None = None) -> RunManifest:
    """Sample, aggregate, cluster; stage every output and publish it in
    config.out (see _staged). A stage failure propagates with the stage
    name attached.

    The load stage parses the grids, and the aggregate stage evaluates the
    chunks of each round of the map pass, on a pool of one thread per CPU
    (see owa.pool_map), at most one per grid or chunk, and the map pass's
    pool at most as many as its need fits in the memory budget (see
    owa.map_pass_plan). _threads, for tests, caps both pools in place of
    the CPU count. No output byte depends on the pool sizes.
    """
    started = datetime.now(timezone.utc).isoformat()
    durations: dict[str, float] = {}
    stage = "load"

    def clock(name: str):
        nonlocal stage
        stage = name
        return time.perf_counter()

    with _staged(config.out, _RUN_OWNS) as out_dir:
        try:
            t0 = clock("load")
            layers, weights, inputs = load_stack_manifest(config.stack_manifest, _threads)
            stack = build_stack(layers, weights)
            del layers  # the stack holds them from here on
            meta, valid_mask, pixels = stack.meta, stack.valid_mask, int(stack.valid_mask.sum())
            threads, need = map_pass_plan(config.m, pixels, stack.n, config.memory_budget_mib << 20, _threads)
            _check_free_disk(out_dir, config.m, pixels, config.write_distances)  # both checks before the solve
            durations["load"] = time.perf_counter() - t0

            t0 = clock("sample")
            design = sample_design(config.m, config.seed)
            (out_dir / "design.csv").write_text(format_design_csv(design))
            durations["sample"] = time.perf_counter() - t0

            t0 = clock("aggregate")
            mask = Raster(replace(meta, nodata_value=-9999.0), valid_mask.astype(np.float64))
            (out_dir / "mask.asc").write_text(write_ascii_grid(mask))
            store, W, gram = batch_compute(stack, design, stack.n, out_dir / "maps.bin", threads)
            del stack, mask  # the later stages read the maps from the store
            with store:
                (out_dir / "weights.csv").write_text(format_weights_csv(W))
                durations["aggregate"] = time.perf_counter() - t0

                t0 = clock("distances")
                d2, pairs_recomputed = pairwise_euclidean(store, gram)
                if config.write_distances:
                    _write_distances(d2, out_dir)
                durations["distances"] = time.perf_counter() - t0

                t0 = clock("cluster")
                tree = ward_linkage(d2)
                curve = variance_ratio_curve(tree, config.k_max)
                _write_tree_outputs(tree, curve, out_dir)
                durations["cluster"] = time.perf_counter() - t0

                if config.k is not None:
                    t0 = clock("summaries")
                    _cluster_outputs(store, design, tree, config.k, meta, valid_mask, out_dir)
                    durations["summaries"] = time.perf_counter() - t0
        except Exception as exc:  # named in place: keeps its type and fields (errno)
            if isinstance(exc, OSError) and exc.strerror is not None:
                exc.strerror = f"stage {stage!r}: {exc.strerror}"  # str() is built from it
            else:
                exc.args = (f"stage {stage!r}: {exc}",)
            raise

        manifest = RunManifest(
            config={k: (str(v) if isinstance(v, Path) else v) for k, v in asdict(config).items()},
            inputs=inputs,
            version=__version__,
            started=started,
            finished=datetime.now(timezone.utc).isoformat(),
            durations=durations,
            metrics={
                "distance_pairs_recomputed": pairs_recomputed,
                "map_pass_bytes": need,
                "threads": threads,
                "valid_pixels": pixels,
            },
        )
        manifest.write(out_dir / "run_manifest.json")
    return manifest


def analyze(run_dir: str | Path, k: int, out_dir: str | Path | None = None, workers: int = 1) -> None:
    """Re-cut a finished run's Ward tree with a new k, without recomputing
    maps, distances or the linkage.

    Reads merge_tree.csv, design.csv, mask.asc, maps.bin and run_manifest.json
    from run_dir and checks them all before it creates any directory, then
    stages the outputs (see _staged). The curve's range, k_max, comes from
    the run's manifest; a k_max outside [1, m] is a DataError naming it.
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
    manifest_path = run_dir / "run_manifest.json"
    try:
        k_max = int(RunManifest.read(manifest_path).config["k_max"])
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise DataError(f"{manifest_path}: cannot read the run's k_max: {exc!r}") from None
    with MapStore.open(run_dir / "maps.bin") as store:
        if not (1 <= k <= store.m):
            raise ConfigError(f"k must be in [1, {store.m}], got {k}")
        design = _read_design_csv(run_dir / "design.csv")
        if design.m != store.m:
            raise DataError(f"{run_dir / 'design.csv'}: {design.m} points for {store.m} maps")
        mask_path = run_dir / "mask.asc"
        # not grid.read_grid: perfbench/tracer.py wraps parse_ascii_grid in pipeline's namespace
        mask_raster = parse_ascii_grid(mask_path.read_bytes(), mask_path)
        valid_mask = mask_raster.values == 1.0
        store.check_digest(mask_digest(mask_raster.meta.ncols, mask_raster.meta.nrows, valid_mask))
        valid = int(valid_mask.sum())
        if valid != store.pixel_count:
            raise DataError(f"{store.path}: {store.pixel_count} pixels, {mask_path} has {valid} valid cells")
        tree = _read_merge_tree_csv(run_dir / "merge_tree.csv", store.m)
        try:
            curve = variance_ratio_curve(tree, k_max)
        except DataError as exc:
            raise DataError(f"{manifest_path}: {exc}") from None
        with _staged(out, _ANALYZE_OWNS) as stage:
            _write_tree_outputs(tree, curve, stage)
            _cluster_outputs(store, design, tree, k, mask_raster.meta, valid_mask, stage)
