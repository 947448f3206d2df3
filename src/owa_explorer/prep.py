"""Criterion preparation: capacity matrix scoring, modifiers, inversion.

Turns a land-cover class raster plus an expert capacity matrix (and
optional biophysical modifier rasters) into normalized criterion layers:
per cell, the mean expert score is scaled to [0, 1], multiplied by the
modifier factor, and complemented so that 0 capacity to supply a service
means fully suitable for development and 1 means unsuitable.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, UnknownClass
from .grid import Raster, read_grid, read_text, write_ascii_grid

DEFAULT_SCORE_MAX = 5.0

# Built-in categorical factor tables, by integer cell code.
# soil_quality: 16 fertility categories, 1.0 for the most fertile down by
# 0.05 per category to 0.25 for salted ground. protected_area: 1 = inside,
# 0 = outside. flooding (risk prevention plan zones): 1 = high, 2 = medium,
# 3 = none. fire_hazard: 1 = very high .. 6 = none, never below 0.5 (some
# fire risk always remains).
CATEGORICAL_BUILTINS: dict[str, dict[int, float]] = {
    "soil_quality": {k: 1.0 - 0.05 * (k - 1) for k in range(1, 17)},
    "protected_area": {1: 1.0, 0: 0.75},
    "flooding": {1: 1.0, 2: 0.5, 3: 0.0},
    "fire_hazard": {1: 1.0, 2: 0.9, 3: 0.8, 4: 0.7, 5: 0.6, 6: 0.5},
}

ROAD_NEAR_M = 300.0
ROAD_FAR_M = 1000.0
ROAD_FLOOR = 0.5

# Each modifier kind and the config keys it reads besides modifier_grid.
_MODIFIER_KEYS = {
    "categorical": ("table",),
    "continuous_98": (),
    "piecewise_distance": ("d1", "d2", "floor"),
}
_MODIFIER_ONLY_KEYS = ("modifier", "modifier_grid", "table", "d1", "d2", "floor")
_INPUT_KEYS = ("luc", "capacity_matrix", "votes", "score_max", "out")
_CRITERION_KEYS = ("grid", "service", "weight", *_MODIFIER_ONLY_KEYS)


@dataclass(frozen=True)
class CapacityMatrix:
    """Expert scores for each (land-cover class, service) pair.

    Scores run from 0 (no capacity) to score_max. A pair with no recorded
    score counts as 0 capacity, the blank-cell convention of capacity
    matrices.
    """

    luc_classes: tuple[int, ...]
    services: tuple[str, ...]
    scores: dict[tuple[int, str], tuple[float, ...]]
    score_max: float = DEFAULT_SCORE_MAX
    n_experts: int = field(default=0)

    def __post_init__(self):
        if self.n_experts < 1:
            raise DataError("capacity matrix needs at least one expert")
        for (cls, svc), vals in self.scores.items():
            for v in vals:
                if not (0.0 <= v <= self.score_max):
                    raise DataError(
                        f"score {v} for class {cls}, service {svc!r} outside [0, {self.score_max}]"
                    )


@dataclass(frozen=True)
class ExpertVotes:
    """How many of the polled experts consider a service important."""

    count: int
    total: int
    override_weight: float | None = None

    def __post_init__(self):
        if self.total < 1:
            raise DataError(f"total experts must be >= 1, got {self.total}")
        if not (0 <= self.count <= self.total):
            raise DataError(f"vote count {self.count} outside [0, {self.total}]")
        if self.override_weight is not None and not (0.0 < self.override_weight < math.inf):
            raise DataError(f"override weight {self.override_weight} is not finite and > 0")


@dataclass(frozen=True)
class ModifierRule:
    """How a biophysical raster scales the expert score.

    kind "categorical" looks integer cell codes up in `table`;
    "continuous_98" rescales by 98% of the raster maximum; and
    "piecewise_distance" maps a distance raster through the road
    accessibility ramp (1 out to d1, linear down to `floor` at d2).
    """

    kind: str
    table: dict[int, float] | None = None
    d1: float = ROAD_NEAR_M
    d2: float = ROAD_FAR_M
    floor: float = ROAD_FLOOR

    def __post_init__(self):
        if self.kind not in _MODIFIER_KEYS:
            raise DataError(f"unknown modifier kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.table:
                raise DataError("categorical modifier needs a factor table")
            for code, factor in self.table.items():
                if not (0.0 <= factor <= 1.0):
                    raise DataError(f"factor {factor} for category {code} outside [0, 1]")
        if self.kind == "piecewise_distance":
            if not (0.0 < self.d1 < self.d2):
                raise DataError(f"need 0 < d1 < d2, got d1={self.d1}, d2={self.d2}")
            if not (0.0 <= self.floor <= 1.0):
                raise DataError(f"floor {self.floor} outside [0, 1]")


def _lookup(values: np.ndarray, table: dict[int, float], unknown: type[DataError], what: str) -> np.ndarray:
    """table[code] for each value, which must lie within 1e-6 of an integer
    code in the table; `unknown` names the first value that does not."""
    codes = np.rint(values)
    off = np.abs(values - codes) > 1e-6
    if off.any():
        raise unknown(f"cell value {values[off][0]} is not an integer {what} code")
    keys = np.array([*sorted(table), np.nan])  # nan sorts last and equals no code
    at = np.searchsorted(keys, codes)
    missing = keys[at] != codes
    if missing.any():
        raise unknown(f"{what} {codes[missing][0]:.0f} is not in the table")
    return np.array([table[k] for k in sorted(table)])[at]


def continuous_98(raster: Raster) -> Raster:
    """Rescale so 98% of the valid maximum maps to factor 1 (clamped above)."""
    valid = raster.valid_mask
    if not valid.any():
        raise DataError("raster has no valid cells")
    vals = raster.values[valid]
    if (vals < 0).any():
        raise DataError(f"negative value {vals.min()} in a non-negative raster")
    top = 0.98 * vals.max()
    out = np.array(raster.values)
    if top > 0.0:
        out[valid] = np.minimum(1.0, vals / top)
    else:
        out[valid] = 0.0
    return Raster(raster.meta, out)


def criterion_weight_from_votes(votes: ExpertVotes) -> float:
    """Vote fraction as criterion weight; an override pins it (e.g. to 1)."""
    if votes.override_weight is not None:
        return float(votes.override_weight)
    if votes.count == 0:
        raise DataError("no expert considered the service important; weight would be 0")
    return votes.count / votes.total


def apply_modifier(rule: ModifierRule, raster: Raster) -> Raster:
    """Factor raster in [0, 1] from a biophysical raster; nodata propagates."""
    valid = raster.valid_mask
    out = np.array(raster.values)
    vals = raster.values[valid]
    if rule.kind == "continuous_98":
        return continuous_98(raster)
    if rule.kind == "piecewise_distance":
        if (vals < 0).any():
            raise DataError(f"negative distance {vals.min()} in the raster")
        ramp = 1.0 - (1.0 - rule.floor) * (vals - rule.d1) / (rule.d2 - rule.d1)
        out[valid] = np.clip(ramp, rule.floor, 1.0)
        return Raster(raster.meta, out)
    out[valid] = _lookup(vals, rule.table, DataError, "category")
    return Raster(raster.meta, out)


def build_criterion(
    luc: Raster,
    matrix: CapacityMatrix,
    service: str,
    rule: ModifierRule | None = None,
    modifier: Raster | None = None,
) -> Raster:
    """One normalized criterion layer from land cover, scores and a modifier.

    Per cell: capacity = mean expert score for the cell's class, scaled to
    [0, 1], times the modifier factor (1 when absent), complemented to
    suitability. A nodata cell in either input raster is nodata in the
    output.
    """
    if (rule is None) != (modifier is None):
        raise DataError("a modifier rule and its raster must be given together")
    factor = None
    if rule is not None:
        if not luc.meta.aligned_with(modifier.meta):
            raise DataError("modifier raster is not aligned with the land-cover raster")
        factor = apply_modifier(rule, modifier)
    if service not in matrix.services:
        raise DataError(f"service {service!r} not in the capacity matrix")

    valid = luc.valid_mask
    if factor is not None:
        valid = valid & factor.valid_mask
    mean_score = {
        cls: float(np.mean(matrix.scores[cls, service])) / matrix.score_max
        if matrix.scores.get((cls, service)) else 0.0
        for cls in matrix.luc_classes
    }
    capacity = _lookup(luc.values[valid], mean_score, UnknownClass, "land-cover class")
    if factor is not None:
        capacity = capacity * factor.values[valid]

    out = np.full(luc.meta.size, luc.meta.nodata_value)
    out[valid] = 1.0 - capacity
    return Raster(luc.meta, out)


def _read_csv(path: Path, columns: tuple[str, ...], parse) -> list:
    """parse(row) for each row of a CSV whose header names every column;
    every row with a missing field, or that parse rejects, is named by
    file:line in one DataError."""
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        absent = [c for c in columns if c not in (reader.fieldnames or ())]
        if absent:
            raise DataError(f"{path}:1: header lacks column(s) {', '.join(absent)}")
        parsed, bad = [], []
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} fields")
                parsed.append(parse(row))
            except (ValueError, DataError) as exc:
                bad.append(f"{path}:{reader.line_num}: {exc}")
    if bad:
        raise DataError("; ".join(bad))
    return parsed


def load_capacity_matrix(path: str | Path, score_max: float = DEFAULT_SCORE_MAX) -> CapacityMatrix:
    """Read a capacity matrix CSV with columns expert_id, luc_class, service, score."""

    def parse(row):
        score = float(row["score"])
        if not (0.0 <= score <= score_max):
            raise ValueError(f"score {row['score']!r} outside [0, {score_max}]")
        return row["expert_id"].strip(), int(row["luc_class"]), row["service"].strip(), score

    rows = _read_csv(Path(path), ("expert_id", "luc_class", "service", "score"), parse)
    scores: dict[tuple[int, str], list[float]] = {}
    for _, cls, svc, score in rows:
        scores.setdefault((cls, svc), []).append(score)
    return CapacityMatrix(
        luc_classes=tuple(sorted({cls for _, cls, _, _ in rows})),
        services=tuple(sorted({svc for _, _, svc, _ in rows})),
        scores={k: tuple(v) for k, v in scores.items()},
        score_max=score_max,
        n_experts=len({expert for expert, _, _, _ in rows}),
    )


def load_expert_votes(path: str | Path) -> dict[str, ExpertVotes]:
    """Read votes per service from a CSV: service, votes, total[, override_weight]."""

    def parse(row):
        override = row.get("override_weight", "")
        votes = ExpertVotes(int(row["votes"]), int(row["total"]), float(override) if override else None)
        return row["service"].strip(), votes

    return dict(_read_csv(Path(path), ("service", "votes", "total"), parse))


def _parse_table(token: str) -> dict[int, float]:
    """A `code:factor, ...` factor table; ValueError names every malformed item."""
    table, malformed = {}, []
    for item in token.split(","):
        code, _, factor = item.partition(":")
        try:
            table[int(code)] = float(factor)
        except ValueError:
            malformed.append(repr(item.strip()))
    if malformed:
        raise ValueError(f"malformed item(s) {', '.join(malformed)}; expected <code>:<factor>")
    return table


def _read_prep_config(path: Path) -> tuple[dict[str, str], list[tuple]]:
    """The [inputs] keys and each criterion's (name, keys, modifier rule)
    of a prep config, checked whole before any grid or CSV is read: one
    ConfigError names every problem as `[section] key = token: reason`."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(read_text(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    errors = [] if "inputs" in sections else ["[inputs]: missing section"]
    inputs = sections.get("inputs", {})

    def bad(section, key, reason):
        errors.append(f"[{section}] {key} = {sections[section][key]}: {reason}")

    criteria = []
    for section, keys in sections.items():
        name = section.removeprefix("criterion:")
        if section != "inputs" and name in (section, ""):
            errors.append(f"[{section}]: unknown section; expected [inputs] or [criterion:<name>]")
            continue
        numbers = {}
        for key, token in keys.items():
            if key not in (_INPUT_KEYS if section == "inputs" else _CRITERION_KEYS):
                bad(section, key, "unknown key")
            elif key in ("score_max", "weight", "d1", "d2", "floor"):
                try:
                    value = numbers[key] = float(token)
                except ValueError:
                    value = numbers[key] = math.nan
                if not math.isfinite(value):
                    bad(section, key, "not a finite number")
                elif value <= 0 and key in ("score_max", "weight"):
                    bad(section, key, "must be > 0")
        if section == "inputs":
            continue
        if name != name.strip() or any(c in name for c in ",#/"):
            errors.append(
                f"[{section}]: a criterion name may not hold ',', '#' or '/', nor start or end with "
                "whitespace: it names a file and a row of the stack manifest"
            )
        modifier = keys.get("modifier", "none")
        builtin = modifier.removeprefix("categorical:") if modifier.startswith("categorical:") else ""
        kind = "categorical" if builtin else modifier
        takes = () if "grid" in keys else ("modifier",)  # the modifier keys this section reads
        if takes and modifier not in ("", "none"):
            takes += ("modifier_grid", *(() if builtin else _MODIFIER_KEYS.get(kind, ())))
        unused = "on a ready grid" if "grid" in keys else f"with modifier = {modifier}"
        for key in keys:
            if key in _MODIFIER_ONLY_KEYS and key not in takes:
                bad(section, key, f"has no effect {unused}")
        if "weight" not in keys and "votes" not in inputs:
            errors.append(f"[{section}]: no weight, and [inputs] names no votes CSV")
        if "grid" not in keys and not ("luc" in inputs and "capacity_matrix" in inputs):
            errors.append(f"[{section}]: derives from a service, but [inputs] lacks luc or capacity_matrix")
        rule = None
        if "modifier_grid" in takes:
            if "modifier_grid" not in keys:
                bad(section, "modifier", "needs modifier_grid")
            n_errors = len(errors)
            table = CATEGORICAL_BUILTINS.get(builtin)
            if builtin and table is None:
                bad(section, "modifier", "unknown builtin table; expected " + ", ".join(CATEGORICAL_BUILTINS))
            if "table" in takes and "table" in keys:
                try:
                    table = _parse_table(keys["table"])
                except ValueError as exc:
                    bad(section, "table", str(exc))
            ramp = {key: numbers[key] for key in ("d1", "d2", "floor") if key in keys}
            if len(errors) == n_errors and all(map(math.isfinite, ramp.values())):
                try:
                    rule = ModifierRule(kind, table, **ramp)
                except DataError as exc:
                    bad(section, "modifier", str(exc))
        criteria.append((name, keys, rule))
    if not criteria and not errors:
        errors.append("no [criterion:<name>] section")
    if errors:
        raise ConfigError(f"{path}: " + "; ".join(errors))
    return inputs, criteria


def _build_layers(base: Path, inputs: dict[str, str], criteria) -> list[tuple[str, Raster, float]]:
    """(name, layer, weight) of each checked criterion, built in memory;
    unknown services, missing votes and ready grids whose frame differs
    from luc (or, without luc, from the first ready grid) are named in one
    DataError. A layer that fails to build raises its error prefixed by
    its section and the grid at fault."""
    luc = read_grid(base / inputs["luc"]) if "luc" in inputs else None
    matrix = None
    if "capacity_matrix" in inputs:
        score_max = float(inputs.get("score_max", DEFAULT_SCORE_MAX))
        matrix = load_capacity_matrix(base / inputs["capacity_matrix"], score_max)
    votes = load_expert_votes(base / inputs["votes"]) if "votes" in inputs else {}

    layers, problems = [], []
    frame = (luc.meta, inputs["luc"]) if luc is not None else None
    for name, keys, rule in criteria:
        service = keys.get("service", name)
        weight = float(keys["weight"]) if "weight" in keys else None
        if weight is None:
            key = service if service in votes or name not in votes else name
            try:
                weight = criterion_weight_from_votes(votes[key])
            except KeyError:
                problems.append(f"[criterion:{name}]: no weight, and {inputs['votes']} has no {key!r} row")
            except DataError as exc:
                problems.append(f"[criterion:{name}]: {exc}")
        if "grid" in keys:
            grid = read_grid(base / keys["grid"])
            if frame is None:
                frame = (grid.meta, keys["grid"])
            elif not grid.meta.aligned_with(frame[0]):
                problems.append(f"[criterion:{name}]: grid {keys['grid']} is not aligned with {frame[1]}")
            layers.append((name, grid, weight))
        elif service not in matrix.services:
            problems.append(f"[criterion:{name}]: service {service!r} not in {inputs['capacity_matrix']}")
        else:
            modifier = None if rule is None else read_grid(base / keys["modifier_grid"])
            try:
                layers.append((name, build_criterion(luc, matrix, service, rule, modifier), weight))
            except DataError as exc:  # a land-cover class comes from luc, the rest from the modifier
                source = inputs["luc"] if rule is None or isinstance(exc, UnknownClass) else keys["modifier_grid"]
                raise type(exc)(f"[criterion:{name}] {source}: {exc}") from None
    if problems:
        raise DataError("; ".join(problems))
    return layers


def run_prep(prep_config: str | Path, out_dir: str | Path | None = None) -> Path:
    """Build criterion layers from a prep config (INI; README, "Criterion
    preparation") and write one .asc per criterion and a stack manifest;
    returns the manifest path. The whole config is checked before any
    grid or CSV is read, and every layer is built before anything is
    written."""
    prep_config = Path(prep_config)
    base = prep_config.parent
    inputs, criteria = _read_prep_config(prep_config)
    layers = _build_layers(base, inputs, criteria)
    out = Path(out_dir) if out_dir is not None else base / inputs.get("out", "criteria")
    out.mkdir(parents=True, exist_ok=True)
    lines = ["name,path,weight"]
    for name, raster, weight in layers:
        (out / f"{name}.asc").write_text(write_ascii_grid(raster))
        lines.append(f"{name},{name}.asc,{weight!r}")
    manifest_path = out / "stack_manifest.csv"
    manifest_path.write_text("\n".join(lines) + "\n")
    return manifest_path
