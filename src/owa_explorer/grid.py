"""Raster core: ESRI ASCII grid I/O, aligned criterion stacks, validity masks.

Grids are single-band, row 0 is the northernmost row. A cell equal to the
declared NODATA value is invalid; invalid cells are excluded from every
computation downstream. Rasters and stacks are immutable once built and can
be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentError,
    DimensionMismatch,
    MalformedHeader,
    NonNumericCell,
    NonPositiveWeight,
    ValueRangeError,
)

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_REQUIRED_KEYS = _HEADER_KEYS[:5]

# tolerance for floating dust on criterion values entering a stack
VALUE_EPS = 1e-9


@dataclass(frozen=True)
class GridMeta:
    """Spatial frame of a raster: size, lower-left corner, cell size, nodata."""

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata_value: float = DEFAULT_NODATA

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise DimensionMismatch(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        if not (self.cellsize > 0):
            raise MalformedHeader(f"cellsize must be positive, got {self.cellsize}")

    @property
    def size(self) -> int:
        return self.ncols * self.nrows

    def aligned_with(self, other: "GridMeta") -> bool:
        """Same frame within 1e-9 relative tolerance; nodata may differ."""
        if self.ncols != other.ncols or self.nrows != other.nrows:
            return False
        close = lambda a, b: math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        return (
            close(self.xllcorner, other.xllcorner)
            and close(self.yllcorner, other.yllcorner)
            and close(self.cellsize, other.cellsize)
        )


@dataclass(frozen=True)
class Raster:
    """A grid plus its row-major cell values (length ncols * nrows)."""

    meta: GridMeta
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size != self.meta.size:
            raise DimensionMismatch(
                f"expected {self.meta.size} cells ({self.meta.ncols}x{self.meta.nrows}), got {vals.size}"
            )
        bad = ~np.isfinite(vals)
        if bad.any():
            raise NonNumericCell(f"{int(bad.sum())} non-finite cells (first at index {int(np.argmax(bad))})")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def valid_mask(self) -> np.ndarray:
        return self.values != self.meta.nodata_value

    @property
    def grid(self) -> np.ndarray:
        """Values as a (nrows, ncols) view, row 0 northernmost."""
        return self.values.reshape(self.meta.nrows, self.meta.ncols)

    def with_values(self, values: np.ndarray) -> "Raster":
        return Raster(self.meta, values)


def parse_ascii_grid(text: str | bytes) -> Raster:
    """Parse an ESRI ASCII grid.

    Header keys are case-insensitive; NODATA_value is optional and defaults
    to -9999. The body must hold exactly ncols*nrows whitespace-separated
    numbers in row-major order.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    tokens = text.split()
    if not tokens:
        raise MalformedHeader("empty input")

    header: dict[str, float] = {}
    pos = 0
    while pos + 1 < len(tokens):
        key = tokens[pos].lower()
        if key not in _HEADER_KEYS:
            break
        if key in header:
            raise MalformedHeader(f"duplicate header key {key!r}")
        try:
            header[key] = float(tokens[pos + 1])
        except ValueError:
            raise MalformedHeader(f"header key {key!r} has non-numeric value {tokens[pos + 1]!r}") from None
        pos += 2

    missing = [k for k in _REQUIRED_KEYS if k not in header]
    if missing:
        raise MalformedHeader(f"missing header keys: {', '.join(missing)}")
    for k in ("ncols", "nrows"):
        if header[k] != int(header[k]) or header[k] < 1:
            raise MalformedHeader(f"{k} must be a positive integer, got {header[k]}")

    meta = GridMeta(
        ncols=int(header["ncols"]),
        nrows=int(header["nrows"]),
        xllcorner=header["xllcorner"],
        yllcorner=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata_value=header.get("nodata_value", DEFAULT_NODATA),
    )

    body = tokens[pos:]
    if len(body) != meta.size:
        raise DimensionMismatch(f"expected {meta.size} cells, got {len(body)}")
    try:
        values = np.array(body, dtype=np.float64)
    except ValueError:
        for tok in body:
            try:
                float(tok)
            except ValueError:
                raise NonNumericCell(f"cell value {tok!r} is not a number") from None
        raise
    finite = np.isfinite(values)
    if not finite.all():
        idx = int(np.argmax(~finite))
        raise NonNumericCell(f"cell {idx} is not finite: {body[idx]!r}")
    return Raster(meta, values)


def write_ascii_grid(raster: Raster) -> str:
    """Serialize a raster; values use 17 significant digits so that
    parse(write(r)) reproduces r bit-for-bit.

    The body is one %-format over all cells: the same bytes as formatting
    each cell on its own, in about half the time.
    """
    m = raster.meta
    header = (
        f"ncols {m.ncols}\n"
        f"nrows {m.nrows}\n"
        f"xllcorner {m.xllcorner:.17g}\n"
        f"yllcorner {m.yllcorner:.17g}\n"
        f"cellsize {m.cellsize:.17g}\n"
        f"NODATA_value {m.nodata_value:.17g}\n"
    )
    row = " ".join(["%.17g"] * m.ncols)
    body = "\n".join([row] * m.nrows) % tuple(raster.values.tolist())
    return header + body + "\n"


@dataclass(frozen=True)
class CriterionWeights:
    """Strictly positive criterion weights, normalized to sum to 1."""

    v: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.v, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise NonPositiveWeight("no weights given")
        if not (v > 0).all():
            j = int(np.argmax(~(v > 0)))
            raise NonPositiveWeight(f"weight {j} is {v[j]}; all weights must be > 0")
        v = v / v.sum()
        v.flags.writeable = False
        object.__setattr__(self, "v", v)

    def __len__(self) -> int:
        return self.v.size


@dataclass(frozen=True)
class CriterionStack:
    """Aligned criterion layers with a shared validity mask.

    Valid cells hold values in [0, 1]; values off by at most 1e-9 are
    clamped, anything further out is rejected.
    """

    meta: GridMeta
    names: tuple[str, ...]
    layers: tuple[Raster, ...]
    criterion_weights: CriterionWeights
    valid_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.layers) < 2:
            raise AlignmentError(f"a stack needs at least 2 layers, got {len(self.layers)}")
        if not (len(self.names) == len(self.layers) == len(self.criterion_weights)):
            raise AlignmentError(
                f"got {len(self.names)} names, {len(self.layers)} layers, "
                f"{len(self.criterion_weights)} weights"
            )
        for name, layer in zip(self.names, self.layers):
            if not self.meta.aligned_with(layer.meta):
                raise AlignmentError(f"layer {name!r} is not aligned with the stack frame")

        mask = np.ones(self.meta.size, dtype=bool)
        for layer in self.layers:
            mask &= layer.valid_mask

        checked = []
        for name, layer in zip(self.names, self.layers):
            vals = layer.values
            valid = layer.valid_mask
            lo = vals[valid].min(initial=0.0)
            hi = vals[valid].max(initial=1.0)
            if lo < -VALUE_EPS or hi > 1.0 + VALUE_EPS:
                raise ValueRangeError(
                    f"layer {name!r} has valid values in [{lo:.17g}, {hi:.17g}], outside [0, 1]"
                )
            if lo < 0.0 or hi > 1.0:
                clipped = np.where(valid, np.clip(vals, 0.0, 1.0), vals)
                layer = Raster(layer.meta, clipped)
            checked.append(layer)

        mask.flags.writeable = False
        object.__setattr__(self, "layers", tuple(checked))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "valid_mask", mask)

    @property
    def n(self) -> int:
        return len(self.layers)

    def value_matrix(self) -> np.ndarray:
        """(valid pixel count, n) matrix of criterion values at valid cells."""
        return np.column_stack([layer.values[self.valid_mask] for layer in self.layers])


def build_stack(layers: list[tuple[str, Raster]], weights) -> CriterionStack:
    """Assemble a stack from (name, raster) pairs and raw positive weights.

    Weights may be un-normalized (e.g. expert vote fractions); they are
    normalized to sum to 1 here.
    """
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(layers) != weights.size:
        raise AlignmentError(f"got {len(layers)} layers but {weights.size} weights")
    if len(layers) < 2:
        raise AlignmentError(f"a stack needs at least 2 layers, got {len(layers)}")
    names = tuple(name for name, _ in layers)
    rasters = tuple(raster for _, raster in layers)
    return CriterionStack(
        meta=rasters[0].meta,
        names=names,
        layers=rasters,
        criterion_weights=CriterionWeights(weights),
    )
