"""Raster core: ESRI ASCII grid I/O, aligned criterion stacks, validity masks.

Grids are single-band, row 0 is the northernmost row. A cell equal to the
declared NODATA value is invalid; invalid cells are excluded from every
computation downstream. Rasters and stacks are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentError,
    DataError,
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

    Every cell is written exactly as Python's "%.17g" writes it, cells
    separated by one space and rows ended by a newline. The body is
    formatted in numpy, a fixed number of cells at a time, so the
    temporaries stay the same size whatever the grid size.
    """
    m = raster.meta
    # no newline after the header: each row of the body starts with one
    header = (
        f"ncols {m.ncols}\n"
        f"nrows {m.nrows}\n"
        f"xllcorner {m.xllcorner:.17g}\n"
        f"yllcorner {m.yllcorner:.17g}\n"
        f"cellsize {m.cellsize:.17g}\n"
        f"NODATA_value {m.nodata_value:.17g}"
    )
    v = raster.values
    blocks = [
        _format_cells(v[i:i + _BLOCK_CELLS], i, m.ncols) for i in range(0, v.size, _BLOCK_CELLS)
    ]
    return "".join([header, *blocks, "\n"])


# The body kernel. "%.17g" writes a cell in fixed notation when it is zero
# or 1e-4 <= |v| < 1e15 (a "plain" cell), from its 17 significant digits
# D = round-half-even(|v| * 10^(16 - e)), e the decimal exponent of D. e comes
# from floor(log10 |v|) and is corrected where D does not have 17 digits,
# which also carries a D rounded up to 10^17 into the next decade. 10^k is
# an exact double for k <= 22, so Dekker's TwoProduct (Dekker 1971, "A
# floating-point technique for extending the available precision") gives
# the product exactly as p + err; with 17 digits the product is above 2^53,
# p is an even integer and D = p + rint(err). Python formats the other cells.
#
# Each cell is laid out in five 8-byte words, NUL where a char is absent:
#   word 0:     separator, sign, the "0.000" prefix of e < 0, digit d0
#   words 1-4:  a point slot, then a digit, for d1 .. d16
# so digit j sits at byte 2j + 7 and the point after digit e at byte 2e + 8.
# Deleting the NULs leaves the text.
_BLOCK_CELLS = 4096
_CELL_BYTES = 40


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo, each half at most 26 bits wide, so
    the product of two halves is exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _seventeen_digits(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round-half-even(x * 10^(16 - e)) as int64, exact where the product
    lies in [2^53, 2^63)."""
    s = 16 - e
    p = x * _POW10[s]
    x_hi, x_lo = _split(x)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    err = x_lo * b_lo - (((p - x_hi * b_hi) - x_lo * b_hi) - x_hi * b_lo)
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _digit_words() -> np.ndarray:
    """Per group value g in [0, 10^4): its four digit chars at the odd bytes
    of a word and, in byte 0, the place (1-4) of its last nonzero digit, 0
    if g is 0."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # digits[:, g]
    words = np.zeros((8, 10_000), np.uint8)  # byte b of word g at words[b, g]
    words[1::2] = digits + 48
    words[0] = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    return words.T.copy().view(np.uint64).reshape(-1)


def _layout_rows() -> tuple[np.ndarray, np.ndarray]:
    """Per row (e + 4) * 18 + kept, e in [-4, 14] and kept the count of
    digits up to the last nonzero one: a mask of the digit bytes printed,
    and the fixed chars (separator, "0." and leading zeros, point). Both
    are (5, rows) word tables."""
    b = np.arange(_CELL_BYTES, dtype=np.int8)
    e = np.arange(-4, 15, dtype=np.int8)[:, None, None]
    kept = np.arange(18, dtype=np.int8)[None, :, None]
    digit = np.where((b >= 7) & (b % 2 == 1), (b - 7) // 2, 99)
    mask = (digit <= np.maximum(e, kept - 1)) * np.uint8(255)
    prefix = np.frombuffer(b"  0.000 ", np.uint8)[np.minimum(b, 7)]
    chars = np.where(b == 0, np.uint8(32), np.uint8(0))
    chars = np.where((b >= 2) & (b < 3 - e) & (e < 0), prefix, chars)
    chars = np.where((b == 2 * e + 8) & (e >= 0) & (kept - 1 > e), np.uint8(46), chars)
    return tuple(t.reshape(-1, _CELL_BYTES).view(np.uint64).T.copy() for t in (mask, chars))


_DIGIT_WORDS = _digit_words()
_GROUP_FIRST = np.arange(1, 17, 4, dtype=np.uint8)[:, None]  # index of each group's first digit
_ROW_MASK, _ROW_CHARS = _layout_rows()


def _format_cells(v: np.ndarray, start: int, ncols: int) -> str:
    """The cells v, which begin at cell `start` of a grid `ncols` wide, each
    as "%.17g" writes it, preceded by '\\n' at the start of a row and by
    ' ' elsewhere."""
    n = v.size
    a = np.abs(v)
    plain = (a >= 1e-4) & (a < 1e15)
    x = np.where(plain, a, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    d = _seventeen_digits(x, e)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    while off.size:
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _seventeen_digits(x[off], e[off])
        off = off[(d[off] < 10**16) | (d[off] >= 10**17)]
    d[~plain] = 0  # zero prints as "0"; the other cells are overwritten below
    e[~plain] = 0

    d0 = d // 10**16
    rest = d - d0 * 10**16
    halves = np.empty((2, n), np.int64)
    halves[0] = rest // 10**8
    halves[1] = rest - halves[0] * 10**8
    groups = np.empty((4, n), np.int64)  # d1..d4, d5..d8, d9..d12, d13..d16
    groups[0::2] = halves // 10_000
    groups[1::2] = halves - groups[0::2] * 10_000

    words = np.empty((5, n), np.uint64)  # words[w, i] is word w of cell i
    words[0] = 0
    words[1:] = _DIGIT_WORDS[groups]
    head = words[0].view(np.uint8).reshape(n, 8)
    head[:, 7] = d0 + 48
    last = words[1:].view(np.uint8)[:, ::8]
    kept = ((last + _GROUP_FIRST) * (last > 0)).max(axis=0)  # digits up to the last nonzero one
    np.maximum(kept, d0 > 0, out=kept)
    row = (e + 4) * 18 + kept
    words &= np.take(_ROW_MASK, row, axis=1)
    words |= np.take(_ROW_CHARS, row, axis=1)
    head[:, 1] = np.signbit(v) * np.uint8(45)

    other = np.flatnonzero(~plain & (a != 0))
    if other.size:
        text = np.array([f" {c:.17g}" for c in v[other].tolist()], dtype=f"S{_CELL_BYTES}")
        words[:, other] = text.view(np.uint64).reshape(other.size, 5).T
    head[-start % ncols::ncols, 0] = 10
    return words.T.tobytes().translate(None, b"\0").decode("ascii")


@dataclass(frozen=True)
class CriterionWeights:
    """Strictly positive criterion weights, normalized to sum to 1."""

    v: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.v, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise NonPositiveWeight("no weights given")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            every = ", ".join(f"weight {j} is {v[j]}" for j in bad)
            raise DataError(f"{every}; all weights must be finite")
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
