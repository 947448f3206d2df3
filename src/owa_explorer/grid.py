"""Raster core: ESRI ASCII grid I/O, aligned criterion stacks, validity masks.

Grids are single-band, row 0 is the northernmost row. A cell equal to the
declared NODATA value is invalid; invalid cells are excluded from every
computation downstream. Rasters and stacks are immutable once built.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

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
            raise DataError(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        if not (self.cellsize > 0):
            raise DataError(f"cellsize must be positive, got {self.cellsize}")

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
        vals = np.array(self.values, dtype=np.float64, order="C").reshape(-1)
        if vals.size != self.meta.size:
            raise DataError(
                f"expected {self.meta.size} cells ({self.meta.ncols}x{self.meta.nrows}), got {vals.size}"
            )
        bad = ~np.isfinite(vals)
        if bad.any():
            raise DataError(f"{int(bad.sum())} non-finite cells (first at index {int(np.argmax(bad))})")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def valid_mask(self) -> np.ndarray:
        return self.values != self.meta.nodata_value


def decode_text(data: bytes, path: str | Path | None = None) -> str:
    """data as UTF-8 text; a byte that is not raises DataError naming the
    byte's offset, and the file when path is given."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        where = "" if path is None else f"{path}: "
        raise DataError(f"{where}byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8") from None


def read_text(path: str | Path) -> str:
    """The text of an input file (see decode_text)."""
    return decode_text(Path(path).read_bytes(), path)


def read_grid(path: str | Path) -> Raster:
    """The grid in the file at path; a DataError names the file."""
    return parse_ascii_grid(Path(path).read_bytes(), path)


def parse_ascii_grid(text: str | bytes, path: str | Path | None = None) -> Raster:
    """Parse an ESRI ASCII grid; a DataError names path when it is given.

    Header keys are case-insensitive; NODATA_value is optional and defaults
    to -9999. The body must hold exactly ncols*nrows whitespace-separated
    numbers in row-major order; each reads as float() reads it. A str is
    parsed as its UTF-8 bytes; the first byte that is not UTF-8 is refused
    by its offset, else the first token that is not ASCII by name.
    """
    try:
        return Raster(*_parse_ascii_grid(text))  # built once the parser's copy of a str is dropped
    except DataError as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {exc}") from None


# a run of bytes that str.split() does not split at, in ASCII text
_TOKEN = re.compile(rb"[^\t\n\x0b\x0c\r\x1c-\x1f ]+")


def _parse_ascii_grid(text: str | bytes) -> tuple[GridMeta, np.ndarray]:
    if isinstance(text, str):
        text = text.encode(errors="surrogatepass")  # a lone surrogate then fails the UTF-8 check
    if not text.isascii():
        # str.split would also split at non-ASCII spaces, and float() reads non-ASCII digits
        token = next(t for t in re.split(r"[ \t\n\r\f\v]+", decode_text(text)) if not t.isascii())
        raise DataError(f"token {token!r} is not ASCII")
    # the header is at most six key-value pairs; the loop below looks one token past them
    head = list(itertools.islice(_TOKEN.finditer(text), 14))
    tokens = [m.group().decode() for m in head]
    if not tokens:
        raise DataError("empty input")

    header: dict[str, float] = {}
    pos = 0
    while pos + 1 < len(tokens):
        key = tokens[pos].lower()
        if key not in _HEADER_KEYS:
            break
        if key in header:
            raise DataError(f"duplicate header key {key!r}")
        try:
            if "_" in tokens[pos + 1]:  # float() would read 1_0 as 10
                raise ValueError
            header[key] = float(tokens[pos + 1])
        except ValueError:
            raise DataError(f"header key {key!r} has non-numeric value {tokens[pos + 1]!r}") from None
        pos += 2
    infinite = [f"{k} {tokens[2 * i + 1]}" for i, (k, v) in enumerate(header.items()) if not math.isfinite(v)]
    if infinite:
        raise DataError(f"header values must be finite: {', '.join(infinite)}")

    missing = [k for k in _REQUIRED_KEYS if k not in header]
    if missing:
        raise DataError(f"missing header keys: {', '.join(missing)}")
    for k in ("ncols", "nrows"):
        if header[k] != int(header[k]) or header[k] < 1:
            raise DataError(f"{k} must be a positive integer, got {header[k]}")

    meta = GridMeta(
        ncols=int(header["ncols"]),
        nrows=int(header["nrows"]),
        xllcorner=header["xllcorner"],
        yllcorner=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata_value=header.get("nodata_value", DEFAULT_NODATA),
    )

    return meta, _parse_body(text, head[pos].start() if pos < len(head) else len(text), meta.size)


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
    p = x * _POW10[16 - e]
    x_hi, x_lo = _split(x)
    # err = x_lo b_lo - (((p - x_hi b_hi) - x_lo b_hi) - x_hi b_lo), b holding b_hi then b_lo,
    # and each product written over an operand it has spent
    b = _POW10_HI[16 - e]
    err = x_hi * b
    np.subtract(p, err, out=err)
    err -= np.multiply(x_lo, b, out=b)
    np.take(_POW10_LO, 16 - e, out=b, mode="wrap")  # in range; the default mode copies out first
    err -= np.multiply(x_hi, b, out=x_hi)
    np.subtract(np.multiply(x_lo, b, out=b), err, out=err)
    del x_hi, x_lo, b  # freed before the result is built
    got = p.astype(np.int64)
    got += np.rint(err, out=err).astype(np.int64)
    return got


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


# The reader's body kernel, _READ_CELLS tokens at a time. A plain token (an
# optional "-", digits, at most one ".") is D / 10^f, f the digits after the
# point: where D < 2^53 and f <= 22 one division of exact doubles rounds
# correctly (Clinger 1990, "How to read floating point numbers accurately").
# Where D has 17 digits and lies in [1e-4, 1e15), that quotient or its
# neighbour is kept if _seventeen_digits gives D back, which only the nearest
# double does. float() reads the rest. A token is right-aligned in a row of
# _TOKEN_BYTES bytes, the point a 0 digit, and each little-endian 8-byte word
# becomes the integer it spells by multiply-shift steps (Langdale & Lemire 2019).
# A block is four of the writer's: numpy lets go of the GIL inside each call,
# so grids parsed on two threads trade it fewer times.
_READ_CELLS = 16384
_TOKEN_BYTES = 24  # "-0.00012345678901234567" is the longest plain cell
_ROW = np.dtype(f"V{_TOKEN_BYTES}")
_SPACE = np.isin(np.arange(33), [9, 10, 11, 12, 13, 28, 29, 30, 31, 32])  # str.split's, of bytes <= 32
# _CLEAR[k] keeps a row's bytes from column k on
_CLEAR = np.triu(np.full((_TOKEN_BYTES + 1, _TOKEN_BYTES), 255, np.uint8)).view(_ROW)[:, 0]
# for each column of word k, 1 + the columns right of it, in reverse byte order (see _read_plain)
_AFTER = np.arange(_TOKEN_BYTES, 0, -1, dtype=np.uint8).reshape(3, 8)[:, ::-1].copy().view("<u8")[:, 0]
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
_EIGHT_DIGITS = ((0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8), (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
                 (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32))


def _parse_body(data: bytes, start: int, size: int) -> np.ndarray:
    """The cells of the body that begins at data[start]; it raises what
    float() on every token raises, in the same order of precedence: a wrong
    count, a "_", a token float() rejects, then a non-finite cell."""
    buf = np.frombuffer(data, np.uint8)
    # the row that ends at each offset; the header puts 51 or more bytes before the first token
    rows_at = np.ndarray((buf.size - _TOKEN_BYTES + 1,), _ROW, data, strides=(1,))
    values = np.empty(min(size, (buf.size - start + 1) // 2))  # no more cells than the body can hold
    # a window holds about _READ_CELLS tokens of the body's mean length
    span = min((buf.size - start) * _READ_CELLS // max(values.size, 1) * 5 // 4, _READ_CELLS * _TOKEN_BYTES)
    cells = min(_READ_CELLS, values.size)
    scratch = np.empty((2, cells, _TOKEN_BYTES), np.uint8), np.empty((4, cells), np.int64)  # every block's
    count, pos, rejected = 0, start, None
    while pos < buf.size:
        stop = min(pos + span, buf.size)
        if cut := _TOKEN.match(data, stop):  # the window ends after the token it would cut
            stop = cut.end()
        starts, ends = _token_bounds(buf, pos, stop)
        pos = int(ends[-1]) if ends.size == _READ_CELLS else stop
        if count + ends.size <= size:  # a longer body is refused by its count alone
            block = values[count:count + ends.size]
            odd = _read_plain(buf, rows_at, starts, ends, block, scratch)
            for j, a, b in zip(odd.tolist(), starts[odd].tolist(), ends[odd].tolist()):
                try:
                    block[j] = float(data[a:b])
                except ValueError:
                    rejected = rejected or data[a:b].decode()
        count += ends.size
    if count != size:
        raise DataError(f"expected {size} cells, got {count}")
    if data.find(b"_", start) >= 0:  # float() would read 1_0 as 10
        rejected = next(m.group().decode() for m in _TOKEN.finditer(data, start) if b"_" in m.group())
    if rejected is not None:
        raise DataError(f"cell value {rejected!r} is not a number")
    infinite = np.flatnonzero(~np.isfinite(values))
    if infinite.size:
        token = next(itertools.islice(_TOKEN.finditer(data, start), int(infinite[0]), None)).group()
        raise DataError(f"cell {infinite[0]} is not finite: {token.decode()!r}")
    return values


def _token_bounds(buf: np.ndarray, pos: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The start and end offsets of the first _READ_CELLS tokens of buf[pos:stop]."""
    seps = pos + np.flatnonzero(buf[pos:stop] <= 32)
    seps = np.append(seps[_SPACE[buf[seps]]], stop)
    starts = np.append(pos, seps[:-1] + 1)
    tokens = np.flatnonzero(seps > starts)[:_READ_CELLS]
    return starts[tokens], seps[tokens]


def _byte_count(ones: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per row of the (n, _TOKEN_BYTES) bytes `ones`, each 0 or 1, their
    sum, into the int64 out: a row's three words add without a carry, and
    a word times 0x0101010101010101 holds its byte sum in its top byte."""
    w, total = ones.view("<u8"), out.view(np.uint64)
    np.add(w[:, 0], w[:, 1], out=total)
    total += w[:, 2]
    total *= 0x0101010101010101
    total >>= 56
    return out


def _read_plain(buf, rows_at, starts, ends, out: np.ndarray, scratch) -> np.ndarray:
    """Writes to out the value of each plain token of buf[starts:ends] and
    returns the indices of the others, whose out it leaves unset. Every
    array of scratch, (2, k, _TOKEN_BYTES) bytes and (4, k) int64 for some
    k >= ends.size, is overwritten."""
    n = ends.size
    rows, ones = scratch[0][:, :n]  # (n, _TOKEN_BYTES) each
    n_points, after, digits, tmp = scratch[1][:, :n]
    rows.view(_ROW)[:, 0] = rows_at[np.subtract(ends, _TOKEN_BYTES, out=tmp)]  # np.take would copy rows_at
    np.maximum(np.subtract(starts, tmp, out=tmp), 0, out=tmp)  # the bytes before the token
    # np.take's default mode copies out first; every index here is in range, or -1 for the last entry
    np.take(_CLEAR, tmp, out=ones.view(_ROW)[:, 0], mode="wrap")
    rows &= ones
    rows -= np.uint8(48)  # a digit byte becomes its value; "." becomes 254
    _byte_count(np.equal(rows, 254, out=ones.view(bool)), n_points)
    points = n_points.any()
    if points:  # likewise a word times _AFTER holds the _AFTER byte of its point's column, if any
        w, a, t = ones.view("<u8"), after.view(np.uint64), tmp.view(np.uint64)
        np.multiply(w[:, 0], _AFTER[0], out=a)
        a >>= 56
        for k in (1, 2):
            np.multiply(w[:, k], _AFTER[k], out=t)
            t >>= 56
            a += t
        after -= 1
    n_digits = _byte_count(np.less(rows, 10, out=ones.view(bool)), digits)
    rows *= ones
    w = rows.view("<u8")  # in place, each word (columns 0-7, 8-15, 16-23) becomes the number it spells
    for keep, times, shift in _EIGHT_DIGITS:
        w &= keep
        w *= times
        w >>= shift
    plain = (n_digits > 0) & (n_points <= 1) & (w[:, 0] < 100)  # so that the digits fit in int64
    negative = buf[starts] == 45
    n_digits += n_points
    n_digits += negative
    plain &= n_digits == np.subtract(ends, starts, out=tmp)
    full, t = digits.view(np.uint64), tmp.view(np.uint64)  # D, while the point's column counts
    np.minimum(w[:, 0], 100, out=full)
    full *= 10**16
    full += np.multiply(w[:, 1], 10**8, out=t)
    full += w[:, 2]
    if points:  # drop the 0 digit the point's column counts as; -1 indexes 10^18 > D: none dropped
        powers = np.take(_INT_POW10, np.minimum(after, 18, out=tmp), out=n_points, mode="wrap")
        low = np.remainder(digits, powers, out=tmp)
        digits -= low
        digits //= 10
        digits += low
        np.maximum(after, 0, out=after)
    else:
        after[:] = 0
    fast = plain & (digits < 2**53) & (after <= 22)
    np.divide(digits, np.take(_POW10, np.minimum(after, 22, out=tmp), out=out, mode="wrap"), out=out)
    s = np.add(after, digits < 10**16, out=tmp)  # digits after the point of D padded to 17 digits
    i = np.flatnonzero(plain & ~fast & (digits < 10**17) & (s >= 2) & (s <= 20))
    if i.size:
        # D >= 2^53 here, so the quotient has two roundings: about 1 in 6 is the neighbour.
        # The byte rows are spent: they hold D padded to 17 digits, the exponents and the quotients.
        d17, e, c = scratch[0].view(np.int64).reshape(6, -1)[:3, : i.size]
        np.take(digits, i, out=d17, mode="wrap")
        np.multiply(d17, 10, out=d17, where=d17 < 10**16)
        np.subtract(16, np.take(s, i, out=e, mode="wrap"), out=e)
        c = np.take(out, i, out=c.view(np.float64), mode="wrap")
        got = _seventeen_digits(c, e)
        miss = np.flatnonzero(got != d17)
        c[miss] = np.nextafter(c[miss], np.where(got[miss] < d17[miss], np.inf, 0.0))
        got[miss] = _seventeen_digits(c[miss], e[miss])
        out[i] = c
        fast[i] = got == d17
    np.negative(out, out=out, where=negative)
    return np.flatnonzero(~fast)


@dataclass(frozen=True)
class CriterionWeights:
    """Strictly positive criterion weights, normalized to sum to 1."""

    v: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.v, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise DataError("no weights given")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            every = ", ".join(f"weight {j} is {v[j]}" for j in bad)
            raise DataError(f"{every}; all weights must be finite")
        if not (v > 0).all():
            j = int(np.argmax(~(v > 0)))
            raise DataError(f"weight {j} is {v[j]}; all weights must be > 0")
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
            raise DataError(f"a stack needs at least 2 layers, got {len(self.layers)}")
        if not (len(self.names) == len(self.layers) == len(self.criterion_weights)):
            raise DataError(
                f"got {len(self.names)} names, {len(self.layers)} layers, "
                f"{len(self.criterion_weights)} weights"
            )
        faults, checked = [], []
        for name, layer in zip(self.names, self.layers):
            if not self.meta.aligned_with(layer.meta):
                faults.append(f"layer {name!r} is not aligned with the stack frame")
            vals = layer.values
            valid = layer.valid_mask
            lo = vals[valid].min(initial=0.0)
            hi = vals[valid].max(initial=1.0)
            if lo < -VALUE_EPS or hi > 1.0 + VALUE_EPS:
                faults.append(f"layer {name!r} has valid values in [{lo:.17g}, {hi:.17g}], outside [0, 1]")
            elif lo < 0.0 or hi > 1.0:
                clipped = np.where(valid, np.clip(vals, 0.0, 1.0), vals)
                layer = Raster(layer.meta, clipped)
            checked.append(layer)
        if faults:  # every misaligned layer and every layer out of range, in stack order
            raise DataError("; ".join(faults))

        mask = np.ones(self.meta.size, dtype=bool)
        for layer in self.layers:
            mask &= layer.valid_mask
        if not mask.any():
            counts = ", ".join(f"{n!r} {int(r.valid_mask.sum())}" for n, r in zip(self.names, self.layers))
            raise DataError(f"no cell is valid in every layer; valid cells per layer: {counts}")

        mask.flags.writeable = False
        object.__setattr__(self, "layers", tuple(checked))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "valid_mask", mask)

    @property
    def n(self) -> int:
        return len(self.layers)


def build_stack(layers: list[tuple[str, Raster]], weights) -> CriterionStack:
    """Assemble a stack from (name, raster) pairs and raw positive weights.

    Weights may be un-normalized (e.g. expert vote fractions); they are
    normalized to sum to 1 here.
    """
    if len(layers) < 2:
        raise DataError(f"a stack needs at least 2 layers, got {len(layers)}")
    names = tuple(name for name, _ in layers)
    rasters = tuple(raster for _, raster in layers)
    return CriterionStack(
        meta=rasters[0].meta,
        names=names,
        layers=rasters,
        criterion_weights=CriterionWeights(weights),
    )
