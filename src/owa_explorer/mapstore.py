"""Flat binary store for batches of suitability maps.

Layout: a 60-byte header (magic, format version, map count, valid-pixel
count, validity-mask digest) followed by one fixed-length record per map,
64-bit little-endian floats for the valid pixels in row-major mask order.
Each record lives at an offset fixed by its index, so the bytes do not
depend on the order the rows are written in. A side-car CSV maps record
index to (r, t).
"""

from __future__ import annotations

import hashlib
import os
import struct
import weakref
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"OWAMAPS1"
VERSION = 1
_HEADER = struct.Struct("<8sIQQ32s")
_DTYPE = np.dtype("<f8")


def store_size(m: int, pixel_count: int) -> int:
    """Bytes of the store file of m maps over pixel_count valid pixels."""
    return _HEADER.size + m * pixel_count * _DTYPE.itemsize


def mask_digest(ncols: int, nrows: int, mask: np.ndarray) -> bytes:
    """SHA-256 over the grid dimensions and the row-major validity mask."""
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", ncols, nrows))
    h.update(np.ascontiguousarray(mask, dtype=np.uint8).tobytes())
    return h.digest()


class MapStore:
    """Reader/writer over one store file; rows are addressed by map index.

    Nothing maps the file: rows are copied out of it with preadv into
    arrays the caller owns, and written at their offsets with pwrite, so no
    page of the store stays in the process. A store holds one descriptor,
    read-write when made by `create` and read-only when made by `open`; it
    is released by `close`, at the end of a `with` block, or when the store
    is collected.
    """

    def __init__(self, path: Path, m: int, pixel_count: int, digest: bytes, fd: int, writable: bool):
        self.path = Path(path)
        self.m = m
        self.pixel_count = pixel_count
        self.digest = digest
        self._fd: int | None = fd
        self._writable = writable
        self._release = weakref.finalize(self, os.close, fd)

    @classmethod
    def create(cls, path: str | Path, m: int, pixel_count: int, digest: bytes) -> "MapStore":
        if m < 1 or pixel_count < 1:
            raise DataError(f"store needs m >= 1 and pixels >= 1, got {m}, {pixel_count}")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            os.pwrite(fd, _HEADER.pack(MAGIC, VERSION, m, pixel_count, digest), 0)
            os.ftruncate(fd, store_size(m, pixel_count))
        except BaseException:
            os.close(fd)
            raise
        return cls(path, m, pixel_count, digest, fd, writable=True)

    @classmethod
    def open(cls, path: str | Path) -> "MapStore":
        path = Path(path)
        fd = os.open(path, os.O_RDONLY)
        try:
            raw, size = os.pread(fd, _HEADER.size, 0), os.fstat(fd).st_size
            if len(raw) < _HEADER.size:
                raise DataError(f"{path}: truncated map store header")
            magic, version, m, pixel_count, digest = _HEADER.unpack(raw)
            if magic != MAGIC:
                raise DataError(f"{path}: not a map store (bad magic {magic!r})")
            if version != VERSION:
                raise DataError(f"{path}: unsupported store version {version}")
            if m < 1 or pixel_count < 1:
                raise DataError(f"{path}: store needs m >= 1 and pixels >= 1, got {m}, {pixel_count}")
            expected = store_size(m, pixel_count)
            if size != expected:
                raise DataError(f"{path}: store size {size}, expected {expected}")
        except BaseException:
            os.close(fd)
            raise
        return cls(path, m, pixel_count, digest, fd, writable=False)

    def __enter__(self) -> "MapStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def check_digest(self, digest: bytes) -> None:
        if digest != self.digest:
            raise DataError(f"{self.path}: store was built over a different validity mask")

    def write_row(self, i: int, values: np.ndarray, start: int | None = None) -> None:
        """Write map i's values: its whole row, or its pixels from start on."""
        if not self._writable or self._fd is None:
            raise DataError(f"{self.path}: store is not open for writing")
        if not 0 <= i < self.m:
            raise DataError(f"{self.path}: row {i} outside 0..{self.m - 1}")
        data = np.ascontiguousarray(values, dtype=_DTYPE)
        first, last = (0, self.pixel_count) if start is None else (start, start + data.size)
        if data.shape != (last - first,) or not 0 <= first <= last <= self.pixel_count:
            raise DataError(f"{self.path}: {data.shape} values for pixels {first}..{last - 1} of row {i}")
        offset = _HEADER.size + (i * self.pixel_count + first) * data.itemsize
        if os.pwrite(self._fd, data, offset) != data.nbytes:
            raise OSError(f"{self.path}: short write of row {i}")

    def rows(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Maps start..stop-1, copied from the file into out (C-contiguous
        float64 of that shape; a new array if None); returns it."""
        if not 0 <= start <= stop <= self.m:
            raise DataError(f"{self.path}: rows {start}..{stop - 1} outside 0..{self.m - 1}")
        out = self._buffer(out, (stop - start, self.pixel_count))
        self._read(out, start * self.pixel_count)
        return out

    def segments(self, maps: np.ndarray, first: int, last: int, out: np.ndarray | None = None) -> np.ndarray:
        """Pixels first..last-1 of each of the listed maps, copied from the
        file into the rows of out (C-contiguous float64 of that shape; a new
        array if None); returns it."""
        if not 0 <= first <= last <= self.pixel_count:
            raise DataError(f"{self.path}: pixels {first}..{last - 1} outside 0..{self.pixel_count - 1}")
        maps = np.asarray(maps, dtype=np.int64)
        if maps.size and not 0 <= maps.min() <= maps.max() < self.m:
            raise DataError(f"{self.path}: rows {maps.min()}..{maps.max()} outside 0..{self.m - 1}")
        out = self._buffer(out, (maps.size, last - first))
        for row, i in zip(out, maps.tolist()):
            self._read(row, i * self.pixel_count + first)
        return out

    def _buffer(self, out: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
        if out is None:
            return np.empty(shape, dtype=_DTYPE)
        if out.shape != shape or out.dtype != _DTYPE or not out.flags.c_contiguous:
            raise DataError(f"{self.path}: read into {out.dtype} {out.shape}, need C-contiguous float64 {shape}")
        return out

    def _read(self, out: np.ndarray, value: int) -> None:
        """Fill the contiguous out from the file, starting at the value-th
        value after the header."""
        if self._fd is None:
            raise DataError(f"{self.path}: store is closed")
        offset = _HEADER.size + value * _DTYPE.itemsize
        got = os.preadv(self._fd, [out], offset)
        while got < out.nbytes:  # a read may stop short: at 2 GiB, or at the end of a cut file
            more = os.preadv(self._fd, [memoryview(out).cast("B")[got:]], offset + got)
            if not more:
                raise DataError(f"{self.path}: store ends at byte {offset + got}")
            got += more

    def close(self) -> None:
        """Release the descriptor; the store can then neither read nor write."""
        self._release()
        self._fd = None
