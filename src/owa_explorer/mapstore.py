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
from pathlib import Path

import numpy as np

from .errors import DataError, MaskMismatch

MAGIC = b"OWAMAPS1"
VERSION = 1
_HEADER = struct.Struct("<8sIQQ32s")
_DTYPE = np.dtype("<f8")
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024


def mask_digest(ncols: int, nrows: int, mask: np.ndarray) -> bytes:
    """SHA-256 over the grid dimensions and the row-major validity mask."""
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", ncols, nrows))
    h.update(np.ascontiguousarray(mask, dtype=np.uint8).tobytes())
    return h.digest()


class MapStore:
    """Reader/writer over one store file; rows are addressed by map index.

    Reads go through a read-only mapping. A store made by `create` also
    holds a write descriptor: rows are written at their offsets with
    pwrite, which never dirties the mapping.
    """

    def __init__(self, path: Path, m: int, pixel_count: int, digest: bytes, fd: int | None = None):
        self.path = Path(path)
        self.m = m
        self.pixel_count = pixel_count
        self.digest = digest
        self._fd = fd
        self._mm = np.memmap(
            self.path,
            dtype=_DTYPE,
            mode="r",
            offset=_HEADER.size,
            shape=(m, pixel_count),
        )

    @classmethod
    def create(cls, path: str | Path, m: int, pixel_count: int, digest: bytes) -> "MapStore":
        if m < 1 or pixel_count < 1:
            raise DataError(f"store needs m >= 1 and pixels >= 1, got {m}, {pixel_count}")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            os.pwrite(fd, _HEADER.pack(MAGIC, VERSION, m, pixel_count, digest), 0)
            os.ftruncate(fd, _HEADER.size + m * pixel_count * _DTYPE.itemsize)
            return cls(path, m, pixel_count, digest, fd=fd)
        except BaseException:
            os.close(fd)
            raise

    @classmethod
    def open(cls, path: str | Path) -> "MapStore":
        path = Path(path)
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise DataError(f"{path}: truncated map store header")
        magic, version, m, pixel_count, digest = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise DataError(f"{path}: not a map store (bad magic {magic!r})")
        if version != VERSION:
            raise DataError(f"{path}: unsupported store version {version}")
        expected = _HEADER.size + m * pixel_count * _DTYPE.itemsize
        if path.stat().st_size != expected:
            raise DataError(f"{path}: store size {path.stat().st_size}, expected {expected}")
        return cls(path, m, pixel_count, digest)

    def check_digest(self, digest: bytes) -> None:
        if digest != self.digest:
            raise MaskMismatch(f"{self.path}: store was built over a different validity mask")

    def write_row(self, i: int, values: np.ndarray, start: int | None = None) -> None:
        """Write map i's values: its whole row, or its pixels from start on."""
        if self._fd is None:
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

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Maps start..stop-1 as a read-only view of the mapping: no copy."""
        return np.asarray(self._mm[start:stop], dtype=np.float64)

    def close(self) -> None:
        """Release the write descriptor and the mapping (which holds its
        own descriptor until dropped)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._mm = None
