"""Flat binary store for batches of suitability maps.

Layout: an 60-byte header (magic, format version, map count, valid-pixel
count, validity-mask digest) followed by one fixed-length record per map,
64-bit little-endian floats for the valid pixels in row-major mask order.
Records live at deterministic offsets, so concurrent writers never affect
the output bytes. A side-car CSV maps record index to (r, t).
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, MaskMismatch

MAGIC = b"OWAMAPS1"
VERSION = 1
_HEADER = struct.Struct("<8sIQQ32s")
_DTYPE = np.dtype("<f8")
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024


def rows_per_block(m: int, pixel_count: int, memory_budget: int) -> int:
    """How many of m map rows a block may hold: the budget covers two
    float64 arrays of that many rows, at least one row and at most m."""
    rows = memory_budget // (pixel_count * _DTYPE.itemsize * 2)
    return max(1, min(m, int(rows)))


def mask_digest(ncols: int, nrows: int, mask: np.ndarray) -> bytes:
    """SHA-256 over the grid dimensions and the row-major validity mask."""
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", ncols, nrows))
    h.update(np.ascontiguousarray(mask, dtype=np.uint8).tobytes())
    return h.digest()


class MapStore:
    """Reader/writer over one store file; rows are addressed by map index."""

    def __init__(self, path: Path, m: int, pixel_count: int, digest: bytes, mode: str):
        self.path = Path(path)
        self.m = m
        self.pixel_count = pixel_count
        self.digest = digest
        self._mm = np.memmap(
            self.path,
            dtype=_DTYPE,
            mode=mode,
            offset=_HEADER.size,
            shape=(m, pixel_count),
        )

    @classmethod
    def create(cls, path: str | Path, m: int, pixel_count: int, digest: bytes) -> "MapStore":
        if m < 1 or pixel_count < 1:
            raise DataError(f"store needs m >= 1 and pixels >= 1, got {m}, {pixel_count}")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, m, pixel_count, digest))
            fh.truncate(_HEADER.size + m * pixel_count * _DTYPE.itemsize)
        return cls(path, m, pixel_count, digest, mode="r+")

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
        return cls(path, m, pixel_count, digest, mode="r")

    def check_digest(self, digest: bytes) -> None:
        if digest != self.digest:
            raise MaskMismatch(f"{self.path}: store was built over a different validity mask")

    def write_row(self, i: int, values: np.ndarray) -> None:
        self._mm[i, :] = values

    def row(self, i: int) -> np.ndarray:
        return np.asarray(self._mm[i], dtype=np.float64)

    def rows(self, start: int, stop: int) -> np.ndarray:
        return np.asarray(self._mm[start:stop], dtype=np.float64)

    def columns(self, start: int, stop: int) -> np.ndarray:
        """Pixels start..stop-1 of every map, as one m x width array."""
        return np.ascontiguousarray(self._mm[:, start:stop], dtype=np.float64)

    def flush(self) -> None:
        self._mm.flush()

    def close(self) -> None:
        # memmap holds the fd; dropping the reference releases it
        self._mm = None
