"""Output checks, computed with numpy alone from the files a run wrote.

Nothing here calls the program: grids, the map store and the CSVs are read
with their own small parsers, and every expected value is recomputed from
the inputs. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

NODATA = -9999.0
_STORE_HEADER = struct.Struct("<8sIQQ32s")  # magic, version, maps, pixels, mask digest


def read_asc(path: Path) -> np.ndarray:
    """Cell values of an ESRI ASCII grid, row-major."""
    tokens = Path(path).read_text().split()
    pos = 0
    while tokens[pos][0].isalpha():
        pos += 2
    return np.array(tokens[pos:], dtype=np.float64)


def read_csv(path: Path) -> list[list[str]]:
    """Rows of a CSV file without its header line."""
    return [line.split(",") for line in Path(path).read_text().splitlines()[1:] if line]


def read_store(path: Path) -> np.ndarray:
    """(maps, valid pixels) float64 array of a map store file."""
    with open(path, "rb") as fh:
        magic, _, m, pixels, _ = _STORE_HEADER.unpack(fh.read(_STORE_HEADER.size))
        if magic != b"OWAMAPS1":
            raise ValueError(f"{path}: bad magic {magic!r}")
        return np.fromfile(fh, dtype="<f8", count=m * pixels).reshape(m, pixels)


class Stack:
    """Criterion values at the valid pixels, criterion weights and the mask."""

    def __init__(self, manifest: Path):
        grids, weights = [], []
        for _, grid, weight in read_csv(manifest):
            num, _, den = weight.partition("/")  # a number or a votes/total fraction
            weights.append(float(num) / float(den or 1))
            grids.append(Path(manifest).parent / grid)
        layers = np.column_stack([read_asc(p) for p in grids])
        self.mask = (layers != NODATA).all(axis=1)
        z = layers[self.mask]
        order = np.argsort(z, axis=1, kind="stable")
        self.z_sorted = np.take_along_axis(z, order, axis=1)
        self.v_sorted = (np.array(weights) / np.sum(weights))[order]

    def owa(self, w: np.ndarray) -> np.ndarray:
        """OWA maps for order-weight rows w (k, n): each pixel's values sorted
        ascending, criterion weights reordered alike, then a weighted mean."""
        coef = self.v_sorted[None, :, :] * w[:, None, :]
        return (coef * self.z_sorted[None]).sum(axis=2) / coef.sum(axis=2)


def weight_vector(w, n: int) -> list[str]:
    """An order-weight vector: length n, non-negative, sums to 1 within 1e-12."""
    w = np.asarray(w, dtype=np.float64)
    problems = []
    if w.shape != (n,):
        problems.append(f"shape {w.shape}, expected ({n},)")
    elif (w < 0).any():
        problems.append(f"negative weight {w.min()!r}")
    elif abs(w.sum() - 1.0) > 1e-12:
        problems.append(f"weights sum to {w.sum()!r}")
    return problems


def maps_match_weights(run_dir: Path, stack: Stack, maps: np.ndarray, rows) -> list[str]:
    """Sampled store rows equal an independent OWA evaluation within 1e-12."""
    weights = np.array([[float(x) for x in row[1:]] for row in read_csv(run_dir / "weights.csv")])
    if maps.shape != (len(weights), stack.z_sorted.shape[0]):
        return [f"maps.bin holds {maps.shape}, expected ({len(weights)}, {stack.z_sorted.shape[0]})"]
    rows = np.asarray(rows)
    err = np.abs(maps[rows] - stack.owa(weights[rows])).max(axis=1)
    return [f"maps.bin row {i} differs by {e:.3g}" for i, e in zip(rows, err) if not e <= 1e-12]


def curve_matches_tree(run_dir: Path, maps: np.ndarray) -> list[str]:
    """The variance curve equals the cumulative h^2/2 over the Ward merge
    heights, divided by the total sum of squares, within 1e-9."""
    heights = np.array([float(row[3]) for row in read_csv(run_dir / "merge_tree.csv")])
    m = maps.shape[0]
    if heights.size != m - 1:
        return [f"merge_tree.csv has {heights.size} merges for {m} maps"]
    total = float(((maps - maps.mean(axis=0)) ** 2).sum())
    within = np.concatenate([[0.0], np.cumsum(heights**2 / 2.0)])  # within[s]: after s merges
    problems = []
    for k, ratio in read_csv(run_dir / "variance_curve.csv"):
        expected = within[m - int(k)] / total
        if not abs(float(ratio) - expected) <= 1e-9:
            problems.append(f"variance ratio at k={k} is {ratio}, expected {float(expected)!r}")
    return problems


def cluster_means_match(run_dir: Path, maps: np.ndarray, mask: np.ndarray) -> list[str]:
    """Each cluster<i>_mean.asc equals the mean of its member maps within 1e-12."""
    labels = np.array([int(row[3]) for row in read_csv(run_dir / "segmentation.csv")])
    if labels.size != maps.shape[0]:
        return [f"segmentation.csv has {labels.size} rows for {maps.shape[0]} maps"]
    problems = []
    for label in np.unique(labels):
        grid = read_asc(run_dir / f"cluster{label}_mean.asc")
        err = np.abs(grid[mask] - maps[labels == label].mean(axis=0)).max()
        if not err <= 1e-12 or (grid[~mask] != NODATA).any():
            problems.append(f"cluster{label}_mean.asc differs by {err:.3g} or misplaces nodata")
    return problems


def same_bytes(a: Path, b: Path) -> list[str]:
    return [] if a.read_bytes() == b.read_bytes() else [f"{b.name} differs from the priming run's"]
