"""Independent reference implementations used to check the library.

These deliberately avoid the library's own code paths: moments come from
adaptive quadrature over the raw density, and the clustering oracle merges
by explicit within-cluster sum-of-squares increase computed from the
vectors themselves.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


def quad_truncnorm_moments(mu: float, sigma: float) -> tuple[float, float]:
    """Truncated-normal moments on [0, 1] by adaptive quadrature.

    The integrand is shifted by its peak value so the quadrature sees an
    O(1) dynamic range; the shift cancels in the ratios.
    """
    xpeak = min(max(mu, 0.0), 1.0)
    e0 = 0.5 * ((xpeak - mu) / sigma) ** 2

    def w(x):
        return math.exp(e0 - 0.5 * ((x - mu) / sigma) ** 2)

    pts = sorted({0.0, 1.0, min(max(mu, 1e-12), 1.0 - 1e-12)})
    kw = dict(points=pts, limit=500, epsabs=1e-14, epsrel=1e-13)
    m0, _ = integrate.quad(w, 0.0, 1.0, **kw)
    m1, _ = integrate.quad(lambda x: x * w(x), 0.0, 1.0, **kw)
    mean = m1 / m0
    m2c, _ = integrate.quad(lambda x: (x - mean) ** 2 * w(x), 0.0, 1.0, **kw)
    return mean, math.sqrt(max(m2c / m0, 0.0))


def within_variance_via_between(rows: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squares as total minus between-cluster sum of
    squares, from the maps (one per row) and their labels."""
    X = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels)
    gmean = X.mean(axis=0)
    total = float(((X - gmean) ** 2).sum())
    between = 0.0
    for c in np.unique(labels):
        members = X[labels == c]
        diff = members.mean(axis=0) - gmean
        between += len(members) * float(diff @ diff)
    return total - between


def brute_force_ward(vectors: np.ndarray) -> list[tuple[frozenset, frozenset, float]]:
    """Greedy merging by minimum within-cluster sum-of-squares increase.

    Returns one (members_a, members_b, height) triple per merge, with
    height = sqrt(2 * ESS increase), computed directly from the vectors.
    """
    X = np.asarray(vectors, dtype=np.float64)

    def ess(members: frozenset) -> float:
        pts = X[sorted(members)]
        mu = pts.mean(axis=0)
        return float(((pts - mu) ** 2).sum())

    clusters = [frozenset([i]) for i in range(len(X))]
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                delta = ess(clusters[i] | clusters[j]) - ess(clusters[i]) - ess(clusters[j])
                if best is None or delta < best[0]:
                    best = (delta, i, j)
        delta, i, j = best
        merges.append((clusters[i], clusters[j], math.sqrt(2.0 * delta)))
        merged = clusters[i] | clusters[j]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)] + [merged]
    return merges


def merge_tree_members(tree) -> list[tuple[frozenset, frozenset, float]]:
    """Expand a MergeTree's cluster ids into member sets for comparison."""
    members = {i: frozenset([i]) for i in range(tree.m)}
    out = []
    for step, (a, b, height, _) in enumerate(tree.merges):
        out.append((members[a], members[b], height))
        members[tree.m + step] = members[a] | members[b]
    return out


def owa_map_per_map(z: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One OWA map from the raw (pixels x n) criterion values z, the
    criterion weights v and one order-weight vector w: each pixel's values
    sorted on their own, then sum(v_(j) w_j z_(j)) / sum(v_(j) w_j)."""
    order = np.argsort(z, axis=1, kind="stable")
    coef = np.asarray(v)[order] * np.asarray(w)
    return (coef * np.take_along_axis(z, order, axis=1)).sum(axis=1) / coef.sum(axis=1)


def write_ascii_grid_per_cell(raster) -> str:
    """ESRI ASCII grid text with every cell formatted by its own f-string,
    the writer's reference for byte-identical output."""
    m = raster.meta
    lines = [
        f"ncols {m.ncols}",
        f"nrows {m.nrows}",
        f"xllcorner {m.xllcorner:.17g}",
        f"yllcorner {m.yllcorner:.17g}",
        f"cellsize {m.cellsize:.17g}",
        f"NODATA_value {m.nodata_value:.17g}",
    ]
    for row in raster.grid:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
