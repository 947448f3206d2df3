"""Independent reference implementations used to check the library.

These deliberately avoid the library's own code paths: moments come from
adaptive quadrature over the raw density, and the clustering oracle merges
by explicit within-cluster sum-of-squares increase computed from the
vectors themselves. The scalar solve keeps the weight solve as it was
before it took arrays, as the reference for the array one; the chunked
exact-difference distances and the O(m^3) Ward scan keep those stages as
they were before the Gram form and the nearest-neighbour chain. The bisection
oracles are the exception: they reuse the library's array moments on
purpose, because they check the root finders alone.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate

from owa_explorer import cluster, pipeline, prep, strategy
from owa_explorer.errors import NegativeDistance, Unconverged


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


def pairwise_euclidean_per_row(rows: np.ndarray) -> np.ndarray:
    """Euclidean distances between the maps (one per row), each row's
    differences to the later rows summed over whole rows at once."""
    X = np.asarray(rows, dtype=np.float64)
    m = X.shape[0]
    d = np.zeros((m, m))
    for i in range(m - 1):
        diff = X[i + 1 :] - X[i]
        d[i, i + 1 :] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return d + d.T


def pairwise_euclidean_chunked(store) -> np.ndarray:
    """Squared Euclidean distances between the maps of a store from exact
    differences, summed over the library's fixed pixel chunks, one chunk
    of every map at a time."""
    m = store.m
    d2 = np.zeros((m, m))
    for start in range(0, store.pixel_count, cluster._PIXEL_CHUNK):
        cols = store.columns(start, min(start + cluster._PIXEL_CHUNK, store.pixel_count))
        buf = np.empty_like(cols)
        for i in range(m - 1):
            diff = np.subtract(cols[i + 1 :], cols[i], out=buf[i + 1 :])
            d2[i, i + 1 :] += np.einsum("ij,ij->i", diff, diff)
    return d2 + d2.T


def ward_linkage_scan(d2: np.ndarray) -> "cluster.MergeTree":
    """Ward agglomeration over the m x m squared distances d2 (left as they
    are) by a global scan: each step merges the pair of live clusters with
    the smallest d^2, exact ties to the smallest (a, b) id pair, and
    updates d^2 by Lance-Williams. O(m^3)."""
    m = d2.shape[0]
    d2 = np.array(d2, dtype=np.float64)
    size = np.ones(m, dtype=np.int64)
    ids = np.arange(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    np.fill_diagonal(d2, np.inf)

    merges: list[tuple[int, int, float, int]] = []
    for step in range(m - 1):
        sub = np.where(active)[0]
        block = d2[np.ix_(sub, sub)]
        iu = np.triu_indices(len(sub), k=1)
        vals = block[iu]
        ties = np.nonzero(vals == vals.min())[0]
        pair = min(tuple(sorted((int(ids[sub[iu[0][t]]]), int(ids[sub[iu[1][t]]])))) for t in ties)
        si = int(sub[np.nonzero(ids[sub] == pair[0])[0][0]])
        sj = int(sub[np.nonzero(ids[sub] == pair[1])[0][0]])

        ni, nj = size[si], size[sj]
        dij2 = d2[si, sj]
        merges.append((pair[0], pair[1], float(np.sqrt(dij2)), int(ni + nj)))

        others = sub[(sub != si) & (sub != sj)]
        nk = size[others]
        d2new = ((ni + nk) * d2[others, si] + (nj + nk) * d2[others, sj] - nk * dij2) / (
            ni + nj + nk
        )
        d2[others, si] = d2new
        d2[si, others] = d2new
        size[si] = ni + nj
        ids[si] = m + step
        active[sj] = False

    return cluster.MergeTree(m=m, merges=tuple(merges))


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


def empirical_risk(w: np.ndarray) -> float:
    """Mass-weighted mean of the bin midpoints of an order-weight vector;
    the discretized estimate of its risk r."""
    n = len(w)
    mids = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return float(w @ mids)


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


def road_distance_factor(
    d: float, d1: float = prep.ROAD_NEAR_M, d2: float = prep.ROAD_FAR_M, floor: float = prep.ROAD_FLOOR
) -> float:
    """Accessibility ramp for one distance: 1 within d1 of a road, down to
    `floor` at d2; the scalar reference for apply_modifier's ramp."""
    if d < 0:
        raise NegativeDistance(f"distance {d} is negative")
    if d <= d1:
        return 1.0
    if d >= d2:
        return floor
    return 1.0 - (1.0 - floor) * (d - d1) / (d2 - d1)


def verify_manifest(out_dir) -> bool:
    """Re-hash the inputs a run's manifest records; True iff every file
    still exists with the recorded digest."""
    manifest = pipeline.RunManifest.read(Path(out_dir) / "run_manifest.json")
    return all(
        Path(p).exists() and pipeline.file_digest(Path(p)) == digest
        for p, digest in manifest.inputs.items()
    )


# The weight solve one point at a time, as it stood before it took arrays:
# the same three moment regimes and seams, with math.exp where the array
# code uses np.exp, a safeguarded Newton step for mu and a plain bisection
# of sigma over [SIGMA_MIN, SIGMA_MAX].

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _scalar_gl(mu: float, sigma: float) -> tuple[float, float]:
    xi = (strategy._GL_X - mu) / sigma
    e = 0.5 * xi * xi
    w = np.exp(e.min() - e) * strategy._GL_W
    m0 = w.sum()
    mean = float((w * strategy._GL_X).sum() / m0)
    var = float((w * (strategy._GL_X - mean) ** 2).sum() / m0)
    return mean, math.sqrt(max(var, 0.0))


def _scalar_closed(mu: float, sigma: float) -> tuple[float, float] | None:
    a = (0.0 - mu) / sigma
    b = (1.0 - mu) / sigma
    if a > 0.0:
        z = 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
    elif b < 0.0:
        z = 0.5 * (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2))
    else:
        z = 0.5 * math.erfc(-b / _SQRT2) - 0.5 * math.erfc(-a / _SQRT2)
    if z < sys.float_info.min:
        return None
    pa = math.exp(-0.5 * a * a) * _INV_SQRT_2PI
    pb = math.exp(-0.5 * b * b) * _INV_SQRT_2PI
    d = (pa - pb) / z
    mean = mu + sigma * d
    var = sigma * sigma * (1.0 + (a * pa - b * pb) / z - d * d)
    return mean, math.sqrt(max(var, 0.0))


def _scalar_tail(a: float, sigma: float) -> tuple[float, float]:
    ia2 = 1.0 / (a * a)
    mean = (sigma / a) * (1.0 - ia2 * (2.0 - ia2 * (10.0 - 74.0 * ia2)))
    var = (sigma / a) ** 2 * (1.0 - ia2 * (6.0 - 50.0 * ia2))
    return mean, math.sqrt(max(var, 0.0))


def scalar_moments(mu: float, sigma: float) -> tuple[float, float, int]:
    """Truncated mean and std at one (mu, sigma), and the code of the regime
    (strategy.QUADRATURE, CLOSED or TAIL) that evaluated them."""
    dist = max(0.0, -mu, mu - 1.0)
    if sigma >= strategy._GL_SIGMA and (dist == 0.0 or sigma * sigma / dist >= strategy._GL_MIN_LAYER):
        return (*_scalar_gl(mu, sigma), strategy.QUADRATURE)
    closed = _scalar_closed(mu, sigma)
    if closed is not None:
        return (*closed, strategy.CLOSED)
    if mu < 0.0:
        return (*_scalar_tail(-mu / sigma, sigma), strategy.TAIL)
    mean, std = _scalar_tail((mu - 1.0) / sigma, sigma)
    return 1.0 - mean, std, strategy.TAIL


def _scalar_solve_mu(sigma: float, r: float, mu: float, max_iter: int = 200) -> float:
    lo, hi = strategy.MU_LO, strategy.MU_HI
    for _ in range(max_iter):
        mean, std = scalar_moments(mu, sigma)[:2]
        if mean < r:
            lo = mu
        else:
            hi = mu
        step = (mean - r) * (sigma / std) ** 2 if std > 0.0 else math.inf
        if abs(step) <= 1e-13 * (1.0 + abs(mu)):
            return mu - step
        mu = mu - step if lo < mu - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-12:
            return 0.5 * (lo + hi)
    raise Unconverged(f"mu iteration did not converge for sigma={sigma}, r={r}")


def scalar_solve(r: float, t: float, max_iter: int = 200) -> tuple[float, float] | None:
    """(mu, sigma) for one point in (0, 1) x (0, 1], or None where no
    parameters in the box meet both targets within MOMENT_TOL."""
    target = t / strategy.SQRT12
    mu = r

    def std_at(sigma: float) -> float:
        nonlocal mu
        mu = _scalar_solve_mu(sigma, r, mu, max_iter)
        return scalar_moments(mu, sigma)[1]

    if std_at(strategy.SIGMA_MIN) >= target:
        sigma = strategy.SIGMA_MIN
    elif std_at(strategy.SIGMA_MAX) <= target:
        sigma = strategy.SIGMA_MAX
    else:
        lo, hi = strategy.SIGMA_MIN, strategy.SIGMA_MAX
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if std_at(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * (1.0 + hi):
                break
        else:
            raise Unconverged(f"sigma bisection did not converge for (r, t) = ({r}, {t})")
        sigma = 0.5 * (lo + hi)
    mu = _scalar_solve_mu(sigma, r, mu, max_iter)
    mean, std = scalar_moments(mu, sigma)[:2]
    if abs(mean - r) > strategy.MOMENT_TOL or abs(std - target) > strategy.MOMENT_TOL:
        return None
    return mu, sigma


def solve_mu_bisect(sigma: np.ndarray, r: np.ndarray, max_iter: int = 200) -> np.ndarray:
    """Plain bisection over [MU_LO, MU_HI] for truncated mean == r, per
    element of the arrays sigma and r.

    The reference for the library's Newton iteration on mu: the same array
    moments, bracket and 1e-12 stopping width, but no use of the slope or of
    a starting point. Every bracket starts equal, so all stop together.
    """
    lo = np.full(np.shape(r), strategy.MU_LO)
    hi = np.full(np.shape(r), strategy.MU_HI)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        below = strategy._moments(mid, sigma)[0] < r
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if (hi - lo <= 1e-12).all():
            return 0.5 * (lo + hi)
    raise Unconverged("mu bisection did not converge")


def solve_bisect(r: np.ndarray, t: np.ndarray, max_iter: int = 200):
    """(mu, sigma, mean, std) per point (r, t) by nested plain bisection over
    arrays: sigma over [SIGMA_MIN, SIGMA_MAX] for std == t/sqrt(12), down to
    a width of 1e-12 * (1 + hi), with mu bisected for mean == r at every
    sigma. No Newton step, no regula falsi; the reference for the
    library's solve, on the library's array moments."""
    target = t / strategy.SQRT12

    def std_at(sigma, idx):
        return strategy._moments(solve_mu_bisect(sigma, r[idx], max_iter), sigma)[1]

    every = np.arange(r.size)
    at_min = std_at(np.full(r.shape, strategy.SIGMA_MIN), every) >= target
    at_max = ~at_min & (std_at(np.full(r.shape, strategy.SIGMA_MAX), every) <= target)
    sigma = np.where(at_min, strategy.SIGMA_MIN, np.where(at_max, strategy.SIGMA_MAX, np.nan))
    lo, hi = np.full(r.shape, strategy.SIGMA_MIN), np.full(r.shape, strategy.SIGMA_MAX)
    live = np.flatnonzero(np.isnan(sigma))
    for _ in range(max_iter):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        below = std_at(mid, live) < target[live]
        lo[live] = np.where(below, mid, lo[live])
        hi[live] = np.where(below, hi[live], mid)
        done = hi[live] - lo[live] <= 1e-12 * (1.0 + hi[live])
        sigma[live[done]] = 0.5 * (lo[live[done]] + hi[live[done]])
        live = live[~done]
    if live.size:
        raise Unconverged("sigma bisection did not converge")
    mu = solve_mu_bisect(sigma, r, max_iter)
    mean, std = strategy._moments(mu, sigma)
    return mu, sigma, mean, std


def bin_masses_scalar(mu: float, sigma: float, n: int) -> np.ndarray:
    """Unnormalized masses of the n equal bins of [0, 1] for one (mu, sigma),
    bin by bin with math.erfc, and through log tail probabilities when every
    mass underflows: the reference for the array `strategy._bin_masses`,
    which must equal it bit for bit."""
    xi = [((j / n) - mu) / sigma for j in range(n + 1)]
    masses = np.empty(n)
    for j in range(n):
        lo, hi = xi[j], xi[j + 1]
        if lo >= 0.0:
            masses[j] = 0.5 * (math.erfc(lo / _SQRT2) - math.erfc(hi / _SQRT2))
        else:  # lower tail; exact for a bin straddling 0 too (halving is exact)
            masses[j] = 0.5 * (math.erfc(-hi / _SQRT2) - math.erfc(-lo / _SQRT2))
    total = masses.sum()
    if total > 0.0 and math.isfinite(total):
        return masses
    # whole support sits in one far tail of the parent: work with log tail
    # probabilities relative to the heaviest bin boundary
    if mu > 0.5:  # mass hugs 1: mirror, reuse the left-tail path
        ls = [strategy._log_ndtr_c(-x) for x in xi]  # log P(parent < boundary)
        ref = ls[n]
        for j in range(n):
            masses[j] = math.exp(ls[j + 1] - ref) * -math.expm1(ls[j] - ls[j + 1])
    else:
        ls = [strategy._log_ndtr_c(x) for x in xi]  # log P(parent > boundary)
        ref = ls[0]
        for j in range(n):
            masses[j] = math.exp(ls[j] - ref) * -math.expm1(ls[j + 1] - ls[j])
    return masses


def discretize_scalar(mu: float, sigma: float, n: int) -> np.ndarray:
    """Order weights of one (mu, sigma) as `bin_masses_scalar` over their
    sum, as the solve turned each parameter pair into weights before it
    took arrays."""
    masses = bin_masses_scalar(mu, sigma, n)
    return masses / masses.sum()
