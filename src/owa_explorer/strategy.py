"""Decision-strategy space: feasibility, order-weight generation, sampling.

A decision strategy is a point (r, t): r is the risk appetite (0 = weight
on the worst criterion value, 1 = weight on the best), t the trade-off
(dispersion of the order weights, 1 = uniform weights). Feasible points lie
under the parabola t = 4r(1-r).

Order weights for a feasible point come from a normal distribution
truncated to [0, 1], chosen so that its mean equals r and its standard
deviation equals t/sqrt(12); t = 1 at r = 0.5 then reproduces the uniform
density (std 1/sqrt(12)) and t = 0 collapses to a point mass. The density
is discretized into n bins to yield the weight vector. The parameters of
a whole design are solved in one pass over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError

SIGMA_MIN = 1e-6
SIGMA_MAX = 1e3
MU_LO, MU_HI = -50.0, 51.0
MOMENT_TOL = 1e-6
FEAS_EPS = 1e-12
# below this trade-off the generating density is indistinguishable from a
# point mass at the sigma floor; treated as "no trade-off"
T_DEGENERATE = 1e-9

SQRT12 = math.sqrt(12.0)

# 128-point Gauss-Legendre rule on [0, 1]; `_window` lays it on a window
# over which the log density varies by at most 40, and there the moments and
# bin masses it gives are good to ~1e-13 relative
_GL_X, _GL_W = np.polynomial.legendre.leggauss(128)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


@dataclass(frozen=True)
class DecisionPoint:
    """A (risk, trade-off) coordinate."""

    r: float
    t: float


@dataclass(frozen=True)
class OrderWeights:
    """Non-negative order weights summing to 1; first weight applies to the
    smallest criterion value at a pixel."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64, order="C").reshape(-1)
        if w.size < 2:
            raise ValueError(f"need at least 2 order weights, got {w.size}")
        if (w < 0).any():
            raise ValueError("order weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"order weights sum to {w.sum()!r}, expected 1")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class ExperimentalDesign:
    """A reproducible set of feasible decision points."""

    points: tuple[DecisionPoint, ...]
    n_proposals: int = 0

    def __post_init__(self):
        if not self.points:
            raise ValueError("a design needs at least one point")
        outside = np.flatnonzero(~_in_space(*_coordinates(self.points)))
        if outside.size:
            p = self.points[outside[0]]
            raise DataError(
                f"design point {outside[0]} (r={p.r}, t={p.t}) outside the strategy space; "
                f"failing design indices: {', '.join(map(str, outside))}"
            )

    @property
    def m(self) -> int:
        return len(self.points)


def _in_space(r, t):
    """Elementwise: (r, t) lies in the strategy space, the unit square
    under t = 4r(1-r) within FEAS_EPS; nan lies outside."""
    return (0.0 <= r) & (r <= 1.0) & (0.0 <= t) & (t <= 1.0) & (t <= 4.0 * r * (1.0 - r) + FEAS_EPS)


def _coordinates(points) -> tuple[np.ndarray, np.ndarray]:
    """The r and t arrays of points."""
    return np.array([p.r for p in points], dtype=np.float64), np.array([p.t for p in points], dtype=np.float64)


def _window(mu: np.ndarray, sigma: np.ndarray, length: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """The Gauss-Legendre rule for the normal density of parent (mu, sigma)
    on [0, length], per element of the 1-D arrays mu and sigma (length may
    be one per element), so that no element depends on the others.

    A parent above length/2 is mirrored onto length - mu, so the density
    peaks on [0, length] at p = max(mu, 0), at a distance d = p - mu from
    its parent. With r = sqrt(d^2 + 80 sigma^2), the density is within
    e^-40 of its peak for offsets y = x - p in [-(r + d), r - d]. The rule
    covers that window's part of [0, length], with r - d taken as 80
    sigma^2 / (r + d) to avoid cancellation, and weights exp(-y (y + 2d) /
    2 sigma^2), the density over its peak value: the sums keep their
    relative digits however narrow the density or remote its parent.
    Returns the mirror mask, p, the window's width, and the nodes y and
    weights, one row of them per element; the weights times the width sum
    to the integral over [0, length] of the density over its value at p.
    """
    mirror = mu > 0.5 * length
    mu = np.minimum(mu, length - mu)
    peak = np.maximum(mu, 0.0)
    d = peak - mu
    s2 = sigma * sigma
    width = 80.0 * s2
    rd = np.sqrt(d * d + width) + d
    lo = -np.minimum(rd, peak)
    span = np.minimum(width / rd, length - peak) - lo
    # in place on two (elements x nodes) buffers: large batches then skip
    # the page faults of fresh temporaries
    y = np.multiply.outer(span, _GL_X)
    y += lo[:, None]
    w = y + (d + d)[:, None]
    w *= y
    w *= (-0.5 / s2)[:, None]
    np.exp(w, out=w)
    w *= _GL_W
    return mirror, peak, span, y, w


def _moments(mu: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of the [0, 1]-truncated normal, per element
    of the 1-D arrays mu and sigma, from the rule of `_window` on [0, 1]."""
    mirror, peak, _, y, w = _window(mu, sigma, 1.0)
    m0 = w.sum(axis=1)
    tmp = np.multiply(w, y)
    shift = tmp.sum(axis=1) / m0
    np.subtract(y, shift[:, None], out=tmp)
    tmp *= tmp
    tmp *= w
    mean = peak + shift
    return np.where(mirror, 1.0 - mean, mean), np.sqrt(tmp.sum(axis=1) / m0)


def _solve_mu(
    sigma: np.ndarray, r: np.ndarray, mu: np.ndarray, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton on mu, from `mu`, for truncated mean == r, per point.

    With sigma fixed, mu/sigma^2 is the natural parameter of x, so the
    mean's slope in mu is var/sigma^2, exact from the same evaluation. The
    mean is non-decreasing in mu, so every evaluation also narrows the
    point's bracket [MU_LO, MU_HI]; a step that leaves it, or a zero slope,
    falls back to bisection. A point stops when its step is below
    1e-13 * (1 + |mu|) or its bracket below 1e-12, and drops out of later
    evaluations. Returns mu, and the mean and std of each point's last
    evaluation.
    """
    out = np.empty((3, mu.size))
    idx = np.arange(mu.size)
    m, s, target = mu, sigma, r
    lo, hi = np.full(mu.shape, MU_LO), np.full(mu.shape, MU_HI)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            mean, std = _moments(m, s)
            below = mean < target
            lo, hi = np.where(below, m, lo), np.where(below, hi, m)
            step = np.where(std > 0.0, (mean - target) * (s / std) ** 2, np.inf)
            new = m - step
            by_step = np.abs(step) <= 1e-13 * (1.0 + np.abs(m))
            by_width = hi - lo <= 1e-12
            inside = (lo < new) & (new < hi) & ~by_width
            m = np.where(by_step | inside, new, 0.5 * (lo + hi))
            done = by_step | by_width
            if done.any():
                out[:, idx[done]] = m[done], mean[done], std[done]
                if done.all():
                    return out[0], out[1], out[2]
                keep = ~done
                idx, m, s, target, lo, hi = idx[keep], m[keep], s[keep], target[keep], lo[keep], hi[keep]
    i = idx[0]
    raise NumericalError(f"mu iteration did not converge for sigma={sigma[i]}, r={r[i]}")


def _solve_sigma(
    r: np.ndarray, t: np.ndarray, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parent (mu, sigma) per point whose truncated std meets t/sqrt(12),
    with mu solved for mean r at every sigma, and the mean and std there.

    A truncated normal's std is below its sigma, so s = max(target,
    SIGMA_MIN) is a lower end. A point whose std there already meets the
    target keeps s: SIGMA_MIN, or a density so narrow that its std rounds
    to its sigma. The upper end starts at 2s and grows x4 up to SIGMA_MAX,
    where a point that still falls short stops. The rest take regula falsi
    steps in log sigma with the Illinois modification (Dowell & Jarratt
    1971, BIT 11:168): the end kept twice in a row has its value halved,
    so both ends move and the bracket shrinks superlinearly, down to a
    width of 1e-12 * (1 + hi), or onto a sigma where std equals the target
    exactly (near the uniform limit std is flat to the last bit over a
    range of sigma, and regula falsi would crawl along it). Each mu solve starts from the point's
    previous mu. Converged points drop out, so a point's result does not
    depend on the rest of the batch.
    """
    target = t / SQRT12
    lo = np.maximum(target, SIGMA_MIN)
    mu, mean, std = _solve_mu(lo, r, r, max_iter)
    f_lo = std - target
    hi, f_hi = np.minimum(2.0 * lo, SIGMA_MAX), np.full(r.shape, np.nan)
    sigma = np.where(f_lo >= 0.0, lo, np.nan)

    def evaluate(idx, s):
        mu[idx], mean[idx], std[idx] = _solve_mu(s, r[idx], mu[idx], max_iter)
        return std[idx] - target[idx]

    # from 2 SIGMA_MIN, x4 reaches SIGMA_MAX within 16 passes
    grow = np.flatnonzero(f_lo < 0.0)
    while grow.size:
        f = f_hi[grow] = evaluate(grow, hi[grow])
        short = f < 0.0
        capped = short & (hi[grow] == SIGMA_MAX)
        sigma[grow[capped]] = SIGMA_MAX
        up = grow[short & ~capped]
        lo[up], f_lo[up] = hi[up], f_hi[up]
        hi[up] = np.minimum(4.0 * hi[up], SIGMA_MAX)
        grow = up

    live = bracketed = np.flatnonzero(np.isnan(sigma))
    kept = np.zeros(r.shape, dtype=np.int8)  # +1: hi kept last step, -1: lo kept
    for _ in range(max_iter):
        if not live.size:
            break
        l, h, fl, fh = lo[live], hi[live], f_lo[live], f_hi[live]
        xl, xh = np.log(l), np.log(h)
        # stay a quarter of the stopping width inside the bracket
        inset = 0.25e-12 * (1.0 + h) / h
        x = np.clip(xh - fh * (xh - xl) / (fh - fl), xl + inset, xh - inset)
        s = np.exp(x)
        f = evaluate(live, s)
        below = f < 0.0
        fh = np.where(below & (kept[live] == 1), 0.5 * fh, fh)
        fl = np.where(~below & (kept[live] == -1), 0.5 * fl, fl)
        # a zero lands on the root: the bracket closes there
        lo[live], f_lo[live] = np.where(f <= 0.0, s, l), np.where(below, f, fl)
        hi[live], f_hi[live] = np.where(below, h, s), np.where(below, fh, f)
        kept[live] = np.where(below, 1, -1)
        done = hi[live] - lo[live] <= 1e-12 * (1.0 + hi[live])
        sigma[live[done]] = 0.5 * (lo[live[done]] + hi[live[done]])
        live = live[~done]
    if live.size:
        i = live[0]
        raise NumericalError(f"sigma search did not converge for (r, t) = ({r[i]}, {t[i]})")

    if bracketed.size:
        evaluate(bracketed, sigma[bracketed])
    return mu, sigma, mean, std


# (point, bin) rows per pass of `_bin_masses`: its (rows x nodes) buffers
# then take 1 MiB each, whatever the batch
_BLOCK_ROWS = 1024


def _bin_masses(mu: np.ndarray, sigma: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized probability masses of the n equal bins of [0, 1], one
    row per element of the 1-D arrays mu and sigma.

    Bin j is the rule of `_window` on [0, e_j+1 - e_j] for the parent mu -
    e_j: its width times its weights is the mass over the density at the
    bin's point p_j nearest mu. Times exp((d - d_j)(d + d_j) / 2 sigma^2),
    with d and d_j the distances from mu to [0, 1] and to the bin, it is
    relative to the density's largest value on [0, 1]. That factor is taken
    as (p - p_j)((p - mu) + (p_j - mu)), with p the point of [0, 1] nearest
    mu: the points are edges or mu itself, so each difference keeps its
    digits however far out the parent or near an edge, and the factor is 1
    at the bin holding p, whose mass cannot underflow.
    """
    edges = np.arange(n + 1) / n
    masses = np.empty(mu.size * n)
    for start in range(0, masses.size, _BLOCK_ROWS):
        i, j = np.divmod(np.arange(start, min(start + _BLOCK_ROWS, masses.size)), n)
        m, s, lo, hi = mu[i], sigma[i], edges[j], edges[j + 1]
        _, _, span, _, w = _window(m - lo, s, hi - lo)
        p, pj = np.clip(m, 0.0, 1.0), np.clip(m, lo, hi)
        scale = np.exp((p - pj) * ((p - m) + (pj - m)) / (2.0 * s * s))
        masses[start : start + i.size] = span * w.sum(axis=1) * scale
    return masses.reshape(mu.size, n)


def generate_weights_batch(points, n: int) -> tuple[np.ndarray, dict[int, NumericalError | DataError]]:
    """Order weights for every point, as the rows of one (len(points), n)
    array, and the error of each point that has none, keyed by its index in
    points and in ascending order; such a point's row holds nan.

    n < 2 raises ConfigError. A point outside the strategy space (see
    `_in_space`) gets a DataError. The zero-trade-off points and
    the vertex need no moment matching: (0, 0) puts all weight on the worst
    criterion, (1, 0) on the best, and (0.5, 1) is exactly uniform (order
    weights cancel there, so any deviation would be noise); other points
    with t <= T_DEGENERATE get a unit mass on the bin containing r. The
    rest are solved in one array pass (see `_solve_sigma`); a point whose
    solved moments miss (r, t/sqrt(12)) by more than MOMENT_TOL gets a
    NumericalError. No result is clamped silently.
    """
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")
    r, t = _coordinates(points)
    W = np.full((len(points), n), np.nan)
    failures = {}
    inside = _in_space(r, t)
    for i in np.flatnonzero(~inside):
        p = points[i]
        failures[int(i)] = DataError(f"(r, t) = ({p.r}, {p.t}) outside the strategy space")

    # a feasible point with r = 0 or r = 1 has t <= FEAS_EPS, so the
    # corners take the unit-mass rule too
    flat = np.flatnonzero(inside & (t <= T_DEGENERATE))
    W[flat] = 0.0
    W[flat, np.minimum((r[flat] * n).astype(np.int64), n - 1)] = 1.0
    vertex = (r == 0.5) & (t == 1.0)
    W[vertex] = 1.0 / n

    solve = np.flatnonzero(inside & (t > T_DEGENERATE) & ~vertex)
    if solve.size:
        mu, sigma, mean, std = _solve_sigma(r[solve], t[solve])
        target = t[solve] / SQRT12
        missed = (np.abs(mean - r[solve]) > MOMENT_TOL) | (np.abs(std - target) > MOMENT_TOL)
        for k in np.flatnonzero(missed):
            p = points[solve[k]]
            failures[int(solve[k])] = NumericalError(
                f"(r, t) = ({p.r}, {p.t}): best match has mean {mean[k]:.8f} (target {p.r}), "
                f"std {std[k]:.8f} (target {target[k]:.8f})"
            )
        masses = _bin_masses(mu[~missed], sigma[~missed], n)
        W[solve[~missed]] = masses / masses.sum(axis=1, keepdims=True)
    return W, dict(sorted(failures.items()))


def generate_weights(p: DecisionPoint, n: int) -> OrderWeights:
    """Order weights for a feasible (risk, trade-off) point: the batch of one
    of `generate_weights_batch`, raising its error."""
    W, failures = generate_weights_batch([p], n)
    if failures:
        raise failures[0]
    return OrderWeights(W[0])


def sample_design(m: int, seed: int) -> ExperimentalDesign:
    """Rejection-sample m feasible points, uniform over the strategy space.

    One seeded generator consumed sequentially, so a given (m, seed) always
    reproduces the same design.
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    points: list[DecisionPoint] = []
    proposals = 0
    while len(points) < m:
        # k draws of (r, t) read the stream as 2k scalar draws would
        r, t = rng.random((2 * (m - len(points)) + 16, 2)).T
        accepted = np.flatnonzero(_in_space(r, t))[: m - len(points)]
        points += map(DecisionPoint, r[accepted].tolist(), t[accepted].tolist())
        proposals += int(accepted[-1]) + 1 if len(points) == m else r.size
    return ExperimentalDesign(points=tuple(points), n_proposals=proposals)
