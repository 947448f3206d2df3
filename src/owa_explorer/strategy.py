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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStrategy, NoSolution, OutOfUnitSquare, Unconverged

SIGMA_MIN = 1e-6
SIGMA_MAX = 1e3
MU_LO, MU_HI = -50.0, 51.0
MOMENT_TOL = 1e-6
FEAS_EPS = 1e-12
# below this trade-off the generating density is indistinguishable from a
# point mass at the sigma floor; treated as "no trade-off"
T_DEGENERATE = 1e-9

SQRT12 = math.sqrt(12.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# 128-point Gauss-Legendre rule on [0, 1]; machine-exact for integrands
# whose variation scale is >= ~1e-3 near the edges or >= ~0.02 inside
_GL_X, _GL_W = np.polynomial.legendre.leggauss(128)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W
_GL_SIGMA = 0.03
_GL_MIN_LAYER = 1e-3


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
        w = np.ascontiguousarray(self.w, dtype=np.float64).reshape(-1)
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
    seed: int
    m: int
    n_proposals: int = 0

    def __post_init__(self):
        if self.m != len(self.points) or self.m < 1:
            raise ValueError(f"m={self.m} but {len(self.points)} points")
        for i, p in enumerate(self.points):
            if not feasible(p):
                raise InfeasibleStrategy(
                    f"design point {i} (r={p.r}, t={p.t}) outside the strategy space"
                )


def feasible(p: DecisionPoint) -> bool:
    """True iff the point lies under the parabola t <= 4r(1-r)."""
    if not (0.0 <= p.r <= 1.0 and 0.0 <= p.t <= 1.0):
        raise OutOfUnitSquare(f"(r, t) = ({p.r}, {p.t}) outside the unit square")
    return p.t <= 4.0 * p.r * (1.0 - p.r) + FEAS_EPS


def _log_ndtr_c(x: float) -> float:
    """log P(N(0,1) > x), valid for any x, asymptotic beyond erfc range."""
    if x < 36.0:
        return math.log(0.5 * math.erfc(x / _SQRT2))
    ix2 = 1.0 / (x * x)
    tail = -ix2 * (1.0 - ix2 * (3.0 - 15.0 * ix2))
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log1p(tail)


# numpy has no erfc; this keeps the scalar one, value for value
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _gl_moments(mu: np.ndarray, sigma: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # in place on two (points x nodes) buffers: large batches then skip the
    # page faults of fresh temporaries
    w = _GL_X - mu[:, None]
    w /= sigma[:, None]
    w *= w
    w *= 0.5
    np.subtract(w.min(axis=1, keepdims=True), w, out=w)
    np.exp(w, out=w)
    w *= _GL_W
    m0 = w.sum(axis=1)
    tmp = np.multiply(w, _GL_X)
    mean = tmp.sum(axis=1) / m0
    np.subtract(_GL_X, mean[:, None], out=tmp)
    tmp *= tmp
    tmp *= w
    return mean, np.sqrt(tmp.sum(axis=1) / m0)


def _closed_moments(mu: np.ndarray, sigma: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard phi/Phi closed forms, given the truncation mass z."""
    a = (0.0 - mu) / sigma
    b = (1.0 - mu) / sigma
    pa = np.exp(-0.5 * a * a) * _INV_SQRT_2PI
    pb = np.exp(-0.5 * b * b) * _INV_SQRT_2PI
    d = (pa - pb) / z
    mean = mu + sigma * d
    var = sigma * sigma * (1.0 + (a * pa - b * pb) / z - d * d)
    return mean, np.sqrt(np.maximum(var, 0.0))


def _tail_moments(mu: np.ndarray, sigma: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # mass concentrated against the nearer bound; conditional distribution is
    # exponential-like with rate a/sigma, the far bound negligible (a/sigma
    # huge whenever this regime is reachable)
    left = mu < 0.0
    a = np.where(left, -mu, mu - 1.0) / sigma
    ia2 = 1.0 / (a * a)
    mean = (sigma / a) * (1.0 - ia2 * (2.0 - ia2 * (10.0 - 74.0 * ia2)))
    var = (sigma / a) ** 2 * (1.0 - ia2 * (6.0 - 50.0 * ia2))
    return np.where(left, mean, 1.0 - mean), np.sqrt(np.maximum(var, 0.0))


# indexed by the codes that `_regime` returns
_EVALUATORS = (_gl_moments, _closed_moments, _tail_moments)
QUADRATURE, CLOSED, TAIL = range(3)


def _regime(mu: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluator of each element, and its truncation mass off the quadrature.

    Quadrature where the density is smooth on the unit interval, closed
    forms for narrow densities, and a tail expansion when the parent is so
    remote that the mass underflows. A subnormal mass counts as underflow:
    its few significant bits make the closed-form mean jump about, and the
    tail expansion is exact there.
    """
    dist = np.maximum(0.0, np.maximum(-mu, mu - 1.0))
    quad = (sigma >= _GL_SIGMA) & (sigma * sigma >= _GL_MIN_LAYER * dist)
    regime = np.where(quad, QUADRATURE, CLOSED)
    z = np.zeros(mu.shape)
    off = ~quad
    if off.any():
        a = (0.0 - mu[off]) / sigma[off]
        b = (1.0 - mu[off]) / sigma[off]
        # each mass from the tail it lies in, so it keeps its digits far out
        upper = a > 0.0
        lo, hi = np.where(upper, a, -b), np.where(upper, b, -a)
        z[off] = mass = 0.5 * (_erfc(lo / _SQRT2) - _erfc(hi / _SQRT2)).astype(np.float64)
        regime[off] = np.where(mass < sys.float_info.min, TAIL, CLOSED)
    return regime, z


def _moments(mu: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of the [0, 1]-truncated normal, per element
    of the 1-D arrays mu and sigma; each element takes the evaluator that
    `_regime` picks for it, so it does not depend on the other elements."""
    regime, z = _regime(mu, sigma)
    if mu.size and (regime == regime[0]).all():
        return _EVALUATORS[regime[0]](mu, sigma, z)
    mean, std = np.empty(mu.shape), np.empty(mu.shape)
    for code, evaluate in enumerate(_EVALUATORS):
        sel = regime == code
        if sel.any():
            mean[sel], std[sel] = evaluate(mu[sel], sigma[sel], z[sel])
    return mean, std


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
    raise Unconverged(f"mu iteration did not converge for sigma={sigma[i]}, r={r[i]}")


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

    grow = np.flatnonzero(f_lo < 0.0)
    for _ in range(max_iter):
        if not grow.size:
            break
        f = f_hi[grow] = evaluate(grow, hi[grow])
        short = f < 0.0
        capped = short & (hi[grow] == SIGMA_MAX)
        sigma[grow[capped]] = SIGMA_MAX
        up = grow[short & ~capped]
        lo[up], f_lo[up] = hi[up], f_hi[up]
        hi[up] = np.minimum(4.0 * hi[up], SIGMA_MAX)
        grow = up
    if grow.size:
        raise Unconverged(f"sigma bracket did not close for (r, t) = ({r[grow[0]]}, {t[grow[0]]})")

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
        raise Unconverged(f"sigma search did not converge for (r, t) = ({r[i]}, {t[i]})")

    if bracketed.size:
        evaluate(bracketed, sigma[bracketed])
    return mu, sigma, mean, std


# numpy's SIMD log and exp may differ from libm's in the last bit; these
# keep the scalar functions, value for value
_log_ndtr_c_array = np.frompyfunc(_log_ndtr_c, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)
_expm1 = np.frompyfunc(math.expm1, 1, 1)


def _bin_masses(mu: np.ndarray, sigma: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized probability masses of the n equal bins of [0, 1], one
    row per element of the 1-D arrays mu and sigma."""
    xi = (np.arange(n + 1) / n - mu[:, None]) / sigma[:, None]
    lo, hi = xi[:, :-1], xi[:, 1:]
    # each bin from the tail it lies in; a bin straddling 0 takes the lower
    # tail (halving is exact either way)
    upper = lo >= 0.0
    near, far = np.where(upper, lo, -hi), np.where(upper, hi, -lo)
    masses = 0.5 * (_erfc(near / _SQRT2).astype(np.float64) - _erfc(far / _SQRT2).astype(np.float64))
    tail = masses.sum(axis=1) == 0.0
    if tail.any():
        # the whole support sits in one far tail of the parent: log tail
        # probabilities relative to the heaviest bin boundary; a parent
        # above 0.5 is mirrored, so its mass hugs 1 and the reference is the
        # last boundary
        mirror = (mu[tail] > 0.5)[:, None]
        ls = _log_ndtr_c_array(np.where(mirror, -xi[tail], xi[tail])).astype(np.float64)
        heavy = np.where(mirror, ls[:, 1:], ls[:, :-1])
        light = np.where(mirror, ls[:, :-1], ls[:, 1:])
        ref = np.where(mirror[:, 0], ls[:, -1], ls[:, 0])[:, None]
        masses[tail] = _exp(heavy - ref).astype(np.float64) * -_expm1(light - heavy).astype(np.float64)
    return masses


def generate_weights_batch(points, n: int) -> tuple[np.ndarray, dict[int, NoSolution | InfeasibleStrategy]]:
    """Order weights for every point, as the rows of one (len(points), n)
    array, and the error of each point that has none, keyed by its index in
    points and in ascending order; such a point's row holds nan.

    A point outside the unit square raises OutOfUnitSquare. A point above
    the parabola gets an InfeasibleStrategy. The zero-trade-off points and
    the vertex need no moment matching: (0, 0) puts all weight on the worst
    criterion, (1, 0) on the best, and (0.5, 1) is exactly uniform (order
    weights cancel there, so any deviation would be noise); other points
    with t <= T_DEGENERATE get a unit mass on the bin containing r. The
    rest are solved in one array pass (see `_solve_sigma`); a point whose
    solved moments miss (r, t/sqrt(12)) by more than MOMENT_TOL gets a
    NoSolution. No result is clamped silently.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 weights, got {n}")
    r = np.array([p.r for p in points], dtype=np.float64)
    t = np.array([p.t for p in points], dtype=np.float64)
    outside = ~((0.0 <= r) & (r <= 1.0) & (0.0 <= t) & (t <= 1.0))
    if outside.any():
        p = points[int(np.argmax(outside))]
        raise OutOfUnitSquare(f"(r, t) = ({p.r}, {p.t}) outside the unit square")
    W = np.full((len(points), n), np.nan)
    failures = {}
    under = t <= 4.0 * r * (1.0 - r) + FEAS_EPS
    for i in np.flatnonzero(~under):
        p = points[i]
        failures[int(i)] = InfeasibleStrategy(f"(r, t) = ({p.r}, {p.t}) outside the strategy space")

    # a feasible point with r = 0 or r = 1 has t <= FEAS_EPS, so the
    # corners take the unit-mass rule too
    flat = np.flatnonzero(under & (t <= T_DEGENERATE))
    W[flat] = 0.0
    W[flat, np.minimum((r[flat] * n).astype(np.int64), n - 1)] = 1.0
    vertex = (r == 0.5) & (t == 1.0)
    W[vertex] = 1.0 / n

    solve = np.flatnonzero(under & (t > T_DEGENERATE) & ~vertex)
    if solve.size:
        mu, sigma, mean, std = _solve_sigma(r[solve], t[solve])
        target = t[solve] / SQRT12
        missed = (np.abs(mean - r[solve]) > MOMENT_TOL) | (np.abs(std - target) > MOMENT_TOL)
        for k in np.flatnonzero(missed):
            p = points[solve[k]]
            failures[int(solve[k])] = NoSolution(
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
        raise ValueError(f"need m >= 1 design points, got {m}")
    rng = np.random.default_rng(seed)
    points: list[DecisionPoint] = []
    proposals = 0
    while len(points) < m:
        r = rng.random()
        t = rng.random()
        proposals += 1
        if t <= 4.0 * r * (1.0 - r) + FEAS_EPS:
            points.append(DecisionPoint(r, t))
    return ExperimentalDesign(points=tuple(points), seed=seed, m=m, n_proposals=proposals)
