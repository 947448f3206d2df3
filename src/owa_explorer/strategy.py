"""Decision-strategy space: feasibility, order-weight generation, sampling.

A decision strategy is a point (r, t): r is the risk appetite (0 = weight
on the worst criterion value, 1 = weight on the best), t the trade-off
(dispersion of the order weights, 1 = uniform weights). Feasible points lie
under the parabola t = 4r(1-r).

Order weights for a feasible point come from a normal distribution
truncated to [0, 1], chosen so that its mean equals r and its standard
deviation equals t/sqrt(12); t = 1 at r = 0.5 then reproduces the uniform
density (std 1/sqrt(12)) and t = 0 collapses to a point mass. The density
is discretized into n bins to yield the weight vector.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSigma,
    InfeasibleStrategy,
    NoSolution,
    OutOfUnitSquare,
    Unconverged,
)

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
class TruncatedNormalSpec:
    """Parent normal location/scale for a distribution truncated to [0, 1]."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.sigma <= SIGMA_MAX):
            raise DegenerateSigma(f"sigma must be in (0, {SIGMA_MAX:g}], got {self.sigma}")


@dataclass(frozen=True)
class OrderWeights:
    """Non-negative order weights summing to 1; first weight applies to the
    smallest criterion value at a pixel."""

    w: np.ndarray
    provenance: DecisionPoint | None = None

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

    def __len__(self) -> int:
        return self.w.size


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


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _log_ndtr_c(x: float) -> float:
    """log P(N(0,1) > x), valid for any x, asymptotic beyond erfc range."""
    if x < 36.0:
        return math.log(0.5 * math.erfc(x / _SQRT2))
    ix2 = 1.0 / (x * x)
    tail = -ix2 * (1.0 - ix2 * (3.0 - 15.0 * ix2))
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log1p(tail)


def _tail_moments(a: float, sigma: float) -> tuple[float, float]:
    # mass concentrated against the lower bound; conditional distribution is
    # exponential-like with rate a/sigma, upper bound negligible (a/sigma huge
    # whenever this branch is reachable)
    ia2 = 1.0 / (a * a)
    mean = (sigma / a) * (1.0 - ia2 * (2.0 - ia2 * (10.0 - 74.0 * ia2)))
    var = (sigma / a) ** 2 * (1.0 - ia2 * (6.0 - 50.0 * ia2))
    return mean, math.sqrt(max(var, 0.0))


def _gl_moments(mu: float, sigma: float) -> tuple[float, float]:
    xi = (_GL_X - mu) / sigma
    e = 0.5 * xi * xi
    w = np.exp(e.min() - e) * _GL_W
    m0 = w.sum()
    mean = float((w * _GL_X).sum() / m0)
    var = float((w * (_GL_X - mean) ** 2).sum() / m0)
    return mean, math.sqrt(max(var, 0.0))


def _closed_moments(mu: float, sigma: float) -> tuple[float, float] | None:
    """Standard phi/Phi closed forms; None when the truncation mass underflows.

    A subnormal mass counts as underflow: its few significant bits make the
    mean jump about, and the tail expansion is exact there.
    """
    a = (0.0 - mu) / sigma
    b = (1.0 - mu) / sigma
    if a > 0.0:
        z = 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
    elif b < 0.0:
        z = 0.5 * (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2))
    else:
        z = _ndtr(b) - _ndtr(a)
    if z < sys.float_info.min:
        return None
    pa, pb = _phi(a), _phi(b)
    d = (pa - pb) / z
    mean = mu + sigma * d
    var = sigma * sigma * (1.0 + (a * pa - b * pb) / z - d * d)
    return mean, math.sqrt(max(var, 0.0))


def _moments(mu: float, sigma: float) -> tuple[float, float]:
    dist = max(0.0, -mu, mu - 1.0)
    if sigma >= _GL_SIGMA and (dist == 0.0 or sigma * sigma / dist >= _GL_MIN_LAYER):
        return _gl_moments(mu, sigma)
    closed = _closed_moments(mu, sigma)
    if closed is not None:
        return closed
    if mu < 0.0:
        return _tail_moments(-mu / sigma, sigma)
    mean, std = _tail_moments((mu - 1.0) / sigma, sigma)
    return 1.0 - mean, std


def truncnorm_moments(spec: TruncatedNormalSpec) -> tuple[float, float]:
    """Exact mean and standard deviation of the [0, 1]-truncated normal.

    Three evaluation regimes keep full precision everywhere the parameter
    box can reach: quadrature where the density is smooth on the unit
    interval, closed forms for narrow densities, and a tail expansion when
    the parent is so remote that the truncation mass underflows.
    """
    return _moments(spec.mu, spec.sigma)


def _solve_mu(sigma: float, r: float, mu: float, max_iter: int = 200) -> float:
    """Safeguarded Newton on mu, from `mu`, for truncated mean == r.

    With sigma fixed, mu/sigma^2 is the natural parameter of x, so the
    mean's slope in mu is var/sigma^2, exact from the same evaluation. The
    mean is non-decreasing in mu, so every evaluation also narrows the
    bracket [MU_LO, MU_HI]; a step that leaves it, or a zero slope, falls
    back to bisection.
    """
    lo, hi = MU_LO, MU_HI
    for _ in range(max_iter):
        mean, std = _moments(mu, sigma)
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


def solve_generating_distribution(p: DecisionPoint, max_iter: int = 200) -> TruncatedNormalSpec:
    """Find (mu, sigma) whose truncated moments are (r, t/sqrt(12)).

    The outer loop bisects sigma toward the target standard deviation; at
    each sigma a safeguarded Newton step re-solves mu for the target mean,
    warm-started from the mu of the previous sigma. Raises NoSolution when
    no parameters inside the search box meet both targets within 1e-6;
    the result is never clamped silently.
    """
    if not feasible(p):
        raise InfeasibleStrategy(f"(r, t) = ({p.r}, {p.t}) outside the strategy space")
    if not (0.0 < p.r < 1.0) or p.t <= 0.0:
        raise InfeasibleStrategy(
            f"moment matching needs 0 < r < 1 and t > 0, got ({p.r}, {p.t})"
        )
    target = p.t / SQRT12
    mu = p.r

    def std_at(sigma: float) -> float:
        nonlocal mu
        mu = _solve_mu(sigma, p.r, mu, max_iter)
        return _moments(mu, sigma)[1]

    if std_at(SIGMA_MIN) >= target:
        sigma = SIGMA_MIN
    elif std_at(SIGMA_MAX) <= target:
        sigma = SIGMA_MAX
    else:
        lo, hi = SIGMA_MIN, SIGMA_MAX
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if std_at(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * (1.0 + hi):
                break
        else:
            raise Unconverged(f"sigma bisection did not converge for (r, t) = ({p.r}, {p.t})")
        sigma = 0.5 * (lo + hi)

    mu = _solve_mu(sigma, p.r, mu, max_iter)
    spec = TruncatedNormalSpec(mu, sigma)
    mean, std = _moments(mu, sigma)
    if abs(mean - p.r) > MOMENT_TOL or abs(std - target) > MOMENT_TOL:
        raise NoSolution(
            f"(r, t) = ({p.r}, {p.t}): best match has mean {mean:.8f} (target {p.r}), "
            f"std {std:.8f} (target {target:.8f})"
        )
    return spec


def _bin_masses(spec: TruncatedNormalSpec, n: int) -> np.ndarray:
    """Unnormalized probability masses of the n equal bins of [0, 1]."""
    mu, sigma = spec.mu, spec.sigma
    xi = [((j / n) - mu) / sigma for j in range(n + 1)]
    masses = np.empty(n)
    for j in range(n):
        lo, hi = xi[j], xi[j + 1]
        if lo >= 0.0:
            masses[j] = 0.5 * (math.erfc(lo / _SQRT2) - math.erfc(hi / _SQRT2))
        elif hi <= 0.0:
            masses[j] = 0.5 * (math.erfc(-hi / _SQRT2) - math.erfc(-lo / _SQRT2))
        else:
            masses[j] = _ndtr(hi) - _ndtr(lo)
    total = masses.sum()
    if total > 0.0 and math.isfinite(total):
        return masses
    # whole support sits in one far tail of the parent: work with log tail
    # probabilities relative to the heaviest bin boundary
    if mu > 0.5:  # mass hugs 1: mirror, reuse the left-tail path
        ls = [_log_ndtr_c(-x) for x in xi]  # log P(parent < boundary)
        ref = ls[n]
        for j in range(n):
            masses[j] = math.exp(ls[j + 1] - ref) * -math.expm1(ls[j] - ls[j + 1])
    else:
        ls = [_log_ndtr_c(x) for x in xi]  # log P(parent > boundary)
        ref = ls[0]
        for j in range(n):
            masses[j] = math.exp(ls[j] - ref) * -math.expm1(ls[j + 1] - ls[j])
    return masses


def discretize(spec: TruncatedNormalSpec, n: int, provenance: DecisionPoint | None = None) -> OrderWeights:
    """Order weights as truncated-CDF increments over n equal bins."""
    if n < 2:
        raise ValueError(f"need n >= 2 bins, got {n}")
    masses = _bin_masses(spec, n)
    return OrderWeights(masses / masses.sum(), provenance=provenance)


def generate_weights(p: DecisionPoint, n: int) -> OrderWeights:
    """Order weights for a feasible (risk, trade-off) point.

    The three corner strategies are exact: (0, 0) puts all weight on the
    worst criterion, (1, 0) on the best, and (0.5, 1) is exactly uniform
    (order weights cancel there, so any deviation would be noise). Other
    zero-trade-off points get a unit mass on the bin containing r; the rest
    go through moment matching and discretization.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 weights, got {n}")
    if not feasible(p):
        raise InfeasibleStrategy(f"(r, t) = ({p.r}, {p.t}) outside the strategy space")
    if p.r == 0.0:
        w = np.zeros(n)
        w[0] = 1.0
        return OrderWeights(w, provenance=p)
    if p.r == 1.0:
        w = np.zeros(n)
        w[-1] = 1.0
        return OrderWeights(w, provenance=p)
    if p.r == 0.5 and p.t == 1.0:
        return OrderWeights(np.full(n, 1.0 / n), provenance=p)
    if p.t <= T_DEGENERATE:
        w = np.zeros(n)
        w[min(int(p.r * n) + 1, n) - 1] = 1.0
        return OrderWeights(w, provenance=p)
    spec = solve_generating_distribution(p)
    return discretize(spec, n, provenance=p)


def empirical_risk(weights: OrderWeights) -> float:
    """Mass-weighted mean of the bin midpoints; diagnostic estimate of r."""
    n = len(weights)
    mids = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return float(weights.w @ mids)


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
