"""Closed-form reachable frontier of the strategy space, and seed scans.

The truncated-normal family that generates order weights cannot reach the
whole parabola t <= 4r(1-r). Its closure is bounded by the truncated
exponential on [0, 1]: with the rate lambda chosen so that the mean is r,
the largest reachable trade-off is t_max(r) = sqrt(12) * sd(lambda(r)).
Everything here is numpy on the benchmark's side; the program's solver is
never called, so the frontier is an independent reference for it.
"""

from __future__ import annotations

import numpy as np

SQRT12 = np.sqrt(12.0)
# The solver's mu box loses a thin band below the frontier (std 0.05626
# reached at r = 0.9437 against a limit of 0.05632); 1e-3 in t covers it.
MARGIN = 1e-3
_SERIES_BELOW = 1e-3
_MAX_SCAN = 100_000


def _exp_moments(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the density ~ exp(lam x) on [0, 1], lam >= 0."""
    lam = np.asarray(lam, dtype=np.float64)
    small = lam < _SERIES_BELOW
    safe = np.where(small, 1.0, lam)
    em1 = -np.expm1(-safe)  # 1 - e^-lam, no cancellation
    mean = 1.0 / em1 - 1.0 / safe
    var = 1.0 / safe**2 - np.exp(-safe) / em1**2
    l2 = lam * lam
    mean_s = 0.5 + lam / 12.0 - lam * l2 / 720.0
    var_s = 1.0 / 12.0 - l2 / 240.0 + l2 * l2 / 6048.0
    return np.where(small, mean_s, mean), np.where(small, var_s, var)


def t_max(r) -> np.ndarray:
    """Largest trade-off any truncated normal with mean r can reach."""
    r = np.asarray(r, dtype=np.float64)
    target = np.maximum(r, 1.0 - r)  # the frontier is symmetric about 1/2
    lo = np.full(target.shape, np.log(1e-12))
    hi = np.full(target.shape, np.log(1e15))
    for _ in range(120):  # bisection on log(lambda); the mean rises with lambda
        mid = 0.5 * (lo + hi)
        below = _exp_moments(np.exp(mid))[0] < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    var = _exp_moments(np.exp(0.5 * (lo + hi)))[1]
    return SQRT12 * np.sqrt(np.maximum(var, 0.0))


def classify(r, t) -> np.ndarray:
    """Per point: 1 reachable with margin, -1 beyond the frontier, 0 the band."""
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    limit = t_max(r)
    return np.where(t <= limit - MARGIN, 1, np.where(t > limit, -1, 0))


def reachable_design_seed(sample_design, m: int, seed: int) -> tuple[int, int]:
    """First seed >= `seed` whose design lies wholly inside the frontier
    minus the margin; returns (chosen seed, seeds skipped)."""
    for s in range(seed, seed + _MAX_SCAN):
        design = sample_design(m, s)
        r = np.array([p.r for p in design.points])
        t = np.array([p.t for p in design.points])
        if (classify(r, t) == 1).all():
            return s, s - seed
    raise RuntimeError(f"no reachable design of {m} points in seeds {seed}..{seed + _MAX_SCAN - 1}")
