import math
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    CLOSED,
    QUADRATURE,
    TAIL,
    bin_masses_scalar,
    discretize_scalar,
    empirical_risk,
    quad_truncnorm_moments,
    scalar_moments,
    scalar_solve,
    solve_bisect,
    solve_mu_bisect,
)
from owa_explorer import strategy
from owa_explorer.errors import ConfigError, DataError, NumericalError
from owa_explorer.strategy import (
    MOMENT_TOL,
    MU_HI,
    MU_LO,
    SIGMA_MAX,
    SIGMA_MIN,
    SQRT12,
    DecisionPoint,
    ExperimentalDesign,
    OrderWeights,
    generate_weights,
    generate_weights_batch,
    sample_design,
)

UNIFORM_STD = 1.0 / SQRT12  # 0.288675...


def _feasible(p):
    """Whether a design may hold p: in the unit square, under the parabola t <= 4r(1-r)."""
    try:
        ExperimentalDesign(points=(p,))
    except DataError as exc:
        assert str(exc).startswith(f"design point 0 (r={p.r}, t={p.t}) outside the strategy space;"), exc
        return False
    return True


def test_feasible_vertex_and_boundary():
    assert _feasible(DecisionPoint(0.5, 1.0))
    assert _feasible(DecisionPoint(0.2, 0.64))  # exactly on the parabola
    assert not _feasible(DecisionPoint(0.2, 0.65))


def test_feasible_rejects_out_of_square():
    # outside the unit square is outside the strategy space, nan included,
    # and so is a hair past an edge where the parabola's FEAS_EPS would admit it
    for r, t in [(-0.1, 0.5), (0.5, 1.1), (-1e-14, 0.0), (0.5, 1.0 + 1e-13), (math.nan, 0.5), (0.5, math.nan)]:
        assert not _feasible(DecisionPoint(r, t)), (r, t)


def _moments_of(*pairs):
    """Truncated mean and std of each (mu, sigma), from the array moments."""
    return strategy._moments(np.array([mu for mu, _ in pairs]), np.array([sigma for _, sigma in pairs]))


def _solve(*points):
    """(mu, sigma) of each point, from the array solve."""
    mu, sigma, _, _ = strategy._solve_sigma(np.array([p.r for p in points]), np.array([p.t for p in points]))
    return list(zip(mu.tolist(), sigma.tolist()))


def _weights_of(mu, sigma, n):
    """Order weights of one (mu, sigma): its array bin masses over their
    sum, as generate_weights_batch forms every solved row."""
    masses = strategy._bin_masses(np.array([mu]), np.array([sigma]), n)
    return (masses / masses.sum(axis=1, keepdims=True))[0]


def test_moments_symmetric_mean():
    for sigma in (0.05, 0.3, 2.0, 1000.0):
        (mean,), _ = _moments_of((0.5, sigma))
        assert mean == pytest.approx(0.5, abs=1e-14)


def test_moments_uniform_limit():
    _, (std,) = _moments_of((0.5, 1000.0))
    assert std == pytest.approx(UNIFORM_STD, abs=1e-6)


def test_moments_standard_normal_case():
    (mean,), _ = _moments_of((0.0, 1.0))
    # (phi(0) - phi(1)) / (Phi(1) - Phi(0))
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    Phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2))
    expected = (phi(0.0) - phi(1.0)) / (Phi(1.0) - Phi(0.0))
    assert mean == pytest.approx(expected, abs=1e-12)
    assert mean == pytest.approx(0.45986, abs=1e-5)


@pytest.mark.parametrize(
    "mu,sigma",
    [
        (0.5, 0.1), (0.5, 1000.0), (0.0, 1.0), (0.3, 0.05), (-2.0, 0.5),
        (1.5, 0.3), (-10.0, 2.0), (0.9, 0.02), (-0.5, 0.02), (51.0, 20.0),
        (-50.0, 100.0), (0.2, 0.029), (0.2, 0.031), (-5.0, 0.1), (11.0, 0.31),
    ],
)
def test_moments_match_quadrature(mu, sigma):
    (mean,), (std,) = _moments_of((mu, sigma))
    qmean, qstd = quad_truncnorm_moments(mu, sigma)
    assert mean == pytest.approx(qmean, abs=1e-10)
    assert std == pytest.approx(qstd, abs=1e-10)


def test_solve_vertex_is_uniform_limit():
    ((mu, sigma),) = _solve(DecisionPoint(0.5, 1.0))
    assert sigma >= 100.0
    assert mu == pytest.approx(0.5, abs=1e-3)
    (mean,), (std,) = _moments_of((mu, sigma))
    assert mean == pytest.approx(0.5, abs=1e-6)
    assert std == pytest.approx(UNIFORM_STD, abs=1e-6)


def test_solve_half_tradeoff():
    (spec,) = _solve(DecisionPoint(0.5, 0.5))
    qmean, qstd = quad_truncnorm_moments(*spec)
    assert qmean == pytest.approx(0.5, abs=1e-6)
    assert qstd == pytest.approx(0.5 / SQRT12, abs=1e-6)
    assert qstd == pytest.approx(0.14434, abs=1e-5)


def test_solve_point_three():
    (spec,) = _solve(DecisionPoint(0.3, 0.3))
    qmean, qstd = quad_truncnorm_moments(*spec)
    assert qmean == pytest.approx(0.3, abs=1e-6)
    assert qstd == pytest.approx(0.08660, abs=1e-5)


@pytest.mark.parametrize(
    "r, t",
    [(0.9338054820543983, 0.09406309126944601), (0.35848448327760674, 0.09715341003347766)],
)
def test_solve_interior_points_near_subnormal_mass(r, t):
    # the bisection passes parents so remote that the truncation mass is
    # subnormal; the mean must stay accurate there or the solve lands astray
    (mean,), (std,) = _moments_of(*_solve(DecisionPoint(r, t)))
    assert mean == pytest.approx(r, abs=1e-9)
    assert std == pytest.approx(t / SQRT12, abs=1e-9)


@pytest.mark.parametrize("sigma", [1e-3, 0.028, 0.03, 0.3])
def test_moments_mean_non_decreasing_in_mu(sigma):
    # the bracket of `_solve_mu` relies on it
    mus = np.linspace(MU_LO, MU_HI, 20001)
    means = strategy._moments(mus, np.full(mus.shape, sigma))[0]
    assert (np.diff(means) >= 0.0).all()


# the seams of the three regimes (quadrature, closed forms, tail expansion)
# that evaluated the moments before they took one rule, each point named by
# the regime that `scalar_moments` still evaluates it in
_SEAMS = [
    (0.5, 0.1, "_gl_moments"), (0.3, 1.0, "_gl_moments"), (0.5, SIGMA_MAX, "_gl_moments"),
    (51.0, 20.0, "_gl_moments"), (-50.0, 100.0, "_gl_moments"), (-5.0, 0.1, "_gl_moments"),
    # either side of the sigma = 0.03 seam
    (0.2, 0.03, "_gl_moments"), (0.2, 0.0299, "_closed_moments"),
    # either side of the boundary-layer seam (sigma^2 / distance = 1e-3 at mu = -0.90601)
    (-0.905, 0.0301, "_gl_moments"), (-0.907, 0.0301, "_closed_moments"),
    (0.3, 0.01, "_closed_moments"), (0.7, SIGMA_MIN, "_closed_moments"),
    (-1e-5, SIGMA_MIN, "_closed_moments"), (-1.0, 0.031, "_closed_moments"),
    (1.5, 0.02, "_closed_moments"),
    # either side of the subnormal-mass seam (a = -mu/sigma ~ 37.5)
    (-0.37, 0.01, "_closed_moments"), (-0.38, 0.01, "_tail_moments"),
    (-2.0, 0.04, "_tail_moments"), (1.5, 0.01, "_tail_moments"), (-0.5, SIGMA_MIN, "_tail_moments"),
]
_REGIMES = {"_gl_moments": QUADRATURE, "_closed_moments": CLOSED, "_tail_moments": TAIL}


@pytest.mark.parametrize("mu, sigma, regime", _SEAMS)
def test_mean_slope_in_mu_is_var_over_sigma_squared(mu, sigma, regime):
    # with sigma fixed, mu / sigma^2 is the natural parameter of x, so
    # d mean / d mu = var / sigma^2; the Newton step on mu relies on it
    h = 1e-3 * sigma
    assert [scalar_moments(m, sigma)[2] for m in (mu - h, mu, mu + h)] == [_REGIMES[regime]] * 3
    mean, std = strategy._moments(np.array([mu - h, mu, mu + h]), np.full(3, sigma))
    slope = (mean[2] - mean[0]) / (2.0 * h)
    assert slope == pytest.approx((std[1] / sigma) ** 2, rel=1e-5)


def _mp_moments(mp, mu, sigma):
    """Truncated mean and std on [0, 1] from the phi/Phi closed forms in
    100-digit arithmetic, each mass from the tail it lies in; the variance
    cancels ~2 log10(|mu| / sigma) digits of them."""
    with mp.workdps(100):
        mu, sigma = mp.mpf(mu), mp.mpf(sigma)
        a, b = -mu / sigma, (1 - mu) / sigma
        if a > 0:
            z = (mp.erfc(a / mp.sqrt(2)) - mp.erfc(b / mp.sqrt(2))) / 2
        elif b < 0:
            z = (mp.erfc(-b / mp.sqrt(2)) - mp.erfc(-a / mp.sqrt(2))) / 2
        else:
            z = 1 - (mp.erfc(-a / mp.sqrt(2)) + mp.erfc(b / mp.sqrt(2))) / 2
        pa, pb = mp.npdf(a), mp.npdf(b)
        d = (pa - pb) / z
        var = sigma**2 * (1 + (a * pa - b * pb) / z - d * d)
        return float(mu + sigma * d), float(mp.sqrt(var))


def test_moments_deep_tail_against_mpmath():
    # parents far outside [0, 1], where the density on it is one steep exponential
    mp = pytest.importorskip("mpmath")
    mu, sigma = np.array([[-50.0, 0.5], [-50.0, 0.2], [-5.0, 0.05], [41.0, 0.5], [-30.0, 0.6]]).T
    mean, std = strategy._moments(mu, sigma)
    ref_mean, ref_std = np.array([_mp_moments(mp, m, s) for m, s in zip(mu.tolist(), sigma.tolist())]).T
    assert np.abs(mean / ref_mean - 1.0).max() <= 1e-12
    assert np.abs(std / ref_std - 1.0).max() <= 1e-11


def test_moments_match_mpmath():
    # the former seams and 400 random points: half over the whole box, half
    # with mu in [-1, 2], where the former regimes met
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    mu = np.concatenate([[m for m, _, _ in _SEAMS], rng.uniform(MU_LO, MU_HI, 200), rng.uniform(-1.0, 2.0, 200)])
    sigma = np.concatenate([[s for _, s, _ in _SEAMS],
                            np.exp(rng.uniform(math.log(SIGMA_MIN), math.log(SIGMA_MAX), 400))])
    mean, std = strategy._moments(mu, sigma)
    ref_mean, ref_std = np.array([_mp_moments(mp, m, s) for m, s in zip(mu.tolist(), sigma.tolist())]).T
    mean_err, std_err = np.abs(mean / ref_mean - 1.0), np.abs(std / ref_std - 1.0)
    print(f"largest relative error: mean {mean_err.max():.3g}, std {std_err.max():.3g}")
    assert mean_err.max() <= 1e-12
    assert std_err.max() <= 1e-11


def test_array_moments_match_scalar_reference():
    # the seam points, half of 1e5 random points over the whole box, and half
    # with mu in [-1, 2], where the reference's three regimes meet. The two
    # evaluators are independent: the reference's closed forms cancel digits
    # of the variance near the subnormal-mass seam and its tail expansion is
    # truncated, so where the two differ most, the array moments must be the
    # ones nearer 100-digit mpmath.
    rng = np.random.default_rng(20)
    half = 50_000
    mu = np.concatenate([[m for m, _, _ in _SEAMS], rng.uniform(MU_LO, MU_HI, half), rng.uniform(-1.0, 2.0, half)])
    log_sigma = rng.uniform(math.log(SIGMA_MIN), math.log(SIGMA_MAX), 2 * half)
    sigma = np.concatenate([[s for _, s, _ in _SEAMS], np.exp(log_sigma)])
    mean, std = strategy._moments(mu, sigma)
    ref_mean, ref_std, ref_regime = np.array([scalar_moments(m, s) for m, s in zip(mu, sigma)]).T
    regime = ref_regime.astype(int)
    assert np.bincount(regime).min() >= 10_000
    assert np.abs(mean - ref_mean).max() <= 5e-13
    rel = np.abs(std - ref_std) / ref_std
    assert rel[regime == QUADRATURE].max() <= 1e-11
    assert rel[regime != QUADRATURE].max() <= 1e-6
    mp = pytest.importorskip("mpmath")
    worst = np.unique(np.concatenate([np.argsort(np.abs(mean - ref_mean))[-20:], np.argsort(rel)[-20:]]))
    for i in worst.tolist():
        mp_mean, mp_std = _mp_moments(mp, float(mu[i]), float(sigma[i]))
        assert abs(mean[i] - mp_mean) <= abs(ref_mean[i] - mp_mean) + 1e-16, (mu[i], sigma[i])
        assert abs(std[i] - mp_std) <= abs(ref_std[i] - mp_std) + 1e-16 * mp_std, (mu[i], sigma[i])


def test_moments_of_an_element_do_not_depend_on_its_batch():
    rng = np.random.default_rng(21)
    mu = np.concatenate([[m for m, _, _ in _SEAMS], rng.uniform(MU_LO, MU_HI, 5000), rng.uniform(-1.0, 2.0, 4980)])
    sigma = np.concatenate([[s for _, s, _ in _SEAMS],
                            np.exp(rng.uniform(math.log(SIGMA_MIN), math.log(SIGMA_MAX), 9980))])
    mean, std = strategy._moments(mu, sigma)
    alone = np.array([strategy._moments(mu[i : i + 1], sigma[i : i + 1]) for i in range(mu.size)])[:, :, 0]
    assert np.array_equal(alone, np.stack([mean, std], axis=1))
    # 3 bins a point: the batch's (point, bin) rows span 30 blocks, and some
    # points straddle two
    masses = strategy._bin_masses(mu, sigma, 3)
    assert masses.size > 20 * strategy._BLOCK_ROWS
    alone = np.concatenate([strategy._bin_masses(mu[i : i + 1], sigma[i : i + 1], 3) for i in range(mu.size)])
    assert np.array_equal(alone, masses)


_MU_SIGMAS = [SIGMA_MIN, 1e-4, 0.01, 0.0299, 0.03, 0.3, 3.0, 300.0, SIGMA_MAX]
_MU_RISKS = [1e-6, 0.01, 0.1, 0.37, 0.5, 0.5000001, 0.63, 0.9, 0.99, 1.0 - 1e-6]


@pytest.mark.parametrize("sigma", _MU_SIGMAS)
def test_solve_mu_matches_bisection_oracle(sigma):
    # one ulp of the mean spans ulp(r) * sigma^2 / var in mu: ~1e-9 at
    # SIGMA_MAX, where either root is as good as the other, and below 1e-12
    # for sigma <= 30
    r = np.array(_MU_RISKS)
    sigmas = np.full(r.shape, sigma)
    ref = solve_mu_bisect(sigmas, r)
    tol = 1e-11 + 4.0 * np.spacing(r) * (sigma / strategy._moments(ref, sigmas)[1]) ** 2
    for start in (r, np.full(r.shape, MU_LO + 1.0), np.full(r.shape, MU_HI - 1.0)):
        mu, mean, std = strategy._solve_mu(sigmas, r, start)
        assert (np.abs(mu - ref) <= tol).all(), (start[0], np.abs(mu - ref) / tol)
        # the moments returned are those of the last evaluation, at most
        # one converged step away from mu
        at_mu = strategy._moments(mu, sigmas)
        assert np.abs(mean - at_mu[0]).max() <= 1e-12
        assert std == pytest.approx(at_mu[1], rel=1e-9)


_ORACLE_POINTS = list(sample_design(1500, 31).points) + [
    DecisionPoint(0.9338054820543983, 0.09406309126944601),
    DecisionPoint(0.35848448327760674, 0.09715341003347766),
]


def test_generate_weights_matches_bisection_oracle():
    # nested plain bisection over arrays, on the same moments
    r = np.array([p.r for p in _ORACLE_POINTS])
    t = np.array([p.t for p in _ORACLE_POINTS])
    mu, sigma, mean, std = solve_bisect(r, t)
    solved = (np.abs(mean - r) <= MOMENT_TOL) & (np.abs(std - t / SQRT12) <= MOMENT_TOL)
    W, failures = generate_weights_batch(_ORACLE_POINTS, 10)
    assert sorted(failures) == np.flatnonzero(~solved).tolist()
    assert all(isinstance(e, NumericalError) and "best match has mean" in str(e) for e in failures.values())
    assert np.isnan(W[~solved]).all()
    worst = max(
        np.abs(w - discretize_scalar(m, s, 10)).max()
        for w, m, s, ok in zip(W, mu, sigma, solved) if ok
    )
    print(f"largest weight difference to the bisection oracle: {worst:.3g}")
    assert worst <= 1e-10


def test_generate_weights_matches_scalar_solve():
    # the solve one point at a time, with a bisection of sigma, as it was
    # before it took arrays; near the uniform limit std is flat to the last
    # bit over a range of sigma, where regula falsi must not crawl
    points = _ORACLE_POINTS[::15] + [DecisionPoint(0.5, 0.999999), DecisionPoint(0.5, 1.0 - 1e-12)]
    W, failures = generate_weights_batch(points, 10)
    worst = 0.0
    for i, (p, w) in enumerate(zip(points, W)):
        spec = scalar_solve(p.r, p.t)
        assert isinstance(failures.get(i), NumericalError) == (spec is None), p
        assert spec is not None or "best match has mean" in str(failures[i])
        if spec is not None:
            worst = max(worst, np.abs(w - discretize_scalar(*spec, 10)).max())
    assert worst <= 1e-10


def test_solve_moment_evaluations_per_point(monkeypatch):
    # counts point-evaluations: the sum of the batch sizes passed to
    # _moments. The solve with a sigma bisection and a Newton step on mu
    # took 229.5 per point here, this one ~24; bisecting log sigma in place
    # of the Illinois step brings back ~90
    evaluated = 0
    moments = strategy._moments

    def counted(mu, sigma):
        nonlocal evaluated
        evaluated += mu.size
        return moments(mu, sigma)

    monkeypatch.setattr(strategy, "_moments", counted)
    points = sample_design(64, 6).points
    generate_weights_batch(points, 10)
    assert evaluated / len(points) <= 229.5 / 3


def test_solve_refuses_infeasible():
    # a point above the parabola has no weights; a zero trade-off needs no
    # moment matching and gets its unit bin
    W, failures = generate_weights_batch([DecisionPoint(0.1, 0.9), DecisionPoint(0.5, 0.0)], 10)
    assert [(i, type(e)) for i, e in failures.items()] == [(0, DataError)]
    assert str(failures[0]) == "(r, t) = (0.1, 0.9) outside the strategy space"
    assert np.isnan(W[0]).all()
    assert W[1].tolist() == [0.0] * 5 + [1.0] + [0.0] * 4


def test_solve_reports_no_solution_near_edge():
    # near the parabola boundary at small r the truncated-normal family
    # cannot reach the requested dispersion; this must surface, not clamp
    _, failures = generate_weights_batch([DecisionPoint(0.05, 0.18)], 10)
    assert isinstance(failures[0], NumericalError)
    assert str(failures[0]).startswith("(r, t) = (0.05, 0.18): best match has mean ")


def test_solve_unconverged_on_tiny_iteration_budget():
    with pytest.raises(NumericalError, match=r"^mu iteration did not converge for sigma=[0-9.e-]+, r=0\.4$"):
        strategy._solve_sigma(np.array([0.4]), np.array([0.5]), max_iter=1)


def _fidelity_sample(m, seed):
    """Feasible points with t >= 0.05 and t <= 0.95 * 4r(1-r)."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < m:
        r, t = rng.random(), rng.random()
        if 0.05 <= t <= 0.95 * 4.0 * r * (1.0 - r):
            pts.append(DecisionPoint(r, t))
    return pts


def test_moment_fidelity_sampled():
    points = _fidelity_sample(40, seed=1)
    for p, mean, std in zip(points, *_moments_of(*_solve(*points))):
        assert abs(mean - p.r) <= 1e-6
        assert abs(std - p.t / SQRT12) <= 1e-6


def test_discretize_uniform_limit():
    w = _weights_of(0.5, 1000.0, 10)
    assert np.abs(w - 0.1).max() <= 1e-3


def test_discretize_concentrated():
    w = _weights_of(0.05, 0.01, 10)
    assert w[0] >= 0.999999
    assert w[1:].sum() <= 1e-6


def test_discretize_sums_to_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        mu = rng.uniform(-3.0, 4.0)
        sigma = rng.uniform(1e-3, 50.0)
        w = _weights_of(mu, sigma, int(rng.integers(2, 15)))
        assert abs(w.sum() - 1.0) <= 1e-12
        assert (w >= 0).all()


def test_discretize_deep_tail():
    # parent far below the interval: nearly all mass in the first bin,
    # still normalized and finite
    w = _weights_of(-40.0, 0.8, 10)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w[0] > 0.9
    w = _weights_of(41.0, 0.8, 10)
    assert w[-1] > 0.9


def _mp_weights(mp, mu, sigma, n):
    """Normalized masses of the n bins of [0, 1] between the edges j / n as
    doubles, from erfc in 100-digit arithmetic: each bin from the tail on
    its far side of mu, so that no difference cancels."""
    with mp.workdps(100):
        mu, scale = mp.mpf(mu), mp.mpf(sigma) * mp.sqrt(2)
        edges = [mp.mpf(j / n) for j in range(n + 1)]
        masses = []
        for a, b in zip(edges, edges[1:]):
            if a >= mu:
                masses.append(mp.erfc((a - mu) / scale) - mp.erfc((b - mu) / scale))
            elif b <= mu:
                masses.append(mp.erfc((mu - b) / scale) - mp.erfc((mu - a) / scale))
            else:
                masses.append(2 - mp.erfc((mu - a) / scale) - mp.erfc((b - mu) / scale))
        total = sum(masses)
        return np.array([float(x / total) for x in masses])


@pytest.mark.parametrize("n", [2, 3, 10, 17])
def test_bin_masses_match_mpmath(n):
    # the search box's edges; wide densities, whose erfc differences cancel;
    # point masses astride a bin edge; and far tails, whose light bins lie
    # 1e-290 to 1e-200 below the heavy one
    mp = pytest.importorskip("mpmath")
    astride = [(j / n + k * SIGMA_MIN, SIGMA_MIN) for j in (1, n // 2) for k in (-0.4, 0.0, 0.1, 2.0)]
    pairs = astride + [
        (MU_LO, 0.5), (MU_HI, 0.5), (-40.0, 0.8), (40.0, 0.8), (41.0, 0.8),
        (MU_LO, SIGMA_MAX), (MU_HI, 500.0), (0.5, SIGMA_MAX), (0.3, 500.0), (0.9, 700.0), (-3.0, 600.0),
        (2.743, 0.0471), (1.2066, 0.006655), (-1.743, 0.0471), (-0.2066, 0.006655), (47.5, 0.12),
    ]
    mu, sigma = np.array(pairs).T
    masses = strategy._bin_masses(mu, sigma, n)
    w = masses / masses.sum(axis=1, keepdims=True)
    ref = np.array([_mp_weights(mp, m, s, n) for m, s in pairs])
    err = np.abs(w - ref)
    rel = err[ref > 1e-290] / ref[ref > 1e-290]
    print(f"largest error: {err.max():.3g} absolute, {rel.max():.3g} relative")
    assert err.max() <= 2e-14
    assert rel.max() <= 2e-12


@pytest.mark.parametrize("n", [2, 3, 10, 17])
def test_bin_masses_match_scalar_reference(n):
    # against the bin-by-bin erfc loop, over the whole search box and the
    # box's edges; about half the pairs sit so far out that the erfc masses
    # sum to less than the smallest normal number and the loop takes log
    # tail probabilities. The two are independent. The loop is off by up to
    # 1.3e-13 on every row (its erfc differences cancel at sigma ~ 1e3); when
    # it normalized subnormal masses it was off by up to 1.1e-3 on a few. Where
    # the two differ most, the array masses must be the nearer to 100-digit mpmath.
    rng = np.random.default_rng(40 + n)
    mu = np.concatenate([[-40.0, 41.0, MU_LO, MU_HI, 0.5, 0.0, 1.0], rng.uniform(MU_LO, MU_HI, 3000)])
    log_sigma = rng.uniform(math.log(SIGMA_MIN), math.log(SIGMA_MAX), 3000)
    sigma = np.concatenate([[0.8, 0.8, 0.5, 0.5, SIGMA_MAX, SIGMA_MIN, SIGMA_MIN], np.exp(log_sigma)])
    ref = np.array([bin_masses_scalar(m, s, n) for m, s in zip(mu.tolist(), sigma.tolist())])
    ref /= ref.sum(axis=1, keepdims=True)
    masses = strategy._bin_masses(mu, sigma, n)
    w = masses / masses.sum(axis=1, keepdims=True)
    near = np.minimum(np.abs(mu), np.abs(mu - 1.0)) / sigma
    outside = (mu < 0.0) | (mu > 1.0)
    assert (outside & (near > 40.0)).sum() >= 1000
    err = np.abs(w - ref)
    assert err.max() <= 2e-13
    mp = pytest.importorskip("mpmath")
    larger = np.maximum(w, ref)
    rel = np.divide(err, larger, out=np.zeros_like(err), where=larger > 1e-290)
    worst = np.unique(np.concatenate([np.argsort(err, axis=None)[-20:], np.argsort(rel, axis=None)[-20:]]))
    for i, j in zip(*np.unravel_index(worst, err.shape)):
        exact = _mp_weights(mp, float(mu[i]), float(sigma[i]), n)[j]
        assert abs(w[i, j] - exact) <= abs(ref[i, j] - exact) + 1e-16 * exact, (mu[i], sigma[i], j)


def test_bin_masses_memory_does_not_grow_with_the_batch():
    # the (point, bin) rows go through in fixed blocks: 5000 points of 10
    # bins take ~4.6 MiB with their 0.4 MB of masses, where one pass over
    # every row took 104 MiB
    rng = np.random.default_rng(41)
    mu, sigma = rng.uniform(-1.0, 2.0, 5000), np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 5000))
    tracemalloc.start()
    try:
        strategy._bin_masses(mu, sigma, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


def test_generate_weights_corners():
    w = generate_weights(DecisionPoint(0.0, 0.0), 10)
    assert w.w.tolist() == [1.0] + [0.0] * 9
    w = generate_weights(DecisionPoint(1.0, 0.0), 10)
    assert w.w.tolist() == [0.0] * 9 + [1.0]


def test_generate_weights_vertex_uniform():
    w = generate_weights(DecisionPoint(0.5, 1.0), 10)
    assert np.abs(w.w - 0.1).max() <= 1e-3
    assert w.w.tolist() == [0.1] * 10


def test_generate_weights_degenerate_bin():
    w = generate_weights(DecisionPoint(0.5, 0.0), 10)
    assert int(np.argmax(w.w)) + 1 == 6
    assert w.w.sum() == 1.0
    # bin edge resolves by the floor(r*n)+1 rule
    w = generate_weights(DecisionPoint(0.3, 0.0), 10)
    assert int(np.argmax(w.w)) + 1 == 4
    w = generate_weights(DecisionPoint(0.97, 0.0), 10)
    assert int(np.argmax(w.w)) + 1 == 10


def test_generate_weights_infeasible():
    with pytest.raises(DataError, match=r"^\(r, t\) = \(0\.2, 0\.65\) outside the strategy space$"):
        generate_weights(DecisionPoint(0.2, 0.65), 10)
    with pytest.raises(DataError, match=r"^\(r, t\) = \(0\.5, 1\.5\) outside the strategy space$"):
        generate_weights(DecisionPoint(0.5, 1.5), 10)


def test_generate_weights_batch_reports_every_point_outside_the_space():
    # nan, outside the unit square and above the parabola: one failure each,
    # in index order, and the feasible point between them still solved
    points = [DecisionPoint(math.nan, 0.5), DecisionPoint(0.3, 0.2), DecisionPoint(0.5, 1.5), DecisionPoint(0.1, 0.9)]
    W, failures = generate_weights_batch(points, 10)
    assert list(failures) == [0, 2, 3] and all(type(exc) is DataError for exc in failures.values())
    assert {i: str(exc) for i, exc in failures.items()} == {
        i: f"(r, t) = ({points[i].r}, {points[i].t}) outside the strategy space" for i in (0, 2, 3)
    }
    assert np.isnan(W[[0, 2, 3]]).all() and W[1].tolist() == generate_weights(points[1], 10).w.tolist()


@pytest.mark.parametrize("call, message", [
    (lambda: generate_weights_batch([DecisionPoint(0.5, 0.5)], 1), "n must be >= 2, got 1"),
    (lambda: generate_weights(DecisionPoint(0.5, 1.5), 0), "n must be >= 2, got 0"),
    (lambda: sample_design(0, 3), "m must be >= 1, got 0"),
    (lambda: sample_design(5, -1), "seed must be >= 0, got -1"),
], ids=["batch n", "n before the point", "m", "seed"])
def test_bounds_raise_config_error(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


def test_empirical_risk_extremes():
    e1, en, uniform = np.eye(10)[0], np.eye(10)[9], np.full(10, 0.1)
    assert empirical_risk(e1) == pytest.approx(0.05, abs=1e-15)
    assert empirical_risk(en) == pytest.approx(0.95, abs=1e-15)
    assert empirical_risk(uniform) == pytest.approx(0.5, abs=1e-12)


def test_discretization_mean_bound():
    n = 10
    for p in _fidelity_sample(25, seed=3):
        w = generate_weights(p, n)
        assert abs(empirical_risk(w.w) - p.r) <= 1.0 / (2 * n) + 1e-6


def test_symmetry_mirrored_weights():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 15:
        r, t = rng.random(), rng.random()
        if not (0.05 <= t <= 4.0 * r * (1.0 - r)):
            continue
        w1 = generate_weights(DecisionPoint(r, t), 10)
        w2 = generate_weights(DecisionPoint(1.0 - r, t), 10)
        assert np.abs(w1.w - w2.w[::-1]).max() <= 1e-9
        checked += 1
    # degenerate path, r*n not on a bin edge
    w1 = generate_weights(DecisionPoint(0.234, 0.0), 10)
    w2 = generate_weights(DecisionPoint(0.766, 0.0), 10)
    assert np.array_equal(w1.w, w2.w[::-1])


def test_monotone_concentration_at_half():
    maxima = []
    for t in np.arange(0.1, 1.01, 0.1):
        w = generate_weights(DecisionPoint(0.5, float(t)), 10)
        maxima.append(w.w.max())
    for a, b in zip(maxima, maxima[1:]):
        assert b <= a + 1e-12


def test_weights_always_valid():
    rng = np.random.default_rng(17)
    count = 0
    while count < 30:
        r, t = rng.random(), rng.random()
        if t > 4.0 * r * (1.0 - r):
            continue
        try:
            w = generate_weights(DecisionPoint(r, t), 7)
        except NumericalError as exc:
            # documented near-boundary slivers
            assert "best match has mean" in str(exc)
            assert t >= 0.85 * 4.0 * r * (1.0 - r)
            continue
        assert (w.w >= 0).all()
        assert abs(w.w.sum() - 1.0) <= 1e-12
        count += 1


def test_order_weights_validation():
    with pytest.raises(ValueError):
        OrderWeights(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        OrderWeights(np.array([-0.1, 1.1]))


def test_order_weights_copy_their_input():
    # the weights are checked once; a later write to the caller's array
    # must not reach them
    a = np.array([0.5, 0.5])
    weights = OrderWeights(a)
    a[0] = 9.0
    assert weights.w.tolist() == [0.5, 0.5]
    assert a.flags.writeable


def test_design_names_every_point_above_the_parabola():
    points = (DecisionPoint(0.1, 0.9), DecisionPoint(0.5, 0.5), DecisionPoint(0.2, 0.65), DecisionPoint(0.2, 0.64))
    with pytest.raises(DataError, match="^design point 0 ") as err:
        ExperimentalDesign(points=points)
    assert str(err.value) == (
        "design point 0 (r=0.1, t=0.9) outside the strategy space; failing design indices: 0, 2"
    )
    # outside the unit square, nan included, fails the same test and is named beside the rest
    points = (DecisionPoint(0.3, 0.2), DecisionPoint(math.nan, 0.5), DecisionPoint(0.5, 1.5), DecisionPoint(0.1, 0.9))
    with pytest.raises(DataError) as err:
        ExperimentalDesign(points=points)
    assert str(err.value) == (
        "design point 1 (r=nan, t=0.5) outside the strategy space; failing design indices: 1, 2, 3"
    )


@pytest.mark.parametrize("m, seed", [(1, 0), (7, 3), (200, 7), (1000, 467)])
def test_sample_design_matches_scalar_draws(m, seed):
    # one (r, t) pair per proposal, drawn as two scalars, accepted under
    # the parabola: the batched draws give the same points and count
    rng = np.random.default_rng(seed)
    points, proposals = [], 0
    while len(points) < m:
        r, t = rng.random(), rng.random()
        proposals += 1
        if t <= 4.0 * r * (1.0 - r) + strategy.FEAS_EPS:
            points.append(DecisionPoint(r, t))
    design = sample_design(m, seed)
    assert design.points == tuple(points)
    assert design.n_proposals == proposals


def test_sample_design_deterministic():
    d1 = sample_design(50, seed=123)
    d2 = sample_design(50, seed=123)
    assert d1.points == d2.points
    assert d1.n_proposals == d2.n_proposals
    assert sample_design(50, seed=124).points != d1.points


def test_sample_design_all_feasible():
    d = sample_design(300, seed=9)
    for p in d.points:
        assert p.t <= 4.0 * p.r * (1.0 - p.r) + 1e-12


def test_sample_design_acceptance_rate():
    d = sample_design(3000, seed=2)
    rate = d.m / d.n_proposals
    assert abs(rate - 2.0 / 3.0) < 0.03
