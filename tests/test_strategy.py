import math

import numpy as np
import pytest

from _oracles import (
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
from owa_explorer.errors import (
    InfeasibleStrategy,
    NoSolution,
    OutOfUnitSquare,
    Unconverged,
)
from owa_explorer.strategy import (
    CLOSED,
    MOMENT_TOL,
    MU_HI,
    MU_LO,
    SIGMA_MAX,
    SIGMA_MIN,
    SQRT12,
    DecisionPoint,
    OrderWeights,
    feasible,
    generate_weights,
    generate_weights_batch,
    sample_design,
)

UNIFORM_STD = 1.0 / SQRT12  # 0.288675...


def test_feasible_vertex_and_boundary():
    assert feasible(DecisionPoint(0.5, 1.0))
    assert feasible(DecisionPoint(0.2, 0.64))  # exactly on the parabola
    assert not feasible(DecisionPoint(0.2, 0.65))


def test_feasible_rejects_out_of_square():
    with pytest.raises(OutOfUnitSquare):
        feasible(DecisionPoint(-0.1, 0.5))
    with pytest.raises(OutOfUnitSquare):
        feasible(DecisionPoint(0.5, 1.1))


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


def test_moments_deep_tail_against_mpmath():
    mp = pytest.importorskip("mpmath")

    def mp_moments(mu, sigma):
        with mp.workdps(80):
            mu_, s_ = mp.mpf(mu), mp.mpf(sigma)
            xpeak = min(max(mu, 0.0), 1.0)
            e0 = ((mp.mpf(xpeak) - mu_) / s_) ** 2 / 2
            w = lambda x: mp.exp(e0 - ((x - mu_) / s_) ** 2 / 2)
            z = mp.quad(w, [0, 1])
            m1 = mp.quad(lambda x: x * w(x), [0, 1]) / z
            m2 = mp.quad(lambda x: (x - m1) ** 2 * w(x), [0, 1]) / z
            return float(m1), float(mp.sqrt(m2))

    mus, sigmas = np.array([[-50.0, 0.5], [-50.0, 0.2], [-5.0, 0.05], [41.0, 0.5], [-30.0, 0.6]]).T
    for mu, sigma, mean, std in zip(mus, sigmas, *strategy._moments(mus, sigmas)):
        rmean, rstd = mp_moments(float(mu), float(sigma))
        assert mean == pytest.approx(rmean, rel=1e-7, abs=1e-12)
        assert std == pytest.approx(rstd, rel=1e-6, abs=1e-12)


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


@pytest.mark.parametrize("sigma", [0.028, 0.03])
def test_moments_mean_non_decreasing_in_mu(sigma):
    mus = np.linspace(MU_LO, MU_HI, 20001)
    means = strategy._moments(mus, np.full(mus.shape, sigma))[0]
    assert (np.diff(means) >= 0.0).all()


_SEAMS = [
    (0.5, 0.1, "_gl_moments"), (0.3, 1.0, "_gl_moments"), (0.5, SIGMA_MAX, "_gl_moments"),
    (51.0, 20.0, "_gl_moments"), (-50.0, 100.0, "_gl_moments"), (-5.0, 0.1, "_gl_moments"),
    # either side of the _GL_SIGMA seam
    (0.2, 0.03, "_gl_moments"), (0.2, 0.0299, "_closed_moments"),
    # either side of the _GL_MIN_LAYER seam (sigma^2 / distance = 1e-3 at mu = -0.90601)
    (-0.905, 0.0301, "_gl_moments"), (-0.907, 0.0301, "_closed_moments"),
    (0.3, 0.01, "_closed_moments"), (0.7, SIGMA_MIN, "_closed_moments"),
    (-1e-5, SIGMA_MIN, "_closed_moments"), (-1.0, 0.031, "_closed_moments"),
    (1.5, 0.02, "_closed_moments"),
    # either side of the subnormal-mass seam (a = -mu/sigma ~ 37.5)
    (-0.37, 0.01, "_closed_moments"), (-0.38, 0.01, "_tail_moments"),
    (-2.0, 0.04, "_tail_moments"), (1.5, 0.01, "_tail_moments"), (-0.5, SIGMA_MIN, "_tail_moments"),
]


def _regime_code(name):
    """The `_regime` code of the evaluator named `name`."""
    return strategy._EVALUATORS.index(getattr(strategy, name))


@pytest.mark.parametrize("mu, sigma, regime", _SEAMS)
def test_mean_slope_in_mu_is_var_over_sigma_squared(mu, sigma, regime):
    # with sigma fixed, mu / sigma^2 is the natural parameter of x, so
    # d mean / d mu = var / sigma^2; the Newton step on mu relies on it
    h = 1e-3 * sigma
    mus, sigmas = np.array([mu - h, mu, mu + h]), np.full(3, sigma)
    assert strategy._regime(mus, sigmas)[0].tolist() == [_regime_code(regime)] * 3
    mean, std = strategy._moments(mus, sigmas)
    slope = (mean[2] - mean[0]) / (2.0 * h)
    assert slope == pytest.approx((std[1] / sigma) ** 2, rel=1e-5)


def test_array_moments_match_scalar_reference():
    # the seam points, half of 1e5 random points over the whole box, and
    # half with mu in [-1, 2], where all three regimes meet; the regime is
    # read from the mask. Closed forms may differ by one ulp of np.exp
    # against math.exp, which the variance's cancellation near the
    # subnormal-mass seam magnifies.
    rng = np.random.default_rng(20)
    half = 50_000
    mu = np.concatenate([[m for m, _, _ in _SEAMS], rng.uniform(MU_LO, MU_HI, half), rng.uniform(-1.0, 2.0, half)])
    log_sigma = rng.uniform(math.log(SIGMA_MIN), math.log(SIGMA_MAX), 2 * half)
    sigma = np.concatenate([[s for _, s, _ in _SEAMS], np.exp(log_sigma)])
    regime = strategy._regime(mu, sigma)[0]
    assert regime[: len(_SEAMS)].tolist() == [_regime_code(name) for _, _, name in _SEAMS]
    mean, std = strategy._moments(mu, sigma)
    ref_mean, ref_std, ref_regime = np.array([scalar_moments(m, s) for m, s in zip(mu, sigma)]).T
    assert (regime == ref_regime).all()
    assert np.bincount(regime).min() >= 10_000
    assert np.abs(mean - ref_mean).max() <= 4.5e-16
    rel = np.abs(std - ref_std) / ref_std
    closed = regime == CLOSED
    assert rel[~closed].max() <= 1e-13
    assert rel[closed].max() <= 1e-9


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
    assert all(isinstance(e, NoSolution) for e in failures.values())
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
        assert isinstance(failures.get(i), NoSolution) == (spec is None), p
        if spec is not None:
            worst = max(worst, np.abs(w - discretize_scalar(*spec, 10)).max())
    assert worst <= 1e-10


def test_solve_moment_evaluations_per_point(monkeypatch):
    # counts point-evaluations: the sum of the batch sizes passed to
    # _moments. The solve with a sigma bisection and a Newton step on mu
    # took 229.5 per point here, this one ~28; bisecting log sigma in place
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
    assert [(i, type(e)) for i, e in failures.items()] == [(0, InfeasibleStrategy)]
    assert str(failures[0]) == "(r, t) = (0.1, 0.9) outside the strategy space"
    assert np.isnan(W[0]).all()
    assert W[1].tolist() == [0.0] * 5 + [1.0] + [0.0] * 4


def test_solve_reports_no_solution_near_edge():
    # near the parabola boundary at small r the truncated-normal family
    # cannot reach the requested dispersion; this must surface, not clamp
    _, failures = generate_weights_batch([DecisionPoint(0.05, 0.18)], 10)
    assert isinstance(failures[0], NoSolution)
    assert str(failures[0]).startswith("(r, t) = (0.05, 0.18): best match has mean ")


def test_solve_unconverged_on_tiny_iteration_budget():
    with pytest.raises(Unconverged):
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


@pytest.mark.parametrize("n", [2, 3, 10, 17])
def test_bin_masses_match_scalar_reference(n):
    # bit for bit against the bin-by-bin loop, over the whole search box
    # and the box's edges; about half the pairs sit so far out that every
    # erfc mass underflows and the log-tail path runs
    rng = np.random.default_rng(40 + n)
    mu = np.concatenate([[-40.0, 41.0, MU_LO, MU_HI, 0.5, 0.0, 1.0], rng.uniform(MU_LO, MU_HI, 3000)])
    log_sigma = rng.uniform(math.log(SIGMA_MIN), math.log(SIGMA_MAX), 3000)
    sigma = np.concatenate([[0.8, 0.8, 0.5, 0.5, SIGMA_MAX, SIGMA_MIN, SIGMA_MIN], np.exp(log_sigma)])
    ref = np.array([bin_masses_scalar(m, s, n) for m, s in zip(mu.tolist(), sigma.tolist())])
    assert strategy._bin_masses(mu, sigma, n).tobytes() == ref.tobytes()
    near = np.minimum(np.abs(mu), np.abs(mu - 1.0)) / sigma
    outside = (mu < 0.0) | (mu > 1.0)
    assert (outside & (near > 40.0)).sum() >= 1000


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
    with pytest.raises(InfeasibleStrategy):
        generate_weights(DecisionPoint(0.2, 0.65), 10)
    with pytest.raises(OutOfUnitSquare, match=r"^\(r, t\) = \(0.5, 1.5\) outside the unit square$"):
        generate_weights_batch([DecisionPoint(0.4, 0.3), DecisionPoint(0.5, 1.5), DecisionPoint(-1.0, 0.0)], 10)


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
        except NoSolution:
            # documented near-boundary slivers
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
