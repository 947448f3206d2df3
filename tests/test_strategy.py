import math

import numpy as np
import pytest

from _oracles import quad_truncnorm_moments, solve_mu_bisect
from owa_explorer import strategy
from owa_explorer.errors import (
    DegenerateSigma,
    InfeasibleStrategy,
    NoSolution,
    OutOfUnitSquare,
    Unconverged,
)
from owa_explorer.strategy import (
    MU_HI,
    MU_LO,
    SIGMA_MAX,
    SIGMA_MIN,
    SQRT12,
    DecisionPoint,
    OrderWeights,
    TruncatedNormalSpec,
    discretize,
    empirical_risk,
    feasible,
    generate_weights,
    sample_design,
    solve_generating_distribution,
    truncnorm_moments,
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


def test_moments_symmetric_mean():
    for sigma in (0.05, 0.3, 2.0, 1000.0):
        mean, _ = truncnorm_moments(TruncatedNormalSpec(0.5, sigma))
        assert mean == pytest.approx(0.5, abs=1e-14)


def test_moments_uniform_limit():
    _, std = truncnorm_moments(TruncatedNormalSpec(0.5, 1000.0))
    assert std == pytest.approx(UNIFORM_STD, abs=1e-6)


def test_moments_standard_normal_case():
    mean, _ = truncnorm_moments(TruncatedNormalSpec(0.0, 1.0))
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
    mean, std = truncnorm_moments(TruncatedNormalSpec(mu, sigma))
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

    for mu, sigma in [(-50.0, 0.5), (-50.0, 0.2), (-5.0, 0.05), (41.0, 0.5), (-30.0, 0.6)]:
        mean, std = truncnorm_moments(TruncatedNormalSpec(mu, sigma))
        rmean, rstd = mp_moments(mu, sigma)
        assert mean == pytest.approx(rmean, rel=1e-7, abs=1e-12)
        assert std == pytest.approx(rstd, rel=1e-6, abs=1e-12)


def test_degenerate_sigma():
    with pytest.raises(DegenerateSigma):
        TruncatedNormalSpec(0.5, 0.0)
    with pytest.raises(DegenerateSigma):
        TruncatedNormalSpec(0.5, -1.0)
    with pytest.raises(DegenerateSigma):
        TruncatedNormalSpec(0.5, 1001.0)


def test_solve_vertex_is_uniform_limit():
    spec = solve_generating_distribution(DecisionPoint(0.5, 1.0))
    assert spec.sigma >= 100.0
    assert spec.mu == pytest.approx(0.5, abs=1e-3)
    mean, std = truncnorm_moments(spec)
    assert mean == pytest.approx(0.5, abs=1e-6)
    assert std == pytest.approx(UNIFORM_STD, abs=1e-6)


def test_solve_half_tradeoff():
    spec = solve_generating_distribution(DecisionPoint(0.5, 0.5))
    qmean, qstd = quad_truncnorm_moments(spec.mu, spec.sigma)
    assert qmean == pytest.approx(0.5, abs=1e-6)
    assert qstd == pytest.approx(0.5 / SQRT12, abs=1e-6)
    assert qstd == pytest.approx(0.14434, abs=1e-5)


def test_solve_point_three():
    spec = solve_generating_distribution(DecisionPoint(0.3, 0.3))
    qmean, qstd = quad_truncnorm_moments(spec.mu, spec.sigma)
    assert qmean == pytest.approx(0.3, abs=1e-6)
    assert qstd == pytest.approx(0.08660, abs=1e-5)


@pytest.mark.parametrize(
    "r, t",
    [(0.9338054820543983, 0.09406309126944601), (0.35848448327760674, 0.09715341003347766)],
)
def test_solve_interior_points_near_subnormal_mass(r, t):
    # the bisection passes parents so remote that the truncation mass is
    # subnormal; the mean must stay accurate there or the solve lands astray
    spec = solve_generating_distribution(DecisionPoint(r, t))
    mean, std = truncnorm_moments(spec)
    assert mean == pytest.approx(r, abs=1e-9)
    assert std == pytest.approx(t / SQRT12, abs=1e-9)


@pytest.mark.parametrize("sigma", [0.028, 0.03])
def test_moments_mean_non_decreasing_in_mu(sigma):
    means = np.array(
        [truncnorm_moments(TruncatedNormalSpec(mu, sigma))[0] for mu in np.linspace(MU_LO, MU_HI, 20001)]
    )
    assert (np.diff(means) >= 0.0).all()


def _regime(monkeypatch, mu, sigma):
    """Name of the evaluator that `_moments` settles on at (mu, sigma)."""
    used = []
    for name in ("_gl_moments", "_closed_moments", "_tail_moments"):
        f = getattr(strategy, name)
        monkeypatch.setattr(strategy, name, lambda *a, f=f, name=name: used.append(name) or f(*a))
    strategy._moments(mu, sigma)
    monkeypatch.undo()
    return used[-1]


@pytest.mark.parametrize(
    "mu, sigma, regime",
    [
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
    ],
)
def test_mean_slope_in_mu_is_var_over_sigma_squared(monkeypatch, mu, sigma, regime):
    # with sigma fixed, mu / sigma^2 is the natural parameter of x, so
    # d mean / d mu = var / sigma^2; the Newton step on mu relies on it
    h = 1e-3 * sigma
    assert {_regime(monkeypatch, x, sigma) for x in (mu - h, mu, mu + h)} == {regime}
    slope = (strategy._moments(mu + h, sigma)[0] - strategy._moments(mu - h, sigma)[0]) / (2.0 * h)
    std = strategy._moments(mu, sigma)[1]
    assert slope == pytest.approx((std / sigma) ** 2, rel=1e-5)


_MU_SIGMAS = [SIGMA_MIN, 1e-4, 0.01, 0.0299, 0.03, 0.3, 3.0, 300.0, SIGMA_MAX]
_MU_RISKS = [1e-6, 0.01, 0.1, 0.37, 0.5, 0.5000001, 0.63, 0.9, 0.99, 1.0 - 1e-6]


@pytest.mark.parametrize("sigma", _MU_SIGMAS)
def test_solve_mu_matches_bisection_oracle(sigma):
    # one ulp of the mean spans ulp(r) * sigma^2 / var in mu: ~1e-9 at
    # SIGMA_MAX, where either root is as good as the other, and below 1e-12
    # for sigma <= 30
    for r in _MU_RISKS:
        ref = solve_mu_bisect(sigma, r)
        tol = 1e-11 + 4.0 * math.ulp(r) * (sigma / strategy._moments(ref, sigma)[1]) ** 2
        for start in (r, MU_LO + 1.0, MU_HI - 1.0):
            assert abs(strategy._solve_mu(sigma, r, start) - ref) <= tol, (r, start)


def _solve_outcomes(points):
    out = []
    for p in points:
        try:
            out.append(generate_weights(p, 10).w)
        except NoSolution:
            out.append(None)
    return out


def test_generate_weights_matches_bisection_oracle(monkeypatch):
    points = list(sample_design(1500, 31).points) + [
        DecisionPoint(0.9338054820543983, 0.09406309126944601),
        DecisionPoint(0.35848448327760674, 0.09715341003347766),
    ]
    newton = _solve_outcomes(points)
    monkeypatch.setattr(strategy, "_solve_mu", solve_mu_bisect)
    oracle = _solve_outcomes(points)
    assert [w is None for w in newton] == [w is None for w in oracle]
    worst = max(np.abs(a - b).max() for a, b in zip(newton, oracle) if a is not None)
    print(f"largest weight difference to the bisection oracle: {worst:.3g}")
    assert worst <= 1e-9


def test_solve_moment_evaluations_per_point(monkeypatch):
    # nested bisection took 1611 evaluations per point; a silent fallback
    # to bisection in the mu loop would bring that back
    calls = 0
    moments = strategy._moments

    def counted(mu, sigma):
        nonlocal calls
        calls += 1
        return moments(mu, sigma)

    monkeypatch.setattr(strategy, "_moments", counted)
    points = sample_design(64, 6).points
    _solve_outcomes(points)
    assert calls / len(points) <= 1611 / 3


def test_solve_refuses_infeasible():
    with pytest.raises(InfeasibleStrategy):
        solve_generating_distribution(DecisionPoint(0.1, 0.9))
    with pytest.raises(InfeasibleStrategy):
        solve_generating_distribution(DecisionPoint(0.5, 0.0))


def test_solve_reports_no_solution_near_edge():
    # near the parabola boundary at small r the truncated-normal family
    # cannot reach the requested dispersion; this must surface, not clamp
    with pytest.raises(NoSolution):
        solve_generating_distribution(DecisionPoint(0.05, 0.18))


def test_solve_unconverged_on_tiny_iteration_budget():
    with pytest.raises(Unconverged):
        solve_generating_distribution(DecisionPoint(0.4, 0.5), max_iter=1)


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
    for p in _fidelity_sample(40, seed=1):
        spec = solve_generating_distribution(p)
        mean, std = truncnorm_moments(spec)
        assert abs(mean - p.r) <= 1e-6
        assert abs(std - p.t / SQRT12) <= 1e-6


def test_discretize_uniform_limit():
    w = discretize(TruncatedNormalSpec(0.5, 1000.0), 10)
    assert np.abs(w.w - 0.1).max() <= 1e-3


def test_discretize_concentrated():
    w = discretize(TruncatedNormalSpec(0.05, 0.01), 10)
    assert w.w[0] >= 0.999999
    assert w.w[1:].sum() <= 1e-6


def test_discretize_sums_to_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        mu = rng.uniform(-3.0, 4.0)
        sigma = rng.uniform(1e-3, 50.0)
        w = discretize(TruncatedNormalSpec(mu, sigma), int(rng.integers(2, 15)))
        assert abs(w.w.sum() - 1.0) <= 1e-12
        assert (w.w >= 0).all()


def test_discretize_deep_tail():
    # parent far below the interval: nearly all mass in the first bin,
    # still normalized and finite
    w = discretize(TruncatedNormalSpec(-40.0, 0.8), 10)
    assert abs(w.w.sum() - 1.0) <= 1e-12
    assert w.w[0] > 0.9
    w = discretize(TruncatedNormalSpec(41.0, 0.8), 10)
    assert w.w[-1] > 0.9


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


def test_generate_weights_provenance():
    p = DecisionPoint(0.4, 0.3)
    assert generate_weights(p, 10).provenance == p


def test_empirical_risk_extremes():
    e1 = OrderWeights(np.eye(10)[0])
    en = OrderWeights(np.eye(10)[9])
    uniform = OrderWeights(np.full(10, 0.1))
    assert empirical_risk(e1) == pytest.approx(0.05, abs=1e-15)
    assert empirical_risk(en) == pytest.approx(0.95, abs=1e-15)
    assert empirical_risk(uniform) == pytest.approx(0.5, abs=1e-12)


def test_discretization_mean_bound():
    n = 10
    for p in _fidelity_sample(25, seed=3):
        w = generate_weights(p, n)
        assert abs(empirical_risk(w) - p.r) <= 1.0 / (2 * n) + 1e-6


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
