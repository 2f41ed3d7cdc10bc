import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jensengap
import jensengap.distributions as distributions
from jensengap.distributions import (
    _GK_GAUSS_WEIGHTS,
    _GK_KRONROD_WEIGHTS,
    _GK_NODES,
    MIN_NODES,
    QUAD_EPSABS,
    QUAD_EPSREL,
    TAIL_REL_TOL,
    Discrete,
    Empirical,
    Expectation,
    Gaussian,
    Laplace,
    MeanOfN,
    Uniform,
    distribution_from_dict,
    mean_of_n,
    symmetric_outlier,
    three_point,
    two_point,
)
from jensengap.errors import EvaluationError, InvalidParameterError
from jensengap.functions import _apply_rule, make_function
from jensengap.oracle import jensen_gap

ORDERS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


def test_two_point_moments_are_flat():
    dist = two_point(0.3, 0.7)
    assert dist.mean() == pytest.approx(0.3)
    for p in ORDERS:
        # |X - mu| is identically sigma, so every order agrees
        assert dist.abs_central_moment(p).sigma_p == pytest.approx(0.7, rel=1e-14)


def test_three_point_moment_closed_form():
    a, p = 2.5, 0.2
    dist = three_point(0.0, a, p)
    for beta in ORDERS:
        want = p ** (1.0 / beta) * a
        got = dist.abs_central_moment(beta).sigma_p
        assert got == pytest.approx(want, rel=1e-13)


def test_three_point_collapses_at_full_mass():
    assert three_point(0.0, 1.5, 1.0).points == two_point(0.0, 1.5).points


def test_symmetric_outlier_moment_closed_form():
    j, m = 8.0, 1.5
    dist = symmetric_outlier(j, m)
    for r in ORDERS:
        assert dist.abs_central_moment(r).sigma_p == pytest.approx(
            j ** (1.0 - m / r), rel=1e-13)


def test_symmetric_outlier_base_case():
    # at j = 1 the outlier weight saturates and the family is two points
    dist = symmetric_outlier(1.0, 2.0)
    assert dist.points == two_point(0.0, 1.0).points


def test_discrete_exact_sums():
    dist = Discrete(((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25)))
    mu = -0.25 + 0.25 + 0.5
    assert dist.mean() == pytest.approx(mu)
    mv = dist.abs_central_moment(2.0)
    want = 0.25 * (1.0 + mu) ** 2 + 0.5 * (0.5 - mu) ** 2 + 0.25 * (2.0 - mu) ** 2
    assert mv.sigma_p_pow == pytest.approx(want, rel=1e-15)
    assert mv.abs_error_estimate == 0.0
    assert mv.method == "exact_sum"


def test_zeroth_order_convention():
    # |t|^0 == 1 even at t == 0, so sigma_0 is always 1
    for dist in (two_point(0.0, 1.0), Gaussian(0.0, 1.0), Uniform(-1.0, 1.0),
                 Discrete(((0.0, 1.0),))):
        mv = dist.abs_central_moment(0.0)
        assert mv.sigma_p == 1.0 and mv.sigma_p_pow == 1.0
        assert mv.abs_error_estimate == 0.0


def test_gaussian_moment_closed_form():
    sigma = 0.8
    dist = Gaussian(1.0, sigma)
    for p in ORDERS:
        want = sigma ** p * 2.0 ** (p / 2.0) * math.gamma((p + 1) / 2.0) / math.sqrt(math.pi)
        assert dist.abs_central_moment(p).sigma_p_pow == pytest.approx(want, rel=1e-12)
    assert dist.abs_central_moment(2.0).sigma_p == pytest.approx(sigma, rel=1e-12)


def test_laplace_moment_closed_form():
    b = 0.6
    dist = Laplace(-2.0, b)
    for p in ORDERS:
        assert dist.abs_central_moment(p).sigma_p_pow == pytest.approx(
            b ** p * math.gamma(p + 1.0), rel=1e-12)


def test_uniform_moment_closed_form():
    dist = Uniform(1.0, 4.0)
    half = 1.5
    for p in ORDERS:
        assert dist.abs_central_moment(p).sigma_p_pow == pytest.approx(
            half ** p / (p + 1.0), rel=1e-12)


def test_quadrature_route_agrees_with_closed_form():
    for dist in (Gaussian(0.5, 1.2), Laplace(0.0, 0.9), Uniform(-2.0, 1.0)):
        for p in (1.0, 2.0, 3.5):
            exact = dist.abs_central_moment(p)
            quad = dist.abs_central_moment(p, method="quadrature")
            assert quad.sigma_p_pow == pytest.approx(exact.sigma_p_pow, rel=1e-8)
            assert abs(quad.sigma_p_pow - exact.sigma_p_pow) <= max(
                quad.abs_error_estimate, 1e-12)


def _expect_every_radius(dist, g, nodes, growth_hint, resume=True):
    """Reference truncation loop: integrate at every radius, keep the first that
    passes.  Each radius continues the cell table of the one before, or with
    ``resume`` off starts from scratch, as the loop did before radii were
    continued."""
    mu, t_offset = dist.mean(), 12.0 * dist._scale()
    integrand = lambda xs: _apply_rule(g, xs, "g") * dist._pdf(xs)
    kept = [] if resume else None
    for _ in range(16):
        value, quad_err, evals = distributions._gauss_kronrod(
            integrand, mu - t_offset, mu, mu + t_offset, nodes, kept)
        log_tail = dist._log_tail_bound(g, t_offset, growth_hint)
        if log_tail <= math.log(TAIL_REL_TOL * max(abs(value), 1e-6)):
            return Expectation(value, quad_err + math.exp(log_tail), "quadrature", evals)
        t_offset *= 1.6
    raise EvaluationError("tail bound did not certify; the integrand grows too fast")


# cos, sin, pow4 at 1 and abs_power 0.5, 1.5 and 3
IDENTITY_FUNCTIONS = (
    np.cos,
    np.sin,
    lambda x: (x - 1.0) ** 4,
    lambda x: np.abs(x) ** 0.5,
    lambda x: np.abs(x) ** 1.5,
    lambda x: np.abs(x) ** 3,
)


def _outcome(call):
    try:
        return call()
    except EvaluationError as exc:
        return str(exc)


def _recording_quadrature(monkeypatch):
    """A list that gains the upper end, mean + T, of every ``_gauss_kronrod`` call."""
    ends = []
    rule = distributions._gauss_kronrod
    monkeypatch.setattr(distributions, "_gauss_kronrod",
                        lambda *args: ends.append(args[3]) or rule(*args))
    return ends


def _random_law(rng, families=(Gaussian, Laplace)):
    family = families[int(rng.integers(len(families)))]
    mean = float(rng.uniform(-2.0, 2.0))
    scale = float(10.0 ** rng.uniform(-3.0, math.log10(30.0)))
    return family(mean - scale, mean + scale) if family is Uniform else family(mean, scale)


def test_expect_matches_integrating_every_radius(monkeypatch):
    """Skipping radii that cannot pass keeps the radius the full loop keeps;
    where no radius is skipped, it returns the very tuple of the full loop."""
    ends = _recording_quadrature(monkeypatch)
    rng = np.random.default_rng(20)
    skipped = 0
    for _ in range(240):
        dist = _random_law(rng)
        mean = dist.mean()
        nodes = int(rng.choice([42, 210, 2048]))
        g = IDENTITY_FUNCTIONS[int(rng.integers(len(IDENTITY_FUNCTIONS)))]
        hint = (None, 2, 4)[int(rng.integers(3))]
        p = float(rng.uniform(0.3, 6.0))
        for call, reference in (
                (lambda: dist.expect(g, nodes=nodes, growth_hint=hint),
                 lambda: _expect_every_radius(dist, g, nodes, hint)),
                (lambda: dist.abs_central_moment(p, method="quadrature", nodes=nodes),
                 lambda: _expect_every_radius(dist, lambda x: np.abs(x - mean) ** p, nodes, p))):
            ends.clear()
            want = _outcome(reference)
            every = ends[:]
            ends.clear()
            got = _outcome(call)
            if isinstance(want, str):
                assert got == want, (dist, nodes, hint)
                continue
            if isinstance(got, distributions.MomentValue):
                want = distributions._moment(p, want.value, "quadrature", want.abs_error)
            assert ends[-1] == every[-1] and set(ends) <= set(every), (dist, nodes, hint)
            if ends == every:
                assert got == want, (dist, nodes, hint)
            skipped += ends != every
    assert skipped > 0
    # the first pass runs out of nodes here and a wider, also unconverged
    # pass happens to pass the tail test, so no radius may be skipped; with
    # the budget spent, each wider radius is integrated from scratch
    dist = Laplace(0.0, 7.641068447412353)
    ends.clear()
    got = dist.expect(np.cos, nodes=210)
    assert len(ends) == 4 and got.count == 210
    assert got == _expect_every_radius(dist, np.cos, 210, None)
    assert ends[:4] == ends[4:]
    assert got == _expect_every_radius(dist, np.cos, 210, None, resume=False)


def _whole_line_expectation(dist, index):
    """E g(X) in closed form for the smooth identity functions cos, sin and
    (x - 1)^4, on a Gaussian or Laplace law."""
    m, s = dist.mean(), dist._scale()
    if isinstance(dist, Laplace):  # E cos(tY) = 1 / (1 + b^2 t^2); E Y^2, E Y^4 = 2 b^2, 24 b^4
        damp, var, fourth = 1.0 / (1.0 + s * s), 2.0 * s * s, 24.0 * s ** 4
    else:
        damp, var, fourth = math.exp(-0.5 * s * s), s * s, 3.0 * s ** 4
    d = m - 1.0
    return (math.cos(m) * damp, math.sin(m) * damp, fourth + 6.0 * var * d * d + d ** 4)[index]


def test_wider_radius_continues_the_cell_table(monkeypatch):
    """A wider radius adds its two shells to the last cell table.  The count
    stays within ``nodes``; a law that one radius settles, and a bounded one,
    returns the very tuple of a from-scratch pass; and a continued table of a
    smooth rule lies within its own error bar of the closed form.

    Kinked rules (|x|^p with 0 off the split point) are left out of the last
    check: there the rule's error estimate can miss the true error, for a
    from-scratch pass as for a continued one."""
    ends = _recording_quadrature(monkeypatch)
    rng = np.random.default_rng(21)
    continued = {Gaussian: 0, Laplace: 0}
    for _ in range(300):
        dist = _random_law(rng, (Gaussian, Laplace, Uniform))
        nodes = int(rng.choice([42, 84, 210, 2048]))
        index = int(rng.integers(len(IDENTITY_FUNCTIONS)))
        g = IDENTITY_FUNCTIONS[index]
        hint = (None, 2, 4)[int(rng.integers(3))]
        ends.clear()
        got = dist.expect(g, nodes=nodes, growth_hint=hint)
        assert got.count <= nodes, (dist, nodes)
        settled_at_once = len(ends) == 1
        mu = dist.mean()
        integrand = lambda xs: _apply_rule(g, xs, "g") * dist._pdf(xs)
        if isinstance(dist, Uniform):
            value, err, evals = distributions._gauss_kronrod(
                integrand, dist.lo, mu, dist.hi, nodes)
            assert got == (value, err, "quadrature", evals)
            continue
        fresh = _expect_every_radius(dist, g, nodes, hint, resume=False)
        if settled_at_once:
            assert got == fresh, (dist, nodes, hint)
        elif got != fresh:
            continued[type(dist)] += 1
            if index < 3:
                want = _whole_line_expectation(dist, index)
                assert abs(got.value - want) <= got.abs_error, (dist, index, nodes, hint)
        if nodes - got.count >= MIN_NODES:
            # budget left over, so the quadrature stopped at its tolerance; the
            # passing tail adds at most TAIL_REL_TOL of the integral
            size = abs(got.value)
            assert got.abs_error <= (max(QUAD_EPSABS, QUAD_EPSREL * size)
                                     + TAIL_REL_TOL * max(size, 1e-6)), (dist, nodes, hint)
    # sin on a wide Gaussian has a gap near 0, which takes a second radius
    assert continued[Laplace] > 30 and continued[Gaussian] > 0


def test_continued_table_keeps_its_cells_and_count():
    h = lambda x: np.exp(-np.abs(x)) * (1.0 + np.cos(x))
    kept = []
    first = distributions._gauss_kronrod(h, -12.0, 0.0, 12.0, 2048, kept)
    inner = kept[0]
    second = distributions._gauss_kronrod(h, -30.0, 0.0, 30.0, 2048, kept)
    # each shell enters as its two halves beside the old cells, whose
    # evaluations still count; a bisection keeps the left end, so every old
    # cell's left end is still one, and the table tiles [-30, 30]
    assert second[2] >= first[2] + 2 * MIN_NODES and second[2] == kept[1]
    assert set(inner[0]) | {-30.0, -21.0, 12.0, 21.0} <= set(kept[0][0])
    assert math.fsum(kept[0][1] - kept[0][0]) == 60.0
    assert second[:2] == tuple(kept[0][2:].sum(axis=1).tolist())
    fade = math.exp(-30.0)
    want = 2.0 * ((1.0 - fade) + 0.5 * (1.0 - fade * (math.cos(30.0) - math.sin(30.0))))
    assert abs(second[0] - want) <= second[1]
    # too few evaluations left for the shells: from scratch, as without a table
    kept = []
    distributions._gauss_kronrod(h, -12.0, 0.0, 12.0, 2 * MIN_NODES, kept)
    assert (distributions._gauss_kronrod(h, -30.0, 0.0, 30.0, 2 * MIN_NODES, kept)
            == distributions._gauss_kronrod(h, -30.0, 0.0, 30.0, 2 * MIN_NODES))


def test_truncation_radius_is_chosen_before_integrating(monkeypatch):
    calls = []
    rule = distributions._gauss_kronrod
    monkeypatch.setattr(distributions, "_gauss_kronrod",
                        lambda *args: calls.append(args) or rule(*args))
    Laplace(0.0, 0.5).expect(np.cos)
    # T = 6, then straight to the radius that passes, not through every one between
    assert len(calls) <= 2
    calls.clear()
    Gaussian(0.0, 0.5).expect(np.cos)
    assert len(calls) == 1


def _rule_on_unit_interval(weights, degree):
    # the [-1, 1] rule mapped to [0, 1], where every monomial integrates to 1/(d+1)
    return 0.5 * float(weights @ (0.5 + 0.5 * _GK_NODES) ** degree)


def test_gauss_kronrod_pair_exact_degrees():
    for d in range(32):
        assert _rule_on_unit_interval(_GK_KRONROD_WEIGHTS, d) == pytest.approx(
            1.0 / (d + 1), rel=1e-14, abs=0.0)
    for d in range(20):
        assert _rule_on_unit_interval(_GK_GAUSS_WEIGHTS, d) == pytest.approx(
            1.0 / (d + 1), rel=1e-14, abs=0.0)
    # one degree past exactness the 10-point Gauss error is
    # (10!)^4 / (21 (20!)^2) for x^20 on [0, 1]
    miss = 1.0 / 21.0 - _rule_on_unit_interval(_GK_GAUSS_WEIGHTS, 20)
    want = math.factorial(10) ** 4 / (21.0 * math.factorial(20) ** 2)
    assert miss == pytest.approx(want, rel=1e-3)


def test_import_leaves_scipy_out():
    # numpy.polynomial alone costs about 100 ms of a cold import, so the
    # inversion nodes come from the K21 constants instead
    src = os.path.dirname(os.path.dirname(jensengap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, jensengap; print(sorted(m for m in sys.modules if m == 'scipy' "
             "or m.startswith(('scipy.', 'numpy.polynomial', 'numpy.fft'))))")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_monte_carlo_route_within_error_bars():
    dist = Gaussian(0.0, 1.0)
    exact = dist.abs_central_moment(2.0).sigma_p_pow
    mc = dist.abs_central_moment(2.0, method="monte_carlo", seed=11, samples=200_000)
    assert mc.method == "monte_carlo"
    assert mc.abs_error_estimate > 0
    # 95% interval, checked at 2.5x for slack
    assert abs(mc.sigma_p_pow - exact) <= 2.5 * mc.abs_error_estimate


def test_samples_is_a_count_of_at_least_two_where_draws_are_made():
    avg = mean_of_n(two_point(0.0, 1.0), 3)
    for bad in (0, 1, 2.5, True, "100"):
        with pytest.raises(InvalidParameterError, match="samples must be"):
            avg.abs_central_moment(1.0, samples=bad)
        with pytest.raises(InvalidParameterError, match="samples must be"):
            avg.expect(np.cos, samples=bad)
    # exact routes draw nothing, so they ignore the count
    assert avg.abs_central_moment(2.0, samples=1).method == "closed_form"
    assert two_point(0.0, 1.0).expect(np.cos, samples=0).method == "exact_sum"


def test_sampling_is_seed_deterministic():
    dist = Laplace(0.0, 1.0)
    a = dist.sample(64, seed=5)
    b = dist.sample(64, seed=5)
    c = dist.sample(64, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("dist", [
    two_point(0.0, 1.0), Empirical((0.1, -0.4, 0.1)), Gaussian(0.0, 1.0),
    Laplace(0.0, 1.0), Uniform(-1.0, 1.0), mean_of_n(two_point(0.0, 1.0), 3),
], ids=lambda d: d.variant)
def test_sample_count_is_a_count(dist):
    for bad in (2.7, True, "3", 0):
        with pytest.raises(InvalidParameterError, match="count must be"):
            dist.sample(bad, 1)
    assert dist.sample(3.0, 1).shape == (3,)


def test_mean_of_n_variance_scaling():
    base = Uniform(-1.0, 1.0)
    avg = mean_of_n(base, 16)
    assert avg.mean() == pytest.approx(0.0)
    mv = avg.abs_central_moment(2.0, seed=3)
    want = base.abs_central_moment(2.0).sigma_p_pow / 16.0
    assert mv.method == "closed_form"
    assert mv.abs_error_estimate == 0.0
    assert mv.sigma_p_pow == want


def _exact_mean_moment(base_moments, n, p):
    """E(mean - mu)^p in rational arithmetic from the base's central moments,
    through cumulants: kappa_j of a sum of n copies is n kappa_j."""
    kappa = [Fraction(0)] * (p + 1)
    for j in range(1, p + 1):
        kappa[j] = base_moments[j] - sum(math.comb(j - 1, i - 1) * kappa[i] * base_moments[j - i]
                                         for i in range(1, j))
    moments = [Fraction(1)] + [Fraction(0)] * p
    for j in range(1, p + 1):
        moments[j] = sum(math.comb(j - 1, i - 1) * n * kappa[i] * moments[j - i]
                         for i in range(1, j + 1))
    return moments[p] / Fraction(n) ** p


SKEWED = (0.0, 0.25, 0.5, 3.0, -1.5, 0.125, 7.0)


def _skewed_moment(j):
    mu = sum(map(Fraction, SKEWED)) / len(SKEWED)
    return sum((Fraction(v) - mu) ** j for v in SKEWED) / len(SKEWED)


@pytest.mark.parametrize("base, moment", [
    (Uniform(-1.0, 1.0), lambda j: Fraction(1 - j % 2, j + 1)),
    (Laplace(0.0, 0.75), lambda j: (1 - j % 2) * Fraction(3, 4) ** j * math.factorial(j)),
    (two_point(0.0, 0.5), lambda j: (1 - j % 2) * Fraction(1, 2) ** j),
    (Empirical(SKEWED), _skewed_moment),
], ids=["uniform", "laplace", "two_point", "empirical"])
def test_even_moments_of_mean_are_exact(base, moment):
    for n in (1, 2, 3, 4, 16, 256):
        for p in (2, 4, 6, 8):
            mv = mean_of_n(base, n).abs_central_moment(p)
            want = _exact_mean_moment([moment(j) for j in range(p + 1)], n, p)
            assert mv.method == "closed_form" and mv.abs_error_estimate == 0.0
            # a few ulps: the base moments themselves are rounded closed forms
            assert abs(Fraction(mv.sigma_p_pow) - want) <= 4e-15 * want, (n, p)


def _cos_gap_uniform(n):
    """(n sin(1/n))^n - 1 without cancellation: sin(x)/x - 1 by its series."""
    x = 1.0 / n
    rest = math.fsum((-1) ** k * x ** (2 * k) / math.factorial(2 * k + 1) for k in range(1, 12))
    return math.expm1(n * math.log1p(rest))


@pytest.mark.parametrize("n", [4, 7, 8, 16, 256])
def test_mean_of_n_cos_gaps_match_closed_forms(n):
    # E cos(mean) - 1 is the characteristic function of one draw at 1/n, to
    # the n, minus 1; both sides of the Irwin-Hall crossover at n = 8
    cases = ((Uniform(-1.0, 1.0), _cos_gap_uniform(n)),
             (Laplace(0.0, 0.75), math.expm1(-n * math.log1p((0.75 / n) ** 2))))
    for base, want in cases:
        gap = jensen_gap(make_function("cos", 0.0), mean_of_n(base, n))
        assert gap.method == "quadrature"
        assert abs(gap.value - want) <= gap.abs_error
        assert abs(gap.value - want) <= 1e-10
        if n not in (7, 8):
            # the Irwin-Hall knots leave the rule at its tolerance for n = 7
            # and 8; elsewhere it converges to rounding
            assert abs(gap.value - want) <= 2e-14


@pytest.mark.parametrize("n", [8, 9, 16, 64, 256, 4096])
def test_factored_inversion_matches_direct_cos_sum(monkeypatch, n):
    avg = MeanOfN(Uniform(0.5, 2.0), n)
    centres, offsets, weights = distributions._inversion_panels(n, 0.75)
    ts = (centres[:, None] + offsets).ravel()
    xs = np.linspace(0.5, 2.0, 201)
    # the direct sum: one cos per point and node
    want = (np.cos(np.multiply.outer(xs - 1.25, ts)) * weights.ravel()).sum(axis=1)
    pdf, missed = avg._density()
    got = pdf(xs)
    assert missed == distributions.INVERSION_TOL
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # blocks of three points give the same values as one block
    monkeypatch.setattr(distributions, "_OUTER_CELLS", 3 * centres.size)
    assert np.array_equal(avg._density()[0](xs), got)


def _sinc_power_tail(n, h, cut):
    """pi times the largest density the inversion drops beyond ``cut``: the
    integral of |sin u / u|^n, u = h t / n, by a fine trapezoid rule up to
    the larger of 4 cut and u = 2 pi, plus the 1/u^n bound beyond."""
    top = max(4.0 * cut, 2.0 * math.pi * n / h)
    ts = np.linspace(cut, top, 400_001)
    vals = np.abs(np.sinc(h * ts / (n * math.pi))) ** n
    body = float(np.sum((vals[1:] + vals[:-1]) * np.diff(ts))) / 2.0
    return body + math.exp(n * math.log(n / (h * top)) + math.log(top / (n - 1)))


@pytest.mark.parametrize("n", [8, 40, 64, 256, 4096, 10**5])
def test_inversion_cut_drops_at_most_the_tolerance(n):
    h = 0.75
    cut = distributions._inversion_cut(n, h)
    assert 2.0 * h * _sinc_power_tail(n, h, cut) / math.pi <= distributions.INVERSION_TOL
    if n >= 256:
        # the Gaussian bound sets the cut there (and at n = 40): T grows like
        # sqrt(n), not like n
        assert cut * h < 20.0 * math.sqrt(n)


def test_uniform_mean_at_large_n_is_exact_on_few_panels():
    n = 10**5
    assert distributions._inversion_panels(n, 1.0)[0].size < 2000
    gap = jensen_gap(make_function("cos", 0.0), mean_of_n(Uniform(-1.0, 1.0), n))
    want = _cos_gap_uniform(n)
    assert abs(gap.value - want) <= gap.abs_error
    # with the density summed in long double the gap is still 2.1e-14 off:
    # that is the adaptive rule over x, which stops at its tolerance
    assert abs(gap.value - want) <= 5e-14


def test_laplace_mean_of_one_is_the_laplace():
    base = Laplace(0.5, 1.5)
    # smooth integrands: a cusp at the mean converges only to the rule's
    # tolerance, and the two routes integrate over different radii
    for g in (np.cos, np.arctan, lambda x: (x - 0.5) ** 2):
        got = mean_of_n(base, 1).expect(g).value
        assert got == pytest.approx(base.expect(g).value, rel=1e-13, abs=1e-13)


def test_gaussian_mean_is_gaussian():
    avg = mean_of_n(Gaussian(1.0, 2.0), 16)
    same = Gaussian(1.0, 0.5)
    assert avg.expect(np.cos) == same.expect(np.cos)
    assert avg.abs_central_moment(1.5) == same.abs_central_moment(1.5)


@pytest.mark.parametrize("base", [Uniform(-1.0, 1.0), Laplace(0.0, 0.75)],
                         ids=["uniform", "laplace"])
def test_other_orders_of_mean_take_the_density(base):
    avg = mean_of_n(base, 16)
    exact = avg.abs_central_moment(2.0)
    quad = avg.abs_central_moment(2.0, method="quadrature")
    assert quad.method == "quadrature"
    assert quad.sigma_p_pow == pytest.approx(exact.sigma_p_pow, rel=1e-12)
    odd = avg.abs_central_moment(3.0)
    mc = avg.abs_central_moment(3.0, method="monte_carlo", seed=4, samples=50_000)
    assert odd.method == "quadrature"
    assert abs(odd.sigma_p_pow - mc.sigma_p_pow) <= 2.5 * mc.abs_error_estimate


def test_non_integral_counts_rejected():
    base = Uniform(-1.0, 1.0)
    for bad in (2.7, 0, -3, True, math.nan, math.inf, "4"):
        with pytest.raises(InvalidParameterError):
            mean_of_n(base, bad)
    with pytest.raises(InvalidParameterError):
        MeanOfN(base, True)
    with pytest.raises(InvalidParameterError):
        distribution_from_dict({"variant": "mean_of_n", "base": base.to_dict(), "n": 2.7})
    assert mean_of_n(base, 4.0).n == 4


def test_mean_of_n_chunks_are_separate_streams(monkeypatch):
    # 3 rows per chunk, so 8 rows take three chunks of 3, 3 and 2 rows
    monkeypatch.setattr(distributions, "_CHUNK", 12)
    base, n = Laplace(0.5, 2.0), 4
    got = MeanOfN(base, n).sample(8, seed=7, purpose="gap")
    want = np.concatenate([
        base.sample(rows * n, 7, purpose=f"gap/base/{k}").reshape(rows, n).mean(axis=1)
        for k, rows in enumerate((3, 3, 2))])
    assert np.array_equal(got, want)


def test_empirical_exact():
    samples = (0.0, 1.0, 1.0, 4.0)
    dist = Empirical(samples)
    assert dist.mean() == pytest.approx(1.5)
    assert dist.abs_central_moment(1.0).sigma_p == pytest.approx(
        (1.5 + 0.5 + 0.5 + 2.5) / 4.0)


def test_empirical_expect_is_exact_sum():
    samples = (0.5, -1.0, 2.0, 0.25)
    est = Empirical(samples).expect(np.cos)
    assert est.value == math.fsum(math.cos(v) for v in samples) / 4
    assert est.abs_error == 0.0
    assert est.method == "exact_sum"
    assert est.count == 4


def test_empirical_is_the_discrete_law_of_its_sample():
    dist = Empirical((2.0, -1.0, 2.0, 2.0))
    assert isinstance(dist, Discrete)
    assert dist.points == ((-1.0, 0.25), (2.0, 0.75))
    assert dist.samples == (2.0, -1.0, 2.0, 2.0)
    # the gap sums the distinct atoms
    assert dist.expect(np.cos).count == 2
    assert dist.to_dict() == {"variant": "empirical", "samples": [2.0, -1.0, 2.0, 2.0]}


def test_expectation_of_function_exact_sum():
    dist = two_point(0.0, 0.5)
    est = dist.expect(lambda x: np.cos(x))
    assert est.value == pytest.approx(math.cos(0.5))
    assert est.abs_error == 0.0


def test_constructor_rejections():
    with pytest.raises(InvalidParameterError):
        two_point(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        three_point(0.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        three_point(0.0, 1.0, 1.5)
    with pytest.raises(InvalidParameterError):
        symmetric_outlier(0.5, 1.0)
    with pytest.raises(InvalidParameterError):
        symmetric_outlier(2.0, -1.0)
    with pytest.raises(InvalidParameterError):
        Discrete(((0.0, 0.5), (1.0, 0.2)))  # mass does not sum to one
    with pytest.raises(InvalidParameterError):
        Discrete(((0.0, 0.5), (0.0, 0.5)))  # duplicate atom
    with pytest.raises(InvalidParameterError):
        Uniform(2.0, 2.0)
    with pytest.raises(InvalidParameterError):
        Gaussian(0.0, -1.0)


@pytest.mark.parametrize("direct, descriptor", [
    (lambda: Gaussian(0.0, math.inf),
     {"variant": "gaussian", "mean": 0, "stddev": math.inf}),
    (lambda: Laplace(0.0, math.inf),
     {"variant": "laplace", "mean": 0, "scale": math.inf}),
], ids=["gaussian", "laplace"])
def test_infinite_spread_rejected(direct, descriptor):
    with pytest.raises(InvalidParameterError, match="finite"):
        direct()
    with pytest.raises(InvalidParameterError, match="finite"):
        distribution_from_dict(descriptor)


@pytest.mark.parametrize("dist, order, variant", [
    (Laplace(0.0, 1.0), 200, "laplace"),
    (two_point(0.0, 1e200), 2, "discrete"),
    (Empirical((0.0, 1e200)), 2, "empirical"),
    (mean_of_n(two_point(0.0, 1e200), 4), 2, "mean_of_n"),
    (Gaussian(0.0, 1e300), 2, "gaussian"),
], ids=["laplace", "two_point", "empirical", "mean_of_n", "gaussian"])
def test_overflowing_moment_is_evaluation_error(dist, order, variant):
    with pytest.raises(EvaluationError, match=f"order-{order} .*{variant}"):
        dist.abs_central_moment(order)


def test_monte_carlo_error_bar_survives_overflowing_squares():
    # |X - mu| reaches 1e200, so the squares in the spread overflow a double
    moment = mean_of_n(two_point(0.0, 1e200), 4).abs_central_moment(1)
    assert moment.method == "monte_carlo"
    assert 0 < moment.abs_error_estimate < 0.1 * moment.sigma_p_pow


def test_infinite_error_bar_is_evaluation_error(monkeypatch):
    def unbounded(self, p, method, nodes, draws):
        return distributions._moment(p, 1.0, "monte_carlo", math.inf)

    monkeypatch.setattr(Discrete, "_moment_pow", unbounded)
    with pytest.raises(EvaluationError, match="order-1 .*discrete"):
        two_point(0.0, 1.0).abs_central_moment(1)


def test_from_dict_round_trip():
    cases = (
        two_point(0.25, 1.5),
        Gaussian(1.0, 2.0),
        Laplace(-1.0, 0.5),
        Uniform(0.0, 3.0),
        Empirical((1.0, 2.0, 4.0)),
        mean_of_n(Uniform(-1.0, 1.0), 8),
    )
    for dist in cases:
        again = distribution_from_dict(dist.to_dict())
        assert again.variant == dist.variant
        assert again.mean() == pytest.approx(dist.mean())
        assert again.abs_central_moment(2.0, seed=1).sigma_p_pow == pytest.approx(
            dist.abs_central_moment(2.0, seed=1).sigma_p_pow)


def test_from_dict_named_shortcuts():
    d = distribution_from_dict({"variant": "two_point", "mu": 1.0, "sigma": 0.5})
    assert d.points == two_point(1.0, 0.5).points
    d = distribution_from_dict({"variant": "three_point", "mu": 0.0, "a": 2.0, "p": 0.1})
    assert d.points == three_point(0.0, 2.0, 0.1).points
    d = distribution_from_dict({"variant": "symmetric_outlier", "j": 4.0, "m": 1.0})
    assert d.points == symmetric_outlier(4.0, 1.0).points
    with pytest.raises(InvalidParameterError):
        distribution_from_dict({"variant": "two_point", "mu": 0.0})
    with pytest.raises(InvalidParameterError):
        distribution_from_dict({"variant": "unheard_of"})
    with pytest.raises(InvalidParameterError):
        distribution_from_dict(["not", "a", "dict"])


@st.composite
def discrete_dists(draw):
    count = draw(st.integers(min_value=2, max_value=6))
    xs = draw(st.lists(
        st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=count, max_size=count, unique=True))
    ws = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                       min_size=count, max_size=count))
    total = sum(ws)
    return Discrete(tuple((x, w / total) for x, w in sorted(zip(xs, ws))))


@settings(max_examples=120, deadline=None)
@given(dist=discrete_dists(),
       r=st.floats(min_value=0.1, max_value=6.0),
       s=st.floats(min_value=0.1, max_value=6.0))
def test_moment_order_monotonicity(dist, r, s):
    """sigma_r <= sigma_s whenever r <= s, with only rounding slack."""
    lo, hi = sorted((r, s))
    sig_lo = dist.abs_central_moment(lo).sigma_p
    sig_hi = dist.abs_central_moment(hi).sigma_p
    assert sig_hi - sig_lo >= -1e-12 * max(sig_hi, 1.0)
