import dataclasses
import math

import pytest

import jensengap.bounds as bounds
import jensengap.cli as cli
from jensengap.bounds import (
    general_bounds,
    lower_bound_cauchy_schwarz,
    lower_bound_holder,
    lower_bound_holder_single,
    upper_bound,
    valid_holder_q,
    variance_interval,
)
from jensengap.distributions import (
    Discrete,
    Gaussian,
    Laplace,
    Uniform,
    mean_of_n,
    two_point,
)
from jensengap.envelope import inf_ratio_lower, sup_ratio_upper
from jensengap.errors import DomainError, EvaluationError, InvalidParameterError
from jensengap.functions import (
    GAP_ABOVE,
    GAP_BELOW,
    Interval,
    linear_shift,
    make_function,
)
from jensengap.oracle import jensen_gap, verify


def flat_sine():
    return linear_shift(make_function("sin", 0.0), 1.0)


def flat_quartic():
    return linear_shift(make_function("pow4", 1.0), 4.0)


def flat_log():
    f = make_function("log", 1.0, domain=Interval(0.5, math.inf))
    return linear_shift(f, 1.0)


def test_upper_bound_tight_and_loose_forms():
    f = flat_sine()
    M = sup_ratio_upper(f, 3.0, 3.0)
    dist = two_point(0.0, 0.5)
    report = upper_bound(M, dist, 3.0, 3.0)
    sig = 0.5
    assert report.value == pytest.approx(M.value * 2.0 * sig ** 3, rel=1e-12)
    assert report.loose_value == pytest.approx(
        M.value * (1.0 + sig ** 0.0) * sig ** 3, rel=1e-12)
    assert report.value <= report.loose_value + 1e-15


def test_upper_bound_mixed_orders():
    f = flat_quartic()
    M = sup_ratio_upper(f, 2.0, 4.0)
    dist = two_point(1.0, 0.5)
    report = upper_bound(M, dist, 2.0, 4.0)
    assert report.value == pytest.approx(M.value * (0.25 + 0.0625), rel=1e-12)
    # loose form trades sigma_alpha for sigma_n and can only grow
    assert report.loose_value >= report.value - 1e-15
    gap = jensen_gap(f, dist)
    assert abs(gap.value) <= report.value


def test_cauchy_schwarz_lower_frozen_value():
    f = flat_quartic()
    M = inf_ratio_lower(f, 2.0, 2.0, sign=GAP_ABOVE)
    report = lower_bound_cauchy_schwarz(M, two_point(1.0, 0.5), 2.0, 2.0)
    # M = 4 and the bound reads 2 sigma_1^2
    assert report.value == pytest.approx(0.5, rel=1e-9)
    gap = jensen_gap(f, two_point(1.0, 0.5))
    assert gap.value >= report.value


def test_lower_bound_deficit_side():
    f = flat_log()
    M = inf_ratio_lower(f, 2.0, 1.0, sign=GAP_BELOW)
    dist = two_point(1.0, 0.25)
    report = lower_bound_holder(M, dist, 2.0, 1.0, 1, 2)
    gap = jensen_gap(f, dist)
    assert -gap.value >= report.value > 0


def test_holder_k1_q2_equals_cauchy_schwarz():
    f = flat_quartic()
    M = inf_ratio_lower(f, 2.0, 1.0, sign=GAP_ABOVE)
    dist = two_point(1.0, 0.5)
    cs = lower_bound_cauchy_schwarz(M, dist, 2.0, 1.0)
    holder = lower_bound_holder(M, dist, 2.0, 1.0, 1, 2)
    assert abs(holder.value - cs.value) <= 1e-12 * max(abs(cs.value), 1.0)


def test_holder_single_equals_full_at_top_q():
    f = flat_quartic()
    M = inf_ratio_lower(f, 2.0, 1.0, sign=GAP_ABOVE)
    dist = Discrete(((0.0, 0.3), (1.2, 0.5), (2.0, 0.2)))
    for k in range(1, 11):
        single = lower_bound_holder_single(M, dist, 2.0, 1.0, k)
        full = lower_bound_holder(M, dist, 2.0, 1.0, k, k + 1)
        assert single.kind == "lower_holder_single"
        assert dataclasses.replace(single, kind=full.kind) == full


def test_holder_single_is_k_independent_on_two_points():
    # on a symmetric pair every moment is a power of sigma and the
    # single-term bound collapses to the same value for every k
    f = flat_quartic()
    M = inf_ratio_lower(f, 2.0, 1.0, sign=GAP_ABOVE)
    dist = two_point(1.0, 0.5)
    values = [lower_bound_holder_single(M, dist, 2.0, 1.0, k).value
              for k in (1, 2, 3, 5)]
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-12)


def test_valid_holder_q():
    assert valid_holder_q(1) == [2]
    assert valid_holder_q(3) == [2, 4]
    assert valid_holder_q(5) == [2, 3, 6]
    assert valid_holder_q(6) == [7]


def test_holder_parameter_rejection():
    f = flat_quartic()
    M = inf_ratio_lower(f, 2.0, 1.0, sign=GAP_ABOVE)
    dist = two_point(1.0, 0.5)
    with pytest.raises(InvalidParameterError):
        lower_bound_holder(M, dist, 2.0, 1.0, 0, 2)
    with pytest.raises(InvalidParameterError):
        lower_bound_holder(M, dist, 2.0, 1.0, 3, 3)  # 3 does not divide 4
    with pytest.raises(InvalidParameterError):
        lower_bound_holder(M, dist, 2.0, 1.0, 3, 1)
    with pytest.raises(InvalidParameterError):
        lower_bound_holder_single(M, dist, 2.0, 1.0, 2.5)
    # k and q are counts: non-finite, bool, string or fractional values are
    # typed errors, not ValueError, OverflowError, TypeError or silently 1
    for bad in (math.nan, math.inf, True, "3", 2.5):
        with pytest.raises(InvalidParameterError):
            valid_holder_q(bad)
        with pytest.raises(InvalidParameterError):
            lower_bound_holder(M, dist, 2.0, 1.0, bad, 2)
        with pytest.raises(InvalidParameterError):
            lower_bound_holder(M, dist, 2.0, 1.0, 3, bad)
        with pytest.raises(InvalidParameterError):
            lower_bound_holder_single(M, dist, 2.0, 1.0, bad)
        with pytest.raises(InvalidParameterError):
            general_bounds(f, dist, [(1.0, 1.0), (2.0, 1.0)], "lower", k=bad)


def test_holder_split_checked_before_the_envelope(monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("the envelope was solved")

    monkeypatch.setattr(cli, "inf_ratio_lower", solve)
    code = cli.main(["bound", "--kind", "holder", "--alpha", "2", "--beta", "2",
                     "--k", "1", "--q", "2.5",
                     "--function", '{"kind": "cos", "mu": 0}',
                     "--dist", '{"variant": "two_point", "mu": 0, "sigma": 1}'])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: q must be a divisor of k+1 = 2 with q >= 2, got 2.5\n")


def test_envelope_role_mismatch_rejected():
    f = flat_quartic()
    up = sup_ratio_upper(f, 2.0, 4.0)
    with pytest.raises(InvalidParameterError):
        lower_bound_cauchy_schwarz(up, two_point(1.0, 0.5), 2.0, 4.0)
    lo = inf_ratio_lower(f, 2.0, 2.0, sign=GAP_ABOVE)
    with pytest.raises(InvalidParameterError):
        upper_bound(lo, two_point(1.0, 0.5), 2.0, 2.0)
    # same role but different exponents than the envelope was solved for
    with pytest.raises(InvalidParameterError):
        upper_bound(up, two_point(1.0, 0.5), 2.0, 3.0)


def test_mean_mismatch_rejected():
    f = flat_sine()
    M = sup_ratio_upper(f, 3.0, 3.0)
    with pytest.raises(InvalidParameterError):
        upper_bound(M, two_point(0.5, 0.5), 3.0, 3.0)


# each bound kind on flat_log, whose domain is [0.5, inf), with its value on
# Uniform(0.6, 1.4), a law inside that domain
_ON_FLAT_LOG = {
    "upper": (lambda g, d: upper_bound(sup_ratio_upper(g, 2.0, 2.0), d, 2.0, 2.0),
              0.04120473185278833),
    "lower_cauchy_schwarz": (lambda g, d: lower_bound_cauchy_schwarz(
        inf_ratio_lower(g, 2.0, 1.0, GAP_BELOW), d, 2.0, 1.0), 0.016666666578573748),
    "lower_holder": (lambda g, d: lower_bound_holder(
        inf_ratio_lower(g, 2.0, 1.0, GAP_BELOW), d, 2.0, 1.0, 2, 3), 0.01861839283960242),
    "variance_interval": (variance_interval, (-0.04120473185278833, 3.643359322579482e-16)),
    "general_upper": (lambda g, d: general_bounds(g, d, [(2.0, 1.0), (3.0, 1.0)], "upper"),
                      0.035710767605749885),
    "general_lower": (lambda g, d: general_bounds(g, d, [(1.0, 1.0), (2.0, 1.0)], "lower",
                                                  sign=GAP_BELOW), 0.016666666578573748),
}


@pytest.mark.parametrize("kind", _ON_FLAT_LOG)
def test_law_outside_the_domain_is_refused(kind):
    bound, inside = _ON_FLAT_LOG[kind]
    g = flat_log()
    assert bound(g, Uniform(0.6, 1.4)).value == inside
    # the premise every bound rests on: the law's support lies in f's domain
    for dist in (Gaussian(1.0, 1.0), Uniform(-1.0, 3.0)):
        with pytest.raises(DomainError, match=r"escapes the domain \[0.5, None\] of "
                                              r"log - 1\*\(x-1\)$"):
            bound(g, dist)
    # the mean is checked first, with its own message
    with pytest.raises(InvalidParameterError, match="^envelope is centered at 1.0 but the "
                                                    "distribution mean is 0.75; recenter"):
        bound(g, two_point(0.75, 1.25))


def test_variance_interval_cosine():
    f = make_function("cos", 0.0)
    dist = two_point(0.0, 1.0)
    report = variance_interval(f, dist)
    lo, hi = report.value
    assert lo == pytest.approx(-0.5, rel=1e-6)
    assert abs(hi) <= 1e-12
    gap = jensen_gap(f, dist)
    assert lo - 1e-12 <= gap.value <= hi + 1e-12


def test_variance_interval_square_is_exact():
    f = make_function("polynomial", 0.3, coeffs=[0.0, 0.0, 1.0])
    dist = two_point(0.3, 0.7)
    report = variance_interval(f, dist)
    lo, hi = report.value
    gap = jensen_gap(f, dist)
    # h is identically 1, so both ends equal the gap sigma_2^2
    assert lo == pytest.approx(0.49, rel=1e-6)
    assert hi == pytest.approx(0.49, rel=1e-6)
    assert gap.value == pytest.approx(0.49, rel=1e-12)


def test_variance_interval_unbounded_side():
    f = make_function("pow4", 1.0)
    report = variance_interval(f, Gaussian(1.0, 0.5))
    lo, hi = report.value
    assert hi == math.inf
    assert lo == pytest.approx(2.0 * 0.25, rel=1e-6)
    # records hold plain floats; only the CLI writes them as text
    d = report.to_dict()
    assert d["value"][1] == math.inf and d["envelope_hi"]["value"] == math.inf
    gap = jensen_gap(f, Gaussian(1.0, 0.5))
    assert gap.value >= lo


def test_variance_interval_point_mass_is_zero():
    f = make_function("cos", 0.0)
    report = variance_interval(f, Discrete(((0.0, 1.0),)))
    assert report.value == (0.0, 0.0)


def test_general_upper_matches_specialized():
    f = flat_quartic()
    dist = two_point(1.0, 0.5)
    M = sup_ratio_upper(f, 2.0, 4.0)
    direct = upper_bound(M, dist, 2.0, 4.0)
    general = general_bounds(f, dist, [(2.0, 1.0), (4.0, 1.0)], "upper")
    assert general.value == pytest.approx(direct.value, rel=1e-9)
    assert general.kind == "general_upper"


def test_general_lower_matches_cauchy_schwarz():
    f = flat_quartic()
    dist = two_point(1.0, 0.5)
    M = inf_ratio_lower(f, 2.0, 1.0, sign=GAP_ABOVE)
    direct = lower_bound_cauchy_schwarz(M, dist, 2.0, 1.0)
    general = general_bounds(f, dist, [(1.0, 1.0), (2.0, 1.0)], "lower")
    assert general.value == pytest.approx(direct.value, rel=1e-9)


def test_general_lower_tuple_power_matches_holder_single():
    # one Hoelder spec serves both, so they agree to the last bit; the
    # general expansion lists its orders falling, the Hoelder one rising
    f = flat_quartic()
    laws = [Discrete(((0.0, 0.3), (1.2, 0.5), (2.0, 0.2))), Gaussian(1.0, 0.5),
            Laplace(1.0, 0.4), Uniform(0.5, 1.5), mean_of_n(Uniform(0.5, 1.5), 16)]
    for beta in (1.0, 1.5, 0.3, 1.7):
        M = inf_ratio_lower(f, 2.0, beta, sign=GAP_ABOVE)
        for dist in laws:
            for k in range(1, 11):
                direct = lower_bound_holder_single(M, dist, 2.0, beta, k)
                general = general_bounds(f, dist, [(beta, 1.0), (2.0, 1.0)],
                                         "lower", k=k)
                assert general.value == direct.value, (beta, dist.variant, k)
                assert general.uncertainty == direct.uncertainty
                assert (sorted(m.p for m in general.moments_used)
                        == sorted(m.p for m in direct.moments_used))


def test_general_lower_refuses_the_expansion_cap_before_solving(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the envelope was solved before the cap refused")

    monkeypatch.setattr(bounds, "sup_ratio_general", unreachable)
    terms = [(0.5 + 0.1 * i, 1.0) for i in range(20)]
    with pytest.raises(InvalidParameterError, match="expands past 100000"):
        general_bounds(flat_sine(), two_point(0.0, 0.3), terms, "lower", k=10)


def test_general_upper_single_term():
    f = flat_sine()
    dist = two_point(0.0, 0.3)
    report = general_bounds(f, dist, [(3.0, 1.0 / 6.0)], "upper")
    assert report.value == pytest.approx(0.027 / 6.0, rel=1e-6)


def test_general_rejects_k_for_upper():
    f = flat_sine()
    with pytest.raises(InvalidParameterError):
        general_bounds(f, two_point(0.0, 0.3), [(3.0, 1.0)], "upper", k=2)


def test_uncertainty_zero_on_exact_support():
    f = flat_sine()
    M = sup_ratio_upper(f, 3.0, 3.0)
    report = upper_bound(M, two_point(0.0, 0.5), 3.0, 3.0)
    assert report.uncertainty == 0.0


def test_uncertainty_positive_on_estimated_moments():
    f = flat_sine()
    from jensengap.distributions import Empirical, mean_of_n
    # odd orders on a mean of an empirical base are still Monte Carlo
    M = sup_ratio_upper(f, 3.0, 3.0)
    dist = mean_of_n(Empirical((-1.0, -0.5, 0.25, 1.25)), 4)
    report = upper_bound(M, dist, 3.0, 3.0, seed=1)
    assert report.uncertainty > 0


def _quartic_lower(solve):
    # x^4 at 0 with alpha = 4, beta = 1: M = inf (1 + |x|^3) = 1
    return lambda dist, **kw: solve(inf_ratio_lower(make_function("pow4", 0.0), 4.0, 1.0),
                                    dist, 4.0, 1.0, **kw)


@pytest.mark.parametrize("bound", [
    lambda dist, **kw: upper_bound(sup_ratio_upper(flat_sine(), 3.0, 5.0), dist, 3.0, 5.0,
                                   **kw),
    _quartic_lower(lower_bound_cauchy_schwarz),
    _quartic_lower(lambda M, dist, alpha, beta, **kw:
                   lower_bound_holder(M, dist, alpha, beta, 3, 2, **kw)),
    _quartic_lower(lambda M, dist, alpha, beta, **kw:
                   lower_bound_holder_single(M, dist, alpha, beta, 2, **kw)),
    lambda dist, **kw: general_bounds(flat_sine(), dist, [(3.0, 1.0), (5.0, 0.5)], "upper",
                                      **kw),
    lambda dist, **kw: general_bounds(make_function("pow4", 0.0), dist,
                                      [(1.0, 1.0), (4.0, 1.0)], "lower", k=2, **kw),
], ids=["upper", "lower_cauchy_schwarz", "lower_holder", "lower_holder_single",
        "general_upper", "general_lower"])
def test_monte_carlo_orders_share_one_batch(monkeypatch, bound):
    from jensengap.distributions import Empirical, MeanOfN
    purposes = []
    original = MeanOfN.sample

    def counted(self, count, seed=None, *, purpose="sample"):
        purposes.append(purpose)
        return original(self, count, seed, purpose=purpose)

    monkeypatch.setattr(MeanOfN, "sample", counted)
    dist = mean_of_n(Empirical((-1.0, -0.5, 0.25, 1.25)), 4)
    report = bound(dist, seed=2, samples=4000)
    assert purposes == ["moments"]
    assert "monte_carlo" in {mv.method for mv in report.moments_used}
    # each order alone draws the same batch, so the values are unchanged:
    # every entry point passes its seed and sample count through
    for mv in report.moments_used:
        assert mv == dist.abs_central_moment(mv.p, seed=2, samples=4000)


def test_power_sum_overflow_is_evaluation_error():
    # every moment is finite and the power sum 1.5e8 m_2 + 1e8 m_2.0001
    # passes a double, but M times it, about 5.07e299, fits: the sum is
    # scaled by its largest binary exponent, so it is never formed
    f = make_function("cos", 0.0)
    dist = two_point(0.0, 1e150)
    terms = [(2.0, 1.5e8), (2.0001, 1e8)]
    moments = dist.abs_central_moments([2.0, 2.0001])
    assert all(math.isfinite(m.sigma_p_pow) for m in moments.values())
    report = general_bounds(f, dist, terms, "upper")
    scaled = math.fsum(c * moments[r].sigma_p_pow / 1e300 for r, c in terms)
    assert report.value == pytest.approx(report.envelope.value * scaled * 1e300, rel=1e-15)
    assert report.value == pytest.approx(5.07e299, rel=1e-3)
    assert verify(report, jensen_gap(f, dist)).verdict == "pass"
    # an inf read off an overflow would be a false bound, so a bound that
    # does not fit raises: M = 1 and m_1 = 1e160 are finite, the bound
    # m_1^2 / 2 = 5e319 is not
    f = make_function("polynomial", 0.0, coeffs=[0.0, 0.0, 1.0])
    with pytest.raises(EvaluationError, match="lower_cauchy_schwarz bound"):
        lower_bound_cauchy_schwarz(inf_ratio_lower(f, 2.0, 2.0),
                                   two_point(0.0, 1e160), 2.0, 2.0)


def test_power_sum_bound_fits_though_its_product_overflows():
    # M = 2e10 and m_1^2 = 1e298 are finite and M m_1^2 overflows, but the
    # bound M m_1^2 / (1 + m_0) = 1e308 fits a double, and two points attain it
    f = make_function("polynomial", 0.0, coeffs=[0.0, 0.0, 1e10])
    M = inf_ratio_lower(f, 2.0, 2.0)
    dist = two_point(0.0, 1e149)
    report = lower_bound_cauchy_schwarz(M, dist, 2.0, 2.0)
    gap = jensen_gap(f, dist)
    assert report.value == pytest.approx(1e308, rel=1e-15) and report.value <= gap.value
    assert report.uncertainty == 0.0
    assert verify(report, gap).verdict == "pass"
    # where every power and product fits, the plain expression stands to the last bit
    small = lower_bound_cauchy_schwarz(M, two_point(0.0, 1e100), 2.0, 2.0)
    assert small.value == M.value * 1e100 ** 2.0 / 2.0
