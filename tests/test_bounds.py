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
from jensengap.errors import InvalidParameterError
from jensengap.functions import (
    GAP_ABOVE,
    GAP_BELOW,
    Interval,
    linear_shift,
    make_function,
)
from jensengap.oracle import jensen_gap


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
    # non-finite k or q: typed errors, not ValueError or OverflowError
    for bad in (math.nan, math.inf):
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


def test_monte_carlo_orders_share_one_batch(monkeypatch):
    from jensengap.distributions import Empirical, MeanOfN, mean_of_n
    purposes = []
    original = MeanOfN.sample

    def counted(self, count, seed=None, *, purpose="sample"):
        purposes.append(purpose)
        return original(self, count, seed, purpose=purpose)

    monkeypatch.setattr(MeanOfN, "sample", counted)
    dist = mean_of_n(Empirical((-1.0, -0.5, 0.25, 1.25)), 4)
    report = general_bounds(flat_sine(), dist, [(3.0, 1.0), (5.0, 0.5)], "upper",
                            seed=2, samples=4000)
    assert purposes == ["moments"]
    # each order alone draws the same batch, so the values are unchanged
    for mv in report.moments_used:
        alone = dist.abs_central_moment(mv.p, seed=2, samples=4000)
        assert mv.method == "monte_carlo" and mv == alone


def test_power_sum_overflow_reads_inf():
    # the exact sum of two finite terms passes a double: the bound is inf,
    # a valid if trivial claim, as a plain float sum gives
    terms = [(2.0, 1.5e8), (2.0001, 1e8)]
    report = general_bounds(make_function("cos", 0.0), two_point(0.0, 1e150),
                            terms, "upper")
    assert all(math.isfinite(m.sigma_p_pow) for m in report.moments_used)
    assert report.value == math.inf
