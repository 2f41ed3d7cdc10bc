import math

import numpy as np
import pytest

from jensengap.bounds import BoundReport, upper_bound
from jensengap.distributions import (
    DEFAULT_NODES,
    Empirical,
    Gaussian,
    Laplace,
    Uniform,
    mean_of_n,
    two_point,
)
from jensengap.envelope import sup_ratio_upper
from jensengap.errors import DomainError, InvalidParameterError
from jensengap.functions import (
    GAP_BELOW,
    Interval,
    custom_function,
    linear_shift,
    make_function,
)
from jensengap.oracle import jensen_gap, verify


def test_discrete_gap_is_exact():
    f = make_function("pow4", 1.0)
    gap = jensen_gap(f, two_point(1.0, 0.5))
    # ((1.5)^4 + (0.5)^4)/2 - 1
    assert gap.value == pytest.approx(1.5625, rel=1e-15)
    assert gap.abs_error == 0.0
    assert gap.method == "exact_sum"


def test_gaussian_cosine_gap_closed_form():
    sigma = 0.5
    gap = jensen_gap(make_function("cos", 0.0), Gaussian(0.0, sigma))
    want = math.exp(-sigma * sigma / 2.0) - 1.0
    assert abs(gap.value - want) <= gap.abs_error + 1e-12
    assert gap.method == "quadrature"


@pytest.mark.parametrize("nodes", [42, 210, 2048])
def test_nodes_caps_quadrature_evaluations(nodes):
    sigma = 0.5
    gap = jensen_gap(make_function("cos", 0.0), Gaussian(0.0, sigma), nodes=nodes)
    want = math.exp(-sigma * sigma / 2.0) - 1.0
    assert 42 <= gap.count <= nodes
    assert abs(gap.value - want) <= gap.abs_error + 1e-12


def test_nodes_below_two_rules_rejected():
    with pytest.raises(InvalidParameterError):
        jensen_gap(make_function("cos", 0.0), Gaussian(0.0, 0.5), nodes=41)
    with pytest.raises(InvalidParameterError):
        jensen_gap(make_function("cos", 0.0), Uniform(-1.0, 1.0), nodes=41)


def test_scalar_only_rule_matches_builtin():
    # math.cos rejects arrays, so every quadrature node goes one at a time
    dist = Gaussian(0.0, 0.5)
    builtin = jensen_gap(make_function("cos", 0.0), dist)
    scalar = jensen_gap(custom_function(math.cos, 0.0), dist)
    assert scalar.method == "quadrature"
    assert abs(scalar.value - builtin.value) <= scalar.abs_error


@pytest.mark.parametrize("dist, want", [
    (Uniform(-1.0, 1.0), 2.0 / 3.0),
    # E|X|^(1/2) = 2^(1/4) Gamma(3/4) / sqrt(pi) for a standard normal
    (Gaussian(0.0, 1.0), 2.0 ** 0.25 * math.gamma(0.75) / math.sqrt(math.pi)),
])
def test_cusp_at_mean_within_stated_error(dist, want):
    gap = jensen_gap(make_function("abs_power", 0.0, alpha=0.5), dist)
    assert gap.method == "quadrature"
    # converged within the default budget, not cut off with a large estimate
    assert gap.count < DEFAULT_NODES
    assert gap.abs_error <= 1e-7
    assert abs(gap.value - want) <= gap.abs_error


def test_odd_function_gap_is_zero():
    gap = jensen_gap(make_function("sin", 0.0), two_point(0.0, 0.8))
    assert gap.value == 0.0


def test_convex_gap_nonnegative_concave_nonpositive():
    assert jensen_gap(make_function("pow4", 0.2), Uniform(-1.0, 1.4)).value > 0
    log = make_function("log", 1.0, domain=Interval(0.5, math.inf))
    assert jensen_gap(log, Uniform(0.6, 1.4)).value < 0


def test_gap_is_shift_invariant():
    f = make_function("cos", 0.0)
    dist = two_point(0.0, 1.1)
    base = jensen_gap(f, dist)
    for a in (-2.0, 0.5, 3.7):
        shifted = jensen_gap(linear_shift(f, a), dist)
        scale = max(abs(base.value), 1.0)
        assert abs(shifted.value - base.value) <= 8 * np.finfo(float).eps * scale


def test_monte_carlo_error_shrinks_with_samples():
    f = make_function("cos", 0.0)
    # a mean of an empirical base has no exact gap route
    dist = mean_of_n(Empirical((-1.0, -0.5, 0.25, 1.25)), 4)
    small = jensen_gap(f, dist, samples=10_000, seed=2)
    large = jensen_gap(f, dist, samples=40_000, seed=2)
    assert small.method == "monte_carlo"
    ratio = small.abs_error / large.abs_error
    # 4x the samples halves the error bar
    assert 1.5 <= ratio <= 2.7


def test_support_outside_domain_rejected():
    log = make_function("log", 1.0, domain=Interval(0.5, math.inf))
    with pytest.raises(DomainError):
        jensen_gap(log, Gaussian(1.0, 0.1))
    with pytest.raises(DomainError):
        jensen_gap(log, Uniform(0.1, 2.0))


def test_verify_upper_pass_fail_inconclusive():
    f = make_function("cos", 0.0)
    dist = two_point(0.0, 1.0)
    M = sup_ratio_upper(f, 2.0, 2.0)
    report = upper_bound(M, dist, 2.0, 2.0)
    gap = jensen_gap(f, dist)
    out = verify(report, gap)
    assert out.verdict == "pass"
    assert out.margin == pytest.approx(report.value - abs(gap.value))

    tight = BoundReport(kind="upper", value=0.1, mu=0.0, envelope=M,
                        moments_used=report.moments_used, params=report.params,
                        valid=True, uncertainty=0.0)
    assert verify(tight, gap).verdict == "fail"

    fuzzy = BoundReport(kind="upper", value=0.45, mu=0.0, envelope=M,
                        moments_used=report.moments_used, params=report.params,
                        valid=True, uncertainty=0.02)
    assert verify(fuzzy, gap).verdict == "inconclusive"


def test_verify_lower_respects_sign():
    log = make_function("log", 1.0, domain=Interval(0.5, math.inf))
    gap = jensen_gap(log, two_point(1.0, 0.25))
    assert gap.value < 0
    report = BoundReport(kind="lower_cauchy_schwarz", value=0.01, mu=1.0,
                         envelope=None, moments_used=(),
                         params=(("sign", GAP_BELOW),), valid=True,
                         uncertainty=0.0)
    out = verify(report, gap)
    # deficit -gap exceeds 0.01, so the claim holds
    assert out.verdict == "pass"


def test_verify_lower_fail_and_inconclusive():
    f = make_function("cos", 0.0)
    gap = jensen_gap(f, two_point(0.0, 1.0))

    def lower(value, uncertainty):
        return BoundReport(kind="lower_cauchy_schwarz", value=value, mu=0.0,
                           envelope=None, moments_used=(),
                           params=(("sign", GAP_BELOW),), valid=True,
                           uncertainty=uncertainty)

    deficit = -gap.value
    out = verify(lower(deficit + 0.1, 0.0), gap)
    assert out.verdict == "fail"
    assert out.margin == pytest.approx(0.1)
    out = verify(lower(deficit, 0.05), gap)
    assert out.verdict == "inconclusive"
    assert out.margin == pytest.approx(0.1)


def test_verify_interval_containment():
    f = make_function("cos", 0.0)
    dist = two_point(0.0, 1.0)
    gap = jensen_gap(f, dist)
    report = BoundReport(kind="variance_interval", value=(-0.5, 0.0), mu=0.0,
                         envelope=None, moments_used=(), params=(),
                         valid=True, uncertainty=0.0)
    assert verify(report, gap).verdict == "pass"
    report = BoundReport(kind="variance_interval", value=(-math.inf, math.inf),
                         mu=0.0, envelope=None, moments_used=(), params=(),
                         valid=True, uncertainty=0.0)
    assert verify(report, gap).verdict == "pass"
    report = BoundReport(kind="variance_interval", value=(-0.2, 0.0), mu=0.0,
                         envelope=None, moments_used=(), params=(),
                         valid=True, uncertainty=0.0)
    assert verify(report, gap).verdict == "fail"


def test_verify_rejects_mismatched_mean():
    f = make_function("cos", 0.0)
    gap = jensen_gap(f, two_point(0.0, 1.0))
    report = BoundReport(kind="upper", value=1.0, mu=0.4, envelope=None,
                         moments_used=(), params=(), valid=True,
                         uncertainty=0.0)
    with pytest.raises(InvalidParameterError):
        verify(report, gap)


def test_mean_outside_domain_rejected():
    f = make_function("sqrt", 1.0)
    heavy = Laplace(1.0, 0.3)
    # laplace support covers negatives, outside sqrt's domain
    with pytest.raises(DomainError):
        jensen_gap(f, heavy)
