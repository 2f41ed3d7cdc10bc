import dataclasses
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
from jensengap.errors import DomainError, EvaluationError, InvalidParameterError
from jensengap.functions import (
    GAP_BELOW,
    Interval,
    custom_function,
    linear_shift,
    make_function,
)
from jensengap.oracle import GapEstimate, jensen_gap, verify


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
    # nodes is a count: neither truncated nor parsed from a string
    for bad in (100.7, "64"):
        with pytest.raises(InvalidParameterError, match="nodes must be a positive integer"):
            Gaussian(0.0, 0.5).expect(np.cos, nodes=bad)


def test_scalar_only_rule_matches_builtin():
    # math.cos rejects arrays, so every quadrature node goes one at a time
    dist = Gaussian(0.0, 0.5)
    builtin = jensen_gap(make_function("cos", 0.0), dist)
    scalar = jensen_gap(custom_function(math.cos, 0.0), dist)
    assert scalar.method == "quadrature"
    assert abs(scalar.value - builtin.value) <= scalar.abs_error


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("dist", [
    Gaussian(0.0, 1.0), Laplace(0.0, 1.0), Uniform(-1.0, 1.0),
    mean_of_n(Gaussian(0.0, 1.0), 4), mean_of_n(Laplace(0.0, 1.0), 4),
    mean_of_n(Uniform(-1.0, 1.0), 3), two_point(0.4, 0.1), mean_of_n(two_point(0.4, 0.1), 2),
], ids=["gaussian", "laplace", "uniform", "mean_of_gaussian", "mean_of_laplace",
        "mean_of_uniform", "exact_sum", "monte_carlo"])
def test_non_finite_rule_in_the_support_names_the_function(dist, bad):
    # finite outside the band; the first quadrature pass, the atoms and the
    # draws all fall in it
    rule = lambda x: np.where(np.abs(np.asarray(x) - 0.4) < 0.5, bad, np.cos(x))
    f = custom_function(rule, 0.0, label="banded")
    with pytest.raises(EvaluationError,
                       match=r"^banded returned a non-finite value near x = \[") as exc:
        jensen_gap(f, dist)
    assert abs(float(str(exc.value).rsplit("[", 1)[1].rstrip("]")) - 0.4) < 0.5


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


def test_monte_carlo_gap_without_spread_is_inconclusive():
    f = make_function("cos", 0.0)
    # all five means of three draws from {-1, 1} land on +-1/3, where cos
    # takes one value; the exact gap is -0.156, so a bar of 0 would be false
    dist = mean_of_n(two_point(0.0, 1.0), 3)
    gap = jensen_gap(f, dist, samples=5, seed=1)
    assert gap.method == "monte_carlo" and gap.value == pytest.approx(math.cos(1 / 3) - 1)
    assert gap.abs_error == math.inf
    report = upper_bound(sup_ratio_upper(f, 2.0, 2.0), dist, 2.0, 2.0)
    assert verify(report, gap).verdict == "inconclusive"
    # a point-mass base has no spread to miss, so its bar stays 0
    point = jensen_gap(f, mean_of_n(Empirical((0.5, 0.5)), 3), samples=5, seed=1)
    assert point.method == "monte_carlo" and (point.value, point.abs_error) == (0.0, 0.0)


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
    assert out.to_dict() == dataclasses.asdict(out)

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


def _three_branch_verify(report, gap):
    """The per-kind verdicts that ``verify`` replaced with one interval rule,
    kept as the reference it must reproduce."""
    def slack(v):
        return 1e-12 * max(1.0, abs(v))

    err = gap.abs_error + report.uncertainty
    if report.kind in ("upper", "general_upper"):
        bound = report.value
        lo, hi = abs(gap.value) - err, abs(gap.value) + err
        if hi <= bound + slack(bound):
            return "pass", bound - hi, f"|J| <= {bound:.9g}"
        if lo > bound + slack(bound):
            return ("fail", lo - bound,
                    f"|J| exceeds the upper bound {bound:.9g} by {lo - bound:.3g}")
        return "inconclusive", hi - lo, "error bar straddles the upper bound"
    if report.kind == "variance_interval":
        lo_b, hi_b = report.value
        lo, hi = gap.value - err, gap.value + err
        if lo >= lo_b - slack(lo_b) and hi <= hi_b + slack(hi_b):
            return ("pass", min(hi_b - hi, lo - lo_b),
                    f"J inside [{lo_b:.9g}, {hi_b:.9g}]")
        if hi < lo_b - slack(lo_b) or lo > hi_b + slack(hi_b):
            return ("fail", max(lo_b - hi, lo - hi_b),
                    f"J escapes [{lo_b:.9g}, {hi_b:.9g}]")
        return "inconclusive", err, "error bar straddles an interval endpoint"
    s = -1.0 if dict(report.params).get("sign", "gap_above") == "gap_below" else 1.0
    bound = report.value
    lo, hi = s * gap.value - err, s * gap.value + err
    if lo >= bound - slack(bound):
        return "pass", lo - bound, f"signed gap >= lower bound {bound:.9g}"
    if hi < bound - slack(bound):
        return ("fail", bound - hi,
                f"signed gap falls short of the lower bound {bound:.9g} "
                f"by {bound - hi:.3g}")
    return "inconclusive", hi - lo, "error bar straddles the lower bound"


def _random_end(rng, g, err):
    """A claimed interval end: half of them on an end of the error bar of
    g, +g or |g| to within an ulp-sized nudge (the slack's territory), the
    rest spread wide."""
    if rng.random() < 0.5:
        near = [s * g + t * err for s in (1.0, -1.0) for t in (1.0, -1.0)]
        near += [abs(g) + err, abs(g) - err]
        return near[rng.integers(len(near))] * (1.0 + rng.choice([-1e-13, 0.0, 1e-13]))
    return float(rng.normal(scale=2.0 * abs(g) + 1e-3))


def test_verify_matches_the_three_branch_rule():
    rng = np.random.default_rng(20240611)
    kinds = ["upper", "general_upper", "variance_interval", "lower_cauchy_schwarz",
             "lower_holder", "lower_holder_single", "general_lower"]
    errors = [0.0, 0.0, 1e-13, 1e-3, 0.3, 1e200]
    seen = set()
    for _ in range(4000):
        kind = kinds[rng.integers(len(kinds))]
        g = float(rng.normal(scale=10.0 ** rng.integers(-3, 3)))
        gap_err = errors[rng.integers(len(errors))]
        unc = errors[rng.integers(len(errors))]
        err = gap_err + unc
        if kind == "variance_interval":
            lo_b, hi_b = sorted((_random_end(rng, g, err), _random_end(rng, g, err)))
            value = (-math.inf if rng.random() < 0.2 else lo_b,
                     math.inf if rng.random() < 0.2 else hi_b)
            params = ()
        else:
            value = _random_end(rng, g, err)
            sign = rng.choice(["gap_above", GAP_BELOW, "none"])
            params = (("alpha", 2.0),) + (() if sign == "none" else (("sign", str(sign)),))
        report = BoundReport(kind=kind, value=value, mu=0.0, envelope=None,
                             moments_used=(), params=params, valid=True,
                             uncertainty=unc)
        gap = GapEstimate(value=g, method="exact_sum", abs_error=gap_err,
                          count=1, mu=0.0)
        verdict, margin, detail = _three_branch_verify(report, gap)
        if kind == "variance_interval" and verdict == "inconclusive":
            # the one declared change: the margin is the bar's width
            margin = (g + err) - (g - err)
        out = verify(report, gap)
        assert (out.verdict, out.detail) == (verdict, detail), (report, gap)
        assert out.margin == margin or (math.isnan(out.margin) and math.isnan(margin))
        seen.add((kind, verdict))
    assert len(seen) == 3 * len(kinds)
