import math

import numpy as np
import pytest

from jensengap.errors import (
    DomainError,
    EvaluationError,
    InvalidParameterError,
)
from jensengap.functions import (
    GAP_ABOVE,
    GrowthDeclaration,
    Interval,
    custom_function,
    evaluate,
    eval_many,
    function_from_dict,
    linear_shift,
    make_function,
    select_shift_slope,
    validate_growth,
)


def test_interval_basics():
    box = Interval(-1.0, 2.0)
    assert box.contains(-1.0) and box.contains(2.0) and box.contains(0.3)
    assert not box.contains(2.0001)
    assert Interval().contains(1e300)
    # a single point is a legal support interval
    assert Interval(0.5, 0.5).contains(0.5)


def test_interval_rejects_bad_endpoints():
    with pytest.raises(InvalidParameterError):
        Interval(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        Interval(math.nan, 1.0)


def test_interval_list_round_trip():
    box = Interval(0.25, math.inf)
    assert box.to_list() == [0.25, None]
    again = Interval.from_list(box.to_list())
    assert again == box


def test_builtin_kinds_evaluate():
    assert evaluate(make_function("sin", 0.0), 0.7) == pytest.approx(math.sin(0.7))
    assert evaluate(make_function("cos", 0.0), 0.7) == pytest.approx(math.cos(0.7))
    assert evaluate(make_function("pow4", 1.0), 1.3) == pytest.approx(1.3 ** 4)
    assert evaluate(make_function("sqrt", 1.0), 2.25) == pytest.approx(1.5)
    log = make_function("log", 1.0, domain=Interval(0.5, math.inf))
    assert evaluate(log, math.e) == pytest.approx(1.0)
    poly = make_function("polynomial", 0.0, coeffs=[1.0, 0.0, 2.0])
    assert evaluate(poly, 3.0) == pytest.approx(19.0)
    f = make_function("abs_power", 0.0, alpha=1.5)
    assert evaluate(f, -4.0) == pytest.approx(8.0)
    g = make_function("abs_power_sum", 0.0, alpha=1.5, n=3.0)
    assert evaluate(g, 2.0) == pytest.approx(2.0 ** 1.5 + 8.0)


def test_declared_slopes():
    assert make_function("sin", 0.0).slope_at_mu == pytest.approx(1.0)
    assert make_function("cos", 0.0).slope_at_mu == pytest.approx(0.0)
    assert make_function("pow4", 1.0).slope_at_mu == pytest.approx(4.0)
    assert make_function("sqrt", 1.0).slope_at_mu == pytest.approx(0.5)
    log = make_function("log", 2.0, domain=Interval(0.5, math.inf))
    assert log.slope_at_mu == pytest.approx(0.5)
    assert make_function("abs_power", 0.0, alpha=2.0).slope_at_mu == 0.0
    # below a kink's exponent there is no usable slope
    assert make_function("abs_power", 0.0, alpha=0.5).slope_at_mu is None


def test_make_function_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        make_function("nonsense", 0.0)
    with pytest.raises(InvalidParameterError):
        make_function("log", 1.0)  # domain is mandatory
    with pytest.raises(InvalidParameterError):
        make_function("log", 1.0, domain=Interval(-1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        make_function("log", -2.0, domain=Interval(0.5, math.inf))
    with pytest.raises(InvalidParameterError):
        make_function("abs_power", 0.0, alpha=-1.0)
    with pytest.raises(InvalidParameterError):
        make_function("abs_power_sum", 0.0, alpha=3.0, n=2.0)
    with pytest.raises(InvalidParameterError):
        make_function("polynomial", 0.0, coeffs=[])


def test_evaluate_guards():
    log = make_function("log", 1.0, domain=Interval(0.5, math.inf))
    with pytest.raises(DomainError):
        evaluate(log, 0.1)
    spike = custom_function(lambda x: np.where(np.asarray(x) == 0.0, np.inf, 1.0),
                            1.0, slope_at_mu=0.0)
    with pytest.raises(EvaluationError):
        evaluate(spike, 0.0)


def test_eval_many_matches_scalar():
    f = make_function("pow4", 1.0)
    xs = np.array([-1.0, 0.5, 2.0])
    assert eval_many(f, xs) == pytest.approx([evaluate(f, x) for x in xs])


def test_linear_shift_rule_and_slope():
    f = make_function("sin", 0.0)
    g = linear_shift(f, 1.0)
    assert g.slope_at_mu == pytest.approx(0.0)
    x = 0.9
    assert evaluate(g, x) == pytest.approx(math.sin(x) - x)
    assert evaluate(g, f.mu) == evaluate(f, f.mu)


def test_select_shift_slope_declared_and_estimated():
    assert select_shift_slope(make_function("pow4", 1.0)) == pytest.approx(4.0)
    cube = custom_function(lambda x: np.asarray(x) ** 3, 0.7)
    assert cube.slope_at_mu is None
    assert select_shift_slope(cube) == pytest.approx(3 * 0.7 ** 2, rel=1e-7)


def test_select_shift_slope_kink_midpoint():
    vee = custom_function(lambda x: np.abs(x), 0.0)
    # subgradient midpoint of [-1, 1], not an average across the kink
    assert abs(select_shift_slope(vee)) < 1e-6


@pytest.mark.parametrize("domain", [(0.0, math.inf), (-math.inf, 0.0)])
def test_select_shift_slope_one_sided_at_domain_end(domain):
    # only one side of mu lies in the domain: a one-sided pair, refined
    cubic = custom_function(lambda x: np.asarray(x) ** 3 + 2.0 * np.asarray(x),
                            0.0, domain=domain)
    assert select_shift_slope(cubic) == pytest.approx(2.0, rel=1e-9)


def test_function_dict_round_trip():
    f = make_function("abs_power_sum", 0.5, alpha=1.5, n=3.0)
    g = function_from_dict(f.to_dict())
    assert g.mu == f.mu
    for x in (-2.0, 0.5, 4.0):
        assert evaluate(g, x) == evaluate(f, x)
    shifted = linear_shift(make_function("sin", 0.0), 1.0)
    back = function_from_dict(shifted.to_dict())
    assert evaluate(back, 0.9) == pytest.approx(evaluate(shifted, 0.9))


def test_validate_growth_accepts_and_rejects():
    flat_sine = linear_shift(make_function("sin", 0.0), 1.0)
    report = validate_growth(flat_sine, GrowthDeclaration("upper", alpha=3.0, n=3.0))
    assert report.passed
    # alpha = n = 3 on a function that only decays quadratically near mu
    steep = GrowthDeclaration("upper", alpha=4.0, n=4.0)
    assert not validate_growth(flat_sine, steep).passed


def test_validate_growth_lower_sign_violation():
    cosine = make_function("cos", 0.0)
    decl = GrowthDeclaration("lower", alpha=2.0, beta=2.0, sign=GAP_ABOVE)
    report = validate_growth(cosine, decl)
    assert not report.passed
    assert "sign" in report.message


def test_validate_growth_rejects_fractional_alpha_on_linear_approach():
    # f - f(mu) behaves like x near mu, so |f - f(mu)| / |x|^1.5 blows up
    rising = make_function("polynomial", 0.0, coeffs=(0.0, 1.0, 1.0))
    decl = GrowthDeclaration("upper", alpha=1.5, n=2.0)
    assert not validate_growth(rising, decl).passed
