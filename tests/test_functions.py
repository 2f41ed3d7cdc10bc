import dataclasses
import json
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
    _KINDS,
    linear_shift,
    make_function,
    select_shift_slope,
    taylor_coefficients,
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
    # library calls read their parameters as descriptors do
    with pytest.raises(InvalidParameterError, match="is missing 'alpha'"):
        make_function("abs_power", 0.0)
    with pytest.raises(InvalidParameterError, match="'alpha' must be a number, got True"):
        make_function("abs_power", 0.0, alpha=True)
    with pytest.raises(InvalidParameterError, match=r"does not take: \['alpha'\]"):
        make_function("cos", 0.0, alpha=3)
    # a non-finite mu or shift slope is refused before any slope is taken
    for mu in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="'mu' must be a finite number"):
            make_function("cos", mu)
        with pytest.raises(InvalidParameterError, match="'mu' must be a finite number"):
            custom_function(np.cos, mu)
        with pytest.raises(InvalidParameterError, match="'slope' must be a finite number"):
            linear_shift(make_function("sin", 0.0), mu)
    # a kind or slope at mu that no double holds is refused, not a traceback or an inf
    with pytest.raises(InvalidParameterError, match="unknown function kind"):
        make_function([], 0.0)
    with pytest.raises(InvalidParameterError, match="pow4 has no finite slope at mu = 1e"):
        make_function("pow4", 1e200)  # 4 mu^3 raises OverflowError
    with pytest.raises(InvalidParameterError, match="polynomial has no finite slope"):
        make_function("polynomial", 1e200, coeffs=[0.0, 0.0, 1e200])
    with pytest.raises(InvalidParameterError, match="log has no finite slope at mu = 1e-320"):
        make_function("log", 1e-320, domain=[1e-321, None])


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


def test_rule_refusing_an_array_is_read_per_point():
    # a scalar for an array, and an error for an array, both take the
    # per-point fallback
    xs = np.array([0.0, 1.0, 2.0])
    assert eval_many(custom_function(lambda x: 3.0, 0.0), xs).tolist() == [3.0, 3.0, 3.0]
    assert eval_many(custom_function(math.cos, 0.0), xs).tolist() == [math.cos(x) for x in xs]


def test_linear_shift_rule_and_slope():
    f = make_function("sin", 0.0)
    g = linear_shift(f, 1.0)
    assert g.slope_at_mu == pytest.approx(0.0)
    x = 0.9
    assert evaluate(g, x) == pytest.approx(math.sin(x) - x)
    assert evaluate(g, f.mu) == evaluate(f, f.mu)


def test_polynomial_form():
    pow4 = make_function("pow4", 1.0)
    assert pow4.poly == (0.0, 0.0, 0.0, 0.0, 1.0)
    assert make_function("polynomial", 0.5, coeffs=[1, -2, 0.5]).poly == (1.0, -2.0, 0.5)
    # a linear term adds 0 to a gap, so a shift keeps the form as it is
    assert linear_shift(pow4, 4.0).poly == pow4.poly
    for f in (make_function("cos"), make_function("abs_power", alpha=2.0),
              custom_function(lambda x: x * x, 0.0)):
        assert f.poly is None


def test_taylor_coefficients():
    # x^4 at 1 is (1 + t)^4, trailing zeros of the form dropped
    assert taylor_coefficients((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0), 1.0) == [1, 4, 6, 4, 1]
    # 1 - 2x + 3x^2 at -2: f = 17, f' = -14, f''/2 = 3
    assert taylor_coefficients((1.0, -2.0, 3.0), -2.0) == [17.0, -14.0, 3.0]
    assert taylor_coefficients((0.0, 0.0), 5.0) == [0.0]
    with pytest.raises(OverflowError):
        taylor_coefficients((0.0, 0.0, 1.0), 1e200)


def test_linear_shift_refuses_a_slope_past_a_double():
    f = make_function("polynomial", 0.0, coeffs=[0, 1e308])
    with pytest.raises(InvalidParameterError,
                       match=r"slope at mu 1e\+308 less the shift -1e\+308 does not fit"):
        linear_shift(f, -1e308)
    # the descriptor route reads the same shift
    with pytest.raises(InvalidParameterError, match="does not fit a double"):
        function_from_dict({"kind": "shifted", "base": f.to_dict(), "slope": -1e308})
    assert linear_shift(f, 1e308).slope_at_mu == 0.0


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


CATALOG_DESCRIPTORS = [
    {"kind": "sin", "mu": 0.0}, {"kind": "cos", "mu": 0.0},
    {"kind": "log", "mu": 1.0, "domain": [0.5, None]}, {"kind": "sqrt", "mu": 1.0},
    {"kind": "pow4", "mu": 1.0}, {"kind": "polynomial", "mu": 0.0, "coeffs": [0, 0, -1]},
    {"kind": "abs_power", "mu": 0.0, "alpha": 1.5},
    {"kind": "abs_power_sum", "mu": 0.5, "alpha": 1.5, "n": 3.0},
    {"kind": "shifted", "slope": 1.0, "base": {"kind": "polynomial", "mu": 0.0,
                                                "coeffs": [0, 1, 1], "domain": [-2, 2]}},
]


def test_catalog_descriptors_cover_every_kind():
    # a new kind gets the hash and round-trip checks below
    assert {d["kind"] for d in CATALOG_DESCRIPTORS} == set(_KINDS) | {"shifted"}


@pytest.mark.parametrize("desc", CATALOG_DESCRIPTORS, ids=lambda d: d["kind"])
def test_specs_hash_and_compare(desc):
    f = function_from_dict(desc)
    twin = dataclasses.replace(f)
    assert twin == f and hash(twin) == hash(f)
    assert len({f, twin}) == 1
    assert dataclasses.replace(f, mu=f.mu + 1e-3) != f
    # the frozen descriptor reads back as its JSON form, lists and all (a
    # tuple would come back from JSON as a list, and compare unequal)
    assert json.loads(json.dumps(f.to_dict())) == f.to_dict()
    assert function_from_dict(f.to_dict()).to_dict() == f.to_dict()


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
