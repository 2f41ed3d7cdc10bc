import dataclasses
import math

import numpy as np
import pytest

from jensengap import envelope
from jensengap.bounds import general_bounds, upper_bound, variance_interval
from jensengap.distributions import Discrete, Gaussian, Uniform, two_point
from jensengap.envelope import (
    AT_INFINITY,
    AT_MU,
    INTERIOR,
    MAX_REFINE_ITERATIONS,
    _golden_lockstep,
    check_terms,
    curvature_envelope,
    inf_ratio_lower,
    sup_ratio_general,
    sup_ratio_upper,
)
from jensengap.errors import (
    ConditionViolationError,
    DegenerateEnvelopeError,
    DerivativeEstimateError,
    InvalidParameterError,
    UnboundedEnvelopeError,
)
from jensengap.functions import (
    GAP_ABOVE,
    GAP_BELOW,
    GrowthDeclaration,
    Interval,
    custom_function,
    eval_many,
    evaluate,
    linear_shift,
    make_function,
    validate_growth,
)
from jensengap.oracle import jensen_gap, verify
from jensengap.sweeps import mean_of_n_sweep


def flat_sine():
    return linear_shift(make_function("sin", 0.0), 1.0)


def flat_log(a=0.5):
    f = make_function("log", 1.0, domain=Interval(a, math.inf))
    return linear_shift(f, 1.0)


def flat_sqrt():
    return linear_shift(make_function("sqrt", 1.0), 0.5)


def flat_quartic():
    return linear_shift(make_function("pow4", 1.0), 4.0)


# ---------------------------------------------------------------------------
# Frozen constants

def test_sine_cubic_constant():
    m = sup_ratio_upper(flat_sine(), 3.0, 3.0)
    assert m.value == pytest.approx(1.0 / 12.0, rel=1e-6)
    assert m.location == AT_MU


def test_sine_quadratic_constant():
    m = sup_ratio_upper(flat_sine(), 2.0, 2.0)
    assert m.value == pytest.approx(0.5 / math.pi, rel=1e-6)
    assert m.location == INTERIOR
    assert abs(abs(m.arg) - math.pi) < 1e-5


def test_sine_linear_constant_no_shift():
    m = sup_ratio_upper(make_function("sin", 0.0), 1.0, 1.0)
    assert m.value == pytest.approx(0.5, rel=1e-9)
    assert m.location == AT_MU


def test_log_upper_constant_at_left_endpoint():
    a = 0.5
    m = sup_ratio_upper(flat_log(a), 2.0, 2.0)
    want = (a - 1.0 - math.log(a)) / (1.0 - a) ** 2 / 2.0
    assert m.value == pytest.approx(want, rel=1e-9)
    assert m.arg == pytest.approx(a)


def test_log_lower_constant():
    m = inf_ratio_lower(flat_log(), 2.0, 1.0, sign=GAP_BELOW)
    assert m.value == pytest.approx(0.5, rel=1e-6)
    assert m.location == AT_MU


def test_sqrt_constants():
    up = sup_ratio_upper(flat_sqrt(), 2.0, 2.0)
    assert up.value == pytest.approx(0.25, rel=1e-9)
    assert up.arg == pytest.approx(0.0)
    lo = inf_ratio_lower(flat_sqrt(), 2.0, 1.0, sign=GAP_BELOW)
    assert lo.value == pytest.approx(0.125, rel=1e-6)


def test_quartic_constants():
    up = sup_ratio_upper(flat_quartic(), 2.0, 4.0)
    assert up.value == pytest.approx(0.5 * (7.0 + math.sqrt(41.0)), rel=1e-9)
    assert up.location == INTERIOR
    lo = inf_ratio_lower(flat_quartic(), 2.0, 2.0, sign=GAP_ABOVE)
    assert lo.value == pytest.approx(4.0, rel=1e-9)
    assert lo.arg == pytest.approx(-1.0, abs=2e-3)


def test_pure_power_ratio_is_exactly_one():
    f = make_function("abs_power_sum", 0.0, alpha=1.5, n=3.0)
    m = sup_ratio_upper(f, 1.5, 3.0)
    assert m.value == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Certificate: the reported constant dominates a dense probe set

def _probe_offsets(count=10_000):
    # quasi-random log-spaced probes across twelve decades
    base = np.geomspace(1e-6, 1e6, count)
    jitter = np.cos(np.arange(count) * 2.39996) * 0.49 + 0.5
    return base * (10.0 ** (jitter * 0.012))


def _probe_noise(fx, fmu, den):
    # rounding allowance on a probed ratio; near mu the difference f(x)-f(mu)
    # cancels and a probe proves nothing, which this term encodes
    eps = np.finfo(float).eps
    return 1600.0 * eps * (np.abs(fx) + abs(fmu) + 1.0) / den


@pytest.mark.parametrize("factory,alpha,n", [
    (flat_sine, 3.0, 3.0),
    (flat_sine, 2.0, 2.0),
    (flat_quartic, 2.0, 4.0),
    (flat_log, 2.0, 2.0),
])
def test_sup_certificate_dominates_probes(factory, alpha, n):
    f = factory()
    m = sup_ratio_upper(f, alpha, n)
    fmu = evaluate(f, f.mu)
    offs = _probe_offsets()
    for sgn in (+1.0, -1.0):
        xs = f.mu + sgn * offs
        keep = (xs >= f.domain.lo) & (xs <= f.domain.hi)
        if not keep.any():
            continue
        t = np.abs(xs[keep] - f.mu)
        den = t ** alpha + t ** n
        fx = eval_many(f, xs[keep])
        r = np.abs(fx - fmu) / den
        bound = m.value * (1.0 + 1e-6) + _probe_noise(fx, fmu, den) + 1e-12
        assert (r <= bound).all()


@pytest.mark.parametrize("factory,alpha,beta,sign", [
    (flat_quartic, 2.0, 2.0, GAP_ABOVE),
    (flat_log, 2.0, 1.0, GAP_BELOW),
    (flat_sqrt, 2.0, 1.0, GAP_BELOW),
])
def test_inf_certificate_below_probes(factory, alpha, beta, sign):
    f = factory()
    m = inf_ratio_lower(f, alpha, beta, sign=sign)
    fmu = evaluate(f, f.mu)
    offs = _probe_offsets()
    for sgn in (+1.0, -1.0):
        xs = f.mu + sgn * offs
        keep = (xs >= f.domain.lo) & (xs <= f.domain.hi)
        if not keep.any():
            continue
        t = np.abs(xs[keep] - f.mu)
        fx = eval_many(f, xs[keep])
        diff = fx - fmu
        signed = diff if sign == GAP_ABOVE else -diff
        w = signed * (t ** -beta + t ** -alpha)
        den = 1.0 / (t ** -beta + t ** -alpha)
        floor = m.value * (1.0 - 1e-6) - _probe_noise(fx, fmu, den) - 1e-12
        assert (w >= floor).all()


# ---------------------------------------------------------------------------
# Locations, ties, diagnostics

def test_constant_ratio_tie_breaks_to_mu():
    # x^2 with alpha = n = 2 has ratio 1/2 everywhere; report the mu limit
    f = make_function("polynomial", 0.0, coeffs=[0.0, 0.0, 1.0])
    m = sup_ratio_upper(f, 2.0, 2.0)
    assert m.value == pytest.approx(0.5, rel=1e-12)
    assert m.location == AT_MU


def test_envelope_reports_role_and_params():
    m = sup_ratio_upper(flat_sine(), 3.0, 3.0)
    assert m.role == "upper_sup"
    assert dict(m.params)["alpha"] == 3.0
    d = m.to_dict()
    assert list(d) == ["value", "arg", "location", "role", "mu", "params",
                       "validated", "diag"]
    assert d["role"] == "upper_sup" and d["params"] == dict(m.params)
    assert d["diag"]["probes"] > 0


def test_curvature_envelope_cosine():
    lo, hi = curvature_envelope(make_function("cos", 0.0))
    assert lo.value == pytest.approx(-0.5, rel=1e-6)
    assert hi.value <= 1e-12
    assert lo.role == "curvature_inf" and hi.role == "curvature_sup"


def test_curvature_envelope_square_is_constant():
    f = make_function("polynomial", 0.3, coeffs=[0.0, 0.0, 1.0])
    lo, hi = curvature_envelope(f)
    assert lo.value == pytest.approx(1.0, rel=1e-6)
    assert hi.value == pytest.approx(1.0, rel=1e-6)


def test_curvature_envelope_quartic_unbounded_above():
    lo, hi = curvature_envelope(make_function("pow4", 1.0))
    assert lo.value == pytest.approx(2.0, rel=1e-6)
    assert hi.value == math.inf
    assert hi.location == AT_INFINITY


def test_curvature_envelope_cusp_unbounded_at_mu():
    # |x|^1.5 has h = |x|^-0.5, which climbs too slowly over the trusted
    # probes for the divergence test but never levels off
    lo, hi = curvature_envelope(make_function("abs_power", 0.0, alpha=1.5))
    assert hi.value == math.inf
    assert hi.location == AT_MU
    assert lo.value <= 1e-12


def test_variance_interval_cusp_verifies():
    f = make_function("abs_power", 0.0, alpha=1.5)
    dist = two_point(0.0, 1e-6)
    report = variance_interval(f, dist)
    assert report.value[1] == math.inf
    assert verify(report, jensen_gap(f, dist)).verdict == "pass"


def test_curvature_diagnostics_cosine():
    for h in curvature_envelope(make_function("cos", 0.0)):
        assert (h.diag.probes, h.diag.refinements) == (800, 1080)


# ---------------------------------------------------------------------------
# Lockstep refinement

def _scalar_golden(w, lo, hi):
    # Scalar golden-section search; every lockstep bracket must match it bit
    # for bit.
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = w(c), w(d)
    iters = 0
    while hi - lo > 1e-10 and iters < MAX_REFINE_ITERATIONS:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = w(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = w(d)
        iters += 1
    return (c if fc >= fd else d), max(fc, fd), hi - lo, iters


def _wavy(idx, t):
    return np.sin(3.0 * t + idx) - 0.05 * (t - 0.1 * idx) ** 2


def test_golden_lockstep_matches_scalar_search():
    rng = np.random.default_rng(20)
    lo = rng.uniform(-5.0, 5.0, 40)
    # widths from below the 1e-10 stop to past the iteration cap
    hi = lo + 10.0 ** rng.uniform(-11.0, 3.0, 40)
    t, w, width, iters = _golden_lockstep(_wavy, lo, hi)
    assert iters.min() == 0 and iters.max() == MAX_REFINE_ITERATIONS
    for i in range(len(lo)):
        ref = _scalar_golden(
            lambda x, i=i: float(_wavy(np.array([i]), np.array([x]))[0]),
            float(lo[i]), float(hi[i]),
        )
        assert (float(t[i]), float(w[i]), float(width[i]), int(iters[i])) == ref


# Interior extrema pinned to the last bit, as the scalar golden-section
# search found them: (value, arg, refinements, bracket_width).
@pytest.mark.parametrize("solve, want", [
    (lambda: curvature_envelope(make_function("sin", 0.7))[0],
     (-0.43916250203971974, 2.44159261119602, 401, 7.276945712675342e-11)),
    (lambda: curvature_envelope(make_function("sin", 0.7))[1],
     (0.1684083636783095, -3.8415926370160625, 401, 7.276934610445096e-11)),
    (lambda: sup_ratio_upper(make_function("cos", 0.0), 1.0, 1.0),
     (0.36230567688835424, 2.3311223505820755, 1080, 7.276945712675342e-11)),
    (lambda: inf_ratio_lower(flat_quartic(), 2.0, 1.0),
     (5.615099820540249, -0.5773502597785793, 131, 7.276945712675342e-11)),
], ids=["curvature_inf_sin", "curvature_sup_sin", "upper_cos", "lower_quartic"])
def test_interior_attainment_bits(solve, want):
    m = solve()
    assert m.location == INTERIOR
    assert (m.value, m.arg, m.diag.refinements, m.diag.bracket_width) == want


def _counting_cos():
    calls = []

    def rule(x):
        calls.append(x)
        return np.cos(x)

    return custom_function(rule, 0.0, slope_at_mu=0.0, label="cos"), calls


def test_rule_call_budget():
    f, calls = _counting_cos()
    curvature_envelope(f)
    assert len(calls) <= 100
    calls.clear()
    sup_ratio_upper(f, 2.0, 2.0)
    assert len(calls) <= 100


def test_variance_interval_solves_curvature_once_per_spec():
    f, calls = _counting_cos()
    per_call = []
    for sigma in (0.1, 0.5, 1.0, 2.0):
        before = len(calls)
        variance_interval(f, two_point(0.0, sigma))
        per_call.append(len(calls) - before)
    assert per_call[0] > 0 and per_call[1:] == [0, 0, 0]
    assert len(calls) <= 100


def test_equal_specs_solve_bit_identical_curvature():
    a, b = make_function("cos", 0.0), make_function("cos", 0.0)
    solved = curvature_envelope(a)
    # the kept pair takes no part in equality or hashing
    assert a == b
    c, d = custom_function(np.cos, 0.0), custom_function(np.cos, 0.0)
    curvature_envelope(c)
    assert c == d and hash(c) == hash(d)
    again = curvature_envelope(b)
    assert again is not solved
    for x, y in zip(solved, again):
        assert x.value.hex() == y.value.hex()
        assert (x.arg, x.location, x.diag) == (y.arg, y.location, y.diag)
        assert x.to_dict() == y.to_dict()


def test_derived_specs_solve_their_own_curvature():
    f, calls = _counting_cos()
    solved = curvature_envelope(f)
    for g in (linear_shift(f, 0.5),
              dataclasses.replace(f, mu=0.25, slope_at_mu=-math.sin(0.25))):
        before = len(calls)
        h_lo, h_hi = curvature_envelope(g)
        assert len(calls) > before
        assert h_lo.mu == h_hi.mu == g.mu
    assert curvature_envelope(f) is solved


@pytest.mark.parametrize("slope, error", [
    (None, DerivativeEstimateError),
    (0.0, InvalidParameterError),
], ids=["no_slope", "no_probe_room"])
def test_failed_curvature_solve_raises_every_time(slope, error):
    f = custom_function(np.cos, 0.0, domain=[0.0, 0.0], slope_at_mu=slope)
    for _ in range(2):
        with pytest.raises(error):
            curvature_envelope(f)
        with pytest.raises(error):
            variance_interval(f, Discrete(((0.0, 1.0),)))


def test_variance_interval_checks_mean_before_solving():
    def unusable(x):
        raise AssertionError("the curvature was solved")

    f = custom_function(unusable, 0.0)
    with pytest.raises(InvalidParameterError, match="distribution mean is 1.0"):
        variance_interval(f, two_point(1.0, 0.5))


@pytest.fixture
def solves(monkeypatch):
    """The label of every spec the envelope solver runs on, in call order."""
    seen = []
    optimize = envelope._optimize

    def counted(*args, **kwargs):
        seen.append(args[0].label)
        return optimize(*args, **kwargs)

    monkeypatch.setattr(envelope, "_optimize", counted)
    return seen


def _square():
    return make_function("polynomial", 0.0, coeffs=(0.0, 0.0, 1.0))


@pytest.mark.parametrize("solve", [
    lambda f: sup_ratio_upper(f, 2.0, 2.0),
    lambda f: inf_ratio_lower(f, 2.0, 2.0),
    lambda f: sup_ratio_general(f, ((2.0, 1.0), (4.0, 1.0)), "sup"),
], ids=["upper", "lower", "general"])
def test_declared_constant_is_solved_once_per_spec(solves, solve):
    f = _square()
    first = solve(f)
    assert len(solves) == 1
    assert solve(f) is first
    assert len(solves) == 1


def test_each_declaration_keeps_its_own_constant(solves):
    f = _square()
    calls = [
        lambda: sup_ratio_upper(f, 2.0, 2.0),
        lambda: sup_ratio_upper(f, 1.0, 2.0),
        lambda: sup_ratio_upper(f, 2.0, 3.0),
        # the same declaration and terms as the general sup below
        lambda: sup_ratio_upper(f, 2.0, 2.5),
        lambda: sup_ratio_general(f, ((2.0, 1.0), (2.5, 1.0)), "sup"),
        lambda: sup_ratio_general(f, ((2.0, 1.0), (2.5, 2.0)), "sup"),
        lambda: sup_ratio_general(f, ((2.0, 1.0), (2.5, 1.0)), "inf"),
        lambda: inf_ratio_lower(f, 2.0, 2.0),
        lambda: inf_ratio_lower(f, 2.0, 1.0),
        lambda: inf_ratio_lower(f, 3.0, 1.0),
    ]
    first = [call() for call in calls]
    again = [call() for call in calls]
    assert len(solves) == len(calls)
    assert len({id(m) for m in first}) == len(calls)
    assert all(b is a for a, b in zip(first, again))
    assert first[3].role == "upper_sup" and first[4].role == "general_sup"
    # a sign that fails its screen is not served the other sign's constant
    for _ in range(2):
        with pytest.raises(ConditionViolationError):
            inf_ratio_lower(f, 2.0, 2.0, sign=GAP_BELOW)
    assert len(solves) == len(calls) + 2


def test_validate_growth_keeps_each_declaration_apart(solves):
    g = flat_sine()
    decls = [GrowthDeclaration("upper", alpha=3.0, n=3.0),
             GrowthDeclaration("upper", alpha=3.0, n=4.0),
             GrowthDeclaration("upper", alpha=4.0, n=4.0)]
    f = _square()
    signs = [GrowthDeclaration("lower", alpha=2.0, beta=2.0, sign=sign)
             for sign in (GAP_ABOVE, GAP_BELOW)]
    for _ in range(2):
        reports = [validate_growth(g, d) for d in decls]
        assert reports[0].passed and reports[1].passed
        assert reports[0].worst_ratio != reports[1].worst_ratio
        assert not reports[2].passed
        assert [validate_growth(f, d).passed for d in signs] == [True, False]
    # the two failing declarations store nothing, so the second pass
    # screens them again and only them
    assert len(solves) == 5 + 2


def test_validate_growth_reads_the_solved_constant(solves):
    # a declaration the public solvers already solved is not solved again
    g = flat_sine()
    m = sup_ratio_upper(g, 3, 3)
    report = validate_growth(g, GrowthDeclaration("upper", alpha=3.0, n=3.0))
    assert report.passed and (report.worst_x, report.worst_ratio) == (m.arg, m.value)
    f = _square()
    m = inf_ratio_lower(f, 2.0, 2.0)
    report = validate_growth(f, GrowthDeclaration("lower", alpha=2.0, beta=2.0))
    assert report.passed and (report.worst_x, report.worst_ratio) == (m.arg, m.value)
    assert solves == [g.label, f.label]


def test_raising_solve_keeps_nothing(solves):
    f = _square()
    for _ in range(2):
        with pytest.raises(UnboundedEnvelopeError):
            sup_ratio_upper(f, 1.0, 1.0)
    assert len(solves) == 2
    assert f._solved == {}


def test_twin_specs_start_without_constants(solves):
    f = _square()
    solved = sup_ratio_upper(f, 2.0, 2.0)
    for g in (dataclasses.replace(f), linear_shift(f, 0.0)):
        assert g._solved == {}
        again = sup_ratio_upper(g, 2.0, 2.0)
        assert again is not solved and again.value == solved.value
    assert len(solves) == 3


def test_sweeps_and_general_bounds_solve_once(solves):
    cos = make_function("cos", 0.0)
    for _ in range(2):
        mean_of_n_sweep(cos, Uniform(-1.0, 1.0), (2, 4, 8, 16), seed=1)
    assert solves == ["cos"]
    f = _square()
    dist = Gaussian(0.0, 0.5)
    for k in range(1, 11):
        general_bounds(f, dist, ((1.0, 1.0), (2.0, 1.0)), "lower", k=k)
    general_bounds(f, dist, ((1.0, 1.0), (2.0, 1.0)), "lower")
    assert len(solves) == 2


# ---------------------------------------------------------------------------
# Known solver gaps

@pytest.mark.xfail(strict=True, reason="narrow interior peak falls between "
                   "the log-spaced probes; needs a certified envelope")
def test_narrow_peak_is_found():
    # true sup of |f| / (x^2 + x^2) is 3.0, at x = 1
    f = custom_function(
        lambda x: x ** 2 * (1.0 + 5.0 * np.exp(-(((x - 1.0) / 0.003) ** 2))),
        0.0, slope_at_mu=0.0, label="bump",
    )
    m = sup_ratio_upper(f, 2.0, 2.0)
    assert m.value >= 3.0
    dist = two_point(0.0, 1.0)
    report = upper_bound(m, dist, 2.0, 2.0)
    assert verify(report, jensen_gap(f, dist)).verdict == "pass"


@pytest.mark.xfail(strict=True, reason="a climb at a logarithmic rate stays "
                   "under every divergence window, so the sup is taken at the "
                   "1e8 probe cap; needs a certified envelope")
def test_logarithmic_climb_is_unbounded():
    # |f| / (x^2 + x^2) = log(1 + |x|) / 2 has no finite sup; the solver
    # returns log(1 + 1e8) / 2 = 9.21, and on two_point(0, 1e9) the gap
    # 2.07e19 beats that bound of 1.84e19
    f = custom_function(lambda x: x ** 2 * np.log1p(np.abs(x)), 0.0,
                        slope_at_mu=0.0, label="x^2 log(1+|x|)")
    with pytest.raises(UnboundedEnvelopeError):
        sup_ratio_upper(f, 2.0, 2.0)


# ---------------------------------------------------------------------------
# Error taxonomy

def test_unbounded_when_slope_left_in():
    # nonzero slope at mu makes the quadratic-comparison ratio blow up
    with pytest.raises(UnboundedEnvelopeError):
        sup_ratio_upper(make_function("sin", 0.0), 2.0, 2.0)


def test_unbounded_when_n_too_small():
    with pytest.raises(UnboundedEnvelopeError):
        sup_ratio_upper(flat_quartic(), 2.0, 2.0)


def test_condition_violation_on_wrong_sign():
    with pytest.raises(ConditionViolationError, match="sign"):
        inf_ratio_lower(make_function("cos", 0.0), 2.0, 2.0, sign=GAP_ABOVE)


def test_upper_screen_gives_the_validate_growth_verdicts():
    # the upper cases of the validate_growth tests in test_functions.py,
    # read from the solver that screens them
    sine = flat_sine()
    assert math.isfinite(sup_ratio_upper(sine, 3.0, 3.0).value)
    # alpha = n = 4 on a function that only decays cubically near mu
    with pytest.raises(UnboundedEnvelopeError):
        sup_ratio_upper(sine, 4.0, 4.0)
    # f - f(mu) behaves like x near mu, so |f - f(mu)| / |x|^1.5 blows up
    rising = make_function("polynomial", 0.0, coeffs=(0.0, 1.0, 1.0))
    with pytest.raises(UnboundedEnvelopeError):
        sup_ratio_upper(rising, 1.5, 2.0)


def test_validate_growth_reports_the_solver_extremum_of_its_role():
    # x^2 + x^4: the lower ratio 2 (1 + x^2) at alpha = beta = 2 rises away
    # from its infimum 2 at mu, so a lower report that read the supremum
    # would be inf far out
    f = make_function("polynomial", 0.0, coeffs=(0.0, 0.0, 1.0, 0.0, 1.0))
    lower = validate_growth(f, GrowthDeclaration("lower", alpha=2.0, beta=2.0))
    m = inf_ratio_lower(f, 2.0, 2.0)
    assert lower.passed and m.value == pytest.approx(2.0, rel=1e-9)
    assert (lower.worst_ratio, lower.worst_x) == (m.value, m.arg)
    # |f - f(mu)| / (x^2 + x^4) is 1 everywhere at alpha = 2, n = 4, but
    # (x^2 + x^4) / 2 x^2 at alpha = n = 2 climbs to no supremum
    upper = validate_growth(f, GrowthDeclaration("upper", alpha=2.0, n=4.0))
    m = sup_ratio_upper(f, 2.0, 4.0)
    assert upper.passed and (upper.worst_ratio, upper.worst_x) == (m.value, m.arg)
    assert not validate_growth(f, GrowthDeclaration("upper", alpha=2.0, n=2.0)).passed


def _sqrt_hyperbola():
    # sqrt(1 + x^2) - 1: x^2 / 2 near the mean, |x| far out
    return custom_function(lambda x: np.sqrt(1.0 + np.square(x)) - 1.0, 0.0,
                           slope_at_mu=0.0, label="sqrt(1+x^2)-1")


def test_square_root_rate_climb_to_infinity_is_unbounded():
    # |x|^2.5 / x^2 climbs as |x|^0.5: too slow for a three-decade window
    f = make_function("abs_power", 0.0, alpha=2.5)
    with pytest.raises(UnboundedEnvelopeError):
        sup_ratio_upper(f, 2.0, 2.0)
    with pytest.raises(UnboundedEnvelopeError):
        sup_ratio_general(f, [(2.0, 1.0)], "sup")


def test_decay_at_mu_violates_lower_declaration():
    # x^4 (x^-2 + x^-2) falls to zero at the mean
    with pytest.raises(ConditionViolationError):
        inf_ratio_lower(make_function("pow4", 0.0), 2.0, 2.0)


def test_square_root_rate_decay_at_infinity_violates_lower_declaration():
    # |x| (|x|^-1.5 + |x|^-2) falls to zero as |x|^-0.5
    f = _sqrt_hyperbola()
    with pytest.raises(ConditionViolationError):
        inf_ratio_lower(f, 2.0, 1.5)
    with pytest.raises(ConditionViolationError):
        sup_ratio_general(f, [(1.5, 1.0), (2.0, 1.0)], "inf")


def test_degenerate_constant_function():
    f = make_function("polynomial", 0.0, coeffs=[3.0])
    with pytest.raises(DegenerateEnvelopeError):
        sup_ratio_upper(f, 2.0, 2.0)


def _log_squared(x):
    # x^2 log^2|x|, with its limit 0 at x = 0
    x = np.asarray(x, dtype=float)
    return x * x * np.log(np.abs(np.where(x == 0.0, 1.0, x))) ** 2


@pytest.mark.parametrize("solve, error, words", [
    # log^2|x| / 2 climbs toward the mean by less than 50x over each of the
    # screen's windows, so the climb escapes only after the solve
    (lambda: sup_ratio_upper(custom_function(_log_squared, 0.0, slope_at_mu=0.0), 2.0, 2.0),
     UnboundedEnvelopeError, "toward mu"),
    # 2 (x - 1)^2 touches 0 at x = 1
    (lambda: inf_ratio_lower(custom_function(lambda x: x * x * (x - 1.0) ** 2, 0.0,
                                             slope_at_mu=0.0), 2.0, 2.0),
     DegenerateEnvelopeError, "indistinguishable from zero"),
], ids=["climb_toward_mu", "degenerate_infimum"])
def test_solver_side_envelope_errors(solve, error, words):
    with pytest.raises(error, match=words) as raised:
        solve()
    # raised by the checks after the solve, not by the growth screen
    assert raised.traceback[-1].name == "_choose"


def test_parameter_rejections():
    f = flat_sine()
    with pytest.raises(InvalidParameterError):
        sup_ratio_upper(f, 0.0, 2.0)
    with pytest.raises(InvalidParameterError):
        sup_ratio_upper(f, 3.0, 2.0)
    with pytest.raises(InvalidParameterError):
        inf_ratio_lower(f, 2.0, 3.0)
    with pytest.raises(InvalidParameterError):
        inf_ratio_lower(f, 2.0, -1.0)


def test_check_terms_rules():
    assert check_terms([(2.0, 1.0), (1.0, 0.5)]) == ((1.0, 0.5), (2.0, 1.0))
    with pytest.raises(InvalidParameterError):
        check_terms([])
    with pytest.raises(InvalidParameterError):
        check_terms([(2.0, 0.0)])
    with pytest.raises(InvalidParameterError):
        check_terms([(-1.0, 1.0)])
    with pytest.raises(InvalidParameterError):
        check_terms([(2.0, 1.0), (2.0, 3.0)])


# ---------------------------------------------------------------------------
# General terms agree with the two-term specializations

def test_general_sup_matches_upper_two_terms():
    f = flat_quartic()
    direct = sup_ratio_upper(f, 2.0, 4.0)
    general = sup_ratio_general(f, [(2.0, 1.0), (4.0, 1.0)], "sup")
    assert general.value == direct.value


def test_general_sup_matches_merged_term():
    f = flat_sine()
    direct = sup_ratio_upper(f, 3.0, 3.0)
    general = sup_ratio_general(f, [(3.0, 2.0)], "sup")
    assert general.value == direct.value


def test_general_inf_matches_lower():
    f = flat_quartic()
    direct = inf_ratio_lower(f, 2.0, 1.0, sign=GAP_ABOVE)
    general = sup_ratio_general(f, [(1.0, 1.0), (2.0, 1.0)], "inf", sign=GAP_ABOVE)
    assert general.value == direct.value
