"""Acceptance gate.

One test per acceptance criterion, so the verbose pytest report shows one
pass/fail line for each, plus a count of the solves criterion 2 makes.
Tolerances and time budgets are the contract values, not what the
implementation happens to achieve today.
"""

import math
import time

import numpy as np
import pytest

from jensengap import (
    GAP_ABOVE,
    GAP_BELOW,
    Discrete,
    Gaussian,
    Interval,
    Laplace,
    Uniform,
    bounds,
    decay_exponent,
    envelope,
    fit_loglog_slope,
    inf_ratio_lower,
    jensen_gap,
    linear_shift,
    make_function,
    mean_of_n_sweep,
    outlier_ratio_sequence,
    select_shift_slope,
    sup_ratio_upper,
    three_point_gap_ratio,
    three_point_gap_ratio_closed_form,
    three_point,
    two_point,
    two_point_equality,
    symmetric_outlier,
    verify,
    worked_example_rows,
)

EXAMPLES_REL_TOL = 1e-5
EXAMPLES_BUDGET_S = 5.0
SANDWICH_MIN_CHECKS = 200
SANDWICH_EXTRA_SLACK = 1e-9
SANDWICH_BUDGET_S = 60.0
EQUALITY_TOL = 1e-12
RATIO_MATCH_TOL = 1e-9
SLOPE_REL_TOL = 0.10
CONSISTENCY_EXACT_TOL = 1e-12
CONSISTENCY_GENERAL_TOL = 1e-9
MONOTONICITY_SLACK = 1e-12
SCALING_BUDGET_S = 120.0
SHIFT_EPS_MULTIPLE = 8


def report_line(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {index} [{name}]: {status} ({detail})")
    assert ok, f"criterion {index} ({name}): {detail}"


def flat(f):
    return linear_shift(f, select_shift_slope(f))


def test_criterion_1_worked_example_constants():
    start = time.perf_counter()
    rows = worked_example_rows()
    elapsed = time.perf_counter() - start
    worst = max(row["rel_err"] for row in rows)
    caps_ok = all(row["computed"] < row["cap"]
                  for row in rows if row.get("cap") is not None)
    ok = worst <= EXAMPLES_REL_TOL and caps_ok and elapsed < EXAMPLES_BUDGET_S
    report_line(1, "worked example constants", ok,
                f"{len(rows)} rows, worst rel err {worst:.3g}, "
                f"{elapsed:.2f}s")


def _sandwich_pool():
    """(function, upper orders, lower orders or None, dist draws)."""
    inf = math.inf
    cos = make_function("cos", 0.0)
    sine = flat(make_function("sin", 0.0))
    quartic = flat(make_function("pow4", 1.0))
    square = make_function("polynomial", 0.0, coeffs=(0.0, 0.0, 1.0))
    power = make_function("abs_power", 0.0, alpha=1.5)
    power_sum = make_function("abs_power_sum", 0.0, alpha=1.5, n=3.0)
    log = flat(make_function("log", 1.0, domain=Interval(0.5, inf)))
    root = flat(make_function("sqrt", 1.0, domain=Interval(0.0, inf)))

    def real_line(mu, top):
        def draw(rng):
            family = rng.integers(5)
            scale = float(np.exp(rng.uniform(np.log(0.05), np.log(top))))
            if family == 0:
                return two_point(mu, scale)
            if family == 1:
                return three_point(mu, scale, float(rng.uniform(0.05, 0.95)))
            if family == 2:
                return Gaussian(mu, scale)
            if family == 3:
                return Laplace(mu, scale)
            return Uniform(mu - scale, mu + scale)
        return draw

    def near(mu, lo):
        # support must stay inside [lo, inf); keep atoms within mu +- reach
        reach = (mu - lo) * 0.9

        def draw(rng):
            family = rng.integers(3)
            scale = float(np.exp(rng.uniform(np.log(0.05), np.log(reach))))
            if family == 0:
                return two_point(mu, scale)
            if family == 1:
                return three_point(mu, scale, float(rng.uniform(0.3, 0.7)))
            return Uniform(mu - scale, mu + scale)
        return draw

    return [
        (cos, (2.0, 2.0), None, None, real_line(0.0, 3.0)),
        (sine, (3.0, 3.0), None, None, real_line(0.0, 3.0)),
        (quartic, (2.0, 4.0), (2.0, 2.0), GAP_ABOVE, real_line(1.0, 3.0)),
        (square, (2.0, 2.0), (2.0, 2.0), GAP_ABOVE, real_line(0.0, 3.0)),
        (power, (1.5, 1.5), (1.5, 1.5), GAP_ABOVE, real_line(0.0, 3.0)),
        (power_sum, (1.5, 3.0), (1.5, 1.5), GAP_ABOVE, real_line(0.0, 3.0)),
        (log, (2.0, 2.0), (2.0, 1.0), GAP_BELOW, near(1.0, 0.5)),
        (root, (2.0, 2.0), (2.0, 1.0), GAP_BELOW, near(1.0, 0.0)),
    ]


def _criterion_margin(report, gap):
    """Worst-side violation beyond oracle error plus the shared slack.

    Positive means the sandwich is broken by more than the allowance.
    """
    err = gap.abs_error + report.uncertainty + SANDWICH_EXTRA_SLACK
    if report.kind in ("upper", "general_upper"):
        return abs(gap.value) - err - report.value
    if report.kind == "variance_interval":
        lo, hi = report.value
        return max(lo - gap.value - err, gap.value - hi - err)
    sign = dict(report.params).get("sign", GAP_ABOVE)
    signed = -gap.value if sign == GAP_BELOW else gap.value
    return report.value - signed - err


def test_criterion_2_randomized_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(20260821)
    checks = 0
    failures = []
    worst = -math.inf
    for f, upper_orders, lower_orders, sign, draw in _sandwich_pool():
        alpha, n = upper_orders
        upper_env = sup_ratio_upper(f, alpha, n)
        lower_env = None
        if lower_orders is not None:
            lower_env = inf_ratio_lower(f, lower_orders[0], lower_orders[1],
                                        sign)
        for _ in range(12):
            dist = draw(rng)
            gap = jensen_gap(f, dist)
            reports = [
                bounds.upper_bound(upper_env, dist, alpha, n),
                bounds.variance_interval(f, dist),
            ]
            if lower_env is not None:
                reports.append(bounds.lower_bound_cauchy_schwarz(
                    lower_env, dist, lower_orders[0], lower_orders[1]))
            for report in reports:
                verdict = verify(report, gap).verdict
                margin = _criterion_margin(report, gap)
                worst = max(worst, margin)
                if verdict == "fail" or margin > 0.0:
                    failures.append((f.label, dist.variant, report.kind,
                                     margin))
                checks += 1
    elapsed = time.perf_counter() - start
    ok = (not failures and checks >= SANDWICH_MIN_CHECKS
          and elapsed < SANDWICH_BUDGET_S)
    report_line(2, "randomized sandwich", ok,
                f"{checks} checks, {len(failures)} violations, "
                f"worst margin {worst:.3g}, {elapsed:.1f}s")


def test_criterion_2_pool_solves_each_curvature_once(monkeypatch):
    solves = []
    optimize = envelope._optimize

    def counted(*args, **kwargs):
        solves.append(args[0].label)
        return optimize(*args, **kwargs)

    monkeypatch.setattr(envelope, "_optimize", counted)
    rng = np.random.default_rng(20260821)
    pool = _sandwich_pool()
    for f, _, _, _, draw in pool:
        for _ in range(12):
            bounds.variance_interval(f, draw(rng))
    assert solves == [f.label for f, *_ in pool]


def test_criterion_3_sharpness_constructions():
    problems = []

    for alpha, n, sigma in ((2.0, 4.0, 0.5), (1.0, 1.0, 1.0),
                            (3.0, 3.0, 0.2), (2.0, 2.0, 0.3)):
        result = two_point_equality(alpha, n, sigma)
        miss = abs(result["gap"] - result["bound_floor"])
        if miss > EQUALITY_TOL * max(1.0, result["bound_floor"]):
            problems.append(f"two-point ({alpha},{n},{sigma}) off by {miss:.3g}")

    ratio = three_point_gap_ratio(2.0, 1.0, 2.0, 1e-4, 1.0)
    reference = three_point_gap_ratio_closed_form(2.0, 1.0, 2.0, 1e-4, 1.0)
    rel = abs(ratio - reference) / reference
    if ratio <= 1e3:
        problems.append(f"three-point ratio {ratio:.3g} not above 1e3")
    if rel > RATIO_MATCH_TOL:
        problems.append(f"three-point ratio off closed form by {rel:.3g}")

    rows = outlier_ratio_sequence(1.0, 2.0, 1, 1.5)
    tail = [(j, r) for j, r in rows if j >= 2]
    slope = fit_loglog_slope([j for j, _ in tail], [r for _, r in tail])
    predicted = decay_exponent(1.0, 2.0, 1, 1.5)
    deviation = abs(slope - predicted) / abs(predicted)
    if deviation > SLOPE_REL_TOL:
        problems.append(f"outlier slope {slope:.4g} vs {predicted:.4g}, "
                        f"off {deviation:.1%}")

    report_line(3, "sharpness constructions", not problems,
                "; ".join(problems) if problems
                else f"equality grid, ratio {ratio:.4g}, slope {slope:.4g} "
                     f"(predicted {predicted:.4g}, off {deviation:.1%})")


def test_criterion_4_bound_family_consistency():
    f = flat(make_function("pow4", 1.0))
    dists = [
        two_point(1.0, 0.7),
        three_point(1.0, 1.1, 0.3),
        Uniform(-0.2, 2.2),
    ]
    env = inf_ratio_lower(f, 2.0, 2.0, GAP_ABOVE)
    env_mixed = inf_ratio_lower(f, 2.0, 1.0, GAP_ABOVE)
    upper_env = sup_ratio_upper(f, 2.0, 4.0)
    problems = []
    for dist in dists:
        cs = bounds.lower_bound_cauchy_schwarz(env, dist, 2.0, 2.0)
        holder = bounds.lower_bound_holder(env, dist, 2.0, 2.0, 1, 2)
        rel = abs(holder.value - cs.value) / max(abs(cs.value), 1e-300)
        if rel > CONSISTENCY_EXACT_TOL:
            problems.append(f"holder(1,2) vs cs on {dist.variant}: {rel:.3g}")
        for k in (1, 2, 3):
            single = bounds.lower_bound_holder_single(env, dist, 2.0, 2.0, k)
            full = bounds.lower_bound_holder(env, dist, 2.0, 2.0, k, k + 1)
            rel = abs(single.value - full.value) / max(abs(full.value), 1e-300)
            if rel > CONSISTENCY_EXACT_TOL:
                problems.append(
                    f"single k={k} vs holder q=k+1 on {dist.variant}: {rel:.3g}")

        special = bounds.upper_bound(upper_env, dist, 2.0, 4.0)
        general = bounds.general_bounds(f, dist, ((2.0, 1.0), (4.0, 1.0)),
                                        "upper")
        rel = abs(general.value - special.value) / abs(special.value)
        if rel > CONSISTENCY_GENERAL_TOL:
            problems.append(f"general upper on {dist.variant}: {rel:.3g}")

        cs_mixed = bounds.lower_bound_cauchy_schwarz(env_mixed, dist, 2.0, 1.0)
        general_low = bounds.general_bounds(f, dist, ((1.0, 1.0), (2.0, 1.0)),
                                            "lower")
        rel = abs(general_low.value - cs_mixed.value) / abs(cs_mixed.value)
        if rel > CONSISTENCY_GENERAL_TOL:
            problems.append(f"general lower on {dist.variant}: {rel:.3g}")

    report_line(4, "bound family consistency", not problems,
                "; ".join(problems) if problems
                else f"{len(dists)} distributions, k in 1..3")


def test_criterion_5_moment_monotonicity():
    orders = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    rng = np.random.default_rng(7)
    pool = [
        Gaussian(0.0, 1.3),
        Laplace(-0.4, 0.7),
        Uniform(-2.0, 1.0),
        two_point(0.3, 0.9),
        three_point(0.0, 1.4, 0.2),
        symmetric_outlier(64, 1.0),
    ]
    for _ in range(6):
        xs = rng.normal(0.0, 2.0, size=4)
        qs = rng.uniform(0.1, 1.0, size=4)
        qs /= qs.sum()
        pool.append(Discrete(tuple(zip(xs.tolist(), qs.tolist()))))

    worst = math.inf
    pairs = 0
    for dist in pool:
        sigmas = [dist.abs_central_moment(r).sigma_p for r in orders]
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                slack = sigmas[j] - sigmas[i]
                worst = min(worst, slack / max(sigmas[j], 1.0))
                pairs += 1
    ok = worst >= -MONOTONICITY_SLACK
    report_line(5, "moment order monotonicity", ok,
                f"{len(pool)} distributions, {pairs} pairs, "
                f"worst normalized slack {worst:.3g}")


def test_criterion_6_averaging_rate():
    start = time.perf_counter()
    result = mean_of_n_sweep(
        make_function("cos", 0.0), Uniform(-1.0, 1.0), (4, 16, 64, 256),
        samples=100_000, seed=5,
    )
    elapsed = time.perf_counter() - start
    slope = result["gap_slope"]
    # J = E cos(mean) - 1 = (N sin(1/N))^N - 1 for the mean of N uniform draws
    worst = max(abs(row["gap"] - ((row["n"] * math.sin(1.0 / row["n"])) ** row["n"] - 1.0))
                - row["gap_error"] for row in result["rows"])
    ok = abs(slope + 1.0) <= 0.1 and elapsed < SCALING_BUDGET_S and worst <= 0.0
    report_line(6, "averaging decay rate", ok,
                f"slope {slope:.4g} for N in 4..256, {elapsed:.1f}s, every gap "
                f"within its error bar of the closed form (worst excess {worst:.3g})")


def test_criterion_7_shift_invariance():
    f = make_function("cos", 0.0)
    dist = two_point(0.0, 1.1)
    base = jensen_gap(f, dist)
    worst = 0.0
    for a in (-2.0, 0.5, 3.7):
        shifted = jensen_gap(linear_shift(f, a), dist)
        scale = max(abs(base.value), 1.0)
        worst = max(worst, abs(shifted.value - base.value) / scale)
    allowance = SHIFT_EPS_MULTIPLE * np.finfo(float).eps
    ok = worst <= allowance
    report_line(7, "linear shift invariance", ok,
                f"worst relative drift {worst:.3g} vs allowance "
                f"{allowance:.3g}")
