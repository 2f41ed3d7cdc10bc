"""Closed-form envelope constants reproduced end to end by the solver.

Each row names a classical function, runs the numeric envelope on it, and
compares against the exact constant obtained by hand calculus.  The rows
double as a regression surface: any solver change that moves a constant
past REL_TOL is a bug, not drift.
"""

import math

from .envelope import inf_ratio_lower, sup_ratio_upper
from .functions import GAP_ABOVE, GAP_BELOW, Interval, linear_shift, make_function

REL_TOL = 1e-5


def log_coefficient_reference(a):
    """Exact ratio supremum for the logarithm on [a, inf), 0 < a < 1.

    sup of (ln x - (x-1)) / -(x-1)^2 over [a, inf) about mu = 1, scaled
    to the coefficient of sigma_2^2; the maximum sits at the left
    endpoint, giving (a - 1 - ln a) / (1 - a)^2.
    """
    a = float(a)
    if not 0 < a < 1:
        raise ValueError(f"need 0 < a < 1, got {a}")
    return (a - 1.0 - math.log(a)) / (1.0 - a) ** 2


def worked_example_rows():
    """All reference constants, each recomputed by the envelope solver.

    Returns a list of dicts with computed value, exact reference, and
    relative error.  Functions with nonzero slope at the mean are
    slope-shifted first, which leaves the gap untouched but makes the
    growth conditions hold.
    """
    a = 0.5
    sine = make_function("sin", 0.0)
    sine_flat = linear_shift(sine, 1.0)
    cosine = make_function("cos", 0.0)
    logarithm = make_function("log", 1.0, domain=Interval(a, math.inf))
    log_flat = linear_shift(logarithm, 1.0)
    root_flat = linear_shift(make_function("sqrt", 1.0), 0.5)
    quartic_flat = linear_shift(make_function("pow4", 1.0), 4.0)
    # (name, detail, solve, factor on the solved constant, reference, cap);
    # the solves run in this order, each through this module's solver names
    table = [
        ("sine cubic envelope",
         "sup |sin x - x| / (2|x|^3) near 0; bound coefficient on sigma_3^3",
         lambda: sup_ratio_upper(sine_flat, 3.0, 3.0), 1.0, 1.0 / 12.0, None),
        ("sine quadratic envelope",
         "sup |sin x - x| / (2x^2), attained where the slope matches",
         lambda: sup_ratio_upper(sine_flat, 2.0, 2.0), 1.0, 0.5 / math.pi, None),
        ("sine linear envelope",
         "sup |sin x| / (2|x|); gives |gap| <= sigma_1 with no shift",
         lambda: sup_ratio_upper(sine, 1.0, 1.0), 1.0, 0.5, None),
        ("cosine curvature coefficient",
         "2 sup |cos x - 1| / (2x^2): coefficient of sigma_2^2",
         lambda: sup_ratio_upper(cosine, 2.0, 2.0), 2.0, 0.5, None),
        ("logarithm curvature coefficient",
         "2 sup |ln x - (x-1)| / (2(x-1)^2) on [1/2, inf): coefficient of "
         "sigma_2^2, strictly below the crude left-endpoint cap 1/(2a^2)",
         lambda: sup_ratio_upper(log_flat, 2.0, 2.0), 2.0,
         log_coefficient_reference(a), 0.5 / a ** 2),
        ("logarithm deficit envelope",
         "inf of ((x-1) - ln x)(|x-1|^-1 + |x-1|^-2) on [1/2, inf)",
         lambda: inf_ratio_lower(log_flat, 2.0, 1.0, sign=GAP_BELOW), 1.0, 0.5, None),
        ("square-root curvature coefficient",
         "2 sup |sqrt x - 1 - (x-1)/2| / (2(x-1)^2) on [0, inf)",
         lambda: sup_ratio_upper(root_flat, 2.0, 2.0), 2.0, 0.5, None),
        ("square-root deficit envelope",
         "inf of (1 + (x-1)/2 - sqrt x)(|x-1|^-1 + |x-1|^-2) on [0, inf)",
         lambda: inf_ratio_lower(root_flat, 2.0, 1.0, sign=GAP_BELOW), 1.0, 0.125,
         None),
        ("quartic mixed envelope",
         "sup |x^4 - 1 - 4(x-1)| / ((x-1)^2 + (x-1)^4), alpha = 2, n = 4",
         lambda: sup_ratio_upper(quartic_flat, 2.0, 4.0), 1.0,
         0.5 * (7.0 + math.sqrt(41.0)), None),
        ("quartic excess envelope",
         "inf of 2(x^4 - 1 - 4(x-1)) / (x-1)^2; yields gap >= 2 sigma_1^2",
         lambda: inf_ratio_lower(quartic_flat, 2.0, 2.0, sign=GAP_ABOVE), 1.0, 4.0,
         None),
    ]
    rows = []
    for name, detail, solve, factor, reference, cap in table:
        m = solve()
        computed = factor * m.value
        row = {
            "name": name,
            "detail": detail,
            "computed": float(computed),
            "reference": float(reference),
            "rel_err": abs(computed - reference) / abs(reference),
            "argument": m.arg,
            "location": m.location,
        }
        if cap is not None:
            row["cap"] = float(cap)
        rows.append(row)
    return rows
