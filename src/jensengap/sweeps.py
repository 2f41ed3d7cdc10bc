"""Parameter sweeps: gap and bound behaviour as spread shrinks or N grows.

Two canonical experiments.  Shrinking the spread of a two-point
distribution shows the gap collapsing at the quadratic rate the bounds
predict.  Averaging N independent draws shows the gap of the sample mean
decaying like 1/N, since the variance of the mean is Var/N.  Both emit
rows suitable for CSV and a fitted log-log slope.
"""

import numpy as np

from .bounds import upper_bound
from .distributions import (
    DEFAULT_MOMENT_SAMPLES, Distribution, check_count, mean_of_n, two_point,
)
from .envelope import sup_ratio_upper
from .errors import InvalidParameterError
from .functions import FunctionSpec
from .oracle import jensen_gap

MIN_FIT_POINTS = 4


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x).

    Requires at least four points, positive throughout.  If every y is
    exactly zero the data came from a degenerate distribution and the
    slope is reported as 0.0 rather than an error.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidParameterError("xs and ys must be 1-d and equally long")
    if xs.size < MIN_FIT_POINTS:
        raise InvalidParameterError(
            f"slope fit needs at least {MIN_FIT_POINTS} points, got {xs.size}"
        )
    if np.any(xs <= 0):
        raise InvalidParameterError("xs must be positive for a log-log fit")
    if np.all(ys == 0.0):
        return 0.0
    if np.any(ys <= 0):
        raise InvalidParameterError("ys must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


def two_point_sweep(f: FunctionSpec, sigmas, *, alpha=2.0, n=2.0):
    """Gap and upper bound on two_point(mu, sigma) across a sigma grid.

    The envelope constant is computed once; each row then carries the
    oracle gap, the bound, and gap/sigma^alpha, whose limit as sigma -> 0
    is the scaled second derivative when alpha = n = 2.  A two-point law
    is an exact sum, so nothing here is sampled.
    """
    sigmas = [float(s) for s in sigmas]
    if len(sigmas) < MIN_FIT_POINTS:
        raise InvalidParameterError(
            f"sweep needs at least {MIN_FIT_POINTS} grid points, "
            f"got {len(sigmas)}"
        )
    if any(s <= 0 for s in sigmas):
        raise InvalidParameterError("sigma grid must be positive")
    M = sup_ratio_upper(f, alpha, n)
    rows = []
    for s in sorted(sigmas, reverse=True):
        dist = two_point(f.mu, s)
        gap = jensen_gap(f, dist)
        report = upper_bound(M, dist, alpha, n)
        rows.append({
            "sigma": s,
            "gap": gap.value,
            "upper": report.value,
            "ratio": gap.value / s ** alpha,
        })
    slope = fit_loglog_slope(
        [r["sigma"] for r in rows], [abs(r["gap"]) for r in rows]
    )
    return {"rows": rows, "gap_slope": slope, "envelope": M.to_dict()}


def mean_of_n_sweep(f: FunctionSpec, base: Distribution, ns, *,
                    alpha=2.0, n_growth=2.0,
                    samples=DEFAULT_MOMENT_SAMPLES, seed=None):
    """Gap of f at the mean of N draws from base, across an N grid.

    |J| tracks the variance of the sample mean, so the fitted slope of
    log|gap| against log N sits near -1 for smooth f.  A degenerate base
    gives zero gaps everywhere and slope 0.  ``samples`` sizes the Monte
    Carlo gaps and moments of bases that have no exact route (discrete,
    empirical and nested means); the exact routes ignore it.
    """
    ns = [check_count(v, "N grid entry") for v in ns]
    if len(ns) < MIN_FIT_POINTS:
        raise InvalidParameterError(
            f"sweep needs at least {MIN_FIT_POINTS} grid points, got {len(ns)}"
        )
    M = sup_ratio_upper(f, alpha, n_growth)
    rows = []
    for count in sorted(ns):
        dist = mean_of_n(base, count)
        gap = jensen_gap(f, dist, samples=samples, seed=seed)
        report = upper_bound(
            M, dist, alpha, n_growth, seed=seed, samples=samples
        )
        rows.append({
            "n": count,
            "gap": gap.value,
            "gap_error": gap.abs_error,
            "upper": report.value,
        })
    slope = fit_loglog_slope([r["n"] for r in rows],
                             [abs(r["gap"]) for r in rows])
    return {"rows": rows, "gap_slope": slope, "envelope": M.to_dict()}
