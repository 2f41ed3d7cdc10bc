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


def _sweep(f, grid, alpha, n, dist_at, row_at, **moment_kw):
    """Solve the envelope once, then one row per grid point in the order
    given, and the log-log slope of |gap| against the grid."""
    if len(grid) < MIN_FIT_POINTS:
        raise InvalidParameterError(
            f"sweep needs at least {MIN_FIT_POINTS} grid points, got {len(grid)}"
        )
    M = sup_ratio_upper(f, alpha, n)
    rows = []
    for x in grid:
        dist = dist_at(x)
        gap = jensen_gap(f, dist, **moment_kw)
        rows.append(row_at(x, gap, upper_bound(M, dist, alpha, n, **moment_kw)))
    slope = fit_loglog_slope(grid, [abs(r["gap"]) for r in rows])
    return {"rows": rows, "gap_slope": slope, "envelope": M.to_dict()}


def two_point_sweep(f: FunctionSpec, sigmas, *, alpha=2.0, n=2.0):
    """Gap and upper bound on two_point(mu, sigma) across a sigma grid.

    The envelope constant is computed once per spec and kept on ``f``, so
    a second sweep reuses it; each row then carries the oracle gap, the
    bound, and gap/sigma^alpha, whose limit as sigma -> 0 is the scaled
    second derivative when alpha = n = 2.  A two-point law is an exact
    sum, so nothing here is sampled.
    """
    sigmas = [float(s) for s in sigmas]
    # a short grid is refused first, by _sweep
    if len(sigmas) >= MIN_FIT_POINTS and any(s <= 0 for s in sigmas):
        raise InvalidParameterError("sigma grid must be positive")
    return _sweep(
        f, sorted(sigmas, reverse=True), alpha, n,
        lambda s: two_point(f.mu, s),
        lambda s, gap, report: {"sigma": s, "gap": gap.value, "upper": report.value,
                                "ratio": gap.value / s ** alpha},
    )


def mean_of_n_sweep(f: FunctionSpec, base: Distribution, ns, *,
                    alpha=2.0, n_growth=2.0,
                    samples=DEFAULT_MOMENT_SAMPLES, seed=None):
    """Gap of f at the mean of N draws from base, across an N grid.

    |J| tracks the variance of the sample mean, so the fitted slope of
    log|gap| against log N sits near -1 for smooth f.  A degenerate base
    gives zero gaps everywhere and slope 0.  The envelope constant is
    computed once per spec and kept on ``f``, so sweeps over other bases or
    grids reuse it.  ``samples`` sizes the Monte Carlo gaps and moments of
    bases that have no exact route (discrete, empirical and nested means);
    the exact routes ignore it.
    """
    ns = [check_count(v, "N grid entry") for v in ns]
    return _sweep(
        f, sorted(ns), alpha, n_growth, lambda count: mean_of_n(base, count),
        lambda count, gap, report: {"n": count, "gap": gap.value,
                                    "gap_error": gap.abs_error, "upper": report.value},
        samples=samples, seed=seed,
    )
