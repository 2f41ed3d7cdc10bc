"""Sharpness constructions: cases where the bounds are attained or blown up.

Three families certify that the bound formulas cannot be improved in
general.  A symmetric two-point distribution attains the upper bound with
equality for f(x) = |x|^alpha.  A three-point family drives the ratio of
gap to a low-order moment power arbitrarily high, showing the low-order
moment alone cannot bound the gap.  A family with a receding outlier makes
the gap-to-moment ratio decay to zero, showing which moment orders are too
weak to certify a lower bound.
"""

import math

import numpy as np

from .distributions import check_count, symmetric_outlier, three_point, two_point
from .errors import ConditionViolationError, InvalidParameterError
from .functions import custom_function, make_function
from .oracle import jensen_gap

EXACT_TOL = 1e-12


def two_point_equality(alpha, n, sigma):
    """Gap of |x|^alpha on the symmetric two-point pair, against its bound.

    With f(x) = |x|^alpha about 0 and mass split between +-sigma, the
    envelope constant is 1 and the gap equals sigma_n^alpha exactly, so the
    upper bound holds with equality.  Returns both sides for comparison.
    """
    alpha = float(alpha)
    n = float(n)
    if not 0 < alpha <= n:
        raise InvalidParameterError(f"need 0 < alpha <= n, got {alpha}, {n}")
    f = make_function("abs_power", 0.0, alpha=alpha)
    dist = two_point(0.0, float(sigma))
    gap = jensen_gap(f, dist)
    sigma_n = dist.abs_central_moment(n).sigma_p
    return {
        "gap": abs(gap.value),
        "bound_floor": sigma_n ** alpha,
    }


def three_point_gap_ratio_closed_form(alpha, beta, n, p, sigma_n):
    """p^(1-alpha/beta) + p^(alpha(1/n-1/beta)) sigma_n^(n-alpha)."""
    alpha, beta, n, p, sigma_n = map(float, (alpha, beta, n, p, sigma_n))
    return (
        p ** (1.0 - alpha / beta)
        + p ** (alpha * (1.0 / n - 1.0 / beta)) * sigma_n ** (n - alpha)
    )


def three_point_gap_ratio(alpha, beta, n, p, sigma_n):
    """|J| / sigma_beta^alpha for the concentrating three-point family.

    The family puts mass p split across +-a with a = sigma_n / p^(1/n), so
    sigma_n stays fixed while p shrinks; with f(x) = |x|^alpha + |x|^n the
    ratio grows without bound as p -> 0 whenever beta < alpha.  Computed
    through the oracle and exact moments; the closed form is a separate
    function so the two routes stay independent.
    """
    alpha, beta, n, p, sigma_n = map(float, (alpha, beta, n, p, sigma_n))
    if not 0 < beta < n or not alpha <= n:
        raise InvalidParameterError(
            f"need 0 < beta < n and alpha <= n, got alpha={alpha}, "
            f"beta={beta}, n={n}"
        )
    if not 0 < p < 1:
        raise InvalidParameterError(f"p must lie in (0, 1), got {p}")
    if not sigma_n > 0:
        raise InvalidParameterError(f"sigma_n must be positive, got {sigma_n}")
    a = sigma_n / p ** (1.0 / n)
    dist = three_point(0.0, a, p)
    f = make_function("abs_power_sum", 0.0, alpha=alpha, n=n)
    gap = jensen_gap(f, dist)
    sigma_beta = dist.abs_central_moment(beta).sigma_p
    return abs(gap.value) / sigma_beta ** alpha


def decay_exponent(beta, alpha, k, q):
    """Exponent of the outlier ratio sequence: beta - m - alpha(1 - m/q)."""
    m = k * (alpha - beta)
    return beta - m - alpha * (1.0 - m / q)


def outlier_witness(beta, alpha):
    """The canonical slowly-growing function for the outlier family.

    f(x) = 1 / (|x|^-beta + |x|^-alpha), extended by 0 at the origin: it
    matches the lower-bound comparison curve exactly (envelope constant 1),
    grows like |x|^alpha near 0 and like |x|^beta at infinity.
    """
    beta = float(beta)
    alpha = float(alpha)

    def rule(x):
        ax = np.abs(np.asarray(x, dtype=float))
        scalar = ax.ndim == 0
        ax = np.atleast_1d(ax)
        out = np.zeros_like(ax)
        nz = ax > 0
        out[nz] = 1.0 / (ax[nz] ** -beta + ax[nz] ** -alpha)
        return float(out[0]) if scalar else out

    return custom_function(
        rule, 0.0, slope_at_mu=0.0,
        label=f"1/(|x|^-{beta:g} + |x|^-{alpha:g})",
    )


def outlier_ratio_sequence(beta, alpha, k, q, j_max=1024):
    """(j, |J|/sigma_q^alpha) along the receding-outlier family, j = 1,2,4,...

    Requires q > alpha k/(k+1); below that threshold the ratio does not
    decay and the sequence certifies nothing.  The gap comes from the
    oracle on the explicit three-point support; sigma_q comes from its
    closed form j^(1-m/q).  Along the way the moments sigma_r for r <= m
    are checked to be non-increasing in j, which is what makes the family
    a counterexample for low-order lower bounds.
    """
    beta = float(beta)
    alpha = float(alpha)
    k = check_count(k, "k")
    m = k * (alpha - beta)
    if not m > 0:
        raise InvalidParameterError(
            f"need alpha > beta for a positive decay rate, got m = {m}"
        )
    threshold = alpha * k / (k + 1.0)
    if not q > threshold:
        raise InvalidParameterError(
            f"the decay claim needs q > alpha k/(k+1) = {threshold:g}, "
            f"got q = {q}"
        )
    q = float(q)
    j_max = check_count(j_max, "j_max")

    f = outlier_witness(beta, alpha)
    js = []
    j = 1
    while j <= j_max:
        js.append(j)
        j *= 2

    out = []
    prev_moments = None
    check_orders = [m / 2.0, m]
    for j in js:
        dist = symmetric_outlier(j, m)
        gap = jensen_gap(f, dist)
        sigma_q = float(j) ** (1.0 - m / q)
        exact = [dist.abs_central_moment(r).sigma_p for r in check_orders]
        for r, value in zip(check_orders, exact):
            closed = float(j) ** (1.0 - m / r)
            if not math.isclose(value, closed, rel_tol=EXACT_TOL):
                raise ConditionViolationError(
                    f"sigma_{r:g} mismatch at j={j}: summed {value:.17g}, "
                    f"closed form {closed:.17g}"
                )
        if prev_moments is not None:
            for r, now, before in zip(check_orders, exact, prev_moments):
                if now > before * (1.0 + EXACT_TOL):
                    raise ConditionViolationError(
                        f"sigma_{r:g} grew from {before:.6g} to {now:.6g} "
                        f"between j steps; the outlier family is broken"
                    )
        prev_moments = exact
        out.append((j, abs(gap.value) / sigma_q ** alpha))
    return out
