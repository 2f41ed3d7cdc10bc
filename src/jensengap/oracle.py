"""Independent Jensen gap estimates and verdicts on bound reports.

The gap E[f(X)] - f(E[X]) is computed here without reference to any bound
formula, so it can sit on the other side of every check.  Its law is checked
by ``functions.check_law``, as every bound's is.  Then exact summation for
discrete support; for a polynomial f on any other law, the closed form
sum_k f^(k)(m)/k! E(X - m)^k over the law's exact central moments; else
adaptive quadrature for the named continuous families and for means of
Gaussian, Laplace or uniform draws, Monte Carlo for means of other bases.
``verify`` then compares a bound report against a gap estimate, treating
the estimate's error bar as the deciding margin, once their means agree to
the law check's MEAN_MATCH_TOL.
"""

import math
from dataclasses import asdict, dataclass

from .distributions import MAX_SERIES_ORDER, Discrete
from .errors import InvalidParameterError
from .functions import GAP_BELOW, MEAN_MATCH_TOL, check_law, evaluate, taylor_coefficients


@dataclass(frozen=True)
class GapEstimate:
    """One oracle gap value with its error bar.

    ``abs_error`` is a 95% confidence radius for Monte Carlo, or inf where
    every draw gave one value though the law is not a point mass; for
    quadrature on a named law it is the rule's error estimate, plus for a
    mean of uniform draws a bound on the cosine-series terms it drops.
    Either way it is an estimate, not a bound.  Exact sums and the
    polynomial ``closed_form`` report 0: they carry rounding error only,
    for which no bar is given yet.  ``count`` is the number of integrand
    evaluations of the one quadrature pass (at most ``nodes``; for a mean of
    N draws, evaluations of f times the density of the mean), of atoms
    summed, or of Monte Carlo draws (the ``samples`` means of N base draws
    each); the closed form evaluates f nowhere and counts 0.
    """

    value: float
    method: str
    abs_error: float
    count: int
    mu: float
    seed: int | None = None
    f_label: str = ""
    dist_label: str = ""

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class VerifyResult:
    """Verdict of a bound-versus-gap comparison.

    ``margin`` is the distance to the deciding boundary: slack left on a pass,
    violation size on a fail, the error bar's width (2 err) when inconclusive.
    """

    verdict: str
    margin: float
    detail: str

    def to_dict(self):
        return asdict(self)


def jensen_gap(f, dist, *, seed=None, **budget):
    """E[f(X)] - f(E[X]) with method picked by the function's form and the
    distribution's structure.

    A polynomial f (one with a ``poly`` form) of degree at most
    MAX_SERIES_ORDER, on a law that is not discrete, takes the closed form
    sum_{k >= 2} b_k E(X - m)^k: b_k the Taylor coefficients at the law's
    mean m, the moments the law's exact central ones.  f(m) is never
    subtracted.  Its method is "closed_form", with ``abs_error`` 0
    (rounding only) and ``count`` 0.  Where that sum is not finite, and for
    every other function and law, ``dist.expect`` takes E[f(X)], to which
    ``seed`` and the budget (``samples``, ``nodes``) go."""
    mu = check_law(dist, f.domain, f.label)
    gap = _polynomial_gap(f.poly, dist, mu)
    if gap is not None:
        method, err, count = "closed_form", 0.0, 0
    else:
        est = dist.expect(f.rule, seed=seed, label=f.label, **budget)
        gap, method, err, count = est.value - evaluate(f, mu), est.method, est.abs_error, est.count
    return GapEstimate(
        value=float(gap),
        method=method,
        abs_error=float(err),
        count=int(count),
        mu=float(mu),
        seed=seed,
        f_label=f.label,
        dist_label=dist.variant,
    )


def _polynomial_gap(poly, dist, mu):
    """The gap of the polynomial form ``poly`` on ``dist``, whose mean is
    ``mu``, from its Taylor coefficients at mu and the law's central
    moments; None where there is no form, the law is discrete (its exact
    sum stays), the degree passes MAX_SERIES_ORDER, or the sum does not
    fit a double."""
    if poly is None or isinstance(dist, Discrete):
        return None
    try:
        b = taylor_coefficients(poly, mu)
        if len(b) - 1 > MAX_SERIES_ORDER:
            return None
        moments = dist._central_moments(len(b) - 1)
        gap = math.fsum(bk * mk for bk, mk in zip(b[2:], moments[2:]))
    except (OverflowError, ValueError):
        return None
    return gap if math.isfinite(gap) else None


# Floating-point slack for boundary equality: bound and gap travel different
# arithmetic routes, so exact sharpness cases may disagree by a few ulps.
_BOUNDARY_SLACK = 1e-12


def _slack(value):
    return _BOUNDARY_SLACK * max(1.0, abs(value))


# Detail texts per claim on pass, fail and inconclusive; lo, hi, margin fill them.
_DETAILS = {
    "upper": ("|J| <= {hi:.9g}",
              "|J| exceeds the upper bound {hi:.9g} by {margin:.3g}",
              "error bar straddles the upper bound"),
    "interval": ("J inside [{lo:.9g}, {hi:.9g}]", "J escapes [{lo:.9g}, {hi:.9g}]",
                 "error bar straddles an interval endpoint"),
    "lower": ("signed gap >= lower bound {lo:.9g}",
              "signed gap falls short of the lower bound {lo:.9g} by {margin:.3g}",
              "error bar straddles the lower bound"),
}


def verify(report, gap):
    """Check a gap estimate against a bound report.

    Each report claims one statistic of the gap lies in [lo_b, hi_b]: |J| for
    upper kinds, J for the variance interval, s*J for lower kinds (s the sign).
    pass, fail or inconclusive as its error bar sits inside, outside or across
    an end.  Reports centered at a different mean are rejected.
    """
    if not math.isclose(report.mu, gap.mu, rel_tol=MEAN_MATCH_TOL, abs_tol=MEAN_MATCH_TOL):
        raise InvalidParameterError(
            f"bound is centered at {report.mu} but the gap was computed "
            f"about {gap.mu}; they do not refer to the same problem"
        )
    if report.kind in ("upper", "general_upper"):
        claim, stat, lo_b, hi_b = "upper", abs(gap.value), -math.inf, report.value
    elif report.kind == "variance_interval":
        claim, stat, (lo_b, hi_b) = "interval", gap.value, report.value
    else:
        s = -1.0 if dict(report.params).get("sign") == GAP_BELOW else 1.0
        claim, stat, lo_b, hi_b = "lower", s * gap.value, report.value, math.inf
    err = gap.abs_error + report.uncertainty
    lo, hi = stat - err, stat + err
    if lo >= lo_b - _slack(lo_b) and hi <= hi_b + _slack(hi_b):
        verdict, margin, text = "pass", min(hi_b - hi, lo - lo_b), 0
    elif hi < lo_b - _slack(lo_b) or lo > hi_b + _slack(hi_b):
        verdict, margin, text = "fail", max(lo_b - hi, lo - hi_b), 1
    else:
        verdict, margin, text = "inconclusive", hi - lo, 2
    detail = _DETAILS[claim][text].format(lo=lo_b, hi=hi_b, margin=margin)
    return VerifyResult(verdict, margin, detail)
