"""Bound formulas: envelope constants combined with absolute central moments.

Each operation assembles one inequality into a BoundReport.  Every kind but
the variance interval is a spec over one evaluator, M (sum c m_r)^power /
(sum c m_r)^root: the upper bound and the Cauchy-Schwarz and Hoelder lower
bounds are the two-term and one-term cases of the general power-sum bounds,
reported with their own parameters.  The report carries everything needed
to audit or serialize the claim: the envelope constant with its attainment
point, every moment value used with its provenance, the parameter set, and
an uncertainty that folds the moment error estimates through the formula
(the formula itself is exact; only sampled or integrated moments make a
bound value uncertain).

Moment-power notation: for order r the quantity sigma_r^r is written m_r
below, with m_0 = 1 by the |t|^0 = 1 convention.
"""

import itertools
import math
from dataclasses import dataclass, replace

from .distributions import (
    DEFAULT_MOMENT_SAMPLES,
    DEFAULT_NODES,
)
from .envelope import (
    curvature_envelope,
    check_terms,
    sup_ratio_general,
)
from .errors import InvalidParameterError
from .functions import GAP_ABOVE
from .serialize import encode_float

MAX_HOLDER_K = 60
MAX_DENOMINATOR_TERMS = 100_000
MEAN_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One computed bound and its full provenance.

    ``value`` is a float for one-sided kinds and a (lo, hi) pair for
    variance_interval.  ``envelope`` is the constant the formula multiplies;
    variance_interval stores its inf constant there and the sup constant in
    ``envelope_hi``.  ``valid`` records whether growth validation ran and
    passed for the envelope.
    """

    kind: str
    value: object
    mu: float
    envelope: object
    moments_used: tuple
    params: tuple
    valid: bool
    uncertainty: float
    envelope_hi: object = None
    loose_value: float | None = None
    f_label: str = ""
    dist_label: str = ""

    def to_dict(self):
        if isinstance(self.value, tuple):
            value = [encode_float(v) for v in self.value]
        else:
            value = encode_float(self.value)
        return {
            "kind": self.kind,
            "value": value,
            "mu": self.mu,
            "envelope": self.envelope.to_dict() if self.envelope else None,
            "envelope_hi": self.envelope_hi.to_dict() if self.envelope_hi else None,
            "loose_value": self.loose_value,
            "moments_used": [m.to_dict() for m in self.moments_used],
            "params": _jsonable_params(self.params),
            "valid": self.valid,
            "uncertainty": self.uncertainty,
            "f_label": self.f_label,
            "dist_label": self.dist_label,
        }


def _jsonable_params(params):
    out = {}
    for key, val in params:
        if key == "terms":
            out[key] = [[eta, a] for eta, a in val]
        else:
            out[key] = val
    return out


def _check_mean(mu, dist):
    mean = dist.mean()
    if not math.isclose(mu, mean, rel_tol=MEAN_MATCH_TOL, abs_tol=MEAN_MATCH_TOL):
        raise InvalidParameterError(
            f"envelope is centered at {mu} but the distribution mean is "
            f"{mean}; recenter one of them"
        )
    return mean


def _require_envelope(M, role, **expected):
    if M.role != role:
        raise InvalidParameterError(
            f"need an envelope constant with role {role!r}, got {M.role!r}"
        )
    got = dict(M.params)
    for key, val in expected.items():
        if key not in got or not math.isclose(float(got[key]), float(val),
                                              rel_tol=1e-12, abs_tol=1e-12):
            raise InvalidParameterError(
                f"envelope was computed with {key}={got.get(key)!r}, "
                f"bound asked for {key}={val!r}"
            )


def _evaluate_with_uncertainty(formula, moments):
    """Apply a formula of the m_r values; bump each by its error estimate.

    Returns (value, uncertainty) with uncertainty the summed first-order
    response to each moment's error, measured by actual re-evaluation.
    """
    base_args = {p: mv.sigma_p_pow for p, mv in moments.items()}
    value = formula(base_args)
    unc = 0.0
    for p, mv in moments.items():
        err = mv.abs_error_estimate
        if err:
            bumped = dict(base_args)
            bumped[p] = bumped[p] + err
            unc += abs(formula(bumped) - value)
    return float(value), float(unc)


def _power_sum_bound(kind, M, dist, params, num, power, den, root, moment_kw,
                     loose=None):
    """The bound M (sum c m_r)^power / (sum c m_r)^root over two term lists.

    ``num`` and ``den`` are (coefficient, order) pairs.  A denominator order
    of None is the literal m_0 = 1, not requested as a moment; every other
    order is requested in sequence, numerator first, which is the order
    ``moments_used`` lists them in.  Every bound kind except the variance
    interval is one such spec.  ``loose``, a formula of the m_r values,
    gives the report's ``loose_value``.
    """
    mean = _check_mean(M.mu, dist)
    orders = [r for _, r in num + den if r is not None]
    moments = dist.abs_central_moments(orders, **moment_kw)

    def formula(m):
        top = sum(c * m[r] for c, r in num)
        bottom = sum(c * (1.0 if r is None else m[r]) for c, r in den)
        return M.value * top ** power / bottom ** root

    value, unc = _evaluate_with_uncertainty(formula, moments)
    if loose is not None:
        loose, _ = _evaluate_with_uncertainty(loose, moments)
    return BoundReport(
        kind=kind,
        value=value,
        mu=mean,
        envelope=M,
        moments_used=tuple(moments.values()),
        params=params,
        valid=M.validated,
        uncertainty=unc,
        loose_value=loose,
        f_label=M.f_label,
        dist_label=dist.variant,
    )


def upper_bound(M, dist, alpha, n, *, seed=None,
                samples=DEFAULT_MOMENT_SAMPLES, nodes=DEFAULT_NODES):
    """|J| <= M (sigma_alpha^alpha + sigma_n^n), reported in both forms.

    ``value`` is the tight sum form; ``loose_value`` is the factored form
    M (1 + sigma_n^(n-alpha)) sigma_n^alpha, which never undercuts it.
    """
    alpha = float(alpha)
    n = float(n)
    _require_envelope(M, "upper_sup", alpha=alpha, n=n)

    def loose(m):
        m_n = m[n]
        return M.value * (1.0 + m_n ** ((n - alpha) / n)) * m_n ** (alpha / n)

    return _power_sum_bound(
        "upper", M, dist, (("alpha", alpha), ("n", n)),
        [(1, alpha), (1, n)], 1.0, [(1.0, None)], 1.0,
        dict(seed=seed, samples=samples, nodes=nodes), loose,
    )


def _lower_sign(M, alpha, beta):
    """The gap sign of a lower envelope solved for (alpha, beta)."""
    _require_envelope(M, "lower_inf", alpha=alpha, beta=beta)
    return dict(M.params).get("sign", GAP_ABOVE)


def lower_bound_cauchy_schwarz(M, dist, alpha, beta, *, seed=None,
                               samples=DEFAULT_MOMENT_SAMPLES,
                               nodes=DEFAULT_NODES):
    """Signed gap >= M sigma_{alpha/2}^alpha / (1 + sigma_{alpha-beta}^{alpha-beta})."""
    alpha = float(alpha)
    beta = float(beta)
    sign = _lower_sign(M, alpha, beta)
    return _power_sum_bound(
        "lower_cauchy_schwarz", M, dist,
        (("alpha", alpha), ("beta", beta), ("sign", sign)),
        [(1, alpha / 2.0)], 2.0, [(1.0, None), (1, alpha - beta)], 1.0,
        dict(seed=seed, samples=samples, nodes=nodes),
    )


def valid_holder_q(k):
    """All admissible q for a given k: divisors of k+1 other than 1."""
    k = _check_k(k)
    return [q for q in range(2, k + 2) if (k + 1) % q == 0]


def check_holder_split(k, q):
    """(k, q) as ints; InvalidParameterError unless q >= 2 divides k+1."""
    k = _check_k(k)
    if not _is_whole(q) or q < 2 or (k + 1) % int(q) != 0:
        raise InvalidParameterError(
            f"q must be a divisor of k+1 = {k + 1} with q >= 2, got {q!r}"
        )
    return k, int(q)


def _is_whole(x):
    return math.isfinite(x) and int(x) == x


def _check_k(k):
    if not _is_whole(k) or k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    if k > MAX_HOLDER_K:
        raise InvalidParameterError(
            f"k = {k} exceeds the supported maximum {MAX_HOLDER_K}"
        )
    return int(k)


def _binomial_terms(k, first, step):
    """(C(k, l), first + l step) for l = 0..k: the expanded (1 + t)^k."""
    return [(math.comb(k, l), first + l * step) for l in range(k + 1)]


def lower_bound_holder(M, dist, alpha, beta, k, q, *, seed=None,
                       samples=DEFAULT_MOMENT_SAMPLES, nodes=DEFAULT_NODES):
    """The Hoelder-refined lower bound with free split (k, q).

    q must divide k+1 and exceed 1; p is the conjugate q/(q-1).  The value
    is M [sum_l C((k+1)/q-1, l) m_{alpha/p + l(alpha-beta)}]^p /
    [sum_l C(k, l) m_{l(alpha-beta)}]^{p/q}.
    """
    alpha = float(alpha)
    beta = float(beta)
    k, q = check_holder_split(k, q)
    sign = _lower_sign(M, alpha, beta)
    p = q / (q - 1.0)
    diff = alpha - beta
    return _power_sum_bound(
        "lower_holder", M, dist,
        (("alpha", alpha), ("beta", beta), ("k", k), ("q", q), ("p", p),
         ("sign", sign)),
        _binomial_terms((k + 1) // q - 1, alpha / p, diff), p,
        _binomial_terms(k, 0.0, diff), p / q,
        dict(seed=seed, samples=samples, nodes=nodes),
    )


def lower_bound_holder_single(M, dist, alpha, beta, k, *, seed=None,
                              samples=DEFAULT_MOMENT_SAMPLES,
                              nodes=DEFAULT_NODES):
    """The q = k+1 case of ``lower_bound_holder``: one numerator moment."""
    k = _check_k(k)
    report = lower_bound_holder(M, dist, alpha, beta, k, k + 1, seed=seed,
                                samples=samples, nodes=nodes)
    return replace(report, kind="lower_holder_single")


def variance_interval(f, dist, *, seed=None, samples=DEFAULT_MOMENT_SAMPLES,
                      nodes=DEFAULT_NODES):
    """Curvature interval: inf h * sigma_2^2 <= J <= sup h * sigma_2^2.

    An unbounded curvature side propagates to an infinite endpoint, which is
    a valid if trivial one-sided statement, not an error.
    """
    h_lo, h_hi = curvature_envelope(f)
    mean = _check_mean(f.mu, dist)
    moments = dist.abs_central_moments([2.0], seed=seed, samples=samples,
                                       nodes=nodes)
    m2 = moments[2.0].sigma_p_pow
    err2 = moments[2.0].abs_error_estimate

    def endpoint(h):
        if m2 == 0.0:
            return 0.0
        return h * m2

    lo = endpoint(h_lo.value)
    hi = endpoint(h_hi.value)
    unc = max(
        (abs(h.value) * err2 for h in (h_lo, h_hi) if math.isfinite(h.value)),
        default=0.0,
    )
    return BoundReport(
        kind="variance_interval",
        value=(lo, hi),
        mu=mean,
        envelope=h_lo,
        envelope_hi=h_hi,
        moments_used=tuple(moments.values()),
        params=tuple(h_lo.params),
        valid=True,
        uncertainty=unc,
        f_label=f.label,
        dist_label=dist.variant,
    )


def _tuple_denominator_orders(terms, alpha, k):
    """Collapse the k-fold product sum over exponent tuples to multisets.

    Each multiset of term indices with counts (c_1..c_t) contributes
    multinomial(k; c) * prod a_i^{c_i} at moment order
    k*alpha - sum c_i eta_i.  Returns [(coefficient, order)].
    """
    idx = range(len(terms))
    combos = itertools.combinations_with_replacement(idx, k)
    out = []
    seen = 0
    for combo in combos:
        seen += 1
        if seen > MAX_DENOMINATOR_TERMS:
            raise InvalidParameterError(
                f"k = {k} over {len(terms)} terms expands past "
                f"{MAX_DENOMINATOR_TERMS} denominator terms"
            )
        counts = [combo.count(i) for i in idx]
        coeff = math.factorial(k)
        weight = 1.0
        order = k * alpha
        for i, c in enumerate(counts):
            coeff //= math.factorial(c)
            weight *= terms[i][1] ** c
            order -= c * terms[i][0]
        out.append((coeff * weight, float(order)))
    return out


def general_bounds(f, dist, terms, mode, k=None, sign=GAP_ABOVE, *,
                   seed=None, samples=DEFAULT_MOMENT_SAMPLES,
                   nodes=DEFAULT_NODES):
    """Bounds against a user-chosen power sum t(x) = sum a_eta |x-mu|^eta.

    mode "upper": |J| <= sup(|f - f(mu)| / t) * sum a_eta m_eta.
    mode "lower": signed gap >= inf * m_{alpha/2}^2 / sum a_eta m_{alpha-eta}
    with alpha the largest exponent; the optional integer k swaps in the
    k-fold-product denominator with numerator order alpha/(1+1/k).
    """
    terms = check_terms(terms)
    moment_kw = dict(seed=seed, samples=samples, nodes=nodes)
    if mode == "upper":
        if k is not None:
            raise InvalidParameterError("k applies to the lower mode only")
        M = sup_ratio_general(f, terms, "sup")
        return _power_sum_bound(
            "general_upper", M, dist, (("terms", terms), ("mode", mode)),
            [(a, eta) for eta, a in terms], 1.0, [(1.0, None)], 1.0, moment_kw,
        )
    if mode != "lower":
        raise InvalidParameterError(f"mode must be 'upper' or 'lower', got {mode!r}")

    params = (("terms", terms), ("mode", mode), ("sign", sign))
    if k is not None:
        k = _check_k(k)
        params += (("k", k),)
    M = sup_ratio_general(f, terms, "inf", sign)
    alpha = max(eta for eta, _ in terms)
    if k is None:
        num, power, root = [(1, alpha / 2.0)], 2.0, 1.0
        den = [(a, float(alpha - eta)) for eta, a in terms]
    else:
        num, power, root = [(1, alpha * k / (k + 1.0))], (k + 1.0) / k, 1.0 / k
        den = _tuple_denominator_orders(terms, alpha, k)
    return _power_sum_bound("general_lower", M, dist, params, num, power, den,
                            root, moment_kw)
