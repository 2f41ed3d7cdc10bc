"""Bound formulas: envelope constants combined with absolute central moments.

Each operation assembles one inequality into a BoundReport, built in one
place (``_report``), after it solves its envelope constants, checks its law
against their mu and f's domain (``functions.check_law``, as the oracle
does) and takes its moments.  The variance interval is one formula; every
other kind is a spec of the power-sum formula M (sum c m_r)^power / (sum c
m_r)^root: the upper bound and the Cauchy-Schwarz and Hoelder lower bounds
are the two-term and one-term cases of the general power-sum bounds,
reported with their own parameters.  The report carries everything needed
to audit or serialize the claim: the envelope constant with its attainment
point, every moment value used with its provenance, the parameter set, and
an uncertainty that folds the moment error estimates through the formula
(the formula itself is exact; only sampled or integrated moments make a
bound value uncertain).

Moment-power notation: for order r the quantity sigma_r^r is written m_r
below, with m_0 = 1 by the |t|^0 = 1 convention.

Every bound passes its keywords (``seed``, ``samples``, ``nodes``,
``method``) to ``dist.abs_central_moments``, whose defaults set the moment
budget; ``method`` is "auto" (an exact route, then quadrature, then Monte
Carlo), "quadrature" or "monte_carlo".
"""

import itertools
import math
from dataclasses import dataclass, replace

from .distributions import check_count
from .envelope import (
    curvature_envelope,
    check_terms,
    sup_ratio_general,
)
from .errors import EvaluationError, InvalidParameterError
from .functions import GAP_ABOVE, check_law

MAX_HOLDER_K = 60
MAX_DENOMINATOR_TERMS = 100_000


@dataclass(frozen=True)
class BoundReport:
    """One computed bound and its full provenance.

    ``value`` is a float for one-sided kinds and a (lo, hi) pair for
    variance_interval.  ``envelope`` is the constant the formula multiplies;
    variance_interval stores its inf constant there and the sup constant in
    ``envelope_hi``.  ``valid`` is read from the constants' ``validated``,
    which is always true: an envelope that fails its growth screen raises
    instead of returning.
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
        return {
            "kind": self.kind,
            "value": self.value,
            "mu": self.mu,
            "envelope": self.envelope.to_dict() if self.envelope else None,
            "envelope_hi": self.envelope_hi.to_dict() if self.envelope_hi else None,
            "loose_value": self.loose_value,
            "moments_used": [m.to_dict() for m in self.moments_used],
            "params": dict(self.params),
            "valid": self.valid,
            "uncertainty": self.uncertainty,
            "f_label": self.f_label,
            "dist_label": self.dist_label,
        }


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


def _fsum(terms):
    """Exact sum of terms >= 0; inf where it overflows a double, as sum() gives."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _frexp_sum(total, terms):
    """frexp of the sum of c * v over (c, v) pairs >= 0, whose float ``total``
    is given.  Where that overflowed, every term is scaled by the binary
    exponent of the largest before summing, so the sum never forms."""
    if math.isfinite(total):
        return math.frexp(total)
    parts = [(m_c * m_v, e_c + e_v) for (m_c, e_c), (m_v, e_v) in
             ((math.frexp(c), math.frexp(v)) for c, v in terms)]
    top = max(e for _, e in parts)
    mant, e = math.frexp(math.fsum(math.ldexp(x, e - top) for x, e in parts))
    return mant, e + top


def _report(kind, mean, dist, moments, value, unc, params, M, M_hi=None, loose=None):
    """The BoundReport of every kind: ``M`` is the envelope constant the
    formula multiplies, ``M_hi`` the variance interval's sup constant, and
    ``valid`` is read from them here."""
    return BoundReport(
        kind=kind,
        value=value,
        mu=mean,
        envelope=M,
        envelope_hi=M_hi,
        moments_used=tuple(moments.values()),
        params=params,
        valid=all(c.validated for c in (M, M_hi) if c is not None),
        uncertainty=unc,
        loose_value=loose,
        f_label=M.f_label,
        dist_label=dist.variant,
    )


def _power_sum_bound(kind, M, dist, params, num, power, den, root, moment_kw,
                     loose=None):
    """The bound M (sum c m_r)^power / (sum c m_r)^root over two term lists.

    ``num`` and ``den`` are (coefficient, order) pairs.  A denominator order
    of None is the literal m_0 = 1, not requested as a moment; every other
    order is requested in sequence, numerator first, which is the order
    ``moments_used`` lists them in.  Every bound kind except the variance
    interval is one such spec; exact sums make it blind to term order.
    ``loose``, a formula of the m_r values, gives the report's ``loose_value``.
    A value or loose value that overflows a double raises EvaluationError:
    an inf read off an overflow is not a claim the moments support.
    """
    def formula(m):
        tops = [(c, m[r]) for c, r in num]
        bottoms = [(c, 1.0 if r is None else m[r]) for c, r in den]
        top, bottom = (_fsum(c * v for c, v in terms) for terms in (tops, bottoms))
        try:
            value = M.value * top ** power / bottom ** root
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        # a sum, power or product overflowed; the bound may fit: binary
        # exponents apart
        (m_M, e), (m_t, e_t), (m_d, e_d) = (
            math.frexp(M.value), _frexp_sum(top, tops), _frexp_sum(bottom, bottoms))
        e += power * e_t - root * e_d
        return math.ldexp(m_M * m_t ** power / m_d ** root * 2.0 ** (e % 1), math.floor(e))

    mean = check_law(dist, M.domain, M.f_label, M.mu)
    orders = [r for _, r in num + den if r is not None]
    moments = dist.abs_central_moments(orders, **moment_kw)
    # the uncertainty is the first-order response to each moment's error
    # estimate, measured by re-evaluation and summed exactly
    m = {p: mv.sigma_p_pow for p, mv in moments.items()}
    try:
        value = float(formula(m))
        unc = _fsum(abs(formula({**m, p: m[p] + mv.abs_error_estimate}) - value)
                    for p, mv in moments.items() if mv.abs_error_estimate)
        if loose is not None:
            loose = float(loose(m))
        if not all(math.isfinite(v) for v in (value, loose) if v is not None):
            raise OverflowError
    except OverflowError:
        raise EvaluationError(
            f"the {kind} bound on this {dist.variant} distribution "
            "overflows a double") from None
    return _report(kind, mean, dist, moments, value, unc, params, M, loose=loose)


def upper_bound(M, dist, alpha, n, **moment_kw):
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
        [(1, alpha), (1, n)], 1.0, [(1.0, None)], 1.0, moment_kw, loose,
    )


def _lower_sign(M, alpha, beta):
    """The gap sign of a lower envelope solved for (alpha, beta)."""
    _require_envelope(M, "lower_inf", alpha=alpha, beta=beta)
    return dict(M.params).get("sign", GAP_ABOVE)


def lower_bound_cauchy_schwarz(M, dist, alpha, beta, **moment_kw):
    """Signed gap >= M sigma_{alpha/2}^alpha / (1 + sigma_{alpha-beta}^{alpha-beta})."""
    alpha = float(alpha)
    beta = float(beta)
    sign = _lower_sign(M, alpha, beta)
    return _power_sum_bound(
        "lower_cauchy_schwarz", M, dist,
        (("alpha", alpha), ("beta", beta), ("sign", sign)),
        [(1, alpha / 2.0)], 2.0, [(1.0, None), (1, alpha - beta)], 1.0, moment_kw,
    )


def valid_holder_q(k):
    """All admissible q for a given k: divisors of k+1 other than 1."""
    k = _check_k(k)
    return [q for q in range(2, k + 2) if (k + 1) % q == 0]


def check_holder_split(k, q):
    """(k, q) as ints; InvalidParameterError unless q >= 2 divides k+1."""
    k = _check_k(k)
    try:
        whole = check_count(q, "q")
    except InvalidParameterError:
        whole = 0
    if whole < 2 or (k + 1) % whole != 0:
        raise InvalidParameterError(
            f"q must be a divisor of k+1 = {k + 1} with q >= 2, got {q!r}"
        )
    return k, whole


def _check_k(k):
    k = check_count(k, "k")
    if k > MAX_HOLDER_K:
        raise InvalidParameterError(
            f"k = {k} exceeds the supported maximum {MAX_HOLDER_K}"
        )
    return k


def _expand(terms, alpha, degree, first):
    """(sum a_eta t^(alpha-eta))^degree expanded: each multiset of term indices,
    with counts c_i, gives multinomial(degree; c) prod a_i^c_i at moment order
    first + sum c_i (alpha - eta_i), in ``combinations_with_replacement`` order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(len(terms)), degree):
        coeff, weight, order = math.factorial(degree), 1.0, 0.0
        for i, (eta, a) in enumerate(terms):
            c = combo.count(i)
            coeff //= math.factorial(c)
            weight *= a ** c
            order += c * (alpha - eta)
        out.append((coeff * weight, first + order))
    return out


def _holder_bound(kind, M, dist, params, terms, alpha, k, q, moment_kw):
    """Hoelder at the split (k, q), p = q/(q-1): M num^p / den^(p/q), ``terms``
    expanded to degree (k+1)/q - 1 from order alpha/p in num, to k from 0 in den."""
    p = q / (q - 1.0)
    return _power_sum_bound(
        kind, M, dist, params,
        _expand(terms, alpha, (k + 1) // q - 1, alpha / p), p,
        _expand(terms, alpha, k, 0.0), p / q, moment_kw,
    )


def lower_bound_holder(M, dist, alpha, beta, k, q, **moment_kw):
    """The Hoelder-refined lower bound with free split (k, q).

    q must divide k+1 and exceed 1; p is the conjugate q/(q-1).  The value
    is M [sum_l C((k+1)/q-1, l) m_{alpha/p + l(alpha-beta)}]^p /
    [sum_l C(k, l) m_{l(alpha-beta)}]^{p/q}, its orders listed rising.
    """
    alpha = float(alpha)
    beta = float(beta)
    k, q = check_holder_split(k, q)
    sign = _lower_sign(M, alpha, beta)
    return _holder_bound(
        "lower_holder", M, dist,
        (("alpha", alpha), ("beta", beta), ("k", k), ("q", q),
         ("p", q / (q - 1.0)), ("sign", sign)),
        ((alpha, 1.0), (beta, 1.0)), alpha, k, q, moment_kw,
    )


def lower_bound_holder_single(M, dist, alpha, beta, k, **moment_kw):
    """The q = k+1 case of ``lower_bound_holder``: one numerator moment."""
    k = _check_k(k)
    report = lower_bound_holder(M, dist, alpha, beta, k, k + 1, **moment_kw)
    return replace(report, kind="lower_holder_single")


def variance_interval(f, dist, **moment_kw):
    """Curvature interval: inf h * sigma_2^2 <= J <= sup h * sigma_2^2.

    An unbounded curvature side propagates to an infinite endpoint, which is
    a valid if trivial one-sided statement, not an error.  The law is
    checked before the curvature is solved, and the curvature is solved
    once per FunctionSpec: later intervals of the same f reuse it.
    """
    mean = check_law(dist, f.domain, f.label, f.mu)
    h_lo, h_hi = curvature_envelope(f)
    moments = dist.abs_central_moments([2.0], **moment_kw)
    m2, err2 = moments[2.0].sigma_p_pow, moments[2.0].abs_error_estimate
    value = (0.0, 0.0) if m2 == 0.0 else (h_lo.value * m2, h_hi.value * m2)
    unc = max((abs(h.value) * err2 for h in (h_lo, h_hi) if math.isfinite(h.value)),
              default=0.0)
    return _report("variance_interval", mean, dist, moments, value, unc, h_lo.params,
                   h_lo, h_hi)


def general_bounds(f, dist, terms, mode, k=None, sign=GAP_ABOVE, **moment_kw):
    """Bounds against a user-chosen power sum t(x) = sum a_eta |x-mu|^eta.

    mode "upper": |J| <= sup(|f - f(mu)| / t) * sum a_eta m_eta.
    mode "lower": the Hoelder bound at q = k+1 (k = 1 when not given), with
    alpha the largest exponent; at k = 1, signed gap >= inf * m_{alpha/2}^2
    / sum a_eta m_{alpha-eta}.
    """
    terms = check_terms(terms)
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
    if k is None:
        k = 1
    else:
        k = _check_k(k)
        params += (("k", k),)
    # refuse the C(len(terms) + k - 1, k) expansion before a wasted solve
    if math.comb(len(terms) + k - 1, k) > MAX_DENOMINATOR_TERMS:
        raise InvalidParameterError(f"k = {k} over {len(terms)} terms expands past "
                                    f"{MAX_DENOMINATOR_TERMS} denominator terms")
    M = sup_ratio_general(f, terms, "inf", sign)
    alpha = max(eta for eta, _ in terms)
    return _holder_bound("general_lower", M, dist, params, terms, alpha, k,
                         k + 1, moment_kw)
