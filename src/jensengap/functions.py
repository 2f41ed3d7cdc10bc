"""Function model: evaluation domains, growth declarations, and linear shifts.

A :class:`FunctionSpec` packages the callable f together with the interval I
it lives on, the anchor point mu where the gap E[f(X)] - f(E[X]) is taken,
and an optional analytic slope at mu.  Subtracting the tangent-like line
a*(x - mu) never changes the gap, but it can shrink the envelope constants
dramatically, so the shift is a first-class operation here.

Growth declarations state which power-law envelope the caller believes f
fits, and are the one place where the exponents and the gap sign are
checked.  The envelope solver screens a declaration on its own probe scan;
``validate_growth`` reports that verdict without raising.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditionViolationError,
    DerivativeEstimateError,
    DomainError,
    EvaluationError,
    InvalidParameterError,
    UnboundedEnvelopeError,
)

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Interval:
    """Closed interval of reals; either endpoint may be infinite."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise InvalidParameterError("interval endpoints must not be NaN")
        if not self.lo <= self.hi:
            raise InvalidParameterError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x):
        return self.lo <= x <= self.hi

    def to_list(self):
        return [None if math.isinf(self.lo) else self.lo,
                None if math.isinf(self.hi) else self.hi]

    @classmethod
    def from_list(cls, pair):
        lo, hi = _items(pair)
        return cls(-math.inf if lo is None else _real(lo), math.inf if hi is None else _real(hi))


GAP_ABOVE = "gap_above"
GAP_BELOW = "gap_below"


@dataclass(frozen=True)
class GrowthDeclaration:
    """Declared power-law envelope for f around mu and at the ends of I.

    role "upper": |f(x) - f(mu)| = O(|x - mu|^alpha) near mu and
    O(|x - mu|^n) far away, with 0 < alpha <= n.

    role "lower": the gap f(x) - f(mu) (or its negative, per ``sign``) is
    strictly positive off mu, Omega(|x - mu|^alpha) near mu and
    Omega(|x - mu|^beta) far away, with 0 <= beta <= alpha.
    """

    role: str
    alpha: float
    n: float | None = None
    beta: float | None = None
    sign: str = GAP_ABOVE

    def __post_init__(self):
        if self.role not in ("upper", "lower"):
            raise InvalidParameterError(f"role must be 'upper' or 'lower', got {self.role!r}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise InvalidParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if self.role == "upper":
            if self.n is None or not (self.n >= self.alpha and math.isfinite(self.n)):
                raise InvalidParameterError("upper role needs n >= alpha")
        else:
            if self.beta is None or not (0 <= self.beta <= self.alpha):
                raise InvalidParameterError("lower role needs 0 <= beta <= alpha")
            if self.sign not in (GAP_ABOVE, GAP_BELOW):
                raise InvalidParameterError(f"sign must be gap_above or gap_below, got {self.sign!r}")


@dataclass(frozen=True)
class FunctionSpec:
    """A function together with its interval, anchor point, and metadata.

    ``rule`` must accept a float (and ideally a numpy array) of points inside
    ``domain`` and return finite values, and it must be deterministic: the
    same point always gives the same value, which every bound assumes.
    ``slope_at_mu`` is the analytic derivative at mu when one is known; for
    a convex kink it is the midpoint of the subgradient interval.
    ``descriptor`` is the JSON text, keys sorted, of a built-in or shifted
    function's descriptor (a custom rule has none).  ``poly`` is f's
    polynomial form, when the built-in rule is one: power-basis coefficients
    (a_0, a_1, ...) with f(x) = sum_j a_j x^j up to a linear term.  A linear
    shift keeps the form as it is, since a linear term adds 0 to a gap;
    ``taylor_coefficients`` gives its jet.

    ``_solved`` holds every envelope constant solved for this spec (the
    curvature pair and each declared or general constant, keyed by its
    role and parameters), so each is computed once per spec.  It takes no part
    in equality or hashing, and a spec made by ``dataclasses.replace`` or
    ``linear_shift`` starts without it.
    """

    label: str
    rule: object = field(repr=False)
    domain: Interval
    mu: float
    slope_at_mu: float | None = None
    descriptor: str = ""
    poly: tuple | None = field(default=None, repr=False)
    _solved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.domain.contains(self.mu):
            raise DomainError(f"mu = {self.mu} lies outside the domain {self.domain}")

    def __call__(self, x):
        return evaluate(self, x)

    def to_dict(self):
        return json.loads(self.descriptor) if self.descriptor else {"kind": "custom", "mu": self.mu}


def evaluate(f, x):
    """f(x) with domain and finiteness checks."""
    if not f.domain.contains(x):
        raise DomainError(f"x = {x} outside domain {f.domain} of {f.label}")
    val = float(f.rule(x))
    if not math.isfinite(val):
        raise EvaluationError(f"{f.label} returned {val} at x = {x}")
    return val


def eval_many(f, xs):
    """Vectorized evaluation over points already known to lie in the domain."""
    return _apply_rule(f.rule, xs, f.label)


def _apply_rule(rule, xs, label):
    """``rule`` over the array ``xs``: one vectorized call, or one call per
    point when the rule refuses an array; EvaluationError naming ``label``
    unless every value is finite."""
    xs = np.asarray(xs, dtype=float)
    try:
        vals = np.asarray(rule(xs), dtype=float)
        if vals.shape != xs.shape:
            raise ValueError
    except Exception:
        vals = np.array([float(rule(x)) for x in xs])
    if not np.isfinite(vals).all():
        bad = xs[~np.isfinite(vals)][:1]
        raise EvaluationError(f"{label} returned a non-finite value near x = {bad}")
    return vals


def taylor_coefficients(poly, m):
    """[f^(k)(m) / k! for k = 0..d] of the polynomial with power-basis
    coefficients ``poly`` and degree d (trailing zeros dropped): b_k = sum_j
    a_j C(j, k) m^(j - k), each summed by math.fsum.  A power past the largest
    double raises OverflowError, and terms that overflow with both signs
    raise ValueError."""
    deg = max((j for j, a in enumerate(poly) if a != 0.0), default=0)
    return [math.fsum(poly[j] * math.comb(j, k) * m ** (j - k) for j in range(k, deg + 1))
            for k in range(deg + 1)]


# ---------------------------------------------------------------------------
# Parameter reading, shared with the distribution descriptors

def _real(v):
    """float(v) for a descriptor number; JSON true is not the number 1."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


def _finite(v):
    v = _real(v)
    if not math.isfinite(v):
        raise ValueError(f"{v} is not finite")
    return v


def _items(v):
    """``v`` to read item by item; text and objects iterate, but are not lists."""
    if isinstance(v, (str, bytes, dict)):
        raise TypeError(f"{v!r} is not a list")
    return v


_NUMBER = (_real, "a number")
_FINITE = (_finite, "a finite number")
_NUMBERS = (lambda v: tuple(_real(x) for x in _items(v)), "a list of numbers")
_DOMAIN = (lambda v: v if isinstance(v, Interval) else Interval.from_list(v), "a [lo, hi] pair")


def _read_fields(d, name, tag, fields, optional=()):
    """{key: convert(d[key])} for each key of ``fields``, which maps it to
    (convert, expected), skipping the ``optional`` keys that ``d`` lacks or
    sets to null.  Any other missing key, a key of ``d`` besides ``tag``
    that ``fields`` lacks, or a value that ``convert`` refuses raises
    InvalidParameterError naming the descriptor ``name`` and the key."""
    unknown = sorted(set(d) - set(fields) - {tag})
    if unknown:
        raise InvalidParameterError(f"{name} has keys it does not take: {unknown}")
    out = {}
    for key, (convert, expected) in fields.items():
        if key in optional and d.get(key) is None:
            continue
        if key not in d:
            raise InvalidParameterError(f"{name} is missing {key!r}")
        try:
            out[key] = convert(d[key])
        except InvalidParameterError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameterError(
                f"{name}: {key!r} must be {expected}, got {d[key]!r}") from None
    return out


# ---------------------------------------------------------------------------
# Built-in function rules: each builder takes mu, the domain and the kind's
# parameters, makes the kind's own checks, and returns the rule, its slope
# at mu and its polynomial form (None unless the rule is a polynomial).

def _log(mu, dom):
    if dom is None:
        raise InvalidParameterError(
            "log needs an explicit domain with a positive lower endpoint; "
            "it is unbounded on compact neighborhoods of 0")
    if mu <= 0:
        raise InvalidParameterError(f"log needs mu > 0, got {mu}")
    if dom.lo <= 0:
        raise InvalidParameterError(f"log domain must have a positive lower endpoint, got {dom.lo}")
    return np.log, 1.0 / mu, None


def _sqrt(mu, dom):
    if dom.lo < 0:
        raise InvalidParameterError("sqrt domain must lie in [0, inf)")
    return np.sqrt, 0.5 / math.sqrt(mu) if mu > 0 else None, None


def _polynomial(mu, dom, coeffs):
    if not coeffs:
        raise InvalidParameterError("polynomial needs at least one coefficient")
    return ((lambda x: np.polynomial.polynomial.polyval(x, coeffs)),
            float(sum(i * c * mu ** (i - 1) for i, c in enumerate(coeffs) if i > 0)), coeffs)


# alpha > 1: differentiable with slope 0; alpha == 1: kink, midpoint of the
# subgradient [-1, 1]; alpha < 1: cusp, no usable slope.

def _abs_power(mu, dom, alpha):
    if not 0 < alpha < math.inf:
        raise InvalidParameterError("abs_power needs a finite alpha > 0")
    return (lambda x: np.abs(x - mu) ** alpha), 0.0 if alpha >= 1 else None, None


def _abs_power_sum(mu, dom, alpha, n):
    if not 0 < alpha <= n < math.inf:
        raise InvalidParameterError("abs_power_sum needs 0 < alpha <= n < inf")
    return ((lambda x: np.abs(x - mu) ** alpha + np.abs(x - mu) ** n),
            0.0 if alpha >= 1 else None, None)


# Each built-in kind: the parameters it takes besides mu and domain, its
# default domain (None: the caller must give one), its builder, and its
# label from mu and the parameters as the caller wrote them (None: the
# kind's name).
_KINDS = {
    "sin": ({}, Interval(), lambda mu, dom: (np.sin, math.cos(mu), None), None),
    "cos": ({}, Interval(), lambda mu, dom: (np.cos, -math.sin(mu), None), None),
    "log": ({}, None, _log, None),
    "sqrt": ({}, Interval(0.0, math.inf), _sqrt, None),
    "pow4": ({}, Interval(),
             lambda mu, dom: ((lambda x: x ** 4), 4.0 * mu ** 3, (0.0, 0.0, 0.0, 0.0, 1.0)), None),
    "polynomial": ({"coeffs": _NUMBERS}, Interval(), _polynomial,
                   lambda mu, coeffs: "poly" + str(list(coeffs))),
    "abs_power": ({"alpha": _NUMBER}, Interval(), _abs_power,
                  lambda mu, alpha: f"|x-{mu:g}|^{alpha}"),
    "abs_power_sum": ({"alpha": _NUMBER, "n": _NUMBER}, Interval(), _abs_power_sum,
                      lambda mu, alpha, n: f"|x-{mu:g}|^{alpha} + |x-{mu:g}|^{n}"),
}


def make_function(kind, mu=0.0, domain=None, **params):
    """Build a FunctionSpec for one of the built-in rules.

    Kinds: sin, cos, log, sqrt, pow4, polynomial(coeffs=...),
    abs_power(alpha=...), abs_power_sum(alpha=..., n=...).  mu, domain and
    the parameters are read as a descriptor's are; mu must be finite.
    """
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidParameterError(f"unknown function kind {kind!r}")
    takes, default, build, label = _KINDS[kind]
    read = _read_fields({"mu": mu, "domain": domain, **params}, f"function descriptor for {kind!r}",
                        None, {"mu": _FINITE, "domain": _DOMAIN, **takes},
                        optional=("mu", "domain"))
    mu, dom = read.pop("mu", 0.0), read.pop("domain", default)
    try:
        rule, slope, poly = build(mu, dom, **read)
        if slope is not None and not math.isfinite(slope):
            raise OverflowError
    except OverflowError:
        raise InvalidParameterError(f"{kind} has no finite slope at mu = {mu}") from None
    desc = json.dumps({"kind": kind, "mu": mu, "domain": dom.to_list(), **read}, sort_keys=True)
    return FunctionSpec(label=kind if label is None else label(mu, **params), rule=rule,
                        domain=dom, mu=mu, slope_at_mu=slope, descriptor=desc, poly=poly)


def custom_function(rule, mu, domain=None, slope_at_mu=None, label="custom"):
    """Wrap an arbitrary callable as a FunctionSpec; mu, domain and
    slope_at_mu are read as make_function reads them."""
    read = _read_fields({"mu": mu, "domain": domain, "slope_at_mu": slope_at_mu},
                        "custom function", None,
                        {"mu": _FINITE, "domain": _DOMAIN, "slope_at_mu": _FINITE},
                        optional=("domain", "slope_at_mu"))
    return FunctionSpec(label=label, rule=rule, domain=read.get("domain", Interval()),
                        mu=read["mu"], slope_at_mu=read.get("slope_at_mu"))


def function_from_dict(d):
    """Parse the JSON descriptor form of a function."""
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidParameterError("function descriptor must be an object with a 'kind' key")
    if d["kind"] != "shifted":
        return make_function(**d)
    shift = _read_fields(d, "function descriptor for 'shifted'", "kind", {
        "base": (function_from_dict, "a function descriptor"), "slope": _NUMBER})
    return linear_shift(shift["base"], shift["slope"])


# ---------------------------------------------------------------------------
# Linear shift

def linear_shift(f, a):
    """g(x) = f(x) - a*(x - mu).  Leaves the gap E[g(X)] - g(E[X]) unchanged."""
    a = _read_fields({"slope": a}, f"linear shift of {f.label}", None, {"slope": _FINITE})["slope"]
    base_rule, mu = f.rule, f.mu
    rule = lambda x: base_rule(x) - a * (np.asarray(x) - mu)
    slope = None if f.slope_at_mu is None else f.slope_at_mu - a
    if slope is not None and not math.isfinite(slope):
        raise InvalidParameterError(f"linear shift of {f.label}: slope at mu {f.slope_at_mu:g} "
                                    f"less the shift {a:g} does not fit a double")
    desc = json.dumps({"base": f.to_dict(), "kind": "shifted", "slope": a}, sort_keys=True)
    return FunctionSpec(label=f"{f.label} - {a:g}*(x-{mu:g})", rule=rule,
                        domain=f.domain, mu=mu, slope_at_mu=slope, descriptor=desc, poly=f.poly)


def select_shift_slope(f):
    """Slope a to remove at mu: analytic when declared, else finite differences.

    The central difference is Richardson-refined once; a one-sided pair is
    compared first so a kink yields the subgradient midpoint instead of a
    meaningless average across it.
    """
    if f.slope_at_mu is not None:
        return float(f.slope_at_mu)

    mu, dom = f.mu, f.domain
    h = max(abs(mu), 1.0) * EPS ** (1.0 / 3.0)
    while h > 0 and not (dom.contains(mu + 2 * h) or dom.contains(mu - 2 * h)):
        h /= 4.0
    if h == 0:
        raise DerivativeEstimateError("domain too small for finite differences", math.inf)

    def one_sided(sgn, step):
        # second-order one-sided difference
        f0, f1, f2 = (evaluate(f, mu),
                      evaluate(f, mu + sgn * step),
                      evaluate(f, mu + sgn * 2 * step))
        return sgn * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * step)

    right_ok = dom.contains(mu + 2 * h)
    left_ok = dom.contains(mu - 2 * h)
    scale = max(1.0, abs(evaluate(f, mu)))

    if right_ok and left_ok:
        d_plus, d_minus = one_sided(+1, h), one_sided(-1, h)
        if abs(d_plus - d_minus) > 1e-5 * max(scale, abs(d_plus), abs(d_minus)):
            return 0.5 * (d_plus + d_minus)
        central = lambda s: (evaluate(f, mu + s) - evaluate(f, mu - s)) / (2.0 * s)
        d1, d2 = central(h), central(h / 2.0)
        refined = (4.0 * d2 - d1) / 3.0
    else:
        sgn = +1 if right_ok else -1
        d1, d2 = one_sided(sgn, h), one_sided(sgn, h / 2.0)
        refined = (4.0 * d2 - d1) / 3.0

    residual = abs(refined - d2)
    if residual > 1e-5 * max(scale, abs(refined)):
        raise DerivativeEstimateError(
            f"slope estimate did not converge at mu = {mu} (residual {residual:.3g})", residual)
    return refined


# ---------------------------------------------------------------------------
# Growth screen

@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    role: str
    worst_x: float
    worst_ratio: float
    message: str = ""


def validate_growth(f, decl):
    """Screen a GrowthDeclaration on the envelope solver's probe scan.

    A view over ``sup_ratio_upper`` and ``inf_ratio_lower`` for callers
    that want a verdict rather than an exception: the report fails, with
    the screen's reason, when an upper ratio climbs without bound or a lower
    one has the wrong sign or decays to zero.  A passing report carries the
    constant those solvers keep on ``f`` and where it is attained.  Other
    typed errors, such as a degenerate constant, propagate.
    """
    from .envelope import inf_ratio_lower, sup_ratio_upper

    try:
        m = (sup_ratio_upper(f, decl.alpha, decl.n) if decl.role == "upper"
             else inf_ratio_lower(f, decl.alpha, decl.beta, decl.sign))
    except (UnboundedEnvelopeError, ConditionViolationError) as exc:
        return GrowthReport(False, decl.role, math.nan, math.nan, str(exc))
    return GrowthReport(True, decl.role, m.arg, m.value)
