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
        lo, hi = pair
        return cls(-math.inf if lo is None else float(lo), math.inf if hi is None else float(hi))


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
    ``domain`` and return finite values.  ``slope_at_mu`` is the analytic
    derivative at mu when one is known; for a convex kink it is the midpoint
    of the subgradient interval.
    """

    label: str
    rule: object = field(repr=False)
    domain: Interval
    mu: float
    slope_at_mu: float | None = None
    descriptor: tuple = ()

    def __post_init__(self):
        if not self.domain.contains(self.mu):
            raise DomainError(f"mu = {self.mu} lies outside the domain {self.domain}")

    def __call__(self, x):
        return evaluate(self, x)

    def to_dict(self):
        return dict(self.descriptor) if self.descriptor else {"kind": "custom", "mu": self.mu}


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
    xs = np.asarray(xs, dtype=float)
    try:
        vals = np.asarray(f.rule(xs), dtype=float)
        if vals.shape != xs.shape:
            raise ValueError
    except Exception:
        vals = np.array([float(f.rule(x)) for x in xs])
    if not np.all(np.isfinite(vals)):
        bad = xs[~np.isfinite(vals)][:1]
        raise EvaluationError(f"{f.label} returned a non-finite value near x = {bad}")
    return vals


# ---------------------------------------------------------------------------
# Built-in function rules

def _poly_slope(coeffs, mu):
    return float(sum(i * c * mu ** (i - 1) for i, c in enumerate(coeffs) if i > 0))


def make_function(kind, mu=0.0, domain=None, **params):
    """Build a FunctionSpec for one of the built-in rules.

    Kinds: sin, cos, log, sqrt, pow4, polynomial(coeffs=...),
    abs_power(alpha=...), abs_power_sum(alpha=..., n=...),
    shifted(base=..., slope=...).
    """
    mu = float(mu)
    desc = {"kind": kind, "mu": mu}

    if kind == "sin":
        rule, dom, slope = np.sin, Interval(), math.cos(mu)
    elif kind == "cos":
        rule, dom, slope = np.cos, Interval(), -math.sin(mu)
    elif kind == "log":
        if domain is None:
            raise InvalidParameterError(
                "log needs an explicit domain with a positive lower endpoint; "
                "it is unbounded on compact neighborhoods of 0")
        if mu <= 0:
            raise InvalidParameterError(f"log needs mu > 0, got {mu}")
        rule, dom, slope = np.log, None, 1.0 / mu
    elif kind == "sqrt":
        rule, dom = np.sqrt, Interval(0.0, math.inf)
        slope = 0.5 / math.sqrt(mu) if mu > 0 else None
    elif kind == "pow4":
        rule, dom, slope = (lambda x: x ** 4), Interval(), 4.0 * mu ** 3
    elif kind == "polynomial":
        coeffs = tuple(float(c) for c in params["coeffs"])
        if not coeffs:
            raise InvalidParameterError("polynomial needs at least one coefficient")
        rule = lambda x, c=coeffs: np.polynomial.polynomial.polyval(x, c)
        dom, slope = Interval(), _poly_slope(coeffs, mu)
        desc["coeffs"] = list(coeffs)
    elif kind == "abs_power":
        alpha = float(params["alpha"])
        if not 0 < alpha < math.inf:
            raise InvalidParameterError("abs_power needs a finite alpha > 0")
        rule = lambda x, a=alpha, m=mu: np.abs(x - m) ** a
        dom = Interval()
        # alpha > 1: differentiable with slope 0; alpha == 1: kink, midpoint
        # of the subgradient [-1, 1]; alpha < 1: cusp, no usable slope.
        slope = 0.0 if alpha >= 1 else None
        desc["alpha"] = alpha
    elif kind == "abs_power_sum":
        alpha, n = float(params["alpha"]), float(params["n"])
        if not 0 < alpha <= n < math.inf:
            raise InvalidParameterError("abs_power_sum needs 0 < alpha <= n < inf")
        rule = lambda x, a=alpha, b=n, m=mu: np.abs(x - m) ** a + np.abs(x - m) ** b
        dom = Interval()
        slope = 0.0 if alpha >= 1 else None
        desc["alpha"], desc["n"] = alpha, n
    else:
        raise InvalidParameterError(f"unknown function kind {kind!r}")

    if domain is not None:
        dom = domain if isinstance(domain, Interval) else Interval.from_list(list(domain))
    if kind == "log" and dom.lo <= 0:
        raise InvalidParameterError(f"log domain must have a positive lower endpoint, got {dom.lo}")
    if kind == "sqrt" and dom.lo < 0:
        raise InvalidParameterError("sqrt domain must lie in [0, inf)")
    desc["domain"] = dom.to_list()

    label = kind if kind not in ("abs_power", "abs_power_sum", "polynomial") else \
        {"abs_power": f"|x-{mu:g}|^{params.get('alpha')}",
         "abs_power_sum": f"|x-{mu:g}|^{params.get('alpha')} + |x-{mu:g}|^{params.get('n')}",
         "polynomial": "poly" + str(list(params.get("coeffs", [])))}[kind]
    return FunctionSpec(label=label, rule=rule, domain=dom, mu=mu,
                        slope_at_mu=slope, descriptor=tuple(sorted(desc.items(), key=lambda kv: kv[0])))


def custom_function(rule, mu, domain=None, slope_at_mu=None, label="custom"):
    """Wrap an arbitrary callable as a FunctionSpec."""
    dom = domain if isinstance(domain, Interval) else (
        Interval() if domain is None else Interval.from_list(list(domain)))
    return FunctionSpec(label=label, rule=rule, domain=dom, mu=float(mu),
                        slope_at_mu=None if slope_at_mu is None else float(slope_at_mu))


_NUMBER = (float, "a number")
_NUMBERS = (lambda v: tuple(float(x) for x in v), "a list of numbers")


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


# the parameters each built-in kind takes besides "mu" and "domain"
_KIND_PARAMS = {
    "sin": {}, "cos": {}, "log": {}, "sqrt": {}, "pow4": {},
    "polynomial": {"coeffs": _NUMBERS},
    "abs_power": {"alpha": _NUMBER},
    "abs_power_sum": {"alpha": _NUMBER, "n": _NUMBER},
}


def function_from_dict(d):
    """Parse the JSON descriptor form of a function."""
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidParameterError("function descriptor must be an object with a 'kind' key")
    kind = d["kind"]
    name = f"function descriptor for {kind!r}"
    if kind == "shifted":
        shift = _read_fields(d, name, "kind", {
            "base": (function_from_dict, "a function descriptor"), "slope": _NUMBER})
        return linear_shift(shift["base"], shift["slope"])
    if kind not in _KIND_PARAMS:
        raise InvalidParameterError(f"unknown function kind {kind!r}")
    fields = _read_fields(d, name, "kind", {
        "mu": _NUMBER, "domain": (Interval.from_list, "a [lo, hi] pair"),
        **_KIND_PARAMS[kind]}, optional=("mu", "domain"))
    # the parameters go in as written, which is how the label shows them
    fields.update((key, d[key]) for key in _KIND_PARAMS[kind])
    return make_function(kind, **fields)


# ---------------------------------------------------------------------------
# Linear shift

def linear_shift(f, a):
    """g(x) = f(x) - a*(x - mu).  Leaves the gap E[g(X)] - g(E[X]) unchanged."""
    a = float(a)
    base_rule, mu = f.rule, f.mu
    rule = lambda x: base_rule(x) - a * (np.asarray(x) - mu)
    slope = None if f.slope_at_mu is None else f.slope_at_mu - a
    desc = (("base", f.to_dict()), ("kind", "shifted"), ("slope", a))
    return FunctionSpec(label=f"{f.label} - {a:g}*(x-{mu:g})", rule=rule,
                        domain=f.domain, mu=mu, slope_at_mu=slope, descriptor=desc)


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

    A view over the solver, for callers that want a verdict rather than an
    exception: the report fails, with the screen's reason, when an upper
    ratio climbs without bound or a lower one has the wrong sign or decays
    to zero.  A passing report carries the envelope constant of the
    declaration's own comparison curve and where it is attained.  Other
    typed errors, such as a degenerate constant, propagate.
    """
    from .envelope import _comparison_terms, _declared_envelope

    try:
        m = _declared_envelope(f, decl, _comparison_terms(decl), decl.role, ())
    except (UnboundedEnvelopeError, ConditionViolationError) as exc:
        return GrowthReport(False, decl.role, math.nan, math.nan, str(exc))
    return GrowthReport(True, decl.role, m.arg, m.value)
