"""Distributions and their absolute centered moments sigma_p = (E|X - mu|^p)^(1/p).

Every moment-based gap bound in this package is a function of these sigma_p,
and the gap oracle's core is a plain expectation E[g(X)] (``expect``).  One
rule in ``Distribution`` picks each law's route: an exact sum or closed form
where the family has one, else adaptive Gauss-Kronrod quadrature on a
density (its error bar is the rule's estimate; an unbounded support is
mapped onto (-1, 1), so no tail is cut off), else seeded Monte Carlo with a
CLT error bar.  The tests cross-check the routes.

Convention: |t|^0 is 1 for every t, including t = 0, so sigma_0 = 1 always.
This keeps the k-term denominators of the lower bounds finite without
special cases.

The mean of n independent draws (``MeanOfN``) takes its even integer
moments in closed form from the base's central moments, for every base.
Its expectations and other moments are exact where the base has a known
density of the mean, which the same quadrature integrates: N(mu,
sigma^2/n) for a Gaussian base, a Gamma mixture for a Laplace base, and
for a uniform base the Irwin-Hall polynomial or, from IRWIN_HALL_BELOW
draws on, a Fourier cosine series with a certified cut.  Discrete,
empirical and nested bases fall back to seeded Monte Carlo.
"""

import math
import numbers
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, InvalidParameterError
from .functions import _NUMBER, _NUMBERS, Interval, _apply_rule, _items, _read_fields, _real
from .rng import resolve_seed, stream

PROB_SUM_TOL = 1e-12
DEFAULT_NODES = 2048  # quadrature budget: integrand evaluations per integral
DEFAULT_MOMENT_SAMPLES = 100_000
DEFAULT_GAP_SAMPLES = 1_000_000
CLT_FACTOR = 1.96
# adaptive quadrature stops once the summed error estimate is below
# max(QUAD_EPSABS, QUAD_EPSREL * |integral|), QUADPACK's default tolerances
QUAD_EPSABS = 1.49e-8
QUAD_EPSREL = 1.49e-8
_CHUNK = 1 << 24  # base draws per chunk when averaging, to bound memory
# the mean of n uniform draws takes the Irwin-Hall polynomial density below
# this n; it cancels catastrophically as n grows, so from this n on the
# density is summed as its Fourier cosine series (``_cosine_series``)
IRWIN_HALL_BELOW = 8
# the cosine series is cut where the dropped density, summed over the
# support, is at most this bound (which joins the error bar)
INVERSION_TOL = 1e-15
# the closed-form moments of a mean of n draws cost about the cube of the
# order; even orders above this take the route of the other orders
MAX_SERIES_ORDER = 100
_OUTER_CELLS = 1 << 18  # table cells per block of density points
# Laplace-mean mixture weights below this fraction of the largest are dropped
_MIX_LOG_FLOOR = math.log(1e-20)
# an unbounded support is integrated over t in (-1, 1), x = mu + s t/(1 - |t|),
# with s this multiple of the family's scale, picked by evaluation counts on
# the Gaussian and Laplace expectations of the quadrature_gaps benchmark's 64
# seed-1 rounds.  With the first pass on _START_CELLS cells a side they are 351
# per expectation at 0.5, 279 at 1, 250 at 1.5, 221 at 2, 214 at 3, 219 at 4
# and 230 at 6.  Past 2 the Gaussian counts rise (191 at 2, 205 at 3) as the
# Laplace counts fall (252 at 2, 223 at 3); 2 was the least multiple on that
# plateau under a one-cell start.  Of 1.5 to 4 it also keeps kinked |x|^p
# within their error bars most often (8 misses in 450 seeded laws, against
# mpmath; 9 at 1.5, 15 at 3, 17 at 4)
_WHOLE_LINE_SCALE = 2.0
# below this order an exact moment's power rounds to about 1 + p log sigma_p,
# so sigma_p is built from an accurate log of it (``_from_log``); from this
# order on the power's root is good to a few 1e-13 (against mpmath)
_SMALL_ORDER = 1e-3


class Expectation(NamedTuple):
    value: float
    abs_error: float
    method: str
    count: int


@dataclass(frozen=True)
class MomentValue:
    """One absolute centered moment, with provenance.

    ``abs_error_estimate`` applies to ``sigma_p_pow`` (the directly computed
    quantity E|X - mu|^p); sigma_p is its p-th root.
    """

    p: float
    sigma_p: float
    sigma_p_pow: float
    method: str
    abs_error_estimate: float

    def to_dict(self):
        return asdict(self)


def _moment(p, pow_value, method, abs_error):
    root = pow_value ** (1.0 / p) if pow_value > 0 else 0.0
    return MomentValue(float(p), root, float(pow_value), method, float(abs_error))


def _from_log(p, log_pow, method):
    """The exact MomentValue whose E|X - mu|^p has the log ``log_pow``;
    below _SMALL_ORDER sigma_p is exp(log_pow / p), not the p-th root of a
    power that has rounded near 1."""
    if p < _SMALL_ORDER:
        return MomentValue(float(p), math.exp(log_pow / p), math.exp(log_pow), method, 0.0)
    return _moment(p, math.exp(log_pow), method, 0.0)


def _lgamma_step(p, half):
    """lgamma(1 + p) - lgamma(1), or with ``half`` lgamma((1 + p)/2) -
    lgamma(1/2), for 0 < p < _SMALL_ORDER, where lgamma itself loses p to
    the rounding of its argument.  Their Taylor series in p have the p^k
    coefficient (-1)^k zeta(k) / k for k >= 2, times 1 - 2^-k with
    ``half``, and -gamma, or -gamma/2 - ln 2, for k = 1; the first term
    dropped, k = 8, is below 1.3e-22 p."""
    zetas = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
             1.0369277551433699, 1.0173430619844491, 1.0083492773819228)
    tail = 0.0  # the sum over k >= 2 divided by p^2, by Horner
    for k in range(7, 1, -1):
        tail = tail * p + (-1) ** k * zetas[k - 2] / k * (1.0 - 2.0 ** -k if half else 1.0)
    euler = 0.5772156649015329
    return p * ((-0.5 * euler - math.log(2.0) if half else -euler) + p * tail)


def _check_order(p):
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p >= 0):
        raise InvalidParameterError(f"moment order must be a finite real >= 0, got {p}")
    return float(p)


def check_count(n, what="n"):
    """``n`` as an int; InvalidParameterError unless it is a whole number >= 1.

    The one rule for every count: N, the Hoelder split (k, q), ``nodes``
    and ``samples``.  A bool, a string or 2.7 is not a count: all are rejected.
    """
    if (isinstance(n, bool) or not isinstance(n, numbers.Real)
            or not math.isfinite(n) or n < 1 or n != int(n)):
        raise InvalidParameterError(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def _draw_count(samples):
    """``samples`` as a count of at least 2 draws, the least a CLT error bar takes."""
    if check_count(samples, "samples") < 2:
        raise InvalidParameterError("samples must be at least 2 for a Monte Carlo error bar")
    return int(samples)


def _binomial_convolve(a, b):
    """Moments of Y + Z for independent Y, Z with moments a and b:
    E(Y + Z)^k = sum_j C(k, j) E[Y^j] E[Z^(k - j)], for k < len(a)."""
    return [math.fsum(math.comb(k, j) * a[j] * b[k - j] for j in range(k + 1))
            for k in range(len(a))]


def _central_list(p, moment):
    """[E(X - mu)^j for j = 0..p] with ``moment(j)`` for j >= 2: the total
    mass and the first central moment are 1 and 0 by definition, not by a
    sum that rounds."""
    return [1.0, 0.0][:p + 1] + [moment(j) for j in range(2, p + 1)]


def _blockwise(fn, xs, width):
    """``fn`` over xs in blocks, so that no table ``fn`` builds holds more
    than _OUTER_CELLS cells; ``width`` is the most cells its widest table
    takes per point (the cosine terms of the uniform-mean density, the
    mixture terms of the Laplace mean)."""
    step = max(1, _OUTER_CELLS // width)
    return np.concatenate([fn(xs[i:i + step]) for i in range(0, xs.size, step)])


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature

# QUADPACK's qk21 pair (Piessens et al., 1983) on [-1, 1]: the outer ten
# Kronrod nodes, their weights, and the 10-point Gauss weights of the nodes at
# odd positions; the rule is symmetric about the centre node 0.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980880770, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_GK_KRONROD_WEIGHTS = np.concatenate([_WGK, [0.149445554002916905664936468389821], _WGK[::-1]])
_GK_GAUSS_WEIGHTS = np.zeros(21)
_GK_GAUSS_WEIGHTS[1:10:2] = _WG
_GK_GAUSS_WEIGHTS[19:10:-2] = _WG
_RULE_POINTS = 21
# the least budget: one rule on each half either side of the split point
MIN_NODES = 2 * _RULE_POINTS
_EPS = np.finfo(float).eps
# QUADPACK applies its 50-ulp error floor only above this integral of |h|
_FLOOR_MIN = np.finfo(float).tiny / (50.0 * _EPS)
# the first pass takes this many equal cells either side of the split point,
# where the budget has room.  A pass costs tens of microseconds of numpy calls
# however few its points: one cos gap on a Gaussian takes about 100 us in one
# pass at 42, 84 or 168 points, and each further pass adds 40-80 us (two-vCPU
# VM).  Over the benchmark's 64 seed-1 rounds, 4 cells a side cut the passes
# per integral from 2.91 to 1.43 on quadrature_gaps, 2.88 to 1.13 on
# mean_of_n and 2.74 to 1.45 on sandwich, at 220.5 -> 208.5, 199.5 -> 178.5
# and 211.5 -> 212.7 evaluations.  2 and 3 cells leave 1.4-2.2 passes; 6 and
# 8 take 252-347 evaluations.
_START_CELLS = 4


def _start_weights(per_side):
    """Weights of (a, mid, b) at the first pass's cell edges, left to right:
    ``per_side`` equal cells either side of mid.  Each edge is one weighted
    sum with weights 1 and 0 at the ends and the split, so those edges are
    a, mid and b exactly."""
    f = np.arange(per_side + 1) / per_side
    zeros = np.zeros(per_side)
    return (np.concatenate([1.0 - f, zeros]),
            np.concatenate([f, 1.0 - f[1:]]),
            np.concatenate([zeros, f]))


_START_WEIGHTS = {k: _start_weights(k) for k in range(1, _START_CELLS + 1)}


def _qk21(h, lo, hi):
    """One 21-point rule on each interval [lo_i, hi_i]: (values, error estimates).

    The error estimate is QUADPACK's: |K21 - G10| rescaled by ``resasc``,
    the integral of |h - mean h|, and floored at 50 ulps of the integral of
    |h|.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = center[:, None] + half[:, None] * _GK_NODES
    fx = h(xs.ravel()).reshape(xs.shape)
    resk = fx @ _GK_KRONROD_WEIGHTS
    resabs = np.abs(fx) @ _GK_KRONROD_WEIGHTS * np.abs(half)
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK_KRONROD_WEIGHTS * np.abs(half)
    err = np.abs((resk - fx @ _GK_GAUSS_WEIGHTS) * half)
    if resasc.min() > 0 and resabs.min() > _FLOOR_MIN:  # no cell needs a mask
        err = np.maximum(50.0 * _EPS * resabs,
                         resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5))
    else:
        ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0)
        err = np.where(resasc > 0, resasc * np.minimum(1.0, ratio ** 1.5), err)
        err = np.where(resabs > _FLOOR_MIN, np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def _gauss_kronrod(h, a, mid, b, nodes):
    """Integral of the vectorized ``h`` over [a, b], split at ``mid``.

    Returns (value, error estimate, evaluations).  The subintervals are the
    columns of one (4, P) table of lo, hi, value and error estimate.  The
    first pass takes _START_CELLS equal cells either side of ``mid``, or as
    many as ``nodes`` has room for (one at MIN_NODES).  Each
    pass evaluates ``h`` once on the nodes of every new subinterval, then
    bisects every subinterval whose error estimate exceeds its width's share
    of the tolerance; the kept columns stay in order, followed by the left
    and then the right halves.  ``nodes`` caps the evaluations; when it runs
    out, the worst subintervals are bisected first and the summed estimate
    is returned as it stands, however large.
    """
    nodes = check_count(nodes, "nodes")
    if nodes < MIN_NODES:
        raise InvalidParameterError(
            f"nodes must be at least {MIN_NODES} (one {_RULE_POINTS}-point rule "
            f"either side of the mean), got {nodes}")
    wa, wm, wb = _START_WEIGHTS[min(_START_CELLS, nodes // MIN_NODES)]
    edges = a * wa + mid * wm + b * wb
    lo, hi = edges[:-1], edges[1:]
    cells = np.array([lo, hi, *_qk21(h, lo, hi)])
    evals = _RULE_POINTS * len(lo)
    while True:
        value, err = cells[2:].sum(axis=1).tolist()
        tol = max(QUAD_EPSABS, QUAD_EPSREL * abs(value))
        lo, hi, _, errs = cells
        split = errs > tol * (hi - lo) / (b - a)
        room = (nodes - evals) // MIN_NODES
        count = np.count_nonzero(split)
        if err <= tol or room == 0 or count == 0:
            return value, err, evals
        if count > room:
            split = np.zeros_like(split)
            split[np.argsort(-errs, kind="stable")[:room]] = True
        lo, hi = cells[:2, split]
        edges = np.array([lo, 0.5 * (lo + hi), hi])
        lo, hi = edges[:2].ravel(), edges[1:].ravel()
        cells = np.concatenate([cells[:, ~split], [lo, hi, *_qk21(h, lo, hi)]], axis=1)
        evals += _RULE_POINTS * len(lo)


class Distribution(ABC):
    """Common surface: mean, moments, sampling, and expectations.  A family
    gives its ``_exact_moment`` and, where ``_has_density``, a ``_quadrature``
    of E[g(X)]; ``expect`` and ``_moment_pow`` pick the route from those."""

    variant = "abstract"

    @abstractmethod
    def mean(self):
        ...

    @abstractmethod
    def support_interval(self):
        """Smallest closed interval containing the support."""

    @abstractmethod
    def sample(self, count, seed=None, *, purpose="sample"):
        """``count`` draws, a count by ``check_count``, from the ``purpose``
        stream of ``seed``."""

    def expect(self, g, *, nodes=DEFAULT_NODES, samples=DEFAULT_GAP_SAMPLES,
               seed=None, label="g"):
        """E[g(X)] as an Expectation tuple: quadrature on the density, else
        the mean of seeded draws (purpose "gap").  ``nodes`` (quadrature, at
        least MIN_NODES) and ``samples`` (Monte Carlo, at least 2) are counts,
        checked by ``check_count`` only on the route that uses them.  ``g``
        is a bare rule whose values ``expect`` alone checks, by one
        ``functions._apply_rule`` per batch of points (the atoms, the draws,
        a quadrature pass); a non-finite value raises EvaluationError naming
        ``label``, unless quadrature finds the density 0 there.  So does a
        quadrature value or error bar that is not finite, as when the law's
        map or density overflows a double mid-integral."""
        if self._has_density():
            est = self._quadrature(g, nodes, label)
            if not (math.isfinite(est.value) and math.isfinite(est.abs_error)):
                raise EvaluationError(
                    f"the expectation of {label} on this {self.variant} distribution "
                    "does not fit a double")
            return est
        vals = _apply_rule(g, self.sample(_draw_count(samples), seed, purpose="gap"), label)
        value, err = _monte_carlo(vals)
        support = self.support_interval()
        if err == 0.0 and support.lo < support.hi:
            # every draw gave g one value, but the law is not a point mass:
            # the sample says nothing of the spread, so the bar is unbounded
            err = math.inf
        return Expectation(value, err, "monte_carlo", len(vals))

    def to_dict(self):
        """The JSON descriptor: ``variant`` and then the variant's keys in
        ``_VARIANTS``, each the constructor field in its place, with tuples
        as lists and a base law as its own descriptor."""
        def plain(v):
            if isinstance(v, Distribution):
                return v.to_dict()
            return [plain(x) for x in v] if isinstance(v, tuple) else v

        values = (plain(getattr(self, f.name)) for f in fields(self) if f.init)
        return {"variant": self.variant, **dict(zip(_VARIANTS[self.variant][1], values))}

    def abs_central_moment(self, p, method="auto", seed=None,
                           samples=DEFAULT_MOMENT_SAMPLES, nodes=DEFAULT_NODES):
        """sigma_p as a MomentValue.  ``method`` picks the route: "auto"
        takes an exact sum or closed form where the family has one, else
        quadrature on the density, else Monte Carlo; "quadrature" (on a
        density) and "monte_carlo" force a route, mainly for cross-checking.
        """
        p = _check_order(p)
        return self.abs_central_moments([p], method, seed, samples, nodes)[p]

    def abs_central_moments(self, orders, method="auto", seed=None,
                            samples=DEFAULT_MOMENT_SAMPLES, nodes=DEFAULT_NODES):
        """{float(p): MomentValue} for each distinct order, in first-seen order.

        Orders that take the Monte Carlo route share one batch of draws
        (purpose "moments"), drawn at most once per call, so empirical
        moment inequalities hold exactly between the estimates; ``samples``
        and ``nodes`` are counts, checked as ``expect`` checks them.  A
        moment that overflows a double raises EvaluationError.
        """
        batch = []

        def draws():
            if not batch:
                batch.append(self.sample(_draw_count(samples), seed, purpose="moments"))
            return batch[0]

        out = {}
        for p in orders:
            p = _check_order(p)
            if p in out:
                continue
            try:
                moment = (MomentValue(0.0, 1.0, 1.0, "closed_form", 0.0) if p == 0
                          else self._moment_pow(p, method, nodes, draws))
            except OverflowError:
                moment = None
            if moment is None or not (math.isfinite(moment.sigma_p_pow)
                                      and math.isfinite(moment.abs_error_estimate)):
                raise EvaluationError(
                    f"the order-{p:g} absolute central moment of this "
                    f"{self.variant} distribution overflows a double")
            out[p] = moment
        return out

    def _moment_pow(self, p, method, nodes, draws):
        """E|X - mu|^p for p > 0 as a MomentValue, by the route ``method``
        picks; ``draws()`` returns the shared Monte Carlo batch."""
        if method == "auto":
            exact = self._exact_moment(p)
            if exact is not None:
                return exact
            method = "quadrature" if self._has_density() else "monte_carlo"
        mu = self.mean()
        if method == "quadrature" and self._has_density():
            est = self._quadrature(lambda x: np.abs(x - mu) ** p, nodes, "g")
            return _moment(p, est.value, "quadrature", est.abs_error)
        if method == "monte_carlo":
            with np.errstate(over="ignore"):  # inf, which abs_central_moments reports
                powed = np.abs(draws() - mu) ** p
            est, err = _monte_carlo(powed)
            return _moment(p, est, "monte_carlo", err)
        raise InvalidParameterError(
            f"unsupported moment method {method!r} for {self.variant} of order {p:g}: "
            "'auto' takes exact, then quadrature, then monte_carlo; 'quadrature' "
            "(on a density) and 'monte_carlo' force one")

    def _exact_moment(self, p):
        """E|X - mu|^p as a MomentValue by an exact route, or None."""
        return None

    def _has_density(self):
        """Whether ``_quadrature(g, nodes, label)`` gives E[g(X)]."""
        return False

    @abstractmethod
    def _central_moments(self, p):
        """[E(X - mu)^j for j = 0..p] for an integer p, exact to rounding."""


def _monte_carlo(vals):
    """The mean of ``vals`` and its CLT radius.  When the squares of the
    deviations overflow a double, the spread is taken of the values scaled
    by their largest magnitude, so a finite mean has a finite radius."""
    with np.errstate(over="ignore", invalid="ignore"):
        est = float(np.mean(vals))
        spread = float(np.std(vals))
    if math.isfinite(est) and not math.isfinite(spread):
        top = float(np.max(np.abs(vals)))
        spread = top * float(np.std(vals / top))
    return est, CLT_FACTOR * spread / math.sqrt(len(vals))


# ---------------------------------------------------------------------------
# Finite support

def _validate_points(points):
    """The atoms sorted, with their weights divided by the weights' sum, so
    that every route reads one set of weights that sums to 1 to rounding."""
    cleaned = []
    for x, q in points:
        x, q = float(x), float(q)
        if not (math.isfinite(x) and math.isfinite(q)):
            raise InvalidParameterError("support points and probabilities must be finite")
        if q <= 0:
            raise InvalidParameterError(f"probabilities must be positive, got {q} at x = {x}")
        cleaned.append((x, q))
    cleaned.sort()
    xs = [x for x, _ in cleaned]
    if len(set(xs)) != len(xs):
        raise InvalidParameterError("support points must be distinct")
    total = math.fsum(q for _, q in cleaned)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidParameterError(f"probabilities sum to {total!r}, not 1")
    return tuple((x, q / total) for x, q in cleaned)


@dataclass(frozen=True)
class Discrete(Distribution):
    points: tuple

    variant = "discrete"

    def __post_init__(self):
        object.__setattr__(self, "points", _validate_points(self.points))

    def mean(self):
        return math.fsum(x * q for x, q in self.points)

    def support_interval(self):
        return Interval(self.points[0][0], self.points[-1][0])

    def sample(self, count, seed=None, *, purpose="sample"):
        rng = stream(resolve_seed(seed), purpose)
        xs = np.array([x for x, _ in self.points])
        qs = np.array([q for _, q in self.points])
        return rng.choice(xs, size=check_count(count, "count"), p=qs)

    def expect(self, g, *, nodes=DEFAULT_NODES, samples=DEFAULT_GAP_SAMPLES,
               seed=None, label="g"):
        vals = _apply_rule(g, np.array([x for x, _ in self.points]), label)
        total = math.fsum(q * v for (_, q), v in zip(self.points, vals))
        return Expectation(total, 0.0, "exact_sum", len(self.points))

    def _exact_moment(self, p):
        mu = self.mean()
        if p < _SMALL_ORDER:
            # log1p of the weighted mean of |x - mu|^p - 1, an atom at mu
            # giving -1: the sum of the powers would round to 1 + p E log|X - mu|
            dev = math.fsum(q * (math.expm1(p * math.log(abs(x - mu))) if x != mu else -1.0)
                            for x, q in self.points)
            return _from_log(p, math.log1p(dev) if dev > -1.0 else -math.inf, "exact_sum")
        pow_value = math.fsum(q * abs(x - mu) ** p for x, q in self.points)
        return _moment(p, pow_value, "exact_sum", 0.0)

    def _central_moments(self, p):
        mu = self.mean()
        return _central_list(p, lambda j: math.fsum(q * (x - mu) ** j for x, q in self.points))


@dataclass(frozen=True)
class Empirical(Discrete):
    """Uniform weight on an observed sample: the discrete law whose atoms are
    the distinct sample values, each weighted by its share of the sample."""

    points: tuple = field(init=False, repr=False)
    samples: tuple

    variant = "empirical"

    def __post_init__(self):
        vals = tuple(float(v) for v in self.samples)
        if len(vals) == 0:
            raise InvalidParameterError("empirical distribution needs at least one sample")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParameterError("samples must be finite")
        object.__setattr__(self, "samples", vals)
        counts = Counter(vals)
        object.__setattr__(self, "points", tuple((x, c / len(vals)) for x, c in counts.items()))
        super().__post_init__()

    def mean(self):
        return math.fsum(self.samples) / len(self.samples)

    def sample(self, count, seed=None, *, purpose="sample"):
        rng = stream(resolve_seed(seed), purpose)
        return rng.choice(np.asarray(self.samples), size=check_count(count, "count"))


# ---------------------------------------------------------------------------
# Named continuous families

class _NamedContinuous(Distribution):
    """Shared quadrature machinery: one adaptive Gauss-Kronrod pass.

    The named families are symmetric about their mean; ``MeanOfN`` reuses
    the machinery for the mean of n Gaussian, Laplace or uniform draws.
    Each family gives log E|X - mean|^p (``_log_abs_moment_pow``), its
    density, a scale (``_scale``) and a bound on the density mass it misses,
    which is 0 unless the density is itself approximated.

    A bounded support is integrated over itself, split at the mean.  An
    unbounded one is mapped onto t in (-1, 1) by x = mean + s t / (1 - |t|),
    dx/dt = s / (1 - |t|)^2, with s = _WHOLE_LINE_SCALE times the family's
    scale, and integrated there split at t = 0, as QUADPACK's qagi does with
    an infinite range.  The rule never evaluates t = +-1, so no radius is
    chosen and no tail is cut off or modelled.  Either way the error bar is
    the rule's estimate (plus the missed density mass times the largest |g|
    seen), an estimate, not a bound.
    """

    def _density(self):
        """(density, bound on the density mass it misses): the family's
        exact ``_pdf`` unless the family says otherwise."""
        return self._pdf, 0.0

    def _has_density(self):
        return True

    def _quadrature(self, g, nodes, label):
        mu = self.mean()
        pdf, missed = self._density()
        peak = 0.0

        def integrand(xs):
            nonlocal peak
            dens = pdf(xs)
            try:
                vals = _apply_rule(g, xs, label)
            except EvaluationError:
                # g may overflow far out, where the density is 0: read it
                # again where the density is not 0, 0 elsewhere
                live = np.broadcast_to(dens != 0, xs.shape)
                vals = np.zeros_like(xs)
                vals[live] = _apply_rule(g, xs[live], label)
            if missed:
                peak = max(peak, float(np.max(np.abs(vals))))
            return vals * dens

        support = self.support_interval()
        if math.isfinite(support.lo) and math.isfinite(support.hi):
            h, a, mid, b, dx_dt = integrand, support.lo, mu, support.hi, 1.0
        else:
            s = dx_dt = _WHOLE_LINE_SCALE * self._scale()

            def h(ts):
                d = 1.0 - np.abs(ts)
                return integrand(mu + s * ts / d) * (s / (d * d))

            a, mid, b = -1.0, 0.0, 1.0
        # a full first pass's two nodes either side of the split lie
        # 1 - _XGK[0] of a cell apart.  Where the doubles at the mean are
        # coarser, both round onto it: the rule then sums a few points over
        # and over, and its error estimate means nothing
        cell = dx_dt * min(mid - a, b - mid) / _START_CELLS
        if (1.0 - _XGK[0]) * cell < math.ulp(mu):
            raise EvaluationError(
                f"the quadrature nodes of this {self.variant} distribution round onto "
                f"its mean {mu!r}: its spread is too narrow for the doubles there")
        # the density is off by at most ``missed`` / width, so the integral
        # moves by at most missed times the largest |g| seen.  Where g, the
        # density or the map overflows, the value or its error is not finite,
        # which the callers refuse, so numpy need not warn of it
        with np.errstate(all="ignore"):
            value, quad_err, evals = _gauss_kronrod(h, a, mid, b, nodes)
        return Expectation(value, quad_err + missed * peak, "quadrature", evals)

    def _exact_moment(self, p):
        return _from_log(p, self._log_abs_moment_pow(p), "closed_form")

    def _central_moments(self, p):
        # symmetric about the mean: the odd central moments vanish
        return _central_list(p, lambda j: 0.0 if j % 2 else
                             math.exp(self._log_abs_moment_pow(j)))


def _check_peak(what, value, reciprocal):
    """InvalidParameterError unless the density peak 1 / ``reciprocal`` of a
    law whose ``what`` is ``value`` fits a double."""
    if math.isinf(1.0 / reciprocal):
        raise InvalidParameterError(
            f"{what} {value!r} does not fit a double: its density overflows")


def _normal_pdf(x, m, s):
    z = (x - m) / s
    return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))


def _normal_log_abs_moment_pow(s, p):
    # E|X - m|^p = s^p 2^(p/2) Gamma((p+1)/2) / sqrt(pi) for X ~ N(m, s^2)
    head = p * math.log(s) + 0.5 * p * math.log(2.0)
    if p < _SMALL_ORDER:
        return head + _lgamma_step(p, half=True)
    return head + math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)


@dataclass(frozen=True)
class Gaussian(_NamedContinuous):
    mean_value: float
    stddev: float

    variant = "gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.mean_value) and 0 < self.stddev < math.inf):
            raise InvalidParameterError("gaussian needs a finite mean and finite stddev > 0")
        _check_peak("gaussian stddev", self.stddev, self.stddev * math.sqrt(2.0 * math.pi))

    def mean(self):
        return self.mean_value

    def support_interval(self):
        return Interval()

    def _scale(self):
        return self.stddev

    def _pdf(self, x):
        return _normal_pdf(x, self.mean_value, self.stddev)

    def _log_abs_moment_pow(self, p):
        return _normal_log_abs_moment_pow(self.stddev, p)

    def sample(self, count, seed=None, *, purpose="sample"):
        rng = stream(resolve_seed(seed), purpose)
        return rng.normal(self.mean_value, self.stddev, size=check_count(count, "count"))


@dataclass(frozen=True)
class Laplace(_NamedContinuous):
    mean_value: float
    scale: float

    variant = "laplace"

    def __post_init__(self):
        if not (math.isfinite(self.mean_value) and 0 < self.scale < math.inf):
            raise InvalidParameterError("laplace needs a finite mean and finite scale > 0")
        _check_peak("laplace scale", self.scale, 2.0 * self.scale)

    def mean(self):
        return self.mean_value

    def support_interval(self):
        return Interval()

    def _scale(self):
        return self.scale

    def _pdf(self, x):
        return np.exp(-np.abs(x - self.mean_value) / self.scale) / (2.0 * self.scale)

    def _log_abs_moment_pow(self, p):
        # |X - m| is exponential with mean `scale`: E|X - m|^p = scale^p Gamma(p+1)
        log_gamma = _lgamma_step(p, half=False) if p < _SMALL_ORDER else math.lgamma(p + 1.0)
        return p * math.log(self.scale) + log_gamma

    def sample(self, count, seed=None, *, purpose="sample"):
        rng = stream(resolve_seed(seed), purpose)
        return rng.laplace(self.mean_value, self.scale, size=check_count(count, "count"))


@dataclass(frozen=True)
class Uniform(_NamedContinuous):
    lo: float
    hi: float

    variant = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise InvalidParameterError("uniform needs finite lo < hi")
        if math.isinf(self.hi - self.lo) or math.isinf(self.mean()):
            raise InvalidParameterError(
                f"uniform on [{self.lo!r}, {self.hi!r}] does not fit a double: "
                "its width or mean overflows")
        _check_peak("uniform width", self.hi - self.lo, self.hi - self.lo)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def support_interval(self):
        return Interval(self.lo, self.hi)

    def _scale(self):
        return 0.5 * (self.hi - self.lo)

    def _pdf(self, x):
        return 1.0 / (self.hi - self.lo)

    def _log_abs_moment_pow(self, p):
        # |X - mean| is uniform on [0, half-width]
        return p * math.log(self._scale()) - math.log1p(p)

    def sample(self, count, seed=None, *, purpose="sample"):
        rng = stream(resolve_seed(seed), purpose)
        return rng.uniform(self.lo, self.hi, size=check_count(count, "count"))


# ---------------------------------------------------------------------------
# Mean of n independent copies

def _inversion_cut(n, h):
    """The T at which the inversion integral of the mean of n uniform draws
    of half-width h is cut: the density it drops, times the width 2h, is at
    most INVERSION_TOL.  The smaller of two certified cuts, with u = h t/n:

    - |phi(t/n)| = |sin u / u| <= 1/u, so the integral beyond T is at most
      (n/h)^n T^(1-n) / ((n-1) pi) at every x; T grows like n;
    - below u = pi also |sin u / u| <= exp(-u^2/6), since every term of the
      series of log(sin u / u) is negative, so up to L = n pi / h the
      integral is at most int_T^L exp(-(a t)^2) dt / pi, a = h / sqrt(6 n),
      which is sqrt(pi) (erfc(a T) - erfc(a L)) / (2 a pi), plus the first
      bound from L on; T grows like sqrt(n).
    """
    width = 2.0 * h
    power = math.exp((n * math.log(n / h) - math.log((n - 1) * math.pi)
                      + math.log(width) - math.log(INVERSION_TOL)) / (n - 1))
    a, top = h / math.sqrt(6.0 * n), math.pi * math.sqrt(n / 6.0)  # top = a L
    beyond = n / h * math.pi ** (1 - n) / (n - 1)  # pi times the first bound at L
    room = INVERSION_TOL * math.pi / width - beyond
    if room <= 0.0:
        return power
    # erfc(a T) may be at most erfc(a L) + room 2a / sqrt(pi); bisect for the
    # smallest such a T, keeping ``hi`` on the certified side
    most = math.erfc(top) + room * 2.0 * a / math.sqrt(math.pi)
    lo, hi = 0.0, top
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid) <= most:
            hi = mid
        else:
            lo = mid
    return min(power, hi / a)


def _cosine_series(n, h):
    """(frequencies pi m / h, coefficients c_m / h) for m = 1..J of the density
    of the mean of n >= 2 uniform draws of half-width h, which is
    (1/h) (1/2 + sum_m c_m cos(pi m (x - mu) / h)), c_m = (sin u / u)^n at
    u = pi m / n.

    The density vanishes outside mu +- h and is continuous, so there it is
    its own cosine series of period 2h (Poisson summation).  Its c_m are the
    inversion integrand phi(t/n)^n sampled at step pi / h, so with
    J = ceil(T h / pi) the terms dropped sum to at most the integral that
    the cut at T drops: both of ``_inversion_cut``'s bounds decrease on
    their own ranges, and c_n = 0 sits at their joint u = pi.  A cut or a
    frequency past the largest double raises EvaluationError.
    """
    try:
        count = _inversion_cut(n, h) * h / math.pi
    except OverflowError:  # a cut past the largest double
        count = math.inf
    if not math.isfinite(math.pi / h * count):
        raise EvaluationError(
            f"the cosine series of the mean of {n} uniform draws of half-width "
            f"{h!r} has frequencies that do not fit a double")
    m = np.arange(1, math.ceil(count) + 1)
    return math.pi / h * m, _sinc_power(math.pi / n * m, n) / h


def _sinc_power(u, n):
    """(sin u / u)^n.  Below |u| = 1 it is exp(n log1p(d)) with d = sin u / u
    - 1 summed from its series: the rounding of sin u / u itself would grow n
    times in the power, which at n = 10^5 moves the density's mass by 8e-13."""
    small = np.abs(u) < 1.0
    z = np.square(np.where(small, u, 0.0))
    d = np.zeros_like(z)
    for k in range(9, 0, -1):  # Horner; the first dropped term is below 1e-19
        d = -z / (2 * k * (2 * k + 1)) * (1.0 + d)
    return np.where(small, np.exp(n * np.log1p(d)), np.sinc(u / math.pi) ** n)


@dataclass(frozen=True)
class MeanOfN(_NamedContinuous):
    """Distribution of the average of n independent draws from ``base``.

    Even integer moments are closed form for every base: the central
    moments of one (X_i - mu)/n are raised to the n-th power under binomial
    convolution, which is how moments of independent sums compose, so the
    result is exact to rounding.  Expectations and the other moment orders
    are exact where the base gives the mean a known density:

    - a Gaussian base gives N(mu, sigma^2/n): its closed-form moments, and
      its density integrated over the whole line;
    - a Laplace base gives |S|/b, for S the centred sum, a negative-binomial
      mixture of Gamma(k+1) laws, k < n, integrated over the whole line by
      the named families' quadrature;
    - a uniform base gives the Irwin-Hall density below IRWIN_HALL_BELOW
      and above it the density's own Fourier cosine series
      (``_cosine_series``), integrated over the bounded support; the
      density the series' cut drops is bounded in closed form and joins
      the error bar.  The cut is the sooner of two certified ones, one from
      |phi| <= 1/u, which grows like n, and one from |phi| <= exp(-u^2/6)
      below u = pi, which grows like sqrt(n) and is the sooner for
      31 <= n <= 47 and n >= 116.

    Other bases (discrete, empirical, nested means) take seeded Monte Carlo
    for their expectations and their other moment orders; the oracle takes
    a polynomial's gap from ``_central_moments`` instead, on every base.
    The exact mean is inherited from the base, so the oracle's f(E[X]) term
    stays exact.
    """

    base: Distribution
    n: int

    variant = "mean_of_n"

    def __post_init__(self):
        object.__setattr__(self, "n", check_count(self.n))
        if isinstance(self.base, Gaussian):
            s = self._scale()
            _check_peak(f"the mean of {self.n} draws has gaussian stddev", s,
                        s * math.sqrt(2.0 * math.pi))

    def mean(self):
        return self.base.mean()

    def support_interval(self):
        return self.base.support_interval()

    def sample(self, count, seed=None, *, purpose="sample"):
        count = check_count(count, "count")
        seed = resolve_seed(seed)
        out = np.empty(count)
        rows_per_chunk = max(1, _CHUNK // self.n)
        done, chunk = 0, 0
        # chunked so count * n base draws never balloon memory; each chunk
        # draws from its own derived stream, so results are reproducible and
        # chunk boundaries depend only on (count, n)
        while done < count:
            take = min(rows_per_chunk, count - done)
            block = self.base.sample(take * self.n, seed, purpose=f"{purpose}/base/{chunk}")
            out[done:done + take] = block.reshape(take, self.n).mean(axis=1)
            done += take
            chunk += 1
            del block  # free it before the next chunk is drawn
        return out

    def _has_density(self):
        return isinstance(self.base, (Gaussian, Laplace, Uniform))

    def _scale(self):
        # the standard deviation of the mean; Laplace(m, b) has variance 2 b^2
        if isinstance(self.base, Gaussian):
            return self.base.stddev / math.sqrt(self.n)
        return self.base.scale * math.sqrt(2.0 / self.n)

    def _exact_moment(self, p):
        if p % 2 == 0 and p <= MAX_SERIES_ORDER:
            return _moment(p, self._central_moments(int(p))[-1], "closed_form", 0.0)
        if isinstance(self.base, Gaussian):
            return _from_log(p, _normal_log_abs_moment_pow(self._scale(), p), "closed_form")
        return None

    def _central_moments(self, p):
        # moments of one (X_i - mu)/n, then of the sum of n such terms by
        # binary powering
        term = [m * float(self.n) ** -j for j, m in enumerate(self.base._central_moments(p))]
        out = [1.0] + [0.0] * p
        count = self.n
        while count:
            if count & 1:
                out = _binomial_convolve(out, term)
            count >>= 1
            if count:
                term = _binomial_convolve(term, term)
        return out

    def _density(self):
        if isinstance(self.base, Uniform):
            return self._uniform_mean_pdf()
        if isinstance(self.base, Gaussian):  # N(mu, sigma^2 / n)
            mu, s = self.mean(), self._scale()
            return (lambda xs: _normal_pdf(xs, mu, s)), 0.0
        return self._laplace_mean_pdf(), 0.0

    # -- Laplace base ---------------------------------------------------------

    def _laplace_mean_pdf(self):
        # |S|/b for the centred sum S is Gamma(k+1) with probability
        # w_k = C(2n-2-k, n-1) / 2^(2n-2-k), k < n.  The weights follow from
        # their ratios, which are at most 1, and are normalized; those below
        # 1e-20 of w_0 are dropped, which bounds the table at about
        # 14 sqrt(n) terms; the sum is taken in log space.
        n, b = self.n, self.base.scale
        j = np.arange(n - 1)
        log_w = np.concatenate([[0.0], np.cumsum(np.log(2.0 * (n - 1 - j) / (2.0 * n - 2 - j)))])
        log_w -= math.log(math.fsum(np.exp(log_w)))
        k = np.flatnonzero(log_w >= log_w[0] + _MIX_LOG_FLOOR)
        log_w = log_w[k] - np.array([math.lgamma(i + 1.0) for i in k.tolist()])

        def mixture(xs):
            # S has density (1/2b) sum_k w_k z^k e^-z / k! at s, and X = mu + S/n
            z = n * np.abs(xs - self.base.mean_value) / b
            terms = log_w[:, None] + k[:, None] * np.log(np.maximum(z, 1e-300))
            top = terms.max(axis=0)
            return n / (2.0 * b) * np.exp(top - z) * np.exp(terms - top).sum(axis=0)

        return lambda xs: _blockwise(mixture, xs, k.size)

    # -- uniform base ---------------------------------------------------------

    def _uniform_mean_pdf(self):
        """(density of the mean, bound on the density mass it misses)."""
        n, lo, hi = self.n, self.base.lo, self.base.hi
        width = hi - lo
        if n < IRWIN_HALL_BELOW:
            coeffs = [(-1) ** k * math.comb(n, k) for k in range(n // 2 + 1)]
            norm = n / (width * math.factorial(n - 1))

            def irwin_hall(xs):
                s = n * (xs - lo) / width
                s = np.minimum(s, n - s)  # symmetric; the lower half cancels less
                total = np.zeros_like(s)
                for k, c in enumerate(coeffs):
                    total += c * np.where(s > k, (s - k) ** (n - 1), 0.0)
                return norm * total

            return irwin_hall, 0.0
        mu, h = self.mean(), 0.5 * width
        freqs, coeffs = _cosine_series(n, h)

        def series(xs):
            # einsum contracts without BLAS, whose threads would cost more
            # CPU than these contractions save
            return 0.5 / h + np.einsum("xm,m->x", np.cos(np.multiply.outer(xs - mu, freqs)),
                                       coeffs)

        return (lambda xs: _blockwise(series, xs, coeffs.size)), INVERSION_TOL


# ---------------------------------------------------------------------------
# Constructions

def two_point(mu, sigma):
    """Mass 1/2 at mu - sigma and mu + sigma: sigma_p = sigma for every p > 0."""
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    return Discrete(((mu - sigma, 0.5), (mu + sigma, 0.5)))


def three_point(mu, a, p):
    """Mass 1 - p at mu and p/2 at mu +- a: sigma_b = p^(1/b) a."""
    if not 0 < p <= 1:
        raise InvalidParameterError(f"p must lie in (0, 1], got {p}")
    if not a > 0:
        raise InvalidParameterError(f"a must be positive, got {a}")
    if p == 1:
        return two_point(mu, a)
    return Discrete(((mu - a, p / 2.0), (mu, 1.0 - p), (mu + a, p / 2.0)))


def symmetric_outlier(j, m):
    """Mass 1 - j^-m at 0 and j^-m/2 at -j and +j.

    For r <= m the moments sigma_r = j^(1 - m/r) are non-increasing in j
    while the gap of a slowly growing function decays like j^-m; these are
    the witnesses showing which moment orders can certify a lower bound.
    """
    if not (j >= 1 and m > 0):
        raise InvalidParameterError(f"need j >= 1 and m > 0, got j={j}, m={m}")
    j = float(j)
    return three_point(0.0, j, j ** -float(m))


def mean_of_n(base, n):
    return MeanOfN(base, n)


def distribution_from_dict(d):
    """Parse the JSON descriptor form of a distribution."""
    if not isinstance(d, dict) or "variant" not in d:
        raise InvalidParameterError("distribution descriptor must be an object with a 'variant' key")
    v = d["variant"]
    if not isinstance(v, str) or v not in _VARIANTS:
        raise InvalidParameterError(f"unknown distribution variant {v!r}")
    make, keys = _VARIANTS[v]
    return make(*_read_fields(d, f"distribution descriptor for {v!r}", "variant",
                              keys).values())


# each variant's constructor and its fields, in argument order
_VARIANTS = {
    "discrete": (Discrete, {"points": (
        lambda v: tuple((_real(x), _real(q)) for x, q in map(_items, _items(v))),
        "a list of [x, p] pairs")}),
    "gaussian": (Gaussian, {"mean": _NUMBER, "stddev": _NUMBER}),
    "laplace": (Laplace, {"mean": _NUMBER, "scale": _NUMBER}),
    "uniform": (Uniform, {"lo": _NUMBER, "hi": _NUMBER}),
    "empirical": (Empirical, {"samples": _NUMBERS}),
    "mean_of_n": (MeanOfN, {"base": (distribution_from_dict, "a distribution descriptor"),
                            "n": (lambda n: n, "a positive integer")}),
    "two_point": (two_point, {"mu": _NUMBER, "sigma": _NUMBER}),
    "three_point": (three_point, {"mu": _NUMBER, "a": _NUMBER, "p": _NUMBER}),
    "symmetric_outlier": (symmetric_outlier, {"j": _NUMBER, "m": _NUMBER}),
}
