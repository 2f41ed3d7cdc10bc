"""Closed-form references for the benchmark, computed with `math` alone.

Nothing here imports jensengap: every value is worked out from the
function and distribution descriptors (the JSON forms the CLI accepts),
so the benchmark can judge the program's outputs against numbers the
program had no part in.  ``test_bench.py`` checks these formulas against
fine numerical integration and exact sums.

Descriptors used:

- functions: cos, sin, pow4, polynomial, abs_power, abs_power_sum, log,
  sqrt, and shifted versions of these (a linear shift leaves every gap
  unchanged, so the reference unwraps it);
- distributions: two_point, three_point, discrete, gaussian, laplace,
  uniform, and mean_of_n over uniform or laplace.
"""

import math

# Hand-calculus envelope constants of the catalog, keyed by row name.
LOG_A = 0.5
CATALOG_CONSTANTS = {
    "sine cubic envelope": 1.0 / 12.0,
    "sine quadratic envelope": 1.0 / (2.0 * math.pi),
    "sine linear envelope": 0.5,
    "cosine curvature coefficient": 0.5,
    "logarithm curvature coefficient":
        (LOG_A - 1.0 - math.log(LOG_A)) / (1.0 - LOG_A) ** 2,
    "logarithm deficit envelope": 0.5,
    "square-root curvature coefficient": 0.5,
    "square-root deficit envelope": 0.125,
    "quartic mixed envelope": 0.5 * (7.0 + math.sqrt(41.0)),
    "quartic excess envelope": 4.0,
}
CATALOG_REL_TOL = 1e-5

# sup |cos x - 1| / (x^2 + x^2): the envelope constant of cos at 0 for
# alpha = n = 2, used by every mean-of-N sweep.
COS_UPPER_M = 0.25


# ---------------------------------------------------------------------------
# Distributions

def atoms(d):
    """Support points and weights of a finite-support descriptor, or None."""
    v = d["variant"]
    if v == "two_point":
        mu, s = float(d["mu"]), float(d["sigma"])
        return [(mu - s, 0.5), (mu + s, 0.5)]
    if v == "three_point":
        mu, a, p = float(d["mu"]), float(d["a"]), float(d["p"])
        if p == 1.0:
            return [(mu - a, 0.5), (mu + a, 0.5)]
        return [(mu - a, p / 2.0), (mu, 1.0 - p), (mu + a, p / 2.0)]
    if v == "discrete":
        return [(float(x), float(q)) for x, q in d["points"]]
    return None


def mean(d):
    v = d["variant"]
    pts = atoms(d)
    if pts is not None:
        return math.fsum(x * q for x, q in pts)
    if v == "gaussian" or v == "laplace":
        return float(d["mean"])
    if v == "uniform":
        return 0.5 * (float(d["lo"]) + float(d["hi"]))
    if v == "mean_of_n":
        return mean(d["base"])
    raise ValueError(f"no reference for distribution {v!r}")


def _half_width(d):
    return 0.5 * (float(d["hi"]) - float(d["lo"]))


def abs_moment(d, p):
    """E|X - mean|^p for a descriptor (p > 0)."""
    v = d["variant"]
    pts = atoms(d)
    if pts is not None:
        mu = mean(d)
        return math.fsum(q * abs(x - mu) ** p for x, q in pts)
    if v == "gaussian":
        s = float(d["stddev"])
        return s ** p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    if v == "laplace":
        return float(d["scale"]) ** p * math.gamma(p + 1.0)
    if v == "uniform":
        return _half_width(d) ** p / (p + 1.0)
    if v == "mean_of_n" and p == 2.0:
        return abs_moment(d["base"], 2.0) / int(d["n"])
    raise ValueError(f"no reference moment of order {p} for {v!r}")


def _cos_transform(d):
    """E cos(X - mean) for a symmetric continuous family (its characteristic
    function at 1)."""
    v = d["variant"]
    if v == "gaussian":
        return math.exp(-0.5 * float(d["stddev"]) ** 2)
    if v == "laplace":
        return 1.0 / (1.0 + float(d["scale"]) ** 2)
    if v == "uniform":
        h = _half_width(d)
        return math.sin(h) / h
    if v == "mean_of_n":
        # the mean of n independent copies: E cos(Y/n)^n, with Y the
        # centered base draw
        n = int(d["n"])
        base = d["base"]
        if base["variant"] == "uniform":
            h = _half_width(base) / n
            return (math.sin(h) / h) ** n
        if base["variant"] == "laplace":
            return (1.0 + (float(base["scale"]) / n) ** 2) ** (-n)
    raise ValueError(f"no characteristic function for {v!r}")


# ---------------------------------------------------------------------------
# Functions

def _unshift(f):
    while f["kind"] == "shifted":
        f = f["base"]
    return f


def _coeffs(f):
    if f["kind"] == "pow4":
        return [0.0, 0.0, 0.0, 0.0, 1.0]
    return [float(c) for c in f["coeffs"]]


def value(f, x):
    """f(x) for an unshifted descriptor."""
    kind = f["kind"]
    mu = float(f.get("mu", 0.0))
    if kind == "cos":
        return math.cos(x)
    if kind == "sin":
        return math.sin(x)
    if kind == "log":
        return math.log(x)
    if kind == "sqrt":
        return math.sqrt(x)
    if kind in ("pow4", "polynomial"):
        return math.fsum(c * x ** k for k, c in enumerate(_coeffs(f)))
    if kind == "abs_power":
        return abs(x - mu) ** float(f["alpha"])
    if kind == "abs_power_sum":
        return abs(x - mu) ** float(f["alpha"]) + abs(x - mu) ** float(f["n"])
    raise ValueError(f"no reference for function {kind!r}")


def _expect_continuous(f, d):
    """E f(X) for the named continuous families, all symmetric about their mean."""
    kind = f["kind"]
    m = mean(d)
    if kind == "cos":
        return math.cos(m) * _cos_transform(d)
    if kind == "sin":
        return math.sin(m) * _cos_transform(d)
    if kind in ("pow4", "polynomial"):
        # E (m + Y)^k with odd central moments zero
        total = 0.0
        for k, c in enumerate(_coeffs(f)):
            even = [math.comb(k, j) * m ** (k - j) * (abs_moment(d, j) if j else 1.0)
                    for j in range(0, k + 1, 2)]
            total += c * math.fsum(even)
        return total
    center = float(f.get("mu", 0.0))
    if kind in ("abs_power", "abs_power_sum") and m == center:
        out = abs_moment(d, float(f["alpha"]))
        if kind == "abs_power_sum":
            out += abs_moment(d, float(f["n"]))
        return out
    if d["variant"] == "uniform" and kind in ("log", "sqrt"):
        lo, hi = float(d["lo"]), float(d["hi"])
        if kind == "log":
            anti = lambda x: x * math.log(x) - x
        else:
            anti = lambda x: 2.0 / 3.0 * x ** 1.5
        return (anti(hi) - anti(lo)) / (hi - lo)
    raise ValueError(f"no reference for {kind!r} under {d['variant']!r}")


def gap(f, d):
    """The Jensen gap E f(X) - f(E X)."""
    f = _unshift(f)
    m = mean(d)
    pts = atoms(d)
    if pts is not None:
        expect = math.fsum(q * value(f, x) for x, q in pts)
    else:
        expect = _expect_continuous(f, d)
    return expect - value(f, m)


# ---------------------------------------------------------------------------
# Sharpness constructions

def two_point_equality(alpha, sigma):
    """Gap of |x|^alpha on mass 1/2 at +-sigma, equal to sigma_n^alpha = sigma^alpha."""
    return float(sigma) ** float(alpha)


def three_point_ratio(alpha, beta, n, p, sigma_n):
    """|J| / sigma_beta^alpha for f = |x|^alpha + |x|^n on the three-point
    family with atoms at +-a, a = sigma_n p^(-1/n): the gap is
    p a^alpha + sigma_n^n and sigma_beta^alpha = p^(alpha/beta) a^alpha."""
    a = sigma_n * p ** (-1.0 / n)
    return (p * a ** alpha + sigma_n ** n) / (p ** (alpha / beta) * a ** alpha)
