"""Tests of the benchmark's own code: the closed-form references against
fine numerical integration and exact sums, and the metric tables against
BENCHMARK.json.  Run with ``python3 -m pytest bench``.
"""

import json
import math
import os

import numpy as np
import pytest

import inputs
import reference
import run
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each function again, written with numpy; shifts are left out because a
# linear shift leaves the gap unchanged.
NUMPY_FUNCTIONS = {
    "cos": np.cos,
    "sin": np.sin,
    "pow4": lambda x: x ** 4,
    "square": lambda x: x ** 2,
    "abs15": lambda x: np.abs(x) ** 1.5,
    "abs15_3": lambda x: np.abs(x) ** 1.5 + np.abs(x) ** 3,
    "log": np.log,
    "sqrt": np.sqrt,
    "pow4_shifted": lambda x: x ** 4,
}


def integrate(fn, edges, order=20):
    """Composite Gauss-Legendre rule over consecutive ``edges``."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = edges[:-1, None], edges[1:, None]
    return float(np.sum((hi - lo) / 2.0 * w * fn((hi - lo) / 2.0 * x + (hi + lo) / 2.0)))


def density(d):
    """(pdf, mean, reach): the support within reach of the mean holds all
    but a negligible mass."""
    v = d["variant"]
    if v == "gaussian":
        m, s = d["mean"], d["stddev"]
        return lambda x: np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi)), m, 40 * s
    if v == "laplace":
        m, b = d["mean"], d["scale"]
        return lambda x: np.exp(-np.abs(x - m) / b) / (2 * b), m, 80 * b
    lo, hi = d["lo"], d["hi"]
    return lambda x: np.full_like(x, 1.0 / (hi - lo)), 0.5 * (lo + hi), 0.5 * (hi - lo)


def numeric_expectation(fn, d):
    # pieces graded geometrically toward the mean, where |x - mean|^p kinks
    pdf, m, reach = density(d)
    steps = np.concatenate([[0.0], reach * np.geomspace(1e-15, 1.0, 600)])
    return sum(integrate(lambda x: fn(x) * pdf(x), edges) for edges in ((m - steps)[::-1], m + steps))


def continuous_cases():
    for key, f in inputs.FUNCTIONS.items():
        mu = inputs._center(f)
        if key in ("log", "sqrt"):
            for h in (0.05, 0.3, 0.45):
                yield key, {"variant": "uniform", "lo": mu - h, "hi": mu + h}
            continue
        for scale in (0.05, 0.7, 2.0):
            for family in inputs.QUADRATURE_FAMILIES:
                yield key, inputs._family(family, mu, scale)


@pytest.mark.parametrize("key,d", list(continuous_cases()))
def test_gap_matches_integration(key, d):
    fn = NUMPY_FUNCTIONS[key]
    mean = numeric_expectation(lambda x: x, d)
    expect = numeric_expectation(fn, d)
    numeric = expect - float(fn(np.float64(mean)))
    assert abs(reference.gap(inputs.FUNCTIONS[key], d) - numeric) <= 1e-9 * max(1.0, abs(expect))


@pytest.mark.parametrize("p", [0.75, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("family", inputs.QUADRATURE_FAMILIES)
def test_abs_moment_matches_integration(family, p):
    d = inputs._family(family, 0.3, 0.8)
    numeric = numeric_expectation(lambda x: np.abs(x - 0.3) ** p, d)
    assert reference.abs_moment(d, p) == pytest.approx(numeric, rel=1e-10)


def test_finite_atoms_match_sums():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu, scale, p = 1.0 + rng.normal(), rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.95)
        for d in (inputs._family("two_point", mu, scale), inputs._family("three_point", mu, scale, p)):
            xs = np.array([x for x, _ in reference.atoms(d)])
            qs = np.array([q for _, q in reference.atoms(d)])
            assert qs.sum() == pytest.approx(1.0, abs=1e-15)
            assert reference.mean(d) == pytest.approx(mu, abs=1e-14)
            for key in ("cos", "sin", "pow4", "square"):
                fn = NUMPY_FUNCTIONS[key]
                want = float(qs @ fn(xs) - fn(mu))
                assert reference.gap(inputs.FUNCTIONS[key], d) == pytest.approx(want, abs=1e-12)


def test_sandwich_draws_have_references():
    rng = inputs._rng("test")
    for _ in range(50):
        for index, dists in inputs.sandwich_round(rng, 2):
            key = inputs.SANDWICH_POOL[index][0]
            for d in dists:
                assert math.isfinite(reference.gap(inputs.FUNCTIONS[key], d))


def mean_of_n(base, n):
    return {"variant": "mean_of_n", "base": base, "n": n}


UNIFORM = {"variant": "uniform", "lo": -1.0, "hi": 1.0}


@pytest.mark.parametrize("base", [UNIFORM, {"variant": "laplace", "mean": 0.0, "scale": 0.7}])
@pytest.mark.parametrize("n", [1, 4, 16, 256])
def test_mean_of_n_cos_gap(base, n):
    # the mean of n independent copies: E cos(Xbar) = (E cos(X/n))^n
    single = numeric_expectation(lambda x: np.cos(x / n), base)
    ref = reference.gap(inputs.FUNCTIONS["cos"], mean_of_n(base, n))
    assert ref == pytest.approx(single ** n - 1.0, rel=1e-9)
    if base is UNIFORM:
        assert ref == pytest.approx((n * math.sin(1.0 / n)) ** n - 1.0, rel=1e-12)
    else:
        assert ref == pytest.approx((1.0 + (0.7 / n) ** 2) ** (-n) - 1.0, rel=1e-12)


@pytest.mark.parametrize("base", [UNIFORM, {"variant": "laplace", "mean": 0.0, "scale": 0.7}])
def test_mean_of_two_by_double_integration(base):
    # E over the pair directly, no independence shortcut
    pdf, m, reach = density(base)
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(m - reach, m + reach, 101)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = ((hi - lo) / 2 * x + (hi + lo) / 2).ravel()
    weights = ((hi - lo) / 2 * w).ravel() * pdf(nodes)
    pair_mean = (nodes[:, None] + nodes[None, :]) / 2.0
    pair_weight = weights[:, None] * weights[None, :]
    d = mean_of_n(base, 2)
    assert float(np.sum(pair_weight * np.cos(pair_mean))) - 1.0 == pytest.approx(
        reference.gap(inputs.FUNCTIONS["cos"], d), rel=1e-9)
    assert float(np.sum(pair_weight * pair_mean ** 2)) == pytest.approx(
        reference.abs_moment(d, 2.0), rel=1e-9)


def test_sigma2_of_mean_of_n():
    for n in (1, 4, 16, 64, 256):
        assert reference.abs_moment(mean_of_n(UNIFORM, n), 2.0) == pytest.approx(1.0 / (3 * n))
        laplace = {"variant": "laplace", "mean": 0.0, "scale": 0.6}
        assert reference.abs_moment(mean_of_n(laplace, n), 2.0) == pytest.approx(2 * 0.36 / n)


def _extremum(ratio, ys, take):
    vals = ratio(ys)
    return float(take(vals[np.isfinite(vals)]))


# (row name, ratio of y = x - mu, offsets to scan, sup or inf); every row's
# constant is the extremum of the ratio the row describes.  Where the
# extremum is the limit at y -> 0 the grid stops at |y| = 1e-4, which
# leaves a relative error below 2e-4.
CATALOG_RATIOS = [
    ("sine cubic envelope", lambda y: np.abs(np.sin(y) - y) / (2 * np.abs(y) ** 3), "real", np.max),
    ("sine quadratic envelope", lambda y: np.abs(np.sin(y) - y) / (2 * y ** 2), "real", np.max),
    ("sine linear envelope", lambda y: np.abs(np.sin(y)) / (2 * np.abs(y)), "real", np.max),
    ("cosine curvature coefficient", lambda y: 2 * np.abs(np.cos(y) - 1) / (2 * y ** 2), "real", np.max),
    ("logarithm curvature coefficient",
     lambda y: 2 * np.abs(np.log1p(y) - y) / (2 * y ** 2), "log", np.max),
    ("logarithm deficit envelope",
     lambda y: (y - np.log1p(y)) * (1 / np.abs(y) + 1 / y ** 2), "log", np.min),
    ("square-root curvature coefficient",
     lambda y: 2 * np.abs(np.sqrt(1 + y) - 1 - y / 2) / (2 * y ** 2), "sqrt", np.max),
    ("square-root deficit envelope",
     lambda y: (1 + y / 2 - np.sqrt(1 + y)) * (1 / np.abs(y) + 1 / y ** 2), "sqrt", np.min),
    ("quartic mixed envelope",
     lambda y: np.abs((1 + y) ** 4 - 1 - 4 * y) / (y ** 2 + y ** 4), "real", np.max),
    ("quartic excess envelope",
     lambda y: 2 * ((1 + y) ** 4 - 1 - 4 * y) / y ** 2, "real", np.min),
]
OFFSETS = {
    "real": np.concatenate([-np.geomspace(1e-4, 1e3, 400_001), np.geomspace(1e-4, 1e3, 400_001)]),
    "log": np.concatenate([-np.geomspace(1e-4, 0.5, 400_001), np.geomspace(1e-4, 1e3, 400_001)]),
    "sqrt": np.concatenate([-np.geomspace(1e-4, 1.0, 400_001), np.geomspace(1e-4, 1e3, 400_001)]),
}


@pytest.mark.parametrize("name,ratio,domain,take", CATALOG_RATIOS)
def test_catalog_constants_by_grid_search(name, ratio, domain, take):
    found = _extremum(ratio, OFFSETS[domain], take)
    assert found == pytest.approx(reference.CATALOG_CONSTANTS[name], rel=2e-4)


def test_catalog_table_covers_every_row():
    assert len(reference.CATALOG_CONSTANTS) == len(CATALOG_RATIOS) == 10


def test_tightness_constructions_by_sums():
    for alpha, sigma in ((2.0, 0.5), (1.0, 1.0), (3.0, 0.2), (1.5, 1.7)):
        xs = np.array([-sigma, sigma])
        assert float(np.mean(np.abs(xs) ** alpha)) == pytest.approx(
            reference.two_point_equality(alpha, sigma), rel=1e-14)
    for p in (1e-4, 1e-3, 0.01, 0.3):
        alpha, beta, n, sigma_n = 2.0, 1.0, 2.0, 1.0
        a = sigma_n / p ** (1.0 / n)
        xs, qs = np.array([-a, 0.0, a]), np.array([p / 2, 1 - p, p / 2])
        gap = float(qs @ (np.abs(xs) ** alpha + np.abs(xs) ** n))
        sigma_beta = float(qs @ np.abs(xs) ** beta) ** (1.0 / beta)
        assert gap / sigma_beta ** alpha == pytest.approx(
            reference.three_point_ratio(alpha, beta, n, p, sigma_n), rel=1e-12)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOAD_KIND)
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced = ({f"{name}.{part}" for name in trace.SPAN_NAMES for part in ("calls", "self_ms")}
              | set(trace.COUNTERS) | {f"import.{pkg}_ms" for pkg in run.IMPORTED_PACKAGES}
              | {"trace.overhead_ms", "trace.overhead_pct", "trace.spans"})
    assert per_layer == traced
