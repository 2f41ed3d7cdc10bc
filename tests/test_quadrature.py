"""The adaptive Gauss-Kronrod driver against a plain reference copy.

``_reference_qk21`` and ``_reference_gauss_kronrod`` are the driver as it
stood before its cells moved into one table: one array per row, masked error
scaling on every cell, and separate sums and concatenations.  Both start on
the same equal cells either side of the split point, each edge one weighted
sum of the ends and the split.  The arithmetic of the two is the same
operation for operation, so every value, error estimate and evaluation count
must agree exactly, not to a tolerance.
"""

import math

import numpy as np
import pytest

from jensengap import distributions
from jensengap.distributions import (
    _EPS,
    _FLOOR_MIN,
    _GK_GAUSS_WEIGHTS,
    _GK_KRONROD_WEIGHTS,
    _GK_NODES,
    _RULE_POINTS,
    _START_CELLS,
    MIN_NODES,
    QUAD_EPSABS,
    QUAD_EPSREL,
    Gaussian,
    Laplace,
    Uniform,
    _gauss_kronrod,
)
from jensengap.errors import EvaluationError
from jensengap.functions import _apply_rule, make_function
from jensengap.oracle import jensen_gap


def _reference_qk21(h, lo, hi):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = center[:, None] + half[:, None] * _GK_NODES
    fx = h(xs.ravel()).reshape(xs.shape)
    resk = fx @ _GK_KRONROD_WEIGHTS
    resabs = np.abs(fx) @ _GK_KRONROD_WEIGHTS * np.abs(half)
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK_KRONROD_WEIGHTS * np.abs(half)
    err = np.abs((resk - fx @ _GK_GAUSS_WEIGHTS) * half)
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0)
    err = np.where(resasc > 0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    err = np.where(resabs > _FLOOR_MIN, np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def _reference_gauss_kronrod(h, a, mid, b, nodes):
    per_side = min(_START_CELLS, nodes // MIN_NODES)
    fractions = [k / per_side for k in range(per_side + 1)]
    edges = np.array([a * (1.0 - f) + mid * f for f in fractions]
                     + [mid * (1.0 - f) + b * f for f in fractions[1:]])
    lo, hi = edges[:-1], edges[1:]
    values, errs = _reference_qk21(h, lo, hi)
    evals = _RULE_POINTS * len(lo)
    while True:
        value, err = float(np.sum(values)), float(np.sum(errs))
        tol = max(QUAD_EPSABS, QUAD_EPSREL * abs(value))
        split = errs > tol * (hi - lo) / (b - a)
        room = (nodes - evals) // MIN_NODES
        if err <= tol or room == 0 or not split.any():
            return value, err, evals
        if np.count_nonzero(split) > room:
            split = np.zeros_like(split)
            split[np.argsort(-errs, kind="stable")[:room]] = True
        keep = ~split
        mids = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mids])
        new_hi = np.concatenate([mids, hi[split]])
        new_values, new_errs = _reference_qk21(h, new_lo, new_hi)
        evals += _RULE_POINTS * len(new_lo)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        values = np.concatenate([values[keep], new_values])
        errs = np.concatenate([errs[keep], new_errs])


def _outcome(driver, h, a, mid, b, nodes):
    try:
        return driver(h, a, mid, b, nodes)
    except EvaluationError as exc:
        return str(exc)


def _same(h, a, mid, b, nodes):
    want = _outcome(_reference_gauss_kronrod, h, a, mid, b, nodes)
    got = _outcome(_gauss_kronrod, h, a, mid, b, nodes)
    assert got == want, (a, mid, b, nodes)
    return got


def _random_integrand(rng):
    """A smooth, kinked or jumping integrand with random parameters."""
    c, w = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 30.0))
    p = float(rng.uniform(0.2, 3.0))
    return [
        lambda x: np.cos(w * x) * np.exp(-x * x),
        lambda x: np.exp(-w * (x - c) ** 2),
        lambda x: np.abs(x - c) ** p,
        lambda x: np.abs(np.sin(w * x)),
        lambda x: np.maximum(x - c, 0.0) ** 2,
        lambda x: np.where(x > c, 1.0, -0.5),
        lambda x: 1.0 / (1e-3 + (x - c) ** 2),
    ][int(rng.integers(7))]


def test_driver_matches_reference_bit_for_bit():
    rng = np.random.default_rng(18)
    for _ in range(400):
        h = _random_integrand(rng)
        a = float(rng.uniform(-5.0, 0.0))
        b = a + float(10.0 ** rng.uniform(-3.0, 1.5))
        mid = float(rng.uniform(a, b))
        nodes = int(rng.integers(MIN_NODES, 2049))
        _same(h, a, mid, b, nodes)


@pytest.mark.parametrize("nodes", [210, 500, 1000, 2048])
def test_budget_that_runs_out_bisects_the_worst_first(monkeypatch, nodes):
    h = lambda x: np.abs(np.sin(40.0 * x))
    value, err, evals = _same(h, -3.0, 0.1, 3.0, nodes)
    assert err > max(QUAD_EPSABS, QUAD_EPSREL * abs(value))
    assert nodes - MIN_NODES < evals <= nodes
    # more cells asked to be split than the budget had room for, so the
    # driver ranked them and split the worst
    ranked = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *args, **kw: ranked.append(args) or argsort(*args, **kw))
    _gauss_kronrod(h, -3.0, 0.1, 3.0, nodes)
    assert len(ranked) == 1


@pytest.mark.parametrize("h", [
    lambda x: np.full_like(x, 2.5),     # constant: resasc == 0 in every cell
    lambda x: np.maximum(x, 0.0),       # zero left of the split: resasc == resabs == 0 there
    lambda x: 1e-300 * (1.0 + x * x),   # resabs at or below the floor threshold
    lambda x: np.where(x > 0.2, 1e-300 * x, np.cos(x)),
], ids=["constant", "half_zero", "below_floor", "mixed_floor"])
def test_masked_error_scaling_cells(h):
    for nodes in (42, 210, 2048):
        _same(h, -1.0, 0.0, 1.0, nodes)
        _same(h, -0.7, 0.3, 0.9, nodes)


def test_resabs_below_floor_keeps_the_raw_estimate():
    value, err, evals = _same(lambda x: 1e-300 * np.cos(3.0 * x), -0.5, 0.0, 0.5, 2048)
    assert 0.0 < err < 1e-290 and evals == _START_CELLS * MIN_NODES


def test_non_finite_integrand_raises_the_same_error():
    rule = lambda x: np.where(x > 0.3, np.inf, np.cos(x))
    h = lambda xs: _apply_rule(rule, xs, "spiky")
    message = _same(h, -1.0, 0.0, 1.0, 2048)
    assert message.startswith("spiky returned a non-finite value near x = [")
    # an unchecked rule is carried through to the same nan by both drivers
    with np.errstate(all="ignore"):
        got = _gauss_kronrod(rule, -1.0, 0.0, 1.0, 2048)
        want = _reference_gauss_kronrod(rule, -1.0, 0.0, 1.0, 2048)
    assert repr(got) == repr(want)
    assert not math.isfinite(got[0])


@pytest.mark.parametrize("nodes", [42, 84, 126, 168, 210, 2048])
def test_first_pass_takes_equal_cells_either_side_of_mid(monkeypatch, nodes):
    """min(_START_CELLS, nodes // MIN_NODES) equal cells a side, left to
    right, with a, mid and b exact; at MIN_NODES one cell a side, so
    ``_gauss_kronrod`` returns the very tuple of a start on [a, mid] and
    [mid, b]."""
    per_side = min(_START_CELLS, nodes // MIN_NODES)
    starts = []
    rule = distributions._qk21
    monkeypatch.setattr(distributions, "_qk21",
                        lambda h, lo, hi: starts.append((lo, hi)) or rule(h, lo, hi))
    a, mid, b = -0.7, 0.3, 0.9
    assert _same(lambda x: np.abs(np.sin(40.0 * x)), a, mid, b, nodes)[2] <= nodes
    lo, hi = starts[0]
    assert len(lo) == 2 * per_side
    assert lo[0] == a and hi[per_side - 1] == lo[per_side] == mid and hi[-1] == b
    assert np.array_equal(lo[1:], hi[:-1])
    assert hi[:per_side] - lo[:per_side] == pytest.approx([(mid - a) / per_side] * per_side)
    assert hi[per_side:] - lo[per_side:] == pytest.approx([(b - mid) / per_side] * per_side)


@pytest.mark.parametrize("dist", [Gaussian(0.0, 0.5), Laplace(0.0, 0.2), Uniform(-1.0, 1.0)],
                         ids=["gaussian", "laplace", "uniform"])
def test_smooth_gap_finishes_in_the_first_pass(monkeypatch, dist):
    passes = []
    rule = distributions._qk21
    monkeypatch.setattr(distributions, "_qk21", lambda *args: passes.append(1) or rule(*args))
    gap = jensen_gap(make_function("cos", 0.0), dist)
    assert len(passes) == 1 and gap.count == 2 * _START_CELLS * _RULE_POINTS == 168
