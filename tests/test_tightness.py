import math

import numpy as np
import pytest

from jensengap.errors import InvalidParameterError
from jensengap.functions import evaluate
from jensengap.sweeps import fit_loglog_slope
from jensengap.tightness import (
    decay_exponent,
    outlier_ratio_sequence,
    outlier_witness,
    three_point_gap_ratio,
    three_point_gap_ratio_closed_form,
    two_point_equality,
)


@pytest.mark.parametrize("alpha,n,sigma,want", [
    (2.0, 4.0, 0.5, 0.25),
    (1.0, 1.0, 1.0, 1.0),
    (3.0, 3.0, 0.2, 0.008),
    (2.0, 2.0, 0.3, 0.09),
])
def test_two_point_equality_exact(alpha, n, sigma, want):
    out = two_point_equality(alpha, n, sigma)
    assert out["gap"] == pytest.approx(want, rel=1e-12)
    assert abs(out["gap"] - out["bound_floor"]) <= 1e-12 * max(out["gap"], 1.0)


def test_two_point_equality_rejects_bad_orders():
    with pytest.raises(InvalidParameterError):
        two_point_equality(3.0, 2.0, 0.5)
    with pytest.raises(InvalidParameterError):
        two_point_equality(0.0, 2.0, 0.5)


def test_three_point_ratio_grows_like_inverse_p():
    assert three_point_gap_ratio(2.0, 1.0, 2.0, 0.01, 1.0) == pytest.approx(200.0, rel=1e-9)
    assert three_point_gap_ratio(2.0, 1.0, 2.0, 1e-4, 1.0) == pytest.approx(20000.0, rel=1e-9)


def test_three_point_ratio_matches_closed_form_on_grid():
    for p in (0.5, 0.1, 0.02, 4e-3, 1e-3):
        for sigma_n in (0.25, 0.5, 1.0, 2.0, 4.0):
            got = three_point_gap_ratio(1.5, 1.0, 2.0, p, sigma_n)
            want = three_point_gap_ratio_closed_form(1.5, 1.0, 2.0, p, sigma_n)
            assert got == pytest.approx(want, rel=1e-9)


def test_three_point_ratio_bounded_when_orders_match():
    # with alpha = beta the p-power vanishes and the ratio stays bounded
    for p in (0.5, 0.05, 5e-3):
        got = three_point_gap_ratio(1.0, 1.0, 2.0, p, 1.0)
        a = 1.0 / p ** 0.5
        assert got == pytest.approx(1.0 + a, rel=1e-9)


def test_three_point_ratio_rejections():
    with pytest.raises(InvalidParameterError):
        three_point_gap_ratio(2.0, 1.0, 2.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        three_point_gap_ratio(2.0, 1.0, 2.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        three_point_gap_ratio(2.0, 3.0, 2.0, 0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        three_point_gap_ratio(2.0, 1.0, 2.0, 0.1, 0.0)


def test_outlier_witness_matches_comparison_curve():
    f = outlier_witness(1.0, 2.0)
    assert evaluate(f, 0.0) == 0.0
    for x in (1e-5, 0.3, 1.0, 8.0, 1e4):
        want = 1.0 / (abs(x) ** -1.0 + abs(x) ** -2.0)
        assert evaluate(f, x) == pytest.approx(want, rel=1e-15)
        assert evaluate(f, -x) == pytest.approx(want, rel=1e-15)
    arr = f.rule(np.array([0.0, 2.0, -2.0]))
    assert arr[0] == 0.0 and arr[1] == arr[2]


def test_outlier_sequence_decays_at_predicted_rate():
    seq = outlier_ratio_sequence(1.0, 2.0, 1, 1.5, j_max=1024)
    js = [j for j, _ in seq]
    assert js == [2 ** i for i in range(11)]
    ratios = [r for _, r in seq]
    # eventually decreasing and tending to zero
    assert all(b < a for a, b in zip(ratios[1:], ratios[2:]))
    assert ratios[-1] < 0.02
    tail = [(j, r) for j, r in seq if j >= 2]
    slope = fit_loglog_slope([j for j, _ in tail], [r for _, r in tail])
    predicted = decay_exponent(1.0, 2.0, 1, 1.5)
    assert predicted == pytest.approx(-2.0 / 3.0)
    assert abs(slope - predicted) <= 0.1 * abs(predicted)


def test_outlier_sequence_base_case():
    seq = outlier_ratio_sequence(1.0, 2.0, 1, 1.5, j_max=1)
    (j, ratio), = seq
    assert j == 1
    assert math.isfinite(ratio) and ratio > 0


def test_outlier_sequence_threshold_rejected():
    # q exactly at alpha k / (k+1) carries no decay claim
    with pytest.raises(InvalidParameterError):
        outlier_ratio_sequence(1.0, 2.0, 1, 1.0, j_max=8)
    with pytest.raises(InvalidParameterError):
        outlier_ratio_sequence(1.0, 2.0, 1, 0.5, j_max=8)
    with pytest.raises(InvalidParameterError):
        outlier_ratio_sequence(2.0, 1.0, 1, 3.0, j_max=8)  # m <= 0
    with pytest.raises(InvalidParameterError):
        outlier_ratio_sequence(1.0, 2.0, 1.5, 3.0, j_max=8)
    with pytest.raises(InvalidParameterError):
        outlier_ratio_sequence(1.0, 2.0, True, 3.0, j_max=8)
    # j_max is a count: a bool, a string or NaN is not one
    for j_max in (True, "8", math.nan):
        with pytest.raises(InvalidParameterError, match="j_max must be a positive integer"):
            outlier_ratio_sequence(1.0, 2.0, 1, 1.5, j_max=j_max)


def test_decay_exponent_formula():
    assert decay_exponent(1.0, 2.0, 1, 1.5) == pytest.approx(-2.0 / 3.0)
    m = 2 * (3.0 - 1.0)
    assert decay_exponent(1.0, 3.0, 2, 2.5) == pytest.approx(1.0 - m - 3.0 * (1.0 - m / 2.5))
