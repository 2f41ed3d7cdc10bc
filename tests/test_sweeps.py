import numpy as np
import pytest

from jensengap.distributions import Discrete, Uniform
from jensengap.errors import InvalidParameterError
from jensengap.functions import make_function
from jensengap.sweeps import fit_loglog_slope, mean_of_n_sweep, two_point_sweep


def test_fit_recovers_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    ys = 3.0 * xs ** 2.5
    assert fit_loglog_slope(xs, ys) == pytest.approx(2.5, abs=1e-12)


def test_fit_rejects_small_or_bad_grids():
    with pytest.raises(InvalidParameterError):
        fit_loglog_slope([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    with pytest.raises(InvalidParameterError):
        fit_loglog_slope([1.0, 2.0, 4.0, 8.0], [1.0, -2.0, 4.0, 8.0])
    with pytest.raises(InvalidParameterError):
        fit_loglog_slope([0.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0])
    with pytest.raises(InvalidParameterError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])


def test_fit_degenerate_all_zero_is_flat():
    assert fit_loglog_slope([1.0, 2.0, 4.0, 8.0], [0.0, 0.0, 0.0, 0.0]) == 0.0


def test_two_point_sweep_cosine_ratio_limit():
    f = make_function("cos", 0.0)
    out = two_point_sweep(f, [0.4, 0.2, 0.1, 0.05])
    rows = out["rows"]
    assert [r["sigma"] for r in rows] == [0.4, 0.2, 0.1, 0.05]
    # gap/sigma^2 approaches the halved curvature -1/2 from above
    assert rows[-1]["ratio"] == pytest.approx(-0.5, abs=1e-3)
    assert abs(rows[-1]["ratio"] + 0.5) < abs(rows[0]["ratio"] + 0.5)
    assert out["gap_slope"] == pytest.approx(2.0, abs=0.05)
    for r in rows:
        assert abs(r["gap"]) <= r["upper"] + 1e-12


def test_two_point_sweep_rejects_small_grid():
    f = make_function("cos", 0.0)
    with pytest.raises(InvalidParameterError):
        two_point_sweep(f, [0.4, 0.2, 0.1])
    with pytest.raises(InvalidParameterError):
        two_point_sweep(f, [0.4, 0.2, 0.1, -0.05])


@pytest.mark.parametrize("sweep, grid, message", [
    (two_point_sweep, [0.4, 0.2, -0.1], "at least 4 grid points"),
    (two_point_sweep, [0.4, 0.2, 0.1, -0.05], "sigma grid must be positive"),
    (lambda f, grid: mean_of_n_sweep(f, Uniform(-1.0, 1.0), grid),
     [4.5, 16, 64, 256], "N grid entry must be a positive integer"),
], ids=["short_before_positive", "positive", "count"])
def test_sweep_grid_checks_in_order(sweep, grid, message):
    with pytest.raises(InvalidParameterError, match=message):
        sweep(make_function("cos", 0.0), grid)


def test_mean_of_n_sweep_slope_near_inverse():
    f = make_function("cos", 0.0)
    out = mean_of_n_sweep(f, Uniform(-1.0, 1.0), [4, 16, 64, 256], seed=0)
    assert out["gap_slope"] == pytest.approx(-1.0, abs=0.1)


def test_mean_of_n_sweep_rejects_non_integral_n():
    f = make_function("cos", 0.0)
    for bad in (4.5, 0, True):
        with pytest.raises(InvalidParameterError):
            mean_of_n_sweep(f, Uniform(-1.0, 1.0), [bad, 16, 64, 256])


def test_mean_of_n_sweep_degenerate_base():
    f = make_function("cos", 0.0)
    out = mean_of_n_sweep(f, Discrete(((0.0, 1.0),)), [4, 16, 64, 256],
                          samples=2_000, seed=0)
    assert out["gap_slope"] == 0.0
    for r in out["rows"]:
        assert r["gap"] == 0.0 and r["upper"] == 0.0
