"""Known false claims, each on a minimal example.

Every claim here must either raise a typed error or not read ``fail``
against the oracle's gap: the sandwich's own property.  Each class that
breaks it today is a strict xfail, so the change that mends the class must
also lift its marker.
"""

import json

import pytest

import jensengap.cli as cli
from jensengap.bounds import BoundReport, lower_bound_cauchy_schwarz
from jensengap.distributions import Gaussian, two_point
from jensengap.envelope import inf_ratio_lower
from jensengap.errors import JensenGapError
from jensengap.functions import make_function
from jensengap.oracle import jensen_gap, verify


def _refused_or_holds(claim):
    """The sandwich's own property: ``claim()`` raises a typed error, or the
    verdict it returns is not fail."""
    try:
        verdict = claim()
    except JensenGapError:
        return
    assert verdict.verdict != "fail"


@pytest.mark.xfail(strict=True, reason="a ratio that climbs like |x|^0.2 looks "
                   "converged at the 1e8 probe cap, so the upper constant is "
                   "finite though none exists (ROADMAP item 15)")
def test_slow_power_upper_bound_is_refused_or_holds(capsys):
    # today: the bound 3.98e21 against a gap of 1.08e22, exit 2
    code = cli.main(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                     "--function", '{"kind": "abs_power", "mu": 0, "alpha": 2.2}',
                     "--dist", '{"variant": "gaussian", "mean": 0, "stddev": 1e10}',
                     "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1 or json.loads(out)["verify"]["verdict"] != "fail"


@pytest.mark.xfail(strict=True, reason="a ratio that falls like |x|^0.01 toward "
                   "the mean is extrapolated to 1.816 at_mu, where the true "
                   "infimum is 0 (ROADMAP item 15)")
def test_slow_power_lower_bound_is_refused_or_holds():
    f = make_function("abs_power", 0.0, alpha=2.01)
    dist = two_point(0.0, 1e-5)

    def claim():
        # today: the lower bound 9.08e-11 against the exact gap 8.91e-11
        report = lower_bound_cauchy_schwarz(inf_ratio_lower(f, 2.0, 2.0), dist, 2.0, 2.0)
        return verify(report, jensen_gap(f, dist))

    _refused_or_holds(claim)


@pytest.mark.xfail(strict=True, reason="the closed-form gap's bar of 0 leaves out "
                   "the cancellation among its terms (ROADMAP item 11)")
def test_closed_form_cancellation_never_fails_a_true_claim():
    # E X^4 = 3e12 = 3e6 E X^2 on N(0, 1000^2), so the gap is exactly 0, and
    # |J| <= 0 holds; today the gap reads 0.00244 +- 0
    f = make_function("polynomial", 0.0, coeffs=[0, 0, -3e6, 0, 1])
    gap = jensen_gap(f, Gaussian(0.0, 1000.0))
    claim = BoundReport(kind="upper", value=0.0, mu=0.0, envelope=None,
                        moments_used=(), params=(), valid=True, uncertainty=0.0)
    assert verify(claim, gap).verdict != "fail"
