"""Growth verdicts of the declared-growth envelopes over a fixed grid.

Each case solves one envelope, ``sup_ratio_upper`` for an upper declaration
(alpha, n) or ``inf_ratio_lower`` for a lower one (alpha, beta, sign), and
records either the error it raises (type and message) or the constant's
value, location and attainment point, as ``repr`` text so every bit shows.
The grid mixes functions whose declarations hold with ones that climb
without bound or decay to zero at the mean or at infinity, so the rejection
of a bad declaration is pinned next to the constants of the good ones.

Regenerate on purpose only:
``PYTHONPATH=src python tests/test_envelope_verdicts.py > tests/golden/envelope_verdicts.json``
"""

import json
import pathlib

import numpy as np

from jensengap.envelope import inf_ratio_lower, sup_ratio_upper
from jensengap.errors import JensenGapError
from jensengap.functions import GAP_ABOVE, GAP_BELOW, custom_function, make_function

GOLDEN = pathlib.Path(__file__).parent / "golden" / "envelope_verdicts.json"

UPPER = [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0), (3.0, 3.0)]
LOWER = [(1.0, 1.0), (2.0, 1.0), (2.0, 1.5), (2.0, 2.0), (3.0, 2.0)]


def functions():
    out = {f"abs_power({a:g})": make_function("abs_power", 0.0, alpha=a)
           for a in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)}
    for kind in ("cos", "sin", "pow4"):
        out[kind] = make_function(kind, 0.0)
    out["-x^2"] = make_function("polynomial", 0.0, coeffs=(0.0, 0.0, -1.0))
    out["sqrt(1+x^2)-1"] = custom_function(
        lambda x: np.sqrt(1.0 + np.square(x)) - 1.0, 0.0, slope_at_mu=0.0,
        label="sqrt(1+x^2)-1")
    out["log1p(x^2)"] = custom_function(
        lambda x: np.log1p(np.square(x)), 0.0, slope_at_mu=0.0,
        label="log1p(x^2)")
    return out


def _verdict(solve):
    try:
        m = solve()
    except JensenGapError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"value": repr(m.value), "location": m.location, "arg": repr(m.arg)}


def verdicts():
    out = {}
    for name, f in functions().items():
        for alpha, n in UPPER:
            out[f"{name} upper({alpha:g}, {n:g})"] = _verdict(
                lambda: sup_ratio_upper(f, alpha, n))
        for alpha, beta in LOWER:
            for sign in (GAP_ABOVE, GAP_BELOW):
                out[f"{name} lower({alpha:g}, {beta:g}, {sign})"] = _verdict(
                    lambda: inf_ratio_lower(f, alpha, beta, sign))
    return out


def test_envelope_verdicts_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = verdicts()
    assert list(got) == list(want)
    changed = {case: (want[case], got[case]) for case in want if got[case] != want[case]}
    assert not changed


if __name__ == "__main__":
    print(json.dumps(verdicts(), indent=1))
