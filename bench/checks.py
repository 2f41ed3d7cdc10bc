"""Judge program outputs against the references in ``reference.py``.

Each check returns a list of problems, empty when the output is right.
Comparisons allow the program's own stated error (a gap estimate's
``abs_error`` plus a bound report's ``uncertainty``), scaled by
``ERROR_FACTOR`` because a Monte Carlo radius is only a 95% radius, plus
a relative slack for the 9 significant digits the CLI prints.  A
``verify`` verdict of ``inconclusive`` is not a problem; ``fail`` is.
"""

import math

import reference

ERROR_FACTOR = 4.0
REL_SLACK = 1e-8
ABS_SLACK = 1e-12
SLOPE_RANGE = (-1.1, -0.9)


def allowance(err, *values):
    return ERROR_FACTOR * err + REL_SLACK * max(abs(v) for v in values) + ABS_SLACK


def bound(kind, ref, value, err, sign=None):
    """A bound report against the reference gap ``ref``."""
    if kind in ("upper", "general_upper"):
        ok = abs(ref) <= value + allowance(err, ref, value)
    elif kind == "variance_interval":
        lo, hi = value
        ok = lo - allowance(err, ref, lo) <= ref <= hi + allowance(err, ref, hi)
    else:
        signed = -ref if sign == "gap_below" else ref
        ok = signed >= value - allowance(err, ref, value)
    return [] if ok else [f"{kind} bound {value!r} misses reference gap {ref!r} "
                          f"(stated error {err:.3g})"]


def estimate(what, ref, value, err):
    if abs(value - ref) <= allowance(err, ref, value):
        return []
    return [f"{what} {value!r} differs from reference {ref!r} (stated error {err:.3g})"]


def verdict(what, v):
    return [] if v != "fail" else [f"verify says fail on {what}"]


def slope(what, value):
    lo, hi = SLOPE_RANGE
    return [] if lo <= value <= hi else [f"{what}: fitted slope {value!r} outside [{lo}, {hi}]"]


def _num(v):
    # the CLI prints infinities as the strings "inf" and "-inf"
    return tuple(float(x) for x in v) if isinstance(v, list) else float(v)


def cli_payload(spec, payload):
    """One CLI call's JSON output against its check spec from ``inputs``."""
    call = spec["call"]
    if call == "bound":
        rep, gap = payload["report"], payload["gap"]
        ref = reference.gap(spec["function"], spec["dist"])
        err = gap["abs_error"] + rep["uncertainty"]
        what = f"bound --kind {spec['kind']} on {spec['dist']['variant']}"
        return (bound(rep["kind"], ref, _num(rep["value"]), err, rep["params"].get("sign"))
                + estimate(f"{what} gap", ref, gap["value"], gap["abs_error"])
                + verdict(what, payload["verify"]["verdict"]))
    if call == "oracle":
        ref = reference.gap(spec["function"], spec["dist"])
        return estimate("oracle gap", ref, payload["value"], payload["abs_error"])
    if call == "examples":
        return catalog_rows(payload["rows"]) + (
            [] if payload["all_within_tolerance"] else ["examples reports a row out of tolerance"])
    if call == "tightness_two_point":
        ref = reference.two_point_equality(spec["alpha"], spec["sigma"])
        out = (estimate("two-point gap", ref, payload["gap"], 0.0)
               + estimate("two-point bound floor", ref, payload["bound_floor"], 0.0))
        return out + ([] if payload["equal"] else ["two-point construction reports inequality"])
    if call == "tightness_three_point":
        ref = reference.three_point_ratio(spec["alpha"], spec["beta"], spec["n"], spec["p"],
                                          spec["sigma_n"])
        out = estimate("three-point ratio", ref, payload["ratio"], 0.0)
        return out + ([] if payload["match"] else ["three-point ratio reports a mismatch"])
    raise ValueError(f"unknown call {call!r}")


def catalog_rows(rows):
    """The worked examples against the hand-calculus constants."""
    out = []
    names = [row["name"] for row in rows]
    if sorted(names) != sorted(reference.CATALOG_CONSTANTS):
        out.append(f"catalog rows {names} do not match the reference table")
    for row in rows:
        ref = reference.CATALOG_CONSTANTS.get(row["name"])
        if ref is not None and not math.isclose(row["computed"], ref,
                                                rel_tol=reference.CATALOG_REL_TOL):
            out.append(f"catalog {row['name']!r}: {row['computed']!r} vs {ref!r}")
    return out
