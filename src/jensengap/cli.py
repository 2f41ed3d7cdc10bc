"""Command-line front end.

Subcommands: bound (full pipeline with verification), oracle (gap only),
examples (reference-constant reproduction), tightness (sharpness
constructions), sweep (spread and sample-size scaling).  Options come from
flags or a JSON config file; flags win.  Output is JSON, CSV, or a plain
table, always at 9 significant digits, and byte-identical for a fixed
config and seed.  Reports hold plain floats; ``fmt`` and ``render_json``
are the one place where inf, -inf and nan become the text "inf", "-inf"
and "nan", in every format.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import bounds
from .catalog import REL_TOL, worked_example_rows
from .distributions import (
    DEFAULT_MOMENT_SAMPLES, DEFAULT_NODES, MIN_NODES, distribution_from_dict,
)
from .envelope import inf_ratio_lower, sup_ratio_upper
from .errors import ConditionViolationError, InvalidParameterError, JensenGapError
from .functions import (
    GAP_ABOVE, GAP_BELOW, _items, _real, linear_shift, function_from_dict, select_shift_slope,
)
from .oracle import jensen_gap, verify
from .rng import resolve_seed
from .sweeps import fit_loglog_slope, mean_of_n_sweep, two_point_sweep
from .tightness import (
    decay_exponent,
    outlier_ratio_sequence,
    three_point_gap_ratio,
    three_point_gap_ratio_closed_form,
    two_point_equality,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

EQUALITY_TOL = 1e-12
RATIO_TOL = 1e-9
SLOPE_TOL = 0.10


# ---------------------------------------------------------------------------
# Formatting

def fmt(x):
    """One value as text: floats at 9 significant digits, locale-free."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return str(x)
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".9g")


def _round9(obj):
    """Round floats to 9 significant digits recursively, for JSON output;
    non-finite floats become their ``fmt`` text, tuples become lists."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return fmt(obj)
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def render_json(payload):
    return json.dumps(_round9(payload), indent=2) + "\n"


def render_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([fmt(v) for v in row.values()])
    return buf.getvalue()


def render_table(rows, footer=()):
    cells = [[str(k) for k in rows[0].keys()]]
    cells += [[fmt(v) for v in row.values()] for row in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(cells[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
             for line in cells]
    lines[1:1] = ["  ".join("-" * w for w in widths)]
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def emit(opts, payload, rows, footer=()):
    """Render in the --format chosen and write to --out, or to stdout."""
    if opts["format"] == "json":
        text = render_json(payload)
    elif opts["format"] == "csv":
        text = render_csv(rows)
    else:
        text = render_table(rows, footer)
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Option plumbing

def _load_json_arg(text, what):
    """Accept inline JSON (starts with '{') or a path to a JSON file."""
    if text is None:
        raise InvalidParameterError(f"--{what} is required for this command")
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _config_flag(key, value):
    """A config entry as the flag that would set it: whole-number floats
    without a fraction (so 1.0 reads as an int), strings as they are,
    other values as JSON."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    text = value if isinstance(value, str) else json.dumps(value)
    return f"--{key.replace('_', '-')}={text}"


def _add_options(parser, names):
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), **OPTIONS[name])


def merged_options(args):
    """Defaults, overlaid by the config file, overlaid by explicit flags.

    Config values are read as flag text by the command's own options, so
    they take each flag's type and choices; null leaves an option unset.
    """
    defaults = COMMANDS[args.command][2]
    opts = dict(defaults)
    layers = [args]
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise InvalidParameterError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise InvalidParameterError(
                f"config keys not understood by this command: {unknown}"
            )
        reader = _Parser(add_help=False, exit_on_error=False)
        _add_options(reader, defaults)
        try:
            layers.insert(0, reader.parse_args(
                [_config_flag(k, v) for k, v in cfg.items() if v is not None]))
        except argparse.ArgumentError as exc:
            raise InvalidParameterError(f"config {args.config}: {exc}") from None
    for layer in layers:
        opts.update((key, value) for key, value in vars(layer).items()
                    if key in defaults and value is not None)
    if "seed" in defaults and opts["seed"] is None:
        # resolve the environment fallback here so reports echo the seed
        # that was actually used
        opts["seed"] = resolve_seed(None)
    return opts


def _shifted(f, shift):
    """Resolve --shift: 'auto' estimates the slope, 'none' skips, else float."""
    if shift == "none":
        return f
    if shift == "auto":
        slope = select_shift_slope(f)
    else:
        try:
            slope = float(shift)
        except ValueError:
            raise InvalidParameterError(
                f"--shift must be 'auto', 'none', or a number, got {shift!r}"
            ) from None
    if slope == 0.0:
        return f
    return linear_shift(f, slope)


def _signed(solve, sign):
    """solve(sign); on 'auto', solve(gap_above), or solve(gap_below) when the
    envelope finds gap_above violated."""
    if sign != "auto":
        return solve(sign)
    try:
        return solve(GAP_ABOVE)
    except ConditionViolationError:
        return solve(GAP_BELOW)


def _moment_kw(opts):
    """Seed, sample count and quadrature budget for the moment and gap calls."""
    return {key: opts[key] for key in ("seed", "samples", "nodes")
            if opts[key] is not None}


def _parse_terms(text):
    pairs = json.loads(text)
    try:
        return [(_real(e), _real(a)) for e, a in map(_items, _items(pairs))]
    except (TypeError, ValueError):
        raise InvalidParameterError(
            "--terms must be a JSON list of [exponent, weight] pairs"
        ) from None


# ---------------------------------------------------------------------------
# Subcommands

def _need(opts, *names):
    missing = [m for m in names if opts[m] is None]
    if missing:
        who = f"--kind {opts['kind']}" if opts.get("kind") else "this command"
        raise InvalidParameterError(
            f"{who} needs " + ", ".join(f"--{m}" for m in missing)
        )


def _lower_envelope(g, o):
    return _signed(lambda s: inf_ratio_lower(g, o["alpha"], o["beta"], sign=s), o["sign"])


def _holder(g, dist, o, kw):
    if o["q"] is None:
        raise InvalidParameterError(
            f"--kind holder needs --q; valid choices for k={o['k']}: "
            f"{bounds.valid_holder_q(o['k'])}"
        )
    bounds.check_holder_split(o["k"], o["q"])
    return bounds.lower_bound_holder(_lower_envelope(g, o), dist, o["alpha"], o["beta"],
                                     o["k"], o["q"], **kw)


def _general_lower(g, dist, o, kw):
    terms = _parse_terms(o["terms"])
    return _signed(lambda s: bounds.general_bounds(g, dist, terms, "lower", k=o["k"],
                                                   sign=s, **kw), o["sign"])


# each --kind, in --help order: whether it solves for the --shift'ed f, the
# options it needs, and its solve(g, dist, opts, moment_kw)
_KINDS = {
    "upper": (True, ("alpha", "n"), lambda g, dist, o, kw: bounds.upper_bound(
        sup_ratio_upper(g, o["alpha"], o["n"]), dist, o["alpha"], o["n"], **kw)),
    "lower": (True, ("alpha", "beta"), lambda g, dist, o, kw: bounds.lower_bound_cauchy_schwarz(
        _lower_envelope(g, o), dist, o["alpha"], o["beta"], **kw)),
    "holder": (True, ("alpha", "beta", "k"), _holder),
    "holder_single": (True, ("alpha", "beta", "k"),
                      lambda g, dist, o, kw: bounds.lower_bound_holder_single(
                          _lower_envelope(g, o), dist, o["alpha"], o["beta"], o["k"], **kw)),
    "variance": (False, (), lambda f, dist, o, kw: bounds.variance_interval(f, dist, **kw)),
    "general_upper": (True, ("terms",), lambda g, dist, o, kw: bounds.general_bounds(
        g, dist, _parse_terms(o["terms"]), "upper", **kw)),
    "general_lower": (True, ("terms",), _general_lower),
}


def cmd_bound(args):
    opts = merged_options(args)
    _need(opts, "kind")
    f = function_from_dict(_load_json_arg(opts["function"], "function"))
    dist = distribution_from_dict(_load_json_arg(opts["dist"], "dist"))
    kw = _moment_kw(opts)
    shifts, needs, solve = _KINDS[opts["kind"]]
    g = _shifted(f, opts["shift"]) if shifts else f
    _need(opts, *needs)
    report = solve(g, dist, opts, kw)

    gap = jensen_gap(f, dist, **kw)
    verdict = verify(report, gap)
    payload = {
        "report": report.to_dict(),
        "gap": gap.to_dict(),
        "verify": verdict.to_dict(),
    }
    value = report.value
    row = {
        "kind": report.kind,
        "value": value[0] if isinstance(value, tuple) else value,
        "value_hi": value[1] if isinstance(value, tuple) else "",
        "mu": report.mu,
        "gap": gap.value,
        "gap_error": gap.abs_error,
        "verdict": verdict.verdict,
        "margin": verdict.margin,
    }
    footer = [f"verdict: {verdict.verdict} ({verdict.detail})"]
    emit(opts, payload, [row], footer)
    return EXIT_VIOLATION if verdict.verdict == "fail" else EXIT_OK


def cmd_oracle(args):
    opts = merged_options(args)
    f = function_from_dict(_load_json_arg(opts["function"], "function"))
    dist = distribution_from_dict(_load_json_arg(opts["dist"], "dist"))
    gap = jensen_gap(f, dist, **_moment_kw(opts))
    row = {
        "gap": gap.value,
        "abs_error": gap.abs_error,
        "method": gap.method,
        "count": gap.count,
        "mu": gap.mu,
    }
    footer = [f"gap = {fmt(gap.value)} +- {fmt(gap.abs_error)}"]
    emit(opts, gap.to_dict(), [row], footer)
    return EXIT_OK


def cmd_examples(args):
    opts = merged_options(args)
    rows = worked_example_rows()
    worst = max(r["rel_err"] for r in rows)
    ok = worst <= REL_TOL
    for r in rows:
        if "cap" in r and not r["computed"] < r["cap"]:
            ok = False
    payload = {"rows": rows, "max_rel_err": worst, "tolerance": REL_TOL,
               "all_within_tolerance": ok}
    table_rows = [
        {"name": r["name"], "computed": r["computed"],
         "reference": r["reference"], "rel_err": r["rel_err"],
         "location": r["location"]}
        for r in rows
    ]
    footer = [f"max relative error {fmt(worst)} against tolerance {fmt(REL_TOL)}"]
    emit(opts, payload, table_rows, footer)
    return EXIT_OK if ok else EXIT_VIOLATION


# each construction's parameters, at their defaults
_CONSTRUCTIONS = {
    "two_point": {"alpha": 2.0, "n": 4.0, "sigma": 0.5},
    "three_point": {"alpha": 2.0, "beta": 1.0, "n": 2.0, "p": 0.01,
                    "sigma_n": 1.0},
    "outlier": {"beta": 1.0, "alpha": 2.0, "k": 1, "q": 1.5, "j_max": 1024},
}


def cmd_tightness(args):
    opts = merged_options(args)
    _need(opts, "construction")
    kind = opts["construction"]
    par = {**_CONSTRUCTIONS[kind],
           **{key: value for key, value in opts.items() if value is not None}}
    if kind == "two_point":
        result = two_point_equality(par["alpha"], par["n"], par["sigma"])
        diff = abs(result["gap"] - result["bound_floor"])
        scale = max(abs(result["bound_floor"]), 1e-30)
        payload = {**result, "abs_diff": diff,
                   "equal": diff <= EQUALITY_TOL * scale}
        rows, footer, ok = [payload], (), payload["equal"]
    elif kind == "three_point":
        shape = (par["alpha"], par["beta"], par["n"], par["p"], par["sigma_n"])
        ratio = three_point_gap_ratio(*shape)
        closed = three_point_gap_ratio_closed_form(*shape)
        rel = abs(ratio - closed) / abs(closed)
        payload = {"ratio": ratio, "closed_form": closed, "rel_err": rel,
                   "match": rel <= RATIO_TOL}
        rows, footer, ok = [payload], (), payload["match"]
    else:
        beta, alpha, k, q = par["beta"], par["alpha"], par["k"], par["q"]
        seq = outlier_ratio_sequence(beta, alpha, k, q, j_max=par["j_max"])
        m = k * (alpha - beta)
        rows = []
        for j, ratio in seq:
            sigma_q = float(j) ** (1.0 - m / q)
            rows.append({"j": j, "sigma_q": sigma_q,
                         "gap": ratio * sigma_q ** alpha, "ratio": ratio})
        tail = [r for r in rows if r["j"] >= 2]
        slope = fit_loglog_slope([r["j"] for r in tail],
                                 [r["ratio"] for r in tail])
        predicted = decay_exponent(beta, alpha, k, q)
        rel_dev = abs(slope - predicted) / abs(predicted)
        ok = rel_dev <= SLOPE_TOL
        payload = {"rows": rows, "fitted_slope": slope,
                   "predicted_slope": predicted, "rel_dev": rel_dev,
                   "within": ok}
        footer = [
            f"fitted slope {fmt(slope)} against predicted {fmt(predicted)} "
            f"(relative deviation {fmt(rel_dev)})"
        ]
    emit(opts, payload, rows, footer)
    return EXIT_OK if ok else EXIT_VIOLATION


def _parse_grid(text):
    try:
        return [float(s) for s in str(text).split(",") if s.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"--grid must be comma-separated numbers, got {text!r}") from None


def cmd_sweep(args):
    opts = merged_options(args)
    _need(opts, "mode")
    mode = opts["mode"]
    f = function_from_dict(_load_json_arg(opts["function"], "function"))
    alpha, n = opts["alpha"], opts["n"]

    if mode == "two_point":
        sigmas = _parse_grid(opts["grid"] or "0.4,0.2,0.1,0.05")
        result = two_point_sweep(f, sigmas, alpha=alpha, n=n)
    else:
        # whole numbers only: mean_of_n_sweep rejects 4.5 rather than
        # truncating it
        ns = _parse_grid(opts["grid"] or "4,16,64,256")
        base = distribution_from_dict(_load_json_arg(opts["dist"], "dist"))
        result = mean_of_n_sweep(
            f, base, ns, alpha=alpha, n_growth=n,
            samples=opts["samples"], seed=opts["seed"],
        )

    rows = [dict(r, gap_slope=result["gap_slope"]) for r in result["rows"]]
    footer = [f"fitted log-log gap slope {fmt(result['gap_slope'])}"]
    emit(opts, result, rows, footer)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

# every option's flag type, choices, metavar and help; argparse leaves each
# unset flag None, so merged_options can tell an explicit flag from a default
OPTIONS = {
    "function": dict(metavar="FILE|JSON",
                     help="function descriptor, inline JSON or a file path"),
    "dist": dict(metavar="FILE|JSON",
                 help="distribution descriptor, inline JSON or a file path"),
    "seed": dict(type=int, help="RNG seed (falls back to JGB_SEED, then 0)"),
    "samples": dict(type=int,
                    help="Monte Carlo sample count (exact sums, closed forms "
                         "and quadrature ignore it)"),
    "kind": dict(choices=tuple(_KINDS)),
    "mode": dict(choices=("two_point", "mean_of_n")),
    "construction": dict(choices=tuple(_CONSTRUCTIONS)),
    "grid": dict(help="comma-separated sigma grid or N grid"),
    "alpha": dict(type=float),
    "n": dict(type=float),
    "beta": dict(type=float),
    "sigma": dict(type=float, help="two_point spread"),
    "p": dict(type=float, help="three_point moving mass"),
    "sigma_n": dict(type=float, help="three_point fixed top moment"),
    "k": dict(type=int),
    "q": dict(type=float),
    "j_max": dict(type=int,
                  help="largest outlier position (powers of 2 up to this)"),
    "terms": dict(metavar="JSON", help="comparison terms for the general "
                                       "kinds: [[exponent, weight], ...]"),
    "sign": dict(choices=("auto", GAP_ABOVE, GAP_BELOW),
                 help="which side of f(mu) the gap sits on (lower bounds)"),
    "shift": dict(metavar="auto|none|SLOPE",
                  help="linear slope removed before the envelope (default auto)"),
    "nodes": dict(type=int,
                  help="quadrature budget: integrand evaluations per integral "
                       f"(default {DEFAULT_NODES}, at least {MIN_NODES})"),
    "format": dict(choices=("json", "csv", "table"),
                   help="output format (default table)"),
    "out": dict(metavar="PATH", help="write output to PATH instead of stdout"),
    "config": dict(metavar="FILE",
                   help="JSON file of option defaults; explicit flags win"),
}

_DATA = {"function": None, "dist": None, "seed": None, "samples": None}
_OUTPUT = {"format": "table", "out": None}

# each subcommand's handler, help, and options (in --help order) with their
# defaults; every subcommand also takes --config
COMMANDS = {
    "bound": (cmd_bound,
              "compute a bound, estimate the gap, and verify the sandwich",
              {**_DATA, "kind": None, "alpha": None, "n": None, "beta": None,
               "k": None, "q": None, "terms": None, "sign": "auto",
               "shift": "auto", "nodes": None, **_OUTPUT}),
    "oracle": (cmd_oracle, "estimate the gap directly",
               {**_DATA, "nodes": None, **_OUTPUT}),
    "examples": (cmd_examples, "reproduce the reference constants", _OUTPUT),
    "tightness": (cmd_tightness, "run a sharpness construction", {
        **dict.fromkeys(("construction", "alpha", "n", "beta", "sigma", "p",
                         "sigma_n", "k", "q", "j_max")), **_OUTPUT}),
    "sweep": (cmd_sweep, "sweep spread or sample count", {
        "mode": None, "grid": None, "alpha": 2.0, "n": 2.0,
        "function": '{"kind": "cos", "mu": 0.0}',
        "dist": '{"variant": "uniform", "lo": -1.0, "hi": 1.0}',
        "seed": None, "samples": DEFAULT_MOMENT_SAMPLES, **_OUTPUT}),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for bound
    violations, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="jensengap",
                     description="Moment bounds on the Jensen gap, verified "
                                 "against a direct gap estimate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_options(p, [*defaults, "config"])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a typed error reports what overflowed, so numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(args)
    except (JensenGapError, OSError, ValueError) as exc:  # ValueError covers bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
