"""Workload inputs, generated from the workload seed with the standard library.

Every input is a plain descriptor (the JSON forms the CLI accepts) or a
CLI argument list, so the same data drives the program, the independent
references in ``reference.py`` and the output checks in ``checks.py``.
The program sees only what is generated here; seeds it needs for Monte
Carlo are drawn here too.

Each workload has a main part, generated as ``MAIN_ROUNDS`` rounds that a
run cycles through until its time is up, and a small fixed side part of
every other kind, which the traced run uses so that every per-layer metric
is reported on every workload.
"""

import json
import math
import random

MAIN_ROUNDS = 64

FUNCTIONS = {
    "cos": {"kind": "cos", "mu": 0.0},
    "sin": {"kind": "sin", "mu": 0.0},
    "pow4": {"kind": "pow4", "mu": 1.0},
    "square": {"kind": "polynomial", "mu": 0.0, "coeffs": [0.0, 0.0, 1.0]},
    "abs15": {"kind": "abs_power", "mu": 0.0, "alpha": 1.5},
    "abs15_3": {"kind": "abs_power_sum", "mu": 0.0, "alpha": 1.5, "n": 3.0},
    "log": {"kind": "log", "mu": 1.0, "domain": [0.5, None]},
    "sqrt": {"kind": "sqrt", "mu": 1.0, "domain": [0.0, None]},
    "pow4_shifted": {"kind": "shifted", "base": {"kind": "pow4", "mu": 1.0}, "slope": 4.0},
}

# The criterion-2 pool of the acceptance tests: (function, slope-flattened,
# upper orders (alpha, n), lower orders (alpha, beta) or None, gap sign,
# distribution draw).  A draw is ("real_line", mu, top) or ("near", mu, lo).
SANDWICH_POOL = [
    ("cos", False, (2.0, 2.0), None, None, ("real_line", 0.0, 3.0)),
    ("sin", True, (3.0, 3.0), None, None, ("real_line", 0.0, 3.0)),
    ("pow4", True, (2.0, 4.0), (2.0, 2.0), "gap_above", ("real_line", 1.0, 3.0)),
    ("square", False, (2.0, 2.0), (2.0, 2.0), "gap_above", ("real_line", 0.0, 3.0)),
    ("abs15", False, (1.5, 1.5), (1.5, 1.5), "gap_above", ("real_line", 0.0, 3.0)),
    ("abs15_3", False, (1.5, 3.0), (1.5, 1.5), "gap_above", ("real_line", 0.0, 3.0)),
    ("log", True, (2.0, 2.0), (2.0, 1.0), "gap_below", ("near", 1.0, 0.5)),
    ("sqrt", True, (2.0, 2.0), (2.0, 1.0), "gap_below", ("near", 1.0, 0.0)),
]
SANDWICH_DISTS_PER_FUNCTION = 4

# Quadrature workload: (function, upper orders, quadrature moment order).
QUADRATURE_FUNCTIONS = [
    ("cos", (2.0, 2.0), 2.0),
    ("square", (2.0, 2.0), 2.0),
    ("abs15", (1.5, 1.5), 1.5),
    ("pow4_shifted", (2.0, 4.0), 4.0),
]
QUADRATURE_FAMILIES = ("gaussian", "laplace", "uniform")
QUADRATURE_SPREADS = [0.05 * 40.0 ** (i / 7.0) for i in range(8)]  # 0.05 .. 2
QUADRATURE_MOMENT_EVERY = 4

MEAN_OF_N_GRID = (4, 16, 64, 256)
MEAN_OF_N_SAMPLES = 100_000


def _rng(*parts):
    return random.Random("|".join(str(p) for p in ("jensengap-bench",) + parts))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _center(f):
    while f["kind"] == "shifted":
        f = f["base"]
    return float(f["mu"])


def _family(name, mu, scale, p=None):
    if name == "two_point":
        return {"variant": "two_point", "mu": mu, "sigma": scale}
    if name == "three_point":
        return {"variant": "three_point", "mu": mu, "a": scale, "p": p}
    if name == "gaussian":
        return {"variant": "gaussian", "mean": mu, "stddev": scale}
    if name == "laplace":
        return {"variant": "laplace", "mean": mu, "scale": scale}
    return {"variant": "uniform", "lo": mu - scale, "hi": mu + scale}


def _sandwich_dist(rng, draw):
    shape, mu, edge = draw
    if shape == "real_line":
        family = ("two_point", "three_point", "gaussian", "laplace", "uniform")[rng.randrange(5)]
        scale = _log_uniform(rng, 0.05, edge)
        p = rng.uniform(0.05, 0.95)
    else:
        # the support must stay inside [edge, inf)
        family = ("two_point", "three_point", "uniform")[rng.randrange(3)]
        scale = _log_uniform(rng, 0.05, (mu - edge) * 0.9)
        p = rng.uniform(0.3, 0.7)
    return _family(family, mu, scale, p)


def sandwich_round(rng, dists_per_function):
    """One pass over the pool: [(pool index, [dist descriptor, ...]), ...]."""
    return [(i, [_sandwich_dist(rng, entry[5]) for _ in range(dists_per_function)])
            for i, entry in enumerate(SANDWICH_POOL)]


def quadrature_round(rng):
    """[(function index, dist descriptor, moment order or None), ...]."""
    ops = []
    for i, (key, _, p) in enumerate(QUADRATURE_FUNCTIONS):
        mu = _center(FUNCTIONS[key])
        for family in QUADRATURE_FAMILIES:
            for spread in QUADRATURE_SPREADS:
                scale = spread * math.exp(rng.uniform(-0.15, 0.15))
                ops.append([i, _family(family, mu, scale), None])
    for op in ops[::QUADRATURE_MOMENT_EVERY]:
        op[2] = QUADRATURE_FUNCTIONS[op[0]][2]
    return [tuple(op) for op in ops]


def mean_of_n_bases(seed):
    """Uniform(-1, 1) and Laplace(0, b) with b drawn from the seed."""
    b = _rng("laplace-scale", seed).uniform(0.5, 1.0)
    return [{"variant": "uniform", "lo": -1.0, "hi": 1.0},
            {"variant": "laplace", "mean": 0.0, "scale": b}]


def mean_of_n_round(rng, bases):
    """[(base descriptor, program seed), ...]: one sweep per base."""
    return [(base, rng.randrange(1, 2 ** 31)) for base in bases]


# ---------------------------------------------------------------------------
# CLI calls: (argv after `python -m jensengap.cli`, check spec)

def _bound(kind, fkey, dist, seed, **orders):
    argv = ["bound", "--kind", kind, "--function", json.dumps(FUNCTIONS[fkey]),
            "--dist", json.dumps(dist)]
    for name, val in orders.items():
        argv += [f"--{name}", json.dumps(val) if name == "terms" else repr(val)]
    argv += ["--format", "json", "--seed", str(seed)]
    return argv, {"call": "bound", "kind": kind, "function": FUNCTIONS[fkey], "dist": dist}


def _oracle(fkey, dist, seed):
    argv = ["oracle", "--function", json.dumps(FUNCTIONS[fkey]), "--dist", json.dumps(dist),
            "--format", "json", "--seed", str(seed)]
    return argv, {"call": "oracle", "function": FUNCTIONS[fkey], "dist": dist}


def _examples():
    # examples and tightness are deterministic and take no --seed flag
    return ["examples", "--format", "json"], {"call": "examples"}


def cli_round(rng):
    """Eight calls: each bound kind on one of the four distributions, the
    oracle, the catalog and two sharpness constructions."""
    s = lambda lo, hi: _log_uniform(rng, lo, hi)
    seed = lambda: rng.randrange(1, 2 ** 31)
    alpha, n = rng.choice([(2.0, 4.0), (1.0, 1.0), (3.0, 3.0), (2.0, 2.0)])
    sigma = s(0.1, 2.0)
    p = 10.0 ** rng.uniform(-4.0, -2.0)
    return [
        _bound("upper", "cos", _family("two_point", 0.0, s(0.1, 3.0)), seed(), alpha=2.0, n=2.0),
        _bound("lower", "square", _family("laplace", 0.0, s(0.1, 2.0)), seed(), alpha=2.0, beta=2.0),
        _bound("variance", "cos", _family("gaussian", 0.0, s(0.1, 2.0)), seed()),
        _bound("general_upper", "pow4", _family("uniform", 1.0, s(0.1, 2.0)), seed(),
               terms=[[2.0, 1.0], [4.0, 1.0]]),
        _oracle("abs15", _family("laplace", 0.0, s(0.1, 2.0)), seed()),
        _examples(),
        (["tightness", "--construction", "two_point", "--alpha", repr(alpha), "--n", repr(n),
          "--sigma", repr(sigma), "--format", "json"],
         {"call": "tightness_two_point", "alpha": alpha, "n": n, "sigma": sigma}),
        (["tightness", "--construction", "three_point", "--alpha", "2.0", "--beta", "1.0",
          "--n", "2.0", "--p", repr(p), "--sigma-n", "1.0", "--format", "json"],
         {"call": "tightness_three_point", "alpha": 2.0, "beta": 1.0, "n": 2.0, "p": p,
          "sigma_n": 1.0}),
    ]


def cli_side(rng):
    """Three calls: the traced side round of the in-process workloads."""
    return [
        _bound("general_upper", "pow4", _family("gaussian", 1.0, _log_uniform(rng, 0.1, 2.0)),
               rng.randrange(1, 2 ** 31), terms=[[2.0, 1.0], [4.0, 1.0]]),
        _examples(),
        _oracle("cos", _family("uniform", 0.0, _log_uniform(rng, 0.1, 3.0)),
                rng.randrange(1, 2 ** 31)),
    ]


# ---------------------------------------------------------------------------

KINDS = ("cli", "sandwich", "quadrature", "mean_of_n")
WORKLOAD_KIND = {"cli_cold": "cli", "sandwich": "sandwich",
                 "quadrature_gaps": "quadrature", "mean_of_n": "mean_of_n"}


def build(workload, seed):
    """Main rounds for the workload's own kind and one side round of every
    other kind: {"main": [round, ...], "side": {kind: round}}."""
    own = WORKLOAD_KIND[workload]
    bases = mean_of_n_bases(seed)
    out = {"main": [], "side": {}}
    for kind in KINDS:
        rng = _rng(kind, "main" if kind == own else "side", seed)
        if kind == "cli":
            make = cli_round if kind == own else cli_side
        elif kind == "sandwich":
            per = SANDWICH_DISTS_PER_FUNCTION if kind == own else 1
            make = lambda r, per=per: sandwich_round(r, per)
        elif kind == "quadrature":
            make = quadrature_round
        else:
            # the side sweep uses the uniform base alone
            use = bases if kind == own else bases[:1]
            make = lambda r, use=use: mean_of_n_round(r, use)
        if kind == own:
            out["main"] = [make(rng) for _ in range(MAIN_ROUNDS)]
        else:
            out["side"][kind] = make(rng)
    return out
