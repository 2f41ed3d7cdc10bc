"""Worker process: import jensengap, build the inputs of a workload, run them.

Started by ``run.py`` with one JSON argument holding ``workload``,
``seed``, ``role`` and ``seconds``.  Set-up ends when the inputs are built;
the worker reports the CPU time it has used by then, interpreter start-up
and imports included.  Roles:

- ``setup``: stop there;
- ``main``: run whole rounds of the workload's own kind for ``seconds``,
  checking every output, and report each round's CPU time and units;
- ``trace``: run the own kind untraced for half of ``seconds``, the same
  rounds again under the tracer, then one traced side round of every other
  kind (CLI calls through ``cli.main`` in this process), and report
  per-layer metrics.

The last line of standard output is one JSON object with the results.
Times are process CPU time (see README.md for why).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time

from jensengap import bounds, cli, distributions, envelope, functions, oracle, sweeps

import checks
import inputs
import reference
import trace

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _flat(f):
    return functions.linear_shift(f, functions.select_shift_slope(f))


class Kind:
    """Operations of one kind: counts, check results and per-step CPU times.

    Each timed step (an operation, or an envelope solve that several share)
    is recorded as ``[CPU seconds, units]``; units are the operations that
    ``cpu_ms_per_op`` counts, and ``rounds`` sums both per round.  Program calls are
    timed, checks against the references are not.  ``outputs`` hashes every
    step's outputs so that a traced run can show it computed the same; the
    digest covers the first round only, so it is the same for a given seed
    however many rounds a run completes.
    """

    def __init__(self, data, tracer=None):
        self.data = data
        self.tracer = tracer
        self.ops = 0
        self.failed = 0
        self.problems = []
        self.errors = []
        self.round = 0
        self.steps = []
        self.rounds = []
        self._outputs = hashlib.sha256()
        self._digest = hashlib.sha256()

    def timed(self, units, compute, *args):
        start = time.process_time()
        out = compute(*args)
        self.steps.append([time.process_time() - start, units])
        self._outputs.update(repr(out).encode())
        return out

    def fail(self, exc, count=1):
        self.ops += count
        self.failed += count
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def op(self, units, compute, check, *args):
        """One operation; an exception from the program counts it failed."""
        if self.tracer is not None:
            self.tracer.op = self.ops
        try:
            out = self.timed(units, compute, *args)
        except Exception as exc:  # the run goes on; failures are counted
            self.fail(exc)
            return
        self.ops += 1
        check(out, *args)

    def record(self, obj):
        if self.round == 0:
            self._digest.update(json.dumps(obj, sort_keys=True).encode())

    def digest(self):
        return self._digest.hexdigest()

    def outputs(self):
        return self._outputs.hexdigest()

    def run(self, rounds, seconds=0.0, count=1):
        """At least ``count`` whole rounds, then more until ``seconds`` of
        wall time pass; ``cpu_s`` is the CPU time they took, checks
        included."""
        start, cpu = time.perf_counter(), time.process_time()
        self.round = 0
        while self.round < count or time.perf_counter() - start < seconds:
            first = len(self.steps)
            self.run_round(rounds[self.round % len(rounds)])
            done = self.steps[first:]
            self.rounds.append([math.fsum(t for t, _ in done), sum(u for _, u in done)])
            self.round += 1
        self.cpu_s = time.process_time() - cpu
        self.wall_s = time.perf_counter() - start
        return self.round

    def finish(self):
        """Checks that need more program calls; untimed and untraced."""


class Sandwich(Kind):
    """Criterion-2 checks: upper, variance and Cauchy-Schwarz bounds against
    the oracle gap, with the envelopes solved once per function per round.
    A unit is one bound-versus-gap check (a report verified)."""

    def run_round(self, rnd):
        for index, dists in rnd:
            try:
                envs = self.timed(0, self._envelopes, index)
            except Exception as exc:  # every distribution of the function fails
                self.fail(exc, len(dists))
                continue
            checks = 3 if inputs.SANDWICH_POOL[index][3] else 2
            for desc, dist in dists:
                self.op(checks, self._compute, self._check, index, envs, desc, dist)

    def _envelopes(self, index):
        _, _, upper, lower, sign, _ = inputs.SANDWICH_POOL[index]
        f = self.data.sandwich_funcs[index]
        return (envelope.sup_ratio_upper(f, *upper),
                lower and envelope.inf_ratio_lower(f, *lower, sign))

    def _compute(self, index, envs, desc, dist):
        _, _, upper, lower, _, _ = inputs.SANDWICH_POOL[index]
        f = self.data.sandwich_funcs[index]
        reports = [bounds.upper_bound(envs[0], dist, *upper), bounds.variance_interval(f, dist)]
        if lower:
            reports.append(bounds.lower_bound_cauchy_schwarz(envs[1], dist, *lower))
        gap = oracle.jensen_gap(f, dist)
        return reports, gap, [oracle.verify(rep, gap) for rep in reports]

    def _check(self, out, index, envs, desc, dist):
        reports, gap, verdicts = out
        key = inputs.SANDWICH_POOL[index][0]
        ref = reference.gap(inputs.FUNCTIONS[key], desc)
        what = f"{key} on {desc}"
        self.problems += checks.estimate(f"gap of {what}", ref, gap.value, gap.abs_error)
        for rep, v in zip(reports, verdicts):
            self.problems += checks.bound(rep.kind, ref, rep.value,
                                          gap.abs_error + rep.uncertainty,
                                          dict(rep.params).get("sign"))
            self.problems += checks.verdict(f"{rep.kind} of {what}", v.verdict)
        self.record([gap.value, gap.abs_error, [r.value for r in reports],
                     [v.verdict for v in verdicts]])


class Quadrature(Kind):
    """Quadrature gaps over a spread grid; every fourth operation also takes
    a moment by quadrature.  The envelopes are solved once per process and
    not timed: as a share of a run their cost would fall as the host speeds
    up and more rounds fit.  A unit is one gap."""

    def run_round(self, rnd):
        if self.round == 0:
            try:
                self.envs = self._envelopes()
            except Exception as exc:  # every operation of the round fails
                self.fail(exc, len(rnd))
                return
        for op in rnd:
            self.op(1, self._compute, self._check, *op)

    def _envelopes(self):
        return [envelope.sup_ratio_upper(f, *orders) for f, (_, orders, _) in
                zip(self.data.quadrature_funcs, inputs.QUADRATURE_FUNCTIONS)]

    def _compute(self, index, desc, dist, p):
        _, (alpha, n), _ = inputs.QUADRATURE_FUNCTIONS[index]
        gap = oracle.jensen_gap(self.data.quadrature_funcs[index], dist)
        rep = bounds.upper_bound(self.envs[index], dist, alpha, n)
        moment = None if p is None else dist.abs_central_moment(p, method="quadrature")
        return gap, rep, oracle.verify(rep, gap), moment

    def _check(self, out, index, desc, dist, p):
        gap, rep, v, moment = out
        key = inputs.QUADRATURE_FUNCTIONS[index][0]
        ref = reference.gap(inputs.FUNCTIONS[key], desc)
        what = f"{key} on {desc}"
        self.problems += (checks.estimate(f"gap of {what}", ref, gap.value, gap.abs_error)
                          + checks.bound(rep.kind, ref, rep.value,
                                         gap.abs_error + rep.uncertainty)
                          + checks.verdict(what, v.verdict))
        record = [gap.value, gap.abs_error, rep.value, v.verdict]
        if moment is not None:
            self.problems += checks.estimate(f"E|X-mu|^{p} of {desc}",
                                             reference.abs_moment(desc, p),
                                             moment.sigma_p_pow, moment.abs_error_estimate)
            record.append(moment.sigma_p_pow)
        self.record(record)


class MeanOfN(Kind):
    """mean_of_n_sweep of cos at 100,000 samples; the upper bounds are
    re-derived with their uncertainty in ``finish``.  A unit is one sweep."""

    def __init__(self, data, tracer=None):
        super().__init__(data, tracer)
        self.done = []

    def run_round(self, rnd):
        for desc, base, seed in rnd:
            self.op(1, self._compute, self._check, desc, base, seed)

    def _compute(self, desc, base, seed):
        return sweeps.mean_of_n_sweep(self.data.cos, base, inputs.MEAN_OF_N_GRID,
                                      samples=inputs.MEAN_OF_N_SAMPLES, seed=seed)

    def _check(self, res, desc, base, seed):
        self.problems += checks.slope(f"sweep on {desc}", res["gap_slope"])
        for row in res["rows"]:
            ref = reference.gap(inputs.FUNCTIONS["cos"],
                                {"variant": "mean_of_n", "base": desc, "n": row["n"]})
            self.problems += checks.estimate(f"gap at N={row['n']} on {desc}", ref,
                                             row["gap"], row["gap_error"])
        if self.round == 0:
            self.done.append((desc, base, seed, res))
        self.record([res["gap_slope"], res["rows"]])

    def finish(self):
        """Re-derive the first round's upper bounds: each costs about as much
        as a sweep, so all rounds would double a run."""
        m = envelope.sup_ratio_upper(self.data.cos, 2.0, 2.0)
        if not math.isclose(m.value, reference.COS_UPPER_M, rel_tol=reference.CATALOG_REL_TOL):
            self.problems.append(f"cos envelope {m.value!r} vs {reference.COS_UPPER_M}")
        for desc, base, seed, res in self.done:
            for row in res["rows"]:
                mdesc = {"variant": "mean_of_n", "base": desc, "n": row["n"]}
                rep = bounds.upper_bound(m, distributions.mean_of_n(base, row["n"]), 2.0, 2.0,
                                         seed=seed, samples=inputs.MEAN_OF_N_SAMPLES)
                if rep.value != row["upper"]:
                    self.problems.append(f"sweep upper {row['upper']!r} is not reproduced "
                                         f"({rep.value!r}) on {mdesc}")
                m2 = rep.moments_used[0]
                self.problems += (
                    checks.bound("upper", reference.gap(inputs.FUNCTIONS["cos"], mdesc),
                                 row["upper"], row["gap_error"] + rep.uncertainty)
                    + checks.estimate(f"sigma_2^2 of {mdesc}", reference.abs_moment(mdesc, 2.0),
                                      m2.sigma_p_pow, m2.abs_error_estimate))


class Cli(Kind):
    """CLI calls through ``cli.main`` in this process (traced run only)."""

    def run_round(self, rnd):
        for argv, spec in rnd:
            self.op(1, self._compute, self._check, argv, spec)

    def _compute(self, argv, spec):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"jensengap {' '.join(argv[:3])} exited with {code}")
        return buf.getvalue()

    def _check(self, text, argv, spec):
        self.record(text)
        self.problems += checks.cli_payload(spec, json.loads(text))


KINDS = {"cli": Cli, "sandwich": Sandwich, "quadrature": Quadrature, "mean_of_n": MeanOfN}


class Data:
    """The workload's descriptors and the program objects built from them."""

    def __init__(self, workload, seed):
        raw = inputs.build(workload, seed)
        own = inputs.WORKLOAD_KIND[workload]
        to_dist = lambda d: (d, distributions.distribution_from_dict(d))
        to_func = lambda key: functions.function_from_dict(inputs.FUNCTIONS[key])
        self.sandwich_funcs = [_flat(to_func(key)) if flat else to_func(key)
                               for key, flat, *_ in inputs.SANDWICH_POOL]
        self.quadrature_funcs = [to_func(key) for key, *_ in inputs.QUADRATURE_FUNCTIONS]
        self.cos = to_func("cos")
        build = {
            "cli": lambda rnd: rnd,
            "sandwich": lambda rnd: [(i, [to_dist(d) for d in ds]) for i, ds in rnd],
            "quadrature": lambda rnd: [(i, *to_dist(d), p) for i, d, p in rnd],
            "mean_of_n": lambda rnd: [(*to_dist(d), s) for d, s in rnd],
        }
        self.own = own
        self.main = [build[own](rnd) for rnd in raw["main"]]
        self.side = {kind: build[kind](rnd) for kind, rnd in raw["side"].items()}


def _summary(kinds):
    return {
        "ops": sum(k.ops for k in kinds),
        "failed": sum(k.failed for k in kinds),
        "problems": [p for k in kinds for p in k.problems],
        "errors": [e for k in kinds for e in k.errors],
    }


def trace_run(data, workload, seed, seconds):
    untraced = KINDS[data.own](data)
    count = untraced.run(data.main, seconds / 2.0)
    tracer = trace.Tracer()
    traced = KINDS[data.own](data, tracer)
    side = [KINDS[kind](data, tracer) for kind in data.side]
    tracer.install()
    try:
        traced.run(data.main, count=count)
        variance_s = tracer.inclusive_s("bounds.variance_interval")
        for kind, rnd in zip(side, data.side.values()):
            kind.run([rnd])
    finally:
        tracer.uninstall()
    kinds = [untraced, traced] + side
    for k in kinds:
        k.finish()
    out = _summary(kinds)
    if traced.outputs() != untraced.outputs():
        out["problems"].append("traced outputs differ from untraced outputs")
    metrics = tracer.metrics()
    overhead = traced.cpu_s - untraced.cpu_s
    metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced.cpu_s, "%")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    out["metrics"] = metrics
    out["digest"] = untraced.digest()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl"))
    # share of the traced own-kind rounds spent in variance_interval, children included
    out["variance_interval_share"] = variance_s / traced.wall_s
    return out


def main():
    args = json.loads(sys.argv[1])
    data = Data(args["workload"], args["seed"])
    out = {"setup_s": time.process_time()}
    role = args["role"]
    if role == "main":
        kind = KINDS[data.own](data)
        kind.run(data.main, args["seconds"])
        kind.finish()
        out.update(_summary([kind]), rounds=kind.rounds, digest=kind.digest())
    elif role == "trace":
        out.update(trace_run(data, args["workload"], args["seed"], args["seconds"]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
