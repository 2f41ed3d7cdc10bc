"""In-memory span tracer for the traced run.

``Tracer.install`` wraps the public functions of each jensengap module by
replacing the name in every jensengap module that holds it (``bounds``
imports ``curvature_envelope`` directly, for example), and the methods on
the distribution classes.  Each wrapped call records a span: name, start,
end, parent span and operation id.  ``uninstall`` puts the originals back,
so untraced work in the same process pays nothing.

Counts come from the same boundaries: envelope probes and refinements from
the returned ``SolverDiagnostics``, gap evaluations from ``GapEstimate``,
verdicts from ``VerifyResult``, and rule calls and points from the two
functions through which the package calls ``FunctionSpec.rule``
(``functions.evaluate`` and ``functions.eval_many``).
"""

import collections
import json
import sys
import time

# (module, function) pairs that get a span named "module.function".
SPANNED = [
    ("cli", "main"),
    ("catalog", "worked_example_rows"),
    ("envelope", "sup_ratio_upper"),
    ("envelope", "inf_ratio_lower"),
    ("envelope", "curvature_envelope"),
    ("envelope", "sup_ratio_general"),
    ("functions", "validate_growth"),
    ("functions", "select_shift_slope"),
    ("oracle", "jensen_gap"),
    ("oracle", "verify"),
    ("bounds", "upper_bound"),
    ("bounds", "variance_interval"),
    ("bounds", "lower_bound_cauchy_schwarz"),
    ("bounds", "general_bounds"),
    ("sweeps", "mean_of_n_sweep"),
]
# (class in jensengap.distributions, method, metric name)
SPANNED_METHODS = [("Distribution", "abs_central_moment", "distributions.abs_central_moment")] + [
    (cls, "sample", "distributions.sample")
    for cls in ("Discrete", "Empirical", "Gaussian", "Laplace", "Uniform", "MeanOfN")
]
SPAN_NAMES = sorted({f"{m}.{a}" for m, a in SPANNED} | {n for _, _, n in SPANNED_METHODS})
COUNTERS = [
    "envelope.probes", "envelope.refinements", "functions.rule_calls", "functions.rule_points",
    "oracle.gap_evals", "distributions.draws", "oracle.verify_pass",
    "oracle.verify_inconclusive",
]


def _diagnostics(result):
    return [c.diag for c in (result if isinstance(result, tuple) else (result,))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.op = None
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append((name, None, None, parent, self.op))
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(result, parent, args, kwargs)
            return result
        return wrapper

    def _after_envelope(self, result, parent, args, kwargs):
        for diag in _diagnostics(result):
            self.counts["envelope.probes"] += diag.probes
            self.counts["envelope.refinements"] += diag.refinements

    def _after_gap(self, result, parent, args, kwargs):
        self.counts["oracle.gap_evals"] += result.count

    def _after_verify(self, result, parent, args, kwargs):
        self.counts[f"oracle.verify_{result.verdict}"] += 1

    def _after_sample(self, result, parent, args, kwargs):
        # computed, not measured: draws = rows x n; a mean-of-N's inner base
        # draws are the same draws, so nested sample spans add nothing
        if parent is None or self.spans[parent][0] != "distributions.sample":
            self.counts["distributions.draws"] += len(result) * getattr(args[0], "n", 1)

    def _counted(self, fn, points):
        def wrapper(f, x):
            self.counts["functions.rule_calls"] += 1
            self.counts["functions.rule_points"] += points(x)
            return fn(f, x)
        return wrapper

    # -- wrapping ------------------------------------------------------------

    def _replace(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name == "jensengap" or name.startswith("jensengap."):
                for attr, val in list(vars(module).items()):
                    if val is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def install(self):
        mods = {name: sys.modules[f"jensengap.{name}"]
                for name in ("cli", "catalog", "envelope", "functions", "oracle", "bounds",
                             "sweeps", "distributions")}
        after = {"jensen_gap": self._after_gap, "verify": self._after_verify}
        for module, attr in SPANNED:
            fn = getattr(mods[module], attr)
            hook = self._after_envelope if module == "envelope" else after.get(attr)
            self._replace(fn, self._spanned(f"{module}.{attr}", fn, hook))
        for cls_name, attr, metric in SPANNED_METHODS:
            cls = getattr(mods["distributions"], cls_name)
            fn = cls.__dict__[attr]
            hook = self._after_sample if attr == "sample" else None
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._spanned(metric, fn, hook))
        functions = mods["functions"]
        self._replace(functions.evaluate, self._counted(functions.evaluate, lambda x: 1))
        self._replace(functions.eval_many,
                      self._counted(functions.eval_many, lambda x: len(x)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results -------------------------------------------------------------

    def metrics(self):
        """{metric: (value, unit)} with calls and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = collections.Counter()
        self_s = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        return out

    def inclusive_s(self, name):
        """Total span time of ``name``, counting its children."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
