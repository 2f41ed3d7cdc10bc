"""The benchmark's span tracer still finds every name it hooks.

``bench/trace.py`` wraps package functions and methods by name, and the
benchmark worker calls ``inf_ratio_lower`` with the sign as a positional
argument.  A rename or signature change that would break a traced benchmark
run fails here instead.
"""

import importlib
import importlib.util
import pathlib

import jensengap.cli  # noqa: F401  (the tracer hooks cli.main)
import jensengap.distributions as distributions
import jensengap.envelope as envelope
from jensengap.functions import GAP_ABOVE, linear_shift, make_function

TRACE_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_resolve():
    trace = _trace_module()
    for module, attr in trace.SPANNED:
        assert callable(getattr(importlib.import_module(f"jensengap.{module}"), attr)), (module, attr)
    for cls_name, attr, _ in trace.SPANNED_METHODS:
        assert attr in vars(getattr(distributions, cls_name)), (cls_name, attr)


def test_traced_positional_lower_envelope():
    trace = _trace_module()
    tracer = trace.Tracer()
    tracer.install()
    try:
        f = linear_shift(make_function("pow4", 1.0), 4.0)
        m = envelope.inf_ratio_lower(f, 2.0, 1.0, GAP_ABOVE)
    finally:
        tracer.uninstall()
    assert m.params == (("alpha", 2.0), ("beta", 1.0), ("sign", GAP_ABOVE))
    metrics = tracer.metrics()
    assert metrics["envelope.inf_ratio_lower.calls"][0] == 1
    assert metrics["envelope.probes"][0] == m.diag.probes
