"""Small helpers for JSON-safe report serialization."""

import math


def encode_float(x):
    """Floats pass through; infinities become portable strings."""
    if x is None or isinstance(x, str):
        return x
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x
