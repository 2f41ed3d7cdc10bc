"""Moment bounds on the Jensen gap E[f(X)] - f(E[X]), with verification.

The pieces compose in one direction: describe a function and a
distribution, solve for the envelope constant of a comparison curve, turn
moments into a bound, and check the bound against a direct estimate of the
gap itself.
"""

import types

from .bounds import (
    BoundReport,
    general_bounds,
    lower_bound_cauchy_schwarz,
    lower_bound_holder,
    lower_bound_holder_single,
    upper_bound,
    valid_holder_q,
    variance_interval,
)
from .catalog import worked_example_rows
from .distributions import (
    Discrete,
    Distribution,
    Empirical,
    Gaussian,
    Laplace,
    MeanOfN,
    Uniform,
    distribution_from_dict,
    mean_of_n,
    symmetric_outlier,
    three_point,
    two_point,
)
from .envelope import (
    EnvelopeConstant,
    curvature_envelope,
    inf_ratio_lower,
    sup_ratio_general,
    sup_ratio_upper,
)
from .errors import (
    ConditionViolationError,
    DegenerateEnvelopeError,
    DerivativeEstimateError,
    DomainError,
    EvaluationError,
    InvalidParameterError,
    JensenGapError,
    UnboundedEnvelopeError,
)
from .functions import (
    GAP_ABOVE,
    GAP_BELOW,
    FunctionSpec,
    Interval,
    custom_function,
    function_from_dict,
    linear_shift,
    make_function,
    select_shift_slope,
)
from .oracle import GapEstimate, VerifyResult, jensen_gap, verify
from .sweeps import fit_loglog_slope, mean_of_n_sweep, two_point_sweep
from .tightness import (
    decay_exponent,
    outlier_ratio_sequence,
    outlier_witness,
    three_point_gap_ratio,
    three_point_gap_ratio_closed_form,
    two_point_equality,
)

__version__ = "0.1.0"

# every public name bound above, submodules aside
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
