"""Envelope constants: extrema of a function against power-law comparison curves.

Every bound in this package reduces to one number: the supremum or infimum of
``(f(x) - f(mu))`` divided (or multiplied) by a sum of powers of ``|x - mu|``.
This module computes those extrema with a shared probe-refine-extrapolate
solver and packages the result with enough context to audit it.

Extrema are located by a coarse scan over log-spaced offsets on each side of
the mean, golden-section refinement of the surviving brackets, and a limit
extrapolation at the two ends (``x -> mu`` and ``|x| -> inf``).  One scan
serves every extremum asked of the same ratio: ``curvature_envelope`` takes
its infimum and supremum from a single pass.  The brackets of both sides and
of every extremum are then refined in lockstep, as array operations, with
each bracket taking exactly the steps a scalar golden-section search would
take.  Probes whose ratio is indistinguishable from floating-point
cancellation noise are discarded before any of that happens; see
``functions.noise_floor``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditionViolationError,
    DegenerateEnvelopeError,
    InvalidParameterError,
    UnboundedEnvelopeError,
)
from .functions import (
    EPS,
    GAP_ABOVE,
    GAP_BELOW,
    MAX_OFFSET,
    MIN_OFFSET,
    GrowthDeclaration,
    eval_many,
    evaluate,
    noise_floor,
    select_shift_slope,
    validate_growth,
)
from .serialize import encode_float

DEFAULT_PROBES_PER_SIDE = 400
MAX_REFINE_ITERATIONS = 60
MAX_BRACKETS = 12
# Probes are kept only when the ratio clears the noise floor by this factor,
# which caps the relative rounding error a surviving probe can carry; 1e6
# leaves worst-case probe noise near 1e-8, comfortably under the accuracy
# target of the solver.
TRUST_FACTOR = 1e6
TIE_TOLERANCE = 1e-6
DIVERGENCE_FACTOR = 50.0
DIVERGENCE_DECADES = 3.0
DEGENERACY_TOLERANCE = 1e-12

INTERIOR = "interior"
AT_MU = "at_mu"
AT_INFINITY = "at_infinity"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SolverDiagnostics:
    """How hard the solver worked for one envelope constant."""

    probes: int
    refinements: int
    bracket_width: float

    def to_dict(self):
        return {
            "probes": self.probes,
            "refinements": self.refinements,
            "bracket_width": self.bracket_width,
        }


@dataclass(frozen=True)
class EnvelopeConstant:
    """One computed extremum, with where and how it was attained.

    ``location`` is ``"interior"`` for an extremum at a finite point away from
    the mean, ``"at_mu"`` when the extremum is the limit as ``x -> mu`` (then
    ``arg`` is the mean itself), and ``"at_infinity"`` for a limit or
    divergence at the far end (then ``arg`` is None).  ``f_label`` names the
    function the constant was solved for, so bounds built on it can say so.
    """

    value: float
    arg: float | None
    location: str
    role: str
    mu: float
    params: tuple
    validated: bool
    diag: SolverDiagnostics
    f_label: str = ""

    def to_dict(self):
        return {
            "value": encode_float(self.value),
            "arg": self.arg,
            "location": self.location,
            "role": self.role,
            "mu": self.mu,
            "params": {k: v for k, v in self.params},
            "validated": self.validated,
            "diag": self.diag.to_dict(),
        }


@dataclass(frozen=True)
class _Candidate:
    # Internal scoring record; w is the maximized quantity (sign-flipped for
    # infima), tie_offset and side_rank implement the reporting preference
    # for the attainment point closest to the mean, positive side first.
    w: float
    tie_offset: float
    side_rank: int
    arg: float | None
    location: str
    width: float = 0.0


def _sides(f, max_offset):
    out = []
    for sign in (+1.0, -1.0):
        reach = (f.domain.hi - f.mu) if sign > 0 else (f.mu - f.domain.lo)
        top = min(reach, max_offset)
        if top > MIN_OFFSET:
            out.append((sign, top, math.isinf(reach)))
    if not out:
        raise InvalidParameterError(
            "domain leaves no room on either side of the mean"
        )
    return out


def _diverges(offsets, w, at_start):
    """True when w climbs monotonically (one wobble allowed) toward one end.

    ``at_start`` selects the near-mean end of the arrays; otherwise the far
    end.  The climb must span DIVERGENCE_DECADES decades of offset and gain
    at least DIVERGENCE_FACTOR over the window.
    """
    if not at_start:
        offsets = offsets[::-1]
        w = w[::-1]
    if len(w) < 7:
        return False
    span = np.abs(np.log10(offsets / offsets[0]))
    j = int(np.searchsorted(span, DIVERGENCE_DECADES))
    if j >= len(w) or j < 6:
        return False
    head = w[: j + 1]
    if head[0] <= 0 or head[0] < np.max(head):
        return False
    wobbles = int(np.sum(head[:-1] < head[1:]))
    return head[0] >= DIVERGENCE_FACTOR * abs(head[j]) and wobbles <= j // 6


def _aitken(v1, v2, v3):
    """Delta-squared limit of a sequence converging like a power law.

    v3 is the term nearest the limit.  Falls back to v3 whenever the
    difference ratio is outside the contraction range where extrapolation
    is safe.
    """
    d1 = v2 - v1
    d2 = v3 - v2
    if d1 == 0.0 or abs(d2) <= 1e-13 * (abs(v3) + 1e-30):
        return v3
    rho = d2 / d1
    if not 0.0 < rho < 0.97:
        return v3
    return v3 + d2 * rho / (1.0 - rho)


def _climbs(v1, v2, v3):
    """True when samples nearing the mean rise by steps that do not shrink.

    v3 is the term nearest the mean.  A limit approached like a power law
    rises by shrinking steps; equal or growing steps mean a climb that is at
    least logarithmic, so no finite limit is in sight.  Steps within 1e-6 of
    the value are taken for noise.
    """
    d1 = v2 - v1
    d2 = v3 - v2
    return d2 >= d1 > 0.0 and d2 > 1e-6 * abs(v3)


def _golden_lockstep(w_at, lo, hi):
    """Maximize over many log-offset brackets [lo, hi] at once.

    Each bracket takes exactly the steps of a scalar golden-section search:
    the same probe arithmetic, the same stop rules and its own iteration
    count.  ``w_at(idx, t)`` returns the maximized quantity at log-offsets
    ``t`` for the brackets numbered ``idx``; every iteration makes one call
    for all brackets still running.  Returns arrays (t, w, width, iters).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    every = np.arange(len(lo))
    fc, fd = np.split(w_at(np.tile(every, 2), np.concatenate([c, d])), 2)
    iters = np.zeros(len(lo), dtype=int)
    while True:
        live = every[(hi - lo > 1e-10) & (iters < MAX_REFINE_ITERATIONS)]
        if not len(live):
            break
        left = fc[live] >= fd[live]
        lt, rt = live[left], live[~left]
        hi[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = hi[lt] - _GOLDEN * (hi[lt] - lo[lt])
        lo[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = lo[rt] + _GOLDEN * (hi[rt] - lo[rt])
        w_new = w_at(live, np.where(left, c[live], d[live]))
        fc[lt] = w_new[left]
        fd[rt] = w_new[~left]
        iters[live] += 1
    # np.where mirrors the scalar max(fc, fd), which keeps fc on ties.
    return np.where(fc >= fd, c, d), np.where(fd > fc, fd, fc), hi - lo, iters


def _side_candidates(f, t_off, w, side_sign, unbounded):
    """Limit and grid candidates of one side, plus the brackets to refine.

    Brackets come back as (lo, hi, slot) in log-offset, where ``slot`` is the
    place in the candidate list that the bracket's refined result takes, so
    the list keeps the order in which ties are broken.
    """
    candidates = []
    brackets = []
    side_rank = 0 if side_sign > 0 else 1

    # Limit samples a few grid steps apart extrapolate with a stronger
    # contraction ratio than adjacent ones, which keeps the probe noise
    # amplification of the delta-squared step near unity.
    stride = max(1, min(8, (len(w) - 1) // 2))

    near = (w[2 * stride], w[stride], w[0]) if len(w) >= 3 else None
    if _diverges(t_off, w, at_start=True) or (near is not None and _climbs(*near)):
        candidates.append(_Candidate(math.inf, 0.0, side_rank, None, AT_MU))
    elif near is not None:
        candidates.append(
            _Candidate(float(_aitken(*near)), 0.0, side_rank, f.mu, AT_MU)
        )
    if unbounded:
        if _diverges(t_off, w, at_start=False):
            candidates.append(
                _Candidate(math.inf, math.inf, side_rank, None, AT_INFINITY)
            )
        elif len(w) >= 3:
            limit = _aitken(w[-1 - 2 * stride], w[-1 - stride], w[-1])
            candidates.append(
                _Candidate(float(limit), math.inf, side_rank, None, AT_INFINITY)
            )

    is_peak = np.ones(len(w), dtype=bool)
    is_peak[1:] &= w[1:] >= w[:-1]
    is_peak[:-1] &= w[:-1] >= w[1:]
    order = np.nonzero(is_peak)[0]
    order = order[np.argsort(w[order])[::-1][:MAX_BRACKETS]]
    for i in order:
        # The grid value itself stays in as a candidate: golden section
        # never samples the bracket edges, so an extremum attained
        # exactly at a probed point (a domain endpoint, say) would
        # otherwise be lost.
        candidates.append(
            _Candidate(
                float(w[i]),
                float(t_off[i]),
                side_rank,
                f.mu + side_sign * float(t_off[i]),
                INTERIOR,
            )
        )
        lo = math.log(t_off[max(i - 1, 0)])
        hi = math.log(t_off[min(i + 1, len(w) - 1)])
        if hi - lo > 1e-12:
            brackets.append((lo, hi, len(candidates)))
            candidates.append(None)
    return candidates, brackets


def _optimize(f, ratio_on, directions, *, max_offset, probes_per_side, positivity):
    """Find the extrema of the ratio over the domain minus the mean.

    ratio_on(signs, offsets) must return (ratio, noise) arrays at
    ``mu + signs * offsets``, with ``signs`` a side sign per offset or one
    for all.  For each entry of ``directions`` the solver maximizes
    ``direction * ratio`` and returns one (value, chosen, diag, near_mu)
    tuple.  All directions share one probe scan per side, and every bracket
    of every direction is refined in one lockstep search.  With
    ``positivity`` set, any trusted probe with a non-positive ratio aborts
    the search, since the comparison curve has the wrong sign there.
    """
    candidates = [[] for _ in directions]
    probes = 0
    # one row per bracket: (direction index, side sign, lo, hi, slot)
    brackets = []

    for side_sign, top, unbounded in _sides(f, max_offset):
        offsets = np.geomspace(MIN_OFFSET, top, probes_per_side)
        ratio, noise = ratio_on(side_sign, offsets)
        probes += len(offsets)
        mask = np.abs(ratio) >= TRUST_FACTOR * noise
        t_off = offsets[mask]
        t_ratio = ratio[mask]
        if len(t_off) == 0:
            continue

        if positivity:
            bad = np.nonzero(t_ratio <= 0.0)[0]
            if len(bad):
                i = int(bad[np.argmin(t_ratio[bad])])
                x_bad = f.mu + side_sign * t_off[i]
                raise ConditionViolationError(
                    f"ratio has the wrong sign near x = {x_bad:.6g} "
                    f"(value {t_ratio[i]:.6g}); the declared gap direction "
                    "does not hold for this function"
                )

        for k, direction in enumerate(directions):
            found, side_brackets = _side_candidates(
                f, t_off, direction * t_ratio, side_sign, unbounded
            )
            base = len(candidates[k])
            candidates[k].extend(found)
            brackets.extend(
                (k, side_sign, lo, hi, base + slot) for lo, hi, slot in side_brackets
            )

    refinements = [0] * len(directions)
    if brackets:
        b_dir, b_sign, b_lo, b_hi, _ = (np.array(col) for col in zip(*brackets))
        b_dir = np.asarray(directions, dtype=float)[b_dir]

        def w_at(idx, t):
            # math.exp per element, not np.exp: the two differ by an ulp on
            # some inputs, which would move the refined attainment points.
            offsets = np.array([math.exp(v) for v in t])
            ratio, _ = ratio_on(b_sign[idx], offsets)
            return b_dir[idx] * ratio

        t_best, w_best, width, iters = _golden_lockstep(w_at, b_lo, b_hi)
        for j, (k, side_sign, _, _, slot) in enumerate(brackets):
            refinements[k] += int(iters[j])
            off_best = math.exp(t_best[j])
            candidates[k][slot] = _Candidate(
                float(w_best[j]),
                off_best,
                0 if side_sign > 0 else 1,
                f.mu + side_sign * off_best,
                INTERIOR,
                float(width[j]),
            )

    if not any(candidates):
        raise DegenerateEnvelopeError(
            "no probe rose above the floating-point noise floor; the ratio "
            "is numerically indistinguishable from zero everywhere"
        )
    return [
        _choose(direction, found, probes, spent)
        for direction, found, spent in zip(directions, candidates, refinements)
    ]


def _choose(direction, candidates, probes, refinements):
    """Best candidate, preferring the attainment point closest to the mean."""
    w_best = max(c.w for c in candidates)
    if math.isinf(w_best):
        tied = [c for c in candidates if math.isinf(c.w)]
    else:
        tol = max(TIE_TOLERANCE * abs(w_best), 1e-12)
        tied = [c for c in candidates if c.w >= w_best - tol]
    tied.sort(key=lambda c: (c.tie_offset, c.side_rank))
    chosen = tied[0]
    diag = SolverDiagnostics(probes, refinements, chosen.width)
    near_mu = max(
        (abs(c.w) for c in candidates if c.location == AT_MU and math.isfinite(c.w)),
        default=0.0,
    )
    return float(direction * w_best), chosen, diag, float(near_mu)


def _term_sum(offsets, terms, invert):
    total = np.zeros_like(offsets)
    for eta, a in terms:
        total = total + a * offsets ** (-eta if invert else eta)
    return total


def _offset_cap(terms):
    # Keep |x-mu|^eta representable for the largest exponent in play.
    top = max(abs(eta) for eta, _ in terms)
    return min(MAX_OFFSET, 10.0 ** (280.0 / max(top, 1.0)))


def check_terms(terms):
    if not terms:
        raise InvalidParameterError("need at least one comparison term")
    cleaned = []
    seen = set()
    for eta, a in terms:
        eta = float(eta)
        a = float(a)
        if not math.isfinite(eta) or eta < 0:
            raise InvalidParameterError(f"exponent {eta} must be finite and >= 0")
        if not math.isfinite(a) or a <= 0:
            raise InvalidParameterError(f"coefficient {a} must be finite and > 0")
        if eta in seen:
            raise InvalidParameterError(f"duplicate exponent {eta}")
        seen.add(eta)
        cleaned.append((eta, a))
    return tuple(sorted(cleaned))


def _sup_of_abs_ratio(f, terms, *, role, params, validated, probes_per_side):
    """sup over x != mu of |f(x) - f(mu)| / sum_eta a_eta |x - mu|^eta."""
    fmu = evaluate(f, f.mu)

    def ratio_on(signs, offsets):
        xs = f.mu + signs * offsets
        fx = eval_many(f, xs)
        den = _term_sum(offsets, terms, invert=False)
        return np.abs(fx - fmu) / den, noise_floor(fx, fmu) / den

    [(value, chosen, diag, _)] = _optimize(
        f,
        ratio_on,
        (+1.0,),
        max_offset=_offset_cap(terms),
        probes_per_side=probes_per_side,
        positivity=False,
    )
    if math.isinf(value):
        raise UnboundedEnvelopeError(
            f"|f - f(mu)| outgrows the comparison curve ({chosen.location}); "
            "no finite constant exists for these exponents"
        )
    return EnvelopeConstant(
        value, chosen.arg, chosen.location, role, f.mu, params, validated, diag,
        f.label,
    )


def _inf_of_signed_ratio(f, terms, sign, *, role, params, validated, probes_per_side):
    """inf over x != mu of the signed deviation times sum_eta a_eta |x-mu|^-eta.

    The comparison curve here is the harmonic form 1 / sum a |x-mu|^-eta, so
    dividing by it means multiplying by the sum.
    """
    fmu = evaluate(f, f.mu)
    flip = -1.0 if sign == GAP_BELOW else 1.0

    def ratio_on(signs, offsets):
        xs = f.mu + signs * offsets
        fx = eval_many(f, xs)
        mult = _term_sum(offsets, terms, invert=True)
        return flip * (fx - fmu) * mult, noise_floor(fx, fmu) * mult

    [(value, chosen, diag, near_mu)] = _optimize(
        f,
        ratio_on,
        (-1.0,),
        max_offset=_offset_cap(terms),
        probes_per_side=probes_per_side,
        positivity=True,
    )
    if value <= DEGENERACY_TOLERANCE * max(near_mu, 1.0):
        raise DegenerateEnvelopeError(
            f"infimum {value:.3g} is indistinguishable from zero; the "
            "resulting lower bound would be vacuous"
        )
    return EnvelopeConstant(
        value, chosen.arg, chosen.location, role, f.mu, params, validated, diag,
        f.label,
    )


def sup_ratio_upper(f, alpha, n, *, validate=True,
                    probes_per_side=DEFAULT_PROBES_PER_SIDE):
    """Smallest M with |f(x) - f(mu)| <= M (|x-mu|^alpha + |x-mu|^n).

    With ``validate`` the declared growth is first checked empirically:
    f - f(mu) must be O(|x-mu|^alpha) near the mean and O(|x-mu|^n) far
    away, otherwise no finite M exists and the check reports where the
    ratio escapes.
    """
    decl = GrowthDeclaration("upper", alpha=float(alpha), n=float(n))
    validated = False
    if validate:
        report = validate_growth(f, decl)
        if not report.passed:
            raise UnboundedEnvelopeError(report.message)
        validated = True
    terms = ((float(alpha), 1.0), (float(n), 1.0))
    params = (("alpha", float(alpha)), ("n", float(n)))
    return _sup_of_abs_ratio(
        f, terms, role="upper_sup", params=params, validated=validated,
        probes_per_side=probes_per_side,
    )


def inf_ratio_lower(f, alpha, beta, sign=GAP_ABOVE, *, validate=True,
                    probes_per_side=DEFAULT_PROBES_PER_SIDE):
    """Largest M with the signed deviation >= M / (|x-mu|^-beta + |x-mu|^-alpha).

    ``sign`` declares the gap direction: with ``gap_above`` the deviation is
    f(x) - f(mu) (convex-like case), with ``gap_below`` it is f(mu) - f(x).
    A trusted probe of the wrong sign raises ConditionViolationError; an
    infimum indistinguishable from zero raises DegenerateEnvelopeError.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not 0.0 <= beta <= alpha or alpha <= 0:
        raise InvalidParameterError(
            f"need 0 <= beta <= alpha with alpha > 0, got beta={beta} alpha={alpha}"
        )
    if sign not in (GAP_ABOVE, GAP_BELOW):
        raise InvalidParameterError(f"unknown gap sign {sign!r}")
    decl = GrowthDeclaration("lower", alpha=alpha, beta=beta, sign=sign)
    validated = False
    if validate:
        report = validate_growth(f, decl)
        if not report.passed:
            raise ConditionViolationError(report.message)
        validated = True
    if beta == alpha:
        # |t|^-beta + |t|^-alpha collapses to 2 |t|^-alpha.
        terms = ((alpha, 2.0),)
    else:
        terms = ((beta, 1.0), (alpha, 1.0))
    params = (("alpha", alpha), ("beta", beta), ("sign", sign))
    return _inf_of_signed_ratio(
        f, terms, sign, role="lower_inf", params=params, validated=validated,
        probes_per_side=probes_per_side,
    )


def curvature_envelope(f, *, probes_per_side=DEFAULT_PROBES_PER_SIDE):
    """Extrema of h(x) = (f(x) - f(mu) - f'(mu)(x - mu)) / (x - mu)^2.

    Returns (inf_constant, sup_constant).  Either side may legitimately be
    infinite; that is reported as a value of +/-inf with the escape location,
    not as an error, since the other side can still give a one-sided bound.
    """
    slope = select_shift_slope(f)
    fmu = evaluate(f, f.mu)

    def ratio_on(signs, offsets):
        xs = f.mu + signs * offsets
        fx = eval_many(f, xs)
        num = fx - fmu - slope * signs * offsets
        noise = noise_floor(fx, fmu) + 16.0 * EPS * abs(slope) * offsets
        den = offsets ** 2
        return num / den, noise / den

    solved = _optimize(
        f,
        ratio_on,
        (-1.0, +1.0),
        max_offset=_offset_cap(((2.0, 1.0),)),
        probes_per_side=probes_per_side,
        positivity=False,
    )
    params = (("slope", float(slope)),)
    return tuple(
        EnvelopeConstant(
            value, chosen.arg, chosen.location, role, f.mu, params, True, diag,
            f.label,
        )
        for role, (value, chosen, diag, _) in zip(
            ("curvature_inf", "curvature_sup"), solved
        )
    )


def sup_ratio_general(f, terms, mode, sign=GAP_ABOVE, *, validate=True,
                      probes_per_side=DEFAULT_PROBES_PER_SIDE):
    """Envelope constant against a user-supplied power sum.

    ``terms`` is a sequence of (exponent, coefficient) pairs defining
    t(x) = sum a_eta |x - mu|^eta.  With mode "sup" this returns
    sup |f - f(mu)| / t; with mode "inf" the comparison curve is the
    harmonic form 1 / sum a_eta |x - mu|^-eta and the signed infimum is
    returned, exactly as in the two specialized operations.
    """
    terms = check_terms(terms)
    etas = [eta for eta, _ in terms]
    params = tuple(
        [("terms", tuple(terms)), ("mode", mode)]
        + ([("sign", sign)] if mode == "inf" else [])
    )
    if mode == "sup":
        if min(etas) <= 0:
            raise InvalidParameterError("sup mode needs strictly positive exponents")
        decl = GrowthDeclaration("upper", alpha=min(etas), n=max(etas))
        validated = False
        if validate:
            report = validate_growth(f, decl)
            if not report.passed:
                raise UnboundedEnvelopeError(report.message)
            validated = True
        return _sup_of_abs_ratio(
            f, terms, role="general_sup", params=params, validated=validated,
            probes_per_side=probes_per_side,
        )
    if mode == "inf":
        if sign not in (GAP_ABOVE, GAP_BELOW):
            raise InvalidParameterError(f"unknown gap sign {sign!r}")
        decl = GrowthDeclaration(
            "lower", alpha=max(etas), beta=min(etas), sign=sign
        )
        validated = False
        if validate:
            report = validate_growth(f, decl)
            if not report.passed:
                raise ConditionViolationError(report.message)
            validated = True
        return _inf_of_signed_ratio(
            f, terms, sign, role="general_inf", params=params, validated=validated,
            probes_per_side=probes_per_side,
        )
    raise InvalidParameterError(f"mode must be 'sup' or 'inf', got {mode!r}")
