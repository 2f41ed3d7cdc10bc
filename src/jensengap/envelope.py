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
``noise_floor``.

The same scan screens the declared growth of the upper and lower envelopes,
before any refinement: a ratio that climbs without bound toward the mean or
an infinite end rejects an upper declaration (``UnboundedEnvelopeError``),
and a probe of the wrong sign or a ratio that decays to zero rejects a lower
one (``ConditionViolationError``).  The screen is a heuristic on the probes,
not a proof.
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
    GrowthDeclaration,
    eval_many,
    evaluate,
    select_shift_slope,
)
from .serialize import encode_float

# Probe layout: DEFAULT_PROBES_PER_SIDE log-spaced offsets |x - mu| per side,
# from MIN_OFFSET up to MAX_OFFSET or the end of the domain.
MIN_OFFSET = 1e-8
MAX_OFFSET = 1e8
DEFAULT_PROBES_PER_SIDE = 400
MAX_REFINE_ITERATIONS = 60
MAX_BRACKETS = 12
# Probes are kept only when the ratio clears the noise floor by this factor,
# which caps the relative rounding error a surviving probe can carry; 1e6
# leaves worst-case probe noise near 1e-8, comfortably under the accuracy
# target of the solver.
TRUST_FACTOR = 1e6
# The growth screen judges every probe whose ratio clears the noise floor by
# this lower factor, since one probe of the wrong sign voids a lower
# declaration and a climb or decay shows from as near the mean as the noise
# allows.  It reads them one per SCREEN_STEP decades, where an oscillating
# ratio shows its trend rather than its wiggles.
SCREEN_TRUST_FACTOR = 100.0
SCREEN_STEP = 0.5
TIE_TOLERANCE = 1e-6
DIVERGENCE_FACTOR = 50.0
# (decades, least climb over the quarter of the window nearest the end).  A
# fast climb shows within three decades; a slow one, such as |x|^0.5, within
# six, but only while the probes nearest the end still rise: a profile that
# levels off at the end has converged however far it fell further out.
DIVERGENCE_WINDOWS = ((3.0, 0.0), (6.0, 2.0))
DEGENERACY_TOLERANCE = 1e-12

INTERIOR = "interior"
AT_MU = "at_mu"
AT_INFINITY = "at_infinity"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def noise_floor(fx, fmu):
    """Absolute rounding-noise scale for the difference f(x) - f(mu).

    Deliberately conservative: evaluation of f near mu loses the leading
    digits of the difference to cancellation, and a black-box rule gives us
    no better handle than the magnitudes involved.
    """
    return 16.0 * EPS * (np.abs(fx) + abs(fmu) + 1.0)


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


# The growth screen's verdicts, by declared role: the error raised and the
# reason given for each end of a side the ratio escapes toward.
_ESCAPES = {
    "upper": (UnboundedEnvelopeError, {
        AT_MU: "ratio climbs unboundedly toward mu; alpha is too large",
        AT_INFINITY: "ratio climbs unboundedly toward infinity; n is too small",
    }),
    "lower": (ConditionViolationError, {
        AT_MU: "ratio decays toward zero at mu; alpha is too small",
        AT_INFINITY: "ratio decays toward zero at infinity; beta is too large",
    }),
}


def _sides(f, max_offset, screen):
    out = []
    for sign in (+1.0, -1.0):
        reach = (f.domain.hi - f.mu) if sign > 0 else (f.mu - f.domain.lo)
        top = min(reach, max_offset)
        if top > MIN_OFFSET:
            out.append((sign, top, math.isinf(reach)))
    if not out:
        error = _ESCAPES[screen][0] if screen else InvalidParameterError
        raise error("domain leaves no room on either side of the mean")
    return out


def _diverges(offsets, w, at_start, step=0.0):
    """True when w climbs monotonically (a wobble per six probes allowed)
    toward one end.

    ``at_start`` selects the near-mean end of the arrays; otherwise the far
    end.  The climb must gain at least DIVERGENCE_FACTOR over one of the
    DIVERGENCE_WINDOWS, spanning that many decades of offset.  A positive
    ``step`` first thins the probes to one per ``step`` decades from that
    end, so an oscillating climb is judged by its trend, not its wiggles.
    """
    if not at_start:
        offsets = offsets[::-1]
        w = w[::-1]
    if len(w) < 7 or w[0] <= 0:
        return False
    span = np.abs(np.log10(offsets / offsets[0]))
    if step:
        keep = np.searchsorted(span, np.arange(0.0, span[-1], step))
        keep = keep[np.diff(keep, prepend=-1) > 0]
        span = span[keep]
        w = w[keep]
    for decades, head_climb in DIVERGENCE_WINDOWS:
        j = int(np.searchsorted(span, decades))
        if j >= len(w):
            return False
        head = w[: j + 1]
        if (j >= 6 and head[0] >= DIVERGENCE_FACTOR * abs(head[j])
                and head[0] > head_climb * head[np.searchsorted(span, decades / 4.0)]
                and head[0] >= head.max()
                and np.count_nonzero(head[:-1] < head[1:]) <= j // 6):
            return True
    return False


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
    """Limit and grid candidates of one side, plus the brackets to refine,
    as (lo, hi) in log-offset."""
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
            brackets.append((lo, hi))
    return candidates, brackets


def _optimize(f, ratio_on, directions, *, max_offset, screen=None):
    """Find the extrema of the ratio over the domain minus the mean.

    ratio_on(signs, offsets) must return (ratio, noise) arrays at
    ``mu + signs * offsets``, with ``signs`` a side sign per offset or one
    for all.  For each entry of ``directions`` the solver maximizes
    ``direction * ratio`` and returns one (value, chosen, diag, near_mu)
    tuple.  All directions share one probe scan per side, and every bracket
    of every direction is refined in one lockstep search.

    ``screen`` names the declared growth the scan checks before any
    refinement.  "upper" rejects a ratio that climbs without bound toward
    the mean or an infinite end; "lower" rejects a probe of the wrong sign,
    no trusted probe at all, or a ratio that decays to zero.  When both
    ends fail, the far end and then the left side name the failure.
    """
    candidates = [[] for _ in directions]
    probes = 0
    # one row per bracket: (direction index, side sign, lo, hi)
    brackets = []
    escape = None

    for side_sign, top, unbounded in _sides(f, max_offset, screen):
        offsets = np.geomspace(MIN_OFFSET, top, DEFAULT_PROBES_PER_SIDE)
        ratio, noise = ratio_on(side_sign, offsets)
        probes += len(offsets)
        if screen:
            # the screen judges every probe clear of the noise by
            # SCREEN_TRUST_FACTOR; the solver's values need TRUST_FACTOR
            seen = np.abs(ratio) >= SCREEN_TRUST_FACTOR * noise
            if screen == "lower" and np.any(seen & (ratio < 0.0)):
                raise ConditionViolationError(
                    "sign violation: the declared gap direction fails at this probe"
                )
            # a lower ratio escapes by decaying, that is when 1 / ratio climbs
            climb = ratio[seen] if screen == "upper" else 1.0 / ratio[seen]
            for location, at_start in ((AT_MU, True), (AT_INFINITY, False)):
                if ((at_start or unbounded)
                        and _diverges(offsets[seen], climb, at_start, SCREEN_STEP)):
                    escape = location

        mask = np.abs(ratio) >= TRUST_FACTOR * noise
        t_off = offsets[mask]
        t_ratio = ratio[mask]
        if len(t_off) == 0:
            continue

        for k, direction in enumerate(directions):
            found, side_brackets = _side_candidates(
                f, t_off, direction * t_ratio, side_sign, unbounded
            )
            candidates[k].extend(found)
            brackets.extend((k, side_sign, lo, hi) for lo, hi in side_brackets)

    if escape:
        error, reasons = _ESCAPES[screen]
        raise error(reasons[escape])
    if not any(candidates):
        if screen == "lower":
            raise ConditionViolationError(
                "no probe rose above the noise floor; cannot certify positivity"
            )
        raise DegenerateEnvelopeError(
            "no probe rose above the floating-point noise floor; the ratio "
            "is numerically indistinguishable from zero everywhere"
        )

    refinements = [0] * len(directions)
    if brackets:
        b_dir, b_sign, b_lo, b_hi = (np.array(col) for col in zip(*brackets))
        b_dir = np.asarray(directions, dtype=float)[b_dir]

        def w_at(idx, t):
            # math.exp per element, not np.exp: the two differ by an ulp on
            # some inputs, which would move the refined attainment points.
            offsets = np.array([math.exp(v) for v in t])
            ratio, _ = ratio_on(b_sign[idx], offsets)
            return b_dir[idx] * ratio

        t_best, w_best, width, iters = _golden_lockstep(w_at, b_lo, b_hi)
        for j, (k, side_sign, _, _) in enumerate(brackets):
            refinements[k] += int(iters[j])
            off_best = math.exp(t_best[j])
            candidates[k].append(_Candidate(
                float(w_best[j]),
                off_best,
                0 if side_sign > 0 else 1,
                f.mu + side_sign * off_best,
                INTERIOR,
                float(width[j]),
            ))

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


def _comparison_terms(decl):
    """The power sum a declaration compares f with: |t|^alpha + |t|^n for
    the upper role, |t|^-beta + |t|^-alpha for the lower one, which
    collapses to 2 |t|^-alpha when beta equals alpha."""
    if decl.role == "upper":
        return ((decl.alpha, 1.0), (decl.n, 1.0))
    if decl.beta == decl.alpha:
        return ((decl.alpha, 2.0),)
    return ((decl.beta, 1.0), (decl.alpha, 1.0))


def _declared_envelope(f, decl, terms, role, params):
    """Screen the declared growth and solve its envelope constant.

    Upper role: sup over x != mu of |f(x) - f(mu)| / sum_eta a_eta |x-mu|^eta.
    Lower role: inf over x != mu of the signed deviation (per ``decl.sign``)
    times sum_eta a_eta |x-mu|^-eta.  The lower comparison curve is the
    harmonic form 1 / sum a |x-mu|^-eta, so dividing by it means
    multiplying by the sum.  An infimum indistinguishable from zero raises
    DegenerateEnvelopeError.
    """
    fmu = evaluate(f, f.mu)
    upper = decl.role == "upper"
    flip = -1.0 if decl.sign == GAP_BELOW else 1.0

    def ratio_on(signs, offsets):
        fx = eval_many(f, f.mu + signs * offsets)
        if upper:
            den = _term_sum(offsets, terms, invert=False)
            return np.abs(fx - fmu) / den, noise_floor(fx, fmu) / den
        mult = _term_sum(offsets, terms, invert=True)
        return flip * (fx - fmu) * mult, noise_floor(fx, fmu) * mult

    [(value, chosen, diag, near_mu)] = _optimize(
        f,
        ratio_on,
        (1.0 if upper else -1.0,),
        max_offset=_offset_cap(terms),
        screen=decl.role,
    )
    if upper and math.isinf(value):
        # the solver's limit checks see escapes the screen's sparser reading
        # misses, such as a climb toward the mean by steps that do not shrink
        error, reasons = _ESCAPES["upper"]
        raise error(reasons[chosen.location])
    if not upper and value <= DEGENERACY_TOLERANCE * max(near_mu, 1.0):
        raise DegenerateEnvelopeError(
            f"infimum {value:.3g} is indistinguishable from zero; the "
            "resulting lower bound would be vacuous"
        )
    return EnvelopeConstant(
        value, chosen.arg, chosen.location, role, f.mu, params, True, diag,
        f.label,
    )


def sup_ratio_upper(f, alpha, n):
    """Smallest M with |f(x) - f(mu)| <= M (|x-mu|^alpha + |x-mu|^n).

    The scan first screens the declared growth: f - f(mu) must be
    O(|x-mu|^alpha) near the mean and O(|x-mu|^n) far away, otherwise no
    finite M exists and UnboundedEnvelopeError says where the ratio escapes.
    alpha may equal n.
    """
    decl = GrowthDeclaration("upper", alpha=float(alpha), n=float(n))
    params = (("alpha", decl.alpha), ("n", decl.n))
    return _declared_envelope(f, decl, _comparison_terms(decl), "upper_sup", params)


def inf_ratio_lower(f, alpha, beta, sign=GAP_ABOVE):
    """Largest M with the signed deviation >= M / (|x-mu|^-beta + |x-mu|^-alpha).

    ``sign`` declares the gap direction: with ``gap_above`` the deviation is
    f(x) - f(mu) (convex-like case), with ``gap_below`` it is f(mu) - f(x).
    A probe of the wrong sign or a ratio decaying to zero toward the mean or
    infinity raises ConditionViolationError; an infimum indistinguishable
    from zero raises DegenerateEnvelopeError.
    """
    decl = GrowthDeclaration("lower", alpha=float(alpha), beta=float(beta), sign=sign)
    params = (("alpha", decl.alpha), ("beta", decl.beta), ("sign", sign))
    return _declared_envelope(f, decl, _comparison_terms(decl), "lower_inf", params)


def curvature_envelope(f):
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


def sup_ratio_general(f, terms, mode, sign=GAP_ABOVE):
    """Envelope constant against a user-supplied power sum.

    ``terms`` is a sequence of (exponent, coefficient) pairs defining
    t(x) = sum a_eta |x - mu|^eta.  With mode "sup" this returns
    sup |f - f(mu)| / t, screened as an upper declaration with the smallest
    and largest exponents; with mode "inf" the comparison curve is the
    harmonic form 1 / sum a_eta |x - mu|^-eta and the signed infimum is
    returned, screened as a lower declaration, exactly as in the two
    specialized operations.
    """
    terms = check_terms(terms)
    etas = [eta for eta, _ in terms]
    if mode == "sup":
        decl = GrowthDeclaration("upper", alpha=min(etas), n=max(etas))
        params = (("terms", terms), ("mode", mode))
    elif mode == "inf":
        decl = GrowthDeclaration("lower", alpha=max(etas), beta=min(etas), sign=sign)
        params = (("terms", terms), ("mode", mode), ("sign", sign))
    else:
        raise InvalidParameterError(f"mode must be 'sup' or 'inf', got {mode!r}")
    return _declared_envelope(f, decl, terms, f"general_{mode}", params)
