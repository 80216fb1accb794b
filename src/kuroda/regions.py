"""Numeric membership predicates, samplers and probes for the star regions.

Everything in this module runs in ordinary double precision and is *evidence
machinery*: samplers and probes report what they saw, never a theorem.  The
exact side of the toolkit lives in :mod:`kuroda.membership` and
:mod:`kuroda.blowup`.

Regions (all open, all defined by strict inequalities):

* ``S_PRIME4``   -- the 4-dimensional region with the six cross bounds
  ``|y_i**d_ji * y_j**d_ii| < 1`` (i != j in {1,2,3}) plus ``|y_4| < 1``;
* ``S_DOUBLE_PRIME3`` -- the same six cross bounds on 3-tuples: a star with
  six thin unbounded arms along the coordinate axes;
* ``S3``         -- the star fattened by the diagonal segment: points
  ``b + (a, a, a)`` with ``b`` in the star and ``|a| < 1``;
* ``S_TILDE3``   -- a single conjunction of six polynomial inequalities
  (three "arm" bounds and three "cap" bounds) cutting out a basic open set
  that agrees with ``S3`` far from the origin.

Each closed-form region has one definition, its signed log margin
(:func:`s_prime_margins`, :func:`s_double_prime_margins`,
:func:`s_tilde_margins`): negative exactly inside, 0 on the boundary, and
never ``nan`` for a finite point.  With ``log|q| = log|p| - log(lam)``, no
quotient ``p / lam`` is formed, so a point lies in ``lam * region`` iff the
exact ``p / lam`` lies in the region, up to rounding of the logs.  A cross
bound's margin is ``e_i*log|q_i| + e_j*log|q_j|``, that of ``|y_4| < 1`` is
``log|q_4|``, and an arm's is ``L - softplus(t)``, the log form of
``(q_i**(2*d_i) - 1) * (q_j - q_k)**(2*delta_ii) < 1`` with ``L`` and
``-t`` the logs of its two powers; the caps keep their squares, each
factor capped at the largest double.  So large weights cannot turn a bound
into ``inf * 0 = nan``.  The region test :func:`inside` is the margin's
sign: it decides the samplers' candidates, the sandwich's half-scaled
points and :func:`in_s_prime` / :func:`in_s_tilde`, and runs the arms'
``exp`` and ``log1p`` only on the points near their threshold.  The margin
bodies take coordinate arrays of any shapes that broadcast: the point-list
margins pass the columns of their points, and the boundary cloud the open
mesh of its grid axis, in blocks of x-slabs that fit one element budget.
Each cross term and arm softplus takes two axes only, and each margin has
the bits of the point-list call; the basic set's axis-1 arm softplus and
cap factor take (y, z) only, so the cloud forms them once for all slabs.

Membership in ``S3`` quantifies over the diagonal shift ``a``.  As a
function of ``a``, each cross bound holds on at most two open intervals, one
around each of its two poles (the coordinates it involves).  Newton steps on
the log of the distance from each pole find the interval ends; with the
coordinates and ``-lam, lam`` they cut the shift range into segments on
which no bound changes sign.  :func:`s_shift_margins` evaluates the star's log
margin at every segment's midpoint and at every coordinate inside the
range and keeps the best, so an IN comes with its witness shift, and an end
off by rounding can hide a window but never fake one.  A tolerance band
returns ``UNCERTAIN`` instead of guessing at the boundary.  The search takes
any number of points, in blocks of rows, and a point's result does not
depend on the other points; no power is formed, so large weights cannot
overflow it.  Non-finite points raise ``ValueError`` rather than reading as
outside, and so does a scale ``lam`` that is not finite and positive, in
every predicate and margin function, and a shift search whose shifted
coordinates would pass the double range.

``evaluate_abs`` forms integer powers by multiplication (per-coordinate
power tables), not by libm ``pow``, so ``|f|`` may differ from ``pow`` only
in the last bits; only the samplers' ray powers use ``pow``.  The ray
powers ``v**e`` (``v >= 1``) run ``pow`` only below a cutoff past which the
result is surely 0 or inf, and take that value above it: the same bits
without ``pow``'s slow path for results out of the normal range.

The samplers draw candidates in batches of three strata (box, core box,
rays).  Each stratum draws all of its random numbers first, so the
generator's stream is that of whole batches; it then builds and tests its
candidates in index ranges, in order, only while the sample still needs
points.  A sample's strata count the candidates up to and including the one
that completes it.  A batch with no count to reach (each of the sandwich's)
builds all three strata into one array, in the same order, and decides it
by one region test, run in row blocks of at most ``_SAMPLE_BATCH_MAX``, so
numpy's fixed cost per call is paid once per block, not once per stratum.

``evaluate_abs`` takes the rows in blocks sized to the cache (2**16
elements per (terms x rows) array, 512 KiB) and reuses one pair of arrays
for every block; each row's terms are summed in a fixed order, so a row's
value does not depend on the block size.

The escape sequence uses base-2 iterated logarithms (``lg``, ``lg lg``,
``lg lg lg``); its fourth coordinate ``1 / lglglg(k)`` drops strictly below
1 for k > 16, so membership of the sequence in the 4-dimensional region
starts at a small config-dependent threshold (17 for the standard symmetric
instance; index 16 sits exactly on the boundary).  A probe's series is the
index range ``16..kmax`` in base-2 log form: one ``(kmax - 15, 4)`` array of
``log2 y`` from ``np.log2`` on the float indices, with no power formed, so
every entry is finite for every config, however large its weights.  The
3-dimensional projections ``y_c - y_4`` are a sign and ``log2|y_c - y_4|``,
and ``|f|`` along the series is evaluated as ``log2|f|``, a max-shifted
signed sum of the terms' logs; the probe's verdicts are decided on those
logs, and the values it reports are their ``exp2``: ``inf`` or 0 past the
double range, never ``nan``.  :func:`escape_point` computes one index in
Python floats (``math.log2`` and ``float(k ** m)``) and raises
``OverflowError`` where a power passes the double range.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import cone
from .algebra import SparsePolynomial, System
# RegionKind, SamplingError and SANDWICH_MIN_RADIUS are defined in config and
# re-exported from here.
from .config import (  # noqa: F401
    AXES,
    FAR_ZONE_START,
    SANDWICH_MIN_RADIUS,
    KurodaConfig,
    RegionKind,
    SamplingError,
    column_minima,
)
from .membership import monoid_member


# Right-hand sides of the basic open set's arm and cap bounds.
_ARM_RHS = 1.0
_CAP_RHS = 4.0


@dataclass(frozen=True)
class RegionSpec:
    """A region kind with its scale."""

    kind: RegionKind
    lam: float = 1.0

    def __post_init__(self):
        _check_scale(self.lam)


class Verdict(enum.Enum):
    IN = "IN"
    OUT = "OUT"
    UNCERTAIN = "UNCERTAIN"


def _check_scale(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"scale must be finite and positive, got {lam}")


def _as_points(points, dim: int) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {arr.shape}")
    return arr


def _into(op, values, term):
    """``op(values, term)``, in place in ``values`` where its shape allows; ``term`` if no ``values``."""
    if values is None:
        return term
    if values.shape == term.shape or np.broadcast_shapes(values.shape, term.shape) == values.shape:
        return op(values, term, out=values)
    return op(values, term)


def _cross_max(logq, pairs) -> np.ndarray:
    """Max over the cross bounds of ``e_i*logq_i + e_j*logq_j``, elementwise.

    ``logq[c - 1]`` is the array of axis ``c``; the arrays may have any
    shapes that broadcast, and each term takes the shape of its two axes.
    """
    values = None
    for i, j, ei, ej in pairs:
        values = _into(np.maximum, values, _into(np.add, ei * logq[i - 1], ej * logq[j - 1]))
    return values


# softplus(t) = log(1 + exp(t)) lies in [max(t, 0), max(t, 0) + log 2]: an
# arm log this far above max(t, 0) fails the arm bound whatever t is.
_SOFTPLUS_SPAN = 0.7
# The least positive double: x < _TINY holds iff x <= 0.
_TINY = 5e-324
# The largest double: a cap factor past it is read as it, so that a factor of
# 0 gives a product of 0, not inf * 0 = nan.
_MAX = np.finfo(float).max


def _log_of(x: np.ndarray, log_lam: float) -> np.ndarray:
    """``log(x) - log(lam)`` in place on a fresh array ``x >= 0``.

    For ``x = |p|`` this is the log of the exact ``|p / lam|`` up to
    rounding, without forming the quotient, so it cannot overflow: only an
    exact 0 gives ``-inf``.  Callers silence the divide warning of log 0.
    """
    np.log(x, out=x)
    if log_lam:
        x -= log_lam
    return x


def _star_margins(p, lam: float, config: KurodaConfig) -> np.ndarray:
    """The log margin of the cross bounds, with ``log|q_4|`` for a fourth coordinate array."""
    log_lam = math.log(lam)
    logq = [_log_of(np.abs(c), log_lam) for c in p]
    margin = _cross_max(logq, cone.rays(config))
    return margin if len(p) == 3 else _into(np.maximum, margin, logq[3])


def _arm_log(p, i: int, log_lam: float, d) -> np.ndarray:
    """``L = 2*d_i*log|q_i|`` of axis ``i``'s arm; ``d`` is the column minima.

    The arm ``(e**L - 1) * e**-t < 1`` (``_ARM_RHS`` is 1), with ``t`` from
    :func:`_arm_t`, holds iff ``L <= 0`` or ``L < softplus(t)``.  Both logs
    are ``log|p| - log(lam)``: finite, or ``-inf`` at 0.
    """
    arm_log = _log_of(np.abs(p[i - 1]), log_lam)
    arm_log *= 2.0 * d[i - 1]
    return arm_log


def _arm_t(p, i: int, log_lam: float, config: KurodaConfig) -> np.ndarray:
    """``t = -2*delta_ii*log|q_j - q_k|`` of axis ``i``'s arm.

    ``t`` is ``-inf`` where ``p_j - p_k`` passes the double range.
    """
    j, k = (c for c in AXES if c != i)
    t = np.subtract(p[j - 1], p[k - 1])
    t = _log_of(np.abs(t, out=t), log_lam)
    t *= -2.0 * config.magnitude(i, i)
    return t


def _softplus(t: np.ndarray) -> np.ndarray:
    """``max(t, _TINY) + log1p(exp(-|t|))``: ``L = 0`` stays inside where ``exp(t)`` underflows."""
    softplus = np.maximum(t, _TINY)
    softplus += np.log1p(np.exp(-np.abs(t)))
    return softplus


# A cap bound is ``_cap_own * _cap_pair < _CAP_RHS``.  A factor past the
# double range is read as the largest double, so the product keeps its sign
# and is 0 wherever the other factor is.
def _cap_own(p, i: int, lam: float) -> np.ndarray:
    """``q_i**2 - 1`` of axis ``i``'s cap, capped at the largest double."""
    qi = p[i - 1] if lam == 1.0 else p[i - 1] / lam
    own = qi * qi
    own -= 1.0
    return np.minimum(own, _MAX, out=own)


def _cap_pair(p, i: int, lam: float) -> np.ndarray:
    """``(q_j + q_k)**2 - 4`` of axis ``i``'s cap, capped, with ``q_j + q_k`` as ``(p_j + p_k) / lam``."""
    j, k = (c for c in AXES if c != i)
    s = np.add(p[j - 1], p[k - 1])
    if lam != 1.0:
        s /= lam
    s *= s
    s -= 4.0
    return np.minimum(s, _MAX, out=s)


def _tilde_margins(p, lam: float, config: KurodaConfig) -> np.ndarray:
    """The log margin of the basic open set: the max of its arm and cap margins.

    An arm's is ``L - softplus(t)``, a cap's its product minus ``_CAP_RHS``.
    """
    return next(_tilde_slabs(p, lam, config, (slice(None),)))


def _tilde_slabs(p, lam: float, config: KurodaConfig, blocks):
    """:func:`_tilde_margins` of ``(p[0][block], p[1], p[2])`` for each of ``blocks``, in turn.

    Axis 1's arm softplus and cap factor take ``p[1]`` and ``p[2]`` only:
    they are formed once, before the first block, so the cloud's x-slabs
    share them.  Each block runs the operations of one call, so its margins
    have the bits of :func:`_tilde_margins` on its points.
    """
    log_lam, d = math.log(lam), column_minima(config)
    yz = _softplus(_arm_t(p, 1, log_lam, config)), _cap_pair(p, 1, lam)
    for block in blocks:
        q = (p[0][block], p[1], p[2])
        margin = None
        for i in AXES:
            if i == 1:
                softplus, pair = yz
            else:
                softplus, pair = _softplus(_arm_t(q, i, log_lam, config)), _cap_pair(q, i, lam)
            margin = _into(np.maximum, margin, _arm_log(q, i, log_lam, d) - softplus)
            cap = _cap_own(q, i, lam) * pair
            cap -= _CAP_RHS
            margin = _into(np.maximum, margin, cap)
        yield margin


def _tilde_inside(p, lam: float, config: KurodaConfig) -> np.ndarray:
    """``_tilde_margins(p, lam, config) < 0`` on point columns, with softplus only where it decides.

    An arm holds wherever ``L < floor = max(t, _TINY)`` and fails wherever
    ``L >= floor + _SOFTPLUS_SPAN``; ``exp`` and ``log1p`` run only on the
    points in that band, with the operations of :func:`_tilde_margins`.
    """
    log_lam, d = math.log(lam), column_minima(config)
    held = np.ones(len(p[0]), dtype=bool)
    for i in AXES:
        held &= _cap_own(p, i, lam) * _cap_pair(p, i, lam) < _CAP_RHS
        arm_log, t = _arm_log(p, i, log_lam, d), _arm_t(p, i, log_lam, config)
        floor = np.maximum(t, _TINY)
        arm = arm_log < floor
        # the band: arm_log in [floor, floor + span), where arm is False
        band = np.flatnonzero((arm_log < floor + _SOFTPLUS_SPAN) ^ arm)
        if len(band):
            arm[band] = arm_log[band] < floor[band] + np.log1p(np.exp(-np.abs(t[band])))
        held &= arm
    return held


def _on_points(body, kind: RegionKind, points, lam: float, config: KurodaConfig) -> np.ndarray:
    """``body`` on the coordinate columns of ``points`` in ``kind``'s dimension."""
    _check_scale(lam)
    pts = _as_points(points, kind.dim)
    # log 0 = -inf is meant, and so is a cap square past the double range;
    # inf - inf and inf * 0 come only from non-finite points
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return body(pts.T, lam, config)


def s_prime_margins(points, lam: float, config: KurodaConfig) -> np.ndarray:
    """The log margin of ``lam`` times ``S_PRIME4``: negative exactly where :func:`inside` holds."""
    return _on_points(_star_margins, RegionKind.S_PRIME4, points, lam, config)


def s_double_prime_margins(points, lam: float, config: KurodaConfig) -> np.ndarray:
    """The log margin of ``lam`` times the star: negative exactly where :func:`inside` holds."""
    return _on_points(_star_margins, RegionKind.S_DOUBLE_PRIME3, points, lam, config)


def s_tilde_margins(points, lam: float, config: KurodaConfig) -> np.ndarray:
    """The log margin of ``lam`` times the basic open set: negative exactly where :func:`inside` is."""
    return _on_points(_tilde_margins, RegionKind.S_TILDE3, points, lam, config)


def inside(kind: RegionKind, points, lam: float, config: KurodaConfig) -> np.ndarray:
    """Membership of each point in ``lam`` times a closed-form region, as booleans.

    This is the region test of the samplers, the sandwich check and
    :func:`in_s_prime` / :func:`in_s_tilde`: the sign of the region's log
    margin, from the margin body itself for the cross bounds and ``|y_4| <
    1``, and from :func:`_tilde_inside` for ``S_TILDE3``.  A point with a
    non-finite coordinate is outside.  ``S3`` is only semi-decided: use
    :func:`in_s`.
    """
    if kind is RegionKind.S3:
        raise ValueError("membership in the fattened star is semi-decided: use in_s")
    if kind is RegionKind.S_TILDE3:
        return _on_points(_tilde_inside, kind, points, lam, config)
    return _on_points(_star_margins, kind, points, lam, config) < 0


def in_s_prime(point, lam: float, config: KurodaConfig) -> bool:
    return bool(inside(RegionKind.S_PRIME4, point, lam, config)[0])


def in_s_tilde(point, lam: float, config: KurodaConfig) -> bool:
    return bool(inside(RegionKind.S_TILDE3, point, lam, config)[0])


# Newton steps per root of the shift search: an element stops once its step
# is below _NEWTON_TOL of max(1, |x|), or after _NEWTON_STEPS.  Each side's
# equation is convex or concave in the log of the distance from its pole and
# starts within a few units of its root: the sandwich's far-zone points
# settle in 3 to 9 steps, random points with weights up to 300 in at most 11.
# A root that has not settled can only hide a window, never fake one.
_NEWTON_TOL = 2.0**-42
_NEWTON_STEPS = 16
# Rows per block of the shift search: its largest array, the logs of the
# (3 x rows x 31) shifted coordinates, stays near 380 KB.
_SHIFT_ROWS = 512


def _blocks(count: int, width: int, budget: int):
    """Slices of ``count`` rows in blocks whose (rows x width) array fits ``budget`` elements."""
    step = max(1, budget // width)
    return (slice(start, start + step) for start in range(0, count, step))


def _newton(step, x: np.ndarray, params, active: np.ndarray) -> np.ndarray:
    """``x`` after Newton steps ``x = step(x, *params)`` on its ``active`` elements.

    Each element stops at its first step below ``_NEWTON_TOL`` of
    ``max(1, |x|)``, or after ``_NEWTON_STEPS``, and later steps run on the
    elements still moving only: so an element's value does not depend on
    the others.  ``params`` broadcast to the shape of ``x``.
    """
    out = x.ravel()
    moving = np.flatnonzero(active)
    xs = out[moving]
    params = [np.broadcast_to(p, x.shape).ravel()[moving] for p in params]
    for _ in range(_NEWTON_STEPS):
        new = step(xs, *params)
        keep = np.abs(new - xs) > _NEWTON_TOL * np.maximum(np.abs(xs), 1.0)
        moving, xs = moving[keep], new[keep]
        out[moving] = xs
        if not len(moving):
            break
        params = [p[keep] for p in params]
    return out.reshape(x.shape)


def _meets(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Whether the segment between ``a`` and ``b`` meets ``(-lam, lam)``, elementwise."""
    return (np.minimum(a, b) < lam) & (np.maximum(a, b) > -lam)


def _away_step(x, alpha, beta, c):
    """A Newton step on ``alpha*x + beta*log(1 + e**x) - c``, without overflow."""
    w = np.exp(-np.abs(x))
    h = alpha * x + beta * (np.maximum(x, 0.0) + np.log1p(w)) - c
    return x - h / (alpha + beta * np.where(x >= 0, 1.0, w) / (1.0 + w))


def _near_step(x, alpha, beta, c, peak):
    """A Newton step on ``alpha*x + beta*log(1 - e**x) - c`` for ``x <= peak < 0``."""
    m = -np.expm1(x)  # 1 - e**x, in (0, 1)
    h = alpha * x + beta * np.log(m) - c
    # past the peak by rounding: fmin keeps x at it
    return np.fmin(x - h / (alpha + beta - beta / m), peak)


def _shift_roots(pts: np.ndarray, lam: float, pairs) -> np.ndarray:
    """The shifts where a cross bound's log form changes sign: a (24 x rows) array.

    Cross pair ``(i, j, e_i, e_j)`` holds at shift ``a`` iff ``g(a) =
    e_i*log|p_i - a| + e_j*log|p_j - a| - (e_i + e_j)*log(lam) < 0``.  Seen
    from its pole ``u`` (weight ``alpha``) with the other pole ``v``
    (weight ``beta``) at distance ``D``, and ``x`` the log of the distance
    from ``u`` over ``D``, ``g`` is ``h(x) = alpha*x + beta*log(1 + e**x) -
    c`` on the side away from ``v`` and ``alpha*x + beta*log(1 - e**x) - c``
    on the side towards it, with ``c = (alpha + beta)*(log(lam) - log D)``.
    The first rises from ``-inf`` with slope in ``(alpha, alpha + beta)``
    and is convex: Newton from ``min(c/alpha, c/(alpha + beta))``, above
    the root, comes down to it.  The second is concave with its peak at
    ``log(alpha/(alpha + beta))``: it has a root below the peak iff ``h``
    is not negative there, and Newton from ``c/alpha``, below the root,
    climbs to it.  So each pole has one root on its far side and at most
    one between the poles, the first sign change from the pole; a pair
    whose poles coincide holds on ``(u - lam, u + lam)``.  A side without a
    root gives the pole itself.  Newton runs only where the root can fall
    inside ``(-lam, lam)``: elsewhere the start and the root lie beyond the
    same end of the range, and the search clips both to that end.
    """
    u = np.stack([pts[:, k - 1] for i, j, _, _ in pairs for k in (i, j)])
    v = np.stack([pts[:, k - 1] for i, j, _, _ in pairs for k in (j, i)])
    alpha = np.array([[w] for _, _, ei, ej in pairs for w in (ei, ej)], dtype=float)
    beta = np.array([[w] for _, _, ei, ej in pairs for w in (ej, ei)], dtype=float)
    total = alpha + beta
    peak = np.log(alpha / total)
    log_lam = math.log(lam)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dist = np.abs(u - v)
        log_d = np.log(dist)
        # |u - v| may pass the double range where max|p| + lam does not;
        # halving is exact for coordinates that large
        huge = np.isinf(dist)
        log_d[huge] = np.log(np.abs(0.5 * u[huge] - 0.5 * v[huge])) + math.log(2.0)
        equal = dist == 0
        log_d[equal] = 0.0  # their roots are set below
        c = total * (log_lam - log_d)
        towards = np.where(v >= u, 1.0, -1.0)

        def shift_at(x, side):
            """The shift at log distance ``x + log D`` from ``u``, towards ``v`` for side 1."""
            return u + side * towards * np.exp(x + log_d)

        x = np.minimum(c / alpha, c / total)
        solve = ~equal & _meets(u, shift_at(x, -1.0), lam)
        far = _newton(_away_step, x, (alpha, beta, c), solve)
        crosses = alpha * peak + beta * np.log(beta / total) >= c
        x = np.minimum(c / alpha, peak)
        solve = crosses & ~equal & _meets(shift_at(x, 1.0), shift_at(peak, 1.0), lam)
        near = _newton(_near_step, x, (alpha, beta, c, peak), solve)
        near[~crosses] = -np.inf  # the pole itself
        near[equal] = far[equal] = log_lam  # log_d is 0 there: distance lam
        return np.concatenate([shift_at(near, 1.0), shift_at(far, -1.0)])


def s_shift_margins(points, lam: float, config: KurodaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Best star margin of ``point - (a,a,a)`` over the shifts |a| < lam, per point.

    The interval ends of :func:`_shift_roots`, the coordinates and ``-lam,
    lam`` cut ``[-lam, lam]`` into segments on which no cross bound changes
    sign.  The search evaluates the log-form star margin, the max over the
    cross bounds of ``e_i*log|q_i| + e_j*log|q_j|`` with ``log|q| = log|p -
    a| - log(lam)``, at the midpoint of every segment and at every
    coordinate inside ``(-lam, lam)`` (a window narrower than one ulp sits
    at a pole), and keeps the lowest.  So an IN comes with the shift that
    shows it, and an end off by rounding can hide a window but never fake
    one.  No power is formed, so large weights cannot overflow it.

    Returns (margins, shifts), one entry per row: each margin is the star's
    log margin at its shift, that of :func:`s_double_prime_margins` there.
    A row's result does not depend on the other rows of the call.
    Non-finite coordinates and a scale that is not finite and positive raise
    ``ValueError`` rather than reading as outside, and so do points and a
    scale whose shifted coordinates ``p - a`` could pass the double range
    (``max|p| + lam`` not finite).
    """
    pts = _as_points(points, 3)
    if not np.isfinite(pts).all():
        raise ValueError("the shift search needs finite coordinates")
    _check_scale(lam)
    reach = float(np.abs(pts).max(initial=0.0)) + float(lam)
    if not math.isfinite(reach):
        raise ValueError(
            f"the shift search at scale {lam} passes the double range (max |p| + scale = {reach})"
        )
    pairs = cone.rays(config)
    log_lam = math.log(lam)
    best = np.empty(len(pts))
    best_a = np.empty(len(pts))
    for start in range(0, len(pts), _SHIFT_ROWS):
        p = pts[start:start + _SHIFT_ROWS]
        n = len(p)
        ends = np.concatenate([np.tile((-lam, lam), (n, 1)), p, _shift_roots(p, lam, pairs).T], axis=1)
        np.clip(ends, -lam, lam, out=ends)
        ends.sort(axis=1)
        # the segments' midpoints, then the poles, clipped as the ends are:
        # a pole out of range is no candidate, and no |p - a| passes max|p| + lam
        shifts = np.concatenate([0.5 * ends[:, :-1] + 0.5 * ends[:, 1:], np.clip(p, -lam, lam)], axis=1)
        logq = np.subtract(p.T[:, :, None], shifts)
        np.abs(logq, out=logq)
        with np.errstate(divide="ignore"):  # a shift at a pole gives log 0 = -inf
            np.log(logq, out=logq)
        logq -= log_lam
        values = _cross_max(logq, pairs)
        values[~(np.abs(shifts) < lam)] = np.inf
        first = values.argmin(axis=1)
        best[start:start + n] = values[np.arange(n), first]
        best_a[start:start + n] = shifts[np.arange(n), first]
    return best, best_a


def _band(margins: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks (UNCERTAIN, OUT) of shift-search margins: UNCERTAIN in the band, else IN below 0."""
    uncertain = abs(margins) <= tolerance
    return uncertain, ~uncertain & ~(margins < 0)


def in_s(
    point, lam: float, config: KurodaConfig, tolerance: float = 1e-6
) -> Verdict:
    """Membership of ``point`` in ``lam`` times the fattened star, from :func:`s_shift_margins`.

    IN when the log-form margin is below ``-tolerance``: the search's shift
    ``a`` is a witness, ``point - (a,a,a)`` lies in ``lam`` times the star.
    OUT when it is above ``tolerance``, UNCERTAIN between: the band is the
    one ``sandwich --tolerance`` and the cloud's ``--band`` read, on the
    same margin.  An OUT is not certified:
    a window narrower than one ulp next to ``-lam`` or ``lam`` holds no
    shift, as for a coordinate at ``lam`` exactly on large weights.
    """
    uncertain, outside = _band(s_shift_margins(point, lam, config)[0][0], tolerance)
    if uncertain:
        return Verdict.UNCERTAIN
    return Verdict.OUT if outside else Verdict.IN


# -- escape sequence -------------------------------------------------------


def diagonal_projection(point: Sequence[float]) -> tuple[float, float, float]:
    """Project parallel to the diagonal: subtract the fourth coordinate from
    the first three.  This is the map carrying the 4-dim region onto the
    fattened star."""
    p1, p2, p3, p4 = (float(v) for v in point)
    return (p1 - p4, p2 - p4, p3 - p4)


@dataclass(frozen=True)
class EscapePoint:
    k: int
    y: tuple[float, float, float, float]
    pi: tuple[float, float, float]


# The first escape index (the triple logarithm is positive from 16 on), the
# last one that escape_threshold tries, and the final |f| past which a
# monotone escape tail counts as divergence.
ESCAPE_FIRST = 16
_ESCAPE_THRESHOLD_LIMIT = 10**6
_DIVERGENCE_THRESHOLD = 1e3
# Indices per block of escape_threshold's search.
_ESCAPE_BLOCK = 4096
# Largest gap below a row's largest term that the log-form evaluation passes
# to exp2: 2**-1000 is still a normal double, and exp2 is many times slower
# on results below the normal range (in process on a 2-core x86-64 VM, numpy
# 2.4, 31 760 elements: 31 us, against 3.6 ms on subnormal results and
# 0.5 ms on results of 0).
_EXP2_SPAN = 1000.0


def _check_escape_index(k) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < ESCAPE_FIRST:
        raise ValueError(f"escape index must be an integer >= 16, got {k!r}")


def _escape_logs(first: int, last: int, config: KurodaConfig) -> np.ndarray:
    """``log2`` of the escape points ``y`` of the indices ``first..last``, both >= 16, as rows.

    With ``lg = log2`` from ``np.log2`` on the float indices, the columns are
    ``m11*lg k``, ``-(m21*lg k + lglg k)``, ``-(m31*lg k + lglglg k)`` and
    ``-log2 lglglg k``: no power is formed, so every entry is finite for
    every config and every ``k >= 16``, however far ``y`` leaves the double
    range.  The result is the transpose of a C-ordered (4 x rows) array, so
    each column is contiguous.
    """
    for k in (first, last):
        _check_escape_index(k)
    lg1 = np.log2(np.arange(first, last + 1, dtype=float))
    lg2 = np.log2(lg1)
    lg3 = np.log2(lg2)
    logs = np.empty((4, len(lg1)))
    np.multiply(config.magnitude(1, 1), lg1, out=logs[0])
    np.negative(config.magnitude(2, 1) * lg1 + lg2, out=logs[1])
    np.negative(config.magnitude(3, 1) * lg1 + lg3, out=logs[2])
    np.negative(np.log2(lg3), out=logs[3])
    return logs.T


def _projection_logs(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and ``log2|y_c - y_4|`` of the diagonal projections, from ``log2 y`` rows.

    With ``D = log2 y_c - log2 y_4``, ``|y_c - y_4|`` is
    ``2**max(log2 y_c, log2 y_4) * (1 - 2**-|D|)``, and the second factor is
    ``-expm1(-|D| * ln 2)``: accurate for small ``|D|`` too, and 0 (log
    ``-inf``, sign 0) only at ``D = 0``.
    """
    diff = logs[:, :3] - logs[:, 3:]
    signs = np.sign(diff)
    mags = np.abs(diff, out=diff)
    mags *= -math.log(2.0)
    np.expm1(mags, out=mags)
    np.negative(mags, out=mags)
    with np.errstate(divide="ignore"):  # log2 0 = -inf at D = 0 is meant
        np.log2(mags, out=mags)
    mags += np.maximum(logs[:, :3], logs[:, 3:])
    return signs, mags


def escape_point(k: int, config: KurodaConfig) -> EscapePoint:
    """The k-th escape point and its diagonal projection.

    The coordinates are ``(k**d11, 1/(k**d21 * lg k), 1/(k**d31 * lglg k),
    1/lglglg k)`` with base-2 logarithms; requires k >= 16 so the triple
    logarithm is defined and positive.  One index in Python floats: the
    logarithms come from ``math.log2`` and each integer power is the
    correctly rounded conversion of ``k ** m``, so a power past the double
    range raises ``OverflowError`` as ``float`` does.  The probes use the
    log form :func:`_escape_logs` instead.
    """
    _check_escape_index(k)
    lg1 = math.log2(float(k))
    lg2 = math.log2(lg1)
    lg3 = math.log2(lg2)
    point = (
        float(k ** config.magnitude(1, 1)),
        1.0 / (k ** config.magnitude(2, 1) * lg1),
        1.0 / (k ** config.magnitude(3, 1) * lg2),
        1.0 / lg3,
    )
    return EscapePoint(k, point, diagonal_projection(point))


def escape_threshold(config: KurodaConfig) -> int:
    """Smallest k >= 16 whose escape point lies in the 4-dim region at scale 1.

    Decided on the log form :func:`_escape_logs`, in blocks of indices: the
    point is inside where every cross bound's ``e_i*log2 y_i + e_j*log2
    y_j`` and ``log2 y_4`` are negative, so no weight makes it overflow.
    """
    pairs = cone.rays(config)
    for first in range(ESCAPE_FIRST, _ESCAPE_THRESHOLD_LIMIT + 1, _ESCAPE_BLOCK):
        last = min(first + _ESCAPE_BLOCK - 1, _ESCAPE_THRESHOLD_LIMIT)
        logs = _escape_logs(first, last, config).T
        hits = np.flatnonzero(np.maximum(_cross_max(logs, pairs), logs[3]) < 0)
        if len(hits):
            return first + int(hits[0])
    raise ValueError(f"no escape point enters the region below k = {_ESCAPE_THRESHOLD_LIMIT}")


# -- stratified samplers ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Accepted sample points and the candidates tested and accepted per stratum.

    ``strata`` counts, per stratum, the candidates built and tested up to and
    including the one that completed the sample, and how many of them were
    accepted; the candidates whose random numbers were drawn after that
    point are not counted.
    """

    points: np.ndarray
    strata: dict[str, dict[str, int]]

    def count(self) -> int:
        return len(self.points)


# glibc pow takes a slow path where its result is 0, subnormal or inf.  Past
# these powers of two the result is known: a true value below 2**-1100 rounds
# to 0, and one above 2**1030 to inf.
_POW_UNDER_LOG2 = 1100
_POW_OVER_LOG2 = 1030


def _pow_from_one(v: np.ndarray, e: float) -> np.ndarray:
    """``v ** e`` for ``v >= 1``, with ``pow`` run only where its result may be normal.

    For ``e < 0`` every ``v`` above ``2**(1100/|e|)`` has ``v**e`` below
    ``2**-1100``, far under half the least subnormal (``2**-1075``), so
    ``pow`` gives 0 there; for ``e > 0`` every ``v`` above ``2**(1030/e)``
    has ``v**e`` above ``2**1030``, past the double range, so ``pow`` gives
    inf.  Those entries are prefilled and ``pow`` runs on the others, each
    with the bits of ``v ** e``.  The cutoff is rounded twice (the quotient
    and the power of two); that moves ``log2`` of the true value at the
    cutoff by less than 1e-12, against margins of 25 and 6.  Where the
    quotient is 1023 or more no finite ``v`` passes the cutoff and plain
    ``v ** e`` runs, and so it does for ``e == 2``, which numpy's ``**``
    forms as a square rather than a ``pow``.  An inf result is expected
    here, so ``pow``'s overflow between ``2**(1024/e)`` and the cutoff
    passes silently, as the prefilled entries do.
    """
    if e == 2:
        return v ** e
    log2_cut = (_POW_UNDER_LOG2 if e < 0 else _POW_OVER_LOG2) / abs(e)
    if log2_cut >= 1023:
        return v ** e
    cutoff = 2.0 ** log2_cut
    out = np.full(v.shape, 0.0 if e < 0 else np.inf)
    with np.errstate(over="ignore"):
        return np.power(v, e, out=out, where=v < cutoff)


class _StarSampler:
    """Candidate generator for the 3- and 4-dimensional cross-bound regions.

    ``needed`` is how many points the next :meth:`batch` may still accept;
    :meth:`draw` sets it before each batch.  ``None``, the default, makes a
    batch build every candidate it draws and decide them all by one region
    test, in row blocks.
    """

    def __init__(self, config: KurodaConfig, spec: RegionSpec, radius: float, rng):
        self.config = config
        self.spec = spec
        self.radius = float(radius)
        self.rng = rng
        self.dim = spec.kind.dim
        self.needed: int | None = None
        self.stats = {
            "box": {"candidates": 0, "accepted": 0},
            "core": {"candidates": 0, "accepted": 0},
            "ray": {"candidates": 0, "accepted": 0},
        }

    def _inside(self, pts: np.ndarray) -> np.ndarray:
        return inside(self.spec.kind, pts, self.spec.lam, self.config)

    def _box(self, n: int, half_width: float) -> np.ndarray:
        return self.rng.uniform(-half_width, half_width, size=(n, self.dim))

    def _ray_draws(self, n: int, t_low: float):
        """The random numbers of ``n`` ray candidates, in the order the ray strata draw them.

        The axes, the signs and the radii ``t``; then, axis after axis, two
        uniforms on (-1, 1) per candidate of the axis, drawn in one call,
        which gives the bits of one call per axis and coordinate; then the
        fourth coordinates in 4 dimensions.  Returns the signs, the radii,
        per axis ``(a, idx, first, second)`` with ``idx`` the ascending
        indices of its candidates and ``first``, ``second`` their uniforms,
        and the fourth coordinates or ``None``.
        """
        lam, rng = self.spec.lam, self.rng
        axis = rng.integers(1, 4, size=n)
        sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
        t = rng.uniform(t_low, self.radius, size=n)
        uniforms = rng.uniform(-1.0, 1.0, size=2 * n)
        fourth = rng.uniform(-lam, lam, size=n) if self.dim == 4 else None
        axes, start = [], 0
        for a in AXES:
            idx = np.flatnonzero(axis == a)
            m = len(idx)
            axes.append((a, idx, uniforms[start:start + m], uniforms[start + m:start + 2 * m]))
            start += 2 * m
        return sign, t, axes, fourth

    @staticmethod
    def _axis_rows(draws, lo: int, hi: int):
        """Per axis, its ray candidates among ``lo..hi``: (a, rows from ``lo``, t, signs, uniforms)."""
        sign, t, axes, _ = draws
        # a whole stratum (every batch of the sandwich) needs no lookup
        whole = lo == 0 and hi == len(t)
        for a, idx, first, second in axes:
            p, q = (0, len(idx)) if whole else (idx.searchsorted(lo), idx.searchsorted(hi))
            if p < q:
                sel = idx[p:q]
                yield a, sel - lo, t[sel], sign[sel], first[p:q], second[p:q]

    def _star_rows(self, draws, lo: int, hi: int) -> np.ndarray:
        """Ray candidates ``lo..hi`` of the cross-bound regions, from :meth:`_ray_draws`."""
        lam = self.spec.lam
        exps = {(i, j): (ei, ej) for i, j, ei, ej in cone.rays(self.config)}
        pts = np.zeros((hi - lo, self.dim))
        columns = pts.T
        for a, rows, ta, sa, first, second in self._axis_rows(draws, lo, hi):
            va = ta / lam
            columns[a - 1][rows] = sa * ta
            for j, u in zip((x for x in AXES if x != a), (first, second)):
                # both pows stay: pow may be 1 ulp off, so near va = 1 the
                # larger exponent need not give the smaller value
                (fa, fj), (rj, ra) = exps[a, j], exps[j, a]
                lower = np.minimum(_pow_from_one(va, -(fa / fj)), _pow_from_one(va, -(ra / rj)))
                bound = lam * np.minimum(0.5, lower) * 0.999
                columns[j - 1][rows] = u * bound
        if self.dim == 4:
            columns[3] = draws[3][lo:hi]
        return pts

    def _tilde_rows(self, draws, lo: int, hi: int) -> np.ndarray:
        """Ray candidates ``lo..hi`` of the basic open set, from :meth:`_ray_draws`."""
        lam, cfg = self.spec.lam, self.config
        d = column_minima(cfg)
        pts = np.zeros((hi - lo, 3))
        columns = pts.T
        for a, rows, ta, sa, first, second in self._axis_rows(draws, lo, hi):
            va = ta / lam
            arm_factor = _pow_from_one(va, 2 * d[a - 1]) - 1.0
            bound_w = lam * np.minimum(
                0.5, (_ARM_RHS / arm_factor) ** (1.0 / (2 * cfg.magnitude(a, a)))
            ) * 0.999
            with np.errstate(over="ignore"):  # an inf square gives s_sq = 4, as meant
                s_sq = 4.0 + _CAP_RHS / (va**2 - 1.0)
            bound_s = np.minimum(lam * np.sqrt(np.maximum(s_sq, 0.0)) * 0.999, 1.9 * lam)
            w = first * bound_w
            s = second * bound_s
            j, k = (x for x in AXES if x != a)
            columns[a - 1][rows] = sa * ta
            columns[j - 1][rows] = (s + w) / 2.0
            columns[k - 1][rows] = (s - w) / 2.0
        return pts

    def _accept(self, name: str, n: int, rows, draws, need: int, chunks: list) -> int:
        """Test the candidates ``rows(draws, lo, hi)`` of a stratum of ``n`` until ``need`` pass.

        The ranges go in order; each holds at least the points still needed
        and twice the last one, so a stratum with low acceptance takes
        O(log n) ranges.  The passing candidates go to ``chunks``, and the
        stratum counts the candidates up to and including the one that
        completes the sample.  Returns how many points are still needed.
        """
        lo = width = 0
        while lo < n and need > 0:
            width = max(need, 2 * width)
            hi = min(n, lo + width)
            cand = rows(draws, lo, hi)
            verdict = self._inside(cand)
            keep = cand[verdict]
            if len(keep) >= need:
                hi = lo + int(np.flatnonzero(verdict)[need - 1]) + 1
                keep = keep[:need]
            self.stats[name]["candidates"] += hi - lo
            self.stats[name]["accepted"] += len(keep)
            chunks.append(keep)
            need -= len(keep)
            lo = hi
        return need

    def batch(self, size: int) -> np.ndarray:
        """One candidate round: box, core-box and ray strata, each through the region test.

        Each stratum draws all of its random numbers first, so the generator
        moves as it would for the whole round.  It then builds and tests its
        candidates in index ranges, in order, only until the round has
        accepted ``needed`` points; a stratum after that builds none.  When
        ``needed`` is ``None`` every candidate is built, and the round is
        decided by one region test (:meth:`_whole`).
        """
        lam = self.spec.lam
        rays_possible = self.radius > lam
        n_box = max(size // 5, 1)
        n_core = max(size // 5, 1)
        n_ray = max(size - n_box - n_core, 1) if rays_possible else 0
        if not rays_possible:
            n_box = size
        strata = [(name, n) for name, n in (("box", n_box), ("core", n_core), ("ray", n_ray)) if n > 0]
        if self.needed is None:
            return self._whole(strata)
        need = self.needed
        chunks: list[np.ndarray] = []
        for name, n in strata:
            need = self._accept(name, n, *self._stratum(name, n), need, chunks)
        return np.vstack(chunks) if chunks else np.zeros((0, self.dim))

    def _stratum(self, name: str, n: int):
        """The row builder and the random numbers of a stratum of ``n``, drawn now."""
        lam = self.spec.lam
        if name != "ray":
            return _box_rows, self._box(n, self.radius if name == "box" else lam)
        if self.spec.kind is RegionKind.S_TILDE3:
            return self._tilde_rows, self._ray_draws(n, lam * (1 + 1e-9))
        return self._star_rows, self._ray_draws(n, lam)

    def _whole(self, strata) -> np.ndarray:
        """A round built whole into one array, then decided by one region test in row blocks.

        The strata draw and build in the order of :meth:`batch`, so the
        generator and the candidates are those of the stratum-by-stratum
        round; each row's verdict does not depend on its block, and each
        stratum counts every candidate and its slice of the verdict.
        """
        pts = np.empty((sum(n for _, n in strata), self.dim))
        lo = 0
        for name, n in strata:
            rows, draws = self._stratum(name, n)
            pts[lo:lo + n] = rows(draws, 0, n)
            lo += n
        blocks = _blocks(len(pts), 1, _SAMPLE_BATCH_MAX)
        verdict = np.concatenate([self._inside(pts[block]) for block in blocks])
        lo = 0
        for name, n in strata:
            self.stats[name]["candidates"] += n
            self.stats[name]["accepted"] += int(np.count_nonzero(verdict[lo:lo + n]))
            lo += n
        return pts[verdict]

    def draw(self, count: int, size: int, rounds: int, keep=None) -> np.ndarray:
        """The first ``count`` points kept from at most ``rounds`` batches of ``size`` candidates.

        Each batch's accepted points go through the map ``keep``, if given;
        fewer than ``count`` points come back when the rounds run out.
        Without a map, each batch is told how many points are still needed,
        so it builds and tests candidates only until the sample is full.  A
        map may draw from the same generator per accepted point (the
        sandwich's diagonal shift), so with one every batch is built whole
        and decided by one region test, in row blocks.
        """
        kept: list[np.ndarray] = []
        total = 0
        for _ in range(rounds):
            if total >= count:
                break
            self.needed = None if keep is not None else count - total
            chunk = self.batch(size)
            kept.append(chunk if keep is None else keep(chunk))
            total += len(kept[-1])
        return np.vstack(kept)[:count] if kept else np.zeros((0, self.dim))


def _box_rows(box: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Candidates ``lo..hi`` of a box stratum: its uniform rows themselves."""
    return box[lo:hi]


# Candidate budgets.  sample_region draws batches of max(count, 4096)
# candidates, at most 200 000, and at least 500 000 candidates or 200 per
# point in all; each sandwich direction draws up to 400 batches of max(count, 4096).
_BATCH_MIN = 4096
_SAMPLE_BATCH_MAX = 200_000
_SAMPLE_BUDGET_MIN = 500_000
_SAMPLE_BUDGET_PER_POINT = 200
_SANDWICH_ROUNDS = 400


def _check_radius(radius: float) -> None:
    if not (radius > 0 and math.isfinite(2.0 * radius)):
        raise ValueError(f"radius must be > 0 with a finite double, got {radius}")


def sample_region(
    config: KurodaConfig,
    spec: RegionSpec,
    count: int,
    seed: int,
    radius: float,
) -> SampleSet:
    """Stratified rejection sampling of a region; deterministic per seed.

    Every returned point passes the region test :func:`inside` (candidates
    from all strata go through the same test).  Every random number of a
    batch is drawn, but its candidates are built and tested only until the
    sample holds ``count`` points, and the strata count them up to that
    point.  The fattened star is sampled constructively: star samples plus a
    uniform diagonal shift, drawn after the star samples.  ``radius`` must
    be finite and positive, else ``ValueError`` is raised; so is a radius
    whose double is not finite, since the box stratum draws from an
    interval of width ``2*radius``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    _check_radius(radius)
    rng = np.random.default_rng(seed)
    kind = spec.kind
    base_spec = (
        RegionSpec(RegionKind.S_DOUBLE_PRIME3, spec.lam) if kind is RegionKind.S3 else spec
    )
    sampler = _StarSampler(config, base_spec, radius, rng)
    size = min(max(_BATCH_MIN, count), _SAMPLE_BATCH_MAX)
    rounds = -(-max(_SAMPLE_BUDGET_MIN, _SAMPLE_BUDGET_PER_POINT * count) // size)
    points = sampler.draw(count, size, rounds)
    if count and not len(points):
        raise SamplingError(
            f"no {base_spec.kind.value} sample accepted after {rounds * size} candidates"
        )
    if kind is RegionKind.S3:
        shift = rng.uniform(-spec.lam, spec.lam, size=len(points))
        points = points + shift[:, None]
    return SampleSet(points, sampler.stats)


# -- probes ----------------------------------------------------------------


def _int_power(x: np.ndarray, n: int) -> np.ndarray:
    """``x**n`` for an integer ``n >= 0`` by square-and-multiply.

    About log2(n) array multiplications instead of one libm ``pow`` per
    element; the relative error stays below ``(n - 1) * 2**-53`` to first
    order.  No square beyond the top bit of ``n`` is formed, so the result
    overflows to ``inf`` and underflows to 0 where ``pow`` does, up to
    rounding at the edge of the double range.  May return ``x`` itself.
    """
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            break
        x = x * x
    return np.ones_like(x) if result is None else result


def _power_table(x: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Rows ``x**e`` for the ascending distinct integers ``used >= 0``.

    Each row is the previous one times :func:`_int_power` of the gap, so
    consecutive exponents cost one multiplication each.
    """
    rows, last, power = [], 0, np.ones_like(x)
    for m in used.tolist():
        if m > last:
            power = power * _int_power(x, m - last)
            last = m
        rows.append(power)
    return np.stack(rows)


# Largest (terms x rows) array of evaluate_abs, in elements (512 KiB of
# float64): the rows are evaluated in blocks that fit it, so a block's two
# arrays and power tables stay in a core's L2 cache.  Measured in process on
# a 2-core x86-64 VM (2 MiB L2 per core), 20 000 rows, medians: a 16-term
# cubic took 2.9 / 2.3 / 2.2 / 2.5 / 2.9 ms at 2**14 .. 2**18 elements, and
# a 165-term degree-8 polynomial 25.5 / 17.6 / 14.2 / 17.1 / 22.0 ms.
_EVAL_BLOCK_ELEMENTS = 2**16


def evaluate_abs(f: SparsePolynomial, pts: np.ndarray) -> np.ndarray:
    """|f| at each row of ``pts``; overflow comes out non-finite.

    The rows go in blocks of at most ``_EVAL_BLOCK_ELEMENTS // terms`` (at
    least one row).  Each coordinate gets a table of the powers its terms
    use, over a group of whole blocks whose tables together fit the same
    budget (one block when they do not), and per block one gather of that
    table into a (terms x rows) array.  A table entry depends on its own
    row only, so the grouping changes no bit; past 2**15 terms a block is
    one row, and the groups spare one table per coordinate and row.  The
    gathers are multiplied together and by the coefficients, and each
    row's terms are summed from a C-ordered (rows x terms) copy, so the
    pairwise summation adds them in a fixed order and a row's value does not
    depend on the block it is in.  Every block reuses the same two arrays,
    allocated once per call.  The blocks are sized to the cache, not to
    memory: as one block, a 20 000-row probe of a 16-term cubic streams a
    2.5 MB gather per coordinate through memory, and fresh temporaries of
    that size pay their page faults on every call.  In process on a 2-core
    x86-64 VM, that call took ~11 ms as one block of fresh temporaries and
    ~2.2 ms in blocks of 2**16 elements; on a 20-term cubic, the peak
    traced memory fell from ~8 to ~1.4 MiB.

    The coefficients are the stored numerators over the common denominator,
    divided as Python ints: the quotient is correctly rounded, so each is
    ``float`` of the ``Fraction`` coefficient.
    """
    if pts.shape[1] != f.system.arity:
        raise ValueError(
            f"points of dimension {pts.shape[1]} do not match {f.system.label}"
        )
    if f.is_zero():
        return np.zeros(len(pts))
    pts = np.asarray(pts, dtype=float)
    nums, den = f._numerators()
    support = sorted(nums)
    terms = len(support)
    # the int quotient is correctly rounded, as float(Fraction) is
    coeffs = np.array([nums[e] / den for e in support])[:, None]
    columns = [np.unique(column, return_inverse=True) for column in np.array(support).T]
    step = max(1, _EVAL_BLOCK_ELEMENTS // terms)
    # the power tables cover a group of whole blocks, as many as the same
    # budget holds: past 2**15 terms a block is one row, and per-block tables
    # would be rebuilt for every row
    table_rows = sum(len(used) for used, _ in columns)
    group = step * max(1, _EVAL_BLOCK_ELEMENTS // (table_rows * step))
    # the two (terms x rows) arrays of a block, allocated once per call
    space = np.empty((2, terms * min(step, len(pts))))
    values = np.empty(len(pts))
    with np.errstate(invalid="ignore", over="ignore"):
        for first in range(0, len(pts), group):
            rows = pts[first:first + group]
            # a group of several blocks keeps its tables for all of them; a
            # one-block group builds each table for its one gather, so that
            # only one table is alive at a time
            tables = [
                _power_table(rows[:, c], used) for c, (used, _) in enumerate(columns)
            ] if group > step else None
            for start in range(0, len(rows), step):
                n = len(rows[start:start + step])
                product, factor = (a[: terms * n].reshape(terms, n) for a in space)
                for c, (used, idx) in enumerate(columns):
                    out = factor if c else product
                    table = (_power_table(rows[:, c], used) if tables is None
                             else tables[c][:, start:start + n])
                    # idx is in range, and "clip" writes to out without a buffer
                    np.take(table, idx, axis=0, out=out, mode="clip")
                    del table
                    if c:
                        product *= factor
                product *= coeffs
                # sum a C-ordered (rows x terms) array, as the pow form did, so
                # the pairwise summation adds the terms in the same order; it
                # reuses the factor's space
                by_row = space[1, : terms * n].reshape(n, terms)
                by_row[...] = product.T
                by_row.sum(axis=1, out=values[first + start:first + start + n])
    return np.abs(values, out=values)


def _log2_abs(f: SparsePolynomial, logs: np.ndarray, signs: np.ndarray | None = None) -> np.ndarray:
    """``log2|f|`` at rows given in log form, for the escape series.

    Row r's coordinates are ``signs[r, c] * 2**logs[r, c]``, all positive
    when ``signs`` is ``None``; a log of ``-inf`` is a coordinate 0.  Each
    term's log is ``log2|coefficient| + sum n_c * logs_c`` over its nonzero
    exponents only, so no ``0 * -inf`` appears: a 0 coordinate makes the
    terms that use it ``-inf``.  A term's sign is its coefficient's,
    flipped once per odd exponent on a negative coordinate: one column of a
    per-term table for each pattern of negative coordinates.  Each row's
    terms are summed as ``sign * 2**(log - top)``, ``top`` the row's largest
    term log, in term order, and ``log2|f| = top + log2|sum|``: finite
    wherever ``|f|`` is not 0, however far ``|f|`` leaves the double range,
    and ``-inf`` where every term vanishes or the sum cancels to 0, never
    ``nan``.  A term more than ``2**_EXP2_SPAN`` times below ``top`` counts
    as 0, which moves no sum that has not cancelled to within ``2**-947``
    of ``top``.  The rows go in blocks of at most
    ``_EVAL_BLOCK_ELEMENTS // terms``, every block reusing the same three
    arrays, and the terms are added one after another in term order, so a
    row's value does not depend on its block.
    """
    if f.is_zero():
        return np.full(len(logs), -np.inf)
    nums, den = f._numerators()
    support = sorted(nums)
    terms = len(support)
    exps = np.array(support, dtype=np.intp)
    arity = exps.shape[1]
    # the logs of the integer numerators and denominator: no coefficient
    # over- or underflows on the way
    log_den = math.log2(den)
    coeff_logs = np.array([math.log2(abs(nums[e])) - log_den for e in support])[:, None]
    flips = np.array([nums[e] < 0 for e in support], dtype=np.intp)[:, None]
    patterns = np.zeros(len(logs), dtype=np.intp)
    if signs is not None:
        # per row, its negative coordinates as bits; per term and pattern,
        # one flip per odd exponent on them
        odd = np.zeros(terms, dtype=np.intp)
        for c in range(arity):
            patterns |= (signs[:, c] < 0) << c
            odd |= (exps[:, c] & 1) << c
        both = odd[:, None] & np.arange(2**arity)
        flips = flips + sum((both >> c) & 1 for c in range(arity))
    sign_table = np.where(flips & 1, -1.0, 1.0)
    zeros = np.isneginf(logs)
    has_zeros = bool(zeros.any())
    if has_zeros:
        logs = np.where(zeros, 0.0, logs)
    columns = exps.T[:, :, None].astype(float)
    step = max(1, _EVAL_BLOCK_ELEMENTS // terms)
    # the three (terms x rows) arrays of a block, allocated once per call
    space = np.empty((3, terms * min(step, len(logs))))
    out = np.empty(len(logs))
    for start in range(0, len(logs), step):
        block = slice(start, start + step)
        n = len(out[block])
        term_logs, scratch, weights = (a[: terms * n].reshape(terms, n) for a in space)
        for c in range(arity):
            np.multiply(columns[c], logs[block, c], out=scratch if c else term_logs)
            if c:
                term_logs += scratch
        term_logs += coeff_logs
        if has_zeros:
            for c in range(arity):
                term_logs[np.ix_(exps[:, c] > 0, zeros[block, c])] = -np.inf
        top = term_logs.max(axis=0)
        top[top == -np.inf] = 0.0  # every term vanishes: the sum is 0
        term_logs -= top
        # 1 for the terms kept, then times their signs; exp2 is many times
        # slower on results below the normal range
        np.greater(term_logs, -_EXP2_SPAN, out=weights)
        first = patterns[start]
        if (patterns[block] == first).all():  # one sign per term
            weights *= sign_table[:, first, None]
        else:
            # patterns are below 2**arity, and "clip" writes without a buffer
            np.take(sign_table, patterns[block], axis=1, out=scratch, mode="clip")
            weights *= scratch
        np.maximum(term_logs, -_EXP2_SPAN, out=term_logs)
        np.exp2(term_logs, out=term_logs)
        term_logs *= weights
        # the sum over the terms axis adds them one after another, except on
        # one row, where it runs pairwise: accumulate there
        total = term_logs.sum(axis=0) if n > 1 else np.add.accumulate(term_logs[:, 0])[-1:]
        np.abs(total, out=total)
        with np.errstate(divide="ignore"):  # a sum of 0 gives log2 0 = -inf
            out[block] = top + np.log2(total)
    return out


@dataclass(frozen=True)
class ProbeReport:
    """Sampled boundedness / divergence evidence for one function.

    ``bound`` and ``bound_ok`` are set only when the probed function is a
    plain monomial of the exponent monoid over the 4-dimensional region, in
    which case the sampled sup must stay below scale**degree.  Escape fields
    are set when the escape range ``16..escape_kmax`` is not empty, with
    ``escape_values`` |f| at each escape point, ascending k.  The series is
    evaluated in log form, so it never overflows: the monotone tail and the
    divergence verdict are decided on ``log2|f|``, and ``escape_values`` and
    ``escape_final_value`` are ``2**log2|f|``, ``inf`` or 0 where |f| is
    past the double range.  Always evidence, never proof.
    """

    seed: int
    region: RegionSpec
    sample_count: int
    max_abs_value: float | None
    argmax_point: tuple[float, ...] | None
    bound: float | None
    bound_ok: bool | None
    pole_count: int
    escape_k_range: tuple[int, int] | None
    escape_final_value: float | None
    escape_monotone_from_k: int | None
    monotone_tail: bool | None
    divergence: bool | None
    escape_values: tuple[float, ...] | None = field(repr=False)
    note: str = "sampled evidence; not a proof"


def _monotone_from(values: np.ndarray) -> int:
    """Smallest index from which the sequence strictly increases to the end."""
    stalls = np.flatnonzero(~(values[1:] > values[:-1]))
    return int(stalls[-1]) + 1 if len(stalls) else 0


def probe_bound(
    config: KurodaConfig, f: SparsePolynomial, spec: RegionSpec, sample_count: int, radius: float
) -> float | None:
    """Check a probe's inputs without sampling, and give its monomial bound.

    Raises ``ValueError`` when the function's variable system does not
    match the region dimension, when samples are asked for at a radius the
    samplers cannot draw from, and when the bound passes the double range.
    The bound is ``scale**degree`` when the function is a plain monomial of
    the exponent monoid over the 4-dimensional region, else ``None``.
    """
    if f.system.arity != spec.kind.dim:
        raise ValueError(
            f"{f.system.label} function does not match {spec.kind.value} region"
        )
    if sample_count > 0:
        _check_radius(radius)
    if not (
        spec.kind is RegionKind.S_PRIME4
        and f.system is System.Y4
        and f.term_count() == 1
    ):
        return None
    (exps, coeff), = f.terms()
    if coeff != 1 or not monoid_member(exps, config):
        return None
    degree = sum(exps)
    try:
        return float(spec.lam) ** degree
    except OverflowError:
        raise ValueError(
            f"the probe bound scale**{degree} at scale {spec.lam} passes the double range"
        ) from None


def boundedness_probe(
    config: KurodaConfig,
    f: SparsePolynomial,
    spec: RegionSpec,
    sample_count: int,
    seed: int,
    radius: float = 50.0,
    escape_kmax: int = 0,
) -> ProbeReport:
    """Record the sampled sup of |f| over a region and its escape behaviour.

    The function's variable system must match the region dimension (4-dim
    systems over the 4-dim region, difference polynomials over the 3-dim
    ones).  The inputs are checked by :func:`probe_bound` before any sample
    is drawn.  The escape series over ``16..escape_kmax`` uses the raw 4-dim
    escape points for 4-dim systems and the diagonal projections otherwise,
    all in base-2 log form (:func:`_escape_logs`, :func:`_projection_logs`,
    :func:`_log2_abs`): no weight makes it overflow, the verdicts come from
    ``log2|f|``, and the reported values are ``inf`` or 0 past the double
    range, never ``nan``.
    """
    bound = probe_bound(config, f, spec, sample_count, radius)
    max_abs = None
    argmax = None
    pole_count = 0
    n_samples = 0
    if sample_count > 0:
        samples = sample_region(config, spec, sample_count, seed, radius)
        values = evaluate_abs(f, samples.points)
        finite = np.isfinite(values)
        pole_count = int((~finite).sum())
        n_samples = len(samples.points)
        if finite.any():
            idx = int(np.argmax(np.where(finite, values, -np.inf)))
            max_abs = float(values[idx])
            argmax = tuple(float(x) for x in samples.points[idx])
    bound_ok = None
    if bound is not None and max_abs is not None:
        bound_ok = max_abs <= bound + 1e-9

    k_range = final = monotone_from_k = escape_values = None
    monotone_tail = divergence = None
    if escape_kmax >= ESCAPE_FIRST:
        logs = _escape_logs(ESCAPE_FIRST, escape_kmax, config)
        if f.system.arity == 4:
            log_values = _log2_abs(f, logs)
        else:
            signs, mags = _projection_logs(logs)
            log_values = _log2_abs(f, mags, signs)
        k_range = (ESCAPE_FIRST, escape_kmax)
        start = _monotone_from(log_values)
        monotone_from_k = ESCAPE_FIRST + start
        monotone_tail = (len(log_values) - start) >= max(2, len(log_values) // 4)
        divergence = bool(monotone_tail and log_values[-1] > math.log2(_DIVERGENCE_THRESHOLD))
        with np.errstate(over="ignore"):  # inf past the double range is meant
            escape_values = tuple(np.exp2(log_values).tolist())
        final = escape_values[-1]

    return ProbeReport(
        seed=seed,
        region=spec,
        sample_count=n_samples,
        max_abs_value=max_abs,
        argmax_point=argmax,
        bound=bound,
        bound_ok=bound_ok,
        pole_count=pole_count,
        escape_k_range=k_range,
        escape_final_value=final,
        escape_monotone_from_k=monotone_from_k,
        monotone_tail=monotone_tail,
        divergence=divergence,
        escape_values=escape_values,
    )


# -- sandwich check --------------------------------------------------------


def _far_zone(points: np.ndarray) -> np.ndarray:
    """The points with some coordinate of absolute value above ``FAR_ZONE_START``.

    One comparison per column: a reduction over the short row axis costs
    more than the three.
    """
    x, y, z = points.T
    far = np.abs(x) > FAR_ZONE_START
    far |= np.abs(y) > FAR_ZONE_START
    far |= np.abs(z) > FAR_ZONE_START
    return points[far]


@dataclass(frozen=True)
class SandwichReport:
    """Sampled check of the two far-zone inclusions around the basic open set.

    Direction one: points of the half-scaled fattened star (far zone only)
    must satisfy the basic open inequalities.  Direction two: far-zone points
    of the basic open set must belong to the doubled fattened star, where the
    semi-decided membership may abstain (counted, excluded, bounded share).
    """

    seed: int
    requested: int
    tolerance: float
    half_s_checked: int
    half_s_violations: int
    tilde_checked: int
    tilde_violations: int
    uncertain_count: int
    violation_examples: tuple[tuple[str, tuple[float, ...]], ...]

    @property
    def uncertain_fraction(self) -> float:
        return self.uncertain_count / self.tilde_checked if self.tilde_checked else 0.0

    @property
    def total_violations(self) -> int:
        return self.half_s_violations + self.tilde_violations


def sandwich_check(
    config: KurodaConfig,
    count: int,
    seed: int,
    radius: float = 50.0,
    tolerance: float = 1e-6,
) -> SandwichReport:
    """Run both inclusion directions on ``count`` far-zone points each.

    ``radius`` must exceed :data:`SANDWICH_MIN_RADIUS`, else no sampled
    point reaches the far zone and ``ValueError`` is raised; so is a radius
    whose double is not finite, which the samplers cannot draw from.  Each
    direction builds its batches whole and decides each by one region test,
    in row blocks; all far-zone points of the basic open set go through one
    shift search.

    :class:`SamplingError` is raised when either direction found fewer than
    ``count`` far-zone points within its candidate budget, so a run never
    passes on fewer points than it was asked to check.  The half-scaled
    points are checked with the region test :func:`inside`, in log form, so
    no bound overflows into a pass or a violation.
    """
    if not (radius > SANDWICH_MIN_RADIUS and math.isfinite(2.0 * radius)):
        raise ValueError(
            f"sandwich radius must be > {SANDWICH_MIN_RADIUS:g} with a finite double, got {radius}"
        )
    rng = np.random.default_rng(seed)
    size = max(_BATCH_MIN, count)

    def half_scaled_far(chunk):
        shift = rng.uniform(-1.0, 1.0, size=len(chunk))
        return _far_zone((chunk + shift[:, None]) / 2.0)

    star = _StarSampler(config, RegionSpec(RegionKind.S_DOUBLE_PRIME3, 1.0), radius, rng)
    half = star.draw(count, size, _SANDWICH_ROUNDS, half_scaled_far)
    tilde = _StarSampler(config, RegionSpec(RegionKind.S_TILDE3, 1.0), radius, rng)
    far = tilde.draw(count, size, _SANDWICH_ROUNDS, _far_zone)
    if len(half) < count or len(far) < count:
        raise SamplingError(
            f"sandwich checked {len(half)} half-scaled fattened-star points and "
            f"{len(far)} basic-set points of the {count} requested per direction "
            f"at radius {radius:g}"
        )
    half_bad = half[~inside(RegionKind.S_TILDE3, half, 1.0, config)]
    uncertain, outside = _band(s_shift_margins(far, 2.0, config)[0], tolerance)
    examples = [("half_s_outside_tilde", tuple(p)) for p in half_bad[:5].tolist()]
    tilde_bad = far[outside][: 20 - len(examples)]
    examples += [("tilde_outside_2s", tuple(p)) for p in tilde_bad.tolist()]

    return SandwichReport(
        seed=seed,
        requested=count,
        tolerance=tolerance,
        half_s_checked=len(half),
        half_s_violations=len(half_bad),
        tilde_checked=len(far),
        tilde_violations=int(outside.sum()),
        uncertain_count=int(uncertain.sum()),
        violation_examples=tuple(examples),
    )


# -- boundary clouds -------------------------------------------------------


# Largest (slabs x grid x grid) margin array of the cloud export, in elements:
# the x-slabs go in blocks that fit it, or one at a time on a finer grid.
_CLOUD_ELEMENTS = 2**15


@dataclass(frozen=True)
class CloudReport:
    which: RegionKind
    grid: int
    radius: float
    band: float
    points_written: int
    nan_margins: int
    path: str


def export_surface_cloud(
    config: KurodaConfig,
    which: RegionKind,
    grid: int,
    out,
    radius: float = 5.0,
    band: float = 0.25,
) -> CloudReport:
    """Write near-boundary grid points (|margin| < band) as CSV x,y,z,margin.

    Supports the 3-dimensional star and the basic open set.  The margin is
    the region's log margin at scale 1 (:func:`s_double_prime_margins`,
    :func:`s_tilde_margins`), so the zero level set is the region boundary
    and ``band`` is a band on that log margin.  The margin body runs on the
    open mesh of the grid axis, in blocks of x-slabs that fit one element
    budget; each cross term and arm softplus takes two axes only, and each
    margin has the bits of the point-list margin.  The rows come in grid
    order, x outermost, then y, then z.  A margin that is ``nan`` lies in no
    band: it is not written, and the report counts it in ``nan_margins``,
    which reads 0 on every finite grid.  ``radius`` must be > 0 with a
    finite double, else ``ValueError`` is raised.
    """
    if which not in (RegionKind.S_DOUBLE_PRIME3, RegionKind.S_TILDE3):
        raise ValueError("cloud export supports the two 3-dimensional closed-form regions")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    _check_radius(radius)
    axis = np.linspace(-radius, radius, grid)
    mesh = (axis[:, None, None], axis[None, :, None], axis[None, None, :])
    # blocks of x-slabs on the open mesh keep memory near one budget
    blocks = list(_blocks(grid, grid * grid, _CLOUD_ELEMENTS))
    if which is RegionKind.S_TILDE3:
        slabs = _tilde_slabs(mesh, 1.0, config, blocks)
    else:
        slabs = (_star_margins((mesh[0][block], *mesh[1:]), 1.0, config) for block in blocks)
    written = nan_margins = 0
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "margin"])
        for block in blocks:
            # log 0 = -inf is meant, and so is a cap square past the double range
            with np.errstate(divide="ignore", over="ignore"):
                margins = next(slabs)
            nan_margins += int(np.isnan(margins).sum())
            ix, iy, iz = np.nonzero(np.abs(margins) < band)  # x, then y, then z
            rows = np.column_stack(
                [axis[block][ix], axis[iy], axis[iz], margins[ix, iy, iz]]
            ).tolist()
            writer.writerows([f"{v:.12g}" for v in row] for row in rows)
            written += len(rows)
    return CloudReport(which, grid, float(radius), float(band), written, nan_margins, str(out))
