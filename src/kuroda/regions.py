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

Scaling is uniform: a point lies in ``lam * region`` iff ``point / lam``
lies in the region, and every predicate here divides by ``lam`` first, so
the scaling identity holds exactly in floating point.

Membership in ``S3`` quantifies over the diagonal shift and is only
semi-decided: a grid scan over the shift with two refinement rounds, and a
tolerance band that returns ``UNCERTAIN`` instead of guessing at the
boundary.  The search takes any number of points and runs in log form
(each cross bound as ``e_i*log|q_i| + e_j*log|q_j|``), so large weights
cannot overflow it; each round takes the points in blocks whose log arrays
fit one element budget, and a point's result does not depend on the other
points.  The grid round is a bounded scan: it evaluates every 32nd grid
shift, bounds each interval between them from below, and evaluates every
shift only where the bound can hold the minimum, with exactly the answer of
the full scan.  The best value is mapped back to the ordinary margin, so the
grid and the band mean what they did for one point.  Non-finite points raise
``ValueError`` rather than reading as outside, and so does a scale ``lam``
that is not finite and positive, in every predicate and margin function, and
a shift search whose shifted coordinates would pass the double range.

The margin filters and ``evaluate_abs`` form integer powers by
multiplication (square-and-multiply, and per-coordinate power tables), not
by libm ``pow``; only the samplers' fractional powers use ``pow``.  The
candidate generators are untouched, so each seed draws the same candidates,
and margins and ``|f|`` may differ from ``pow`` only in the last bits.

The escape sequence uses base-2 iterated logarithms (``lg``, ``lg lg``,
``lg lg lg``); its fourth coordinate ``1 / lglglg(k)`` drops strictly below
1 for k > 16, so membership of the sequence in the 4-dimensional region
starts at a small config-dependent threshold (17 for the standard symmetric
instance; index 16 sits exactly on the boundary).  One helper builds the
series of a probe as a single ``(len(ks), 4)`` array, and
:func:`escape_point` is a one-row call of it: the logarithms come from
``math.log2`` and the integer powers from ``float(k ** m)``, so every row
has the bits of the per-index computation in Python floats, and a power past
the double range raises ``OverflowError`` as ``float`` does.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import SparsePolynomial, System
# RegionKind, SamplingError and SANDWICH_MIN_RADIUS are defined in config and
# re-exported from here.
from .config import (  # noqa: F401
    AXES,
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


def _cross_pairs(config: KurodaConfig) -> tuple[tuple[int, int, int, int], ...]:
    """(i, j, exp_i, exp_j) for the six ordered cross bounds |y_i**e_i * y_j**e_j| < 1."""
    return tuple(
        (i, j, config.magnitude(j, i), config.magnitude(i, i))
        for i in AXES
        for j in AXES
        if i != j
    )


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


def _cross_margins(q3_abs: np.ndarray, config: KurodaConfig) -> np.ndarray:
    """Max over the six cross bounds of q_i**e_i * q_j**e_j - 1 (q prescaled, abs)."""
    margin = np.full(len(q3_abs), -np.inf)
    for i, j, ei, ej in _cross_pairs(config):
        bound = _int_power(q3_abs[:, i - 1], ei) * _int_power(q3_abs[:, j - 1], ej)
        margin = np.maximum(margin, bound - 1.0)
    return margin


def s_double_prime_margins(points, lam: float, config: KurodaConfig) -> np.ndarray:
    """Negative exactly on the inside of the scaled star."""
    _check_scale(lam)
    pts = _as_points(points, 3)
    return _cross_margins(np.abs(pts) / lam, config)


def s_prime_margins(points, lam: float, config: KurodaConfig) -> np.ndarray:
    _check_scale(lam)
    pts = _as_points(points, 4)
    margin = _cross_margins(np.abs(pts[:, :3]) / lam, config)
    return np.maximum(margin, np.abs(pts[:, 3]) / lam - 1.0)


def s_tilde_margins(points, lam: float, config: KurodaConfig) -> np.ndarray:
    """Max of the six arm/cap constraint values minus their right sides.

    Arm bound for axis i:  (q_i**(2*d_i) - 1) * (q_j - q_k)**(2*delta_ii) < 1
    Cap bound for axis i:  (q_i**2 - 1) * ((q_j + q_k)**2 - 4) < 4
    with (j, k) the other two axes and q = p / lam.
    """
    _check_scale(lam)
    pts = _as_points(points, 3)
    q = pts / lam
    d = column_minima(config)
    margin = np.full(len(q), -np.inf)
    for i in AXES:
        j, k = (t for t in AXES if t != i)
        qi, qj, qk = q[:, i - 1], q[:, j - 1], q[:, k - 1]
        arm = (_int_power(qi, 2 * d[i - 1]) - 1.0) * _int_power(
            qj - qk, 2 * config.magnitude(i, i)
        )
        s = qj + qk
        cap = (qi * qi - 1.0) * (s * s - 4.0)
        margin = np.maximum(margin, arm - _ARM_RHS)
        margin = np.maximum(margin, cap - _CAP_RHS)
    return margin


def in_s_prime(point, lam: float, config: KurodaConfig) -> bool:
    return bool(s_prime_margins(point, lam, config)[0] < 0)


def in_s_tilde(point, lam: float, config: KurodaConfig) -> bool:
    return bool(s_tilde_margins(point, lam, config)[0] < 0)


# The shift search: 1024 interior grid shifts of (-lam, lam), then two
# refinement rounds of 65 shifts around each point's best shift.
_SHIFT_GRID = 1024
_REFINE_GRID = 65
_REFINEMENTS = 2
# The grid round evaluates every _STRIDE-th grid shift and the last one (the
# interval ends), then the other shifts of the intervals whose lower bound
# can hold the minimum.
_STRIDE = 32
_ENDS = np.append(np.arange(0, _SHIFT_GRID, _STRIDE), _SHIFT_GRID - 1)
# Taken off every log|q| of an interval's lower bound: far more than the
# few units in the last place by which np.log may round out of order, since
# |log|q|| stays below 1500 for finite q and scale.
_LOG_SLACK = 1e-9
# Largest (3 x rows x shifts) log arrays alive at once in the shift search, in
# elements: each round takes the rows of a call in blocks that fit it, and the
# grid round its surviving intervals too, so memory does not grow with the
# number of rows.
_SHIFT_ELEMENTS = 3 * 16 * 1024


def _row_blocks(count: int, width: int):
    """Slices of ``count`` rows in blocks whose (3 x rows x width) array fits the budget."""
    step = max(1, _SHIFT_ELEMENTS // (3 * width))
    return (slice(start, start + step) for start in range(0, count, step))


def _shifted_logs(coords: np.ndarray, shifts: np.ndarray, log_lam: float) -> np.ndarray:
    """``log|p_c - a| - log(lam)`` for coordinates (3 x rows x 1) and shifts (rows x k or k)."""
    # in place, to keep the temporaries near one (3 x rows x shifts) array
    logq = np.subtract(coords, shifts)
    np.abs(logq, out=logq)
    # a coordinate hit exactly by the shift gives log 0 = -inf, margin -1
    with np.errstate(divide="ignore"):
        np.log(logq, out=logq)
    logq -= log_lam
    return logq


def _cross_max(logq: np.ndarray, pairs) -> np.ndarray:
    """Max over the cross bounds of ``e_i*logq_i + e_j*logq_j``, elementwise."""
    values = None
    for i, j, ei, ej in pairs:
        term = ei * logq[i - 1]
        term += ej * logq[j - 1]
        values = term if values is None else np.maximum(values, term, out=values)
    return values


def _row_linspace(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """``np.linspace(lo[r], hi[r], num)`` for each row r, as a (rows x num) array.

    On arrays ``np.linspace`` takes its ``step == 0`` branch (a span so small
    that ``span / (num - 1)`` underflows) for the whole batch when one row
    needs it, which moves the other rows' last bits; here each row takes the
    branch a one-row call would take.
    """
    div = num - 1
    delta = hi - lo
    step = delta / div
    y = np.arange(num, dtype=float)
    shifts = y * step[:, None]
    zero = step == 0
    if zero.any():
        shifts[zero] = (y / div) * delta[zero, None]
    shifts += lo[:, None]
    shifts[:, -1] = hi
    return shifts


def _grid_round(coords: np.ndarray, grid: np.ndarray, pairs, log_lam: float):
    """First minimum (value, shift) of the log-form margin over the grid, per row.

    ``coords`` is a (3 x rows x 1) block.  Gives the value and shift that
    ``argmin`` over all grid shifts gives; see :func:`s_shift_margins`.
    """
    n = coords.shape[1]
    logq = _shifted_logs(coords, grid[_ENDS], log_lam)
    at_ends = _cross_max(logq, pairs)
    # the end and bound logs go before the surviving intervals' logs come,
    # so no more than one budget of logs is alive at a time
    lower = np.minimum(logq[:, :, :-1], logq[:, :, 1:])
    del logq
    lower -= _LOG_SLACK
    lower[(grid[_ENDS[:-1]] <= coords) & (coords <= grid[_ENDS[1:]])] = -np.inf
    rows, cells = np.nonzero(_cross_max(lower, pairs) <= at_ends.min(axis=1)[:, None])
    del lower
    inner = np.full((n, len(_ENDS) - 1), np.inf)
    inner_idx = np.zeros(inner.shape, dtype=np.intp)
    # the shifts of interval k after its first end; the last interval's
    # include its other end, which changes neither value nor first index
    interiors = grid.reshape(-1, _STRIDE)[:, 1:]
    for block in _row_blocks(len(rows), _STRIDE - 1):
        r, c = rows[block], cells[block]
        values = _cross_max(_shifted_logs(coords[:, r], interiors[c], log_lam), pairs)
        first = values.argmin(axis=1)
        inner[r, c] = values[np.arange(len(r)), first]
        inner_idx[r, c] = _ENDS[c] + 1 + first
    # candidates in grid order: end 0, interval 0, end 1, ..., interval 31, end 32
    cand = np.empty((n, 2 * len(_ENDS) - 1))
    cand[:, 0::2] = at_ends
    cand[:, 1::2] = inner
    cand_idx = np.empty(cand.shape, dtype=np.intp)
    cand_idx[:, 0::2] = _ENDS
    cand_idx[:, 1::2] = inner_idx
    col = cand.argmin(axis=1)
    k = np.arange(n)
    return cand[k, col], grid[cand_idx[k, col]]


def _refine(coords, best, best_a, spacing, lam: float, pairs, log_lam: float):
    """The refinement rounds on one (3 x rows x 1) block, from the grid round's best."""
    k = np.arange(len(best))
    for _ in range(_REFINEMENTS):
        lo = np.maximum(best_a - spacing, -lam)
        hi = np.minimum(best_a + spacing, lam)
        shifts = _row_linspace(lo, hi, _REFINE_GRID)
        spacing = shifts[:, 1] - shifts[:, 0]
        values = _cross_max(_shifted_logs(coords, shifts, log_lam), pairs)
        idx = values.argmin(axis=1)
        found = values[k, idx]
        better = found < best
        best = np.where(better, found, best)
        best_a = np.where(better, shifts[k, idx], best_a)
    return best, best_a


def s_shift_margins(points, lam: float, config: KurodaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Best (lowest) star margin of ``point - (a,a,a)`` over shifts |a| < lam, per point.

    Each row is searched on its own: the interior grid of the shift interval,
    then refinement rounds around that row's best shift.  The search runs in
    log form, the max over the cross bounds of ``e_i*log|q_i| + e_j*log|q_j|``
    with ``log|q| = log|p - a| - log(lam)``: no power is formed, so large
    weights cannot overflow it.  The best value goes back through ``expm1``,
    so each margin is the star margin of :func:`s_double_prime_margins` at
    the best shift.  Returns (margins, shifts), one entry per row; a negative
    margin certifies membership of the point in the fattened star.  A row's
    result does not depend on the other rows of the call.
    Non-finite coordinates and a scale that is not finite and positive raise
    ``ValueError`` rather than reading as outside, and so do points and a
    scale whose shifted coordinates ``p - a`` or grid could pass the double
    range (``max|p| + lam`` or ``2*lam`` not finite).

    The grid round is a bounded scan with exactly the full scan's answer.
    Call ``F(a)`` the log-form value at shift ``a``.  ``F`` is evaluated at
    every 32nd grid shift and the last one (the ends); each interval between
    two ends gets a lower bound, ``F`` of the smaller end ``log|q_c|`` per
    coordinate less a slack of 1e-9, or ``-inf`` for a coordinate whose
    ``p_c`` lies in the interval (its pole).  Every grid shift is evaluated
    only in the intervals whose bound does not exceed the best end value,
    and the first minimum over grid index is taken, as ``np.argmin`` does.
    Why this is exact:

    * on an interval without a pole, ``fl(p_c - a)`` is monotone in ``a``
      and keeps its sign, so ``|fl(p_c - a)|`` is at least its value at
      one of the two ends; ``-log(lam)``, the weights ``e >= 1``, ``+``
      and ``max`` are monotone in floating point too, so ``F`` on the
      interval is at least the bound as long as ``np.log`` rounds out of
      order by less than the slack (a few units in the last place of a
      value below 1500 in size, against 1e-9);
    * overflow is rejected up front, so no value is ``nan`` and these
      comparisons mean what they say;
    * every end is a grid shift, so a pruned interval holds only shifts
      whose ``F`` is strictly above the best end value, hence above the
      grid minimum: the minimum and its first index lie among the shifts
      evaluated, and ``best`` and ``best_a`` keep their bits.
    """
    pts = _as_points(points, 3)
    if not np.isfinite(pts).all():
        raise ValueError("the shift search needs finite coordinates")
    _check_scale(lam)
    reach = float(np.abs(pts).max(initial=0.0)) + float(lam)
    if not (math.isfinite(2.0 * lam) and math.isfinite(reach)):
        raise ValueError(
            f"the shift search at scale {lam} passes the double range (max |p| + scale = {reach})"
        )
    coords = pts.T[:, :, None]
    pairs = _cross_pairs(config)
    log_lam = math.log(lam)
    grid = np.linspace(-lam, lam, _SHIFT_GRID + 2)[1:-1]
    best = np.empty(len(pts))
    best_a = np.empty(len(pts))
    # per row, a refinement round holds the logs of 65 shifts, and the grid
    # round those of its 33 ends and 32 interval bounds
    for block in _row_blocks(len(pts), _REFINE_GRID):
        found, shift = _grid_round(coords[:, block], grid, pairs, log_lam)
        best[block], best_a[block] = _refine(
            coords[:, block], found, shift, grid[1] - grid[0], lam, pairs, log_lam
        )
    return np.expm1(best), best_a


def in_s(
    point, lam: float, config: KurodaConfig, tolerance: float = 1e-6
) -> Verdict:
    """Semi-decision of membership in the fattened star (see module notes)."""
    margin = s_shift_margins(point, lam, config)[0][0]
    if abs(margin) <= tolerance:
        return Verdict.UNCERTAIN
    return Verdict.IN if margin < 0 else Verdict.OUT


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


def _escape_series(ks: Sequence[int], config: KurodaConfig, axis: int = 1) -> np.ndarray:
    """The escape points of the indices ``ks``, one row ``y`` each: a ``(len(ks), 4)`` array.

    The logarithms come from ``math.log2`` and each integer power is the
    correctly rounded ``float(k ** m)``; the products and divisions are
    whole-array ops.  So every row has the bits of a per-index computation
    in Python floats, and a power past the double range raises
    ``OverflowError("int too large to convert to float")`` as ``float`` does.
    """
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool) or k < 16:
            raise ValueError(f"escape index must be an integer >= 16, got {k!r}")
    if axis not in AXES:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")

    def powers(m: int) -> np.ndarray:
        return np.array([float(k ** m) for k in ks])

    lg1 = list(map(math.log2, map(float, ks)))
    lg2 = list(map(math.log2, lg1))
    lg3 = list(map(math.log2, lg2))
    lg1, lg2, lg3 = np.array(lg1), np.array(lg2), np.array(lg3)
    other1, other2 = (j for j in AXES if j != axis)
    rows = np.empty((len(ks), 4))
    rows[:, 3] = 1.0 / lg3
    rows[:, axis - 1] = powers(config.magnitude(axis, axis))
    # a product past the double range is inf and its reciprocal 0, silently,
    # as in Python float arithmetic
    with np.errstate(over="ignore"):
        rows[:, other1 - 1] = 1.0 / (powers(config.magnitude(other1, axis)) * lg1)
        rows[:, other2 - 1] = 1.0 / (powers(config.magnitude(other2, axis)) * lg2)
    return rows


def escape_point(k: int, config: KurodaConfig, axis: int = 1) -> EscapePoint:
    """The k-th escape point and its diagonal projection.

    With the default dominant axis 1 the coordinates are ``(k**d11,
    1/(k**d21 * lg k), 1/(k**d31 * lglg k), 1/lglglg k)`` with base-2
    logarithms; requires k >= 16 so the triple logarithm is defined and
    positive.  ``axis`` relabels which coordinate dominates (the remaining
    two take the single- and double-log damping in ascending axis order).
    One row of :func:`_escape_series`.
    """
    point = tuple(_escape_series([k], config, axis)[0].tolist())
    return EscapePoint(k, point, diagonal_projection(point))


def escape_threshold(config: KurodaConfig, lam: float = 1.0, k_limit: int = 10**6) -> int:
    """Smallest k >= 16 whose escape point lies in the scaled 4-dim region."""
    for k in range(16, k_limit + 1):
        if in_s_prime(escape_point(k, config).y, lam, config):
            return k
    raise ValueError(f"no escape point enters the region below k = {k_limit}")


# -- stratified samplers ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Accepted sample points and the candidates drawn and accepted per stratum."""

    points: np.ndarray
    strata: dict[str, dict[str, int]]

    def count(self) -> int:
        return len(self.points)


class _StarSampler:
    """Candidate generator for the 3- and 4-dimensional cross-bound regions."""

    def __init__(self, config: KurodaConfig, spec: RegionSpec, radius: float, rng):
        self.config = config
        self.spec = spec
        self.radius = float(radius)
        self.rng = rng
        self.dim = spec.kind.dim
        self.stats = {
            "box": {"candidates": 0, "accepted": 0},
            "core": {"candidates": 0, "accepted": 0},
            "ray": {"candidates": 0, "accepted": 0},
        }

    def _margins(self, pts: np.ndarray) -> np.ndarray:
        if self.spec.kind is RegionKind.S_PRIME4:
            return s_prime_margins(pts, self.spec.lam, self.config)
        if self.spec.kind is RegionKind.S_TILDE3:
            return s_tilde_margins(pts, self.spec.lam, self.config)
        return s_double_prime_margins(pts, self.spec.lam, self.config)

    def _box(self, n: int, half_width: float) -> np.ndarray:
        return self.rng.uniform(-half_width, half_width, size=(n, self.dim))

    def _ray_star(self, n: int) -> np.ndarray:
        lam, cfg = self.spec.lam, self.config
        axis = self.rng.integers(1, 4, size=n)
        sign = self.rng.integers(0, 2, size=n) * 2.0 - 1.0
        t = self.rng.uniform(lam, self.radius, size=n)
        pts = np.zeros((n, self.dim))
        columns = pts.T
        v = t / lam
        for a in AXES:
            idx = np.flatnonzero(axis == a)
            if not len(idx):
                continue
            va = v[idx]
            columns[a - 1][idx] = sign[idx] * t[idx]
            for j in (x for x in AXES if x != a):
                e_fwd = cfg.magnitude(j, a) / cfg.magnitude(a, a)
                e_rev = cfg.magnitude(j, j) / cfg.magnitude(a, j)
                bound = lam * np.minimum(0.5, np.minimum(va ** -e_fwd, va ** -e_rev)) * 0.999
                columns[j - 1][idx] = self.rng.uniform(-1.0, 1.0, size=len(idx)) * bound
        if self.dim == 4:
            columns[3] = self.rng.uniform(-lam, lam, size=n)
        return pts

    def _ray_tilde(self, n: int) -> np.ndarray:
        lam, cfg = self.spec.lam, self.config
        d = column_minima(cfg)
        axis = self.rng.integers(1, 4, size=n)
        sign = self.rng.integers(0, 2, size=n) * 2.0 - 1.0
        t = self.rng.uniform(lam * (1 + 1e-9), self.radius, size=n)
        pts = np.zeros((n, 3))
        columns = pts.T
        for a in AXES:
            idx = np.flatnonzero(axis == a)
            m = len(idx)
            if not m:
                continue
            ta = t[idx]
            va = ta / lam
            arm_factor = va ** (2 * d[a - 1]) - 1.0
            bound_w = lam * np.minimum(
                0.5, (_ARM_RHS / arm_factor) ** (1.0 / (2 * cfg.magnitude(a, a)))
            ) * 0.999
            s_sq = 4.0 + _CAP_RHS / (va**2 - 1.0)
            bound_s = np.minimum(lam * np.sqrt(np.maximum(s_sq, 0.0)) * 0.999, 1.9 * lam)
            w = self.rng.uniform(-1.0, 1.0, size=m) * bound_w
            s = self.rng.uniform(-1.0, 1.0, size=m) * bound_s
            j, k = (x for x in AXES if x != a)
            columns[a - 1][idx] = sign[idx] * ta
            columns[j - 1][idx] = (s + w) / 2.0
            columns[k - 1][idx] = (s - w) / 2.0
        return pts

    def batch(self, size: int) -> np.ndarray:
        """One candidate round: box, core-box and ray strata, exact filtering."""
        lam = self.spec.lam
        rays_possible = self.radius > lam
        n_box = max(size // 5, 1)
        n_core = max(size // 5, 1)
        n_ray = max(size - n_box - n_core, 1) if rays_possible else 0
        if not rays_possible:
            n_box = size
        chunks = []
        for name, n, draw in (
            ("box", n_box, lambda n: self._box(n, self.radius)),
            ("core", n_core, lambda n: self._box(n, lam)),
            ("ray", n_ray, self._ray_tilde if self.spec.kind is RegionKind.S_TILDE3 else self._ray_star),
        ):
            if n <= 0:
                continue
            cand = draw(n)
            keep = cand[self._margins(cand) < 0]
            self.stats[name]["candidates"] += n
            self.stats[name]["accepted"] += len(keep)
            chunks.append(keep)
        return np.vstack(chunks) if chunks else np.zeros((0, self.dim))

    def collect(self, count: int, cap_candidates: int) -> np.ndarray:
        accepted: list[np.ndarray] = []
        total = 0
        drawn = 0
        batch_size = int(min(max(4096, count), 200_000))
        while total < count and drawn < cap_candidates:
            chunk = self.batch(batch_size)
            drawn += batch_size
            if len(chunk):
                accepted.append(chunk)
                total += len(chunk)
        if total == 0:
            raise SamplingError(
                f"no {self.spec.kind.value} sample accepted after {drawn} candidates"
            )
        return np.vstack(accepted)[:count]


def sample_region(
    config: KurodaConfig,
    spec: RegionSpec,
    count: int,
    seed: int,
    radius: float,
) -> SampleSet:
    """Stratified rejection sampling of a region; deterministic per seed.

    Every returned point satisfies the region predicate exactly as evaluated
    (candidates from all strata pass through the same margin filter).  The
    fattened star is sampled constructively: star samples plus a uniform
    diagonal shift.  ``radius`` must be finite and positive, else
    ``ValueError`` is raised; so is a radius whose double is not finite,
    since the box stratum draws from an interval of width ``2*radius``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not (radius > 0 and math.isfinite(2.0 * radius)):
        raise ValueError(f"sampling radius must be > 0 with a finite double, got {radius}")
    rng = np.random.default_rng(seed)
    kind = spec.kind
    base_spec = (
        RegionSpec(RegionKind.S_DOUBLE_PRIME3, spec.lam) if kind is RegionKind.S3 else spec
    )
    sampler = _StarSampler(config, base_spec, radius, rng)
    if count == 0:
        points = np.zeros((0, kind.dim))
    else:
        points = sampler.collect(count, max(500_000, 200 * count))
        if kind is RegionKind.S3:
            shift = rng.uniform(-spec.lam, spec.lam, size=len(points))
            points = points + shift[:, None]
    return SampleSet(points, sampler.stats)


# -- probes ----------------------------------------------------------------


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


# Largest (terms x rows) temporary of evaluate_abs, in elements (32 MiB of
# float64): the rows are evaluated in blocks that fit it.
_EVAL_BLOCK_ELEMENTS = 2**22


def evaluate_abs(f: SparsePolynomial, pts: np.ndarray) -> np.ndarray:
    """|f| at each row of ``pts``; overflow comes out non-finite.

    The rows go in blocks of at most ``_EVAL_BLOCK_ELEMENTS // terms``; each
    row's value does not depend on the block it is in.
    """
    if pts.shape[1] != f.system.arity:
        raise ValueError(
            f"points of dimension {pts.shape[1]} do not match {f.system.label}"
        )
    if f.is_zero():
        return np.zeros(len(pts))
    pts = np.asarray(pts, dtype=float)
    exps = np.array(f.support())
    coeffs = np.array([float(f.coefficient(e)) for e in f.support()])
    columns = [np.unique(column, return_inverse=True) for column in exps.T]
    block_rows = max(1, _EVAL_BLOCK_ELEMENTS // len(coeffs))
    values = np.empty(len(pts))
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, len(pts), block_rows):
            block = pts[start:start + block_rows]
            product = None
            for x, (used, idx) in zip(block.T, columns):
                factor = np.take(_power_table(x, used), idx, axis=0)  # terms x rows
                if product is None:
                    product = factor
                else:
                    product *= factor
            product *= coeffs[:, None]
            # sum a C-ordered (rows x terms) array, as the pow form did, so the
            # pairwise summation adds the terms in the same order
            values[start:start + block_rows] = np.ascontiguousarray(product.T).sum(axis=1)
    return np.abs(values)


@dataclass(frozen=True)
class ProbeReport:
    """Sampled boundedness / divergence evidence for one function.

    ``bound`` and ``bound_ok`` are set only when the probed function is a
    plain monomial of the exponent monoid over the 4-dimensional region, in
    which case the sampled sup must stay below scale**degree.  Escape fields
    are set when escape indices were supplied; ``escape_values`` holds |f|
    at each escape point, ascending k.  Always evidence, never proof.
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


def _monotone_from(values: list[float]) -> int:
    """Smallest index from which the sequence strictly increases to the end."""
    idx = len(values) - 1
    while idx > 0 and values[idx] > values[idx - 1]:
        idx -= 1
    return idx


def boundedness_probe(
    config: KurodaConfig,
    f: SparsePolynomial,
    spec: RegionSpec,
    sample_count: int,
    seed: int,
    radius: float = 50.0,
    escape_ks: Sequence[int] | None = None,
    divergence_threshold: float = 1e3,
) -> ProbeReport:
    """Record the sampled sup of |f| over a region and its escape behaviour.

    The function's variable system must match the region dimension (4-dim
    systems over the 4-dim region, difference polynomials over the 3-dim
    ones).  Escape evaluation uses the raw 4-dim escape points for 4-dim
    systems and the diagonal projections otherwise.
    """
    if f.system.arity != spec.kind.dim:
        raise ValueError(
            f"{f.system.label} function does not match {spec.kind.value} region"
        )
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

    bound = bound_ok = None
    if (
        spec.kind is RegionKind.S_PRIME4
        and f.system is System.Y4
        and f.term_count() == 1
    ):
        (exps, coeff), = f.terms()
        if coeff == 1 and monoid_member(exps, config):
            bound = float(spec.lam) ** sum(exps)
            if max_abs is not None:
                bound_ok = max_abs <= bound + 1e-9

    k_range = final = monotone_from_k = escape_values = None
    monotone_tail = divergence = None
    if escape_ks:
        ks = sorted(int(k) for k in escape_ks)
        pts = _escape_series(ks, config)
        if f.system.arity != 4:
            pts = pts[:, :3] - pts[:, 3:]  # the diagonal projections
        values = evaluate_abs(f, pts).tolist()
        k_range = (ks[0], ks[-1])
        final = values[-1]
        start = _monotone_from(values)
        monotone_from_k = ks[start]
        monotone_tail = (len(ks) - start) >= max(2, len(ks) // 4)
        divergence = bool(monotone_tail and final > divergence_threshold)
        escape_values = tuple(values)

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


def _in_far_zone(points: np.ndarray) -> np.ndarray:
    """Mask of points with some coordinate of absolute value above 2."""
    return (np.abs(points) > 2.0).any(axis=1)


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
    whose double is not finite, which the samplers cannot draw from.  All
    far-zone points of the basic open set go through one shift search.

    :class:`SamplingError` is raised when either direction found fewer than
    ``count`` far-zone points within its candidate budget (at huge radii the
    margin filters overflow and reject every candidate), so a run never
    passes on fewer points than it was asked to check.
    """
    if not (radius > SANDWICH_MIN_RADIUS and math.isfinite(2.0 * radius)):
        raise ValueError(
            f"sandwich radius must be > {SANDWICH_MIN_RADIUS:g} with a finite double, got {radius}"
        )
    rng = np.random.default_rng(seed)
    examples: list[tuple[str, tuple[float, ...]]] = []

    star = _StarSampler(
        config, RegionSpec(RegionKind.S_DOUBLE_PRIME3, 1.0), radius, rng
    )
    half_checked = 0
    half_violations = 0
    guard = 0
    while half_checked < count and guard < 400:
        guard += 1
        chunk = star.batch(max(4096, count))
        if not len(chunk):
            continue
        shift = rng.uniform(-1.0, 1.0, size=len(chunk))
        points = (chunk + shift[:, None]) / 2.0
        points = points[_in_far_zone(points)]
        if not len(points):
            continue
        points = points[: count - half_checked]
        margins = s_tilde_margins(points, 1.0, config)
        bad = margins >= 0
        half_checked += len(points)
        half_violations += int(bad.sum())
        for p in points[bad][:5]:
            examples.append(("half_s_outside_tilde", tuple(float(x) for x in p)))

    tilde = _StarSampler(config, RegionSpec(RegionKind.S_TILDE3, 1.0), radius, rng)
    far: list[np.ndarray] = []
    tilde_checked = 0
    guard = 0
    while tilde_checked < count and guard < 400:
        guard += 1
        chunk = tilde.batch(max(4096, count))
        chunk = chunk[_in_far_zone(chunk)][: count - tilde_checked]
        far.append(chunk)
        tilde_checked += len(chunk)
    if half_checked < count or tilde_checked < count:
        raise SamplingError(
            f"sandwich checked {half_checked} half-scaled fattened-star points and "
            f"{tilde_checked} basic-set points of the {count} requested per direction "
            f"at radius {radius:g}"
        )
    far_points = np.vstack(far) if far else np.zeros((0, 3))
    margins = s_shift_margins(far_points, 2.0, config)[0]
    # the verdicts of in_s: UNCERTAIN within the band, else IN below 0, else OUT
    uncertain = np.abs(margins) <= tolerance
    outside = ~uncertain & ~(margins < 0)
    for p in far_points[outside][: max(0, 20 - len(examples))]:
        examples.append(("tilde_outside_2s", tuple(float(x) for x in p)))

    return SandwichReport(
        seed=seed,
        requested=count,
        tolerance=tolerance,
        half_s_checked=half_checked,
        half_s_violations=half_violations,
        tilde_checked=tilde_checked,
        tilde_violations=int(outside.sum()),
        uncertain_count=int(uncertain.sum()),
        violation_examples=tuple(examples),
    )


# -- boundary clouds -------------------------------------------------------


@dataclass(frozen=True)
class CloudReport:
    which: RegionKind
    grid: int
    radius: float
    band: float
    points_written: int
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

    Supports the 3-dimensional star and the basic open set; the margin is
    the max constraint value, so the zero level set is the region boundary.
    """
    if which not in (RegionKind.S_DOUBLE_PRIME3, RegionKind.S_TILDE3):
        raise ValueError("cloud export supports the two 3-dimensional closed-form regions")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    margins_of = s_double_prime_margins if which is RegionKind.S_DOUBLE_PRIME3 else s_tilde_margins
    axis = np.linspace(-radius, radius, grid)
    ys, zs = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    written = 0
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "margin"])
        for x in axis:  # one x-slab at a time keeps memory O(grid**2)
            pts = np.stack([np.full(ys.size, x), ys, zs], axis=1)
            margins = margins_of(pts, 1.0, config)
            mask = np.abs(margins) < band
            rows = np.column_stack([pts[mask], margins[mask]]).tolist()
            writer.writerows([f"{v:.12g}" for v in row] for row in rows)
            written += len(rows)
    return CloudReport(which, grid, float(radius), float(band), written, str(out))
