"""Reference helpers that only the tests use.

Each one is a plain restatement of something the package computes another
way, or a convenience for writing test polynomials; none is reached by the
CLI, the demos or the benchmark, so none lives in ``src``.
"""

import csv
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from kuroda.algebra import (
    _AXIS_POSITIONS,
    VARIABLE_NAMES,
    SparsePolynomial,
    System,
    SystemMismatchError,
    _shear,
    ambient_columns,
    expand_pi_to_y,
)
from kuroda.config import AXES, KurodaConfig, column_minima
from kuroda.membership import GeneratorList, monoid_member
from kuroda.config import RegionKind, SamplingError
from kuroda.regions import (
    RegionSpec,
    SampleSet,
    SandwichReport,
    _as_points,
    _check_scale,
    _cross_pairs,
    _power_table,
    _StarSampler,
    inside,
    s_double_prime_margins,
    s_shift_margins,
    s_tilde_margins,
)


def pi_variable(i: int) -> SparsePolynomial:
    return SparsePolynomial.variable(System.PI3, i)


def y_variable(i: int) -> SparsePolynomial:
    return SparsePolynomial.variable(System.Y4, i)


def axis_to_pi(g: SparsePolynomial, axis: int) -> SparsePolynomial:
    """Inverse of :func:`kuroda.algebra.reexpress_for_axis`."""
    if g.system is not System.AXIS3:
        raise SystemMismatchError("axis_to_pi expects an AXIS3 polynomial")
    if axis not in _AXIS_POSITIONS:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return _shear(g, (0, 1, 2), _AXIS_POSITIONS[axis], System.PI3)


def evaluate_continued_fraction(quotients: Sequence[int]) -> Fraction:
    """Exact value of a finite continued fraction [q1; q2, ..., qM]."""
    if not quotients:
        raise ValueError("empty continued fraction")
    acc = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        acc = q + 1 / acc
    return acc


def combinations_reach(
    generators: Iterable[tuple[int, int, int, int]], degree_bound: int
) -> set[tuple[int, int, int, int]]:
    """All nonzero nonnegative-integer combinations of ``generators`` with degree <= bound.

    Breadth-first closure under adding one generator at a time.
    """
    reached = {(0, 0, 0, 0)}
    frontier = [(0, 0, 0, 0)]
    gens = tuple(generators)
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple(b + e for b, e in zip(base, g))
            if sum(nxt) <= degree_bound and nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    reached.discard((0, 0, 0, 0))
    return reached


def polynomial_to_text_via_fractions(p: SparsePolynomial) -> str:
    """:func:`kuroda.polynomial_to_text` restated on the ``Fraction`` terms of ``p``."""
    if p.is_zero():
        return "0"
    names = VARIABLE_NAMES[p.system]
    pieces = []
    for idx, (exps, coeff) in enumerate(p.terms()):
        parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        mag = abs(coeff)
        if not parts:
            rendered = str(mag)
        else:
            body = "*".join(parts)
            rendered = body if mag == 1 else f"{mag}*{body}"
        if idx == 0:
            pieces.append(rendered if coeff > 0 else f"-{rendered}")
        else:
            pieces.append(f"+ {rendered}" if coeff > 0 else f"- {rendered}")
    return " ".join(pieces)


def oracle_violations_by_column_sums(
    f: SparsePolynomial, config: KurodaConfig
) -> tuple[tuple[int, int, int, int], ...]:
    """:func:`kuroda.membership.oracle_violations` over the sorted support.

    Every monomial of the ``Y4`` expansion, in lex order, is tested with one
    ``sum(map(mul, n, column))`` per ambient column.
    """
    columns = ambient_columns(config)
    return tuple(
        n for n in expand_pi_to_y(f).support()
        if any(sum(map(mul, n, column)) < 0 for column in columns)
    )


def sieve_over_four_coordinates(config: KurodaConfig, degree_bound: int) -> GeneratorList:
    """:func:`kuroda.enumerate_t_generators` as a sieve over all of ``N^4``.

    Every vector of degree <= bound is tested against :func:`monoid_member`'s
    inequalities, ``n4`` included, and kept unless ``n - g`` is a member for
    a generator ``g`` kept before it.
    """
    members: set[tuple[int, int, int, int]] = set()
    generators: list[tuple[int, int, int, int]] = []
    for degree in range(1, degree_bound + 1):
        for n1 in range(degree + 1):
            for n2 in range(degree + 1 - n1):
                for n3 in range(degree + 1 - n1 - n2):
                    n = (n1, n2, n3, degree - n1 - n2 - n3)
                    if not monoid_member(n, config):
                        continue
                    members.add(n)
                    if not any(
                        tuple(a - b for a, b in zip(n, g)) in members for g in generators
                    ):
                        generators.append(n)
    growing = any(sum(g) == degree_bound for g in generators)
    return GeneratorList(degree_bound, tuple(generators), growing)


def escape_rows_one_by_one(ks: Sequence[int], config: KurodaConfig) -> np.ndarray:
    """The escape points ``y`` of ``ks`` as rows, each computed on its own in Python floats.

    Raises the first error that a single index raises, in the order of ``ks``.
    """
    rows = []
    for k in ks:
        lg1 = math.log2(float(k))
        lg2 = math.log2(lg1)
        lg3 = math.log2(lg2)
        rows.append([
            float(k ** config.magnitude(1, 1)),
            1.0 / (k ** config.magnitude(2, 1) * lg1),
            1.0 / (k ** config.magnitude(3, 1) * lg2),
            1.0 / lg3,
        ])
    return np.array(rows, dtype=float).reshape(len(rows), 4)


def ray_star_by_masks(sampler, n: int) -> np.ndarray:
    """``_StarSampler._ray_star`` with a boolean mask per stratum: the same draws in the same order.

    Every power is a plain ``**``, so libm ``pow`` runs on every element,
    also where its result underflows to 0.
    """
    lam, cfg, rng = sampler.spec.lam, sampler.config, sampler.rng
    axis = rng.integers(1, 4, size=n)
    sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
    t = rng.uniform(lam, sampler.radius, size=n)
    pts = np.zeros((n, sampler.dim))
    v = t / lam
    for a in AXES:
        mask = axis == a
        if not mask.any():
            continue
        pts[mask, a - 1] = sign[mask] * t[mask]
        for j in (x for x in AXES if x != a):
            e_fwd = cfg.magnitude(j, a) / cfg.magnitude(a, a)
            e_rev = cfg.magnitude(j, j) / cfg.magnitude(a, j)
            bound = lam * np.minimum(
                0.5, np.minimum(v[mask] ** -e_fwd, v[mask] ** -e_rev)
            ) * 0.999
            pts[mask, j - 1] = rng.uniform(-1.0, 1.0, size=mask.sum()) * bound
    if sampler.dim == 4:
        pts[:, 3] = rng.uniform(-lam, lam, size=n)
    return pts


def ray_tilde_by_masks(sampler, n: int) -> np.ndarray:
    """``_StarSampler._ray_tilde`` with a boolean mask per stratum: the same draws in the same order.

    Every power is a plain ``**``, so libm ``pow`` runs on every element,
    also where its result overflows to inf.
    """
    lam, cfg, rng = sampler.spec.lam, sampler.config, sampler.rng
    d = column_minima(cfg)
    axis = rng.integers(1, 4, size=n)
    sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
    t = rng.uniform(lam * (1 + 1e-9), sampler.radius, size=n)
    pts = np.zeros((n, 3))
    for a in AXES:
        mask = axis == a
        if not mask.any():
            continue
        m = mask.sum()
        ta = t[mask]
        va = ta / lam
        arm_factor = va ** (2 * d[a - 1]) - 1.0
        bound_w = lam * np.minimum(
            0.5, (1.0 / arm_factor) ** (1.0 / (2 * cfg.magnitude(a, a)))
        ) * 0.999
        s_sq = 4.0 + 4.0 / (va**2 - 1.0)
        bound_s = np.minimum(lam * np.sqrt(np.maximum(s_sq, 0.0)) * 0.999, 1.9 * lam)
        w = rng.uniform(-1.0, 1.0, size=m) * bound_w
        s = rng.uniform(-1.0, 1.0, size=m) * bound_s
        j, k = (x for x in AXES if x != a)
        pts[mask, a - 1] = sign[mask] * ta
        pts[mask, j - 1] = (s + w) / 2.0
        pts[mask, k - 1] = (s - w) / 2.0
    return pts


def shift_margins_full_scan(points, lam: float, config: KurodaConfig) -> tuple[np.ndarray, np.ndarray]:
    """A grid search for :func:`kuroda.regions.s_shift_margins`' question, in log form.

    All 1024 interior grid shifts of ``(-lam, lam)`` are evaluated for every
    row, then two refinement rounds of 65 shifts around the row's best, with
    ``np.linspace`` over the whole batch.  The refinement reaches ``-lam``
    and ``lam`` themselves, which are no shifts: every round reads a shift
    with ``|a| >= lam`` as ``inf``, as ``s_shift_margins`` does.  Returns
    (margins, shifts) as ``s_shift_margins`` does, the margins in log form.
    A negative margin is shown by its shift, so the interval search must
    never answer OUT where this scan answers IN.
    """
    pts = _as_points(points, 3)
    if not np.isfinite(pts).all():
        raise ValueError("the shift search needs finite coordinates")
    _check_scale(lam)
    rows = np.arange(len(pts))
    coords = pts.T[:, :, None]
    pairs = _cross_pairs(config)
    log_lam = math.log(lam)
    grid = np.linspace(-lam, lam, 1026)[1:-1]
    shifts = np.broadcast_to(grid, (len(pts), 1024))
    best = np.full(len(pts), np.inf)
    best_a = np.zeros(len(pts))
    for round_ in range(3):
        if round_:
            lo = np.maximum(best_a - spacing, -lam)
            hi = np.minimum(best_a + spacing, lam)
            shifts = np.linspace(lo, hi, 65, axis=1)
        spacing = shifts[:, 1] - shifts[:, 0]
        logq = np.subtract(coords, shifts)
        np.abs(logq, out=logq)
        with np.errstate(divide="ignore"):
            np.log(logq, out=logq)
        logq -= log_lam
        values = None
        for i, j, ei, ej in pairs:
            term = ei * logq[i - 1]
            term += ej * logq[j - 1]
            values = term if values is None else np.maximum(values, term, out=values)
        values[~(np.abs(shifts) < lam)] = np.inf
        idx = values.argmin(axis=1)
        found = values[rows, idx]
        better = found < best
        best = np.where(better, found, best)
        best_a = np.where(better, shifts[rows, idx], best_a)
    return best, best_a


def surface_cloud_by_slabs(config: KurodaConfig, which: RegionKind, grid: int, out,
                           radius: float = 5.0, band: float = 0.25) -> int:
    """:func:`kuroda.export_surface_cloud` one x-slab at a time through the public margins.

    Each slab is a ``(grid**2, 3)`` point list; its margins come from
    ``s_double_prime_margins`` or ``s_tilde_margins`` at scale 1.  Writes
    the same CSV and returns the number of points written.
    """
    margins_of = s_double_prime_margins if which is RegionKind.S_DOUBLE_PRIME3 else s_tilde_margins
    axis = np.linspace(-radius, radius, grid)
    ys, zs = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    written = 0
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "margin"])
        for x in axis:
            pts = np.stack([np.full(ys.size, x), ys, zs], axis=1)
            margins = margins_of(pts, 1.0, config)
            mask = np.abs(margins) < band
            rows = np.column_stack([pts[mask], margins[mask]]).tolist()
            writer.writerows([f"{v:.12g}" for v in row] for row in rows)
            written += len(rows)
    return written


def collect_by_loop(sampler, count: int, cap_candidates: int) -> np.ndarray:
    """The sampler's own draw loop for :func:`kuroda.regions.sample_region`.

    Batches of ``min(max(4096, count), 200000)`` candidates until ``count``
    points are accepted or ``cap_candidates`` candidates are drawn.
    """
    accepted: list[np.ndarray] = []
    total = 0
    drawn = 0
    batch_size = int(min(max(4096, count), 200_000))
    while total < count and drawn < cap_candidates:
        chunk = sampler.batch(batch_size)
        drawn += batch_size
        if len(chunk):
            accepted.append(chunk)
            total += len(chunk)
    if total == 0:
        raise SamplingError(
            f"no {sampler.spec.kind.value} sample accepted after {drawn} candidates"
        )
    return np.vstack(accepted)[:count]


def sample_region_by_loop(config: KurodaConfig, spec, count: int, seed: int, radius: float):
    """:func:`kuroda.regions.sample_region` with :func:`collect_by_loop` as its draw loop."""
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
        points = collect_by_loop(sampler, count, max(500_000, 200 * count))
        if kind is RegionKind.S3:
            shift = rng.uniform(-spec.lam, spec.lam, size=len(points))
            points = points + shift[:, None]
    return SampleSet(points, sampler.stats)


def sandwich_by_loops(config: KurodaConfig, count: int, seed: int, radius: float = 50.0,
                      tolerance: float = 1e-6) -> SandwichReport:
    """:func:`kuroda.regions.sandwich_check` with one draw loop per direction.

    Each loop draws up to 400 batches of ``max(4096, count)`` candidates.
    The half-scaled direction checks its points batch by batch and keeps up
    to 5 violation examples per batch.
    """
    rng = np.random.default_rng(seed)
    examples: list[tuple[str, tuple[float, ...]]] = []

    def in_far_zone(points):
        return (np.abs(points) > 2.0).any(axis=1)

    star = _StarSampler(config, RegionSpec(RegionKind.S_DOUBLE_PRIME3, 1.0), radius, rng)
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
        points = points[in_far_zone(points)]
        if not len(points):
            continue
        points = points[: count - half_checked]
        bad = ~inside(RegionKind.S_TILDE3, points, 1.0, config)
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
        chunk = chunk[in_far_zone(chunk)][: count - tilde_checked]
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


def _dyadic(x: float) -> tuple[int, int]:
    """``(n, e)`` with ``x == n * 2**e`` exactly and ``n`` odd (or 0).

    Every finite float is such a dyadic rational, and sums, differences and
    products of them stay dyadic, so the region bounds below are decided
    exactly with integers, without the ``Fraction`` gcds on denominators
    like ``2**(300 * 1074)`` that big weights would bring.
    """
    n, d = float(x).as_integer_ratio()
    e = 1 - d.bit_length()
    if n and d == 1:
        zeros = (n & -n).bit_length() - 1
        n, e = n >> zeros, zeros
    return n, e


def _dy_mul(a, b):
    return a[0] * b[0], a[1] + b[1]


def _dy_pow(a, k: int):
    return a[0] ** k, a[1] * k


def _dy_sub(a, b):
    e = min(a[1], b[1])
    return (a[0] << (a[1] - e)) - (b[0] << (b[1] - e)), e


def _dy_less(a, b) -> bool:
    return _dy_sub(a, b)[0] < 0


def _cross_bounds_hold(q, L, config: KurodaConfig) -> bool:
    """The six cross bounds ``|q_i|**e_i * |q_j|**e_j < L**(e_i + e_j)`` on dyadic ``q`` and ``L``."""
    q = [(abs(n), e) for n, e in q]
    return all(
        _dy_less(_dy_mul(_dy_pow(q[i - 1], ei), _dy_pow(q[j - 1], ej)), _dy_pow(L, ei + ej))
        for i, j, ei, ej in _cross_pairs(config)
    )


def _tilde_bounds_hold(p, i: int, L, d, config: KurodaConfig) -> bool:
    """Axis ``i``'s cap and arm bounds of :func:`inside_exact`, on dyadic ``p`` and scale ``L``."""
    four = (1, 2)  # 4 = 1 * 2**2
    j, k = (t for t in AXES if t != i)
    s = _dy_sub(p[j - 1], (-p[k - 1][0], p[k - 1][1]))  # p_j + p_k
    cap = _dy_mul(
        _dy_sub(_dy_pow(p[i - 1], 2), _dy_pow(L, 2)),
        _dy_sub(_dy_pow(s, 2), _dy_mul(four, _dy_pow(L, 2))),
    )
    if not _dy_less(cap, _dy_mul(four, _dy_pow(L, 4))):
        return False
    if not _dy_less(L, (abs(p[i - 1][0]), p[i - 1][1])):
        return True  # |p_i| <= lam: the arm's left side is <= 0
    a, b = 2 * d[i - 1], 2 * config.magnitude(i, i)
    arm = _dy_mul(
        _dy_sub(_dy_pow(p[i - 1], a), _dy_pow(L, a)),
        _dy_pow(_dy_sub(p[j - 1], p[k - 1]), b),
    )
    return _dy_less(arm, _dy_pow(L, a + b))


def inside_exact(kind: RegionKind, points, lam: float, config: KurodaConfig) -> np.ndarray:
    """:func:`kuroda.regions.inside` in exact rational arithmetic on the float inputs.

    With ``q = p / lam`` exactly, each strict bound is multiplied through by
    the power of ``lam`` that clears its denominators:

    * cross bound ``|q_i|**e_i * |q_j|**e_j < 1``:
      ``|p_i|**e_i * |p_j|**e_j < lam**(e_i + e_j)``; ``S_PRIME4`` adds
      ``|p_4| < lam``;
    * arm ``(q_i**(2 d_i) - 1) * (q_j - q_k)**(2 delta_ii) < 1``:
      ``(p_i**(2 d_i) - lam**(2 d_i)) * (p_j - p_k)**(2 delta_ii) < lam**(2 d_i + 2 delta_ii)``;
    * cap ``(q_i**2 - 1) * ((q_j + q_k)**2 - 4) < 4``:
      ``(p_i**2 - lam**2) * ((p_j + p_k)**2 - 4 lam**2) < 4 lam**4``.

    Points must be finite.
    """
    _check_scale(lam)
    if kind is RegionKind.S3:
        raise ValueError("the fattened star has no closed form")
    pts = _as_points(points, kind.dim)
    if not np.isfinite(pts).all():
        raise ValueError("inside_exact needs finite points")
    L = _dyadic(lam)
    d = column_minima(config)
    out = []
    for row in pts.tolist():
        p = [_dyadic(v) for v in row]
        if kind is RegionKind.S_TILDE3:
            out.append(all(_tilde_bounds_hold(p, i, L, d, config) for i in AXES))
            continue
        ok = _cross_bounds_hold(p, L, config)
        if kind is RegionKind.S_PRIME4:
            ok = ok and _dy_less((abs(p[3][0]), p[3][1]), L)
        out.append(ok)
    return np.array(out, dtype=bool)


def shift_witness_holds(point, shift: float, lam: float, config: KurodaConfig) -> bool:
    """Whether ``point - (shift, shift, shift)`` lies in ``lam`` times the star, exactly.

    The shifted coordinates ``q = p - a`` are formed exactly, with no
    rounding, and each cross bound is decided as
    ``|q_i|**e_i * |q_j|**e_j < lam**(e_i + e_j)`` in integers, as in
    :func:`inside_exact`.  ``|shift| < lam`` is required too.
    """
    L, a = _dyadic(lam), _dyadic(shift)
    if not _dy_less((abs(a[0]), a[1]), L):
        return False
    return _cross_bounds_hold([_dy_sub(_dyadic(x), a) for x in point], L, config)


def evaluate_abs_whole(f: SparsePolynomial, pts: np.ndarray) -> np.ndarray:
    """``evaluate_abs`` as one block: every (terms x rows) array over all rows.

    The power tables, gathers, products and the pairwise sum of a C-ordered
    (rows x terms) array are those of ``evaluate_abs``; only the blocks and
    the reused arrays are gone, and the coefficients come from ``Fraction``.
    """
    if f.is_zero():
        return np.zeros(len(pts))
    pts = np.asarray(pts, dtype=float)
    exps = np.array(f.support())
    coeffs = np.array([float(f.coefficient(e)) for e in f.support()])
    product = None
    with np.errstate(invalid="ignore", over="ignore"):
        for x, column in zip(pts.T, exps.T):
            used, idx = np.unique(column, return_inverse=True)
            factor = np.take(_power_table(x, used), idx, axis=0)  # terms x rows
            product = factor if product is None else product * factor
        product = product * coeffs[:, None]
        return np.abs(np.ascontiguousarray(product.T).sum(axis=1))
