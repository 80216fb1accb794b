"""Reference helpers that only the tests use.

Each one is a plain restatement of something the package computes another
way, or a convenience for writing test polynomials; none is reached by the
CLI, the demos or the benchmark, so none lives in ``src``.
"""

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
from kuroda.regions import _as_points, _check_scale, _cross_pairs


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


def escape_rows_one_by_one(ks: Sequence[int], config: KurodaConfig, axis: int = 1) -> np.ndarray:
    """The escape points ``y`` of ``ks`` as rows, each computed on its own in Python floats.

    Raises the first error that a single index raises, in the order of ``ks``.
    """
    rows = []
    for k in ks:
        lg1 = math.log2(float(k))
        lg2 = math.log2(lg1)
        lg3 = math.log2(lg2)
        other1, other2 = (j for j in AXES if j != axis)
        y = [0.0, 0.0, 0.0, 1.0 / lg3]
        y[axis - 1] = float(k ** config.magnitude(axis, axis))
        y[other1 - 1] = 1.0 / (k ** config.magnitude(other1, axis) * lg1)
        y[other2 - 1] = 1.0 / (k ** config.magnitude(other2, axis) * lg2)
        rows.append(y)
    return np.array(rows, dtype=float).reshape(len(rows), 4)


def ray_star_by_masks(sampler, n: int) -> np.ndarray:
    """``_StarSampler._ray_star`` with a boolean mask per stratum: the same draws in the same order."""
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
    """``_StarSampler._ray_tilde`` with a boolean mask per stratum: the same draws in the same order."""
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
    """:func:`kuroda.regions.s_shift_margins` with the grid round as a full scan.

    All 1024 grid shifts are evaluated for every row, then the same two
    refinement rounds of 65 shifts run, with ``np.linspace`` over the whole
    batch.  So a row gets the bits of the bounded scan whenever no row of
    the call has a refinement span that underflows ``np.linspace``'s step
    (only subnormal scales do); a one-row call always does.
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
        idx = values.argmin(axis=1)
        found = values[rows, idx]
        better = found < best
        best = np.where(better, found, best)
        best_a = np.where(better, shifts[rows, idx], best_a)
    return np.expm1(best), best_a
