"""Chart-exponent traces through the blowup tower and the pole calculus.

Varieties never appear here; each axis carries only its tower bookkeeping
(:class:`kuroda.config.AxisTower`) and the integer recursion below.  A chart
monomial is encoded by a :class:`ChartTriple` ``(r1, r2, r3)``, read as the
function ``a**r2 * b**r3 * c**(-r1)`` on the current chart (``r1`` is the
*negated* exponent of the third coordinate).

Stepping from chart ``n`` to ``n + 1`` rewrites the monomial under one of two
substitutions, chosen by the parity of the block holding ``n + 1``:

    odd block:   r1 <- r1 - r3        (b -> b*c)
    even block:  r3 <- r3 - r1        (c -> b*c)

Both steps are invertible integer-linear maps, so distinct input triples stay
distinct along the whole trace; that injectivity is what allows per-term pole
bookkeeping for polynomials without worrying about cancellation.  Wherever
sums are traced, the input triples are asserted distinct at index 0, which
by injectivity makes them distinct at every index.

A divisor at index ``n`` carries a pole of the traced monomial exactly when
``r1 > 0`` (odd block) or ``r3 < 0`` (even block) at that index.  The index
sets ``j1``/``j2`` of the tower mark which divisors belong to the two
boundary unions whose complements realize the intersection ring.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import SparsePolynomial, System, axis_support
from .config import AXES, AxisTower, EuclidTower


class TraceCollisionError(RuntimeError):
    """Two distinct support terms collided along a trace (wiring bug)."""


class ChartTriple(NamedTuple):
    """Chart monomial exponents; r1 is the negated third-coordinate exponent."""

    r1: int
    r2: int
    r3: int


def _axis_tower(tower: EuclidTower, axis: int) -> AxisTower:
    if axis not in AXES:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return tower.axis(axis)


class TowerTrace(NamedTuple):
    """Triples traced through every chart index 0..N of one axis."""

    axis: int
    triples: tuple[ChartTriple, ...]


def pullback_trace(triple: Sequence[int], tower: EuclidTower, axis: int) -> TowerTrace:
    """Run the two-rule step recursion from index 0 through index N."""
    ax = _axis_tower(tower, axis)
    r1, r2, r3 = ChartTriple(*triple)
    out = [ChartTriple(r1, r2, r3)]
    for k in ax.positions[1:]:
        if k % 2 == 1:
            r1 = r1 - r3
        else:
            r3 = r3 - r1
        out.append(ChartTriple(r1, r2, r3))
    return TowerTrace(axis, tuple(out))


def block_formula_check(trace: TowerTrace, tower: EuclidTower) -> bool:
    """Aggregated per-block jumps must reproduce the stepwise trace at block ends.

    Odd block m multiplies out to ``r1 -> r1 - q_m * r3``; even block m to
    ``r3 -> r3 - q_m * r1``; r2 never moves.
    """
    ax = _axis_tower(tower, trace.axis)
    r1, r2, r3 = trace.triples[0]
    for m, qm in enumerate(ax.q, start=1):
        if m % 2 == 1:
            r1 = r1 - qm * r3
        else:
            r3 = r3 - qm * r1
        if trace.triples[ax.nu[m - 1]] != ChartTriple(r1, r2, r3):
            return False
    return True


class PoleProfile(NamedTuple):
    """Per-divisor pole flags for one traced monomial.

    ``pole_at[n]`` follows the parity rule at index n.  Membership of each
    divisor in the two boundary unions is in :class:`CensusRow`.
    """

    axis: int
    pole_at: tuple[bool, ...]

    def pole_set(self) -> tuple[int, ...]:
        return tuple(n for n, p in enumerate(self.pole_at) if p)


def pole_profile(trace: TowerTrace, tower: EuclidTower) -> PoleProfile:
    ax = _axis_tower(tower, trace.axis)
    if len(trace.triples) != ax.n_total + 1:
        raise ValueError("trace length does not match the tower")
    poles = []
    for (r1, _, r3), k in zip(trace.triples, ax.positions):
        if k % 2 == 1:
            poles.append(r1 > 0)
        else:
            poles.append(r3 < 0)
    return PoleProfile(axis=trace.axis, pole_at=tuple(poles))


def _assert_distinct_traces(triples: Sequence[Sequence[int]], axis: int) -> None:
    """Distinct at index 0 means distinct at every index: the steps are invertible."""
    seen = set(triples)
    if len(seen) != len(triples):
        raise TraceCollisionError(
            f"axis {axis}: {len(triples)} terms map to {len(seen)} triples at index 0"
        )


def _pole_union(
    triples: Sequence[Sequence[int]], tower: EuclidTower, axis: int
) -> frozenset[int]:
    """Union of the terms' pole sets, each term traced and dropped in turn."""
    _assert_distinct_traces(triples, axis)
    poles: set[int] = set()
    for t in triples:
        poles.update(pole_profile(pullback_trace(t, tower, axis), tower).pole_set())
    return frozenset(poles)


def polynomial_pole_set(
    f: SparsePolynomial, tower: EuclidTower, axis: int
) -> frozenset[int]:
    """Divisor indices where some support term of ``f`` has a pole.

    Terms are traced one at a time and only the union of their pole sets is
    kept; the union is the polynomial's pole set because invertibility of
    the step maps rules out cancellation between distinct terms (checked on
    the input triples via :class:`TraceCollisionError`).
    """
    return _pole_union(axis_support(f, axis), tower, axis)


def _slope_ok(triple: Sequence[int], tower: EuclidTower, axis: int) -> bool:
    r1, _, r3 = ChartTriple(*triple)
    return tower.config.magnitude(axis, axis) * r1 <= tower.constants.d[axis - 1] * r3


def cond(f_or_triple, axis: int, which: int, tower: EuclidTower) -> bool:
    """The three equivalent per-axis membership conditions.

    ``which = 1``: the slope bound on every support triple (exact integers).
    ``which = 2``: every divisor carrying a pole lies in the j1 index set.
    ``which = 3``: same with j2.  Input is a ChartTriple-like sequence or a
    PI3 polynomial, whose support is traced one term at a time, keeping only
    the union of the pole sets (as in :func:`polynomial_pole_set`).
    """
    if which not in (1, 2, 3):
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    ax = _axis_tower(tower, axis)
    if isinstance(f_or_triple, SparsePolynomial):
        if f_or_triple.system is not System.PI3:
            raise ValueError("cond expects a PI3 polynomial or an exponent triple")
        triples = axis_support(f_or_triple, axis)
    else:
        triples = (ChartTriple(*f_or_triple),)
    if which == 1:
        return all(_slope_ok(t, tower, axis) for t in triples)
    return _pole_union(triples, tower, axis) <= (ax.j1 if which == 2 else ax.j2)


class CensusRow(NamedTuple):
    """One boundary component: tower divisor, hyperplane sentinel, or plane at infinity."""

    axis: int | None
    n: int | None
    label: str
    in_z1: bool
    in_z2: bool


class Census(NamedTuple):
    """Complete divisor census with the z1 = z2 comparison."""

    rows: tuple[CensusRow, ...]
    z1_equals_z2: bool


def boundary_census(tower: EuclidTower) -> Census:
    """List every boundary label with its membership in the two unions.

    The plane at infinity belongs to both unions by definition; the
    hyperplane sentinels to neither.
    """
    rows: list[CensusRow] = [CensusRow(None, None, "B", True, True)]
    equal = True
    for i in AXES:
        ax = tower.axis(i)
        rows.append(CensusRow(i, -1, f"E({i},-1)", False, False))
        j1, j2 = ax.j1, ax.j2
        equal = equal and j1 == j2
        for n in range(ax.n_total + 1):
            rows.append(CensusRow(i, n, f"E({i},{n})", n in j1, n in j2))
    return Census(tuple(rows), equal)


class RegionPullbackReport(NamedTuple):
    """Pole bookkeeping for the pulled-back arm inequality of one axis.

    The left side splits into two chart monomials with triples
    ``(2*d_i, 0, 2*delta_ii)`` and ``(0, 0, 2*delta_ii)``, distinct since
    ``d_i >= 1``, so their pole sets simply unite (scale factors are
    nonzero constants and cannot move poles, so they are dropped).  Every
    tower divisor in the j2 union must carry a pole of the first term.
    """

    axis: int
    terms: tuple[ChartTriple, ChartTriple]
    traces: tuple[TowerTrace, TowerTrace]
    profiles: tuple[PoleProfile, PoleProfile]
    pole_set: tuple[int, ...]
    j2: tuple[int, ...]
    z2_covered: bool
    pole_set_equals_j2: bool


def region_inequality_pullback(axis: int, tower: EuclidTower) -> RegionPullbackReport:
    ax = _axis_tower(tower, axis)
    d_i = tower.constants.d[axis - 1]
    dii = tower.config.magnitude(axis, axis)
    terms = (ChartTriple(2 * d_i, 0, 2 * dii), ChartTriple(0, 0, 2 * dii))
    traces = tuple(pullback_trace(t, tower, axis) for t in terms)
    profiles = tuple(pole_profile(trace, tower) for trace in traces)
    poles = frozenset(n for profile in profiles for n in profile.pole_set())
    j2 = tuple(sorted(ax.j2))
    pole_tuple = tuple(sorted(poles))
    return RegionPullbackReport(
        axis=axis,
        terms=terms,
        traces=traces,
        profiles=profiles,
        pole_set=pole_tuple,
        j2=j2,
        z2_covered=set(j2) <= poles,
        pole_set_equals_j2=pole_tuple == j2,
    )
