"""Membership in the exponent monoid, its algebra, and the intersection ring.

Two independent routes are kept side by side throughout:

* the *combinatorial* route checks integer inequalities on exponent data
  (:func:`monoid_member`, :func:`in_r_star`);
* the *expansion* route expands everything down to ambient monomials and
  inspects signs (:func:`monoid_member_oracle`, :func:`in_r_oracle`).

Agreement of the routes is a theorem for valid configurations; the test
suite exercises it exhaustively at desk scale, and the CLI treats any
disagreement as an implementation bug.

:func:`enumerate_t_generators` lists the minimal generators of the monoid up
to a degree bound: ``e4`` and, found by a sieve over :mod:`kuroda.cone`'s
3-dimensional cone of ``(n1, n2, n3)`` (``n4`` enters no inequality), the
members from which subtracting no smaller generator leaves a member.  That
basis is finite (Gordan's lemma: the monoid is a rational polyhedral cone
cut with ``Z^4``), so its counts plateau.  The growth the paper is about
lives in the ring: :func:`ring_generator_census` counts the algebra
generators of ``R = k[P1,P2,P3] ∩ k[T]`` degree by degree, computing each
graded piece by both routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import (
    SparsePolynomial,
    System,
    ambient_columns,
    axis_support,
    check_exponents,
    expand_pi_to_y,
    expand_y_to_x,
    reexpress_for_axis,
)
from .config import AXES, KurodaConfig, column_minima
from .cone import facets, points


def monoid_member(n: Sequence[int], config: KurodaConfig) -> bool:
    """Exact inequality test: ``(n1, n2, n3)`` is on the inner side of every cone facet."""
    n1, n2, n3, _ = check_exponents(System.Y4, n)
    return all(f1 * n1 + f2 * n2 + f3 * n3 >= 0 for f1, f2, f3 in facets(config))


def monoid_member_oracle(n: Sequence[int], config: KurodaConfig) -> bool:
    """Independent route: the expanded ambient exponent vector must be nonnegative."""
    return all(e >= 0 for e in expand_y_to_x(n, config))


class GeneratorList(NamedTuple):
    """Minimal monoid generators of total degree <= ``degree_bound``.

    ``growing_at_bound`` is set when new generators still appear at the bound
    itself, a hint that the chosen bound truncates the (finite) basis.
    :meth:`count` is the number of generators; it shadows ``tuple.count``.
    """

    degree_bound: int
    generators: tuple[tuple[int, int, int, int], ...]
    growing_at_bound: bool

    def count(self) -> int:
        return len(self.generators)

    def counts_by_degree(self) -> dict[int, int]:
        """Cumulative generator count per degree 1..degree_bound."""
        out = {}
        for d in range(1, self.degree_bound + 1):
            out[d] = sum(1 for g in self.generators if sum(g) <= d)
        return out


def enumerate_t_generators(config: KurodaConfig, degree_bound: int) -> GeneratorList:
    """All monoid members of degree <= bound that admit no nontrivial splitting.

    ``n4`` enters none of :func:`monoid_member`'s three inequalities, so the
    members are the vectors ``(m, n4)`` with ``n4 >= 0`` and ``m`` in the
    3-dimensional cone ``C`` of :mod:`kuroda.cone`.  A member with ``n4 > 0``
    other than ``e4`` splits as ``e4 + (n - e4)``, and the parts of a member
    with ``n4 = 0`` have ``n4 = 0`` too.  So the generators are ``e4`` and
    the minimal members of ``C``, with ``n4 = 0``.

    Those are sieved: the points ``m`` of ``C_1`` to ``C_bound``
    (:func:`~kuroda.cone.points`) are walked in ``(degree, lex)`` order, and
    ``m`` is kept unless ``m - g`` is a member for a generator ``g`` kept
    before it.  This is exact: the members up to the bound are
    the lattice points of a cone, so they are closed under addition within
    the bound, and any splitting ``m = a + b`` has a generator ``g <= a``
    with ``m - g = (a - g) + b`` a member.  The list comes out in the
    ``(degree, lex)`` order of the 4-vectors, ``e4`` first.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    levels = points(config, degree_bound)
    members = set().union(*levels)
    cone: list[tuple[int, int, int]] = []
    for level in levels[1:]:
        for n1, n2, n3 in level:
            if not any((n1 - g1, n2 - g2, n3 - g3) in members for g1, g2, g3 in cone):
                cone.append((n1, n2, n3))
    generators = ([(0, 0, 0, 1)] if degree_bound >= 1 else []) + [(*g, 0) for g in cone]
    growing = any(sum(g) == degree_bound for g in generators)
    return GeneratorList(degree_bound, tuple(generators), growing)


class StarViolation(NamedTuple):
    """One support triple breaking the slope bound on one axis."""

    axis: int
    triple: tuple[int, int, int]
    lhs: int
    rhs: int


def _star_violations(f: SparsePolynomial, config: KurodaConfig) -> Iterator[StarViolation]:
    """The support triples with ``delta_ii * r1 > d_i * r3``, lazily, axis 1 first.

    The slope bound is defined here alone: :func:`star_violations` lists
    what this yields and :func:`in_r_star` reads its first item, so axis
    ``i + 1`` is re-expressed only once axis ``i`` has been scanned.
    """
    if f.system is not System.PI3:
        raise ValueError("membership tests expect a PI3 polynomial")
    d = column_minima(config)
    for i in AXES:
        dii, di = config.magnitude(i, i), d[i - 1]
        for triple in axis_support(f, i):
            r1, _, r3 = triple
            if dii * r1 > di * r3:
                yield StarViolation(i, triple, dii * r1, di * r3)


def star_violations(f: SparsePolynomial, config: KurodaConfig) -> tuple[StarViolation, ...]:
    """Every support triple with ``delta_ii * r1 > d_i * r3``, across all three axes.

    All axes are scanned even after the first hit, where :func:`in_r_star`
    stops; the list is the diagnostic payload for membership reports.
    """
    return tuple(_star_violations(f, config))


def in_r_star(f: SparsePolynomial, config: KurodaConfig) -> bool:
    """Combinatorial ring-membership route: no axis support triple violates the slope bound.

    Returns at the first violating triple, so a non-member whose axis-1
    support breaks the bound never re-expresses axes 2 and 3.
    """
    return next(_star_violations(f, config), None) is None


def _outside_monoid(
    keys: Iterable[tuple[int, ...]], config: KurodaConfig
) -> Iterator[tuple[int, ...]]:
    """The ``Y4`` exponent vectors among ``keys`` outside the monoid, lazily, in input order.

    The test is :func:`monoid_member_oracle`'s: a vector is outside when its
    dot product with one of the four :func:`ambient_columns` is negative.
    The columns are looked up and unpacked once per call, and the four
    products are written out.
    """
    (a1, a2, a3, a4), (b1, b2, b3, b4), (c1, c2, c3, c4), (g1, g2, g3, g4) = ambient_columns(
        config
    )
    return (
        n for n in keys for n1, n2, n3, n4 in (n,)
        if a1 * n1 + a2 * n2 + a3 * n3 + a4 * n4 < 0
        or b1 * n1 + b2 * n2 + b3 * n3 + b4 * n4 < 0
        or c1 * n1 + c2 * n2 + c3 * n3 + c4 * n4 < 0
        or g1 * n1 + g2 * n2 + g3 * n3 + g4 * n4 < 0
    )


def _oracle_violations(
    f: SparsePolynomial, config: KurodaConfig
) -> Iterator[tuple[int, int, int, int]]:
    """The monomials of the Y4 expansion of ``f`` outside the monoid, lazily, in storage order.

    Every stored exponent of the expansion goes through :func:`_outside_monoid`,
    with the columns read once per call instead of once per monomial.
    """
    if f.system is not System.PI3:
        raise ValueError("membership tests expect a PI3 polynomial")
    nums, _ = expand_pi_to_y(f)._numerators()
    return _outside_monoid(nums, config)


def oracle_violations(
    f: SparsePolynomial, config: KurodaConfig
) -> tuple[tuple[int, int, int, int], ...]:
    """Monomials of the Y4 expansion of ``f`` that fall outside the monoid, in lex order.

    Every monomial is tested, where :func:`in_r_oracle` stops at the first
    that fails, and only the ones that fail are sorted.
    """
    return tuple(sorted(_oracle_violations(f, config)))


def in_r_oracle(f: SparsePolynomial, config: KurodaConfig) -> bool:
    """Expansion ring-membership route: every Y4 monomial of ``f`` is in the monoid.

    Returns at the first monomial outside the monoid.
    """
    return next(_oracle_violations(f, config), None) is None


class RouteDisagreementError(RuntimeError):
    """Two independent computations of the same exact quantity differ (implementation bug)."""


class RingDegree(NamedTuple):
    """The graded piece ``R_d`` of the intersection ring and its new generators.

    ``basis`` spans ``R_d``: one element per free column of the kernel, with
    the degree-``d`` ``P``-monomials in lexicographic order.  ``generators``
    are the basis elements that complete the decomposable part
    ``sum_{a=1}^{d-1} R_a * R_{d-a}`` (of rank ``decomposable_rank``) to all
    of ``R_d``: the algebra generators that are new in degree ``d``.
    """

    degree: int
    basis: tuple[SparsePolynomial, ...]
    decomposable_rank: int
    generators: tuple[SparsePolynomial, ...]

    def dimension(self) -> int:
        return len(self.basis)


class RingCensus(NamedTuple):
    """Graded pieces ``R_1..R_D`` of ``R = k[P1,P2,P3] ∩ k[T]``, ``D = degree_bound``."""

    degree_bound: int
    pieces: tuple[RingDegree, ...]

    def new_by_degree(self) -> dict[int, int]:
        """Number of algebra generators first needed in each degree 1..degree_bound."""
        return {piece.degree: len(piece.generators) for piece in self.pieces}

    def counts_by_degree(self) -> dict[int, int]:
        """Cumulative algebra-generator count per degree 1..degree_bound."""
        out, total = {}, 0
        for piece in self.pieces:
            total += len(piece.generators)
            out[piece.degree] = total
        return out


def _pi_monomials(degree: int) -> list[tuple[int, int, int]]:
    return [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]


def _insert(row: dict[int, Fraction], echelon: dict[int, dict[int, Fraction]]) -> bool:
    """Add ``row`` to an echelon form keyed by pivot column; True iff the rank grew.

    Each stored row is zero left of its pivot and 1 at it, so reducing by
    pivots in increasing column order never refills a cleared column.
    """
    row = dict(row)
    for col in sorted(echelon):
        factor = row.get(col)
        if factor:
            for k, c in echelon[col].items():
                value = row.get(k, 0) - factor * c
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    if not row:
        return False
    pivot = min(row)
    lead = row[pivot]
    echelon[pivot] = {k: c / lead for k, c in row.items()}
    return True


def _kernel(rows: Iterable[dict[int, Fraction]], width: int) -> list[dict[int, Fraction]]:
    """Kernel basis of the map with the given sparse rows, one vector per free column.

    The vector of free column ``f`` is 1 at ``f``, 0 at the other free
    columns and solved at the pivots.  It depends only on the kernel, so two
    maps have the same kernel iff their bases compare equal.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        _insert(row, echelon)
    basis = []
    for free in range(width):
        if free in echelon:
            continue
        x = {free: Fraction(1)}
        for pivot in sorted(echelon, reverse=True):
            value = -sum(
                (c * x[k] for k, c in echelon[pivot].items() if k != pivot and k in x),
                Fraction(0),
            )
            if value:
                x[pivot] = value
        basis.append(x)
    return basis


def ring_generator_census(config: KurodaConfig, degree_bound: int) -> RingCensus:
    """Count the algebra generators of ``R = k[P1,P2,P3] ∩ k[T]`` degree by degree.

    ``R`` is graded by ``P``-degree, since each ``P_i = y_i - y_4`` is
    homogeneous, so ``R_d`` is the kernel of a linear map on the degree-``d``
    ``P``-monomials.  It is computed by two independent routes in exact
    arithmetic, and :class:`RouteDisagreementError` is raised unless the
    kernels are equal:

    * expansion: the ``Y4`` coefficients outside ``T``, on the monomials
      that :func:`oracle_violations` lists, read off :func:`expand_pi_to_y`;
    * star: the ``AXIS3`` coefficients on the slope-violating triples that
      :func:`star_violations` lists, read off :func:`reexpress_for_axis`.

    Each coefficient lookup reuses the image its route just cached.

    The new generators in degree ``d`` number ``dim R_d`` minus the rank of
    ``sum_{a=1}^{d-1} R_a * R_{d-a}``; a product outside ``R_d`` also raises.
    The counts are evidence up to ``degree_bound``, not a proof: no finite
    computation shows that ``R`` is not finitely generated.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    pieces: list[RingDegree] = []
    for degree in range(1, degree_bound + 1):
        monomials = _pi_monomials(degree)
        column = {m: j for j, m in enumerate(monomials)}
        images = [SparsePolynomial.monomial(System.PI3, m) for m in monomials]

        outside: dict[tuple[int, ...], dict[int, Fraction]] = {}
        violating: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for j, f in enumerate(images):
            for n in oracle_violations(f, config):
                outside.setdefault(n, {})[j] = expand_pi_to_y(f).coefficient(n)
            for v in star_violations(f, config):
                coefficient = reexpress_for_axis(f, v.axis).coefficient(v.triple)
                violating.setdefault((v.axis, *v.triple), {})[j] = coefficient
        kernel = _kernel(outside.values(), len(monomials))
        star_kernel = _kernel(violating.values(), len(monomials))
        if kernel != star_kernel:
            raise RouteDisagreementError(
                f"R_{degree}: expansion route gives dimension {len(kernel)}, "
                f"star route {len(star_kernel)}, or the spaces differ"
            )
        basis = tuple(
            SparsePolynomial(System.PI3, {monomials[j]: c for j, c in v.items()})
            for v in kernel
        )

        echelon: dict[int, dict[int, Fraction]] = {}
        for a in range(1, degree // 2 + 1):
            left, right = pieces[a - 1].basis, pieces[degree - a - 1].basis
            for ia, f in enumerate(left):
                # for a == degree - a, take each unordered pair once
                for g in right[ia if 2 * a == degree else 0:]:
                    _insert({column[m]: c for m, c in (f * g).terms()}, echelon)
        rank = len(echelon)
        generators = tuple(b for b, v in zip(basis, kernel) if _insert(v, echelon))
        if len(echelon) != len(kernel):
            raise RouteDisagreementError(f"a product of lower pieces falls outside R_{degree}")
        pieces.append(RingDegree(degree, basis, rank, generators))
    return RingCensus(degree_bound, tuple(pieces))

