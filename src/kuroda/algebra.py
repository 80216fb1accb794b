"""Sparse multivariate polynomials over exact rationals.

A polynomial maps nonnegative integer exponent tuples to nonzero rational
coefficients, tagged with the variable system the exponents live in:

  ==========  =====  ========================================
  system      arity  variables
  ==========  =====  ========================================
  ``Y4``      4      monomial images y1..y4
  ``PI3``     3      differences P1..P3 (Pi_i = y_i - y_4)
  ``AXIS3``   3      per-axis basis u1, u2, u3
  ==========  =====  ========================================

Storage is integer numerators over one denominator: ``_nums`` maps each
exponent tuple to a nonzero ``int`` and ``_den`` is one positive ``int``
with ``gcd(_den, *_nums.values()) == 1``.  That form is canonical, so
equality and hashing compare the stored fields.  All arithmetic is exact.

The inner loops of ``+``, ``-``, ``*``, ``**`` and the change-of-variable maps
run on the stored numerators and build their results through a private
trusted constructor, which skips the exponent checks (the library built
those exponents itself) and divides out one gcd.  The arithmetic on
numerator maps lives here, once each: :func:`_sum`, :func:`_times` and
:func:`_power`, for ``+``, ``*`` and ``**`` and for the expression parser's
fold.  Products run on packed keys: :func:`_pack` puts exponent ``e_i`` at
bit ``bits * i`` of one int, so multiplying two monomials is one integer
addition, and :func:`_unpack` turns the keys back into tuples.  ``*`` and
``**`` pack once per call, with slots wide enough for the largest exponent
the result can have, so any exponent works.  ``Fraction``
appears only at the edges: the public constructor takes
``Fraction``-compatible coefficients and keeps every exponent check, and
:meth:`~SparsePolynomial.terms` and :meth:`~SparsePolynomial.coefficient`
return ``Fraction`` values.
:meth:`~SparsePolynomial.support`, :meth:`~SparsePolynomial.term_count`,
``==`` and ``hash`` never build one.

The change-of-variable maps are closed forms, written once each:
``PI3 -> Y4`` expands ``P_i = y_i - y_4`` by Taylor's formula along
(1, 1, 1), one derivative step per power of ``y_4`` (oracle route),
``PI3 -> AXIS3`` is one binomial row per term (star route, one way only),
and :func:`expand_y_to_x` sends a ``Y4`` exponent vector to the ambient
exponent vector ``x1..x4`` by combining the signed rows (a plain tuple whose
entries may be negative, not a polynomial).  The two routes share no
expansion code; :func:`substitute` is the generic reference for tests.

The two route maps keep small bounded caches (``functools.lru_cache``):
:func:`expand_pi_to_y` its last image, :func:`reexpress_for_axis` its last
three (one per axis), so a route asked twice about one polynomial, first
for a verdict and then for the violations, expands it once.  That is
correct because a polynomial is immutable and hashes by value, so an equal
input has an equal image, and because ``lru_cache`` stores no raised error.
Each route caches only its own map, so the routes stay independent.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .config import AXES, KurodaConfig


class System(enum.Enum):
    """Variable-system tag; fixes the arity."""

    Y4 = ("Y4", 4)
    PI3 = ("PI3", 3)
    AXIS3 = ("AXIS3", 3)

    def __init__(self, label: str, arity: int):
        self.label = label
        self.arity = arity


VARIABLE_NAMES = {
    System.Y4: ("Y1", "Y2", "Y3", "Y4"),
    System.PI3: ("P1", "P2", "P3"),
    System.AXIS3: ("U1", "U2", "U3"),
}


class SystemMismatchError(ValueError):
    """Operands (or a point) belong to different variable systems."""


def check_exponents(system: System, exponents: Sequence[int]) -> tuple[int, ...]:
    exps = tuple(exponents)
    if len(exps) != system.arity:
        raise SystemMismatchError(
            f"{system.label} exponent vector needs arity {system.arity}, got {exps}"
        )
    for e in exps:
        if not isinstance(e, int) or isinstance(e, bool):
            raise SystemMismatchError(f"exponents must be integers, got {e!r}")
        if e < 0:
            raise SystemMismatchError(f"negative exponent {e} not allowed in {system.label}")
    return exps


class SparsePolynomial:
    """Immutable sparse polynomial; supports ``+ - * **`` and scalar mixing.

    The coefficient at ``e`` is ``_nums[e] / _den``: ``_nums`` holds nonzero
    ints, ``_den`` is a positive int and ``gcd(_den, *_nums.values()) == 1``,
    so equal polynomials have equal fields.
    """

    __slots__ = ("system", "_nums", "_den", "_hash")

    def __init__(self, system: System, terms: Mapping[Sequence[int], Fraction | int]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            clean[check_exponents(system, exps)] = coeff
        # the lcm of reduced denominators is already coprime to the numerators
        den = lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "system", system)
        object.__setattr__(
            self, "_nums", {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        )
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    @classmethod
    def _from_numerators(
        cls, system: System, numerators: dict[tuple[int, ...], int], den: int
    ) -> "SparsePolynomial":
        """Trusted constructor: coefficient ``numerators[e] / den`` at each ``e``.

        ``den`` must be a positive int and the keys int tuples of the
        system's arity; they are not revalidated.  Zero numerators are
        dropped, the rest are divided by their gcd with ``den``, and the dict
        is stored as given when nothing changes, so the caller must not
        mutate it afterwards.
        """
        if 0 in numerators.values():
            numerators = {e: n for e, n in numerators.items() if n}
        if den != 1:
            g = gcd(den, *numerators.values())
            if g != 1:
                numerators = {e: n // g for e, n in numerators.items()}
                den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "system", system)
        object.__setattr__(poly, "_nums", numerators)
        object.__setattr__(poly, "_den", den)
        object.__setattr__(poly, "_hash", None)
        return poly

    def _numerators(self) -> tuple[dict[tuple[int, ...], int], int]:
        """``(numerators, den)`` as stored, not copied: callers must not mutate the dict."""
        return self._nums, self._den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, system: System) -> "SparsePolynomial":
        return cls._from_numerators(system, {}, 1)

    @classmethod
    def constant(cls, system: System, value) -> "SparsePolynomial":
        value = Fraction(value)
        return cls._from_numerators(
            system, {(0,) * system.arity: value.numerator}, value.denominator
        )

    @classmethod
    def variable(cls, system: System, index: int) -> "SparsePolynomial":
        """The single variable with 1-based ``index``."""
        if not 1 <= index <= system.arity:
            raise SystemMismatchError(f"{system.label} has no variable {index}")
        exps = tuple(1 if j == index else 0 for j in range(1, system.arity + 1))
        return cls._from_numerators(system, {exps: 1}, 1)

    @classmethod
    def monomial(cls, system: System, exponents: Sequence[int]) -> "SparsePolynomial":
        return cls(system, {tuple(exponents): 1})

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterable[tuple[tuple[int, ...], Fraction]]:
        """Term items in canonical (lexicographic) order."""
        nums, den = self._nums, self._den
        return tuple((e, Fraction(nums[e], den)) for e in sorted(nums))

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self._nums))

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._nums.get(tuple(exponents), 0), self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def term_count(self) -> int:
        return len(self._nums)

    # -- ring arithmetic ----------------------------------------------

    def _coerce(self, other) -> "SparsePolynomial":
        if isinstance(other, SparsePolynomial):
            if other.system is not self.system:
                raise SystemMismatchError(
                    f"cannot mix {self.system.label} and {other.system.label}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return SparsePolynomial.constant(self.system, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SparsePolynomial._from_numerators(
            self.system, *_sum((self._numerators(), other._numerators()))
        )

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial._from_numerators(
            self.system, {e: -n for e, n in self._nums.items()}, self._den
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._nums, other._nums
        bits = _slot_bits(_top(a) + _top(b))
        arity = self.system.arity
        out = _times(_pack(a, arity, bits), _pack(b, arity, bits))
        return SparsePolynomial._from_numerators(
            self.system, _unpack(out, arity, bits), self._den * other._den
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """``self ** k`` by :func:`_power`, packed in slots for ``k`` times the top exponent."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        arity = self.system.arity
        bits = _slot_bits(_top(self._nums) * k)
        out = _power(_pack(self._nums, arity, bits), k)
        return SparsePolynomial._from_numerators(
            self.system, _unpack(out, arity, bits), self._den**k
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.system, other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return (
            self.system is other.system
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.system, self._den, frozenset(self._nums.items())))
            )
        return self._hash

    def __repr__(self):
        from .exprparse import polynomial_to_text

        return f"SparsePolynomial({self.system.label}, {polynomial_to_text(self)!r})"


# -- the numerator-map kernels --------------------------------------------------
#
# :func:`_sum` takes maps with any keys, the product kernels packed keys.  A
# packed key holds exponent e_i in the ``bits`` bits from bit ``bits * i`` up,
# so adding two keys adds their exponent vectors, provided that no sum reaches
# ``2**bits`` (the caller sizes the slots so that none does); key 0 is the
# constant monomial.  The top slot is read without a mask, so a carry out of
# it would show as a large exponent rather than wrap.  No kernel changes a
# map it is given, and given maps without zeros, none returns one with zeros.


def _top(nums: Mapping[tuple[int, ...], int]) -> int:
    """Largest single exponent among the keys of a numerator map (0 for an empty map)."""
    return max(map(max, nums), default=0)


def _slot_bits(top: int) -> int:
    """Slot width that holds every exponent up to ``top`` without a carry."""
    return max(1, top.bit_length())


def _pack(nums: Mapping[tuple[int, ...], int], arity: int, bits: int) -> dict[int, int]:
    """The numerator map with each exponent tuple of ``arity`` (3 or 4) packed into one int."""
    b2 = 2 * bits
    if arity == 3:
        return {e1 | e2 << bits | e3 << b2: n for (e1, e2, e3), n in nums.items()}
    b3 = 3 * bits
    return {e1 | e2 << bits | e3 << b2 | e4 << b3: n for (e1, e2, e3, e4), n in nums.items()}


def _unpack(packed: Mapping[int, int], arity: int, bits: int) -> dict[tuple[int, ...], int]:
    """Inverse of :func:`_pack` for ``arity`` (3 or 4) slots of ``bits`` bits."""
    mask = (1 << bits) - 1
    b2 = 2 * bits
    if arity == 3:
        return {(k & mask, k >> bits & mask, k >> b2): n for k, n in packed.items()}
    b3 = 3 * bits
    return {
        (k & mask, k >> bits & mask, k >> b2 & mask, k >> b3): n for k, n in packed.items()
    }


def _product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Numerators of the product of two packed numerator maps (zeros not yet dropped)."""
    right = tuple(b.items())
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in right:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return out


def _nonzero(nums: dict) -> dict:
    """``nums`` without its zero numerators (the same dict when it has none)."""
    return {k: n for k, n in nums.items() if n} if 0 in nums.values() else nums


def _sum(terms: Sequence[tuple[Mapping, int]]) -> tuple[dict, int]:
    """``(nums, den)`` of the sum of ``(nums, den)`` terms, over the lcm of their denominators."""
    den = lcm(*(d for _, d in terms))
    out: dict = {}
    get = out.get
    for nums, d in terms:
        scale = den // d
        for k, n in nums.items():
            out[k] = get(k, 0) + n * scale
    return _nonzero(out), den


def _times(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Numerators of the product of two packed maps; a constant factor only scales the other."""
    if not a or not b:
        return {}
    if len(b) == 1 and 0 in b:
        a, b = b, a
    if len(a) == 1 and 0 in a:
        c = a[0]
        return {k: c * n for k, n in b.items()}
    return _nonzero(_product(a, b))


def _power(base: Mapping[int, int], k: int) -> dict[int, int]:
    """Numerators of the ``k``-th power of a packed map, by ``k - 1`` products by the base.

    Never by a large power: for a dense base in three variables the cost
    grows like ``k^4``, where the last squaring alone grows like ``k^6``.
    """
    if k == 0:
        return {0: 1}
    if not base or (len(base) == 1 and 0 in base):
        return {key: n**k for key, n in base.items()}
    out = base
    for _ in range(k - 1):
        out = _product(out, base)
    return _nonzero(out)


def substitute(
    f: SparsePolynomial, images: Sequence[SparsePolynomial], system: System
) -> SparsePolynomial:
    """Replace variable j of ``f`` by ``images[j-1]`` (all images in ``system``)."""
    if len(images) != f.system.arity:
        raise SystemMismatchError("one image per variable required")
    for g in images:
        if g.system is not system:
            raise SystemMismatchError("images must live in the target system")
    out = SparsePolynomial.zero(system)
    for exps, coeff in f.terms():
        term = SparsePolynomial.constant(system, coeff)
        for g, e in zip(images, exps):
            if e:
                term = term * g**e
        out = out + term
    return out


@lru_cache(maxsize=256)
def _signed_binomials(e: int) -> tuple[int, ...]:
    """Coefficients of ``(v - w)^e`` by the power of ``v``: ``(-1)^(e - k) C(e, k)``, k = 0..e."""
    return tuple(comb(e, k) if (e - k) % 2 == 0 else -comb(e, k) for k in range(e + 1))


@lru_cache(maxsize=1)
def expand_pi_to_y(f: SparsePolynomial) -> SparsePolynomial:
    """Expand a PI3 polynomial into Y4 via P_i -> y_i - y_4, by Taylor's formula.

    Along the direction (1, 1, 1), ``f(y - y4 (1, 1, 1)) = sum_j (-y4)^j
    g_j(y)`` with ``g_j = d^j f / j!`` and ``d = d/dP1 + d/dP2 + d/dP3``, so
    the coefficient of ``y1^m1 y2^m2 y3^m3 y4^j`` is ``(-1)^j [P^m] g_j``.
    The numerators of ``g_0`` are the stored ones, ``g_(j+1)`` is
    ``d g_j // (j + 1)`` and the loop stops at the first ``g_j`` that is 0.
    The division is exact on integer numerators, because
    ``d^j P^a / j! = sum_b C(a1, b1) C(a2, b2) C(a3, b3) P^b`` over
    ``|b| = |a| - j``.  Terms that meet under ``d`` merge before the next
    step, so a dense input, or a member of the kernel of ``d`` such as a
    product of differences ``P_i - P_k``, takes far fewer dict updates than
    one row of signed binomials per term.

    The last image is cached, so the listing pass of a non-member reuses
    the verdict pass's expansion.  Inputs are immutable and compare by
    value, and a raised :class:`SystemMismatchError` is not cached, so a
    cached image equals a fresh one.  ``__wrapped__`` is the uncached map.
    """
    if f.system is not System.PI3:
        raise SystemMismatchError("expand_pi_to_y expects a PI3 polynomial")
    g, den = f._numerators()
    out: dict[tuple[int, ...], int] = {}
    j = 0
    while g:
        if j % 2:
            out.update({(m1, m2, m3, j): -c for (m1, m2, m3), c in g.items()})
        else:
            out.update({(m1, m2, m3, j): c for (m1, m2, m3), c in g.items()})
        j += 1
        step: dict[tuple[int, int, int], int] = {}
        get = step.get
        for (m1, m2, m3), c in g.items():
            if m1:
                key = (m1 - 1, m2, m3)
                step[key] = get(key, 0) + m1 * c
            if m2:
                key = (m1, m2 - 1, m3)
                step[key] = get(key, 0) + m2 * c
            if m3:
                key = (m1, m2, m3 - 1)
                step[key] = get(key, 0) + m3 * c
        g = {m: c // j for m, c in step.items() if c}
    return SparsePolynomial._from_numerators(System.Y4, out, den)


def ambient_columns(config: KurodaConfig) -> tuple[tuple[int, int, int, int], ...]:
    """The ``Y4 ->`` ambient exponent map by columns: exponent ``j`` of ``x`` in ``y^n`` is ``n . column j``.

    Column ``j`` holds entry ``j`` of the three signed rows, then ``gamma``
    for the last slot and 0 elsewhere.
    """
    rows = [config.signed_row(i) for i in AXES]
    return tuple(
        (rows[0][j], rows[1][j], rows[2][j], config.gamma if j == 3 else 0) for j in range(4)
    )


def expand_y_to_x(n: Sequence[int], config: KurodaConfig) -> tuple[int, int, int, int]:
    """Ambient exponent vector (x1..x4) of the y-monomial with exponents ``n`` (entries >= 0).

    Integer combination of the signed rows plus ``n4 * gamma`` on the last
    slot; entries of the result may be negative.
    """
    exps = check_exponents(System.Y4, n)
    return tuple(sum(map(mul, exps, column)) for column in ambient_columns(config))


# The basis of axis i is u1 = P_a, u2 = P_b, u3 = P_b - P_c at the 0-based positions (a, b, c)
# below, so P_a^r1 P_b^r2 P_c^r3 = sum_k C(r3, k) (-1)^(r3-k) u1^r1 u2^(r2+k) u3^(r3-k).
_AXIS_POSITIONS = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}


@lru_cache(maxsize=3)
def reexpress_for_axis(f: SparsePolynomial, axis: int) -> SparsePolynomial:
    """Rewrite a PI3 polynomial in the AXIS3 basis of ``axis``; exact and invertible.

    The last three images are cached, one per axis for one polynomial, so
    the listing pass of a non-member reuses the verdict pass's images.  As
    for :func:`expand_pi_to_y`, inputs are immutable and errors are not
    cached, so a cached image equals a fresh one (``__wrapped__``).
    """
    if f.system is not System.PI3:
        raise SystemMismatchError("reexpress_for_axis expects a PI3 polynomial")
    if axis not in _AXIS_POSITIONS:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    a, b, c = _AXIS_POSITIONS[axis]
    nums, den = f._numerators()
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for exps, n in nums.items():
        r1, r2, r3 = exps[a], exps[b], exps[c]
        for k, s in enumerate(_signed_binomials(r3)):
            image = (r1, r2 + k, r3 - k)
            out[image] = get(image, 0) + n * s
    return SparsePolynomial._from_numerators(System.AXIS3, out, den)


def axis_support(f: SparsePolynomial, axis: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (r1, r2, r3) of ``f`` in the basis of ``axis``."""
    return reexpress_for_axis(f, axis).support()

