from fractions import Fraction
from math import factorial, gcd, prod
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda import SparsePolynomial, System, expand_y_to_x, parse_polynomial
from kuroda.algebra import (
    SystemMismatchError,
    _pack,
    _power,
    _product,
    _slot_bits,
    _sum,
    _times,
    _top,
    _unpack,
    axis_support,
    expand_pi_to_y,
    reexpress_for_axis,
    substitute,
)

from reference import (
    axis_to_pi,
    expand_pi_to_y_binomial,
    pi_variable,
    product_by_tuples,
    y_variable,
)

P1, P2, P3 = (pi_variable(i) for i in (1, 2, 3))
U1, U2, U3 = (SparsePolynomial.variable(System.AXIS3, i) for i in (1, 2, 3))

# Axis basis u1, u2, u3 in terms of P1..P3, and P1..P3 in terms of u1, u2, u3.
AXIS_BASES = {1: (P1, P2, P2 - P3), 2: (P2, P1, P1 - P3), 3: (P3, P1, P1 - P2)}
AXIS_INVERSES = {1: (U1, U2, U2 - U3), 2: (U2, U1, U2 - U3), 3: (U2, U2 - U3, U1)}


def test_additive_inverse_gives_zero():
    assert (P1 + (-P1)).is_zero()


def test_product_expansion_by_hand():
    product = (P1 - P2) * (P2 - P3)
    expected = SparsePolynomial(
        System.PI3,
        {
            (1, 1, 0): Fraction(1),
            (1, 0, 1): Fraction(-1),
            (0, 2, 0): Fraction(-1),
            (0, 1, 1): Fraction(1),
        },
    )
    assert product == expected


def test_power_zero_is_one():
    assert P2**0 == SparsePolynomial.constant(System.PI3, 1)
    assert SparsePolynomial.zero(System.PI3) ** 0 == 1


def test_power_rejects_negative_and_non_integer():
    with pytest.raises(ValueError):
        P1 ** (-1)
    with pytest.raises(ValueError):
        P1 ** 1.5  # type: ignore[operator]


def test_system_mismatch_raises():
    with pytest.raises(SystemMismatchError):
        P1 + y_variable(1)
    with pytest.raises(SystemMismatchError):
        P1 * y_variable(2)


def test_negative_exponents_rejected_in_every_system():
    for system in System:
        exps = (0,) * (system.arity - 1) + (-1,)
        with pytest.raises(SystemMismatchError):
            SparsePolynomial.monomial(system, exps)
    with pytest.raises(SystemMismatchError):
        SparsePolynomial.monomial(System.Y4, (1, -1, 0, 0))
    with pytest.raises(SystemMismatchError):
        SparsePolynomial.monomial(System.PI3, (0, -2, 0))


def test_scalar_mixing():
    assert (P1 + 1) - 1 == P1
    assert P1 * Fraction(2, 3) == Fraction(2, 3) * SparsePolynomial.monomial(System.PI3, (1, 0, 0))


def test_expand_pi_to_y_variable():
    assert expand_pi_to_y(P1) == y_variable(1) - y_variable(4)


def test_expand_pi_to_y_triple_product():
    expanded = expand_pi_to_y(P1 * P2 * P3)
    expected = {
        (1, 1, 1, 0): 1,
        (1, 1, 0, 1): -1,
        (1, 0, 1, 1): -1,
        (0, 1, 1, 1): -1,
        (1, 0, 0, 2): 1,
        (0, 1, 0, 2): 1,
        (0, 0, 1, 2): 1,
        (0, 0, 0, 3): -1,
    }
    assert dict(expanded.terms()) == {k: Fraction(v) for k, v in expected.items()}


def test_expand_pi_to_y_constant():
    one = SparsePolynomial.constant(System.PI3, 1)
    assert expand_pi_to_y(one) == SparsePolynomial.constant(System.Y4, 1)


def test_expand_y_to_x_rows(concrete):
    assert expand_y_to_x((1, 0, 0, 0), concrete) == (-1, 3, 3, 0)
    assert expand_y_to_x((1, 1, 0, 0), concrete) == (2, 2, 6, 0)
    assert expand_y_to_x((0, 0, 0, 1), concrete) == (0, 0, 0, 1)


def test_expand_y_to_x_gamma_weight():
    from kuroda import KurodaConfig

    config = KurodaConfig.from_signed([[-1, 3, 3, 2], [3, -1, 3, 0], [3, 3, -1, 1]], 4)
    assert expand_y_to_x((0, 0, 0, 2), config) == (0, 0, 0, 8)
    assert expand_y_to_x((1, 0, 1, 0), config) == (2, 6, 2, 3)


def test_reexpress_examples():
    assert axis_support(P3, 1) == ((0, 0, 1), (0, 1, 0))
    g = reexpress_for_axis(P3, 1)
    assert g.coefficient((0, 1, 0)) == 1 and g.coefficient((0, 0, 1)) == -1
    assert axis_support(P1, 1) == ((1, 0, 0),)
    assert axis_support(P1 * P2**2, 1) == ((1, 2, 0),)


def test_axis_bases_are_consistent():
    for axis in (1, 2, 3):
        for var in (P1, P2, P3):
            assert axis_to_pi(reexpress_for_axis(var, axis), axis) == var


def test_axis_out_of_range_raises():
    for axis in (0, 4):
        with pytest.raises(ValueError):
            reexpress_for_axis(P1, axis)
        with pytest.raises(ValueError):
            axis_to_pi(U1, axis)


def test_expand_pi_to_y_term_count_at_degree_16():
    assert expand_pi_to_y((P1 + P2 + P3 + 1) ** 16).term_count() == 4845


@st.composite
def pi_polynomials(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(3))
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return SparsePolynomial(System.PI3, terms)


@settings(max_examples=80, deadline=None)
@given(pi_polynomials(), pi_polynomials(), pi_polynomials())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(pi_polynomials(), pi_polynomials())
def test_expand_pi_to_y_is_a_ring_homomorphism(f, g):
    assert expand_pi_to_y(f * g) == expand_pi_to_y(f) * expand_pi_to_y(g)
    assert expand_pi_to_y(f + g) == expand_pi_to_y(f) + expand_pi_to_y(g)


@st.composite
def difference_sums(draw):
    """Up to 3 terms ``c (P1-P2)^a (P1-P3)^b (P2-P3)^e``, ``a, b, e <= 3``: killed by d."""
    f = SparsePolynomial.zero(System.PI3)
    for _ in range(draw(st.integers(1, 3))):
        a, b, e = (draw(st.integers(0, 3)) for _ in range(3))
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        f = f + coeff * (P1 - P2) ** a * (P1 - P3) ** b * (P2 - P3) ** e
    return f


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        pi_polynomials(),
        st.fractions(max_denominator=7).map(lambda c: SparsePolynomial.constant(System.PI3, c)),
    )
)
def test_expand_pi_to_y_matches_the_binomial_form(f):
    image = expand_pi_to_y.__wrapped__(f)
    assert image == expand_pi_to_y_binomial(f)
    assert_canonical(image, System.Y4)


@settings(max_examples=60, deadline=None)
@given(difference_sums())
def test_expand_pi_to_y_matches_the_binomial_form_on_the_kernel_of_d(f):
    # d f = 0, so the Taylor form stops after g_0: no power of y4 appears
    image = expand_pi_to_y.__wrapped__(f)
    assert image == expand_pi_to_y_binomial(f)
    assert all(n[3] == 0 for n in image.support())


def test_expand_pi_to_y_matches_the_binomial_form_at_degree_24():
    f = (P1 + P2 + P3 + 1) ** 24
    assert f.term_count() == 2925
    image = expand_pi_to_y.__wrapped__(f)
    assert image == expand_pi_to_y_binomial(f)
    assert_canonical(image, System.Y4)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*(st.integers(0, 6) for _ in range(4))),
    st.tuples(*(st.integers(0, 6) for _ in range(4))),
)
def test_expand_y_to_x_is_additive(n, m):
    from kuroda import concrete_example

    config = concrete_example()
    total = tuple(a + b for a, b in zip(n, m))
    image_sum = tuple(
        a + b for a, b in zip(expand_y_to_x(n, config), expand_y_to_x(m, config))
    )
    assert expand_y_to_x(total, config) == image_sum


@settings(max_examples=60, deadline=None)
@given(pi_polynomials(), st.sampled_from((1, 2, 3)))
def test_reexpress_round_trip(f, axis):
    assert axis_to_pi(reexpress_for_axis(f, axis), axis) == f


@settings(max_examples=60, deadline=None)
@given(pi_polynomials(), st.sampled_from((1, 2, 3)))
def test_closed_forms_match_substitute(f, axis):
    y_images = [y_variable(i) - y_variable(4) for i in (1, 2, 3)]
    assert expand_pi_to_y(f) == substitute(f, y_images, System.Y4)
    g = reexpress_for_axis(f, axis)
    assert g == substitute(f, AXIS_INVERSES[axis], System.AXIS3)
    assert axis_to_pi(g, axis) == substitute(g, AXIS_BASES[axis], System.PI3)


def _as_sympy(sympy, h, names):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(v**e for v, e in zip(names, exps)))
            for exps, c in h.terms()
        )
    )


@settings(max_examples=30, deadline=None)
@given(pi_polynomials(), st.sampled_from((1, 2, 3)))
def test_closed_forms_match_sympy(f, axis):
    sympy = pytest.importorskip("sympy")
    p = sympy.symbols("p1:4")
    y = sympy.symbols("y1:5")
    u = sympy.symbols("u1:4")

    def as_sympy(h, names):
        return _as_sympy(sympy, h, names)

    y_images = {p[i]: y[i] - y[3] for i in range(3)}
    axis_images = dict(zip(p, (as_sympy(g, u) for g in AXIS_INVERSES[axis])))
    f_sym = as_sympy(f, p)
    y_sym = as_sympy(expand_pi_to_y(f), y)
    assert sympy.expand(y_sym - f_sym.subs(y_images, simultaneous=True)) == 0
    g_sym = as_sympy(reexpress_for_axis(f, axis), u)
    assert sympy.expand(g_sym - f_sym.subs(axis_images, simultaneous=True)) == 0


@st.composite
def rational_pi_polynomials(draw):
    """Up to 5 terms of degree <= 4, coefficients n/d with d up to 100.

    Coprime denominators this large make the common denominators of sums,
    products and expansions large, unlike the {1, 2, 3} of ``pi_polynomials``.
    """
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(3))
        terms[exps] = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 100)))
    return SparsePolynomial(System.PI3, terms)


def assert_canonical(h, system):
    """Nonzero int numerators over a positive int denominator in lowest terms.

    Keys are int tuples of the system's arity, and the public constructor
    rebuilds the same stored form from the ``Fraction`` terms.
    """
    assert h.system is system
    nums, den = h._numerators()
    assert type(den) is int and den > 0
    assert gcd(den, *nums.values()) == 1
    for exps, n in nums.items():
        assert type(n) is int and n != 0
        assert type(exps) is tuple and len(exps) == system.arity
        assert all(type(e) is int for e in exps)
    for exps, c in h.terms():
        assert type(c) is Fraction and c != 0
    rebuilt = SparsePolynomial(system, dict(h.terms()))
    assert h == rebuilt and hash(h) == hash(rebuilt)
    assert rebuilt._numerators() == (nums, den)


@settings(max_examples=40, deadline=None)
@given(
    rational_pi_polynomials(),
    rational_pi_polynomials(),
    st.integers(0, 3),
    st.sampled_from((1, 2, 3)),
)
def test_rational_arithmetic_matches_sympy(f, g, k, axis):
    sympy = pytest.importorskip("sympy")
    p = sympy.symbols("p1:4")
    y = sympy.symbols("y1:5")
    u = sympy.symbols("u1:4")
    f_sym, g_sym = _as_sympy(sympy, f, p), _as_sympy(sympy, g, p)
    h = SparsePolynomial(System.AXIS3, dict(g.terms()))  # g's terms read in the axis basis
    h_sym = _as_sympy(sympy, h, u)

    y_images = {p[i]: y[i] - y[3] for i in range(3)}
    axis_images = dict(zip(p, (_as_sympy(sympy, b, u) for b in AXIS_INVERSES[axis])))
    basis_images = dict(zip(u, (_as_sympy(sympy, b, p) for b in AXIS_BASES[axis])))
    cases = [
        (f + g, f_sym + g_sym, p),
        (f - g, f_sym - g_sym, p),
        (-f, -f_sym, p),
        (f * g, f_sym * g_sym, p),
        (f**k, f_sym**k, p),
        (3 * f + Fraction(1, 7), 3 * f_sym + sympy.Rational(1, 7), p),
        (expand_pi_to_y(f), f_sym.subs(y_images, simultaneous=True), y),
        (reexpress_for_axis(f, axis), f_sym.subs(axis_images, simultaneous=True), u),
        (axis_to_pi(h, axis), h_sym.subs(basis_images, simultaneous=True), p),
    ]
    for result, expected, names in cases:
        assert sympy.expand(_as_sympy(sympy, result, names) - expected) == 0
        system = {p: System.PI3, y: System.Y4, u: System.AXIS3}[names]
        assert_canonical(result, system)


def _snapshot(h):
    nums, den = h._numerators()
    return h.system, dict(nums), den


@settings(max_examples=40, deadline=None)
@given(rational_pi_polynomials(), rational_pi_polynomials(), st.integers(0, 3))
def test_operands_unchanged_by_arithmetic(f, g, k):
    # a result may hold its operand's numerator dict (f**1 does), so no
    # kernel may write into a dict it reads
    operands = [f, g]
    before = [_snapshot(h) for h in operands]
    results = [
        f + g, g + f, f - g, -f, f * g, g * f, f**k, f**1, f + 0, 0 + f,
        Fraction(3, 7) * f, f - Fraction(1, 2), expand_pi_to_y(f),
        *(reexpress_for_axis(f, axis) for axis in (1, 2, 3)),
    ]
    operands += results
    before += [_snapshot(h) for h in results]
    derived = (lambda h: h + h, lambda h: h * h, neg, lambda h: h**2)
    results += [op(h) for h in results for op in derived]
    assert [_snapshot(h) for h in operands] == before
    for h in results:
        assert_canonical(h, h.system)


def test_canonical_form_unique():
    a = SparsePolynomial(System.PI3, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(2)})
    b = (P1 + P2) + P2
    assert a == b
    assert hash(a) == hash(b)
    assert a.support() == ((0, 1, 0), (1, 0, 0))


# -- bounded caches on the two route maps ------------------------------------


def _rebuilt(f):
    """A polynomial equal to ``f`` but built separately, through the public constructor."""
    return SparsePolynomial(System.PI3, dict(reversed(f.terms())))


@settings(max_examples=60, deadline=None)
@given(rational_pi_polynomials(), rational_pi_polynomials())
def test_cached_maps_equal_the_uncached_maps(f, g):
    expand, reexpress = expand_pi_to_y.__wrapped__, reexpress_for_axis.__wrapped__
    f_image = expand(f)
    f_axes = {axis: reexpress(f, axis) for axis in (1, 2, 3)}
    # a repeat call, then an equal polynomial built separately
    hits = expand_pi_to_y.cache_info().hits, reexpress_for_axis.cache_info().hits
    for h in (f, f, _rebuilt(f), _rebuilt(f)):
        assert expand_pi_to_y(h) == f_image
        for axis in (1, 2, 3):
            assert reexpress_for_axis(h, axis) == f_axes[axis]
    assert expand_pi_to_y.cache_info().hits >= hits[0] + 3
    assert reexpress_for_axis.cache_info().hits >= hits[1] + 9
    # calls interleaved across two polynomials evict each other's entries
    g_image = expand(g)
    g_axes = {axis: reexpress(g, axis) for axis in (1, 2, 3)}
    for _ in range(2):
        for h, image, axes in ((g, g_image, g_axes), (f, f_image, f_axes)):
            assert expand_pi_to_y(h) == image
            for axis in (3, 1, 2):
                assert reexpress_for_axis(h, axis) == axes[axis]
    for axis in (1, 2, 3):
        assert reexpress_for_axis(g, axis) == g_axes[axis]
        assert reexpress_for_axis(f, axis) == f_axes[axis]
    assert expand_pi_to_y.cache_info().currsize <= 1
    assert reexpress_for_axis.cache_info().currsize <= 3


@pytest.mark.parametrize(
    "h",
    [y_variable(1) - y_variable(4), U1 * U2 + U3],
    ids=["Y4", "AXIS3"],
)
def test_cached_maps_raise_on_every_call(h):
    for _ in range(3):
        with pytest.raises(SystemMismatchError):
            expand_pi_to_y(h)
        for axis in (1, 2, 3):
            with pytest.raises(SystemMismatchError):
                reexpress_for_axis(h, axis)
    # the errors left the caches usable
    assert expand_pi_to_y(P1) == y_variable(1) - y_variable(4)


def test_member_report_after_a_dense_non_member_matches_golden(tmp_path):
    from test_golden import GOLDEN, run_case

    golden = (GOLDEN / "member.json").read_bytes()
    for name in ("member", "member_dense8", "member"):
        code, text = run_case(name, tmp_path)
        assert code == 0
    assert text == golden


# -- the packed product kernel at the top of its slots ------------------------


def _by_tuples(system, factors):
    """Product of ``(numerator map, power)`` factors by the tuple-key reference."""
    out = {(0,) * system.arity: 1}
    for nums, k in factors:
        for _ in range(k):
            out = product_by_tuples(out, nums)
    return SparsePolynomial._from_numerators(system, out, 1)


# Each case's largest exponent fills the top bit of its slots: 64 in the
# parser's 7-bit slots, and top(a) + top(b) in a product's own width.
_SLOT_TOP_CASES = [
    ("P1^64", System.PI3, [({(1, 0, 0): 1}, 64)]),
    ("P1^63*P1", System.PI3, [({(63, 0, 0): 1}, 1), ({(1, 0, 0): 1}, 1)]),
    ("(P1*P2*P3)^21*P3", System.PI3, [({(1, 1, 1): 1}, 21), ({(0, 0, 1): 1}, 1)]),
    ("(P1 - P2)^64", System.PI3, [({(1, 0, 0): 1, (0, 1, 0): -1}, 64)]),
    ("(Y1*Y2*Y3*Y4)^16", System.Y4, [({(1, 1, 1, 1): 1}, 16)]),
    ("Y4^63*Y4", System.Y4, [({(0, 0, 0, 63): 1}, 1), ({(0, 0, 0, 1): 1}, 1)]),
    ("(Y1 - Y4)^32*(Y2 + 2*Y3)^32", System.Y4,
     [({(1, 0, 0, 0): 1, (0, 0, 0, 1): -1}, 32), ({(0, 1, 0, 0): 1, (0, 0, 1, 0): 2}, 32)]),
]


@pytest.mark.parametrize("text, system, factors", _SLOT_TOP_CASES)
def test_packed_products_at_the_slot_top_match_tuple_products(text, system, factors):
    expected = _by_tuples(system, factors)
    assert parse_polynomial(text) == expected
    polys = [(SparsePolynomial._from_numerators(system, dict(nums), 1), k) for nums, k in factors]
    assert prod((f**k for f, k in polys), start=SparsePolynomial.constant(system, 1)) == expected
    # the kernel alone, one product at a time from the left
    out = {(0,) * system.arity: 1}
    for nums, k in factors:
        for _ in range(k):
            bits = _slot_bits(_top(out) + _top(nums))
            packed = _product(_pack(out, system.arity, bits), _pack(nums, system.arity, bits))
            assert _unpack(packed, system.arity, bits) == product_by_tuples(out, nums)
            out = product_by_tuples(out, nums)


def test_products_of_large_exponents():
    m = 5 * SparsePolynomial.monomial(System.PI3, (1000, 3, 0))
    square = 25 * SparsePolynomial.monomial(System.PI3, (2000, 6, 0))
    assert m * m == m**2 == square
    f = m + P1 - Fraction(1, 3)
    expected = SparsePolynomial._from_numerators(
        System.PI3, product_by_tuples(f._nums, f._nums), f._den**2
    )
    assert f * f == f**2 == expected
    y = SparsePolynomial.monomial(System.Y4, (0, 0, 0, 1023)) + y_variable(1)
    assert y * y == y**2 == SparsePolynomial(
        System.Y4, {(0, 0, 0, 2046): 1, (1, 0, 0, 1023): 2, (2, 0, 0, 0): 1}
    )


def test_products_with_zero_and_powers_zero():
    zero = SparsePolynomial.zero(System.PI3)
    f = P1 - 2 * P2**3 + Fraction(1, 2)
    for product in (zero * f, f * zero, zero * zero, zero**1, zero**5):
        assert product.is_zero() and product.system is System.PI3
    assert zero**0 == f**0 == 1
    assert f**1 == f
    assert parse_polynomial("(P1 - P1)^5 * P2") == zero
    assert parse_polynomial("(P1 - P1)^0") == 1


# -- the kernels that ``*``, ``**`` and the parser share ------------------------

Y1, Y4 = y_variable(1), y_variable(4)
C = SparsePolynomial.constant
ZERO = SparsePolynomial.zero(System.PI3)
THIRD = Fraction(1, 3)

# (text, the same polynomial built by the operators)
_SHARED_CASES = [
    # a constant factor with a denominator only scales the other map
    ("3/4*(P1 - 2*P2 + 1/3)", lambda: C(System.PI3, Fraction(3, 4)) * (P1 - 2 * P2 + THIRD)),
    ("(P1 - 2*P2 + 1/3)*3/4", lambda: (P1 - 2 * P2 + THIRD) * C(System.PI3, Fraction(3, 4))),
    ("5/6*7/10", lambda: C(System.PI3, Fraction(5, 6)) * C(System.PI3, Fraction(7, 10))),
    ("(1/2)^3*(2*P1*P2 - 6/5)^2",
     lambda: C(System.PI3, Fraction(1, 2)) ** 3 * (2 * P1 * P2 - Fraction(6, 5)) ** 2),
    # constant powers
    ("(-2/3)^5", lambda: C(System.PI3, Fraction(-2, 3)) ** 5),
    ("(5/6)^0", lambda: C(System.PI3, Fraction(5, 6)) ** 0),
    ("7^1", lambda: C(System.PI3, 7) ** 1),
    ("0^3", lambda: ZERO**3),
    ("0^0", lambda: ZERO**0),
    ("(P1 - P1)^0", lambda: (P1 - P1) ** 0),
    # products that cancel, in part or to 0
    ("(P1 + P2)*(P1 - P2)", lambda: (P1 + P2) * (P1 - P2)),
    ("(P1 - P1)*(P2 + 1/2)", lambda: (P1 - P1) * (P2 + Fraction(1, 2))),
    ("1/2*(2/3*P1 + 1)^3*0", lambda: Fraction(1, 2) * (Fraction(2, 3) * P1 + 1) ** 3 * 0),
    ("(P1 + P2)^2 - P1^2 - 2*P1*P2 - P2^2", lambda: (P1 + P2) ** 2 - P1**2 - 2 * P1 * P2 - P2**2),
    ("(Y1 - Y4)*(Y1 + Y4) - Y1^2 + Y4^2", lambda: (Y1 - Y4) * (Y1 + Y4) - Y1**2 + Y4**2),
    ("(1/3*Y1 - Y4)^4*(3*Y1 + 2/7)", lambda: (THIRD * Y1 - Y4) ** 4 * (3 * Y1 + Fraction(2, 7))),
]


@pytest.mark.parametrize("text, build", _SHARED_CASES)
def test_shared_kernels_match_sympy(text, build):
    sympy = pytest.importorskip("sympy")
    parsed = parse_polynomial(text)
    built = build()
    assert parsed == built
    assert_canonical(parsed, built.system)
    assert_canonical(built, built.system)
    names = sympy.symbols("P1:4") if built.system is System.PI3 else sympy.symbols("Y1:5")
    text = text.replace("^", "**")
    expected = sympy.expand(sympy.sympify(text, locals={str(v): v for v in names}))
    assert sympy.expand(_as_sympy(sympy, built, names) - expected) == 0


def test_shared_kernels_on_their_edges():
    # key 0 is the constant monomial in every packing
    assert _times({0: 3}, {5: 2, 9: -1}) == _times({5: 2, 9: -1}, {0: 3}) == {5: 6, 9: -3}
    assert _times({}, {0: 3}) == _times({4: 1}, {}) == {}
    assert _times({1: 1, 2: 1}, {1: 1, 2: -1}) == {2: 1, 4: -1}
    assert _power({}, 0) == _power({0: 5}, 0) == _power({3: 2}, 0) == {0: 1}
    assert _power({}, 3) == {} and _power({0: -2}, 3) == {0: -8}
    base = {1: 1, 2: -1}
    assert _power(base, 2) == _product(base, base) == {2: 1, 3: -2, 4: 1}
    assert _sum([({(1, 0): 1, (0, 1): 2}, 2), ({(1, 0): -1}, 4)]) == ({(1, 0): 1, (0, 1): 4}, 4)
    assert _sum([({7: 1}, 3), ({7: -2}, 6)]) == ({}, 6)


def test_dense_power_at_the_degree_limit():
    f = parse_polynomial("(P1+P2+P3+1)^64")
    assert f.term_count() == 47_905 and f._den == 1
    for a in [(64, 0, 0), (0, 0, 0), (21, 21, 22), (16, 16, 16), (1, 2, 3), (0, 31, 33)]:
        rest = 64 - sum(a)
        multinomial = factorial(64) // prod(factorial(e) for e in (*a, rest))
        assert f.coefficient(a) == multinomial
    assert f == (P1 + P2 + P3 + 1) ** 64


_SLOT_EDGES = st.sampled_from([0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 1000])


@st.composite
def _edge_polynomials(draw, system=System.PI3):
    exps = st.tuples(*[_SLOT_EDGES] * system.arity)
    nums = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), min_size=1, max_size=4))
    return SparsePolynomial._from_numerators(system, nums, draw(st.sampled_from([1, 2, 6])))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([System.PI3, System.Y4]).flatmap(
        lambda s: st.tuples(_edge_polynomials(s), _edge_polynomials(s))
    ),
    st.integers(0, 4),
)
def test_products_on_slot_edges_match_tuple_products(pair, k):
    f, g = pair
    expected = SparsePolynomial._from_numerators(
        f.system, product_by_tuples(f._nums, g._nums), f._den * g._den
    )
    assert f * g == expected
    power = {(0,) * f.system.arity: 1}
    for _ in range(k):
        power = product_by_tuples(power, f._nums)
    assert f**k == SparsePolynomial._from_numerators(f.system, power, f._den**k)
