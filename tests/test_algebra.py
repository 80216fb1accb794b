from fractions import Fraction
from math import gcd
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda import SparsePolynomial, System, expand_y_to_x
from kuroda.algebra import (
    SystemMismatchError,
    axis_support,
    expand_pi_to_y,
    reexpress_for_axis,
    substitute,
)

from reference import axis_to_pi, pi_variable, y_variable

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
    assert Fraction(2, 3) * P1 == SparsePolynomial.monomial(System.PI3, (1, 0, 0), Fraction(2, 3))


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
