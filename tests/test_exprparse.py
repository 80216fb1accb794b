import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda import ExpressionError, SparsePolynomial, System, parse_polynomial, polynomial_to_text
from kuroda.exprparse import MAX_DEGREE

from conftest import seeded_pi_polynomials
from reference import pi_variable, polynomial_to_text_via_fractions, y_variable


# One row per error branch, then inputs with two faults: the tokenizer runs
# before the grammar, the grammar before the vocabulary checks, and the degree
# guard before any variable is checked against an explicit system.
@pytest.mark.parametrize(
    "text, system, message, line, column",
    [
        ("P1 + $", None, "unexpected character '$' (line 1, column 6)", 1, 6),
        ("P1 +\n  2 # P2", None, "unexpected character '#' (line 2, column 5)", 2, 5),
        ("(P1 + P2", None, "expected ), found 'end of input' (line 1, column 9)", 1, 9),
        ("1/P1", None, "expected INT, found 'P1' (line 1, column 3)", 1, 3),
        ("3/", None, "expected INT, found 'end of input' (line 1, column 3)", 1, 3),
        ("P1 P2", None, "trailing input 'P2' (line 1, column 4)", 1, 4),
        ("(P1))", None, "trailing input ')' (line 1, column 5)", 1, 5),
        ("P1^-1", None, "exponent must be a nonnegative integer literal (line 1, column 4)", 1, 4),
        ("P1^", None, "exponent must be a nonnegative integer literal (line 1, column 4)", 1, 4),
        ("P1^1/2", None, "trailing input '/' (line 1, column 5)", 1, 5),
        ("P1 + 3/00", None, "zero denominator (line 1, column 8)", 1, 8),
        ("P1 + Q7", None,
         "unknown variable 'Q7' (expected P1..P3 or Y1..Y4) (line 1, column 6)", 1, 6),
        ("p1", None, "unknown variable 'p1' (expected P1..P3 or Y1..Y4) (line 1, column 1)", 1, 1),
        ("P1 + * P2", None, "expected a value, found '*' (line 1, column 6)", 1, 6),
        ("", None, "expected a value, found 'end of input' (line 1, column 1)", 1, 1),
        ("()", None, "expected a value, found ')' (line 1, column 2)", 1, 2),
        ("P1 + Y1", None, "expression mixes P- and Y-variables (line 1, column 1)", 1, 1),
        ("Y1", System.PI3,
         "variable Y1 does not belong to the PI3 system (line 1, column 1)", 1, 1),
        ("P1 + 1", System.Y4,
         "variable P1 does not belong to the Y4 system (line 1, column 1)", 1, 1),
        ("1 + P1^32*P2^33", None,
         "degree may reach 65, above the limit 64 (line 1, column 1)", 1, 1),
        ("P1^40*P2^40*P3^40", None,
         "degree may reach 120, above the limit 64 (line 1, column 1)", 1, 1),
        ("P1^65", None, "degree may reach 65, above the limit 64 (line 1, column 1)", 1, 1),
        ("Y1^2^33", None, "degree may reach 66, above the limit 64 (line 1, column 1)", 1, 1),
        ("3^65", None, "degree may reach 65, above the limit 64 (line 1, column 1)", 1, 1),
        ("(P1^100)^0", None, "degree may reach 100, above the limit 64 (line 1, column 1)", 1, 1),
        # two faults each: the first named wins
        ("P1^65 + $", None, "unexpected character '$' (line 1, column 9)", 1, 9),
        ("P1^65 P2", None, "trailing input 'P2' (line 1, column 7)", 1, 7),
        ("(P1^70 + 1", None, "expected ), found 'end of input' (line 1, column 11)", 1, 11),
        ("1/0 + Q1", None, "zero denominator (line 1, column 3)", 1, 3),
        ("Q1 + Y1 + P1", None,
         "unknown variable 'Q1' (expected P1..P3 or Y1..Y4) (line 1, column 1)", 1, 1),
        ("P1 + Y1^65", None, "expression mixes P- and Y-variables (line 1, column 1)", 1, 1),
        ("Y1^65", System.PI3,
         "degree may reach 65, above the limit 64 (line 1, column 1)", 1, 1),
        ("P2^70*P1^65", None, "degree may reach 70, above the limit 64 (line 1, column 1)", 1, 1),
        ("2*P2 - Y4*P1 + Y1", System.PI3,
         "variable Y4 does not belong to the PI3 system (line 1, column 1)", 1, 1),
    ],
)
def test_expression_errors(text, system, message, line, column):
    with pytest.raises(ExpressionError) as err:
        parse_polynomial(text, system)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


def test_parse_antisymmetric_product():
    f = parse_polynomial("(P1-P2)*(P2-P3)*(P3-P1)")
    assert f.system is System.PI3
    assert f.term_count() == 6
    P1, P2, P3 = (pi_variable(i) for i in (1, 2, 3))
    assert f == (P1 - P2) * (P2 - P3) * (P3 - P1)


def test_parse_power_zero():
    assert parse_polynomial("P1^0") == SparsePolynomial.constant(System.PI3, 1)


def test_negative_power_is_a_syntax_error():
    with pytest.raises(ExpressionError) as err:
        parse_polynomial("P1^-1")
    assert "exponent" in str(err.value)


@pytest.mark.parametrize(
    "text, bound",
    [
        ("7/3", 0),
        ("P1", 1),
        ("P1 + P2^3 - 4", 3),
        ("(P1 + 1)*(P2 - P3)^2", 3),
        ("-(P1*P2)^3", 6),
        ("(P1^2)^3", 6),
        ("P1^0", 0),
        ("2^5", 5),
        ("(P1 - P1)^7", 7),
        ("Y1^2*Y4", 3),
    ],
)
def test_degree_bound(text, bound):
    # the bounds of a product's factors add, so a factor of bound 64 - b
    # reaches the limit and one of 65 - b passes it
    var = "Y1" if text.startswith("Y") else "P1"
    parse_polynomial(f"({text})*{var}^{MAX_DEGREE - bound}")
    with pytest.raises(ExpressionError, match=f"may reach {MAX_DEGREE + 1},"):
        parse_polynomial(f"({text})*{var}^{MAX_DEGREE + 1 - bound}")


def test_lowering_rejects_degree_above_the_limit():
    assert parse_polynomial(f"P1^{MAX_DEGREE}").support() == ((MAX_DEGREE, 0, 0),)
    for text in (f"P1^{MAX_DEGREE + 1}", "P1^40*(P2 + 1)^40", "(P1^100)^0", "3^65"):
        with pytest.raises(ExpressionError) as err:
            parse_polynomial(text)
        assert "above the limit" in str(err.value)
    # the bound is read before any power is built
    with pytest.raises(ExpressionError, match="may reach 99999999999,"):
        parse_polynomial("P1^99999999999")


def test_rational_coefficients():
    f = parse_polynomial("7/3 + 1/2*P1")
    assert f.coefficient((0, 0, 0)) == Fraction(7, 3)
    assert f.coefficient((1, 0, 0)) == Fraction(1, 2)
    with pytest.raises(ExpressionError):
        parse_polynomial("1/0")


def test_unary_minus_binds_above_product_below_power():
    f = parse_polynomial("-P1^2")
    assert f.coefficient((2, 0, 0)) == -1
    g = parse_polynomial("2*-P1")
    assert g.coefficient((1, 0, 0)) == -2
    P1, P2 = pi_variable(1), pi_variable(2)
    assert parse_polynomial("-(P1+2)^3*P2") == -((P1 + 2) ** 3) * P2


def test_power_chains_left_associate():
    f = parse_polynomial("P1^2^3")
    assert f.coefficient((6, 0, 0)) == 1


def test_y_system_expression():
    f = parse_polynomial("Y1*Y2 - Y4^2")
    assert f.system is System.Y4
    assert f.coefficient((0, 0, 0, 2)) == -1
    assert f == y_variable(1) * y_variable(2) - y_variable(4) ** 2


def test_unknown_variable():
    with pytest.raises(ExpressionError) as err:
        parse_polynomial("P1 + Q7")
    assert "unknown variable" in str(err.value)
    assert err.value.column == 6


def test_mixed_systems_rejected():
    with pytest.raises(ExpressionError):
        parse_polynomial("P1 + Y1")


def test_syntax_error_position():
    with pytest.raises(ExpressionError) as err:
        parse_polynomial("P1 + * P2")
    assert err.value.line == 1
    assert err.value.column == 6


def test_trailing_input_rejected():
    with pytest.raises(ExpressionError):
        parse_polynomial("P1 P2")


def test_constant_only_defaults_to_difference_system():
    f = parse_polynomial("3")
    assert f.system is System.PI3
    assert f.support() == ((0, 0, 0),)


def test_print_parse_round_trip_fixed():
    cases = [
        "0",
        "1",
        "-1",
        "P1",
        "7/3",
        "(P1-P2)*(P2-P3)*(P3-P1)",
        "1/2*P1^4 - 5*P2*P3 + 2",
        "Y1^2*Y4 - 3/2*Y3",
    ]
    for text in cases:
        f = parse_polynomial(text)
        assert parse_polynomial(polynomial_to_text(f), f.system) == f


def test_print_parse_round_trip_random():
    for f in seeded_pi_polynomials(777, 120):
        printed = polynomial_to_text(f)
        assert parse_polynomial(printed, System.PI3) == f


@st.composite
def polynomials(draw):
    system = draw(st.sampled_from([System.PI3, System.Y4, System.AXIS3]))
    exps = st.tuples(*[st.integers(0, 4)] * system.arity)
    coeffs = st.builds(
        Fraction,
        st.integers(-60, 60) | st.integers(-10**30, 10**30),
        st.integers(1, 36) | st.sampled_from([1, 2, 3**40]),
    )
    return SparsePolynomial(system, draw(st.dictionaries(exps, coeffs, max_size=8)))


@settings(max_examples=400, deadline=None)
@given(polynomials())
def test_text_from_numerators_matches_fraction_terms(f):
    # the common denominator is often not the one a term prints with
    assert polynomial_to_text(f) == polynomial_to_text_via_fractions(f)


def test_text_from_numerators_fixed_cases():
    cases = {
        "1/2*P1 + P2": "P2 + 1/2*P1",
        "2/4*P1 - 3/6*P2 + 1/3": "1/3 - 1/2*P2 + 1/2*P1",
        "-P1 + 4/2": "2 - P1",
        "-6/4": "-3/2",
    }
    for text, printed in cases.items():
        f = parse_polynomial(text)
        assert polynomial_to_text(f) == polynomial_to_text_via_fractions(f) == printed
    zero = SparsePolynomial(System.Y4, {})
    assert polynomial_to_text(zero) == polynomial_to_text_via_fractions(zero) == "0"


def test_random_y_polynomials_round_trip():
    rng = random.Random(31337)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 4) for _ in range(4))
            terms[exps] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
        f = SparsePolynomial(System.Y4, terms)
        assert parse_polynomial(polynomial_to_text(f), System.Y4) == f


def _random_expression(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            ["P1", "P2", "P3", str(rng.randint(0, 9)), f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"]
        )
    shape = rng.random()
    if shape < 0.35:
        return f"({_random_expression(rng, depth - 1)} + {_random_expression(rng, depth - 1)})"
    if shape < 0.6:
        return f"({_random_expression(rng, depth - 1)} - {_random_expression(rng, depth - 1)})"
    if shape < 0.85:
        return f"{_random_expression(rng, depth - 1)} * {_random_expression(rng, depth - 1)}"
    if shape < 0.95:
        return f"({_random_expression(rng, depth - 1)})^{rng.randint(0, 3)}"
    return f"-{_random_expression(rng, depth - 1)}"


def test_random_expression_trees_round_trip():
    rng = random.Random(271828)
    for _ in range(150):
        text = _random_expression(rng, 4)
        f = parse_polynomial(text, System.PI3)
        assert parse_polynomial(polynomial_to_text(f), System.PI3) == f
