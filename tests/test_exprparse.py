import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda import ExpressionError, SparsePolynomial, System, parse_polynomial, polynomial_to_text
from kuroda.exprparse import MAX_DEGREE, _tokenize

from conftest import seeded_pi_polynomials
from reference import (
    parse_polynomial_by_folding,
    pi_variable,
    polynomial_to_text_via_fractions,
    tokens_by_character_loop,
    y_variable,
)


# One row per error branch, then inputs with two faults: the tokenizer runs
# before the grammar, the grammar before the vocabulary checks, and the degree
# guard before any variable is checked against an explicit system.
@pytest.mark.parametrize(
    "text, system, message, line, column",
    [
        ("P1 + $", None, "unexpected character '$' (line 1, column 6)", 1, 6),
        ("P1^\u00b2", None, "unexpected character '\u00b2' (line 1, column 4)", 1, 4),
        ("P1 + \u0663", None, "unexpected character '\u0663' (line 1, column 6)", 1, 6),
        ("P1\u00e9", None, "unexpected character '\u00e9' (line 1, column 3)", 1, 3),
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


# -- differential tests against the character loop and the polynomial fold --


def _outcome(parse, text, system):
    """The polynomial's stored form, or the error's message and position."""
    try:
        f = parse(text, system)
    except ExpressionError as err:
        return "error", str(err), err.line, err.column
    return f.system, f._numerators()


def _token_outcome(tokenize, text):
    try:
        return list(tokenize(text))
    except ExpressionError as err:
        return "error", str(err), err.line, err.column


_NAMES = {"P": ("P1", "P2", "P3"), "Y": ("Y1", "Y2", "Y3", "Y4")}
# at most this many terms, estimated from above, before a power is drawn
_TERM_BUDGET = 600


def _terms(variables, degree, estimate):
    """``estimate`` capped by the number of monomials of at most ``degree``."""
    return min(estimate, math.comb(variables + degree, variables))


@st.composite
def _expressions(draw, names, depth):
    """``(text, degree bound, term bound)`` of a random expression over ``names``."""
    shape = draw(st.sampled_from(
        ["atom", "linear", "sum", "product", "power", "power", "neg", "cancel"]
        if depth else ["atom", "linear"]
    ))
    if shape == "atom":
        kind = draw(st.sampled_from(["name", "high", "int", "ratio"]))
        if kind == "name":
            return draw(st.sampled_from(names)), 1, 1
        if kind == "high":
            k = draw(st.integers(0, MAX_DEGREE))
            return f"{draw(st.sampled_from(names))}^{k}", k, 1
        if kind == "int":
            return str(draw(st.integers(0, 12))), 0, 1
        return f"{draw(st.integers(0, 40))}/{draw(st.integers(1, 12))}", 0, 1
    if shape == "neg":
        text, degree, terms = draw(_expressions(names, depth - 1))
        return f"-({text})", degree, terms
    if shape == "cancel":
        text, degree, terms = draw(_expressions(names, depth - 1))
        return f"({text}) - ({text})", degree, 2 * terms
    if shape == "power":
        text, degree, terms = draw(_expressions(names, depth - 1))
        text = f"({text})"
        # a chain of one to three exponents, kept within the degree limit
        # and the term budget, and sometimes 0
        for _ in range(draw(st.integers(1, 3))):
            top = MAX_DEGREE // max(degree, 1)
            while top > 1 and _terms(len(names), degree * top, terms**top) > _TERM_BUDGET:
                top -= 1
            k = draw(st.integers(0, top))
            text += f"^{k}"
            terms = _terms(len(names), degree * k, terms**k)
            # the degree bound of a power of a constant counts the constant as 1
            degree = max(degree, 1) * k
        return text, degree, terms
    if shape == "linear":
        # a dense form in every variable, so that its powers are dense
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(names) + 1,
                               max_size=len(names) + 1))
        text = " + ".join(f"({c})*{name}" for c, name in zip(coeffs, names))
        return f"{text} + {coeffs[-1]}/{draw(st.integers(1, 3))}", 1, len(coeffs)
    parts = draw(st.lists(_expressions(names, depth - 1), min_size=2, max_size=3))
    if shape == "sum":
        signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(parts), max_size=len(parts)))
        text = " ".join(f"{s} ({t})" for s, (t, _, _) in zip(signs, parts))
        text = text.removeprefix("+ ")
        return text, max(d for _, d, _ in parts), sum(n for _, _, n in parts)
    degree = sum(d for _, d, _ in parts)
    terms = _terms(len(names), degree, math.prod(n for _, _, n in parts))
    if degree > MAX_DEGREE or terms > 4 * _TERM_BUDGET:
        return parts[0]
    return "*".join(f"({t})" for t, _, _ in parts), degree, terms


@st.composite
def _parse_cases(draw):
    family = draw(st.sampled_from(["P", "Y"]))
    text, _, _ = draw(_expressions(_NAMES[family], 4))
    # the system inferred, given and right, or given and wrong
    system = draw(st.sampled_from([None, System.PI3, System.Y4]))
    return text, system


@settings(max_examples=300, deadline=None)
@given(_parse_cases())
def test_parse_matches_the_polynomial_fold(case):
    text, system = case
    assert _outcome(parse_polynomial, text, system) == _outcome(
        parse_polynomial_by_folding, text, system
    )


@pytest.mark.parametrize(
    "text",
    [
        "(P1+P2)^3 - (P1+P2)^3",
        "Y1^0 + 0*Y4",
        "1/2*P1 - 2/4*P1 + 3/6",
        "((Y1*Y2 - 1/3)^2^2)^4",
        "(P1*P2^2 + P3^3)^3^2^2",
        "(2/3*P1 - 3/2)*(3/2*P1 + 2/3)",
        "0/5*(P1 + P2)^64",
        "(Y1 + Y2 + Y3 + Y4 - 1/7)^6",
        # whitespace beyond ASCII separates tokens, as it did in the character loop
        "P1\u00a0+\u2003P2^2\u3000*\n\u2028P3",
    ],
)
@pytest.mark.parametrize("system", [None, System.PI3, System.Y4])
def test_parse_matches_the_polynomial_fold_fixed(text, system):
    assert _outcome(parse_polynomial, text, system) == _outcome(
        parse_polynomial_by_folding, text, system
    )


_ASCII_PIECES = st.sampled_from(
    ["P1", "P3", "Y4", "P4", "p1", "P_1", "x", "_", "0", "7", "12", "/", "+", "-", "*",
     "^", "(", ")", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "$", "#", "."]
)


@settings(max_examples=400, deadline=None)
@given(st.text(st.characters(max_codepoint=127)) | st.lists(_ASCII_PIECES).map("".join))
def test_tokens_match_the_character_loop_on_ascii(text):
    assert _token_outcome(_tokenize, text) == _token_outcome(tokens_by_character_loop, text)
    assert _outcome(parse_polynomial, text, None) == _outcome(
        parse_polynomial_by_folding, text, None
    )
