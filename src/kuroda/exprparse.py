"""Polynomial expression text: parsing to a polynomial and canonical printing.

Grammar (ASCII, whitespace-insensitive)::

    expr    :=  term (('+' | '-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' INT)*
    atom    :=  NAME | NUMBER | '(' expr ')'
    NUMBER  :=  INT ('/' INT)?          -- exact rational literal
    NAME    :=  P1 | P2 | P3 | Y1 | Y2 | Y3 | Y4

Precedence: ``^`` over ``*`` over ``+``/``-``; sums and products associate
left.  Exponents are nonnegative integer literals only, so ``P1^-1`` is a
syntax error rather than a Laurent term.  ``/`` occurs only inside numeric
literals; there is no division operator.  An expression must stay within one
variable family (P* or Y*); constants alone default to the P-system.

:func:`parse_polynomial` reads the token list twice with the same
recursive-descent parser.  The first read checks the syntax, records the
variable families named and bounds each subexpression's total degree (see
:class:`_Bounds`); the second builds the polynomial.  So the degree guard
still runs before any polynomial is built, and no input can ask for an
expansion that does not fit in time or memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, mul
from typing import Iterator

from .algebra import VARIABLE_NAMES, SparsePolynomial, System


class ExpressionError(ValueError):
    """Syntax or vocabulary problem, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_VARIABLES = {
    name: (system, index)
    for system in (System.PI3, System.Y4)
    for index, name in enumerate(VARIABLE_NAMES[system], start=1)
}

# Largest degree bound that parsing accepts, for every subexpression.
MAX_DEGREE = 64


# -- tokenizer -------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # INT, NAME, one of +-*^()/ or END
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            yield _Token("INT", text[start:i], line, col)
            col += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            yield _Token("NAME", text[start:i], line, col)
            col += i - start
            continue
        if ch in "+-*^()/":
            yield _Token(ch, ch, line, col)
            col += 1
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", line, col)
    yield _Token("END", "", line, col)


# -- the two reads -----------------------------------------------------------


class _Bounds:
    """First read: an upper bound on each subexpression's total degree.

    A variable counts 1 and a constant 0; sums take the maximum, products
    add, and a power multiplies its base's bound by its exponent.  A power
    of a constant counts as if the constant had degree 1, which bounds the
    size of the number it builds.  ``excess`` keeps the first bound above
    :data:`MAX_DEGREE` in post-order (only a product or a power can be
    first: a sum or a negation never exceeds its largest part), and the
    bounds after it are capped, so that a long chain of huge exponents
    builds no huge integer here.  ``systems`` collects the variable
    families named.
    """

    def __init__(self):
        self.systems: set[System] = set()
        self.excess: int | None = None

    def _checked(self, bound: int) -> int:
        if bound <= MAX_DEGREE:
            return bound
        if self.excess is None:
            self.excess = bound
        return MAX_DEGREE + 1

    def const(self, value: Fraction) -> int:
        return 0

    def var(self, name: str) -> int:
        self.systems.add(_VARIABLES[name][0])
        return 1

    def add(self, terms: list[int]) -> int:
        return max(terms)

    def mul(self, factors: list[int]) -> int:
        return self._checked(sum(factors))

    def pow(self, base: int, exponent: int) -> int:
        return self._checked(max(base, 1) * exponent)

    def neg(self, operand: int) -> int:
        return operand


class _Polynomials:
    """Second read: the polynomial in ``system``, sums and products folded left."""

    def __init__(self, system: System):
        self.system = system

    def const(self, value: Fraction) -> SparsePolynomial:
        return SparsePolynomial.constant(self.system, value)

    def var(self, name: str) -> SparsePolynomial:
        var_system, index = _VARIABLES[name]
        if var_system is not self.system:
            raise ExpressionError(
                f"variable {name} does not belong to the {self.system.label} system", 1, 1
            )
        return SparsePolynomial.variable(self.system, index)

    def add(self, terms: list[SparsePolynomial]) -> SparsePolynomial:
        return reduce(add, terms)

    def mul(self, factors: list[SparsePolynomial]) -> SparsePolynomial:
        return reduce(mul, factors)

    def pow(self, base: SparsePolynomial, exponent: int) -> SparsePolynomial:
        return base**exponent

    def neg(self, operand: SparsePolynomial) -> SparsePolynomial:
        return -operand


class _Parser:
    """Recursive descent over a token list; ``ops`` gives each rule its result."""

    def __init__(self, tokens: list[_Token], ops: _Bounds | _Polynomials):
        self.tokens = tokens
        self.pos = 0
        self.ops = ops

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ExpressionError(
                f"expected {kind}, found {tok.text or 'end of input'!r}", tok.line, tok.column
            )
        self.pos += 1
        return tok

    def parse(self):
        result = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return result

    def expr(self):
        terms = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.take()
            term = self.term()
            terms.append(self.ops.neg(term) if op.kind == "-" else term)
        return terms[0] if len(terms) == 1 else self.ops.add(terms)

    def term(self):
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else self.ops.mul(factors)

    def factor(self):
        if self.peek().kind == "-":
            self.take()
            return self.ops.neg(self.factor())
        return self.power()

    def power(self):
        result = self.atom()
        while self.peek().kind == "^":
            caret = self.take()
            tok = self.peek()
            if tok.kind != "INT":
                raise ExpressionError(
                    "exponent must be a nonnegative integer literal",
                    caret.line,
                    caret.column + 1,
                )
            self.take()
            result = self.ops.pow(result, int(tok.text))
        return result

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            result = self.expr()
            self.take(")")
            return result
        if tok.kind == "INT":
            self.take()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                self.take()
                den = self.take("INT")
                if int(den.text) == 0:
                    raise ExpressionError("zero denominator", den.line, den.column)
                return self.ops.const(Fraction(numerator, int(den.text)))
            return self.ops.const(Fraction(numerator))
        if tok.kind == "NAME":
            self.take()
            if tok.text not in _VARIABLES:
                raise ExpressionError(
                    f"unknown variable {tok.text!r} (expected P1..P3 or Y1..Y4)",
                    tok.line,
                    tok.column,
                )
            return self.ops.var(tok.text)
        raise ExpressionError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.line, tok.column
        )


def parse_polynomial(text: str, system: System | None = None) -> SparsePolynomial:
    """Parse expression text to a sparse polynomial (system inferred when omitted).

    Raises :class:`ExpressionError`, in this order: on a syntax error; when
    the system is inferred and the text mixes P- and Y-variables; when a
    subexpression's degree bound exceeds :data:`MAX_DEGREE` (the first in
    post-order is named); and on a variable outside an explicit system.
    Nesting deeper than the interpreter's recursion limit is an error too.
    """
    tokens = list(_tokenize(text))
    bounds = _Bounds()
    try:
        _Parser(tokens, bounds).parse()
        if system is None:
            if len(bounds.systems) > 1:
                raise ExpressionError("expression mixes P- and Y-variables", 1, 1)
            system = bounds.systems.pop() if bounds.systems else System.PI3
        if bounds.excess is not None:
            raise ExpressionError(
                f"degree may reach {bounds.excess}, above the limit {MAX_DEGREE}", 1, 1
            )
        return _Parser(tokens, _Polynomials(system)).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply", 1, 1) from None


# -- canonical printing ----------------------------------------------------


def polynomial_to_text(p: SparsePolynomial) -> str:
    """Canonical text form: terms in lexicographic exponent order.

    Output for P/Y systems re-parses to an equal polynomial; other systems
    print with their display names but are not part of the parser vocabulary.
    Each coefficient ``num / den`` is printed from the stored integers,
    reduced as ``str(Fraction(num, den))`` would print it.
    """
    if p.is_zero():
        return "0"
    names = VARIABLE_NAMES[p.system]
    nums, den = p._numerators()
    pieces = []
    for exps in sorted(nums):
        num = nums[exps]
        mag = abs(num)
        body = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        )
        if body and mag == den:
            rendered = body
        else:
            g = gcd(mag, den)
            text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
            rendered = f"{text}*{body}" if body else text
        if pieces:
            pieces.append(f"+ {rendered}" if num > 0 else f"- {rendered}")
        else:
            pieces.append(rendered if num > 0 else f"-{rendered}")
    return " ".join(pieces)
