"""Polynomial expression text: parsing to an AST and canonical printing.

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
variable family (P* or Y*); constants alone default to the P-system when
lowered.

Lowering first bounds the total degree on the parse tree (see
:func:`degree_bound`) and raises :class:`ExpressionError` when the whole
expression or any subexpression may exceed :data:`MAX_DEGREE`, so that no
input can ask for an expansion that does not fit in time or memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Union

from .algebra import VARIABLE_NAMES, SparsePolynomial, System


class ExpressionError(ValueError):
    """Syntax or vocabulary problem, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_VARIABLES = {
    "P1": (System.PI3, 1),
    "P2": (System.PI3, 2),
    "P3": (System.PI3, 3),
    "Y1": (System.Y4, 1),
    "Y2": (System.Y4, 2),
    "Y3": (System.Y4, 3),
    "Y4": (System.Y4, 4),
}


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Sum:
    terms: tuple["Node", ...]


@dataclass(frozen=True)
class Product:
    factors: tuple["Node", ...]


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"


Node = Union[Const, Var, Sum, Product, Power, Neg]

# Largest degree bound that lowering accepts, for every subexpression.
MAX_DEGREE = 64


def variables_of(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Const):
        return set()
    if isinstance(node, Sum):
        return set().union(*(variables_of(t) for t in node.terms))
    if isinstance(node, Product):
        return set().union(*(variables_of(f) for f in node.factors))
    if isinstance(node, Power):
        return variables_of(node.base)
    return variables_of(node.operand)


def degree_bound(node: Node) -> int:
    """Upper bound on the total degree of ``node``, read off the parse tree.

    A variable counts 1 and a constant 0; sums take the maximum, products
    add, and a power multiplies its base's bound by the absolute value of
    its exponent.  A power of a constant counts as if the constant had
    degree 1, which bounds the size of the number it builds.  Raises
    :class:`ExpressionError` as soon as a subexpression's bound exceeds
    :data:`MAX_DEGREE`.
    """
    if isinstance(node, Const):
        bound = 0
    elif isinstance(node, Var):
        bound = 1
    elif isinstance(node, Sum):
        bound = max(map(degree_bound, node.terms))
    elif isinstance(node, Product):
        bound = sum(map(degree_bound, node.factors))
    elif isinstance(node, Power):
        bound = max(degree_bound(node.base), 1) * abs(node.exponent)
    else:
        bound = degree_bound(node.operand)
    if bound > MAX_DEGREE:
        raise ExpressionError(
            f"degree may reach {bound}, above the limit {MAX_DEGREE}", 1, 1
        )
    return bound


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


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self) -> Node:
        terms = [self.term()]
        signs = [False]
        while self.peek().kind in ("+", "-"):
            op = self.take()
            terms.append(self.term())
            signs.append(op.kind == "-")
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(Neg(t) if neg else t for t, neg in zip(terms, signs)))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self) -> Node:
        if self.peek().kind == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
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
            node = Power(node, int(tok.text))
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok.kind == "INT":
            self.take()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                self.take()
                den = self.take("INT")
                if int(den.text) == 0:
                    raise ExpressionError("zero denominator", den.line, den.column)
                return Const(Fraction(numerator, int(den.text)))
            return Const(Fraction(numerator))
        if tok.kind == "NAME":
            self.take()
            if tok.text not in _VARIABLES:
                raise ExpressionError(
                    f"unknown variable {tok.text!r} (expected P1..P3 or Y1..Y4)",
                    tok.line,
                    tok.column,
                )
            return Var(tok.text)
        raise ExpressionError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.line, tok.column
        )


def parse_expression(text: str) -> Node:
    """Parse expression text to an AST; raises :class:`ExpressionError`."""
    return _Parser(text).parse()


def _system_of(node: Node) -> System:
    systems = {_VARIABLES[name][0] for name in variables_of(node)}
    if len(systems) > 1:
        raise ExpressionError("expression mixes P- and Y-variables", 1, 1)
    return systems.pop() if systems else System.PI3


def to_polynomial(node: Node, system: System | None = None) -> SparsePolynomial:
    """Lower an AST to a sparse polynomial (system inferred when omitted).

    Raises :class:`ExpressionError` above the degree limit (:func:`degree_bound`).
    """
    if system is None:
        system = _system_of(node)
    degree_bound(node)

    def lower(n: Node) -> SparsePolynomial:
        if isinstance(n, Const):
            return SparsePolynomial.constant(system, n.value)
        if isinstance(n, Var):
            var_system, index = _VARIABLES[n.name]
            if var_system is not system:
                raise ExpressionError(
                    f"variable {n.name} does not belong to the {system.label} system", 1, 1
                )
            return SparsePolynomial.variable(system, index)
        if isinstance(n, Sum):
            out = lower(n.terms[0])
            for t in n.terms[1:]:
                out = out + lower(t)
            return out
        if isinstance(n, Product):
            out = lower(n.factors[0])
            for f in n.factors[1:]:
                out = out * lower(f)
            return out
        if isinstance(n, Power):
            return lower(n.base) ** n.exponent
        return -lower(n.operand)

    return lower(node)


def parse_polynomial(text: str, system: System | None = None) -> SparsePolynomial:
    """Parse and lower in one step."""
    return to_polynomial(parse_expression(text), system)


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
