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
variable family (P* or Y*); constants alone default to the P-system.  Digits
and names are ASCII only: any other character that is not whitespace, such
as ``²`` or an Arabic-Indic digit, is an "unexpected character" error at its
position.

:func:`parse_polynomial` reads the token list twice.  The first read
(:class:`_Parser`, recursive descent) checks the syntax, records the
variable families named, bounds each subexpression's total degree and
writes the expression as a postfix program.  So the degree guard runs before
anything is built, and no input can ask for an expansion that does not fit
in time or memory.  The second read (:func:`_fold`) runs the program on
integer numerator maps over one denominator, keyed by packed ints in
:mod:`kuroda.algebra`'s layout, with slots wide enough for
:data:`MAX_DEGREE`, so that no exponent carries.  Its sums, products and
powers are the ones of ``SparsePolynomial``'s ``+``, ``*`` and ``**``:
:mod:`kuroda.algebra` holds the arithmetic, and this module only reads
text.  The polynomial is built once, at the end, through the trusted
constructor.
"""

from __future__ import annotations

import re
from math import gcd

from .algebra import (
    VARIABLE_NAMES, SparsePolynomial, System, _pack, _power, _slot_bits, _sum, _times, _unpack
)


class ExpressionError(ValueError):
    """Syntax or vocabulary problem, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# Largest degree bound that parsing accepts, for every subexpression.
MAX_DEGREE = 64

# Slot width of a packed key: no subexpression's degree exceeds MAX_DEGREE, so
# no exponent does, and adding two keys never carries.
_BITS = _slot_bits(MAX_DEGREE)

# Each variable name: its system and its packed numerator map.
_VARIABLES = {
    name: (system, _pack(SparsePolynomial.variable(system, i)._nums, system.arity, _BITS))
    for system in (System.PI3, System.Y4)
    for i, name in enumerate(VARIABLE_NAMES[system], start=1)
}


# -- tokenizer -------------------------------------------------------------

# Each match is a run of whitespace other than a newline, possibly empty, then
# one of: a newline, an ASCII INT, an ASCII NAME, an operator, or any other
# character that is not whitespace, which is an error.  Every character of
# the text but trailing whitespace is in one match, so positions follow from
# the starts of the groups.
_TOKEN = re.compile(r"[^\S\n]*(?:(\n)|([0-9]+)|([A-Za-z][A-Za-z0-9_]*)|([-+*^()/])|(\S))")
_KINDS = (None, None, "INT", "NAME")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens ``(kind, text, line, column)``: kind INT, NAME, one of ``+-*^()/`` or END.

    Digits and names are ASCII; any other character that is not whitespace
    raises :class:`ExpressionError` at its 1-based position.
    """
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        start = m.start(group)
        if group == 1:
            line += 1
            line_start = start + 1
            continue
        word = m[group]
        if group == 5:
            raise ExpressionError(f"unexpected character {word!r}", line, start - line_start + 1)
        append((word if group == 4 else _KINDS[group], word, line, start - line_start + 1))
    append(("END", "", line, len(text) - line_start + 1))
    return tokens


# -- the two reads -----------------------------------------------------------

# Steps of the postfix program that the first read writes for the second.
# PUSH carries its value; ADD and MUL carry their operand count, POW its
# exponent.
_PUSH, _ADD, _MUL, _POW, _NEG = range(5)

# A value of the second read: packed numerator map and denominator.
_Packed = tuple[dict[int, int], int]


class _Parser:
    """First read: recursive descent over the token list.

    Each rule appends its steps to :attr:`code`, in post-order, and returns
    an upper bound on its subexpression's total degree.  A variable counts 1
    and a constant 0; sums take the maximum, products add, and a power
    multiplies its base's bound by its exponent.  A power of a constant
    counts as if the constant had degree 1, which bounds the size of the
    number it builds.  ``excess`` keeps the first bound above
    :data:`MAX_DEGREE` in post-order (only a product or a power can be
    first: a sum or a negation never exceeds its largest part), and the
    bounds after it are capped, so that a long chain of huge exponents
    builds no huge integer here.  ``systems`` maps each variable family
    named to its first name in the text.
    """

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0
        self.code: list[tuple[int, object]] = []
        self.systems: dict[System, str] = {}
        self.excess: int | None = None

    def _checked(self, bound: int) -> int:
        if bound <= MAX_DEGREE:
            return bound
        if self.excess is None:
            self.excess = bound
        return MAX_DEGREE + 1

    def take(self, kind: str) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ExpressionError(
                f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2], tok[3]
            )
        self.pos += 1
        return tok

    def parse(self) -> int:
        bound = self.expr()
        kind, text, line, column = self.tokens[self.pos]
        if kind != "END":
            raise ExpressionError(f"trailing input {text!r}", line, column)
        return bound

    def expr(self) -> int:
        bound = self.term()
        count = 1
        while (kind := self.tokens[self.pos][0]) in ("+", "-"):
            self.pos += 1
            bound = max(bound, self.term())
            if kind == "-":
                self.code.append((_NEG, None))
            count += 1
        if count > 1:
            self.code.append((_ADD, count))
        return bound

    def term(self) -> int:
        bound = self.factor()
        count = 1
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            bound += self.factor()
            count += 1
        if count == 1:
            return bound
        self.code.append((_MUL, count))
        return self._checked(bound)

    def factor(self) -> int:
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            bound = self.factor()
            self.code.append((_NEG, None))
            return bound
        return self.power()

    def power(self) -> int:
        bound = self.atom()
        tokens = self.tokens
        while tokens[self.pos][0] == "^":
            _, _, line, column = tokens[self.pos]
            kind, text, _, _ = tokens[self.pos + 1]
            if kind != "INT":
                raise ExpressionError(
                    "exponent must be a nonnegative integer literal", line, column + 1
                )
            self.pos += 2
            exponent = int(text)
            self.code.append((_POW, exponent))
            bound = self._checked(max(bound, 1) * exponent)
        return bound

    def atom(self) -> int:
        kind, text, line, column = self.tokens[self.pos]
        if kind == "NAME":
            if text not in _VARIABLES:
                raise ExpressionError(
                    f"unknown variable {text!r} (expected P1..P3 or Y1..Y4)", line, column
                )
            self.pos += 1
            system, nums = _VARIABLES[text]
            self.systems.setdefault(system, text)
            self.code.append((_PUSH, (nums, 1)))
            return 1
        if kind == "INT":
            self.pos += 1
            num, den = int(text), 1
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                _, text, line, column = self.take("INT")
                den = int(text)
                if den == 0:
                    raise ExpressionError("zero denominator", line, column)
            self.code.append((_PUSH, ({0: num} if num else {}, den)))
            return 0
        if kind == "(":
            self.pos += 1
            bound = self.expr()
            self.take(")")
            return bound
        raise ExpressionError(f"expected a value, found {text or 'end of input'!r}", line, column)


def _fold(code: list[tuple[int, object]]) -> _Packed:
    """Second read: run the first read's program on packed numerator maps.

    A value is ``(nums, den)``: ``nums`` maps a packed key (slots of
    ``_BITS`` bits) to an integer numerator, and the coefficient is
    ``nums[key] / den``.  Sums and products fold left through
    :mod:`kuroda.algebra`'s kernels, and the maps are not kept in lowest
    terms between steps; :func:`parse_polynomial` builds the one polynomial
    at the end.  No map is changed once made, so a step may hand on its
    operand's map.
    """
    stack: list[_Packed] = []
    push = stack.append
    for step, arg in code:
        if step == _PUSH:
            push(arg)
        elif step == _MUL:
            factors = stack[-arg:]
            del stack[-arg:]
            nums, den = factors[0]
            for b, d in factors[1:]:
                nums = _times(nums, b)
                den *= d
            push((nums, den))
        elif step == _ADD:
            terms = stack[-arg:]
            del stack[-arg:]
            push(_sum(terms))
        elif step == _NEG:
            nums, den = stack[-1]
            stack[-1] = {k: -n for k, n in nums.items()}, den
        else:
            nums, den = stack[-1]
            stack[-1] = _power(nums, arg), den**arg
    return stack[0]


def parse_polynomial(text: str, system: System | None = None) -> SparsePolynomial:
    """Parse expression text to a sparse polynomial (system inferred when omitted).

    Raises :class:`ExpressionError`, in this order: on a syntax error; when
    the system is inferred and the text mixes P- and Y-variables; when a
    subexpression's degree bound exceeds :data:`MAX_DEGREE` (the first in
    post-order is named); and on a variable outside an explicit system (the
    first in the text is named).  Nesting deeper than the interpreter's
    recursion limit is an error too.
    """
    parser = _Parser(_tokenize(text))
    try:
        parser.parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply", 1, 1) from None
    systems = parser.systems
    if system is None:
        if len(systems) > 1:
            raise ExpressionError("expression mixes P- and Y-variables", 1, 1)
        system = next(iter(systems), System.PI3)
    if parser.excess is not None:
        raise ExpressionError(
            f"degree may reach {parser.excess}, above the limit {MAX_DEGREE}", 1, 1
        )
    for named, name in systems.items():
        if named is not system:
            raise ExpressionError(
                f"variable {name} does not belong to the {system.label} system", 1, 1
            )
    nums, den = _fold(parser.code)
    return SparsePolynomial._from_numerators(system, _unpack(nums, system.arity, _BITS), den)


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
