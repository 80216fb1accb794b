"""Reference helpers that only the tests use.

Each one is a plain restatement of something the package computes another
way, or a convenience for writing test polynomials; none is reached by the
CLI, the demos or the benchmark, so none lives in ``src``.
"""

from fractions import Fraction
from typing import Iterable, Sequence

from kuroda.algebra import _AXIS_POSITIONS, SparsePolynomial, System, SystemMismatchError, _shear


def pi_variable(i: int) -> SparsePolynomial:
    return SparsePolynomial.variable(System.PI3, i)


def y_variable(i: int) -> SparsePolynomial:
    return SparsePolynomial.variable(System.Y4, i)


def axis_to_pi(g: SparsePolynomial, axis: int) -> SparsePolynomial:
    """Inverse of :func:`kuroda.algebra.reexpress_for_axis`."""
    if g.system is not System.AXIS3:
        raise SystemMismatchError("axis_to_pi expects an AXIS3 polynomial")
    if axis not in _AXIS_POSITIONS:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return _shear(g, (0, 1, 2), _AXIS_POSITIONS[axis], System.PI3)


def evaluate_continued_fraction(quotients: Sequence[int]) -> Fraction:
    """Exact value of a finite continued fraction [q1; q2, ..., qM]."""
    if not quotients:
        raise ValueError("empty continued fraction")
    acc = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        acc = q + 1 / acc
    return acc


def combinations_reach(
    generators: Iterable[tuple[int, int, int, int]], degree_bound: int
) -> set[tuple[int, int, int, int]]:
    """All nonzero nonnegative-integer combinations of ``generators`` with degree <= bound.

    Breadth-first closure under adding one generator at a time.
    """
    reached = {(0, 0, 0, 0)}
    frontier = [(0, 0, 0, 0)]
    gens = tuple(generators)
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple(b + e for b, e in zip(base, g))
            if sum(nxt) <= degree_bound and nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    reached.discard((0, 0, 0, 0))
    return reached
