"""The exponent cone ``C`` of the monoid ``T = C x N``: facets, rays and points.

``n >= 0`` is in ``C`` iff ``delta_ii * n_i <= delta_ji * n_j + delta_ki * n_k`` for
each i.  The rays ``v_ij = delta_ji * e_i + delta_ii * e_j`` are the exponents of the
star's cross bounds.  The expansion and star routes never read this module.
"""

from __future__ import annotations

from .config import AXES, KurodaConfig


def facets(config: KurodaConfig) -> tuple[tuple[int, int, int], ...]:
    """The facet rows ``F_i``: ``n >= 0`` is in ``C`` iff every ``F_i . n >= 0``."""
    return tuple(
        tuple(-config.magnitude(i, i) if j == i else config.magnitude(j, i) for j in AXES)
        for i in AXES
    )


def rays(config: KurodaConfig) -> tuple[tuple[int, int, int, int], ...]:
    """``(i, j, delta_ji, delta_ii)`` for the six rays ``v_ij``, in lex order of ``(i, j)``."""
    return tuple(
        (i, j, config.magnitude(j, i), config.magnitude(i, i))
        for i in AXES for j in AXES if i != j
    )


def points(config: KurodaConfig, top: int) -> list[list[tuple[int, int, int]]]:
    """``[C_0, ..., C_top]``: the lattice points of ``C`` of each degree, in lex order."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = facets(config)
    levels: list[list[tuple[int, int, int]]] = [[] for _ in range(top + 1)]
    for degree, level in enumerate(levels):
        for n1 in range(degree + 1):
            for n2 in range(degree + 1 - n1):
                n3 = degree - n1 - n2
                if (
                    a1 * n1 + a2 * n2 + a3 * n3 >= 0
                    and b1 * n1 + b2 * n2 + b3 * n3 >= 0
                    and c1 * n1 + c2 * n2 + c3 * n3 >= 0
                ):
                    level.append((n1, n2, n3))
    return levels
