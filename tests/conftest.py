import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from kuroda import KurodaConfig, SparsePolynomial, System, concrete_example
from kuroda.config import condition_value


@pytest.fixture
def concrete() -> KurodaConfig:
    return concrete_example()


@pytest.fixture
def family72() -> KurodaConfig:
    """The symmetric family with diagonal 2 and off-diagonal 7 (ratio 7/2)."""
    return KurodaConfig.from_signed(
        [[-2, 7, 7, 0], [7, -2, 7, 0], [7, 7, -2, 0]], 1
    )


# Diagonal 1, off-diagonal 300: valid, and large enough that the float
# layer's integer powers overflow far out on the arms.
BIG_WEIGHTS_PATH = Path(__file__).resolve().parents[1] / "configs" / "big_weights.json"


@pytest.fixture
def big_weights() -> KurodaConfig:
    return KurodaConfig.from_json_file(BIG_WEIGHTS_PATH)


def random_pi_polynomial(rng: random.Random) -> SparsePolynomial:
    """Frozen test distribution: 1..8 terms, entries 0..6 with total degree <= 6,
    coefficients numerator in [-5,5] without 0, denominator in {1,2,3}."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        while True:
            exps = tuple(rng.randint(0, 6) for _ in range(3))
            if sum(exps) <= 6:
                break
        numerator = rng.choice([n for n in range(-5, 6) if n != 0])
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(numerator, rng.choice((1, 2, 3)))
    return SparsePolynomial(System.PI3, terms)


def seeded_pi_polynomials(seed: int, count: int):
    rng = random.Random(seed)
    return [random_pi_polynomial(rng) for _ in range(count)]


@st.composite
def valid_configs(draw, off=12, diag=4, fourth=(0, 3)):
    """Valid configs by construction: diagonals in 1..diag, off-diagonals in 1..off.

    Every valid config with entries in these ranges can be drawn.  The
    diagonals ``c_i`` come first.  Then, axis by axis, the column minimum
    ``d_i`` is drawn from the values that keep ``sum c_i/(c_i + d_i) < 1``
    reachable with the later minima at ``off``, the row holding it is drawn,
    and the column's other off-diagonal entry comes from ``d_i..off``.
    """
    c = [draw(st.integers(1, diag)) for _ in range(3)]
    if sum(Fraction(ci, ci + off) for ci in c) >= 1:
        raise ValueError(f"no valid config has diagonals {c} and off-diagonals <= {off}")
    rows = [[0, 0, 0, draw(st.integers(*fourth))] for _ in range(3)]
    taken = Fraction(0)
    for i in range(3):
        rows[i][i] = -c[i]
        slack = 1 - taken - sum(Fraction(cj, cj + off) for cj in c[i + 1:])
        # c/(c + d) < slack  <=>  d > c * (1 - slack) / slack
        d = draw(st.integers(max(1, math.floor(c[i] * (1 - slack) / slack) + 1), off))
        taken += Fraction(c[i], c[i] + d)
        low_row, other_row = (j for j in range(3) if j != i)
        if draw(st.booleans()):
            low_row, other_row = other_row, low_row
        rows[low_row][i] = d
        rows[other_row][i] = draw(st.integers(d, off))
    config = KurodaConfig.from_signed(rows, draw(st.integers(1, 3)))
    assert condition_value(config) < 1
    return config
