import random
from fractions import Fraction
from pathlib import Path

import pytest

from kuroda import KurodaConfig, SparsePolynomial, System, concrete_example


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
