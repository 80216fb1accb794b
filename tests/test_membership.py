import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda import (
    KurodaConfig,
    SparsePolynomial,
    System,
    enumerate_t_generators,
    in_r_oracle,
    in_r_star,
    monoid_member,
    monoid_member_oracle,
    ring_generator_census,
    star_violations,
)
from kuroda import membership
from kuroda.membership import RouteDisagreementError, _outside_monoid, oracle_violations

from conftest import seeded_pi_polynomials, valid_configs
from reference import (
    combinations_reach,
    oracle_violations_by_column_sums,
    pi_variable,
    sieve_over_four_coordinates,
    y_variable,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

P1, P2, P3 = (pi_variable(i) for i in (1, 2, 3))
ANTISYM = (P1 - P2) * (P2 - P3) * (P3 - P1)


def vectors_up_to(degree):
    for n in product(range(degree + 1), repeat=4):
        if sum(n) <= degree:
            yield n


def test_monoid_member_examples(concrete):
    assert monoid_member((1, 1, 0, 0), concrete)
    assert not monoid_member((1, 0, 0, 0), concrete)
    assert monoid_member((0, 0, 0, 5), concrete)


def test_oracle_examples(concrete):
    assert monoid_member_oracle((2, 1, 0, 0), concrete)
    assert monoid_member_oracle((0, 0, 0, 1), concrete)
    assert not monoid_member_oracle((1, 0, 0, 2), concrete)


def test_monoid_routes_agree_to_degree_eight(concrete, family72, big_weights):
    vectors = list(vectors_up_to(8))
    for config in (concrete, family72, big_weights):
        outside = set(_outside_monoid(vectors, config))
        for n in vectors:
            member = monoid_member(n, config)
            assert member == monoid_member_oracle(n, config)
            # the expansion route's column test flags exactly the non-members
            assert (n in outside) is not member


def test_monoid_closed_under_addition(concrete):
    rng = random.Random(424242)
    members = [n for n in vectors_up_to(6) if monoid_member(n, concrete)]
    for _ in range(300):
        a = rng.choice(members)
        b = rng.choice(members)
        assert monoid_member(tuple(x + y for x, y in zip(a, b)), concrete)


def test_generators_degree_one(concrete):
    listing = enumerate_t_generators(concrete, 1)
    assert listing.generators == ((0, 0, 0, 1),)


def test_generators_degree_two(concrete):
    listing = enumerate_t_generators(concrete, 2)
    gens = set(listing.generators)
    assert {(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)} <= gens
    assert (0, 0, 0, 2) not in gens
    assert listing.count() == 4


def test_doubled_generator_never_listed(concrete):
    listing = enumerate_t_generators(concrete, 6)
    gens = set(listing.generators)
    for g in list(gens):
        doubled = tuple(2 * v for v in g)
        assert doubled not in gens


def test_generator_counts_are_regression_frozen(concrete):
    # Verified against the exhaustive splitting search: the minimal set of
    # the concrete example is complete at degree 4 (the six extreme-ray
    # vectors of shape (3,1,0,0) are its last members).
    listing = enumerate_t_generators(concrete, 8)
    assert listing.counts_by_degree() == {
        1: 1, 2: 4, 3: 11, 4: 17, 5: 17, 6: 17, 7: 17, 8: 17
    }
    assert not listing.growing_at_bound


def splitting_generators(config, degree_bound):
    """Reference: the members of degree <= bound with no split into two nonzero members.

    The exhaustive search that ``enumerate_t_generators`` replaced with a sieve.
    """
    members = {
        n for n in vectors_up_to(degree_bound)
        if n != (0, 0, 0, 0) and monoid_member(n, config)
    }
    generators = []
    for n in members:
        decomposable = False
        for a in product(*(range(v + 1) for v in n)):
            if a == (0, 0, 0, 0) or a == n:
                continue
            if a in members and tuple(x - y for x, y in zip(n, a)) in members:
                decomposable = True
                break
        if not decomposable:
            generators.append(n)
    generators.sort(key=lambda g: (sum(g), g))
    growing = any(sum(g) == degree_bound for g in generators)
    return tuple(generators), growing


@settings(max_examples=60, deadline=None)
@given(valid_configs(), st.integers(0, 10))
def test_sieve_matches_exhaustive_splitting(config, bound):
    listing = enumerate_t_generators(config, bound)
    assert (listing.generators, listing.growing_at_bound) == splitting_generators(config, bound)


@settings(max_examples=60, deadline=None)
@given(valid_configs(off=60, diag=7), st.sampled_from([0, 1, 2, 5, 10, 12]))
def test_cone_sieve_matches_four_coordinate_sieve(config, bound):
    # GeneratorList equality: the same tuple in the same order, and growing_at_bound
    assert enumerate_t_generators(config, bound) == sieve_over_four_coordinates(config, bound)


@pytest.mark.parametrize("name", ["concrete", "min2_7", "big_weights"])
def test_cone_sieve_matches_four_coordinate_sieve_on_fixtures(name):
    config = KurodaConfig.from_json_file(CONFIGS / f"{name}.json")
    for bound in (10, 20, 40):
        listing = enumerate_t_generators(config, bound)
        assert listing == sieve_over_four_coordinates(config, bound)
        assert listing.generators[0] == (0, 0, 0, 1)
        assert all(g[3] == 0 for g in listing.generators[1:])


def test_generator_completeness_small_degree(concrete):
    listing = enumerate_t_generators(concrete, 5)
    reached = combinations_reach(listing.generators, 5)
    members = {
        n for n in vectors_up_to(5) if n != (0, 0, 0, 0) and monoid_member(n, concrete)
    }
    assert members == reached & members
    assert members <= reached


def test_enumerate_rejects_negative_bound(concrete):
    with pytest.raises(ValueError):
        enumerate_t_generators(concrete, -1)
    assert enumerate_t_generators(concrete, 0).generators == ()


def test_ring_membership_fixtures(concrete):
    one = SparsePolynomial.constant(System.PI3, 1)
    assert in_r_star(one, concrete) and in_r_oracle(one, concrete)
    assert not in_r_star(P1, concrete) and not in_r_oracle(P1, concrete)
    triple = P1 * P2 * P3
    assert not in_r_star(triple, concrete) and not in_r_oracle(triple, concrete)
    assert in_r_star(ANTISYM, concrete) and in_r_oracle(ANTISYM, concrete)


def test_constant_fraction_in_ring(concrete):
    f = SparsePolynomial.constant(System.PI3, Fraction(7, 3))
    assert in_r_star(f, concrete) and in_r_oracle(f, concrete)


def test_star_violation_diagnostics(concrete):
    violations = star_violations(P1, concrete)
    assert violations
    first = violations[0]
    assert first.axis == 1 and first.triple == (1, 0, 0)
    assert first.lhs == 1 and first.rhs == 0
    # the scan keeps going after the first hit and reports every axis
    assert {v.axis for v in star_violations(P1 * P2 * P3, concrete)} == {1, 2, 3}


def test_oracle_violation_diagnostics(concrete):
    bad = oracle_violations(P1 * P2 * P3, concrete)
    assert (1, 0, 0, 2) in bad  # the y1*y4^2 term has a negative first slot


@pytest.mark.parametrize("route", [star_violations, in_r_star, oracle_violations, in_r_oracle])
def test_routes_reject_non_pi3_input(concrete, route):
    with pytest.raises(ValueError, match="membership tests expect a PI3 polynomial") as caught:
        route(y_variable(1) * y_variable(4), concrete)
    assert caught.type is ValueError


PI_EXPONENTS = st.tuples(*(st.integers(0, 8),) * 3)
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


@st.composite
def pi_polynomials_to_degree_eight(draw):
    """Rational PI3 polynomials of degree <= 8; half are multiples of ANTISYM."""
    multiple = draw(st.booleans())
    bound = 5 if multiple else 8
    terms = draw(st.dictionaries(
        PI_EXPONENTS.filter(lambda e: sum(e) <= bound), RATIONALS, min_size=1, max_size=8
    ))
    f = SparsePolynomial(System.PI3, terms)
    return ANTISYM * f if multiple else f


NAMED_CONFIGS = {
    path.stem: KurodaConfig.from_json_file(path) for path in sorted(CONFIGS.glob("*.json"))
}
FILE_CONFIGS = list(NAMED_CONFIGS.values())


@pytest.mark.parametrize("name", ["concrete", "min2_7", "big_weights"])
@settings(max_examples=60, deadline=None)
@given(f=pi_polynomials_to_degree_eight())
def test_each_verdict_agrees_with_its_listing(name, f):
    """A verdict stops at the first violation; the listing it stands for holds all of them."""
    config = NAMED_CONFIGS[name]
    assert in_r_star(f, config) is (not star_violations(f, config))
    assert in_r_oracle(f, config) is (not oracle_violations(f, config))


def test_star_verdict_maps_later_axes_only_for_a_clean_first_axis(concrete):
    from kuroda.algebra import reexpress_for_axis

    f = P1**2 * P2 + P3
    assert 1 in {v.axis for v in star_violations(f, concrete)}
    reexpress_for_axis.cache_clear()
    assert not in_r_star(f, concrete)
    assert reexpress_for_axis.cache_info().misses == 1
    reexpress_for_axis.cache_clear()
    assert in_r_star(ANTISYM, concrete)
    assert reexpress_for_axis.cache_info().misses == 3


@settings(max_examples=200, deadline=None)
@given(
    pi_polynomials_to_degree_eight(),
    st.one_of(st.sampled_from(FILE_CONFIGS), valid_configs(off=60, diag=7, fourth=(1, 3))),
)
def test_oracle_violations_match_column_sums_reference(f, config):
    violations = oracle_violations(f, config)
    assert type(violations) is tuple
    assert violations == oracle_violations_by_column_sums(f, config)


def test_antisym_expansion_monomials_all_in_monoid(concrete):
    from kuroda.algebra import expand_pi_to_y

    expanded = expand_pi_to_y(ANTISYM)
    support = set(expanded.support())
    assert support == {
        (2, 1, 0, 0), (1, 2, 0, 0), (2, 0, 1, 0),
        (1, 0, 2, 0), (0, 2, 1, 0), (0, 1, 2, 0),
    }
    from kuroda import expand_y_to_x

    assert expand_y_to_x((2, 1, 0, 0), concrete) == (1, 5, 9, 0)
    assert all(monoid_member_oracle(n, concrete) for n in support)


def test_star_equals_oracle_on_seeded_suite(concrete):
    for f in seeded_pi_polynomials(20250809, 150):
        assert in_r_star(f, concrete) == in_r_oracle(f, concrete)


def test_star_equals_oracle_on_asymmetric_configs():
    """The two routes also agree off the symmetric fixtures: differing column
    minima, a leading-zero tower, and a weighted fourth variable."""
    from kuroda import KurodaConfig

    configs = [
        KurodaConfig.from_signed([[-4, 9, 9, 0], [2, -1, 9, 0], [3, 9, -1, 0]], 1),
        KurodaConfig.from_signed([[-3, 11, 11, 0], [5, -1, 11, 0], [6, 11, -1, 0]], 1),
        KurodaConfig.from_signed([[-1, 3, 4, 2], [3, -1, 5, 0], [4, 3, -1, 1]], 3),
    ]
    polys = seeded_pi_polynomials(555000, 120)
    for config in configs:
        for f in polys:
            assert in_r_star(f, config) == in_r_oracle(f, config)


def test_ring_closure_on_curated_members(concrete):
    g = ANTISYM
    members = [
        SparsePolynomial.constant(System.PI3, 1),
        SparsePolynomial.constant(System.PI3, Fraction(-3, 2)),
        g,
        g + 2,
        g * g,
        Fraction(2, 3) * g,
    ]
    for f in members:
        assert in_r_oracle(f, concrete)
    for a in members:
        for b in members:
            assert in_r_oracle(a + b, concrete)
            assert in_r_oracle(a * b, concrete)


def test_ring_census_counts_are_regression_frozen(concrete, family72):
    # New algebra generators of R per degree; the same for both instances.
    expected = {1: 0, 2: 0, 3: 1, 4: 3, 5: 3, 6: 3, 7: 3, 8: 3}
    for config in (concrete, family72):
        census = ring_generator_census(config, 8)
        assert census.new_by_degree() == expected
        assert census.counts_by_degree() == {
            1: 0, 2: 0, 3: 1, 4: 4, 5: 7, 6: 10, 7: 13, 8: 16
        }
        assert [p.dimension() for p in census.pieces] == [0, 0, 1, 3, 3, 4, 6, 9]
        assert [p.decomposable_rank for p in census.pieces] == [0, 0, 0, 0, 0, 1, 3, 6]


def test_ring_census_degree_three_generator_is_antisymmetric(concrete):
    (generator,) = ring_generator_census(concrete, 3).pieces[2].generators
    scale = generator.coefficient((2, 1, 0)) / ANTISYM.coefficient((2, 1, 0))
    assert scale != 0
    assert generator == scale * ANTISYM


def test_ring_census_basis_elements_are_in_ring(concrete, family72):
    for config in (concrete, family72):
        for piece in ring_generator_census(config, 8).pieces:
            assert set(piece.generators) <= set(piece.basis)
            for f in piece.basis:
                assert in_r_star(f, config) and in_r_oracle(f, config)


def test_ring_census_raises_when_routes_disagree(concrete, monkeypatch):
    # all-zero columns put every Y4 monomial in the monoid on the expansion route
    monkeypatch.setattr(membership, "ambient_columns", lambda config: ((0, 0, 0, 0),) * 4)
    with pytest.raises(RouteDisagreementError):
        ring_generator_census(concrete, 3)


def test_ring_census_rejects_negative_bound(concrete):
    with pytest.raises(ValueError):
        ring_generator_census(concrete, -1)
    assert ring_generator_census(concrete, 0).pieces == ()


@pytest.mark.parametrize(
    "f, member",
    [
        (ANTISYM, True),
        (Fraction(2, 7) * ANTISYM * (P1 - P3) + Fraction(5, 3) * ANTISYM**2, True),
        (P1**2 * P2 + P3, False),
        ((P1 - Fraction(1, 2) * P2 + 3 * P3 + 1) ** 4, False),
    ],
)
def test_routes_never_call_each_others_expansion(concrete, monkeypatch, f, member):
    """The star route runs without the Y4 expansion, the oracle route without the axis bases."""

    def refuse(*args):
        raise AssertionError("a membership route called the other route's expansion")

    with monkeypatch.context() as patch:
        patch.setattr(membership, "expand_pi_to_y", refuse)
        assert in_r_star(f, concrete) is member
        assert bool(star_violations(f, concrete)) is not member
    with monkeypatch.context() as patch:
        patch.setattr(membership, "reexpress_for_axis", refuse)
        patch.setattr(membership, "axis_support", refuse)
        assert in_r_oracle(f, concrete) is member
        assert bool(oracle_violations(f, concrete)) is not member
