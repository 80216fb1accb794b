"""The exponent cone of :mod:`kuroda.cone`: pinned facets and rays, the rays'
position on the facets, and the lattice points against the expansion route."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from kuroda import KurodaConfig, SparsePolynomial, System, cone
from kuroda.algebra import expand_pi_to_y, expand_y_to_x, reexpress_for_axis
from kuroda.config import AXES
from kuroda.membership import (
    enumerate_t_generators,
    in_r_oracle,
    in_r_star,
    monoid_member_oracle,
    oracle_violations,
    star_violations,
)

from conftest import valid_configs
from reference import pi_variable

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PINNED = {
    "concrete": (
        ((-1, 3, 3), (3, -1, 3), (3, 3, -1)),
        ((1, 2, 3, 1), (1, 3, 3, 1), (2, 1, 3, 1), (2, 3, 3, 1), (3, 1, 3, 1), (3, 2, 3, 1)),
    ),
    "min2_7": (
        ((-2, 7, 7), (7, -2, 7), (7, 7, -2)),
        ((1, 2, 7, 2), (1, 3, 7, 2), (2, 1, 7, 2), (2, 3, 7, 2), (3, 1, 7, 2), (3, 2, 7, 2)),
    ),
    "big_weights": (
        ((-1, 300, 300), (300, -1, 300), (300, 300, -1)),
        (
            (1, 2, 300, 1), (1, 3, 300, 1), (2, 1, 300, 1),
            (2, 3, 300, 1), (3, 1, 300, 1), (3, 2, 300, 1),
        ),
    ),
    # no symmetry, so a swapped index shows: facet i is column i, its diagonal negated
    "asymmetric": (
        ((-1, 4, 3), (2, -1, 6), (5, 3, -2)),
        ((1, 2, 4, 1), (1, 3, 3, 1), (2, 1, 2, 1), (2, 3, 6, 1), (3, 1, 5, 2), (3, 2, 3, 2)),
    ),
}


def config_named(name: str) -> KurodaConfig:
    if name == "asymmetric":
        return KurodaConfig.from_signed([[-1, 2, 5, 0], [4, -1, 3, 0], [3, 6, -2, 0]], 2)
    return KurodaConfig.from_json_file(CONFIGS / f"{name}.json")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_facets_and_rays_are_pinned(name):
    config = config_named(name)
    assert (cone.facets(config), cone.rays(config)) == PINNED[name]
    _check_rays(config)


def _dot(row, v):
    return sum(a * b for a, b in zip(row, v))


def _check_rays(config):
    facets = cone.facets(config)
    for i, j, ei, ej in cone.rays(config):
        (k,) = (c for c in AXES if c not in (i, j))
        v = [0, 0, 0]
        v[i - 1], v[j - 1] = ei, ej
        # v_ij lies on facet i and on the plane n_k = 0
        assert _dot(facets[i - 1], v) == 0 and v[k - 1] == 0
        # strictly inside facet k, and inside facet j by the pair check of (i, j)
        assert _dot(facets[j - 1], v) > 0
        assert _dot(facets[k - 1], v) > 0


@settings(max_examples=80, deadline=None)
@given(valid_configs(off=60, diag=7))
def test_each_ray_lies_on_its_facet_and_inside_the_others(config):
    _check_rays(config)


def _check_points(config, top=12):
    levels = cone.points(config, top)
    assert len(levels) == top + 1
    for d, level in enumerate(levels):
        expected = [
            (n1, n2, d - n1 - n2)
            for n1 in range(d + 1)
            for n2 in range(d + 1 - n1)
            if monoid_member_oracle((n1, n2, d - n1 - n2, 0), config)
        ]
        assert level == expected, d


@pytest.mark.parametrize("name", sorted(PINNED))
def test_points_are_the_expansion_routes_members_on_fixtures(name):
    _check_points(config_named(name))


@settings(max_examples=40, deadline=None)
@given(valid_configs(off=60, diag=7))
def test_points_are_the_expansion_routes_members(config):
    _check_points(config)


P1, P2, P3 = (pi_variable(i) for i in (1, 2, 3))
CASES = [
    (P1 - P2) * (P2 - P3) * (P3 - P1),
    P1**2 * P2 + P3,
    (P1 - 2 * P2 + 3 * P3 + 1) ** 3,
    SparsePolynomial.monomial(System.PI3, (0, 3, 1)),
]


def _route_answers(config):
    vectors = [(n1, n2, n3, n4) for n1 in range(4) for n2 in range(4) for n3 in range(4)
               for n4 in range(2)]
    # each route's cache is cleared, so every answer is computed afresh
    expand_pi_to_y.cache_clear()
    reexpress_for_axis.cache_clear()
    return (
        [(monoid_member_oracle(n, config), expand_y_to_x(n, config)) for n in vectors],
        [(in_r_oracle(f, config), oracle_violations(f, config)) for f in CASES],
        [(in_r_star(f, config), star_violations(f, config)) for f in CASES],
    )


def test_routes_do_not_read_the_cone(concrete, monkeypatch):
    """The expansion and star routes answer the same with every cone function refusing."""
    before = _route_answers(concrete)

    def refuse(*args):
        raise AssertionError("a membership route read kuroda.cone")

    originals = (cone.facets, cone.rays, cone.points)
    rebound = 0
    for modname, module in list(sys.modules.items()):
        if modname == "kuroda" or modname.startswith("kuroda."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, refuse)
                    rebound += 1
    # the three in kuroda.cone, and facets and points in kuroda.membership
    assert rebound >= 5
    with pytest.raises(AssertionError, match="read kuroda.cone"):
        enumerate_t_generators(concrete, 3)
    assert _route_answers(concrete) == before
