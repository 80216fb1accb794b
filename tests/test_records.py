"""The exact layer's records: field names in order, and no attribute assignment.

The records are NamedTuples built positionally, so a reordered field would
pass every other test while swapping two values.
"""

import pytest

from kuroda import concrete_example, euclid_tower, parse_polynomial, validate
from kuroda.blowup import (
    boundary_census,
    pole_profile,
    pullback_trace,
    region_inequality_pullback,
)
from kuroda.membership import enumerate_t_generators, ring_generator_census, star_violations


def _records():
    config = concrete_example()
    report = validate(config)
    tower = euclid_tower(config)
    trace = pullback_trace((1, 0, 1), tower, 1)
    census = boundary_census(tower)
    ring = ring_generator_census(config, 2)
    return {
        "KurodaConfig": (config, ("delta", "gamma")),
        "DerivedConstants": (tower.constants, ("d", "q_ratio")),
        "PairCheck": (report.pair_checks[0], ("i", "j", "diagonal_product", "cross_product")),
        "ValidationReport": (
            report,
            ("sign_ok", "sign_issues", "condition_value", "condition_holds", "valid", "d",
             "pair_checks", "config"),
        ),
        "AxisTower": (tower.axis(1), ("axis", "q", "blocks", "positions")),
        "EuclidTower": (tower, ("config", "constants", "axes")),
        "TowerTrace": (trace, ("axis", "triples")),
        "PoleProfile": (pole_profile(trace, tower), ("axis", "pole_at")),
        "CensusRow": (census.rows[0], ("axis", "n", "label", "in_z1", "in_z2")),
        "Census": (census, ("rows", "z1_equals_z2")),
        "RegionPullbackReport": (
            region_inequality_pullback(1, tower),
            ("axis", "terms", "traces", "profiles", "pole_set", "j2", "z2_covered",
             "pole_set_equals_j2"),
        ),
        "GeneratorList": (
            enumerate_t_generators(config, 3), ("degree_bound", "generators", "growing_at_bound")
        ),
        "StarViolation": (
            star_violations(parse_polynomial("P1"), config)[0], ("axis", "triple", "lhs", "rhs")
        ),
        "RingDegree": (ring.pieces[0], ("degree", "basis", "decomposable_rank", "generators")),
        "RingCensus": (ring, ("degree_bound", "pieces")),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_in_order_and_frozen(name):
    record, fields = RECORDS[name]
    assert type(record).__name__ == name
    assert type(record)._fields == fields
    assert tuple(record) == tuple(getattr(record, f) for f in fields)
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)

