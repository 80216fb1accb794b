"""Pole calculus: chart traces, divisor census, and the three conditions.

A chart monomial (r1, r2, r3) is pushed through the blowup tower by two
integer rewrite rules; the sign pattern along the trace decides which
boundary divisors carry poles.
"""

from kuroda import (
    KurodaConfig,
    boundary_census,
    block_formula_check,
    cond,
    concrete_example,
    euclid_tower,
    parse_polynomial,
    pole_profile,
    pullback_trace,
    region_inequality_pullback,
)

config = concrete_example()
tower = euclid_tower(config)

# Two traces on axis 1: one admissible triple, one that reaches the last
# divisor (which sits outside both boundary unions).
for triple in [(1, 0, 1), (1, 0, 0)]:
    trace = pullback_trace(triple, tower, 1)
    profile = pole_profile(trace, tower)
    print(f"triple {triple}: trace {[tuple(t) for t in trace.triples]}")
    print(f"  poles at {profile.pole_set()}, block formula ok: "
          f"{block_formula_check(trace, tower)}")
    verdicts = [cond(triple, 1, w, tower) for w in (1, 2, 3)]
    print(f"  slope / union-1 / union-2 verdicts: {verdicts}")

# Polynomials are traced term by term (the step maps are invertible, so
# distinct terms never cancel along the way).
g = parse_polynomial("(P1-P2)*(P2-P3)*(P3-P1)")
print("\nantisymmetric cubic:", [cond(g, axis, 1, tower) for axis in (1, 2, 3)])

# The census lists every boundary label with its union membership.
census = boundary_census(tower)
print("\ncensus (unions equal:", census.z1_equals_z2, ")")
for row in census.rows:
    print(f"  {row.label:8s} in first union: {row.in_z1!s:5s} in second union: {row.in_z2}")

# The pulled-back arm inequality splits into two chart monomials; its pole
# set must cover every tower divisor of the second union.
report = region_inequality_pullback(1, tower)
print("\narm-inequality terms:", [tuple(t) for t in report.terms])
print("pole set:", report.pole_set, " j2:", report.j2, " covered:", report.z2_covered)

# A ratio-7/2 family: the first union is strictly larger, and the pole set
# of the arm inequality matches the smaller one exactly.
family = KurodaConfig.from_signed([[-2, 7, 7, 0], [7, -2, 7, 0], [7, 7, -2, 0]], 1)
report = region_inequality_pullback(1, euclid_tower(family))
print("\n7/2 family:", "poles", report.pole_set, "== j2", report.j2)
