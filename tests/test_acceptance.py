"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen.  Every tolerance is pinned here; nothing is deferred.
"""

import math
from fractions import Fraction
from itertools import product

from kuroda import (
    RegionKind,
    RegionSpec,
    SparsePolynomial,
    System,
    boundary_census,
    enumerate_t_generators,
    escape_point,
    escape_threshold,
    euclid_tower,
    in_r_oracle,
    in_r_star,
    in_s_prime,
    monoid_member,
    monoid_member_oracle,
    pole_profile,
    pullback_trace,
    region_inequality_pullback,
    ring_generator_census,
    sample_region,
    sandwich_check,
    validate,
)
from kuroda.blowup import block_formula_check
from kuroda.regions import evaluate_abs, s_prime_margins

from conftest import seeded_pi_polynomials
from reference import pi_variable


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_concrete_tower(concrete):
    tower = euclid_tower(concrete)
    shape_ok = all(ax.m_count == 1 and ax.n_total == 3 for ax in tower.axes)
    census = boundary_census(tower)
    ok = shape_ok and census.z1_equals_z2
    _verdict(
        1,
        ok,
        f"per-axis block counts {[ax.m_count for ax in tower.axes]}, "
        f"totals {[ax.n_total for ax in tower.axes]}, unions equal: {census.z1_equals_z2}",
    )


def test_criterion_02_condition_value(concrete):
    report = validate(concrete)
    value_ok = report.condition_value == Fraction(3, 4) and report.valid
    pairs_ok = all(
        c.diagonal_product == 1 and c.cross_product == 9 and c.ok
        for c in report.pair_checks
    )
    _verdict(
        2,
        value_ok and pairs_ok,
        f"condition value = {report.condition_value} (< 1), "
        f"pair products 1 < 9 on all three pairs: {pairs_ok}",
    )


def test_criterion_03_monoid_route_equivalence(concrete, family72):
    vectors = [
        n
        for n in product(range(13), repeat=4)
        if sum(n) <= 12
    ]
    assert len(vectors) == 1820
    mismatches = 0
    for config in (concrete, family72):
        for n in vectors:
            if monoid_member(n, config) != monoid_member_oracle(n, config):
                mismatches += 1
    _verdict(
        3,
        mismatches == 0,
        f"1820 exponent vectors x 2 configs, route mismatches: {mismatches}",
    )


def test_criterion_04_ring_route_equivalence(concrete):
    P1, P2, P3 = (pi_variable(i) for i in (1, 2, 3))
    fixtures = [
        (SparsePolynomial.constant(System.PI3, 1), True),
        (P1, False),
        (P1 * P2 * P3, False),
        ((P1 - P2) * (P2 - P3) * (P3 - P1), True),
    ]
    fixture_ok = True
    for f, expected in fixtures:
        star, oracle = in_r_star(f, concrete), in_r_oracle(f, concrete)
        fixture_ok = fixture_ok and star == oracle == expected
    disagreements = 0
    for f in seeded_pi_polynomials(20250809, 1000):
        if in_r_star(f, concrete) != in_r_oracle(f, concrete):
            disagreements += 1
    _verdict(
        4,
        fixture_ok and disagreements == 0,
        f"fixtures as expected: {fixture_ok}; "
        f"1000 seeded polynomials, route disagreements: {disagreements}",
    )


def _sweep_triples():
    return [
        (r1, r2, r3) for r1 in range(61) for r3 in range(61) for r2 in (0, 1)
    ]


def test_criterion_05_three_way_equivalence(concrete, family72):
    failures = 0
    nonneg_failures = 0
    checked = 0
    for config in (concrete, family72):
        tower = euclid_tower(config)
        d = tower.constants.d
        for axis in (1, 2, 3):
            ax = tower.axis(axis)
            dii = config.magnitude(axis, axis)
            for r1, r2, r3 in _sweep_triples():
                checked += 1
                slope = dii * r1 <= d[axis - 1] * r3
                trace = pullback_trace((r1, r2, r3), tower, axis)
                poles = set(pole_profile(trace, tower).pole_set())
                if not (slope == (poles <= ax.j1) == (poles <= ax.j2)):
                    failures += 1
                if slope and any(t.r3 < 0 for t in trace.triples):
                    nonneg_failures += 1
    _verdict(
        5,
        failures == 0 and nonneg_failures == 0,
        f"{checked} triple/axis/config cases, equivalence failures: {failures}, "
        f"intermediate-nonnegativity failures: {nonneg_failures}",
    )


def test_criterion_06_block_formula(concrete, family72):
    failures = 0
    checked = 0
    for config in (concrete, family72):
        tower = euclid_tower(config)
        for axis in (1, 2, 3):
            for triple in _sweep_triples():
                checked += 1
                if not block_formula_check(pullback_trace(triple, tower, axis), tower):
                    failures += 1
    _verdict(6, failures == 0, f"{checked} traced triples, block-formula failures: {failures}")


def test_criterion_07_region_pullback_poles(concrete, family72):
    cc = region_inequality_pullback(1, euclid_tower(concrete))
    cc_ok = cc.pole_set == (0, 1, 2) and cc.pole_set == cc.j2 and cc.z2_covered
    f2_ok = True
    for axis in (1, 2, 3):
        rep = region_inequality_pullback(axis, euclid_tower(family72))
        f2_ok = f2_ok and rep.pole_set == (0, 1, 2, 3) == rep.j2 and rep.z2_covered
    _verdict(
        7,
        cc_ok and f2_ok,
        f"concrete axis-1 poles {cc.pole_set} == j2 {cc.j2}; "
        f"7/2-family poles equal j2 on all axes: {f2_ok}",
    )


def test_criterion_08_monomial_bound(concrete):
    generators = enumerate_t_generators(concrete, 8).generators
    worst = -math.inf
    ok = True
    for lam_index, lam in enumerate((0.5, 1.0, 2.0)):
        spec = RegionSpec(RegionKind.S_PRIME4, lam)
        samples = sample_region(concrete, spec, 100_000, seed=9000 + lam_index, radius=50.0)
        assert (s_prime_margins(samples.points, lam, concrete) < 0).all()
        for g in generators:
            monomial = SparsePolynomial.monomial(System.Y4, g)
            values = evaluate_abs(monomial, samples.points)
            bound = lam ** sum(g)
            excess = float(values.max()) - bound
            worst = max(worst, excess)
            ok = ok and values.max() <= bound + 1e-9
    _verdict(
        8,
        ok,
        f"{len(generators)} generators x 3 scales x 100000 samples, "
        f"worst sup-minus-bound: {worst:.3e} (tolerance 1e-9)",
    )


def test_criterion_09_escape_divergence(concrete):
    ks = range(16, 10_001)
    pi1_values = []
    member_flags = []
    for k in ks:
        ep = escape_point(k, concrete)
        pi1_values.append(abs(ep.pi[0]))
        member_flags.append(in_s_prime(ep.y, 1.0, concrete))
    diffs_ok = all(b > a for a, b in zip(pi1_values, pi1_values[1:]))
    final_ok = pi1_values[-1] > 9_000
    threshold = escape_threshold(concrete)
    membership_ok = threshold == 17 and all(member_flags[1:]) and not member_flags[0]
    _verdict(
        9,
        diffs_ok and final_ok and membership_ok,
        f"|first projection| strictly increasing over k=16..10000: {diffs_ok}, "
        f"final value {pi1_values[-1]:.1f} > 9000; membership holds for every tested "
        f"k >= 17 (threshold {threshold}; k=16 sits exactly on the |y4|=1 boundary)",
    )


def test_criterion_10_sandwich(concrete):
    report = sandwich_check(concrete, 10_000, seed=31415, radius=50.0, tolerance=1e-6)
    counts_ok = report.half_s_checked == 10_000 and report.tilde_checked == 10_000
    ok = (
        counts_ok
        and report.total_violations == 0
        and report.uncertain_fraction < 0.02
    )
    _verdict(
        10,
        ok,
        f"10000 far-zone points per direction, violations: "
        f"{report.half_s_violations}+{report.tilde_violations}, "
        f"uncertain share {report.uncertain_fraction:.4%} (< 2%)",
    )


def test_criterion_11_generator_growth(concrete):
    fixtures_ok = (
        enumerate_t_generators(concrete, 1).generators == ((0, 0, 0, 1),)
        and {(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)}
        <= set(enumerate_t_generators(concrete, 2).generators)
    )
    # Growth is asked of the ring R, not of the monoid T: T is a rational
    # polyhedral cone cut with Z^4, so its Hilbert basis is finite (Gordan).
    monoid = {d: enumerate_t_generators(concrete, d).count() for d in (4, 6, 8)}
    ring = ring_generator_census(concrete, 8).counts_by_degree()
    strictly_increasing = ring[4] < ring[6] < ring[8]
    _verdict(
        11,
        fixtures_ok and strictly_increasing,
        f"degree-1/2 monoid fixtures present: {fixtures_ok}; ring generator counts "
        f"at degrees 4/6/8: {ring[4]}/{ring[6]}/{ring[8]} (strictly increasing "
        f"required; evidence up to degree 8, not a proof); monoid generator counts "
        f"{monoid[4]}/{monoid[6]}/{monoid[8]} (finite Hilbert basis, for context)",
    )
