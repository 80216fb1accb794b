import random
from fractions import Fraction

import pytest

from kuroda import (
    KurodaConfig,
    block_formula_check,
    boundary_census,
    cond,
    euclid_tower,
    pole_profile,
    pullback_trace,
    region_inequality_pullback,
)
from kuroda.blowup import (
    ChartTriple,
    TraceCollisionError,
    _assert_distinct_traces,
    polynomial_pole_set,
)

from reference import pi_variable

P1, P2, P3 = (pi_variable(i) for i in (1, 2, 3))
ANTISYM = (P1 - P2) * (P2 - P3) * (P3 - P1)


def test_block_index_examples(concrete, family72):
    cc_tower = euclid_tower(concrete)
    assert cc_tower.axis(1).block_of(2) == 1
    assert cc_tower.axis(2).block_of(0) == 1
    assert cc_tower.axis(1).block_of(-1) == 0
    f2_tower = euclid_tower(family72)
    assert f2_tower.axis(1).block_of(4) == 2
    with pytest.raises(ValueError):
        f2_tower.axis(1).block_of(7)


def test_trace_examples_concrete(concrete):
    tower = euclid_tower(concrete)
    trace = pullback_trace((1, 0, 1), tower, 1)
    assert trace.triples == (
        ChartTriple(1, 0, 1),
        ChartTriple(0, 0, 1),
        ChartTriple(-1, 0, 1),
        ChartTriple(-2, 0, 1),
    )
    constant = pullback_trace((1, 0, 0), tower, 1)
    assert all(t == ChartTriple(1, 0, 0) for t in constant.triples)
    fixed = pullback_trace((0, 5, 0), tower, 1)
    assert all(t == ChartTriple(0, 5, 0) for t in fixed.triples)


def test_trace_keeps_r2(concrete):
    tower = euclid_tower(concrete)
    trace = pullback_trace((4, 7, 2), tower, 1)
    assert all(t.r2 == 7 for t in trace.triples)


def _chart_value(triple, a, b, c):
    """The chart monomial a**r2 * b**r3 * c**(-r1) of a triple, exactly."""
    r1, r2, r3 = triple
    return Fraction(a) ** r2 * Fraction(b) ** r3 * Fraction(c) ** -r1


def test_chart_monomial_semantics(concrete):
    assert _chart_value((1, 0, 1), 5, 6, 3) == 2  # b / c
    # the odd step rule is the substitution b -> b*c on the chart monomial,
    # which is exactly r1 <- r1 - r3 on the triple
    for triple in ((1, 0, 1), (3, 2, 1), (-2, 1, 4), (0, 0, 0)):
        r1, r2, r3 = triple
        assert _chart_value((r1 - r3, r2, r3), 5, 6, 3) == _chart_value(triple, 5, 6 * 3, 3)
    # and the first step of an axis-1 trace (an odd block) is that rule
    trace = pullback_trace((3, 2, 1), euclid_tower(concrete), 1)
    assert trace.triples[1] == ChartTriple(3 - 1, 2, 1)


def test_distinctness_guard_raises(concrete):
    tower = euclid_tower(concrete)
    t = pullback_trace((1, 0, 1), tower, 1)
    with pytest.raises(TraceCollisionError):
        _assert_distinct_traces([t, t], 1)


def test_block_formula_examples(concrete, family72):
    cc_tower = euclid_tower(concrete)
    assert block_formula_check(pullback_trace((6, 0, 2), cc_tower, 1), cc_tower)
    trace = pullback_trace((6, 0, 2), cc_tower, 1)
    assert trace.triples[-1] == ChartTriple(0, 0, 2)
    f2_tower = euclid_tower(family72)
    assert block_formula_check(pullback_trace((7, 0, 2), f2_tower, 1), f2_tower)
    trace = pullback_trace((7, 0, 2), f2_tower, 1)
    assert trace.triples[3] == ChartTriple(1, 0, 2)  # end of the first block
    assert trace.triples[-1] == ChartTriple(1, 0, 0)
    assert block_formula_check(pullback_trace((0, 0, 0), cc_tower, 2), cc_tower)


def test_pole_profiles(concrete):
    tower = euclid_tower(concrete)
    profile = pole_profile(pullback_trace((1, 0, 1), tower, 1), tower)
    assert profile.pole_set() == (0,)
    profile = pole_profile(pullback_trace((1, 0, 0), tower, 1), tower)
    assert profile.pole_set() == (0, 1, 2, 3)
    # the census puts divisors 0..2 in the first union, so the pole at 3 is outside it
    z1 = {r.n for r in boundary_census(tower).rows if r.axis == 1 and r.in_z1}
    assert z1 == {0, 1, 2}
    profile = pole_profile(pullback_trace((-5, 0, 3), tower, 1), tower)
    assert profile.pole_set() == ()


def test_even_block_pole_rule(family72):
    tower = euclid_tower(family72)
    # (8,0,2) ends with r3 = -2 inside the even block: pole at the last divisor
    profile = pole_profile(pullback_trace((8, 0, 2), tower, 1), tower)
    assert profile.pole_set() == (0, 1, 2, 3, 5)
    assert not cond((8, 0, 2), 1, 1, tower)
    assert not cond((8, 0, 2), 1, 2, tower)


def test_trace_linearity(concrete, family72):
    rng = random.Random(99)
    for config in (concrete, family72):
        tower = euclid_tower(config)
        for _ in range(50):
            a = tuple(rng.randint(-8, 8) for _ in range(3))
            b = tuple(rng.randint(-8, 8) for _ in range(3))
            s = tuple(x + y for x, y in zip(a, b))
            ta = pullback_trace(a, tower, 1).triples
            tb = pullback_trace(b, tower, 1).triples
            ts = pullback_trace(s, tower, 1).triples
            assert all(
                tuple(x + y for x, y in zip(p, q)) == tuple(r)
                for p, q, r in zip(ta, tb, ts)
            )


def test_cond_examples(concrete):
    for which in (1, 2, 3):
        assert cond((1, 0, 1), 1, which, euclid_tower(concrete))
        assert not cond((1, 0, 0), 1, which, euclid_tower(concrete))
    for axis in (1, 2, 3):
        for which in (1, 2, 3):
            assert cond(ANTISYM, axis, which, euclid_tower(concrete))
    assert not cond(P1, 1, 1, euclid_tower(concrete))
    with pytest.raises(ValueError):
        cond((1, 0, 1), 1, 4, euclid_tower(concrete))


def test_cond_equivalence_small_sweep(concrete, family72):
    for config in (concrete, family72):
        for axis in (1, 2, 3):
            for r1 in range(0, 26):
                for r3 in range(0, 26):
                    verdicts = {cond((r1, 0, r3), axis, w, euclid_tower(config)) for w in (1, 2, 3)}
                    assert len(verdicts) == 1, (config, axis, r1, r3)


@pytest.mark.parametrize(
    "rows",
    [
        [[-4, 9, 9, 0], [2, -1, 9, 0], [3, 9, -1, 0]],    # ratio 1/2: leading quotient 0
        [[-4, 9, 9, 0], [4, -1, 9, 0], [4, 9, -1, 0]],    # ratio 1: single one-step block
        [[-3, 11, 11, 0], [5, -1, 11, 0], [6, 11, -1, 0]],  # ratio 5/3: three blocks
        [[-5, 17, 17, 0], [8, -1, 17, 0], [9, 17, -1, 0]],  # ratio 8/5: four blocks
    ],
)
def test_equivalence_on_harder_ratios(rows):
    """The three-way equivalence, nonnegativity and block formulas also hold on
    towers with leading zero quotients and longer continued fractions."""
    from kuroda import validate

    config = KurodaConfig.from_signed(rows, 1)
    assert validate(config).valid
    tower = euclid_tower(config)
    for axis in (1, 2, 3):
        ax = tower.axis(axis)
        dii = config.magnitude(axis, axis)
        d = tower.constants.d[axis - 1]
        for r1 in range(31):
            for r3 in range(31):
                slope = dii * r1 <= d * r3
                trace = pullback_trace((r1, 0, r3), tower, axis)
                poles = set(pole_profile(trace, tower).pole_set())
                assert slope == (poles <= ax.j1) == (poles <= ax.j2), (axis, r1, r3)
                assert block_formula_check(trace, tower)
                if slope:
                    assert all(t.r3 >= 0 for t in trace.triples)


def test_trace_injectivity_on_sweep(concrete, family72):
    # full condition box: distinct inputs stay distinct at every index
    triples = [(r1, r2, r3) for r1 in range(61) for r3 in range(61) for r2 in (0, 1)]
    for config in (concrete, family72):
        tower = euclid_tower(config)
        for axis in (1, 2, 3):
            traces = [pullback_trace(t, tower, axis).triples for t in triples]
            for n in range(tower.axis(axis).n_total + 1):
                seen = {tr[n] for tr in traces}
                assert len(seen) == len(triples)


def test_polynomial_pole_set(concrete):
    tower = euclid_tower(concrete)
    # ring members may carry poles, but only along divisors inside both unions
    assert polynomial_pole_set(ANTISYM, tower, 1) == frozenset({0, 1})
    assert polynomial_pole_set(ANTISYM, tower, 1) <= tower.axis(1).j2
    # the plain variable reaches the last divisor, which sits outside them
    assert polynomial_pole_set(P1, tower, 1) == frozenset({0, 1, 2, 3})
    assert polynomial_pole_set(P1 * P2 * P3, tower, 1) == frozenset({0, 1, 2, 3})


def test_census_concrete(concrete):
    census = boundary_census(euclid_tower(concrete))
    assert census.z1_equals_z2
    for axis in (1, 2, 3):
        by_n = {r.n: r for r in census.rows if r.axis == axis}
        assert set(by_n) == {-1, 0, 1, 2, 3}
        assert not by_n[-1].in_z1 and not by_n[-1].in_z2
        for n in (0, 1, 2):
            assert by_n[n].in_z1 and by_n[n].in_z2
        assert not by_n[3].in_z1 and not by_n[3].in_z2
    b_rows = [r for r in census.rows if r.label == "B"]
    assert len(b_rows) == 1 and b_rows[0].in_z1 and b_rows[0].in_z2


def test_census_family72(family72):
    census = boundary_census(euclid_tower(family72))
    assert not census.z1_equals_z2
    by_n = {r.n: r for r in census.rows if r.axis == 1}
    assert by_n[4].in_z1 and not by_n[4].in_z2  # in the first union only
    assert not by_n[5].in_z1 and not by_n[5].in_z2


def test_census_single_blowup_axis():
    # Axis 1 has ratio exactly 1: a single tower divisor inside both unions.
    config = KurodaConfig.from_signed(
        [[-4, 9, 9, 0], [4, -1, 9, 0], [4, 9, -1, 0]], 1
    )
    census = boundary_census(euclid_tower(config))
    by_n = {r.n: r for r in census.rows if r.axis == 1}
    assert set(by_n) == {-1, 0, 1}
    assert by_n[0].in_z1 and by_n[0].in_z2
    assert not by_n[1].in_z1 and not by_n[1].in_z2


def test_region_pullback_concrete(concrete):
    report = region_inequality_pullback(1, euclid_tower(concrete))
    assert report.terms == (ChartTriple(6, 0, 2), ChartTriple(0, 0, 2))
    assert report.pole_set == (0, 1, 2)
    assert report.j2 == (0, 1, 2)
    assert report.z2_covered and report.pole_set_equals_j2
    # the constant-direction term contributes no poles on its own
    tower = euclid_tower(concrete)
    lone = pole_profile(pullback_trace((0, 0, 2), tower, 1), tower)
    assert lone.pole_set() == ()


def test_region_pullback_family72(family72):
    for axis in (1, 2, 3):
        report = region_inequality_pullback(axis, euclid_tower(family72))
        assert report.terms[0] == ChartTriple(14, 0, 4)
        assert report.pole_set == (0, 1, 2, 3)
        assert report.pole_set == report.j2
        assert report.z2_covered


def test_polynomial_conditions_match_membership_routes(concrete):
    """On random polynomials, the slope condition over all axes is the ring
    membership verdict, and the two pole conditions agree with it term by term."""
    from kuroda import in_r_oracle, in_r_star

    from conftest import seeded_pi_polynomials

    for f in seeded_pi_polynomials(60606, 120):
        slope_all = all(cond(f, axis, 1, euclid_tower(concrete)) for axis in (1, 2, 3))
        assert slope_all == in_r_star(f, concrete) == in_r_oracle(f, concrete)
        for axis in (1, 2, 3):
            one = cond(f, axis, 1, euclid_tower(concrete))
            assert one == cond(f, axis, 2, euclid_tower(concrete)) == cond(f, axis, 3, euclid_tower(concrete))


def test_intermediate_nonnegativity(concrete, family72):
    for config in (concrete, family72):
        tower = euclid_tower(config)
        for axis in (1, 2, 3):
            for r1 in range(0, 20):
                for r3 in range(0, 20):
                    if cond((r1, 0, r3), axis, 1, tower):
                        trace = pullback_trace((r1, 0, r3), tower, axis)
                        assert all(t.r3 >= 0 for t in trace.triples)


def test_axis_outside_one_to_three_raises(concrete):
    # axis 0 must not wrap around to the last axis of the tower
    tower = euclid_tower(concrete)
    for axis in (0, 4):
        with pytest.raises(ValueError):
            cond((1, 0, 1), axis, 1, tower)
        with pytest.raises(ValueError):
            region_inequality_pullback(axis, tower)
