import csv
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda import (
    KurodaConfig,
    RegionKind,
    RegionSpec,
    SamplingError,
    SparsePolynomial,
    System,
    boundedness_probe,
    concrete_example,
    escape_point,
    escape_threshold,
    export_surface_cloud,
    in_s,
    in_s_prime,
    in_s_tilde,
    sample_region,
    sandwich_check,
)
import kuroda.regions as regions_module
from kuroda.config import column_minima, condition_value
from kuroda.exprparse import parse_polynomial
from kuroda.regions import (
    Verdict,
    _cross_pairs,
    _escape_logs,
    _log2_abs,
    _projection_logs,
    _int_power,
    _pow_from_one,
    _StarSampler,
    _star_margins,
    _tilde_margins,
    evaluate_abs,
    inside,
    s_double_prime_margins,
    s_prime_margins,
    s_shift_margins,
    s_tilde_margins,
)

from conftest import BIG_WEIGHTS_PATH, seeded_pi_polynomials, valid_configs
import reference as reference_module
from reference import (
    escape_rows_one_by_one,
    evaluate_abs_whole,
    inside_exact,
    pi_variable,
    ray_star_by_masks,
    ray_tilde_by_masks,
    sample_region_by_loop,
    sandwich_by_loops,
    shift_margins_full_scan,
    shift_witness_holds,
    surface_cloud_by_slabs,
)


def test_s_prime_examples(concrete):
    assert in_s_prime((0, 0, 0, 0), 1.0, concrete)
    assert in_s_prime((10, 0.0009, 0.0009, 0.5), 1.0, concrete)
    # |10^3 * 0.001| evaluates to exactly 1.0: boundary, excluded
    assert not in_s_prime((10, 0.001, 0.001, 0.5), 1.0, concrete)
    assert not in_s_prime((10, 10, 0, 0), 1.0, concrete)
    assert not in_s_prime((0, 0, 0, 1.0), 1.0, concrete)


def test_s_double_prime_examples(concrete):
    inside = s_double_prime_margins([(0, 0, 0), (25, 1e-5, -1e-5), (2, 2, 0)], 1.0, concrete) < 0
    assert inside.tolist() == [True, True, False]


def test_s_tilde_examples(concrete):
    assert in_s_tilde((10, 0, 0), 1.0, concrete)
    assert not in_s_tilde((10, 10, 10), 1.0, concrete)
    # the exact origin sits on the boundary of all three cap inequalities
    assert not in_s_tilde((0, 0, 0), 1.0, concrete)
    assert in_s_tilde((0.1, 0.0, 0.0), 1.0, concrete)
    assert in_s_tilde((0.3, -0.2, 0.1), 1.0, concrete)


def test_scaling_covariance(concrete):
    rng = np.random.default_rng(5150)
    pts = rng.uniform(-3, 3, size=(200, 3))
    lam = 0.75
    direct = s_double_prime_margins(pts, lam, concrete) < 0
    rescaled = s_double_prime_margins(pts / lam, 1.0, concrete) < 0
    assert (direct == rescaled).all()
    pts4 = rng.uniform(-3, 3, size=(200, 4))
    assert (
        (s_prime_margins(pts4, 2.0, concrete) < 0)
        == (s_prime_margins(pts4 / 2.0, 1.0, concrete) < 0)
    ).all()
    assert (
        (s_tilde_margins(pts, 0.5, concrete) < 0)
        == (s_tilde_margins(pts / 0.5, 1.0, concrete) < 0)
    ).all()


def test_in_s_examples(concrete):
    assert in_s((0.5, 0.5, 0.5), 1.0, concrete) is Verdict.IN
    assert in_s((10, 0.5, 0.5), 1.0, concrete) is Verdict.IN
    assert in_s((10, 10, 0), 1.0, concrete) is Verdict.OUT
    # exact diagonal boundary point: the best shift leaves margin ~ 0
    assert in_s((1.0, 1.0, 1.0), 1.0, concrete) in (Verdict.UNCERTAIN, Verdict.IN)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _verdict(margin, tolerance):
    if abs(margin) <= tolerance:
        return Verdict.UNCERTAIN
    return Verdict.IN if margin < 0 else Verdict.OUT


def _drawn_asymmetric_config(seed):
    """A valid config with diagonals in 1..7 and off-diagonals in 1..60."""
    rng = random.Random(seed)
    while True:
        rows = []
        for i in range(3):
            row = [rng.randint(1, 60) for _ in range(3)] + [rng.randint(0, 4)]
            row[i] = -rng.randint(1, 7)
            rows.append(row)
        config = KurodaConfig.from_signed(rows, rng.randint(1, 3))
        if condition_value(config) < 1:
            return config


SHIFT_SEARCH_CONFIGS = {
    "concrete": concrete_example(),
    "min2_7": KurodaConfig.from_json_file(CONFIGS / "min2_7.json"),
    "symmetric_1_6": KurodaConfig.from_signed([[-1, 6, 6, 0], [6, -1, 6, 0], [6, 6, -1, 0]], 1),
    "drawn": _drawn_asymmetric_config(2024),
}


def _far_points(config, count):
    """Far-zone basic-set points as sandwich draws them."""
    points = sample_region(
        config, RegionSpec(RegionKind.S_TILDE3, 1.0), 1200, seed=61, radius=50.0
    ).points
    far = points[(np.abs(points) > 2.0).any(axis=1)][:count]
    assert len(far) == count
    return far


@pytest.mark.parametrize("name", list(SHIFT_SEARCH_CONFIGS))
def test_shift_search_margins_are_star_margins_at_the_witness(name):
    config = SHIFT_SEARCH_CONFIGS[name]
    tolerance = 1e-6
    far = _far_points(config, 300)
    margins, shifts = s_shift_margins(far, 2.0, config)
    assert margins.shape == shifts.shape == (300,)
    assert (np.abs(shifts) < 2.0).all()
    # the star's log margin at the returned shift, bit for bit, and the
    # power-form margin there up to rounding
    shifted = far - shifts[:, None]
    assert np.array_equal(margins, s_double_prime_margins(shifted, 2.0, config))
    star = _pow_s_double_prime_margins(shifted, 2.0, config)
    assert np.allclose(np.expm1(margins), star, rtol=1e-9, atol=1e-12)
    # symmetric_1_6 and drawn are where the grid search gave false OUTs
    assert all(_verdict(m, tolerance) is Verdict.IN for m in margins)
    for p, a in zip(far[:40], shifts[:40]):
        assert shift_witness_holds(p, a, 2.0, config)
        assert in_s(p, 2.0, config, tolerance) is Verdict.IN


def _shift_search_points(config, lam):
    """Far-zone basic-set points as sandwich draws them, coordinates on the
    full scan's grid at ``lam`` and diagonal points."""
    with np.errstate(over="ignore", invalid="ignore"):
        far = _far_points(config, 200)
    grid = np.linspace(-lam, lam, 1026)[1:-1]
    hits = [
        (grid[37], grid[64], 5.0 * lam),
        (grid[0], grid[1023], grid[500]),
        (grid[992], 0.3 * lam, -7.0 * lam),
        (grid[31], grid[32], grid[33]),
        (grid[1022] + 3.0 * lam, grid[1022], grid[1022]),
    ]
    diagonal = [(t, t, t) for t in (grid[96], 0.41 * lam, 1.5 * lam, -3.0 * lam)]
    diagonal += [(t + 4.0 * lam, t, t) for t in (grid[200], -0.77 * lam)]
    return np.vstack([far, hits, diagonal])


@pytest.mark.parametrize("name", [*SHIFT_SEARCH_CONFIGS, "big_weights"])
def test_shift_search_is_in_wherever_the_full_scan_is(name, big_weights):
    config = big_weights if name == "big_weights" else SHIFT_SEARCH_CONFIGS[name]
    for lam in (0.7, 1.0, 2.0, 13.0):
        points = _shift_search_points(config, lam)
        for scale in (1.0, 10.0, 1e4):
            margins, shifts = s_shift_margins(points * scale, lam, config)
            scan, scan_shifts = shift_margins_full_scan(points * scale, lam, config)
            assert (margins[scan < 0] < 0).all()
            assert (np.abs(scan_shifts[scan < np.inf]) < lam).all()
            assert (np.abs(shifts) < lam).all()
            for k in np.flatnonzero(margins < -1e-6)[::7]:
                assert shift_witness_holds(points[k] * scale, shifts[k], lam, config)


@st.composite
def _shift_search_point(draw):
    """A point with coordinates in [-8, 8], two of them equal half the time."""
    p = [draw(st.floats(-8.0, 8.0)) for _ in range(3)]
    if draw(st.booleans()):
        i, j, _ = draw(st.permutations([0, 1, 2]))
        p[j] = p[i]
    return p


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(valid_configs(), st.just(KurodaConfig.from_json_file(BIG_WEIGHTS_PATH))),
    st.lists(_shift_search_point(), min_size=1, max_size=8),
    st.sampled_from([0.75, 1.0, 2.0, 3.0]),
)
def test_shift_search_witnesses_hold_exactly(config, points, lam):
    tolerance = 1e-6
    margins, shifts = s_shift_margins(points, lam, config)
    scan, scan_shifts = shift_margins_full_scan(points, lam, config)
    for p, m, a, s, b in zip(points, margins, shifts, scan, scan_shifts):
        verdict = _verdict(m, tolerance)
        if verdict is Verdict.IN:
            assert shift_witness_holds(p, a, lam, config)
        if _verdict(s, tolerance) is Verdict.IN:
            assert abs(b) < lam and verdict is not Verdict.OUT


def test_shift_search_finds_the_window_of_two_close_coordinates(concrete):
    # p_1 and p_2 lie 7e-9 apart, and the feasible shifts are a window around
    # them narrower than the grid search's last spacing: it answered OUT
    p = (0.6009706849342344, 0.6009706781031232, 267.7228782349981)
    assert in_s_tilde(p, 1.0, concrete)
    margins, shifts = s_shift_margins([p], 2.0, concrete)
    assert margins[0] < -0.9
    assert shift_witness_holds(p, shifts[0], 2.0, concrete)
    assert in_s(p, 2.0, concrete) is Verdict.IN
    assert shift_margins_full_scan([p], 2.0, concrete)[0][0] > 0


@pytest.mark.parametrize("lam", [2.0, 13.0, 3e-320])
def test_shift_search_rows_do_not_depend_on_the_block(lam):
    # 1100 rows span three blocks of the search
    config = SHIFT_SEARCH_CONFIGS["drawn"]
    rng = np.random.default_rng(8)
    points = rng.uniform(-3.0, 3.0, size=(1100, 3)) * lam
    points[:40] = _shift_search_points(config, lam)[-40:]
    points[40:60, 1] = points[40:60, 0]
    margins, shifts = s_shift_margins(points, lam, config)
    for size in (1, 17, 512):
        parts = [s_shift_margins(points[i:i + size], lam, config) for i in range(0, 1100, size)]
        assert np.array_equal(np.concatenate([m for m, _ in parts]), margins)
        assert np.array_equal(np.concatenate([a for _, a in parts]), shifts)


def test_shift_search_rejects_overflow(concrete):
    # at 8e307, p - a passes the double range for a = -g: once read as a
    # margin from NaN values
    lam = 8e307
    g = np.linspace(-lam, lam, 1026)[1:-1][600]
    with pytest.raises(ValueError, match="double range"):
        s_shift_margins([(10.0, 0.4, 0.4), (1.7e308, g, 5.0)], lam, concrete)
    with pytest.raises(ValueError, match="double range"):
        in_s((1e308, 0.25, 0.25), 1e308, concrete)
    margins, _ = s_shift_margins([(9e307, g, 5.0)], lam, concrete)
    assert not np.isnan(margins).any()
    # 2 * lam and p_1 - p_2 pass the double range where max|p| + lam does not
    assert in_s((3.0, 0.25, 0.25), 1e308, concrete) is Verdict.IN
    margins, shifts = s_shift_margins([(1.2e308, -1.2e308, 0.0)], 1e307, concrete)
    assert not np.isnan(margins).any() and abs(shifts[0]) < 1e307


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_shift_search_rejects_non_finite_points(concrete, bad):
    with pytest.raises(ValueError, match="finite"):
        in_s((bad, 0.0, 0.0), 2.0, concrete)
    with pytest.raises(ValueError, match="finite"):
        s_shift_margins([(10.0, 0.4, 0.4), (0.0, bad, 0.0)], 2.0, concrete)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -2.0])
def test_shift_search_rejects_bad_scale(concrete, lam):
    with pytest.raises(ValueError, match="scale"):
        in_s((10.0, 0.4, 0.4), lam, concrete)


@pytest.mark.parametrize("lam", [math.nan, 0.0, -2.0])
def test_s_tilde_predicate_rejects_bad_scale(concrete, lam):
    with pytest.raises(ValueError, match="scale"):
        in_s_tilde((10.0, 0.0, 0.0), lam, concrete)


@pytest.mark.parametrize("lam", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "check, point",
    [
        (in_s_prime, (0.5, 0.0, 0.0, 0.5)),
        (s_prime_margins, (0.5, 0.0, 0.0, 0.5)),
        (s_double_prime_margins, (0.5, 0.0, 0.0)),
        (s_tilde_margins, (0.5, 0.0, 0.0)),
    ],
)
def test_margins_reject_bad_scale(concrete, check, point, lam):
    # a bad scale must raise, never answer inside or outside
    with pytest.raises(ValueError, match="scale"):
        check(point, lam, concrete)


def test_escape_point_values(concrete):
    with pytest.raises(ValueError):
        escape_point(15, concrete)
    ep = escape_point(100, concrete)
    assert ep.y[0] == 100.0
    assert ep.y[1] == pytest.approx(1.0 / (10**6 * math.log2(100)))
    assert ep.y[2] == pytest.approx(1.0 / (10**6 * math.log2(math.log2(100))))
    assert ep.y[3] == pytest.approx(1.0 / math.log2(math.log2(math.log2(100))))
    assert ep.pi[0] == pytest.approx(99.3103298, abs=1e-6)
    assert in_s_prime(ep.y, 1.0, concrete)


def test_escape_threshold_is_17(concrete):
    # index 16 lands exactly on the |y4| = 1 boundary, 17 is strictly inside
    assert escape_threshold(concrete) == 17
    assert escape_point(16, concrete).y[3] == 1.0
    assert not in_s_prime(escape_point(16, concrete).y, 1.0, concrete)


def test_escape_projection_dominates(concrete):
    ep = escape_point(10**4, concrete)
    assert abs(ep.pi[0]) == pytest.approx(10**4, rel=1e-3)


def test_projected_region_samples_land_in_fattened_star(concrete):
    from kuroda.regions import diagonal_projection

    spec = RegionSpec(RegionKind.S_PRIME4, 1.0)
    samples = sample_region(concrete, spec, 150, seed=88, radius=40.0)
    verdicts = [
        in_s(diagonal_projection(p), 1.0, concrete) for p in samples.points
    ]
    assert all(v in (Verdict.IN, Verdict.UNCERTAIN) for v in verdicts)
    assert verdicts.count(Verdict.UNCERTAIN) <= 3


def test_failing_monomials_eventually_increase_along_escape(concrete):
    """Any y-monomial outside the monoid via the first axis blows up along the
    escape points: strictly increasing tail (from k=50 at the latest, verified
    empirically: worst case starts at k=35) and a final value far above the start."""
    from itertools import product as iproduct

    from kuroda.regions import evaluate_abs

    ks = list(range(16, 10_001))
    pts = np.asarray([escape_point(k, concrete).y for k in ks])
    tail_start = ks.index(50)
    checked = 0
    for n in iproduct(range(7), repeat=4):
        if not 0 < sum(n) <= 6:
            continue
        if concrete.magnitude(1, 1) * n[0] <= (
            concrete.magnitude(2, 1) * n[1] + concrete.magnitude(3, 1) * n[2]
        ):
            continue
        checked += 1
        values = evaluate_abs(
            SparsePolynomial.monomial(System.Y4, n), pts
        )
        tail = values[tail_start:]
        assert (np.diff(tail) > 0).all(), n
        assert values[-1] > 10 * values[0], n
    assert checked == 27


def test_evaluate_abs_on_escape_projection(concrete):
    ep = escape_point(100, concrete)
    (value,) = evaluate_abs(pi_variable(1), np.array([ep.pi]))
    assert value == pytest.approx(99.3103298, abs=1e-6)


def test_sampler_consistency_and_determinism(concrete):
    spec = RegionSpec(RegionKind.S_PRIME4, 2.0)
    first = sample_region(concrete, spec, 500, seed=42, radius=50.0)
    second = sample_region(concrete, spec, 500, seed=42, radius=50.0)
    assert np.array_equal(first.points, second.points)
    assert (s_prime_margins(first.points, 2.0, concrete) < 0).all()
    third = sample_region(concrete, spec, 500, seed=43, radius=50.0)
    assert not np.array_equal(first.points, third.points)


def test_sampler_reaches_the_arms(concrete):
    spec = RegionSpec(RegionKind.S_TILDE3, 1.0)
    samples = sample_region(concrete, spec, 1000, seed=7, radius=50.0)
    assert (s_tilde_margins(samples.points, 1.0, concrete) < 0).all()
    assert np.abs(samples.points[:, 0]).max() > 25.0


def test_sampler_empty_count(concrete):
    spec = RegionSpec(RegionKind.S_DOUBLE_PRIME3, 1.0)
    samples = sample_region(concrete, spec, 0, seed=1, radius=10.0)
    assert samples.points.shape == (0, 3)


def _reject_all(monkeypatch, kinds=tuple(RegionKind)):
    """Make the samplers' region test reject every candidate of ``kinds``."""
    real = _StarSampler._inside

    def rejecting(self, pts):
        return np.zeros(len(pts), dtype=bool) if self.spec.kind in kinds else real(self, pts)

    monkeypatch.setattr(_StarSampler, "_inside", rejecting)


def test_sampler_failure_signal(monkeypatch, concrete):
    # a region test that rejects every candidate exhausts the candidate budget
    _reject_all(monkeypatch)
    spec = RegionSpec(RegionKind.S_TILDE3, 1.0)
    with pytest.raises(SamplingError):
        sample_region(concrete, spec, 10, seed=3, radius=1.0)


def test_s3_sampling_constructive(concrete):
    spec = RegionSpec(RegionKind.S3, 1.0)
    samples = sample_region(concrete, spec, 400, seed=21, radius=30.0)
    verdicts = [in_s(p, 1.0, concrete) for p in samples.points[:60]]
    assert all(v in (Verdict.IN, Verdict.UNCERTAIN) for v in verdicts)
    assert verdicts.count(Verdict.UNCERTAIN) <= 2


def test_probe_monomial_bound(concrete):
    y1y2 = SparsePolynomial.monomial(System.Y4, (1, 1, 0, 0))
    spec = RegionSpec(RegionKind.S_PRIME4, 2.0)
    report = boundedness_probe(concrete, y1y2, spec, 20000, seed=8)
    assert report.bound == pytest.approx(4.0)
    assert report.bound_ok
    assert report.max_abs_value <= 4.0 + 1e-9


def test_probe_escape_divergence(concrete):
    p1 = pi_variable(1)
    spec = RegionSpec(RegionKind.S3, 1.0)
    report = boundedness_probe(
        concrete, p1, spec, 0, seed=0, escape_kmax=2000
    )
    assert report.divergence
    assert report.monotone_tail
    assert report.escape_final_value > 1990
    assert report.escape_monotone_from_k == 16


def test_probe_failing_monomial_diverges(concrete):
    y1 = SparsePolynomial.monomial(System.Y4, (1, 0, 0, 0))
    spec = RegionSpec(RegionKind.S_PRIME4, 1.0)
    report = boundedness_probe(
        concrete, y1, spec, 0, seed=0, escape_kmax=3000
    )
    assert report.bound is None  # (1,0,0,0) is not a monoid member
    assert report.divergence


def test_probe_constant(concrete):
    one = SparsePolynomial.constant(System.PI3, 1)
    spec = RegionSpec(RegionKind.S_TILDE3, 1.0)
    report = boundedness_probe(
        concrete, one, spec, 500, seed=5, escape_kmax=199
    )
    assert report.max_abs_value == pytest.approx(1.0)
    assert not report.divergence


def test_probe_system_region_mismatch(concrete):
    y1 = SparsePolynomial.monomial(System.Y4, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        boundedness_probe(concrete, y1, RegionSpec(RegionKind.S_TILDE3, 1.0), 10, seed=0)


def test_sandwich_fixture_point(concrete):
    # a half-scaled fattened-star point in the far zone satisfies the basic set
    assert in_s_tilde((10, 0.4, 0.4), 1.0, concrete)
    # far-zone basic-set points belong to the doubled fattened star
    assert in_s((10, 0.4, 0.4), 2.0, concrete) is Verdict.IN


def test_sandwich_small_run(concrete):
    report = sandwich_check(concrete, 400, seed=17, radius=40.0)
    assert report.half_s_checked == 400
    assert report.tilde_checked == 400
    assert report.total_violations == 0
    assert report.uncertain_fraction < 0.02


@pytest.mark.parametrize("radius", [3.0, 2.5, 1.0, -3.0])
def test_sandwich_needs_radius_above_three(concrete, radius):
    # half-scaled points reach at most (radius + 1)/2 <= 2: none in the far zone
    with pytest.raises(ValueError, match="radius"):
        sandwich_check(concrete, 10, seed=1, radius=radius)


def test_sandwich_counts_the_in_s_verdicts(monkeypatch, concrete):
    # the search's margins moved into a pattern, so that IN, OUT and
    # UNCERTAIN all occur in a wide band; expm1 puts the INs' log margins in
    # (-1, 0) first
    tolerance = 0.2
    searched = []

    def spy(points, lam, cfg):
        margins, shifts = s_shift_margins(points, lam, cfg)
        margins = np.expm1(margins) + np.resize([0.0, 1.0, 1.9, 0.5], len(margins))
        searched.append((np.array(points), margins))
        return margins, shifts

    monkeypatch.setattr(regions_module, "s_shift_margins", spy)
    report = sandwich_check(concrete, 300, seed=5, tolerance=tolerance)
    (points, margins), = searched
    verdicts = [_verdict(m, tolerance) for m in margins]
    assert report.tilde_checked == len(points) == 300
    assert report.uncertain_count == verdicts.count(Verdict.UNCERTAIN) > 0
    assert report.tilde_violations == verdicts.count(Verdict.OUT) > 20
    assert Verdict.IN in verdicts
    half = [p for d, p in report.violation_examples if d == "half_s_outside_tilde"]
    tilde = [p for d, p in report.violation_examples if d == "tilde_outside_2s"]
    outside = [tuple(float(x) for x in p) for p, v in zip(points, verdicts) if v is Verdict.OUT]
    assert tilde == outside[: 20 - len(half)]


@pytest.mark.parametrize("radius", [9e307, 1e308])
def test_sandwich_rejects_radius_past_double_range(concrete, radius):
    # the box stratum draws from (-radius, radius), whose width is not finite
    with pytest.raises(ValueError, match="radius"):
        sandwich_check(concrete, 10, seed=1, radius=radius)


@pytest.mark.parametrize(
    "radius, half_checked, tilde_checked", [(1e80, 50, 0), (1e200, 0, 0)]
)
def test_sandwich_raises_when_a_direction_checks_too_few(
    monkeypatch, concrete, radius, half_checked, tilde_checked
):
    # the region test rejects every candidate of the directions that should
    # check 0 points; a run never passes on fewer points than requested
    rejected = {RegionKind.S_TILDE3}
    if not half_checked:
        rejected.add(RegionKind.S_DOUBLE_PRIME3)
    _reject_all(monkeypatch, rejected)
    with pytest.raises(SamplingError) as exc:
        sandwich_check(concrete, 50, seed=1, radius=radius)
    message = str(exc.value)
    assert f"checked {half_checked} half-scaled" in message
    assert f"and {tilde_checked} basic-set points of the 50 requested" in message
    assert f"radius {radius:g}" in message


@pytest.mark.parametrize("count", [200, 2000])
def test_sandwich_memory_stays_one_block(concrete, count):
    # The shift search runs on blocks of points; 2000 points at once would
    # hold about 50 MB of (points x shifts) temporaries.
    tracemalloc.start()
    try:
        report = sandwich_check(concrete, count, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.tilde_checked == count
    assert peak < 2 * 2**20


def test_cloud_export(tmp_path, concrete):
    out = tmp_path / "star.csv"
    report = export_surface_cloud(
        concrete, RegionKind.S_DOUBLE_PRIME3, grid=24, out=out, radius=2.0, band=0.3
    )
    assert report.points_written > 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report.points_written
    assert set(rows[0]) == {"x", "y", "z", "margin"}
    # every emitted point is genuinely near the boundary
    pts = np.array([[float(r["x"]), float(r["y"]), float(r["z"])] for r in rows])
    margins = s_double_prime_margins(pts, 1.0, concrete)
    assert (np.abs(margins) < 0.3).all()
    # absolute-value constraints make all eight octant counts identical
    signs = {}
    for p in pts:
        if (p != 0).all():
            key = tuple(np.sign(p).astype(int))
            signs[key] = signs.get(key, 0) + 1
    assert len(set(signs.values())) == 1


def test_cloud_memory_stays_one_slab(tmp_path, concrete):
    # The whole grid as one block of slabs peaks at about 28 MB here.
    out = tmp_path / "fine.csv"
    tracemalloc.start()
    try:
        report = export_surface_cloud(concrete, RegionKind.S_DOUBLE_PRIME3, grid=120, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with open(out, newline="") as fh:
        points = [tuple(float(r[c]) for c in "xyz") for r in csv.DictReader(fh)]
    assert len(points) == report.points_written > 0
    assert points == sorted(points)  # x outermost, then y, then z


def test_cloud_tilde_antipodal_symmetry(tmp_path, concrete):
    out = tmp_path / "tilde.csv"
    report = export_surface_cloud(
        concrete, RegionKind.S_TILDE3, grid=32, out=out, radius=5.0, band=0.5
    )
    assert report.points_written > 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    pts = {(r["x"], r["y"], r["z"]) for r in rows}
    flipped = {
        (f"{-float(x):.12g}", f"{-float(y):.12g}", f"{-float(z):.12g}")
        for x, y, z in pts
    }
    assert pts == flipped


@pytest.mark.parametrize("kind, rows", [(RegionKind.S_DOUBLE_PRIME3, 0), (RegionKind.S_TILDE3, 1)])
def test_cloud_counts_no_nan_margins_without_warnings(tmp_path, kind, rows):
    # at radius 50 on big weights, the power form's q**300 overflows to inf
    # and meets factors that underflowed to 0 (or q_2 - q_3 = 0): inf * 0 =
    # nan, in no band.  The log margins are never nan.  The star's arms are
    # thinner than the grid spacing here, so few rows lie in the band.
    big = MARGIN_CONFIGS["big_weights"]
    out = tmp_path / "big.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = export_surface_cloud(big, kind, 17, out, radius=50.0)
        huge = export_surface_cloud(big, kind, 6, out, radius=1e300)
    assert (report.nan_margins, report.points_written) == (0, rows)
    assert huge.nan_margins == 0
    axis = np.linspace(-50.0, 50.0, 17)
    mesh = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        power = _POW_MARGINS[kind](mesh, 1.0, big)
    assert np.isnan(power).sum() > 700
    assert not export_surface_cloud(MARGIN_CONFIGS["concrete"], kind, 17, out, radius=50.0).nan_margins


@pytest.mark.parametrize("radius", [0.0, -5.0, math.nan, math.inf, 1e308])
def test_cloud_rejects_bad_radius(tmp_path, concrete, radius):
    # linspace(-1e308, 1e308) passes the double range: nan and inf grid points
    with pytest.raises(ValueError, match="radius"):
        export_surface_cloud(concrete, RegionKind.S_TILDE3, 6, tmp_path / "bad.csv", radius=radius)


def test_cloud_single_cell(tmp_path, concrete):
    out = tmp_path / "one.csv"
    report = export_surface_cloud(
        concrete, RegionKind.S_DOUBLE_PRIME3, grid=1, out=out, radius=5.0, band=0.1
    )
    assert report.points_written <= 1
    assert out.exists()


def test_cloud_tilde_contains_far_arm_points(tmp_path, concrete):
    out = tmp_path / "tilde_fine.csv"
    export_surface_cloud(
        concrete, RegionKind.S_TILDE3, grid=96, out=out, radius=5.0, band=2.0
    )
    with open(out, newline="") as fh:
        far = [r for r in csv.DictReader(fh) if abs(float(r["x"])) > 4.0]
    assert far


# -- the cloud on the open mesh, against the slab loop ---------------------

# (grid, radius, band): the small grids with every radius and band, the
# finer ones on the diagonal of radius and band
_CLOUD_CASES = [
    *((grid, radius, band) for grid in (1, 2, 17)
      for radius in (2.0, 5.0, 50.0) for band in (0.1, 0.25, 2.0)),
    *((grid, radius, band) for grid in (48, 120)
      for radius, band in ((2.0, 0.1), (5.0, 0.25), (50.0, 2.0))),
]


def _cloud_bytes_match(tmp_path, config, kind, grid, radius, band):
    ours, ref = tmp_path / "mesh.csv", tmp_path / "slabs.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        report = export_surface_cloud(config, kind, grid, ours, radius=radius, band=band)
        written = surface_cloud_by_slabs(config, kind, grid, ref, radius=radius, band=band)
    assert report.points_written == written, (grid, radius, band)
    assert ours.read_bytes() == ref.read_bytes(), (grid, radius, band)
    return written


@pytest.mark.parametrize("kind", [RegionKind.S_DOUBLE_PRIME3, RegionKind.S_TILDE3])
@pytest.mark.parametrize("name", ["concrete", "min2_7", "big_weights", "drawn"])
def test_cloud_matches_slab_reference(tmp_path, name, kind):
    config = MARGIN_CONFIGS[name]
    written = [_cloud_bytes_match(tmp_path, config, kind, *case) for case in _CLOUD_CASES]
    assert max(written) > 0


@pytest.mark.parametrize("budget", [1, 2 * 17 * 17, 5 * 48 * 48 + 7])
def test_cloud_blocks_are_bit_identical(monkeypatch, tmp_path, budget):
    # one slab per block, then blocks of 2 slabs on grid 17 and of 5 on
    # grid 48: neither divides its grid, so the last block is short
    monkeypatch.setattr(regions_module, "_CLOUD_ELEMENTS", budget)
    for name in ("concrete", "big_weights"):
        for kind in (RegionKind.S_DOUBLE_PRIME3, RegionKind.S_TILDE3):
            for grid in (17, 48):
                _cloud_bytes_match(tmp_path, MARGIN_CONFIGS[name], kind, grid, 5.0, 0.25)


# -- integer powers by multiplication, against the pow forms ---------------
#
# evaluate_abs used to form integer powers with ``**`` (libm pow), and the
# region margins were power forms too.  Those forms are kept here,
# test-only, as the reference.


def _pow_cross_margins(q3_abs, config):
    margin = np.full(len(q3_abs), -np.inf)
    for i, j, ei, ej in _cross_pairs(config):
        margin = np.maximum(margin, q3_abs[:, i - 1] ** ei * q3_abs[:, j - 1] ** ej - 1.0)
    return margin


def _pow_s_prime_margins(pts, lam, config):
    margin = _pow_cross_margins(np.abs(pts[:, :3]) / lam, config)
    return np.maximum(margin, np.abs(pts[:, 3]) / lam - 1.0)


def _pow_s_double_prime_margins(pts, lam, config):
    return _pow_cross_margins(np.abs(pts) / lam, config)


def _pow_s_tilde_margins(pts, lam, config):
    q = pts / lam
    d = column_minima(config)
    margin = np.full(len(q), -np.inf)
    for i in (1, 2, 3):
        j, k = (t for t in (1, 2, 3) if t != i)
        qi, qj, qk = q[:, i - 1], q[:, j - 1], q[:, k - 1]
        arm = (qi ** (2 * d[i - 1]) - 1.0) * (qj - qk) ** (2 * config.magnitude(i, i))
        cap = (qi**2 - 1.0) * ((qj + qk) ** 2 - 4.0)
        margin = np.maximum(margin, arm - 1.0)
        margin = np.maximum(margin, cap - 4.0)
    return margin


def _pow_terms(f, pts):
    """(points x terms) array of c_t * p**e_t in the pow form."""
    exps = np.array(f.support(), dtype=float)
    coeffs = np.array([float(f.coefficient(e)) for e in f.support()])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (pts[:, None, :] ** exps[None, :, :]).prod(axis=2) * coeffs[None, :]


def test_int_power_matches_pow():
    rng = np.random.default_rng(1200)
    x = np.concatenate([
        rng.uniform(-1.8, 1.8, 2000),
        rng.uniform(-60.0, 60.0, 200),
        [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1e-3, -7.0],
    ])
    tiny = np.finfo(float).tiny
    seen = {"inf": 0, "zero": 0, "subnormal": 0}
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for n in range(0, 1201):
            ours = _int_power(x, n)
            ref = np.power(x, n)
            assert (np.signbit(ours) == np.signbit(ref)).all(), n
            inf = np.isinf(ref)
            assert (ours[inf] == ref[inf]).all(), n
            assert (ours[ref == 0] == 0).all(), n
            normal = np.isfinite(ref) & (np.abs(ref) >= tiny)
            # first-order bound of n - 1 roundings, plus one ulp for pow itself;
            # below 1e-13 up to n = 900, 1.33e-13 at n = 1200
            rtol = (n + 1) * 2.0**-53
            assert (np.abs(ours - ref)[normal] <= rtol * np.abs(ref[normal])).all(), n
            subnormal = (ref != 0) & ~normal & ~inf
            assert (np.abs(ours - ref)[subnormal] <= tiny).all(), n
            seen["inf"] += int(inf.sum())
            seen["zero"] += int((ref == 0).sum())
            seen["subnormal"] += int(subnormal.sum())
    assert np.array_equal(_int_power(x, 0), np.ones_like(x))
    assert min(seen.values()) > 0, seen


MARGIN_CONFIGS = {
    "concrete": concrete_example(),
    "min2_7": KurodaConfig.from_json_file(CONFIGS / "min2_7.json"),
    "drawn": _drawn_asymmetric_config(2024),
    "big_weights": KurodaConfig.from_json_file(BIG_WEIGHTS_PATH),
}

_POW_MARGINS = {
    RegionKind.S_PRIME4: _pow_s_prime_margins,
    RegionKind.S_DOUBLE_PRIME3: _pow_s_double_prime_margins,
    RegionKind.S_TILDE3: _pow_s_tilde_margins,
}


@pytest.mark.parametrize("kind", list(_POW_MARGINS))
@pytest.mark.parametrize("name", list(MARGIN_CONFIGS))
def test_margin_filters_match_pow_reference(name, kind):
    config = MARGIN_CONFIGS[name]
    spec = RegionSpec(kind, 1.0)
    sampler = _StarSampler(config, spec, 50.0, np.random.default_rng(17))
    ray = sampler._ray_tilde if kind is RegionKind.S_TILDE3 else sampler._ray_star
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the sampler's own strata: box, core box and rays
        candidates = np.vstack([sampler._box(4000, 50.0), sampler._box(4000, 1.0), ray(12000)])
        reference = _POW_MARGINS[kind](candidates, 1.0, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdicts = sampler._inside(candidates)
    assert verdicts.dtype == bool and verdicts.shape == (len(candidates),)
    # the power form's verdict wherever its margin is finite and clear of 0
    finite = np.isfinite(reference)
    clear = finite & (np.abs(reference) > 1e-9)
    assert (verdicts == (reference < 0))[clear].all()
    assert (reference[clear] < 0).any() and (reference[clear] > 0).any()
    # where the power form overflowed (inf, or nan from inf * 0), the exact one
    overflow = np.flatnonzero(~finite)
    assert np.array_equal(verdicts[overflow], inside_exact(kind, candidates[overflow], 1.0, config))
    if name == "big_weights":
        assert len(overflow) > 10000 and verdicts[overflow].sum() > 9000
    # the exact reference reads the clear power-form margins alike
    some = np.flatnonzero(clear)[::50]
    assert np.array_equal(inside_exact(kind, candidates[some], 1.0, config), reference[some] < 0)


_PUBLIC_MARGINS = {
    RegionKind.S_PRIME4: s_prime_margins,
    RegionKind.S_DOUBLE_PRIME3: s_double_prime_margins,
    RegionKind.S_TILDE3: s_tilde_margins,
}

# |p| from 1e-300 to 1e300: drawn as floats, as powers of ten, and as values
# on the bounds (0 and 1 make factors of 0, 2 a cap sum of 4)
_WIDE_MAGNITUDE = st.one_of(
    st.floats(1e-300, 1e300),
    st.integers(-300, 300).map(lambda e: 10.0**e),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 20.0]),
)


@st.composite
def _wide_points(draw):
    """Four-coordinate points with magnitudes from 1e-300 to 1e300, some coordinates equal."""
    points = []
    for _ in range(draw(st.integers(1, 6))):
        p = [draw(st.sampled_from([-1.0, 1.0])) * draw(_WIDE_MAGNITUDE) for _ in range(4)]
        for _ in range(draw(st.integers(0, 2))):
            i, j, _, _ = draw(st.permutations([0, 1, 2, 3]))
            p[j] = p[i]
        points.append(p)
    return np.array(points)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(valid_configs(), st.just(MARGIN_CONFIGS["big_weights"])),
    _wide_points(),
    st.sampled_from([1.0, 0.75, 3.0]),
)
def test_log_margins_are_never_nan_and_decide_inside(config, points, lam):
    for kind, margins_of in _PUBLIC_MARGINS.items():
        pts = points[:, : kind.dim]
        margins = margins_of(pts, lam, config)
        assert not np.isnan(margins).any()
        # the region test is the margin's sign, at every point
        assert np.array_equal(inside(kind, pts, lam, config), margins < 0)
        # and that sign is exact wherever the margin is clear of rounding
        clear = np.abs(margins) > 1e-9
        assert np.array_equal(inside_exact(kind, pts[clear], lam, config), margins[clear] < 0)


@pytest.mark.parametrize("lam", [0.75, 3.0])
@pytest.mark.parametrize("kind", list(_POW_MARGINS))
@pytest.mark.parametrize("name", ["drawn", "big_weights"])
def test_region_test_matches_exact_at_other_scales(name, kind, lam):
    # log|p| - log(lam) at a scale other than 1, on the strata of that scale
    config = MARGIN_CONFIGS[name]
    sampler = _StarSampler(config, RegionSpec(kind, lam), 50.0 * lam, np.random.default_rng(5))
    ray = sampler._ray_tilde if kind is RegionKind.S_TILDE3 else sampler._ray_star
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        candidates = np.vstack([sampler._box(100, 50.0 * lam), sampler._box(100, lam), ray(300)])
    verdicts = inside(kind, candidates, lam, config)
    assert np.array_equal(verdicts, inside_exact(kind, candidates, lam, config))
    assert 0 < verdicts.sum() < len(candidates)


@pytest.mark.parametrize("lam, point", [
    (0.75, (0.22461586701918182, 0.22461586701918176, -3.595213284565772)),
    (3.0, (0.8984634680767273, 0.8984634680767271, -14.380853138263088)),
])
def test_tilde_margins_keep_a_cancelling_difference_at_other_scales(lam, point):
    # fl(p_1/lam) - fl(p_2/lam) loses the difference: the power form gives
    # +0.4588, and the log margin of the rescaled point is positive too.
    # Every bound holds in exact arithmetic, the largest at -0.71 in power
    # form (axis 3's arm), -1.2442 in log form.
    config = MARGIN_CONFIGS["drawn"]
    (margin,) = s_tilde_margins(point, lam, config)
    assert margin == pytest.approx(-1.2442, abs=1e-4)
    (power,) = _pow_s_tilde_margins(np.array([point]), lam, config)
    assert power == pytest.approx(0.4588, abs=1e-4)
    assert s_tilde_margins(np.array(point) / lam, 1.0, config)[0] > 0
    assert inside_exact(RegionKind.S_TILDE3, [point], lam, config).all()


def test_region_test_inputs(concrete):
    with pytest.raises(ValueError, match="semi-decided"):
        inside(RegionKind.S3, [(0.0, 0.0, 0.0)], 1.0, concrete)
    with pytest.raises(ValueError, match="scale"):
        inside(RegionKind.S_TILDE3, [(0.0, 0.0, 0.0)], 0.0, concrete)
    with pytest.raises(ValueError, match="dimension"):
        inside(RegionKind.S_PRIME4, [(0.0, 0.0, 0.0)], 1.0, concrete)
    # a non-finite coordinate reads as outside, without a warning
    bad = [(np.inf, 0.0, 0.0, 0.0), (np.nan, 0.0, 0.0, 0.0), (0.5, -np.inf, 0.0, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not inside(RegionKind.S_PRIME4, bad, 1.0, concrete).any()
        assert not inside(RegionKind.S_DOUBLE_PRIME3, [b[:3] for b in bad], 1.0, concrete).any()
        assert not inside(RegionKind.S_TILDE3, [b[:3] for b in bad], 1.0, concrete).any()


def test_region_test_on_big_weights_points():
    # inside both regions, though the power form gives a nan margin: 20**300
    # overflows and meets a coordinate of 0 (or q_2 - q_3 = 0)
    big = MARGIN_CONFIGS["big_weights"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_pow_s_prime_margins(np.array([(20.0, 0, 0, 0)]), 1.0, big)).all()
        assert np.isnan(_pow_s_tilde_margins(np.array([(20, 0.3, 0.3)]), 1.0, big)).all()
    assert (s_prime_margins((20, 0, 0, 0), 1.0, big) < 0).all()
    assert (s_tilde_margins((20, 0.3, 0.3), 1.0, big) < 0).all()
    assert in_s_prime((20, 0, 0, 0), 1.0, big)
    assert in_s_tilde((20, 0.3, 0.3), 1.0, big)
    assert inside_exact(RegionKind.S_PRIME4, (20, 0, 0, 0), 1.0, big).all()
    assert inside_exact(RegionKind.S_TILDE3, (20, 0.3, 0.3), 1.0, big).all()
    # far out on the arm q_1**600 passes the double range: the arm bound
    # holds only for q_2 = q_3 exactly, and the caps' squares overflow
    far = [(1e200, 0.25, 0.25), (1e200, 0.25, 0.25 + 2.0**-54)]
    assert inside(RegionKind.S_TILDE3, far, 1.0, big).tolist() == [True, False]
    assert inside_exact(RegionKind.S_TILDE3, far, 1.0, big).tolist() == [True, False]
    # a cap factor past the double range meets a factor of exactly 0: the
    # product once read inf * 0 = nan, outside; every bound holds exactly
    capped = [(1e200, 1.0, 1.0), (1.0, 1e200, 1.0), (-1.0, -1.0, -3e180)]
    for config in (big, MARGIN_CONFIGS["concrete"]):
        assert inside_exact(RegionKind.S_TILDE3, capped, 1.0, config).all()
        assert inside(RegionKind.S_TILDE3, capped, 1.0, config).all()
        assert (s_tilde_margins(capped, 1.0, config) < 0).all()


def test_sandwich_half_check_is_exact_on_big_weights(monkeypatch):
    # each half-scaled point's verdict is the exact one of the six bounds;
    # the power-form margins are nan on many of them
    big = MARGIN_CONFIGS["big_weights"]
    checked = []
    real = regions_module.inside

    def spy(kind, points, lam, cfg):
        verdicts = real(kind, points, lam, cfg)
        if len(points) == 200:
            checked.append((np.array(points), verdicts))
        return verdicts

    monkeypatch.setattr(regions_module, "inside", spy)
    report = sandwich_check(big, 200, 1)
    (half, verdicts), = checked
    assert report.half_s_checked == len(half) == 200
    exact = inside_exact(RegionKind.S_TILDE3, half, 1.0, big)
    assert np.array_equal(verdicts, exact)
    assert report.half_s_violations == int((~exact).sum())
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_pow_s_tilde_margins(half, 1.0, big)).sum() > 50
    assert np.array_equal(s_tilde_margins(half, 1.0, big) < 0, exact)


ESCAPE_CONFIGS = ("concrete", "min2_7", "drawn")


def _outcome(call):
    """``None`` when ``call()`` returns, else the type and text of what it raised."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


# exp2 of a log row against the escape point in Python floats, in ulps of
# the reference.  Each log is a product and a sum of np.log2 values, within
# about 1.5 ulps of |log2 y| <= 2**-52 * |log2 y| each, and exp2 turns an
# absolute error e of the log into a relative error e*ln 2 of y: about
# 2*|log2 y| ulps, plus the roundings of exp2 and of the reference.  The
# configs here reach 1.6*(1 + |log2 y|) at most.
def _escape_ulp_bound(logs):
    return 4.0 + 4.0 * np.abs(logs)


@pytest.mark.parametrize("name", ESCAPE_CONFIGS)
def test_escape_series_matches_one_index_at_a_time(name):
    config = MARGIN_CONFIGS[name]
    ks = range(16, 5001)
    reference = escape_rows_one_by_one(ks, config)
    # escape_point keeps the bits of the per-index computation in Python floats
    for k in (16, 17, 1000, 5000):
        ep = escape_point(k, config)
        assert np.array_equal(np.array(ep.y).view(np.int64), reference[k - 16].view(np.int64))
        assert ep.pi == tuple((reference[k - 16, :3] - reference[k - 16, 3]).tolist())
    logs = _escape_logs(16, 5000, config)
    assert logs.shape == (len(ks), 4) and np.isfinite(logs).all()
    # a range that starts later holds the same rows
    assert np.array_equal(_escape_logs(1000, 1200, config), logs[1000 - 16:1201 - 16])
    values = np.exp2(logs)
    assert np.isfinite(reference).all() and (reference > 0).all()
    ulps = np.abs(values - reference) / np.spacing(reference)
    assert (ulps <= _escape_ulp_bound(logs)).all(), ulps.max()


# symmetric, diagonal -1, off-diagonal 100: k**100 leaves the double range at k = 1210
_OVERFLOW_MIDWAY = KurodaConfig.from_dict(
    {"delta": [[-1, 100, 100, 0], [100, -1, 100, 0], [100, 100, -1, 0]], "gamma": 1}
)


@pytest.mark.parametrize("config, first_bad", [
    (MARGIN_CONFIGS["big_weights"], 16),
    (_OVERFLOW_MIDWAY, 1210),
])
def test_escape_series_overflows_at_the_same_index(config, first_bad):
    # escape_point raises where the per-index computation in Python floats
    # does; the log rows stay finite over the whole range, and where the
    # reference is finite, exp2 of them is within the ulp bound of it
    ks = range(16, 2001)
    per_index = [_outcome(lambda k=k: escape_rows_one_by_one([k], config)) for k in ks]
    first_k = next(k for k, outcome in zip(ks, per_index) if outcome)
    assert first_k == first_bad
    error = per_index[first_bad - 16]
    assert error == (OverflowError, "int too large to convert to float")
    assert _outcome(lambda: escape_point(first_bad, config)) == error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = _escape_logs(16, 2000, config)
    assert logs.shape == (len(ks), 4) and np.isfinite(logs).all()
    if first_bad > 16:
        assert escape_point(first_bad - 1, config).k == first_bad - 1
        reference = escape_rows_one_by_one(range(16, first_bad), config)
        # Python floats give 1/inf = 0 where k**m * lg k passes the double
        # range though k**m does not: the reference is off there
        exact = reference > 0
        assert exact[: 1100 - 16].all() and not exact.all()
        values = np.exp2(logs[: first_bad - 16])
        ulps = np.abs(values - reference) / np.spacing(reference)
        assert (ulps <= _escape_ulp_bound(logs[: first_bad - 16]))[exact].all()


def test_escape_series_rejects_bad_indices(concrete):
    with pytest.raises(ValueError, match="got 15"):
        _escape_logs(15, 16, concrete)
    with pytest.raises(ValueError, match="got 15"):
        _escape_logs(16, 15, concrete)
    with pytest.raises(ValueError, match="got True"):
        _escape_logs(True, 20, concrete)
    with pytest.raises(ValueError, match="got 20.0"):
        _escape_logs(16, 20.0, concrete)
    assert _escape_logs(17, 16, concrete).shape == (0, 4)
    for k in (15, True, 20.0):
        with pytest.raises(ValueError, match=f"got {k!r}"):
            escape_point(k, concrete)


def _log_form(points):
    """Signs and log2|p| of float points, as the escape series passes them."""
    with np.errstate(divide="ignore"):
        return np.sign(points), np.log2(np.abs(points))


@pytest.mark.parametrize("budget", [1, 50, 2**16])
def test_log2_abs_matches_evaluate_abs(monkeypatch, budget):
    # log2|f| against log2 of the float evaluation, on points with signs and
    # exact zeros, where the float values are normal; the blocks change no bit
    monkeypatch.setattr(regions_module, "_EVAL_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(71)
    box3 = rng.uniform(-20.0, 20.0, size=(400, 3))
    box3[::9, 1] = 0.0
    box3[::13, 2] = box3[::13, 0]
    for f, pts in _evaluate_abs_cases()[:8] + [(pi_variable(2) * pi_variable(3) ** 2, box3)]:
        pts = box3 if pts.shape[1] == 3 else pts
        signs, logs = _log_form(pts)
        ours = _log2_abs(f, logs, signs)
        reference = evaluate_abs(f, pts)
        assert not np.isnan(ours).any()
        normal = reference > 1e-250
        np.testing.assert_allclose(ours[normal], np.log2(reference[normal]), rtol=0, atol=1e-9)
        # a zero |f| (all terms vanish, or an exact cancellation) is -inf
        assert (ours[reference == 0] == -np.inf).all()
        monkeypatch.setattr(regions_module, "_EVAL_BLOCK_ELEMENTS", 2**16)
        whole = _log2_abs(f, logs, signs)
        monkeypatch.setattr(regions_module, "_EVAL_BLOCK_ELEMENTS", budget)
        assert np.array_equal(ours.view(np.int64), whole.view(np.int64))


def test_log2_abs_past_the_double_range():
    f = SparsePolynomial(System.Y4, {(400, 0, 0, 1): 3, (0, 300, 0, 0): -1})
    logs = np.array([[10.0, -20.0, 0.0, 0.0], [-10.0, -20.0, 0.0, 0.0], [0.0, 1.0, 0.0, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ours = _log2_abs(f, logs)
    # 3 * 2**4000 - 2**-6000, 3 * 2**-4000 - 2**-6000 and 1 - 2**300
    assert ours[0] == pytest.approx(4000 + math.log2(3), abs=1e-9)
    assert ours[1] == pytest.approx(-4000 + math.log2(3), abs=1e-9)
    assert ours[2] == pytest.approx(300.0, abs=1e-9)
    zero = SparsePolynomial(System.Y4, {(1, 0, 0, 0): 1, (0, 0, 0, 2): 5})
    assert _log2_abs(zero, np.array([[-np.inf, 0.0, 0.0, -np.inf]]))[0] == -np.inf


@pytest.mark.parametrize("name", ["concrete", "drawn", "big_weights"])
def test_projection_logs_match_float_projections(name):
    config = MARGIN_CONFIGS[name]
    logs = _escape_logs(16, 3000, config)
    signs, mags = _projection_logs(logs)
    assert np.isfinite(mags).all()
    # y_1 > y_4 > y_2, y_3 at every index
    assert (signs == [1.0, -1.0, -1.0]).all()
    if name != "big_weights":
        y = np.exp2(logs)
        direct = y[:, :3] - y[:, 3:]
        np.testing.assert_allclose(signs * np.exp2(mags), direct, rtol=1e-12)
    # a zero difference is sign 0 and log -inf, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        signs, mags = _projection_logs(np.array([[1.0, -3.0, -2.0, -2.0]]))
    assert signs.tolist() == [[1.0, -1.0, 0.0]] and mags[0, 2] == -np.inf
    assert mags[0, :2] == pytest.approx([math.log2(2 - 0.25), math.log2(0.25 - 0.125)])


def test_big_weights_probe_escape_series_is_finite():
    # the series that raised OverflowError: |f| past the double range reads
    # inf, the verdicts come from log2|f|
    big = MARGIN_CONFIGS["big_weights"]
    y1 = SparsePolynomial.monomial(System.Y4, (1, 0, 0, 0))
    report = boundedness_probe(big, y1, RegionSpec(RegionKind.S_PRIME4, 1.0), 0, seed=0, escape_kmax=2000)
    assert report.escape_values[0] == 16.0
    assert report.divergence and report.escape_monotone_from_k == 16
    tiny = SparsePolynomial.monomial(System.Y4, (0, 1, 0, 0))
    report = boundedness_probe(big, tiny, RegionSpec(RegionKind.S_PRIME4, 1.0), 0, seed=0, escape_kmax=300)
    assert report.escape_final_value == 0.0 and not report.divergence
    assert not report.monotone_tail
    p1 = pi_variable(1)
    report = boundedness_probe(big, p1 * p1, RegionSpec(RegionKind.S3, 1.0), 0, seed=0, escape_kmax=5000)
    assert report.divergence and all(math.isfinite(v) for v in report.escape_values)


_RAY_CONFIGS = {**MARGIN_CONFIGS, "symmetric_1_100": _OVERFLOW_MIDWAY}


@pytest.mark.parametrize("n", (1, 7, 12000))
@pytest.mark.parametrize("kind", list(_POW_MARGINS))
@pytest.mark.parametrize("name", list(_RAY_CONFIGS))
def test_ray_strata_match_mask_indexed_reference(name, kind, n):
    # the references raise every candidate with plain ``**``, also where
    # the result under- or overflows and the sampler skips pow
    config = _RAY_CONFIGS[name]
    spec = RegionSpec(kind, 1.5)
    tilde = kind is RegionKind.S_TILDE3
    for radius in (50.0, 1e6):
        ours = _StarSampler(config, spec, radius, np.random.default_rng(29))
        ref = _StarSampler(config, spec, radius, np.random.default_rng(29))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(2):
                points = ours._ray_tilde(n) if tilde else ours._ray_star(n)
                expected = ray_tilde_by_masks(ref, n) if tilde else ray_star_by_masks(ref, n)
                assert points.shape == expected.shape == (n, kind.dim)
                assert np.array_equal(points.view(np.int64), expected.view(np.int64))
                assert ours.rng.bit_generator.state == ref.rng.bit_generator.state


_POW_EXPONENTS = (1 / 300, 0.5, 2, 3, 60, 300, 600)


@pytest.mark.parametrize("e", [*_POW_EXPONENTS, *(-e for e in _POW_EXPONENTS), 600.0, -300.0])
def test_pow_from_one_matches_plain_pow(e):
    rng = np.random.default_rng(5)
    edges = [1.0, np.nextafter(1.0, np.inf), 2.0**1023, np.finfo(float).max]
    for log2_limit in (1100, 1030, 1024, 1075, 1022):
        if log2_limit / abs(e) < 1023:
            cut = 2.0 ** (log2_limit / abs(e))
            edges += [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)]
    top = max(edges[4:], default=1e3)
    v = np.concatenate([edges, rng.uniform(1.0, 2.0 * top, 4000), 2.0 ** rng.uniform(0, 1023, 500)])
    with np.errstate(over="ignore", under="ignore"):
        expected = v ** e
        ours = _pow_from_one(v, e)
    assert np.array_equal(ours.view(np.int64), expected.view(np.int64))
    log2_cut = (1100 if e < 0 else 1030) / abs(e)
    if e != 2 and log2_cut < 1023:
        # past the cutoff the value is known: 0 below the range, inf above it
        past = v >= 2.0**log2_cut
        assert past.any()
        assert (ours[past] == (0.0 if e < 0 else math.inf)).all()


@st.composite
def _mesh_axes(draw):
    radius = draw(st.floats(1e-3, 1e3))
    coordinate = st.floats(-radius, radius)
    return tuple(
        np.array(draw(st.lists(coordinate, min_size=1, max_size=9)), dtype=float)
        for _ in range(3)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.sampled_from(list(MARGIN_CONFIGS.values())), valid_configs(off=60, diag=7)),
    _mesh_axes(),
    st.sampled_from([1.0, 0.5, 3.0]),
)
def test_mesh_margins_match_point_list_margins(config, axes, lam):
    x, y, z = axes
    mesh = (x[:, None, None], y[None, :, None], z[None, None, :])
    points = np.stack(np.broadcast_arrays(*mesh), axis=-1).reshape(-1, 3)
    with np.errstate(divide="ignore", over="ignore"):
        star = _star_margins(mesh, lam, config)
        tilde = _tilde_margins(mesh, lam, config)
    star_ref = s_double_prime_margins(points, lam, config)
    tilde_ref = s_tilde_margins(points, lam, config)
    # int64 views, so that inf positions and bits count too
    for ours, ref in ((star, star_ref), (tilde, tilde_ref)):
        assert ours.shape == (len(x), len(y), len(z))
        assert np.array_equal(ours.reshape(-1).view(np.int64), ref.view(np.int64))


def _evaluate_abs_cases():
    rng = np.random.default_rng(4)
    box3 = rng.uniform(-50.0, 50.0, size=(3000, 3))
    unit4 = rng.uniform(-1.5, 1.5, size=(3000, 4))
    cases = [(f, box3) for f in seeded_pi_polynomials(31, 12)]
    cases.append(((pi_variable(1) + 2 * pi_variable(2) - pi_variable(3) + 1) ** 3, box3))
    cases.append((SparsePolynomial(System.Y4, {(40, 0, 3, 1): 1, (7, 12, 0, 0): -2, (0, 0, 0, 0): 5}), unit4))
    return cases


def test_evaluate_abs_matches_pow_reference():
    for f, pts in _evaluate_abs_cases():
        terms = _pow_terms(f, pts)
        reference = np.abs(terms.sum(axis=1))
        scale = np.abs(terms).sum(axis=1)
        values = evaluate_abs(f, pts)
        assert np.isfinite(scale).all()
        assert (np.abs(values - reference) <= 1e-12 * scale).all(), f


def test_evaluate_abs_blocks_are_bit_identical(monkeypatch):
    import kuroda.regions as regions

    cases = _evaluate_abs_cases()
    whole = [evaluate_abs(f, pts) for f, pts in cases]
    # 97 elements per block: one row per block for the larger polynomials,
    # a few rows for the small ones, so every case runs in many blocks
    monkeypatch.setattr(regions, "_EVAL_BLOCK_ELEMENTS", 97)
    for (f, pts), expected in zip(cases, whole):
        assert np.array_equal(evaluate_abs(f, pts), expected), f


CUBIC16 = "(P1 - 2*P2 + 3*P3 + 1/2)*(2*P1 + P2 - P3)*(-P1 + 3*P2 + 2*P3)"
CUBIC20 = "(P1 + 2*P2 - P3 + 1)*(2*P1 - P2 + P3 - 2)*(P1 + P2 + 3*P3 + 1/3)"


def _whole_array_cases():
    rng = np.random.default_rng(22)
    cubic = parse_polynomial(CUBIC16)
    box3 = rng.uniform(-50.0, 50.0, size=(20000, 3))
    # 42**3 = 74088 terms, more than one block's budget: one-row blocks
    many = SparsePolynomial(
        System.PI3, {(a, b, c): (a - b + c) % 7 - 3 or 1 for a in range(42)
                     for b in range(42) for c in range(42)}
    )
    # y1**40 overflows above about 5e7, and y1**40 - y2**40 is inf - inf = nan
    overflow = SparsePolynomial(System.Y4, {(40, 0, 0, 0): 1, (0, 40, 0, 0): -1, (0, 0, 1, 1): 3})
    huge = np.array([[1e10, 1.0, 2.0, 3.0], [-1e10, 1e10, 0.5, 0.5], [1e9, -1e9, 1.0, 1.0],
                     [1.5, 0.5, 0.25, -2.0], [1e200, 0.0, 0.0, 0.0]])
    return [
        (SparsePolynomial.zero(System.PI3), box3[:7]),
        (cubic, box3[:0]),
        (cubic, box3[:1]),
        (SparsePolynomial(System.PI3, {(3, 0, 5): Fraction(-7, 3)}), box3[:500]),
        (cubic, box3),
        (parse_polynomial(CUBIC20), box3),
        (parse_polynomial("(P1 + 2*P2 - P3 + 1/2)^8"), rng.uniform(-3.0, 3.0, size=(20000, 3))),
        (many, rng.uniform(-1.2, 1.2, size=(5, 3))),
        (overflow, huge),
        (parse_polynomial("(Y1 - 2*Y2 + Y3*Y4 + 1/3)^5"), rng.uniform(-2.0, 2.0, size=(3000, 4))),
    ]


def test_evaluate_abs_matches_the_whole_array_reference():
    # int64 views, so that inf and nan positions and every bit count too
    for f, pts in _whole_array_cases():
        values = evaluate_abs(f, pts)
        expected = evaluate_abs_whole(f, pts)
        assert values.shape == (len(pts),)
        assert np.array_equal(values.view(np.int64), expected.view(np.int64)), f.term_count()


def test_whole_array_cases_cover_overflow_and_several_blocks():
    cases = _whole_array_cases()
    f, pts = cases[-2]
    values = evaluate_abs(f, pts)
    assert np.isinf(values).any() and np.isnan(values).any() and np.isfinite(values).any()
    f, pts = cases[4]
    assert f.term_count() == 16 and len(pts) > regions_module._EVAL_BLOCK_ELEMENTS // 16
    assert cases[7][0].term_count() > regions_module._EVAL_BLOCK_ELEMENTS


def test_evaluate_abs_memory_stays_near_one_block():
    f = parse_polynomial(CUBIC20)
    assert f.term_count() == 20
    pts = np.random.default_rng(3).uniform(-50.0, 50.0, size=(20000, 3))
    evaluate_abs(f, pts[:10])
    tracemalloc.start()
    try:
        evaluate_abs(f, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (20 x 20000) array alone is 3.05 MiB
    assert peak < 2 * 2**20, peak


# 64 = 21 + 21 + 22, the degree limit, in 22 * 22 * 23 = 11132 terms: one
# (terms x samples) array of 20000 samples needs 1.66 GiB.
_WIDE = "(P1+1)^21*(P2+1)^21*(P3+1)^22"


def test_probe_of_a_wide_polynomial_fits_one_gib():
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from kuroda.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [
        "probe", "--config", str(CONFIGS / "concrete.json"), "--expr", _WIDE,
        "--samples", "20000", "--seed", "1", "--kmax", "0", "--format", "json",
    ]
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert '"sample_count": 20000' in result.stdout


def test_overflow_counts_as_pole(monkeypatch, concrete):
    f = SparsePolynomial(
        System.Y4, {(40, 0, 0, 0): 1, (0, 1, 0, 1): Fraction(1, 2), (1, 0, 0, 0): 3}
    )
    pts = np.array([
        [1e10, 0.5, 0.5, 0.5],
        [2.0, 1.0, 1.0, 1.0],
        [-1e9, 0.0, 0.0, 0.0],
        [1e7, 0.0, 0.0, 0.0],
    ])
    values = evaluate_abs(f, pts)
    # y1^40 overflows above about 5e7 in absolute value
    assert np.isfinite(values).tolist() == [False, True, False, True]
    assert values[1] == 2.0**40 + 0.5 + 6.0

    # the probe counts the non-finite values among its samples: put huge
    # first coordinates in a few rows
    import kuroda.regions as regions

    real_sample_region = regions.sample_region
    huge = [0, 5, 17, 99]

    def with_huge(*args, **kwargs):
        samples = real_sample_region(*args, **kwargs)
        samples.points[huge, 0] = [1e10, -1e10, 1e200, -1e9]
        return samples

    monkeypatch.setattr(regions, "sample_region", with_huge)
    report = boundedness_probe(concrete, f, RegionSpec(RegionKind.S_PRIME4, 1.0), 500, seed=3)
    assert report.sample_count == 500
    assert report.pole_count == len(huge)
    assert math.isfinite(report.max_abs_value)


@pytest.mark.parametrize(
    "radius", [-4.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 9e307, 1e308]
)
def test_sample_region_rejects_bad_radius(concrete, radius):
    for kind in (RegionKind.S3, RegionKind.S_TILDE3):
        with pytest.raises(ValueError, match="radius"):
            sample_region(concrete, RegionSpec(kind, 1.0), 5, seed=1, radius=radius)


DRAW_LOOP_CONFIGS = {
    **MARGIN_CONFIGS,
    "drawn_7": _drawn_asymmetric_config(7),
    "drawn_99": _drawn_asymmetric_config(99),
}
DRAW_LOOP_COUNTS = (0, 1, 200, 2000, 5000)


def _same_sample_sets(ours, ref):
    assert ours.points.shape == ref.points.shape
    assert np.array_equal(ours.points.view(np.int64), ref.points.view(np.int64))
    assert ours.strata == ref.strata


@pytest.mark.parametrize("count", DRAW_LOOP_COUNTS)
@pytest.mark.parametrize("name", list(DRAW_LOOP_CONFIGS))
def test_sample_region_matches_loop_reference(name, count):
    # the one draw loop gathers the points, strata counts and rng draws of
    # the sampler's former loop
    config = DRAW_LOOP_CONFIGS[name]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kind in RegionKind:
            for seed in (1, 2, 3):
                args = (config, RegionSpec(kind, 1.5), count, seed, 50.0)
                _same_sample_sets(sample_region(*args), sample_region_by_loop(*args))


@pytest.mark.parametrize("count", DRAW_LOOP_COUNTS)
@pytest.mark.parametrize("name", list(DRAW_LOOP_CONFIGS))
def test_sandwich_matches_loop_reference(name, count):
    config = DRAW_LOOP_CONFIGS[name]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for seed in (1, 2, 3):
            ours = sandwich_check(config, count, seed, radius=40.0, tolerance=1e-3)
            assert ours == sandwich_by_loops(config, count, seed, radius=40.0, tolerance=1e-3)
            assert ours.half_s_checked == ours.tilde_checked == count


@pytest.mark.parametrize("radius", [1e80, 1e200])
@pytest.mark.parametrize("name", ["concrete", "big_weights"])
def test_sandwich_sampling_errors_match_loop_reference(monkeypatch, name, radius):
    # the region test rejects every basic-set candidate: both loops fill the
    # half-scaled direction, then give up after the same batches
    config = DRAW_LOOP_CONFIGS[name]
    _reject_all(monkeypatch, {RegionKind.S_TILDE3})
    ours = _outcome(lambda: sandwich_check(config, 200, 4, radius=radius))
    ref = _outcome(lambda: sandwich_by_loops(config, 200, 4, radius=radius))
    assert ours == ref
    assert ours[0] is SamplingError
    assert "checked 200 half-scaled" in ours[1] and "and 0 basic-set points" in ours[1]


@pytest.mark.parametrize("radius", [1e80, 1e200])
@pytest.mark.parametrize("name", ["concrete", "big_weights"])
def test_sandwich_checks_every_point_at_huge_radii(name, radius):
    # the log-form region test accepts the arm candidates whose power form
    # overflowed, so both directions fill up, in the batches of the loops
    config = DRAW_LOOP_CONFIGS[name]
    with warnings.catch_warnings():
        # the arm candidates' own construction overflows at these radii
        warnings.simplefilter("ignore", RuntimeWarning)
        ours = sandwich_check(config, 200, 4, radius=radius)
        assert ours == sandwich_by_loops(config, 200, 4, radius=radius)
    assert ours.half_s_checked == ours.tilde_checked == 200
    assert ours.half_s_violations == 0


@pytest.mark.parametrize("count", [1, 200, 5000])
def test_sample_region_sampling_errors_match_loop_reference(monkeypatch, concrete, count):
    # a region test that rejects every candidate spends the whole budget
    _reject_all(monkeypatch)
    for kind in RegionKind:
        args = (concrete, RegionSpec(kind, 1.0), count, 3, 10.0)
        ours = _outcome(lambda: sample_region(*args))
        assert ours == _outcome(lambda: sample_region_by_loop(*args))
        assert ours[0] is SamplingError


def test_sandwich_half_examples_are_the_first_violators(monkeypatch, concrete):
    # every half-scaled point violates: the examples are the first five of
    # the call, where the former loop kept up to five per candidate batch
    gathered = []
    real = regions_module.inside

    def all_violate(kind, points, lam, cfg):
        # the samplers' strata are smaller than the 6000 points checked
        if len(points) != 6000:
            return real(kind, points, lam, cfg)
        gathered.append(np.array(points))
        return np.zeros(len(points), dtype=bool)

    monkeypatch.setattr(regions_module, "inside", all_violate)
    report = sandwich_check(concrete, 6000, seed=8)
    (half,) = gathered
    assert report.half_s_checked == report.half_s_violations == len(half) == 6000
    examples = [p for d, p in report.violation_examples if d == "half_s_outside_tilde"]
    assert examples == [tuple(p) for p in half[:5].tolist()]
    monkeypatch.setattr(
        reference_module, "inside", lambda kind, pts, lam, cfg: np.zeros(len(pts), dtype=bool)
    )
    before = sandwich_by_loops(concrete, 6000, seed=8, radius=50.0)
    per_batch = [p for d, p in before.violation_examples if d == "half_s_outside_tilde"]
    assert len(per_batch) > 5 and per_batch[:5] == examples
