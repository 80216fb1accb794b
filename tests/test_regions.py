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
from kuroda.regions import (
    Verdict,
    _cross_pairs,
    _escape_series,
    _int_power,
    _StarSampler,
    evaluate_abs,
    s_double_prime_margins,
    s_prime_margins,
    s_shift_margins,
    s_tilde_margins,
)

from conftest import BIG_WEIGHTS_PATH, seeded_pi_polynomials
from reference import (
    escape_rows_one_by_one,
    pi_variable,
    ray_star_by_masks,
    ray_tilde_by_masks,
    shift_margins_full_scan,
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


def _reference_shift_margin(point, lam, config):
    """The per-point shift scan in pow form, kept as the reference for
    s_shift_margins: 1024 interior grid shifts, then two refinement rounds
    of 65 around the best shift."""
    p = np.asarray(point, dtype=float)
    shifts = np.linspace(-lam, lam, 1026)[1:-1]
    spacing = shifts[1] - shifts[0]
    best_a, best = 0.0, math.inf
    for _ in range(3):
        margins = s_double_prime_margins(p[None, :] - shifts[:, None], lam, config)
        idx = int(np.argmin(margins))
        if margins[idx] < best:
            best, best_a = float(margins[idx]), float(shifts[idx])
        lo, hi = max(best_a - spacing, -lam), min(best_a + spacing, lam)
        shifts = np.linspace(lo, hi, 65)
        spacing = shifts[1] - shifts[0]
    return best


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


@pytest.mark.parametrize("name", list(SHIFT_SEARCH_CONFIGS))
def test_shift_search_matches_pow_reference(name):
    config = SHIFT_SEARCH_CONFIGS[name]
    tolerance = 1e-6
    spec = RegionSpec(RegionKind.S_TILDE3, 1.0)
    points = sample_region(config, spec, 1200, seed=61, radius=50.0).points
    far = points[(np.abs(points) > 2.0).any(axis=1)][:300]
    assert len(far) == 300
    margins, shifts = s_shift_margins(far, 2.0, config)
    assert margins.shape == shifts.shape == (300,)
    assert (np.abs(shifts) <= 2.0).all()
    reference = np.array([_reference_shift_margin(p, 2.0, config) for p in far])
    # log form reorders the float arithmetic: equal margins up to rounding
    assert np.allclose(margins, reference, rtol=1e-9, atol=1e-12)
    clear = np.minimum(np.abs(reference - tolerance), np.abs(reference + tolerance)) > 1e-9
    assert clear.sum() >= 290
    verdicts = [_verdict(m, tolerance) for m in margins]
    for verdict, ref, ok in zip(verdicts, reference, clear):
        if ok:
            assert verdict is _verdict(ref, tolerance)
    for p, verdict in zip(far[:40], verdicts):
        assert in_s(p, 2.0, config, tolerance) is verdict
    if name in ("symmetric_1_6", "drawn"):
        # both reach known defect b, so OUT verdicts are compared too
        assert {Verdict.IN, Verdict.OUT} <= set(verdicts)


def _shift_search_points(config, lam):
    """Far-zone basic-set points as sandwich draws them, exact hits of the
    grid at ``lam`` (interval ends and interior shifts) and diagonal points."""
    with np.errstate(over="ignore", invalid="ignore"):
        points = sample_region(
            config, RegionSpec(RegionKind.S_TILDE3, 1.0), 1200, seed=61, radius=50.0
        ).points
    far = points[(np.abs(points) > 2.0).any(axis=1)][:200]
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
def test_bounded_grid_scan_matches_full_scan(name, big_weights):
    config = big_weights if name == "big_weights" else SHIFT_SEARCH_CONFIGS[name]
    for lam in (0.7, 1.0, 2.0, 13.0):
        points = _shift_search_points(config, lam)
        for scale in (1.0, 10.0, 1e4):
            # scaled by 10 or 1e4, the grid hits are hits no more
            margins, shifts = s_shift_margins(points * scale, lam, config)
            ref_margins, ref_shifts = shift_margins_full_scan(points * scale, lam, config)
            assert np.array_equal(margins, ref_margins)
            assert np.array_equal(shifts, ref_shifts)


@pytest.mark.parametrize("lam", [2.0, 13.0, 3e-320, 8e-320])
def test_shift_search_rows_do_not_depend_on_the_call(lam):
    # 300 rows span two refinement blocks; at the subnormal scales the
    # refinement span of a row whose best shift sits near -lam or lam is
    # clipped, and its np.linspace step underflows to 0 where others do not
    config = SHIFT_SEARCH_CONFIGS["drawn"]
    rng = np.random.default_rng(8)
    points = rng.uniform(-3.0, 3.0, size=(300, 3)) * lam
    points[:40] = _shift_search_points(config, lam)[-40:]
    points[40:60] = rng.uniform(-1.0, 1.0, size=(20, 3)) * 0.1 * lam
    points[40:50, 0] = 0.999 * lam
    points[50:60, 0] = -0.999 * lam
    margins, shifts = s_shift_margins(points, lam, config)
    for size in (1, 16, 17):
        parts = [s_shift_margins(points[i:i + size], lam, config) for i in range(0, 300, size)]
        assert np.array_equal(np.concatenate([m for m, _ in parts]), margins)
        assert np.array_equal(np.concatenate([a for _, a in parts]), shifts)
    for row in (0, 7, 45, 55, 150, 299):
        alone = shift_margins_full_scan(points[row], lam, config)
        assert alone[0][0] == margins[row] and alone[1][0] == shifts[row]


def test_shift_search_rejects_overflow(concrete):
    # the grid of 1e308 is not finite, and at 8e307 p - a passes the double
    # range for a = -g: both once read as a verdict (OUT, and a margin from NaN values)
    with pytest.raises(ValueError, match="double range"):
        s_shift_margins([(3.0, 0.25, 0.25)], 1e308, concrete)
    with pytest.raises(ValueError, match="double range"):
        in_s((3.0, 0.25, 0.25), 1e308, concrete)
    lam = 8e307
    g = np.linspace(-lam, lam, 1026)[1:-1][600]
    with pytest.raises(ValueError, match="double range"):
        s_shift_margins([(10.0, 0.4, 0.4), (1.7e308, g, 5.0)], lam, concrete)
    margins, _ = s_shift_margins([(9e307, g, 5.0)], lam, concrete)
    assert not np.isnan(margins).any()


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


def test_escape_axis_relabelling(concrete):
    # on the symmetric instance the dominant-axis variants are coordinate
    # permutations of each other and stay inside the region
    base = escape_point(250, concrete)
    for axis in (2, 3):
        variant = escape_point(250, concrete, axis=axis)
        assert sorted(variant.y) == sorted(base.y)
        assert variant.y[axis - 1] == base.y[0]
        assert variant.y[3] == base.y[3]
        assert in_s_prime(variant.y, 1.0, concrete)
    with pytest.raises(ValueError):
        escape_point(250, concrete, axis=4)


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


def test_sampler_failure_signal(monkeypatch, concrete):
    # a margin filter that rejects every candidate exhausts the candidate budget
    monkeypatch.setattr(_StarSampler, "_margins", lambda self, pts: np.ones(len(pts)))
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
        concrete, p1, spec, 0, seed=0, escape_ks=range(16, 2001)
    )
    assert report.divergence
    assert report.monotone_tail
    assert report.escape_final_value > 1990
    assert report.escape_monotone_from_k == 16


def test_probe_failing_monomial_diverges(concrete):
    y1 = SparsePolynomial.monomial(System.Y4, (1, 0, 0, 0))
    spec = RegionSpec(RegionKind.S_PRIME4, 1.0)
    report = boundedness_probe(
        concrete, y1, spec, 0, seed=0, escape_ks=range(16, 3001)
    )
    assert report.bound is None  # (1,0,0,0) is not a monoid member
    assert report.divergence


def test_probe_constant(concrete):
    one = SparsePolynomial.constant(System.PI3, 1)
    spec = RegionSpec(RegionKind.S_TILDE3, 1.0)
    report = boundedness_probe(
        concrete, one, spec, 500, seed=5, escape_ks=range(16, 200)
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


def test_sandwich_counts_the_in_s_verdicts(monkeypatch):
    # a wide band on a config with known defect b: IN, OUT and UNCERTAIN all occur
    config = SHIFT_SEARCH_CONFIGS["symmetric_1_6"]
    tolerance = 0.2
    searched = []

    def spy(points, lam, cfg):
        margins, shifts = s_shift_margins(points, lam, cfg)
        searched.append((np.array(points), margins))
        return margins, shifts

    monkeypatch.setattr(regions_module, "s_shift_margins", spy)
    report = sandwich_check(config, 300, seed=5, tolerance=tolerance)
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
    concrete, radius, half_checked, tilde_checked
):
    # the margin filters overflow at these radii and reject every candidate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
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
    # The whole grid at once peaks at about 160 MB here (meshgrid, points, margins).
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


# -- integer powers by multiplication, against the pow forms ---------------
#
# The margin filters and evaluate_abs used to form integer powers with
# ``**`` (libm pow).  Those forms are kept here, test-only, as the reference.


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
        margins = sampler._margins(candidates)
        reference = _POW_MARGINS[kind](candidates, 1.0, config)
    # overflow lands where pow's did: same inf and nan (inf * 0) pattern
    assert (np.isnan(margins) == np.isnan(reference)).all()
    assert (np.isinf(margins) == np.isinf(reference)).all()
    clear = np.abs(reference) > 1e-9
    assert ((margins < 0) == (reference < 0))[clear].all()
    assert (reference[clear] < 0).any() and (reference[clear] > 0).any()


ESCAPE_CONFIGS = ("concrete", "min2_7", "drawn")


def _outcome(call):
    """``None`` when ``call()`` returns, else the type and text of what it raised."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("axis", (1, 2, 3))
@pytest.mark.parametrize("name", ESCAPE_CONFIGS)
def test_escape_series_matches_one_index_at_a_time(name, axis):
    config = MARGIN_CONFIGS[name]
    ks = list(range(16, 5001))
    rows = _escape_series(ks, config, axis)
    reference = escape_rows_one_by_one(ks, config, axis)
    # bit for bit: compare the float64 words as integers
    assert rows.shape == (len(ks), 4)
    assert np.array_equal(rows.view(np.int64), reference.view(np.int64))
    for k in (16, 17, 1000, 5000):
        ep = escape_point(k, config, axis)
        assert ep.y == tuple(reference[k - 16].tolist())
        assert ep.pi == tuple((reference[k - 16, :3] - reference[k - 16, 3]).tolist())


# symmetric, diagonal -1, off-diagonal 100: k**100 leaves the double range at k = 1210
_OVERFLOW_MIDWAY = KurodaConfig.from_dict(
    {"delta": [[-1, 100, 100, 0], [100, -1, 100, 0], [100, 100, -1, 0]], "gamma": 1}
)


@pytest.mark.parametrize("axis", (1, 2, 3))
@pytest.mark.parametrize("config, first_bad", [
    (MARGIN_CONFIGS["big_weights"], 16),
    (_OVERFLOW_MIDWAY, 1210),
])
def test_escape_series_overflows_at_the_same_index(config, first_bad, axis):
    ks = list(range(16, 2001))
    per_index = [_outcome(lambda k=k: escape_rows_one_by_one([k], config, axis)) for k in ks]
    first = next(i for i, outcome in enumerate(per_index) if outcome)
    assert ks[first] == first_bad
    assert per_index[first] == (OverflowError, "int too large to convert to float")
    with warnings.catch_warnings():
        # an inf product whose reciprocal is 0 passes silently, as in Python floats
        warnings.simplefilter("error")
        assert _outcome(lambda: _escape_series(ks[:first], config, axis)) is None
    assert _outcome(lambda: _escape_series(ks[:first + 1], config, axis)) == per_index[first]
    assert _outcome(lambda: _escape_series(ks, config, axis)) == per_index[first]
    assert _outcome(lambda: escape_point(first_bad, config, axis)) == per_index[first]


def test_escape_series_rejects_bad_indices(concrete):
    with pytest.raises(ValueError, match="got 15"):
        _escape_series([15, 16], concrete)
    with pytest.raises(ValueError, match="got True"):
        _escape_series([True], concrete)
    with pytest.raises(ValueError, match="axis"):
        _escape_series([16], concrete, axis=0)
    assert _escape_series([], concrete).shape == (0, 4)


@pytest.mark.parametrize("n", (1, 7, 12000))
@pytest.mark.parametrize("kind", list(_POW_MARGINS))
@pytest.mark.parametrize("name", list(MARGIN_CONFIGS))
def test_ray_strata_match_mask_indexed_reference(name, kind, n):
    config = MARGIN_CONFIGS[name]
    spec = RegionSpec(kind, 1.5)
    ours = _StarSampler(config, spec, 50.0, np.random.default_rng(29))
    ref = _StarSampler(config, spec, 50.0, np.random.default_rng(29))
    tilde = kind is RegionKind.S_TILDE3
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(2):
            points = ours._ray_tilde(n) if tilde else ours._ray_star(n)
            expected = ray_tilde_by_masks(ref, n) if tilde else ray_star_by_masks(ref, n)
            assert points.shape == expected.shape == (n, kind.dim)
            assert np.array_equal(points.view(np.int64), expected.view(np.int64))
            assert ours.rng.bit_generator.state == ref.rng.bit_generator.state


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
