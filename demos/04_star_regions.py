"""Star regions: predicates, escape sequence, sampled probes, boundary cloud.

The numeric layer is evidence machinery: samplers and probes report maxima,
divergence and inclusion counts, never theorems.
"""

import tempfile
from pathlib import Path

from kuroda import (
    RegionKind,
    RegionSpec,
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

config = concrete_example()

# Membership predicates.  The star has thin arms: a big first coordinate
# forces the others to be tiny.
print("(10, 9e-4, 9e-4, 0.5) in 4-dim region:", in_s_prime((10, 0.0009, 0.0009, 0.5), 1.0, config))
print("(10, 10, 0, 0)     in 4-dim region:", in_s_prime((10, 10, 0, 0), 1.0, config))
print("(10, 0, 0)  in basic open set:", in_s_tilde((10, 0, 0), 1.0, config))
print("(10, 10, 10) in basic open set:", in_s_tilde((10, 10, 10), 1.0, config))

# Fattened-star membership quantifies over a diagonal shift and is
# semi-decided (IN / OUT / UNCERTAIN).
for p in [(0.5, 0.5, 0.5), (10, 0.5, 0.5), (10, 10, 0)]:
    print(f"{p} in fattened star:", in_s(p, 1.0, config).value)

# The escape sequence: its fourth coordinate 1/lglglg(k) crosses 1 at k=16,
# so membership starts at the threshold 17.
print("\nescape threshold:", escape_threshold(config))
for k in (17, 100, 10_000):
    ep = escape_point(k, config)
    print(f"k={k}: first projected coordinate {ep.pi[0]:.2f}, in region: "
          f"{in_s_prime(ep.y, 1.0, config)}")

# Sampled sup of a monomial of the monoid over the scaled region: stays
# below scale**degree.
y1y2 = SparsePolynomial.monomial(System.Y4, (1, 1, 0, 0))
spec = RegionSpec(RegionKind.S_PRIME4, 2.0)
report = boundedness_probe(config, y1y2, spec, 50_000, seed=1, radius=50.0)
print(f"\nsampled sup of the degree-2 monomial at scale 2: {report.max_abs_value:.6f}"
      f" (bound {report.bound}, ok: {report.bound_ok})")

# A non-member diverges along the escape sequence.
p1 = boundedness_probe(
    config,
    SparsePolynomial.monomial(System.Y4, (1, 0, 0, 0)),
    RegionSpec(RegionKind.S_PRIME4, 1.0),
    0,
    seed=1,
    escape_kmax=5_000,
)
print(f"plain first variable along the escape points: final {p1.escape_final_value:.0f},"
      f" divergence flag: {p1.divergence}")

# Far-zone sandwich: half-scale fattened star inside the basic open set,
# basic open set inside the doubled fattened star.
sandwich = sandwich_check(config, 1_000, seed=2, radius=50.0)
print(f"\nsandwich: {sandwich.half_s_checked}+{sandwich.tilde_checked} points, "
      f"violations {sandwich.total_violations}, uncertain {sandwich.uncertain_count}")

# Region samples and a near-boundary cloud for external plotting.
samples = sample_region(config, RegionSpec(RegionKind.S_TILDE3, 1.0), 2_000, seed=3, radius=50.0)
print("\nsampled", samples.count(), "basic-open-set points; strata:", samples.strata)
out = Path(tempfile.gettempdir()) / "star_boundary.csv"
cloud = export_surface_cloud(config, RegionKind.S_DOUBLE_PRIME3, grid=48, out=out, radius=2.5, band=0.2)
print("boundary cloud:", cloud.points_written, "points written to", cloud.path)
