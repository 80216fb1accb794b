"""kuroda: exact toolkit for weight configurations whose intersection ring
of ambient and difference polynomials is not finitely generated.

Capabilities
------------
config      exact validity condition, derived column minima, continued-
            fraction towers per axis
algebra     sparse multivariate polynomials over exact rationals and the
            three change-of-variable maps between the variable systems
membership  exponent-monoid and ring membership by two independent routes,
            minimal-generator enumeration, ring-generator census by degree
blowup      chart-exponent traces through the blowup tower, pole profiles,
            divisor census, the three equivalent per-axis conditions
regions     numeric star-region predicates, stratified samplers, escape
            sequence, boundedness probes, sandwich check, boundary clouds
exprparse   expression parsing and canonical printing (P1..P3 / Y1..Y4)
cli         ``kuroda`` command with one subcommand per capability
"""

from .algebra import (
    PoleAtPointError,
    SparsePolynomial,
    System,
    SystemMismatchError,
    axis_support,
    axis_to_pi,
    evaluate_numeric,
    expand_pi_to_y,
    expand_y_to_x,
    pi_variable,
    reexpress_for_axis,
    substitute,
    y_variable,
)
from .blowup import (
    Census,
    ChartTriple,
    PoleProfile,
    RegionPullbackReport,
    TowerTrace,
    TraceCollisionError,
    block_formula_check,
    block_index,
    boundary_census,
    chart_monomial,
    cond,
    pole_profile,
    polynomial_pole_set,
    prev_block_max,
    pullback_trace,
    region_inequality_pullback,
)
from .config import (
    AxisTower,
    ConfigError,
    DerivedConstants,
    EuclidTower,
    KurodaConfig,
    RegionKind,
    SamplingError,
    SignPatternError,
    ValidationReport,
    column_minima,
    concrete_example,
    condition_value,
    continued_fraction,
    derive_constants,
    euclid_tower,
    evaluate_continued_fraction,
    validate,
)
from .exprparse import (
    ExpressionError,
    parse_expression,
    parse_polynomial,
    polynomial_to_text,
    to_polynomial,
)
from .membership import (
    GeneratorList,
    RingCensus,
    RingDegree,
    RouteDisagreementError,
    StarViolation,
    enumerate_t_generators,
    in_r_oracle,
    in_r_star,
    monoid_member,
    monoid_member_oracle,
    oracle_violations,
    ring_generator_census,
    star_violations,
)
# The float layer needs numpy, which the exact subcommands never use, so its
# names are loaded from kuroda.regions on first access (PEP 562).
_REGIONS_NAMES = frozenset(
    {
        "CloudReport",
        "EscapePoint",
        "ProbeReport",
        "RegionSpec",
        "SampleSet",
        "SandwichReport",
        "Verdict",
        "boundedness_probe",
        "diagonal_projection",
        "escape_point",
        "escape_threshold",
        "export_surface_cloud",
        "in_s",
        "in_s_double_prime",
        "in_s_prime",
        "in_s_tilde",
        "sample_region",
        "sandwich_check",
    }
)


def __getattr__(name):
    if name in _REGIONS_NAMES:
        from . import regions

        return getattr(regions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
