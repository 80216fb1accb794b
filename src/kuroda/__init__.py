"""kuroda: exact toolkit for weight configurations whose intersection ring
of ambient and difference polynomials is not finitely generated.

Capabilities
------------
config      exact validity condition, derived column minima, continued-
            fraction towers per axis
algebra     sparse multivariate polynomials over exact rationals and the
            change-of-variable maps between the variable systems
cone        the exponent cone's facets, rays and lattice points by degree
membership  exponent-monoid and ring membership by two independent routes,
            minimal-generator enumeration, ring-generator census by degree
blowup      chart-exponent traces through the blowup tower, pole profiles,
            divisor census, the three equivalent per-axis conditions
regions     numeric star-region predicates, stratified samplers, escape
            sequence, boundedness probes, sandwich check, boundary clouds
exprparse   expression parsing and canonical printing (P1..P3 / Y1..Y4)
cli         ``kuroda`` command with one subcommand per capability
"""

from .algebra import SparsePolynomial, System, expand_y_to_x
from .blowup import (
    block_formula_check,
    boundary_census,
    cond,
    pole_profile,
    pullback_trace,
    region_inequality_pullback,
)
from .config import (
    ConfigError,
    KurodaConfig,
    RegionKind,
    SamplingError,
    concrete_example,
    derive_constants,
    euclid_tower,
    validate,
)
from .exprparse import ExpressionError, parse_polynomial, polynomial_to_text
from .membership import (
    enumerate_t_generators,
    in_r_oracle,
    in_r_star,
    monoid_member,
    monoid_member_oracle,
    ring_generator_census,
    star_violations,
)

# The float layer needs numpy, which the exact subcommands never use, so its
# names are loaded from kuroda.regions on first access (PEP 562).
_REGIONS_NAMES = frozenset(
    {
        "RegionSpec",
        "boundedness_probe",
        "escape_point",
        "escape_threshold",
        "export_surface_cloud",
        "in_s",
        "in_s_prime",
        "in_s_tilde",
        "sample_region",
        "sandwich_check",
    }
)

# The names the demos use, the three input errors, and the ring census.
# Everything else is imported from its submodule.
__all__ = [
    "ConfigError",
    "ExpressionError",
    "KurodaConfig",
    "RegionKind",
    "SamplingError",
    "SparsePolynomial",
    "System",
    "block_formula_check",
    "boundary_census",
    "concrete_example",
    "cond",
    "derive_constants",
    "enumerate_t_generators",
    "euclid_tower",
    "expand_y_to_x",
    "in_r_oracle",
    "in_r_star",
    "monoid_member",
    "monoid_member_oracle",
    "parse_polynomial",
    "pole_profile",
    "polynomial_to_text",
    "pullback_trace",
    "region_inequality_pullback",
    "ring_generator_census",
    "star_violations",
    "validate",
    *sorted(_REGIONS_NAMES),
]


def __getattr__(name):
    if name in _REGIONS_NAMES:
        from . import regions

        return getattr(regions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
