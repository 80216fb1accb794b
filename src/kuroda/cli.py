"""Command-line surface: one subcommand per capability.

Exit codes: 0 when the query ran (verdicts, true or false, live in the
report); 1 when a checked property that must always hold was violated
(route disagreement, uncovered divisor union, sampled counterexample) --
that signals an implementation bug, not bad input; 2 for bad input.

The exact subcommands never import numpy: :mod:`kuroda.regions` is imported
only by the float subcommands (``probe``, ``sandwich``, ``cloud``), which
exit 2 with an error naming numpy where it cannot be imported.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import blowup, membership
from .algebra import System
from .config import (
    SANDWICH_MIN_RADIUS,
    ConfigError,
    KurodaConfig,
    RegionKind,
    SamplingError,
    euclid_tower,
    load_json,
    validate,
)
from .exprparse import MAX_DEGREE, ExpressionError, parse_polynomial, polynomial_to_text
from .reports import NO_CSV_ROWS, emit_report, jsonable

# Largest accepted ``probe --kmax``: the escape series is one row of log2
# values per index (its four coordinates, then log2|f| there), so time and
# memory grow with the index range; no weight makes the series overflow.
MAX_KMAX = 10**6
# Largest accepted ``probe --samples`` and ``sandwich --samples``: each
# sample is a row of the float arrays, so memory grows with the count.
MAX_SAMPLES = 10**6
# Largest accepted ``cloud --grid``: the grid has grid**3 points.
MAX_GRID = 512


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text and require ``ok`` of the value (else exit 2)."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_nonnegative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_sandwich_radius = _checked(
    float,
    lambda v: math.isfinite(v) and v > SANDWICH_MIN_RADIUS,
    f"a finite number > {SANDWICH_MIN_RADIUS:g}",
)
_scale = _checked(lambda t: float(Fraction(t)), lambda v: v > 0, "a finite positive rational")
_samples = _checked(int, lambda v: 0 <= v <= MAX_SAMPLES, f"an integer in 0..{MAX_SAMPLES}")
_grid = _checked(int, lambda v: 1 <= v <= MAX_GRID, f"an integer in 1..{MAX_GRID}")
_degree_bound = _checked(int, lambda v: 0 <= v <= MAX_DEGREE, f"an integer in 0..{MAX_DEGREE}")
_kmax = _checked(int, lambda v: 0 <= v <= MAX_KMAX, f"an integer in 0..{MAX_KMAX}")


def _add_common(parser: argparse.ArgumentParser, formats=("json", "text", "csv")):
    parser.add_argument("--config", required=True, help="path to a config JSON file")
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuroda",
        description="Exact checks and numeric probes for weight configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="sign pattern, exact condition value, derived minima")
    _add_common(p, formats=("json", "text"))

    p = sub.add_parser("tower", help="continued-fraction towers and the divisor census")
    _add_common(p)

    p = sub.add_parser("generators", help="minimal monoid generators up to a degree bound")
    _add_common(p)
    p.add_argument("--degree-bound", type=_degree_bound, required=True)

    p = sub.add_parser("member", help="ring membership by both routes, with agreement check")
    _add_common(p)
    p.add_argument("--expr", required=True)

    p = sub.add_parser("cond", help="the three equivalent per-axis conditions")
    _add_common(p)
    p.add_argument("--expr", default=None)
    p.add_argument("--r1", type=int, default=None)
    p.add_argument("--r2", type=int, default=None)
    p.add_argument("--r3", type=int, default=None)
    p.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--which", choices=("1", "2", "3", "all"), default="all")

    p = sub.add_parser("pullback", help="chart traces, pole profile, arm-inequality poles")
    _add_common(p)
    p.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--r1", type=int, default=None)
    p.add_argument("--r2", type=int, default=None)
    p.add_argument("--r3", type=int, default=None)

    p = sub.add_parser("probe", help="sampled boundedness / escape divergence evidence")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--region", choices=[k.value for k in RegionKind], default=None)
    p.add_argument("--lambda", dest="lam", type=_scale, default="1", help="scale, a rational like 1/2")
    p.add_argument("--samples", type=_samples, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--radius", type=_positive, default=50.0)
    p.add_argument("--kmax", type=_kmax, default=10000, help="escape index cap (0 disables)")

    p = sub.add_parser("sandwich", help="far-zone inclusion check around the basic open set")
    _add_common(p)
    p.add_argument("--samples", type=_samples, default=10000, help="points per direction")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--radius", type=_sandwich_radius, default=50.0)
    p.add_argument("--tolerance", type=_nonnegative, default=1e-6)

    p = sub.add_parser("cloud", help="near-boundary grid cloud as CSV")
    _add_common(p, formats=("json", "text"))
    p.add_argument(
        "--which",
        choices=(RegionKind.S_DOUBLE_PRIME3.value, RegionKind.S_TILDE3.value),
        required=True,
    )
    p.add_argument("--grid", type=_grid, default=64)
    p.add_argument("--radius", type=_positive, default=5.0)
    p.add_argument("--band", type=_positive, default=0.25, help="band on the log margin")
    p.add_argument("--cloud-out", required=True, help="CSV file for the point cloud")

    return parser


def _triple_rows(trace, profile, tower):
    ax = tower.axis(trace.axis)
    return [
        {"n": n, "k": ax.block_of(n), "r1": t.r1, "r3": t.r3, "pole": profile.pole_at[n]}
        for n, t in enumerate(trace.triples)
    ]


def _cmd_validate(args):
    # validate consumes the raw document: a broken sign pattern must come
    # back as a verdict, not as a loading error
    report = validate(load_json(args.config))
    data = {
        "config": report.config.to_dict() if report.config else None,
        "sign_ok": report.sign_ok,
        "sign_issues": list(report.sign_issues),
        "condition_value": report.condition_value,
        "condition_holds": report.condition_holds,
        "valid": report.valid,
        "d": list(report.d) if report.d else None,
        "pair_checks": [
            {
                "i": c.i,
                "j": c.j,
                "diagonal_product": c.diagonal_product,
                "cross_product": c.cross_product,
                "ok": c.ok,
            }
            for c in report.pair_checks
        ],
        "pairs_ok": report.pairs_ok,
    }
    return data, None, 0


def _cmd_tower(args):
    config = KurodaConfig.from_json_file(args.config)
    tower = euclid_tower(config)
    census = blowup.boundary_census(tower)
    axes = []
    for ax in tower.axes:
        axes.append(
            {
                "axis": ax.axis,
                "q": list(ax.q),
                "m_count": ax.m_count,
                "n_total": ax.n_total,
                "blocks": [list(b) for b in ax.blocks],
                "j1": sorted(ax.j1),
                "j2": sorted(ax.j2),
                "nu": list(ax.nu),
            }
        )
    rows = [
        {
            "axis": 0 if r.axis is None else r.axis,
            "n": "" if r.n is None else r.n,
            "in_z1": r.in_z1,
            "in_z2": r.in_z2,
            "label": r.label,
        }
        for r in census.rows
    ]
    data = {
        "d": list(tower.constants.d),
        "q_ratio": list(tower.constants.q_ratio),
        "axes": axes,
        "census": rows,
        "z1_equals_z2": census.z1_equals_z2,
    }
    return data, rows, 0


def _cmd_generators(args):
    config = KurodaConfig.from_json_file(args.config)
    listing = membership.enumerate_t_generators(config, args.degree_bound)
    rows = [
        {"n1": g[0], "n2": g[1], "n3": g[2], "n4": g[3], "degree": sum(g)}
        for g in listing.generators
    ]
    data = {
        "degree_bound": listing.degree_bound,
        "count": listing.count(),
        "counts_by_degree": {str(k): v for k, v in listing.counts_by_degree().items()},
        "growing_at_bound": listing.growing_at_bound,
        "generators": [list(g) for g in listing.generators],
    }
    return data, rows, 0


def _cmd_member(args):
    config = KurodaConfig.from_json_file(args.config)
    f = parse_polynomial(args.expr, System.PI3)
    star = membership.in_r_star(f, config)
    oracle = membership.in_r_oracle(f, config)
    # The verdicts stop at the first violation, so a member's routes scan all of
    # their support and a non-member's only up to its first violation.  Only a
    # non-member's route then runs again to list the violations, and that
    # listing pass reuses the images its verdict pass cached (expand_pi_to_y,
    # reexpress_for_axis); the star listing maps any axis the verdict did not
    # reach.  Reading the verdict off the listing would call each route once,
    # but the benchmark's route-agreement metric reads the in_r_star/in_r_oracle
    # spans (perfbench test_short_traced_run_gives_every_layer_metric); that
    # waits for the ROADMAP item on tracing inside src/ (kuroda.trace).
    violations = () if star else membership.star_violations(f, config)
    outside = () if oracle else membership.oracle_violations(f, config)
    rows = [
        {"axis": v.axis, "r1": v.triple[0], "r2": v.triple[1], "r3": v.triple[2],
         "lhs": v.lhs, "rhs": v.rhs}
        for v in violations
    ]
    data = {
        "expr": args.expr,
        "polynomial": polynomial_to_text(f),
        "in_r_star": star,
        "in_r_oracle": oracle,
        "routes_agree": star == oracle,
        "star_violations": rows,
        "oracle_violations": [list(n) for n in outside],
    }
    return data, rows, 0 if star == oracle else 1


def _cmd_cond(args):
    tower = euclid_tower(KurodaConfig.from_json_file(args.config))
    triple_given = [v is not None for v in (args.r1, args.r2, args.r3)]
    if args.expr is not None and any(triple_given):
        raise ConfigError("give either --expr or the triple --r1 --r2 --r3, not both")
    if args.expr is not None:
        subject = parse_polynomial(args.expr, System.PI3)
        subject_desc = polynomial_to_text(subject)
        rows = poles = None
    elif all(triple_given):
        subject = (args.r1, args.r2, args.r3)
        subject_desc = list(subject)
        trace = blowup.pullback_trace(subject, tower, args.axis)
        profile = blowup.pole_profile(trace, tower)
        rows = _triple_rows(trace, profile, tower)
        poles = frozenset(profile.pole_set())
    else:
        raise ConfigError("cond needs --expr or all of --r1 --r2 --r3")
    which_list = ("1", "2", "3") if args.which == "all" else (args.which,)
    if poles is None and which_list != ("1",):
        poles = blowup.polynomial_pole_set(subject, tower, args.axis)
    # conditions 2 and 3 compare the one pole set with j1 and with j2
    ax = tower.axis(args.axis)
    unions = {"2": ax.j1, "3": ax.j2}
    verdicts = {
        w: blowup.cond(subject, args.axis, 1, tower) if w == "1" else poles <= unions[w]
        for w in which_list
    }
    agree = len(set(verdicts.values())) == 1
    data = {
        "axis": args.axis,
        "subject": subject_desc,
        "verdicts": verdicts,
        "agree": agree,
    }
    if rows is not None:
        data["trace"] = rows
    code = 0 if (len(which_list) == 1 or agree) else 1
    return data, rows, code


def _cmd_pullback(args):
    tower = euclid_tower(KurodaConfig.from_json_file(args.config))
    triple_given = [v is not None for v in (args.r1, args.r2, args.r3)]
    if any(triple_given) and not all(triple_given):
        raise ConfigError("give all of --r1 --r2 --r3 or none")
    if all(triple_given):
        trace = blowup.pullback_trace((args.r1, args.r2, args.r3), tower, args.axis)
        profile = blowup.pole_profile(trace, tower)
        rows = _triple_rows(trace, profile, tower)
        data = {
            "axis": args.axis,
            "triple": [args.r1, args.r2, args.r3],
            "block_formula_ok": blowup.block_formula_check(trace, tower),
            "trace": rows,
            "pole_set": list(profile.pole_set()),
        }
        return data, rows, 0
    report = blowup.region_inequality_pullback(args.axis, tower)
    rows = []
    for term, trace, profile in zip(report.terms, report.traces, report.profiles):
        for row in _triple_rows(trace, profile, tower):
            rows.append({"term_r1": term.r1, "term_r3": term.r3, **row})
    data = {
        "axis": report.axis,
        "terms": [list(t) for t in report.terms],
        "pole_set": list(report.pole_set),
        "j2": list(report.j2),
        "z2_covered": report.z2_covered,
        "pole_set_equals_j2": report.pole_set_equals_j2,
    }
    return data, rows, 0 if report.z2_covered else 1


def _cmd_probe(args):
    from . import regions

    config = KurodaConfig.from_json_file(args.config)
    f = parse_polynomial(args.expr)
    if args.region is not None:
        kind = RegionKind(args.region)
    else:
        kind = RegionKind.S_PRIME4 if f.system.arity == 4 else RegionKind.S3
    spec = regions.RegionSpec(kind, args.lam)
    if args.format == "csv" and args.kmax < regions.ESCAPE_FIRST:
        # no escape series, so no CSV rows: refuse after the checks that
        # need no sampling, before any sample is drawn
        regions.probe_bound(config, f, spec, args.samples, args.radius)
        raise ValueError(NO_CSV_ROWS)
    report = regions.boundedness_probe(
        config, f, spec, args.samples, args.seed, radius=args.radius, escape_kmax=args.kmax
    )
    # the escape series goes to the CSV rows, as two columns, not to the
    # report body
    body = dict(vars(report))
    values = body.pop("escape_values")
    data = {"expr": args.expr, **jsonable(body)}
    rows = None
    if values is not None:
        first, last = report.escape_k_range
        rows = {"k": range(first, last + 1), "abs_value": values}
    code = 0 if report.bound_ok in (None, True) else 1
    return data, rows, code


def _cmd_sandwich(args):
    from . import regions

    config = KurodaConfig.from_json_file(args.config)
    report = regions.sandwich_check(
        config, args.samples, args.seed, radius=args.radius, tolerance=args.tolerance
    )
    rows = [
        {"direction": d, "x": p[0], "y": p[1], "z": p[2]}
        for d, p in report.violation_examples
    ]
    data = jsonable(report)
    data["uncertain_fraction"] = report.uncertain_fraction
    data["total_violations"] = report.total_violations
    return data, rows, 0 if report.total_violations == 0 else 1


def _cmd_cloud(args):
    from . import regions

    config = KurodaConfig.from_json_file(args.config)
    report = regions.export_surface_cloud(
        config,
        RegionKind(args.which),
        args.grid,
        args.cloud_out,
        radius=args.radius,
        band=args.band,
    )
    return jsonable(report), None, 0


_HANDLERS = {
    "validate": _cmd_validate,
    "tower": _cmd_tower,
    "generators": _cmd_generators,
    "member": _cmd_member,
    "cond": _cmd_cond,
    "pullback": _cmd_pullback,
    "probe": _cmd_probe,
    "sandwich": _cmd_sandwich,
    "cloud": _cmd_cloud,
}


# The parser of this process, built by the first :func:`main` call.  Each
# ``parse_args`` call fills a fresh namespace, so calls share no state.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if getattr(args, "expr", None) == []:
        # argparse on some Python versions drops the value of "--expr=--",
        # leaving []: the text given was "--"
        args.expr = "--"
    try:
        data, rows, code = _HANDLERS[args.command](args)
        emit_report(data, args.format, args.out, csv_rows=rows)
    except (ConfigError, ExpressionError, SamplingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        # numpy is imported only by the float subcommands, with kuroda.regions
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which could not be imported", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
