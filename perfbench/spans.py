"""Spans around kuroda's public functions, installed from outside the program.

:func:`install` rebinds, in every loaded ``kuroda`` module, each global
name that refers to one of the :data:`TARGETS` to a wrapper that records a
span.  Calls that look the name up through a module (``membership.in_r_star``
from ``cli``, ``euclid_tower`` from ``blowup``, ``substitute`` inside
``algebra``) therefore pass through the wrapper; ``src/`` is not edited.
Only the traced run calls :func:`install`.

A span is ``[name, start, end, parent, op, value]``: ``parent`` is the index
of the enclosing span (``None`` at the top of an op), ``op`` the op index and
``value`` an exact count taken at the same boundary (terms out, triples,
trace steps, non-finite values, rows, bytes, a verdict or an exit code).
"""

from __future__ import annotations

import sys
import time

import numpy as np

import stats

# (module, attribute, span name, value taken from the result)
TARGETS = (
    ("kuroda.cli", "main", "cli.main", lambda r: r),
    ("kuroda.config", "validate", "config.validate", None),
    ("kuroda.config", "euclid_tower", "config.tower", None),
    ("kuroda.config", "column_minima", "config.column_minima", None),
    ("kuroda.exprparse", "parse_polynomial", "exprparse.parse", None),
    ("kuroda.exprparse", "polynomial_to_text", "exprparse.print", None),
    ("kuroda.algebra", "expand_pi_to_y", "algebra.expand", lambda r: r.term_count()),
    ("kuroda.algebra", "reexpress_for_axis", "algebra.reexpress", None),
    ("kuroda.algebra", "substitute", "algebra.substitute", None),
    ("kuroda.algebra", "axis_support", "algebra.axis_support", len),
    ("kuroda.algebra", "expand_y_to_x", "algebra.expand_y_to_x", None),
    ("kuroda.membership", "in_r_star", "membership.in_r_star", bool),
    ("kuroda.membership", "star_violations", "membership.star_violations", None),
    ("kuroda.membership", "in_r_oracle", "membership.in_r_oracle", bool),
    ("kuroda.membership", "oracle_violations", "membership.oracle_violations", None),
    ("kuroda.membership", "monoid_member", "membership.monoid_member", None),
    ("kuroda.membership", "monoid_member_oracle", "membership.monoid_member_oracle", None),
    ("kuroda.membership", "enumerate_t_generators", "membership.enumerate", None),
    ("kuroda.blowup", "cond", "blowup.cond", None),
    ("kuroda.blowup", "pullback_trace", "blowup.trace", lambda r: len(r.triples)),
    ("kuroda.blowup", "pole_profile", "blowup.pole_profile", None),
    ("kuroda.blowup", "polynomial_pole_set", "blowup.pole_set", None),
    ("kuroda.blowup", "block_formula_check", "blowup.block_formula", None),
    ("kuroda.blowup", "boundary_census", "blowup.census", None),
    ("kuroda.blowup", "region_inequality_pullback", "blowup.pullback", None),
    ("kuroda.regions", "boundedness_probe", "regions.probe", None),
    ("kuroda.regions", "sample_region", "regions.sample_region", None),
    ("kuroda.regions", "evaluate_abs", "regions.eval",
     lambda r: int(np.count_nonzero(~np.isfinite(r)))),
    ("kuroda.regions", "escape_point", "regions.escape", None),
    ("kuroda.regions", "s_prime_margins", "regions.margins", None),
    ("kuroda.regions", "s_double_prime_margins", "regions.margins", None),
    ("kuroda.regions", "s_tilde_margins", "regions.margins", None),
    ("kuroda.regions", "sandwich_check", "regions.sandwich", None),
    ("kuroda.regions", "in_s", "regions.in_s", lambda r: r.value),
    ("kuroda.regions", "export_surface_cloud", "regions.cloud", lambda r: r.points_written),
    ("kuroda.reports", "emit_report", "reports.emit", lambda r: len(r.encode())),
)

STRATA = ("box", "core", "ray")


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name, fn, value=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[5] = value(result)
            return result

        traced.__wrapped__ = fn
        return traced


def _rebind(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "kuroda" or modname.startswith("kuroda."):
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Rebind every target name in the loaded kuroda modules to a traced wrapper."""
    import kuroda.cli
    import kuroda.regions

    for modname, attr, name, value in TARGETS:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.wrap(name, original, value))

    # build_parser + parse_args: argparse work of one CLI call.
    build = kuroda.cli.build_parser

    def build_parser():
        parser = build()
        parser.parse_args = tracer.wrap("cli.parser", parser.parse_args)
        return parser

    kuroda.cli.build_parser = tracer.wrap("cli.parser", build_parser)

    # Sampler strata counts live on the sampler object; record their change
    # across each candidate batch as the span value.
    sampler = kuroda.regions._StarSampler
    batch = sampler.batch

    traced_batch = tracer.wrap("regions.sample_batch", batch)

    def batch_with_counts(self, size):
        before = [self.stats[s][k] for s in STRATA for k in ("candidates", "accepted")]
        idx = len(tracer.spans)
        out = traced_batch(self, size)
        after = [self.stats[s][k] for s in STRATA for k in ("candidates", "accepted")]
        tracer.spans[idx][5] = [a - b for a, b in zip(after, before)]
        return out

    sampler.batch = batch_with_counts


# -- per-layer metrics ----------------------------------------------------


def layer_metrics(spans: list, ops: int, warnings_total: int) -> dict[str, float]:
    """Per-layer metrics of a traced run (see README.md for each definition)."""
    # Names of each span's ancestors; a parent always precedes its children.
    ancestors: list[frozenset] = []
    for s in spans:
        p = s[3]
        ancestors.append(frozenset() if p is None else ancestors[p] | {spans[p][0]})

    def outer(*names):
        """Time in spans of ``names`` not nested in another span of ``names``."""
        return sum(
            s[2] - s[1] for s, a in zip(spans, ancestors) if s[0] in names and a.isdisjoint(names)
        )

    def matching(name, under=None):
        return [
            s for s, a in zip(spans, ancestors) if s[0] == name and (under is None or under in a)
        ]

    def count(name, under=None):
        return len(matching(name, under))

    def values(name, under=None):
        return sum(s[5] or 0 for s in matching(name, under))

    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    layer_self: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        layer = s[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t

    op_time = outer("cli.main")
    n = max(ops, 1)

    def share(t):
        return t / op_time if op_time else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    # Route agreement per op: the outermost verdict of each route.
    verdicts: dict[int, dict[str, bool]] = {}
    for s, a in zip(spans, ancestors):
        if s[0] in ("membership.in_r_star", "membership.in_r_oracle") and s[0] not in a:
            verdicts.setdefault(s[4], {})[s[0]] = s[5]
    both = [v for v in verdicts.values() if len(v) == 2]
    agree = sum(1 for v in both if v["membership.in_r_star"] == v["membership.in_r_oracle"])

    strata = [0] * 6
    for s in spans:
        if s[0] == "regions.sample_batch" and s[5]:
            strata = [a + b for a, b in zip(strata, s[5])]
    in_s = [s[5] for s in spans if s[0] == "regions.in_s"]

    return {
        "config.validate_us": outer("config.validate") * 1e6 / n,
        "config.tower_us": outer("config.tower") * 1e6 / n,
        "config.tower_builds": count("config.tower") / n,
        "config.column_minima_calls": count("config.column_minima") / n,
        "exprparse.parse_us": outer("exprparse.parse") * 1e6 / n,
        "exprparse.parse_share": share(outer("exprparse.parse")),
        "algebra.expand_calls": count("algebra.expand") / n,
        "algebra.expand_ms": outer("algebra.expand") * 1e3 / n,
        "algebra.expand_terms_out": values("algebra.expand") / n,
        "algebra.reexpress_calls": count("algebra.reexpress") / n,
        "algebra.reexpress_ms": outer("algebra.reexpress") * 1e3 / n,
        "algebra.self_share": share(layer_self.get("algebra", 0.0)),
        "membership.star_ms": outer("membership.in_r_star", "membership.star_violations") * 1e3 / n,
        "membership.oracle_ms": outer("membership.in_r_oracle", "membership.oracle_violations")
        * 1e3 / n,
        "membership.self_share": share(layer_self.get("membership", 0.0)),
        "membership.monomials_checked": count("membership.monoid_member_oracle") / n,
        "membership.triples_checked": values("algebra.axis_support", "membership.star_violations")
        / n,
        "membership.route_checks": len(both),
        "membership.route_agree_ratio": ratio(agree, len(both)),
        "membership.enumerate_ms": outer("membership.enumerate") * 1e3 / n,
        "membership.enumerate_candidates": count(
            "membership.monoid_member", "membership.enumerate"
        ) / n,
        "blowup.cond_calls": count("blowup.cond") / n,
        "blowup.cond_us": outer("blowup.cond") * 1e6 / n,
        "blowup.trace_calls": count("blowup.trace") / n,
        "blowup.trace_steps": values("blowup.trace") / n,
        "blowup.census_us": outer("blowup.census") * 1e6 / n,
        "blowup.pullback_us": outer("blowup.pullback") * 1e6 / n,
        "regions.sample_ms": outer("regions.sample_batch") * 1e3 / n,
        "regions.box_candidates": strata[0] / n,
        "regions.accept_ratio_box": ratio(strata[1], strata[0]),
        "regions.core_candidates": strata[2] / n,
        "regions.accept_ratio_core": ratio(strata[3], strata[2]),
        "regions.ray_candidates": strata[4] / n,
        "regions.accept_ratio_ray": ratio(strata[5], strata[4]),
        "regions.eval_ms": outer("regions.eval") * 1e3 / n,
        "regions.eval_nonfinite": values("regions.eval") / n,
        "regions.escape_ms": outer("regions.escape") * 1e3 / n,
        "regions.escape_points": count("regions.escape") / n,
        "regions.cloud_ms": outer("regions.cloud") * 1e3 / n,
        "regions.cloud_rows": values("regions.cloud") / n,
        "regions.float_warnings": warnings_total / n,
        "regions.in_s_calls": len(in_s) / n,
        "regions.in_s_us": outer("regions.in_s") * 1e6 / n,
        "regions.in_s_share": share(outer("regions.in_s")),
        "regions.in_s_uncertain_ratio": ratio(in_s.count("UNCERTAIN"), len(in_s)),
        "regions.in_s_out_ratio": ratio(in_s.count("OUT"), len(in_s)),
        "cli.main_us": op_time * 1e6 / n,
        "cli.parser_us": outer("cli.parser") * 1e6 / n,
        "cli.self_share": share(layer_self.get("cli", 0.0)),
        "cli.exit_nonzero": sum(
            1 for s in spans if s[0] == "cli.main" and s[3] is None and s[5] != 0
        ),
        "reports.emit_us": outer("reports.emit") * 1e6 / n,
        "reports.bytes_out": values("reports.emit") / n,
        "trace.ops": ops,
        "trace.spans_per_op": len(spans) / n,
    }
