"""Output checks for one op, run after its timed interval.

Each check reads only verdict fields of the JSON report (never whole report
bytes), so a later change that drops a dead report field is not counted as
a failure.  A failed check returns a cause label; ``None`` means verified.

Two labels mark known defects of the program, kept visible on purpose:

* ``defect_a_probe_overflow``: ``probe`` with escape indices raises
  ``OverflowError`` on a config with weights in the hundreds;
* ``defect_b_sandwich_in_s_out``: ``sandwich`` exits 1 because ``in_s``
  answered OUT for basic-open-set points (the inclusion's second direction).
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

from kuroda.algebra import expand_y_to_x
from kuroda.config import KurodaConfig

KNOWN_DEFECTS = ("defect_a_probe_overflow", "defect_b_sandwich_in_s_out")


def _cf_value(quotients) -> Fraction:
    acc = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        acc = q + 1 / acc
    return acc


def _member(op, data):
    if data["routes_agree"] is not True:
        return "routes_disagree"
    expected = op["expect"].get("in_r")
    if expected is not None and data["in_r_star"] is not expected:
        return "stored_verdict_mismatch" if op["slot"] == "stored" else "verdict_mismatch"
    return None


def _validate(op, data):
    if data["valid"] is not True or not Fraction(data["condition_value"]) < 1:
        return "valid_config_rejected"
    return None


def _tower(op, data):
    for ax in data["axes"]:
        if _cf_value(ax["q"]) != Fraction(data["q_ratio"][ax["axis"] - 1]):
            return "tower_quotients_wrong"
        indices = [n for block in ax["blocks"] for n in block]
        if indices != list(range(ax["n_total"] + 1)):
            return "tower_blocks_wrong"
    return None


def _generators(op, data, config):
    cfg = KurodaConfig.from_dict(config)
    if any(min(expand_y_to_x(g, cfg)) < 0 for g in data["generators"]):
        return "generator_outside_monoid"
    return None


def _cond(op, data):
    return None if data["agree"] is True else "cond_disagree"


def _pullback(op, data):
    if "z2_covered" in data:
        return None if data["z2_covered"] is True else "z2_not_covered"
    return None if data["block_formula_ok"] is True else "block_formula_false"


def _probe(op, data):
    return "probe_bound_exceeded" if data["bound_ok"] is False else None


def _cloud(op, data, cloud_path):
    band = float(data["band"])
    with open(cloud_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != data["points_written"]:
        return "cloud_row_count"
    if any(not abs(float(r["margin"])) < band for r in rows):
        return "cloud_row_outside_band"
    return None


def _sandwich(op, data):
    if data["total_violations"] == 0:
        return None
    if data["half_s_violations"] == 0:
        return "defect_b_sandwich_in_s_out"
    return "sandwich_half_s_violation"


def check(op: dict, config: dict, outcome, out_path, cloud_path) -> str | None:
    """Cause label of a failed op, or ``None`` when its output checks out.

    ``outcome`` is the exit code of ``kuroda.cli.main`` or the exception it
    raised.
    """
    if isinstance(outcome, BaseException):
        if (
            isinstance(outcome, OverflowError)
            and op["kind"] == "probe"
            and int(op["args"][op["args"].index("--kmax") + 1]) >= 16
        ):
            return KNOWN_DEFECTS[0]
        return f"raised_{type(outcome).__name__}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return f"exit_{outcome}_no_report"
    kind = op["kind"]
    if kind == "sandwich":
        label = _sandwich(op, data)
    elif kind == "generators":
        label = _generators(op, data, config)
    elif kind == "cloud":
        label = _cloud(op, data, cloud_path)
    else:
        label = {
            "member": _member,
            "validate": _validate,
            "tower": _tower,
            "cond": _cond,
            "pullback": _pullback,
            "probe": _probe,
        }[kind](op, data)
    if label is None and outcome != 0:
        label = f"exit_{outcome}"
    return label
