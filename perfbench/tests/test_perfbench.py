"""Tests of the benchmark itself: inputs, checks, arithmetic and a short end-to-end run.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import yardstick  # noqa: E402
from kuroda.config import KurodaConfig, condition_value  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    first = inputs.generate(workload, 7, 3)
    assert first == inputs.generate(workload, 7, 3)
    assert first != inputs.generate(workload, 8, 3)
    assert len(first["ops"]) == 4 * first["round_len"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_drawn_configs_are_valid(workload):
    doc = inputs.generate(workload, 3, 4)
    for op in doc["ops"]:
        assert condition_value(KurodaConfig.from_dict(doc["configs"][op["config"]])) < 1


def test_tower_queries_configs_are_fresh_and_sized():
    doc = inputs.generate("tower_queries", 5, 6)
    configs = [json.dumps(c, sort_keys=True) for c in doc["configs"]]
    assert len(set(configs)) == len(configs)
    for c in doc["configs"]:
        assert 15 <= inputs.tower_length(KurodaConfig.from_dict(c)) <= 90


@pytest.mark.parametrize("workload", ["member_exact", "tower_queries"])
def test_certified_member_verdicts_hold(workload):
    from kuroda.algebra import System
    from kuroda.exprparse import parse_polynomial
    from kuroda.membership import in_r_oracle

    doc = inputs.generate(workload, 4, 2)
    for op in doc["ops"]:
        if op["kind"] != "member" or op["slot"] == "stored":
            continue
        f = parse_polynomial(op["args"][1], System.PI3)
        config = KurodaConfig.from_dict(doc["configs"][op["config"]])
        assert in_r_oracle(f, config) is op["expect"]["in_r"]


def test_stored_verdicts_match_sympy():
    pytest.importorskip("sympy")
    import verdicts

    stored = inputs.load_stored_verdicts()
    assert sum(e["in_r"] for e in stored) == len(stored) // 2
    for entry in stored:
        assert verdicts.sympy_in_r(entry["expr"], entry["config"]) is entry["in_r"], entry


def test_yardstick_factors_follow_local_speed():
    exact = yardstick.NOMINAL_MS["exact"] / 1e3
    array = yardstick.NOMINAL_MS["array"] / 1e3
    n = yardstick.NEAREST
    # exact chunks twice as slow as nominal at first, then at nominal speed
    chunks = {
        "exact": [[t, 2 * exact] for t in range(n)] + [[n + t, exact] for t in range(n)],
        "array": [[t, array / 2] for t in range(2 * n)],
    }
    early, late = yardstick.factors([0.0, 2 * n - 1.0], chunks, ("exact",))
    assert early == pytest.approx(0.5**yardstick.ELASTICITY)
    assert late == pytest.approx(1.0)
    # array chunks twice as fast as nominal: the geometric mean cancels out
    assert yardstick.factors([0.0], chunks, ("exact", "array"))[0] == pytest.approx(1.0)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, n = stats.tail(values)
    assert (pct, n) == (90, 100)
    assert value == 90
    assert sum(v > value for v in values) >= stats.TAIL_BEYOND
    assert stats.tail([3.0, 1.0]) == (3.0, 100, 2)


def test_iqr_ratio():
    assert stats.iqr_ratio([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0
    )


def test_self_times_subtract_children():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    tree = [(0.0, 10.0, None), (1.0, 4.0, 0), (5.0, 9.0, 0), (6.0, 7.0, 2)]
    assert stats.self_times(tree) == [3.0, 3.0, 3.0, 1.0]


def test_layer_metrics_count_outermost_spans_once():
    s = [
        ["cli.main", 0.0, 10.0, None, 0, 0],
        ["membership.in_r_star", 1.0, 5.0, 0, 0, True],
        ["membership.star_violations", 2.0, 4.0, 1, 0, None],
        ["algebra.axis_support", 2.5, 3.5, 2, 0, 7],
        ["membership.in_r_oracle", 6.0, 9.0, 0, 0, True],
        ["algebra.expand", 6.5, 8.5, 4, 0, 40],
    ]
    m = spans.layer_metrics(s, 1, 0)
    assert m["membership.star_ms"] == pytest.approx(4000.0)
    assert m["membership.oracle_ms"] == pytest.approx(3000.0)
    assert m["membership.triples_checked"] == 7
    assert m["algebra.expand_terms_out"] == 40
    assert m["membership.route_agree_ratio"] == 1.0 and m["membership.route_checks"] == 1
    # cli self 10 - 4 - 3 = 3; membership self 2 + 1 + 1 = 4; algebra 1 + 2 = 3
    assert m["cli.self_share"] == pytest.approx(0.3)
    assert m["membership.self_share"] == pytest.approx(0.4)
    assert m["algebra.self_share"] == pytest.approx(0.3)


def test_known_defects_are_labelled(tmp_path):
    probe = {"kind": "probe", "args": ["--expr", "Y1", "--kmax", "2000"], "expect": {}}
    assert checks.check(probe, {}, OverflowError("x"), tmp_path / "o", None) == (
        "defect_a_probe_overflow"
    )
    probe_no_escape = {**probe, "args": ["--expr", "Y1", "--kmax", "0"]}
    assert checks.check(probe_no_escape, {}, OverflowError("x"), tmp_path / "o", None) == (
        "raised_OverflowError"
    )
    out = tmp_path / "o.json"
    out.write_text(json.dumps({"total_violations": 3, "half_s_violations": 0}))
    sandwich = {"kind": "sandwich", "args": [], "expect": {}}
    assert checks.check(sandwich, {}, 1, out, None) == "defect_b_sandwich_in_s_out"
    out.write_text(json.dumps({"total_violations": 0, "half_s_violations": 0}))
    assert checks.check(sandwich, {}, 0, out, None) is None


def test_tower_check_uses_own_continued_fractions():
    assert checks._cf_value([2, 3, 4]) == 2 + Fraction(1, 3 + Fraction(1, 4))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_short_run_end_to_end(workload):
    result = _run(workload, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_gives_every_layer_metric():
    result = _run("tower_queries", 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["config.tower_builds"] > 0
    assert metrics["membership.route_agree_ratio"] == 1.0
    assert 0 < metrics["trace.overhead_ratio"]
