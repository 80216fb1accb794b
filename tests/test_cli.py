import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda import KurodaConfig
from kuroda.cli import MAX_GRID, MAX_KMAX, MAX_SAMPLES, build_parser, main
from kuroda.exprparse import MAX_DEGREE

from conftest import BIG_WEIGHTS_PATH, valid_configs

SRC = Path(__file__).resolve().parents[1] / "src"
CONCRETE = str(Path(__file__).resolve().parents[1] / "configs" / "concrete.json")


@pytest.fixture
def concrete_path(tmp_path):
    path = tmp_path / "concrete.json"
    path.write_text(
        json.dumps({"delta": [[-1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], "gamma": 1})
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_validate_report(capsys, concrete_path):
    code, data = run_json(capsys, "validate", "--config", concrete_path)
    assert code == 0
    assert data["condition_value"] == "3/4"
    assert data["valid"] is True
    assert data["d"] == [3, 3, 3]
    assert all(p["ok"] for p in data["pair_checks"])


def test_validate_sign_violation_is_a_verdict(capsys, tmp_path):
    path = tmp_path / "signs.json"
    path.write_text(
        json.dumps({"delta": [[1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], "gamma": 1})
    )
    code, data = run_json(capsys, "validate", "--config", str(path))
    assert code == 0
    assert data["sign_ok"] is False and data["valid"] is False
    assert data["sign_issues"]


def test_validate_invalid_config_exits_zero(capsys, tmp_path):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"delta": [[-1, 1, 1, 0]] * 1 + [[1, -1, 1, 0], [1, 1, -1, 0]], "gamma": 1}))
    code, data = run_json(capsys, "validate", "--config", str(path))
    assert code == 0
    assert data["condition_value"] == "3/2"
    assert data["valid"] is False


def test_tower_report(capsys, concrete_path):
    code, data = run_json(capsys, "tower", "--config", concrete_path)
    assert code == 0
    assert [ax["n_total"] for ax in data["axes"]] == [3, 3, 3]
    assert data["z1_equals_z2"] is True


def test_tower_csv(capsys, concrete_path):
    code, out = run(capsys, "tower", "--config", concrete_path, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["label"] == "B"
    labels = {r["label"] for r in rows}
    assert "E(1,-1)" in labels and "E(3,3)" in labels


def test_generators_subcommand(capsys, concrete_path):
    code, data = run_json(
        capsys, "generators", "--config", concrete_path, "--degree-bound", "2"
    )
    assert code == 0
    assert data["count"] == 4
    assert [0, 0, 0, 1] in data["generators"]
    code, data = run_json(
        capsys, "generators", "--config", concrete_path, "--degree-bound", "0"
    )
    assert code == 0
    assert data["generators"] == []


def test_member_subcommand(capsys, concrete_path):
    code, data = run_json(
        capsys,
        "member",
        "--config",
        concrete_path,
        "--expr",
        "(P1-P2)*(P2-P3)*(P3-P1)",
    )
    assert code == 0
    assert data["in_r_star"] is True and data["in_r_oracle"] is True
    assert data["routes_agree"] is True

    code, data = run_json(
        capsys, "member", "--config", concrete_path, "--expr", "P1"
    )
    assert code == 0
    assert data["in_r_star"] is False and data["in_r_oracle"] is False
    assert data["star_violations"]


def test_cond_subcommand(capsys, concrete_path):
    code, data = run_json(
        capsys,
        "cond",
        "--config",
        concrete_path,
        "--r1", "1", "--r2", "0", "--r3", "0",
        "--axis", "1",
    )
    assert code == 0
    assert data["verdicts"] == {"1": False, "2": False, "3": False}
    assert data["agree"] is True

    code, data = run_json(
        capsys,
        "cond",
        "--config",
        concrete_path,
        "--expr", "(P1-P2)*(P2-P3)*(P3-P1)",
        "--axis", "2",
    )
    assert code == 0
    assert data["verdicts"] == {"1": True, "2": True, "3": True}


def test_pullback_triple_and_region(capsys, concrete_path):
    code, data = run_json(
        capsys,
        "pullback",
        "--config", concrete_path,
        "--axis", "1",
        "--r1", "1", "--r2", "0", "--r3", "1",
    )
    assert code == 0
    assert data["pole_set"] == [0]
    assert data["block_formula_ok"] is True
    assert [row["r1"] for row in data["trace"]] == [1, 0, -1, -2]

    code, data = run_json(capsys, "pullback", "--config", concrete_path, "--axis", "1")
    assert code == 0
    assert data["pole_set"] == [0, 1, 2]
    assert data["z2_covered"] is True


def test_pullback_trace_csv(capsys, concrete_path):
    code, out = run(
        capsys,
        "pullback",
        "--config", concrete_path,
        "--axis", "1",
        "--r1", "1", "--r2", "0", "--r3", "0",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["pole"] for r in rows] == ["true"] * 4
    assert set(rows[0]) == {"n", "k", "r1", "r3", "pole"}


def test_probe_subcommand(capsys, concrete_path):
    code, data = run_json(
        capsys,
        "probe",
        "--config", concrete_path,
        "--expr", "Y1*Y2",
        "--lambda", "2",
        "--samples", "4000",
        "--seed", "12",
        "--kmax", "0",
    )
    assert code == 0
    assert data["bound"] == pytest.approx(4.0)
    assert data["bound_ok"] is True


def test_probe_escape(capsys, concrete_path):
    code, data = run_json(
        capsys,
        "probe",
        "--config", concrete_path,
        "--expr", "P1",
        "--samples", "0",
        "--seed", "1",
        "--kmax", "1500",
    )
    assert code == 0
    assert data["divergence"] is True
    assert data["escape_final_value"] > 1490


def test_sandwich_subcommand(capsys, concrete_path):
    code, data = run_json(
        capsys,
        "sandwich",
        "--config", concrete_path,
        "--samples", "200",
        "--seed", "9",
    )
    assert code == 0
    assert data["total_violations"] == 0


def test_sandwich_accepts_zero_tolerance(capsys, concrete_path):
    code, data = run_json(
        capsys, "sandwich", "--config", concrete_path, "--samples", "50", "--seed", "9",
        "--tolerance", "0",
    )
    assert code == 0
    assert data["tolerance"] == 0.0 and data["tilde_checked"] == 50


def test_subcommands_deterministic_per_seed(capsys, concrete_path):
    args = ("probe", "--config", concrete_path, "--expr", "Y1*Y2*Y3",
            "--samples", "2000", "--seed", "77", "--kmax", "0")
    code1, first = run_json(capsys, *args)
    code2, second = run_json(capsys, *args)
    assert (code1, first) == (code2, second)


def test_cloud_subcommand(capsys, tmp_path, concrete_path):
    out = tmp_path / "cloud.csv"
    code, data = run_json(
        capsys,
        "cloud",
        "--config", concrete_path,
        "--which", "sdoubleprime",
        "--grid", "16",
        "--radius", "2.0",
        "--band", "0.4",
        "--cloud-out", str(out),
    )
    assert code == 0
    assert data["points_written"] > 0
    assert out.exists()


def test_big_weights_probe_and_cloud_on_the_basic_set(capsys, tmp_path):
    # diagonal 1, off-diagonal 300: the arm bounds' integer powers overflow
    from conftest import BIG_WEIGHTS_PATH

    code, data = run_json(
        capsys, "probe", "--config", str(BIG_WEIGHTS_PATH), "--expr", "(P1+2*P2-P3+1)*(P1-P2)*(P3+3)",
        "--region", "stilde", "--samples", "4000", "--seed", "5", "--kmax", "0",
    )
    assert code == 0
    assert data["sample_count"] == 4000 and data["pole_count"] == 0
    assert math.isfinite(data["max_abs_value"])
    out = tmp_path / "big_stilde.csv"
    code, data = run_json(
        capsys, "cloud", "--config", str(BIG_WEIGHTS_PATH), "--which", "stilde",
        "--grid", "48", "--cloud-out", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == data["points_written"] > 0
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())


@pytest.mark.parametrize("region", ["s", "stilde"])
def test_big_weights_probe_runs_the_default_escape_series(capsys, region):
    # k**300 passes the double range at every escape index: the series
    # raised OverflowError and the command exited 1
    code, data = run_json(
        capsys, "probe", "--config", str(BIG_WEIGHTS_PATH), "--expr", "P1*P2",
        "--region", region, "--seed", "1",
    )
    assert code == 0
    assert data["escape_k_range"] == [16, 10000]
    assert data["divergence"] is True and data["escape_monotone_from_k"] == 16
    assert math.isfinite(data["escape_final_value"])


def test_big_weights_monoid_monomial_probe_with_escape(capsys):
    code, data = run_json(
        capsys, "probe", "--config", str(BIG_WEIGHTS_PATH), "--expr", "Y2*Y3*Y4",
        "--region", "sprime", "--samples", "2000", "--seed", "3", "--kmax", "2000",
    )
    assert code == 0
    assert data["bound"] == 1.0 and data["bound_ok"] is True
    # y2*y3*y4 falls below the least double along the series
    assert data["escape_final_value"] == 0.0 and data["divergence"] is False


def _probe_expressions():
    def monomial(variables):
        return st.lists(st.tuples(variables, st.integers(1, 3)), min_size=1, max_size=3).map(
            lambda factors: "*".join(f"{v}^{e}" for v, e in factors)
        )

    def polynomial(variables):
        term = st.tuples(st.integers(-3, 3), monomial(variables))
        return st.lists(term, min_size=1, max_size=3).map(
            lambda terms: " + ".join(f"({c})*{m}" for c, m in terms)
        )

    pi, y = st.sampled_from(["P1", "P2", "P3"]), st.sampled_from(["Y1", "Y2", "Y3", "Y4"])
    return st.one_of(monomial(pi), monomial(y), polynomial(pi), polynomial(y))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.just(KurodaConfig.from_json_file(BIG_WEIGHTS_PATH)),
        valid_configs(),
        valid_configs(off=400, diag=3),
    ),
    _probe_expressions(),
    st.sampled_from([None, "s", "stilde", "sprime", "sdoubleprime"]),
    st.integers(0, 200),
    st.integers(16, 2000),
)
def test_probe_with_escape_series_exits_zero_or_two(config, expr, region, samples, kmax):
    import tempfile

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        argv = ["probe", "--config", str(path), f"--expr={expr}", "--seed", "1",
                "--samples", str(samples), "--kmax", str(kmax)]
        if region is not None:
            argv += ["--region", region]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_sandwich_at_a_huge_radius_warns_nothing(capsys):
    # the inf square of the S-tilde ray stratum is meant; every far point
    # of the basic set gets a witness shift, where the grid search gave OUT
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, data = run_json(capsys, "sandwich", "--config", CONCRETE, "--samples", "5",
                              "--seed", "1", "--radius", "1e200")
    assert code == 0
    assert data["half_s_violations"] == 0 and data["tilde_violations"] == 0


def test_sandwich_on_big_weights_passes(capsys):
    # the sampler reaches the arm ends, where two coordinates are equal and
    # the feasible shifts are a window around them: the grid search read
    # 195 of these 200 far points as OUT
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, data = run_json(capsys, "sandwich", "--config", str(BIG_WEIGHTS_PATH),
                              "--seed", "1", "--samples", "200")
    assert code == 0
    assert data["tilde_checked"] == 200 and data["total_violations"] == 0


@pytest.mark.parametrize("config_path, nan_margins", [("big_weights", 0), ("concrete", 0)])
def test_cloud_counts_nan_margins(capsys, tmp_path, config_path, nan_margins):
    # on big weights, the power form's q**600 overflowed where q_2 - q_3 = 0:
    # inf * 0 = nan at 2556 points; the log margin is never nan
    path = Path(__file__).resolve().parents[1] / "configs" / f"{config_path}.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, data = run_json(capsys, "cloud", "--config", str(path), "--which", "stilde",
                              "--grid", "48", "--cloud-out", str(tmp_path / "cloud.csv"))
    assert code == 0
    assert data["nan_margins"] == nan_margins


def test_out_flag_writes_file(capsys, tmp_path, concrete_path):
    out = tmp_path / "report.json"
    code = main(
        ["validate", "--config", concrete_path, "--format", "json", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["valid"] is True


def test_unwritable_out_exits_two(capsys, tmp_path, concrete_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "report.json"
    code = main(
        ["validate", "--config", concrete_path, "--format", "json", "--out", str(missing_dir)]
    )
    assert code == 2


def test_bad_config_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2
    path2 = tmp_path / "shape.json"
    path2.write_text(json.dumps({"delta": [[1, 2], [3, 4]], "gamma": 1}))
    assert main(["tower", "--config", str(path2)]) == 2
    # deep enough to exhaust the JSON decoder's recursion
    path3 = tmp_path / "nested.json"
    path3.write_text("[" * 100_000)
    assert main(["validate", "--config", str(path3)]) == 2
    assert main(["tower", "--config", str(path3)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_bad_expression_exits_two(capsys, concrete_path):
    assert main(["member", "--config", concrete_path, "--expr", "P1^-1"]) == 2
    assert main(["member", "--config", concrete_path, "--expr", "P1 + Y1"]) == 2
    # argparse may read the value "--" as [], which no parser takes
    for command in (["member"], ["cond", "--axis", "1"]):
        assert main([*command, "--config", concrete_path, "--expr=--"]) == 2
        assert "error: expected a value" in capsys.readouterr().err
    # nested past any interpreter stack, whatever the caller's own depth
    for expr in ("(" * 10_000 + "P1" + ")" * 10_000, "-" * 10_000 + "P1"):
        assert main(["member", "--config", concrete_path, f"--expr={expr}"]) == 2
        assert "expression nested too deeply" in capsys.readouterr().err


def test_non_ascii_expression_text_exits_two(capsys, concrete_path):
    # digits and names are ASCII: an Arabic-Indic three is not 3
    for expr, column in (("P1 + \u0663", 6), ("P1^\u00b2", 4), ("P1\u00e9", 3)):
        assert main(["member", "--config", concrete_path, f"--expr={expr}"]) == 2
        assert f"unexpected character {expr[column - 1]!r} (line 1, column {column})" in (
            capsys.readouterr().err
        )


# The grammar's alphabet, unknown names and nesting past any stack depth.
# Exponents are cut to 0..3 below, so that no example builds a large polynomial.
_EXPRESSION_PIECES = st.sampled_from(
    ["P1", "P2", "P3", "Y1", "Y2", "Y3", "Y4", "P4", "Q7", "p1", "0", "1", "2", "3", "17",
     "/", "+", "-", "*", "^", "(", ")", " ", "(" * 10_000, ")" * 10_000, "-" * 10_000,
     "^1" * 10_000]
)


def _small_exponents(text):
    return re.sub(r"\^(\s*)(\d+)", lambda m: f"^{m[1]}{int(m[2]) % 4}", text)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_EXPRESSION_PIECES, max_size=40).map("".join).map(_small_exponents),
    st.sampled_from([["member"], ["cond", "--axis", "1"]]),
)
def test_any_expression_text_exits_zero_or_two(text, command):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*command, "--config", CONCRETE, f"--expr={text}"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_deep_expressions_within_the_stack_run(capsys, concrete_path):
    # a power chain is read in a loop, so its length is not a nesting depth
    for expr in ("(" * 100 + "P1" + ")" * 100, "P1" + "^1" * 10_000):
        code, data = run_json(capsys, "member", "--config", concrete_path, f"--expr={expr}")
        assert code == 0 and data["polynomial"] == "P1"


def test_missing_file_exits_two(capsys, tmp_path):
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2


def test_csv_unavailable_for_member_without_rows(capsys, concrete_path):
    # member exposes violation rows; validate has no CSV shape at all
    code, out = run(
        capsys, "member", "--config", concrete_path, "--expr", "P1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and rows[0]["axis"] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--expr", "P1", "--seed", "1", "--lambda", "1/0"],
        ["probe", "--expr", "P1", "--seed", "1", "--lambda", "1e400"],
        ["probe", "--expr", "P1", "--seed", "1", "--lambda=-1/2"],
        ["probe", "--expr", "P1", "--seed", "1", "--lambda", "0"],
        ["probe", "--expr", "P1", "--seed", "1", "--radius", "inf"],
        ["probe", "--expr", "P1", "--seed", "1", "--radius", "nan"],
        ["sandwich", "--seed", "1", "--radius", "inf"],
        ["sandwich", "--seed", "1", "--radius", "nan"],
        ["sandwich", "--seed", "1", "--tolerance", "nan"],
        ["probe", "--expr", "P1", "--seed", "1", "--samples", "-5"],
        ["sandwich", "--seed", "1", "--samples", "-5"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--radius", "nan"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--band", "inf"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--radius", "0"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--radius=-5"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--band", "0"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--band=-1"],
        ["sandwich", "--seed", "1", "--radius", "1"],
        ["sandwich", "--seed", "1", "--radius=-3"],
        ["sandwich", "--seed", "1", "--radius", "2.5"],
        ["sandwich", "--seed", "1", "--radius", "3"],
        ["probe", "--expr", "P1", "--seed", "1", "--radius=-4"],
        ["probe", "--expr", "P1", "--seed", "1", "--radius", "0"],
        ["sandwich", "--seed", "1", "--tolerance=-1e-6"],
        ["sandwich", "--seed", "1", "--tolerance=-inf"],
        ["generators", "--degree-bound", "-1"],
        ["generators", "--degree-bound", "65"],
        ["generators", "--degree-bound", "100000"],
        ["probe", "--expr", "P1", "--seed", "1", "--kmax", "-5"],
        ["probe", "--expr", "P1", "--seed", "1", "--kmax=-1"],
        ["probe", "--expr", "P1", "--seed", "1", "--kmax", "1000001"],
        ["probe", "--expr", "P1", "--seed", "1", "--kmax", "1000000000000"],
        ["probe", "--expr", "P1", "--seed", "1", "--samples", "1000001"],
        ["probe", "--expr", "P1", "--seed", "1", "--kmax", "0", "--samples", "1000000000000"],
        ["sandwich", "--seed", "1", "--samples", "1000001"],
        ["sandwich", "--seed", "1", "--samples", "1000000000"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--grid", "0"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--grid", "513"],
        ["cloud", "--which", "stilde", "--cloud-out", "unused.csv", "--grid", "100000"],
    ],
)
def test_bad_numeric_flags_exit_two(capsys, concrete_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", concrete_path])
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["9e307", "1e308"])
@pytest.mark.parametrize(
    "argv",
    [["sandwich", "--seed", "1"], ["probe", "--expr", "P1", "--seed", "1", "--kmax", "0"]],
)
def test_radius_past_double_range_exits_two(capsys, concrete_path, argv, radius):
    # parsed as finite, then refused by the sampler rather than a traceback
    code = main([*argv, "--config", concrete_path, "--radius", radius])
    assert code == 2
    assert "radius" in capsys.readouterr().err


def _refuse_sampling(monkeypatch):
    import kuroda.regions

    def refuse(*args, **kwargs):
        raise AssertionError("sample_region was called")

    monkeypatch.setattr(kuroda.regions, "sample_region", refuse)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--expr", "Y4^2", "--region", "sprime", "--lambda", "1e200", "--kmax", "0"],
        ["--expr", "Y4^2", "--region", "sprime", "--lambda", "1e200", "--kmax", "20"],
        ["--expr", "Y4^4", "--region", "sprime", "--lambda", "1e100", "--kmax", "0"],
    ],
)
def test_probe_bound_past_double_range_exits_two(capsys, concrete_path, monkeypatch, argv, fmt):
    # scale**degree overflows: refused before sampling, not a traceback
    _refuse_sampling(monkeypatch)
    code = main(["probe", "--config", concrete_path, "--samples", "10", "--seed", "1", *argv,
                 "--format", fmt])
    assert code == 2
    assert "passes the double range" in capsys.readouterr().err


@pytest.mark.parametrize("kmax", ["0", "15"])
def test_probe_csv_without_escape_rows_is_refused_before_sampling(
    capsys, concrete_path, monkeypatch, kmax
):
    _refuse_sampling(monkeypatch)
    code = main(["probe", "--config", concrete_path, "--expr", "P1*P2", "--samples", "20000",
                 "--seed", "1", "--kmax", kmax, "--format", "csv"])
    assert code == 2
    assert capsys.readouterr().err == "error: this report has no CSV row form\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--expr", "Y1", "--region", "s"], "does not match"),
        (["--expr", "P1", "--radius", "1e308"], "radius"),
        (["--expr", "(P1", "--region", "s"], "expected"),
    ],
)
def test_probe_csv_refusal_comes_after_the_input_checks(
    capsys, concrete_path, monkeypatch, argv, message
):
    _refuse_sampling(monkeypatch)
    code = main(["probe", "--config", concrete_path, "--samples", "10", "--seed", "1",
                 "--kmax", "0", "--format", "csv", *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "CSV" not in err


@pytest.mark.parametrize("radius", ["1e80", "1e200"])
def test_sandwich_checking_too_few_points_exits_two(monkeypatch, capsys, concrete_path, radius):
    # a region test that rejects every candidate leaves both directions
    # empty: a vacuous pass would exit 0
    import kuroda.regions

    monkeypatch.setattr(
        kuroda.regions._StarSampler, "_inside", lambda self, pts: [False] * len(pts)
    )
    code = main(["sandwich", "--seed", "1", "--samples", "5", "--config", concrete_path,
                 "--radius", radius])
    assert code == 2
    err = capsys.readouterr().err
    assert "of the 5 requested" in err and f"radius {float(radius):g}" in err


@pytest.mark.parametrize("radius", ["1e80", "1e200"])
def test_sandwich_at_huge_radii_checks_every_point(capsys, concrete_path, radius):
    # the log-form region test reaches the arm ends, so no direction runs
    # short, and the shift search finds a witness for every far point
    code = main(["sandwich", "--seed", "1", "--samples", "5", "--config", concrete_path,
                 "--radius", radius, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["half_s_checked"] == report["tilde_checked"] == 5
    assert report["total_violations"] == 0
    assert code == 0


def test_size_flags_accept_their_limits(concrete_path):
    # parsed only: running at the limits takes seconds
    parser = build_parser()
    args = parser.parse_args(
        ["generators", "--config", concrete_path, "--degree-bound", str(MAX_DEGREE)]
    )
    assert args.degree_bound == MAX_DEGREE == 64
    args = parser.parse_args(
        ["probe", "--config", concrete_path, "--expr", "P1", "--seed", "1",
         "--kmax", str(MAX_KMAX)]
    )
    assert args.kmax == MAX_KMAX == 10**6
    args = parser.parse_args(
        ["probe", "--config", concrete_path, "--expr", "P1", "--seed", "1",
         "--samples", str(MAX_SAMPLES)]
    )
    assert args.samples == MAX_SAMPLES == 10**6
    args = parser.parse_args(
        ["sandwich", "--config", concrete_path, "--seed", "1", "--samples", str(MAX_SAMPLES)]
    )
    assert args.samples == MAX_SAMPLES
    for grid in (1, MAX_GRID):
        args = parser.parse_args(
            ["cloud", "--config", concrete_path, "--which", "stilde", "--cloud-out", "unused.csv",
             "--grid", str(grid)]
        )
        assert args.grid == grid
    assert MAX_GRID == 512


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--expr", "P1^99999999999"],
        ["member", "--expr", "2^99999999999"],
        ["member", "--expr", "P1^65"],
        ["member", "--expr", "P1^32*P2^33"],
        ["member", "--expr", "(P1+P2+P3+1)^8^9"],
        ["member", "--expr", "(P1^100)^0"],
        ["member", "--expr", "Y1^99999999999"],
        ["cond", "--axis", "1", "--expr", "P1^99999999999"],
    ],
)
def test_expression_above_degree_limit_exits_two(capsys, concrete_path, argv):
    assert main([*argv, "--config", concrete_path]) == 2
    assert "above the limit 64" in capsys.readouterr().err


def test_expression_at_degree_limit_runs(capsys, concrete_path):
    code, data = run_json(capsys, "member", "--config", concrete_path, "--expr", "P1^32*P2^32")
    assert code == 0 and data["routes_agree"] is True


def test_member_route_disagreement_exits_one(capsys, concrete_path, monkeypatch):
    import kuroda.membership

    # the verdict no longer reads the listing, so both are patched
    monkeypatch.setattr(kuroda.membership, "in_r_oracle", lambda f, config: False)
    monkeypatch.setattr(
        kuroda.membership, "oracle_violations", lambda f, config: ((1, 0, 0, 0),)
    )
    code, data = run_json(
        capsys, "member", "--config", concrete_path, "--expr", "(P1-P2)*(P2-P3)*(P3-P1)"
    )
    assert code == 1
    assert data["in_r_star"] is True and data["in_r_oracle"] is False
    assert data["routes_agree"] is False
    assert data["oracle_violations"] == [[1, 0, 0, 0]]


@pytest.mark.parametrize(
    "expr, member", [("(P1-P2)*(P2-P3)*(P3-P1)", True), ("P1^2*P2 + P3", False)]
)
def test_membership_routes_do_not_use_substitute(
    capsys, concrete, concrete_path, monkeypatch, expr, member
):
    import kuroda.algebra
    from kuroda import in_r_oracle, in_r_star, parse_polynomial

    def refuse(*args):
        raise AssertionError("a membership route called substitute")

    monkeypatch.setattr(kuroda.algebra, "substitute", refuse)
    f = parse_polynomial(expr)
    assert in_r_star(f, concrete) is member
    assert in_r_oracle(f, concrete) is member
    code, data = run_json(capsys, "member", "--config", concrete_path, "--expr", expr)
    assert code == 0 and data["routes_agree"] is True
    assert data["in_r_star"] is member and data["in_r_oracle"] is member


@pytest.mark.parametrize(
    "expr, member, calls_made",
    [
        ("(P1-P2)*(P2-P3)*(P3-P1)", True, {"expand_pi_to_y": 1, "reexpress_for_axis": 3}),
        # a non-member's verdicts stop at the first violation (on axis 1 for the
        # star route), and its routes run again to list the violations
        ("P1^2*P2 + P3", False, {"expand_pi_to_y": 2, "reexpress_for_axis": 4}),
    ],
    ids=["member", "non_member"],
)
def test_member_evaluates_each_route_once(
    capsys, concrete_path, monkeypatch, expr, member, calls_made
):
    import kuroda.algebra
    import kuroda.membership

    calls = {"expand_pi_to_y": 0, "reexpress_for_axis": 0}
    originals = {name: getattr(kuroda.algebra, name) for name in calls}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, original in originals.items():
        original.cache_clear()
        for module in (kuroda.algebra, kuroda.membership):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, data = run_json(capsys, "member", "--config", concrete_path, "--expr", expr)
    assert code == 0 and data["in_r_star"] is member and data["in_r_oracle"] is member
    assert calls == calls_made
    # the bodies run once per route and axis: the listing pass hits the caches
    bodies = {name: fn.cache_info().misses for name, fn in originals.items()}
    assert bodies == {"expand_pi_to_y": 1, "reexpress_for_axis": 3}


def test_probe_csv_rows_are_the_escape_series(capsys, concrete_path, concrete):
    import numpy as np

    from kuroda.exprparse import parse_polynomial
    from kuroda.regions import (
        _escape_logs, _log2_abs, _projection_logs, escape_point, evaluate_abs,
    )
    from kuroda.reports import _scalar_text

    args = ("probe", "--config", concrete_path, "--expr", "P1*P2", "--samples", "0",
            "--seed", "1", "--kmax", "200")
    code, out = run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ks = list(range(16, 201))
    assert [int(r["k"]) for r in rows] == ks
    # each row is exp2 of log2|f| on the log-form projected series, as CSV
    # text, and close to |f| at the projected escape point of its index
    f = parse_polynomial("P1*P2")
    signs, logs = _projection_logs(_escape_logs(16, 200, concrete))
    values = np.exp2(_log2_abs(f, logs, signs))
    assert [r["abs_value"] for r in rows] == [_scalar_text(v) for v in values.tolist()]
    direct = evaluate_abs(f, np.array([escape_point(k, concrete).pi for k in ks]))
    np.testing.assert_allclose(values, direct, rtol=1e-13)
    code, data = run_json(capsys, *args)
    assert code == 0
    assert "uncertain_count" not in data and "escape_values" not in data
    assert float(rows[-1]["abs_value"]) == pytest.approx(data["escape_final_value"], rel=1e-9)


@pytest.mark.parametrize("kmax, k_range", [(0, None), (15, None), (16, [16, 16]), (17, [16, 17])])
def test_probe_escape_series_starts_at_sixteen(capsys, concrete_path, kmax, k_range):
    args = ("probe", "--config", concrete_path, "--expr", "P1", "--samples", "0",
            "--seed", "1", "--kmax", str(kmax))
    code, data = run_json(capsys, *args)
    assert code == 0
    assert data["escape_k_range"] == k_range
    code, out = run(capsys, *args, "--format", "csv")
    if k_range is None:
        # no escape series, so no row form: the CSV format is refused
        assert code == 2
    else:
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["k"]) for r in rows] == list(range(16, kmax + 1))


@pytest.mark.parametrize(
    "argv, traces",
    [
        (["cond", "--axis", "1", "--r1", "6", "--r2", "0", "--r3", "2"], 1),
        (["pullback", "--axis", "1", "--r1", "6", "--r2", "0", "--r3", "2"], 1),
        (["pullback", "--axis", "2"], 2),
    ],
)
def test_tower_queries_trace_each_term_once(capsys, concrete_path, monkeypatch, argv, traces):
    import kuroda.blowup

    calls = {"pullback_trace": 0, "pole_profile": 0}
    for name in calls:
        original = getattr(kuroda.blowup, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(kuroda.blowup, name, counted)
    code, _ = run_json(capsys, *argv, "--config", concrete_path)
    assert code == 0
    assert calls == {"pullback_trace": traces, "pole_profile": traces}


def test_exact_subcommands_never_import_numpy(tmp_path, concrete_path):
    script = textwrap.dedent(
        f"""
        import sys
        from kuroda.cli import main

        config, out = {concrete_path!r}, {str(tmp_path / "out.json")!r}
        for argv in (
            ["validate"],
            ["tower"],
            ["generators", "--degree-bound", "4"],
            ["member", "--expr", "(P1-P2)*(P2-P3)*(P3-P1)"],
            ["cond", "--axis", "1", "--expr", "P1*P2"],
            ["cond", "--axis", "1", "--r1", "1", "--r2", "0", "--r3", "1"],
            ["pullback", "--axis", "2"],
        ):
            assert main([*argv, "--config", config, "--format", "json", "--out", out]) == 0
        assert "numpy" not in sys.modules, "an exact subcommand imported numpy"

        import kuroda.regions
        from kuroda import RegionKind, sample_region

        assert RegionKind is kuroda.regions.RegionKind
        assert sample_region is kuroda.regions.sample_region
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_float_subcommands_without_numpy_exit_two(tmp_path, concrete_path):
    # numpy blocked: the float subcommands report it, the exact ones still run
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        sys.modules["numpy"] = None
        from kuroda.cli import main

        config, out = {concrete_path!r}, {str(tmp_path / "out.json")!r}
        results = []
        for argv in (
            ["probe", "--expr", "P1*P2", "--seed", "1", "--samples", "20", "--kmax", "0"],
            ["sandwich", "--seed", "1", "--samples", "5"],
            ["cloud", "--which", "stilde", "--grid", "4", "--cloud-out", out + ".csv"],
            ["validate"],
            ["tower"],
            ["generators", "--degree-bound", "4"],
            ["member", "--expr", "(P1-P2)*(P2-P3)*(P3-P1)"],
            ["cond", "--axis", "1", "--expr", "P1*P2"],
            ["pullback", "--axis", "2"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--config", config, "--format", "json", "--out", out])
            results.append([argv[0], code, err.getvalue()])
        print(json.dumps(results))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    codes = {}
    for command, code, err in json.loads(done.stdout):
        codes[command] = code
        if code:
            assert err == f"error: {command} needs numpy, which could not be imported\n"
    assert codes == {
        "probe": 2, "sandwich": 2, "cloud": 2, "validate": 0, "tower": 0,
        "generators": 0, "member": 0, "cond": 0, "pullback": 0,
    }


def test_reused_parser_keeps_no_flag_between_calls(capsys, concrete_path):
    # cond --expr, then the triple form: a leftover --expr would make it exit 2
    code, data = run_json(
        capsys, "cond", "--config", concrete_path, "--axis", "1", "--expr", "P1*P2"
    )
    assert code == 0 and data["subject"] == "P1*P2"
    code, data = run_json(
        capsys, "cond", "--config", concrete_path, "--axis", "1",
        "--r1", "1", "--r2", "0", "--r3", "1",
    )
    assert code == 0 and data["subject"] == [1, 0, 1]

    probe = ["probe", "--config", concrete_path, "--expr", "P1*P2", "--seed", "3",
             "--samples", "50", "--kmax", "0"]
    code, explicit = run_json(capsys, *probe, "--lambda", "1")
    assert code == 0 and explicit["region"]["lam"] == 1.0
    code, scaled = run_json(capsys, *probe, "--lambda", "2")
    assert code == 0 and scaled["region"]["lam"] == 2.0
    code, default = run_json(capsys, *probe)
    assert code == 0 and default == explicit


def test_reused_parser_still_rejects_a_bad_flag(capsys, concrete_path):
    assert run_json(capsys, "validate", "--config", concrete_path)[0] == 0
    assert run_json(capsys, "generators", "--config", concrete_path, "--degree-bound", "3")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["generators", "--config", concrete_path, "--degree-bound", "-3"])
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err
    code, data = run_json(capsys, "generators", "--config", concrete_path, "--degree-bound", "3")
    assert code == 0 and data["degree_bound"] == 3
