"""Golden JSON reports: fixed-argument runs of every subcommand.

Each case runs ``kuroda.cli.main`` on ``configs/concrete.json`` with fixed
seeds and sample counts and compares the bytes of the emitted JSON
report with the stored ``tests/golden/<case>.json``, so whitespace and float
text are pinned too.  The only field dropped before the comparison is
``cloud``'s ``path`` (its last key), which names a temporary file.

To re-record after an intended report change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from kuroda.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = str(ROOT / "configs" / "concrete.json")
CUBIC = "(P1-P2)*(P2-P3)*(P3-P1)"
# Degree-8 product of linear forms, one coefficient fractional: a non-member
# with long violation lists on both routes (the costliest benchmark slot).
DENSE8 = (
    "(P1 - 2*P2 + 3*P3 + 1/2)*(2*P1 + P2 - P3)*(-P1 + 3*P2 + 2*P3)*(3*P1 - P2 + P3)"
    "*(P1 + 2*P2 - 3*P3)*(-2*P1 - P2 + P3)*(P1 - 3*P2 - 2*P3)*(2*P1 + 3*P2 + P3)"
)
# Its first three factors: a 16-term cubic, the size of the benchmark's probe
# expressions, so 20 000 samples take several evaluation blocks.
DENSE3 = "(P1 - 2*P2 + 3*P3 + 1/2)*(2*P1 + P2 - P3)*(-P1 + 3*P2 + 2*P3)"

CASES = {
    "validate": ["validate"],
    "tower": ["tower"],
    "generators": ["generators", "--degree-bound", "4"],
    "member": ["member", "--expr", f"{CUBIC} + P1^2*P2"],
    "member_dense8": ["member", "--expr", DENSE8],
    "cond_triple": ["cond", "--axis", "1", "--r1", "1", "--r2", "0", "--r3", "1"],
    "cond_expr": ["cond", "--axis", "2", "--expr", CUBIC],
    "pullback_triple": ["pullback", "--axis", "1", "--r1", "2", "--r2", "1", "--r3", "1"],
    "pullback_region": ["pullback", "--axis", "2"],
    "probe": ["probe", "--expr", "P1*P2", "--samples", "500", "--seed", "3", "--kmax", "200"],
    "probe_dense": [
        "probe", "--expr", DENSE3, "--region", "stilde", "--samples", "20000", "--seed", "11",
        "--kmax", "0",
    ],
    "probe_s": [
        "probe", "--expr", DENSE3, "--region", "s", "--samples", "20000", "--seed", "12",
        "--kmax", "2000",
    ],
    "sandwich": ["sandwich", "--samples", "100", "--seed", "5"],
    "cloud": [
        "cloud", "--which", "stilde", "--grid", "12", "--radius", "3", "--band", "0.5",
    ],
}


def run_case(name: str, workdir: Path) -> tuple[int, bytes]:
    """Exit code and emitted report bytes (``cloud`` without its ``path`` key)."""
    out = workdir / f"{name}.json"
    argv = [*CASES[name], "--config", CONFIG, "--format", "json", "--out", str(out)]
    if CASES[name][0] == "cloud":
        cloud_csv = workdir / f"{name}.csv"
        argv += ["--cloud-out", str(cloud_csv)]
    code = main(argv)
    text = out.read_bytes()
    if CASES[name][0] == "cloud":
        path_entry = f',\n  "path": {json.dumps(str(cloud_csv))}\n}}\n'.encode()
        assert text.endswith(path_entry), text
        text = text[: -len(path_entry)] + b"\n}\n"
    return code, text


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    code, text = run_case(name, tmp_path)
    assert code == 0
    assert text == (GOLDEN / f"{name}.json").read_bytes()


def test_reports_match_golden_in_one_process_both_orders(tmp_path):
    # main reuses one parser per process; no case may leak into the next
    names = sorted(CASES)
    for name in [*names, *reversed(names)]:
        code, text = run_case(name, tmp_path)
        assert code == 0, name
        assert text == (GOLDEN / f"{name}.json").read_bytes(), name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            exit_code, text = run_case(case, Path(tmp))
            if exit_code != 0:
                sys.exit(f"{case}: exit {exit_code}")
            (GOLDEN / f"{case}.json").write_bytes(text)
            print(f"recorded {case}")
