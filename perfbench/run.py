"""kuroda benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/kuroda``.  The inputs are
drawn from ``--seed`` (see ``inputs.py``) in this process; the ops then run
in fresh worker processes, one at a time, with one caller and no threads.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
inputs untraced and then traced (half of ``--seconds`` each) and prints the
per-layer metrics.  Earlier stdout lines are a readable summary; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is timed over this many fresh processes (the workload's own included).
SETUP_SPAWNS = 7
WORKER_TIMEOUT_S = 150
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _spawn(args: list[str]) -> str:
    """Run one worker to completion; return its stdout."""
    env = {**os.environ, **ENV, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned", repr(time.perf_counter()), *args]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _fail("worker timed out")
    if proc.returncode != 0:
        _fail(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def _worker(doc_path: Path, work: Path, config: Path, seconds: float, kinds, tag: str,
            trace_out=None):
    result = work / f"result-{tag}.json"
    args = ["--config", str(config), "--inputs", str(doc_path), "--workdir", str(work),
            "--seconds", repr(seconds), "--result", str(result), "--yardstick", ",".join(kinds)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    _spawn(args)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


# Yardstick kinds that rescale each workload's op times (see yardstick.py).
YARDSTICK = {
    "member_exact": ("exact",),
    "tower_queries": ("exact",),
    "regions_sampling": ("exact", "array"),
    "regions_sandwich": ("exact", "array"),
}
SETUP_YARDSTICK = ("exact", "array")


def _end_to_end(run: dict, setups: list[dict], kinds) -> tuple[dict, dict]:
    """Rescaled end-to-end metrics and the raw values behind them."""
    records = run["records"]
    factors = yardstick.factors([r[4] for r in records], run["ref_chunks"], kinds)
    scaled = [r[2] * f for r, f in zip(records, factors)]
    ok = [r[3] is None for r in records]
    good = [t for t, g in zip(scaled, ok) if g]
    raw_good = [r[2] for r, g in zip(records, ok) if g]
    if not good:
        _fail("no op passed its output check")
    raw_rate = len(good) / sum(r[2] for r in records)
    raw_p50 = statistics.median(raw_good)
    raw_tail, pct, samples = stats.tail(raw_good)
    setup = [
        s["setup_raw_s"] * yardstick.factors([s["setup_ref"]["exact"][0][0]], s["setup_ref"],
                                             SETUP_YARDSTICK)[0]
        for s in setups
    ]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(good) / sum(scaled),
        "op_p50_ms": statistics.median(good) * 1e3,
        "op_tail_ms": stats.tail(good)[0] * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = {
        "machine.ref_ms": statistics.median([c[1] for c in run["ref_chunks"][kinds[0]]]) * 1e3,
        "machine.ref_spread": stats.iqr_ratio([c[1] for c in run["ref_chunks"][kinds[0]]]),
        "machine.raw_ops_per_s": raw_rate,
        "machine.raw_op_p50_ms": raw_p50 * 1e3,
        "machine.raw_op_tail_ms": raw_tail * 1e3,
        "machine.raw_setup_s": statistics.median([s["setup_raw_s"] for s in setups]),
        "machine.tail_percentile": pct,
        "machine.tail_samples": samples,
        "machine.verified_ops": len(good),
    }
    return metrics, raw


def _failures(run: dict) -> dict:
    labels: dict[str, int] = {}
    for r in run["records"]:
        if r[3] is not None:
            labels[r[3]] = labels.get(r[3], 0) + 1
    return labels


def _slot_medians(run: dict) -> dict:
    """Ops and raw median milliseconds per slot class."""
    by_slot: dict[str, list[float]] = {}
    for r in run["records"]:
        by_slot.setdefault(r[1], []).append(r[2])
    return {k: [len(v), round(statistics.median(v) * 1e3, 3)] for k, v in by_slot.items()}


def _failure_metrics(labels: dict, attempted: int, known: tuple[str, str]) -> dict:
    return {
        "failed_ratio": sum(labels.values()) / attempted,
        "failed.defect_a_probe_overflow": labels.get(known[0], 0),
        "failed.defect_b_sandwich_in_s_out": labels.get(known[1], 0),
        "failed.other": sum(v for k, v in labels.items() if k not in known),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "kuroda" / "__init__.py").is_file():
        _fail(f"no kuroda sources under {SRC}; run from the root of a checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    # Workers read compiled bytecode from one cache inside the checkout,
    # filled here before any timed spawn.
    sys.pycache_prefix = ENV["PYTHONPYCACHEPREFIX"]
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    import checks
    import inputs
    import kuroda.cli  # noqa: F401

    known = checks.KNOWN_DEFECTS

    if args.workload not in inputs.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}")
    kinds = YARDSTICK[args.workload]
    doc = inputs.generate(args.workload, args.seed, inputs.rounds_for(args.workload, args.seconds))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        doc_path = work / "inputs.json"
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        first_config = work / "setup-config.json"
        with open(first_config, "w", encoding="utf-8") as fh:
            json.dump(doc["configs"][doc["ops"][0]["config"]], fh)

        if args.trace:
            half = args.seconds / 2
            run = _worker(doc_path, work, first_config, half, kinds, "untraced")
            trace_path = OUT / f"trace-{args.workload}.json"
            traced = _worker(doc_path, work, first_config, half, kinds, "traced", trace_path)
            setups = [run]
        else:
            setups = [
                json.loads(_spawn(["--setup-only", "--config", str(first_config)]))
                for _ in range(SETUP_SPAWNS - 1)
            ]
            run = _worker(doc_path, work, first_config, args.seconds, kinds, "untraced")
            setups.append(run)
            traced = None

        attempted = len(run["records"])
        labels = _failures(run)
        e2e, raw = _end_to_end(run, setups, kinds)
        executed = (run["rounds"] + 1) * doc["round_len"]
        drawn = inputs.summary(doc, executed)
        with open(OUT / f"inputs-{args.workload}.json", "w", encoding="utf-8") as fh:
            last_config = doc["ops"][executed - 1]["config"]
            json.dump({"summary": drawn, "seed": args.seed,
                       "configs": doc["configs"][: last_config + 1],
                       "ops": doc["ops"][:executed]}, fh)

        if traced is None:
            values = e2e
        else:
            with open(trace_path, encoding="utf-8") as fh:
                recorded = json.load(fh)["spans"]
            values = spans.layer_metrics(recorded, len(traced["records"]), traced["warnings"])
            traced_e2e, _ = _end_to_end(traced, setups, kinds)
            values["trace.overhead_ratio"] = traced_e2e["ops_per_s"] / e2e["ops_per_s"]
            values.update(raw)
            values.update(_failure_metrics(labels, attempted, known))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {', '.join(missing)}")
    print(f"workload {args.workload}  seed {args.seed}  rounds {run['rounds']}"
          f"  ops {attempted}  exhausted {run['exhausted']}")
    print("inputs " + json.dumps(drawn))
    print("failures " + json.dumps({"attempted": attempted, "labels": labels,
                                    **_failure_metrics(labels, attempted, known)}))
    print("raw " + json.dumps(raw))
    print("slots " + json.dumps(_slot_medians(run)))
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": all(k in known for k in labels),
        "attempted": attempted,
        "failed": sum(labels.values()),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
