"""One workload process: import kuroda, run ops in a closed loop, write results.

``run.py`` starts this file in a fresh interpreter, one process at a time:

* ``--setup-only``: time spawn -> ``import kuroda.cli`` -> first config
  loaded, run a few yardstick chunks, print the two as JSON and exit;
* otherwise: the same set-up, then one warm-up round, then whole rounds of
  ops until ``--seconds`` have passed, with yardstick chunks interleaved.

Every op is one in-process ``kuroda.cli.main([...])`` call writing a JSON
report to a file; its output is checked after the timed interval.  With
``--trace`` the spans of :mod:`spans` are recorded and written out when the
run ends.
"""

import argparse
import time

parser = argparse.ArgumentParser()
parser.add_argument("--spawned", type=float, required=True, help="perf_counter before spawn")
parser.add_argument("--config", required=True, help="config loaded as part of set-up")
parser.add_argument("--setup-only", action="store_true")
parser.add_argument("--inputs")
parser.add_argument("--workdir")
parser.add_argument("--seconds", type=float)
parser.add_argument("--trace-out", default=None)
parser.add_argument("--result")
parser.add_argument("--yardstick", default="exact", help="comma-separated yardstick kinds")
ARGS = parser.parse_args()

import kuroda.cli  # noqa: E402
from kuroda.config import KurodaConfig  # noqa: E402

KurodaConfig.from_json_file(ARGS.config)
SETUP_RAW_S = time.perf_counter() - ARGS.spawned

import json  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402

SETUP_CHUNKS = 15
# Yardstick time kept at this share of op time, chunk by chunk.
REF_SHARE = 0.04


def timed_chunk(kind: str) -> list[float]:
    """One yardstick chunk as ``[start, seconds]``."""
    return [time.perf_counter(), yardstick.chunk(kind)]


def run(doc: dict, workdir: Path, seconds: float, tracer, kinds) -> dict:
    ops = doc["ops"]
    round_len = doc["round_len"]
    cfg_path = workdir / "config.json"
    out_path = workdir / "out.json"
    cloud_path = workdir / "cloud.csv"
    records = []
    chunks = {k: [timed_chunk(k) for _ in range(3)] for k in kinds}
    ref_total = sum(c[1] for v in chunks.values() for c in v)
    turn = 0
    op_total = 0.0
    warned = 0

    def one(i):
        op = ops[i]
        config = doc["configs"][op["config"]]
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        if out_path.exists():
            out_path.unlink()
        argv = [op["kind"], "--config", str(cfg_path), *op["args"],
                "--format", "json", "--out", str(out_path)]
        if op["kind"] == "cloud":
            argv += ["--cloud-out", str(cloud_path)]
        if tracer is None:
            t0 = time.perf_counter()
            try:
                outcome = kuroda.cli.main(argv)
            except Exception as exc:  # a crash is a labelled failure of this op
                outcome = exc
            elapsed = time.perf_counter() - t0
            caught = 0
        else:
            tracer.op = i
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always", RuntimeWarning)
                t0 = time.perf_counter()
                try:
                    outcome = kuroda.cli.main(argv)
                except Exception as exc:
                    outcome = exc
                elapsed = time.perf_counter() - t0
            caught = sum(1 for w in seen if issubclass(w.category, RuntimeWarning))
            tracer.op = None
        return elapsed, checks.check(op, config, outcome, out_path, cloud_path), caught

    for i in range(round_len):  # warm-up round: not recorded
        one(i)

    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline and (rounds + 2) * round_len <= len(ops):
        rounds += 1
        for i in range(rounds * round_len, (rounds + 1) * round_len):
            start = time.perf_counter()
            elapsed, label, caught = one(i)
            op_total += elapsed
            warned += caught
            records.append([i, ops[i]["slot"], elapsed, label, start])
            while ref_total < REF_SHARE * op_total:
                kind = kinds[turn % len(kinds)]
                turn += 1
                chunks[kind].append(timed_chunk(kind))
                ref_total += chunks[kind][-1][1]
    return {
        "records": records,
        "rounds": rounds,
        "exhausted": time.perf_counter() < deadline,
        "ref_chunks": chunks,
        "warnings": warned,
    }


def main() -> None:
    setup = {
        "setup_raw_s": SETUP_RAW_S,
        "setup_ref": {
            k: [timed_chunk(k) for _ in range(SETUP_CHUNKS)] for k in yardstick.KINDS
        },
    }
    if ARGS.setup_only:
        print(json.dumps(setup))
        return
    with open(ARGS.inputs, encoding="utf-8") as fh:
        doc = json.load(fh)
    tracer = None
    if ARGS.trace_out:
        tracer = spans.Tracer()
        spans.install(tracer)
    result = run(doc, Path(ARGS.workdir), ARGS.seconds, tracer, ARGS.yardstick.split(","))
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(ARGS.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": doc["workload"], "seed": doc["seed"],
                       "fields": ["name", "start", "end", "parent", "op", "value"],
                       "spans": tracer.spans}, fh)
    with open(ARGS.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
