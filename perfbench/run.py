"""Benchmark of the discerning-td program: its sweep loop, adaptive
emphasis and exact solvers, timed end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig1-imbalance --seed 0 \
        --seconds 20 --trace 0

Set-up is timed in fresh processes; the rounds run in one more fresh
process, which also gives the peak RSS.  Times are scaled to a reference
machine speed (see ``speed``); the plain seconds are in the result file.
The outputs of the last round are then checked against the benchmark's own
computations.  Human-readable lines come first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics that
BENCHMARK.json names (end-to-end ones with ``--trace 0``, per-module ones
with ``--trace 1``).
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
ROUND_MARGIN_S = 150     # a worker may overrun --seconds by one round

sys.path.insert(0, str(HERE))

import validate  # noqa: E402
import workloads  # noqa: E402


def run_worker(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         str(seconds), str(trace), str(OUT)],
        capture_output=True, text=True, timeout=seconds + ROUND_MARGIN_S,
        cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def end_to_end(work, setups) -> dict:
    rounds = work["rounds"]
    queries = [q for r in rounds for q in r["query_s"]]
    return {
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(r["round_s"] for r in rounds),
        "peak_rss_mb": work["peak_rss_mb"],
        "batch_s": statistics.median(r["batch_s"] for r in rounds),
        "query_ms_p50": 1e3 * statistics.median(queries),
    }


def raw_seconds(work, setup_runs) -> dict:
    """The plain, unscaled seconds behind the metrics, for the record."""
    rounds = work["rounds"]
    return {
        "round_s": [r["raw"]["round_s"] for r in rounds],
        "batch_s": [r["raw"]["batch_s"] for r in rounds],
        "query_ms_p50": 1e3 * statistics.median(
            q for r in rounds for q in r["raw"]["query_s"]),
        "setup_s": [s["raw_setup_s"] for s in setup_runs],
    }


def named_figures(workload, work) -> dict:
    """The same measurements under the names a user of each workload
    knows them by."""
    rounds = work["rounds"]
    batch = statistics.median(r["batch_s"] for r in rounds)
    queries = [q for r in rounds for q in r["query_s"]]
    if workload.name == "exact-analysis":
        deciles = statistics.quantiles(queries, n=10)
        return {"verify_s": batch,
                "fixed_point_ms_p50": 1e3 * statistics.median(queries),
                "fixed_point_ms_p90": 1e3 * deciles[-1],
                "fixed_point_solves": len(queries)}
    figures = {"sweep_s": batch,
               "transitions_per_s": workload.transitions / batch}
    if workload.name == "fig1-imbalance":
        figures["readback_s"] = statistics.median(queries)
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (workloads.SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: no program source under {workloads.SRC}; run from "
              "the root of a discerning-td checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_runs = [] if args.trace else [
        run_worker(args.workload, args.seed, 0, "setup")
        for _ in range(SETUP_SAMPLES)]
    setups = [s["setup_s"] for s in setup_runs]
    work = run_worker(args.workload, args.seed, args.seconds, args.trace)
    outputs = work["outputs"]
    written = Path(outputs["file"]).is_file()
    problems = (validate.CHECKS[args.workload](outputs, workload.request())
                if written else {"output": [f"{outputs['file']} missing"]})
    problems["operations"] = validate.check_operations(work["rounds"])
    correct = not any(problems.values())
    attempted = sum(r["attempted"] for r in work["rounds"])
    failed = sum(r["failed"] for r in work["rounds"])

    if args.trace:
        values, listed = work["layers"], spec["per_layer"]
    else:
        values, listed = end_to_end(work, setups), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "round_s": [r["round_s"] for r in work["rounds"]],
        "metrics": metrics,
        "figures": named_figures(workload, work),
        "setup_samples_s": setups,
        "raw": raw_seconds(work, setup_runs),
        "probe_us": work.get("probe_us"),
        "sha256": ({Path(outputs["file"]).name: sha256(outputs["file"])}
                   if written else {}),
        "checks": problems,
    }
    if args.trace:
        result["layers"] = work["layers"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    for name, found in problems.items():
        print(f"check {name}: " + ("ok" if not found else "; ".join(found)))
    for name, value in result["figures"].items():
        print(f"{args.workload} {name} {value}")
    for name, digest in result["sha256"].items():
        print(f"sha256 {name} {digest}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
