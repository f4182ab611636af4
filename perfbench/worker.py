"""Runs one workload in a fresh process and prints one JSON line: set-up
time, the rounds it fitted into the time budget, peak RSS and, when
traced, the per-module metrics.

Untraced, set-up and rounds run under a ``speed.Meter``, and their seconds
are scaled to the reference speed; the plain seconds go alongside as
``raw``.  Traced rounds are timed plainly, since the probes would land in
the spans being traced.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR
(TRACE is 0, 1, or "setup" to time the set-up alone).
"""

import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _length(span) -> float:
    return span[1] - span[0]


def fit_rounds(workload, seconds: float, start: float) -> list:
    """Whole rounds while the next one is expected to end within
    ``seconds`` of ``start``; at least one."""
    rounds = []
    while True:
        rounds.append(workload.round())
        typical = statistics.median(_length(r["span"]) for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            return rounds


def timings(rounds, span_s) -> None:
    """Turn each round's spans into seconds by ``span_s``: ``round_s``,
    ``batch_s`` and the list ``query_s``, with the plain seconds under
    ``raw``."""
    for r in rounds:
        spans = {"round_s": r.pop("span"), "batch_s": r.pop("batch_span")}
        queries = r.pop("query_spans")
        r.update({k: span_s(*v) for k, v in spans.items()})
        r["query_s"] = [span_s(*q) for q in queries]
        r["raw"] = {k: _length(v) for k, v in spans.items()}
        r["raw"]["query_s"] = [_length(q) for q in queries]


def layer_metrics(tracer, n_rounds: int) -> dict:
    """Per-round figures for every wrapped function: calls, seconds, self
    seconds, microseconds per call and, where counted, work and work per
    second (e.g. ``harness.emit.rows``, ``harness.emit.rows_per_s``)."""
    out = {}
    for name, st in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = st["calls"] / n_rounds
        out[f"{name}.s"] = st["s"] / n_rounds
        out[f"{name}.self_s"] = (st["s"] - st["child_s"]) / n_rounds
        out[f"{name}.us_per_call"] = (1e6 * st["s"] / st["calls"]
                                      if st["calls"] else 0.0)
        if st["unit"]:
            out[f"{name}.{st['unit']}"] = st["work"] / n_rounds
            out[f"{name}.{st['unit']}_per_s"] = (st["work"] / st["s"]
                                                 if st["s"] else 0.0)
    sim = tracer.stats["harness.simulate_curves"]
    out["harness.simulate_curves.us_per_row_step"] = \
        1e6 * sim["s"] / sim["work"] if sim["work"] else 0.0
    return out


def peak_traced_mb(tracer, name: str) -> float:
    """Peak Python-heap MB of the first recorded call of ``name``, repeated
    under tracemalloc outside the timed rounds."""
    fn, args, kwargs = tracer.first_call[name]
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main(argv) -> int:
    name, seed, seconds, trace, out_dir = argv
    workload = workloads.WORKLOADS[name](int(seed), Path(out_dir))
    assert "numpy" not in sys.modules, "set-up must time the numpy import"
    if trace == "setup":
        meter = speed.Meter()
        meter.start()
        try:
            start = time.perf_counter()
            workload.setup()
            end = time.perf_counter()
        finally:
            meter.stop()
        print(json.dumps({"setup_s": meter.span_s(start, end),
                          "raw_setup_s": end - start}))
        return 0
    workload.setup()
    result = {}
    start = time.perf_counter()
    if trace == "1":
        tracer = tracing.Tracer()
        uninstall = tracer.install(workloads.PACKAGE)
        try:
            rounds = fit_rounds(workload, float(seconds), start)
        finally:
            uninstall()
        layers = layer_metrics(tracer, len(rounds))
        calls = sum(st["calls"] for st in tracer.stats.values())
        layers["trace.overhead_s"] = \
            tracing.wrapper_cost_s() * calls / len(rounds)
        layers["harness.simulate_curves.peak_mb"] = peak_traced_mb(
            tracer, "harness.simulate_curves")
        result["layers"] = layers
        timings(rounds, lambda t0, t1: t1 - t0)
    else:
        meter = speed.Meter()
        meter.start()
        try:
            rounds = fit_rounds(workload, float(seconds), start)
        finally:
            meter.stop()
        timings(rounds, meter.span_s)
        result["probe_us"] = 1e6 * meter.probe_s()
    result["rounds"] = rounds
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["outputs"] = workload.outputs()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
