"""The benchmark's three workloads.

Each one is built from the seed alone, imports and sets up the program in
``setup`` (timed as set-up), and runs one round of user-visible operations
in ``round``: a batch command through ``cli.main`` and the queries that
follow it.  Every round attempts the same operations, so the share of
failed operations does not depend on how many rounds a run fits.  A round
first deletes the files it writes, so the checks read that round's output.

This module imports neither numpy nor the program at its top, so that
set-up times the program's whole import.
"""

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "discerning_td"

TASKS = ("RW5_LEFT", "RW5_MIDDLE", "RW5_RIGHT", "RW5_INVERTED",
         "RW5_DEPENDENT", "BOYAN13", "NOISY10:-1", "NOISY10:0", "NOISY10:1")


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from discerning_td import cli, harness
    return cli, harness


def _cli_op(cli, argv):
    """Run one CLI operation; returns (span, outcome, stdout).  An
    exception escaping ``cli.main``, or a non-zero exit, is the operation's
    outcome, not the benchmark's."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outcome = "ok" if code == 0 else f"exit {code}"
    except Exception as exc:
        outcome = f"raised {type(exc).__name__}"
    return (start, time.perf_counter()), outcome, buf.getvalue()


def _op(fn):
    """Run one library operation; returns (span, outcome, value)."""
    start = time.perf_counter()
    try:
        value, outcome = fn(), "ok"
    except Exception as exc:
        value, outcome = None, f"raised {type(exc).__name__}"
    return (start, time.perf_counter()), outcome, value


def _round(span, batch_span, query_spans, outcomes) -> dict:
    """A round's record.  A span is the (start, end) of an operation, or of
    the whole round, by ``time.perf_counter``; the worker turns spans into
    seconds."""
    return {"span": span, "batch_span": batch_span,
            "query_spans": query_spans,
            "outcomes": outcomes, "attempted": len(outcomes),
            "failed": sum(o["outcome"] != "ok" for o in outcomes)}


class Sweep:
    """Common part of the two sweep workloads: one CLI sweep, then
    read-back queries of the file it wrote."""

    task = algos = emphasis = lambdas = alphas = None
    runs = steps = eval_every = None
    check_alpha = None     # cells with this step size are re-simulated

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.cli = self.harness = None

    def cells(self):
        return [(a, lam, alpha) for a in self.algos for lam in self.lambdas
                for alpha in self.alphas]

    @property
    def transitions(self) -> int:
        return len(self.cells()) * self.runs * self.steps

    def setup(self):
        self.cli, self.harness = import_program()
        self.harness.resolve_task(self.task)

    query_repeats = 1

    def round(self) -> dict:
        self.path.unlink(missing_ok=True)
        start = time.perf_counter()
        batch_span, batch, _ = _cli_op(self.cli, self.argv())
        outcomes, query_spans = [{"op": "sweep", "outcome": batch}], []
        for _ in range(self.query_repeats):
            span, query, self.readback = _op(self.query)
            outcomes.append({"op": "read-back", "outcome": query})
            query_spans.append(span)
        return _round((start, time.perf_counter()), batch_span, query_spans,
                      outcomes)

    def request(self) -> dict:
        return {"task": self.task, "emphasis": self.emphasis,
                "cells": self.cells(), "runs": self.runs,
                "steps": self.steps, "eval_every": self.eval_every,
                "base_seed": self.seed, "check_alpha": self.check_alpha}

    def outputs(self) -> dict:
        return {"file": str(self.path), "readback": self.readback}


class Fig1Imbalance(Sweep):
    """Visitation imbalance: TD and DTD with count-inverse emphasis on the
    left-start walk, curves written as CSV and read back as the figure
    analysis does."""

    name = "fig1-imbalance"
    task = "RW5_LEFT"
    algos = ("TD", "DTD")
    emphasis = "count_inverse"
    lambdas = (0.4, 0.9)
    alphas = (2.0 ** -6, 2.0 ** -4, 2.0 ** -2)
    runs, steps, eval_every = 50, 5000, 50
    check_alpha = 2.0 ** -6

    @property
    def path(self) -> Path:
        return self.out_dir / "fig1-imbalance.csv"

    def argv(self):
        return (["run", "--task", self.task, "--algo", *self.algos,
                 "--emphasis", self.emphasis,
                 "--lambda", *map(repr, self.lambdas),
                 "--alpha", *map(repr, self.alphas),
                 "--runs", str(self.runs), "--steps", str(self.steps),
                 "--eval-every", str(self.eval_every),
                 "--seed", str(self.seed), "--out", str(self.path)])

    def query(self):
        """Best cell per algorithm and its mean curve."""
        h = self.harness
        records = h.load_records(self.path)
        out = []
        for best in h.select_best(records).values():
            cell = (best.algorithm, best.lam, best.alpha)
            agg = h.aggregate([r for r in records
                               if (r.algorithm, r.lam, r.alpha) == cell])
            out.append({"algorithm": best.algorithm, "lambda": best.lam,
                        "alpha": best.alpha, "score": best.score,
                        "mean": [a.mean_mspbe for a in agg],
                        "std": [a.std_mspbe for a in agg],
                        "n_runs": [a.n_runs for a in agg]})
        return out


class AdaptiveBoyan(Sweep):
    """Adaptive emphasis on the 13-state chain: all five learners, per-step
    aggregates written as JSON by ``dtd sweep`` and read back."""

    name = "adaptive-boyan"
    task = "BOYAN13"
    algos = ("TD", "ETD", "PTD", "TDW", "DTD")
    emphasis = "abs_expected_td"
    lambdas = (0.9,)
    alphas = (2.0 ** -6, 2.0 ** -3)
    runs, steps, eval_every = 50, 5000, 500
    check_alpha = 2.0 ** -6
    # A read-back of ~100 rows takes under a millisecond.  Repeated, the
    # read-backs of a round last a few hundred milliseconds, long enough to
    # meet several of the host's speed states and the probes that see them.
    query_repeats = 200

    @property
    def path(self) -> Path:
        return self.out_dir / "adaptive-boyan.json"

    @property
    def config_path(self) -> Path:
        return self.out_dir / "adaptive-boyan.config.json"

    def setup(self):
        super().setup()
        config = {
            "task": self.task, "runs": self.runs, "steps": self.steps,
            "eval_every": self.eval_every, "base_seed": self.seed,
            "aggregate": True, "format": "json", "out": str(self.path),
            "algorithms": [{"algorithm": a, "lambda": list(self.lambdas),
                            "alpha": list(self.alphas),
                            "emphasis": {"kind": self.emphasis}}
                           for a in self.algos]}
        self.config_path.write_text(json.dumps(config, indent=1) + "\n")

    def argv(self):
        return ["sweep", "--config", str(self.config_path)]

    def query(self):
        """Best cell per algorithm by final mean MSPBE."""
        rows = self.harness.load_aggregates(self.path)
        final = max(r.step for r in rows)
        best = {}
        for r in rows:
            if r.step == final and (r.algorithm not in best or
                                    r.mean_mspbe < best[r.algorithm][0]):
                best[r.algorithm] = (r.mean_mspbe, r.lam, r.alpha)
        return {"rows": len(rows), "best": best}


class ExactAnalysis:
    """``dtd verify``, then ``dtd fixed-point`` on every task, emphasis and
    lambda of the grid.  The seed sets the order of the solves."""

    name = "exact-analysis"
    emphases = ("constant:1", "count_inverse", "noise_prior",
                "abs_expected_td")
    lambdas = (0.0, 0.5, 0.9, 1.0)

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        grid = [(t, e, lam) for t in TASKS for e in self.emphases
                for lam in self.lambdas]
        random.Random(seed).shuffle(grid)
        self.solves = grid
        self.cli = None
        self.results = []

    def request(self) -> dict:
        return {}

    @property
    def verify_path(self) -> Path:
        return self.out_dir / "exact-analysis.verify.json"

    def setup(self):
        self.cli, harness = import_program()
        for task in TASKS:
            harness.resolve_task(task)

    def _solve(self, task, emphasis, lam):
        span, outcome, text = _cli_op(self.cli, [
            "fixed-point", "--task", task, "--emphasis", emphasis,
            "--lambda", repr(lam)])
        payload = json.loads(text) if outcome == "ok" else None
        if payload is not None and "hit its cap" in payload["emphasis_note"]:
            outcome = "capped"
        return span, {"op": "fixed-point", "task": task,
                         "emphasis": emphasis, "lambda": lam,
                         "outcome": outcome, "payload": payload}

    def round(self) -> dict:
        self.verify_path.unlink(missing_ok=True)
        start = time.perf_counter()
        verify_span, verify, _ = _cli_op(
            self.cli, ["verify", "--out", str(self.verify_path)])
        spans, self.results = [], []
        for solve in self.solves:
            span, result = self._solve(*solve)
            spans.append(span)
            self.results.append(result)
        end = time.perf_counter()
        outcomes = [{"op": "verify", "outcome": verify}] + [
            {k: r[k] for k in ("op", "task", "emphasis", "lambda", "outcome")}
            for r in self.results]
        return _round((start, end), verify_span, spans, outcomes)

    def outputs(self) -> dict:
        solves = [dict(r, payload=None if r["payload"] is None else {
            "theta_star": r["payload"]["theta_star"],
            "residual": r["payload"]["residual"]}) for r in self.results]
        return {"file": str(self.verify_path), "solves": solves}


WORKLOADS = {w.name: w for w in (Fig1Imbalance, AdaptiveBoyan, ExactAnalysis)}
