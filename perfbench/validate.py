"""Correctness checks on a workload's outputs, made apart from the program
and outside the timed rounds.

Each check returns a list of problems; an empty list is a pass.  The
reference numbers come from ``reference``, which shares no code with the
program.
"""

import csv
import json
import math
from collections import defaultdict

import numpy as np

import reference

CURVE_COLUMNS = ["task", "algorithm", "lambda", "alpha", "emphasis_kind",
                 "seed", "step", "mspbe"]
AGGREGATE_COLUMNS = ["task", "algorithm", "lambda", "alpha", "emphasis_kind",
                     "step", "mean_mspbe", "std_mspbe", "n_runs"]
RTOL = 1e-9          # program against reference; measured gap is ~1e-12
VALUE_ATOL = 1e-9    # Phi theta* against the exact values; gap is ~3e-12
RESIDUAL_TOL = 1e-10


def read_curves(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _expected_steps(req):
    return list(range(req["eval_every"], req["steps"] + 1, req["eval_every"]))


def _cell_of(algorithm, lam, alpha):
    return (algorithm, float(lam), float(alpha))


def curve_table(header, rows):
    """{cell: {seed: [(step, mspbe), ...]}} from CSV rows."""
    col = {name: i for i, name in enumerate(header)}
    table = defaultdict(lambda: defaultdict(list))
    for row in rows:
        cell = _cell_of(row[col["algorithm"]], row[col["lambda"]],
                        row[col["alpha"]])
        table[cell][int(row[col["seed"]])].append(
            (int(row[col["step"]]), float(row[col["mspbe"]])))
    return table


def check_curve_layout(header, rows, req):
    """Columns, row count, task, emphasis label, and every requested cell
    with each run's seed and every evaluation step."""
    problems = []
    if header != CURVE_COLUMNS:
        return [f"header {header} is not {CURVE_COLUMNS}"]
    steps = _expected_steps(req)
    want_rows = len(req["cells"]) * req["runs"] * len(steps)
    if len(rows) != want_rows:
        problems.append(f"{len(rows)} rows, expected {want_rows}")
    labels = {(r[0], r[1], r[4]) for r in rows}
    want_labels = {(req["task"], a,
                    reference.emphasis_label(a, req["emphasis"]))
                   for a, _, _ in req["cells"]}
    if labels != want_labels:
        problems.append(f"task/algorithm/emphasis {sorted(labels)}, "
                        f"expected {sorted(want_labels)}")
    table = curve_table(header, rows)
    want_cells = {_cell_of(*c) for c in req["cells"]}
    if set(table) != want_cells:
        problems.append(f"cells {sorted(table)}, expected {sorted(want_cells)}")
    seeds = set(range(req["base_seed"], req["base_seed"] + req["runs"]))
    for cell, by_seed in table.items():
        if set(by_seed) != seeds:
            problems.append(f"cell {cell}: seeds {sorted(by_seed)[:3]}... "
                            f"are not {req['base_seed']}..")
        if any([s for s, _ in pts] != steps for pts in by_seed.values()):
            problems.append(f"cell {cell}: steps differ from {steps[:2]}..")
    return problems


def _mean_curves(table):
    """{cell: (steps, mean over runs, std over runs)}."""
    out = {}
    for cell, by_seed in table.items():
        values = np.array([[v for _, v in pts] for _, pts in
                           sorted(by_seed.items())])
        steps = [s for s, _ in next(iter(by_seed.values()))]
        with np.errstate(all="ignore"):
            out[cell] = (steps, values.mean(0), values.std(0, ddof=1))
    return out


def check_curve_values(table):
    """MSPBE finite and nonnegative on every cell."""
    problems = []
    for cell, by_seed in table.items():
        values = [v for pts in by_seed.values() for _, v in pts]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            problems.append(f"cell {cell}: MSPBE not finite and >= 0")
    return problems


def best_cells(means):
    """Best cell per algorithm by final mean: {algorithm: cell}."""
    best = {}
    for cell, (_, mean, _) in means.items():
        score = mean[-1] if np.isfinite(mean[-1]) else math.inf
        key = (score, cell[2], cell[1])
        if cell[0] not in best or key < best[cell[0]][0]:
            best[cell[0]] = (key, cell)
    return {algo: cell for algo, (_, cell) in best.items()}


def check_best_improves(means):
    """The best cell's final MSPBE lies below its first evaluation."""
    problems = []
    for algo, cell in best_cells(means).items():
        mean = means[cell][1]
        if not mean[-1] < mean[0]:
            problems.append(f"{algo} best cell {cell}: final {mean[-1]} is "
                            f"not below first {mean[0]}")
    return problems


def _close(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=0.0))


def check_reference_curves(table, req):
    """Curves of the small-step cells equal the reference simulation."""
    problems = []
    for cell in sorted(table):
        if cell[2] != req["check_alpha"]:
            continue
        want = reference.simulate(req["task"], *cell, req["emphasis"],
                                  req["base_seed"], req["runs"], req["steps"],
                                  req["eval_every"])
        got = [[v for _, v in pts] for _, pts in sorted(table[cell].items())]
        if not _close(got, want):
            problems.append(f"cell {cell}: curves differ from the reference")
    return problems


def check_fig1_readback(readback, means):
    """The program's select_best and aggregate agree with the benchmark's
    own selection and mean/deviation from the same file."""
    if not readback:
        return ["read-back produced nothing"]
    problems = []
    best = best_cells(means)
    got = {b["algorithm"]: b for b in readback}
    if set(got) != set(best):
        return [f"read-back algorithms {sorted(got)}, expected {sorted(best)}"]
    for algo, cell in best.items():
        b = got[algo]
        steps, mean, std = means[cell]
        if _cell_of(algo, b["lambda"], b["alpha"]) != cell:
            problems.append(f"{algo}: read-back best {b['lambda']}, "
                            f"{b['alpha']} is not {cell}")
        elif not (_close(b["mean"], mean) and _close(b["std"], std)):
            problems.append(f"{algo}: read-back mean/std of {cell} differ")
    return problems


def check_fig1(outputs, req):
    header, rows = read_curves(outputs["file"])
    problems = {"layout": check_curve_layout(header, rows, req)}
    if problems["layout"]:
        return problems
    table = curve_table(header, rows)
    means = _mean_curves(table)
    problems["values"] = check_curve_values(table)
    problems["best-improves"] = check_best_improves(means)
    problems["reference"] = check_reference_curves(table, req)
    problems["read-back"] = check_fig1_readback(outputs["readback"], means)
    return problems


def aggregate_table(rows):
    """{cell: (steps, means, stds, n_runs)} from aggregate JSON rows."""
    by_cell = defaultdict(list)
    for r in rows:
        by_cell[_cell_of(r["algorithm"], r["lambda"], r["alpha"])].append(r)
    return {cell: ([r["step"] for r in rs],
                   np.array([r["mean_mspbe"] for r in rs], float),
                   np.array([r["std_mspbe"] for r in rs], float),
                   [r["n_runs"] for r in rs])
            for cell, rs in by_cell.items()}


def check_aggregate_layout(rows, req):
    if any(list(r) != AGGREGATE_COLUMNS for r in rows):
        return [f"rows do not have the keys {AGGREGATE_COLUMNS}"]
    problems = []
    steps = _expected_steps(req)
    if len(rows) != len(req["cells"]) * len(steps):
        problems.append(f"{len(rows)} rows, expected "
                        f"{len(req['cells']) * len(steps)}")
    labels = {(r["task"], r["algorithm"], r["emphasis_kind"]) for r in rows}
    want = {(req["task"], a, reference.emphasis_label(a, req["emphasis"]))
            for a, _, _ in req["cells"]}
    if labels != want:
        problems.append(f"task/algorithm/emphasis {sorted(labels)}, "
                        f"expected {sorted(want)}")
    table = aggregate_table(rows)
    if set(table) != {_cell_of(*c) for c in req["cells"]}:
        problems.append(f"cells {sorted(table)} are not the requested ones")
    for cell, (got_steps, _, _, n_runs) in table.items():
        if got_steps != steps:
            problems.append(f"cell {cell}: steps differ from {steps[:2]}..")
        if set(n_runs) != {req["runs"]}:
            problems.append(f"cell {cell}: n_runs {set(n_runs)}, "
                            f"expected {req['runs']}")
    return problems


def check_aggregate_values(table):
    """Means and deviations finite and nonnegative on every cell."""
    problems = []
    for cell, (_, mean, std, _) in table.items():
        if not (np.all(np.isfinite(mean)) and np.all(mean >= 0.0)
                and np.all(np.isfinite(std)) and np.all(std >= 0.0)):
            problems.append(f"cell {cell}: mean/std not finite and >= 0")
    return problems


def check_reference_aggregates(table, req):
    """Means and deviations of the small-step cells equal those of the
    reference simulation."""
    problems = []
    for cell in sorted(table):
        if cell[2] != req["check_alpha"]:
            continue
        curves = reference.simulate(req["task"], *cell, req["emphasis"],
                                    req["base_seed"], req["runs"],
                                    req["steps"], req["eval_every"])
        _, mean, std, _ = table[cell]
        if not (_close(mean, curves.mean(0))
                and _close(std, curves.std(0, ddof=1))):
            problems.append(f"cell {cell}: aggregates differ from the "
                            "reference")
    return problems


def check_adaptive(outputs, req):
    with open(outputs["file"], encoding="utf-8") as handle:
        rows = json.load(handle)
    problems = {"layout": check_aggregate_layout(rows, req)}
    if problems["layout"]:
        return problems
    table = aggregate_table(rows)
    means = {cell: (steps, mean, std) for cell, (steps, mean, std, _)
             in table.items()}
    problems["values"] = check_aggregate_values(table)
    problems["best-improves"] = check_best_improves(means)
    problems["reference"] = check_reference_aggregates(table, req)
    readback = outputs["readback"] or {}
    want = {algo: (means[cell][1][-1], cell[1], cell[2])
            for algo, cell in best_cells(means).items()}
    got = {a: tuple(v) for a, v in readback.get("best", {}).items()}
    problems["read-back"] = [] if (readback.get("rows") == len(rows)
                                   and got == want) else [
        f"read-back {readback} does not match {len(rows)} rows, {want}"]
    return problems


def check_verify(path):
    """Every registered check ran and passed."""
    with open(path, encoding="utf-8") as handle:
        results = json.load(handle)
    failed = [r["check"] for r in results if r.get("pass") is not True]
    problems = [f"verify check {name} failed" for name in failed]
    if len(results) < 30:
        problems.append(f"verify ran {len(results)} checks, expected 30")
    return problems


def is_kept_fault(op) -> bool:
    """A failed operation is a fixed-point solve that shows one of the two
    faults the exact-analysis workload keeps: the ZeroDivisionError of the
    contraction bound at gamma * lambda = 1, or adaptive emphasis that hits
    its iteration cap."""
    if op["op"] != "fixed-point":
        return False
    return (op["outcome"] == "raised ZeroDivisionError"
            and op["lambda"] == 1.0) or (
        op["outcome"] == "capped" and op["emphasis"] == "abs_expected_td")


def check_fixed_points(solves):
    """Phi theta* equals (I - gamma P)^-1 r on tasks whose features span the
    values; the printed residual is small on every solve."""
    problems = []
    for s in solves:
        p = s["payload"]
        if s["outcome"] != "ok":
            continue
        label = f"{s['task']} {s['emphasis']} lambda={s['lambda']}"
        if not p["residual"] <= RESIDUAL_TOL:
            problems.append(f"{label}: residual {p['residual']}")
        if s["task"] == "RW5_DEPENDENT":
            continue
        task = reference.make_task(s["task"])
        gap = np.max(np.abs(task.phi @ np.array(p["theta_star"])
                            - reference.true_values(task)))
        if not gap <= VALUE_ATOL:
            problems.append(f"{label}: Phi theta* is {gap:.3g} from the "
                            "true values")
    return problems


def _label(op) -> str:
    if op["op"] != "fixed-point":
        return op["op"]
    return f"fixed-point {op['task']} {op['emphasis']} lambda={op['lambda']}"


def check_operations(rounds):
    """Every operation of every round ended well, or is a fixed-point solve
    that shows a kept fault."""
    return sorted({f"{_label(op)}: {op['outcome']}" for r in rounds
                   for op in r["outcomes"]
                   if op["outcome"] != "ok" and not is_kept_fault(op)})


def check_exact(outputs, req):
    return {"verify": check_verify(outputs["file"]),
            "fixed-points": check_fixed_points(outputs["solves"])}


CHECKS = {"fig1-imbalance": check_fig1, "adaptive-boyan": check_adaptive,
          "exact-analysis": check_exact}
