"""Tests of the benchmark itself: the reference agrees with the program, and
every correctness check rejects a deliberately perturbed output.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import csv
import json
import signal
import time

import numpy as np
import pytest

import reference
import speed
import tracing
import validate
import workloads

workloads.import_program()
from discerning_td import harness  # noqa: E402
from discerning_td.learners import AlgoConfig, Algorithm  # noqa: E402
from discerning_td.emphasis import EmphasisSpec  # noqa: E402


class SmallFig1(workloads.Fig1Imbalance):
    lambdas = (0.9,)
    alphas = (2.0 ** -6, 2.0 ** -2)
    runs, steps, eval_every = 3, 400, 50


class SmallAdaptive(workloads.AdaptiveBoyan):
    alphas = (2.0 ** -6,)
    runs, steps, eval_every = 3, 1000, 500


def _run(workload_cls, tmp_path, seed=4):
    workload = workload_cls(seed, tmp_path)
    workload.setup()
    outcome = workload.round()
    assert outcome["failed"] == 0
    return workload, workload.outputs()


@pytest.mark.parametrize("task,emphasis", [("RW5_LEFT", "count_inverse"),
                                           ("BOYAN13", "abs_expected_td")])
@pytest.mark.parametrize("algo", ["TD", "DTD", "ETD", "PTD", "TDW"])
def test_reference_agrees_with_simulate_curves(task, emphasis, algo):
    config = AlgoConfig(Algorithm(algo), lam=0.9, alpha=0.05,
                        emphasis=EmphasisSpec(emphasis))
    mrp, fm = harness.resolve_task(task)
    seqs = harness.run_seed_sequences(task, config, 3, 4)
    got = harness.simulate_curves(mrp, fm, config, seqs, 300, 50).curves
    want = reference.simulate(task, algo, 0.9, 0.05, emphasis, 3, 4, 300, 50)
    np.testing.assert_allclose(got, want, rtol=validate.RTOL, atol=0.0)


def test_reference_tasks_match_the_program():
    for name in workloads.TASKS:
        mrp, fm = harness.resolve_task(name)
        task = reference.make_task(name)
        np.testing.assert_array_equal(task.transition, mrp.transition)
        np.testing.assert_array_equal(task.expected_reward,
                                      mrp.expected_reward)
        np.testing.assert_array_equal(task.phi, fm.phi)


def _rewrite_csv(path, edit):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        handle.write("".join(",".join(r) + "\n" for r in rows))


def _first_row_of(rows, alpha):
    return next(i for i, r in enumerate(rows)
                if i and float(r[3]) == alpha)


def _bump_value(rows):
    i = _first_row_of(rows, 2.0 ** -6)
    rows[i][7] = repr(float(rows[i][7]) * (1 + 1e-6))


def _drop_row(rows):
    del rows[-1]


def _infinite_value(rows):
    rows[_first_row_of(rows, 2.0 ** -2)][7] = "inf"


def _worsen_finals(rows):
    for r in rows[1:]:
        if r[6] == "400":
            r[7] = "10.0"


@pytest.mark.parametrize("check,edit", [
    ("reference", _bump_value), ("layout", _drop_row),
    ("values", _infinite_value), ("best-improves", _worsen_finals)])
def test_fig1_checks_reject_perturbed_curves(tmp_path, check, edit):
    workload, outputs = _run(SmallFig1, tmp_path)
    assert not any(validate.check_fig1(outputs, workload.request()).values())
    _rewrite_csv(outputs["file"], edit)
    assert validate.check_fig1(outputs, workload.request())[check]


def test_fig1_readback_check_rejects_a_moved_mean(tmp_path):
    workload, outputs = _run(SmallFig1, tmp_path)
    outputs["readback"][0]["mean"][3] *= 1 + 1e-6
    assert validate.check_fig1(outputs, workload.request())["read-back"]


@pytest.mark.parametrize("check,key,change", [
    ("reference", "mean_mspbe", lambda v: v * (1 + 1e-6)),
    ("reference", "std_mspbe", lambda v: v * (1 + 1e-6)),
    ("layout", "n_runs", lambda v: v + 1),
    ("values", "std_mspbe", lambda v: -v),
    ("read-back", "mean_mspbe", lambda v: v + 1.0)])
def test_adaptive_checks_reject_perturbed_aggregates(tmp_path, check, key,
                                                     change):
    workload, outputs = _run(SmallAdaptive, tmp_path)
    assert not any(validate.check_adaptive(outputs,
                                           workload.request()).values())
    with open(outputs["file"]) as handle:
        rows = json.load(handle)
    last_dtd = max(i for i, r in enumerate(rows) if r["algorithm"] == "DTD")
    rows[last_dtd][key] = change(rows[last_dtd][key])
    with open(outputs["file"], "w") as handle:
        json.dump(rows, handle)
    assert validate.check_adaptive(outputs, workload.request())[check]


def _solves(tmp_path, grid):
    workload = workloads.ExactAnalysis(0, tmp_path)
    workload.setup()
    return [workload._solve(*solve)[1] for solve in grid]


def test_fixed_point_check_rejects_a_moved_fixed_point(tmp_path):
    solves = _solves(tmp_path, [("RW5_LEFT", "count_inverse", 0.5),
                                ("BOYAN13", "constant:1", 0.9),
                                ("RW5_DEPENDENT", "noise_prior", 0.0)])
    assert validate.check_fixed_points(solves) == []
    solves[1]["payload"]["theta_star"][2] += 1e-6
    assert validate.check_fixed_points(solves)
    solves[1]["payload"]["theta_star"][2] -= 1e-6
    solves[2]["payload"]["residual"] = 1e-6
    assert validate.check_fixed_points(solves)


def test_operation_check_keeps_only_the_two_faults(tmp_path):
    solves = _solves(tmp_path, [("RW5_LEFT", "constant:1", 1.0),
                                ("RW5_LEFT", "abs_expected_td", 0.5)])
    assert [s["outcome"] for s in solves] == ["raised ZeroDivisionError",
                                              "capped"]
    assert validate.check_operations([{"outcomes": solves}]) == []
    solves[0]["lambda"] = 0.5
    solves[1]["emphasis"] = "count_inverse"
    assert len(validate.check_operations([{"outcomes": solves}])) == 2
    verify = {"op": "verify", "outcome": "raised ZeroDivisionError"}
    assert validate.check_operations([{"outcomes": [verify]}]) == [
        "verify: raised ZeroDivisionError"]


def test_a_failed_sweep_is_not_checked_against_an_earlier_file(
        tmp_path, monkeypatch):
    workload, outputs = _run(SmallFig1, tmp_path)

    def boom(argv):
        raise ZeroDivisionError

    monkeypatch.setattr(workload.cli, "main", boom)
    outcome = workload.round()
    assert [o["outcome"] for o in outcome["outcomes"]] == [
        "raised ZeroDivisionError", "raised FileNotFoundError"]
    assert validate.check_operations([outcome]) == [
        "read-back: raised FileNotFoundError",
        "sweep: raised ZeroDivisionError"]
    assert not (tmp_path / "fig1-imbalance.csv").exists()


def test_verify_check_rejects_a_failed_or_missing_check(tmp_path):
    path = tmp_path / "verify.json"
    results = [{"check": f"c{i}", "pass": True} for i in range(30)]
    path.write_text(json.dumps(results))
    assert validate.check_verify(path) == []
    results[7]["pass"] = False
    path.write_text(json.dumps(results))
    assert validate.check_verify(path) == ["verify check c7 failed"]
    path.write_text(json.dumps(results[8:]))
    assert validate.check_verify(path)


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    from discerning_td import checks
    original = harness.simulate_curves
    tracer = tracing.Tracer()
    uninstall = tracer.install(workloads.PACKAGE)
    try:
        assert checks.simulate_curves is harness.simulate_curves
        assert checks.simulate_curves is not original
        [result] = checks.verify_all("simulation-determinism")
    finally:
        uninstall()
    assert result.passed and result.check == "simulation-determinism"
    assert checks.simulate_curves is original
    assert tracer.stats["checks.simulation-determinism"]["calls"] == 1
    sim = tracer.stats["harness.simulate_curves"]
    assert sim["calls"] == 3
    assert sim["work"] == 3 * 500 + 3 * 500 + 1 * 500
    assert tracer.stats["checks.simulation-determinism"]["child_s"] \
        <= tracer.stats["checks.simulation-determinism"]["s"]


def test_wrapper_cost_is_a_small_positive_time():
    assert 0.0 < tracing.wrapper_cost_s(calls=20_000, repeats=3) < 1e-4


def test_meter_drops_probe_time_and_scales_by_probe_speed():
    meter = speed.Meter()
    meter.starts = [0.0, 0.5, 1.0]
    meter.durations = [2 * speed.REF_S] * 3
    # The span holds the probes at 0.5 and 1.0; they ran at half speed.
    want = (1.0 - 4 * speed.REF_S) / 2
    assert meter.span_s(0.2, 1.2) == pytest.approx(want)
    meter.durations = [speed.REF_S] * 3
    assert meter.span_s(0.2, 1.2) == pytest.approx(1.0 - 2 * speed.REF_S)


def test_meter_probes_while_it_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter()
    meter.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        pass
    end = time.perf_counter()
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.durations) >= 5
    assert meter.span_s(start, end) > 0.0
