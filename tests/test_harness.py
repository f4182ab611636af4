import hashlib
import json
import pickle
import re
import string
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discerning_td import (
    AggregateRecord,
    AlgoConfig,
    Algorithm,
    CurveRecord,
    CurveTable,
    DecayingAlpha,
    EmphasisKind,
    EmphasisSpec,
    ExperimentConfig,
    FeatureMap,
    MarkovRewardProcess,
    aggregate,
    aggregate_all,
    emit,
    load_aggregates,
    load_environment,
    load_records,
    resolve_task,
    run_experiment,
    save_environment,
    select_best,
    simulate_curves,
)
from discerning_td import harness
from discerning_td.analysis import mspbe
from discerning_td.harness import cell_key, emphasis_label, \
    run_seed_sequences
from discerning_td.mrp import restart_path
from discerning_td.mrp import TERMINAL


def small_config(task="RW5_MIDDLE", algorithms=None, runs=3, steps=200,
                 eval_every=50, base_seed=0):
    if algorithms is None:
        algorithms = [AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1)]
    return ExperimentConfig(task=task, algorithms=algorithms, runs=runs,
                            steps=steps, eval_every=eval_every,
                            base_seed=base_seed)


class TestResolveTask:
    def test_known_tasks(self):
        for name in ("RW5_LEFT", "RW5_MIDDLE", "RW5_RIGHT", "RW5_TABULAR",
                     "RW5_INVERTED", "RW5_DEPENDENT", "BOYAN13", "NOISY10"):
            mrp, fm = resolve_task(name)
            assert mrp.n_states == fm.n_states

    def test_noisy_levels(self):
        mrp, _ = resolve_task("NOISY10:-1")
        assert mrp.expected_reward[0] == -1.0
        mrp, _ = resolve_task("noisy10:0.5")
        assert mrp.expected_reward[0] == 0.5

    def test_feature_variants(self):
        _, fm = resolve_task("RW5_DEPENDENT")
        assert fm.n_features == 3

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            resolve_task("GRIDWORLD")

    @pytest.mark.parametrize("name", ["NOISY100", "NOISY10X", "NOISY10_1"])
    def test_noisy_name_takes_only_a_level_suffix(self, name):
        with pytest.raises(ValueError, match=f"unknown task {name!r}"):
            resolve_task(name)


class TestConfigValidation:
    def test_eval_every_must_divide_steps(self):
        with pytest.raises(ValueError):
            small_config(steps=205)

    def test_needs_algorithms(self):
        with pytest.raises(ValueError):
            small_config(algorithms=[])

    def test_records_reject_nan(self):
        with pytest.raises(ValueError):
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, float("nan"))

    @pytest.mark.parametrize("algorithms, cell", [
        # one config listed twice
        ([AlgoConfig(Algorithm.TD, 0.5, 0.1)] * 2, "'TD', 0.5, 0.1, 'none'"),
        # TD ignores emphasis, so both are labelled "none"
        ([AlgoConfig(Algorithm.TD, 0.5, 0.1),
          AlgoConfig(Algorithm.TD, 0.5, 0.1,
                     EmphasisSpec(EmphasisKind.COUNT_INVERSE))],
         "'TD', 0.5, 0.1, 'none'"),
        # the label names the emphasis kind, not its constant
        ([AlgoConfig(Algorithm.DTD, 0.5, 0.1,
                     EmphasisSpec(EmphasisKind.CONSTANT, constant=c))
          for c in (1.0, 2.0)], "'DTD', 0.5, 0.1, 'constant'"),
    ], ids=["listed-twice", "td-under-two-emphases", "dtd-two-constants"])
    def test_repeated_cell_refused(self, algorithms, cell):
        with pytest.raises(ValueError, match=re.escape(
                f"the cell ('RW5_MIDDLE', {cell}) is listed more than once")):
            small_config(algorithms=algorithms)

    # values taken when each cell's text was built from float(lam) and
    # float(alpha), or the schedule's repr: a key that moves moves every seed
    @pytest.mark.parametrize("task, config, key", [
        ("RW5_LEFT", AlgoConfig(Algorithm.TD, lam=1, alpha=0.25), 765602084),
        ("RW5_LEFT", AlgoConfig(Algorithm.TD, lam=0.0, alpha=1), 249650723),
        ("RW5_LEFT", AlgoConfig(Algorithm.TD, lam=np.float64(0.4),
                                alpha=0.25), 2303233715),
        ("BOYAN13", AlgoConfig(Algorithm.DTD, lam=0.9,
                               alpha=DecayingAlpha(0.5, 100.0)), 180986370),
    ])
    def test_cell_key_is_pinned(self, task, config, key):
        assert cell_key(task, config) == key

    def test_equal_schedules_share_a_key(self):
        schedules = [DecayingAlpha(0.2, 50), DecayingAlpha(0.2, 50.0),
                     DecayingAlpha(np.float64(0.2), np.int64(50))]
        assert schedules[0] == schedules[1] == schedules[2]
        keys = {cell_key("RW5_LEFT", AlgoConfig(Algorithm.TD, 0.5, alpha))
                for alpha in schedules}
        assert keys == {cell_key("RW5_LEFT", AlgoConfig(
            Algorithm.TD, 0.5, DecayingAlpha(0.2, 50.0)))}

    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    @pytest.mark.parametrize("field", ["runs", "steps", "eval_every",
                                       "base_seed"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be an integer, not {value!r}")):
            small_config(**{field: value})

    def test_numpy_integer_counts_are_stored_as_ints(self):
        config = small_config(runs=np.int64(3), steps=np.int32(200),
                              eval_every=np.uint16(50), base_seed=np.int8(0))
        assert all(type(getattr(config, field)) is int for field in (
            "runs", "steps", "eval_every", "base_seed"))
        assert config == small_config()
        assert run_experiment(config) == run_experiment(small_config())


class TestSimulateCurves:
    @pytest.mark.parametrize("field, value", [
        ("eval_every", 50.5), ("steps", 100.0), ("steps", -5),
        ("eval_every", -5), ("steps", True), ("eval_every", True)])
    def test_counts_must_be_nonnegative_integers(self, field, value):
        mrp, fm = resolve_task("RW5_MIDDLE")
        config = AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1)
        counts = {"steps": 100, "eval_every": 50, field: value}
        message = (f"{field} must be an integer, not {value!r}"
                   if value != -5 else f"{field} must be at least 0, not -5")
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_curves(mrp, fm, config,
                            run_seed_sequences("RW5_MIDDLE", config, 0, 1),
                            **counts)

    def test_zero_counts_simulate_nothing(self):
        mrp, fm = resolve_task("RW5_MIDDLE")
        config = AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1)
        out = simulate_curves(mrp, fm, config,
                              run_seed_sequences("RW5_MIDDLE", config, 0, 2),
                              steps=0, eval_every=0)
        assert out.curves.shape == (2, 0) and not out.final_theta.any()

    def test_deterministic_given_seeds(self):
        mrp, fm = resolve_task("RW5_MIDDLE")
        config = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.2,
                            emphasis=EmphasisSpec("count_inverse"))
        seqs = run_seed_sequences("RW5_MIDDLE", config, 0, 4)
        a = simulate_curves(mrp, fm, config, seqs, 300, eval_every=50)
        seqs = run_seed_sequences("RW5_MIDDLE", config, 0, 4)
        b = simulate_curves(mrp, fm, config, seqs, 300, eval_every=50)
        np.testing.assert_array_equal(a.curves, b.curves)
        np.testing.assert_array_equal(a.final_theta, b.final_theta)

    def test_rows_independent_of_batch_width(self):
        mrp, fm = resolve_task("RW5_LEFT")
        config = AlgoConfig(Algorithm.ETD, lam=0.4, alpha=0.05)
        seqs = run_seed_sequences("RW5_LEFT", config, 7, 3)
        batched = simulate_curves(mrp, fm, config, seqs, 400, eval_every=100)
        for i in range(3):
            solo = simulate_curves(mrp, fm, config, [seqs[i]], 400,
                                   eval_every=100)
            np.testing.assert_array_equal(solo.curves[0], batched.curves[i])
            np.testing.assert_array_equal(solo.final_theta[0],
                                          batched.final_theta[i])

    def test_matches_stepwise_reference_on_deterministic_chain(self):
        # deterministic three-state loop: the batched runner must reproduce
        # a hand-driven update sequence exactly
        from discerning_td import MarkovRewardProcess, make_feature_map
        mrp = MarkovRewardProcess(
            3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [1.0, -0.5, 2.0],
            [0, 0, 0], [1, 0, 0], 1.0)
        fm = make_feature_map("tabular", 3)
        config = AlgoConfig(Algorithm.TD, lam=0.7, alpha=0.1)
        seqs = run_seed_sequences("X", config, 0, 1)
        out = simulate_curves(mrp, fm, config, seqs, 9, record_theta=True)
        theta = np.zeros(3)
        trace = np.zeros(3)
        history = []
        for _ in range(3):  # three episodes of three steps
            trace[:] = 0.0
            for s, r, nxt in ((0, 1.0, 1), (1, -0.5, 2), (2, 2.0, TERMINAL)):
                phi_next = np.zeros(3) if nxt == TERMINAL else np.eye(3)[nxt]
                delta = r + phi_next @ theta - theta[s]
                trace = 0.7 * trace + np.eye(3)[s]
                theta = theta + 0.1 * delta * trace
                history.append(theta.copy())
        np.testing.assert_allclose(out.theta_history[:, 0, :],
                                   np.array(history), atol=1e-15)

    def test_mspbe_decreases_on_walk(self):
        mrp, fm = resolve_task("RW5_MIDDLE")
        config = AlgoConfig(Algorithm.TD, lam=0.8, alpha=0.05)
        seqs = run_seed_sequences("RW5_MIDDLE", config, 0, 10)
        out = simulate_curves(mrp, fm, config, seqs, 3000, eval_every=100)
        early = out.curves[:, 0].mean()
        late = out.curves[:, -1].mean()
        assert late < 0.5 * early

    def test_eval_grid_count(self):
        mrp, fm = resolve_task("RW5_MIDDLE")
        config = AlgoConfig(Algorithm.TD, lam=0.0, alpha=0.1)
        seqs = run_seed_sequences("RW5_MIDDLE", config, 0, 1)
        out = simulate_curves(mrp, fm, config, seqs, 5000, eval_every=100)
        assert len(out.eval_steps) == 50
        assert out.eval_steps[0] == 100 and out.eval_steps[-1] == 5000

    def test_evaluation_does_not_consume_randomness(self):
        mrp, fm = resolve_task("RW5_MIDDLE")
        config = AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1)
        seqs = run_seed_sequences("RW5_MIDDLE", config, 0, 2)
        dense = simulate_curves(mrp, fm, config, seqs, 400, eval_every=50)
        seqs = run_seed_sequences("RW5_MIDDLE", config, 0, 2)
        sparse = simulate_curves(mrp, fm, config, seqs, 400, eval_every=200)
        np.testing.assert_array_equal(dense.final_theta, sparse.final_theta)
        np.testing.assert_array_equal(dense.curves[:, [3, 7]], sparse.curves)

    def test_diverged_cells_record_inf(self):
        mrp, fm = resolve_task("BOYAN13")
        config = AlgoConfig(Algorithm.TD, lam=1.0, alpha=1.0)
        seqs = run_seed_sequences("BOYAN13", config, 0, 2)
        out = simulate_curves(mrp, fm, config, seqs, 2000, eval_every=500)
        assert np.all(out.curves[:, -1] >= 0.0)  # inf is fine, nan is not

    @pytest.mark.parametrize("task", ["RW5_LEFT", "BOYAN13"])
    def test_curve_points_are_the_mspbe_of_the_weights(self, task):
        # the sweep loop's batched error and analysis.mspbe agree on every
        # recorded row and step
        mrp, fm = resolve_task(task)
        cells = [AlgoConfig(Algorithm.TD, lam=0.9, alpha=0.1),
                 AlgoConfig(Algorithm.DTD, lam=0.5, alpha=0.05,
                            emphasis=EmphasisSpec("count_inverse")),
                 AlgoConfig(Algorithm.ETD, lam=0.0, alpha=0.02)]
        configs = [c for c in cells for _ in range(2)]
        seqs = [seq for c in cells
                for seq in run_seed_sequences(task, c, 0, 2)]
        out = simulate_curves(mrp, fm, configs, seqs, 300, eval_every=60,
                              record_theta=True)
        for j, step in enumerate(out.eval_steps):
            for row, theta in enumerate(out.theta_history[step - 1]):
                assert out.curves[row, j] == pytest.approx(
                    mspbe(theta, mrp, fm), rel=1e-12)

    def test_count_emphasis_keeps_memory_small(self):
        # 4,800 count-inverse rows: each chunk's running counts are held
        # as (steps, states, rows) integers, in pieces of bounded size, and
        # the weights, rewards and states of the chunk as (steps, rows)
        mrp, fm = resolve_task("RW5_LEFT")
        config = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=2.0 ** -6,
                            emphasis=EmphasisSpec("count_inverse"))
        seqs = run_seed_sequences("RW5_LEFT", config, 0, 4800)
        tracemalloc.start()
        try:
            out = simulate_curves(mrp, fm, config, seqs, 200, eval_every=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20
        assert np.all(np.isfinite(out.curves))

    def test_adaptive_emphasis_keeps_memory_small(self):
        # 500 BOYAN13 rows, 300 of them adaptive: a step's coefficients are
        # taken from the chunk's weights, so no (steps, rows) coefficient
        # array is held for the chunk
        mrp, fm = resolve_task("BOYAN13")
        configs, seqs = [], []
        for algo in Algorithm:
            for alpha in (2.0 ** -6, 2.0 ** -3):
                cell = AlgoConfig(algo, lam=0.9, alpha=alpha,
                                  emphasis=EmphasisSpec("abs_expected_td"))
                configs += [cell] * 50
                seqs += run_seed_sequences("BOYAN13", cell, 0, 50)
        tracemalloc.start()
        try:
            out = simulate_curves(mrp, fm, configs, seqs, 300,
                                  eval_every=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert out.curves.shape == (500, 3)


def mixed_cells(n_states):
    """Every learner under every emphasis kind, with varied lambda/alpha."""
    kinds = [EmphasisSpec("constant", constant=0.7),
             EmphasisSpec("table", table=np.linspace(0.2, 1.0, n_states)),
             EmphasisSpec("noise_prior"), EmphasisSpec("count_inverse"),
             EmphasisSpec("abs_expected_td", epsilon_floor=0.01)]
    lams = (0.0, 0.5, 0.9, 1.0)
    alphas = (0.02, 0.05, 0.1)
    cells = []
    for i, algo in enumerate(Algorithm):
        for j, emphasis in enumerate(kinds):
            cells.append(AlgoConfig(algo, lam=lams[(i + j) % 4],
                                    alpha=alphas[(2 * i + j) % 3],
                                    emphasis=emphasis))
    return cells


def batched(task, cells, runs, base_seed=0):
    """Per-row configs and seed streams of ``cells`` in cell-major order."""
    configs, seqs = [], []
    for cell in cells:
        configs.extend([cell] * runs)
        seqs.extend(run_seed_sequences(task, cell, base_seed, runs))
    return configs, seqs


def assert_cells_match(out, task, cells, runs, steps, eval_every, skip=()):
    """Each cell's rows of a batched run equal that cell's own call."""
    mrp, fm = resolve_task(task)
    for i, cell in enumerate(cells):
        if i in skip:
            continue
        rows = slice(i * runs, (i + 1) * runs)
        seqs = run_seed_sequences(task, cell, 0, runs)
        solo = simulate_curves(mrp, fm, cell, seqs, steps, eval_every)
        np.testing.assert_array_equal(out.curves[rows], solo.curves)
        np.testing.assert_array_equal(out.final_theta[rows],
                                      solo.final_theta)


class TestCellBatching:
    @pytest.mark.parametrize("task", ["RW5_LEFT", "NOISY10:1"])
    def test_mixed_rows_match_single_cells(self, task):
        mrp, fm = resolve_task(task)
        cells = mixed_cells(mrp.n_states)
        configs, seqs = batched(task, cells, runs=3)
        out = simulate_curves(mrp, fm, configs, seqs, 300, 50)
        assert out.curves.shape == (3 * len(cells), 6)
        assert_cells_match(out, task, cells, 3, 300, 50)

    @pytest.mark.parametrize("budget", [None, 350])
    def test_draws_span_several_chunks(self, monkeypatch, budget):
        # 50 rows draw in chunks of budget // 50 steps and end on a partial
        # chunk; the reference draws every step in one chunk
        task, runs, steps = "NOISY10:1", 25, 3000
        if budget is not None:
            monkeypatch.setattr(harness, "DRAW_BUDGET", budget)
            monkeypatch.setattr(harness, "CHUNK_FLOOR", 1)
        chunk = harness.DRAW_BUDGET // (2 * runs)
        assert steps > 2 * chunk and steps % chunk != 0
        mrp, fm = resolve_task(task)
        cells = [AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.05,
                            emphasis=EmphasisSpec("noise_prior")),
                 AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.02)]
        configs, seqs = batched(task, cells, runs)
        out = simulate_curves(mrp, fm, configs, seqs, steps, 500)
        monkeypatch.setattr(harness, "DRAW_BUDGET", 2 * runs * steps)
        whole = simulate_curves(mrp, fm, configs, seqs, steps, 500)
        np.testing.assert_array_equal(out.curves, whole.curves)
        np.testing.assert_array_equal(out.final_theta, whole.final_theta)

    @pytest.mark.parametrize("budget, widths", [(4 * 100, [100, 50]),
                                                (4 * 25, [64, 64, 22])])
    def test_chunks_keep_the_step_floor(self, monkeypatch, budget, widths):
        # 4 rows: a budget of 25 steps per chunk is raised to CHUNK_FLOOR
        seen = []

        def recording_path(mrp, s, ranks, restarts):
            seen.append(ranks.shape[1])
            return restart_path(mrp, s, ranks, restarts)

        monkeypatch.setattr(harness, "DRAW_BUDGET", budget)
        monkeypatch.setattr(harness, "restart_path", recording_path)
        mrp, fm = resolve_task("RW5_LEFT")
        config = AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1)
        out = simulate_curves(mrp, fm, config,
                              run_seed_sequences("RW5_LEFT", config, 0, 4),
                              150, 50)
        assert harness.CHUNK_FLOOR == 64 and seen == widths
        monkeypatch.setattr(harness, "DRAW_BUDGET", 4 * 150)
        whole = simulate_curves(mrp, fm, config,
                                run_seed_sequences("RW5_LEFT", config, 0, 4),
                                150, 50)
        np.testing.assert_array_equal(out.curves, whole.curves)

    def test_rows_read_the_documented_stream(self, monkeypatch):
        # gamma = 0, tabular TD(0) at alpha 1 sets theta[s] to each sampled
        # reward, so theta's history replays the stream: one start uniform,
        # then steps transition uniforms, restart uniforms and noise normals
        from discerning_td import MarkovRewardProcess, make_feature_map
        p = np.array([[0.3, 0.3, 0.2], [0.2, 0.3, 0.3], [0.3, 0.2, 0.2]])
        rho = np.array([0.5, 0.3, 0.2])
        r_bar = np.array([1.0, 2.0, 3.0])
        sigma = np.array([0.5, 1.0, 1.5])
        mrp = MarkovRewardProcess(3, p, r_bar, sigma, rho, 0.0)
        fm = make_feature_map("tabular", 3)
        config = AlgoConfig(Algorithm.TD, lam=0.0, alpha=1.0)
        seqs = run_seed_sequences("X", config, 0, 3)
        steps = 500
        monkeypatch.setattr(harness, "DRAW_BUDGET", 3 * 7)
        monkeypatch.setattr(harness, "CHUNK_FLOOR", 1)
        out = simulate_curves(mrp, fm, config, seqs, steps, record_theta=True)
        for row, seq in enumerate(seqs):
            rng = np.random.default_rng(seq)
            u_init = rng.random()
            u_trans, u_restart = rng.random(steps), rng.random(steps)
            z = rng.standard_normal(steps)
            state = min(int(np.searchsorted(np.cumsum(rho), u_init, "right")),
                        2)
            theta = np.zeros(3)
            for t in range(steps):
                theta[state] += r_bar[state] + sigma[state] * z[t] \
                    - theta[state]
                np.testing.assert_array_equal(out.theta_history[t, row],
                                              theta)
                nxt = int(np.searchsorted(np.cumsum(p[state]), u_trans[t],
                                          "right"))
                state = nxt if nxt < 3 else min(int(np.searchsorted(
                    np.cumsum(rho), u_restart[t], "right")), 2)

    def test_diverged_row_leaves_neighbours_unchanged(self):
        # TD(1) at alpha 8 overflows to NaN weights within the run
        mrp, fm = resolve_task("BOYAN13")
        cells = [AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.01,
                            emphasis=EmphasisSpec("abs_expected_td")),
                 AlgoConfig(Algorithm.TD, lam=1.0, alpha=8.0),
                 AlgoConfig(Algorithm.PTD, lam=0.5, alpha=0.02,
                            emphasis=EmphasisSpec("count_inverse"))]
        configs, seqs = batched("BOYAN13", cells, runs=2)
        out = simulate_curves(mrp, fm, configs, seqs, 2000, 500)
        assert not np.any(np.isfinite(out.final_theta[2:4]))
        assert np.all(np.isinf(out.curves[2:4, -1]))
        assert np.all(np.isfinite(out.curves[[0, 1, 4, 5]]))
        assert_cells_match(out, "BOYAN13", cells, 2, 2000, 500, skip=(1,))

    @pytest.mark.parametrize("task", ["BOYAN13", "NOISY10:1",
                                      "RW5_DEPENDENT"])
    @pytest.mark.parametrize("kind", ["abs_expected_td", "noise_prior"])
    def test_one_row_call_matches_its_row_in_any_batch(self, task, kind):
        # adaptive emphasis feeds a last-bit difference back through θ: on
        # BOYAN13 it once grew to 0.138 between a one-row and a two-row call
        mrp, fm = resolve_task(task)
        config = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=2 ** -4,
                            emphasis=EmphasisSpec(kind))
        seqs = run_seed_sequences(task, config, 0, 50)
        alone, *wider = [simulate_curves(mrp, fm, config, seqs[:rows], 5000,
                                         100) for rows in (1, 2, 50)]
        for out in wider:
            assert out.final_theta[0].tobytes() == alone.final_theta.tobytes()
            assert out.curves[0].tobytes() == alone.curves.tobytes()

    def test_config_count_must_match_seeds(self):
        mrp, fm = resolve_task("RW5_LEFT")
        config = AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1)
        seqs = run_seed_sequences("RW5_LEFT", config, 0, 3)
        with pytest.raises(ValueError, match="one config per seed"):
            simulate_curves(mrp, fm, [config] * 2, seqs, 100)

    def test_run_experiment_matches_per_cell_loop(self):
        task = "RW5_LEFT"
        mrp, fm = resolve_task(task)
        cells = mixed_cells(mrp.n_states)[::3]
        config = small_config(task=task, algorithms=cells, runs=3, steps=300,
                              base_seed=4)
        expected = []
        for cell in cells:
            seqs = run_seed_sequences(task, cell, 4, 3)
            out = simulate_curves(mrp, fm, cell, seqs, 300, 50)
            for run in range(3):
                for j, step in enumerate(out.eval_steps):
                    expected.append(CurveRecord(
                        task, cell.algorithm.value, cell.lam, cell.alpha,
                        emphasis_label(cell), 4 + run, int(step),
                        float(out.curves[run, j])))
        assert run_experiment(config) == expected


def theta_digests(out):
    """sha256 of the final weights and of the weight history."""
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in (out.final_theta, out.theta_history)]


class TestThetaBytes:
    """sha256 of the weights themselves, pinned when they were first
    written: the curve goldens see θ only through the MSPBE, so a change to
    the kernel's arithmetic that moves one bit of θ fails here."""

    @pytest.mark.parametrize("adaptive, digests", [
        (True,
         ["ef40a58247d630f0f27e774e1127a6b3e6fcce48ed4359f78b53b80b38c4b8de",
          "3f2d1058ab392d6d87bda568efb6222332b64ec69a00dd4d1e2d5e5f221c4eb1"]),
        (False,
         ["66dc4c1858a9a597c1a52d5267fe6a3b730bbd61d64e4a3a3fac03329e66d783",
          "be58ac1626ea16cee54fa7cfede8df18a4ce2251ade78e0712dd43a79bdfd5d5"]),
        ("block",
         ["931870b529cad6b30492368d6e4646ce5196568c235eb1c51aafabb2dc29a434",
          "d13b79478d1d14d17bc74d3db945663d5bb6e6c2f30b4235117c69abdd2f31ad"])])
    def test_mixed_batch_across_chunks(self, monkeypatch, adaptive, digests):
        # every learner under every emphasis kind, so the adaptive rows
        # (DTD, PTD, TDW under abs_expected_td) are not one block, or are
        # listed last as one ("block"), or every kind but the adaptive one;
        # plus a TD(1) cell at alpha 8 that overflows near step 670; twelve
        # chunks, the last partial
        task, runs, steps = "BOYAN13", 2, 800
        mrp, fm = resolve_task(task)
        cells = [c for c in mixed_cells(mrp.n_states) if adaptive
                 or c.emphasis.kind is not EmphasisKind.ABS_EXPECTED_TD_ERROR]
        if adaptive == "block":
            cells.sort(key=lambda c: c.algorithm.takes_emphasis and c.emphasis
                       .kind is EmphasisKind.ABS_EXPECTED_TD_ERROR)
        cells.append(AlgoConfig(Algorithm.TD, lam=1.0, alpha=8.0))
        configs, seqs = batched(task, cells, runs)
        monkeypatch.setattr(harness, "CHUNK_FLOOR", 8)
        monkeypatch.setattr(harness, "DRAW_BUDGET", 70 * len(configs))
        out = simulate_curves(mrp, fm, configs, seqs, steps, 100,
                              record_theta=True)
        assert not np.any(np.isfinite(out.final_theta[-runs:]))
        assert theta_digests(out) == digests

    @pytest.mark.parametrize("algo, emphasis, digests", [
        (Algorithm.DTD, EmphasisSpec("count_inverse"),
         ["6608b7671396cd9becebcfb13707804a534dd6683f86b8fb8f14f11affe97753",
          "e7254d66344def38f7a5b28875cb1de61b218b9fe3b8ee713e83253a6ee10f3f"]),
        (Algorithm.ETD, EmphasisSpec("constant"),
         ["7d28a68386cd74b30c1956f1112b55bbb1080d4524534e478ff20854cbce02c6",
          "e46030b1c78b92446c724f0ca4b5e816437bc337fcf2a020e1f35a77a13d0572"]),
        (Algorithm.PTD, EmphasisSpec("abs_expected_td"),
         ["6aea6da212ecb33bd1dde6c9c6730d5d7691c37e44dacb66d7d687d732357abf",
          "8685549df53f00e68d8cc1298dcc88c21a4b0de6634a5014f2c2b568bf83fdb4"])])
    def test_decaying_step_size(self, algo, emphasis, digests):
        # re-pinned when cell_key began to read the schedule's b as 50.0
        mrp, fm = resolve_task("RW5_LEFT")
        config = AlgoConfig(algo, lam=0.9, alpha=DecayingAlpha(0.2, 50),
                            emphasis=emphasis)
        out = simulate_curves(mrp, fm, config,
                              run_seed_sequences("RW5_LEFT", config, 3, 4),
                              400, 100, record_theta=True)
        assert theta_digests(out) == digests


def saved_chain(path, initial_dist, seed):
    """A chain over ``len(initial_dist)`` states that exits with share 0.3
    from every state, with reward noise, discount 0.9 and three features,
    written to an environment file and read back."""
    rng = np.random.default_rng(seed)
    n = len(initial_dist)
    p = rng.random((n, n)) + 0.1
    p *= 0.7 / p.sum(axis=1, keepdims=True)
    mrp = MarkovRewardProcess(n, p, rng.normal(size=n), rng.uniform(0, 0.5, n),
                              initial_dist, 0.9)
    save_environment(path, mrp, FeatureMap(rng.random((n, 3))))
    return load_environment(path)


class TestStartBytes:
    """sha256 of the final weights and curves of every learner under every
    emphasis kind on chains read from environment files, pinned before
    point-mass starts stopped drawing restart uniforms: the start
    distribution is one interior state, one state whose initial CDF is
    exactly 1.0 from its first entry on, or two states."""

    @pytest.mark.parametrize("initial_dist, digests", [
        ([0, 0, 0, 1, 0, 0],
         ["9c39bf6dd3aa6901f0371ae354949136ccb6b9b4df2c6aa993c748f881cc953a",
          "2385b68500ef6783aed52a8b954a6b2938db8a7ae0bba179a46dedffd9ddf410"]),
        ([1, 0, 0, 0],
         ["8836a842ed8d43697d3ecb2ec2378874918c7eaeb9c66784ba848f75fada04fe",
          "77df3a22a4f5f99d39b7b0de8175a2a09eb85d20b24696dddbf5ae5c053abcbc"]),
        ([0, 0.25, 0, 0.75, 0],
         ["400d2025bcc371c2560eadf4fc9af8cb051b30758680c2247eb739f3cebcb98f",
          "5c1715a01ce392241978c6f91315c200521e8c63d66b85f72d78692a4deefd3a"])],
        ids=["interior", "first-of-four", "two-states"])
    def test_mixed_batch(self, tmp_path, monkeypatch, initial_dist, digests):
        mrp, fm = saved_chain(tmp_path / "chain.json", initial_dist, 5)
        cells = mixed_cells(mrp.n_states)
        configs, seqs = batched("CHAIN", cells, runs=2)
        monkeypatch.setattr(harness, "CHUNK_FLOOR", 8)
        monkeypatch.setattr(harness, "DRAW_BUDGET", 90 * len(configs))
        out = simulate_curves(mrp, fm, configs, seqs, 600, 100)
        assert np.isfinite(out.curves).all()
        assert [hashlib.sha256(a.tobytes()).hexdigest()
                for a in (out.final_theta, out.curves)] == digests


class TestRunExperiment:
    def test_record_grid(self):
        records = run_experiment(small_config())
        assert len(records) == 3 * 4  # runs x eval points
        assert {r.step for r in records} == {50, 100, 150, 200}
        assert {r.seed for r in records} == {0, 1, 2}
        assert all(r.task == "RW5_MIDDLE" and r.algorithm == "TD"
                   for r in records)

    def test_determinism(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a == b

    def test_adding_algorithm_does_not_perturb_existing(self):
        td_only = run_experiment(small_config())
        both = run_experiment(small_config(algorithms=[
            AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1),
            AlgoConfig(Algorithm.DTD, lam=0.5, alpha=0.1),
        ]))
        td_from_both = [r for r in both if r.algorithm == "TD"]
        assert td_from_both == td_only

    def test_emphasis_labels(self):
        spec = EmphasisSpec(EmphasisKind.NOISE_PRIOR)
        records = run_experiment(small_config(
            task="NOISY10:0",
            algorithms=[AlgoConfig(Algorithm.TD, 0.5, 0.1, emphasis=spec),
                        AlgoConfig(Algorithm.DTD, 0.5, 0.1, emphasis=spec)]))
        labels = {r.algorithm: r.emphasis_kind for r in records}
        assert labels == {"TD": "none", "DTD": "noise_prior"}

    def test_environment_override(self):
        env = resolve_task("RW5_MIDDLE")
        records = run_experiment(small_config(task="CUSTOM"),
                                 environment=env)
        assert records[0].task == "CUSTOM"


class TestSelectBest:
    def make_records(self, cells):
        records = []
        for (algorithm, lam, alpha), finals in cells.items():
            for seed, value in enumerate(finals):
                records.append(CurveRecord("T", algorithm, lam, alpha,
                                           "none", seed, 100, value))
        return records

    def test_single_cell(self):
        records = self.make_records({("TD", 0.5, 0.1): [0.3, 0.5]})
        best = select_best(records)[("T", "TD")]
        assert best.score == pytest.approx(0.4)
        assert best.lam == 0.5 and best.alpha == 0.1

    def test_picks_smaller_mean(self):
        records = self.make_records({
            ("TD", 0.5, 0.1): [0.3], ("TD", 0.9, 0.2): [0.2]})
        best = select_best(records)[("T", "TD")]
        assert best.lam == 0.9

    def test_tie_breaks_smaller_alpha_then_lambda(self):
        records = self.make_records({
            ("TD", 0.9, 0.2): [0.2], ("TD", 0.5, 0.1): [0.2],
            ("TD", 0.4, 0.1): [0.2]})
        best = select_best(records)[("T", "TD")]
        assert best.alpha == 0.1 and best.lam == 0.4

    def test_diverged_cells_rank_last(self):
        records = self.make_records({
            ("TD", 0.5, 0.1): [float("inf")], ("TD", 0.9, 0.2): [5.0]})
        assert select_best(records)[("T", "TD")].lam == 0.9

    def test_auc_criterion(self):
        records = [
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, 1.0),
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 100, 0.0),
            CurveRecord("T", "TD", 0.9, 0.1, "none", 0, 50, 0.4),
            CurveRecord("T", "TD", 0.9, 0.1, "none", 0, 100, 0.3),
        ]
        by_final = select_best(records, "final_mspbe")[("T", "TD")]
        by_auc = select_best(records, "auc")[("T", "TD")]
        assert by_final.lam == 0.5
        assert by_auc.lam == 0.9

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            select_best([])


class TestAggregate:
    def test_hand_computed_std(self):
        records = [
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, 0.1),
            CurveRecord("T", "TD", 0.5, 0.1, "none", 1, 50, 0.3),
        ]
        agg = aggregate(records)
        assert len(agg) == 1
        assert agg[0].mean_mspbe == pytest.approx(0.2)
        assert agg[0].std_mspbe == pytest.approx(np.sqrt(0.02), abs=1e-12)
        assert agg[0].n_runs == 2

    def test_single_run_zero_std(self):
        records = [CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, 0.1)]
        assert aggregate(records)[0].std_mspbe == 0.0

    def test_identical_runs_zero_std(self):
        records = [CurveRecord("T", "TD", 0.5, 0.1, "none", s, 50, 0.25)
                   for s in range(50)]
        assert aggregate(records)[0].std_mspbe == 0.0

    def test_mixed_cells_rejected(self):
        records = [
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, 0.1),
            CurveRecord("T", "TD", 0.9, 0.1, "none", 0, 50, 0.1),
        ]
        with pytest.raises(ValueError):
            aggregate(records)

    def test_aggregate_all_groups(self):
        records = [
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, 0.1),
            CurveRecord("T", "DTD", 0.5, 0.1, "count_inverse", 0, 50, 0.2),
        ]
        aggs = aggregate_all(records)
        assert [a.algorithm for a in aggs] == ["TD", "DTD"]


class TestEmit:
    def test_csv_header_and_round_trip(self, tmp_path):
        records = run_experiment(small_config())
        path = tmp_path / "curves.csv"
        emit(records, path)
        text = path.read_text()
        assert text.startswith(
            "task,algorithm,lambda,alpha,emphasis_kind,seed,step,mspbe\n")
        assert text.endswith("\n")
        assert load_records(path) == records

    def test_json_round_trip(self, tmp_path):
        records = run_experiment(small_config())
        path = tmp_path / "curves.json"
        emit(records, path, fmt="json")
        assert load_records(path) == records

    def test_empty_file_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], path, kind="curve")
        assert path.read_text() == \
            "task,algorithm,lambda,alpha,emphasis_kind,seed,step,mspbe\n"

    def test_aggregate_columns(self, tmp_path):
        records = run_experiment(small_config())
        aggs = aggregate_all(records)
        path = tmp_path / "agg.csv"
        emit(aggs, path)
        header = path.read_text().splitlines()[0]
        assert header == ("task,algorithm,lambda,alpha,emphasis_kind,step,"
                          "mean_mspbe,std_mspbe,n_runs")
        assert load_aggregates(path) == aggs

    def test_byte_identical_rewrites(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit(run_experiment(small_config()), a)
        emit(run_experiment(small_config()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], tmp_path / "x.parquet", fmt="parquet")

    def test_empty_aggregate_header(self, tmp_path):
        path = tmp_path / "agg.csv"
        emit([], path, kind="aggregate")
        assert path.read_text() == ("task,algorithm,lambda,alpha,"
                                    "emphasis_kind,step,mean_mspbe,"
                                    "std_mspbe,n_runs\n")


def reference_select_best(records, criterion):
    """The per-record selection that the table replaced."""
    by_cell = {}
    for rec in records:
        cell = (rec.task, rec.algorithm, rec.lam, rec.alpha,
                rec.emphasis_kind)
        by_cell.setdefault(cell, {}).setdefault(rec.step, []).append(
            rec.mspbe)
    best = {}
    for cell, by_step in by_cell.items():
        if criterion == "final_mspbe":
            score = float(np.mean(by_step[max(by_step)]))
        else:
            score = float(np.mean([np.mean(v) for v in by_step.values()]))
        if not np.isfinite(score):
            score = float("inf")
        order = (score, cell[3], cell[2])
        if cell[:2] not in best or order < best[cell[:2]][0]:
            best[cell[:2]] = (order, cell, score)
    return {key: (cell, score) for key, (_, cell, score) in best.items()}


def reference_aggregate_all(records):
    """The per-record aggregation that the table replaced."""
    groups = {}
    for rec in records:
        cell = (rec.task, rec.algorithm, rec.lam, rec.alpha,
                rec.emphasis_kind)
        groups.setdefault(cell, {}).setdefault(rec.step, []).append(
            rec.mspbe)
    out = []
    for cell, by_step in groups.items():
        for step in sorted(by_step):
            values = np.asarray(by_step[step])
            with np.errstate(invalid="ignore"):
                std = float(np.std(values, ddof=1)) if len(values) > 1 \
                    else 0.0
            out.append((cell, step, float(np.mean(values)),
                        std if np.isfinite(std) else float("inf"),
                        len(values)))
    return out


def diverging_config(runs=10):
    """Four RW5_LEFT cells, one of which diverges (alpha 8, lambda 1)."""
    count = EmphasisSpec("count_inverse")
    cells = [AlgoConfig(Algorithm.TD, lam=1.0, alpha=8.0),
             AlgoConfig(Algorithm.TD, lam=0.9, alpha=0.0625),
             AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.0625,
                        emphasis=count),
             AlgoConfig(Algorithm.DTD, lam=0.4, alpha=0.25, emphasis=count)]
    return small_config(task="RW5_LEFT", algorithms=cells, runs=runs,
                        steps=1000, eval_every=100, base_seed=2)


class TestCurveTable:
    def test_length_is_cells_runs_points(self):
        config = diverging_config(runs=3)
        table = run_experiment(config)
        assert isinstance(table, CurveTable)
        assert len(table) == 4 * 3 * 10
        assert len(table.cells) == 4 and len(table.run_starts()) == 4 * 3

    def test_sequence_of_records(self):
        table = run_experiment(small_config())
        records = list(table)
        assert all(isinstance(r, CurveRecord) for r in records)
        assert table[0] == records[0] and table[-1] == records[-1]
        assert table[2:5] == records[2:5]
        assert table == records and records == table
        assert table != records[:-1]
        assert CurveTable.from_records(records) == table
        with pytest.raises(IndexError):
            table[len(records)]

    def test_duplicate_configs_share_a_cell(self):
        # two configs of one cell would merge their runs into one cell of
        # repeated seeds, so the config refuses them
        algo = AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.1)
        with pytest.raises(ValueError, match="listed more than once"):
            small_config(algorithms=[algo, algo])

    def test_ragged_records_round_trip(self, tmp_path):
        records = [
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 100, 0.3),
            CurveRecord("U", "DTD", 0.9, 0.2, "count_inverse", 4, 50, 0.1),
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, float("inf")),
            CurveRecord("T", "TD", 0.5, 0.1, "none", 1, 100, 0.2),
        ]
        table = CurveTable.from_records(records)
        assert table == records and len(table.cells) == 2
        assert table.run_starts().tolist() == [0, 1, 2, 3]
        for fmt in ("csv", "json"):
            path = tmp_path / f"ragged.{fmt}"
            emit(records, path, fmt=fmt)
            assert load_records(path) == records
            assert load_records(path) == table

    def test_numpy_scalars_write_as_python_numbers(self, tmp_path):
        records = [CurveRecord("T", "TD", np.float64(0.5), np.float64(0.1),
                               "none", np.int64(3), np.int64(50),
                               np.float64(0.25))]
        path = tmp_path / "np.csv"
        emit(records, path)
        assert path.read_text().splitlines()[1] == "T,TD,0.5,0.1,none,3,50,0.25"
        assert load_records(path) == records
        emit(aggregate_all(records), path)
        assert load_aggregates(path)[0].lam == 0.5

    def test_rejects_negative_mspbe_and_repeated_cells(self):
        cell = ("T", "TD", 0.5, 0.1, "none")
        with pytest.raises(ValueError, match="nonnegative"):
            CurveTable([cell], [0], [0], [50], [-1.0])
        with pytest.raises(ValueError, match="distinct"):
            CurveTable([cell, cell], [0, 1], [0, 0], [50, 50], [0.1, 0.2])
        with pytest.raises(ValueError, match="one length"):
            CurveTable([cell], [0, 0], [0], [50], [0.1])

    def test_diverged_runs_read_the_last_point(self):
        table = run_experiment(diverging_config(runs=3))
        diverged = table.diverged_runs()
        assert diverged == {("RW5_LEFT", "TD", 1.0, 8.0, "none"): 3}
        ragged = CurveTable.from_records([
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 50, float("inf")),
            CurveRecord("T", "TD", 0.5, 0.1, "none", 0, 100, 0.1),
            CurveRecord("T", "TD", 0.5, 0.1, "none", 1, 50, 0.1),
            CurveRecord("T", "TD", 0.5, 0.1, "none", 1, 100, float("inf")),
        ])
        assert ragged.diverged_runs() == {("T", "TD", 0.5, 0.1, "none"): 1}
        assert CurveTable.from_records([]).diverged_runs() == {}

    def test_loader_refuses_another_header(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("seed,task\n0,T\n")
        with pytest.raises(ValueError, match="header"):
            load_records(path)


class TestTableEquivalence:
    """select_best and aggregate_all give the same answers, bit for bit, on
    a table, on its list of records and by the per-record reference."""

    @pytest.mark.parametrize("criterion", ["final_mspbe", "auc"])
    def test_select_best_on_table_and_list(self, criterion):
        table = run_experiment(diverging_config())
        records = list(table)
        by_table = select_best(table, criterion)
        assert by_table == select_best(records, criterion)
        want = reference_select_best(records, criterion)
        assert {key: ((b.task, b.algorithm, b.lam, b.alpha, b.emphasis_kind),
                      b.score) for key, b in by_table.items()} == want

    @pytest.mark.parametrize("criterion", ["final_mspbe", "auc"])
    def test_tie_breaks_and_inf_scores(self, criterion):
        records = []
        cells = [(0.9, 0.2, 0.2), (0.5, 0.1, 0.2), (0.4, 0.1, 0.2),
                 (0.0, 0.05, float("inf")), (0.3, 0.1, 0.2)]
        for lam, alpha, value in cells:
            for seed in range(9):
                for step in (100, 50):  # steps out of order
                    records.append(CurveRecord("T", "TD", lam, alpha, "none",
                                               seed, step, value))
        records.append(CurveRecord("T", "DTD", 0.5, 0.1, "none", 0, 50,
                                   float("inf")))
        table = CurveTable.from_records(records)
        for best in (select_best(table, criterion),
                     select_best(records, criterion)):
            assert (best[("T", "TD")].lam, best[("T", "TD")].alpha) == \
                (0.3, 0.1)
            assert best[("T", "DTD")].score == float("inf")
            assert {k: ((b.task, b.algorithm, b.lam, b.alpha,
                         b.emphasis_kind), b.score)
                    for k, b in best.items()} == \
                reference_select_best(records, criterion)

    def test_auc_keeps_first_appearance_step_order(self):
        rng = np.random.default_rng(1)
        steps = rng.permutation(np.arange(10, 110, 10)).tolist()
        values = (rng.random(10) * 10.0 ** rng.integers(-3, 3, 10)).tolist()
        records = [CurveRecord("T", "TD", 0.5, 0.1, "none", 0, step, value)
                   for step, value in zip(steps, values)]
        want = reference_select_best(records, "auc")[("T", "TD")][1]
        # in ascending step order the same means sum to other bits
        assert want != float(np.mean([v for _, v in
                                      sorted(zip(steps, values))]))
        assert select_best(records, "auc")[("T", "TD")].score == want

    def test_aggregate_all_matches_reference_bits(self):
        table = run_experiment(diverging_config())
        aggs = aggregate_all(table)
        assert aggs == aggregate_all(list(table))
        got = [((a.task, a.algorithm, a.lam, a.alpha, a.emphasis_kind),
                a.step, a.mean_mspbe, a.std_mspbe, a.n_runs) for a in aggs]
        assert got == reference_aggregate_all(list(table))
        assert [a.n_runs for a in aggs] == [10] * len(aggs)
        assert any(a.std_mspbe == float("inf") for a in aggs)

    def test_aggregate_all_keeps_cell_order_of_ragged_records(self):
        rng = np.random.default_rng(3)
        records = [CurveRecord("T", algo, lam, 0.1, "none", seed, step,
                               float(rng.random()))
                   for seed in range(12) for algo, lam in
                   (("TD", 0.9), ("DTD", 0.5), ("TD", 0.0))
                   for step in (200, 100)]
        got = [((a.task, a.algorithm, a.lam, a.alpha, a.emphasis_kind),
                a.step, a.mean_mspbe, a.std_mspbe, a.n_runs)
               for a in aggregate_all(records)]
        assert got == reference_aggregate_all(records)
        assert [g[0][1:3] for g in got[::2]] == [("TD", 0.9), ("DTD", 0.5),
                                                ("TD", 0.0)]


class TestCsvText:
    @pytest.mark.parametrize("text", ["left,walk", "a\nb", "a\rb"])
    def test_curve_csv_refuses_a_breaking_task(self, tmp_path, text):
        records = [CurveRecord(text, "TD", 0.5, 0.1, "none", 0, 50, 0.1)]
        with pytest.raises(ValueError, match="'task'"):
            emit(records, tmp_path / "x.csv")
        emit(records, tmp_path / "x.json", fmt="json")
        assert load_records(tmp_path / "x.json") == records

    def test_aggregate_csv_names_the_column(self, tmp_path):
        records = [CurveRecord("T", "TD", 0.5, 0.1, "a,b", 0, 50, 0.1)]
        with pytest.raises(ValueError, match="'emphasis_kind'"):
            emit(aggregate_all(records), tmp_path / "x.csv")


NAN, INF = float("nan"), float("inf")
CURVE = CurveRecord("T", "TD", 0.5, 0.1, "none", 3, 50, 0.25)
AGG = AggregateRecord("T", "TD", 0.5, 0.1, "none", 50, 0.25, 0.5, 10)


class TestRecordType:
    def test_fields_and_helpers(self):
        assert CURVE._fields == ("task", "algorithm", "lam", "alpha",
                                 "emphasis_kind", "seed", "step", "mspbe")
        assert AGG._asdict()["n_runs"] == 10
        assert repr(CURVE) == ("CurveRecord(task='T', algorithm='TD', "
                               "lam=0.5, alpha=0.1, emphasis_kind='none', "
                               "seed=3, step=50, mspbe=0.25)")
        assert CURVE._replace(mspbe=INF).mspbe == INF
        assert type(CURVE._replace(seed=4)) is CurveRecord
        assert type(AggregateRecord._make(AGG)) is AggregateRecord
        assert CurveRecord(**CURVE._asdict()) == CURVE
        with pytest.raises(AttributeError):
            CURVE.mspbe = 1.0

    @pytest.mark.parametrize("build", [
        lambda: CurveRecord._make((*CURVE[:-1], NAN)),
        lambda: CURVE._replace(mspbe=NAN),
        lambda: CURVE._replace(mspbe=-1.0),
        lambda: AggregateRecord._make((*AGG[:-2], NAN, 10)),
        lambda: AGG._replace(std_mspbe=NAN),
        lambda: AGG._replace(mean_mspbe=NAN),
        lambda: AGG._replace(n_runs=0),
    ])
    def test_make_and_replace_check_the_fields(self, build):
        with pytest.raises(ValueError, match="must be"):
            build()

    @pytest.mark.parametrize("field, value", [
        ("mean_mspbe", NAN), ("mean_mspbe", -1.0), ("std_mspbe", NAN),
        ("std_mspbe", -0.5), ("n_runs", 0), ("n_runs", -3)])
    def test_aggregate_refuses_bad_fields(self, field, value):
        fields = AGG._asdict()
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            AggregateRecord(**fields)

    def test_aggregate_accepts_inf(self):
        assert AGG._replace(mean_mspbe=INF, std_mspbe=INF).mean_mspbe == INF

    def test_pickle_round_trip(self):
        for record in (CURVE, AGG, CURVE._replace(mspbe=INF)):
            back = pickle.loads(pickle.dumps(record))
            assert back == record and type(back) is type(record)

    def test_hash_and_equality(self):
        twin = CurveRecord("T", "TD", 0.5, 0.1, "none", 3, 50, 0.25)
        assert twin == CURVE and hash(twin) == hash(CURVE)
        assert CURVE == tuple(CURVE) and hash(CURVE) == hash(tuple(CURVE))
        assert CURVE != CURVE._replace(seed=4)
        assert len({CURVE, twin, CURVE._replace(step=100)}) == 2
        assert AGG == AggregateRecord(*AGG) and hash(AGG) == hash(tuple(AGG))
        table = CurveTable.from_records([CURVE])
        assert table[0] == CURVE and hash(table[0]) == hash(CURVE)


CURVE_HEADER = "task,algorithm,lambda,alpha,emphasis_kind,seed,step,mspbe\n"
AGG_HEADER = ("task,algorithm,lambda,alpha,emphasis_kind,step,mean_mspbe,"
              "std_mspbe,n_runs\n")
CURVE_LINE = "T,TD,0.5,0.1,none,0,50,0.25\n"
AGG_LINE = "T,TD,0.5,0.1,none,50,0.25,0.5,10\n"


class TestLoaderFaults:
    """Files that do not hold their columns fail with a ValueError naming
    the file, and the CSV line, instead of loading as something else."""

    @pytest.mark.parametrize("lines, bad", [
        ([CURVE_LINE, "T,TD,0.5\n"], 3),             # truncated last line
        (["oops\n"], 2),
        (["a,b,c\n", CURVE_LINE, CURVE_LINE], 2),
        ([CURVE_LINE, "\n", "T,TD,0.5,0.1,0,50,0.25\n"], 4),  # no kind
        ([CURVE_LINE, "T,TD,0.5,0.1,none,x,0,50,0.25\n"], 3),
    ])
    def test_curve_csv_names_the_bad_line(self, tmp_path, lines, bad):
        path = tmp_path / "curves.csv"
        path.write_text(CURVE_HEADER + "".join(lines))
        with pytest.raises(ValueError, match=f"curves.csv, line {bad}:"):
            load_records(path)

    @pytest.mark.parametrize("lines, bad", [
        ([AGG_LINE, "T,TD,0.5\n"], 3),
        (["oops\n"], 2),
        (["a,b,c\n", AGG_LINE], 2),
    ])
    def test_aggregate_csv_names_the_bad_line(self, tmp_path, lines, bad):
        path = tmp_path / "agg.csv"
        path.write_text(AGG_HEADER + "".join(lines))
        with pytest.raises(ValueError, match=f"agg.csv, line {bad}:"):
            load_aggregates(path)

    def test_unparsable_cell_is_named(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(CURVE_HEADER + "T,TD,half,0.1,none,0,50,0.25\n")
        with pytest.raises(ValueError, match="'T,TD,half,0.1,none'"):
            load_records(path)

    def test_header_only_files_load_empty(self, tmp_path):
        (tmp_path / "c.csv").write_text(CURVE_HEADER)
        (tmp_path / "a.csv").write_text(AGG_HEADER)
        assert load_records(tmp_path / "c.csv") == []
        assert len(load_records(tmp_path / "c.csv")) == 0
        assert load_aggregates(tmp_path / "a.csv") == []

    @pytest.mark.parametrize("line, field", [
        ("T,TD,0.5,0.1,none,50,nan,0.5,10\n", "mean_mspbe"),
        ("T,TD,0.5,0.1,none,50,-0.25,0.5,10\n", "mean_mspbe"),
        ("T,TD,0.5,0.1,none,50,0.25,nan,10\n", "std_mspbe"),
        ("T,TD,0.5,0.1,none,50,0.25,0.5,0\n", "n_runs"),
    ])
    def test_aggregate_csv_refuses_bad_values(self, tmp_path, line, field):
        path = tmp_path / "agg.csv"
        path.write_text(AGG_HEADER + AGG_LINE + line)
        with pytest.raises(ValueError, match=field):
            load_aggregates(path)

    def test_json_loaders_name_the_missing_column(self, tmp_path):
        curves, aggs = tmp_path / "curves.json", tmp_path / "agg.json"
        emit([CURVE], curves, fmt="json")
        emit([AGG], aggs, fmt="json")
        with pytest.raises(ValueError, match="agg.json .*'seed'"):
            load_records(aggs)
        with pytest.raises(ValueError, match="agg.json .*'seed'"):
            load_records(aggs)
        with pytest.raises(ValueError, match="curves.json .*'mean_mspbe'"):
            load_aggregates(curves)

    @pytest.mark.parametrize("payload", [
        {"task": "T"}, {}, "curves", 3, [["T", "TD"]],
        [dict(zip(harness.CURVE_COLUMNS, ("T", "TD", 0.5, 0.1, "none", 0, 50,
                                          0.25))), 7],
        [dict(zip(harness.CURVE_COLUMNS, ("T", "TD", None, 0.1, "none", 0, 50,
                                          0.25)))]])
    def test_json_loaders_refuse_other_shapes(self, tmp_path, payload):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        for load in (load_records, load_aggregates):
            with pytest.raises(ValueError, match="x.json"):
                load(path)

    @pytest.mark.parametrize("line, message", [
        ("T,TD,0.5,0.1,none,x,50,0.25\n", "seed 'x'"),
        ("T,TD,0.5,0.1,none,0,1.5,0.25\n", "step '1.5'"),
        ("T,TD,0.5,0.1,none,99999999999999999999,50,0.25\n", "seed '9999"),
        ("T,TD,0.5,0.1,none,0,50,low\n", "mspbe 'low'"),
    ])
    def test_curve_csv_names_the_bad_number(self, tmp_path, line, message):
        path = tmp_path / "curves.csv"
        path.write_text(CURVE_HEADER + CURVE_LINE + "\n" + line + CURVE_LINE)
        with pytest.raises(ValueError,
                           match=f"curves.csv, line 4: {message}"):
            load_records(path)

    def test_aggregate_csv_names_the_bad_number(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_text(AGG_HEADER + AGG_LINE
                        + "T,TD,0.5,0.1,none,50,0.25,0.5,ten\n")
        with pytest.raises(ValueError,
                           match="agg.csv, line 3: n_runs 'ten'"):
            load_aggregates(path)

    @pytest.mark.parametrize("field, value, message", [
        ("seed", None, "x.json has a record whose seed is not a number"),
        ("step", "fifty", "x.json has a record whose step is not a number"),
        ("seed", [1], "x.json has a record whose seed is not a number"),
        ("mspbe", None, "x.json: mspbe must be nonnegative"),
        ("task", ["T"], "x.json has a record whose cell holds a JSON array"),
        ("emphasis_kind", {}, "x.json has a record whose cell holds a JSON"),
    ])
    def test_curve_json_bad_field(self, tmp_path, field, value, message):
        path = tmp_path / "x.json"
        emit([CURVE], path, fmt="json")
        rows = json.loads(path.read_text())
        rows[0][field] = value
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError, match=message):
            load_records(path)

    @pytest.mark.parametrize("field, value, message", [
        ("n_runs", None, "x.json has a record whose n_runs is not a number"),
        ("mean_mspbe", None, "x.json: mean_mspbe must be nonnegative"),
        ("task", ["T"], "x.json has a record whose cell holds a JSON array"),
    ])
    def test_aggregate_json_bad_field(self, tmp_path, field, value,
                                      message):
        path = tmp_path / "x.json"
        emit([AGG], path, fmt="json")
        rows = json.loads(path.read_text())
        rows[0][field] = value
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError, match=message):
            load_aggregates(path)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("step", 50.0), ("step", "50"),
        ("mspbe", "0.25"), ("mspbe", False), ("mspbe", [0.25]),
    ])
    def test_curve_json_numbers_of_the_wrong_kind(self, tmp_path, field,
                                                  value):
        path = tmp_path / "x.json"
        emit([CURVE], path, fmt="json")
        rows = json.loads(path.read_text())
        rows[0][field] = value
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError, match=f"x.json has a record whose "
                                             f"{field} is not a number"):
            load_records(path)

    @pytest.mark.parametrize("field, value", [
        ("n_runs", 2.5), ("n_runs", True), ("step", 1e3),
        ("std_mspbe", "0.5"), ("mean_mspbe", True),
    ])
    def test_aggregate_json_numbers_of_the_wrong_kind(self, tmp_path, field,
                                                      value):
        path = tmp_path / "x.json"
        emit([AGG], path, fmt="json")
        rows = json.loads(path.read_text())
        rows[0][field] = value
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError, match=f"x.json has a record whose "
                                             f"{field} is not a number"):
            load_aggregates(path)

    @pytest.mark.parametrize("field, value", [
        ("lambda", True), ("lambda", "0.5"), ("alpha", False),
        ("alpha", "0.1"), ("task", 3), ("algorithm", None),
        ("emphasis_kind", 1.0),
    ])
    @pytest.mark.parametrize("record, load", [(CURVE, load_records),
                                              (AGG, load_aggregates)])
    def test_json_cells_of_the_wrong_type(self, tmp_path, record, load, field,
                                          value):
        path = tmp_path / "x.json"
        emit([record], path, fmt="json")
        rows = json.loads(path.read_text())
        rows[0][field] = value
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError, match=f"x.json has a record whose "
                                             f"cell .*{value!r}.* does not "
                                             f"parse"):
            load(path)

    @pytest.mark.parametrize("load", [load_records, load_aggregates])
    @pytest.mark.parametrize("field", ["lambda", "alpha"])
    def test_json_bool_beside_an_equal_number(self, tmp_path, load, field):
        # True == 1 and False == 0: the bool is refused before or after
        # the number, with the same message
        record = CURVE if load is load_records else AGG
        columns = harness.CURVE_COLUMNS if load is load_records \
            else harness.AGGREGATE_COLUMNS
        row = dict(zip(columns, record))
        number = dict(row, **{field: 1 if field == "lambda" else 0})
        flag = dict(row, **{field: bool(number[field])})
        messages = []
        for rows in ([number, flag], [flag, number]):
            path = tmp_path / "x.json"
            path.write_text(json.dumps(rows))
            with pytest.raises(ValueError) as exc:
                load(path)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{tmp_path / 'x.json'} has a record "
                                      f"whose cell")
        assert "True" in messages[0] or "False" in messages[0]

    def test_json_integers_and_infinity_load(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps([dict(zip(harness.CURVE_COLUMNS, (
            "T", "TD", 1, 0, "none", 3, 50, float("inf"))))]))
        assert load_records(path) == [
            CurveRecord("T", "TD", 1.0, 0.0, "none", 3, 50, float("inf"))]

    @pytest.mark.parametrize("load", [load_records, load_aggregates])
    def test_json_that_does_not_parse_names_the_file(self, tmp_path, load):
        path = tmp_path / "x.json"
        path.write_text("{bad")
        with pytest.raises(ValueError, match="x.json: Expecting property"):
            load(path)

    def test_csv_fault_scan_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(CURVE_HEADER + CURVE_LINE
                        + "T,TD,0.5,0.1,none,0,50,low\n"
                        + "T,TD,0.5\n")
        with pytest.raises(ValueError,
                           match="curves.csv, line 3: mspbe 'low'"):
            load_records(path)

    def test_blank_lines_before_the_header_are_skipped(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("\n" + CURVE_HEADER + CURVE_LINE
                        + "T,TD,0.5,0.1,none,0,x,0.25\n")
        with pytest.raises(ValueError,
                           match="curves.csv, line 4: step 'x'"):
            load_records(path)

    def test_records_load_as_a_table(self, tmp_path):
        path = tmp_path / "c.csv"
        emit([CURVE], path)
        table = load_records(path)
        assert isinstance(table, CurveTable) and table == [CURVE]


# Record fields that the file formats carry exactly: text without commas
# or line breaks, floats that are not NaN (inf included), and 64-bit
# integers, each number a Python one or a numpy scalar.
texts = st.text(string.ascii_letters + string.digits + " _:-.", max_size=6)
floats = st.floats(allow_nan=False)
values = st.one_of(st.floats(0.0, allow_nan=False), st.just(INF))
ints = st.integers(-2 ** 63, 2 ** 63 - 1)


def maybe_numpy(strategy, kind):
    return st.one_of(strategy, strategy.map(kind))


cells = st.tuples(texts, texts, maybe_numpy(floats, np.float64),
                  maybe_numpy(floats, np.float64), texts)


@st.composite
def curve_records(draw):
    """Records of a few cells, in any order: runs come ragged, repeated
    and interleaved."""
    pool = draw(st.lists(cells, min_size=1, max_size=4))
    return draw(st.lists(st.builds(
        lambda cell, *rest: CurveRecord(*cell, *rest), st.sampled_from(pool),
        maybe_numpy(ints, np.int64), maybe_numpy(ints, np.int64),
        maybe_numpy(values, np.float64)), max_size=30))


@st.composite
def aggregate_records(draw):
    pool = draw(st.lists(cells, min_size=1, max_size=4))
    return draw(st.lists(st.builds(
        lambda cell, *rest: AggregateRecord(*cell, *rest),
        st.sampled_from(pool), ints, maybe_numpy(values, np.float64),
        maybe_numpy(values, np.float64), st.integers(1, 2 ** 63 - 1)),
        max_size=30))


def python_fields(records):
    """Each record's fields, checking that they are Python values."""
    out = [tuple(rec) for rec in records]
    assert all(type(field) in (str, int, float) for row in out
               for field in row)
    return out


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(curve_records())
    def test_curve_records_round_trip(self, records):
        table = CurveTable.from_records(records)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "json"):
                path = Path(tmp) / f"curves.{fmt}"
                emit(records, path, fmt=fmt, kind="curve")
                loaded = load_records(path)
                assert python_fields(loaded) == [tuple(r) for r in records]
                assert all(type(r) is CurveRecord for r in loaded)
                back = load_records(path)
                assert back == table and back.cells == table.cells
                emit(back, Path(tmp) / "again", fmt=fmt)
                assert (Path(tmp) / "again").read_bytes() == \
                    path.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(aggregate_records())
    def test_aggregate_records_round_trip(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "json"):
                path = Path(tmp) / f"agg.{fmt}"
                emit(records, path, fmt=fmt, kind="aggregate")
                loaded = load_aggregates(path)
                assert python_fields(loaded) == [tuple(r) for r in records]
                assert all(type(r) is AggregateRecord for r in loaded)


class TestScheduleRestriction:
    def test_records_require_constant_step_size(self):
        from discerning_td import DecayingAlpha
        config = small_config(algorithms=[
            AlgoConfig(Algorithm.TD, lam=0.0, alpha=DecayingAlpha(0.5, 10))])
        with pytest.raises(ValueError, match="constant step"):
            run_experiment(config)
