import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discerning_td import (
    EmphasisKind,
    EmphasisSpec,
    emphasis_abs_expected_td,
    emphasis_from_counts,
    emphasis_from_noise,
    init_emphasis_state,
    long_run_count_inverse,
    make_boyan_chain,
    make_random_walk,
    stationary_distribution,
    true_value,
    update_counts,
)
from discerning_td import emphasis as emphasis_module
from discerning_td.checks import random_ergodic_mrp
from discerning_td.mrp import FeatureMap
from discerning_td.emphasis import abs_expected_td_rows, count_inverse_path


WALK5 = make_random_walk(5, "middle")

# each public emphasis function that takes a floor, called with ``floor``
FLOOR_TAKERS = {
    "emphasis_from_counts": lambda floor: emphasis_from_counts([1, 2], floor),
    "emphasis_from_noise": lambda floor: emphasis_from_noise([0.1, 0.2],
                                                             floor),
    "emphasis_abs_expected_td": lambda floor: emphasis_abs_expected_td(
        *WALK5, np.zeros(5), floor),
    "long_run_count_inverse": lambda floor: long_run_count_inverse(
        WALK5[0], floor),
}


class TestFloorRule:
    """The four public functions take the floor under ``EmphasisSpec``'s
    rule: a real number (a bool is none) in (0, 1)."""

    @pytest.mark.parametrize("take", FLOOR_TAKERS.values(), ids=FLOOR_TAKERS)
    @pytest.mark.parametrize("floor, message", [
        (5, "epsilon_floor must lie in (0, 1)"),
        (2.0, "epsilon_floor must lie in (0, 1)"),
        (1.0, "epsilon_floor must lie in (0, 1)"),
        (0.0, "epsilon_floor must lie in (0, 1)"),
        (float("nan"), "epsilon_floor must lie in (0, 1)"),
        ("0.1", "'epsilon_floor' must be a number, not '0.1'"),
        (True, "'epsilon_floor' must be a number, not True"),
        (None, "'epsilon_floor' must be a number, not None")])
    def test_bad_floor_is_refused(self, take, floor, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            take(floor)

    @pytest.mark.parametrize("take", FLOOR_TAKERS.values(), ids=FLOOR_TAKERS)
    def test_numpy_floor_is_accepted(self, take):
        np.testing.assert_array_equal(take(np.float64(0.01)), take(0.01))

    @pytest.mark.parametrize("floors, message", [
        ([[0.5], [1.5]], "epsilon_floor must lie in (0, 1)"),
        ([[True], [False]], "'epsilon_floor' must be a number, not True")])
    def test_each_row_floor_is_checked(self, floors, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            emphasis_from_counts(np.ones((2, 2)), np.array(floors))
        with pytest.raises(ValueError, match=re.escape(message)):
            emphasis_abs_expected_td(*WALK5, np.zeros((2, 5)),
                                     np.array(floors))


class TestSpecValidation:
    def test_constant_must_be_positive(self):
        with pytest.raises(ValueError):
            EmphasisSpec(EmphasisKind.CONSTANT, constant=0.0)

    def test_table_must_be_positive(self):
        with pytest.raises(ValueError):
            EmphasisSpec(EmphasisKind.TABLE, table=[1.0, 0.0])

    def test_table_requires_values(self):
        with pytest.raises(ValueError):
            EmphasisSpec(EmphasisKind.TABLE)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_constant_must_be_finite(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            EmphasisSpec(EmphasisKind.CONSTANT, constant=value)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_table_must_be_finite(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            EmphasisSpec(EmphasisKind.TABLE, table=[1.0, value, 1.0])

    def test_floor_range(self):
        with pytest.raises(ValueError):
            EmphasisSpec(EmphasisKind.CONSTANT, epsilon_floor=0.0)
        with pytest.raises(ValueError):
            EmphasisSpec(EmphasisKind.CONSTANT, epsilon_floor=1.0)

    @pytest.mark.parametrize("field, value", [
        ("constant", True), ("constant", "2"), ("constant", None),
        ("epsilon_floor", True), ("epsilon_floor", "0.01"),
        ("epsilon_floor", None)])
    def test_scalars_must_be_numbers(self, field, value):
        with pytest.raises(ValueError, match=re.escape(
                f"'{field}' must be a number, not {value!r}")):
            EmphasisSpec(EmphasisKind.CONSTANT, **{field: value})

    @pytest.mark.parametrize("table", [
        [True, 0.5, 1.0], np.array([True, True]), [1.0, "0.5"]])
    def test_table_entries_must_be_numbers(self, table):
        with pytest.raises(ValueError, match="'table' entry must be a number"):
            EmphasisSpec(EmphasisKind.TABLE, table=table)

    def test_scalars_are_stored_as_floats(self):
        spec = EmphasisSpec(EmphasisKind.CONSTANT, constant=2,
                            epsilon_floor=np.float64(0.25))
        assert type(spec.constant) is float and spec.constant == 2.0
        assert type(spec.epsilon_floor) is float
        table = EmphasisSpec(EmphasisKind.TABLE, table=[1, 2, np.int64(3)])
        np.testing.assert_array_equal(table.table, [1.0, 2.0, 3.0])

    def test_kind_from_string(self):
        spec = EmphasisSpec("count_inverse")
        assert spec.kind is EmphasisKind.COUNT_INVERSE


class TestCountInverse:
    def test_uniform_counts_give_uniform_weight(self):
        np.testing.assert_array_equal(emphasis_from_counts([7, 7, 7]),
                                      [1.0, 1.0, 1.0])

    def test_hand_evaluated_pipeline(self):
        # counts [1, 4]: shares [0.2, 0.8], inverses [5, 1.25],
        # scaled [1, 0.25], square root [1, 0.5]
        np.testing.assert_allclose(emphasis_from_counts([1, 4]), [1.0, 0.5],
                                   atol=1e-15)

    def test_zero_count_imputed(self):
        f = emphasis_from_counts([0, 1])
        assert np.all(np.isfinite(f))
        assert np.all((f > 0) & (f <= 1))

    def test_all_zero_counts_uniform(self):
        np.testing.assert_array_equal(emphasis_from_counts([0, 0, 0]),
                                      [1.0, 1.0, 1.0])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            emphasis_from_counts([-1, 2])

    def test_rare_state_gets_max_weight(self):
        f = emphasis_from_counts([100, 1, 50])
        assert f[1] == 1.0
        assert f[1] > f[2] > f[0]

    def test_floor_applies(self):
        f = emphasis_from_counts([10_000_000, 1], epsilon_floor=0.5)
        assert f[0] == 0.5


class TestNoisePrior:
    def test_no_noise_uniform(self):
        np.testing.assert_array_equal(emphasis_from_noise([0.0, 0.0]),
                                      [1.0, 1.0])

    def test_hand_evaluated(self):
        np.testing.assert_allclose(
            emphasis_from_noise([0.0, np.log(4.0)]), [1.0, 0.5], atol=1e-15)

    def test_monotone_decreasing_in_noise(self):
        f = emphasis_from_noise(0.1 * np.arange(1, 11))
        assert f[0] == 1.0
        assert np.all(np.diff(f) < 0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            emphasis_from_noise([-0.1])


class TestAdaptive:
    def test_exact_values_give_uniform(self):
        mrp, fm = make_random_walk(5, "middle")
        f = emphasis_abs_expected_td(mrp, fm, true_value(mrp))
        np.testing.assert_array_equal(f, np.ones(5))

    def test_zero_weights_highlight_reward_source(self):
        # with theta = 0 the expected one-step error is |r|, nonzero only
        # at the state adjacent to the paying terminal
        mrp, fm = make_random_walk(5, "middle")
        f = emphasis_abs_expected_td(mrp, fm, np.zeros(5),
                                     epsilon_floor=1e-3)
        np.testing.assert_allclose(f, [1e-3, 1e-3, 1e-3, 1e-3, 1.0])

    def test_output_bounds(self):
        mrp, fm = make_random_walk(5, "middle")
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = emphasis_abs_expected_td(mrp, fm, rng.normal(0, 2, 5))
            assert np.all(f >= 1e-3) and np.all(f <= 1.0)

    def test_depends_only_on_value_estimates(self):
        mrp, fm = make_random_walk(5, "middle")
        theta = np.array([0.3, -0.2, 0.9, 0.0, 1.4])
        a = emphasis_abs_expected_td(mrp, fm, theta)
        b = emphasis_abs_expected_td(mrp, fm, theta.copy())
        np.testing.assert_array_equal(a, b)


class TestRowWise:
    def test_count_rows_match_single_vectors(self):
        counts = np.array([[3, 0, 5], [0, 0, 0], [1, 4, 2], [9, 9, 1]])
        rows = emphasis_from_counts(counts, epsilon_floor=0.3)
        for row, vector in zip(rows, counts):
            np.testing.assert_array_equal(
                row, emphasis_from_counts(vector, epsilon_floor=0.3))

    def test_floor_per_row(self):
        counts = np.array([[10_000.0, 1.0], [10_000.0, 1.0]])
        f = emphasis_from_counts(counts, np.array([[0.5], [0.01]]))
        np.testing.assert_array_equal(f, [[0.5, 1.0], [0.01, 1.0]])

    def test_rejects_higher_rank_counts(self):
        with pytest.raises(ValueError):
            emphasis_from_counts(np.ones((2, 2, 2)))

    def test_adaptive_rows_match_single_vectors(self):
        mrp, fm = make_boyan_chain()
        thetas = np.random.default_rng(9).normal(0.0, 5.0, (6, 4))
        rows = emphasis_abs_expected_td(mrp, fm, thetas, epsilon_floor=0.01)
        for row, theta in zip(rows, thetas):
            np.testing.assert_array_equal(
                row, emphasis_abs_expected_td(mrp, fm, theta, 0.01))

    def test_diverged_row_gets_uniform_weight(self):
        mrp, fm = make_random_walk(5, "middle")
        thetas = np.array([[np.nan] * 5, [0.0] * 5])
        f = emphasis_abs_expected_td(mrp, fm, thetas)
        np.testing.assert_array_equal(f[0], np.ones(5))
        np.testing.assert_array_equal(
            f[1], emphasis_abs_expected_td(mrp, fm, np.zeros(5)))


@st.composite
def count_paths(draw):
    """Counts before a stretch of path (n, C), its visits (T, C), the
    stretch boundaries, a piece budget and per-row floors."""
    n = draw(st.integers(2, 12))
    rows = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 60))
    low = draw(st.sampled_from([0, 1]))
    before = draw(st.lists(st.integers(low, 6), min_size=n * rows,
                           max_size=n * rows))
    visits = draw(st.lists(st.integers(0, n - 1), min_size=steps * rows,
                           max_size=steps * rows))
    cuts = sorted(draw(st.sets(st.integers(1, steps), max_size=4)) | {steps})
    budget = draw(st.integers(1, 4 * n * rows))
    floors = draw(st.lists(st.sampled_from([1e-3, 0.05, 0.3, 0.6, 0.95]),
                           min_size=rows, max_size=rows))
    return (np.array(before, dtype=np.int32).reshape(n, rows),
            np.array(visits, dtype=np.uint8).reshape(steps, rows),
            cuts, budget, np.array(floors))


class TestCountPath:
    """The count path equals ``emphasis_from_counts`` after each visit, read
    at the visited state, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(count_paths())
    def test_matches_whole_rows_visit_by_visit(self, case):
        before, visits, cuts, budget, floors = case
        counts = before.copy()
        saved = emphasis_module.PATH_BUDGET
        emphasis_module.PATH_BUDGET = budget
        try:
            got = np.concatenate([
                count_inverse_path(counts, visits[lo:hi], floors)
                for lo, hi in zip([0] + cuts[:-1], cuts)])
        finally:
            emphasis_module.PATH_BUDGET = saved
        want = np.empty(visits.shape)
        for row, floor in enumerate(floors):
            running = before[:, row].astype(np.float64)
            for t, s in enumerate(visits[:, row]):
                running[s] += 1.0
                want[t, row] = emphasis_from_counts(running, floor)[s]
            np.testing.assert_array_equal(counts[:, row], running)
        np.testing.assert_array_equal(got, want)

    def test_unvisited_states_count_one(self):
        counts = np.zeros((3, 1), dtype=np.int32)
        got = count_inverse_path(counts, np.array([[0], [0], [0]],
                                                  dtype=np.uint8), 1e-3)
        # shares 1/3, 2/4, 3/5 against 1/3, 1/4, 1/5 at the unvisited
        np.testing.assert_allclose(got[:, 0],
                                   np.sqrt([1.0, 1 / 2, 1 / 3]), rtol=1e-15)
        np.testing.assert_array_equal(counts[:, 0], [3, 0, 0])


class TestAdaptiveVisited:
    """The adaptive weight at the visited state equals the whole-row
    ``emphasis_abs_expected_td`` read there, bit for bit."""

    @staticmethod
    def check(mrp, fm, thetas, visited, floors):
        got = abs_expected_td_rows(mrp, fm, thetas, floors, visited)
        whole = emphasis_abs_expected_td(mrp, fm, thetas, floors[:, None])
        np.testing.assert_array_equal(
            got, whole[np.arange(len(thetas)), visited])
        return got

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12),
           st.integers(1, 6))
    def test_matches_whole_rows(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        mrp = random_ergodic_mrp(rng, n)
        k = int(rng.integers(1, n + 1))
        fm = FeatureMap(np.linalg.qr(rng.normal(size=(n, k)))[0])
        thetas = rng.normal(0.0, 3.0, (rows, k))
        self.check(mrp, fm, thetas, rng.integers(0, n, rows).astype(np.uint8),
                   rng.choice([1e-3, 0.1, 0.5, 0.9], rows))

    def test_diverged_and_exact_rows_get_weight_one(self):
        mrp, fm = make_random_walk(5, "middle")
        thetas = np.array([[np.nan] * 5, true_value(mrp),
                           [0.0] * 5, [0.3, -0.2, 0.9, 0.0, 1.4]])
        got = self.check(mrp, fm, thetas, np.array([2, 0, 1, 4]),
                         np.array([1e-3, 0.5, 0.2, 1e-3]))
        assert got[0] == 1.0 and got[1] == 1.0
        assert got[2] == 0.2  # theta 0: the score is |r|, zero at state 1

    def test_only_zero_and_nan_peaks_get_weight_one(self):
        # each row's raw score is below its peak, so a scored row's weight
        # lies below 1; rows of the three kinds are interleaved
        raw = np.array([0.0, 0.3, np.nan, 0.0, 2.0, np.nan, 0.25, 0.0])
        peak = np.array([0.0, 0.6, np.nan, 0.0, 8.0, np.nan, 1.0, 3.0])
        unscored = np.isnan(peak) | (peak == 0.0)
        with np.errstate(invalid="ignore"):
            got = emphasis_module._scale_sqrt_floor(raw, np.full(8, 0.1),
                                                    peak)
        np.testing.assert_array_equal(got == 1.0, unscored)
        np.testing.assert_array_equal(
            got[~unscored], np.sqrt([0.5, 0.25, 0.25, 0.0]).clip(0.1))

    def test_boyan_chain(self):
        mrp, fm = make_boyan_chain()
        rng = np.random.default_rng(3)
        thetas = rng.normal(0.0, 5.0, (8, 4))
        thetas[5] = np.inf
        with np.errstate(invalid="ignore"):
            got = self.check(mrp, fm, thetas, rng.integers(0, 13, 8),
                             np.full(8, 0.01))
        assert got[5] == 1.0


class TestPipelineRoundTrip:
    def test_square_recovers_scaled_quantity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            counts = rng.integers(1, 40, size=5)
            f = emphasis_from_counts(counts, epsilon_floor=1e-12)
            share = counts / counts.sum()
            scaled = (1.0 / share) / (1.0 / share).max()
            np.testing.assert_allclose(f ** 2, scaled, atol=1e-14)


class TestState:
    def test_initial_states(self):
        mrp, _ = make_random_walk(5, "middle")
        state = init_emphasis_state(EmphasisSpec("count_inverse"), mrp)
        np.testing.assert_array_equal(state.values, np.ones(5))
        np.testing.assert_array_equal(state.visit_counts, np.zeros(5))
        const = init_emphasis_state(
            EmphasisSpec("constant", constant=2.0), mrp)
        np.testing.assert_array_equal(const.values, np.full(5, 2.0))

    def test_table_length_checked(self):
        mrp, _ = make_random_walk(5, "middle")
        with pytest.raises(ValueError):
            init_emphasis_state(
                EmphasisSpec(EmphasisKind.TABLE, table=[1.0, 1.0]), mrp)

    def test_update_counts_records_visit(self):
        mrp, _ = make_random_walk(5, "middle")
        state = init_emphasis_state(EmphasisSpec("count_inverse"), mrp)
        update_counts(2, state)
        np.testing.assert_array_equal(state.visit_counts, [0, 0, 1, 0, 0])

    @pytest.mark.parametrize("visited, message", [
        (-1, "state -1 out of range"), (5, "state 5 out of range"),
        (7, "state 7 out of range"),
        (1.0, "state must be an integer, not 1.0"),
        (True, "state must be an integer, not True")])
    def test_update_counts_refuses_a_bad_state(self, visited, message):
        mrp, _ = make_random_walk(5, "middle")
        state = init_emphasis_state(EmphasisSpec("count_inverse"), mrp)
        with pytest.raises(ValueError, match=re.escape(message)):
            update_counts(visited, state)
        np.testing.assert_array_equal(state.visit_counts, np.zeros(5))

    def test_update_counts_wrong_kind(self):
        mrp, _ = make_random_walk(5, "middle")
        state = init_emphasis_state(EmphasisSpec("noise_prior"), mrp)
        with pytest.raises(ValueError):
            update_counts(0, state)

    def test_uniform_visits_converge_to_uniform(self):
        mrp, _ = make_random_walk(5, "middle")
        state = init_emphasis_state(EmphasisSpec("count_inverse"), mrp)
        for _ in range(200):
            for s in range(5):
                update_counts(s, state)
        np.testing.assert_array_equal(state.values, np.ones(5))

    def test_heavy_state_gets_minimal_weight(self):
        mrp, _ = make_random_walk(5, "middle")
        state = init_emphasis_state(EmphasisSpec("count_inverse"), mrp)
        for s, times in ((0, 50), (1, 5), (2, 5), (3, 5), (4, 5)):
            for _ in range(times):
                update_counts(s, state)
        assert np.argmin(state.values) == 0
        assert np.all(state.values[1:] > state.values[0])


class TestLongRunLimit:
    def test_matches_pipeline_on_stationary_shares(self):
        mrp, _ = make_random_walk(5, "middle")
        d = stationary_distribution(mrp)
        expected = np.sqrt((1.0 / d) / (1.0 / d).max())
        np.testing.assert_allclose(long_run_count_inverse(mrp), expected,
                                   atol=1e-14)

    def test_online_counts_approach_limit(self):
        mrp, _ = make_random_walk(5, "middle")
        rng = np.random.default_rng(7)
        state = init_emphasis_state(EmphasisSpec("count_inverse"), mrp)
        from discerning_td import TERMINAL, sample_transition
        s = 2
        for _ in range(200_000):
            update_counts(s, state)
            _, nxt = sample_transition(mrp, s, rng)
            s = 2 if nxt == TERMINAL else nxt
        np.testing.assert_allclose(state.values, long_run_count_inverse(mrp),
                                   atol=0.01)
