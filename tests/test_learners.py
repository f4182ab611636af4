import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from discerning_td import (
    TERMINAL,
    AlgoConfig,
    Algorithm,
    DecayingAlpha,
    EmphasisKind,
    EmphasisSpec,
    MarkovRewardProcess,
    init_learner_state,
    make_feature_map,
    make_random_walk,
    TraceKernel,
    new_run,
    resolve_task,
    run_episode,
)
from discerning_td.cli import main as cli_main

FM2 = make_feature_map("tabular", 2)
FM3 = make_feature_map("tabular", 3)


def kernel_step(state, reward, next_state, w, learner, config, mrp,
                feature_map):
    """One TraceKernel step of a single learner, with emphasis ``w`` at
    ``state``: the follow-on stepped along a one-step path that does not
    exit, that step's coefficients, then ``advance``."""
    kernel = TraceKernel([config], mrp.discount)
    (stepped,), followon = kernel.followon_path(
        np.array([learner.followon]), np.zeros((1, 1), bool))
    theta, trace = learner.theta[None, :].copy(), learner.trace[None, :].copy()
    kernel.advance(theta, trace, feature_map.phi[state][None, :],
                   feature_map.feature(next_state)[None, :], reward,
                   config.alpha_at(learner.step_count),
                   kernel.coefficients(np.array([w]), stepped))
    learner.theta, learner.trace = theta[0], trace[0]
    learner.followon = float(followon[0])
    learner.step_count += 1
    return learner


def chain2(gamma=1.0, reward=1.0):
    """Deterministic two-state episodic chain with fixed rewards."""
    return MarkovRewardProcess(
        2, [[0.0, 1.0], [0.0, 0.0]], [reward, reward], [0.0, 0.0],
        [1.0, 0.0], gamma)


def td_config(lam, alpha):
    return AlgoConfig(Algorithm.TD, lam=lam, alpha=alpha)


class TestConfig:
    def test_lambda_range(self):
        with pytest.raises(ValueError):
            AlgoConfig(Algorithm.TD, lam=1.5, alpha=0.1)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            AlgoConfig(Algorithm.TD, lam=0.5, alpha=0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_alpha_finite(self, alpha):
        with pytest.raises(ValueError, match="positive and finite"):
            AlgoConfig(Algorithm.TD, lam=0.5, alpha=alpha)

    @pytest.mark.parametrize("a,b", [(np.nan, 10.0), (np.inf, 10.0),
                                     (0.5, np.nan), (0.5, np.inf)])
    def test_decaying_schedule_finite(self, a, b):
        with pytest.raises(ValueError, match="positive and finite"):
            DecayingAlpha(a=a, b=b)

    @pytest.mark.parametrize("a, b, message", [
        (True, 10.0, "schedule a must be a number, not True"),
        ("0.5", 10.0, "schedule a must be a number, not '0.5'"),
        (0.5, None, "schedule b must be a number, not None"),
        (0.5, False, "schedule b must be a number, not False")])
    def test_decaying_schedule_needs_numbers(self, a, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DecayingAlpha(a, b)

    def test_decaying_schedule_keeps_its_numbers(self):
        # run seeds derive from the schedule's repr, so 50 stays 50
        assert repr(DecayingAlpha(1, 50)) == "DecayingAlpha(a=1, b=50)"

    def test_decaying_schedule(self):
        sched = DecayingAlpha(a=0.5, b=1000.0)
        config = AlgoConfig(Algorithm.TD, lam=0.0, alpha=sched)
        assert config.alpha_at(0) == 0.5
        assert config.alpha_at(1000) == 0.25
        # Robbins-Monro shape: decreasing, slowly
        steps = np.arange(0, 100_000, 997)
        values = np.array([sched.value(int(t)) for t in steps])
        assert np.all(np.diff(values) < 0)

    def test_algorithm_from_string(self):
        assert AlgoConfig("DTD", 0.1, 0.1).algorithm is Algorithm.DTD

    @pytest.mark.parametrize("value", [True, "0.5", None])
    @pytest.mark.parametrize("field, what", [("lam", "lambda"),
                                             ("alpha", "alpha")])
    def test_lambda_and_alpha_must_be_numbers(self, field, what, value):
        kwargs = {"lam": 0.5, "alpha": 0.1, field: value}
        with pytest.raises(ValueError, match=re.escape(
                f"DTD {what} must be a number, not {value!r}")):
            AlgoConfig(Algorithm.DTD, **kwargs)

    @pytest.mark.parametrize("lam, alpha", [
        (1, 1), (0, 2), (np.float64(0.4), np.float64(0.25))])
    def test_lambda_and_alpha_are_stored_as_floats(self, lam, alpha):
        config = AlgoConfig(Algorithm.TD, lam=lam, alpha=alpha)
        assert type(config.lam) is float and type(config.alpha) is float
        assert (config.lam, config.alpha) == (lam, alpha)


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_subset_kernel_gives_those_rows_coefficients(self, data):
        # each row's coefficients are selected, never blended with another
        # row's, so a kernel over any subset of the rows gives the full
        # kernel's coefficients on those rows, bit for bit, for one step
        # or several; an infinite or NaN entry stays in its row
        unit = st.floats(0.0, 1.0)
        odd = st.sampled_from([np.inf, np.nan])
        n = data.draw(st.integers(1, 8))
        configs = [AlgoConfig(data.draw(st.sampled_from(list(Algorithm))),
                              data.draw(unit), 0.1) for _ in range(n)]
        gamma = data.draw(unit)
        shape = data.draw(st.sampled_from([(), (3,)])) + (n,)
        w = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.floats(0.0, 10.0), odd)))
        followon = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.floats(0.0, 100.0), odd)))
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  unique=True))
        kernel = TraceKernel([configs[i] for i in rows], gamma)
        with np.errstate(all="ignore"):  # 0*inf, as in the sweep loop
            full = TraceKernel(configs, gamma).coefficients(w, followon)
            subset = kernel.coefficients(w[..., rows], followon[..., rows])
        for a, b in zip(full, subset):
            a = np.ascontiguousarray(np.broadcast_to(a, shape)[..., rows])
            b = np.ascontiguousarray(np.broadcast_to(b, a.shape))
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestTdStep:
    def test_three_step_hand_roll(self):
        # chain s0 -> s1 -> terminal, gamma 1, lam 0.5, alpha 0.1, r = 1
        mrp = chain2()
        config = td_config(0.5, 0.1)
        learner = init_learner_state(2)
        kernel_step(0, 1.0, 1, 1.0, learner, config, mrp, FM2)
        np.testing.assert_allclose(learner.trace, [1.0, 0.0])
        np.testing.assert_allclose(learner.theta, [0.1, 0.0])
        kernel_step(1, 1.0, TERMINAL, 1.0, learner, config, mrp, FM2)
        # delta = 1 + 0 - 0 = 1; trace = (0.5, 1); theta += 0.1 * trace
        np.testing.assert_allclose(learner.trace, [0.5, 1.0])
        np.testing.assert_allclose(learner.theta, [0.15, 0.1])

    def test_lambda_zero_is_one_step(self):
        mrp = chain2(gamma=0.9)
        config = td_config(0.0, 0.2)
        learner = init_learner_state(2)
        learner.theta = np.array([1.0, 2.0])
        kernel_step(0, 1.0, 1, 1.0, learner, config, mrp, FM2)
        delta = 1.0 + 0.9 * 2.0 - 1.0
        np.testing.assert_allclose(learner.theta, [1.0 + 0.2 * delta, 2.0])

    def test_rejects_non_finite_reward(self):
        # the step takes rewards from a chain, which refuses non-finite ones
        with pytest.raises(ValueError, match="non-finite"):
            chain2(reward=float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            MarkovRewardProcess(
                2, [[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0], [0.0, 0.0],
                [1.0, 0.0], 1.0, transition_reward=[[0.0, 1.0], [0.0, 0.0]],
                terminal_reward=[0.0, float("inf")])


class TestDtdStep:
    def test_unit_emphasis_matches_td_bitwise(self):
        mrp, fm = make_random_walk(5, "middle")
        rng = np.random.default_rng(11)
        config = td_config(0.9, 0.1)
        dtd_config = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.1)
        a = init_learner_state(5)
        b = init_learner_state(5)
        state = 2
        for _ in range(200):
            reward = float(rng.normal())
            nxt = int(rng.integers(0, 5))
            kernel_step(state, reward, nxt, 1.0, a, config, mrp, fm)
            kernel_step(state, reward, nxt, 1.0, b, dtd_config, mrp, fm)
            assert np.array_equal(a.theta, b.theta)
            assert np.array_equal(a.trace, b.trace)
            state = nxt

    def test_squared_emphasis_increment(self):
        # lam 0, tabular, f = 2: the update scales by four
        mrp = chain2(gamma=0.9)
        config = AlgoConfig(Algorithm.DTD, lam=0.0, alpha=0.1)
        learner = init_learner_state(2)
        kernel_step(0, 1.0, 1, 2.0, learner, config, mrp, FM2)
        assert learner.theta[0] == pytest.approx(4 * 0.1 * 1.0)

    def test_first_step_trace(self):
        mrp = chain2()
        learner = init_learner_state(2)
        kernel_step(0, 1.0, 1, 0.7, learner,
                    AlgoConfig(Algorithm.DTD, 0.9, 0.1), mrp, FM2)
        np.testing.assert_allclose(learner.trace, [0.7, 0.0])

    def test_rejects_nonpositive_emphasis(self):
        # DTD weights come from an EmphasisSpec, which refuses them
        for bad in (dict(kind="constant", constant=0.0),
                    dict(kind="constant", constant=float("nan")),
                    dict(kind="table", table=[1.0, 0.0])):
            with pytest.raises(ValueError, match="positive"):
                AlgoConfig(Algorithm.DTD, 0.5, 0.1,
                           emphasis=EmphasisSpec(**bad))


class TestEtdStep:
    def test_followon_sequence(self):
        mrp = chain2(gamma=0.9)
        n = 3
        fm = FM3
        mrp3 = MarkovRewardProcess(
            3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [1, 1, 1], [0, 0, 0],
            [1, 0, 0], 0.9)
        config = AlgoConfig(Algorithm.ETD, lam=0.5, alpha=0.1)
        learner = init_learner_state(n)
        for step, (s, nxt) in enumerate([(0, 1), (1, 2), (2, TERMINAL)]):
            kernel_step(s, 1.0, nxt, 1.0, learner, config, mrp3, fm)
            expected_f = sum(0.9 ** k for k in range(step + 1))
            assert learner.followon == pytest.approx(expected_f, abs=1e-15)

    def test_lambda_one_reduces_to_td(self):
        mrp, fm = make_random_walk(5, "middle")
        rng = np.random.default_rng(12)
        a = init_learner_state(5)
        b = init_learner_state(5)
        cfg_etd = AlgoConfig(Algorithm.ETD, lam=1.0, alpha=0.05)
        cfg_td = td_config(1.0, 0.05)
        state = 2
        for _ in range(100):
            reward = float(rng.normal())
            nxt = int(rng.integers(0, 5))
            kernel_step(state, reward, nxt, 1.0, a, cfg_etd, mrp, fm)
            kernel_step(state, reward, nxt, 1.0, b, cfg_td, mrp, fm)
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-15)
            state = nxt

    def test_gamma_zero_reduces_to_td(self):
        mrp = MarkovRewardProcess(2, [[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0],
                                  [0.0, 0.0], [1.0, 0.0], 0.0)
        a = init_learner_state(2)
        b = init_learner_state(2)
        for s, nxt in ((0, 1), (1, TERMINAL)):
            kernel_step(s, 1.0, nxt, 1.0, a,
                        AlgoConfig(Algorithm.ETD, 0.4, 0.1), mrp, FM2)
            kernel_step(s, 1.0, nxt, 1.0, b, td_config(0.4, 0.1), mrp, FM2)
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-16)


class TestPtdStep:
    def test_full_preference_is_one_step(self):
        mrp, fm = make_random_walk(5, "middle")
        rng = np.random.default_rng(13)
        a = init_learner_state(5)
        b = init_learner_state(5)
        state = 2
        for _ in range(100):
            reward = float(rng.normal())
            nxt = int(rng.integers(0, 5))
            kernel_step(state, reward, nxt, 1.0, a,
                        AlgoConfig(Algorithm.PTD, 0.9, 0.1), mrp, fm)
            kernel_step(state, reward, nxt, 1.0, b, td_config(0.0, 0.1), mrp,
                        fm)
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-16)
            state = nxt

    def test_zero_preference_never_updates(self):
        mrp = chain2()
        learner = init_learner_state(2)
        for s, nxt in ((0, 1), (1, TERMINAL)):
            kernel_step(s, 1.0, nxt, 0.0, learner,
                        AlgoConfig(Algorithm.PTD, 0.9, 0.5), mrp, FM2)
        np.testing.assert_array_equal(learner.theta, np.zeros(2))

    def test_half_preference_trace_hand_roll(self):
        mrp = chain2(gamma=0.8)
        config = AlgoConfig(Algorithm.PTD, lam=0.5, alpha=0.1)
        learner = init_learner_state(2)
        kernel_step(0, 1.0, 1, 0.5, learner, config, mrp, FM2)
        np.testing.assert_allclose(learner.trace, [0.5, 0.0])
        kernel_step(1, 1.0, TERMINAL, 0.5, learner, config, mrp, FM2)
        # decay = 0.8 * 0.5 * (1 - 0.5) = 0.2
        np.testing.assert_allclose(learner.trace, [0.1, 0.5])

    def test_preference_range_checked(self, tmp_path, capsys):
        # AlgoConfig refuses preferences above 1, for the episode API, the
        # batched sweep and the CLI alike; other learners keep them
        for spec in (EmphasisSpec("constant", constant=1.2),
                     EmphasisSpec("table", table=[0.5, 1.2])):
            with pytest.raises(ValueError, match="PTD preferences"):
                AlgoConfig(Algorithm.PTD, 0.5, 0.1, emphasis=spec)
            AlgoConfig(Algorithm.DTD, 0.5, 0.1, emphasis=spec)
        AlgoConfig(Algorithm.PTD, 0.5, 0.1,
                   emphasis=EmphasisSpec("table", table=[0.5, 1.0]))
        code = cli_main(["run", "--task", "RW5_MIDDLE", "--algo", "PTD",
                         "--emphasis", "constant:2", "--lambda", "0.5",
                         "--alpha", "0.1", "--runs", "1", "--steps", "10",
                         "--eval-every", "10",
                         "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: PTD preferences")
        assert not (tmp_path / "out.csv").exists()


class TestTdwStep:
    def test_unit_weight_is_td(self):
        mrp, fm = make_random_walk(5, "middle")
        rng = np.random.default_rng(14)
        a = init_learner_state(5)
        b = init_learner_state(5)
        state = 2
        for _ in range(100):
            reward = float(rng.normal())
            nxt = int(rng.integers(0, 5))
            kernel_step(state, reward, nxt, 1.0, a,
                        AlgoConfig(Algorithm.TDW, 0.8, 0.1), mrp, fm)
            kernel_step(state, reward, nxt, 1.0, b, td_config(0.8, 0.1), mrp,
                        fm)
            assert np.array_equal(a.theta, b.theta)
            state = nxt

    def test_linear_vs_squared_weighting(self):
        # at lam 0 with tabular features the selective update scales with w
        # where the discerning update scales with w squared
        mrp = chain2(gamma=0.9)
        w = 0.5
        a = init_learner_state(2)
        b = init_learner_state(2)
        kernel_step(0, 1.0, 1, w, a, AlgoConfig(Algorithm.TDW, 0.0, 0.1), mrp,
                    FM2)
        kernel_step(0, 1.0, 1, w, b, AlgoConfig(Algorithm.DTD, 0.0, 0.1), mrp,
                    FM2)
        assert a.theta[0] == pytest.approx(0.1 * w)
        assert b.theta[0] == pytest.approx(0.1 * w * w)

    def test_diverges_from_dtd_on_skewed_walk(self):
        mrp, fm = make_random_walk(5, "left")
        spec = EmphasisSpec(EmphasisKind.COUNT_INVERSE)
        rng_a = np.random.default_rng(15)
        rng_b = np.random.default_rng(15)
        cfg_w = AlgoConfig(Algorithm.TDW, 0.8, 0.1, emphasis=spec)
        cfg_d = AlgoConfig(Algorithm.DTD, 0.8, 0.1, emphasis=spec)
        learner_w, emph_w = new_run(mrp, fm, cfg_w)
        learner_d, emph_d = new_run(mrp, fm, cfg_d)
        for _ in range(50):
            run_episode(mrp, fm, cfg_w, emph_w, learner_w, rng_a, 10_000)
            run_episode(mrp, fm, cfg_d, emph_d, learner_d, rng_b, 10_000)
        assert np.max(np.abs(learner_w.theta - learner_d.theta)) > 1e-3


class TestRunEpisode:
    def test_zero_budget_unchanged(self):
        mrp, fm = make_random_walk(5, "middle")
        config = td_config(0.5, 0.1)
        learner, emph = new_run(mrp, fm, config)
        learner.theta = np.full(5, 0.3)
        theta_before = learner.theta.copy()
        _, _, used = run_episode(mrp, fm, config, emph, learner,
                                 np.random.default_rng(0), 0)
        assert used == 0
        np.testing.assert_array_equal(learner.theta, theta_before)

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, -1])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        mrp, fm = make_random_walk(5, "middle")
        config = td_config(0.5, 0.1)
        learner, emph = new_run(mrp, fm, config)
        with pytest.raises(ValueError, match="step_budget must be"):
            run_episode(mrp, fm, config, emph, learner,
                        np.random.default_rng(0), budget)
        assert learner.step_count == 0

    def test_numpy_budget_is_accepted(self):
        mrp = chain2()
        config = td_config(0.0, 1.0)
        learner, emph = new_run(mrp, FM2, config)
        _, _, used = run_episode(mrp, FM2, config, emph, learner,
                                 np.random.default_rng(0), np.int64(1))
        assert used == 1

    def test_deterministic_chain_hand_rolled(self):
        # two steps, r = 1, gamma 1, lam 0, alpha 1, tabular, theta0 = 0:
        # each state moves to its one-step return, so theta = (1, 1)
        mrp = chain2()
        config = td_config(0.0, 1.0)
        learner, emph = new_run(mrp, FM2, config)
        _, _, used = run_episode(mrp, FM2, config, emph, learner,
                                 np.random.default_rng(0), 100)
        assert used == 2
        np.testing.assert_allclose(learner.theta, [1.0, 1.0])

    def test_budget_cuts_episode(self):
        mrp = chain2()
        config = td_config(0.0, 1.0)
        learner, emph = new_run(mrp, FM2, config)
        _, _, used = run_episode(mrp, FM2, config, emph, learner,
                                 np.random.default_rng(0), 1)
        assert used == 1

    def test_walk_episodes_terminate(self):
        mrp, fm = make_random_walk(5, "middle")
        config = td_config(0.9, 0.1)
        learner, emph = new_run(mrp, fm, config)
        rng = np.random.default_rng(16)
        total = 0
        episodes = 0
        while total < 5000:
            _, _, used = run_episode(mrp, fm, config, emph, learner, rng,
                                     5000 - total)
            total += used
            episodes += 1
        assert total == 5000
        assert episodes > 100
        assert np.all(np.isfinite(learner.theta))

    def test_trace_resets_between_episodes(self):
        mrp = chain2()
        config = td_config(1.0, 0.1)
        learner, emph = new_run(mrp, FM2, config)
        rng = np.random.default_rng(0)
        run_episode(mrp, FM2, config, emph, learner, rng, 100)
        trace_after_first = learner.trace.copy()
        run_episode(mrp, FM2, config, emph, learner, rng, 100)
        np.testing.assert_array_equal(learner.trace, trace_after_first)

    def test_count_emphasis_tracks_visits(self):
        mrp, fm = make_random_walk(5, "middle")
        config = AlgoConfig(Algorithm.DTD, 0.5, 0.1,
                            emphasis=EmphasisSpec("count_inverse"))
        learner, emph = new_run(mrp, fm, config)
        _, emph, used = run_episode(mrp, fm, config, emph, learner,
                                    np.random.default_rng(17), 10_000)
        assert emph.visit_counts.sum() == used
        assert emph.visit_counts[2] >= 1  # the start state is always visited

    def test_followon_resets_between_episodes(self):
        mrp = chain2()
        config = AlgoConfig(Algorithm.ETD, 0.5, 0.1)
        learner, emph = new_run(mrp, FM2, config)
        rng = np.random.default_rng(0)
        run_episode(mrp, FM2, config, emph, learner, rng, 100)
        assert learner.followon == 2.0  # two undiscounted steps: 1 then 2
        run_episode(mrp, FM2, config, emph, learner, rng, 100)
        assert learner.followon == 2.0

    def test_preference_learner_uses_emphasis_values(self):
        mrp, fm = make_random_walk(5, "middle")
        config = AlgoConfig(Algorithm.PTD, 0.8, 0.1,
                            emphasis=EmphasisSpec("count_inverse"))
        learner, emph = new_run(mrp, fm, config)
        _, _, used = run_episode(mrp, fm, config, emph, learner,
                                 np.random.default_rng(3), 10_000)
        assert used >= 1
        assert np.any(learner.theta != 0.0)

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_caller_weights_are_left_alone(self, algo):
        # the kernel steps its weights in place, from a one-row view of
        # learner.theta; the array the caller held keeps its values
        mrp, fm = make_random_walk(5, "middle")
        config = AlgoConfig(algo, 0.5, 0.1,
                            emphasis=EmphasisSpec("count_inverse"))
        learner, emph = new_run(mrp, fm, config)
        held = learner.theta = np.full(fm.n_features, 0.3)
        run_episode(mrp, fm, config, emph, learner,
                    np.random.default_rng(19), 100)
        np.testing.assert_array_equal(held, np.full(fm.n_features, 0.3))
        assert not np.array_equal(learner.theta, held)

    def test_adaptive_emphasis_refreshes(self):
        mrp, fm = make_random_walk(5, "middle")
        config = AlgoConfig(Algorithm.DTD, 0.5, 0.2,
                            emphasis=EmphasisSpec("abs_expected_td"))
        learner, emph = new_run(mrp, fm, config)
        run_episode(mrp, fm, config, emph, learner,
                    np.random.default_rng(18), 10_000)
        assert not np.array_equal(emph.values, np.ones(5))


class TestEpisodeBytes:
    """sha256 of what 30 episodes leave in the learner and the emphasis
    state, pinned when first written and again when a lone weight vector's
    products became two-row ones, so a change to how ``run_episode`` drives
    the kernel that moves one bit fails here."""

    EMPHASES = [EmphasisSpec("constant", constant=0.7),
                EmphasisSpec("count_inverse"), EmphasisSpec("noise_prior"),
                EmphasisSpec("abs_expected_td")]

    @pytest.mark.parametrize("task, digest", [
        ("BOYAN13",
         "5c01d13c441e168cfbc078101f6f78f4ece4cff2441fb3ff774f875d7bc228d9"),
        ("RW5_LEFT",
         "eb2b95b9a531019a17809c315ebd9767615ba2103c398023d20a8d068920d63f"),
        ("NOISY10:1",
         "4ed6f52cf41a6f6fb7e16bf861dddf0ee426e61385ebc2835c3594f4e3168d83")])
    def test_every_learner_emphasis_and_step_size(self, task, digest):
        mrp, fm = resolve_task(task)
        sha = hashlib.sha256()
        for algo in Algorithm:
            for emphasis in self.EMPHASES:
                for alpha in (0.05, DecayingAlpha(0.2, 50)):
                    config = AlgoConfig(algo, 0.8, alpha, emphasis=emphasis)
                    learner, emph = new_run(mrp, fm, config)
                    rng = np.random.default_rng(21)
                    for _ in range(30):
                        run_episode(mrp, fm, config, emph, learner, rng, 200)
                    for a in (learner.theta, learner.trace,
                              [learner.followon], emph.values):
                        sha.update(np.asarray(a, dtype=np.float64).tobytes())
        assert sha.hexdigest() == digest


class TestEmphasisScaling:
    @pytest.mark.parametrize("lam", [0.0, 0.9])
    def test_constant_emphasis_is_squared_step_size(self, lam):
        # the trace under constant emphasis c is c times the plain trace, so
        # the whole update matches a c-squared step size at any mixing rate;
        # power-of-two emphasis keeps the float products exact
        mrp, fm = make_random_walk(5, "middle")
        rng = np.random.default_rng(19)
        scale = 2.0
        a = init_learner_state(5)
        b = init_learner_state(5)
        cfg_d = AlgoConfig(Algorithm.DTD, lam, 0.05)
        cfg_t = td_config(lam, 0.05 * scale * scale)
        state = 2
        for _ in range(500):
            reward = float(rng.normal())
            nxt = int(rng.integers(0, 5))
            kernel_step(state, reward, nxt, scale, a, cfg_d, mrp, fm)
            kernel_step(state, reward, nxt, 1.0, b, cfg_t, mrp, fm)
            assert np.max(np.abs(a.theta - b.theta)) <= 1e-15
            state = nxt
