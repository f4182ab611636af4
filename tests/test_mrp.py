import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from discerning_td import (
    TERMINAL,
    ChainStructureError,
    FeatureMap,
    MarkovRewardProcess,
    exact_solution,
    load_environment,
    make_boyan_chain,
    make_feature_map,
    make_noisy_chain,
    make_random_walk,
    sample_transition,
    save_environment,
    stationary_distribution,
    true_value,
)
from discerning_td.checks import TASK_NAMES, random_ergodic_mrp
from discerning_td import mrp as mrp_module
from discerning_td.harness import resolve_task
from discerning_td.mrp import mrp_from_dict, mrp_to_dict, restart_path, \
    start_states, transition_ranks

# chi-square critical value, 1 dof, p = 0.001
CHI2_CRIT_1DOF = 10.828


def deterministic_chain(n=3, reward=1.0, gamma=1.0):
    """s0 -> s1 -> ... -> terminal, fixed reward per transition."""
    p = np.zeros((n, n))
    for i in range(n - 1):
        p[i, i + 1] = 1.0
    rho = np.zeros(n)
    rho[0] = 1.0
    return MarkovRewardProcess(
        n_states=n, transition=p, expected_reward=np.full(n, reward),
        reward_noise_std=np.zeros(n), initial_dist=rho, discount=gamma)


class TestValidation:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum"):
            MarkovRewardProcess(2, [[0.7, 0.7], [0.5, 0.5]], [0, 0], [0, 0],
                                [1, 0], 1.0)

    def test_rejects_negative_transition(self):
        with pytest.raises(ValueError):
            MarkovRewardProcess(2, [[-0.1, 0.6], [0.5, 0.5]], [0, 0], [0, 0],
                                [1, 0], 1.0)

    def test_rejects_bad_initial_dist(self):
        with pytest.raises(ValueError, match="initial_dist"):
            MarkovRewardProcess(2, [[0.5, 0.5], [0.5, 0.5]], [0, 0], [0, 0],
                                [0.5, 0.4], 1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            MarkovRewardProcess(2, [[0.5, 0.5], [0.5, 0.5]], [0, 0], [-1, 0],
                                [1, 0], 1.0)

    def test_rejects_inconsistent_attached_rewards(self):
        with pytest.raises(ValueError, match="inconsistent"):
            MarkovRewardProcess(
                2, [[0.0, 0.5], [0.5, 0.0]], [0.0, 0.5], [0, 0], [1, 0], 1.0,
                transition_reward=np.zeros((2, 2)),
                terminal_reward=np.zeros(2))

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2", None])
    def test_n_states_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"n_states must be an integer, not {value!r}")):
            MarkovRewardProcess(value, [[0.5, 0.5], [0.5, 0.5]], [0, 0],
                                [0, 0], [1, 0], 1.0)

    @pytest.mark.parametrize("value", [True, False, "0.9", None])
    def test_discount_must_be_a_number(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"discount must be a number, not {value!r}")):
            MarkovRewardProcess(2, [[0.5, 0.5], [0.5, 0.5]], [0, 0], [0, 0],
                                [1, 0], value)

    def test_numpy_discount_is_stored_as_a_float(self):
        mrp = MarkovRewardProcess(2, [[0.5, 0.5], [0.5, 0.5]], [0, 0],
                                  [0, 0], [1, 0], np.float32(0.5))
        assert type(mrp.discount) is float and mrp.discount == 0.5

    def test_numpy_integer_n_states_is_stored_as_an_int(self):
        mrp = MarkovRewardProcess(np.int64(2), [[0.5, 0.5], [0.5, 0.5]],
                                  [0, 0], [0, 0], [1, 0], 1.0)
        assert type(mrp.n_states) is int and mrp.n_states == 2

    def test_arrays_are_read_only(self):
        mrp, fm = make_random_walk(5, "middle")
        with pytest.raises(ValueError):
            mrp.transition[0, 0] = 1.0
        with pytest.raises(ValueError):
            fm.phi[0, 0] = 2.0
        for derived in (mrp.transition_cdf, mrp.initial_cdf,
                        mrp.move_rewards):
            with pytest.raises(ValueError):
                derived[0] = 0.0


class TestStationaryDistribution:
    def test_periodic_chain_raises(self):
        flip = MarkovRewardProcess(2, [[0, 1], [1, 0]], [0, 0], [0, 0],
                                   [1, 0], 1.0)
        with pytest.raises(ChainStructureError):
            stationary_distribution(flip)

    def test_cached_per_chain_and_read_only(self):
        mrp, _ = make_random_walk(5, "left")
        d = mrp.stationary
        assert d is mrp.stationary
        np.testing.assert_array_equal(d, stationary_distribution(mrp))
        assert not d.flags.writeable
        assert exact_solution(mrp).d_pi is d

    def test_single_recurrent_state(self):
        solo = MarkovRewardProcess(1, [[1.0]], [0.0], [0.0], [1.0], 0.9)
        np.testing.assert_allclose(stationary_distribution(solo), [1.0])

    def test_walk_middle_matches_eigenvector_oracle(self):
        mrp, _ = make_random_walk(5, "middle")
        d = stationary_distribution(mrp)
        # independent oracle: unit left eigenvector of the restart chain
        vals, vecs = np.linalg.eig(mrp.restart_matrix().T)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        oracle = np.real(vecs[:, idx])
        oracle /= oracle.sum()
        np.testing.assert_allclose(d, oracle, atol=1e-12)
        assert np.argmax(d) == 2
        np.testing.assert_allclose(d, d[::-1], atol=1e-12)

    def test_fixed_point_residual(self):
        for name in ("left", "middle", "right"):
            mrp, _ = make_random_walk(5, name)
            d = stationary_distribution(mrp)
            resid = np.max(np.abs(d @ mrp.restart_matrix() - d))
            assert resid <= 1e-12
            assert np.all(d > 0)

    def test_matches_visit_frequencies(self):
        mrp, _ = make_random_walk(5, "left")
        d = stationary_distribution(mrp)
        rng = np.random.default_rng(3)
        counts = np.zeros(5)
        state = 0
        for _ in range(300_000):
            counts[state] += 1
            _, nxt = sample_transition(mrp, state, rng)
            state = 0 if nxt == TERMINAL else nxt
        freq = counts / counts.sum()
        assert np.max(np.abs(freq - d) / d) < 0.02


    def test_power_iteration_fallback_recovers_a_tiny_share(self,
                                                             monkeypatch):
        # one 1e-18 move into state 2: the bordered solve rounds its share
        # to 0.0, and the fallback finds the exact d[2] = 0.5 * 1e-18
        tiny = MarkovRewardProcess(
            3, [[0.5, 0.5, 0.0], [0.5, 0.5, 1e-18], [1.0, 0.0, 0.0]],
            [0.0] * 3, [0.0] * 3, [1.0, 0.0, 0.0], 1.0)
        calls = []
        power = mrp_module._power_iteration

        def counted(p_restart):
            calls.append(p_restart)
            return power(p_restart)

        monkeypatch.setattr(mrp_module, "_power_iteration", counted)
        d = stationary_distribution(tiny)
        assert len(calls) == 1
        assert d[2] == pytest.approx(5e-19, rel=1e-9)
        assert np.max(np.abs(d @ tiny.restart_matrix() - d)) <= 1e-12


class TestTrueValue:
    def test_walk_values(self):
        mrp, _ = make_random_walk(5, "middle")
        np.testing.assert_allclose(
            true_value(mrp), [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6], atol=1e-12)

    def test_two_state_walk(self):
        mrp, _ = make_random_walk(2, "left")
        np.testing.assert_allclose(true_value(mrp), [1 / 3, 2 / 3],
                                   atol=1e-12)

    def test_zero_rewards_zero_value(self):
        mrp, _ = make_random_walk(5, "middle")
        zeroed = MarkovRewardProcess(
            5, mrp.transition, np.zeros(5), np.zeros(5), mrp.initial_dist,
            1.0)
        np.testing.assert_allclose(true_value(zeroed), np.zeros(5))

    def test_value_iteration_oracle(self):
        mrp = deterministic_chain(4, reward=2.0, gamma=0.9)
        v = np.zeros(4)
        for _ in range(200):
            v = mrp.expected_reward + 0.9 * (mrp.transition @ v)
        np.testing.assert_allclose(true_value(mrp), v, atol=1e-12)

    def test_singular_system_raises(self):
        loop = MarkovRewardProcess(2, [[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0],
                                   [0, 0], [1, 0], 1.0)
        with pytest.raises(ValueError):
            true_value(loop)

    def test_bellman_residual_all_tasks(self):
        for env in (make_random_walk(5, "left"), make_noisy_chain(1.0),
                    make_boyan_chain()):
            mrp = env[0]
            v = true_value(mrp)
            resid = mrp.expected_reward + mrp.discount * (
                mrp.transition @ v) - v
            assert np.max(np.abs(resid)) <= 1e-10


class TestSampleTransition:
    def test_deterministic_chain(self):
        mrp = deterministic_chain(4, reward=1.0)
        rng = np.random.default_rng(0)
        for s in range(3):
            reward, nxt = sample_transition(mrp, s, rng)
            assert reward == 1.0
            assert nxt == s + 1
        reward, nxt = sample_transition(mrp, 3, rng)
        assert nxt == TERMINAL

    def test_state_out_of_range(self):
        mrp = deterministic_chain(3)
        with pytest.raises(ValueError):
            sample_transition(mrp, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_transition(mrp, TERMINAL, np.random.default_rng(0))

    def test_walk_middle_frequencies(self):
        mrp, _ = make_random_walk(5, "middle")
        rng = np.random.default_rng(1)
        n_draws = 10_000
        lefts = sum(sample_transition(mrp, 2, rng)[1] == 1
                    for _ in range(n_draws))
        rights = n_draws - lefts
        chi2 = (lefts - n_draws / 2) ** 2 / (n_draws / 2) \
            + (rights - n_draws / 2) ** 2 / (n_draws / 2)
        assert chi2 < CHI2_CRIT_1DOF

    def test_reward_noise_moments(self):
        mrp = MarkovRewardProcess(1, [[0.5]], [0.0], [1.0], [1.0], 0.9)
        rng = np.random.default_rng(2)
        draws = np.array([sample_transition(mrp, 0, rng)[0]
                          for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_walk_reward_attached_to_right_exit(self):
        mrp, _ = make_random_walk(5, "right")
        rng = np.random.default_rng(4)
        for _ in range(200):
            reward, nxt = sample_transition(mrp, 4, rng)
            assert reward == (1.0 if nxt == TERMINAL else 0.0)
        assert mrp.expected_reward[4] == 0.5


class TestStartStates:
    def test_inverse_cdf_of_initial_distribution(self):
        mrp = MarkovRewardProcess(3, np.zeros((3, 3)), np.zeros(3),
                                  np.zeros(3), [0.5, 0.3, 0.2], 1.0)
        u = np.array([0.0, 0.49, 0.5, 0.79, 0.8, 0.99])
        np.testing.assert_array_equal(start_states(mrp, u),
                                      [0, 0, 1, 1, 2, 2])
        assert start_states(mrp, 0.6) == 1

    def test_rounded_cdf_end_clamps_to_last_state(self):
        # ten shares of 0.1 sum to 0.9999999999999999
        mrp, _ = make_noisy_chain(0.0)
        assert np.cumsum(mrp.initial_dist)[-1] < 1.0
        assert start_states(mrp, np.nextafter(1.0, 0.0)) == 9


def reference_starts(mrp, u):
    """Inverse CDF by counting the initial CDF entries at most ``u``."""
    return np.minimum((np.asarray(u)[..., None] >= mrp.initial_cdf)
                      .sum(axis=-1), mrp.n_states - 1)


def reference_path(mrp, s, u_trans, u_restart):
    """One step at a time: the next state counts the entries of
    ``transition_cdf[s]`` at most the uniform, ``n_states`` being an exit,
    and an exit restarts from ``reference_starts``."""
    states, nexts = [], []
    s = np.asarray(s)
    for t in range(u_trans.shape[1]):
        nxt = (u_trans[:, t][:, None] >= mrp.transition_cdf[s]).sum(axis=1)
        states.append(s)
        nexts.append(nxt)
        s = np.where(nxt == mrp.n_states,
                     reference_starts(mrp, u_restart[:, t]), nxt)
    return np.array(states), np.array(nexts), s


def edge_uniforms(mrp):
    """0, every CDF entry exactly, and the largest double below 1."""
    return np.unique(np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], mrp.transition_cdf.ravel(),
        mrp.initial_cdf]))


def sparse_chain():
    """Zero-probability moves repeat CDF values; rows end below one."""
    p = np.array([[0.0, 0.3, 0.0, 0.7],
                  [0.0, 0.0, 0.5, 0.0],
                  [0.25, 0.0, 0.0, 0.25],
                  [0.0, 0.0, 0.0, 0.0]])
    return MarkovRewardProcess(4, p, np.zeros(4), np.zeros(4),
                               [0.0, 0.6, 0.0, 0.4], 1.0)


def coded_path(mrp, s, u_trans, u_restart):
    """``restart_path`` on the codes of the uniforms."""
    return restart_path(mrp, s, transition_ranks(mrp, u_trans),
                        start_states(mrp, u_restart))


class TestRestartPath:
    # chains with a count table walk by gathers, the others by key searches
    @pytest.fixture(params=["table", "search"], autouse=True)
    def walk(self, request, monkeypatch):
        if request.param == "search":
            monkeypatch.setattr(mrp_module, "_TABLE_ENTRIES", 0)
        return request.param

    def assert_matches_reference(self, mrp, rng, n_chains=12, steps=60,
                                 extra=()):
        u_trans = rng.random((n_chains, steps))
        u_restart = rng.random((n_chains, steps))
        # plant exact CDF values, u = 0 and the top double in both streams
        extra = np.concatenate([edge_uniforms(mrp), extra])
        cells = rng.choice(n_chains * steps, size=2 * len(extra),
                           replace=False)
        u_trans.flat[cells[:len(extra)]] = extra
        u_restart.flat[cells[len(extra):]] = extra
        s0 = start_states(mrp, rng.random(n_chains))
        expected = reference_path(mrp, s0, u_trans, u_restart)
        got = coded_path(mrp, s0, u_trans, u_restart)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have, want)
        assert got[0].shape == got[1].shape == (steps, n_chains)
        assert got[0].dtype == np.min_scalar_type(mrp.n_states)
        np.testing.assert_array_equal(start_states(mrp, u_restart),
                                      reference_starts(mrp, u_restart))
        return expected

    @pytest.mark.parametrize("name", TASK_NAMES)
    def test_named_tasks(self, name, walk):
        mrp, _ = resolve_task(name)
        states, nexts, _ = self.assert_matches_reference(
            mrp, np.random.default_rng(3))
        assert np.any(nexts == mrp.n_states)  # exits and restarts happen
        assert (mrp.step_table[2] is None) == (walk == "search")

    @pytest.mark.parametrize("n_chains", [5, 40])
    def test_random_ergodic_chains(self, n_chains):
        rng = np.random.default_rng(4)
        for _ in range(10):
            self.assert_matches_reference(random_ergodic_mrp(rng), rng,
                                          n_chains)

    def test_zero_probability_moves_and_short_rows(self):
        mrp = sparse_chain()
        cdf = mrp.transition_cdf
        assert cdf[0, 0] == 0.0 and cdf[0, 1] == cdf[0, 2]  # repeated values
        assert np.all(cdf[1:, -1] < 1.0)  # rows that can exit
        states, nexts, _ = self.assert_matches_reference(
            mrp, np.random.default_rng(5), steps=200)
        # zero-probability moves are never taken, even at u = 0
        assert not np.isin(nexts[states == 0], [0, 2]).any()
        assert np.all(np.isin(nexts[states == 1], [2, 4]))
        assert np.all(nexts[states == 3] == 4)  # state 3 always exits

    def test_rounded_cdf_ends(self):
        # rows of ten 1/11 shares leave an exit; ten initial shares of 0.1
        # sum to just below one, so the top uniforms clamp to the last state
        mrp, _ = make_noisy_chain(0.0)
        assert mrp.transition_cdf[0, -1] < 1.0
        assert mrp.initial_cdf[-1] < 1.0
        top = np.nextafter(mrp.initial_cdf[-1], 1.0)
        self.assert_matches_reference(mrp, np.random.default_rng(6),
                                      extra=[top])
        assert start_states(mrp, top) == 9

    @pytest.mark.parametrize("split", [1, 17, 59])
    def test_chunk_boundary_carries_the_state(self, split):
        mrp, _ = resolve_task("BOYAN13")
        rng = np.random.default_rng(7)
        u_trans, u_restart = rng.random((2, 12, 60))
        s0 = start_states(mrp, rng.random(12))
        whole = coded_path(mrp, s0, u_trans, u_restart)
        first = coded_path(mrp, s0, u_trans[:, :split],
                           u_restart[:, :split])
        second = coded_path(mrp, first[2], u_trans[:, split:],
                            u_restart[:, split:])
        np.testing.assert_array_equal(
            np.vstack([first[0], second[0]]), whole[0])
        np.testing.assert_array_equal(
            np.vstack([first[1], second[1]]), whole[1])
        np.testing.assert_array_equal(second[2], whole[2])
        np.testing.assert_array_equal(
            whole[2], reference_path(mrp, s0, u_trans, u_restart)[2])

    def test_table_is_built_on_first_use(self, walk):
        mrp, _ = make_random_walk(5, "left")
        assert "step_table" not in vars(mrp)
        coded_path(mrp, [0], np.zeros((1, 1)), np.zeros((1, 1)))
        edges, keys, table = mrp.step_table
        np.testing.assert_array_equal(edges, [0.0, 0.5, 1.0])
        assert keys.shape == (mrp.n_states ** 2,)
        if walk == "table":
            assert table.shape == (len(edges) + 1, mrp.n_states)
        else:
            assert table is None


def test_dense_chain_keeps_restart_path_memory_small():
    # 300 states with every move possible: about 90,000 distinct CDF
    # values, so a count table over every rank and state would hold some
    # 27 million entries; the key search needs O(n^2) memory instead
    mrp = random_ergodic_mrp(np.random.default_rng(8), 300)
    rng = np.random.default_rng(9)
    u_trans, u_restart = rng.random((2, 50, 40))
    s0 = start_states(mrp, rng.random(50))
    tracemalloc.start()
    try:
        got = coded_path(mrp, s0, u_trans, u_restart)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mrp.step_table[2] is None
    assert peak < 8 * 2 ** 20
    for want, have in zip(reference_path(mrp, s0, u_trans, u_restart), got):
        np.testing.assert_array_equal(have, want)


@st.composite
def sub_stochastic_chains(draw, max_states=8):
    """Chains whose rows hold zero-probability moves (repeated CDF values)
    and an exit share, from none to the whole row."""
    n = draw(st.integers(1, max_states))
    share = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    weights = draw(hnp.arrays(np.float64, (n, n + 1), elements=share))
    weights[weights.sum(axis=1) == 0.0, n] = 1.0  # a row of nothing exits
    p = weights[:, :n] / weights.sum(axis=1, keepdims=True)
    rho = draw(hnp.arrays(np.float64, n, elements=share))
    rho[np.argmax(rho)] += 1.0  # never all zero
    return MarkovRewardProcess(n, p, np.zeros(n), np.zeros(n),
                               rho / rho.sum(), 1.0)


def planted_uniforms(mrp, rng, shape):
    """Uniforms with about a third replaced by 0, an exact CDF value or
    the largest double below 1."""
    u = rng.random(shape)
    planted = rng.random(shape) < 0.3
    u[planted] = rng.choice(edge_uniforms(mrp), planted.sum())
    return u


def assert_walk_matches_reference(mrp, seed, n_chains, steps):
    rng = np.random.default_rng(seed)
    u_trans, u_restart = (planted_uniforms(mrp, rng, (n_chains, steps))
                          for _ in range(2))
    s0 = start_states(mrp, rng.random(n_chains))
    got = coded_path(mrp, s0, u_trans, u_restart)
    for want, have in zip(reference_path(mrp, s0, u_trans, u_restart), got):
        np.testing.assert_array_equal(have, want)


class TestRestartPathProperties:
    """``restart_path`` equals the per-step reference
    ``(u >= transition_cdf[s]).sum()`` on random chains."""

    @pytest.mark.parametrize("walk", ["table", "search"])
    @given(mrp=sub_stochastic_chains(), seed=st.integers(0, 2 ** 32 - 1),
           n_chains=st.integers(1, 6), steps=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_small_chains(self, walk, mrp, seed, n_chains, steps):
        with pytest.MonkeyPatch.context() as patch:
            if walk == "search":
                patch.setattr(mrp_module, "_TABLE_ENTRIES", 0)
            assert_walk_matches_reference(mrp, seed, n_chains, steps)
        assert (mrp.step_table[2] is None) == (walk == "search")

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_dense_chains_past_the_table_limit(self, seed):
        # 128 states with about 90% of moves possible: some 15,000
        # distinct CDF values, so a count table would need about 1.9
        # million entries, past the real limit of 2^20
        rng = np.random.default_rng(seed)
        n = 128
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.9)
        p *= rng.uniform(0.5, 1.0, (n, 1)) / p.sum(axis=1, keepdims=True)
        mrp = MarkovRewardProcess(n, p, np.zeros(n), np.zeros(n),
                                  np.full(n, 1.0 / n), 1.0)
        assert_walk_matches_reference(mrp, seed, 20, 30)
        assert mrp.step_table[2] is None


def chain_fields(n):
    """Valid constructor arguments of an ``n``-state chain with attached
    rewards."""
    p = np.full((n, n), 0.5 / n)
    return {"n_states": n, "transition": p, "expected_reward": np.zeros(n),
            "reward_noise_std": np.ones(n),
            "initial_dist": np.full(n, 1.0 / n), "discount": 0.9,
            "transition_reward": np.zeros((n, n)),
            "terminal_reward": np.zeros(n)}


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
ARRAY_FIELDS = ("transition", "expected_reward", "reward_noise_std",
                "initial_dist", "transition_reward", "terminal_reward")


@st.composite
def bad_chain_fields(draw):
    """Chain arguments with one fault: a NaN or infinite entry, a negative
    entry where none may be, a wrong shape, or a row that sums to more
    than 1."""
    n = draw(st.integers(1, 6))
    fields = chain_fields(n)
    fault = draw(st.sampled_from(["non-finite", "negative", "shape",
                                  "row-sum"]))
    if fault == "row-sum":
        row = draw(st.integers(0, n - 1))
        fields["transition"][row] *= (1.0 + draw(st.floats(1e-9, 10.0))) \
            / fields["transition"][row].sum()
        return fields
    names = ("transition", "reward_noise_std", "initial_dist") \
        if fault == "negative" else ARRAY_FIELDS
    name = draw(st.sampled_from(names))
    value = fields[name]
    if fault == "shape":
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                      max_side=7).filter(
            lambda shape: shape != value.shape))
        fields[name] = np.zeros(shape)
        return fields
    bad = draw(NON_FINITE if fault == "non-finite"
               else st.floats(-10.0, -1e-9))
    value.flat[draw(st.integers(0, value.size - 1))] = bad
    return fields


class TestValidationProperties:
    """The constructors refuse bad input with ``ValueError`` only."""

    @given(fields=bad_chain_fields())
    @settings(max_examples=200, deadline=None)
    def test_chain_faults_raise_value_error(self, fields):
        with pytest.raises(ValueError):
            MarkovRewardProcess(**fields)

    @given(phi=st.one_of(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                max_side=6),
                   elements=st.one_of(NON_FINITE, st.floats(-5.0, 5.0)))
        .filter(lambda phi: not np.isfinite(phi).all()),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4,
                                                min_side=0, max_side=6)
                   .filter(lambda shape: len(shape) != 2 or 0 in shape
                           or shape[1] > shape[0]),
                   elements=st.floats(-5.0, 5.0))))
    @settings(max_examples=200, deadline=None)
    def test_feature_faults_raise_value_error(self, phi):
        with pytest.raises(ValueError):
            FeatureMap(phi)


class TestConstructors:
    def test_walk_initial_distributions(self):
        for init, idx in (("left", 0), ("middle", 2), ("right", 4)):
            mrp, _ = make_random_walk(5, init)
            expected = np.zeros(5)
            expected[idx] = 1.0
            np.testing.assert_array_equal(mrp.initial_dist, expected)

    def test_walk_rejects_small_or_unknown(self):
        with pytest.raises(ValueError):
            make_random_walk(1, "left")
        with pytest.raises(ValueError):
            make_random_walk(5, "center")

    @pytest.mark.parametrize("build, args, message", [
        (make_random_walk, (5.0, "left"),
         "n_states must be an integer, not 5.0"),
        (make_random_walk, (True, "left"),
         "n_states must be an integer, not True"),
        (make_feature_map, ("tabular", 5.0),
         "n_states must be an integer, not 5.0"),
        (make_feature_map, ("tabular", 0),
         "n_states must be at least 1, not 0"),
        (make_noisy_chain, (True,), "reward_level must be a number, not True"),
        (make_noisy_chain, ("1",), "reward_level must be a number, not '1'")],
        ids=["walk-float", "walk-bool", "features-float", "features-zero",
             "noisy-bool", "noisy-string"])
    def test_constructors_refuse_bad_numbers(self, build, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*args)

    def test_constructors_accept_numpy_numbers(self):
        assert make_random_walk(np.int64(5), "left")[0].n_states == 5
        assert make_feature_map("tabular", np.int64(3)).n_features == 3
        np.testing.assert_array_equal(
            make_noisy_chain(np.float64(-1.0))[0].expected_reward,
            make_noisy_chain(-1.0)[0].expected_reward)

    def test_left_start_skews_visits_left(self):
        mrp, _ = make_random_walk(5, "left")
        d = stationary_distribution(mrp)
        assert d[0] + d[1] > d[3] + d[4]

    def test_noisy_chain_structure(self):
        mrp, fm = make_noisy_chain(-1.0)
        assert mrp.n_states == 10
        np.testing.assert_allclose(mrp.expected_reward, -1.0)
        np.testing.assert_allclose(mrp.reward_noise_std,
                                   0.1 * np.arange(1, 11))
        np.testing.assert_allclose(mrp.initial_dist, 0.1)
        np.testing.assert_allclose(mrp.transition, 1.0 / 11.0)
        np.testing.assert_array_equal(fm.phi, np.eye(10))

    def test_noisy_chain_values_uniform(self):
        for level in (-1.0, 0.0, 1.0):
            mrp, _ = make_noisy_chain(level)
            np.testing.assert_allclose(true_value(mrp), 11.0 * level,
                                       atol=1e-10)

    def test_boyan_structure(self):
        mrp, fm = make_boyan_chain()
        assert mrp.n_states == 13
        assert fm.n_features == 4
        np.testing.assert_allclose(true_value(mrp),
                                   -2.0 * np.arange(13.0), atol=1e-10)
        # start state and stepping
        assert mrp.initial_dist[12] == 1.0
        assert mrp.transition[12, 11] == 0.5 and mrp.transition[12, 10] == 0.5
        assert mrp.transition[1, 0] == 1.0
        assert mrp.exit_probs()[0] == 1.0

    def test_boyan_features_span_true_value(self):
        mrp, fm = make_boyan_chain()
        v = true_value(mrp)
        theta, *_ = np.linalg.lstsq(fm.phi, v, rcond=None)
        assert np.max(np.abs(fm.phi @ theta - v)) < 1e-8

    def test_constructors_are_ergodic(self):
        for env in (make_random_walk(5, "left"), make_random_walk(5, "right"),
                    make_noisy_chain(0.0), make_boyan_chain()):
            d = stationary_distribution(env[0])
            assert np.all(d > 0)

    def test_exact_solution_consistency(self):
        mrp, _ = make_boyan_chain()
        sol = exact_solution(mrp)
        assert abs(sol.d_pi.sum() - 1.0) < 1e-10


class TestFeatureMaps:
    def test_tabular(self):
        np.testing.assert_array_equal(make_feature_map("tabular", 5).phi,
                                      np.eye(5))

    def test_inverted(self):
        fm = make_feature_map("inverted", 5)
        assert np.all(np.diag(fm.phi) == 0.0)
        np.testing.assert_allclose(np.linalg.norm(fm.phi, axis=1), 1.0,
                                   atol=1e-12)
        assert np.sum(np.linalg.svd(fm.phi, compute_uv=False) > 1e-10) == 5

    def test_dependent(self):
        fm = make_feature_map("dependent", 5)
        assert fm.phi.shape == (5, 3)
        np.testing.assert_allclose(np.linalg.norm(fm.phi, axis=1), 1.0,
                                   atol=1e-12)
        assert np.sum(np.linalg.svd(fm.phi, compute_uv=False) > 1e-10) == 3

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError):
            make_feature_map("inverted", 7)
        with pytest.raises(ValueError):
            make_feature_map("dependent", 4)
        with pytest.raises(ValueError):
            make_feature_map("fourier", 5)

    def test_rejects_dependent_columns(self):
        with pytest.raises(ValueError, match="independent"):
            FeatureMap(np.ones((4, 2)))

    def test_terminal_feature_is_zero(self):
        fm = make_feature_map("tabular", 3)
        np.testing.assert_array_equal(fm.feature(TERMINAL), np.zeros(3))


class TestSerialization:
    def test_round_trip_dict(self):
        mrp, _ = make_noisy_chain(1.0)
        clone = mrp_from_dict(mrp_to_dict(mrp))
        np.testing.assert_array_equal(clone.transition, mrp.transition)
        np.testing.assert_array_equal(clone.expected_reward,
                                      mrp.expected_reward)
        assert clone.discount == mrp.discount

    def test_round_trip_keeps_attached_rewards(self):
        mrp, _ = make_random_walk(5, "left")
        data = json.loads(json.dumps(mrp_to_dict(mrp)))
        assert data["terminal_reward"] == [0.0, 0.0, 0.0, 0.0, 1.0]
        clone = mrp_from_dict(data)
        np.testing.assert_array_equal(clone.transition_reward,
                                      mrp.transition_reward)
        np.testing.assert_array_equal(clone.terminal_reward,
                                      mrp.terminal_reward)

    def test_schema_keys(self):
        mrp, _ = make_noisy_chain(0.0)
        assert set(mrp_to_dict(mrp)) == {
            "n_states", "transition", "expected_reward", "reward_noise_std",
            "initial_dist", "discount"}

    def test_environment_file_faults_name_the_file(self, tmp_path):
        mrp, fm = make_boyan_chain()
        path = tmp_path / "env.json"
        save_environment(path, mrp, make_feature_map("tabular", 12))
        with pytest.raises(ValueError, match="env.json: phi has 12 rows for "
                                             "13 states"):
            load_environment(path)
        payload = json.loads(path.read_text())
        del payload["mrp"]["discount"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match="env.json is missing key 'discount'"):
            load_environment(path)

    def test_environment_file_n_states_must_be_an_integer(self, tmp_path):
        mrp, fm = make_random_walk(5, "middle")
        path = tmp_path / "env.json"
        save_environment(path, mrp, fm)
        payload = json.loads(path.read_text())
        payload["mrp"]["n_states"] = 5.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                "env.json is not an environment: n_states must be an "
                "integer, not 5.0")):
            load_environment(path)

    def test_environment_file_round_trip(self, tmp_path):
        mrp, fm = make_boyan_chain()
        path = tmp_path / "env.json"
        save_environment(path, mrp, fm)
        loaded_mrp, loaded_fm = load_environment(path)
        np.testing.assert_array_equal(loaded_mrp.transition, mrp.transition)
        np.testing.assert_array_equal(loaded_fm.phi, fm.phi)
        payload = json.loads(path.read_text())
        assert set(payload) == {"mrp", "feature_map"}
