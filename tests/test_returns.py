import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discerning_td import (
    TERMINAL,
    ReturnParams,
    Trajectory,
    dae,
    discerning_return_interp,
    discerning_return_tdsum,
    identity_check,
    lambda_return,
    make_feature_map,
    make_random_walk,
    n_step_return,
    simulate_trajectory,
)


def make_traj(states, rewards):
    return Trajectory(np.array(states), np.array(rewards, dtype=float))


def random_episode(rng, n_states, max_len=20, terminal=True):
    length = int(rng.integers(1, max_len + 1))
    states = rng.integers(0, n_states, size=length + 1)
    if terminal:
        states[-1] = TERMINAL
    return Trajectory(states, rng.normal(0.0, 1.0, size=length))


FM3 = make_feature_map("tabular", 3)
FM6 = make_feature_map("tabular", 6)

# lambda and gamma: the ends of [0, 1] and its inside
UNIT = st.one_of(st.sampled_from([0.0, 1.0]),
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@st.composite
def forward_view_cases(draw, terminal=None):
    """A random trajectory over FM6's states (ending terminal or
    truncated), weights, emphasis values, a start position, lambda and
    gamma.  Rewards and weights lie in [-1, 1] and emphasis values in
    [0.1, 1], so the round-off of every form stays far below 1e-10."""
    length = draw(st.integers(1, 20))
    states = draw(st.lists(st.integers(0, 5), min_size=length + 1,
                           max_size=length + 1))
    if draw(st.booleans()) if terminal is None else terminal:
        states[-1] = TERMINAL
    numbers = st.floats(-1.0, 1.0)
    rewards = draw(st.lists(numbers, min_size=length, max_size=length))
    theta = np.array(draw(st.lists(numbers, min_size=6, max_size=6)))
    f = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=length,
                               max_size=length)))
    t = draw(st.integers(0, length - 1))
    return (Trajectory(np.array(states), np.array(rewards)), theta, f, t,
            draw(UNIT), draw(UNIT))


class TestTrajectory:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_traj([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            make_traj([0], [])

    @pytest.mark.parametrize("states, dtype", [
        ([0.5, 1.7], "float64"), ([0.0, 1.0], "float64"),
        ([True, False], "bool")])
    def test_states_must_be_integers(self, states, dtype):
        with pytest.raises(ValueError, match=re.escape(
                f"states must be integers, not {dtype}")):
            Trajectory(states, [1.0])

    def test_terminal_only_at_end(self):
        with pytest.raises(ValueError):
            make_traj([0, TERMINAL, 1], [1.0, 2.0])

    @pytest.mark.parametrize("last", [-2, -7])
    def test_final_state_below_terminal_is_refused(self, last):
        # numpy's negative indexing would read state n + last as its value
        with pytest.raises(ValueError, match=re.escape(
                f"the final state must be a state or TERMINAL, not {last}")):
            make_traj([0, last], [1.0])

    @pytest.mark.parametrize("states", [[0, 3], [3, 1, TERMINAL], [0, 5, 1]])
    def test_states_past_the_feature_map_are_refused(self, states):
        traj = make_traj(states, [1.0] * (len(states) - 1))
        theta = np.array([5.0, 7.0, 11.0])
        params = ReturnParams(0.5, 0.9, np.ones(traj.num_transitions))
        message = re.escape(f"trajectory state {max(states)} out of range "
                            "for 3 states")
        for target in (
                lambda: n_step_return(traj, 0, len(states) - 1, theta, FM3,
                                      1.0),
                lambda: lambda_return(traj, 0, theta, FM3, 0.9, 0.5),
                lambda: discerning_return_interp(traj, 0, params, theta, FM3),
                lambda: discerning_return_tdsum(traj, 0, params, theta, FM3),
                lambda: dae(traj, params, theta, FM3),
                lambda: ReturnParams.from_state_values(np.ones(3), traj, 0.5,
                                                       0.9)):
            with pytest.raises(ValueError, match=message):
                target()

    def test_emphasis_per_state_must_be_a_vector(self):
        traj = make_traj([0, 1], [1.0])
        with pytest.raises(ValueError, match="f_state must be a vector"):
            ReturnParams.from_state_values(1.0, traj, 0.5, 0.9)

    def test_simulated_episode_ends_terminal(self):
        mrp, _ = make_random_walk(5, "middle")
        traj = simulate_trajectory(mrp, np.random.default_rng(0))
        assert traj.ends_terminal
        assert traj.num_transitions >= 1

    def test_truncation(self):
        mrp, _ = make_random_walk(5, "middle")
        traj = simulate_trajectory(mrp, np.random.default_rng(1), max_steps=2)
        assert traj.num_transitions <= 2

    @pytest.mark.parametrize("max_steps", [2.5, 3.0, True, 0, -1])
    def test_step_cap_must_be_a_positive_integer(self, max_steps):
        mrp, _ = make_random_walk(5, "middle")
        with pytest.raises(ValueError, match="max_steps must be"):
            simulate_trajectory(mrp, np.random.default_rng(1), max_steps)


class TestNStepReturn:
    def test_one_step_is_td_target(self):
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
        theta = np.array([5.0, 7.0, 11.0])
        got = n_step_return(traj, 0, 1, theta, FM3, gamma=0.5)
        assert got == 1.0 + 0.5 * 7.0

    def test_hand_sum(self):
        # rewards (1, 2, 3), gamma 0.5, value 0: 1 + 1 + 0.75 = 2.75
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
        got = n_step_return(traj, 0, 3, np.zeros(3), FM3, gamma=0.5)
        assert got == pytest.approx(2.75, abs=1e-15)

    def test_gamma_zero_kills_tail(self):
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
        theta = np.ones(3)
        for n in (1, 2, 3):
            assert n_step_return(traj, 0, n, theta, FM3, 0.0) == 1.0

    def test_beyond_terminal_clamps(self):
        traj = make_traj([0, 1, TERMINAL], [1.0, 2.0])
        a = n_step_return(traj, 0, 2, np.ones(3), FM3, 1.0)
        b = n_step_return(traj, 0, 50, np.ones(3), FM3, 1.0)
        assert a == b == 3.0

    @pytest.mark.parametrize("n", [2.5, 3.0, True, 0, -1])
    def test_horizon_must_be_a_positive_integer(self, n):
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="n must be"):
            n_step_return(traj, 0, n, np.zeros(3), FM3, 1.0)

    def test_numpy_horizon_is_accepted(self):
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
        assert n_step_return(traj, 0, np.int64(3), np.zeros(3), FM3,
                             0.5) == 2.75

    def test_truncated_out_of_range(self):
        traj = make_traj([0, 1, 2], [1.0, 2.0])
        with pytest.raises(IndexError):
            n_step_return(traj, 0, 3, np.zeros(3), FM3, 1.0)


def position_forms():
    """Each target that takes a position ``t``, as a function of it, on a
    three-step terminal trajectory."""
    traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
    params = ReturnParams(0.5, 0.9, np.ones(3))
    theta = np.arange(3.0)
    return [
        lambda t: lambda_return(traj, t, theta, FM3, 0.9, 0.5),
        lambda t: discerning_return_interp(traj, t, params, theta, FM3),
        lambda t: discerning_return_tdsum(traj, t, params, theta, FM3),
        lambda t: n_step_return(traj, t, 2, theta, FM3, 0.9)]


class TestPosition:
    @pytest.mark.parametrize("form", range(4))
    @pytest.mark.parametrize("t", [True, 1.0, 1.5, "1"])
    def test_position_must_be_an_integer(self, form, t):
        with pytest.raises(ValueError,
                           match=f"t must be an integer, not {t!r}"):
            position_forms()[form](t)

    @pytest.mark.parametrize("form", range(4))
    def test_numpy_position_is_accepted(self, form):
        target = position_forms()[form]
        assert target(np.int64(1)) == target(1)

    @pytest.mark.parametrize("form", range(4))
    @pytest.mark.parametrize("t", [-1, 3])
    def test_position_must_lie_in_the_trajectory(self, form, t):
        with pytest.raises(IndexError, match=f"t={t} outside trajectory"):
            position_forms()[form](t)


class TestLambdaReturn:
    def test_lambda_zero_is_one_step(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            traj = random_episode(rng, 3)
            theta = rng.normal(0, 1, 3)
            t = int(rng.integers(0, traj.num_transitions))
            assert lambda_return(traj, t, theta, FM3, 0.9, 0.0) == \
                pytest.approx(n_step_return(traj, t, 1, theta, FM3, 0.9),
                              abs=1e-12)

    def test_lambda_one_is_monte_carlo(self):
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
        got = lambda_return(traj, 0, np.full(3, 9.0), FM3, 1.0, 1.0)
        assert got == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("lam, gamma, message", [
        (1.5, 0.9, r"lam must lie in \[0, 1\]"),
        (0.5, -0.1, r"gamma must lie in \[0, 1\]")])
    def test_lambda_and_gamma_are_checked(self, lam, gamma, message):
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=message):
            lambda_return(traj, 0, np.zeros(3), FM3, gamma, lam)

    def test_matches_unit_emphasis_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            traj = random_episode(rng, 6)
            theta = rng.normal(0, 1, 6)
            lam = float(rng.uniform(0, 0.99))
            gamma = float(rng.choice([0.9, 1.0]))
            params = ReturnParams(lam, gamma,
                                  np.ones(traj.num_transitions))
            t = int(rng.integers(0, traj.num_transitions))
            assert lambda_return(traj, t, theta, FM6, gamma, lam) == \
                pytest.approx(
                    discerning_return_interp(traj, t, params, theta, FM6),
                    abs=1e-12)


class TestIdentity:
    def test_uniform_sequence(self):
        assert identity_check(np.ones(10), 0.5) == pytest.approx(1.0,
                                                                 abs=1e-15)

    def test_hand_example(self):
        assert identity_check(np.array([2.0, 3.0, 5.0]), 0.5) == \
            pytest.approx(2.0, abs=1e-12)

    def test_lambda_zero(self):
        assert identity_check(np.array([4.0, 1.0]), 0.0) == 4.0

    def test_random_sequences(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            f = rng.uniform(0.05, 5.0, size=int(rng.integers(1, 50)))
            for lam in (0.0, 0.25, 0.5, 0.9):
                assert abs(identity_check(f, lam) - f[0]) <= 1e-12

    def test_rejects_lambda_one(self):
        with pytest.raises(ValueError):
            identity_check(np.ones(3), 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            identity_check(np.array([1.0, 0.0]), 0.5)

    @pytest.mark.parametrize("lam", ["0.5", None, False])
    def test_lambda_must_be_a_number(self, lam):
        with pytest.raises(ValueError,
                           match=f"lam must be a number, not {lam!r}"):
            identity_check(np.ones(3), lam)


class TestDiscerningReturn:
    def test_constant_emphasis_equals_lambda_return(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            traj = random_episode(rng, 6)
            theta = rng.normal(0, 1, 6)
            params = ReturnParams(0.7, 1.0,
                                  np.full(traj.num_transitions, 3.7))
            t = int(rng.integers(0, traj.num_transitions))
            assert discerning_return_interp(traj, t, params, theta, FM6) == \
                pytest.approx(lambda_return(traj, t, theta, FM6, 1.0, 0.7),
                              abs=1e-11)

    def test_lambda_zero_ignores_emphasis(self):
        rng = np.random.default_rng(6)
        traj = random_episode(rng, 6)
        theta = rng.normal(0, 1, 6)
        f = rng.uniform(0.1, 1.0, traj.num_transitions)
        params = ReturnParams(0.0, 0.9, f)
        t = 0
        assert discerning_return_interp(traj, t, params, theta, FM6) == \
            pytest.approx(n_step_return(traj, t, 1, theta, FM6, 0.9),
                          abs=1e-12)

    def test_exact_values_fixed_point(self):
        # deterministic chain: with exact values every error term is zero
        states = [0, 1, 2, TERMINAL]
        rewards = [1.0, 1.0, 1.0]
        traj = make_traj(states, rewards)
        theta = np.array([3.0, 2.0, 1.0])
        params = ReturnParams(0.6, 1.0, np.array([0.5, 0.7, 0.9]))
        got = discerning_return_tdsum(traj, 0, params, theta, FM3)
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_mixing_rate_invariance_with_exact_values(self):
        # deterministic chain and exact values: every n-step target equals
        # the current estimate, so the mixing rate cannot matter
        traj = make_traj([0, 1, 2, TERMINAL], [1.0, 1.0, 1.0])
        theta = np.array([3.0, 2.0, 1.0])
        f = np.full(3, 0.6)
        returns = [
            discerning_return_interp(traj, 0,
                                     ReturnParams(lam, 1.0, f), theta, FM3)
            for lam in (0.0, 0.3, 0.7, 1.0)]
        np.testing.assert_allclose(returns, 3.0, atol=1e-12)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(7)
        for i in range(400):
            traj = random_episode(rng, 6, max_len=30,
                                  terminal=bool(rng.random() < 0.7))
            theta = rng.normal(0, 1, 6)
            f = rng.uniform(1e-3, 1.0, traj.num_transitions)
            lam = (0.0, 0.3, 0.7, 1.0 - 1e-6)[i % 4]
            gamma = (1.0, 0.9)[i % 2]
            params = ReturnParams(lam, gamma, f)
            t = int(rng.integers(0, traj.num_transitions))
            a = discerning_return_interp(traj, t, params, theta, FM6)
            b = discerning_return_tdsum(traj, t, params, theta, FM6)
            assert abs(a - b) < 1e-10

    def test_f_length_checked(self):
        traj = make_traj([0, 1, TERMINAL], [1.0, 1.0])
        params = ReturnParams(0.5, 1.0, np.ones(5))
        with pytest.raises(ValueError):
            discerning_return_interp(traj, 0, params, np.zeros(3), FM3)

    @pytest.mark.parametrize("lam, gamma, message", [
        (True, 1.0, "lam must be a number, not True"),
        (0.5, "1", "gamma must be a number, not '1'"),
        (float("nan"), 1.0, r"lam must lie in \[0, 1\]"),
        (0.5, 1.5, r"gamma must lie in \[0, 1\]")])
    def test_params_check_lambda_and_gamma(self, lam, gamma, message):
        with pytest.raises(ValueError, match=message):
            ReturnParams(lam, gamma, np.ones(2))

    def test_params_store_lambda_and_gamma_as_floats(self):
        params = ReturnParams(np.float32(0.5), 1, np.ones(2))
        assert type(params.lam) is float and params.lam == 0.5
        assert type(params.gamma) is float and params.gamma == 1.0

    def test_params_reject_nonpositive_f(self):
        with pytest.raises(ValueError):
            ReturnParams(0.5, 1.0, np.array([1.0, -1.0]))


class TestAdvantage:
    @staticmethod
    def double_sum_oracle(traj, params, theta, fm):
        gamma, lam = params.gamma, params.lam
        f = params.f_values
        t_len = traj.num_transitions
        values = np.array([0.0 if s == TERMINAL else float(fm.phi[s] @ theta)
                           for s in traj.states])
        deltas = traj.rewards + gamma * values[1:] - values[:-1]
        return np.array([
            sum((gamma * lam) ** (k - t) * deltas[k] * f[k]
                for k in range(t, t_len)) / f[t]
            for t in range(t_len)])

    def test_backward_pass_matches_double_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            traj = random_episode(rng, 6, max_len=25,
                                  terminal=bool(rng.random() < 0.5))
            theta = rng.normal(0, 1, 6)
            params = ReturnParams(float(rng.choice([0.0, 0.5, 0.95, 1.0])),
                                  float(rng.choice([0.9, 1.0])),
                                  rng.uniform(0.05, 2.0,
                                              traj.num_transitions))
            fast = dae(traj, params, theta, FM6)
            slow = self.double_sum_oracle(traj, params, theta, FM6)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_lambda_zero_gives_td_errors(self):
        rng = np.random.default_rng(9)
        traj = random_episode(rng, 3)
        theta = rng.normal(0, 1, 3)
        params = ReturnParams(0.0, 1.0,
                              rng.uniform(0.5, 2.0, traj.num_transitions))
        values = np.array([0.0 if s == TERMINAL else theta[s]
                           for s in traj.states])
        deltas = traj.rewards + values[1:] - values[:-1]
        np.testing.assert_allclose(dae(traj, params, theta, FM3), deltas,
                                   atol=1e-14)

    def test_unit_emphasis_is_standard_advantage(self):
        # independent reference: plain discounted sum of one-step errors
        rng = np.random.default_rng(10)
        for _ in range(100):
            traj = random_episode(rng, 6)
            theta = rng.normal(0, 1, 6)
            lam, gamma = 0.95, 0.99
            params = ReturnParams(lam, gamma,
                                  np.ones(traj.num_transitions))
            values = np.array([0.0 if s == TERMINAL
                               else float(FM6.phi[s] @ theta)
                               for s in traj.states])
            deltas = traj.rewards + gamma * values[1:] - values[:-1]
            reference = np.zeros(traj.num_transitions)
            acc = 0.0
            for k in range(traj.num_transitions - 1, -1, -1):
                acc = deltas[k] + gamma * lam * acc
                reference[k] = acc
            np.testing.assert_allclose(dae(traj, params, theta, FM6),
                                       reference, atol=1e-12)


class TestReturnFormProperties:
    """The return-form identities on random trajectories."""

    @settings(max_examples=200, deadline=None)
    @given(forward_view_cases())
    def test_lambda_return_is_the_unit_emphasis_discerning_return(self, case):
        traj, theta, _, t, lam, gamma = case
        params = ReturnParams(lam, gamma, np.ones(traj.num_transitions))
        assert lambda_return(traj, t, theta, FM6, gamma, lam) == \
            discerning_return_interp(traj, t, params, theta, FM6)

    @settings(max_examples=200, deadline=None)
    @given(forward_view_cases())
    def test_lambda_zero_is_the_one_step_return(self, case):
        traj, theta, _, t, _, gamma = case
        assert lambda_return(traj, t, theta, FM6, gamma, 0.0) == \
            n_step_return(traj, t, 1, theta, FM6, gamma)

    @settings(max_examples=200, deadline=None)
    @given(forward_view_cases(terminal=True))
    def test_lambda_one_on_an_episode_is_the_monte_carlo_return(self, case):
        traj, theta, _, t, _, gamma = case
        monte_carlo = sum(gamma ** (k - t) * traj.rewards[k]
                          for k in range(t, traj.num_transitions))
        assert lambda_return(traj, t, theta, FM6, gamma, 1.0) == \
            pytest.approx(monte_carlo, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(forward_view_cases())
    def test_mixture_and_error_sum_forms_agree(self, case):
        traj, theta, f, t, lam, gamma = case
        params = ReturnParams(lam, gamma, f)
        assert abs(discerning_return_interp(traj, t, params, theta, FM6)
                   - discerning_return_tdsum(traj, t, params, theta, FM6)) \
            < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(forward_view_cases())
    def test_advantage_matches_the_double_sum(self, case):
        traj, theta, f, _, lam, gamma = case
        params = ReturnParams(lam, gamma, f)
        np.testing.assert_allclose(
            dae(traj, params, theta, FM6),
            TestAdvantage.double_sum_oracle(traj, params, theta, FM6),
            atol=1e-12)
