"""The weight-vector rule and the state-index rule, applied the same way by
every public function that takes a weight vector or a state index."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from discerning_td import (
    TERMINAL,
    EmphasisSpec,
    ReturnParams,
    Trajectory,
    compute_A_b,
    contraction_condition,
    discerning_return_interp,
    dtd_operator,
    emphasized_geometry,
    identity_check,
    induced_norm,
    init_emphasis_state,
    lambda_weighted_norm,
    make_random_walk,
    per_equivalence,
    projection,
    sample_transition,
    update_counts,
)
from discerning_td.analysis import dtd_operator_matrix, exact_update_map_norm
from discerning_td.mrp import checked_state, checked_weights

MRP, FM = make_random_walk(5, "middle")
N = MRP.n_states
# One transition per state, so a weight per transition is a weight per state.
TRAJ = Trajectory(np.array([0, 1, 2, 3, 4, TERMINAL]), np.zeros(N))
EVERY_STATE = [(s, 1.0, 0.0) for s in range(N)]

# Each public function that takes a weight vector, as a call on one; the
# ones whose vector has no length of its own meet it where it is used.
WEIGHT_TAKERS = {
    "compute_A_b": lambda f: compute_A_b(MRP, FM, f, 0.5),
    "emphasized_geometry": lambda f: emphasized_geometry(MRP, f),
    "dtd_operator": lambda f: dtd_operator(np.zeros(N), MRP, f, 0.5),
    "dtd_operator_matrix": lambda f: dtd_operator_matrix(MRP, f, 0.5),
    "contraction_condition": lambda f: contraction_condition(MRP, f, 0.5),
    "exact_update_map_norm": lambda f: exact_update_map_norm(MRP, f, 0.5),
    "projection": lambda f: projection(FM, f),
    "induced_norm": lambda f: induced_norm(np.eye(N), f),
    "lambda_weighted_norm": lambda f: lambda_weighted_norm(np.ones(N), f),
    "per_equivalence": lambda f: per_equivalence(EVERY_STATE, f),
    "ReturnParams": lambda f: discerning_return_interp(
        TRAJ, 0, ReturnParams(0.5, 0.9, f), np.zeros(N), FM),
    "identity_check": lambda f: identity_check(f, 0.5),
    "EmphasisSpec": lambda f: init_emphasis_state(
        EmphasisSpec("table", table=f), MRP),
}

BAD_WEIGHTS = {
    "nan": [1.0, np.nan, 1.0, 1.0, 1.0],
    "inf": [1.0, 1.0, np.inf, 1.0, 1.0],
    "zero": [1.0, 1.0, 1.0, 0.0, 1.0],
    "negative": [-1.0, 1.0, 1.0, 1.0, 1.0],
    "wrong length": [1.0] * (N - 1),
    "2-D": np.ones((N, 1)),
    "empty": [],
}


# What a refusal says: the rule itself, or, where the length is met at the
# use, the state or transition count.  A numpy fault (LinAlgError, a
# broadcast) says none of these.
REFUSED = ("positive and finite|positive, finite|out of range|one weight per "
           "transition|does not match")


# identity_check takes a sequence of any length, so it has no wrong one.
@pytest.mark.parametrize("taker, bad", [
    (taker, bad) for taker in WEIGHT_TAKERS for bad in BAD_WEIGHTS
    if (taker, bad) != ("identity_check", "wrong length")])
def test_every_weight_taker_refuses_a_bad_vector(taker, bad):
    with pytest.raises(ValueError, match=REFUSED):
        WEIGHT_TAKERS[taker](BAD_WEIGHTS[bad])


@pytest.mark.parametrize("taker", WEIGHT_TAKERS)
def test_every_weight_taker_accepts_a_good_vector(taker):
    WEIGHT_TAKERS[taker](np.linspace(0.5, 1.0, N))


def test_per_equivalence_refuses_a_zero_weight_at_an_unvisited_state():
    with pytest.raises(ValueError, match="f_values must be a vector of "
                                         "positive and finite numbers"):
        per_equivalence([(1, 1.0, 0.0)], [0.0, 1.0])


def _count_state():
    return init_emphasis_state(EmphasisSpec("count_inverse"), MRP)


STATE_TAKERS = {
    "sample_transition": lambda s: sample_transition(
        MRP, s, np.random.default_rng(0)),
    "FeatureMap.feature": FM.feature,
    "update_counts": lambda s: update_counts(s, _count_state()),
    "per_equivalence": lambda s: per_equivalence([(s, 1.0, 0.0)],
                                                 np.ones(N)),
}

BAD_STATES = {1.5: "must be an integer, not 1.5",
              True: "must be an integer, not True",
              "2": "must be an integer, not '2'",
              -2: "-2 out of range for 5 states",
              N: "5 out of range for 5 states"}


@pytest.mark.parametrize("bad", BAD_STATES, ids=repr)
@pytest.mark.parametrize("taker", STATE_TAKERS)
def test_every_state_taker_refuses_a_bad_state(taker, bad):
    with pytest.raises(ValueError, match=re.escape(BAD_STATES[bad])):
        STATE_TAKERS[taker](bad)


@pytest.mark.parametrize("taker", STATE_TAKERS)
def test_every_state_taker_accepts_each_state(taker):
    for s in (0, np.int64(N - 1)):
        STATE_TAKERS[taker](s)


def test_terminal_feature_stays_zero():
    np.testing.assert_array_equal(FM.feature(TERMINAL), np.zeros(N))


class TestCheckedWeights:
    def test_returns_a_float_array_of_the_values(self):
        got = checked_weights("w", [1, 2, 3], 3)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])

    def test_messages(self):
        with pytest.raises(ValueError, match="^w must be positive, finite "
                                             "and match the state count$"):
            checked_weights("w", [1.0, 1.0], 3)
        with pytest.raises(ValueError, match="^w must be a vector of "
                                             "positive and finite numbers$"):
            checked_weights("w", [[1.0]])

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    max_size=6))
    def test_refuses_exactly_the_vectors_outside_the_rule(self, values):
        good = bool(values) and all(0.0 < v < np.inf for v in values)
        if good:
            np.testing.assert_array_equal(checked_weights("w", values),
                                          values)
        else:
            with pytest.raises(ValueError):
                checked_weights("w", values)


class TestCheckedState:
    def test_returns_an_int(self):
        got = checked_state("s", np.int64(2), 3)
        assert type(got) is int and got == 2

    @given(st.integers(-10, 10), st.integers(1, 8))
    def test_refuses_exactly_the_integers_outside_the_chain(self, value, n):
        if 0 <= value < n:
            assert checked_state("s", value, n) == value
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"s {value} out of range for {n} states")):
                checked_state("s", value, n)

