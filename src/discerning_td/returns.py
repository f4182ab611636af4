"""Forward-view targets: n-step returns, the lambda-return, its
emphasis-weighted generalization in both its interpolation and
error-sum forms, and the matching advantage estimator.

Conventions for finite trajectories: the value of TERMINAL is zero, rewards
and emphasis weights are zero beyond the final transition, and truncated
trajectories bootstrap from the value of their last observed state.
"""

from dataclasses import dataclass

import numpy as np

from .mrp import TERMINAL, FeatureMap, MarkovRewardProcess, checked_int, \
    checked_real, checked_unit, sample_transition, start_states

__all__ = [
    "Trajectory", "ReturnParams", "simulate_trajectory", "n_step_return",
    "lambda_return", "identity_check", "discerning_return_interp",
    "discerning_return_tdsum", "dae",
]


@dataclass(frozen=True)
class Trajectory:
    """A rollout: visited states, integers (the last entry may be
    TERMINAL), and one reward per transition."""

    states: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        rewards = np.asarray(self.rewards, dtype=np.float64)
        if states.ndim != 1 or rewards.ndim != 1:
            raise ValueError("states and rewards must be vectors")
        if states.size and states.dtype.kind not in "iu":
            raise ValueError(f"states must be integers, not {states.dtype}")
        states = states.astype(np.int64)
        if len(states) != len(rewards) + 1:
            raise ValueError("need exactly one more state than rewards")
        if len(rewards) < 1:
            raise ValueError("trajectory needs at least one transition")
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards contain non-finite entries")
        if np.any(states[:-1] < 0):
            raise ValueError("TERMINAL may appear only as the final state")
        if states[-1] < TERMINAL:
            raise ValueError(f"the final state must be a state or TERMINAL, "
                             f"not {states[-1]}")
        states = states.copy()
        rewards = rewards.copy()
        states.flags.writeable = False
        rewards.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rewards", rewards)

    @property
    def num_transitions(self) -> int:
        return len(self.rewards)

    @property
    def ends_terminal(self) -> bool:
        return int(self.states[-1]) == TERMINAL


@dataclass(frozen=True)
class ReturnParams:
    """Mixing rate and discount, each a number in [0, 1] stored as a
    float, and the per-step positive emphasis values (one per transition,
    aligned with the visited states)."""

    lam: float
    gamma: float
    f_values: np.ndarray

    def __post_init__(self):
        for name in ("lam", "gamma"):
            object.__setattr__(self, name,
                               checked_unit(name, getattr(self, name)))
        f = np.asarray(self.f_values, dtype=np.float64)
        if f.ndim != 1 or np.any(~np.isfinite(f)) or np.any(f <= 0.0):
            raise ValueError("f_values must be positive and finite")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "f_values", f)

    @classmethod
    def from_state_values(cls, f_state, traj: Trajectory, lam: float,
                          gamma: float) -> "ReturnParams":
        """Align a per-state emphasis vector with a trajectory."""
        f_state = np.asarray(f_state, dtype=np.float64)
        if f_state.ndim != 1:
            raise ValueError("f_state must be a vector")
        _check_states(traj, len(f_state))
        return cls(lam=lam, gamma=gamma,
                   f_values=f_state[traj.states[:-1]])


def simulate_trajectory(mrp: MarkovRewardProcess, rng,
                        max_steps: int = 100_000) -> Trajectory:
    """Roll out one episode (or a truncated rollout of ``max_steps``, an
    integer of at least 1)."""
    max_steps = checked_int("max_steps", max_steps, least=1)
    state = int(start_states(mrp, rng.random()))
    states = [state]
    rewards = []
    for _ in range(max_steps):
        reward, nxt = sample_transition(mrp, state, rng)
        rewards.append(reward)
        states.append(nxt)
        if nxt == TERMINAL:
            break
        state = nxt
    return Trajectory(np.array(states), np.array(rewards))


def _check_states(traj: Trajectory, n_states: int) -> None:
    """ValueError unless every state of ``traj`` is one of ``n_states``
    (or TERMINAL)."""
    top = int(traj.states.max())
    if top >= n_states:
        raise ValueError(f"trajectory state {top} out of range for "
                         f"{n_states} states")


def _check_f(params: ReturnParams, traj: Trajectory) -> np.ndarray:
    f = params.f_values
    if len(f) != traj.num_transitions:
        raise ValueError("f_values must supply one weight per transition")
    return f


def _check_t(traj: Trajectory, t: int) -> int:
    """``t`` as an int: ValueError unless it is an integer (a bool is
    none), IndexError unless it is a position of ``traj``."""
    t = checked_int("t", t)
    if not 0 <= t < traj.num_transitions:
        raise IndexError(f"t={t} outside trajectory")
    return t


def _value(feature_map: FeatureMap, theta: np.ndarray, state: int) -> float:
    if state == TERMINAL:
        return 0.0
    return float(feature_map.phi[state] @ theta)


def _n_step_returns(traj: Trajectory, t: int, n: int, theta,
                    feature_map: FeatureMap, gamma: float) -> list:
    """The returns g_1 ... g_N from position ``t`` (checked by the caller),
    N being ``n`` capped at the transitions left: g_k is the discounted sum
    of the next k rewards plus the discounted value of the state reached."""
    _check_states(traj, feature_map.n_states)
    returns = []
    reward_part = 0.0
    disc = 1.0
    for k in range(t, t + min(n, traj.num_transitions - t)):
        reward_part += disc * traj.rewards[k]
        disc *= gamma
        returns.append(reward_part + disc * _value(feature_map, theta,
                                                   int(traj.states[k + 1])))
    return returns


def td_errors(traj: Trajectory, theta, feature_map: FeatureMap,
              gamma: float) -> np.ndarray:
    """The one-step errors R + gamma*v(S') - v(S) of every transition, with
    v read state by state, once per distinct state."""
    _check_states(traj, feature_map.n_states)
    states = traj.states.tolist()
    value = {s: _value(feature_map, theta, s) for s in set(states)}
    values = np.array([value[s] for s in states])
    return traj.rewards + gamma * values[1:] - values[:-1]


def n_step_return(traj: Trajectory, t: int, n: int, theta, feature_map: FeatureMap,
                  gamma: float) -> float:
    """Discounted n-step return from position ``t``, bootstrapping from the
    estimated value of the state reached (zero at or beyond TERMINAL);
    ``n`` is an integer of at least 1."""
    n = checked_int("n", n, least=1)
    t = _check_t(traj, t)
    returns = _n_step_returns(traj, t, n, theta, feature_map, gamma)
    if len(returns) < n and not traj.ends_terminal:
        raise IndexError("n-step horizon exceeds the truncated trajectory")
    return returns[-1]


def lambda_return(traj: Trajectory, t: int, theta, feature_map: FeatureMap,
                  gamma: float, lam: float) -> float:
    """Exponentially mixed n-step returns; the final return absorbs the
    residual geometric weight.  It is the discerning return under unit
    emphasis, bit for bit, with ``ReturnParams``' checks of lam and gamma."""
    return discerning_return_interp(
        traj, t, ReturnParams(lam, gamma, np.ones(traj.num_transitions)),
        theta, feature_map)


def identity_check(f_seq, lam: float) -> float:
    """Numerically evaluate the telescoping series whose weights generalize
    the (1 - lam) multiplier; the result must equal the first element.

    The sequence is constant-extended past its end, so the geometric tail
    sums to lam**(L-1) times the final value.  Requires lam < 1.
    """
    f = np.asarray(f_seq, dtype=np.float64)
    if f.ndim != 1 or f.size == 0 or np.any(f <= 0.0) or np.any(~np.isfinite(f)):
        raise ValueError("f_seq must be a nonempty positive vector")
    lam = checked_real("lam", lam)
    if not 0.0 <= lam < 1.0:
        raise ValueError("lam must lie in [0, 1)")
    total = 0.0
    lam_pow = 1.0
    for n in range(len(f) - 1):
        total += lam_pow * (f[n] - lam * f[n + 1])
        lam_pow *= lam
    return total + lam_pow * f[-1]


def discerning_return_interp(traj: Trajectory, t: int, params: ReturnParams,
                             theta, feature_map: FeatureMap) -> float:
    """Emphasis-weighted mixture of n-step returns, normalized by the weight
    at the starting state.

    The mixture coefficient on the n-step return is
    lam**(n-1) * (f[t+n-1] - lam * f[t+n]); all residual weight collapses
    onto the final (full-horizon) return.
    """
    f = _check_f(params, traj)
    t = _check_t(traj, t)
    *returns, g_last = _n_step_returns(traj, t, traj.num_transitions, theta,
                                       feature_map, params.gamma)
    lam = params.lam
    lam_pow = 1.0
    total = 0.0
    for k, g_n in enumerate(returns, start=t):
        total += lam_pow * (f[k] - lam * f[k + 1]) * g_n
        lam_pow *= lam
    return (total + lam_pow * f[-1] * g_last) / f[t]


def discerning_return_tdsum(traj: Trajectory, t: int, params: ReturnParams,
                            theta, feature_map: FeatureMap) -> float:
    """Same target written as the start value plus the discounted sum of
    emphasis-weighted one-step errors (weights frozen at ``theta``)."""
    f = _check_f(params, traj)
    t = _check_t(traj, t)
    lam, gamma = params.lam, params.gamma
    deltas = td_errors(traj, theta, feature_map, gamma)
    total = 0.0
    scale = 1.0
    for k in range(t, traj.num_transitions):
        total += scale * deltas[k] * f[k]
        scale *= gamma * lam
    return _value(feature_map, theta, int(traj.states[t])) + total / f[t]


def dae(traj: Trajectory, params: ReturnParams, theta,
        feature_map: FeatureMap) -> np.ndarray:
    """Advantage estimates for every position in one backward pass.

    The unnormalized tail obeys tail[t] = delta[t]*f[t] + gamma*lam*tail[t+1];
    each advantage divides the tail by its own emphasis weight.
    """
    f = _check_f(params, traj)
    lam, gamma = params.lam, params.gamma
    deltas = td_errors(traj, theta, feature_map, gamma)
    out = np.empty(len(deltas))
    tail = 0.0
    for k in range(len(deltas) - 1, -1, -1):
        tail = deltas[k] * f[k] + gamma * lam * tail
        out[k] = tail / f[k]
    return out
