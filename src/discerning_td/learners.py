"""Online linear prediction algorithms over one eligibility-trace update.

All five learners share the one-step error delta = R + gamma * v(S') - v(S)
with v(TERMINAL) = 0 and the trace update of :class:`TraceKernel`; they
differ only in its coefficients.  The kernel steps a batch of runs at once
(``harness.simulate_curves``); ``run_episode`` drives it one run at a time.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .emphasis import EmphasisKind, EmphasisSpec, EmphasisState, \
    emphasis_abs_expected_td, init_emphasis_state, update_counts
from .mrp import FeatureMap, MarkovRewardProcess, checked_int, \
    checked_real, checked_unit
from .returns import simulate_trajectory


class Algorithm(str, enum.Enum):
    TD = "TD"
    DTD = "DTD"
    ETD = "ETD"
    PTD = "PTD"
    TDW = "TDW"

    def __str__(self) -> str:
        return self.value

    @property
    def takes_emphasis(self) -> bool:
        """TD and ETD ignore the emphasis function."""
        return self not in (Algorithm.TD, Algorithm.ETD)


@dataclass(frozen=True)
class DecayingAlpha:
    """Step sizes a / (1 + t/b): square-summable but not summable."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise ValueError("schedule parameters must be positive and finite")

    def value(self, step: int) -> float:
        return self.a / (1.0 + step / self.b)


@dataclass(frozen=True)
class AlgoConfig:
    """One learner's hyperparameters: lambda and alpha are real numbers (a
    bool is none), stored as floats, or alpha is a ``DecayingAlpha``."""

    algorithm: Algorithm
    lam: float
    alpha: object  # float or DecayingAlpha
    emphasis: EmphasisSpec = field(
        default_factory=lambda: EmphasisSpec(EmphasisKind.CONSTANT))

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        for name, what in (("lam", "lambda"), ("alpha", "alpha")):
            value = getattr(self, name)
            if name == "alpha" and isinstance(value, DecayingAlpha):
                continue
            object.__setattr__(self, name,
                               checked_real(f"{self.algorithm} {what}", value))
        checked_unit("lam", self.lam)
        spec = self.emphasis
        if self.algorithm is Algorithm.PTD and (
                spec.kind is EmphasisKind.CONSTANT and spec.constant > 1.0
                or spec.kind is EmphasisKind.TABLE and spec.table.max() > 1.0):
            raise ValueError("PTD preferences (emphasis values) must lie in "
                             "[0, 1]")
        if not 0.0 < self.alpha_at(0) < np.inf:  # a schedule starts at a
            raise ValueError("alpha must be positive and finite")

    def alpha_at(self, step: int) -> float:
        if isinstance(self.alpha, DecayingAlpha):
            return self.alpha.value(step)
        return self.alpha


@dataclass
class LearnerState:
    """Weights, eligibility trace and per-episode scalars for one run."""

    theta: np.ndarray
    trace: np.ndarray
    followon: float = 0.0
    step_count: int = 0


def init_learner_state(n_features: int) -> LearnerState:
    return LearnerState(theta=np.zeros(n_features), trace=np.zeros(n_features))


def _rows_of(values, member):
    """Rows holding ``member``: None for no row, True for every row, else a
    mask."""
    mask = np.array([v is member for v in values], dtype=bool)
    if not mask.any():
        return None
    return True if mask.all() else mask


def _select(rows, a, b):
    """``a`` on ``rows`` (True for every row, else a mask), ``b`` elsewhere."""
    return a if rows is True else np.where(rows, a, b)


class TraceKernel:
    """One step of a batch of learners, one row per run.

    Every learner is the trace update ``e <- c_decay*e + c_in*phi(s)``,
    ``theta <- theta + alpha*delta*c_out*e`` with per-row coefficients:

    ======  ============  =====  =====
    row     c_decay       c_in   c_out
    ======  ============  =====  =====
    TD      gl            1      1
    DTD     gl            w      w
    ETD     gl            M      1
    PTD     gl*(1-w)      w      1
    TDW     gl            w      1
    ======  ============  =====  =====

    where gl = gamma*lam, w is the row's emphasis at the visited state and
    M = lam + (1-lam)*F is the follow-on emphasis, F <- gamma*F + 1.  TD and
    ETD rows ignore w; ``weighted`` marks the rows that read it.  The
    products keep the grouping ``(alpha*delta)*w`` and ``gl*(1-w)``, and
    each row's coefficients are selected, never blended by 0/1 masks, so a
    diverged row's NaN stays in its row.
    """

    def __init__(self, configs, gamma: float):
        algos = [c.algorithm for c in configs]
        self.gamma = gamma
        self.lam = np.array([c.lam for c in configs], dtype=np.float64)
        self.glam = gamma * self.lam
        self._one_minus_lam = 1.0 - self.lam
        takes = [a.takes_emphasis for a in algos]
        self.weighted = np.array(takes, dtype=bool)
        self._unweighted = _rows_of(takes, False)
        self._ones = np.ones(len(configs))
        self._glam_col = self.glam[:, None]
        self._dtd = _rows_of(algos, Algorithm.DTD)
        self._etd = _rows_of(algos, Algorithm.ETD)
        self._ptd = _rows_of(algos, Algorithm.PTD)

    def step(self, theta, trace, followon, phi_s, phi_n, reward, w, alpha):
        """Advance every row by one transition and return the new
        ``(theta, trace, followon)``.  ``theta``, ``trace``, ``phi_s`` and
        ``phi_n`` (zero at the terminal sink) are (B, k); the others are
        (B,) or scalars."""
        delta = reward + self.gamma * np.einsum("bk,bk->b", phi_n, theta) \
            - np.einsum("bk,bk->b", phi_s, theta)
        if self._unweighted is not None:
            w = _select(self._unweighted, self._ones, w)
        c_in = w
        if self._etd is not None:
            followon = self.gamma * followon + 1.0
            c_in = _select(self._etd,
                           self.lam + self._one_minus_lam * followon, w)
        c_decay = self._glam_col
        if self._ptd is not None:
            c_decay = _select(self._ptd, self.glam * (1.0 - w),
                              self.glam)[:, None]
        step = alpha * delta
        if self._dtd is not None:
            step = _select(self._dtd, step * w, step)
        trace = c_decay * trace + c_in[:, None] * phi_s
        theta = theta + step[:, None] * trace
        return theta, trace, followon


def run_episode(mrp: MarkovRewardProcess, feature_map: FeatureMap,
                config: AlgoConfig, emphasis_state: EmphasisState,
                learner: LearnerState, rng, step_budget: int):
    """Run the configured algorithm for one episode: a one-row
    :class:`TraceKernel` stepped over a ``simulate_trajectory`` episode.

    The trace resets at the episode start, count-based emphasis records each
    visit and adaptive emphasis is refreshed from the current weights before
    every update; neither draws from ``rng``.  Stops at the terminal sink or
    once ``step_budget`` transitions have been taken, whichever comes first.

    Returns ``(learner, emphasis_state, steps_used)``.
    """
    if checked_int("step_budget", step_budget, least=0) == 0:
        return learner, emphasis_state, 0
    traj = simulate_trajectory(mrp, rng, step_budget)
    kernel = TraceKernel([config], mrp.discount)
    theta = learner.theta[None, :]
    trace, followon = np.zeros_like(theta), np.zeros(1)  # both start at zero
    states = traj.states.tolist()
    for state, next_state, reward in zip(states, states[1:],
                                         traj.rewards.tolist()):
        if emphasis_state.kind is EmphasisKind.COUNT_INVERSE:
            update_counts(state, emphasis_state)
        elif emphasis_state.kind is EmphasisKind.ABS_EXPECTED_TD_ERROR:
            emphasis_state.values = emphasis_abs_expected_td(
                mrp, feature_map, theta[0], emphasis_state.epsilon_floor)
        theta, trace, followon = kernel.step(
            theta, trace, followon, feature_map.phi[state][None, :],
            feature_map.feature(next_state)[None, :], reward,
            emphasis_state.values[state:state + 1],
            config.alpha_at(learner.step_count))
        learner.step_count += 1
    learner.theta, learner.trace = theta[0], trace[0]
    learner.followon = float(followon[0])
    return learner, emphasis_state, traj.num_transitions


def new_run(mrp: MarkovRewardProcess, feature_map: FeatureMap,
            config: AlgoConfig):
    """Fresh learner and emphasis state for one run of ``config``."""
    return (init_learner_state(feature_map.n_features),
            init_emphasis_state(config.emphasis, mrp))
