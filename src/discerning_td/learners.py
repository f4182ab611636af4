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
    """Step sizes a / (1 + t/b): square-summable but not summable.  ``a``
    and ``b`` are real numbers (a bool is none), kept as given, since
    ``harness.cell_key`` seeds runs from the schedule's repr."""

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            checked_real(f"schedule {name}", getattr(self, name))
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
    ETD rows ignore w; ``weighted`` marks the rows that read it.

    The coefficients depend on w and F only, not on theta.  So a caller
    takes F along a sampled path (:meth:`followon_path`) and the
    coefficients (:meth:`coefficients`) for the whole path, or per step
    when some row's w reads theta, and per step calls :meth:`advance`,
    which does the theta-dependent rest (delta, then the trace and theta in
    place).  The products keep the grouping ``(alpha*delta)*c_out`` and
    ``gl*(1-w)``; each row's coefficients are selected, never blended by
    0/1 masks, and a coefficient of 1 multiplies exactly, so a diverged
    row's NaN stays in its row, a kernel over a subset of the rows gives
    those rows' coefficients bit for bit (:func:`run_episode`'s one-row
    kernel relies on it), and every bit is the same whether a coefficient
    was taken per path or per step.
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
        self._dtd = _rows_of(algos, Algorithm.DTD)
        self._etd = _rows_of(algos, Algorithm.ETD)
        self._ptd = _rows_of(algos, Algorithm.PTD)

    def followon_path(self, followon, exits):
        """The follow-on trace of every row at each step of a path, (steps,
        B), and the one carried past its end: ``F <- gamma*F + 1`` before
        each step and 0 after a step that leaves the episode (``exits``,
        (steps, B)).  Without ETD rows, which alone read it, F stays as it
        was."""
        if self._etd is None:
            return np.broadcast_to(followon, exits.shape), followon
        path = np.empty(exits.shape)
        for c, ended in enumerate(exits):
            path[c] = self.gamma * followon + 1.0
            followon = np.where(ended, 0.0, path[c])
        return path, followon

    def coefficients(self, w, followon):
        """``(c_in, c_decay, c_out)`` for emphasis ``w`` and the stepped
        follow-on trace ``followon`` (unused without ETD rows), each (B,)
        or, for several steps at once, broadcasting against ``w``'s
        (steps, B)."""
        if self._unweighted is not None:
            w = _select(self._unweighted, self._ones, w)
        c_in = w
        if self._etd is not None:
            c_in = _select(self._etd,
                           self.lam + self._one_minus_lam * followon, w)
        c_decay = self.glam
        if self._ptd is not None:
            c_decay = _select(self._ptd, self.glam * (1.0 - w), self.glam)
        c_out = self._ones
        if self._dtd is not None:
            c_out = _select(self._dtd, w, 1.0)
        return c_in, c_decay, c_out

    def advance(self, theta, trace, phi_s, phi_n, reward, alpha, coefficients):
        """Step ``theta`` and ``trace`` (both (B, k)) in place by one
        transition with one step's ``coefficients``.  ``phi_s`` and
        ``phi_n`` (zero at the terminal sink) are (B, k); ``reward`` and
        ``alpha`` are (B,) or scalars."""
        c_in, c_decay, c_out = coefficients
        delta = reward + self.gamma * np.einsum("bk,bk->b", phi_n, theta) \
            - np.einsum("bk,bk->b", phi_s, theta)
        trace *= c_decay[:, None]
        trace += c_in[:, None] * phi_s
        theta += (alpha * delta * c_out)[:, None] * trace


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
    theta = learner.theta[None, :].copy()
    trace = np.zeros_like(theta)  # the trace and F start at zero
    followons, followon = kernel.followon_path(
        np.zeros(1), np.zeros((traj.num_transitions, 1), bool))
    states = traj.states.tolist()
    for state, next_state, reward, stepped in zip(
            states, states[1:], traj.rewards.tolist(), followons):
        if emphasis_state.kind is EmphasisKind.COUNT_INVERSE:
            update_counts(state, emphasis_state)
        elif emphasis_state.kind is EmphasisKind.ABS_EXPECTED_TD_ERROR:
            emphasis_state.values = emphasis_abs_expected_td(
                mrp, feature_map, theta[0], emphasis_state.epsilon_floor)
        kernel.advance(theta, trace, feature_map.phi[state][None, :],
                       feature_map.feature(next_state)[None, :], reward,
                       config.alpha_at(learner.step_count),
                       kernel.coefficients(
                           emphasis_state.values[state:state + 1], stepped))
        learner.step_count += 1
    learner.theta, learner.trace = theta[0], trace[0]
    learner.followon = float(followon[0])
    return learner, emphasis_state, traj.num_transitions


def new_run(mrp: MarkovRewardProcess, feature_map: FeatureMap,
            config: AlgoConfig):
    """Fresh learner and emphasis state for one run of ``config``."""
    return (init_learner_state(feature_map.n_features),
            init_emphasis_state(config.emphasis, mrp))
