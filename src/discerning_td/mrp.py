"""Finite Markov reward processes with linear features.

Chains are defined over their non-terminal states only: transition rows may
sum to less than one, with the missing mass flowing to an implicit terminal
sink whose value is zero.  Steady-state quantities for episodic chains are
taken from the restart chain, in which terminal mass is redirected to the
initial distribution.
"""

import functools
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

# Sentinel index for the implicit terminal sink.
TERMINAL = -1

_POWER_TOL = 1e-13
_POWER_CAP = 1_000_000
# Largest count table that MarkovRewardProcess.step_table keeps, in entries.
_TABLE_ENTRIES = 1 << 20


class ChainStructureError(RuntimeError):
    """The restart chain is reducible or periodic, so no strictly positive
    stationary distribution exists."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


def checked_int(name, value, least=None) -> int:
    """``value`` as an int; ValueError unless it is an integer, numpy's
    included (a bool is none), and, given ``least``, at least that."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, not {value!r}")
    return int(value)


def checked_real(name, value) -> float:
    """``value`` as a float; ValueError unless it is a real number, numpy's
    included (a bool is none)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


def checked_unit(name, value) -> float:
    """``checked_real(name, value)``; ValueError unless it lies in [0, 1]."""
    value = checked_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return value


def _as_array(name, value, shape, allow_none=False):
    if value is None:
        if allow_none:
            return None
        raise ValueError(f"{name} must be provided")
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MarkovRewardProcess:
    """On-policy finite chain: sub-stochastic transitions, expected rewards,
    per-state Gaussian reward noise, initial distribution and discount.
    ``transition_cdf`` and ``initial_cdf`` hold the cumulative rows that
    every sampler inverts, and ``move_rewards`` the base reward of every
    move, ``n_states x (n_states + 1)`` with the exit to the terminal sink
    last.

    ``transition_reward``/``terminal_reward`` optionally attach deterministic
    base rewards to individual moves (e.g. a payout only when entering a
    specific terminal).  When absent, a sampled transition realizes the
    source state's expected reward.  Either way the per-state expectation
    must equal ``expected_reward``.
    """

    n_states: int
    transition: np.ndarray
    expected_reward: np.ndarray
    reward_noise_std: np.ndarray
    initial_dist: np.ndarray
    discount: float
    transition_reward: np.ndarray | None = None
    terminal_reward: np.ndarray | None = None
    transition_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    initial_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    move_rewards: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = checked_int("n_states", self.n_states, least=1)
        object.__setattr__(self, "n_states", n)
        p = _as_array("transition", self.transition, (n, n))
        if np.any(p < 0.0):
            raise ValueError("transition entries must be nonnegative")
        row_sums = p.sum(axis=1)
        if np.any(row_sums > 1.0 + 1e-12):
            raise ValueError("transition rows must sum to at most 1")
        r = _as_array("expected_reward", self.expected_reward, (n,))
        sigma = _as_array("reward_noise_std", self.reward_noise_std, (n,))
        if np.any(sigma < 0.0):
            raise ValueError("reward_noise_std entries must be nonnegative")
        rho = _as_array("initial_dist", self.initial_dist, (n,))
        if np.any(rho < 0.0) or abs(rho.sum() - 1.0) > 1e-12:
            raise ValueError("initial_dist must be a probability vector")
        gamma = checked_unit("discount", self.discount)
        tr = _as_array("transition_reward", self.transition_reward, (n, n),
                       allow_none=True)
        term_r = _as_array("terminal_reward", self.terminal_reward, (n,),
                           allow_none=True)
        if (tr is None) != (term_r is None):
            raise ValueError("transition_reward and terminal_reward must be "
                             "given together")
        if tr is not None:
            implied = (p * tr).sum(axis=1) + (1.0 - row_sums) * term_r
            if np.max(np.abs(implied - r)) > 1e-12:
                raise ValueError("attached rewards are inconsistent with "
                                 "expected_reward")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "expected_reward", r)
        object.__setattr__(self, "reward_noise_std", sigma)
        object.__setattr__(self, "initial_dist", rho)
        object.__setattr__(self, "discount", gamma)
        object.__setattr__(self, "transition_reward", tr)
        object.__setattr__(self, "terminal_reward", term_r)
        object.__setattr__(self, "transition_cdf", np.cumsum(p, axis=1))
        object.__setattr__(self, "initial_cdf", np.cumsum(rho))
        if tr is None:  # every move pays its source's expected reward
            moves = np.repeat(r[:, None], n + 1, axis=1)
        else:
            moves = np.hstack([tr, term_r[:, None]])
        object.__setattr__(self, "move_rewards", moves)
        for table in (self.transition_cdf, self.initial_cdf, moves):
            table.flags.writeable = False

    def exit_probs(self) -> np.ndarray:
        """Per-state probability of exiting to the terminal sink."""
        return np.clip(1.0 - self.transition.sum(axis=1), 0.0, 1.0)

    def restart_matrix(self) -> np.ndarray:
        """Transition matrix with terminal mass redirected to initial_dist."""
        return self.transition + np.outer(self.exit_probs(), self.initial_dist)

    @functools.cached_property
    def stationary(self) -> np.ndarray:
        """``stationary_distribution(self)``, solved once per chain and
        returned read-only: the chain is immutable."""
        d = stationary_distribution(self)
        d.flags.writeable = False
        return d

    @functools.cached_property
    def step_table(self):
        """``(edges, keys, table)`` for :func:`restart_path`, built on first
        use.  ``edges`` are the ``E`` distinct values of ``transition_cdf``,
        sorted; the rank of a value is the number of edges at most it.
        ``keys[s * n + j]`` is ``s * (E + 1)`` plus the rank of
        ``transition_cdf[s, j]``; rows are non-decreasing, so the keys are
        sorted, and for a uniform ``u`` of rank ``r``,
        ``keys.searchsorted(s * (E + 1) + r, "right") - s * n`` counts the
        entries of ``transition_cdf[s]`` at most ``u``: exactly
        ``(u >= transition_cdf[s]).sum()``, the next state, ``n`` meaning an
        exit.  ``table[r, s]`` holds that count for every rank and state
        when it has at most ``_TABLE_ENTRIES`` entries, and is None
        otherwise, so memory stays ``O(n^2)`` on dense chains."""
        n = self.n_states
        edges = np.sort(self.transition_cdf, axis=None)
        edges = edges[np.append(True, edges[1:] != edges[:-1])]
        width = len(edges) + 1
        ranks = np.searchsorted(edges, self.transition_cdf, side="right")
        keys = (np.arange(n)[:, None] * width + ranks).ravel()
        table = None
        if width * n <= _TABLE_ENTRIES:
            table = np.empty((width, n), np.min_scalar_type(n))
            every_rank = np.arange(width)
            for s in range(n):
                table[:, s] = np.searchsorted(ranks[s], every_rank, "right")
        for arr in (edges, keys, table):
            if arr is not None:
                arr.flags.writeable = False
        return edges, keys, table


@dataclass(frozen=True)
class FeatureMap:
    """State features as the rows of an ``n_states x K`` matrix with linearly
    independent columns."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.ndim != 2 or phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ValueError("phi must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi contains non-finite entries")
        if phi.shape[1] > phi.shape[0]:
            raise ValueError("more features than states")
        smallest = np.linalg.svd(phi, compute_uv=False)[-1]
        if smallest <= 1e-10:
            raise ValueError("feature columns are not linearly independent "
                             f"(smallest singular value {smallest:.3e})")
        phi = phi.copy()
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def n_states(self) -> int:
        return self.phi.shape[0]

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]

    def feature(self, state: int) -> np.ndarray:
        """Feature vector of ``state``; the zero vector at TERMINAL."""
        if state == TERMINAL:
            return np.zeros(self.n_features)
        return self.phi[state]


@dataclass(frozen=True)
class ExactSolution:
    """Stationary distribution and true values of a chain.  The diagonal
    steady-state weighting is stored as the vector ``d_pi``."""

    d_pi: np.ndarray
    true_value: np.ndarray


def _power_iteration(p_restart: np.ndarray) -> np.ndarray:
    n = p_restart.shape[0]
    d = np.full(n, 1.0 / n)
    for _ in range(_POWER_CAP):
        nxt = d @ p_restart
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - d)) < _POWER_TOL:
            return nxt
        d = nxt
    raise ConvergenceError(
        "stationary distribution did not converge; the restart chain is "
        "likely reducible or periodic")


def stationary_distribution(mrp: MarkovRewardProcess) -> np.ndarray:
    """Stationary distribution of the restart chain.

    Solves the left-eigenvector linear system directly, falling back to
    power iteration if the solve is degenerate.  Raises ChainStructureError
    when the restart chain is not irreducible and aperiodic.
    """
    p_restart = mrp.restart_matrix()
    n = mrp.n_states
    # Primitivity test: a power of an irreducible aperiodic nonnegative
    # matrix is strictly positive (Wielandt bound on the exponent).
    exponent = (n - 1) ** 2 + 1
    if np.any(np.linalg.matrix_power(p_restart, exponent) <= 0.0):
        raise ChainStructureError(
            "restart chain is reducible or periodic; no positive "
            "stationary distribution")
    m = p_restart.T - np.eye(n)
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        d = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        d = _power_iteration(p_restart)
    if np.max(np.abs(d @ p_restart - d)) > 1e-12 or np.any(d <= 0.0):
        d = _power_iteration(p_restart)
    if np.any(d <= 0.0):
        raise ChainStructureError("stationary distribution has non-positive "
                                  "entries")
    return d


def true_value(mrp: MarkovRewardProcess) -> np.ndarray:
    """Exact value vector, solving (I - discount * P) v = r."""
    n = mrp.n_states
    a = np.eye(n) - mrp.discount * mrp.transition
    try:
        v = np.linalg.solve(a, mrp.expected_reward)
    except np.linalg.LinAlgError as exc:
        raise ValueError("value system is singular: undiscounted chain with "
                         "no terminal exit") from exc
    if np.max(np.abs(a @ v - mrp.expected_reward)) > 1e-10:
        raise ValueError("value solve exceeded residual tolerance")
    return v


def exact_solution(mrp: MarkovRewardProcess) -> ExactSolution:
    return ExactSolution(d_pi=mrp.stationary, true_value=true_value(mrp))


def sample_transition(mrp: MarkovRewardProcess, state: int, rng):
    """Sample one transition from ``state``.

    Returns ``(reward, next_state)`` where ``next_state`` is TERMINAL when
    the chain exits.  Consumes exactly one uniform and one normal draw from
    ``rng`` regardless of the outcome.
    """
    if not 0 <= state < mrp.n_states:
        raise ValueError(f"state {state} out of range")
    nxt = int(np.searchsorted(mrp.transition_cdf[state], rng.random(),
                              side="right"))
    reward = mrp.move_rewards[state, nxt] \
        + mrp.reward_noise_std[state] * rng.standard_normal()
    return float(reward), (TERMINAL if nxt == mrp.n_states else nxt)


def start_states(mrp: MarkovRewardProcess, u):
    """Start states for the uniforms ``u`` (a scalar or an array) by
    inverse CDF of the initial distribution: the count of ``initial_cdf``
    entries at most ``u``, capped at the last state.  Searching all but the
    last entry applies that cap, which matters when rounding leaves the
    CDF's end below one.  States come in the smallest integer dtype that
    holds ``n_states``.  Every simulator draws its episode starts and
    restarts here."""
    return np.searchsorted(mrp.initial_cdf[:-1], u, side="right").astype(
        np.min_scalar_type(mrp.n_states))


def transition_ranks(mrp: MarkovRewardProcess, u):
    """Rank of each transition uniform in ``u`` among the edges of
    ``mrp.step_table``: the small-integer code of the uniform that
    :func:`restart_path` reads."""
    edges = mrp.step_table[0]
    return np.searchsorted(edges, u, side="right").astype(
        np.min_scalar_type(len(edges)))


def restart_path(mrp: MarkovRewardProcess, s, ranks, restarts):
    """Walk ``B`` restart chains through a chunk of ``L`` steps.

    ``s`` holds the ``B`` states at the start of the chunk; ``ranks`` and
    ``restarts`` are ``(B, L)`` codes of the chunk's transition and restart
    uniforms, made by :func:`transition_ranks` and :func:`start_states`.
    Step ``t`` of chain ``b`` moves by inverse CDF of its transition
    uniform, and where it exits, the chain restarts at ``restarts[b, t]``.

    Returns ``(states, nexts, s_end)``: the ``(L, B)`` states before and
    after every step, ``n_states`` at an exit, and the ``B`` states after
    the chunk.  States come in the smallest integer dtype that holds
    ``n_states``.  A step is one gather from ``mrp.step_table``'s count
    table, or one search among its keys where the chain has no table.
    This is the one vectorized transition sampler;
    :func:`sample_transition` is the scalar one.
    """
    n = mrp.n_states
    edges, keys, table = mrp.step_table
    small = np.min_scalar_type(n)
    n_chains, steps = ranks.shape
    restarts = np.ascontiguousarray(restarts.T, dtype=small)  # time-major
    states = np.empty((steps + 1, n_chains), small)
    nexts = np.empty((steps, n_chains), small)
    states[0] = s
    if table is not None:
        # offsets of each step's rank row in the flat table
        offsets = np.ascontiguousarray(
            ranks.T, dtype=np.min_scalar_type(table.size))
        offsets *= n
        flat = table.ravel()
        for t in range(steps):
            nxt = flat.take(offsets[t] + states[t], out=nexts[t], mode="clip")
            states[t + 1] = np.where(nxt == n, restarts[t], nxt)
    else:
        ranks = np.ascontiguousarray(ranks.T)
        width = len(edges) + 1
        for t in range(steps):
            s_t = states[t].astype(np.intp)
            found = keys.searchsorted(s_t * width + ranks[t], side="right")
            nxt = np.subtract(found, s_t * n, out=found)
            states[t + 1] = np.where(nxt == n, restarts[t], nxt)
            nexts[t] = nxt
    return states[:-1], nexts, states[-1]


# ---------------------------------------------------------------------------
# Benchmark environments
# ---------------------------------------------------------------------------


def make_random_walk(n_states: int, init: str):
    """Random walk with terminals at both ends.

    Moves left or right with probability one half; exiting past the right
    end pays +1 (attached to that transition), every other move pays 0.
    Undiscounted, tabular features, point-mass start chosen by ``init``
    (one of left / middle / right).
    """
    n = checked_int("n_states", n_states)
    if n < 2:
        raise ValueError("random walk needs at least 2 states")
    starts = {"left": 0, "middle": (n - 1) // 2, "right": n - 1}
    key = str(init).lower()
    if key not in starts:
        raise ValueError(f"init must be left, middle or right, got {init!r}")
    p = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            p[i, i - 1] = 0.5
        if i < n - 1:
            p[i, i + 1] = 0.5
    expected = np.zeros(n)
    expected[n - 1] = 0.5  # half chance of exiting right for +1
    terminal_reward = np.zeros(n)
    terminal_reward[n - 1] = 1.0
    rho = np.zeros(n)
    rho[starts[key]] = 1.0
    mrp = MarkovRewardProcess(
        n_states=n,
        transition=p,
        expected_reward=expected,
        reward_noise_std=np.zeros(n),
        initial_dist=rho,
        discount=1.0,
        transition_reward=np.zeros((n, n)),
        terminal_reward=terminal_reward,
    )
    return mrp, make_feature_map("tabular", n)


def make_noisy_chain(reward_level: float):
    """Ten-state chain with uniform dynamics and state-dependent reward noise.

    Every transition pays ``reward_level`` plus zero-mean Gaussian noise with
    standard deviation 0.1 * (state index + 1).  From every state the next
    step is uniform over the ten states and the terminal sink (1/11 each),
    and episodes restart uniformly.
    """
    n = 10
    p = np.full((n, n), 1.0 / (n + 1))
    level = checked_real("reward_level", reward_level)
    mrp = MarkovRewardProcess(
        n_states=n,
        transition=p,
        expected_reward=np.full(n, level),
        reward_noise_std=0.1 * np.arange(1, n + 1),
        initial_dist=np.full(n, 1.0 / n),
        discount=1.0,
    )
    return mrp, make_feature_map("tabular", n)


def make_boyan_chain():
    """Thirteen-state chain with four hat features spanning the true values.

    From state k >= 2 the chain moves to k-1 or k-2 with probability one
    half for reward -3; state 1 moves to state 0 for reward -2; state 0
    exits to the terminal sink with reward 0.  Episodes start at state 12.
    """
    n = 13
    p = np.zeros((n, n))
    for k in range(2, n):
        p[k, k - 1] = 0.5
        p[k, k - 2] = 0.5
    p[1, 0] = 1.0
    expected = np.full(n, -3.0)
    expected[1] = -2.0
    expected[0] = 0.0
    rho = np.zeros(n)
    rho[n - 1] = 1.0
    mrp = MarkovRewardProcess(
        n_states=n,
        transition=p,
        expected_reward=expected,
        reward_noise_std=np.zeros(n),
        initial_dist=rho,
        discount=1.0,
    )
    peaks = np.array([12.0, 8.0, 4.0, 0.0])
    states = np.arange(n, dtype=np.float64)
    phi = np.maximum(0.0, 1.0 - np.abs(states[:, None] - peaks[None, :]) / 4.0)
    return mrp, FeatureMap(phi)


_DEPENDENT_5 = np.array([
    [1.0, 0.0, 0.0],
    [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0],
    [1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)],
    [0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
    [0.0, 0.0, 1.0],
])


def make_feature_map(kind: str, n_states: int) -> FeatureMap:
    """Benchmark feature constructions: tabular identity, the inverted map
    (poor generalization) and the dependent map (rank-deficient span)."""
    key = str(kind).lower()
    n_states = checked_int("n_states", n_states, least=1)
    if key == "tabular":
        return FeatureMap(np.eye(n_states))
    if key == "inverted":
        if n_states != 5:
            raise ValueError("inverted features are defined for 5 states")
        phi = np.full((5, 5), 0.5)
        np.fill_diagonal(phi, 0.0)
        return FeatureMap(phi)
    if key == "dependent":
        if n_states != 5:
            raise ValueError("dependent features are defined for 5 states")
        return FeatureMap(_DEPENDENT_5)
    raise ValueError(f"unknown feature kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON serialization (schema used by the CLI --env-file option)
# ---------------------------------------------------------------------------


def mrp_to_dict(mrp: MarkovRewardProcess) -> dict:
    out = {
        "n_states": mrp.n_states,
        "transition": mrp.transition.tolist(),
        "expected_reward": mrp.expected_reward.tolist(),
        "reward_noise_std": mrp.reward_noise_std.tolist(),
        "initial_dist": mrp.initial_dist.tolist(),
        "discount": mrp.discount,
    }
    if mrp.transition_reward is not None:
        out["transition_reward"] = mrp.transition_reward.tolist()
        out["terminal_reward"] = mrp.terminal_reward.tolist()
    return out


def mrp_from_dict(data: dict) -> MarkovRewardProcess:
    """Inverse of :func:`mrp_to_dict`; the attached-reward keys are
    optional."""
    return MarkovRewardProcess(
        n_states=data["n_states"],
        transition=data["transition"],
        expected_reward=data["expected_reward"],
        reward_noise_std=data["reward_noise_std"],
        initial_dist=data["initial_dist"],
        discount=data["discount"],
        transition_reward=data.get("transition_reward"),
        terminal_reward=data.get("terminal_reward"),
    )


def save_environment(path, mrp: MarkovRewardProcess, fm: FeatureMap) -> None:
    payload = {"mrp": mrp_to_dict(mrp), "feature_map": {"phi": fm.phi.tolist()}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def read_json(path):
    """The JSON value in ``path``; ValueError, naming it, if it is not JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: {exc}") from None


def load_environment(path):
    """The (mrp, feature map) pair that :func:`save_environment` wrote."""
    payload = read_json(path)
    try:
        mrp = mrp_from_dict(payload["mrp"])
        fm = FeatureMap(payload["feature_map"]["phi"])
    except KeyError as exc:
        raise ValueError(f"{path} is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # TypeError: not a JSON object
        raise ValueError(f"{path} is not an environment: {exc}") from None
    if fm.n_states != mrp.n_states:
        raise ValueError(f"{path}: phi has {fm.n_states} rows for "
                         f"{mrp.n_states} states")
    return mrp, fm
