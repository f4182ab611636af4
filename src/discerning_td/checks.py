"""Self-verification registry: every module invariant and analytic identity
expressed as a named, deterministic check with a numeric margin.

``verify_all`` runs the registry (optionally filtered by substring) and
returns one result per check; failures are reported, never raised.

The two Monte Carlo oracles, ``monte_carlo_A_b`` and
``empirical_visit_frequencies``, walk their restart chains with
``mrp.restart_path``, the sampler of the sweep loop, and reduce the walk
to statistics per chunk of steps rather than per step.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import compute_A_b, contraction_condition, dtd_operator, \
    dtd_operator_matrix, emphasized_geometry, exact_update_map_norm, \
    fixed_point, induced_norm, lambda_weighted_norm, per_equivalence, \
    projection
from .emphasis import EmphasisKind, EmphasisSpec, emphasis_abs_expected_td, \
    emphasis_from_counts, emphasis_from_noise, long_run_count_inverse
from .harness import DRAW_BUDGET, resolve_task, run_seed_sequences, \
    simulate_curves
from .learners import Algorithm, AlgoConfig, new_run, run_episode
from .mrp import FeatureMap, MarkovRewardProcess, make_boyan_chain, \
    make_feature_map, restart_path, start_states, stationary_distribution, \
    transition_ranks, true_value
from .returns import ReturnParams, Trajectory, dae, discerning_return_interp, \
    discerning_return_tdsum, identity_check, simulate_trajectory, td_errors

TASK_NAMES = ("RW5_LEFT", "RW5_MIDDLE", "RW5_RIGHT", "RW5_INVERTED",
              "RW5_DEPENDENT", "BOYAN13", "NOISY10:-1", "NOISY10:0",
              "NOISY10:1")


@dataclass
class CheckResult:
    check: str | None  # set by verify_all from the check's registry entry
    passed: bool
    margin: float
    inputs: dict = field(default_factory=dict)
    details: str = ""
    seconds: float = 0.0  # wall time, set by verify_all; not in to_dict

    def to_dict(self) -> dict:
        return {"check": self.check, "inputs": self.inputs,
                "margin": self.margin, "pass": self.passed,
                "details": self.details}


def _result(tolerance, observed, inputs, details=""):
    margin = float(tolerance - observed)
    return CheckResult(check=None, passed=bool(observed <= tolerance),
                       margin=margin,
                       inputs=dict(inputs, tolerance=tolerance,
                                   observed=float(observed)),
                       details=details)


# ---------------------------------------------------------------------------
# Shared generators and oracles
# ---------------------------------------------------------------------------


def random_ergodic_mrp(rng, n_states=None, gamma=None) -> MarkovRewardProcess:
    """Random fully-connected chain (strictly positive transitions) with
    Gaussian rewards; discounted unless ``gamma`` says otherwise."""
    n = int(n_states) if n_states is not None else int(rng.integers(5, 11))
    raw = rng.random((n, n)) + 0.05
    p = raw / raw.sum(axis=1, keepdims=True)
    gamma = float(gamma) if gamma is not None else float(rng.uniform(0.3, 0.95))
    return MarkovRewardProcess(
        n_states=n, transition=p, expected_reward=rng.normal(0.0, 1.0, n),
        reward_noise_std=np.zeros(n), initial_dist=np.full(n, 1.0 / n),
        discount=gamma)


def scale_emphasis_to_contract(mrp, f_raw, lam):
    """Rescale a positive emphasis vector until the fixed-emphasis
    contraction condition holds, its left side at 0.9 of its right (the
    right side is scale invariant, the left linear in the scale).

    Only the scale changes, so the result is no more contractive or definite
    than the input shape: the exact operator modulus and the sign of the
    expected-update matrix are scale invariant.  Check those with
    ``terms["sound_holds"]`` of ``contraction_condition`` and with
    ``exact_update_map_norm``."""
    report = contraction_condition(mrp, f_raw, lam)
    if not np.isfinite(report.rhs):
        return np.asarray(f_raw, dtype=np.float64).copy()
    scale = 0.9 * report.rhs / report.lhs
    return np.asarray(f_raw, dtype=np.float64) * scale


def operator_modulus(mrp, f, lam) -> float:
    """Exact contraction modulus of the multi-step operator in its own
    emphasized norm (the weighted norm of its linear part)."""
    _, linear = dtd_operator_matrix(mrp, f, lam)
    geo = emphasized_geometry(mrp, f)
    return induced_norm(linear, geo.lam_diag)


def flatten_until_contractive(mrp, shape, lam):
    """Mix an emphasis shape toward uniform until the operator's exact
    modulus drops below 0.97; the modulus is scale invariant, so only the
    shape matters."""
    shape = np.asarray(shape, dtype=np.float64)
    for t in np.linspace(1.0, 0.0, 21):
        f = 1.0 + t * (shape / shape.mean() - 1.0)
        if np.all(f > 0.0) and operator_modulus(mrp, f, lam) < 0.97:
            return f
    raise ValueError("no contractive emphasis shape found for this chain")


def random_trajectory(rng, n_states, max_len=30, terminal=True) -> Trajectory:
    length = int(rng.integers(1, max_len + 1))
    states = rng.integers(0, n_states, size=length + 1)
    states = states.astype(np.int64)
    if terminal:
        states[-1] = -1
    rewards = rng.normal(0.0, 1.0, size=length)
    return Trajectory(states=states, rewards=rewards)


def _restart_stream(mrp, rng, n_chains, steps, noise):
    """Walk ``n_chains`` restart-chain streams for ``steps`` steps and
    return ``(states, nexts, z)`` from :func:`mrp.restart_path`, time-major
    ``(steps, n_chains)``, with the reward-noise normals ``z`` (None unless
    ``noise`` and the chain has reward noise: a zero scale adds exactly
    zero).  Draws transition, restart, optional noise and start variates,
    in that order, each an ``(n_chains, steps)`` block; a block is drawn a
    row at a time, the same values as one draw, and each row of uniforms
    becomes small-integer codes before the next is drawn."""
    ranks = np.stack([transition_ranks(mrp, rng.random(steps))
                      for _ in range(n_chains)])
    restarts = np.stack([start_states(mrp, rng.random(steps))
                         for _ in range(n_chains)])
    keep = noise and mrp.reward_noise_std.any()
    z_noise = np.empty((steps, n_chains)) if keep else None
    for i in range(n_chains if noise else 0):
        row = rng.standard_normal(steps)
        if keep:
            z_noise[:, i] = row
    s = start_states(mrp, rng.random(n_chains))
    states, nexts, _ = restart_path(mrp, s, ranks, restarts)
    return states, nexts, z_noise


def monte_carlo_A_b(mrp, feature_map, f_state, lam, total_steps, seed,
                    n_chains=20, burn_in=1_000):
    """Empirical averages of the per-step update matrix e (gamma*phi' -
    phi)^T f and offset e R f over a long restart stream, with the trace
    reset at episode boundaries.  Independent simulation oracle for the
    closed-form expected-update system.

    The trace recursion runs step by step into a ``(L, n_chains, k)``
    history of each chunk of steps; the sums are one product per chunk.
    Its time thus grows with the steps per chain, ceil(total_steps /
    n_chains) + burn_in, not with ``total_steps``: the verify check walks
    its 10^6 steps on 100 chains, 11,000 steps each instead of the
    default's 51,000.  The default of 20 stays the protocol of acceptance
    criterion 5."""
    rng = np.random.default_rng(seed)
    n = mrp.n_states
    k = feature_map.n_features
    steps_per = int(np.ceil(total_steps / n_chains)) + burn_in
    gamma = mrp.discount
    phi = feature_map.phi
    phi_pad = np.vstack([phi, np.zeros((1, k))])
    f_state = np.asarray(f_state, dtype=np.float64)
    f_phi = f_state[:, None] * phi

    states, nexts, z = _restart_stream(mrp, rng, n_chains, steps_per, True)
    chunk = max(1, DRAW_BUDGET // (n_chains * k))
    hist = np.empty((chunk, n_chains, k))
    carry = np.zeros((n_chains, k))  # the trace carried into the next step
    a_sum = np.zeros((k, k))
    b_sum = np.zeros(k)
    for t0 in range(0, steps_per, chunk):
        s, nxt = states[t0:t0 + chunk], nexts[t0:t0 + chunk]
        h = hist[:len(s)]
        step_in = f_phi[s]
        # decay by gamma*lam; an exit resets the trace to zero
        decay = np.where(nxt == n, 0.0, gamma * lam)[..., None]
        for t in range(len(s)):
            np.add(carry, step_in[t], out=h[t])
            np.multiply(h[t], decay[t], out=carry)
        lo = max(0, burn_in - t0)
        if lo >= len(s):
            continue
        s, nxt, h = s[lo:], nxt[lo:], h[lo:]
        reward = mrp.move_rewards[s, nxt]
        if z is not None:
            reward = reward + mrp.reward_noise_std[s] * z[t0 + lo:t0 + chunk]
        f_here = f_state[s]
        a_sum += np.einsum("tbk,tbj->kj", h * f_here[..., None],
                           gamma * phi_pad[nxt] - phi[s])
        b_sum += np.einsum("tbk,tb->k", h, reward * f_here)
    counted = (steps_per - burn_in) * n_chains
    return a_sum / counted, b_sum / counted


def empirical_visit_frequencies(mrp, total_steps, seed, n_chains=50,
                                burn_in=1_000):
    """Visit frequencies of the restart stream after burn-in.

    The walk is a Python loop over the steps per chain, ceil(total_steps /
    n_chains) + burn_in, each step a vector op across chains: the verify
    check passes 200 chains, 6,000 steps each for 10^6 counted steps
    instead of the default's 21,000."""
    rng = np.random.default_rng(seed)
    steps_per = int(np.ceil(total_steps / n_chains)) + burn_in
    states, _, _ = _restart_stream(mrp, rng, n_chains, steps_per, False)
    counts = np.bincount(states[burn_in:].ravel(), minlength=mrp.n_states)
    return counts / counts.sum()


def offline_update_gap(mrp, feature_map, traj, f_state, lam, alpha, theta0):
    """Max component gap between episode-summed backward updates (weights
    frozen at theta0) and the forward-view target updates."""
    gamma = mrp.discount
    f = np.asarray(f_state, dtype=np.float64)
    params = ReturnParams.from_state_values(f, traj, lam, gamma)
    phi = feature_map.phi
    deltas = td_errors(traj, theta0, feature_map, gamma)
    trace = np.zeros(feature_map.n_features)
    backward = np.zeros(feature_map.n_features)
    forward = np.zeros(feature_map.n_features)
    for t in range(traj.num_transitions):
        state = int(traj.states[t])
        f_t = f[state]
        trace = gamma * lam * trace + f_t * phi[state]
        backward += alpha * deltas[t] * f_t * trace
        target = discerning_return_interp(traj, t, params, theta0, feature_map)
        forward += alpha * f_t ** 2 * (target - float(phi[state] @ theta0)) \
            * phi[state]
    return float(np.max(np.abs(backward - forward)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_stationary_fixed_point():
    worst = 0.0
    for name in TASK_NAMES:
        mrp, _ = resolve_task(name)
        d = stationary_distribution(mrp)
        worst = max(worst, float(np.max(np.abs(d @ mrp.restart_matrix() - d))))
        worst = max(worst, float(max(0.0, -np.min(d))))
    return _result(1e-12, worst,
                   {"tasks": len(TASK_NAMES)})


def check_stationary_empirical():
    worst = 0.0
    for name in ("RW5_LEFT", "RW5_MIDDLE", "BOYAN13", "NOISY10:0"):
        mrp, _ = resolve_task(name)
        d = stationary_distribution(mrp)
        freq = empirical_visit_frequencies(mrp, 1_000_000, seed=2024,
                                           n_chains=200)
        worst = max(worst, float(np.max(np.abs(freq - d) / d)))
    return _result(0.01, worst,
                   {"steps": 1_000_000, "seed": 2024, "chains": 200},
                   "max relative per-state gap between simulated visit "
                   "frequencies and the stationary distribution")


def check_bellman_residual():
    worst = 0.0
    for name in TASK_NAMES:
        mrp, _ = resolve_task(name)
        v = true_value(mrp)
        resid = mrp.expected_reward + mrp.discount * (mrp.transition @ v) - v
        worst = max(worst, float(np.max(np.abs(resid))))
    return _result(1e-10, worst,
                   {"tasks": len(TASK_NAMES)})


def check_constructor_ergodicity():
    # stationary_distribution raises on reducible or periodic restart chains
    minima = []
    for name in TASK_NAMES:
        mrp, _ = resolve_task(name)
        minima.append(float(np.min(stationary_distribution(mrp))))
    observed = -min(minima)
    return _result(0.0, observed,
                   {"min_stationary_mass": min(minima)})


def check_feature_ranks():
    expected = {"tabular": 5, "inverted": 5, "dependent": 3}
    bad = 0
    for kind, rank in expected.items():
        phi = make_feature_map(kind, 5).phi
        sv = np.linalg.svd(phi, compute_uv=False)
        if int(np.sum(sv > 1e-10)) != rank:
            bad += 1
    boyan_phi = make_boyan_chain()[1].phi
    if int(np.sum(np.linalg.svd(boyan_phi, compute_uv=False) > 1e-10)) != 4:
        bad += 1
    return _result(0.0, float(bad), {"maps": 4})


def check_emphasis_pipeline_roundtrip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        counts = rng.integers(1, 60, size=6)
        f = emphasis_from_counts(counts, epsilon_floor=1e-12)
        imputed = counts.astype(float)
        share = imputed / imputed.sum()
        scaled = (1.0 / share) / (1.0 / share).max()
        worst = max(worst, float(np.max(np.abs(f ** 2 - scaled))))
        sigma = rng.uniform(0.0, 2.0, size=6)
        f = emphasis_from_noise(sigma, epsilon_floor=1e-12)
        scaled = np.exp(-sigma) / np.exp(-sigma).max()
        worst = max(worst, float(np.max(np.abs(f ** 2 - scaled))))
    return _result(1e-14, worst,
                   {"draws": 400},
                   "squaring the pipeline output recovers the scaled "
                   "pre-square-root score")


def check_emphasis_bounds():
    rng = np.random.default_rng(8)
    mrp, fm = resolve_task("RW5_MIDDLE")
    bad = 0.0
    for _ in range(100):
        theta = rng.normal(0.0, 3.0, fm.n_features)
        f = emphasis_abs_expected_td(mrp, fm, theta, epsilon_floor=1e-3)
        if np.any(f < 1e-3) or np.any(f > 1.0):
            bad += 1.0
        again = emphasis_abs_expected_td(mrp, fm, theta, epsilon_floor=1e-3)
        if not np.array_equal(f, again):
            bad += 1.0
    f_exact = emphasis_abs_expected_td(mrp, fm, true_value(mrp), 1e-3)
    if not np.allclose(f_exact, 1.0, atol=1e-6):
        bad += 1.0
    return _result(0.0, bad, {"draws": 100},
                   "adaptive emphasis stays in [floor, 1], is a pure "
                   "function of the weights, and is uniform at the exact "
                   "values")


def check_telescoping_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 51))
        f = rng.uniform(0.05, 5.0, size=length)
        for lam in (0.0, 0.25, 0.5, 0.9):
            worst = max(worst, abs(identity_check(f, lam) - f[0]))
    return _result(1e-12, worst,
                   {"sequences": 1000, "lambdas": [0.0, 0.25, 0.5, 0.9]})


def check_return_forms_agree():
    rng = np.random.default_rng(12)
    worst = 0.0
    lams = (0.0, 0.3, 0.7, 1.0 - 1e-6)
    for i in range(1000):
        n = 6
        fm = make_feature_map("tabular", n)
        traj = random_trajectory(rng, n, max_len=30,
                                 terminal=bool(rng.random() < 0.7))
        theta = rng.normal(0.0, 1.0, n)
        f_state = rng.uniform(1e-3, 1.0, n)
        params = ReturnParams.from_state_values(
            f_state, traj, lams[i % len(lams)],
            1.0 if i % 2 == 0 else 0.9)
        t = int(rng.integers(0, traj.num_transitions))
        a = discerning_return_interp(traj, t, params, theta, fm)
        b = discerning_return_tdsum(traj, t, params, theta, fm)
        worst = max(worst, abs(a - b))
    return _result(1e-10, worst, {"trajectories": 1000})


def check_advantage_backward_pass():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(300):
        n = 5
        fm = make_feature_map("tabular", n)
        traj = random_trajectory(rng, n, max_len=25,
                                 terminal=bool(rng.random() < 0.7))
        theta = rng.normal(0.0, 1.0, n)
        f_state = rng.uniform(0.05, 2.0, n)
        lam = float(rng.choice([0.0, 0.4, 0.9, 1.0]))
        gamma = float(rng.choice([0.9, 1.0]))
        params = ReturnParams.from_state_values(f_state, traj, lam, gamma)
        fast = dae(traj, params, theta, fm)
        f = params.f_values
        t_len = traj.num_transitions
        deltas = td_errors(traj, theta, fm, gamma)
        slow = np.array([
            sum((gamma * lam) ** (j - t) * deltas[j] * f[j]
                for j in range(t, t_len)) / f[t]
            for t in range(t_len)])
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    return _result(1e-12, worst,
                   {"trajectories": 300},
                   "single backward pass equals the quadratic double sum")


def check_unit_emphasis_reduction():
    worst = 0.0
    for name in ("RW5_MIDDLE", "BOYAN13", "NOISY10:1"):
        mrp, fm = resolve_task(name)
        td = AlgoConfig(Algorithm.TD, lam=0.9, alpha=0.1)
        dtd = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.1,
                         emphasis=EmphasisSpec(EmphasisKind.CONSTANT, 1.0))
        seqs_td = run_seed_sequences(name, td, 17, 2)
        out_td = simulate_curves(mrp, fm, td, seqs_td, 2000, record_theta=True)
        out_dtd = simulate_curves(mrp, fm, dtd, seqs_td, 2000,
                                  record_theta=True)
        worst = max(worst, float(np.max(np.abs(
            out_td.theta_history - out_dtd.theta_history))))
    return _result(1e-15, worst,
                   {"tasks": 3, "steps": 2000})


def check_emphasis_squared_scaling():
    mrp, fm = resolve_task("RW5_MIDDLE")
    scale = 2.0
    dtd = AlgoConfig(Algorithm.DTD, lam=0.0, alpha=0.05,
                     emphasis=EmphasisSpec(EmphasisKind.CONSTANT, scale))
    td0 = AlgoConfig(Algorithm.TD, lam=0.0, alpha=0.05 * scale * scale)
    seqs = run_seed_sequences("RW5_MIDDLE", dtd, 3, 2)
    out_dtd = simulate_curves(mrp, fm, dtd, seqs, 2000, record_theta=True)
    out_td = simulate_curves(mrp, fm, td0, seqs, 2000, record_theta=True)
    worst = float(np.max(np.abs(out_dtd.theta_history - out_td.theta_history)))
    return _result(1e-15, worst,
                   {"scale": scale, "steps": 2000},
                   "constant emphasis c is one-step equivalent to a "
                   "c-squared step size at lam=0 with tabular features")


def check_offline_episode_equivalence():
    rng = np.random.default_rng(15)
    mrp, fm = resolve_task("RW5_MIDDLE")
    worst = 0.0
    for i in range(100):
        traj = simulate_trajectory(mrp, rng)
        theta0 = rng.normal(0.0, 1.0, fm.n_features)
        f_state = rng.uniform(0.1, 2.0, mrp.n_states)
        lam = (0.0, 0.5, 0.9, 1.0)[i % 4]
        worst = max(worst, offline_update_gap(mrp, fm, traj, f_state, lam,
                                              alpha=0.7, theta0=theta0))
    return _result(1e-10, worst,
                   {"episodes": 100})


def check_projection_idempotent():
    rng = np.random.default_rng(16)
    worst = 0.0
    for name in ("RW5_INVERTED", "RW5_DEPENDENT", "BOYAN13"):
        mrp, fm = resolve_task(name)
        geo = emphasized_geometry(mrp, rng.uniform(0.2, 1.0, mrp.n_states))
        for weights in (geo.d, geo.lam_diag):
            pi = projection(fm, weights)
            worst = max(worst, float(np.max(np.abs(pi @ pi - pi))))
    return _result(1e-10, worst, {"tasks": 3})


def check_projection_orthogonality():
    rng = np.random.default_rng(17)
    worst = 0.0
    for name in ("RW5_DEPENDENT", "BOYAN13"):
        mrp, fm = resolve_task(name)
        f = rng.uniform(0.2, 1.0, mrp.n_states)
        geo = emphasized_geometry(mrp, f)
        pi = projection(fm, geo.lam_diag)
        for _ in range(50):
            v = rng.normal(0.0, 1.0, mrp.n_states)
            gap = fm.phi.T @ (geo.lam_diag * (v - pi @ v))
            worst = max(worst, float(np.max(np.abs(gap))))
    return _result(1e-10, worst,
                   {"draws": 100},
                   "the projection residual is orthogonal to the emphasized "
                   "feature span")


def check_projection_nonexpansive():
    rng = np.random.default_rng(18)
    worst = 0.0
    for name in ("RW5_DEPENDENT", "BOYAN13"):
        mrp, fm = resolve_task(name)
        f = rng.uniform(0.2, 1.0, mrp.n_states)
        geo = emphasized_geometry(mrp, f)
        pi = projection(fm, geo.lam_diag)
        for _ in range(50):
            v = rng.normal(0.0, 1.0, mrp.n_states)
            growth = (lambda_weighted_norm(pi @ v, geo.lam_diag)
                      - lambda_weighted_norm(v, geo.lam_diag))
            worst = max(worst, growth)
    return _result(1e-12, worst, {"draws": 100})


def check_operator_one_step():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        mrp = random_ergodic_mrp(rng)
        f = rng.uniform(0.2, 2.0, mrp.n_states)
        v = rng.normal(0.0, 1.0, mrp.n_states)
        lhs = dtd_operator(v, mrp, f, lam=0.0)
        rhs = mrp.expected_reward + mrp.discount * (mrp.transition @ v)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result(1e-12, worst, {"instances": 20},
                   "at lam=0 the operator is the one-step expected update")


def check_operator_update_consistency():
    # The expected update A theta + b equals the emphasized residual of the
    # multi-step operator wherever the operator's marginal-expectation
    # weighting is exact: any emphasis at lam=0, constant emphasis on
    # continuing discounted chains, and state-dependent emphasis at the
    # tabular fixed point.  For state-dependent emphasis at lam>0 the two
    # sides differ unless the emphasis increments are independent of the
    # returns; see the negative-definite check for the consequence.
    rng = np.random.default_rng(20)
    worst = 0.0
    cases = []
    for name in ("RW5_MIDDLE", "RW5_DEPENDENT", "BOYAN13"):
        mrp, fm = resolve_task(name)
        cases.append((mrp, fm))
    for _ in range(5):
        mrp = random_ergodic_mrp(rng)
        k = int(rng.integers(2, mrp.n_states))
        cases.append((mrp, FeatureMap(rng.normal(0.0, 1.0,
                                                 (mrp.n_states, k)))))
    for mrp, fm in cases:
        f_random = rng.uniform(0.2, 1.5, mrp.n_states)
        f_const = np.full(mrp.n_states, float(rng.uniform(0.3, 1.5)))
        continuing = bool(np.allclose(mrp.transition.sum(axis=1), 1.0)
                          and mrp.discount < 1.0)
        for f, lams in ((f_random, (0.0,)),
                        (f_const, (0.0, 0.5, 0.9) if continuing else (0.0,))):
            geo = emphasized_geometry(mrp, f)
            for lam in lams:
                system = compute_A_b(mrp, fm, f, lam)
                for _ in range(5):
                    theta = rng.normal(0.0, 1.0, fm.n_features)
                    v = fm.phi @ theta
                    lhs = system.A @ theta + system.b
                    rhs = fm.phi.T @ (geo.lam_diag
                                      * (dtd_operator(v, mrp, f, lam) - v))
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result(1e-8, worst,
                   {"cases": len(cases)},
                   "expected update equals the emphasized operator residual "
                   "in the regimes where the operator's independence "
                   "approximation is exact")


def check_operator_fixed_point():
    rng = np.random.default_rng(31)
    worst = 0.0
    for name in ("RW5_MIDDLE", "RW5_DEPENDENT", "BOYAN13"):
        mrp, fm = resolve_task(name)
        f = rng.uniform(0.3, 1.0, mrp.n_states)
        geo = emphasized_geometry(mrp, f)
        # lam=0: the projected operator fixed point is the expected-update
        # fixed point for any emphasis and features
        theta = fixed_point(compute_A_b(mrp, fm, f, 0.0))
        v = fm.phi @ theta
        gap = fm.phi.T @ (geo.lam_diag * (dtd_operator(v, mrp, f, 0.0) - v))
        worst = max(worst, float(np.max(np.abs(gap))))
        # tabular features: the true value is a fixed point of the operator
        # at any mixing rate for any emphasis
        tab = make_feature_map("tabular", mrp.n_states)
        v_true = true_value(mrp)
        for lam in (0.5, 0.9):
            worst = max(worst, float(np.max(np.abs(
                dtd_operator(v_true, mrp, f, lam) - v_true))))
    return _result(1e-8, worst, {"tasks": 3},
                   "projected-operator and expected-update fixed points "
                   "coincide where exact; the true value is always a fixed "
                   "point of the operator")


def check_fixed_point_tabular():
    rng = np.random.default_rng(21)
    worst = 0.0
    for name in ("RW5_LEFT", "RW5_MIDDLE", "BOYAN13"):
        mrp, _ = resolve_task(name)
        fm = make_feature_map("tabular", mrp.n_states)
        v_true = true_value(mrp)
        for lam in (0.0, 0.9, 1.0):
            f = rng.uniform(0.3, 1.0, mrp.n_states)
            theta = fixed_point(compute_A_b(mrp, fm, f, lam))
            worst = max(worst, float(np.max(np.abs(fm.phi @ theta - v_true))))
    return _result(1e-8, worst,
                   {"tasks": 3, "lambdas": [0.0, 0.9, 1.0]},
                   "with tabular features the fixed point is the true value "
                   "for any positive emphasis")


def check_expected_update_monte_carlo():
    mrp, fm = resolve_task("RW5_MIDDLE")
    f = long_run_count_inverse(mrp)
    lam = 0.8
    system = compute_A_b(mrp, fm, f, lam)
    a_mc, b_mc = monte_carlo_A_b(mrp, fm, f, lam, total_steps=1_000_000,
                                 seed=77, n_chains=100)
    a_err = float(np.linalg.norm(a_mc - system.A) / np.linalg.norm(system.A))
    b_err = float(np.linalg.norm(b_mc - system.b) / np.linalg.norm(system.b))
    return _result(0.01, max(a_err, b_err),
                   {"steps": 1_000_000, "lam": lam, "seed": 77,
                    "chains": 100},
                   "closed-form A, b match long-run simulated averages")


def check_negative_definite():
    # The printed sufficient condition certifies contraction of the series
    # operator; the expected-update matrix instead tracks the exact
    # expectation map, whose certified norm is the sound definiteness
    # certificate.  Instances certified by the fixed-emphasis condition
    # alone carry a small tail risk of indefiniteness (observed rate around
    # one to two percent), reported here but asserted only for the sound
    # certificate.
    rng = np.random.default_rng(23)
    worst = -np.inf
    certified = 0
    condition_only_violations = 0
    for _ in range(60):
        mrp = random_ergodic_mrp(rng)
        lam = float(rng.choice([0.0, 0.3, 0.7]))
        k = int(rng.integers(2, mrp.n_states + 1))
        fm = FeatureMap(rng.normal(0.0, 1.0, (mrp.n_states, k)))
        f = scale_emphasis_to_contract(
            mrp, rng.uniform(0.3, 1.5, mrp.n_states), lam)
        report = contraction_condition(mrp, f, lam)
        if not report.holds:
            return CheckResult(None, False, -np.inf, {"instances": 60},
                               "scaling failed to certify the condition")
        system = compute_A_b(mrp, fm, f, lam)
        max_eig = float(np.max(np.linalg.eigvalsh(
            0.5 * (system.A + system.A.T))))
        if exact_update_map_norm(mrp, f, lam) < 1.0:
            certified += 1
            worst = max(worst, max_eig)
        elif max_eig >= 0.0:
            condition_only_violations += 1
    return _result(0.0, worst,
                   {"instances": 60, "norm_certified": certified,
                    "condition_only_violations": condition_only_violations},
                   "largest symmetric-part eigenvalue of the expected-update "
                   "matrix over instances certified by the exact-map norm; "
                   "condition-only instances can be indefinite in the tail")


def _worst_ratio(operator, xs, lam_diag) -> float:
    """Largest ||T x - T 0|| / ||x|| in the lam_diag norm over the rows x
    of ``xs``; ``operator`` maps a block of value columns to their images
    T 0, T x_1, ..., in one call."""
    images = operator(np.column_stack([np.zeros(xs.shape[1]), xs.T]))
    return max(lambda_weighted_norm(tx - images[:, 0], lam_diag)
               / lambda_weighted_norm(x, lam_diag)
               for x, tx in zip(xs, images[:, 1:].T))


def check_operator_contraction_sampled():
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(20):
        mrp = random_ergodic_mrp(rng)
        lam = float(rng.choice([0.0, 0.3, 0.7]))
        f = flatten_until_contractive(mrp,
                                      rng.uniform(0.3, 1.5, mrp.n_states),
                                      lam)
        geo = emphasized_geometry(mrp, f)
        xs = rng.normal(0.0, 1.0, (30, mrp.n_states))
        worst = max(worst, _worst_ratio(
            lambda block: dtd_operator(block, mrp, f, lam), xs,
            geo.lam_diag))
    return _result(1.0 - 1e-9, worst,
                   {"instances": 20, "pairs": 30},
                   "sampled modulus of the operator in the emphasized norm "
                   "under the sound scale-invariant certificate")


def check_composition_contraction():
    rng = np.random.default_rng(25)
    worst = 0.0
    for name in ("RW5_DEPENDENT", "RW5_INVERTED"):
        mrp, fm = resolve_task(name)
        lam = 0.5
        f = flatten_until_contractive(mrp,
                                      rng.uniform(0.3, 1.0, mrp.n_states),
                                      lam)
        geo = emphasized_geometry(mrp, f)
        pi = projection(fm, geo.lam_diag)
        xs = rng.normal(0.0, 1.0, (40, mrp.n_states))
        worst = max(worst, _worst_ratio(
            lambda block: pi @ dtd_operator(block, mrp, f, lam), xs,
            geo.lam_diag))
    return _result(1.0 - 1e-9, worst,
                   {"tasks": 2, "pairs": 40},
                   "projected operator stays contracting under the "
                   "certified condition")


def check_induced_norm_oracle():
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = rng.normal(0.0, 1.0, (n, n))
        lam_diag = rng.uniform(0.1, 3.0, n)
        fast = induced_norm(m, lam_diag)
        # power iteration on the weighted generalized eigenproblem
        # M^T Lam M x = nu Lam x; the norm is sqrt(nu_max)
        x = rng.normal(0.0, 1.0, n)
        x /= lambda_weighted_norm(x, lam_diag)
        for _ in range(20_000):
            y = (m.T * lam_diag[None, :]) @ (m @ x) / lam_diag
            y_norm = lambda_weighted_norm(y, lam_diag)
            if y_norm == 0.0:
                break
            x_new = y / y_norm
            if min(np.max(np.abs(x_new - x)),
                   np.max(np.abs(x_new + x))) < 1e-15:
                x = x_new
                break
            x = x_new
        slow = (lambda_weighted_norm(m @ x, lam_diag)
                / lambda_weighted_norm(x, lam_diag))
        worst = max(worst, abs(fast - slow))
    return _result(1e-8, worst, {"instances": 25})


def check_weighted_norm_of_ones():
    rng = np.random.default_rng(27)
    worst = 0.0
    for name in ("RW5_MIDDLE", "BOYAN13"):
        mrp, _ = resolve_task(name)
        f = rng.uniform(0.2, 1.0, mrp.n_states)
        geo = emphasized_geometry(mrp, f)
        direct = lambda_weighted_norm(np.ones(mrp.n_states), geo.lam_diag)
        expected = float(np.sqrt(np.sum(geo.d * f ** 2)))
        worst = max(worst, abs(direct - expected))
    return _result(1e-14, worst, {"tasks": 2},
                   "the emphasized norm of the all-ones vector equals the "
                   "square root of the mean squared emphasis under the "
                   "stationary distribution (the root, not the mean itself)")


def check_priority_sampling_identity():
    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(400):
        n_states = int(rng.integers(2, 12))
        f = rng.uniform(0.05, 3.0, n_states)
        size = int(rng.integers(1, 101))
        states = rng.integers(0, n_states, size)
        dataset = [(int(s), float(rng.normal()), float(rng.normal()))
                   for s in states]
        res = per_equivalence(dataset, f)
        worst = max(worst, abs(res.lhs - res.rhs))
    return _result(1e-12, worst,
                   {"datasets": 400})


def check_precondition_robustness():
    mrp, fm = resolve_task("RW5_MIDDLE")
    bad_f = np.array([1.0, -0.5, 1.0, 1.0, 1.0])
    failures = 0
    for call in (
        lambda: emphasized_geometry(mrp, bad_f),
        lambda: dtd_operator(np.zeros(5), mrp, bad_f, 0.5),
        lambda: compute_A_b(mrp, fm, bad_f, 0.5),
        lambda: emphasis_from_counts(np.array([-1.0, 2.0])),
        lambda: EmphasisSpec(EmphasisKind.CONSTANT, constant=-1.0),
    ):
        try:
            call()
            failures += 1  # should have raised
        except (ValueError, TypeError):
            pass
    return _result(0.0, float(failures),
                   {"calls": 5},
                   "corrupted inputs raise clean precondition errors")


def check_simulation_determinism():
    mrp, fm = resolve_task("RW5_MIDDLE")
    config = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.25,
                        emphasis=EmphasisSpec(EmphasisKind.COUNT_INVERSE))
    seqs = run_seed_sequences("RW5_MIDDLE", config, 5, 3)
    a = simulate_curves(mrp, fm, config, seqs, 500, eval_every=50)
    seqs = run_seed_sequences("RW5_MIDDLE", config, 5, 3)
    b = simulate_curves(mrp, fm, config, seqs, 500, eval_every=50)
    same = np.array_equal(a.curves, b.curves) and np.array_equal(
        a.final_theta, b.final_theta)
    single = simulate_curves(mrp, fm, config,
                             run_seed_sequences("RW5_MIDDLE", config, 5, 1),
                             500, eval_every=50)
    row_match = np.array_equal(single.curves[0], a.curves[0])
    observed = 0.0 if (same and row_match) else 1.0
    return _result(0.0, observed,
                   {"runs": 3, "steps": 500},
                   "repeated batched runs are identical and row results do "
                   "not depend on the batch size")


def check_sequential_reduction():
    mrp, fm = resolve_task("RW5_MIDDLE")
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    td = AlgoConfig(Algorithm.TD, lam=0.9, alpha=0.1)
    dtd = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.1,
                     emphasis=EmphasisSpec(EmphasisKind.CONSTANT, 1.0))
    learner_a, emph_a = new_run(mrp, fm, td)
    learner_b, emph_b = new_run(mrp, fm, dtd)
    worst = 0.0
    for _ in range(200):
        run_episode(mrp, fm, td, emph_a, learner_a, rng_a, 10_000)
        run_episode(mrp, fm, dtd, emph_b, learner_b, rng_b, 10_000)
        worst = max(worst, float(np.max(np.abs(learner_a.theta
                                               - learner_b.theta))))
    return _result(1e-15, worst, {"episodes": 200},
                   "episode-level API: unit emphasis reproduces the plain "
                   "trace learner")


REGISTRY = (
    check_stationary_fixed_point,
    check_stationary_empirical,
    check_bellman_residual,
    check_constructor_ergodicity,
    check_feature_ranks,
    check_emphasis_pipeline_roundtrip,
    check_emphasis_bounds,
    check_telescoping_identity,
    check_return_forms_agree,
    check_advantage_backward_pass,
    check_unit_emphasis_reduction,
    check_emphasis_squared_scaling,
    check_offline_episode_equivalence,
    check_projection_idempotent,
    check_projection_orthogonality,
    check_projection_nonexpansive,
    check_operator_one_step,
    check_operator_update_consistency,
    check_operator_fixed_point,
    check_fixed_point_tabular,
    check_expected_update_monte_carlo,
    check_negative_definite,
    check_operator_contraction_sampled,
    check_composition_contraction,
    check_induced_norm_oracle,
    check_weighted_norm_of_ones,
    check_priority_sampling_identity,
    check_precondition_robustness,
    check_simulation_determinism,
    check_sequential_reduction,
)


def verify_all(name_filter: str | None = None):
    """Run every registered check (or those whose name contains the filter)
    and return the results, each named after its function and timed;
    exceptions become failed results."""
    results = []
    for fn in REGISTRY:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # report, never crash the verifier
            result = CheckResult(None, False, float("-inf"),
                                 details=f"raised {exc!r}")
        result.check = name
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
