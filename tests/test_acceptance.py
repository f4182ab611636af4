"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin.

Stochastic protocols are pre-registered (fixed seeds and sampling rules
chosen before the first run) so every outcome is deterministic.  One
criterion (12) probes a claim that the pinned protocol does not reproduce
and is expected to fail honestly; its test states the measured gap rather
than watering the assertion down.  The analysis is in README, section
"Tests and acceptance suite".
"""

import time

import numpy as np
import pytest

from discerning_td import (
    AlgoConfig,
    Algorithm,
    DecayingAlpha,
    EmphasisKind,
    EmphasisSpec,
    FeatureMap,
    MarkovRewardProcess,
    ReturnParams,
    Trajectory,
    compute_A_b,
    contraction_condition,
    dae,
    discerning_return_interp,
    discerning_return_tdsum,
    dtd_operator,
    emphasized_geometry,
    fixed_point,
    identity_check,
    lambda_weighted_norm,
    load_records,
    make_feature_map,
    mspbe,
    per_equivalence,
    resolve_task,
    select_best,
    simulate_curves,
    simulate_trajectory,
    true_value,
)
from discerning_td.checks import exact_update_map_norm, monte_carlo_A_b, \
    operator_modulus, scale_emphasis_to_contract
from discerning_td.cli import main
from discerning_td.emphasis import long_run_count_inverse
from discerning_td.harness import ExperimentConfig, aggregate, \
    run_experiment, run_seed_sequences

ALL_TASKS = ("RW5_LEFT", "RW5_MIDDLE", "RW5_RIGHT", "RW5_TABULAR",
             "RW5_INVERTED", "RW5_DEPENDENT", "BOYAN13", "NOISY10:-1",
             "NOISY10:0", "NOISY10:1")


def report(num, passed, detail):
    label = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {label}: {detail}")
    return passed


def final_runs(by_cell_step, best):
    """The final-step MSPBE of each run of a best cell, from a table's
    ``by_cell_step()``."""
    by_step = by_cell_step[(best.task, best.algorithm, best.lam, best.alpha,
                            best.emphasis_kind)]
    return by_step[max(by_step)]


def se_gap(a, b):
    """Mean of ``a`` minus mean of ``b``, in standard errors of that
    difference (sample deviations, independent runs), to one decimal."""
    se = np.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b))
    return round(float((np.mean(a) - np.mean(b)) / se), 1)


PICKED_ON_SCORED_RUNS = ("each best cell is picked on the runs it is "
                         "scored on")


def random_episode(rng, n_states, max_len):
    length = int(rng.integers(1, max_len + 1))
    states = rng.integers(0, n_states, size=length + 1)
    states[-1] = -1
    return Trajectory(states, rng.normal(0.0, 1.0, size=length))


def test_01_telescoping_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        f = rng.uniform(0.05, 5.0, size=int(rng.integers(1, 51)))
        for lam in (0.0, 0.25, 0.5, 0.9):
            worst = max(worst, abs(identity_check(f, lam) - f[0]))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, f"telescoping gap {worst:.2e} (tol 1e-12), "
                          f"{elapsed:.2f}s")


def test_02_return_forms_agree():
    start = time.time()
    rng = np.random.default_rng(102)
    fm = make_feature_map("tabular", 6)
    worst = 0.0
    for i in range(1000):
        traj = random_episode(rng, 6, max_len=30)
        theta = rng.normal(0.0, 1.0, 6)
        f_state = rng.uniform(1e-3, 1.0, 6)
        lam = (0.0, 0.3, 0.7, 1.0 - 1e-6)[i % 4]
        gamma = (1.0, 0.9)[i % 2]
        params = ReturnParams.from_state_values(f_state, traj, lam, gamma)
        t = int(rng.integers(0, traj.num_transitions))
        a = discerning_return_interp(traj, t, params, theta, fm)
        b = discerning_return_tdsum(traj, t, params, theta, fm)
        worst = max(worst, abs(a - b))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(2, ok, f"mixture and error-sum forms differ by {worst:.2e} "
                         f"(tol 1e-10) over 1000 trajectories, {elapsed:.2f}s")


def test_03_unit_emphasis_reduction():
    start = time.time()
    worst = 0.0
    for task in ALL_TASKS:
        mrp, fm = resolve_task(task)
        td = AlgoConfig(Algorithm.TD, lam=0.9, alpha=0.1)
        dtd = AlgoConfig(Algorithm.DTD, lam=0.9, alpha=0.1,
                         emphasis=EmphasisSpec(EmphasisKind.CONSTANT, 1.0))
        seqs = run_seed_sequences(task, td, 0, 1)
        out_td = simulate_curves(mrp, fm, td, seqs, 5000, record_theta=True)
        out_dtd = simulate_curves(mrp, fm, dtd, seqs, 5000,
                                  record_theta=True)
        worst = max(worst, float(np.max(np.abs(
            out_td.theta_history - out_dtd.theta_history))))
    elapsed = time.time() - start
    ok = worst <= 1e-15 and elapsed < 5.0
    assert report(3, ok, f"unit-emphasis trajectories deviate by {worst:.2e} "
                         f"(tol 1e-15) across {len(ALL_TASKS)} tasks over "
                         f"5000 steps, {elapsed:.2f}s")


def test_04_offline_forward_backward_equivalence():
    rng = np.random.default_rng(104)
    mrp, fm = resolve_task("RW5_MIDDLE")
    alpha = 0.7
    worst = 0.0
    for i in range(200):
        traj = simulate_trajectory(mrp, rng)
        theta0 = rng.normal(0.0, 1.0, 5)
        f_state = rng.uniform(0.1, 2.0, 5)
        lam = (0.0, 0.4, 0.9, 1.0)[i % 4]
        params = ReturnParams.from_state_values(f_state, traj, lam, 1.0)
        values = np.array([0.0 if s == -1 else theta0[s]
                           for s in traj.states])
        deltas = traj.rewards + values[1:] - values[:-1]
        trace = np.zeros(5)
        backward = np.zeros(5)
        forward = np.zeros(5)
        for t in range(traj.num_transitions):
            s = int(traj.states[t])
            f_t = f_state[s]
            trace = lam * trace + f_t * fm.phi[s]
            backward += alpha * deltas[t] * f_t * trace
            target = discerning_return_interp(traj, t, params, theta0, fm)
            forward += alpha * f_t ** 2 * (target - values[t]) * fm.phi[s]
        worst = max(worst, float(np.max(np.abs(backward - forward))))
    ok = worst <= 1e-10
    assert report(4, ok, f"episode-summed backward vs forward updates differ "
                         f"by {worst:.2e} (tol 1e-10) over 200 episodes")


def test_05_expected_update_monte_carlo_oracle():
    start = time.time()
    mrp, fm = resolve_task("RW5_MIDDLE")
    f = long_run_count_inverse(mrp)
    lam = 0.8
    system = compute_A_b(mrp, fm, f, lam)
    a_mc, b_mc = monte_carlo_A_b(mrp, fm, f, lam, total_steps=1_000_000,
                                 seed=2025)
    a_err = float(np.linalg.norm(a_mc - system.A) / np.linalg.norm(system.A))
    b_err = float(np.linalg.norm(b_mc - system.b) / np.linalg.norm(system.b))
    elapsed = time.time() - start
    ok = max(a_err, b_err) < 0.01 and elapsed < 30.0
    assert report(5, ok, f"closed-form vs 1e6-step simulated averages: "
                         f"A {a_err:.4f}, b {b_err:.4f} relative (tol 0.01), "
                         f"{elapsed:.1f}s")


def test_06_convergence_to_fixed_point():
    start = time.time()
    mrp, fm = resolve_task("RW5_MIDDLE")
    f = 0.5 * long_run_count_inverse(mrp)
    lam = 0.0
    certificate = contraction_condition(mrp, f, lam)
    assert certificate.holds, "chosen emphasis must satisfy the condition"
    system = compute_A_b(mrp, fm, f, lam)
    theta_star = fixed_point(system)
    residual = float(np.max(np.abs(system.A @ theta_star + system.b)))
    config = AlgoConfig(
        Algorithm.DTD, lam=lam, alpha=DecayingAlpha(0.5, 1000.0),
        emphasis=EmphasisSpec(EmphasisKind.TABLE, table=f))
    seqs = run_seed_sequences("RW5_MIDDLE", config, 123, 1)
    out = simulate_curves(mrp, fm, config, seqs, 500_000)
    gap = float(np.max(np.abs(out.final_theta[0] - theta_star)))
    elapsed = time.time() - start
    ok = gap < 0.05 and residual < 1e-10 and elapsed < 60.0
    assert report(6, ok, f"after 5e5 decaying-step updates the weights sit "
                         f"{gap:.4f} from the fixed point (tol 0.05), "
                         f"residual {residual:.1e}, {elapsed:.1f}s")


def test_07_contraction_and_definiteness():
    # Pre-registered protocol: seed 7; 100 instances; 5 to 10 states;
    # discount uniform on (0.3, 0.95); mixing rate cycling (0, 0.3, 0.7);
    # emphasis shapes sqrt(u / max u) with u uniform on (0.1, 1), scaled to
    # satisfy the fixed-emphasis condition at margin 0.9; random full-rank
    # features; 100 sampled pairs per instance.
    #
    # The expected-update matrix scales quadratically with the emphasis, so
    # the scale-dependent condition cannot decide its sign; definiteness is
    # asserted on the instances certified by the scale-invariant exact-map
    # norm, and every indefinite instance is still reported.
    rng = np.random.default_rng(7)
    worst_eig = -np.inf
    worst_ratio = 0.0
    certified = 0
    violations = []
    modulus_above_one = []
    for i in range(100):
        n = int(rng.integers(5, 11))
        raw = rng.random((n, n)) + 0.05
        p = raw / raw.sum(axis=1, keepdims=True)
        gamma = float(rng.uniform(0.3, 0.95))
        mrp = MarkovRewardProcess(n, p, rng.normal(0.0, 1.0, n), np.zeros(n),
                                  np.full(n, 1.0 / n), gamma)
        lam = (0.0, 0.3, 0.7)[i % 3]
        u = rng.uniform(0.1, 1.0, n)
        f = scale_emphasis_to_contract(mrp, np.sqrt(u / u.max()), lam)
        assert contraction_condition(mrp, f, lam).holds
        k = int(rng.integers(2, n + 1))
        fm = FeatureMap(rng.normal(0.0, 1.0, (n, k)))
        system = compute_A_b(mrp, fm, f, lam)
        max_eig = float(np.max(np.linalg.eigvalsh(
            0.5 * (system.A + system.A.T))))
        if exact_update_map_norm(mrp, f, lam) < 1.0:
            certified += 1
            worst_eig = max(worst_eig, max_eig)
        if max_eig >= 0.0:
            violations.append((i, lam, round(gamma, 3), max_eig))
        if operator_modulus(mrp, f, lam) >= 1.0:
            modulus_above_one.append(i)
        geo = emphasized_geometry(mrp, f)
        for _ in range(100):
            x1 = rng.normal(0.0, 1.0, n)
            x2 = rng.normal(0.0, 1.0, n)
            ratio = lambda_weighted_norm(
                dtd_operator(x1, mrp, f, lam) - dtd_operator(x2, mrp, f, lam),
                geo.lam_diag) / lambda_weighted_norm(x1 - x2, geo.lam_diag)
            worst_ratio = max(worst_ratio, ratio)
    lipschitz_ok = worst_ratio < 1.0
    definite_ok = certified > 0 and worst_eig < 0.0
    report(7, lipschitz_ok and definite_ok,
           f"sampled operator modulus {worst_ratio:.4f} (< 1: "
           f"{lipschitz_ok}; exact modulus >= 1 on {modulus_above_one}); "
           f"exact-map norm certifies {certified}/100, worst certified "
           f"symmetric-part eigenvalue {worst_eig:+.2e} (< 0: "
           f"{definite_ok}); indefinite instances {violations}")
    assert lipschitz_ok, "sampled contraction modulus reached 1"
    assert certified > 0, "the exact-map norm certified no instance"
    assert worst_eig < 0.0, (
        "an instance certified by the exact-map norm has an expected-update "
        "matrix that is not negative definite (worst eigenvalue "
        f"{worst_eig:+.2e}); see README, Tests and acceptance suite")


def test_08_priority_sampling_identity():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        n_states = int(rng.integers(2, 12))
        f = rng.uniform(0.05, 3.0, n_states)
        size = int(rng.integers(1, 101))
        dataset = [(int(rng.integers(0, n_states)), float(rng.normal()),
                    float(rng.normal())) for _ in range(size)]
        res = per_equivalence(dataset, f)
        worst = max(worst, abs(res.lhs - res.rhs))
    ok = worst <= 1e-12
    assert report(8, ok, f"weighted-loss vs priority-sampling sides differ "
                         f"by {worst:.2e} (tol 1e-12) over 1000 datasets")


def test_09_advantage_estimator():
    rng = np.random.default_rng(109)
    fm = make_feature_map("tabular", 6)
    worst_oracle = 0.0
    worst_unit = 0.0
    for _ in range(500):
        traj = random_episode(rng, 6, max_len=25)
        theta = rng.normal(0.0, 1.0, 6)
        lam = float(rng.choice([0.0, 0.5, 0.95, 1.0]))
        gamma = float(rng.choice([0.9, 0.99, 1.0]))
        f_state = rng.uniform(0.05, 2.0, 6)
        params = ReturnParams.from_state_values(f_state, traj, lam, gamma)
        fast = dae(traj, params, theta, fm)
        t_len = traj.num_transitions
        values = np.array([0.0 if s == -1 else theta[s]
                           for s in traj.states])
        deltas = traj.rewards + gamma * values[1:] - values[:-1]
        f = params.f_values
        slow = np.array([
            sum((gamma * lam) ** (j - t) * deltas[j] * f[j]
                for j in range(t, t_len)) / f[t]
            for t in range(t_len)])
        worst_oracle = max(worst_oracle, float(np.max(np.abs(fast - slow))))
        unit = dae(traj, ReturnParams(lam, gamma, np.ones(t_len)), theta, fm)
        standard = np.zeros(t_len)
        acc = 0.0
        for k in range(t_len - 1, -1, -1):
            acc = deltas[k] + gamma * lam * acc
            standard[k] = acc
        worst_unit = max(worst_unit, float(np.max(np.abs(unit - standard))))
    ok = worst_oracle <= 1e-12 and worst_unit <= 1e-12
    assert report(9, ok, f"backward pass vs double sum {worst_oracle:.2e}, "
                         f"unit emphasis vs standard advantage "
                         f"{worst_unit:.2e} (tol 1e-12, 500 trajectories)")


def test_10_mspbe_sanity():
    worst = 0.0
    for task in ALL_TASKS:
        mrp, _ = resolve_task(task)
        fm = make_feature_map("tabular", mrp.n_states)
        v = true_value(mrp)
        theta_ls = np.linalg.lstsq(fm.phi, v, rcond=None)[0]
        worst = max(worst, mspbe(theta_ls, mrp, fm))
    mrp, fm = resolve_task("BOYAN13")
    v = true_value(mrp)
    theta_ls = np.linalg.lstsq(fm.phi, v, rcond=None)[0]
    repr_gap = float(np.max(np.abs(fm.phi @ theta_ls - v)))
    ok = worst <= 1e-10 and repr_gap < 1e-8
    assert report(10, ok, f"tabular least-squares fit error measure "
                          f"{worst:.2e} (tol 1e-10); thirteen-state chain "
                          f"representation gap {repr_gap:.2e} (tol 1e-8)")


FIG1_TASKS = ("RW5_LEFT", "RW5_MIDDLE", "RW5_RIGHT")


def fig1_command(task, out_path):
    return ["run", "--task", task, "--algo", "TD", "DTD",
            "--emphasis", "count_inverse", "--runs", "50",
            "--steps", "5000", "--eval-every", "50", "--seed", "0",
            "--out", str(out_path), "--format", "csv"]


@pytest.fixture(scope="session")
def fig1_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig1")
    paths = {}
    start = time.time()
    for task in FIG1_TASKS:
        path = root / f"{task}.csv"
        assert main(fig1_command(task, path)) == 0
        paths[task] = path
    return paths, time.time() - start


def test_11_visitation_imbalance_reproduction(fig1_outputs):
    paths, sweep_seconds = fig1_outputs
    start = time.time()
    gaps = {}
    se_gaps = {}
    ok = True
    for task in FIG1_TASKS:
        records = load_records(paths[task])
        best = select_best(records)
        td = best[(task, "TD")]
        dtd = best[(task, "DTD")]
        gaps[task] = (round(dtd.score, 5), round(td.score, 5))
        by_cell_step = records.by_cell_step()
        se_gaps[task] = se_gap(final_runs(by_cell_step, dtd),
                               final_runs(by_cell_step, td))
        ok = ok and dtd.score < td.score
    elapsed = sweep_seconds + time.time() - start
    ok = ok and elapsed < 600.0
    assert report(11, ok, f"best-swept final means (emphasis vs plain) "
                          f"{gaps}; emphasis minus plain in standard errors "
                          f"of the difference {se_gaps} "
                          f"({PICKED_ON_SCORED_RUNS}); full sweep plus "
                          f"selection {elapsed:.0f}s (budget 600s)")


def test_12_reward_noise_reproduction():
    emphasis = EmphasisSpec(EmphasisKind.NOISE_PRIOR)
    from discerning_td.harness import DEFAULT_ALPHA_GRID, DEFAULT_LAMBDA_GRID
    cells = [AlgoConfig(algo, lam=lam, alpha=alpha, emphasis=emphasis)
             for algo in (Algorithm.TD, Algorithm.DTD)
             for lam in DEFAULT_LAMBDA_GRID for alpha in DEFAULT_ALPHA_GRID]
    stats = {}
    se_gaps = {}
    for level in ("-1", "0", "1"):
        task = f"NOISY10:{level}"
        config = ExperimentConfig(task=task, algorithms=cells, runs=50,
                                  steps=5000, eval_every=250, base_seed=0)
        records = run_experiment(config)
        best = select_best(records)
        by_cell_step = records.by_cell_step()
        se_gaps[level] = se_gap(final_runs(by_cell_step, best[(task, "DTD")]),
                                final_runs(by_cell_step, best[(task, "TD")]))
        for algo in ("TD", "DTD"):
            cell = best[(task, algo)]
            final = aggregate([r for r in records
                               if r.algorithm == algo and r.lam == cell.lam
                               and r.alpha == cell.alpha])[-1]
            stats[(level, algo)] = (final.mean_mspbe, final.std_mspbe)
    mean_ok = all(stats[(lvl, "DTD")][0] <= stats[(lvl, "TD")][0]
                  for lvl in ("-1", "0", "1"))
    std_ok = all(stats[(lvl, "DTD")][1] < stats[(lvl, "TD")][1]
                 for lvl in ("-1", "1"))
    summary = {lvl: (f"DTD {stats[(lvl, 'DTD')][0]:.4f}"
                     f"+-{stats[(lvl, 'DTD')][1]:.4f}",
                     f"TD {stats[(lvl, 'TD')][0]:.4f}"
                     f"+-{stats[(lvl, 'TD')][1]:.4f}")
               for lvl in ("-1", "0", "1")}
    report(12, mean_ok and std_ok,
           f"final step stats {summary}; DTD minus TD in standard errors of "
           f"the difference {se_gaps} ({PICKED_ON_SCORED_RUNS}); means not "
           f"above plain learner: {mean_ok}, deviations lower at nonzero "
           f"levels: {std_ok}")
    assert mean_ok, (
        "at nonzero reward levels the best-swept noise-prior cells finish "
        "slightly above the plain learner under the pinned grids "
        f"({summary}); see README, Tests and acceptance suite")
    assert std_ok, (
        "at nonzero reward levels the best-swept noise-prior cells do not "
        f"finish with a lower deviation than the plain learner ({summary}); "
        "see README, Tests and acceptance suite")


def test_13_adaptive_emphasis_reproduction():
    start = time.time()
    emphasis = EmphasisSpec(EmphasisKind.ABS_EXPECTED_TD_ERROR)
    from discerning_td.harness import DEFAULT_ALPHA_GRID, DEFAULT_LAMBDA_GRID
    algos = (Algorithm.TD, Algorithm.ETD, Algorithm.PTD, Algorithm.TDW,
             Algorithm.DTD)
    cells = [AlgoConfig(algo, lam=lam, alpha=alpha, emphasis=emphasis)
             for algo in algos
             for lam in DEFAULT_LAMBDA_GRID for alpha in DEFAULT_ALPHA_GRID]
    wins = {}
    scores = {}
    se_gaps = {}
    for task in ("RW5_TABULAR", "RW5_INVERTED", "RW5_DEPENDENT", "BOYAN13"):
        config = ExperimentConfig(task=task, algorithms=cells, runs=50,
                                  steps=5000, eval_every=500, base_seed=0)
        records = run_experiment(config)
        best = select_best(records)
        finals = {algo.value: best[(task, algo.value)].score
                  for algo in algos}
        scores[task] = {k: round(v, 4) for k, v in finals.items()}
        wins[task] = all(finals["DTD"] <= finals[name]
                         for name in ("TD", "ETD", "PTD", "TDW"))
        by_cell_step = records.by_cell_step()
        dtd = final_runs(by_cell_step, best[(task, "DTD")])
        se_gaps[task] = {name: se_gap(dtd, final_runs(by_cell_step,
                                                      best[(task, name)]))
                         for name in ("TD", "ETD", "PTD", "TDW")}
    n_wins = sum(wins.values())
    elapsed = time.time() - start
    ok = n_wins >= 3
    assert report(13, ok, f"adaptive emphasis best on {n_wins}/4 tasks "
                          f"(need 3); finals {scores}; DTD minus each "
                          f"baseline in standard errors of the difference "
                          f"{se_gaps} ({PICKED_ON_SCORED_RUNS}); "
                          f"{elapsed:.0f}s")


def test_14_byte_identical_csv(fig1_outputs, tmp_path):
    paths, _ = fig1_outputs
    repeat = tmp_path / "repeat.csv"
    assert main(fig1_command("RW5_LEFT", repeat)) == 0
    identical = repeat.read_bytes() == paths["RW5_LEFT"].read_bytes()
    assert report(14, identical,
                  "repeating the sweep command with the same seed "
                  f"reproduces the CSV byte for byte: {identical}")
