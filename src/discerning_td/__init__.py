"""Emphasis-weighted temporal-difference prediction.

Finite-chain environments, online learners whose updates are shaped by a
positive per-state emphasis function, the matching forward-view targets and
advantage estimator, exact operator and fixed-point analysis, and an
experiment harness with a CLI.
"""

from .analysis import ContractionReport, EmphasizedGeometry, LinearSystem, \
    PerEquivalenceResult, SingularSystemError, compute_A_b, \
    contraction_condition, dtd_operator, emphasized_geometry, fixed_point, \
    induced_norm, lambda_weighted_norm, mspbe, per_equivalence, projection
from .checks import CheckResult, verify_all
from .emphasis import EmphasisKind, EmphasisSpec, EmphasisState, \
    emphasis_abs_expected_td, emphasis_from_counts, emphasis_from_noise, \
    init_emphasis_state, long_run_count_inverse, update_counts
from .harness import AggregateRecord, BestCell, CurveRecord, CurveTable, \
    ExperimentConfig, SelectionCriterion, SimulationOutput, aggregate, \
    aggregate_all, emit, load_aggregates, load_records, resolve_task, \
    run_experiment, select_best, simulate_curves
from .learners import AlgoConfig, Algorithm, DecayingAlpha, LearnerState, \
    TraceKernel, init_learner_state, new_run, run_episode
from .mrp import TERMINAL, ChainStructureError, ConvergenceError, \
    ExactSolution, FeatureMap, MarkovRewardProcess, exact_solution, \
    load_environment, make_boyan_chain, make_feature_map, make_noisy_chain, \
    make_random_walk, sample_transition, save_environment, \
    stationary_distribution, true_value
from .returns import ReturnParams, Trajectory, dae, discerning_return_interp, \
    discerning_return_tdsum, identity_check, lambda_return, n_step_return, \
    simulate_trajectory

__version__ = "0.1.0"
