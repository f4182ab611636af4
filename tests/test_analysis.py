import hashlib
import re

import numpy as np
import pytest

from discerning_td import (
    FeatureMap,
    LinearSystem,
    MarkovRewardProcess,
    SingularSystemError,
    compute_A_b,
    contraction_condition,
    dtd_operator,
    emphasized_geometry,
    fixed_point,
    induced_norm,
    lambda_weighted_norm,
    make_boyan_chain,
    make_feature_map,
    make_random_walk,
    mspbe,
    per_equivalence,
    projection,
    stationary_distribution,
    true_value,
)
from discerning_td.analysis import mspbe_rows
from discerning_td.checks import random_ergodic_mrp, \
    scale_emphasis_to_contract
from discerning_td.harness import resolve_task


class TestProjection:
    def test_tabular_is_identity(self):
        fm = make_feature_map("tabular", 4)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(projection(fm, w), np.eye(4), atol=1e-12)

    def test_idempotent(self):
        mrp, fm = make_random_walk(5, "middle")
        rng = np.random.default_rng(0)
        fm_dep = make_feature_map("dependent", 5)
        geo = emphasized_geometry(mrp, rng.uniform(0.2, 1.0, 5))
        pi = projection(fm_dep, geo.lam_diag)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-10)

    def test_residual_orthogonal_to_weighted_span(self):
        mrp, _ = make_random_walk(5, "middle")
        fm = make_feature_map("dependent", 5)
        rng = np.random.default_rng(1)
        geo = emphasized_geometry(mrp, rng.uniform(0.2, 1.0, 5))
        pi = projection(fm, geo.lam_diag)
        for _ in range(20):
            v = rng.normal(0, 1, 5)
            gap = fm.phi.T @ (geo.lam_diag * (v - pi @ v))
            assert np.max(np.abs(gap)) < 1e-10

    def test_nonexpansive_in_weighted_norm(self):
        mrp, _ = make_random_walk(5, "middle")
        fm = make_feature_map("dependent", 5)
        rng = np.random.default_rng(2)
        geo = emphasized_geometry(mrp, rng.uniform(0.2, 1.0, 5))
        pi = projection(fm, geo.lam_diag)
        for _ in range(50):
            v = rng.normal(0, 1, 5)
            assert lambda_weighted_norm(pi @ v, geo.lam_diag) <= \
                lambda_weighted_norm(v, geo.lam_diag) + 1e-12

    def test_rejects_nonpositive_weights(self):
        fm = make_feature_map("tabular", 3)
        with pytest.raises(ValueError):
            projection(fm, np.array([0.5, 0.0, 0.5]))


class TestMspbe:
    def test_exact_values_give_zero(self):
        for env in (make_random_walk(5, "left"), make_boyan_chain()):
            mrp, _ = env
            fm = make_feature_map("tabular", mrp.n_states)
            assert mspbe(true_value(mrp), mrp, fm) <= 1e-10

    def test_zero_rewards_zero_error_at_origin(self):
        mrp, fm = make_random_walk(5, "middle")
        zeroed = MarkovRewardProcess(5, mrp.transition, np.zeros(5),
                                     np.zeros(5), mrp.initial_dist, 1.0,
                                     transition_reward=np.zeros((5, 5)),
                                     terminal_reward=np.zeros(5))
        assert mspbe(np.zeros(5), zeroed, fm) == 0.0

    def test_origin_error_matches_matrix_oracle(self):
        mrp, fm = make_random_walk(5, "middle")
        got = mspbe(np.zeros(5), mrp, fm)
        # independent evaluation from the definition
        d = stationary_distribution(mrp)
        tv = mrp.expected_reward
        pi_tv = fm.phi @ np.linalg.solve(
            fm.phi.T @ (d[:, None] * fm.phi), fm.phi.T @ (d * tv))
        oracle = np.sqrt(np.sum(d * pi_tv ** 2))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got > 0.0

    @pytest.mark.parametrize("task", ["BOYAN13", "NOISY10:1",
                                      "RW5_DEPENDENT"])
    def test_one_weight_vector_matches_its_row_in_a_batch(self, task):
        # numpy multiplies a lone row by its matrix-vector product, which
        # can round unlike the matrix-matrix one of a batch
        mrp, fm = resolve_task(task)
        d = mrp.stationary
        proj_t = projection(fm, d).T
        thetas = np.random.default_rng(4).normal(0.0, 5.0,
                                                 (200, fm.n_features))
        batch = mspbe_rows(thetas, mrp, fm.phi, d, proj_t)
        alone = [mspbe(theta, mrp, fm) for theta in thetas]
        one_row = [mspbe_rows(theta[None, :], mrp, fm.phi, d, proj_t)[0]
                   for theta in thetas]
        assert batch.tolist() == alone == one_row

    def test_continuing_undiscounted_chain(self):
        # gamma 1 and no exit: no value solve, but d is still defined
        mrp = MarkovRewardProcess(2, np.full((2, 2), 0.5), [1.0, 0.0],
                                  np.zeros(2), [0.5, 0.5], 1.0)
        fm = make_feature_map("tabular", 2)
        assert mspbe(np.zeros(2), mrp, fm) == \
            pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


class TestOperator:
    def test_lambda_zero_is_one_step_update(self):
        rng = np.random.default_rng(3)
        mrp = random_ergodic_mrp(rng)
        f = rng.uniform(0.2, 2.0, mrp.n_states)
        v = rng.normal(0, 1, mrp.n_states)
        got = dtd_operator(v, mrp, f, lam=0.0)
        want = mrp.expected_reward + mrp.discount * (mrp.transition @ v)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_true_value_is_fixed_point_any_emphasis(self):
        mrp, _ = make_random_walk(5, "middle")
        rng = np.random.default_rng(4)
        v = true_value(mrp)
        for lam in (0.0, 0.5, 0.9):
            f = rng.uniform(0.1, 1.0, 5)
            np.testing.assert_allclose(dtd_operator(v, mrp, f, lam), v,
                                       atol=1e-12)

    def test_requires_contractive_mixing(self):
        mrp, _ = make_random_walk(5, "middle")
        with pytest.raises(ValueError):
            dtd_operator(np.zeros(5), mrp, np.ones(5), lam=1.0)

    def test_rejects_bad_emphasis(self):
        mrp, _ = make_random_walk(5, "middle")
        with pytest.raises(ValueError):
            dtd_operator(np.zeros(5), mrp, np.array([1, -1, 1, 1, 1.0]), 0.5)

    @pytest.mark.parametrize("f", [[1.0, np.nan, 1.0, 1.0, 1.0],
                                   [1.0, 1.0, np.inf, 1.0, 1.0],
                                   [1.0, 1.0, 1.0, 1.0]])
    @pytest.mark.parametrize("operator", ["series", "matrix"])
    def test_rejects_emphasis_not_finite_or_of_wrong_length(self, f,
                                                            operator):
        from discerning_td.analysis import dtd_operator_matrix
        mrp, _ = make_random_walk(5, "middle")
        call = {"series": lambda: dtd_operator(np.zeros(5), mrp, f, 0.5),
                "matrix": lambda: dtd_operator_matrix(mrp, f, 0.5)}[operator]
        with pytest.raises(ValueError, match="emphasis vector must be "
                                             "positive, finite and match "
                                             "the state count"):
            call()

    def test_series_cap_reported(self):
        from discerning_td import ConvergenceError
        mrp, _ = make_random_walk(5, "middle")
        with pytest.raises(ConvergenceError):
            dtd_operator(np.ones(5), mrp, np.ones(5), lam=0.9, series_cap=2)

    def test_matrix_series_cap_reported(self):
        from discerning_td import ConvergenceError
        from discerning_td.analysis import dtd_operator_matrix
        mrp, _ = make_random_walk(5, "middle")
        with pytest.raises(ConvergenceError):
            dtd_operator_matrix(mrp, np.ones(5), lam=0.9, series_cap=2)

    def test_affine_decomposition_matches_operator(self):
        from discerning_td.analysis import dtd_operator_matrix
        rng = np.random.default_rng(20)
        for name in ("RW5_MIDDLE", "BOYAN13"):
            from discerning_td import resolve_task
            mrp, _ = resolve_task(name)
            f = rng.uniform(0.2, 1.0, mrp.n_states)
            for lam in (0.0, 0.5, 0.9):
                offset, linear = dtd_operator_matrix(mrp, f, lam)
                for _ in range(5):
                    v = rng.normal(0, 1, mrp.n_states)
                    np.testing.assert_allclose(
                        offset + linear @ v, dtd_operator(v, mrp, f, lam),
                        atol=1e-11)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 0.95])
    def test_block_matches_its_columns(self, lam):
        # a block's products are matrix products, so its last bits may
        # differ from the column calls' matrix-vector products; the gap is
        # measured against each column's largest entry, as an entry that
        # nearly cancels has no relative precision to keep
        rng = np.random.default_rng(int(lam * 100))
        for _ in range(20):
            mrp = random_ergodic_mrp(rng)
            f = rng.uniform(0.3, 1.5, mrp.n_states)
            block = rng.normal(0.0, 1.0, (mrp.n_states, 31))
            got = dtd_operator(block, mrp, f, lam)
            want = np.column_stack([dtd_operator(v, mrp, f, lam)
                                    for v in block.T])
            gap = np.max(np.abs(got - want), axis=0)
            assert np.all(gap <= 1e-14 * np.max(np.abs(want), axis=0))

    def test_vector_keeps_its_bytes(self):
        """sha256 of 40 vector calls, pinned before the block form was
        added: the vector path keeps its operations."""
        rng = np.random.default_rng(41)
        digest = hashlib.sha256()
        for lam in (0.0, 0.3, 0.7, 0.95):
            for _ in range(10):
                mrp = random_ergodic_mrp(rng)
                f = rng.uniform(0.3, 1.5, mrp.n_states)
                v = rng.normal(0.0, 1.0, mrp.n_states)
                digest.update(dtd_operator(v, mrp, f, lam).tobytes())
        assert digest.hexdigest() == (
            "a7923f71c3aa0a9a7eaba371404dd5fd88255083606d569f259a546d5c4ffb82")

    @pytest.mark.parametrize("shape", [(), (4,), (4, 2), (5, 2, 2)])
    def test_rejects_a_value_array_of_another_shape(self, shape):
        mrp, _ = make_random_walk(5, "middle")
        with pytest.raises(ValueError, match="v must be a value vector or "
                                             "an \\(n, m\\) block"):
            dtd_operator(np.zeros(shape), mrp, np.ones(5), 0.5)

    def test_contraction_below_exact_modulus(self):
        # the sampled modulus can never exceed the weighted norm of the
        # operator's linear part, and shapes flattened below modulus one
        # contract on every sampled pair
        from discerning_td.checks import flatten_until_contractive, \
            operator_modulus
        rng = np.random.default_rng(5)
        for _ in range(10):
            mrp = random_ergodic_mrp(rng)
            lam = float(rng.choice([0.0, 0.3, 0.7]))
            f = flatten_until_contractive(
                mrp, rng.uniform(0.3, 1.5, mrp.n_states), lam)
            modulus = operator_modulus(mrp, f, lam)
            assert modulus < 1.0
            geo = emphasized_geometry(mrp, f)
            t0 = dtd_operator(np.zeros(mrp.n_states), mrp, f, lam)
            for _ in range(20):
                x = rng.normal(0, 1, mrp.n_states)
                ratio = lambda_weighted_norm(
                    dtd_operator(x, mrp, f, lam) - t0, geo.lam_diag) \
                    / lambda_weighted_norm(x, geo.lam_diag)
                assert ratio <= modulus + 1e-10
                assert ratio < 1.0


class TestExpectedUpdateSystem:
    def test_unit_emphasis_lambda_zero_classic_form(self):
        mrp, fm = make_random_walk(5, "middle")
        system = compute_A_b(mrp, fm, np.ones(5), 0.0)
        d = stationary_distribution(mrp)
        want_a = fm.phi.T @ (d[:, None] * ((mrp.transition - np.eye(5))
                                           @ fm.phi))
        want_b = fm.phi.T @ (d * mrp.expected_reward)
        np.testing.assert_allclose(system.A, want_a, atol=1e-12)
        np.testing.assert_allclose(system.b, want_b, atol=1e-12)

    def test_consistency_with_operator_residual(self):
        # exact wherever the operator's marginal-expectation weighting is:
        # any emphasis at lam=0, constant emphasis on continuing chains
        rng = np.random.default_rng(6)
        mrp = random_ergodic_mrp(rng, n_states=6, gamma=0.9)
        fm = FeatureMap(rng.normal(0, 1, (6, 3)))
        f_rand = rng.uniform(0.2, 1.5, 6)
        f_const = np.full(6, 0.8)
        for f, lams in ((f_rand, (0.0,)), (f_const, (0.0, 0.5, 0.9))):
            geo = emphasized_geometry(mrp, f)
            for lam in lams:
                system = compute_A_b(mrp, fm, f, lam)
                for _ in range(5):
                    theta = rng.normal(0, 1, 3)
                    v = fm.phi @ theta
                    lhs = system.A @ theta + system.b
                    rhs = fm.phi.T @ (geo.lam_diag
                                      * (dtd_operator(v, mrp, f, lam) - v))
                    np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_monte_carlo_oracle_small(self):
        from discerning_td.checks import monte_carlo_A_b
        from discerning_td.emphasis import long_run_count_inverse
        mrp, fm = make_random_walk(5, "middle")
        f = long_run_count_inverse(mrp)
        system = compute_A_b(mrp, fm, f, 0.8)
        a_mc, b_mc = monte_carlo_A_b(mrp, fm, f, 0.8, total_steps=200_000,
                                     seed=42)
        assert np.linalg.norm(a_mc - system.A) / np.linalg.norm(system.A) \
            < 0.03
        assert np.linalg.norm(b_mc - system.b) / np.linalg.norm(system.b) \
            < 0.03


class TestFixedPoint:
    def test_tabular_unit_emphasis_lambda_one(self):
        mrp, fm = make_random_walk(5, "middle")
        theta = fixed_point(compute_A_b(mrp, fm, np.ones(5), 1.0))
        np.testing.assert_allclose(fm.phi @ theta, true_value(mrp),
                                   atol=1e-8)

    def test_tabular_any_emphasis(self):
        mrp, fm = make_random_walk(5, "left")
        rng = np.random.default_rng(7)
        for lam in (0.0, 0.5, 1.0):
            f = rng.uniform(0.2, 1.0, 5)
            theta = fixed_point(compute_A_b(mrp, fm, f, lam))
            np.testing.assert_allclose(fm.phi @ theta, true_value(mrp),
                                       atol=1e-8)

    def test_dependent_features_match_least_squares_oracle(self):
        mrp, _ = make_random_walk(5, "middle")
        fm = make_feature_map("dependent", 5)
        theta = fixed_point(compute_A_b(mrp, fm, np.ones(5), 0.0))
        # independent oracle for the classic one-step solution
        d = stationary_distribution(mrp)
        a = fm.phi.T @ (d[:, None] * ((mrp.transition - np.eye(5)) @ fm.phi))
        b = fm.phi.T @ (d * mrp.expected_reward)
        oracle = np.linalg.lstsq(a, -b, rcond=None)[0]
        np.testing.assert_allclose(theta, oracle, atol=1e-10)

    def test_residual_bound(self):
        mrp, fm = make_boyan_chain()
        system = compute_A_b(mrp, fm, np.full(13, 0.7), 0.9)
        theta = fixed_point(system)
        assert np.max(np.abs(system.A @ theta + system.b)) < 1e-10

    def test_singular_system_raises(self):
        with pytest.raises(SingularSystemError):
            fixed_point(LinearSystem(np.zeros((2, 2)), np.array([1.0, 0.0])))


class TestWeightedNorms:
    def test_identity_norm_is_one(self):
        assert induced_norm(np.eye(4), np.array([0.1, 1.0, 2.0, 0.5])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_diagonal_norm_is_max_entry(self):
        f = np.array([0.3, 2.5, 1.0])
        lam_diag = np.array([0.2, 0.5, 0.3])
        assert induced_norm(np.diag(f), lam_diag) == pytest.approx(2.5,
                                                                   abs=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m = rng.normal(0, 1, (n, n))
            lam_diag = rng.uniform(0.1, 2.0, n)
            fast = induced_norm(m, lam_diag)
            x = rng.normal(0, 1, n)
            for _ in range(20_000):
                y = (m.T * lam_diag[None, :]) @ (m @ x) / lam_diag
                norm = lambda_weighted_norm(y, lam_diag)
                if norm == 0:
                    break
                y = y / norm
                if min(np.max(np.abs(y - x)), np.max(np.abs(y + x))) < 1e-15:
                    x = y
                    break
                x = y
            slow = lambda_weighted_norm(m @ x, lam_diag) \
                / lambda_weighted_norm(x, lam_diag)
            assert fast == pytest.approx(slow, abs=1e-8)

    def test_norm_of_ones_is_root_mean_squared_emphasis(self):
        mrp, _ = make_random_walk(5, "middle")
        rng = np.random.default_rng(9)
        f = rng.uniform(0.2, 1.0, 5)
        geo = emphasized_geometry(mrp, f)
        got = lambda_weighted_norm(np.ones(5), geo.lam_diag)
        assert got == pytest.approx(np.sqrt(np.sum(geo.d * f ** 2)),
                                    abs=1e-14)


class TestContractionCondition:
    def test_constant_emphasis_plug_in(self):
        rng = np.random.default_rng(10)
        mrp = random_ergodic_mrp(rng, n_states=6, gamma=0.2)
        c = 0.7
        f = np.full(6, c)
        report = contraction_condition(mrp, f, lam=0.3)
        geo = emphasized_geometry(mrp, f)
        dev = induced_norm(np.eye(6) - 0.3 * mrp.transition, geo.lam_diag)
        want_rhs = c * (1 - 0.2 * 0.3) / (0.2 * c * dev)
        assert report.lhs == pytest.approx(c)
        assert report.rhs == pytest.approx(want_rhs, rel=1e-12)
        assert report.holds  # small discount makes the bound easy

    def test_zero_kappa_matches_fixed_case(self):
        rng = np.random.default_rng(11)
        mrp = random_ergodic_mrp(rng, n_states=5, gamma=0.5)
        f = rng.uniform(0.3, 1.0, 5)
        base = contraction_condition(mrp, f, 0.4)
        with_zero = contraction_condition(mrp, f, 0.4, kappa=0.0)
        assert with_zero.rhs == pytest.approx(base.rhs, rel=1e-12)
        assert with_zero.condition == "ii"

    def test_lambda_one_not_applicable_with_kappa(self):
        rng = np.random.default_rng(12)
        mrp = random_ergodic_mrp(rng, n_states=5, gamma=0.5)
        report = contraction_condition(mrp, np.ones(5), 1.0, kappa=0.1)
        assert report.holds is None

    def test_gamma_zero_fixed_case_trivial(self):
        mrp = MarkovRewardProcess(2, [[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0],
                                  [0.0, 0.0], [0.5, 0.5], 0.0)
        report = contraction_condition(mrp, np.ones(2), 0.5)
        assert report.holds is True
        report_kappa = contraction_condition(mrp, np.ones(2), 0.5, kappa=0.1)
        assert report_kappa.holds is None

    def test_kappa_outside_admissible_range(self):
        rng = np.random.default_rng(13)
        mrp = random_ergodic_mrp(rng, n_states=5, gamma=0.5)
        report = contraction_condition(mrp, np.ones(5), 0.4, kappa=1e9)
        assert report.holds is False

    @pytest.mark.parametrize("share", [0.25, 0.99])
    def test_admissible_kappa_subtracts_its_penalty(self, share):
        rng = np.random.default_rng(15)
        mrp = random_ergodic_mrp(rng, n_states=5, gamma=0.5)
        f = rng.uniform(0.3, 1.0, 5)
        gamma, lam = 0.5, 0.4
        rhs_i = contraction_condition(mrp, f, lam).rhs
        kappa_max = contraction_condition(mrp, f, lam, kappa=1e-12) \
            .terms["kappa_max"]
        kappa = share * kappa_max
        report = contraction_condition(mrp, f, lam, kappa=kappa)
        r_max = report.terms["r_max"]
        penalty = ((1 - gamma * lam) * r_max * kappa
                   / (gamma * (1 - lam) * (1 - gamma)))
        assert report.condition == "ii" and report.note == ""
        assert report.terms["kappa_max"] == kappa_max
        assert report.rhs == pytest.approx(rhs_i - penalty, rel=1e-12)
        assert report.margin == pytest.approx(report.rhs - report.lhs,
                                              rel=1e-12)
        assert report.holds == (report.margin > 0)
        assert report.holds is (share == 0.25)  # one case each way

    def test_zero_reward_bound_admits_any_kappa(self):
        rng = np.random.default_rng(16)
        mrp = random_ergodic_mrp(rng, n_states=5, gamma=0.5)
        f = rng.uniform(0.3, 1.0, 5)
        report = contraction_condition(mrp, f, 0.4, kappa=1e9, r_max=0.0)
        assert report.terms["kappa_max"] == np.inf
        assert report.terms["r_max"] == 0.0
        assert report.rhs == contraction_condition(mrp, f, 0.4).rhs
        assert report.holds == (report.margin > 0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("name", ["kappa", "r_max"])
    @pytest.mark.parametrize("value, message", [
        (True, "must be a number, not True"),
        ("x", "must be a number, not 'x'"),
        (None, None),
        (float("nan"), "must be nonnegative"),
        (-1.0, "must be nonnegative"),
        (-np.inf, "must be nonnegative"),
    ])
    def test_kappa_and_reward_bound_are_checked(self, gamma, name, value,
                                                message):
        # refused before the gamma = 0 reports, and None still means "not
        # given"; the kappa of an r_max case is one that reaches the r_max
        # arithmetic
        mrp = MarkovRewardProcess(2, [[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0],
                                  [0.0, 0.0], [0.5, 0.5], gamma)
        args = {"kappa": 1e-9, name: value}
        if message is None:
            contraction_condition(mrp, np.ones(2), 0.5, **args)
            return
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            contraction_condition(mrp, np.ones(2), 0.5, **args)

    def test_kappa_and_reward_bound_are_stored_as_floats(self):
        rng = np.random.default_rng(16)
        mrp = random_ergodic_mrp(rng, n_states=5, gamma=0.5)
        f = rng.uniform(0.3, 1.0, 5)
        report = contraction_condition(mrp, f, 0.4, kappa=np.float32(0.0),
                                       r_max=np.int64(2))
        assert type(report.terms["r_max"]) is float
        assert report.terms["r_max"] == 2.0 and report.condition == "ii"
        assert report.rhs == contraction_condition(mrp, f, 0.4).rhs

    def test_scaling_achieves_condition(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            mrp = random_ergodic_mrp(rng)
            lam = float(rng.choice([0.0, 0.3, 0.7]))
            f = scale_emphasis_to_contract(
                mrp, rng.uniform(0.2, 2.0, mrp.n_states), lam)
            assert contraction_condition(mrp, f, lam).holds


class TestLambdaRange:
    """Every exact analysis refuses a trace decay outside [0, 1]."""

    @pytest.mark.parametrize("lam", [-0.5, 1.5, float("nan")])
    def test_refused_everywhere(self, lam):
        from discerning_td.analysis import dtd_operator_matrix, \
            exact_update_map_norm
        mrp, fm = make_random_walk(5, "middle")
        f = np.ones(5)
        for call in (lambda: compute_A_b(mrp, fm, f, lam),
                     lambda: contraction_condition(mrp, f, lam),
                     lambda: contraction_condition(mrp, f, lam, kappa=0.1),
                     lambda: dtd_operator(np.zeros(5), mrp, f, lam),
                     lambda: dtd_operator_matrix(mrp, f, lam),
                     lambda: exact_update_map_norm(mrp, f, lam)):
            with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
                call()

    def test_a_string_is_refused_as_not_a_number(self):
        mrp, fm = make_random_walk(5, "middle")
        f = np.ones(5)
        for call in (lambda: compute_A_b(mrp, fm, f, "0.5"),
                     lambda: contraction_condition(mrp, f, "0.5")):
            with pytest.raises(ValueError,
                               match="lam must be a number, not '0.5'"):
                call()

    def test_ends_of_the_range_pass_the_check(self):
        from discerning_td.analysis import exact_update_map_norm
        mrp, fm = make_random_walk(5, "middle")
        f = np.ones(5)
        for lam in (0.0, 1.0):
            compute_A_b(mrp, fm, f, lam)
            assert exact_update_map_norm(mrp, f, lam) >= 0.0
        # the kept fault: 1 - gamma*lam = 0 divides the sound bound by zero
        with pytest.raises(ZeroDivisionError):
            contraction_condition(mrp, f, 1.0)


class TestPriorityEquivalence:
    def test_unit_emphasis_is_plain_mse(self):
        dataset = [(0, 1.0, 0.0), (1, 2.0, 1.0), (0, 0.5, 0.5)]
        res = per_equivalence(dataset, np.ones(2))
        np.testing.assert_allclose(res.q, 1.0 / 3.0)
        assert res.c == 1.0
        assert res.lhs == pytest.approx((1.0 + 1.0 + 0.0) / 3.0)
        assert res.lhs == pytest.approx(res.rhs, abs=1e-15)

    def test_hand_example(self):
        dataset = [(0, 1.0, 0.0), (1, 1.0, 0.0)]
        res = per_equivalence(dataset, np.array([1.0, 2.0]))
        assert res.lhs == pytest.approx(2.5)
        assert res.rhs == pytest.approx(2.5)
        np.testing.assert_allclose(res.q, [0.2, 0.8])
        assert res.c == pytest.approx(2.5)

    def test_random_datasets(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n_states = int(rng.integers(2, 10))
            f = rng.uniform(0.1, 3.0, n_states)
            size = int(rng.integers(1, 101))
            dataset = [(int(rng.integers(0, n_states)),
                        float(rng.normal()), float(rng.normal()))
                       for _ in range(size)]
            res = per_equivalence(dataset, f)
            assert abs(res.lhs - res.rhs) < 1e-12
            assert res.q.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("state", [1.5, 1.0, True, "1"])
    def test_dataset_states_must_be_integers(self, state):
        with pytest.raises(ValueError, match=re.escape(
                f"dataset state must be an integer, not {state!r}")):
            per_equivalence([(state, 1.0, 0.0)], np.ones(2))

    def test_emphasis_must_be_a_vector(self):
        with pytest.raises(ValueError, match="f_values must be a vector"):
            per_equivalence([(1, 1.0, 0.0)], np.ones((2, 2)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            per_equivalence([], np.ones(2))

    def test_nonpositive_emphasis_rejected(self):
        with pytest.raises(ValueError):
            per_equivalence([(0, 1.0, 0.0)], np.array([0.0, 1.0]))
