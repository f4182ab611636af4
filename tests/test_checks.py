import hashlib
import json

import numpy as np
import pytest

from discerning_td import verify_all
from discerning_td.checks import REGISTRY, empirical_visit_frequencies, \
    monte_carlo_A_b
from discerning_td.harness import resolve_task


class TestVerifyAll:
    def test_fresh_build_passes_every_check(self):
        results = verify_all()
        assert len(results) == len(REGISTRY)
        failed = [r.check for r in results if not r.passed]
        assert failed == []

    def test_filter_selects_by_substring(self):
        results = verify_all("stationary")
        names = {r.check for r in results}
        assert names == {"stationary-fixed-point", "stationary-empirical"}

    def test_report_stable_across_invocations(self):
        a = [r.to_dict() for r in verify_all("identity")]
        b = [r.to_dict() for r in verify_all("identity")]
        assert json.dumps(a, default=str) == json.dumps(b, default=str)

    def test_forward_view_checks_keep_their_bytes(self):
        """sha256 of the forward-view and episode checks' results,
        serialized as ``dtd verify`` writes them, pinned when first
        written: a change to how returns, TD errors or episodes are
        computed that moves one bit of a margin fails here."""
        names = ("telescoping-identity", "return-forms-agree",
                 "advantage-backward-pass", "offline-episode-equivalence",
                 "sequential-reduction")
        results = [r for name in names for r in verify_all(name)]
        assert [r.check for r in results] == list(names)
        text = json.dumps([r.to_dict() for r in results], indent=1,
                          default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1590ca5ef027335ec4b691589c2e240cdc8921644d2f900efaff11b7255eb5bb")

    def test_sampling_checks_keep_their_bytes(self):
        """sha256 of the Monte Carlo oracle checks and the sampled
        contraction checks, serialized as ``dtd verify`` writes them,
        pinned when their oracles took 200 and 100 chains and their
        operator images were taken as one block per instance: a change to
        the streams, the oracles or the operator series fails here."""
        names = ("stationary-empirical", "expected-update-monte-carlo",
                 "operator-contraction-sampled", "composition-contraction")
        results = [r for name in names for r in verify_all(name)]
        assert [r.check for r in results] == list(names)
        text = json.dumps([r.to_dict() for r in results], indent=1,
                          default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c70473d6093ff0502971316e7d7032540df2719c71d110d78a2cf13c73e02a66")

    def test_each_result_is_timed(self):
        [result] = verify_all("telescoping")
        assert result.seconds > 0.0 and "seconds" not in result.to_dict()

    def test_raising_check_becomes_a_failed_result(self, monkeypatch):
        from discerning_td import checks

        def check_always_raises():
            raise RuntimeError("boom")

        monkeypatch.setattr(checks, "REGISTRY", (check_always_raises,))
        [result] = verify_all()
        assert result.check == "always-raises" and not result.passed
        assert result.margin == float("-inf")
        assert result.details == "raised RuntimeError('boom')"

    def test_report_schema(self):
        for res in verify_all("priority"):
            payload = res.to_dict()
            assert {"check", "inputs", "margin", "pass"} <= set(payload)
            json.dumps(payload)  # must be serializable as emitted


def reference_stream(mrp, rng, n_chains, steps, noise):
    """The per-step restart stream: yields ``(t, s, nxt, z)`` with the
    states before and after each step (``n_states`` at an exit), drawing
    transition, restart, optional noise and start variates in that order."""
    n = mrp.n_states

    def starts(u):
        return np.minimum((u[..., None] >= mrp.initial_cdf).sum(axis=-1),
                          n - 1)

    u_trans = rng.random((n_chains, steps))
    u_restart = rng.random((n_chains, steps))
    z_noise = rng.standard_normal((n_chains, steps)) if noise else None
    s = starts(rng.random(n_chains))
    for t in range(steps):
        nxt = (u_trans[:, t][:, None] >= mrp.transition_cdf[s]).sum(axis=1)
        yield t, s, nxt, z_noise[:, t] if noise else None
        s = np.where(nxt == n, starts(u_restart[:, t]), nxt)


def reference_visit_frequencies(mrp, total_steps, seed, n_chains=50,
                                burn_in=1_000):
    rng = np.random.default_rng(seed)
    steps_per = int(np.ceil(total_steps / n_chains)) + burn_in
    counts = np.zeros(mrp.n_states)
    for t, s, _, _ in reference_stream(mrp, rng, n_chains, steps_per, False):
        if t >= burn_in:
            counts += np.bincount(s, minlength=mrp.n_states)
    return counts / counts.sum()


def reference_A_b(mrp, feature_map, f_state, lam, total_steps, seed,
                  n_chains=20, burn_in=1_000):
    rng = np.random.default_rng(seed)
    k = feature_map.n_features
    steps_per = int(np.ceil(total_steps / n_chains)) + burn_in
    gamma = mrp.discount
    phi = feature_map.phi
    phi_pad = np.vstack([phi, np.zeros((1, k))])
    trace = np.zeros((n_chains, k))
    a_sum = np.zeros((k, k))
    b_sum = np.zeros(k)
    counted = 0
    for t, s, nxt, z in reference_stream(mrp, rng, n_chains, steps_per,
                                         True):
        reward = mrp.move_rewards[s, nxt] + mrp.reward_noise_std[s] * z
        f_here = f_state[s]
        trace = gamma * lam * trace + f_here[:, None] * phi[s]
        if t >= burn_in:
            a_sum += np.einsum("bk,bj->kj", trace * f_here[:, None],
                               gamma * phi_pad[nxt] - phi[s])
            b_sum += (trace * (reward * f_here)[:, None]).sum(axis=0)
            counted += n_chains
        trace[nxt == mrp.n_states] = 0.0
    return a_sum / counted, b_sum / counted


class TestMonteCarloOracles:
    @pytest.mark.parametrize("name", ["RW5_LEFT", "BOYAN13", "NOISY10:0"])
    def test_visit_frequencies_match_the_per_step_loop(self, name):
        mrp, _ = resolve_task(name)
        got = empirical_visit_frequencies(mrp, 20_000, seed=5, burn_in=300)
        want = reference_visit_frequencies(mrp, 20_000, seed=5, burn_in=300)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name, lam", [("RW5_MIDDLE", 0.8),
                                           ("BOYAN13", 0.5),
                                           ("NOISY10:1", 0.9)])
    def test_A_b_match_the_per_step_loop(self, name, lam):
        # the chunked sums add the same terms in another order
        mrp, fm = resolve_task(name)
        f = np.random.default_rng(6).uniform(0.2, 1.0, mrp.n_states)
        got = monte_carlo_A_b(mrp, fm, f, lam, 20_000, seed=7)
        want = reference_A_b(mrp, fm, f, lam, 20_000, seed=7)
        for have, ref in zip(got, want):
            gap = np.max(np.abs(have - ref)) / np.max(np.abs(ref))
            assert gap <= 1e-12
