"""The episode API and the batched sweep loop check each other: fed the
same random stream, ``run_episode`` and ``simulate_curves`` end at the same
weights, bit for bit, for every learner under every emphasis kind."""

import numpy as np
import pytest

from discerning_td import (
    AlgoConfig,
    Algorithm,
    EmphasisSpec,
    new_run,
    resolve_task,
    run_episode,
    simulate_curves,
)
from discerning_td.harness import run_seed_sequences


class StreamReplay:
    """Stands in for the ``rng`` of the episode API and serves it one
    ``simulate_curves`` row's documented stream: the start uniform, then
    per step a transition uniform and a noise normal, and the restart
    uniform of the step that ended an episode."""

    def __init__(self, seq, steps):
        gen = np.random.default_rng(seq)
        self.next_start = gen.random()
        self.trans, self.restart = gen.random(steps), gen.random(steps)
        self.noise = gen.standard_normal(steps)
        self.t = 0

    def random(self):
        if self.next_start is not None:
            u, self.next_start = self.next_start, None
            return u
        return self.trans[self.t]

    def standard_normal(self):
        self.t += 1
        return self.noise[self.t - 1]

    def restart_episode(self):
        self.next_start = self.restart[self.t - 1]


def episode_api_theta(mrp, fm, config, seq, steps):
    replay = StreamReplay(seq, steps)
    learner, emphasis = new_run(mrp, fm, config)
    total = 0
    while total < steps:
        if total:
            replay.restart_episode()
        _, _, used = run_episode(mrp, fm, config, emphasis, learner, replay,
                                 steps - total)
        total += used
    assert replay.t == steps
    return learner.theta


def grid(n_states):
    """All five learners under all five emphasis kinds."""
    kinds = [EmphasisSpec("constant", constant=0.7),
             EmphasisSpec("table", table=np.linspace(0.2, 1.0, n_states)),
             EmphasisSpec("noise_prior"), EmphasisSpec("count_inverse"),
             EmphasisSpec("abs_expected_td", epsilon_floor=0.01)]
    return [AlgoConfig(algo, lam=(0.0, 0.5, 0.9, 1.0)[(i + j) % 4],
                       alpha=(0.02, 0.05, 0.1)[(2 * i + j) % 3],
                       emphasis=emphasis)
            for i, algo in enumerate(Algorithm)
            for j, emphasis in enumerate(kinds)]


# BOYAN13 runs long enough for adaptive emphasis to grow a last-bit
# difference in θ to O(1)
STEPS = {"RW5_LEFT": 400, "RW5_INVERTED": 400, "BOYAN13": 3000,
         "NOISY10:1": 400}


@pytest.mark.parametrize("task", list(STEPS))
def test_episode_api_matches_batched_rows(task):
    steps = STEPS[task]
    mrp, fm = resolve_task(task)
    cells = grid(mrp.n_states)
    seqs = [run_seed_sequences(task, cell, 3, 1)[0] for cell in cells]
    batched = simulate_curves(mrp, fm, cells, seqs, steps).final_theta
    assert np.all(np.isfinite(batched))
    mismatched = [(cell.algorithm.value, cell.emphasis.kind.value)
                  for cell, seq, row in zip(cells, seqs, batched)
                  if episode_api_theta(mrp, fm, cell, seq, steps).tobytes()
                  != row.tobytes()]
    assert not mismatched, mismatched
