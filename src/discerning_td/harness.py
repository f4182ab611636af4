"""Experiment harness: named benchmark tasks, vectorized multi-run
simulation of the learners, measurement records, aggregation and file
emission.

A sweep steps every run of every hyperparameter cell in one loop: each row
holds its own cell's step size, trace decay and learner coefficients.
Every run owns its own seed stream, drawn in bounded step chunks, so a
row's trajectory does not depend on how runs and cells are batched, and
adding an algorithm to a config never perturbs the streams of the others.
"""

import enum
import json
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .analysis import mspbe_rows, projection
from .emphasis import EmphasisKind, abs_expected_td_rows, \
    count_inverse_path, init_emphasis_state
from .learners import AlgoConfig, DecayingAlpha, TraceKernel
from .mrp import FeatureMap, MarkovRewardProcess, checked_int, \
    make_boyan_chain, make_feature_map, make_noisy_chain, make_random_walk, \
    read_json, restart_path, start_states, transition_ranks

# A record's cell: its first five fields.
CELL_COLUMNS = ("task", "algorithm", "lambda", "alpha", "emphasis_kind")
CURVE_COLUMNS = CELL_COLUMNS + ("seed", "step", "mspbe")
AGGREGATE_COLUMNS = CELL_COLUMNS + ("step", "mean_mspbe", "std_mspbe",
                                    "n_runs")

# Each number column's dtype and JSON types (null: NaN, which checks refuse).
_NUMBER_TYPES = dict.fromkeys(("seed", "step", "n_runs"), (np.int64, {int})) \
    | dict.fromkeys(("mspbe", "mean_mspbe", "std_mspbe"),
                    (np.float64, {int, float, type(None)}))

# Sweep grids used when the CLI is not given explicit ones.
DEFAULT_ALPHA_GRID = tuple(2.0 ** -k for k in range(7, -1, -1))
DEFAULT_LAMBDA_GRID = (0.0, 0.4, 0.8, 0.9, 0.95, 1.0)

# Values held per part of the random stream (transition uniforms, restart
# uniforms, noise normals) while simulating, across all rows, unless that
# leaves a chunk fewer than CHUNK_FLOOR steps.
DRAW_BUDGET = 65_536
CHUNK_FLOOR = 64


def resolve_task(name: str):
    """Map a task name to its environment; NOISY10 takes an optional
    reward level suffix, e.g. ``NOISY10:-1``."""
    key = str(name).strip().upper()
    head, colon, _ = key.partition(":")
    if head == "NOISY10":
        text = str(name).strip().partition(":")[2] if colon else "0"
        try:
            level = float(text)
        except ValueError:
            raise ValueError(f"NOISY10 reward level must be a number, not "
                             f"{text!r} (task {name!r})") from None
        return make_noisy_chain(level)
    if key in ("RW5_LEFT", "RW5_MIDDLE", "RW5_RIGHT"):
        return make_random_walk(5, key.split("_")[1].lower())
    if key == "RW5_TABULAR":
        return make_random_walk(5, "middle")
    if key in ("RW5_INVERTED", "RW5_DEPENDENT"):
        mrp, _ = make_random_walk(5, "middle")
        return mrp, make_feature_map(key.split("_")[1].lower(), 5)
    if key == "BOYAN13":
        return make_boyan_chain()
    raise ValueError(f"unknown task {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    algorithms: tuple
    runs: int
    steps: int
    eval_every: int
    base_seed: int

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        for name, least in (("runs", 1), ("steps", 1), ("eval_every", 1),
                            ("base_seed", 0)):
            object.__setattr__(self, name,
                               checked_int(name, getattr(self, name), least))
        if self.steps % self.eval_every != 0:
            raise ValueError("eval_every must divide steps")
        cells = self.cells()
        if len(set(cells)) < len(cells):  # their records would merge
            twice = next(c for i, c in enumerate(cells) if c in cells[:i])
            raise ValueError(f"the cell {twice} is listed more than once")

    def cells(self):
        """The record cell (task, algorithm, lambda, alpha, emphasis label)
        of each configured algorithm, in config order."""
        return [(self.task, algo.algorithm.value, algo.lam, algo.alpha,
                 emphasis_label(algo)) for algo in self.algorithms]


class _CurveFields(NamedTuple):
    task: str
    algorithm: str
    lam: float
    alpha: float
    emphasis_kind: str
    seed: int
    step: int
    mspbe: float


def _make_checked(cls, iterable):
    """A record's ``_make``, which ``_replace`` calls too: NamedTuple's own
    builds the tuple without calling ``__new__``, so without its check."""
    return cls(*iterable)


class CurveRecord(_CurveFields):
    """One run's MSPBE at one step, as an immutable named tuple; every
    construction, ``_make`` and ``_replace`` included, checks it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.mspbe >= 0.0:
            raise ValueError("mspbe must be nonnegative")
        return self

    _make = classmethod(_make_checked)


class _AggregateFields(NamedTuple):
    task: str
    algorithm: str
    lam: float
    alpha: float
    emphasis_kind: str
    step: int
    mean_mspbe: float
    std_mspbe: float
    n_runs: int


class AggregateRecord(_AggregateFields):
    """One cell's mean and sample deviation of MSPBE at one step, over
    ``n_runs`` runs: a named tuple checked as ``CurveRecord`` is."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_aggregates(self.mean_mspbe, self.std_mspbe, self.n_runs)
        return self

    _make = classmethod(_make_checked)


def _check_aggregates(mean, std, n_runs) -> None:
    """Refuse an aggregate's fields, or the least of each column (which
    ``np.min`` makes NaN if any entry is), unless the mean and deviation
    are nonnegative (inf allowed) and the run count is positive."""
    if not mean >= 0.0:
        raise ValueError("mean_mspbe must be nonnegative")
    if not std >= 0.0:
        raise ValueError("std_mspbe must be nonnegative")
    if not n_runs >= 1:
        raise ValueError("n_runs must be positive")


class CurveTable(Sequence):
    """Curve records in columns, in record order.

    ``cells`` holds each distinct (task, algorithm, lambda, alpha, emphasis
    label) once; the ``cell`` column indexes it, and the ``seed``, ``step``
    and ``mspbe`` columns hold the rest of each record.  Any list of
    records fits, ragged ones included.  The table is a read-only sequence
    of ``CurveRecord``: its length is the record count, iteration and
    indexing build the records (without checking each again: the columns
    were checked whole), and it equals any sequence of the same records.
    """

    def __init__(self, cells, cell, seed, step, mspbe):
        self.cells = tuple(tuple(key) for key in cells)
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("table cells must be distinct")
        self.cell = np.asarray(cell, dtype=np.intp)
        self.seed = np.asarray(seed, dtype=np.int64)
        self.step = np.asarray(step, dtype=np.int64)
        self.mspbe = np.asarray(mspbe, dtype=np.float64)
        columns = (self.cell, self.seed, self.step, self.mspbe)
        if any(col.shape != (len(self.cell),) for col in columns):
            raise ValueError("table columns must be 1-D and of one length")
        if not (self.mspbe >= 0.0).all():
            raise ValueError("mspbe must be nonnegative")

    @classmethod
    def from_records(cls, records) -> "CurveTable":
        """The table of a sequence of records (a table is returned as it
        is); cells are numbered in order of first appearance."""
        if isinstance(records, CurveTable):
            return records
        records = list(records)
        index = {}
        cell = [index.setdefault(r[:5], len(index)) for r in records]
        columns = list(zip(*records)) or [()] * len(CURVE_COLUMNS)
        return cls(index, cell, *columns[5:])

    def __len__(self) -> int:
        return len(self.cell)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return tuple.__new__(CurveRecord, (
            *self.cells[self.cell[i]], int(self.seed[i]), int(self.step[i]),
            float(self.mspbe[i])))

    def __iter__(self):
        return map(partial(tuple.__new__, CurveRecord), self.rows())

    def rows(self):
        """Each record's fields as a tuple, in ``CURVE_COLUMNS`` order."""
        cells = self.cells
        return ((*cells[c], seed, step, value) for c, seed, step, value in zip(
            self.cell.tolist(), self.seed.tolist(), self.step.tolist(),
            self.mspbe.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def run_starts(self) -> np.ndarray:
        """Index of the first record of each run: each maximal stretch of
        records with one cell and one seed."""
        return _group_starts(self.cell, self.seed)

    def diverged_runs(self) -> dict:
        """{cell: number of its runs whose last MSPBE is not finite}, for
        the cells that have any, in cell order."""
        starts = self.run_starts()
        if not len(starts):
            return {}
        last = np.append(starts[1:], len(self)) - 1
        bad = np.bincount(self.cell[last[~np.isfinite(self.mspbe[last])]],
                          minlength=len(self.cells))
        return {self.cells[c]: int(n) for c, n in enumerate(bad) if n}

    def by_cell_step(self) -> dict:
        """{cell: {step: its MSPBE values in record order}}, with cells
        and each cell's steps in order of first appearance.  Each value
        array is one contiguous slice, so numpy reduces it exactly as it
        reduces the list of those values."""
        order = np.lexsort((self.step, self.cell))  # stable: record order
        cell, step = self.cell[order], self.step[order]
        starts = _group_starts(cell, step)
        ends = np.append(starts[1:], len(order)).tolist()
        values = self.mspbe[order]
        out = {}
        for g in np.argsort(order[starts]).tolist():
            start = int(starts[g])
            out.setdefault(self.cells[cell[start]], {})[int(step[start])] = \
                values[start:ends[g]]
        return out


def _group_starts(*columns) -> np.ndarray:
    """Index of the first record and of each record where any of these
    equal-length columns changes value."""
    change = np.zeros(len(columns[0]), dtype=bool)
    change[:1] = True
    for col in columns:
        change[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(change)


@dataclass
class SimulationOutput:
    """Result of one batched simulation, one row per seed stream."""

    eval_steps: np.ndarray
    curves: np.ndarray         # (n_rows, n_eval_points)
    final_theta: np.ndarray    # (n_rows, n_features)
    theta_history: np.ndarray | None = None


def emphasis_label(config: AlgoConfig) -> str:
    """Emphasis recorded per cell: "none" for learners that ignore it."""
    if not config.algorithm.takes_emphasis:
        return "none"
    return config.emphasis.kind.value


def cell_key(task: str, config: AlgoConfig) -> int:
    """Stable 32-bit identifier of a hyperparameter cell for seed spawning."""
    text = "|".join([
        str(task), config.algorithm.value, repr(config.lam),
        repr(config.alpha), emphasis_label(config),
        repr(config.emphasis.epsilon_floor),
    ])
    return zlib.crc32(text.encode("utf-8"))


def run_seed_sequences(task: str, config: AlgoConfig, base_seed: int,
                       n_runs: int):
    key = cell_key(task, config)
    return [np.random.SeedSequence(entropy=base_seed + run, spawn_key=(key,))
            for run in range(n_runs)]


def simulate_curves(mrp: MarkovRewardProcess, feature_map: FeatureMap,
                    config, seed_seqs, steps: int, eval_every: int = 0,
                    record_theta: bool = False) -> SimulationOutput:
    """Simulate a continuing episodic stream for every seed in parallel.

    ``config`` is one ``AlgoConfig`` for every row, or a sequence of them,
    one per seed stream, so that the rows of many hyperparameter cells step
    together in one loop.  Each step is one ``learners.TraceKernel`` step,
    whose docstring holds the per-learner coefficients.  Rows never mix: a
    diverged row leaves every other row unchanged.  A ``DecayingAlpha``
    step size is accepted for a single config only.

    Episodes restart from the initial distribution whenever the chain exits;
    the step budget counts transitions across episodes.  Each seed stream
    draws one uniform for the initial state and then ``steps`` transition
    uniforms, ``steps`` restart uniforms and ``steps`` noise normals, so a
    row's trajectory depends only on its own seed.  The three parts are
    read by three generators positioned on the stream, in step chunks of
    ``DRAW_BUDGET`` values per part across all rows, but never fewer than
    ``CHUNK_FLOOR`` steps.  Each chunk's uniforms become small-integer
    codes (``mrp.transition_ranks``, ``mrp.start_states``), and one
    ``mrp.restart_path`` call gives every row's states before and after
    each step of the chunk.  When no entry of ``mrp.initial_cdf`` but the
    last lies strictly between 0 and 1 (a point-mass start), every restart
    uniform codes to the same state: the restart part is then not read, and
    that state is the restart code of every step.  What depends on the path
    alone is taken per chunk too, as (chunk, rows) arrays: the rewards with
    their noise, the static and count-inverse emphasis at each visited
    state (``emphasis.count_inverse_path``), ETD's follow-on trace
    (``TraceKernel.followon_path``) and, when no row's weight reads θ,
    every row's kernel coefficients (``TraceKernel.coefficients``).  Each
    step does only what depends on θ: under adaptive emphasis, the adaptive
    rows' weights at the visited state, written into the chunk's weights,
    and then that step's coefficients of every row from the one kernel; the
    kernel's in-place ``TraceKernel.advance`` of θ and the trace; trace
    resets and the MSPBE.  The adaptive rows' weights and visited states
    are read and written through one slice when those rows form one block,
    as ``run_experiment``'s cell-major order makes them when the cells of
    the learners that read emphasis are listed together, and through their
    index array otherwise; both touch the same values, so the output is the
    same.  ``steps`` and ``eval_every`` are
    nonnegative integers (a bool is none); ``eval_every`` 0 records no
    curve.  A row's weights and curve are the same in any batch, except in a
    one-row call on chains of ten or more states, which numpy multiplies
    by its matrix-vector path.  Its curve can then differ in the last bit, and
    under adaptive emphasis the difference feeds back through θ and can
    grow: on BOYAN13 (DTD, λ 0.9, seed 0, 5000 steps) a one-row call and
    row 0 of a two-row call differ in θ by 0.138 and in the final MSPBE by
    0.023 at α = 2⁻⁴, and in θ by 6e-13 at α = 2⁻⁶.
    Non-finite error measurements (diverged rows) are recorded as +inf.
    """
    steps = checked_int("steps", steps, least=0)
    eval_every = checked_int("eval_every", eval_every, least=0)
    n_rows = len(seed_seqs)
    if isinstance(config, AlgoConfig):
        configs = [config] * n_rows
        schedule = config.alpha if isinstance(config.alpha, DecayingAlpha) \
            else None
    else:
        configs = list(config)
        if len(configs) != n_rows:
            raise ValueError("need one config per seed stream")
        if any(isinstance(c.alpha, DecayingAlpha) for c in configs):
            raise ValueError("decaying step sizes need a single config")
        schedule = None
    n = mrp.n_states
    k = feature_map.n_features
    kernel = TraceKernel(configs, mrp.discount)

    kinds = np.array([c.emphasis.kind for c in configs], dtype=object)
    eps = np.array([c.emphasis.epsilon_floor for c in configs])
    counted = kernel.weighted & (kinds == EmphasisKind.COUNT_INVERSE)
    adaptive = kernel.weighted & (kinds == EmphasisKind.ABS_EXPECTED_TD_ERROR)
    static = kernel.weighted & ~counted & ~adaptive
    # Static emphasis per row and state; count rows overwrite theirs every
    # chunk and adaptive rows every step.
    w_table = np.ones((n_rows, n))
    for row in np.flatnonzero(static):
        w_table[row] = init_emphasis_state(configs[row].emphasis, mrp).values

    phi = feature_map.phi
    phi_pad = np.vstack([phi, np.zeros((1, k))])
    sigma = mrp.reward_noise_std
    has_noise = bool(sigma.any())

    # Stream positions: [init | transitions | restarts | noise]; every
    # uniform in [0, 1) codes to the one fixed start, if there is one.
    cuts = mrp.initial_cdf[:-1]
    fixed_start = None if ((cuts > 0.0) & (cuts < 1.0)).any() \
        else start_states(mrp, 0.0)
    chunk = min(steps, max(CHUNK_FLOOR, DRAW_BUDGET // max(n_rows, 1)))
    u_init = np.empty(n_rows)
    trans_gens, restart_gens, noise_gens = [], [], []
    for i, seq in enumerate(seed_seqs):
        gen = np.random.Generator(np.random.PCG64(seq))
        u_init[i] = gen.random()
        trans_gens.append(gen.random)
        if fixed_start is None:
            restart_gens.append(np.random.Generator(
                np.random.PCG64(seq).advance(1 + steps)).random)
        if has_noise:
            noise_gens.append(np.random.Generator(
                np.random.PCG64(seq).advance(1 + 2 * steps)).standard_normal)
    # one part's uniforms at a time, coded before the next part is drawn
    u_part = np.empty((n_rows, chunk))
    z_noise = np.empty((n_rows, chunk)) if has_noise else None
    coders = [(trans_gens, transition_ranks)]
    if fixed_start is None:
        coders.append((restart_gens, start_states))

    if eval_every > 0:
        d = mrp.stationary
        proj_t = projection(feature_map, d).T
        eval_steps = np.arange(eval_every, steps + 1, eval_every)
    else:
        eval_steps = np.empty(0, dtype=np.int64)

    count_rows = np.flatnonzero(counted)
    adaptive_rows = np.flatnonzero(adaptive)
    has_adaptive = adaptive_rows.size > 0
    if has_adaptive and adaptive_rows[-1] - adaptive_rows[0] \
            == adaptive_rows.size - 1:  # one block: read it through views
        adaptive_rows = slice(adaptive_rows[0], adaptive_rows[-1] + 1)
    adaptive_eps = eps[adaptive_rows]
    counts = np.zeros((n, count_rows.size),
                      np.int32 if steps < 2 ** 31 else np.int64)

    if schedule is not None:
        alphas = schedule.value(np.arange(steps, dtype=np.float64))
    else:
        alphas = np.broadcast_to([c.alpha for c in configs], (steps, n_rows))

    curves = np.full((n_rows, len(eval_steps)), np.inf)
    theta_hist = np.empty((steps, n_rows, k)) if record_theta else None

    rows = np.arange(n_rows)
    s_end = start_states(mrp, u_init)  # the state after the last chunk
    theta = np.zeros((n_rows, k))
    trace = np.zeros((n_rows, k))
    followon = np.zeros(n_rows)
    eval_idx = 0

    with np.errstate(all="ignore"):
        for t in range(steps):
            c = t % chunk
            if c == 0:
                # free the last chunk's arrays first
                rewards = followons = coeffs = weights = None
                width = min(chunk, steps - t)
                codes = []
                for gens, code in coders:
                    for i, draw in enumerate(gens):
                        draw(out=u_part[i, :width])
                    codes.append(code(mrp, u_part[:, :width]))
                if fixed_start is not None:
                    codes.append(np.broadcast_to(fixed_start, (n_rows, width)))
                for i, draw in enumerate(noise_gens):
                    draw(out=z_noise[i, :width])
                states, nexts, s_end = restart_path(mrp, s_end, *codes)
                exits = nexts == n
                exit_steps = exits.any(axis=1)
                rewards = mrp.move_rewards[states, nexts]
                if has_noise:
                    rewards += sigma[states] * z_noise[:, :width].T
                weights = w_table[rows, states] if static.any() \
                    else np.ones((width, n_rows))
                if count_rows.size:
                    weights[:, count_rows] = count_inverse_path(
                        counts, states[:, count_rows], eps[count_rows])
                followons, followon = kernel.followon_path(followon, exits)
                if not has_adaptive:
                    coeffs = [np.broadcast_to(a, weights.shape) for a in
                              kernel.coefficients(weights, followons)]
                    weights = None
            s, nxt = states[c], nexts[c]

            if has_adaptive:
                weights[c, adaptive_rows] = abs_expected_td_rows(
                    mrp, feature_map, theta[adaptive_rows], adaptive_eps,
                    s[adaptive_rows])
                step_coeffs = kernel.coefficients(weights[c], followons[c])
            else:
                step_coeffs = [a[c] for a in coeffs]
            kernel.advance(theta, trace, phi.take(s, axis=0),
                           phi_pad.take(nxt, axis=0), rewards[c], alphas[t],
                           step_coeffs)

            if record_theta:
                theta_hist[t] = theta

            if exit_steps[c]:
                trace[exits[c]] = 0.0

            if eval_idx < len(eval_steps) and t + 1 == eval_steps[eval_idx]:
                vals = mspbe_rows(theta, mrp, phi, d, proj_t)
                curves[:, eval_idx] = np.where(np.isfinite(vals), vals, np.inf)
                eval_idx += 1

    return SimulationOutput(eval_steps=eval_steps, curves=curves,
                            final_theta=theta.copy(),
                            theta_history=theta_hist)


def run_experiment(config: ExperimentConfig, environment=None):
    """Simulate every configured cell and return its ``CurveTable``.

    All cells step together in one ``simulate_curves`` call, their rows in
    cell-major order, so the records come out cell by cell and run by run.
    ``environment`` overrides the named task with an explicit
    (mrp, feature_map) pair; the task string still labels the records.
    Deterministic for a fixed config and base seed.
    """
    mrp, fm = environment if environment is not None else resolve_task(config.task)
    if any(isinstance(algo.alpha, DecayingAlpha) for algo in config.algorithms):
        raise ValueError("experiment records require constant step sizes")
    runs = config.runs
    configs, seqs = [], []
    for algo in config.algorithms:
        configs.extend([algo] * runs)
        seqs.extend(run_seed_sequences(config.task, algo, config.base_seed,
                                       runs))
    out = simulate_curves(mrp, fm, configs, seqs, config.steps,
                          config.eval_every)
    cells = config.cells()
    n_points = len(out.eval_steps)
    return CurveTable(
        cells, np.repeat(np.arange(len(cells)), runs * n_points),
        np.tile(np.repeat(config.base_seed + np.arange(runs), n_points),
                len(cells)),
        np.tile(out.eval_steps, len(cells) * runs), out.curves.ravel())


# ---------------------------------------------------------------------------
# Selection and aggregation
# ---------------------------------------------------------------------------


class SelectionCriterion(str, enum.Enum):
    FINAL_MSPBE = "final_mspbe"
    AUC = "auc"


@dataclass(frozen=True)
class BestCell:
    task: str
    algorithm: str
    lam: float
    alpha: float
    emphasis_kind: str
    score: float


def select_best(records, criterion=SelectionCriterion.FINAL_MSPBE):
    """Best hyperparameter cell per (task, algorithm): smallest mean score,
    ties broken by smaller alpha then smaller lambda."""
    table = CurveTable.from_records(records)
    if not len(table):
        raise ValueError("no records to select from")
    criterion = SelectionCriterion(criterion)
    best = {}
    for cell, by_step in table.by_cell_step().items():
        if criterion is SelectionCriterion.FINAL_MSPBE:
            score = float(np.mean(by_step[max(by_step)]))
        else:
            score = float(np.mean([np.mean(v) for v in by_step.values()]))
        if not np.isfinite(score):
            score = float("inf")
        task, algorithm, lam, alpha, kind = cell
        key = (task, algorithm)
        order = (score, alpha, lam)
        if key not in best or order < best[key][0]:
            best[key] = (order, BestCell(task, algorithm, lam, alpha, kind,
                                         score))
    return {key: value[1] for key, value in best.items()}


def _aggregate_cell(cell, by_step):
    task, algorithm, lam, alpha, kind = cell
    out = []
    for step in sorted(by_step):
        values = by_step[step]
        with np.errstate(invalid="ignore"):  # inf - inf; reported as inf
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        if not np.isfinite(std):
            std = float("inf")
        out.append(AggregateRecord(
            task=task, algorithm=algorithm, lam=lam, alpha=alpha,
            emphasis_kind=kind, step=step, mean_mspbe=float(np.mean(values)),
            std_mspbe=std, n_runs=len(values)))
    return out


def aggregate(records):
    """Mean and sample standard deviation across runs, per step, for records
    that all belong to one hyperparameter cell."""
    groups = CurveTable.from_records(records).by_cell_step()
    if not groups:
        raise ValueError("no records to aggregate")
    if len(groups) > 1:
        raise ValueError("records span multiple hyperparameter cells")
    return _aggregate_cell(*groups.popitem())


def aggregate_all(records):
    """Aggregate each hyperparameter cell separately, preserving the order
    in which cells first appear."""
    groups = CurveTable.from_records(records).by_cell_step()
    return [agg for cell, by_step in groups.items()
            for agg in _aggregate_cell(cell, by_step)]


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def _format_field(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 reprs np.float64 as a call
    return str(value)


def check_csv_cells(cells) -> None:
    """Raise ``ValueError``, naming the column, if a text field of these
    record cells holds a comma or a line break, which the CSV form of
    :func:`emit` cannot write and :func:`load_records` could not read."""
    for cell in cells:
        for column, value in zip(CELL_COLUMNS, cell):
            if isinstance(value, str) and any(c in value for c in ",\r\n"):
                raise ValueError(f"CSV column {column!r} cannot hold "
                                 f"{value!r}: it has a comma or line break")


def _write_curve_csv(handle, table: CurveTable) -> None:
    """One line per record; each cell's fields are formatted once, and
    each run's seed once."""
    prefixes = [",".join(map(_format_field, cell)) + ","
                for cell in table.cells]
    cells, seeds = table.cell.tolist(), table.seed.tolist()
    steps, values = table.step.tolist(), table.mspbe.tolist()
    starts = table.run_starts().tolist()
    for start, end in zip(starts, starts[1:] + [len(table)]):
        prefix = f"{prefixes[cells[start]]}{seeds[start]},"
        handle.write("".join([f"{prefix}{step},{value!r}\n" for step, value
                              in zip(steps[start:end], values[start:end])]))


def emit(rows, path, fmt: str = "csv", kind: str | None = None) -> None:
    """Write records to ``path`` as CSV (fixed column order, one header row,
    line-feed endings) or as a JSON array of flat objects.  Curve records
    come as a ``CurveTable`` or any sequence of ``CurveRecord``."""
    if not isinstance(rows, CurveTable):
        rows = list(rows)
    if kind is None:
        kind = "aggregate" if rows and isinstance(rows[0], AggregateRecord) \
            else "curve"
    if kind not in ("curve", "aggregate"):
        raise ValueError(f"unknown record kind {kind!r}")
    fmt = str(fmt).lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if kind == "curve":
        table = CurveTable.from_records(rows)
        columns, cells, rows = CURVE_COLUMNS, table.cells, table.rows()
    else:
        columns, cells = AGGREGATE_COLUMNS, {r[:5] for r in rows}
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        return
    check_csv_cells(cells)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        if kind == "curve":
            _write_curve_csv(handle, table)
        else:
            for row in rows:
                handle.write(",".join(map(_format_field, row)) + "\n")


def _columns_from_file(path, columns):
    """The columns of a file written by :func:`emit` (JSON if its name ends
    in ``.json``): its distinct cells, parsed, in order of first appearance,
    each row's index into them, then the remaining columns as arrays.
    Raises ``ValueError``, naming the file, unless every row has them."""
    fmt = "json" if str(path).endswith(".json") else "csv"
    rest = columns[len(CELL_COLUMNS):]
    if fmt == "json":
        rows = read_json(path)
        if not isinstance(rows, list):
            raise ValueError(f"{path} does not hold a JSON array of records")
        try:
            cols = [list(map(itemgetter(*CELL_COLUMNS), rows)),
                    *zip(*map(itemgetter(*rest), rows))] if rows else []
        except KeyError as exc:
            raise ValueError(f"{path} has a record without the column "
                             f"{exc.args[0]!r}") from None
        except TypeError:
            raise ValueError(f"{path} has a record that is not a JSON "
                             f"object") from None
    else:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
        if not lines or lines[0] != ",".join(columns):
            raise ValueError(f"{path} does not start with the header "
                             f"{','.join(columns)}")
        # A short line stops zip, but its first field never parses as a cell.
        cols = list(zip(*(line.rsplit(",", len(rest)) for line in lines[1:])))
    raw_cells, *rest_cols = cols or [()] * (1 + len(rest))
    try:
        distinct = dict.fromkeys(raw_cells)  # in order of appearance
    except TypeError:  # a JSON array or object in a cell field
        raise ValueError(f"{path} has a record whose cell holds a JSON "
                         f"array or object") from None
    # True == 1: a cell holding a bool may have merged into one holding 0 or 1
    if fmt == "json" and any({0, 1} & {*raw[2:4]} for raw in distinct) \
            and bool in map(type, chain.from_iterable(raw_cells)):
        distinct = [next(raw for raw in raw_cells if bool in map(type, raw))]
    index, of_raw = {}, {}
    for raw in distinct:
        try:
            key = _parse_cell(raw)
        except ValueError:
            raise _fault(path, fmt, columns, f"has a record whose cell "
                         f"{raw!r} does not parse") from None
        of_raw[raw] = index.setdefault(key, len(index))
    numbers = []
    for name, col in zip(rest, rest_cols):
        dtype, json_types = _NUMBER_TYPES[name]
        try:
            if fmt == "json" and not set(map(type, col)) <= json_types:
                raise TypeError(name)
            numbers.append(np.array(col, dtype=dtype))
        except (TypeError, ValueError, OverflowError):
            raise _fault(path, fmt, columns, f"has a record whose {name} "
                         f"is not a number") from None
    return (list(index), [of_raw[raw] for raw in raw_cells], *numbers)


def _fault(path, fmt, columns, message) -> ValueError:
    """The error for a record file whose rows do not all parse: for CSV,
    the first line without one field per column, a cell that parses and a
    number in each number column; for JSON, ``message``."""
    if fmt != "csv":
        return ValueError(f"{path} {message}")
    rest = columns[len(CELL_COLUMNS):]
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(number, line.rstrip("\n"))
                 for number, line in enumerate(handle, 1) if line.strip()]
    for number, line in lines[1:]:  # after the header
        if line.count(",") != len(columns) - 1:
            return ValueError(f"{path}, line {number}: {line.count(',') + 1} "
                              f"fields where the header names {len(columns)}")
        cell, *fields = line.rsplit(",", len(rest))
        try:
            _parse_cell(cell)
        except ValueError:
            return ValueError(f"{path}, line {number}: cell {cell!r} does "
                              f"not parse")
        for name, field in zip(rest, fields):
            try:
                np.array(field, dtype=_NUMBER_TYPES[name][0])
            except (ValueError, OverflowError):
                return ValueError(f"{path}, line {number}: {name} "
                                  f"{field!r} is not a number")
    return ValueError(f"{path} {message}")


def _parse_cell(raw) -> tuple:
    """The cell of a CSV line's text, or of a JSON record's fields: three
    strings, then numbers (a bool is none) for lambda and alpha."""
    if isinstance(raw, str):
        raw = raw.split(",")
    elif not (all(type(v) is str for v in (raw[0], raw[1], raw[4]))
              and all(type(v) in (int, float) for v in raw[2:4])):
        raise ValueError("a JSON cell field of the wrong type")
    task, algorithm, lam, alpha, kind = raw
    return (task, algorithm, float(lam), float(alpha), kind)


def load_records(path) -> CurveTable:
    """Parse a curve file produced by :func:`emit` into a ``CurveTable``, a
    read-only sequence of ``CurveRecord``; each cell is parsed once."""
    columns = _columns_from_file(path, CURVE_COLUMNS)
    try:
        return CurveTable(*columns)
    except ValueError as exc:  # a negative, NaN or JSON null mspbe
        raise ValueError(f"{path}: {exc}") from None


def load_aggregates(path):
    """Parse an aggregate file produced by :func:`emit` into a list of
    ``AggregateRecord``, whose columns are checked whole."""
    cells, cell, steps, means, stds, n_runs = _columns_from_file(
        path, AGGREGATE_COLUMNS)
    try:
        _check_aggregates(means.min(initial=0.0), stds.min(initial=0.0),
                          n_runs.min(initial=1))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [tuple.__new__(AggregateRecord, (*cells[c], *fields))
            for c, *fields in zip(cell, steps.tolist(), means.tolist(),
                                  stds.tolist(), n_runs.tolist())]
