"""Emphasis functions: positive state weights that shape both the size of a
state's own updates and how strongly its prediction error propagates back.

All normalized constructions share one pipeline: scale the raw positive
score into (0, 1] by its maximum, take the square root, and floor at a small
epsilon so the weight stays strictly positive.  The sweep loop takes each
row's peak once and then applies the pipeline to the visited state only.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .mrp import FeatureMap, MarkovRewardProcess, checked_real

DEFAULT_EPSILON_FLOOR = 1e-3
PATH_BUDGET = 1 << 20  # running counts held at once by count_inverse_path


class EmphasisKind(str, enum.Enum):
    CONSTANT = "constant"
    TABLE = "table"
    COUNT_INVERSE = "count_inverse"
    NOISE_PRIOR = "noise_prior"
    ABS_EXPECTED_TD_ERROR = "abs_expected_td"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EmphasisSpec:
    """Declarative choice of emphasis; per-run state lives in EmphasisState.
    ``constant``, ``epsilon_floor`` and the ``table`` entries are real
    numbers (a bool is none); the two scalars are stored as floats."""

    kind: EmphasisKind
    constant: float = 1.0
    table: np.ndarray | None = None
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR

    def __post_init__(self):
        kind = EmphasisKind(self.kind)
        object.__setattr__(self, "kind", kind)
        for name in ("constant", "epsilon_floor"):
            object.__setattr__(self, name,
                               checked_real(repr(name), getattr(self, name)))
        if not 0.0 < self.epsilon_floor < 1.0:
            raise ValueError("epsilon_floor must lie in (0, 1)")
        if kind is EmphasisKind.CONSTANT and not 0 < self.constant < np.inf:
            raise ValueError("constant emphasis must be positive and finite")
        if kind is EmphasisKind.TABLE:
            if self.table is None:
                raise ValueError("table emphasis requires a table")
            for entry in np.ravel(np.asarray(self.table, dtype=object)):
                checked_real("'table' entry", entry)
            table = np.asarray(self.table, dtype=np.float64)
            if table.ndim != 1 or not np.all((table > 0) & (table < np.inf)):
                raise ValueError("table entries must be positive and finite")
            table = table.copy()
            table.flags.writeable = False
            object.__setattr__(self, "table", table)


@dataclass
class EmphasisState:
    """Mutable per-run emphasis values (plus visit counts when adaptive by
    visitation)."""

    kind: EmphasisKind
    values: np.ndarray
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR
    visit_counts: np.ndarray | None = None


def _scale_sqrt_floor(raw: np.ndarray, epsilon_floor, peak=None) -> np.ndarray:
    """Shared normalization, row by row: scale by the row's max,
    square-root, floor.  A row whose max is not positive (all zero, or NaN
    from diverged weights) gets uniform weight 1.  ``peak``, when given, is
    that max taken beforehand, and ``raw`` holds only the entries read."""
    peak = raw.max(axis=-1, keepdims=True) if peak is None else peak
    scored = peak > 0.0
    if scored.all():  # both np.where calls below would pick their first
        scaled = np.sqrt(raw / peak)
        return np.maximum(scaled, epsilon_floor, out=scaled)
    scaled = np.sqrt(raw / np.where(scored, peak, 1.0))
    return np.where(scored, np.maximum(scaled, epsilon_floor, out=scaled), 1.0)


def count_inverse_path(counts: np.ndarray, visits: np.ndarray,
                       epsilon_floor) -> np.ndarray:
    """:func:`emphasis_from_counts` of the running counts after each of the
    (T, C) ``visits`` (time first), read at the visited state only.

    ``counts``, the (n, C) integer visits before, is advanced in place; the
    floor is a scalar or a (C,) row.  Running counts are summed step by step
    from one-hot visits, at most ``PATH_BUDGET`` of them at a time.  Integer
    sums are exact, and ``max 1/(x/total)`` is ``1/(min x/total)``, as both
    correctly rounded operations are monotone.
    """
    n, n_rows = counts.shape
    states = np.arange(n, dtype=visits.dtype)[:, None]
    piece = max(1, PATH_BUDGET // counts.size)
    out = np.empty(visits.shape)
    for lo in range(0, len(visits), piece):
        seen = visits[lo:lo + piece]
        total = counts.sum(axis=0) + np.arange(1.0, len(seen) + 1)[:, None]
        running = np.empty((len(seen), n, n_rows), counts.dtype)
        last = counts
        for i, hot in enumerate((seen[:, None] == states).view(np.int8)):
            last = np.add(last, hot, out=running[i])
        counts[:] = last
        least = running.min(axis=1)
        if not least.all():
            total += (running == 0).sum(axis=1)
            least = np.maximum(least, 1)
        flat = (np.arange(len(seen))[:, None] * n + seen) * n_rows
        share = running.take(flat + np.arange(n_rows)) / total
        del running, flat  # only (t, C) arrays from here on
        peak = np.divide(least, total, out=total)
        out[lo:lo + len(seen)] = _scale_sqrt_floor(
            np.divide(1.0, share, out=share), epsilon_floor,
            np.divide(1.0, peak, out=peak))
    return out


def emphasis_from_counts(counts, epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
    """Inverse normalized visitation counts, scaled and square-rooted; one
    count vector, or a (B, n) array normalized row by row under a scalar or
    (B, 1) floor.

    States never visited are imputed a count of one before normalizing so
    they receive maximal attention.  All-zero counts yield uniform weight 1.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim not in (1, 2) or counts.size == 0:
        raise ValueError("counts must be a nonempty vector or matrix")
    if np.any(counts < 0.0):
        raise ValueError("counts must be nonnegative")
    imputed = np.where(counts > 0.0, counts, 1.0)
    share = imputed / imputed.sum(axis=-1, keepdims=True)
    return _scale_sqrt_floor(1.0 / share, epsilon_floor)


def emphasis_from_noise(sigma, epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
    """Negative exponential of per-state noise levels, scaled and
    square-rooted: noisier states receive less weight."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0.0):
        raise ValueError("noise levels must be nonnegative")
    return _scale_sqrt_floor(np.exp(-sigma), epsilon_floor)


def abs_expected_td_rows(mrp: MarkovRewardProcess, feature_map: FeatureMap,
                         theta: np.ndarray, epsilon_floor,
                         visited=None) -> np.ndarray:
    """Unchecked core of :func:`emphasis_abs_expected_td`: weights of shape
    (k,) or (B, k), a floor that is a scalar or a (B, 1) column; or, given
    one ``visited`` state per row, the (B,) weights there, floor (B,).

    The score |r + gamma*(v P^T) - v| is formed in place in that order of
    operations, and each row's peak is taken along the batch axis of the
    transposed scores; a max is exact, so neither moves a bit."""
    v = theta @ feature_map.phi.T
    raw = v @ mrp.transition.T
    raw *= mrp.discount
    raw += mrp.expected_reward
    raw -= v
    np.abs(raw, out=raw)
    if visited is None:
        return _scale_sqrt_floor(raw, epsilon_floor)
    return _scale_sqrt_floor(raw[np.arange(len(raw)), visited],
                             epsilon_floor,
                             np.ascontiguousarray(raw.T).max(axis=0))


def emphasis_abs_expected_td(mrp: MarkovRewardProcess, feature_map: FeatureMap,
                             theta: np.ndarray,
                             epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
    """Absolute expected one-step error under the true dynamics at ``theta``
    (one weight vector, or a (B, k) array of them), normalized through the
    shared pipeline row by row.

    When the current estimate is exactly self-consistent everywhere the raw
    score vanishes and the emphasis is uniform 1.
    """
    return abs_expected_td_rows(mrp, feature_map,
                                np.asarray(theta, dtype=np.float64),
                                epsilon_floor)


def long_run_count_inverse(mrp: MarkovRewardProcess,
                           epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
    """Limit of the count-inverse emphasis: visitation shares converge to the
    stationary distribution of the restart chain."""
    share = mrp.stationary
    return _scale_sqrt_floor(1.0 / share, epsilon_floor)


def init_emphasis_state(spec: EmphasisSpec, mrp: MarkovRewardProcess) -> EmphasisState:
    n = mrp.n_states
    eps = spec.epsilon_floor
    if spec.kind is EmphasisKind.CONSTANT:
        return EmphasisState(spec.kind, np.full(n, spec.constant), eps)
    if spec.kind is EmphasisKind.TABLE:
        if spec.table.shape != (n,):
            raise ValueError(f"table length {spec.table.shape[0]} does not "
                             f"match {n} states")
        return EmphasisState(spec.kind, spec.table.copy(), eps)
    if spec.kind is EmphasisKind.COUNT_INVERSE:
        return EmphasisState(spec.kind, np.ones(n), eps,
                             visit_counts=np.zeros(n, dtype=np.int64))
    if spec.kind is EmphasisKind.NOISE_PRIOR:
        return EmphasisState(spec.kind,
                             emphasis_from_noise(mrp.reward_noise_std, eps), eps)
    # Adaptive emphasis starts uniform; it is refreshed from the current
    # weights before every update.
    return EmphasisState(spec.kind, np.ones(n), eps)


def update_counts(state_index: int, state: EmphasisState) -> EmphasisState:
    """Record a visit and refresh the count-inverse values in place."""
    if state.kind is not EmphasisKind.COUNT_INVERSE:
        raise ValueError("update_counts applies to count_inverse emphasis only")
    state.visit_counts[state_index] += 1
    state.values = emphasis_from_counts(state.visit_counts, state.epsilon_floor)
    return state
