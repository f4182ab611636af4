"""Exact matrix machinery for the emphasis-weighted predictors.

Everything here works on explicit finite models: weighted projections, the
emphasis-weighted multi-step operator, the expected-update system A, b and
its fixed point, weighted norms, the contraction certificate, and the
priority-sampling identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mrp import ConvergenceError, FeatureMap, MarkovRewardProcess, \
    checked_real, checked_state, checked_unit, checked_weights


@dataclass(frozen=True)
class LinearSystem:
    """Expected-update matrix and offset: the update direction at theta is
    A @ theta + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise ValueError("A must be square and b must match its size")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("system contains non-finite entries")
        for name, value in (("A", a), ("b", b)):
            value = value.copy()
            value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class EmphasizedGeometry:
    """Diagonal weightings as vectors: emphasis f, stationary d, and their
    product lam_diag = f * d * f."""

    f: np.ndarray
    d: np.ndarray
    lam_diag: np.ndarray


def emphasized_geometry(mrp: MarkovRewardProcess, f_values) -> EmphasizedGeometry:
    f = checked_weights("emphasis vector", f_values, mrp.n_states)
    d = mrp.stationary
    return EmphasizedGeometry(f=f, d=d, lam_diag=f * d * f)


def projection(feature_map: FeatureMap, weight_diag) -> np.ndarray:
    """Weighted projection onto the feature span:
    Phi (Phi^T W Phi)^{-1} Phi^T W for a positive diagonal W."""
    phi = feature_map.phi
    w = checked_weights("projection weights", weight_diag, len(phi))
    gram = phi.T @ (w[:, None] * phi)
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise np.linalg.LinAlgError("weighted Gram matrix is singular")
    return phi @ np.linalg.solve(gram, phi.T * w[None, :])


def backed_up_values(theta, mrp: MarkovRewardProcess, phi):
    """Values v = theta Phi^T of weights ``theta`` (k,) or (B, k) and their
    backup r + gamma * (v P^T), both (max(B, 2), n), for callers to slice:
    a lone row is multiplied as two, since numpy's matrix-vector product
    rounds unlike its matrix-matrix one, so no row's bits depend on B."""
    if theta.ndim == 1 or len(theta) == 1:
        theta = np.vstack((theta, theta))
    v = theta @ phi.T
    backup = v @ mrp.transition.T
    backup *= mrp.discount
    backup += mrp.expected_reward
    return v, backup


def mspbe_rows(theta, mrp: MarkovRewardProcess, phi, d, proj_t) -> np.ndarray:
    """:func:`mspbe` of each row of weights ``theta`` (B, k), given the
    stationary distribution ``d`` and the projection's transpose ``proj_t``."""
    v_all, tv = backed_up_values(theta, mrp, phi)
    err = v_all - tv @ proj_t
    return np.sqrt(np.einsum("bn,n,bn->b", err, d, err))[:len(theta)]


def mspbe(theta, mrp: MarkovRewardProcess, feature_map: FeatureMap) -> float:
    """Distance (in the stationary-distribution norm) between the current
    value estimate and the projected one-step image of it."""
    theta = np.asarray(theta, dtype=np.float64)[None, :]
    return float(mspbe_rows(theta, mrp, feature_map.phi, mrp.stationary,
                            projection(feature_map, mrp.stationary).T)[0])


SERIES_TOL = 1e-14  # series stop once lam**n * max|weight| is below this


def _operator_emphasis(mrp: MarkovRewardProcess, f_values,
                       lam: float) -> np.ndarray:
    """Check an operator's lam and emphasis; return the emphasis array."""
    checked_unit("lam", lam)
    if mrp.discount * lam >= 1.0:
        raise ValueError("gamma * lam must be below 1")
    return checked_weights("emphasis vector", f_values, mrp.n_states)


def dtd_operator(v, mrp: MarkovRewardProcess, f_values, lam: float,
                 series_cap: int = 100_000) -> np.ndarray:
    """Apply the emphasis-weighted multi-step operator to a value vector,
    or to each column of an ``(n, m)`` block of value vectors.

    Evaluates F^{-1} * sum_n lam^n (P^n (I - lam P) f) o (sum_{t<=n}
    (gamma P)^t r + (gamma P)^{n+1} v), truncating once the weight sequence
    falls below ``SERIES_TOL``; o is the elementwise product.  On a block,
    the per-state weight, reward sum and f broadcast over the columns, so
    one series serves them all.
    """
    f = _operator_emphasis(mrp, f_values, lam)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != mrp.n_states:
        raise ValueError("v must be a value vector or an (n, m) block of "
                         "them, n the state count")
    col = (slice(None),) + (None,) * (v.ndim - 1)  # per-state arrays
    gamma = mrp.discount
    p = mrp.transition
    r = mrp.expected_reward
    weight = f - lam * (p @ f)       # P^n (I - lam P) f at n = 0
    cum_r = r.copy()                  # sum_{t<=n} (gamma P)^t r
    r_pow = r.copy()                  # (gamma P)^n r
    v_pow = gamma * (p @ v)           # (gamma P)^{n+1} v
    acc = weight[col] * (cum_r[col] + v_pow)
    scale = 1.0
    for n in range(1, series_cap + 1):
        scale *= lam
        if scale * np.max(np.abs(weight)) < SERIES_TOL:
            return acc / f[col]
        weight = p @ weight
        r_pow = gamma * (p @ r_pow)
        cum_r = cum_r + r_pow
        v_pow = gamma * (p @ v_pow)
        acc = acc + scale * (weight[col] * (cum_r[col] + v_pow))
    if scale * np.max(np.abs(weight)) < SERIES_TOL:
        return acc / f[col]
    raise ConvergenceError("operator series hit the cap before tolerance")


def dtd_operator_matrix(mrp: MarkovRewardProcess, f_values, lam: float,
                        series_cap: int = 100_000):
    """Affine decomposition of the multi-step operator: returns
    ``(offset, linear)`` with T(V) = offset + linear @ V.

    The weighted norm of ``linear`` is the operator's exact contraction
    modulus in the emphasized norm.
    """
    f = _operator_emphasis(mrp, f_values, lam)
    gamma = mrp.discount
    p = mrp.transition
    r = mrp.expected_reward
    weight = f - lam * (p @ f)
    cum_r = r.copy()
    r_pow = r.copy()
    v_pow = gamma * p.copy()
    offset = weight * cum_r
    linear = weight[:, None] * v_pow
    scale = 1.0
    for k in range(1, series_cap + 1):
        scale *= lam
        if scale * np.max(np.abs(weight)) < SERIES_TOL:
            return offset / f, linear / f[:, None]
        weight = p @ weight
        r_pow = gamma * (p @ r_pow)
        cum_r = cum_r + r_pow
        v_pow = gamma * (p @ v_pow)
        offset = offset + scale * (weight * cum_r)
        linear = linear + scale * (weight[:, None] * v_pow)
    if scale * np.max(np.abs(weight)) < SERIES_TOL:
        return offset / f, linear / f[:, None]
    raise ConvergenceError("operator series hit the cap before tolerance")


def _resolvent(mrp: MarkovRewardProcess, lam: float) -> np.ndarray:
    """I - gamma*lam*P, after checking lam."""
    checked_unit("lam", lam)
    return np.eye(mrp.n_states) - mrp.discount * lam * mrp.transition


def _resolvent_solve(resolvent: np.ndarray, rhs) -> np.ndarray:
    """``resolvent``^{-1} rhs, for the A, b builder and the exact map."""
    try:
        return np.linalg.solve(resolvent, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("resolvent (I - gamma*lam*P) is singular") from exc


def system_builder(mrp: MarkovRewardProcess, feature_map: FeatureMap,
                   lam: float):
    """``compute_A_b`` for one chain, feature map and lam as a function of
    the emphasis vector alone: the stationary distribution, the lam check,
    I - gamma*lam*P and (gamma*P - I) Phi are formed once, here."""
    d = mrp.stationary
    resolvent = _resolvent(mrp, lam)
    phi = feature_map.phi
    drift = (mrp.discount * mrp.transition - np.eye(mrp.n_states)) @ phi

    def build(f_values) -> LinearSystem:
        f = checked_weights("emphasis vector", f_values, mrp.n_states)
        solved = _resolvent_solve(resolvent, np.column_stack([
            f[:, None] * drift, f * mrp.expected_reward]))
        weighted = (f * d)[:, None] * solved
        return LinearSystem(A=phi.T @ weighted[:, :-1],
                            b=phi.T @ weighted[:, -1])

    return build


def compute_A_b(mrp: MarkovRewardProcess, feature_map: FeatureMap, f_values,
                lam: float) -> LinearSystem:
    """Closed-form expected-update system for a fixed emphasis vector:
    A = Phi^T F D (I - gamma*lam*P)^{-1} F (gamma*P - I) Phi and the matching
    offset b with r in place of (gamma*P - I) Phi.  The emphasis is checked
    before lam."""
    checked_weights("emphasis vector", f_values, mrp.n_states)
    return system_builder(mrp, feature_map, lam)(f_values)


def exact_update_map_norm(mrp: MarkovRewardProcess, f_values, lam) -> float:
    """Weighted norm of the linear part of the exact expected-return map
    V + F^{-1}(I - gamma*lam*P)^{-1} F (r + gamma*P*V - V).  When below one,
    the expected-update matrix provably has a negative-definite symmetric
    part."""
    geo = emphasized_geometry(mrp, f_values)
    n = mrp.n_states
    linear = np.eye(n) + (1.0 / geo.f)[:, None] * _resolvent_solve(
        _resolvent(mrp, lam),
        geo.f[:, None] * (mrp.discount * mrp.transition - np.eye(n)))
    return induced_norm(linear, geo.lam_diag)


class SingularSystemError(RuntimeError):
    """The expected-update matrix is singular, so no unique fixed point
    exists (emphasis outside the contraction class or degenerate features)."""


def fixed_point(system: LinearSystem) -> np.ndarray:
    """Solve A theta + b = 0 and verify the residual."""
    try:
        theta = np.linalg.solve(system.A, -system.b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("expected-update matrix is singular") from exc
    residual = np.max(np.abs(system.A @ theta + system.b))
    if not residual < 1e-10:
        raise SingularSystemError(
            f"fixed-point residual {residual:.3e} exceeds 1e-10")
    return theta


def lambda_weighted_norm(x, lam_diag) -> float:
    """Vector norm induced by a positive diagonal: sqrt(sum lam_i x_i^2)."""
    x = np.asarray(x, dtype=np.float64)
    lam_diag = checked_weights("lam_diag", lam_diag, x.size)
    return float(np.sqrt(np.sum(lam_diag * x * x)))


def induced_norm(m, lam_diag) -> float:
    """Matrix norm induced by the weighted vector norm: the largest singular
    value of S M S^{-1} with S = sqrt(diag weights)."""
    m = np.asarray(m, dtype=np.float64)
    lam_diag = checked_weights("lam_diag", lam_diag, len(m))
    s = np.sqrt(lam_diag)
    return float(np.linalg.norm((s[:, None] * m) / s[None, :], 2))


@dataclass(frozen=True)
class ContractionReport:
    """Certificate evaluation for the multi-step operator.

    ``holds`` is the headline condition ``lhs < rhs``.  For fixed emphasis
    it depends on the emphasis scale: ``lhs`` (max f) is linear in the scale
    while ``rhs`` is scale invariant, so any shape meets it once shrunk far
    enough.
    It therefore certifies neither the exact contraction modulus of the
    operator nor a negative-definite expected-update matrix, whose sign
    depends only on the emphasis shape.  The sound, scale-invariant tests
    are ``terms["sound_holds"]`` (operator contraction) and
    ``exact_update_map_norm(mrp, f, lam) < 1`` (definiteness).

    ``holds`` is None when the bound is vacuous at the supplied parameters
    (lam = 1 or gamma = 0 in the parameter-dependent case).
    """

    holds: object
    margin: float
    lhs: float
    rhs: float
    condition: str
    terms: dict
    note: str = ""


def _checked_nonnegative(name, value) -> float:
    """``checked_real(name, value)``; ValueError if it is NaN or negative."""
    value = checked_real(name, value)
    if not value >= 0.0:
        raise ValueError(f"{name} must be nonnegative")
    return value


def contraction_condition(mrp: MarkovRewardProcess, f_values, lam: float,
                          kappa: float | None = None,
                          r_max: float | None = None) -> ContractionReport:
    """Evaluate the headline contraction condition for a fixed emphasis
    vector; with ``kappa`` supplied, evaluate the tightened bound for
    emphasis that varies with the weights (Lipschitz modulus kappa).

    The headline ``holds`` is scale dependent and is not a sound
    certificate; see ``ContractionReport`` for the sound tests."""
    checked_unit("lam", lam)
    geo = emphasized_geometry(mrp, f_values)
    if kappa is not None:
        kappa = _checked_nonnegative("kappa", kappa)
    if r_max is not None:
        r_max = _checked_nonnegative("r_max", r_max)
    gamma = mrp.discount
    f_norm = float(np.max(geo.f))
    sigma_min = float(np.min(geo.f))
    one_norm = lambda_weighted_norm(np.ones(mrp.n_states), geo.lam_diag)
    dev_norm = induced_norm(np.eye(mrp.n_states) - lam * mrp.transition,
                            geo.lam_diag)
    if r_max is None:
        # Bounds realized rewards with high probability when noise is present.
        r_max = float(np.max(np.abs(mrp.expected_reward))
                      + 3.0 * np.max(mrp.reward_noise_std))
    terms = {
        "f_norm_weighted": f_norm,
        "sigma_min": sigma_min,
        "one_norm_weighted": one_norm,
        "deviation_norm": dev_norm,
        "gamma": gamma,
        "lam": lam,
        "r_max": r_max,
    }
    if gamma == 0.0:
        if kappa is None:
            return ContractionReport(True, math.inf, f_norm, math.inf, "i",
                                     terms, "trivially contracting at gamma=0")
        return ContractionReport(None, math.nan, f_norm, math.nan, "ii",
                                 terms, "bound vacuous at gamma=0")
    # Scale-invariant companion bound: gamma * max|(I - lam P) f| /
    # ((1 - gamma lam) * min f) < 1 provably forces the operator to
    # contract in the emphasized norm; reported alongside the headline
    # condition, which can certify instances this bound rejects.
    sharp = float(np.max(np.abs(geo.f - lam * (mrp.transition @ geo.f))))
    sound = gamma * sharp / ((1.0 - gamma * lam) * sigma_min)
    terms["sound_bound"] = sound
    terms["sound_holds"] = bool(sound < 1.0)
    rhs_i = sigma_min * (1.0 - gamma * lam) / (gamma * one_norm * dev_norm)
    terms["rhs_fixed_emphasis"] = rhs_i
    if not kappa:
        # fixed emphasis, or a zero modulus: the varying bound is the fixed one
        margin = rhs_i - f_norm
        return ContractionReport(bool(margin > 0.0), margin, f_norm, rhs_i,
                                 "i" if kappa is None else "ii", terms)
    if lam == 1.0 or gamma == 1.0:
        return ContractionReport(None, math.nan, f_norm, math.nan, "ii",
                                 terms, "bound vacuous at lam=1 or gamma=1")
    if r_max == 0.0:
        kappa_max = math.inf
        penalty = 0.0
    else:
        kappa_max = ((1.0 - lam) * (1.0 - gamma) * sigma_min
                     / (r_max * one_norm * dev_norm))
        penalty = ((1.0 - gamma * lam) * r_max * kappa
                   / (gamma * (1.0 - lam) * (1.0 - gamma)))
    terms["kappa_max"] = kappa_max
    if not kappa < kappa_max:
        return ContractionReport(False, -math.inf, f_norm, math.nan, "ii",
                                 terms, "kappa outside the admissible range")
    rhs_ii = rhs_i - penalty
    margin = rhs_ii - f_norm
    return ContractionReport(bool(margin > 0.0), margin, f_norm, rhs_ii, "ii",
                             terms)


@dataclass(frozen=True)
class PerEquivalenceResult:
    """Both sides of the priority-sampling identity plus the implied
    priority distribution and scale."""

    lhs: float
    rhs: float
    q: np.ndarray
    c: float


def per_equivalence(dataset, f_values) -> PerEquivalenceResult:
    """Uniform sampling of the emphasis-squared loss equals priority
    sampling of the plain loss scaled by the mean squared emphasis.

    ``dataset`` is a sequence of (state, target, value) triples, each state
    an index of ``f_values``, one positive, finite weight per state (also
    at states the dataset does not visit); the priority of a sample is
    proportional to its squared emphasis.
    """
    rows = list(dataset)
    if not rows:
        raise ValueError("dataset must be nonempty")
    f = checked_weights("f_values", f_values)
    states = np.array([checked_state("dataset state", s, len(f))
                       for s, _, _ in rows])
    errors = np.array([float(t) - float(v) for _, t, v in rows])
    fsq = f[states] ** 2
    n = len(rows)
    lhs = float(np.mean(fsq * errors ** 2))
    total = float(fsq.sum())
    q = fsq / total
    c = total / n
    rhs = float(c * np.sum(q * errors ** 2))
    return PerEquivalenceResult(lhs=lhs, rhs=rhs, q=q, c=c)
