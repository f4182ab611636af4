"""Independent re-implementation of what the benchmark checks the program
against: the named tasks, the documented per-run sampling stream, the five
trace updates in coefficient form, MSPBE, and the exact value solve.

Written from the program's documentation; it imports nothing from the
program, so a fault in the program cannot hide in a shared helper.
"""

import zlib
from dataclasses import dataclass

import numpy as np

EPSILON_FLOOR = 1e-3


@dataclass(frozen=True)
class Task:
    """A finite chain over its non-terminal states; column ``n`` of ``pay``
    is the reward for exiting to the terminal sink."""

    transition: np.ndarray      # (n, n), rows may sum to less than one
    pay: np.ndarray             # (n, n + 1) reward of each move
    expected_reward: np.ndarray
    noise_std: np.ndarray
    initial: np.ndarray
    gamma: float
    phi: np.ndarray

    @property
    def n(self) -> int:
        return len(self.expected_reward)


def _walk(start: int, phi=None) -> Task:
    n = 5
    p = np.zeros((n, n))
    for i in range(n - 1):
        p[i, i + 1] = 0.5
        p[i + 1, i] = 0.5
    pay = np.zeros((n, n + 1))
    pay[n - 1, n] = 1.0            # only the right exit pays
    rho = np.zeros(n)
    rho[start] = 1.0
    expected = (p * pay[:, :n]).sum(1) + (1.0 - p.sum(1)) * pay[:, n]
    return Task(p, pay, expected, np.zeros(n), rho, 1.0,
                np.eye(n) if phi is None else phi)


def _unattached(p, r, sigma, rho, phi) -> Task:
    n = len(r)
    pay = np.repeat(np.asarray(r, dtype=float)[:, None], n + 1, axis=1)
    return Task(p, pay, np.asarray(r, dtype=float), sigma, rho, 1.0, phi)


def make_task(name: str) -> Task:
    key = name.upper()
    if key == "RW5_LEFT":
        return _walk(0)
    if key in ("RW5_MIDDLE", "RW5_TABULAR"):
        return _walk(2)
    if key == "RW5_RIGHT":
        return _walk(4)
    if key == "RW5_INVERTED":
        return _walk(2, 0.5 * (np.ones((5, 5)) - np.eye(5)))
    if key == "RW5_DEPENDENT":
        a, b, c = 1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0)
        return _walk(2, np.array([[a, 0, 0], [b, b, 0], [c, c, c],
                                  [0, b, b], [0, 0, a]]))
    if key == "BOYAN13":
        n = 13
        p = np.zeros((n, n))
        for k in range(2, n):
            p[k, k - 1] = p[k, k - 2] = 0.5
        p[1, 0] = 1.0
        r = np.full(n, -3.0)
        r[1], r[0] = -2.0, 0.0
        rho = np.zeros(n)
        rho[n - 1] = 1.0
        hats = np.maximum(0.0, 1.0 - np.abs(
            np.arange(n)[:, None] - np.array([12.0, 8.0, 4.0, 0.0])) / 4.0)
        return _unattached(p, r, np.zeros(n), rho, hats)
    if key.startswith("NOISY10"):
        level = float(key.split(":", 1)[1]) if ":" in key else 0.0
        n = 10
        return _unattached(np.full((n, n), 1.0 / (n + 1)), np.full(n, level),
                           0.1 * np.arange(1, n + 1), np.full(n, 1.0 / n),
                           np.eye(n))
    raise ValueError(f"unknown task {name!r}")


def true_values(task: Task) -> np.ndarray:
    """v = (I - gamma P)^-1 r."""
    return np.linalg.solve(np.eye(task.n) - task.gamma * task.transition,
                           task.expected_reward)


def stationary(task: Task) -> np.ndarray:
    """Stationary distribution of the chain that restarts from the initial
    distribution on exit, as the eigenvector of eigenvalue one."""
    exit_p = 1.0 - task.transition.sum(1)
    restart = task.transition + np.outer(exit_p, task.initial)
    vals, vecs = np.linalg.eig(restart.T)
    d = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return d / d.sum()


def mspbe_rows(task: Task, d: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sqrt of the d-weighted squared gap between v and its projected
    one-step image, for each row of ``theta``; non-finite becomes +inf."""
    phi = task.phi
    proj = phi @ np.linalg.solve(phi.T @ (d[:, None] * phi), phi.T * d)
    v = theta @ phi.T
    gap = v - (task.expected_reward + task.gamma * v @ task.transition.T) \
        @ proj.T
    out = np.sqrt((gap * gap) @ d)
    return np.where(np.isfinite(out), out, np.inf)


def emphasis_label(algo: str, emphasis: str) -> str:
    return "none" if algo in ("TD", "ETD") else emphasis


def cell_key(task_name, algo, lam, alpha, emphasis,
             eps=EPSILON_FLOOR) -> int:
    """crc32 of the cell's description: the spawn key of its seed streams."""
    text = "|".join([task_name, algo, repr(float(lam)), repr(float(alpha)),
                     emphasis_label(algo, emphasis), repr(float(eps))])
    return zlib.crc32(text.encode("utf-8"))


def simulate(task_name, algo, lam, alpha, emphasis, base_seed, runs, steps,
             eval_every, eps=EPSILON_FLOOR) -> np.ndarray:
    """Learning curves, one row per run, of one hyperparameter cell.

    Run ``i`` draws from SeedSequence(base_seed + i, spawn_key=(cell key,))
    one start uniform, then ``steps`` transition uniforms, ``steps`` restart
    uniforms and ``steps`` reward-noise normals.  The learner is the
    coefficient form e <- c_decay e + c_in phi(s), theta <- theta +
    alpha delta c_out e, with (c_decay, c_in, c_out) = TD (gl, 1, 1),
    DTD (gl, w, w), ETD (gl, M, 1), PTD (gl (1 - w), w, 1), TDW (gl, w, 1),
    gl = gamma lambda, F <- gamma F + 1 and M = lambda + (1 - lambda) F.
    """
    task = make_task(task_name)
    n, k, gamma = task.n, task.phi.shape[1], task.gamma
    key = cell_key(task_name, algo, lam, alpha, emphasis, eps)
    draws = []
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=base_seed + run, spawn_key=(key,)))
        draws.append((rng.random(), rng.random(steps), rng.random(steps),
                      rng.standard_normal(steps)))
    u0, u_move, u_restart, noise = (np.array(x) for x in zip(*draws))

    cum_move = np.cumsum(task.transition, axis=1)
    cum_init = np.cumsum(task.initial)
    phi_ext = np.vstack([task.phi, np.zeros(k)])     # terminal row is zero
    d = stationary(task)
    weighted = emphasis_label(algo, emphasis) != "none"
    rows = np.arange(runs)

    def start(u):
        return np.minimum(np.searchsorted(cum_init, u, side="right"), n - 1)

    s = start(u0)
    theta = np.zeros((runs, k))
    trace = np.zeros((runs, k))
    follow = np.zeros(runs)
    counts = np.zeros((runs, n))
    curves = []
    gl = gamma * lam
    with np.errstate(all="ignore"):
        for t in range(steps):
            w = np.ones(runs)
            if weighted and emphasis == "count_inverse":
                counts[rows, s] += 1.0
                seen = np.where(counts > 0.0, counts, 1.0)
                w = np.sqrt(seen.min(1) / seen[rows, s])
            elif weighted and emphasis == "abs_expected_td":
                v = theta @ task.phi.T
                err = np.abs(task.expected_reward + gamma * v
                             @ task.transition.T - v)
                peak = err.max(1)
                w = np.where(peak > 0.0, np.sqrt(err[rows, s] / peak), 1.0)
            elif weighted:
                raise ValueError(f"unsupported emphasis {emphasis!r}")
            w = np.maximum(w, eps) if weighted else w

            nxt = (u_move[:, t, None] >= cum_move[s]).sum(1)
            reward = task.pay[s, nxt] + task.noise_std[s] * noise[:, t]
            delta = reward + gamma * (phi_ext[nxt] * theta).sum(1) \
                - (task.phi[s] * theta).sum(1)
            c_decay, c_in, c_out = np.full(runs, gl), w, np.ones(runs)
            if algo == "TD":
                c_in = np.ones(runs)
            elif algo == "DTD":
                c_out = w
            elif algo == "ETD":
                follow = gamma * follow + 1.0
                c_in = lam + (1.0 - lam) * follow
            elif algo == "PTD":
                c_decay = gl * (1.0 - w)
            elif algo != "TDW":
                raise ValueError(f"unknown algorithm {algo!r}")
            trace = c_decay[:, None] * trace + c_in[:, None] * task.phi[s]
            theta = theta + (alpha * delta * c_out)[:, None] * trace

            ended = nxt == n
            s = np.where(ended, start(u_restart[:, t]), nxt)
            trace[ended] = 0.0
            follow[ended] = 0.0
            if (t + 1) % eval_every == 0:
                curves.append(mspbe_rows(task, d, theta))
    return np.array(curves).T
