"""Desk-scale environments, expert generation and the evaluation protocol.

Environments are small tabular MDPs whose embeddings are scaled coordinates
concatenated with one-hot actions.  Experts come from soft value iteration
on the true reward; demonstrations are fixed-length rollouts (about 50
state-action pairs each).  Evaluation averages cumulative true reward over
restart-chain episodes and rescales it so the expert scores 1.0 and a
random policy 0.0.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .mdp import (Rollouts, SoftmaxPolicy, TabularMdp, check_count, default_max_len,
                  next_states, soft_value_iteration)

_GRID_MOVES = np.array([(-1, 0), (1, 0), (0, -1), (0, 1)])   # up, down, left, right


def _grid_coords(n_rows: int, n_cols: int) -> np.ndarray:
    rr, cc = np.divmod(np.arange(n_rows * n_cols), n_cols)
    return np.stack([rr / max(n_rows - 1, 1), cc / max(n_cols - 1, 1)], axis=1)


def _grid_targets(n_rows: int, n_cols: int) -> np.ndarray:
    """(cells, 4) cell each move reaches from each cell; walls bounce back."""
    cell = np.arange(n_rows * n_cols)
    r, c = np.divmod(cell, n_cols)
    nr, nc = r[:, None] + _GRID_MOVES[:, 0], c[:, None] + _GRID_MOVES[:, 1]
    inside = (0 <= nr) & (nr < n_rows) & (0 <= nc) & (nc < n_cols)
    return np.where(inside, nr * n_cols + nc, cell[:, None])


def _deterministic(target: np.ndarray) -> tuple:
    """Transition entries moving each state-action row to target[s, a]."""
    return np.arange(target.size), target.ravel(), np.ones(target.size)


def make_gridworld(n: int = 5, goal: int | None = None, step_cost: float = 0.0,
                   slip: float = 0.0, gamma: float = 0.95,
                   goal_reward: float = 1.0) -> TabularMdp:
    """n x n grid, 4 moves, walls bounce back.  The goal cell is absorbing
    and pays goal_reward every step; all other cells pay step_cost.  With
    slip > 0 the move goes in one of the three other directions instead,
    each with probability slip/3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= slip <= 1.0:
        raise ValueError("slip must lie in [0, 1]")
    S, A = n * n, 4
    goal = S - 1 if goal is None else int(goal)
    if not 0 <= goal < S:
        raise ValueError(f"goal must be a state index < {S}")
    # one entry per (s, a, move b), in that order: the constructor sums the
    # moves that land on the same cell in order of b, zeros included
    target = np.repeat(_grid_targets(n, n)[:, None, :], A, axis=1)
    prob = np.tile(np.where(np.eye(A, dtype=bool), 1.0 - slip, slip / 3.0), (S, 1, 1))
    target[goal], prob[goal] = goal, [1.0, 0.0, 0.0, 0.0]
    R = np.full((S, A), step_cost)
    R[goal, :] = goal_reward
    return TabularMdp(transition=(np.repeat(np.arange(S * A), A), target.ravel(), prob.ravel()),
                      start=np.full(S, 1.0 / S), gamma=gamma,
                      state_embed=_grid_coords(n, n), action_embed=np.eye(A),
                      true_reward=R)


def make_chain(n: int = 8, gamma: float = 0.9) -> TabularMdp:
    """Line of n cells with left/right moves (walls bounce); the last cell
    pays 1 and is absorbing.  Start mass concentrates on cell 0."""
    if n < 2:
        raise ValueError("n must be >= 2")
    S, A = n, 2
    target = np.stack([np.maximum(np.arange(S) - 1, 0), np.arange(S) + 1], axis=1)
    target[S - 1] = S - 1
    R = np.zeros((S, A))
    R[S - 1, :] = 1.0
    eps = 1e-6
    mu0 = np.full(S, eps)
    mu0[0] = 1.0 - eps * (S - 1)
    pos = (np.arange(S) / (S - 1))[:, None]
    return TabularMdp(transition=_deterministic(target), start=mu0, gamma=gamma,
                      state_embed=pos, action_embed=np.eye(A), true_reward=R)


def make_cliff(n_x: int = 6, n_y: int = 3, gamma: float = 0.95) -> TabularMdp:
    """Cliff walk on an n_y x n_x grid plus a zero-reward absorbing terminal.

    The bottom row between start (bottom-left) and goal (bottom-right) is
    the cliff: entering it pays -1 and teleports to the start.  Reaching the
    goal pays +1 once, then the episode ends in the terminal state."""
    if n_x < 3 or n_y < 2:
        raise ValueError("need n_x >= 3 and n_y >= 2")
    S, A = n_x * n_y + 1, 4
    term = S - 1
    start_cell = (n_y - 1) * n_x
    goal_cell = n_y * n_x - 1
    cliff = np.arange(start_cell + 1, goal_cell)
    target = np.vstack([_grid_targets(n_y, n_x), np.full((1, A), term)])
    target[goal_cell] = term
    target[cliff] = start_cell
    R = np.full((S, A), -0.01)
    R[goal_cell] = 1.0
    R[cliff] = -1.0
    R[term] = 0.0
    eps = 1e-6
    mu0 = np.full(S, eps)
    mu0[start_cell] = 1.0 - eps * (S - 1)
    coords = np.vstack([_grid_coords(n_y, n_x), [[1.25, 1.25]]])   # terminal sits off-grid
    return TabularMdp(transition=_deterministic(target), start=mu0, gamma=gamma,
                      state_embed=coords, action_embed=np.eye(A), true_reward=R)


def make_mountain_car(n_pos: int = 12, n_vel: int = 9, gamma: float = 0.99,
                      substeps: int = 15) -> TabularMdp:
    """Discretized mountain car on an n_pos x n_vel grid of (position,
    velocity) cells with 3 thrust actions; crossing the goal position ends
    the episode in a zero-reward absorbing state, every other step pays
    -0.01.  Each decision integrates `substeps` physics steps so momentum
    changes cross cell boundaries despite the coarse grid."""
    if n_pos < 2 or n_vel < 2:
        raise ValueError("need n_pos >= 2 and n_vel >= 2")
    pos = np.linspace(-1.2, 0.6, n_pos)
    vel = np.linspace(-0.07, 0.07, n_vel)
    S, A = n_pos * n_vel + 1, 3
    term = S - 1
    target = np.full((S, A), term)
    R = np.full((S, A), -0.01)
    for i in range(n_pos):
        for j in range(n_vel):
            s = i * n_vel + j
            for a in range(A):
                p, v = pos[i], vel[j]
                for _ in range(substeps):
                    v = np.clip(v + 0.001 * (a - 1) - 0.0025 * np.cos(3 * p), -0.07, 0.07)
                    p = np.clip(p + v, -1.2, 0.6)
                    if p <= -1.2:
                        v = 0.0   # left wall stops the car
                    if p >= 0.5:
                        break     # crossed the goal: the target stays term
                else:
                    target[s, a] = np.abs(pos - p).argmin() * n_vel + np.abs(vel - v).argmin()
    R[term, :] = 0.0
    start_cell = int(np.abs(pos + 0.5).argmin()) * n_vel + int(np.abs(vel).argmin())
    eps = 1e-7
    mu0 = np.full(S, eps)
    mu0[start_cell] = 1.0 - eps * (S - 1)
    pn = (pos - pos.min()) / (pos.max() - pos.min())
    vn = (vel - vel.min()) / (vel.max() - vel.min())
    coords = np.array([[pn[i], vn[j]] for i in range(n_pos) for j in range(n_vel)]
                      + [[1.2, 0.5]])   # terminal sits just past the goal edge
    return TabularMdp(transition=_deterministic(target), start=mu0, gamma=gamma,
                      state_embed=coords, action_embed=np.eye(A), true_reward=R)


_BUILDERS = {
    "gridworld": make_gridworld,
    "chain": make_chain,
    "cliff": make_cliff,
    "mountain_car": make_mountain_car,
}


def build_environment(spec: dict) -> TabularMdp:
    """Build a TabularMdp from {"name": ..., **params}.  Raises ValueError
    for a name that is not a string, an unknown name, a parameter the
    builder does not take, a size (a parameter whose default is an int) that
    is not an integer, a parameter whose default is None that is not an
    integer or None, and a parameter whose default is a float that is not a
    finite real.  Booleans are none of these."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValueError("environment spec must be a dict with a 'name' key")
    if not isinstance(spec["name"], str):
        raise ValueError(f"environment name (env.name) must be a string, got {spec['name']!r}")
    params = {k: v for k, v in spec.items() if k != "name"}
    try:
        builder = _BUILDERS[spec["name"]]
    except KeyError:
        raise ValueError(f"unknown environment {spec['name']!r}; "
                         f"available: {sorted(_BUILDERS)}") from None
    taken = inspect.signature(builder).parameters
    for key, value in params.items():
        if key not in taken:
            raise ValueError(f"environment {spec['name']!r} takes no parameter {key!r}; "
                             f"it takes {sorted(taken)}")
        default = taken[key].default
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        integral = real and isinstance(value, numbers.Integral)
        if type(default) is int and not integral:
            raise ValueError(f"environment size {key} must be an integer, got {value!r}")
        if default is None and not (integral or value is None):
            raise ValueError(f"environment parameter {key} must be an integer or null, "
                             f"got {value!r}")
        if type(default) is float and not (real and math.isfinite(value)):
            raise ValueError(f"environment parameter {key} must be a finite real, got {value!r}")
    return builder(**params)


def rollout_fixed(mdp: TabularMdp, policy: SoftmaxPolicy, n: int, length: int,
                  seed: int = 0) -> Rollouts:
    """Plain chain rollouts of exactly `length` steps (no geometric restart),
    the way demonstrations are collected, as one Rollouts batch.  Row i of
    one (n, 1 + 2 * length) uniform block drives rollout i: its start, then
    per step its action and its next state (the last of which goes unused)."""
    n, length = check_count(n, "n"), check_count(length, "length")
    mdp.check_policy(policy)
    u = np.random.default_rng(seed).random((n, 1 + 2 * length))
    states = np.empty((n, length), dtype=np.int64)
    actions = np.empty((n, length), dtype=np.int64)
    s = np.minimum(np.searchsorted(mdp.start.cumsum(), u[:, 0]), mdp.n_states - 1)
    for t in range(length):
        a = policy.draw_actions(s, u[:, 1 + 2 * t])
        states[:, t], actions[:, t] = s, a
        s = next_states(mdp, s, a, u[:, 2 + 2 * t])
    return Rollouts(lengths=np.full(n, length), restarted=np.zeros(n, dtype=bool),
                    states=states.ravel(), actions=actions.ravel())


def make_expert(mdp: TabularMdp, lambda_expert: float = 0.01, n_traj: int = 1,
                traj_len: int = 50, seed: int = 0):
    """Soft-value-iteration expert on the true reward plus seeded
    fixed-length demonstrations.  Returns (expert_policy, demonstrations)."""
    if mdp.true_reward is None:
        raise ValueError("make_expert needs an MDP with a true reward")
    if n_traj < 1 or traj_len < 1:
        raise ValueError("n_traj and traj_len must be >= 1")
    expert = soft_value_iteration(mdp, mdp.true_reward, lam=lambda_expert)
    demos = rollout_fixed(mdp, expert, n_traj, traj_len, seed=seed)
    return expert, demos


@dataclass(frozen=True)
class EvalResult:
    """Cumulative-true-reward statistics with the affine rescaling that maps
    the random-policy reference to 0 and the expert reference to 1."""

    mean: float
    std: float
    scaled: float


def episode_returns(mdp: TabularMdp, policy: SoftmaxPolicy, n: int,
                    seed: int = 0) -> np.ndarray:
    """Per-trajectory discounted sums of true reward over fixed-horizon
    rollouts.  The horizon is long enough that the truncated tail is below
    1e-6, so the mean estimates <r, rho>/(1-gamma); fixing the length keeps
    the variance far below that of geometric-restart episodes."""
    if mdp.true_reward is None:
        raise ValueError("evaluation needs an MDP with a true reward")
    n = check_count(n, "n")
    mdp.check_policy(policy)
    horizon = default_max_len(mdp.gamma)
    rng = np.random.default_rng(seed)
    reward = mdp.true_reward.ravel()
    s = np.minimum(np.searchsorted(mdp.start.cumsum(), rng.random(n)), mdp.n_states - 1)
    returns = np.zeros(n)
    disc = 1.0
    for _ in range(horizon):
        a = policy.draw_actions(s, rng.random(n))
        returns += disc * reward[s * mdp.n_actions + a]
        disc *= mdp.gamma
        s = next_states(mdp, s, a, rng.random(n))
    return returns


def reference_returns(mdp: TabularMdp, expert_policy: SoftmaxPolicy,
                      n_ref: int = 500, seed: int = 0):
    """Expert and random-policy reference means under the same protocol."""
    expert_ref = float(episode_returns(mdp, expert_policy, n_ref, seed=seed).mean())
    random_policy = SoftmaxPolicy.uniform(mdp.n_states, mdp.n_actions)
    random_ref = float(episode_returns(mdp, random_policy, n_ref, seed=seed + 1).mean())
    return expert_ref, random_ref


def evaluate(mdp: TabularMdp, policy: SoftmaxPolicy, n_eval: int = 500,
             seed: int = 0, expert_ref: float = 1.0, random_ref: float = 0.0) -> EvalResult:
    """Monte-Carlo evaluation over n_eval episodes; scaled score is
    (mean - random_ref) / (expert_ref - random_ref)."""
    if abs(expert_ref - random_ref) < 1e-12:
        raise ValueError("degenerate scaling: expert and random references coincide")
    returns = episode_returns(mdp, policy, n_eval, seed=seed)
    mean = float(returns.mean())
    return EvalResult(mean=mean, std=float(returns.std(ddof=1)) if n_eval > 1 else 0.0,
                      scaled=(mean - random_ref) / (expert_ref - random_ref))
