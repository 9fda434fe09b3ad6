"""Entropy-regularized policy gradients and KL-constrained natural
gradient steps for softmax policies on tabular MDPs.

The surrogate being ascended at each round is <c, rho_theta> with the frozen
per-step payoff c = r_hat - lam * log pi_old; its gradient is computed
exactly from the occupancy linear solves (default) or estimated from the
restart-chain episodes the caller hands in (the training loop draws them
with the round's policy batch); its value is exact in both modes.  Steps
are natural-gradient directions, the closed-form solve of the damped
occupancy-weighted softmax Fisher, with a backtracking line search that
enforces the KL bound and exact-surrogate non-decrease.

Every exact solve goes through the flow record the policy keeps (see
mdp.occupancy_from_policy).  The line search gives one only to the
candidates passing its KL check, and the accepted one keeps it into the
next round, so each policy is solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import (Rollouts, SoftmaxPolicy, TabularMdp, action_values, causal_entropy,
                  occupancy_from_policy, unchecked)

GRAD_NORM_FLOOR = 1e-10
FISHER_DAMPING = 1e-3   # makes the Fisher invertible along each state's constant direction
BACKTRACK_COEF = 0.5    # the line search scales the step by this per backtrack,
MAX_BACKTRACKS = 10     # at most this many times


@dataclass(frozen=True)
class StepSchedule:
    """KL budget per round, delta_k = delta0 / k^decay.

    sqrt-summability over rounds (needed for a Cauchy objective trace) holds
    whenever decay > 2.
    """

    delta0: float
    decay: float = 0.0

    def __post_init__(self):
        # delta0 = 0 is the degenerate frozen-policy schedule
        if self.delta0 < 0:
            raise ValueError("delta0 must be >= 0")
        if self.decay < 0:
            raise ValueError("decay must be >= 0")

    def delta(self, k: int) -> float:
        """KL bound for round k (1-based)."""
        if k < 1:
            raise ValueError("round index must be >= 1")
        return self.delta0 / k ** self.decay

    def sqrt_sum(self, horizon: int) -> float:
        """Direct partial sum of sqrt(delta_k) up to the horizon."""
        k = np.arange(1, horizon + 1, dtype=np.float64)
        return float(np.sqrt(self.delta0 / k ** self.decay).sum())


@dataclass
class PolicyGradientReport:
    """Gradient (exact or sampled) and exact value of the frozen-payoff
    surrogate at the current policy, with the step's other diagnostics."""

    gradient: np.ndarray        # flat over logits, length S*A
    surrogate_value: float
    entropy: float
    cost: np.ndarray            # frozen per-step payoff c = r_hat - lam*log pi_old


def surrogate_value(mdp: TabularMdp, policy: SoftmaxPolicy, cost: np.ndarray) -> float:
    """<c, rho_pi> for a frozen payoff matrix c."""
    return float((occupancy_from_policy(mdp, policy).rho * cost).sum())


def weighted_kl(mdp: TabularMdp, old: SoftmaxPolicy, new: SoftmaxPolicy) -> float:
    """KL(pi_new || pi_old) per state, weighted by the old policy's state
    occupancy."""
    d = occupancy_from_policy(mdp, old).state_marginal()
    per_state = (new.probs * (new.log_probs - old.log_probs)).sum(axis=1)
    return float(d @ per_state)


def entropy_reg_policy_gradient(mdp: TabularMdp, policy: SoftmaxPolicy, reward: np.ndarray,
                                lam: float = 0.0,
                                batch: Rollouts | None = None) -> PolicyGradientReport:
    """Gradient of <r_hat - lam*log pi_old, rho_theta> at theta = current.

    `reward` is an (S, A) matrix treated as fixed.  With no batch, the
    exact policy-gradient identity
        grad[s, a] = d(s) pi(a|s) (Q_c(s, a) - V_c(s))
    with Q_c/V_c from policy-evaluation linear solves; with a Rollouts
    batch of the policy's restart-chain episodes, the score-function
    estimate over them (see _score_function_sums).  The value is exact in
    both modes, <c, rho> as surrogate_value computes it.  The policy's flow
    record serves the value solve and keeps rho, which also weights the
    gradient and the causal entropy, solved by the first read.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    S, A = mdp.n_states, mdp.n_actions
    if np.shape(reward) != (S, A):
        raise ValueError(f"reward must be an (S, A) matrix, got shape {np.shape(reward)}")
    cost = np.asarray(reward, dtype=np.float64) - lam * policy.log_probs
    pi = policy.probs
    rho = occupancy_from_policy(mdp, policy)
    value = float((rho.rho * cost).sum())
    if batch is None:
        Q, V = action_values(mdp, policy, cost)
        grad = rho.state_marginal()[:, None] * pi * (Q - V[:, None])
    else:
        if batch.states.max() >= S or batch.actions.max() >= A:
            raise ValueError(f"batch states and actions must lie inside the MDP's "
                             f"{S} states and {A} actions")
        grad = _score_function_sums(batch, cost, pi) * ((1.0 - mdp.gamma) / len(batch))
    return PolicyGradientReport(gradient=grad.ravel(), surrogate_value=value,
                                entropy=causal_entropy(mdp, policy), cost=cost)


def _score_function_sums(batch: Rollouts, cost: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Sum over episodes of sum_t togo_t * (e_{s_t, a_t} - pi(.|s_t)), the
    softmax score function weighted by the payoff-to-go.

    Reward-to-go is one cumsum along the contiguous axis of an (n, T)
    episode-by-step buffer holding each episode's payoffs last step first,
    zero-padded in front.  The gradient is two bincounts, the payoff-to-go
    summed at each (s_t, a_t) and at each s_t, the second times pi(.|s):
    each entry sums its terms in batch order, as a per-episode np.add.at
    does."""
    S, A = pi.shape
    s, a, lengths = batch.states, batch.actions, batch.lengths
    episode = np.repeat(np.arange(len(batch)), lengths)
    back = lengths.max() - 1 - (np.arange(s.size) - np.repeat(batch.starts, lengths))
    buf = np.zeros((len(batch), lengths.max()))
    buf[episode, back] = cost[s, a]
    togo = np.cumsum(buf, axis=1)[episode, back]
    return (np.bincount(s * A + a, weights=togo, minlength=S * A).reshape(S, A)
            - np.bincount(s, weights=togo, minlength=S)[:, None] * pi)


def _natural_direction(d: np.ndarray, pi: np.ndarray, g: np.ndarray,
                       damping: float) -> np.ndarray:
    """Solve F v = g exactly for the damped occupancy-weighted softmax Fisher.

    F is block-diagonal over states, F_s = d_s (diag pi_s - pi_s pi_s^T)
    + damping I, a rank-one update of the diagonal D_s = diag(d_s pi_s +
    damping), so Sherman-Morrison inverts each block:
        v_s = D_s^-1 g_s + d_s w_s (w_s . g_s) / (1 - d_s w_s . pi_s),
    with w_s = D_s^-1 pi_s.  Because sum_a pi_s = 1 the denominator equals
    damping * sum_a w_s, positive whenever damping > 0; written that way it
    does not cancel as damping -> 0."""
    G = g.reshape(pi.shape)
    diag = d[:, None] * pi + damping
    w = pi / diag
    coef = d * (w * G).sum(axis=1) / (damping * w.sum(axis=1))
    return (G / diag + coef[:, None] * w).ravel()


def kl_constrained_step(mdp: TabularMdp, policy: SoftmaxPolicy,
                        report: PolicyGradientReport, delta: float) -> SoftmaxPolicy:
    """One trust-region update of `policy`: natural-gradient direction
    scaled to the KL budget, then backtracking until the measured
    occupancy-weighted KL(new || old) is within delta and the exact
    surrogate has not decreased.  Returns the accepted candidate, or
    `policy` itself when none qualifies, when delta = 0 or when the
    gradient is negligible.  The old policy's occupancy serves the Fisher,
    damped by FISHER_DAMPING, and every KL check.  Candidates are built
    `unchecked`: the caller checks the gradient (see wail_iteration)."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    g = report.gradient
    if delta == 0.0 or np.linalg.norm(g) < GRAD_NORM_FLOOR:
        return policy
    pi = policy.probs
    d = occupancy_from_policy(mdp, policy).state_marginal()
    v = _natural_direction(d, pi, g, FISHER_DAMPING)
    quad = v @ g
    beta = math.sqrt(2.0 * delta / quad)
    step = v.reshape(pi.shape)
    for t in range(MAX_BACKTRACKS + 1):
        logits = policy.logits + (beta * BACKTRACK_COEF ** t) * step
        candidate = unchecked(SoftmaxPolicy, logits=logits)
        if weighted_kl(mdp, policy, candidate) > delta:
            continue
        if surrogate_value(mdp, candidate, report.cost) >= report.surrogate_value:
            return candidate
    return policy
