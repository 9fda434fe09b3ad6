"""Comparison baselines sharing the policy-optimization stack.

GAIL trains a discriminator D(s, a) by ascending
    E_expert[log(1 - D)] + E_policy[log D]
and feeds the policy the surrogate reward -log D; behavior cloning fits the
policy to demonstrated pairs by maximum likelihood with no environment
interaction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import rewards
from .config import RunConfig
from .mdp import SoftmaxPolicy, TabularMdp, save_policy, state_action_embeddings
from .training import ExpertData, adversarial_train

PROB_CLAMP = 1e-6


@dataclass
class Discriminator:
    """Classifier D(s, a) = sigmoid(f(s, a)) with the same parametric forms
    as the reward models; outputs are clamped to [1e-6, 1 - 1e-6]."""

    logit: rewards.PotentialModel


def create_discriminator(form: str, dims: tuple, seed: int = 0) -> Discriminator:
    return Discriminator(rewards.create_model(form, dims, seed))


def disc_values(disc: Discriminator, indices, embeds) -> np.ndarray:
    f = rewards.support_values(disc.logit, indices, embeds)
    return np.clip(1.0 / (1.0 + np.exp(-f)), PROB_CLAMP, 1.0 - PROB_CLAMP)


@dataclass(frozen=True)
class SampleBatch:
    """Weighted support points of one side of the discriminator objective."""

    indices: np.ndarray
    embeds: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_flat(cls, flat_indices, weights, embed_table) -> "SampleBatch":
        idx = np.asarray(flat_indices, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if idx.size == 0:
            raise ValueError("batch must be non-empty")
        return cls(idx, embed_table[idx], w / w.sum())


def gail_objective(disc: Discriminator, expert_batch: SampleBatch,
                   policy_batch: SampleBatch) -> float:
    """E_expert[log(1 - D)] + E_policy[log D] at the current parameters."""
    d_e = disc_values(disc, expert_batch.indices, expert_batch.embeds)
    d_p = disc_values(disc, policy_batch.indices, policy_batch.embeds)
    return float(expert_batch.weights @ np.log(1.0 - d_e)
                 + policy_batch.weights @ np.log(d_p))


def gail_discriminator_step(disc: Discriminator, expert_batch: SampleBatch,
                            policy_batch: SampleBatch, lr: float) -> Discriminator:
    """One ascent step of the discriminator objective.  The gradient uses
    the exact sigmoid derivatives (d/df log D = 1 - D on the policy side,
    d/df log(1 - D) = -D on the expert side)."""
    if lr <= 0:
        raise ValueError("lr must be > 0")
    d_e = disc_values(disc, expert_batch.indices, expert_batch.embeds)
    d_p = disc_values(disc, policy_batch.indices, policy_batch.embeds)
    grad = (rewards.accumulate_param_grad(disc.logit, expert_batch.indices,
                                          expert_batch.embeds, -expert_batch.weights * d_e)
            + rewards.accumulate_param_grad(disc.logit, policy_batch.indices,
                                            policy_batch.embeds, policy_batch.weights * (1.0 - d_p)))
    new = disc.logit.copy()
    new.params = new.params + lr * grad
    return Discriminator(new)


def gail_surrogate_reward(disc: Discriminator, x) -> float:
    """-log D for one input (index for tabular, embedding otherwise)."""
    if disc.logit.form == "tabular":
        d = disc_values(disc, np.asarray([int(x)]), None)
    else:
        d = disc_values(disc, None, np.asarray(x, dtype=np.float64)[None, :])
    return float(-np.log(d[0]))


def gail_reward_matrix(disc: Discriminator, mdp: TabularMdp) -> np.ndarray:
    """-log D over the full S x A index set."""
    S, A = mdp.n_states, mdp.n_actions
    if disc.logit.form == "tabular":
        d = disc_values(disc, np.arange(S * A), None)
    else:
        d = disc_values(disc, None, state_action_embeddings(mdp))
    return (-np.log(d)).reshape(S, A)


class DiscriminatorStep:
    """GAIL's reward step: disc_inner_steps ascent steps of the discriminator
    objective on the round's batches; the policy step uses -log D.  The
    reward model carried by the loop is the discriminator's logit."""

    algorithm = "gail"
    salt = 0x6A11
    artifact = "discriminator_final.json"

    def __init__(self, mdp: TabularMdp, config: RunConfig):
        self.mdp, self.config = mdp, config
        self.embed_table = state_action_embeddings(mdp)

    def __call__(self, model, policy_batch, expert_batch, rng):
        policy_batch = SampleBatch.from_flat(*policy_batch, self.embed_table)
        expert_batch = SampleBatch.from_flat(*expert_batch, self.embed_table)
        disc = Discriminator(model)
        for _ in range(self.config.disc_inner_steps):
            disc = gail_discriminator_step(disc, expert_batch, policy_batch, self.config.disc_lr)
        return (disc.logit, gail_objective(disc, expert_batch, policy_batch),
                gail_reward_matrix(disc, self.mdp))

    def finish(self, state, mdp):
        return state.model, {}


def train_gail(mdp: TabularMdp, expert_data, config: RunConfig, eval_ctx=None):
    """GAIL: the adversarial loop with the discriminator step in place of the
    OT reward ascent; the policy maximizes -log D under the same
    KL-constrained natural-gradient updates.  Returns (policy, discriminator,
    log)."""
    policy, logit, log = adversarial_train(mdp, expert_data, config,
                                           DiscriminatorStep(mdp, config), eval_ctx)
    return policy, Discriminator(logit), log


def train_bc(mdp: TabularMdp, expert_data, config: RunConfig) -> SoftmaxPolicy:
    """Behavior cloning: full-batch gradient ascent on the demonstration
    log-likelihood (per-state averaged), from zero logits so unvisited
    states keep the uniform policy.  `expert_data` is anything
    ExpertData.from_any accepts.  With config.out_dir set, writes
    policy_final.json there."""
    counts = ExpertData.from_any(expert_data, mdp).weights.reshape(mdp.n_states, mdp.n_actions)
    visited = counts.sum(axis=1) > 0
    freq = counts[visited] / counts[visited].sum(axis=1, keepdims=True)
    theta = np.zeros(counts.shape)
    block = theta[visited]
    for _ in range(config.bc_steps):
        z = block - block.max(axis=1, keepdims=True)
        e = np.exp(z)
        pi = e / e.sum(axis=1, keepdims=True)
        block = block + config.bc_lr * (freq - pi)
    theta[visited] = block - block.max(axis=1, keepdims=True)
    policy = SoftmaxPolicy(theta)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        save_policy(os.path.join(config.out_dir, "policy_final.json"), policy)
    return policy
