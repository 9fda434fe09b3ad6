"""Comparison baselines sharing the policy-optimization stack.

GAIL trains a discriminator D(s, a) by ascending
    E_expert[log(1 - D)] + E_policy[log D]
and feeds the policy the surrogate reward -log D; behavior cloning takes
the maximum-likelihood policy of the demonstrated pairs in closed form, with
no environment interaction.
"""

from __future__ import annotations

import numpy as np

from . import rewards
from .config import RunConfig
from .mdp import SoftmaxPolicy, TabularMdp, policy_from_occupancy, state_action_embeddings
from .training import adversarial_train, expert_occupancy

PROB_CLAMP = 1e-6


def disc_probs(logits) -> np.ndarray:
    """D = sigmoid(logits), clamped to [1e-6, 1 - 1e-6]."""
    return np.clip(1.0 / (1.0 + np.exp(-logits)), PROB_CLAMP, 1.0 - PROB_CLAMP)


def _batch_probs(logit: rewards.PotentialModel, indices, embed_table):
    embeds = rewards.support_embeds(logit, embed_table, indices)
    return disc_probs(rewards.support_values(logit, indices, embeds)), embeds


def gail_objective(logit: rewards.PotentialModel, expert_batch, policy_batch,
                   embed_table: np.ndarray) -> float:
    """E_expert[log(1 - D)] + E_policy[log D] at the current parameters.
    Each batch is an (indices, weights) pair over the flat state-action
    set; `embed_table` holds the embeddings of that set."""
    (e_idx, e_w), (p_idx, p_w) = expert_batch, policy_batch
    (d_e, _), (d_p, _) = (_batch_probs(logit, idx, embed_table) for idx in (e_idx, p_idx))
    return float(e_w @ np.log(1.0 - d_e) + p_w @ np.log(d_p))


def gail_discriminator_step(logit: rewards.PotentialModel, expert_batch, policy_batch,
                            embed_table: np.ndarray, lr: float):
    """One ascent step of the discriminator objective on its logit model.
    The gradient uses the exact sigmoid derivatives (d/df log D = 1 - D on
    the policy side, d/df log(1 - D) = -D on the expert side).  Returns the
    stepped copy and gail_objective at `logit`, read off the same
    probabilities."""
    if lr <= 0:
        raise ValueError("lr must be > 0")
    (e_idx, e_w), (p_idx, p_w) = expert_batch, policy_batch
    (d_e, e_x), (d_p, p_x) = (_batch_probs(logit, idx, embed_table) for idx in (e_idx, p_idx))
    grad = (rewards.accumulate_param_grad(logit, e_idx, e_x, -e_w * d_e)
            + rewards.accumulate_param_grad(logit, p_idx, p_x, p_w * (1.0 - d_p)))
    new = logit.copy()
    new.params = new.params + lr * grad
    return new, float(e_w @ np.log(1.0 - d_e) + p_w @ np.log(d_p))


def gail_reward_matrix(logit: rewards.PotentialModel, mdp: TabularMdp) -> np.ndarray:
    """-log D over the full S x A index set."""
    return -np.log(disc_probs(rewards.reward_matrix(logit, mdp)))


class DiscriminatorStep:
    """GAIL's reward step: one ascent step of the discriminator objective
    on the round's batches; the policy step uses -log D.  The reward model
    carried by the loop is the discriminator's logit, and the logged
    objective is the one at the round's starting logit, which the step
    computes anyway (as WAIL logs its dual's)."""

    algorithm = "gail"
    salt = 0x6A11

    def __init__(self, mdp: TabularMdp, config: RunConfig):
        self.mdp, self.config = mdp, config
        self.embed_table = state_action_embeddings(mdp)

    def __call__(self, model, policy_batch, expert_batch):
        # the objective's expectations take each batch's weights normalized
        policy_batch, expert_batch = [(idx, w / w.sum()) for idx, w in (policy_batch, expert_batch)]
        model, objective = gail_discriminator_step(model, expert_batch, policy_batch,
                                                   self.embed_table, self.config.disc_lr)
        return model, objective, gail_reward_matrix(model, self.mdp)

    def finish(self, state):
        return state.model, {}


def train_gail(mdp: TabularMdp, expert_data, config: RunConfig):
    """GAIL: the adversarial loop with the discriminator step in place of the
    OT reward ascent; the policy maximizes -log D under the same
    KL-constrained natural-gradient updates.  The discriminator is its logit
    model, D = sigmoid(logit).  Returns (policy, logit model, log), whose rows
    carry each round's true_return (see training.wail_iteration)."""
    return adversarial_train(mdp, expert_data, config, DiscriminatorStep(mdp, config))


def train_bc(mdp: TabularMdp, expert_data) -> SoftmaxPolicy:
    """Behavior cloning: the demonstration log-likelihood's maximizer in closed
    form, policy_from_occupancy of the expert's empirical measure (each visited
    state's action frequencies, floored; uniform at unvisited states).
    `expert_data` is anything expert_occupancy accepts."""
    return policy_from_occupancy(expert_occupancy(expert_data, mdp))
