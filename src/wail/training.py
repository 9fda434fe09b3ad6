"""Adversarial imitation training loop, shared by WAIL and GAIL.

Each round draws policy/expert batches (or exact measures), updates the
reward with the algorithm's reward step, freezes it, and takes one
KL-constrained natural-gradient policy step, its sampled gradient read off
episodes of the policy batch's one sampler call.  WAIL's step ascends the
regularized OT dual through the reward parameters; after the last round,
exact mode continues the same ascent against the returned policy, so the
returned reward is the potential fitted to that policy.  GAIL's
discriminator step lives in `baselines`.  Both reward steps hand the
policy step an (S, A) reward matrix.  Each round returns its log row, the
run's only per-round record, ending with the exact true return of the
policy it returns.  The loop state holds the policy, which keeps its own
flow record and solved occupancy (see mdp).
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import ot, rewards
from .config import RunConfig
from .mdp import (OccupancyMeasure, Rollouts, SoftmaxPolicy, TabularMdp, expected_reward,
                  occupancy_from_policy, sample_trajectories, save_policy, unchecked)
from .trust_region import entropy_reg_policy_gradient, kl_constrained_step, weighted_kl

FINAL_FIT_STEPS = 200      # reward ascent steps against the returned policy
PG_EPISODES = 256          # restart-chain episodes per sampled policy gradient

LOG_COLUMNS = ("iteration", "objective", "policy_surrogate", "kl_step",
               "entropy", "true_return")


@dataclass
class RunLog:
    """Per-iteration metrics plus run metadata, persisted as a CSV and a
    JSON header file."""

    meta: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def append(self, **kwargs) -> None:
        self.rows.append({c: kwargs.get(c) for c in LOG_COLUMNS})

    def column(self, name: str) -> np.ndarray:
        return np.asarray([r[name] for r in self.rows if r[name] is not None], dtype=np.float64)

    def save(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
            json.dump(self.meta, fh, indent=2)
        with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LOG_COLUMNS)
            for r in self.rows:
                w.writerow(["" if r[c] is None else repr(float(r[c])) if isinstance(r[c], float)
                            else r[c] for c in LOG_COLUMNS])

    @classmethod
    def load(cls, out_dir: str) -> "RunLog":
        with open(os.path.join(out_dir, "run_meta.json")) as fh:
            meta = json.load(fh)
        with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
            rows = [{c: None if rec[c] == "" else (int if c == "iteration" else float)(rec[c])
                     for c in LOG_COLUMNS} for rec in csv.DictReader(fh)]
        return cls(meta=meta, rows=rows)


def expert_occupancy(expert_data, mdp: TabularMdp) -> OccupancyMeasure:
    """The expert's empirical measure: the normalized counts of the pairs
    of a Rollouts batch or an integer (k, 2) array, or a given (oracle)
    occupancy renormalized."""
    S, A = mdp.n_states, mdp.n_actions
    if isinstance(expert_data, OccupancyMeasure):
        if expert_data.rho.shape != (S, A):
            raise ValueError("expert occupancy shape does not match MDP")
        return OccupancyMeasure(expert_data.rho / expert_data.rho.sum())
    pairs = expert_data.pairs() if isinstance(expert_data, Rollouts) else expert_data
    if not (isinstance(pairs, np.ndarray) and pairs.ndim == 2 and pairs.shape[1] == 2):
        raise ValueError("expert data must be an occupancy, a Rollouts batch or a (k, 2) array")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError("expert pairs must be an integer array")
    if pairs.shape[0] == 0:
        raise ValueError("expert data must be non-empty")
    if pairs.min() < 0 or pairs[:, 0].max() >= S or pairs[:, 1].max() >= A:
        raise ValueError("expert pairs out of MDP bounds")
    w = np.bincount(pairs[:, 0].astype(np.int64) * A + pairs[:, 1], minlength=S * A)
    return OccupancyMeasure((w / w.sum()).reshape(S, A))


@dataclass
class WailState:
    """Loop state: round counter, reward model and policy."""

    k: int
    model: rewards.PotentialModel
    policy: SoftmaxPolicy


def _policy_side(policy: SoftmaxPolicy, mdp: TabularMdp, config: RunConfig,
                 rng: np.random.Generator):
    """The round's policy batch, (support indices, weights), and the
    episodes of a sampled gradient (else None).  Sampled parts come from one
    sample_trajectories call: its first max(1, l1 // 8) episodes give the
    batch's l1 pairs, topped up by further calls (seed + 1, ...) in the rare
    round they fall short, and the next PG_EPISODES, disjoint from the
    batch, feed the gradient.  The policy's exact occupancy otherwise."""
    n_batch = max(1, config.l1 // 8) if config.sampling == "sampled" else 0
    n_grad = PG_EPISODES if config.pg_mode == "sampled" else 0
    grad_batch = None
    if n_batch + n_grad:
        seed = int(rng.integers(0, 2 ** 63 - 1))
        episodes = sample_trajectories(mdp, policy, n_batch + n_grad, seed=seed)
        grad_batch = episodes.subset(n_batch, n_batch + n_grad) if n_grad else None
    if not n_batch:
        w = occupancy_from_policy(mdp, policy).flat()
        return (np.arange(w.size), w / w.sum()), grad_batch
    batch = episodes.subset(0, n_batch)
    flat = [batch.states * mdp.n_actions + batch.actions]
    while (need := config.l1 - sum(f.size for f in flat)) > 0:
        seed += 1
        batch = sample_trajectories(mdp, policy, max(1, need // 8), seed=seed)
        flat.append(batch.states * mdp.n_actions + batch.actions)
    flat = np.concatenate(flat)[:config.l1]
    return (flat, np.full(config.l1, 1.0 / config.l1)), grad_batch


def _expert_batch(expert: OccupancyMeasure, config: RunConfig, rng=None):
    """The round's expert batch, (indices, weights): the measure's support and
    its weights there renormalized, or l2 equal-weight draws from it (sampled)."""
    w = expert.flat()
    if config.sampling == "exact":
        sup = np.flatnonzero(w)
        return sup, w[sup] / w[sup].sum()
    return rng.choice(w.size, size=config.l2, p=w), np.full(config.l2, 1.0 / config.l2)


class OtDualStep:
    """WAIL's reward step: ascend the regularized OT dual through the reward
    parameters on the round's batches; the policy step reads the ascended
    potential's (S, A) reward matrix.  `finish` fits the reward to the
    final policy.

    The cost block covers only the round's batch points, never S*A x S*A.
    Exact-mode batches always pair every state-action point with the expert
    support, so the block is built in the first round and serves every round
    and the final fit, and so does its l2 screen (`ot.DualScreen`, which
    states the pairs a pass may skip), which also counts the run's passes
    over the block; a 20-round S = 900 run walks the whole block once.
    Sampled mode builds a new block every round, which no later fit reads,
    so it keeps no screen and every pass walks its round's whole block.
    It builds its pairs of the loop's normalized weights `unchecked`.  One
    instance serves one run."""

    algorithm = "wail"
    salt = 0x57A1

    def __init__(self, mdp: TabularMdp, config: RunConfig):
        self.mdp, self.config = mdp, config
        self.reg = ot.DualRegularization(config.reg_kind, config.epsilon)
        self.block = None      # the last round's cost block
        # the exact block's screen and the run's pass counts; None when sampled
        self.screen = ot.DualScreen() if config.sampling == "exact" else None
        self.target = None     # the last round's expert-side weights
        self.clamps = 0        # entropic exponents clamped so far in the run

    def __call__(self, model, policy_batch, expert_batch):
        (src_idx, src_w), (tgt_idx, tgt_w) = policy_batch, expert_batch
        if self.block is None or self.config.sampling != "exact":
            self.block = ot.build_ground_metric(self.mdp, src_index=src_idx, tgt_index=tgt_idx)
        pair = unchecked(ot.DiscreteMeasurePair, source=src_w, target=tgt_w)
        self.target = pair.target
        model, objective, clamps = ot.reg_ot_fit(pair, self.block, self.reg, model,
                                                 steps=self.config.ot_inner_steps,
                                                 lr=self.config.ot_lr, screen=self.screen)
        self.clamps += clamps
        return model, objective, rewards.reward_matrix(model, self.mdp)

    def finish(self, state: WailState):
        """Continue the reward ascent against the exact occupancy of
        state.policy (kept since the line search that accepted it solved
        it), with the loop's epsilon, learning rate and cost block,
        so the reward fits the policy it is returned with instead of
        sitting one step past the previous round's.  Runs FINAL_FIT_STEPS
        full-batch steps, capped at the loop's own k * ot_inner_steps: the
        fit at most doubles the ascent's cost, and k = 0 returns the initial
        model.  Sampled mode keeps the loop's model.  Returns (model,
        run_meta entries): the steps run, the objective after the fit (None
        when no step ran; one more pass computes it), the entropic clamp
        events and the passes over the cost blocks of the run, how many of
        those walked the whole block (all of them in sampled mode) and how
        many were served after refreshing the screen (none in sampled
        mode)."""
        steps = (min(FINAL_FIT_STEPS, state.k * self.config.ot_inner_steps)
                 if self.config.sampling == "exact" else 0)
        model, objective = state.model, None
        if steps:
            w = occupancy_from_policy(self.mdp, state.policy).flat()
            pair = unchecked(ot.DiscreteMeasurePair, source=w / w.sum(), target=self.target)
            model, _, fit_clamps = ot.reg_ot_fit(pair, self.block, self.reg, model, steps=steps,
                                                 lr=self.config.ot_lr, screen=self.screen)
            _, objective, value_clamps = ot.reg_ot_fit(pair, self.block, self.reg, model, steps=0,
                                                       lr=self.config.ot_lr, screen=self.screen)
            self.clamps += fit_clamps + value_clamps
            if not math.isfinite(objective):
                raise ot.DivergenceError("objective diverged in the final reward fit")
        if self.screen is None:
            passes = rebuilds = state.k * self.config.ot_inner_steps
            refreshes = 0
        else:
            passes, rebuilds = self.screen.passes, self.screen.rebuilds
            refreshes = self.screen.refreshes
        return model, {"final_fit_steps": steps, "final_fit_objective": objective,
                       "entropic_clamp_events": self.clamps, "ot_passes": passes,
                       "ot_screen_rebuilds": rebuilds, "ot_screen_refreshes": refreshes}


def wail_iteration(state: WailState, mdp: TabularMdp, expert_data, config: RunConfig,
                   reward_step, expert_batch=None) -> tuple[WailState, dict]:
    """One adversarial round: draw both batches, update the reward with
    `reward_step`, then take the KL-constrained policy step against the
    reward it returns.  The batch, the gradient, the step and the logged
    KL read the current policy's occupancy, kept on its flow record with
    the value solve's system; the line search returns the next policy,
    whose occupancy it solved, so each policy is solved once.  The expert
    is expert_occupancy(expert_data).
    Only a round that samples seeds a generator, by (config.seed, round,
    reward_step.salt), and draws the sampler seed, then the expert batch;
    an exact round draws nothing and uses the run's `expert_batch` if given.
    A non-finite objective, policy gradient or surrogate (a non-finite
    reward makes the surrogate so) raises ot.DivergenceError naming the
    round's iteration.  Returns the next state and the round's log row, one
    entry per LOG_COLUMNS: its true_return, the next policy's exact return
    <R, rho> / (1 - gamma) under mdp.true_reward (None without one), reads
    the occupancy the round already solved, for the log only."""
    rng = (np.random.default_rng([config.seed, state.k, reward_step.salt])
           if "sampled" in (config.sampling, config.pg_mode) else None)
    policy_batch, grad_batch = _policy_side(state.policy, mdp, config, rng)
    if expert_batch is None:
        expert_batch = _expert_batch(expert_occupancy(expert_data, mdp), config, rng)
    model, objective, reward = reward_step(state.model, policy_batch, expert_batch)
    if not math.isfinite(objective):
        raise ot.DivergenceError(f"objective diverged at round {state.k + 1}")

    report = entropy_reg_policy_gradient(mdp, state.policy, reward,
                                         lam=config.lambda_entropy, batch=grad_batch)
    if not (math.isfinite(report.surrogate_value) and np.isfinite(report.gradient).all()):
        raise ot.DivergenceError(f"non-finite reward or policy gradient at round {state.k + 1}")
    delta = config.delta0 / (state.k + 1) ** config.delta_decay
    policy = kl_constrained_step(mdp, state.policy, report, delta)
    row = {"iteration": state.k + 1, "objective": objective,
           "policy_surrogate": report.surrogate_value,
           "kl_step": weighted_kl(mdp, state.policy, policy),
           "entropy": report.entropy,
           "true_return": (None if mdp.true_reward is None else
                           expected_reward(occupancy_from_policy(mdp, policy), mdp.true_reward)
                           / (1.0 - mdp.gamma))}
    return WailState(state.k + 1, model, policy), row


def _maybe_checkpoint(state: WailState, config: RunConfig) -> None:
    if not config.out_dir or config.checkpoint_every <= 0 or state.k % config.checkpoint_every != 0:
        return
    ck = os.path.join(config.out_dir, "checkpoints")
    os.makedirs(ck, exist_ok=True)
    save_policy(os.path.join(ck, f"iter_{state.k:06d}_policy.json"), state.policy)
    rewards.save_model(os.path.join(ck, f"iter_{state.k:06d}_reward.json"), state.model)


def adversarial_train(mdp: TabularMdp, expert_data, config: RunConfig, reward_step):
    """The adversarial loop shared by WAIL and GAIL.  Runs `wail_iteration`
    with `reward_step` for k_max rounds (or until the last early_stop_window
    objectives span <= early_stop_tol * (1 + |last|)), then the end-of-run hook
    `reward_step.finish(state)`, which returns the final reward model
    and its run_meta entries.  A divergence (see wail_iteration and
    ot.reg_ot_fit) aborts the run with ot.DivergenceError carrying the
    partial log as `log`.  The expert is expert_occupancy(expert_data).

    A reward step is called as step(model, policy_batch, expert_batch),
    each batch an (indices, weights) pair over the flat state-action set,
    and returns (model, objective, (S, A) reward matrix), the objective
    being the round's at the model it was given, on the round's batches,
    the value its first ascent step starts from; it names its
    `algorithm` and its round-generator `salt`.

    With config.out_dir set, writes only the checkpoints; run_single
    writes the final files.  Returns (policy, reward model, log), the policy
    a fresh copy: the last flow record (an LU factor on large MDPs) is
    freed with the loop.
    Deterministic given config.seed."""
    expert = expert_occupancy(expert_data, mdp)
    S, A = mdp.n_states, mdp.n_actions
    width = mdp.state_embed.shape[1] + mdp.action_embed.shape[1]
    dims = {"tabular": (S * A,), "linear": (width,),
            "mlp": (width, *config.mlp_hidden)}[config.model_form]
    state = WailState(k=0, model=rewards.create_model(config.model_form, dims, config.seed),
                      policy=SoftmaxPolicy.uniform(S, A))
    log = RunLog(meta={"algorithm": reward_step.algorithm, "config": config.to_dict(),
                       "n_states": S, "n_actions": A})
    expert_batch = _expert_batch(expert, config) if config.sampling == "exact" else None
    window = deque(maxlen=config.early_stop_window)
    try:
        for _ in range(config.k_max):
            state, row = wail_iteration(state, mdp, expert, config, reward_step, expert_batch)
            log.append(**row)
            _maybe_checkpoint(state, config)
            window.append(row["objective"])
            if len(window) == window.maxlen and (max(window) - min(window) <= config.early_stop_tol
                                                 * (1.0 + abs(row["objective"]))):
                log.meta["early_stop_iteration"] = state.k
                break
        model, final_meta = reward_step.finish(state)
    except ot.DivergenceError as err:
        log.meta["diverged"] = str(err)
        err.log = log
        raise
    log.meta["iterations_run"] = state.k
    log.meta.update(final_meta)
    return SoftmaxPolicy(state.policy.logits), model, log


def train_wail(mdp: TabularMdp, expert_data, config: RunConfig):
    """WAIL: the adversarial loop with the OT-dual reward step, whose
    returned reward is the potential fitted to the final policy
    (`OtDualStep.finish`).  Returns (policy, reward model, log), whose rows
    carry each round's true_return (see wail_iteration)."""
    return adversarial_train(mdp, expert_data, config, OtDualStep(mdp, config))
