"""Adversarial imitation training loop.

Each round ascends the regularized OT dual through the reward parameters on
fresh policy/expert samples (or exact measures), freezes the updated reward,
and takes one KL-constrained natural-gradient policy step.  After the last
round, exact mode continues the same ascent against the returned policy, so
the returned reward is the potential fitted to that policy.  The objective
trace is monitored for the Cauchy behavior the step schedule guarantees.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import ot, rewards
from .config import RunConfig
from .mdp import (OccupancyMeasure, SoftmaxPolicy, TabularMdp, Trajectory,
                  occupancy_from_policy, sample_trajectories, save_policy)
from .trust_region import (StepSchedule, entropy_reg_policy_gradient,
                           kl_constrained_step, schedule_delta, weighted_kl)

FINAL_FIT_STEPS = 200      # reward ascent steps against the returned policy

LOG_COLUMNS = ("iteration", "objective", "policy_surrogate", "kl_step",
               "entropy", "scaled_perf_eval")


class TrainingDiverged(RuntimeError):
    """Raised when a run aborts; carries the partial log."""

    def __init__(self, message: str, log: "RunLog"):
        super().__init__(message)
        self.log = log


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
                w.writerow(["" if r[c] is None else repr(r[c]) if isinstance(r[c], float) else r[c]
                            for c in LOG_COLUMNS])

    @classmethod
    def load(cls, out_dir: str) -> "RunLog":
        with open(os.path.join(out_dir, "run_meta.json")) as fh:
            meta = json.load(fh)
        rows = []
        with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
            for rec in csv.DictReader(fh):
                row = {}
                for c in LOG_COLUMNS:
                    v = rec[c]
                    row[c] = None if v == "" else (int(v) if c == "iteration" else float(v))
                rows.append(row)
        return cls(meta=meta, rows=rows)


@dataclass
class ExpertData:
    """Expert demonstrations in either form: raw state-action pairs from
    trajectories (sampled mode) or an exact occupancy measure (oracle mode).
    Both reduce to weights over the flat state-action index set."""

    weights: np.ndarray                 # (S*A,), sums to 1
    pairs: np.ndarray | None = None     # (k, 2) when built from trajectories

    @classmethod
    def from_any(cls, expert_data, mdp: TabularMdp) -> "ExpertData":
        S, A = mdp.n_states, mdp.n_actions
        if isinstance(expert_data, cls):
            return expert_data
        if isinstance(expert_data, OccupancyMeasure):
            if expert_data.rho.shape != (S, A):
                raise ValueError("expert occupancy shape does not match MDP")
            w = expert_data.flat().copy()
            return cls(weights=w / w.sum())
        if isinstance(expert_data, np.ndarray) and expert_data.ndim == 2 and expert_data.shape[1] == 2:
            pairs = expert_data.astype(np.int64)
        else:
            trajs = list(expert_data)
            if not trajs:
                raise ValueError("expert data must be non-empty")
            if not all(isinstance(t, Trajectory) for t in trajs):
                raise ValueError("expert data must be an occupancy, trajectories, or an (k, 2) array")
            pairs = np.concatenate([t.steps for t in trajs], axis=0)
        if pairs.shape[0] == 0:
            raise ValueError("expert data must be non-empty")
        if pairs[:, 0].max() >= S or pairs[:, 1].max() >= A:
            raise ValueError("expert pairs out of MDP bounds")
        flat = pairs[:, 0] * A + pairs[:, 1]
        w = np.bincount(flat, minlength=S * A).astype(np.float64)
        return cls(weights=w / w.sum(), pairs=pairs)

    def support(self) -> np.ndarray:
        return np.nonzero(self.weights > 0)[0]

    def sample_flat(self, rng: np.random.Generator, size: int, n_actions: int) -> np.ndarray:
        if self.pairs is not None:
            rows = rng.integers(0, self.pairs.shape[0], size=size)
            return self.pairs[rows, 0] * n_actions + self.pairs[rows, 1]
        return rng.choice(self.weights.size, size=size, p=self.weights)


@dataclass
class WailState:
    """Mutable loop state: round counter, reward model, policy, objective
    trace and the step schedule."""

    k: int
    model: rewards.PotentialModel
    policy: SoftmaxPolicy
    trace: list
    schedule: StepSchedule
    l1: int
    l2: int
    last_kl: float = 0.0
    last_surrogate: float = 0.0
    last_entropy: float = 0.0


def _policy_batch(state: WailState, mdp: TabularMdp, config: RunConfig,
                  rng: np.random.Generator, occupancy: OccupancyMeasure):
    """Policy-side support indices and weights: the exact occupancy of
    state.policy (`occupancy`) or l1 sampled pairs from the restart chain."""
    if config.sampling == "exact":
        w = occupancy.flat()
        return np.arange(w.size), w / w.sum()
    seed = int(rng.integers(0, 2 ** 63 - 1))
    flat = []
    need = config.l1
    while need > 0:
        trajs = sample_trajectories(mdp, state.policy, max(1, need // 8), seed=seed)
        seed += 1
        for t in trajs:
            flat.append(t.steps[:, 0] * mdp.n_actions + t.steps[:, 1])
        need = config.l1 - sum(f.size for f in flat)
    flat = np.concatenate(flat)[:config.l1]
    return flat, np.full(config.l1, 1.0 / config.l1)


def _expert_batch(expert: ExpertData, mdp: TabularMdp, config: RunConfig,
                  rng: np.random.Generator):
    if config.sampling == "exact":
        sup = expert.support()
        return sup, expert.weights[sup] / expert.weights[sup].sum()
    flat = expert.sample_flat(rng, config.l2, mdp.n_actions)
    return flat, np.full(config.l2, 1.0 / config.l2)


def _dual_value(model: rewards.PotentialModel, pair: ot.DiscreteMeasurePair,
                sub: ot.GroundMetric, reg: ot.DualRegularization) -> float:
    r_src = rewards.support_values(model, sub.src_index, sub.src_embed)
    r_tgt = rewards.support_values(model, sub.tgt_index, sub.tgt_embed)
    return ot.reg_dual_objective(r_src, r_tgt, pair, sub, reg)


def wail_iteration(state: WailState, mdp: TabularMdp, expert_data,
                   metric: ot.GroundMetric, reg: ot.DualRegularization,
                   config: RunConfig) -> WailState:
    """One adversarial round: sample both sides, ascend the regularized OT
    dual through the reward parameters, then take the KL-constrained policy
    step against the frozen updated reward.  The current policy's occupancy
    is solved once and serves the batch, the gradient, the step and the
    logged KL."""
    expert = ExpertData.from_any(expert_data, mdp)
    rng = np.random.default_rng([config.seed, state.k, 0x57A1])
    occupancy = occupancy_from_policy(mdp, state.policy)
    src_idx, src_w = _policy_batch(state, mdp, config, rng, occupancy)
    tgt_idx, tgt_w = _expert_batch(expert, mdp, config, rng)
    sub = metric.restrict(src_idx, tgt_idx)
    pair = ot.DiscreteMeasurePair(src_w, tgt_w)
    model, _ = ot.reg_ot_fit(pair, sub, reg, state.model,
                             steps=config.ot_inner_steps, lr=config.ot_lr,
                             seed=int(rng.integers(0, 2 ** 63 - 1)))
    objective = _dual_value(model, pair, sub, reg)
    if not np.isfinite(objective):
        raise ot.DivergenceError(f"objective diverged at round {state.k}", state.trace)

    frozen = rewards.clone_frozen(model)
    report = entropy_reg_policy_gradient(mdp, state.policy, frozen,
                                         lam=config.lambda_entropy, mode=config.pg_mode,
                                         seed=int(rng.integers(0, 2 ** 63 - 1)),
                                         occupancy=occupancy)
    delta = schedule_delta(state.schedule, state.k + 1)
    new_policy = kl_constrained_step(mdp, state.policy, report, delta,
                                     damping=config.cg_damping)
    return WailState(
        k=state.k + 1, model=model, policy=new_policy,
        trace=state.trace + [objective], schedule=state.schedule,
        l1=state.l1, l2=state.l2,
        last_kl=weighted_kl(mdp, state.policy, new_policy, occupancy=occupancy),
        last_surrogate=report.surrogate_value,
        last_entropy=report.entropy,
    )


def _final_fit(state: WailState, mdp: TabularMdp, expert: ExpertData,
               metric: ot.GroundMetric, reg: ot.DualRegularization, config: RunConfig):
    """Continue the reward ascent against the exact occupancy of
    state.policy, with the loop's epsilon, learning rate and metric, so the
    reward fits the policy it is returned with instead of sitting one step
    past the previous round's.  Runs FINAL_FIT_STEPS full-batch steps,
    capped at the loop's own k * ot_inner_steps: the fit at most doubles the
    ascent's cost, and k = 0 returns the initial model.  Sampled mode keeps
    the loop's model.  Returns (model, steps run, objective after the fit or
    None when no step ran)."""
    steps = min(FINAL_FIT_STEPS, state.k * config.ot_inner_steps)
    if config.sampling != "exact" or steps == 0:
        return state.model, 0, None
    occupancy = occupancy_from_policy(mdp, state.policy)
    src_idx, src_w = _policy_batch(state, mdp, config, None, occupancy)   # exact draws nothing
    tgt_idx, tgt_w = _expert_batch(expert, mdp, config, None)
    sub = metric.restrict(src_idx, tgt_idx)
    pair = ot.DiscreteMeasurePair(src_w, tgt_w)
    model, _ = ot.reg_ot_fit(pair, sub, reg, state.model, steps=steps, lr=config.ot_lr)
    objective = _dual_value(model, pair, sub, reg)
    if not np.isfinite(objective):
        raise ot.DivergenceError("objective diverged in the final reward fit", state.trace)
    return model, steps, objective


def _should_stop(trace: list, window: int, tol: float) -> bool:
    if len(trace) < window:
        return False
    tail = np.asarray(trace[-window:])
    return float(tail.max() - tail.min()) <= tol * (1.0 + abs(trace[-1]))


def _maybe_eval(mdp, policy, config, eval_ctx, k):
    if eval_ctx is None or config.eval_every <= 0 or (k + 1) % config.eval_every != 0:
        return None
    from .envs import evaluate
    res = evaluate(mdp, policy, config.n_eval, seed=eval_ctx["seed"],
                   expert_ref=eval_ctx["expert_ref"], random_ref=eval_ctx["random_ref"])
    return res.scaled


def _maybe_checkpoint(state: WailState, config: RunConfig) -> None:
    if not config.out_dir or config.checkpoint_every <= 0 or state.k % config.checkpoint_every != 0:
        return
    ck = os.path.join(config.out_dir, "checkpoints")
    os.makedirs(ck, exist_ok=True)
    save_policy(os.path.join(ck, f"iter_{state.k:06d}_policy.json"), state.policy)
    rewards.save_model(os.path.join(ck, f"iter_{state.k:06d}_reward.json"), state.model)


def train_wail(mdp: TabularMdp, expert_data, config: RunConfig, eval_ctx=None):
    """Run the full loop for k_max rounds (stopping early once the trailing
    objective window is flat), fit the reward to the final policy
    (`_final_fit`) and return (policy, reward model, log).  Deterministic
    given config.seed."""
    config.validate()
    expert = ExpertData.from_any(expert_data, mdp)
    schedule = StepSchedule(config.delta0, config.delta_decay)
    S, A = mdp.n_states, mdp.n_actions
    dims = ((S * A,) if config.model_form == "tabular"
            else (mdp.state_embed.shape[1] + mdp.action_embed.shape[1],)
            if config.model_form == "linear"
            else (mdp.state_embed.shape[1] + mdp.action_embed.shape[1], *config.mlp_hidden))
    state = WailState(k=0, model=rewards.create_model(config.model_form, dims, config.seed),
                      policy=SoftmaxPolicy.uniform(S, A), trace=[],
                      schedule=schedule, l1=config.l1, l2=config.l2)
    metric = ot.build_ground_metric(mdp, config.metric_scale)
    reg = ot.DualRegularization(config.reg_kind, config.epsilon)
    log = RunLog(meta={"algorithm": "wail", "config": config.to_dict(),
                       "n_states": S, "n_actions": A})
    clamps_before = ot.entropic_clamp_events()
    try:
        for _ in range(config.k_max):
            state = wail_iteration(state, mdp, expert, metric, reg, config)
            log.append(iteration=state.k, objective=state.trace[-1],
                       policy_surrogate=state.last_surrogate, kl_step=state.last_kl,
                       entropy=state.last_entropy,
                       scaled_perf_eval=_maybe_eval(mdp, state.policy, config, eval_ctx, state.k - 1))
            _maybe_checkpoint(state, config)
            if _should_stop(state.trace, config.early_stop_window, config.early_stop_tol):
                log.meta["early_stop_iteration"] = state.k
                break
        model, fit_steps, fit_objective = _final_fit(state, mdp, expert, metric, reg, config)
    except ot.DivergenceError as err:
        log.meta["diverged"] = str(err)
        if config.out_dir:
            log.save(config.out_dir)
        raise TrainingDiverged(str(err), log) from err
    log.meta["iterations_run"] = state.k
    log.meta["final_fit_steps"] = fit_steps
    log.meta["final_fit_objective"] = fit_objective
    log.meta["entropic_clamp_events"] = ot.entropic_clamp_events() - clamps_before
    if config.out_dir:
        log.save(config.out_dir)
        rewards.save_model(os.path.join(config.out_dir, "reward_final.json"), model)
        save_policy(os.path.join(config.out_dir, "policy_final.json"), state.policy)
    return state.policy, model, log


@dataclass
class ConvergenceReport:
    """Cauchy-envelope diagnostics of an objective trace against the step
    schedule's sqrt-KL budget (advisory: the envelope constant is
    estimated)."""

    max_ratio: float
    holds: bool
    opening_diff: float
    trailing_diff: float

    @property
    def shrink_factor(self) -> float:
        if self.opening_diff == 0.0:
            return np.inf if self.trailing_diff == 0.0 else 0.0
        return self.opening_diff / max(self.trailing_diff, 1e-300)


def convergence_monitor(trace, schedule: StepSchedule, m_bound: float,
                        tolerance: float = 0.5) -> ConvergenceReport:
    """Check |L_k - L_{k+m}| <= M * sum_{i=k..k+m} sqrt(2 delta_i) over all
    windows, reporting the worst ratio, plus the mean successive-difference
    magnitude over the opening and trailing 10% of the trace."""
    L = np.asarray(trace, dtype=np.float64)
    if L.size < 2:
        raise ValueError("trace must have at least 2 entries")
    if m_bound <= 0:
        raise ValueError("m_bound must be > 0")
    sq = np.sqrt(2.0 * np.array([schedule_delta(schedule, k) for k in range(1, L.size + 1)]))
    prefix = np.concatenate([[0.0], np.cumsum(sq)])
    # window (i, j) with i < j covers rounds i+1 .. j+1 (1-based), i.e. sq[i..j]
    diffs = np.abs(L[None, :] - L[:, None])
    spans = prefix[None, 1:] - prefix[:-1, None]   # spans[i, j] = sum of sq[i..j]
    iu = np.triu_indices(L.size, k=1)
    ratios = diffs[iu] / (m_bound * spans[iu[0], iu[1]])
    seg = max(2, L.size // 10)
    opening = float(np.abs(np.diff(L[:seg])).mean())
    trailing = float(np.abs(np.diff(L[-seg:])).mean())
    max_ratio = float(ratios.max())
    return ConvergenceReport(max_ratio=max_ratio, holds=max_ratio <= 1.0 + tolerance,
                             opening_diff=opening, trailing_diff=trailing)
