"""End-to-end experiment orchestration: single imitation runs and the
(algorithm x dataset size x seed) grid with its summary table."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import traceback

import numpy as np

from . import baselines, ot, rewards, training
from .config import RunConfig
from .envs import build_environment, evaluate, make_expert, reference_returns
from .mdp import save_policy, save_trajectories

# each adversarial algorithm's final reward model file, written by run_single
MODEL_FILES = {"wail": "reward_final.json", "gail": "discriminator_final.json"}


def derived_seeds(seed: int) -> dict:
    """Independent integer seeds for a run's sampling stages: the expert
    demonstrations, the expert/random references, training and evaluation.
    setup, scorer and run_single are the only callers: every stage's seed
    comes from config.seed this way."""
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("expert", "refs", "train", "eval")
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


def setup(config: RunConfig, demos=None):
    """Build a run's environment and soft-VI expert.  Draws dataset_size
    demonstrations with the expert seed, unless `demos` are given; those are
    checked by training.expert_occupancy.  Returns (mdp, expert_policy, demos)."""
    mdp = build_environment(config.env)
    expert_policy, drawn = make_expert(mdp, config.expert_lambda, n_traj=config.dataset_size,
                                       traj_len=config.traj_len,
                                       seed=derived_seeds(config.seed)["expert"])
    if demos is None:
        return mdp, expert_policy, drawn
    training.expert_occupancy(demos, mdp)
    return mdp, expert_policy, demos


def scorer(config: RunConfig, mdp, expert_policy):
    """A run's scoring: expert and random references drawn with the refs
    seed, and score(policy), the EvalResult of n_eval episodes drawn with
    the eval seed.  Returns (score, expert_ref, random_ref)."""
    seeds = derived_seeds(config.seed)
    expert_ref, random_ref = reference_returns(mdp, expert_policy,
                                               n_ref=config.n_ref, seed=seeds["refs"])

    def score(policy):
        return evaluate(mdp, policy, config.n_eval, seed=seeds["eval"],
                        expert_ref=expert_ref, random_ref=random_ref)

    return score, expert_ref, random_ref


def run_single(config: RunConfig, demos=None):
    """One imitation run: set up the environment and demonstrations (drawn,
    or the given `demos`), train the configured algorithm with the train
    seed, score it against the expert/random references.

    The row's dataset_size is the number of demonstrations trained on,
    len(demos), which given demonstrations set rather than the config.
    Returns (summary_row, artifacts) where artifacts holds the trained
    policy, the reward model (WAIL's potential or GAIL's discriminator
    logit; None for bc), the log (None for bc) and the expert context.
    With config.out_dir set, it alone writes the run's final files (the
    loop writes checkpoints); a diverged run writes its partial log."""
    mdp, expert_policy, demos = setup(config, demos)
    score, expert_ref, random_ref = scorer(config, mdp, expert_policy)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)    # fails on a file before training
    train_cfg = dataclasses.replace(config, seed=derived_seeds(config.seed)["train"])
    if config.algorithm == "bc":
        policy, aux, log = baselines.train_bc(mdp, demos), None, None
    else:
        train = training.train_wail if config.algorithm == "wail" else baselines.train_gail
        try:
            policy, aux, log = train(mdp, demos, train_cfg)
        except ot.DivergenceError as err:
            if config.out_dir:
                err.log.save(config.out_dir)
            raise
    result = score(policy)
    row = {"algorithm": config.algorithm, "dataset_size": len(demos),
           "seed": config.seed, "mean": result.mean, "std": result.std,
           "scaled": result.scaled}
    artifacts = {"mdp": mdp, "policy": policy, "model": aux, "log": log,
                 "expert_policy": expert_policy, "demos": demos,
                 "expert_ref": expert_ref, "random_ref": random_ref}
    if config.out_dir:
        save_trajectories(os.path.join(config.out_dir, "demos.jsonl"), demos)
        save_policy(os.path.join(config.out_dir, "policy_final.json"), policy)
        if log is not None:
            log.save(config.out_dir)
            rewards.save_model(os.path.join(config.out_dir, MODEL_FILES[config.algorithm]), aux)
        with open(os.path.join(config.out_dir, "result.json"), "w") as fh:
            json.dump(row | {"expert_ref": expert_ref, "random_ref": random_ref}, fh, indent=2)
    return row, artifacts


SUMMARY_COLUMNS = ("algorithm", "dataset_size", "seed", "mean", "std", "scaled")


def save_summary(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        for r in rows:
            w.writerow([r["algorithm"], r["dataset_size"], r["seed"],
                        repr(float(r["mean"])), repr(float(r["std"])), repr(float(r["scaled"]))])


def load_summary(path):
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append({"algorithm": rec["algorithm"],
                         "dataset_size": int(rec["dataset_size"]),
                         "seed": int(rec["seed"]), "mean": float(rec["mean"]),
                         "std": float(rec["std"]), "scaled": float(rec["scaled"])})
    return rows


def run_experiment_grid(base: RunConfig, algorithms=None, dataset_sizes=None,
                        seeds=None, out_dir: str | None = None):
    """Run every (algorithm x dataset_size x seed) cell from the base
    config.  Cell failures are recorded and the grid continues.  Returns
    (summary_rows, failures); writes summary.csv and failures.json when
    out_dir is given."""
    algorithms = list(algorithms) if algorithms is not None else [base.algorithm]
    dataset_sizes = list(dataset_sizes) if dataset_sizes is not None else [base.dataset_size]
    seeds = list(seeds) if seeds is not None else [base.seed]
    rows, failures = [], []
    for algo in algorithms:
        for size in dataset_sizes:
            for seed in seeds:
                cell_out = (os.path.join(out_dir, f"{algo}_n{size}_s{seed}")
                            if out_dir else None)
                try:
                    # inside the try: a cell whose config fails its check fails alone
                    row, _ = run_single(dataclasses.replace(base, algorithm=algo,
                                                            dataset_size=size, seed=seed,
                                                            out_dir=cell_out))
                    rows.append(row)
                except Exception as err:   # noqa: BLE001 - cell isolation is the contract
                    failures.append({"algorithm": algo, "dataset_size": size,
                                     "seed": seed, "error": f"{type(err).__name__}: {err}",
                                     "traceback": traceback.format_exc()})
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        save_summary(os.path.join(out_dir, "summary.csv"), rows)
        if failures:
            with open(os.path.join(out_dir, "failures.json"), "w") as fh:
                json.dump(failures, fh, indent=2)
    return rows, failures
