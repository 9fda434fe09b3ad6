"""Command-line entry points.

Subcommands: make-expert, train, eval, surface, grid.  Each reads a JSON
config (all RunConfig fields) and accepts --seed/--out plus generic
--set key=value overrides.  Runs are set up and scored only through
experiments.setup and experiments.scorer, seeded from config.seed as in
run_single; train, with --demos too, is run_single.  Exit codes: 0 success,
1 validation error (a bad config, environment spec or input file),
2 runtime divergence, 3 partial grid failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, rewards
from .config import ALGORITHMS, RunConfig
from .experiments import run_experiment_grid, run_single, scorer, setup
from .mdp import (load_policy, load_trajectories, parse_json, save_mdp, save_policy,
                  save_trajectories, state_action_embeddings)
from .ot import DivergenceError


def _load(args) -> RunConfig:
    """The --config file's JSON object, then --seed, --out, each --set and
    --algo, in that order, merged into one RunConfig, which checks itself
    once."""
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = parse_json(fh.read(), args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if not _:
            raise ValueError(f"--set expects key=value, got {item!r}")
        try:
            updates[key] = json.loads(raw)
        except json.JSONDecodeError:
            updates[key] = raw
    if getattr(args, "algo", None):
        updates["algorithm"] = args.algo
    # from_dict rejects a file that holds no JSON object
    return RunConfig.from_dict(doc | updates if isinstance(doc, dict) else doc)


def cmd_expert(args) -> int:
    config = _load(args)
    mdp, expert, demos = setup(config)
    out = config.out_dir or "."
    os.makedirs(out, exist_ok=True)
    save_mdp(os.path.join(out, "mdp.json"), mdp)
    save_policy(os.path.join(out, "expert_policy.json"), expert)
    save_trajectories(os.path.join(out, "demos.jsonl"), demos)
    print(f"wrote mdp.json, expert_policy.json and {len(demos)} demos to {out}")
    return 0


def cmd_train(args) -> int:
    row, _ = run_single(_load(args), load_trajectories(args.demos) if args.demos else None)
    print(json.dumps(row))
    return 0


def cmd_eval(args) -> int:
    config = _load(args)
    policy = load_policy(args.policy)
    mdp, expert, _ = setup(config)
    score, expert_ref, random_ref = scorer(config, mdp, expert)
    result = score(policy)
    doc = {"mean": result.mean, "std": result.std, "scaled": result.scaled,
           "expert_ref": expert_ref, "random_ref": random_ref}
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, "eval.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
    print(json.dumps(doc))
    return 0


def cmd_surface(args) -> int:
    config = _load(args)
    mdp, _, demos = setup(config, load_trajectories(args.demos) if args.demos else None)
    flat = demos.states * mdp.n_actions + demos.actions
    data = state_action_embeddings(mdp)[flat]
    plane = analysis.pca_fit(data)
    model = rewards.load_model(args.reward)
    surface_fn = analysis.disc_surface_fn if args.as_discriminator else analysis.model_surface_fn
    fn = surface_fn(model, mdp)
    surface = analysis.reward_surface(fn, plane, grid_n=args.grid_n, data=data)
    out = config.out_dir or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "surface.csv")
    analysis.save_surface(path, surface)
    print(f"wrote {path} (total variation "
          f"{analysis.surface_total_variation(surface):.4f})")
    return 0


def cmd_grid(args) -> int:
    config = _load(args)
    algos = args.algos.split(",") if args.algos else None
    sizes = [int(x) for x in args.sizes.split(",")] if args.sizes else None
    seeds = [int(x) for x in args.seeds.split(",")] if args.seeds else None
    out = config.out_dir or "grid_out"
    rows, failures = run_experiment_grid(config, algorithms=algos,
                                         dataset_sizes=sizes, seeds=seeds, out_dir=out)
    print(f"{len(rows)} cells succeeded, {len(failures)} failed; summary in "
          f"{os.path.join(out, 'summary.csv')}")
    for f in failures:
        print(f"  FAILED {f['algorithm']} n={f['dataset_size']} seed={f['seed']}: {f['error']}")
    return 3 if failures else 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (RunConfig fields)")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config field (JSON value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wail",
                                     description="Imitation learning on tabular MDPs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-expert", help="build env, train the expert, dump demos")
    _add_common(p)
    p.set_defaults(fn=cmd_expert)

    p = sub.add_parser("train", help="run one imitation training")
    _add_common(p)
    p.add_argument("--algo", choices=ALGORITHMS, default=None)
    p.add_argument("--demos", default=None, help="trajectories JSONL (else generated)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved policy")
    _add_common(p)
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("surface", help="export a reward surface CSV")
    _add_common(p)
    p.add_argument("--reward", required=True, help="model checkpoint JSON")
    p.add_argument("--demos", default=None, help="trajectories JSONL for the PCA fit")
    p.add_argument("--grid-n", type=int, default=25)
    p.add_argument("--as-discriminator", action="store_true",
                   help="treat the checkpoint as a discriminator logit (-log D scores)")
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("grid", help="run the (algorithm x size x seed) grid")
    _add_common(p)
    p.add_argument("--algos", default=None, help="comma list, e.g. wail,gail,bc")
    p.add_argument("--sizes", default=None, help="comma list, e.g. 1,4,10")
    p.add_argument("--seeds", default=None, help="comma list, e.g. 0,1,2")
    p.set_defaults(fn=cmd_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"runtime divergence: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
