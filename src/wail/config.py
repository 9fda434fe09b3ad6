"""Run configuration shared by trainers, the experiment grid and the CLI."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

ALGORITHMS = ("wail", "gail", "bc")
SAMPLING_MODES = ("exact", "sampled")


@dataclass
class RunConfig:
    """Everything one imitation run needs.

    Defaults follow the experiment setup at desk scale: l2-regularized OT
    with epsilon 0.01, Euclidean ground cost, tabular reward/discriminator,
    constant KL budget 0.01, no causal-entropy bonus.
    """

    env: dict = field(default_factory=lambda: {"name": "gridworld", "n": 5})
    algorithm: str = "wail"
    dataset_size: int = 1
    seed: int = 0

    # optimal-transport reward step
    reg_kind: str = "l2"
    epsilon: float = 0.01
    ot_lr: float = 0.5
    ot_inner_steps: int = 1
    model_form: str = "tabular"
    mlp_hidden: tuple = (32, 32)

    # policy step
    lambda_entropy: float = 0.0
    delta0: float = 0.01
    delta_decay: float = 0.0

    # loop control
    k_max: int = 800
    sampling: str = "exact"
    pg_mode: str = "exact"
    l1: int = 128
    l2: int = 128
    early_stop_window: int = 50
    early_stop_tol: float = 1e-4

    # gail
    disc_lr: float = 0.5

    # expert generation and evaluation
    expert_lambda: float = 0.01
    traj_len: int = 50
    n_eval: int = 500
    n_ref: int = 500
    eval_every: int = 0
    checkpoint_every: int = 0
    out_dir: str | None = None

    def validate(self) -> None:
        """Cross-check every field against its owning module's constraints
        before any work starts."""
        for name in ("seed", "dataset_size", "k_max", "l1", "l2", "ot_inner_steps",
                     "early_stop_window", "traj_len", "n_eval", "n_ref", "eval_every",
                     "checkpoint_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("epsilon", "ot_lr", "lambda_entropy", "delta0", "delta_decay",
                     "early_stop_tol", "disc_lr", "expert_lambda"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.env, dict) or "name" not in self.env:
            raise ValueError("env must be a dict with a 'name' key")
        if not isinstance(self.env["name"], str):
            raise ValueError(f"env.name must be a string, got {self.env['name']!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or null, got {self.out_dir!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.dataset_size < 1:
            raise ValueError("dataset_size must be >= 1")
        if self.reg_kind not in ("entropic", "l2"):
            raise ValueError("reg_kind must be 'entropic' or 'l2'")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.ot_lr <= 0 or self.disc_lr <= 0:
            raise ValueError("learning rates must be > 0")
        if self.ot_inner_steps < 1:
            raise ValueError("ot_inner_steps must be >= 1")
        if self.model_form not in ("tabular", "linear", "mlp"):
            raise ValueError("model_form must be tabular, linear or mlp")
        hidden = self.mlp_hidden
        if (not isinstance(hidden, (tuple, list)) or len(hidden) != 2
                or not all(isinstance(h, int) and not isinstance(h, bool) and h >= 1
                           for h in hidden)):
            raise ValueError("mlp_hidden must be two ints >= 1")
        if self.lambda_entropy < 0:
            raise ValueError("lambda_entropy must be >= 0")
        if self.delta0 < 0 or self.delta_decay < 0:
            raise ValueError("delta0 must be >= 0 and delta_decay >= 0")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.sampling not in SAMPLING_MODES or self.pg_mode not in SAMPLING_MODES:
            raise ValueError(f"sampling/pg_mode must be one of {SAMPLING_MODES}")
        if self.l1 < 1 or self.l2 < 1:
            raise ValueError("batch sizes l1, l2 must be >= 1")
        if self.early_stop_window < 1 or self.early_stop_tol < 0:
            raise ValueError("early_stop_window must be >= 1 and early_stop_tol >= 0")
        if self.expert_lambda <= 0:
            raise ValueError("expert_lambda must be > 0")
        if self.traj_len < 1:
            raise ValueError("traj_len must be >= 1")
        if self.n_eval < 1 or self.n_ref < 1:
            raise ValueError("n_eval and n_ref must be >= 1")
        if self.eval_every < 0 or self.checkpoint_every < 0:
            raise ValueError("eval_every and checkpoint_every must be >= 0")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["mlp_hidden"] = list(self.mlp_hidden)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        if isinstance(doc.get("mlp_hidden"), list):
            doc["mlp_hidden"] = tuple(doc["mlp_hidden"])
        return cls(**doc)


def save_config(path, config: RunConfig) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_dict(json.load(fh))
