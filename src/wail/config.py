"""Run configuration shared by trainers, the experiment grid and the CLI."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

from .mdp import parse_json
from .ot import REG_KINDS
from .rewards import FORMS

ALGORITHMS = ("wail", "gail", "bc")
SAMPLING_MODES = ("exact", "sampled")
CHOICES = {"algorithm": ALGORITHMS, "reg_kind": REG_KINDS, "model_form": FORMS,
           "sampling": SAMPLING_MODES, "pg_mode": SAMPLING_MODES}
# The number fields that may be 0; every other int or float field must be > 0.
MAY_BE_ZERO = ("seed", "k_max", "checkpoint_every", "lambda_entropy", "delta0",
               "delta_decay", "early_stop_tol")


@dataclass(frozen=True)
class RunConfig:
    """Everything one imitation run needs.  Frozen, and checked by
    `validate` whenever one is made: built directly, by `from_dict` or by
    `dataclasses.replace`.

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
    checkpoint_every: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError, naming the field, for the first field outside
        its owning module's constraints; every RunConfig is checked so when
        it is made."""
        for f in fields(self):
            if f.type not in ("int", "float"):
                continue
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                                      or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if f.name in MAY_BE_ZERO and value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value!r}")
            if f.name not in MAY_BE_ZERO and value <= 0:
                raise ValueError(f"{f.name} must be > 0, got {value!r}")
        if self.early_stop_window < 2:      # a window of one objective is always flat
            raise ValueError(f"early_stop_window must be >= 2, got {self.early_stop_window}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not isinstance(self.env, dict) or "name" not in self.env:
            raise ValueError("env must be a dict with a 'name' key")
        if not isinstance(self.env["name"], str):
            raise ValueError(f"env.name must be a string, got {self.env['name']!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or null, got {self.out_dir!r}")
        hidden = self.mlp_hidden
        if (not isinstance(hidden, (tuple, list)) or len(hidden) != 2
                or not all(isinstance(h, int) and not isinstance(h, bool) and h >= 1
                           for h in hidden)):
            raise ValueError("mlp_hidden must be two ints >= 1")

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
        return RunConfig.from_dict(parse_json(fh.read(), path))
