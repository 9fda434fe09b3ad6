"""Parametric reward functions over state-action embeddings.

Three interchangeable forms share one flat parameter vector and exact
analytic gradients: a lookup table over state-action indices, a linear
functional of the embedding, and a small two-hidden-layer tanh network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp, json_array, json_fields, parse_json, state_action_embeddings, unchecked

FORMS = ("tabular", "linear", "mlp")


@dataclass
class PotentialModel:
    """Reward r_w(x) with flat parameters w.

    dims:
      tabular -> (n_points,)           table over flat state-action indices
      linear  -> (in_dim,)             r = w . x
      mlp     -> (in_dim, h1, h2)      tanh-tanh-linear; params packed as
                                       [W1, b1, W2, b2, w_out, b_out] row-major
    Tabular models are addressed by index; linear/mlp by embedding vector.
    """

    form: str
    dims: tuple
    params: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}, expected one of {FORMS}")
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != (3 if self.form == "mlp" else 1):
            raise ValueError(f"{self.form} dims must hold {3 if self.form == 'mlp' else 1} "
                             f"sizes, got {self.dims}")
        self.params = np.asarray(self.params, dtype=np.float64).ravel()
        if self.params.size != param_count(self.form, self.dims):
            raise ValueError(f"params size {self.params.size} does not match "
                             f"{self.form}{self.dims}")

    def copy(self) -> "PotentialModel":
        """A copy of this checked model, built `unchecked`."""
        return unchecked(PotentialModel, form=self.form, dims=self.dims,
                         params=self.params.copy(), seed=self.seed)


def param_count(form: str, dims: tuple) -> int:
    if form == "tabular":
        return dims[0]
    if form == "linear":
        return dims[0]
    d, h1, h2 = dims
    return h1 * d + h1 + h2 * h1 + h2 + h2 + 1


def create_model(form: str, dims: tuple, seed: int = 0) -> PotentialModel:
    """Fresh model: tabular starts at zero, linear/mlp weights uniform in
    +-1/sqrt(fan_in) (biases zero), fixed by seed."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    if form == "tabular":
        params = np.zeros(dims[0])
    elif form == "linear":
        b = 1.0 / np.sqrt(dims[0])
        params = rng.uniform(-b, b, size=dims[0])
    elif form == "mlp":
        d, h1, h2 = dims
        parts = []
        for fan_in, shape in ((d, (h1, d)), (h1, (h2, h1)), (h2, (h2,))):
            b = 1.0 / np.sqrt(fan_in)
            parts.append(rng.uniform(-b, b, size=shape).ravel())
            parts.append(np.zeros(shape[0] if len(shape) == 2 else 1))
        params = np.concatenate(parts)
    else:
        raise ValueError(f"unknown form {form!r}")
    return PotentialModel(form, dims, params, seed)


def _unpack_mlp(model: PotentialModel):
    d, h1, h2 = model.dims
    p = model.params
    i = 0
    W1 = p[i:i + h1 * d].reshape(h1, d); i += h1 * d
    b1 = p[i:i + h1]; i += h1
    W2 = p[i:i + h2 * h1].reshape(h2, h1); i += h2 * h1
    b2 = p[i:i + h2]; i += h2
    w3 = p[i:i + h2]; i += h2
    b3 = p[i]
    return W1, b1, W2, b2, w3, b3


def _mlp_forward(model: PotentialModel, X: np.ndarray):
    W1, b1, W2, b2, w3, b3 = _unpack_mlp(model)
    A1 = np.tanh(X @ W1.T + b1)
    A2 = np.tanh(A1 @ W2.T + b2)
    return A2 @ w3 + b3, A1, A2


def support_embeds(model: PotentialModel, table: np.ndarray,
                   indices: np.ndarray) -> np.ndarray | None:
    """The rows of `table` at `indices` that support_values and
    accumulate_param_grad read for this model; None for the tabular form,
    which reads only the indices, so callers can skip the gather."""
    if model.form == "tabular":
        return None
    return table[indices]


def support_values(model: PotentialModel, indices: np.ndarray,
                   embeds: np.ndarray | None) -> np.ndarray:
    """Evaluate the model on a batch of support points.

    Tabular models read the table at `indices`; linear/mlp evaluate the rows
    of `embeds`."""
    if model.form == "tabular":
        return model.params[np.asarray(indices, dtype=np.int64)]
    X = np.atleast_2d(np.asarray(embeds, dtype=np.float64))
    if X.shape[1] != model.dims[0]:
        raise ValueError(f"embedding dim {X.shape[1]} != model dim {model.dims[0]}")
    if model.form == "linear":
        return X @ model.params
    out, _, _ = _mlp_forward(model, X)
    return out


def accumulate_param_grad(model: PotentialModel, indices: np.ndarray,
                          embeds: np.ndarray | None, coeffs: np.ndarray) -> np.ndarray:
    """Return sum_k coeffs[k] * d r_w(x_k) / d w as one flat vector; tabular: a float64
    bincount over indices in [0, n), adding in batch order from 0.0 as np.add.at does."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if model.form == "tabular":
        return np.bincount(np.asarray(indices, dtype=np.int64), weights=coeffs,
                           minlength=model.params.size).astype(np.float64, copy=False)
    X = np.atleast_2d(np.asarray(embeds, dtype=np.float64))
    if model.form == "linear":
        return coeffs @ X
    _, A1, A2 = _mlp_forward(model, X)
    W1, b1, W2, b2, w3, b3 = _unpack_mlp(model)
    dA2 = coeffs[:, None] * w3[None, :]
    dZ2 = dA2 * (1.0 - A2 ** 2)
    dA1 = dZ2 @ W2
    dZ1 = dA1 * (1.0 - A1 ** 2)
    return np.concatenate([
        (dZ1.T @ X).ravel(), dZ1.sum(axis=0),
        (dZ2.T @ A1).ravel(), dZ2.sum(axis=0),
        coeffs @ A2, [coeffs.sum()],
    ])


def clone_frozen(model: PotentialModel) -> PotentialModel:
    """Snapshot whose outputs never change under further training of the
    source model (parameters are copied and marked read-only)."""
    frozen = model.copy()
    frozen.params.setflags(write=False)
    return frozen


def reward_matrix(model: PotentialModel, mdp: TabularMdp) -> np.ndarray:
    """Materialize r_w over the full S x A index set as an (S, A) matrix."""
    S, A = mdp.n_states, mdp.n_actions
    if model.form == "tabular":
        if model.dims[0] != S * A:
            raise ValueError(f"tabular model has {model.dims[0]} entries, MDP needs {S * A}")
        return model.params.reshape(S, A).copy()
    values = support_values(model, None, state_action_embeddings(mdp))
    return values.reshape(S, A)


# ---------------------------------------------------------------------------
# Checkpoints

def model_to_json(model: PotentialModel) -> dict:
    return {"form": model.form, "dims": list(model.dims),
            "params": model.params.tolist(), "seed": model.seed}


def model_from_json(doc: dict) -> PotentialModel:
    """The model model_to_json wrote; a ValueError names a missing or
    mistyped key."""
    form, dims, params, seed = json_fields(doc, ("form", "dims", "params", "seed"), "reward model")
    dims = json_array(dims, "reward model 'dims'", integer=True)
    if dims.ndim != 1:
        raise ValueError(f"reward model 'dims' must be a list of integers, got {dims.tolist()}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"reward model 'seed' must be an integer, got {seed!r}")
    return PotentialModel(form, tuple(dims.tolist()),
                          json_array(params, "reward model 'params'"), seed)


def save_model(path, model: PotentialModel) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh)


def load_model(path) -> PotentialModel:
    with open(path) as fh:
        return model_from_json(parse_json(fh.read(), path))
