"""Reward-surface inspection: PCA of expert state-action embeddings and
reward scores over the spanned 2-D plane, exported as CSV.  Distances
(model_surface_fn for tabular models, relative_lipschitz) come from the
cost blocks' kernel, ot.euclidean_distances."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import rewards
from .baselines import disc_probs
from .mdp import TabularMdp, state_action_embeddings
from .ot import euclidean_distances

BOUNDS_EXPAND = 0.25       # share of the data's extent default_bounds adds per side


@dataclass(frozen=True)
class PcaPlane:
    """Top-2 principal plane of a sample: mean, orthonormal axes (rows) and
    their covariance eigenvalues."""

    mean: np.ndarray            # (d,)
    axes: np.ndarray            # (2, d)
    eigenvalues: np.ndarray     # (2,)
    rank_deficient: bool = False


def pca_fit(data: np.ndarray) -> PcaPlane:
    """Top-2 eigenvectors of the sample covariance via dense
    eigendecomposition.  Rank-deficient samples (second eigenvalue ~ 0) are
    flagged; the second axis is then an arbitrary direction in the null
    space."""
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
        raise ValueError("need at least 2 samples of dimension >= 2")
    mean = X.mean(axis=0)
    C = (X - mean).T @ (X - mean) / (X.shape[0] - 1)
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1][:2]
    axes = evecs[:, order].T.copy()
    top = np.abs(axes).argmax(axis=1)
    axes *= np.where(axes[np.arange(2), top] < 0, -1.0, 1.0)[:, None]   # fix signs
    eigenvalues = np.maximum(evals[order], 0.0)
    deficient = bool(eigenvalues[1] <= 1e-12 * max(eigenvalues[0], 1.0))
    if deficient:
        warnings.warn("PCA sample is rank deficient; second axis is arbitrary")
    return PcaPlane(mean=mean, axes=axes, eigenvalues=eigenvalues,
                    rank_deficient=deficient)


def pca_project(plane: PcaPlane, points: np.ndarray) -> np.ndarray:
    """(u, v) coordinates of points in the fitted plane."""
    return (np.atleast_2d(points) - plane.mean) @ plane.axes.T


def pca_inverse(plane: PcaPlane, uv: np.ndarray) -> np.ndarray:
    """Map plane coordinates back to the embedding space:
    mean + u * axis1 + v * axis2."""
    return plane.mean + np.atleast_2d(uv) @ plane.axes


def default_bounds(plane: PcaPlane, data: np.ndarray):
    """Bounding box of the data's projections, expanded by BOUNDS_EXPAND of
    its extent per side."""
    uv = pca_project(plane, data)
    lo, hi = uv.min(axis=0), uv.max(axis=0)
    pad = (hi - lo) * BOUNDS_EXPAND
    pad = np.where(pad > 0, pad, 1.0)
    return (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])


def model_surface_fn(model: rewards.PotentialModel, mdp: TabularMdp):
    """Reward score for arbitrary embedding points.  Linear/mlp models
    evaluate directly; tabular models score a point by its nearest
    state-action embedding, so their table must have one entry per
    state-action point of `mdp` (a ValueError names both sizes)."""
    if model.form == "tabular":
        table = rewards.reward_matrix(model, mdp).ravel()
        table_embed = state_action_embeddings(mdp)

        def fn(points):
            return table[euclidean_distances(np.atleast_2d(points), table_embed).argmin(axis=1)]
        return fn
    return lambda points: rewards.support_values(model, None, np.atleast_2d(points))


def disc_surface_fn(logit: rewards.PotentialModel, mdp: TabularMdp):
    """-log D score of a discriminator logit model for arbitrary embedding
    points: model_surface_fn's score mapped through -log sigmoid."""
    fn = model_surface_fn(logit, mdp)
    return lambda points: -np.log(disc_probs(fn(points)))


@dataclass(frozen=True)
class SurfaceGrid:
    """Min-max normalized reward scores over a (u, v) grid of the PCA plane."""

    u: np.ndarray               # (grid_n,)
    v: np.ndarray               # (grid_n,)
    scores: np.ndarray          # (grid_n, grid_n), scores[i, j] at (u[i], v[j])
    degenerate: bool = False


def reward_surface(reward_fn, plane: PcaPlane, grid_n: int = 25,
                   bounds=None, data=None) -> SurfaceGrid:
    """Score a grid_n x grid_n grid of plane points mapped back through the
    inverse projection, then rescale to [0, 1].  A constant surface is
    flagged and emitted as all 0.5."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    if bounds is None:
        if data is None:
            raise ValueError("need explicit bounds or data to derive them from")
        bounds = default_bounds(plane, data)
    u = np.linspace(bounds[0], bounds[1], grid_n)
    v = np.linspace(bounds[2], bounds[3], grid_n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    points = pca_inverse(plane, np.stack([uu.ravel(), vv.ravel()], axis=1))
    raw = np.asarray(reward_fn(points), dtype=np.float64).reshape(grid_n, grid_n)
    lo, hi = raw.min(), raw.max()
    if hi - lo <= 1e-12 * (1.0 + abs(hi)):
        warnings.warn("constant reward surface; emitting 0.5 everywhere")
        return SurfaceGrid(u=u, v=v, scores=np.full_like(raw, 0.5), degenerate=True)
    return SurfaceGrid(u=u, v=v, scores=(raw - lo) / (hi - lo))


def surface_total_variation(surface: SurfaceGrid) -> float:
    """Mean absolute difference between adjacent normalized grid cells."""
    s = surface.scores
    d1 = np.abs(np.diff(s, axis=0))
    d2 = np.abs(np.diff(s, axis=1))
    return float((d1.sum() + d2.sum()) / (d1.size + d2.size))


def relative_lipschitz(reward_fn, points: np.ndarray) -> float:
    """Lipschitz modulus of a reward over a point set against the ground
    metric (Euclidean distance), divided by the reward's range over the
    same points: max |f(x) - f(y)| / d(x, y) over distinct pairs, over
    max f - min f.
    Unlike the total variation of a normalized surface, which only counts
    level changes, this sees slope: a ramp scores about 1 / (its length), a
    step between neighbours 1 / (their distance).  Duplicate points are
    dropped; a constant reward has no relative modulus and is flagged and
    reported as nan."""
    X = np.unique(np.atleast_2d(np.asarray(points, dtype=np.float64)), axis=0)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 distinct points")
    f = np.asarray(reward_fn(X), dtype=np.float64)
    span = f.max() - f.min()
    if span <= 1e-12 * (1.0 + abs(f.max())):
        warnings.warn("constant reward over the points; relative modulus undefined")
        return float("nan")
    i, j = np.triu_indices(X.shape[0], k=1)   # the distinct pairs
    return float((np.abs(f[i] - f[j]) / euclidean_distances(X, X)[i, j]).max() / span)


def save_surface(path, surface: SurfaceGrid) -> None:
    """CSV with (u, v, score) rows; floats written with full round-trip
    precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v", "score"])
        for i, ui in enumerate(surface.u):
            for j, vj in enumerate(surface.v):
                w.writerow([repr(float(ui)), repr(float(vj)), repr(float(surface.scores[i, j]))])


def load_surface(path) -> SurfaceGrid:
    us, vs, scores = [], [], {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            u, v, s = float(rec["u"]), float(rec["v"]), float(rec["score"])
            if u not in us:
                us.append(u)
            if v not in vs:
                vs.append(v)
            scores[(u, v)] = s
    u = np.asarray(us)
    v = np.asarray(vs)
    grid = np.asarray([[scores[(ui, vj)] for vj in vs] for ui in us])
    return SurfaceGrid(u=u, v=v, scores=grid)
