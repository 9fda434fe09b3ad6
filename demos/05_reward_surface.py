"""Reward surfaces over the demonstration plane.

Projects the expert state-action embeddings to their top-2 principal plane,
scores a grid of back-projected points with the learned reward and with the
baseline's -log D surrogate, normalizes both to [0, 1], and writes them as
CSV.  Also prints the learned reward over the grid states: the potential
forms a smooth corridor rising toward the goal.  Next to each surface's
total variation it prints the reward's Lipschitz modulus relative to its
range at the demonstration points, the smoothness measure the acceptance
suite asserts.
"""

import os

import numpy as np

import wail

out_dir = os.environ.get("SURFACE_OUT", "surface_out")
os.makedirs(out_dir, exist_ok=True)

base = dict(env={"name": "gridworld", "n": 5}, k_max=800, ot_lr=0.5,
            dataset_size=1, seed=0, n_eval=500, n_ref=500)
row_w, art_w = wail.run_single(wail.RunConfig(**base, algorithm="wail"))
row_g, art_g = wail.run_single(wail.RunConfig(**base, algorithm="gail"))
mdp = art_w["mdp"]

print("learned reward, maximized over actions (goal at bottom right):")
R = wail.reward_matrix(art_w["model"], mdp).max(axis=1).reshape(5, 5)
for r in R:
    print("  " + " ".join(f"{v:+.2f}" for v in r))

pairs = art_w["demos"].pairs()
data = wail.state_action_embeddings(mdp)[pairs[:, 0] * mdp.n_actions + pairs[:, 1]]
plane = wail.pca_fit(data)
bounds = wail.default_bounds(plane, data)
print(f"\nPCA plane: top eigenvalues {np.round(plane.eigenvalues, 4)}, "
      f"bounds {tuple(round(float(b), 2) for b in bounds)}")

fn_w = wail.model_surface_fn(art_w["model"], mdp)
fn_g = wail.disc_surface_fn(art_g["model"], mdp)
lip = {}
for name, fn in (("reward_surface.csv", fn_w), ("surrogate_surface.csv", fn_g)):
    surf = wail.reward_surface(fn, plane, grid_n=25, bounds=bounds)
    path = os.path.join(out_dir, name)
    wail.save_surface(path, surf)
    lip[name] = wail.relative_lipschitz(fn, data)
    print(f"wrote {path}  (total variation "
          f"{wail.surface_total_variation(surf):.4f}, Lipschitz modulus / range "
          f"at the demonstration points {lip[name]:.4f})")
print(f"relative modulus, reward / surrogate: "
      f"{lip['reward_surface.csv'] / lip['surrogate_surface.csv']:.3f} (criterion 8 wants <= 0.5)")
