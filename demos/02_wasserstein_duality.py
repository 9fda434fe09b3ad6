"""Exact 1-Wasserstein oracles and the regularized dual ascent.

The primal transport LP and the Lipschitz-potential dual LP agree to solver
precision; the penalized unconstrained dual recovers the same value as its
regularization strength shrinks, which is what lets a parametric reward
learn the distance by plain gradient ascent.
"""

import numpy as np

import wail
from wail.ot import GroundMetric

rng = np.random.default_rng(3)

n = 12
embed = rng.normal(size=(n, 3))
metric = GroundMetric.from_embeddings(embed)
pair = wail.DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))

primal, plan = wail.w1_primal_lp(pair, metric)
dual, potential = wail.w1_dual_lp(pair, metric)
print(f"primal LP value: {primal:.8f}")
print(f"dual LP value  : {dual:.8f}   (gap {abs(primal - dual):.2e})")
print(f"plan marginals : max error {max(np.abs(plan.sum(1) - pair.source).max(), np.abs(plan.sum(0) - pair.target).max()):.2e}")
viol = (potential[:, None] - potential[None, :] - metric.dist).max()
print(f"potential Lipschitz violation: {viol:.2e}")

# Feeding the exact potential through the penalized objective reproduces the
# distance exactly: a feasible potential pays no penalty.
reg = wail.DualRegularization("l2", 0.01)
at_potential = wail.reg_dual_objective(potential, potential, pair, metric, reg)
print(f"penalized objective at the exact potential: {at_potential:.8f}")

# Gradient ascent through a lookup-table potential approaches the LP value
# as epsilon shrinks.
print("\nregularized ascent, table potential:")
for eps, lr, steps in ((1.0, 1.0, 1500), (0.1, 0.4, 2500), (0.01, 0.05, 6000)):
    model = wail.create_model("tabular", (n,), seed=0)
    fit, _, _ = wail.reg_ot_fit(pair, metric, wail.DualRegularization("l2", eps),
                                model, steps=steps, lr=lr)
    value = wail.reg_dual_objective(fit.params, fit.params, pair, metric,
                                    wail.DualRegularization("l2", eps))
    print(f"  eps={eps:<5}: value {value:.6f}  |value - W1| = {abs(value - primal):.6f}")
print(f"  exact W1  : {primal:.6f}")
