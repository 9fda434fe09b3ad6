"""Occupancy measures on a tabular MDP.

Shows the exact flow solve behind every policy evaluation in this package:
a policy induces a normalized discounted state-action visitation, the
visitation satisfies a linear balance equation, and the two representations
convert back and forth exactly on the visited support.
"""

import numpy as np

import wail

rng = np.random.default_rng(0)

# A random 6-state, 3-action MDP with a strictly positive start distribution.
# TabularMdp keeps P only as its nonzero (row s * A + a, next state, prob)
# entries; entries_from_dense reads them off a dense P[s, a, s'].
S, A, gamma = 6, 3, 0.9
P = rng.dirichlet(np.ones(S), size=(S, A))
mu0 = rng.dirichlet(np.ones(S)) + 0.05
mu0 /= mu0.sum()
mdp = wail.TabularMdp(wail.entries_from_dense(P), mu0, gamma,
                      state_embed=rng.normal(size=(S, 2)), action_embed=np.eye(A))

policy = wail.SoftmaxPolicy(rng.normal(size=(S, A)))
rho = wail.occupancy_from_policy(mdp, policy)

print("occupancy matrix rho(s, a):")
print(np.round(rho.rho, 4))
print(f"total mass           : {rho.rho.sum():.12f}")
print(f"Bellman flow residual: {wail.bellman_flow_residual(mdp, rho):.2e}")

# The mapping back to a policy recovers the original one exactly.
recovered = wail.policy_from_occupancy(rho)
print(f"round-trip max error : {np.abs(recovered.probs - policy.probs).max():.2e}")

# Monte-Carlo sanity check: pooled restart-chain frequencies converge to rho.
batch = wail.sample_trajectories(mdp, policy, 50_000, seed=1)
counts = np.bincount(batch.states * A + batch.actions, minlength=S * A).reshape(S, A)
freq = counts / counts.sum()
print(f"empirical vs exact   : max |diff| = {np.abs(freq - rho.rho).max():.4f} "
      f"over {batch.states.size} sampled steps")

# Expected reward is an inner product; cumulative value divides by 1 - gamma.
R = rng.normal(size=(S, A))
print(f"<r, rho>             : {wail.expected_reward(rho, R):+.6f}")
print(f"cumulative value     : {wail.expected_reward(rho, R) / (1 - gamma):+.6f}")
print(f"causal entropy       : {wail.causal_entropy(mdp, policy):.4f}")
