"""The entropy-regularized RL oracle and the evaluation protocol.

Soft value iteration solves a gridworld exactly at a chosen temperature;
sampled rollouts of the resulting expert score 1.0 on the scale anchored by
the expert and a uniform random policy.
"""

import numpy as np

import wail

mdp = wail.build_environment({"name": "gridworld", "n": 5, "slip": 0.05})
print(f"gridworld: {mdp.n_states} states, {mdp.n_actions} actions, gamma={mdp.gamma}")

expert, demos = wail.make_expert(mdp, lambda_expert=0.01, n_traj=5, traj_len=50, seed=0)
reached = np.logical_or.reduceat(demos.states == 24, demos.starts).sum()
print(f"expert demos reaching the goal: {reached}/{len(demos)}")

# Greedy-action map of the expert (0=up 1=down 2=left 3=right, G=goal).
arrows = np.array(["^", "v", "<", ">"])
grid = arrows[expert.probs.argmax(axis=1)].reshape(5, 5)
grid[4, 4] = "G"
print("expert policy:")
for row in grid:
    print("  " + " ".join(row))

expert_ref, random_ref = wail.reference_returns(mdp, expert, n_ref=500, seed=1)
print(f"reference returns: expert {expert_ref:.3f}, random {random_ref:.3f}")

for name, policy in (("expert", expert),
                     ("uniform", wail.SoftmaxPolicy.uniform(25, 4))):
    res = wail.evaluate(mdp, policy, n_eval=500, seed=2,
                        expert_ref=expert_ref, random_ref=random_ref)
    print(f"{name:>8}: mean return {res.mean:7.3f}  scaled score {res.scaled:+.3f}")

# Raising the temperature trades reward for entropy.
print("\ntemperature sweep (value of the entropy-regularized objective):")
for lam in (0.01, 0.1, 0.5):
    pol = wail.soft_value_iteration(mdp, mdp.true_reward, lam=lam)
    rho = wail.occupancy_from_policy(mdp, pol)
    value = wail.expected_reward(rho, mdp.true_reward) / (1 - mdp.gamma)
    print(f"  lam={lam:<5}: cumulative reward {value:.3f}, "
          f"causal entropy {wail.causal_entropy(mdp, pol):7.3f}")
