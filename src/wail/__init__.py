"""Imitation learning on tabular MDPs via regularized optimal transport.

The reward function is learned as the dual potential of a 1-Wasserstein
problem between policy and expert occupancy measures; the policy improves
by KL-constrained natural-gradient steps against the frozen reward.  Exact
linear-programming OT oracles and an exact soft-RL oracle back every
component, and GAIL / behavior-cloning baselines share the policy stack.
"""

from .analysis import (PcaPlane, SurfaceGrid, default_bounds, disc_surface_fn,
                       load_surface, model_surface_fn, pca_fit, pca_inverse,
                       pca_project, relative_lipschitz, reward_surface,
                       save_surface, surface_total_variation)
from .baselines import (DiscriminatorStep, disc_probs, gail_discriminator_step,
                        gail_objective, gail_reward_matrix, train_bc, train_gail)
from .config import RunConfig, load_config, save_config
from .envs import (EvalResult, build_environment, episode_returns, evaluate,
                   make_chain, make_cliff, make_expert, make_gridworld,
                   make_mountain_car, reference_returns, rollout_fixed)
from .experiments import (derived_seeds, load_summary, run_experiment_grid, run_single,
                          save_summary)
from .mdp import (LOGIT_GAP, FlowSystem, OccupancyMeasure, Rollouts, SoftmaxPolicy,
                  TabularMdp, bellman_flow_residual, causal_entropy, default_max_len,
                  entries_from_dense, expected_reward, load_mdp, load_policy, load_trajectories,
                  mdp_from_json, mdp_to_json, occupancy_from_policy,
                  policy_from_occupancy, save_mdp, save_policy, save_trajectories,
                  sample_trajectories, soft_value_iteration, state_action_embeddings)
from .ot import (DiscreteMeasurePair, DivergenceError, DualRegularization,
                 GroundMetric, build_ground_metric, reg_dual_gradient,
                 reg_dual_objective, reg_ot_fit, w1_dual_lp, w1_primal_lp)
from .rewards import (PotentialModel, clone_frozen, create_model, load_model,
                      model_from_json, model_to_json, reward_matrix, save_model,
                      support_values)
from .training import (OtDualStep, RunLog, WailState, adversarial_train, expert_occupancy,
                       train_wail, wail_iteration)
from .trust_region import (PolicyGradientReport, StepSchedule,
                           entropy_reg_policy_gradient, kl_constrained_step,
                           surrogate_value, weighted_kl)

__version__ = "0.1.0"
