"""One occupancy solve per policy per round.

The adversarial round solves the current policy's occupancy once and hands
it to the batch, the gradient, the causal entropy, the Fisher weights and
every KL check.  The count test bounds the solves per round, so a consumer
that starts solving again fails here instead of silently slowing the loop;
the equivalence tests show that handing the occupancy down changes no bit.
"""

import dataclasses

import numpy as np
import pytest

import wail
from wail import (RunConfig, SoftmaxPolicy, entropy_reg_policy_gradient,
                  kl_constrained_step, occupancy_from_policy, weighted_kl)

SOLVING_MODULES = (wail.mdp, wail.training, wail.trust_region, wail.baselines)


@pytest.fixture
def solve_counter(monkeypatch):
    calls = []

    def counting(mdp, policy):
        calls.append(policy)
        return occupancy_from_policy(mdp, policy)

    for module in SOLVING_MODULES:
        monkeypatch.setattr(module, "occupancy_from_policy", counting, raising=False)
    return calls


@pytest.mark.parametrize("algorithm", ["wail", "gail"])
def test_exact_round_solves_at_most_twice(solve_counter, algorithm):
    # the desk settings: 5x5 gridworld, one demonstration, exact mode
    mdp = wail.make_gridworld(5)
    _, demos = wail.make_expert(mdp, 0.01, n_traj=1, traj_len=50, seed=3)
    config = RunConfig(algorithm=algorithm, k_max=20, seed=7)
    train = wail.train_wail if algorithm == "wail" else wail.train_gail
    solve_counter.clear()
    _, _, log = train(mdp, demos, config)
    rounds = log.meta["iterations_run"]
    assert rounds == 20
    # one solve for the current policy, one per candidate passing the KL
    # check, and (wail) one for the final reward fit
    per_round = len(solve_counter) / rounds
    assert per_round <= 2.1, f"{per_round:.2f} occupancy solves per round"


def random_policy(rng, mdp):
    return SoftmaxPolicy(rng.normal(scale=2.0, size=(mdp.n_states, mdp.n_actions)))


@pytest.mark.parametrize("env", [wail.make_gridworld(4), wail.make_cliff()],
                         ids=["gridworld", "cliff"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_passed_occupancy_is_bit_identical(env, mode):
    rng = np.random.default_rng(17)
    for _ in range(5):
        policy = random_policy(rng, env)
        other = random_policy(rng, env)
        reward = rng.normal(size=(env.n_states, env.n_actions))
        occupancy = occupancy_from_policy(env, policy)
        bare = entropy_reg_policy_gradient(env, policy, reward, lam=0.1, mode=mode,
                                           n_traj=16, seed=2)
        given = entropy_reg_policy_gradient(env, policy, reward, lam=0.1, mode=mode,
                                            n_traj=16, seed=2, occupancy=occupancy)
        assert bare.gradient.tobytes() == given.gradient.tobytes()
        assert bare.surrogate_value == given.surrogate_value
        assert bare.entropy == given.entropy
        assert bare.entropy == wail.causal_entropy(env, policy)
        assert bare.occupancy.rho.tobytes() == occupancy.rho.tobytes()
        assert given.occupancy is occupancy
        assert (weighted_kl(env, policy, other)
                == weighted_kl(env, policy, other, occupancy=occupancy))
        for delta in (0.01, 0.5):
            carried = kl_constrained_step(env, policy, given, delta)
            solved = kl_constrained_step(env, policy, bare, delta)
            assert carried.logits.tobytes() == solved.logits.tobytes()


def test_rejected_step_returns_the_same_policy_object():
    mdp = wail.make_gridworld(4)
    policy = random_policy(np.random.default_rng(5), mdp)
    report = entropy_reg_policy_gradient(mdp, policy, np.zeros((mdp.n_states, mdp.n_actions)))
    report = dataclasses.replace(report, gradient=np.ones_like(report.gradient),
                                 surrogate_value=np.inf)
    assert kl_constrained_step(mdp, policy, report, 0.01) is policy


@pytest.mark.parametrize("sampling", ["exact", "sampled"])
def test_wail_run_builds_only_its_cost_blocks(monkeypatch, sampling):
    # the reward step builds the cost block it reads and never the full
    # (S*A)^2 metric: exact-mode batches pair every state-action point with
    # the fixed expert support, so one (S*A, |support|) block serves every
    # round and the final fit; a sampled round builds its own (l1, l2) block
    shapes = []
    build = wail.ot.build_ground_metric

    def counting(*args, **kwargs):
        metric = build(*args, **kwargs)
        shapes.append(metric.dist.shape)
        return metric

    monkeypatch.setattr(wail.ot, "build_ground_metric", counting)
    mdp = wail.make_gridworld(5)
    _, demos = wail.make_expert(mdp, 0.01, n_traj=1, traj_len=50, seed=3)
    config = RunConfig(k_max=20, seed=7, sampling=sampling, l1=32, l2=16)
    _, _, log = wail.train_wail(mdp, demos, config)
    assert log.meta["iterations_run"] == 20
    if sampling == "exact":
        assert log.meta["final_fit_steps"] > 0
        support = wail.ExpertData.from_any(demos, mdp).support()
        assert shapes == [(100, support.size)]
    else:
        assert shapes == [(32, 16)] * 20
