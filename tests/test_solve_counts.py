"""One occupancy solve and one flow factorization per policy.

Each policy's flow system is assembled (factored, above
DENSE_SOLVE_MAX_STATES states) once, in a FlowSystem that the policy keeps,
which serves its value solve and keeps its occupancy: the first
occupancy_from_policy call on the policy solves it, and the batch, the
gradient, the causal entropy, the Fisher weights, every KL check, the
logged true return and the final reward fit read the kept measure through
the same call.  The line
search returns the accepted candidate, whose record its surrogate check
solved, to the next round.  The count tests count the transposed
(occupancy) solves, the reads and the factorizations of a run, so a
consumer that starts solving or factoring again fails here instead of
silently slowing the loop; the equivalence tests show that reading through
a kept record changes no bit.  One more count test holds an exact S = 900
WAIL run to at most two OT passes that walk the whole cost block.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import wail
from wail import (RunConfig, SoftmaxPolicy, entropy_reg_policy_gradient,
                  kl_constrained_step, occupancy_from_policy, sample_trajectories,
                  weighted_kl)
from wail.mdp import FlowSystem, action_values

SOLVING_MODULES = (wail.mdp, wail.training, wail.trust_region, wail.baselines)


@pytest.fixture
def solve_counter(monkeypatch):
    """Calls of occupancy_from_policy: reads of an occupancy, solved or kept."""
    calls = []

    def counting(mdp, policy):
        calls.append(policy)
        return occupancy_from_policy(mdp, policy)

    for module in SOLVING_MODULES:
        monkeypatch.setattr(module, "occupancy_from_policy", counting, raising=False)
    return calls


@pytest.fixture
def transposed_solves(monkeypatch):
    """The records that ran a transposed (occupancy) solve, once per solve."""
    records = []
    solve = FlowSystem.solve

    def counting(self, rhs, transpose=False):
        if transpose:
            records.append(self)
        return solve(self, rhs, transpose=transpose)

    monkeypatch.setattr(FlowSystem, "solve", counting)
    return records


@pytest.fixture
def line_search_calls(monkeypatch):
    """The policies of the line search's surrogate checks, one per candidate
    passing the KL check, and the weighted_kl calls of the line search and
    of the loop's logged kl_step."""
    surrogates, kl_evals = [], []
    surrogate_value = wail.trust_region.surrogate_value

    def counting_surrogate(mdp, policy, cost):
        surrogates.append(policy)
        return surrogate_value(mdp, policy, cost)

    def counting_kl(mdp, old, new):
        kl_evals.append(old)
        return weighted_kl(mdp, old, new)

    monkeypatch.setattr(wail.trust_region, "surrogate_value", counting_surrogate)
    for module in (wail.trust_region, wail.training):
        monkeypatch.setattr(module, "weighted_kl", counting_kl)
    return surrogates, kl_evals


def assert_one_solve_per_record(records, surrogates):
    # the uniform start policy's record, then one per candidate passing the
    # KL check, solved by its surrogate check; the accepted one's kept
    # measure serves the next round and the last one's the final reward fit
    assert len(records) == 1 + len(surrogates)
    assert len({id(r) for r in records}) == len(records)


@pytest.mark.parametrize("algorithm", ["wail", "gail"])
def test_exact_round_solves_at_most_twice(solve_counter, transposed_solves, line_search_calls,
                                          algorithm):
    # the desk settings: 5x5 gridworld, one demonstration, exact mode
    mdp = wail.make_gridworld(5)
    _, demos = wail.make_expert(mdp, 0.01, n_traj=1, traj_len=50, seed=3)
    config = RunConfig(algorithm=algorithm, k_max=20, seed=7)
    train = wail.train_wail if algorithm == "wail" else wail.train_gail
    surrogates, kl_evals = line_search_calls
    solve_counter.clear()
    transposed_solves.clear()
    _, _, log = train(mdp, demos, config)
    rounds = log.meta["iterations_run"]
    assert rounds == 20
    assert_one_solve_per_record(transposed_solves, surrogates)
    per_round = len(transposed_solves) / rounds
    assert per_round <= 2.1, f"{per_round:.2f} occupancy solves per round"
    # reads: the batch, the gradient, the causal entropy, the Fisher
    # weights and the logged true return each round, one per KL evaluation
    # and per surrogate check, and (wail) one for the final reward fit
    final_fit = 1 if algorithm == "wail" else 0
    assert len(solve_counter) == 5 * rounds + len(kl_evals) + len(surrogates) + final_fit


def random_policy(rng, mdp):
    return SoftmaxPolicy(rng.normal(scale=2.0, size=(mdp.n_states, mdp.n_actions)))


@pytest.mark.parametrize("env", [wail.make_gridworld(4), wail.make_cliff()],
                         ids=["gridworld", "cliff"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_passed_occupancy_is_bit_identical(env, mode):
    # a policy whose record is kept against a fresh twin (equal logits,
    # another policy object, no record yet)
    rng = np.random.default_rng(17)
    for _ in range(5):
        policy = random_policy(rng, env)
        other = random_policy(rng, env)
        reward = rng.normal(size=(env.n_states, env.n_actions))
        occupancy = occupancy_from_policy(env, policy)
        twin = SoftmaxPolicy(policy.logits)
        assert twin._flow is None
        batch = None if mode == "exact" else sample_trajectories(env, policy, 16, seed=2)
        fresh = entropy_reg_policy_gradient(env, twin, reward, lam=0.1, batch=batch)
        kept = entropy_reg_policy_gradient(env, policy, reward, lam=0.1, batch=batch)
        assert fresh.gradient.tobytes() == kept.gradient.tobytes()
        assert fresh.surrogate_value == kept.surrogate_value
        assert fresh.entropy == kept.entropy
        assert fresh.entropy == wail.causal_entropy(env, SoftmaxPolicy(policy.logits))
        assert kept.entropy == wail.causal_entropy(env, policy)
        assert occupancy_from_policy(env, twin).rho.tobytes() == occupancy.rho.tobytes()
        assert occupancy_from_policy(env, policy) is occupancy
        assert (weighted_kl(env, SoftmaxPolicy(policy.logits), other)
                == weighted_kl(env, policy, other))
        for delta in (0.01, 0.5):
            carried = kl_constrained_step(env, policy, kept, delta)
            solved = kl_constrained_step(env, SoftmaxPolicy(policy.logits), fresh, delta)
            assert carried.logits.tobytes() == solved.logits.tobytes()


def test_rejected_step_returns_the_same_policy_object(transposed_solves):
    mdp = wail.make_gridworld(4)
    policy = random_policy(np.random.default_rng(5), mdp)
    report = entropy_reg_policy_gradient(mdp, policy, np.zeros((mdp.n_states, mdp.n_actions)))
    report = dataclasses.replace(report, gradient=np.ones_like(report.gradient),
                                 surrogate_value=np.inf)
    flow = policy._flow
    step = kl_constrained_step(mdp, policy, report, 0.01)
    # the old policy comes back with its own record, so the next round
    # reads the measure it already has
    assert step is policy and step._flow is flow
    transposed_solves.clear()
    occupancy_from_policy(mdp, step)
    assert transposed_solves == []


def test_sparse_run_factors_once_per_policy(factored, solve_counter, transposed_solves,
                                            line_search_calls):
    # the scale-exact settings: 30x30 gridworld (S = 900, the splu side),
    # ten demonstrations, a 0.1 KL budget, 20 rounds
    surrogates, kl_evals = line_search_calls
    mdp = wail.build_environment({"name": "gridworld", "n": 30})
    config = RunConfig(k_max=20, dataset_size=10, delta0=0.1, seed=7)
    _, demos = wail.make_expert(mdp, config.expert_lambda, n_traj=config.dataset_size,
                                traj_len=config.traj_len, seed=3)
    factored.clear()
    solve_counter.clear()
    transposed_solves.clear()
    _, _, log = wail.train_wail(mdp, demos, config)
    rounds = log.meta["iterations_run"]
    assert rounds == 20 and log.meta["final_fit_steps"] > 0
    # the uniform start policy, then each candidate passing the KL check
    # once: the accepted one's factor serves the next round's value solve,
    # and its kept occupancy the next round's reads and the final reward fit
    assert [system.shape for system, _ in factored] == [(900, 900)] * (1 + len(surrogates))
    assert_one_solve_per_record(transposed_solves, surrogates)
    # the reads are more than the solves: the batch, the gradient, the
    # causal entropy, the Fisher weights and the logged true return each
    # round, one per KL evaluation and per surrogate check, one for the
    # final fit
    assert len(solve_counter) == 5 * rounds + len(kl_evals) + len(surrogates) + 1


def test_scale_exact_run_walks_its_cost_block_at_most_twice():
    # the same settings: 20 rounds make 41 OT passes (one a round, 20
    # final-fit steps and one for the fit's objective); the first builds
    # the l2 screen, and the rest read it, refreshing the rows and columns
    # that moved instead of walking the 3600-row cost block again
    mdp = wail.build_environment({"name": "gridworld", "n": 30})
    config = RunConfig(k_max=20, dataset_size=10, delta0=0.1, seed=7)
    _, demos = wail.make_expert(mdp, config.expert_lambda, n_traj=config.dataset_size,
                                traj_len=config.traj_len, seed=3)
    _, _, log = wail.train_wail(mdp, demos, config)
    assert log.meta["ot_passes"] == 41
    assert log.meta["ot_screen_rebuilds"] <= 2 and log.meta["ot_screen_refreshes"] > 0


@pytest.mark.parametrize("n", [30, 5], ids=["splu-S900", "dense-S25"])
def test_record_keeps_its_occupancy(transposed_solves, n):
    mdp = wail.make_gridworld(n)
    rng = np.random.default_rng(31)
    policy = random_policy(rng, mdp)
    first = occupancy_from_policy(mdp, policy)
    flow = policy._flow
    assert transposed_solves == [flow]
    # a second read of the same policy returns the kept measure, unsolved
    assert occupancy_from_policy(mdp, policy) is first
    assert transposed_solves == [flow]
    # a twin (equal logits, another policy object) solves on its own
    # record, to the same bytes
    twin = SoftmaxPolicy(policy.logits)
    fresh = occupancy_from_policy(mdp, twin)
    assert transposed_solves == [flow, twin._flow] and twin._flow is not flow
    assert fresh is not first and fresh.rho.tobytes() == first.rho.tobytes()


@pytest.mark.parametrize("n", [30, 5], ids=["splu-S900", "dense-S25"])
def test_one_record_serves_both_solves_bit_identically(n):
    mdp = wail.make_gridworld(n)
    rng = np.random.default_rng(23)
    for _ in range(3):
        policy = random_policy(rng, mdp)
        cost = rng.normal(size=(mdp.n_states, mdp.n_actions))
        shared_rho = occupancy_from_policy(mdp, policy).rho
        flow = policy._flow
        shared_Q, shared_V = action_values(mdp, policy, cost)
        assert policy._flow is flow
        # each solve on its own record, through a twin policy each
        assert shared_rho.tobytes() == occupancy_from_policy(
            mdp, SoftmaxPolicy(policy.logits)).rho.tobytes()
        Q, V = action_values(mdp, SoftmaxPolicy(policy.logits), cost)
        assert shared_Q.tobytes() == Q.tobytes()
        assert shared_V.tobytes() == V.tobytes()
        # and a second read of the same policy returns the kept measure
        assert occupancy_from_policy(mdp, policy).rho.tobytes() == shared_rho.tobytes()


@pytest.mark.parametrize("n", [30, 4], ids=["splu", "dense"])
def test_record_of_another_mdp_is_not_reused(transposed_solves, n):
    mdp = wail.make_gridworld(n)
    rng = np.random.default_rng(29)
    policy = random_policy(rng, mdp)
    first = occupancy_from_policy(mdp, policy)
    flow = policy._flow
    # an equal MDP is still another object: the record is matched by
    # identity, never by comparing arrays, so the policy solves on that
    # MDP's own record and keeps it
    elsewhere = wail.make_gridworld(n)
    kept = occupancy_from_policy(elsewhere, policy)
    assert policy._flow is not flow and policy._flow.mdp is elsewhere
    assert transposed_solves == [flow, policy._flow]
    assert kept is not first and kept.rho.tobytes() == first.rho.tobytes()
    with pytest.raises(ValueError, match="does not match MDP"):
        FlowSystem(mdp, SoftmaxPolicy.uniform(mdp.n_states + 1, mdp.n_actions))


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
        support = np.flatnonzero(wail.expert_occupancy(demos, mdp).flat())
        assert shapes == [(100, support.size)]
    else:
        assert shapes == [(32, 16)] * 20


def test_dropped_policy_frees_its_record_without_the_cycle_collector():
    # the record does not refer back to its policy, so reference counting
    # alone frees it (an LU factor above DENSE_SOLVE_MAX_STATES states)
    mdp = wail.make_gridworld(4)
    policy = random_policy(np.random.default_rng(3), mdp)
    occupancy_from_policy(mdp, policy)
    record = weakref.ref(policy._flow)
    gc.disable()
    try:
        del policy
        assert record() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("algorithm", ["wail", "gail"])
def test_returned_policy_carries_no_record(algorithm):
    # the loop's last record (an LU factor on large MDPs) is freed with the
    # loop: the returned policy is a fresh copy, equal in every byte
    mdp = wail.make_gridworld(4)
    _, demos = wail.make_expert(mdp, 0.01, n_traj=1, traj_len=20, seed=3)
    train = wail.train_wail if algorithm == "wail" else wail.train_gail
    policy, _, _ = train(mdp, demos, RunConfig(algorithm=algorithm, k_max=3, seed=7))
    assert policy._flow is None
