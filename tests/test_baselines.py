import math

import numpy as np

import wail
from wail import RunConfig, SoftmaxPolicy
from wail.baselines import (disc_probs, gail_discriminator_step, gail_objective,
                            gail_reward_matrix, train_bc, train_gail)
from wail.rewards import accumulate_param_grad, create_model, support_values

from conftest import deterministic_policy, random_mdp


def embed_table(n, dim, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dim))


def batch_of(indices, weights=None):
    idx = np.asarray(indices)
    w = np.full(idx.size, 1.0 / idx.size) if weights is None else np.asarray(weights)
    return idx, w


def probs(logit, batch, table):
    return disc_probs(support_values(logit, batch[0], table[batch[0]]))


def objective_gradient(logit, eb, pb, table):
    d_e, d_p = probs(logit, eb, table), probs(logit, pb, table)
    return (accumulate_param_grad(logit, eb[0], table[eb[0]], -eb[1] * d_e)
            + accumulate_param_grad(logit, pb[0], table[pb[0]], pb[1] * (1 - d_p)))


class TestDiscriminatorObjective:
    def test_constant_half_discriminator(self):
        logit = create_model("tabular", (4,), seed=0)   # zero logits -> D = 0.5
        table = embed_table(4, 2)
        eb = batch_of([0, 1])
        pb = batch_of([2, 3])
        assert abs(gail_objective(logit, eb, pb, table) - 2 * math.log(0.5)) < 1e-12

    def test_identical_batches_stationary_at_half(self):
        logit = create_model("tabular", (4,), seed=0)
        table = embed_table(4, 2)
        b = batch_of([0, 1, 2])
        grad = objective_gradient(logit, b, b, table)
        assert np.abs(grad).max() < 1e-15

    def test_separable_batches_saturate(self):
        logit = create_model("tabular", (6,), seed=0)
        table = embed_table(6, 2)
        eb = batch_of([0, 1, 2])
        pb = batch_of([3, 4, 5])
        for _ in range(10_000):
            logit, _ = gail_discriminator_step(logit, eb, pb, table, lr=1.0)
        d_policy = probs(logit, pb, table)
        d_expert = probs(logit, eb, table)
        assert np.all(d_policy >= 0.99)
        assert np.all(d_expert <= 0.01)

    def test_loss_increases_under_ascent(self):
        logit = create_model("mlp", (3, 6, 5), seed=1)
        table = embed_table(8, 3, seed=2)
        eb = batch_of([0, 1, 2, 3])
        pb = batch_of([4, 5, 6, 7])
        before = gail_objective(logit, eb, pb, table)
        for _ in range(200):
            at_start = gail_objective(logit, eb, pb, table)
            logit, objective = gail_discriminator_step(logit, eb, pb, table, lr=0.05)
            assert objective == at_start   # the step reports where it started
        assert gail_objective(logit, eb, pb, table) > before

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-5
        for t in range(30):
            form, dims = (("tabular", (6,)) if t % 2 else ("mlp", (3, 5, 4)))
            logit = create_model(form, dims, seed=t)
            logit.params = rng.normal(size=logit.params.size) * 0.5
            table = embed_table(6, 3, seed=t)
            eb = batch_of(rng.integers(0, 6, size=4))
            pb = batch_of(rng.integers(0, 6, size=5))
            g = objective_gradient(logit, eb, pb, table)
            num = np.zeros_like(g)
            for i in range(g.size):
                up = logit.copy(); up.params[i] += h
                dn = logit.copy(); dn.params[i] -= h
                num[i] = (gail_objective(up, eb, pb, table)
                          - gail_objective(dn, eb, pb, table)) / (2 * h)
            rel = np.abs(g - num).max() / (np.abs(num).max() + 1e-12)
            assert rel <= 1e-4


class TestSurrogateReward:
    # -log D at one state-action point: a 1-state, 2-action MDP's (0, 0) entry
    mdp = random_mdp(1, 2, 0.9, seed=0)

    def test_half(self):
        logit = create_model("tabular", (2,), seed=0)
        assert abs(gail_reward_matrix(logit, self.mdp)[0, 0] - math.log(2)) < 1e-12

    def test_clamped_high(self):
        logit = create_model("tabular", (2,), seed=0)
        logit.params[:] = 200.0
        assert abs(gail_reward_matrix(logit, self.mdp)[0, 0] + math.log(1 - 1e-6)) < 1e-9

    def test_clamped_low(self):
        logit = create_model("tabular", (2,), seed=0)
        logit.params[:] = -200.0
        assert abs(gail_reward_matrix(logit, self.mdp)[0, 0] - math.log(1e6)) < 1e-9

    def test_outputs_strictly_inside_unit_interval(self, rng):
        logit = create_model("tabular", (5,), seed=0)
        logit.params = rng.normal(size=5) * 500
        d = disc_probs(support_values(logit, np.arange(5), None))
        assert np.all(d > 0) and np.all(d < 1)


class TestEquilibriumDegeneracy:
    def test_same_measure_batches_concentrate_at_half(self, rng):
        # Policy and expert batches drawn from one measure and the
        # discriminator trained to its optimum: -log D collapses to -log 0.5.
        table = embed_table(8, 3, seed=5)
        w = rng.dirichlet(np.ones(8))
        eb = batch_of(np.arange(8), w)
        pb = batch_of(np.arange(8), w)
        logit = create_model("tabular", (8,), seed=0)
        logit.params = rng.normal(size=8)   # start away from 0.5
        for _ in range(5000):
            logit, _ = gail_discriminator_step(logit, eb, pb, table, lr=0.5)
        surr = -np.log(probs(logit, batch_of(np.arange(8)), table))
        mean = w @ surr
        std = math.sqrt(w @ (surr - mean) ** 2)
        assert std <= 0.1
        assert abs(mean - math.log(2)) < 0.05


class TestTrainGail:
    def test_zero_iterations(self):
        mdp = random_mdp(3, 2, 0.9, seed=6)
        demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(3, 2), 2, 10, seed=0)
        policy, logit, log = train_gail(mdp, demos, RunConfig(k_max=0))
        assert np.array_equal(policy.logits, np.zeros((3, 2)))
        assert log.rows == []

    def test_deterministic(self):
        mdp = random_mdp(3, 2, 0.9, seed=7)
        demos = wail.rollout_fixed(mdp, deterministic_policy([0, 0, 1], 2), 4, 10, seed=1)
        cfg = RunConfig(k_max=20, seed=9)
        p1, d1, log1 = train_gail(mdp, demos, cfg)
        p2, d2, log2 = train_gail(mdp, demos, cfg)
        assert np.array_equal(p1.logits, p2.logits)
        assert np.array_equal(d1.params, d2.params)
        assert log1.rows == log2.rows

    def test_imitates_single_action_expert(self):
        rng = np.random.default_rng(0)
        to_action = ([0, 1, 2, 3], [0, 1, 0, 1], np.ones(4))   # action a moves to state a
        mdp = wail.TabularMdp(to_action, [0.6, 0.4], 0.9, rng.normal(size=(2, 2)), np.eye(2))
        demos = wail.rollout_fixed(mdp, deterministic_policy([0, 0], 2), 5, 20, seed=2)
        policy, _, _ = train_gail(mdp, demos, RunConfig(k_max=300, seed=0))
        assert policy.probs[0, 0] >= 0.9 and policy.probs[1, 0] >= 0.9

    def test_reward_matrix_shape_and_range(self):
        mdp = random_mdp(3, 2, 0.9, seed=8)
        logit = create_model("tabular", (6,), seed=0)
        R = gail_reward_matrix(logit, mdp)
        assert R.shape == (3, 2)
        assert np.all(R > 0) and np.all(R <= -math.log(1e-6) + 1e-12)


class TestTrainBc:
    def test_single_pair_mle(self):
        pol = train_bc(random_mdp(2, 3, 0.9, seed=0), np.array([[0, 1]]))
        assert pol.probs[0, 1] >= 0.99

    def test_empirical_conditionals_recovered(self):
        pairs = np.array([[0, 0]] * 3 + [[0, 1]] * 1)
        pol = train_bc(random_mdp(1, 2, 0.9, seed=0), pairs)
        assert np.abs(pol.probs[0] - [0.75, 0.25]).max() < 1e-12

    def test_unvisited_states_stay_uniform(self):
        pol = train_bc(random_mdp(3, 4, 0.9, seed=0), np.array([[0, 0]]))
        assert np.all(pol.probs[1:] == 0.25)

    def test_total_variation_on_random_counts(self, rng):
        # states 0-3 visited (some actions never taken), states 4-5 not
        counts = rng.integers(1, 20, size=(6, 3)) * (rng.random((6, 3)) < 0.7)
        counts[:4, 0] += 1
        counts[4:] = 0
        pairs = np.concatenate([np.full((counts[s, a], 2), (s, a))
                                for s in range(6) for a in range(3)])
        pol = train_bc(random_mdp(6, 3, 0.9, seed=0), pairs)
        freq = counts[:4] / counts[:4].sum(axis=1, keepdims=True)
        tv = np.abs(pol.probs[:4] - freq).sum(axis=1).max() / 2
        assert tv < 1e-12
        assert np.all(pol.probs[4:] == 1.0 / 3.0)

    def test_accepts_trajectories_with_mdp(self):
        mdp = random_mdp(3, 2, 0.9, seed=9)
        demos = wail.rollout_fixed(mdp, deterministic_policy([1, 1, 1], 2), 3, 10, seed=0)
        pol = train_bc(mdp, demos)
        visited = np.unique(demos.states)
        assert all(pol.probs[s, 1] > 0.99 for s in visited)
