import math

import numpy as np
import pytest

import wail
from wail import (SoftmaxPolicy, StepSchedule, causal_entropy,
                  entropy_reg_policy_gradient, expected_reward,
                  kl_constrained_step, occupancy_from_policy, sample_trajectories,
                  soft_value_iteration, surrogate_value, weighted_kl)

from wail.trust_region import _natural_direction

from conftest import random_mdp


def fd_surrogate_gradient(mdp, policy, cost, h=1e-5):
    S, A = policy.logits.shape
    num = np.zeros(S * A)
    for i in range(S * A):
        e = np.zeros((S, A))
        e.ravel()[i] = h
        up = surrogate_value(mdp, SoftmaxPolicy(policy.logits + e), cost)
        dn = surrogate_value(mdp, SoftmaxPolicy(policy.logits - e), cost)
        num[i] = (up - dn) / (2 * h)
    return num


class TestSchedule:
    def test_constant(self):
        s = StepSchedule(0.01, 0.0)
        assert s.delta(7) == 0.01

    def test_power_decay_arithmetic(self):
        s = StepSchedule(0.01, 2.5)
        assert abs(s.delta(4) - 0.01 / 32) < 1e-18

    def test_sqrt_summability_for_fast_decay(self):
        s = StepSchedule(0.01, 2.5)
        total = s.sqrt_sum(10 ** 6)
        assert math.isfinite(total)
        # integral bound: sum k^-1.25 <= 1 + 1/0.25
        assert total <= math.sqrt(0.01) * (1 + 4) + 1e-9
        # tail from 1e4 on is bounded by the integral 4 * (1e4)^(-1/4)
        tail = total - s.sqrt_sum(10 ** 4)
        assert 0 < tail <= math.sqrt(0.01) * 4 * (10 ** 4) ** -0.25 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(-1.0)
        with pytest.raises(ValueError):
            StepSchedule(0.1, -0.5)
        with pytest.raises(ValueError):
            StepSchedule(0.1).delta(0)


class TestPolicyGradient:
    def test_single_state_closed_form(self):
        mdp = wail.TabularMdp(([0, 1], [0, 0], [1.0, 1.0]), [1.0], 1e-9, [[0.0]], np.eye(2))
        rep = entropy_reg_policy_gradient(mdp, SoftmaxPolicy.uniform(1, 2),
                                          np.array([[1.0, 0.0]]), lam=0.0)
        assert np.abs(rep.gradient - np.array([0.25, -0.25])).max() < 1e-9

    def test_constant_reward_zero_gradient(self, rng):
        mdp = random_mdp(4, 3, 0.9, seed=1)
        pol = SoftmaxPolicy(rng.normal(size=(4, 3)))
        rep = entropy_reg_policy_gradient(mdp, pol, np.full((4, 3), 3.3), lam=0.0)
        assert np.abs(rep.gradient).max() < 1e-10

    def test_matches_finite_differences(self, rng):
        for t in range(15):
            S, A = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            mdp = random_mdp(S, A, float(rng.uniform(0.3, 0.95)), seed=100 + t)
            pol = SoftmaxPolicy(rng.normal(size=(S, A)))
            R = rng.normal(size=(S, A))
            rep = entropy_reg_policy_gradient(mdp, pol, R, lam=float(rng.uniform(0, 0.5)))
            num = fd_surrogate_gradient(mdp, pol, rep.cost)
            rel = np.abs(rep.gradient - num).max() / (np.abs(num).max() + 1e-12)
            assert rel <= 1e-4

    @pytest.mark.parametrize("reward", [wail.create_model("tabular", (6,), seed=0),
                                        np.zeros((2, 3)), np.zeros(6)],
                             ids=["potential-model", "transposed", "flat"])
    def test_rejects_anything_but_an_sa_matrix(self, reward):
        # the policy step reads only the (S, A) matrix the reward step returns
        mdp = random_mdp(3, 2, 0.9, seed=2)
        with pytest.raises(ValueError, match="reward must be an"):
            entropy_reg_policy_gradient(mdp, SoftmaxPolicy.uniform(3, 2), reward)

    def test_sampled_mode_approximates_exact(self, rng):
        mdp = random_mdp(3, 2, 0.7, seed=3)
        pol = SoftmaxPolicy(rng.normal(size=(3, 2)) * 0.5)
        R = rng.normal(size=(3, 2))
        exact = entropy_reg_policy_gradient(mdp, pol, R, lam=0.0)
        sampled = entropy_reg_policy_gradient(
            mdp, pol, R, lam=0.0, batch=sample_trajectories(mdp, pol, 60_000, seed=5))
        cos = (exact.gradient @ sampled.gradient /
               (np.linalg.norm(exact.gradient) * np.linalg.norm(sampled.gradient)))
        assert cos > 0.98
        # only the gradient is sampled; the value is the exact surrogate
        assert (np.float64(sampled.surrogate_value).tobytes()
                == np.float64(exact.surrogate_value).tobytes())

    @pytest.mark.parametrize("env", [lambda: wail.make_gridworld(5), wail.make_cliff],
                             ids=["grid", "cliff"])
    def test_sampled_value_is_the_exact_surrogate(self, env):
        # the line search compares candidates' exact surrogate_value with
        # this value, so both sides must be the same function
        mdp = env()
        rng = np.random.default_rng(7)
        pol = SoftmaxPolicy(rng.normal(size=(mdp.n_states, mdp.n_actions)))
        R = rng.normal(size=(mdp.n_states, mdp.n_actions))
        report = entropy_reg_policy_gradient(mdp, pol, R, lam=0.1,
                                             batch=sample_trajectories(mdp, pol, 32, seed=1))
        assert (np.float64(report.surrogate_value).tobytes()
                == np.float64(surrogate_value(mdp, pol, report.cost)).tobytes())

    def test_report_fields(self, rng):
        mdp = random_mdp(3, 2, 0.9, seed=4)
        pol = SoftmaxPolicy.uniform(3, 2)
        rep = entropy_reg_policy_gradient(mdp, pol, np.zeros((3, 2)), lam=0.2)
        assert abs(rep.entropy - causal_entropy(mdp, pol)) < 1e-12


class TestKlConstrainedStep:
    def test_zero_delta_unchanged(self, rng):
        mdp = random_mdp(4, 3, 0.9, seed=10)
        pol = SoftmaxPolicy(rng.normal(size=(4, 3)))
        rep = entropy_reg_policy_gradient(mdp, pol, rng.normal(size=(4, 3)))
        assert kl_constrained_step(mdp, pol, rep, 0.0) is pol

    def test_zero_gradient_unchanged(self, rng):
        mdp = random_mdp(4, 3, 0.9, seed=11)
        pol = SoftmaxPolicy(rng.normal(size=(4, 3)))
        rep = entropy_reg_policy_gradient(mdp, pol, np.zeros((4, 3)))
        assert kl_constrained_step(mdp, pol, rep, 0.05) is pol

    def test_kl_bound_and_surrogate_nondecrease_100_trials(self, rng):
        for t in range(100):
            S, A = int(rng.integers(3, 7)), int(rng.integers(2, 5))
            mdp = random_mdp(S, A, float(rng.uniform(0.5, 0.95)), seed=500 + t)
            pol = SoftmaxPolicy(rng.normal(size=(S, A)))
            R = rng.normal(size=(S, A))
            rep = entropy_reg_policy_gradient(mdp, pol, R, lam=float(rng.uniform(0, 0.3)))
            new = kl_constrained_step(mdp, pol, rep, 0.01)
            kl = weighted_kl(mdp, pol, new)
            assert 0.0 <= kl <= 0.01 * 1.001
            assert surrogate_value(mdp, new, rep.cost) >= rep.surrogate_value - 1e-12

    def test_gauge_invariance_of_direction(self, rng):
        mdp = random_mdp(4, 3, 0.9, seed=12)
        logits = rng.normal(size=(4, 3))
        R = rng.normal(size=(4, 3))
        p1 = SoftmaxPolicy(logits)
        shift = np.zeros((4, 3)); shift[2, :] = 5.0   # constant per state
        p2 = SoftmaxPolicy(logits + shift)
        r1 = entropy_reg_policy_gradient(mdp, p1, R)
        r2 = entropy_reg_policy_gradient(mdp, p2, R)
        n1 = kl_constrained_step(mdp, p1, r1, 0.01)
        n2 = kl_constrained_step(mdp, p2, r2, 0.01)
        d1 = n1.logits - p1.logits
        d2 = n2.logits - p2.logits
        assert np.abs(d1 - d2).max() <= 1e-6 * (np.abs(d1).max() + 1e-12)

    def test_converges_to_soft_vi_optimum(self, rng):
        mdp = random_mdp(4, 3, 0.85, seed=13)
        R = rng.normal(size=(4, 3))
        lam = 0.4
        star = soft_value_iteration(mdp, R, lam, tol=1e-12)

        def value(p):
            rho = occupancy_from_policy(mdp, p)
            return (expected_reward(rho, R) / (1 - mdp.gamma)
                    + lam * causal_entropy(mdp, p))

        pol = SoftmaxPolicy.uniform(4, 3)
        for k in range(1, 1501):
            rep = entropy_reg_policy_gradient(mdp, pol, R, lam=lam)
            pol = kl_constrained_step(mdp, pol, rep, 0.5 / k)
        assert value(star) - value(pol) < 1e-3


class TestNaturalDirection:
    """The closed-form direction is the exact solve of the damped
    occupancy-weighted softmax Fisher system."""

    @staticmethod
    def dense_fisher(d, pi, damping):
        S, A = pi.shape
        F = damping * np.eye(S * A)
        for s in range(S):
            block = d[s] * (np.diag(pi[s]) - np.outer(pi[s], pi[s]))
            F[s * A:(s + 1) * A, s * A:(s + 1) * A] += block
        return F

    @pytest.mark.parametrize("damping", [1e-1, 1e-2, 1e-3])
    def test_matches_dense_solve(self, rng, damping):
        for t in range(20):
            S, A = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            mdp = random_mdp(S, A, float(rng.uniform(0.5, 0.95)), seed=900 + t)
            pol = SoftmaxPolicy(rng.normal(scale=2.0, size=(S, A)))
            d = occupancy_from_policy(mdp, pol).state_marginal()
            g = rng.normal(size=S * A)
            v = _natural_direction(d, pol.probs, g, damping)
            ref = np.linalg.solve(self.dense_fisher(d, pol.probs, damping), g)
            assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_tends_to_centred_advantage(self, rng):
        # (Q - V) - mean_a (Q - V): the natural gradient of a tabular
        # softmax policy, up to each state's constant direction
        mdp = random_mdp(6, 4, 0.9, seed=31)
        pol = SoftmaxPolicy(rng.normal(size=(6, 4)))
        rep = entropy_reg_policy_gradient(mdp, pol, rng.normal(size=(6, 4)), lam=0.1)
        d = occupancy_from_policy(mdp, pol).state_marginal()
        adv = rep.gradient.reshape(6, 4) / (d[:, None] * pol.probs)
        centred = (adv - adv.mean(axis=1, keepdims=True)).ravel()
        gaps = []
        for damping in (1e-3, 1e-6, 1e-9):
            v = _natural_direction(d, pol.probs, rep.gradient, damping)
            gaps.append(np.abs(v - centred).max() / np.abs(centred).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-5


def test_weighted_kl_nonnegative_and_zero_on_self(rng):
    mdp = random_mdp(4, 2, 0.9, seed=20)
    p = SoftmaxPolicy(rng.normal(size=(4, 2)))
    q = SoftmaxPolicy(rng.normal(size=(4, 2)))
    assert weighted_kl(mdp, p, p) < 1e-15
    assert weighted_kl(mdp, p, q) > 0.0
