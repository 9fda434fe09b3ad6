import json
import math

import numpy as np
import pytest

import wail
from wail import (OccupancyMeasure, SoftmaxPolicy, TabularMdp,
                  bellman_flow_residual, causal_entropy, expected_reward,
                  occupancy_from_policy, policy_from_occupancy,
                  sample_trajectories, soft_value_iteration)

from conftest import dense_transition, deterministic_policy, random_mdp, two_state_chain


def pooled_frequencies(trajs, n_states, n_actions):
    counts = np.zeros((n_states, n_actions))
    np.add.at(counts, (trajs.states, trajs.actions), 1.0)
    return counts / counts.sum()


# 0 -> 1 -> 1 over two states and one action, as (row, col, prob) entries
TO_ONE = ([0, 1], [1, 1], [1.0, 1.0])


def two_state(transition=TO_ONE, start=(0.5, 0.5), gamma=0.9):
    return TabularMdp(transition, start, gamma, [[0.0], [1.0]], [[1.0]])


class TestValidation:
    def test_bad_transition_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            two_state(([0, 1], [0, 1], [0.5, 1.0]))   # row 0 sums to 0.5

    @pytest.mark.parametrize("entries,message", [
        (([0, 2], [1, 1], [1.0, 1.0]), "must lie in"),          # row past S * A
        (([0, 1], [1, 2], [1.0, 1.0]), "must lie in"),          # next state past S
        (([0, -1], [1, 1], [1.0, 1.0]), "must lie in"),
        (([0, 1], [1, -1], [1.0, 1.0]), "must lie in"),
        (([0, 0], [0, 1], [0.5, 0.5]), "row 1 has no"),         # row 1 missing
        (([0, 1, 1], [1, 0, 1], [1.0, 0.0, 0.0]), "row 1 has no"),   # only zeros
        (([0, 1, 1], [1, 0, 1], [1.0, -0.5, 1.5]), "non-negative"),
        (([0, 1], [1, 1], [1.0]), "1-D arrays of one length"),
        (([0.0, 1.0], [1, 1], [1.0, 1.0]), "integers"),
        ((np.array([0, 1]), np.array([1, 1])), "not a dense"),
    ])
    def test_bad_entries_rejected(self, entries, message):
        with pytest.raises(ValueError, match=message):
            two_state(entries)

    def test_dense_array_rejected(self):
        P = np.zeros((2, 1, 2))
        P[:, 0, 1] = 1.0
        with pytest.raises(ValueError, match="not a dense"):
            two_state(P)
        assert two_state(wail.entries_from_dense(P)).transition[1].tolist() == [1, 1]

    def test_repeated_entries_summed_in_order_and_sorted(self):
        # 0.1 + 0.2 + 0.7 in input order; the other order rounds differently
        mdp = two_state(([1, 0, 0, 1, 0], [1, 1, 1, 0, 1], [0.5, 0.1, 0.2, 0.5, 0.7]))
        row, col, prob = mdp.transition
        assert row.tolist() == [0, 1, 1] and col.tolist() == [1, 0, 1]
        assert prob.tolist() == [0.1 + 0.2 + 0.7, 0.5, 0.5]
        assert 0.1 + 0.2 + 0.7 != 0.7 + 0.2 + 0.1
        assert not prob.flags.writeable

    def test_start_must_be_strictly_positive(self):
        with pytest.raises(ValueError):
            two_state(start=[1.0, 0.0])

    def test_gamma_open_interval(self):
        for g in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                TabularMdp(([0], [0], [1.0]), [1.0], g, [[0.0]], [[1.0]])

    def test_gamma_horizon_capped(self):
        # gamma = 0.999999999999 (a horizon of 1.4e13 steps) used to leave
        # soft value iteration running for hours; each case here is only
        # constructed, never run
        cap = wail.mdp.MAX_HORIZON
        just_in, just_out = (math.exp(math.log(1e-6) / (cap + d)) for d in (-0.5, 0.5))
        assert wail.default_max_len(just_in) == cap
        for g in (0.999, just_in):
            TabularMdp(([0], [0], [1.0]), [1.0], g, [[0.0]], [[1.0]])
        for g in (just_out, 1 - 1e-5, 0.999999999999):
            with pytest.raises(ValueError, match=f"gamma {g}: horizon .* > MAX_HORIZON {cap}"):
                TabularMdp(([0], [0], [1.0]), [1.0], g, [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="MAX_HORIZON"):
            wail.make_gridworld(5, gamma=0.999999999999)

    def test_occupancy_mass_checked(self):
        with pytest.raises(ValueError):
            OccupancyMeasure(np.full((2, 2), 0.3))
        with pytest.raises(ValueError):
            OccupancyMeasure(np.array([[0.5, -0.1], [0.3, 0.3]]))

    @pytest.mark.parametrize("field", ["transition", "start", "state_embed", "action_embed",
                                       "true_reward"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, field, bad):
        # NaN fails every < and > check, so a NaN transition or start used to
        # give an all-NaN occupancy instead of an error
        args = {"transition": TO_ONE, "start": np.array([0.5, 0.5]), "gamma": 0.9,
                "state_embed": np.array([[0.0], [1.0]]), "action_embed": np.array([[1.0]]),
                "true_reward": np.zeros((2, 1))}
        TabularMdp(**args)
        if field == "transition":
            args[field] = (*TO_ONE[:2], [1.0, bad])
        else:
            args[field] = args[field].copy()
            args[field].flat[-1] = bad
        with pytest.raises(ValueError, match="must be finite|must sum to 1"):
            TabularMdp(**args)

    def test_non_finite_occupancy_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                OccupancyMeasure(np.array([[0.5, bad], [0.25, 0.25]]))

    def test_policy_rows_strictly_positive(self):
        with pytest.raises(ValueError):
            SoftmaxPolicy(np.array([[0.0, -800.0]]))   # underflows to exact 0


class TestOccupancy:
    def test_singleton_mdp(self):
        mdp = TabularMdp(([0], [0], [1.0]), [1.0], 0.9, [[0.0]], [[1.0]])
        rho = occupancy_from_policy(mdp, SoftmaxPolicy.uniform(1, 1))
        assert np.allclose(rho.rho, [[1.0]])

    def test_two_state_chain_closed_form(self):
        # Flow solve: d0 = (1-g), d1 = g; with one action rho = d.
        mdp = two_state_chain(gamma=0.5)
        rho = occupancy_from_policy(mdp, SoftmaxPolicy.uniform(2, 1))
        assert np.abs(rho.rho - np.array([[0.5], [0.5]])).max() < 1e-8

    def test_flow_residual_small_on_random_mdps(self, rng):
        for t in range(20):
            mdp = random_mdp(6, 3, 0.9, seed=t)
            pol = SoftmaxPolicy(rng.normal(size=(6, 3)))
            rho = occupancy_from_policy(mdp, pol)
            assert bellman_flow_residual(mdp, rho) <= 1e-8
            assert abs(rho.rho.sum() - 1.0) <= 1e-8

    def test_solve_keeps_the_marginal_its_residual_check_summed(self, rng):
        # the flow check reads the measure's marginal, so the first
        # state_marginal() read finds it kept, with rho.sum(axis=1)'s bits
        mdp = random_mdp(6, 3, 0.9, seed=3)
        rho = occupancy_from_policy(mdp, SoftmaxPolicy(rng.normal(size=(6, 3))))
        assert "_marginal" in vars(rho)
        assert rho.state_marginal().tobytes() == rho.rho.sum(axis=1).tobytes()

    def test_residual_of_a_measure_is_the_residual_of_its_array(self, rng):
        for t in range(5):
            mdp = random_mdp(6, 3, 0.9, seed=20 + t)
            rho = OccupancyMeasure(rng.dirichlet(np.ones(18)).reshape(6, 3))
            assert bellman_flow_residual(mdp, rho) == bellman_flow_residual(mdp, np.array(rho.rho))

    def test_matches_monte_carlo_restart_chain(self):
        # Independent oracle: simulate the restart chain directly and compare
        # pooled frequencies across replicate chains, within 3 standard errors.
        mdp = random_mdp(5, 3, 0.9, seed=11)
        pol = SoftmaxPolicy.uniform(5, 3)
        rho = occupancy_from_policy(mdp, pol).rho
        rng = np.random.default_rng(2024)
        n_chains, steps = 20, 50_000
        counts = np.zeros((n_chains, 5, 3))
        pi_cum = pol.probs.cumsum(axis=1)
        P_cum = dense_transition(mdp).cumsum(axis=2)
        mu_cum = mdp.start.cumsum()
        s = np.searchsorted(mu_cum, rng.random(n_chains))
        for _ in range(steps):
            a = (pi_cum[s] < rng.random(n_chains)[:, None]).sum(axis=1)
            np.add.at(counts, (np.arange(n_chains), s, a), 1.0)
            restart = rng.random(n_chains) < (1.0 - mdp.gamma)
            s_next = (P_cum[s, a] < rng.random(n_chains)[:, None]).sum(axis=1)
            s_new = np.searchsorted(mu_cum, rng.random(n_chains))
            s = np.where(restart, s_new, s_next)
        freqs = counts / steps
        est = freqs.mean(axis=0)
        se = freqs.std(axis=0, ddof=1) / math.sqrt(n_chains)
        assert np.all(np.abs(est - rho) <= 3.0 * se + 1e-9)

    def test_dimension_mismatch_rejected(self):
        mdp = two_state_chain()
        with pytest.raises(ValueError):
            occupancy_from_policy(mdp, SoftmaxPolicy.uniform(3, 1))


class TestPolicyOccupancyBijection:
    def test_single_action_round(self):
        rho = OccupancyMeasure(np.array([[0.5], [0.5]]))
        pol = policy_from_occupancy(rho)
        assert np.allclose(pol.probs, 1.0)

    def test_row_normalization(self):
        rho = OccupancyMeasure(np.array([[0.3, 0.1], [0.4, 0.2]]))
        pol = policy_from_occupancy(rho)
        assert np.allclose(pol.probs[0], [0.75, 0.25])

    def test_round_trip_identity(self, rng):
        for t in range(100):
            S, A = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            mdp = random_mdp(S, A, float(rng.uniform(0.3, 0.97)), seed=1000 + t)
            pol = SoftmaxPolicy(rng.normal(size=(S, A)) * 2)
            rho = occupancy_from_policy(mdp, pol)
            back = policy_from_occupancy(rho)
            mass = rho.rho.sum(axis=1)
            err = np.abs(back.probs - pol.probs)[mass > 1e-12].max()
            assert err < 1e-8

    def test_zero_mass_rows_get_uniform(self):
        rho = OccupancyMeasure(np.array([[1.0, 0.0], [0.0, 0.0]]))
        pol = policy_from_occupancy(rho)
        assert np.allclose(pol.probs[1], 0.5)


class TestCausalEntropy:
    def test_deterministic_policy_zero(self):
        mdp = random_mdp(4, 3, 0.9, seed=5)
        pol = deterministic_policy([0, 1, 2, 0], 3)
        assert 0.0 <= causal_entropy(mdp, pol) <= 1e-6

    def test_uniform_policy_closed_form(self):
        mdp = random_mdp(6, 4, 0.9, seed=6)
        H = causal_entropy(mdp, SoftmaxPolicy.uniform(6, 4))
        assert abs(H - math.log(4) / 0.1) < 1e-9

    def test_matches_definition_on_mc_occupancy(self):
        # Oracle: H = sum rho(s,a) (-log pi) / (1-gamma) with rho estimated by
        # pooling restart-chain trajectories.
        mdp = random_mdp(4, 2, 0.8, seed=7)
        rng = np.random.default_rng(3)
        pol = SoftmaxPolicy(rng.normal(size=(4, 2)))
        trajs = sample_trajectories(mdp, pol, 40_000, seed=12)
        freq = pooled_frequencies(trajs, 4, 2)
        H_mc = (freq * (-pol.log_probs)).sum() / (1 - mdp.gamma)
        assert abs(causal_entropy(mdp, pol) - H_mc) < 0.02

    def test_invariant_under_action_relabeling(self, rng):
        mdp = random_mdp(4, 3, 0.9, seed=8)
        logits = rng.normal(size=(4, 3))
        perm = np.array([2, 0, 1])
        mdp_p = TabularMdp(wail.entries_from_dense(dense_transition(mdp)[:, perm, :]),
                           mdp.start, mdp.gamma,
                           mdp.state_embed, mdp.action_embed[perm])
        H1 = causal_entropy(mdp, SoftmaxPolicy(logits))
        H2 = causal_entropy(mdp_p, SoftmaxPolicy(logits[:, perm]))
        assert abs(H1 - H2) < 1e-12


class TestExpectedReward:
    def test_zero_and_constant(self):
        mdp = random_mdp(3, 2, 0.9, seed=9)
        rho = occupancy_from_policy(mdp, SoftmaxPolicy.uniform(3, 2))
        assert expected_reward(rho, np.zeros((3, 2))) == 0.0
        assert abs(expected_reward(rho, np.full((3, 2), 2.5)) - 2.5) < 1e-12

    def test_shape_mismatch(self):
        rho = OccupancyMeasure(np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            expected_reward(rho, np.zeros((3, 2)))

    def test_matches_discounted_rollout_oracle(self):
        # Oracle: (1-gamma) * mean of sum_t gamma^t r over plain (no-restart)
        # rollouts long enough that the tail is negligible.
        mdp = random_mdp(4, 3, 0.85, seed=10)
        rng = np.random.default_rng(17)
        pol = SoftmaxPolicy(rng.normal(size=(4, 3)))
        R = rng.normal(size=(4, 3))
        exact = expected_reward(occupancy_from_policy(mdp, pol), R)
        n, horizon = 100_000, 90   # gamma^90 ~ 4.5e-7
        pi_cum = pol.probs.cumsum(axis=1)
        P_cum = dense_transition(mdp).cumsum(axis=2)
        s = np.searchsorted(mdp.start.cumsum(), rng.random(n))
        returns = np.zeros(n)
        disc = 1.0
        for _ in range(horizon):
            a = (pi_cum[s] < rng.random(n)[:, None]).sum(axis=1)
            returns += disc * R[s, a]
            disc *= mdp.gamma
            s = (P_cum[s, a] < rng.random(n)[:, None]).sum(axis=1)
        est = (1 - mdp.gamma) * returns
        se = est.std(ddof=1) / math.sqrt(n)
        assert abs(est.mean() - exact) <= 3 * se


class TestSampling:
    def test_gamma_to_zero_gives_length_one(self):
        mdp = random_mdp(3, 2, 1e-9, seed=20)
        trajs = sample_trajectories(mdp, SoftmaxPolicy.uniform(3, 2), 200, seed=0)
        assert np.all(trajs.lengths == 1)
        assert trajs.restarted.all()

    def test_deterministic_given_seed(self):
        mdp = random_mdp(4, 2, 0.8, seed=21)
        pol = SoftmaxPolicy.uniform(4, 2)
        a = sample_trajectories(mdp, pol, 50, seed=7)
        b = sample_trajectories(mdp, pol, 50, seed=7)
        assert len(a) == len(b)
        assert np.array_equal(a.lengths, b.lengths)
        assert np.array_equal(a.pairs(), b.pairs())
        assert np.array_equal(a.restarted, b.restarted)

    def test_two_state_chain_frequencies(self):
        mdp = two_state_chain(gamma=0.5)
        trajs = sample_trajectories(mdp, SoftmaxPolicy.uniform(2, 1), 100_000, seed=5)
        freq = pooled_frequencies(trajs, 2, 1)
        assert np.abs(freq - np.array([[0.5], [0.5]])).max() < 0.01

    def test_max_len_truncates(self):
        mdp = random_mdp(3, 2, 0.99, seed=22)
        trajs = sample_trajectories(mdp, SoftmaxPolicy.uniform(3, 2), 50, max_len=4, seed=1)
        assert np.all(trajs.lengths <= 4)
        assert not trajs.restarted.all()


class TestSoftValueIteration:
    def test_symmetric_rewards_give_uniform(self):
        mdp = random_mdp(1, 2, 0.7, seed=30)
        pol = soft_value_iteration(mdp, np.zeros((1, 2)), lam=1.0)
        assert np.allclose(pol.probs, 0.5, atol=1e-9)

    def test_small_gamma_closed_form(self):
        # gamma -> 0 reduces to a softmax of the immediate rewards.
        mdp = TabularMdp(([0, 1], [0, 0], [1.0, 1.0]), [1.0], 1e-9, [[0.0]], np.eye(2))
        pol = soft_value_iteration(mdp, np.array([[1.0, 0.0]]), lam=1.0)
        expect = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
        assert np.abs(pol.probs[0] - expect).max() < 1e-6

    def test_optimality_against_perturbations(self, rng):
        mdp = random_mdp(5, 3, 0.9, seed=31)
        R = rng.normal(size=(5, 3))
        lam = 0.5
        star = soft_value_iteration(mdp, R, lam, tol=1e-12)

        def value(pol):
            rho = occupancy_from_policy(mdp, pol)
            return (expected_reward(rho, R) / (1 - mdp.gamma)
                    + lam * causal_entropy(mdp, pol))

        v_star = value(star)
        for _ in range(50):
            pert = SoftmaxPolicy(star.logits + rng.normal(size=(5, 3)) * rng.uniform(0.01, 2))
            assert v_star >= value(pert) - 1e-6

    def test_invariant_to_constant_reward_shift(self, rng):
        mdp = random_mdp(4, 3, 0.9, seed=32)
        R = rng.normal(size=(4, 3))
        p1 = soft_value_iteration(mdp, R, lam=0.7)
        p2 = soft_value_iteration(mdp, R + 3.7, lam=0.7)
        assert np.abs(p1.probs - p2.probs).max() < 1e-8

    def test_nonconvergence_reported(self):
        # these iterates end in a rounding cycle at residual 4.4e-16, so a
        # tol below it is never reached: the sweep cap reports it
        mdp = random_mdp(3, 2, 0.5, seed=5, with_reward=True)
        soft_value_iteration(mdp, mdp.true_reward, lam=3.0, tol=1e-15)
        with pytest.raises(RuntimeError, match="residual"):
            soft_value_iteration(mdp, mdp.true_reward, lam=3.0, tol=1e-16)

    def test_sweep_cap_follows_gamma(self):
        # at gamma = 0.999 the 5x5 grid needs about 23 000 sweeps to reach
        # the default tol, past any fixed cap of 10 000
        mdp = wail.make_gridworld(5, gamma=0.999)
        pol = soft_value_iteration(mdp, mdp.true_reward, lam=0.01)
        assert np.all(np.isfinite(pol.logits))


class TestSerialization:
    def test_mdp_json_round_trip(self, tmp_path):
        mdp = random_mdp(4, 3, 0.9, seed=40, with_reward=True)
        path = tmp_path / "mdp.json"
        wail.save_mdp(path, mdp)
        back = wail.load_mdp(path)
        for got, want in zip(back.transition, mdp.transition):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        doc = json.loads(path.read_text())
        assert set(doc["transition"]) == {"row", "col", "prob"}
        assert np.array_equal(back.start, mdp.start)
        assert back.gamma == mdp.gamma
        assert np.array_equal(back.true_reward, mdp.true_reward)
        assert np.array_equal(back.state_embed, mdp.state_embed)

    def test_mdp_json_rejects_the_dense_format(self):
        mdp = random_mdp(3, 2, 0.9, seed=42)
        doc = wail.mdp_to_json(mdp) | {"transition": dense_transition(mdp).tolist()}
        with pytest.raises(ValueError, match="not a dense array"):
            wail.mdp_from_json(doc)

    @pytest.mark.parametrize("change,named", [
        ({"gamma": "0.9"}, "'gamma'"), ({"gamma": True}, "'gamma'"), ({"start": None}, "'start'"),
        ({"state_embed": "x"}, "'state_embed'"), ({"transition": {"row": [0], "col": [0]}}, "'prob'"),
        ({"transition": {"row": [0], "col": [0], "prob": ["1"]}}, "'prob'"),
    ])
    def test_mdp_json_names_a_missing_or_mistyped_key(self, change, named):
        # "gamma": "0.9" used to be read by float(); a missing key raised
        # KeyError and a list document TypeError
        doc = wail.mdp_to_json(random_mdp(3, 2, 0.9, seed=43)) | change
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(ValueError, match=named):
            wail.mdp_from_json(doc)

    def test_mdp_json_must_be_an_object(self, tmp_path):
        path = tmp_path / "mdp.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="JSON object"):
            wail.load_mdp(path)

    def test_trajectory_jsonl_round_trip(self, tmp_path):
        mdp = random_mdp(3, 2, 0.8, seed=41)
        trajs = sample_trajectories(mdp, SoftmaxPolicy.uniform(3, 2), 10, seed=3)
        path = tmp_path / "trajs.jsonl"
        wail.save_trajectories(path, trajs)
        back = wail.load_trajectories(path)
        assert len(back) == len(trajs)
        assert np.array_equal(trajs.lengths, back.lengths)
        assert np.array_equal(trajs.pairs(), back.pairs())
        assert np.array_equal(trajs.restarted, back.restarted)
        with open(path) as fh:
            doc = json.loads(fh.readline())
        assert set(doc) == {"steps", "truncated"}

    def test_policy_json_round_trip(self, tmp_path):
        pol = SoftmaxPolicy(np.random.default_rng(1).normal(size=(3, 2)))
        path = tmp_path / "policy.json"
        wail.save_policy(path, pol)
        assert np.array_equal(wail.load_policy(path).logits, pol.logits)


def test_embeddings_flat_index_convention():
    mdp = random_mdp(3, 2, 0.9, seed=50)
    E = wail.state_action_embeddings(mdp)
    assert E.shape == (6, mdp.state_embed.shape[1] + 2)
    np.testing.assert_array_equal(E[1 * 2 + 1], np.concatenate([mdp.state_embed[1], mdp.action_embed[1]]))


def test_default_max_len():
    assert wail.default_max_len(0.5) == math.ceil(math.log(1e-6) / math.log(0.5))
    assert wail.default_max_len(1e-9) == 1
