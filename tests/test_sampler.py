"""The restart-chain sampler, the demonstration rollouts and the sampled
policy gradient work on flat Rollouts arrays; these tests hold them to
per-episode references, byte for byte, and the sampler to its law.

The references below live only here: a per-episode restart-chain loop that
reads each episode's own block of the stream and draws each categorical
through a cumsum of dense probability rows, demonstrations drawn one
uniform per call, and the per-episode np.add.at score-function gradient in
factored form.
"""

import json

import numpy as np
import pytest

import wail
from wail import (Rollouts, SoftmaxPolicy, entropy_reg_policy_gradient,
                  rollout_fixed, sample_trajectories)
from wail import mdp as mdp_mod
from wail.training import expert_occupancy

from conftest import dense_transition, random_mdp, two_state_chain

CASES = {
    "grid5": lambda: wail.make_gridworld(5),
    "grid14-slip": lambda: wail.make_gridworld(14, slip=0.2),
    "grid30": lambda: wail.make_gridworld(30),
    "cliff": lambda: wail.make_cliff(),
    "chain": lambda: wail.make_chain(),
    "mountain-car": lambda: wail.make_mountain_car(),
    "random-dense": lambda: random_mdp(30, 3, 0.9, seed=77, with_reward=True),
}
SEEDS = (0, 1, 2)


def _categorical(prob_row, u):
    return min(int((np.cumsum(prob_row) < u).sum()), prob_row.size - 1)


def _row_categorical(prob_rows, rng):
    cs = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0])
    idx = (cs < u[:, None]).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def from_episodes(steps, restarted):
    """One Rollouts batch from per-episode (T, 2) step arrays."""
    pairs = np.concatenate(steps)
    return Rollouts(lengths=[len(st) for st in steps], restarted=restarted,
                    states=pairs[:, 0], actions=pairs[:, 1])


def episodes(batch):
    """Per-episode (T, 2) step arrays of a batch."""
    pairs = batch.pairs()
    return [pairs[lo:lo + n] for lo, n in zip(batch.starts, batch.lengths)]


def ref_sample(mdp, policy, n, max_len=None, seed=0):
    """Episode by episode: all n start uniforms, all n geometric lengths,
    then each episode's block of 2 * length uniforms, an action uniform
    and a next-state uniform per step (the last next state goes unused)."""
    if max_len is None:
        max_len = wail.default_max_len(mdp.gamma)
    rng = np.random.default_rng(seed)
    pi = policy.probs
    P = dense_transition(mdp)
    start_u = rng.random(n)
    restart_at = rng.geometric(1.0 - mdp.gamma, size=n)
    out, flags = [], []
    for i in range(n):
        T = int(min(max(restart_at[i], 1), max_len))
        u = rng.random(2 * T)
        steps = np.zeros((T, 2), dtype=np.int64)
        s = _categorical(mdp.start, start_u[i])
        for t in range(T):
            a = _categorical(pi[s], u[2 * t])
            steps[t] = (s, a)
            s = _categorical(P[s, a], u[2 * t + 1])
        out.append(steps)
        flags.append(bool(restart_at[i] <= max_len))
    return from_episodes(out, flags)


def ref_rollout_fixed(mdp, policy, n, length, seed=0):
    rng = np.random.default_rng(seed)
    pi = policy.probs
    P = dense_transition(mdp)
    out = []
    for _ in range(n):
        steps = np.zeros((length, 2), dtype=np.int64)
        s = int(_row_categorical(mdp.start[None, :], rng)[0])
        for t in range(length):
            a = int(_row_categorical(pi[s][None, :], rng)[0])
            steps[t] = (s, a)
            s = int(_row_categorical(P[s, a][None, :], rng)[0])
        out.append(steps)
    return from_episodes(out, [False] * n)


def ref_gradient(mdp, policy, cost, trajs):
    """G(s, a) and T(s) summed with np.add.at episode by episode, then
    G - T pi."""
    pi = policy.probs
    G = np.zeros_like(pi)
    T = np.zeros(pi.shape[0])
    for steps in episodes(trajs):
        s, a = steps[:, 0], steps[:, 1]
        togo = np.cumsum(cost[s, a][::-1])[::-1]
        np.add.at(G, (s, a), togo)
        np.add.at(T, s, togo)
    grad = (G - T[:, None] * pi) * ((1.0 - mdp.gamma) / len(trajs))
    return grad.ravel()


def assert_same_batch(batch, ref):
    assert isinstance(batch, Rollouts)
    assert len(batch) == len(ref)
    assert batch.lengths.tobytes() == ref.lengths.tobytes()
    assert batch.restarted.tobytes() == ref.restarted.tobytes()
    assert batch.states.tobytes() == ref.states.tobytes()
    assert batch.actions.tobytes() == ref.actions.tobytes()


def random_policy(mdp, seed):
    rng = np.random.default_rng(seed)
    return SoftmaxPolicy(2.0 * rng.normal(size=(mdp.n_states, mdp.n_actions)))


@pytest.fixture(scope="module", params=sorted(CASES))
def env(request):
    return CASES[request.param]()


@pytest.mark.parametrize("seed", SEEDS)
def test_sampler_matches_lockstep_reference(env, seed):
    policy = random_policy(env, seed)
    assert_same_batch(sample_trajectories(env, policy, 64, seed=seed),
                      ref_sample(env, policy, 64, seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_and_value_match_per_episode_loop(env, seed):
    policy = random_policy(env, seed)
    reward = np.random.default_rng(100 + seed).normal(size=(env.n_states, env.n_actions))
    lam = 0.1
    batch = sample_trajectories(env, policy, 64, seed=seed)
    report = entropy_reg_policy_gradient(env, policy, reward, lam=lam, batch=batch)
    grad = ref_gradient(env, policy, reward - lam * policy.log_probs,
                        ref_sample(env, policy, 64, seed=seed))
    assert report.gradient.tobytes() == grad.tobytes()


def test_gradient_rejects_a_batch_outside_the_mdp():
    # a state or action past the MDP's used to fail as an IndexError in cost[s, a]
    mdp = wail.make_gridworld(3)
    policy = SoftmaxPolicy.uniform(9, 4)
    for states, actions in (([0, 9], [0, 0]), ([0, 1], [4, 0])):
        batch = Rollouts(lengths=[2], restarted=[True], states=states, actions=actions)
        with pytest.raises(ValueError, match="inside the MDP"):
            entropy_reg_policy_gradient(mdp, policy, np.zeros((9, 4)), batch=batch)


@pytest.mark.parametrize("seed", SEEDS)
def test_rollout_fixed_matches_per_call_draws(env, seed):
    policy = random_policy(env, seed)
    assert_same_batch(rollout_fixed(env, policy, 5, 30, seed=seed),
                      ref_rollout_fixed(env, policy, 5, 30, seed=seed))


def test_length_and_restart_shares_follow_the_truncated_geometric():
    gamma, max_len, n = 0.9, 5, 200_000
    mdp = random_mdp(3, 2, gamma, seed=23)
    batch = sample_trajectories(mdp, random_policy(mdp, 0), n, max_len=max_len, seed=9)
    expected = [(1 - gamma) * gamma ** (l - 1) for l in range(1, max_len)] + [gamma ** (max_len - 1)]
    shares = np.bincount(batch.lengths, minlength=max_len + 1)[1:] / n
    for p, share in zip(expected + [1 - gamma ** max_len],
                        list(shares) + [batch.restarted.mean()]):
        assert abs(share - p) <= 4 * np.sqrt(p * (1 - p) / n)
    # only an episode of max_len steps can be truncated
    assert batch.restarted[batch.lengths < max_len].all()


def test_batch_does_not_depend_on_the_chunk_size(monkeypatch):
    mdp = wail.make_gridworld(4)
    policy = random_policy(mdp, 5)
    whole = sample_trajectories(mdp, policy, 40, seed=6)
    monkeypatch.setattr(mdp_mod, "_SAMPLE_CHUNK", 3)
    assert_same_batch(sample_trajectories(mdp, policy, 40, seed=6), whole)


def test_episodes_come_back_in_draw_order():
    # the chain steps the episodes sorted by length; the batch must not be,
    # since the policy batch reads its first episodes
    mdp = wail.make_gridworld(5)
    batch = sample_trajectories(mdp, random_policy(mdp, 2), 50, seed=11)
    rng = np.random.default_rng(11)
    rng.random(50)
    drawn = np.minimum(rng.geometric(1.0 - mdp.gamma, size=50), wail.default_max_len(mdp.gamma))
    assert np.array_equal(batch.lengths, drawn)
    assert np.any(np.diff(batch.lengths) > 0) and np.any(np.diff(batch.lengths) < 0)


@pytest.mark.parametrize("draw, name", [
    (lambda mdp, policy, v: sample_trajectories(mdp, policy, v), "n"),
    (lambda mdp, policy, v: sample_trajectories(mdp, policy, 2, max_len=v), "max_len"),
    (lambda mdp, policy, v: rollout_fixed(mdp, policy, v, 5), "n"),
    (lambda mdp, policy, v: rollout_fixed(mdp, policy, 2, v), "length"),
    (lambda mdp, policy, v: wail.episode_returns(mdp, policy, v), "n"),
], ids=["sample-n", "sample-max_len", "fixed-n", "fixed-length", "returns-n"])
def test_sizes_must_be_positive_integers(draw, name):
    # True used to draw one episode, 2.5 to fail with a bare TypeError
    mdp = wail.make_gridworld(3)
    policy = random_policy(mdp, 0)
    for bad in (True, np.True_, 2.5, 4.0, "3"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            draw(mdp, policy, bad)
    for bad in (0, -2):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            draw(mdp, policy, bad)
    draw(mdp, policy, np.int64(2))


def test_chunk_boundary():
    mdp = wail.make_gridworld(3)
    policy = random_policy(mdp, 3)
    n = mdp_mod._SAMPLE_CHUNK + 1
    batch = sample_trajectories(mdp, policy, n, seed=4)
    assert len(batch) == n
    assert_same_batch(batch, ref_sample(mdp, policy, n, seed=4))


def test_max_len_truncation():
    mdp = random_mdp(3, 2, 0.99, seed=22)
    policy = random_policy(mdp, 0)
    batch = sample_trajectories(mdp, policy, 50, max_len=4, seed=1)
    assert batch.lengths.max() == 4 and not batch.restarted.all()
    assert_same_batch(batch, ref_sample(mdp, policy, 50, max_len=4, seed=1))


def test_gamma_to_zero_gives_length_one_episodes():
    mdp = random_mdp(3, 2, 1e-9, seed=20)
    policy = random_policy(mdp, 0)
    batch = sample_trajectories(mdp, policy, 200, seed=0)
    assert np.all(batch.lengths == 1) and batch.restarted.all()
    assert_same_batch(batch, ref_sample(mdp, policy, 200, seed=0))


class TestRollouts:
    def test_validation(self):
        ok = dict(lengths=[2, 1], restarted=[True, False], states=[0, 1, 2], actions=[1, 0, 0])
        Rollouts(**ok)
        for bad in (dict(lengths=[3, 0], states=[0, 1, 2]),
                    dict(states=[0, -1, 2]),
                    dict(actions=[0, 0]),
                    dict(restarted=[True]),
                    dict(lengths=[], restarted=[], states=[], actions=[])):
            with pytest.raises(ValueError):
                Rollouts(**(ok | bad))

    def test_fractional_or_boolean_entries_rejected(self):
        # a float array used to be truncated: lengths [1.5, 1], states
        # [0.9, 2.2] and actions [1.7, 0.2] were kept as [1, 1], [0, 2], [1, 0]
        ok = dict(lengths=[1, 1], restarted=[True, False], states=[0, 2], actions=[1, 0])
        Rollouts(**ok)
        for name, bad in (("lengths", [1.5, 1]), ("states", [0.9, 2.2]),
                          ("actions", [1.7, 0.2]), ("lengths", [True, True]),
                          ("states", [0.0, 2.0]), ("actions", [True, False])):
            with pytest.raises(ValueError, match=f"{name} must be integers"):
                Rollouts(**(ok | {name: bad}))

    def test_restart_flags_must_be_booleans(self):
        # [0.5, "no"] used to be stored as [True, True]
        ok = dict(lengths=[1, 1], restarted=[True, False], states=[0, 1], actions=[0, 0])
        Rollouts(**ok)
        for bad in ([0.5, "no"], [1, 0], [0.0, 1.0]):
            with pytest.raises(ValueError, match="restarted must be booleans"):
                Rollouts(**(ok | {"restarted": bad}))
        with pytest.raises(ValueError, match="need at least one episode"):
            Rollouts(lengths=[], restarted=[], states=[], actions=[])

    def test_views_agree(self):
        mdp = wail.make_gridworld(4)
        batch = sample_trajectories(mdp, random_policy(mdp, 1), 30, max_len=12, seed=2)
        assert len(batch) == 30
        per_episode = [np.stack([batch.states[lo:lo + n], batch.actions[lo:lo + n]], axis=1)
                       for lo, n in zip(batch.starts, batch.lengths)]
        assert np.array_equal(batch.pairs(), np.concatenate(per_episode))
        assert np.array_equal(expert_occupancy(batch, mdp).rho,
                              expert_occupancy(batch.pairs(), mdp).rho)

    def test_jsonl_matches_per_trajectory_writer(self, tmp_path):
        mdp = wail.make_gridworld(4)
        batch = sample_trajectories(mdp, random_policy(mdp, 1), 30, max_len=12, seed=2)
        wail.save_trajectories(tmp_path / "batch.jsonl", batch)
        expected = "".join(json.dumps({"steps": steps.tolist(), "truncated": not restarted}) + "\n"
                           for steps, restarted in zip(episodes(batch), batch.restarted))
        assert (tmp_path / "batch.jsonl").read_text() == expected
        assert_same_batch(wail.load_trajectories(tmp_path / "batch.jsonl"), batch)
        # an empty file reads as lengths [], a float64 array, and still
        # fails as empty
        for text, message in (("", "need at least one episode"),
                              ('{"steps": [], "truncated": false}\n', "non-empty")):
            (tmp_path / "bad.jsonl").write_text(text)
            with pytest.raises(ValueError, match=message):
                wail.load_trajectories(tmp_path / "bad.jsonl")


@pytest.mark.parametrize("shape", [(9, 4), (25, 3), (36, 4)])
def test_policy_shape_mismatch_rejected(shape):
    # a smaller policy used to raise IndexError mid-draw, a larger one ran silently
    mdp = wail.make_gridworld(5)
    policy = SoftmaxPolicy(np.zeros(shape))
    for draw in (lambda: sample_trajectories(mdp, policy, 4),
                 lambda: rollout_fixed(mdp, policy, 2, 5),
                 lambda: wail.episode_returns(mdp, policy, 4)):
        with pytest.raises(ValueError, match="policy shape"):
            draw()
