"""The restart-chain sampler, the demonstration rollouts and the sampled
policy gradient work on flat Rollouts arrays; these tests hold them to the
per-episode code they replaced, byte for byte.

The references below live only here: the lockstep sampler that drew each
categorical through a cumsum of dense probability rows, demonstrations drawn
one uniform per call, and the per-episode np.add.at / np.subtract.at
score-function gradient.
"""

import json

import numpy as np
import pytest

import wail
from wail import (Rollouts, SoftmaxPolicy, entropy_reg_policy_gradient,
                  rollout_fixed, sample_trajectories)
from wail import mdp as mdp_mod
from wail.training import ExpertData

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


def ref_sample(mdp, policy, n, max_len=None, seed=0, chunk=mdp_mod._SAMPLE_CHUNK):
    if max_len is None:
        max_len = wail.default_max_len(mdp.gamma)
    rng = np.random.default_rng(seed)
    pi = policy.probs
    P = dense_transition(mdp)
    out, flags = [], []
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        states_buf = np.zeros((max_len, m), dtype=np.int64)
        actions_buf = np.zeros((max_len, m), dtype=np.int64)
        lengths = np.zeros(m, dtype=np.int64)
        restarted = np.zeros(m, dtype=bool)
        alive = np.arange(m)
        cur = _row_categorical(np.broadcast_to(mdp.start, (m, mdp.n_states)), rng)
        for t in range(max_len):
            acts = _row_categorical(pi[cur], rng)
            states_buf[t, alive] = cur
            actions_buf[t, alive] = acts
            lengths[alive] = t + 1
            stop = rng.random(alive.size) < (1.0 - mdp.gamma)
            restarted[alive[stop]] = True
            keep = ~stop
            if t + 1 == max_len or not keep.any():
                break
            cur = _row_categorical(P[cur[keep], acts[keep]], rng)
            alive = alive[keep]
        for i in range(m):
            T = lengths[i]
            out.append(np.stack([states_buf[:T, i], actions_buf[:T, i]], axis=1))
            flags.append(bool(restarted[i]))
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
    pi = policy.probs
    grad = np.zeros_like(pi)
    total = 0.0
    for steps in episodes(trajs):
        s, a = steps[:, 0], steps[:, 1]
        togo = np.cumsum(cost[s, a][::-1])[::-1]
        total += togo[0]
        np.add.at(grad, (s, a), togo)
        np.subtract.at(grad, s, togo[:, None] * pi[s])
    grad *= (1.0 - mdp.gamma) / len(trajs)
    return grad.ravel(), (1.0 - mdp.gamma) * total / len(trajs)


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
    report = entropy_reg_policy_gradient(env, policy, reward, lam=lam, mode="sampled",
                                         n_traj=64, seed=seed)
    grad, value = ref_gradient(env, policy, reward - lam * policy.log_probs,
                               ref_sample(env, policy, 64, seed=seed))
    assert report.gradient.tobytes() == grad.tobytes()
    assert np.float64(report.surrogate_value).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_rollout_fixed_matches_per_call_draws(env, seed):
    policy = random_policy(env, seed)
    assert_same_batch(rollout_fixed(env, policy, 5, 30, seed=seed),
                      ref_rollout_fixed(env, policy, 5, 30, seed=seed))


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


class CountingUniforms(mdp_mod._Uniforms):
    """The sampler's uniform stream, counting refills; block=None keeps the
    sampler's block size."""

    block_override = None
    refills = 0

    def __init__(self, rng, block):
        super().__init__(rng, self.block_override or block)

    def take(self, k):
        if self.pos + k > self.buf.size:
            type(self).refills += 1
        return super().take(k)


@pytest.mark.parametrize("block", [None, 1, 5])
def test_uniform_block_refilled_mid_call(monkeypatch, block):
    counter = type("Counter", (CountingUniforms,), {"block_override": block})
    monkeypatch.setattr(mdp_mod, "_Uniforms", counter)
    mdp = two_state_chain(gamma=0.99)
    policy = SoftmaxPolicy.uniform(2, 1)
    for seed in range(20):
        assert_same_batch(sample_trajectories(mdp, policy, 2, seed=seed),
                          ref_sample(mdp, policy, 2, seed=seed))
    assert counter.refills > 0


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

    def test_views_agree(self):
        mdp = wail.make_gridworld(4)
        batch = sample_trajectories(mdp, random_policy(mdp, 1), 30, max_len=12, seed=2)
        assert len(batch) == 30
        per_episode = [np.stack([batch.states[lo:lo + n], batch.actions[lo:lo + n]], axis=1)
                       for lo, n in zip(batch.starts, batch.lengths)]
        assert np.array_equal(batch.pairs(), np.concatenate(per_episode))
        assert np.array_equal(ExpertData.from_any(batch, mdp).weights,
                              ExpertData.from_any(batch.pairs(), mdp).weights)

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
