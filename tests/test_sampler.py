"""The restart-chain sampler, the demonstration rollouts, the scoring
rollouts and the sampled policy gradient work on flat arrays; these tests
hold them to per-episode or per-step references, byte for byte, and the
sampler to its law.

The references below live only here: a per-episode restart-chain loop that
reads each episode's own block of the stream and draws each step's (a, s')
through a cumsum of the dense joint row pi(a|s) P(s'|s,a), demonstrations
drawn one uniform per call, the per-step scoring loop that drew two
uniform vectors a step, and the per-episode np.add.at score-function
gradient in factored form.
"""

import json

import numpy as np
import pytest

import wail
from wail import (Rollouts, SoftmaxPolicy, entropy_reg_policy_gradient,
                  rollout_fixed, sample_trajectories)
from wail import envs as envs_mod
from wail import mdp as mdp_mod
from wail.training import expert_occupancy

from conftest import dense_transition, random_mdp

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


def joint_rows(mdp, policy):
    """The dense joint rows pi(a|s) P(s'|s,a), (S, A * S), a-major."""
    S, A = mdp.n_states, mdp.n_actions
    return (policy.probs[:, :, None] * dense_transition(mdp)).reshape(S, A * S)


def ref_sample(mdp, policy, n, max_len=None, seed=0):
    """Episode by episode: all n start uniforms, all n geometric lengths,
    then each episode's block of `length` uniforms, one per step, each
    drawing (a, s') = divmod(j, S) from the dense joint row of s (the last
    next state goes unused)."""
    if max_len is None:
        max_len = wail.default_max_len(mdp.gamma)
    rng = np.random.default_rng(seed)
    joint = joint_rows(mdp, policy)
    S = mdp.n_states
    start_u = rng.random(n)
    restart_at = rng.geometric(1.0 - mdp.gamma, size=n)
    out, flags = [], []
    for i in range(n):
        T = int(min(max(restart_at[i], 1), max_len))
        u = rng.random(T)
        steps = np.zeros((T, 2), dtype=np.int64)
        s = _categorical(mdp.start, start_u[i])
        for t in range(T):
            a, s_next = divmod(_categorical(joint[s], u[t]), S)
            steps[t] = (s, a)
            s = s_next
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


def test_joint_draws_at_the_edges():
    # rows whose total falls short of 1 by rounding, several nonzeros a row:
    # u = 0 draws (0, 0), a draw past the joint total (A-1, S-1), and draws
    # at the running sums or at random the dense joint inverse CDF's
    rng = np.random.default_rng(8)
    S, A = 7, 3
    P = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            cols = rng.choice(S, size=int(rng.integers(1, 4)), replace=False)
            P[s, a, cols] = rng.dirichlet(np.ones(cols.size)) * (1.0 - 5e-11)
    env = wail.TabularMdp(wail.entries_from_dense(P), np.full(S, 1.0 / S), 0.9,
                          np.zeros((S, 1)), np.eye(A))
    states, past = np.arange(S), np.full(S, 1.0 - 1e-12)
    for policy in (random_policy(env, 3), SoftmaxPolicy.uniform(S, A)):
        cum, code = mdp_mod._joint_rows(env, policy)
        joint = joint_rows(env, policy).cumsum(axis=1)
        assert np.all(joint[:, -1] < past)
        for u in (np.zeros(S), past, joint[:, 0], joint[:, S + 2], joint.max(axis=1),
                  rng.random(S)):
            flat, s_next = np.divmod(code[mdp_mod._inverse_cdf(cum, states, u), states], S)
            ref = np.minimum((joint < u[:, None]).sum(axis=1), A * S - 1)
            assert np.array_equal(flat, states * A + ref // S)
            assert np.array_equal(s_next, ref % S)
            if u is past:
                assert np.all(flat == states * A + A - 1) and np.all(s_next == S - 1)
            elif not u.any():
                assert np.all(flat == states * A) and np.all(s_next == 0)


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


LAW_CASES = ("grid14-slip", "cliff", "random-dense")


def visit_frequencies(mdp, policy, seed, replicates=100, n=400):
    """Pooled (S * A) visit frequencies of `replicates` sampler calls, the
    spread of the calls' own frequencies as a standard error, and the number
    of pairs pooled."""
    S, A = mdp.n_states, mdp.n_actions
    batches = [sample_trajectories(mdp, policy, n, seed=seed + r) for r in range(replicates)]
    freq = np.array([np.bincount(b.states * A + b.actions, minlength=S * A) / len(b.states)
                     for b in batches])
    return (freq.mean(axis=0), freq.std(axis=0, ddof=1) / np.sqrt(replicates),
            sum(len(b.states) for b in batches))


def standard_error(spread, freq, pairs):
    """The spread floored at a cell's Poisson error sqrt(freq / pairs), so
    that a cell no call visits has one."""
    return np.maximum(spread, np.sqrt(freq / pairs))


@pytest.mark.parametrize("case", LAW_CASES)
def test_visit_frequencies_follow_the_occupancy(case):
    # the restart chain's pairs are distributed as rho: each episode holds
    # rho / (1 - gamma) of each pair in expectation, 1 / (1 - gamma) in all
    mdp = CASES[case]()
    policy = random_policy(mdp, 0)
    rho = wail.occupancy_from_policy(mdp, policy).rho.ravel()
    mean, spread, pairs = visit_frequencies(mdp, policy, seed=40)
    assert np.all(np.abs(mean - rho) <= 4 * standard_error(spread, rho, pairs))


def relabel_states(mdp, policy, perm):
    """New state i is old state perm[i]."""
    P = dense_transition(mdp)[perm][:, :, perm]
    return (wail.TabularMdp(wail.entries_from_dense(P), mdp.start[perm], mdp.gamma,
                            mdp.state_embed[perm], mdp.action_embed),
            SoftmaxPolicy(policy.logits[perm]))


def relabel_actions(mdp, policy, perm):
    """New action b is old action perm[b]."""
    P = dense_transition(mdp)[:, perm]
    return (wail.TabularMdp(wail.entries_from_dense(P), mdp.start, mdp.gamma,
                            mdp.state_embed, mdp.action_embed[perm]),
            SoftmaxPolicy(policy.logits[:, perm]))


@pytest.mark.parametrize("case", LAW_CASES)
@pytest.mark.parametrize("relabel", ["states", "actions"])
def test_visit_frequencies_do_not_depend_on_the_labels(case, relabel):
    # the joint rows are laid out a-major with s' ascending; relabelling
    # reorders them, which changes the draws but not their law
    mdp = CASES[case]()
    policy = random_policy(mdp, 1)
    S, A = mdp.n_states, mdp.n_actions
    perm = np.random.default_rng(5).permutation(S if relabel == "states" else A)
    moved_mdp, moved_policy = (relabel_states if relabel == "states" else relabel_actions)(
        mdp, policy, perm)
    mean, spread, pairs = visit_frequencies(mdp, policy, seed=60)
    se = standard_error(spread, mean, pairs)
    moved, spread, pairs = visit_frequencies(moved_mdp, moved_policy, seed=60)
    moved_se = standard_error(spread, moved, pairs).reshape(S, A)
    moved = moved.reshape(S, A)
    back, back_se = np.empty_like(moved), np.empty_like(moved_se)
    if relabel == "states":
        back[perm], back_se[perm] = moved, moved_se
    else:
        back[:, perm], back_se[:, perm] = moved, moved_se
    assert np.all(np.abs(back.ravel() - mean) <= 4 * np.hypot(se, back_se.ravel()))


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


def ref_step_loop_returns(mdp, policy, n, seed):
    """episode_returns as its per-step loop was written: two uniform
    vectors a step from the generator, the flat row computed twice."""
    rng = np.random.default_rng(seed)
    reward = mdp.true_reward.ravel()
    s = np.minimum(np.searchsorted(mdp.start.cumsum(), rng.random(n)), mdp.n_states - 1)
    returns = np.zeros(n)
    disc = 1.0
    for _ in range(wail.default_max_len(mdp.gamma)):
        a = policy.draw_actions(s, rng.random(n))
        returns += disc * reward[s * mdp.n_actions + a]
        disc *= mdp.gamma
        s = mdp_mod.next_states(mdp, s, a, rng.random(n))
    return returns


@pytest.fixture(scope="module", params=sorted(envs_mod._BUILDERS))
def scored(request):
    mdp = wail.build_environment({"name": request.param})
    return mdp, wail.make_expert(mdp)[0]


@pytest.mark.parametrize("n", [1, 500])
def test_scoring_is_the_per_step_loop(scored, n):
    mdp, expert = scored
    policy = random_policy(mdp, 4)
    returns = ref_step_loop_returns(mdp, policy, n, seed=9)
    assert wail.episode_returns(mdp, policy, n, seed=9).tobytes() == returns.tobytes()
    got = wail.evaluate(mdp, policy, n, seed=9, expert_ref=1.5, random_ref=-0.5)
    mean = float(returns.mean())
    assert got == wail.EvalResult(mean=mean, std=float(returns.std(ddof=1)) if n > 1 else 0.0,
                                  scaled=(mean - -0.5) / (1.5 - -0.5))
    uniform = SoftmaxPolicy.uniform(mdp.n_states, mdp.n_actions)
    assert wail.reference_returns(mdp, expert, n, seed=3) == (
        float(ref_step_loop_returns(mdp, expert, n, 3).mean()),
        float(ref_step_loop_returns(mdp, uniform, n, 4).mean()))


def test_mountain_car_scoring_crosses_a_uniform_block():
    mdp = wail.make_mountain_car()
    assert mdp.gamma == 0.99 and wail.default_max_len(mdp.gamma) == 1375
    assert envs_mod._UNIFORM_BLOCK // (2 * 500) < 1375 <= envs_mod._UNIFORM_BLOCK // 2


def test_scoring_does_not_depend_on_the_block_size(monkeypatch):
    mdp = wail.make_cliff()
    policy = random_policy(mdp, 2)
    whole = wail.episode_returns(mdp, policy, 40, seed=1)
    refs = wail.reference_returns(mdp, policy, 40, seed=1)
    monkeypatch.setattr(envs_mod, "_UNIFORM_BLOCK", 3 * 2 * 40 + 1)
    assert wail.episode_returns(mdp, policy, 40, seed=1).tobytes() == whole.tobytes()
    assert wail.reference_returns(mdp, policy, 40, seed=1) == refs


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
