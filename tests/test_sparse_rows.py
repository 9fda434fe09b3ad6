"""The exact oracles read P's stored nonzero rows; these tests hold them to
the dense S*A*S formulas they replaced.

The reference below (einsum passes and np.linalg.solve on the dense
transition tensor, built from the stored entries by conftest's
dense_transition) lives only here.  On random policies the occupancy, the
value solve, the exact gradient, the flow residual and the soft-VI policy
agree with it to 1e-12 (relative), on both sides of
DENSE_SOLVE_MAX_STATES, and the evaluation sampler's next-state draws are
bit-identical to the dense inverse CDF.  Above DENSE_SOLVE_MAX_STATES the
sparse system holds the dense branch's matrix bit for bit, and its LU
factor pivots on the diagonal.

The samplers and soft value iteration read action-major (A, S) tables; the
row-major forms they replaced live here too, as references the draws and
every soft-VI iterate must match bit for bit, on every builder up to the
30x30 grid.
"""

import dataclasses

import numpy as np
import pytest

import wail
from wail import SoftmaxPolicy, TabularMdp, entropy_reg_policy_gradient
from wail import mdp as mdp_mod

from conftest import dense_transition, deterministic_policy, random_mdp

REL_TOL = 1e-12

CASES = {
    "grid5": lambda: wail.make_gridworld(5),
    "grid14-slip": lambda: wail.make_gridworld(14, slip=0.2),   # 4 nonzeros a row
    "grid20": lambda: wail.make_gridworld(20),
    "cliff": lambda: wail.make_cliff(),
    "chain": lambda: wail.make_chain(),
    "mountain-car": lambda: wail.make_mountain_car(),
    "random-dense": lambda: random_mdp(30, 3, 0.9, seed=77, with_reward=True),
}


DRAW_CASES = {**CASES, "grid30": lambda: wail.make_gridworld(30)}


def local_random_mdp(n_states, seed, n_actions=3, reach=2):
    """Random probabilities over 2 * reach + 1 draws of next states within
    `reach` of each state (on a ring, self-loops included): a local graph,
    as every builder's, with random values."""
    rng = np.random.default_rng(seed)
    row = np.repeat(np.arange(n_states * n_actions), 2 * reach + 1)
    col = (row // n_actions + rng.integers(-reach, reach + 1, size=row.size)) % n_states
    prob = rng.dirichlet(np.ones(2 * reach + 1), size=n_states * n_actions).ravel()
    return TabularMdp(transition=(row, col, prob), start=np.full(n_states, 1.0 / n_states),
                      gamma=0.95, state_embed=rng.normal(size=(n_states, 2)),
                      action_embed=np.eye(n_actions))


# systems above DENSE_SOLVE_MAX_STATES, factored by the sparse LU
SPARSE_CASES = {
    "grid14-slip": CASES["grid14-slip"],
    "grid20": CASES["grid20"],
    "random-local": lambda: local_random_mdp(200, seed=19),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def env(request):
    return CASES[request.param]()


@pytest.fixture(scope="module", params=sorted(DRAW_CASES))
def draw_env(request):
    return DRAW_CASES[request.param]()


@pytest.fixture(params=["selected", "dense", "sparse"])
def solver(request, monkeypatch):
    """Run each case with the size selection as is, and forced to each side."""
    limit = {"dense": 10 ** 9, "sparse": 0}.get(request.param)
    if limit is not None:
        monkeypatch.setattr(mdp_mod, "DENSE_SOLVE_MAX_STATES", limit)
    return request.param


# ---------------------------------------------------------------------------
# dense reference


def ref_policy_transition(mdp, policy):
    return np.einsum("sa,sap->sp", policy.probs, dense_transition(mdp))


def ref_occupancy(mdp, policy):
    S = mdp.n_states
    d = np.linalg.solve(np.eye(S) - mdp.gamma * ref_policy_transition(mdp, policy).T,
                        (1.0 - mdp.gamma) * mdp.start)
    rho = np.maximum(d, 0.0)[:, None] * policy.probs
    return rho / rho.sum()


def ref_action_values(mdp, policy, cost):
    S = mdp.n_states
    V = np.linalg.solve(np.eye(S) - mdp.gamma * ref_policy_transition(mdp, policy),
                        (policy.probs * cost).sum(axis=1))
    return cost + mdp.gamma * np.einsum("sap,p->sa", dense_transition(mdp), V), V


def ref_flow_residual(mdp, rho):
    inflow = np.einsum("sap,sa->p", dense_transition(mdp), rho)
    rhs = (1.0 - mdp.gamma) * mdp.start + mdp.gamma * inflow
    return float(np.abs(rho.sum(axis=1) - rhs).max())


def ref_soft_vi(mdp, reward, lam, tol=1e-10):
    P = dense_transition(mdp)
    V = np.zeros(mdp.n_states)
    while True:
        Q = reward + mdp.gamma * np.einsum("sap,p->sa", P, V)
        m = Q.max(axis=1)
        V_new = m + lam * np.log(np.exp((Q - m[:, None]) / lam).sum(axis=1))
        done = np.abs(V_new - V).max() <= tol
        V = V_new
        if done:
            break
    Q = reward + mdp.gamma * np.einsum("sap,p->sa", P, V)
    return SoftmaxPolicy(np.maximum((Q - Q.max(axis=1, keepdims=True)) / lam, -wail.LOGIT_GAP))


def ref_soft_vi_sweeps(mdp, reward, lam, tol=1e-10):
    """soft_value_iteration's logits as its (S, A) sweeps gave them: the
    next-state expectation binned by flat row s * A + a and every
    reduction over the trailing action axis."""
    row, col, prob = mdp.transition
    S, A = mdp.n_states, mdp.n_actions

    def q_values(V):
        return reward + mdp.gamma * np.bincount(row, weights=prob * V[col],
                                                minlength=S * A).reshape(S, A)

    V = np.zeros(S)
    while True:
        Q = q_values(V)
        m = Q.max(axis=1)
        V_new = m + lam * np.log(np.exp((Q - m[:, None]) / lam).sum(axis=1))
        done = np.abs(V_new - V).max() <= tol
        V = V_new
        if done:
            break
    Q = q_values(V)
    return np.maximum((Q - Q.max(axis=1, keepdims=True)) / lam, -wail.LOGIT_GAP)


def ref_actions(policy, s, u):
    """The row-major action draw: per-state running sums of pi(.|s) with the
    last set to inf, so a uniform past the total takes action A-1."""
    cdf = policy.probs.cumsum(axis=1)
    cdf[:, -1] = np.inf
    return (cdf[s] < u[:, None]).sum(axis=1)


def ref_next_states(mdp, s, a, u, P_cum=None):
    """The dense inverse CDF; P_cum is the dense running sums over s', when
    the caller keeps them."""
    if P_cum is None:
        P_cum = dense_transition(mdp).cumsum(axis=2)
    return np.minimum((P_cum[s, a] < u[:, None]).sum(axis=1), mdp.n_states - 1)


def ref_episode_returns(mdp, policy, n, seed):
    """episode_returns as it was written over the dense P_cum."""
    rng = np.random.default_rng(seed)
    P_cum = dense_transition(mdp).cumsum(axis=2)
    s = np.searchsorted(mdp.start.cumsum(), rng.random(n))
    returns = np.zeros(n)
    disc = 1.0
    for _ in range(wail.default_max_len(mdp.gamma)):
        a = ref_actions(policy, s, rng.random(n))
        returns += disc * mdp.true_reward[s, a]
        disc *= mdp.gamma
        s = ref_next_states(mdp, s, a, rng.random(n), P_cum)
    return returns


def rel_err(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def random_policies(mdp, seed, n=3):
    rng = np.random.default_rng(seed)
    return [SoftmaxPolicy(rng.normal(scale=2.0, size=(mdp.n_states, mdp.n_actions)))
            for _ in range(n)]


# ---------------------------------------------------------------------------


def test_size_selection_straddles_the_cases():
    sizes = {name: make().n_states for name, make in CASES.items()}
    limit = mdp_mod.DENSE_SOLVE_MAX_STATES
    assert any(S <= limit for S in sizes.values())
    assert sizes["grid14-slip"] > limit and sizes["grid20"] > limit
    # the desk gridworld and the 30x30 benchmark cell sit on either side
    assert 25 <= limit < 900


@pytest.mark.parametrize("name", sorted(SPARSE_CASES))
def test_sparse_system_is_the_dense_system_on_diagonal_pivots(name, factored, monkeypatch):
    mdp = SPARSE_CASES[name]()
    S = mdp.n_states
    assert S > mdp_mod.DENSE_SOLVE_MAX_STATES
    # the last policy's probabilities span LOGIT_GAP: action 0 sits that far
    # above the others in every state
    for policy in random_policies(mdp, 8) + [deterministic_policy(np.zeros(S), mdp.n_actions)]:
        mdp_mod.FlowSystem(mdp, policy)
        (system, lu), = factored
        factored.clear()
        with monkeypatch.context() as forced:
            forced.setattr(mdp_mod, "DENSE_SOLVE_MAX_STATES", S)
            dense = mdp_mod.FlowSystem(mdp, policy)._system
        assert system.has_canonical_format
        r, c = system.indices, np.repeat(np.arange(S), np.diff(system.indptr))
        assert system.data.tobytes() == dense[r, c].tobytes()
        stored = np.zeros((S, S), dtype=bool)
        stored[r, c] = True
        assert not np.any(dense[~stored])
        # the factor pivoted on the diagonal: rows permuted as the columns
        assert np.array_equal(lu.perm_r, lu.perm_c)


def test_occupancy_and_flow_residual(env, solver):
    rng = np.random.default_rng(1)
    for policy in random_policies(env, 2):
        rho = wail.occupancy_from_policy(env, policy).rho
        assert rel_err(rho, ref_occupancy(env, policy)) <= REL_TOL
        # a measure off the flow manifold, so the residual is O(1)
        other = rng.dirichlet(np.ones(rho.size)).reshape(rho.shape)
        assert (abs(wail.bellman_flow_residual(env, other) - ref_flow_residual(env, other))
                <= REL_TOL * ref_flow_residual(env, other))


def test_value_solve_and_exact_gradient(env, solver):
    rng = np.random.default_rng(3)
    for policy in random_policies(env, 4):
        cost = rng.normal(size=(env.n_states, env.n_actions))
        Q, V = mdp_mod.action_values(env, policy, cost)
        Q_ref, V_ref = ref_action_values(env, policy, cost)
        assert rel_err(V, V_ref) <= REL_TOL
        assert rel_err(Q, Q_ref) <= REL_TOL
        report = entropy_reg_policy_gradient(env, policy, cost, lam=0.1)
        pi = policy.probs
        Q_ref, V_ref = ref_action_values(env, policy, cost - 0.1 * policy.log_probs)
        grad_ref = ref_occupancy(env, policy).sum(axis=1)[:, None] * pi * (Q_ref - V_ref[:, None])
        assert rel_err(report.gradient, grad_ref.ravel()) <= REL_TOL


def test_soft_value_iteration(env):
    rng = np.random.default_rng(5)
    reward = rng.normal(size=(env.n_states, env.n_actions))
    for lam in (0.01, 0.5):
        got = wail.soft_value_iteration(env, reward, lam)
        ref = ref_soft_vi(env, reward, lam)
        assert rel_err(got.probs, ref.probs) <= REL_TOL


@pytest.mark.parametrize("gamma", [None, 0.999])
def test_soft_value_iteration_matches_row_major_sweeps(draw_env, gamma):
    # the (A, S) sweeps add each state's A < 8 terms in the (S, A) order;
    # at gamma = 0.999 some 23000 sweeps carry any difference to the logits
    env = draw_env if gamma is None else dataclasses.replace(draw_env, gamma=gamma)
    reward = np.random.default_rng(15).normal(size=(env.n_states, env.n_actions))
    for lam in ((0.01, 0.5) if gamma is None else (0.5,)):
        got = wail.soft_value_iteration(env, reward, lam)
        assert got.logits.tobytes() == ref_soft_vi_sweeps(env, reward, lam).tobytes()


def test_episode_returns_bit_identical(draw_env):
    if draw_env.true_reward is None:
        pytest.skip("no true reward")
    for seed, policy in enumerate(random_policies(draw_env, 6, n=2)):
        got = wail.episode_returns(draw_env, policy, 64, seed=seed)
        assert got.tobytes() == ref_episode_returns(draw_env, policy, 64, seed).tobytes()


def test_draws_at_the_edges_of_every_row(draw_env):
    # every state and state-action row at u = 0, just below 1 (past a total
    # that rounding left short), at its running sums and at random
    S, A = draw_env.n_states, draw_env.n_actions
    rng = np.random.default_rng(12)
    s, a = np.repeat(np.arange(S), A), np.tile(np.arange(A), S)
    P_cum = dense_transition(draw_env).cumsum(axis=2)
    for policy in random_policies(draw_env, 11, n=2) + [SoftmaxPolicy.uniform(S, A)]:
        pi_cum = policy.probs.cumsum(axis=1)[s]
        for u in (np.zeros(s.size), np.full(s.size, 1.0 - 1e-12),
                  np.full(s.size, np.nextafter(1.0, 0.0)), pi_cum[:, 0], pi_cum[:, -1],
                  P_cum[s, a, S // 2], P_cum[s, a].max(axis=1), rng.random(s.size)):
            assert np.array_equal(policy.draw_actions(s, u), ref_actions(policy, s, u))
            assert np.array_equal(mdp_mod.next_states(draw_env, s, a, u),
                                  ref_next_states(draw_env, s, a, u, P_cum))


def test_next_state_draws_at_the_edges():
    # rows whose total falls short of 1 by rounding: a draw past the total
    # maps to S - 1, a draw of exactly 0 to state 0, and draws equal to a
    # cumulative sum to that sum's state, as under the dense inverse CDF
    rng = np.random.default_rng(8)
    S, A = 7, 2
    P = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            cols = rng.choice(S, size=int(rng.integers(1, 4)), replace=False)
            P[s, a, cols] = rng.dirichlet(np.ones(cols.size)) * (1.0 - 5e-11)
    env = TabularMdp(wail.entries_from_dense(P), np.full(S, 1.0 / S), 0.9, np.zeros((S, 1)),
                     np.eye(A))
    s = np.repeat(np.arange(S), A)
    a = np.tile(np.arange(A), S)
    cum = P.cumsum(axis=2)[s, a]
    for u in (np.zeros(s.size), np.full(s.size, 1.0 - 1e-12), cum[:, 0], cum[:, S // 2],
              cum.max(axis=1), rng.random(s.size)):
        got = mdp_mod.next_states(env, s, a, u)
        assert np.array_equal(got, ref_next_states(env, s, a, u))
    past_total = mdp_mod.next_states(env, s, a, np.full(s.size, 1.0 - 1e-12))
    assert np.all(past_total == S - 1)
