import numpy as np
import pytest

from wail import LOGIT_GAP, SoftmaxPolicy, TabularMdp, entries_from_dense

# former RunConfig fields that every run left at one value, now constants
# of their modules, and eval_every, whose per-round Monte Carlo score the
# logged true return replaced; a config that names one is rejected
FOLDED_CONFIG_KEYS = ("cg_damping", "disc_inner_steps", "metric_scale", "bc_steps", "bc_lr",
                      "eval_every")


def random_mdp(n_states, n_actions, gamma, seed, with_reward=False):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    mu0 = rng.dirichlet(np.ones(n_states)) + 0.05
    mu0 /= mu0.sum()
    return TabularMdp(
        transition=entries_from_dense(P), start=mu0, gamma=gamma,
        state_embed=rng.normal(size=(n_states, 2)),
        action_embed=np.eye(n_actions),
        true_reward=rng.normal(size=(n_states, n_actions)) if with_reward else None,
    )


def two_state_chain(gamma=0.5):
    """Deterministic 0 -> 1 -> 1 with start mass (almost) all on state 0."""
    eps = 1e-12
    return TabularMdp(transition=([0, 1], [1, 1], [1.0, 1.0]), start=[1.0 - eps, eps],
                      gamma=gamma, state_embed=[[0.0], [1.0]], action_embed=[[1.0]])


def deterministic_policy(actions, n_actions):
    """Near-deterministic policy picking `actions[s]`, every other action
    LOGIT_GAP below it."""
    actions = np.asarray(actions, dtype=int)
    logits = np.full((actions.size, n_actions), -LOGIT_GAP)
    logits[np.arange(actions.size), actions] = 0.0
    return SoftmaxPolicy(logits)


def dense_transition(mdp):
    """The (S, A, S) tensor P[s, a, s'] of an MDP's stored transition entries,
    for tests that hold the oracles to dense reference formulas."""
    S, A = mdp.n_states, mdp.n_actions
    row, col, prob = mdp.transition
    P = np.zeros((S * A, S))
    P[row, col] = prob
    return P.reshape(S, A, S)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def factored(monkeypatch):
    """(matrix, factor) of each system FlowSystem's sparse branch factors, in
    order; the branch imports splu when it runs, so this patches the name
    that import reads."""
    import scipy.sparse.linalg
    seen = []
    splu = scipy.sparse.linalg.splu

    def recording(system, **options):
        seen.append((system, splu(system, **options)))
        return seen[-1][1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return seen
