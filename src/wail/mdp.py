"""Exact machinery for discounted tabular MDPs.

The transition model P exists only as its nonzero entries, validated and
stored as rows over the S*A state-action pairs (see TabularMdp); every
exact oracle, every sampler and the JSON format read those entries.
Occupancy measures are solved from the Bellman flow linear system and
policy values from its transpose, both through one FlowSystem record per
policy that assembles (above DENSE_SOLVE_MAX_STATES states, factors) the
system once and keeps the occupancy it solved.  The policy keeps its
record, built by the first exact oracle that reads it, so every later
read of the same policy on the same MDP reuses it.  Policies and
occupancies convert back and forth (a bijection on their supports), causal
entropy and expected rewards are exact inner products, trajectories come
from the geometric-restart chain as one flat Rollouts batch, each
episode's length drawn up front so the chain steps only the live episodes,
and soft value iteration provides the entropy-regularized RL oracle.
SciPy's sparse LU is imported by the first system above
DENSE_SOLVE_MAX_STATES states, so runs on smaller MDPs never load SciPy.

Above that size the nonzero pattern of I - gamma P_pi (the diagonal and
the stored rows' entries) is the same for every policy, so the MDP keeps
one CSC layout of it and each policy's values are placed with one bincount;
they are the bits of the dense branch's np.eye(S) - gamma P_pi at every
stored entry.  SuperLU factors it with the symmetric MMD ordering of
A^T + A, on diagonal pivots and without supernode relaxation.  Pivoting is
not needed: I - gamma P_pi is strictly diagonally dominant by rows for
every policy (diagonal 1 - gamma P_ss, off-diagonal row sum
gamma (1 - P_ss), and gamma < 1), a symmetric permutation keeps that, and
such a matrix has an LU factorization without pivoting whose growth factor
is at most 2 (Higham 2002, Accuracy and Stability of Numerical Algorithms,
Thm 9.9).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

# Finite stand-in for -inf logits.  exp(-35) ~ 6.3e-16 keeps every action
# probability strictly positive in float64 while being negligible mass.
LOGIT_GAP = 35.0

ROW_SUM_TOL = 1e-10
MASS_TOL = 1e-8
FLOW_TOL = 1e-8

_SAMPLE_CHUNK = 8192

# Flow systems with at most this many states are solved dense by LAPACK,
# larger ones by a sparse LU.  Measured as one system's build, occupancy
# solve and value solve (median over 200 random policies, 1 BLAS thread),
# dense against sparse read 0.03 / 0.08 ms at S = 25 (5x5 grid), 0.17 /
# 0.13 ms at 100 (10x10 grid), 0.20 / 0.20-0.22 ms at 109 (mountain car),
# 0.33 / 0.20 ms at 144 (12x12 grid) and 1.2 / 0.33 ms at 256: the sparse
# factor now wins from about S = 100.  The value stays at 150, where the
# previous factor settings crossed over, because moving it changes the
# rounding of every MDP between the old and the new value, and with it
# whether those artifacts depend on the BLAS thread count.
DENSE_SOLVE_MAX_STATES = 150

# Largest horizon default_max_len(gamma) of an MDP.  Set-up time grows
# linearly with it (5x5 grid: soft VI and references took 1.55 s at 13 809
# steps, 11.6 s at 138 149), so 10^5 admits 0.999 and every builder default.
MAX_HORIZON = 100_000


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def unchecked(cls, **fields):
    """An instance of dataclass `cls` holding `fields` without its checks,
    which are for outside values: for producers whose results hold them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _inverse_cdf(table: np.ndarray, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the action-major running sums `table`, one
    column per distribution: for each uniform u[i], how many entries of
    column index[i] lie below it.  One gather and one reduction over the
    short leading axis; the count is exact, so a draw does not depend on
    the layout."""
    return (table.take(index, axis=1) < u).sum(axis=0)


@dataclass(frozen=True)
class _TransitionRows:
    """The nonzeros of P viewed as S*A rows (flat index s * A + a), in row
    order, plus each row's padded inverse-CDF table for next-state draws,
    stored action-major: column s * A + a of draw_cum and draw_col holds
    row s * A + a, so a batch of draws gathers whole columns (see
    _inverse_cdf).  K is the most nonzeros in a row."""

    row: np.ndarray         # (nnz,) flat row of each nonzero
    state: np.ndarray       # (nnz,) its state, row // A
    col: np.ndarray         # (nnz,) its next state
    prob: np.ndarray        # (nnz,) its probability
    draw_cum: np.ndarray    # (K+1, S*A) [0, cumulative sums..., inf padding]
    draw_col: np.ndarray    # (K+2, S*A) [0, next states..., S-1 padding]

    @classmethod
    def from_entries(cls, entries, S: int, A: int) -> "_TransitionRows":
        """Validate (row, col, prob) entries of P over the S*A flat rows and
        keep them merged and sorted: repeated (row, col) pairs summed in input
        order and zero sums dropped, as np.nonzero reads a dense tensor."""
        if isinstance(entries, np.ndarray) or len(entries) != 3:
            raise ValueError("transition must be (row, col, prob) entries, not a dense "
                             "(S, A, S) array; entries_from_dense converts one")
        row, col, prob = (np.asarray(x) for x in entries)
        if row.ndim != 1 or not row.shape == col.shape == prob.shape:
            raise ValueError("transition entries must be three 1-D arrays of one length")
        if not (np.issubdtype(row.dtype, np.integer) and np.issubdtype(col.dtype, np.integer)):
            raise ValueError("transition rows and next states must be integers")
        if not np.all(np.isfinite(prob) & (prob >= 0)):
            raise ValueError("transition probabilities must be finite and non-negative")
        if np.any((row < 0) | (row >= S * A) | (col < 0) | (col >= S)):
            raise ValueError(f"transition rows must lie in [0, {S * A}), next states in [0, {S})")
        key, inverse = np.unique(row.astype(np.int64) * S + col, return_inverse=True)
        prob = np.bincount(inverse, weights=prob, minlength=key.size)
        row, col = np.divmod(key[prob != 0.0], S)
        prob = prob[prob != 0.0]
        counts = np.bincount(row, minlength=S * A)
        if counts.min() == 0:
            raise ValueError(f"state-action row {counts.argmin()} has no transition entries")
        row_err = np.abs(np.bincount(row, weights=prob, minlength=S * A) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"transition rows must sum to 1 (max error {row_err:.3e})")
        pos = 1 + np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
        # Sequential running sums, bit-equal to a dense cumsum over s' at the
        # nonzero columns (adding the zeros between them changes no bit).
        # The leading 0 is the mass before the first nonzero column, so a
        # draw u = 0 maps to state 0; a draw past the row's total lands on
        # the S-1 padding, as under the dense inverse CDF.  The inf padding
        # of a full row would never count, so draw_cum stops one short.
        K = int(counts.max())
        draw_cum = np.full((K + 1, S * A), np.inf)
        draw_cum[0] = 0.0
        draw_cum[pos, row] = prob
        draw_col = np.full((K + 2, S * A), S - 1, dtype=np.int64)
        draw_col[0] = 0
        draw_col[pos, row] = col
        state = row // A
        for arr in (row, state, col, prob):
            arr.setflags(write=False)
        return cls(row=row, state=state, col=col, prob=prob, draw_cum=draw_cum.cumsum(axis=0),
                   draw_col=draw_col)


def entries_from_dense(P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, prob) entries of the nonzeros of a dense P[s, a, s'], with
    flat row s * A + a: the form TabularMdp's transition takes."""
    flat = np.asarray(P, dtype=np.float64).reshape(-1, np.shape(P)[-1])
    row, col = np.nonzero(flat)
    return row, col, flat[row, col]


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with transition model P, start distribution, discount in
    (0, 1) whose default_max_len is at most MAX_HORIZON, state/action
    embeddings and an optional true reward used only for evaluation.  S
    comes from `start` and A from `action_embed`.

    P is given and kept only as its nonzero entries: `transition` is
    (row, col, prob) with flat row s * A + a and prob = P[s, a, col], checked
    and stored merged and sorted (see _TransitionRows.from_entries).  Every
    exact oracle and sampler reads these rows; the flow systems built from
    them are solved by dense LAPACK up to DENSE_SOLVE_MAX_STATES states,
    above that by a sparse LU."""

    transition: tuple               # (row, col, prob), each (nnz,)
    start: np.ndarray               # (S,)
    gamma: float
    state_embed: np.ndarray         # (S, d_s)
    action_embed: np.ndarray        # (A, d_a)
    true_reward: np.ndarray | None = None   # (S, A)
    _rows: _TransitionRows = field(init=False, repr=False, compare=False)
    _flow_source = cached_property(lambda self: _freeze((1.0 - self.gamma) * self.start))

    @cached_property
    def _flow_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The CSC layout of I - gamma P_pi, which no policy changes: the
        diagonal and each stored row's (state, next state) entry, merged and
        sorted by column, then row.  Returns (the slot of each stored row's
        entry, the slot of each diagonal entry, the row indices, the column
        pointers); FlowSystem places one policy's values with one bincount."""
        rows, S = self._rows, self.n_states
        diag = np.arange(S)
        keys, slot = np.unique(np.concatenate([diag * (S + 1), rows.col * S + rows.state]),
                               return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // S, minlength=S))])
        return slot[S:], slot[:S], keys % S, indptr

    def __post_init__(self):
        mu0, se, ae = (np.asarray(x, dtype=np.float64)
                       for x in (self.start, self.state_embed, self.action_embed))
        # NaN fails every comparison below without raising
        for name, arr in (("start", mu0), ("state_embed", se), ("action_embed", ae)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if mu0.ndim != 1:
            raise ValueError(f"start must be (S,), got {mu0.shape}")
        if np.any(mu0 <= 0) or abs(mu0.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError("start distribution must be strictly positive and sum to 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie strictly inside (0, 1), got {self.gamma}")
        if (horizon := default_max_len(self.gamma)) > MAX_HORIZON:
            raise ValueError(f"gamma {self.gamma}: horizon {horizon} > MAX_HORIZON {MAX_HORIZON}")
        S = mu0.size
        if se.ndim != 2 or se.shape[0] != S:
            raise ValueError(f"state_embed must be (S, d_s), got {se.shape}")
        if ae.ndim != 2 or ae.shape[0] < 1:
            raise ValueError(f"action_embed must be (A, d_a), got {ae.shape}")
        rows = _TransitionRows.from_entries(self.transition, S, ae.shape[0])
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "transition", (rows.row, rows.col, rows.prob))
        object.__setattr__(self, "start", _freeze(mu0))
        object.__setattr__(self, "state_embed", _freeze(se))
        object.__setattr__(self, "action_embed", _freeze(ae))
        if self.true_reward is not None:
            R = np.asarray(self.true_reward, dtype=np.float64)
            if R.shape != (S, ae.shape[0]):
                raise ValueError(f"true_reward must be (S, A), got {R.shape}")
            if not np.all(np.isfinite(R)):
                raise ValueError("true_reward must be finite")
            object.__setattr__(self, "true_reward", _freeze(R))

    @property
    def n_states(self) -> int:
        return self.start.shape[0]

    @property
    def n_actions(self) -> int:
        return self.action_embed.shape[0]

    def check_policy(self, policy: "SoftmaxPolicy") -> None:
        if policy.n_states != self.n_states or policy.n_actions != self.n_actions:
            raise ValueError(f"policy shape ({policy.n_states}, {policy.n_actions}) does not "
                             f"match MDP ({self.n_states}, {self.n_actions})")


@dataclass(frozen=True)
class SoftmaxPolicy:
    """Stochastic policy pi(a|s) = softmax over per-state logits; every
    sampler draws its actions with draw_actions.  `_flow` is the FlowSystem
    the exact oracles built for it on their last MDP (see _flow_of).  The
    constructor checks the logits; line-search candidates skip it."""

    logits: np.ndarray              # (S, A)
    _flow: FlowSystem | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        theta = np.asarray(self.logits, dtype=np.float64)
        if theta.ndim != 2 or not np.all(np.isfinite(theta)):
            raise ValueError(f"logits must be a finite (S, A) array, got shape {theta.shape}")
        object.__setattr__(self, "logits", _freeze(theta))
        if np.any(self.probs <= 0.0):
            raise ValueError("logit gaps too large: some action probability underflowed to 0")

    @cached_property
    def _softmax(self) -> tuple[np.ndarray, np.ndarray]:
        z = self.logits - self.logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        norm = e.sum(axis=1, keepdims=True)
        return _freeze(e / norm), _freeze(z - np.log(norm))

    @property
    def probs(self) -> np.ndarray:
        return self._softmax[0]

    @property
    def log_probs(self) -> np.ndarray:
        return self._softmax[1]

    @property
    def n_states(self) -> int:
        return self.logits.shape[0]

    @property
    def n_actions(self) -> int:
        return self.logits.shape[1]

    @cached_property
    def _action_cum(self) -> np.ndarray:
        """(A-1, S) running sums of pi(.|s), built on the first draw: a line
        search builds policies it never samples."""
        return np.ascontiguousarray(self.probs.T[:-1]).cumsum(axis=0)

    def draw_actions(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF action draws at `states` for uniforms u in [0, 1):
        the first a whose running sum of pi(.|s) reaches u, and A-1 when
        rounding leaves the state's total below u."""
        return _inverse_cdf(self._action_cum, states, u)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "SoftmaxPolicy":
        return cls(np.zeros((n_states, n_actions)))


@dataclass(frozen=True)
class OccupancyMeasure:
    """A normalized state-action measure rho(s, a): a policy's discounted
    occupancy, which occupancy_from_policy checks against the Bellman flow
    equation of its MDP instead of the constructor's checks, or the
    expert's empirical measure (training.expert_occupancy)."""

    rho: np.ndarray                 # (S, A)
    _marginal = cached_property(lambda self: _freeze(self.rho.sum(axis=1)))

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 2 or not np.all(np.isfinite(rho) & (rho >= 0)):
            raise ValueError(f"rho must be a finite, non-negative (S, A) array, got {rho.shape}")
        if abs(rho.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"occupancy mass must be 1 (got {rho.sum():.12f})")
        object.__setattr__(self, "rho", _freeze(rho))

    def state_marginal(self) -> np.ndarray:
        """d(s) = sum_a rho(s, a), summed once and kept read-only."""
        return self._marginal

    def flat(self) -> np.ndarray:
        return self.rho.ravel()


@dataclass(frozen=True)
class Rollouts:
    """A batch of episodes stored flat and episode-major: episode i holds
    lengths[i] consecutive entries of `states` and `actions`, and ended by a
    geometric restart when restarted[i] (otherwise by a length cap).
    len() counts episodes."""

    lengths: np.ndarray             # (n,) int, each >= 1
    restarted: np.ndarray           # (n,) bool
    states: np.ndarray              # (lengths.sum(),) int
    actions: np.ndarray             # (lengths.sum(),) int

    def __post_init__(self):
        lengths, restarted, states, actions = (np.asarray(x) for x in (
            self.lengths, self.restarted, self.states, self.actions))
        if lengths.ndim != 1 or lengths.size == 0 or restarted.shape != lengths.shape:
            raise ValueError("need at least one episode, with one restart flag each")
        if restarted.dtype != bool:
            raise ValueError(f"restarted must be booleans, got {restarted.dtype}")
        # an empty list reads as float64
        for name, arr in (("lengths", lengths), ("states", states), ("actions", actions)):
            if arr.size and arr.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers, got {arr.dtype}")
        lengths, states, actions = (x.astype(np.int64, copy=False)
                                    for x in (lengths, states, actions))
        if lengths.min() < 1:
            raise ValueError("every episode must be non-empty")
        if states.shape != (lengths.sum(),) or actions.shape != states.shape:
            raise ValueError("states and actions must hold lengths.sum() entries each")
        if min(states.min(), actions.min()) < 0:
            raise ValueError("state/action indices must be non-negative")
        for name, arr in (("lengths", lengths), ("restarted", restarted),
                          ("states", states), ("actions", actions)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.lengths.size

    @property
    def starts(self) -> np.ndarray:
        """Index of each episode's first entry."""
        return np.cumsum(self.lengths) - self.lengths

    def pairs(self) -> np.ndarray:
        """(k, 2) array of every (state, action) entry, episode-major."""
        return np.stack([self.states, self.actions], axis=1)

    def subset(self, lo: int, hi: int) -> "Rollouts":
        """The batch of episodes lo..hi-1 (lo < hi), cut `unchecked`."""
        a, b = np.concatenate([[0], np.cumsum(self.lengths)])[[lo, hi]]
        return unchecked(Rollouts, lengths=self.lengths[lo:hi], restarted=self.restarted[lo:hi],
                         states=self.states[a:b], actions=self.actions[a:b])


@dataclass(frozen=True, eq=False)
class FlowSystem:
    """The Bellman flow system I - gamma P_pi of one policy, assembled once,
    with P_pi[s, s'] = sum_a pi(a|s) P[s, a, s'] built from the stored rows.

    Up to DENSE_SOLVE_MAX_STATES states it keeps the dense matrix and every
    solve is a dense LAPACK solve; above that it keeps the matrix's sparse
    LU factor, so every solve with it reuses one factorization.  The sparse
    matrix is the MDP's CSC pattern (TabularMdp._flow_pattern) filled with
    this policy's values, factored with a symmetric fill-reducing ordering
    (MMD on A^T + A) on diagonal pivots, which the matrix's strict row
    diagonal dominance makes safe (see the module docstring), with no
    supernode relaxation and panels of one column (relax=1, panel_size=1:
    the fastest settings measured on the 30x30 grid).  The same record
    serves its policy's value solve and occupancy solve (transposed),
    whose result it keeps.  The policy holds the record (see _flow_of) and
    the record does not hold the policy, so dropping a policy frees both
    without waiting for the cyclic garbage collector."""

    mdp: TabularMdp = field(repr=False)
    policy: InitVar[SoftmaxPolicy]
    _system: object = field(init=False, repr=False)
    _occupancy: OccupancyMeasure | None = field(init=False, default=None, repr=False)

    def __post_init__(self, policy: SoftmaxPolicy):
        mdp = self.mdp
        mdp.check_policy(policy)
        rows, S = mdp._rows, mdp.n_states
        weights = policy.probs.ravel()[rows.row] * rows.prob
        if S <= DENSE_SOLVE_MAX_STATES:
            P_pi = np.bincount(rows.state * S + rows.col, weights=weights,
                               minlength=S * S).reshape(S, S)
            system = np.eye(S) - mdp.gamma * P_pi
        else:
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import splu
            slot, diag, indices, indptr = mdp._flow_pattern
            # negation is exact and -x + 1.0 rounds as 1.0 - x, so these are
            # the dense branch's bits at every stored entry
            data = -mdp.gamma * np.bincount(slot, weights=weights, minlength=indices.size)
            data[diag] += 1.0
            system = splu(csc_matrix((data, indices, indptr), shape=(S, S)),
                          permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True}, relax=1, panel_size=1)
        object.__setattr__(self, "_system", system)

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """x with (I - gamma P_pi) x = rhs, or the transposed system."""
        if isinstance(self._system, np.ndarray):
            return np.linalg.solve(self._system.T if transpose else self._system, rhs)
        return self._system.solve(rhs, trans="T" if transpose else "N")


def _flow_of(mdp: TabularMdp, policy: SoftmaxPolicy) -> FlowSystem:
    """The FlowSystem `policy` keeps for `mdp` (the MDP object itself, not an
    equal one), built and kept when it holds none for it."""
    flow = policy._flow
    if flow is None or flow.mdp is not mdp:
        flow = FlowSystem(mdp, policy)
        object.__setattr__(policy, "_flow", flow)
    return flow


def occupancy_from_policy(mdp: TabularMdp, policy: SoftmaxPolicy) -> OccupancyMeasure:
    """Solve the Bellman flow system exactly and return rho(s,a) = d(s) pi(a|s).

    The state marginal d solves the linear recurrence
        d = (1-gamma) mu0 + gamma P_pi^T d
    so d = (I - gamma P_pi^T)^{-1} (1-gamma) mu0, which is nonsingular for
    gamma < 1.  The solve goes through the policy's FlowSystem, which keeps
    the first call's measure: later calls with the same policy and MDP
    return it.  It is checked here, for negative visitation and for its
    Bellman-flow residual (which a NaN fails), and built `unchecked`."""
    flow = _flow_of(mdp, policy)
    if flow._occupancy is None:
        d = flow.solve(mdp._flow_source, transpose=True)
        if d.min() < -1e-12:
            raise ArithmeticError(f"flow solve produced negative visitation {d.min():.3e}")
        d = np.maximum(d, 0.0)
        rho = d[:, None] * policy.probs
        rho /= rho.sum()
        occupancy = unchecked(OccupancyMeasure, rho=_freeze(rho))
        resid = bellman_flow_residual(mdp, occupancy)
        if not resid <= FLOW_TOL:
            raise ArithmeticError(f"Bellman flow residual {resid:.3e} exceeds {FLOW_TOL}")
        object.__setattr__(flow, "_occupancy", occupancy)
    return flow._occupancy


def action_values(mdp: TabularMdp, policy: SoftmaxPolicy,
                  cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact policy evaluation of a per-step payoff: V solves
    (I - gamma P_pi) V = sum_a pi(a|.) cost(., a) with the policy's
    FlowSystem, and Q(s, a) = cost(s, a) + gamma sum_s' P[s, a, s'] V(s').
    Returns (Q, V)."""
    V = _flow_of(mdp, policy).solve((policy.probs * cost).sum(axis=1))
    rows, S, A = mdp._rows, mdp.n_states, mdp.n_actions
    expect = np.bincount(rows.row, weights=rows.prob * V[rows.col], minlength=S * A)
    return cost + mdp.gamma * expect.reshape(S, A), V


def bellman_flow_residual(mdp: TabularMdp, rho: np.ndarray | OccupancyMeasure) -> float:
    """Max-norm residual of the Bellman flow equation; a measure's outflow is its marginal."""
    if not isinstance(rho, OccupancyMeasure):
        rho = unchecked(OccupancyMeasure, rho=np.asarray(rho, dtype=np.float64))
    rows = mdp._rows
    inflow = np.bincount(rows.col, weights=rows.prob * rho.rho.ravel()[rows.row],
                         minlength=mdp.n_states)
    rhs = mdp._flow_source + mdp.gamma * inflow
    return float(np.abs(rho.state_marginal() - rhs).max())


def next_states(mdp: TabularMdp, states: np.ndarray, actions: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Inverse-CDF next-state draws for uniforms u in [0, 1): the first s'
    whose cumulative P[s, a, :s'+1] reaches u, and S-1 when rounding leaves
    the row's total below u.  Reads only each row's nonzeros, from the
    action-major draw tables of the stored rows."""
    return _draw_next(mdp._rows, states * mdp.n_actions + actions, u)


def _draw_next(rows: _TransitionRows, flat_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    return rows.draw_col[_inverse_cdf(rows.draw_cum, flat_rows, u), flat_rows]


def policy_from_occupancy(rho: OccupancyMeasure) -> SoftmaxPolicy:
    """The policy of a measure (a policy's occupancy or the expert's): each row
    normalized, logits floored LOGIT_GAP below the row's largest; states with
    zero mass get uniform logits (the max-entropy completion off the support)."""
    r, mass = rho.rho, rho.state_marginal()
    logits = np.zeros_like(r)
    pos = mass > 0.0
    p = r[pos] / mass[pos, None]
    floor = p.max(axis=1, keepdims=True) * math.exp(-LOGIT_GAP)
    logits[pos] = np.log(np.maximum(p, floor))
    return SoftmaxPolicy(logits)


def causal_entropy(mdp: TabularMdp, policy: SoftmaxPolicy) -> float:
    """Discounted causal entropy E_rho[-log pi(a|s)] / (1 - gamma), with rho
    the policy's occupancy."""
    rho = occupancy_from_policy(mdp, policy).rho
    return float((rho * (-policy.log_probs)).sum() / (1.0 - mdp.gamma))


def expected_reward(rho: OccupancyMeasure, reward: np.ndarray) -> float:
    """Inner product <r, rho>.  The cumulative value is <r, rho>/(1-gamma)."""
    R = np.asarray(reward, dtype=np.float64)
    if R.shape != rho.rho.shape:
        raise ValueError(f"reward shape {R.shape} does not match occupancy {rho.rho.shape}")
    return float((rho.rho * R).sum())


def default_max_len(gamma: float) -> int:
    """Length cap with O(gamma^max_len) = 1e-6 truncation bias."""
    return max(1, math.ceil(math.log(1e-6) / math.log(gamma)))


def check_count(value, name: str) -> int:
    """`value` as an int, for a count or length that must be an integer
    >= 1; a ValueError names `name` for a boolean, a fraction or a value
    below 1.  NumPy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def sample_trajectories(mdp: TabularMdp, policy: SoftmaxPolicy, n: int,
                        max_len: int | None = None, seed: int = 0) -> Rollouts:
    """Sample n episodes of the restart chain: after each recorded (s, a)
    the chain restarts with probability 1-gamma, otherwise transitions.
    Deterministic given the seed.

    Each episode's length is drawn up front: G ~ Geometric(1-gamma) steps
    to the restart, truncated at max_len, so restarted = (G <= max_len).
    The stream holds one start uniform per episode, then one geometric
    draw per episode, then each episode's own block of 2 * length uniforms
    (an action uniform and a next-state uniform per step), in episode
    order.  In chunks of at most _SAMPLE_CHUNK episodes, the chain runs
    over the episodes sorted by length, longest first, so step t steps
    only the prefix still live; the batch does not depend on the chunk
    size.  Action draws go through the policy's draw_actions, next-state
    draws through the stored rows' action-major tables as in next_states,
    and starts through the start distribution's running sums.  Episodes
    come back in draw order."""
    n = check_count(n, "n")
    mdp.check_policy(policy)
    max_len = default_max_len(mdp.gamma) if max_len is None else check_count(max_len, "max_len")
    A, rows = mdp.n_actions, mdp._rows
    rng = np.random.default_rng(seed)
    first = np.minimum(np.searchsorted(mdp.start.cumsum(), rng.random(n)), mdp.n_states - 1)
    restart_at = rng.geometric(1.0 - mdp.gamma, size=n)    # steps up to the restart
    lengths = np.clip(restart_at, 1, max_len)
    flat = np.empty(lengths.sum(), dtype=np.int64)
    offset = 0
    for lo in range(0, n, _SAMPLE_CHUNK):
        chunk = lengths[lo:lo + _SAMPLE_CHUNK]
        u = rng.random((chunk.sum(), 2))     # row i: entry i's action and next-state uniforms
        order = np.argsort(-chunk, kind="stable")
        # live[t]: episodes with more than t steps, a prefix of `order`
        live = np.cumsum(np.bincount(chunk, minlength=chunk.max() + 1)[::-1])[::-1][1:]
        bounds = np.cumsum(live) - live
        # entry (t, j) of the step-major records is step t of episode order[j]
        step = np.repeat(np.arange(live.size), live)
        dest = (np.cumsum(chunk) - chunk)[order][np.arange(step.size) - bounds[step]] + step
        u_act, u_next = u[dest, 0], u[dest, 1]
        cur = first[lo:lo + _SAMPLE_CHUNK][order]
        rec = np.empty(step.size, dtype=np.int64)
        live = live.tolist() + [0]
        for t, at in enumerate(bounds.tolist()):
            k, k_next = live[t], live[t + 1]
            r = cur[:k] * A + policy.draw_actions(cur[:k], u_act[at:at + k])
            rec[at:at + k] = r
            if k_next:
                cur = _draw_next(rows, r[:k_next], u_next[at:at + k_next])
        flat[offset + dest] = rec
        offset += step.size
    return Rollouts(lengths=lengths, restarted=restart_at <= max_len,
                    states=flat // A, actions=flat % A)


def soft_value_iteration(mdp: TabularMdp, reward: np.ndarray, lam: float,
                         tol: float = 1e-10) -> SoftmaxPolicy:
    """Entropy-regularized RL oracle at temperature lam.

    Iterates V(s) <- lam * logsumexp((r(s,.) + gamma P V)/lam) to its fixed
    point (log-sum-exp with max subtraction) and returns pi propto
    exp(Q_soft/lam), the unique maximizer of the discounted sum of
    r - lam*log pi.  Each sweep is a gamma-contraction, so from the first
    residual r1 about log(tol / r1) / log(gamma) more sweeps reach tol;
    rounding can make a sweep shrink the residual by a little less than
    gamma, or stall it, so the iteration gives up after twice that many
    (plus 10), with a RuntimeError.

    The sweeps work on (A, S) arrays: R is transposed once, the next-state
    expectation is binned straight into flat index a * S + s, every
    reduction over actions runs over the leading axis, and the logits are
    transposed back once.  Each bin sums its entries in row order, and for
    A < 8 NumPy adds the A terms of either layout's reduction in the same
    sequence, so every iterate has the bits of the (S, A) sweep.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    R = np.asarray(reward, dtype=np.float64)
    S, A = mdp.n_states, mdp.n_actions
    if R.shape != (S, A):
        raise ValueError(f"reward must be (S, A), got {R.shape}")
    rows = mdp._rows
    a_major = rows.row % A * S + rows.state
    R_t = np.ascontiguousarray(R.T)

    def q_values(V):
        expect = np.bincount(a_major, weights=rows.prob * V[rows.col], minlength=S * A)
        return R_t + mdp.gamma * expect.reshape(A, S)

    V = np.zeros(S)
    sweeps, cap = 0, 1
    while True:
        Q = q_values(V)
        m = np.maximum.reduce(Q, axis=0)
        V_new = m + lam * np.log(np.add.reduce(np.exp((Q - m) / lam), axis=0))
        resid = float(np.abs(V_new - V).max())
        V = V_new
        sweeps += 1
        if resid <= tol:
            break
        if sweeps == 1 and np.isfinite(resid):
            cap = 1 + 2 * math.ceil(math.log(tol / resid) / math.log(mdp.gamma)) + 10
        if sweeps >= cap:
            raise RuntimeError(f"soft value iteration did not converge in {sweeps} sweeps: "
                               f"residual {resid:.3e} > {tol}")
    Q = q_values(V)
    logits = (Q - np.maximum.reduce(Q, axis=0)) / lam
    return SoftmaxPolicy(np.maximum(logits, -LOGIT_GAP).T)


def state_action_embeddings(mdp: TabularMdp) -> np.ndarray:
    """Embedding of every state-action pair, flat index s * A + a, as
    [state_embed(s); action_embed(a)]."""
    S, A = mdp.n_states, mdp.n_actions
    se = np.repeat(mdp.state_embed, A, axis=0)
    ae = np.tile(mdp.action_embed, (S, 1))
    return np.hstack([se, ae])


# ---------------------------------------------------------------------------
# Serialization

def mdp_to_json(mdp: TabularMdp) -> dict:
    row, col, prob = mdp.transition
    doc = {
        "transition": {"row": row.tolist(), "col": col.tolist(), "prob": prob.tolist()},
        "start": mdp.start.tolist(),
        "gamma": mdp.gamma,
        "state_embed": mdp.state_embed.tolist(),
        "action_embed": mdp.action_embed.tolist(),
    }
    if mdp.true_reward is not None:
        doc["true_reward"] = mdp.true_reward.tolist()
    return doc


def mdp_from_json(doc: dict) -> TabularMdp:
    """The MDP mdp_to_json wrote; a ValueError names a missing or mistyped
    key."""
    keys = ("transition", "start", "gamma", "state_embed", "action_embed")
    entries, start, gamma, state_embed, action_embed = json_fields(doc, keys, "MDP")
    if not isinstance(entries, dict):
        raise ValueError("transition must be {row, col, prob} entries, not a dense array")
    row, col, prob = json_fields(entries, ("row", "col", "prob"), "MDP 'transition'")
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
        raise ValueError(f"MDP 'gamma' must be a number, got {json.dumps(gamma)[:40]}")
    return TabularMdp(
        transition=(json_array(row, "MDP 'transition' 'row'", integer=True),
                    json_array(col, "MDP 'transition' 'col'", integer=True),
                    json_array(prob, "MDP 'transition' 'prob'")),
        start=json_array(start, "MDP 'start'"),
        gamma=float(gamma),
        state_embed=json_array(state_embed, "MDP 'state_embed'"),
        action_embed=json_array(action_embed, "MDP 'action_embed'"),
        true_reward=(json_array(doc["true_reward"], "MDP 'true_reward'")
                     if "true_reward" in doc else None),
    )


def save_mdp(path, mdp: TabularMdp) -> None:
    with open(path, "w") as fh:
        json.dump(mdp_to_json(mdp), fh)


def load_mdp(path) -> TabularMdp:
    with open(path) as fh:
        return mdp_from_json(parse_json(fh.read(), path))


def save_policy(path, policy: SoftmaxPolicy) -> None:
    with open(path, "w") as fh:
        json.dump({"logits": policy.logits.tolist()}, fh)


def parse_json(text: str, path, line: int = 1):
    """json.loads(text) for text from `path` starting at its line `line`; a
    syntax error is a ValueError naming the path, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} line {line + err.lineno - 1} column {err.colno}: "
                         f"invalid JSON ({err.msg})") from None


def json_fields(doc, keys: tuple, what: str) -> list:
    """doc[key] for each of `keys`, where `doc` is the JSON object `what`
    holds; a ValueError names a wrong JSON type or the first missing key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what} lacks the key {missing[0]!r}")
    return [doc[k] for k in keys]


def json_array(value, what: str, integer: bool = False) -> np.ndarray:
    """A JSON value read as a float64 array, or an int64 one when
    `integer`; a ValueError names `what` when the value is not a
    (possibly nested, possibly empty) list of numbers: an object, a
    string, null, a boolean, a ragged list or, for `integer`, a
    fraction."""
    kinds = "iu" if integer else "iuf"
    try:
        arr = np.asarray(value)
    except ValueError:                       # ragged nesting
        arr = None
    if arr is None or (arr.size and arr.dtype.kind not in kinds):   # [] reads as float64
        kind = "integers" if integer else "numbers"
        raise ValueError(f"{what} must be a list of {kind}, got {json.dumps(value)[:40]}")
    return arr.astype(np.int64 if integer else np.float64)


def load_policy(path) -> SoftmaxPolicy:
    with open(path) as fh:
        logits, = json_fields(parse_json(fh.read(), path), ("logits",), f"policy file {path}")
    return SoftmaxPolicy(json_array(logits, f"policy file {path}: 'logits'"))


def save_trajectories(path, batch: Rollouts) -> None:
    """JSON-lines, one {"steps": [[s, a], ...], "truncated": bool} per
    episode of the batch."""
    pairs = batch.pairs()
    with open(path, "w") as fh:
        for lo, n, restarted in zip(batch.starts, batch.lengths, batch.restarted):
            fh.write(json.dumps({"steps": pairs[lo:lo + n].tolist(),
                                 "truncated": not restarted}) + "\n")


def load_trajectories(path) -> Rollouts:
    """The episodes save_trajectories wrote; a ValueError names the line of
    a syntax error, or the line and key of a missing or mistyped field."""
    steps, restarted = [], []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            if not line.strip():
                continue
            what = f"{path} line {i}"
            doc = parse_json(line.rstrip(), path, i)
            st, truncated = json_fields(doc, ("steps", "truncated"), what)
            st = json_array(st, f"{what}: 'steps'", integer=True)
            if st.size and (st.ndim != 2 or st.shape[1] != 2):
                raise ValueError(f"{what}: 'steps' must be a list of [state, action] pairs")
            if not isinstance(truncated, bool):
                raise ValueError(f"{what}: 'truncated' must be true or false")
            steps.append(st.reshape(-1, 2))
            restarted.append(not truncated)
    pairs = np.concatenate(steps or [np.zeros((0, 2), dtype=np.int64)])
    return Rollouts(lengths=[len(st) for st in steps], restarted=restarted,
                    states=pairs[:, 0], actions=pairs[:, 1])
