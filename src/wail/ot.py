"""Optimal transport between discrete state-action measures.

Provides ground-metric construction from embeddings, exact 1-Wasserstein
oracles (primal transport LP and the Lipschitz-potential dual LP), and the
regularized dual objective whose ascent drives reward learning.  In the
regularized dual a single potential r plays both roles (the partner
potential is -r), so the maximizer is a reward function defined everywhere.
Cost blocks come from a NumPy distance kernel (euclidean_distances); only
the two LP oracles load SciPy, when they are called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rewards
from .mdp import TabularMdp, state_action_embeddings, unchecked

SUPPORT_CAP = 300          # exact LP oracles reject larger supports
ENT_EXP_CLAMP = 30.0       # clamp on the entropic exponent before exp()
PAIR_SUM_TOL = 1e-10
METRIC_TOL = 1e-9          # rounding require_metric forgives in the metric axioms
CHUNK_BYTES = 512 * 1024   # cost-block rows the dual pass and the distance kernel hold at once
REG_KINDS = ("entropic", "l2")   # the dual regularizers
SCREEN_TAU = 0.1           # l2 pairs with slack above -SCREEN_TAU join a DualScreen
SCREEN_MARGIN = 1e-9       # rounding headroom in the screen's validity bound
# A screened pass costs ~40 us plus ~30 ns a pair against ~2.7 ns a pair
# for the full pass: blocks under one chunk and screens over this share of
# their block would be slower through a screen, so neither keeps one
SCREEN_MIN_PAIRS = CHUNK_BYTES // 8
SCREEN_MAX_SHARE = 0.05

_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}

class DivergenceError(RuntimeError):
    """Raised when an ascent produces a non-finite objective.  The training
    loop attaches its partial log as `log` before passing it on."""

    log = None


@dataclass(frozen=True)
class GroundMetric:
    """Pairwise ground cost between a source support (policy side) and a
    target support (expert side): dist[u, v] is the cost between flat
    indices src_index[u] and tgt_index[v] of the full state-action set,
    whose embedding table is `embed`.  The constructor checks a given
    block; from_embeddings checks the embeddings instead and, like
    restrict, builds its block `unchecked`."""

    dist: np.ndarray            # (n_src, n_tgt)
    src_index: np.ndarray       # (n_src,) flat state-action indices
    tgt_index: np.ndarray       # (n_tgt,)
    embed: np.ndarray           # (n_points, d)

    def __post_init__(self):
        D = np.asarray(self.dist, dtype=np.float64)
        if D.ndim != 2 or not np.all(np.isfinite(D) & (D >= 0)):
            raise ValueError(f"ground costs must be finite, non-negative and 2-D, got {D.shape}")
        si = np.asarray(self.src_index, dtype=np.int64)
        ti = np.asarray(self.tgt_index, dtype=np.int64)
        if si.shape != (D.shape[0],) or ti.shape != (D.shape[1],):
            raise ValueError("support index shapes do not match dist")
        object.__setattr__(self, "dist", D)
        object.__setattr__(self, "src_index", si)
        object.__setattr__(self, "tgt_index", ti)
        object.__setattr__(self, "embed", np.asarray(self.embed, dtype=np.float64))

    @property
    def n_src(self) -> int:
        return self.dist.shape[0]

    @property
    def n_tgt(self) -> int:
        return self.dist.shape[1]

    @classmethod
    def from_embeddings(cls, embed: np.ndarray, src_index=None,
                        tgt_index=None) -> "GroundMetric":
        embed = np.asarray(embed, dtype=np.float64)
        si = np.arange(embed.shape[0]) if src_index is None else np.asarray(src_index, dtype=np.int64)
        ti = np.arange(embed.shape[0]) if tgt_index is None else np.asarray(tgt_index, dtype=np.int64)
        if embed.ndim != 2 or si.ndim != 1 or ti.ndim != 1 or not np.all(np.isfinite(embed)):
            raise ValueError("embed must be finite (n_points, d) and the indices 1-D")
        return unchecked(cls, dist=euclidean_distances(embed[si], embed[ti]), src_index=si,
                         tgt_index=ti, embed=embed)

    def restrict(self, src_sel, tgt_sel) -> "GroundMetric":
        """Sub-metric over positional selections of the current supports
        (duplicates allowed, for with-replacement batches)."""
        src_sel = np.asarray(src_sel, dtype=np.int64)
        tgt_sel = np.asarray(tgt_sel, dtype=np.int64)
        return unchecked(GroundMetric, dist=self.dist[np.ix_(src_sel, tgt_sel)],
                         src_index=self.src_index[src_sel], tgt_index=self.tgt_index[tgt_sel],
                         embed=self.embed)

    def require_metric(self) -> None:
        """Validate shared support, symmetry, zero diagonal and the triangle
        inequality (needed for the single-potential dual), each up to
        METRIC_TOL."""
        if self.n_src != self.n_tgt or not np.array_equal(self.src_index, self.tgt_index):
            raise ValueError("dual LP needs one common support on both sides")
        D = self.dist
        if np.abs(np.diag(D)).max() > METRIC_TOL:
            raise ValueError("ground cost has a nonzero diagonal")
        if np.abs(D - D.T).max() > METRIC_TOL:
            raise ValueError("ground cost is not symmetric")
        for k in range(D.shape[0]):
            if (D - (D[:, k:k + 1] + D[k:k + 1, :])).max() > METRIC_TOL:
                raise ValueError("ground cost violates the triangle inequality")


def euclidean_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (n, m) Euclidean distances between the rows of x (n, d) and y
    (m, d), with the same bits as scipy's cdist at every width d.

    Like cdist, each pair's squared differences are summed one coordinate
    at a time, in order j = 0 ... d - 1, and the sum's square root is
    taken.  (The broadcast form sqrt(((x[:, None] - y) ** 2).sum(-1))
    rounds otherwise from d = 8 up: its sum is pairwise.)  The rows go
    through in chunks of about CHUNK_BYTES, with one reused buffer for the
    differences, so the only block-sized array is the result."""
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"points of width {x.shape[1]} and {y.shape[1]} have no distance")
    n, m = x.shape[0], y.shape[0]
    out = np.zeros((n, m))
    if n == 0 or m == 0:
        return out
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    rows = max(1, CHUNK_BYTES // (8 * m))
    buf = np.empty((min(rows, n), m))
    for i in range(0, n, rows):
        j = min(i + rows, n)
        acc, diff = out[i:j], buf[:j - i]
        for xk, yk in zip(xt, yt):
            np.subtract(xk[i:j, None], yk, out=diff)
            diff *= diff
            acc += diff
        np.sqrt(acc, out=acc)
    return out


def build_ground_metric(mdp: TabularMdp, src_index=None, tgt_index=None) -> GroundMetric:
    """Euclidean distances between state-action embeddings, from source to
    target flat indices (duplicates allowed; None is the full S x A set)."""
    return GroundMetric.from_embeddings(state_action_embeddings(mdp), src_index, tgt_index)


@dataclass(frozen=True)
class DualRegularization:
    """Penalty replacing the hard dual constraint: entropic (exponential) or
    l2 (quadratic hinge), with strength controlled by epsilon."""

    kind: str
    epsilon: float

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"kind must be one of {REG_KINDS}, got {self.kind!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and strictly positive")


@dataclass(frozen=True)
class DiscreteMeasurePair:
    """Weights of the policy-side (source) and expert-side (target) measures
    over their respective supports, checked by the constructor; the
    training loop builds its pairs `unchecked` (see OtDualStep)."""

    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        for name in ("source", "target"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if w.ndim != 1 or not np.all(np.isfinite(w) & (w >= 0)):
                raise ValueError(f"{name} weights must be a finite, non-negative vector")
            if abs(w.sum() - 1.0) > PAIR_SUM_TOL:
                raise ValueError(f"{name} weights must sum to 1 (got {w.sum():.12f})")
            object.__setattr__(self, name, w)


def _check_sizes(pair: DiscreteMeasurePair, metric: GroundMetric, *potentials) -> None:
    if pair.source.size != metric.n_src or pair.target.size != metric.n_tgt:
        raise ValueError(f"measure supports ({pair.source.size}, {pair.target.size}) "
                         f"do not match metric ({metric.n_src}, {metric.n_tgt})")
    if any(np.shape(r) != (n,) for r, n in zip(potentials, (metric.n_src, metric.n_tgt))):
        raise ValueError("potential value vectors must match support sizes")


def w1_primal_lp(pair: DiscreteMeasurePair, metric: GroundMetric):
    """Exact transport LP: min <plan, d> with plan marginals equal to the
    source/target weights.  Returns (value, plan)."""
    _check_sizes(pair, metric)
    n, m = metric.n_src, metric.n_tgt
    if n > SUPPORT_CAP or m > SUPPORT_CAP:
        raise ValueError(f"support too large for exact oracle ({n}x{m} > {SUPPORT_CAP}); subsample first")
    from scipy.optimize import linprog     # not at import: no training path solves an LP
    from scipy.sparse import coo_matrix
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), np.arange(n * m)])
    A_eq = coo_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)).tocsr()
    b_eq = np.concatenate([pair.source, pair.target])
    res = linprog(metric.dist.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    marg_err = max(np.abs(plan.sum(axis=1) - pair.source).max(),
                   np.abs(plan.sum(axis=0) - pair.target).max())
    if marg_err > 1e-8:
        raise ArithmeticError(f"transport plan marginal error {marg_err:.3e}")
    return float(res.fun), plan


def w1_dual_lp(pair: DiscreteMeasurePair, metric: GroundMetric):
    """Exact dual LP with one Lipschitz potential: maximize
    <f, target> - <f, source> subject to f(i) - f(j) <= d(i, j).

    Requires a genuine metric on a shared support.  The solver's potential is
    tightened by one pass of f(i) <- min_j f(j) + d(j, i), which is feasible
    by the triangle inequality; the reported value comes from the tightened
    potential, so weak duality bounds it by the primal value.
    """
    _check_sizes(pair, metric)
    n = metric.n_src
    if n > SUPPORT_CAP:
        raise ValueError(f"support too large for exact oracle ({n} > {SUPPORT_CAP}); subsample first")
    metric.require_metric()
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix
    D = metric.dist
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    k = ii.size
    r = np.arange(k)
    A_ub = coo_matrix((np.concatenate([np.ones(k), -np.ones(k)]),
                       (np.concatenate([r, r]), np.concatenate([ii, jj]))),
                      shape=(k, n)).tocsr()
    bounds = [(0.0, 0.0)] + [(None, None)] * (n - 1)   # pin the gauge
    res = linprog(pair.source - pair.target, A_ub=A_ub, b_ub=D[ii, jj],
                  bounds=bounds, method="highs", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"dual LP failed: {res.message}")
    f = (res.x[:, None] + D).min(axis=0)
    value = float(f @ (pair.target - pair.source))
    return value, f


class DualScreen:
    """The l2 screen of the regularized-dual pass over one cost block, and
    counts of the passes made through it.

    The screen keeps a reference potential value per row, r0_src(x), and
    per column, r0_tgt(y), and every pair whose computed slack at them,
    r0_tgt(y) - r0_src(x) - d(x, y), is above -SCREEN_TAU.  Its invariant
    is per pair: each pair outside has slack <= -SCREEN_TAU at its
    references.  A full l2 pass builds it with every reference at that
    pass's values.  At a later pass over the same block, with the moves
    dt = r_tgt - r0_tgt and ds = r0_src - r_src, a pair outside has slack
    at most -SCREEN_TAU + dt(y) + ds(x).  So while

        b = max(dt) + max(ds) < lim = SCREEN_TAU - SCREEN_MARGIN

    each pair outside has slack below -SCREEN_MARGIN, far below any
    rounding of z, its l2 penalty and slope are exactly 0, and the pass
    reads only the screen's pairs.  Once b fails, a few points moved: the
    pass picks the split a in [0, lim) that rescans the fewest pairs and
    refreshes the columns with dt > a and the rows with ds >= lim - a.  It
    moves their references to its values, recomputes their pairs' slack
    at the references and replaces their pairs, then reads the screen.
    Outside the refreshed rows and columns dt + ds < lim still holds; a
    refreshed row meets the other columns with dt <= a < lim, and a
    refreshed column the other rows with ds < lim - a <= lim.  The bound
    and the moves read the potential values at the support points, so
    they hold for every model form.

    The pass walks the whole block and rebuilds the screen on another
    block, on a non-finite move, and when the refresh would rescan, or
    the refreshed screen would hold, more than SCREEN_MAX_SHARE of the
    block.  Every entropic pass is a full one, since that penalty is never
    exactly 0, and so is every pass over a block of fewer than
    SCREEN_MIN_PAIRS pairs or whose screen would hold more than
    SCREEN_MAX_SHARE of them.  A screen pays only over a block that later
    fits pass over again; one instance serves one caller's passes."""

    def __init__(self):
        self.metric = None     # the block the pairs below index; None when there is no screen
        self.rows = self.cols = self.dist = None   # the pairs, as found
        self.r0_src = self.r0_tgt = None
        self.passes = 0        # passes made through this screen
        self.rebuilds = 0      # of them, passes that walked the whole block
        self.refreshes = 0     # of them, passes served after refreshing rows or columns

    def _rebuild(self, metric, r_src, r_tgt, flat) -> None:
        """Keep the pairs at flat indices `flat` of metric.dist, found at
        these potential values; None leaves no screen."""
        self.metric = self.rows = self.cols = self.dist = self.r0_src = self.r0_tgt = None
        if flat is not None:
            self.metric = metric
            self.rows, self.cols = np.divmod(flat, metric.n_tgt)
            self.dist = metric.dist[self.rows, self.cols]
            self.r0_src, self.r0_tgt = r_src.copy(), r_tgt.copy()

    def serves(self, metric: GroundMetric, r_src, r_tgt) -> bool:
        """Whether the screen covers every pair the l2 penalty can reach at
        these potential values on `metric`, refreshing the rows and columns
        that moved when the global bound fails; False asks for a full pass."""
        if self.metric is not metric:
            return False
        lim = SCREEN_TAU - SCREEN_MARGIN
        d_tgt, d_src = r_tgt - self.r0_tgt, self.r0_src - r_src
        b = d_tgt.max() + d_src.max()
        if b < lim:
            return True
        if not np.isfinite(b):     # NaN or inf: no split bounds the moves
            return False
        (n, m), cap = metric.dist.shape, SCREEN_MAX_SHARE * metric.dist.size
        # keeping the j columns that moved least allows the split
        # a_j = max(0, their largest dt), and needs the rows with ds >= lim - a_j
        order = np.argsort(d_tgt, kind="stable")
        a = np.maximum(np.concatenate(([0.0], d_tgt[order])), 0.0)
        # a split with a < lim needs only rows with ds >= lim - max(a[a < lim]),
        # so only those are sorted; splits with a >= lim are masked below
        reach = np.sort(d_src[d_src >= lim - a[a < lim].max()])
        n_rows = reach.size - np.searchsorted(reach, lim - a)
        n_cols = m - np.arange(m + 1)
        rescan = np.where(a < lim, n_cols * n + n_rows * m - n_cols * n_rows, n * m)
        j = int(rescan.argmin())
        if rescan[j] > cap:
            return False
        cols, rows = order[j:], np.flatnonzero(d_src >= lim - a[j])
        r0_src, r0_tgt = self.r0_src.copy(), self.r0_tgt.copy()
        r0_src[rows], r0_tgt[cols] = r_src[rows], r_tgt[cols]
        moved_src, moved_tgt = np.zeros(n, dtype=bool), np.zeros(m, dtype=bool)
        moved_src[rows], moved_tgt[cols] = True, True
        keep = ~(moved_src[self.rows] | moved_tgt[self.cols])
        d_rows, d_cols = metric.dist[rows], metric.dist[:, cols]
        z_rows = r0_tgt - r0_src[rows, None]      # the full pass's bits per pair
        z_rows -= d_rows
        z_cols = r0_tgt[cols] - r0_src[:, None]
        z_cols -= d_cols
        z_cols[rows] = -np.inf                    # found with the refreshed rows
        ri, ci = np.nonzero(z_rows > -SCREEN_TAU)
        rj, cj = np.nonzero(z_cols > -SCREEN_TAU)
        if np.count_nonzero(keep) + ri.size + rj.size > cap:
            return False
        self.rows = np.concatenate((self.rows[keep], rows[ri], rj))
        self.cols = np.concatenate((self.cols[keep], ci, cols[cj]))
        self.dist = np.concatenate((self.dist[keep], d_rows[ri, ci], d_cols[rj, cj]))
        self.r0_src, self.r0_tgt = r0_src, r0_tgt
        self.refreshes += 1
        return True


def _objective_and_gradient(r_src, r_tgt, pair, metric, reg, screen=None):
    """The regularized dual's value, its gradients with respect to r_src
    and r_tgt, and the number of entropic exponents clamped at
    ENT_EXP_CLAMP, from one pass over the cost block, or over `screen`'s
    pairs while it serves (DualScreen states when, and why the pairs
    outside then have exactly 0 penalty and slope).

    The penalty on the slack z = r(y) - r(x) - d(x, y) is -z+^2 / (4 eps)
    with slope -z+ / (2 eps) for l2, and -eps exp(z / eps) with slope
    -exp(z / eps) for entropic; the entropic slope keeps the (clipped)
    exponential so ascent is pulled back even past the overflow clamp.
    The full pass walks the block in row chunks of about CHUNK_BYTES
    through one buffer, forming each chunk's slack in place and keeping
    only the penalty mass and the row and column sums the gradients read,
    so it makes no block-sized temporary.  Given a screen, an l2 full pass
    also rebuilds it.  Its callers check the sizes (see _check_sizes)."""
    r_src = np.asarray(r_src, dtype=np.float64)
    r_tgt = np.asarray(r_tgt, dtype=np.float64)
    src, tgt = pair.source, pair.target
    if screen is not None:
        screen.passes += 1
    screening = (screen is not None and reg.kind == "l2"
                 and metric.dist.size >= SCREEN_MIN_PAIRS)
    if screening and screen.serves(metric, r_src, r_tgt):
        mass, row_sums, col_sums, clamps = _screened_sums(r_src, r_tgt, src, tgt, screen)
    else:
        if screen is not None:
            screen.rebuilds += 1
        mass, row_sums, col_sums, clamps = _block_sums(r_src, r_tgt, src, tgt, metric, reg,
                                                       screen if screening else None)
    if reg.kind == "entropic":
        penalty, slope_scale = reg.epsilon * mass, 1.0
    else:
        penalty, slope_scale = mass / (4.0 * reg.epsilon), 1.0 / (2.0 * reg.epsilon)
    value = float(r_tgt @ tgt - r_src @ src - penalty)
    g_src = src * (slope_scale * row_sums - 1.0)
    g_tgt = tgt * (1.0 - slope_scale * col_sums)
    return value, g_src, g_tgt, clamps


def _block_sums(r_src, r_tgt, src, tgt, metric, reg, screen):
    """The penalty mass, the unscaled slope row sums (slope rows . target)
    and column sums (source . slope columns) and the clamp count, from one
    chunked pass over the whole block; with `screen` (l2 only) the pass
    also rebuilds it at these potential values."""
    dist = metric.dist
    n, m = dist.shape
    rows = max(1, CHUNK_BYTES // (8 * m))
    buf = np.empty((min(rows, n), m))
    row_sums, col_sums = np.empty(n), np.zeros(m)
    mass, clamps = 0.0, 0
    found, n_found = [], 0       # flat indices of the screen's pairs, and their count
    collect, cap = screen is not None, SCREEN_MAX_SHARE * n * m
    for i in range(0, n, rows):
        j = min(i + rows, n)
        z = buf[:j - i]
        z[...] = r_tgt            # faster than one broadcast subtract, same bits
        z -= r_src[i:j, None]
        z -= dist[i:j]
        if reg.kind == "entropic":
            z /= reg.epsilon
            clamps += int(np.count_nonzero(z > ENT_EXP_CLAMP))
            np.minimum(z, ENT_EXP_CLAMP, out=z)
            np.exp(z, out=z)
            row_sums[i:j] = z @ tgt
            mass += src[i:j] @ row_sums[i:j]
            col_sums += src[i:j] @ z
        else:
            if collect and n_found <= cap:
                # flat over 2-D indices: np.nonzero on a chunk costs ~8x more
                found.append(np.flatnonzero(z > -SCREEN_TAU) + i * m)
                n_found += found[-1].size
            np.maximum(z, 0.0, out=z)
            row_sums[i:j] = z @ tgt
            col_sums += src[i:j] @ z
            z *= z
            mass += src[i:j] @ (z @ tgt)
    if collect:
        screen._rebuild(metric, r_src, r_tgt, np.concatenate(found) if n_found <= cap else None)
    return mass, row_sums, col_sums, clamps


def _screened_sums(r_src, r_tgt, src, tgt, screen):
    """_block_sums for l2 from the screen's pairs alone: the same slack
    bits per pair, summed in another order."""
    z = r_tgt[screen.cols] - r_src[screen.rows]
    z -= screen.dist
    np.maximum(z, 0.0, out=z)
    zt = z * tgt[screen.cols]
    zs = src[screen.rows] * z
    return (float(zs @ zt), np.bincount(screen.rows, weights=zt, minlength=src.size),
            np.bincount(screen.cols, weights=zs, minlength=tgt.size), 0)


def reg_dual_objective(r_src, r_tgt, pair: DiscreteMeasurePair,
                       metric: GroundMetric, reg: DualRegularization) -> float:
    """<r, target> - <r, source> plus the product-measure expectation of the
    penalty on constraint violations r(y) - r(x) > d(x, y)."""
    _check_sizes(pair, metric, r_src, r_tgt)
    return _objective_and_gradient(r_src, r_tgt, pair, metric, reg)[0]


def reg_dual_gradient(r_src, r_tgt, pair: DiscreteMeasurePair,
                      metric: GroundMetric, reg: DualRegularization):
    """Analytic gradient of reg_dual_objective with respect to the potential
    values on the source and target supports."""
    _check_sizes(pair, metric, r_src, r_tgt)
    return _objective_and_gradient(r_src, r_tgt, pair, metric, reg)[1:3]


def reg_ot_fit(pair: DiscreteMeasurePair, metric: GroundMetric, reg: DualRegularization,
               model: rewards.PotentialModel, steps: int, lr: float,
               screen: DualScreen | None = None):
    """Full-batch ascent of the regularized dual through the reward
    model's parameters, on the metric's supports with the pair's weights.
    Makes one pass per step (one, for the value, when steps = 0), each
    over the whole block, or through `screen` when given, which the caller
    keeps for its later fits over the same block (see DualScreen for which
    passes it serves).  Returns the trained copy, the objective at the
    model it started from (the value its first step ascends from) and the
    number of entropic exponents clamped over all passes.  Raises
    DivergenceError when a step's starting objective is non-finite or a
    step leaves a non-finite parameter; with steps = 0 the returned
    objective is the caller's to check.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError("lr must be finite and > 0")
    _check_sizes(pair, metric)
    work = model.copy()
    src_embed = rewards.support_embeds(work, metric.embed, metric.src_index)
    tgt_embed = rewards.support_embeds(work, metric.embed, metric.tgt_index)
    clamps, start = 0, None
    for k in range(max(steps, 1)):
        r_src = rewards.support_values(work, metric.src_index, src_embed)
        r_tgt = rewards.support_values(work, metric.tgt_index, tgt_embed)
        value, g_src, g_tgt, step_clamps = _objective_and_gradient(r_src, r_tgt, pair, metric,
                                                                   reg, screen)
        clamps += step_clamps
        if k == 0:
            start = value
        if steps == 0:
            break
        if not np.isfinite(value):
            raise DivergenceError(f"regularized dual objective diverged at step {k}")
        grad = (rewards.accumulate_param_grad(work, metric.src_index, src_embed, g_src)
                + rewards.accumulate_param_grad(work, metric.tgt_index, tgt_embed, g_tgt))
        work.params = work.params + lr * grad
        if not np.all(np.isfinite(work.params)):
            raise DivergenceError(f"regularized dual ascent left non-finite parameters at step {k}")
    return work, start, clamps
