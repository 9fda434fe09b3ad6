import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import wail
from wail import (DiscreteMeasurePair, DualRegularization, GroundMetric,
                  build_ground_metric, reg_dual_gradient, reg_dual_objective,
                  reg_ot_fit, w1_dual_lp, w1_primal_lp)
from wail import ot
from wail.ot import (CHUNK_BYTES, ENT_EXP_CLAMP, SCREEN_MARGIN,
                     SCREEN_MAX_SHARE, SCREEN_MIN_PAIRS, SCREEN_TAU, DivergenceError,
                     DualScreen, euclidean_distances)

from conftest import random_mdp


def random_instance(rng, n, dim=3):
    E = rng.normal(size=(n, dim))
    metric = GroundMetric.from_embeddings(E)
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    return DiscreteMeasurePair(a, b), metric


def line_w1(src, tgt):
    """Independent 1-D oracle: W1 on integer support with |i-j| cost equals
    the summed absolute CDF difference."""
    return float(np.abs(np.cumsum(src) - np.cumsum(tgt))[:-1].sum())


class TestGroundMetric:
    def test_identical_embeddings_zero(self):
        m = GroundMetric.from_embeddings(np.zeros((3, 2)))
        assert np.all(m.dist == 0.0)

    def test_euclidean_example(self):
        m = GroundMetric.from_embeddings(np.array([[0., 0., 1.], [0., 0., 0.]]))
        assert abs(m.dist[0, 1] - 1.0) < 1e-15

    def test_metric_axioms_on_random_triples(self, rng):
        E = rng.normal(size=(40, 4))
        m = GroundMetric.from_embeddings(2.0 * E)
        D = m.dist
        idx = rng.integers(0, 40, size=(1000, 3))
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        assert np.abs(D[i, j] - D[j, i]).max() < 1e-12
        assert np.all(D[i, k] <= D[i, j] + D[j, k] + 1e-12)

    def test_build_from_mdp_full_index_set(self):
        mdp = random_mdp(3, 2, 0.9, seed=0)
        m = build_ground_metric(mdp)
        assert m.dist.shape == (6, 6)
        E = wail.state_action_embeddings(mdp)
        assert abs(m.dist[0, 5] - np.linalg.norm(E[0] - E[5])) < 1e-12

    def test_restrict_selects_entries(self, rng):
        E = rng.normal(size=(6, 2))
        m = GroundMetric.from_embeddings(E)
        sub = m.restrict([0, 2], [1, 1, 3])
        assert sub.dist.shape == (2, 3)
        assert sub.dist[1, 2] == m.dist[2, 3]
        assert np.array_equal(sub.tgt_index, [1, 1, 3])

    @pytest.mark.parametrize("src_sel", [np.arange(9), [0, 1, 2, 3, 4, 5, 6, 7, 7],
                                         [1, 0, 2, 3, 4, 5, 6, 7, 8], [0, 1, 2]],
                             ids=["every", "duplicated", "permuted", "prefix"])
    def test_restrict_matches_fancy_indexing(self, rng, src_sel):
        # selecting every source point in order takes whole columns; any
        # other selection, even one of the same length, must not
        m = GroundMetric.from_embeddings(rng.normal(size=(9, 3)), src_index=np.arange(9),
                                         tgt_index=[2, 4, 4, 8])
        tgt_sel = [3, 0, 0, 2]
        sub = m.restrict(src_sel, tgt_sel)
        sel = np.asarray(src_sel)
        assert sub.dist.tobytes() == m.dist[np.ix_(sel, tgt_sel)].tobytes()
        assert sub.dist.flags.c_contiguous
        assert np.array_equal(sub.src_index, m.src_index[sel])
        assert np.array_equal(sub.tgt_index, m.tgt_index[tgt_sel])
        assert not np.shares_memory(sub.dist, m.dist)


    @pytest.mark.parametrize("scale", [1.0, 0.37, 2.5])
    @pytest.mark.parametrize("env", [{"name": "gridworld", "n": 5}, {"name": "gridworld", "n": 30},
                                     {"name": "cliff"}, {"name": "chain"},
                                     {"name": "mountain_car"}],
                             ids=["grid5", "grid30", "cliff", "chain", "mountain_car"])
    def test_block_equals_the_restricted_full_metric(self, env, scale):
        # training builds only the cost block it reads; it must hold the same
        # bytes as that block cut out of the full (S*A)^2 metric, also over
        # scaled embeddings (scale 1.0 is build_ground_metric's)
        mdp = wail.build_environment(env)
        E = scale * wail.state_action_embeddings(mdp)
        full = GroundMetric.from_embeddings(E)
        n = full.n_src
        rng = np.random.default_rng(n)
        support = np.unique(rng.integers(0, n, size=max(2, n // 15)))
        batches = rng.integers(0, n, size=(2, 128))    # with duplicates, as sampled
        for src, tgt in [(np.arange(n), support), (batches[0], batches[1])]:
            block = GroundMetric.from_embeddings(E, src, tgt)
            if scale == 1.0:
                assert build_ground_metric(mdp, src, tgt).dist.tobytes() == block.dist.tobytes()
            cut = full.restrict(src, tgt)
            assert block.dist.tobytes() == cut.dist.tobytes()
            assert block.dist.flags.c_contiguous and cut.dist.flags.c_contiguous
            assert block.src_index.tobytes() == cut.src_index.tobytes()
            assert block.tgt_index.tobytes() == cut.tgt_index.tobytes()
            assert block.embed.tobytes() == full.embed.tobytes()


# Every builder, at its default size unless named
BUILDERS = {
    "grid5": lambda: wail.make_gridworld(5),
    "grid14-slip": lambda: wail.make_gridworld(14, slip=0.2),
    "cliff": wail.make_cliff,
    "mountain-car": wail.make_mountain_car,
    "chain": wail.make_chain,
}


class TestDistanceKernel:
    """euclidean_distances must give cdist's bytes, so cost blocks are the
    ones cdist built before it: every fixed-seed output depends on them.
    Its upper triangle over one point set must give pdist's bytes, which
    relative_lipschitz (criterion 8) read before it."""

    @staticmethod
    def assert_cdist_bits(x, y):
        got, want = euclidean_distances(x, y), cdist(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def assert_pdist_bits(x):
        i, j = np.triu_indices(x.shape[0], k=1)
        assert euclidean_distances(x, x)[i, j].tobytes() == pdist(x).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_full_metric(self, name, scale):
        mdp = BUILDERS[name]()
        E = wail.state_action_embeddings(mdp)
        self.assert_cdist_bits(scale * E, scale * E)
        assert build_ground_metric(mdp).dist.tobytes() == cdist(E, E).tobytes()

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_upper_triangle(self, name):
        # relative_lipschitz's points: the unique embeddings
        self.assert_pdist_bits(np.unique(wail.state_action_embeddings(BUILDERS[name]()), axis=0))

    def test_grid30_block_over_the_expert_support(self):
        # the scale-exact block: every state-action point x the support of
        # ten demonstrations
        mdp = wail.make_gridworld(30)
        _, demos = wail.make_expert(mdp, n_traj=10, traj_len=50, seed=3)
        support = np.unique(demos.states * mdp.n_actions + demos.actions)
        E = wail.state_action_embeddings(mdp)
        self.assert_cdist_bits(E, E[support])
        block = build_ground_metric(mdp, np.arange(E.shape[0]), support)
        assert block.dist.tobytes() == cdist(E, E[support]).tobytes()

    def test_index_selections_with_duplicates(self, rng):
        E = rng.normal(size=(30, 6))
        src, tgt = rng.integers(0, 30, size=50), rng.integers(0, 30, size=40)
        assert len(np.unique(src)) < src.size and len(np.unique(tgt)) < tgt.size
        metric = GroundMetric.from_embeddings(E, src, tgt)
        assert metric.dist.tobytes() == cdist(E[src], E[tgt]).tobytes()

    @pytest.mark.parametrize("m", [100, CHUNK_BYTES // 8 + 3], ids=["many-rows", "wide-rows"])
    def test_block_of_several_chunks_with_a_ragged_last_one(self, rng, m):
        # three whole chunks and a half one (one-row chunks when wide)
        rows = max(1, CHUNK_BYTES // (8 * m))
        n = 3 * rows + max(1, rows // 2)
        self.assert_cdist_bits(rng.normal(size=(n, 5)), rng.normal(size=(m, 5)))

    @pytest.mark.parametrize("n, m", [(0, 4), (4, 0), (0, 0)])
    def test_empty_sides(self, rng, n, m):
        self.assert_cdist_bits(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))

    def test_unequal_widths_rejected(self):
        # as cdist did: a tabular surface reads points from outside the run
        fn = wail.model_surface_fn(wail.create_model("tabular", (36,), 0), wail.make_gridworld(3))
        with pytest.raises(ValueError, match="width 9 and 6"):
            fn(np.zeros((2, 9)))

    def test_random_widths(self, rng):
        # the broadcast form sqrt(((x[:, None] - y) ** 2).sum(-1)) sums
        # pairwise and loses these bits from width 8 up
        for d in range(1, 33):
            spread = rng.uniform(0.1, 10.0)
            self.assert_cdist_bits(spread * rng.normal(size=(23, d)), rng.normal(size=(17, d)))
            self.assert_pdist_bits(spread * rng.normal(size=(23, d)))


class TestRegularizationType:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            DualRegularization("l2", 0.0)
        with pytest.raises(ValueError):
            DualRegularization("huber", 0.1)

    def test_pair_weights_validated(self):
        with pytest.raises(ValueError):
            DiscreteMeasurePair([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(ValueError):
            DiscreteMeasurePair([1.1, -0.1], [0.5, 0.5])


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, bad, rng):
        # every range check is a comparison, which NaN passes
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasurePair([bad, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasurePair([0.5, 0.5], [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            GroundMetric(np.array([[0.0, bad]]), [0], [0, 1], np.zeros((2, 1)))
        for kind in ("l2", "entropic"):
            with pytest.raises(ValueError, match="finite"):
                DualRegularization(kind, bad)
        pair, metric = random_instance(rng, 3)
        model = wail.create_model("tabular", (3,), seed=0)
        with pytest.raises(ValueError, match="finite"):
            reg_ot_fit(pair, metric, DualRegularization("l2", 0.1), model, steps=1, lr=bad)


class TestPrimalLp:
    def test_identical_measures_zero(self, rng):
        pair, metric = random_instance(rng, 8)
        same = DiscreteMeasurePair(pair.source, pair.source)
        value, plan = w1_primal_lp(same, metric)
        assert abs(value) < 1e-9

    def test_two_point_masses(self):
        m = GroundMetric.from_embeddings(np.array([[0.0], [2.0]]))
        pair = DiscreteMeasurePair([1.0, 0.0], [0.0, 1.0])
        value, plan = w1_primal_lp(pair, m)
        assert abs(value - 2.0) < 1e-9
        assert abs(plan[0, 1] - 1.0) < 1e-9

    def test_line_cdf_oracle(self):
        m = GroundMetric.from_embeddings(np.array([[0.0], [1.0], [2.0]]))
        src = np.array([0.0, 0.5, 0.5])
        tgt = np.array([0.5, 0.5, 0.0])
        value, _ = w1_primal_lp(DiscreteMeasurePair(src, tgt), m)
        assert abs(value - 1.0) < 1e-9
        assert abs(value - line_w1(src, tgt)) < 1e-9

    def test_random_line_instances_match_cdf_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            m = GroundMetric.from_embeddings(np.arange(n, dtype=float)[:, None])
            src = rng.dirichlet(np.ones(n))
            tgt = rng.dirichlet(np.ones(n))
            value, _ = w1_primal_lp(DiscreteMeasurePair(src, tgt), m)
            assert abs(value - line_w1(src, tgt)) < 1e-8

    def test_marginals_within_tolerance(self, rng):
        pair, metric = random_instance(rng, 20)
        _, plan = w1_primal_lp(pair, metric)
        assert np.abs(plan.sum(axis=1) - pair.source).max() < 1e-8
        assert np.abs(plan.sum(axis=0) - pair.target).max() < 1e-8

    def test_support_cap(self, rng):
        n = 301
        metric = GroundMetric(np.zeros((n, n)), np.arange(n), np.arange(n),
                              np.zeros((n, 1)))
        pair = DiscreteMeasurePair(np.full(n, 1 / n), np.full(n, 1 / n))
        with pytest.raises(ValueError, match="support too large"):
            w1_primal_lp(pair, metric)


class TestDualLp:
    def test_identical_measures(self, rng):
        pair, metric = random_instance(rng, 6)
        same = DiscreteMeasurePair(pair.source, pair.source)
        value, f = w1_dual_lp(same, metric)
        assert abs(value) < 1e-9

    def test_two_point_masses_binding(self):
        m = GroundMetric.from_embeddings(np.array([[0.0], [2.0]]))
        pair = DiscreteMeasurePair([1.0, 0.0], [0.0, 1.0])
        value, f = w1_dual_lp(pair, m)
        assert abs(value - 2.0) < 1e-9
        assert abs((f[1] - f[0]) - 2.0) < 1e-9

    def test_strong_duality_on_random_metrics(self, rng):
        for t in range(20):
            n = int(rng.integers(3, 25))
            pair, metric = random_instance(rng, n, dim=int(rng.integers(2, 5)))
            p, _ = w1_primal_lp(pair, metric)
            d, f = w1_dual_lp(pair, metric)
            assert abs(p - d) <= 1e-6
            # returned potential satisfies every Lipschitz constraint
            viol = (f[:, None] - f[None, :] - metric.dist).max()
            assert viol <= 1e-9

    def test_rejects_non_metric_cost(self):
        D = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])  # triangle fails
        metric = GroundMetric(D, np.arange(3), np.arange(3), np.zeros((3, 1)))
        pair = DiscreteMeasurePair([1., 0., 0.], [0., 1., 0.])
        with pytest.raises(ValueError, match="triangle"):
            w1_dual_lp(pair, metric)

    def test_rejects_distinct_supports(self, rng):
        E = rng.normal(size=(6, 2))
        metric = GroundMetric.from_embeddings(E, [0, 1, 2], [3, 4, 5])
        pair = DiscreteMeasurePair(np.full(3, 1 / 3), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="common support"):
            w1_dual_lp(pair, metric)


class TestW1MetricProperties:
    def test_symmetry_identity_triangle(self, rng):
        n = 12
        E = rng.normal(size=(n, 3))
        metric = GroundMetric.from_embeddings(E)
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        c = rng.dirichlet(np.ones(n))
        w = lambda x, y: w1_primal_lp(DiscreteMeasurePair(x, y), metric)[0]
        assert abs(w(a, b) - w(b, a)) < 1e-6
        assert abs(w(a, a)) < 1e-6
        assert w(a, c) <= w(a, b) + w(b, c) + 1e-6


class TestRegularizedObjective:
    def test_entropic_plug_in(self):
        m = GroundMetric.from_embeddings(np.zeros((1, 1)))
        pair = DiscreteMeasurePair([1.0], [1.0])
        reg = DualRegularization("entropic", 0.1)
        assert abs(reg_dual_objective([0.0], [0.0], pair, m, reg) + 0.1) < 1e-15

    def test_l2_inactive_at_zero(self, rng):
        pair, metric = random_instance(rng, 7)
        reg = DualRegularization("l2", 0.5)
        z = np.zeros(7)
        assert reg_dual_objective(z, z, pair, metric, reg) == 0.0

    def test_l2_at_exact_dual_potential_equals_w1(self, rng):
        for t in range(5):
            pair, metric = random_instance(rng, 10)
            value, f = w1_dual_lp(pair, metric)
            for eps in (1.0, 0.01):
                got = reg_dual_objective(f, f, pair, metric, DualRegularization("l2", eps))
                assert abs(got - value) < 1e-9

    def test_entropic_at_dual_potential_above_w1_minus_eps(self, rng):
        pair, metric = random_instance(rng, 10)
        value, f = w1_dual_lp(pair, metric)
        for eps in (1.0, 0.3, 0.05):
            got = reg_dual_objective(f, f, pair, metric, DualRegularization("entropic", eps))
            assert got >= value - eps - 1e-12

    def test_translation_invariance(self, rng):
        pair, metric = random_instance(rng, 9)
        r = rng.normal(size=9)
        for reg in (DualRegularization("l2", 0.2), DualRegularization("entropic", 0.2)):
            v0 = reg_dual_objective(r, r, pair, metric, reg)
            v1 = reg_dual_objective(r + 11.3, r + 11.3, pair, metric, reg)
            assert abs(v0 - v1) < 1e-10


class TestRegularizedGradient:
    def test_l2_inactive_penalty_gives_measure_weights(self, rng):
        E = rng.normal(size=(5, 2))
        metric = GroundMetric.from_embeddings(E + np.arange(5)[:, None] * 10)  # all d > 0
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
        pair = DiscreteMeasurePair(a, b)
        g_src, g_tgt = reg_dual_gradient(np.zeros(5), np.zeros(5), pair, metric,
                                         DualRegularization("l2", 0.1))
        assert np.allclose(g_src, -a)
        assert np.allclose(g_tgt, b)

    def test_entropic_stationary_at_symmetric_point(self):
        m = GroundMetric.from_embeddings(np.zeros((1, 1)))
        pair = DiscreteMeasurePair([1.0], [1.0])
        g_src, g_tgt = reg_dual_gradient([0.0], [0.0], pair, m,
                                         DualRegularization("entropic", 0.7))
        assert abs(g_src[0]) < 1e-15 and abs(g_tgt[0]) < 1e-15

    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for t in range(100):
            n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            E = rng.normal(size=(n + m, 3))
            metric = GroundMetric.from_embeddings(E, np.arange(n), n + np.arange(m))
            pair = DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))
            kind = "entropic" if t % 2 == 0 else "l2"
            reg = DualRegularization(kind, float(rng.uniform(0.05, 1.0)))
            r_src = rng.normal(size=n)
            r_tgt = rng.normal(size=m)
            if kind == "l2":
                # keep away from the hinge so central differences are valid
                z = r_tgt[None, :] - r_src[:, None] - metric.dist
                if np.any(np.abs(z) < 1e-3):
                    continue
            g_src, g_tgt = reg_dual_gradient(r_src, r_tgt, pair, metric, reg)
            obj = lambda rs, rt: reg_dual_objective(rs, rt, pair, metric, reg)
            num_s = np.array([(obj(r_src + h * np.eye(n)[i], r_tgt)
                               - obj(r_src - h * np.eye(n)[i], r_tgt)) / (2 * h)
                              for i in range(n)])
            num_t = np.array([(obj(r_src, r_tgt + h * np.eye(m)[j])
                               - obj(r_src, r_tgt - h * np.eye(m)[j])) / (2 * h)
                              for j in range(m)])
            scale = max(np.abs(num_s).max(), np.abs(num_t).max(), 1e-12)
            assert np.abs(g_src - num_s).max() / scale <= 1e-4
            assert np.abs(g_tgt - num_t).max() / scale <= 1e-4


def unfused_dual(r_src, r_tgt, pair, metric, reg):
    """Reference: the dual's value, gradients and clamp count from the
    whole-block expressions the chunked pass replaced."""
    z = r_tgt[None, :] - r_src[:, None] - metric.dist
    if reg.kind == "entropic":
        u = z / reg.epsilon
        clamps = int(np.count_nonzero(u > ENT_EXP_CLAMP))
        w = np.exp(np.minimum(u, ENT_EXP_CLAMP))
        omega, slope = -reg.epsilon * w, -w
    else:
        zp = np.maximum(z, 0.0)
        omega, slope, clamps = -(zp ** 2) / (4.0 * reg.epsilon), -zp / (2.0 * reg.epsilon), 0
    s, t = pair.source, pair.target
    value = float(r_tgt @ t - r_src @ s + s @ omega @ t)
    return value, s * (-1.0 - slope @ t), t * (1.0 + s @ slope), clamps


class TestChunkedDualPass:
    # (n, m): n not a multiple of the chunk rows, n under one chunk, m = 1
    # over several chunks, and a row wider than CHUNK_BYTES (one row a chunk)
    SHAPES = [(1000, 201), (50, 201), (CHUNK_BYTES // 8 + 4500, 1), (3, CHUNK_BYTES // 8 + 77)]

    def instance(self, n, m, r_scale, seed):
        rng = np.random.default_rng(seed)
        metric = GroundMetric.from_embeddings(rng.normal(size=(n + m, 2)), np.arange(n),
                                              n + np.arange(m))
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))
        return rng.normal(size=n + m) * r_scale, pair, metric

    @pytest.mark.parametrize("n, m", SHAPES, ids=["ragged", "one-chunk", "m1", "wide-row"])
    @pytest.mark.parametrize("kind, eps, r_scale", [("l2", 0.05, 1.5), ("entropic", 0.3, 0.5),
                                                    ("entropic", 0.02, 1.5)],
                             ids=["l2", "entropic", "entropic-clamped"])
    def test_matches_unfused_reference(self, n, m, kind, eps, r_scale):
        r, pair, metric = self.instance(n, m, r_scale, seed=n + m)
        reg = DualRegularization(kind, eps)
        r_src, r_tgt = r[:n], r[n:]
        value, g_src, g_tgt, clamps = unfused_dual(r_src, r_tgt, pair, metric, reg)
        assert kind == "l2" or (clamps > 0) == (eps == 0.02)
        if kind == "l2":
            assert np.any(g_tgt != pair.target)   # some pairs are active
        model = wail.create_model("tabular", (n + m,), seed=0)
        model.params = r
        fit, got_value, got_clamps = reg_ot_fit(pair, metric, reg, model, steps=0, lr=1.0)
        assert fit.params.tobytes() == model.params.tobytes()
        assert abs(got_value - value) <= 1e-12 * abs(value)
        assert abs(reg_dual_objective(r_src, r_tgt, pair, metric, reg) - value) <= 1e-12 * abs(value)
        assert got_clamps == clamps
        got_src, got_tgt = reg_dual_gradient(r_src, r_tgt, pair, metric, reg)
        assert np.abs(got_src - g_src).max() <= 1e-12 * np.abs(g_src).max()
        assert np.abs(got_tgt - g_tgt).max() <= 1e-12 * np.abs(g_tgt).max()
        # one step is one evaluation, with a step too small to move any
        # parameter
        fit, _, fit_clamps = reg_ot_fit(pair, metric, reg, model, steps=1, lr=1e-300)
        assert fit.params.tobytes() == model.params.tobytes()
        assert fit_clamps == clamps

    def test_gradient_peak_memory_is_one_chunk(self):
        import tracemalloc
        r, pair, metric = self.instance(3600, 201, 1.5, seed=0)
        reg = DualRegularization("l2", 0.01)
        r_src, r_tgt = r[:3600], r[3600:]
        reg_dual_gradient(r_src, r_tgt, pair, metric, reg)   # warm any lazy set-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reg_dual_gradient(r_src, r_tgt, pair, metric, reg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 3600 x 201 block is 5.5 MiB; whole-block temporaries peaked at 22 MiB
        assert peak - base <= 2 ** 20


class TestDualScreen:
    # 1500 x 100 = 150000 pairs, past SCREEN_MIN_PAIRS; the potentials the
    # ascent reaches keep well under SCREEN_MAX_SHARE of them in the screen
    N, M = 1500, 100

    def instance(self, seed=0):
        rng = np.random.default_rng(seed)
        metric = GroundMetric.from_embeddings(rng.normal(size=(self.N + self.M, 2)) * 2.0,
                                              np.arange(self.N), self.N + np.arange(self.M))
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(self.N)), rng.dirichlet(np.ones(self.M)))
        return pair, metric, DualRegularization("l2", 0.05)

    @staticmethod
    def values(model, metric):
        return [wail.support_values(model, idx, metric.embed[idx])
                for idx in (metric.src_index, metric.tgt_index)]

    @staticmethod
    def assert_same_pass(got, want):
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
        for g, w in zip(got[1:3], want[1:3]):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @staticmethod
    def pair_set(screen, shape):
        """The screen's pairs as a boolean block, checking that each is
        held once and with its cost."""
        inside = np.zeros(shape, dtype=bool)
        inside[screen.rows, screen.cols] = True
        assert np.count_nonzero(inside) == screen.rows.size
        assert screen.dist.tobytes() == screen.metric.dist[screen.rows, screen.cols].tobytes()
        return inside

    @staticmethod
    def near_set(metric, r0_src, r0_tgt):
        """The pairs with slack above -SCREEN_TAU at these references."""
        return r0_tgt[None, :] - r0_src[:, None] - metric.dist > -SCREEN_TAU

    @pytest.mark.parametrize("form, dims, lr", [("tabular", (N + M,), 0.5), ("linear", (2,), 0.01),
                                                ("mlp", (2, 8, 8), 0.05)])
    def test_screened_pass_matches_the_full_pass(self, form, dims, lr):
        pair, metric, reg = self.instance()
        model = wail.create_model(form, dims, seed=0)
        screen = DualScreen()
        for _ in range(40):
            r_src, r_tgt = self.values(model, metric)
            got = ot._objective_and_gradient(r_src, r_tgt, pair, metric, reg, screen)
            self.assert_same_pass(got, reg_dual_gradient_pass(r_src, r_tgt, pair, metric, reg))
            model, _, _ = reg_ot_fit(pair, metric, reg, model, steps=1, lr=lr, screen=screen)
        # the ascent read the screen, outgrew its global bound and had
        # passes served by refreshes
        assert 0 < screen.refreshes and screen.rebuilds < screen.passes // 2

    @pytest.mark.parametrize("side", ["target-up", "source-down"])
    def test_refreshes_at_the_threshold_and_never_drops_an_active_pair(self, side):
        pair, metric, reg = self.instance()
        rng = np.random.default_rng(1)
        r_src, r_tgt = rng.normal(size=self.N) * 0.3, rng.normal(size=self.M) * 0.3
        slack = r_tgt[None, :] - r_src[:, None] - metric.dist
        built = DualScreen()
        ot._objective_and_gradient(r_src, r_tgt, pair, metric, reg, built)
        inside = self.pair_set(built, slack.shape)
        assert np.array_equal(inside, slack > -SCREEN_TAU) and 0 < inside.mean() < 0.05
        # push the outside pair closest to joining: while the push stays
        # under the bound its slack stays below 0 and the screen is read
        # as built; at the bound, and past it into the active set, the pass
        # refreshes the pushed column or row alone
        outside = np.where(inside, -np.inf, slack)
        x, y = np.unravel_index(outside.argmax(), slack.shape)
        line = np.zeros(slack.shape, dtype=bool)
        if side == "target-up":
            line[:, y] = True
        else:
            line[x] = True
        for push, refreshes in ((SCREEN_TAU - 2 * SCREEN_MARGIN, False),
                                (SCREEN_TAU - SCREEN_MARGIN, True),
                                (0.01 - slack[x, y], True)):
            screen = DualScreen()
            ot._objective_and_gradient(r_src, r_tgt, pair, metric, reg, screen)
            src, tgt = r_src.copy(), r_tgt.copy()
            if side == "target-up":
                tgt[y] += push
            else:
                src[x] -= push
            got = ot._objective_and_gradient(src, tgt, pair, metric, reg, screen)
            assert (screen.rebuilds, screen.refreshes) == (1, refreshes)
            self.assert_same_pass(got, reg_dual_gradient_pass(src, tgt, pair, metric, reg))
            active = tgt[None, :] - src[:, None] - metric.dist > 0
            assert active[x, y] == (push > -slack[x, y])
            held = self.pair_set(screen, slack.shape)
            assert not np.any(active & ~held)
            if refreshes:
                # the references moved with the push; the pairs off its line kept
                assert screen.r0_src.tobytes() == src.tobytes()
                assert screen.r0_tgt.tobytes() == tgt.tobytes()
                assert np.array_equal(held & ~line, inside & ~line)
                assert np.array_equal(held, self.near_set(metric, src, tgt))
            else:
                assert np.array_equal(held, inside)

    @pytest.mark.parametrize("what", ["rescan", "held"])
    def test_a_refresh_past_the_share_falls_back_to_a_full_pass(self, what):
        pair, metric, reg = self.instance()
        rng = np.random.default_rng(1)
        r_src, r_tgt = rng.normal(size=self.N) * 0.3, rng.normal(size=self.M) * 0.3
        screen = DualScreen()
        ot._objective_and_gradient(r_src, r_tgt, pair, metric, reg, screen)
        cap = SCREEN_MAX_SHARE * self.N * self.M
        src, tgt = r_src.copy(), r_tgt.copy()
        if what == "rescan":
            # each pushed column rescans N pairs, and no split keeps one
            k = int(cap // self.N) + 1
            tgt[:k] += SCREEN_TAU
        else:
            # the pushed rows rescan under the share, but every pair of
            # theirs joins the screen, which would then hold more than it
            k = int(cap // self.M) - 1
            src[:k] -= 10.0
            assert k * self.M + screen.rows.size > cap
        got = ot._objective_and_gradient(src, tgt, pair, metric, reg, screen)
        assert (screen.passes, screen.rebuilds, screen.refreshes) == (2, 2, 0)
        self.assert_same_pass(got, reg_dual_gradient_pass(src, tgt, pair, metric, reg))
        if what == "rescan":
            # the full pass rebuilt the screen at its values
            assert screen.r0_tgt.tobytes() == tgt.tobytes()
            assert np.array_equal(self.pair_set(screen, metric.dist.shape),
                                  self.near_set(metric, src, tgt))
        else:
            assert screen.metric is None    # the full pass's screen is over the share too

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_move_walks_the_whole_block(self, bad):
        # no split bounds a NaN or infinite move: the screen does not serve,
        # and the pass walks the whole block
        pair, metric, reg = self.instance()
        rng = np.random.default_rng(1)
        r_src, r_tgt = rng.normal(size=self.N) * 0.3, rng.normal(size=self.M) * 0.3
        screen = DualScreen()
        ot._objective_and_gradient(r_src, r_tgt, pair, metric, reg, screen)
        assert screen.metric is metric and screen.rebuilds == 1
        tgt = r_tgt.copy()
        tgt[3] = bad
        assert not screen.serves(metric, r_src, tgt)
        with np.errstate(all="ignore"):
            ot._objective_and_gradient(r_src, tgt, pair, metric, reg, screen)
        assert (screen.passes, screen.rebuilds, screen.refreshes) == (2, 2, 0)

    def test_refreshed_screen_is_the_full_pass_screen_at_its_references(self):
        # random moves: a few columns and rows jump either way, and every
        # point drifts a little; after each pass the screen holds exactly
        # the pairs a full pass at its references would keep
        pair, metric, reg = self.instance()
        rng = np.random.default_rng(3)
        r_src, r_tgt = rng.normal(size=self.N) * 0.3, rng.normal(size=self.M) * 0.3
        screen = DualScreen()
        for _ in range(30):
            r_src = r_src + rng.normal(size=self.N) * 0.005
            r_tgt = r_tgt + rng.normal(size=self.M) * 0.005
            r_src[rng.integers(self.N, size=3)] += rng.normal(size=3) * 0.1
            r_tgt[rng.integers(self.M, size=2)] += rng.normal(size=2) * 0.1
            got = ot._objective_and_gradient(r_src, r_tgt, pair, metric, reg, screen)
            self.assert_same_pass(got, reg_dual_gradient_pass(r_src, r_tgt, pair, metric, reg))
            fresh = DualScreen()
            ot._objective_and_gradient(screen.r0_src, screen.r0_tgt, pair, metric, reg, fresh)
            held = self.pair_set(screen, metric.dist.shape)
            assert np.array_equal(held, self.pair_set(fresh, metric.dist.shape))
            assert np.array_equal(held, self.near_set(metric, screen.r0_src, screen.r0_tgt))
        assert screen.rebuilds == 1 and screen.refreshes > 20

    def test_relabelled_instance_gives_the_relabelled_passes(self):
        # permuting the source rows and the target columns permutes the
        # value's terms and both gradients, on a full pass, a screened
        # pass and a refreshed one
        pair, metric, reg = self.instance()
        rng = np.random.default_rng(4)
        p, q = rng.permutation(self.N), rng.permutation(self.M)
        relabelled = (DiscreteMeasurePair(pair.source[p], pair.target[q]),
                      GroundMetric(metric.dist[np.ix_(p, q)], metric.src_index[p],
                                   metric.tgt_index[q], metric.embed))
        r_src, r_tgt = rng.normal(size=self.N) * 0.3, rng.normal(size=self.M) * 0.3
        moves = [(np.zeros(self.N), np.zeros(self.M)),            # full: builds the screen
                 (np.zeros(self.N), np.full(self.M, 0.02)),       # under the bound
                 (-np.eye(self.N)[7] * 0.5, np.eye(self.M)[3] * 0.3)]   # a row and a column
        screens = DualScreen(), DualScreen()
        for k, (d_src, d_tgt) in enumerate(moves):
            src, tgt = r_src + d_src, r_tgt + d_tgt
            want = ot._objective_and_gradient(src, tgt, pair, metric, reg, screens[0])
            got = ot._objective_and_gradient(src[p], tgt[q], *relabelled, reg, screens[1])
            self.assert_same_pass(got, (want[0], want[1][p], want[2][q]))
            for screen in screens:
                assert (screen.rebuilds, screen.refreshes) == (1, k // 2)
                assert screen.passes == k + 1

    @pytest.mark.parametrize("kind, n, m, r_scale", [
        ("entropic", N, M, 0.3),                # the entropic penalty is never exactly 0
        ("l2", 200, SCREEN_MIN_PAIRS // 200 - 1, 0.3),   # under one chunk
        ("l2", N, M, 3.0),                      # most pairs within SCREEN_TAU of active
    ], ids=["entropic", "small-block", "wide-screen"])
    def test_full_pass_every_time(self, kind, n, m, r_scale):
        rng = np.random.default_rng(2)
        metric = GroundMetric.from_embeddings(rng.normal(size=(n + m, 2)), np.arange(n),
                                              n + np.arange(m))
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))
        reg = DualRegularization(kind, 0.05)
        model = wail.create_model("tabular", (n + m,), seed=0)
        model.params = rng.normal(size=n + m) * r_scale
        screen = DualScreen()
        reg_ot_fit(pair, metric, reg, model, steps=5, lr=1e-9, screen=screen)
        assert screen.passes == screen.rebuilds == 5 and screen.refreshes == 0
        assert screen.metric is None


def reg_dual_gradient_pass(r_src, r_tgt, pair, metric, reg):
    """The full pass's value and gradients through the public oracles."""
    return (reg_dual_objective(r_src, r_tgt, pair, metric, reg),
            *reg_dual_gradient(r_src, r_tgt, pair, metric, reg))


class TestRegOtFit:
    def test_zero_steps_unchanged(self, rng):
        pair, metric = random_instance(rng, 4)
        model = wail.create_model("tabular", (4,), seed=0)
        reg = DualRegularization("l2", 0.1)
        fit, value, clamps = reg_ot_fit(pair, metric, reg, model, steps=0, lr=0.1)
        assert np.array_equal(fit.params, model.params)
        assert value == reg_dual_objective(model.params, model.params, pair, metric, reg)
        assert clamps == 0

    def test_tiny_instance_reaches_lp_value(self):
        E = np.array([[0., 0.], [1., 0.], [0., 1.5]])
        metric = GroundMetric.from_embeddings(E)
        pair = DiscreteMeasurePair([0.6, 0.2, 0.2], [0.1, 0.4, 0.5])
        w1, _ = w1_primal_lp(pair, metric)
        reg = DualRegularization("l2", 0.01)
        model = wail.create_model("tabular", (3,), seed=0)
        fit, _, _ = reg_ot_fit(pair, metric, reg, model, steps=5000, lr=0.05)
        final = reg_dual_objective(fit.params, fit.params, pair, metric, reg)
        assert abs(final - w1) / w1 < 0.05

    def test_epsilon_sweep_monotone(self, rng):
        n = 8
        E = rng.normal(size=(n, 3)) * 0.7
        metric = GroundMetric.from_embeddings(E)
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        w1, _ = w1_primal_lp(pair, metric)
        gaps = []
        for eps, lr, steps in ((1.0, 1.0, 2000), (0.1, 0.4, 3000), (0.01, 0.05, 6000)):
            model = wail.create_model("tabular", (n,), seed=1)
            fit, _, _ = reg_ot_fit(pair, metric, DualRegularization("l2", eps),
                                   model, steps=steps, lr=lr)
            val = reg_dual_objective(fit.params, fit.params, pair, metric,
                                     DualRegularization("l2", eps))
            gaps.append(abs(val - w1))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] / max(w1, 1e-12) < 0.05

    def test_divergence_detected(self, rng):
        pair, metric = random_instance(rng, 4)
        model = wail.create_model("tabular", (4,), seed=0)
        model.params = np.array([np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(DivergenceError):
            reg_ot_fit(pair, metric, DualRegularization("l2", 0.1), model, steps=5, lr=0.1)

    def test_step_to_non_finite_parameters_detected(self, rng):
        # the step itself overflows: the fit raises in that step, where it
        # used to return a NaN objective from one more pass
        pair, metric = random_instance(rng, 4)
        model = wail.create_model("tabular", (4,), seed=0)
        model.params = np.array([0.0, 0.0, 0.0, 50.0])   # steep slopes: gradient entries >> 1
        with pytest.raises(DivergenceError, match="non-finite parameters at step 0"):
            reg_ot_fit(pair, metric, DualRegularization("l2", 0.1), model, steps=1, lr=1e308)


def test_entropic_clamp_counter_increments():
    # one source and one target point at distance 0 with slack 1000 / 0.1
    # far past the clamp: every objective evaluation clamps one exponent,
    # and an n-step fit makes n evaluations (a 0-step fit makes one)
    m = GroundMetric.from_embeddings(np.zeros((2, 1)), src_index=[0], tgt_index=[1])
    pair = DiscreteMeasurePair([1.0], [1.0])
    model = wail.create_model("tabular", (2,), seed=0)
    model.params = np.array([0.0, 1000.0])
    for kind, per_evaluation in (("entropic", 1), ("l2", 0)):
        reg = DualRegularization(kind, 0.1)
        _, _, clamps = reg_ot_fit(pair, m, reg, model, steps=3, lr=1e-12)
        assert clamps == 3 * per_evaluation
        _, value, clamps = reg_ot_fit(pair, m, reg, model, steps=0, lr=1e-12)
        assert clamps == per_evaluation
        assert value == reg_dual_objective(model.params[:1], model.params[1:], pair, m, reg)
