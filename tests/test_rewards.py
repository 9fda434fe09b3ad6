import numpy as np
import pytest

import wail
from wail import rewards
from wail.rewards import (PotentialModel, accumulate_param_grad, clone_frozen,
                          create_model, reward_matrix, support_values)

from conftest import random_mdp


def mlp_reference_forward(dims, params, x):
    """Independent layer-by-layer evaluation from the documented packing
    [W1, b1, W2, b2, w_out, b_out], row-major."""
    d, h1, h2 = dims
    i = 0
    W1 = np.array(params[i:i + h1 * d]).reshape(h1, d); i += h1 * d
    b1 = np.array(params[i:i + h1]); i += h1
    W2 = np.array(params[i:i + h2 * h1]).reshape(h2, h1); i += h2 * h1
    b2 = np.array(params[i:i + h2]); i += h2
    w3 = np.array(params[i:i + h2]); i += h2
    b3 = params[i]
    a = x
    a = np.tanh(W1 @ a + b1)
    a = np.tanh(W2 @ a + b2)
    return float(w3 @ a + b3)


def one_point(x):
    """(indices, embeds) of a one-point batch at an embedding vector x."""
    return None, np.asarray(x, dtype=np.float64)[None, :]


def value_at(model, x):
    return float(support_values(model, *one_point(x))[0])


def grad_at(model, x):
    return accumulate_param_grad(model, *one_point(x), np.ones(1))


class TestApply:
    def test_linear_zero_weights(self):
        model = PotentialModel("linear", (4,), np.zeros(4))
        assert value_at(model, np.array([1.0, 2.0, 3.0, 4.0])) == 0.0

    def test_tabular_lookup(self):
        model = PotentialModel("tabular", (5,), np.array([1., 2., 3., 4., 5.]))
        assert support_values(model, np.array([3]), None)[0] == 4.0

    def test_mlp_matches_reference_evaluation(self, rng):
        model = create_model("mlp", (3, 7, 5), seed=0)
        for _ in range(20):
            x = rng.normal(size=3)
            got = value_at(model, x)
            want = mlp_reference_forward(model.dims, model.params, x)
            assert abs(got - want) < 1e-12

    def test_dimension_mismatch(self):
        model = create_model("linear", (4,), seed=0)
        with pytest.raises(ValueError):
            support_values(model, None, np.zeros((2, 3)))


class TestGradParams:
    def test_linear_gradient_is_input(self, rng):
        model = create_model("linear", (6,), seed=1)
        x = rng.normal(size=6)
        assert np.allclose(grad_at(model, x), x)

    def test_tabular_gradient_one_hot(self):
        model = create_model("tabular", (4,), seed=0)
        g = accumulate_param_grad(model, np.array([2]), None, np.ones(1))
        assert np.array_equal(g, [0., 0., 1., 0.])

    def test_mlp_finite_differences(self, rng):
        # 200 random (params, input) pairs across several architectures
        h = 1e-5
        checked = 0
        arch = [(2, 4, 3), (3, 6, 6), (4, 5, 4)]
        while checked < 200:
            dims = arch[checked % len(arch)]
            model = create_model("mlp", dims, seed=checked)
            model.params = rng.normal(size=model.params.size) * 0.6
            x = rng.normal(size=dims[0])
            g = grad_at(model, x)
            num = np.zeros_like(g)
            for i in range(g.size):
                up = model.copy(); up.params[i] += h
                dn = model.copy(); dn.params[i] -= h
                num[i] = (value_at(up, x) - value_at(dn, x)) / (2 * h)
            rel = np.abs(g - num).max() / (np.abs(num).max() + 1e-12)
            assert rel <= 1e-4
            checked += 1

    def test_accumulate_matches_sum_of_single_grads(self, rng):
        model = create_model("mlp", (3, 4, 4), seed=3)
        X = rng.normal(size=(6, 3))
        c = rng.normal(size=6)
        acc = accumulate_param_grad(model, None, X, c)
        manual = sum(ci * grad_at(model, xi) for ci, xi in zip(c, X))
        assert np.abs(acc - manual).max() < 1e-12


class TestCloneFrozen:
    def test_snapshot_immune_to_training(self, rng):
        model = create_model("mlp", (3, 4, 4), seed=4)
        snap = clone_frozen(model)
        before = snap.params.copy()
        for _ in range(100):
            model.params = model.params + rng.normal(size=model.params.size) * 0.1
        assert np.array_equal(snap.params, before)
        with pytest.raises(ValueError):
            snap.params[0] = 1.0   # read-only

    def test_tabular_snapshot_is_table_copy(self):
        model = PotentialModel("tabular", (3,), np.array([1., 2., 3.]))
        snap = clone_frozen(model)
        assert np.array_equal(snap.params, model.params)

    def test_snapshot_agrees_over_full_index_set(self, rng):
        mdp = random_mdp(3, 2, 0.9, seed=5)
        model = create_model("mlp", (4, 5, 5), seed=5)
        snap = clone_frozen(model)
        want = reward_matrix(model, mdp)
        model.params = model.params + 1.0
        assert np.array_equal(reward_matrix(snap, mdp), want)


class TestRewardMatrix:
    def test_tabular_reshape(self):
        mdp = random_mdp(2, 2, 0.9, seed=6)
        model = PotentialModel("tabular", (4,), np.array([1., 2., 3., 4.]))
        assert np.array_equal(reward_matrix(model, mdp), [[1., 2.], [3., 4.]])

    def test_linear_uses_embeddings(self):
        mdp = random_mdp(2, 2, 0.9, seed=7)
        model = create_model("linear", (4,), seed=7)
        R = reward_matrix(model, mdp)
        E = wail.state_action_embeddings(mdp)
        assert abs(R[1, 0] - model.params @ E[2]) < 1e-12


class TestTabularRepresentsDualPotential:
    def test_fit_recovers_lp_potential_up_to_constant(self, rng):
        # After a full-batch regularized fit on a tiny instance, the fitted
        # table should sit near some optimal dual potential.  The nearest
        # optimal potential is found by a Chebyshev LP over the optimal set
        # (tight on the transport-plan support, Lipschitz elsewhere).
        from scipy.optimize import linprog
        from wail.ot import (DiscreteMeasurePair, DualRegularization,
                             GroundMetric, reg_ot_fit, w1_dual_lp, w1_primal_lp)

        E = rng.normal(size=(5, 2))
        metric = GroundMetric.from_embeddings(E)
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5)))
        value, plan = w1_primal_lp(pair, metric)
        model = create_model("tabular", (5,), seed=0)
        fit, _, _ = reg_ot_fit(pair, metric, DualRegularization("l2", 0.005),
                               model, steps=20000, lr=0.02)
        r = fit.params - fit.params.mean()

        n = 5
        D = metric.dist
        # variables: f (n), t; minimize t s.t. |f - r| <= t, dual feasibility,
        # and complementary slackness f_j - f_i = D_ij on the plan support.
        c = np.zeros(n + 1); c[-1] = 1.0
        A_ub, b_ub = [], []
        for i in range(n):
            row = np.zeros(n + 1); row[i] = 1.0; row[-1] = -1.0
            A_ub.append(row); b_ub.append(r[i])
            row = np.zeros(n + 1); row[i] = -1.0; row[-1] = -1.0
            A_ub.append(row); b_ub.append(-r[i])
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                row = np.zeros(n + 1); row[j] = 1.0; row[i] = -1.0
                A_ub.append(row); b_ub.append(D[i, j])
        A_eq, b_eq = [], []
        for i in range(n):
            for j in range(n):
                if i != j and plan[i, j] > 1e-7:
                    row = np.zeros(n + 1); row[j] = 1.0; row[i] = -1.0
                    A_eq.append(row); b_eq.append(D[i, j])
        res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                      A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                      bounds=[(None, None)] * n + [(0, None)], method="highs")
        assert res.success
        assert res.x[-1] <= 0.05 * D.max()


class TestCheckpoints:
    def test_json_round_trip(self, tmp_path):
        model = create_model("mlp", (3, 4, 5), seed=11)
        path = tmp_path / "model.json"
        rewards.save_model(path, model)
        back = rewards.load_model(path)
        assert back.form == model.form
        assert back.dims == model.dims
        assert back.seed == model.seed
        assert np.array_equal(back.params, model.params)

    def test_schema_keys(self, tmp_path):
        import json
        model = create_model("tabular", (4,), seed=2)
        path = tmp_path / "model.json"
        rewards.save_model(path, model)
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc) == {"form", "dims", "params", "seed"}


def test_initialization_deterministic_and_scaled(rng):
    a = create_model("mlp", (4, 8, 8), seed=42)
    b = create_model("mlp", (4, 8, 8), seed=42)
    assert np.array_equal(a.params, b.params)
    lin = create_model("linear", (16,), seed=1)
    assert np.abs(lin.params).max() <= 1.0 / 4.0   # 1/sqrt(16)
    tab = create_model("tabular", (9,), seed=3)
    assert np.all(tab.params == 0.0)
