import numpy as np
import pytest

import wail
from wail import (RunConfig, SoftmaxPolicy, build_environment, evaluate,
                  make_expert, pca_fit, pca_inverse, pca_project,
                  relative_lipschitz, reward_surface, run_experiment_grid,
                  run_single, surface_total_variation)
from wail.analysis import PcaPlane, default_bounds, load_surface, save_surface
from wail.experiments import load_summary, save_summary

from conftest import dense_transition


class TestEnvironments:
    def test_degenerate_one_by_one_gridworld(self):
        mdp = build_environment({"name": "gridworld", "n": 1})
        assert mdp.n_states == 1
        assert np.abs(dense_transition(mdp).sum(axis=2) - 1).max() < 1e-12

    def test_slip_zero_deterministic_rows(self):
        mdp = build_environment({"name": "gridworld", "n": 5, "slip": 0.0})
        one_hot_rows = (dense_transition(mdp) == 1.0).sum(axis=2)
        assert np.all(one_hot_rows == 1)

    def test_slip_rows_normalized(self):
        mdp = build_environment({"name": "gridworld", "n": 5, "slip": 0.1})
        assert np.abs(dense_transition(mdp).sum(axis=2) - 1).max() < 1e-12

    def test_goal_absorbing(self):
        mdp = build_environment({"name": "gridworld", "n": 4})
        goal = 15
        assert np.all(dense_transition(mdp)[goal, :, goal] == 1.0)
        assert np.all(mdp.true_reward[goal] == 1.0)

    def test_chain_cliff_mountain_car_valid(self):
        for spec in ({"name": "chain", "n": 6}, {"name": "cliff"},
                     {"name": "mountain_car", "n_pos": 8, "n_vel": 7}):
            mdp = build_environment(spec)
            assert np.abs(dense_transition(mdp).sum(axis=2) - 1).max() < 1e-10
            assert np.all(mdp.start > 0)
            assert mdp.true_reward is not None

    def test_unknown_environment(self):
        with pytest.raises(ValueError, match="unknown environment"):
            build_environment({"name": "pendulum"})
        with pytest.raises(ValueError):
            build_environment({"n": 5})

    @pytest.mark.parametrize("name", [[], {}, 3, None], ids=["list", "dict", "int", "none"])
    def test_non_string_environment_name(self, name):
        # an unhashable name used to escape the builder lookup as a TypeError
        with pytest.raises(ValueError, match=r"env\.name"):
            build_environment({"name": name, "n": 3})
        with pytest.raises(ValueError, match=r"env\.name"):
            RunConfig(env={"name": name, "n": 3})

    @pytest.mark.parametrize("spec,match", [
        ({"name": "gridworld", "m": 3}, "takes no parameter 'm'"),
        ({"name": "cliff", "n": 3}, "takes no parameter 'n'"),
        ({"name": "gridworld", "n": "3"}, "n must be an integer"),
        ({"name": "gridworld", "n": 2.5}, "n must be an integer"),
        ({"name": "gridworld", "n": 3.0}, "n must be an integer"),
        ({"name": "chain", "n": True}, "n must be an integer"),
        ({"name": "mountain_car", "n_vel": 7.5}, "n_vel must be an integer"),
        ({"name": "gridworld", "n": 3, "goal": 2.5}, "goal must be an integer or null"),
        ({"name": "gridworld", "n": 3, "gamma": "0.9"}, "gamma must be a finite real"),
        ({"name": "gridworld", "n": 3, "slip": "0.1"}, "slip must be a finite real"),
    ])
    def test_bad_builder_parameters_rejected(self, spec, match):
        # each of these used to stop with a TypeError from inside the builder,
        # or (goal 2.5) was truncated to a cell
        with pytest.raises(ValueError, match=match):
            build_environment(spec)

    def test_sizes_accept_numpy_integers(self):
        assert build_environment({"name": "gridworld", "n": np.int64(3)}).n_states == 9


class TestMakeExpert:
    def test_expert_reaches_goal(self):
        mdp = build_environment({"name": "gridworld", "n": 5})
        expert, demos = make_expert(mdp, lambda_expert=0.01, n_traj=40, traj_len=50, seed=0)
        goal = 24
        reached = np.logical_or.reduceat(demos.states == goal, demos.starts).sum()
        assert reached / len(demos) >= 0.95

    def test_single_trajectory_contract(self):
        mdp = build_environment({"name": "gridworld", "n": 4})
        _, demos = make_expert(mdp, 0.01, n_traj=1, traj_len=50, seed=0)
        assert len(demos) == 1
        assert demos.lengths[0] <= 50

    def test_seed_determinism(self):
        mdp = build_environment({"name": "gridworld", "n": 4})
        _, d1 = make_expert(mdp, 0.01, n_traj=3, traj_len=20, seed=5)
        _, d2 = make_expert(mdp, 0.01, n_traj=3, traj_len=20, seed=5)
        assert np.array_equal(d1.lengths, d2.lengths)
        assert np.array_equal(d1.pairs(), d2.pairs())

    def test_requires_true_reward(self):
        mdp = build_environment({"name": "gridworld", "n": 3})
        stripped = wail.TabularMdp(mdp.transition, mdp.start, mdp.gamma,
                                   mdp.state_embed, mdp.action_embed)
        with pytest.raises(ValueError, match="true reward"):
            make_expert(stripped, 0.01, 1, 10, 0)


class TestEvaluate:
    @pytest.fixture(scope="class")
    def grid_setup(self):
        mdp = build_environment({"name": "gridworld", "n": 4})
        expert, _ = make_expert(mdp, 0.01, 1, 10, 0)
        expert_ref, random_ref = wail.reference_returns(mdp, expert, n_ref=500, seed=11)
        return mdp, expert, expert_ref, random_ref

    def test_expert_scores_one(self, grid_setup):
        mdp, expert, e_ref, r_ref = grid_setup
        res = evaluate(mdp, expert, n_eval=500, seed=123, expert_ref=e_ref, random_ref=r_ref)
        assert abs(res.scaled - 1.0) <= 0.02

    def test_random_scores_zero(self, grid_setup):
        mdp, _, e_ref, r_ref = grid_setup
        res = evaluate(mdp, SoftmaxPolicy.uniform(16, 4), n_eval=2000, seed=123,
                       expert_ref=e_ref, random_ref=r_ref)
        assert abs(res.scaled) <= 0.05

    def test_affine_midpoint(self):
        mdp = build_environment({"name": "gridworld", "n": 3})
        expert, _ = make_expert(mdp, 0.01, 1, 10, 0)
        res = evaluate(mdp, expert, n_eval=100, seed=1,
                       expert_ref=2.0, random_ref=0.0)
        assert abs(res.scaled - res.mean / 2.0) < 1e-12

    def test_order_preservation(self, grid_setup):
        mdp, expert, e_ref, r_ref = grid_setup
        a = evaluate(mdp, expert, 200, seed=5, expert_ref=e_ref, random_ref=r_ref)
        b = evaluate(mdp, SoftmaxPolicy.uniform(16, 4), 200, seed=5,
                     expert_ref=e_ref, random_ref=r_ref)
        assert np.sign(a.scaled - b.scaled) == np.sign(a.mean - b.mean)

    def test_start_draw_past_running_sum_takes_last_state(self, monkeypatch):
        # seven equal start masses have a running sum that ends below
        # 1 - 2**-53, so that uniform falls past the last entry
        S, A, gamma = 7, 2, 0.9
        mdp = wail.TabularMdp(wail.entries_from_dense(np.full((S, A, S), 1.0 / S)),
                              np.full(S, 1.0 / S), gamma,
                              np.eye(S), np.eye(A),
                              true_reward=np.arange(S * A, dtype=float).reshape(S, A))
        top = 1.0 - 2.0 ** -53
        assert mdp.start.cumsum()[-1] < top

        class TopUniforms:
            def random(self, n):
                return np.full(n, top)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: TopUniforms())
        returns = wail.episode_returns(mdp, SoftmaxPolicy.uniform(S, A), 3)
        # every draw takes the last state and the last action
        horizon = wail.default_max_len(gamma)
        expected = mdp.true_reward[-1, -1] * (1 - gamma ** horizon) / (1 - gamma)
        assert np.allclose(returns, expected, rtol=1e-12, atol=0)

    def test_degenerate_references_rejected(self, grid_setup):
        mdp, expert, _, _ = grid_setup
        with pytest.raises(ValueError, match="degenerate"):
            evaluate(mdp, expert, 10, seed=0, expert_ref=1.0, random_ref=1.0)

    @pytest.mark.parametrize("call", [
        lambda mdp, policy: evaluate(mdp, policy, 0),
        lambda mdp, policy: wail.reference_returns(mdp, policy, n_ref=0),
        lambda mdp, policy: wail.episode_returns(mdp, policy, -3),
    ], ids=["evaluate-0", "reference-0", "returns-negative"])
    def test_episode_count_below_one_rejected(self, grid_setup, call):
        # an empty batch would give a NaN mean, a negative one a NumPy error
        mdp, expert, _, _ = grid_setup
        with pytest.raises(ValueError, match="n must be >= 1"):
            call(mdp, expert)


class TestPca:
    def test_axis_aligned_variance(self, rng):
        # sample-orthogonal columns so the sample covariance is exactly diagonal
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        x -= x.mean()
        y -= y.mean()
        y -= (y @ x) / (x @ x) * x
        data = np.zeros((200, 5))
        data[:, 0] = 3.0 * x / np.linalg.norm(x)
        data[:, 1] = 1.0 * y / np.linalg.norm(y)
        plane = pca_fit(data)
        assert abs(plane.axes[0] @ np.eye(5)[0]) >= 1 - 1e-6

    def test_full_rank_2d_reconstruction(self, rng):
        data = rng.normal(size=(300, 2))
        plane = pca_fit(data)
        uv = pca_project(plane, data)
        back = pca_inverse(plane, uv)
        assert np.abs(back - data).max() < 1e-8

    def test_top2_eigenvalues_match_svd_oracle(self, rng):
        # Independent oracle: singular values of the centered data.
        data = rng.normal(size=(100, 10)) @ rng.normal(size=(10, 10))
        plane = pca_fit(data)
        centered = data - data.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        want = (s ** 2) / (data.shape[0] - 1)
        assert np.abs(plane.eigenvalues - want[:2]).max() < 1e-6

    def test_axes_orthonormal(self, rng):
        plane = pca_fit(rng.normal(size=(50, 6)))
        G = plane.axes @ plane.axes.T
        assert np.abs(G - np.eye(2)).max() < 1e-8

    def test_plane_points_round_trip(self, rng):
        plane = pca_fit(rng.normal(size=(60, 5)))
        uv = rng.normal(size=(20, 2))
        back = pca_project(plane, pca_inverse(plane, uv))
        assert np.abs(back - uv).max() < 1e-8

    def test_rank_deficient_flagged(self):
        data = np.outer(np.arange(10.0), [1.0, 0.0, 0.0])
        with pytest.warns(UserWarning, match="rank deficient"):
            plane = pca_fit(data)
        assert plane.rank_deficient

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            pca_fit(np.zeros((1, 5)))


class TestRewardSurface:
    def test_constant_reward_flagged(self, rng):
        plane = pca_fit(rng.normal(size=(30, 6)))
        with pytest.warns(UserWarning, match="constant"):
            surf = reward_surface(lambda pts: np.zeros(len(pts)), plane,
                                  grid_n=5, bounds=(-1, 1, -1, 1))
        assert surf.degenerate
        assert np.all(surf.scores == 0.5)

    def test_linear_reward_monotone_along_first_axis(self, rng):
        plane = pca_fit(rng.normal(size=(30, 6)))
        w = plane.axes[0]
        surf = reward_surface(lambda pts: pts @ w, plane, grid_n=9,
                              bounds=(-1, 1, -1, 1))
        diffs = np.diff(surf.scores, axis=0)
        assert np.all(diffs > 0)

    def test_csv_round_trip_bit_exact(self, tmp_path, rng):
        plane = pca_fit(rng.normal(size=(30, 6)))
        surf = reward_surface(lambda pts: pts @ rng.normal(size=6), plane,
                              grid_n=7, bounds=(-1.3, 0.7, -0.5, 2.1))
        path = tmp_path / "surface.csv"
        save_surface(path, surf)
        back = load_surface(path)
        assert np.array_equal(back.u, surf.u)
        assert np.array_equal(back.v, surf.v)
        assert np.array_equal(back.scores, surf.scores)

    def test_total_variation_of_known_grid(self):
        from wail.analysis import SurfaceGrid
        scores = np.array([[0.0, 1.0], [0.0, 1.0]])
        surf = SurfaceGrid(np.array([0., 1.]), np.array([0., 1.]), scores)
        # two horizontal pairs with diff 1, two vertical with diff 0
        assert surface_total_variation(surf) == 0.5

    def test_lipschitz_separates_ramp_from_step(self):
        # Over one 25 x 25 grid of the unit square, a 1-Lipschitz ramp and a
        # step between the same two levels have equal normalized total
        # variation; only the relative modulus tells them apart, the step's
        # being 1 / (grid spacing).
        plane = PcaPlane(mean=np.zeros(2), axes=np.eye(2), eigenvalues=np.ones(2))
        ramp = lambda pts: pts[:, 0]
        step = lambda pts: (pts[:, 0] > 0.5).astype(float)
        surf_ramp, surf_step = (reward_surface(fn, plane, grid_n=25, bounds=(0, 1, 0, 1))
                                for fn in (ramp, step))
        assert surface_total_variation(surf_ramp) == pytest.approx(
            surface_total_variation(surf_step), rel=1e-12)
        uu, vv = np.meshgrid(surf_ramp.u, surf_ramp.v, indexing="ij")
        points = np.stack([uu.ravel(), vv.ravel()], axis=1)
        assert relative_lipschitz(ramp, points) == pytest.approx(1.0)
        assert relative_lipschitz(step, points) == pytest.approx(24.0)

    def test_relative_lipschitz_scaling_and_degenerate_inputs(self, rng):
        points = rng.normal(size=(10, 3))
        w = rng.normal(size=3)
        base = relative_lipschitz(lambda p: p @ w, points)
        assert relative_lipschitz(lambda p: 5.0 * (p @ w) + 2.0, points) == pytest.approx(base)
        assert relative_lipschitz(lambda p: p @ w, 2.0 * points) == pytest.approx(base / 2)
        with pytest.warns(UserWarning, match="constant"):
            assert np.isnan(relative_lipschitz(lambda p: np.ones(len(p)), points))
        with pytest.raises(ValueError):
            relative_lipschitz(lambda p: p[:, 0], np.ones((4, 3)))   # one distinct point

    @pytest.mark.parametrize("form, hidden", [("linear", ()), ("mlp", (8, 4))])
    def test_model_surface_of_an_embedding_model_is_its_values(self, form, hidden):
        # linear and mlp models score a point by evaluating it: at the
        # state-action embeddings, the values the training loop reads
        mdp = wail.make_gridworld(3)
        embeds = wail.state_action_embeddings(mdp)
        model = wail.create_model(form, (embeds.shape[1], *hidden), seed=1)
        fn = wail.model_surface_fn(model, mdp)
        want = wail.support_values(model, np.arange(len(embeds)), embeds)
        assert fn(embeds).tobytes() == want.tobytes()
        one = wail.support_values(model, [5], embeds[5:6])   # BLAS rounds one row its own way
        assert fn(embeds[5]).tobytes() == one.tobytes()

    def test_default_bounds_expand(self, rng):
        data = rng.normal(size=(40, 6))
        plane = pca_fit(data)
        lo_u, hi_u, lo_v, hi_v = default_bounds(plane, data)
        uv = pca_project(plane, data)
        assert lo_u < uv[:, 0].min() and hi_u > uv[:, 0].max()
        assert lo_v < uv[:, 1].min() and hi_v > uv[:, 1].max()


class TestRunSingleAndGrid:
    def test_run_single_bc_row(self, tmp_path):
        cfg = RunConfig(env={"name": "gridworld", "n": 3}, algorithm="bc",
                        dataset_size=2, seed=1, n_eval=100, n_ref=100,
                        out_dir=str(tmp_path))
        row, artifacts = run_single(cfg)
        assert row["algorithm"] == "bc"
        assert (tmp_path / "demos.jsonl").exists()
        assert (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("algorithm", ["wail", "gail"])
    def test_true_return_column(self, tmp_path, algorithm):
        # every round logs the exact discounted true return of the policy it
        # returned, read off that policy's occupancy, bit for bit, and the
        # saved log reads the column back
        config = RunConfig(env={"name": "gridworld", "n": 3}, algorithm=algorithm, k_max=10,
                           dataset_size=2, n_eval=50, n_ref=50, checkpoint_every=1,
                           out_dir=str(tmp_path))
        _, art = run_single(config)
        mdp, rows = art["mdp"], art["log"].rows

        def exact_return(policy):
            rho = wail.occupancy_from_policy(mdp, policy)
            return wail.expected_reward(rho, mdp.true_reward) / (1.0 - mdp.gamma)

        assert [r["iteration"] for r in rows] == list(range(1, 11))
        for r in rows:
            k = r["iteration"]
            policy = wail.load_policy(tmp_path / "checkpoints" / f"iter_{k:06d}_policy.json")
            assert r["true_return"] == exact_return(policy)
        assert rows[-1]["true_return"] == exact_return(art["policy"])
        assert wail.RunLog.load(str(tmp_path)).rows == rows

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = RunConfig(env={"name": "gridworld", "n": 3})
        rows, failures = run_experiment_grid(cfg, algorithms=[], out_dir=str(tmp_path))
        assert rows == [] and failures == []
        with open(tmp_path / "summary.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert lines == ["algorithm,dataset_size,seed,mean,std,scaled"]

    def test_single_cell_grid(self, tmp_path):
        cfg = RunConfig(env={"name": "gridworld", "n": 3}, k_max=5,
                        n_eval=50, n_ref=50)
        rows, failures = run_experiment_grid(cfg, algorithms=["bc"],
                                             dataset_sizes=[1], seeds=[0],
                                             out_dir=str(tmp_path))
        assert len(rows) == 1 and not failures
        back = load_summary(tmp_path / "summary.csv")
        assert back == rows

    def test_cell_failure_recorded_and_grid_continues(self, tmp_path):
        cfg = RunConfig(env={"name": "gridworld", "n": 3}, k_max=40,
                        n_eval=50, n_ref=50, reg_kind="l2", epsilon=1e-6, ot_lr=1e6)
        rows, failures = run_experiment_grid(cfg, algorithms=["wail", "bc"],
                                             dataset_sizes=[1], seeds=[0],
                                             out_dir=str(tmp_path))
        assert len(failures) == 1 and failures[0]["algorithm"] == "wail"
        assert len(rows) == 1 and rows[0]["algorithm"] == "bc"
        assert (tmp_path / "failures.json").exists()

    def test_bad_environment_spec_fails_its_cells(self):
        cfg = RunConfig(env={"name": "gridworld", "n": 2.5}, n_eval=50, n_ref=50)
        rows, failures = run_experiment_grid(cfg, algorithms=["bc"], seeds=[0, 1])
        assert rows == [] and len(failures) == 2
        assert all(f["error"].startswith("ValueError: environment size n") for f in failures)

    def test_summary_round_trip(self, tmp_path):
        rows = [{"algorithm": "wail", "dataset_size": 1, "seed": 0,
                 "mean": 1.2345678901234567, "std": 0.5, "scaled": 0.987654321}]
        save_summary(tmp_path / "s.csv", rows)
        assert load_summary(tmp_path / "s.csv") == rows
