import dataclasses
import os

import numpy as np
import pytest

import wail
from wail import (DualRegularization, RunConfig, SoftmaxPolicy,
                  build_ground_metric, occupancy_from_policy, train_wail, wail_iteration)
from wail.training import OtDualStep, RunLog, WailState, expert_occupancy

from conftest import FOLDED_CONFIG_KEYS, deterministic_policy, random_mdp


TRAINERS = {"wail": train_wail, "gail": wail.train_gail}


def small_mdp_two_actions(seed=0):
    rng = np.random.default_rng(seed)
    to_action = ([0, 1, 2, 3], [0, 1, 0, 1], np.ones(4))   # action a moves to state a
    mu = np.array([0.6, 0.4])
    return wail.TabularMdp(to_action, mu, 0.9, rng.normal(size=(2, 2)), np.eye(2))


class TestExpertOccupancy:
    def test_from_occupancy(self):
        # an oracle expert is renormalized, as the run's expert
        mdp = random_mdp(3, 2, 0.9, seed=1)
        rho = occupancy_from_policy(mdp, SoftmaxPolicy.uniform(3, 2))
        expert = expert_occupancy(rho, mdp)
        assert isinstance(expert, wail.OccupancyMeasure)
        assert expert.rho.tobytes() == (rho.rho / rho.rho.sum()).tobytes()
        with pytest.raises(ValueError, match="shape"):
            expert_occupancy(rho, random_mdp(3, 3, 0.9, seed=1))

    def test_from_trajectories(self):
        # the normalized counts of the demonstrated pairs, read-only
        mdp = random_mdp(3, 2, 0.9, seed=2)
        trajs = wail.sample_trajectories(mdp, SoftmaxPolicy.uniform(3, 2), 20, seed=0)
        expert = expert_occupancy(trajs, mdp)
        pairs = trajs.pairs()
        counts = np.zeros((3, 2))
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1.0)
        assert np.array_equal(expert.rho, counts / len(pairs))
        assert not expert.rho.flags.writeable

    def test_empty_rejected(self):
        mdp = random_mdp(3, 2, 0.9, seed=3)
        with pytest.raises(ValueError):
            expert_occupancy([], mdp)
        with pytest.raises(ValueError, match="non-empty"):
            expert_occupancy(np.zeros((0, 2), dtype=np.int64), mdp)

    def test_out_of_bounds_rejected(self):
        mdp = random_mdp(3, 2, 0.9, seed=4)
        with pytest.raises(ValueError):
            expert_occupancy(np.array([[5, 0]]), mdp)

    def test_negative_index_rejected(self):
        # flat index 1 * 4 - 1 would wrap to (state 0, action 3)
        mdp = wail.build_environment({"name": "gridworld", "n": 3})
        for pairs in ([[1, -1]], [[-1, 0]]):
            with pytest.raises(ValueError, match="out of MDP bounds"):
                expert_occupancy(np.array(pairs), mdp)
            with pytest.raises(ValueError, match="out of MDP bounds"):
                wail.train_bc(mdp, np.array(pairs))

    def test_non_integer_pairs_rejected(self):
        # a float array used to be truncated: [[0.9, 1.7]] read as (0, 1)
        mdp = wail.build_environment({"name": "gridworld", "n": 3})
        for pairs in ([[0.9, 1.7]], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="integer"):
                expert_occupancy(np.array(pairs), mdp)
            with pytest.raises(ValueError, match="integer"):
                wail.train_bc(mdp, np.array(pairs))
        one = expert_occupancy(np.array([[0, 1]], dtype=np.int32), mdp)
        assert np.flatnonzero(one.flat()).tolist() == [1] and one.flat()[1] == 1.0


def test_sampled_expert_batch_follows_the_measure():
    # a sampled round's l2 expert indices are drawn from the expert's
    # measure: index i with probability count_i / k, never off the support
    mdp = wail.make_gridworld(4)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(16, 4), 3, 12, seed=1)
    expert = expert_occupancy(demos, mdp)
    w = expert.flat()
    config = RunConfig(sampling="sampled", l2=20_000)
    flat, weights = wail.training._expert_batch(expert, config, np.random.default_rng(7))
    assert flat.size == config.l2 and np.all(weights == 1.0 / config.l2)
    freq = np.bincount(flat, minlength=w.size) / flat.size
    assert np.all(freq[w == 0] == 0)
    se = np.sqrt(w * (1.0 - w) / flat.size)
    assert np.all(np.abs(freq - w) <= 4.0 * se)
    assert 10 <= np.count_nonzero(w) < w.size


class TestWailIteration:
    def test_matched_measures_floor(self):
        # Policy equals the "expert" policy and the potential is an exact
        # dual optimum (any constant when measures match): one round keeps
        # the l2 objective at zero.
        mdp = small_mdp_two_actions()
        pol = SoftmaxPolicy.uniform(2, 2)
        rho = occupancy_from_policy(mdp, pol)
        config = RunConfig(k_max=1, delta0=0.01, model_form="tabular",
                           reg_kind="l2", epsilon=0.01)
        state = WailState(k=0, model=wail.create_model("tabular", (4,), 0),
                          policy=pol)
        _, row = wail_iteration(state, mdp, rho, config, OtDualStep(mdp, config))
        assert abs(row["objective"]) <= 1e-6

    def test_zero_delta_decouples_policy(self):
        mdp = small_mdp_two_actions()
        expert = wail.sample_trajectories(mdp, deterministic_policy([1, 1], 2), 5, seed=0)
        config = RunConfig(k_max=5, delta0=0.0, model_form="tabular",
                           reg_kind="l2", epsilon=0.01)
        state = WailState(k=0, model=wail.create_model("tabular", (4,), 0),
                          policy=SoftmaxPolicy.uniform(2, 2))
        step = OtDualStep(mdp, config)
        for _ in range(5):
            state, _ = wail_iteration(state, mdp, expert, config, step)
        assert np.array_equal(state.policy.logits, np.zeros((2, 2)))
        assert np.abs(state.model.params).max() > 0.0   # reward still ascended


class TestTrainWail:
    def test_zero_iterations_returns_initials(self):
        mdp = small_mdp_two_actions()
        expert = wail.sample_trajectories(mdp, SoftmaxPolicy.uniform(2, 2), 3, seed=0)
        config = RunConfig(k_max=0)
        policy, model, log = train_wail(mdp, expert, config)
        assert np.array_equal(policy.logits, np.zeros((2, 2)))
        assert np.all(model.params == 0.0)
        assert log.rows == []

    @pytest.mark.parametrize("algorithm", ["wail", "gail"])
    def test_deterministic_logs(self, algorithm):
        mdp = small_mdp_two_actions()
        expert = wail.sample_trajectories(mdp, deterministic_policy([0, 0], 2), 5, seed=1)
        config = RunConfig(k_max=25, seed=3)
        train = TRAINERS[algorithm]
        p1, m1, log1 = train(mdp, expert, config)
        p2, m2, log2 = train(mdp, expert, config)
        assert np.array_equal(p1.logits, p2.logits)
        assert np.array_equal(m1.params, m2.params)
        assert log1.rows == log2.rows
        assert log1.meta == log2.meta

    def test_expert_always_action_zero_is_imitated(self):
        mdp = small_mdp_two_actions()
        demos = wail.rollout_fixed(mdp, deterministic_policy([0, 0], 2), 5, 20, seed=2)
        config = RunConfig(k_max=300, seed=0)
        policy, _, _ = train_wail(mdp, demos, config)
        expert_weights = expert_occupancy(demos, mdp).rho
        for s in range(2):
            if expert_weights[s].sum() > 0:
                assert policy.probs[s, 0] >= 0.95

    def test_sampled_mode_runs_and_is_deterministic(self):
        mdp = small_mdp_two_actions()
        demos = wail.rollout_fixed(mdp, deterministic_policy([0, 0], 2), 3, 15, seed=2)
        config = RunConfig(k_max=10, seed=5, sampling="sampled", l1=32, l2=32)
        p1, _, log1 = train_wail(mdp, demos, config)
        p2, _, log2 = train_wail(mdp, demos, config)
        assert np.array_equal(p1.logits, p2.logits)
        assert log1.rows == log2.rows

    @pytest.mark.parametrize("algorithm", ["wail", "gail"])
    def test_one_sampler_call_per_round(self, monkeypatch, algorithm):
        # each round draws l1 // 8 policy-batch episodes and PG_EPISODES
        # gradient episodes in one call; only a first group short of l1
        # pairs is topped up, each top-up sized to what is still missing,
        # and the gradient reads the call's last PG_EPISODES episodes
        rounds, calls, gradient_batches = [], [], []
        original = wail.training.sample_trajectories
        iteration = wail.training.wail_iteration
        gradient = wail.training.entropy_reg_policy_gradient

        def sample(mdp, policy, n, **kwargs):
            batch = original(mdp, policy, n, **kwargs)
            calls.append((n, batch))
            return batch

        def recorded_gradient(*args, batch=None, **kwargs):
            gradient_batches.append(batch)
            return gradient(*args, batch=batch, **kwargs)

        def counted_iteration(*args, **kwargs):
            rounds.append(len(calls))
            return iteration(*args, **kwargs)

        monkeypatch.setattr(wail.training, "sample_trajectories", sample)
        monkeypatch.setattr(wail.training, "wail_iteration", counted_iteration)
        monkeypatch.setattr(wail.training, "entropy_reg_policy_gradient", recorded_gradient)
        # at gamma = 0.9 the first group holds 160 pairs on average, so
        # some rounds fall short of l1 = 128
        mdp = wail.make_gridworld(4, gamma=0.9)
        demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(16, 4), 2, 20, seed=0)
        config = RunConfig(k_max=20, seed=3, algorithm=algorithm, sampling="sampled",
                           pg_mode="sampled", early_stop_window=100)
        TRAINERS[algorithm](mdp, demos, config)
        assert len(rounds) == len(gradient_batches) == 20
        first_group = config.l1 // 8
        top_ups = 0
        for lo, hi, used in zip(rounds, rounds[1:] + [len(calls)], gradient_batches):
            (n, batch), extra = calls[lo], calls[lo + 1:hi]
            assert n == first_group + wail.training.PG_EPISODES == 16 + 256
            tail = batch.subset(first_group, n)
            assert used.lengths.tobytes() == tail.lengths.tobytes()
            assert used.states.tobytes() == tail.states.tobytes()
            pairs = int(batch.lengths[:first_group].sum())
            for n, batch in extra:
                assert pairs < config.l1 and n == max(1, (config.l1 - pairs) // 8)
                pairs += int(batch.lengths.sum())
            assert pairs >= config.l1
            top_ups += len(extra)
        assert len(calls) == 20 + top_ups and top_ups > 0

    @pytest.mark.parametrize("algorithm,model_file", [("wail", "reward_final.json"),
                                                      ("gail", "discriminator_final.json")])
    def test_artifacts_written(self, tmp_path, algorithm, model_file):
        # run_single writes the run's final files; a direct trainer call
        # with out_dir set writes only the loop's checkpoints
        mdp = wail.make_gridworld(3)
        demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
        config = RunConfig(env={"name": "gridworld", "n": 3}, algorithm=algorithm, k_max=6,
                           seed=0, n_eval=50, n_ref=50, checkpoint_every=3)
        run_dir = tmp_path / "run"
        _, art = wail.run_single(dataclasses.replace(config, out_dir=str(run_dir)), demos)
        policy, model, log = art["policy"], art["model"], art["log"]
        assert sorted(os.listdir(run_dir)) == sorted(
            ["checkpoints", "demos.jsonl", "metrics.csv", model_file, "policy_final.json",
             "result.json", "run_meta.json"])
        assert (run_dir / "checkpoints" / "iter_000003_policy.json").exists()
        assert (run_dir / "checkpoints" / "iter_000003_reward.json").exists()
        assert wail.load_policy(run_dir / "policy_final.json").logits.tobytes() \
            == policy.logits.tobytes()
        assert wail.load_model(run_dir / model_file).params.tobytes() \
            == model.params.tobytes()
        back = RunLog.load(str(run_dir))
        assert back.rows == log.rows
        assert back.meta == log.meta
        assert back.meta["algorithm"] == algorithm
        assert len(back.rows) == 6
        assert back.rows[0]["iteration"] == 1
        direct = tmp_path / "direct"
        TRAINERS[algorithm](mdp, demos, dataclasses.replace(config, out_dir=str(direct)))
        assert os.listdir(direct) == ["checkpoints"]

    def test_clamp_events_counted_per_run(self):
        mdp = wail.make_gridworld(3)
        demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
        config = RunConfig(k_max=30, seed=1, reg_kind="entropic", epsilon=1e-3)
        counts = [train_wail(mdp, demos, config)[2].meta["entropic_clamp_events"]
                  for _ in range(2)]
        assert counts[0] > 0
        assert counts[0] == counts[1]


class TestRunLog:
    def test_csv_round_trip_with_missing_eval(self, tmp_path):
        log = RunLog(meta={"algorithm": "wail"})
        log.append(iteration=1, objective=0.5, policy_surrogate=0.1,
                   kl_step=0.01, entropy=2.0, scaled_perf_eval=None)
        log.append(iteration=2, objective=0.25, policy_surrogate=0.2,
                   kl_step=0.009, entropy=1.9, scaled_perf_eval=0.75)
        log.save(str(tmp_path))
        back = RunLog.load(str(tmp_path))
        assert back.rows == log.rows
        assert back.meta == log.meta

    def test_csv_round_trip_with_numpy_scalars(self, tmp_path):
        # a NumPy scalar is a float whose repr reads np.float64(0.5), which
        # load could not parse back
        floats = wail.training.LOG_COLUMNS[1:]
        log = RunLog()
        log.append(iteration=np.int64(1), **{c: np.float64(0.5) for c in floats})
        log.save(str(tmp_path))
        assert "np." not in (tmp_path / "metrics.csv").read_text()
        assert RunLog.load(str(tmp_path)).rows == [{"iteration": 1} | {c: 0.5 for c in floats}]

    def test_column_extraction(self):
        log = RunLog()
        log.append(iteration=1, objective=1.0, policy_surrogate=0.0,
                   kl_step=0.0, entropy=0.0, scaled_perf_eval=None)
        log.append(iteration=2, objective=2.0, policy_surrogate=0.0,
                   kl_step=0.0, entropy=0.0, scaled_perf_eval=0.5)
        assert np.array_equal(log.column("objective"), [1.0, 2.0])
        assert np.array_equal(log.column("scaled_perf_eval"), [0.5])


def test_objective_trend_downward_when_initialized_far():
    # With the potential warm-started to the dual optimum against the
    # initial policy, the trace starts near the true transport distance and
    # the policy steps drive it down toward the floor: the trailing
    # quarter's median sits below the opening quarter's.
    mdp = wail.build_environment({"name": "gridworld", "n": 5})
    expert, demos = wail.make_expert(mdp, 0.01, n_traj=1, traj_len=50, seed=0)
    # the annealed schedule makes the run converge instead of limit-cycling
    config = RunConfig(k_max=400, seed=0, ot_lr=0.5, delta0=0.1, delta_decay=1.0)
    metric = build_ground_metric(mdp)
    reg = DualRegularization("l2", 0.01)
    expert_data = expert_occupancy(demos, mdp)
    pol = SoftmaxPolicy.uniform(25, 4)
    w = expert_data.flat()
    sup = np.flatnonzero(w)
    pair = wail.DiscreteMeasurePair(occupancy_from_policy(mdp, pol).flat(),
                                    w[sup] / w[sup].sum())
    warm, _, _ = wail.reg_ot_fit(pair, metric.restrict(np.arange(100), sup), reg,
                                 wail.create_model("tabular", (100,), 0),
                                 steps=4000, lr=0.3)
    state = WailState(k=0, model=warm, policy=pol)
    step = OtDualStep(mdp, config)   # the same scale 1.0 and l2 epsilon 0.01 as above
    trace = []
    for _ in range(config.k_max):
        state, row = wail_iteration(state, mdp, expert_data, config, step)
        trace.append(row["objective"])
    trace = np.asarray(trace)
    q = len(trace) // 4
    assert np.median(trace[-q:]) < np.median(trace[:q])


def test_returned_reward_is_near_stationary(monkeypatch):
    # train_wail returns the potential fitted against the returned policy:
    # 200 further steps of the same ascent raise the regularized dual by
    # less than 0.005 (about 5% of its value).  The loop's last iterate
    # (no final fit) is one ascent step per round behind a moving policy
    # and gains several times that.
    mdp = wail.build_environment({"name": "gridworld", "n": 5})
    _, demos = wail.make_expert(mdp, 0.01, n_traj=1, traj_len=50, seed=0)
    expert = expert_occupancy(demos, mdp).flat()
    sup = np.flatnonzero(expert)
    sub = build_ground_metric(mdp).restrict(np.arange(100), sup)
    gains = {}
    config = RunConfig(k_max=400, seed=0)
    reg = DualRegularization(config.reg_kind, config.epsilon)
    for final_steps in (200, 0):
        monkeypatch.setattr(wail.training, "FINAL_FIT_STEPS", final_steps)
        policy, model, log = train_wail(mdp, demos, config)
        rho = occupancy_from_policy(mdp, policy).flat()
        pair = wail.DiscreteMeasurePair(rho / rho.sum(), expert[sup])

        def objective(m):
            return wail.reg_dual_objective(wail.support_values(m, sub.src_index, None),
                                           wail.support_values(m, sub.tgt_index, None),
                                           pair, sub, reg)

        further, _, _ = wail.reg_ot_fit(pair, sub, reg, model, steps=200, lr=config.ot_lr)
        gains[final_steps] = objective(further) - objective(model)
        assert log.meta["final_fit_steps"] == final_steps
        if final_steps:
            assert log.meta["final_fit_objective"] == objective(model)
    assert gains[200] < 0.005
    assert gains[0] > 0.005


def test_final_fit_capped_by_loop_and_exact_only():
    # The fit runs at most k * ot_inner_steps steps, and none in sampled mode.
    mdp = small_mdp_two_actions()
    demos = wail.rollout_fixed(mdp, deterministic_policy([0, 0], 2), 3, 15, seed=2)
    _, _, log = train_wail(mdp, demos, RunConfig(k_max=6, seed=0))
    assert log.meta["final_fit_steps"] == 6
    _, _, log = train_wail(mdp, demos, RunConfig(k_max=6, seed=0, ot_inner_steps=2))
    assert log.meta["final_fit_steps"] == 12
    config = RunConfig(k_max=6, seed=0, sampling="sampled", l1=16, l2=16)
    _, _, log = train_wail(mdp, demos, config)
    assert log.meta["final_fit_steps"] == 0
    assert log.meta["final_fit_objective"] is None


def test_early_stop_on_flat_objective():
    # Matched measures keep the objective pinned at 0, so the trailing
    # window goes flat and the loop stops at the window length.
    mdp = small_mdp_two_actions()
    rho = occupancy_from_policy(mdp, SoftmaxPolicy.uniform(2, 2))
    config = RunConfig(k_max=400, seed=0, delta0=0.0, early_stop_window=50)
    policy, model, log = train_wail(mdp, rho, config)
    assert log.meta["early_stop_iteration"] == 50
    assert len(log.rows) == 50


@pytest.mark.parametrize("updates", [
    {"early_stop_window": 0}, {"early_stop_window": -3}, {"early_stop_tol": -1e-4},
    {"mlp_hidden": (8,)}, {"mlp_hidden": (8, 8, 8)}, {"mlp_hidden": (8, 0)},
    {"mlp_hidden": (8, 2.5)}, {"mlp_hidden": 8}, {"mlp_hidden": (True, 8)},
    {"early_stop_window": 1},
])
def test_config_rejects_bad_loop_and_network_fields(updates):
    # each of these used to pass validate and then stop WAIL after one
    # round (a window of one objective is always flat, whatever the
    # tolerance), fail in a zero-size reduction, fail unpacking the layer
    # sizes or build a 1-unit layer; now no RunConfig holding one can be
    # made, and the error names the field
    name = next(iter(updates))
    with pytest.raises(ValueError, match=name):
        RunConfig(**updates)
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(RunConfig(k_max=3, model_form="mlp"), **updates)


COUNT_FIELDS = ("seed", "dataset_size", "k_max", "l1", "l2", "ot_inner_steps",
                "early_stop_window", "traj_len", "n_eval", "n_ref", "eval_every",
                "checkpoint_every")


@pytest.mark.parametrize("name", COUNT_FIELDS)
def test_config_requires_integral_counts(name):
    # a fraction used to pass validate and fail in range() or an array size
    # after set-up, and True read as 1
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RunConfig(**{name: bad})
    RunConfig(**{name: np.int64(2)})


FLOAT_FIELDS = ("epsilon", "ot_lr", "lambda_entropy", "delta0", "delta_decay",
                "early_stop_tol", "disc_lr", "expert_lambda")


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_requires_finite_real_floats(name):
    # every range check is a comparison, which NaN passes: a NaN or inf used
    # to pass validate and fail rounds later (or, for early_stop_tol, turn
    # early stopping silently off), and True read as 1.0
    for bad in (float("nan"), float("inf"), float("-inf"), True, "0.5"):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            RunConfig(**{name: bad})
    RunConfig(**{name: 1})
    RunConfig(**{name: np.float64(1.0)})


@pytest.mark.parametrize("name", FOLDED_CONFIG_KEYS)
def test_config_rejects_folded_keys(name):
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({name: 1})


def test_config_accepts_zero_tolerance_and_list_layers():
    RunConfig(early_stop_tol=0.0, early_stop_window=2, mlp_hidden=[8, 1])


def test_divergence_aborts_with_partial_log(tmp_path):
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    # absurd learning rate makes the quadratic hinge blow up geometrically
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=50, seed=0, n_eval=50,
                       n_ref=50, reg_kind="l2", epsilon=1e-6, ot_lr=1e6)
    run_dir = tmp_path / "run"
    for out_dir in (None, str(run_dir)):
        with pytest.raises(wail.DivergenceError) as exc:
            wail.run_single(dataclasses.replace(config, out_dir=out_dir), demos)
        log = exc.value.log
        assert log.meta["diverged"] == str(exc.value)
        assert len(log.rows) < config.k_max
    # only the partial log: no demonstrations, result or final policy
    assert sorted(os.listdir(run_dir)) == ["metrics.csv", "run_meta.json"]
    assert RunLog.load(str(run_dir)).meta == log.meta
    assert RunLog.load(str(run_dir)).rows == log.rows
    direct = tmp_path / "direct"
    with pytest.raises(wail.DivergenceError):
        train_wail(mdp, demos, dataclasses.replace(config, out_dir=str(direct)))
    assert not direct.exists()


def test_non_finite_final_fit_aborts_with_partial_log(monkeypatch):
    # finish's last pass reads a NaN objective: the run stops with every
    # round's row kept
    real = wail.ot.reg_ot_fit

    def nan_value(pair, metric, reg, model, steps, lr, screen=None):
        model, objective, clamps = real(pair, metric, reg, model, steps=steps, lr=lr,
                                        screen=screen)
        return model, (np.nan if steps == 0 else objective), clamps

    monkeypatch.setattr(wail.ot, "reg_ot_fit", nan_value)
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=4, seed=0)
    with pytest.raises(wail.DivergenceError,
                       match="^objective diverged in the final reward fit$") as exc:
        train_wail(mdp, demos, config)
    log = exc.value.log
    assert log.meta["diverged"] == str(exc.value)
    assert [row["iteration"] for row in log.rows] == [1, 2, 3, 4]
    assert all(np.isfinite(row["objective"]) for row in log.rows)


class NanRewardStep(OtDualStep):
    """WAIL's reward step, but from round `bad` on its reward matrix holds a
    NaN while its objective stays finite."""

    def __init__(self, mdp, config, bad):
        super().__init__(mdp, config)
        self.rounds, self.bad = 0, bad

    def __call__(self, model, policy_batch, expert_batch):
        model, objective, reward = super().__call__(model, policy_batch, expert_batch)
        self.rounds += 1
        if self.rounds > self.bad:
            reward = reward.copy()
            reward[-1, -1] = np.nan
        return model, objective, reward


def assert_diverged_at_round_3(run):
    # the line search builds its candidates unchecked, so the loop's own
    # check of the round is what stops a NaN step: a DivergenceError naming
    # the round by the iteration its log row would have had, carrying the
    # rounds before it
    with pytest.raises(wail.DivergenceError, match="at round 3$") as exc:
        run()
    log = exc.value.log
    assert log.meta["diverged"] == str(exc.value)
    assert [row["iteration"] for row in log.rows] == [1, 2]
    assert all(np.isfinite(row["objective"]) for row in log.rows)
    return exc.value


@pytest.mark.parametrize("sampling", ["exact", "sampled"])
def test_nan_reward_aborts_with_partial_log(sampling):
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=5, seed=0,
                       sampling=sampling, pg_mode=sampling)
    assert_diverged_at_round_3(lambda: wail.adversarial_train(
        mdp, demos, config, NanRewardStep(mdp, config, bad=2)))


class NanObjectiveStep(OtDualStep):
    """WAIL's reward step, but from round `bad` + 1 on its objective is NaN."""

    def __init__(self, mdp, config, bad):
        super().__init__(mdp, config)
        self.rounds, self.bad = 0, bad

    def __call__(self, model, policy_batch, expert_batch):
        model, objective, reward = super().__call__(model, policy_batch, expert_batch)
        self.rounds += 1
        return model, (np.nan if self.rounds > self.bad else objective), reward


def test_nan_objective_aborts_with_partial_log():
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=5, seed=0)
    err = assert_diverged_at_round_3(lambda: wail.adversarial_train(
        mdp, demos, config, NanObjectiveStep(mdp, config, bad=2)))
    assert str(err) == "objective diverged at round 3"


@pytest.mark.parametrize("trainer", ["wail", "gail"])
def test_nan_gradient_aborts_with_partial_log(monkeypatch, trainer):
    real = wail.training.entropy_reg_policy_gradient

    def nan_from_round_2(mdp, policy, reward, lam, batch):
        report = real(mdp, policy, reward, lam=lam, batch=batch)
        calls.append(1)
        if len(calls) > 2:
            report.gradient = report.gradient.copy()
            report.gradient[0] = np.nan
        return report

    calls = []
    monkeypatch.setattr(wail.training, "entropy_reg_policy_gradient", nan_from_round_2)
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=5, seed=0)
    assert_diverged_at_round_3(lambda: TRAINERS[trainer](mdp, demos, config))


def test_metrics_rows_are_the_rows_each_round_returned(tmp_path, monkeypatch):
    # the log row wail_iteration returns is the round's only record: the
    # saved metrics.csv holds exactly those rows, plus scaled_perf_eval
    returned = []

    def recording(*args):
        state, row = wail_iteration(*args)
        returned.append(dict(row))
        return state, row

    monkeypatch.setattr(wail.training, "wail_iteration", recording)
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    wail.run_single(RunConfig(env={"name": "gridworld", "n": 3}, k_max=7, seed=2, n_eval=50,
                              n_ref=50, out_dir=str(tmp_path)), demos)
    assert len(returned) == 7
    assert all(list(row) == list(wail.training.LOG_COLUMNS[:-1]) for row in returned)
    assert RunLog.load(str(tmp_path)).rows == [row | {"scaled_perf_eval": None}
                                               for row in returned]


@pytest.mark.parametrize("sampling, inner_steps", [("exact", 1), ("sampled", 1), ("exact", 3)])
def test_every_wail_round_makes_one_ot_pass_per_inner_step(monkeypatch, sampling, inner_steps):
    # the round's objective comes from the pass its first step makes, so
    # a round makes ot_inner_steps passes over its cost block and no more;
    # the run's count is the exact screen's, or finish's run_meta entry
    passes = []
    one_pass = wail.ot._objective_and_gradient

    def counting(*args):
        passes.append(None)
        return one_pass(*args)

    monkeypatch.setattr(wail.ot, "_objective_and_gradient", counting)
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    config = RunConfig(k_max=5, seed=0, sampling=sampling, l1=16, l2=16,
                       ot_inner_steps=inner_steps)
    step = OtDualStep(mdp, config)
    state = WailState(k=0, model=wail.create_model("tabular", (36,), 0),
                      policy=SoftmaxPolicy.uniform(9, 4))
    for k in range(1, config.k_max + 1):
        state, _ = wail_iteration(state, mdp, expert_occupancy(demos, mdp), config, step)
        assert len(passes) == k * inner_steps
        if sampling == "exact":
            assert step.screen.passes == len(passes)
        else:
            meta = step.finish(state)[1]     # sampled finish makes no pass
            assert meta["ot_passes"] == meta["ot_screen_rebuilds"] == len(passes)
            assert meta["ot_screen_refreshes"] == 0


@pytest.mark.parametrize("inner_steps", [1, 3])
def test_sampled_rounds_build_no_screen(monkeypatch, inner_steps):
    # each sampled round builds a new 256 x 256 block, past SCREEN_MIN_PAIRS,
    # that no later fit reads: the run builds no screen, and every pass
    # walks its round's whole block
    assert 256 * 256 >= wail.ot.SCREEN_MIN_PAIRS
    built = []
    monkeypatch.setattr(wail.ot, "DualScreen", lambda: built.append(None))
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=10, seed=0, sampling="sampled",
                       l1=256, l2=256, ot_inner_steps=inner_steps)
    _, _, log = train_wail(mdp, demos, config)
    assert built == []
    assert (log.meta["ot_passes"] == log.meta["ot_screen_rebuilds"]
            == config.k_max * inner_steps)
    assert log.meta["ot_screen_refreshes"] == 0


def test_ot_pass_counts_belong_to_the_run_and_repeat():
    # the counts live on the run's OtDualStep: the same config run twice
    # records the same counts, and at S = 900 (a 3600 x support cost block)
    # the screen serves most passes
    config = RunConfig(env={"name": "gridworld", "n": 30}, dataset_size=10, delta0=0.1,
                       k_max=20, n_eval=100, n_ref=100)
    metas = [wail.run_single(config)[1]["log"].meta for _ in range(2)]
    counts = [(meta["ot_passes"], meta["ot_screen_rebuilds"], meta["ot_screen_refreshes"])
              for meta in metas]
    assert counts[0] == counts[1]
    passes, rebuilds, refreshes = counts[0]
    # one pass a round, one a final-fit step and one for the fit's objective
    assert passes == config.k_max + metas[0]["final_fit_steps"] + 1
    assert rebuilds + refreshes <= passes and rebuilds < passes / 2
