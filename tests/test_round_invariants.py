"""Values an adversarial round no longer recomputes: the early-stop window
kept as a running window over the objectives, the tabular gradient as one
bincount, and the round generator made only by rounds that sample."""

import sys

import numpy as np
import pytest

import wail
from wail import RunConfig, SoftmaxPolicy
from wail.rewards import accumulate_param_grad, create_model
from wail.training import OtDualStep, adversarial_train

from conftest import deterministic_policy

TOL, WINDOW = 0.25, 3


def old_rule_first_stop(objectives, window, tol):
    """The first round at which the former loop's rule, applied to the log
    rows after each round, stopped the run (None when it never does)."""
    for k in range(1, len(objectives) + 1):
        if k < window:
            continue
        tail = np.asarray(objectives[k - window:k])
        if float(tail.max() - tail.min()) <= tol * (1.0 + abs(tail[-1])):
            return k
    return None


class ScriptedStep:
    """A reward step that returns the scripted objective of each round and
    a zero reward, so the policy never moves."""

    algorithm, salt = "scripted", 0

    def __init__(self, mdp, objectives):
        self.shape, self.objectives, self.calls = (mdp.n_states, mdp.n_actions), objectives, 0

    def __call__(self, model, policy_batch, expert_batch):
        self.calls += 1
        return model, self.objectives[self.calls - 1], np.zeros(self.shape)

    def finish(self, state):
        return state.model, {}


def scripted_objectives(fifth: float, k_max: int) -> list:
    # rounds 1-4 swing widely; the window of rounds 5-7 is (fifth, 0, 0),
    # whose spread `fifth` meets the threshold tol * (1 + |0|) = 0.25 when
    # fifth = 0.25; from round 8 on the objective swings widely again
    return [8.0, -8.0, 8.0, -8.0, fifth, 0.0, 0.0] + [(-1.0) ** k * 8.0 for k in range(k_max - 7)]


@pytest.mark.parametrize("fifth, stop", [(0.25, 7), (np.nextafter(0.25, np.inf), None)])
def test_early_stop_fires_at_the_former_rule_round(fifth, stop):
    # spread exactly at tol * (1 + |last|) stops the run in that round; one
    # ulp above it, the run goes on to k_max, as the former rule decided
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, SoftmaxPolicy.uniform(9, 4), 2, 10, seed=0)
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=20, seed=0,
                       early_stop_window=WINDOW, early_stop_tol=TOL)
    objectives = scripted_objectives(fifth, config.k_max)
    assert old_rule_first_stop(objectives, WINDOW, TOL) == stop
    _, _, log = adversarial_train(mdp, demos, config, ScriptedStep(mdp, objectives))
    assert log.meta.get("early_stop_iteration") == stop
    assert len(log.rows) == log.meta["iterations_run"] == (stop or config.k_max)
    assert [row["objective"] for row in log.rows] == objectives[:len(log.rows)]


@pytest.mark.parametrize("seed", range(4))
def test_tabular_gradient_is_add_at_bit_for_bit(seed):
    # repeated indices (as in sampled batches), negative coefficients over
    # many magnitudes, and signed zeros, one index hit only by -0.0
    rng = np.random.default_rng(seed)
    n, size = 40, 300
    indices = rng.integers(0, n - 1, size=size)
    coeffs = rng.normal(size=size) * 10.0 ** rng.integers(-12, 12, size=size)
    coeffs[rng.random(size) < 0.2] = -0.0
    indices[:3], coeffs[:3] = n - 1, -0.0
    model = create_model("tabular", (n,), 0)
    for cut in (0, 1, size):
        ref = np.zeros(n)
        np.add.at(ref, indices[:cut], coeffs[:cut])
        got = accumulate_param_grad(model, indices[:cut], None, coeffs[:cut])
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def record_generators(monkeypatch) -> list:
    """The seed of every np.random.default_rng call made from
    wail.training."""
    seeds, original = [], np.random.default_rng

    def recording(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "wail.training":
            seeds.append(args[0] if args else kwargs.get("seed"))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return seeds


def twenty_round_run(algorithm, **updates):
    mdp = wail.make_gridworld(3)
    demos = wail.rollout_fixed(mdp, deterministic_policy([0] * 9, 4), 2, 10, seed=0)
    config = RunConfig(env={"name": "gridworld", "n": 3}, k_max=20, seed=3, algorithm=algorithm,
                       early_stop_window=100, l1=16, l2=16, **updates)
    train = wail.train_wail if algorithm == "wail" else wail.train_gail
    _, _, log = train(mdp, demos, config)
    assert log.meta["iterations_run"] == 20
    return config


@pytest.mark.parametrize("algorithm", ["wail", "gail"])
def test_exact_rounds_make_no_generator(monkeypatch, algorithm):
    seeds = record_generators(monkeypatch)
    twenty_round_run(algorithm)
    assert seeds == []


@pytest.mark.parametrize("sampling, pg_mode", [("sampled", "sampled"), ("sampled", "exact"),
                                               ("exact", "sampled")])
def test_sampling_rounds_make_one_generator_each(monkeypatch, sampling, pg_mode):
    seeds = record_generators(monkeypatch)
    config = twenty_round_run("wail", sampling=sampling, pg_mode=pg_mode)
    assert seeds == [[config.seed, k, OtDualStep.salt] for k in range(20)]
