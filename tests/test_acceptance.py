"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line.
Expensive training runs are shared through module-scope fixtures; their
wall time is attributed to the criterion that owns them.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import wail
from wail import (DiscreteMeasurePair, DualRegularization, GroundMetric,
                  RunConfig, SoftmaxPolicy, StepSchedule, occupancy_from_policy,
                  reg_dual_gradient, reg_dual_objective, reg_ot_fit,
                  w1_dual_lp, w1_primal_lp)
from wail.baselines import disc_probs, gail_objective
from wail.rewards import accumulate_param_grad, create_model, support_values
from wail.trust_region import (entropy_reg_policy_gradient, kl_constrained_step,
                               surrogate_value, weighted_kl)

from conftest import dense_transition, random_mdp

GRID_ENV = {"name": "gridworld", "n": 5}


def report(name, passed, detail, budget_s, elapsed_s):
    ok_time = elapsed_s < budget_s
    status = "PASS" if (passed and ok_time) else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed_s:.1f}s / budget {budget_s:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert ok_time, f"{name}: runtime {elapsed_s:.1f}s over budget {budget_s}s"


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def grid_runs():
    """Criterion 6's grid (also feeds criterion 8's size-1 surfaces)."""
    t0 = time.time()
    base = RunConfig(env=GRID_ENV, k_max=800, ot_lr=0.5, n_eval=2000, n_ref=2000)
    rows, artifacts = [], {}
    for algo in ("wail", "gail", "bc"):
        for size in (1, 4, 10):
            for seed in range(5):
                cfg = dataclasses.replace(base, algorithm=algo,
                                          dataset_size=size, seed=seed)
                row, art = wail.run_single(cfg)
                rows.append(row)
                if size == 1 and algo in ("wail", "gail"):
                    artifacts[(algo, seed)] = art
    return rows, artifacts, time.time() - t0


@pytest.fixture(scope="module")
def reward_validity_runs():
    """Criterion 7's runs: 5 seeds, 25 demonstrations, with a slow enough
    discriminator for it to average at the adversarial equilibrium."""
    t0 = time.time()
    base = RunConfig(env=GRID_ENV, k_max=1200, ot_lr=0.5, dataset_size=25,
                     n_eval=2000, n_ref=2000)
    runs = []
    for seed in range(5):
        _, art_w = wail.run_single(dataclasses.replace(base, algorithm="wail", seed=seed))
        _, art_g = wail.run_single(dataclasses.replace(base, algorithm="gail",
                                                       seed=seed, disc_lr=0.1))
        runs.append((art_w, art_g))
    return runs, time.time() - t0


# ---------------------------------------------------------------------------
# 1. Kantorovich strong duality


def test_criterion_1_strong_duality(rng):
    t0 = time.time()
    worst = 0.0
    for t in range(50):
        n = int(rng.integers(3, 31))
        metric = GroundMetric.from_embeddings(rng.normal(size=(n, int(rng.integers(2, 5)))))
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        p, _ = w1_primal_lp(pair, metric)
        d, _ = w1_dual_lp(pair, metric)
        worst = max(worst, abs(p - d))
    report("criterion 1 (strong duality, 50 instances)", worst <= 1e-6,
           f"max |primal - dual| = {worst:.2e} <= 1e-6", 10, time.time() - t0)


# ---------------------------------------------------------------------------
# 2. Regularized-OT consistency as epsilon -> 0


def test_criterion_2_regularized_consistency():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok_mono, worst_rel = True, 0.0
    for t in range(20):
        n = int(rng.integers(6, 13))
        metric = GroundMetric.from_embeddings(rng.normal(size=(n, 3)))
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        w1, _ = w1_primal_lp(pair, metric)
        gaps = []
        for eps, lr, steps in ((1.0, 1.0, 1500), (0.1, 0.4, 2500), (0.01, 0.05, 6000)):
            reg = DualRegularization("l2", eps)
            fit, _, _ = reg_ot_fit(pair, metric, reg, create_model("tabular", (n,), seed=t),
                                   steps=steps, lr=lr)
            gaps.append(abs(reg_dual_objective(fit.params, fit.params, pair, metric, reg) - w1))
        ok_mono &= gaps[0] >= gaps[1] >= gaps[2]
        worst_rel = max(worst_rel, gaps[2] / max(w1, 1e-12))
    report("criterion 2 (regularized OT, eps sweep, 20 instances)",
           ok_mono and worst_rel <= 0.05,
           f"monotone={ok_mono}, worst eps=0.01 rel err {worst_rel:.4f} <= 0.05",
           120, time.time() - t0)


# ---------------------------------------------------------------------------
# 3. Gradient correctness (finite differences, rel err <= 1e-4)


def _fd_rel(analytic, numeric):
    return np.abs(analytic - numeric).max() / (np.abs(numeric).max() + 1e-12)


def test_criterion_3_gradient_correctness(rng):
    t0 = time.time()
    h = 1e-5
    worst = {"ot_dual": 0.0, "potential": 0.0, "discriminator": 0.0, "policy": 0.0}

    for t in range(100):   # regularized dual gradient
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        E = rng.normal(size=(n + m, 3))
        metric = GroundMetric.from_embeddings(E, np.arange(n), n + np.arange(m))
        pair = DiscreteMeasurePair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))
        reg = DualRegularization("entropic" if t % 2 else "l2", float(rng.uniform(0.05, 1.0)))
        r_src, r_tgt = rng.normal(size=n), rng.normal(size=m)
        if reg.kind == "l2":
            z = r_tgt[None, :] - r_src[:, None] - metric.dist
            r_tgt = r_tgt + np.where(np.abs(z).min() < 1e-3, 0.01, 0.0)
            z = r_tgt[None, :] - r_src[:, None] - metric.dist
            if np.abs(z).min() < 1e-3:
                continue
        g_src, g_tgt = reg_dual_gradient(r_src, r_tgt, pair, metric, reg)
        obj = lambda rs, rt: reg_dual_objective(rs, rt, pair, metric, reg)
        num_s = np.array([(obj(r_src + h * np.eye(n)[i], r_tgt)
                           - obj(r_src - h * np.eye(n)[i], r_tgt)) / (2 * h) for i in range(n)])
        num_t = np.array([(obj(r_src, r_tgt + h * np.eye(m)[j])
                           - obj(r_src, r_tgt - h * np.eye(m)[j])) / (2 * h) for j in range(m)])
        worst["ot_dual"] = max(worst["ot_dual"],
                               _fd_rel(np.concatenate([g_src, g_tgt]),
                                       np.concatenate([num_s, num_t])))

    for t in range(100):   # reward model parameter gradients
        form = ("tabular", "linear", "mlp")[t % 3]
        dims = {"tabular": (6,), "linear": (4,), "mlp": (3, 5, 4)}[form]
        model = create_model(form, dims, seed=t)
        model.params = rng.normal(size=model.params.size) * 0.6
        x = int(rng.integers(0, 6)) if form == "tabular" else rng.normal(size=dims[0])
        point = (np.array([x]), None) if form == "tabular" else (None, x[None, :])
        g = accumulate_param_grad(model, *point, np.ones(1))
        num = np.zeros_like(g)
        for i in range(g.size):
            up = model.copy(); up.params[i] += h
            dn = model.copy(); dn.params[i] -= h
            num[i] = (support_values(up, *point)[0] - support_values(dn, *point)[0]) / (2 * h)
        worst["potential"] = max(worst["potential"], _fd_rel(g, num))

    table = rng.normal(size=(8, 3))
    for t in range(100):   # discriminator gradients
        form, dims = (("tabular", (8,)) if t % 2 else ("mlp", (3, 5, 4)))
        logit = create_model(form, dims, seed=t)
        logit.params = rng.normal(size=logit.params.size) * 0.5
        eb = (rng.integers(0, 8, size=4), np.full(4, 0.25))
        pb = (rng.integers(0, 8, size=5), np.full(5, 0.2))
        (e_idx, e_w), (p_idx, p_w) = eb, pb
        d_e = disc_probs(support_values(logit, e_idx, table[e_idx]))
        d_p = disc_probs(support_values(logit, p_idx, table[p_idx]))
        g = (accumulate_param_grad(logit, e_idx, table[e_idx], -e_w * d_e)
             + accumulate_param_grad(logit, p_idx, table[p_idx], p_w * (1 - d_p)))
        num = np.zeros_like(g)
        for i in range(g.size):
            up = logit.copy(); up.params[i] += h
            dn = logit.copy(); dn.params[i] -= h
            num[i] = (gail_objective(up, eb, pb, table) - gail_objective(dn, eb, pb, table)) / (2 * h)
        worst["discriminator"] = max(worst["discriminator"], _fd_rel(g, num))

    for t in range(100):   # exact-mode policy gradient
        S, A = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        mdp = random_mdp(S, A, float(rng.uniform(0.3, 0.95)), seed=3000 + t)
        pol = SoftmaxPolicy(rng.normal(size=(S, A)))
        rep = entropy_reg_policy_gradient(mdp, pol, rng.normal(size=(S, A)),
                                          lam=float(rng.uniform(0, 0.5)))
        num = np.zeros(S * A)
        for i in range(S * A):
            e = np.zeros((S, A)); e.ravel()[i] = h
            num[i] = (surrogate_value(mdp, SoftmaxPolicy(pol.logits + e), rep.cost)
                      - surrogate_value(mdp, SoftmaxPolicy(pol.logits - e), rep.cost)) / (2 * h)
        worst["policy"] = max(worst["policy"], _fd_rel(rep.gradient, num))

    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("criterion 3 (gradient correctness, 100 configs each)",
           all(v <= 1e-4 for v in worst.values()), f"worst rel err {detail}",
           60, time.time() - t0)


# ---------------------------------------------------------------------------
# 4. Bellman flow and the occupancy bijection


def test_criterion_4_bellman_flow_and_bijection(rng):
    t0 = time.time()
    worst_resid, worst_round = 0.0, 0.0
    for t in range(100):
        S, A = int(rng.integers(2, 51)), int(rng.integers(2, 5))
        mdp = random_mdp(S, A, float(rng.uniform(0.3, 0.97)), seed=4000 + t)
        pol = SoftmaxPolicy(rng.normal(size=(S, A)))
        rho = occupancy_from_policy(mdp, pol)
        worst_resid = max(worst_resid, wail.bellman_flow_residual(mdp, rho))
        back = wail.policy_from_occupancy(rho)
        mass = rho.rho.sum(axis=1)
        worst_round = max(worst_round, np.abs(back.probs - pol.probs)[mass > 1e-12].max())

    mc_ok = True
    for t in range(5):   # Monte-Carlo agreement, 1e6 restart-chain samples each
        S, A = 5, 3
        mdp = random_mdp(S, A, 0.9, seed=5000 + t)
        pol = SoftmaxPolicy(np.random.default_rng(t).normal(size=(S, A)))
        rho = occupancy_from_policy(mdp, pol).rho
        sim_rng = np.random.default_rng(6000 + t)
        n_chains, steps = 40, 25_000
        counts = np.zeros((n_chains, S, A))
        pi_cum = pol.probs.cumsum(axis=1)
        P_cum = dense_transition(mdp).cumsum(axis=2)
        mu_cum = mdp.start.cumsum()
        s = np.searchsorted(mu_cum, sim_rng.random(n_chains))
        for _ in range(steps):
            a = (pi_cum[s] < sim_rng.random(n_chains)[:, None]).sum(axis=1)
            np.add.at(counts, (np.arange(n_chains), s, a), 1.0)
            restart = sim_rng.random(n_chains) < (1.0 - mdp.gamma)
            s_next = (P_cum[s, a] < sim_rng.random(n_chains)[:, None]).sum(axis=1)
            s = np.where(restart, np.searchsorted(mu_cum, sim_rng.random(n_chains)), s_next)
        freqs = counts / steps
        est = freqs.mean(axis=0)
        se = freqs.std(axis=0, ddof=1) / math.sqrt(n_chains)
        mc_ok &= bool(np.all(np.abs(est - rho) <= 3.0 * se + 1e-9))

    report("criterion 4 (Bellman flow + bijection)",
           worst_resid <= 1e-8 and worst_round <= 1e-8 and mc_ok,
           f"max flow residual {worst_resid:.2e}, max round trip {worst_round:.2e}, "
           f"MC within 3 SE: {mc_ok}", 120, time.time() - t0)


# ---------------------------------------------------------------------------
# 5. KL trust region and the sqrt-summable step schedule


def test_criterion_5_trust_region_and_schedule(rng):
    t0 = time.time()
    kl_ok = True
    for t in range(100):
        S, A = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        mdp = random_mdp(S, A, float(rng.uniform(0.5, 0.95)), seed=7000 + t)
        pol = SoftmaxPolicy(rng.normal(size=(S, A)))
        rep = entropy_reg_policy_gradient(mdp, pol, rng.normal(size=(S, A)),
                                          lam=float(rng.uniform(0, 0.3)))
        new = kl_constrained_step(mdp, pol, rep, 0.01)
        kl_ok &= weighted_kl(mdp, pol, new) <= 0.01 * 1.001

    schedule = StepSchedule(0.1, 2.5)
    sum_ok = math.isfinite(schedule.sqrt_sum(10 ** 6))

    base = RunConfig(env=GRID_ENV, k_max=300, ot_lr=0.5, delta0=0.1,
                     delta_decay=2.5, early_stop_tol=0.0, dataset_size=4)
    shrinks = []
    for seed in range(10):
        _, art = wail.run_single(dataclasses.replace(base, algorithm="wail", seed=seed))
        trace = art["log"].column("objective")
        seg = max(2, len(trace) // 10)
        opening = np.abs(np.diff(trace[:seg])).mean()
        trailing = np.abs(np.diff(trace[-seg:])).mean()
        shrinks.append(opening / max(trailing, 1e-300))
    shrink_ok = all(s >= 10.0 for s in shrinks)
    report("criterion 5 (KL trust region + schedule)",
           kl_ok and sum_ok and shrink_ok,
           f"KL bound held on 100 trials: {kl_ok}, sum sqrt(delta) finite: {sum_ok}, "
           f"min trailing-shrink over 10 runs {min(shrinks):.1f}x >= 10x",
           600, time.time() - t0)


# ---------------------------------------------------------------------------
# 6. Sample efficiency and ordering on the gridworld


def test_criterion_6_sample_efficiency(grid_runs):
    rows, _, elapsed = grid_runs
    t0 = time.time()
    med = {}
    for algo in ("wail", "gail", "bc"):
        for size in (1, 4, 10):
            vals = [r["scaled"] for r in rows
                    if r["algorithm"] == algo and r["dataset_size"] == size]
            med[(algo, size)] = float(np.median(vals))
    w1, g1, b1 = med[("wail", 1)], med[("gail", 1)], med[("bc", 1)]
    passed = (w1 >= 0.9) and (w1 >= g1) and (g1 >= b1 - 0.05)
    report("criterion 6 (sample efficiency, sizes {1,4,10} x 5 seeds)", passed,
           f"medians at size 1: wail={w1:.3f} (>=0.9), gail={g1:.3f}, bc={b1:.3f}; "
           f"wail>=gail: {w1 >= g1}, gail>=bc-0.05: {g1 >= b1 - 0.05}",
           1800, elapsed + (time.time() - t0))


# ---------------------------------------------------------------------------
# 7. The learned potential is a usable reward; GAIL's surrogate degenerates


def test_criterion_7_valid_reward(reward_validity_runs):
    runs, elapsed = reward_validity_runs
    t0 = time.time()
    diffs, stds = [], []
    for art_w, art_g in runs:
        mdp = art_w["mdp"]
        resolved = wail.soft_value_iteration(mdp, wail.reward_matrix(art_w["model"], mdp),
                                             lam=0.01)
        ev_r = wail.evaluate(mdp, resolved, 2000, seed=99,
                             expert_ref=art_w["expert_ref"], random_ref=art_w["random_ref"])
        ev_w = wail.evaluate(mdp, art_w["policy"], 2000, seed=99,
                             expert_ref=art_w["expert_ref"], random_ref=art_w["random_ref"])
        diffs.append(abs(ev_r.scaled - ev_w.scaled))

        mdp = art_g["mdp"]
        surrogate = wail.gail_reward_matrix(art_g["model"], mdp)
        rho = occupancy_from_policy(mdp, art_g["policy"]).rho
        mask = rho >= 1e-4   # support the trained policy actually visits
        w = rho[mask] / rho[mask].sum()
        mean = w @ surrogate[mask]
        stds.append(float(np.sqrt(w @ (surrogate[mask] - mean) ** 2)))
    passed = max(diffs) <= 0.1 and max(stds) <= 0.1
    report("criterion 7 (reward validity + GAIL degeneracy, 5 seeds)", passed,
           f"max re-solve scaled diff {max(diffs):.4f} <= 0.1; "
           f"max -logD std over visited support {max(stds):.4f} <= 0.1",
           900, elapsed + (time.time() - t0))


# ---------------------------------------------------------------------------
# 8. Reward smoothness: Lipschitz modulus relative to range


def test_criterion_8_surface_smoothness(grid_runs):
    # The Kantorovich potential is claimed to be a smooth reward; for W1
    # that means 1-Lipschitz in the ground metric.  Each reward (WAIL's
    # learned potential, GAIL's -log D) is scored at the demonstration's
    # distinct state-action embeddings, the points the reward-surface PCA
    # plane is fitted to, by its Lipschitz modulus against the ground metric
    # divided by its range over the same points (relative_lipschitz).  The
    # mean |difference| of a min-max normalized grid surface counts level
    # changes, not slope: a 1-Lipschitz ramp and a step between the same two
    # levels score alike, and the exact W1 potential itself scored 1.3x
    # GAIL's.  Calibration: that exact potential (w1_dual_lp between the
    # trained policy's occupancy and the demonstration measure) must pass
    # the same bound, so the measure sees the property it is meant to see.
    _, artifacts, _ = grid_runs
    t0 = time.time()
    ratios, calibration = [], []
    for seed in range(5):
        art_w = artifacts[("wail", seed)]
        art_g = artifacts[("gail", seed)]
        mdp = art_w["mdp"]
        pairs = art_w["demos"].pairs()
        points = wail.state_action_embeddings(mdp)[pairs[:, 0] * mdp.n_actions + pairs[:, 1]]
        gail_mod = wail.relative_lipschitz(wail.disc_surface_fn(art_g["model"], mdp), points)
        ratios.append(wail.relative_lipschitz(wail.model_surface_fn(art_w["model"], mdp),
                                              points) / gail_mod)
        rho = occupancy_from_policy(mdp, art_w["policy"]).flat()
        expert = wail.expert_occupancy(art_w["demos"], mdp)
        _, f = w1_dual_lp(DiscreteMeasurePair(rho / rho.sum(), expert.flat()),
                          wail.build_ground_metric(mdp))
        exact = wail.PotentialModel("tabular", (f.size,), f)
        calibration.append(wail.relative_lipschitz(wail.model_surface_fn(exact, mdp),
                                                   points) / gail_mod)
    median, median_exact = float(np.median(ratios)), float(np.median(calibration))
    report("criterion 8 (reward smoothness, Lipschitz modulus / range, size 1, 5 seeds)",
           median <= 0.5 and median_exact <= 0.5,
           f"median relative modulus wail/gail = {median:.3f} (per seed: "
           + ", ".join(f"{r:.3f}" for r in ratios)
           + f"); exact W1 potential/gail = {median_exact:.3f} (per seed: "
           + ", ".join(f"{r:.3f}" for r in calibration) + "); both required <= 0.5",
           300, time.time() - t0)
