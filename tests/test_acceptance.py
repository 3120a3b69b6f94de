"""Acceptance gate: eight checks that define a working build.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) so a full run reads as a checklist. The desk-scale training cells
are expensive and shared between checks through module fixtures.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from fedfog.baselines import (closed_form_allocation, equal_policy,
                              local_policy, oracle_policy, oracle_slot_optimum)
from fedfog.cli import main
from fedfog.ddpg import DdpgHyperParams
from fedfog.dqn import DqnHyperParams
from fedfog.env import (ActionVector, EnvConfig, FogCellEnv, sanitize_action,
                        slot_cost)
from fedfog.federated import (build_agent, evaluate_policy,
                              federated_average, fork_map, make_eval_envs,
                              run_training)
from fedfog.harness import (ExperimentConfig, rounds_to_threshold,
                            sweep_fap_cpu, sweep_mds)
from fedfog.nn import backward, flatten_mlp, forward, init_mlp
from oracles import (central_difference, grid_min_weighted_inverse,
                     grid_slot_optimum, grid_slot_optimum_joint,
                     nearest_grid_point, straight_line_slot_cost)

DESK = EnvConfig()                  # 2 FAPs x 3 MDs, 50-slot episodes
SEEDS = (1, 2, 3)
ROUNDS = 200
TAIL = 20

# Training setup for the desk-scale runs. The defaults (tau 0.001 and the
# stated actor/critic steps) need a far longer horizon than 200 rounds to
# leave their metastable phase, so the acceptance runs use a faster target
# blend, a slightly hotter actor, and slower exploration decay; all three
# knobs are plain config fields. Chosen from a seedwise sweep as the best
# pooled tail cost at this budget.
ACCEPT_DDPG = DdpgHyperParams(actor_lr=1.5e-3, critic_lr=1e-4, tau=0.015,
                              noise_decay=0.998)
ACCEPT_DQN = DqnHyperParams()


def _verdict(capsys, num, label, ok, detail=""):
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_slot_cost_fidelity(capsys):
    rng = np.random.default_rng(2024)
    envs = {m: FogCellEnv(replace(DESK, num_faps=1, mds_per_fap=m), seed=m)
            for m in (1, 2, 3)}
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        env = envs[m]
        state = env.reset()
        action = sanitize_action(rng.uniform(0.0, 1.0, size=3 * m))
        got = slot_cost(state, action, env.fap, env.config).cost
        want = straight_line_slot_cost(state, action, env.fap, env.config)
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - t0
    _verdict(capsys, 1, "slot cost matches straight-line recomputation",
             worst <= 1e-12 and dt < 5.0,
             f"worst rel err {worst:.2e} over 1000 slots, {dt:.1f}s")


def test_criterion_2_allocation_optimality(capsys):
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()

    # closed-form share split vs simplex grid search: the closed form is
    # never beaten, and the grid comes within its own resolution bound
    # (the objective at the grid point nearest the closed-form optimum)
    split_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 5))
        w = rng.uniform(0.05, 10.0, size=k)
        alloc = closed_form_allocation(w)
        cf = float(np.sum(w / alloc))
        _, grid = grid_min_weighted_inverse(list(w), 0.02)
        snapped = nearest_grid_point(list(alloc), 0.02)
        snap_obj = float(sum(wi / s for wi, s in zip(w, snapped)))
        split_ok &= cf <= grid + 1e-9
        split_ok &= grid <= snap_obj + 1e-9

    # per-slot oracle vs exhaustive grid over offload sets and both share
    # simplices, on fresh M = 3 draws
    env = FogCellEnv(replace(DESK, num_faps=1, mds_per_fap=3), seed=5)
    oracle_ok = True
    for _ in range(100):
        state = env.reset()
        action, cost = oracle_slot_optimum(state, env.fap, env.config)
        sep = grid_slot_optimum(state, env.fap, env.config, step=0.02)
        joint = grid_slot_optimum_joint(state, env.fap, env.config, step=0.1)
        oracle_ok &= cost <= sep + 1e-9 and cost <= joint + 1e-9
        off = [i for i in range(3) if action.offload[i] >= 0.5]
        if off:
            for step, grid_val in ((0.02, sep), (0.1, joint)):
                ys = np.array([action.compute_share[i] for i in off])
                zs = np.array([action.bandwidth_share[i] for i in off])
                sy = nearest_grid_point(list(ys / ys.sum()), step)
                sz = nearest_grid_point(list(zs / zs.sum()), step)
                y_full = np.zeros(3)
                z_full = np.zeros(3)
                for j, i in enumerate(off):
                    y_full[i], z_full[i] = sy[j], sz[j]
                snapped = ActionVector(np.array(action.offload, dtype=float),
                                       y_full, z_full)
                snap_cost = slot_cost(state, snapped, env.fap,
                                      env.config).cost
                oracle_ok &= grid_val <= snap_cost + 1e-9
    dt = time.perf_counter() - t0
    _verdict(capsys, 2, "allocation and per-slot oracle match grid search",
             split_ok and oracle_ok and dt < 120.0,
             f"100 split + 100 slot instances, {dt:.1f}s")


def test_criterion_3_gradient_correctness(capsys):
    rng = np.random.default_rng(4242)
    acts = ("relu", "sigmoid", "linear")
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(100):
        dims = [int(rng.integers(2, 6)), int(rng.integers(3, 9)),
                int(rng.integers(1, 5))]
        net = init_mlp(rng, dims, output_activation=acts[t % 3],
                       hidden_activation=acts[(t // 3) % 3])
        for b in net.biases:
            # keep relu pre-activations away from their kinks, where the
            # subgradient and a finite difference legitimately disagree
            b[:] = rng.normal(scale=0.3, size=b.shape)
        x = rng.normal(size=(2, dims[0]))
        c = rng.normal(size=(2, dims[-1]))
        _, cache = forward(net, x)
        grads = backward(net, cache, c)
        analytic = np.concatenate([g.ravel() for g in grads])
        flat0 = flatten_mlp(net).values.copy()

        def scalar_loss(values):
            net.params[...] = values
            out, _ = forward(net, x)
            return float(np.sum(out * c))

        fd = central_difference(scalar_loss, flat0.copy())
        net.params[...] = flat0
        rel = np.max(np.abs(fd - analytic)) / max(np.max(np.abs(analytic)),
                                                  1e-10)
        worst = max(worst, float(rel))
    dt = time.perf_counter() - t0
    _verdict(capsys, 3, "backprop matches finite differences",
             worst <= 1e-4 and dt < 60.0,
             f"worst rel err {worst:.2e} over 100 nets, {dt:.1f}s")


def test_criterion_4_fedavg_exactness(capsys):
    rng = np.random.default_rng(9)
    flats = [flatten_mlp(init_mlp(rng, [6, 12, 4], "sigmoid"))
             for _ in range(5)]
    avg = federated_average(flats)
    stack = np.stack([f.values for f in flats])
    mean_ok = float(np.max(np.abs(avg.values - stack.mean(axis=0)))) <= 1e-12
    single_ok = np.array_equal(federated_average([flats[0]]).values,
                               flats[0].values)
    consensus_ok = np.array_equal(
        federated_average([flats[1]] * 3).values, flats[1].values)
    _verdict(capsys, 4, "federated averaging is exact",
             mean_ok and single_ok and consensus_ok,
             "mean within 1e-12, single upload and consensus bit-exact")


def _desk_run(kind, seed):
    """One desk-scale training of the gate: one job of desk_runs' fork_map.

    DDPG comes with the paired baseline evaluations and `ddpg_wall`, the
    wall time of both measured here.
    """
    t0 = time.perf_counter()
    if kind == "dqn":
        run = run_training(DESK, "dqn", seed, ROUNDS, dqn_hp=ACCEPT_DQN)
        return {"dqn": run}
    ddpg = run_training(DESK, "ddpg", seed, ROUNDS, ddpg_hp=ACCEPT_DDPG,
                        eval_last_rounds=TAIL)
    base = {}
    for name, pol in (("local", lambda e, s: local_policy(s)),
                      ("equal", lambda e, s: equal_policy(s)),
                      ("oracle", oracle_policy)):
        base[name] = evaluate_policy(pol, make_eval_envs(DESK, seed),
                                     episodes=TAIL)[1]
    return {"ddpg": ddpg, "base": base,
            "ddpg_wall": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def desk_runs():
    """3-seed desk-scale training for both agent kinds plus paired baselines.

    The per-round eval tail and the baseline evaluations consume the same
    held-out episode draws, so their means are directly comparable. The six
    trainings are independent and seeded, so fork_map's children run them
    with the same results as one after the other; each child takes its
    share of the CPUs, so with one CPU each a training's rounds run in its
    child's process. The longer DDPG runs go first.
    """
    jobs = [(kind, seed) for kind in ("ddpg", "dqn") for seed in SEEDS]
    parts = fork_map(lambda i: _desk_run(*jobs[i]), len(jobs), "desk run")
    runs = {seed: {} for seed in SEEDS}
    for (_, seed), part in zip(jobs, parts):
        runs[seed].update(part)
    return runs


def _offload_rate(model, seed):
    """Share of tasks the greedy global policy offloads on one held-out
    episode per cell."""
    agent = build_agent(model.agent_kind, DESK, 0, ACCEPT_DDPG)
    agent.load_global(model.weights)
    policy = agent.policy()
    offloaded = []
    for env in make_eval_envs(DESK, seed):
        state = env.reset()
        for _ in range(DESK.steps_per_episode):
            action = policy(env, state)
            offloaded.append(action.offload.mean())
            _, state = env.step(action)
    return float(np.mean(offloaded))


def test_criterion_5_learning_efficacy(desk_runs, capsys):
    tails, local_c, equal_c, oracle_c = [], [], [], []
    per_seed = []
    wall = 0.0
    for seed in SEEDS:
        run = desk_runs[seed]
        tail = [r.eval_cost for r in run["ddpg"].reports
                if not math.isnan(r.eval_cost)]
        assert len(tail) == TAIL
        tails.append(float(np.mean(tail)))
        margin = run["base"]["equal"] - tails[-1]
        offload = _offload_rate(run["ddpg"].global_model, seed)
        per_seed.append(f"s{seed}: {tails[-1]:.4f}, equal margin "
                        f"{margin:+.5f}, offload {offload:.0%}")
        local_c.append(run["base"]["local"])
        equal_c.append(run["base"]["equal"])
        oracle_c.append(run["base"]["oracle"])
        wall += run["ddpg_wall"]
    ddpg = float(np.mean(tails))
    local = float(np.mean(local_c))
    equal = float(np.mean(equal_c))
    oracle = float(np.mean(oracle_c))
    ok_a = ddpg < local
    ok_b = ddpg < equal
    ok_c = ddpg <= 1.2 * oracle
    ok_t = wall <= 900.0
    _verdict(capsys, 5, "trained policy beats baselines and tracks oracle",
             ok_a and ok_b and ok_c and ok_t,
             f"ddpg {ddpg:.4f} vs local {local:.4f} ({'<' if ok_a else '>='}), "
             f"equal {equal:.4f} ({'<' if ok_b else '>='}), "
             f"1.2x oracle {1.2 * oracle:.4f} ({'<=' if ok_c else '>'}); "
             f"{'; '.join(per_seed)}; {wall:.0f}s")


def test_criterion_6_ddpg_vs_dqn_rounds(desk_runs, capsys):
    wins = 0
    details = []
    for seed in SEEDS:
        run = desk_runs[seed]
        threshold = 0.95 * run["base"]["local"]
        r_ddpg = rounds_to_threshold(
            [r.mean_cost for r in run["ddpg"].reports], threshold)
        r_dqn = rounds_to_threshold(
            [r.mean_cost for r in run["dqn"].reports], threshold)
        wins += r_ddpg <= r_dqn
        # diagnostic only: rounds until each learner is within 10% of equal
        near_equal = 1.1 * run["base"]["equal"]
        e_ddpg, e_dqn = (rounds_to_threshold(
            [r.mean_cost for r in run[kind].reports], near_equal)
            for kind in ("ddpg", "dqn"))
        details.append(f"s{seed}: {r_ddpg:.0f} vs {r_dqn:.0f} "
                       f"(to 1.1x equal: {e_ddpg:.0f} vs {e_dqn:.0f})")
    _verdict(capsys, 6, "continuous control converges no slower (2 of 3)",
             wins >= 2, "; ".join(details))


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweeps")
    cfg = ExperimentConfig(env=DESK, ddpg=ACCEPT_DDPG, dqn=ACCEPT_DQN,
                           seeds=list(SEEDS), sweep_rounds=40,
                           eval_episodes=20, save_checkpoints=False,
                           out_dir=str(base / "m"))
    _, m_rows = sweep_mds(cfg, [1, 2, 3])
    cfg_f = ExperimentConfig(env=DESK, seeds=list(SEEDS), sweep_rounds=1,
                             eval_episodes=20, save_checkpoints=False,
                             agent_kinds=["local", "fap-equal"],
                             out_dir=str(base / "f"))
    _, f_rows = sweep_fap_cpu(cfg_f, [2e9, 5e9, 8e9])
    return m_rows, f_rows


def test_criterion_7_monotonicity_sweeps(sweep_rows, capsys):
    m_rows, f_rows = sweep_rows
    cost_col = 2 + 2 * 1                 # mean_cost_mean in aggregate rows

    by_kind = {}
    for row in m_rows:
        by_kind.setdefault(row[1], []).append((row[0], row[cost_col]))
    md_ok = True
    for kind, pairs in by_kind.items():
        costs = [c for _, c in sorted(pairs)]
        md_ok &= all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))

    eq = sorted((r[0], r[cost_col]) for r in f_rows if r[1] == "fap-equal")
    loc = sorted((r[0], r[cost_col]) for r in f_rows if r[1] == "local")
    eq_costs = [c for _, c in eq]
    loc_costs = [c for _, c in loc]
    eq_ok = all(b < a for a, b in zip(eq_costs, eq_costs[1:]))
    loc_ok = (max(loc_costs) - min(loc_costs)) <= 0.01 * np.mean(loc_costs)

    _verdict(capsys, 7, "cost sweeps move in the expected directions",
             md_ok and eq_ok and loc_ok,
             f"cost vs M non-decreasing for {len(by_kind)} kinds; "
             f"offload cost falls with FAP speed; local flat within 1%")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    cfg_text = (
        "scenario: detcheck\n"
        "env:\n  steps_per_episode: 10\n"
        "ddpg:\n  hidden: [16, 8]\n  replay_capacity: 500\n  batch_size: 16\n"
        "dqn:\n  hidden: [16, 8]\n  replay_capacity: 500\n  batch_size: 16\n"
        "run:\n  rounds: 3\n  seeds: [1]\n  eval_episodes: 4\n"
        "  eval_last_rounds: 2\n"
    )
    cfg_path = tmp_path / "det.yaml"
    cfg_path.write_text(cfg_text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out)
    csvs = sorted(p for p in os.listdir(outs[0]) if p.endswith(".csv"))
    identical = bool(csvs)
    for name in csvs:
        with open(outs[0] / name, "rb") as fa, open(outs[1] / name, "rb") as fb:
            identical &= fa.read() == fb.read()
    _verdict(capsys, 8, "repeated CLI runs are byte-identical",
             identical, f"{len(csvs)} CSV files compared")
