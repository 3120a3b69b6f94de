"""Command-line entry points for training, sweeps, evaluation, self-checks."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import baselines, env as envmod
from .env import ActionVector, EnvConfig, FogCellEnv, sanitize_action, slot_cost
from .federated import (evaluate_global, federated_average, load_round_checkpoint,
                        make_eval_envs)
from .harness import (PRESETS, convergence_run, load_config, run_experiment,
                      sweep_fap_cpu, sweep_mds, write_csv, CSV_COLUMNS)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="YAML experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="replace the config's seed list with this seed")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory for CSVs and checkpoints")
    parser.add_argument("--preset", default=None, choices=sorted(PRESETS),
                        help="named scenario applied before the config file")


def _config_from(args) -> "ExperimentConfig":
    return load_config(path=args.config, preset=args.preset, seed=args.seed,
                       out_dir=args.out, workers=args.workers)


def _print_eval_summary(result) -> None:
    """Per kind: the final eval cost over seeds, and the mean eval cost of
    the last run.eval_last_rounds rounds (nan when none were evaluated)."""
    for kind in result.config.agent_kinds:
        runs = [result.runs[(kind, s)] for s in result.config.seeds]
        costs = [run.final_eval[1] for run in runs]
        tail = np.mean([run.tail_eval_cost for run in runs])
        print(f"{kind}: eval cost {np.mean(costs):.6g} "
              f"(std {np.std(costs):.3g}), tail eval cost {tail:.6g}")


def _cmd_train(args) -> int:
    cfg = _config_from(args)
    result = run_experiment(cfg)
    _print_eval_summary(result)
    print(f"wrote {len(result.files)} files under {cfg.out_dir}")
    return 0


def _cmd_sweep(sweep, args) -> int:
    path, _ = sweep(_config_from(args))
    print(f"wrote {path}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _config_from(args)
    path, result = convergence_run(cfg)
    _print_eval_summary(result)
    print(f"wrote {path}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(args.config, args.preset, args.seed, args.out)
    model = load_round_checkpoint(args.checkpoint)
    seed = cfg.seeds[0]
    metrics = evaluate_global(model, cfg.env, make_eval_envs(cfg.env, seed),
                              cfg.final_eval_episodes(), cfg.ddpg, cfg.dqn)
    print(f"checkpoint {args.checkpoint} ({model.agent_kind}, "
          f"round {model.round_index})")
    print(f"mean reward {metrics[0]:.6g}  cost {metrics[1]:.6g}  "
          f"delay {metrics[2]:.6g} s  energy {metrics[3]:.6g} J")
    if args.out is not None:
        path = os.path.join(args.out, "eval.csv")
        rid = f"eval-{model.agent_kind}-round{model.round_index}"
        write_csv(path, CSV_COLUMNS, [(rid, seed, model.round_index, *metrics)])
        print(f"wrote {path}")
    return 0


def _random_simplex(rng, m: int) -> np.ndarray:
    cuts = np.sort(rng.uniform(0.0, 1.0, size=m - 1))
    return np.diff(np.concatenate([[0.0], cuts, [1.0]]))


def _cmd_oracle_check(args) -> int:
    """Quick self-consistency checks of the slot model and both solvers."""
    rng = np.random.default_rng(args.seed)
    trials = args.trials
    failures = checks = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures, checks
        checks += 1
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}")

    # closed-form split is never beaten by random simplex points
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 10.0, size=m)
        alloc = baselines.closed_form_allocation(w)
        best = float(np.sum(w / alloc))
        for _ in range(50):
            other = np.maximum(_random_simplex(rng, m), 1e-9)
            other = other / other.sum()
            worst = max(worst, best - float(np.sum(w / other)))
    report("closed-form allocation optimality", worst <= 1e-9,
           f"beaten by {worst:.3e}")

    # per-slot oracle is never beaten by random feasible actions
    cfg = EnvConfig(num_faps=1, mds_per_fap=3)
    env = FogCellEnv(cfg, seed=args.seed)
    gap = 0.0
    for t in range(trials):
        state = env.reset(seed=1000 + t)
        action, best = baselines.oracle_slot_optimum(state, env.fap, cfg)
        check = slot_cost(state, action, env.fap, cfg).cost
        gap = max(gap, abs(check - best))
        for _ in range(50):
            raw = rng.uniform(0.0, 1.0, size=cfg.action_dim)
            cand = sanitize_action(raw)
            gap = max(gap, best - slot_cost(state, cand, env.fap, cfg).cost)
    report("per-slot oracle dominance", gap <= 1e-9, f"gap {gap:.3e}")

    # sanitizer output is feasible and a fixed point
    bad = 0
    for _ in range(trials * 10):
        m = int(rng.integers(1, 6))
        raw = rng.uniform(0.0, 1.0, size=3 * m)
        act = sanitize_action(raw)
        try:
            act.validate()
        except envmod.ActionConstraintError:
            bad += 1
            continue
        again = sanitize_action(act.to_raw())
        if not (np.array_equal(act.offload, again.offload)
                and np.allclose(act.compute_share, again.compute_share,
                                atol=1e-12)
                and np.allclose(act.bandwidth_share, again.bandwidth_share,
                                atol=1e-12)):
            bad += 1
    report("action sanitizer feasibility and idempotence", bad == 0,
           f"{bad} bad projections")

    # consensus averaging returns the input vector bit-exactly
    from .ddpg import DdpgAgent
    agent = DdpgAgent(1, seed=args.seed)
    flat = agent.export_weights()
    avg = federated_average([flat, flat, flat])
    report("federated averaging consensus", np.array_equal(avg.values,
                                                           flat.values))

    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{checks - failures}/{checks} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedfog",
        description="Federated DRL for task offloading in a fog network: "
                    "train agents, run sweeps, evaluate checkpoints.")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "train": ("train federated agents and evaluate all policies",
                  _cmd_train),
        "sweep-mds": ("cost of every policy vs number of MDs per cell",
                      lambda args: _cmd_sweep(sweep_mds, args)),
        "sweep-cpu": ("cost of every policy vs FAP CPU frequency",
                      lambda args: _cmd_sweep(sweep_fap_cpu, args)),
        "convergence": ("per-round reward curves for every policy",
                        _cmd_convergence),
        "eval": ("evaluate a saved global-model checkpoint", _cmd_eval),
        "oracle-check": ("self-consistency checks of model and solvers",
                         _cmd_oracle_check),
    }
    for name, (help_text, _) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name == "oracle-check":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=20)
            continue
        _add_common(p)
        if name == "eval":
            p.add_argument("--checkpoint", required=True, metavar="PATH",
                           help="checkpoint written during training")
        else:
            p.add_argument("--workers", type=int, default=None,
                           help="parallel (kind, seed) cells")

    args = parser.parse_args(argv)
    try:
        return commands[args.command][1](args)
    except Exception as exc:                       # CLI boundary: report, rc 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
