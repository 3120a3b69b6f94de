"""Command-line entry points for training, sweeps and evaluation."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .federated import evaluate_global, load_round_checkpoint, make_eval_envs
from .harness import (PRESETS, load_config, run_experiment, sweep_fap_cpu,
                      sweep_mds, write_csv, CSV_COLUMNS)


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
                       out_dir=args.out)


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


def _cmd_eval(args) -> int:
    cfg = _config_from(args)
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
        "eval": ("evaluate a saved global-model checkpoint", _cmd_eval),
    }
    for name, (help_text, _) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "eval":
            p.add_argument("--checkpoint", required=True, metavar="PATH",
                           help="checkpoint written during training")

    args = parser.parse_args(argv)
    try:
        return commands[args.command][1](args)
    except Exception as exc:                       # CLI boundary: report, rc 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
