"""Experiment harness: config files, run grids, CSV metrics.

Five agent kinds share one evaluation protocol so their numbers are directly
comparable: fed-ddpg and fed-dqn train federated and are then frozen
(explore off) for evaluation episodes; local, fap-equal, and oracle need no
training and are evaluated directly. For a given master seed every kind sees
the same held-out evaluation episodes.

All CSV numbers are rounded to 12 significant digits before they are written
or aggregated, so aggregate files are exactly recomputable from the per-run
files and repeated invocations are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from .baselines import (ORACLE_MAX_MDS, equal_policy, local_policy,
                        oracle_policy)
from .ddpg import DdpgHyperParams
from .dqn import DqnHyperParams
from .env import EnvConfig
from .federated import (evaluate_global, evaluate_policy, fork_map,
                        make_eval_envs, run_training)

# trained kind -> learner; fixed kind -> its policy, evaluated as is
TRAINED_KINDS = {"fed-ddpg": "ddpg", "fed-dqn": "dqn"}
FIXED_POLICIES = {
    "local": lambda env, state: local_policy(state),
    "fap-equal": lambda env, state: equal_policy(state),
    "oracle": oracle_policy,
}
ALL_KINDS = (*TRAINED_KINDS, *FIXED_POLICIES)

CSV_COLUMNS = ("run_id", "seed", "round", "mean_reward", "mean_cost",
               "mean_delay", "mean_energy")

_AGG_METRICS = ("mean_reward", "mean_cost", "mean_delay", "mean_energy")
# mean and population std over seeds of each metric, in _AGG_METRICS order
_STAT_COLUMNS = tuple(f"{metric}_{stat}" for metric in _AGG_METRICS
                      for stat in ("mean", "std"))


def _refuse_empty_or_repeated(section, *names) -> None:
    """Each named list field of a config section is non-empty and distinct."""
    for name in names:
        values = getattr(section, name)
        if not values:
            raise ValueError(f"{name} must be a non-empty list, got {values!r}")
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat, got {values!r}")


@dataclass
class RunConfig:
    """The `run` section: training budget, seeds, kinds and outputs."""
    rounds: int = 200
    seeds: list = field(default_factory=lambda: [1, 2, 3])
    agent_kinds: list = field(default_factory=lambda: list(ALL_KINDS))
    eval_episodes: int = 20         # held-out episodes for the final eval
    eval_last_rounds: int = 20      # per-round eval tail during training
    sweep_rounds: int = 40          # training budget per sweep grid point
    save_checkpoints: bool = True
    checkpoint_every: int = 0       # extra per-round snapshots; 0 = final only

    def __post_init__(self):
        if not all(isinstance(s, int) and s >= 0 for s in self.seeds):
            raise ValueError(f"seeds must be a non-empty list of integers "
                             f">= 0, got {self.seeds!r}")
        if not set(self.agent_kinds) <= set(ALL_KINDS):
            raise ValueError(f"agent_kinds must be a non-empty list of kinds "
                             f"from {ALL_KINDS}, got {self.agent_kinds!r}")
        _refuse_empty_or_repeated(self, "seeds", "agent_kinds")
        for name in ("rounds", "eval_episodes", "sweep_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("eval_last_rounds", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class SweepConfig:
    """The `sweeps` section: the grids of sweep-mds and sweep-cpu."""
    mds: list = field(default_factory=lambda: [1, 2, 3])
    fap_cpu: list = field(default_factory=lambda: [2e9, 5e9, 8e9])

    def __post_init__(self):
        _refuse_empty_or_repeated(self, "mds", "fap_cpu")
        if any(m < 1 for m in self.mds):
            raise ValueError("mds entries must be >= 1")
        if any(f <= 0 for f in self.fap_cpu):
            raise ValueError("fap_cpu entries must be > 0")


@dataclass
class ExperimentConfig:
    """A label, an output directory and one dataclass per YAML section;
    each section checks itself when it is built."""
    scenario: str = "desk"
    out_dir: str = "results"
    env: EnvConfig = field(default_factory=EnvConfig)
    ddpg: DdpgHyperParams = field(default_factory=DdpgHyperParams)
    dqn: DqnHyperParams = field(default_factory=DqnHyperParams)
    run: RunConfig = field(default_factory=RunConfig)
    sweeps: SweepConfig = field(default_factory=SweepConfig)

    def final_eval_episodes(self) -> int:
        """Held-out episodes per eval cell in a final evaluation: the
        eval_episodes budget spread over the FAPs."""
        return max(1, self.run.eval_episodes // self.env.num_faps)


SECTIONS = {"env": EnvConfig, "ddpg": DdpgHyperParams, "dqn": DqnHyperParams,
            "run": RunConfig, "sweeps": SweepConfig}

# Full-size scenario: more cells, more devices, longer runs. Sweep grids
# bracket the defaults the same way the desk grids do.
PRESETS = {
    "paper-scale": {
        "scenario": "paper-scale",
        "env": {"num_faps": 4, "mds_per_fap": 5},
        "run": {"rounds": 500, "sweep_rounds": 100},
        "sweeps": {"mds": [3, 4, 5, 6, 7],
                   "fap_cpu": [4e9, 4.5e9, 5e9, 5.5e9, 6e9]},
    },
}

_KINDS = {bool: "true/false", int: "an integer", float: "a finite number",
          str: "a string", list: "a list", tuple: "a list"}


def _coerce(default, value, where: str):
    """Bring a YAML value to the kind of the field's default, or refuse it
    naming the field. An int field also takes an integral float and a float
    field a numeric string, but no nan or infinity; each entry of a list or
    tuple field goes through the same rule against the default's first."""
    kind = type(default)
    if kind in (list, tuple) and isinstance(value, (list, tuple)):
        return kind(_coerce(default[0], v, f"{where}[{i}]")
                    for i, v in enumerate(value))
    if isinstance(value, bool) == (kind is bool):
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is float and isinstance(value, (int, float, str)):
            with contextlib.suppress(ValueError, OverflowError):  # not a number
                if math.isfinite(number := float(value)):
                    return number
        elif isinstance(value, kind):
            return value
    raise ValueError(f"{where} must be {_KINDS[kind]}, got {value!r}")


def _build_section(cls, data, section: str):
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ValueError(f"config section {section!r} must be a mapping")
    known = {f.name for f in fields(cls)}
    defaults = cls()
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ValueError(f"unknown config field {section}.{key}")
        kwargs[key] = _coerce(getattr(defaults, key), value, f"{section}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:   # its text starts with the field's name
        raise ValueError(f"{section}.{exc}") from exc


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build each section present in `data` through its SECTIONS class."""
    kwargs = {}
    for key, value in data.items():
        if key in SECTIONS:
            kwargs[key] = _build_section(SECTIONS[key], value, key)
        elif key in ("scenario", "out_dir"):
            kwargs[key] = _coerce(getattr(ExperimentConfig, key), value, key)
        else:
            raise ValueError(f"unknown config field {key}")
    return ExperimentConfig(**kwargs)


def load_config(path=None, preset=None, seed=None,
                out_dir=None) -> ExperimentConfig:
    """Defaults, then preset, then config file, then CLI overrides."""
    data: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"valid: {sorted(PRESETS)}")
        data = _deep_merge(data, PRESETS[preset])
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh)
        loaded = {} if loaded is None else loaded
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a mapping")
        data = _deep_merge(data, loaded)
    cfg = config_from_dict(data)
    if seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seeds=[int(seed)]))
    if out_dir is not None:
        cfg = replace(cfg, out_dir=str(out_dir))
    return cfg


def _round12(x: float) -> float:
    return float(format(float(x), ".12g"))


def _seed_stats(rows) -> list[float]:
    """Mean and population std over seeds of each column of the per-seed
    metric `rows`, each rounded to 12 digits, in _STAT_COLUMNS order."""
    stats = []
    for col in zip(*rows):
        vals = np.array(col)
        stats += [_round12(vals.mean()), _round12(vals.std())]
    return stats


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def write_csv(path, header, rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def run_id_for(cfg: ExperimentConfig, kind: str, seed: int) -> str:
    return f"{cfg.scenario}-{kind}-s{seed}"


@dataclass
class RunOutput:
    kind: str
    seed: int
    rows: list                 # (round, reward, cost, delay, energy)
    final_eval: tuple          # frozen-policy metrics on held-out episodes
    tail_eval_cost: float      # mean eval cost over the final eval rounds


def _run_cell(cfg: ExperimentConfig, kind: str, seed: int) -> RunOutput:
    """Train (if the kind learns) and evaluate one (kind, seed) cell."""
    run = cfg.run
    if kind in TRAINED_KINDS:
        ckpt_dir = None
        if run.save_checkpoints and cfg.out_dir:
            ckpt_dir = os.path.join(cfg.out_dir, "checkpoints",
                                    run_id_for(cfg, kind, seed))
        result = run_training(
            cfg.env, TRAINED_KINDS[kind], seed, run.rounds,
            ddpg_hp=cfg.ddpg, dqn_hp=cfg.dqn,
            eval_last_rounds=run.eval_last_rounds,
            checkpoint_dir=ckpt_dir, checkpoint_every=run.checkpoint_every)
        rows = [(r.round_index, _round12(r.mean_reward), _round12(r.mean_cost),
                 _round12(r.mean_delay), _round12(r.mean_energy))
                for r in result.reports]
        final_eval = evaluate_global(result.global_model, cfg.env,
                                     make_eval_envs(cfg.env, seed),
                                     cfg.final_eval_episodes(),
                                     cfg.ddpg, cfg.dqn)
        tail = [r.eval_cost for r in result.reports
                if not math.isnan(r.eval_cost)]
        tail_cost = float(np.mean(tail)) if tail else float("nan")
    else:
        metrics = evaluate_policy(FIXED_POLICIES[kind],
                                  make_eval_envs(cfg.env, seed),
                                  cfg.final_eval_episodes())
        # no training: the "curve" is the constant evaluated level
        rows = [(j + 1, *(_round12(v) for v in metrics))
                for j in range(run.rounds)]
        final_eval = metrics
        tail_cost = metrics[1]
    final_eval = tuple(_round12(v) for v in final_eval)
    return RunOutput(kind, seed, rows, final_eval, _round12(tail_cost))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: dict                  # (kind, seed) -> RunOutput
    files: list
    aggregate: list             # rows of aggregate.csv
    eval_aggregate: list        # rows of eval-aggregate.csv


def _check_oracle_fits(cfg: ExperimentConfig, mds, where: str) -> None:
    """Refuse an oracle cell with more MDs than the oracle can enumerate."""
    m = max(mds, default=0)
    if "oracle" in cfg.run.agent_kinds and m > ORACLE_MAX_MDS:
        raise ValueError(f"{where} {m} exceeds ORACLE_MAX_MDS={ORACLE_MAX_MDS};"
                         f" drop 'oracle' from run.agent_kinds")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute every (agent kind, seed) cell and persist the metric CSVs.

    The cells run through fork_map, side by side in child processes or
    one after another in this process; each cell's numbers are the same
    either way. Writes one curve CSV per run, an aggregate curve CSV (mean
    and population std over seeds, recomputable from the per-run files), a
    per-run eval CSV, and its aggregate. Failures in any cell propagate; an
    oracle cell the oracle cannot enumerate is refused before any cell runs.
    """
    run = cfg.run
    _check_oracle_fits(cfg, [cfg.env.mds_per_fap], "env.mds_per_fap")
    cells = [(kind, seed) for kind in run.agent_kinds for seed in run.seeds]
    outputs = fork_map(lambda i: _run_cell(cfg, *cells[i]), len(cells),
                       "cell")
    runs = {(o.kind, o.seed): o for o in outputs}

    files = []
    os.makedirs(cfg.out_dir, exist_ok=True)
    for out in outputs:
        rid = run_id_for(cfg, out.kind, out.seed)
        path = os.path.join(cfg.out_dir, f"{rid}.csv")
        write_csv(path, CSV_COLUMNS,
                  [(rid, out.seed, *row) for row in out.rows])
        files.append(path)

    agg_rows = []
    for kind in run.agent_kinds:
        per_seed = [runs[(kind, s)].rows for s in run.seeds]
        for j in range(run.rounds):
            agg_rows.append((kind, per_seed[0][j][0], *_seed_stats(
                [rows[j][1:] for rows in per_seed])))
    agg_path = os.path.join(cfg.out_dir, "aggregate.csv")
    write_csv(agg_path, ["kind", "round", *_STAT_COLUMNS], agg_rows)
    files.append(agg_path)

    eval_rows = [(run_id_for(cfg, k, s), s, run.rounds, *runs[(k, s)].final_eval)
                 for k, s in cells]
    eval_path = os.path.join(cfg.out_dir, "eval.csv")
    write_csv(eval_path, CSV_COLUMNS, eval_rows)
    files.append(eval_path)

    eval_agg_rows = [(kind, *_seed_stats([runs[(kind, s)].final_eval
                                          for s in run.seeds]))
                     for kind in run.agent_kinds]
    eval_agg_path = os.path.join(cfg.out_dir, "eval-aggregate.csv")
    write_csv(eval_agg_path, ["kind", *_STAT_COLUMNS], eval_agg_rows)
    files.append(eval_agg_path)

    return ExperimentResult(cfg, runs, files, agg_rows, eval_agg_rows)


def _sweep(cfg: ExperimentConfig, values, label: str, apply_value):
    """Shared sweep loop: one run_experiment per grid value, each trained
    for run.sweep_rounds rounds, whose eval-aggregate rows become the
    sweep's rows."""
    run = replace(cfg.run, rounds=cfg.run.sweep_rounds, eval_last_rounds=0,
                  save_checkpoints=False)
    per_run_rows = []
    agg_rows = []
    for value in values:
        sub = replace(cfg, env=apply_value(cfg.env, value), run=run,
                      out_dir=os.path.join(cfg.out_dir, f"{label}-{_fmt(value)}"))
        result = run_experiment(sub)
        per_run_rows += [(value, kind, s, *result.runs[(kind, s)].final_eval)
                         for kind in run.agent_kinds for s in run.seeds]
        agg_rows += [(value, *row) for row in result.eval_aggregate]
    runs_path = os.path.join(cfg.out_dir, f"sweep-{label}-runs.csv")
    agg_path = os.path.join(cfg.out_dir, f"sweep-{label}.csv")
    write_csv(runs_path, [label, "kind", "seed", *_AGG_METRICS], per_run_rows)
    write_csv(agg_path, [label, "kind", *_STAT_COLUMNS], agg_rows)
    return agg_path, agg_rows


def sweep_mds(cfg: ExperimentConfig):
    """Evaluated cost of every kind as the number of MDs per cell grows."""
    _check_oracle_fits(cfg, cfg.sweeps.mds, "sweeps.mds entry")
    return _sweep(cfg, cfg.sweeps.mds, "num_mds",
                  lambda env, m: replace(env, mds_per_fap=int(m)))


def sweep_fap_cpu(cfg: ExperimentConfig):
    """Evaluated cost of every kind as the FAP CPU frequency grows."""
    return _sweep(cfg, cfg.sweeps.fap_cpu, "fap_cpu",
                  lambda env, f: replace(env, fap_cpu=float(f)))


def rounds_to_threshold(costs, threshold: float) -> float:
    """1-based index of the first round at or below `threshold`, else inf."""
    for j, c in enumerate(costs, start=1):
        if c <= threshold:
            return float(j)
    return math.inf
