"""Synchronous federated training across per-FAP agents.

Each round every agent downloads the global weights, trains locally on its
own cell, and uploads its online networks; the coordinator element-wise
averages the uploads and broadcasts the result, and each agent resets its
target networks to the broadcast. Only flat weight vectors ever cross the
agent boundary: transitions, states, and task data stay local, and so do the
optimizer moments and replay buffers (averaging moments across agents has no
sound interpretation, and clearing replay every round would throw away nearly
all experience).

Local training runs concurrently, on a pool of up to one thread per usable
CPU made for each round; the agents share no mutable state, and numpy
releases the interpreter lock inside the matrix products that dominate a
step. Each agent's float operations and random draws are the same whichever
thread runs them, so results do not depend on the CPU count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ddpg import DdpgAgent, DdpgHyperParams
from .dqn import DqnAgent, DqnHyperParams
from .env import EnvConfig, FogCellEnv, rollout_episode
from .nn import FlatWeights, load_checkpoint, save_checkpoint

AGENT_KINDS = ("ddpg", "dqn")


@dataclass
class GlobalModel:
    weights: FlatWeights
    round_index: int
    agent_kind: str


@dataclass
class RoundReport:
    round_index: int
    mean_reward: float                  # mean per-step system reward
    mean_cost: float
    mean_delay: float
    mean_energy: float
    eval_cost: float = float("nan")     # frozen-policy cost, when evaluated


@dataclass
class TrainingResult:
    reports: list[RoundReport]
    global_model: GlobalModel


def federated_average(uploads: list[FlatWeights]) -> FlatWeights:
    """Element-wise arithmetic mean of identically laid out weight vectors."""
    if not uploads:
        raise ValueError("cannot average zero uploads")
    layout = uploads[0].layout()
    for flat in uploads[1:]:
        if flat.layout() != layout or flat.values.size != uploads[0].values.size:
            raise ValueError("upload layouts differ; agents are incompatible")
    first = uploads[0]
    # baseline-shifted mean: exact (bit-identical) when all uploads agree,
    # which a naive sum/N is not for N != 2^k
    base = first.values
    deltas = np.stack([f.values - base for f in uploads])
    mean = base + np.mean(deltas, axis=0)
    return FlatWeights(mean, list(first.shapes), list(first.offsets),
                       list(first.activations))


def _column_means(rows) -> list[float]:
    """Mean of each column of the per-episode metric `rows`."""
    return [float(np.mean(col)) for col in zip(*rows)]


def _spawn_seeds(master_seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(master_seed).spawn(n)


def build_agent(kind: str, env_cfg: EnvConfig, seed,
                ddpg_hp: DdpgHyperParams | None = None,
                dqn_hp: DqnHyperParams | None = None):
    if kind == "ddpg":
        return DdpgAgent(env_cfg.mds_per_fap, hp=ddpg_hp, seed=seed)
    if kind == "dqn":
        return DqnAgent(env_cfg.state_dim, env_cfg.mds_per_fap,
                        hp=dqn_hp, seed=seed)
    raise ValueError(f"unknown agent kind {kind!r}; expected one of {AGENT_KINDS}")


def make_eval_envs(env_cfg: EnvConfig, seed: int) -> list[FogCellEnv]:
    """Held-out evaluation envs, one per FAP, from the last N children of
    the spawn layout of setup_federation, so every policy evaluated under a
    given master seed sees the same episode draws."""
    n = env_cfg.num_faps
    seeds = _spawn_seeds(seed, 3 * n + 1)
    return [FogCellEnv(env_cfg, seed=seeds[1 + 2 * n + i]) for i in range(n)]


def setup_federation(env_cfg: EnvConfig, agent_kind: str, seed: int,
                     ddpg_hp: DdpgHyperParams | None = None,
                     dqn_hp: DqnHyperParams | None = None):
    """Create one env + agent per FAP, the eval envs, and the shared initial
    global model.

    All randomness derives from `seed`; the agents start from identical
    weights (the dedicated init stream), as the protocol requires.
    """
    n = env_cfg.num_faps
    seeds = _spawn_seeds(seed, 3 * n + 1)
    init_agent = build_agent(agent_kind, env_cfg, seeds[0], ddpg_hp, dqn_hp)
    global_model = GlobalModel(init_agent.export_weights(), 0, agent_kind)
    envs = [FogCellEnv(env_cfg, seed=seeds[1 + i]) for i in range(n)]
    agents = [build_agent(agent_kind, env_cfg, seeds[1 + n + i], ddpg_hp, dqn_hp)
              for i in range(n)]
    return agents, envs, make_eval_envs(env_cfg, seed), global_model


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_round(agents, envs, global_model: GlobalModel,
              episodes_per_round: int = 1) -> tuple[GlobalModel, RoundReport]:
    """One synchronous round: broadcast, local training, collect, average.

    The agents train side by side on min(agents, usable CPUs) threads of a
    pool that ends with the call. Metric rows keep agent order, and the
    exception of the first failing agent, in that order, aborts the round.
    """
    for agent in agents:
        agent.load_global(global_model.weights)

    def train_locally(agent, env) -> list[tuple]:
        rows = []
        for _ in range(episodes_per_round):
            agent.train_episode(env)
            rows.append(env.episode_metrics())
        return rows

    with ThreadPoolExecutor(min(len(agents), _usable_cpus())) as pool:
        rows = [row for local in pool.map(train_locally, agents, envs)
                for row in local]
    reward, cost, delay, energy = _column_means(rows)
    averaged = federated_average([agent.export_weights() for agent in agents])
    new_model = GlobalModel(averaged, global_model.round_index + 1,
                            global_model.agent_kind)
    return new_model, RoundReport(
        new_model.round_index, reward / envs[0].config.steps_per_episode,
        cost, delay, energy)


def run_training(env_cfg: EnvConfig, agent_kind: str, seed: int, rounds: int,
                 episodes_per_round: int = 1,
                 ddpg_hp: DdpgHyperParams | None = None,
                 dqn_hp: DqnHyperParams | None = None,
                 eval_last_rounds: int = 0,
                 checkpoint_dir=None,
                 checkpoint_every: int = 0) -> TrainingResult:
    """Full federated run: `rounds` rounds of run_round from a fresh setup.

    During the final `eval_last_rounds` rounds the freshly averaged global
    policy is also evaluated greedily on held-out episodes and recorded as
    eval_cost.
    With a checkpoint_dir the final global model is always written; setting
    checkpoint_every > 0 additionally snapshots every k-th round.
    """
    if episodes_per_round < 1:
        raise ValueError("episodes_per_round must be >= 1")
    agents, envs, eval_envs, model = setup_federation(
        env_cfg, agent_kind, seed, ddpg_hp, dqn_hp)
    greedy = build_agent(agent_kind, env_cfg, 0, ddpg_hp, dqn_hp)
    reports = []
    for j in range(rounds):
        model, report = run_round(agents, envs, model, episodes_per_round)
        if eval_last_rounds and j >= rounds - eval_last_rounds:
            greedy.load_global(model.weights)
            report.eval_cost = evaluate_policy(greedy.policy(), eval_envs)[1]
        reports.append(report)
        if checkpoint_dir is not None and checkpoint_every > 0 \
                and (j + 1) % checkpoint_every == 0:
            _write_checkpoint(checkpoint_dir, model)
    if checkpoint_dir is not None:
        _write_checkpoint(checkpoint_dir, model)
    return TrainingResult(reports, model)


def _write_checkpoint(checkpoint_dir, model: GlobalModel) -> None:
    os.makedirs(checkpoint_dir, exist_ok=True)
    name = f"{model.agent_kind}-round{model.round_index:05d}.ckpt"
    save_round_checkpoint(os.path.join(checkpoint_dir, name), model)


def evaluate_policy(policy, eval_envs, episodes: int = 1):
    """Frozen-policy metrics over held-out episodes on every eval env.

    Returns (mean per-step reward, mean cost, mean delay, mean energy),
    each averaged per-slot and then across episodes.
    """
    rows = []
    for env in eval_envs:
        steps = env.config.steps_per_episode
        for _ in range(episodes):
            total, cost, delay, energy = rollout_episode(env, policy)
            rows.append((total / steps, cost, delay, energy))
    return tuple(_column_means(rows))


def evaluate_global(model: GlobalModel, env_cfg: EnvConfig, eval_envs,
                    episodes: int, ddpg_hp: DdpgHyperParams | None,
                    dqn_hp: DqnHyperParams | None):
    """evaluate_policy for the greedy policy of a global model."""
    agent = build_agent(model.agent_kind, env_cfg, 0, ddpg_hp, dqn_hp)
    agent.load_global(model.weights)
    return evaluate_policy(agent.policy(), eval_envs, episodes)


def save_round_checkpoint(path, model: GlobalModel) -> None:
    """Persist a global model with its round header."""
    save_checkpoint(path, model.weights, meta={
        "round": model.round_index,
        "agent_kind": model.agent_kind,
        "layout_hash": model.weights.layout_hash(),
    })


def load_round_checkpoint(path) -> GlobalModel:
    flat, meta = load_checkpoint(path)
    for key in ("round", "agent_kind", "layout_hash"):
        if key not in meta:
            raise ValueError(f"{path} lacks checkpoint meta key {key!r}")
    if meta["layout_hash"] != flat.layout_hash():
        raise ValueError("checkpoint layout hash mismatch")
    return GlobalModel(flat, int(meta["round"]), str(meta["agent_kind"]))
