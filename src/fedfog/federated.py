"""Synchronous federated training across per-FAP agents.

Each round every agent downloads the global weights, trains locally on its
own cell, and uploads its online networks; the coordinator element-wise
averages the uploads and broadcasts the result, and each agent resets its
target networks to the broadcast. Only the online weight vectors are
averaged; replay buffers, optimizer moments and task data never are
(averaging moments across agents has no sound interpretation, and clearing
replay every round would throw away nearly all experience), though in a
forked round each agent's and env's whole state comes back to the parent.

Local training runs concurrently through fork_map, in up to one child
process per usable CPU, forked for each round; processes, unlike threads,
do not queue on the interpreter lock. Every array an agent keeps across
steps (its online and target stores, Adam moments and replay ring) lives in
anonymous shared memory, so the children update the parent's agents in
place. Each child sends back, per agent, its episode metrics and the rest of
the agent's and its env's state (RNG states, counters, exploration level,
replay cursor), so after the round the parent's objects are exactly as
serial training would have left them. Each agent's float operations and
random draws are the same in whichever process it trains, so results do
not depend on the CPU count. They do depend on the BLAS thread count, as
any float order does. Children are forked only where this process runs one
OS thread, since fork() copies only the calling thread; OpenBLAS starts its
threads when numpy loads, so a BLAS left on more than one thread keeps the
training in this process.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import pickle
import signal
import struct
import tempfile
import traceback
from dataclasses import dataclass

import numpy as np

from .ddpg import DdpgAgent, DdpgHyperParams
from .dqn import DqnAgent, DqnHyperParams
from .env import EnvConfig, FogCellEnv, rollout_episode
from .nn import FlatWeights, from_shared_ref, shared_arrays, shared_ref

AGENT_KINDS = ("ddpg", "dqn")

_CKPT_MAGIC = b"FWCK"
_CKPT_VERSION = 2       # 2: online nets only; 1 also stored the target nets


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


def _thread_count() -> int | None:
    """OS threads this process runs, from /proc/self/status, or None where
    that cannot be read."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


# In a child of fork_map: its share of the parent's CPUs, which worker_count
# reads in place of the usable CPUs. Only a child sets it, once, after fork.
_cpu_share: int | None = None


def worker_count(n_jobs: int) -> int:
    """Processes that `n_jobs` independent jobs run on: one per job, up to
    this process's CPUs (its share of them, in a child of fork_map), where
    the process can fork and runs exactly one OS thread (fork() copies only
    the calling thread); otherwise 1, which runs them in this process. The
    one rule for every fork_map."""
    if not hasattr(os, "fork") or _thread_count() != 1:
        return 1
    return min(n_jobs, _cpu_share or _usable_cpus())


class ClientProcessError(RuntimeError):
    """A job's process died or raised what could not be sent back; also the
    cause, holding the child's traceback, of an exception that was."""


def _frame(obj, mapped: dict) -> bytes:
    """`obj` pickled behind its length; arrays in `mapped` go by reference."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = functools.partial(shared_ref, mapped=mapped)
    pickler.dump(obj)
    return struct.pack("<Q", buf.tell()) + buf.getvalue()


def _frames(blob: bytes):
    """The complete frames in `blob`; a frame cut short is dropped."""
    at = 0
    while at + 8 <= len(blob):
        (size,) = struct.unpack_from("<Q", blob, at)
        at += 8
        if at + size > len(blob):
            return
        unpickler = pickle.Unpickler(io.BytesIO(blob[at:at + size]))
        unpickler.persistent_load = from_shared_ref
        yield unpickler.load()
        at += size


def _run_jobs(fn, jobs, mapped: dict, out) -> None:
    """Child side: run `jobs` in order, writing one frame per job to `out`.
    A failing job's frame carries its exception, and no later job runs."""
    for i in jobs:
        try:
            frame = _frame(("ok", i, fn(i)), mapped)
        except Exception as exc:       # noqa: BLE001 - sent to the parent
            text = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
            try:
                sent = pickle.dumps(exc)
                pickle.loads(sent)
            except Exception:          # noqa: BLE001 - reported as text
                sent = None
            out.write(_frame(("error", i, text, sent), mapped))
            return
        out.write(frame)


def _exit_reason(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by {signal.Signals(-code).name}"
    return f"exited with status {code}"


def _sent_error(name: str, i: int, text: str, sent: bytes | None) -> Exception:
    """The exception job `i` raised in a child, caused by a ClientProcessError
    holding the child's traceback `text`; that error alone if not sent."""
    if sent is None:
        return ClientProcessError(f"{name} {i} failed in its training process "
                                  f"with an exception that could not be sent "
                                  f"back:\n{text}")
    exc = pickle.loads(sent)
    exc.__cause__ = ClientProcessError(
        f"{name} {i} failed in its training process:\n{text}")
    return exc


def fork_map(fn, n_jobs: int, name: str = "job") -> list:
    """[fn(0), ..., fn(n_jobs - 1)]. Job i runs in child i % workers, forked
    for the call, where workers = worker_count(n_jobs); with one worker, or
    none, the jobs run in order in this process.

    A child holds this process's CPUs // workers (at least 1), and
    worker_count reads that share inside it, so a nested map forks only
    onto CPUs left free. Results are pickled back, but arrays in shared
    memory mapped before the fork come back as views of the same memory.
    Every child is reaped before the call returns or raises. The first
    failing job, in job order, raises: its exception, caused by a
    ClientProcessError holding the child's traceback, or a
    ClientProcessError naming `name` and the job, where that exception
    could not be sent back or the child died.
    """
    global _cpu_share
    workers = worker_count(n_jobs)
    if workers < 2:
        return [fn(i) for i in range(n_jobs)]
    share = max(1, (_cpu_share or _usable_cpus()) // workers)
    mapped = shared_arrays()
    children = {}       # pid -> (the file it writes its frames to, its jobs)
    results, failures = {}, {}
    try:
        for k in range(workers):
            jobs = range(k, n_jobs, workers)
            # a file, not a pipe: a child whose frames outgrow a pipe buffer
            # must not wait while the parent reaps its earlier siblings
            out = tempfile.TemporaryFile()
            pid = os.fork()
            if pid == 0:
                _cpu_share = share
                try:
                    with out:
                        _run_jobs(fn, jobs, mapped, out)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = (out, jobs)
        for pid in list(children):
            out, jobs = children[pid]
            _, status = os.waitpid(pid, 0)
            del children[pid]
            with out:
                out.seek(0)
                blob = out.read()
            for frame in _frames(blob):
                if frame[0] == "ok":
                    results[frame[1]] = frame[2]
                else:
                    failures[frame[1]] = _sent_error(name, *frame[1:])
            lost = [i for i in jobs if i not in results]
            if lost and lost[0] not in failures:
                failures[lost[0]] = ClientProcessError(
                    f"{name} {lost[0]}'s training process "
                    f"{_exit_reason(status)} before the {name} finished")
    finally:
        for pid, (out, _) in children.items():
            out.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(n_jobs)]


def run_round(agents, envs,
              global_model: GlobalModel) -> tuple[GlobalModel, RoundReport]:
    """One synchronous round: broadcast, local training, collect, average.

    The agents train through fork_map. After a forked round each agent's
    and env's attributes are new objects holding the state its child left
    (arrays in shared memory still view the same memory), so a reference
    to an attribute taken before the round is stale. Metric rows keep agent
    order, and the exception of the first failing agent, in that order,
    aborts the round. A failed round leaves the agents unusable: their
    shared arrays may be half written, and none takes on its child's state.
    """
    for agent in agents:
        agent.load_global(global_model.weights)

    def train(i):
        agents[i].train_episode(envs[i])
        return envs[i].episode_metrics(), vars(agents[i]), vars(envs[i])

    results = fork_map(train, len(agents), "agent")
    for agent, env, (_, agent_state, env_state) in zip(agents, envs, results):
        vars(agent).update(agent_state)
        vars(env).update(env_state)
    reward, cost, delay, energy = _column_means([row for row, *_ in results])
    averaged = federated_average([agent.export_weights() for agent in agents])
    new_model = GlobalModel(averaged, global_model.round_index + 1,
                            global_model.agent_kind)
    return new_model, RoundReport(
        new_model.round_index, reward / envs[0].config.steps_per_episode,
        cost, delay, energy)


def run_training(env_cfg: EnvConfig, agent_kind: str, seed: int, rounds: int,
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
    checkpoint_every > 0 additionally snapshots every k-th round, each once.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    agents, envs, eval_envs, model = setup_federation(
        env_cfg, agent_kind, seed, ddpg_hp, dqn_hp)
    reports = []
    for j in range(rounds):
        model, report = run_round(agents, envs, model)
        if eval_last_rounds and j >= rounds - eval_last_rounds:
            report.eval_cost = evaluate_global(
                model, env_cfg, eval_envs, 1, ddpg_hp, dqn_hp)[1]
        reports.append(report)
        if checkpoint_dir is not None and (
                j + 1 == rounds
                or checkpoint_every > 0 and (j + 1) % checkpoint_every == 0):
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
    """Write `model` as magic, version, a JSON header (the weight layout, and
    meta: round, agent kind, layout hash) and the little-endian f64 values."""
    flat = model.weights
    header = json.dumps({
        "shapes": [list(s) for s in flat.shapes],
        "offsets": flat.offsets,
        "activations": flat.activations,
        "meta": {"round": model.round_index, "agent_kind": model.agent_kind,
                 "layout_hash": flat.layout_hash()},
    }, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<Q", flat.values.size))
        fh.write(flat.values.astype("<f8").tobytes())


def load_round_checkpoint(path) -> GlobalModel:
    """Read and check a save_round_checkpoint file. One that is not such a
    file, has another version, is truncated or malformed, lacks a meta key,
    holds a layout unlike its hash or a value count unlike its layout's size
    raises ValueError naming `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path} is not a weight checkpoint")
    try:
        version, hlen = struct.unpack_from("<II", blob, 4)
        if version == _CKPT_VERSION:
            header = json.loads(blob[12:12 + hlen])
            (count,) = struct.unpack_from("<Q", blob, 12 + hlen)
            flat = FlatWeights(
                np.frombuffer(blob, "<f8", count, 20 + hlen).astype(float),
                [tuple(s) for s in header["shapes"]],
                list(header["offsets"]), list(header["activations"]))
            meta = header.get("meta", {})
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is truncated or malformed: "
                         f"{type(exc).__name__}: {exc}") from None
    if version != _CKPT_VERSION:
        raise ValueError(f"{path} has checkpoint version {version}; this "
                         f"build reads version {_CKPT_VERSION} only")
    for key in ("round", "agent_kind", "layout_hash"):
        if key not in meta:
            raise ValueError(f"{path} lacks checkpoint meta key {key!r}")
    if meta["layout_hash"] != flat.layout_hash():
        raise ValueError(f"{path} does not match its checkpoint layout hash")
    size = sum(math.prod(shape) for shape in flat.shapes)
    if flat.values.size != size:
        raise ValueError(f"{path} holds {flat.values.size} values for a "
                         f"layout of {size}")
    return GlobalModel(flat, int(meta["round"]), str(meta["agent_kind"]))
