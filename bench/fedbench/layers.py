"""The package's layers as the benchmark traces them, and their metrics.

A layer is a module of the package. Its public calls are traced where their
callers look them up:
`nn.forward` is traced as `fedfog.ddpg.forward` and `fedfog.dqn.forward`,
`sanitize_action` in each of its three calling modules, and agent methods on
their classes. `harness` and `cli` only parse configs and write CSVs around
these calls and are not traced.
"""

from __future__ import annotations

import statistics

import numpy as np

from fedfog import baselines, ddpg, dqn, env, federated
from fedfog.ddpg import DdpgAgent
from fedfog.dqn import DqnAgent
from fedfog.env import EPS_ALLOC, FogCellEnv
from fedfog.replay import ReplayBuffer

from .tracing import SpanTable

ROUND = "round"     # root span of one timed federated round


def _batch(args, out) -> int:
    x = np.asarray(args[1])
    return x.shape[0] if x.ndim == 2 else 1


def _values(args, out) -> int:
    return out.values.size


def _rescaled(args, out) -> int:
    """1 when sanitize_action had to rescale a share group to fit its budget."""
    raw = np.asarray(args[0], dtype=float)
    m = raw.size // 3
    mask = out.offload == 1
    floored = [np.where(mask, np.maximum(raw[k * m:(k + 1) * m], EPS_ALLOC), 0.0)
               for k in (1, 2)]
    return int(not (np.array_equal(floored[0], out.compute_share)
                    and np.array_equal(floored[1], out.bandwidth_share)))


PATCHES = [
    (ddpg, "forward", "nn.forward", _batch),
    (dqn, "forward", "nn.forward", _batch),
    (ddpg, "backward", "nn.backward", None),
    (dqn, "backward", "nn.backward", None),
    (ddpg, "adam_step", "nn.adam", None),
    (dqn, "adam_step", "nn.adam", None),
    (ReplayBuffer, "add", "replay.add", None),
    (ReplayBuffer, "sample", "replay.sample", None),
    (FogCellEnv, "step", "env.step", None),
    (FogCellEnv, "reset", "env.reset", None),
    (FogCellEnv, "flatten_state", "env.flatten", None),
    (env, "slot_cost", "env.slot_cost", None),
    (env, "rollout_episode", "env.rollout_episode", None),
    (ddpg, "sanitize_action", "env.sanitize", _rescaled),
    (dqn, "sanitize_action", "env.sanitize", _rescaled),
    (baselines, "sanitize_action", "env.sanitize", _rescaled),
    (DdpgAgent, "select_action", "ddpg.select_action", None),
    (DdpgAgent, "critic_update", "ddpg.critic_update", None),
    (DdpgAgent, "actor_update", "ddpg.actor_update", None),
    (DdpgAgent, "soft_update", "ddpg.soft_update", None),
    (DqnAgent, "select", "dqn.select", None),
    (DqnAgent, "td_update", "dqn.td_update", None),
    (dqn, "decode_action", "dqn.decode", None),
    (federated, "run_round", "federated.run_round", None),
    (federated, "federated_average", "federated.average", None),
    (DdpgAgent, "export_weights", "federated.export", _values),
    (DqnAgent, "export_weights", "federated.export", _values),
    (DdpgAgent, "load_global", "federated.load_global", None),
    (DqnAgent, "load_global", "federated.load_global", None),
    (baselines, "oracle_slot_optimum", "baselines.oracle", None),
    (baselines, "oracle_policy", "baselines.oracle_policy", None),
    (baselines, "equal_policy", "baselines.equal_policy", None),
    (baselines, "local_policy", "baselines.local_policy", None),
]

# Spans whose own time is the episode loop around the layers, not layer work:
# their self time counts as uncovered, like the benchmark's root spans.
LOOPS = ("federated.run_round", "env.rollout_episode")

# name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "nn.forward_b1_us": "us",
    "nn.forward_b64_us": "us",
    "nn.backward_us": "us",
    "nn.adam_us": "us",
    "nn.forward_calls_per_step": "calls/step",
    "nn.backward_calls_per_step": "calls/step",
    "nn.share": "fraction",
    "ddpg.soft_update_us": "us",
    "ddpg.self_share": "fraction",
    "dqn.decode_us": "us",
    "dqn.self_share": "fraction",
    "replay.sample_us": "us",
    "replay.add_us": "us",
    "env.step_us": "us",
    "env.slot_cost_us": "us",
    "env.sanitize_us": "us",
    "env.flatten_us": "us",
    "env.share": "fraction",
    "env.sanitize_rescale_ratio": "fraction",
    "baselines.oracle_ms": "ms",
    "baselines.share": "fraction",
    "federated.average_ms": "ms",
    "federated.export_ms": "ms",
    "federated.load_global_ms": "ms",
    "federated.upload_values": "values",
    "federated.share": "fraction",
    "trace.uncovered_share": "fraction",
    "trace.overhead": "fraction",
}


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(spans: SpanTable, overhead: float) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    Per-call times are medians of self time over the calls made in traced
    requests; a call the workload never makes reports 0. Shares divide a
    layer's self time by the wall time of all traced requests. Calls per
    step count calls inside traced rounds per `env.step` inside them.
    `overhead` is the traced run's slowdown, measured by the caller.
    """
    self_ns = spans.self_times()
    roots = spans.roots()
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(spans.names):
        by_name.setdefault(name, []).append(i)
    root_ids = [i for i, p in enumerate(roots) if p == i]
    wall = sum(spans.duration(i) for i in root_ids) or 1

    def us(name, pick=lambda i: True):
        return _median([self_ns[i] / 1e3 for i in by_name.get(name, ())
                        if pick(i)])

    def share(prefix):
        return sum(self_ns[i] for i, name in enumerate(spans.names)
                   if name.startswith(prefix) and name not in LOOPS) / wall

    def in_rounds(name):
        return sum(1 for i in by_name.get(name, ())
                   if spans.names[roots[i]] == ROUND)

    steps = in_rounds("env.step")
    sanitized = by_name.get("env.sanitize", ())
    exports = by_name.get("federated.export", ())
    uncovered = sum(self_ns[i] for i, name in enumerate(spans.names)
                    if roots[i] == i or name in LOOPS)
    metrics = {
        "nn.forward_b1_us": us("nn.forward", lambda i: spans.attrs[i] == 1),
        "nn.forward_b64_us": us("nn.forward", lambda i: spans.attrs[i] > 1),
        "nn.backward_us": us("nn.backward"),
        "nn.adam_us": us("nn.adam"),
        "nn.forward_calls_per_step":
            in_rounds("nn.forward") / steps if steps else 0.0,
        "nn.backward_calls_per_step":
            in_rounds("nn.backward") / steps if steps else 0.0,
        "nn.share": share("nn."),
        "ddpg.soft_update_us": us("ddpg.soft_update"),
        "ddpg.self_share": share("ddpg."),
        "dqn.decode_us": us("dqn.decode"),
        "dqn.self_share": share("dqn."),
        "replay.sample_us": us("replay.sample"),
        "replay.add_us": us("replay.add"),
        "env.step_us": us("env.step"),
        "env.slot_cost_us": us("env.slot_cost"),
        "env.sanitize_us": us("env.sanitize"),
        "env.flatten_us": us("env.flatten"),
        "env.share": share("env."),
        "env.sanitize_rescale_ratio":
            (sum(spans.attrs[i] for i in sanitized) / len(sanitized)
             if sanitized else 0.0),
        "baselines.oracle_ms": us("baselines.oracle") / 1e3,
        "baselines.share": share("baselines."),
        "federated.average_ms": us("federated.average") / 1e3,
        "federated.export_ms": us("federated.export") / 1e3,
        "federated.load_global_ms": us("federated.load_global") / 1e3,
        "federated.upload_values":
            (sum(spans.attrs[i] for i in exports) / len(exports)
             if exports else 0.0),
        "federated.share": share("federated."),
        "trace.uncovered_share": uncovered / wall,
        "trace.overhead": overhead,
    }
    return metrics
