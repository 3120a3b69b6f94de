"""The benchmark's three workloads, driven through the package's public calls.

Each is a closed loop with one caller: the next call starts when the last
returns. The master seed draws every input the package sees beyond the fixed
configs; the training federations use the acceptance gate's seeds, so the
trained models, and with them `tail_cost`, are the same on every run of one
platform, and the master seed draws the held-out evaluation episodes.
`tail_cost` pools each seed's global models over a window of rounds, as
acceptance check 5 pools its last rounds.

- ddpg-desk: federated DDPG, 2 FAPs x 3 MDs, check-5 hyperparameters.
- dqn-paper: federated DQN, the `paper-scale` preset's 4 FAPs x 5 MDs.
- policy-eval: local and fap-equal episodes on paper-scale held-out cells,
  and oracle slots on one cell at the oracle's enumeration budget.

Timed loops run until `seconds` have passed, at least until the last round
that `tail_cost` needs, and, untraced, until every bounded percentile has
ten samples beyond it. A round is one `run_round` call on the training
workloads; on policy-eval it is one held-out episode per eval cell under each
of local and fap-equal, followed by a few oracle slots. A traced run traces
every other round, so the untraced ones measure the tracing overhead. The
training workloads' evaluation episodes and oracle slots are never traced.

`setup_s` comes from fresh processes: spread evenly over the timed loop,
`SETUP_SAMPLES` new interpreters each import the package and set the workload
up once (`setup_probe.py`), timed from their start to where their first timed
call would begin.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fedfog import baselines, env, federated
from fedfog.ddpg import DdpgHyperParams
from fedfog.dqn import DqnHyperParams
from fedfog.env import EnvConfig, FogCellEnv
from fedfog.harness import load_config

from . import checks
from .checks import Ledger
from .layers import ROUND
from .stats import samples_needed, timing_summary

EPISODE = "episode"
ORACLE_SLOT = "oracle_slot"

# Round 1 only fills replay; round 2 learns from its 64th transition on.
WARMUP_ROUNDS = 2
# tail_cost pools every seed's global models after each of these rounds: at
# this budget one round's model can sit in a transient (a cost of 10 between
# neighbours of 4 and 1.5) that a single model would carry into the figure.
TAIL_WINDOW = range(6, 16)
TAIL_EPISODES = 2           # per eval cell and pooled model
SETUP_SAMPLES = 9           # fresh-process set-ups behind setup_s
SETUP_PROBE = Path(__file__).resolve().parents[1] / "setup_probe.py"
SETUP_PROBE_TIMEOUT_S = 60

GATE_SEEDS = (1, 2, 3)
# Hyperparameters of acceptance check 5 (tests/test_acceptance.py).
ACCEPT_DDPG = DdpgHyperParams(actor_lr=1.5e-3, critic_lr=1e-4, tau=0.015,
                              noise_decay=0.998)
PAPER = load_config(preset="paper-scale").env


@dataclass(frozen=True)
class Training:
    """A federated training workload and its held-out evaluation."""

    kind: str
    env: EnvConfig
    seeds: tuple[int, ...]
    ddpg_hp: DdpgHyperParams | None = None
    dqn_hp: DqnHyperParams | None = None


TRAINING = {
    "ddpg-desk": Training("ddpg", EnvConfig(), GATE_SEEDS,
                          ddpg_hp=ACCEPT_DDPG),
    "dqn-paper": Training("dqn", PAPER, GATE_SEEDS[:2],
                          dqn_hp=DqnHyperParams()),
}
# Per federation and cycle of training rounds, over its eval cells in turn.
EVAL_EPISODES = 4
EVAL_ORACLE_SLOTS = 20      # per oracle cell and cycle of training rounds

ORACLE_CELL = replace(PAPER, num_faps=1, mds_per_fap=baselines.ORACLE_MAX_MDS)
EVAL_POLICIES = {
    "local": lambda cell, state: baselines.local_policy(state),
    "fap-equal": lambda cell, state: baselines.equal_policy(state),
}
POOLED_EVAL_ROUNDS = 20     # policy-eval rounds pooled into tail_cost
ORACLE_SLOTS_PER_ROUND = 4

WORKLOADS = (*TRAINING, "policy-eval")

# High percentile reported beside each median. A run holds 40 to 70
# training rounds, too few for ten samples beyond p90, so rounds report p75.
HIGH_PERCENTILE = {"round_s": 75, "episode_ms": 90, "oracle_slot_ms": 90}


@dataclass
class Measured:
    """Raw samples of one run; `end_to_end` turns them into metrics."""

    ledger: Ledger = field(default_factory=Ledger)
    setup_s: list[float] = field(default_factory=list)  # fresh processes
    round_s: list[float] = field(default_factory=list)
    traced_round_s: list[float] = field(default_factory=list)
    round_steps: int = 0        # env steps inside the untraced rounds
    episode_s: list[float] = field(default_factory=list)
    oracle_slot_s: list[float] = field(default_factory=list)
    tail_cost: float = math.nan
    quality: dict = field(default_factory=dict)

    def add_round(self, seconds: float, steps: int, traced: bool) -> None:
        if traced:
            self.traced_round_s.append(seconds)
        else:
            self.round_s.append(seconds)
            self.round_steps += steps

    def has_samples(self) -> bool:
        """Whether every bounded percentile has ten samples beyond it."""
        return all(len(xs) >= samples_needed(HIGH_PERCENTILE[name])
                   for name, xs in (("round_s", self.round_s),
                                    ("episode_ms", self.episode_s),
                                    ("oracle_slot_ms", self.oracle_slot_s)))

    def trace_overhead(self) -> float:
        """Median traced round over median untraced round, minus one."""
        return (statistics.median(self.traced_round_s)
                / statistics.median(self.round_s) - 1.0)


def derive_seed(master_seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([master_seed, *keys])
               .generate_state(1)[0])


class Requests:
    """Numbers requests and opens a traced root span when asked to."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.count = 0

    def open(self, root: str, traced: bool):
        request = self.count
        self.count += 1
        if traced:
            return self.tracer.op(root, request)
        return nullcontext()

    def traced(self, parity: int) -> bool:
        return self.tracer is not None and parity % 2 == 1


class OracleTally:
    """Oracle, fap-equal and local slot costs pooled over the same states."""

    def __init__(self):
        self.sums = {"oracle": 0.0, "fap-equal": 0.0, "local": 0.0}
        self.slots = 0

    def slots_on(self, cell: FogCellEnv, count: int, ledger: Ledger,
                 samples: list, requests: Requests, traced: bool) -> None:
        """`count` oracle decisions, each with its env.step, going on with
        the cell's episode and starting a new one when it ends. Untraced
        ones append their wall time to `samples`."""
        for _ in range(count):
            if cell.state is None or cell.t >= cell.config.steps_per_episode:
                cell.reset()
            state = cell.state
            with ledger.op("oracle slot"):
                with requests.open(ORACLE_SLOT, traced):
                    t0 = time.perf_counter()
                    cell.step(baselines.oracle_policy(cell, state))
                    dt = time.perf_counter() - t0
                if not traced:
                    samples.append(dt)
                oracle = cell.last_cost.cost
                equal, local = checks.reference_costs(cell, state)
                checks.check_oracle_slot(oracle, equal, local)
                for name, cost in (("oracle", oracle), ("fap-equal", equal),
                                   ("local", local)):
                    self.sums[name] += cost
                self.slots += 1

    def means(self) -> dict[str, float]:
        return {name: s / self.slots for name, s in self.sums.items()}


class SetupProbes:
    """Fresh-process set-ups, spread evenly over the timed loop.

    A set-up in a new interpreter pays the import and any lazy first-call
    work again; spreading the probes over the run keeps their median off a
    single stretch of a shared host's speed. Each probe blocks the loop.
    """

    def __init__(self, workload: str, master_seed: int, seconds: float,
                 measured: Measured):
        self.cmd = [sys.executable, str(SETUP_PROBE), "--workload", workload,
                    "--seed", str(master_seed)]
        self.seconds = seconds
        self.measured = measured
        self.taken = 0      # a failed probe counts, but gives no sample

    def poll(self, elapsed: float) -> None:
        """Take the next probe once its share of the run has passed."""
        if self.taken < SETUP_SAMPLES and elapsed >= self.taken \
                * self.seconds / SETUP_SAMPLES:
            self.take()

    def finish(self) -> None:
        while self.taken < SETUP_SAMPLES:
            self.take()

    def take(self) -> None:
        self.taken += 1
        with self.measured.ledger.op("set-up probe"):
            proc = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=SETUP_PROBE_TIMEOUT_S)
            checks.check(proc.returncode == 0,
                         f"exit {proc.returncode}: {proc.stderr[-400:]}")
            self.measured.setup_s.append(
                json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def setup_training(spec: Training, seed: int, ledger: Ledger) -> list:
    """One federation, past its warm-up rounds: [seed, agents, envs, model]."""
    agents, envs, _, model = federated.setup_federation(
        spec.env, spec.kind, seed, spec.ddpg_hp, spec.dqn_hp)
    for _ in range(WARMUP_ROUNDS):
        with ledger.op(f"warm-up round, seed {seed}"):
            model, report = federated.run_round(agents, envs, model)
            checks.check_round(spec.kind, report, model, agents)
    return [seed, agents, envs, model]


def setup_policy_eval(master_seed: int, ledger: Ledger):
    """The eval cells of each policy and the oracle cell, each policy warmed
    up by one episode and the oracle by one decision."""
    cells = {name: federated.make_eval_envs(PAPER, derive_seed(master_seed, 0))
             for name in EVAL_POLICIES}
    oracle_cell = FogCellEnv(ORACLE_CELL, seed=derive_seed(master_seed, 1))
    for name, policy in EVAL_POLICIES.items():
        with ledger.op(f"warm-up {name} episode"):
            env.rollout_episode(cells[name][0], policy)
    with ledger.op("warm-up oracle decision"):
        baselines.oracle_policy(oracle_cell, oracle_cell.reset())
    return cells, oracle_cell


def set_up(workload: str, master_seed: int, ledger: Ledger):
    """What one process of `workload` does before its first timed call, for
    one federation (training) or one set of eval cells (policy-eval)."""
    if workload in TRAINING:
        spec = TRAINING[workload]
        return setup_training(spec, spec.seeds[0], ledger)
    return setup_policy_eval(master_seed, ledger)


def tail_evaluation(spec: Training, model, tail_seed: int,
                    ledger: Ledger) -> float:
    """Held-out cost of a global model on the draws of `tail_seed`."""
    with ledger.op(f"tail evaluation, round {model.round_index}"):
        cost = federated.evaluate_global(
            model, spec.env, federated.make_eval_envs(spec.env, tail_seed),
            TAIL_EPISODES, spec.ddpg_hp, spec.dqn_hp)[1]
        checks.check(checks.finite_positive(cost),
                     f"tail evaluation cost {cost!r}")
    return cost


def run_training(workload: str, master_seed: int, seconds: float,
                 tracer=None) -> Measured:
    """Round-robin rounds over the federations until time is up.

    After each cycle of rounds, every federation's current global model plays
    EVAL_EPISODES greedy held-out episodes on its eval cells, and each of its
    oracle cells takes a few oracle slots: the evaluation timings then span
    the whole run like the round timings do. The global models after the
    rounds of TAIL_WINDOW are evaluated for `tail_cost` as they appear,
    untimed; after the loop the oracle and reference policies play the same
    draws.
    """
    spec = TRAINING[workload]
    measured = Measured()
    ledger = measured.ledger
    requests = Requests(tracer)
    steps_per_round = spec.env.num_faps * spec.env.steps_per_episode
    feds = [setup_training(spec, seed, ledger) for seed in spec.seeds]
    greedy = federated.build_agent(spec.kind, spec.env, 0,
                                   spec.ddpg_hp, spec.dqn_hp)
    eval_cells = [federated.make_eval_envs(spec.env, derive_seed(master_seed, k))
                  for k in range(len(feds))]
    oracle_cells = [federated.make_eval_envs(spec.env,
                                             derive_seed(master_seed, k, 1))
                    for k in range(len(feds))]
    timing_tally = OracleTally()
    probes = SetupProbes(workload, master_seed, seconds, measured)

    tail_seeds = {seed: derive_seed(master_seed, k, 2)
                  for k, seed in enumerate(spec.seeds)}
    per_round = {seed: {} for seed in spec.seeds}
    start = time.perf_counter()
    cycle = 0
    while (min(fed[3].round_index for fed in feds) < TAIL_WINDOW[-1]
           or time.perf_counter() - start < seconds
           or (tracer is None and not measured.has_samples())):
        probes.poll(time.perf_counter() - start)
        traced = requests.traced(cycle)
        for fed in feds:
            seed, agents, envs, model = fed
            with ledger.op(f"round {model.round_index + 1}, seed {seed}"):
                with requests.open(ROUND, traced):
                    t0 = time.perf_counter()
                    model, report = federated.run_round(agents, envs, model)
                    dt = time.perf_counter() - t0
                fed[3] = model
                measured.add_round(dt, steps_per_round, traced)
                checks.check_round(spec.kind, report, model, agents)
            if model.round_index in TAIL_WINDOW:
                per_round[seed][model.round_index] = tail_evaluation(
                    spec, model, tail_seeds[seed], ledger)
        for fed, cells, oracles in zip(feds, eval_cells, oracle_cells):
            greedy.load_global(fed[3].weights)
            policy = greedy.policy()
            for j in range(EVAL_EPISODES):
                with ledger.op(f"eval episode, seed {fed[0]}"):
                    t0 = time.perf_counter()
                    _, cost, _, _ = env.rollout_episode(
                        cells[j % len(cells)], policy)
                    measured.episode_s.append(time.perf_counter() - t0)
                    checks.check(checks.finite_positive(cost),
                                 f"eval episode cost {cost!r}")
            for cell in oracles:
                timing_tally.slots_on(cell, EVAL_ORACLE_SLOTS, ledger,
                                      measured.oracle_slot_s, requests, False)
        cycle += 1
    probes.finish()

    tally = OracleTally()
    for tail_seed in tail_seeds.values():
        # The same eval seed gives the same episode draws the models saw.
        for cell in federated.make_eval_envs(spec.env, tail_seed):
            tally.slots_on(cell, TAIL_EPISODES * spec.env.steps_per_episode,
                           ledger, [], requests, False)
    per_seed = {seed: float(np.mean(list(costs.values())))
                for seed, costs in per_round.items()}
    measured.tail_cost = float(np.mean(list(per_seed.values())))
    refs = tally.means()
    with ledger.op("pooled reference ordering"):
        checks.check_ordering(refs["oracle"], refs["fap-equal"], refs["local"])
    measured.quality = {"tail_cost_per_seed": per_seed,
                        "tail_cost_per_round": per_round,
                        "same_draws": refs}
    return measured


def run_policy_eval(master_seed: int, seconds: float,
                    tracer=None) -> Measured:
    measured = Measured()
    ledger = measured.ledger
    requests = Requests(tracer)
    cells, oracle_cell = setup_policy_eval(master_seed, ledger)
    probes = SetupProbes("policy-eval", master_seed, seconds, measured)

    tally = OracleTally()
    pooled = {name: [] for name in EVAL_POLICIES}
    steps_per_round = len(EVAL_POLICIES) * PAPER.num_faps \
        * PAPER.steps_per_episode
    start = time.perf_counter()
    cycle = 0
    while (cycle < POOLED_EVAL_ROUNDS
           or time.perf_counter() - start < seconds
           or (tracer is None and not measured.has_samples())):
        probes.poll(time.perf_counter() - start)
        traced = requests.traced(cycle)
        round_s = 0.0
        for c in range(PAPER.num_faps):
            for name, policy in EVAL_POLICIES.items():
                with ledger.op(f"{name} episode"):
                    with requests.open(EPISODE, traced):
                        t0 = time.perf_counter()
                        _, cost, _, _ = env.rollout_episode(cells[name][c],
                                                            policy)
                        dt = time.perf_counter() - t0
                    round_s += dt
                    if not traced:
                        measured.episode_s.append(dt)
                    checks.check(checks.finite_positive(cost),
                                 f"{name} episode cost {cost!r}")
                    if cycle < POOLED_EVAL_ROUNDS:
                        pooled[name].append(cost)
        measured.add_round(round_s, steps_per_round, traced)
        tally.slots_on(oracle_cell, ORACLE_SLOTS_PER_ROUND, ledger,
                       measured.oracle_slot_s, requests, traced)
        cycle += 1
    probes.finish()

    means = {name: float(np.mean(costs)) for name, costs in pooled.items()}
    refs = tally.means()
    with ledger.op("pooled reference ordering"):
        checks.check(means["fap-equal"] < means["local"],
                     f"pooled fap-equal {means['fap-equal']!r} not below "
                     f"local {means['local']!r}")
        checks.check_ordering(refs["oracle"], refs["fap-equal"], refs["local"])
    measured.tail_cost = means["fap-equal"]
    measured.quality = {"pooled_eval_rounds": POOLED_EVAL_ROUNDS,
                        "paper_cells": means, "oracle_cell": refs}
    return measured


def run(workload: str, master_seed: int, seconds: float,
        tracer=None) -> Measured:
    if workload in TRAINING:
        return run_training(workload, master_seed, seconds, tracer)
    if workload == "policy-eval":
        return run_policy_eval(master_seed, seconds, tracer)
    raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")


# name -> unit of every end-to-end figure the report prints.
FIGURES = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s_p50": "s",
    "round_s_p75": "s",
    "steps_per_s": "1/s",
    "tail_cost": "cost",
    "episode_ms_p50": "ms",
    "episode_ms_p90": "ms",
    "oracle_slot_ms_p50": "ms",
    "oracle_slot_ms_p90": "ms",
}
# The bounded ones, in the order BENCHMARK.json lists them. The medians are
# printed but not bounded: on a shared host whose CPU speed switches between
# two levels every few seconds (13 and 25 ms per M=12 oracle slot on one
# 2-vCPU Xeon host), a run's median lands in either level, and medians
# spread 25-41 % over ten runs. Most runs hold some of the slow level, so
# the high percentiles spread less (4-21 % over ten runs).
END_TO_END = {name: FIGURES[name] for name in (
    "setup_s", "peak_rss_mb", "round_s_p75", "steps_per_s", "tail_cost",
    "episode_ms_p90", "oracle_slot_ms_p90")}


def end_to_end(measured: Measured,
               peak_rss_mb: float) -> tuple[dict[str, float], dict]:
    """Every end-to-end figure, and the samples behind the timings."""
    raw = {"round_s": (measured.round_s, 1.0),
           "episode_ms": (measured.episode_s, 1e3),
           "oracle_slot_ms": (measured.oracle_slot_s, 1e3)}
    timings = {name: {**timing_summary(xs, HIGH_PERCENTILE[name], scale),
                      "samples": [x * scale for x in xs]}
               for name, (xs, scale) in raw.items()}
    values = {
        "setup_s": statistics.median(measured.setup_s),
        "peak_rss_mb": peak_rss_mb,
        "steps_per_s": measured.round_steps / sum(measured.round_s),
        "tail_cost": measured.tail_cost,
    }
    for name, summary in timings.items():
        high = f"p{HIGH_PERCENTILE[name]}"
        values[f"{name}_p50"] = summary["p50"]
        values[f"{name}_{high}"] = summary[high]
    timings["setup_s"] = {"n": len(measured.setup_s),
                          "samples": measured.setup_s}
    return {name: values[name] for name in FIGURES}, timings
