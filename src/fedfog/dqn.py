"""Value-based baseline agent over a discretized action catalog.

Each MD gets its own head of 26 Q-values: local execution plus offloading
at each of 5 x 5 share levels. A level pair decodes as the weights r_y and
r_z of env.decode_shares, the rule the actor-critic agent uses too, so the
shares always fit the budget. A joint table over all MDs would explode
combinatorially, so the heads share one trunk (same hidden sizes as the
actor-critic agent) and each head bootstraps on the max of its own
next-state values; the heads are coupled only through the shared cell
reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agent import Agent, check_hyperparams
from .env import decode_shares, sanitize_action
from .nn import AdamState, adam_step, backward, forward, init_mlp
from .replay import ReplayBuffer, Transition

SHARE_LEVELS = 5
ACTIONS_PER_MD = 1 + SHARE_LEVELS * SHARE_LEVELS    # local + 5 x 5 levels


def _catalog() -> np.ndarray:
    """Read-only (ACTIONS_PER_MD, 3) table of raw [x, r_y, r_z] rows."""
    levels = np.arange(SHARE_LEVELS) / (SHARE_LEVELS - 1)
    table = np.zeros((ACTIONS_PER_MD, 3))
    table[1:, 0] = 1.0
    table[1:, 1] = np.repeat(levels, SHARE_LEVELS)
    table[1:, 2] = np.tile(levels, SHARE_LEVELS)
    table.flags.writeable = False
    return table


CATALOG = _catalog()


def decode_action(indices, num_mds: int) -> np.ndarray:
    """Map per-MD catalog indices, (M,) or (n, M), to [x, y, z] rows.

    Index 0 is local execution. Index 1 + (i-1)*5 + (j-1) offloads with
    share weights r_i and r_j, where r_k = (k-1)/4 spans [0, 1] like the
    actor's outputs; env.decode_shares turns the weights into shares of
    each budget. The result feeds sanitize_action.
    """
    indices = np.asarray(indices, dtype=int)
    if indices.shape[-1:] != (num_mds,):
        raise ValueError(f"expected {num_mds} indices, got shape {indices.shape}")
    if np.any(indices < 0) or np.any(indices >= ACTIONS_PER_MD):
        raise ValueError(f"action index outside [0, {ACTIONS_PER_MD})")
    return decode_shares(np.swapaxes(CATALOG[indices], -1, -2)
                         .reshape(*indices.shape[:-1], 3 * num_mds))


@dataclass
class DqnHyperParams:
    gamma: float = 0.9
    replay_capacity: int = 20000
    batch_size: int = 64
    lr: float = 0.001
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.995    # multiplicative, once per episode
    epsilon_floor: float = 0.05
    target_sync_period: int = 100   # learner steps between hard target syncs
    hidden: tuple[int, int] = (300, 100)

    def __post_init__(self):
        check_hyperparams(self, rates=("lr",), decays=("epsilon_decay",),
                          probabilities=("epsilon_start", "epsilon_floor"))
        if self.target_sync_period < 1:
            raise ValueError("target_sync_period must be >= 1")


class DqnAgent(Agent):
    """Epsilon-greedy Q-learner with factorized per-MD action heads.

    Stores: online [net], targets [target].
    """

    def __init__(self, state_dim: int, num_mds: int,
                 hp: DqnHyperParams | None = None, seed=0):
        self.hp = hp or DqnHyperParams()
        self.num_mds = num_mds
        self.rng = np.random.default_rng(seed)
        h1, h2 = self.hp.hidden
        self.net = init_mlp(self.rng,
                            [state_dim, h1, h2, num_mds * ACTIONS_PER_MD],
                            output_activation="linear")
        (self.target,) = self._store(self.net)
        self.opt = AdamState.for_params(self.net.params, self.hp.lr)
        self.buffer = ReplayBuffer(self.hp.replay_capacity, state_dim, num_mds)
        self.epsilon = self.hp.epsilon_start
        self._updates = 0

    def _head_values(self, q: np.ndarray) -> np.ndarray:
        return q.reshape(*q.shape[:-1], self.num_mds, ACTIONS_PER_MD)

    def _greedy(self, states: np.ndarray) -> np.ndarray:
        """Per-head argmax, one row per state; ties go to the lowest index."""
        return np.argmax(self._head_values(forward(self.net, states)[0]), -1)

    def _decode(self, indices) -> np.ndarray:
        return decode_action(indices, self.num_mds)

    def select(self, state: np.ndarray, epsilon: float) -> np.ndarray:
        """Per-head argmax, replaced by a uniform index with prob. epsilon."""
        greedy = self._greedy(state[None])[0]
        explore = self.rng.random(self.num_mds) < epsilon
        random_idx = self.rng.integers(0, ACTIONS_PER_MD, size=self.num_mds)
        return np.where(explore, random_idx, greedy)

    def td_update(self, batch: Transition) -> float:
        """One Adam step on the summed per-head TD errors; returns the loss."""
        s, a_idx, r, s2 = batch
        k = len(r)
        idx = a_idx.astype(int)
        q2, _ = forward(self.target, s2)
        next_best = self._head_values(q2).max(axis=-1)           # (k, M)
        y = r[:, None] + self.hp.gamma * next_best
        q, cache = forward(self.net, s)
        rows = np.arange(k)[:, None]
        cols = np.arange(self.num_mds)[None, :] * ACTIONS_PER_MD + idx
        taken = q[rows, cols]
        err = taken - y
        loss = float(np.mean(np.sum(err ** 2, axis=1)))
        grad_out = np.zeros_like(q)
        grad_out[rows, cols] = 2.0 * err / k
        if not math.isfinite(loss):
            raise FloatingPointError("non-finite TD loss")
        grad = backward(self.net, cache, grad_out)
        adam_step(self.net.params, grad, self.opt)
        self._updates += 1
        if self._updates % self.hp.target_sync_period == 0:
            self.sync_target()
        return loss

    def end_episode(self) -> None:
        # the floor only stops the decay; it never raises epsilon
        if self.epsilon > self.hp.epsilon_floor:
            self.epsilon = max(self.hp.epsilon_floor,
                               self.epsilon * self.hp.epsilon_decay)

    def update_step(self) -> float | None:
        """One TD update from a sampled batch, if warm."""
        if len(self.buffer) < self.hp.batch_size:
            return None
        return self.td_update(self.buffer.sample(self.hp.batch_size, self.rng))

    def act(self, state: np.ndarray, explore: bool):
        """Replay stores the catalog indices; the env gets their decoding."""
        indices = self.select(state, self.epsilon if explore else 0.0)
        return indices.astype(float), sanitize_action(self._decode(indices))

    # Bound here as well as inherited: tracing patches per-class attributes.
    export_weights = Agent.export_weights
    load_global = Agent.load_global
