"""What both learners share: the parameter stores, the episode loop and the
greedy policy.

An agent keeps its online networks in one flat vector, `online`, and its
target networks in a second vector, `targets`, laid out the same way. Only
the online vector crosses the agent boundary: an upload copies it, and a
broadcast overwrites it and resets the targets to it. Target networks are a
local stabiliser, so they are neither uploaded nor averaged.

A subclass supplies act(state, explore) -> (action stored in replay,
ActionVector), update_step() -> loss or None, and end_episode().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import FogCellEnv
from .nn import FlatWeights, Mlp, flatten_mlp, pack


@dataclass
class EpisodeReport:
    total_reward: float
    mean_cost: float                # per-slot cell cost
    mean_delay: float
    mean_energy: float
    mean_critic_loss: float
    updates: int


class Agent:
    def _store(self, *nets: Mlp) -> list[Mlp]:
        """Make `nets` the online store; returns their copies, which form
        the target store."""
        self._online_nets = nets
        self.online = pack(*nets)
        targets = [net.copy() for net in nets]
        self.targets = pack(*targets)
        return targets

    def train_episode(self, env: FogCellEnv) -> EpisodeReport:
        """Run one episode with exploration, learning after every step."""
        s = env.flatten_state(env.reset())
        losses = []
        for _ in range(env.config.steps_per_episode):
            stored, action = self.act(s, explore=True)
            reward, state = env.step(action)
            # buffer.add copies, so the next step may read the same vector
            s_next = env.flatten_state(state)
            self.buffer.add(s, stored, reward, s_next)
            s = s_next
            loss = self.update_step()
            if loss is not None:
                losses.append(loss)
        self.end_episode()
        return EpisodeReport(*env.episode_metrics(),
                             float(np.mean(losses)) if losses else float("nan"),
                             len(losses))

    def policy(self):
        """Frozen greedy policy suitable for rollout_episode()."""
        def act(env, state):
            return self.act(env.flatten_state(state), explore=False)[1]
        return act

    def sync_target(self) -> None:
        self.targets[...] = self.online

    def export_weights(self) -> FlatWeights:
        """The upload: a copy of the online store with its layout."""
        return flatten_mlp(*self._online_nets)

    def load_global(self, flat: FlatWeights) -> None:
        """Adopt broadcast weights; the targets re-sync to them."""
        if flat.values.size != self.online.size:
            raise ValueError(f"weight vector has {flat.values.size} values, "
                             f"agent needs {self.online.size}")
        self.online[...] = flat.values
        self.sync_target()
