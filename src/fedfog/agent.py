"""What both learners share: the parameter stores, the episode loop and the
greedy policy.

An agent keeps its online networks in one flat vector, `online`, and its
target networks in a second vector, `targets`, laid out the same way. Only
the online vector crosses the agent boundary: an upload copies it, and a
broadcast overwrites it and resets the targets to it. Target networks are a
local stabiliser, so they are neither uploaded nor averaged.

A subclass supplies act(state) -> (explored action for replay, ActionVector),
update_step() -> loss or None, end_episode(), and the greedy path:
_greedy(states) -> outputs per row, _decode(outputs) -> [x, y, z] rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import FogCellEnv, sanitize_action
from .nn import FlatWeights, Mlp, flatten_mlp, pack


def check_hyperparams(hp, rates, decays, levels=(), probabilities=()) -> None:
    """Raise ValueError naming the first bad field of a learner's `hp`: the
    fields both learners have, and its rates, decays, levels, probabilities."""
    if not 1 <= hp.batch_size <= hp.replay_capacity:
        raise ValueError("batch_size must be >= 1 and <= replay_capacity")
    if not (isinstance(hp.hidden, (list, tuple)) and len(hp.hidden) == 2
            and all(isinstance(h, int) and h >= 1 for h in hp.hidden)):
        raise ValueError(f"hidden must be two integers >= 1, got {hp.hidden!r}")
    for names, ok, rule in (
            (rates, lambda v: 0.0 < v < np.inf, "be finite and > 0"),
            (decays, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
            (levels, lambda v: 0.0 <= v < np.inf, "be finite and >= 0"),
            (("gamma", *probabilities), lambda v: 0.0 <= v <= 1.0,
             "lie in [0, 1]")):
        for name in names:
            if not ok(getattr(hp, name)):
                raise ValueError(f"{name} must {rule}")


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
        self._layout = flatten_mlp(*nets).layout()
        self.online = pack(*nets)
        targets = [net.copy() for net in nets]
        self.targets = pack(*targets)
        return targets

    def train_episode(self, env: FogCellEnv) -> EpisodeReport:
        """Run one episode with exploration, learning after every step."""
        s = env.flatten_state(env.reset())
        losses = []
        for _ in range(env.config.steps_per_episode):
            stored, action = self.act(s)
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
        """Frozen greedy policy for rollout_episode(): on (T, M) slot rows, not
        one slot, it makes one forward, one decode and one sanitize_action."""
        return lambda env, states: sanitize_action(
            self._decode(self._greedy(env.flatten_state(states))))

    def sync_target(self) -> None:
        self.targets[...] = self.online

    def export_weights(self) -> FlatWeights:
        """The upload: a copy of the online store with its layout."""
        return flatten_mlp(*self._online_nets)

    def load_global(self, flat: FlatWeights) -> None:
        """Adopt broadcast weights of its own layout; the targets re-sync."""
        if flat.layout() != self._layout:
            raise ValueError(f"weight layout {flat.layout()} is not the "
                             f"agent's layout {self._layout}")
        self.online[...] = flat.values
        self.sync_target()
