"""Fixed-capacity transition store with oldest-first overwrite."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .nn import shared_zeros


class Transition(NamedTuple):
    state: np.ndarray
    action: np.ndarray          # raw actor output / action indices
    reward: float
    next_state: np.ndarray


class ReplayBuffer:
    """Ring buffer over preallocated arrays in shared memory (so a forked
    process that adds rows writes its parent's copy); sampling is uniform."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = shared_zeros((capacity, state_dim))
        self.actions = shared_zeros((capacity, action_dim))
        self.rewards = shared_zeros(capacity)
        self.next_states = shared_zeros((capacity, state_dim))
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(self, state, action, reward, next_state) -> None:
        i = self.cursor
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, k: int, rng: np.random.Generator) -> Transition:
        """Batch of k distinct transitions as stacked arrays."""
        if k > self.size:
            raise ValueError(f"cannot sample {k} from buffer of size {self.size}")
        idx = rng.choice(self.size, size=k, replace=False)
        return Transition(self.states[idx], self.actions[idx],
                          self.rewards[idx], self.next_states[idx])
