"""Federated deep reinforcement learning for fog-network task offloading.

A discrete-time simulator of fog access points serving mobile devices, two
from-scratch DRL agents (deterministic actor-critic and a discretized
Q-learner), closed-form baselines with a per-slot exhaustive oracle, a
synchronous federated-averaging coordinator, and a seeded experiment harness
with a CLI. numpy is the only numerical dependency.
"""

__version__ = "0.1.0"
