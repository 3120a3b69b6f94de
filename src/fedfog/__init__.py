"""Federated deep reinforcement learning for fog-network task offloading.

A discrete-time simulator of fog access points serving mobile devices, two
from-scratch DRL agents (deterministic actor-critic and a discretized
Q-learner), closed-form baselines with a per-slot exhaustive oracle, a
synchronous federated-averaging coordinator, and a seeded experiment harness
with a CLI. numpy is the only numerical dependency.
"""

from .agent import Agent, EpisodeReport
from .baselines import (closed_form_allocation, equal_policy, local_policy,
                        oracle_policy, oracle_slot_optimum)
from .ddpg import DdpgAgent, DdpgHyperParams
from .dqn import DqnAgent, DqnHyperParams, decode_action
from .env import (ActionConstraintError, ActionVector, CostBreakdown,
                  EnvConfig, EpisodeOverError, FogAccessPoint, FogCellEnv,
                  SlotState, channel_gains, flatten_state, md_energy_coeff,
                  rollout_episode, sanitize_action, slot_cost,
                  spectral_efficiency)
from .federated import (ClientProcessError, GlobalModel, RoundReport,
                        TrainingResult, evaluate_global, evaluate_policy,
                        federated_average, load_round_checkpoint,
                        make_eval_envs, run_round, run_training,
                        save_round_checkpoint, setup_federation)
from .harness import (ExperimentConfig, ExperimentResult, RunConfig,
                      SweepConfig, load_config, run_experiment, sweep_fap_cpu,
                      sweep_mds)
from .nn import (AdamState, FlatWeights, Mlp, adam_step, backward,
                 flatten_mlp, forward, init_mlp, load_checkpoint, pack,
                 save_checkpoint)
from .replay import ReplayBuffer, Transition

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
