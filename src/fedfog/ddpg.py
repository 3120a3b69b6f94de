"""Deterministic actor-critic agent for one fog cell.

The actor maps the flattened cell state to a raw output [x, r_y, r_z] in
[0, 1]^(3M) (sigmoid output). Replay stores these raw outputs. The
environment receives them through env.decode_shares, the share rule the
value-based agent uses too, and then sanitize_action.

Shares taken directly from independent sigmoids trapped MDs on local
execution: an output near 0 was floored at EPS_ALLOC, where offloading costs
seconds, so the critic kept the MD local, and the shares of a local MD no
longer change the cost, so nothing raised them again.

The agent is built for a cell of M MDs and takes its state and action
widths from env.md_rotations. Two parts follow from the cost model and from
the cell's symmetry:

- The critic sees each share output through share_features: the inverse of
  the share the MD would get if every MD were offloaded, times 1/M. The slot
  cost is linear in inverse shares, so a critic that is near linear in its
  inputs still puts the best split inside the simplex, not at a corner.
- MDs are interchangeable, so the policy is the actor averaged over the M
  rotations of the MD order (env.md_rotations). No MD slot can then keep a
  fixed share offset picked up from critic noise. The actor and the target
  actor are trained on batches whose MDs are rotated at random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agent import Agent, check_hyperparams
from .env import decode_shares, md_rotations, sanitize_action
from .nn import AdamState, adam_step, backward, forward, init_mlp, workspace
from .replay import ReplayBuffer, Transition


def share_features(raw: np.ndarray):
    """Critic view of a batch of raw outputs, and the map back for gradients.

    Offload outputs pass through. Each share output r_i becomes
    sum_j (1 + r_j) / (M * (1 + r_i)) over all M MDs of its group, which is
    1 when the outputs are equal. Returns (features, pullback); pullback maps
    a gradient with respect to the features to one with respect to `raw`.
    """
    m = raw.shape[1] // 3
    w = 1.0 + raw[:, m:].reshape(-1, 2, m)
    total = w.sum(axis=2, keepdims=True)
    features = np.hstack([raw[:, :m], (total / (m * w)).reshape(-1, 2 * m)])

    def pullback(grad):
        g = grad[:, m:].reshape(-1, 2, m)
        common = np.sum(g / w, axis=2, keepdims=True) / m
        shares = common - g * total / (m * w * w)
        return np.hstack([grad[:, :m], shares.reshape(-1, 2 * m)])

    return features, pullback


@dataclass
class DdpgHyperParams:
    gamma: float = 0.9
    tau: float = 0.001
    replay_capacity: int = 20000
    batch_size: int = 64
    actor_lr: float = 0.001
    critic_lr: float = 0.0001
    noise_std: float = 0.2          # exploration noise at episode 1
    noise_decay: float = 0.995      # multiplicative, once per episode
    noise_floor: float = 0.01
    hidden: tuple[int, int] = (300, 100)

    def __post_init__(self):
        check_hyperparams(self, rates=("actor_lr", "critic_lr"),
                          decays=("tau", "noise_decay"),
                          levels=("noise_std", "noise_floor"))


class DdpgAgent(Agent):
    """Actor-critic learner for one cell, with targets and a replay ring.

    Stores: online [actor | critic], targets [target_actor | target_critic].
    """

    def __init__(self, num_mds: int, hp: DdpgHyperParams | None = None,
                 seed=0):
        self.hp = hp or DdpgHyperParams()
        states, actions = md_rotations(num_mds)
        state_dim, action_dim = states.shape[1], actions.shape[1]
        self.rng = np.random.default_rng(seed)
        h1, h2 = self.hp.hidden
        self.actor = init_mlp(self.rng, [state_dim, h1, h2, action_dim],
                              output_activation="sigmoid")
        self.critic = init_mlp(self.rng, [state_dim + action_dim, h1, h2, 1],
                               output_activation="linear")
        self.target_actor, self.target_critic = self._store(self.actor,
                                                            self.critic)
        self.actor_opt = AdamState.for_params(self.actor.params,
                                              self.hp.actor_lr)
        self.critic_opt = AdamState.for_params(self.critic.params,
                                               self.hp.critic_lr)
        self.buffer = ReplayBuffer(self.hp.replay_capacity, state_dim, action_dim)
        self.noise_std = self.hp.noise_std
        self._state_rot = states
        self._action_rot = actions
        self._action_unrot = np.argsort(actions, axis=1)
        # rotation k's outputs in MD order, gathered from the M flat rows
        self._greedy_unrot = (np.arange(len(actions))[:, None] * actions.shape[1]
                              + self._action_unrot).ravel()

    def _act_rotated(self, net, states: np.ndarray):
        """Output of `net` on states whose MDs are rotated at random.

        Returns the outputs in the original MD order, the forward cache and
        the rotation drawn for each row.
        """
        rot = self.rng.integers(len(self._state_rot), size=len(states))
        rows = np.arange(len(states))[:, None]
        out, cache = forward(net, states[rows, self._state_rot[rot]])
        return out[rows, self._action_unrot[rot]], cache, rot

    def _critic_input(self, states: np.ndarray, actions: np.ndarray):
        """Critic input rows and the map from their gradient to `actions`."""
        features, pullback = share_features(actions)
        return np.hstack([states, features]), pullback

    def _greedy(self, states: np.ndarray) -> np.ndarray:
        """Rotation-averaged actor outputs, one row per state."""
        rot = self._state_rot
        out, _ = forward(self.actor, states.take(rot.ravel(), axis=1)
                         .reshape(-1, rot.shape[1]))
        return (out.reshape(len(states), -1).take(self._greedy_unrot, axis=1)
                .reshape(len(states), len(rot), -1).mean(axis=1))

    _decode = staticmethod(decode_shares)

    def select_action(self, state: np.ndarray, explore: bool) -> np.ndarray:
        """Rotation-averaged actor output plus Gaussian exploration noise,
        clipped to [0, 1]."""
        a = self._greedy(state[None])[0]
        if explore and self.noise_std > 0.0:
            a = a + self.rng.normal(0.0, self.noise_std, size=a.shape)
        return np.clip(a, 0.0, 1.0)

    def critic_update(self, batch: Transition) -> float:
        """Regress the critic onto bootstrapped targets; returns pre-step loss."""
        s, a, r, s2 = batch
        k = len(r)
        a2 = self._act_rotated(self.target_actor, s2)[0]
        q2, _ = forward(self.target_critic, self._critic_input(s2, a2)[0])
        y = r[:, None] + self.hp.gamma * q2
        q, cache = forward(self.critic, self._critic_input(s, a)[0])
        err = q - y
        loss = float(np.mean(err ** 2))
        grad = backward(self.critic, cache, 2.0 * err / k)
        adam_step(self.critic.params, grad, self.critic_opt)
        return loss

    def actor_update(self, batch: Transition) -> float:
        """Ascend mean Q(s, actor(s)); returns the pre-step objective."""
        s = batch.state
        k = len(s)
        a, actor_cache, rot = self._act_rotated(self.actor, s)
        critic_in, pullback = self._critic_input(s, a)
        q, critic_cache = forward(self.critic, critic_in)
        objective = float(np.mean(q))
        # The actor step reads only dQ/d(action features); the critic's
        # parameters and their gradient stay as the critic step left them.
        action_grad = pullback(backward(self.critic, critic_cache,
                                        np.full_like(q, 1.0 / k),
                                        input_cols=slice(s.shape[1], None)))
        rows = np.arange(k)[:, None]
        grad = backward(self.actor, actor_cache,
                        action_grad[rows, self._action_rot[rot]])
        adam_step(self.actor.params, np.negative(grad, out=grad),
                  self.actor_opt)
        return objective

    def soft_update(self) -> None:
        """Geometric target tracking: theta' <- tau*theta + (1-tau)*theta'."""
        tau = self.hp.tau
        self.targets *= 1.0 - tau
        self.targets += np.multiply(tau, self.online,
                                    out=workspace(self.online.size))

    def update_step(self) -> float | None:
        """One critic + actor + soft update from a sampled batch, if warm."""
        if len(self.buffer) < self.hp.batch_size:
            return None
        batch = self.buffer.sample(self.hp.batch_size, self.rng)
        loss = self.critic_update(batch)
        self.actor_update(batch)
        self.soft_update()
        return loss

    def end_episode(self) -> None:
        # the floor only stops the decay; it never raises the noise
        if self.noise_std > self.hp.noise_floor:
            self.noise_std = max(self.hp.noise_floor,
                                 self.noise_std * self.hp.noise_decay)

    def act(self, state: np.ndarray, explore: bool):
        """Replay stores the raw actor output; the env gets its decoding."""
        raw = self.select_action(state, explore)
        return raw, sanitize_action(self._decode(raw))

    # Bound here as well as inherited: tracing patches per-class attributes.
    export_weights = Agent.export_weights
    load_global = Agent.load_global
