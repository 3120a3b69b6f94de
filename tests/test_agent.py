"""The greedy policy's planned path: one forward over an episode's trace.

rollout_episode asks a policy with a plan(env) method for all T actions
right after reset(). Planned and per-slot episodes see the same states, so
they make the same decisions; the batched forward may round the shares
differently in the last bits, which the episode metrics then show.
"""

import numpy as np
import pytest

from fedfog.dqn import ACTIONS_PER_MD, decode_action
from fedfog.env import (EnvConfig, FogCellEnv, SlotState, decode_shares,
                        flatten_state, rollout_episode, sanitize_action)
from fedfog.federated import build_agent
from fedfog.nn import forward

EPISODES = 10


class Recorded:
    """A policy's actions as rollout_episode takes them, per slot or
    through the policy's plan."""

    def __init__(self, policy, planned: bool):
        self.policy = policy
        self.actions = []
        if planned:
            self.plan = self._plan

    def __call__(self, env, state):
        self.actions.append(self.policy(env, state))
        return self.actions[-1]

    def _plan(self, env):
        actions = self.policy.plan(env)
        self.actions += actions
        return actions


def agent_for(kind: str, m: int):
    """A fresh agent whose greedy decisions change from slot to slot: its
    last layer is steepened and centred on the states of one episode."""
    cfg = EnvConfig(num_faps=1, mds_per_fap=m)
    agent = build_agent(kind, cfg, seed=m)
    net = agent.actor if kind == "ddpg" else agent.net
    env = FogCellEnv(cfg, seed=m)
    env.reset()
    _, cache = forward(net, env.flatten_state(env.trace_states()))
    net.weights[-1] *= 20.0
    net.biases[-1][...] = -np.median(cache[-2] @ net.weights[-1], axis=0)
    if kind == "dqn":
        # and local execution wins about half of the heads' picks
        q = (cache[-2] @ net.weights[-1] + net.biases[-1]).reshape(
            -1, m, ACTIONS_PER_MD)
        net.biases[-1][::ACTIONS_PER_MD] += np.median(
            q[..., 1:].max(axis=-1) - q[..., 0], axis=0)
    return cfg, agent


class TestPlannedEpisodes:
    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    @pytest.mark.parametrize("kind", ["ddpg", "dqn"])
    def test_planned_episodes_match_per_slot_ones(self, kind, m, capsys):
        cfg, agent = agent_for(kind, m)
        policy = agent.policy()
        cells = FogCellEnv(cfg, seed=40 + m), FogCellEnv(cfg, seed=40 + m)
        equal, distinct = 0, set()
        for _ in range(EPISODES):
            runs = [Recorded(policy, planned) for planned in (False, True)]
            got = [rollout_episode(cell, run) for cell, run in zip(cells, runs)]
            per_slot, planned = runs
            assert len(planned.actions) == cfg.steps_per_episode
            for a, b in zip(per_slot.actions, planned.actions):
                np.testing.assert_array_equal(a.offload, b.offload)
                np.testing.assert_allclose(b.compute_share, a.compute_share,
                                           rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(b.bandwidth_share,
                                           a.bandwidth_share,
                                           rtol=0.0, atol=1e-12)
                distinct.add(a.to_raw().tobytes())
            np.testing.assert_allclose(got[1], got[0], rtol=1e-12)
            equal += got[0] == got[1]
        # the decisions change from slot to slot
        assert len(distinct) > 1
        with capsys.disabled():
            print(f"\n[planned {kind} M={m}] {equal} of {EPISODES} episodes "
                  f"have bit-equal metrics", end="")


class TestBatchedHelpers:
    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    def test_flatten_rows_equal_one_row_calls(self, m):
        cfg = EnvConfig(num_faps=1, mds_per_fap=m, steps_per_episode=9)
        env = FogCellEnv(cfg, seed=m)
        env.reset()
        rows = flatten_state(env.trace_states(), cfg)
        assert rows.shape == (9, cfg.state_dim)
        for t in range(9):
            one = flatten_state(env._slot(t), cfg)
            assert rows[t].tobytes() == one.tobytes()

    def test_trace_states_start_at_the_current_slot(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=2, steps_per_episode=6)
        env = FogCellEnv(cfg, seed=3)
        env.reset()
        for _ in range(4):
            env.step(sanitize_action(np.zeros(6)))
        left = env.trace_states()
        assert isinstance(left, SlotState) and left.task_bits.shape == (2, 2)
        np.testing.assert_array_equal(left.task_bits[0], env.state.task_bits)

    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    def test_decode_rows_equal_one_row_calls(self, m):
        rng = np.random.default_rng(m)
        raw = rng.uniform(size=(40, 3 * m))
        raw[:5, :m] = 0.0                          # all-local rows
        raw[5:10, :m] = 1.0                        # all offloaded
        rows = decode_shares(raw)
        assert rows.shape == raw.shape
        for r, one in zip(raw, rows):
            assert decode_shares(r).tobytes() == one.tobytes()
        assert not rows[:5, m:].any()

    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    def test_decode_action_rows_equal_one_row_calls(self, m):
        idx = np.random.default_rng(m).integers(0, ACTIONS_PER_MD, (30, m))
        idx[0] = 0
        rows = decode_action(idx, m)
        for i, one in zip(idx, rows):
            assert decode_action(i, m).tobytes() == one.tobytes()

    def test_decode_action_refuses_wrong_width_rows(self):
        with pytest.raises(ValueError, match="expected 3 indices"):
            decode_action(np.zeros((4, 2), dtype=int), 3)


class TestRollout:
    def test_plain_callable_is_called_once_per_slot(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=7)
        env = FogCellEnv(cfg, seed=2)
        seen = []

        def policy(e, state):
            assert e is env and state is env.state
            seen.append(e.t)
            return sanitize_action(np.zeros(9))

        rollout_episode(env, policy)
        assert seen == list(range(7))

    @pytest.mark.parametrize("copies,want", [(0, 0), (1, 6), (2, 12)])
    def test_plan_of_wrong_length_refused(self, copies, want):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=7)
        greedy = build_agent("ddpg", cfg, seed=0).policy()

        def policy(env, state):
            raise AssertionError("a planned episode calls no slot policy")

        policy.plan = lambda env: (greedy.plan(env) * copies)[:want]
        with pytest.raises(ValueError,
                           match=rf"^plan\(env\) gave {want} actions, not 7$"):
            rollout_episode(FogCellEnv(cfg, seed=1), policy)
