"""The greedy policy: one forward over an episode's rows.

rollout_episode calls a policy once, on the (T, M) rows of the episode's
trace. The greedy policy decides them with one forward, one decode and one
sanitize_action call. Each row's decision is the one the per-slot greedy
path takes on its slot; the batched forward may round the shares
differently in the last bits, which the episode metrics then show.
"""

import numpy as np
import pytest

from fedfog.dqn import ACTIONS_PER_MD, decode_action
from fedfog.env import (ActionConstraintError, ActionVector, EnvConfig,
                        FogCellEnv, SlotState, decode_shares, flatten_state,
                        rollout_episode, sanitize_action)
from fedfog.federated import build_agent
from fedfog.nn import forward

EPISODES = 10


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


def per_slot_greedy(agent, kind: str, state: np.ndarray) -> ActionVector:
    """The greedy decision on one flat state, through the agent's own
    one-slot path."""
    if kind == "ddpg":
        return sanitize_action(decode_shares(
            agent.select_action(state, explore=False)))
    return sanitize_action(decode_action(agent.select(state, 0.0),
                                         agent.num_mds))


class TestOneCallEpisodes:
    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    @pytest.mark.parametrize("kind", ["ddpg", "dqn"])
    def test_one_call_matches_per_slot_greedy(self, kind, m, capsys):
        cfg, agent = agent_for(kind, m)
        policy = agent.policy()
        cell, stepped = FogCellEnv(cfg, seed=40 + m), FogCellEnv(cfg, seed=40 + m)
        equal, distinct = 0, set()
        for _ in range(EPISODES):
            calls = []

            def recorded(env, states):
                calls.append(policy(env, states))
                return calls[-1]

            got = rollout_episode(cell, recorded)
            assert len(calls) == 1
            rows = calls[0]
            assert rows.offload.shape == (cfg.steps_per_episode, m)
            state = stepped.reset()
            for t in range(cfg.steps_per_episode):
                action = per_slot_greedy(agent, kind,
                                         stepped.flatten_state(state))
                np.testing.assert_array_equal(rows.offload[t], action.offload)
                np.testing.assert_allclose(rows.compute_share[t],
                                           action.compute_share,
                                           rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(rows.bandwidth_share[t],
                                           action.bandwidth_share,
                                           rtol=0.0, atol=1e-12)
                distinct.add(action.to_raw().tobytes())
                _, state = stepped.step(action)
            want = stepped.episode_metrics()
            np.testing.assert_allclose(got, want, rtol=1e-12)
            equal += got == want
        # the decisions change from slot to slot
        assert len(distinct) > 1
        with capsys.disabled():
            print(f"\n[one call {kind} M={m}] {equal} of {EPISODES} episodes "
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
    def test_policy_is_called_once_on_the_trace_rows(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=7)
        env = FogCellEnv(cfg, seed=2)
        seen = []

        def policy(e, states):
            assert e is env and e.t == 0 and e.last_cost is None
            seen.append(states)
            return sanitize_action(np.zeros((7, 9)))

        rollout_episode(env, policy)
        assert len(seen) == 1 and isinstance(seen[0], SlotState)
        env.reset(seed=2)
        trace = env.trace_states()
        assert seen[0].task_bits.shape == (7, 3)
        for name, rows in vars(seen[0]).items():
            assert rows.tobytes() == getattr(trace, name).tobytes()

    @pytest.mark.parametrize("want", [0, 6, 8, 12, "one slot", "wider",
                                      "ragged"])
    def test_actions_not_one_row_per_slot_refused_whole(self, want):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=7)
        greedy = build_agent("ddpg", cfg, seed=0).policy()

        def policy(env, states):
            x, y, z = vars(greedy(env, states)).values()
            if want == "one slot":      # one slot's action for all 7
                return ActionVector(x[0], y[0], z[0])
            if want == "wider":         # rows for a cell of 4 MDs
                return ActionVector(*(np.pad(v, ((0, 0), (0, 1)))
                                      for v in (x, y, z)))
            if want == "ragged":        # compute shares for 2 MDs
                return ActionVector(x, y[:, :2], z)
            return ActionVector(*(np.concatenate([v, v])[:want]
                                  for v in (x, y, z)))

        env = FogCellEnv(cfg, seed=1)
        with pytest.raises(ActionConstraintError,
                           match="^length mismatch: ") as err:
            rollout_episode(env, policy)
        assert err.value.slot is None
        assert env.t == 0 and env.last_cost is None
