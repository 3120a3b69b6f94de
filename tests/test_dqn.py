"""Discrete-action baseline agent: action catalog, TD math, exploration."""

import numpy as np
import pytest

from fedfog.dqn import (ACTIONS_PER_MD, CATALOG, SHARE_LEVELS, DqnAgent,
                        DqnHyperParams, decode_action)
from fedfog.env import EnvConfig, FogCellEnv, sanitize_action
from fedfog.federated import build_agent
from fedfog.nn import forward
from fedfog.replay import Transition


def encode(y_level, z_level):
    """Inverse of decode_action for one offloading MD, used to cross-check
    the catalog."""
    return 1 + (y_level - 1) * SHARE_LEVELS + (z_level - 1)


def tiny_hp(**over):
    base = dict(replay_capacity=500, batch_size=32, hidden=(16, 8))
    base.update(over)
    return DqnHyperParams(**base)


class TestDecodeAction:
    def test_catalog_size(self):
        assert ACTIONS_PER_MD == 26
        assert CATALOG.shape == (26, 3)
        assert not CATALOG.flags.writeable

    def test_all_local(self):
        raw = decode_action([0, 0, 0], 3)
        np.testing.assert_array_equal(raw, np.zeros(9))

    def test_named_example(self):
        # levels (3, 5) and (1, 1) -> weights 1.5, 1.0 and 2.0, 1.0
        raw = decode_action([encode(3, 5), encode(1, 1)], 2)
        np.testing.assert_allclose(raw, [1.0, 1.0, 0.6, 0.4, 2 / 3, 1 / 3])

    def test_low_indices_are_offload_combos(self):
        # index 3 -> y level 1, z level 3; index 5 -> y 1, z 5
        raw = decode_action([3, 5], 2)
        np.testing.assert_allclose(raw, [1.0, 1.0, 0.5, 0.5, 3 / 7, 4 / 7])

    def test_top_share_combo(self):
        np.testing.assert_allclose(decode_action([encode(5, 5)], 1),
                                   [1.0, 1.0, 1.0])
        raw = decode_action([encode(5, 5), encode(1, 1)], 2)
        np.testing.assert_allclose(raw, [1.0, 1.0, 2 / 3, 1 / 3, 2 / 3, 1 / 3])

    def test_level_grid_round_trip(self):
        np.testing.assert_array_equal(CATALOG[0], [0.0, 0.0, 0.0])
        for y in range(1, 6):
            for z in range(1, 6):
                row = CATALOG[encode(y, z)]
                assert row[0] == 1.0
                assert row[1] == pytest.approx((y - 1) / 4)
                assert row[2] == pytest.approx((z - 1) / 4)
                # beside an MD at the lowest levels, weight 1 + r vs 1
                raw = decode_action([encode(y, z), encode(1, 1)], 2)
                assert raw[2] == pytest.approx((1 + row[1]) / (2 + row[1]))
                assert raw[4] == pytest.approx((1 + row[2]) / (2 + row[2]))

    def test_every_nonzero_index_offloads(self):
        for idx in range(1, ACTIONS_PER_MD):
            act = sanitize_action(decode_action([idx], 1))
            assert act.offload[0] == 1
            assert act.compute_share[0] == 1.0
            assert act.bandwidth_share[0] == 1.0

    def test_every_index_distinct_before_sanitization(self):
        raws = {tuple(decode_action([i, encode(1, 1)], 2))
                for i in range(1, ACTIONS_PER_MD)}
        assert len(raws) == ACTIONS_PER_MD - 1

    def test_five_mds_at_level_one(self):
        # every MD offloading at the lowest level leaves the budgets exact
        raw = decode_action([encode(1, 1)] * 5, 5)
        np.testing.assert_allclose(raw[5:10], 0.2)
        np.testing.assert_allclose(raw[10:15], 0.2)

    def test_equal_levels_give_equal_split(self):
        for idx in range(1, ACTIONS_PER_MD):
            for k in range(1, 7):
                raw = decode_action([idx] * k + [0], k + 1)
                np.testing.assert_allclose(raw[k + 1:2 * k + 1], 1 / k,
                                           rtol=1e-15)
                np.testing.assert_allclose(raw[2 * k + 2:3 * k + 2], 1 / k,
                                           rtol=1e-15)

    def test_decoded_actions_pass_sanitize_unchanged(self):
        rng = np.random.default_rng(0)
        for m in range(1, 7):
            rows = [np.full(m, i) for i in range(ACTIONS_PER_MD)]
            rows += list(rng.integers(0, ACTIONS_PER_MD, size=(300, m)))
            for indices in rows:
                raw = decode_action(indices, m)
                np.testing.assert_allclose(sanitize_action(raw).to_raw(), raw,
                                           rtol=0, atol=1e-15)

    def test_local_mds_carry_zero_shares(self):
        raw = decode_action([0, 7], 2)
        assert raw[0] == 0.0 and raw[2] == 0.0 and raw[4] == 0.0
        assert raw[1] == 1.0 and raw[3] > 0.0 and raw[5] > 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            decode_action([0, 1], 3)
        with pytest.raises(ValueError):
            decode_action([ACTIONS_PER_MD], 1)
        with pytest.raises(ValueError):
            decode_action([-1], 1)


class TestSelect:
    def test_greedy_takes_argmax_per_head(self):
        agent = DqnAgent(4, 2, tiny_hp(), seed=0)
        s = np.random.default_rng(1).uniform(size=4)
        q, _ = forward(agent.net, s[None])
        expect = q.reshape(2, ACTIONS_PER_MD).argmax(axis=1)
        np.testing.assert_array_equal(agent.select(s, epsilon=0.0), expect)

    def test_zero_net_ties_resolve_to_local(self):
        agent = DqnAgent(4, 3, tiny_hp(), seed=2)
        for w in agent.net.weights:
            w[:] = 0.0
        assert agent.select(np.ones(4), epsilon=0.0).tolist() == [0, 0, 0]

    def test_full_epsilon_is_uniform(self):
        agent = DqnAgent(4, 1, tiny_hp(), seed=3)
        s = np.zeros(4)
        n = 10000
        picks = np.array([agent.select(s, epsilon=1.0)[0] for _ in range(n)])
        counts = np.bincount(picks, minlength=ACTIONS_PER_MD)
        p = 1.0 / ACTIONS_PER_MD
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3.5 * sigma)

    def test_epsilon_decay_schedule(self):
        agent = DqnAgent(4, 1, tiny_hp(epsilon_start=0.8, epsilon_decay=0.5,
                                       epsilon_floor=0.15), seed=4)
        agent.end_episode()
        assert agent.epsilon == pytest.approx(0.4)
        agent.end_episode()
        assert agent.epsilon == pytest.approx(0.2)
        agent.end_episode()
        assert agent.epsilon == pytest.approx(0.15)
        agent.end_episode()
        assert agent.epsilon == pytest.approx(0.15)

    def test_floor_above_the_start_leaves_epsilon_alone(self):
        agent = DqnAgent(4, 1, tiny_hp(epsilon_start=0.0, epsilon_floor=1.0),
                         seed=4)
        for _ in range(3):
            agent.end_episode()
            assert agent.epsilon == 0.0


class TestTdUpdate:
    def constant_nets(self, agent, online, target):
        for w in agent.net.weights:
            w[:] = 0.0
        for b in agent.net.biases:
            b[:] = 0.0
        agent.net.biases[-1][:] = online
        for w in agent.target.weights:
            w[:] = 0.0
        for b in agent.target.biases:
            b[:] = 0.0
        agent.target.biases[-1][:] = target

    def test_gamma_zero_target_is_reward(self):
        agent = DqnAgent(2, 1, tiny_hp(gamma=0.0), seed=5)
        self.constant_nets(agent, online=2.0, target=7.0)   # target net ignored
        batch = Transition(np.zeros((1, 2)), np.zeros((1, 1)),
                           np.array([0.5]), np.zeros((1, 2)))
        loss = agent.td_update(batch)
        assert loss == pytest.approx((2.0 - 0.5) ** 2, rel=1e-12)

    def test_bootstrap_uses_max_of_target_head(self):
        agent = DqnAgent(2, 1, tiny_hp(gamma=0.9), seed=6)
        self.constant_nets(agent, online=2.8, target=0.0)
        # lift one target action value so the head max is 2, not 0
        agent.target.biases[-1][17] = 2.0
        batch = Transition(np.zeros((1, 2)), np.zeros((1, 1)),
                           np.array([1.0]), np.zeros((1, 2)))
        loss = agent.td_update(batch)                      # y = 1 + 0.9*2 = 2.8
        assert loss == pytest.approx(0.0, abs=1e-25)

    def test_per_head_errors_sum(self):
        agent = DqnAgent(2, 2, tiny_hp(gamma=0.0), seed=7)
        self.constant_nets(agent, online=1.0, target=0.0)
        batch = Transition(np.zeros((1, 2)), np.array([[0.0, 3.0]]),
                           np.array([0.0]), np.zeros((1, 2)))
        loss = agent.td_update(batch)
        assert loss == pytest.approx(1.0 + 1.0, rel=1e-12)

    def test_frozen_batch_loss_decreases(self):
        agent = DqnAgent(3, 2, tiny_hp(gamma=0.0, lr=0.01,
                                       target_sync_period=10 ** 9), seed=8)
        rng = np.random.default_rng(9)
        batch = Transition(rng.uniform(size=(16, 3)),
                           rng.integers(0, ACTIONS_PER_MD, size=(16, 2)).astype(float),
                           rng.normal(size=16), rng.uniform(size=(16, 3)))
        first = agent.td_update(batch)
        for _ in range(300):
            last = agent.td_update(batch)
        assert last < first * 0.05

    def test_target_syncs_on_schedule(self):
        agent = DqnAgent(2, 1, tiny_hp(target_sync_period=3, lr=0.05), seed=10)
        batch = Transition(np.ones((1, 2)), np.zeros((1, 1)),
                           np.array([1.0]), np.ones((1, 2)))

        def nets_equal():
            return np.array_equal(agent.target.params, agent.net.params)

        agent.td_update(batch)
        assert not nets_equal()
        agent.td_update(batch)
        assert not nets_equal()
        agent.td_update(batch)                 # third update triggers the sync
        assert nets_equal()

    def test_sync_target_copies_exactly(self):
        agent = DqnAgent(3, 2, tiny_hp(), seed=11)
        agent.net.params += 0.25
        agent.sync_target()
        np.testing.assert_array_equal(agent.target.params, agent.net.params)


class TestTrainingLoop:
    def test_episode_report_and_determinism(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=2, steps_per_episode=40)
        outs = []
        for _ in range(2):
            env = FogCellEnv(cfg, seed=12)
            agent = DqnAgent(cfg.state_dim, cfg.mds_per_fap, tiny_hp(), seed=13)
            reports = [agent.train_episode(env) for _ in range(3)]
            outs.append((reports, agent.export_weights().values.copy()))
        (ra, wa), (rb, wb) = outs
        assert [r.total_reward for r in ra] == [r.total_reward for r in rb]
        np.testing.assert_array_equal(wa, wb)
        rep = ra[0]
        assert rep.mean_cost == pytest.approx(
            0.5 * rep.mean_delay + 0.5 * rep.mean_energy, abs=1e-9)
        assert rep.updates == 40 - 32 + 1      # warm-up ends at batch_size

    def test_buffer_stores_action_indices(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=2, steps_per_episode=10)
        env = FogCellEnv(cfg, seed=14)
        agent = DqnAgent(cfg.state_dim, cfg.mds_per_fap, tiny_hp(), seed=15)
        agent.train_episode(env)
        stored = agent.buffer.actions[:10]
        assert np.array_equal(stored, np.round(stored))
        assert stored.min() >= 0 and stored.max() < ACTIONS_PER_MD

    def test_load_global_resyncs_target(self):
        src = DqnAgent(3, 2, tiny_hp(), seed=16)
        src.target.params += 1.0
        dst = DqnAgent(3, 2, tiny_hp(), seed=17)
        dst.load_global(src.export_weights())
        np.testing.assert_array_equal(dst.target.params, dst.net.params)
        np.testing.assert_array_equal(dst.net.weights[0], src.net.weights[0])

    def test_upload_holds_online_net_only(self):
        agent = DqnAgent(3, 2, tiny_hp(), seed=18)
        agent.target.params += 1.0
        flat = agent.export_weights()
        np.testing.assert_array_equal(flat.values, agent.net.params)
        assert flat.activations == agent.net.activations

    def test_paper_scale_upload_size(self):
        agent = build_agent("dqn", EnvConfig(num_faps=4, mds_per_fap=5), 0)
        assert agent.export_weights().values.size == 51630

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            DqnHyperParams(gamma=-0.1)
        with pytest.raises(ValueError):
            DqnHyperParams(target_sync_period=0)
