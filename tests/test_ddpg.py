"""Actor-critic agent: update math on hand-built networks, then behavior.

Every agent here is built for a cell of M MDs, like the agents the program
trains: at M = 1 the state has 7 entries and the raw output 3, and at M = 2
they are 12 and 6. The critic reads the state and the share features of
the raw output, so at M = 1 its input column 7 is the offload output.
"""

import numpy as np
import pytest

from fedfog import ddpg
from fedfog.ddpg import (DdpgAgent, DdpgHyperParams, decode_shares,
                         share_features)
from fedfog.env import (EnvConfig, FogCellEnv, flatten_state, md_rotations,
                        rollout_episode, sanitize_action)
from fedfog.nn import forward
from fedfog.replay import Transition


def tiny_hp(**over):
    base = dict(replay_capacity=500, batch_size=64, hidden=(8, 8))
    base.update(over)
    return DdpgHyperParams(**base)


def zero_net(net, final_bias):
    """Constant-output network: all weights zero, output bias fixed."""
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = final_bias


def make_agent(num_mds=1, seed=0, **hp_over):
    return DdpgAgent(num_mds, tiny_hp(**hp_over), seed=seed)


class TestSelectAction:
    def test_greedy_is_deterministic(self):
        agent = make_agent(num_mds=1, seed=1)
        s = np.random.default_rng(2).uniform(size=7)
        a1 = agent.select_action(s, explore=False)
        a2 = agent.select_action(s, explore=False)
        np.testing.assert_array_equal(a1, a2)
        assert a1.shape == (3,)

    def test_zero_noise_explore_equals_greedy(self):
        agent = make_agent(num_mds=1, seed=1, noise_std=0.0)
        s = np.random.default_rng(3).uniform(size=7)
        np.testing.assert_array_equal(agent.select_action(s, True),
                                      agent.select_action(s, False))

    def test_huge_noise_still_clipped(self):
        agent = make_agent(num_mds=2, seed=1, noise_std=1e4)
        s = np.zeros(12)
        for _ in range(20):
            a = agent.select_action(s, explore=True)
            assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_noise_decay_schedule(self):
        agent = make_agent(noise_std=0.2, noise_decay=0.5, noise_floor=0.04)
        agent.end_episode()
        assert agent.noise_std == pytest.approx(0.1)
        agent.end_episode()
        assert agent.noise_std == pytest.approx(0.05)
        agent.end_episode()
        assert agent.noise_std == pytest.approx(0.04)   # floor holds
        agent.end_episode()
        assert agent.noise_std == pytest.approx(0.04)

    def test_floor_above_the_start_leaves_the_noise_alone(self):
        agent = make_agent(noise_std=0.0, noise_floor=0.01)
        for _ in range(3):
            agent.end_episode()
            assert agent.noise_std == 0.0


class TestDecodeShares:
    def split(self, raw):
        out = decode_shares(np.asarray(raw, dtype=float))
        m = len(raw) // 3
        return out[:m] > 0.5, out[m:2 * m], out[2 * m:]

    def test_offloaded_shares_spend_whole_budget(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            raw = rng.uniform(size=3 * m)
            off, y, z = self.split(raw)
            if off.any():
                assert y.sum() == pytest.approx(1.0, abs=1e-12)
                assert z.sum() == pytest.approx(1.0, abs=1e-12)

    def test_each_offloaded_share_keeps_its_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            raw = rng.uniform(size=3 * m)
            raw[m:][rng.uniform(size=2 * m) < 0.3] = 0.0    # outputs at 0
            off, y, z = self.split(raw)
            k = int(off.sum())
            if k:
                assert np.all(y[off] >= 1.0 / (2 * k - 1) - 1e-15)
                assert np.all(z[off] >= 1.0 / (2 * k - 1) - 1e-15)

    def test_minimum_is_reached_at_zero_output(self):
        # one MD at 0 against two at 1: 1 / (1 + 2 + 2) = 1 / (2k - 1)
        off, y, z = self.split([1, 1, 1, 0, 1, 1, 1, 0, 1])
        assert off.all()
        np.testing.assert_allclose(y, [0.2, 0.4, 0.4], rtol=1e-15)
        np.testing.assert_allclose(z, [0.4, 0.2, 0.4], rtol=1e-15)

    def test_local_mds_get_zero_share(self):
        off, y, z = self.split([0.9, 0.1, 0.7, 0.3, 0.8, 0.6, 0.2, 1.0, 0.4])
        np.testing.assert_array_equal(off, [True, False, True])
        assert y[1] == 0.0 and z[1] == 0.0
        np.testing.assert_allclose(y[[0, 2]], [1.3 / 2.9, 1.6 / 2.9], rtol=1e-15)
        off, y, z = self.split([0.1, 0.9, 0.9])
        assert not off.any() and not y.any() and not z.any()

    def test_equal_outputs_give_equal_split(self):
        for r in (0.0, 0.37, 1.0):
            off, y, z = self.split([1.0] * 4 + [r] * 8)
            np.testing.assert_allclose(y, 0.25, rtol=1e-15)
            np.testing.assert_allclose(z, 0.25, rtol=1e-15)

    def test_single_md_takes_full_share(self):
        for r in (0.0, 0.5, 1.0):
            off, y, z = self.split([0.8, r, 1.0 - r])
            assert off[0] and y[0] == 1.0 and z[0] == 1.0

    def test_decoded_action_is_feasible_unchanged_by_sanitize(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            decoded = decode_shares(rng.uniform(size=9))
            action = sanitize_action(decoded)
            action.validate()
            np.testing.assert_allclose(action.to_raw()[3:], decoded[3:],
                                       atol=1e-15)

    def test_greedy_and_training_steps_share_the_decoding(self):
        # without noise and before the buffer is warm, a training episode
        # acts exactly like the greedy policy on the same episode draws
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=20)
        agent = DdpgAgent(cfg.mds_per_fap, tiny_hp(noise_std=0.0), seed=33)
        # push every offload output above 0.5 so the shares matter
        agent.actor.biases[-1][:cfg.mds_per_fap] = 10.0
        rep = agent.train_episode(FogCellEnv(cfg, seed=34))
        assert rep.updates == 0
        greedy = rollout_episode(FogCellEnv(cfg, seed=34), agent.policy())
        assert (rep.total_reward, rep.mean_cost, rep.mean_delay,
                rep.mean_energy) == greedy
        env = FogCellEnv(cfg, seed=34)
        state = env.reset()
        s = env.flatten_state(state)
        raw = agent.select_action(s, explore=False)
        want = sanitize_action(decode_shares(raw))
        got = agent.policy()(env, state)
        np.testing.assert_array_equal(got.to_raw(), want.to_raw())
        assert got.offload.all()
        assert got.compute_share.sum() == pytest.approx(1.0, abs=1e-12)


class TestShareFeatures:
    def test_equal_outputs_give_unit_features(self):
        raw = np.array([[0.9, 0.2, 0.7, 0.4, 0.4, 0.4, 0.8, 0.8, 0.8]])
        features, _ = share_features(raw)
        np.testing.assert_array_equal(features[0, :3], raw[0, :3])
        np.testing.assert_allclose(features[0, 3:], 1.0, rtol=1e-15)

    def test_features_are_scaled_inverse_shares(self):
        # r = (0, 1): all-offloaded shares 1/3 and 2/3 -> 1 / (2 * share)
        features, _ = share_features(np.array([[1.0, 1.0, 0.0, 1.0, 1.0, 0.0]]))
        np.testing.assert_allclose(features[0, 2:], [1.5, 0.75, 0.75, 1.5],
                                   rtol=1e-15)

    def test_pullback_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        raw = rng.uniform(size=(4, 9))
        grad = rng.normal(size=(4, 9))
        _, pullback = share_features(raw)
        analytic = pullback(grad)
        h = 1e-6
        for j in range(9):
            up, down = raw.copy(), raw.copy()
            up[:, j] += h
            down[:, j] -= h
            fd = np.sum((share_features(up)[0] - share_features(down)[0])
                        * grad, axis=1) / (2 * h)
            np.testing.assert_allclose(analytic[:, j], fd, atol=1e-8)


class TestRotations:
    def cell_agent(self, m=3, seed=36):
        cfg = EnvConfig(num_faps=1, mds_per_fap=m)
        return cfg, DdpgAgent(m, tiny_hp(), seed=seed)

    def test_greedy_action_follows_md_relabeling(self):
        cfg, agent = self.cell_agent()
        state = FogCellEnv(cfg, seed=37).reset()
        greedy = agent.select_action(flatten_state(state, cfg), explore=False)
        state_maps, action_maps = md_rotations(cfg.mds_per_fap)
        for k in range(1, cfg.mds_per_fap):
            moved = flatten_state(state, cfg)[state_maps[k]]
            np.testing.assert_allclose(agent.select_action(moved, False),
                                       greedy[action_maps[k]], rtol=1e-12)

    def test_actor_gradient_through_rotations(self, monkeypatch):
        # with Adam patched out, actor_update only reports its objective and
        # hands over its gradient; reseeding the agent repeats the rotations
        cfg, agent = self.cell_agent()
        states = np.random.default_rng(38).uniform(size=(6, cfg.state_dim))
        batch = Transition(states, None, None, None)
        captured = []
        monkeypatch.setattr(ddpg, "adam_step",
                            lambda params, grads, opt: captured.append(grads))

        def objective():
            agent.rng = np.random.default_rng(39)
            return agent.actor_update(batch)

        objective()
        w, b = agent.actor.weights[-1], agent.actor.biases[-1]
        # d objective / d output weights
        ascent = -captured[0][-w.size - b.size:-b.size].reshape(w.shape)
        h = 1e-6
        for idx in [(0, 0), (3, 4), (7, 8), (5, 2)]:
            w0 = w[idx]
            w[idx] = w0 + h
            up = objective()
            w[idx] = w0 - h
            down = objective()
            w[idx] = w0
            assert ascent[idx] == pytest.approx((up - down) / (2 * h),
                                                rel=1e-5, abs=1e-10)


class TestCriticUpdate:
    def batch(self, r=1.0):
        return Transition(np.zeros((1, 7)), np.zeros((1, 3)),
                          np.array([r]), np.zeros((1, 7)))

    def test_bootstrap_target_hits_loss_zero(self):
        # constant critic output 2.8 vs target y = r + gamma*Q' = 1 + 0.9*2
        agent = make_agent(gamma=0.9)
        zero_net(agent.critic, 2.8)
        zero_net(agent.target_critic, 2.0)
        loss = agent.critic_update(self.batch(r=1.0))
        assert loss == pytest.approx(0.0, abs=1e-25)

    def test_gamma_zero_regresses_onto_reward(self):
        agent = make_agent(gamma=0.0)
        zero_net(agent.critic, 2.8)
        zero_net(agent.target_critic, 2.0)
        loss = agent.critic_update(self.batch(r=1.0))
        assert loss == pytest.approx((2.8 - 1.0) ** 2, rel=1e-12)

    def test_update_moves_prediction_toward_target(self):
        agent = make_agent(gamma=0.0, critic_lr=0.01)
        zero_net(agent.critic, 2.8)
        zero_net(agent.target_critic, 2.0)
        batch = self.batch(r=1.0)
        agent.critic_update(batch)
        q, _ = forward(agent.critic, np.hstack(
            [batch.state, share_features(batch.action)[0]]))
        assert abs(float(q[0, 0]) - 1.0) < abs(2.8 - 1.0)

    def test_repeated_regression_converges(self):
        agent = make_agent(num_mds=2, seed=4, gamma=0.0, critic_lr=0.01)
        rng = np.random.default_rng(5)
        batch = Transition(rng.uniform(size=(16, 12)), rng.uniform(size=(16, 6)),
                           rng.normal(size=16), rng.uniform(size=(16, 12)))
        first = agent.critic_update(batch)
        for _ in range(400):
            last = agent.critic_update(batch)
        assert last < first * 0.05

    def test_batch_loss_is_mean_squared_error(self):
        agent = make_agent(gamma=0.0)
        zero_net(agent.critic, 2.0)
        zero_net(agent.target_critic, 0.0)
        batch = Transition(np.zeros((2, 7)), np.zeros((2, 3)),
                           np.array([1.0, 3.0]), np.zeros((2, 7)))
        loss = agent.critic_update(batch)
        assert loss == pytest.approx(((2 - 1) ** 2 + (2 - 3) ** 2) / 2, rel=1e-12)

    def test_critic_reads_decoded_shares(self):
        # weights with 1 + r' = c * (1 + r) in a share group decode to the
        # same shares, so the critic must give both the same loss
        rng = np.random.default_rng(40)
        states, rewards = rng.uniform(size=(8, 17)), rng.normal(size=8)
        raw = rng.uniform(size=(8, 9))
        raw[:, 3:] *= 0.5
        scale = rng.uniform(1.0, 1.3, size=(8, 2, 1))
        scaled = raw.copy()
        scaled[:, 3:] = (scale * (1.0 + raw[:, 3:].reshape(8, 2, 3))
                         - 1.0).reshape(8, 6)
        assert np.all(scaled <= 1.0) and np.abs(scaled - raw).max() > 0.1
        losses = [make_agent(num_mds=3, seed=41).critic_update(
            Transition(states, a, rewards, states[::-1])) for a in (raw, scaled)]
        assert losses[0] == pytest.approx(losses[1], rel=0, abs=1e-12)


class TestActorUpdate:
    def test_indifferent_critic_leaves_actor_unchanged(self):
        agent = make_agent(num_mds=2, seed=6)
        for w in agent.critic.weights:
            w[:] = 0.0
        before = agent.actor.params.copy()
        agent.actor_update(Transition(np.random.default_rng(7).uniform(size=(8, 12)),
                                      None, None, None))
        np.testing.assert_array_equal(agent.actor.params, before)

    def test_actor_climbs_handbuilt_q_peak(self):
        # critic computes Q = -|x - 0.3| for the offload output x (input
        # column 7) regardless of state and shares, built from two relu
        # units (x - 0.3) and (0.3 - x), a pass-through second layer, and
        # output weights [-1, -1]; the actor's x should converge to 0.3
        agent = make_agent(num_mds=1, seed=8, actor_lr=0.01, hidden=(2, 2))
        c = agent.critic
        c.weights[0][:] = 0.0
        c.weights[0][7] = np.array([1.0, -1.0])
        c.biases[0][:] = np.array([-0.3, 0.3])
        c.weights[1][:] = np.eye(2)
        c.biases[1][:] = 0.0
        c.weights[2][:] = np.array([[-1.0], [-1.0]])
        c.biases[2][:] = 0.0
        probe = np.zeros((3, 7))
        probe[:, 0] = [0.1, 0.5, 0.9]
        q0 = agent.actor_update(Transition(probe, None, None, None))
        for _ in range(800):
            q_last = agent.actor_update(Transition(probe, None, None, None))
        actions, _ = forward(agent.actor, probe)
        np.testing.assert_allclose(actions[:, 0], 0.3, atol=0.05)
        assert q_last > q0

    def test_critic_untouched_by_actor_step(self):
        agent = make_agent(num_mds=1, seed=9)
        before = agent.critic.params.copy()
        agent.actor_update(Transition(np.random.default_rng(10).uniform(size=(4, 7)),
                                      None, None, None))
        np.testing.assert_array_equal(agent.critic.params, before)

    def test_actor_step_keeps_critic_step_gradient(self):
        # the actor step reads only the critic's input gradient, so the
        # critic's gradient buffer still holds the critic step's gradient
        agent = make_agent(num_mds=2, seed=11)
        rng = np.random.default_rng(12)
        batch = Transition(rng.uniform(size=(8, 12)), rng.uniform(size=(8, 6)),
                           rng.normal(size=8), rng.uniform(size=(8, 12)))
        agent.critic_update(batch)
        buffer, grad = agent.critic.grad, agent.critic.grad.copy()
        params = agent.critic.params.copy()
        agent.actor_update(batch)
        assert agent.critic.grad is buffer
        np.testing.assert_array_equal(agent.critic.grad, grad)
        np.testing.assert_array_equal(agent.critic.params, params)


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        agent = make_agent(num_mds=1, seed=11, tau=1.0)
        agent.actor.params += 0.5
        agent.soft_update()
        np.testing.assert_allclose(agent.target_actor.params,
                                   agent.actor.params, rtol=1e-15)

    def test_blend_arithmetic(self):
        agent = make_agent(num_mds=1, seed=12, tau=0.25)
        zero_net(agent.critic, 4.0)
        zero_net(agent.target_critic, 0.0)
        agent.soft_update()
        assert agent.target_critic.biases[-1][0] == pytest.approx(1.0)

    def test_geometric_tracking(self):
        agent = make_agent(num_mds=1, seed=13, tau=0.1)
        zero_net(agent.critic, 1.0)
        zero_net(agent.target_critic, 0.0)
        for _ in range(10):
            agent.soft_update()
        expect = 1.0 - (1.0 - 0.1) ** 10
        assert agent.target_critic.biases[-1][0] == pytest.approx(expect, rel=1e-12)


class TestTrainingLoop:
    def env_cfg(self, **over):
        base = dict(num_faps=1, mds_per_fap=2, steps_per_episode=50)
        base.update(over)
        return EnvConfig(**base)

    def test_warm_up_defers_updates(self):
        cfg = self.env_cfg()
        env = FogCellEnv(cfg, seed=0)
        agent = DdpgAgent(cfg.mds_per_fap, tiny_hp(), seed=0)
        rep1 = agent.train_episode(env)
        assert rep1.updates == 0
        assert np.isnan(rep1.mean_critic_loss)
        assert len(agent.buffer) == 50
        # episode 2 fills the buffer to 64 after 14 steps, then learns
        rep2 = agent.train_episode(env)
        assert rep2.updates == 37
        assert len(agent.buffer) == 100

    def test_each_state_flattened_once(self, monkeypatch):
        cfg = self.env_cfg(steps_per_episode=6)
        env = FogCellEnv(cfg, seed=2)
        calls = []
        monkeypatch.setattr(env, "flatten_state",
                            lambda s: calls.append(s) or flatten_state(s, cfg))
        agent = DdpgAgent(cfg.mds_per_fap, tiny_hp(), seed=2)
        agent.train_episode(env)
        assert len(calls) == cfg.steps_per_episode + 1
        buf = agent.buffer
        np.testing.assert_array_equal(buf.states[1:6], buf.next_states[:5])
        np.testing.assert_array_equal(buf.next_states[5],
                                      flatten_state(env.state, cfg))

    def test_update_step_returns_none_when_cold(self):
        agent = make_agent(num_mds=1)
        assert agent.update_step() is None

    def test_report_cost_identity(self):
        cfg = self.env_cfg(weight_delay=0.3)
        env = FogCellEnv(cfg, seed=1)
        agent = DdpgAgent(cfg.mds_per_fap, tiny_hp(), seed=1)
        rep = agent.train_episode(env)
        assert rep.mean_cost == pytest.approx(
            0.3 * rep.mean_delay + 0.7 * rep.mean_energy, abs=1e-9)
        assert rep.total_reward == pytest.approx(
            -rep.mean_cost * cfg.steps_per_episode / cfg.mds_per_fap, rel=1e-9)

    def test_training_is_deterministic(self):
        cfg = self.env_cfg()
        outs = []
        for _ in range(2):
            env = FogCellEnv(cfg, seed=3)
            agent = DdpgAgent(cfg.mds_per_fap, tiny_hp(), seed=4)
            reports = [agent.train_episode(env) for _ in range(3)]
            outs.append((reports, agent.export_weights().values.copy()))
        (ra, wa), (rb, wb) = outs
        assert [r.total_reward for r in ra] == [r.total_reward for r in rb]
        assert [r.updates for r in ra] == [r.updates for r in rb]
        np.testing.assert_array_equal(wa, wb)

    def test_learns_to_offload_when_dominant(self):
        # near-zero noise power makes the uplink so fast that offloading
        # everything wins every slot; the greedy policy should discover it
        cfg = self.env_cfg(mds_per_fap=1, noise_power=1e-16,
                           steps_per_episode=25)
        env = FogCellEnv(cfg, seed=5)
        agent = DdpgAgent(cfg.mds_per_fap,
                          tiny_hp(hidden=(32, 16), batch_size=32), seed=5)
        for _ in range(60):
            agent.train_episode(env)
        policy = agent.policy()
        offloaded = total = 0
        eval_env = FogCellEnv(cfg, seed=6)
        for ep in range(4):
            state = eval_env.reset()
            for _ in range(cfg.steps_per_episode):
                act = policy(eval_env, state)
                offloaded += int(act.offload[0])
                total += 1
                _, state = eval_env.step(act)
        assert offloaded / total >= 0.95


class TestWeightExchange:
    def test_export_load_round_trip(self):
        agent = make_agent(num_mds=1, seed=20)
        flat = agent.export_weights()
        other = make_agent(num_mds=1, seed=21)
        other.load_global(flat)
        np.testing.assert_array_equal(other.export_weights().values, flat.values)

    def test_load_global_resyncs_targets(self):
        src = make_agent(num_mds=1, seed=22)
        # drift the source targets away from its online nets
        src.target_actor.params += 1.0
        flat = src.export_weights()
        dst = make_agent(num_mds=1, seed=23)
        dst.load_global(flat)
        np.testing.assert_array_equal(dst.target_actor.params, dst.actor.params)
        np.testing.assert_array_equal(dst.target_critic.params,
                                      dst.critic.params)
        np.testing.assert_array_equal(dst.actor.weights[0], src.actor.weights[0])

    def test_wrong_size_rejected(self):
        agent = make_agent(num_mds=2, seed=24)
        small = make_agent(num_mds=1, seed=25)
        with pytest.raises(ValueError):
            agent.load_global(small.export_weights())

    def test_other_layout_of_the_same_size_rejected(self):
        # hidden (2, 8) and (4, 3) hold the same number of values
        agent = make_agent(num_mds=1, seed=24, hidden=(2, 8))
        other = make_agent(num_mds=1, seed=25, hidden=(4, 3)).export_weights()
        assert other.values.size == agent.online.size
        with pytest.raises(ValueError, match="is not the agent's layout"):
            agent.load_global(other)

    def test_upload_holds_online_nets_only(self):
        agent = make_agent(num_mds=1, seed=26)
        agent.target_actor.params += 1.0
        flat = agent.export_weights()
        np.testing.assert_array_equal(
            flat.values, np.concatenate([agent.actor.params,
                                         agent.critic.params]))
        assert flat.activations == (agent.actor.activations
                                    + agent.critic.activations)

    def test_load_global_sets_every_target_to_its_online_value(self):
        agent = make_agent(num_mds=1, seed=27)
        for _ in range(3):
            agent.soft_update()
        flat = agent.export_weights()
        flat.values += np.random.default_rng(28).normal(size=flat.values.size)
        agent.load_global(flat)
        np.testing.assert_array_equal(agent.online, flat.values)
        np.testing.assert_array_equal(agent.targets, agent.online)
        for target, online in ((agent.target_actor, agent.actor),
                               (agent.target_critic, agent.critic)):
            for tw, w in zip(target.weights + target.biases,
                             online.weights + online.biases):
                np.testing.assert_array_equal(tw, w)

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            DdpgHyperParams(gamma=1.5)
        with pytest.raises(ValueError):
            DdpgHyperParams(tau=0.0)
        with pytest.raises(ValueError):
            DdpgHyperParams(batch_size=100, replay_capacity=50)
