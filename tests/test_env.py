"""Environment model: cost formulas, action constraints, episode mechanics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedfog.env as env_module
from fedfog import baselines
from fedfog.env import (_SUM_TOL, D_MIN, ActionConstraintError, ActionVector,
                        EnvConfig, EpisodeOverError, FogAccessPoint,
                        FogCellEnv, SlotState, _reflect, channel_gains,
                        flatten_state, md_energy_coeff, md_rotations,
                        rollout_episode, sanitize_action, slot_cost,
                        spectral_efficiency)
from oracles import ReferenceCell, straight_line_slot_cost


def make_fap(cpus, powers):
    """The devices of a cell, with the given per-MD values."""
    cpus = np.array(cpus, dtype=float)
    return FogAccessPoint(cpus, np.array(powers, dtype=float),
                          md_energy_coeff(cpus))


def one_md_cost(bits, cycles, offload=0, y=0.0, z=0.0, gain=1e-8,
                md_cpu=1.5e9, power=0.5, fap_cpu=5e9, bandwidth=1e7):
    """Delay (s) and energy (J) of one task in a one-MD cell, via slot_cost."""
    fap = make_fap([md_cpu], [power])
    state = SlotState(np.array([bits]), np.array([cycles]),
                      np.array([[10.0, 10.0]]), np.array([gain]))
    action = ActionVector(np.array([offload]), np.array([y]), np.array([z]))
    cfg = EnvConfig(mds_per_fap=1, fap_cpu=fap_cpu, bandwidth=bandwidth)
    out = slot_cost(state, action, fap, cfg)
    return out.per_md_delay[0], out.per_md_energy[0]


def random_slot(rng, config):
    """A consistent random (state, fap) pair without running the env."""
    m = config.mds_per_fap
    positions = rng.uniform(0.0, config.cell_side, size=(m, 2))
    cpus, powers = np.zeros(m), np.zeros(m)
    for i in range(m):
        cpus[i] = rng.uniform(*config.md_cpu_range)
        powers[i] = rng.uniform(*config.md_power_range)
        rng.uniform(*config.md_cpu_range)   # unused; keeps the seeded cells
    fap = FogAccessPoint(cpus, powers, md_energy_coeff(cpus))
    bits = rng.uniform(*config.task_bits_range, size=m)
    cpb = rng.uniform(*config.cycles_per_bit_range, size=m)
    gains = channel_gains(positions, config.fap_position,
                          config.path_loss_alpha)
    state = SlotState(bits, bits * cpb, positions, gains)
    return state, fap


class TestConfig:
    def test_dims(self):
        cfg = EnvConfig(mds_per_fap=5)
        assert cfg.state_dim == 27

    def test_validation_names_field(self):
        with pytest.raises(ValueError, match="bandwidth"):
            EnvConfig(bandwidth=0.0)
        with pytest.raises(ValueError, match="md_cpu_range"):
            EnvConfig(md_cpu_range=(2e9, 1e9))
        with pytest.raises(ValueError, match="weight_delay"):
            EnvConfig(weight_delay=1.5)
        with pytest.raises(ValueError, match="mds_per_fap"):
            EnvConfig(mds_per_fap=0)

    @pytest.mark.parametrize("name,value", [
        ("bandwidth", math.nan), ("fap_cpu", math.inf),
        ("noise_power", -math.inf), ("max_move_per_slot", math.nan),
        ("max_move_per_slot", math.inf), ("md_cpu_range", (1e9, math.inf)),
        ("task_bits_range", (math.nan, 1.0))])
    def test_non_finite_values_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            EnvConfig(**{name: value})

    def test_energy_weight_is_one_minus_delay_weight(self):
        assert EnvConfig(weight_delay=0.3).weight_energy == 0.7
        with pytest.raises(TypeError):
            EnvConfig(weight_energy=0.5)


def gain_at(*points):
    return channel_gains(np.array(points, dtype=float), np.zeros(2), 4.0)


class TestChannelGain:
    def test_powers_of_ten(self):
        assert gain_at((10.0, 0.0))[0] == 1e-4
        g = gain_at((200.0, 0.0))[0]
        assert g == pytest.approx(6.25e-10, rel=1e-12)

    def test_clamped_below_one_meter(self):
        np.testing.assert_array_equal(gain_at((0.5, 0.0), (0.0, 0.0)), 1.0)

    def test_monotone_beyond_clamp(self):
        gains = gain_at(*[(d, 0.0) for d in np.linspace(1.0, 300.0, 50)])
        assert np.all(gains[:-1] > gains[1:])


class TestLocalCost:
    def test_unit_cases(self):
        delay, energy = one_md_cost(1e6, 1e9, md_cpu=1e9)
        assert delay == 1.0
        assert energy == pytest.approx(1.0, rel=1e-12)

    def test_scalar_example(self):
        delay, energy = one_md_cost(1e6, 7e8, md_cpu=1.5e9)
        assert delay == pytest.approx(7e8 / 1.5e9, rel=1e-12)
        assert delay == pytest.approx(0.4667, abs=5e-5)
        assert energy == pytest.approx(1e-27 * 1.5e9 ** 2 * 7e8, rel=1e-12)
        assert energy == pytest.approx(1.575, rel=1e-4)


def rate_charged(z, power, gain, bits=5e6):
    """The rate slot_cost charged an offloaded task, from its transmit
    energy p * bits / rate (bandwidth 1e7 Hz, noise 1e-13 W)."""
    _, energy = one_md_cost(bits, 7e8, 1, 0.5, z, gain, power=power)
    return power * bits / energy


class TestUplinkRate:
    def test_snr_one(self):
        # p*g = noise, so log2(1+1) = 1
        assert rate_charged(0.5, 1.0, 1e-13) == pytest.approx(5e6)

    def test_zero_share_rejected_for_offloaded_md(self):
        with pytest.raises(ActionConstraintError, match="bandwidth_share"):
            one_md_cost(5e6, 7e8, 1, 0.5, 0.0, 1e-4, power=1.0)

    def test_cell_edge_rate(self):
        r = rate_charged(1.0, 1.0, 6.25e-10)
        assert r == pytest.approx(math.log2(1 + 6250) * 1e7, rel=1e-12)
        assert r == pytest.approx(1.2610e8, rel=1e-4)


class TestOffloadCost:
    def test_composed_unit_case(self):
        # rate 5e6 (SNR 1, z 0.5), compute 1e9 cyc at half of 5 GHz
        gain = 1e-13 / 0.5   # makes p*g equal the noise power
        delay, energy = one_md_cost(5e6, 1e9, 1, 0.5, 0.5, gain,
                                    md_cpu=1e9, power=0.5)
        assert delay == pytest.approx(0.4 + 1.0, rel=1e-12)
        assert energy == pytest.approx(0.5, rel=1e-12)

    def test_scalar_example(self):
        delay, energy = one_md_cost(2e6, 7e8, 1, 0.2, 0.2, 6.25e-10,
                                    md_cpu=1e9, power=1.0)
        rate = 0.2 * 1e7 * math.log2(1 + 6250)
        assert delay == pytest.approx(0.7 + 2e6 / rate, rel=1e-12)
        assert delay == pytest.approx(0.7793, abs=5e-5)
        assert energy == pytest.approx(2e6 / rate, rel=1e-12)

    def test_more_resource_never_hurts(self):
        d_half, _ = one_md_cost(2e6, 7e8, 1, 0.5, 0.5, 1e-8)
        d_full, _ = one_md_cost(2e6, 7e8, 1, 1.0, 1.0, 1e-8)
        assert d_full < d_half

    def test_floor_enforced(self):
        with pytest.raises(ActionConstraintError):
            one_md_cost(2e6, 7e8, 1, 1e-4, 0.5, 1e-8)


# Two-MD actions, each violating the named constraint.
BAD_ACTIONS = [
    (([1, 0], [0.5], [0.5, 0.0]), "length mismatch"),
    (([1, 2], [0.5, 0.5], [0.5, 0.5]), "offload not binary"),
    (([1, 0], [1.5, 0.0], [0.5, 0.0]), "compute_share outside [0, 1]"),
    (([1, 1], [0.8, 0.8], [0.3, 0.3]), "sum(compute_share) > 1"),
    (([1, 1], [0.5, 1e-4], [0.3, 0.3]),
     "compute_share below minimum share for an offloaded MD"),
    (([1, 0], [0.5, 0.0], [-0.1, 0.0]), "bandwidth_share outside [0, 1]"),
    (([1, 1], [0.3, 0.3], [0.8, 0.8]), "sum(bandwidth_share) > 1"),
    (([1, 1], [0.3, 0.3], [0.5, 0.0]),
     "bandwidth_share below minimum share for an offloaded MD"),
]
BAD_ACTION_IDS = ["length", "offload", "compute-range", "compute-sum",
                  "compute-floor", "bandwidth-range", "bandwidth-sum",
                  "bandwidth-floor"]


def all_offloaded(m: int) -> ActionVector:
    """Every MD offloaded, both budgets split evenly."""
    return ActionVector(np.ones(m, dtype=int), np.full(m, 1.0 / m),
                        np.full(m, 1.0 / m))


def as_rows(actions) -> ActionVector:
    """One ActionVector holding `actions` as rows."""
    return ActionVector(*(np.array(v) for v in zip(
        *((a.offload, a.compute_share, a.bandwidth_share) for a in actions))))


class TestSlotCost:
    def test_all_local_sums_local_costs(self):
        rng = np.random.default_rng(0)
        cfg = EnvConfig(mds_per_fap=3)
        state, fap = random_slot(rng, cfg)
        action = ActionVector(np.zeros(3, dtype=int), np.zeros(3), np.zeros(3))
        out = slot_cost(state, action, fap, cfg)
        expect_d = expect_e = 0.0
        for i in range(3):
            d, e = one_md_cost(state.task_bits[i], state.task_cycles[i],
                               md_cpu=fap.md_cpu_freq[i])
            expect_d += d
            expect_e += e
        assert out.total_delay == pytest.approx(expect_d, rel=1e-12)
        assert out.total_energy == pytest.approx(expect_e, rel=1e-12)
        assert out.cost == pytest.approx(
            0.5 * expect_d + 0.5 * expect_e, rel=1e-12)

    def test_mixed_action_matches_component_sum(self):
        # one offloaded MD in a cell corner, one local
        cfg = EnvConfig(mds_per_fap=2)
        fap = make_fap([1e9, 1.5e9], [1.0, 0.5])
        positions = np.array([(200.0, 0.0), (50.0, 50.0)])
        gains = channel_gains(positions, cfg.fap_position, 4.0)
        state = SlotState(np.array([2e6, 1e6]), np.array([7e8, 7e8]),
                          positions, gains)
        action = ActionVector(np.array([1, 0]), np.array([0.2, 0.0]),
                              np.array([0.2, 0.0]))
        out = slot_cost(state, action, fap, cfg)
        d0, e0 = one_md_cost(2e6, 7e8, 1, 0.2, 0.2, gains[0], md_cpu=1e9,
                             power=1.0)
        d1, e1 = one_md_cost(1e6, 7e8, md_cpu=1.5e9)
        assert out.cost == pytest.approx(0.5 * (d0 + d1) + 0.5 * (e0 + e1),
                                         rel=1e-12)
        assert out.per_md_delay[0] == pytest.approx(d0, rel=1e-12)

    def test_weight_degeneracy(self):
        rng = np.random.default_rng(1)
        cfg = EnvConfig(mds_per_fap=3, weight_delay=1.0)
        state, fap = random_slot(rng, cfg)
        action = ActionVector(np.zeros(3, dtype=int), np.zeros(3), np.zeros(3))
        out = slot_cost(state, action, fap, cfg)
        assert out.cost == out.total_delay

    def test_linear_in_weights(self):
        rng = np.random.default_rng(2)
        state, fap = random_slot(rng, EnvConfig(mds_per_fap=3))
        action = ActionVector(np.ones(3, dtype=int), np.full(3, 1 / 3),
                              np.full(3, 1 / 3))
        outs = {}
        for wd in (0.2, 0.5, 0.8):
            cfg = EnvConfig(mds_per_fap=3, weight_delay=wd)
            outs[wd] = slot_cost(state, action, fap, cfg)
        for wd, out in outs.items():
            assert out.cost == pytest.approx(
                wd * out.total_delay + (1 - wd) * out.total_energy, rel=1e-12)
        assert outs[0.2].total_delay == outs[0.8].total_delay

    def test_strictly_decreasing_in_shares(self):
        rng = np.random.default_rng(3)
        cfg = EnvConfig(mds_per_fap=2)
        state, fap = random_slot(rng, cfg)
        base = ActionVector(np.array([1, 1]), np.array([0.3, 0.3]),
                            np.array([0.3, 0.3]))
        c0 = slot_cost(state, base, fap, cfg).cost
        more_y = ActionVector(np.array([1, 1]), np.array([0.5, 0.3]),
                              np.array([0.3, 0.3]))
        more_z = ActionVector(np.array([1, 1]), np.array([0.3, 0.3]),
                              np.array([0.3, 0.5]))
        assert slot_cost(state, more_y, fap, cfg).cost < c0
        assert slot_cost(state, more_z, fap, cfg).cost < c0

    def test_invariant_violation_names_constraint(self):
        rng = np.random.default_rng(4)
        cfg = EnvConfig(mds_per_fap=2)
        state, fap = random_slot(rng, cfg)
        bad = ActionVector(np.array([1, 1]), np.array([0.8, 0.8]),
                           np.array([0.3, 0.3]))
        with pytest.raises(ActionConstraintError, match="compute_share"):
            slot_cost(state, bad, fap, cfg)

    @pytest.mark.parametrize("action, constraint", BAD_ACTIONS,
                             ids=BAD_ACTION_IDS)
    def test_validate_names_each_constraint(self, action, constraint):
        bad = ActionVector(*(np.array(v) for v in action))
        with pytest.raises(ActionConstraintError) as err:
            bad.validate()
        assert err.value.constraint == constraint

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("md", [0, 1])
    @pytest.mark.parametrize("name", ["compute_share", "bandwidth_share"])
    def test_validate_rejects_non_finite_share(self, name, md, value):
        shares = {"compute_share": np.array([0.5, 0.0, 0.5]),
                  "bandwidth_share": np.array([0.5, 0.0, 0.5])}
        shares[name][md] = value
        bad = ActionVector(np.array([1, 0, 1]), **shares)
        with pytest.raises(ActionConstraintError) as err:
            bad.validate()
        assert err.value.constraint == f"{name} not finite"

    @pytest.mark.parametrize("width", [2, 4])
    def test_action_for_another_cell_size_refused(self, width):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=4)
        env = FogCellEnv(cfg, seed=6)
        env.reset()
        action = all_offloaded(width)
        message = "^length mismatch: action vs state devices$"
        with pytest.raises(ActionConstraintError, match=message) as err:
            env.step(action)
        assert err.value.constraint == "length mismatch"
        assert env.t == 0 and env.last_cost is None
        with pytest.raises(ActionConstraintError, match=message):
            slot_cost(env.trace_states(), as_rows([action] * 4), env.fap, cfg)

    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    def test_rows_cost_what_each_slot_costs_alone(self, m):
        cfg = EnvConfig(num_faps=1, mds_per_fap=m, steps_per_episode=40)
        env = FogCellEnv(cfg, seed=m)
        env.reset()
        rng = np.random.default_rng(m)
        raws = rng.uniform(0.0, 1.0, size=(40, 3 * m))
        raws[:4, :m] = 0.0                          # all-local rows
        actions = [sanitize_action(raw) for raw in raws]
        rows = slot_cost(env.trace_states(), as_rows(actions), env.fap, cfg)
        for t, action in enumerate(actions):
            one = slot_cost(env._slot(t), action, env.fap, cfg)
            assert bits_of((one.total_delay, one.total_energy, one.cost,
                            one.per_md_delay, one.per_md_energy)) == bits_of((
                float(rows.total_delay[t]), float(rows.total_energy[t]),
                float(rows.cost[t]), rows.per_md_delay[t],
                rows.per_md_energy[t]))

    def test_row_sums_near_the_bound_go_to_the_row_check(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=2, steps_per_episode=3)
        env = FogCellEnv(cfg, seed=2)
        env.reset()
        inside = np.array([0.5, 0.5 + _SUM_TOL - 5e-13])
        outside = np.array([0.5, 0.5 + _SUM_TOL + 5e-13])
        assert 1.0 + _SUM_TOL - 1e-12 < sum(inside) <= 1.0 + _SUM_TOL
        assert sum(outside) > 1.0 + _SUM_TOL
        even = all_offloaded(2)
        near = ActionVector(np.ones(2, dtype=int), inside, even.bandwidth_share)
        rows = slot_cost(env.trace_states(), as_rows([even, near, even]),
                         env.fap, cfg)
        assert rows.cost[1] == slot_cost(env._slot(1), near, env.fap, cfg).cost
        over = ActionVector(np.ones(2, dtype=int), outside, even.bandwidth_share)
        with pytest.raises(ActionConstraintError,
                           match=r"^sum\(compute_share\) > 1: sum="):
            slot_cost(env.trace_states(), as_rows([even, near, over]),
                      env.fap, cfg)

    def test_agrees_with_straight_line_recompute(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            m = int(rng.integers(1, 4))
            cfg = EnvConfig(mds_per_fap=m)
            state, fap = random_slot(rng, cfg)
            raw = rng.uniform(0.0, 1.0, size=3 * m)
            action = sanitize_action(raw)
            ours = slot_cost(state, action, fap, cfg).cost
            ref = straight_line_slot_cost(state, action, fap, cfg)
            assert ours == pytest.approx(ref, rel=1e-12)


class TestSanitize:
    def test_threshold(self):
        act = sanitize_action(np.array([0.7, 0.2, 0.5, 0.5, 0.5, 0.5]))
        assert list(act.offload) == [1, 0]          # 0.5 itself stays local

    def test_rescale_example(self):
        act = sanitize_action(np.array([0.9, 0.9, 0.8, 0.6, 0.3, 0.2]))
        assert act.compute_share == pytest.approx([0.5714, 0.4286], abs=1e-3)
        assert act.compute_share.sum() == pytest.approx(1.0, abs=1e-12)
        # inside the simplex the group passes through unchanged
        assert act.bandwidth_share == pytest.approx([0.3, 0.2], rel=1e-12)

    def test_non_offloaded_share_zeroed(self):
        act = sanitize_action(np.array([0.9, 0.1, 0.8, 0.9, 0.7, 0.8]))
        assert act.compute_share[1] == 0.0
        assert act.bandwidth_share[1] == 0.0
        # after zeroing, the remaining share is under budget and passes through
        assert act.compute_share[0] == pytest.approx(0.8, rel=1e-12)

    def test_floor_applied(self):
        act = sanitize_action(np.array([0.9, 0.9, 0.9, 0.0, 0.9, 0.0]))
        assert act.compute_share[1] >= 1e-3 - 1e-15
        act.validate()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="3M"):
            sanitize_action(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_non_finite_raw_rejected(self, at, value):
        raw = np.full(6, 0.7)
        raw[at] = value
        with pytest.raises(ValueError, match="finite"):
            sanitize_action(raw)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3,
                    max_size=18).filter(lambda v: len(v) % 3 == 0))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_feasible(self, raw):
        act = sanitize_action(np.array(raw))
        act.validate()
        again = sanitize_action(act.to_raw())
        assert np.array_equal(act.offload, again.offload)
        np.testing.assert_allclose(act.compute_share, again.compute_share,
                                   atol=1e-12)
        np.testing.assert_allclose(act.bandwidth_share, again.bandwidth_share,
                                   atol=1e-12)


class TestFlatten:
    def test_length_and_range(self):
        cfg = EnvConfig(mds_per_fap=5)
        env = FogCellEnv(cfg, seed=0)
        state = env.reset()
        flat = flatten_state(state, cfg)
        assert flat.shape == (27,)
        rng = np.random.default_rng(0)
        env2 = FogCellEnv(EnvConfig(mds_per_fap=3), seed=1)
        env2.reset()
        for _ in range(200):
            raw = rng.uniform(0, 1, size=9)
            _, s = env2.step(sanitize_action(raw))
            f = flatten_state(s, env2.config)
            assert np.all(f >= 0.0) and np.all(f <= 1.0)
            if env2.t >= env2.config.steps_per_episode:
                env2.reset()

    def test_order(self):
        cfg = EnvConfig(mds_per_fap=2)
        state = SlotState(np.array([cfg.max_task_bits] * 2),
                          np.array([cfg.max_task_cycles] * 2),
                          np.array([[200.0, 0.0], [0.0, 200.0]]),
                          np.array([0.5, 0.25]))
        flat = flatten_state(state, cfg)
        assert flat[:2] == pytest.approx([1.0, 1.0])      # bits
        assert flat[2:4] == pytest.approx([1.0, 1.0])     # cycles
        assert flat[4:6] == pytest.approx([0.5, 0.5])     # fap position
        assert flat[6:10] == pytest.approx([1, 0, 0, 1])  # md positions
        assert flat[10:] == pytest.approx([0.5, 0.25])    # gains

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_rotations_relabel_mds(self, m):
        cfg = EnvConfig(mds_per_fap=m)
        state, _ = random_slot(np.random.default_rng(m), cfg)
        raw = np.arange(3.0 * m)
        state_maps, action_maps = md_rotations(m)
        assert state_maps.shape == (m, cfg.state_dim)
        assert action_maps.shape == (m, 3 * cfg.mds_per_fap)
        np.testing.assert_array_equal(state_maps[0], np.arange(cfg.state_dim))
        for k in range(m):
            p = (np.arange(m) + k) % m
            moved = SlotState(state.task_bits[p], state.task_cycles[p],
                              state.md_positions[p], state.channel_gains[p])
            np.testing.assert_array_equal(
                flatten_state(state, cfg)[state_maps[k]],
                flatten_state(moved, cfg))
            np.testing.assert_array_equal(
                raw[action_maps[k]], np.concatenate([p, m + p, 2 * m + p]))


class TestEnvLifecycle:
    def test_reset_determinism(self):
        cfg = EnvConfig()
        a = FogCellEnv(cfg, seed=9).reset()
        b = FogCellEnv(cfg, seed=9).reset()
        np.testing.assert_array_equal(a.task_bits, b.task_bits)
        np.testing.assert_array_equal(a.md_positions, b.md_positions)
        np.testing.assert_array_equal(a.channel_gains, b.channel_gains)

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            FogCellEnv(EnvConfig())

    def test_identical_action_sequence_identical_rewards(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(11)
        raws = [rng.uniform(0, 1, size=3 * cfg.mds_per_fap)
                for _ in range(10)]
        seqs = []
        for _ in range(2):
            env = FogCellEnv(cfg, seed=21)
            env.reset()
            rewards = [env.step(sanitize_action(r))[0] for r in raws]
            seqs.append(rewards)
        assert seqs[0] == seqs[1]

    def test_reward_never_positive_and_scaled(self):
        cfg = EnvConfig(mds_per_fap=1)
        env = FogCellEnv(cfg, seed=31)
        state = env.reset()
        fap = env.fap
        action = ActionVector(np.zeros(1, dtype=int), np.zeros(1), np.zeros(1))
        d = float(state.task_cycles[0])
        expect = -(0.5 * d / fap.md_cpu_freq[0]
                   + 0.5 * fap.md_energy_coeff[0] * d) / 1
        reward, _ = env.step(action)
        assert reward <= 0.0
        assert reward == pytest.approx(expect, rel=1e-12)

    def test_episode_metrics_sum_the_slot_costs(self):
        cfg = EnvConfig(steps_per_episode=7)
        env = FogCellEnv(cfg, seed=41)
        rng = np.random.default_rng(41)
        for _ in range(2):          # the second episode starts from zero
            env.reset()
            reward = cost = delay = energy = 0.0
            for _ in range(cfg.steps_per_episode):
                r, _ = env.step(sanitize_action(
                    rng.uniform(0, 1, size=3 * cfg.mds_per_fap)))
                reward += r
                cost += env.last_cost.cost
                delay += env.last_cost.total_delay
                energy += env.last_cost.total_energy
            assert env.episode_metrics() == (reward, cost / 7, delay / 7,
                                             energy / 7)

    def test_step_past_end_raises(self):
        cfg = EnvConfig(steps_per_episode=2, mds_per_fap=1)
        env = FogCellEnv(cfg, seed=0)
        env.reset()
        action = ActionVector(np.zeros(1, dtype=int), np.zeros(1), np.zeros(1))
        env.step(action)
        env.step(action)
        with pytest.raises(EpisodeOverError):
            env.step(action)
        env.reset()
        env.step(action)

    def test_mobility_stays_in_cell(self):
        cfg = EnvConfig(mds_per_fap=4, steps_per_episode=300, cell_side=30.0,
                        max_move_per_slot=12.0)
        env = FogCellEnv(cfg, seed=3)
        env.reset()
        action = ActionVector(np.zeros(4, dtype=int), np.zeros(4), np.zeros(4))
        for _ in range(300):
            _, state = env.step(action)
            assert np.all(state.md_positions >= 0.0)
            assert np.all(state.md_positions <= cfg.cell_side)

    def test_gains_in_unit_interval(self):
        env = FogCellEnv(EnvConfig(), seed=5)
        state = env.reset()
        assert np.all(state.channel_gains > 0.0)
        assert np.all(state.channel_gains <= 1.0)


class TestLibmPath:
    """Gains and spectral efficiencies go through libm's pow and log2 on
    Python floats; numpy's SIMD power and log2 round differently on some
    arguments, so a switch to them moves every trajectory."""

    def test_observed_gains_use_scalar_pow(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=12)
        env = FogCellEnv(cfg, seed=12)
        action = ActionVector(np.zeros(12, dtype=int), np.zeros(12),
                              np.zeros(12))
        for episode in range(4):
            state = env.reset(seed=episode)
            while True:
                for i in range(12):
                    dx = state.md_positions[i][0] - cfg.fap_position[0]
                    dy = state.md_positions[i][1] - cfg.fap_position[1]
                    want = max(float(np.hypot(dx, dy)), D_MIN) ** -4.0
                    assert state.channel_gains[i] == want
                if env.t == cfg.steps_per_episode:
                    break
                _, state = env.step(action)

    def test_spectral_efficiency_uses_scalar_log2(self):
        rng = np.random.default_rng(2)
        power = rng.uniform(0.1, 1.0, size=200_000)
        gains = rng.uniform(1.0, 150.0, size=200_000) ** -4.0
        got = spectral_efficiency(power, gains, 1e-13)
        want = [math.log2(1 + p * g / 1e-13)
                for p, g in zip(power.tolist(), gains.tolist())]
        assert got.tolist() == want


def bits_of(value):
    """Comparable bit image of an array, a float, a tuple or an object's
    attributes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits_of(v) for v in value)
    return bits_of(tuple(vars(value).values()))


def play(cell, rng, slots):
    """Play `slots` slots of random sanitized actions; the bit images of
    every state, reward and cost along the way."""
    m = cell.config.mds_per_fap
    seen = [bits_of(cell.state)]
    for _ in range(slots):
        reward, state = cell.step(sanitize_action(rng.uniform(0, 1, 3 * m)))
        seen += [bits_of(float(reward)), bits_of(cell.last_cost),
                 bits_of(state)]
    return seen


class StartOn:
    """A Generator that hands out `start` for every draw of MD start
    positions (an (M, 2) uniform draw), after drawing it from the stream."""

    def __init__(self, rng, start):
        self._rng = rng
        self._start = start

    def uniform(self, low, high, size):
        out = self._rng.uniform(low, high, size=size)
        return self._start.copy() if size == self._start.shape else out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestEpisodeTrace:
    """reset() draws the episode's whole exogenous input; whole episodes
    equal those of the per-slot draws it replaced, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("steps", [1, 7, 50])
    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    def test_whole_episodes_match_per_slot_draws(self, m, steps, seed):
        cfg = EnvConfig(num_faps=1, mds_per_fap=m, steps_per_episode=steps)
        cells = FogCellEnv(cfg, seed=seed), ReferenceCell(cfg, seed=seed)
        runs = []
        for cell in cells:
            rng = np.random.default_rng(seed + 1)
            seen = []
            # the stream runs on across resets, and a seed restarts it
            for reseed in (None, None, seed + 100, None):
                cell.reset(seed=reseed)
                seen += [bits_of(cell.fap)] + play(cell, rng, steps)
                seen += [bits_of(cell.fap), bits_of(cell.episode_metrics())]
            runs.append(seen)
        assert runs[0] == runs[1]

    # the 50-slot cases keep their ids; 500 slots is a long, exit-heavy trace
    @pytest.mark.parametrize("m, steps", [(1, 50), (5, 50), (1, 500),
                                          (5, 500)],
                             ids=["1", "5", "1-500", "5-500"])
    def test_walls_hit_often_match_per_slot_draws(self, m, steps,
                                                  monkeypatch):
        cfg = EnvConfig(num_faps=1, mds_per_fap=m, cell_side=20.0,
                        max_move_per_slot=15.0, steps_per_episode=steps)
        walls = np.array([[0.0, 20.0], [20.0, 0.0], [0.0, 0.0], [20.0, 20.0],
                          [20.0, 7.5]])[:m]
        reflected = []

        def reflect(pos, side):
            reflected.append(pos.copy())
            return _reflect(pos, side)

        monkeypatch.setattr(env_module, "_reflect", reflect)
        runs = []
        for cell in FogCellEnv(cfg, seed=3), ReferenceCell(cfg, seed=3):
            cell._rng = StartOn(cell._rng, walls)
            rng = np.random.default_rng(4)
            seen = []
            for _ in range(3):
                cell.reset()
                np.testing.assert_array_equal(cell.state.md_positions, walls)
                seen += [bits_of(cell.fap)] + play(cell, rng, steps)
                seen += [bits_of(cell.fap), bits_of(cell.episode_metrics())]
            runs.append(seen)
        assert runs[0] == runs[1]
        # each call restarts the running sum at a row that left the cell
        assert len(reflected) >= 3
        assert all(((p < 0.0) | (p > 20.0)).any() for p in reflected)

    @pytest.mark.parametrize("played", [0, 1, 3, 7])
    def test_next_episode_ignores_slots_played_before(self, played):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=7)
        runs = []
        for slots in (played, cfg.steps_per_episode):
            env = FogCellEnv(cfg, seed=5)
            env.reset()
            play(env, np.random.default_rng(1), slots)
            env.reset()
            runs.append([bits_of(env.fap)]
                        + play(env, np.random.default_rng(2), 7))
        assert runs[0] == runs[1]

    def test_equal_seeds_reproduce_an_episode(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=4, steps_per_episode=9)
        fresh = FogCellEnv(cfg, seed=3)
        used = FogCellEnv(cfg, seed=8)
        used.reset()
        play(used, np.random.default_rng(0), 4)
        runs = []
        for env in (fresh, used):
            env.reset(seed=11)
            runs.append([bits_of(env.fap)]
                        + play(env, np.random.default_rng(6), 9))
        assert runs[0] == runs[1]

    def test_held_state_is_not_changed_by_later_steps(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=6)
        env = FogCellEnv(cfg, seed=4)
        held = [env.reset()]
        images = [bits_of(held[0])]
        rng = np.random.default_rng(4)
        for _ in range(cfg.steps_per_episode):
            held.append(env.step(sanitize_action(rng.uniform(0, 1, 9)))[1])
            images.append(bits_of(held[-1]))
        env.reset()
        env.step(sanitize_action(rng.uniform(0, 1, 9)))
        assert [bits_of(s) for s in held] == images

    def test_metrics_need_a_played_slot(self):
        env = FogCellEnv(EnvConfig(steps_per_episode=3), seed=0)
        with pytest.raises(RuntimeError, match="no slot has been played"):
            env.episode_metrics()
        env.reset()
        with pytest.raises(RuntimeError, match="no slot has been played"):
            env.episode_metrics()
        env.step(sanitize_action(np.ones(9)))
        assert env.episode_metrics()[1] == env.last_cost.cost


def slot_policy(name: str, m: int):
    """A fresh per-slot policy; the random one draws from its own stream."""
    rng = np.random.default_rng(m)
    return {"local": lambda env, state: baselines.local_policy(state),
            "equal": lambda env, state: baselines.equal_policy(state),
            "oracle": baselines.oracle_policy,
            "random": lambda env, state: sanitize_action(
                rng.uniform(0.0, 1.0, 3 * m))}[name]


def step_through(cell, policy, first=0):
    """Play the rest of `cell`'s episode slot by slot, from slot `first`."""
    state = cell.state
    for _ in range(first, cell.config.steps_per_episode):
        _, state = cell.step(policy(cell, state))


def end_of_episode(cell):
    return [bits_of(cell.episode_metrics()), cell.t, bits_of(cell.state),
            bits_of(cell.last_cost)]


class TestWholeEpisodeCharge:
    """rollout_episode decides every slot, then play() charges them with one
    slot_cost over the rows; episodes end as the step() loop leaves them."""

    @pytest.mark.parametrize("name", ["local", "equal", "oracle", "random"])
    @pytest.mark.parametrize("m", [1, 3, 5, 12])
    def test_rollout_matches_step_loop_and_reference(self, m, name):
        cfg = EnvConfig(num_faps=1, mds_per_fap=m)
        runs = []
        for cell in (FogCellEnv(cfg, seed=m), FogCellEnv(cfg, seed=m),
                     ReferenceCell(cfg, seed=m)):
            policy = slot_policy(name, m)
            seen = []
            for _ in range(3):
                if not runs:
                    rollout_episode(cell, policy)
                else:
                    cell.reset()
                    step_through(cell, policy)
                seen += [bits_of(cell.fap)] + end_of_episode(cell)
            runs.append(seen)
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("played", [1, 3, 6])
    def test_play_charges_the_slots_left(self, played):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=7)
        runs = []
        for whole in (True, False):
            cell = FogCellEnv(cfg, seed=played)
            cell.reset()
            policy = slot_policy("random", 3)
            step_through(cell, policy, cfg.steps_per_episode - played)
            actions = [policy(cell, cell._slot(t))
                       for t in range(cell.t, cfg.steps_per_episode)]
            if whole:
                cell.play(actions)
            else:
                for action in actions:
                    cell.step(action)
            runs.append(end_of_episode(cell))
        assert runs[0] == runs[1]
        with pytest.raises(EpisodeOverError, match="episode is over"):
            cell.play([])

    @pytest.mark.parametrize("planned", [False, True])
    @pytest.mark.parametrize("slot", [0, 17, 49])
    @pytest.mark.parametrize("action, constraint",
                             BAD_ACTIONS + [(([1] * 3, [0.3] * 3, [0.3] * 3),
                                             "length mismatch")],
                             ids=BAD_ACTION_IDS + ["cell-size"])
    def test_bad_action_in_a_slot_raises_its_step_error(
            self, action, constraint, slot, planned):
        cfg = EnvConfig(num_faps=1, mds_per_fap=2)
        bad = ActionVector(*(np.array(v) for v in action))

        def policy(env, state):
            return bad if env.t == slot else baselines.equal_policy(state)

        stepped = FogCellEnv(cfg, seed=slot)
        stepped.reset()
        with pytest.raises(ActionConstraintError) as want:
            step_through(stepped, policy)
        assert want.value.constraint == constraint and stepped.t == slot
        if planned:
            def per_slot(env, state):
                raise AssertionError("a planned episode calls no slot policy")

            per_slot.plan = lambda env: [bad if t == slot else
                                         baselines.equal_policy(env._slot(t))
                                         for t in range(cfg.steps_per_episode)]
            played = per_slot
        else:
            played = policy
        cell = FogCellEnv(cfg, seed=slot)
        with pytest.raises(ActionConstraintError) as got:
            rollout_episode(cell, played)
        assert got.value.constraint == constraint
        assert str(got.value) == str(want.value.in_slot(slot))
        assert f"slot {slot}" in str(got.value)
        # nothing was charged
        assert cell.t == 0 and cell.last_cost is None
        with pytest.raises(RuntimeError, match="no slot has been played"):
            cell.episode_metrics()

    def test_bad_action_named_by_its_slot_after_steps(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=2, steps_per_episode=8)
        cell = FogCellEnv(cfg, seed=1)
        cell.reset()
        for _ in range(3):
            cell.step(all_offloaded(2))
        sums = cell.episode_metrics()
        bad = ActionVector(np.ones(2, dtype=int), np.array([0.8, 0.8]),
                           np.array([0.3, 0.3]))
        actions = [all_offloaded(2)] * 5
        actions[2] = bad
        with pytest.raises(ActionConstraintError,
                           match=r"^sum\(compute_share\) > 1: slot 5, sum="):
            cell.play(actions)
        assert cell.t == 3 and cell.episode_metrics() == sums
        with pytest.raises(ValueError, match="^4 actions for 5 slots left$"):
            cell.play(actions[:4])

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_trace_states_count_devices(self, m):
        cfg = EnvConfig(num_faps=1, mds_per_fap=m, steps_per_episode=50)
        env = FogCellEnv(cfg, seed=m)
        env.reset()
        assert env.trace_states().num_mds == m
        assert env.state.num_mds == m
