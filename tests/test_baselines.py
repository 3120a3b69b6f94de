"""Reference policies and the per-slot optimizer against grid-search oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedfog.baselines import (ORACLE_MAX_MDS, _allocation_weights,
                              closed_form_allocation, equal_policy,
                              local_policy, oracle_policy,
                              oracle_slot_optimum, subset_costs)
from fedfog.env import (EnvConfig, FogAccessPoint, FogCellEnv, SlotState,
                        md_energy_coeff, slot_cost)
from oracles import (enumerate_slot_optimum, enumerate_subset_costs,
                     grid_min_weighted_inverse,
                     grid_slot_optimum, grid_slot_optimum_joint,
                     nearest_grid_point, simplex_grid)


def build_cell(rng, m, config):
    """Random devices + slot state drawn inside the configured ranges."""
    fap_pos = config.fap_position
    positions = rng.uniform(0, config.cell_side, size=(m, 2))
    cpus, powers = np.zeros(m), np.zeros(m)
    for i in range(m):
        cpus[i] = rng.uniform(*config.md_cpu_range)
        powers[i] = rng.uniform(*config.md_power_range)
    fap = FogAccessPoint(cpus, powers, md_energy_coeff(cpus))
    gains = np.array([max(np.linalg.norm(p - fap_pos), 1.0) ** -config.path_loss_alpha
                      for p in positions])
    state = SlotState(rng.uniform(*config.task_bits_range, size=m),
                      rng.uniform(*config.task_bits_range, size=m)
                      * rng.uniform(*config.cycles_per_bit_range, size=m)
                      / np.mean(config.task_bits_range),
                      positions, gains)
    return state, fap


def cost_of(state, fap, config, action):
    return slot_cost(state, action, fap, config).cost


class TestFixedPolicies:
    def test_local_policy_shape(self):
        state, _ = build_cell(np.random.default_rng(0), 4, EnvConfig())
        act = local_policy(state)
        assert act.offload.tolist() == [0, 0, 0, 0]
        assert not act.compute_share.any()
        assert not act.bandwidth_share.any()

    def test_equal_policy_splits_budget(self):
        state, _ = build_cell(np.random.default_rng(1), 5, EnvConfig())
        act = equal_policy(state)
        assert act.offload.tolist() == [1] * 5
        np.testing.assert_allclose(act.compute_share, 0.2)
        np.testing.assert_allclose(act.bandwidth_share, 0.2)

    def test_policies_produce_valid_actions(self):
        cfg = EnvConfig()
        state, _ = build_cell(np.random.default_rng(2), 3, cfg)
        local_policy(state).validate()
        equal_policy(state).validate()


class TestClosedFormAllocation:
    def test_two_weight_example(self):
        y = closed_form_allocation([1.0, 4.0])
        np.testing.assert_allclose(y, [1 / 3, 2 / 3], rtol=1e-12)
        assert sum(w / s for w, s in zip([1.0, 4.0], y)) == pytest.approx(9.0)

    def test_equal_weights_split_equally(self):
        y = closed_form_allocation([2.5] * 4)
        np.testing.assert_allclose(y, 0.25, rtol=1e-12)

    def test_single_weight_takes_everything(self):
        np.testing.assert_array_equal(closed_form_allocation([7.0]), [1.0])

    def test_empty(self):
        assert closed_form_allocation([]).size == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 5.0, size=6)
        np.testing.assert_allclose(closed_form_allocation(w),
                                   closed_form_allocation(w * 123.0), rtol=1e-12)

    def test_bad_weights_rejected(self):
        for bad in ([0.0, 1.0], [-1.0, 2.0], [np.inf, 1.0], [-np.inf, 1.0],
                    [np.nan]):
            with pytest.raises(ValueError):
                closed_form_allocation(bad)

    def test_beats_every_grid_point(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            w = rng.uniform(0.05, 4.0, size=k)
            y = closed_form_allocation(w)
            cf_obj = float(np.sum(w / y))
            _, grid_obj = grid_min_weighted_inverse(w, step=0.05)
            assert cf_obj <= grid_obj + 1e-12

    def test_grid_sandwich_localizes_optimum(self):
        # grid minimum ≥ closed form ≥ ... and the grid point nearest the
        # closed-form split is no better than the grid minimum
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.uniform(0.05, 4.0, size=3)
            y = closed_form_allocation(w)
            cf_obj = float(np.sum(w / y))
            _, grid_obj = grid_min_weighted_inverse(w, step=0.02)
            snapped = nearest_grid_point(y, step=0.02)
            snapped_obj = float(np.sum(w / snapped))
            assert cf_obj <= grid_obj <= snapped_obj + 1e-12

    def test_beats_random_simplex_points(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.1, 3.0, size=4)
        y = closed_form_allocation(w)
        cf_obj = float(np.sum(w / y))
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            if np.any(p < 1e-9):
                continue
            assert cf_obj <= float(np.sum(w / p)) + 1e-12


class TestOracleSlotOptimum:
    def test_matches_separable_grid(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(7)
        for _ in range(10):
            state, fap = build_cell(rng, 3, cfg)
            action, cost = oracle_slot_optimum(state, fap, cfg)
            grid_cost = grid_slot_optimum(state, fap, cfg, step=0.02)
            # closed form can only undercut the grid, never exceed it
            assert cost <= grid_cost + 1e-12
            assert grid_cost <= cost * 1.05

    def test_separable_equals_joint_grid(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(8)
        state, fap = build_cell(rng, 2, cfg)
        step = 0.1
        sep = grid_slot_optimum(state, fap, cfg, step=step)
        joint = grid_slot_optimum_joint(state, fap, cfg, step=step)
        assert sep == pytest.approx(joint, rel=1e-12)

    def test_returned_action_achieves_returned_cost(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(9)
        for _ in range(10):
            state, fap = build_cell(rng, 3, cfg)
            action, cost = oracle_slot_optimum(state, fap, cfg)
            if not action.offload.any():
                continue
            achieved = cost_of(state, fap, cfg, action)
            assert achieved == pytest.approx(cost, rel=1e-9)

    def test_dominates_fixed_policies(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(10)
        for _ in range(30):
            state, fap = build_cell(rng, 3, cfg)
            _, cost = oracle_slot_optimum(state, fap, cfg)
            assert cost <= cost_of(state, fap, cfg, local_policy(state)) + 1e-12
            assert cost <= cost_of(state, fap, cfg, equal_policy(state)) + 1e-12

    def test_dominates_random_feasible_actions(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(11)
        state, fap = build_cell(rng, 3, cfg)
        _, cost = oracle_slot_optimum(state, fap, cfg)
        for _ in range(50):
            offload = rng.integers(0, 2, size=3)
            y = rng.dirichlet(np.ones(3)) * offload
            z = rng.dirichlet(np.ones(3)) * offload
            if np.any((offload == 1) & ((y < 1e-3) | (z < 1e-3))):
                continue
            from fedfog.env import ActionVector
            rand = ActionVector(offload, y, z)
            assert cost <= cost_of(state, fap, cfg, rand) + 1e-12

    def test_single_md_picks_cheaper_side(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(12)
        for _ in range(10):
            state, fap = build_cell(rng, 1, cfg)
            action, cost = oracle_slot_optimum(state, fap, cfg)
            local = cost_of(state, fap, cfg, local_policy(state))
            if action.offload[0]:
                assert cost <= local + 1e-12
                np.testing.assert_allclose(action.compute_share, [1.0])
                np.testing.assert_allclose(action.bandwidth_share, [1.0])
            else:
                assert cost == pytest.approx(local, rel=1e-12)

    def test_matches_scalar_enumeration(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(16)
        for m in range(1, ORACLE_MAX_MDS + 1):
            for _ in range(40 if m < 10 else 8):
                state, fap = build_cell(rng, m, cfg)
                action, cost = oracle_slot_optimum(state, fap, cfg)
                offload, ref_cost, a_c, a_b = enumerate_slot_optimum(
                    state, fap, cfg)
                assert action.offload.tolist() == offload
                assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0)
                chosen = np.array(offload) == 1
                for got, weights in ((action.compute_share, a_c),
                                     (action.bandwidth_share, a_b)):
                    want = np.zeros(m)
                    if chosen.any():
                        want[chosen] = closed_form_allocation(
                            np.array(weights)[chosen])
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", range(1, ORACLE_MAX_MDS + 1))
    def test_every_subset_cost_matches_scalar_enumeration(self, m):
        cfg = EnvConfig()
        rng = np.random.default_rng(100 + m)
        for _ in range(6 if m < 10 else 2):
            state, fap = build_cell(rng, m, cfg)
            costs = subset_costs(*_allocation_weights(state, fap, cfg))
            want = enumerate_subset_costs(state, fap, cfg)
            assert [c.hex() for c in costs.tolist()] == [c.hex() for c in want]
            _, best = oracle_slot_optimum(state, fap, cfg)
            assert best == min(want)

    @pytest.mark.parametrize("m, k", [(3, 1), (3, 2), (9, 3), (12, 5)])
    def test_ties_go_to_lowest_mask(self, m, k):
        # M identical MDs: every set of k offloaded MDs costs the same,
        # (M - k) L + k^2 A (L local cost, A offload weight), and the FAP
        # speed is set so that A = L / 2k, where k is the optimal count.
        cfg = EnvConfig()
        cpu = np.full(m, 1.5e9)
        fap = FogAccessPoint(cpu, np.full(m, 0.5), md_energy_coeff(cpu))
        state = SlotState(np.full(m, 2e6), np.full(m, 7e8),
                          np.full((m, 2), 70.0), np.full(m, 1e-8))
        _, _, _, a_b = enumerate_slot_optimum(state, fap, cfg)
        local = 0.5 * (7e8 / 1.5e9) + 0.5 * (fap.md_energy_coeff[0] * 7e8)
        cfg = replace(cfg, fap_cpu=0.5 * 7e8 / (local / (2 * k) - a_b[0]))
        action, _ = oracle_slot_optimum(state, fap, cfg)
        want = [1] * k + [0] * (m - k)
        assert action.offload.tolist() == want
        assert enumerate_slot_optimum(state, fap, cfg)[0] == want

    def test_enumeration_budget_enforced(self):
        cfg = EnvConfig()
        m = ORACLE_MAX_MDS + 1
        rng = np.random.default_rng(13)
        state, fap = build_cell(rng, m, cfg)
        with pytest.raises(ValueError):
            oracle_slot_optimum(state, fap, cfg)

    def test_policy_wrapper_emits_valid_actions(self):
        cfg = EnvConfig(num_faps=1, mds_per_fap=3, steps_per_episode=10)
        env = FogCellEnv(cfg, seed=14)
        state = env.reset()
        for _ in range(10):
            act = oracle_policy(env, state)
            act.validate()
            _, state = env.step(act)


class TestSimplexGridHelpers:
    def test_grid_points_lie_on_simplex(self):
        pts = list(simplex_grid(3, step=0.2))
        for p in pts:
            assert sum(p) == pytest.approx(1.0)
            assert all(v > 0 for v in p)
        # compositions of 5 into 3 positive parts: C(4, 2)
        assert len(pts) == math.comb(4, 2)

    def test_nearest_grid_point_feasible(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            y = rng.dirichlet(np.ones(4))
            snapped = nearest_grid_point(y, step=0.02)
            assert sum(snapped) == pytest.approx(1.0, abs=1e-9)
            assert min(snapped) > 0
            # rounding moves each entry at most half a step; the sum repair
            # can push the largest entries one or two more
            assert np.abs(np.asarray(snapped) - y).max() <= 3 * 0.02
