"""Non-learning reference policies and an exact per-slot optimizer. Each
policy decides one slot's state, or (T, M) rows of them in one call.

For a fixed offload set the slot cost splits into two independent problems of
the form

    minimize sum_m a_m / y_m   subject to  sum_m y_m <= 1,  y_m > 0,

whose Lagrangian optimum is y_m proportional to sqrt(a_m) with the budget
fully spent, giving objective (sum_m sqrt(a_m))^2. Enumerating the 2^M
offload sets and applying that closed form to the compute and bandwidth
groups therefore solves the joint slot problem exactly; at small M this is
the ground truth every policy can be measured against.

subset_costs scores all masks at once, each subset sum adding its MDs in
index order, and np.argmin keeps the lowest of equal masks, as a scalar
loop over the subsets would.
"""

from __future__ import annotations

import numpy as np

from .env import (ActionVector, EnvConfig, FogAccessPoint, SlotState,
                  sanitize_action, spectral_efficiency)

ORACLE_MAX_MDS = 12     # 2^M enumeration budget


def local_policy(state: SlotState) -> ActionVector:
    """Every task runs on its own device; no shares are granted."""
    zero = np.zeros(state.task_bits.shape)
    return ActionVector(zero.astype(int), zero, zero.copy())


def equal_policy(state: SlotState) -> ActionVector:
    """Every task is offloaded and both budgets are split evenly."""
    share = np.full(state.task_bits.shape, 1.0 / state.num_mds)
    return ActionVector(np.ones(share.shape, dtype=int), share, share.copy())


def closed_form_allocation(weights) -> np.ndarray:
    """Shares minimizing sum(w/y) on the unit simplex: y_m ~ sqrt(w_m)."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        return np.zeros(0)
    if not ((w > 0) & (w < np.inf)).all():
        raise ValueError("allocation weights must be positive and finite")
    root = np.sqrt(w)
    return root / root.sum()


def subset_costs(local, a_compute, a_bandwidth) -> np.ndarray:
    """Slot cost of every offload subset under the closed-form share split,
    from _allocation_weights; entry `mask` offloads the MDs whose bits
    `mask` sets.

    The subset sums are built by doubling: mask 2^i + r extends mask
    r < 2^i by MD i, so every sum adds its MDs in index order (a matrix
    product would leave the order to BLAS and could move ties in the last
    bit). A mask's local term sums over its complement 2^M - 1 - mask, so it
    reads the member sums of the local costs reversed.
    """
    values = np.array((local, np.sqrt(a_compute), np.sqrt(a_bandwidth)))
    sums = np.zeros((3, 1 << len(local)))
    for i, v in enumerate(values.T[:, :, None]):
        np.add(sums[:, :1 << i], v, out=sums[:, 1 << i:2 << i])
    return sums[0, ::-1] + (sums[1] ** 2 + sums[2] ** 2)


def _allocation_weights(state: SlotState, fap: FogAccessPoint,
                        config: EnvConfig):
    """Per-MD weights of the two share problems, plus local costs.

    compute weight   w_delay * cycles / f_fap
    bandwidth weight (w_delay + w_energy * p_tx) * bits / full_band_rate
    """
    wd, we = config.weight_delay, config.weight_energy
    cycles = state.task_cycles
    local = (wd * (cycles / fap.md_cpu_freq)
             + we * (fap.md_energy_coeff * cycles))
    a_compute = wd * cycles / config.fap_cpu
    full_rate = config.bandwidth * spectral_efficiency(
        fap.md_tx_power, state.channel_gains, config.noise_power)
    a_bandwidth = (wd + we * fap.md_tx_power) * state.task_bits / full_rate
    return local, a_compute, a_bandwidth


def oracle_slot_optimum(state: SlotState, fap: FogAccessPoint,
                        config: EnvConfig) -> tuple[ActionVector, float]:
    """Exact minimizer of the slot cost over offload sets and shares.

    Scores every offload subset at once with the closed-form share split
    and keeps the first cheapest, i.e. the lowest mask among ties; the share
    floor used by sanitize_action is not imposed here, so the returned cost
    is the unconstrained-split optimum (the floor gap is far below any
    comparison tolerance at the instance sizes this handles).
    """
    m = state.num_mds
    if m > ORACLE_MAX_MDS:
        raise ValueError(f"oracle enumerates 2^M subsets; M={m} exceeds "
                         f"the budget of {ORACLE_MAX_MDS}")
    local, a_compute, a_bandwidth = _allocation_weights(state, fap, config)
    costs = subset_costs(local, a_compute, a_bandwidth)
    best = int(np.argmin(costs))
    offload = (best >> np.arange(m)) & 1
    y, z = np.zeros(m), np.zeros(m)
    chosen = offload == 1
    y[chosen] = closed_form_allocation(a_compute[chosen])
    z[chosen] = closed_form_allocation(a_bandwidth[chosen])
    return ActionVector(offload, y, z), float(costs[best])


def oracle_policy(env, state: SlotState) -> ActionVector:
    """Per-slot optimum as a rollout policy, on one slot or on (T, M) rows.

    The optimal shares are passed through sanitize_action (rows in one call)
    so they respect the share floor; the perturbation is negligible.
    """
    rows = state.task_bits.shape[:-1]
    slots = map(SlotState, state.task_bits, state.task_cycles,
                state.md_positions, state.channel_gains) if rows else [state]
    raw = [oracle_slot_optimum(s, env.fap, env.config)[0].to_raw() for s in slots]
    return sanitize_action(np.array(raw).reshape(*rows, -1))
