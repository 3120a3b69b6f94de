"""Non-learning reference policies and an exact per-slot optimizer.

For a fixed offload set the slot cost splits into two independent problems of
the form

    minimize sum_m a_m / y_m   subject to  sum_m y_m <= 1,  y_m > 0,

whose Lagrangian optimum is y_m proportional to sqrt(a_m) with the budget
fully spent, giving objective (sum_m sqrt(a_m))^2. Enumerating the 2^M
offload sets and applying that closed form to the compute and bandwidth
groups therefore solves the joint slot problem exactly; at small M this is
the ground truth every policy can be measured against.

The enumeration is array algebra over subset_matrix(M), the cached (M, 2^M)
0/1 matrix B whose column `mask` marks the MDs `mask` offloads: each subset
costs sum(l[~B]) + (sum(sqrt(a_c)[B])**2 + sum(sqrt(a_b)[B])**2), every sum
over the MDs in index order, and np.argmin keeps the lowest of equal masks,
as a scalar loop over the subsets would.
"""

from __future__ import annotations

import functools

import numpy as np

from .env import (ActionVector, EnvConfig, FogAccessPoint, SlotState,
                  sanitize_action, spectral_efficiency)

ORACLE_MAX_MDS = 12     # 2^M enumeration budget


def local_policy(state: SlotState) -> ActionVector:
    """Every task runs on its own device; no shares are granted."""
    m = state.num_mds
    return ActionVector(np.zeros(m, dtype=int), np.zeros(m), np.zeros(m))


def equal_policy(state: SlotState) -> ActionVector:
    """Every task is offloaded and both budgets are split evenly."""
    m = state.num_mds
    share = np.full(m, 1.0 / m)
    return ActionVector(np.ones(m, dtype=int), share, share.copy())


def closed_form_allocation(weights) -> np.ndarray:
    """Shares minimizing sum(w/y) on the unit simplex: y_m ~ sqrt(w_m)."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        return np.zeros(0)
    if not ((w > 0) & (w < np.inf)).all():
        raise ValueError("allocation weights must be positive and finite")
    root = np.sqrt(w)
    return root / root.sum()


@functools.cache
def subset_matrix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (M, 2^M) 0/1 matrix whose column `mask` holds bit i of `mask` in
    row i, and its complement; built once per M and read-only."""
    members = ((np.arange(1 << m) >> np.arange(m)[:, None]) & 1).astype(float)
    others = 1.0 - members
    members.flags.writeable = False
    others.flags.writeable = False
    return members, others


def _subset_sums(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i matrix[i, mask] * values[i] for every mask, adding the rows in
    index order (a matrix product leaves the order to BLAS, and subsets of
    equal cost could then differ in the last bit)."""
    return (matrix * values[:, None]).sum(axis=0)


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
    a_compute = wd * cycles / fap.cpu_freq
    full_rate = fap.bandwidth * spectral_efficiency(
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
    members, others = subset_matrix(m)
    costs = (_subset_sums(others, local)
             + (_subset_sums(members, np.sqrt(a_compute)) ** 2
                + _subset_sums(members, np.sqrt(a_bandwidth)) ** 2))
    best = int(np.argmin(costs))
    offload = members[:, best].astype(int)
    y = np.zeros(m)
    z = np.zeros(m)
    chosen = offload == 1
    y[chosen] = closed_form_allocation(a_compute[chosen])
    z[chosen] = closed_form_allocation(a_bandwidth[chosen])
    return ActionVector(offload, y, z), float(costs[best])


def oracle_policy(env, state: SlotState) -> ActionVector:
    """Per-slot optimum as a rollout policy.

    The optimal shares are passed through sanitize_action so they respect the
    environment's share floor; the perturbation is negligible.
    """
    action, _ = oracle_slot_optimum(state, env.fap, env.config)
    return sanitize_action(action.to_raw())
