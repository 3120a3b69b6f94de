"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written straight-line with scalar math (no
numpy vector tricks, no imports from the package's cost code paths beyond the
plain data containers), so that agreement with the package is evidence rather
than tautology. The one exception is ReferenceCell, which keeps the cell's
earlier per-slot draws and charges its slots through the package's slot_cost.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from fedfog.env import (EpisodeOverError, FogAccessPoint, SlotState, _reflect,
                        channel_gains, md_energy_coeff, slot_cost)


def straight_line_slot_cost(state, action, fap, config) -> float:
    """Recompute the weighted slot cost of a cell from first principles."""
    total_delay = 0.0
    total_energy = 0.0
    fap_x, fap_y = config.fap_position.tolist()
    for i in range(len(state.task_bits)):
        bits = float(state.task_bits[i])
        cycles = float(state.task_cycles[i])
        md_cpu = float(fap.md_cpu_freq[i])
        md_power = float(fap.md_tx_power[i])
        dx = float(state.md_positions[i][0]) - fap_x
        dy = float(state.md_positions[i][1]) - fap_y
        dist = math.sqrt(dx * dx + dy * dy)
        if dist < 1.0:
            dist = 1.0
        gain = dist ** (-float(config.path_loss_alpha))
        if int(action.offload[i]) == 0:
            delay = cycles / md_cpu
            energy = 1e-27 * md_cpu ** 2 * cycles
        else:
            y = float(action.compute_share[i])
            z = float(action.bandwidth_share[i])
            snr = md_power * gain / float(config.noise_power)
            rate = z * float(config.bandwidth) * math.log2(1.0 + snr)
            tx = bits / rate
            delay = cycles / (y * float(config.fap_cpu)) + tx
            energy = md_power * tx
        total_delay += delay
        total_energy += energy
    return (float(config.weight_delay) * total_delay
            + float(config.weight_energy) * total_energy)


def simplex_grid(k: int, step: float):
    """All points with positive multiples-of-step coordinates summing to 1."""
    n = round(1.0 / step)
    for cuts in itertools.combinations(range(1, n), k - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append((c - prev) * step)
            prev = c
        parts.append((n - prev) * step)
        yield parts


def grid_min_weighted_inverse(weights, step: float):
    """Grid minimum of sum(w_i / y_i) over the positive simplex."""
    k = len(weights)
    if k == 1:
        return [1.0], float(weights[0])
    best = None
    best_y = None
    for y in simplex_grid(k, step):
        val = 0.0
        for w, share in zip(weights, y):
            val += float(w) / share
        if best is None or val < best:
            best = val
            best_y = y
    return best_y, best


def _local_term(state, fap, config, i: int) -> float:
    cycles = float(state.task_cycles[i])
    md_cpu = float(fap.md_cpu_freq[i])
    d = cycles / md_cpu
    e = 1e-27 * md_cpu ** 2 * cycles
    return float(config.weight_delay) * d + float(config.weight_energy) * e


def _offload_terms(state, fap, config, i: int):
    """Per-unit-share weights (compute, bandwidth) of offloading MD i.

    The weighted offload cost of MD i with shares (y, z) is
    a_compute / y + a_bandwidth / z.
    """
    bits = float(state.task_bits[i])
    cycles = float(state.task_cycles[i])
    md_power = float(fap.md_tx_power[i])
    fap_x, fap_y = config.fap_position.tolist()
    dx = float(state.md_positions[i][0]) - fap_x
    dy = float(state.md_positions[i][1]) - fap_y
    dist = max(math.sqrt(dx * dx + dy * dy), 1.0)
    gain = dist ** (-float(config.path_loss_alpha))
    snr = md_power * gain / float(config.noise_power)
    full_rate = float(config.bandwidth) * math.log2(1.0 + snr)
    a_compute = float(config.weight_delay) * cycles / float(config.fap_cpu)
    a_bandwidth = ((float(config.weight_delay)
                    + float(config.weight_energy) * md_power)
                   * bits / full_rate)
    return a_compute, a_bandwidth


def enumerate_slot_optimum(state, fap, config):
    """Scalar enumeration of the per-slot optimum over the 2^M offload sets.

    The per-MD weights are computed one MD at a time from the state's gains,
    in the package's operation order, and every subset is scored in a double
    loop. Returns (offload list, cost, compute weights, bandwidth weights);
    on a tie the lowest mask wins.
    """
    m = len(state.task_bits)
    local, a_compute, a_bandwidth = _scalar_weights(state, fap, config)
    best_cost = math.inf
    best_mask = 0
    for mask in range(1 << m):
        cost = 0.0
        sq_compute = 0.0
        sq_bandwidth = 0.0
        for i in range(m):
            if mask >> i & 1:
                sq_compute += math.sqrt(a_compute[i])
                sq_bandwidth += math.sqrt(a_bandwidth[i])
            else:
                cost += local[i]
        cost += sq_compute ** 2 + sq_bandwidth ** 2
        if cost < best_cost:
            best_cost = cost
            best_mask = mask
    offload = [(best_mask >> i) & 1 for i in range(m)]
    return offload, best_cost, a_compute, a_bandwidth


def _scalar_weights(state, fap, config):
    """Local costs and compute and bandwidth weights of the MDs, one MD at
    a time from the state's gains, in the package's operation order."""
    wd = float(config.weight_delay)
    we = float(config.weight_energy)
    local, a_compute, a_bandwidth = [], [], []
    for i in range(len(state.task_bits)):
        bits = float(state.task_bits[i])
        cycles = float(state.task_cycles[i])
        md_power = float(fap.md_tx_power[i])
        local.append(wd * (cycles / float(fap.md_cpu_freq[i]))
                     + we * (float(fap.md_energy_coeff[i]) * cycles))
        a_compute.append(wd * cycles / float(config.fap_cpu))
        snr = md_power * float(state.channel_gains[i]) / float(config.noise_power)
        full_rate = float(config.bandwidth) * math.log2(1.0 + snr)
        a_bandwidth.append((wd + we * md_power) * bits / full_rate)
    return local, a_compute, a_bandwidth


def enumerate_subset_costs(state, fap, config):
    """Cost of every offload subset, entry `mask` offloading the MDs whose
    bits `mask` sets, scored one subset at a time: each sum adds its MDs in
    index order from 0.0, squares are products, and the two share terms
    are added together before the local term is added to them."""
    m = len(state.task_bits)
    local, a_compute, a_bandwidth = _scalar_weights(state, fap, config)
    costs = []
    for mask in range(1 << m):
        kept = 0.0
        sq_compute = 0.0
        sq_bandwidth = 0.0
        for i in range(m):
            if mask >> i & 1:
                sq_compute += math.sqrt(a_compute[i])
                sq_bandwidth += math.sqrt(a_bandwidth[i])
            else:
                kept += local[i]
        costs.append(kept + (sq_compute * sq_compute
                             + sq_bandwidth * sq_bandwidth))
    return costs


def grid_slot_optimum(state, fap, config, step: float):
    """Exhaustive minimum of the slot cost over offload sets and share grids.

    For a fixed offload set the cost splits into an additive compute part
    (depends only on y) and bandwidth part (depends only on z), so the two
    grids are searched independently; their sum equals the joint grid
    minimum.
    """
    m = len(state.task_bits)
    best = None
    for mask in itertools.product((0, 1), repeat=m):
        cost = 0.0
        offloaded = [i for i in range(m) if mask[i] == 1]
        for i in range(m):
            if mask[i] == 0:
                cost += _local_term(state, fap, config, i)
        if offloaded:
            terms = [_offload_terms(state, fap, config, i) for i in offloaded]
            _, c_part = grid_min_weighted_inverse([t[0] for t in terms], step)
            _, b_part = grid_min_weighted_inverse([t[1] for t in terms], step)
            cost += c_part + b_part
        if best is None or cost < best:
            best = cost
    return best


def grid_slot_optimum_joint(state, fap, config, step: float):
    """Joint (y, z) grid search, no separability shortcut. Exponentially
    slower; only usable at coarse steps to validate the shortcut."""
    m = len(state.task_bits)
    best = None
    for mask in itertools.product((0, 1), repeat=m):
        local = sum(_local_term(state, fap, config, i)
                    for i in range(m) if mask[i] == 0)
        offloaded = [i for i in range(m) if mask[i] == 1]
        if not offloaded:
            cand = local
            best = cand if best is None else min(best, cand)
            continue
        terms = [_offload_terms(state, fap, config, i) for i in offloaded]
        k = len(offloaded)
        for y in simplex_grid(k, step):
            for z in simplex_grid(k, step):
                cand = local
                for (a_c, a_b), ys, zs in zip(terms, y, z):
                    cand += a_c / ys + a_b / zs
                if best is None or cand < best:
                    best = cand
    return best


def nearest_grid_point(shares, step: float):
    """Round simplex shares to the grid, repairing the sum on the largest."""
    n = round(1.0 / step)
    counts = [max(1, round(s * n)) for s in shares]
    # repair the total count by nudging the largest entries
    while sum(counts) > n:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < n:
        counts[counts.index(max(counts))] += 1
    return [c * step for c in counts]


def central_difference(func, x, h: float = 1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = func(x)
        flat[i] = orig - h
        lo = func(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def count_params(sizes) -> int:
    """Parameter count of a dense net, counted one layer at a time."""
    total = 0
    for i in range(len(sizes) - 1):
        total += sizes[i] * sizes[i + 1]   # weights
        total += sizes[i + 1]              # biases
    return total


class ReferenceCell:
    """The cell's episode mechanics as they were before episodes drew their
    trace at reset(): each slot draws its tasks when it opens and each move
    draws its step lengths and headings when the slot closes, from the one
    stream of the instance seed. The MDs' walk is kept in md_positions.
    Costs go through the package's slot_cost.
    """

    def __init__(self, config, seed):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self.fap = FogAccessPoint(np.empty(0), np.empty(0), np.empty(0))
        self.md_positions = np.empty((0, 2))
        self.state = None
        self.last_cost = None
        self.t = 0
        self._sums = (0.0, 0.0, 0.0, 0.0)

    def reset(self, seed=None):
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.config
        m = cfg.mds_per_fap
        fap = self.fap
        self.md_positions = self._rng.uniform(0.0, cfg.cell_side, size=(m, 2))
        fap.md_cpu_freq = self._rng.uniform(*cfg.md_cpu_range, size=m)
        fap.md_tx_power = self._rng.uniform(*cfg.md_power_range, size=m)
        fap.md_energy_coeff = md_energy_coeff(fap.md_cpu_freq)
        self.t = 0
        self.last_cost = None
        self._sums = (0.0, 0.0, 0.0, 0.0)
        self.state = self._observe()
        return self.state

    def step(self, action):
        if self.state is None:
            raise EpisodeOverError("reset() must be called before step()")
        if self.t >= self.config.steps_per_episode:
            raise EpisodeOverError(
                f"episode is over after {self.config.steps_per_episode} steps")
        breakdown = slot_cost(self.state, action, self.fap, self.config)
        self.last_cost = breakdown
        reward = -breakdown.cost / self.config.mds_per_fap
        r, c, d, e = self._sums
        self._sums = (r + reward, c + breakdown.cost,
                      d + breakdown.total_delay, e + breakdown.total_energy)
        self._move_devices()
        self.t += 1
        self.state = self._observe()
        return reward, self.state

    def episode_metrics(self):
        reward, cost, delay, energy = self._sums
        return reward, cost / self.t, delay / self.t, energy / self.t

    def _observe(self):
        """Draw fresh tasks and snapshot positions/gains for the new slot."""
        cfg = self.config
        m = cfg.mds_per_fap
        bits = self._rng.uniform(*cfg.task_bits_range, size=m)
        cpb = self._rng.uniform(*cfg.cycles_per_bit_range, size=m)
        gains = channel_gains(self.md_positions, cfg.fap_position,
                              cfg.path_loss_alpha)
        return SlotState(bits, bits * cpb, self.md_positions.copy(), gains)

    def _move_devices(self):
        """Bounded random walk, reflected at the cell walls."""
        cfg = self.config
        m = cfg.mds_per_fap
        step_len = self._rng.uniform(0.0, cfg.max_move_per_slot, size=m)
        angle = self._rng.uniform(0.0, 2.0 * np.pi, size=m)
        heading = np.stack((np.cos(angle), np.sin(angle)), axis=1)
        self.md_positions = _reflect(
            self.md_positions + step_len[:, None] * heading, cfg.cell_side)
