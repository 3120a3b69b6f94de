"""Fog cell simulator: tasks, mobility, wireless uplink, and execution costs.

One environment instance models the cell of a single fog access point (FAP)
serving M mobile devices (MDs). Time advances in fixed slots. Each slot every
MD generates one task (bits to upload, CPU cycles to execute) that either runs
on the device or is offloaded in full over the shared uplink to the FAP.

Per-slot cost terms for device m:

    local:    delay  = cycles / f_md
              energy = xi * cycles,          xi = 1e-27 * f_md**2   (J/cycle)
    offload:  delay  = cycles / (y * f_fap) + bits / rate
              energy = p_tx * bits / rate
              rate   = z * B * log2(1 + p_tx * gain / noise)
              gain   = max(dist, 1 m) ** -alpha

y and z are the compute and bandwidth shares granted by the FAP; each group
sums to at most 1 across the cell. The slot cost is the weighted sum
w_delay * total_delay + w_energy * total_energy over all MDs, and the step
reward is the negated cost divided by M so reward magnitudes stay comparable
across cell sizes.

Downlink result delivery, FAP-side energy, and cross-slot task queueing are
deliberately not modeled.

Layout: a cell's FogAccessPoint holds only what reset() draws for its MDs,
as arrays over the cell, MD i at index i; SlotState and ActionVector use the
same order on their last axis, and may hold T slots as rows before it. The
FAP's CPU, bandwidth and position (the cell centre) live in EnvConfig alone.
Costs, gains and mobility are whole-array expressions, except the gain's
power and the rate's log2, which run per MD on Python floats through libm
(see channel_gains). rollout_episode decides a whole episode with one policy
call on (T, M) rows, and FogCellEnv.play charges it with one slot_cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BITS_PER_KB = 8000.0

# Distance clamp for the power-law channel gain; keeps SNR finite when an MD
# wanders arbitrarily close to the FAP.
D_MIN = 1.0

# Smallest compute/bandwidth share an offloaded MD may hold. The offload
# delay divides by y and z, so a zero share with an offload decision would be
# undefined; sanitize_action floors shares here before costs are evaluated.
EPS_ALLOC = 1e-3

# Slack for floating-point sums when checking the share-budget constraints,
# and the smallest share an offloaded MD passes validation with.
_SUM_TOL = 1e-9
_FLOOR = EPS_ALLOC - 1e-15


class ActionConstraintError(ValueError):
    """An action violates a structural constraint (in slot `slot`, if set)."""

    slot: int | None = None

    def __init__(self, constraint: str, detail: str = ""):
        super().__init__(constraint, detail)
        self.constraint = constraint
        self.detail = detail

    def __str__(self) -> str:
        where = None if self.slot is None else f"slot {self.slot}"
        detail = ", ".join(filter(None, (where, self.detail)))
        return f"{self.constraint}: {detail}" if detail else self.constraint


class EpisodeOverError(RuntimeError):
    """step() was called after the episode's final slot."""


def md_energy_coeff(cpu_freq):
    """Per-cycle switching energy of an MD chip running at `cpu_freq` Hz
    (a float or an array over the cell's MDs)."""
    return 1e-27 * cpu_freq * cpu_freq


@dataclass
class EnvConfig:
    """Static parameters of the fog network and of one episode."""

    num_faps: int = 2
    mds_per_fap: int = 3
    cell_side: float = 200.0            # m, square cell per FAP
    bandwidth: float = 1e7              # Hz shared by the cell uplink
    fap_cpu: float = 5e9                # Hz
    md_cpu_range: tuple[float, float] = (1e9, 2e9)      # Hz, uniform draw
    md_power_range: tuple[float, float] = (0.1, 1.0)    # W, uniform draw
    noise_power: float = 1e-13          # W (-100 dBm)
    path_loss_alpha: float = 4.0
    task_bits_range: tuple[float, float] = (200.0 * BITS_PER_KB, 300.0 * BITS_PER_KB)
    cycles_per_bit_range: tuple[float, float] = (200.0, 500.0)
    weight_delay: float = 0.5           # omega; the energy weight is 1 - omega
    steps_per_episode: int = 50
    max_move_per_slot: float = 5.0      # m, uniform step length bound

    def __post_init__(self):
        for name in ("cell_side", "bandwidth", "fap_cpu", "noise_power",
                     "path_loss_alpha"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("md_cpu_range", "md_power_range", "task_bits_range",
                     "cycles_per_bit_range"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not 0 < bounds[0] <= bounds[1] < math.inf:
                raise ValueError(f"{name} must be [min, max] with "
                                 f"0 < min <= max < inf, got {bounds!r}")
        if self.num_faps < 1:
            raise ValueError("num_faps must be >= 1")
        if self.mds_per_fap < 1:
            raise ValueError("mds_per_fap must be >= 1")
        if self.steps_per_episode < 1:
            raise ValueError("steps_per_episode must be >= 1")
        if not 0 <= self.max_move_per_slot < math.inf:
            raise ValueError("max_move_per_slot must be finite and >= 0")
        if not 0.0 <= self.weight_delay <= 1.0:
            raise ValueError("weight_delay must lie in [0, 1]")

    @property
    def weight_energy(self) -> float:
        return 1.0 - self.weight_delay

    @property
    def state_dim(self) -> int:
        return 5 * self.mds_per_fap + 2

    @property
    def fap_position(self) -> np.ndarray:      # m, the cell centre
        return np.full(2, self.cell_side / 2.0)

    @property
    def max_task_bits(self) -> float:
        return self.task_bits_range[1]

    @property
    def max_task_cycles(self) -> float:
        return self.task_bits_range[1] * self.cycles_per_bit_range[1]


@dataclass
class FogAccessPoint:
    """What reset() draws for the M MDs of a FAP's cell, as arrays."""

    md_cpu_freq: np.ndarray             # (M,) Hz
    md_tx_power: np.ndarray             # (M,) W
    md_energy_coeff: np.ndarray         # (M,) J/cycle, 1e-27 * md_cpu_freq**2


@dataclass
class SlotState:
    """Observable state of a cell at one slot, or at several along axis 0."""

    task_bits: np.ndarray
    task_cycles: np.ndarray
    md_positions: np.ndarray            # (M, 2)
    channel_gains: np.ndarray

    @property
    def num_mds(self) -> int:
        return self.task_bits.shape[-1]


@dataclass
class ActionVector:
    """Joint offload decision plus compute/bandwidth shares for a cell."""

    offload: np.ndarray                 # (M,) in {0, 1}
    compute_share: np.ndarray           # (M,) in [0, 1]
    bandwidth_share: np.ndarray         # (M,) in [0, 1]

    def validate(self) -> None:
        """Raise ActionConstraintError naming the first violated constraint.

        The checks run on the Python floats of tolist(), cheaper at cell
        sizes than numpy calls; the constraint is named once one has failed.
        Rows are checked in one numpy pass, and the first flagged row that
        fails its own check raises its error, naming row k as slot k.
        """
        if self.offload.ndim > 1:
            return self._validate_rows()
        offload = self.offload.tolist()
        y, z = self.compute_share.tolist(), self.bandwidth_share.tolist()
        if len(y) != len(offload) or len(z) != len(offload):
            raise ActionConstraintError("length mismatch",
                                        "offload/compute/bandwidth differ")
        if not (sum(y) <= 1.0 + _SUM_TOL and sum(z) <= 1.0 + _SUM_TOL
                and min(y + z) >= 0.0 and max(y + z) <= 1.0
                and all(x == 0 or (x == 1 and a >= _FLOOR and b >= _FLOOR)
                        for x, a, b in zip(offload, y, z))):
            self._name_violation(offload, (y, z))

    def _validate_rows(self) -> None:
        x, y, z = self.offload, self.compute_share, self.bandwidth_share
        if y.shape != x.shape or z.shape != x.shape:
            raise ActionConstraintError("length mismatch",
                                        "offload/compute/bandwidth differ")
        shares = np.concatenate((y, z), axis=-1)
        # A sum within 1e-12 of the bound is flagged too: the row's own
        # check adds its shares as Python does and has the last word.
        fine = ((np.maximum(y.sum(-1), z.sum(-1)) <= 1.0 + _SUM_TOL - 1e-12)
                & ((shares >= 0.0) & (shares <= 1.0)).all(-1)
                & ((x == 0) | ((x == 1) & (y >= _FLOOR) & (z >= _FLOOR))).all(-1))
        for k in np.flatnonzero(~fine).tolist():
            try:
                ActionVector(x[k], y[k], z[k]).validate()
            except ActionConstraintError as err:
                err.slot = k
                raise

    def _name_violation(self, offload, shares) -> None:
        if not all(x in (0, 1) for x in offload):
            raise ActionConstraintError("offload not binary")
        for name, share in zip(("compute_share", "bandwidth_share"), shares):
            if not all(map(math.isfinite, share)):
                raise ActionConstraintError(f"{name} not finite")
            if min(share) < 0 or max(share) > 1:
                raise ActionConstraintError(f"{name} outside [0, 1]")
            if sum(share) > 1.0 + _SUM_TOL:
                raise ActionConstraintError(f"sum({name}) > 1",
                                            f"sum={sum(share)!r}")
            if any(x == 1 and s < _FLOOR for x, s in zip(offload, share)):
                raise ActionConstraintError(
                    f"{name} below minimum share for an offloaded MD",
                    f"floor={EPS_ALLOC}")

    def to_raw(self) -> np.ndarray:
        """Concatenated [x, y, z] vector (or rows) in actor output order."""
        return np.concatenate([self.offload.astype(float), self.compute_share,
                               self.bandwidth_share], axis=-1)


@dataclass
class CostBreakdown:
    # the cost of T slots' rows holds (T,) totals and (T, M) per-MD terms
    total_delay: float                  # s, summed over MDs
    total_energy: float                 # J, summed over MDs
    cost: float                         # weighted units
    per_md_delay: np.ndarray
    per_md_energy: np.ndarray


def channel_gains(md_positions: np.ndarray, fap_position: np.ndarray,
                  alpha: float) -> np.ndarray:
    """Power-law gains max(dist, D_MIN)**-alpha of every MD to its FAP.

    The clamped distances come from one np.hypot and np.maximum over the
    cell; the power runs per MD on Python floats, because numpy's SIMD power
    does not round like libm's pow on every argument and the trajectories
    are pinned to libm.
    """
    dist = np.maximum(np.hypot(md_positions[:, 0] - fap_position[0],
                               md_positions[:, 1] - fap_position[1]), D_MIN)
    return np.array([d ** -alpha for d in dist.tolist()])


def spectral_efficiency(tx_power: np.ndarray, gains: np.ndarray,
                        noise_power: float) -> np.ndarray:
    """log2(1 + p * g / noise) per MD, in bit/s/Hz, through libm's log2."""
    snr1 = 1.0 + tx_power * gains / noise_power
    return np.array([math.log2(v) for v in snr1.tolist()])


def slot_cost(state: SlotState, action: ActionVector, fap: FogAccessPoint,
              config: EnvConfig) -> CostBreakdown:
    """Weighted delay-energy cost of the cell for one slot under `action`,
    or of each row of a state and an action with a leading slot axis.

    Every MD gets its local terms; the offloaded MDs then get theirs
    overwritten by the offload terms. Only the device's transmit energy is
    charged for an offloaded task; FAP-side energy is not part of the model.
    Each row costs what its slot alone does, bit for bit.
    """
    if state.num_mds != len(fap.md_cpu_freq):
        raise ActionConstraintError("length mismatch", "state vs fap devices")
    if action.offload.shape != state.task_bits.shape:
        raise ActionConstraintError("length mismatch", "action vs state devices")
    action.validate()
    cycles = state.task_cycles
    per_delay = cycles / fap.md_cpu_freq
    per_energy = fap.md_energy_coeff * cycles
    off = np.nonzero(action.offload)
    if off[0].size:
        power = fap.md_tx_power[off[-1]]
        rate = (action.bandwidth_share[off] * config.bandwidth
                * spectral_efficiency(power, state.channel_gains[off],
                                      config.noise_power))
        tx_delay = state.task_bits[off] / rate
        per_delay[off] = (cycles[off] / (action.compute_share[off] * config.fap_cpu)
                          + tx_delay)
        per_energy[off] = power * tx_delay
    total_delay = per_delay.sum(axis=-1)
    total_energy = per_energy.sum(axis=-1)
    if per_delay.ndim == 1:
        total_delay, total_energy = float(total_delay), float(total_energy)
    cost = config.weight_delay * total_delay + config.weight_energy * total_energy
    return CostBreakdown(total_delay, total_energy, cost, per_delay, per_energy)


def decode_shares(raw: np.ndarray) -> np.ndarray:
    """Map each raw row [x, r_y, r_z] in [0, 1]^(3M) to [x, y, z] shares.

    An MD is offloaded when x > 0.5. Within each share group an offloaded MD
    i receives (1 + r_i) / sum_j (1 + r_j) over the offloaded MDs j, and an
    MD run locally receives 0. The offloaded MDs therefore always spend the
    whole budget, each keeps at least 1/(2k - 1) of it for k offloaded MDs,
    and equal weights give the equal split. Both agents decode their
    actions through this rule before sanitize_action.
    """
    raw = np.asarray(raw, dtype=float)
    lead, m = raw.shape[:-1], raw.shape[-1] // 3
    weights = ((1.0 + raw[..., m:].reshape(*lead, 2, m))
               * (raw[..., None, :m] > 0.5))
    totals = weights.sum(axis=-1, keepdims=True)
    out = raw.copy()
    # an all-local row has zero totals and keeps zero shares
    out[..., m:] = np.divide(weights, totals, out=np.zeros_like(weights),
                             where=totals > 0.0).reshape(*lead, 2 * m)
    return out


def sanitize_action(raw: np.ndarray) -> ActionVector:
    """Project a raw actor output in [0, 1]^(3M) onto the feasible action set;
    (T, 3M) rows come out bit for bit as T calls would give them.

    Offload decisions are thresholded at 0.5. Shares of non-offloaded MDs are
    zeroed; shares of offloaded MDs are floored at EPS_ALLOC and, when a
    group's sum exceeds 1, the surplus above the floor is scaled down so the
    group sums to 1 with every floor kept. The projection is idempotent.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim not in (1, 2) or raw.shape[-1] % 3 != 0 or raw.shape[-1] == 0:
        raise ValueError(f"raw action must be 3M values or (T, 3M) rows, "
                         f"got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ValueError(f"raw action must be finite, got {raw.tolist()}")
    m = raw.shape[-1] // 3
    offload = (raw[..., :m] > 0.5).astype(int)
    mask = offload[..., None, :] == 1
    # axis -2: the compute and the bandwidth group; `groups` has one per row
    shares = np.where(mask, np.maximum(raw[..., m:].reshape(*raw.shape[:-1], 2, m),
                                       EPS_ALLOC), 0.0)
    groups = shares.reshape(-1, m)
    totals = groups.sum(axis=1)
    over = totals > 1.0
    if over.any():
        # k offloaded MDs per over-budget group: for one slot Python scalars,
        # several µs cheaper per DDPG step and oracle slot than numpy arrays
        if raw.ndim == 1:
            held, k = mask[0], int(offload.sum())
            infeasible = [k] if k * EPS_ALLOC >= 1.0 else []
        else:
            held = mask.reshape(-1, m).repeat(2, axis=0)[over]
            k = held.sum(axis=1, keepdims=True)
            infeasible = k[k * EPS_ALLOC >= 1.0]
        if len(infeasible):
            raise ActionConstraintError("infeasible share floor",
                                        f"{infeasible[0]} offloaded MDs at "
                                        f"floor {EPS_ALLOC} exceed the budget")
        floor = k * EPS_ALLOC
        # Rescale only the surplus above the floor: the floor survives and
        # the group lands exactly on the unit budget.
        groups[over] = np.where(held, EPS_ALLOC + (groups[over] - EPS_ALLOC)
                                * (1.0 - floor) / (totals[over, None] - floor),
                                0.0)
        excess = groups.sum(axis=1) - 1.0
        while (excess > 0.0).any():   # shave float residue off largest shares
            rows = np.flatnonzero(excess > 0.0)
            groups[rows, groups[rows].argmax(axis=1)] -= excess[rows]
            excess = groups.sum(axis=1) - 1.0
    return ActionVector(offload, shares[..., 0, :], shares[..., 1, :])


# config.fap_position / config.cell_side: (side / 2) / side is exactly 0.5
_FAP_COLUMNS = np.array([0.5, 0.5])


def flatten_state(state: SlotState, config: EnvConfig) -> np.ndarray:
    """Normalized features, 5M + 2 per slot (row), every entry in [0, 1].

    Order: task bits, task cycles, FAP position, MD positions, channel gains.
    Bits and cycles are scaled by their configured maxima, positions by the
    cell side, and gains by the clamp-distance gain (their upper bound).
    """
    lead = state.task_bits.shape[:-1]
    gain_scale = D_MIN ** config.path_loss_alpha
    return np.concatenate([
        state.task_bits / config.max_task_bits,
        state.task_cycles / config.max_task_cycles,
        np.broadcast_to(_FAP_COLUMNS, (*lead, 2)),
        state.md_positions.reshape(*lead, -1) / config.cell_side,
        state.channel_gains * gain_scale,
    ], axis=-1)


def md_rotations(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index maps that rotate the MD order of flat states and raw actions.

    Row k of the first map gathers a flatten_state vector so that MD slot j
    holds MD (j + k) % M; row k of the second does the same for a raw
    [x, y, z] action vector. Relabeling MDs does not change the cell, so a
    policy can be averaged over these M rotations.
    """
    j = np.arange(m)
    states, actions = [], []
    for k in range(m):
        p = (j + k) % m
        idx = np.arange(5 * m + 2)
        # bits, cycles, MD x, MD y and gains; the FAP position stays put
        for start, stride in ((0, 1), (m, 1), (2 * m + 2, 2), (2 * m + 3, 2),
                              (4 * m + 2, 1)):
            idx[start + stride * j] = start + stride * p
        states.append(idx)
        actions.append(np.concatenate([p, m + p, 2 * m + p]))
    return (np.array(states, dtype=int).reshape(m, 5 * m + 2),
            np.array(actions, dtype=int).reshape(m, 3 * m))


class FogCellEnv:
    """Episodic MDP view of one FAP cell.

    A single instance is owned by one agent and is not thread-safe; run one
    instance per FAP for a multi-cell system. All randomness (device draws,
    tasks, mobility) flows from the instance seed.

    No action changes what the cell draws, so reset() draws the episode's
    whole exogenous input at once, as its trace: the devices, every slot's
    tasks, positions and gains. step() charges the slot and moves on to the
    trace's next row; play() charges all slots left as those step() calls
    would. A whole episode is the same as if each slot drew its tasks when it
    opened and each move its steps when the slot closed. The draws are fixed
    at reset(), though: the next reset() draws on from the end of the whole
    trace, however many slots of it were played.
    """

    def __init__(self, config: EnvConfig, seed):
        self.config = config
        self._rng = np.random.default_rng(seed)
        # the MD arrays are drawn by reset()
        self.fap = FogAccessPoint(np.empty(0), np.empty(0), np.empty(0))
        self.state: SlotState | None = None
        self.last_cost: CostBreakdown | None = None
        self.t = 0
        self._sums = (0.0, 0.0, 0.0, 0.0)  # reward, cost, delay, energy
        self._trace: tuple[np.ndarray, ...] = ()

    def reset(self, seed=None) -> SlotState:
        """Start a fresh episode and draw its trace; equal seeds reproduce
        it exactly.

        MD positions are re-drawn uniformly in the cell and each device's CPU
        frequency and transmit power are re-drawn once and held fixed for the
        whole episode.
        """
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.config
        m = cfg.mds_per_fap
        fap = self.fap
        start = self._rng.uniform(0.0, cfg.cell_side, size=(m, 2))
        fap.md_cpu_freq = self._rng.uniform(*cfg.md_cpu_range, size=m)
        fap.md_tx_power = self._rng.uniform(*cfg.md_power_range, size=m)
        fap.md_energy_coeff = md_energy_coeff(fap.md_cpu_freq)
        self._trace = self._draw_trace(start)
        self.t = 0
        self.last_cost = None
        self._sums = (0.0, 0.0, 0.0, 0.0)
        self.state = self._slot(0)
        return self.state

    def step(self, action: ActionVector) -> tuple[float, SlotState]:
        """Apply `action` to the current slot; return (reward, next state).

        The reward is -cost / M. Positions are frozen within the slot; MDs
        move and new tasks arrive only when the slot closes.
        """
        self._check_open()
        breakdown = slot_cost(self.state, action, self.fap, self.config)
        self.last_cost = breakdown
        reward = -breakdown.cost / self.config.mds_per_fap
        r, c, d, e = self._sums
        self._sums = (r + reward, c + breakdown.cost,
                      d + breakdown.total_delay, e + breakdown.total_energy)
        self.t += 1
        self.state = self._slot(self.t)
        return reward, self.state

    def play(self, actions: ActionVector) -> None:
        """Charge slots t to T - 1 the (T - t, M) rows of `actions` with one
        slot_cost; t, state, last_cost and the sums (added in slot order) end
        as step() calls would leave them. A row step() would refuse raises its
        step() error naming its slot, and rows of another shape a length
        mismatch; either way no slot is charged."""
        self._check_open()
        try:
            rows = slot_cost(self.trace_states(), actions, self.fap, self.config)
        except ActionConstraintError as err:
            if err.slot is not None:
                err.slot += self.t
            raise
        m = self.config.mds_per_fap
        r, c, d, e = self._sums
        for cost, delay, energy in zip(rows.cost.tolist(), rows.total_delay.tolist(),
                                       rows.total_energy.tolist()):
            r, c, d, e = r + -cost / m, c + cost, d + delay, e + energy
        self._sums = (r, c, d, e)
        self.last_cost = CostBreakdown(delay, energy, cost, rows.per_md_delay[-1],
                                       rows.per_md_energy[-1])
        self.t = self.config.steps_per_episode
        self.state = self._slot(self.t)

    def _check_open(self) -> None:
        if self.state is None:
            raise EpisodeOverError("reset() must be called before step()")
        if self.t >= self.config.steps_per_episode:
            raise EpisodeOverError(
                f"episode is over after {self.config.steps_per_episode} steps")

    def episode_metrics(self) -> tuple[float, float, float, float]:
        """(total reward, mean cost, mean delay, mean energy) of the slots
        played since reset(); the means are per-slot averages of the cell
        totals."""
        if self.t == 0:
            raise RuntimeError("episode_metrics() averages over the slots "
                               "played since reset(), and no slot has been "
                               "played")
        reward, cost, delay, energy = self._sums
        return reward, cost / self.t, delay / self.t, energy / self.t

    def flatten_state(self, state: SlotState) -> np.ndarray:
        return flatten_state(state, self.config)

    def trace_states(self) -> SlotState:
        """The slots t to T - 1 still to play, along a leading axis."""
        return self._slot(slice(self.t, self.config.steps_per_episode))

    def _draw_trace(self, start: np.ndarray) -> tuple[np.ndarray, ...]:
        """Task bits and cycles, MD positions and gains of the
        episode's T + 1 slots, row t for slot t, from MD positions `start`.

        One block of uniforms holds, per slot, the step length and heading
        of the move that opens it, then its task bits and cycles per bit;
        slot 0 opens without a move. Each is scaled as lo + (hi - lo) * u,
        as Generator.uniform scales the same draws. The moves form a
        bounded random walk, reflected at the cell walls: each position is
        the reflection of the last one plus its move.
        """
        cfg = self.config
        steps, m = cfg.steps_per_episode, cfg.mds_per_fap
        u = np.empty((steps + 1, 4, m))
        self._rng.random(out=u.reshape(-1)[2 * m:])
        lo, hi = cfg.task_bits_range
        bits = lo + (hi - lo) * u[:, 2]
        lo, hi = cfg.cycles_per_bit_range
        cycles = bits * (lo + (hi - lo) * u[:, 3])
        step_len = cfg.max_move_per_slot * u[1:, 0]
        angle = 2.0 * np.pi * u[1:, 1]
        heading = np.stack((np.cos(angle), np.sin(angle)), axis=2)
        moves = np.concatenate((start[None], step_len[:, :, None] * heading))
        # Reflection is the identity inside the cell, so the walk is a
        # running sum that restarts, reflected, at each row leaving the
        # cell: the sum runs from `row` to the end, its first row outside
        # is reflected, and the next sum starts from that row.
        walk = moves.reshape(steps + 1, 2 * m)
        positions = np.empty_like(walk)
        row = 0
        while row <= steps:
            rest = positions[row:]
            np.cumsum(walk[row:], axis=0, out=rest)
            out = ((rest < 0.0) | (rest > cfg.cell_side)).any(axis=1)
            k = int(out.argmax())
            if not out[k]:
                break
            rest[k] = _reflect(rest[k], cfg.cell_side)
            row += k + 1
            if row <= steps:
                walk[row] += positions[row - 1]
        gains = channel_gains(positions.reshape(-1, 2), cfg.fap_position,
                              cfg.path_loss_alpha)
        return (bits, cycles, positions.reshape(steps + 1, m, 2),
                gains.reshape(steps + 1, m))

    def _slot(self, t) -> SlotState:
        """Slot t of the trace, or for a slice t its slots along axis 0."""
        bits, cycles, positions, gains = self._trace
        return SlotState(bits[t], cycles[t], positions[t], gains[t])


def _reflect(pos: np.ndarray, side: float) -> np.ndarray:
    """Fold positions back into [0, side] per coordinate by mirror reflection."""
    period = 2.0 * side
    folded = np.mod(pos, period)
    return np.where(folded > side, period - folded, folded)


def rollout_episode(env: FogCellEnv, policy):
    """Run one full episode under `policy(env, states) -> ActionVector` and
    return its env.episode_metrics().

    After reset(), the policy is called once, on the (T, M) rows of
    env.trace_states(), and env.play() charges the (T, M) actions it returns.
    It may read env.fap and env.config, not the sums or last_cost.
    """
    env.reset()
    env.play(policy(env, env.trace_states()))
    return env.episode_metrics()
