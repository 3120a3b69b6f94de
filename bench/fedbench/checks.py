"""Output checks and the count of failed operations.

The checks are invariants of the package's outputs, never golden numbers, so
a correct change that reorders float operations or random draws passes them.
Every timed operation runs inside `Ledger.op`; an operation fails when its
call raises or when one of its checks does. Checks use the package's
functions as imported here, so they stay untraced while a tracer is
installed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from fedfog.baselines import equal_policy, local_policy
from fedfog.env import slot_cost
from fedfog.nn import flatten_mlp

# Online networks of each agent kind, in the order they lead its upload.
ONLINE_NETS = {"ddpg": ("actor", "critic"), "dqn": ("net",)}

AVERAGE_TOL = 1e-12
# The oracle's shares pass through sanitize_action's floor and rescale, which
# moves its realized slot cost off the exact optimum by float residue only.
ORACLE_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the package broke one of its invariants."""


class OpAborted(Exception):
    """A call into the package raised; the workload cannot go on."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @contextmanager
    def op(self, label: str):
        """Count one operation; a failed check is recorded and the run goes
        on, any other exception is recorded and aborts the run."""
        self.attempted += 1
        try:
            yield
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{label}: {exc}")
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            raise OpAborted(label) from exc


def finite_positive(x) -> bool:
    return math.isfinite(x) and x > 0.0


def check_round(kind: str, report, model, agents) -> None:
    """Invariants of one federated round's outputs.

    The agents still hold the weights they uploaded, so the global model must
    be their plain mean. Loading it must put the broadcast slices into each
    agent's online networks; run_round loads the same weights again at the
    start of the next round, so this extra load leaves the run unchanged.
    """
    for name in ("mean_cost", "mean_delay", "mean_energy"):
        check(finite_positive(getattr(report, name)),
              f"round {report.round_index} {name}={getattr(report, name)!r}")
    weights = model.weights.values
    check(np.all(np.isfinite(weights)), "global weights not finite")
    uploads = np.stack([agent.export_weights().values for agent in agents])
    gap = float(np.max(np.abs(uploads.mean(axis=0) - weights)))
    check(gap <= AVERAGE_TOL, f"average differs from the mean by {gap!r}")
    for agent in agents:
        agent.load_global(model.weights)
        offset = 0
        for net in ONLINE_NETS[kind]:
            values = flatten_mlp(getattr(agent, net)).values
            check(np.array_equal(values,
                                 weights[offset:offset + values.size]),
                  f"{net} differs from its broadcast slice")
            offset += values.size


def reference_costs(env, state) -> tuple[float, float]:
    """fap-equal and local slot costs of `state` in `env`'s cell."""
    equal = slot_cost(state, equal_policy(state), env.fap, env.config).cost
    local = slot_cost(state, local_policy(state), env.fap, env.config).cost
    return equal, local


def check_oracle_slot(oracle: float, equal: float, local: float) -> None:
    check(finite_positive(oracle), f"oracle slot cost {oracle!r}")
    check(oracle <= min(equal, local) * (1.0 + ORACLE_REL_TOL),
          f"oracle slot cost {oracle!r} above equal {equal!r} "
          f"or local {local!r}")


def check_ordering(oracle: float, equal: float, local: float) -> None:
    """Pooled over the same draws: oracle <= fap-equal < local."""
    check(oracle <= equal * (1.0 + ORACLE_REL_TOL),
          f"pooled oracle {oracle!r} above equal {equal!r}")
    check(equal < local, f"pooled equal {equal!r} not below local {local!r}")
