"""Failed output checks are counted, and a run without its source fails."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fedbench import checks, layers, workloads
from fedbench.checks import CheckFailed, Ledger, OpAborted
from fedfog import federated
from fedfog.ddpg import DdpgHyperParams
from fedfog.env import EnvConfig

ROOT = Path(__file__).resolve().parents[2]
TINY_ENV = EnvConfig(num_faps=2, mds_per_fap=2, steps_per_episode=10)
TINY_DDPG = DdpgHyperParams(hidden=(8, 8), replay_capacity=200, batch_size=16)


def test_failed_check_is_counted_and_the_run_goes_on():
    ledger = Ledger()
    with ledger.op("good"):
        checks.check(True, "fine")
    with ledger.op("bad"):
        checks.check(False, "broken output")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.fail_frac == 0.5
    assert ledger.errors == ["bad: broken output"]


def test_raising_call_is_counted_and_aborts():
    ledger = Ledger()
    with pytest.raises(OpAborted):
        with ledger.op("call"):
            raise FloatingPointError("non-finite gradient")
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_tampered_global_model_raises_fail_frac():
    agents, envs, _, model = federated.setup_federation(
        TINY_ENV, "ddpg", 5, ddpg_hp=TINY_DDPG)
    ledger = Ledger()
    for _ in range(2):
        with ledger.op("round"):
            model, report = federated.run_round(agents, envs, model)
            checks.check_round("ddpg", report, model, agents)
    assert ledger.fail_frac == 0.0
    model, report = federated.run_round(agents, envs, model)
    model.weights.values[7] += 1e-9
    with ledger.op("tampered round"):
        checks.check_round("ddpg", report, model, agents)
    assert ledger.failed == 1 and ledger.fail_frac == pytest.approx(1 / 3)
    assert "average differs" in ledger.errors[0]


def test_oracle_checks():
    checks.check_oracle_slot(1.0, 1.0, 2.0)
    with pytest.raises(CheckFailed):
        checks.check_oracle_slot(1.1, 1.0, 2.0)
    with pytest.raises(CheckFailed):
        checks.check_ordering(0.5, 2.0, 2.0)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "policy-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
    assert "no fedfog package source" in proc.stderr


def test_setup_probe_times_one_fresh_set_up():
    proc = subprocess.run(
        [sys.executable, "bench/setup_probe.py", "--workload", "policy-eval",
         "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0.0


def test_failed_setup_probe_is_counted_and_the_run_goes_on():
    measured = workloads.Measured()
    probes = workloads.SetupProbes("policy-eval", 1, 1.0, measured)
    probes.cmd = [sys.executable, "-c", "import sys; sys.exit(3)"]
    probes.finish()
    assert measured.ledger.failed == workloads.SETUP_SAMPLES
    assert measured.setup_s == []
    assert "exit 3" in measured.ledger.errors[0]
