"""The benchmark's policies run against the package: one short policy-eval
run of bench/run.py, on a copy of the checkout, ends correct.

The benchmark calls local_policy and equal_policy through rollout_episode,
with the package's policy protocol; nothing else in these tests runs its
policies. The copy keeps the run's reports out of the checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_policy_eval_run_is_correct(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "policy-eval",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
