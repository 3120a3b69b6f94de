"""Time desk-scale federated DDPG rounds at a given BLAS thread count.

    python3 bench/blas_probe.py --threads 2

Run from the root of a checkout. Sets up the first ddpg-desk federation,
runs its warm-up rounds, then times ROUNDS rounds and prints one JSON
line: median round wall time and process CPU time (all threads) per round.
`bench/run.py` calls it in the traced ddpg-desk run, once per thread count.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from fedbench.boot import pin_blas_threads, use_checkout_source  # noqa: E402

ROUNDS = 8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, required=True)
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    pin_blas_threads(args.threads)
    use_checkout_source(BENCH.parent)
    from fedbench import runinfo, workloads
    from fedbench.checks import Ledger
    from fedfog import federated

    _, agents, envs, model = workloads.set_up("ddpg-desk", 0, Ledger())
    walls = []
    cpu0 = time.process_time()
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        model, _ = federated.run_round(agents, envs, model)
        walls.append(time.perf_counter() - t0)
    cpu = time.process_time() - cpu0
    print(json.dumps({
        "blas_threads": runinfo.blas_threads(),
        "rounds": ROUNDS,
        "round_s_p50": statistics.median(walls),
        "cpu_s_per_round": cpu / ROUNDS,
        "cpu_over_wall": cpu / sum(walls),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
