"""Time one set-up of a workload in a fresh process.

    python3 bench/setup_probe.py --workload ddpg-desk --seed 1

Run from the root of a checkout. Imports the package from `src/` with BLAS
pinned to one thread, sets the workload up once (one federation with its
warm-up rounds, or the policy-eval cells with their warm-up), and prints one
JSON line: the seconds from this script's start to the end of the set-up.
`bench/run.py` runs it several times per run for `setup_s`. Exits 1 when an
output check of the set-up failed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from fedbench.boot import pin_blas_threads, use_checkout_source  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    pin_blas_threads(1)
    use_checkout_source(BENCH.parent)
    from fedbench import workloads
    from fedbench.checks import Ledger

    ledger = Ledger()
    workloads.set_up(args.workload, args.seed, ledger)
    setup_s = time.perf_counter() - STARTED
    if ledger.failed:
        print("\n".join(ledger.errors), file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
