"""Run one workload of the fedfog benchmark and print its metrics.

    python3 bench/run.py --workload ddpg-desk --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload, each in a fresh process, one after
the other. Run it from the root of a checkout: the package is imported from
`src/` there and nowhere else, with BLAS pinned to one thread. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: every bounded end-to-end metric with `--trace 0`,
every per-layer metric of a traced run with `--trace 1`. The lines before
it are a readable report, which also prints the medians and `fail_frac`;
the full report (run environment, samples, costs on the same eval draws)
and, for traced runs, every span go to `.bench_out/`.

Exits 2 without a result when the package source or the workload is
missing, and 1 when a call into the package raised.
"""

import argparse
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
PROBE_TIMEOUT_S = 60
ALL_TIMEOUT_S = 900

sys.path.insert(0, str(BENCH))
from fedbench.boot import pin_blas_threads, use_checkout_source  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_thread_probe(cpu_count: int) -> dict:
    """Desk DDPG rounds with BLAS at 1 and at `cpu_count` threads.

    Each count runs in its own process, since BLAS reads its thread count
    when numpy loads it. A diagnostic, not a gated metric.
    """
    out = {}
    for threads in sorted({1, cpu_count}):
        cmd = [sys.executable, str(BENCH / "blas_probe.py"),
               "--threads", str(threads)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out[threads] = {"error": f"timed out after {PROBE_TIMEOUT_S} s"}
            continue
        if proc.returncode != 0:
            out[threads] = {"error": proc.stderr.strip()[-400:]}
            continue
        out[threads] = json.loads(proc.stdout.splitlines()[-1])
    return out


def run_all(args, names) -> int:
    """Every workload in a fresh process of its own, one after the other."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT,
                                            timeout=ALL_TIMEOUT_S).returncode)
    return status


def print_report(report: dict, figures: dict, units: dict,
                 bounded) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    samples = report.get("samples", {})
    for name, value in figures.items():
        line = f"  {name:<28} {value:>14.6g} {units[name]}"
        if name not in bounded:
            line += "  (reported, not bounded)"
        if name == "setup_s" and name in samples:
            line += (f"  (median of {samples[name]['n']} fresh-process "
                     f"set-ups)")
        base, _, high = name.rpartition("_")
        if base in samples and f"beyond_{high}" in samples[base]:
            s = samples[base]
            line += (f"  (n={s['n']}, {s[f'beyond_{high}']} beyond {high}; "
                     f"highest supported percentile: "
                     f"{s['highest_supported_percentile']})")
        print(line)
    ledger = report["operations"]
    print(f"  {'fail_frac':<28} {ledger['fail_frac']:>14.6g} fraction"
          f"  ({ledger['failed']} of {ledger['attempted']} operations)")
    for error in ledger["errors"]:
        print(f"  failed: {error}")
    print("quality: " + json.dumps(report["quality"]))
    if "blas_thread_probe" in report:
        print("blas threads: " + json.dumps(report["blas_thread_probe"]))
    print("environment: " + json.dumps(report["environment"]))


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads(1)
    try:
        use_checkout_source(ROOT)
    except ImportError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    from fedbench import layers, runinfo, workloads
    from fedbench.checks import OpAborted
    from fedbench.tracing import Tracer
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"valid: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer(layers.PATCHES) if args.trace else None
    try:
        measured = workloads.run(args.workload, args.seed, args.seconds,
                                 tracer)
    except OpAborted:
        traceback.print_exc()
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ledger = measured.ledger
    environment = runinfo.run_environment(ROOT)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "operations": {"attempted": ledger.attempted,
                       "failed": ledger.failed,
                       "fail_frac": ledger.fail_frac,
                       "errors": ledger.errors[:20]},
        "quality": measured.quality,
        "environment": environment,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        figures = layers.layer_metrics(tracer.table(),
                                       measured.trace_overhead())
        units = bounded = layers.METRICS
        report["spans"] = len(tracer)
        if args.workload == "ddpg-desk":
            report["blas_thread_probe"] = blas_thread_probe(
                environment["nproc"])
        tracer.write_csv(OUT_DIR / f"spans-{stem}.csv")
    else:
        figures, report["samples"] = workloads.end_to_end(measured,
                                                          peak_rss_mb)
        units = workloads.FIGURES
        bounded = workloads.END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": figures[name], "unit": units[name]}
                    for name in bounded},
    }
    report["figures"] = figures
    report["result"] = result
    (OUT_DIR / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    print_report(report, figures, units, bounded)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
