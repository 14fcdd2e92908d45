"""Benchmark starcone: time to a certified resolution, per workload.

Runs one workload in a single-threaded child worker (``worker.py``) under a
fixed address-space ceiling and per-op wall limit, checks every op's
outputs, prints a report with every metric by name and unit and every failed
op with its kind, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a separate traced run (spans are written to
``perfbench/out/``).  ``correct`` is false when any op fails, except that
``ladder_frontier`` ops may fail as oom or timeout.  ``setup_s`` is the
median over several set-ups, each in a fresh worker, before and after the
measurement.  Workloads and metrics are described in perfbench/README.md.

Usage: python3 perfbench/run.py --workload {survey,ladder,construct,ladder_frontier}
       --seed N --seconds S --trace {0,1}
``survey`` and ``ladder`` are the bounded workloads of BENCHMARK.json;
``construct`` and ``ladder_frontier`` run by hand only (see README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CEILING_MB = 1536      # RLIMIT_AS of the worker, the same for every op
OP_LIMIT_S = 30.0      # wall limit of one op
SETUP_RUNS = 8         # set-ups per run, half before and half after the
                       # measurement; setup_s is their median
DEADLINE_S = 170.0     # the whole run, set-ups included
WORKLOAD_NAMES = ("survey", "ladder", "construct", "ladder_frontier")
# The metrics of the JSON line.  fail_frac, op_p50_ms and op_p90_ms are
# printed in the report only (see README.md for why).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# Printed in the report, left out of the JSON line: it reads a constant 0 on
# both bounded workloads, which never take the lift's linear-solve path.
REPORT_ONLY_LAYERS = {"linalg.solve.s"}
# The only workload whose ops may fail, as oom or timeout.
MAY_FAIL = {"ladder_frontier": {"oom", "timeout"}}
# Work below BLAS/OpenMP must not spread over cores.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def run_worker(args, deadline: float, setup_only: bool = False, ceiling_mb: int = CEILING_MB,
               op_limit_s: float = OP_LIMIT_S) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--ceiling-mb", str(ceiling_mb), "--op-limit-s", str(op_limit_s),
    ] + (["--setup-only"] if setup_only else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **THREAD_PINS), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after the {DEADLINE_S:g} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def correct(workload: str, failures: list) -> bool:
    """No op failed, except as ``MAY_FAIL`` allows on its workload."""
    return not {f["kind"] for f in failures} - MAY_FAIL.get(workload, set())


def end_to_end(res: dict, setups: list) -> dict:
    values = dict(res, setup_s=statistics.median(setups))
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def report(args, res: dict, setups: list) -> None:
    failed = len(res["failures"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ceiling {CEILING_MB} MiB  op limit {OP_LIMIT_S:g} s")
    print(f"  passes {res['passes']}  ops/pass {res['ops_per_pass']}  attempted {res['attempted']}"
          f"  failed {failed}")
    print(f"  {'fail_frac':<12} {failed / res['attempted']:.4f} ratio")
    print(f"  {'setup_s':<12} {statistics.median(setups):.4f} s  "
          f"(median of {len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)})")
    label = "traced " if args.trace else ""
    print(f"  {label + 'wall_s':<12} {res['wall_s']:.4f} s  (mean of {res['passes']} passes)")
    print(f"  {'peak_rss_mb':<12} {res['peak_rss_mb']:.1f} MiB")
    n = res["ops_per_pass"]
    print(f"  {'op_p50_ms':<12} {res['op_p50_ms']:.3f} ms  (n={n} ops)")
    print(f"  {'op_p90_ms':<12} {res['op_p90_ms']:.3f} ms  (n={n} ops, {res['beyond_p90']} beyond p90)")
    for f in res["failures"]:
        print(f"  FAILED {f['op']} (pass {f['pass']}): {f['kind']} after {f['seconds']:.2f} s"
              f" - {f['detail']}")
    if args.trace:
        print(f"  spans in {res['trace_file']}")
        print("  per traced pass; sizes are computed from call arguments and results:")
        for k, v in res["layers"].items():
            print(f"    {k:<28} {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "starcone" / "__init__.py").is_file():
        print(f"run.py: no starcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        # Import time flips between two levels (~0.10 s and ~0.17 s) that
        # last tens of seconds; sampling both ends of the run spans them.
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS // 2 - 1)]
        res = run_worker(args, deadline)
        setups.append(res["setup_s"])
        setups += [run_worker(args, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_RUNS // 2)]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    report(args, res, setups)
    layers = {k: v for k, v in res.get("layers", {}).items() if k not in REPORT_ONLY_LAYERS}
    print(json.dumps({
        "correct": correct(args.workload, res["failures"]),
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": layers if args.trace else end_to_end(res, setups),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
