"""Repeat the benchmark over seeds and summarize each metric's spread.

For every workload, runs ``run.py`` once per seed, then reports each
metric's median, quartiles and spread (interquartile distance over the
median, with ``statistics.quantiles(values, n=4)``).  With ``--traced`` it
adds one traced run per workload, and with ``--frontier`` one run of
``ladder_frontier``.  Writes everything, raw results included, as JSON.

Usage: python3 perfbench/campaign.py --out FILE [--workloads survey,ladder]
       [--seeds 1,2,...] [--seconds 50] [--traced] [--frontier]
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Figures the report prints that the JSON line does not carry.
REPORTED = re.compile(r"\s+(op_p50_ms|op_p90_ms)\s+([0-9.]+) ")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    reported = {m[1]: float(m[2]) for m in map(REPORTED.match, lines) if m}
    return {"seed": seed, "trace": trace, "elapsed_s": time.monotonic() - t0,
            "report": lines[:-1], "reported": reported, "result": json.loads(lines[-1])}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="survey,ladder")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--frontier", action="store_true")
    args = ap.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    doc = {"environment": environment(), "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(wl, seed, args.seconds, 0))
            r = runs[-1]["result"]
            print(f"{wl} seed {seed}: correct {r['correct']} attempted {r['attempted']} "
                  f"failed {r['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        metrics = runs[0]["result"]["metrics"]
        summary = {k: dict(spread([r["result"]["metrics"][k]["value"] for r in runs]),
                           unit=metrics[k]["unit"]) for k in metrics}
        summary.update({f"{k} (report)": spread([r["reported"][k] for r in runs])
                        for k in runs[0]["reported"]})
        for k, s in summary.items():
            print(f"  {k:<20} median {s['median']:.4g} {s.get('unit', '')}  spread {s['spread']:.3f}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        summary["fail_frac (report)"] = {"failed": failed, "attempted": attempted}
        print(f"  fail_frac            {failed}/{attempted}")
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            entry["traced"] = run_once(wl, seeds[0], args.seconds, 1)
        doc["workloads"][wl] = entry
    if args.frontier:
        doc["ladder_frontier"] = run_once("ladder_frontier", seeds[0], 0, 0)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
