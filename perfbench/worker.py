"""One benchmark worker: set up a workload, run its op list in a closed loop,
and print one JSON summary line on stdout.

Runs as a child of ``run.py``, single-threaded, under an address-space
ceiling (``RLIMIT_AS``, set on this process only) and a per-op wall limit
(``SIGALRM``).  An op fails as ``oom`` (MemoryError under the ceiling),
``timeout`` (over the limit), ``exception`` (anything else raised) or
``mismatch`` (its checker rejected the outputs).  Failed ops stay in the
denominator of ``fail_frac``; a failed op's time counts up to the failure.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --ceiling-mb M --op-limit-s L [--setup-only]
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class OpTimeout(Exception):
    """Raised by the alarm handler when an op exceeds its wall limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_starcone():
    """Import starcone from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import starcone

    if Path(starcone.__file__).resolve().parent != src / "starcone":
        raise ImportError(f"starcone imported from {starcone.__file__}, not {src}")
    return starcone


def run_op(op, limit_s: float):
    """(seconds, failure kind or None, detail) for one op."""
    t0 = time.perf_counter()
    kind = detail = None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        out = op.run()
    except MemoryError:
        kind, detail = "oom", "MemoryError under the address-space ceiling"
    except OpTimeout:
        kind, detail = "timeout", f"over the {limit_s:g} s per-op limit"
    except Exception as exc:  # an op's failure must not end the run
        kind, detail = "exception", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = time.perf_counter() - t0
    if kind is None:
        detail = op.check(out)
        kind = "mismatch" if detail else None
    return dt, kind, detail


def run_pass(ops, limit_s: float, tracer=None) -> dict:
    """One pass; its wall time is the sum of the op times.  Garbage is left
    to Python's automatic collector, so its cost lands in the ops that make
    it, as in use.  (A forced collection after each op took about 13% of a
    survey pass, mostly walking long-lived objects, and left peak RSS as it
    was.)"""
    records = []
    for op in ops:
        if tracer is None:
            records.append(run_op(op, limit_s))
        else:
            with tracer.span("op"):
                records.append(run_op(op, limit_s))
    return {"wall": sum(r[0] for r in records), "ops": records}


def run_passes(ops, budget_s: float, limit_s: float, tracer=None) -> list:
    """Whole passes over the op list, at least one, while the next pass is
    expected to end within the budget."""
    start = time.perf_counter()
    passes = [run_pass(ops, limit_s, tracer)]
    while time.perf_counter() - start + passes[-1]["wall"] <= budget_s:
        passes.append(run_pass(ops, limit_s, tracer))
    return passes


def summarize(ops, passes) -> dict:
    """End-to-end figures over whole passes.  ``wall_s`` is the mean pass:
    the host's speed drifts over tens of seconds, and the mean averages
    that drift over the whole run where a median would keep one pass."""
    per_op = [statistics.median(p["ops"][k][0] for p in passes) for k in range(len(ops))]
    q = statistics.quantiles(per_op, n=10, method="inclusive") if len(per_op) > 1 else per_op * 9
    failures = [
        {"op": ops[k].name, "pass": i, "kind": kind, "detail": detail, "seconds": dt}
        for i, p in enumerate(passes)
        for k, (dt, kind, detail) in enumerate(p["ops"])
        if kind is not None
    ]
    return {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "attempted": len(ops) * len(passes),
        "failures": failures,
        "wall_s": statistics.fmean(p["wall"] for p in passes),
        "op_p50_ms": q[4] * 1e3,
        "op_p90_ms": q[8] * 1e3,
        "beyond_p90": sum(1 for t in per_op if t > q[8]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ceiling-mb", type=int, required=True)
    ap.add_argument("--op-limit-s", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ceiling = args.ceiling_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    signal.signal(signal.SIGALRM, _on_alarm)
    import_starcone()
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    warm = workloads.warmup_op()
    _, kind, detail = run_op(warm, args.op_limit_s)
    if kind is not None:
        raise RuntimeError(f"warm-up failed ({kind}): {detail}")
    result = {"setup_s": time.perf_counter() - T_START}
    if not args.setup_only:
        if args.trace:
            result.update(_traced(ops, args))
        else:
            result.update(summarize(ops, run_passes(ops, args.seconds, args.op_limit_s)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def _traced(ops, args) -> dict:
    """Traced passes for the whole budget; per-layer figures are per pass.
    The untraced wall time is what ``--trace 0`` measures."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, args.seconds, args.op_limit_s, tracer)
    finally:
        tracer.uninstall()
    out = summarize(ops, traced)
    out["layers"] = tracer.layer_metrics(len(traced), out["wall_s"])
    trace_dir = HERE / "out"
    os.makedirs(trace_dir, exist_ok=True)
    path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "passes": len(traced)})
    out["trace_file"] = str(path.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
