"""Self-test of the benchmark's failure recording and output checkers.

  * Each checker accepts the real outputs of its op, and rejects them, as a
    ``mismatch`` kept in the attempted count, after one corruption: a Betti
    entry off by one, an altered H_0 vector, a wrong rank, a nonzero
    Poincare residual, a homology class, a flipped certificate flag, a
    non-minimal flag.
  * An op over the address-space ceiling is recorded as ``oom`` and an op
    over the per-op limit as ``timeout``; both stay in the denominator, and
    make a run incorrect on every workload but ``ladder_frontier``.

Usage: python3 perfbench/selftest.py   (exit 0 when every case passes)
"""
import argparse
import copy
import sys
import time

import run
import worker


def _bump(container, key) -> None:
    container[key] += 1


CORRUPTIONS = {
    "betti": lambda out: _bump(out["betti"], min(out["betti"])),
    "h0": lambda out: _bump(out["h0"], -1),
    "ranks": lambda out: _bump(out["ranks"], -1),
    "residuals": lambda out: _bump(out["residuals"], 0),
    "positive_homology": lambda out: out["positive_homology"].update({(1, 3): 1}),
    "certificate": lambda out: out["certificate"].update(
        regular_sequence_i=not out["certificate"]["regular_sequence_i"]),
    "minimal": lambda out: out.update(minimal=False),
}


def check_corruptions(workloads) -> list:
    errors = []
    picks = {
        "survey": ("survey/000",),
        "ladder": ("ladder/2+2 ", "ladder/q2+1 "),
        "construct": ("construct/4+4", "construct/e00", "construct/taylor8"),
    }
    for wl, prefixes in picks.items():
        for op in workloads.WORKLOADS[wl](1):
            if not (op.name + " ").startswith(prefixes):
                continue
            out = op.run()
            if op.check(out) is not None:
                errors.append(f"{op.name}: real outputs rejected: {op.check(out)}")
                continue
            bad_ops = []
            for key, corrupt in CORRUPTIONS.items():
                if key in out:
                    bad = copy.deepcopy(out)
                    corrupt(bad)
                    bad_ops.append(workloads.Op(f"{op.name} [{key}]", lambda b=bad: b, op.check))
            passes = [worker.run_pass(bad_ops, run.OP_LIMIT_S)]
            summary = worker.summarize(bad_ops, passes)
            kinds = [f["kind"] for f in summary["failures"]]
            if summary["attempted"] != len(bad_ops) or kinds != ["mismatch"] * len(bad_ops):
                errors.append(f"{op.name}: corruptions recorded as {kinds}")
            print(f"  {op.name}: {len(bad_ops)} corruptions, each a mismatch in "
                  f"{summary['attempted']} attempted")
    return errors


def check_limits() -> list:
    """The mod-p rungs 3+2, 3+3 and 4+3 each need over 400 MiB and several
    seconds: run them, with the small rungs, under a 256 MiB ceiling and
    then under a 1 s limit, in a real worker."""
    errors = []
    args = argparse.Namespace(workload="ladder_frontier", seed=1, seconds=0, trace=0)
    big = ["ladder/3+2", "ladder/3+3", "ladder/4+3"]
    for what, kwargs, kind in (
        ("ceiling 256 MiB", {"ceiling_mb": 256}, "oom"),
        ("op limit 1 s", {"op_limit_s": 1.0}, "timeout"),
    ):
        res = run.run_worker(args, deadline=time.monotonic() + run.DEADLINE_S, **kwargs)
        got = [(f["op"], f["kind"]) for f in res["failures"]]
        frac = len(got) / res["attempted"]
        print(f"  {what}: attempted {res['attempted']}, failed {got}, fail_frac {frac:.2f}")
        if got != [(op, kind) for op in big] or res["attempted"] != 5:
            errors.append(f"{what}: expected {big} as {kind} out of 5, got {got}")
        if not run.correct("ladder_frontier", res["failures"]) or run.correct("ladder", res["failures"]):
            errors.append(f"{what}: {kind} failures must be incorrect outside ladder_frontier")
    return errors


def main() -> int:
    worker.import_starcone()
    import workloads

    print("checkers:")
    errors = check_corruptions(workloads)
    print("limits:")
    errors += check_limits()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
