#!/usr/bin/env python3
"""Random survey: construction vs closed forms on sampled instances.

Samples seeded random two-block instances (generators of degree >= 2 in
their own block, so the containments I' in I^2 and J' in J^2 hold by
construction), builds each glued resolution, and checks four things:

  * the homology certificate (exactness, and H_0 = R/(I' + IJ + J') in
    every degree),
  * the minimality certificate,
  * constructed graded Betti numbers against the closed-form table,
  * both Poincare residuals.

Exit status 0 iff every sampled instance passes everything.

Usage: python3 scripts/survey_random_instances.py [--count N] [--seed S]
       [--max-vars V] [--max-gens G] [--max-deg D] [--verbose]
"""
import argparse
import random
import sys

from starcone import (
    block_instance,
    build_fiber,
    certify_minimal,
    closed_form_table,
    default_degree_bound,
    graded_betti,
    homology_dims,
    poincare_residuals,
)


def random_monomial(rng, names, max_deg):
    d = rng.randint(2, max_deg)
    expts = [0] * len(names)
    for _ in range(d):
        expts[rng.randrange(len(names))] += 1
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(names, expts) if e)


def sample_instance(rng, max_vars, max_gens, max_deg):
    m = rng.randint(1, max_vars)
    n = rng.randint(1, max_vars)
    xs = [f"x{i+1}" for i in range(m)] if m > 1 else ["x"]
    ys = [f"y{j+1}" for j in range(n)] if n > 1 else ["y"]
    ip = [random_monomial(rng, xs, max_deg) for _ in range(rng.randint(1, max_gens))]
    jp = [random_monomial(rng, ys, max_deg) for _ in range(rng.randint(1, max_gens))]
    return block_instance(m, n, ip, jp), (m, n)


def check_instance(inst):
    """Returns (ok, dict of per-check booleans plus summary fields)."""
    build = build_fiber(inst)
    res = build.resolution

    bound = default_degree_bound(inst, res)
    rep = homology_dims(res, bound, against=inst.quotient_ideal())
    exact = rep.exact_in_positive and rep.complete
    h0_ok = rep.h0_matches

    cert = certify_minimal(inst, build)

    checks = {
        "exact": exact,
        "h0": h0_ok,
        "certificate": bool(cert),
        "betti_formula": graded_betti(res) == closed_form_table(inst),
        "residuals": bool(poincare_residuals(inst, build)),
    }
    summary = {
        "ranks": [res.rank(k) for k in res.support()],
        "bound": bound,
    }
    return all(checks.values()), checks, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--seed", type=int, default=20260819)
    ap.add_argument("--max-vars", type=int, default=3)
    ap.add_argument("--max-gens", type=int, default=4)
    ap.add_argument("--max-deg", type=int, default=4)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    failures = 0
    tally = {}
    for idx in range(args.count):
        inst, (m, n) = sample_instance(rng, args.max_vars, args.max_gens, args.max_deg)
        ok, checks, summary = check_instance(inst)
        for name, value in checks.items():
            tally[name] = tally.get(name, 0) + (1 if value else 0)
        line = (f"[{idx:3d}] m={m} n={n} ranks={summary['ranks']} "
                f"bound={summary['bound']} " + ("ok" if ok else f"FAIL {checks}"))
        if args.verbose or not ok:
            print(line)
        if not ok:
            failures += 1

    print(f"\n{args.count} instances, {failures} failures")
    for name in sorted(tally):
        print(f"  {name}: {tally[name]}/{args.count}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
