"""Command-line frontend.

Subcommands:

  star      build X * Y for resolutions of two ideals (block or explicit)
  fiber     build the cone resolution of R/(I' + IJ + J')
  betti     compare constructed Betti tables against the closed forms
  poincare  evaluate both Poincare-series identity residuals
  verify    homology certification of a built or imported complex
  export    emit a constructed complex as JSON

Exit codes: 0 success, 1 hypothesis violation, 2 parse or usage error (a
malformed `verify --in` file, an option given `--` as its value, and an lcm
box or a total-degree fallback too large to rank included),
3 verification failure (a broken internal invariant included), 4 resource
error (out of memory).  Output is deterministic: the same invocation
produces byte-identical documents.
"""
from __future__ import annotations

import argparse
import json
import sys

from .complexes import (
    ChainComplex,
    complex_from_json,
    complex_to_json_dict,
    graded_betti,
    is_minimal,
)
from .fields import PrimeField, RationalField, is_prime
from .fiber import (
    TOR_PAIRS,
    FiberInstance,
    HypothesisViolation,
    LiftError,
    build_fiber,
    certify_minimal,
    closed_form_table,
    cone_phi,
    cone_psi,
    default_degree_bound,
    make_instance,
    poincare_residuals,
)
from .formulas import betti_fiber
from .homcheck import BoxTooLarge, homology_dims
from .resolutions import minimize
from .ring import (
    InvariantViolation,
    MonomialIdeal,
    PolyParseError,
    RingSpec,
    hilbert_function,
    ideal_contains,
    ideal_product,
    mono_str,
)
from .star import star_product

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_RESOURCE = 4

# The largest degree bound a homology table is filled and printed up to:
# its cells and the H_0 row grow with the bound, so a bound such as 10^30
# would never finish.
MAX_DEGREE_BOUND = 1000


class UsageError(ValueError):
    pass


# ------------------------------------------------------------ input parsing

def _split_names(text: str) -> tuple:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise UsageError("empty variable list")
    return names


def _field_of(prime: int):
    if prime == 0:
        return RationalField()
    try:
        certified = is_prime(prime)
    except ValueError as e:  # too large to certify
        raise UsageError(f"--prime {e}") from None
    if not certified:
        raise UsageError(f"--prime {prime} is not prime (use 0 for the rationals)")
    return PrimeField(prime)


def _ring_of(job: argparse.Namespace) -> RingSpec:
    if not job.vars_a or not job.vars_b:
        raise UsageError("--vars-a and --vars-b are both required")
    field = _field_of(job.prime)  # a UsageError of its own, not caught below
    try:
        return RingSpec(
            job.vars_a + job.vars_b,
            partition=(job.vars_a, job.vars_b),
            coeff_field=field,
        )
    except ValueError as e:
        raise UsageError(f"--vars-a/--vars-b: {e}") from None


def _parse_ideal(ring: RingSpec, text: str, flag: str) -> MonomialIdeal:
    try:
        return MonomialIdeal.parse(text.split(","), ring)
    except PolyParseError:
        raise
    except ValueError as e:
        raise UsageError(f"{flag}: {e}") from None


def _ideals_of(job: argparse.Namespace) -> tuple:
    """The ring and the ideals (I', I, J', J) of a job: I and J default to
    the block ideals, I' and J' to zero."""
    ring = _ring_of(job)
    I = (MonomialIdeal.parse(job.vars_a, ring) if job.ideal_i is None
         else _parse_ideal(ring, job.ideal_i, "--ideal-i"))
    J = (MonomialIdeal.parse(job.vars_b, ring) if job.ideal_j is None
         else _parse_ideal(ring, job.ideal_j, "--ideal-j"))
    Ip, Jp = _parse_ideal(ring, job.iprime, "--iprime"), _parse_ideal(ring, job.jprime, "--jprime")
    return ring, Ip, I, Jp, J


def _instance_of(job: argparse.Namespace) -> FiberInstance:
    """Build the instance; block mode (no --ideal-i/--ideal-j) additionally
    gates I' inside I^2 and J' inside J^2."""
    ring, Ip, I, Jp, J = _ideals_of(job)
    if job.ideal_i is None and job.ideal_j is None:
        for name, primed, block, names in (("I'", Ip, I, job.vars_a), ("J'", Jp, J, job.vars_b)):
            square = ideal_product(block, block)
            if not ideal_contains(square, primed):
                raise HypothesisViolation(f"hypothesis {name} inside <{', '.join(names)}>^2 "
                                          f"fails: {primed} is not contained in {square}")
    return make_instance(ring, Ip, I, Jp, J)


def _built(job: argparse.Namespace, block_only: bool = False) -> tuple:
    """The instance and its build_fiber; betti and poincare compare against
    block-mode closed forms, so they refuse --ideal-i/--ideal-j."""
    if block_only and (job.ideal_i is not None or job.ideal_j is not None):
        raise UsageError(f"{job.command} works in block mode; drop --ideal-i/--ideal-j")
    instance = _instance_of(job)
    return instance, build_fiber(instance, constrained=job.constrained_lift)


def _star_of(job: argparse.Namespace):
    """The ring, I, J and the star product of make_instance(ring, 0, I, 0, J),
    which refuses a zero I or J and a Tor-dependent (I, J)."""
    ring, _, I, _, J = _ideals_of(job)
    inst = make_instance(ring, MonomialIdeal(ring, []), I, MonomialIdeal(ring, []), J)
    return ring, I, J, star_product(inst.X, inst.Y)


# --------------------------------------------------------------- rendering

def _ranks(C: ChainComplex) -> list:
    return [C.rank(n) for n in range(C.max_degree() + 1)]


def _verification(C: ChainComplex, Q: MonomialIdeal | None, bound: int) -> tuple:
    """Certify C as a resolution of R/Q, or only as exact in positive
    degrees when Q is None, printing up to bound: (document fields, passed).
    A bound above MAX_DEGREE_BOUND, such as a default taken from a huge
    twist, is a usage error."""
    if bound > MAX_DEGREE_BOUND:
        raise UsageError(f"degree bound {bound} is above {MAX_DEGREE_BOUND}, the largest table printed")
    report = homology_dims(C, bound, against=Q)
    ok = report.exact_in_positive
    v = {
        "bound": bound,
        "complete": report.complete,
        "exact_in_positive_degrees": report.exact_in_positive,
        "h0_hilbert": report.h0,
        "dims": {f"{n},{d}": dim for (n, d), dim in sorted(report.dims.items())},
    }
    if Q is not None:
        v["h0_expected"] = hilbert_function(Q, bound)
        v["h0_matches"] = report.h0_matches
        ok = ok and v["h0_matches"]
    if at := report.homology_at:
        v["homology_at"] = f"H_{at[0]} at {mono_str(at[1], C.ring)}"
    v["verdict"] = "exact" if ok else "FAILED"
    return v, ok


def _extent(v: dict) -> str:
    return " (complete)" if v["complete"] else " (bounded)"


def _homology_at(v: dict) -> list:
    return [f"homology: {v['homology_at']}"] if "homology_at" in v else []


def _verify_into(doc: dict, lines: list, C: ChainComplex, Q: MonomialIdeal, bound: int) -> int:
    """Certify C as a resolution of R/Q, record the result in doc and
    lines, and return the exit code."""
    v, ok = _verification(C, Q, bound)
    doc["verification"] = {**v, "ok": ok}
    lines += [f"verification: {v['verdict']} up to degree {bound}" + _extent(v), *_homology_at(v)]
    return EXIT_OK if ok else EXIT_VERIFICATION


def _emit(job: argparse.Namespace, doc: dict, text: str) -> str:
    if job.json:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return text


# ---------------------------------------------------------------- commands

def cmd_star(job: argparse.Namespace):
    ring, I, J, S = _star_of(job)
    IJ = ideal_product(I, J)
    bound = job.degree_bound if job.degree_bound is not None else S.max_twist()
    doc = {
        "command": "star",
        "ring": ring.describe(),
        "ideal_i": str(I),
        "ideal_j": str(J),
        "product_ideal": str(IJ),
        "ranks": _ranks(S),
        "complex": complex_to_json_dict(S),
    }
    lines = [
        f"star product: resolutions of {I} and {J}",
        "ranks: " + " ".join(str(r) for r in _ranks(S)),
        f"resolves R/{IJ}",
    ]
    if is_minimal(S):
        doc["betti"] = graded_betti(S).to_json_dict()
        lines += ["betti table:", graded_betti(S).render_text().rstrip("\n")]
    code = _verify_into(doc, lines, S, IJ, bound) if job.verify else EXIT_OK
    return code, doc, "\n".join(lines) + "\n"


def _certificate_doc(build, cert, bound: int) -> dict:
    """The certificate of a build, whose pairs make_instance accepted: disjoint supports."""
    return {
        "tor": {pair: {"independent": True, "mode": "structural"} for pair in TOR_PAIRS},
        "constrained_lifts": build.constrained,
        "hypotheses": {
            "regular_sequence_i": cert.regular_sequence_i,
            "regular_sequence_j": cert.regular_sequence_j,
            "iprime_in_i_squared": cert.ip_in_i_squared,
            "jprime_in_j_squared": cert.jp_in_j_squared,
            "inputs_minimal": cert.inputs_minimal,
        },
        "hypotheses_ok": cert.hypotheses_ok,
        "minimal": cert.resolution_minimal,
        "degree_bound": bound,
    }


def _certificate_text(cert_doc: dict) -> list:
    return [
        "certificate:",
        *(f"  tor {pair}: independent (structural)" for pair in sorted(cert_doc["tor"])),
        f"  constrained lifts: {'yes' if cert_doc['constrained_lifts'] else 'no'}",
        f"  minimality hypotheses: {'hold' if cert_doc['hypotheses_ok'] else 'do not hold'}",
        f"  minimal: {'yes' if cert_doc['minimal'] else 'no'}",
        f"  degree bound: {cert_doc['degree_bound']}",
    ]


def cmd_fiber(job: argparse.Namespace):
    instance, build = _built(job)
    res = build.resolution
    cert = certify_minimal(instance, build)
    Q = instance.quotient_ideal()
    bound = job.degree_bound if job.degree_bound is not None else default_degree_bound(instance, res)
    cert_doc = _certificate_doc(build, cert, bound)
    doc = {
        "command": "fiber",
        "ring": instance.ring.describe(),
        "quotient_ideal": str(Q),
        "ranks": _ranks(res),
        "certificate": cert_doc,
        "complex": complex_to_json_dict(res),
    }
    lines = [
        f"fiber quotient: R/{Q}",
        "ranks: " + " ".join(str(r) for r in _ranks(res)),
    ]
    lines += _certificate_text(cert_doc)
    if job.betti:
        table = graded_betti(minimize(res))
        doc["betti"] = table.to_json_dict()
        lines += ["betti table:", table.render_text().rstrip("\n")]
    code = _verify_into(doc, lines, res, Q, bound) if job.verify else EXIT_OK
    return code, doc, "\n".join(lines) + "\n"


def cmd_betti(job: argparse.Namespace):
    instance, build = _built(job, block_only=True)
    constructed = graded_betti(minimize(build.resolution))
    formula = closed_form_table(instance)
    bS, bT = graded_betti(instance.S), graded_betti(instance.T)
    top = max(constructed.max_l(), formula.max_l())
    totals_formula = [betti_fiber(l, len(job.vars_a), len(job.vars_b), bS, bT) for l in range(top + 1)]
    totals_built = [constructed.totals().get(l, 0) for l in range(top + 1)]
    match = constructed == formula and totals_formula == totals_built
    doc = {
        "command": "betti",
        "quotient_ideal": str(instance.quotient_ideal()),
        "constructed": constructed.to_json_dict(),
        "formula": formula.to_json_dict(),
        "totals_formula": totals_formula,
        "match": match,
    }
    lines = [
        f"betti tables for R/{instance.quotient_ideal()}",
        "constructed:",
        constructed.render_text().rstrip("\n"),
        "closed form:",
        formula.render_text().rstrip("\n"),
        "totals (closed form): " + " ".join(str(v) for v in totals_formula),
        f"verdict: {'match' if match else 'MISMATCH'}",
    ]
    return (EXIT_OK if match else EXIT_VERIFICATION), doc, "\n".join(lines) + "\n"


def cmd_poincare(job: argparse.Namespace):
    instance, build = _built(job, block_only=True)
    report = poincare_residuals(instance, build, job.truncate)
    ok = bool(report)
    doc = {
        "command": "poincare",
        "quotient_ideal": str(instance.quotient_ideal()),
        "series": str(report.series),
        "identity_1_residual": str(report.identity_1),
        "identity_2_residual": str(report.identity_2),
        "truncation": report.truncation,
        "ok": ok,
    }
    lines = [
        f"poincare series of R/{instance.quotient_ideal()}: {report.series}",
        f"identity 1 residual: {report.identity_1}",
        f"identity 2 residual: {report.identity_2}",
        f"verdict: {'both identities hold' if ok else 'RESIDUAL NONZERO'}",
    ]
    return (EXIT_OK if ok else EXIT_VERIFICATION), doc, "\n".join(lines) + "\n"


def _read_complex(path: str) -> ChainComplex:
    """Load a complex document; any malformed content is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return complex_from_json(fh.read())
    except FileNotFoundError:
        raise  # reported as a usage error by run()
    except (OSError, ValueError, LookupError, TypeError, AttributeError, RecursionError) as e:
        reason = f"missing key {e}" if isinstance(e, KeyError) else " ".join(str(e).split())
        raise UsageError(f"cannot read a complex from {path}: {reason}") from None


def cmd_verify(job: argparse.Namespace):
    if job.in_path:
        C = _read_complex(job.in_path)
        Q = _parse_ideal(C.ring, job.against, "--against") if job.against is not None else None
        bound = job.degree_bound if job.degree_bound is not None else max(C.max_twist(), 0)
        try:
            v, ok = _verification(C, Q, bound)
        except (UsageError, BoxTooLarge):
            raise
        except ValueError as e:
            doc = {
                "command": "verify",
                "source": "imported",
                "bound": bound,
                "verdict": "FAILED",
                "reason": str(e),
            }
            return EXIT_VERIFICATION, doc, f"verify: FAILED ({e})\n"
        doc = {"command": "verify", "source": "imported", **v}
        subject, against = "imported complex", []
        if Q is not None:
            against = [f"H0 against {Q}: " + ("match" if v["h0_matches"] else "MISMATCH")]
    else:
        instance, build = _built(job)
        res = build.resolution
        Q = instance.quotient_ideal()
        bound = job.degree_bound if job.degree_bound is not None else default_degree_bound(instance, res)
        v, ok = _verification(res, Q, bound)
        doc = {"command": "verify", "source": "fiber", "quotient_ideal": str(Q), **v, "ok": ok}
        subject, against = f"resolution of R/{Q}", []
    lines = [
        f"verify: {subject}, degree bound {bound}" + _extent(v),
        "exact in positive degrees: " + ("yes" if v["exact_in_positive_degrees"] else "NO"),
        *_homology_at(v),
        "H0 Hilbert: " + " ".join(str(x) for x in v["h0_hilbert"]),
        *against,
        f"verdict: {v['verdict']}",
    ]
    return (EXIT_OK if ok else EXIT_VERIFICATION), doc, "\n".join(lines) + "\n"


def cmd_export(job: argparse.Namespace):
    if job.what == "star":
        C = _star_of(job)[3]
    elif job.what == "fiber":
        C = _built(job)[1].resolution
    else:
        cone_of = cone_phi if job.what == "cone-phi" else cone_psi
        C = cone_of(_instance_of(job), constrained=job.constrained_lift)
    doc = complex_to_json_dict(C)
    return EXIT_OK, doc, json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="starcone",
        description="Exact free resolutions of R/(I' + IJ + J') by star products and mapping cones.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, ideals=True, bound=True, lift=True):
        p.add_argument("--vars-a", type=str, default="", help="block A variable names, comma separated")
        p.add_argument("--vars-b", type=str, default="", help="block B variable names, comma separated")
        if ideals:
            p.add_argument("--iprime", type=str, default="", help="generators of I', comma separated monomials")
            p.add_argument("--jprime", type=str, default="", help="generators of J'")
        p.add_argument("--ideal-i", type=str, default=None, help="generators of I (default: block A variables)")
        p.add_argument("--ideal-j", type=str, default=None, help="generators of J (default: block B variables)")
        p.add_argument("--prime", type=int, default=32003, help="coefficient prime, 0 for the rationals")
        if bound:
            p.add_argument("--degree-bound", type=int, default=None,
                           help=f"internal degree bound for printed homology, at most {MAX_DEGREE_BOUND}")
        p.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
        if lift:
            p.add_argument("--constrained-lift", action=argparse.BooleanOptionalAction, default=True,
                           help="require comparison-lift entries inside I resp. J")
        p.add_argument("--out", type=str, default=None, help="write output to a file instead of stdout")
        # flags only some subcommands define: every job still carries them
        p.set_defaults(iprime="", jprime="", verify=False, betti=False, what="fiber", in_path=None,
                       against=None, degree_bound=None, truncate=None, constrained_lift=True)

    p_star = sub.add_parser("star", help="build the star product of two resolutions")
    common(p_star, ideals=False, lift=False)
    p_star.add_argument("--verify", action="store_true", help="run the homology certification")

    p_fiber = sub.add_parser("fiber", help="build the cone resolution of the fiber quotient")
    common(p_fiber)
    p_fiber.add_argument("--verify", action="store_true", help="run the homology certification")
    p_fiber.add_argument("--betti", action="store_true", help="print the graded Betti table")

    p_betti = sub.add_parser("betti", help="constructed vs closed-form Betti tables")
    common(p_betti, bound=False)

    p_poin = sub.add_parser("poincare", help="evaluate both Poincare identity residuals")
    common(p_poin, bound=False)
    p_poin.add_argument("--truncate", type=int, default=None, help="power series truncation")

    p_verify = sub.add_parser("verify", help="homology certification of a built or imported complex")
    common(p_verify)
    p_verify.add_argument("--in", dest="in_path", type=str, default=None, help="path to a complex JSON file")
    p_verify.add_argument("--against", type=str, default=None, help="monomial ideal whose quotient H0 must match")

    p_export = sub.add_parser("export", help="emit a constructed complex as JSON")
    common(p_export, bound=False)
    p_export.add_argument(
        "--what",
        choices=["star", "fiber", "cone-phi", "cone-psi"],
        default="fiber",
        help="which complex to export",
    )
    return top


def job_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the numeric flags and split the variable lists of a parsed
    command line, which is then the job that run executes.  `--flag=--`
    reaches it as [] (Python 3.10-3.12) or "--" (3.13) and is refused."""
    for dest, value in vars(args).items():
        if value == [] or value == "--":
            raise UsageError(f"--{dest.removesuffix('_path').replace('_', '-')} needs a value")
    if args.degree_bound is not None and args.degree_bound < 0:
        raise UsageError("--degree-bound must be nonnegative")
    if args.degree_bound is not None and args.degree_bound > MAX_DEGREE_BOUND:
        raise UsageError(f"--degree-bound {args.degree_bound} is above {MAX_DEGREE_BOUND}, the largest table printed")
    if args.truncate is not None and args.truncate < 0:
        raise UsageError("--truncate must be nonnegative")
    args.vars_a = _split_names(args.vars_a) if args.vars_a else ()
    args.vars_b = _split_names(args.vars_b) if args.vars_b else ()
    return args


_COMMANDS = {
    "star": cmd_star,
    "fiber": cmd_fiber,
    "betti": cmd_betti,
    "poincare": cmd_poincare,
    "verify": cmd_verify,
    "export": cmd_export,
}


def run(job: argparse.Namespace) -> tuple:
    """Execute one job; returns (exit code, output text)."""
    try:
        code, doc, text = _COMMANDS[job.command](job)
    except (UsageError, BoxTooLarge, FileNotFoundError) as e:
        return EXIT_USAGE, f"usage error: {e}\n"
    except PolyParseError as e:
        return EXIT_USAGE, f"parse error: {e}\n"
    except (HypothesisViolation, LiftError) as e:
        return EXIT_HYPOTHESIS, f"hypothesis violation: {e}\n"
    except InvariantViolation as e:
        return EXIT_VERIFICATION, f"verification failure: {e}\n"
    except MemoryError:
        return EXIT_RESOURCE, "resource error: out of memory\n"
    return code, _emit(job, doc, text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = job_from_args(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    code, text = run(job)
    if job.out:
        try:
            with open(job.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"usage error: cannot write {job.out}: {e.strerror or e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
