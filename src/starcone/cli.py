"""Command-line frontend.

Subcommands:

  star      build X * Y for resolutions of two ideals (block or explicit)
  fiber     build the cone resolution of R/(I' + IJ + J')
  betti     compare constructed Betti tables against the closed forms
  poincare  evaluate both Poincare-series identity residuals
  verify    degreewise homology certification of a built or imported complex
  export    emit a constructed complex as JSON

Exit codes: 0 success, 1 hypothesis violation, 2 parse or usage error
(a malformed `verify --in` file included), 3 verification failure (a broken
internal invariant included), 4 resource error (out of memory).  Output is
deterministic: the same invocation produces byte-identical documents.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    ChainComplex,
    InvariantViolation,
    complex_from_json,
    complex_to_json_dict,
    generating_function,
    graded_betti,
    is_minimal,
)
from .fields import PrimeField, RationalField, is_prime
from .fiber import (
    FiberInstance,
    HypothesisViolation,
    LiftError,
    build_fiber,
    cone_phi,
    cone_psi,
    default_degree_bound,
    make_instance,
)
from .formulas import (
    betti_fiber,
    betti_product_table,
    fiber_betti_table,
    poincare_identity_1,
    poincare_identity_2,
    series_of_ideal,
)
from .homcheck import homology_dims
from .resolutions import minimize, resolution_of
from .ring import (
    MonomialIdeal,
    PolyParseError,
    RingSpec,
    hilbert_function,
    ideal_contains,
    ideal_product,
    ideal_sum,
    poly_parse,
)
from .star import star_product

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_RESOURCE = 4


class UsageError(ValueError):
    pass


@dataclass
class JobSpec:
    """One CLI invocation, fully parsed."""

    command: str
    vars_a: tuple = ()
    vars_b: tuple = ()
    iprime: Optional[str] = None
    jprime: Optional[str] = None
    ideal_i: Optional[str] = None
    ideal_j: Optional[str] = None
    prime: int = 32003
    degree_bound: Optional[int] = None
    truncate: Optional[int] = None
    json_out: bool = False
    verify: bool = False
    constrained: bool = True
    betti: bool = False
    what: str = "fiber"
    in_path: Optional[str] = None
    against: Optional[str] = None


# ------------------------------------------------------------ input parsing

def _split_names(text: str) -> tuple:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise UsageError("empty variable list")
    return names


def _field_of(prime: int):
    if prime == 0:
        return RationalField()
    if not is_prime(prime):
        raise UsageError(f"--prime {prime} is not prime (use 0 for the rationals)")
    return PrimeField(prime)


def _ring_of(job: JobSpec) -> RingSpec:
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
    gens = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        p = poly_parse(piece, ring)
        if p.is_zero():
            continue
        if len(p.terms) != 1:
            raise UsageError(f"{flag}: '{piece}' is not a monomial")
        ((m, c),) = p.terms.items()
        gens.append(m)  # unit coefficients generate the same ideal
    try:
        return MonomialIdeal(ring, gens)
    except ValueError as e:
        raise UsageError(f"{flag}: {e}") from None


def _block_ideal(ring: RingSpec, names: tuple) -> MonomialIdeal:
    gens = []
    for name in names:
        e = [0] * ring.nvars
        e[ring.var_index(name)] = 1
        gens.append(tuple(e))
    return MonomialIdeal(ring, gens)


def _ideals_of(job: JobSpec) -> tuple:
    """The ring and the ideals (I', I, J', J) of a job: I and J default to
    the block ideals, I' and J' to zero."""
    ring = _ring_of(job)
    I = (
        _block_ideal(ring, job.vars_a)
        if job.ideal_i is None
        else _parse_ideal(ring, job.ideal_i, "--ideal-i")
    )
    J = (
        _block_ideal(ring, job.vars_b)
        if job.ideal_j is None
        else _parse_ideal(ring, job.ideal_j, "--ideal-j")
    )
    Ip = _parse_ideal(ring, job.iprime, "--iprime") if job.iprime else MonomialIdeal(ring, [])
    Jp = _parse_ideal(ring, job.jprime, "--jprime") if job.jprime else MonomialIdeal(ring, [])
    return ring, Ip, I, Jp, J


def _instance_of(job: JobSpec) -> FiberInstance:
    """Build the instance; block mode (no --ideal-i/--ideal-j) additionally
    gates I' inside I^2 and J' inside J^2."""
    ring, Ip, I, Jp, J = _ideals_of(job)
    if job.ideal_i is None and job.ideal_j is None:
        I2 = ideal_product(I, I)
        J2 = ideal_product(J, J)
        blockA = "<" + ", ".join(job.vars_a) + ">"
        blockB = "<" + ", ".join(job.vars_b) + ">"
        if not ideal_contains(I2, Ip):
            raise HypothesisViolation(
                f"hypothesis I' inside {blockA}^2 fails: {Ip} is not contained in {I2}"
            )
        if not ideal_contains(J2, Jp):
            raise HypothesisViolation(
                f"hypothesis J' inside {blockB}^2 fails: {Jp} is not contained in {J2}"
            )
    return make_instance(ring, Ip, I, Jp, J)


def _star_of(job: JobSpec):
    """The ring, I, J and the star product of their resolutions."""
    ring, _, I, _, J = _ideals_of(job)
    if I.is_zero() or J.is_zero():
        raise UsageError("star needs two nonzero ideals")
    return ring, I, J, star_product(resolution_of(I), resolution_of(J))


# --------------------------------------------------------------- rendering

def _ranks(C: ChainComplex) -> list:
    if C.is_empty():
        return []
    return [C.rank(n) for n in range(C.max_degree() + 1)]


def _verification_doc(C: ChainComplex, Q: MonomialIdeal, bound: int) -> dict:
    report = homology_dims(C, bound)
    expected = hilbert_function(Q, bound)
    ok = report.exact_in_positive and report.h0 == expected
    return {
        "bound": bound,
        "complete": report.complete,
        "exact_in_positive_degrees": report.exact_in_positive,
        "h0_hilbert": report.h0,
        "h0_expected": expected,
        "h0_matches": report.h0 == expected,
        "dims": {f"{n},{d}": v for (n, d), v in sorted(report.dims.items())},
        "verdict": "exact" if ok else "FAILED",
        "ok": ok,
    }


def _verify_into(doc: dict, lines: list, C: ChainComplex, Q: MonomialIdeal, bound: int) -> int:
    """Certify C as a resolution of R/Q, record the result in doc and
    lines, and return the exit code."""
    v = _verification_doc(C, Q, bound)
    doc["verification"] = v
    lines.append(
        f"verification: {'exact' if v['ok'] else 'FAILED'} up to degree {bound}"
        + (" (complete)" if v["complete"] else " (bounded)")
    )
    return EXIT_OK if v["ok"] else EXIT_VERIFICATION


def _emit(job: JobSpec, doc: dict, text: str) -> str:
    if job.json_out:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return text


# ---------------------------------------------------------------- commands

def cmd_star(job: JobSpec):
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
    return {
        "tor": {
            pair: {"independent": bool(rep), "mode": rep.mode}
            for pair, rep in sorted(build.tor_reports.items())
        },
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
    tor_lines = [
        f"  tor {pair}: {'independent' if v['independent'] else 'DEPENDENT'} ({v['mode']})"
        for pair, v in sorted(cert_doc["tor"].items())
    ]
    return (
        ["certificate:"]
        + tor_lines
        + [
            f"  constrained lifts: {'yes' if cert_doc['constrained_lifts'] else 'no'}",
            f"  minimality hypotheses: {'hold' if cert_doc['hypotheses_ok'] else 'do not hold'}",
            f"  minimal: {'yes' if cert_doc['minimal'] else 'no'}",
            f"  degree bound: {cert_doc['degree_bound']}",
        ]
    )


def cmd_fiber(job: JobSpec):
    from .fiber import certify_minimal

    instance = _instance_of(job)
    build = build_fiber(instance, constrained=job.constrained)
    res = build.resolution
    cert = certify_minimal(instance, build)
    Q = instance.quotient_ideal()
    bound = (
        job.degree_bound
        if job.degree_bound is not None
        else default_degree_bound(instance, res)
    )
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


def cmd_betti(job: JobSpec):
    if job.ideal_i is not None or job.ideal_j is not None:
        raise UsageError("betti works in block mode; drop --ideal-i/--ideal-j")
    instance = _instance_of(job)
    build = build_fiber(instance, constrained=job.constrained)
    res = build.resolution
    constructed = graded_betti(minimize(res))
    bS = graded_betti(instance.S)
    bX = graded_betti(instance.X)
    bT = graded_betti(instance.T)
    bY = graded_betti(instance.Y)
    bIJ = betti_product_table(bX, bY)
    formula = fiber_betti_table(bIJ, bS, bX, bT, bY)
    m = len(job.vars_a)
    n = len(job.vars_b)
    top = max(constructed.max_l(), formula.max_l())
    totals_formula = [betti_fiber(l, m, n, bS, bT) for l in range(top + 1)]
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


def cmd_poincare(job: JobSpec):
    if job.ideal_i is not None or job.ideal_j is not None:
        raise UsageError("poincare works in block mode; drop --ideal-i/--ideal-j")
    instance = _instance_of(job)
    build = build_fiber(instance, constrained=job.constrained)
    res = minimize(build.resolution)
    R_IpJ = resolution_of(ideal_sum(instance.Ip, instance.J))
    R_IJp = resolution_of(ideal_sum(instance.I, instance.Jp))
    R_IplusJ = resolution_of(ideal_sum(instance.I, instance.J))
    m = len(job.vars_a)
    n = len(job.vars_b)
    tr = job.truncate
    if tr is None:
        tr = (
            max(
                res.max_degree(),
                build.star.max_degree(),
                R_IpJ.max_degree(),
                R_IJp.max_degree(),
                m + n,
            )
            + 2
        )
    PF = generating_function(res, tr)
    P_star = generating_function(build.star, tr + 1)
    residual1 = poincare_identity_1(
        PF,
        generating_function(R_IpJ, tr),
        generating_function(R_IJp, tr),
        generating_function(R_IplusJ, tr),
        series_of_ideal(P_star),
    )
    residual2 = poincare_identity_2(
        PF,
        generating_function(instance.S, tr),
        generating_function(instance.T, tr),
        m,
        n,
    )
    ok = residual1.is_zero() and residual2.is_zero()
    doc = {
        "command": "poincare",
        "quotient_ideal": str(instance.quotient_ideal()),
        "series": str(PF),
        "identity_1_residual": str(residual1),
        "identity_2_residual": str(residual2),
        "truncation": tr,
        "ok": ok,
    }
    lines = [
        f"poincare series of R/{instance.quotient_ideal()}: {PF}",
        f"identity 1 residual: {residual1}",
        f"identity 2 residual: {residual2}",
        f"verdict: {'both identities hold' if ok else 'RESIDUAL NONZERO'}",
    ]
    return (EXIT_OK if ok else EXIT_VERIFICATION), doc, "\n".join(lines) + "\n"


def _read_complex(path: str) -> ChainComplex:
    """Load a complex document; any malformed content is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return complex_from_json(fh.read())
    except (FileNotFoundError, PolyParseError):
        raise  # reported as usage and parse errors by run()
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        reason = f"missing key {e}" if isinstance(e, KeyError) else " ".join(str(e).split())
        raise UsageError(f"cannot read a complex from {path}: {reason}") from None


def cmd_verify(job: JobSpec):
    if job.in_path:
        C = _read_complex(job.in_path)
        Q = None
        if job.against:
            Q = _parse_ideal(C.ring, job.against, "--against")
        bound = job.degree_bound if job.degree_bound is not None else C.max_twist()
        try:
            report = homology_dims(C, bound)
        except ValueError as e:
            doc = {
                "command": "verify",
                "source": "imported",
                "bound": bound,
                "verdict": "FAILED",
                "reason": str(e),
            }
            return EXIT_VERIFICATION, doc, f"verify: FAILED ({e})\n"
        ok = report.exact_in_positive
        doc = {
            "command": "verify",
            "source": "imported",
            "bound": bound,
            "complete": report.complete,
            "exact_in_positive_degrees": report.exact_in_positive,
            "dims": {f"{n},{d}": v for (n, d), v in sorted(report.dims.items())},
            "h0_hilbert": report.h0,
        }
        lines = [
            f"verify: imported complex, degree bound {bound}"
            + (" (complete)" if report.complete else " (bounded)"),
            "exact in positive degrees: " + ("yes" if report.exact_in_positive else "NO"),
            "H0 Hilbert: " + " ".join(str(v) for v in report.h0),
        ]
        if Q is not None:
            expected = hilbert_function(Q, bound)
            match = report.h0 == expected
            ok = ok and match
            doc["h0_expected"] = expected
            doc["h0_matches"] = match
            lines.append(f"H0 against {Q}: " + ("match" if match else "MISMATCH"))
        doc["verdict"] = "exact" if ok else "FAILED"
        lines.append(f"verdict: {doc['verdict']}")
        return (EXIT_OK if ok else EXIT_VERIFICATION), doc, "\n".join(lines) + "\n"
    # no --in: build the fiber construction and certify it
    instance = _instance_of(job)
    build = build_fiber(instance, constrained=job.constrained)
    res = build.resolution
    Q = instance.quotient_ideal()
    bound = (
        job.degree_bound
        if job.degree_bound is not None
        else default_degree_bound(instance, res)
    )
    v = _verification_doc(res, Q, bound)
    doc = {"command": "verify", "source": "fiber", "quotient_ideal": str(Q), **v}
    lines = [
        f"verify: resolution of R/{Q}, degree bound {bound}"
        + (" (complete)" if v["complete"] else " (bounded)"),
        "exact in positive degrees: "
        + ("yes" if v["exact_in_positive_degrees"] else "NO"),
        "H0 Hilbert: " + " ".join(str(x) for x in v["h0_hilbert"]),
        f"verdict: {v['verdict']}",
    ]
    return (EXIT_OK if v["ok"] else EXIT_VERIFICATION), doc, "\n".join(lines) + "\n"


def cmd_export(job: JobSpec):
    if job.what == "star":
        C = _star_of(job)[3]
    else:
        instance = _instance_of(job)
        if job.what == "fiber":
            C = build_fiber(instance, constrained=job.constrained).resolution
        elif job.what == "cone-phi":
            C = cone_phi(instance, constrained=job.constrained)
        else:
            C = cone_psi(instance, constrained=job.constrained)
    doc = complex_to_json_dict(C)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return EXIT_OK, doc, text


# ------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="starcone",
        description="Exact free resolutions of R/(I' + IJ + J') by star products and mapping cones.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, ideals=True):
        p.add_argument("--vars-a", type=str, default="", help="block A variable names, comma separated")
        p.add_argument("--vars-b", type=str, default="", help="block B variable names, comma separated")
        if ideals:
            p.add_argument("--iprime", type=str, default=None, help="generators of I', comma separated monomials")
            p.add_argument("--jprime", type=str, default=None, help="generators of J'")
        p.add_argument("--ideal-i", type=str, default=None, help="generators of I (default: block A variables)")
        p.add_argument("--ideal-j", type=str, default=None, help="generators of J (default: block B variables)")
        p.add_argument("--prime", type=int, default=32003, help="coefficient prime, 0 for the rationals")
        p.add_argument("--degree-bound", type=int, default=None, help="internal degree bound for homology checks")
        p.add_argument("--truncate", type=int, default=None, help="power series truncation")
        p.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
        p.add_argument(
            "--constrained-lift",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="require comparison-lift entries inside I resp. J",
        )
        p.add_argument("--out", type=str, default=None, help="write output to a file instead of stdout")

    p_star = sub.add_parser("star", help="build the star product of two resolutions")
    common(p_star, ideals=False)
    p_star.add_argument("--verify", action="store_true", help="run the homology certification")

    p_fiber = sub.add_parser("fiber", help="build the cone resolution of the fiber quotient")
    common(p_fiber)
    p_fiber.add_argument("--verify", action="store_true", help="run the homology certification")
    p_fiber.add_argument("--betti", action="store_true", help="print the graded Betti table")

    p_betti = sub.add_parser("betti", help="constructed vs closed-form Betti tables")
    common(p_betti)

    p_poin = sub.add_parser("poincare", help="evaluate both Poincare identity residuals")
    common(p_poin)

    p_verify = sub.add_parser("verify", help="homology certification of a built or imported complex")
    common(p_verify)
    p_verify.add_argument("--in", dest="in_path", type=str, default=None, help="path to a complex JSON file")
    p_verify.add_argument("--against", type=str, default=None, help="monomial ideal whose quotient H0 must match")

    p_export = sub.add_parser("export", help="emit a constructed complex as JSON")
    common(p_export)
    p_export.add_argument(
        "--what",
        choices=["star", "fiber", "cone-phi", "cone-psi"],
        default="fiber",
        help="which complex to export",
    )
    return top


def job_from_args(args: argparse.Namespace) -> JobSpec:
    if args.degree_bound is not None and args.degree_bound < 0:
        raise UsageError("--degree-bound must be nonnegative")
    if args.truncate is not None and args.truncate < 0:
        raise UsageError("--truncate must be nonnegative")
    return JobSpec(
        command=args.command,
        vars_a=_split_names(args.vars_a) if args.vars_a else (),
        vars_b=_split_names(args.vars_b) if args.vars_b else (),
        iprime=getattr(args, "iprime", None),
        jprime=getattr(args, "jprime", None),
        ideal_i=args.ideal_i,
        ideal_j=args.ideal_j,
        prime=args.prime,
        degree_bound=args.degree_bound,
        truncate=args.truncate,
        json_out=args.json,
        constrained=args.constrained_lift,
        verify=getattr(args, "verify", False),
        betti=getattr(args, "betti", False),
        what=getattr(args, "what", "fiber"),
        in_path=getattr(args, "in_path", None),
        against=getattr(args, "against", None),
    )


_COMMANDS = {
    "star": cmd_star,
    "fiber": cmd_fiber,
    "betti": cmd_betti,
    "poincare": cmd_poincare,
    "verify": cmd_verify,
    "export": cmd_export,
}


def run(job: JobSpec) -> tuple:
    """Execute one job; returns (exit code, output text)."""
    try:
        code, doc, text = _COMMANDS[job.command](job)
    except UsageError as e:
        return EXIT_USAGE, f"usage error: {e}\n"
    except PolyParseError as e:
        return EXIT_USAGE, f"parse error: {e}\n"
    except HypothesisViolation as e:
        return EXIT_HYPOTHESIS, f"hypothesis violation: {e}\n"
    except LiftError as e:
        return EXIT_HYPOTHESIS, f"hypothesis violation: {e}\n"
    except InvariantViolation as e:
        return EXIT_VERIFICATION, f"verification failure: {e}\n"
    except FileNotFoundError as e:
        return EXIT_USAGE, f"usage error: {e}\n"
    except MemoryError:
        return EXIT_RESOURCE, "resource error: out of memory\n"
    if job.command == "export":
        return code, text
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
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
