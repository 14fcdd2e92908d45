"""Frozen CLI documents: each case's output must match tests/data byte for byte.

The files were captured from an earlier release, so a refactor that changes
a basis order, a sign, a coefficient or a line of rendering fails here.
Regenerate (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden.py

test_build_identity_digest freezes the library's built resolutions and
lifts the same way, as one sha256 over many instances.
"""
import hashlib
from pathlib import Path

import pytest

from starcone import RationalField, block_instance, build_fiber, complex_to_json
from starcone.cli import build_parser, job_from_args, run

from helpers import explicit_instance, load_perfbench

DATA = Path(__file__).parent / "data"

# E': I = <x1^2, x1*x2> is not a regular sequence, so its lift takes the
# linear-solve path.
E_PRIME = ["--vars-a", "x1,x2", "--vars-b", "y", "--ideal-i", "x1^2,x1*x2",
           "--iprime", "x1^4,x1^2*x2^2", "--ideal-j", "y", "--jprime", "y^2"]

# Koszul on x + y, z^2: not multigraded, so verify --in ranks graded pieces.
NON_MULTIGRADED = str(DATA / "koszul_x_plus_y_z2.json")
# The frozen star export resolves R/<x1*y, x2*y>; verify --in reads it back.
STAR_EXPORT = str(DATA / "export_star.out")
# d1 = (x), d2 = (y): homogeneous, but d1 d2 = x*y != 0.
NOT_A_COMPLEX = str(DATA / "not_a_complex.json")

CASES = {
    "fiber_betti_json_verify": ["fiber", "--vars-a", "x1,x2", "--vars-b", "y", "--iprime", "x1*x2",
                                "--jprime", "y^3", "--betti", "--json", "--verify"],
    "fiber_q_json_verify": ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^3",
                            "--jprime", "y^2", "--prime", "0", "--json", "--verify"],
    "fiber_explicit_betti_verify": ["fiber", *E_PRIME, "--betti", "--verify"],
    "star_json_verify": ["star", "--vars-a", "x1,x2", "--vars-b", "y1,y2", "--json", "--verify"],
    "star_explicit_verify": ["star", "--vars-a", "x1,x2", "--vars-b", "y", "--ideal-i", "x1^2,x1*x2",
                             "--verify"],
    "export_cone_phi": ["export", "--vars-a", "x1,x2", "--vars-b", "y", "--iprime", "x1^2,x2^2",
                        "--jprime", "y^2", "--what", "cone-phi"],
    "export_cone_psi": ["export", "--vars-a", "x", "--vars-b", "y1,y2", "--iprime", "x^2",
                        "--jprime", "y1^2,y1*y2", "--what", "cone-psi"],
    "export_cone_phi_explicit_q": ["export", *E_PRIME, "--prime", "0", "--what", "cone-phi"],
    "export_fiber_explicit_q": ["export", *E_PRIME, "--prime", "0"],
    "export_fiber_cancelling": ["export", "--vars-a", "x1,x2", "--vars-b", "y",
                                "--iprime", "x1^2,x1*x2,x2^2", "--jprime", "y^2"],
    "export_star": ["export", "--vars-a", "x1,x2", "--vars-b", "y", "--what", "star"],
    "poincare_json": ["poincare", "--vars-a", "x", "--vars-b", "y1,y2", "--iprime", "x^2",
                      "--jprime", "y1*y2", "--json"],
    "betti_json": ["betti", "--vars-a", "x1,x2", "--vars-b", "y", "--iprime", "x1^2,x2^2",
                   "--jprime", "y^2", "--json"],
    "verify_in_non_multigraded": ["verify", "--in", NON_MULTIGRADED],
    "verify_in_non_multigraded_json": ["verify", "--in", NON_MULTIGRADED, "--json"],
    "verify_build": ["verify", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^3", "--jprime", "y^2"],
    "verify_in_against_match": ["verify", "--in", STAR_EXPORT, "--against", "x1*y,x2*y"],
    "verify_in_against_match_json": ["verify", "--in", STAR_EXPORT, "--against", "x1*y,x2*y", "--json"],
    "verify_in_against_mismatch": ["verify", "--in", STAR_EXPORT, "--against", "x1*y"],
    "verify_in_against_mismatch_json": ["verify", "--in", STAR_EXPORT, "--against", "x1*y", "--json"],
    "verify_in_not_a_complex": ["verify", "--in", NOT_A_COMPLEX],
    "verify_in_not_a_complex_json": ["verify", "--in", NOT_A_COMPLEX, "--json"],
    "fiber_verify_bounded": ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^3",
                             "--jprime", "y^2", "--verify", "--degree-bound", "2"],
    "fiber_gate_jprime": ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y"],
    "betti_ideal_i": ["betti", "--vars-a", "x1,x2", "--vars-b", "y", "--ideal-i", "x1^2"],
    "fiber_explicit_unconstrained_json": ["fiber", *E_PRIME, "--no-constrained-lift", "--json"],
}

# Exit codes other than 0; every other case must succeed.
EXIT_CODES = {
    "verify_in_against_mismatch": 3,
    "verify_in_against_mismatch_json": 3,
    "verify_in_not_a_complex": 3,
    "verify_in_not_a_complex_json": 3,
    "fiber_gate_jprime": 1,
    "betti_ideal_i": 2,
}


def render(name) -> str:
    code, text = run(job_from_args(build_parser().parse_args(CASES[name])))
    assert code == EXIT_CODES.get(name, 0), text
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name):
    want = (DATA / f"{name}.out").read_bytes()
    assert render(name).encode("utf-8") == want


# sha256 of build_digest_text(), frozen from an earlier release.
BUILD_DIGEST = "2359ac95a9ca8aaac2308450d3bad3e86d16d15da80de3d7525ef7eb768ce544"


def _digest_instances():
    """Survey seed 1, explicit specs of seed 3 and the six ladder rungs."""
    workloads = load_perfbench("workloads")
    for m, n, ip, jp in workloads.survey_blocks(1, 128):
        yield block_instance(m, n, ip, jp)
    for spec in workloads.explicit_specs(3, 16):
        yield explicit_instance(*spec)
    for m, n, ip, jp in workloads.LADDER_RUNGS.values():
        yield block_instance(m, n, ip, jp)
    for m, n, ip, jp in workloads.LADDER_Q_RUNGS.values():
        yield block_instance(m, n, ip, jp, coeff_field=RationalField())


def build_digest_text() -> str:
    """Per instance and lift mode, the exported resolution and every nonzero
    entry of both comparison lifts, as (degree, row, column, entry)."""
    parts = []
    for inst in _digest_instances():
        for constrained in (True, False):
            build = build_fiber(inst, constrained=constrained)
            parts.append(complex_to_json(build.resolution))
            for lift in (build.phi_lift, build.psi_lift):
                parts += [f"{n} {i} {j} {p}" for n in sorted(lift.map.mats)
                          for i, j, p in lift.map.mats[n].nonzero_entries()]
    return "\n".join(parts)


def test_build_identity_digest():
    assert hashlib.sha256(build_digest_text().encode("utf-8")).hexdigest() == BUILD_DIGEST


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in CASES:
        (DATA / f"{name}.out").write_bytes(render(name).encode("utf-8"))
