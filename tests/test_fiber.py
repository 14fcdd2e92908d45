"""Lifts, comparison maps, cones, the minimality certificate and the
closed-form entry points."""
import dataclasses
import re

import pytest

from starcone import (
    ChainComplex,
    HypothesisViolation,
    LiftError,
    MonomialIdeal,
    PrimeField,
    RingSpec,
    block_instance,
    build_fiber,
    certifies_resolution_of,
    certify_minimal,
    closed_form_table,
    cone_phi,
    cone_psi,
    default_degree_bound,
    fiber_ideal_check,
    generating_function,
    graded_betti,
    hilbert_function,
    homology_dims,
    ideal_membership,
    ideal_product,
    ideal_sum,
    is_chain_map,
    is_complex,
    is_minimal,
    koszul,
    lift_chain_map,
    make_instance,
    minimize,
    poincare_identity_1,
    poincare_identity_2,
    poincare_residuals,
    poly_parse,
    resolution_of,
    series_of_ideal,
    taylor,
    tensor,
)
from starcone.fiber import omega

from helpers import (
    double_every_solve,
    explicit_instance,
    instance_e,
    instance_e_prime,
    load_perfbench,
    reference_lift,
    small_instances,
    suite_instances,
    without_top_module,
)


def quadratic():
    return block_instance(1, 1, ["x^2"], ["y^2"])


def mat_strings(C, n):
    M = C.diff(n)
    return [[str(M.entry(i, j)) for j in range(M.ncols)] for i in range(M.nrows)]


# ------------------------------------------------------------------- lifts

def test_lift_principal_frozen():
    ring = RingSpec(("x", "y"))
    S = resolution_of(MonomialIdeal.parse(["x^2"], ring))
    X = resolution_of(MonomialIdeal.parse(["x"], ring))
    rep = lift_chain_map(S, X, constrain_to=MonomialIdeal.parse(["x"], ring))
    assert rep.constrained
    assert str(rep.map.mat(1).entry(0, 0)) == "x"
    assert is_chain_map(rep.map)


def test_lift_identity_needs_unit():
    ring = RingSpec(("x", "y"))
    I = MonomialIdeal.parse(["x"], ring)
    S = resolution_of(I)
    with pytest.raises(LiftError):
        lift_chain_map(S, S, constrain_to=I)
    rep = lift_chain_map(S, S)
    assert str(rep.map.mat(1).entry(0, 0)) == "1"


def test_lift_refuses_rings_that_differ():
    """<y> over (y, x) has the exponent tuple of x in (x, y): as constrain_to
    it would pass the entry x, and as X's ring it would be misread."""
    ring, swapped = RingSpec(("x", "y")), RingSpec(("y", "x"))
    S = resolution_of(MonomialIdeal.parse(["x^2"], ring))
    X = resolution_of(MonomialIdeal.parse(["x"], ring))
    with pytest.raises(ValueError, match="different rings"):
        lift_chain_map(S, X, constrain_to=MonomialIdeal.parse(["y"], swapped))
    with pytest.raises(ValueError, match="different rings"):
        lift_chain_map(S, resolution_of(MonomialIdeal.parse(["x"], swapped)))


def test_lift_refuses_target_without_single_term_entries():
    ring = RingSpec(("x", "y"))
    S = resolution_of(MonomialIdeal.parse(["x^2"], ring))
    with pytest.raises(ValueError):
        lift_chain_map(S, koszul(ring, [poly_parse("x + y", ring)]))


def test_lift_refuses_source_without_single_term_entries():
    ring = RingSpec(("x", "y"))
    X = resolution_of(MonomialIdeal.parse(["x"], ring))
    with pytest.raises(ValueError, match="multigraded"):
        lift_chain_map(koszul(ring, [poly_parse("x + y", ring)]), X)


def test_lift_refuses_a_bottom_generator_of_nonzero_twist():
    """S = R(-1) <- R(-2) by y has rank one in degree 0, but its bottom
    generator sits at x: "lifting the identity" would return multiplication
    by x, so the lift refuses it as the star product does."""
    ring = RingSpec(("x", "y"))
    S = ChainComplex.from_labels(ring, {0: ((1, 0),), 1: ((1, 1),)}, {1: [{0: 1}]})
    X = resolution_of(MonomialIdeal.parse(["x"], ring))
    with pytest.raises(ValueError, match="single twist-0 generator in degree 0"):
        lift_chain_map(S, X)


def test_lift_source_longer_than_target_frozen():
    """S resolves <x1^2, x1*x2, x1*x3> in three steps, X resolves <x1> in
    one: phi is zero, with no rows, from degree 2 on."""
    ring = RingSpec(("x1", "x2", "x3"))
    S = resolution_of(MonomialIdeal.parse(["x1^2", "x1*x2", "x1*x3"], ring))
    I = MonomialIdeal.parse(["x1"], ring)
    X = resolution_of(I)
    phi = lift_chain_map(S, X).map
    assert {n: (M.nrows, M.ncols, str(M)) for n, M in phi.mats.items()} == {
        0: (1, 1, "[1]"), 1: (1, 3, "[x1, x2, x3]"), 2: (0, 3, "[]"), 3: (0, 1, "[]")}
    with pytest.raises(LiftError, match="degree 1"):
        lift_chain_map(S, X, constrain_to=I)


def _assert_lift_matches_reference(S, X, ideal):
    """Every phi_j, shape and entries, or the LiftError, as reference_lift
    gives them, constrained to ideal and unconstrained."""
    for constrain_to in (ideal, None):
        try:
            want = reference_lift(S, X, constrain_to).map.mats
        except LiftError as e:
            with pytest.raises(LiftError, match=re.escape(str(e))):
                lift_chain_map(S, X, constrain_to)
            continue
        got = lift_chain_map(S, X, constrain_to).map.mats
        assert {n: (M.nrows, M.ncols, str(M)) for n, M in got.items()} == \
            {n: (M.nrows, M.ncols, str(M)) for n, M in want.items()}


def test_lift_matches_reference_on_small_survey_and_explicit_instances():
    """Survey seed 1 has Koszul targets; the explicit specs have
    non-regular ones; I' = I makes the constrained lift fail."""
    workloads = load_perfbench("workloads")
    ring = RingSpec(("x", "y"), partition=(("x",), ("y",)))
    mk = lambda ts: MonomialIdeal.parse(ts, ring)
    instances = small_instances() + [make_instance(ring, mk(["x"]), mk(["x"]), mk(["y^2"]), mk(["y"]))]
    instances += [block_instance(*spec) for spec in workloads.survey_blocks(1, 128)]
    instances += [explicit_instance(*spec) for spec in workloads.explicit_specs(1, 6)]
    for inst in instances:
        _assert_lift_matches_reference(inst.S, inst.X, inst.I)
        _assert_lift_matches_reference(inst.T, inst.Y, inst.J)


def test_lift_check_is_not_an_assert(monkeypatch):
    """A wrong solve is caught by an exception that `python -O` keeps."""
    from starcone import InvariantViolation

    double_every_solve(monkeypatch)
    inst = instance_e()
    with pytest.raises(InvariantViolation):
        lift_chain_map(inst.S, inst.X, constrain_to=inst.I)


def test_construction_does_not_call_the_certifier(monkeypatch):
    """The lifts solve in multidegree blocks, not in homcheck's graded
    pieces, and the Tor gate decides on the ideals, ranking no homology."""
    import starcone.fiber
    import starcone.homcheck

    def refuse(*args, **kwargs):
        raise AssertionError("the construction called homcheck's certifier")

    # also in fiber's namespace, in case it imports the functions by name
    for module in (starcone.homcheck, starcone.fiber):
        for name in ("graded_piece", "homology_dims"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for inst in (instance_e(), block_instance(2, 2, ["x1^2", "x1*x2"], ["y1^2", "y1*y2"])):
        assert build_fiber(inst).constrained
    ring = RingSpec(("x", "y"))
    with pytest.raises(HypothesisViolation, match=r"for \(I,J\): .* = \(1, 2\)$"):
        make_instance(ring, *(MonomialIdeal.parse([g], ring) for g in ("x^2", "x", "x^2*y", "x*y")))


def test_lift_entries_constrained_on_suite():
    for inst in suite_instances(6, seed=11):
        build = build_fiber(inst)
        assert build.constrained
        for rep, ideal in ((build.phi_lift, inst.I), (build.psi_lift, inst.J)):
            for n, mat in rep.map.mats.items():
                if n == 0:
                    continue
                for _, _, p in mat.nonzero_entries():
                    assert ideal_membership(p, ideal)


# --------------------------------------------------------- comparison maps

def test_phi_psi_are_chain_maps_quadratic():
    inst = quadratic()
    build = build_fiber(inst)
    assert is_chain_map(build.Phi)
    assert is_chain_map(build.Psi)
    # degree-0 components carry the augmentations of S and T
    assert str(build.Phi.mat(0).entry(0, 0)) == "x^2"
    assert str(build.Psi.mat(0).entry(0, 0)) == "y^2"
    assert str(build.Phi.mat(1).entry(0, 0)) == "x"
    assert str(build.Psi.mat(1).entry(0, 0)) == "32002*y"


def test_omega_concatenates():
    inst = quadratic()
    build = build_fiber(inst)
    Om = omega(build.Phi, build.Psi)
    assert is_chain_map(Om)
    assert Om.mat(0).ncols == build.Phi.mat(0).ncols + build.Psi.mat(0).ncols


# ---------------------------------------------------------------- the cone

def test_quadratic_instance_frozen():
    inst = quadratic()
    res = build_fiber(inst).resolution
    assert [res.rank(n) for n in range(3)] == [1, 3, 2]
    assert mat_strings(res, 1) == [["x*y", "x^2", "y^2"]]
    assert mat_strings(res, 2) == [["x", "32002*y"], ["32002*y", "0"], ["0", "x"]]
    assert is_minimal(res)
    assert graded_betti(res).entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_quadratic_certified():
    inst = quadratic()
    build = build_fiber(inst)
    res = build.resolution
    rep = homology_dims(res, 6)
    assert rep.exact_in_positive
    assert rep.h0 == [1, 2, 0, 0, 0, 0, 0]
    cert = certify_minimal(inst, build)
    assert bool(cert)


def test_quadratic_against_taylor_oracle():
    inst = quadratic()
    res = build_fiber(inst).resolution
    oracle = minimize(taylor(inst.quotient_ideal()))
    assert graded_betti(res) == graded_betti(oracle)


def test_containment_violation_rejected():
    ring = RingSpec(("x", "y"), partition=(("x",), ("y",)))
    with pytest.raises(HypothesisViolation):
        make_instance(
            ring,
            MonomialIdeal.parse(["y"], ring),
            MonomialIdeal.parse(["x"], ring),
            MonomialIdeal.parse(["y^2"], ring),
            MonomialIdeal.parse(["y"], ring),
        )


def test_tor_dependence_rejected():
    ring = RingSpec(("x", "y"))
    with pytest.raises(HypothesisViolation):
        make_instance(
            ring,
            MonomialIdeal.parse(["x^2"], ring),
            MonomialIdeal.parse(["x"], ring),
            MonomialIdeal.parse(["x^2*y"], ring),
            MonomialIdeal.parse(["x*y"], ring),
        )


def test_tor_gate_runs_before_any_resolution(monkeypatch):
    """make_instance refuses a Tor-dependent pair from the ideals alone, so
    no quotient is resolved first and no cone is built from the instance:
    here (I, J) = (<x, y>, <x*z>) has I cap J = <x*z>, outside IJ."""
    import starcone.fiber

    ring = RingSpec(("x", "y", "z"), partition=(("x", "y"), ("z",)))
    ideals = [MonomialIdeal.parse(gens, ring) for gens in (["x^2", "y^2"], ["x", "y"], [], ["x*z"])]

    def refuse(*args, **kwargs):
        raise AssertionError("a quotient was resolved before the Tor gate")

    monkeypatch.setattr(starcone.fiber, "resolution_of", refuse)
    with pytest.raises(HypothesisViolation, match=r"for \(I,J\): .* = \(1, 2\)$"):
        make_instance(ring, *ideals)


def test_unconstrained_fallback_when_iprime_equals_i():
    ring = RingSpec(("x", "y"), partition=(("x",), ("y",)))
    mk = lambda ts: MonomialIdeal.parse(ts, ring)
    inst = make_instance(ring, mk(["x"]), mk(["x"]), mk(["y"]), mk(["y"]))
    build = build_fiber(inst, constrained=True)
    assert not build.constrained
    cert = certify_minimal(inst, build)
    assert not cert.ip_in_i_squared
    assert not cert.resolution_minimal
    assert not bool(cert)
    # still resolves R/<x, y> even though not minimally
    res = build.resolution
    rep = homology_dims(res, 4)
    assert rep.exact_in_positive
    assert rep.h0 == hilbert_function(inst.quotient_ideal(), 4)


def test_suite_minimal_and_certified_hypotheses():
    for inst in suite_instances(8, seed=3):
        build = build_fiber(inst)
        cert = certify_minimal(inst, build)
        assert cert.hypotheses_ok
        assert cert.resolution_minimal
        assert is_complex(build.resolution)


def test_cone_phi_and_psi_certified():
    for inst in small_instances(4, seed=21):
        Cphi = cone_phi(inst)
        Qphi = ideal_sum(inst.Ip, ideal_product(inst.I, inst.J))
        bound = inst.max_gen_degree() + Cphi.max_degree() + 2
        assert certifies_resolution_of(Cphi, Qphi, bound)

        Cpsi = cone_psi(inst)
        Qpsi = ideal_sum(ideal_product(inst.I, inst.J), inst.Jp)
        bound = inst.max_gen_degree() + Cpsi.max_degree() + 2
        assert certifies_resolution_of(Cpsi, Qpsi, bound)


def test_default_degree_bound_covers_twists():
    inst = quadratic()
    res = build_fiber(inst).resolution
    assert default_degree_bound(inst, res) >= res.max_twist()
    assert default_degree_bound(inst, res) == 6
    # E's top twist, 11, lies above max generator degree + length + 2 = 10
    inst = instance_e()
    res = build_fiber(inst).resolution
    assert res.max_twist() == 11
    assert default_degree_bound(inst, res) == 11


def test_rational_field_instance():
    from starcone import RationalField

    inst = block_instance(1, 1, ["x^3"], ["y^2"], coeff_field=RationalField())
    build = build_fiber(inst)
    assert bool(certify_minimal(inst, build))
    rep = homology_dims(build.resolution, 7)
    assert rep.exact_in_positive
    assert rep.h0 == hilbert_function(inst.quotient_ideal(), 7)


# ------------------------------------------------------ linear-solve lifts

def _certify_linear_solve_build(inst, monkeypatch, ranks):
    from starcone import linalg

    calls = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or solve(*a))
    build = build_fiber(inst)
    res = build.resolution
    assert calls, "the lift never reached the linear solve"
    assert build.constrained
    assert [res.rank(n) for n in range(res.max_degree() + 1)] == ranks
    assert is_minimal(res)
    assert certifies_resolution_of(res, inst.quotient_ideal(), default_degree_bound(inst, res))


def test_linear_solve_lift_certified_mod_p(monkeypatch):
    _certify_linear_solve_build(instance_e(), monkeypatch, [1, 10, 19, 13, 3])


def test_linear_solve_lift_certified_over_q(monkeypatch):
    from starcone import RationalField

    _certify_linear_solve_build(instance_e_prime(RationalField()), monkeypatch, [1, 5, 6, 2])


# ------------------------------------------ a field where Betti numbers change

# The Stanley-Reisner ideal of the 6-vertex real projective plane: its ten
# minimal nonfaces, the triangles outside the hemi-icosahedron.  The reduced
# H_1 and H_2 of RP^2 over k are k in characteristic 2 and 0 otherwise, and
# by Hochster's formula each adds one to a Betti number of the whole vertex set.
RP2_NONFACES = ["x1*x2*x4", "x1*x2*x6", "x1*x3*x5", "x1*x3*x6", "x1*x4*x5",
                "x2*x3*x4", "x2*x3*x5", "x2*x5*x6", "x3*x4*x6", "x4*x5*x6"]


@pytest.mark.parametrize("prime, ranks, fiber_ranks", [
    (2, [1, 10, 15, 7, 1], [1, 17, 46, 57, 43, 22, 7, 1]),
    (3, [1, 10, 15, 6], [1, 17, 46, 56, 41, 21, 7, 1]),
    (32003, [1, 10, 15, 6], [1, 17, 46, 56, 41, 21, 7, 1]),
])
def test_rp2_betti_numbers_depend_on_the_characteristic(prime, ranks, fiber_ranks):
    """Over GF(2) the resolution of R/I_RP2 has one more rank in degrees 3
    and 4, and so has the fiber quotient with I' = I_RP2 and J' = <y^2>; each
    resolution certifies, is minimal and, for the fiber, meets the closed form."""
    inst = block_instance(6, 1, RP2_NONFACES, ["y^2"], coeff_field=PrimeField(prime))
    build = build_fiber(inst)
    for C, Q, expected in ((resolution_of(inst.Ip), inst.Ip, ranks),
                           (build.resolution, inst.quotient_ideal(), fiber_ranks)):
        assert [C.rank(n) for n in range(C.max_degree() + 1)] == expected
        rep = homology_dims(C, 0, against=Q)
        assert rep.complete and rep.exact_in_positive and rep.h0_matches
        assert is_minimal(C)
    assert closed_form_table(inst) == graded_betti(build.resolution)


# ----------------------------------------------------- closed-form entry points

def test_closed_forms_match_the_construction(suite):
    for inst, build in suite:
        assert closed_form_table(inst) == graded_betti(build.resolution)
        report = poincare_residuals(inst, build)
        assert report.identity_1.is_zero() and report.identity_2.is_zero()
        assert report


def test_suite_instances_are_fiber_products(suite):
    """make_instance's Tor gate passed on each (I, J), so I cap J = IJ and
    the quotient is the fiber product."""
    for inst, _ in suite:
        assert fiber_ideal_check(inst.Ip, inst.I, inst.Jp, inst.J)


def test_poincare_residuals_agree_with_the_kunneth_wiring(suite):
    """Criterion 5 reads the series of R/(I'+J), R/(I+J') and R/(I+J) off
    tensor products of the input resolutions; at the truncation
    poincare_residuals chose, that wiring gives the same series and the
    same (zero) residuals."""
    for inst, build in suite:
        report = poincare_residuals(inst, build)
        tr = report.truncation
        PF = generating_function(build.resolution, tr)
        assert PF == report.series
        kunneth = [generating_function(tensor(A, B), tr)
                   for A, B in ((inst.S, inst.Y), (inst.X, inst.T), (inst.X, inst.Y))]
        sums = [generating_function(resolution_of(ideal_sum(a, b)), tr)
                for a, b in ((inst.Ip, inst.J), (inst.I, inst.Jp), (inst.I, inst.J))]
        assert kunneth == sums
        P_IJ = series_of_ideal(generating_function(build.star, tr + 1))
        assert poincare_identity_1(PF, *kunneth, P_IJ) == report.identity_1
        m, n = len(inst.ring.partition[0]), len(inst.ring.partition[1])
        PIp, PJp = generating_function(inst.S, tr), generating_function(inst.T, tr)
        assert poincare_identity_2(PF, PIp, PJp, m, n) == report.identity_2


def test_poincare_residuals_catch_a_lost_top_module(suite):
    for inst, build in suite:
        broken = dataclasses.replace(build, resolution=without_top_module(build.resolution))
        report = poincare_residuals(inst, broken)
        assert not report.identity_1.is_zero() and not report.identity_2.is_zero()
        assert not report
        assert poincare_residuals(inst, broken, truncation=3).truncation == 3


def test_poincare_residuals_need_two_blocks():
    ring = RingSpec(("x", "y"))
    mk = lambda gens: MonomialIdeal.parse(gens, ring)
    inst = make_instance(ring, mk(["x^2"]), mk(["x"]), mk(["y^2"]), mk(["y"]))
    with pytest.raises(ValueError, match="two variable blocks"):
        poincare_residuals(inst, build_fiber(inst))


def test_poincare_series_is_that_of_the_minimized_resolution():
    """I' = I = <x>, J' = J = <y>: the cone is not minimal, and the series
    is that of R/<x, y>, read off its minimization."""
    ring = RingSpec(("x", "y"), partition=(("x",), ("y",)))
    mk = lambda gens: MonomialIdeal.parse(gens, ring)
    inst = make_instance(ring, mk(["x"]), mk(["x"]), mk(["y"]), mk(["y"]))
    build = build_fiber(inst)
    assert not is_minimal(build.resolution)
    assert str(poincare_residuals(inst, build).series) == "1 + 2*t + t^2"
