"""The d^2 = 0, chain-map and minimality checks form no polynomial products:
each one agrees with its mat_mul reference on perturbed complexes and maps,
and the certifier runs with polynomial arithmetic switched off."""
from functools import lru_cache
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import starcone.complexes
import starcone.homcheck
from starcone import (
    ChainComplex,
    ChainMap,
    MonomialIdeal,
    PolyMatrix,
    RingSpec,
    block_instance,
    build_fiber,
    certify_minimal,
    complex_from_json,
    cone,
    default_degree_bound,
    graded_betti,
    homology_dims,
    is_complex,
    is_minimal,
    koszul,
    lift_chain_map,
    minimize,
    poly_parse,
    resolution_of,
    suspension,
    taylor,
    tensor,
    tor_dims,
)
from starcone.complexes import chain_map_defect, multidegrees
from starcone.fiber import omega
from starcone.ring import Polynomial

from helpers import (
    instance_e,
    mat_mul,
    perturbed,
    perturbed_columns,
    product_chain_map_defect,
    product_is_complex,
    scan_is_minimal,
    small_ideals,
    small_instances,
)

PERTURBATIONS = st.tuples(st.integers(0, 9), st.integers(0, 99), st.integers(0, 2), st.integers(1, 4))


@lru_cache(maxsize=None)
def _builds() -> tuple:
    return tuple(build_fiber(inst) for inst in small_instances(3))


def _with_diffs(C: ChainComplex, diffs: dict) -> ChainComplex:
    return ChainComplex(C.ring, C.modules, diffs)


@st.composite
def complexes(draw):
    """A Taylor complex, a minimal resolution or a built fiber resolution."""
    kind = draw(st.sampled_from(["taylor", "resolution", "fiber"]))
    if kind == "fiber":
        return draw(st.sampled_from(_builds())).resolution
    I = draw(small_ideals())
    return taylor(I) if kind == "taylor" else resolution_of(I)


def _assert_d2_check_agrees(C: ChainComplex):
    squares_to_zero = product_is_complex(C)
    assert is_complex(C) == squares_to_zero
    if squares_to_zero:
        homology_dims(C, 1)
        return
    refuse = AssertionError("a block was ranked before d^2 was checked")
    with patch.object(starcone.homcheck, "_block_homology", side_effect=refuse), \
            pytest.raises(ValueError, match=r"^d\^2 != 0: homology dimensions are undefined$"):
        homology_dims(C, 1)


@seed(20261020)
@given(complexes(), PERTURBATIONS)
def test_d2_check_agrees_with_products(C, perturbation):
    """homology_dims raises the d^2 error, before ranking any block, iff the
    reference product d_{n-1} d_n is nonzero; the perturbed complex is
    multigraded or falls back to total degree."""
    if not C.diffs:
        return
    _assert_d2_check_agrees(C)
    _assert_d2_check_agrees(_with_diffs(C, perturbed(C.diffs, *perturbation)))


def test_d2_check_covers_both_paths():
    """A coefficient change keeps the scalar path; a second term in an entry
    sends the complex to the polynomial fallback; both are refused."""
    res = _builds()[0].resolution
    for how, graded in ((0, True), (2, False)):
        bad = _with_diffs(res, perturbed(res.diffs, 1, 0, how, 1))
        assert (multidegrees(bad) is not None) == graded
        assert not product_is_complex(bad)
        with pytest.raises(ValueError, match=r"d\^2 != 0"):
            homology_dims(bad, 1)


@seed(20261021)
@given(st.integers(0, 2), st.sampled_from(["phi", "psi", "omega"]), PERTURBATIONS)
def test_chain_map_defect_agrees_with_products(which, side, perturbation):
    """On the comparison lifts and on omega(Phi, Psi), perturbed in one
    scalar (a coefficient change or a deletion), chain_map_defect names the
    degree the product comparison names."""
    build = _builds()[which]
    f = {"phi": build.phi_lift.map, "psi": build.psi_lift.map}.get(side) or omega(build.Phi, build.Psi)
    assert chain_map_defect(f) is None and product_chain_map_defect(f) is None
    g = ChainMap(f.source, f.target, perturbed_columns(f.cols, *perturbation, f.target.ring.coeff_field))
    assert chain_map_defect(g) == product_chain_map_defect(g)


@seed(20261022)
@given(small_ideals(), PERTURBATIONS)
def test_is_minimal_agrees_with_sorted_scan(I, perturbation):
    """Unminimized Taylor complexes have unit entries; minimal resolutions
    have none; a perturbation can add or remove one, or leave the complex
    not multigraded, which is_minimal refuses."""
    T, R = taylor(I), resolution_of(I)
    for C in (T, R, _with_diffs(T, perturbed(T.diffs, *perturbation)) if T.diffs else T):
        if multidegrees(C) is None:
            with pytest.raises(ValueError, match="not multigraded"):
                is_minimal(C)
        else:
            assert is_minimal(C) == scan_is_minimal(C)


def test_checks_form_no_products():
    """The certifier, is_complex, chain_map_defect and the comparison lifts
    run with polynomial arithmetic switched off, on a multigraded 3+2
    resolution; the lifts also onto the Taylor-minimized resolutions of E."""
    inst = block_instance(3, 2, ["x1^2", "x2^2", "x3^2", "x1*x2*x3"], ["y1^2", "y2^2"])
    build = build_fiber(inst)
    res, f = build.resolution, omega(build.Phi, build.Psi)
    e = instance_e()

    def refuse(*args):
        raise AssertionError("formed a polynomial product")

    with patch.object(Polynomial, "__mul__", refuse), patch.object(Polynomial, "__add__", refuse):
        rep = homology_dims(res, 6, against=inst.quotient_ideal())
        assert rep.complete and rep.exact_in_positive and rep.h0_matches
        assert tor_dims(res, inst.J, 6).complete
        assert is_complex(res) and is_minimal(res)
        assert chain_map_defect(f) is None
        for S, X, I in ((inst.S, inst.X, inst.I), (e.S, e.X, e.I), (e.T, e.Y, e.J)):
            assert lift_chain_map(S, X, constrain_to=I).constrained
            lift_chain_map(S, X)


def test_build_and_certification_build_no_polynomial():
    """build_fiber and certification (homology against the quotient, Tor,
    the minimality certificate, Betti tables) read and write the labels the
    complexes carry: they run with Polynomial construction and multidegree
    inference switched off, on the 3+2 block instance and on instance E."""
    block = block_instance(3, 2, ["x1^2", "x2^2", "x3^2", "x1*x2*x3"], ["y1^2", "y2^2"])
    cases = [(inst, inst.quotient_ideal()) for inst in (block, instance_e())]

    def refuse(*args, **kwargs):
        raise AssertionError("built a Polynomial or inferred multidegrees")

    with patch.object(Polynomial, "__init__", refuse), patch.object(starcone.complexes, "multidegrees", refuse):
        for inst, Q in cases:
            for constrained in (True, False):
                build = build_fiber(inst, constrained=constrained)
                res = build.resolution
                rep = homology_dims(res, default_degree_bound(inst, res), against=Q)
                assert rep.complete and rep.exact_in_positive and rep.h0_matches
                assert tor_dims(res, inst.J, 4).complete
                certify_minimal(inst, build)
                graded_betti(minimize(res))


def test_parsed_and_koszul_complexes_are_labelled_when_made():
    """A complex given by PolyMatrix differentials, parsed from an exported
    document or a Koszul complex on monomials, gets its labels when it is
    made: the checks and operations on it then run with Polynomial
    construction and multidegree inference switched off."""
    star = complex_from_json((Path(__file__).parent / "data" / "export_star.out").read_text())
    ring = RingSpec(("x", "y", "z"))
    K = koszul(ring, [poly_parse("x", ring), poly_parse("y*z", ring)])
    cases = [(star, MonomialIdeal.parse(["x1*y", "x2*y"], star.ring)), (K, MonomialIdeal.parse(["x", "y*z"], ring))]

    def refuse(*args, **kwargs):
        raise AssertionError("built a Polynomial or inferred multidegrees")

    with patch.object(Polynomial, "__init__", refuse), patch.object(starcone.complexes, "multidegrees", refuse):
        for C, Q in cases:
            identity = ChainMap(C, C, {n: [{g: 1} for g in range(C.rank(n))] for n in C.support()})
            assert is_complex(C) and is_minimal(C)
            rep = homology_dims(C, 4, against=Q)
            assert rep.complete and rep.exact_in_positive and rep.h0_matches
            assert tor_dims(C, Q, 4).complete
            assert minimize(C).mdegs == C.mdegs
            assert suspension(C, 1).mdegs == {n + 1: a for n, a in C.mdegs.items()}
            assert is_complex(tensor(C, C))
            assert is_complex(cone(identity))


def test_mat_mul_by_hand():
    ring = RingSpec(("x", "y", "z"))
    P = lambda t: poly_parse(t, ring)
    A = PolyMatrix(ring, 2, 2, [[P("x"), P("y")], [P("0"), P("z")]])
    B = PolyMatrix(ring, 2, 3, [[P("y"), P("1"), P("0")], [P("-x"), P("0"), P("z")]])
    # row 0: [x*y - y*x, x, y*z]; row 1: [-x*z, 0, z^2]
    want = PolyMatrix(ring, 2, 3, [[P("0"), P("x"), P("y*z")], [P("-x*z"), P("0"), P("z^2")]])
    assert mat_mul(A, B) == want
    with pytest.raises(ValueError):
        mat_mul(B, A)
