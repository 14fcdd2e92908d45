"""Koszul and Taylor resolutions, minimization, resolution_of dispatch."""
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_minimize, small_ideals
from starcone import (
    ChainComplex,
    ChainMap,
    MonomialIdeal,
    PolyMatrix,
    RingSpec,
    certifies_resolution_of,
    cone,
    graded_betti,
    hilbert_function,
    homology_dims,
    is_complex,
    is_minimal,
    is_regular_sequence_monomials,
    koszul,
    minimize,
    poly_parse,
    resolution_of,
    taylor,
    trivial_resolution,
)

RING = RingSpec(("x", "y"))
RING3 = RingSpec(("x", "y", "z"))


def K(ring, *texts):
    return koszul(ring, [poly_parse(t, ring) for t in texts])


def test_koszul_length_one():
    ring = RingSpec(("x",))
    C = K(ring, "x")
    assert [C.rank(0), C.rank(1)] == [1, 1]
    assert C.twists(1) == (1,)
    assert str(C.diff(1).entry(0, 0)) == "x"

    C2 = K(ring, "x^2")
    assert C2.twists(1) == (2,)
    assert str(C2.diff(1).entry(0, 0)) == "x^2"
    assert certifies_resolution_of(C2, MonomialIdeal.parse(["x^2"], ring), 5)


def test_koszul_binomial_ranks_and_squares_to_zero():
    C = K(RING3, "x", "y", "z")
    assert [C.rank(n) for n in range(4)] == [comb(3, n) for n in range(4)]
    assert is_complex(C)
    assert is_minimal(C)
    assert C.twists(3) == (3,)


def test_koszul_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        K(RING, "x + 1")
    with pytest.raises(ValueError):
        K(RING, "0")


def test_taylor_frozen_quadratic():
    I = MonomialIdeal.parse(["x^2", "x*y", "y^2"], RING)
    T = taylor(I)
    assert [T.rank(n) for n in range(4)] == [1, 3, 3, 1]
    assert is_complex(T)
    M = minimize(T)
    assert [M.rank(n) for n in range(3)] == [1, 3, 2]
    assert is_minimal(M)
    assert graded_betti(M).entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_minimize_preserves_homology():
    I = MonomialIdeal.parse(["x^2", "x*y", "y^3"], RING)
    T = taylor(I)
    M = minimize(T)
    bound = 7
    before = homology_dims(T, bound)
    after = homology_dims(M, bound)
    assert before.dims == after.dims
    assert before.h0 == after.h0 == hilbert_function(I, bound)
    assert is_minimal(M)


def same_labels_and_columns(A, B) -> bool:
    return A.mdegs == B.mdegs and all(A.columns(n) == B.columns(n) for n in A.modules)


def test_minimize_fixes_minimal_complex():
    C = K(RING, "x", "y")
    assert minimize(C) is C
    # Taylor on a regular sequence has no unit entry: it is the Koszul complex
    T = taylor(MonomialIdeal.parse(["x^2", "y*z"], RING3))
    assert same_labels_and_columns(minimize(T), T)


@given(small_ideals())
def test_minimize_fixes_resolution_of(I):
    R = resolution_of(I)
    assert same_labels_and_columns(minimize(R), R)


def _matrix(ring, nrows, ncols, texts):
    return PolyMatrix.from_entries(
        ring, nrows, ncols, {ij: poly_parse(t, ring) for ij, t in texts.items()})


def test_minimize_schur_update_adds_and_cancels_terms():
    # C_0 has labels 1, x and C_1 has x, x*y, x^2, with d_1 = [[x, x*y, 0],
    # [1, y, x]]: the pivot (1, 0) turns x*y into x*y - x*y = 0 and the
    # zero under x into -x^2 in the surviving row.
    C = ChainComplex.from_labels(RING, {0: ((0, 0), (1, 0)), 1: ((1, 0), (1, 1), (2, 0))},
                                 {1: [{0: 1, 1: 1}, {0: 1, 1: 1}, {1: 1}]})
    want = ChainComplex.from_labels(RING, {0: ((0, 0),), 1: ((1, 1), (2, 0))},
                                    {1: [{}, {0: RING.coeff_field.of_int(-1)}]})
    assert str(C.diff(1)) == "[x, x*y, 0; 1, y, x]"
    assert minimize(C) == want == dense_minimize(C)
    assert str(minimize(C).diff(1)) == "[0, 32002*x^2]"


def test_minimize_non_multigraded_unit_entry():
    # Koszul on x + y, z^2 with a redundant copy e3 of e1 and the unit
    # relation g2 = e1 - e3 has no labels to cancel the unit by.
    C = ChainComplex(RING3, {0: (0,), 1: (1, 2, 1), 2: (3, 1)}, {
        1: _matrix(RING3, 1, 3, {(0, 0): "x + y", (0, 1): "z^2", (0, 2): "x + y"}),
        2: _matrix(RING3, 3, 2, {(0, 0): "z^2", (1, 0): "-x - y", (0, 1): "1", (2, 1): "-1"}),
    })
    assert is_complex(C)
    with pytest.raises(ValueError, match="not multigraded"):
        minimize(C)


def test_minimize_matches_dense_reference_by_hand():
    K2 = K(RING3, "x*y", "z^2")
    identity = ChainMap(K2, K2, {n: [{g: 1} for g in range(K2.rank(n))] for n in K2.support()})
    quadrics = MonomialIdeal.parse(["x^2", "y^2", "z^2", "x*y", "x*z", "y*z"], RING3)
    # the first cancellation turns the zero at (1, 1) into the unit -1
    new_unit = ChainComplex(RING, {0: (0, 0), 1: (0, 0)}, {1: _matrix(RING, 2, 2, {
        (0, 0): "1", (0, 1): "1", (1, 0): "1"})})
    for C in (cone(identity), taylor(quadrics), new_unit):
        assert minimize(C) == dense_minimize(C)
    assert minimize(cone(identity)).is_empty() and minimize(new_unit).is_empty()


taylor_gens = st.lists(
    st.sampled_from(["x^2", "y^2", "z^2", "x*y", "x*z", "y*z", "x^3", "x*y*z", "y^2*z", "x*z^2"]),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(taylor_gens)
def test_minimize_matches_dense_reference(texts):
    """Also on the cone of the identity, which has units in every degree, so
    rows of d_{n+1} are deleted while d_n is swept, and minimizes to 0."""
    T = taylor(MonomialIdeal.parse(texts, RING3))
    identity = cone(ChainMap(T, T, {n: [{g: 1} for g in range(T.rank(n))] for n in T.support()}))
    assert minimize(T) == dense_minimize(T)
    assert minimize(identity) == dense_minimize(identity)
    assert minimize(identity).is_empty()


def test_trivial_resolution():
    C = trivial_resolution(RING)
    assert C.support() == [0]
    assert C.rank(0) == 1


def test_resolution_of_dispatch():
    reg = MonomialIdeal.parse(["x^2", "y^3"], RING)
    assert resolution_of(reg) == K(RING, "x^2", "y^3")
    assert resolution_of(MonomialIdeal(RING, [])) == trivial_resolution(RING)
    messy = MonomialIdeal.parse(["x^2", "x*y"], RING)
    R = resolution_of(messy)
    assert is_minimal(R)
    assert certifies_resolution_of(R, messy, 6)


def test_regular_sequence_detector():
    m = lambda ts: MonomialIdeal.parse(ts, RING3).gens
    assert is_regular_sequence_monomials(m(["x", "y", "z"]))
    assert is_regular_sequence_monomials(m(["x^2", "y*z"]))
    assert not is_regular_sequence_monomials(m(["x*y", "y*z"]))
    assert not is_regular_sequence_monomials([(0, 0, 0)])


mono_texts = st.lists(
    st.sampled_from(["x^2", "x*y", "y^2", "x^3", "y^3", "x*y^2", "x^2*y"]),
    min_size=1,
    max_size=3,
    unique=True,
)


@given(mono_texts)
def test_resolution_of_certifies_property(texts):
    I = MonomialIdeal.parse(texts, RING)
    R = resolution_of(I)
    assert is_minimal(R)
    bound = I.max_gen_degree() + R.max_degree() + 1
    assert certifies_resolution_of(R, I, bound)
