"""Star product: worked 2x2 matrices, rank formula, exactness, minimality."""
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starcone import (
    MonomialIdeal,
    RingSpec,
    certifies_resolution_of,
    graded_betti,
    hilbert_function,
    homology_dims,
    ideal_product,
    is_complex,
    is_minimal,
    koszul,
    poly_parse,
    resolution_of,
    star_product,
)


def block_ring(m, n):
    xs = [f"x{i+1}" for i in range(m)] if m > 1 else ["x"]
    ys = [f"y{j+1}" for j in range(n)] if n > 1 else ["y"]
    return RingSpec(tuple(xs + ys), partition=(tuple(xs), tuple(ys))), xs, ys


def block_star(m, n):
    ring, xs, ys = block_ring(m, n)
    I = MonomialIdeal.parse(xs, ring)
    J = MonomialIdeal.parse(ys, ring)
    return star_product(resolution_of(I), resolution_of(J)), I, J, ring


def mat_strings(C, n):
    M = C.diff(n)
    return [[str(M.entry(i, j)) for j in range(M.ncols)] for i in range(M.nrows)]


def test_two_by_two_worked_example():
    S, I, J, ring = block_star(2, 2)
    assert [S.rank(n) for n in range(4)] == [1, 4, 4, 1]
    assert mat_strings(S, 1) == [["x1*y1", "x1*y2", "x2*y1", "x2*y2"]]
    minus = lambda v: f"32002*{v}"
    assert mat_strings(S, 2) == [
        ["y2", "0", minus("x2"), "0"],
        [minus("y1"), "0", "0", minus("x2")],
        ["0", "y2", "x1", "0"],
        ["0", minus("y1"), "0", "x1"],
    ]
    assert mat_strings(S, 3) == [[minus("x2")], ["x1"], [minus("y2")], ["y1"]]
    assert is_complex(S)
    assert is_minimal(S)


def test_two_by_two_exact_to_degree_eight():
    S, I, J, ring = block_star(2, 2)
    IJ = ideal_product(I, J)
    rep = homology_dims(S, 8)
    assert rep.exact_in_positive
    assert rep.h0 == hilbert_function(IJ, 8)
    assert rep.complete


def test_rank_formula_all_small_blocks():
    for m in range(1, 5):
        for n in range(1, 5):
            S, _, _, _ = block_star(m, n)
            for ell in range(0, m + n + 1):
                expected = (
                    1
                    if ell == 0
                    else comb(m + n, ell + 1) - comb(m, ell + 1) - comb(n, ell + 1)
                )
                assert S.rank(ell) == expected, (m, n, ell)


def test_star_of_principal_ideals():
    ring = RingSpec(("x",))
    X = koszul(ring, [poly_parse("x", ring)])
    S = star_product(X, X)
    assert [S.rank(0), S.rank(1)] == [1, 1]
    assert str(S.diff(1).entry(0, 0)) == "x^2"
    assert certifies_resolution_of(S, MonomialIdeal.parse(["x^2"], ring), 5)


def test_star_resolves_product_ideal():
    ring, xs, ys = block_ring(2, 1)
    I = MonomialIdeal.parse(["x1^2", "x2^3"], ring)
    J = MonomialIdeal.parse(["y^2"], ring)
    S = star_product(resolution_of(I), resolution_of(J))
    IJ = ideal_product(I, J)
    assert certifies_resolution_of(S, IJ, 9)
    assert is_minimal(S)


def test_star_graded_betti_convolution():
    ring, xs, ys = block_ring(2, 2)
    I = MonomialIdeal.parse(["x1^2", "x2^3"], ring)
    J = MonomialIdeal.parse(["y1*y2"], ring)
    X = resolution_of(I)
    Y = resolution_of(J)
    S = star_product(X, Y)
    bX = graded_betti(X)
    bY = graded_betti(Y)
    bS = graded_betti(S)
    for (ell, k), v in bS.entries.items():
        if ell == 0:
            assert v == 1
            continue
        conv = sum(
            bX.entry(i, j) * bY.entry(ell + 1 - i, k - j)
            for i in range(1, ell + 1)
            for j in range(0, k + 1)
        )
        assert v == conv, (ell, k)


@given(
    st.lists(st.sampled_from(["x", "y", "z", "x*y", "z^2"]), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from(["x", "y", "z", "y*z", "x^2"]), min_size=1, max_size=2, unique=True),
)
def test_star_is_always_a_complex(ts, us):
    ring = RingSpec(("x", "y", "z"))
    X = resolution_of(MonomialIdeal.parse(ts, ring))
    Y = resolution_of(MonomialIdeal.parse(us, ring))
    S = star_product(X, Y)
    assert is_complex(S)
    assert S.rank(0) == 1


def test_star_requires_augmented_inputs():
    from starcone import suspension

    ring = RingSpec(("x", "y"))
    X = resolution_of(MonomialIdeal.parse(["x"], ring))
    with pytest.raises(ValueError):
        star_product(suspension(X, 1), X)
