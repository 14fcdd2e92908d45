"""Chain complex operations: suspension, truncation, tensor, cone, series."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starcone import (
    BettiTable,
    ChainComplex,
    ChainMap,
    MonomialIdeal,
    PolyMatrix,
    PowerSeries,
    RingSpec,
    block_instance,
    build_fiber,
    complex_from_json,
    complex_to_json,
    cone,
    direct_sum,
    generating_function,
    graded_betti,
    is_chain_map,
    is_complex,
    is_minimal,
    koszul,
    lift_chain_map,
    minimize,
    poly_parse,
    resolution_of,
    suspension,
    tensor,
    truncate_geq,
)
from starcone.complexes import chain_map_defect, multidegrees, tensor_basis

from helpers import load_perfbench, reference_cone_diff, small_ideals

RING = RingSpec(("x", "y", "z"))


def K(*texts):
    return koszul(RING, [poly_parse(t, RING) for t in texts])


# ------------------------------------------------------------ construction

def test_complex_validates_shapes():
    with pytest.raises(ValueError):
        ChainComplex(
            RING,
            {0: (0,), 1: (1, 1)},
            {1: PolyMatrix.from_entries(RING, 1, 1, {(0, 0): poly_parse("x", RING)})},
        )


def test_complex_validates_homogeneity():
    with pytest.raises(ValueError):
        ChainComplex(
            RING,
            {0: (0,), 1: (3,)},
            {1: PolyMatrix.from_entries(RING, 1, 1, {(0, 0): poly_parse("x", RING)})},
        )


def test_poly_matrix_dense_rows_round_trip():
    P = lambda t: poly_parse(t, RING)
    rows = ((P("x"), P("0"), P("y^2")), (P("0"), P("0"), P("3*z")))
    M = PolyMatrix(RING, 2, 3, rows)
    assert M.rows == rows
    assert M.entry(0, 2) == P("y^2") and M.entry(1, 0).is_zero()
    assert PolyMatrix(RING, 2, 3, M.rows) == M


def test_poly_matrix_does_not_store_zero_entries():
    P = lambda t: poly_parse(t, RING)
    with_zero = PolyMatrix.from_entries(RING, 2, 2, {(0, 1): P("x"), (1, 0): P("0")})
    assert with_zero == PolyMatrix.from_entries(RING, 2, 2, {(0, 1): P("x")})
    assert list(with_zero.nonzero_entries()) == [(0, 1, P("x"))]
    assert PolyMatrix.from_entries(RING, 2, 2, {(1, 1): P("0")}).is_zero()


def test_poly_matrix_shape_mismatch():
    P = lambda t: poly_parse(t, RING)
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        PolyMatrix(RING, 2, 2, [[P("x"), P("y")], [P("z")]])
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        PolyMatrix(RING, 1, 2, [[P("x"), P("y")], [P("z"), P("x")]])


def test_poly_matrix_nonzero_entries_row_major():
    P = lambda t: poly_parse(t, RING)
    entries = {(1, 0): P("x"), (0, 2): P("y"), (1, 2): P("z"), (0, 0): P("1")}
    M = PolyMatrix.from_entries(RING, 2, 3, entries)
    assert [(i, j) for i, j, _ in M.nonzero_entries()] == [(0, 0), (0, 2), (1, 0), (1, 2)]
    assert all(p == entries[i, j] for i, j, p in M.nonzero_entries())


def test_labels_define_the_differentials():
    """from_labels builds d from multidegrees and scalars, twists included,
    and its text re-infers the same labels."""
    ring = RingSpec(("x", "y"))
    C = ChainComplex.from_labels(ring, {0: ((0, 0),), 1: ((1, 0), (0, 2))}, {1: [{0: 1}, {0: 3}]})
    assert C.twists(1) == (1, 2) and str(C.diff(1)) == "[x, 3*y^2]"
    _assert_labels_round_trip(C)


def test_zero_matrix_and_empty_module_dropped():
    C = ChainComplex(RING, {0: (0,), 1: (), 2: (5,)}, {})
    assert C.support() == [0, 2]
    assert C.diff(1).nrows == 1 and C.diff(1).ncols == 0


# -------------------------------------------------- suspension, truncation

def test_suspension_shifts_and_signs():
    C = K("x", "y")
    S = suspension(C, 1)
    assert S.support() == [1, 2, 3]
    d1 = C.diff(1)
    negated = {(i, j): -p for i, j, p in d1.nonzero_entries()}
    assert S.diff(2) == PolyMatrix.from_entries(RING, d1.nrows, d1.ncols, negated)
    assert suspension(S, -1) == C
    assert suspension(C, 2).diff(3) == C.diff(1)


def test_truncate_geq():
    C = K("x", "y")
    T = truncate_geq(C, 1)
    assert T.support() == [1, 2]
    assert T.diff(1).is_zero() or T.diff(1).ncols == 0
    assert T.diff(2) == C.diff(2)


# ------------------------------------------------------------------ tensor

def test_tensor_kunneth_ranks():
    A = K("x")
    B = K("y", "z")
    T = tensor(A, B)
    assert [T.rank(n) for n in range(4)] == [1, 3, 3, 1]
    assert is_complex(T)
    assert T == K("x", "y", "z") or is_minimal(T)


def test_tensor_with_koszul_is_koszul_sized():
    T = tensor(K("x", "y"), K("z"))
    full = K("x", "y", "z")
    assert [T.rank(n) for n in range(4)] == [full.rank(n) for n in range(4)]
    assert sorted(T.twists(2)) == sorted(full.twists(2))
    assert is_complex(T)


def test_tensor_basis_order_left_major():
    A = K("x")
    B = K("y", "z")
    labels = tensor_basis(A, B, 1)
    assert labels == [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)]


@given(
    st.lists(st.sampled_from(["x", "y", "z", "x*y", "z^2", "x^2"]), min_size=1, max_size=2),
    st.lists(st.sampled_from(["x", "y", "z", "y*z", "x^3"]), min_size=1, max_size=2),
)
def test_tensor_is_complex_property(ts, us):
    T = tensor(K(*ts), K(*us))
    assert is_complex(T)


# -------------------------------------------------------------------- cone

def _identity(C):
    """The identity of C as scalar columns on its labels."""
    return ChainMap(C, C, {n: [{g: 1} for g in range(C.rank(n))] for n in C.support()})


def test_cone_of_identity_contractible():
    cn = cone(_identity(K("x", "y")))
    assert is_complex(cn)
    from starcone import homology_dims

    rep = homology_dims(cn, 4)
    assert rep.dims == {}


def test_cone_rejects_non_chain_map():
    """K(x) -> K(x) by 1 in degree 0 and 2 in degree 1: d f_1 = 2x, f_0 d = x."""
    C = K("x")
    bad = ChainMap(C, C, {0: [{0: 1}], 1: [{0: 2}]})
    assert not is_chain_map(bad)
    with pytest.raises(ValueError, match=r"^not a chain map at degree 1$"):
        cone(bad)


def test_misshapen_columns_outside_both_complexes():
    """A column at a degree neither complex has, or a row index outside the
    target, or a column too many, is named by chain_map_defect, so
    is_chain_map and cone refuse."""
    C = K("x")
    ident = _identity(C).cols
    bad = ChainMap(C, C, cols={**ident, 5: [{0: 1}]})
    assert chain_map_defect(bad) == 5
    assert not is_chain_map(bad)
    with pytest.raises(ValueError, match=r"^not a chain map at degree 5$"):
        cone(bad)
    assert chain_map_defect(ChainMap(C, C, cols={**ident, 1: [{1: 1}]})) == 1
    with pytest.raises(ValueError, match=r"^not a chain map at degree 1$"):
        cone(ChainMap(C, C, {0: [{0: 1}], 1: [{0: 1}, {0: 1}]}))
    assert is_chain_map(ChainMap(C, C, cols={**ident, 5: []}))


def test_entry_outside_its_labels_is_not_a_chain_map():
    """K(y) -> K(x) by 1 in degrees 0 and 1: the degree-1 entry would be
    x^((0,1) - (1,0)), which is no monomial, so the square is not checked
    at all and both is_chain_map and cone refuse the map."""
    bad = ChainMap(K("y"), K("x"), {0: [{0: 1}], 1: [{0: 1}]})
    assert chain_map_defect(bad) == 1
    assert not is_chain_map(bad)
    with pytest.raises(ValueError, match=r"^not a chain map at degree 1$"):
        cone(bad)


def test_cone_on_scalar_columns_matches_polynomial_cone():
    """The cone on scalar columns has, in every degree, the block
    [[dT, f], [0, -dS]] assembled from the Polynomial matrices, for a lift
    between resolutions."""
    S = resolution_of(MonomialIdeal.parse(["x^2", "x*y", "y^3"], RING))
    X = resolution_of(MonomialIdeal.parse(["x", "y"], RING))
    f = lift_chain_map(S, X).map
    cn = cone(f)
    assert cn.mdegs is not None and is_complex(cn)
    for n in range(cn.max_degree() + 2):
        assert cn.diff(n) == reference_cone_diff(f, n)


def test_operations_read_labels():
    """A complex given by PolyMatrix differentials carries, from when it is
    made, the labels multidegrees finds, and the operations and checks read
    them as they read those of the same complex from_labels; one that has
    none is refused by mdegs and columns, and so by every operation."""
    C = K("x", "y")
    assert C.mdegs == multidegrees(C) and suspension(C, 1).mdegs == {n + 1: a for n, a in C.mdegs.items()}
    labelled = ChainComplex.from_labels(RING, C.mdegs, {n: C.columns(n) for n in C.support()})
    assert labelled == C and cone(_identity(C)) == cone(_identity(labelled))
    assert minimize(C) == minimize(labelled) == C and minimize(C).mdegs == C.mdegs
    assert is_minimal(C) and chain_map_defect(_identity(C)) is None
    bad = K("x + y")
    assert not bad.is_multigraded() and multidegrees(bad) is None
    for op in (lambda: bad.mdegs, lambda: bad.columns(1), lambda: suspension(bad, 1), lambda: truncate_geq(bad, 0),
               lambda: tensor(bad, C), lambda: direct_sum(C, bad), lambda: cone(_identity(bad)),
               lambda: minimize(bad), lambda: is_minimal(bad), lambda: chain_map_defect(_identity(bad))):
        with pytest.raises(ValueError, match="not multigraded"):
            op()


def test_direct_sum_blocks():
    A = K("x")
    B = K("y", "z")
    D = direct_sum(A, B)
    assert D.rank(1) == A.rank(1) + B.rank(1)
    assert is_complex(D)
    assert D.diff(1).entry(0, 0) == poly_parse("x", RING)


# ------------------------------------------------------------ power series

def test_series_arithmetic():
    m = PowerSeries.one_plus_t_power(2, 8)
    n = PowerSeries.one_plus_t_power(3, 8)
    assert m * n == PowerSeries.one_plus_t_power(5, 8)
    assert (m - m).is_zero()
    assert m.shift_up(2).shift_down(2) == m
    with pytest.raises(ValueError):
        m.shift_down(1)


def test_generating_function():
    C = K("x", "y", "z")
    P = generating_function(C, 5)
    assert P == PowerSeries.of([1, 3, 3, 1], 5)


# ------------------------------------------------------------- betti table

def test_betti_table_roundtrip_and_render():
    t = BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    assert t.to_json_dict() == {"totals": {"0": 1, "1": 3, "2": 2}, "graded": {"0,0": 1, "1,2": 3, "2,3": 2}}
    text = t.render_text()
    assert "total" in text and "3" in text
    assert t.totals() == {0: 1, 1: 3, 2: 2}


def test_graded_betti_requires_minimal():
    C = K("x", "y")
    assert graded_betti(C).entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    bad = ChainComplex(
        RING,
        {0: (0,), 1: (0,)},
        {1: PolyMatrix.from_entries(RING, 1, 1, {(0, 0): poly_parse("1", RING)})},
    )
    with pytest.raises(ValueError):
        graded_betti(bad)


# -------------------------------------------------------------------- json

def test_complex_json_roundtrip():
    C = K("x*y", "z^2")
    again = complex_from_json(complex_to_json(C))
    assert again == C


def test_complex_json_rejects_inhomogeneous():
    C = K("x")
    doc = complex_to_json(C).replace('"x"', '"x + 1"')
    with pytest.raises(ValueError):
        complex_from_json(doc)


def _assert_labels_round_trip(C):
    """The document's text re-infers C's labels and scalars exactly."""
    again = complex_from_json(complex_to_json(C))
    assert again.mdegs == C.mdegs
    assert all(again.columns(n) == C.columns(n) for n in C.support())


@given(small_ideals())
def test_resolution_labels_round_trip_through_json(I):
    _assert_labels_round_trip(resolution_of(I))


def test_cone_labels_round_trip_through_json():
    for m, n, ip, jp in load_perfbench("workloads").survey_blocks(1, 128):
        _assert_labels_round_trip(build_fiber(block_instance(m, n, ip, jp)).resolution)
