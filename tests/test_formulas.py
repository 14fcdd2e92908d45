"""Closed-form Betti numbers and the two Poincare-series identities."""
from hypothesis import given
from hypothesis import strategies as st

from starcone import (
    BettiTable,
    PowerSeries,
    betti_fiber,
    betti_product_table,
    block_instance,
    build_fiber,
    fiber_betti_table,
    generating_function,
    graded_betti,
    poincare_identity_1,
    poincare_identity_2,
    resolution_of,
    series_of_ideal,
    tensor,
)

from helpers import loop_betti_product_table, loop_fiber_betti_table

KOSZUL1 = BettiTable({(0, 0): 1, (1, 1): 1})
QUAD = BettiTable({(0, 0): 1, (1, 2): 1})


def test_betti_product_quadratic():
    # R/<x> (x) R/<y> convolution: R/<xy> has betti 1, 1
    table = betti_product_table(KOSZUL1, KOSZUL1)
    assert table.totals() == {0: 1, 1: 1}
    assert table.entry(1, 2) == 1


def test_graded_fiber_formula_quadratic_frozen():
    bIJ = betti_product_table(KOSZUL1, KOSZUL1)
    table = fiber_betti_table(bIJ, QUAD, KOSZUL1, QUAD, KOSZUL1)
    assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_total_fiber_formula_quadratic():
    assert [betti_fiber(l, 1, 1, QUAD, QUAD) for l in range(4)] == [1, 3, 2, 0]


def test_formula_equals_construction_mixed_instance():
    inst = block_instance(2, 2, ["x1^2", "x1*x2", "x2^3"], ["y1^2*y2"])
    build = build_fiber(inst)
    built = graded_betti(build.resolution)
    bS = graded_betti(inst.S)
    bX = graded_betti(inst.X)
    bT = graded_betti(inst.T)
    bY = graded_betti(inst.Y)
    formula = fiber_betti_table(betti_product_table(bX, bY), bS, bX, bT, bY)
    assert formula == built
    totals = built.totals()
    for l in range(build.resolution.max_degree() + 2):
        assert betti_fiber(l, 2, 2, bS, bT) == totals.get(l, 0)


def test_identity_residuals_zero_quadratic():
    inst = block_instance(1, 1, ["x^2"], ["y^2"])
    build = build_fiber(inst)
    tr = 8
    PF = generating_function(build.resolution, tr)
    P_IpJ = generating_function(tensor(inst.S, inst.Y), tr)
    P_IJp = generating_function(tensor(inst.X, inst.T), tr)
    P_IplusJ = generating_function(tensor(inst.X, inst.Y), tr)
    P_IJ = series_of_ideal(generating_function(build.star, tr))
    assert poincare_identity_1(PF, P_IpJ, P_IJp, P_IplusJ, P_IJ).is_zero()
    PIp = generating_function(inst.S, tr)
    PJp = generating_function(inst.T, tr)
    assert poincare_identity_2(PF, PIp, PJp, 1, 1).is_zero()


def test_identity_1_inputs_cross_validated():
    # the Kunneth shortcut for P_{R/(I'+J)} agrees with a direct minimal
    # resolution of the sum ideal
    from starcone import ideal_sum, is_minimal

    inst = block_instance(2, 1, ["x1^2", "x1*x2"], ["y^3"])
    direct = resolution_of(ideal_sum(inst.Ip, inst.J))
    shortcut = tensor(inst.S, inst.Y)
    assert is_minimal(direct) and is_minimal(shortcut)
    tr = 8
    assert generating_function(direct, tr) == generating_function(shortcut, tr)
    direct2 = resolution_of(ideal_sum(inst.I, inst.Jp))
    shortcut2 = tensor(inst.X, inst.T)
    assert generating_function(direct2, tr) == generating_function(shortcut2, tr)


def test_identity_residual_nonzero_negative_control():
    inst = block_instance(2, 1, ["x1^2", "x1*x2"], ["y^2"])
    build = build_fiber(inst)
    tr = 8
    PF = generating_function(build.resolution, tr)
    PIp = generating_function(inst.S, tr)
    PJp = generating_function(inst.T, tr)
    assert poincare_identity_2(PF, PIp, PJp, 2, 1).is_zero()
    # swapped blocks and a corrupted series must both break the closed form
    assert not poincare_identity_2(PF, PIp, PJp, 1, 2).is_zero()
    corrupted = PF + PowerSeries.of([0, 1], tr)
    assert not poincare_identity_2(corrupted, PIp, PJp, 2, 1).is_zero()


# Arbitrary tables, not only those of resolutions: any (l, k) >= 0, any
# positive value, entries in degree 0 other than (0, 0) included.
betti_tables = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 7)), st.integers(1, 5), max_size=6
).map(BettiTable)


@given(betti_tables, betti_tables)
def test_betti_product_table_matches_loops(bI, bJ):
    assert betti_product_table(bI, bJ) == loop_betti_product_table(bI, bJ)


@given(st.lists(betti_tables, min_size=5, max_size=5))
def test_fiber_betti_table_matches_loops(tables):
    assert fiber_betti_table(*tables) == loop_fiber_betti_table(*tables)
