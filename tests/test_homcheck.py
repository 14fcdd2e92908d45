"""Degreewise homology computation, Tor independence, mutation detection."""
import importlib.util
import json
import random
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import starcone.homcheck
from starcone import (
    ChainComplex,
    ChainMap,
    MonomialIdeal,
    PolyMatrix,
    RationalField,
    RingSpec,
    block_instance,
    build_fiber,
    certifies_resolution_of,
    complex_from_json,
    cone,
    default_degree_bound,
    direct_sum,
    fiber_ideal_check,
    hilbert_function,
    homology_dims,
    is_complex,
    is_tor_independent,
    koszul,
    poly_parse,
    resolution_of,
    suspension,
    taylor,
    tor_dims,
)
from starcone.complexes import multidegrees
from starcone.homcheck import MAX_BOX_POINTS, BoxTooLarge
from starcone.ring import mono_degree, mono_lcm, mono_mul

from helpers import (
    address_space_cap,
    dense_homology,
    fiber_without_top_module,
    instance_e,
    instance_e_prime,
    koszul_without_syzygy,
    small_ideals,
    small_instances,
    without_top_module,
)

RING = RingSpec(("x", "y"))


def K(ring, *texts):
    return koszul(ring, [poly_parse(t, ring) for t in texts])


def test_koszul_exact_h0():
    C = K(RING, "x", "y")
    rep = homology_dims(C, 5)
    assert rep.exact_in_positive
    assert rep.h0 == [1, 0, 0, 0, 0, 0]
    assert rep.complete
    assert rep.dims.get((0, 0)) == 1


def test_nonexact_detected():
    # two equal columns leave a degree-1 kernel element
    C = ChainComplex(
        RING,
        {0: (0,), 1: (1, 1)},
        {
            1: PolyMatrix.from_entries(
                RING, 1, 2, {(0, 0): poly_parse("x", RING), (0, 1): poly_parse("x", RING)}
            )
        },
    )
    rep = homology_dims(C, 4)
    assert not rep.exact_in_positive
    assert rep.dims[(1, 1)] == 1


def test_bound_only_limits_printing():
    """Below the top twist the verdicts still cover every degree, and the
    table is the full one cut at the bound."""
    C = K(RING, "x^2", "y^3")
    rep, full = homology_dims(C, 3), homology_dims(C, 8)
    assert rep.complete and rep.exact_in_positive
    assert rep.dims == {cell: v for cell, v in full.dims.items() if cell[1] <= 3}
    assert full.h0 == [1, 2, 2, 1, 0, 0, 0, 0, 0]
    # H_1 = k sits at x*y, above the bound 1 and every twist
    rep = homology_dims(koszul_without_syzygy()[0], 1)
    assert rep.complete and not rep.exact_in_positive and not rep.positive_cells()
    assert rep.homology_at == (1, (1, 1))


def test_homology_rejects_non_complex():
    C = ChainComplex(
        RING,
        {0: (0,), 1: (1,), 2: (2,)},
        {
            1: PolyMatrix.from_entries(RING, 1, 1, {(0, 0): poly_parse("x", RING)}),
            2: PolyMatrix.from_entries(RING, 1, 1, {(0, 0): poly_parse("y", RING)}),
        },
    )
    assert not is_complex(C)
    with pytest.raises(ValueError):
        homology_dims(C, 4)


def test_certifies_resolution_of():
    I = MonomialIdeal.parse(["x^2", "x*y"], RING)
    R = resolution_of(I)
    assert certifies_resolution_of(R, I, 6)
    other = MonomialIdeal.parse(["x^2", "y^2"], RING)
    assert not certifies_resolution_of(R, other, 6)


def test_against_from_another_ring_is_refused():
    """An ideal over the variables in another order, or over more of them,
    is a ValueError: its exponent tuples would be read in the complex's ring,
    <y^2> over (y, x) as x^2 and an ideal over (x, y, z) cut to (x, y)."""
    C = resolution_of(MonomialIdeal.parse(["x^2"], RING))
    for against in (MonomialIdeal.parse(["y^2"], RingSpec(("y", "x"))),
                    MonomialIdeal.parse(["x^2"], RingSpec(("x", "y", "z")))):
        with pytest.raises(ValueError, match="different ring"):
            certifies_resolution_of(C, against, 4)


# --------------------------------------------------------------------- tor

def test_tor_self_pair_frozen():
    ring = RingSpec(("x",))
    X = K(ring, "x")
    J = MonomialIdeal.parse(["x"], ring)
    dims = tor_dims(X, J, 4).dims
    positive = {cell: v for cell, v in dims.items() if cell[0] >= 1}
    assert positive == {(1, 1): 1}


def test_tor_disjoint_blocks_vanish():
    X = K(RING, "x")
    I, J = MonomialIdeal.parse(["x"], RING), MonomialIdeal.parse(["y"], RING)
    rep = is_tor_independent(I, J)
    assert rep and rep.witness is None
    dims = tor_dims(X, J, 5).dims
    assert all(cell[0] == 0 for cell in dims)


def test_tor_computed_mode_detects_dependence():
    I, J = MonomialIdeal.parse(["x*y"], RING), MonomialIdeal.parse(["y"], RING)
    rep = is_tor_independent(I, J)
    assert not rep
    assert rep.witness == (1, 2)


def test_tor_computed_mode_witness_location():
    # Tor_1(R/<x^2>, R/<x*y^3>) = <x^2*y^3>/<x^3*y^3> first lives in degree 5
    I, J = MonomialIdeal.parse(["x^2"], RING), MonomialIdeal.parse(["x*y^3"], RING)
    rep = is_tor_independent(I, J)
    assert not rep
    assert rep.witness == (1, 5)


@seed(20261024)
@given(st.data())
def test_tor_independence_agrees_with_the_tor_oracle(data):
    """Decided on the ideals (I cap J = IJ, by rigidity), Tor-independence
    agrees with Tor computed by the box walk as H(X (x) Y) in every degree,
    and the witness with the walk's first (n, |b|).  Up to the degree of the
    lcm of I and J, that Tor agrees with the direct reduction of X modulo J,
    dependent pairs included, whose X (x) Y has homology above its lowest
    degree.  An independent pair, with I' and J' multiples of some of its
    generators, is a fiber product."""
    ring = RingSpec(("x", "y", "z")[:data.draw(st.integers(1, 3))])
    I, J = data.draw(small_ideals(ring)), data.draw(small_ideals(ring))
    X, bound = resolution_of(I), mono_degree(reduce(mono_lcm, I.gens + J.gens))
    rep, tor = is_tor_independent(I, J), tor_dims(X, J, bound)
    assert (tor.dims, tor.h0) == dense_homology(X, bound, J)
    assert bool(rep) == ((at := tor.homology_at) is None)
    if at is not None:
        assert rep.witness == (at[0], mono_degree(at[1]))
        return
    factor = st.tuples(*[st.integers(0, 2)] * I.ring.nvars)
    Ip, Jp = (MonomialIdeal(A.ring, [mono_mul(g, data.draw(factor)) for g in A.gens if data.draw(st.booleans())])
              for A in (I, J))
    assert fiber_ideal_check(Ip, I, Jp, J)


def _mutated_fiber():
    """The 1+1 fiber resolution with one entry of d_2 replaced by a
    different monomial of the same degree."""
    inst = block_instance(1, 1, ["x^2"], ["y^2"])
    res = build_fiber(inst).resolution
    ring = res.ring
    mats = {n: res.diff(n) for n in (1, 2)}
    rows = [list(r) for r in mats[2].rows]
    assert str(rows[0][0]) == "x"
    rows[0][0] = poly_parse("y", ring)
    bad = ChainComplex(
        ring,
        {n: res.twists(n) for n in res.support()},
        {1: mats[1], 2: PolyMatrix(ring, 3, 2, rows)},
    )
    return inst, bad


def test_mutation_of_differential_detected():
    inst, bad = _mutated_fiber()
    if is_complex(bad):
        rep = homology_dims(bad, 6)
        assert not (rep.exact_in_positive and rep.h0 == hilbert_function(inst.quotient_ideal(), 6))
    else:
        with pytest.raises(ValueError):
            homology_dims(bad, 6)


def test_report_fields():
    C = K(RING, "x", "y")
    rep = homology_dims(C, 4)
    assert rep.exact_in_positive is True
    assert rep.degree_bound == 4


# ------------------------------------------------------- multidegree blocks

def _oracle_corpus():
    """(name, complex, degree bound, ideal to reduce by or None)."""
    fibers = small_instances() + [instance_e(), instance_e_prime(RationalField())]
    for k, inst in enumerate(fibers):
        res = build_fiber(inst).resolution
        bound = default_degree_bound(inst, res)
        yield f"fiber{k}", res, bound, None
        for name in ("I", "J", "Jp"):
            yield f"fiber{k}/tor {name}", res, bound, getattr(inst, name)
    C = K(RING, "x", "y")
    ident = ChainMap(C, C, {n: [{g: 1} for g in range(C.rank(n))] for n in C.support()})
    yield "cone of the identity", cone(ident), 4, None
    yield "mutated fiber", _mutated_fiber()[1], 6, None
    # Not exact; the homology sits above every twist.
    yield "koszul without its syzygy", koszul_without_syzygy()[0], 3, None
    for name, F in (("", None), (" over Q", RationalField())):
        C = fiber_without_top_module(F)[0]
        yield "fiber without its top module" + name, C, _lcm_degree(C), None
    # A block is ranked from its predecessor's by the long exact sequence, or
    # from scratch when that block has homology above the lowest degree lo.
    # A suspension moves lo off 0 (an odd one negates every entry), a sum of
    # two resolutions has rank 2 at lo, so that the echelon basis of
    # d_(lo+1) grows past one column, and a summand without its top module
    # has homology above lo.
    ring = RingSpec(("x", "y", "z"))
    for name, C in _sequence_shapes(resolution_of(MonomialIdeal.parse(["x^2", "x*y", "y*z^2"], ring)),
                                    resolution_of(MonomialIdeal.parse(["x*z", "y^2"], ring))):
        yield name, C, _lcm_degree(C), None
    # Tor by the maximal ideal at b is spanned by the generators of X of
    # multidegree b.  I is the Stanley-Reisner ideal of a point and a
    # 2-sphere, so b = abcde has generators in degrees 2 and 4 but none in 3,
    # and X (x) Y has homology in both there.
    ring = RingSpec(tuple("abcde"))
    X = resolution_of(MonomialIdeal.parse(["a*e", "b*e", "c*e", "d*e", "a*b*c*d"], ring))
    at_b = {n for n, mdeg in multidegrees(X).items() if (1, 1, 1, 1, 1) in mdeg}
    assert at_b == {2, 4}
    yield "tor of a point and a sphere by the maximal ideal", X, 5, MonomialIdeal.parse(list("abcde"), ring)
    # Ranked by total degree up to the bound, one block per degree.  The
    # first has H_1 != 0: both generators are multiples of x + y.
    ring = RingSpec(("x", "y", "z"))
    yield "non-multigraded koszul with homology", K(ring, "x + y", "x*z + y*z"), 5, None


def _lcm_degree(C):
    """The degree of the lcm of C's generator multidegrees: the top of its box."""
    return mono_degree(reduce(mono_lcm, [a for mdeg in multidegrees(C).values() for a in mdeg]))


def _sequence_shapes(R, S):
    """(name, complex) for the shapes the long exact sequence walk treats
    apart, built from resolutions R and S over one ring."""
    yield "suspension by 1", suspension(R, 1)
    yield "suspension by -1", suspension(R, -1)
    yield "sum of two resolutions", direct_sum(R, S)
    yield "suspension by 1 of that sum", suspension(direct_sum(R, S), 1)
    yield "sum with a complex without its top module", direct_sum(R, without_top_module(S))


def test_blocks_agree_with_dense_oracle():
    for name, C, bound, J in _oracle_corpus():
        if not is_complex(C):
            with pytest.raises(ValueError):
                homology_dims(C, bound)
            continue
        rep = homology_dims(C, bound) if J is None else tor_dims(C, J, bound)
        dims, h0 = dense_homology(C, bound, J)
        assert (rep.dims, rep.h0) == (dims, h0), name
        assert rep.exact_in_positive == (not any(n >= 1 for n, _ in dims)), name
        if name.startswith("non-multigraded"):
            assert multidegrees(C) is None and not rep.complete, name
        elif not name.startswith("mutated"):
            assert multidegrees(C) is not None, name


def _survey_sampler():
    path = Path(__file__).resolve().parent.parent / "scripts" / "survey_random_instances.py"
    spec = importlib.util.spec_from_file_location("survey_random_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sample_instance


def test_survey_replay_agrees_with_dense_oracle():
    """Seed 1 of the survey sampler, as tests/test_scripts.py runs it: the
    box walk and the dense oracle agree on homology and on Tor by I, J, J'."""
    sample, rng = _survey_sampler(), random.Random(1)
    for k in range(8):
        inst, _ = sample(rng, max_vars=2, max_gens=4, max_deg=4)  # the script's defaults but max_vars
        res = build_fiber(inst).resolution
        bound = default_degree_bound(inst, res)
        rep = homology_dims(res, bound)
        assert (rep.dims, rep.h0) == dense_homology(res, bound), k
        for name in ("I", "J", "Jp"):
            J = getattr(inst, name)
            assert tor_dims(res, J, bound).dims == dense_homology(res, bound, J)[0], (k, name)


def test_non_multigraded_complex_falls_back_to_graded_pieces(monkeypatch):
    ring = RingSpec(("x", "y", "z"))
    C = K(ring, "x + y", "z^2")
    assert multidegrees(C) is None
    calls = []
    piece = starcone.homcheck.graded_piece
    monkeypatch.setattr(starcone.homcheck, "graded_piece", lambda *a: calls.append(a) or piece(*a))
    rep = homology_dims(C, 5)
    assert rep.exact_in_positive and not rep.complete  # checked up to the bound only
    assert rep.h0 == [1, 2, 2, 2, 2, 2]  # R/(x + y, z^2) = k[x, z]/(z^2)
    assert calls
    with pytest.raises(ValueError, match=r"^complex is not multigraded with single-term entries$"):
        tor_dims(C, MonomialIdeal.parse(["z"], ring), 5)


def test_fallback_ranks_from_the_lowest_twist():
    """R(2) <- R(1) by x in homological degrees 1 and 2 has H_1 = k(2), in
    degree -2 alone; R(1) has H_0 in degree -1, so it is not R/(x)."""
    ring = RingSpec(("x",))
    def read(doc):
        return complex_from_json(json.dumps({"ring": ring.describe(), **doc}))

    rep = homology_dims(read({"modules": {"1": [-2], "2": [-1]}, "differentials": {"2": [["x"]]}}), 0)
    assert rep.dims == {(1, -2): 1} and not rep.exact_in_positive
    rep = homology_dims(read({"modules": {"0": [-1]}}), 0, against=MonomialIdeal.parse(["x"], ring))
    assert rep.h0 == [1] and rep.h0_matches is False


def test_both_walks_rank_without_linalg_rank(monkeypatch):
    """The box walk and the total-degree fallback rank through one routine,
    which calls linalg.echelon and never linalg.rank."""
    def refuse(*args, **kwargs):
        raise AssertionError("homology was ranked through linalg.rank")

    monkeypatch.setattr(starcone.linalg, "rank", refuse)
    ring = RingSpec(("x", "y", "z"))
    for C in (K(ring, "x", "y*z"), K(ring, "x + y", "x*z + y*z")):
        rep = homology_dims(C, 4)
        assert rep.complete == (multidegrees(C) is not None)
    assert not rep.complete and rep.dims[1, 2] == 1  # H_1 is k(-2), spanned by (z, -1)


def test_multigraded_certification_forms_no_graded_piece(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certification formed a dense graded piece")

    monkeypatch.setattr(starcone.homcheck, "graded_piece", refuse)
    inst = block_instance(2, 2, ["x1^2", "x1*x2"], ["y1^2", "y1*y2"])
    res = build_fiber(inst).resolution
    assert certifies_resolution_of(res, inst.quotient_ideal(), default_degree_bound(inst, res))


def test_multigraded_certification_enumerates_no_labels(monkeypatch):
    """Blocks are found by walking multidegrees, not by listing the
    (generator, monomial) labels of each degree."""
    def refuse(*args, **kwargs):
        raise AssertionError("certification enumerated the monomials of a degree")

    monkeypatch.setattr(starcone.homcheck, "monomials_of_degree", refuse)
    inst = block_instance(2, 2, ["x1^2", "x1*x2"], ["y1^2", "y1*y2"])
    res = build_fiber(inst).resolution
    bound = default_degree_bound(inst, res)
    assert certifies_resolution_of(res, inst.quotient_ideal(), bound)
    assert tor_dims(res, inst.J, bound).positive_cells()


def test_three_plus_three_rung_certifies_complete():
    """The 3+3 rung certifies complete, well inside a 512 MiB cap that turns
    a runaway allocation into a MemoryError rather than an exhausted
    machine."""
    _assert_rung_certifies(3, 3, ["x1^2", "x2^2", "x3^2", "x1*x2*x3"], ["y1^2", "y2^2", "y3^2"],
                           [1, 16, 48, 67, 52, 22, 4])


def _assert_rung_certifies(m, n, iprime, jprime, ranks):
    inst = block_instance(m, n, iprime, jprime)
    res = build_fiber(inst).resolution
    assert [res.rank(k) for k in res.support()] == ranks
    bound = default_degree_bound(inst, res)
    with address_space_cap(512):
        rep = homology_dims(res, bound)
    assert rep.complete and rep.exact_in_positive
    assert rep.h0 == hilbert_function(inst.quotient_ideal(), bound)


def test_four_plus_three_rung_certifies_complete():
    """The 4+3 rung, the largest of the benchmark's frontier, certifies
    complete under the same cap."""
    _assert_rung_certifies(4, 3, ["x1^2", "x2^2", "x3^2", "x4^2", "x1*x2*x3"], ["y1^2", "y2^2", "y3^2"],
                           [1, 20, 70, 119, 120, 74, 26, 4])


@seed(20261023)
@given(small_ideals())
def test_long_exact_sequence_shapes_agree_with_dense_oracle(I):
    """Suspensions by 1 and -1, the sum of a resolution with itself, that
    sum's suspension and its sum with itself less the top module agree with
    the dense oracle up to the top of the box, which every block lies below."""
    R = resolution_of(I)
    for name, C in _sequence_shapes(R, R):
        bound = _lcm_degree(C)
        rep = homology_dims(C, bound)
        assert rep.complete and (rep.dims, rep.h0) == dense_homology(C, bound), name


@seed(20261018)
@given(small_ideals())
def test_box_walk_certifies_every_degree_at_bound_zero(I):
    """At bound 0 only degree 0 is printed, yet the verdicts cover all
    degrees: a resolution certifies, and without its top module it fails."""
    R = resolution_of(I)
    rep = homology_dims(R, 0, against=I)
    assert rep.complete and rep.exact_in_positive and rep.h0_matches
    assert certifies_resolution_of(R, I, 0)
    top, C = R.max_degree(), without_top_module(R)
    rep = homology_dims(C, 0, against=I)
    assert rep.complete and not certifies_resolution_of(C, I, 0)
    if top >= 2:  # deleting F_top leaves H_(top - 1), its image
        assert not rep.exact_in_positive and rep.homology_at[0] == top - 1
    else:  # a principal ideal: H_0 is all of R
        assert not rep.h0_matches


@seed(20261019)
@given(small_ideals())
def test_box_walk_agrees_with_dense_oracle_off_minimal_complexes(I):
    """Unminimized Taylor complexes have unit entries, so columns a block
    reduced become cancelled at later points of the walk that extend it;
    H and H_0 still match the dense oracle, with and without the top module."""
    T = taylor(I)
    for C in (T, without_top_module(T)):
        bound = C.max_twist()
        rep = homology_dims(C, bound)
        assert rep.complete and (rep.dims, rep.h0) == dense_homology(C, bound)


def test_box_limit_is_inclusive(monkeypatch):
    """A box of MAX_BOX_POINTS points is walked and one more is refused; the
    box of Tor, that of X (x) Y, also covers the generators of J.  The limit
    sits above the 6+6 block instances' box of 3^12 points."""
    assert MAX_BOX_POINTS >= 3 ** 12
    monkeypatch.setattr(starcone.homcheck, "MAX_BOX_POINTS", 8)
    ring = RingSpec(("x", "y"))
    fits = resolution_of(MonomialIdeal.parse(["x^3", "y"], ring))
    assert homology_dims(fits, 3).exact_in_positive
    with pytest.raises(BoxTooLarge, match=r"^lcm box of 10 points is above 8, the largest walked$"):
        homology_dims(resolution_of(MonomialIdeal.parse(["x^4", "y"], ring)), 3)
    with pytest.raises(BoxTooLarge, match=r"^lcm box of 12 points is above 8"):
        tor_dims(fits, MonomialIdeal.parse(["y"], ring), 3)
