"""Acceptance suite: nine criteria, one test (and one verdict line) each.

Run with `pytest -v` to get the per-criterion pass/fail lines; each test
also prints a `[criterion N] PASS` line visible under `-s` or `-rA`.
"""
import random
from math import comb

import pytest

from starcone import (
    MonomialIdeal,
    RingSpec,
    betti_fiber,
    betti_product_table,
    block_instance,
    build_fiber,
    certifies_resolution_of,
    certify_minimal,
    cone_phi,
    cone_psi,
    fiber_betti_table,
    fiber_ideal_check,
    generating_function,
    graded_betti,
    hilbert_function,
    homology_dims,
    ideal_contains,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_chain_map,
    is_complex,
    make_instance,
    minimize,
    poincare_identity_1,
    poincare_identity_2,
    poly_parse,
    resolution_of,
    series_of_ideal,
    taylor,
    tensor,
    tor_dims,
)
from starcone.complexes import ChainComplex, PolyMatrix
from starcone.ring import ideal_membership

from helpers import monomial_text, random_exponents, small_instances


def report(n, message):
    print(f"[criterion {n}] PASS - {message}")


def block_star(m, n):
    xs = [f"x{i+1}" for i in range(m)] if m > 1 else ["x"]
    ys = [f"y{j+1}" for j in range(n)] if n > 1 else ["y"]
    ring = RingSpec(tuple(xs + ys), partition=(tuple(xs), tuple(ys)))
    I = MonomialIdeal.parse(xs, ring)
    J = MonomialIdeal.parse(ys, ring)
    from starcone import star_product

    return star_product(resolution_of(I), resolution_of(J)), I, J


def test_criterion_1_worked_star_example():
    S, I, J = block_star(2, 2)
    assert [S.rank(n) for n in range(4)] == [1, 4, 4, 1]
    m = lambda n: [
        [str(S.diff(n).entry(i, j)) for j in range(S.diff(n).ncols)]
        for i in range(S.diff(n).nrows)
    ]
    assert m(1) == [["x1*y1", "x1*y2", "x2*y1", "x2*y2"]]
    neg = lambda v: f"32002*{v}"
    assert m(2) == [
        ["y2", "0", neg("x2"), "0"],
        [neg("y1"), "0", "0", neg("x2")],
        ["0", "y2", "x1", "0"],
        ["0", neg("y1"), "0", "x1"],
    ]
    assert m(3) == [[neg("x2")], ["x1"], [neg("y2")], ["y1"]]
    assert is_complex(S)
    rep = homology_dims(S, 8)
    assert rep.exact_in_positive
    assert rep.h0 == hilbert_function(ideal_product(I, J), 8)
    report(1, "2x2 star matrices, d^2 = 0, exact through degree 8")


def test_criterion_2_rank_formula():
    for m in range(1, 5):
        for n in range(1, 5):
            S, _, _ = block_star(m, n)
            for ell in range(0, m + n + 2):
                want = (
                    1
                    if ell == 0
                    else comb(m + n, ell + 1) - comb(m, ell + 1) - comb(n, ell + 1)
                )
                assert S.rank(ell) == want, (m, n, ell)
    report(2, "star ranks match the binomial formula for all m, n <= 4")


def test_criterion_3_quadratic_fiber_product():
    inst = block_instance(1, 1, ["x^2"], ["y^2"])
    build = build_fiber(inst)
    res = build.resolution
    table = graded_betti(res)
    assert table.totals() == {0: 1, 1: 3, 2: 2}
    assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    rep = homology_dims(res, 6)
    assert rep.exact_in_positive
    assert rep.h0 == [1, 2, 0, 0, 0, 0, 0]
    assert bool(certify_minimal(inst, build))
    oracle = minimize(taylor(inst.quotient_ideal()))
    assert graded_betti(oracle) == table
    report(3, "quadratic fiber product: betti, exactness, H0, minimality, oracle")


def test_criterion_4_formula_vs_construction(suite):
    assert len(suite) >= 20
    for inst, build in suite:
        built = graded_betti(build.resolution)
        bS = graded_betti(inst.S)
        bX = graded_betti(inst.X)
        bT = graded_betti(inst.T)
        bY = graded_betti(inst.Y)
        formula = fiber_betti_table(betti_product_table(bX, bY), bS, bX, bT, bY)
        assert formula == built
        m = len(inst.ring.partition[0])
        n = len(inst.ring.partition[1])
        totals = built.totals()
        for ell in range(build.resolution.max_degree() + 2):
            assert betti_fiber(ell, m, n, bS, bT) == totals.get(ell, 0)
    report(4, f"closed-form tables equal constructed tables on {len(suite)} instances")


def test_criterion_5_poincare_identities(suite):
    for inst, build in suite:
        res = build.resolution
        tr = res.max_degree() + inst.ring.nvars + 2
        PF = generating_function(res, tr)
        P_IpJ = generating_function(tensor(inst.S, inst.Y), tr)
        P_IJp = generating_function(tensor(inst.X, inst.T), tr)
        P_IplusJ = generating_function(tensor(inst.X, inst.Y), tr)
        P_IJ = series_of_ideal(generating_function(build.star, tr))
        assert poincare_identity_1(PF, P_IpJ, P_IJp, P_IplusJ, P_IJ).is_zero()
        m = len(inst.ring.partition[0])
        n = len(inst.ring.partition[1])
        PIp = generating_function(inst.S, tr)
        PJp = generating_function(inst.T, tr)
        assert poincare_identity_2(PF, PIp, PJp, m, n).is_zero()
    report(5, f"both Poincare residuals vanish on {len(suite)} instances")


def test_criterion_6_chain_maps_and_minimality(suite):
    for inst, build in suite:
        assert is_chain_map(build.Phi)
        assert is_chain_map(build.Psi)
        assert build.constrained
        for rep, ideal in ((build.phi_lift, inst.I), (build.psi_lift, inst.J)):
            for deg, mat in rep.map.mats.items():
                if deg == 0:
                    continue
                for _, _, p in mat.nonzero_entries():
                    assert ideal_membership(p, ideal)
        cert = certify_minimal(inst, build)
        assert cert.hypotheses_ok and cert.resolution_minimal
    # the I' = I degenerate case must fail minimality
    ring = RingSpec(("x", "y"), partition=(("x",), ("y",)))
    mk = lambda ts: MonomialIdeal.parse(ts, ring)
    degen = make_instance(ring, mk(["x"]), mk(["x"]), mk(["y^2"]), mk(["y"]))
    dbuild = build_fiber(degen)
    dcert = certify_minimal(degen, dbuild)
    assert not dcert.ip_in_i_squared
    assert not dcert.resolution_minimal
    report(6, "chain maps, constrained lifts, minimality, and the degenerate case")


def test_criterion_7_single_cones_certified():
    instances = small_instances(5, seed=21)
    assert len(instances) >= 5
    for inst in instances:
        IJ = ideal_product(inst.I, inst.J)
        Cphi = cone_phi(inst)
        bound = inst.max_gen_degree() + Cphi.max_degree() + 2
        assert certifies_resolution_of(Cphi, ideal_sum(inst.Ip, IJ), bound)
        Cpsi = cone_psi(inst)
        bound = inst.max_gen_degree() + Cpsi.max_degree() + 2
        assert certifies_resolution_of(Cpsi, ideal_sum(IJ, inst.Jp), bound)
    report(7, f"cone(Phi) and cone(Psi) certified on {len(instances)} instances")


def test_criterion_8_ideal_identity_random():
    rng = random.Random(88)
    checked = 0
    while checked < 50:
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        xs = [f"x{i+1}" for i in range(m)] if m > 1 else ["x"]
        ys = [f"y{j+1}" for j in range(n)] if n > 1 else ["y"]
        ring = RingSpec(tuple(xs + ys), partition=(tuple(xs), tuple(ys)))

        def random_ideal(names):
            gens = [
                monomial_text(names, random_exponents(rng, len(names), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            ]
            return MonomialIdeal.parse(gens, ring)

        def random_subideal(I, names):
            gens = []
            for _ in range(rng.randint(1, 3)):
                base = rng.choice(I.gens)
                extra = random_exponents(rng, len(names), rng.randint(0, 2))
                text = monomial_text(
                    ring.variables,
                    [
                        b + (extra[names.index(v)] if v in names else 0)
                        for v, b in zip(ring.variables, base)
                    ],
                )
                gens.append(text)
            return MonomialIdeal.parse(gens, ring)

        I = random_ideal(xs)
        J = random_ideal(ys)
        Ip = random_subideal(I, xs)
        Jp = random_subideal(J, ys)
        assert fiber_ideal_check(Ip, I, Jp, J)
        lhs = ideal_intersection(ideal_sum(Ip, J), ideal_sum(I, Jp))
        rhs = ideal_sum(ideal_sum(Ip, Jp), ideal_product(I, J))
        assert ideal_contains(lhs, rhs) and ideal_contains(rhs, lhs)
        checked += 1
    report(8, "intersection identity on 50 random nested-pair instances")


def test_criterion_9_tor_oracle_and_mutation():
    # disjoint blocks: no positive Tor
    ring2 = RingSpec(("x", "y"))
    X = resolution_of(MonomialIdeal.parse(["x"], ring2))
    dims = tor_dims(X, MonomialIdeal.parse(["y"], ring2), 5).dims
    assert all(cell[0] == 0 for cell in dims)
    # self pair in one variable: Tor_1 = k in degree 1
    ring1 = RingSpec(("x",))
    X1 = resolution_of(MonomialIdeal.parse(["x"], ring1))
    dims1 = tor_dims(X1, MonomialIdeal.parse(["x"], ring1), 4).dims
    assert {c: v for c, v in dims1.items() if c[0] >= 1} == {(1, 1): 1}
    # mutation: corrupting one differential entry must be detected
    inst = block_instance(1, 1, ["x^2"], ["y^2"])
    res = build_fiber(inst).resolution
    rows = [list(r) for r in res.diff(2).rows]
    assert str(rows[0][0]) == "x"
    rows[0][0] = poly_parse("y", res.ring)
    mutated = ChainComplex(
        res.ring,
        {n: res.twists(n) for n in res.support()},
        {1: res.diff(1), 2: PolyMatrix(res.ring, 3, 2, rows)},
    )
    if is_complex(mutated):
        rep = homology_dims(mutated, 6)
        detected = not rep.exact_in_positive or rep.h0 != hilbert_function(
            inst.quotient_ideal(), 6
        )
        assert detected
    else:
        with pytest.raises(ValueError):
            homology_dims(mutated, 6)
    report(9, "Tor oracles correct; corrupted differential detected")
