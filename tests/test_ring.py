"""Polynomial arithmetic, parsing, and monomial ideal calculus."""
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starcone import (
    MonomialIdeal,
    Polynomial,
    PolyParseError,
    RationalField,
    RingSpec,
    fiber_ideal_check,
    hilbert_function,
    ideal_contains,
    ideal_intersection,
    ideal_membership,
    ideal_product,
    ideal_sum,
    is_tor_independent,
    poly_parse,
)
from starcone.ring import ideal_monomial_count, mono_degree, monomials_of_degree

from helpers import pairwise_minimal_generators, reference_fiber_ideal_check

RING = RingSpec(("x", "y"))
RING3 = RingSpec(("x", "y", "z"))


def P(text, ring=RING):
    return poly_parse(text, ring)


def ideal(texts, ring=RING):
    return MonomialIdeal.parse(texts, ring)


# ----------------------------------------------------------------- parsing

def test_parse_print_roundtrip_basics():
    for text in ["x^2*y + 3*x", "x - y", "2", "x^3 - x*y^2 + 1"]:
        p = P(text)
        assert P(str(p)) == p


def test_parse_canonical_order_is_graded_then_lex():
    p = P("1 + y + x + y^2 + x*y + x^2")
    assert str(p) == "x^2 + x*y + y^2 + x + y + 1"


def test_parse_rejects_garbage():
    for bad in ["x +", "^2", "q", "x^", "3*", "x^-2", "", "1/32003*x", "1/0", "+", "-", " - "]:
        with pytest.raises(PolyParseError):
            P(bad)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        for bad in ["1" * (limit + 1) + "*x", "x^" + "1" * (limit + 1)]:
            with pytest.raises(PolyParseError, match="too long"):
                P(bad)


@pytest.mark.parametrize("text", ["x*" * 20000 + "!", "x + " * 20000 + "!", " " * 20000 + "!"])
def test_parse_refuses_long_text_without_backtracking(text):
    # each has 20000 tokens or blanks; an exponentially backtracking grammar hangs here
    with pytest.raises(PolyParseError):
        P(text)


blank = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


@st.composite
def texts_with_values(draw):
    """Text drawn from the parser's grammar, with whitespace before every
    token, and the polynomial it denotes, computed by Polynomial arithmetic."""
    ring = draw(st.sampled_from([RING3, RingSpec(RING3.variables, coeff_field=RationalField())]))
    one = (0,) * ring.nvars
    text, value = "", Polynomial.zero(ring)
    for i in range(draw(st.integers(1, 4))):
        neg = draw(st.booleans())
        if neg or i or draw(st.booleans()):  # the first term's + is optional
            text += draw(blank) + ("-" if neg else "+")
        term = Polynomial.monomial(ring, one, -1 if neg else 1)
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["int", "fraction", "variable"]))
            if kind == "int":
                n = draw(st.integers(0, 40000))
                factors.append(draw(blank) + str(n))
                term *= Polynomial.monomial(ring, one, n)
            elif kind == "fraction":
                a, b = draw(st.integers(0, 99)), draw(st.integers(1, 99))
                factors.append(f"{draw(blank)}{a}{draw(blank)}/{draw(blank)}{b}")
                term *= Polynomial.monomial(ring, one, Fraction(a, b))
            else:
                v = draw(st.integers(0, ring.nvars - 1))
                e = draw(st.one_of(st.none(), st.integers(0, 3)))
                factors.append(draw(blank) + ring.variables[v]
                               + ("" if e is None else f"{draw(blank)}^{draw(blank)}{e}"))
                m = [0] * ring.nvars
                m[v] = 1 if e is None else e
                term *= Polynomial.monomial(ring, tuple(m))
        text += (draw(blank) + "*").join(factors)
        value += term
    return text + draw(blank), ring, value


@given(texts_with_values())
def test_parse_follows_the_grammar(case):
    text, ring, value = case
    assert poly_parse(text, ring) == value


def test_parse_rational_coefficients():
    ring = RingSpec(("x",), coeff_field=RationalField())
    p = poly_parse("1/2*x + 1/3", ring)
    assert poly_parse(str(p), ring) == p


def test_parse_prime_field_normalizes():
    assert str(P("-x")) == "32002*x"
    assert P("x + x") == P("2*x")
    assert P("x - x").is_zero()


def test_ideal_parse_rejects_sums():
    with pytest.raises(ValueError, match=r"^'x \+ y' is not a monomial$") as exc:
        ideal([" x + y "])
    assert not isinstance(exc.value, PolyParseError)


def test_ideal_parse_drops_blanks_zeros_and_coefficients():
    """The rules the command line reads ideal text by: a blank or zero text
    adds nothing, and a coefficient generates the same ideal."""
    assert ideal(["2*x", "0", " ", "", "x - x", " -3*y^2 "]) == ideal(["x", "y^2"])
    assert ideal(["32003*x"]).is_zero()
    with pytest.raises(PolyParseError):
        ideal(["x^"])
    with pytest.raises(ValueError, match="unit ideal"):
        ideal(["y^0"])


# -------------------------------------------------------------- arithmetic

small_polys = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)),
    min_size=0,
    max_size=5,
).map(
    lambda triples: sum(
        (
            Polynomial.monomial(RING, (a, b), RING.coeff_field.of_int(c))
            for a, b, c in triples
            if c % 32003
        ),
        Polynomial.zero(RING),
    )
)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == Polynomial.zero(RING)


@given(small_polys)
def test_str_parse_roundtrip(p):
    assert P(str(p)) == p


def test_homogeneous_degree():
    assert P("x^2 + x*y").is_homogeneous()
    assert not P("x^2 + x").is_homogeneous()
    assert P("x^2*y").degree() == 3
    assert P("0").is_zero() and P("0").degree() is None


# ------------------------------------------------------------------ ideals

def test_minimal_generators_canonical():
    got = ideal(["x^2", "x^3", "y*x^2", "y"])
    assert got == ideal(["y", "x^2"])
    assert str(got) == "<y, x^2>"


def test_ideal_intersection_frozen():
    got = ideal_intersection(ideal(["x^2", "y"]), ideal(["x", "y^2"]))
    assert got == ideal(["x^2", "x*y", "y^2"])


def test_ideal_product_and_sum():
    I = ideal(["x"])
    J = ideal(["y"])
    assert ideal_product(I, J) == ideal(["x*y"])
    assert ideal_sum(I, J) == ideal(["x", "y"])
    assert ideal_product(ideal(["x", "y"]), ideal(["x", "y"])) == ideal(
        ["x^2", "x*y", "y^2"]
    )


def test_membership_and_containment():
    I = ideal(["x^2", "y^3"])
    assert ideal_membership(P("x^2*y + y^4"), I)
    assert not ideal_membership(P("x + y"), I)
    assert ideal_membership(Polynomial.zero(RING), I)
    assert ideal_contains(I, ideal(["x^3*y"]))
    assert not ideal_contains(ideal(["x^3*y"]), I)


def test_hilbert_function_frozen():
    assert hilbert_function(ideal(["x*y"]), 3) == [1, 2, 2, 2]
    assert hilbert_function(ideal(["x", "y"]), 4) == [1, 0, 0, 0, 0]
    assert hilbert_function(MonomialIdeal(RING, []), 3) == [1, 2, 3, 4]


def test_hilbert_inclusion_exclusion_agree():
    I = MonomialIdeal.parse(["x^2*y", "y^3", "x*z^2"], RING3)
    for d in range(8):
        total = len(monomials_of_degree(3, d))
        assert hilbert_function(I, d)[d] + ideal_monomial_count(I, d) == total


def test_hilbert_function_in_high_degree():
    """The closed form over the lcm box agrees with inclusion-exclusion far
    above the generators' degrees, and the eighth powers of 8 variables,
    whose box has 9^8 points, are counted at once."""
    R5 = RingSpec(("x1", "x2", "x3", "x4", "y"))
    Q = MonomialIdeal.parse(["x1^2", "x1*y", "x2*y", "x3*y", "x4*y", "y^2"], R5)
    assert hilbert_function(Q, 300)[300] == comb(304, 4) - ideal_monomial_count(Q, 300)
    R8 = RingSpec(tuple(f"x{i}" for i in range(8)))
    eighths = MonomialIdeal(R8, [tuple(8 * (i == j) for i in range(8)) for j in range(8)])
    assert hilbert_function(eighths, 8) == [comb(d + 7, 7) for d in range(8)] + [comb(15, 7) - 8]


@st.composite
def monomial_ideals(draw):
    """A monomial ideal in 1-4 variables with 1-5 (not always minimal) generators."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: sum(e) > 0)
    ring = RingSpec(tuple(f"v{i}" for i in range(nvars)))
    return MonomialIdeal(ring, draw(st.lists(exps, min_size=1, max_size=5)))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                                                     min_size=1, max_size=8)), st.randoms())
def test_minimal_generators_match_pairwise_reference(exps, rng):
    """Shuffled, duplicated and non-minimal generators give the gens the
    pairwise definition gives."""
    monos = exps + exps[: len(exps) // 2] + [tuple(e + 1 for e in m) for m in exps[::3]]
    rng.shuffle(monos)
    ring = RingSpec(tuple(f"v{i}" for i in range(len(exps[0]))))
    assert MonomialIdeal(ring, monos).gens == pairwise_minimal_generators(monos)


@given(monomial_ideals())
def test_hilbert_function_complements_inclusion_exclusion(I):
    n = I.ring.nvars
    h = hilbert_function(I, 8)
    for d in range(9):
        assert h[d] + ideal_monomial_count(I, d) == comb(d + n - 1, n - 1)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) > 0),
        min_size=1,
        max_size=4,
    )
)
def test_intersection_by_two_sided_membership(exps):
    I = MonomialIdeal(RING, [e for e in exps])
    J = ideal(["x^2", "x*y^2"])
    both = ideal_intersection(I, J)
    assert ideal_contains(I, both) and ideal_contains(J, both)
    for d in range(6):
        for mono in monomials_of_degree(2, d):
            inside = I.contains_monomial(mono) and J.contains_monomial(mono)
            assert inside == both.contains_monomial(mono)


def test_fiber_ideal_identity_quadratic():
    Ip = ideal(["x^2"])
    I = ideal(["x"])
    Jp = ideal(["y^2"])
    J = ideal(["y"])
    assert fiber_ideal_check(Ip, I, Jp, J)
    with pytest.raises(ValueError, match="Ip must be contained in I"):
        fiber_ideal_check(I, Ip, Jp, J)
    with pytest.raises(ValueError, match="Jp must be contained in J"):
        fiber_ideal_check(Ip, I, J, Jp)


def test_fiber_ideal_identity_two_blocks():
    ring = RingSpec(("x1", "x2", "y1", "y2"))
    idl = lambda ts: MonomialIdeal.parse(ts, ring)
    assert fiber_ideal_check(
        idl(["x1^2", "x1*x2^3"]),
        idl(["x1", "x2^2"]),
        idl(["y1^3"]),
        idl(["y1", "y2"]),
    )


def squarefree_ideals(ring):
    """Every nonzero proper squarefree monomial ideal of ring: one per
    nonempty antichain of nonempty variable sets (166 in 4 variables)."""
    n = ring.nvars
    sets, out = range(1, 1 << n), []
    for pick in range(1, 1 << len(sets)):
        chosen = [s for k, s in enumerate(sets) if pick >> k & 1]
        if all(a & b != a for a in chosen for b in chosen if a != b):
            out.append(MonomialIdeal(ring, [tuple(s >> i & 1 for i in range(n)) for s in chosen]))
    return out


def test_tor_independence_is_disjoint_supports_on_squarefree_pairs():
    """The support test agrees with I cap J = IJ (Tor_1 = 0) on all 166^2
    pairs of nonzero squarefree ideals in 4 variables: no Tor-independent
    pair shares a variable, and every refusal has a witness."""
    ideals = squarefree_ideals(RingSpec(("a", "b", "c", "d")))
    assert len(ideals) == 166
    for I in ideals:
        for J in ideals:
            assert bool(is_tor_independent(I, J)) == (ideal_intersection(I, J) == ideal_product(I, J))


EXPONENTS3 = st.tuples(*[st.integers(0, 2)] * 3)


@st.composite
def nested_pairs(draw):
    """(I', I) in x, y, z: I has 1-3 generators with exponents at most 2,
    and each generator of I' is a generator of I times such a monomial or 1."""
    I = MonomialIdeal(RING3, draw(st.lists(EXPONENTS3.filter(any), min_size=1, max_size=3)))
    multiples = st.tuples(st.sampled_from(I.gens), EXPONENTS3)
    return MonomialIdeal(RING3, [tuple(map(sum, zip(g, u))) for g, u in
                                 draw(st.lists(multiples, min_size=1, max_size=3))]), I


@given(nested_pairs(), nested_pairs())
def test_fiber_ideal_check_matches_pairwise_reference(left, right):
    """The one containment I cap J <= I' + IJ + J' decides the identity the
    reference checks by comparing both sides."""
    (Ip, I), (Jp, J) = left, right
    assert fiber_ideal_check(Ip, I, Jp, J) == reference_fiber_ideal_check(Ip, I, Jp, J)


def test_ring_spec_partition_validation():
    with pytest.raises(ValueError):
        RingSpec(("x", "y"), partition=(("x",), ("x",)))
    with pytest.raises(ValueError):
        RingSpec(("x", "x"))
    ring = RingSpec(("a", "b", "c"), partition=(["a"], ["b", "c"]))
    assert ring.partition == (("a",), ("b", "c"))


def test_field_descriptions_roundtrip():
    for ring in (RING, RingSpec(("x",), coeff_field=RationalField())):
        again = RingSpec.from_description(ring.describe())
        assert again == ring


def test_monomial_degree_helper():
    assert mono_degree((2, 3)) == 5
    assert sorted(mono_degree(m) for m in monomials_of_degree(2, 4)) == [4] * 5
